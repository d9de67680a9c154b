//! The activation-lifecycle rules that map instructions to ledger
//! operations, shared verbatim by the offline memory simulator
//! (mario-core) and the online cluster emulator (mario-cluster).
//!
//! Lifecycle (paper §5.1/§5.2):
//!
//! * a plain forward retains the stage's **full activations** until its
//!   backward completes;
//! * a checkpointed forward retains only the **stashed stage input**
//!   (checkpoint); the **recompute** restores the full activations, and the
//!   backward then frees both;
//! * a forward whose boundary output crosses devices holds a **send
//!   buffer** until the `SA` completes (this is the buffer pass 4 relies on
//!   when preposing forwards while leaving `SA` in place);
//! * receive-side staging is treated as transient (the incoming boundary
//!   tensor is part of the consumer's activation accounting already).

use crate::cost::CostModel;
use crate::ids::{DeviceId, PartId};
use crate::instr::{Instr, InstrKind};
use crate::ledger::{AllocError, AllocKey, MemLedger};
use crate::schedule::Schedule;
use crate::topology::SchemeKind;

/// Precomputed per-schedule facts needed to apply memory effects.
#[derive(Debug, Clone)]
pub struct MemoryRules {
    /// Whether the forward output of `(device, part)` on each route
    /// crosses to a different device (and therefore needs a send buffer),
    /// indexed `(route × devices + device) × parts + part`. Every micro of
    /// a route shares its forward path, so D × parts facts per route cover
    /// every micro.
    crossing: Vec<bool>,
    /// Route of each of the schedule's micros.
    routes: Vec<u32>,
    devices: usize,
    parts: usize,
    /// Instructions in each device's program, which bound its ledger's
    /// dense table.
    program_lens: Vec<usize>,
    /// Forward-only (serving) lifecycle: no backward ever comes, so the
    /// full activations are released as soon as the forward completes and
    /// only the crossing send buffer outlives the instruction. Memory
    /// stays bounded at any request count.
    forward_only: bool,
}

impl MemoryRules {
    /// Extracts the boundary-crossing facts from `schedule`.
    pub fn new(schedule: &Schedule) -> Self {
        let topo = &schedule.topology;
        let (devices, parts) = (topo.devices as usize, topo.parts_per_device() as usize);
        let last = topo.num_routes() - 1;
        let mut crossing = vec![false; (last as usize + 1) * devices * parts];
        for route in 0..=last {
            for w in topo.forward_path(route).windows(2) {
                let ((d, p), (nd, _)) = (w[0], w[1]);
                if nd != d {
                    crossing[(route as usize * devices + d.index()) * parts + p.index()] = true;
                }
            }
        }
        Self {
            crossing,
            // `forward_path` reads a route past the last as the last.
            routes: (schedule.routes.iter().take(schedule.micros as usize))
                .map(|&r| r.min(last))
                .collect(),
            devices,
            parts,
            program_lens: schedule.programs().iter().map(|p| p.len()).collect(),
            forward_only: matches!(topo.scheme, SchemeKind::ForwardOnly),
        }
    }

    /// A dense ledger for `device`'s instructions priced by `cost`: every
    /// size the rules allocate per (micro, part) is read from `cost` here,
    /// once, and `static_bytes` and `capacity` are as in
    /// [`MemLedger::new`]. [`MemoryRules::apply`] must then be given the
    /// same device and cost.
    ///
    /// A valid program has at least as many instructions as its table
    /// has (micro, part) cells (a forward and a backward per micro on
    /// each part it visits). A program with fewer, beyond a 64-cell floor
    /// (a header inflated past its instructions), gets no dense table, so
    /// nothing is sized by the header alone. Its answers are the same,
    /// only slower.
    pub fn ledger(
        &self,
        device: DeviceId,
        cost: &dyn CostModel,
        static_bytes: u64,
        capacity: Option<u64>,
    ) -> MemLedger {
        let micros = self.routes.len();
        let instrs = self.program_lens.get(device.index()).copied().unwrap_or(0);
        if micros.saturating_mul(self.parts) > instrs.max(64) {
            return MemLedger::new(static_bytes, capacity);
        }
        let sizes = (0..self.parts as u32)
            .map(|p| {
                let p = PartId(p);
                [
                    cost.act_full(device, p),
                    cost.act_ckpt(device, p),
                    cost.boundary_bytes(device, p),
                    cost.wgrad_stash_bytes(device, p),
                ]
            })
            .collect();
        MemLedger::dense(static_bytes, capacity, micros, sizes)
    }

    /// True if the forward of `(micro, part)` on `device` sends its output
    /// to another device. Ids outside the schedule never cross.
    #[inline]
    pub fn crosses(&self, device: DeviceId, instr: &Instr) -> bool {
        let (d, p) = (device.index(), instr.part.index());
        let Some(&route) = self.routes.get(instr.micro.index()) else {
            return false;
        };
        d < self.devices
            && p < self.parts
            && self.crossing[(route as usize * self.devices + d) * self.parts + p]
    }

    /// Applies the memory effect of `instr` (evaluated at its completion)
    /// to `ledger`. Sizes come from the ledger's dense table, or from
    /// `cost` for a key outside it.
    #[inline]
    pub fn apply(
        &self,
        ledger: &mut MemLedger,
        cost: &dyn CostModel,
        device: DeviceId,
        instr: &Instr,
    ) -> Result<(), AllocError> {
        let m = instr.micro;
        let p = instr.part;
        match instr.kind {
            InstrKind::Forward { ckpt } => {
                if self.forward_only {
                    // Inference: the activations live only for the duration
                    // of the forward itself (they peak against capacity),
                    // then everything but the boundary output is dropped.
                    ledger.alloc_sized(AllocKey::Act(m, p), || cost.act_full(device, p))?;
                    if self.crosses(device, instr) {
                        ledger.alloc_sized(AllocKey::OutBuf(m, p), || {
                            cost.boundary_bytes(device, p)
                        })?;
                    }
                    ledger.free_if_live(AllocKey::Act(m, p));
                    return Ok(());
                }
                if ckpt {
                    ledger.alloc_sized(AllocKey::Ckpt(m, p), || cost.act_ckpt(device, p))?;
                } else {
                    ledger.alloc_sized(AllocKey::Act(m, p), || cost.act_full(device, p))?;
                }
                if self.crosses(device, instr) {
                    ledger
                        .alloc_sized(AllocKey::OutBuf(m, p), || cost.boundary_bytes(device, p))?;
                }
                Ok(())
            }
            InstrKind::Recompute => {
                ledger.alloc_sized(AllocKey::Act(m, p), || cost.act_full(device, p))
            }
            InstrKind::Backward => {
                ledger.free_if_live(AllocKey::Act(m, p));
                ledger.free_if_live(AllocKey::Ckpt(m, p));
                Ok(())
            }
            InstrKind::BackwardInput => {
                // ZB accounting: the weight GEMM still *reads* the stage's
                // activations, so the input-gradient half must not free them
                // — it only adds the small per-layer gradient stash. (An
                // earlier version freed `Act` here, under-counting every
                // split schedule's peak between `Bi` and `Bw`.)
                ledger.alloc_sized(AllocKey::Wgrad(m, p), || cost.wgrad_stash_bytes(device, p))
            }
            InstrKind::BackwardWeight => {
                // The deferred weight half is the true end of the micro's
                // lifecycle: activations, checkpoint stash, and the gradient
                // stash all retire here.
                ledger.free_if_live(AllocKey::Act(m, p));
                ledger.free_if_live(AllocKey::Wgrad(m, p));
                ledger.free_if_live(AllocKey::Ckpt(m, p));
                Ok(())
            }
            InstrKind::SendAct { .. } => {
                // The send buffer (if any) is released once the transfer
                // completes. SA tagged with the producer part == our part.
                ledger.free_if_live(AllocKey::OutBuf(m, p));
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use crate::ids::PartId;
    use crate::topology::{SchemeKind, Topology};

    fn two_dev_sched() -> Schedule {
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        Schedule::empty(topo, 2, vec![0, 0])
    }

    #[test]
    fn plain_forward_holds_full_activation_until_backward() {
        let s = two_dev_sched();
        let rules = MemoryRules::new(&s);
        let cost = UnitCost::paper_grid().with_ckpt_bytes(0);
        let mut l = MemLedger::new(0, None);
        let d = DeviceId(1); // last stage: no crossing output
        rules
            .apply(&mut l, &cost, d, &Instr::forward(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 1);
        rules
            .apply(&mut l, &cost, d, &Instr::backward(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 0);
    }

    #[test]
    fn split_backward_keeps_activation_live_until_the_weight_half() {
        let s = two_dev_sched();
        let rules = MemoryRules::new(&s);
        let cost = UnitCost {
            act_full_bytes: 10,
            ..UnitCost::paper_grid()
        };
        let mut l = MemLedger::new(0, None);
        let d = DeviceId(1); // last stage: no crossing output
        rules
            .apply(&mut l, &cost, d, &Instr::forward(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 10);
        // Bi must NOT free the activation: the weight GEMM reads it.
        rules
            .apply(&mut l, &cost, d, &Instr::backward_input(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 10);
        // Bw retires everything.
        rules
            .apply(&mut l, &cost, d, &Instr::backward_weight(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 0);
        assert_eq!(l.peak(), 10);
    }

    #[test]
    fn checkpointed_lifecycle_peaks_at_full_plus_ckpt() {
        let s = two_dev_sched();
        let rules = MemoryRules::new(&s);
        let cost = UnitCost {
            act_full_bytes: 10,
            act_ckpt_bytes: 1,
            ..UnitCost::paper_grid()
        };
        let mut l = MemLedger::new(0, None);
        let d = DeviceId(1);
        rules
            .apply(&mut l, &cost, d, &Instr::ckpt_forward(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 1); // checkpoint only
        rules
            .apply(&mut l, &cost, d, &Instr::recompute(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 11); // restored full + checkpoint
        rules
            .apply(&mut l, &cost, d, &Instr::backward(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 0);
        assert_eq!(l.peak(), 11);
    }

    #[test]
    fn crossing_forward_holds_send_buffer_until_sa() {
        let s = two_dev_sched();
        let rules = MemoryRules::new(&s);
        // Device 0's forward output crosses to device 1.
        assert!(rules.crosses(DeviceId(0), &Instr::forward(0u32, 0u32)));
        assert!(!rules.crosses(DeviceId(1), &Instr::forward(0u32, 0u32)));

        struct BoundaryCost;
        impl CostModel for BoundaryCost {
            fn compute_time(
                &self,
                _: DeviceId,
                _: PartId,
                _: crate::cost::ComputeKind,
            ) -> crate::cost::Nanos {
                1
            }
            fn act_full(&self, _: DeviceId, _: PartId) -> u64 {
                10
            }
            fn act_ckpt(&self, _: DeviceId, _: PartId) -> u64 {
                1
            }
            fn boundary_bytes(&self, _: DeviceId, _: PartId) -> u64 {
                5
            }
            fn p2p_time(&self, _: u64) -> crate::cost::Nanos {
                0
            }
            fn allreduce_time(&self, _: DeviceId) -> crate::cost::Nanos {
                0
            }
            fn optimizer_time(&self, _: DeviceId) -> crate::cost::Nanos {
                0
            }
            fn static_mem(&self, _: DeviceId) -> u64 {
                0
            }
        }

        let cost = BoundaryCost;
        let mut l = MemLedger::new(0, None);
        let d = DeviceId(0);
        rules
            .apply(&mut l, &cost, d, &Instr::forward(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 15); // act 10 + out buffer 5
        rules
            .apply(
                &mut l,
                &cost,
                d,
                &Instr::send_act(0u32, 0u32, DeviceId(1)),
            )
            .unwrap();
        assert_eq!(l.current(), 10);
    }

    #[test]
    fn crossing_by_route_matches_the_per_micro_definition() {
        use crate::hash::FastSet;
        use crate::ids::MicroId;
        let schemes = [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::ForwardOnly,
            SchemeKind::ZeroBubbleH1,
            SchemeKind::ZeroBubbleV,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
            SchemeKind::Interleave { chunks: 3 },
            SchemeKind::Wave { chunks: 2 },
            SchemeKind::Wave { chunks: 3 },
        ];
        for scheme in schemes {
            for (devices, micros) in [(2, 1), (4, 8), (6, 5), (8, 16)] {
                let topo = Topology::new(scheme, devices);
                let routes = (0..micros).map(|m| m % topo.num_routes()).collect();
                let s = Schedule::empty(topo, micros, routes);
                // The old rule: one (device, micro, part) fact per hop of
                // every micro's forward path.
                let mut reference = FastSet::default();
                for m in 0..micros {
                    for w in s.forward_path_of(MicroId(m)).windows(2) {
                        if w[1].0 != w[0].0 {
                            reference.insert((w[0].0 .0, m, w[0].1 .0));
                        }
                    }
                }
                let rules = MemoryRules::new(&s);
                // Out-of-range devices, micros and parts included.
                for d in 0..devices + 2 {
                    for m in 0..micros + 2 {
                        for p in 0..topo.parts_per_device() + 2 {
                            assert_eq!(
                                rules.crosses(DeviceId(d), &Instr::forward(m, p)),
                                reference.contains(&(d, m, p)),
                                "{scheme:?} D={devices} N={micros}: d{d} m{m} p{p}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oom_propagates_from_ledger() {
        let s = two_dev_sched();
        let rules = MemoryRules::new(&s);
        let cost = UnitCost {
            act_full_bytes: 100,
            ..UnitCost::paper_grid()
        };
        let mut l = MemLedger::new(50, Some(120));
        let err = rules
            .apply(&mut l, &cost, DeviceId(1), &Instr::forward(0u32, 0u32))
            .unwrap_err();
        assert!(
            matches!(err, AllocError::Oom(ref e) if e.capacity == 120),
            "{err}"
        );
    }

    #[test]
    fn backward_without_forward_state_is_tolerated() {
        // remove-redundancy can leave BW without live Act only if the
        // stream is malformed; free_if_live keeps the ledger robust and the
        // validator catches the structural issue instead.
        let s = two_dev_sched();
        let rules = MemoryRules::new(&s);
        let cost = UnitCost::paper_grid();
        let mut l = MemLedger::new(0, None);
        rules
            .apply(&mut l, &cost, DeviceId(1), &Instr::backward(0u32, 0u32))
            .unwrap();
        assert_eq!(l.current(), 0);
    }
}
