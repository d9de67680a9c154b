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
use crate::hash::FastSet;
use crate::ids::DeviceId;
use crate::instr::{Instr, InstrKind};
use crate::ledger::{AllocError, AllocKey, MemLedger};
use crate::schedule::Schedule;

/// Precomputed per-schedule facts needed to apply memory effects.
#[derive(Debug, Clone)]
pub struct MemoryRules {
    /// `(device, micro, part)` triples whose forward output crosses to a
    /// different device (and therefore needs a send buffer).
    crossing: FastSet<(u32, u32, u32)>,
    /// Forward-only (serving) lifecycle: no backward ever comes, so the
    /// full activations are released as soon as the forward completes and
    /// only the crossing send buffer outlives the instruction. Memory
    /// stays bounded at any request count.
    forward_only: bool,
}

impl MemoryRules {
    /// Extracts the boundary-crossing facts from `schedule`.
    pub fn new(schedule: &Schedule) -> Self {
        let mut crossing = FastSet::default();
        for m in 0..schedule.micros {
            let path = schedule.forward_path_of(crate::ids::MicroId(m));
            for w in path.windows(2) {
                let (d, p) = w[0];
                let (nd, _) = w[1];
                if nd != d {
                    crossing.insert((d.0, m, p.0));
                }
            }
        }
        let forward_only = matches!(
            schedule.topology.scheme,
            crate::topology::SchemeKind::ForwardOnly
        );
        Self {
            crossing,
            forward_only,
        }
    }

    /// True if the forward of `(micro, part)` on `device` sends its output
    /// to another device.
    pub fn crosses(&self, device: DeviceId, instr: &Instr) -> bool {
        self.crossing
            .contains(&(device.0, instr.micro.0, instr.part.0))
    }

    /// Applies the memory effect of `instr` (evaluated at its completion)
    /// to `ledger`, using `cost` for sizes.
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
                    ledger.alloc(AllocKey::Act(m, p), cost.act_full(device, p))?;
                    if self.crosses(device, instr) {
                        ledger.alloc(AllocKey::OutBuf(m, p), cost.boundary_bytes(device, p))?;
                    }
                    ledger.free_if_live(AllocKey::Act(m, p));
                    return Ok(());
                }
                if ckpt {
                    ledger.alloc(AllocKey::Ckpt(m, p), cost.act_ckpt(device, p))?;
                } else {
                    ledger.alloc(AllocKey::Act(m, p), cost.act_full(device, p))?;
                }
                if self.crosses(device, instr) {
                    ledger.alloc(AllocKey::OutBuf(m, p), cost.boundary_bytes(device, p))?;
                }
                Ok(())
            }
            InstrKind::Recompute => {
                ledger.alloc(AllocKey::Act(m, p), cost.act_full(device, p))
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
                ledger.alloc(AllocKey::Wgrad(m, p), cost.wgrad_stash_bytes(device, p))
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
