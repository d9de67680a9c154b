//! Communication insertion: turns a compute-only schedule (just forwards and
//! backwards in per-device order) into a complete instruction list with the
//! auxiliary `SA`/`RA`/`SG`/`RG` instructions (paper §5.1: "we insert
//! additional auxiliary instructions into the instruction list to complete
//! the pipeline execution procedure"), plus the optional trailing
//! all-reduce and optimizer step.
//!
//! Placement rules (the paper's defaults, which the graph tuner then
//! rearranges):
//!
//! * `RA` immediately precedes the forward that consumes it;
//! * `SA` immediately follows the forward that produces it;
//! * `RG` immediately precedes the backward that consumes it;
//! * `SG` immediately follows the backward that produces it.
//!
//! Message tagging: every p2p pair is tagged with the `(micro, part)` of the
//! *producing* compute — the sending stage's part for activations, and the
//! downstream stage's part for gradients — so both ends of a channel agree
//! on the message identity.

use mario_ir::{DeviceId, Instr, MicroId, PartId, RouteHops, Schedule};

/// Options for [`insert_comm`].
#[derive(Debug, Clone, Copy)]
pub struct CommOptions {
    /// Append a gradient all-reduce to every device (for data parallelism).
    pub allreduce: bool,
    /// Append an optimizer step to every device.
    pub optimizer_step: bool,
}

impl Default for CommOptions {
    fn default() -> Self {
        Self {
            allreduce: false,
            optimizer_step: true,
        }
    }
}

/// Inserts communication (and optional collective) instructions into a
/// compute-only schedule. Idempotence is not attempted: the input must not
/// already contain p2p instructions.
pub fn insert_comm(compute: &Schedule, opts: CommOptions) -> Schedule {
    for p in compute.programs() {
        assert_eq!(
            p.count(|i| i.kind.is_p2p()),
            0,
            "insert_comm expects a compute-only schedule"
        );
    }

    let hops = RouteHops::new(&compute.topology);
    // The route of `micro` and the hop index of `(device, part)` on it.
    let hop_of = |micro: MicroId, device: DeviceId, part: PartId| {
        let route = compute.route_of(micro);
        let hop = hops
            .hop(route, device, part)
            .unwrap_or_else(|| panic!("({device}, {part}) not on route of {micro}"));
        (hops.path(route), hop)
    };
    let mut out = compute.clone();
    for d in 0..out.devices() {
        let dev = DeviceId(d);
        let src = compute.program(dev);
        let mut instrs: Vec<Instr> = Vec::with_capacity(src.len() * 3);
        for &i in src.instrs() {
            match i.kind {
                mario_ir::InstrKind::Forward { .. } => {
                    let (path, hop) = hop_of(i.micro, dev, i.part);
                    if hop > 0 {
                        let (pd, pp) = path[hop - 1];
                        if pd != dev {
                            instrs.push(Instr::recv_act(i.micro, pp, pd));
                        }
                    }
                    instrs.push(i);
                    if let Some(&(nd, _)) = path.get(hop + 1) {
                        if nd != dev {
                            instrs.push(Instr::send_act(i.micro, i.part, nd));
                        }
                    }
                }
                mario_ir::InstrKind::Backward | mario_ir::InstrKind::BackwardInput => {
                    let (path, hop) = hop_of(i.micro, dev, i.part);
                    if let Some(&(nd, np)) = path.get(hop + 1) {
                        if nd != dev {
                            instrs.push(Instr::recv_grad(i.micro, np, nd));
                        }
                    }
                    instrs.push(i);
                    if hop > 0 {
                        let (pd, _) = path[hop - 1];
                        if pd != dev {
                            instrs.push(Instr::send_grad(i.micro, i.part, pd));
                        }
                    }
                }
                _ => instrs.push(i),
            }
        }
        if opts.allreduce {
            instrs.push(Instr::all_reduce());
        }
        if opts.optimizer_step {
            instrs.push(Instr::optimizer_step());
        }
        *out.program_mut(dev) = mario_ir::DeviceProgram::from_instrs(dev, instrs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{validate, SchemeKind, Topology};

    fn v_compute(devices: u32) -> Schedule {
        // A GPipe-ordered compute-only schedule: simple and obviously valid.
        let topo = Topology::new(SchemeKind::OneFOneB, devices);
        let mut s = Schedule::empty(topo, 2, vec![0, 0]);
        for d in 0..devices {
            let p = s.program_mut(DeviceId(d));
            for m in 0..2u32 {
                p.push(Instr::forward(m, 0u32));
            }
            for m in 0..2u32 {
                p.push(Instr::backward(m, 0u32));
            }
        }
        s
    }

    #[test]
    fn inserted_comm_validates_and_executes() {
        let s = insert_comm(&v_compute(3), CommOptions::default());
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn first_and_last_stage_have_one_sided_comm() {
        let s = insert_comm(&v_compute(3), CommOptions::default());
        let d0 = s.program(DeviceId(0));
        assert_eq!(d0.count(|i| i.kind.is_recv()), 2); // only RG
        assert_eq!(d0.count(|i| i.kind.is_send()), 2); // only SA
        let d2 = s.program(DeviceId(2));
        assert_eq!(d2.count(|i| i.kind.is_recv()), 2); // only RA
        assert_eq!(d2.count(|i| i.kind.is_send()), 2); // only SG
        let d1 = s.program(DeviceId(1));
        assert_eq!(d1.count(|i| i.kind.is_p2p()), 8); // RA+SA+RG+SG per micro
    }

    #[test]
    fn optimizer_step_is_appended_once_per_device() {
        let s = insert_comm(&v_compute(2), CommOptions::default());
        for p in s.programs() {
            assert_eq!(
                p.count(|i| i.kind == mario_ir::InstrKind::OptimizerStep),
                1
            );
            assert_eq!(
                p.instrs().last().unwrap().kind,
                mario_ir::InstrKind::OptimizerStep
            );
        }
    }

    #[test]
    fn allreduce_precedes_optimizer_step() {
        let s = insert_comm(
            &v_compute(2),
            CommOptions {
                allreduce: true,
                optimizer_step: true,
            },
        );
        for p in s.programs() {
            let n = p.len();
            assert_eq!(p.instrs()[n - 2].kind, mario_ir::InstrKind::AllReduce);
            assert_eq!(p.instrs()[n - 1].kind, mario_ir::InstrKind::OptimizerStep);
        }
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    #[should_panic(expected = "compute-only")]
    fn rejects_schedules_that_already_have_comm() {
        let s = insert_comm(&v_compute(2), CommOptions::default());
        let _ = insert_comm(&s, CommOptions::default());
    }
}
