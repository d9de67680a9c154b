//! Pass 4 — *prepose-forward* (paper §5.1): move checkpointed forwards
//! into earlier pipeline bubbles. Because a checkpointed forward retains
//! only a tiny stashed input, pulling extra micro-batches forward no longer
//! explodes memory (the reason this is infeasible without checkpointing),
//! and the idle slot it leaves behind lets pass 2 hide more recomputation.
//!
//! Mechanics: the device program is parsed into *groups* — one compute
//! instruction plus its attached receives (before) and sends (after). A
//! checkpointed-forward group may swap with an immediately preceding
//! backward/recompute group. Such a swap never reorders two messages on
//! the same directed channel (the forward group's `RA`/`SA` and the
//! backward group's `RG`/`SG` travel on disjoint links), so channel FIFO
//! order is preserved — this is the send-buffer discipline the paper
//! describes for keeping `SA`/`RA` paired under blocking p2p.
//!
//! Each candidate swap is accepted only if the simulated makespan strictly
//! improves and (when a capacity is given) memory still fits — the
//! "iteratively applied, simulator-guided" refinement of §5.3.
//!
//! Trials: a swap of the groups starting at pc `p` on device `d` changes
//! nothing the makespan sweep does before `d` is about to read pc
//! `p` — up to then no device has read an instruction the swap moved. So
//! each device scan keeps one baseline makespan [`Sweep`] of the current
//! schedule and, walking the candidates in program order, advances it to
//! each candidate's `(d, p)`, clones the paused sweep into the trial,
//! swaps the groups and runs the trial to the end. The paused state is
//! one a run of the swapped schedule from time zero can reach, and any
//! firing order from there ends the same way, so every makespan,
//! deadlock text and accept/reject decision is the one a full
//! re-simulation gives; only the shared prefix is simulated once instead
//! of once per trial. A swap keeps every device's send ports, so one
//! [`LinkTable`] serves every trial. An accepted swap changes the
//! schedule, so the baseline restarts from time zero. Should the baseline
//! fail before reaching `(d, p)`, that error is the trial's too: `d`
//! stopped short of every instruction the swap moved.

use crate::simulator::{simulate_memory, Run, Sweep};
use mario_ir::{
    CostModel, DeviceId, DeviceProgram, InstrKind, LinkTable, PerturbationProfile, Schedule,
};

/// Options shared by the simulator-guided passes.
#[derive(Debug, Clone, Copy)]
pub struct PreposeOptions {
    /// p2p buffer depth assumed by the timeline simulation.
    pub channel_capacity: usize,
    /// Per-device memory budget; swaps that exceed it are rejected.
    pub mem_capacity: Option<u64>,
    /// Upper bound on improvement rounds.
    pub max_rounds: usize,
}

impl Default for PreposeOptions {
    fn default() -> Self {
        Self {
            channel_capacity: 1,
            mem_capacity: None,
            max_rounds: 8,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupKind {
    CkptForward,
    PlainForward,
    Backward,
    Recompute,
    Other,
}

#[derive(Debug, Clone, Copy)]
struct Group {
    start: usize,
    end: usize, // exclusive
    kind: GroupKind,
}

/// Parses a program into compute groups with attached communication.
fn parse_groups(prog: &DeviceProgram) -> Vec<Group> {
    let instrs = prog.instrs();
    let mut groups = Vec::new();
    let mut i = 0usize;
    while i < instrs.len() {
        let start = i;
        // Leading receives attach to the next compute.
        while i < instrs.len() && instrs[i].kind.is_recv() {
            i += 1;
        }
        if i < instrs.len() && instrs[i].kind.is_compute() {
            let kind = match instrs[i].kind {
                InstrKind::Forward { ckpt: true } => GroupKind::CkptForward,
                InstrKind::Forward { ckpt: false } => GroupKind::PlainForward,
                // Split halves group like the full backward: either may
                // legally swap with a checkpointed forward (the simulator
                // guard rejects harmful swaps anyway).
                InstrKind::Backward
                | InstrKind::BackwardInput
                | InstrKind::BackwardWeight => GroupKind::Backward,
                InstrKind::Recompute => GroupKind::Recompute,
                _ => unreachable!(),
            };
            i += 1;
            // Trailing sends attach to this compute.
            while i < instrs.len() && instrs[i].kind.is_send() {
                i += 1;
            }
            groups.push(Group {
                start,
                end: i,
                kind,
            });
        } else {
            // Dangling comm / collective / optimizer instructions become
            // opaque singleton groups.
            if i == start {
                i += 1;
            }
            groups.push(Group {
                start,
                end: i,
                kind: GroupKind::Other,
            });
        }
    }
    groups
}

fn fits(schedule: &Schedule, cost: &dyn CostModel, cap: Option<u64>) -> bool {
    match cap {
        None => true,
        Some(c) => simulate_memory(schedule, cost, Some(c)).oom.is_none(),
    }
}

/// Runs the prepose-forward pass. Returns the number of accepted swaps.
pub fn prepose_forward(
    schedule: &mut Schedule,
    cost: &dyn CostModel,
    opts: PreposeOptions,
) -> usize {
    let mut accepted = 0usize;
    let pristine = PerturbationProfile::identity();
    // The state at time zero depends on no instruction, so one copy
    // serves every baseline restart.
    let links = LinkTable::new(schedule);
    let zero = Sweep::new(schedule, cost, opts.channel_capacity, &pristine, 1, &links);
    let Ok(mut best) = zero.clone().run_to_end(schedule) else {
        return 0;
    };
    let (mut base, mut trial) = (zero.clone(), zero.clone());
    for _ in 0..opts.max_rounds {
        let mut improved = false;
        for d in 0..schedule.devices() {
            let dev = DeviceId(d);
            loop {
                let groups = parse_groups(schedule.program(dev));
                // A baseline sweep of the current schedule, advanced from
                // candidate to candidate in program order.
                base.clone_from(&zero);
                // Find a ckpt-forward group preceded by a backward or
                // recompute group whose swap improves the makespan.
                let mut applied = false;
                for gi in 1..groups.len() {
                    if groups[gi].kind != GroupKind::CkptForward {
                        continue;
                    }
                    if !matches!(
                        groups[gi - 1].kind,
                        GroupKind::Backward | GroupKind::Recompute
                    ) {
                        continue;
                    }
                    // Swap the two groups in place; a rejected swap is
                    // rotated back. The trial resumes a clone of the
                    // baseline paused where the two schedules diverge.
                    let (start, mid, end) =
                        (groups[gi - 1].start, groups[gi].start, groups[gi].end);
                    let paused = base.run(schedule, Some((dev, start)));
                    schedule.program_mut(dev).rotate_left(start..end, mid - start);
                    let makespan = match paused {
                        Ok(Run::Paused) => {
                            trial.clone_from(&base);
                            trial.run_to_end(schedule)
                        }
                        Ok(Run::Done(_)) => unreachable!("device {d} never reached pc {start}"),
                        // The shared prefix fails the same way either way.
                        Err(e) => Err(e),
                    };
                    let ok = match makespan {
                        Ok(t) if t < best => fits(schedule, cost, opts.mem_capacity).then_some(t),
                        _ => None,
                    };
                    match ok {
                        Some(t) => {
                            best = t;
                            accepted += 1;
                            applied = true;
                            improved = true;
                            break;
                        }
                        None => {
                            schedule.program_mut(dev).rotate_left(start..end, end - mid);
                        }
                    }
                }
                if !applied {
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::apply_checkpoint::apply_checkpoint;
    use crate::passes::overlap_recompute::overlap_recompute;
    use crate::passes::remove_redundancy::remove_redundancy;
    use crate::simulator::simulate_timeline;
    use mario_ir::{validate, SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    fn prepared(scheme: SchemeKind, d: u32, n: u32) -> Schedule {
        let mut s = generate(ScheduleConfig::new(scheme, d, n));
        apply_checkpoint(&mut s);
        overlap_recompute(&mut s);
        remove_redundancy(&mut s);
        s
    }

    #[test]
    fn group_parsing_attaches_comm_to_compute() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 4));
        let groups = parse_groups(s.program(DeviceId(1)));
        // Every group is contiguous and covers the program exactly.
        let total: usize = groups.iter().map(|g| g.end - g.start).sum();
        assert_eq!(total, s.program(DeviceId(1)).len());
        for w in groups.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Middle device: each forward group is RA + F + SA (3 instrs).
        let f_groups: Vec<_> = groups
            .iter()
            .filter(|g| g.kind == GroupKind::PlainForward)
            .collect();
        assert!(f_groups.iter().all(|g| g.end - g.start == 3));
    }

    #[test]
    fn prepose_never_invalidates_and_never_regresses() {
        let cost = UnitCost::paper_grid();
        for scheme in [SchemeKind::OneFOneB, SchemeKind::Chimera] {
            let mut s = prepared(scheme, 4, 8);
            let before = simulate_timeline(&s, &cost, 1).unwrap().total_ns;
            prepose_forward(&mut s, &cost, PreposeOptions::default());
            validate(&s).unwrap_or_else(|e| panic!("{scheme:?}: {e:?}"));
            let after = simulate_timeline(&s, &cost, 1).unwrap().total_ns;
            assert!(after <= before, "{scheme:?}: {after} > {before}");
        }
    }

    #[test]
    fn prepose_improves_checkpointed_1f1b() {
        // The Fig. 2 situation: with checkpointing applied and overlap
        // done, preposing forwards reclaims more bubble time.
        let cost = UnitCost::paper_grid();
        let mut s = prepared(SchemeKind::OneFOneB, 4, 4);
        let before = simulate_timeline(&s, &cost, 1).unwrap().total_ns;
        let swaps = prepose_forward(&mut s, &cost, PreposeOptions::default());
        // Re-run overlap after preposing (the passes iterate).
        overlap_recompute(&mut s);
        let after = simulate_timeline(&s, &cost, 1).unwrap().total_ns;
        assert!(
            swaps > 0 && after < before,
            "swaps={swaps}, {before} -> {after}"
        );
    }

    #[test]
    fn memory_cap_rejects_explosive_swaps() {
        let cost = UnitCost::paper_grid().with_ckpt_bytes(1);
        let mut s = prepared(SchemeKind::OneFOneB, 4, 8);
        let base_mem = simulate_memory(&s, &cost, None).max_peak();
        // A cap exactly at the current peak: swaps may still be accepted,
        // but never one that pushes past the cap.
        prepose_forward(
            &mut s,
            &cost,
            PreposeOptions {
                mem_capacity: Some(base_mem),
                ..Default::default()
            },
        );
        assert!(simulate_memory(&s, &cost, None).max_peak() <= base_mem);
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }
}
