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
//! each device scan keeps one baseline makespan `Sweep` of the current
//! schedule and, walking the candidates in program order, advances it to
//! each candidate's `(d, p)`, clones the paused sweep into the trial,
//! swaps the groups and runs the trial to the end. The paused state is
//! one a run of the swapped schedule from time zero can reach, and any
//! firing order from there ends the same way, so every makespan,
//! deadlock and accept/reject decision is the one a full
//! re-simulation gives; only the shared prefix is simulated once instead
//! of once per trial. A swap keeps every device's send ports, so one
//! [`LinkTable`] serves every trial. An accepted swap changes the
//! schedule, so the baseline restarts from time zero. Should the baseline
//! fail before reaching `(d, p)`, that error is the trial's too: `d`
//! stopped short of every instruction the swap moved.
//!
//! Lowering: the sweeps read each instruction's unscaled duration and
//! link from a `StepTable` lowered once per call, not from the cost
//! model and the port tables. A trial rotates the table with the program,
//! and a rejected one rotates both back, so the table always matches the
//! schedule; the profile still scales busy time at the pc a step fires at.
//! One-shot sweeps elsewhere compute the same answers as they go, so a
//! table lives only here.
//!
//! Slack: most trials are rejected before they run. Under the pristine
//! profile, in one iteration, the sweep's `DeviceClock` arithmetic makes a
//! run a longest-path problem over three kinds of edges. An instruction
//! finishes at the latest of its program predecessor's finish plus its own
//! time (busy time, or a p2p launch); for the k-th receive on a link, the
//! k-th send's finish plus the wire time; for the k-th send, the
//! (k − capacity)-th receive's finish. The makespan `best` is the longest
//! path. Swapping the groups in `[start, end)` at `mid` on device d
//! removes only the three program-order edges on d that enter pcs
//! `start`, `mid` and `end` (the run's start stands in for pc −1), and
//! adds three others. It keeps the message order on every link when the
//! two groups share no link, which the test checks: the moved forward
//! group passes activations and the group it overtakes gradients, on
//! different links. So every wire and capacity edge keeps its ends, and
//! every weight depends on its instruction alone. If
//! no removed edge lies on a longest path, a path of weight `best`
//! survives the swap, and added edges only lengthen paths. The trial then
//! ends with a makespan ≥ `best`, or in a deadlock where the swap closes
//! a cycle, and the pass rejects both. An edge u → v lies on a longest
//! path exactly when `finish(u) + own(v) + tail(v) == best`, where
//! `tail(v)` is the longest path from v's finish to the end. `Slack`
//! records the finish times from one sweep per schedule version (the
//! first, then one after each accepted swap), and takes the tails from
//! the backward pass `critpath::analyze` computes slack with, run over
//! the step table. The argument needs fixed weights, so it holds only for
//! the pristine profile (a slowdown window indexed by pc re-times the
//! instructions a swap moves) and one iteration, which is what prepose
//! runs.
//!
//! Known answers: a trial's outcome depends only on the schedule and the
//! best makespan so far. The device of a round's last accepted swap, and
//! every device after it, were last scanned against the schedule and best
//! makespan the round ends with, and found nothing. So a round that
//! reaches that device having accepted nothing stops the pass at its
//! fixpoint, and the graph tuner makes no further call while passes 2–3
//! leave the schedule as prepose left it. The slack test skips most of
//! such a round's trials but not all: on plan-8's V schedule (8x32,
//! GPT3-13B) the fixpoint still saves 58 simulated trials per tuning.

use crate::critpath::{Hop, Tails};
use crate::simulator::{simulate_memory, Observe, OnTheFly, Run, SimError, Sweep, Timing};
use mario_ir::{
    CostModel, DeviceId, DeviceProgram, Dir, Instr, InstrKind, LinkTable, Nanos, P2p,
    PerturbationProfile, Schedule,
};
use std::ops::Range;

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

/// One instruction of a [`StepTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    /// A non-p2p instruction's unscaled busy time, a receive's wire time,
    /// 0 for a send.
    ns: Nanos,
    /// A p2p instruction's link, [`NO_LINK`] for a port with no link and
    /// for everything else.
    link: u32,
}

const NO_LINK: u32 = u32::MAX;

/// The schedule lowered for prepose's trials: per device, the [`Timing`]
/// of each instruction, parallel to its program. An entry depends on its
/// device and instruction only, so rotating it with the program keeps the
/// table exact.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct StepTable {
    launch: Nanos,
    steps: Vec<Vec<Step>>,
}

impl StepTable {
    /// Lowers `schedule` under `cost` over its `links`.
    pub(crate) fn lower(schedule: &Schedule, cost: &dyn CostModel, links: &LinkTable) -> Self {
        let live = OnTheFly::new(cost, links);
        let steps = schedule
            .programs()
            .iter()
            .map(|prog| {
                let dev = prog.device;
                let step = |(lpc, instr): (usize, &Instr)| match instr.kind.p2p() {
                    None => Step {
                        ns: live.busy(dev, lpc, instr),
                        link: NO_LINK,
                    },
                    Some(p) => Step {
                        ns: match p.dir {
                            Dir::Send => 0,
                            Dir::Recv => live.wire(dev, lpc, instr, p),
                        },
                        link: live.link(dev, lpc, instr, p).map_or(NO_LINK, |l| l as u32),
                    },
                };
                prog.instrs().iter().enumerate().map(step).collect()
            })
            .collect();
        Self {
            launch: live.launch(),
            steps,
        }
    }

    /// Rotates `dev`'s entries in `range` left by `mid`, as
    /// [`DeviceProgram::rotate_left`] does its instructions.
    pub(crate) fn rotate_left(&mut self, dev: DeviceId, range: Range<usize>, mid: usize) {
        self.steps[dev.index()][range].rotate_left(mid);
    }

    fn step(&self, dev: DeviceId, lpc: usize) -> Step {
        self.steps[dev.index()][lpc]
    }

    /// The time `instr`, at `dev`'s `lpc`, adds to the end of the
    /// instruction before it under the pristine profile: the launch charge
    /// of a p2p operation, else its busy time.
    fn own(&self, dev: DeviceId, lpc: usize, instr: &Instr) -> Nanos {
        match instr.kind.p2p() {
            Some(_) => self.launch,
            None => self.step(dev, lpc).ns,
        }
    }
}

impl Timing for StepTable {
    #[inline]
    fn launch(&self) -> Nanos {
        self.launch
    }

    #[inline]
    fn busy(&self, dev: DeviceId, lpc: usize, _: &Instr) -> Nanos {
        self.step(dev, lpc).ns
    }

    #[inline]
    fn link(&self, dev: DeviceId, lpc: usize, _: &Instr, _: P2p) -> Option<usize> {
        let link = self.step(dev, lpc).link;
        (link != NO_LINK).then_some(link as usize)
    }

    #[inline]
    fn wire(&self, dev: DeviceId, lpc: usize, _: &Instr, _: P2p) -> Nanos {
        self.step(dev, lpc).ns
    }
}

/// One candidate swap of pass 4 on `device`: the backward or recompute
/// group at pcs `start..mid` and the checkpointed-forward group at
/// `mid..end` right after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swap {
    /// The device whose program the swap edits.
    pub device: DeviceId,
    /// First pc of the backward or recompute group.
    pub start: usize,
    /// First pc of the checkpointed-forward group.
    pub mid: usize,
    /// One past the forward group's last pc.
    pub end: usize,
}

impl Swap {
    /// Moves the forward group ahead of the group before it.
    pub fn apply(self, schedule: &mut Schedule) {
        let range = self.start..self.end;
        schedule
            .program_mut(self.device)
            .rotate_left(range, self.mid - self.start);
    }

    fn undo(self, schedule: &mut Schedule) {
        let range = self.start..self.end;
        schedule
            .program_mut(self.device)
            .rotate_left(range, self.end - self.mid);
    }
}

/// Every candidate swap in `prog`, in program order.
fn swaps(prog: &DeviceProgram) -> Vec<Swap> {
    parse_groups(prog)
        .windows(2)
        .filter(|w| {
            w[1].kind == GroupKind::CkptForward
                && matches!(w[0].kind, GroupKind::Backward | GroupKind::Recompute)
        })
        .map(|w| Swap {
            device: prog.device,
            start: w[0].start,
            mid: w[1].start,
            end: w[1].end,
        })
        .collect()
}

/// How one prepose call's trials ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Trials {
    /// Simulated to a makespan below the best so far: accepted, unless
    /// memory rejected the swap.
    pub(crate) better: usize,
    /// Simulated to the best makespan so far.
    pub(crate) equal: usize,
    /// Simulated to a longer makespan.
    pub(crate) worse: usize,
    /// Simulated into a deadlock.
    pub(crate) deadlock: usize,
    /// Rejected by the slack test without simulating.
    pub(crate) skipped: usize,
}

impl Trials {
    fn count(&mut self, makespan: &Result<Nanos, SimError>, best: Nanos) {
        let outcome = match makespan {
            Ok(t) if *t < best => &mut self.better,
            Ok(t) if *t == best => &mut self.equal,
            Ok(_) => &mut self.worse,
            Err(_) => &mut self.deadlock,
        };
        *outcome += 1;
    }
}

/// The critical-path slack of one schedule under the pristine profile in
/// one iteration, taken from its [`StepTable`]; see the module docs. The
/// buffers are reused from one schedule version to the next.
struct Slack {
    capacity: usize,
    /// Each link's sender and receiver.
    links: Vec<(DeviceId, DeviceId)>,
    /// The makespan.
    best: Nanos,
    /// Per device, when each instruction finished.
    finish: Vec<Vec<Nanos>>,
    /// The longest path from each instruction's finish to the end of the
    /// run.
    tails: Tails,
}

impl Observe for Slack {
    #[inline]
    fn fired(&mut self, dev: usize, lpc: usize, finish: Nanos) {
        debug_assert_eq!(lpc, self.finish[dev].len());
        self.finish[dev].push(finish);
    }
}

impl Slack {
    /// Empty buffers for `devices` devices over `links` at `capacity`.
    fn new(devices: usize, links: &LinkTable, capacity: usize) -> Self {
        Self {
            capacity,
            links: (0..links.len())
                .map(|k| {
                    let (src, dst, ..) = links.key(k);
                    (src, dst)
                })
                .collect(),
            best: 0,
            finish: vec![Vec::new(); devices],
            tails: Tails::default(),
        }
    }

    /// Measures `schedule`, timed by `table`, by running `sweep`, a sweep
    /// of it at time zero: the makespan, or why the schedule cannot run.
    fn measure(
        &mut self,
        schedule: &Schedule,
        table: &StepTable,
        sweep: &mut Sweep,
    ) -> Result<Nanos, SimError> {
        self.finish.iter_mut().for_each(Vec::clear);
        let Run::Done(best) = sweep.run_observed(schedule, table, None, self)? else {
            unreachable!("a sweep without a stop point never pauses")
        };
        self.best = best;
        let lens = self.finish.iter().map(Vec::len);
        self.tails.run(lens, &self.links, self.capacity, |d, lpc| {
            let dev = DeviceId(d as u32);
            let instr = &schedule.program(dev).instrs()[lpc];
            let step = table.step(dev, lpc);
            Hop {
                own: table.own(dev, lpc, instr),
                link: instr.kind.p2p().map(|p| (p.dir, step.link as usize)),
                wire: step.ns,
            }
        });
        Ok(best)
    }

    /// Whether the program-order edge into `dev`'s pc `v` lies on a
    /// longest path: `finish(v − 1) + own(v) + tail(v)` reaches the
    /// makespan (never more), the run's start standing in for pc −1.
    fn critical_entry(
        &self,
        schedule: &Schedule,
        table: &StepTable,
        dev: DeviceId,
        v: usize,
    ) -> bool {
        let Some(instr) = schedule.program(dev).instrs().get(v) else {
            return false;
        };
        let arrive = v.checked_sub(1).map_or(0, |u| self.finish[dev.index()][u]);
        arrive + table.own(dev, v, instr) + self.tails.tail[dev.index()][v] >= self.best
    }

    /// Whether `swap` keeps every link's message order and removes no
    /// longest-path edge, so that it cannot beat the makespan; see the
    /// module docs.
    fn rejects(&self, schedule: &Schedule, table: &StepTable, swap: Swap) -> bool {
        let Swap {
            device,
            start,
            mid,
            end,
        } = swap;
        let links = |pcs: Range<usize>| {
            pcs.map(move |pc| table.step(device, pc).link)
                .filter(|&l| l != NO_LINK)
        };
        links(start..mid).all(|l| links(mid..end).all(|m| m != l))
            && ![start, mid, end]
                .into_iter()
                .any(|v| self.critical_entry(schedule, table, device, v))
    }
}

/// Every candidate swap of pass 4 on `schedule`, in the order the pass
/// tries them, each paired with whether the slack test rejects it without
/// simulating it, and the makespan the test reasons from; or why
/// `schedule` cannot run at `channel_capacity`. A rejected swap ends in a
/// makespan at least that long, or cannot run. For the tests that hold
/// the slack test to full simulations.
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub fn slack_verdicts(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
) -> Result<(Nanos, Vec<(Swap, bool)>), SimError> {
    let pristine = PerturbationProfile::identity();
    let links = LinkTable::new(schedule);
    let table = StepTable::lower(schedule, cost, &links);
    let mut slack = Slack::new(schedule.devices() as usize, &links, channel_capacity);
    let mut sweep = Sweep::new(schedule, &links, channel_capacity, &pristine);
    let best = slack.measure(schedule, &table, &mut sweep)?;
    let verdicts = schedule
        .programs()
        .iter()
        .flat_map(swaps)
        .map(|swap| (swap, slack.rejects(schedule, &table, swap)))
        .collect();
    Ok((best, verdicts))
}

/// Runs the prepose-forward pass. Returns the number of accepted swaps.
pub fn prepose_forward(
    schedule: &mut Schedule,
    cost: &dyn CostModel,
    opts: PreposeOptions,
) -> usize {
    prepose(schedule, cost, opts).0
}

/// [`prepose_forward`], also counting its trials by outcome and telling
/// whether the pass stopped at its fixpoint, where a further round would
/// accept nothing, rather than at `max_rounds`.
pub(crate) fn prepose(
    schedule: &mut Schedule,
    cost: &dyn CostModel,
    opts: PreposeOptions,
) -> (usize, Trials, bool) {
    let (mut accepted, mut trials) = (0usize, Trials::default());
    let pristine = PerturbationProfile::identity();
    // The state at time zero depends on no instruction, so one copy
    // serves every baseline restart. A swap keeps every device's send
    // ports, so the links and the table, rotated with each swap, serve
    // every trial.
    let links = LinkTable::new(schedule);
    let mut table = StepTable::lower(schedule, cost, &links);
    let zero = Sweep::new(schedule, &links, opts.channel_capacity, &pristine);
    let (mut base, mut trial) = (zero.clone(), zero.clone());
    let mut slack = Slack::new(schedule.devices() as usize, &links, opts.channel_capacity);
    let Ok(mut best) = slack.measure(schedule, &table, &mut trial) else {
        return (0, trials, true);
    };
    // The device of the previous round's last accepted swap. A trial's
    // outcome depends only on the schedule and `best`, and that device (in
    // its restart loop) and every device after it were last scanned
    // against the schedule and `best` as they stand now and found nothing.
    // So a round that reaches it having accepted nothing would accept
    // nothing.
    let mut settled = None;
    for _ in 0..opts.max_rounds {
        let mut last = None;
        for d in 0..schedule.devices() {
            if last.is_none() && settled == Some(d) {
                return (accepted, trials, true);
            }
            let dev = DeviceId(d);
            'restart: loop {
                // A baseline sweep of the current schedule, advanced from
                // candidate to candidate in program order.
                base.clone_from(&zero);
                for swap in swaps(schedule.program(dev)) {
                    if slack.rejects(schedule, &table, swap) {
                        trials.skipped += 1;
                        continue;
                    }
                    // Swap the two groups in place; a rejected swap is
                    // rotated back. The trial resumes a clone of the
                    // baseline paused where the two schedules diverge.
                    let Swap { start, mid, end, .. } = swap;
                    let paused = base.run(schedule, &table, Some((dev, start)));
                    swap.apply(schedule);
                    table.rotate_left(dev, start..end, mid - start);
                    let makespan = match paused {
                        Ok(Run::Paused) => {
                            trial.clone_from(&base);
                            trial.run_to_end(schedule, &table)
                        }
                        Ok(Run::Done(_)) => unreachable!("device {d} never reached pc {start}"),
                        // The shared prefix fails the same way either way.
                        Err(e) => Err(e),
                    };
                    trials.count(&makespan, best);
                    match makespan {
                        Ok(t) if t < best && fits(schedule, cost, opts.mem_capacity) => {
                            trial.clone_from(&zero);
                            best = slack
                                .measure(schedule, &table, &mut trial)
                                .expect("the accepted trial ran");
                            debug_assert_eq!(best, t);
                            accepted += 1;
                            last = Some(d);
                            continue 'restart;
                        }
                        _ => {
                            swap.undo(schedule);
                            table.rotate_left(dev, start..end, end - mid);
                        }
                    }
                }
                break;
            }
        }
        if last.is_none() {
            return (accepted, trials, true);
        }
        settled = last;
    }
    (accepted, trials, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::apply_checkpoint::apply_checkpoint;
    use crate::passes::overlap_recompute::overlap_recompute;
    use crate::passes::remove_redundancy::remove_redundancy;
    use crate::passes::{GraphTunerOptions, PassStats};
    use crate::simulator::simulate_timeline;
    use mario_ir::{validate, SchemeKind, Topology, UnitCost};
    use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
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

    fn every_scheme() -> [SchemeKind; 8] {
        [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
            SchemeKind::Wave { chunks: 2 },
            SchemeKind::ForwardOnly,
            SchemeKind::ZeroBubbleH1,
            SchemeKind::ZeroBubbleV,
        ]
    }

    fn gpt3_13b(scheme: SchemeKind, d: u32) -> AnalyticCost {
        AnalyticCost::new(&TrainSetup::pipeline(
            ModelConfig::gpt3_13b(),
            GpuSpec::a100_40g(),
            Topology::new(scheme, d),
            2,
        ))
    }

    /// What the oracle saw of one prepose call inside the graph tuner.
    struct Call {
        moved: usize,
        /// Every one of `max_rounds` rounds accepted a swap.
        all_rounds: bool,
        /// Edits passes 2–3 made right after it.
        edited: usize,
    }

    /// The prepose pass with nothing skipped: every round scans every
    /// device until a round accepts nothing, and trials run on the fly.
    /// Pushes each accepted swap's device onto `accepted_on` and returns
    /// the swaps accepted and whether all `max_rounds` rounds accepted one.
    fn full_rescan(
        schedule: &mut Schedule,
        cost: &dyn CostModel,
        opts: PreposeOptions,
        accepted_on: &mut Vec<u32>,
    ) -> (usize, bool) {
        let pristine = PerturbationProfile::identity();
        let links = LinkTable::new(schedule);
        let live = OnTheFly::new(cost, &links);
        let zero = Sweep::new(schedule, &links, opts.channel_capacity, &pristine);
        let Ok(mut best) = zero.clone().run_to_end(schedule, &live) else {
            return (0, false);
        };
        let (mut base, mut trial) = (zero.clone(), zero.clone());
        let mut accepted = 0;
        for _ in 0..opts.max_rounds {
            let mut improved = false;
            for d in 0..schedule.devices() {
                let dev = DeviceId(d);
                'restart: loop {
                    let groups = parse_groups(schedule.program(dev));
                    base.clone_from(&zero);
                    for gi in 1..groups.len() {
                        if groups[gi].kind != GroupKind::CkptForward
                            || !matches!(
                                groups[gi - 1].kind,
                                GroupKind::Backward | GroupKind::Recompute
                            )
                        {
                            continue;
                        }
                        let (start, mid, end) =
                            (groups[gi - 1].start, groups[gi].start, groups[gi].end);
                        let paused = base.run(schedule, &live, Some((dev, start)));
                        schedule
                            .program_mut(dev)
                            .rotate_left(start..end, mid - start);
                        let makespan = match paused {
                            Ok(Run::Paused) => {
                                trial.clone_from(&base);
                                trial.run_to_end(schedule, &live)
                            }
                            Ok(Run::Done(_)) => unreachable!(),
                            Err(e) => Err(e),
                        };
                        match makespan {
                            Ok(t) if t < best && fits(schedule, cost, opts.mem_capacity) => {
                                best = t;
                                accepted += 1;
                                accepted_on.push(d);
                                improved = true;
                                continue 'restart;
                            }
                            _ => schedule.program_mut(dev).rotate_left(start..end, end - mid),
                        }
                    }
                    break;
                }
            }
            if !improved {
                return (accepted, false);
            }
        }
        (accepted, true)
    }

    /// The graph tuner with nothing skipped: it calls prepose until a call
    /// accepts nothing.
    fn full_rescan_tuner(
        schedule: &mut Schedule,
        cost: &dyn CostModel,
        opts: GraphTunerOptions,
        calls: &mut Vec<Call>,
        accepted_on: &mut Vec<u32>,
    ) -> PassStats {
        let mut stats = PassStats {
            checkpointed: apply_checkpoint(schedule),
            overlapped: overlap_recompute(schedule),
            reverted: remove_redundancy(schedule),
            preposed: 0,
        };
        for _ in 0..opts.prepose_opts.max_rounds {
            let (moved, all_rounds) = full_rescan(schedule, cost, opts.prepose_opts, accepted_on);
            stats.preposed += moved;
            let (overlapped, reverted) = (overlap_recompute(schedule), remove_redundancy(schedule));
            stats.overlapped += overlapped;
            stats.reverted += reverted;
            calls.push(Call {
                moved,
                all_rounds,
                edited: overlapped + reverted,
            });
            if moved == 0 {
                break;
            }
        }
        stats
    }

    /// Skipping the trials whose answer is known changes no decision: the
    /// graph tuner gives the full rescan's schedule text, `PassStats` and
    /// per-call accepted counts, short of at most one last call that
    /// accepts nothing. Every scheme at 4x8 and 8x16, uncapped, at the
    /// pass-3 peak and one byte below it, and with 1, 2 and 8 rounds,
    /// under the unit grid, GPT3-13B, and GPT3-13B with a first stage three
    /// times slower or with uneven stages. The last two put acceptances on
    /// the first and on the last device, and 1 or 2 rounds cut prepose
    /// calls short.
    ///
    /// Passes 2–3 never edit after a prepose call here, and the test holds
    /// to that: a swap moves a checkpointed forward's group ahead of a
    /// backward or recompute group, which only widens forward-to-backward
    /// windows (no revert) and never moves a recompute behind the start of
    /// its backward's receive chain (no overlap move). The tuner still
    /// checks their counts before it skips a call; should they ever edit,
    /// this test must gain a point where the next call accepts again.
    #[test]
    fn skipping_known_trials_matches_a_full_rescan() {
        use crate::passes::graph_tuner;
        use crate::tuner::scheme_channel_capacity;
        use mario_ir::to_text;

        let (mut on_first, mut on_last, mut cut_short) = (false, false, false);
        for scheme in every_scheme() {
            for (d, n) in [(4u32, 8u32), (8, 16)] {
                let s = generate(ScheduleConfig::new(scheme, d, n));
                let stages = Topology::new(scheme, d).num_stages() as u64;
                let skewed = |units: &dyn Fn(u64) -> u64| {
                    let mut cost = gpt3_13b(scheme, d);
                    let fwd: Vec<_> = (0..stages).map(|s| 1_000_000 * units(s)).collect();
                    let bwd = fwd.iter().map(|f| 2 * f).collect();
                    cost.override_compute(fwd, bwd);
                    cost
                };
                let (unit, analytic) = (UnitCost::paper_grid(), gpt3_13b(scheme, d));
                let slow_first = skewed(&|s| if s == 0 { 3 } else { 1 });
                let uneven = skewed(&|s| 1 + s * 7 % 5);
                let costs: [&dyn CostModel; 4] = [&unit, &analytic, &slow_first, &uneven];
                for cost in costs {
                    let peak = simulate_memory(&prepared(scheme, d, n), cost, None).max_peak();
                    for mem_capacity in [None, Some(peak), Some(peak - 1)] {
                        for max_rounds in [1, 2, 8] {
                            let opts = GraphTunerOptions {
                                prepose_opts: PreposeOptions {
                                    channel_capacity: scheme_channel_capacity(scheme),
                                    mem_capacity,
                                    max_rounds,
                                },
                                ..GraphTunerOptions::mario()
                            };
                            let label =
                                format!("{scheme:?} {d}x{n} {mem_capacity:?} {max_rounds} rounds");
                            let (mut want, mut got) = (s.clone(), s.clone());
                            let (mut calls, mut accepted_on) = (Vec::new(), Vec::new());
                            let want_stats = full_rescan_tuner(
                                &mut want,
                                cost,
                                opts,
                                &mut calls,
                                &mut accepted_on,
                            );
                            let mut got_calls = Vec::new();
                            let got_stats =
                                graph_tuner(&mut got, cost, opts, |m, _| got_calls.push(m));
                            assert!(to_text(&got) == to_text(&want), "{label}");
                            assert_eq!(got_stats, want_stats, "{label}");
                            let want_calls: Vec<_> = calls.iter().map(|c| c.moved).collect();
                            let skipped = &want_calls[got_calls.len().min(want_calls.len())..];
                            assert!(
                                want_calls.starts_with(&got_calls) && matches!(skipped, [] | [0]),
                                "{label}: {got_calls:?} against {want_calls:?}"
                            );
                            assert!(calls.iter().all(|c| c.edited == 0), "{label}");
                            on_first |= accepted_on.contains(&0);
                            on_last |= accepted_on.contains(&(d - 1));
                            cut_short |= calls.iter().any(|c| c.all_rounds);
                        }
                    }
                }
            }
        }
        assert!(
            on_first && on_last && cut_short,
            "first device {on_first}, last device {on_last}, cut short {cut_short}"
        );
    }

    /// Applies `rotations` of `(device, range, mid)` to the schedule's
    /// programs and to `table`.
    fn rotate(
        s: &mut Schedule,
        table: &mut StepTable,
        rotations: &[(DeviceId, Range<usize>, usize)],
    ) {
        for (dev, range, mid) in rotations {
            s.program_mut(*dev).rotate_left(range.clone(), *mid);
            table.rotate_left(*dev, range.clone(), *mid);
        }
    }

    /// A sweep over the step table, lowered once and rotated with the
    /// program, gives the on-the-fly sweep's makespan or its `SimError`:
    /// every scheme under the unit grid and GPT3-13B at capacities 1
    /// and 2, pristine and with a straggler on device 1's middle third of
    /// pcs, on mutants with 1–3 rotations of 2–4 instructions. The
    /// straggler's window is indexed by pc, so a table that scaled busy
    /// time when it was lowered would time a rotated instruction by the
    /// pc it left. Rotating back restores a table equal to a fresh
    /// lowering. Receives on ports with no link deadlock the same way.
    #[test]
    fn a_sweep_over_the_table_matches_the_on_the_fly_sweep() {
        use mario_ir::{Instr, SlowdownWindow};

        fn check(
            s: &Schedule,
            table: &StepTable,
            cost: &dyn CostModel,
            cap: usize,
            profile: &PerturbationProfile,
        ) -> bool {
            let links = LinkTable::new(s);
            assert_eq!(*table, StepTable::lower(s, cost, &links));
            let live =
                Sweep::new(s, &links, cap, profile).run_to_end(s, &OnTheFly::new(cost, &links));
            let tabled = Sweep::new(s, &links, cap, profile).run_to_end(s, table);
            assert_eq!(tabled, live, "{:?} at capacity {cap}", s.topology.scheme);
            live.is_ok()
        }

        // SplitMix64, for the rotations.
        let mut state = 0x7ab1e_u64;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let (mut ok, mut failed) = (0, 0);
        for scheme in every_scheme() {
            let (d, n) = (4u32, 8u32);
            let s = prepared(scheme, d, n);
            let len = s.program(DeviceId(1)).len();
            let straggler = PerturbationProfile::identity().with_slowdown(SlowdownWindow {
                device: DeviceId(1),
                factor: 2.5,
                from_pc: len / 3,
                until_pc: 2 * len / 3,
                iteration: None,
            });
            let profiles = [PerturbationProfile::identity(), straggler];
            let (unit, analytic) = (UnitCost::paper_grid(), gpt3_13b(scheme, d));
            let costs: [&dyn CostModel; 2] = [&unit, &analytic];
            for cost in costs {
                let links = LinkTable::new(&s);
                let lowered = StepTable::lower(&s, cost, &links);
                for _ in 0..4 {
                    let rotations: Vec<_> = (0..1 + below(3))
                        .map(|_| {
                            // Device 1 half the time, across the window.
                            let dev = DeviceId(if below(2) == 0 {
                                1
                            } else {
                                below(d as usize) as u32
                            });
                            let width = 2 + below(3);
                            let start = below(s.program(dev).len() - width + 1);
                            (dev, start..start + width, 1 + below(width - 1))
                        })
                        .collect();
                    let (mut m, mut table) = (s.clone(), StepTable::lower(&s, cost, &links));
                    rotate(&mut m, &mut table, &rotations);
                    for cap in [1, 2] {
                        for profile in &profiles {
                            if check(&m, &table, cost, cap, profile) {
                                ok += 1;
                            } else {
                                failed += 1;
                            }
                        }
                    }
                    let back: Vec<_> = rotations
                        .into_iter()
                        .rev()
                        .map(|(dev, range, mid)| (dev, range.clone(), range.len() - mid))
                        .collect();
                    rotate(&mut m, &mut table, &back);
                    assert_eq!(m, s);
                    assert_eq!(table, lowered);
                }
            }
        }
        assert!(ok > 0 && failed > 0, "{ok} completed, {failed} failed");

        // Receives whose ports have no link: two devices that only receive,
        // and a 1F1B whose first activation receive names a part nobody
        // sends on.
        let unit = UnitCost::paper_grid();
        let pristine = PerturbationProfile::identity();
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut unlinked = Schedule::empty(topo, 1, vec![0]);
        unlinked
            .program_mut(DeviceId(0))
            .push(Instr::recv_grad(0u32, 0u32, DeviceId(1)));
        unlinked
            .program_mut(DeviceId(1))
            .push(Instr::recv_act(0u32, 0u32, DeviceId(0)));
        let mut wrong_part = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
        let mut instrs = wrong_part.program(DeviceId(1)).instrs().to_vec();
        let recv = instrs.iter().position(|i| i.kind.is_recv()).unwrap();
        instrs[recv].part = mario_ir::PartId(7);
        *wrong_part.program_mut(DeviceId(1)) = DeviceProgram::from_instrs(DeviceId(1), instrs);
        for s in [&unlinked, &wrong_part] {
            let links = LinkTable::new(s);
            let table = StepTable::lower(s, &unit, &links);
            assert!(table
                .steps
                .iter()
                .flatten()
                .any(|st| st.link == NO_LINK && st.ns == 0));
            assert!(!check(s, &table, &unit, 1, &pristine));
        }
    }

    /// The slack pass agrees with `critpath`: on every scheme at 4x8 and
    /// 8x16, at capacities 1 and 2, under the unit grid and GPT3-13B, its
    /// makespan (or error) is the makespan sweep's, and `best − finish −
    /// tail` is `critpath::analyze`'s slack of a pristine one-iteration
    /// `simulate`, instruction by instruction. Each measurement reuses
    /// buffers that first measured the schedule with one swap applied.
    #[test]
    fn the_slack_pass_matches_critpath() {
        use crate::critpath::analyze;
        use crate::simulator::{simulate, simulate_makespan, SimOptions};

        let pristine = PerturbationProfile::identity();
        let (mut compared, mut failed) = (0, 0);
        for scheme in every_scheme() {
            for (d, n) in [(4u32, 8u32), (8, 16)] {
                let s = prepared(scheme, d, n);
                let links = LinkTable::new(&s);
                let mut swapped = s.clone();
                if let Some(swap) = s.programs().iter().flat_map(swaps).next() {
                    swap.apply(&mut swapped);
                }
                let (unit, analytic) = (UnitCost::paper_grid(), gpt3_13b(scheme, d));
                let costs: [&dyn CostModel; 2] = [&unit, &analytic];
                for cost in costs {
                    for cap in [1, 2] {
                        let label = format!("{scheme:?} {d}x{n} at capacity {cap}");
                        let mut slack = Slack::new(d as usize, &links, cap);
                        for m in [&swapped, &s] {
                            let table = StepTable::lower(m, cost, &links);
                            let mut sweep = Sweep::new(m, &links, cap, &pristine);
                            let measured = slack.measure(m, &table, &mut sweep);
                            assert_eq!(
                                measured,
                                simulate_makespan(m, cost, cap, &pristine),
                                "{label}"
                            );
                        }
                        let Ok(best) = simulate_makespan(&s, cost, cap, &pristine) else {
                            failed += 1;
                            continue;
                        };
                        let opts = SimOptions {
                            channel_capacity: cap,
                            ..SimOptions::default()
                        };
                        let report = analyze(&s, &simulate(&s, cost, &opts).unwrap().spans);
                        assert_eq!(report.makespan, best, "{label}");
                        let ours: Vec<Vec<Nanos>> = (slack.finish.iter().zip(&slack.tails.tail))
                            .map(|(f, t)| f.iter().zip(t).map(|(f, t)| best - f - t).collect())
                            .collect();
                        assert_eq!(ours, report.slack, "{label}");
                        compared += 1;
                    }
                }
            }
        }
        assert!(
            compared >= 48 && failed > 0,
            "{compared} compared, {failed} failed"
        );
    }

    /// Pass 4's trials by outcome in each prepose call of the graph tuner
    /// on plan-8's schedules: V, X and W at 8x32 under GPT3-13B at mbs 2
    /// with a 40 GiB budget. Most trials are rejected by slack unsimulated.
    #[test]
    fn plan_8_trial_counts_are_pinned() {
        use crate::passes::graph_tuner;
        use crate::tuner::scheme_channel_capacity;

        let counts = |better, equal, worse, deadlock, skipped| Trials {
            better,
            equal,
            worse,
            deadlock,
            skipped,
        };
        for (scheme, want) in [
            (SchemeKind::OneFOneB, vec![(1, counts(1, 0, 29, 0, 319))]),
            (SchemeKind::Chimera, vec![(0, counts(0, 0, 16, 0, 68))]),
            (
                SchemeKind::Interleave { chunks: 2 },
                vec![(0, counts(0, 12, 0, 41, 300))],
            ),
        ] {
            let mut s = generate(ScheduleConfig::new(scheme, 8, 32));
            let opts = GraphTunerOptions {
                prepose_opts: PreposeOptions {
                    channel_capacity: scheme_channel_capacity(scheme),
                    mem_capacity: Some(40 << 30),
                    ..PreposeOptions::default()
                },
                ..GraphTunerOptions::mario()
            };
            let mut calls = Vec::new();
            graph_tuner(&mut s, &gpt3_13b(scheme, 8), opts, |moved, trials| {
                calls.push((moved, trials))
            });
            assert_eq!(calls, want, "{scheme:?}");
        }
    }
}
