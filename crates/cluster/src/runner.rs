//! The cluster emulator's entry points: virtual-time links between
//! pipeline neighbours, deterministic timing and OOM faults.
//!
//! This is the repository's stand-in for "real runs" on the paper's A100
//! cluster: the same instruction lists Mario emits are executed under
//! blocking p2p, so schedule bugs (mis-paired sends, buffer-order
//! deadlocks, activation-lifecycle leaks) manifest as they would on
//! hardware, while per-instruction latencies come from the cost model.
//! Every entry point steps the devices with the discrete-event driver
//! ([`crate::event`]); any firing order gives the same answers, so one
//! driver checks them all, and a deadlock is the run going quiescent,
//! found in no wall time. [`run_with_faults`] additionally threads a seeded
//! [`FaultPlan`] through the devices, [`run_with`] takes the plan, a
//! perturbation profile, startup offsets and serving hooks in one
//! [`RunOptions`], and [`run_with_recovery`] restarts a faulted run a
//! bounded number of times (the checkpoint-restart loop a real fleet
//! scheduler would drive).

use crate::error::EmuError;
use crate::faults::{FaultPlan, FaultReport};
use crate::machine::Settled;
use crate::serving::ServingHooks;
use mario_ir::{
    CheckpointPolicy, CostModel, DeviceId, LinkTable, Nanos, PerturbationProfile, Schedule,
    SpanGraph, Telemetry,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The emulator's driver, of which there is one.
///
/// It selects nothing: every run steps its machines with the
/// discrete-event driver ([`crate::event`]). The type is kept only so
/// the `perf/` benchmark harness, which names `EmulatorBackend::Event`,
/// still compiles; the next change to that harness deletes it together
/// with [`EmulatorConfig::backend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmulatorBackend {
    /// The single-threaded discrete-event driver.
    #[default]
    Event,
}

/// Emulator knobs.
#[derive(Debug, Clone, Copy)]
pub struct EmulatorConfig {
    /// Training iterations to execute back-to-back.
    pub iterations: u32,
    /// p2p buffer depth per link (1 = single pre-allocated comm buffer).
    pub channel_capacity: usize,
    /// Relative kernel-time jitter (0.0 = exact, deterministic timing).
    pub jitter: f64,
    /// Per-device straggler spread: each device gets a fixed slowdown
    /// factor in `[1, 1+spread]` (seeded), modeling the real-cluster
    /// heterogeneity the paper's simulator does not capture ("un-modeled
    /// behaviors" that make it slightly overestimate throughput, §6.6).
    pub straggler_spread: f64,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Per-device memory capacity in bytes (None disables OOM checking).
    pub mem_capacity: Option<u64>,
    /// Record the executed span graph ([`mario_ir::SpanGraph`]) — the
    /// input to critical-path analysis. Bit-identical to the DP
    /// simulator's on a zero-jitter run.
    pub record_spans: bool,
    /// Model-state checkpointing policy (None = no checkpoints; the run
    /// is bit-identical to a build without the checkpoint layer).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Selects nothing: [`EmulatorBackend`] has one variant. Kept only
    /// so the `perf/` benchmark harness compiles, and deleted with the
    /// type.
    pub backend: EmulatorBackend,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        Self {
            iterations: 1,
            channel_capacity: 1,
            jitter: 0.0,
            straggler_spread: 0.0,
            seed: 42,
            mem_capacity: None,
            record_spans: false,
            checkpoint: None,
            backend: EmulatorBackend::Event,
        }
    }
}

/// Results of an emulated run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Virtual duration of the whole run (max device clock), ns.
    pub total_ns: Nanos,
    /// Checkpoint-free virtual duration per iteration, ns: the critical
    /// path minus the checkpoint-write time that device actually paid,
    /// divided by iterations (rounded to nearest). This is the figure the
    /// Daly interval tuner consumes as `T`; folding write cost into it
    /// would make the tuned interval depend on the interval being tuned.
    pub iter_ns: Nanos,
    /// Final virtual clock per device.
    pub device_clocks: Vec<Nanos>,
    /// Peak memory footprint per device, bytes.
    pub peak_mem: Vec<u64>,
    /// Dynamic allocations still live per device when the run ended (0
    /// after a clean run; nonzero only on a malformed schedule).
    #[serde(default)]
    pub leaked: Vec<usize>,
    /// Injected faults the run absorbed without failing (slowdowns,
    /// link delays), in device order.
    pub faults: Vec<FaultReport>,
    /// Iterations covered by the last cluster-durable checkpoint
    /// (None when no [`EmulatorConfig::checkpoint`] policy was active).
    pub last_checkpoint: Option<u32>,
    /// Virtual time actually spent writing checkpoints, summed across
    /// devices, ns. These are real per-device payments, not the analytic
    /// `interval × write_ns` figure: a device that died before a write
    /// contributes nothing, and with [`mario_ir::ShardedWrite`] async
    /// overlap only the residue the bubbles could not hide is counted.
    /// Always equal to the telemetry's summed `ckpt_sync_ns` class.
    pub ckpt_overhead_ns: Nanos,
    /// The run's flight-recorder output: per-device time-class
    /// breakdowns (conserving each device clock exactly) and per-link
    /// transfer statistics. Bit-identical to the DP simulator's
    /// telemetry on a zero-jitter run.
    #[serde(default)]
    pub telemetry: Telemetry,
    /// Serving counters and latency digest, stamped by the serving loop
    /// (`mario_cluster::serving::serve`); None on training runs.
    #[serde(default)]
    pub serving: Option<crate::serving::ServingTelemetry>,
    /// The executed span graph (Some only when
    /// [`EmulatorConfig::record_spans`] was set): the causal record
    /// `mario-core`'s critical-path analyzer consumes.
    #[serde(default)]
    pub spans: Option<SpanGraph>,
}

impl RunReport {
    /// Training throughput in samples/s for a global batch of `samples`
    /// per iteration.
    pub fn throughput(&self, samples: u64) -> f64 {
        samples as f64 / (self.iter_ns as f64 / 1e9)
    }

    /// Peak memory across devices, bytes.
    pub fn max_peak_mem(&self) -> u64 {
        self.peak_mem.iter().copied().max().unwrap_or(0)
    }

    /// Minimum per-device peak, bytes (Table 5 reports `[min, max]`).
    pub fn min_peak_mem(&self) -> u64 {
        self.peak_mem.iter().copied().min().unwrap_or(0)
    }
}

/// Runs `schedule` on the emulated cluster (no injected faults).
pub fn run(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
) -> Result<RunReport, EmuError> {
    run_with_faults(schedule, cost, cfg, &FaultPlan::none())
}

/// Runs `schedule` with the faults of `plan` injected: [`run_with`] with
/// no startup offsets and no serving hooks.
pub fn run_with_faults(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    plan: &FaultPlan,
) -> Result<RunReport, EmuError> {
    run_with(schedule, cost, cfg, &RunOptions::new(plan))
}

/// What a run injects and observes beyond its [`EmulatorConfig`].
#[derive(Clone, Copy)]
pub struct RunOptions<'a> {
    /// The faults to inject. With an empty plan the run is exactly
    /// [`run`]; with a populated plan every induced failure terminates
    /// the run with a structured [`EmuError::Fault`] naming the injected
    /// fault, the observing device, its pc and virtual time — never a
    /// hang, never a panic. Its absorbable faults time the run through
    /// [`FaultPlan::perturbation_profile`], on top of `profile`.
    pub plan: &'a FaultPlan,
    /// The cluster's degradation: compute instructions on straggling
    /// devices are scaled by their slowdown windows (indexed by
    /// instruction pc) and perturbed packets depart late by the link's
    /// extra latency while the sender's clock is unaffected. Nothing is
    /// reported for it; only the plan's faults are.
    pub profile: &'a PerturbationProfile,
    /// Per-device startup offsets: device `d`'s clock begins at
    /// `startup[d]` ns (0 when the slice is short), charged to the
    /// `reconfig_ns` telemetry class — the state-redistribution cost an
    /// elastic reconfiguration pays before the shrunk pipeline's first
    /// instruction. The offsets propagate through blocking p2p.
    pub startup: &'a [Nanos],
    /// Serving hooks (None on training runs): each micro-batch's
    /// first-stage forward is gated at its release (the ingress wait
    /// lands in the `recv_blocked_ns` class, like any other wait for
    /// upstream data) and the last stage records completion times on the
    /// board. The board is observational, so a run with all-zero releases
    /// is bit-identical to one without hooks.
    pub serving: Option<ServingHooks<'a>>,
}

impl<'a> RunOptions<'a> {
    /// The faults of `plan` on a pristine cluster, no startup offsets, no
    /// serving hooks.
    pub fn new(plan: &'a FaultPlan) -> Self {
        Self {
            plan,
            profile: PerturbationProfile::pristine(),
            startup: &[],
            serving: None,
        }
    }

    /// The profile that times the run: `profile`, followed by the
    /// plan's absorbable faults.
    pub(crate) fn timing(&self) -> Cow<'a, PerturbationProfile> {
        if self.plan.is_empty() {
            return Cow::Borrowed(self.profile);
        }
        let mut profile = self.profile.clone();
        let faults = self.plan.perturbation_profile();
        profile.slowdowns.extend(faults.slowdowns);
        profile.link_slack.extend(faults.link_slack);
        Cow::Owned(profile)
    }
}

/// Runs `schedule` as `opts` describes.
pub fn run_with(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    opts: &RunOptions,
) -> Result<RunReport, EmuError> {
    let ready = mario_ir::Ready::fifo(schedule.devices() as usize);
    crate::event::run_event(schedule, cost, cfg, opts, ready)
}

/// Merges per-device outcomes into a [`RunReport`] (or the run's
/// root-cause error): root-cause selection, critical-path arithmetic and
/// telemetry assembly, once.
///
/// Reports may carry *any* device ids — they need not be contiguous or
/// dense (an elastic shrink's survivor set, for instance): everything
/// below keys by each report's own device id, never by its position in
/// the vector.
pub(crate) fn settle_report(
    results: Vec<Settled>,
    cfg: &EmulatorConfig,
    plan: &FaultPlan,
    table: &LinkTable,
) -> Result<RunReport, EmuError> {
    // A model checkpoint exists only once *every* shard of it was
    // written, like a real distributed snapshot: the cluster-durable one
    // is the minimum across devices. The write time is what every device
    // paid, durable or not. Both come from the settlements alone, on the
    // fault path and the success path.
    let saved = results.iter().map(|(_, c)| c.saved).min().unwrap_or(0);
    let paid_ns = results.iter().map(|(_, c)| c.paid_ns).sum();
    let mut reports = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for (r, _) in results {
        match r {
            Ok(rep) => reports.push(rep),
            Err(e) => errors.push(e),
        }
    }
    // When several devices fail at once (a crash cascades into peer
    // failures and deadlocks), report the root cause: lowest
    // priority rank wins, device order breaks ties — deterministic under
    // any firing order.
    if let Some(root) = errors
        .iter()
        .min_by_key(|e| (e.priority(), e.device().index()))
    {
        let mut root = root.clone();
        // Stamp the recovery context on the attribution: where a resume
        // would restart, and which correlated group (if any) the fault
        // belongs to.
        if let EmuError::Fault(report) = &mut root {
            report.last_checkpoint = saved;
            report.ckpt_paid_ns = paid_ns;
            report.group = plan.group_of(&report.fault);
        }
        return Err(root);
    }

    let device_clocks: Vec<Nanos> = reports.iter().map(|r| r.clock).collect();
    let total_ns = device_clocks.iter().copied().max().unwrap_or(0);
    // The per-iteration figure feeds throughput numbers and the Daly
    // interval tuner, both of which want the schedule's compute/comm time
    // with the checkpoint writes factored *out*: subtract what the
    // critical-path device actually paid writing checkpoints, then round
    // to nearest instead of truncating.
    let critical_paid = reports
        .iter()
        .max_by_key(|r| r.clock)
        .map_or(0, |r| r.telemetry.classes.ckpt_sync_ns);
    let ckpt_free_ns = total_ns.saturating_sub(critical_paid);
    let iters = cfg.iterations.max(1) as u64;
    let iter_ns = (ckpt_free_ns + iters / 2) / iters;
    let faults: Vec<FaultReport> = reports
        .iter()
        .flat_map(|r| r.absorbed.iter().cloned())
        .map(|mut r| {
            r.group = plan.group_of(&r.fault);
            r
        })
        .collect();
    // Assemble the flight recorder through the same constructor the DP
    // simulator uses, so link merge/order arithmetic cannot drift.
    let telemetry = Telemetry::assemble(
        reports.iter().map(|r| r.telemetry.clone()).collect(),
        reports.iter().flat_map(|r| {
            let src = r.telemetry.device;
            r.link_sends.iter().map(move |&(dst, s)| ((src, dst), s))
        }),
        reports.iter().flat_map(|r| {
            let dst = r.telemetry.device;
            r.link_recv_wait
                .iter()
                .map(move |&(src, ns)| ((src, dst), ns))
        }),
    );
    // Conservation is checked against clocks keyed by device *id* (the
    // index `check_conservation` uses), which only coincides with report
    // order when ids happen to be dense.
    let clocks_by_id = {
        let slots = reports
            .iter()
            .map(|r| r.telemetry.device.index() + 1)
            .max()
            .unwrap_or(0);
        let mut v = vec![0; slots];
        for r in &reports {
            v[r.telemetry.device.index()] = r.clock;
        }
        v
    };
    debug_assert_eq!(
        telemetry.total_ckpt_sync_ns(),
        paid_ns,
        "the reports' checkpoint time disagrees with the settlements'"
    );
    debug_assert!(
        telemetry.check_conservation(&clocks_by_id).is_ok(),
        "telemetry conservation violated: {:?}",
        telemetry.check_conservation(&clocks_by_id)
    );
    // Move each device's span stream into the graph, keyed by its
    // report's own device id (gappy survivor sets included), with the
    // endpoints of the links its spans name.
    let spans = if cfg.record_spans {
        let mut graph = SpanGraph::new(clocks_by_id.len(), cfg.channel_capacity);
        for r in &mut reports {
            graph.per_device[r.telemetry.device.index()] = std::mem::take(&mut r.spans);
        }
        graph.links = (0..table.len())
            .map(|k| {
                let (src, dst, ..) = table.key(k);
                (src, dst)
            })
            .collect();
        graph.makespan = total_ns;
        debug_assert!(
            graph.check_tiling(&clocks_by_id).is_ok(),
            "span tiling violated on {:?}",
            graph.check_tiling(&clocks_by_id)
        );
        Some(graph)
    } else {
        None
    };
    Ok(RunReport {
        total_ns,
        iter_ns,
        device_clocks,
        peak_mem: reports.iter().map(|r| r.peak_mem).collect(),
        leaked: reports.iter().map(|r| r.leaked).collect(),
        faults,
        last_checkpoint: cfg.checkpoint.map(|_| saved),
        ckpt_overhead_ns: paid_ns,
        telemetry,
        serving: None,
        spans,
    })
}

/// How a recovery session answers a permanent device loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Wait for a replacement device, then resume from the last durable
    /// checkpoint on the original topology at full speed.
    WaitAndResume,
    /// Re-partition the model onto the surviving devices, pay the state
    /// redistribution once, and continue degraded on a shorter (slower)
    /// pipeline.
    ShrinkAndContinue,
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryPolicy::WaitAndResume => write!(f, "wait-and-resume"),
            RecoveryPolicy::ShrinkAndContinue => write!(f, "shrink-and-continue"),
        }
    }
}

/// Everything the elastic loop needs to tear the faulted pipeline down
/// and rebuild it on the survivors: the shrunk schedule, the cost model
/// matching its device numbering, the channel depth it needs, and the
/// per-device state-redistribution charge. Produced by a planner (see
/// `mario-core`'s `plan_shrink`) in response to a [`FaultReport`].
pub struct Reconfiguration {
    /// The schedule for the shrunk pipeline (devices renumbered 0..p−k).
    pub schedule: Schedule,
    /// Cost model for the shrunk pipeline's device numbering.
    pub cost: Box<dyn CostModel>,
    /// Channel depth the shrunk schedule needs.
    pub channel_capacity: usize,
    /// Per-device startup charge, ns: the time each survivor spends
    /// fetching the layer state it did not already hold.
    pub startup_ns: Vec<Nanos>,
    /// Total bytes of model state moved between devices.
    pub moved_bytes: u64,
    /// The surviving devices, in their *original* numbering; survivor
    /// `i` becomes the shrunk schedule's device `i`.
    pub survivors: Vec<DeviceId>,
}

/// One teardown/rebuild the elastic loop performed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReconfigureEvent {
    /// Iteration (within the failed attempt) at which the fault fired.
    pub at_iteration: u32,
    /// The surviving devices, in original numbering.
    pub survivors: Vec<DeviceId>,
    /// Total bytes of model state redistributed.
    pub moved_bytes: u64,
    /// Wall-clock redistribution charge, ns (the slowest survivor's
    /// startup — the pipeline cannot start before every shard arrived).
    pub reconfig_ns: Nanos,
    /// Pipeline depth after the rebuild.
    pub devices_after: u32,
}

/// A run that survived injected faults via restarts, on the original
/// topology or, after a reconfiguration, on a shrunk one.
#[derive(Debug, Clone)]
pub struct RecoveredRun {
    /// The final, successful run (of the iterations that remained after
    /// resuming — all of them when nothing was checkpointed), on the
    /// shrunk topology if a reconfiguration happened.
    pub report: RunReport,
    /// Total attempts, including the successful one (1 = clean first try).
    pub attempts: u32,
    /// Structured reports of every fault that killed an attempt.
    pub fault_log: Vec<FaultReport>,
    /// Every teardown/rebuild performed, in order (empty on a plain
    /// restart).
    pub reconfigurations: Vec<ReconfigureEvent>,
    /// Virtual time of the whole recovery, ns: the final run (whose clock
    /// already includes any redistribution charge) plus the time each
    /// failed attempt burned before its fault surfaced. `report.total_ns`
    /// alone under-reports recovery cost by exactly that wasted work.
    pub total_ns_with_replay: Nanos,
    /// Iterations already covered by the checkpoint the final attempt
    /// resumed from (0 = it restarted from scratch).
    pub resumed_from: u32,
    /// Iterations that completed in failed attempts but were *not*
    /// covered by a checkpoint — executed again after the restart. This
    /// is the work checkpointing exists to bound.
    pub replayed_iters: u32,
    /// Total virtual time spent writing checkpoints across all attempts,
    /// summed over devices, ns — the overhead side of the checkpoint
    /// trade. Failed attempts contribute every write their devices paid
    /// for (from [`FaultReport::ckpt_paid_ns`]), not just the writes that
    /// became cluster-durable.
    pub ckpt_overhead_ns: Nanos,
    /// Total wall-clock redistribution charge across reconfigurations,
    /// ns (0 on a plain restart) — also visible per device in the final
    /// report's telemetry `reconfig_ns` class when the last attempt
    /// followed a rebuild.
    pub reconfig_ns: Nanos,
}

/// Runs `schedule` under `plan`, restarting after each injected-fault
/// failure — the emulator's model of checkpoint-restart recovery. With a
/// [`EmulatorConfig::checkpoint`] policy, each restart resumes from the
/// last cluster-durable checkpoint (the failed attempt's
/// [`FaultReport::last_checkpoint`]) and only runs the remaining
/// iterations; without one it restarts from iteration 0. Faults fire
/// once; a restart re-runs without the already-fired plan (the
/// replacement device / healed link), except for follow-ups a cascading
/// plan ([`FaultPlan::arming`]) armed. Non-injected errors (real OOM,
/// real deadlock) propagate immediately: restarting cannot fix a broken
/// schedule. At most `max_restarts` restarts are attempted.
///
/// After each fault that kills an attempt, `reconfigure` may hand back a
/// [`Reconfiguration`]: the links and devices of the old pipeline are
/// torn down and the next attempt runs the shrunk schedule, its devices
/// starting at their redistribution offsets. When it returns `None` (pass
/// `|_| None` for plain checkpoint-restart) the next attempt restarts on
/// the current topology — the wait-and-resume policy, with any
/// replacement wait charged by the caller.
pub fn run_with_recovery(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    plan: &FaultPlan,
    max_restarts: u32,
    mut reconfigure: impl FnMut(&FaultReport) -> Option<Reconfiguration>,
) -> Result<RecoveredRun, EmuError> {
    let mut fault_log: Vec<FaultReport> = Vec::new();
    let mut reconfigurations: Vec<ReconfigureEvent> = Vec::new();
    let mut attempts = 0;
    let mut active = plan.clone();
    // Iterations durably checkpointed by failed attempts: the next
    // attempt picks up after them.
    let mut completed: u32 = 0;
    let mut replayed: u32 = 0;
    let mut failed_overhead: Nanos = 0;
    let mut reconfig_total: Nanos = 0;
    // The shrunk schedule and cost model the next attempt runs on, once
    // a reconfiguration swapped them in.
    let mut shrunk: Option<(Schedule, Box<dyn CostModel>)> = None;
    let mut cur_cfg = cfg;
    // Redistribution offsets, charged to the single attempt that follows
    // a rebuild and cleared afterwards.
    let mut startup: Vec<Nanos> = Vec::new();
    loop {
        attempts += 1;
        let attempt_cfg = EmulatorConfig {
            iterations: cfg.iterations - completed,
            ..cur_cfg
        };
        let (attempt_schedule, attempt_cost) = match &shrunk {
            Some((s, c)) => (s, c.as_ref()),
            None => (schedule, cost),
        };
        let opts = RunOptions {
            startup: &startup,
            ..RunOptions::new(&active)
        };
        match run_with(attempt_schedule, attempt_cost, attempt_cfg, &opts) {
            Ok(mut report) => {
                // Each failed attempt ran up to its fault's virtual time
                // before being thrown away; charge that replay cost.
                let wasted: Nanos = fault_log.iter().map(|r| r.vtime).sum();
                // Bin the restart-forcing faults by their *site* (the
                // faulty component, not the observing device) onto the
                // final report's telemetry — the per-device hard-fault
                // counts a lemon-detecting tuner consumes. A site that no
                // longer exists on a shrunk topology is skipped (the lemon
                // left the fleet with its counter).
                for r in &fault_log {
                    let site = r.fault.site();
                    if let Some(d) = report
                        .telemetry
                        .devices
                        .iter_mut()
                        .find(|d| d.device == site)
                    {
                        d.hard_faults += 1;
                    }
                }
                return Ok(RecoveredRun {
                    total_ns_with_replay: report.total_ns + wasted,
                    ckpt_overhead_ns: failed_overhead + report.ckpt_overhead_ns,
                    report,
                    attempts,
                    fault_log,
                    reconfigurations,
                    resumed_from: completed,
                    replayed_iters: replayed,
                    reconfig_ns: reconfig_total,
                });
            }
            Err(EmuError::Fault(report)) if attempts <= max_restarts => {
                // The attempt's durable progress survives; everything past
                // the checkpoint is replayed by the next attempt.
                let saved = report.last_checkpoint;
                replayed += report.iteration.saturating_sub(saved);
                completed += saved;
                // Charge what the attempt's devices actually spent writing
                // (stamped by root-cause attribution) — including writes
                // that never became cluster-durable: that time was burned
                // whether or not the checkpoint is resumable.
                failed_overhead += report.ckpt_paid_ns;
                // The faulted component is replaced/healed — but a
                // cascading plan may have armed a follow-up that fires
                // on the next attempt; otherwise the rest runs
                // fault-free.
                active = active.take_armed();
                match reconfigure(&report) {
                    Some(r) => {
                        let reconfig_ns = r.startup_ns.iter().copied().max().unwrap_or(0);
                        reconfig_total += reconfig_ns;
                        reconfigurations.push(ReconfigureEvent {
                            at_iteration: report.iteration,
                            survivors: r.survivors.clone(),
                            moved_bytes: r.moved_bytes,
                            reconfig_ns,
                            devices_after: r.schedule.devices(),
                        });
                        cur_cfg = EmulatorConfig {
                            channel_capacity: r.channel_capacity,
                            ..cur_cfg
                        };
                        startup = r.startup_ns;
                        shrunk = Some((r.schedule, r.cost));
                    }
                    // Plain restart on the current topology: state is
                    // already in place, nothing to redistribute.
                    None => startup = Vec::new(),
                }
                fault_log.push(*report);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use crate::machine::Ckpt;
    use mario_ir::UnitCost;
    use mario_schedules::{generate, ScheduleConfig};

    fn unit() -> UnitCost {
        UnitCost::paper_grid()
    }

    #[test]
    fn one_f_one_b_matches_closed_form_makespan() {
        // Free comm + unit grid: iteration time = 3(D-1) + 3N time units.
        for (d, n) in [(2u32, 4u32), (4, 8), (8, 8)] {
            let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, d, n));
            let r = run(&s, &unit(), EmulatorConfig::default()).unwrap();
            let expect = (3 * (d - 1) + 3 * n) as u64 * 1_000;
            assert_eq!(r.total_ns, expect, "D={d} N={n}");
        }
    }

    #[test]
    fn determinism_across_runs_and_interleavings() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::Chimera, 4, 8));
        let a = run(&s, &unit(), EmulatorConfig::default()).unwrap();
        for _ in 0..5 {
            let b = run(&s, &unit(), EmulatorConfig::default()).unwrap();
            assert_eq!(a.device_clocks, b.device_clocks);
            assert_eq!(a.peak_mem, b.peak_mem);
        }
    }

    #[test]
    fn jitter_is_deterministic_given_seed() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let cfg = EmulatorConfig {
            jitter: 0.05,
            ..Default::default()
        };
        let a = run(&s, &unit(), cfg).unwrap();
        let b = run(&s, &unit(), cfg).unwrap();
        assert_eq!(a.device_clocks, b.device_clocks);
        // And differs from the exact run.
        let exact = run(&s, &unit(), EmulatorConfig::default()).unwrap();
        assert_ne!(a.total_ns, exact.total_ns);
    }

    #[test]
    fn oom_is_detected_and_attributed() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::GPipe, 2, 8));
        // GPipe device 0 holds 8 activations of 1 byte each; cap at 4.
        let cfg = EmulatorConfig {
            mem_capacity: Some(4),
            ..Default::default()
        };
        let err = run(&s, &unit(), cfg).unwrap_err();
        assert!(err.is_oom(), "{err}");
    }

    #[test]
    fn peak_memory_matches_on_the_fly_profile() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let r = run(&s, &unit(), EmulatorConfig::default()).unwrap();
        // UnitCost: 1 byte per live micro-batch, no static memory, zero
        // boundary bytes.
        assert_eq!(r.peak_mem, vec![4, 3, 2, 1]);
    }

    #[test]
    fn multiple_iterations_scale_linearly() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 4));
        let one = run(&s, &unit(), EmulatorConfig::default()).unwrap();
        let three = run(
            &s,
            &unit(),
            EmulatorConfig {
                iterations: 3,
                ..Default::default()
            },
        )
        .unwrap();
        // Back-to-back iterations may overlap slightly across the flush,
        // but per-iteration time must not exceed the single-iteration time.
        assert!(three.iter_ns <= one.total_ns);
        assert!(three.total_ns >= 2 * one.total_ns);
    }

    #[test]
    fn spans_record_every_instruction() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 2, 2));
        let r = run(
            &s,
            &unit(),
            EmulatorConfig {
                record_spans: true,
                ..Default::default()
            },
        )
        .unwrap();
        let spans = r.spans.expect("spans recorded");
        assert_eq!(spans.len(), s.total_instrs());
        // Each device's spans run in program order.
        for (d, per) in spans.per_device.iter().enumerate() {
            let pcs: Vec<u32> = per.iter().map(|sp| sp.pc).collect();
            let len = s.program(DeviceId(d as u32)).len() as u32;
            assert_eq!(pcs, (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn all_schemes_run_to_completion() {
        use mario_ir::SchemeKind::*;
        for scheme in [GPipe, OneFOneB, Chimera, Interleave { chunks: 2 }] {
            let s = generate(ScheduleConfig::new(scheme, 4, 8));
            let r = run(&s, &unit(), EmulatorConfig::default()).unwrap();
            assert!(r.total_ns > 0, "{scheme:?}");
        }
        // The wave pipeline needs buffer depth 2 at D=8.
        let s = generate(ScheduleConfig::new(Wave { chunks: 2 }, 8, 16));
        let r = run(
            &s,
            &unit(),
            EmulatorConfig {
                channel_capacity: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.total_ns > 0);
    }

    #[test]
    fn throughput_helper() {
        let r = RunReport {
            total_ns: 2_000_000_000,
            iter_ns: 2_000_000_000,
            device_clocks: vec![],
            peak_mem: vec![10, 30, 20],
            leaked: vec![],
            faults: vec![],
            last_checkpoint: None,
            ckpt_overhead_ns: 0,
            telemetry: Telemetry::default(),
            serving: None,
            spans: None,
        };
        assert!((r.throughput(128) - 64.0).abs() < 1e-9);
        assert_eq!(r.max_peak_mem(), 30);
        assert_eq!(r.min_peak_mem(), 10);
    }

    #[test]
    fn injected_crash_yields_structured_fault_not_hang() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let plan = FaultPlan::none().with(FaultKind::Crash {
            device: DeviceId(2),
            pc: 5,
        });
        let err = run_with_faults(&s, &unit(), EmulatorConfig::default(), &plan).unwrap_err();
        let report = err.fault_report().expect("fault attribution");
        assert_eq!(report.device, DeviceId(2));
        assert_eq!(report.pc, 5);
        assert_eq!(report.fault, plan.faults[0]);
    }

    #[test]
    fn injected_stall_is_attributed_to_the_receiver() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let plan = FaultPlan::none().with(FaultKind::LinkStall {
            src: DeviceId(1),
            dst: DeviceId(2),
            nth: 0,
        });
        let err = run_with_faults(&s, &unit(), EmulatorConfig::default(), &plan).unwrap_err();
        let report = err.fault_report().expect("fault attribution");
        assert_eq!(report.device, DeviceId(2));
        assert_eq!(report.blocked_peer, Some(DeviceId(1)));
        assert_eq!(report.fault, plan.faults[0]);
    }

    #[test]
    fn absorbable_faults_complete_and_are_logged() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let clean = run(&s, &unit(), EmulatorConfig::default()).unwrap();
        let plan = FaultPlan::none()
            .with(FaultKind::Slowdown {
                device: DeviceId(1),
                factor: 10.0,
                from_pc: 0,
                until_pc: 8,
            })
            .with(FaultKind::LinkDelay {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: 0,
                extra_ns: 7_000,
            });
        let r = run_with_faults(&s, &unit(), EmulatorConfig::default(), &plan).unwrap();
        assert_eq!(r.faults.len(), 2, "{:?}", r.faults);
        assert!(r.total_ns > clean.total_ns);
    }

    #[test]
    fn empty_plan_is_bit_identical_to_plain_run() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::Chimera, 4, 8));
        let a = run(&s, &unit(), EmulatorConfig::default()).unwrap();
        let b = run_with_faults(&s, &unit(), EmulatorConfig::default(), &FaultPlan::none()).unwrap();
        assert_eq!(a.device_clocks, b.device_clocks);
        assert_eq!(a.peak_mem, b.peak_mem);
        assert!(b.faults.is_empty());
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_report() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        for seed in 0..16 {
            let plan = FaultPlan::single_crash_or_stall(seed, &s);
            let a = run_with_faults(&s, &unit(), EmulatorConfig::default(), &plan);
            let b = run_with_faults(&s, &unit(), EmulatorConfig::default(), &plan);
            let ra = a.unwrap_err();
            let rb = b.unwrap_err();
            assert_eq!(
                ra.fault_report(),
                rb.fault_report(),
                "seed {seed}: reports must be identical"
            );
        }
    }

    #[test]
    fn recovery_restarts_after_a_crash() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let plan = FaultPlan::none().with(FaultKind::Crash {
            device: DeviceId(0),
            pc: 2,
        });
        let rec = run_with_recovery(&s, &unit(), EmulatorConfig::default(), &plan, 3, |_| None)
            .expect("recovers on restart");
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.fault_log.len(), 1);
        assert_eq!(rec.fault_log[0].fault, plan.faults[0]);
        let clean = run(&s, &unit(), EmulatorConfig::default()).unwrap();
        assert_eq!(rec.report.device_clocks, clean.device_clocks);
        // The failed first attempt's work is charged, not discarded.
        assert_eq!(
            rec.total_ns_with_replay,
            rec.report.total_ns + rec.fault_log[0].vtime
        );
        assert!(rec.total_ns_with_replay > rec.report.total_ns);
    }

    #[test]
    fn clean_recovery_charges_no_replay() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let rec = run_with_recovery(
            &s,
            &unit(),
            EmulatorConfig::default(),
            &FaultPlan::none(),
            3,
            |_| None,
        )
        .expect("clean run");
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.total_ns_with_replay, rec.report.total_ns);
    }

    #[test]
    fn recovery_does_not_mask_real_oom() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::GPipe, 2, 8));
        let cfg = EmulatorConfig {
            mem_capacity: Some(4),
            ..Default::default()
        };
        let err = run_with_recovery(&s, &unit(), cfg, &FaultPlan::none(), 3, |_| None).unwrap_err();
        assert!(err.is_oom(), "{err}");
    }

    #[test]
    fn checkpoint_writes_are_charged_and_recorded() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let cfg = EmulatorConfig {
            iterations: 6,
            ..Default::default()
        };
        let clean = run(&s, &unit(), cfg).unwrap();
        assert_eq!(clean.last_checkpoint, None);
        assert_eq!(clean.ckpt_overhead_ns, 0);
        let ck = run(
            &s,
            &unit(),
            EmulatorConfig {
                checkpoint: Some(mario_ir::CheckpointPolicy::every(2).with_write_ns(500)),
                ..cfg
            },
        )
        .unwrap();
        // 3 writes of 500 ns on each of the 4 devices: the wall clock is
        // exactly one device's write overhead slower, and the summed
        // accounting reports every device's payments.
        assert_eq!(ck.last_checkpoint, Some(6));
        assert_eq!(ck.ckpt_overhead_ns, 4 * 3 * 500);
        assert_eq!(ck.total_ns, clean.total_ns + 1_500);
        // The per-iteration figure stays checkpoint-free.
        assert_eq!(ck.iter_ns, clean.iter_ns);
        // A zero-cost policy is timing-neutral.
        let free = run(
            &s,
            &unit(),
            EmulatorConfig {
                checkpoint: Some(mario_ir::CheckpointPolicy::every(2)),
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(free.device_clocks, clean.device_clocks);
        assert_eq!(free.last_checkpoint, Some(6));
    }

    #[test]
    fn checkpoint_buffer_counts_against_capacity() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::GPipe, 2, 8));
        // GPipe device 0 peaks at 8 B of activations; the serialization
        // buffer alone then busts a 9 B capacity at the boundary.
        let cfg = EmulatorConfig {
            mem_capacity: Some(9),
            checkpoint: Some(
                mario_ir::CheckpointPolicy::every(1).with_mem_overhead(15),
            ),
            ..Default::default()
        };
        let err = run(&s, &unit(), cfg).unwrap_err();
        assert!(err.is_oom(), "{err}");
        // With headroom for the buffer the run completes.
        let ok = run(
            &s,
            &unit(),
            EmulatorConfig {
                mem_capacity: Some(24),
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(ok.last_checkpoint, Some(1));
        assert_eq!(ok.max_peak_mem(), 15);
    }

    #[test]
    fn crash_report_names_the_last_cluster_checkpoint() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let plan = FaultPlan::none()
            .with(FaultKind::Crash {
                device: DeviceId(2),
                pc: 5,
            })
            .at_iteration(3);
        let cfg = EmulatorConfig {
            iterations: 6,
            checkpoint: Some(mario_ir::CheckpointPolicy::every(2).with_write_ns(500)),
            ..EmulatorConfig::default()
        };
        let err = run_with_faults(&s, &unit(), cfg, &plan).unwrap_err();
        let report = err.fault_report().expect("fault attribution");
        assert_eq!(report.iteration, 3);
        // Every device completed iterations 0..=2 before the crash
        // could block it, so the end-of-iteration-1 checkpoint
        // (covering 2 iterations) is durable cluster-wide; the
        // end-of-iteration-3 write never completed anywhere.
        assert_eq!(report.last_checkpoint, 2);
    }

    #[test]
    fn stall_report_names_the_last_cluster_checkpoint() {
        // Dropping device 1's last activation to device 2 in iteration 3
        // leaves both parked on each other, so `quiesce`, not a driver,
        // settles device 2 with the stall and reads its checkpoint
        // progress off its machine.
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let plan = FaultPlan::none()
            .with(FaultKind::LinkStall {
                src: DeviceId(1),
                dst: DeviceId(2),
                nth: 7,
            })
            .at_iteration(3);
        let cfg = EmulatorConfig {
            iterations: 6,
            checkpoint: Some(mario_ir::CheckpointPolicy::every(2).with_write_ns(500)),
            ..EmulatorConfig::default()
        };
        let err = run_with_faults(&s, &unit(), cfg, &plan).unwrap_err();
        let report = err.fault_report().expect("fault attribution");
        assert_eq!(report.device, DeviceId(2));
        assert_eq!(report.blocked_peer, Some(DeviceId(1)));
        // No device gets past iteration 3, so each paid exactly the
        // end-of-iteration-1 write, which covers 2 iterations.
        assert_eq!(report.last_checkpoint, 2);
        assert_eq!(report.ckpt_paid_ns, 4 * 500);
    }

    #[test]
    fn recovery_resumes_from_the_last_checkpoint() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let plan = FaultPlan::none()
            .with(FaultKind::Crash {
                device: DeviceId(2),
                pc: 5,
            })
            .at_iteration(3);
        let base = EmulatorConfig {
            iterations: 6,
            ..EmulatorConfig::default()
        };
        let policy = mario_ir::CheckpointPolicy::every(2).with_write_ns(500);
        let with_ck = EmulatorConfig {
            checkpoint: Some(policy),
            ..base
        };
        let rec = run_with_recovery(&s, &unit(), with_ck, &plan, 3, |_| None).expect("recovers");
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.resumed_from, 2);
        // The checkpoint covers iterations 0-1; iteration 2 completed
        // everywhere but was not yet saved when iteration 3 crashed, so
        // exactly one completed iteration is executed again.
        assert_eq!(rec.replayed_iters, 1);
        // The final attempt is literally a fresh run of the remaining 4
        // iterations under the same policy.
        let fresh = run(
            &s,
            &unit(),
            EmulatorConfig {
                iterations: 4,
                ..with_ck
            },
        )
        .unwrap();
        assert_eq!(rec.report.device_clocks, fresh.device_clocks);
        // Checkpoint overhead is reported across all attempts, summed
        // over devices: each of the 4 devices paid 1 write in the failed
        // attempt (the end-of-iteration-3 boundary was never reached)
        // plus 2 in the final one.
        assert_eq!(rec.ckpt_overhead_ns, 4 * 3 * 500);
        // And resuming beats restarting from zero under the same plan.
        let from_zero = run_with_recovery(&s, &unit(), base, &plan, 3, |_| None).expect("recovers");
        assert_eq!(from_zero.resumed_from, 0);
        assert_eq!(from_zero.replayed_iters, 3);
        assert!(
            rec.total_ns_with_replay < from_zero.total_ns_with_replay,
            "resume {} !< restart {}",
            rec.total_ns_with_replay,
            from_zero.total_ns_with_replay
        );
    }

    #[test]
    fn failed_attempt_charges_actual_write_payments() {
        // Regression: the failed attempt used to be charged the analytic
        // `overhead_ns(last_checkpoint)` — one device's writes for the
        // checkpoints that became cluster-durable — under-reporting both
        // the other devices' payments and any device-local write a fault
        // killed before the whole cluster caught up.
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        // Device 2 dies at its very last instruction of iteration 1: by
        // then every other device's communication with it has completed,
        // so devices 0, 1 and 3 finish the whole run — each paying an
        // end-of-iteration-1 write that can never become cluster-durable
        // (device 2 never reached that boundary).
        let last_pc = s.program(DeviceId(2)).len() - 1;
        let plan = FaultPlan::none()
            .with(FaultKind::Crash {
                device: DeviceId(2),
                pc: last_pc,
            })
            .at_iteration(1);
        let cfg = EmulatorConfig {
            iterations: 2,
            checkpoint: Some(mario_ir::CheckpointPolicy::every(1).with_write_ns(500)),
            ..EmulatorConfig::default()
        };
        let err = run_with_faults(&s, &unit(), cfg, &plan).unwrap_err();
        let report = err.fault_report().expect("fault attribution");
        // Only the end-of-iteration-0 checkpoint is durable
        // cluster-wide…
        assert_eq!(report.last_checkpoint, 1);
        // …but the attempt paid 4 writes for it plus the three
        // orphaned end-of-iteration-1 writes: 7 × 500, not
        // `overhead_ns(1) = 500`.
        assert_eq!(report.ckpt_paid_ns, 7 * 500);
        // Recovery charges those same payments, plus the final
        // attempt's (1 remaining iteration, 4 devices).
        let rec = run_with_recovery(&s, &unit(), cfg, &plan, 3, |_| None).expect("recovers");
        assert_eq!(rec.resumed_from, 1);
        assert_eq!(rec.ckpt_overhead_ns, 7 * 500 + 4 * 500);
    }

    #[test]
    fn absorbed_fault_report_names_the_device_checkpoint() {
        // Regression: absorbed-fault reports (which skip the runner's
        // root-cause fixup) used to hardcode `last_checkpoint: 0` no
        // matter how many checkpoints the device had already written.
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let plan = FaultPlan::none()
            .with(FaultKind::Slowdown {
                device: DeviceId(1),
                factor: 4.0,
                from_pc: 0,
                until_pc: 8,
            })
            .at_iteration(2);
        let cfg = EmulatorConfig {
            iterations: 4,
            checkpoint: Some(mario_ir::CheckpointPolicy::every(1)),
            ..EmulatorConfig::default()
        };
        let r = run_with_faults(&s, &unit(), cfg, &plan).unwrap();
        assert_eq!(r.faults.len(), 1, "{:?}", r.faults);
        // The slowdown fired in iteration 2, after the device's
        // end-of-iteration-1 boundary: 2 iterations were checkpointed.
        assert_eq!(r.faults[0].last_checkpoint, 2);
    }

    #[test]
    fn startup_offsets_shift_clocks_and_land_in_telemetry() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let base = run(&s, &unit(), EmulatorConfig::default()).unwrap();
        let startup = vec![5_000u64, 0, 0, 0];
        let none = FaultPlan::none();
        let offset = RunOptions {
            startup: &startup,
            ..RunOptions::new(&none)
        };
        let r = run_with(&s, &unit(), EmulatorConfig::default(), &offset).unwrap();
        // Device 0 heads the pipeline: its 5 µs offset delays everyone.
        assert_eq!(r.total_ns, base.total_ns + 5_000);
        assert_eq!(r.telemetry.devices[0].classes.reconfig_ns, 5_000);
        assert_eq!(r.telemetry.devices[1].classes.reconfig_ns, 0);
        // The offset is a charged class, so conservation still holds.
        assert!(r.telemetry.check_conservation(&r.device_clocks).is_ok());
        // An empty slice is bit-identical to the plain entry point.
        let zero = run_with(&s, &unit(), EmulatorConfig::default(), &RunOptions::new(&none));
        assert_eq!(zero.unwrap().device_clocks, base.device_clocks);
    }

    #[test]
    fn elastic_recovery_continues_on_the_shrunk_pipeline() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let plan = FaultPlan::none()
            .with(FaultKind::Crash {
                device: DeviceId(3),
                pc: 5,
            })
            .at_iteration(3);
        let cfg = EmulatorConfig {
            iterations: 6,
            checkpoint: Some(mario_ir::CheckpointPolicy::every(2).with_write_ns(500)),
            ..EmulatorConfig::default()
        };
        let shrunk = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 3, 8));
        let startup = vec![1_000u64, 2_000, 3_000];
        let rec = run_with_recovery(&s, &unit(), cfg, &plan, 3, |report| {
            assert_eq!(report.fault, plan.faults[0]);
            Some(Reconfiguration {
                schedule: shrunk.clone(),
                cost: Box::new(unit()),
                channel_capacity: 1,
                startup_ns: startup.clone(),
                moved_bytes: 1234,
                survivors: vec![DeviceId(0), DeviceId(1), DeviceId(2)],
            })
        })
        .expect("elastic recovery completes");
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.resumed_from, 2);
        assert_eq!(rec.reconfigurations.len(), 1);
        let ev = &rec.reconfigurations[0];
        assert_eq!(ev.devices_after, 3);
        assert_eq!(ev.at_iteration, 3);
        assert_eq!(ev.moved_bytes, 1234);
        // Wall-clock charge = the slowest survivor's fetch.
        assert_eq!(ev.reconfig_ns, 3_000);
        assert_eq!(rec.reconfig_ns, 3_000);
        // The final run is the 3-deep pipeline with the redistribution
        // cost visible per device in its telemetry.
        assert_eq!(rec.report.device_clocks.len(), 3);
        for (d, &ns) in startup.iter().enumerate() {
            assert_eq!(rec.report.telemetry.devices[d].classes.reconfig_ns, ns);
        }
        // The final attempt equals a fresh startup-offset run of the
        // remaining 4 iterations on the shrunk schedule.
        let none = FaultPlan::none();
        let fresh = run_with(
            &shrunk,
            &unit(),
            EmulatorConfig {
                iterations: 4,
                ..cfg
            },
            &RunOptions {
                startup: &startup,
                ..RunOptions::new(&none)
            },
        )
        .unwrap();
        assert_eq!(rec.report.device_clocks, fresh.device_clocks);
        // Declining every reconfiguration is plain checkpoint-restart on
        // the original topology: nothing redistributed, the remaining
        // iterations run from the last durable checkpoint.
        let plain = run_with_recovery(&s, &unit(), cfg, &plan, 3, |_| None).unwrap();
        assert!(plain.reconfigurations.is_empty());
        assert_eq!(plain.reconfig_ns, 0);
        let rest = EmulatorConfig {
            iterations: cfg.iterations - plain.resumed_from,
            ..cfg
        };
        let fresh = run_with_faults(&s, &unit(), rest, &FaultPlan::none()).unwrap();
        assert_eq!(plain.report.device_clocks, fresh.device_clocks);
    }

    #[test]
    fn cascading_plans_replay_bit_identically_with_attribution() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 4, 8));
        let build = |seed: u64| {
            FaultPlan::single_crash_or_stall(seed, &s)
                .arming(FaultPlan::rack_failure(seed + 1, &s))
        };
        let plan = build(11);
        let rec = run_with_recovery(&s, &unit(), EmulatorConfig::default(), &plan, 3, |_| None)
            .expect("survives the cascade");
        // Two failed attempts — the seeded trigger, then the armed rack
        // failure — and a clean third.
        assert_eq!(rec.attempts, 3);
        assert_eq!(rec.fault_log.len(), 2);
        assert_eq!(rec.fault_log[0].fault, plan.faults[0]);
        assert_eq!(rec.fault_log[0].group, None);
        let armed = plan.armed.as_deref().unwrap();
        assert!(armed.faults.contains(&rec.fault_log[1].fault));
        assert_eq!(
            rec.fault_log[1].group.as_deref(),
            Some(armed.groups[0].name.as_str())
        );
        // Bit-identical replay from the seed.
        let again = run_with_recovery(
            &s,
            &unit(),
            EmulatorConfig::default(),
            &build(11),
            3,
            |_| None,
        )
        .unwrap();
        assert_eq!(rec.fault_log, again.fault_log);
        assert_eq!(rec.report.device_clocks, again.report.device_clocks);
    }

    #[test]
    fn memory_squeeze_surfaces_as_fault_not_oom() {
        let s = generate(ScheduleConfig::new(mario_ir::SchemeKind::GPipe, 2, 8));
        let plan = FaultPlan::none().with(FaultKind::MemSqueeze {
            device: DeviceId(0),
            capacity: 4,
        });
        let err = run_with_faults(&s, &unit(), EmulatorConfig::default(), &plan).unwrap_err();
        assert!(!err.is_oom());
        let report = err.fault_report().expect("fault attribution");
        assert_eq!(report.device, DeviceId(0));
        assert_eq!(report.fault, plan.faults[0]);
    }

    #[test]
    fn settle_report_survives_gappy_device_ids() {
        // An elastic shrink can leave survivors {1, 3, 6} out of an
        // original 7-device pipeline: report order no longer coincides
        // with device id, and neither the critical-device selection nor
        // the conservation bookkeeping may index reports by position.
        use crate::machine::DeviceReport;
        use mario_ir::DeviceTelemetry;
        let mk = |id: u32, clock: Nanos, ckpt: Nanos| -> Settled {
            let mut telemetry = DeviceTelemetry::new(DeviceId(id));
            telemetry.classes.compute_ns = clock - ckpt;
            telemetry.classes.ckpt_sync_ns = ckpt;
            telemetry.peak_mem = 10 + id as u64;
            let report = DeviceReport {
                clock,
                peak_mem: 10 + id as u64,
                leaked: 0,
                absorbed: Vec::new(),
                telemetry,
                link_sends: Vec::new(),
                link_recv_wait: Vec::new(),
                spans: Vec::new(),
            };
            let progress = Ckpt {
                saved: 0,
                paid_ns: ckpt,
            };
            (Ok(report), progress)
        };
        // Device 3 is critical (max clock) but sits at vector index 1;
        // a dense-id assumption would subtract device 6's paid time (or
        // index out of bounds) instead of device 3's. Each settlement's
        // paid time matches its report's, as a real driver's does.
        let results = [mk(1, 500, 40), mk(3, 900, 100), mk(6, 700, 40)].into();
        let cfg = EmulatorConfig {
            iterations: 2,
            ..Default::default()
        };
        let schedule = generate(ScheduleConfig::new(mario_ir::SchemeKind::OneFOneB, 7, 1));
        let table = LinkTable::new(&schedule);
        let report = settle_report(results, &cfg, &FaultPlan::none(), &table).unwrap();
        assert_eq!(report.total_ns, 900);
        // (900 - the critical device 3's paid time) / 2 iterations,
        // rounded to nearest.
        assert_eq!(report.iter_ns, 400);
        // Clocks and peaks stay in report (survivor) order.
        assert_eq!(report.device_clocks, vec![500, 900, 700]);
        assert_eq!(report.peak_mem, vec![11, 13, 16]);
        assert_eq!(report.ckpt_overhead_ns, 180);
        // Telemetry keeps the real device ids, not positions.
        let ids: Vec<u32> = report.telemetry.devices.iter().map(|d| d.device.0).collect();
        assert_eq!(ids, vec![1, 3, 6]);
    }
}
