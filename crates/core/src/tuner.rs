//! The schedule tuner (paper §5.3): grid search over
//! `(a, b, pp, dp, mbs)` — checkpointing on/off, scheme, pipeline depth,
//! data-parallel degree, micro-batch size — maximizing simulated training
//! throughput under the device-memory constraint (Equation 1). Each grid
//! point costs one schedule generation + graph tuning + simulation, a few
//! milliseconds, against minutes per configuration on a real cluster.

use crate::elastic::{compare_policies, plan_shrink, ElasticSetup};
use crate::passes::{run_graph_tuner, GraphTunerOptions, PassStats, PreposeOptions};
use crate::simulator::{simulate_makespan, simulate_memory, simulate_timeline, SimError};
use mario_cluster::{EmuError, FaultPlan, FaultReport, RecoveryPolicy};
use mario_ir::{
    min_channel_capacity, CheckpointPolicy, CostModel, Deadlock, DeviceId, Mismatch,
    PerturbationProfile, Schedule, SchemeKind, Topology,
};
use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Scheme selection: fixed or automatic (paper Listing 1:
/// `'Auto|V|X|W|...'`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemeChoice {
    /// Search across V, X and W.
    Auto,
    /// Search across V, X, W plus the zero-bubble family (Z, ZV).
    AutoZb,
    /// Search only the given schemes.
    Fixed(Vec<SchemeKind>),
}

impl SchemeChoice {
    /// The schemes this choice enumerates.
    pub fn schemes(&self) -> Vec<SchemeKind> {
        match self {
            SchemeChoice::Auto => vec![
                SchemeKind::OneFOneB,
                SchemeKind::Chimera,
                SchemeKind::Interleave { chunks: 2 },
            ],
            SchemeChoice::AutoZb => vec![
                SchemeKind::OneFOneB,
                SchemeKind::Chimera,
                SchemeKind::Interleave { chunks: 2 },
                SchemeKind::ZeroBubbleH1,
                SchemeKind::ZeroBubbleV,
            ],
            SchemeChoice::Fixed(v) => v.clone(),
        }
    }
}

/// Tuner knobs (the search space of Equation 1).
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Scheme choice (`b`).
    pub scheme_choice: SchemeChoice,
    /// Total devices `D` in the cluster.
    pub total_devices: u32,
    /// Global batch size.
    pub gbs: u32,
    /// Device memory budget `dmem`, bytes.
    pub mem_capacity: u64,
    /// Micro-batch sizes to try (`mbs ∈ {1, 2, 4, 8, …}`).
    pub mbs_options: Vec<u32>,
    /// Minimum pipeline depth (Eq. 1 uses `4 ≤ pp ≤ D`).
    pub min_pp: u32,
    /// Checkpointing options (`a ∈ {False, True}`).
    pub ckpt_options: Vec<bool>,
    /// p2p buffer depth assumed in simulation.
    pub channel_capacity: usize,
    /// Data-parallel efficiency coefficient per doubling (§5.3 extends `F`
    /// "to support the dp parameter, which multiplies an efficiency
    /// coefficient").
    pub dp_efficiency: f64,
    /// Enable the simulator-guided prepose pass during evaluation (slower
    /// but matches the full Mario pipeline).
    pub prepose: bool,
    /// Validate the winning candidate on the cluster emulator before
    /// accepting it, falling back to the next-best candidate when
    /// validation fails (at most [`MAX_VALIDATION_RUNS`] emulator runs).
    pub validate_on_emulator: bool,
    /// Known cluster degradation (stragglers, slow links). When set, the
    /// tuner re-simulates its top-[`MAX_DEGRADED_EVALS`] candidates under
    /// this profile, records the degraded iteration time next to the
    /// fault-free one, and re-ranks them by degraded time — so a schedule
    /// that only wins on a pristine cluster cannot be selected over one
    /// that absorbs the known straggler.
    pub perturbation: Option<PerturbationProfile>,
    /// Anticipated fault environment for checkpoint-interval tuning. When
    /// set, [`tune`] derives a Young/Daly-optimal [`CheckpointPolicy`] for
    /// the winning candidate and reports it on
    /// [`TuneResult::checkpoint_policy`]; when the plan carries no hard
    /// fault, no policy is emitted (checkpointing a fault-free run only
    /// costs write time).
    pub checkpoint: Option<CheckpointTuning>,
    /// Anticipated hard-fault scenario for elastic-recovery planning.
    /// When set, [`tune`] prices both recovery policies for the winning
    /// candidate — wait for a replacement and resume at full width, or
    /// shrink onto the survivors and continue degraded — and reports the
    /// cheaper one with its crossover horizon on [`TuneResult::recovery`].
    pub recovery: Option<RecoveryTuning>,
    /// Skip full evaluation of grid points whose *busy-time floor*
    /// already caps their throughput at or below the best candidate seen
    /// so far. The floor is [`busy_floor`] — the slowest device's summed
    /// instruction occupancy in the generated (untuned) schedule, a
    /// critical-path lower bound on the simulated iteration time that
    /// costs one schedule generation instead of graph-tuning plus
    /// simulation. Pruned points stay on the curve as
    /// [`CandidateFailure::BoundPruned`] and are counted in
    /// [`SearchStats::pruned_bound`]. The winner is provably unchanged:
    /// a pruned candidate's true time is at least the floor, so its true
    /// throughput can never exceed the incumbent it was compared to.
    /// The comparison is on fault-free throughput: combined with
    /// [`TunerConfig::perturbation`], pruned points are also excluded
    /// from the degraded re-ranking pass.
    pub bound_prune: bool,
}

impl TunerConfig {
    /// Sensible defaults for a cluster of `total_devices` A100s.
    pub fn new(total_devices: u32, gbs: u32, mem_capacity: u64) -> Self {
        Self {
            scheme_choice: SchemeChoice::Auto,
            total_devices,
            gbs,
            mem_capacity,
            mbs_options: vec![1, 2, 4, 8],
            min_pp: 4,
            ckpt_options: vec![false, true],
            channel_capacity: 1,
            dp_efficiency: 0.97,
            prepose: true,
            validate_on_emulator: false,
            perturbation: None,
            checkpoint: None,
            recovery: None,
            bound_prune: false,
        }
    }
}

/// Inputs for elastic-recovery policy tuning: the fault scenario to plan
/// for and the cluster constants that price waiting vs. shrinking.
#[derive(Debug, Clone)]
pub struct RecoveryTuning {
    /// Devices assumed lost to the hard fault (ids in the winning
    /// candidate's pipeline, `0..pp`).
    pub lost_devices: Vec<DeviceId>,
    /// Iterations left to run when the fault strikes.
    pub remaining_iters: u32,
    /// Expected wait for a replacement device, ns (the wait-and-resume
    /// policy pays this once before resuming at full width).
    pub replacement_wait_ns: u64,
    /// Model-state bytes per layer, pricing the shrink's redistribution.
    pub state_bytes_per_layer: u64,
    /// Link bandwidth for fetching redistributed state, bytes/µs.
    pub fetch_bytes_per_us: u64,
}

/// The tuner's elastic-recovery verdict for the winning candidate (see
/// [`crate::elastic::compare_policies`] for the pricing model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The cheaper policy for the configured scenario.
    pub policy: RecoveryPolicy,
    /// Tail time under wait-and-resume.
    pub wait_total_ns: u64,
    /// Tail time under shrink-and-continue.
    pub shrink_total_ns: u64,
    /// Remaining-iteration horizon where the policies tie (`None` when
    /// one dominates everywhere).
    pub crossover_remaining: Option<u64>,
    /// Simulated iteration time of the shrunk pipeline.
    pub shrunk_iter_ns: u64,
    /// One-time state-redistribution cost of the shrink.
    pub reconfig_ns: u64,
    /// Width of the shrunk pipeline.
    pub shrunk_devices: u32,
}

/// Inputs for checkpoint-interval tuning: the anticipated fault
/// environment plus the per-checkpoint costs the emulator will charge
/// (see `mario_ir::CheckpointPolicy`).
#[derive(Debug, Clone)]
pub struct CheckpointTuning {
    /// The fault plan the run is expected to face; its hard-fault count
    /// over [`CheckpointTuning::total_iters`] sets the failure rate λ.
    pub plan: FaultPlan,
    /// Planned run length, iterations.
    pub total_iters: u32,
    /// Cost of writing one checkpoint, ns (the Young/Daly `C`).
    pub write_ns: u64,
    /// Transient serialization-buffer size charged at each boundary,
    /// bytes (forwarded onto the emitted policy).
    pub mem_overhead: u64,
    /// Observed fault history from earlier runs. When present and it
    /// contains at least one hard fault, its fitted rate replaces the
    /// plan-implied uniform prior `hard_faults / total_iters` — the plan
    /// says what *could* fail, the history says how often it actually
    /// does.
    pub history: Option<FaultHistory>,
    /// Devices the tuned run will actually occupy. When set, the fitted
    /// rate is scoped to hard faults attributed to *these* devices
    /// ([`FaultHistory::fitted_rate_on`]): a history dominated by a lemon
    /// device the new placement avoids then yields a lower λ and a longer
    /// interval, while placing onto the lemon shortens it. `None` keeps
    /// the cluster-wide rate.
    pub devices: Option<Vec<DeviceId>>,
}

/// Fault observations accumulated across completed (or recovered) runs,
/// the empirical alternative to a plan-implied failure rate.
#[derive(Debug, Clone, Default)]
pub struct FaultHistory {
    /// Every fault report observed (absorbed and fatal alike; fitting
    /// keeps only the hard ones).
    pub reports: Vec<FaultReport>,
    /// Total iterations those observations cover, across all runs.
    pub iterations: u64,
}

impl FaultHistory {
    /// Folds one run's fault log and iteration count into the history.
    pub fn record<I: IntoIterator<Item = FaultReport>>(&mut self, reports: I, iterations: u32) {
        self.reports.extend(reports);
        self.iterations += iterations as u64;
    }

    /// The fitted hard-fault rate, failures per iteration (see
    /// [`fit_fault_rate`]).
    pub fn fitted_rate(&self) -> Option<f64> {
        fit_fault_rate(&self.reports, self.iterations)
    }

    /// The fitted hard-fault rate counting only events attributed to
    /// `devices` (see [`fit_fault_rate_on`]): the per-placement rate a
    /// tuner should use when the new run occupies a subset of the devices
    /// the history was observed on.
    pub fn fitted_rate_on(&self, devices: &[DeviceId]) -> Option<f64> {
        fit_fault_rate_on(&self.reports, self.iterations, devices)
    }

    /// Hard-fault (restart-forcing) events binned by the faulty
    /// component's device (`FaultKind::site`), sorted by device id. Uses
    /// the same counting rules as [`fit_fault_rate`]: absorbable faults
    /// are skipped and a correlated group is ONE event, attributed to the
    /// site of its first report. This is the device-binning hook for
    /// fitting per-device fault rates from a shared history.
    pub fn hard_faults_by_device(&self) -> Vec<(DeviceId, u64)> {
        let mut counts: BTreeMap<DeviceId, u64> = BTreeMap::new();
        for site in restart_sites(&self.reports) {
            *counts.entry(site).or_default() += 1;
        }
        counts.into_iter().collect()
    }
}

/// The site of each restart-forcing event in `reports`, in report order:
/// absorbable faults never force a restart and are skipped, and reports
/// sharing a correlated group are one event, at its first report's site
/// (`FaultKind::site`, the faulty component's device).
fn restart_sites(reports: &[FaultReport]) -> impl Iterator<Item = DeviceId> + '_ {
    let mut seen_groups: Vec<&str> = Vec::new();
    reports.iter().filter_map(move |r| {
        if r.fault.is_absorbable() {
            return None;
        }
        if let Some(g) = r.group.as_deref() {
            if seen_groups.contains(&g) {
                return None;
            }
            seen_groups.push(g);
        }
        Some(r.fault.site())
    })
}

/// `events` per iteration; `None` with no iterations or no event.
fn rate(events: usize, iterations: u64) -> Option<f64> {
    (iterations > 0 && events > 0).then(|| events as f64 / iterations as f64)
}

/// Fits a hard-fault rate (failures per iteration) to observed fault
/// reports: restart-forcing events over iterations observed. Absorbable
/// faults (slowdowns, link delays) never force a restart and are
/// ignored; reports sharing a correlated group
/// ([`mario_cluster::FaultGroup`]) count as ONE event — a rack failure is
/// one restart no matter how many crash-and-stall reports it spawned.
/// `None` when nothing was observed (no iterations, or no hard fault) —
/// the caller falls back to its prior.
pub fn fit_fault_rate(reports: &[FaultReport], iterations: u64) -> Option<f64> {
    rate(restart_sites(reports).count(), iterations)
}

/// [`fit_fault_rate`] scoped to a device subset: only restart-forcing
/// events whose attributed site is in `devices` count. Attribution follows
/// [`FaultHistory::hard_faults_by_device`] — a correlated group is one
/// event at its first report's site — so the per-device counts and the
/// scoped rates partition the global rate exactly. `None` when no scoped
/// hard fault was observed (the caller falls back to its prior, not the
/// cluster-wide rate: a placement that avoids every observed lemon should
/// not inherit the lemons' λ).
pub fn fit_fault_rate_on(
    reports: &[FaultReport],
    iterations: u64,
    devices: &[DeviceId],
) -> Option<f64> {
    // The site filter runs after group dedup: a correlated event is
    // attributed to its first report's site only, even when later
    // members of the group sit on in-scope devices.
    let events = restart_sites(reports).filter(|d| devices.contains(d)).count();
    rate(events, iterations)
}

/// The effective per-checkpoint write cost a run actually exhibited: its
/// slowdown relative to a checkpoint-free run of the same schedule,
/// amortized over the writes. This is the Young/Daly `C` to feed back
/// into [`daly_interval`] for an async-overlap policy — bubbles absorb
/// part of every write, so the analytic per-device cost overstates it.
pub fn effective_write_ns(base_total_ns: u64, ckpt_total_ns: u64, writes: u32) -> u64 {
    if writes == 0 {
        return 0;
    }
    ckpt_total_ns.saturating_sub(base_total_ns) / writes as u64
}

/// The Young/Daly optimal checkpoint interval, in iterations:
/// `k* = sqrt(2·C / (T·λ))` where `C` is the checkpoint write cost, `T`
/// the iteration time and `λ` the expected hard faults per iteration.
/// Rounded to the nearest whole interval and clamped to
/// `[1, total_iters]`; `None` when the fault rate is zero (no fault ⇒
/// checkpoints are pure overhead) or the run is empty.
pub fn daly_interval(
    iter_ns: u64,
    write_ns: u64,
    faults_per_iter: f64,
    total_iters: u32,
) -> Option<u32> {
    if total_iters == 0 || faults_per_iter <= 0.0 || iter_ns == 0 {
        return None;
    }
    let k = (2.0 * write_ns as f64 / (iter_ns as f64 * faults_per_iter)).sqrt();
    Some((k.round() as u32).clamp(1, total_iters))
}

/// Derives the [`CheckpointPolicy`] [`tune`] attaches to its winner:
/// Young/Daly with `λ` fitted from [`CheckpointTuning::history`] when
/// observations exist, falling back to the plan-implied uniform prior
/// `hard_faults / total_iters`. `None` when neither source shows a hard
/// fault — absorbable faults (jitter, link slowdowns) are survived in
/// place and never force a restart, so they contribute nothing to the
/// failure rate.
pub fn tune_checkpoint_interval(
    iter_ns: u64,
    tuning: &CheckpointTuning,
) -> Option<CheckpointPolicy> {
    if tuning.total_iters == 0 {
        return None;
    }
    let fitted = tuning.history.as_ref().and_then(|h| match &tuning.devices {
        Some(devs) => h.fitted_rate_on(devs),
        None => h.fitted_rate(),
    });
    let lambda = match fitted {
        Some(fitted) => fitted,
        None => {
            let hard = tuning.plan.hard_faults();
            if hard == 0 {
                return None;
            }
            hard as f64 / tuning.total_iters as f64
        }
    };
    let k = daly_interval(iter_ns, tuning.write_ns, lambda, tuning.total_iters)?;
    Some(
        CheckpointPolicy::every(k)
            .with_write_ns(tuning.write_ns)
            .with_mem_overhead(tuning.mem_overhead),
    )
}

/// Upper bound on emulator runs [`tune`] spends validating candidates when
/// [`TunerConfig::validate_on_emulator`] is set. If every validated
/// candidate fails, the search degrades gracefully to the best remaining
/// unvalidated one instead of aborting.
pub const MAX_VALIDATION_RUNS: usize = 8;

/// Upper bound on candidates re-simulated under
/// [`TunerConfig::perturbation`]. Degraded re-evaluation is a re-ranking
/// of the head of the fault-free ranking, not a second full grid search.
pub const MAX_DEGRADED_EVALS: usize = 8;

/// One point of the search grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidate {
    /// Pipeline scheme (`b`).
    pub scheme: SchemeKind,
    /// Pipeline depth (`pp`).
    pub pp: u32,
    /// Data-parallel degree (`dp = D / pp`).
    pub dp: u32,
    /// Micro-batch size.
    pub mbs: u32,
    /// Mario checkpointing enabled (`a`).
    pub mario: bool,
}

impl std::fmt::Display for Candidate {
    /// The paper's Fig. 11 label format `x-y-z` (scheme, PP, mbs), plus a
    /// `+M` marker when Mario is on.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-{}-{}{}",
            self.scheme.shape_letter(),
            self.pp,
            self.mbs,
            if self.mario { "+M" } else { "" }
        )
    }
}

/// Why a candidate was rejected. Failed candidates stay on the search
/// curve with their cause recorded, instead of silently vanishing (or,
/// worse, aborting the whole search).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CandidateFailure {
    /// Peak memory exceeds the device budget (the Eq. 1 penalty).
    Oom {
        /// Worst per-device peak, bytes.
        peak: u64,
        /// The budget it exceeds, bytes.
        capacity: u64,
    },
    /// The DP simulator found a deadlock under blocking p2p.
    SimDeadlock(Deadlock),
    /// The DP simulator saw mis-paired communication.
    SimMismatch(Mismatch),
    /// Emulator validation failed (only with
    /// [`TunerConfig::validate_on_emulator`]).
    Emulation(EmuError),
    /// Skipped by bound pruning (only with [`TunerConfig::bound_prune`]):
    /// the busy-time floor already caps this candidate's throughput at or
    /// below the best one seen when it was visited.
    BoundPruned {
        /// The admissible lower bound on the iteration time, ns.
        bound_ns: u64,
    },
}

impl std::fmt::Display for CandidateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CandidateFailure::Oom { peak, capacity } => {
                write!(f, "OOM: peak {peak} B over budget {capacity} B")
            }
            CandidateFailure::SimDeadlock(s) => write!(f, "{s}"),
            CandidateFailure::SimMismatch(s) => write!(f, "{s}"),
            CandidateFailure::Emulation(s) => write!(f, "emulator validation failed: {s}"),
            CandidateFailure::BoundPruned { bound_ns } => {
                write!(f, "bound-pruned: busy floor {bound_ns} ns cannot beat the incumbent")
            }
        }
    }
}

/// A simulated evaluation of one candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Evaluation {
    /// The grid point.
    pub candidate: Candidate,
    /// Cluster-wide throughput, samples/s (0 when the candidate OOMs —
    /// the Eq. 1 penalty).
    pub throughput: f64,
    /// Simulated iteration time, ns.
    pub iter_ns: u64,
    /// Simulated iteration time under [`TunerConfig::perturbation`], ns.
    /// `None` until the degraded re-evaluation pass fills it in (only the
    /// top-[`MAX_DEGRADED_EVALS`] fault-free candidates are re-simulated).
    pub degraded_iter_ns: Option<u64>,
    /// Per-device peak memory range `[min, max]`, bytes.
    pub peak_mem: (u64, u64),
    /// Whether the candidate exceeds the memory budget.
    pub oom: bool,
    /// Why the candidate is infeasible, when it is.
    pub failure: Option<CandidateFailure>,
}

impl Evaluation {
    /// True when the candidate is usable (no recorded failure).
    pub fn feasible(&self) -> bool {
        self.failure.is_none()
    }

    /// Predicted slowdown under the degraded profile
    /// (`degraded / fault-free`), when both times are known.
    pub fn degraded_slowdown(&self) -> Option<f64> {
        match (self.degraded_iter_ns, self.iter_ns) {
            (Some(d), t) if t > 0 => Some(d as f64 / t as f64),
            _ => None,
        }
    }

    /// Causal attribution for this evaluation: rebuilds the candidate's
    /// exact schedule (graph tuning included), re-simulates it, and runs
    /// the critical-path analyzer over the recorded span graph — *why* is
    /// the iteration time what it is, nanosecond by nanosecond. `None`
    /// when the candidate is inadmissible or its simulation fails. The
    /// rebuilt makespan equals [`Evaluation::iter_ns`] for feasible
    /// candidates (the whole pipeline is deterministic).
    pub fn explain(
        &self,
        model: &ModelConfig,
        gpu: &GpuSpec,
        cfg: &TunerConfig,
    ) -> Option<crate::critpath::CritReport> {
        let micros = admissible(model, &self.candidate, cfg.gbs)?;
        let Built {
            schedule, cost, cap, ..
        } = build_schedule(model, gpu, cfg, self.candidate, micros);
        let timeline = simulate_timeline(&schedule, &cost, cap).ok()?;
        Some(crate::critpath::analyze(&schedule, &timeline.spans))
    }
}

/// Search-effort accounting for one [`tune`] invocation: how many grid
/// points were generated, why the rejected ones were pruned, and how much
/// simulation/emulation work the search spent. Attached to
/// [`TuneResult::stats`] so benches and the flight recorder can report
/// search cost next to search outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Grid points enumerated (every `(scheme, pp, mbs, a)` combination
    /// the loops visited).
    pub generated: u64,
    /// Pruned before simulation: structurally inadmissible (divisibility,
    /// scheme constraints, too few layers).
    pub inadmissible: u64,
    /// Candidates carried through schedule generation + simulation.
    pub simulated: u64,
    /// Simulated candidates pruned for exceeding the memory budget (the
    /// Eq. 1 penalty).
    pub pruned_oom: u64,
    /// Simulated candidates pruned by a simulation failure (deadlock or
    /// mis-paired communication).
    pub pruned_sim_failure: u64,
    /// Grid points skipped by the busy-floor bound without simulation
    /// (only with [`TunerConfig::bound_prune`]).
    pub pruned_bound: u64,
    /// Re-simulations under [`TunerConfig::perturbation`] (bounded by
    /// [`MAX_DEGRADED_EVALS`]).
    pub degraded_evals: u64,
    /// Cluster-emulator validation runs (bounded by
    /// [`MAX_VALIDATION_RUNS`]).
    pub emulator_runs: u64,
    /// Top-level DP timeline-simulator invocations (one per simulated
    /// candidate plus one per degraded re-evaluation; prepose-internal
    /// simulations are not counted).
    pub dp_invocations: u64,
}

impl SearchStats {
    /// Adds another share of the search's effort to this one.
    pub(crate) fn merge(&mut self, other: &SearchStats) {
        self.generated += other.generated;
        self.inadmissible += other.inadmissible;
        self.simulated += other.simulated;
        self.pruned_oom += other.pruned_oom;
        self.pruned_sim_failure += other.pruned_sim_failure;
        self.pruned_bound += other.pruned_bound;
        self.degraded_evals += other.degraded_evals;
        self.emulator_runs += other.emulator_runs;
        self.dp_invocations += other.dp_invocations;
    }
}

/// The outcome of a grid search.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Best feasible evaluation.
    pub best: Evaluation,
    /// Every evaluation, in search order (the Fig. 11 curve).
    pub curve: Vec<Evaluation>,
    /// Candidates that looked best but failed emulator validation, with
    /// the cause (empty unless [`TunerConfig::validate_on_emulator`]).
    pub rejected: Vec<(Candidate, CandidateFailure)>,
    /// The Young/Daly checkpoint policy for the winner, derived from
    /// [`TunerConfig::checkpoint`] and the winner's simulated iteration
    /// time. `None` when no tuning inputs were given or the fault plan
    /// carries no hard fault.
    pub checkpoint_policy: Option<CheckpointPolicy>,
    /// Elastic-recovery verdict for the winner under
    /// [`TunerConfig::recovery`]: which policy is cheaper for the
    /// configured fault scenario and where the crossover sits. `None`
    /// when no scenario was given or no admissible shrunk pipeline
    /// exists.
    pub recovery: Option<RecoveryReport>,
    /// Search-effort accounting: candidates generated, pruned (with
    /// cause), simulated and emulated.
    pub stats: SearchStats,
    /// Wall-clock time of the search. Without bound pruning the grid
    /// points are judged in parallel, so this is the elapsed time of the
    /// whole search, not the sum of the work its threads did.
    pub tuning_time: Duration,
}

impl TuneResult {
    /// [`Evaluation::explain`] for the winning candidate: the critical
    /// path and per-op slack of the schedule the search selected.
    pub fn explain_best(
        &self,
        model: &ModelConfig,
        gpu: &GpuSpec,
        cfg: &TunerConfig,
    ) -> Option<crate::critpath::CritReport> {
        self.best.explain(model, gpu, cfg)
    }
}

/// Errors from tuning.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TuneError {
    /// No grid point satisfied the constraints (all OOM or invalid).
    NoFeasibleConfig,
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NoFeasibleConfig => write!(f, "no feasible configuration found"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Topology for a candidate.
pub fn topology_of(scheme: SchemeKind, pp: u32) -> Topology {
    Topology::new(scheme, pp)
}

/// Channel buffer depth a scheme is known to need under blocking p2p, as
/// a closed-form **upper bound** per scheme family. The tuner no longer
/// uses this table directly — `build_schedule` derives the minimal
/// sufficient capacity from the concrete schedule's send/recv order
/// (`mario_ir::min_channel_capacity`), which can be smaller (e.g. small
/// Chimera instances run at capacity 1) — but the table is kept as the
/// debug-assertion ceiling on the derivation and as the conservative
/// fallback for schedules whose capacity cannot be proven within the
/// probe range.
pub fn scheme_channel_capacity(scheme: SchemeKind) -> usize {
    match scheme {
        // ZB-V's reflected second chunk needs the same buffer depth as a
        // two-chunk wave at larger scales.
        SchemeKind::Wave { .. } | SchemeKind::Chimera | SchemeKind::ZeroBubbleV => 2,
        _ => 1,
    }
}

/// Checks the structural constraints of a candidate (the scheme's own
/// through [`ScheduleConfig::check`]); returns the micro-batch count if
/// admissible.
pub fn admissible(model: &ModelConfig, cand: &Candidate, gbs: u32) -> Option<u32> {
    if cand.pp * cand.dp == 0 {
        return None;
    }
    let denom = cand.dp * cand.mbs;
    if !gbs.is_multiple_of(denom) {
        return None;
    }
    let micros = gbs / denom;
    if micros == 0 {
        return None;
    }
    ScheduleConfig::new(cand.scheme, cand.pp, micros).check().ok()?;
    let stages = topology_of(cand.scheme, cand.pp).num_stages();
    if model.layers < stages {
        return None;
    }
    Some(micros)
}

/// One candidate's schedule as [`build_schedule`] builds it.
pub(crate) struct Built {
    /// The (optionally graph-tuned) schedule.
    pub schedule: Schedule,
    /// The training setup it was built for.
    pub setup: TrainSetup,
    /// The cost model over `setup`.
    pub cost: AnalyticCost,
    /// The effective channel capacity: the configured depth, raised to
    /// the minimal sufficient depth of the untuned schedule
    /// ([`derived_capacity`]).
    pub cap: usize,
    /// What the graph tuner did.
    pub stats: PassStats,
}

/// A grid point's generated schedule and cost model as [`tune`] shares
/// them between its Mario twins, with the channel capacity once a twin
/// has settled it.
struct Base {
    schedule: Schedule,
    cost: AnalyticCost,
    cap: Option<usize>,
}

/// Builds the (optionally graph-tuned) schedule and cost model for an
/// admissible candidate, together with the **effective channel capacity**
/// — the single construction path shared by simulation-based evaluation,
/// degraded re-evaluation, emulator validation and `api::optimize`, so
/// all of them judge the exact same schedule under the exact same buffer
/// depth. The returned capacity is the one the graph-tuner's
/// `PreposeOptions` used; computing it anywhere else can silently diverge
/// from it. [`tune`] runs the same steps but shares the generated base
/// between a point's Mario twins, and takes the base's capacity from the
/// untuned twin's makespan sweep when that twin is judged first
/// ([`judge_proving_capacity`]); the two capacities are equal.
pub(crate) fn build_schedule(
    model: &ModelConfig,
    gpu: &GpuSpec,
    cfg: &TunerConfig,
    cand: Candidate,
    micros: u32,
) -> Built {
    let (mut schedule, setup, cost) = generate_untuned(model, gpu, cand, micros);
    let cap = derived_capacity(cfg, cand.scheme, &schedule);
    let stats = if cand.mario {
        graph_tune(cfg, &mut schedule, &cost, cap)
    } else {
        PassStats::default()
    };
    Built {
        schedule,
        setup,
        cost,
        cap,
        stats,
    }
}

/// The generated schedule, setup and cost model of a candidate, before
/// graph tuning. None of them depends on `cand.mario`.
fn generate_untuned(
    model: &ModelConfig,
    gpu: &GpuSpec,
    cand: Candidate,
    micros: u32,
) -> (Schedule, TrainSetup, AnalyticCost) {
    let topo = topology_of(cand.scheme, cand.pp);
    let setup = TrainSetup::pipeline(model.clone(), gpu.clone(), topo, cand.mbs).with_dp(cand.dp);
    let cost = AnalyticCost::new(&setup);
    let schedule =
        generate(ScheduleConfig::new(cand.scheme, cand.pp, micros).allreduce(cand.dp > 1));
    (schedule, setup, cost)
}

/// The effective channel capacity of the untuned `schedule`, which both
/// Mario twins of a grid point use: the configured depth, raised to the
/// minimal sufficient depth.
fn derived_capacity(cfg: &TunerConfig, scheme: SchemeKind, schedule: &Schedule) -> usize {
    // Minimal sufficient buffer depth, proven by symbolic execution of
    // this exact schedule (timing-independent, so it holds under any cost
    // model). The per-scheme table is the ceiling: a derivation above it
    // would mean the closed-form bound is wrong.
    let derived = min_channel_capacity(schedule).unwrap_or_else(|| scheme_channel_capacity(scheme));
    debug_assert!(
        derived <= scheme_channel_capacity(scheme),
        "{scheme:?}: derived capacity {derived} exceeds the scheme table's {}",
        scheme_channel_capacity(scheme)
    );
    cfg.channel_capacity.max(derived)
}

/// Runs the graph tuner on a base schedule in place, with prepose (when
/// `cfg` enables it) held to channel capacity `cap`.
fn graph_tune(
    cfg: &TunerConfig,
    schedule: &mut Schedule,
    cost: &AnalyticCost,
    cap: usize,
) -> PassStats {
    let opts = GraphTunerOptions {
        prepose: cfg.prepose,
        prepose_opts: PreposeOptions {
            channel_capacity: cap,
            mem_capacity: Some(cfg.mem_capacity),
            max_rounds: 2,
        },
        ..GraphTunerOptions::mario()
    };
    let stats = run_graph_tuner(schedule, cost, opts);
    // The graph tuner must keep the schedule executable at the capacity
    // its prepose pass was given.
    debug_assert!(
        min_channel_capacity(schedule).is_some_and(|c| c <= cap),
        "graph tuner raised the capacity requirement above {cap}"
    );
    stats
}

/// Cluster throughput (samples/s) of `cand` at iteration time `iter_ns`,
/// with the DP-efficiency discount applied. 0 when the time is unknown.
fn throughput_of(cfg: &TunerConfig, cand: &Candidate, iter_ns: u64) -> f64 {
    if iter_ns == 0 {
        return 0.0;
    }
    let eff = cfg.dp_efficiency.powf((cand.dp as f64).log2());
    (cfg.gbs as f64 / (iter_ns as f64 / 1e9)) * eff
}

/// An admissible lower bound on a candidate's simulated iteration time:
/// the slowest device's summed instruction occupancy in the *generated*
/// schedule, before graph tuning. Every device executes its program
/// serially, so the makespan is at least any device's busy time; the
/// graph tuner only adds work (checkpoint recompute) or reorders it, so
/// the untuned floor also bounds the tuned schedule. One schedule
/// generation, no simulation — the cheap test [`tune`] uses for
/// [`TunerConfig::bound_prune`].
pub fn busy_floor(model: &ModelConfig, gpu: &GpuSpec, cand: &Candidate, micros: u32) -> u64 {
    let (schedule, _, cost) = generate_untuned(model, gpu, *cand, micros);
    busy_time(&schedule, &cost)
}

/// The slowest device's summed instruction occupancy.
fn busy_time(schedule: &Schedule, cost: &AnalyticCost) -> u64 {
    (0..schedule.devices())
        .map(|d| {
            let dev = DeviceId(d);
            schedule
                .program(dev)
                .into_iter()
                .map(|instr| cost.duration(dev, instr))
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0)
}

/// Simulates one candidate end to end. Returns `None` when the candidate is
/// structurally inadmissible; candidates that OOM or fail in simulation
/// return an [`Evaluation`] with the failure recorded, so the search curve
/// keeps every grid point and the tuner can degrade gracefully instead of
/// dropping causes on the floor.
pub fn evaluate(
    model: &ModelConfig,
    gpu: &GpuSpec,
    cfg: &TunerConfig,
    cand: Candidate,
) -> Option<Evaluation> {
    let micros = admissible(model, &cand, cfg.gbs)?;
    let Built {
        schedule, cost, cap, ..
    } = build_schedule(model, gpu, cfg, cand, micros);
    Some(judge(cfg, cand, &schedule, &cost, cap))
}

/// Simulates one built schedule: its memory against the budget, then its
/// makespan at channel capacity `cap`.
fn judge(
    cfg: &TunerConfig,
    cand: Candidate,
    schedule: &Schedule,
    cost: &AnalyticCost,
    cap: usize,
) -> Evaluation {
    let makespan = simulate_makespan(schedule, cost, cap, &PerturbationProfile::identity());
    judge_makespan(cfg, cand, schedule, cost, makespan)
}

/// [`judge`] of an untuned base whose channel capacity is not yet known;
/// returns the evaluation and the capacity, [`derived_capacity`]'s.
///
/// The makespan sweep at the configured depth `c` doubles as the capacity
/// proof. The sweep and `min_channel_capacity` run the same FIFO-window
/// network from a ready queue, so the sweep completes at `c` exactly when
/// the derivation is some `k ≤ c`; the capacity is then
/// `cfg.channel_capacity.max(k)`, which is `c`. Only a failed sweep pays
/// for the derivation, and for one more sweep when it raises the
/// capacity.
fn judge_proving_capacity(
    cfg: &TunerConfig,
    cand: Candidate,
    schedule: &Schedule,
    cost: &AnalyticCost,
) -> (Evaluation, usize) {
    let pristine = PerturbationProfile::identity();
    let c = cfg.channel_capacity.max(1);
    let mut makespan = simulate_makespan(schedule, cost, c, &pristine);
    let cap = match makespan {
        Ok(_) => c,
        Err(_) => derived_capacity(cfg, cand.scheme, schedule),
    };
    debug_assert_eq!(
        cap,
        derived_capacity(cfg, cand.scheme, schedule),
        "{cand:?}: the sweep's capacity differs from the derivation"
    );
    if cap != c {
        makespan = simulate_makespan(schedule, cost, cap, &pristine);
    }
    (judge_makespan(cfg, cand, schedule, cost, makespan), cap)
}

/// The evaluation of a schedule whose makespan sweep gave `makespan`:
/// its memory against the budget decides first.
fn judge_makespan(
    cfg: &TunerConfig,
    cand: Candidate,
    schedule: &Schedule,
    cost: &AnalyticCost,
    makespan: Result<u64, SimError>,
) -> Evaluation {
    let mem = simulate_memory(schedule, cost, Some(cfg.mem_capacity));
    let oom = !mem.fits(cfg.mem_capacity);
    let peak_mem = (mem.min_peak(), mem.max_peak());
    let (iter_ns, sim_failure) = match makespan {
        Ok(t) => (t, None),
        Err(SimError::Deadlock(s)) => (0, Some(CandidateFailure::SimDeadlock(s))),
        Err(SimError::Mismatch(s)) => (0, Some(CandidateFailure::SimMismatch(s))),
    };
    // OOM is the primary Eq. 1 penalty; a simulation failure is reported
    // when memory fits.
    let failure = if oom {
        Some(CandidateFailure::Oom {
            peak: peak_mem.1,
            capacity: cfg.mem_capacity,
        })
    } else {
        sim_failure
    };
    let throughput = if failure.is_some() {
        0.0
    } else {
        throughput_of(cfg, &cand, iter_ns)
    };
    Evaluation {
        candidate: cand,
        throughput,
        iter_ns,
        degraded_iter_ns: None,
        peak_mem,
        oom,
        failure,
    }
}

/// Judges the Mario twins of one grid point (its `mario` field is
/// ignored), in [`TunerConfig::ckpt_options`] order, and returns their
/// evaluations with the point's share of the search stats. With an
/// `incumbent` (bound pruning), a twin whose busy floor cannot beat it is
/// recorded as pruned without simulation, and each feasible twin raises
/// it.
fn judge_point(
    model: &ModelConfig,
    gpu: &GpuSpec,
    cfg: &TunerConfig,
    point: Candidate,
    mut incumbent: Option<&mut f64>,
) -> (Vec<Evaluation>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut evals = Vec::new();
    // The Mario twins of a grid point share one base. The untuned twin
    // borrows it; the Mario twin takes it and graph-tunes it in place,
    // cloning it only when another twin still follows.
    let mut shared: Option<Base> = None;
    for (k, &mario) in cfg.ckpt_options.iter().enumerate() {
        let cand = Candidate { mario, ..point };
        stats.generated += 1;
        let Some(micros) = admissible(model, &cand, cfg.gbs) else {
            stats.inadmissible += 1;
            continue;
        };
        let base = shared.get_or_insert_with(|| {
            let (schedule, _, cost) = generate_untuned(model, gpu, cand, micros);
            Base {
                schedule,
                cost,
                cap: None,
            }
        });
        // Busy-floor pruning: a candidate whose cheap lower bound cannot
        // beat the incumbent is recorded and skipped without simulating
        // it. Comparing ≤ against an earlier candidate is
        // winner-preserving — a tie would lose the stable ranking to the
        // incumbent anyway.
        if let Some(&incumbent) = incumbent.as_deref() {
            if incumbent > 0.0 {
                let bound_ns = busy_time(&base.schedule, &base.cost);
                if throughput_of(cfg, &cand, bound_ns) <= incumbent {
                    stats.pruned_bound += 1;
                    evals.push(Evaluation {
                        candidate: cand,
                        throughput: 0.0,
                        iter_ns: 0,
                        degraded_iter_ns: None,
                        peak_mem: (0, 0),
                        oom: false,
                        failure: Some(CandidateFailure::BoundPruned { bound_ns }),
                    });
                    continue;
                }
            }
        }
        let owned;
        let (mut schedule, cost, cap) = if k + 1 == cfg.ckpt_options.len() {
            owned = shared.take().expect("the base was built above");
            (Cow::Owned(owned.schedule), &owned.cost, owned.cap)
        } else {
            (Cow::Borrowed(&base.schedule), &base.cost, base.cap)
        };
        // The first twin judged settles the capacity: an untuned one
        // proves it with its own sweep, a Mario one derives it before
        // graph tuning.
        let (eval, cap) = match cap {
            None if !mario => judge_proving_capacity(cfg, cand, &schedule, cost),
            cap => {
                let cap = cap.unwrap_or_else(|| derived_capacity(cfg, cand.scheme, &schedule));
                if mario {
                    graph_tune(cfg, schedule.to_mut(), cost, cap);
                }
                (judge(cfg, cand, &schedule, cost, cap), cap)
            }
        };
        if let Some(base) = &mut shared {
            base.cap = Some(cap);
        }
        stats.simulated += 1;
        stats.dp_invocations += 1;
        match eval.failure {
            Some(CandidateFailure::Oom { .. }) => stats.pruned_oom += 1,
            Some(_) => stats.pruned_sim_failure += 1,
            None => {}
        }
        if let (Some(best), true) = (incumbent.as_deref_mut(), eval.feasible()) {
            *best = best.max(eval.throughput);
        }
        evals.push(eval);
    }
    (evals, stats)
}

/// A grid point's weight under [`gated_map`]'s heap gate: its pipeline
/// stages times its micro-batches, which its peak heap grows with. An
/// inadmissible point builds nothing and weighs 0.
fn weight(model: &ModelConfig, cfg: &TunerConfig, cand: &Candidate) -> u64 {
    admissible(model, cand, cfg.gbs).map_or(0, |micros| {
        u64::from(topology_of(cand.scheme, cand.pp).num_stages()) * u64::from(micros)
    })
}

/// Runs the full grid search (Equation 1), on as many threads as the host
/// offers the process.
pub fn tune(model: &ModelConfig, gpu: &GpuSpec, cfg: &TunerConfig) -> Result<TuneResult, TuneError> {
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    tune_on(model, gpu, cfg, workers)
}

/// [`tune`] on at most `workers` threads. The answer does not depend on
/// `workers`: every parallel step merges its results in input order.
pub(crate) fn tune_on(
    model: &ModelConfig,
    gpu: &GpuSpec,
    cfg: &TunerConfig,
    workers: usize,
) -> Result<TuneResult, TuneError> {
    let started = Instant::now();
    // One grid point per (scheme, pp, mbs), in grid order; the Mario
    // twins of a point are judged together.
    let mut points = Vec::new();
    for scheme in cfg.scheme_choice.schemes() {
        for pp in 1..=cfg.total_devices {
            if pp < cfg.min_pp || !cfg.total_devices.is_multiple_of(pp) {
                continue;
            }
            let dp = cfg.total_devices / pp;
            for &mbs in &cfg.mbs_options {
                points.push(Candidate {
                    scheme,
                    pp,
                    dp,
                    mbs,
                    mario: false,
                });
            }
        }
    }
    let mut stats = SearchStats::default();
    let mut curve = Vec::new();
    let judged = if cfg.bound_prune {
        // Bound pruning compares every twin against the best candidate
        // judged before it, so the grid is walked serially, in order.
        let mut incumbent = 0.0;
        points
            .iter()
            .map(|&point| judge_point(model, gpu, cfg, point, Some(&mut incumbent)))
            .collect()
    } else {
        // No point reads another's result. The results come back in grid
        // order, so the curve and the stats equal the serial walk's.
        gated_map(
            &points,
            workers,
            |point| weight(model, cfg, point),
            |&point| judge_point(model, gpu, cfg, point, None),
        )
    };
    for (evals, share) in judged {
        curve.extend(evals);
        stats.merge(&share);
    }
    // Rank feasible candidates best-first by fault-free throughput.
    let mut order: Vec<usize> = (0..curve.len()).filter(|&i| curve[i].feasible()).collect();
    order.sort_by(|&a, &b| curve[b].throughput.total_cmp(&curve[a].throughput));

    // Degraded re-evaluation: re-simulate the head of the ranking under
    // the caller's perturbation profile and re-rank it by degraded
    // iteration time, so the selected schedule is the one that best
    // absorbs the known straggler — not the one that only wins on a
    // pristine cluster. Both times are reported on the evaluations.
    if let Some(profile) = &cfg.perturbation {
        let k = order.len().min(MAX_DEGRADED_EVALS);
        let degraded = gated_map(
            &order[..k],
            workers,
            |&i| weight(model, cfg, &curve[i].candidate),
            |&i| {
                let cand = curve[i].candidate;
                let micros = admissible(model, &cand, cfg.gbs)?;
                let Built {
                    schedule, cost, cap, ..
                } = build_schedule(model, gpu, cfg, cand, micros);
                Some(simulate_makespan(&schedule, &cost, cap, profile).ok())
            },
        );
        for (&i, degraded) in order[..k].iter().zip(degraded) {
            if let Some(degraded) = degraded {
                stats.degraded_evals += 1;
                stats.dp_invocations += 1;
                curve[i].degraded_iter_ns = degraded;
            }
        }
        // Stable sort: equal degraded times keep the fault-free order;
        // candidates whose degraded simulation failed sink to the end of
        // the re-evaluated prefix.
        order[..k].sort_by_key(|&i| curve[i].degraded_iter_ns.unwrap_or(u64::MAX));
    }

    // With emulator validation on, walk down the ranking: a candidate the
    // emulator rejects (a schedule the simulator mis-judged) is recorded
    // with its cause and the search degrades to the next-best instead of
    // aborting. Validation effort is bounded; past the bound the
    // next-best candidate is accepted as-is. The bounded validations run
    // in parallel and are merged in candidate order, so the selected
    // schedule and the rejection log are identical to the serial walk.
    let mut rejected = Vec::new();
    let mut best: Option<Evaluation> = None;
    if cfg.validate_on_emulator {
        let k = order.len().min(MAX_VALIDATION_RUNS);
        stats.emulator_runs += k as u64;
        let outcomes = gated_map(
            &order[..k],
            workers,
            |&i| weight(model, cfg, &curve[i].candidate),
            |&i| validate_candidate(model, gpu, cfg, curve[i].candidate),
        );
        for (&i, outcome) in order[..k].iter().zip(outcomes) {
            match outcome {
                Ok(()) => {
                    best = Some(curve[i].clone());
                    break;
                }
                Err(cause) => rejected.push((curve[i].candidate, cause)),
            }
        }
        if best.is_none() {
            // Every validated candidate failed: degrade gracefully to the
            // best remaining unvalidated one.
            best = order.get(k).map(|&i| curve[i].clone());
        }
    } else {
        best = order.first().map(|&i| curve[i].clone());
    }
    let best = best.ok_or(TuneError::NoFeasibleConfig)?;
    let checkpoint_policy = cfg
        .checkpoint
        .as_ref()
        .and_then(|t| tune_checkpoint_interval(best.iter_ns, t));
    // Elastic-recovery pricing for the winner: plan the shrink onto the
    // survivors of the configured fault, simulate the shrunk pipeline's
    // iteration time with the same build pipeline as the grid search
    // (graph tuning included), and compare both policies over the
    // remaining-iteration tail.
    let recovery = cfg.recovery.as_ref().and_then(|r| {
        let micros = admissible(model, &best.candidate, cfg.gbs)?;
        let setup = ElasticSetup {
            scheme: best.candidate.scheme,
            devices: best.candidate.pp,
            micros,
            layers: model.layers,
            state_bytes_per_layer: r.state_bytes_per_layer,
            fetch_bytes_per_us: r.fetch_bytes_per_us,
        };
        let plan = plan_shrink(&setup, &r.lost_devices)?;
        let shrunk = Candidate {
            pp: plan.devices,
            ..best.candidate
        };
        let Built {
            schedule, cost, cap, ..
        } = build_schedule(model, gpu, cfg, shrunk, micros);
        stats.dp_invocations += 1;
        let shrunk_iter_ns =
            simulate_makespan(&schedule, &cost, cap, &PerturbationProfile::identity()).ok()?;
        let reconfig_ns = plan.startup_ns.iter().copied().max().unwrap_or(0);
        let cmp = compare_policies(
            best.iter_ns,
            shrunk_iter_ns,
            reconfig_ns,
            r.replacement_wait_ns,
            r.remaining_iters,
        );
        Some(RecoveryReport {
            policy: cmp.policy,
            wait_total_ns: cmp.wait_total_ns,
            shrink_total_ns: cmp.shrink_total_ns,
            crossover_remaining: cmp.crossover_remaining,
            shrunk_iter_ns,
            reconfig_ns,
            shrunk_devices: plan.devices,
        })
    });
    let tuning_time = started.elapsed();
    Ok(TuneResult {
        best,
        curve,
        rejected,
        checkpoint_policy,
        recovery,
        stats,
        tuning_time,
    })
}

/// Replays one candidate's exact schedule on the cluster emulator
/// (blocking p2p, memory ledger) and reports the structured cause when
/// the run fails.
fn validate_candidate(
    model: &ModelConfig,
    gpu: &GpuSpec,
    cfg: &TunerConfig,
    cand: Candidate,
) -> Result<(), CandidateFailure> {
    // Only candidates `admissible` admitted reach the curve: this is the
    // micro count it gave them.
    let micros = cfg.gbs / (cand.dp * cand.mbs);
    let Built {
        schedule, cost, cap, ..
    } = build_schedule(model, gpu, cfg, cand, micros);
    let emu_cfg = mario_cluster::EmulatorConfig {
        channel_capacity: cap,
        mem_capacity: Some(cfg.mem_capacity),
        ..Default::default()
    };
    mario_cluster::run(&schedule, &cost, emu_cfg)
        .map(drop)
        .map_err(CandidateFailure::Emulation)
}

/// Maps `run` over `items` on up to `workers` scoped threads and returns
/// the results in input order, whatever the worker count. A heap gate
/// bounds what runs at once: the weights of the running items never sum
/// past the heaviest item's, so the heaviest runs alone. When an item's
/// peak heap is proportional to its weight, the running items never hold
/// more heap than the heaviest one does alone.
/// A free worker takes the heaviest waiting item that fits, and waits
/// when none does; heaviest first also starts the longest work first.
/// With one worker nothing is spawned and the items run in order.
pub(crate) fn gated_map<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    weight: impl Fn(&I) -> u64,
    run: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(run).collect();
    }
    let weights: Vec<u64> = items.iter().map(weight).collect();
    // Lightest first, so the heaviest item that fits is the last one,
    // and of equal weights the earliest.
    let mut waiting: Vec<usize> = (0..items.len()).collect();
    waiting.sort_by_key(|&i| (weights[i], Reverse(i)));
    let gate = Gate {
        budget: weights.iter().copied().max().unwrap_or(0),
        weights: &weights,
        state: Mutex::new((waiting, 0)),
        freed: Condvar::new(),
    };
    let mut done: Vec<(usize, T)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(admitted) = gate.admit() {
                        done.push((admitted.item, run(&items[admitted.item])));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// The heap gate of [`gated_map`]: under one lock, the items still
/// waiting (lightest first) and the summed weight of those running.
struct Gate<'a> {
    weights: &'a [u64],
    budget: u64,
    state: Mutex<(Vec<usize>, u64)>,
    freed: Condvar,
}

impl Gate<'_> {
    /// Admits the heaviest waiting item that fits under the budget,
    /// blocking until one does; `None` once no item waits.
    fn admit(&self) -> Option<Admitted<'_>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let (waiting, running) = &mut *state;
            if waiting.is_empty() {
                return None;
            }
            let room = self.budget - *running;
            if let Some(pos) = waiting.iter().rposition(|&i| self.weights[i] <= room) {
                let item = waiting.remove(pos);
                *running += self.weights[item];
                return Some(Admitted { gate: self, item });
            }
            state = self.freed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// An admitted item. Dropping it returns its weight to the gate, also
/// when its run panics, so no other worker waits on it forever.
struct Admitted<'g> {
    gate: &'g Gate<'g>,
    item: usize,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.1 -= self.gate.weights[self.item];
        drop(state);
        self.gate.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TunerConfig {
        TunerConfig {
            mbs_options: vec![1, 2],
            prepose: false, // keep unit tests fast
            ..TunerConfig::new(8, 32, 40 * (1 << 30))
        }
    }

    #[test]
    fn tune_finds_a_feasible_config_for_gpt3_1_6b() {
        let r = tune(
            &ModelConfig::gpt3_1_6b(),
            &GpuSpec::a100_40g(),
            &small_cfg(),
        )
        .unwrap();
        assert!(r.best.throughput > 0.0);
        assert!(!r.curve.is_empty());
        // The best config must be at least as good as every non-OOM point.
        for e in &r.curve {
            assert!(r.best.throughput >= e.throughput);
        }
    }

    #[test]
    fn admissibility_rules() {
        let m = ModelConfig::gpt3_1_6b();
        // Chimera needs even pp and even micros.
        let c = Candidate {
            scheme: SchemeKind::Chimera,
            pp: 5,
            dp: 1,
            mbs: 1,
            mario: false,
        };
        assert!(admissible(&m, &c, 32).is_none());
        // Interleave needs micros % pp == 0.
        let c = Candidate {
            scheme: SchemeKind::Interleave { chunks: 2 },
            pp: 8,
            dp: 1,
            mbs: 3,
            mario: false,
        };
        assert!(admissible(&m, &c, 32).is_none());
        // Too many stages for the layer count.
        let shallow = ModelConfig {
            layers: 4,
            ..ModelConfig::gpt3_1_6b()
        };
        let c = Candidate {
            scheme: SchemeKind::OneFOneB,
            pp: 8,
            dp: 1,
            mbs: 1,
            mario: false,
        };
        assert!(admissible(&shallow, &c, 32).is_none());
        // A good 1F1B candidate.
        let c = Candidate {
            scheme: SchemeKind::OneFOneB,
            pp: 8,
            dp: 1,
            mbs: 2,
            mario: true,
        };
        assert_eq!(admissible(&m, &c, 32), Some(16));
    }

    #[test]
    fn oom_candidates_get_zero_throughput_but_stay_on_the_curve() {
        // A tiny memory budget makes everything OOM except nothing.
        let cfg = TunerConfig {
            mem_capacity: 1 << 30, // 1 GB: static alone exceeds this
            ..small_cfg()
        };
        let err = tune(&ModelConfig::gpt3_13b(), &GpuSpec::a100_40g(), &cfg);
        assert_eq!(err.unwrap_err(), TuneError::NoFeasibleConfig);
    }

    #[test]
    fn candidate_label_format() {
        let c = Candidate {
            scheme: SchemeKind::OneFOneB,
            pp: 64,
            dp: 1,
            mbs: 16,
            mario: true,
        };
        assert_eq!(c.to_string(), "V-64-16+M");
    }

    #[test]
    fn mario_enables_configs_that_oom_without_it() {
        // GPT3-13B on 32 devices at mbs 2: base 1F1B OOMs on 40 GB (Table
        // 5 V-base max = 122 GB), Mario fits (V-ovlp max = 14 GB).
        let model = ModelConfig::gpt3_13b();
        let gpu = GpuSpec::a100_40g();
        let cfg = TunerConfig {
            prepose: false,
            ..TunerConfig::new(32, 128, 40 * (1 << 30))
        };
        let base = evaluate(
            &model,
            &gpu,
            &cfg,
            Candidate {
                scheme: SchemeKind::OneFOneB,
                pp: 32,
                dp: 1,
                mbs: 2,
                mario: false,
            },
        )
        .unwrap();
        let mario = evaluate(
            &model,
            &gpu,
            &cfg,
            Candidate {
                scheme: SchemeKind::OneFOneB,
                pp: 32,
                dp: 1,
                mbs: 2,
                mario: true,
            },
        )
        .unwrap();
        assert!(base.oom, "base should OOM: {:?}", base.peak_mem);
        assert!(!mario.oom, "mario should fit: {:?}", mario.peak_mem);
        assert!(mario.throughput > 0.0);
        // The cause is recorded, not just the flag.
        assert!(
            matches!(base.failure, Some(CandidateFailure::Oom { .. })),
            "{:?}",
            base.failure
        );
        assert!(mario.feasible());
    }

    #[test]
    fn infeasible_candidates_keep_their_cause_on_the_curve() {
        let cfg = TunerConfig {
            mem_capacity: 1 << 30, // 1 GB: everything OOMs
            ..small_cfg()
        };
        let mut curve = Vec::new();
        for scheme in cfg.scheme_choice.schemes() {
            for &mbs in &cfg.mbs_options {
                let cand = Candidate {
                    scheme,
                    pp: 8,
                    dp: 1,
                    mbs,
                    mario: false,
                };
                if let Some(e) = evaluate(&ModelConfig::gpt3_13b(), &GpuSpec::a100_40g(), &cfg, cand)
                {
                    curve.push(e);
                }
            }
        }
        assert!(!curve.is_empty());
        for e in &curve {
            assert!(!e.feasible());
            assert!(e.failure.is_some(), "cause must be recorded: {:?}", e.candidate);
            assert_eq!(e.throughput, 0.0);
        }
    }

    #[test]
    fn emulator_validation_accepts_a_sound_best_candidate() {
        let cfg = TunerConfig {
            validate_on_emulator: true,
            ..small_cfg()
        };
        let r = tune(&ModelConfig::gpt3_1_6b(), &GpuSpec::a100_40g(), &cfg).unwrap();
        // The simulator and emulator agree on these schedules, so the top
        // candidate validates first try and nothing is rejected.
        assert!(r.rejected.is_empty(), "{:?}", r.rejected);
        assert!(r.best.throughput > 0.0);
    }

    #[test]
    fn parallel_validation_is_deterministic() {
        let cfg = TunerConfig {
            validate_on_emulator: true,
            ..small_cfg()
        };
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        let a = tune(&model, &gpu, &cfg).unwrap();
        for _ in 0..3 {
            let b = tune(&model, &gpu, &cfg).unwrap();
            assert_eq!(a.best.candidate, b.best.candidate);
            assert_eq!(
                a.rejected.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
                b.rejected.iter().map(|(c, _)| *c).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn channel_capacity_flows_through_the_single_build_path() {
        // Regression: the effective capacity used to be computed in three
        // places (`evaluate`, `build_schedule`, `validate_candidate`) and
        // could diverge. It now exists only inside `build_schedule`, which
        // derives the minimal sufficient depth from the concrete schedule
        // instead of the per-scheme table; the table stays the ceiling.
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        let cfg = TunerConfig {
            channel_capacity: 1,
            ..small_cfg()
        };
        for (scheme, pp, mbs) in [
            (SchemeKind::Chimera, 8u32, 1u32),
            (SchemeKind::Wave { chunks: 2 }, 8, 1),
            (SchemeKind::OneFOneB, 8, 1),
        ] {
            let cand = Candidate {
                scheme,
                pp,
                dp: 1,
                mbs,
                mario: scheme != SchemeKind::OneFOneB,
            };
            let micros = admissible(&model, &cand, 32).expect("admissible");
            let cap = build_schedule(&model, &gpu, &cfg, cand, micros).cap;
            // The derivation is the single source of truth: the effective
            // capacity equals the proven minimum of this exact schedule
            // (floored by the configured depth), never above the table.
            let expected = mario_ir::min_channel_capacity(&generate(
                ScheduleConfig::new(scheme, pp, micros),
            ))
            .expect("schedule is executable within the probe range");
            assert_eq!(cap, expected.max(cfg.channel_capacity), "{scheme:?}");
            assert!(cap <= scheme_channel_capacity(scheme), "{scheme:?}: {cap}");
        }
        // The derivation can beat the table: this Chimera instance proves
        // executable at depth 1 even though the closed-form bound says 2 —
        // and the emulator agrees, completing at the derived
        // depth. The table survives only as the derivation's ceiling.
        let cand = Candidate {
            scheme: SchemeKind::Chimera,
            pp: 8,
            dp: 1,
            mbs: 1,
            mario: false,
        };
        let micros = admissible(&model, &cand, 32).unwrap();
        let Built {
            schedule, cost, cap, ..
        } = build_schedule(&model, &gpu, &cfg, cand, micros);
        assert_eq!(cap, 1);
        let emu = mario_cluster::run(
            &schedule,
            &cost,
            mario_cluster::EmulatorConfig {
                channel_capacity: cap,
                ..Default::default()
            },
        )
        .expect("emulator completes at the derived capacity");
        assert!(emu.total_ns > 0);
        // A configured depth above the derived minimum is respected.
        let cand = Candidate {
            scheme: SchemeKind::OneFOneB,
            pp: 8,
            dp: 1,
            mbs: 1,
            mario: false,
        };
        let micros = admissible(&model, &cand, 32).unwrap();
        let wide = TunerConfig {
            channel_capacity: 4,
            ..small_cfg()
        };
        let cap = build_schedule(&model, &gpu, &wide, cand, micros).cap;
        assert_eq!(cap, 4);
    }

    #[test]
    fn daly_interval_tracks_cost_and_rate() {
        // Pricier checkpoints stretch the interval...
        let cheap = daly_interval(1000, 100, 0.1, 100).unwrap();
        let pricey = daly_interval(1000, 10_000, 0.1, 100).unwrap();
        assert!(pricey > cheap, "{pricey} vs {cheap}");
        // ...while a higher fault rate shrinks it.
        let calm = daly_interval(1000, 1000, 0.01, 100).unwrap();
        let stormy = daly_interval(1000, 1000, 1.0, 100).unwrap();
        assert!(stormy < calm, "{stormy} vs {calm}");
        // Free checkpoints saturate at "every iteration"; the clamp keeps
        // the interval within the run.
        assert_eq!(daly_interval(1000, 0, 0.5, 100), Some(1));
        assert_eq!(daly_interval(10, 1 << 40, 0.001, 12), Some(12));
        // No faults or no run: nothing to tune.
        assert_eq!(daly_interval(1000, 100, 0.0, 100), None);
        assert_eq!(daly_interval(1000, 100, 0.5, 0), None);
    }

    fn fault_report(fault: mario_cluster::FaultKind, group: Option<&str>) -> FaultReport {
        FaultReport {
            fault,
            device: mario_ir::DeviceId(0),
            pc: 0,
            instr: String::new(),
            blocked_peer: None,
            vtime: 0,
            iteration: 0,
            last_checkpoint: 0,
            ckpt_paid_ns: 0,
            group: group.map(str::to_string),
            detail: String::new(),
        }
    }

    #[test]
    fn fitted_rate_counts_restart_events_not_reports() {
        use mario_cluster::FaultKind;
        use mario_ir::DeviceId;
        let crash = FaultKind::Crash {
            device: DeviceId(0),
            pc: 0,
        };
        let slow = FaultKind::Slowdown {
            device: DeviceId(1),
            factor: 2.0,
            from_pc: 0,
            until_pc: 4,
        };
        // Nothing observed: no rate.
        assert_eq!(fit_fault_rate(&[], 64), None);
        assert_eq!(fit_fault_rate(&[fault_report(crash, None)], 0), None);
        // Absorbable faults never force a restart.
        assert_eq!(fit_fault_rate(&[fault_report(slow, None)], 64), None);
        // Independent hard faults each count...
        let two = [fault_report(crash, None), fault_report(crash, None)];
        assert_eq!(fit_fault_rate(&two, 64), Some(2.0 / 64.0));
        // ...but a correlated burst (one rack dying as a crash plus two
        // stalls) is a single restart event.
        let burst = [
            fault_report(crash, Some("rack-0")),
            fault_report(
                FaultKind::LinkStall {
                    src: DeviceId(0),
                    dst: DeviceId(2),
                    nth: 0,
                },
                Some("rack-0"),
            ),
            fault_report(
                FaultKind::LinkStall {
                    src: DeviceId(1),
                    dst: DeviceId(3),
                    nth: 0,
                },
                Some("rack-0"),
            ),
        ];
        assert_eq!(fit_fault_rate(&burst, 64), Some(1.0 / 64.0));
        let mut history = FaultHistory::default();
        history.record(burst.to_vec(), 32);
        history.record([fault_report(crash, None)], 32);
        assert_eq!(history.fitted_rate(), Some(2.0 / 64.0));
    }

    #[test]
    fn history_overrides_the_plan_prior() {
        use mario_cluster::FaultKind;
        use mario_ir::DeviceId;
        let crash = FaultKind::Crash {
            device: DeviceId(0),
            pc: 0,
        };
        // Plan-implied prior: 4 hard faults over 64 iterations.
        let mut tuning = CheckpointTuning {
            plan: FaultPlan::none().with(crash).with(crash).with(crash).with(crash),
            total_iters: 64,
            write_ns: 5_000,
            mem_overhead: 0,
            history: None,
            devices: None,
        };
        let prior = tune_checkpoint_interval(10_000, &tuning).unwrap();
        assert_eq!(
            prior.interval_iters,
            daly_interval(10_000, 5_000, 4.0 / 64.0, 64).unwrap()
        );
        // Observed history: one restart over 256 iterations — a much
        // calmer fleet, so the fitted interval stretches.
        let mut history = FaultHistory::default();
        history.record([fault_report(crash, None)], 256);
        tuning.history = Some(history);
        let fitted = tune_checkpoint_interval(10_000, &tuning).unwrap();
        assert_eq!(
            fitted.interval_iters,
            daly_interval(10_000, 5_000, 1.0 / 256.0, 64).unwrap()
        );
        assert!(fitted.interval_iters > prior.interval_iters);
        // A history with no hard fault falls back to the plan prior.
        tuning.history = Some(FaultHistory::default());
        let fallback = tune_checkpoint_interval(10_000, &tuning).unwrap();
        assert_eq!(fallback.interval_iters, prior.interval_iters);
    }

    #[test]
    fn effective_write_cost_amortizes_the_measured_slowdown() {
        // 12 writes stretched a 100µs run to 103µs: 250 ns each.
        assert_eq!(effective_write_ns(100_000, 103_000, 12), 250);
        // Fully absorbed writes cost nothing; degenerate inputs are safe.
        assert_eq!(effective_write_ns(100_000, 100_000, 12), 0);
        assert_eq!(effective_write_ns(100_000, 99_000, 12), 0);
        assert_eq!(effective_write_ns(100_000, 103_000, 0), 0);
    }

    #[test]
    fn checkpoint_tuner_needs_a_hard_fault() {
        use mario_cluster::FaultKind;
        use mario_ir::DeviceId;
        let mut tuning = CheckpointTuning {
            plan: FaultPlan::none(),
            total_iters: 32,
            write_ns: 5_000,
            mem_overhead: 128,
            history: None,
            devices: None,
        };
        // An empty plan — and a plan of only absorbable faults — yields no
        // policy: nothing ever forces a restart.
        assert!(tune_checkpoint_interval(10_000, &tuning).is_none());
        tuning.plan = FaultPlan::none().with(FaultKind::Slowdown {
            device: DeviceId(0),
            factor: 4.0,
            from_pc: 0,
            until_pc: 8,
        });
        assert!(tune_checkpoint_interval(10_000, &tuning).is_none());
        // One crash over the run sets λ = 1/32 and produces a real policy
        // carrying the configured costs.
        tuning.plan = FaultPlan::none().with(FaultKind::Crash {
            device: DeviceId(1),
            pc: 3,
        });
        let policy = tune_checkpoint_interval(10_000, &tuning).unwrap();
        assert!(policy.interval_iters >= 1 && policy.interval_iters <= 32);
        assert_eq!(policy.write_ns, 5_000);
        assert_eq!(policy.mem_overhead, 128);
        // And it matches the raw Young/Daly formula.
        assert_eq!(
            policy.interval_iters,
            daly_interval(10_000, 5_000, 1.0 / 32.0, 32).unwrap()
        );
    }

    #[test]
    fn tune_reports_a_checkpoint_policy_when_faults_are_anticipated() {
        use mario_cluster::FaultKind;
        use mario_ir::DeviceId;
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        // Default config: no tuning inputs, no policy.
        let r = tune(&model, &gpu, &small_cfg()).unwrap();
        assert!(r.checkpoint_policy.is_none());
        // With an anticipated crash the winner gets a Young/Daly policy
        // derived from its own simulated iteration time.
        let cfg = TunerConfig {
            checkpoint: Some(CheckpointTuning {
                plan: FaultPlan::none().with(FaultKind::Crash {
                    device: DeviceId(0),
                    pc: 0,
                }),
                total_iters: 64,
                write_ns: 2_000_000,
                mem_overhead: 0,
                history: None,
                devices: None,
            }),
            ..small_cfg()
        };
        let r = tune(&model, &gpu, &cfg).unwrap();
        let policy = r.checkpoint_policy.expect("policy for a faulty plan");
        assert!(policy.interval_iters >= 1 && policy.interval_iters <= 64);
        assert_eq!(
            policy.interval_iters,
            daly_interval(r.best.iter_ns, 2_000_000, 1.0 / 64.0, 64).unwrap()
        );
    }

    #[test]
    fn degraded_reevaluation_reports_both_iteration_times() {
        use mario_ir::{DeviceId, PerturbationProfile};
        let profile = PerturbationProfile::identity().with_straggler(DeviceId(0), 4.0);
        let cfg = TunerConfig {
            perturbation: Some(profile),
            ..small_cfg()
        };
        let r = tune(&ModelConfig::gpt3_1_6b(), &GpuSpec::a100_40g(), &cfg).unwrap();
        // The winner carries both times, and a straggler can only slow an
        // iteration down.
        let degraded = r.best.degraded_iter_ns.expect("degraded time recorded");
        assert!(degraded >= r.best.iter_ns);
        assert!(r.best.degraded_slowdown().unwrap() >= 1.0);
        // The degraded pass touched at most MAX_DEGRADED_EVALS candidates
        // and every touched one reports a degraded time no faster than its
        // fault-free one.
        let touched: Vec<&Evaluation> = r
            .curve
            .iter()
            .filter(|e| e.degraded_iter_ns.is_some())
            .collect();
        assert!(!touched.is_empty());
        assert!(touched.len() <= MAX_DEGRADED_EVALS);
        for e in touched {
            assert!(e.degraded_iter_ns.unwrap() >= e.iter_ns, "{}", e.candidate);
        }
        // Among re-evaluated candidates the winner has the best degraded
        // time (the re-ranking property).
        let best_degraded = r
            .curve
            .iter()
            .filter_map(|e| e.degraded_iter_ns)
            .min()
            .unwrap();
        assert_eq!(r.best.degraded_iter_ns.unwrap(), best_degraded);
    }

    #[test]
    fn shared_twin_base_matches_evaluating_each_candidate_alone() {
        // `tune` builds one base schedule per (scheme, pp, mbs), hands it
        // to every Mario twin, and takes its capacity from the untuned
        // twin's sweep when that twin comes first; each twin must still be
        // judged exactly as `evaluate` judges it alone, whichever order
        // the twins come in, with and without bound pruning. A two-chunk
        // wave at 8 devices needs capacity 2: at configured depths 0 and 1
        // its untuned twin's sweep fails and `tune` falls back to the
        // derivation and one more sweep; at depth 2 the sweep proves it.
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        let wave = SchemeKind::Wave { chunks: 2 };
        let needs_two = [1, 2].into_iter().any(|mbs| {
            let cand = Candidate {
                scheme: wave,
                pp: 8,
                dp: 1,
                mbs,
                mario: false,
            };
            let micros = admissible(&model, &cand, 32).expect("admissible");
            min_channel_capacity(&generate(ScheduleConfig::new(wave, 8, micros))) == Some(2)
        });
        assert!(needs_two, "the wave grid holds no base that needs capacity 2");
        let grids = [
            (SchemeChoice::Auto, 1),
            (SchemeChoice::Fixed(vec![wave]), 0),
            (SchemeChoice::Fixed(vec![wave]), 1),
            (SchemeChoice::Fixed(vec![wave]), 2),
        ];
        for (scheme_choice, channel_capacity) in grids {
            for ckpt_options in [
                vec![false, true],
                vec![true, false],
                vec![true, true],
                vec![false],
            ] {
                for bound_prune in [false, true] {
                    let cfg = TunerConfig {
                        scheme_choice: scheme_choice.clone(),
                        channel_capacity,
                        ckpt_options: ckpt_options.clone(),
                        bound_prune,
                        ..small_cfg()
                    };
                    let r = tune(&model, &gpu, &cfg).unwrap();
                    for e in &r.curve {
                        if matches!(e.failure, Some(CandidateFailure::BoundPruned { .. })) {
                            continue;
                        }
                        let alone = evaluate(&model, &gpu, &cfg, e.candidate);
                        let alone = alone.expect("admissible");
                        assert_eq!(
                            format!("{e:?}"),
                            format!("{alone:?}"),
                            "{scheme_choice:?} at depth {channel_capacity}"
                        );
                    }
                }
            }
        }
    }

    /// The fact `judge_proving_capacity` rests on: the makespan sweep at
    /// capacity `c` completes exactly when `min_channel_capacity` proves
    /// some `k ≤ c`. Every scheme at D 2–8 with N ∈ {D, 2D}, and mutants
    /// of each with one p2p dropped or swapped with its successor, at
    /// capacities 1–3.
    #[test]
    fn the_makespan_sweep_proves_the_channel_capacity() {
        use mario_ir::{DeviceProgram, UnitCost};
        let cost = UnitCost::paper_grid();
        let pristine = PerturbationProfile::identity();
        // SplitMix64, for picking the mutated p2p.
        let mut state = 0x5eed_u64;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut answers: BTreeMap<Option<usize>, usize> = BTreeMap::new();
        for scheme in [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
            SchemeKind::Wave { chunks: 2 },
            SchemeKind::ForwardOnly,
            SchemeKind::ZeroBubbleH1,
            SchemeKind::ZeroBubbleV,
        ] {
            for d in 2..=8u32 {
                for n in [d, 2 * d] {
                    let config = ScheduleConfig::new(scheme, d, n);
                    if config.check().is_err() {
                        continue;
                    }
                    let base = generate(config);
                    let p2ps: Vec<(DeviceId, usize)> = (0..d)
                        .map(DeviceId)
                        .flat_map(|dev| {
                            let instrs = base.program(dev).instrs();
                            (0..instrs.len())
                                .filter(|&pc| instrs[pc].kind.p2p().is_some())
                                .map(move |pc| (dev, pc))
                        })
                        .collect();
                    let mut schedules = vec![base.clone()];
                    for _ in 0..2 {
                        let (dev, pc) = p2ps[below(p2ps.len())];
                        let mut dropped = base.clone();
                        let mut instrs = base.program(dev).instrs().to_vec();
                        instrs.remove(pc);
                        *dropped.program_mut(dev) = DeviceProgram::from_instrs(dev, instrs);
                        schedules.push(dropped);
                        let len = base.program(dev).len();
                        if pc + 1 < len {
                            let mut swapped = base.clone();
                            swapped.program_mut(dev).rotate_left(pc..pc + 2, 1);
                            schedules.push(swapped);
                        }
                    }
                    for s in &schedules {
                        let k = min_channel_capacity(s);
                        *answers.entry(k).or_default() += 1;
                        for c in 1..=3 {
                            assert_eq!(
                                simulate_makespan(s, &cost, c, &pristine).is_ok(),
                                k.is_some_and(|k| k <= c),
                                "{scheme:?} {d}x{n} at capacity {c}: derived {k:?}"
                            );
                        }
                    }
                }
            }
        }
        let wave = generate(ScheduleConfig::new(SchemeKind::Wave { chunks: 2 }, 8, 8));
        assert_eq!(min_channel_capacity(&wave), Some(2));
        for k in [Some(1), Some(2), None] {
            assert!(answers.contains_key(&k), "no schedule derives {k:?}: {answers:?}");
        }
    }

    #[test]
    fn search_stats_account_for_every_grid_point() {
        let cfg = small_cfg();
        let r = tune(&ModelConfig::gpt3_1_6b(), &GpuSpec::a100_40g(), &cfg).unwrap();
        let s = &r.stats;
        // Every generated point is either inadmissible or simulated...
        assert!(s.generated > 0);
        assert_eq!(s.generated, s.inadmissible + s.simulated);
        // ...and the simulated ones are exactly the curve.
        assert_eq!(s.simulated, r.curve.len() as u64);
        // Pruned counts match the failures recorded on the curve.
        let oom = r
            .curve
            .iter()
            .filter(|e| matches!(e.failure, Some(CandidateFailure::Oom { .. })))
            .count() as u64;
        let simfail = r
            .curve
            .iter()
            .filter(|e| {
                matches!(
                    e.failure,
                    Some(CandidateFailure::SimDeadlock(_) | CandidateFailure::SimMismatch(_))
                )
            })
            .count() as u64;
        assert_eq!(s.pruned_oom, oom);
        assert_eq!(s.pruned_sim_failure, simfail);
        // No degraded profile, no emulator validation: one DP invocation
        // per simulated candidate and zero extra effort.
        assert_eq!(s.dp_invocations, s.simulated);
        assert_eq!(s.degraded_evals, 0);
        assert_eq!(s.emulator_runs, 0);

        // Degraded re-evaluation and emulator validation add their bounded
        // extra effort to the ledger.
        let cfg = TunerConfig {
            perturbation: Some(
                mario_ir::PerturbationProfile::identity()
                    .with_straggler(mario_ir::DeviceId(0), 4.0),
            ),
            validate_on_emulator: true,
            ..small_cfg()
        };
        let r = tune(&ModelConfig::gpt3_1_6b(), &GpuSpec::a100_40g(), &cfg).unwrap();
        let s = &r.stats;
        assert!(s.degraded_evals > 0 && s.degraded_evals <= MAX_DEGRADED_EVALS as u64);
        assert!(s.emulator_runs > 0 && s.emulator_runs <= MAX_VALIDATION_RUNS as u64);
        assert_eq!(s.dp_invocations, s.simulated + s.degraded_evals);
    }

    #[test]
    fn hard_faults_bin_by_faulty_device_with_group_dedup() {
        use mario_cluster::FaultKind;
        use mario_ir::DeviceId;
        let crash0 = FaultKind::Crash {
            device: DeviceId(0),
            pc: 0,
        };
        let crash2 = FaultKind::Crash {
            device: DeviceId(2),
            pc: 1,
        };
        let slow1 = FaultKind::Slowdown {
            device: DeviceId(1),
            factor: 2.0,
            from_pc: 0,
            until_pc: 4,
        };
        let mut h = FaultHistory::default();
        // Absorbable faults never count.
        h.record([fault_report(slow1, None)], 8);
        assert!(h.hard_faults_by_device().is_empty());
        // Independent hard faults bin by the faulty component's device —
        // two on device 0, one on device 2.
        h.record(
            [
                fault_report(crash0, None),
                fault_report(crash0, None),
                fault_report(crash2, None),
            ],
            8,
        );
        assert_eq!(
            h.hard_faults_by_device(),
            vec![(DeviceId(0), 2), (DeviceId(2), 1)]
        );
        // A correlated burst is one event, attributed to its first
        // report's site — device 2 gains one, the grouped crash on
        // device 0 adds nothing more.
        h.record(
            [
                fault_report(crash2, Some("rack-1")),
                fault_report(crash0, Some("rack-1")),
            ],
            8,
        );
        assert_eq!(
            h.hard_faults_by_device(),
            vec![(DeviceId(0), 2), (DeviceId(2), 2)]
        );
        // The total matches the rate-fit's event count.
        let events: u64 = h.hard_faults_by_device().iter().map(|(_, n)| n).sum();
        assert_eq!(h.fitted_rate(), Some(events as f64 / 24.0));
    }

    #[test]
    fn degraded_reevaluation_is_off_by_default() {
        let r = tune(
            &ModelConfig::gpt3_1_6b(),
            &GpuSpec::a100_40g(),
            &small_cfg(),
        )
        .unwrap();
        assert!(r.curve.iter().all(|e| e.degraded_iter_ns.is_none()));
        assert_eq!(r.best.degraded_slowdown(), None);
    }

    #[test]
    fn scoped_rate_isolates_the_lemon_device() {
        use mario_cluster::FaultKind;
        use mario_ir::DeviceId;
        let crash = |d: u32| FaultKind::Crash {
            device: DeviceId(d),
            pc: 0,
        };
        // A shared history: device 0 is a lemon (three crashes), device 2
        // crashed once, the rest never failed.
        let mut h = FaultHistory::default();
        h.record(
            [
                fault_report(crash(0), None),
                fault_report(crash(0), None),
                fault_report(crash(0), None),
                fault_report(crash(2), None),
            ],
            64,
        );
        // The scoped rates partition the global one.
        assert_eq!(h.fitted_rate(), Some(4.0 / 64.0));
        assert_eq!(h.fitted_rate_on(&[DeviceId(0)]), Some(3.0 / 64.0));
        assert_eq!(h.fitted_rate_on(&[DeviceId(2)]), Some(1.0 / 64.0));
        // A placement avoiding every observed lemon fits NO rate — the
        // caller falls back to its prior, not the lemons' λ.
        assert_eq!(h.fitted_rate_on(&[DeviceId(1), DeviceId(3)]), None);
        // Correlated-group attribution: the group is consumed at its
        // first report's site (device 0), so scoping to device 2 does not
        // count the burst even though a later member sits there.
        let mut g = FaultHistory::default();
        g.record(
            [
                fault_report(crash(0), Some("rack-0")),
                fault_report(crash(2), Some("rack-0")),
            ],
            64,
        );
        assert_eq!(g.fitted_rate_on(&[DeviceId(0)]), Some(1.0 / 64.0));
        assert_eq!(g.fitted_rate_on(&[DeviceId(2)]), None);
        // Excluding the lemon from the placement stretches the tuned
        // interval: calmer devices, sparser checkpoints.
        let mut tuning = CheckpointTuning {
            plan: FaultPlan::none().with(crash(0)),
            total_iters: 64,
            write_ns: 5_000,
            mem_overhead: 0,
            history: Some(h),
            devices: Some(vec![DeviceId(0), DeviceId(1)]),
        };
        let with_lemon = tune_checkpoint_interval(10_000, &tuning).unwrap();
        tuning.devices = Some(vec![DeviceId(2), DeviceId(3)]);
        let without = tune_checkpoint_interval(10_000, &tuning).unwrap();
        assert_eq!(
            with_lemon.interval_iters,
            daly_interval(10_000, 5_000, 3.0 / 64.0, 64).unwrap()
        );
        assert_eq!(
            without.interval_iters,
            daly_interval(10_000, 5_000, 1.0 / 64.0, 64).unwrap()
        );
        assert!(without.interval_iters > with_lemon.interval_iters);
    }

    #[test]
    fn tune_prices_both_recovery_policies() {
        use mario_ir::DeviceId;
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        // No scenario configured: no verdict.
        let r = tune(&model, &gpu, &small_cfg()).unwrap();
        assert!(r.recovery.is_none());
        let scenario = |replacement_wait_ns: u64, remaining_iters: u32| TunerConfig {
            recovery: Some(RecoveryTuning {
                lost_devices: vec![DeviceId(1)],
                remaining_iters,
                replacement_wait_ns,
                state_bytes_per_layer: 1 << 20,
                fetch_bytes_per_us: 1 << 10,
            }),
            ..small_cfg()
        };
        // A near-instant replacement with a long tail: waiting wins.
        let r = tune(&model, &gpu, &scenario(1, 10_000)).unwrap();
        let wait = r.recovery.expect("verdict for a configured scenario");
        assert_eq!(wait.policy, RecoveryPolicy::WaitAndResume);
        assert!(wait.wait_total_ns <= wait.shrink_total_ns);
        assert!(wait.shrunk_devices < r.best.candidate.pp);
        assert!(wait.shrunk_iter_ns >= r.best.iter_ns);
        assert!(wait.reconfig_ns > 0);
        // A week-long replacement queue with a short tail: shrinking wins,
        // and the crossover horizon separates the two regimes.
        let r = tune(&model, &gpu, &scenario(u64::MAX / 4, 1)).unwrap();
        let shrink = r.recovery.expect("verdict");
        assert_eq!(shrink.policy, RecoveryPolicy::ShrinkAndContinue);
        assert!(shrink.shrink_total_ns <= shrink.wait_total_ns);
        if let Some(r_star) = shrink.crossover_remaining {
            assert!(r_star as u128 > 1);
        }
    }

    #[test]
    fn bound_pruning_preserves_the_winner_and_prunes_something() {
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        let base = tune(&model, &gpu, &small_cfg()).unwrap();
        let pruned_cfg = TunerConfig {
            bound_prune: true,
            ..small_cfg()
        };
        let pruned = tune(&model, &gpu, &pruned_cfg).unwrap();
        // Same winner, same winning throughput: the busy floor is
        // admissible, so pruning never discards a candidate that could
        // have beaten the incumbent.
        assert_eq!(pruned.best.candidate, base.best.candidate);
        assert_eq!(pruned.best.iter_ns, base.best.iter_ns);
        // The curve still names every grid point, pruned ones included.
        assert_eq!(pruned.curve.len(), base.curve.len());
        // On this grid, the bound actually fires and saves simulations.
        assert!(pruned.stats.pruned_bound > 0, "{:?}", pruned.stats);
        assert_eq!(
            pruned.stats.simulated + pruned.stats.pruned_bound,
            base.stats.simulated
        );
        let marked = pruned
            .curve
            .iter()
            .filter(|e| matches!(e.failure, Some(CandidateFailure::BoundPruned { .. })))
            .count() as u64;
        assert_eq!(marked, pruned.stats.pruned_bound);
        // Every recorded bound is honest: no pruned candidate's floor
        // beats the fault-free winner's measured time per throughput.
        for e in &pruned.curve {
            if let Some(CandidateFailure::BoundPruned { bound_ns }) = e.failure {
                assert!(throughput_of(&pruned_cfg, &e.candidate, bound_ns)
                    <= pruned.best.throughput);
            }
        }
    }

    #[test]
    fn busy_floor_is_admissible_on_every_simulated_point() {
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        let cfg = small_cfg();
        let r = tune(&model, &gpu, &cfg).unwrap();
        for e in r.curve.iter().filter(|e| e.feasible()) {
            let micros = admissible(&model, &e.candidate, cfg.gbs).unwrap();
            let floor = busy_floor(&model, &gpu, &e.candidate, micros);
            assert!(
                floor <= e.iter_ns,
                "{}: floor {floor} exceeds simulated {}",
                e.candidate,
                e.iter_ns
            );
        }
    }

    #[test]
    fn explain_reconciles_with_the_measured_iteration_time() {
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        let cfg = small_cfg();
        let r = tune(&model, &gpu, &cfg).unwrap();
        let report = r.explain_best(&model, &gpu, &cfg).expect("winner explains");
        assert_eq!(report.makespan, r.best.iter_ns);
        assert_eq!(report.breakdown.total(), r.best.iter_ns);
        // The winner's time is fully attributed; a training schedule has
        // no exogenous bubble on its path.
        assert_eq!(report.breakdown.bubble_ns, 0);
        assert!(report.breakdown.compute_ns > 0);
    }

    /// Every worker count gives the serial walk's answer, down to the
    /// failure strings and the stats: on the tune-32 grid (GPT3-13B on 32
    /// A100-40G), whose Chimera points at 32×64 and 32×128 fall back from
    /// the untuned twin's sweep to the capacity derivation, and on a
    /// small grid that also re-ranks under a straggler and validates on
    /// the emulator.
    #[test]
    fn worker_counts_agree() {
        let model = ModelConfig::gpt3_13b();
        let gpu = GpuSpec::a100_40g();
        let tune_32 = TunerConfig {
            mbs_options: vec![1, 2, 4, 8, 16, 32],
            prepose: false,
            ..TunerConfig::new(32, 128, 40 * (1 << 30))
        };
        for micros in [64, 128] {
            let chimera = generate(ScheduleConfig::new(SchemeKind::Chimera, 32, micros));
            assert_eq!(min_channel_capacity(&chimera), Some(2), "Chimera 32x{micros}");
        }
        let degraded = TunerConfig {
            perturbation: Some(
                PerturbationProfile::identity().with_straggler(DeviceId(0), 4.0),
            ),
            validate_on_emulator: true,
            ..small_cfg()
        };
        for (model, cfg) in [(&model, &tune_32), (&ModelConfig::gpt3_1_6b(), &degraded)] {
            let answers: Vec<String> = [1, 2, 4]
                .into_iter()
                .map(|workers| {
                    let r = tune_on(model, &gpu, cfg, workers).unwrap();
                    format!("{:?} {:?} {:?} {:?}", r.curve, r.best, r.rejected, r.stats)
                })
                .collect();
            assert_eq!(answers[0], answers[1]);
            assert_eq!(answers[0], answers[2]);
        }
    }

    /// The heap gate never lets the running weights sum past the heaviest
    /// item's, runs every item exactly once, returns the results in input
    /// order, finishes on an all-zero-weight list, and passes a panic on
    /// instead of leaving the other workers waiting.
    #[test]
    fn the_heap_gate_holds() {
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
        let lists: [&[u64]; 3] = [
            &[3, 8, 1, 4, 0, 2, 4, 1, 0, 7, 2, 1],
            &[5, 5, 5, 5],
            &[0; 6],
        ];
        for weights in lists {
            let heaviest = weights.iter().copied().max().unwrap();
            for workers in [1, 2, 4] {
                let running = AtomicU64::new(0);
                let peak = AtomicU64::new(0);
                let runs: Vec<AtomicUsize> = weights.iter().map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..weights.len()).collect();
                let out = gated_map(
                    &items,
                    workers,
                    |&i| weights[i],
                    |&i| {
                        // Counted after admission and released before the
                        // gate's own release, so never above its running sum.
                        let now = running.fetch_add(weights[i], SeqCst) + weights[i];
                        peak.fetch_max(now, SeqCst);
                        runs[i].fetch_add(1, SeqCst);
                        thread::sleep(Duration::from_millis(2));
                        running.fetch_sub(weights[i], SeqCst);
                        i * 10
                    },
                );
                assert!(peak.load(SeqCst) <= heaviest, "{weights:?} on {workers}");
                assert!(runs.iter().all(|n| n.load(SeqCst) == 1), "{weights:?}");
                assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
            }
        }
        let panicked = std::panic::catch_unwind(|| {
            gated_map(&[1u64, 2, 3, 4], 2, |&w| w, |&w| assert_ne!(w, 3, "item panics"))
        });
        assert!(panicked.is_err());
    }
}
