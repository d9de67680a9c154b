//! The dynamic-programming timeline simulator (paper §5.2).
//!
//! Instead of hand-identifying critical paths, the simulator infers the
//! earliest start time of every instruction from its dependencies:
//! *horizontal* (in-order execution within a device's instruction list) and
//! *vertical* (p2p messages between devices, per Algorithm 1's virtual
//! pipeline). Semantics deliberately match the cluster emulator
//! (mario-cluster) instruction for instruction. Both share the bounded
//! per-class FIFO channels (the `mario_ir::link` rule: one [`Fifo`] per
//! channel, the same one the event backend uses) and advance every
//! device's time through one [`DeviceClock`], the emulator machine's
//! clock rule: launch overheads, the serving gate, ack-window and recv
//! waits, checkpoint chunk drain and residue, the time classes and the
//! packet numbering. This module keeps only its step loop — a [`Sweep`]
//! that runs each device from a ready queue until it blocks, over
//! channels numbered by one [`LinkTable`] — and its recorders, so with
//! zero jitter the two produce identical timelines, and the
//! simulator-accuracy experiment (Fig. 10) isolates genuine modeling
//! error (profiling regression, jitter).
//!
//! [`simulate`] takes every knob in one [`SimOptions`]. Its `profile`
//! extends the alignment to *degraded* clusters: a [`PerturbationProfile`]
//! (stragglers, slow links) scales every instruction's duration and every
//! packet's departure time exactly as the emulator's fault layer enforces
//! the corresponding absorbable fault plan, so a zero-jitter faulted run
//! and a degraded simulation still agree bit for bit — the property that
//! lets the tuner predict a straggler's impact without paying an emulator
//! run.

use mario_ir::{
    AllocKey, CheckpointPolicy, CostModel, DeviceClock, DeviceId, DeviceTelemetry, Dir, Fifo,
    Instr, InstrKind, LinkSendStats, LinkTable, MemLedger, MemoryRules, Msg, Nanos, OpSpan,
    PerturbationProfile, Ready, Schedule, SpanGraph, Telemetry,
};
use serde::{Deserialize, Serialize};

/// The simulated timeline of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimTimeline {
    /// Final clock per device.
    pub device_clocks: Vec<Nanos>,
    /// Iteration makespan (max device clock).
    pub total_ns: Nanos,
    /// Virtual time spent writing model-state checkpoints, summed across
    /// devices, ns (0 unless [`SimOptions::checkpoint`] was set). With
    /// async overlap only the residue the bubbles could not hide is
    /// counted — the emulator's `RunReport::ckpt_overhead_ns` semantics,
    /// bit for bit.
    #[serde(default)]
    pub ckpt_overhead_ns: Nanos,
    /// Iterations covered by the last cluster-durable checkpoint (None
    /// when no policy was active) — the emulator's
    /// `RunReport::last_checkpoint` semantics.
    #[serde(default)]
    pub last_checkpoint: Option<u32>,
    /// The simulated flight-recorder output: per-device time-class
    /// breakdowns (conserving each device clock exactly) and per-link
    /// transfer statistics, bit-identical to a zero-jitter emulator run's
    /// `RunReport::telemetry`.
    #[serde(default)]
    pub telemetry: Telemetry,
    /// The executed span graph: one [`OpSpan`] per instruction occurrence
    /// plus checkpoint writes, each device's spans in program order. It is
    /// the simulator's only per-occurrence record — the input to
    /// `mario_core::critpath::analyze`, the Gantt charts and the Chrome
    /// traces — and bit-identical to a zero-jitter emulator run captured
    /// with `record_spans`.
    #[serde(default)]
    pub spans: SpanGraph,
    /// Per-micro completion times of a serving run (the earliest
    /// last-stage forward finish, None if it never ran); empty unless
    /// [`SimOptions::release`] was set.
    #[serde(default)]
    pub completions: Vec<Option<Nanos>>,
}

impl SimTimeline {
    /// Training throughput in samples/s for `samples` per iteration.
    pub fn throughput(&self, samples: u64) -> f64 {
        samples as f64 / (self.total_ns as f64 / 1e9)
    }

    /// Total idle ("bubble") time summed over devices: device lifetime not
    /// spent in compute, Σ_d (clock_d − compute_d). Communication waits
    /// and serving ingress waits count as bubble — they are exactly the
    /// idle slots Mario hides recomputation in.
    pub fn bubble_ns(&self) -> Nanos {
        self.device_clocks
            .iter()
            .zip(&self.telemetry.devices)
            .map(|(&c, t)| c.saturating_sub(t.classes.compute_ns))
            .sum()
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// The schedule deadlocks under the given channel capacity.
    Deadlock(String),
    /// A receive saw a mismatched message.
    Mismatch(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(s) => write!(f, "simulated deadlock: {s}"),
            SimError::Mismatch(s) => write!(f, "simulated comm mismatch: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// What [`simulate`] runs. The default is one iteration of a pristine
/// cluster at channel capacity 1, with no checkpoints, startup offsets or
/// serving gate.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions<'a> {
    /// p2p buffer depth per (pair, class, part) channel.
    pub channel_capacity: usize,
    /// The cluster's degradation: compute instructions on straggling
    /// devices are scaled by their slowdown windows (indexed by
    /// instruction pc, like the emulator's `Slowdown` faults) and
    /// perturbed packets depart late by the link's extra latency while
    /// the sender's clock is unaffected (the emulator's `LinkDelay`
    /// semantics).
    pub profile: &'a PerturbationProfile,
    /// Back-to-back training iterations, mirroring the emulator's
    /// multi-iteration runs: device clocks and channel state persist
    /// across the iteration boundary (the next iteration's warmup
    /// overlaps the previous flush, exactly as the threaded devices do),
    /// while per-pair packet numbering and the profile's iteration-scoped
    /// windows reset each iteration.
    pub iterations: u32,
    /// A model-state checkpointing policy: each device pays its write at
    /// every interval boundary exactly as the cluster emulator charges it
    /// — synchronously for flat/sharded-sync policies, or chunk-by-chunk
    /// into the next iteration's recv bubbles when the policy asks for
    /// async overlap (any residue is charged at the following boundary,
    /// or at end of run).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Per-device startup offsets: device `d`'s clock begins at
    /// `startup[d]` (0 when the slice is short), and the offset is
    /// recorded in the `reconfig_ns` telemetry class so Σ classes ==
    /// device clock still holds. This models the one-time
    /// state-redistribution cost of an elastic reconfiguration, mirroring
    /// the emulator's startup offsets bit for bit.
    pub startup: &'a [Nanos],
    /// Serving mode's ingress release schedule: a first-stage `Forward`
    /// for micro-batch `m` may not start before `release[m]` (0 when the
    /// slice is short). The wait is recv-blocked idle time exactly like a
    /// link wait (async checkpoint chunks drain into it), and each
    /// micro-batch's completion is recorded in
    /// [`SimTimeline::completions`] — bit-identical to a zero-jitter
    /// emulator serving run on both backends.
    pub release: Option<&'a [Nanos]>,
}

/// The profile of a pristine cluster.
static PRISTINE: PerturbationProfile = PerturbationProfile {
    slowdowns: Vec::new(),
    link_slack: Vec::new(),
};

impl Default for SimOptions<'_> {
    fn default() -> Self {
        Self {
            channel_capacity: 1,
            profile: &PRISTINE,
            iterations: 1,
            checkpoint: None,
            startup: &[],
            release: None,
        }
    }
}

/// Simulates one iteration of `schedule` under `cost` with per-class FIFO
/// channels of `channel_capacity`, assuming a pristine cluster.
pub fn simulate_timeline(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
) -> Result<SimTimeline, SimError> {
    simulate(
        schedule,
        cost,
        &SimOptions {
            channel_capacity,
            ..SimOptions::default()
        },
    )
}

/// Simulates `schedule` under `cost` as `opts` describes, recording the
/// whole [`SimTimeline`].
pub fn simulate(
    schedule: &Schedule,
    cost: &dyn CostModel,
    opts: &SimOptions,
) -> Result<SimTimeline, SimError> {
    let links = LinkTable::new(schedule);
    let full = Full::new(schedule, cost, opts, links.len());
    Sweep::new(schedule, cost, opts, &links, full).run_to_end(schedule)
}

/// [`simulate`] in a seeded random firing order, for the tests that hold
/// it to the same answers.
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub fn simulate_shuffled(
    schedule: &Schedule,
    cost: &dyn CostModel,
    opts: &SimOptions,
    seed: u64,
) -> Result<SimTimeline, SimError> {
    let links = LinkTable::new(schedule);
    let full = Full::new(schedule, cost, opts, links.len());
    let mut sweep = Sweep::new(schedule, cost, opts, &links, full);
    sweep.ready = Ready::shuffled(schedule.devices() as usize, seed);
    sweep.run_to_end(schedule)
}

/// The makespan of one iteration of `schedule` on the cluster `profile`
/// describes — exactly [`simulate`]'s `total_ns`, or its identical
/// [`SimError`] — without recording spans, telemetry or memory. For
/// callers that read nothing else: prepose trials, tuner evaluation, the
/// degraded re-rank and the elastic re-simulation.
pub(crate) fn simulate_makespan(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
) -> Result<Nanos, SimError> {
    let links = LinkTable::new(schedule);
    MakespanSweep::makespan(schedule, cost, channel_capacity, profile, &links).run_to_end(schedule)
}

/// What a [`Sweep`] records while it steps. The step arithmetic — FIFO
/// channels and acks, profile scaling, the serving gate — exists once, in
/// [`Sweep::run`], and every clock advance goes through the
/// devices' [`DeviceClock`]s; a recorder only observes the results, so
/// every recorder sees the same timeline. Every hook defaults to
/// recording nothing.
pub(crate) trait Recorder {
    /// What a finished run returns.
    type Output;

    /// A compute step ending at `end`.
    fn compute(&mut self, _dev: DeviceId, _instr: &Instr, _end: Nanos) {}

    /// A send on link `link` that waited `blocked` ns for window
    /// capacity, after which `outstanding` messages are in flight on it.
    fn send(
        &mut self,
        _dev: DeviceId,
        _instr: &Instr,
        _link: usize,
        _blocked: Nanos,
        _outstanding: usize,
    ) {
    }

    /// A receive on link `link` that waited `gap` ns for its message.
    fn recv(&mut self, _link: usize, _gap: Nanos) {}

    /// An instruction or checkpoint write completed over `span`.
    fn fired(&mut self, _span: OpSpan) {}

    /// A checkpoint's transient serialization buffer of `bytes`.
    fn snapshot(&mut self, _dev: DeviceId, _bytes: u64) {}

    /// The run over `links` completed with these final device clocks;
    /// hands over what was recorded.
    fn finish(&mut self, clocks: &[DeviceClock], links: &LinkTable) -> Self::Output;
}

/// Records nothing; a run returns its makespan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MakespanOnly;

impl Recorder for MakespanOnly {
    type Output = Nanos;

    fn finish(&mut self, clocks: &[DeviceClock], _: &LinkTable) -> Nanos {
        clocks.iter().map(DeviceClock::now).max().unwrap_or(0)
    }
}

/// Records the whole [`SimTimeline`]: spans, the flight recorder —
/// a memory ledger per device replaying the emulator's exact `apply`
/// sequence (compute and send sites only), transfer statistics per link
/// number — and serving completions. The time classes come from the
/// clocks.
struct Full<'a> {
    schedule: &'a Schedule,
    cost: &'a dyn CostModel,
    rules: MemoryRules,
    spans: SpanGraph,
    ledgers: Vec<MemLedger>,
    link_sends: Vec<LinkSendStats>,
    recv_waits: Vec<Nanos>,
    /// Per-micro completion board (serving mode only): earliest
    /// last-stage forward finish — the emulator's `ServeBoard::record`
    /// (fetch_min).
    completions: Vec<Option<Nanos>>,
    serving: bool,
    checkpointing: bool,
}

impl<'a> Full<'a> {
    fn new(
        schedule: &'a Schedule,
        cost: &'a dyn CostModel,
        opts: &SimOptions,
        links: usize,
    ) -> Self {
        let devices = schedule.devices() as usize;
        let serving = opts.release.is_some();
        Self {
            schedule,
            cost,
            rules: MemoryRules::new(schedule),
            spans: SpanGraph::new(devices, opts.channel_capacity),
            ledgers: (0..devices)
                .map(|d| MemLedger::new(cost.static_mem(DeviceId(d as u32)), None))
                .collect(),
            link_sends: vec![LinkSendStats::default(); links],
            recv_waits: vec![0; links],
            completions: if serving {
                vec![None; schedule.micros as usize]
            } else {
                Vec::new()
            },
            serving,
            checkpointing: opts.checkpoint.is_some(),
        }
    }

    fn apply_mem(&mut self, dev: DeviceId, instr: &Instr) {
        self.rules
            .apply(&mut self.ledgers[dev.index()], self.cost, dev, instr)
            .expect("unchecked ledger never rejects an allocation");
    }
}

impl Recorder for Full<'_> {
    type Output = SimTimeline;

    fn compute(&mut self, dev: DeviceId, instr: &Instr, end: Nanos) {
        self.apply_mem(dev, instr);
        // Serving egress: a last-stage forward completes its micro-batch.
        if self.serving
            && matches!(instr.kind, InstrKind::Forward { .. })
            && self.schedule.topology.is_last_stage(dev, instr.part)
        {
            let slot = &mut self.completions[instr.micro.index()];
            *slot = Some(slot.map_or(end, |v| v.min(end)));
        }
    }

    fn send(
        &mut self,
        dev: DeviceId,
        instr: &Instr,
        link: usize,
        blocked: Nanos,
        outstanding: usize,
    ) {
        // Bytes are counted at the send site with the sender's id — the
        // emulator's exact accounting.
        self.link_sends[link].on_send(
            self.cost.boundary_bytes(dev, instr.part),
            blocked,
            outstanding as u32,
        );
        self.apply_mem(dev, instr);
    }

    fn recv(&mut self, link: usize, gap: Nanos) {
        self.recv_waits[link] += gap;
    }

    fn fired(&mut self, span: OpSpan) {
        self.spans.push(span);
    }

    fn snapshot(&mut self, dev: DeviceId, bytes: u64) {
        // The serialization buffer counts against the peak exactly as the
        // emulator holds it (the unchecked ledger cannot OOM — capacity
        // enforcement is the emulator's job).
        let ledger = &mut self.ledgers[dev.index()];
        ledger
            .alloc(AllocKey::Snapshot, bytes)
            .expect("unchecked ledger never rejects the snapshot buffer");
        ledger.free(AllocKey::Snapshot);
    }

    fn finish(&mut self, clocks: &[DeviceClock], links: &LinkTable) -> Self::Output {
        let mut spans = std::mem::take(&mut self.spans);
        let ledgers = std::mem::take(&mut self.ledgers);
        let completions = std::mem::take(&mut self.completions);
        let device_clocks: Vec<Nanos> = clocks.iter().map(DeviceClock::now).collect();
        let total_ns = device_clocks.iter().copied().max().unwrap_or(0);
        spans.makespan = total_ns;
        debug_assert!(
            spans.check_tiling(&device_clocks).is_ok(),
            "span tiling violated on {:?}",
            spans.check_tiling(&device_clocks)
        );
        let last_checkpoint = self.checkpointing.then(|| {
            let saved = clocks.iter().map(DeviceClock::last_checkpoint);
            saved.min().unwrap_or(0)
        });
        let tel = clocks
            .iter()
            .zip(&ledgers)
            .map(|(c, ledger)| DeviceTelemetry {
                classes: *c.classes(),
                peak_mem: ledger.peak(),
                ..DeviceTelemetry::new(c.device())
            })
            .collect();
        // Assemble through the shared constructor (same as the emulator's
        // runner), which sums the links of each device pair, and assert
        // the conservation invariant: every nanosecond of every device
        // clock is accounted to exactly one time class.
        let pair = |id| (links.key(id).0, links.key(id).1);
        let telemetry = Telemetry::assemble(
            tel,
            (0..links.len()).map(|id| (pair(id), self.link_sends[id])),
            (0..links.len()).map(|id| (pair(id), self.recv_waits[id])),
        );
        debug_assert!(
            telemetry.check_conservation(&device_clocks).is_ok(),
            "telemetry conservation violated: {:?}",
            telemetry.check_conservation(&device_clocks)
        );
        SimTimeline {
            device_clocks,
            total_ns,
            ckpt_overhead_ns: telemetry.total_ckpt_sync_ns(),
            last_checkpoint,
            telemetry,
            spans,
            completions,
        }
    }
}

/// The end-of-iteration-`iter` checkpoint boundary on `clock`'s device
/// when `policy` puts one there, including the transient serialization
/// buffer the write holds at its peak.
fn boundary<R: Recorder>(
    clock: &mut DeviceClock,
    policy: Option<&CheckpointPolicy>,
    iter: u32,
    cost: &dyn CostModel,
    rec: &mut R,
) {
    let Some(policy) = policy.filter(|p| p.is_boundary(iter)) else {
        return;
    };
    let dev = clock.device();
    let start = clock.flush_residue();
    rec.snapshot(dev, policy.mem_overhead);
    rec.fired(clock.write_checkpoint(start, policy, cost.ckpt_shard_bytes(dev), iter));
}

/// Where [`Sweep::run`] stopped.
#[derive(Debug)]
pub(crate) enum Run<T> {
    /// The sweep reached its stop point and can be resumed or cloned.
    Paused,
    /// The sweep completed; what its recorder recorded.
    Done(T),
}

/// The DP step loop and everything it carries between steps: each device
/// runs from a [`Ready`] queue until it blocks on a link — a send on a
/// full window, a receive on an empty channel or on the wrong message —
/// and every p2p operation wakes its peer if the peer waits on that link.
/// The queue drains when every program has run or no device can move;
/// the answer is read from that state, which is the same in any firing
/// order (see [`mario_ir::ready`]), so the lowest device that met a
/// mismatch is reported, else the deadlock. Generic over what it
/// records: [`Full`] behind [`simulate`], [`MakespanOnly`] behind
/// [`simulate_makespan`] and the prepose trials.
///
/// A sweep can stop before any instruction and go on later, and a paused
/// sweep can be cloned, so a caller can run many continuations of one
/// shared prefix; see [`Sweep::run`].
pub(crate) struct Sweep<'a, R> {
    cost: &'a dyn CostModel,
    opts: SimOptions<'a>,
    /// The schedule's links, which number `chans`.
    links: &'a LinkTable,
    /// Global instruction cursor per device: local pc = gpc % len,
    /// iteration = gpc / len.
    gpc: Vec<usize>,
    clocks: Vec<DeviceClock>,
    /// In-flight messages with their departure times, per link.
    chans: Vec<Fifo<(Msg, Nanos)>>,
    /// The devices that may move; the front one is running.
    ready: Ready,
    rec: R,
}

/// A makespan-only sweep: the prepose trials' state.
pub(crate) type MakespanSweep<'a> = Sweep<'a, MakespanOnly>;

/// Field by field, so that `clone_from` reuses the destination's buffers:
/// a prepose trial is a clone of its paused baseline.
impl<R: Clone> Clone for Sweep<'_, R> {
    fn clone(&self) -> Self {
        Self {
            cost: self.cost,
            opts: self.opts,
            links: self.links,
            gpc: self.gpc.clone(),
            clocks: self.clocks.clone(),
            chans: self.chans.clone(),
            ready: self.ready.clone(),
            rec: self.rec.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cost = source.cost;
        self.opts = source.opts;
        self.links = source.links;
        self.gpc.clone_from(&source.gpc);
        self.clocks.clone_from(&source.clocks);
        self.chans.clone_from(&source.chans);
        self.ready.clone_from(&source.ready);
        self.rec.clone_from(&source.rec);
    }
}

impl<'a> MakespanSweep<'a> {
    /// A makespan-only sweep, at time zero, of one iteration at
    /// `channel_capacity` on the cluster `profile` describes, over the
    /// schedule's `links`.
    pub(crate) fn makespan(
        schedule: &Schedule,
        cost: &'a dyn CostModel,
        channel_capacity: usize,
        profile: &'a PerturbationProfile,
        links: &'a LinkTable,
    ) -> Self {
        let opts = SimOptions {
            channel_capacity,
            profile,
            ..SimOptions::default()
        };
        Sweep::new(schedule, cost, &opts, links, MakespanOnly)
    }
}

impl<'a, R: Recorder> Sweep<'a, R> {
    /// A sweep of `schedule` under `cost` and `opts` at time zero, over
    /// the schedule's `links`, recording into `rec`.
    fn new(
        schedule: &Schedule,
        cost: &'a dyn CostModel,
        opts: &SimOptions<'a>,
        links: &'a LinkTable,
        mut rec: R,
    ) -> Self {
        assert!(opts.channel_capacity >= 1);
        assert!(opts.iterations >= 1);
        let devices = schedule.devices() as usize;
        let mut clocks: Vec<DeviceClock> = (0..devices)
            .map(|d| {
                let startup = opts.startup.get(d).copied().unwrap_or(0);
                DeviceClock::new(DeviceId(d as u32), startup)
            })
            .collect();
        // The emulator runs the checkpoint boundary every iteration even
        // for a device with an empty program; the step loop skips such
        // devices, so process their boundaries (which never block) up
        // front.
        for clock in &mut clocks {
            if schedule.program(clock.device()).is_empty() {
                for it in 0..opts.iterations {
                    boundary(clock, opts.checkpoint.as_ref(), it, cost, &mut rec);
                }
            }
        }
        Self {
            cost,
            opts: *opts,
            links,
            gpc: vec![0; devices],
            clocks,
            chans: vec![Fifo::default(); links.len()],
            ready: Ready::fifo(devices),
            rec,
        }
    }

    /// [`Sweep::run`] with no stop point.
    pub(crate) fn run_to_end(&mut self, schedule: &Schedule) -> Result<R::Output, SimError> {
        match self.run(schedule, None)? {
            Run::Done(out) => Ok(out),
            Run::Paused => unreachable!("a sweep without a stop point never pauses"),
        }
    }

    /// Steps the sweep over `schedule` until it completes, fails, or —
    /// given `stop = Some((d, p))` — device `d` is about to read global
    /// pc `p`; a sweep already there pauses at once. A sweep paused in
    /// its first iteration has read nothing of `d`'s program from `p` on,
    /// so it may be resumed (or cloned and resumed) over a schedule that
    /// differs from the one it ran on only in `d`'s instructions at `p`
    /// and after, program length and send ports kept, and ends exactly as
    /// a sweep of that schedule from time zero would. `schedule` must
    /// otherwise be the one the sweep was built for. A sweep that failed
    /// fails the same way when run again; one that completed must not run
    /// again.
    pub(crate) fn run(
        &mut self,
        schedule: &Schedule,
        stop: Option<(DeviceId, usize)>,
    ) -> Result<Run<R::Output>, SimError> {
        let cost = self.cost;
        let SimOptions {
            channel_capacity,
            profile,
            iterations,
            checkpoint,
            release,
            ..
        } = self.opts;
        // The hot loop works on locals rather than through `self`
        // (measured: about 3% of tune-32 otherwise).
        let (links, gpc, clocks) = (self.links, &mut self.gpc[..], &mut self.clocks[..]);
        let (chans, ready, rec) = (&mut self.chans[..], &mut self.ready, &mut self.rec);
        let policy = checkpoint.as_ref();
        let (stop_dev, stop_pc) = stop.map_or((usize::MAX, 0), |(d, p)| (d.index(), p));
        while let Some(d) = ready.front() {
            let dev = DeviceId(d as u32);
            let prog = schedule.program(dev).instrs();
            let len = prog.len();
            let end = len * iterations as usize;
            let clock = &mut clocks[d];
            let gpc = &mut gpc[d];
            loop {
                if *gpc >= end {
                    ready.block(None);
                    break;
                }
                if d == stop_dev && *gpc == stop_pc {
                    return Ok(Run::Paused);
                }
                let lpc = *gpc % len;
                let iter = (*gpc / len) as u32;
                let instr = prog[lpc];
                let start = clock.now();
                // Span-capture fields for this firing, filled in by the arms.
                let (mut sp_sent, mut sp_wire, mut sp_gate) = (0, 0, 0);
                let work_ns = match instr.kind.p2p() {
                    None => {
                        // Serving ingress gate: a first-stage forward may
                        // not start before its micro-batch was released —
                        // the emulator's gate, bit for bit.
                        if let Some(release) = release {
                            if matches!(instr.kind, InstrKind::Forward { .. })
                                && schedule.topology.is_first_stage(dev, instr.part)
                            {
                                sp_gate = release.get(instr.micro.index()).copied().unwrap_or(0);
                                clock.wait_until(sp_gate, Dir::Recv);
                            }
                        }
                        let dur = match instr.kind {
                            InstrKind::AllReduce => cost.allreduce_time(dev),
                            InstrKind::OptimizerStep => cost.optimizer_time(dev),
                            _ => profile.scaled_compute(dev, iter, lpc, cost.duration(dev, &instr)),
                        };
                        clock.busy(instr.kind, dur);
                        if instr.kind.is_compute() {
                            rec.compute(dev, &instr, clock.now());
                        }
                        dur
                    }
                    Some(p) => {
                        // A port with no link never moves.
                        let Some(link) = links.resolve(dev, p.dir, p.port(instr.part)) else {
                            ready.block(None);
                            break;
                        };
                        let ch = &mut chans[link.id];
                        let launch = cost.p2p_launch_overhead();
                        if p.dir == Dir::Send {
                            // On a full window the send completes once the
                            // receiver dequeued the oldest in-flight
                            // message; that time is known only after the
                            // receiver fires, so wait for it.
                            let Some(freed) = ch.reserve(channel_capacity) else {
                                ready.block(Some(link.id));
                                break;
                            };
                            clock.launch(launch);
                            let blocked = clock.wait_until(freed, Dir::Send);
                            // A perturbed link delays the packet's departure
                            // while the sender's own clock is unaffected,
                            // exactly like the emulator's delayed send.
                            let nth = clock.next_packet(p.peer, iter);
                            let extra = profile.link_extra(dev, p.peer, iter, nth);
                            let outstanding = ch.push((p.msg(&instr), clock.now() + extra));
                            rec.send(dev, &instr, link.id, blocked, outstanding);
                        } else {
                            // The wrong message at the head blocks the
                            // receive for good; the mismatch is reported
                            // once no device can move.
                            let want = p.msg(&instr);
                            let Some(&(_, sent_at)) = ch.front().filter(|(msg, _)| *msg == want)
                            else {
                                ready.block(Some(link.id));
                                break;
                            };
                            ch.pop();
                            let bytes = cost.boundary_bytes(dev, instr.part);
                            (sp_sent, sp_wire) =
                                (sent_at, cost.p2p_time_between(p.peer, dev, bytes));
                            clock.launch(launch);
                            let gap = clock.wait_until(sent_at + sp_wire, Dir::Recv);
                            ch.ack(clock.now());
                            rec.recv(link.id, gap);
                        }
                        ready.wake(p.peer.index(), link.id);
                        launch
                    }
                };
                rec.fired(OpSpan {
                    device: dev,
                    iter,
                    pc: lpc as u32,
                    start,
                    end: clock.now(),
                    work_ns,
                    sent_at: sp_sent,
                    wire_ns: sp_wire,
                    gate_ns: sp_gate,
                });
                *gpc += 1;
                // Completing the program's last instruction is the
                // emulator's end-of-iteration checkpoint boundary.
                if gpc.is_multiple_of(len) {
                    boundary(clock, policy, iter, cost, rec);
                }
                if ready.preempt() {
                    break;
                }
            }
        }
        if let Some(err) = self.stuck(schedule) {
            return Err(err);
        }

        // No bubbles remain past the last instruction: pay any async
        // residue synchronously so the final checkpoint is durable when
        // the run ends.
        for clock in &mut self.clocks {
            if let Some(span) = clock.end_run(iterations - 1) {
                self.rec.fired(span);
            }
        }
        Ok(Run::Done(self.rec.finish(&self.clocks, self.links)))
    }

    /// Why a drained sweep stopped short, if it did: the lowest device
    /// whose receive found the wrong message at its channel's head (a
    /// stuck receive with a message waiting found the wrong one), else a
    /// deadlock naming every unfinished device where it stands.
    fn stuck(&self, schedule: &Schedule) -> Option<SimError> {
        let mut blocked = Vec::new();
        for (d, prog) in schedule.programs().iter().enumerate() {
            let (gpc, len) = (self.gpc[d], prog.len());
            if gpc >= len * self.opts.iterations as usize {
                continue;
            }
            let (dev, lpc) = (DeviceId(d as u32), gpc % len);
            let instr = prog.instrs()[lpc];
            if let Some(p) = instr.kind.p2p().filter(|p| p.dir == Dir::Recv) {
                let link = self.links.resolve(dev, p.dir, p.port(instr.part));
                if let Some((found, _)) = link.and_then(|l| self.chans[l.id].front()) {
                    let want = p.msg(&instr);
                    return Some(SimError::Mismatch(format!(
                        "{dev} expected {want:?}, found {found:?}"
                    )));
                }
            }
            blocked.push(format!("d{d}#{lpc} iter {}: {instr}", gpc / len));
        }
        (!blocked.is_empty()).then(|| SimError::Deadlock(blocked.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    fn degraded(profile: &PerturbationProfile) -> SimOptions<'_> {
        SimOptions {
            profile,
            ..SimOptions::default()
        }
    }

    fn iters(iterations: u32) -> SimOptions<'static> {
        SimOptions {
            iterations,
            ..SimOptions::default()
        }
    }

    fn released(release: &[Nanos]) -> SimOptions<'_> {
        SimOptions {
            release: Some(release),
            ..SimOptions::default()
        }
    }

    #[test]
    fn matches_1f1b_closed_form() {
        for (d, n) in [(2u32, 4u32), (4, 8), (8, 16)] {
            let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, d, n));
            let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
            assert_eq!(t.total_ns, ((3 * (d - 1) + 3 * n) * 1_000) as u64);
        }
    }

    #[test]
    fn deadlock_is_reported() {
        use mario_ir::{Instr, Schedule, Topology};
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut s = Schedule::empty(topo, 1, vec![0]);
        s.program_mut(DeviceId(0))
            .push(Instr::recv_grad(0u32, 0u32, DeviceId(1)));
        s.program_mut(DeviceId(1))
            .push(Instr::recv_act(0u32, 0u32, DeviceId(0)));
        let err = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)));
    }

    /// The makespan-only recorder returns exactly the full recorder's
    /// `total_ns`, or the identical `SimError` (deadlock text included —
    /// `SimError`'s equality compares it).
    #[test]
    fn makespan_only_matches_the_full_timeline() {
        use crate::passes::{run_graph_tuner, GraphTunerOptions};
        use mario_ir::{LinkSlack, Topology};
        use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};

        fn check(
            s: &Schedule,
            cost: &dyn CostModel,
            cap: usize,
            profile: &PerturbationProfile,
        ) -> bool {
            let opts = SimOptions {
                channel_capacity: cap,
                profile,
                ..SimOptions::default()
            };
            let full = simulate(s, cost, &opts).map(|t| t.total_ns);
            let fast = simulate_makespan(s, cost, cap, profile);
            assert_eq!(fast, full, "{:?} at capacity {cap}", s.topology.scheme);
            full.is_ok()
        }

        let degraded = PerturbationProfile::identity()
            .with_straggler(DeviceId(1), 1.5)
            .with_link_slack(LinkSlack {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: None,
                extra_ns: 700,
                iteration: None,
            });
        let profiles = [PerturbationProfile::identity(), degraded];
        let (mut ok, mut failed) = (0, 0);
        // Every scheme the generator emits, plus a wave that needs
        // capacity 2 (it deadlocks at 1).
        let instances = [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
            SchemeKind::Wave { chunks: 2 },
            SchemeKind::ForwardOnly,
            SchemeKind::ZeroBubbleH1,
            SchemeKind::ZeroBubbleV,
        ]
        .map(|scheme| (scheme, 4, 8));
        let wide_wave = (SchemeKind::Wave { chunks: 2 }, 8, 16);
        for (scheme, d, n) in instances.into_iter().chain([wide_wave]) {
            let untuned = generate(ScheduleConfig::new(scheme, d, n));
            let setup = TrainSetup::pipeline(
                ModelConfig::gpt3_1_6b(),
                GpuSpec::a100_40g(),
                Topology::new(scheme, d),
                1,
            );
            let analytic = AnalyticCost::new(&setup);
            let unit = UnitCost::paper_grid();
            let costs: [&dyn CostModel; 2] = [&unit, &analytic];
            for cost in costs {
                let mut tuned = untuned.clone();
                run_graph_tuner(&mut tuned, cost, GraphTunerOptions::mario());
                for s in [&untuned, &tuned] {
                    for cap in [1, 2] {
                        for profile in &profiles {
                            if check(s, cost, cap, profile) {
                                ok += 1;
                            } else {
                                failed += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(ok > 0 && failed > 0, "{ok} completed, {failed} failed");

        // The `deadlock_is_reported` schedule, and a receive that finds
        // the wrong micro-batch at the head of its channel.
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut deadlock = Schedule::empty(topo, 1, vec![0]);
        deadlock
            .program_mut(DeviceId(0))
            .push(Instr::recv_grad(0u32, 0u32, DeviceId(1)));
        deadlock
            .program_mut(DeviceId(1))
            .push(Instr::recv_act(0u32, 0u32, DeviceId(0)));
        let mut mismatch = Schedule::empty(topo, 2, vec![0, 0]);
        for m in [0u32, 1] {
            mismatch
                .program_mut(DeviceId(0))
                .push(Instr::send_act(m, 0u32, DeviceId(1)));
        }
        for m in [1u32, 0] {
            mismatch
                .program_mut(DeviceId(1))
                .push(Instr::recv_act(m, 0u32, DeviceId(0)));
        }
        for profile in &profiles {
            assert!(!check(&deadlock, &UnitCost::paper_grid(), 1, profile));
            assert!(!check(&mismatch, &UnitCost::paper_grid(), 2, profile));
        }
    }

    /// Pausing a sweep anywhere, cloning it into a second sweep and
    /// resuming the clone ends exactly as an uninterrupted run: the same
    /// makespan, or the same error text — in the first-in-first-out order
    /// and in shuffled ones, which the clone carries on. Every scheme at
    /// capacities 1 and 2, an Interleave made to deadlock by one swap,
    /// and a schedule made to mismatch by one send's micro-batch.
    #[test]
    fn a_resumed_clone_matches_an_uninterrupted_run() {
        use mario_ir::{DeviceProgram, InstrTag};

        let cost = UnitCost::paper_grid();
        let pristine = PerturbationProfile::identity();
        let check = |s: &Schedule, cap: usize| {
            let links = LinkTable::new(s);
            let sweep = |seed: Option<u64>| {
                let mut sweep = MakespanSweep::makespan(s, &cost, cap, &pristine, &links);
                if let Some(seed) = seed {
                    sweep.ready = Ready::shuffled(s.devices() as usize, seed);
                }
                sweep
            };
            let whole = sweep(None).run_to_end(s);
            // A sweep with buffers of its own, so `clone_from` overwrites
            // live state rather than filling empty vectors.
            let mut resumed = sweep(None);
            let _ = resumed.run(s, None);
            for d in 0..s.devices() {
                for p in 0..s.program(DeviceId(d)).len() {
                    for seed in [None, Some((d as u64) << 32 | p as u64)] {
                        let mut paused = sweep(seed);
                        let got = match paused.run(s, Some((DeviceId(d), p))) {
                            Ok(Run::Paused) => {
                                resumed.clone_from(&paused);
                                resumed.run_to_end(s)
                            }
                            Ok(Run::Done(t)) => Ok(t),
                            Err(e) => Err(e),
                        };
                        assert_eq!(
                            got, whole,
                            "{:?} cap {cap} paused at d{d}#{p}, seed {seed:?}",
                            s.topology.scheme
                        );
                    }
                }
            }
            whole
        };
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
            let s = generate(ScheduleConfig::new(scheme, 4, 4));
            for cap in [1, 2] {
                assert!(check(&s, cap).is_ok(), "{scheme:?} at capacity {cap}");
            }
        }

        // The first swap of adjacent instructions in a 4x4 Interleave that
        // deadlocks at capacity 1.
        let base = generate(ScheduleConfig::new(
            SchemeKind::Interleave { chunks: 2 },
            4,
            4,
        ));
        let swapped = (0..base.devices())
            .flat_map(|d| (1..base.program(DeviceId(d)).len()).map(move |pc| (DeviceId(d), pc)))
            .map(|(dev, pc)| {
                let mut s = base.clone();
                s.program_mut(dev).rotate_left(pc - 1..pc + 1, 1);
                s
            })
            .find(|s| {
                let t = simulate_makespan(s, &cost, 1, &pristine);
                matches!(t, Err(SimError::Deadlock(_)))
            })
            .expect("some swap deadlocks");
        assert!(matches!(check(&swapped, 1), Err(SimError::Deadlock(_))));

        // Device 0's second activation send carries the wrong micro-batch.
        let mut mismatch = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        let mut instrs = mismatch.program(DeviceId(0)).instrs().to_vec();
        let send = instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| i.kind.tag() == InstrTag::SendAct)
            .nth(1)
            .map(|(pc, _)| pc)
            .unwrap();
        instrs[send].micro = mario_ir::MicroId(3);
        mismatch.programs_mut()[0] = DeviceProgram::from_instrs(DeviceId(0), instrs);
        for cap in [1, 2] {
            assert!(matches!(check(&mismatch, cap), Err(SimError::Mismatch(_))));
        }
    }

    #[test]
    fn bubble_accounting() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        // Each device is busy 3N units, and device d finishes at
        // 3(N + D − 1) − 2d units (the drain staircase), so
        // bubble = Σ_d (3(D − 1) − 2d) = 9 + 7 + 5 + 3 units.
        assert_eq!(t.bubble_ns(), 24_000);
    }

    #[test]
    fn serving_ingress_wait_counts_as_bubble() {
        // ForwardOnly 2×3 with micros 1 and 2 held until 5 µs: stage 0
        // runs 3 forwards by 7 µs, stage 1 by 8 µs, so
        // bubble = (7 − 3) + (8 − 3) units — the held wait included.
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 2, 3));
        let t = simulate(&s, &UnitCost::paper_grid(), &released(&[0, 5_000, 5_000])).unwrap();
        assert_eq!(t.device_clocks, vec![7_000, 8_000]);
        assert_eq!(t.bubble_ns(), 9_000);
    }

    #[test]
    fn span_count_matches_instruction_count() {
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 8));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert_eq!(t.spans.len(), s.total_instrs());
    }

    #[test]
    fn identity_profile_is_bit_identical_to_baseline() {
        for scheme in [SchemeKind::OneFOneB, SchemeKind::Chimera] {
            let s = generate(ScheduleConfig::new(scheme, 4, 8));
            let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
            let degr = simulate(
                &s,
                &UnitCost::paper_grid(),
                &degraded(&PerturbationProfile::identity()),
            )
            .unwrap();
            assert_eq!(base.device_clocks, degr.device_clocks, "{scheme:?}");
            assert_eq!(base.total_ns, degr.total_ns, "{scheme:?}");
        }
    }

    #[test]
    fn straggler_stretches_the_pipeline() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let profile = PerturbationProfile::identity().with_straggler(DeviceId(0), 2.0);
        let degr = simulate(&s, &UnitCost::paper_grid(), &degraded(&profile)).unwrap();
        // The straggling first stage gates the whole pipeline: the
        // degraded makespan must grow, and every device finishes no
        // earlier than in the pristine run.
        assert!(degr.total_ns > base.total_ns);
        for (b, d) in base.device_clocks.iter().zip(&degr.device_clocks) {
            assert!(d >= b);
        }
    }

    #[test]
    fn slow_link_shifts_downstream_arrivals() {
        // Unit grid has free comm; give the perturbed link real latency.
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let profile = PerturbationProfile::identity().with_link_slack(mario_ir::LinkSlack {
            src: DeviceId(0),
            dst: DeviceId(1),
            nth: None,
            extra_ns: 10_000,
            iteration: None,
        });
        let degr = simulate(&s, &UnitCost::paper_grid(), &degraded(&profile)).unwrap();
        assert!(degr.total_ns > base.total_ns);
        // Backpressure propagates the slack upstream through the bounded
        // channel: no device finishes earlier than in the pristine run.
        for (b, d) in base.device_clocks.iter().zip(&degr.device_clocks) {
            assert!(d >= b);
        }
    }

    #[test]
    fn nth_packet_slack_hits_only_that_packet() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 4));
        let all = PerturbationProfile::identity().with_link_slack(mario_ir::LinkSlack {
            src: DeviceId(0),
            dst: DeviceId(1),
            nth: None,
            extra_ns: 3_000,
            iteration: None,
        });
        let one = PerturbationProfile::identity().with_link_slack(mario_ir::LinkSlack {
            src: DeviceId(0),
            dst: DeviceId(1),
            nth: Some(0),
            extra_ns: 3_000,
            iteration: None,
        });
        let t_all = simulate(&s, &UnitCost::paper_grid(), &degraded(&all)).unwrap();
        let t_one = simulate(&s, &UnitCost::paper_grid(), &degraded(&one)).unwrap();
        let t_base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert!(t_one.total_ns >= t_base.total_ns);
        assert!(t_all.total_ns >= t_one.total_ns);
    }

    #[test]
    fn multi_iteration_simulation_matches_single_iteration_structure() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        let one = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let three = simulate(&s, &UnitCost::paper_grid(), &iters(3)).unwrap();
        assert_eq!(three.spans.len(), 3 * s.total_instrs());
        // Back-to-back iterations overlap across the boundary, so the
        // makespan is at least 2 but at most 3 single-iteration spans.
        assert!(three.total_ns >= 2 * one.total_ns);
        assert!(three.total_ns <= 3 * one.total_ns);
    }

    #[test]
    fn checkpointed_simulation_charges_writes_and_reports_durability() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let cost = UnitCost::paper_grid();
        let checkpointed = |policy| SimOptions {
            checkpoint: Some(policy),
            ..iters(4)
        };
        let base = simulate(&s, &cost, &iters(4)).unwrap();
        assert_eq!(base.last_checkpoint, None);
        assert_eq!(base.ckpt_overhead_ns, 0);
        let policy = mario_ir::CheckpointPolicy::every(2).with_write_ns(500);
        let ck = simulate(&s, &cost, &checkpointed(policy)).unwrap();
        // 2 writes of 500 ns on each of the 4 devices, plus a CKPT span
        // per boundary per device.
        assert_eq!(ck.last_checkpoint, Some(4));
        assert_eq!(ck.ckpt_overhead_ns, 4 * 2 * 500);
        assert_eq!(ck.total_ns, base.total_ns + 2 * 500);
        assert_eq!(ck.spans.len(), base.spans.len() + 4 * 2);
        // An async sharded policy over a zero-byte shard is free and
        // durable immediately.
        let sharded = mario_ir::CheckpointPolicy::every(2)
            .with_sharded(mario_ir::ShardedWrite::new(1, 1).with_async_overlap());
        let free = simulate(&s, &cost, &checkpointed(sharded)).unwrap();
        assert_eq!(free.last_checkpoint, Some(4));
        assert_eq!(free.ckpt_overhead_ns, 0);
        assert_eq!(free.device_clocks, base.device_clocks);
    }

    #[test]
    fn forward_only_fill_drain_closed_form() {
        // Fill–drain under the unit grid (F = 1000 ns, free comm): the
        // makespan is (m + p − 1)·F and device d drains at (d + m)·F —
        // the closed form the serve bench and CI gate pin.
        for (p, m) in [(2u32, 4u32), (4, 8), (8, 3)] {
            let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, p, m));
            let release = vec![0; m as usize];
            let t = simulate(&s, &UnitCost::paper_grid(), &released(&release)).unwrap();
            assert_eq!(t.total_ns, ((m + p - 1) * 1_000) as u64, "p={p} m={m}");
            for (d, &c) in t.device_clocks.iter().enumerate() {
                assert_eq!(c, ((d as u32 + m) * 1_000) as u64, "p={p} m={m} d={d}");
            }
            assert!(t.completions.iter().all(|c| c.is_some()));
        }
    }

    #[test]
    fn serving_release_gates_first_stage_forwards() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 2, 3));
        let t = simulate(&s, &UnitCost::paper_grid(), &released(&[0, 5_000, 5_000])).unwrap();
        // Micro 0 flows ungated; micros 1 and 2 wait at stage 0 until
        // their release, then pipeline back to back.
        assert_eq!(t.completions, vec![Some(2_000), Some(7_000), Some(8_000)]);
        assert_eq!(t.total_ns, 8_000);
        // The gate is recv-blocked idle: conservation still holds (the
        // debug_assert in `Full::finish` checked it), and the first
        // stage's recv_blocked class carries the 4_000 ns wait.
        assert!(t.telemetry.devices[0].classes.recv_blocked_ns >= 4_000);
    }

    #[test]
    fn empty_release_gate_is_bit_identical_to_ungated() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 4, 6));
        let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let gated = simulate(&s, &UnitCost::paper_grid(), &released(&[])).unwrap();
        assert_eq!(base.device_clocks, gated.device_clocks);
        assert_eq!(base.total_ns, gated.total_ns);
        assert!(base.completions.is_empty());
        assert_eq!(gated.completions.len(), 6);
        assert!(gated.completions.iter().all(|c| c.is_some()));
    }

    #[test]
    fn iteration_scoped_straggler_slows_only_its_iteration() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        let base = simulate(&s, &UnitCost::paper_grid(), &iters(3)).unwrap();
        let scoped = PerturbationProfile::identity().with_slowdown(mario_ir::SlowdownWindow {
            device: DeviceId(0),
            factor: 3.0,
            from_pc: 0,
            until_pc: usize::MAX,
            iteration: Some(1),
        });
        let always = PerturbationProfile::identity().with_straggler(DeviceId(0), 3.0);
        let over3 = |profile| SimOptions { profile, ..iters(3) };
        let t_scoped = simulate(&s, &UnitCost::paper_grid(), &over3(&scoped)).unwrap();
        let t_always = simulate(&s, &UnitCost::paper_grid(), &over3(&always)).unwrap();
        assert!(t_scoped.total_ns > base.total_ns);
        assert!(t_always.total_ns > t_scoped.total_ns);
    }
}
