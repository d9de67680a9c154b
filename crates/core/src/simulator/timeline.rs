//! The timeline simulator (paper §5.2).
//!
//! Instead of hand-identifying critical paths, the simulator infers the
//! earliest start time of every instruction from its dependencies:
//! *horizontal* (in-order execution within a device's instruction list) and
//! *vertical* (p2p messages between devices, per Algorithm 1's virtual
//! pipeline). [`simulate`] is a zero-jitter run of the cluster emulator
//! (`mario_cluster::run_with`): one machine steps every
//! device, so spans, memory ledgers, link statistics, serving completions
//! and telemetry each have one definition, and this module only maps the
//! run's report onto a [`SimTimeline`]. The simulator-accuracy experiment
//! (Fig. 10) then isolates genuine modeling error (profiling regression,
//! jitter).
//!
//! What else lives here is the makespan `Sweep`, the step loop behind
//! `simulate_makespan` and prepose's paused trials, which the tuner
//! ranks on. It runs each device from a [`Ready`] queue until it blocks,
//! over channels numbered by one [`LinkTable`], and times it with the
//! machine's rules — one [`DeviceClock`] per device, one [`Fifo`] per
//! link and the [`PerturbationProfile`] — while recording nothing; an
//! `Observe` hook, a no-op everywhere but prepose's slack pass, sees
//! each step's finish. A run that cannot finish is read by [`stuck`] into
//! values, off the drained sweep as off the deadlock check and the event
//! run [`simulate`] answers from, so the sweep fails with `simulate`'s
//! error.
//!
//! A step reads an instruction's unscaled duration and its link through
//! `Timing`. One-shot sweeps compute them as the step fires
//! (`OnTheFly`); prepose, which re-runs one schedule hundreds of times,
//! reads them from a table it lowers once per call and rotates with the
//! program. Either way the step scales busy time by the profile at the pc
//! it fires at, so there is one step loop for both.
//!
//! [`simulate`] takes every knob in one [`SimOptions`]. Its `profile`
//! extends the alignment to *degraded* clusters: a [`PerturbationProfile`]
//! (stragglers, slow links) scales every instruction's duration and every
//! packet's departure time exactly as an absorbable fault plan does in
//! the emulator, so a zero-jitter faulted run and a degraded simulation
//! agree bit for bit — the property that lets the tuner predict a
//! straggler's impact without paying an emulator run.

use mario_cluster::{
    run_with, EmuError, EmulatorConfig, FaultPlan, RunOptions, RunReport, ServeBoard, ServingHooks,
};
use mario_ir::exec::stuck;
use mario_ir::{
    Blocked, CheckpointPolicy, CostModel, Deadlock, DeviceClock, DeviceId, Dir, Fifo, Instr,
    InstrKind, LinkTable, Mismatch, Msg, Nanos, P2p, PerturbationProfile, Ready, Schedule,
    SpanGraph, Telemetry,
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
    /// counted — the emulator's `RunReport::ckpt_overhead_ns`.
    #[serde(default)]
    pub ckpt_overhead_ns: Nanos,
    /// Iterations covered by the last cluster-durable checkpoint (None
    /// when no policy was active) — the emulator's
    /// `RunReport::last_checkpoint`.
    #[serde(default)]
    pub last_checkpoint: Option<u32>,
    /// The simulated flight-recorder output: per-device time-class
    /// breakdowns (conserving each device clock exactly) and per-link
    /// transfer statistics — the emulator's `RunReport::telemetry`.
    #[serde(default)]
    pub telemetry: Telemetry,
    /// The executed span graph: one [`OpSpan`](mario_ir::OpSpan) per
    /// instruction occurrence plus checkpoint writes, each device's spans
    /// in program order. It is the simulator's only per-occurrence record
    /// — the input to `mario_core::critpath::analyze`, the Gantt charts
    /// and the Chrome traces.
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

/// Why a simulation failed: the event run's `EmuError::Deadlock` or
/// `EmuError::Mismatch`, as [`stuck`] reads the sweep's too.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// The schedule deadlocks under the given channel capacity.
    Deadlock(Deadlock),
    /// A receive saw a mismatched message.
    Mismatch(Mismatch),
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
    /// The cluster's degradation (the emulator's `RunOptions::profile`):
    /// compute instructions on straggling devices are scaled by their
    /// slowdown windows (indexed by instruction pc) and perturbed packets
    /// depart late by the link's extra latency while the sender's clock
    /// is unaffected.
    pub profile: &'a PerturbationProfile,
    /// Back-to-back training iterations: device clocks and channel state
    /// persist across the iteration boundary (the next iteration's warmup
    /// overlaps the previous flush), while per-pair packet numbering and
    /// the profile's iteration-scoped windows reset each iteration.
    pub iterations: u32,
    /// A model-state checkpointing policy: each device pays its write at
    /// every interval boundary — synchronously for flat/sharded-sync
    /// policies, or chunk-by-chunk into the next iteration's recv bubbles
    /// when the policy asks for async overlap (any residue is charged at
    /// the following boundary, or at end of run).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Per-device startup offsets: device `d`'s clock begins at
    /// `startup[d]` (0 when the slice is short), and the offset is
    /// recorded in the `reconfig_ns` telemetry class so Σ classes ==
    /// device clock still holds. This models the one-time
    /// state-redistribution cost of an elastic reconfiguration.
    pub startup: &'a [Nanos],
    /// Serving mode's ingress release schedule: a first-stage `Forward`
    /// for micro-batch `m` may not start before `release[m]` (0 when the
    /// slice is short). The wait is recv-blocked idle time exactly like a
    /// link wait (async checkpoint chunks drain into it), and each
    /// micro-batch's completion is recorded in
    /// [`SimTimeline::completions`].
    pub release: Option<&'a [Nanos]>,
}

impl Default for SimOptions<'_> {
    fn default() -> Self {
        Self {
            channel_capacity: 1,
            profile: PerturbationProfile::pristine(),
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
/// whole [`SimTimeline`]. Panics on a double allocation, like the memory
/// simulator.
pub fn simulate(
    schedule: &Schedule,
    cost: &dyn CostModel,
    opts: &SimOptions,
) -> Result<SimTimeline, SimError> {
    timeline(schedule, opts, |cfg, run| {
        run_with(schedule, cost, cfg, run)
    })
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
    timeline(schedule, opts, |cfg, run| {
        mario_cluster::event::run_event_shuffled(schedule, cost, cfg, run, seed)
    })
}

/// [`simulate`] through `run`, a zero-jitter event-backend run with spans,
/// whose deadlock or mismatch is the [`SimError`].
fn timeline(
    schedule: &Schedule,
    opts: &SimOptions,
    run: impl FnOnce(EmulatorConfig, &RunOptions) -> Result<RunReport, EmuError>,
) -> Result<SimTimeline, SimError> {
    assert!(opts.channel_capacity >= 1);
    assert!(opts.iterations >= 1);
    let cfg = EmulatorConfig {
        iterations: opts.iterations,
        channel_capacity: opts.channel_capacity,
        record_spans: true,
        checkpoint: opts.checkpoint,
        ..EmulatorConfig::default()
    };
    // Empty unless serving, so `completions` is too.
    let board = ServeBoard::new(opts.release.map_or(0, |_| schedule.micros));
    let pristine = FaultPlan::none();
    let run_opts = RunOptions {
        profile: opts.profile,
        startup: opts.startup,
        serving: opts.release.map(|release| ServingHooks {
            release,
            board: &board,
        }),
        ..RunOptions::new(&pristine)
    };
    match run(cfg, &run_opts) {
        Ok(report) => Ok(SimTimeline {
            device_clocks: report.device_clocks,
            total_ns: report.total_ns,
            ckpt_overhead_ns: report.ckpt_overhead_ns,
            last_checkpoint: report.last_checkpoint,
            telemetry: report.telemetry,
            spans: report.spans.expect("a simulation records spans"),
            completions: board.completions(),
        }),
        Err(EmuError::Deadlock(deadlock)) => Err(SimError::Deadlock(deadlock)),
        Err(EmuError::Mismatch(mismatch)) => Err(SimError::Mismatch(mismatch)),
        // A pristine run with no memory capacity fails no other way than
        // by a double allocation, which `SimError` has no variant for.
        Err(e) => panic!("{e}"),
    }
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
    Sweep::new(schedule, &links, channel_capacity, profile)
        .run_to_end(schedule, &OnTheFly::new(cost, &links))
}

/// [`simulate_makespan`] on a pristine cluster, for the tests that hold
/// the makespan sweep to the other executors.
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub fn makespan_sweep(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
) -> Result<Nanos, SimError> {
    let pristine = PerturbationProfile::pristine();
    simulate_makespan(schedule, cost, channel_capacity, pristine)
}

/// Where a [`Sweep`] step reads what it costs: the launch charge, an
/// instruction's unscaled busy time, a receive's wire time and a p2p
/// operation's link. The answers depend on the device and the instruction
/// only; `lpc`, the instruction's local pc, lets a table index them.
pub(crate) trait Timing {
    /// The launch charge of every p2p operation.
    fn launch(&self) -> Nanos;
    /// The unscaled busy time of the non-p2p `instr` at `dev`'s `lpc`.
    fn busy(&self, dev: DeviceId, lpc: usize, instr: &Instr) -> Nanos;
    /// The link of the p2p end `p` of `instr` at `dev`'s `lpc`, or None
    /// for a port with no link.
    fn link(&self, dev: DeviceId, lpc: usize, instr: &Instr, p: P2p) -> Option<usize>;
    /// The wire time of the receive `instr`, end `p`, at `dev`'s `lpc`.
    fn wire(&self, dev: DeviceId, lpc: usize, instr: &Instr, p: P2p) -> Nanos;
}

/// [`Timing`] computed as each step fires, from the cost model and the
/// schedule's links: for sweeps that run a schedule once.
pub(crate) struct OnTheFly<'a> {
    cost: &'a dyn CostModel,
    links: &'a LinkTable,
}

impl<'a> OnTheFly<'a> {
    pub(crate) fn new(cost: &'a dyn CostModel, links: &'a LinkTable) -> Self {
        Self { cost, links }
    }
}

impl Timing for OnTheFly<'_> {
    #[inline]
    fn launch(&self) -> Nanos {
        self.cost.p2p_launch_overhead()
    }

    #[inline]
    fn busy(&self, dev: DeviceId, _: usize, instr: &Instr) -> Nanos {
        match instr.kind {
            InstrKind::AllReduce => self.cost.allreduce_time(dev),
            InstrKind::OptimizerStep => self.cost.optimizer_time(dev),
            _ => self.cost.duration(dev, instr),
        }
    }

    #[inline]
    fn link(&self, dev: DeviceId, _: usize, instr: &Instr, p: P2p) -> Option<usize> {
        self.links
            .resolve(dev, p.dir, p.port(instr.part))
            .map(|l| l.id)
    }

    #[inline]
    fn wire(&self, dev: DeviceId, _: usize, instr: &Instr, p: P2p) -> Nanos {
        let bytes = self.cost.boundary_bytes(dev, instr.part);
        self.cost.p2p_time_between(p.peer, dev, bytes)
    }
}

/// Told of every step a [`Sweep`] completes, in firing order. `()`
/// observes nothing and compiles away, so the tuner and prepose's trials
/// pay nothing for it; prepose's slack pass records finish times.
pub(crate) trait Observe {
    /// Device `dev` finished the instruction at local pc `lpc` at `finish`.
    fn fired(&mut self, dev: usize, lpc: usize, finish: Nanos);
}

impl Observe for () {
    #[inline(always)]
    fn fired(&mut self, _: usize, _: usize, _: Nanos) {}
}

/// Where [`Sweep::run`] stopped.
#[derive(Debug)]
pub(crate) enum Run {
    /// The sweep reached its stop point and can be resumed or cloned.
    Paused,
    /// The sweep completed with this makespan.
    Done(Nanos),
}

/// The makespan step loop and everything it carries between steps: each
/// device runs from a [`Ready`] queue until it blocks on a link — a send
/// on a full window, a receive on an empty channel or on the wrong
/// message — and every p2p operation wakes its peer if the peer waits on
/// that link. The queue drains when every program has run or no device
/// can move, and [`stuck`] reads the answer off that state.
///
/// It times what [`simulate`] times except checkpoints, startup offsets
/// and serving gates, which no caller of the makespan asks for; a test
/// pins its makespan and errors to the event run's.
///
/// A sweep can stop before any instruction and go on later, and a paused
/// sweep can be cloned, so a caller can run many continuations of one
/// shared prefix; see [`Sweep::run`]. The schedule and its [`Timing`] are
/// not part of it: each call reads them.
pub(crate) struct Sweep<'a> {
    /// p2p buffer depth per channel.
    capacity: usize,
    profile: &'a PerturbationProfile,
    /// Program position per device: the next instruction's pc.
    pc: Vec<usize>,
    clocks: Vec<DeviceClock>,
    /// In-flight messages with their departure times, per link of the
    /// schedule's [`LinkTable`].
    chans: Vec<Fifo<(Msg, Nanos)>>,
    /// The devices that may move; the front one is running.
    ready: Ready,
}

/// Field by field, so that `clone_from` reuses the destination's buffers:
/// a prepose trial is a clone of its paused baseline.
impl Clone for Sweep<'_> {
    fn clone(&self) -> Self {
        Self {
            capacity: self.capacity,
            profile: self.profile,
            pc: self.pc.clone(),
            clocks: self.clocks.clone(),
            chans: self.chans.clone(),
            ready: self.ready.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.capacity = source.capacity;
        self.profile = source.profile;
        self.pc.clone_from(&source.pc);
        self.clocks.clone_from(&source.clocks);
        self.chans.clone_from(&source.chans);
        self.ready.clone_from(&source.ready);
    }
}

impl<'a> Sweep<'a> {
    /// A sweep, at time zero, of one iteration of `schedule` over its
    /// `links` at `capacity` on the cluster `profile` describes.
    pub(crate) fn new(
        schedule: &Schedule,
        links: &LinkTable,
        capacity: usize,
        profile: &'a PerturbationProfile,
    ) -> Self {
        assert!(capacity >= 1);
        let devices = schedule.devices() as usize;
        Self {
            capacity,
            profile,
            pc: vec![0; devices],
            clocks: (0..devices)
                .map(|d| DeviceClock::new(DeviceId(d as u32), 0))
                .collect(),
            chans: vec![Fifo::default(); links.len()],
            ready: Ready::fifo(devices),
        }
    }

    /// [`Sweep::run`] with no stop point: the makespan, or why the
    /// schedule cannot run.
    pub(crate) fn run_to_end(
        &mut self,
        schedule: &Schedule,
        timing: &impl Timing,
    ) -> Result<Nanos, SimError> {
        match self.run(schedule, timing, None)? {
            Run::Done(makespan) => Ok(makespan),
            Run::Paused => unreachable!("a sweep without a stop point never pauses"),
        }
    }

    /// Steps the sweep over `schedule`, timed by `timing`, until it
    /// completes, fails, or — given `stop = Some((d, p))` — device `d` is
    /// about to read pc `p`; a sweep already there pauses at once.
    /// A paused sweep has read nothing of `d`'s program from `p` on, so
    /// it may be resumed (or cloned and resumed) over a schedule that
    /// differs from the one it ran on only in `d`'s instructions at `p`
    /// and after, program length and send ports kept, and ends exactly as
    /// a sweep of that schedule from time zero would; `timing` must then
    /// answer for the schedule it resumes over. `schedule` must otherwise
    /// be the one the sweep was built for. A sweep that failed fails the
    /// same way when run again; one that completed must not run again.
    pub(crate) fn run(
        &mut self,
        schedule: &Schedule,
        timing: &impl Timing,
        stop: Option<(DeviceId, usize)>,
    ) -> Result<Run, SimError> {
        self.run_observed(schedule, timing, stop, &mut ())
    }

    /// [`Sweep::run`], telling `observe` of every step it completes.
    pub(crate) fn run_observed(
        &mut self,
        schedule: &Schedule,
        timing: &impl Timing,
        stop: Option<(DeviceId, usize)>,
        observe: &mut impl Observe,
    ) -> Result<Run, SimError> {
        let (capacity, profile, launch) = (self.capacity, self.profile, timing.launch());
        // The hot loop works on locals rather than through `self`
        // (measured: about 3% of tune-32 otherwise).
        let (pcs, clocks) = (&mut self.pc[..], &mut self.clocks[..]);
        let (chans, ready) = (&mut self.chans[..], &mut self.ready);
        let (stop_dev, stop_pc) = stop.map_or((usize::MAX, 0), |(d, p)| (d.index(), p));
        while let Some(d) = ready.front() {
            let dev = DeviceId(d as u32);
            let prog = schedule.program(dev).instrs();
            let clock = &mut clocks[d];
            let pc = &mut pcs[d];
            loop {
                let lpc = *pc;
                if lpc >= prog.len() {
                    ready.block(None);
                    break;
                }
                if d == stop_dev && lpc == stop_pc {
                    return Ok(Run::Paused);
                }
                let instr = prog[lpc];
                match instr.kind.p2p() {
                    None => {
                        let ns = timing.busy(dev, lpc, &instr);
                        let dur = match instr.kind {
                            InstrKind::AllReduce | InstrKind::OptimizerStep => ns,
                            _ => profile.scaled_compute(dev, 0, lpc, ns),
                        };
                        clock.busy(instr.kind, dur);
                    }
                    Some(p) => {
                        // A port with no link never moves.
                        let Some(link) = timing.link(dev, lpc, &instr, p) else {
                            ready.block(None);
                            break;
                        };
                        let ch = &mut chans[link];
                        if p.dir == Dir::Send {
                            // On a full window the send completes once the
                            // receiver dequeued the oldest in-flight
                            // message; that time is known only after the
                            // receiver fires, so wait for it.
                            let Some(freed) = ch.reserve(capacity) else {
                                ready.block(Some(link));
                                break;
                            };
                            clock.launch(launch);
                            clock.wait_until(freed, Dir::Send);
                            // A perturbed link delays the packet's departure
                            // while the sender's own clock is unaffected.
                            let nth = clock.next_packet(p.peer, 0);
                            let extra = profile.link_extra(dev, p.peer, 0, nth);
                            ch.push((p.msg(&instr), clock.now() + extra));
                        } else {
                            // The wrong message at the head blocks the
                            // receive for good; the mismatch is reported
                            // once no device can move.
                            let want = p.msg(&instr);
                            let Some(&(_, sent_at)) = ch.front().filter(|(msg, _)| *msg == want)
                            else {
                                ready.block(Some(link));
                                break;
                            };
                            ch.pop();
                            let wire = timing.wire(dev, lpc, &instr, p);
                            clock.launch(launch);
                            clock.wait_until(sent_at + wire, Dir::Recv);
                            ch.ack(clock.now());
                        }
                        ready.wake(p.peer.index(), link);
                    }
                }
                observe.fired(d, lpc, clock.now());
                *pc += 1;
                if ready.preempt() {
                    break;
                }
            }
        }
        let chans = &self.chans;
        let head = |b: &Blocked, p| {
            let link = timing.link(b.device, b.pc, &b.instr, p)?;
            chans[link].front().map(|&(msg, _)| msg)
        };
        let drained = stuck(schedule, 1, &self.pc, head);
        match drained.map_err(SimError::Mismatch)? {
            Some(deadlock) => Err(SimError::Deadlock(deadlock)),
            None => Ok(Run::Done(
                self.clocks.iter().map(DeviceClock::now).max().unwrap_or(0),
            )),
        }
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

    /// `SimError` has no variant for a broken memory lifecycle, so a
    /// schedule that allocates one activation twice panics, as the memory
    /// simulator does. Returning an error instead is an open ROADMAP item
    /// (Big direction 1), since `perf` matches `SimError`'s variants.
    #[test]
    #[should_panic(expected = "double allocation")]
    fn a_double_allocation_panics() {
        use mario_ir::DeviceProgram;
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
        let mut instrs = s.program(DeviceId(0)).instrs().to_vec();
        instrs.insert(0, instrs[0]);
        *s.program_mut(DeviceId(0)) = DeviceProgram::from_instrs(DeviceId(0), instrs);
        let _ = simulate_timeline(&s, &UnitCost::paper_grid(), 1);
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

    /// The makespan sweep returns exactly the event run's `total_ns`, or
    /// fails where it fails with the identical `SimError` (the blocked
    /// devices included — `SimError`'s equality compares them): on every
    /// scheme, tuned and untuned, on mutants with 1–3 swaps of adjacent
    /// instructions, pristine and degraded.
    #[test]
    fn the_makespan_sweep_matches_the_event_run() {
        use crate::passes::{run_graph_tuner, GraphTunerOptions};
        use mario_ir::{Instr, LinkSlack, Topology};
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
            let links = LinkTable::new(s);
            let fast =
                Sweep::new(s, &links, cap, profile).run_to_end(s, &OnTheFly::new(cost, &links));
            assert_eq!(fast, full, "{:?} at capacity {cap}", s.topology.scheme);
            assert_eq!(simulate_makespan(s, cost, cap, profile), full);
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
        // SplitMix64, for the swaps.
        let mut state = 0x5eed_u64;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
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
                let mut mutants = Vec::new();
                for _ in 0..2 {
                    let mut m = untuned.clone();
                    for _ in 0..1 + below(3) {
                        let dev = DeviceId(below(d as usize) as u32);
                        let pc = 1 + below(m.program(dev).len() - 1);
                        m.program_mut(dev).rotate_left(pc - 1..pc + 1, 1);
                    }
                    mutants.push(m);
                }
                for s in [&untuned, &tuned].into_iter().chain(&mutants) {
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

        // The `deadlock_is_reported` schedule, a receive that finds the
        // wrong micro-batch at the head of its channel, and a send nobody
        // receives, which completes in one iteration; the event run
        // deadlocks on it only once a second iteration finds the window
        // still full.
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
        let mut unreceived = Schedule::empty(topo, 1, vec![0]);
        unreceived
            .program_mut(DeviceId(0))
            .push(Instr::send_act(0u32, 0u32, DeviceId(1)));
        let unit = UnitCost::paper_grid();
        for profile in &profiles {
            assert!(!check(&deadlock, &unit, 1, profile));
            assert!(!check(&mismatch, &unit, 2, profile));
            assert!(check(&unreceived, &unit, 1, profile));
        }
        let opts = SimOptions {
            iterations: 2,
            ..SimOptions::default()
        };
        let err = simulate(&unreceived, &unit, &opts).unwrap_err();
        let blocked = Blocked {
            device: DeviceId(0),
            pc: 0,
            iteration: 1,
            instr: unreceived.program(DeviceId(0)).instrs()[0],
        };
        assert_eq!(err, SimError::Deadlock(Deadlock(vec![blocked])));
        assert_eq!(err.to_string(), "simulated deadlock: d0#0 iter 1: SA0^0>d1");
    }

    /// Pausing a sweep anywhere, cloning it into a second sweep and
    /// resuming the clone ends exactly as an uninterrupted run: the same
    /// makespan, or the same error — in the first-in-first-out order
    /// and in shuffled ones, which the clone carries on, and over prepose's
    /// step table as over the on-the-fly timing. Every scheme at
    /// capacities 1 and 2, an Interleave made to deadlock by one swap,
    /// and a schedule made to mismatch by one send's micro-batch.
    #[test]
    fn a_resumed_clone_matches_an_uninterrupted_run() {
        use crate::passes::prepose_forward::StepTable;
        use mario_ir::{DeviceProgram, InstrTag};

        fn resume_everywhere(
            s: &Schedule,
            links: &LinkTable,
            cap: usize,
            timing: &impl Timing,
        ) -> Result<Nanos, SimError> {
            let pristine = PerturbationProfile::identity();
            let sweep = |seed: Option<u64>| {
                let mut sweep = Sweep::new(s, links, cap, &pristine);
                if let Some(seed) = seed {
                    sweep.ready = Ready::shuffled(s.devices() as usize, seed);
                }
                sweep
            };
            let whole = sweep(None).run_to_end(s, timing);
            // A sweep with buffers of its own, so `clone_from` overwrites
            // live state rather than filling empty vectors.
            let mut resumed = sweep(None);
            let _ = resumed.run(s, timing, None);
            for d in 0..s.devices() {
                for p in 0..s.program(DeviceId(d)).len() {
                    for seed in [None, Some((d as u64) << 32 | p as u64)] {
                        let mut paused = sweep(seed);
                        let got = match paused.run(s, timing, Some((DeviceId(d), p))) {
                            Ok(Run::Paused) => {
                                resumed.clone_from(&paused);
                                resumed.run_to_end(s, timing)
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
        }

        let cost = UnitCost::paper_grid();
        let pristine = PerturbationProfile::identity();
        let check = |s: &Schedule, cap: usize| {
            let links = LinkTable::new(s);
            let live = resume_everywhere(s, &links, cap, &OnTheFly::new(&cost, &links));
            let table = StepTable::lower(s, &cost, &links);
            assert_eq!(resume_everywhere(s, &links, cap, &table), live);
            live
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
        // emulator's report debug-asserts it), and the first stage's
        // recv_blocked class carries the 4_000 ns wait.
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
        let over3 = |profile| SimOptions {
            profile,
            ..iters(3)
        };
        let t_scoped = simulate(&s, &UnitCost::paper_grid(), &over3(&scoped)).unwrap();
        let t_always = simulate(&s, &UnitCost::paper_grid(), &over3(&always)).unwrap();
        assert!(t_scoped.total_ns > base.total_ns);
        assert!(t_always.total_ns > t_scoped.total_ns);
    }

    /// How much more wall time the event backend takes than the makespan
    /// sweep on the same schedule, which both run in the same firing
    /// order: 1F1B at 512×128 on the unit grid. Prints the median of the
    /// per-iteration ratios. Release only:
    /// `cargo test --release -p mario-core --lib event_to_sweep -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn event_to_sweep_wall_time_ratio() {
        use std::time::Instant;
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 512, 128));
        let cost = UnitCost::paper_grid();
        let cfg = EmulatorConfig::default();
        let pristine = PerturbationProfile::identity();
        let mut ratios: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                let event = mario_cluster::run(&s, &cost, cfg).expect("1F1B runs");
                let event_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let sweep = simulate_makespan(&s, &cost, 1, &pristine).expect("1F1B sweeps");
                let sweep_s = t.elapsed().as_secs_f64();
                assert_eq!(event.total_ns, sweep);
                event_s / sweep_s
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        println!("event / sweep wall time: median {:.2}", ratios[ratios.len() / 2]);
    }
}
