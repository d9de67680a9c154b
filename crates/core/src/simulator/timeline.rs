//! The dynamic-programming timeline simulator (paper §5.2).
//!
//! Instead of hand-identifying critical paths, the simulator infers the
//! earliest start time of every instruction from its dependencies:
//! *horizontal* (in-order execution within a device's instruction list) and
//! *vertical* (p2p messages between devices, per Algorithm 1's virtual
//! pipeline). Semantics deliberately match the cluster emulator
//! (mario-cluster) instruction for instruction — bounded per-class FIFO
//! channels, launch overheads, transfer latency — so with zero jitter the
//! two produce identical timelines, and the simulator-accuracy experiment
//! (Fig. 10) isolates genuine modeling error (profiling regression,
//! jitter).
//!
//! [`simulate_timeline_with`] extends the alignment to *degraded*
//! clusters: a [`PerturbationProfile`] (stragglers, slow links) scales
//! every instruction's duration and every packet's departure time exactly
//! as the emulator's fault layer enforces the corresponding absorbable
//! fault plan, so a zero-jitter faulted run and a degraded
//! simulation still agree bit for bit — the property that lets
//! the tuner predict a straggler's impact without paying an emulator run.

use mario_ir::exec::MsgClass;
use mario_ir::{
    AllocKey, CheckpointPolicy, CostModel, DeviceId, DeviceTelemetry, FastMap, Instr, InstrKind,
    LinkSendStats, MemLedger, MemoryRules, Nanos, OpSpan, PerturbationProfile, Schedule, SpanGraph,
    Telemetry, CKPT_PC,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One simulated instruction occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimEvent {
    /// Executing device.
    pub device: DeviceId,
    /// The executed instruction; `None` for a model-state checkpoint
    /// write.
    pub instr: Option<Instr>,
    /// Earliest start (ns).
    pub start: Nanos,
    /// Finish (ns).
    pub end: Nanos,
}

impl SimEvent {
    /// The event's display name: the instruction's compact notation
    /// (`F3^0`, `SA3^0>d2`, …), or `CKPT` for a checkpoint write — the
    /// names the emulators' recorded timelines carry.
    pub fn name(&self) -> String {
        self.instr
            .map_or_else(|| "CKPT".to_string(), |i| i.to_string())
    }
}

/// The simulated timeline of one iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimTimeline {
    /// Every instruction with its start/end, ordered by (start, device).
    pub events: Vec<SimEvent>,
    /// Final clock per device.
    pub device_clocks: Vec<Nanos>,
    /// Iteration makespan (max device clock).
    pub total_ns: Nanos,
    /// Virtual time spent writing model-state checkpoints, summed across
    /// devices, ns (0 unless a policy was passed to
    /// [`simulate_timeline_ckpt`]). With async overlap only the residue
    /// the bubbles could not hide is counted — the emulator's
    /// `RunReport::ckpt_overhead_ns` semantics, bit for bit.
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
    /// The executed span graph (one [`OpSpan`] per instruction occurrence
    /// plus checkpoint boundaries), the input to
    /// `mario_core::critpath::analyze` — bit-identical to a zero-jitter
    /// emulator run captured with `record_spans`.
    #[serde(default)]
    pub spans: SpanGraph,
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MsgId {
    class: MsgClass,
    micro: u32,
    part: u32,
}

#[derive(Debug, Default)]
struct Channel {
    /// In-flight messages: (identity, sent_at).
    queue: VecDeque<(MsgId, Nanos)>,
    /// Dequeue timestamps not yet consumed by the sender's capacity logic.
    dequeues: VecDeque<Nanos>,
    /// Messages sent so far minus dequeue-acks consumed by sender.
    outstanding: usize,
}

/// Simulates `schedule` under `cost` with per-class FIFO channels of
/// `channel_capacity`, assuming a pristine cluster.
pub fn simulate_timeline(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
) -> Result<SimTimeline, SimError> {
    simulate_timeline_with(schedule, cost, channel_capacity, &PerturbationProfile::identity())
}

/// Simulates `schedule` on a *degraded* cluster described by `profile`:
/// compute instructions on straggling devices are scaled by their
/// slowdown windows (indexed by instruction pc, like the emulator's
/// `Slowdown` faults) and perturbed packets depart late by the link's
/// extra latency while the sender's clock is unaffected (the emulator's
/// `LinkDelay` semantics). With the identity profile this is exactly
/// [`simulate_timeline`].
pub fn simulate_timeline_with(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
) -> Result<SimTimeline, SimError> {
    simulate_timeline_iters(schedule, cost, channel_capacity, profile, 1)
}

/// [`simulate_timeline_with`] over `iterations` back-to-back training
/// iterations, mirroring the emulator's multi-iteration runs: device
/// clocks and channel state persist across the iteration boundary (the
/// next iteration's warmup overlaps the previous flush, exactly as the
/// threaded devices do), while per-pair packet numbering and the
/// profile's iteration-scoped windows reset each iteration.
pub fn simulate_timeline_iters(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    iterations: u32,
) -> Result<SimTimeline, SimError> {
    simulate_timeline_ckpt(schedule, cost, channel_capacity, profile, iterations, None)
}

/// Per-device checkpoint-write state mirroring the emulator's
/// `DeviceRuntime` chunk-drain bookkeeping: what is pending, what was
/// actually paid, and which checkpoint is durable. The arithmetic below
/// must stay literally identical to `mario-cluster::device` — the
/// `simulator_matches_emulator` property covers both flat and
/// sharded-async policies.
struct CkptSim {
    policy: CheckpointPolicy,
    /// Remaining chunk flush times of the in-flight async write.
    pending: Vec<VecDeque<Nanos>>,
    /// Iterations the in-flight write will cover once every chunk lands.
    pending_iters: Vec<u32>,
    /// Write time charged synchronously to each device's clock.
    paid: Vec<Nanos>,
    /// Iterations covered by each device's last durable checkpoint.
    last_ck: Vec<u32>,
}

impl CkptSim {
    fn new(policy: CheckpointPolicy, devices: usize) -> Self {
        Self {
            policy,
            pending: (0..devices).map(|_| VecDeque::new()).collect(),
            pending_iters: vec![0; devices],
            paid: vec![0; devices],
            last_ck: vec![0; devices],
        }
    }

    /// Flushes whole chunks into an idle gap of `gap` ns (a blocking recv
    /// wait or a capacity-blocked send). The checkpoint becomes durable
    /// only when the queue empties.
    /// Returns the flush time drained into the gap (the telemetry's
    /// `ckpt_absorbed_ns`) — the emulator's `drain_chunks`, bit for bit.
    fn drain(&mut self, d: usize, mut gap: Nanos) -> Nanos {
        let mut drained = 0;
        if self.pending[d].is_empty() {
            return drained;
        }
        while let Some(&chunk) = self.pending[d].front() {
            if chunk > gap {
                return drained;
            }
            gap -= chunk;
            drained += chunk;
            self.pending[d].pop_front();
        }
        self.last_ck[d] = self.pending_iters[d];
        drained
    }

    /// Synchronously pays whatever the previous async write could not
    /// hide, advancing the device clock. Returns the residue paid.
    fn flush_residue(&mut self, d: usize, clock: &mut Nanos) -> Nanos {
        if self.pending[d].is_empty() {
            return 0;
        }
        let residue: Nanos = self.pending[d].iter().sum();
        self.pending[d].clear();
        *clock += residue;
        self.paid[d] += residue;
        self.last_ck[d] = self.pending_iters[d];
        residue
    }

    /// End-of-iteration checkpoint boundary — the mirror of the
    /// emulator's `checkpoint_boundary`, including the transient
    /// serialization buffer held against `ledger` at its peak. Returns
    /// the write time charged synchronously to the clock (the
    /// telemetry's `ckpt_sync_ns`).
    #[allow(clippy::too_many_arguments)]
    fn boundary(
        &mut self,
        d: usize,
        iter_idx: u32,
        cost: &dyn CostModel,
        clock: &mut Nanos,
        ledger: &mut MemLedger,
        events: &mut Vec<SimEvent>,
        spans: &mut SpanGraph,
    ) -> Nanos {
        if !self.policy.is_boundary(iter_idx) {
            return 0;
        }
        let dev = DeviceId(d as u32);
        let start = *clock;
        let mut paid = self.flush_residue(d, clock);
        // The serialization buffer counts against the peak exactly as the
        // emulator holds it (the unchecked ledger cannot OOM — capacity
        // enforcement is the emulator's job).
        ledger
            .alloc(AllocKey::Snapshot, self.policy.mem_overhead)
            .expect("unchecked ledger never rejects the snapshot buffer");
        ledger.free(AllocKey::Snapshot);
        let shard = cost.ckpt_shard_bytes(dev);
        if self.policy.async_overlap() {
            let chunks = self.policy.device_chunk_times(shard);
            if chunks.is_empty() {
                self.last_ck[d] = iter_idx + 1;
            } else {
                self.pending[d] = chunks.into();
                self.pending_iters[d] = iter_idx + 1;
            }
        } else {
            let write = self.policy.device_write_ns(shard);
            *clock += write;
            self.paid[d] += write;
            paid += write;
            self.last_ck[d] = iter_idx + 1;
        }
        events.push(SimEvent {
            device: dev,
            instr: None,
            start,
            end: *clock,
        });
        spans.push(OpSpan {
            device: dev,
            iter: iter_idx,
            pc: CKPT_PC,
            start,
            end: *clock,
            work_ns: *clock - start,
            sent_at: 0,
            wire_ns: 0,
            gate_ns: 0,
        });
        paid
    }

    /// End-of-run drain: no bubbles remain, so any residue is paid
    /// synchronously (the emulator's `drain_checkpoint`). Returns the
    /// residue paid.
    fn drain_end(
        &mut self,
        d: usize,
        iterations: u32,
        clock: &mut Nanos,
        events: &mut Vec<SimEvent>,
        spans: &mut SpanGraph,
    ) -> Nanos {
        let start = *clock;
        let paid = self.flush_residue(d, clock);
        if *clock > start {
            events.push(SimEvent {
                device: DeviceId(d as u32),
                instr: None,
                start,
                end: *clock,
            });
            spans.push(OpSpan {
                device: DeviceId(d as u32),
                iter: iterations.saturating_sub(1),
                pc: CKPT_PC,
                start,
                end: *clock,
                work_ns: *clock - start,
                sent_at: 0,
                wire_ns: 0,
                gate_ns: 0,
            });
        }
        paid
    }
}

/// [`simulate_timeline_iters`] with a model-state checkpointing policy:
/// each device pays its write at every interval boundary exactly as the
/// cluster emulator charges it — synchronously for flat/sharded-sync
/// policies, or chunk-by-chunk into the next iteration's recv bubbles
/// when the policy asks for async overlap (any residue is charged at the
/// following boundary, or at end of run). With `None` this is exactly
/// [`simulate_timeline_iters`].
pub fn simulate_timeline_ckpt(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    iterations: u32,
    checkpoint: Option<CheckpointPolicy>,
) -> Result<SimTimeline, SimError> {
    simulate_timeline_startup(
        schedule,
        cost,
        channel_capacity,
        profile,
        iterations,
        checkpoint,
        &[],
    )
}

/// [`simulate_timeline_ckpt`] with per-device *startup offsets*: device
/// `d`'s clock begins at `startup[d]` (0 when the slice is short), and the
/// offset is recorded in the `reconfig_ns` telemetry class so Σ classes ==
/// device clock still holds. This models the one-time state-redistribution
/// cost of an elastic reconfiguration — survivors start executing only
/// once the layer state they did not already hold has been fetched —
/// mirroring the emulator's `run_with_faults_startup` bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn simulate_timeline_startup(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    iterations: u32,
    checkpoint: Option<CheckpointPolicy>,
    startup: &[Nanos],
) -> Result<SimTimeline, SimError> {
    simulate_core(
        schedule,
        cost,
        channel_capacity,
        profile,
        iterations,
        checkpoint,
        startup,
        None,
    )
    .map(|(t, _)| t)
}

/// Serving-mode simulation: one forward-only iteration under an
/// *ingress release schedule*. A first-stage `Forward` for micro-batch
/// `m` may not start before `release[m]` — the wait is recv-blocked idle
/// time exactly like a link wait (async checkpoint chunks drain into it)
/// — and each micro-batch's completion time is taken at the last-stage
/// `Forward`'s finish. Returns the timeline plus per-micro completion
/// times, bit-identical to a zero-jitter emulator `run_serving` on both
/// backends (the egress record is observational: an un-gated run is
/// bit-identical to an un-instrumented one).
pub fn simulate_timeline_serving(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    release: &[Nanos],
) -> Result<(SimTimeline, Vec<Option<Nanos>>), SimError> {
    simulate_core(
        schedule,
        cost,
        channel_capacity,
        profile,
        1,
        None,
        &[],
        Some(release),
    )
}

#[allow(clippy::too_many_arguments)]
fn simulate_core(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    iterations: u32,
    checkpoint: Option<CheckpointPolicy>,
    startup: &[Nanos],
    serving: Option<&[Nanos]>,
) -> Result<(SimTimeline, Vec<Option<Nanos>>), SimError> {
    assert!(channel_capacity >= 1);
    assert!(iterations >= 1);
    let devices = schedule.devices() as usize;
    // Global instruction cursor per device: local pc = gpc % len,
    // iteration = gpc / len.
    let mut gpc = vec![0usize; devices];
    let mut clocks: Vec<Nanos> = (0..devices)
        .map(|d| startup.get(d).copied().unwrap_or(0))
        .collect();
    let mut chans: FastMap<(u32, u32, MsgClass, u32), Channel> = FastMap::default();
    // Packets sent per (src, dst) pair *this iteration*, all classes and
    // parts in program order — the emulator's link-fault packet
    // numbering, which resets every iteration.
    let mut sends_to: Vec<FastMap<u32, usize>> = vec![FastMap::default(); devices];
    let mut cur_iter = vec![0u32; devices];
    let mut events: Vec<SimEvent> =
        Vec::with_capacity(schedule.total_instrs() * iterations as usize);
    let mut spans = SpanGraph::new(devices, channel_capacity);
    // Per-micro completion board (serving mode): earliest last-stage
    // forward finish — the emulator's `ServeBoard::record` (fetch_min).
    let mut completions: Vec<Option<Nanos>> = match serving {
        Some(_) => vec![None; schedule.micros as usize],
        None => Vec::new(),
    };
    let mut ckpt = checkpoint.map(|p| CkptSim::new(p, devices));
    // The flight recorder: per-device time classes, a memory ledger per
    // device replaying the emulator's exact `apply` sequence (compute and
    // send sites only), and per-link transfer statistics.
    let mut tel: Vec<DeviceTelemetry> = (0..devices)
        .map(|d| {
            let mut t = DeviceTelemetry::new(DeviceId(d as u32));
            t.classes.reconfig_ns = startup.get(d).copied().unwrap_or(0);
            t
        })
        .collect();
    let rules = MemoryRules::new(schedule);
    let mut ledgers: Vec<MemLedger> = (0..devices)
        .map(|d| MemLedger::new(cost.static_mem(DeviceId(d as u32)), None))
        .collect();
    let mut link_sends: FastMap<(u32, u32), LinkSendStats> = FastMap::default();
    let mut recv_waits: FastMap<(u32, u32), Nanos> = FastMap::default();

    // The emulator runs the checkpoint boundary every iteration even for
    // a device with an empty program; the main loop below skips such
    // devices, so process their boundaries (which never block) up front.
    if let Some(ck) = ckpt.as_mut() {
        for (d, clock) in clocks.iter_mut().enumerate() {
            if schedule.program(DeviceId(d as u32)).is_empty() {
                for it in 0..iterations {
                    tel[d].classes.ckpt_sync_ns +=
                        ck.boundary(d, it, cost, clock, &mut ledgers[d], &mut events, &mut spans);
                }
            }
        }
    }

    let class_of = |k: &InstrKind| match k {
        InstrKind::SendAct { .. } | InstrKind::RecvAct { .. } => MsgClass::Act,
        _ => MsgClass::Grad,
    };

    loop {
        let mut fired = false;
        let mut all_done = true;
        for d in 0..devices {
            let dev = DeviceId(d as u32);
            let prog = schedule.program(dev);
            let len = prog.len();
            if len == 0 || gpc[d] >= len * iterations as usize {
                continue;
            }
            let lpc = gpc[d] % len;
            let iter = (gpc[d] / len) as u32;
            if iter != cur_iter[d] {
                cur_iter[d] = iter;
                sends_to[d].clear();
            }
            let &instr = &prog.instrs()[lpc];
            all_done = false;
            let start = clocks[d];
            // Span-capture fields for this firing, filled in by the arms.
            let (mut sp_work, mut sp_sent, mut sp_wire, mut sp_gate) = (0, 0, 0, 0);
            let fired_now = match instr.kind {
                InstrKind::Forward { .. }
                | InstrKind::Backward
                | InstrKind::BackwardInput
                | InstrKind::BackwardWeight
                | InstrKind::Recompute => {
                    // Serving ingress gate: a first-stage forward may not
                    // start before its micro-batch was released. The wait
                    // is recv-blocked idle time (checkpoint chunks drain
                    // into it) — the emulator's gate, bit for bit.
                    if let Some(release) = serving {
                        if matches!(instr.kind, InstrKind::Forward { .. })
                            && schedule.topology.is_first_stage(dev, instr.part)
                        {
                            sp_gate = release.get(instr.micro.index()).copied().unwrap_or(0);
                            let gap = sp_gate.saturating_sub(clocks[d]);
                            let drained = match ckpt.as_mut() {
                                Some(ck) => ck.drain(d, gap),
                                None => 0,
                            };
                            tel[d].classes.on_recv_gap(gap, drained);
                            clocks[d] += gap;
                        }
                    }
                    let dur = profile.scaled_compute(dev, iter, lpc, cost.duration(dev, &instr));
                    sp_work = dur;
                    clocks[d] += dur;
                    tel[d].classes.compute_ns += dur;
                    rules
                        .apply(&mut ledgers[d], cost, dev, &instr)
                        .expect("unchecked ledger never rejects an allocation");
                    // Serving egress: a last-stage forward completes its
                    // micro-batch (observational — never read back here).
                    if serving.is_some()
                        && matches!(instr.kind, InstrKind::Forward { .. })
                        && schedule.topology.is_last_stage(dev, instr.part)
                    {
                        let slot = &mut completions[instr.micro.index()];
                        *slot = Some(slot.map_or(clocks[d], |v| v.min(clocks[d])));
                    }
                    true
                }
                InstrKind::AllReduce => {
                    let dt = cost.allreduce_time(dev);
                    sp_work = dt;
                    clocks[d] += dt;
                    tel[d].classes.allreduce_ns += dt;
                    true
                }
                InstrKind::OptimizerStep => {
                    let dt = cost.optimizer_time(dev);
                    sp_work = dt;
                    clocks[d] += dt;
                    tel[d].classes.optimizer_ns += dt;
                    true
                }
                InstrKind::SendAct { peer } | InstrKind::SendGrad { peer } => {
                    let class = class_of(&instr.kind);
                    let launch = cost.p2p_launch_overhead();
                    let ch = chans.entry((dev.0, peer.0, class, instr.part.0)).or_default();
                    let blocked;
                    if ch.outstanding == channel_capacity {
                        // Blocked until the receiver dequeues the oldest
                        // in-flight message; that time is known only after
                        // the receiver fires, so wait for it.
                        if let Some(t) = ch.dequeues.pop_front() {
                            ch.outstanding -= 1;
                            let ready = clocks[d] + launch;
                            clocks[d] = ready.max(t);
                            blocked = clocks[d] - ready;
                        } else {
                            continue;
                        }
                    } else {
                        clocks[d] += launch;
                        blocked = 0;
                    }
                    let id = MsgId {
                        class,
                        micro: instr.micro.0,
                        part: instr.part.0,
                    };
                    // A perturbed link delays the packet's departure while
                    // the sender's own clock is unaffected, exactly like
                    // the emulator's delayed send.
                    let nth = {
                        let c = sends_to[d].entry(peer.0).or_insert(0);
                        let n = *c;
                        *c += 1;
                        n
                    };
                    let extra = profile.link_extra(dev, peer, iter, nth);
                    ch.queue.push_back((id, clocks[d] + extra));
                    ch.outstanding += 1;
                    sp_work = launch;
                    tel[d].classes.comm_launch_ns += launch;
                    // A capacity wait is idle time exactly like a recv
                    // wait: async checkpoint chunks drain into it too —
                    // the emulator's send-side chunk flush, bit for bit.
                    let drained = match ckpt.as_mut() {
                        Some(ck) => ck.drain(d, blocked),
                        None => 0,
                    };
                    tel[d].classes.on_send_gap(blocked, drained);
                    // Bytes are counted at the send site with the sender's
                    // id — the emulator's exact accounting.
                    link_sends.entry((dev.0, peer.0)).or_default().on_send(
                        cost.boundary_bytes(dev, instr.part),
                        blocked,
                        ch.outstanding as u32,
                    );
                    rules
                        .apply(&mut ledgers[d], cost, dev, &instr)
                        .expect("unchecked ledger never rejects an allocation");
                    true
                }
                InstrKind::RecvAct { peer } | InstrKind::RecvGrad { peer } => {
                    let class = class_of(&instr.kind);
                    let ch = chans.entry((peer.0, dev.0, class, instr.part.0)).or_default();
                    match ch.queue.front() {
                        Some(&(id, sent_at)) => {
                            let want = MsgId {
                                class,
                                micro: instr.micro.0,
                                part: instr.part.0,
                            };
                            if id != want {
                                return Err(SimError::Mismatch(format!(
                                    "{dev} expected {want:?}, found {id:?}"
                                )));
                            }
                            ch.queue.pop_front();
                            let bytes = cost.boundary_bytes(dev, instr.part);
                            let launch = cost.p2p_launch_overhead();
                            let wire = cost.p2p_time_between(peer, dev, bytes);
                            let ready = clocks[d] + launch;
                            let arrival = ready.max(sent_at + wire);
                            (sp_work, sp_sent, sp_wire) = (launch, sent_at, wire);
                            // The wait for this message is exactly the
                            // idle gap an async checkpoint write drains
                            // into — the emulator's recv-side chunk flush.
                            // The drained slice is checkpoint time, the
                            // rest a genuine pipeline bubble.
                            let gap = arrival - ready;
                            let drained = match ckpt.as_mut() {
                                Some(ck) => ck.drain(d, gap),
                                None => 0,
                            };
                            tel[d].classes.comm_launch_ns += launch;
                            tel[d].classes.on_recv_gap(gap, drained);
                            *recv_waits.entry((peer.0, dev.0)).or_default() += gap;
                            ch.dequeues.push_back(arrival);
                            clocks[d] = arrival;
                            true
                        }
                        None => false,
                    }
                }
            };
            if fired_now {
                events.push(SimEvent {
                    device: dev,
                    instr: Some(instr),
                    start,
                    end: clocks[d],
                });
                spans.push(OpSpan {
                    device: dev,
                    iter,
                    pc: lpc as u32,
                    start,
                    end: clocks[d],
                    work_ns: sp_work,
                    sent_at: sp_sent,
                    wire_ns: sp_wire,
                    gate_ns: sp_gate,
                });
                gpc[d] += 1;
                fired = true;
                // Completing the program's last instruction is the
                // emulator's end-of-iteration checkpoint boundary.
                if gpc[d].is_multiple_of(len) {
                    if let Some(ck) = ckpt.as_mut() {
                        let done = (gpc[d] / len - 1) as u32;
                        tel[d].classes.ckpt_sync_ns += ck.boundary(
                            d,
                            done,
                            cost,
                            &mut clocks[d],
                            &mut ledgers[d],
                            &mut events,
                            &mut spans,
                        );
                    }
                }
            }
        }
        if all_done {
            break;
        }
        if !fired {
            let blocked: Vec<String> = (0..devices)
                .filter_map(|d| {
                    let prog = &schedule.programs()[d];
                    if prog.is_empty() || gpc[d] >= prog.len() * iterations as usize {
                        return None;
                    }
                    let lpc = gpc[d] % prog.len();
                    prog.get(lpc)
                        .map(|i| format!("d{d}#{lpc} iter {}: {i}", gpc[d] / prog.len()))
                })
                .collect();
            return Err(SimError::Deadlock(blocked.join(", ")));
        }
    }

    // No bubbles remain past the last instruction: pay any async residue
    // synchronously so the final checkpoint is durable when the run ends.
    if let Some(ck) = ckpt.as_mut() {
        for (d, clock) in clocks.iter_mut().enumerate() {
            tel[d].classes.ckpt_sync_ns +=
                ck.drain_end(d, iterations, clock, &mut events, &mut spans);
        }
    }

    events.sort_by_key(|e| (e.start, e.device.0));
    let total_ns = clocks.iter().copied().max().unwrap_or(0);
    spans.makespan = total_ns;
    debug_assert!(
        spans.check_tiling(&clocks).is_ok(),
        "span tiling violated on {:?}",
        spans.check_tiling(&clocks)
    );
    let (ckpt_overhead_ns, last_checkpoint) = match &ckpt {
        Some(ck) => (
            ck.paid.iter().sum(),
            Some(ck.last_ck.iter().copied().min().unwrap_or(0)),
        ),
        None => (0, None),
    };
    for (d, t) in tel.iter_mut().enumerate() {
        t.peak_mem = ledgers[d].peak();
    }
    // Assemble through the shared constructor (same as the emulator's
    // runner) and assert the conservation invariant: every nanosecond of
    // every device clock is accounted to exactly one time class.
    let telemetry = Telemetry::assemble(
        tel,
        link_sends
            .into_iter()
            .map(|((s, r), v)| ((DeviceId(s), DeviceId(r)), v)),
        recv_waits
            .into_iter()
            .map(|((s, r), v)| ((DeviceId(s), DeviceId(r)), v)),
    );
    debug_assert!(
        telemetry.check_conservation(&clocks).is_ok(),
        "telemetry conservation violated: {:?}",
        telemetry.check_conservation(&clocks)
    );
    debug_assert_eq!(telemetry.total_ckpt_sync_ns(), ckpt_overhead_ns);
    Ok((
        SimTimeline {
            events,
            device_clocks: clocks,
            total_ns,
            ckpt_overhead_ns,
            last_checkpoint,
            telemetry,
            spans,
        },
        completions,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

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
        let (t, _) = simulate_timeline_serving(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            &[0, 5_000, 5_000],
        )
        .unwrap();
        assert_eq!(t.device_clocks, vec![7_000, 8_000]);
        assert_eq!(t.bubble_ns(), 9_000);
    }

    #[test]
    fn event_count_matches_instruction_count() {
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 8));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert_eq!(t.events.len(), s.total_instrs());
    }

    #[test]
    fn identity_profile_is_bit_identical_to_baseline() {
        for scheme in [SchemeKind::OneFOneB, SchemeKind::Chimera] {
            let s = generate(ScheduleConfig::new(scheme, 4, 8));
            let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
            let degr = simulate_timeline_with(
                &s,
                &UnitCost::paper_grid(),
                1,
                &PerturbationProfile::identity(),
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
        let degr =
            simulate_timeline_with(&s, &UnitCost::paper_grid(), 1, &profile).unwrap();
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
        let degr =
            simulate_timeline_with(&s, &UnitCost::paper_grid(), 1, &profile).unwrap();
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
        let t_all = simulate_timeline_with(&s, &UnitCost::paper_grid(), 1, &all).unwrap();
        let t_one = simulate_timeline_with(&s, &UnitCost::paper_grid(), 1, &one).unwrap();
        let t_base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert!(t_one.total_ns >= t_base.total_ns);
        assert!(t_all.total_ns >= t_one.total_ns);
    }

    #[test]
    fn multi_iteration_simulation_matches_single_iteration_structure() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        let one = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let three = simulate_timeline_iters(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            3,
        )
        .unwrap();
        assert_eq!(three.events.len(), 3 * s.total_instrs());
        // Back-to-back iterations overlap across the boundary, so the
        // makespan is at least 2 but at most 3 single-iteration spans.
        assert!(three.total_ns >= 2 * one.total_ns);
        assert!(three.total_ns <= 3 * one.total_ns);
    }

    #[test]
    fn checkpointed_simulation_charges_writes_and_reports_durability() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let cost = UnitCost::paper_grid();
        let idle = PerturbationProfile::identity();
        let base = simulate_timeline_iters(&s, &cost, 1, &idle, 4).unwrap();
        assert_eq!(base.last_checkpoint, None);
        assert_eq!(base.ckpt_overhead_ns, 0);
        let policy = mario_ir::CheckpointPolicy::every(2).with_write_ns(500);
        let ck = simulate_timeline_ckpt(&s, &cost, 1, &idle, 4, Some(policy)).unwrap();
        // 2 writes of 500 ns on each of the 4 devices, plus a CKPT event
        // per boundary per device.
        assert_eq!(ck.last_checkpoint, Some(4));
        assert_eq!(ck.ckpt_overhead_ns, 4 * 2 * 500);
        assert_eq!(ck.total_ns, base.total_ns + 2 * 500);
        assert_eq!(ck.events.len(), base.events.len() + 4 * 2);
        // An async sharded policy over a zero-byte shard is free and
        // durable immediately.
        let sharded = mario_ir::CheckpointPolicy::every(2)
            .with_sharded(mario_ir::ShardedWrite::new(1, 1).with_async_overlap());
        let free = simulate_timeline_ckpt(&s, &cost, 1, &idle, 4, Some(sharded)).unwrap();
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
            let (t, done) = simulate_timeline_serving(
                &s,
                &UnitCost::paper_grid(),
                1,
                &PerturbationProfile::identity(),
                &vec![0; m as usize],
            )
            .unwrap();
            assert_eq!(t.total_ns, ((m + p - 1) * 1_000) as u64, "p={p} m={m}");
            for (d, &c) in t.device_clocks.iter().enumerate() {
                assert_eq!(c, ((d as u32 + m) * 1_000) as u64, "p={p} m={m} d={d}");
            }
            assert!(done.iter().all(|c| c.is_some()));
        }
    }

    #[test]
    fn serving_release_gates_first_stage_forwards() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 2, 3));
        let (t, done) = simulate_timeline_serving(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            &[0, 5_000, 5_000],
        )
        .unwrap();
        // Micro 0 flows ungated; micros 1 and 2 wait at stage 0 until
        // their release, then pipeline back to back.
        assert_eq!(done, vec![Some(2_000), Some(7_000), Some(8_000)]);
        assert_eq!(t.total_ns, 8_000);
        // The gate is recv-blocked idle: conservation still holds (the
        // debug_assert in simulate_core checked it), and the first
        // stage's recv_blocked class carries the 4_000 ns wait.
        assert!(t.telemetry.devices[0].classes.recv_blocked_ns >= 4_000);
    }

    #[test]
    fn empty_release_gate_is_bit_identical_to_ungated() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 4, 6));
        let base = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let (gated, done) = simulate_timeline_serving(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            &[],
        )
        .unwrap();
        assert_eq!(base.device_clocks, gated.device_clocks);
        assert_eq!(base.total_ns, gated.total_ns);
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|c| c.is_some()));
    }

    #[test]
    fn iteration_scoped_straggler_slows_only_its_iteration() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        let base = simulate_timeline_iters(
            &s,
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            3,
        )
        .unwrap();
        let scoped = PerturbationProfile::identity().with_slowdown(mario_ir::SlowdownWindow {
            device: DeviceId(0),
            factor: 3.0,
            from_pc: 0,
            until_pc: usize::MAX,
            iteration: Some(1),
        });
        let always = PerturbationProfile::identity().with_straggler(DeviceId(0), 3.0);
        let t_scoped =
            simulate_timeline_iters(&s, &UnitCost::paper_grid(), 1, &scoped, 3).unwrap();
        let t_always =
            simulate_timeline_iters(&s, &UnitCost::paper_grid(), 1, &always, 3).unwrap();
        assert!(t_scoped.total_ns > base.total_ns);
        assert!(t_always.total_ns > t_scoped.total_ns);
    }
}
