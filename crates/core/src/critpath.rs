//! Critical-path analysis and counterfactual re-timing over the executed
//! span graph.
//!
//! The span graph ([`mario_ir::SpanGraph`]) records *what happened*; this
//! module explains *why the makespan is what it is*:
//!
//! * [`analyze`] walks the recorded graph backward from the
//!   makespan-defining device and produces the **exact critical path** —
//!   a chain of contiguous segments (compute, p2p launches, wire
//!   transfers, exogenous waits, checkpoint writes, reconfiguration
//!   charges) whose lengths sum to the makespan *bit for bit* — plus
//!   per-op **slack** (how much each op could slow, all else fixed,
//!   before the makespan moves) and per-link wire slack.
//! * [`whatif`] re-times the recorded graph under counterfactual costs
//!   (a straggler profile, extra link latency, free checkpoint writes)
//!   without re-running anything, by one forward max-plus replay over
//!   the recorded spans.
//!
//! # Structure, not timestamps
//!
//! Only three edge families exist, and all are reconstructed from the
//! recorded link ends, program order and the channel capacity — never
//! from the recorded times:
//!
//! 1. **program order**: each span follows its device predecessor;
//! 2. **wire**: the `k`-th receive on a link pairs with its `k`-th send
//!    (links are FIFO);
//! 3. **capacity ack**: the `k`-th send on a link waits for the
//!    `(k − capacity)`-th receive's arrival (the bounded buffer).
//!
//! Reconstructing capacity edges structurally (instead of recording which
//! sends happened to block) keeps [`whatif`] sound: under a counterfactual
//! the ack window can start binding on a send that never blocked in the
//! recording. [`whatif`] replays edges 2 and 3 through one
//! `mario_ir::Fifo` per link — the link rule the makespan sweep and the
//! event backend share — so a re-timed send on a full window waits for
//! exactly the `(k − capacity)`-th re-timed arrival.
//!
//! # Links by number, no per-span decoding
//!
//! Each p2p span names the link end its executor resolved
//! ([`mario_ir::LinkEnd`]: the direction and the run's `LinkTable`
//! number), and the graph carries every link's `(src, dst)`, so neither
//! entry point decodes an instruction or numbers a channel. [`whatif`]
//! has no structure pass at all. It steps the devices over their
//! recorded spans, keeps one FIFO per link in a `Vec` sized up front,
//! and, only when the profile delays links, numbers packets with the
//! executors' own [`mario_ir::PacketCounter`]. Each packet carries its
//! send's recorded end through the FIFO, so the receiver adds the
//! recorded injected delay (`sent_at` minus that end) without pairing
//! sends and receives beforehand. Before the cut (next section) it only
//! counts each link's sends and receives and keeps its last `capacity`
//! receive ends in a ring. [`analyze`] groups sends and receives by link
//! number over flattened node ids and reads the program only for the
//! attribution class of local spans.
//!
//! # One backward pass for slack
//!
//! Slack comes from each span's *tail*: the longest path over the three
//! edge families from its end to the end of the run, weighted by the next
//! span's work (program order), the wire time plus any injected delay
//! (wire) and 0 (ack window). The tail pass (`Tails`) runs each device
//! backward from a `mario_ir::Ready` queue until it blocks, over one
//! `mario_ir::Fifo` per link with the roles reversed: a receive reserves
//! the window and pushes its wire time plus tail, and a send pops that
//! and acks its own tail. Recorded times cannot order the graph instead:
//! zero-length p2p spans tie at equal ends. Prepose's slack test
//! (`passes::prepose_forward`) runs the same pass over its step table.
//!
//! # Re-timing from the cut
//!
//! A counterfactual touches the recording at a point: the earliest
//! recorded start `T` of a span it re-times — a compute span whose charge
//! a slowdown window changes, or a send a link delay hits (numbered as
//! the replay numbers packets). Only the devices the profile names are
//! scanned for it; `free_checkpoint` keeps `T = 0`. Every span that ended
//! before `T` keeps its recorded times: its program predecessor, its
//! receive's send (`end ≤ sent_at ≤` the receive's end) and its send's
//! freeing receive (whose end the send's end bounds) all ended no later,
//! so none of them is re-timed, and a replay of unperturbed spans
//! reproduces the recording (async-overlap checkpoints included: a
//! drained chunk never moves a recorded end, and the residue is a span).
//! Those spans are closed under the replay's dependences, so the state
//! after them is a state the replay from time zero passes through, and
//! Kahn determinacy makes the rest of the replay reach the same answer.
//!
//! [`whatif`] therefore resumes each device at its first span ending at
//! or after `T` (a `partition_point`, since spans tile the clock), with
//! its clock at the previous span's end. One pass over the spans before
//! the cut rebuilds each link with [`mario_ir::Fifo::after`]: after `S`
//! sends and `R` receives at capacity `c`, the `S − R` packets in flight
//! (whose receivers read their own recorded `sent_at`), `min(S, c)`
//! outstanding, and as acks the ends of receives `S − c..R`. The same
//! pass advances each device's packet counter over its sends. The
//! round-robin replay then re-times the rest. Outside the exact domain
//! below the answer is still the replay from time zero's, byte for byte
//! (`tests/properties.rs` holds the two to each other on every scheme
//! and checkpoint mode), not a re-simulation's.
//!
//! # Validity domain
//!
//! The backward walk and the tail pass are exact for every recorded run.
//! [`whatif`] is exact — equal to a ground-truth re-simulation — when the
//! counterfactual *adds* perturbations on top of the recorded run and the
//! checkpoint policy is none/flat/sharded-sync (`free_checkpoint`
//! included). Async-overlap checkpointing drains write chunks into
//! whatever idle gaps the new timing produces, which the replay cannot
//! reproduce from recorded drains alone; removing a *recorded*
//! perturbation (destraggling) divides rounded integers and is exact only
//! when the factor round-trips (e.g. 2.0 on even costs). The `critpath`
//! bench pins the exact domain against real re-simulations.

use mario_ir::{
    DeviceId, DeviceProgram, Dir, Fifo, InstrKind, Nanos, OpSpan, PacketCounter,
    PerturbationProfile, Ready, Schedule, SpanGraph, CKPT_PC,
};
use serde::Serialize;

/// Attribution class of one critical-path segment, designed to reconcile
/// with [`mario_ir::TimeClasses`]: `Compute`→`compute_ns`,
/// `CommLaunch`→`comm_launch_ns`, `Wire`→the receiver's wait classes,
/// `Bubble`→`recv_blocked_ns` (+ any `ckpt_absorbed_ns` drained into the
/// wait), `Ckpt`→`ckpt_sync_ns`, `Reconfig`→`reconfig_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SegClass {
    /// Forward/backward/recompute kernel time.
    Compute,
    /// Fixed p2p launch overhead (send or recv side).
    CommLaunch,
    /// Wire transfer time of a gating message, plus any injected link
    /// delay between the send's completion and the packet's departure.
    Wire,
    /// Exogenous wait: a serving ingress gate the pipeline cannot cause
    /// or cure (includes any checkpoint chunks drained into it).
    Bubble,
    /// Checkpoint write time paid synchronously on the path.
    Ckpt,
    /// Gradient all-reduce.
    AllReduce,
    /// Optimizer step.
    Optimizer,
    /// Startup offset: elastic-reconfiguration state redistribution.
    Reconfig,
}

/// One contiguous segment of the critical path.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PathSegment {
    /// Device the segment is attributed to (for [`SegClass::Wire`], the
    /// receiving side of the link).
    pub device: DeviceId,
    /// Segment start (ns).
    pub start: Nanos,
    /// Segment end (ns).
    pub end: Nanos,
    /// Attribution class.
    pub class: SegClass,
    /// Program counter of the owning span ([`CKPT_PC`] for checkpoint
    /// and reconfiguration segments).
    pub pc: u32,
    /// Iteration of the owning span.
    pub iter: u32,
}

impl PathSegment {
    /// Segment length, ns.
    pub fn len_ns(&self) -> Nanos {
        self.end - self.start
    }
}

/// Per-class totals over the critical path. [`PathBreakdown::total`]
/// equals the makespan exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PathBreakdown {
    /// Kernel time on the path.
    pub compute_ns: Nanos,
    /// p2p launch overhead on the path.
    pub comm_launch_ns: Nanos,
    /// Wire transfer (and injected delay) time on the path.
    pub wire_ns: Nanos,
    /// Exogenous waits on the path.
    pub bubble_ns: Nanos,
    /// Synchronous checkpoint writes on the path.
    pub ckpt_ns: Nanos,
    /// All-reduce time on the path.
    pub allreduce_ns: Nanos,
    /// Optimizer time on the path.
    pub optimizer_ns: Nanos,
    /// Reconfiguration startup charge on the path.
    pub reconfig_ns: Nanos,
}

impl PathBreakdown {
    /// Sum of every class — equals the makespan bit for bit.
    pub fn total(&self) -> Nanos {
        self.compute_ns
            + self.comm_launch_ns
            + self.wire_ns
            + self.bubble_ns
            + self.ckpt_ns
            + self.allreduce_ns
            + self.optimizer_ns
            + self.reconfig_ns
    }

    /// All communication on the path: launches plus gating wire time.
    pub fn comm_ns(&self) -> Nanos {
        self.comm_launch_ns + self.wire_ns
    }

    fn add(&mut self, class: SegClass, ns: Nanos) {
        match class {
            SegClass::Compute => self.compute_ns += ns,
            SegClass::CommLaunch => self.comm_launch_ns += ns,
            SegClass::Wire => self.wire_ns += ns,
            SegClass::Bubble => self.bubble_ns += ns,
            SegClass::Ckpt => self.ckpt_ns += ns,
            SegClass::AllReduce => self.allreduce_ns += ns,
            SegClass::Optimizer => self.optimizer_ns += ns,
            SegClass::Reconfig => self.reconfig_ns += ns,
        }
    }
}

/// What [`analyze`] produces.
#[derive(Debug, Clone, Serialize)]
pub struct CritReport {
    /// The recorded makespan (max device clock).
    pub makespan: Nanos,
    /// The critical path in increasing time order: contiguous segments
    /// tiling `[0, makespan]` exactly.
    pub path: Vec<PathSegment>,
    /// Per-class totals over `path`; `breakdown.total() == makespan`.
    pub breakdown: PathBreakdown,
    /// `slack[d][i]` — how much span `i` of device `d` could lengthen,
    /// everything else fixed, before the makespan moves. Exact per-op
    /// sensitivity; ops on the critical path have slack 0.
    pub slack: Vec<Vec<Nanos>>,
    /// `on_path[d][i]` — whether span `i` of device `d` contributed a
    /// segment to the path.
    pub on_path: Vec<Vec<bool>>,
    /// Per directed link `(src, dst)`: the minimum over its messages of
    /// the extra wire latency the link could absorb before the makespan
    /// moves, sorted by `(src, dst)`.
    pub link_slack: Vec<((DeviceId, DeviceId), Nanos)>,
}

impl CritReport {
    /// The path's zero-slack ops (non-bubble, non-reconfig segments),
    /// deduplicated, longest first: the "top offenders" list bench
    /// summaries publish.
    pub fn top_path_ops(&self, n: usize) -> Vec<PathSegment> {
        let mut ops: Vec<PathSegment> = Vec::new();
        for seg in &self.path {
            if matches!(seg.class, SegClass::Bubble | SegClass::Reconfig) {
                continue;
            }
            match ops
                .iter_mut()
                .find(|o| o.device == seg.device && o.pc == seg.pc && o.iter == seg.iter)
            {
                // Merge multiple segments of one op (a gated compute
                // contributes both halves of its extent).
                Some(o) => {
                    o.start = o.start.min(seg.start);
                    o.end = o.end.max(seg.end);
                }
                None => ops.push(*seg),
            }
        }
        ops.sort_by_key(|o| (std::cmp::Reverse(o.len_ns()), o.device.0, o.start));
        ops.truncate(n);
        ops
    }
}

/// A span's id in the flattened graph: span `i` of device `d` is node
/// `offset[d] + i` (see [`Structure`]).
type NodeId = u32;

/// The attribution class of local span `s` (one that names no link) of
/// a device running `program`. Checkpoint spans, and spans whose `pc`
/// lies past the program, are checkpoint time.
#[inline]
fn classify(program: &DeviceProgram, s: &OpSpan) -> SegClass {
    match (s.pc != CKPT_PC).then(|| program.get(s.pc as usize)) {
        Some(Some(instr)) => match instr.kind {
            InstrKind::AllReduce => SegClass::AllReduce,
            InstrKind::OptimizerStep => SegClass::Optimizer,
            _ => SegClass::Compute,
        },
        _ => SegClass::Ckpt,
    }
}

/// How a span interacts with the rest of the graph.
#[derive(Clone, Copy)]
enum NodeKind {
    /// Compute, all-reduce, optimizer or checkpoint span: program-order
    /// edges only. Carries the attribution class of its busy time.
    Local(SegClass),
    /// A p2p send; `ack` is the receive whose arrival frees its buffer
    /// slot (None while the window is filling).
    Send { ack: Option<NodeId> },
    /// A p2p recv, paired with `send`.
    Recv { send: Option<NodeId> },
}

/// The reconstructed structural graph over flattened node ids.
struct Structure {
    /// `offset[d]` — the node id of device `d`'s first span;
    /// `offset[devices]` is the node count.
    offset: Vec<usize>,
    /// One kind per node.
    kind: Vec<NodeKind>,
}

impl Structure {
    /// The node of span `i` of device `d`.
    #[inline]
    fn id(&self, d: usize, i: usize) -> usize {
        self.offset[d] + i
    }

    /// The `(device, index)` of node `v`.
    fn pos(&self, v: NodeId) -> (usize, usize) {
        let v = v as usize;
        let d = self.offset.partition_point(|&o| o <= v) - 1;
        (d, v - self.offset[d])
    }
}

/// Reconstructs pairing and capacity edges from the recorded link ends
/// and the channel capacity. Timestamps are never consulted.
fn build_structure(schedule: &Schedule, g: &SpanGraph) -> Structure {
    let devices = g.per_device.len();
    // Per link: its send nodes and its recv nodes, in FIFO order.
    let mut ends: Vec<(Vec<NodeId>, Vec<NodeId>)> = vec![Default::default(); g.links.len()];
    let mut offset = Vec::with_capacity(devices + 1);
    let mut kind = Vec::with_capacity(g.len());
    for (d, spans) in g.per_device.iter().enumerate() {
        offset.push(kind.len());
        let program = schedule.program(DeviceId(d as u32));
        for s in spans {
            let v = kind.len() as NodeId;
            kind.push(match s.link.get() {
                None => NodeKind::Local(classify(program, s)),
                Some((Dir::Send, k)) => {
                    ends[k].0.push(v);
                    NodeKind::Send { ack: None }
                }
                Some((Dir::Recv, k)) => {
                    ends[k].1.push(v);
                    NodeKind::Recv { send: None }
                }
            });
        }
    }
    offset.push(kind.len());
    // The k-th recv on a link pairs with its k-th send; the k-th send
    // waits for the (k − capacity)-th recv's arrival.
    let capacity = g.channel_capacity.max(1);
    for (sends, recvs) in &ends {
        for (k, &r) in recvs.iter().enumerate() {
            if let NodeKind::Recv { send } = &mut kind[r as usize] {
                *send = sends.get(k).copied();
            }
        }
        for (k, &v) in sends.iter().enumerate().skip(capacity) {
            if let NodeKind::Send { ack } = &mut kind[v as usize] {
                *ack = recvs.get(k - capacity).copied();
            }
        }
    }
    Structure { offset, kind }
}

/// Analyzes one recorded run: exact critical path, per-op slack,
/// per-link slack. The spans must come from the run's schedule (the `pc`
/// fields index its device programs) — both executors produce them, via
/// `record_spans` and the simulator's `SimTimeline::spans`.
pub fn analyze(schedule: &Schedule, g: &SpanGraph) -> CritReport {
    let st = build_structure(schedule, g);
    let (slack, link_slack) = compute_slack(g, &st);
    let (path, on_path) = walk_path(g, &st);
    let mut breakdown = PathBreakdown::default();
    for seg in &path {
        breakdown.add(seg.class, seg.len_ns());
    }
    debug_assert_eq!(
        breakdown.total(),
        g.makespan,
        "critical path does not tile the makespan"
    );
    CritReport {
        makespan: g.makespan,
        path,
        breakdown,
        slack,
        on_path,
        link_slack,
    }
}

/// Is this span's end gated by something other than its own start+work?
fn gated_by_wait(s: &OpSpan) -> bool {
    s.end > s.start + s.work_ns
}

/// Backward walk from the makespan: returns the path (increasing time)
/// and the on-path marking. Every hop follows the *binding* cause of the
/// current time, so segment lengths sum to the makespan exactly.
fn walk_path(g: &SpanGraph, st: &Structure) -> (Vec<PathSegment>, Vec<Vec<bool>>) {
    let mut on_path: Vec<Vec<bool>> = g.per_device.iter().map(|v| vec![false; v.len()]).collect();
    let mut segs: Vec<PathSegment> = Vec::new();
    // The makespan-defining device (ties: lowest id), walking from its
    // last span.
    let Some((mut d, _)) = g
        .per_device
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .max_by(|(da, a), (db, b)| {
            let ea = a.last().unwrap().end;
            let eb = b.last().unwrap().end;
            ea.cmp(&eb).then(db.cmp(da))
        })
    else {
        return (segs, on_path);
    };
    let mut i = g.per_device[d].len() - 1;
    loop {
        let s = g.per_device[d][i];
        let dev = DeviceId(d as u32);
        let kind = st.kind[st.id(d, i)];
        if gated_by_wait(&s) {
            match kind {
                NodeKind::Recv { send: Some(v) } => {
                    let (sd, sj) = st.pos(v);
                    // The wire gated: s.end == sent_at + wire.
                    on_path[d][i] = true;
                    segs.push(PathSegment {
                        device: dev,
                        start: s.sent_at,
                        end: s.end,
                        class: SegClass::Wire,
                        pc: s.pc,
                        iter: s.iter,
                    });
                    let send = g.per_device[sd][sj];
                    if s.sent_at > send.end {
                        // Injected link delay between the send completing
                        // and the packet departing.
                        segs.push(PathSegment {
                            device: dev,
                            start: send.end,
                            end: s.sent_at,
                            class: SegClass::Wire,
                            pc: s.pc,
                            iter: s.iter,
                        });
                    }
                    d = sd;
                    i = sj;
                    continue;
                }
                NodeKind::Send { ack: Some(v) } => {
                    // Capacity-blocked: the ack (the paired receive's
                    // arrival) equals s.end. The wait's extent is covered
                    // by the receiver's own chain; the send's launch
                    // happened before the wait and is off the path.
                    on_path[d][i] = true;
                    (d, i) = st.pos(v);
                    continue;
                }
                _ => {
                    // A wait with no recorded in-graph cause (a serving
                    // gate, or a missing pairing on a partial graph):
                    // exogenous bubble down to the intrinsic work.
                    on_path[d][i] = true;
                    let work_start = s.end - s.work_ns;
                    segs.push(PathSegment {
                        device: dev,
                        start: work_start,
                        end: s.end,
                        class: local_class(kind),
                        pc: s.pc,
                        iter: s.iter,
                    });
                    segs.push(PathSegment {
                        device: dev,
                        start: s.start,
                        end: work_start,
                        class: SegClass::Bubble,
                        pc: s.pc,
                        iter: s.iter,
                    });
                }
            }
        } else {
            // Plain span: its whole extent is on the path.
            on_path[d][i] = true;
            if s.end > s.start {
                segs.push(PathSegment {
                    device: dev,
                    start: s.start,
                    end: s.end,
                    class: local_class(kind),
                    pc: s.pc,
                    iter: s.iter,
                });
            }
        }
        // Continue on-device; at the stream head, what remains is the
        // startup offset.
        if i == 0 {
            let first = g.per_device[d][0];
            if first.start > 0 {
                segs.push(PathSegment {
                    device: dev,
                    start: 0,
                    end: first.start,
                    class: SegClass::Reconfig,
                    pc: CKPT_PC,
                    iter: 0,
                });
            }
            break;
        }
        i -= 1;
    }
    segs.reverse();
    (segs, on_path)
}

/// The attribution class of a span's own busy time.
fn local_class(kind: NodeKind) -> SegClass {
    match kind {
        NodeKind::Send { .. } | NodeKind::Recv { .. } => SegClass::CommLaunch,
        NodeKind::Local(class) => class,
    }
}

/// Per-op slack table plus per-link minimum headroom.
type SlackTables = (Vec<Vec<Nanos>>, Vec<((DeviceId, DeviceId), Nanos)>);

/// CPM slack: each span's latest completion is the makespan less its
/// tail (see [`Tails`]), and `slack = latest − end`. Per-link slack is the
/// minimum message headroom `latest(recv) − (sent_at + wire)` per directed
/// pair.
fn compute_slack(g: &SpanGraph, st: &Structure) -> SlackTables {
    let mut tails = Tails::default();
    let (lens, capacity) = (g.per_device.iter().map(Vec::len), g.channel_capacity.max(1));
    tails.run(lens, &g.links, capacity, |d, i| {
        let s = &g.per_device[d][i];
        // The wire edge: arrival >= send.end + delta + wire, where delta is
        // the injected delay between the send's end and the departure.
        let delta = match st.kind[st.id(d, i)] {
            NodeKind::Recv { send: Some(u) } => {
                let (sd, sj) = st.pos(u);
                s.sent_at.saturating_sub(g.per_device[sd][sj].end)
            }
            _ => 0,
        };
        Hop {
            own: s.work_ns,
            link: s.link.get(),
            wire: s.wire_ns + delta,
        }
    });
    // Slack per op, in place over the tails, and the least wire headroom
    // per link.
    let mut headroom: Vec<Option<Nanos>> = vec![None; g.links.len()];
    let mut slack = tails.tail;
    for (tail, spans) in slack.iter_mut().zip(&g.per_device) {
        for (t, s) in tail.iter_mut().zip(spans) {
            let latest = g.makespan.saturating_sub(*t);
            if let Some((Dir::Recv, k)) = s.link.get() {
                let h = latest.saturating_sub(s.sent_at + s.wire_ns);
                headroom[k] = Some(headroom[k].map_or(h, |l| l.min(h)));
            }
            *t = latest.saturating_sub(s.end);
        }
    }
    // Per directed pair, the least headroom over its links: the first
    // after sorting.
    let mut link_slack: Vec<_> = (g.links.iter().zip(headroom))
        .filter_map(|(&pair, h)| Some((pair, h?)))
        .collect();
    link_slack.sort_unstable_by_key(|&((s, r), h)| (s.0, r.0, h));
    link_slack.dedup_by_key(|&mut (pair, _)| pair);
    (slack, link_slack)
}

/// One step of a device's run, as [`Tails::run`] reads it.
pub(crate) struct Hop {
    /// The time the step adds to its program predecessor's finish.
    pub(crate) own: Nanos,
    /// The link end of a p2p step.
    pub(crate) link: Option<(Dir, usize)>,
    /// A receive's wire time, plus any injected link delay.
    pub(crate) wire: Nanos,
}

/// The longest path from each step's finish to the end of a run — its
/// *tail* — over the three edge families of the module docs, and the
/// buffers that compute it, which a caller may keep from run to run.
#[derive(Default)]
pub(crate) struct Tails {
    /// `tail[d][i]`: the tail of step `i` of device `d`.
    pub(crate) tail: Vec<Vec<Nanos>>,
    /// Per link, the link rule with the roles reversed: a receive pushes
    /// its wire time plus tail for its send to pop, and a send acks its
    /// tail to the receive `capacity` messages before it.
    fifos: Vec<Fifo<Nanos>>,
    /// Per device, how many of its steps have no tail yet, and the first
    /// step with one's own time plus tail (0 past the last step).
    left: Vec<(usize, Nanos)>,
}

impl Tails {
    /// Computes the tails of devices with `lens` steps each, joined by
    /// `links` (each link's sender and receiver) at `capacity`; `hop(d, i)`
    /// reads step `i` of device `d`. Every link carries as many receives
    /// as sends, as in a run that finished.
    ///
    /// Each device runs backward from a [`Ready`] queue until it blocks:
    /// a send on an empty link (its receive has no tail yet), a receive
    /// on a full window (the send `capacity` messages later has none).
    /// Every push or ack wakes the other end of its link, and Kahn
    /// determinacy makes the tails independent of the firing order.
    pub(crate) fn run(
        &mut self,
        lens: impl ExactSizeIterator<Item = usize>,
        links: &[(DeviceId, DeviceId)],
        capacity: usize,
        hop: impl Fn(usize, usize) -> Hop,
    ) {
        self.tail.resize_with(lens.len(), Vec::new);
        self.left.clear();
        for (tail, n) in self.tail.iter_mut().zip(lens) {
            tail.clear();
            tail.resize(n, 0);
            self.left.push((n, 0));
        }
        self.fifos.clear();
        self.fifos.resize_with(links.len(), Fifo::default);
        let mut ready = Ready::fifo(self.tail.len());
        while let Some(d) = ready.front() {
            let (mut i, mut after) = self.left[d];
            let tail = &mut self.tail[d];
            let blocked = loop {
                let Some(j) = i.checked_sub(1) else {
                    break None;
                };
                let h = hop(d, j);
                let mut t = after;
                match h.link {
                    None => {}
                    Some((Dir::Send, k)) => {
                        let fifo = &mut self.fifos[k];
                        let Some(arrival) = fifo.pop() else {
                            break Some(k);
                        };
                        t = t.max(arrival);
                        fifo.ack(t);
                        ready.wake(links[k].1.index(), k);
                    }
                    Some((Dir::Recv, k)) => {
                        let fifo = &mut self.fifos[k];
                        let Some(freed) = fifo.reserve(capacity) else {
                            break Some(k);
                        };
                        t = t.max(freed);
                        fifo.push(h.wire + t);
                        ready.wake(links[k].0.index(), k);
                    }
                }
                tail[j] = t;
                after = h.own + t;
                i = j;
            };
            self.left[d] = (i, after);
            ready.block(blocked);
        }
        debug_assert!(
            self.left.iter().all(|&(i, _)| i == 0),
            "the tail pass blocked (a structural cycle, or an unpaired message?)"
        );
    }
}

/// A counterfactual to re-time the recorded graph under.
#[derive(Debug, Clone)]
pub struct WhatIf<'a> {
    /// Perturbations applied *on top of* the recorded run: compute
    /// slowdowns (factors multiply the recorded, already-scaled work) and
    /// extra link latency (added to each packet's recorded departure
    /// delay).
    pub profile: &'a PerturbationProfile,
    /// Re-time as if checkpoint writes were free (both boundary writes
    /// and end-of-run drains).
    pub free_checkpoint: bool,
}

impl<'a> WhatIf<'a> {
    /// A counterfactual that only applies `profile`.
    pub fn perturb(profile: &'a PerturbationProfile) -> Self {
        Self {
            profile,
            free_checkpoint: false,
        }
    }
}

/// What [`whatif`] produces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WhatIfResult {
    /// Re-timed final clock per device.
    pub device_clocks: Vec<Nanos>,
    /// Re-timed makespan.
    pub makespan: Nanos,
}

/// Re-times the recorded graph under `w` without re-running any
/// executor: one forward max-plus replay over the recorded spans with
/// the executors' exact arithmetic (same launch charges, same
/// `arrival = max(ready, sent_at + wire)`, same ack-window blocking,
/// same `round(ns × factor)` scaling, same packet numbering), resumed
/// at the cut before the first span `w` re-times. See the module docs
/// for why the cut is exact and for the domain on which this equals a
/// ground-truth re-simulation.
pub fn whatif(schedule: &Schedule, g: &SpanGraph, w: &WhatIf<'_>) -> WhatIfResult {
    replay(schedule, g, w, first_retimed(schedule, g, w))
}

/// [`whatif`] replayed from time zero, for the tests that hold the cut
/// to it.
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub fn whatif_from_zero(schedule: &Schedule, g: &SpanGraph, w: &WhatIf<'_>) -> WhatIfResult {
    replay(schedule, g, w, 0)
}

/// The busy time `w` charges local span `s` of `dev`. Slowdowns scale
/// compute only, as the machine does: all-reduce and optimizer time hold.
#[inline]
fn busy(w: &WhatIf<'_>, program: &DeviceProgram, dev: DeviceId, s: &OpSpan) -> Nanos {
    let pc = s.pc as usize;
    if s.pc == CKPT_PC {
        if w.free_checkpoint {
            0
        } else {
            s.work_ns
        }
    } else if w.profile.compute_factor(dev, s.iter, pc) == 1.0
        || !program.get(pc).is_some_and(|x| x.kind.is_compute())
    {
        s.work_ns
    } else {
        w.profile.scaled_compute(dev, s.iter, pc, s.work_ns)
    }
}

/// The earliest recorded start of a span `w` re-times: a compute span
/// whose charge a slowdown changes, or a send a link delay hits, found
/// on the devices the profile names alone. 0 under `free_checkpoint`;
/// `Nanos::MAX` when `w` re-times nothing.
fn first_retimed(schedule: &Schedule, g: &SpanGraph, w: &WhatIf<'_>) -> Nanos {
    if w.free_checkpoint {
        return 0;
    }
    let p = w.profile;
    let slack = !p.link_slack.is_empty();
    let mut named: Vec<DeviceId> = p.slowdowns.iter().map(|s| s.device).collect();
    named.extend(p.link_slack.iter().map(|l| l.src));
    named.sort_unstable();
    named.dedup();
    let mut first = Nanos::MAX;
    for dev in named {
        let Some(spans) = g.per_device.get(dev.index()) else {
            continue;
        };
        let program = schedule.program(dev);
        let mut packets = PacketCounter::default();
        for s in spans.iter().take_while(|s| s.start < first) {
            let hit = match s.link.get() {
                None => busy(w, program, dev, s) != s.work_ns,
                // Numbered as the replay numbers them.
                Some((Dir::Send, k)) if slack => {
                    let peer = g.links[k].1;
                    p.link_extra(dev, peer, s.iter, packets.next(peer, s.iter)) != 0
                }
                Some(_) => false,
            };
            if hit {
                first = s.start;
                break;
            }
        }
    }
    first
}

/// One link's traffic before the cut: sends, receives, and the slot in
/// the link's ring of receive ends that the next receive fills.
#[derive(Clone, Copy, Default)]
struct Prefix {
    sent: usize,
    received: usize,
    slot: usize,
}

/// [`whatif`] from the cut at `cut`: every span that ended before it
/// keeps its recorded times, and the replay re-times the rest.
fn replay(schedule: &Schedule, g: &SpanGraph, w: &WhatIf<'_>, cut: Nanos) -> WhatIfResult {
    let devices = g.per_device.len();
    let capacity = g.channel_capacity.max(1);
    let slack = !w.profile.link_slack.is_empty();
    let mut clock = vec![0; devices];
    let mut next = vec![0usize; devices];
    let mut packets = vec![PacketCounter::default(); devices];
    // Per link, its traffic before the cut and the ends of its last
    // `capacity` receives there, which hold every ack no send consumed.
    let mut prefix = vec![Prefix::default(); g.links.len()];
    let mut ring: Vec<Nanos> = vec![0; g.links.len() * capacity];
    for (d, spans) in g.per_device.iter().enumerate() {
        // Spans tile the clock, so their ends ascend.
        let resume = spans.partition_point(|s| s.end < cut);
        (clock[d], next[d]) = match resume {
            0 => (spans.first().map_or(0, |s| s.start), 0),
            i => (spans[i - 1].end, i),
        };
        for s in &spans[..resume] {
            match s.link.get() {
                None => {}
                Some((Dir::Send, k)) => {
                    prefix[k].sent += 1;
                    if slack {
                        packets[d].next(g.links[k].1, s.iter);
                    }
                }
                Some((Dir::Recv, k)) => {
                    let l = &mut prefix[k];
                    ring[k * capacity + l.slot] = s.end;
                    l.slot += 1;
                    if l.slot == capacity {
                        l.slot = 0;
                    }
                    l.received += 1;
                }
            }
        }
    }
    // Per link, in FIFO order: each packet's re-timed departure before
    // the recorded injected delay, and the recorded end of its send, from
    // which the receiver measures that delay. A packet sent before the
    // cut departed at its send's recorded end, so its receiver reads its
    // own recorded `sent_at`: `(0, 0)` stands for any such pair.
    let mut fifos: Vec<Fifo<(Nanos, Nanos)>> = prefix
        .iter()
        .enumerate()
        .map(|(k, l)| {
            let ring = &ring[k * capacity..(k + 1) * capacity];
            Fifo::after(
                capacity,
                l.sent,
                l.received,
                |_| (0, 0),
                |j| ring[j % capacity],
            )
        })
        .collect();

    loop {
        let mut progressed = false;
        for d in 0..devices {
            let dev = DeviceId(d as u32);
            let program = schedule.program(dev);
            let spans = &g.per_device[d];
            let (mut t, mut i) = (clock[d], next[d]);
            while let Some(s) = spans.get(i) {
                match s.link.get() {
                    // The serving gate is exogenous: it holds under any
                    // counterfactual.
                    None => t = t.max(s.gate_ns) + busy(w, program, dev, s),
                    Some((Dir::Send, k)) => {
                        let chan = &mut fifos[k];
                        // A full window waits for the oldest arrival.
                        let Some(freed) = chan.reserve(capacity) else {
                            break; // blocked: peer must advance
                        };
                        t = (t + s.work_ns).max(freed);
                        let extra = if slack {
                            let peer = g.links[k].1;
                            let nth = packets[d].next(peer, s.iter);
                            w.profile.link_extra(dev, peer, s.iter, nth)
                        } else {
                            0
                        };
                        chan.push((t + extra, s.end));
                    }
                    Some((Dir::Recv, k)) => {
                        let chan = &mut fifos[k];
                        let Some((departed, send_end)) = chan.pop() else {
                            break; // blocked: sender must advance
                        };
                        // The recorded departure minus the send's recorded
                        // completion: an injected link delay, 0 otherwise.
                        let sent = departed + s.sent_at.saturating_sub(send_end);
                        t = (t + s.work_ns).max(sent + s.wire_ns);
                        chan.ack(t);
                    }
                }
                i += 1;
            }
            progressed |= i != next[d];
            (clock[d], next[d]) = (t, i);
        }
        if !progressed {
            break;
        }
    }
    debug_assert!(
        (0..devices).all(|d| next[d] == g.per_device[d].len()),
        "what-if replay did not quiesce (structural deadlock in recording?)"
    );
    WhatIfResult {
        makespan: clock.iter().copied().max().unwrap_or(0),
        device_clocks: clock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{simulate, simulate_timeline, SimOptions, SimTimeline};
    use mario_ir::{
        CheckpointPolicy, Instr, LinkSlack, SchemeKind, SlowdownWindow, Topology, UnitCost,
    };
    use mario_schedules::{generate, ScheduleConfig};

    fn run(scheme: SchemeKind, devices: u32, micros: u32) -> (mario_ir::Schedule, SimTimeline) {
        let s = generate(ScheduleConfig::new(scheme, devices, micros));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        (s, t)
    }

    /// The DP ground truth for one iteration on the cluster `profile`
    /// describes.
    fn resimulate(s: &mario_ir::Schedule, profile: &PerturbationProfile) -> SimTimeline {
        let opts = SimOptions {
            profile,
            ..SimOptions::default()
        };
        simulate(s, &UnitCost::paper_grid(), &opts).unwrap()
    }

    /// Two iterations at capacity `cap` under `checkpoint`.
    fn two_iters(
        s: &mario_ir::Schedule,
        cap: usize,
        checkpoint: Option<CheckpointPolicy>,
    ) -> SimTimeline {
        let opts = SimOptions {
            channel_capacity: cap,
            iterations: 2,
            checkpoint,
            ..SimOptions::default()
        };
        simulate(s, &UnitCost::paper_grid(), &opts).unwrap()
    }

    /// The path tiles [0, makespan] exactly: contiguous, in order, and
    /// the per-class breakdown reconciles bit for bit.
    fn assert_path_invariants(report: &CritReport) {
        assert_eq!(report.breakdown.total(), report.makespan);
        let mut cursor = 0;
        for seg in &report.path {
            assert_eq!(seg.start, cursor, "path has a gap or overlap");
            assert!(seg.end >= seg.start);
            cursor = seg.end;
        }
        assert_eq!(cursor, report.makespan, "path does not reach the makespan");
    }

    #[test]
    fn path_tiles_makespan_all_schemes() {
        for (scheme, cap) in [
            (SchemeKind::GPipe, 1),
            (SchemeKind::OneFOneB, 1),
            (SchemeKind::Chimera, 2),
            (SchemeKind::Interleave { chunks: 2 }, 2),
            (SchemeKind::Wave { chunks: 2 }, 2),
            (SchemeKind::ForwardOnly, 1),
            (SchemeKind::ZeroBubbleH1, 1),
            (SchemeKind::ZeroBubbleV, 2),
        ] {
            let s = generate(ScheduleConfig::new(scheme, 4, 8));
            let t = two_iters(&s, cap, None);
            let report = analyze(&s, &t.spans);
            assert_eq!(report.makespan, t.total_ns, "{scheme:?}");
            assert_path_invariants(&report);
            // Training runs have no exogenous gates: the path never
            // contains a bubble, and every on-path op has zero slack.
            assert_eq!(report.breakdown.bubble_ns, 0, "{scheme:?}");
            for (d, ops) in report.on_path.iter().enumerate() {
                for (i, &on) in ops.iter().enumerate() {
                    if on {
                        assert_eq!(
                            report.slack[d][i], 0,
                            "{scheme:?}: on-path op (d{d}, #{i}) has slack"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zb_h1_path_shorter_than_1f1b_by_closed_form() {
        // 1F1B makespan (3m + 3(p-1))t vs ZB-H1 (3m + 2(p-1))t: the
        // critical path is exactly (p-1)t shorter.
        for (p, m) in [(2u32, 4u32), (4, 8), (8, 16)] {
            let (s1, t1) = run(SchemeKind::OneFOneB, p, m);
            let (sz, tz) = run(SchemeKind::ZeroBubbleH1, p, m);
            let r1 = analyze(&s1, &t1.spans);
            let rz = analyze(&sz, &tz.spans);
            assert_path_invariants(&r1);
            assert_path_invariants(&rz);
            assert_eq!(
                r1.makespan - rz.makespan,
                ((p - 1) * 1_000) as u64,
                "p={p} m={m}"
            );
        }
    }

    #[test]
    fn one_f_one_b_last_stage_warmup_recv_has_zero_slack() {
        // The last stage of 1F1B is busy back-to-back from its first
        // activation's arrival to the end of the iteration: its warmup
        // recv sits on the critical path and has zero slack.
        let (s, t) = run(SchemeKind::OneFOneB, 4, 8);
        let report = analyze(&s, &t.spans);
        let last = 3usize;
        let program = s.program(DeviceId(last as u32));
        let first_recv = t.spans.per_device[last]
            .iter()
            .position(|sp| {
                sp.pc != CKPT_PC
                    && matches!(
                        program.get(sp.pc as usize).map(|x| x.kind),
                        Some(InstrKind::RecvAct { .. })
                    )
            })
            .expect("last stage has a warmup recv");
        assert_eq!(report.slack[last][first_recv], 0);
        assert!(report.on_path[last][first_recv]);
    }

    #[test]
    fn zb_h1_backfilled_bw_slack_equals_the_bubble_it_fills() {
        // A ZB-H1 weight-gradient op backfilled in front of a critical
        // wire-gated recv can slow by exactly the recv's idle gap before
        // the makespan moves: slack(Bw) == the bubble it fills.
        let (s, t) = run(SchemeKind::ZeroBubbleH1, 4, 8);
        let report = analyze(&s, &t.spans);
        let mut checked = 0;
        for (d, spans) in t.spans.per_device.iter().enumerate() {
            let program = s.program(DeviceId(d as u32));
            for i in 0..spans.len().saturating_sub(1) {
                let cur = spans[i];
                let nxt = spans[i + 1];
                let is_bw = cur.pc != CKPT_PC
                    && matches!(
                        program.get(cur.pc as usize).map(|x| x.kind),
                        Some(InstrKind::BackwardWeight)
                    );
                let nxt_gap = nxt.end.saturating_sub(nxt.start + nxt.work_ns);
                // Successor: a critical (slack-0) arrival-gated recv.
                let nxt_recv = nxt.pc != CKPT_PC
                    && matches!(
                        program.get(nxt.pc as usize).map(|x| x.kind),
                        Some(InstrKind::RecvAct { .. } | InstrKind::RecvGrad { .. })
                    );
                if is_bw && nxt_recv && nxt_gap > 0 && report.slack[d][i + 1] == 0 {
                    assert_eq!(
                        report.slack[d][i], nxt_gap,
                        "d{d} op#{i}: Bw slack != bubble"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no backfilled Bw found in ZB-H1");
    }

    /// The premise of the cut: an unperturbed replay from time zero
    /// reproduces the recording, whatever shaped it.
    #[test]
    fn whatif_identity_reproduces_the_recording() {
        use mario_cluster::{run_with_faults, EmulatorConfig, FaultKind, FaultPlan};
        use mario_ir::ShardedWrite;

        let sim = |s: &mario_ir::Schedule, cost: &UnitCost, opts: &SimOptions| {
            let t = simulate(s, cost, opts).unwrap();
            (t.spans, t.device_clocks, t.total_ns)
        };
        let grid = UnitCost::paper_grid();
        let one_f_one_b = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let mut recordings = Vec::new();
        for scheme in [SchemeKind::OneFOneB, SchemeKind::ZeroBubbleH1] {
            let s = generate(ScheduleConfig::new(scheme, 4, 8));
            let recorded = sim(&s, &grid, &SimOptions::default());
            recordings.push((format!("{scheme:?}"), s, recorded));
        }
        // Checkpoint chunks drained into two iterations' bubbles.
        let shards = grid.with_shard_bytes(60_000);
        let overlap = CheckpointPolicy::every(1)
            .with_sharded(ShardedWrite::new(2_000, 500).with_async_overlap());
        let opts = SimOptions {
            iterations: 2,
            checkpoint: Some(overlap),
            ..SimOptions::default()
        };
        let t = simulate(&one_f_one_b, &shards, &opts).unwrap();
        assert!(t.telemetry.total_ckpt_absorbed_ns() > 0, "no chunk drained");
        let recorded = (t.spans, t.device_clocks, t.total_ns);
        recordings.push(("async overlap".into(), one_f_one_b.clone(), recorded));
        // Startup offsets, as an elastic reconfiguration charges them.
        let startup = [3_000, 0, 1_500, 7_000];
        let opts = SimOptions {
            startup: &startup,
            ..SimOptions::default()
        };
        let recorded = sim(&one_f_one_b, &grid, &opts);
        recordings.push(("startup offsets".into(), one_f_one_b.clone(), recorded));
        // Serving release gates.
        let serving = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 4, 4));
        let release = [0, 10_000, 20_000, 30_000];
        let opts = SimOptions {
            release: Some(&release),
            ..SimOptions::default()
        };
        let recorded = sim(&serving, &grid, &opts);
        recordings.push(("serving gates".into(), serving, recorded));
        // A straggler and a late packet, absorbed by the run.
        let plan = FaultPlan::none()
            .with(FaultKind::Slowdown {
                device: DeviceId(1),
                factor: 2.5,
                from_pc: 4,
                until_pc: 20,
            })
            .with(FaultKind::LinkDelay {
                src: DeviceId(2),
                dst: DeviceId(1),
                nth: 3,
                extra_ns: 900,
            });
        let cfg = EmulatorConfig {
            iterations: 2,
            record_spans: true,
            ..EmulatorConfig::default()
        };
        let r = run_with_faults(&one_f_one_b, &grid, cfg, &plan).unwrap();
        assert_eq!(r.faults.len(), 2, "both faults absorbed");
        let recorded = (r.spans.unwrap(), r.device_clocks, r.total_ns);
        recordings.push(("absorbed faults".into(), one_f_one_b, recorded));

        let identity = WhatIf::perturb(PerturbationProfile::pristine());
        for (name, s, (g, clocks, makespan)) in &recordings {
            for w in [replay(s, g, &identity, 0), whatif(s, g, &identity)] {
                assert_eq!(&w.device_clocks, clocks, "{name}");
                assert_eq!(w.makespan, *makespan, "{name}");
            }
        }
    }

    /// How much less wall time the cut takes than the replay from time
    /// zero, on the perf benchmark's whatif-64 recording (1F1B at 64×32
    /// after passes 1–3, two event-backend iterations with a sharded
    /// synchronous checkpoint) under its query mix: a slowdown over a
    /// window of one device's program, or one late packet between
    /// neighbours, each scoped to one iteration. Asserts equal answers and
    /// prints the median of the per-op ratios (16 queries an op) and the
    /// mean share of spans that end before the cut. Release only:
    /// `cargo test --release -p mario-core --lib whatif_cut -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn whatif_cut_to_zero_wall_time_ratio() {
        use crate::passes::{apply_checkpoint, overlap_recompute, remove_redundancy};
        use mario_cluster::{run_with_faults, EmulatorConfig, FaultKind, FaultPlan};
        use mario_ir::{min_channel_capacity, ShardedWrite};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::time::Instant;

        let (devices, micros, iters) = (64u32, 32u32, 2u32);
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, devices, micros));
        apply_checkpoint(&mut s);
        overlap_recompute(&mut s);
        remove_redundancy(&mut s);
        let cfg = EmulatorConfig {
            iterations: iters,
            channel_capacity: min_channel_capacity(&s).unwrap_or(1),
            checkpoint: Some(
                CheckpointPolicy::every(1).with_sharded(ShardedWrite::new(2_000, 500)),
            ),
            record_spans: true,
            ..EmulatorConfig::default()
        };
        let cost = UnitCost::paper_grid().with_shard_bytes(60_000);
        let recording = run_with_faults(&s, &cost, cfg, &FaultPlan::none()).expect("1F1B runs");
        let g = recording.spans.as_ref().expect("spans recorded");
        let mut rng = StdRng::seed_from_u64(1);
        let mut skipped = 0.0;
        let mut ratios: Vec<f64> = (0..31)
            .map(|op| {
                let profiles: Vec<_> = (0..16)
                    .map(|_| {
                        let fault = if rng.gen_bool(0.5) {
                            let device = DeviceId(rng.gen_range(0..devices));
                            let len = s.program(device).len();
                            let from_pc = rng.gen_range(0..len);
                            FaultKind::Slowdown {
                                device,
                                factor: [1.25, 1.5, 2.0, 3.0][rng.gen_range(0..4usize)],
                                from_pc,
                                until_pc: rng.gen_range(from_pc + 1..=len),
                            }
                        } else {
                            let a = rng.gen_range(0..devices - 1);
                            let (src, dst) = if rng.gen_bool(0.5) {
                                (a, a + 1)
                            } else {
                                (a + 1, a)
                            };
                            FaultKind::LinkDelay {
                                src: DeviceId(src),
                                dst: DeviceId(dst),
                                nth: rng.gen_range(0..micros as usize),
                                extra_ns: 100 * rng.gen_range(1..=50u64),
                            }
                        };
                        let plan = FaultPlan::none().with(fault);
                        plan.at_iteration(rng.gen_range(0..iters))
                            .perturbation_profile()
                    })
                    .collect();
                let time = |cut: bool| {
                    let t = Instant::now();
                    let answers: Vec<_> = profiles
                        .iter()
                        .map(|p| {
                            let w = WhatIf::perturb(p);
                            if cut {
                                whatif(&s, g, &w)
                            } else {
                                replay(&s, g, &w, 0)
                            }
                        })
                        .collect();
                    (t.elapsed().as_secs_f64(), answers)
                };
                let total = g.len() as f64;
                skipped += profiles
                    .iter()
                    .map(|p| {
                        let cut = first_retimed(&s, g, &WhatIf::perturb(p));
                        let before = |spans: &Vec<OpSpan>| spans.partition_point(|x| x.end < cut);
                        g.per_device.iter().map(before).sum::<usize>() as f64 / total
                    })
                    .sum::<f64>();
                // Alternate which side runs first.
                let ((cut_s, cut), (zero_s, zero)) = if op % 2 == 0 {
                    (time(true), time(false))
                } else {
                    let zero = time(false);
                    (time(true), zero)
                };
                assert_eq!(cut, zero, "op {op}");
                cut_s / zero_s
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        println!(
            "what-if cut / zero wall time: median {:.2}; {:.0}% of spans before the cut",
            ratios[ratios.len() / 2],
            100.0 * skipped / (31.0 * 16.0)
        );
    }

    #[test]
    fn whatif_straggler_matches_ground_truth_resimulation() {
        let (s, t) = run(SchemeKind::OneFOneB, 4, 8);
        for dev in 0..4u32 {
            let profile =
                PerturbationProfile::identity().with_straggler(DeviceId(dev), 3.0);
            let truth = resimulate(&s, &profile);
            let w = whatif(&s, &t.spans, &WhatIf::perturb(&profile));
            assert_eq!(w.makespan, truth.total_ns, "straggler d{dev}");
            assert_eq!(w.device_clocks, truth.device_clocks, "straggler d{dev}");
        }
    }

    #[test]
    fn whatif_windowed_slowdown_matches_ground_truth() {
        let (s, t) = run(SchemeKind::ZeroBubbleH1, 4, 8);
        let profile = PerturbationProfile::identity().with_slowdown(SlowdownWindow {
            device: DeviceId(1),
            factor: 2.5,
            from_pc: 3,
            until_pc: 17,
            iteration: Some(0),
        });
        let truth = resimulate(&s, &profile);
        let w = whatif(&s, &t.spans, &WhatIf::perturb(&profile));
        assert_eq!(w.makespan, truth.total_ns);
        assert_eq!(w.device_clocks, truth.device_clocks);
    }

    #[test]
    fn whatif_link_latency_matches_ground_truth() {
        let (s, t) = run(SchemeKind::OneFOneB, 4, 8);
        for (nth, iteration) in [(None, None), (Some(2), Some(0))] {
            let profile = PerturbationProfile::identity().with_link_slack(LinkSlack {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth,
                extra_ns: 700,
                iteration,
            });
            let truth = resimulate(&s, &profile);
            let w = whatif(&s, &t.spans, &WhatIf::perturb(&profile));
            assert_eq!(w.makespan, truth.total_ns, "nth={nth:?}");
            assert_eq!(w.device_clocks, truth.device_clocks, "nth={nth:?}");
        }
    }

    #[test]
    fn whatif_free_checkpoint_matches_policy_free_resimulation() {
        // Record WITH a synchronous flat checkpoint, re-time with
        // free_checkpoint: must equal the ground-truth run without any
        // checkpoint overhead.
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let identity = PerturbationProfile::identity();
        let policy = CheckpointPolicy::every(1).with_write_ns(5_000);
        let ck = two_iters(&s, 1, Some(policy));
        let free = two_iters(&s, 1, None);
        let w = whatif(
            &s,
            &ck.spans,
            &WhatIf {
                profile: &identity,
                free_checkpoint: true,
            },
        );
        assert_eq!(w.makespan, free.total_ns);
        assert_eq!(w.device_clocks, free.device_clocks);
        // And the recorded run attributes the write to the path.
        let report = analyze(&s, &ck.spans);
        assert_path_invariants(&report);
        assert!(report.breakdown.ckpt_ns > 0);
    }

    #[test]
    fn a_device_sending_to_itself_replays_and_tiles() {
        // d0 sends an activation to itself and one to d1, which answers
        // with a gradient. Both ends of the self-link sit on d0, so a
        // span's direction cannot be read off the link's endpoints.
        let (d0, d1) = (DeviceId(0), DeviceId(1));
        let mut s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 2), 1, vec![0]);
        *s.program_mut(d0) = DeviceProgram::from_instrs(
            d0,
            vec![
                Instr::forward(0u32, 0u32),
                Instr::send_act(0u32, 0u32, d0),
                Instr::recv_act(0u32, 0u32, d0),
                Instr::send_act(0u32, 0u32, d1),
                Instr::recv_grad(0u32, 0u32, d1),
                Instr::backward(0u32, 0u32),
            ],
        );
        *s.program_mut(d1) = DeviceProgram::from_instrs(
            d1,
            vec![
                Instr::recv_act(0u32, 0u32, d0),
                Instr::forward(0u32, 0u32),
                Instr::backward(0u32, 0u32),
                Instr::send_grad(0u32, 0u32, d0),
            ],
        );
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert_eq!(t.device_clocks, vec![6_000, 4_000]);
        assert_eq!(t.spans.links[0], (d0, d0));
        let identity = PerturbationProfile::identity();
        let w = whatif(&s, &t.spans, &WhatIf::perturb(&identity));
        assert_eq!(w.device_clocks, t.device_clocks);
        assert_eq!(w.makespan, t.total_ns);
        for dev in [d0, d1] {
            let profile = identity.clone().with_straggler(dev, 3.0);
            let w = whatif(&s, &t.spans, &WhatIf::perturb(&profile));
            assert_eq!(w.device_clocks, resimulate(&s, &profile).device_clocks);
        }
        let report = analyze(&s, &t.spans);
        assert_eq!(report.makespan, t.total_ns);
        assert_path_invariants(&report);
    }

    #[test]
    fn serving_gate_shows_up_as_path_bubble() {
        // A held ingress release starves the pipeline: the wait must
        // surface on the path as an exogenous bubble, and the path must
        // still tile the makespan exactly.
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 4, 4));
        let release: Vec<Nanos> = vec![0, 10_000, 20_000, 30_000];
        let opts = SimOptions {
            release: Some(&release),
            ..SimOptions::default()
        };
        let t = simulate(&s, &UnitCost::paper_grid(), &opts).unwrap();
        let report = analyze(&s, &t.spans);
        assert_path_invariants(&report);
        assert!(report.breakdown.bubble_ns > 0, "gate wait not attributed");
    }

    #[test]
    fn link_slack_is_positive_off_the_critical_chain() {
        let (s, t) = run(SchemeKind::OneFOneB, 4, 8);
        let report = analyze(&s, &t.spans);
        assert!(!report.link_slack.is_empty());
        // Zero-cost wires: every recorded message arrived instantly, so
        // headroom is bounded by the receiver's own latest-start time and
        // is never "negative" (saturated at 0 on the critical chain).
        for ((src, dst), ns) in &report.link_slack {
            assert!(src.0 != dst.0);
            let _ = ns;
        }
    }

    #[test]
    fn nodes_stay_small() {
        // One node per recorded span: a class, a send's ack, or a
        // receive's paired send.
        assert!(std::mem::size_of::<NodeKind>() <= 16);
    }

    #[test]
    fn top_path_ops_are_sorted_and_bounded() {
        let (s, t) = run(SchemeKind::OneFOneB, 4, 8);
        let report = analyze(&s, &t.spans);
        let top = report.top_path_ops(5);
        assert!(top.len() <= 5);
        for w in top.windows(2) {
            assert!(w[0].len_ns() >= w[1].len_ns());
        }
        assert!(top.iter().all(|o| !matches!(o.class, SegClass::Bubble)));
    }
}
