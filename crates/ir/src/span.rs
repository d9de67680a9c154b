//! The executed span graph — the causal layer under the telemetry
//! flight recorder.
//!
//! [`crate::Telemetry`] says *where* a device's nanoseconds went (nine
//! classes summing to the clock); the span graph says *why*: one
//! [`OpSpan`] per executed instruction occurrence records when the device
//! reached it, when it completed, how much intrinsic busy time it
//! charged, which end of which link a send or receive used ([`LinkEnd`],
//! the link the executor already resolved through its `LinkTable`), and
//! — for receives — when the matching packet departed its sender and how
//! long the wire took. The graph carries every link's `(src, dst)` by
//! link number. Everything else a critical-path analyzer needs (program
//! order, FIFO send/recv pairing, the bounded channel's capacity acks)
//! is *structural*: it follows from the recorded link ends, program order
//! and the channel capacity alone and is timing-independent, so it is
//! deliberately not captured.
//!
//! The emulator (`mario-cluster`) populates the graph through its one
//! machine, and the simulator (`mario-core`) is a zero-jitter
//! event-backend run, so the bit-for-bit parity invariant extends from
//! clocks and telemetry down to every span field. The
//! spans are numeric-only (no rendered instruction names): the `pc`
//! indexes the device program, so renderers resolve names through the
//! schedule and parity comparisons stay pure integer equality.

use crate::cost::Nanos;
use crate::ids::DeviceId;
use crate::link::Dir;
use serde::{Deserialize, Serialize};

/// The `pc` recorded on spans that do not correspond to a program
/// instruction: end-of-iteration checkpoint-boundary writes (`CKPT`) and
/// the end-of-run residue drain.
pub const CKPT_PC: u32 = u32::MAX;

/// The end of a link a span used: none, the send end of link `k` or the
/// receive end of link `k`, where `k` numbers the run's `LinkTable`.
/// Packed as `2k + (1 for a receive)`, with `u32::MAX` for none, so it
/// fits the four padding bytes of [`OpSpan`]. The direction is recorded,
/// not inferred from the link's endpoints: a device that sends to itself
/// owns both ends of one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct LinkEnd(u32);

impl LinkEnd {
    /// No link: a compute, collective or checkpoint span.
    pub const NONE: Self = Self(u32::MAX);

    /// The `dir` end of link `link`.
    #[inline]
    pub fn new(dir: Dir, link: usize) -> Self {
        debug_assert!(link < (u32::MAX >> 1) as usize, "link number {link} overflows");
        Self((link as u32) << 1 | (dir == Dir::Recv) as u32)
    }

    /// The direction and link number, or `None`.
    #[inline]
    pub fn get(self) -> Option<(Dir, usize)> {
        (self != Self::NONE).then(|| {
            let dir = if self.0 & 1 == 0 { Dir::Send } else { Dir::Recv };
            (dir, (self.0 >> 1) as usize)
        })
    }
}

/// One executed instruction occurrence.
///
/// Timing invariants (shared by all executors):
///
/// * computes: `end == max(start, gate_ns) + work_ns` (the gate is the
///   serving ingress release; 0 outside serving mode);
/// * sends: `end == max(start + work_ns, freed)` where `freed` is the
///   capacity-ack time — the arrival of the `(k - capacity)`-th receive
///   on the same channel, recoverable structurally;
/// * receives: `end == max(start + work_ns, sent_at + wire_ns)`;
/// * everything else: `end == start + work_ns`.
///
/// Within a device, spans tile the clock: each span's `start` is the
/// previous span's `end` (the first starts at the startup offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpSpan {
    /// Executing device.
    pub device: DeviceId,
    /// Training iteration (0-based).
    pub iter: u32,
    /// Index into the device program, or [`CKPT_PC`] for checkpoint
    /// boundary/drain spans.
    pub pc: u32,
    /// Sends and receives: the link end the executor resolved.
    /// [`LinkEnd::NONE`] otherwise.
    pub link: LinkEnd,
    /// Device clock when the instruction was reached.
    pub start: Nanos,
    /// Device clock when it completed.
    pub end: Nanos,
    /// Intrinsic busy time charged: compute duration (slowdown-scaled),
    /// p2p launch overhead (sends *and* receives), all-reduce, optimizer
    /// or synchronously paid checkpoint-write time.
    pub work_ns: Nanos,
    /// Receives: the matching packet's departure timestamp, including any
    /// link-fault/perturbation delay. 0 otherwise.
    pub sent_at: Nanos,
    /// Receives: the wire transfer duration `p2p_time_between(src, dst,
    /// bytes)`. 0 otherwise.
    pub wire_ns: Nanos,
    /// Serving mode: the exogenous ingress release gate on first-stage
    /// forwards (the wall-clock time before which the micro-batch may not
    /// start). 0 otherwise.
    pub gate_ns: Nanos,
}

impl OpSpan {
    /// The span of a checkpoint write (a boundary or the end-of-run
    /// residue) on `device` in iteration `iter`, busy from `start` to
    /// `end`.
    pub fn checkpoint(device: DeviceId, iter: u32, start: Nanos, end: Nanos) -> Self {
        Self {
            device,
            iter,
            pc: CKPT_PC,
            link: LinkEnd::NONE,
            start,
            end,
            work_ns: end - start,
            sent_at: 0,
            wire_ns: 0,
            gate_ns: 0,
        }
    }

    /// True for checkpoint boundary/drain spans (no program instruction).
    pub fn is_ckpt(&self) -> bool {
        self.pc == CKPT_PC
    }

    /// The span's wall-clock extent.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }

    /// Idle time inside the span: the extent not covered by intrinsic
    /// work (a blocked send, a recv wait, or a serving release wait).
    pub fn idle_ns(&self) -> Nanos {
        self.duration().saturating_sub(self.work_ns)
    }
}

// Four `u32`s and six `Nanos`: the link end lives in what would be
// padding. A span per executed instruction occurrence adds up.
const _: () = assert!(std::mem::size_of::<OpSpan>() == 64);

/// The executed span graph of one run: per-device spans in execution
/// (= program) order, the endpoints of every link the spans name, and
/// the run-level constants structural edge reconstruction needs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanGraph {
    /// `spans[d]` — device `d`'s spans in execution order, tiling
    /// `[startup_offset, device_clock]`.
    pub per_device: Vec<Vec<OpSpan>>,
    /// `links[k]` — the `(src, dst)` of link `k`, the number a span's
    /// [`LinkEnd`] names.
    pub links: Vec<(DeviceId, DeviceId)>,
    /// The bounded-channel depth the run executed under (capacity acks:
    /// the `k`-th send on a channel waits for the `(k - capacity)`-th
    /// receive's arrival).
    pub channel_capacity: usize,
    /// The run makespan (max device clock).
    pub makespan: Nanos,
}

impl SpanGraph {
    /// An empty graph for `devices` devices at `channel_capacity`.
    pub fn new(devices: usize, channel_capacity: usize) -> Self {
        Self {
            per_device: vec![Vec::new(); devices],
            links: Vec::new(),
            channel_capacity,
            makespan: 0,
        }
    }

    /// Records one span (appended to its device's stream).
    pub fn push(&mut self, span: OpSpan) {
        let d = span.device.0 as usize;
        if d >= self.per_device.len() {
            self.per_device.resize(d + 1, Vec::new());
        }
        self.per_device[d].push(span);
    }

    /// Total spans across devices.
    pub fn len(&self) -> usize {
        self.per_device.iter().map(Vec::len).sum()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.per_device.iter().all(Vec::is_empty)
    }

    /// Checks the per-device tiling invariant: spans are contiguous
    /// (`span[i].start == span[i-1].end`) and each device's last `end`
    /// equals its clock. Returns the offending device on failure.
    pub fn check_tiling(&self, device_clocks: &[Nanos]) -> Result<(), DeviceId> {
        for (d, spans) in self.per_device.iter().enumerate() {
            let dev = DeviceId(d as u32);
            let mut cursor = spans.first().map(|s| s.start);
            for s in spans {
                if Some(s.start) != cursor || s.end < s.start {
                    return Err(dev);
                }
                cursor = Some(s.end);
            }
            if let (Some(last), Some(&clock)) = (spans.last(), device_clocks.get(d)) {
                if last.end != clock {
                    return Err(dev);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(device: u32, start: Nanos, end: Nanos) -> OpSpan {
        OpSpan {
            device: DeviceId(device),
            iter: 0,
            pc: 0,
            link: LinkEnd::NONE,
            start,
            end,
            work_ns: end - start,
            sent_at: 0,
            wire_ns: 0,
            gate_ns: 0,
        }
    }

    #[test]
    fn push_grows_and_indexes_by_device() {
        let mut g = SpanGraph::new(1, 1);
        g.push(span(2, 0, 5));
        g.push(span(0, 0, 3));
        assert_eq!(g.per_device.len(), 3);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.per_device[2][0].end, 5);
    }

    #[test]
    fn tiling_accepts_contiguous_and_rejects_holes() {
        let mut g = SpanGraph::new(1, 1);
        g.push(span(0, 0, 3));
        g.push(span(0, 3, 7));
        assert_eq!(g.check_tiling(&[7]), Ok(()));
        // Clock mismatch.
        assert_eq!(g.check_tiling(&[9]), Err(DeviceId(0)));
        // A hole between spans.
        g.push(span(0, 8, 9));
        assert_eq!(g.check_tiling(&[9]), Err(DeviceId(0)));
    }

    #[test]
    fn idle_is_extent_minus_work() {
        let mut s = span(0, 10, 20);
        s.work_ns = 4;
        assert_eq!(s.duration(), 10);
        assert_eq!(s.idle_ns(), 6);
        assert!(!s.is_ckpt());
        s.pc = CKPT_PC;
        assert!(s.is_ckpt());
    }

    #[test]
    fn link_ends_round_trip() {
        assert_eq!(LinkEnd::NONE.get(), None);
        for k in [0, 1, 7, (u32::MAX >> 1) as usize - 1] {
            for dir in [Dir::Send, Dir::Recv] {
                assert_eq!(LinkEnd::new(dir, k).get(), Some((dir, k)));
            }
        }
        assert_ne!(LinkEnd::new(Dir::Send, 3), LinkEnd::new(Dir::Recv, 3));
    }
}
