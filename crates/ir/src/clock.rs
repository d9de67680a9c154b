//! The device clock: the one rule that advances a device's virtual time.
//!
//! Every timed executor — the emulator's per-device machine
//! (`mario-cluster`), which the simulator runs, and the makespan sweep
//! (`mario-core`) — keeps one [`DeviceClock`] per device and moves time
//! only through it. The clock
//! owns everything a time advance touches: the [`TimeClasses`] each
//! nanosecond is charged to, the in-flight [`PendingCheckpoint`] whose
//! chunks drain into idle gaps, the last durable checkpoint, and the
//! per-iteration packet numbering ([`PacketCounter`]) that link faults
//! and [`crate::LinkSlack::nth`] target.
//!
//! The executors keep only what differs between them: how a blocked
//! operation waits (a ready queue over [`crate::Fifo`]s, a parked
//! machine, a blocking thread), jitter and injected faults, memory
//! ledgers and recording. They hand the clock busy durations and the
//! times they waited for, so given the same inputs they reach the same
//! clock, classes and checkpoint state by construction.

use crate::checkpoint::{CheckpointPolicy, PendingCheckpoint};
use crate::cost::Nanos;
use crate::ids::DeviceId;
use crate::instr::InstrKind;
use crate::link::Dir;
use crate::span::OpSpan;
use crate::telemetry::TimeClasses;

/// One device's virtual clock; see the module docs.
#[derive(Debug)]
pub struct DeviceClock {
    device: DeviceId,
    now: Nanos,
    classes: TimeClasses,
    pending: PendingCheckpoint,
    durable: u32,
    packets: PacketCounter,
}

/// Field by field, so that `clone_from` reuses the destination's buffers
/// (prepose clones paused makespan sweeps).
impl Clone for DeviceClock {
    fn clone(&self) -> Self {
        Self {
            device: self.device,
            now: self.now,
            classes: self.classes,
            pending: self.pending.clone(),
            durable: self.durable,
            packets: self.packets.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.device = source.device;
        self.now = source.now;
        self.classes = source.classes;
        self.pending.clone_from(&source.pending);
        self.durable = source.durable;
        self.packets.clone_from(&source.packets);
    }
}

impl DeviceClock {
    /// A clock for `device` starting at `startup` ns: the one-time
    /// state-redistribution charge of an elastic reconfiguration, landing
    /// in the `reconfig_ns` class.
    pub fn new(device: DeviceId, startup: Nanos) -> Self {
        Self {
            device,
            now: startup,
            classes: TimeClasses {
                reconfig_ns: startup,
                ..TimeClasses::default()
            },
            pending: PendingCheckpoint::default(),
            durable: 0,
            packets: PacketCounter::default(),
        }
    }

    /// The device this clock belongs to.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Where the time so far went; the classes sum to [`DeviceClock::now`].
    pub fn classes(&self) -> &TimeClasses {
        &self.classes
    }

    /// Iterations covered by this device's last durable checkpoint (0
    /// before any).
    pub fn last_checkpoint(&self) -> u32 {
        self.durable
    }

    /// Charges `ns` of busy time for a non-p2p instruction of `kind`:
    /// all-reduce and optimizer time to their own classes, the rest to
    /// compute.
    pub fn busy(&mut self, kind: InstrKind, ns: Nanos) {
        let class = match kind {
            InstrKind::AllReduce => &mut self.classes.allreduce_ns,
            InstrKind::OptimizerStep => &mut self.classes.optimizer_ns,
            _ => &mut self.classes.compute_ns,
        };
        *class += ns;
        self.now += ns;
    }

    /// Charges the launch overhead of a send or receive.
    pub fn launch(&mut self, ns: Nanos) {
        self.classes.comm_launch_ns += ns;
        self.now += ns;
    }

    /// Idles until `t`, or not at all when the clock is already past it.
    /// A send waiting out a full ack window passes [`Dir::Send`]; a
    /// receive waiting for its packet and the serving ingress gate pass
    /// [`Dir::Recv`]. Whole checkpoint chunks drain into the gap, and the
    /// write becomes durable once the last one flushed; the rest of the
    /// gap is send- or recv-blocked time by `dir`. Returns the gap.
    pub fn wait_until(&mut self, t: Nanos, dir: Dir) -> Nanos {
        let gap = t.saturating_sub(self.now);
        let (drained, durable) = self.pending.drain(gap);
        if let Some(covers) = durable {
            self.durable = covers;
        }
        match dir {
            Dir::Send => self.classes.on_send_gap(gap, drained),
            Dir::Recv => self.classes.on_recv_gap(gap, drained),
        }
        self.now += gap;
        gap
    }

    /// The number of the next packet to `peer` in iteration `iter`,
    /// counting all classes and parts in program order from 0 each
    /// iteration.
    #[inline]
    pub fn next_packet(&mut self, peer: DeviceId, iter: u32) -> usize {
        self.packets.next(peer, iter)
    }

    /// The first half of a checkpoint boundary: synchronously pays
    /// whatever the previous async write could not hide. Returns the
    /// boundary's start, for [`DeviceClock::write_checkpoint`].
    pub fn flush_residue(&mut self) -> Nanos {
        let start = self.now;
        if let Some((residue, covers)) = self.pending.flush_residue() {
            self.pay(residue);
            self.durable = covers;
        }
        start
    }

    /// The second half of the boundary begun at `start`: starts the
    /// end-of-iteration-`iter` write of a `shard_bytes` shard under
    /// `policy` and charges what it costs now (an async write queues its
    /// chunks instead). Returns the boundary's span, residue included.
    pub fn write_checkpoint(
        &mut self,
        start: Nanos,
        policy: &CheckpointPolicy,
        shard_bytes: u64,
        iter: u32,
    ) -> OpSpan {
        let (write, durable) = self.pending.begin(policy, shard_bytes, iter);
        self.pay(write);
        if let Some(covers) = durable {
            self.durable = covers;
        }
        OpSpan::checkpoint(self.device, iter, start, self.now)
    }

    /// The end of the run: no idle gap remains, so any async residue is
    /// paid synchronously and the last write becomes durable. Returns the
    /// residue's span, in iteration `iter`, when it took time.
    pub fn end_run(&mut self, iter: u32) -> Option<OpSpan> {
        let start = self.flush_residue();
        (self.now > start).then(|| OpSpan::checkpoint(self.device, iter, start, self.now))
    }

    fn pay(&mut self, ns: Nanos) {
        self.classes.ckpt_sync_ns += ns;
        self.now += ns;
    }
}

/// One sending device's per-iteration packet numbering: the `nth` that
/// link faults and [`crate::LinkSlack::nth`] target. Packets to each peer
/// count from 0 in every iteration, across all classes and parts, in
/// program order. Every timed executor numbers packets through
/// [`DeviceClock::next_packet`]; the what-if re-timer, which keeps no
/// clock state beyond a time, holds one counter per device.
#[derive(Debug, Default)]
pub struct PacketCounter {
    /// Packets sent per peer in iteration `iter`, in first-send order (a
    /// device talks to a handful of peers, so a scan beats a hash).
    sent: Vec<(DeviceId, usize)>,
    iter: u32,
}

/// Field by field, so that `clone_from` reuses the destination's buffer.
impl Clone for PacketCounter {
    fn clone(&self) -> Self {
        Self {
            sent: self.sent.clone(),
            iter: self.iter,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.sent.clone_from(&source.sent);
        self.iter = source.iter;
    }
}

impl PacketCounter {
    /// The number of the next packet to `peer` in iteration `iter`.
    #[inline]
    pub fn next(&mut self, peer: DeviceId, iter: u32) -> usize {
        if iter != self.iter {
            self.sent.clear();
            self.iter = iter;
        }
        let Some((_, count)) = self.sent.iter_mut().find(|(p, _)| *p == peer) else {
            self.sent.push((peer, 1));
            return 0;
        };
        *count += 1;
        *count - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ShardedWrite;

    #[test]
    fn gaps_drain_chunks_and_split_by_direction() {
        let policy = CheckpointPolicy::every(1)
            .with_sharded(ShardedWrite::new(1_000, 1_000).with_async_overlap());
        let mut c = DeviceClock::new(DeviceId(2), 100);
        c.busy(InstrKind::Backward, 400);
        c.busy(InstrKind::AllReduce, 50);
        c.busy(InstrKind::OptimizerStep, 50);
        // 2500 B at 1000 B/us: chunks of 1000, 1000 and 500 ns, queued.
        let start = c.flush_residue();
        let span = c.write_checkpoint(start, &policy, 2_500, 0);
        assert_eq!((span.start, span.end, span.work_ns), (600, 600, 0));
        assert_eq!(c.last_checkpoint(), 0);
        c.launch(10);
        // A gap ending in the past waits for nothing.
        assert_eq!(c.wait_until(0, Dir::Recv), 0);
        // 1500 ns of send wait drains one whole chunk.
        assert_eq!(c.wait_until(2_110, Dir::Send), 1_500);
        assert_eq!(c.classes().ckpt_absorbed_ns, 1_000);
        assert_eq!(c.classes().send_blocked_ns, 500);
        // 1600 ns of recv wait drains the other two; the write is durable.
        assert_eq!(c.wait_until(3_710, Dir::Recv), 1_600);
        assert_eq!(c.classes().recv_blocked_ns, 100);
        assert_eq!(c.last_checkpoint(), 1);
        assert_eq!(c.end_run(0), None);
        assert_eq!(c.classes().total(), c.now());
    }

    #[test]
    fn residue_is_paid_at_the_next_boundary_and_at_the_end() {
        let policy = CheckpointPolicy::every(1)
            .with_sharded(ShardedWrite::new(1_000, 1_000).with_async_overlap());
        let mut c = DeviceClock::new(DeviceId(0), 0);
        let start = c.flush_residue();
        c.write_checkpoint(start, &policy, 2_000, 0);
        c.wait_until(1_500, Dir::Recv);
        // The next boundary pays the 1000 ns residue, then queues again.
        let start = c.flush_residue();
        assert_eq!(c.last_checkpoint(), 1);
        let span = c.write_checkpoint(start, &policy, 2_000, 1);
        assert_eq!((span.iter, span.start, span.end), (1, 1_500, 2_500));
        let span = c.end_run(1).expect("residue paid");
        assert_eq!((span.start, span.end, span.work_ns), (2_500, 4_500, 2_000));
        assert_eq!(c.last_checkpoint(), 2);
        assert_eq!(c.classes().ckpt_sync_ns, 3_000);
        assert_eq!(c.classes().total(), c.now());
    }

    #[test]
    fn packets_are_numbered_per_peer_and_iteration() {
        let mut c = PacketCounter::default();
        let (a, b) = (DeviceId(1), DeviceId(2));
        assert_eq!(c.next(a, 0), 0);
        assert_eq!(c.next(a, 0), 1);
        assert_eq!(c.next(b, 0), 0);
        assert_eq!(c.next(a, 1), 0);
        assert_eq!(c.next(b, 1), 0);
        // An iteration with no sends leaves nothing behind.
        assert_eq!(c.next(b, 3), 0);
        assert_eq!(c.next(a, 3), 0);
        // The clock numbers its packets through the same rule.
        let mut clock = DeviceClock::new(DeviceId(0), 0);
        assert_eq!(clock.next_packet(a, 0), 0);
        assert_eq!(clock.next_packet(a, 0), 1);
    }
}
