//! Model-state checkpointing policy.
//!
//! Mario's activation checkpointing (the paper's subject) trades compute
//! for memory *within* an iteration; this module models the orthogonal
//! *model-state* checkpointing a production training system layers on
//! top so a fault does not erase the whole run. A [`CheckpointPolicy`]
//! makes the checkpoint write a first-class scheduled cost — every
//! `interval_iters` iterations each device pays `write_ns` of wall time
//! and a transient `mem_overhead` serialization buffer — instead of an
//! out-of-band fudge factor. The cluster emulator charges these costs on
//! checkpoint iterations and its recovery loop resumes from the last
//! checkpoint that completed on *every* device (a checkpoint is durable
//! only when the whole cluster wrote it).

use crate::cost::{transfer_ns, Nanos};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sharded checkpoint-write mode: instead of a flat `write_ns`, each
/// device's write cost is derived from its model-state shard size (the
/// cost model's `ckpt_shard_bytes`) at a configurable flush bandwidth,
/// split into fixed-size chunks. With [`ShardedWrite::async_overlap`]
/// set, the chunks drain during the *next* iteration's pipeline bubbles:
/// a chunk flushes whenever the device would otherwise idle at a
/// blocking recv, any residue is charged synchronously at the following
/// boundary, and the checkpoint only becomes durable once every chunk
/// flushed.
///
/// All arithmetic is integer-exact so the DP simulator and the cluster
/// emulator charge bit-identical costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedWrite {
    /// Flush bandwidth, bytes per microsecond (>= 1 effective).
    pub flush_bytes_per_us: u64,
    /// Fixed chunk size, bytes (>= 1 effective); the last chunk of a
    /// shard may be smaller.
    pub chunk_bytes: u64,
    /// Drain chunks asynchronously into the next iteration's bubbles
    /// instead of charging the whole write at the boundary.
    pub async_overlap: bool,
}

impl ShardedWrite {
    /// A synchronous sharded write at `flush_bytes_per_us` in
    /// `chunk_bytes` chunks.
    pub fn new(flush_bytes_per_us: u64, chunk_bytes: u64) -> Self {
        Self {
            flush_bytes_per_us,
            chunk_bytes,
            async_overlap: false,
        }
    }

    /// Builder: drain chunks into the next iteration's bubbles.
    pub fn with_async_overlap(mut self) -> Self {
        self.async_overlap = true;
        self
    }

    /// Time to flush `bytes`, ns: [`transfer_ns`] at the flush bandwidth.
    pub fn flush_ns(&self, bytes: u64) -> Nanos {
        transfer_ns(bytes, self.flush_bytes_per_us)
    }

    /// Per-chunk flush times for a `shard_bytes` shard: full chunks of
    /// [`ShardedWrite::chunk_bytes`] plus one final partial chunk. Empty
    /// for an empty shard (nothing to write — durable immediately).
    pub fn chunk_times(&self, shard_bytes: u64) -> Vec<Nanos> {
        let chunk = self.chunk_bytes.max(1);
        let mut times = Vec::with_capacity((shard_bytes / chunk) as usize + 1);
        let mut left = shard_bytes;
        while left > 0 {
            let this = left.min(chunk);
            times.push(self.flush_ns(this));
            left -= this;
        }
        times
    }
}

/// Periodic model-state checkpointing: every `interval_iters` completed
/// iterations, each device writes a checkpoint costing `write_ns` of
/// virtual time and a transient `mem_overhead`-byte serialization buffer.
/// With [`CheckpointPolicy::sharded`] set, the per-device cost comes from
/// the device's shard size instead of the flat `write_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Iterations between checkpoints (>= 1). A checkpoint is written at
    /// the end of iteration `i` whenever `(i + 1)` is a multiple of this.
    pub interval_iters: u32,
    /// Virtual time one device spends writing a checkpoint, ns (the
    /// serialize-and-flush cost on the training critical path). Ignored
    /// when [`CheckpointPolicy::sharded`] is set.
    pub write_ns: Nanos,
    /// Transient serialization-buffer bytes held while writing (counted
    /// against device capacity and released when the write completes).
    pub mem_overhead: u64,
    /// Sharded write mode (None = flat `write_ns` per device).
    #[serde(default)]
    pub sharded: Option<ShardedWrite>,
}

impl CheckpointPolicy {
    /// A free policy checkpointing every `interval_iters` iterations.
    ///
    /// # Panics
    /// Panics when `interval_iters` is zero.
    pub fn every(interval_iters: u32) -> Self {
        assert!(interval_iters >= 1, "checkpoint interval must be >= 1");
        Self {
            interval_iters,
            write_ns: 0,
            mem_overhead: 0,
            sharded: None,
        }
    }

    /// Sets the per-checkpoint write cost.
    pub fn with_write_ns(mut self, write_ns: Nanos) -> Self {
        self.write_ns = write_ns;
        self
    }

    /// Sets the transient serialization-buffer size.
    pub fn with_mem_overhead(mut self, bytes: u64) -> Self {
        self.mem_overhead = bytes;
        self
    }

    /// Switches the policy to sharded write mode.
    pub fn with_sharded(mut self, sharded: ShardedWrite) -> Self {
        self.sharded = Some(sharded);
        self
    }

    /// True when chunks of this policy drain asynchronously into the next
    /// iteration's bubbles (sharded mode with the overlap flag).
    pub fn async_overlap(&self) -> bool {
        self.sharded.is_some_and(|s| s.async_overlap)
    }

    /// Total write time one device pays for a checkpoint of `shard_bytes`
    /// of model state: the flat `write_ns` without sharding, the sum of
    /// the chunk flush times with it. Both executors use this exact sum,
    /// so sync and async modes flush the same total — overlap only moves
    /// it off the critical path.
    pub fn device_write_ns(&self, shard_bytes: u64) -> Nanos {
        match self.sharded {
            Some(s) => s.chunk_times(shard_bytes).iter().sum(),
            None => self.write_ns,
        }
    }

    /// The chunk flush times an async overlap drains for a `shard_bytes`
    /// shard (empty unless the policy is sharded).
    pub fn device_chunk_times(&self, shard_bytes: u64) -> Vec<Nanos> {
        match self.sharded {
            Some(s) => s.chunk_times(shard_bytes),
            None => Vec::new(),
        }
    }

    /// True when a checkpoint is written at the end of iteration `iter`
    /// (0-based): the first `interval_iters` iterations complete, then a
    /// write, and so on.
    pub fn is_boundary(&self, iter: u32) -> bool {
        (iter + 1).is_multiple_of(self.interval_iters)
    }

    /// Iterations covered by the last checkpoint a device completed
    /// *before* failing during iteration `fault_iter` — the largest
    /// checkpoint boundary at or below it (0 = nothing saved yet).
    pub fn saved_before(&self, fault_iter: u32) -> u32 {
        (fault_iter / self.interval_iters) * self.interval_iters
    }

    /// Checkpoint writes a clean run of `iters` iterations performs.
    pub fn writes_in(&self, iters: u32) -> u32 {
        iters / self.interval_iters
    }

    /// Total per-device write time a clean run of `iters` iterations
    /// spends checkpointing, ns.
    pub fn overhead_ns(&self, iters: u32) -> Nanos {
        self.writes_in(iters) as Nanos * self.write_ns
    }
}

/// One device's checkpoint write in flight: the flush times of the
/// chunks an async write has not drained yet and the iterations the write
/// covers once they all flushed. The DP simulator and the cluster
/// emulator keep one per device, so the write and drain arithmetic exists
/// once.
#[derive(Debug, Clone, Default)]
pub struct PendingCheckpoint {
    chunks: VecDeque<Nanos>,
    covers: u32,
}

impl PendingCheckpoint {
    /// Starts the end-of-iteration-`iter` write of a `shard_bytes` shard
    /// under `policy`. Returns the write time charged synchronously now
    /// and, when the write is durable at once, the iterations it covers.
    /// An async write queues its chunks instead and becomes durable when
    /// [`PendingCheckpoint::drain`] or
    /// [`PendingCheckpoint::flush_residue`] empties the queue. The write is
    /// a model parameter, not a kernel: it is charged exactly as
    /// configured (no jitter, no straggler factor).
    pub fn begin(
        &mut self,
        policy: &CheckpointPolicy,
        shard_bytes: u64,
        iter: u32,
    ) -> (Nanos, Option<u32>) {
        if !policy.async_overlap() {
            return (policy.device_write_ns(shard_bytes), Some(iter + 1));
        }
        let chunks = policy.device_chunk_times(shard_bytes);
        if chunks.is_empty() {
            // Nothing to write: durable immediately at zero cost.
            return (0, Some(iter + 1));
        }
        self.chunks = chunks.into();
        self.covers = iter + 1;
        (0, None)
    }

    /// Flushes whole chunks, front first, into an idle gap of `gap` ns (a
    /// blocking recv, a capacity-blocked send or a serving ingress wait):
    /// the device would have been waiting anyway. Returns the flush time
    /// drained into the gap (telemetry's `ckpt_absorbed_ns`) and, when
    /// the last chunk flushed, the iterations the now durable write
    /// covers.
    pub fn drain(&mut self, mut gap: Nanos) -> (Nanos, Option<u32>) {
        if self.chunks.is_empty() {
            return (0, None);
        }
        let mut drained = 0;
        while let Some(&chunk) = self.chunks.front() {
            if chunk > gap {
                return (drained, None);
            }
            gap -= chunk;
            drained += chunk;
            self.chunks.pop_front();
        }
        (drained, Some(self.covers))
    }

    /// Flushes whatever the bubbles did not absorb, synchronously. Returns
    /// the residue to charge to the clock and the iterations the now
    /// durable write covers; `None` when nothing was pending.
    pub fn flush_residue(&mut self) -> Option<(Nanos, u32)> {
        if self.chunks.is_empty() {
            return None;
        }
        let residue = self.chunks.drain(..).sum();
        Some((residue, self.covers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_checkpoint_drains_whole_chunks_then_flushes_the_residue() {
        let sharded = ShardedWrite::new(1_000, 1_000).with_async_overlap();
        let policy = CheckpointPolicy::every(1).with_sharded(sharded);
        let mut w = PendingCheckpoint::default();
        // 2500 B at 1000 B/us: chunks of 1000, 1000 and 500 ns.
        assert_eq!(w.begin(&policy, 2_500, 3), (0, None));
        // A gap drains only whole chunks, front first.
        assert_eq!(w.drain(1_500), (1_000, None));
        assert_eq!(w.drain(0), (0, None));
        assert_eq!(w.flush_residue(), Some((1_500, 4)));
        assert_eq!(w.flush_residue(), None);
        // Draining the last chunk makes the write durable.
        w.begin(&policy, 2_500, 5);
        assert_eq!(w.drain(10_000), (2_500, Some(6)));
        assert_eq!(w.drain(10_000), (0, None));
        // Synchronous and empty writes are durable at once.
        let sync = CheckpointPolicy::every(1).with_write_ns(700);
        assert_eq!(w.begin(&sync, 2_500, 0), (700, Some(1)));
        assert_eq!(w.begin(&policy, 0, 1), (0, Some(2)));
        assert_eq!(w.flush_residue(), None);
    }

    #[test]
    fn boundaries_every_interval() {
        let p = CheckpointPolicy::every(3);
        let written: Vec<u32> = (0..10).filter(|&i| p.is_boundary(i)).collect();
        assert_eq!(written, vec![2, 5, 8]);
        // Interval 1 checkpoints after every iteration.
        let each = CheckpointPolicy::every(1);
        assert!((0..5).all(|i| each.is_boundary(i)));
    }

    #[test]
    fn saved_before_is_the_last_completed_boundary() {
        let p = CheckpointPolicy::every(2);
        assert_eq!(p.saved_before(0), 0);
        assert_eq!(p.saved_before(1), 0);
        assert_eq!(p.saved_before(2), 2);
        assert_eq!(p.saved_before(3), 2);
        assert_eq!(p.saved_before(5), 4);
    }

    #[test]
    fn overhead_scales_with_writes() {
        let p = CheckpointPolicy::every(4).with_write_ns(100);
        assert_eq!(p.writes_in(3), 0);
        assert_eq!(p.writes_in(12), 3);
        assert_eq!(p.overhead_ns(12), 300);
        assert_eq!(p.overhead_ns(0), 0);
    }

    #[test]
    #[should_panic(expected = "interval must be >= 1")]
    fn zero_interval_is_rejected() {
        let _ = CheckpointPolicy::every(0);
    }

    #[test]
    fn chunk_times_cover_the_shard_exactly() {
        let s = ShardedWrite::new(2, 600);
        // 1500 B in 600 B chunks: 600, 600, 300.
        let times = s.chunk_times(1_500);
        assert_eq!(times, vec![300_000, 300_000, 150_000]);
        // Empty shard: nothing to flush.
        assert!(s.chunk_times(0).is_empty());
        // Sub-chunk shard: one partial chunk.
        assert_eq!(s.chunk_times(100), vec![50_000]);
    }

    #[test]
    fn flush_ns_rounds_up_and_survives_zero_bandwidth() {
        let s = ShardedWrite::new(3, 100);
        // 100 B at 3 B/µs = 33.3 µs, charged as 33334 ns.
        assert_eq!(s.flush_ns(100), 33_334);
        // Zero bandwidth is clamped to 1 B/µs instead of dividing by zero.
        let z = ShardedWrite::new(0, 100);
        assert_eq!(z.flush_ns(5), 5_000);
        // Every transfer time is the same arithmetic.
        for (bytes, bw) in [(100, 3), (5, 0), (0, 7), (1, 1_000_000), (1 << 40, 12_345)] {
            let flush = ShardedWrite::new(bw, 100).flush_ns(bytes);
            assert_eq!(flush, transfer_ns(bytes, bw));
        }
        assert_eq!(transfer_ns(1, 1_000_000), 1);
        assert_eq!(transfer_ns(0, 0), 0);
    }

    #[test]
    fn device_write_ns_dispatches_by_mode() {
        let flat = CheckpointPolicy::every(2).with_write_ns(777);
        assert_eq!(flat.device_write_ns(1 << 30), 777);
        assert!(flat.device_chunk_times(1 << 30).is_empty());
        assert!(!flat.async_overlap());

        let sharded = CheckpointPolicy::every(2).with_sharded(ShardedWrite::new(2, 600));
        assert_eq!(sharded.device_write_ns(1_500), 750_000);
        assert_eq!(sharded.device_chunk_times(1_500).len(), 3);
        assert!(!sharded.async_overlap());
        // Sync and async flush the same total; only the placement differs.
        let overl = CheckpointPolicy::every(2)
            .with_sharded(ShardedWrite::new(2, 600).with_async_overlap());
        assert!(overl.async_overlap());
        assert_eq!(
            overl.device_write_ns(1_500),
            sharded.device_write_ns(1_500)
        );
        // An empty shard is durable immediately at zero cost.
        assert_eq!(overl.device_write_ns(0), 0);
        assert!(overl.device_chunk_times(0).is_empty());
    }

    #[test]
    fn zero_chunk_size_is_clamped_not_divided_by() {
        let s = ShardedWrite::new(1, 0);
        // chunk_bytes 0 behaves as 1-byte chunks: no infinite loop, exact
        // coverage.
        let times = s.chunk_times(3);
        assert_eq!(times.len(), 3);
        assert_eq!(times.iter().sum::<Nanos>(), 3 * 1_000);
    }
}
