//! The cost-model interface consumed by the simulator (mario-core) and the
//! cluster emulator (mario-cluster).
//!
//! The paper's simulator assigns each instruction a latency and a memory
//! effect obtained from lightweight profiling (§5.2). This trait is the
//! seam: `mario-model` provides analytic and profiled implementations, while
//! [`UnitCost`] provides the idealized "forward = t, backward = 2t" grid
//! model the paper uses in its figures (§5.1: "we assume the latency across
//! stages are balanced and the backward latency is twice that of forward").

use crate::ids::{DeviceId, PartId};
use crate::instr::{Instr, InstrKind};
use serde::{Deserialize, Serialize};

/// Virtual time, in nanoseconds.
pub type Nanos = u64;

/// Time to move `bytes` at `bytes_per_us`, ns: a ceiling division, so a
/// partial microsecond of bandwidth still costs a whole nanosecond tick.
/// Zero bandwidth is clamped to 1 B/µs instead of dividing by zero.
pub fn transfer_ns(bytes: u64, bytes_per_us: u64) -> Nanos {
    (bytes * 1_000).div_ceil(bytes_per_us.max(1))
}

/// The compute instruction classes with distinct latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputeKind {
    /// Forward pass of a stage (checkpointed forwards take the same time).
    Forward,
    /// Backward pass of a stage.
    Backward,
    /// Input-gradient half of a split backward (≈ half a backward).
    BackwardInput,
    /// Weight-gradient half of a split backward (≈ half a backward).
    BackwardWeight,
    /// Recomputation: replays the forward, so usually `≈ Forward`.
    Recompute,
}

/// Per-instruction latency and memory quantities for a given schedule.
///
/// Implementations must be cheap to call: the DP simulator queries them for
/// every instruction, and the schedule tuner runs thousands of simulations.
pub trait CostModel: Send + Sync {
    /// Latency of a compute instruction on the stage held by
    /// `(device, part)`.
    fn compute_time(&self, device: DeviceId, part: PartId, kind: ComputeKind) -> Nanos;

    /// Full activation bytes retained by a *non-checkpointed* forward of one
    /// micro-batch on `(device, part)`, released by the matching backward.
    fn act_full(&self, device: DeviceId, part: PartId) -> u64;

    /// Checkpoint bytes (the stashed stage input) retained by a
    /// *checkpointed* forward, released by the matching backward.
    fn act_ckpt(&self, device: DeviceId, part: PartId) -> u64;

    /// Bytes of the stage-boundary tensor carried by `SA`/`RA` (gradients
    /// `SG`/`RG` are the same shape).
    fn boundary_bytes(&self, device: DeviceId, part: PartId) -> u64;

    /// Wire time for a p2p transfer of `bytes` over the default
    /// (cross-node) fabric.
    fn p2p_time(&self, bytes: u64) -> Nanos;

    /// Wire time for a transfer between two specific devices. The default
    /// ignores placement; hierarchical models override this to give
    /// intra-node neighbours (NVLink) a faster link than cross-node pairs
    /// (InfiniBand) — the paper's cluster is 16 nodes × 4 GPUs.
    fn p2p_time_between(&self, _from: DeviceId, _to: DeviceId, bytes: u64) -> Nanos {
        self.p2p_time(bytes)
    }

    /// Fixed per-call overhead a device pays to issue a p2p send/recv.
    fn p2p_launch_overhead(&self) -> Nanos {
        0
    }

    /// Bytes retained between a split backward's input half and its weight
    /// half — the layer inputs the weight GEMMs still read. Boundary-sized
    /// by default (ZB's accounting keeps this term small).
    fn wgrad_stash_bytes(&self, device: DeviceId, part: PartId) -> u64 {
        self.boundary_bytes(device, part)
    }

    /// Latency of the data-parallel gradient all-reduce on `device`.
    fn allreduce_time(&self, device: DeviceId) -> Nanos;

    /// Latency of the optimizer step on `device`.
    fn optimizer_time(&self, device: DeviceId) -> Nanos;

    /// Static bytes resident on `device` for the whole iteration: weights,
    /// gradients, optimizer states, plus framework overhead (the regression
    /// bias `b` of §5.2).
    fn static_mem(&self, device: DeviceId) -> u64;

    /// Bytes of model state this device contributes to one model-state
    /// checkpoint — the shard a sharded
    /// [`crate::checkpoint::CheckpointPolicy`] flushes. Defaults to the
    /// device's static memory; analytic models override this with the
    /// per-stage parameter bytes (framework overhead is resident memory,
    /// not checkpointed state).
    fn ckpt_shard_bytes(&self, device: DeviceId) -> u64 {
        self.static_mem(device)
    }

    /// Device-occupancy duration of an arbitrary instruction.
    ///
    /// For p2p instructions this is only the launch overhead — the transfer
    /// itself is modeled by the scheduler/emulator as a cross-device
    /// dependency, not as device occupancy.
    fn duration(&self, device: DeviceId, instr: &Instr) -> Nanos {
        match instr.kind {
            InstrKind::Forward { .. } => self.compute_time(device, instr.part, ComputeKind::Forward),
            InstrKind::Backward => self.compute_time(device, instr.part, ComputeKind::Backward),
            InstrKind::BackwardInput => {
                self.compute_time(device, instr.part, ComputeKind::BackwardInput)
            }
            InstrKind::BackwardWeight => {
                self.compute_time(device, instr.part, ComputeKind::BackwardWeight)
            }
            InstrKind::Recompute => {
                self.compute_time(device, instr.part, ComputeKind::Recompute)
            }
            InstrKind::SendAct { .. }
            | InstrKind::RecvAct { .. }
            | InstrKind::SendGrad { .. }
            | InstrKind::RecvGrad { .. } => self.p2p_launch_overhead(),
            InstrKind::AllReduce => self.allreduce_time(device),
            InstrKind::OptimizerStep => self.optimizer_time(device),
        }
    }
}

/// The idealized unit-grid cost model of the paper's figures: every stage is
/// balanced, forward takes `t`, backward takes `2t`, recompute takes `t`,
/// communication is free, and one micro-batch's activations weigh one unit.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UnitCost {
    /// The grid unit `t`, in nanoseconds.
    pub unit: Nanos,
    /// Backward-to-forward latency ratio numerator over 1 (default 2).
    pub backward_ratio: u32,
    /// Bytes of one micro-batch's full activations (default 1).
    pub act_full_bytes: u64,
    /// Bytes of one micro-batch's checkpoint (default 0: idealized).
    pub act_ckpt_bytes: u64,
    /// Bytes of model state each device contributes to a model-state
    /// checkpoint (default 0: checkpoint writes are free on the unit
    /// grid unless a test opts in).
    #[serde(default)]
    pub ckpt_shard_bytes: u64,
}

impl UnitCost {
    /// The model used throughout the paper's illustrations: `t = 1µs`,
    /// backward = 2t, free communication.
    pub fn paper_grid() -> Self {
        Self {
            unit: 1_000,
            backward_ratio: 2,
            act_full_bytes: 1,
            act_ckpt_bytes: 0,
            ckpt_shard_bytes: 0,
        }
    }

    /// Like [`UnitCost::paper_grid`] but with a nonzero checkpoint size, for
    /// memory-accounting tests.
    pub fn with_ckpt_bytes(mut self, bytes: u64) -> Self {
        self.act_ckpt_bytes = bytes;
        self
    }

    /// Like [`UnitCost::paper_grid`] but with a nonzero model-state shard,
    /// so sharded checkpoint writes have real cost on the unit grid.
    pub fn with_shard_bytes(mut self, bytes: u64) -> Self {
        self.ckpt_shard_bytes = bytes;
        self
    }
}

impl Default for UnitCost {
    fn default() -> Self {
        Self::paper_grid()
    }
}

impl CostModel for UnitCost {
    fn compute_time(&self, _device: DeviceId, _part: PartId, kind: ComputeKind) -> Nanos {
        match kind {
            ComputeKind::Forward | ComputeKind::Recompute => self.unit,
            ComputeKind::Backward => self.unit * self.backward_ratio as u64,
            // Split halves: dgrad and wgrad are each about half a backward.
            ComputeKind::BackwardInput | ComputeKind::BackwardWeight => {
                self.unit * self.backward_ratio as u64 / 2
            }
        }
    }

    fn act_full(&self, _device: DeviceId, _part: PartId) -> u64 {
        self.act_full_bytes
    }

    fn act_ckpt(&self, _device: DeviceId, _part: PartId) -> u64 {
        self.act_ckpt_bytes
    }

    fn boundary_bytes(&self, _device: DeviceId, _part: PartId) -> u64 {
        0
    }

    fn p2p_time(&self, _bytes: u64) -> Nanos {
        0
    }

    fn allreduce_time(&self, _device: DeviceId) -> Nanos {
        0
    }

    fn optimizer_time(&self, _device: DeviceId) -> Nanos {
        0
    }

    fn static_mem(&self, _device: DeviceId) -> u64 {
        0
    }

    fn ckpt_shard_bytes(&self, _device: DeviceId) -> u64 {
        self.ckpt_shard_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cost_matches_paper_grid() {
        let c = UnitCost::paper_grid();
        let d = DeviceId(0);
        let p = PartId(0);
        assert_eq!(c.compute_time(d, p, ComputeKind::Forward), 1_000);
        assert_eq!(c.compute_time(d, p, ComputeKind::Backward), 2_000);
        assert_eq!(c.compute_time(d, p, ComputeKind::Recompute), 1_000);
        assert_eq!(c.p2p_time(123), 0);
    }

    #[test]
    fn duration_dispatches_by_kind() {
        let c = UnitCost::paper_grid();
        let d = DeviceId(0);
        assert_eq!(c.duration(d, &Instr::forward(0u32, 0u32)), 1_000);
        assert_eq!(c.duration(d, &Instr::ckpt_forward(0u32, 0u32)), 1_000);
        assert_eq!(c.duration(d, &Instr::backward(0u32, 0u32)), 2_000);
        assert_eq!(c.duration(d, &Instr::recompute(0u32, 0u32)), 1_000);
        assert_eq!(c.duration(d, &Instr::send_act(0u32, 0u32, DeviceId(1))), 0);
        assert_eq!(c.duration(d, &Instr::all_reduce()), 0);
        assert_eq!(c.duration(d, &Instr::optimizer_step()), 0);
    }

    #[test]
    fn ckpt_bytes_builder() {
        let c = UnitCost::paper_grid().with_ckpt_bytes(7);
        assert_eq!(c.act_ckpt(DeviceId(0), PartId(0)), 7);
        assert_eq!(c.act_full(DeviceId(0), PartId(0)), 1);
    }

    #[test]
    fn shard_bytes_builder_and_default() {
        // Default: shard follows static memory (0 on the unit grid).
        let c = UnitCost::paper_grid();
        assert_eq!(c.ckpt_shard_bytes(DeviceId(0)), 0);
        let c = c.with_shard_bytes(4_096);
        assert_eq!(c.ckpt_shard_bytes(DeviceId(3)), 4_096);
        // Static memory is unchanged: the shard is checkpoint payload,
        // not resident state.
        assert_eq!(c.static_mem(DeviceId(3)), 0);
    }
}
