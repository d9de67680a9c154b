//! The analytic cost model: maps every IR instruction to latency and bytes
//! for a concrete (model, hardware, parallel layout, topology) quadruple.
//!
//! This is the synthetic stand-in for real kernel execution — the
//! quantities the paper obtains from lightweight profiling (§5.2) are here
//! derived from FLOP/byte counting, so the *ratios* that drive scheduling
//! decisions (backward/forward, recompute/forward, activation vs checkpoint
//! size, compute vs p2p) match the real system's structure.

use crate::config::ModelConfig;
use crate::flops;
use crate::hardware::GpuSpec;
use crate::memory;
use crate::partition::StagePartition;
use mario_ir::{ComputeKind, CostModel, DeviceId, Nanos, PartId, Topology};
use serde::{Deserialize, Serialize};

/// Everything a cost model needs to know about one training job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainSetup {
    /// The model being trained.
    pub model: ModelConfig,
    /// The device + interconnect.
    pub gpu: GpuSpec,
    /// The virtual pipeline the schedule runs on.
    pub topo: Topology,
    /// Layer → stage assignment (must have `topo.num_stages()` stages).
    pub partition: StagePartition,
    /// Tensor-parallel degree (modeled inside each stage, §5.2).
    pub tp: u32,
    /// Data-parallel degree (drives the all-reduce, §5.2).
    pub dp: u32,
    /// Micro-batch size.
    pub mbs: u32,
}

impl TrainSetup {
    /// A pure-pipeline setup with even partitioning.
    pub fn pipeline(model: ModelConfig, gpu: GpuSpec, topo: Topology, mbs: u32) -> Self {
        let partition = StagePartition::even(model.layers, topo.num_stages());
        Self {
            model,
            gpu,
            topo,
            partition,
            tp: 1,
            dp: 1,
            mbs,
        }
    }

    /// Builder: set tensor parallelism.
    pub fn with_tp(mut self, tp: u32) -> Self {
        self.tp = tp;
        self
    }

    /// Builder: set data parallelism.
    pub fn with_dp(mut self, dp: u32) -> Self {
        self.dp = dp;
        self
    }

    /// Builder: replace the partition (ablation §7.1).
    pub fn with_partition(mut self, partition: StagePartition) -> Self {
        assert_eq!(partition.stages(), self.topo.num_stages());
        self.partition = partition;
        self
    }
}

/// Precomputed per-stage costs implementing [`CostModel`].
#[derive(Debug, Clone)]
pub struct AnalyticCost {
    topo: Topology,
    fwd_ns: Vec<Nanos>,
    bwd_ns: Vec<Nanos>,
    act_bytes: Vec<u64>,
    ckpt_bytes: Vec<u64>,
    boundary: u64,
    static_stage: Vec<u64>,
    grad_bytes_stage: Vec<u64>,
    params_stage: Vec<u64>,
    framework_bytes: u64,
    p2p_launch: Nanos,
    p2p_lat: f64,
    p2p_bw: f64,
    nvlink_bw: f64,
    gpus_per_node: u32,
    dp: u32,
    allreduce_cache: Vec<Nanos>,
    optimizer_cache: Vec<Nanos>,
}

impl AnalyticCost {
    /// Builds the cost tables for `setup`.
    pub fn new(setup: &TrainSetup) -> Self {
        let m = &setup.model;
        let g = &setup.gpu;
        let s_count = setup.topo.num_stages();
        assert_eq!(setup.partition.stages(), s_count);

        let layer_fwd = flops::layer_forward_flops(m, setup.mbs, setup.tp);
        let embed_fwd = flops::embedding_forward_flops(m, setup.mbs, setup.tp);
        let ratio = g.bwd_fwd_ratio;
        // Tensor parallelism adds two all-reduces of the boundary tensor per
        // layer per direction.
        let tp_comm: Nanos = if setup.tp > 1 {
            2 * g.tp_allreduce_time(memory::boundary_bytes(m, setup.mbs, 1), setup.tp)
        } else {
            0
        };
        let ko = g.kernel_overhead_ns();

        let mut fwd_ns = Vec::with_capacity(s_count as usize);
        let mut bwd_ns = Vec::with_capacity(s_count as usize);
        let mut act_bytes = Vec::with_capacity(s_count as usize);
        let mut static_stage = Vec::with_capacity(s_count as usize);
        let mut grad_bytes_stage = Vec::with_capacity(s_count as usize);
        let mut params_stage = Vec::with_capacity(s_count as usize);
        for s in 0..s_count {
            let layers = setup.partition.layers_of(s) as f64;
            let has_head = s + 1 == s_count;
            let has_embed = s == 0;
            let f = layers * layer_fwd + if has_head { embed_fwd } else { 0.0 };
            fwd_ns.push(g.flops_time_at(f, setup.mbs, m.hidden) + (layers as u64) * tp_comm + ko);
            bwd_ns.push(g.flops_time_at(f * ratio, setup.mbs, m.hidden) + (layers as u64) * tp_comm + ko);
            act_bytes.push(
                memory::layer_activation_bytes(m, setup.mbs, setup.tp) * layers as u64,
            );
            let mut st = memory::layer_static_bytes(m, g.static_bytes_per_param, setup.tp)
                * layers as u64;
            let mut params = m.params_per_layer() * layers as u64;
            if has_embed || has_head {
                st += memory::embedding_static_bytes(m, g.static_bytes_per_param, setup.tp);
                params += m.embedding_params();
            }
            static_stage.push(st);
            params_stage.push(params / setup.tp as u64);
            grad_bytes_stage.push(memory::layer_grad_bytes(m, setup.tp) * layers as u64);
        }

        let boundary = memory::boundary_bytes(m, setup.mbs, setup.tp);
        let mut cost = Self {
            topo: setup.topo,
            fwd_ns,
            bwd_ns,
            act_bytes,
            ckpt_bytes: vec![boundary; s_count as usize],
            boundary,
            static_stage,
            grad_bytes_stage,
            params_stage,
            framework_bytes: g.framework_bytes,
            p2p_launch: g.p2p_launch_ns(),
            p2p_lat: g.p2p_latency,
            p2p_bw: g.p2p_bandwidth,
            nvlink_bw: g.nvlink_bandwidth,
            gpus_per_node: g.gpus_per_node,
            dp: setup.dp,
            allreduce_cache: Vec::new(),
            optimizer_cache: Vec::new(),
        };
        // Per-device collective/optimizer latencies.
        let devices = setup.topo.devices;
        for d in 0..devices {
            let grad: u64 = (0..setup.topo.parts_per_device())
                .map(|p| {
                    cost.grad_bytes_stage
                        [setup.topo.stage_of(DeviceId(d), PartId(p)).index()]
                })
                .sum();
            cost.allreduce_cache.push(g.allreduce_time(grad, setup.dp));
            let params: u64 = (0..setup.topo.parts_per_device())
                .map(|p| cost.params_stage[setup.topo.stage_of(DeviceId(d), PartId(p)).index()])
                .sum();
            // Adam update: memory-bound, ~16 B of state traffic per param
            // at ~1.5 TB/s HBM.
            cost.optimizer_cache
                .push((params as f64 * 16.0 / 1.5e12 * 1e9) as Nanos);
        }
        cost
    }

    /// The stage held by `(device, part)`.
    fn stage(&self, device: DeviceId, part: PartId) -> usize {
        self.topo.stage_of(device, part).index()
    }

    /// Overrides the compute tables with externally fitted values (used by
    /// the profiled cost model).
    pub fn override_compute(&mut self, fwd_ns: Vec<Nanos>, bwd_ns: Vec<Nanos>) {
        assert_eq!(fwd_ns.len(), self.fwd_ns.len());
        assert_eq!(bwd_ns.len(), self.bwd_ns.len());
        self.fwd_ns = fwd_ns;
        self.bwd_ns = bwd_ns;
    }

    /// Overrides the activation/static tables (used by the profiled model).
    pub fn override_memory(&mut self, act: Vec<u64>, static_stage: Vec<u64>) {
        assert_eq!(act.len(), self.act_bytes.len());
        assert_eq!(static_stage.len(), self.static_stage.len());
        self.act_bytes = act;
        self.static_stage = static_stage;
    }
}

impl CostModel for AnalyticCost {
    fn compute_time(&self, device: DeviceId, part: PartId, kind: ComputeKind) -> Nanos {
        let s = self.stage(device, part);
        match kind {
            ComputeKind::Forward | ComputeKind::Recompute => self.fwd_ns[s],
            ComputeKind::Backward => self.bwd_ns[s],
            // dgrad and wgrad GEMMs are each about half the backward.
            ComputeKind::BackwardInput | ComputeKind::BackwardWeight => self.bwd_ns[s] / 2,
        }
    }

    fn act_full(&self, device: DeviceId, part: PartId) -> u64 {
        self.act_bytes[self.stage(device, part)]
    }

    fn act_ckpt(&self, device: DeviceId, part: PartId) -> u64 {
        self.ckpt_bytes[self.stage(device, part)]
    }

    fn boundary_bytes(&self, _device: DeviceId, _part: PartId) -> u64 {
        self.boundary
    }

    fn p2p_time(&self, bytes: u64) -> Nanos {
        ((self.p2p_lat + bytes as f64 / self.p2p_bw) * 1e9) as Nanos
    }

    fn p2p_time_between(&self, from: DeviceId, to: DeviceId, bytes: u64) -> Nanos {
        if self.gpus_per_node > 0 && from.0 / self.gpus_per_node == to.0 / self.gpus_per_node {
            ((self.p2p_lat / 4.0 + bytes as f64 / self.nvlink_bw) * 1e9) as Nanos
        } else {
            self.p2p_time(bytes)
        }
    }

    fn p2p_launch_overhead(&self) -> Nanos {
        self.p2p_launch
    }

    fn allreduce_time(&self, device: DeviceId) -> Nanos {
        if self.dp <= 1 {
            0
        } else {
            self.allreduce_cache[device.index()]
        }
    }

    fn optimizer_time(&self, device: DeviceId) -> Nanos {
        self.optimizer_cache[device.index()]
    }

    fn static_mem(&self, device: DeviceId) -> u64 {
        let parts = self.topo.parts_per_device();
        let model: u64 = (0..parts)
            .map(|p| self.static_stage[self.stage(device, PartId(p))])
            .sum();
        model + self.framework_bytes
    }

    fn ckpt_shard_bytes(&self, device: DeviceId) -> u64 {
        // The checkpoint shard is the device's model state (weights,
        // gradients, optimizer states of its stages) — framework overhead
        // is resident memory, not checkpointed payload.
        (0..self.topo.parts_per_device())
            .map(|p| self.static_stage[self.stage(device, PartId(p))])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::SchemeKind;

    fn gpt13b_32() -> TrainSetup {
        let topo = Topology::new(SchemeKind::OneFOneB, 32);
        TrainSetup::pipeline(
            ModelConfig::gpt3_13b(),
            GpuSpec::a100_40g(),
            topo,
            2,
        )
    }

    #[test]
    fn static_memory_matches_paper_scale() {
        // Table 5: V-ckpt on GPT3-13B/32 GPUs bottoms out at ~9.85 GB.
        let c = AnalyticCost::new(&gpt13b_32());
        let gb = c.static_mem(DeviceId(16)) as f64 / (1u64 << 30) as f64;
        assert!(gb > 7.0 && gb < 12.0, "static = {gb:.2} GB");
    }

    #[test]
    fn backward_is_twice_forward() {
        let c = AnalyticCost::new(&gpt13b_32());
        let d = DeviceId(5);
        let p = PartId(0);
        let f = c.compute_time(d, p, ComputeKind::Forward) as f64;
        let b = c.compute_time(d, p, ComputeKind::Backward) as f64;
        assert!((b / f - 2.0).abs() < 0.1, "ratio {}", b / f);
        assert_eq!(
            c.compute_time(d, p, ComputeKind::Forward),
            c.compute_time(d, p, ComputeKind::Recompute)
        );
    }

    #[test]
    fn checkpoint_is_much_smaller_than_full_activation() {
        let c = AnalyticCost::new(&gpt13b_32());
        let d = DeviceId(3);
        assert!(c.act_full(d, PartId(0)) / c.act_ckpt(d, PartId(0)) > 100);
    }

    #[test]
    fn chimera_duplicates_static_memory() {
        let model = ModelConfig::llama2_3b();
        let g = GpuSpec::a100_40g();
        let v = AnalyticCost::new(&TrainSetup::pipeline(
            model.clone(),
            g.clone(),
            Topology::new(SchemeKind::OneFOneB, 8),
            2,
        ));
        let x = AnalyticCost::new(&TrainSetup::pipeline(
            model,
            g,
            Topology::new(SchemeKind::Chimera, 8),
            2,
        ));
        // An interior Chimera device holds two stage replicas.
        let v_mid = v.static_mem(DeviceId(4)) as f64;
        let x_mid = x.static_mem(DeviceId(4)) as f64;
        assert!(
            x_mid / v_mid > 1.7,
            "Chimera static {x_mid:.2e} vs 1F1B {v_mid:.2e}"
        );
    }

    #[test]
    fn tp_reduces_memory_and_compute() {
        let topo = Topology::new(SchemeKind::OneFOneB, 8);
        let base = TrainSetup::pipeline(
            ModelConfig::gpt3_1_6b(),
            GpuSpec::a100_40g(),
            topo,
            1,
        );
        let c1 = AnalyticCost::new(&base);
        let c2 = AnalyticCost::new(&base.clone().with_tp(2));
        let d = DeviceId(4);
        assert!(c2.act_full(d, PartId(0)) < c1.act_full(d, PartId(0)));
        assert!(c2.static_mem(d) < c1.static_mem(d));
        // Compute shrinks but TP adds comm, so less than 2x.
        let t1 = c1.compute_time(d, PartId(0), ComputeKind::Forward);
        let t2 = c2.compute_time(d, PartId(0), ComputeKind::Forward);
        assert!(t2 < t1);
    }

    #[test]
    fn dp_allreduce_only_when_dp_gt_1() {
        let topo = Topology::new(SchemeKind::OneFOneB, 8);
        let base = TrainSetup::pipeline(
            ModelConfig::gpt3_1_6b(),
            GpuSpec::a100_40g(),
            topo,
            1,
        );
        let c1 = AnalyticCost::new(&base);
        let c4 = AnalyticCost::new(&base.clone().with_dp(4));
        assert_eq!(c1.allreduce_time(DeviceId(0)), 0);
        assert!(c4.allreduce_time(DeviceId(0)) > 0);
    }

    #[test]
    fn ckpt_shard_tracks_per_stage_state_without_framework_overhead() {
        let c = AnalyticCost::new(&gpt13b_32());
        // The shard is model state only: static memory minus the fixed
        // framework bytes, per device.
        for d in [0u32, 15, 31] {
            let d = DeviceId(d);
            assert!(c.ckpt_shard_bytes(d) > 0);
            assert!(c.ckpt_shard_bytes(d) < c.static_mem(d));
        }
        // Embedding-carrying ends write bigger shards than the interior.
        assert!(c.ckpt_shard_bytes(DeviceId(0)) > c.ckpt_shard_bytes(DeviceId(15)));
        assert!(c.ckpt_shard_bytes(DeviceId(31)) > c.ckpt_shard_bytes(DeviceId(15)));
    }

    #[test]
    fn first_and_last_stage_carry_embedding_extras() {
        let c = AnalyticCost::new(&gpt13b_32());
        // Last stage pays the LM-head projection.
        assert!(
            c.compute_time(DeviceId(31), PartId(0), ComputeKind::Forward)
                > c.compute_time(DeviceId(15), PartId(0), ComputeKind::Forward)
        );
        // Both ends carry embedding state.
        assert!(c.static_mem(DeviceId(0)) > c.static_mem(DeviceId(15)));
        assert!(c.static_mem(DeviceId(31)) > c.static_mem(DeviceId(15)));
    }
}
