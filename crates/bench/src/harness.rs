//! Shared experiment harness: the paper's four evaluation configurations
//! (§6: `base`, `ckpt`, `ovlp`, `lmbs`) runnable against any (model,
//! scheme, parallel layout), with the emulator as "real run" and the
//! simulator standing in for configurations that OOM (the paper's
//! underlined Table 5 values).

use mario_core::critpath::{analyze, CritReport};
use mario_core::passes::{run_graph_tuner, GraphTunerOptions, PreposeOptions};
use mario_core::simulator::{simulate_memory, simulate_timeline};
use mario_core::tuner::scheme_channel_capacity;
use mario_ir::{CostModel, Schedule, SchemeKind, Topology};
use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// The four evaluation configurations of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// Original scheme, no checkpointing.
    Base,
    /// Naive activation checkpointing (pass 1 only).
    Ckpt,
    /// Checkpointing optimized by Mario's four passes.
    Ovlp,
    /// `Ovlp` with doubled micro-batch size (same global batch).
    Lmbs,
}

impl Variant {
    /// All four, in the paper's order.
    pub const ALL: [Variant; 4] = [Variant::Base, Variant::Ckpt, Variant::Ovlp, Variant::Lmbs];

    /// Short label ("base", "ckpt", ...).
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Base => "base",
            Variant::Ckpt => "ckpt",
            Variant::Ovlp => "ovlp",
            Variant::Lmbs => "lmbs",
        }
    }
}

/// One experiment point.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// The model.
    pub model: ModelConfig,
    /// The device.
    pub gpu: GpuSpec,
    /// Pipeline scheme.
    pub scheme: SchemeKind,
    /// Pipeline depth.
    pub pp: u32,
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Data-parallel degree.
    pub dp: u32,
    /// Micro-batch size (doubled by [`Variant::Lmbs`]).
    pub mbs: u32,
    /// Global batch size.
    pub gbs: u32,
    /// Evaluation variant.
    pub variant: Variant,
    /// Per-device memory, bytes.
    pub mem_capacity: u64,
    /// Execute on the cluster emulator when the config fits (otherwise
    /// always simulate).
    pub use_emulator: bool,
    /// Emulator kernel jitter.
    pub jitter: f64,
    /// Run the simulator-guided prepose pass for `Ovlp`/`Lmbs`.
    pub prepose: bool,
}

impl ExpConfig {
    /// A pure-pipeline experiment on A100s.
    pub fn pipeline(model: ModelConfig, scheme: SchemeKind, pp: u32, mbs: u32, gbs: u32) -> Self {
        let gpu = GpuSpec::a100_40g();
        let mem_capacity = gpu.mem_bytes;
        Self {
            model,
            gpu,
            scheme,
            pp,
            tp: 1,
            dp: 1,
            mbs,
            gbs,
            variant: Variant::Base,
            mem_capacity,
            use_emulator: true,
            jitter: 0.02,
            prepose: true,
        }
    }

    /// Sets the variant.
    pub fn variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Sets tensor parallelism.
    pub fn tp(mut self, tp: u32) -> Self {
        self.tp = tp;
        self
    }

    /// Effective micro-batch size after the variant adjustment.
    pub fn effective_mbs(&self) -> u32 {
        match self.variant {
            Variant::Lmbs => self.mbs * 2,
            _ => self.mbs,
        }
    }

    /// Micro-batches per pipeline per iteration.
    pub fn micros(&self) -> u32 {
        let denom = self.dp * self.effective_mbs();
        assert!(
            self.gbs.is_multiple_of(denom),
            "gbs {} not divisible by dp*mbs = {denom}",
            self.gbs
        );
        self.gbs / denom
    }

    /// Short label like `V-ovlp`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.scheme.shape_letter(), self.variant.label())
    }
}

/// The measured outcome of one experiment point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigResult {
    /// `V-ovlp`-style label.
    pub label: String,
    /// Effective micro-batch size used.
    pub micro_bs: u32,
    /// Global batch size.
    pub global_bs: u32,
    /// Cluster throughput, samples/s.
    pub throughput: f64,
    /// Iteration time, ns.
    pub iter_ns: u64,
    /// Per-device peak memory, bytes.
    pub per_device_peak: Vec<u64>,
    /// Whether the config exceeds device memory.
    pub oom: bool,
    /// True when the number comes from the simulator because the real run
    /// would OOM (the paper's underlined values) or emulation was skipped.
    pub estimated: bool,
}

impl ConfigResult {
    /// `[min, max]` peak memory.
    pub fn mem_range(&self) -> (u64, u64) {
        (
            self.per_device_peak.iter().copied().min().unwrap_or(0),
            self.per_device_peak.iter().copied().max().unwrap_or(0),
        )
    }
}

/// Critical-path report for an already-built schedule: simulate under
/// `cost` and attribute every nanosecond of the makespan.
pub fn critical_path_of(
    schedule: &Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
) -> CritReport {
    let t = simulate_timeline(schedule, cost, channel_capacity).expect("schedule simulates");
    analyze(schedule, &t.spans)
}

/// The representative critical-path report a bench's `--json` summary
/// publishes: the bench's headline (scheme, depth, micro-count) under
/// `cost`, generated untuned, simulated, and analyzed. Bins attach it
/// via [`crate::summary::RunSummary::attach_critical_path`].
pub fn headline_critical_path(
    scheme: SchemeKind,
    devices: u32,
    micros: u32,
    cost: &dyn CostModel,
) -> CritReport {
    let schedule = generate(ScheduleConfig::new(scheme, devices, micros));
    critical_path_of(&schedule, cost, scheme_channel_capacity(scheme))
}

/// [`headline_critical_path`] on the paper's unit grid (every kernel
/// `t`, zero comm cost) — the attribution the closed-form benches
/// publish.
pub fn unit_critical_path(scheme: SchemeKind, devices: u32, micros: u32) -> CritReport {
    headline_critical_path(scheme, devices, micros, &mario_ir::UnitCost::paper_grid())
}

/// [`headline_critical_path`] under the analytic cost model of a pure
/// pipeline (`model` on A100-40G, depth `pp`, micro-batch size `mbs`) —
/// the attribution the model-driven benches publish.
pub fn analytic_critical_path(
    model: ModelConfig,
    scheme: SchemeKind,
    pp: u32,
    micros: u32,
    mbs: u32,
) -> CritReport {
    let gpu = GpuSpec::a100_40g();
    let topo = Topology::new(scheme, pp);
    let setup = TrainSetup::pipeline(model, gpu, topo, mbs);
    let cost = AnalyticCost::new(&setup);
    headline_critical_path(scheme, pp, micros, &cost)
}

/// Runs one experiment point end to end.
pub fn run_config(cfg: &ExpConfig) -> ConfigResult {
    let micros = cfg.micros();
    let mbs = cfg.effective_mbs();
    let topo = Topology::new(cfg.scheme, cfg.pp);
    let setup = TrainSetup::pipeline(cfg.model.clone(), cfg.gpu.clone(), topo, mbs)
        .with_tp(cfg.tp)
        .with_dp(cfg.dp);
    let cost = AnalyticCost::new(&setup);
    let cap = scheme_channel_capacity(cfg.scheme);
    let mut schedule = generate(
        ScheduleConfig::new(cfg.scheme, cfg.pp, micros).allreduce(cfg.dp > 1),
    );
    match cfg.variant {
        Variant::Base => {}
        Variant::Ckpt => {
            run_graph_tuner(&mut schedule, &cost, GraphTunerOptions::ckpt_only());
        }
        Variant::Ovlp | Variant::Lmbs => {
            run_graph_tuner(
                &mut schedule,
                &cost,
                GraphTunerOptions {
                    prepose: cfg.prepose,
                    prepose_opts: PreposeOptions {
                        channel_capacity: cap,
                        mem_capacity: Some(cfg.mem_capacity),
                        max_rounds: 2,
                    },
                    ..GraphTunerOptions::mario()
                },
            );
        }
    }

    let mem = simulate_memory(&schedule, &cost, Some(cfg.mem_capacity));
    let oom = !mem.fits(cfg.mem_capacity);

    let (iter_ns, estimated) = if oom || !cfg.use_emulator {
        let t = simulate_timeline(&schedule, &cost, cap).expect("schedule simulates");
        (t.total_ns, true)
    } else {
        let report = mario_cluster::run(
            &schedule,
            &cost,
            mario_cluster::EmulatorConfig {
                channel_capacity: cap,
                jitter: cfg.jitter,
                mem_capacity: Some(cfg.mem_capacity),
                ..Default::default()
            },
        )
        .expect("feasible schedule executes");
        (report.iter_ns, false)
    };

    let dp_eff = 0.97f64.powf((cfg.dp as f64).log2());
    // OOM configs keep their simulator-estimated throughput (the paper's
    // underlined values); `estimated` already marks them.
    let throughput = cfg.gbs as f64 / (iter_ns as f64 / 1e9) * dp_eff;

    ConfigResult {
        label: cfg.label(),
        micro_bs: mbs,
        global_bs: cfg.gbs,
        throughput,
        iter_ns,
        per_device_peak: mem.peak,
        oom,
        estimated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(variant: Variant) -> ExpConfig {
        ExpConfig::pipeline(ModelConfig::gpt3_1_6b(), SchemeKind::OneFOneB, 4, 2, 32)
            .variant(variant)
    }

    #[test]
    fn variant_ordering_holds_at_small_scale() {
        // base > ovlp > ckpt in throughput; lmbs >= ovlp.
        let base = run_config(&tiny(Variant::Base));
        let ckpt = run_config(&tiny(Variant::Ckpt));
        let ovlp = run_config(&tiny(Variant::Ovlp));
        let lmbs = run_config(&tiny(Variant::Lmbs));
        assert!(base.throughput > ckpt.throughput);
        assert!(ovlp.throughput > ckpt.throughput);
        assert!(lmbs.throughput > ovlp.throughput);
        assert!(!base.oom && !lmbs.oom);
    }

    #[test]
    fn checkpointing_flattens_memory() {
        let base = run_config(&tiny(Variant::Base));
        let ovlp = run_config(&tiny(Variant::Ovlp));
        let (bmin, bmax) = base.mem_range();
        let (omin, omax) = ovlp.mem_range();
        assert!(omax < bmax, "ovlp {omax} vs base {bmax}");
        // Imbalance shrinks dramatically.
        assert!((omax - omin) < (bmax - bmin));
    }

    #[test]
    fn lmbs_halves_micro_count() {
        let c = tiny(Variant::Lmbs);
        assert_eq!(c.effective_mbs(), 4);
        assert_eq!(c.micros(), 8);
    }

    #[test]
    fn labels() {
        assert_eq!(tiny(Variant::Ovlp).label(), "V-ovlp");
        assert_eq!(
            ExpConfig::pipeline(ModelConfig::gpt3_1_6b(), SchemeKind::Chimera, 4, 2, 32)
                .variant(Variant::Lmbs)
                .label(),
            "X-lmbs"
        );
    }
}
