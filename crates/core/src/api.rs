//! The user-facing API, mirroring the paper's Listing 1:
//!
//! ```text
//! mario_conf = { 'pipeline_scheme': 'Auto|V|X|W|...',
//!                'global_batch_size': 128,
//!                'num_device': 32,
//!                'memory_per_device': '40G' }
//! schedule = mario.optimize(mario_conf, model_conf)
//! mario.run(schedule)
//! ```
//!
//! [`optimize`] runs the schedule tuner and returns the tuned schedule plus
//! the cost model it was evaluated under; [`run`] executes it on the
//! emulated cluster.

use crate::passes::PassStats;
use crate::simulator::{simulate_timeline, SimTimeline};
use crate::tuner::{
    admissible, build_schedule, tune, Built, Evaluation, SchemeChoice, TuneError, TunerConfig,
};
use mario_cluster::{EmuError, EmulatorConfig, RunReport};
use mario_ir::Schedule;
use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
use serde::{Deserialize, Serialize};

/// The Mario configuration (paper Listing 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarioConfig {
    /// Pipeline scheme: `Auto` searches V/X/W.
    pub pipeline_scheme: SchemeChoice,
    /// Global batch size.
    pub global_batch_size: u32,
    /// Number of devices in the cluster.
    pub num_devices: u32,
    /// Memory per device, bytes (`'40G'` in the listing).
    pub memory_per_device: u64,
}

impl MarioConfig {
    /// A configuration with `Auto` scheme selection.
    pub fn auto(num_devices: u32, global_batch_size: u32, memory_per_device: u64) -> Self {
        Self {
            pipeline_scheme: SchemeChoice::Auto,
            global_batch_size,
            num_devices,
            memory_per_device,
        }
    }
}

/// An optimized, ready-to-run schedule.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The tuned instruction lists.
    pub schedule: Schedule,
    /// The winning grid point and its simulated performance.
    pub evaluation: Evaluation,
    /// The training setup the schedule was built for.
    pub setup: TrainSetup,
    /// What the graph tuner did.
    pub stats: PassStats,
    /// Wall-clock tuning time.
    pub tuning_time: std::time::Duration,
    /// The p2p buffer depth the tuner built and evaluated the schedule
    /// at.
    channel_capacity: usize,
}

impl Optimized {
    /// Re-simulates the optimized schedule (e.g. after inspecting it) at
    /// the channel capacity the tuner evaluated it at, so its makespan is
    /// the evaluation's `iter_ns`.
    pub fn simulate(&self) -> SimTimeline {
        let cost = AnalyticCost::new(&self.setup);
        simulate_timeline(&self.schedule, &cost, self.channel_capacity)
            .expect("tuned schedule simulates")
    }
}

/// Searches for the best (scheme, pp, dp, mbs, checkpointing) combination
/// and materializes the tuned schedule (paper `mario.optimize`).
pub fn optimize(
    mario_conf: &MarioConfig,
    model_conf: &ModelConfig,
    gpu: &GpuSpec,
) -> Result<Optimized, TuneError> {
    let cfg = TunerConfig {
        scheme_choice: mario_conf.pipeline_scheme.clone(),
        ..TunerConfig::new(
            mario_conf.num_devices,
            mario_conf.global_batch_size,
            mario_conf.memory_per_device,
        )
    };
    let result = tune(model_conf, gpu, &cfg)?;
    let best = result.best.clone();
    // Rebuild the winning schedule (the tuner's evaluation is throwaway)
    // through the tuner's own build, so it is the schedule evaluated.
    let micros = admissible(model_conf, &best.candidate, cfg.gbs)
        .expect("winning candidate is admissible");
    let Built {
        schedule,
        setup,
        cap,
        stats,
        ..
    } = build_schedule(model_conf, gpu, &cfg, best.candidate, micros);
    Ok(Optimized {
        schedule,
        evaluation: best,
        setup,
        stats,
        tuning_time: result.tuning_time,
        channel_capacity: cap,
    })
}

/// Executes an optimized schedule on the emulated cluster (paper
/// `mario.run`).
pub fn run(opt: &Optimized, emu: EmulatorConfig) -> Result<RunReport, EmuError> {
    let cost = AnalyticCost::new(&opt.setup);
    mario_cluster::run(&opt.schedule, &cost, emu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimize_then_run_round_trip() {
        let mario_conf = MarioConfig::auto(8, 32, 40 * (1 << 30));
        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        let opt = optimize(&mario_conf, &model, &gpu).unwrap();
        assert!(opt.evaluation.throughput > 0.0);
        mario_ir::validate(&opt.schedule).unwrap_or_else(|e| panic!("{e:?}"));

        let report = run(
            &opt,
            EmulatorConfig {
                mem_capacity: Some(mario_conf.memory_per_device),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.total_ns > 0);
        // The returned schedule is the one the tuner evaluated.
        let cost = AnalyticCost::new(&opt.setup);
        let sim = crate::simulator::simulate_timeline(&opt.schedule, &cost, opt.channel_capacity)
            .unwrap();
        assert_eq!(sim.total_ns, opt.evaluation.iter_ns);
        assert_eq!(opt.simulate().total_ns, opt.evaluation.iter_ns);
        // The emulated iteration time should be within ~25% of the
        // simulator's promise.
        let sim_ns = opt.evaluation.iter_ns as f64;
        let emu_ns = report.iter_ns as f64;
        let rel = (emu_ns - sim_ns).abs() / sim_ns;
        assert!(rel < 0.25, "sim {sim_ns:.3e} ns vs emu {emu_ns:.3e} ns");
    }

    #[test]
    fn fixed_scheme_choice_is_respected() {
        let mario_conf = MarioConfig {
            pipeline_scheme: SchemeChoice::Fixed(vec![mario_ir::SchemeKind::OneFOneB]),
            ..MarioConfig::auto(8, 32, 40 * (1 << 30))
        };
        let opt = optimize(&mario_conf, &ModelConfig::llama2_3b(), &GpuSpec::a100_40g()).unwrap();
        assert_eq!(
            opt.evaluation.candidate.scheme,
            mario_ir::SchemeKind::OneFOneB
        );
    }
}
