//! Figure 10: simulator accuracy — estimated (profiling-regression cost
//! model + DP simulator) versus "real" (cluster emulator on the analytic
//! ground truth with kernel jitter), on GPT3-1.6B with 8 GPUs.
//!
//! The paper reports MAPE 5.1% for peak memory and 9.4% for throughput,
//! with the partial order of configurations preserved.

use crate::table::{gb, Table};
use mario_core::passes::{run_graph_tuner, GraphTunerOptions};
use mario_core::simulator::{simulate_memory, simulate_timeline};
use mario_core::tuner::scheme_channel_capacity;
use mario_ir::{SchemeKind, Topology};
use mario_model::{
    mape, profile_and_build, AnalyticCost, GpuSpec, ModelConfig, ProfilerConfig, TrainSetup,
};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// One accuracy sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyPoint {
    /// Config label.
    pub label: String,
    /// Emulator ("real") throughput, samples/s.
    pub real_tp: f64,
    /// Simulator estimate, samples/s.
    pub est_tp: f64,
    /// Emulator peak memory (max device), bytes.
    pub real_mem: u64,
    /// Simulator peak estimate, bytes.
    pub est_mem: u64,
}

/// Summary statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Accuracy {
    /// Per-config samples.
    pub points: Vec<AccuracyPoint>,
    /// Throughput MAPE, percent.
    pub tput_mape: f64,
    /// Memory MAPE, percent.
    pub mem_mape: f64,
    /// Fraction of config pairs whose throughput order the simulator
    /// preserves (1.0 = perfect partial order).
    pub order_concordance: f64,
}

/// Runs the accuracy study on GPT3-1.6B / 8 GPUs across scheme × mbs ×
/// checkpointing.
pub fn run() -> Accuracy {
    let model = ModelConfig::gpt3_1_6b();
    let gpu = GpuSpec::a100_40g();
    let gbs = 64u32;
    let mut points = Vec::new();

    for scheme in [
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
    ] {
        for mbs in [1u32, 2] {
            for mario in [false, true] {
                let micros = gbs / mbs;
                let topo = Topology::new(scheme, 8);
                let setup =
                    TrainSetup::pipeline(model.clone(), gpu.clone(), topo, mbs);
                // Ground truth: analytic cost + jitter in the emulator.
                let truth = AnalyticCost::new(&setup);
                // Estimate: regression-fitted cost + DP simulator.
                let (profiled, _) = profile_and_build(&setup, ProfilerConfig::default());

                let mut schedule =
                    generate(ScheduleConfig::new(scheme, 8, micros));
                if mario {
                    run_graph_tuner(
                        &mut schedule,
                        &truth,
                        GraphTunerOptions {
                            prepose: false,
                            ..GraphTunerOptions::mario()
                        },
                    );
                }
                let cap = scheme_channel_capacity(scheme);

                let emu = mario_cluster::run(
                    &schedule,
                    &truth,
                    mario_cluster::EmulatorConfig {
                        channel_capacity: cap,
                        jitter: 0.03,
                        straggler_spread: 0.06,
                        ..Default::default()
                    },
                )
                .expect("schedule executes");
                let sim_t = simulate_timeline(&schedule, &profiled, cap).unwrap();
                let sim_m = simulate_memory(&schedule, &profiled, None);

                points.push(AccuracyPoint {
                    label: format!(
                        "{}-mbs{}{}",
                        scheme.shape_letter(),
                        mbs,
                        if mario { "-mario" } else { "" }
                    ),
                    real_tp: gbs as f64 / (emu.iter_ns as f64 / 1e9),
                    est_tp: sim_t.throughput(gbs as u64),
                    real_mem: emu.max_peak_mem(),
                    est_mem: sim_m.max_peak(),
                });
            }
        }
    }

    let tput_mape = mape(
        &points
            .iter()
            .map(|p| (p.real_tp, p.est_tp))
            .collect::<Vec<_>>(),
    );
    let mem_mape = mape(
        &points
            .iter()
            .map(|p| (p.real_mem as f64, p.est_mem as f64))
            .collect::<Vec<_>>(),
    );

    // Partial-order concordance over all pairs.
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            total += 1;
            let real = points[i].real_tp.total_cmp(&points[j].real_tp);
            let est = points[i].est_tp.total_cmp(&points[j].est_tp);
            if real == est {
                agree += 1;
            }
        }
    }

    Accuracy {
        points,
        tput_mape,
        mem_mape,
        order_concordance: agree as f64 / total as f64,
    }
}

/// Renders the accuracy table and summary.
pub fn render(acc: &Accuracy) -> String {
    let mut t = Table::new(&[
        "Config",
        "Real tput",
        "Est tput",
        "Real mem (GB)",
        "Est mem (GB)",
    ]);
    for p in &acc.points {
        t.row(vec![
            p.label.clone(),
            format!("{:.2}", p.real_tp),
            format!("{:.2}", p.est_tp),
            gb(p.real_mem),
            gb(p.est_mem),
        ]);
    }
    format!(
        "Simulator accuracy (GPT3-1.6B, 8 GPUs, Fig. 10)\n{}\nthroughput MAPE: {:.1}% (paper: 9.4%)\nmemory MAPE: {:.1}% (paper: 5.1%)\norder concordance: {:.1}%\n",
        t.render(),
        acc.tput_mape,
        acc.mem_mape,
        acc.order_concordance * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_is_single_digit_and_order_mostly_preserved() {
        let acc = run();
        assert!(
            acc.tput_mape < 10.0,
            "throughput MAPE {:.2}% (paper 9.4%)",
            acc.tput_mape
        );
        assert!(
            acc.mem_mape < 10.0,
            "memory MAPE {:.2}% (paper 5.1%)",
            acc.mem_mape
        );
        assert!(
            acc.order_concordance > 0.85,
            "order concordance {:.2}",
            acc.order_concordance
        );
        assert_eq!(acc.points.len(), 12);
    }
}
