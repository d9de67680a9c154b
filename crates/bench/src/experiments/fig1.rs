//! Figure 1 (context): the development of pipeline-parallelism schemes —
//! relative training throughput of GPipe → 1F1B → Chimera / Interleave /
//! wave on a common workload, plus their bubble ratios.

use crate::table::Table;
use mario_core::simulator::simulate_timeline;
use mario_core::tuner::scheme_channel_capacity;
use mario_ir::{SchemeKind, Topology};
use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// One scheme's headline numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemeNumbers {
    /// Scheme name.
    pub scheme: String,
    /// Throughput, samples/s.
    pub throughput: f64,
    /// Relative to GPipe.
    pub speedup_vs_gpipe: f64,
    /// Bubble fraction of total device time.
    pub bubble_ratio: f64,
}

/// Compares the schemes on GPT3-1.6B / 8 GPUs / gbs 64 / mbs 2.
pub fn run() -> Vec<SchemeNumbers> {
    let model = ModelConfig::gpt3_1_6b();
    let gpu = GpuSpec::a100_40g();
    // N = D: the regime the schemes' own papers illustrate (Chimera's
    // bidirectional overlap is designed for one round of D micro-batches).
    let gbs = 16u32;
    let mbs = 2u32;
    let micros = gbs / mbs;
    let mut out: Vec<SchemeNumbers> = Vec::new();
    let mut gpipe_tp = 0.0;
    for scheme in [
        SchemeKind::GPipe,
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
        SchemeKind::Wave { chunks: 2 },
    ] {
        let topo = Topology::new(scheme, 8);
        let setup = TrainSetup::pipeline(model.clone(), gpu.clone(), topo, mbs);
        let cost = AnalyticCost::new(&setup);
        let schedule = generate(ScheduleConfig::new(scheme, 8, micros));
        let t = simulate_timeline(&schedule, &cost, scheme_channel_capacity(scheme)).unwrap();
        let tp = t.throughput(gbs as u64);
        if matches!(scheme, SchemeKind::GPipe) {
            gpipe_tp = tp;
        }
        let total_device_time = t.total_ns * 8;
        out.push(SchemeNumbers {
            scheme: format!("{scheme:?}"),
            throughput: tp,
            speedup_vs_gpipe: tp / gpipe_tp,
            bubble_ratio: t.bubble_ns() as f64 / total_device_time as f64,
        });
    }
    out
}

/// Renders the comparison.
pub fn render(rows: &[SchemeNumbers]) -> String {
    let mut t = Table::new(&["Scheme", "Throughput", "vs GPipe", "Bubble ratio"]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            format!("{:.2}", r.throughput),
            format!("{:.2}x", r.speedup_vs_gpipe),
            format!("{:.1}%", r.bubble_ratio * 100.0),
        ]);
    }
    format!(
        "Pipeline scheme development (GPT3-1.6B, 8 GPUs, Fig. 1)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newer_schemes_do_not_regress_gpipe() {
        let rows = run();
        assert_eq!(rows.len(), 5);
        let gpipe = &rows[0];
        // The paper's lineage (1F1B, Chimera, Interleave). Our wave
        // extension is engine-derived rather than Hanayo's hand-tuned
        // action list, so it is reported but not asserted.
        for r in rows[1..4].iter() {
            assert!(
                r.throughput >= gpipe.throughput * 0.95,
                "{} slower than GPipe: {} vs {}",
                r.scheme,
                r.throughput,
                gpipe.throughput
            );
        }
    }

    #[test]
    fn chimera_has_lower_bubble_ratio_than_1f1b() {
        let rows = run();
        let v = rows.iter().find(|r| r.scheme == "OneFOneB").unwrap();
        let x = rows.iter().find(|r| r.scheme == "Chimera").unwrap();
        assert!(
            x.bubble_ratio < v.bubble_ratio,
            "X {} vs V {}",
            x.bubble_ratio,
            v.bubble_ratio
        );
    }
}
