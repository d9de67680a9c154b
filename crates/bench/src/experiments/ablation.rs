//! Ablations: (a) stage-partition ramps (§7.1 — "varying k layers
//! uniformly across stages", k ∈ {-2, -1, 0, +1, +2}, with and without
//! Mario) and (b) per-pass contribution of the graph tuner at model scale.

use crate::table::Table;
use mario_core::passes::{
    apply_checkpoint, overlap_recompute, prepose_forward, remove_redundancy, split_backward,
    PreposeOptions, SplitOptions,
};
use mario_core::simulator::simulate_timeline;
use mario_core::tuner::scheme_channel_capacity;
use mario_ir::{SchemeKind, Topology};
use mario_model::{AnalyticCost, GpuSpec, ModelConfig, StagePartition, TrainSetup};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// One partition-ramp result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RampPoint {
    /// The ramp parameter k.
    pub k: i32,
    /// Throughput without checkpointing, samples/s.
    pub base_tp: f64,
    /// Throughput with Mario, samples/s.
    pub mario_tp: f64,
}

/// Runs the §7.1 partition ablation on GPT3-1.6B / 8 GPUs.
pub fn partition_ramp() -> Vec<RampPoint> {
    let model = ModelConfig::gpt3_1_6b();
    let gpu = GpuSpec::a100_40g();
    let gbs = 64u32;
    let mbs = 2u32;
    let micros = gbs / mbs;
    let scheme = SchemeKind::OneFOneB;
    let topo = Topology::new(scheme, 8);
    let cap = scheme_channel_capacity(scheme);
    (-2..=2)
        .map(|k| {
            let partition = StagePartition::ramp(model.layers, 8, k);
            let setup = TrainSetup::pipeline(model.clone(), gpu.clone(), topo, mbs)
                .with_partition(partition);
            let cost = AnalyticCost::new(&setup);
            let base = generate(ScheduleConfig::new(scheme, 8, micros));
            let base_tp = simulate_timeline(&base, &cost, cap)
                .unwrap()
                .throughput(gbs as u64);
            let mut mario = base.clone();
            apply_checkpoint(&mut mario);
            overlap_recompute(&mut mario);
            remove_redundancy(&mut mario);
            prepose_forward(
                &mut mario,
                &cost,
                PreposeOptions {
                    channel_capacity: cap,
                    max_rounds: 2,
                    ..Default::default()
                },
            );
            overlap_recompute(&mut mario);
            let mario_tp = simulate_timeline(&mario, &cost, cap)
                .unwrap()
                .throughput(gbs as u64);
            RampPoint {
                k,
                base_tp,
                mario_tp,
            }
        })
        .collect()
}

/// One per-pass ablation point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassPoint {
    /// Which passes are on.
    pub label: String,
    /// Throughput, samples/s.
    pub throughput: f64,
}

/// Per-pass contribution on GPT3-1.6B / 8 GPUs (model-scale Fig. 2).
pub fn pass_ablation() -> Vec<PassPoint> {
    let model = ModelConfig::gpt3_1_6b();
    let gpu = GpuSpec::a100_40g();
    let gbs = 64u32;
    let mbs = 2u32;
    let micros = gbs / mbs;
    let scheme = SchemeKind::OneFOneB;
    let topo = Topology::new(scheme, 8);
    let cap = scheme_channel_capacity(scheme);
    let setup = TrainSetup::pipeline(model, gpu, topo, mbs);
    let cost = AnalyticCost::new(&setup);
    let tp = |s: &mario_ir::Schedule| {
        simulate_timeline(s, &cost, cap)
            .unwrap()
            .throughput(gbs as u64)
    };

    let base = generate(ScheduleConfig::new(scheme, 8, micros));
    let mut points = vec![PassPoint {
        label: "base (no ckpt)".into(),
        throughput: tp(&base),
    }];
    let mut s = base.clone();
    apply_checkpoint(&mut s);
    points.push(PassPoint {
        label: "+ pass1 apply-checkpoint".into(),
        throughput: tp(&s),
    });
    overlap_recompute(&mut s);
    points.push(PassPoint {
        label: "+ pass2 overlap-recompute".into(),
        throughput: tp(&s),
    });
    remove_redundancy(&mut s);
    points.push(PassPoint {
        label: "+ pass3 remove-redundancy".into(),
        throughput: tp(&s),
    });
    prepose_forward(
        &mut s,
        &cost,
        PreposeOptions {
            channel_capacity: cap,
            max_rounds: 2,
            ..Default::default()
        },
    );
    overlap_recompute(&mut s);
    points.push(PassPoint {
        label: "+ pass4 prepose-forward".into(),
        throughput: tp(&s),
    });
    points
}

/// The §8 future-work extension: ZB-style split backward, alone and
/// composed with Mario's checkpointing passes, on GPT3-1.6B / 8 GPUs.
pub fn zb_extension() -> Vec<PassPoint> {
    let model = ModelConfig::gpt3_1_6b();
    let gpu = GpuSpec::a100_40g();
    let gbs = 64u32;
    let mbs = 2u32;
    let micros = gbs / mbs;
    let scheme = SchemeKind::OneFOneB;
    let topo = Topology::new(scheme, 8);
    let cap = scheme_channel_capacity(scheme);
    let setup = TrainSetup::pipeline(model, gpu, topo, mbs);
    let cost = AnalyticCost::new(&setup);
    let tp = |s: &mario_ir::Schedule| {
        simulate_timeline(s, &cost, cap)
            .unwrap()
            .throughput(gbs as u64)
    };

    let base = generate(ScheduleConfig::new(scheme, 8, micros));
    let mut out = vec![PassPoint {
        label: "base".into(),
        throughput: tp(&base),
    }];

    let mut zb = base.clone();
    split_backward(&mut zb, SplitOptions::default());
    out.push(PassPoint {
        label: "base + split-backward".into(),
        throughput: tp(&zb),
    });

    let mut mario = base.clone();
    apply_checkpoint(&mut mario);
    overlap_recompute(&mut mario);
    remove_redundancy(&mut mario);
    out.push(PassPoint {
        label: "mario (ckpt passes 1-3)".into(),
        throughput: tp(&mario),
    });

    let mut both = mario.clone();
    split_backward(&mut both, SplitOptions::default());
    overlap_recompute(&mut both);
    out.push(PassPoint {
        label: "mario + split-backward".into(),
        throughput: tp(&both),
    });
    out
}

/// Renders both ablations.
pub fn render(ramp: &[RampPoint], passes: &[PassPoint]) -> String {
    let mut out = String::from("Stage-partition ramp (§7.1, GPT3-1.6B, 8 GPUs)\n");
    let mut t = Table::new(&["k", "base tput", "vs k=0", "Mario tput", "vs k=0"]);
    let base0 = ramp.iter().find(|p| p.k == 0).map(|p| p.base_tp).unwrap();
    let mario0 = ramp.iter().find(|p| p.k == 0).map(|p| p.mario_tp).unwrap();
    for p in ramp {
        t.row(vec![
            p.k.to_string(),
            format!("{:.2}", p.base_tp),
            format!("{:+.1}%", (p.base_tp / base0 - 1.0) * 100.0),
            format!("{:.2}", p.mario_tp),
            format!("{:+.1}%", (p.mario_tp / mario0 - 1.0) * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nPer-pass ablation (GPT3-1.6B, 8 GPUs)\n");
    let mut t = Table::new(&["configuration", "throughput", "vs base"]);
    let b = passes[0].throughput;
    for p in passes {
        t.row(vec![
            p.label.clone(),
            format!("{:.2}", p.throughput),
            format!("{:.1}%", p.throughput / b * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nZB split-backward extension (§8 future work)\n");
    let zb = zb_extension();
    let mut t = Table::new(&["configuration", "throughput", "vs base"]);
    let b = zb[0].throughput;
    for p in &zb {
        t.row(vec![
            p.label.clone(),
            format!("{:.2}", p.throughput),
            format!("{:+.1}%", (p.throughput / b - 1.0) * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_produces_five_points_and_modest_deltas() {
        let ramp = partition_ramp();
        assert_eq!(ramp.len(), 5);
        let base0 = ramp[2].base_tp;
        for p in &ramp {
            // §7.1: partition deltas move throughput by only a few percent.
            assert!(
                (p.base_tp / base0 - 1.0).abs() < 0.15,
                "k={} moved base throughput by {:.1}%",
                p.k,
                (p.base_tp / base0 - 1.0) * 100.0
            );
        }
    }

    #[test]
    fn split_backward_improves_base_and_composes_with_mario() {
        let zb = zb_extension();
        assert_eq!(zb.len(), 4);
        assert!(
            zb[1].throughput > zb[0].throughput,
            "split should beat base: {} vs {}",
            zb[1].throughput,
            zb[0].throughput
        );
        assert!(
            zb[3].throughput > zb[2].throughput,
            "split should lift mario: {} vs {}",
            zb[3].throughput,
            zb[2].throughput
        );
    }

    #[test]
    fn pass_ablation_recovers_monotonically_from_pass1() {
        let pts = pass_ablation();
        assert_eq!(pts.len(), 5);
        // pass1 costs throughput; each later pass recovers some.
        assert!(pts[1].throughput < pts[0].throughput);
        for w in pts[1..].windows(2) {
            assert!(
                w[1].throughput >= w[0].throughput * 0.999,
                "{} -> {}",
                w[0].label,
                w[1].label
            );
        }
    }
}
