//! Core-crate integration: text-format round trips through the optimizer,
//! split-backward composition, tuner order preservation against the
//! emulator, and visualization of tuned schedules.

use mario_core::passes::{
    run_graph_tuner, split_backward, GraphTunerOptions, SplitOptions,
};
use mario_core::simulator::{simulate_memory, simulate_timeline};
use mario_core::tuner::{evaluate, Candidate, TunerConfig};
use mario_ir::{from_text, to_text, SchemeKind, UnitCost};
use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
use mario_schedules::{generate, ScheduleConfig};

#[test]
fn tuned_schedules_survive_the_text_format() {
    let cost = UnitCost::paper_grid();
    for scheme in [SchemeKind::OneFOneB, SchemeKind::Chimera] {
        let mut s = generate(ScheduleConfig::new(scheme, 4, 8));
        run_graph_tuner(&mut s, &cost, GraphTunerOptions::mario());
        split_backward(&mut s, SplitOptions::default());
        let text = to_text(&s);
        let back = from_text(&text).unwrap();
        assert_eq!(s, back, "{scheme:?}");
        // And the deserialized schedule simulates identically.
        let cap = 2;
        assert_eq!(
            simulate_timeline(&s, &cost, cap).unwrap().total_ns,
            simulate_timeline(&back, &cost, cap).unwrap().total_ns
        );
    }
}

#[test]
fn simulator_order_matches_emulator_order_across_candidates() {
    // The tuner's whole premise (§5.3): the simulator preserves the
    // partial order of configurations. Verify against emulated "reality".
    let model = ModelConfig::gpt3_1_6b();
    let gpu = GpuSpec::a100_40g();
    let cfg = TunerConfig {
        prepose: false,
        ..TunerConfig::new(8, 64, 40 * (1 << 30))
    };
    let mut sims = Vec::new();
    let mut emus = Vec::new();
    for (scheme, mbs, mario) in [
        (SchemeKind::OneFOneB, 1, false),
        (SchemeKind::OneFOneB, 2, true),
        (SchemeKind::Chimera, 2, false),
        (SchemeKind::Interleave { chunks: 2 }, 1, true),
    ] {
        let cand = Candidate {
            scheme,
            pp: 8,
            dp: 1,
            mbs,
            mario,
        };
        let eval = evaluate(&model, &gpu, &cfg, cand).unwrap();
        sims.push(eval.throughput);

        // Re-run the same configuration on the emulator.
        let micros = 64 / mbs;
        let topo = mario_ir::Topology::new(scheme, 8);
        let setup = TrainSetup::pipeline(model.clone(), gpu.clone(), topo, mbs);
        let cost = AnalyticCost::new(&setup);
        let mut schedule = generate(ScheduleConfig::new(scheme, 8, micros));
        if mario {
            run_graph_tuner(
                &mut schedule,
                &cost,
                GraphTunerOptions {
                    prepose: false,
                    ..GraphTunerOptions::mario()
                },
            );
        }
        let cap = mario_core::tuner::scheme_channel_capacity(scheme);
        let report = mario_cluster::run(
            &schedule,
            &cost,
            mario_cluster::EmulatorConfig {
                channel_capacity: cap,
                jitter: 0.02,
                ..Default::default()
            },
        )
        .unwrap();
        emus.push(report.throughput(64));
    }
    for i in 0..sims.len() {
        for j in (i + 1)..sims.len() {
            assert_eq!(
                sims[i].total_cmp(&sims[j]),
                emus[i].total_cmp(&emus[j]),
                "order inversion between candidates {i} and {j}: sim {sims:?} emu {emus:?}"
            );
        }
    }
}

#[test]
fn split_backward_after_full_mario_is_still_near_zero_cost() {
    let model = ModelConfig::llama2_3b();
    let gpu = GpuSpec::a100_40g();
    let topo = mario_ir::Topology::new(SchemeKind::OneFOneB, 8);
    let setup = TrainSetup::pipeline(model, gpu, topo, 2);
    let cost = AnalyticCost::new(&setup);
    let base = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 8, 32));
    let t_base = simulate_timeline(&base, &cost, 1).unwrap().total_ns as f64;

    let mut full = base.clone();
    run_graph_tuner(&mut full, &cost, GraphTunerOptions::mario());
    split_backward(&mut full, SplitOptions::default());
    mario_core::passes::overlap_recompute(&mut full);
    mario_ir::validate(&full).unwrap_or_else(|e| panic!("{e:?}"));
    let t_full = simulate_timeline(&full, &cost, 1).unwrap().total_ns as f64;
    assert!(
        t_full / t_base < 1.08,
        "mario + split should be within 8% of baseline: {:.1}%",
        (t_full / t_base - 1.0) * 100.0
    );
    // While still holding a checkpointing-level memory profile.
    let m_base = simulate_memory(&base, &cost, None).max_peak();
    let m_full = simulate_memory(&full, &cost, None).max_peak();
    assert!(m_full < m_base / 2, "{m_full} vs {m_base}");
}

#[test]
fn viz_renders_split_backward_glyphs() {
    let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 4));
    split_backward(&mut s, SplitOptions::default());
    let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
    let a = mario_core::render_ascii(&t.spans, &s, mario_core::VizOptions::default());
    assert!(a.contains('b'), "input half missing: {a}");
    assert!(a.contains('w'), "weight half missing: {a}");
}

#[test]
fn graph_tuner_schedule_is_a_fixpoint() {
    // Running the full tuner twice yields the same schedule. (The stats
    // churn: the paper's pass order re-applies checkpointing to the pairs
    // remove-redundancy reverted, then reverts them again.)
    let cost = UnitCost::paper_grid();
    let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
    run_graph_tuner(&mut s, &cost, GraphTunerOptions::mario());
    let first = s.clone();
    let stats = run_graph_tuner(&mut s, &cost, GraphTunerOptions::mario());
    assert_eq!(stats.preposed, 0, "prepose found nothing new");
    assert_eq!(stats.checkpointed, stats.reverted, "churn cancels out");
    assert_eq!(s, first);
}
