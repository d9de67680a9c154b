//! Byte-level pins of graph-tuner passes 1–3 (apply-checkpoint,
//! overlap-recompute, remove-redundancy).
//!
//! Each test hashes the schedule text `to_text` renders after the passes,
//! over a fixed set of inputs, and compares the digest with one recorded
//! from the sequential, edit-by-edit implementation of the passes. Any
//! change to where a checkpoint, recompute or revert lands changes a
//! digest.
//!
//! The prepose test pins pass 4 the same way, with its `PassStats`, under
//! the analytic cost at several memory budgets and on the unit grid.
//!
//! The fig11 grid test hashes 64-device schedules of up to 1.8 M
//! instructions; it takes a few seconds under the test profile's
//! opt-level 2 and far longer in an unoptimised build.

use mario::core::passes::{
    apply_checkpoint, overlap_recompute, remove_redundancy, run_graph_tuner, split_backward,
    GraphTunerOptions, PreposeOptions, SplitOptions,
};
use mario::core::simulator::simulate_memory;
use mario::core::tuner::{admissible, scheme_channel_capacity, SchemeChoice, TunerConfig};
use mario::ir::{to_text, CostModel, Schedule, SchemeKind, Topology, UnitCost};
use mario::model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
use mario::schedules::{generate, ScheduleConfig};

/// 64-bit FNV-1a.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a sequence of labelled schedules: each label and its
/// schedule's text, in order.
fn digest<'a>(points: impl IntoIterator<Item = (String, &'a Schedule)>) -> u64 {
    let mut h = FNV_OFFSET;
    for (label, s) in points {
        fnv1a(&mut h, label.as_bytes());
        fnv1a(&mut h, to_text(s).as_bytes());
    }
    h
}

/// Passes 1–3, in the order `run_graph_tuner` runs them.
fn passes_1_to_3(s: &mut Schedule) {
    apply_checkpoint(s);
    overlap_recompute(s);
    remove_redundancy(s);
}

/// The Fig. 11 tuner configuration (`experiments::fig11::config`).
fn fig11_config(total_devices: u32, gbs: u32) -> TunerConfig {
    TunerConfig {
        scheme_choice: SchemeChoice::Auto,
        mbs_options: vec![1, 2, 4, 8, 16, 32],
        min_pp: 4,
        prepose: false,
        ..TunerConfig::new(total_devices, gbs, 40 * (1 << 30))
    }
}

/// Digest of the schedule `tuner::build_schedule` produces at every
/// admissible grid point of `cfg`, in the order `tune` visits them. With
/// prepose off the channel capacity never reaches the passes, so
/// generation plus `run_graph_tuner` is the whole build.
fn grid_digest(cfg: &TunerConfig) -> (u64, usize) {
    let model = ModelConfig::gpt3_13b();
    assert!(!cfg.prepose);
    let mut h = FNV_OFFSET;
    let mut points = 0;
    for scheme in cfg.scheme_choice.schemes() {
        for pp in
            (cfg.min_pp..=cfg.total_devices).filter(|&pp| cfg.total_devices.is_multiple_of(pp))
        {
            for &mbs in &cfg.mbs_options {
                for &mario in &cfg.ckpt_options {
                    let cand = mario::core::tuner::Candidate {
                        scheme,
                        pp,
                        dp: cfg.total_devices / pp,
                        mbs,
                        mario,
                    };
                    let Some(micros) = admissible(&model, &cand, cfg.gbs) else {
                        continue;
                    };
                    let mut s =
                        generate(ScheduleConfig::new(scheme, pp, micros).allreduce(cand.dp > 1));
                    if mario {
                        let opts = GraphTunerOptions {
                            prepose: false,
                            ..GraphTunerOptions::mario()
                        };
                        run_graph_tuner(&mut s, &mario::ir::UnitCost::paper_grid(), opts);
                    }
                    fnv1a(&mut h, cand.to_string().as_bytes());
                    fnv1a(&mut h, to_text(&s).as_bytes());
                    points += 1;
                }
            }
        }
    }
    (h, points)
}

#[test]
fn passes_match_the_sequential_edits_on_the_tune32_grid() {
    // perf's tune-32 workload: the Fig. 11 grid on 32 GPUs at gbs 128.
    let (h, points) = grid_digest(&fig11_config(32, 128));
    assert_eq!(points, 112);
    assert_eq!(h, 0x7a47_f51b_b3db_506a, "tune-32 grid digest {h:#018x}");
}

fn every_scheme() -> [SchemeKind; 8] {
    [
        SchemeKind::GPipe,
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
        SchemeKind::Wave { chunks: 2 },
        SchemeKind::ForwardOnly,
        SchemeKind::ZeroBubbleH1,
        SchemeKind::ZeroBubbleV,
    ]
}

#[test]
fn passes_match_the_sequential_edits_on_every_scheme() {
    let mut tuned = Vec::new();
    for (d, n) in [(4u32, 8u32), (8, 32)] {
        for scheme in every_scheme() {
            let mut s = generate(ScheduleConfig::new(scheme, d, n));
            passes_1_to_3(&mut s);
            tuned.push((format!("{scheme:?} {d}x{n}"), s));
        }
        // Split backwards as pass input (Bi anchors the recompute) and
        // the ablation's order: passes, then split, then overlap again.
        for scheme in [SchemeKind::OneFOneB, SchemeKind::Interleave { chunks: 2 }] {
            let mut pre = generate(ScheduleConfig::new(scheme, d, n));
            split_backward(&mut pre, SplitOptions::default());
            passes_1_to_3(&mut pre);
            tuned.push((format!("split+passes {scheme:?} {d}x{n}"), pre));
            let mut post = generate(ScheduleConfig::new(scheme, d, n));
            passes_1_to_3(&mut post);
            split_backward(&mut post, SplitOptions::default());
            overlap_recompute(&mut post);
            tuned.push((format!("passes+split {scheme:?} {d}x{n}"), post));
        }
    }
    let h = digest(tuned.iter().map(|(l, s)| (l.clone(), s)));
    assert_eq!(h, 0x1a49_4067_b3b6_16f1, "every-scheme digest {h:#018x}");
}

#[test]
fn passes_match_the_sequential_edits_on_the_fig11_grid() {
    let (h, points) = grid_digest(&fig11_config(64, 2048));
    assert_eq!(points, 180);
    assert_eq!(h, 0x8a57_e77c_0b9d_cb49, "fig11 grid digest {h:#018x}");
}

/// The prepose pin points: every scheme prepose has to reckon with, at
/// two widths and two depths.
fn prepose_points() -> Vec<(SchemeKind, u32, u32)> {
    let mut points = Vec::new();
    for scheme in [
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
    ] {
        for d in [4u32, 8] {
            for n in [8u32, 32] {
                points.push((scheme, d, n));
            }
        }
    }
    points
}

/// Runs full Mario (passes 1–4) on `s` at its scheme's channel capacity
/// under `mem_capacity`, appends the `PassStats` and the schedule text to
/// `h`, and returns the swaps preposed.
fn tune_and_hash(
    h: &mut u64,
    label: &str,
    mut s: Schedule,
    cost: &dyn CostModel,
    mem_capacity: Option<u64>,
) -> usize {
    let opts = GraphTunerOptions {
        prepose_opts: PreposeOptions {
            channel_capacity: scheme_channel_capacity(s.topology.scheme),
            mem_capacity,
            ..PreposeOptions::default()
        },
        ..GraphTunerOptions::mario()
    };
    let stats = run_graph_tuner(&mut s, cost, opts);
    fnv1a(h, format!("{label} {mem_capacity:?} {stats:?}").as_bytes());
    fnv1a(h, to_text(&s).as_bytes());
    stats.preposed
}

/// Pins what the simulator-guided pass 4 decides: every accepted swap
/// shows in the schedule text and `PassStats`. Each point runs under
/// GPT3-13B on A100-40G at mbs 2 uncapped, under 40 GiB (which the 4-stage
/// pipelines already exceed), at exactly the pass-3 schedule's peak and
/// one byte below it, where `fits` turns down every swap the makespan
/// alone would take; the unit grid runs uncapped.
#[test]
fn prepose_decisions_match_on_every_scheme() {
    let mut h = FNV_OFFSET;
    let (mut uncapped, mut below_peak) = (0, 0);
    for (scheme, d, n) in prepose_points() {
        let label = format!("{scheme:?} {d}x{n}");
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = AnalyticCost::new(&TrainSetup::pipeline(
            ModelConfig::gpt3_13b(),
            GpuSpec::a100_40g(),
            Topology::new(scheme, d),
            2,
        ));
        let mut pass3 = s.clone();
        passes_1_to_3(&mut pass3);
        let peak = simulate_memory(&pass3, &cost, None).max_peak();
        uncapped += tune_and_hash(&mut h, &label, s.clone(), &cost, None);
        tune_and_hash(&mut h, &label, s.clone(), &cost, Some(40 << 30));
        tune_and_hash(&mut h, &label, s.clone(), &cost, Some(peak));
        below_peak += tune_and_hash(&mut h, &label, s.clone(), &cost, Some(peak - 1));
        tune_and_hash(&mut h, &label, s, &UnitCost::paper_grid(), None);
    }
    assert!(
        uncapped > 0 && below_peak == 0,
        "{uncapped} uncapped, {below_peak} below peak"
    );
    assert_eq!(h, 0x3beb_1949_b0da_2def, "prepose digest {h:#018x}");
}
