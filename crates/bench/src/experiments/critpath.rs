//! Critical-path profiler bench: causal attribution for every
//! nanosecond of the makespan.
//!
//! Not a paper artifact — the acceptance harness for
//! `mario_core::critpath`. Three sweeps, each with an exact gate:
//!
//! * **path sweep** — every scheme × checkpoint mode, two iterations on
//!   the unit grid: the critical path must tile `[0, makespan]` bit for
//!   bit (`path_ns == makespan_ns`), every on-path op must have zero
//!   slack, and for selected points the span graph the analyzer consumed
//!   must be bit-identical between the DP simulator and the emulator.
//!   Zero-slack ops form a *superset*
//!   of the walked path in general (cost ties create parallel critical
//!   paths); ZB-H1's unit-grid path is unique, so there the two sets are
//!   pinned equal.
//! * **what-if grid** — counterfactual re-timings of a recorded graph
//!   (stragglers, windowed slowdowns, scoped link latency, free
//!   checkpoints) must equal ground-truth re-simulation exactly, clock
//!   for clock.
//! * **closed-form gap** — 1F1B's path is exactly `(p−1)·t` longer than
//!   ZB-H1's: the analyzer reproduces the zero-bubble headline from the
//!   recorded graphs alone.

use crate::table::Table;
use mario_core::critpath::{analyze, whatif, CritReport, WhatIf};
use mario_core::simulator::{simulate, simulate_timeline, SimOptions};
use mario_core::tuner::scheme_channel_capacity;
use mario_ir::{
    CheckpointPolicy, DeviceId, LinkSlack, PerturbationProfile, Schedule, SchemeKind,
    ShardedWrite, SlowdownWindow, UnitCost,
};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// Pipeline depth of the sweep.
const DEVICES: u32 = 4;
/// Micro-batches per iteration.
const MICROS: u32 = 8;
/// Back-to-back iterations per recording.
const ITERS: u32 = 2;

/// The sweep's cost model: the paper's unit grid, with a 60 kB model
/// shard per device so the sharded checkpoint modes have a real cost
/// (30 µs per flush at 2000 B/µs — the `ckptshard` bench's economy).
fn cost() -> UnitCost {
    UnitCost::paper_grid().with_shard_bytes(60_000)
}

/// A recording's simulator options: [`ITERS`] iterations at capacity
/// `cap` on the cluster `profile` describes, under `checkpoint`.
fn recording(
    cap: usize,
    profile: &PerturbationProfile,
    checkpoint: Option<CheckpointPolicy>,
) -> SimOptions<'_> {
    SimOptions {
        channel_capacity: cap,
        profile,
        iterations: ITERS,
        checkpoint,
        ..SimOptions::default()
    }
}

/// Checkpoint modes the path sweep crosses with every scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CkptMode {
    /// No checkpointing.
    None,
    /// Synchronous flat write at every iteration boundary.
    Flat,
    /// Sharded write, flushed synchronously.
    Sharded,
    /// Sharded write with chunks drained into pipeline bubbles.
    Async,
}

impl CkptMode {
    /// All four modes, cheapest first.
    pub const ALL: [CkptMode; 4] = [CkptMode::None, CkptMode::Flat, CkptMode::Sharded, CkptMode::Async];

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            CkptMode::None => "none",
            CkptMode::Flat => "flat",
            CkptMode::Sharded => "sharded",
            CkptMode::Async => "async",
        }
    }

    /// The emulator/simulator policy this mode stands for.
    pub fn policy(&self) -> Option<CheckpointPolicy> {
        let sharded = ShardedWrite::new(2_000, 500);
        match self {
            CkptMode::None => None,
            CkptMode::Flat => Some(CheckpointPolicy::every(1).with_write_ns(5_000)),
            CkptMode::Sharded => Some(CheckpointPolicy::every(1).with_sharded(sharded)),
            CkptMode::Async => {
                Some(CheckpointPolicy::every(1).with_sharded(sharded.with_async_overlap()))
            }
        }
    }
}

/// One (scheme, checkpoint mode) point of the path sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathRow {
    /// Scheme name (`OneFOneB`, ...).
    pub scheme: String,
    /// Checkpoint mode label.
    pub ckpt: String,
    /// Recorded makespan, ns.
    pub makespan_ns: u64,
    /// Critical-path length, ns — gated equal to `makespan_ns`.
    pub path_ns: u64,
    /// Segments on the path.
    pub segments: usize,
    /// Compute time on the path, ns.
    pub compute_ns: u64,
    /// Communication (launch + wire) on the path, ns.
    pub comm_ns: u64,
    /// Synchronous checkpoint writes on the path, ns.
    pub ckpt_ns: u64,
    /// Ops on the walked path.
    pub on_path_ops: usize,
    /// Ops with zero slack (≥ `on_path_ops`; == for ZB-H1).
    pub zero_slack_ops: usize,
    /// Path tiles the makespan, on-path ops all have zero slack, and the
    /// ZB-H1 uniqueness pin holds.
    pub ok: bool,
}

/// One counterfactual of the what-if grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfRow {
    /// Scheme name.
    pub scheme: String,
    /// Scenario label (`straggler d0 x3`, ...).
    pub scenario: String,
    /// Makespan predicted by re-timing the recorded graph, ns.
    pub predicted_ns: u64,
    /// Makespan of the ground-truth re-simulation, ns.
    pub truth_ns: u64,
    /// Exact match, every device clock included.
    pub ok: bool,
}

/// One (p, m) point of the 1F1B vs ZB-H1 closed-form gap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GapRow {
    /// Pipeline depth.
    pub p: u32,
    /// Micro-batches.
    pub m: u32,
    /// 1F1B path length, ns.
    pub v_path_ns: u64,
    /// ZB-H1 path length, ns.
    pub zb_path_ns: u64,
    /// Measured gap, ns.
    pub gap_ns: u64,
    /// Expected gap `(p−1)·t`, ns.
    pub expect_ns: u64,
    /// Gap matches the closed form exactly.
    pub ok: bool,
}

/// Every scheme the sweep covers.
pub fn schemes() -> Vec<SchemeKind> {
    vec![
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

fn record(
    scheme: SchemeKind,
    mode: CkptMode,
) -> (Schedule, mario_ir::SpanGraph, u64) {
    let s = generate(ScheduleConfig::new(scheme, DEVICES, MICROS));
    let identity = PerturbationProfile::identity();
    let opts = recording(scheme_channel_capacity(scheme), &identity, mode.policy());
    let t = simulate(&s, &cost(), &opts).expect("schedule simulates");
    (s, t.spans, t.total_ns)
}

fn path_point(scheme: SchemeKind, mode: CkptMode) -> PathRow {
    let (s, spans, total_ns) = record(scheme, mode);
    let report = analyze(&s, &spans);
    let tiles = path_tiles(&report);
    let on_path_ops: usize = report
        .on_path
        .iter()
        .map(|d| d.iter().filter(|&&x| x).count())
        .sum();
    let zero_slack_ops: usize = report
        .slack
        .iter()
        .map(|d| d.iter().filter(|&&x| x == 0).count())
        .sum();
    let on_path_zero_slack = report.on_path.iter().zip(&report.slack).all(|(on, sl)| {
        on.iter().zip(sl).all(|(&o, &s)| !o || s == 0)
    });
    // ZB-H1's unit-grid path is unique: zero-slack ops ARE the path.
    let unique_ok =
        scheme != SchemeKind::ZeroBubbleH1 || zero_slack_ops == on_path_ops;
    let ok = report.makespan == total_ns
        && tiles
        && report.breakdown.bubble_ns == 0
        && on_path_zero_slack
        && unique_ok;
    let b = &report.breakdown;
    PathRow {
        scheme: format!("{scheme:?}"),
        ckpt: mode.label().to_string(),
        makespan_ns: report.makespan,
        path_ns: b.total(),
        segments: report.path.len(),
        compute_ns: b.compute_ns,
        comm_ns: b.comm_ns(),
        ckpt_ns: b.ckpt_ns,
        on_path_ops,
        zero_slack_ops,
        ok,
    }
}

fn path_tiles(report: &CritReport) -> bool {
    let mut cursor = 0;
    for seg in &report.path {
        if seg.start != cursor || seg.end < seg.start {
            return false;
        }
        cursor = seg.end;
    }
    cursor == report.makespan && report.breakdown.total() == report.makespan
}

/// The scheme × checkpoint-mode path sweep. `smoke` trims to three
/// schemes × two modes.
pub fn path_sweep(smoke: bool) -> Vec<PathRow> {
    let schemes = if smoke {
        vec![SchemeKind::OneFOneB, SchemeKind::ZeroBubbleH1, SchemeKind::ForwardOnly]
    } else {
        schemes()
    };
    let modes: &[CkptMode] = if smoke {
        &[CkptMode::None, CkptMode::Flat]
    } else {
        &CkptMode::ALL
    };
    let mut out = Vec::new();
    for &scheme in &schemes {
        for &mode in modes {
            out.push(path_point(scheme, mode));
        }
    }
    out
}

/// Executor check: the span graph the analyzer consumes is bit-identical
/// whether recorded by the DP simulator or the emulator. Returns
/// `(point label, ok)` pairs.
pub fn backend_parity(smoke: bool) -> Vec<(String, bool)> {
    let points: &[(SchemeKind, CkptMode)] = if smoke {
        &[(SchemeKind::OneFOneB, CkptMode::None)]
    } else {
        &[
            (SchemeKind::OneFOneB, CkptMode::None),
            (SchemeKind::OneFOneB, CkptMode::Flat),
            (SchemeKind::ZeroBubbleH1, CkptMode::Sharded),
            (SchemeKind::Chimera, CkptMode::None),
        ]
    };
    points
        .iter()
        .map(|&(scheme, mode)| {
            let (s, sim_spans, _) = record(scheme, mode);
            let cost = cost();
            let event = mario_cluster::run(
                &s,
                &cost,
                mario_cluster::EmulatorConfig {
                    channel_capacity: scheme_channel_capacity(scheme),
                    iterations: ITERS,
                    jitter: 0.0,
                    checkpoint: mode.policy(),
                    record_spans: true,
                    ..Default::default()
                },
            )
            .expect("emulated run completes")
            .spans
            .expect("spans recorded");
            let ok = sim_spans == event;
            (format!("{scheme:?}/{}", mode.label()), ok)
        })
        .collect()
}

/// The what-if validation grid: counterfactual re-timings vs
/// ground-truth re-simulation, exact to the device clock.
pub fn whatif_grid(smoke: bool) -> Vec<WhatIfRow> {
    let schemes: &[SchemeKind] = if smoke {
        &[SchemeKind::OneFOneB]
    } else {
        &[SchemeKind::OneFOneB, SchemeKind::ZeroBubbleH1, SchemeKind::Chimera]
    };
    let cost = cost();
    let identity = PerturbationProfile::identity();
    let mut out = Vec::new();
    for &scheme in schemes {
        let cap = scheme_channel_capacity(scheme);
        let s = generate(ScheduleConfig::new(scheme, DEVICES, MICROS));
        let t = simulate(&s, &cost, &recording(cap, &identity, None))
            .expect("schedule simulates");
        let scenarios: Vec<(String, PerturbationProfile)> = vec![
            (
                "straggler d0 x3".into(),
                PerturbationProfile::identity().with_straggler(DeviceId(0), 3.0),
            ),
            (
                "straggler d2 x1.5".into(),
                PerturbationProfile::identity().with_straggler(DeviceId(2), 1.5),
            ),
            (
                "slowdown d1 pc3..17 iter0 x2.5".into(),
                PerturbationProfile::identity().with_slowdown(SlowdownWindow {
                    device: DeviceId(1),
                    factor: 2.5,
                    from_pc: 3,
                    until_pc: 17,
                    iteration: Some(0),
                }),
            ),
            (
                "link 0->1 +700ns all".into(),
                PerturbationProfile::identity().with_link_slack(LinkSlack {
                    src: DeviceId(0),
                    dst: DeviceId(1),
                    nth: None,
                    extra_ns: 700,
                    iteration: None,
                }),
            ),
            (
                "link 1->2 +700ns nth2 iter0".into(),
                PerturbationProfile::identity().with_link_slack(LinkSlack {
                    src: DeviceId(1),
                    dst: DeviceId(2),
                    nth: Some(2),
                    extra_ns: 700,
                    iteration: Some(0),
                }),
            ),
        ];
        for (label, profile) in scenarios {
            let truth = simulate(&s, &cost, &recording(cap, &profile, None))
                .expect("perturbed re-simulation completes");
            let w = whatif(&s, &t.spans, &WhatIf::perturb(&profile));
            out.push(WhatIfRow {
                scheme: format!("{scheme:?}"),
                scenario: label,
                predicted_ns: w.makespan,
                truth_ns: truth.total_ns,
                ok: w.makespan == truth.total_ns && w.device_clocks == truth.device_clocks,
            });
        }
        // Free-checkpoint counterfactual: record WITH a synchronous flat
        // write, re-time with the writes zeroed, compare against the
        // checkpoint-free ground truth.
        let flat = CkptMode::Flat.policy();
        let ck = simulate(&s, &cost, &recording(cap, &identity, flat))
            .expect("checkpointed run simulates");
        let free = simulate(&s, &cost, &recording(cap, &identity, None))
            .expect("checkpoint-free run simulates");
        let w = whatif(
            &s,
            &ck.spans,
            &WhatIf {
                profile: &identity,
                free_checkpoint: true,
            },
        );
        out.push(WhatIfRow {
            scheme: format!("{scheme:?}"),
            scenario: "ckpt writes free".into(),
            predicted_ns: w.makespan,
            truth_ns: free.total_ns,
            ok: w.makespan == free.total_ns && w.device_clocks == free.device_clocks,
        });
    }
    out
}

/// The 1F1B vs ZB-H1 closed-form path gap: exactly `(p−1)·t`.
pub fn closed_form_gap() -> Vec<GapRow> {
    [(2u32, 4u32), (4, 8), (8, 16)]
        .iter()
        .map(|&(p, m)| {
            let run = |scheme| {
                let s = generate(ScheduleConfig::new(scheme, p, m));
                let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
                analyze(&s, &t.spans).breakdown.total()
            };
            let v = run(SchemeKind::OneFOneB);
            let zb = run(SchemeKind::ZeroBubbleH1);
            let expect = ((p - 1) * 1_000) as u64;
            GapRow {
                p,
                m,
                v_path_ns: v,
                zb_path_ns: zb,
                gap_ns: v.saturating_sub(zb),
                expect_ns: expect,
                ok: v.saturating_sub(zb) == expect,
            }
        })
        .collect()
}

/// Renders the path sweep.
pub fn render(rows: &[PathRow]) -> String {
    let mut t = Table::new(&[
        "scheme", "ckpt", "makespan (ns)", "path (ns)", "segs", "compute", "comm", "ckpt_ns",
        "on-path", "slack0", "ok",
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            r.ckpt.clone(),
            r.makespan_ns.to_string(),
            r.path_ns.to_string(),
            r.segments.to_string(),
            r.compute_ns.to_string(),
            r.comm_ns.to_string(),
            r.ckpt_ns.to_string(),
            r.on_path_ops.to_string(),
            r.zero_slack_ops.to_string(),
            if r.ok { "yes".into() } else { "NO".into() },
        ]);
    }
    format!("critical path tiles the makespan (scheme x ckpt mode):\n{}", t.render())
}

/// Renders the what-if grid.
pub fn render_whatif(rows: &[WhatIfRow]) -> String {
    let mut t = Table::new(&["scheme", "scenario", "predicted (ns)", "re-sim (ns)", "ok"]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            r.scenario.clone(),
            r.predicted_ns.to_string(),
            r.truth_ns.to_string(),
            if r.ok { "yes".into() } else { "NO".into() },
        ]);
    }
    format!("what-if re-timing vs ground-truth re-simulation:\n{}", t.render())
}

/// Renders the closed-form gap table and the sim/event parity checks.
pub fn render_gap(gaps: &[GapRow], parity: &[(String, bool)]) -> String {
    let mut t = Table::new(&["p", "m", "1F1B path", "ZB-H1 path", "gap", "(p-1)t", "ok"]);
    for r in gaps {
        t.row(vec![
            r.p.to_string(),
            r.m.to_string(),
            r.v_path_ns.to_string(),
            r.zb_path_ns.to_string(),
            r.gap_ns.to_string(),
            r.expect_ns.to_string(),
            if r.ok { "yes".into() } else { "NO".into() },
        ]);
    }
    let mut out = format!("1F1B vs ZB-H1 closed-form path gap:\n{}", t.render());
    out.push_str("\nspan-graph parity (sim / event):\n");
    for (label, ok) in parity {
        out.push_str(&format!("  {label}: {}\n", if *ok { "identical" } else { "DIVERGED" }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_clean() {
        assert!(path_sweep(true).iter().all(|r| r.ok));
        assert!(whatif_grid(true).iter().all(|r| r.ok));
        assert!(closed_form_gap().iter().all(|r| r.ok));
        assert!(backend_parity(true).iter().all(|(_, ok)| *ok));
    }

    #[test]
    fn checkpoint_modes_show_up_on_the_path() {
        let flat = path_point(SchemeKind::OneFOneB, CkptMode::Flat);
        assert!(flat.ok);
        assert!(flat.ckpt_ns > 0, "flat write must appear on the path");
        let none = path_point(SchemeKind::OneFOneB, CkptMode::None);
        assert_eq!(none.ckpt_ns, 0);
        assert!(flat.makespan_ns > none.makespan_ns);
    }
}
