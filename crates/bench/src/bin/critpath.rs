//! Critical-path profiler bench: sweeps every scheme × checkpoint mode
//! and gates the analyzer's exact invariants — the path tiles the
//! makespan bit for bit, on-path ops have zero slack (exactly the
//! zero-slack set for ZB-H1), the what-if engine matches ground-truth
//! re-simulation on a perturbation grid, 1F1B's path is `(p−1)·t` longer
//! than ZB-H1's, and the span graph is bit-identical between the DP
//! simulator and the emulator. Exits non-zero on any violation, on an empty sweep, or
//! unless the published ZB-H1 headline path tiles its makespan and names
//! its top ops. Pass `--smoke` for the trimmed CI run and `--json` for
//! `results/critpath.json`.
fn main() {
    use mario_bench::experiments::critpath;
    use mario_bench::{summary, JsonObj, RunSummary};
    let smoke = std::env::args().any(|a| a == "--smoke");

    let paths = critpath::path_sweep(smoke);
    println!("{}", critpath::render(&paths));
    let whatifs = critpath::whatif_grid(smoke);
    println!("{}", critpath::render_whatif(&whatifs));
    let gaps = critpath::closed_form_gap();
    let parity = critpath::backend_parity(smoke);
    println!("{}", critpath::render_gap(&gaps, &parity));

    let headline = mario_bench::unit_critical_path(mario_ir::SchemeKind::ZeroBubbleH1, 4, 8);
    let all_ok = !paths.is_empty()
        && !whatifs.is_empty()
        && !gaps.is_empty()
        && !parity.is_empty()
        && paths.iter().all(|r| r.ok)
        && whatifs.iter().all(|r| r.ok)
        && gaps.iter().all(|r| r.ok)
        && parity.iter().all(|(_, ok)| *ok)
        && headline.breakdown.total() == headline.makespan
        && !headline.top_path_ops(5).is_empty();
    if summary::json_requested() {
        let mut s = RunSummary::new("critpath")
            .metric("path_points", paths.len() as f64)
            .metric(
                "path_points_ok",
                paths.iter().filter(|r| r.ok).count() as f64,
            )
            .metric("whatif_points", whatifs.len() as f64)
            .metric(
                "whatif_points_ok",
                whatifs.iter().filter(|r| r.ok).count() as f64,
            )
            .metric("gap_points_ok", gaps.iter().filter(|r| r.ok).count() as f64)
            .metric("gap_points", gaps.len() as f64)
            .metric(
                "parity_points_ok",
                parity.iter().filter(|(_, ok)| *ok).count() as f64,
            )
            .metric("parity_points", parity.len() as f64);
        for r in &paths {
            s.push_row(
                JsonObj::new()
                    .str("kind", "path")
                    .str("scheme", &r.scheme)
                    .str("ckpt", &r.ckpt)
                    .int("makespan_ns", r.makespan_ns)
                    .int("path_ns", r.path_ns)
                    .int("segments", r.segments as u64)
                    .int("compute_ns", r.compute_ns)
                    .int("comm_ns", r.comm_ns)
                    .int("ckpt_ns", r.ckpt_ns)
                    .int("on_path_ops", r.on_path_ops as u64)
                    .int("zero_slack_ops", r.zero_slack_ops as u64)
                    .bool("ok", r.ok),
            );
        }
        for r in &whatifs {
            s.push_row(
                JsonObj::new()
                    .str("kind", "whatif")
                    .str("scheme", &r.scheme)
                    .str("scenario", &r.scenario)
                    .int("predicted_ns", r.predicted_ns)
                    .int("truth_ns", r.truth_ns)
                    .bool("ok", r.ok),
            );
        }
        for r in &gaps {
            s.push_row(
                JsonObj::new()
                    .str("kind", "gap")
                    .int("p", r.p)
                    .int("m", r.m)
                    .int("v_path_ns", r.v_path_ns)
                    .int("zb_path_ns", r.zb_path_ns)
                    .int("gap_ns", r.gap_ns)
                    .int("expect_ns", r.expect_ns)
                    .bool("ok", r.ok),
            );
        }
        for (label, ok) in &parity {
            s.push_row(
                JsonObj::new()
                    .str("kind", "parity")
                    .str("point", label)
                    .bool("ok", *ok),
            );
        }
        s.attach_critical_path(&headline);
        summary::emit(&s);
    }
    if !all_ok {
        std::process::exit(1);
    }
}
