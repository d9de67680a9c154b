//! Sharded checkpoint-write sweep: synchronous flushes vs chunks drained
//! into pipeline bubbles, across V/X/W. Exits non-zero unless the async
//! overlap absorbs a strictly positive fraction of the write cost in at
//! least one scheme, and the best telemetry-measured fraction (the
//! `bubble_fraction` metric) lies strictly inside (0, 1) — which an
//! empty sweep fails too. Pass `--smoke` for a single-scheme CI run and
//! `--json` for a machine-readable `results/ckptshard.json`.
fn main() {
    use mario_bench::experiments::ckptshard;
    use mario_bench::{summary, JsonObj, RunSummary};
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = ckptshard::run_sweep(smoke);
    println!("{}", ckptshard::render(&rows));
    let best = rows
        .iter()
        .map(|r| r.absorbed_telemetry)
        .fold(0.0, f64::max);
    if summary::json_requested() {
        let mut s = RunSummary::new("ckptshard").metric("bubble_fraction", best);
        for r in &rows {
            s.push_row(
                JsonObj::new()
                    .str("scheme", &r.scheme)
                    .int("base_ns", r.base_ns)
                    .int("sync_ns", r.sync_ns)
                    .int("async_ns", r.async_ns)
                    .int("sync_paid", r.sync_paid)
                    .int("async_paid", r.async_paid)
                    .num("absorbed", r.absorbed)
                    .num("absorbed_telemetry", r.absorbed_telemetry)
                    .int("eff_sync_ns", r.eff_sync_ns)
                    .int("eff_async_ns", r.eff_async_ns)
                    .int("k_sync", r.k_sync)
                    .int("k_async", r.k_async),
            );
        }
        s.attach_critical_path(&mario_bench::unit_critical_path(
            mario_ir::SchemeKind::OneFOneB,
            4,
            8,
        ));
        summary::emit(&s);
    }
    if !(rows.iter().any(|r| r.absorbed > 0.0) && best > 0.0 && best < 1.0) {
        std::process::exit(1);
    }
}
