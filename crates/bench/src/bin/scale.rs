//! Event-backend scaling sweep: 512–4096-device rack-aware clusters the
//! thread-per-device backend cannot spawn. Exits non-zero unless every
//! point matches the 1F1B closed form, the rack wires strictly lengthen
//! the makespan and the sweep reaches 512 devices. Pass `--smoke` for the
//! 512-device CI point and `--json` for a machine-readable
//! `results/scale.json`.
fn main() {
    use mario_bench::experiments::scale;
    use mario_bench::{summary, JsonObj, RunSummary};
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = scale::run_sweep(smoke);
    println!("{}", scale::render(&rows));
    let max_devices = rows.iter().map(|r| r.devices).max().unwrap_or(0);
    if summary::json_requested() {
        let rate = rows.iter().map(|r| r.mi_per_s).fold(0.0, f64::max);
        let mut s = RunSummary::new("scale")
            .metric("max_devices", max_devices as f64)
            .metric("peak_minstr_per_s", rate);
        for r in &rows {
            s.push_row(
                JsonObj::new()
                    .int("devices", r.devices)
                    .int("micros", r.micros)
                    .int("instrs", r.instrs)
                    .int("flat_ns", r.flat_ns)
                    .int("expect_ns", r.expect_ns)
                    .int("rack_ns", r.rack_ns)
                    .int("wall_ms", r.wall_ms)
                    .num("mi_per_s", r.mi_per_s),
            );
        }
        s.attach_critical_path(&mario_bench::unit_critical_path(
            mario_ir::SchemeKind::OneFOneB,
            32,
            64,
        ));
        summary::emit(&s);
    }
    if !scale::sound(&rows) || max_devices < 512 {
        std::process::exit(1);
    }
}
