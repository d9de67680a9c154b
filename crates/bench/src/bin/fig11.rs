//! Regenerates Fig. 11 (the 64-GPU tuning curve). Pass `--json` for a
//! machine-readable `results/fig11.json` including the tuner's
//! search-effort accounting.
fn main() {
    use mario_bench::{summary, JsonObj, RunSummary};
    let result = mario_bench::experiments::fig11::run(64, 2048);
    println!("{}", mario_bench::experiments::fig11::render(&result));
    if summary::json_requested() {
        let stats = &result.stats;
        let mut s = RunSummary::new("fig11")
            .metric("best_throughput", result.best.throughput)
            .metric("candidates_generated", stats.generated as f64)
            .metric("candidates_inadmissible", stats.inadmissible as f64)
            .metric("candidates_simulated", stats.simulated as f64)
            .metric("pruned_oom", stats.pruned_oom as f64)
            .metric("pruned_sim_failure", stats.pruned_sim_failure as f64)
            .metric("dp_invocations", stats.dp_invocations as f64)
            .metric("tuning_seconds", result.tuning_time.as_secs_f64());
        for e in &result.curve {
            s.push_row(
                JsonObj::new()
                    .str("config", &e.candidate.to_string())
                    .num("throughput", e.throughput)
                    .int("iter_ns", e.iter_ns)
                    .bool("oom", e.oom),
            );
        }
        // Explain the winner: re-time its schedule and attribute the
        // measured iteration time along the critical path.
        if let Some(report) = result.explain_best(
            &mario_model::ModelConfig::gpt3_13b(),
            &mario_model::GpuSpec::a100_40g(),
            &mario_bench::experiments::fig11::config(64, 2048),
        ) {
            s.attach_critical_path(&report);
        }
        summary::emit(&s);
    }
}
