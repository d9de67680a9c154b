//! Degraded-mode prediction sweep: simulator vs. emulator under faults.
//!
//! Not a paper artifact — the validation harness for the degraded-mode
//! DP simulation layer. For every scheme in {V, X, W} and a range of
//! straggler factors, one `Slowdown` fault is planned for a mid-pipeline
//! device, translated into a [`mario_ir::PerturbationProfile`], and the
//! predicted slowdown (`simulate` with the plan's profile / baseline
//! `simulate_timeline`) is tabulated against the emulated slowdown
//! (`run_with_faults` / clean `run`) under zero jitter. The invariant checked per scenario: the
//! degraded simulation reproduces the faulted emulation **bit for bit**
//! (total time and every device clock), so predicted == emulated exactly.

use crate::table::Table;
use mario_cluster::{run, run_with_faults, EmulatorConfig, FaultKind, FaultPlan};
use mario_core::simulator::{simulate, simulate_timeline, SimOptions};
use mario_core::tuner::scheme_channel_capacity;
use mario_ir::{DeviceId, SchemeKind, UnitCost};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// One degraded-mode scenario and its outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Scheme label (`V`, `X`, `W`).
    pub scheme: String,
    /// Straggler slowdown factor injected on the mid-pipeline device.
    pub factor: f64,
    /// Fault-free iteration time, ns (simulator == emulator baseline).
    pub base_ns: u64,
    /// Degraded iteration time predicted by the simulator, ns.
    pub predicted_ns: u64,
    /// Degraded iteration time measured on the emulator, ns.
    pub emulated_ns: u64,
    /// `predicted_ns / base_ns`.
    pub predicted_slowdown: f64,
    /// `emulated_ns / base_ns`.
    pub emulated_slowdown: f64,
    /// Whether prediction and emulation agreed bit for bit
    /// (total time and every per-device clock).
    pub ok: bool,
}

/// Runs one (scheme, straggler factor) scenario.
fn scenario(scheme: SchemeKind, factor: f64) -> Scenario {
    let schedule = generate(ScheduleConfig::new(scheme, 4, 8));
    // Straggle a mid-pipeline device for the whole run: the worst case
    // for a pipeline (both neighbours starve).
    let plan = FaultPlan::none().with(FaultKind::Slowdown {
        device: DeviceId(1),
        factor,
        from_pc: 0,
        until_pc: usize::MAX,
    });
    let cap = scheme_channel_capacity(scheme);
    let cfg = EmulatorConfig {
        channel_capacity: cap,
        ..Default::default()
    };
    let cost = UnitCost::paper_grid();

    let sim_base = simulate_timeline(&schedule, &cost, cap).expect("valid schedule");
    let profile = plan.perturbation_profile();
    let degraded = SimOptions {
        channel_capacity: cap,
        profile: &profile,
        ..SimOptions::default()
    };
    let sim_degr = simulate(&schedule, &cost, &degraded).expect("valid schedule");
    let emu_base = run(&schedule, &cost, cfg).expect("clean run");
    let emu_degr = run_with_faults(&schedule, &cost, cfg, &plan).expect("absorbable fault");

    let ok = sim_degr.total_ns == emu_degr.total_ns
        && sim_degr.device_clocks == emu_degr.device_clocks
        && sim_base.total_ns == emu_base.total_ns;
    Scenario {
        scheme: scheme.shape_letter().to_string(),
        factor,
        base_ns: sim_base.total_ns,
        predicted_ns: sim_degr.total_ns,
        emulated_ns: emu_degr.total_ns,
        predicted_slowdown: sim_degr.total_ns as f64 / sim_base.total_ns as f64,
        emulated_slowdown: emu_degr.total_ns as f64 / emu_base.total_ns as f64,
        ok,
    }
}

/// Sweeps `factors` straggler intensities over V, X and W.
///
/// `factors` is a slice so the binary's `--smoke` mode can restrict the
/// sweep to a single point.
pub fn run_sweep(factors: &[f64]) -> Vec<Scenario> {
    let mut rows = Vec::new();
    for scheme in [
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
    ] {
        for &factor in factors {
            rows.push(scenario(scheme, factor));
        }
    }
    rows
}

/// The full sweep used by the `degraded` binary.
pub const FULL_FACTORS: [f64; 3] = [2.0, 4.0, 8.0];

/// Renders the predicted-vs-emulated table and the verdict line.
pub fn render(rows: &[Scenario]) -> String {
    let mut t = Table::new(&[
        "scheme",
        "factor",
        "base (ns)",
        "predicted (ns)",
        "emulated (ns)",
        "pred. slowdown",
        "emu. slowdown",
        "exact",
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            format!("{}x", r.factor),
            r.base_ns.to_string(),
            r.predicted_ns.to_string(),
            r.emulated_ns.to_string(),
            format!("{:.3}", r.predicted_slowdown),
            format!("{:.3}", r.emulated_slowdown),
            if r.ok { "yes".into() } else { "NO".into() },
        ]);
    }
    let bad = rows.iter().filter(|r| !r.ok).count();
    let mut out = t.render();
    out.push_str(&format!(
        "\n**Verdict:** {}/{} scenarios predicted the degraded run bit for bit \
         (zero jitter: predicted == emulated exactly).\n",
        rows.len() - bad,
        rows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_predicts_exactly() {
        let rows = run_sweep(&FULL_FACTORS);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(
                r.ok,
                "{} {}x: predicted {} != emulated {}",
                r.scheme, r.factor, r.predicted_ns, r.emulated_ns
            );
        }
    }

    #[test]
    fn stronger_stragglers_slow_the_pipeline_more() {
        let rows = run_sweep(&FULL_FACTORS);
        for w in rows.chunks(FULL_FACTORS.len()) {
            for pair in w.windows(2) {
                assert!(
                    pair[1].predicted_ns > pair[0].predicted_ns,
                    "{}: {}x should be slower than {}x",
                    pair[0].scheme,
                    pair[1].factor,
                    pair[0].factor
                );
            }
        }
    }
}
