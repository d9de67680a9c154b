//! Chaos sweep: seeded single-fault injection across schemes, plus a
//! correlated multi-fault sweep with checkpoint-restart recovery.
//!
//! Not a paper artifact — a robustness harness for the emulator's fault
//! layer. For every scheme in {V, X, W} and a range of seeds, one random
//! fault (straggler, crash, link delay, link stall, memory squeeze) is
//! injected into an emulated run. The invariant checked for every
//! scenario:
//!
//! * the run **terminates** (no hang: hard faults surface at the latest
//!   when no device can move, absorbable ones complete the run);
//! * a hard fault yields a structured [`EmuError::Fault`] whose report
//!   names the injected fault — never a panic, never an unattributed
//!   secondary error;
//! * the outcome is **deterministic**: the same seed reproduces the same
//!   report, bit for bit.
//!
//! The correlated sweep ([`run_correlated`]) injects a seeded **rack
//! failure** — one device crash plus link stalls on every link crossing
//! the rack boundary — into a multi-iteration run, and additionally
//! checks that the report names the correlated group, and that recovery
//! with per-iteration checkpoints is strictly cheaper than restarting
//! from iteration zero.

use crate::table::Table;
use mario_cluster::{
    run_with_faults, run_with_recovery, EmuError, EmulatorConfig, FaultPlan,
};
use mario_core::tuner::scheme_channel_capacity;
use mario_ir::{CheckpointPolicy, SchemeKind, UnitCost};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// One chaos scenario and its outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Scheme label (`V`, `X`, `W`).
    pub scheme: String,
    /// The seed the fault plan was drawn from.
    pub seed: u64,
    /// The injected fault (rendered).
    pub fault: String,
    /// Outcome summary: `completed` (fault absorbed) or the structured
    /// fault report.
    pub outcome: String,
    /// Whether the chaos invariant held for this scenario.
    pub ok: bool,
}

fn scheme_label(s: SchemeKind) -> String {
    s.shape_letter().to_string()
}

/// Runs one scenario and checks the invariant.
fn scenario(scheme: SchemeKind, seed: u64) -> Scenario {
    let schedule = generate(ScheduleConfig::new(scheme, 4, 8));
    let plan = FaultPlan::single_random(seed, &schedule);
    let injected = plan.faults[0];
    let cfg = EmulatorConfig {
        channel_capacity: scheme_channel_capacity(scheme),
        ..Default::default()
    };
    let cost = UnitCost::paper_grid();
    let first = run_with_faults(&schedule, &cost, cfg, &plan);
    let second = run_with_faults(&schedule, &cost, cfg, &plan);

    let (outcome, mut ok) = match &first {
        Ok(report) => (
            format!("completed ({} absorbed)", report.faults.len()),
            // A completed run is only acceptable for absorbable faults.
            injected.is_absorbable(),
        ),
        Err(EmuError::Fault(report)) => (
            report.to_string(),
            // The structured report must name the injected fault.
            report.fault == injected,
        ),
        Err(other) => (format!("UNATTRIBUTED: {other}"), false),
    };
    // Determinism: same seed, same outcome.
    match (&first, &second) {
        (Ok(a), Ok(b)) => ok &= a.device_clocks == b.device_clocks && a.faults == b.faults,
        (Err(EmuError::Fault(a)), Err(EmuError::Fault(b))) => ok &= a == b,
        _ => ok = false,
    }
    Scenario {
        scheme: scheme_label(scheme),
        seed,
        fault: injected.to_string(),
        outcome,
        ok,
    }
}

/// Sweeps `seeds` single-fault scenarios over V, X and W.
pub fn run(seeds: u64) -> Vec<Scenario> {
    let mut rows = Vec::new();
    for scheme in [
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
    ] {
        for seed in 0..seeds {
            rows.push(scenario(scheme, seed));
        }
    }
    rows
}

/// Renders the scenario table and the verdict line.
pub fn render(rows: &[Scenario]) -> String {
    let mut t = Table::new(&["scheme", "seed", "injected fault", "outcome"]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            r.seed.to_string(),
            r.fault.clone(),
            if r.ok {
                r.outcome.clone()
            } else {
                format!("VIOLATION: {}", r.outcome)
            },
        ]);
    }
    let bad = rows.iter().filter(|r| !r.ok).count();
    let mut out = t.render();
    out.push_str(&format!(
        "\n**Verdict:** {}/{} scenarios upheld the chaos invariant \
         (terminate + attribute + reproduce).\n",
        rows.len() - bad,
        rows.len()
    ));
    out
}

/// One correlated rack-failure scenario and its outcome, with and
/// without checkpointing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorrelatedScenario {
    /// Scheme label (`V`, `X`, `W`).
    pub scheme: String,
    /// The seed the rack failure was drawn from.
    pub seed: u64,
    /// The correlated group named by the fault report.
    pub group: String,
    /// Number of correlated faults in the plan.
    pub faults: usize,
    /// Iteration the rack fails in.
    pub fault_iter: u32,
    /// End-to-end recovery cost restarting from iteration 0, ns.
    pub restart_ns: u64,
    /// End-to-end recovery cost resuming from the last checkpoint, ns.
    pub resume_ns: u64,
    /// Iterations the checkpointed recovery did not have to redo.
    pub resumed_from: u32,
    /// Outcome summary.
    pub outcome: String,
    /// Whether every correlated-chaos invariant held.
    pub ok: bool,
}

/// Iterations per correlated run: enough for checkpoints to accumulate
/// before the rack fails.
const CORRELATED_ITERS: u32 = 4;

/// Runs one correlated scenario and checks the invariants: structured
/// attribution naming the rack group, determinism, and
/// resume-from-checkpoint strictly beating restart-from-zero.
fn correlated_scenario(scheme: SchemeKind, seed: u64) -> CorrelatedScenario {
    let schedule = generate(ScheduleConfig::new(scheme, 4, 8));
    // The rack fails in iteration 1, 2 or 3 — always after at least one
    // per-iteration checkpoint boundary has passed.
    let fault_iter = 1 + (seed % 3) as u32;
    let plan = FaultPlan::rack_failure(seed, &schedule).at_iteration(fault_iter);
    let cfg = EmulatorConfig {
        channel_capacity: scheme_channel_capacity(scheme),
        iterations: CORRELATED_ITERS,
        ..Default::default()
    };
    let cost = UnitCost::paper_grid();

    // Attribution: the run fails on one of the correlated faults, the
    // report names the rack group, and the same seed reproduces it.
    let first = run_with_faults(&schedule, &cost, cfg, &plan);
    let second = run_with_faults(&schedule, &cost, cfg, &plan);
    let (group, mut ok) = match &first {
        Err(EmuError::Fault(r)) => (
            r.group.clone().unwrap_or_default(),
            plan.faults.contains(&r.fault) && r.group.is_some(),
        ),
        _ => (String::new(), false),
    };
    ok &= matches!((&first, &second), (Err(EmuError::Fault(a)), Err(EmuError::Fault(b))) if a == b);

    // Recovery: checkpointing every iteration must strictly beat
    // restarting from zero, write costs included.
    let ckpt_cfg = EmulatorConfig {
        checkpoint: Some(CheckpointPolicy::every(1).with_write_ns(50)),
        ..cfg
    };
    let restart = run_with_recovery(&schedule, &cost, cfg, &plan, 3, |_| None);
    let resume = run_with_recovery(&schedule, &cost, ckpt_cfg, &plan, 3, |_| None);
    let (restart_ns, resume_ns, resumed_from) = match (&restart, &resume) {
        (Ok(a), Ok(b)) => {
            ok &= a.resumed_from == 0;
            // Crash in iteration f with per-iteration checkpoints: the
            // cluster saved exactly f iterations before dying.
            ok &= b.resumed_from == fault_iter;
            ok &= b.total_ns_with_replay < a.total_ns_with_replay;
            (a.total_ns_with_replay, b.total_ns_with_replay, b.resumed_from)
        }
        _ => {
            ok = false;
            (0, 0, 0)
        }
    };
    let outcome = match &first {
        Err(EmuError::Fault(r)) => r.to_string(),
        Ok(_) => "UNEXPECTED: completed".into(),
        Err(other) => format!("UNATTRIBUTED: {other}"),
    };
    CorrelatedScenario {
        scheme: scheme_label(scheme),
        seed,
        group,
        faults: plan.faults.len(),
        fault_iter,
        restart_ns,
        resume_ns,
        resumed_from,
        outcome,
        ok,
    }
}

/// Sweeps `seeds` correlated rack-failure scenarios over V, X and W.
pub fn run_correlated(seeds: u64) -> Vec<CorrelatedScenario> {
    let mut rows = Vec::new();
    for scheme in [
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
    ] {
        for seed in 0..seeds {
            rows.push(correlated_scenario(scheme, seed));
        }
    }
    rows
}

/// Renders the correlated-scenario table and its verdict line.
pub fn render_correlated(rows: &[CorrelatedScenario]) -> String {
    let mut t = Table::new(&[
        "scheme", "seed", "group", "faults", "iter", "restart ns", "resume ns", "saved",
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            r.seed.to_string(),
            r.group.clone(),
            r.faults.to_string(),
            r.fault_iter.to_string(),
            r.restart_ns.to_string(),
            r.resume_ns.to_string(),
            if r.ok {
                format!("{} iters", r.resumed_from)
            } else {
                format!("VIOLATION: {}", r.outcome)
            },
        ]);
    }
    let bad = rows.iter().filter(|r| !r.ok).count();
    let mut out = t.render();
    out.push_str(&format!(
        "\n**Verdict:** {}/{} correlated scenarios upheld the invariant \
         (attribute the rack group + reproduce + resume beats restart).\n",
        rows.len() - bad,
        rows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_upholds_the_invariant() {
        // A smaller sweep than the binary, to keep the suite fast.
        let rows = run(6);
        assert_eq!(rows.len(), 18);
        for r in &rows {
            assert!(r.ok, "{} seed {}: {} -> {}", r.scheme, r.seed, r.fault, r.outcome);
        }
    }

    #[test]
    fn correlated_scenarios_uphold_the_invariant() {
        let rows = run_correlated(2);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.ok,
                "{} seed {} ({}, {} faults): {}",
                r.scheme, r.seed, r.group, r.faults, r.outcome
            );
            assert!(r.group.starts_with("rack-"), "{}", r.group);
            assert!(r.faults >= 2, "correlated plan should be multi-fault");
        }
    }
}
