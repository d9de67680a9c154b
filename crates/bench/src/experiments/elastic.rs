//! Elastic-recovery sweep: shrink-and-continue vs wait-and-resume.
//!
//! Not a paper artifact — the robustness headline for the elastic
//! recovery loop. For every scheme in {G, V, X, W, H} a 4-device pipeline
//! loses its last device to a crash at a swept iteration, with periodic
//! checkpoints durable every [`CKPT_EVERY`] iterations. Both recovery
//! policies answer the same fault:
//!
//! * **wait-and-resume** pays a replacement wait once, then re-runs the
//!   remaining iterations at full width ([`run_with_recovery`] declining
//!   every reconfiguration);
//! * **shrink-and-continue** re-partitions the layers onto the survivors
//!   ([`plan_shrink`]), pays the state redistribution once, and finishes
//!   degraded ([`run_with_recovery`] with the planner as its
//!   reconfiguration hook).
//!
//! The sweep crosses the two regimes: an early fault leaves a long tail
//! that amortizes the replacement wait (waiting wins), a late fault does
//! not (shrinking wins). Every scenario checks:
//!
//! * the DP simulator predicts both tails **bit-for-bit**
//!   ([`simulate`] with the checkpoint policy for the full-width resume,
//!   and with the redistribution offsets as `startup` for the shrunk
//!   pipeline);
//! * the redistribution charge is visible in the final report's
//!   telemetry `reconfig_ns` class and the per-device time classes
//!   conserve each device clock exactly;
//! * both policies resume from the same durable checkpoint.

use crate::table::Table;
use mario_cluster::{run_with_recovery, EmulatorConfig, FaultKind, FaultPlan, RecoveryPolicy};
use mario_core::tuner::scheme_channel_capacity;
use mario_core::{
    compare_policies, plan_shrink, simulate, ElasticSetup, LayerScaledCost, SimOptions,
};
use mario_ir::{CheckpointPolicy, DeviceId, SchemeKind, UnitCost};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// Pipeline width before the fault.
const DEVICES: u32 = 4;
/// Micro-batches per iteration (kept across the shrink).
const MICROS: u32 = 8;
/// Iterations per training run.
const ITERS: u32 = 8;
/// Model layers re-partitioned by the shrink.
const LAYERS: u32 = 8;
/// Checkpoint cadence, iterations.
const CKPT_EVERY: u32 = 2;
/// Per-checkpoint write cost, ns.
const WRITE_NS: u64 = 50;
/// Model-state bytes per layer priced by the redistribution.
const STATE_BYTES_PER_LAYER: u64 = 1_000;
/// Link bandwidth for fetching redistributed state, bytes/µs.
const FETCH_BYTES_PER_US: u64 = 500;

/// One fault scenario answered by both policies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Scheme label (`G`, `V`, `X`, `W`, `H`).
    pub scheme: String,
    /// Iteration the device dies in.
    pub fault_iter: u32,
    /// Iterations left after resuming from the last durable checkpoint.
    pub remaining: u32,
    /// Total wait-and-resume cost, ns: replacement wait + replayed work
    /// + the full-width resume.
    pub wait_ns: u64,
    /// Total shrink-and-continue cost, ns: replayed work + the shrunk
    /// run, whose clocks start at the redistribution offsets.
    pub shrink_ns: u64,
    /// The replacement wait both scenarios assume, ns.
    pub replacement_wait_ns: u64,
    /// The measured winner (`wait-and-resume` or `shrink-and-continue`).
    pub winner: String,
    /// The winner the DP simulator predicts for this tail.
    pub predicted: String,
    /// Analytic crossover horizon (remaining iterations where the
    /// policies tie), from [`compare_policies`].
    pub crossover_remaining: Option<u64>,
    /// One-time state-redistribution charge, ns (slowest survivor).
    pub reconfig_ns: u64,
    /// Total redistributed model state, bytes.
    pub moved_bytes: u64,
    /// Pipeline width after the shrink.
    pub shrunk_devices: u32,
    /// The `reconfig_ns` telemetry class observed on the shrunk run.
    pub telemetry_reconfig_ns: u64,
    /// Whether every elastic invariant held.
    pub ok: bool,
    /// Violation detail (empty when `ok`).
    pub detail: String,
}

/// The five schemes under test.
pub fn schemes() -> [SchemeKind; 5] {
    [
        SchemeKind::GPipe,
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
        SchemeKind::Wave { chunks: 2 },
    ]
}

fn elastic_setup(scheme: SchemeKind) -> ElasticSetup {
    ElasticSetup {
        scheme,
        devices: DEVICES,
        micros: MICROS,
        layers: LAYERS,
        state_bytes_per_layer: STATE_BYTES_PER_LAYER,
        fetch_bytes_per_us: FETCH_BYTES_PER_US,
    }
}

/// Sweeps `fault_iters` over every scheme. The replacement wait is
/// derived per scheme from the simulated tails so the sweep always
/// crosses the two regimes: waiting wins the longest tails, shrinking
/// wins the shortest.
pub fn run(fault_iters: &[u32]) -> Vec<Scenario> {
    let mut rows = Vec::new();
    for scheme in schemes() {
        rows.extend(sweep_scheme(scheme, fault_iters));
    }
    rows
}

/// The fault-iteration sweep the binary uses (remaining tails 8..2).
pub fn full_sweep() -> Vec<u32> {
    (1..=6).collect()
}

/// A two-point sweep that still shows both regimes (remaining 6 and 4).
pub fn smoke_sweep() -> Vec<u32> {
    vec![2, 5]
}

fn sweep_scheme(scheme: SchemeKind, fault_iters: &[u32]) -> Vec<Scenario> {
    let schedule = generate(ScheduleConfig::new(scheme, DEVICES, MICROS));
    // Stage compute scales with the layers the stage holds, so the
    // shrunk pipeline is genuinely slower per iteration (on the plain
    // unit grid shrinking would be free and the trade-off degenerate).
    let cost = LayerScaledCost::new(UnitCost::paper_grid(), scheme, DEVICES, LAYERS);
    let cap = scheme_channel_capacity(scheme);
    let policy = CheckpointPolicy::every(CKPT_EVERY).with_write_ns(WRITE_NS);
    let setup = elastic_setup(scheme);
    let label = scheme.shape_letter().to_string();

    let splan = match plan_shrink(&setup, &[DeviceId(DEVICES - 1)]) {
        Some(p) => p,
        None => {
            return vec![Scenario {
                scheme: label,
                fault_iter: 0,
                remaining: 0,
                wait_ns: 0,
                shrink_ns: 0,
                replacement_wait_ns: 0,
                winner: String::new(),
                predicted: String::new(),
                crossover_remaining: None,
                reconfig_ns: 0,
                moved_bytes: 0,
                shrunk_devices: 0,
                telemetry_reconfig_ns: 0,
                ok: false,
                detail: "planner declined the shrink".into(),
            }];
        }
    };
    let shrunk_cost =
        LayerScaledCost::new(UnitCost::paper_grid(), scheme, splan.devices, LAYERS);
    let wait_tail = |r: u32| {
        let opts = SimOptions {
            channel_capacity: cap,
            iterations: r,
            checkpoint: Some(policy),
            ..SimOptions::default()
        };
        simulate(&schedule, &cost, &opts)
            .expect("full-width tail simulates")
            .total_ns
    };
    let shrink_tail = |r: u32| {
        let opts = SimOptions {
            channel_capacity: splan.channel_capacity,
            iterations: r,
            checkpoint: Some(policy),
            startup: &splan.startup_ns,
            ..SimOptions::default()
        };
        simulate(&splan.schedule, &shrunk_cost, &opts)
            .expect("shrunk tail simulates")
            .total_ns
    };
    // Place the replacement wait between the simulated policy gaps at
    // tails of 4 and 6 iterations: waiting then wins every longer tail,
    // shrinking every shorter one.
    let gap = |r: u32| shrink_tail(r) as i128 - wait_tail(r) as i128;
    let replacement_wait_ns = ((gap(4) + gap(6)) / 2).max(1) as u64;
    // Steady-state per-iteration times for the analytic crossover.
    let full_iter_ns = wait_tail(2) - wait_tail(1);
    let shrunk_iter_ns = shrink_tail(2) - shrink_tail(1);
    let plan_reconfig_ns = splan.startup_ns.iter().copied().max().unwrap_or(0);

    fault_iters
        .iter()
        .map(|&fault_iter| {
            scenario(
                scheme,
                &schedule,
                &setup,
                fault_iter,
                replacement_wait_ns,
                full_iter_ns,
                shrunk_iter_ns,
                plan_reconfig_ns,
                &wait_tail,
                &shrink_tail,
            )
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn scenario(
    scheme: SchemeKind,
    schedule: &mario_ir::Schedule,
    setup: &ElasticSetup,
    fault_iter: u32,
    replacement_wait_ns: u64,
    full_iter_ns: u64,
    shrunk_iter_ns: u64,
    plan_reconfig_ns: u64,
    wait_tail: &dyn Fn(u32) -> u64,
    shrink_tail: &dyn Fn(u32) -> u64,
) -> Scenario {
    let cost = LayerScaledCost::new(UnitCost::paper_grid(), scheme, DEVICES, LAYERS);
    let cfg = EmulatorConfig {
        channel_capacity: scheme_channel_capacity(scheme),
        iterations: ITERS,
        checkpoint: Some(CheckpointPolicy::every(CKPT_EVERY).with_write_ns(WRITE_NS)),
        ..Default::default()
    };
    let plan = FaultPlan::none()
        .with(FaultKind::Crash {
            device: DeviceId(DEVICES - 1),
            pc: 0,
        })
        .at_iteration(fault_iter);

    let mut ok = true;
    let mut detail = String::new();
    let fail = |ok: &mut bool, detail: &mut String, msg: String| {
        *ok = false;
        if !detail.is_empty() {
            detail.push_str("; ");
        }
        detail.push_str(&msg);
    };

    // Policy A: plain checkpoint-restart at full width, replacement wait
    // charged on top.
    let wait_run = run_with_recovery(schedule, &cost, cfg, &plan, 3, |_| None);
    // Policy B: tear down, re-partition onto the survivors, continue.
    let shrink_run = run_with_recovery(schedule, &cost, cfg, &plan, 3, |report| {
        plan_shrink(setup, &[report.fault.site()]).map(|p| {
            let degraded =
                LayerScaledCost::new(UnitCost::paper_grid(), scheme, p.devices, LAYERS);
            p.into_reconfiguration(Box::new(degraded))
        })
    });
    let (wait_run, shrink_run) = match (wait_run, shrink_run) {
        (Ok(w), Ok(s)) => (w, s),
        (w, s) => {
            return Scenario {
                scheme: scheme.shape_letter().into(),
                fault_iter,
                remaining: 0,
                wait_ns: 0,
                shrink_ns: 0,
                replacement_wait_ns,
                winner: String::new(),
                predicted: String::new(),
                crossover_remaining: None,
                reconfig_ns: 0,
                moved_bytes: 0,
                shrunk_devices: 0,
                telemetry_reconfig_ns: 0,
                ok: false,
                detail: format!(
                    "recovery failed: wait {:?}, shrink {:?}",
                    w.err().map(|e| e.to_string()),
                    s.err().map(|e| e.to_string()),
                ),
            };
        }
    };

    // Both policies resume from the same durable checkpoint.
    if wait_run.resumed_from != shrink_run.resumed_from {
        fail(
            &mut ok,
            &mut detail,
            format!(
                "resume mismatch: wait from {}, shrink from {}",
                wait_run.resumed_from, shrink_run.resumed_from
            ),
        );
    }
    let remaining = ITERS - shrink_run.resumed_from;

    // Exactly one reconfiguration, onto fewer devices, with real state
    // moved and a positive redistribution charge.
    let (reconfig_ns, moved_bytes, shrunk_devices) = match shrink_run.reconfigurations.as_slice() {
        [ev] => {
            if ev.devices_after >= DEVICES || ev.moved_bytes == 0 || ev.reconfig_ns == 0 {
                fail(&mut ok, &mut detail, format!("degenerate rebuild: {ev:?}"));
            }
            if ev.reconfig_ns != plan_reconfig_ns {
                fail(
                    &mut ok,
                    &mut detail,
                    format!(
                        "rebuild charged {} ns, plan predicted {plan_reconfig_ns} ns",
                        ev.reconfig_ns
                    ),
                );
            }
            (ev.reconfig_ns, ev.moved_bytes, ev.devices_after)
        }
        other => {
            fail(
                &mut ok,
                &mut detail,
                format!("expected one reconfiguration, got {}", other.len()),
            );
            (0, 0, 0)
        }
    };

    // The DP simulator predicts both tails bit-for-bit.
    let wait_pred = wait_tail(remaining);
    let shrink_pred = shrink_tail(remaining);
    if wait_run.report.total_ns != wait_pred {
        fail(
            &mut ok,
            &mut detail,
            format!(
                "full-width tail: emulated {} ns, simulated {wait_pred} ns",
                wait_run.report.total_ns
            ),
        );
    }
    if shrink_run.report.total_ns != shrink_pred {
        fail(
            &mut ok,
            &mut detail,
            format!(
                "shrunk tail: emulated {} ns, simulated {shrink_pred} ns",
                shrink_run.report.total_ns
            ),
        );
    }

    // The redistribution is attributable in telemetry: the `reconfig_ns`
    // class carries the charge and every device clock is conserved.
    let telemetry_reconfig_ns = shrink_run
        .report
        .telemetry
        .devices
        .iter()
        .map(|d| d.classes.reconfig_ns)
        .max()
        .unwrap_or(0);
    if telemetry_reconfig_ns != reconfig_ns {
        fail(
            &mut ok,
            &mut detail,
            format!("telemetry shows {telemetry_reconfig_ns} ns of reconfig, expected {reconfig_ns}"),
        );
    }
    for (d, clock) in shrink_run
        .report
        .telemetry
        .devices
        .iter()
        .zip(&shrink_run.report.device_clocks)
    {
        if d.classes.total() != *clock {
            fail(
                &mut ok,
                &mut detail,
                format!(
                    "device {} classes sum to {} but its clock is {clock}",
                    d.device.0,
                    d.classes.total()
                ),
            );
        }
    }

    let wait_ns = replacement_wait_ns + wait_run.total_ns_with_replay;
    let shrink_ns = shrink_run.total_ns_with_replay;
    let winner = if shrink_ns <= wait_ns {
        RecoveryPolicy::ShrinkAndContinue
    } else {
        RecoveryPolicy::WaitAndResume
    };
    // The prediction shares the replayed work (same fault, same replay),
    // so the simulated tails alone decide it.
    let predicted = if shrink_pred <= replacement_wait_ns + wait_pred {
        RecoveryPolicy::ShrinkAndContinue
    } else {
        RecoveryPolicy::WaitAndResume
    };
    if winner != predicted {
        fail(
            &mut ok,
            &mut detail,
            format!("measured winner {winner}, simulator predicted {predicted}"),
        );
    }
    let analytic = compare_policies(
        full_iter_ns,
        shrunk_iter_ns,
        plan_reconfig_ns,
        replacement_wait_ns,
        remaining,
    );

    Scenario {
        scheme: scheme.shape_letter().into(),
        fault_iter,
        remaining,
        wait_ns,
        shrink_ns,
        replacement_wait_ns,
        winner: winner.to_string(),
        predicted: predicted.to_string(),
        crossover_remaining: analytic.crossover_remaining,
        reconfig_ns,
        moved_bytes,
        shrunk_devices,
        telemetry_reconfig_ns,
        ok,
        detail,
    }
}

/// One cascading-fault scenario: a second crash, armed on the first
/// fault's plan ([`FaultPlan::arming`]), fires after the pipeline
/// already shrank once — the elastic loop must compose repeated shrinks
/// (or fall back to plain restart when the planner declines a second
/// one).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CascadeScenario {
    /// Scheme label (`G`, `V`, `X`, `W`, `H`).
    pub scheme: String,
    /// Iteration the first device dies in.
    pub first_iter: u32,
    /// Iteration (within the shrunk attempt) the second device dies in.
    pub second_iter: u32,
    /// Total attempts (3 = both faults cost one attempt each).
    pub attempts: u32,
    /// Pipeline widths the session traversed, e.g. `4→3→2` (a planner
    /// that declines the second shrink leaves the width in place).
    pub widths: String,
    /// Reconfigurations performed (1 when the second shrink was
    /// declined, 2 when both composed).
    pub reconfigs: usize,
    /// Summed redistribution charge across reconfigurations, ns.
    pub reconfig_ns: u64,
    /// Iterations covered by the checkpoint the final attempt resumed
    /// from.
    pub resumed_from: u32,
    /// Whole-session virtual time including replayed work, ns.
    pub total_ns_with_replay: u64,
    /// Whether every cascading invariant held.
    pub ok: bool,
    /// Violation detail (empty when `ok`).
    pub detail: String,
}

/// Runs one cascading scenario: crash the last device at `first_iter`,
/// arming a crash of (current) device 0 at `second_iter` of the next
/// attempt. The reconfigure closure re-plans from whatever width the
/// pipeline currently has, so shrinks compose.
fn cascade_scenario(scheme: SchemeKind, first_iter: u32, second_iter: u32) -> CascadeScenario {
    let schedule = generate(ScheduleConfig::new(scheme, DEVICES, MICROS));
    let cost = LayerScaledCost::new(UnitCost::paper_grid(), scheme, DEVICES, LAYERS);
    let cfg = EmulatorConfig {
        channel_capacity: scheme_channel_capacity(scheme),
        iterations: ITERS,
        checkpoint: Some(CheckpointPolicy::every(CKPT_EVERY).with_write_ns(WRITE_NS)),
        ..Default::default()
    };
    let followup = FaultPlan::none()
        .with(FaultKind::Crash {
            device: DeviceId(0),
            pc: 0,
        })
        .at_iteration(second_iter);
    let plan = FaultPlan::none()
        .with(FaultKind::Crash {
            device: DeviceId(DEVICES - 1),
            pc: 0,
        })
        .at_iteration(first_iter)
        .arming(followup);

    let mut ok = true;
    let mut detail = String::new();
    let fail = |ok: &mut bool, detail: &mut String, msg: String| {
        *ok = false;
        if !detail.is_empty() {
            detail.push_str("; ");
        }
        detail.push_str(&msg);
    };

    // Re-plan from the current width each time, so the second shrink
    // starts from the first one's survivors.
    let mut width = DEVICES;
    let mut widths = vec![DEVICES];
    let run = run_with_recovery(&schedule, &cost, cfg, &plan, 3, |report| {
        let setup = ElasticSetup {
            devices: width,
            ..elastic_setup(scheme)
        };
        let p = plan_shrink(&setup, &[report.fault.site()])?;
        width = p.devices;
        widths.push(p.devices);
        let degraded = LayerScaledCost::new(UnitCost::paper_grid(), scheme, p.devices, LAYERS);
        Some(p.into_reconfiguration(Box::new(degraded)))
    });
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            return CascadeScenario {
                scheme: scheme.shape_letter().into(),
                first_iter,
                second_iter,
                attempts: 0,
                widths: String::new(),
                reconfigs: 0,
                reconfig_ns: 0,
                resumed_from: 0,
                total_ns_with_replay: 0,
                ok: false,
                detail: format!("cascading recovery failed: {e}"),
            };
        }
    };

    // Both faults fired and each cost exactly one attempt.
    if run.attempts != 3 || run.fault_log.len() != 2 {
        fail(
            &mut ok,
            &mut detail,
            format!(
                "expected 3 attempts / 2 faults, got {} / {}",
                run.attempts,
                run.fault_log.len()
            ),
        );
    }
    // Widths strictly decrease through every accepted rebuild, and the
    // event log matches the planner's trace.
    if !widths.windows(2).all(|w| w[1] < w[0]) {
        fail(&mut ok, &mut detail, format!("widths not decreasing: {widths:?}"));
    }
    if run.reconfigurations.len() != widths.len() - 1 {
        fail(
            &mut ok,
            &mut detail,
            format!(
                "{} reconfigurations but {} planned shrinks",
                run.reconfigurations.len(),
                widths.len() - 1
            ),
        );
    }
    for (ev, w) in run.reconfigurations.iter().zip(widths.iter().skip(1)) {
        if ev.devices_after != *w || ev.moved_bytes == 0 || ev.reconfig_ns == 0 {
            fail(&mut ok, &mut detail, format!("degenerate rebuild: {ev:?}"));
        }
    }
    // The summed charge matches the event log, and the final attempt's
    // telemetry carries the *last* rebuild's charge with conserved
    // clocks.
    let event_sum: u64 = run.reconfigurations.iter().map(|e| e.reconfig_ns).sum();
    if run.reconfig_ns != event_sum {
        fail(
            &mut ok,
            &mut detail,
            format!("charged {} ns, events sum to {event_sum}", run.reconfig_ns),
        );
    }
    // The telemetry class only carries a charge when the *final* attempt
    // followed a rebuild (a declined second shrink restarts in place,
    // state already resident — nothing to redistribute).
    let last_fault_rebuilt = run.reconfigurations.len() == run.fault_log.len();
    if let Some(last) = run.reconfigurations.last().filter(|_| last_fault_rebuilt) {
        let tel = run
            .report
            .telemetry
            .devices
            .iter()
            .map(|d| d.classes.reconfig_ns)
            .max()
            .unwrap_or(0);
        if tel != last.reconfig_ns {
            fail(
                &mut ok,
                &mut detail,
                format!("telemetry shows {tel} ns of reconfig, last rebuild charged {}", last.reconfig_ns),
            );
        }
    }
    for (d, clock) in run
        .report
        .telemetry
        .devices
        .iter()
        .zip(&run.report.device_clocks)
    {
        if d.classes.total() != *clock {
            fail(
                &mut ok,
                &mut detail,
                format!(
                    "device {} classes sum to {} but its clock is {clock}",
                    d.device.0,
                    d.classes.total()
                ),
            );
        }
    }

    CascadeScenario {
        scheme: scheme.shape_letter().into(),
        first_iter,
        second_iter,
        attempts: run.attempts,
        widths: widths
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join("→"),
        reconfigs: run.reconfigurations.len(),
        reconfig_ns: run.reconfig_ns,
        resumed_from: run.resumed_from,
        total_ns_with_replay: run.total_ns_with_replay,
        ok,
        detail,
    }
}

/// Sweeps cascading double-crash scenarios over every scheme.
pub fn run_cascades() -> Vec<CascadeScenario> {
    let mut rows = Vec::new();
    for scheme in schemes() {
        for (first, second) in [(1, 1), (3, 3)] {
            rows.push(cascade_scenario(scheme, first, second));
        }
    }
    rows
}

/// Renders the cascading-fault table and its verdict line.
pub fn render_cascades(rows: &[CascadeScenario]) -> String {
    let mut t = Table::new(&[
        "scheme",
        "faults@",
        "attempts",
        "widths",
        "rebuilds",
        "reconfig ns",
        "resumed",
        "total ns",
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            format!("{},{}", r.first_iter, r.second_iter),
            r.attempts.to_string(),
            if r.ok {
                r.widths.clone()
            } else {
                format!("VIOLATION: {}", r.detail)
            },
            r.reconfigs.to_string(),
            r.reconfig_ns.to_string(),
            r.resumed_from.to_string(),
            r.total_ns_with_replay.to_string(),
        ]);
    }
    let bad = rows.iter().filter(|r| !r.ok).count();
    let mut out = t.render();
    out.push_str(&format!(
        "\n**Verdict:** {}/{} cascading scenarios composed repeated shrinks \
         (armed faults fire on the shrunk pipeline; charges stay attributable).\n",
        rows.len() - bad,
        rows.len()
    ));
    out
}

/// Whether `rows` (one scheme's sweep) shows both regimes: at least one
/// fault where waiting wins and one where shrinking wins.
pub fn both_regimes(rows: &[Scenario]) -> bool {
    let wait = RecoveryPolicy::WaitAndResume.to_string();
    let shrink = RecoveryPolicy::ShrinkAndContinue.to_string();
    rows.iter().any(|r| r.winner == wait) && rows.iter().any(|r| r.winner == shrink)
}

/// Renders the sweep table and per-scheme verdicts.
pub fn render(rows: &[Scenario]) -> String {
    let mut t = Table::new(&[
        "scheme", "fault@", "remaining", "wait ns", "shrink ns", "winner", "r*", "reconfig ns",
        "moved B", "width",
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            r.fault_iter.to_string(),
            r.remaining.to_string(),
            r.wait_ns.to_string(),
            r.shrink_ns.to_string(),
            if r.ok {
                r.winner.clone()
            } else {
                format!("VIOLATION: {}", r.detail)
            },
            r.crossover_remaining
                .map_or_else(|| "-".into(), |c| c.to_string()),
            r.reconfig_ns.to_string(),
            r.moved_bytes.to_string(),
            format!("{}→{}", DEVICES, r.shrunk_devices),
        ]);
    }
    let mut out = t.render();
    let bad = rows.iter().filter(|r| !r.ok).count();
    let split = schemes()
        .iter()
        .filter(|s| {
            let label = s.shape_letter();
            both_regimes(
                &rows
                    .iter()
                    .filter(|r| r.scheme == label)
                    .cloned()
                    .collect::<Vec<_>>(),
            )
        })
        .count();
    out.push_str(&format!(
        "\n**Verdict:** {}/{} scenarios upheld the elastic invariant \
         (sim-exact tails + attributable redistribution + conserved clocks); \
         {split}/{} schemes crossed both regimes.\n",
        rows.len() - bad,
        rows.len(),
        schemes().len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_crosses_both_regimes_on_every_scheme() {
        let rows = run(&smoke_sweep());
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.ok, "{} fault@{}: {}", r.scheme, r.fault_iter, r.detail);
        }
        for scheme in schemes() {
            let label = scheme.shape_letter();
            let mine: Vec<Scenario> = rows.iter().filter(|r| r.scheme == label).cloned().collect();
            assert!(both_regimes(&mine), "{label} never crossed: {mine:?}");
        }
    }

    #[test]
    fn cascading_shrinks_compose_on_every_scheme() {
        for scheme in schemes() {
            let r = cascade_scenario(scheme, 1, 1);
            assert!(r.ok, "{}: {}", r.scheme, r.detail);
            assert_eq!(r.attempts, 3, "{}", r.scheme);
            assert!(r.reconfigs >= 1, "{}: {}", r.scheme, r.widths);
        }
    }

    #[test]
    fn second_shrink_actually_happens_where_admissible() {
        // 1F1B has no structural width constraint: 4→3→2.
        let r = cascade_scenario(SchemeKind::OneFOneB, 1, 1);
        assert!(r.ok, "{}", r.detail);
        assert_eq!(r.widths, "4→3→2");
        assert_eq!(r.reconfigs, 2);
    }

    #[test]
    fn longer_tails_favor_waiting() {
        let rows = sweep_scheme(SchemeKind::OneFOneB, &full_sweep());
        let wait = RecoveryPolicy::WaitAndResume.to_string();
        // The winner flips exactly once as the tail shrinks: waiting on
        // the long tails, shrinking on the short ones.
        let flips = rows
            .windows(2)
            .filter(|w| w[0].winner != w[1].winner)
            .count();
        assert_eq!(flips, 1, "{rows:?}");
        assert_eq!(rows.first().unwrap().winner, wait);
        assert_ne!(rows.last().unwrap().winner, wait);
    }
}
