//! Validates the analytic Young/Daly checkpoint-interval tuner against a
//! brute-force sweep on the cluster emulator: for a fixed fault
//! environment, the predicted optimum must land within one interval step
//! of the interval that actually minimizes end-to-end recovery cost.

use mario_cluster::{run, run_with_recovery, EmulatorConfig, FaultKind, FaultPlan};
use mario_core::tuner::{tune_checkpoint_interval, CheckpointTuning, FaultHistory};
use mario_ir::{CheckpointPolicy, DeviceId, SchemeKind, UnitCost};
use mario_schedules::{generate, ScheduleConfig};

const ITERS: u32 = 12;

#[test]
fn daly_interval_matches_the_brute_force_emulator_sweep() {
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
    let cost = UnitCost::paper_grid();
    let iter_ns = run(&s, &cost, EmulatorConfig::default())
        .expect("clean run")
        .total_ns;
    // One hard fault over the run (λ = 1/12) and a write cost of T/6
    // place the Young/Daly optimum k* = sqrt(2C/(Tλ)) at exactly 2.
    let write_ns = iter_ns / 6;

    // Twelve crash scenarios, one per iteration, at a seeded site.
    let scenarios: Vec<FaultPlan> = (0..ITERS)
        .map(|f| {
            let device = DeviceId(f % 2);
            let len = s.programs()[device.index()].len() as u32;
            FaultPlan::none()
                .with(FaultKind::Crash {
                    device,
                    pc: ((f * 7) % len) as usize,
                })
                .at_iteration(f)
        })
        .collect();

    // Brute force: total recovery cost of every candidate interval,
    // summed over the scenarios (equal weighting = the uniform fault
    // distribution the analytic model assumes).
    let mut best = (u128::MAX, 0u32);
    for k in 1..=ITERS {
        let cfg = EmulatorConfig {
            iterations: ITERS,
            checkpoint: Some(CheckpointPolicy::every(k).with_write_ns(write_ns)),
            ..Default::default()
        };
        let total: u128 = scenarios
            .iter()
            .map(|plan| {
                run_with_recovery(&s, &cost, cfg, plan, 3, |_| None)
                    .expect("recovery completes")
                    .total_ns_with_replay as u128
            })
            .sum();
        if total < best.0 {
            best = (total, k);
        }
    }
    let brute_k = best.1;

    // The analytic tuner, fed the same fault environment and costs.
    let tuning = CheckpointTuning {
        plan: scenarios[0].clone(),
        total_iters: ITERS,
        write_ns,
        mem_overhead: 0,
        history: None,
        devices: None,
    };
    let policy =
        tune_checkpoint_interval(iter_ns, &tuning).expect("a hard fault yields a policy");
    assert!(policy.interval_iters >= 1 && policy.interval_iters <= ITERS);
    assert!(
        (policy.interval_iters as i64 - brute_k as i64).abs() <= 1,
        "Young/Daly predicts {} but the sweep found {brute_k}",
        policy.interval_iters
    );
}

#[test]
fn fitted_history_beats_the_plan_prior_on_a_skewed_plan() {
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
    let cost = UnitCost::paper_grid();
    let iter_ns = run(&s, &cost, EmulatorConfig::default())
        .expect("clean run")
        .total_ns;
    let write_ns = iter_ns / 6;

    // The plan *lists* four possible crash sites — its uniform prior
    // reads λ = 4/12 and tunes the tightest interval.
    let crash_at = |f: u32| {
        let device = DeviceId(f % 2);
        let len = s.programs()[device.index()].len() as u32;
        FaultKind::Crash {
            device,
            pc: ((f * 7) % len) as usize,
        }
    };
    let skewed = FaultPlan::none()
        .with(crash_at(0))
        .with(crash_at(1))
        .with(crash_at(2))
        .with(crash_at(3));
    let mut tuning = CheckpointTuning {
        plan: skewed,
        total_iters: ITERS,
        write_ns,
        mem_overhead: 0,
        history: None,
        devices: None,
    };
    let prior_k = tune_checkpoint_interval(iter_ns, &tuning)
        .expect("prior policy")
        .interval_iters;
    assert_eq!(prior_k, 1, "λ = 4/12 with C = T/6 tunes k = 1");

    // Observed reality: two recovered runs of 12 iterations, one crash
    // each — λ fitted from the fault logs is 2/24 = 1/12.
    let observe_cfg = EmulatorConfig {
        iterations: ITERS,
        checkpoint: Some(CheckpointPolicy::every(2).with_write_ns(write_ns)),
        ..Default::default()
    };
    let mut history = FaultHistory::default();
    for f in [3u32, 7] {
        let plan = FaultPlan::none().with(crash_at(f)).at_iteration(f);
        let rec = run_with_recovery(&s, &cost, observe_cfg, &plan, 3, |_| None).expect("recovers");
        assert_eq!(rec.fault_log.len(), 1);
        history.record(rec.fault_log, ITERS);
    }
    tuning.history = Some(history);
    let fitted_k = tune_checkpoint_interval(iter_ns, &tuning)
        .expect("fitted policy")
        .interval_iters;
    assert_eq!(fitted_k, 2, "fitted λ = 1/12 with C = T/6 tunes k = 2");

    // Under the fault distribution the history reflects (one crash per
    // run, uniform over iterations), the fitted interval is cheaper than
    // the prior's end to end.
    let sweep_cost = |k: u32| -> u128 {
        let cfg = EmulatorConfig {
            iterations: ITERS,
            checkpoint: Some(CheckpointPolicy::every(k).with_write_ns(write_ns)),
            ..Default::default()
        };
        (0..ITERS)
            .map(|f| {
                let plan = FaultPlan::none().with(crash_at(f)).at_iteration(f);
                run_with_recovery(&s, &cost, cfg, &plan, 3, |_| None)
                    .expect("recovery completes")
                    .total_ns_with_replay as u128
            })
            .sum()
    };
    assert!(
        sweep_cost(fitted_k) < sweep_cost(prior_k),
        "fitted k = {fitted_k} must beat prior k = {prior_k}"
    );
}

#[test]
fn tuned_interval_is_independent_of_checkpoint_write_folding() {
    // Regression: `RunReport::iter_ns` used to fold checkpoint write time
    // into the per-iteration figure, so measuring iteration time from a
    // checkpointed run would bias the next Daly tuning toward longer
    // intervals. The reported figure must be checkpoint-free.
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
    let cost = UnitCost::paper_grid();
    let base = EmulatorConfig {
        iterations: ITERS,
        ..Default::default()
    };
    let clean = run(&s, &cost, base).expect("clean run");
    let noisy = run(
        &s,
        &cost,
        EmulatorConfig {
            checkpoint: Some(CheckpointPolicy::every(1).with_write_ns(2_000)),
            ..base
        },
    )
    .expect("checkpointed run");
    assert_eq!(noisy.iter_ns, clean.iter_ns);
    let tuning = CheckpointTuning {
        plan: FaultPlan::none().with(FaultKind::Crash {
            device: DeviceId(0),
            pc: 0,
        }),
        total_iters: ITERS,
        write_ns: clean.iter_ns / 6,
        mem_overhead: 0,
        history: None,
        devices: None,
    };
    let from_clean = tune_checkpoint_interval(clean.iter_ns, &tuning).expect("policy");
    let from_noisy = tune_checkpoint_interval(noisy.iter_ns, &tuning).expect("policy");
    assert_eq!(from_clean.interval_iters, from_noisy.interval_iters);
}
