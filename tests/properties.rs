//! Property-based invariants spanning the whole stack: schedule
//! generation → graph tuning → simulation → emulation.

use mario::prelude::*;
use mario_core::passes::PreposeOptions;
use proptest::prelude::*;

/// Strategy: a scheme with compatible (devices, micros).
fn scheme_config() -> impl Strategy<Value = (SchemeKind, u32, u32)> {
    prop_oneof![
        // GPipe / 1F1B: any D, any N.
        (2u32..=6, 1u32..=12).prop_map(|(d, n)| (SchemeKind::GPipe, d, n)),
        (2u32..=6, 1u32..=12).prop_map(|(d, n)| (SchemeKind::OneFOneB, d, n)),
        // Chimera: even D, even N.
        (1u32..=3, 1u32..=6).prop_map(|(d, n)| (SchemeKind::Chimera, 2 * d, 2 * n)),
        // Interleave: N a multiple of D.
        (2u32..=4, 1u32..=3, 1u32..=3)
            .prop_map(|(d, k, c)| (SchemeKind::Interleave { chunks: c }, d, k * d)),
        // Wave: any N.
        (2u32..=4, 1u32..=8, 1u32..=3)
            .prop_map(|(d, n, c)| (SchemeKind::Wave { chunks: c }, d, n)),
        // Zero-bubble H1: any D, any N (the 1F1B chain, split backwards).
        (2u32..=6, 1u32..=12).prop_map(|(d, n)| (SchemeKind::ZeroBubbleH1, d, n)),
        // Zero-bubble V: any N (two reflected chunks per device).
        (2u32..=4, 1u32..=8).prop_map(|(d, n)| (SchemeKind::ZeroBubbleV, d, n)),
    ]
}

fn cap_of(scheme: SchemeKind) -> usize {
    match scheme {
        SchemeKind::Wave { .. } | SchemeKind::ZeroBubbleV => 2,
        _ => 1,
    }
}

/// A deterministic Fisher–Yates permutation of `0..devices`, for the
/// event executor's order-insensitivity checks.
fn permutation(devices: u32, seed: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..devices).collect();
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for i in (1..v.len()).rev() {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (s >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated schedule is structurally valid and executable.
    #[test]
    fn generated_schedules_validate((scheme, d, n) in scheme_config()) {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let opts = mario::ir::ValidateOptions {
            channel_capacity: cap_of(scheme),
            ..Default::default()
        };
        prop_assert!(mario::ir::validate_with(&s, opts).is_ok());
    }

    /// The graph tuner preserves validity and the forward/backward
    /// multiset on every scheme.
    #[test]
    fn graph_tuner_preserves_validity((scheme, d, n) in scheme_config()) {
        let base = generate(ScheduleConfig::new(scheme, d, n));
        let fw = base.count_tag(mario::ir::InstrTag::Forward);
        let bw = base.count_tag(mario::ir::InstrTag::Backward);
        let cost = UnitCost::paper_grid();
        let mut tuned = base.clone();
        run_graph_tuner(
            &mut tuned,
            &cost,
            GraphTunerOptions {
                prepose_opts: PreposeOptions {
                    channel_capacity: cap_of(scheme),
                    ..Default::default()
                },
                ..GraphTunerOptions::mario()
            },
        );
        let opts = mario::ir::ValidateOptions {
            channel_capacity: cap_of(scheme),
            ..Default::default()
        };
        prop_assert!(mario::ir::validate_with(&tuned, opts).is_ok(),
            "tuned schedule invalid for {scheme:?} D={d} N={n}");
        prop_assert_eq!(tuned.count_tag(mario::ir::InstrTag::Forward), fw);
        prop_assert_eq!(tuned.count_tag(mario::ir::InstrTag::Backward), bw);
        // Every checkpointed forward has exactly one recompute.
        prop_assert_eq!(
            tuned.count_ckpt_forwards(),
            tuned.count_tag(mario::ir::InstrTag::Recompute)
        );
    }

    /// Three-way parity: the DP simulator, the threaded emulator and the
    /// discrete-event executor agree exactly when jitter is zero — on
    /// timing and on peak memory.
    #[test]
    fn simulator_matches_emulator((scheme, d, n) in scheme_config()) {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid().with_ckpt_bytes(1);
        let cap = cap_of(scheme);
        let sim = simulate_timeline(&s, &cost, cap).unwrap();
        let mem = simulate_memory(&s, &cost, None);
        let cfg = EmulatorConfig {
            channel_capacity: cap,
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg).unwrap();
        let ev = mario::cluster::run(
            &s,
            &cost,
            EmulatorConfig {
                backend: EmulatorBackend::Event,
                ..cfg
            },
        )
        .unwrap();
        prop_assert_eq!(&sim.device_clocks, &emu.device_clocks);
        prop_assert_eq!(&mem.peak, &emu.peak_mem);
        prop_assert_eq!(&ev.device_clocks, &emu.device_clocks,
            "event backend diverged on {:?} D={} N={}", scheme, d, n);
        prop_assert_eq!(&ev.peak_mem, &emu.peak_mem);
        prop_assert_eq!(ev.total_ns, emu.total_ns);
    }

    /// Mario never increases the simulated makespan relative to naive
    /// checkpointing, and never increases peak memory relative to the
    /// baseline.
    #[test]
    fn mario_dominates_naive_checkpointing((scheme, d, n) in scheme_config()) {
        let base = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid();
        let cap = cap_of(scheme);

        let mut naive = base.clone();
        run_graph_tuner(&mut naive, &cost, GraphTunerOptions::ckpt_only());
        let mut mario_s = base.clone();
        run_graph_tuner(
            &mut mario_s,
            &cost,
            GraphTunerOptions {
                prepose_opts: PreposeOptions {
                    channel_capacity: cap,
                    ..Default::default()
                },
                ..GraphTunerOptions::mario()
            },
        );

        let t_naive = simulate_timeline(&naive, &cost, cap).unwrap().total_ns;
        let t_mario = simulate_timeline(&mario_s, &cost, cap).unwrap().total_ns;
        prop_assert!(t_mario <= t_naive,
            "mario {t_mario} worse than naive {t_naive} on {scheme:?} D={d} N={n}");

        let m_base = simulate_memory(&base, &cost, None).max_peak();
        let m_mario = simulate_memory(&mario_s, &cost, None).max_peak();
        prop_assert!(m_mario <= m_base,
            "mario mem {m_mario} worse than base {m_base} on {scheme:?} D={d} N={n}");
    }

    /// The tuned schedule still deadlock-free under the emulator's blocking
    /// p2p (the pass-4 SA/RA pairing discipline).
    #[test]
    fn tuned_schedules_execute_on_the_emulator((scheme, d, n) in scheme_config()) {
        let mut s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid();
        let cap = cap_of(scheme);
        run_graph_tuner(
            &mut s,
            &cost,
            GraphTunerOptions {
                prepose_opts: PreposeOptions {
                    channel_capacity: cap,
                    ..Default::default()
                },
                ..GraphTunerOptions::mario()
            },
        );
        let r = mario::cluster::run(
            &s,
            &cost,
            EmulatorConfig {
                channel_capacity: cap,
                watchdog: std::time::Duration::from_secs(5),
                ..Default::default()
            },
        );
        prop_assert!(r.is_ok(), "{:?}", r.err());
    }

    /// Memory accounting is conserved: after a full iteration no dynamic
    /// allocation survives on any device (checked indirectly: peaks are
    /// reproducible when running two iterations back to back).
    #[test]
    fn two_iterations_have_same_peak((scheme, d, n) in scheme_config()) {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid().with_ckpt_bytes(1);
        let cap = cap_of(scheme);
        let one = mario::cluster::run(&s, &cost, EmulatorConfig {
            channel_capacity: cap, ..Default::default()
        }).unwrap();
        let two = mario::cluster::run(&s, &cost, EmulatorConfig {
            channel_capacity: cap, iterations: 2, ..Default::default()
        }).unwrap();
        prop_assert_eq!(one.peak_mem, two.peak_mem);
    }

    /// The split-backward memory lifecycle (activations stay live until
    /// `Bw`) is charged identically by the DP simulator and both emulator
    /// backends: peak memory agrees bit-for-bit on split schedules.
    #[test]
    fn split_backward_peak_memory_matches_three_ways((scheme, d, n) in scheme_config()) {
        let mut s = generate(ScheduleConfig::new(scheme, d, n));
        // Split the full backwards (a no-op on the already-split ZB
        // schemes, which still exercises the Bi/Bw accounting).
        mario_core::passes::split_backward(
            &mut s,
            mario_core::passes::SplitOptions::default(),
        );
        let cost = UnitCost::paper_grid().with_ckpt_bytes(1);
        let cap = cap_of(scheme).max(2); // deferral can deepen recv queues
        let opts = mario::ir::ValidateOptions {
            channel_capacity: cap,
            ..Default::default()
        };
        prop_assert!(mario::ir::validate_with(&s, opts).is_ok());
        let mem = simulate_memory(&s, &cost, None);
        let cfg = EmulatorConfig {
            channel_capacity: cap,
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg).unwrap();
        let ev = mario::cluster::run(
            &s,
            &cost,
            EmulatorConfig {
                backend: EmulatorBackend::Event,
                ..cfg
            },
        )
        .unwrap();
        prop_assert_eq!(&mem.peak, &emu.peak_mem,
            "sim vs thread peak diverged on split {:?} D={} N={}", scheme, d, n);
        prop_assert_eq!(&ev.peak_mem, &emu.peak_mem,
            "event vs thread peak diverged on split {:?} D={} N={}", scheme, d, n);
    }
}

// Fault injection: a seeded hard fault (device crash or link stall) on any
// scheme always terminates the run with a structured report naming the
// injected fault — never a hang, never a panic — and the same seed
// reproduces the identical report.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn injected_hard_faults_terminate_with_attribution(
        (scheme, d, n) in scheme_config(),
        seed in 0u64..1024,
    ) {
        use mario::cluster::FaultPlan;

        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid();
        let cfg = EmulatorConfig {
            channel_capacity: cap_of(scheme),
            watchdog: std::time::Duration::from_millis(300),
            ..Default::default()
        };
        let plan = FaultPlan::single_crash_or_stall(seed, &s);
        let injected = plan.faults[0];
        let first = mario::cluster::run_with_faults(&s, &cost, cfg, &plan);
        let err = match first {
            Err(e) => e,
            Ok(_) => return Err(format!(
                "hard fault {injected} absorbed on {scheme:?} D={d} N={n}"
            )),
        };
        let report = match err.fault_report() {
            Some(r) => r.clone(),
            None => return Err(format!(
                "unattributed error {err} for {injected} on {scheme:?} D={d} N={n}"
            )),
        };
        prop_assert_eq!(report.fault, injected);

        // Reproducibility: the same seeded plan yields the identical report.
        let again = mario::cluster::run_with_faults(&s, &cost, cfg, &plan);
        let err2 = again.expect_err("same plan, same failure");
        prop_assert_eq!(Some(&report), err2.fault_report());

        // And the fault layer stays inert without a plan: the same config
        // runs clean.
        let clean = mario::cluster::run_with_faults(&s, &cost, cfg, &FaultPlan::none());
        prop_assert!(clean.is_ok(), "{:?}", clean.err());
    }
}

// Degraded-mode fidelity: the DP simulator under a perturbation profile
// derived from an absorbable fault plan agrees bit-for-bit with the
// zero-jitter emulator running the faults themselves — on every scheme,
// and across multi-iteration runs where the faults fire in a later
// iteration (the profile windows carry the plan's iteration scope).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degraded_simulator_matches_faulted_emulator(
        (scheme, d, n) in scheme_config(),
        seed_a in 0u64..512,
        seed_b in 0u64..512,
        iters in 1u32..=3,
    ) {
        use mario::cluster::FaultPlan;

        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid();
        let cap = cap_of(scheme);
        // Two independently drawn absorbable faults (stragglers, slow
        // links) merged into one plan — overlapping windows and duplicate
        // packet delays included — scoped to a seeded iteration of the
        // run, so agreement must hold beyond iteration 0.
        let mut plan = FaultPlan::single_absorbable(seed_a, &s);
        plan.faults
            .extend(FaultPlan::single_absorbable(seed_b, &s).faults);
        let plan = plan.at_iteration((seed_a % iters as u64) as u32);
        prop_assert!(plan.is_absorbable());

        let profile = plan.perturbation_profile();
        let sim = simulate_timeline_iters(&s, &cost, cap, &profile, iters)
            .expect("degraded simulation completes");
        let emu = mario::cluster::run_with_faults(
            &s,
            &cost,
            EmulatorConfig {
                channel_capacity: cap,
                iterations: iters,
                ..Default::default()
            },
            &plan,
        )
        .expect("absorbable plan completes");
        prop_assert_eq!(&sim.device_clocks, &emu.device_clocks,
            "scheme {:?} D={} N={} iters {} plan {:?}", scheme, d, n, iters, plan.faults);
        prop_assert_eq!(sim.total_ns, emu.total_ns);
    }

    /// The identity profile cannot perturb the fault-free path: degraded
    /// mode with nothing to enforce reproduces the baseline simulation
    /// bit for bit, event for event, on every scheme.
    #[test]
    fn identity_profile_is_inert((scheme, d, n) in scheme_config()) {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid();
        let cap = cap_of(scheme);
        let base = simulate_timeline(&s, &cost, cap).unwrap();
        let degraded =
            simulate_timeline_with(&s, &cost, cap, &PerturbationProfile::identity()).unwrap();
        prop_assert_eq!(&base.device_clocks, &degraded.device_clocks);
        prop_assert_eq!(base.total_ns, degraded.total_ns);
        prop_assert_eq!(&base.events, &degraded.events);
    }
}

// Checkpoint-restart: on every scheme, a crash landing after the first
// completed checkpoint boundary makes resume-from-checkpoint strictly
// cheaper than restart-from-zero (write costs included), and the resumed
// final attempt is indistinguishable from a fresh run of the remaining
// iterations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resume_from_checkpoint_beats_restart_from_zero(
        (scheme, d, n) in scheme_config(),
        k in 1u32..=2,
        f_off in 0u32..64,
        site in 0u32..4096,
    ) {
        use mario::cluster::{FaultKind, FaultPlan};

        const ITERS: u32 = 6;
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid();
        // Crash in an iteration at or past the first checkpoint boundary,
        // so the resumed attempt has durable progress to build on.
        let f = k + f_off % (ITERS - k);
        let device = DeviceId(site % d);
        let len = s.programs()[device.index()].len() as u32;
        prop_assume!(len > 0);
        let plan = FaultPlan::none()
            .with(FaultKind::Crash {
                device,
                pc: ((site * 7) % len) as usize,
            })
            .at_iteration(f);
        let base = EmulatorConfig {
            channel_capacity: cap_of(scheme),
            iterations: ITERS,
            watchdog: std::time::Duration::from_millis(300),
            ..Default::default()
        };
        let with_ckpt = EmulatorConfig {
            checkpoint: Some(CheckpointPolicy::every(k).with_write_ns(20)),
            ..base
        };

        let resumed = mario::cluster::run_with_recovery(&s, &cost, with_ckpt, &plan, 3)
            .expect("checkpointed recovery completes");
        let restarted = mario::cluster::run_with_recovery(&s, &cost, base, &plan, 3)
            .expect("checkpoint-free recovery completes");

        // Crash in iteration f ⇒ every live device completed 0..f, so the
        // cluster-durable checkpoint is exactly the last boundary ≤ f.
        prop_assert_eq!(resumed.resumed_from, (f / k) * k);
        prop_assert!(resumed.resumed_from >= k);
        prop_assert_eq!(restarted.resumed_from, 0);

        // Resuming is strictly cheaper end to end, checkpoint writes and
        // replayed work both charged.
        prop_assert!(
            resumed.total_ns_with_replay < restarted.total_ns_with_replay,
            "scheme {:?} D={} N={} k={} f={}: resume {} !< restart {}",
            scheme, d, n, k, f,
            resumed.total_ns_with_replay, restarted.total_ns_with_replay
        );

        // The resumed final attempt equals a fresh run of the remaining
        // iterations, clock for clock.
        let fresh = mario::cluster::run(
            &s,
            &cost,
            EmulatorConfig {
                iterations: ITERS - resumed.resumed_from,
                ..with_ckpt
            },
        )
        .expect("fresh run of the remaining iterations");
        prop_assert_eq!(&resumed.report.device_clocks, &fresh.device_clocks);
        prop_assert_eq!(resumed.report.total_ns, fresh.total_ns);
    }
}

/// `UnitCost` with a different checkpoint shard on every device, so chunk
/// counts, partial last chunks and drain residues all differ across the
/// pipeline — the sharded-write paths cannot pass by symmetry.
struct PerDeviceShards(UnitCost);

impl CostModel for PerDeviceShards {
    fn compute_time(&self, d: DeviceId, p: PartId, k: mario::ir::ComputeKind) -> u64 {
        self.0.compute_time(d, p, k)
    }
    fn act_full(&self, d: DeviceId, p: PartId) -> u64 {
        self.0.act_full(d, p)
    }
    fn act_ckpt(&self, d: DeviceId, p: PartId) -> u64 {
        self.0.act_ckpt(d, p)
    }
    fn boundary_bytes(&self, d: DeviceId, p: PartId) -> u64 {
        self.0.boundary_bytes(d, p)
    }
    fn p2p_time(&self, bytes: u64) -> u64 {
        self.0.p2p_time(bytes)
    }
    fn allreduce_time(&self, d: DeviceId) -> u64 {
        self.0.allreduce_time(d)
    }
    fn optimizer_time(&self, d: DeviceId) -> u64 {
        self.0.optimizer_time(d)
    }
    fn static_mem(&self, d: DeviceId) -> u64 {
        self.0.static_mem(d)
    }
    fn ckpt_shard_bytes(&self, d: DeviceId) -> u64 {
        900 + 700 * d.0 as u64
    }
}

// Checkpointed parity: with a checkpoint policy active — flat per-device
// write, sharded synchronous flush, or sharded flush overlapped into the
// next iteration's bubbles — the DP simulator and the zero-jitter
// emulator still agree bit-for-bit on every scheme: device clocks, total
// time, the write payments each device actually made, and the
// cluster-durable checkpoint.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn checkpointed_simulator_matches_emulator(
        (scheme, d, n) in scheme_config(),
        mode in 0u8..3,
        k in 1u32..=3,
        iters in 2u32..=4,
    ) {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = PerDeviceShards(UnitCost::paper_grid());
        let cap = cap_of(scheme);
        // 2 000 bytes/µs over 600-byte chunks: every shard above ends in
        // a partial chunk, and flush times are not multiples of the
        // chunk time.
        let sharded = ShardedWrite::new(2_000, 600);
        let policy = match mode {
            0 => CheckpointPolicy::every(k).with_write_ns(700),
            1 => CheckpointPolicy::every(k).with_sharded(sharded),
            _ => CheckpointPolicy::every(k).with_sharded(sharded.with_async_overlap()),
        };
        let sim = simulate_timeline_ckpt(
            &s,
            &cost,
            cap,
            &PerturbationProfile::identity(),
            iters,
            Some(policy),
        )
        .expect("checkpointed simulation completes");
        let cfg = EmulatorConfig {
            channel_capacity: cap,
            iterations: iters,
            checkpoint: Some(policy),
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg)
            .expect("checkpointed emulation completes");
        let ev = mario::cluster::run(
            &s,
            &cost,
            EmulatorConfig {
                backend: EmulatorBackend::Event,
                ..cfg
            },
        )
        .expect("checkpointed event emulation completes");
        prop_assert_eq!(&sim.device_clocks, &emu.device_clocks,
            "scheme {:?} D={} N={} mode {} k={} iters {}", scheme, d, n, mode, k, iters);
        prop_assert_eq!(sim.total_ns, emu.total_ns);
        prop_assert_eq!(sim.ckpt_overhead_ns, emu.ckpt_overhead_ns,
            "paid-write accounting diverged on {:?} D={} N={} mode {} k={} iters {}",
            scheme, d, n, mode, k, iters);
        prop_assert_eq!(sim.last_checkpoint, emu.last_checkpoint);
        prop_assert_eq!(&ev.device_clocks, &emu.device_clocks,
            "event backend diverged on {:?} D={} N={} mode {} k={} iters {}",
            scheme, d, n, mode, k, iters);
        prop_assert_eq!(ev.total_ns, emu.total_ns);
        prop_assert_eq!(ev.ckpt_overhead_ns, emu.ckpt_overhead_ns);
        prop_assert_eq!(ev.last_checkpoint, emu.last_checkpoint);
    }
}

// The send-blocked drain fix, pinned three ways at channel capacity 2:
// Chimera's bidirectional pipelines at capacity 2 produce genuine
// capacity-blocked sends, so an async sharded write that only drained
// into recv gaps would leave residue here. The DP simulator, the thread
// emulator and the event executor must agree on every checkpoint mode.
#[test]
fn checkpointed_parity_holds_on_capacity2_chimera() {
    let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 8));
    let cost = PerDeviceShards(UnitCost::paper_grid());
    let sharded = ShardedWrite::new(2_000, 600);
    for mode in 0u8..3 {
        let policy = match mode {
            0 => CheckpointPolicy::every(1).with_write_ns(700),
            1 => CheckpointPolicy::every(1).with_sharded(sharded),
            _ => CheckpointPolicy::every(1).with_sharded(sharded.with_async_overlap()),
        };
        let sim = simulate_timeline_ckpt(
            &s,
            &cost,
            2,
            &PerturbationProfile::identity(),
            3,
            Some(policy),
        )
        .expect("capacity-2 checkpointed simulation completes");
        let cfg = EmulatorConfig {
            channel_capacity: 2,
            iterations: 3,
            checkpoint: Some(policy),
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg)
            .expect("capacity-2 checkpointed emulation completes");
        let ev = mario::cluster::run(
            &s,
            &cost,
            EmulatorConfig {
                backend: EmulatorBackend::Event,
                ..cfg
            },
        )
        .expect("capacity-2 checkpointed event emulation completes");
        assert_eq!(sim.device_clocks, emu.device_clocks, "mode {mode}");
        assert_eq!(sim.ckpt_overhead_ns, emu.ckpt_overhead_ns, "mode {mode}");
        assert_eq!(sim.telemetry, emu.telemetry, "mode {mode}");
        assert_eq!(ev.device_clocks, emu.device_clocks, "mode {mode} (event)");
        assert_eq!(ev.ckpt_overhead_ns, emu.ckpt_overhead_ns, "mode {mode} (event)");
        assert_eq!(ev.telemetry, emu.telemetry, "mode {mode} (event)");
    }
}

// Flight-recorder parity: the full telemetry breakdown — per-device time
// classes, peak memory, fault counters, and per-link transfer stats — is
// populated by the DP simulator and the zero-jitter emulator with
// identical arithmetic. Every scheme, with no checkpointing, a flat
// write, a sharded synchronous flush, and a sharded flush overlapped
// into the bubbles, must agree bit-for-bit; on both sides the classes
// must conserve (sum to the device clock) and the checkpoint classes
// must tie out against the endpoint counters.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn telemetry_matches_between_sim_and_emu(
        (scheme, d, n) in scheme_config(),
        mode in 0u8..4,
        k in 1u32..=3,
        iters in 2u32..=4,
    ) {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = PerDeviceShards(UnitCost::paper_grid());
        let cap = cap_of(scheme);
        let sharded = ShardedWrite::new(2_000, 600);
        let policy = match mode {
            0 => None,
            1 => Some(CheckpointPolicy::every(k).with_write_ns(700)),
            2 => Some(CheckpointPolicy::every(k).with_sharded(sharded)),
            _ => Some(
                CheckpointPolicy::every(k).with_sharded(sharded.with_async_overlap()),
            ),
        };
        let sim = simulate_timeline_ckpt(
            &s,
            &cost,
            cap,
            &PerturbationProfile::identity(),
            iters,
            policy,
        )
        .expect("simulation completes");
        let cfg = EmulatorConfig {
            channel_capacity: cap,
            iterations: iters,
            checkpoint: policy,
            record_spans: true,
            record_timeline: true,
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg).expect("emulation completes");
        let ev = mario::cluster::run(
            &s,
            &cost,
            EmulatorConfig {
                backend: EmulatorBackend::Event,
                ..cfg
            },
        )
        .expect("event emulation completes");
        prop_assert_eq!(&sim.telemetry, &emu.telemetry,
            "telemetry diverged on {:?} D={} N={} mode {} k={} iters {}",
            scheme, d, n, mode, k, iters);
        prop_assert_eq!(&ev.telemetry, &emu.telemetry,
            "event telemetry diverged on {:?} D={} N={} mode {} k={} iters {}",
            scheme, d, n, mode, k, iters);
        prop_assert_eq!(&ev.device_clocks, &emu.device_clocks);
        prop_assert!(sim.telemetry.check_conservation(&sim.device_clocks).is_ok(),
            "{:?}", sim.telemetry.check_conservation(&sim.device_clocks));
        prop_assert!(emu.telemetry.check_conservation(&emu.device_clocks).is_ok(),
            "{:?}", emu.telemetry.check_conservation(&emu.device_clocks));
        // The ckpt-sync class is the paid-write counter, never
        // double-counted against the absorbed class.
        prop_assert_eq!(emu.telemetry.total_ckpt_sync_ns(), emu.ckpt_overhead_ns);
        prop_assert_eq!(sim.telemetry.total_ckpt_sync_ns(), sim.ckpt_overhead_ns);
        let bf = emu.telemetry.bubble_fraction(&emu.device_clocks);
        prop_assert!((0.0..=1.0).contains(&bf), "bubble fraction {bf}");
        // The executed span graph — every op's extent, work, and message
        // timing — is identical across all three backends, and the
        // critical path computed from it tiles the makespan exactly.
        let th_spans = emu.spans.as_ref().expect("thread backend recorded spans");
        let ev_spans = ev.spans.as_ref().expect("event backend recorded spans");
        prop_assert_eq!(&sim.spans, th_spans,
            "span graph diverged (sim vs thread) on {:?} D={} N={} mode {} k={} iters {}",
            scheme, d, n, mode, k, iters);
        prop_assert_eq!(ev_spans, th_spans,
            "span graph diverged (event vs thread) on {:?} D={} N={} mode {} k={} iters {}",
            scheme, d, n, mode, k, iters);
        // Every device's typed simulated events render, in program order,
        // to the names both emulators record (checkpoint writes as CKPT).
        for dev in 0..d {
            let sim_names: Vec<String> = sim
                .events
                .iter()
                .filter(|e| e.device.0 == dev)
                .map(mario::core::SimEvent::name)
                .collect();
            for (backend, run) in [("thread", &emu), ("event", &ev)] {
                let recorded: Vec<&str> = run
                    .timeline
                    .iter()
                    .filter(|e| e.device.0 == dev)
                    .map(|e| e.instr.as_str())
                    .collect();
                prop_assert_eq!(&sim_names, &recorded,
                    "event names diverged (sim vs {}) on {:?} D={} N={} mode {} d{}",
                    backend, scheme, d, n, mode, dev);
            }
        }
        let crit = mario::core::critpath::analyze(&s, &sim.spans);
        prop_assert_eq!(crit.breakdown.total(), sim.total_ns,
            "critical path does not tile the makespan on {:?} mode {}", scheme, mode);
    }
}

// Event-executor determinism: repeated runs are bit-identical, and the
// result is insensitive to the worklist's tie-breaking order — any
// permutation of the initial device order produces the same clocks,
// telemetry and absorbed-fault reports, including under a seeded
// absorbable fault plan (the confluence property that justifies running
// the event core as a stand-in for the thread oracle at scale).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_executor_is_deterministic_and_order_insensitive(
        (scheme, d, n) in scheme_config(),
        fault_seed in 0u64..512,
        perm_seed in 0u64..u64::MAX,
        iters in 1u32..=3,
    ) {
        use mario::cluster::FaultPlan;

        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid().with_ckpt_bytes(1);
        let plan = FaultPlan::single_absorbable(fault_seed, &s)
            .at_iteration((fault_seed % iters as u64) as u32);
        prop_assert!(plan.is_absorbable());
        let cfg = EmulatorConfig {
            channel_capacity: cap_of(scheme),
            iterations: iters,
            backend: EmulatorBackend::Event,
            ..Default::default()
        };
        let base = mario::cluster::run_with_faults(&s, &cost, cfg, &plan)
            .expect("absorbable plan completes on the event backend");
        // Determinism: a second run is bit-identical.
        let again = mario::cluster::run_with_faults(&s, &cost, cfg, &plan)
            .expect("second run completes");
        prop_assert_eq!(&base.device_clocks, &again.device_clocks);
        prop_assert_eq!(base.total_ns, again.total_ns);
        prop_assert_eq!(&base.telemetry, &again.telemetry);
        prop_assert_eq!(&base.faults, &again.faults);
        // Order insensitivity: seeding the worklist in any permutation of
        // the device order changes nothing.
        let order = permutation(d, perm_seed);
        let shuffled = mario::cluster::event::run_event_ordered(
            &s, &cost, cfg, &plan, &[], &order,
        )
        .expect("permuted worklist completes");
        prop_assert_eq!(&base.device_clocks, &shuffled.device_clocks,
            "order-sensitive result on {:?} D={} N={} order {:?}", scheme, d, n, order);
        prop_assert_eq!(base.total_ns, shuffled.total_ns);
        prop_assert_eq!(&base.telemetry, &shuffled.telemetry);
        prop_assert_eq!(&base.faults, &shuffled.faults);
    }
}

// Conservation is not a fair-weather invariant: a run that absorbs a
// fault (a straggler slowdown or a finite link delay) still accounts for
// every nanosecond — the inflation lands in a class instead of leaking
// out of the breakdown — and the absorbing device reports the fault.
#[test]
fn telemetry_conservation_survives_absorbed_faults() {
    use mario::cluster::FaultPlan;

    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
    let cost = UnitCost::paper_grid().with_ckpt_bytes(1);
    for seed in 0..8u64 {
        let plan = FaultPlan::single_absorbable(seed, &s);
        assert!(plan.is_absorbable());
        let report = mario::cluster::run_with_faults(
            &s,
            &cost,
            EmulatorConfig {
                iterations: 2,
                ..Default::default()
            },
            &plan,
        )
        .expect("absorbable plan completes");
        report
            .telemetry
            .check_conservation(&report.device_clocks)
            .expect("conservation on a faulted run");
        let absorbed: u32 = report
            .telemetry
            .devices
            .iter()
            .map(|t| t.absorbed_faults)
            .sum();
        assert!(absorbed >= 1, "seed {seed}: no absorbed fault recorded");
    }
}

// Chunk-level durability under async overlap: a crash landing while a
// sharded checkpoint is still draining resumes from the last *fully
// flushed* checkpoint — always a whole interval boundary, never a
// partially written one — and the resumed final attempt is
// indistinguishable from a fresh run of the remaining iterations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn async_crash_resumes_from_a_fully_flushed_checkpoint(
        (scheme, d, n) in scheme_config(),
        k in 1u32..=2,
        f_off in 0u32..64,
        site in 0u32..4096,
    ) {
        use mario::cluster::{FaultKind, FaultPlan};

        const ITERS: u32 = 6;
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = PerDeviceShards(UnitCost::paper_grid());
        let f = k + f_off % (ITERS - k);
        let device = DeviceId(site % d);
        let len = s.programs()[device.index()].len() as u32;
        prop_assume!(len > 0);
        let plan = FaultPlan::none()
            .with(FaultKind::Crash {
                device,
                pc: ((site * 7) % len) as usize,
            })
            .at_iteration(f);
        let cfg = EmulatorConfig {
            channel_capacity: cap_of(scheme),
            iterations: ITERS,
            checkpoint: Some(
                CheckpointPolicy::every(k)
                    .with_sharded(ShardedWrite::new(2_000, 600).with_async_overlap()),
            ),
            watchdog: std::time::Duration::from_millis(300),
            ..Default::default()
        };
        let rec = mario::cluster::run_with_recovery(&s, &cost, cfg, &plan, 3)
            .expect("async-checkpointed recovery completes");

        // Never a partial checkpoint: the resume point is a whole
        // interval boundary, and deferring durability to the chunk drain
        // can only move it *earlier* than the synchronous boundary the
        // crash iteration implies.
        prop_assert_eq!(rec.resumed_from % k, 0,
            "partial checkpoint resumed on {:?} D={} N={} k={} f={}", scheme, d, n, k, f);
        prop_assert!(rec.resumed_from <= (f / k) * k,
            "scheme {:?} D={} N={} k={} f={}: resumed_from {} past the crash boundary {}",
            scheme, d, n, k, f, rec.resumed_from, (f / k) * k);

        // The resumed final attempt equals a fresh run of the remaining
        // iterations, clock for clock — pending chunks from the failed
        // attempt never leak into the restart.
        let fresh = mario::cluster::run(
            &s,
            &cost,
            EmulatorConfig {
                iterations: ITERS - rec.resumed_from,
                ..cfg
            },
        )
        .expect("fresh run of the remaining iterations");
        prop_assert_eq!(&rec.report.device_clocks, &fresh.device_clocks);
        prop_assert_eq!(rec.report.total_ns, fresh.total_ns);
        prop_assert_eq!(rec.report.last_checkpoint, fresh.last_checkpoint);
    }
}

// Linear-estimator fits recover arbitrary lines through noisy samples.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn estimator_recovers_lines(a in 0.1f64..1e6, b in 0.0f64..1e9) {
        let samples: Vec<(f64, f64)> =
            (1..=10).map(|x| (x as f64, a * x as f64 + b)).collect();
        let e = mario::model::LinearEstimator::fit(&samples);
        prop_assert!((e.a - a).abs() / a < 1e-6);
        prop_assert!((e.b - b).abs() <= b.max(1.0) * 1e-6 + 1e-3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Elastic shrink plans stay sound on every scheme: the planned
    /// schedule validates at the plan's channel capacity and executes
    /// deadlock-free on the emulator with the redistribution offsets.
    #[test]
    fn shrunk_plans_validate_and_execute((scheme, d, n) in scheme_config()) {
        use mario_core::{plan_shrink, ElasticSetup};

        let layers = 2 * Topology::new(scheme, d).num_stages();
        let setup = ElasticSetup {
            scheme,
            devices: d,
            micros: n,
            layers,
            state_bytes_per_layer: 1_000,
            fetch_bytes_per_us: 500,
        };
        // Losing the last device may leave no admissible width (e.g.
        // Chimera with one survivor) — declining is the correct answer.
        let Some(plan) = plan_shrink(&setup, &[DeviceId(d - 1)]) else {
            return Ok(());
        };
        prop_assert!(plan.devices < d);
        prop_assert_eq!(plan.survivors.len() as u32, d - 1);
        let opts = mario::ir::ValidateOptions {
            channel_capacity: plan.channel_capacity,
            ..Default::default()
        };
        prop_assert!(mario::ir::validate_with(&plan.schedule, opts).is_ok(),
            "shrunk schedule invalid for {scheme:?} D={d} N={n}");
        let cost = UnitCost::paper_grid();
        let emu = mario::cluster::run_with_faults_startup(
            &plan.schedule,
            &cost,
            EmulatorConfig {
                channel_capacity: plan.channel_capacity,
                ..Default::default()
            },
            &mario::cluster::FaultPlan::none(),
            &plan.startup_ns,
        );
        prop_assert!(emu.is_ok(), "shrunk schedule deadlocked: {:?}", emu.err());
    }

    /// Sim/emu parity holds on the post-reconfiguration topology: with
    /// zero jitter, the DP simulator's prediction of the shrunk pipeline
    /// — redistribution offsets included — matches the emulator
    /// bit-for-bit, telemetry and all.
    #[test]
    fn shrunk_topology_sim_matches_emulator((scheme, d, n) in scheme_config()) {
        use mario_core::{plan_shrink, ElasticSetup, LayerScaledCost};

        let layers = 2 * Topology::new(scheme, d).num_stages();
        let setup = ElasticSetup {
            scheme,
            devices: d,
            micros: n,
            layers,
            state_bytes_per_layer: 1_000,
            fetch_bytes_per_us: 500,
        };
        let Some(plan) = plan_shrink(&setup, &[DeviceId(d - 1)]) else {
            return Ok(());
        };
        // A layer-proportional cost exercises non-uniform stages.
        let cost = LayerScaledCost::new(
            UnitCost::paper_grid().with_ckpt_bytes(1),
            scheme,
            plan.devices,
            layers,
        );
        let iterations = 2;
        let sim = mario_core::simulate_timeline_startup(
            &plan.schedule,
            &cost,
            plan.channel_capacity,
            &PerturbationProfile::identity(),
            iterations,
            None,
            &plan.startup_ns,
        )
        .unwrap();
        let emu = mario::cluster::run_with_faults_startup(
            &plan.schedule,
            &cost,
            EmulatorConfig {
                channel_capacity: plan.channel_capacity,
                iterations,
                ..Default::default()
            },
            &mario::cluster::FaultPlan::none(),
            &plan.startup_ns,
        )
        .unwrap();
        prop_assert_eq!(&sim.device_clocks, &emu.device_clocks);
        prop_assert_eq!(sim.total_ns, emu.total_ns);
        prop_assert_eq!(&sim.telemetry, &emu.telemetry);
        // Every device clock starts at its redistribution offset, and the
        // offset is attributed to the reconfig_ns telemetry class.
        for (i, t) in emu.telemetry.devices.iter().enumerate() {
            prop_assert_eq!(t.classes.reconfig_ns, plan.startup_ns[i]);
            prop_assert_eq!(t.classes.total(), emu.device_clocks[i]);
        }
    }
}

// Serving mode: forward-only fill–drain pipelines under open-loop load.
// Structural validity, the closed-form makespan, three-way parity of the
// whole serving loop, and sentinel-drained crash recovery.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Forward-only schedules validate at capacity 1 and execute
    /// deadlock-free under both backends' blocking p2p, landing exactly
    /// on the fill–drain closed form `(m+p-1)·F`.
    #[test]
    fn forward_only_schedules_validate_and_execute(p in 2u32..=8, m in 1u32..=12) {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, p, m));
        prop_assert!(validate(&s).is_ok());
        let cost = UnitCost::paper_grid();
        let cfg = EmulatorConfig {
            watchdog: std::time::Duration::from_secs(5),
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg).unwrap();
        let ev = mario::cluster::run(
            &s,
            &cost,
            EmulatorConfig {
                backend: EmulatorBackend::Event,
                ..cfg
            },
        )
        .unwrap();
        let expect = (m as u64 + p as u64 - 1) * 1_000;
        prop_assert_eq!(emu.total_ns, expect, "thread makespan off at p={} m={}", p, m);
        prop_assert_eq!(ev.total_ns, expect, "event makespan off at p={} m={}", p, m);
        prop_assert_eq!(&ev.device_clocks, &emu.device_clocks);
    }
}

// The whole serving loop — Poisson arrivals, greedy batching, release
// gating, deadline accounting, the latency digest — agrees bit-for-bit
// between the DP simulator, the thread emulator and the event executor,
// pristine or under seeded absorbable degradation (the emulators run the
// fault plan itself, the simulator runs the derived perturbation
// profile), across pipeline depths and batching policies.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serving_three_way_parity(
        p in 2u32..=6,
        count in 1u32..=14,
        trace_seed in 0u64..512,
        max_batch in 1u32..=4,
        wait_sel in 0usize..3,
        fault_sel in 0u64..1024,
    ) {
        use mario::cluster::{
            form_batches, poisson_arrivals, serve, BatchPolicy, FaultPlan, RetryPolicy,
            ServeConfig,
        };

        let cost = UnitCost::paper_grid();
        let requests = poisson_arrivals(trace_seed, count, 1_500, 40_000);
        let batch = BatchPolicy {
            max_batch,
            max_wait_ns: [0, 700, 2_500][wait_sel],
        };
        let build =
            move |micros: u32| generate(ScheduleConfig::new(SchemeKind::ForwardOnly, p, micros));
        // Absorbable faults are drawn against the first (and, with no
        // failures, only) attempt's schedule.
        let first = build(form_batches(&requests, batch).len() as u32);
        // One case in four serves a pristine cluster; the rest draw a
        // seeded absorbable fault (straggler or slow link).
        let plan = if fault_sel % 4 == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::single_absorbable(fault_sel, &first)
        };
        prop_assert!(plan.is_absorbable());
        let cfg = ServeConfig {
            batch,
            retry: RetryPolicy::default(),
            emulator: EmulatorConfig {
                record_spans: true,
                ..Default::default()
            },
        };
        let th = serve(build, &cost, &cfg, &plan, &requests).unwrap();
        let ev = serve(
            build,
            &cost,
            &ServeConfig {
                emulator: EmulatorConfig {
                    backend: EmulatorBackend::Event,
                    ..cfg.emulator
                },
                ..cfg
            },
            &plan,
            &requests,
        )
        .unwrap();
        let sim = mario::core::simulate_serving(
            build,
            &cost,
            1,
            &plan.perturbation_profile(),
            batch,
            RetryPolicy::default(),
            &requests,
        )
        .unwrap();

        // Absorbable degradation never costs an attempt, and every
        // request completes.
        prop_assert!(th.fault_log.is_empty());
        prop_assert!(th.completions.iter().all(|c| c.is_some()));
        prop_assert_eq!(&th.completions, &ev.completions,
            "event serve diverged at p={} count={} batch={:?} fault={:?}",
            p, count, batch, plan.faults);
        prop_assert_eq!(&th.completions, &sim.completions,
            "simulated serve diverged at p={} count={} batch={:?} fault={:?}",
            p, count, batch, plan.faults);
        prop_assert_eq!(&th.serving, &ev.serving);
        prop_assert_eq!(&th.serving, &sim.serving);
        let (tr, er, sr) = (
            th.report.unwrap(),
            ev.report.unwrap(),
            sim.report.unwrap(),
        );
        prop_assert_eq!(&tr.device_clocks, &er.device_clocks);
        prop_assert_eq!(&tr.device_clocks, &sr.device_clocks);
        // The final attempt's span graph agrees three ways under the
        // serving ingress gate, and the attributed critical path tiles
        // its makespan (release waits surface as exogenous bubbles).
        let th_spans = tr.spans.as_ref().expect("thread serve recorded spans");
        let ev_spans = er.spans.as_ref().expect("event serve recorded spans");
        let sim_spans = sr.spans.as_ref().expect("sim serve carries spans");
        prop_assert_eq!(ev_spans, th_spans,
            "serving span graph diverged (event vs thread) at p={} count={}", p, count);
        prop_assert_eq!(sim_spans, th_spans,
            "serving span graph diverged (sim vs thread) at p={} count={}", p, count);
        let schedule = build(th.batches.len() as u32);
        let crit = mario::core::critpath::analyze(&schedule, sim_spans);
        prop_assert_eq!(crit.breakdown.total(), tr.total_ns);
    }
}

// Error-sentinel recovery: an injected mid-serve crash drains the pipe
// with no deadlock on both emulator backends, both attribute the failure
// to the same fault at the same virtual time, and the stranded requests
// are retried to completion within policy with identical completion
// times and digests.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crash_sentinel_serving_matches_across_backends(
        p in 2u32..=6,
        count in 2u32..=12,
        trace_seed in 0u64..256,
        site in 0u32..4096,
    ) {
        use mario::cluster::{
            form_batches, poisson_arrivals, serve, BatchPolicy, FaultKind, FaultPlan,
            RetryPolicy, ServeConfig,
        };

        let cost = UnitCost::paper_grid();
        let requests = poisson_arrivals(trace_seed, count, 1_500, 60_000);
        let batch = BatchPolicy::default();
        let build =
            move |micros: u32| generate(ScheduleConfig::new(SchemeKind::ForwardOnly, p, micros));
        let first = build(form_batches(&requests, batch).len() as u32);
        let device = DeviceId(site % p);
        let len = first.programs()[device.index()].len() as u32;
        prop_assume!(len > 0);
        let plan = FaultPlan::none().with(FaultKind::Crash {
            device,
            pc: ((site * 7) % len) as usize,
        });
        let retry = RetryPolicy {
            max_retries: 3,
            backoff_ns: 1_000,
            drop_missed: false,
        };
        let cfg = ServeConfig {
            emulator: EmulatorConfig {
                watchdog: std::time::Duration::from_millis(300),
                ..Default::default()
            },
            batch,
            retry,
        };
        let th = serve(build, &cost, &cfg, &plan, &requests).unwrap();
        let ev = serve(
            build,
            &cost,
            &ServeConfig {
                emulator: EmulatorConfig {
                    backend: EmulatorBackend::Event,
                    ..cfg.emulator
                },
                ..cfg
            },
            &plan,
            &requests,
        )
        .unwrap();

        prop_assert!(!th.fault_log.is_empty(),
            "crash at pc {} on {:?} never fired (p={} count={})",
            ((site * 7) % len) as usize, device, p, count);
        prop_assert_eq!(&th.fault_log, &ev.fault_log,
            "fault attribution diverged at p={} count={} site={}", p, count, site);
        prop_assert!(th.completions.iter().all(|c| c.is_some()),
            "stranded request not retried to completion at p={} count={} site={}",
            p, count, site);
        prop_assert_eq!(&th.completions, &ev.completions,
            "post-recovery completions diverged at p={} count={} site={}", p, count, site);
        prop_assert_eq!(&th.serving, &ev.serving);
        prop_assert_eq!(th.serving.completed, count);
        prop_assert!(th.serving.attempts <= 1 + retry.max_retries);
    }
}

// The closed-form bubble fraction (p-1)/(m+p-1) of the fill–drain
// schedule, pinned in integer arithmetic through the full serving path
// (mirrors `scale`'s 1F1B closed-form gate): m single-request batches
// all released at t = 0 make the makespan exactly (m+p-1)·F.
#[test]
fn forward_only_bubble_fraction_closed_form() {
    use mario::cluster::{serve, BatchPolicy, FaultPlan, Request, RetryPolicy, ServeConfig};

    for (p, m) in [(2u32, 4u64), (4, 8), (6, 3)] {
        let requests: Vec<Request> = (0..m)
            .map(|i| Request {
                id: i as u32,
                arrival_ns: 0,
                deadline_ns: 1_000_000,
            })
            .collect();
        let cfg = ServeConfig {
            batch: BatchPolicy {
                max_batch: 1,
                max_wait_ns: 0,
            },
            retry: RetryPolicy::default(),
            ..Default::default()
        };
        let out = serve(
            move |micros| generate(ScheduleConfig::new(SchemeKind::ForwardOnly, p, micros)),
            &UnitCost::paper_grid(),
            &cfg,
            &FaultPlan::none(),
            &requests,
        )
        .unwrap();
        assert_eq!(out.serving.completed as u64, m);
        let total = out.serving.makespan_ns;
        assert_eq!(total, (m + p as u64 - 1) * 1_000, "p={p} m={m}");
        // Bubble fraction check, cross-multiplied to stay in integers:
        // (total − m·F) / total == (p−1) / (m+p−1).
        assert_eq!(
            (total - m * 1_000) * (m + p as u64 - 1),
            (p as u64 - 1) * total,
            "p={p} m={m}"
        );
    }
}
