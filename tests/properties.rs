//! Property-based invariants spanning the whole stack: schedule
//! generation → graph tuning → simulation → emulation.

use mario::ir::{
    AllocError, AllocKey, Dir, LinkEnd, MemLedger, MemoryRules, OomError, SpanGraph,
};
use mario::prelude::*;
use mario_core::passes::PreposeOptions;
use proptest::prelude::*;

mod common;

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

/// The first difference between two span graphs, named by device, span
/// index and field with both values; `None` when the graphs are equal.
fn first_span_divergence(a: &SpanGraph, b: &SpanGraph) -> Option<String> {
    if a.per_device.len() != b.per_device.len() {
        return Some(format!(
            "device count: {} vs {}",
            a.per_device.len(),
            b.per_device.len()
        ));
    }
    for (d, (xs, ys)) in a.per_device.iter().zip(&b.per_device).enumerate() {
        for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
            let fields = [
                ("device", x.device.0 as u64, y.device.0 as u64),
                ("iter", x.iter as u64, y.iter as u64),
                ("pc", x.pc as u64, y.pc as u64),
                ("start", x.start, y.start),
                ("end", x.end, y.end),
                ("work_ns", x.work_ns, y.work_ns),
                ("sent_at", x.sent_at, y.sent_at),
                ("wire_ns", x.wire_ns, y.wire_ns),
                ("gate_ns", x.gate_ns, y.gate_ns),
            ];
            if let Some((field, u, v)) = fields.into_iter().find(|(_, u, v)| u != v) {
                return Some(format!("d{d} span {i} {field}: {u} vs {v}"));
            }
            if x.link != y.link {
                let (u, v) = (x.link.get(), y.link.get());
                return Some(format!("d{d} span {i} link: {u:?} vs {v:?}"));
            }
        }
        if xs.len() != ys.len() {
            return Some(format!("d{d} span count: {} vs {}", xs.len(), ys.len()));
        }
    }
    if a.makespan != b.makespan {
        return Some(format!("makespan: {} vs {}", a.makespan, b.makespan));
    }
    if a.links != b.links {
        return Some(format!("link table: {:?} vs {:?}", a.links, b.links));
    }
    (a != b).then(|| {
        format!(
            "channel capacity: {} vs {}",
            a.channel_capacity, b.channel_capacity
        )
    })
}

#[test]
fn span_divergence_names_the_first_differing_field() {
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
    let a = mario::core::simulate_timeline(&s, &UnitCost::paper_grid(), 1)
        .unwrap()
        .spans;
    assert_eq!(first_span_divergence(&a, &a), None);
    let mut b = a.clone();
    b.per_device[1][3].end += 1;
    b.per_device[1][4].start += 1;
    let end = a.per_device[1][3].end;
    assert_eq!(
        first_span_divergence(&a, &b),
        Some(format!("d1 span 3 end: {end} vs {}", end + 1))
    );
    let mut c = a.clone();
    c.per_device[0].pop();
    let n = a.per_device[0].len();
    assert_eq!(
        first_span_divergence(&a, &c),
        Some(format!("d0 span count: {n} vs {}", n - 1))
    );
    let mut e = a.clone();
    e.channel_capacity = 2;
    assert_eq!(
        first_span_divergence(&a, &e).as_deref(),
        Some("channel capacity: 1 vs 2")
    );
    // d0's second span is its send on link 0; name it the receive end.
    let mut f = a.clone();
    f.per_device[0][1].link = LinkEnd::new(Dir::Recv, 0);
    assert_eq!(
        first_span_divergence(&a, &f).as_deref(),
        Some("d0 span 1 link: Some((Send, 0)) vs Some((Recv, 0))")
    );
    let mut l = a.clone();
    l.links[0].1 = DeviceId(0);
    assert_eq!(
        first_span_divergence(&a, &l),
        Some(format!("link table: {:?} vs {:?}", a.links, l.links))
    );
}

/// Every scheme at 4×8, recorded by `simulate` and the emulator: each
/// send or receive span names the end of the
/// link the run's `LinkTable` resolves for its instruction's port and
/// direction, every other span names none, and the graph's link table
/// holds each link's endpoints by number.
#[test]
fn spans_name_the_link_end_the_table_resolves() {
    use mario::ir::{min_channel_capacity, LinkTable, CKPT_PC};
    for scheme in [
        SchemeKind::GPipe,
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
        SchemeKind::Wave { chunks: 2 },
        SchemeKind::ForwardOnly,
        SchemeKind::ZeroBubbleH1,
        SchemeKind::ZeroBubbleV,
    ] {
        let s = generate(ScheduleConfig::new(scheme, 4, 8));
        let table = LinkTable::new(&s);
        let cost = PerDeviceShards(UnitCost::paper_grid());
        let cap = min_channel_capacity(&s).expect("generated schedules execute");
        let checkpoint = Some(CheckpointPolicy::every(1).with_write_ns(700));
        let opts = SimOptions {
            channel_capacity: cap,
            iterations: 2,
            checkpoint,
            ..SimOptions::default()
        };
        let sim = simulate(&s, &cost, &opts).expect("simulation completes").spans;
        let cfg = EmulatorConfig {
            channel_capacity: cap,
            iterations: 2,
            checkpoint,
            record_spans: true,
            ..Default::default()
        };
        let report = mario::cluster::run(&s, &cost, cfg).expect("emulation completes");
        let runs = [("simulate", sim), ("event", report.spans.expect("spans recorded"))];
        for (run, g) in runs {
            let endpoints: Vec<(DeviceId, DeviceId)> = (0..table.len())
                .map(|k| (table.key(k).0, table.key(k).1))
                .collect();
            assert_eq!(g.links, endpoints, "{scheme:?} {run}: link table");
            let mut p2p = 0;
            for (d, spans) in g.per_device.iter().enumerate() {
                let device = DeviceId(d as u32);
                for span in spans {
                    let instr =
                        (span.pc != CKPT_PC).then(|| s.program(device).get(span.pc as usize));
                    let want = match instr.flatten().and_then(|i| Some((i.kind.p2p()?, i.part))) {
                        Some((p, part)) => {
                            p2p += 1;
                            let link = table.resolve(device, p.dir, p.port(part));
                            LinkEnd::new(p.dir, link.expect("a completed p2p op has a link").id)
                        }
                        None => LinkEnd::NONE,
                    };
                    assert_eq!(span.link, want, "{scheme:?} {run}: d{d} {span:?}");
                }
            }
            assert!(p2p > 0, "{scheme:?} {run}: no p2p span");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated schedule is structurally valid and executable.
    #[test]
    fn generated_schedules_validate((scheme, d, n) in scheme_config()) {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let opts = mario::ir::ValidateOptions {
            channel_capacity: cap_of(scheme),
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

    /// Parity: the DP simulator and the emulator agree exactly when
    /// jitter is zero — on timing and on peak memory.
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
        prop_assert_eq!(&sim.device_clocks, &emu.device_clocks,
            "emulator diverged on {:?} D={} N={}", scheme, d, n);
        prop_assert_eq!(&mem.peak, &emu.peak_mem);
        prop_assert_eq!(sim.total_ns, emu.total_ns);
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
    /// `Bw`) is charged identically by the memory simulator and the
    /// emulator: peak memory agrees bit-for-bit on split schedules.
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
        };
        prop_assert!(mario::ir::validate_with(&s, opts).is_ok());
        let mem = simulate_memory(&s, &cost, None);
        let cfg = EmulatorConfig {
            channel_capacity: cap,
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg).unwrap();
        prop_assert_eq!(&mem.peak, &emu.peak_mem,
            "sim vs emulator peak diverged on split {:?} D={} N={}", scheme, d, n);
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
        let opts = SimOptions {
            channel_capacity: cap,
            profile: &profile,
            iterations: iters,
            ..SimOptions::default()
        };
        let sim = simulate(&s, &cost, &opts).expect("degraded simulation completes");
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
    /// bit for bit, span for span, on every scheme.
    #[test]
    fn identity_profile_is_inert((scheme, d, n) in scheme_config()) {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid();
        let cap = cap_of(scheme);
        let base = simulate_timeline(&s, &cost, cap).unwrap();
        let identity = PerturbationProfile::identity();
        let opts = SimOptions {
            channel_capacity: cap,
            profile: &identity,
            ..SimOptions::default()
        };
        let degraded = simulate(&s, &cost, &opts).unwrap();
        prop_assert_eq!(&base.device_clocks, &degraded.device_clocks);
        prop_assert_eq!(base.total_ns, degraded.total_ns);
        prop_assert_eq!(first_span_divergence(&base.spans, &degraded.spans), None);
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
            ..Default::default()
        };
        let with_ckpt = EmulatorConfig {
            checkpoint: Some(CheckpointPolicy::every(k).with_write_ns(20)),
            ..base
        };

        let resumed = mario::cluster::run_with_recovery(&s, &cost, with_ckpt, &plan, 3, |_| None)
            .expect("checkpointed recovery completes");
        let restarted = mario::cluster::run_with_recovery(&s, &cost, base, &plan, 3, |_| None)
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
        let opts = SimOptions {
            channel_capacity: cap,
            iterations: iters,
            checkpoint: Some(policy),
            ..SimOptions::default()
        };
        let sim = simulate(&s, &cost, &opts).expect("checkpointed simulation completes");
        let cfg = EmulatorConfig {
            channel_capacity: cap,
            iterations: iters,
            checkpoint: Some(policy),
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg)
            .expect("checkpointed emulation completes");
        prop_assert_eq!(&sim.device_clocks, &emu.device_clocks,
            "scheme {:?} D={} N={} mode {} k={} iters {}", scheme, d, n, mode, k, iters);
        prop_assert_eq!(sim.total_ns, emu.total_ns);
        prop_assert_eq!(sim.ckpt_overhead_ns, emu.ckpt_overhead_ns,
            "paid-write accounting diverged on {:?} D={} N={} mode {} k={} iters {}",
            scheme, d, n, mode, k, iters);
        prop_assert_eq!(sim.last_checkpoint, emu.last_checkpoint);
    }
}

// The send-blocked drain fix, pinned at channel capacity 2: Chimera's
// bidirectional pipelines at capacity 2 produce genuine capacity-blocked
// sends, so an async sharded write that only drained into recv gaps
// would leave residue here. The DP simulator and the emulator must agree
// on every checkpoint mode.
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
        let opts = SimOptions {
            channel_capacity: 2,
            iterations: 3,
            checkpoint: Some(policy),
            ..SimOptions::default()
        };
        let sim = simulate(&s, &cost, &opts).expect("capacity-2 checkpointed simulation completes");
        let cfg = EmulatorConfig {
            channel_capacity: 2,
            iterations: 3,
            checkpoint: Some(policy),
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg)
            .expect("capacity-2 checkpointed emulation completes");
        assert_eq!(sim.device_clocks, emu.device_clocks, "mode {mode}");
        assert_eq!(sim.ckpt_overhead_ns, emu.ckpt_overhead_ns, "mode {mode}");
        assert_eq!(sim.telemetry, emu.telemetry, "mode {mode}");
    }
}

/// `PerDeviceShards` with nonzero wire and launch costs,
/// device-dependent compute and all-reduce, and a nonzero optimizer
/// step, so what-if re-timing moves wire arrivals, injected delays and
/// capacity acks, not just compute, and must leave collectives unscaled.
struct SlowWires(PerDeviceShards);

impl CostModel for SlowWires {
    fn compute_time(&self, d: DeviceId, p: PartId, k: mario::ir::ComputeKind) -> u64 {
        self.0.compute_time(d, p, k) + 40 * d.0 as u64 + 15 * p.0 as u64
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
        250 + bytes
    }
    fn p2p_launch_overhead(&self) -> u64 {
        30
    }
    fn allreduce_time(&self, d: DeviceId) -> u64 {
        500 + 10 * d.0 as u64
    }
    fn optimizer_time(&self, _d: DeviceId) -> u64 {
        300
    }
    fn static_mem(&self, d: DeviceId) -> u64 {
        self.0.static_mem(d)
    }
    fn ckpt_shard_bytes(&self, d: DeviceId) -> u64 {
        self.0.ckpt_shard_bytes(d)
    }
}

/// The iteration scope `code` names in a run of `iters` iterations:
/// every iteration for 0, else iteration `code - 1` wrapped to
/// `0..=iters` (so iteration `iters`, past the run, leaves the entry
/// inert).
fn iteration_scope(code: u32, iters: u32) -> Option<u32> {
    (code > 0).then(|| (code - 1) % (iters + 1))
}

// What-if exactness: re-timing a recorded run under slowdown windows and
// link delays added on top of it gives the device clocks of a fresh DP
// simulation under the same profile — on every scheme, with and without
// an all-reduce, at capacities 1 and 2, over one and two iterations, with
// no checkpoint, a flat write or a sharded synchronous flush. Slowdowns
// scale compute only, never the all-reduce or the optimizer step. Free
// checkpoint writes re-time to a fresh run without the policy.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn whatif_clocks_match_a_fresh_simulation(
        (scheme, d, n) in scheme_config(),
        (extra_cap, iters, mode, allreduce) in (0usize..=1, 1u32..=2, 0u8..3, 0u8..2),
        windows in prop::collection::vec(
            (0u32..8, 0usize..4, 0usize..40, 1usize..40, 0u32..4), 0..3),
        links in prop::collection::vec(
            (0u32..8, 0u32..2, 0usize..8, 1u64..2_000, 0u32..4), 0..4),
    ) {
        use mario::core::critpath::{whatif, WhatIf};
        use mario::ir::{min_channel_capacity, LinkSlack, SlowdownWindow};

        let s = generate(ScheduleConfig::new(scheme, d, n).allreduce(allreduce == 1));
        let cost = SlowWires(PerDeviceShards(UnitCost::paper_grid()));
        let cap = min_channel_capacity(&s).expect("generated schedules execute") + extra_cap;
        let checkpoint = match mode {
            0 => None,
            1 => Some(CheckpointPolicy::every(1).with_write_ns(700)),
            _ => Some(CheckpointPolicy::every(1).with_sharded(ShardedWrite::new(2_000, 600))),
        };
        let mut profile = PerturbationProfile::identity();
        for &(dev, f, from_pc, len, scope) in &windows {
            profile = profile.with_slowdown(SlowdownWindow {
                device: DeviceId(dev % d),
                factor: [1.25, 1.5, 2.0, 3.0][f],
                from_pc,
                until_pc: from_pc + len,
                iteration: iteration_scope(scope, iters),
            });
        }
        for &(src, dir, nth, extra_ns, scope) in &links {
            let src = src % d;
            // A neighbour on the ring, so most entries hit a real link.
            let dst = if dir == 0 { (src + 1) % d } else { (src + d - 1) % d };
            profile = profile.with_link_slack(LinkSlack {
                src: DeviceId(src),
                dst: DeviceId(dst),
                nth: nth.checked_sub(1),
                extra_ns,
                iteration: iteration_scope(scope, iters),
            });
        }
        let identity = PerturbationProfile::identity();
        let run = |profile: &PerturbationProfile, checkpoint| {
            let opts = SimOptions {
                channel_capacity: cap,
                iterations: iters,
                checkpoint,
                profile,
                ..SimOptions::default()
            };
            simulate(&s, &cost, &opts).expect("simulation completes")
        };
        let recorded = run(&identity, checkpoint);
        let truth = run(&profile, checkpoint);
        let retimed = whatif(&s, &recorded.spans, &WhatIf::perturb(&profile));
        prop_assert_eq!(&retimed.device_clocks, &truth.device_clocks,
            "scheme {:?} D={} N={} AR {} cap {} iters {} mode {} profile {:?}",
            scheme, d, n, allreduce, cap, iters, mode, profile);
        prop_assert_eq!(retimed.makespan, truth.total_ns);

        let free = run(&profile, None);
        let retimed = whatif(
            &s,
            &recorded.spans,
            &WhatIf { profile: &profile, free_checkpoint: true },
        );
        prop_assert_eq!(&retimed.device_clocks, &free.device_clocks,
            "free checkpoint: scheme {:?} D={} N={} AR {} cap {} iters {} mode {}",
            scheme, d, n, allreduce, cap, iters, mode);
    }
}

/// The cut differential over `scheme` at `d`×`n`: the generated schedule
/// recorded at its least channel capacity and one more, under each of
/// the four checkpoint modes (none, flat, sharded synchronous, sharded
/// overlapped into the bubbles) over 1–3 iterations, then `queries`
/// random what-ifs of each recording: slowdown windows with factors
/// below and above 1, link delays and free checkpoint writes, each
/// scoped to one iteration, every iteration or none. `whatif`, which
/// resumes from the cut and stops where the run rejoins the recording,
/// must give what the replay from time zero gives. Returns how many
/// queries ran and how many of them stopped early: re-timed fewer spans
/// than follow their cut.
fn cut_differential(
    scheme: SchemeKind,
    d: u32,
    n: u32,
    queries: usize,
    rng: &mut Mix,
) -> (usize, usize) {
    use mario::core::critpath::{whatif, whatif_from_zero, whatif_retimed, WhatIf};
    use mario::ir::{min_channel_capacity, LinkSlack, SlowdownWindow};

    let s = generate(ScheduleConfig::new(scheme, d, n));
    let cost = SlowWires(PerDeviceShards(UnitCost::paper_grid()));
    let least = min_channel_capacity(&s).expect("generated schedules execute");
    let longest = (0..d)
        .map(|dev| s.program(DeviceId(dev)).len())
        .max()
        .unwrap_or(1);
    let (mut ran, mut stopped) = (0, 0);
    for cap in [least, least + 1] {
        for mode in 0..4 {
            let checkpoint = match mode {
                0 => None,
                1 => Some(CheckpointPolicy::every(1).with_write_ns(700)),
                2 => Some(CheckpointPolicy::every(1).with_sharded(ShardedWrite::new(2_000, 600))),
                _ => Some(
                    CheckpointPolicy::every(1)
                        .with_sharded(ShardedWrite::new(2_000, 600).with_async_overlap()),
                ),
            };
            let iters = 1 + rng.below(3) as u32;
            let opts = SimOptions {
                channel_capacity: cap,
                iterations: iters,
                checkpoint,
                ..SimOptions::default()
            };
            let recorded = simulate(&s, &cost, &opts).expect("simulation completes");
            for _ in 0..queries {
                let scope =
                    |rng: &mut Mix| iteration_scope(rng.below(iters as usize + 2) as u32, iters);
                let mut profile = PerturbationProfile::identity();
                for _ in 0..rng.below(3) {
                    let from_pc = rng.below(longest);
                    profile = profile.with_slowdown(SlowdownWindow {
                        device: DeviceId(rng.below(d as usize) as u32),
                        factor: [0.5, 0.8, 1.25, 2.0, 3.0][rng.below(5)],
                        from_pc,
                        until_pc: from_pc + 1 + rng.below(longest),
                        iteration: scope(rng),
                    });
                }
                for _ in 0..rng.below(3) {
                    let src = rng.below(d as usize) as u32;
                    profile = profile.with_link_slack(LinkSlack {
                        src: DeviceId(src),
                        dst: DeviceId(rng.below(d as usize) as u32),
                        nth: rng.below(n as usize + 1).checked_sub(1),
                        extra_ns: 1 + rng.below(3_000) as u64,
                        iteration: scope(rng),
                    });
                }
                let w = WhatIf {
                    profile: &profile,
                    free_checkpoint: rng.below(4) == 0,
                };
                let (answer, retimed, after_cut) = whatif_retimed(&s, &recorded.spans, &w);
                assert_eq!(
                    answer,
                    whatif_from_zero(&s, &recorded.spans, &w),
                    "{scheme:?} {d}x{n} cap {cap} mode {mode} iters {iters} {w:?}"
                );
                assert_eq!(answer, whatif(&s, &recorded.spans, &w));
                ran += 1;
                stopped += usize::from(retimed < after_cut);
            }
        }
    }
    (ran, stopped)
}

/// Re-timing from the cut changes no what-if answer: on every scheme, in
/// every checkpoint mode, at two capacities.
#[test]
fn whatif_from_the_cut_matches_the_replay_from_zero() {
    let mut rng = Mix(0xc0_7c07);
    let (mut ran, mut stopped) = (0, 0);
    for scheme in EVERY_SCHEME {
        let (r, s) = cut_differential(scheme, 4, 8, 12, &mut rng);
        (ran, stopped) = (ran + r, stopped + s);
    }
    assert_eq!(ran, EVERY_SCHEME.len() * 2 * 4 * 12);
    assert!(
        stopped > 0,
        "no query stopped where the run rejoined the recording"
    );
}

/// The same differential at scale: every scheme at four sizes, 150
/// queries per recording — 38 400 queries. Run with
/// `cargo test --release --test properties -- --ignored`.
#[test]
#[ignore = "large; run in release"]
fn whatif_from_the_cut_matches_the_replay_from_zero_at_scale() {
    let mut rng = Mix(0x0c07_0c07);
    let (mut ran, mut stopped) = (0, 0);
    for scheme in EVERY_SCHEME {
        for (d, n) in [(2, 4), (4, 8), (6, 12), (8, 16)] {
            let (r, s) = cut_differential(scheme, d, n, 150, &mut rng);
            (ran, stopped) = (ran + r, stopped + s);
        }
    }
    assert_eq!(ran, EVERY_SCHEME.len() * 4 * 2 * 4 * 150);
    // 1300 of the 38 400 stop early; a replay that never stops fails.
    assert!(
        stopped * 100 >= ran * 3,
        "only {stopped} of {ran} queries stopped where the run rejoined the recording"
    );
}

/// The stop at the rejoin fires, on a 1F1B 8×16 recording: one small
/// late packet that the run absorbs (a fresh simulation under it ends on
/// the recorded clocks) answers with the recorded clocks and re-times
/// fewer spans than follow its cut; a slowdown window that runs to the
/// last instruction still answers as the replay from time zero.
#[test]
fn whatif_stops_where_the_run_rejoins_the_recording() {
    use mario::core::critpath::{whatif_from_zero, whatif_retimed, WhatIf};
    use mario::ir::{LinkSlack, SlowdownWindow};

    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 8, 16));
    let cost = UnitCost::paper_grid();
    let recorded = simulate(&s, &cost, &SimOptions::default()).expect("1F1B runs");
    let g = &recorded.spans;

    let late = PerturbationProfile::identity().with_link_slack(LinkSlack {
        src: DeviceId(0),
        dst: DeviceId(1),
        nth: Some(4),
        extra_ns: 100,
        iteration: Some(0),
    });
    let opts = SimOptions {
        profile: &late,
        ..SimOptions::default()
    };
    let truth = simulate(&s, &cost, &opts).expect("1F1B runs");
    assert_eq!(truth.device_clocks, recorded.device_clocks, "not absorbed");
    let (answer, retimed, after_cut) = whatif_retimed(&s, g, &WhatIf::perturb(&late));
    assert_eq!(answer.device_clocks, recorded.device_clocks);
    assert_eq!(answer.makespan, recorded.total_ns);
    assert!(
        retimed < after_cut,
        "re-timed {retimed} spans of the {after_cut} after the cut"
    );

    let last = s.program(DeviceId(3)).len();
    let slow = PerturbationProfile::identity().with_slowdown(SlowdownWindow {
        device: DeviceId(3),
        factor: 1.5,
        from_pc: last / 2,
        until_pc: last,
        iteration: None,
    });
    let w = WhatIf::perturb(&slow);
    let (answer, _, _) = whatif_retimed(&s, g, &w);
    assert_eq!(answer, whatif_from_zero(&s, g, &w));
    assert_ne!(
        answer.device_clocks, recorded.device_clocks,
        "nothing re-timed"
    );
}

/// An ack the re-timed run left late keeps the replay going even when
/// every clock and every packet is back on the recording. On one-slot
/// links, d1's first compute, three times slower, makes its receive of
/// micro-batch 0 late; its next receive, from d0, waits past the delay
/// and puts d1's clock back on the recording while d2 still waits to
/// send micro-batch 1. That send consumes the late ack, so d2's last
/// compute ends 2000 ns after its recorded end.
#[test]
fn whatif_does_not_stop_before_a_late_ack_is_consumed() {
    use mario::core::critpath::{whatif, whatif_from_zero, WhatIf};
    use mario::ir::{DeviceProgram, Instr, SlowdownWindow, Topology};

    let (d0, d1, d2) = (DeviceId(0), DeviceId(1), DeviceId(2));
    let mut s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 3), 8, vec![0; 8]);
    let mut d0_program: Vec<Instr> = [2u32, 4, 5, 6, 7]
        .into_iter()
        .map(|m| Instr::forward(m, 0u32))
        .collect();
    d0_program.push(Instr::send_act(2u32, 0u32, d1));
    *s.program_mut(d0) = DeviceProgram::from_instrs(d0, d0_program);
    *s.program_mut(d1) = DeviceProgram::from_instrs(
        d1,
        vec![
            Instr::forward(3u32, 0u32),
            Instr::recv_act(0u32, 0u32, d2),
            Instr::recv_act(2u32, 0u32, d0),
            Instr::recv_act(1u32, 0u32, d2),
        ],
    );
    *s.program_mut(d2) = DeviceProgram::from_instrs(
        d2,
        vec![
            Instr::forward(0u32, 0u32),
            Instr::send_act(0u32, 0u32, d1),
            Instr::send_act(1u32, 0u32, d1),
            Instr::forward(1u32, 0u32),
        ],
    );
    let cost = UnitCost::paper_grid();
    let recorded = simulate(&s, &cost, &SimOptions::default()).expect("the schedule runs");
    assert_eq!(recorded.device_clocks, vec![5_000, 5_000, 2_000]);
    let slow = PerturbationProfile::identity().with_slowdown(SlowdownWindow {
        device: d1,
        factor: 3.0,
        from_pc: 0,
        until_pc: 1,
        iteration: None,
    });
    let opts = SimOptions {
        profile: &slow,
        ..SimOptions::default()
    };
    let truth = simulate(&s, &cost, &opts).expect("the schedule runs");
    assert_eq!(truth.device_clocks, vec![5_000, 5_000, 4_000]);
    let w = WhatIf::perturb(&slow);
    let answer = whatif(&s, &recorded.spans, &w);
    assert_eq!(answer.device_clocks, truth.device_clocks);
    assert_eq!(answer, whatif_from_zero(&s, &recorded.spans, &w));
}

/// Per directed pair, the least headroom over its messages.
type LinkSlacks = Vec<((DeviceId, DeviceId), u64)>;

/// Per-op slack and per-pair link slack of a recorded run, from a naive
/// oracle: every span's tail (the longest path from its end to the end of
/// the run) relaxed over all three edge families until nothing changes.
/// The edges are program order (weight: the next span's work), wire (the
/// k-th send on a link to its k-th receive, weight: the injected delay
/// plus the wire time) and ack window (the k-th receive to the
/// (k + `cap`)-th send, weight 0).
fn oracle_slack(g: &SpanGraph, cap: usize) -> (Vec<Vec<u64>>, LinkSlacks) {
    type Node = (usize, usize);
    let span = |(d, i): Node| g.per_device[d][i];
    let mut edges: Vec<(Node, Node, u64)> = Vec::new();
    let mut ends: Vec<(Vec<Node>, Vec<Node>)> = vec![Default::default(); g.links.len()];
    for (d, spans) in g.per_device.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if let Some(next) = spans.get(i + 1) {
                edges.push(((d, i), (d, i + 1), next.work_ns));
            }
            match s.link.get() {
                Some((Dir::Send, k)) => ends[k].0.push((d, i)),
                Some((Dir::Recv, k)) => ends[k].1.push((d, i)),
                None => {}
            }
        }
    }
    for (sends, recvs) in &ends {
        assert_eq!(sends.len(), recvs.len(), "a finished run drains every link");
        for (k, (&send, &recv)) in sends.iter().zip(recvs).enumerate() {
            let r = span(recv);
            edges.push((send, recv, r.sent_at - span(send).end + r.wire_ns));
            if let Some(&later) = sends.get(k + cap) {
                edges.push((recv, later, 0));
            }
        }
    }
    let mut tail: Vec<Vec<u64>> = g.per_device.iter().map(|v| vec![0; v.len()]).collect();
    let mut rounds = 0;
    loop {
        let mut changed = false;
        for &((fd, fi), (td, ti), w) in &edges {
            if w + tail[td][ti] > tail[fd][fi] {
                tail[fd][fi] = w + tail[td][ti];
                changed = true;
            }
        }
        if !changed {
            break;
        }
        rounds += 1;
        assert!(rounds <= g.len(), "the span graph has a cycle");
    }
    let latest = |(d, i): Node| g.makespan - tail[d][i];
    let slack = (g.per_device.iter().enumerate())
        .map(|(d, spans)| {
            (0..spans.len())
                .map(|i| latest((d, i)) - spans[i].end)
                .collect()
        })
        .collect();
    let mut pairs = std::collections::BTreeMap::new();
    for (k, (_, recvs)) in ends.iter().enumerate() {
        for &recv in recvs {
            let r = span(recv);
            let headroom = latest(recv) - (r.sent_at + r.wire_ns);
            let (src, dst) = g.links[k];
            let least = pairs.entry((src.0, dst.0)).or_insert(headroom);
            *least = (*least).min(headroom);
        }
    }
    let link_slack = (pairs.into_iter())
        .map(|((src, dst), h)| ((DeviceId(src), DeviceId(dst)), h))
        .collect();
    (slack, link_slack)
}

/// `critpath::analyze`'s `slack` and `link_slack` against
/// [`oracle_slack`] on `scheme` at `d`×`n`, at each capacity from the
/// least the schedule runs at to 3, over one and two iterations, with and
/// without a sharded checkpoint overlapped into the bubbles, with and
/// without link delays, on the paper grid (whose zero-length p2p spans
/// tie at equal ends) and on slow wires. Returns how many recordings were
/// checked.
fn slack_oracle(scheme: SchemeKind, d: u32, n: u32) -> usize {
    use mario::core::critpath::analyze;
    use mario::ir::{min_channel_capacity, LinkSlack};

    let s = generate(ScheduleConfig::new(scheme, d, n));
    let least = min_channel_capacity(&s).expect("generated schedules execute");
    let (paper, slow) = (
        PerDeviceShards(UnitCost::paper_grid()),
        SlowWires(PerDeviceShards(UnitCost::paper_grid())),
    );
    let delays = PerturbationProfile::identity()
        .with_link_slack(LinkSlack {
            src: DeviceId(0),
            dst: DeviceId(1),
            nth: None,
            extra_ns: 700,
            iteration: None,
        })
        .with_link_slack(LinkSlack {
            src: DeviceId(d - 1),
            dst: DeviceId(d - 2),
            nth: Some(1),
            extra_ns: 1_300,
            iteration: Some(0),
        });
    let pristine = PerturbationProfile::identity();
    let overlap =
        CheckpointPolicy::every(1).with_sharded(ShardedWrite::new(2_000, 600).with_async_overlap());
    let mut checked = 0;
    for cap in least..=3 {
        for iters in 1..=2 {
            for checkpoint in [None, Some(overlap)] {
                for profile in [&pristine, &delays] {
                    let costs: [&dyn CostModel; 2] = [&paper, &slow];
                    for (on_paper, cost) in [true, false].into_iter().zip(costs) {
                        let opts = SimOptions {
                            channel_capacity: cap,
                            iterations: iters,
                            checkpoint,
                            profile,
                            ..SimOptions::default()
                        };
                        let g = simulate(&s, cost, &opts)
                            .expect("simulation completes")
                            .spans;
                        let report = analyze(&s, &g);
                        let (slack, link_slack) = oracle_slack(&g, cap);
                        let label = format!(
                            "{scheme:?} {d}x{n} cap {cap} iters {iters} {checkpoint:?} \
                             delayed {} paper {on_paper}",
                            profile.link_slack.len()
                        );
                        assert_eq!(report.slack, slack, "{label}");
                        assert_eq!(report.link_slack, link_slack, "{label}");
                        checked += 1;
                    }
                }
            }
        }
    }
    checked
}

/// `critpath::analyze`'s slack equals the naive oracle's on every scheme
/// at 2–4 devices × 2–8 micros, as far as the scheme takes them.
#[test]
fn critpath_slack_matches_a_naive_oracle() {
    let mut checked = 0;
    for scheme in EVERY_SCHEME {
        for d in 2..=4 {
            for n in [2, 3, 4, 8] {
                let fits = match scheme {
                    SchemeKind::Chimera => d % 2 == 0 && n % 2 == 0,
                    SchemeKind::Interleave { .. } => n % d == 0,
                    _ => true,
                };
                if fits {
                    checked += slack_oracle(scheme, d, n);
                }
            }
        }
    }
    assert!(checked > 3_000, "{checked} recordings");
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
        let opts = SimOptions {
            channel_capacity: cap,
            iterations: iters,
            checkpoint: policy,
            ..SimOptions::default()
        };
        let sim = simulate(&s, &cost, &opts).expect("simulation completes");
        let cfg = EmulatorConfig {
            channel_capacity: cap,
            iterations: iters,
            checkpoint: policy,
            record_spans: true,
            ..Default::default()
        };
        let emu = mario::cluster::run(&s, &cost, cfg).expect("emulation completes");
        prop_assert_eq!(&sim.telemetry, &emu.telemetry,
            "telemetry diverged on {:?} D={} N={} mode {} k={} iters {}",
            scheme, d, n, mode, k, iters);
        prop_assert_eq!(&sim.device_clocks, &emu.device_clocks);
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
        // timing — is identical on both sides, and the critical path
        // computed from it tiles the makespan exactly.
        let emu_spans = emu.spans.as_ref().expect("the emulator recorded spans");
        prop_assert_eq!(first_span_divergence(&sim.spans, emu_spans), None,
            "span graph diverged (sim vs emulator) on {:?} D={} N={} mode {} k={} iters {}",
            scheme, d, n, mode, k, iters);
        // The one exporter renders both executors' spans — each named
        // through the schedule, checkpoint writes as CKPT — to the same
        // Chrome trace.
        prop_assert!(
            mario::core::chrome_trace(&sim.spans, &s) == mario::core::chrome_trace(emu_spans, &s),
            "trace diverged (sim vs emulator) on {:?} D={} N={} mode {}", scheme, d, n, mode);
        let crit = mario::core::critpath::analyze(&s, &sim.spans);
        prop_assert_eq!(crit.breakdown.total(), sim.total_ns,
            "critical path does not tile the makespan on {:?} mode {}", scheme, mode);
    }
}

// Event-executor determinism: repeated runs are bit-identical, and the
// result does not depend on the order devices fire in — a seeded random
// order produces the same clocks, telemetry and absorbed-fault reports,
// including under a seeded absorbable fault plan, and failing runs (a
// hard fault, a mutant with 1–3 swaps of adjacent instructions) fail with
// the same error (the confluence property that lets one driver answer
// for every order a concurrent runtime could take).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_executor_is_deterministic_and_order_insensitive(
        (scheme, d, n) in scheme_config(),
        fault_seed in 0u64..512,
        order_seed in 0u64..u64::MAX,
        iters in 1u32..=3,
    ) {
        use mario::cluster::event::run_event_shuffled;
        use mario::cluster::{run_with_faults, EmuError, FaultPlan, RunOptions};

        let s = generate(ScheduleConfig::new(scheme, d, n));
        let cost = UnitCost::paper_grid().with_ckpt_bytes(1);
        let at = (fault_seed % iters as u64) as u32;
        let plan = FaultPlan::single_absorbable(fault_seed, &s).at_iteration(at);
        prop_assert!(plan.is_absorbable());
        let cfg = EmulatorConfig {
            channel_capacity: cap_of(scheme),
            iterations: iters,
            ..Default::default()
        };
        let base = run_with_faults(&s, &cost, cfg, &plan)
            .expect("absorbable plan completes");
        // Determinism: a second run is bit-identical.
        let again = run_with_faults(&s, &cost, cfg, &plan).expect("second run completes");
        prop_assert_eq!(&base.device_clocks, &again.device_clocks);
        prop_assert_eq!(base.total_ns, again.total_ns);
        prop_assert_eq!(&base.telemetry, &again.telemetry);
        prop_assert_eq!(&base.faults, &again.faults);
        // Order insensitivity.
        let shuffled = run_event_shuffled(&s, &cost, cfg, &RunOptions::new(&plan), order_seed)
            .expect("shuffled run completes");
        prop_assert_eq!(&base.device_clocks, &shuffled.device_clocks,
            "order-sensitive result on {:?} D={} N={} seed {}", scheme, d, n, order_seed);
        prop_assert_eq!(base.total_ns, shuffled.total_ns);
        prop_assert_eq!(&base.telemetry, &shuffled.telemetry);
        prop_assert_eq!(&base.faults, &shuffled.faults);

        let hard = FaultPlan::single_crash_or_stall(fault_seed, &s).at_iteration(at);
        let swapped = mutant(&s, 1, &mut Mix(order_seed));
        let none = FaultPlan::none();
        for (sched, plan) in [(&s, &hard), (&swapped, &none)] {
            let outcome = |r: Result<RunReport, EmuError>| {
                r.map(|r| (r.device_clocks, r.telemetry, r.faults))
            };
            let fifo = outcome(run_with_faults(sched, &cost, cfg, plan));
            let shuffled = run_event_shuffled(sched, &cost, cfg, &RunOptions::new(plan), order_seed);
            prop_assert_eq!(outcome(shuffled), fifo,
                "{:?} D={} N={} seed {} plan {:?}", scheme, d, n, order_seed, plan.faults);
        }
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
            ..Default::default()
        };
        let rec = mario::cluster::run_with_recovery(&s, &cost, cfg, &plan, 3, |_| None)
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
        };
        prop_assert!(mario::ir::validate_with(&plan.schedule, opts).is_ok(),
            "shrunk schedule invalid for {scheme:?} D={d} N={n}");
        let cost = UnitCost::paper_grid();
        let none = mario::cluster::FaultPlan::none();
        let emu = mario::cluster::run_with(
            &plan.schedule,
            &cost,
            EmulatorConfig {
                channel_capacity: plan.channel_capacity,
                ..Default::default()
            },
            &mario::cluster::RunOptions {
                startup: &plan.startup_ns,
                ..mario::cluster::RunOptions::new(&none)
            },
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
        let opts = SimOptions {
            channel_capacity: plan.channel_capacity,
            iterations,
            startup: &plan.startup_ns,
            ..SimOptions::default()
        };
        let sim = simulate(&plan.schedule, &cost, &opts).unwrap();
        let none = mario::cluster::FaultPlan::none();
        let emu = mario::cluster::run_with(
            &plan.schedule,
            &cost,
            EmulatorConfig {
                channel_capacity: plan.channel_capacity,
                iterations,
                ..Default::default()
            },
            &mario::cluster::RunOptions {
                startup: &plan.startup_ns,
                ..mario::cluster::RunOptions::new(&none)
            },
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
// Structural validity, the closed-form makespan, simulator/emulator
// parity of the whole serving loop, and sentinel-drained crash recovery.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Forward-only schedules validate at capacity 1 and execute
    /// deadlock-free under the emulator's blocking p2p, landing exactly
    /// on the fill–drain closed form `(m+p-1)·F`.
    #[test]
    fn forward_only_schedules_validate_and_execute(p in 2u32..=8, m in 1u32..=12) {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, p, m));
        prop_assert!(validate(&s).is_ok());
        let cost = UnitCost::paper_grid();
        let cfg = EmulatorConfig::default();
        let emu = mario::cluster::run(&s, &cost, cfg).unwrap();
        let expect = (m as u64 + p as u64 - 1) * 1_000;
        prop_assert_eq!(emu.total_ns, expect, "makespan off at p={} m={}", p, m);
    }
}

// The whole serving loop — Poisson arrivals, greedy batching, release
// gating, deadline accounting, the latency digest — agrees bit-for-bit
// between the DP simulator and the emulator, pristine or under seeded
// absorbable degradation (the emulator runs the fault plan itself, the
// simulator runs the derived perturbation profile), across pipeline
// depths and batching policies.
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
        let ev = serve(build, &cost, &cfg, &plan, &requests).unwrap();
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
        prop_assert!(ev.fault_log.is_empty());
        prop_assert!(ev.completions.iter().all(|c| c.is_some()));
        prop_assert_eq!(&ev.completions, &sim.completions,
            "simulated serve diverged at p={} count={} batch={:?} fault={:?}",
            p, count, batch, plan.faults);
        prop_assert_eq!(&ev.serving, &sim.serving);
        let (er, sr) = (ev.report.unwrap(), sim.report.unwrap());
        prop_assert_eq!(&er.device_clocks, &sr.device_clocks);
        // The final attempt's span graph agrees under the serving ingress
        // gate, and the attributed critical path tiles its makespan
        // (release waits surface as exogenous bubbles).
        let ev_spans = er.spans.as_ref().expect("emulated serve recorded spans");
        let sim_spans = sr.spans.as_ref().expect("sim serve carries spans");
        prop_assert_eq!(first_span_divergence(sim_spans, ev_spans), None,
            "serving span graph diverged (sim vs emulator) at p={} count={}", p, count);
        let schedule = build(ev.batches.len() as u32);
        let crit = mario::core::critpath::analyze(&schedule, sim_spans);
        prop_assert_eq!(crit.breakdown.total(), er.total_ns);
    }
}

// Error-sentinel recovery: an injected mid-serve crash drains the pipe
// with no deadlock, the failure is attributed to the injected fault, and
// the stranded requests are retried to completion within policy.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crash_sentinel_serving_retries_stranded_requests(
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
            emulator: EmulatorConfig::default(),
            batch,
            retry,
        };
        let ev = serve(build, &cost, &cfg, &plan, &requests).unwrap();

        prop_assert!(!ev.fault_log.is_empty(),
            "crash at pc {} on {:?} never fired (p={} count={})",
            ((site * 7) % len) as usize, device, p, count);
        prop_assert_eq!(&ev.fault_log[0].fault, &plan.faults[0],
            "fault attribution diverged at p={} count={} site={}", p, count, site);
        prop_assert!(ev.completions.iter().all(|c| c.is_some()),
            "stranded request not retried to completion at p={} count={} site={}",
            p, count, site);
        prop_assert_eq!(ev.serving.completed, count);
        prop_assert!(ev.serving.attempts <= 1 + retry.max_retries);
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

/// SplitMix64, so the order differential's mutants, options and firing
/// orders never depend on a library's stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every scheme the generators emit.
const EVERY_SCHEME: [SchemeKind; 8] = [
    SchemeKind::GPipe,
    SchemeKind::OneFOneB,
    SchemeKind::Chimera,
    SchemeKind::Interleave { chunks: 2 },
    SchemeKind::Wave { chunks: 2 },
    SchemeKind::ForwardOnly,
    SchemeKind::ZeroBubbleH1,
    SchemeKind::ZeroBubbleV,
];

/// Mutant `m` of `base`. An odd one has 1–3 swaps of adjacent
/// instructions, each on a random device; an even one has two sends, on
/// random devices, carry the next micro-batch instead of their own, so a
/// run can meet more than one mismatch.
fn mutant(base: &Schedule, m: usize, rng: &mut Mix) -> Schedule {
    let mut s = base.clone();
    if m.is_multiple_of(2) {
        for _ in 0..2 {
            let dev = DeviceId(rng.below(s.devices() as usize) as u32);
            let mut instrs = s.program(dev).instrs().to_vec();
            let sends: Vec<usize> = (0..instrs.len())
                .filter(|&pc| instrs[pc].kind.is_send())
                .collect();
            if let Some(&pc) = sends.get(rng.below(sends.len().max(1))) {
                instrs[pc].micro = MicroId((instrs[pc].micro.0 + 1) % s.micros);
                *s.program_mut(dev) = mario::ir::DeviceProgram::from_instrs(dev, instrs);
            }
        }
        return s;
    }
    for _ in 0..1 + rng.below(3) {
        let dev = DeviceId(rng.below(s.devices() as usize) as u32);
        let len = s.program(dev).len();
        if len >= 2 {
            let pc = 1 + rng.below(len - 1);
            s.program_mut(dev).rotate_left(pc - 1..pc + 1, 1);
        }
    }
    s
}

/// The order differential over `scheme` at `d`×`n`: the generated
/// schedule and `mutants` mutants of it, each at capacities 1 and 2, run
/// by the deadlock check and by the simulator — an event-backend run,
/// which names its own errors — in first-in-first-out order
/// and in a seeded random one. The deadlock check's answer, and the
/// simulator's whole `SimTimeline` or `SimError` under random iterations,
/// checkpoints, perturbation and serving release gates, must render
/// byte-identically, and on a single iteration the two must name the
/// same stuck state (`common::same_answer`). Returns
/// how many (schedule, capacity) pairs ran and how many the check
/// rejected.
fn order_differential(
    scheme: SchemeKind,
    d: u32,
    n: u32,
    mutants: usize,
    rng: &mut Mix,
) -> (usize, usize) {
    use mario::core::simulator::simulate_shuffled;
    use mario::ir::{check_executable, check_executable_shuffled, LinkSlack};

    let base = generate(ScheduleConfig::new(scheme, d, n));
    let cost = SlowWires(PerDeviceShards(UnitCost::paper_grid()));
    let release: Vec<u64> = (0..n as u64).map(|m| 1_500 * m).collect();
    let (mut pairs, mut rejected) = (0, 0);
    for m in 0..=mutants {
        let s = if m == 0 {
            base.clone()
        } else {
            mutant(&base, m, rng)
        };
        for cap in [1, 2] {
            let seed = rng.next();
            let what = format!("{scheme:?} {d}x{n} mutant {m} cap {cap} seed {seed:#x}");
            let exec = check_executable(&s, cap);
            let shuffled = check_executable_shuffled(&s, cap, seed);
            assert_eq!(format!("{shuffled:?}"), format!("{exec:?}"), "{what}");
            pairs += 1;
            rejected += exec.is_err() as usize;

            let checkpoint = match rng.below(4) {
                0 => None,
                1 => Some(CheckpointPolicy::every(1).with_write_ns(700)),
                2 => Some(CheckpointPolicy::every(1).with_sharded(ShardedWrite::new(2_000, 600))),
                _ => Some(
                    CheckpointPolicy::every(1)
                        .with_sharded(ShardedWrite::new(2_000, 600).with_async_overlap()),
                ),
            };
            let mut profile = PerturbationProfile::identity();
            if rng.below(2) == 1 {
                let dev = DeviceId(rng.below(d as usize) as u32);
                profile = profile.with_straggler(dev, 1.5);
            }
            if rng.below(2) == 1 {
                let src = rng.below(d as usize) as u32;
                profile = profile.with_link_slack(LinkSlack {
                    src: DeviceId(src),
                    dst: DeviceId((src + 1) % d),
                    nth: None,
                    extra_ns: 900,
                    iteration: None,
                });
            }
            let opts = SimOptions {
                channel_capacity: cap,
                iterations: 1 + rng.below(2) as u32,
                checkpoint,
                profile: &profile,
                release: (rng.below(4) == 0).then_some(&release[..]),
                ..SimOptions::default()
            };
            let fifo = simulate(&s, &cost, &opts);
            let shuffled = simulate_shuffled(&s, &cost, &opts, seed);
            assert_eq!(
                format!("{shuffled:?}"),
                format!("{fifo:?}"),
                "{what}, {} iterations, {checkpoint:?}, {profile:?}",
                opts.iterations
            );
            if opts.iterations == 1 {
                let sim = fifo.map(|t| t.total_ns);
                assert!(common::same_answer(&exec, &sim), "{what}: {exec:?}, {sim:?}");
            }
        }
    }
    (pairs, rejected)
}

/// Kahn determinacy, checked: the deadlock check and the DP simulator
/// give the same answers, errors included, in any firing order — on
/// every scheme and on mutants made by adjacent swaps and by sends that
/// carry the wrong micro-batch.
#[test]
fn every_firing_order_gives_the_same_answers() {
    let mut rng = Mix(0x0dde_4e55);
    let (mut pairs, mut rejected) = (0, 0);
    for scheme in EVERY_SCHEME {
        let (p, r) = order_differential(scheme, 4, 8, 5, &mut rng);
        pairs += p;
        rejected += r;
    }
    assert_eq!(pairs, EVERY_SCHEME.len() * 6 * 2);
    assert!(
        rejected > 0 && rejected < pairs,
        "{rejected} of {pairs} rejected"
    );
}

/// The same differential at scale: every scheme at five sizes, 200
/// schedules each (the generated one and 199 mutants), at two capacities
/// — 16 000 (schedule, capacity) pairs. Run with
/// `cargo test --release --test properties -- --ignored`.
#[test]
#[ignore = "large; run in release"]
fn every_firing_order_gives_the_same_answers_at_scale() {
    let mut rng = Mix(0x5ca1_ab1e);
    let mut pairs = 0;
    for scheme in EVERY_SCHEME {
        for (d, n) in [(2, 4), (4, 4), (4, 8), (6, 12), (8, 16)] {
            pairs += order_differential(scheme, d, n, 199, &mut rng).0;
        }
    }
    assert_eq!(pairs, EVERY_SCHEME.len() * 5 * 200 * 2);
}

/// The search `min_channel_capacity` replaced: one full deadlock check
/// per capacity.
fn capacity_by_search(s: &Schedule) -> Option<usize> {
    (1..=8).find(|&cap| mario::ir::check_executable(s, cap).is_ok())
}

/// The one-run capacity equals the search over capacities on every
/// scheme and size, on mutants of each, on a schedule that needs more
/// than 8 buffers and on a true deadlock.
#[test]
fn one_run_capacity_matches_the_search() {
    use mario::ir::{check_executable, min_channel_capacity};

    let mut rng = Mix(0xca9a_c17e);
    let mut found = [0usize; 10];
    for scheme in EVERY_SCHEME {
        for (d, n) in [(2, 4), (4, 4), (4, 8), (6, 12), (8, 16), (8, 32)] {
            let base = generate(ScheduleConfig::new(scheme, d, n));
            for m in 0..=20 {
                let s = if m == 0 {
                    base.clone()
                } else {
                    mutant(&base, m, &mut rng)
                };
                let cap = min_channel_capacity(&s);
                assert_eq!(cap, capacity_by_search(&s), "{scheme:?} {d}x{n} mutant {m}");
                found[cap.unwrap_or(9)] += 1;
            }
        }
    }
    // The grid reaches capacities 1 and 2 and schedules no capacity cures.
    assert!(found[1] > 0 && found[2] > 0 && found[9] > 0, "{found:?}");

    // Two devices that each send k messages before receiving any need
    // exactly k buffers; 9 is past the search's range.
    let (d0, d1) = (DeviceId(0), DeviceId(1));
    for k in 1..=9u32 {
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut head_on = Schedule::empty(topo, k, vec![0; k as usize]);
        for m in 0..k {
            head_on.program_mut(d0).push(Instr::send_act(m, 0u32, d1));
            head_on.program_mut(d1).push(Instr::send_grad(m, 0u32, d0));
        }
        for m in 0..k {
            head_on.program_mut(d0).push(Instr::recv_grad(m, 0u32, d1));
            head_on.program_mut(d1).push(Instr::recv_act(m, 0u32, d0));
        }
        assert!(check_executable(&head_on, k as usize).is_ok());
        let cap = min_channel_capacity(&head_on);
        assert_eq!(cap, (k <= 8).then_some(k as usize), "{k} messages each way");
        assert_eq!(cap, capacity_by_search(&head_on), "{k} messages each way");
    }

    // Each device waits for the other's message first.
    let mut cycle = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 2), 1, vec![0]);
    cycle.program_mut(d0).push(Instr::recv_grad(0u32, 0u32, d1));
    cycle.program_mut(d0).push(Instr::send_act(0u32, 0u32, d1));
    cycle.program_mut(d1).push(Instr::recv_act(0u32, 0u32, d0));
    cycle.program_mut(d1).push(Instr::send_grad(0u32, 0u32, d0));
    assert_eq!(min_channel_capacity(&cycle), None);
    assert_eq!(capacity_by_search(&cycle), None);
}

/// GPT3-13B on `scheme` at `d` devices, mbs 2, with uneven stages: stage
/// `s` runs its forward in `1 + 7s mod 5` ms and its backward in twice
/// that.
fn gpt3_13b_uneven(scheme: SchemeKind, d: u32) -> AnalyticCost {
    let topo = Topology::new(scheme, d);
    let stages = topo.num_stages() as u64;
    let mut cost = AnalyticCost::new(&TrainSetup::pipeline(
        ModelConfig::gpt3_13b(),
        GpuSpec::a100_40g(),
        topo,
        2,
    ));
    let fwd: Vec<_> = (0..stages).map(|s| 1_000_000 * (1 + s * 7 % 5)).collect();
    let bwd = fwd.iter().map(|f| 2 * f).collect();
    cost.override_compute(fwd, bwd);
    cost
}

/// Pass 4's slack test over `scheme` at `d`×`n`: the schedule passes 1–3
/// leave, and `mutants` mutants of it with 1–3 of its candidate swaps
/// applied, each at capacities 1 and 2 under the unit grid and GPT3-13B
/// with uneven stages. The test reasons from the makespan a full
/// simulation gives, and every swap it rejects unsimulated simulates, in
/// full, to at least that makespan or to an error. Returns how many
/// skipped swaps simulated to a makespan and how many to an error.
fn slack_skips_are_rejections(
    scheme: SchemeKind,
    d: u32,
    n: u32,
    mutants: usize,
    rng: &mut Mix,
) -> (usize, usize) {
    use mario::core::passes::prepose_forward::slack_verdicts;

    let mut base = generate(ScheduleConfig::new(scheme, d, n));
    apply_checkpoint(&mut base);
    overlap_recompute(&mut base);
    remove_redundancy(&mut base);
    let (unit, uneven) = (UnitCost::paper_grid(), gpt3_13b_uneven(scheme, d));
    let costs: [&dyn CostModel; 2] = [&unit, &uneven];
    let (mut ran, mut failed) = (0, 0);
    for cost in costs {
        for cap in [1, 2] {
            let opts = SimOptions {
                channel_capacity: cap,
                ..SimOptions::default()
            };
            let candidates = match slack_verdicts(&base, cost, cap) {
                Ok((_, verdicts)) => verdicts,
                Err(_) => Vec::new(),
            };
            for m in 0..=mutants {
                let mut s = base.clone();
                // Candidates never share a group, so any of them apply
                // together.
                for _ in 0..if m == 0 { 0 } else { 1 + rng.below(3) } {
                    if !candidates.is_empty() {
                        candidates[rng.below(candidates.len())].0.apply(&mut s);
                    }
                }
                let label = format!("{scheme:?} {d}x{n} capacity {cap} mutant {m}");
                let Ok((best, verdicts)) = slack_verdicts(&s, cost, cap) else {
                    assert!(simulate(&s, cost, &opts).is_err(), "{label}");
                    continue;
                };
                assert_eq!(simulate(&s, cost, &opts).unwrap().total_ns, best, "{label}");
                for (swap, skipped) in verdicts {
                    if !skipped {
                        continue;
                    }
                    let mut trial = s.clone();
                    swap.apply(&mut trial);
                    match simulate(&trial, cost, &opts) {
                        Ok(t) => {
                            assert!(t.total_ns >= best, "{label}: {swap:?} beats {best}");
                            ran += 1;
                        }
                        Err(_) => failed += 1,
                    }
                }
            }
        }
    }
    (ran, failed)
}

/// Every swap pass 4's slack test rejects without simulating it would be
/// rejected by a full simulation: every scheme at 4×8 and 8×16, and 3
/// mutants of each.
#[test]
fn every_slack_skipped_trial_is_rejected() {
    let mut rng = Mix(0x51ac_c0de);
    let (mut ran, mut failed) = (0, 0);
    for scheme in EVERY_SCHEME {
        for (d, n) in [(4, 8), (8, 16)] {
            let (r, f) = slack_skips_are_rejections(scheme, d, n, 3, &mut rng);
            ran += r;
            failed += f;
        }
    }
    assert!(ran > 0 && failed > 0, "{ran} ran, {failed} failed");
}

/// The same at scale: every scheme at three sizes up to 8×32, with 10
/// mutants each. Run with
/// `cargo test --release --test properties -- --ignored`.
#[test]
#[ignore = "large; run in release"]
fn every_slack_skipped_trial_is_rejected_at_scale() {
    let mut rng = Mix(0x51ac_5ca1);
    let (mut ran, mut failed) = (0, 0);
    for scheme in EVERY_SCHEME {
        for (d, n) in [(4, 8), (8, 16), (8, 32)] {
            let (r, f) = slack_skips_are_rejections(scheme, d, n, 10, &mut rng);
            ran += r;
            failed += f;
        }
    }
    assert!(ran > 0 && failed > 0, "{ran} ran, {failed} failed");
}

/// The hash-map ledger the dense one replaced, kept as the reference:
/// every live allocation keyed in one map with the size it was made at.
struct MapLedger {
    static_bytes: u64,
    dynamic: u64,
    peak: u64,
    capacity: Option<u64>,
    live: mario::ir::FastMap<AllocKey, u64>,
}

impl MapLedger {
    fn new(static_bytes: u64, capacity: Option<u64>) -> Self {
        MapLedger {
            static_bytes,
            dynamic: 0,
            peak: static_bytes,
            capacity,
            live: Default::default(),
        }
    }

    fn current(&self) -> u64 {
        self.static_bytes + self.dynamic
    }

    fn alloc(&mut self, key: AllocKey, bytes: u64) -> Result<(), AllocError> {
        if self.live.contains_key(&key) {
            return Err(AllocError::Live(key));
        }
        self.live.insert(key, bytes);
        self.dynamic += bytes;
        let now = self.current();
        if let Some(cap) = self.capacity {
            if now > cap {
                self.live.remove(&key);
                self.dynamic -= bytes;
                return Err(AllocError::Oom(OomError {
                    requested: bytes,
                    in_use: self.current(),
                    capacity: cap,
                }));
            }
        }
        self.peak = self.peak.max(now);
        Ok(())
    }

    fn free_if_live(&mut self, key: AllocKey) -> u64 {
        let bytes = self.live.remove(&key).unwrap_or(0);
        self.dynamic -= bytes;
        bytes
    }
}

/// Small sizes that differ by (device, kind, part), zero included, and
/// stay defined at `u32::MAX`.
struct LedgerSizes;

impl CostModel for LedgerSizes {
    fn compute_time(&self, _: DeviceId, _: PartId, _: mario::ir::ComputeKind) -> u64 {
        1
    }
    fn act_full(&self, d: DeviceId, p: PartId) -> u64 {
        8 + (d.0 as u64 + p.0 as u64) % 5
    }
    fn act_ckpt(&self, d: DeviceId, p: PartId) -> u64 {
        (3 * d.0 as u64 + p.0 as u64) % 4
    }
    fn boundary_bytes(&self, _: DeviceId, p: PartId) -> u64 {
        1 + p.0 as u64 % 3
    }
    fn wgrad_stash_bytes(&self, d: DeviceId, p: PartId) -> u64 {
        (d.0 as u64 + p.0 as u64) % 2
    }
    fn p2p_time(&self, _: u64) -> u64 {
        0
    }
    fn allreduce_time(&self, _: DeviceId) -> u64 {
        0
    }
    fn optimizer_time(&self, _: DeviceId) -> u64 {
        0
    }
    fn static_mem(&self, _: DeviceId) -> u64 {
        0
    }
}

/// Runs `rounds` random sequences of `steps` ledger operations on the
/// dense ledger `MemoryRules::ledger` builds (one round in eight on a
/// table-less `MemLedger::new`) and on the reference, over in-range,
/// out-of-range and `u32::MAX` ids, `InBuf` and `Snapshot` keys,
/// zero-byte sizes and a capacity in two rounds of three. Returns the
/// (OOM, double-allocation) counts.
fn ledger_differential(rounds: usize, steps: usize, rng: &mut Mix) -> (usize, usize) {
    let cost = LedgerSizes;
    let (mut ooms, mut doubles) = (0, 0);
    for round in 0..rounds {
        let scheme = EVERY_SCHEME[rng.below(EVERY_SCHEME.len())];
        let (d, n) = [(2, 4), (4, 8), (4, 16)][rng.below(3)];
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let parts = s.topology.parts_per_device();
        let rules = MemoryRules::new(&s);
        let device = DeviceId(rng.below(d as usize) as u32);
        let static_bytes = rng.below(50) as u64;
        let capacity = (rng.below(3) > 0).then(|| static_bytes + rng.below(80) as u64);
        let mut dense = if rng.below(8) == 0 {
            MemLedger::new(static_bytes, capacity)
        } else {
            rules.ledger(device, &cost, static_bytes, capacity)
        };
        let mut reference = MapLedger::new(static_bytes, capacity);
        // A few in-range micros and parts, so keys collide, and the ids
        // just past the table and at the top of the range.
        let id = |rng: &mut Mix, count: u32| match rng.below(8) {
            0 => count + rng.below(2) as u32,
            1 => u32::MAX,
            _ => rng.below(count.min(4) as usize) as u32,
        };
        for step in 0..steps {
            let (m, p) = (MicroId(id(rng, n)), PartId(id(rng, parts)));
            let (key, bytes) = match rng.below(12) {
                0..=2 => (AllocKey::Act(m, p), cost.act_full(device, p)),
                3..=4 => (AllocKey::Ckpt(m, p), cost.act_ckpt(device, p)),
                5..=6 => (AllocKey::OutBuf(m, p), cost.boundary_bytes(device, p)),
                7..=8 => (AllocKey::Wgrad(m, p), cost.wgrad_stash_bytes(device, p)),
                9..=10 => (AllocKey::InBuf(m, p), rng.below(6) as u64),
                _ => (AllocKey::Snapshot, rng.below(30) as u64),
            };
            let what = format!("round {round} step {step}: {key:?} ({bytes} B)");
            match rng.below(3) {
                0 | 1 => {
                    let want = reference.alloc(key, bytes);
                    ooms += matches!(want, Err(AllocError::Oom(_))) as usize;
                    doubles += matches!(want, Err(AllocError::Live(_))) as usize;
                    assert_eq!(dense.alloc(key, bytes), want, "alloc, {what}");
                }
                _ if reference.live.contains_key(&key) && rng.below(2) == 0 => {
                    assert_eq!(dense.free(key), reference.free_if_live(key), "free, {what}");
                }
                _ => assert_eq!(
                    dense.free_if_live(key),
                    reference.free_if_live(key),
                    "free_if_live, {what}"
                ),
            }
            assert_eq!(
                (dense.current(), dense.dynamic(), dense.peak()),
                (reference.current(), reference.dynamic, reference.peak),
                "{what}"
            );
            assert_eq!(dense.live_count(), reference.live.len(), "{what}");
            assert_eq!(
                dense.is_live(key),
                reference.live.contains_key(&key),
                "{what}"
            );
        }
    }
    (ooms, doubles)
}

/// The dense ledger gives the reference map ledger's every answer.
#[test]
fn the_dense_ledger_matches_the_map_ledger() {
    let (ooms, doubles) = ledger_differential(64, 256, &mut Mix(0x1ed6_e500));
    assert!(ooms > 0 && doubles > 0, "{ooms} OOMs, {doubles} doubles");
}

/// The same at scale: 4 096 sequences of 2 048 operations. Run with
/// `cargo test --release --test properties -- --ignored`.
#[test]
#[ignore = "large; run in release"]
fn the_dense_ledger_matches_the_map_ledger_at_scale() {
    let (ooms, doubles) = ledger_differential(4096, 2048, &mut Mix(0x1ed6_e5ca));
    assert!(ooms > 0 && doubles > 0, "{ooms} OOMs, {doubles} doubles");
}
