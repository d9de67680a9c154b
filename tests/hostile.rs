//! Hostile inputs: a small deterministic mutator breaks one instruction
//! of a valid schedule at a time.
//!
//! `validate` is pinned by hashing the full `Debug` rendering of every
//! result `validate_with` returns, error order included. The digest was
//! recorded from the scan-per-query implementation of `validate`, so an
//! indexed one must report exactly the same errors in exactly the same
//! order — and must not panic on out-of-range micro or part ids. A
//! second digest hashes each error's `Display` text, which must not move
//! when an error's representation does: it held when `NotExecutable`
//! came to carry the deadlock check's `ExecError` rather than its text,
//! and only the `Debug` digest was re-pinned.
//!
//! The same mutants run through the emulator in FIFO and shuffled firing
//! orders, which must not panic and must fail the same way, and through
//! every engine that shares `mario_ir::link`'s ack-window rule: the DP
//! simulator, the makespan sweep and the event run must name the same
//! mismatch or blocked devices, by value, and agree with the deadlock
//! check.
//!
//! Hostile schedule *text* must parse to a schedule or a `TextError`,
//! never a panic: headers that would break a constructor's assertions are
//! pinned case by case, and byte-level mutants of generated text, drawn
//! with a fixed seed, pin every answer by digest. The `str`-method parser
//! the byte-level one replaced is kept here as the oracle for a large
//! differential, and the `Display`-based writer the byte writer replaced
//! as the oracle `to_text` must match byte for byte. A header that claims
//! more forwards than its instructions hold must not make `validate`
//! size anything by it.

use mario::cluster::event::run_event_shuffled;
use mario::cluster::{run, run_with_faults, EmuError, EmulatorConfig, FaultPlan, RunOptions};
use mario::core::passes::{
    apply_checkpoint, overlap_recompute, remove_redundancy, split_backward, SplitOptions,
};
use mario::core::simulator::{makespan_sweep, simulate_memory, simulate_timeline, SimError};
use mario::core::tuner::scheme_channel_capacity;
use mario::ir::{
    check_executable, from_text, from_text_in_parts, text::parse_instr, to_text,
    validate_speculatively, validate_with, CheckpointPolicy, ComputeKind, CostModel, DeviceId,
    Instr, InstrKind, MicroId, Nanos, PartId, Schedule, SchemeKind, TextError, UnitCost,
    ValidateOptions, ValidationError,
};
use mario::schedules::{generate, ScheduleConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

mod common;

/// SplitMix64: a tiny deterministic generator, so the mutants never
/// depend on a library's stream.
struct Rng(u64);

impl Rng {
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

/// One single-instruction corruption.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Delete the instruction.
    Drop,
    /// Insert a copy right after it.
    Duplicate,
    /// Exchange it with another instruction of the same device.
    Swap,
    /// Point it at another (in-range) micro-batch.
    Retarget,
    /// Give it a micro id past the schedule's micro count.
    MicroOutOfRange,
    /// Send or receive from the wrong (in-range) peer.
    WrongPeer,
    /// Tag it with the wrong partition, possibly one the scheme lacks.
    WrongPart,
}

const MUTATIONS: [Mutation; 7] = [
    Mutation::Drop,
    Mutation::Duplicate,
    Mutation::Swap,
    Mutation::Retarget,
    Mutation::MicroOutOfRange,
    Mutation::WrongPeer,
    Mutation::WrongPart,
];

/// Applies `m` to one instruction of `s` chosen by `rng`. Returns a
/// description of the edit.
fn mutate(s: &mut Schedule, m: Mutation, rng: &mut Rng) -> String {
    let devices = s.devices();
    let micros = s.micros;
    let d = DeviceId(rng.below(devices as usize) as u32);
    let mut instrs = s.program(d).instrs().to_vec();
    let mut pos = rng.below(instrs.len());
    if matches!(m, Mutation::WrongPeer) {
        // Pick the first p2p instruction at or after `pos`, wrapping.
        if let Some(k) = (0..instrs.len())
            .map(|k| (pos + k) % instrs.len())
            .find(|&k| instrs[k].kind.is_p2p())
        {
            pos = k;
        }
    }
    let before = instrs[pos];
    match m {
        Mutation::Drop => {
            instrs.remove(pos);
        }
        Mutation::Duplicate => instrs.insert(pos + 1, before),
        Mutation::Swap => {
            let other = rng.below(instrs.len());
            instrs.swap(pos, other);
        }
        Mutation::Retarget => {
            let shift = 1 + rng.below(micros.max(2) as usize - 1) as u32;
            instrs[pos].micro = MicroId((before.micro.0 + shift) % micros.max(1));
        }
        Mutation::MicroOutOfRange => {
            instrs[pos].micro = MicroId(micros + rng.below(3) as u32);
        }
        Mutation::WrongPeer => {
            let shift = 1 + rng.below(devices as usize - 1) as u32;
            let wrong = |peer: DeviceId| DeviceId((peer.0 + shift) % devices);
            instrs[pos].kind = match before.kind {
                InstrKind::SendAct { peer } => InstrKind::SendAct { peer: wrong(peer) },
                InstrKind::RecvAct { peer } => InstrKind::RecvAct { peer: wrong(peer) },
                InstrKind::SendGrad { peer } => InstrKind::SendGrad { peer: wrong(peer) },
                InstrKind::RecvGrad { peer } => InstrKind::RecvGrad { peer: wrong(peer) },
                k => k,
            };
        }
        Mutation::WrongPart => {
            instrs[pos].part = PartId(before.part.0 + 1 + rng.below(2) as u32);
        }
    }
    *s.program_mut(d) = mario::ir::DeviceProgram::from_instrs(d, instrs);
    format!("{m:?} {d} #{pos} {before}")
}

/// 64-bit FNV-1a.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const SCHEMES: [SchemeKind; 8] = [
    SchemeKind::GPipe,
    SchemeKind::OneFOneB,
    SchemeKind::Chimera,
    SchemeKind::Interleave { chunks: 2 },
    SchemeKind::Wave { chunks: 2 },
    SchemeKind::ForwardOnly,
    SchemeKind::ZeroBubbleH1,
    SchemeKind::ZeroBubbleV,
];

/// The plain 4×8 schedule of `scheme` and its checkpointed version
/// (passes 1–3), which exercises the recompute-window checks.
fn plain_and_checkpointed(scheme: SchemeKind) -> [Schedule; 2] {
    let base = generate(ScheduleConfig::new(scheme, 4, 8));
    let mut tuned = base.clone();
    apply_checkpoint(&mut tuned);
    overlap_recompute(&mut tuned);
    remove_redundancy(&mut tuned);
    [base, tuned]
}

/// One mutated schedule and how it was made.
struct Mutant {
    scheme: SchemeKind,
    round: usize,
    edit: String,
    schedule: Schedule,
    /// The valid schedule the mutant was made from.
    pristine: Schedule,
}

/// Every scheme's mutants, the scheme's index seeding the generator: its
/// plain schedule, then its checkpointed one, each taking `rounds`
/// rounds of every mutation.
fn mutants(rounds: usize) -> Vec<Mutant> {
    let mut out = Vec::new();
    for (seed, scheme) in SCHEMES.into_iter().enumerate() {
        let mut rng = Rng(seed as u64);
        for start in plain_and_checkpointed(scheme) {
            for round in 0..rounds {
                for m in MUTATIONS {
                    let mut schedule = start.clone();
                    let edit = mutate(&mut schedule, m, &mut rng);
                    out.push(Mutant {
                        scheme,
                        round,
                        edit,
                        schedule,
                        pristine: start.clone(),
                    });
                }
            }
        }
    }
    out
}

fn opts(scheme: SchemeKind) -> ValidateOptions {
    ValidateOptions {
        channel_capacity: scheme_channel_capacity(scheme),
    }
}

#[test]
fn validate_reports_the_same_errors_on_mutated_schedules() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut rejected = 0;
    let mut total = 0;
    for Mutant {
        scheme,
        round,
        edit,
        schedule,
        ..
    } in mutants(4)
    {
        let result = validate_with(&schedule, opts(scheme));
        rejected += result.is_err() as usize;
        total += 1;
        fnv1a(
            &mut h,
            format!("{scheme:?} {round} {edit}: {result:?}\n").as_bytes(),
        );
    }
    assert_eq!(total, 8 * 2 * 4 * 7);
    // A few mutations are harmless (e.g. swapping two independent
    // instructions); nearly all must be caught.
    assert!(rejected * 10 >= total * 9, "{rejected}/{total} rejected");
    assert_eq!(
        h, 0x3bcf_1fb4_6409_e8ab,
        "mutated-validate digest {h:#018x}"
    );
}

/// The text of every error `validate_with` returns on the mutants, in
/// order: the messages the CLI prints, pinned independently of how the
/// errors are represented.
#[test]
fn validate_texts_on_mutated_schedules_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for Mutant {
        scheme,
        round,
        edit,
        schedule,
        ..
    } in mutants(4)
    {
        fnv1a(&mut h, format!("{scheme:?} {round} {edit}:").as_bytes());
        for e in validate_with(&schedule, opts(scheme))
            .err()
            .unwrap_or_default()
        {
            fnv1a(&mut h, format!(" {e}").as_bytes());
        }
        fnv1a(&mut h, b"\n");
    }
    assert_eq!(
        h, 0x8dcf_89a7_4c62_f11e,
        "mutated-validate text digest {h:#018x}"
    );
}

/// The deadlock check run speculatively beside the structural checks
/// gives the serial path's `Result`, errors and their order included, on
/// every mutant at capacities 1 and 2.
#[test]
fn the_speculative_deadlock_check_answers_as_the_serial_path() {
    let (mut valid, mut not_executable) = (0, 0);
    for Mutant {
        scheme,
        edit,
        schedule,
        ..
    } in mutants(4)
    {
        for channel_capacity in [1, 2] {
            let opts = ValidateOptions { channel_capacity };
            // The 4x8 mutants are far below the size that speculates.
            let serial = validate_with(&schedule, opts);
            let speculative = validate_speculatively(&schedule, opts);
            assert_eq!(
                speculative, serial,
                "{scheme:?} {edit} at {channel_capacity}"
            );
            valid += serial.is_ok() as usize;
            not_executable += matches!(
                serial.as_ref().map_err(Vec::as_slice),
                Err([ValidationError::NotExecutable(_)])
            ) as usize;
        }
    }
    // Both uses of the speculative answer are exercised.
    assert!(
        valid > 0 && not_executable > 0,
        "{valid} valid, {not_executable} not executable"
    );
}

#[test]
fn every_firing_order_fails_mutated_schedules_the_same_way() {
    let cost = UnitCost::paper_grid();
    let none = FaultPlan::none();
    let mut failed = 0;
    for Mutant {
        scheme,
        edit,
        schedule: s,
        ..
    } in mutants(1)
    {
        let cfg = EmulatorConfig {
            channel_capacity: scheme_channel_capacity(scheme),
            iterations: 2,
            ..Default::default()
        };
        let fifo = catch_unwind(AssertUnwindSafe(|| run(&s, &cost, cfg)))
            .unwrap_or_else(|_| panic!("{scheme:?} {edit}: panicked"));
        for seed in 0..4 {
            let shuffled = catch_unwind(AssertUnwindSafe(|| {
                run_event_shuffled(&s, &cost, cfg, &RunOptions::new(&none), seed)
            }))
            .unwrap_or_else(|_| panic!("{scheme:?} {edit}: order {seed} panicked"));
            // Deadlocks included: every order reaches the same quiescent
            // state, and `stuck` reads it.
            match (&fifo, &shuffled) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.device_clocks, b.device_clocks, "{scheme:?} {edit} {seed}")
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{scheme:?} {edit} {seed}: {a} vs {b}"),
                _ => panic!("{scheme:?} {edit} {seed}: {fifo:?} vs {shuffled:?}"),
            }
        }
        failed += fifo.is_err() as usize;
    }
    // Most corruptions break execution too, not just validation.
    assert!(
        failed >= SCHEMES.len() * 2 * MUTATIONS.len() / 2,
        "{failed} failed"
    );
}

/// The unit grid's timing with a distinct size for every (device, kind,
/// part), zero-byte gradient stashes on even devices' part 0 included, so
/// a size read for the wrong key moves a peak or an OOM cause.
struct SizedCost(UnitCost);

impl CostModel for SizedCost {
    fn compute_time(&self, device: DeviceId, part: PartId, kind: ComputeKind) -> Nanos {
        self.0.compute_time(device, part, kind)
    }
    fn act_full(&self, device: DeviceId, part: PartId) -> u64 {
        100 + 10 * device.0 as u64 + part.0 as u64
    }
    fn act_ckpt(&self, device: DeviceId, part: PartId) -> u64 {
        30 + 3 * device.0 as u64 + 2 * part.0 as u64
    }
    fn boundary_bytes(&self, device: DeviceId, part: PartId) -> u64 {
        5 + device.0 as u64 % 3 + part.0 as u64
    }
    fn wgrad_stash_bytes(&self, device: DeviceId, part: PartId) -> u64 {
        (device.0 as u64 % 2) + 7 * part.0 as u64
    }
    fn p2p_time(&self, bytes: u64) -> Nanos {
        self.0.p2p_time(bytes)
    }
    fn allreduce_time(&self, device: DeviceId) -> Nanos {
        self.0.allreduce_time(device)
    }
    fn optimizer_time(&self, device: DeviceId) -> Nanos {
        self.0.optimizer_time(device)
    }
    fn static_mem(&self, device: DeviceId) -> u64 {
        1000 + device.0 as u64
    }
    fn ckpt_shard_bytes(&self, _: DeviceId) -> u64 {
        0
    }
}

#[test]
fn event_backend_answers_on_mutants_are_pinned() {
    // The emulator's full answer on every mutant: the per-device
    // peaks, leaked allocations and clocks of a run that finishes, or the
    // complete error (a double allocation's key, an OOM's cause). Each
    // mutant runs with no capacity and with one between its pristine
    // schedule's lowest and highest device peak, for one and two
    // iterations, writing a checkpoint (a held serialization buffer)
    // after every iteration. Out-of-range micro and part ids reach the
    // ledger unvalidated.
    let cost = SizedCost(UnitCost::paper_grid());
    let mutants = mutants(1);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (mut runs, mut ooms, mut double) = (0, 0, 0);
    for Mutant {
        scheme,
        round,
        edit,
        schedule: s,
        pristine,
    } in &mutants
    {
        let peaks = simulate_memory(pristine, &cost, None);
        let (lo, hi) = (peaks.min_peak(), peaks.max_peak());
        assert!(lo < hi, "{scheme:?}: peaks {:?}", peaks.peak);
        for capacity in [None, Some(lo + (hi - lo) / 2)] {
            for iterations in [1, 2] {
                let cfg = EmulatorConfig {
                    channel_capacity: scheme_channel_capacity(*scheme),
                    iterations,
                    mem_capacity: capacity,
                    checkpoint: Some(CheckpointPolicy {
                        mem_overhead: 40,
                        ..CheckpointPolicy::every(1)
                    }),
                    ..Default::default()
                };
                let answer = match run(s, &cost, cfg) {
                    Ok(r) => {
                        format!("ok {:?} {:?} {:?}", r.peak_mem, r.leaked, r.device_clocks)
                    }
                    Err(e) => {
                        ooms += matches!(e, EmuError::Oom { .. }) as usize;
                        double += matches!(e, EmuError::DoubleAlloc { .. }) as usize;
                        format!("{e:?}")
                    }
                };
                runs += 1;
                fnv1a(
                    &mut h,
                    format!("{scheme:?} {round} {edit} {capacity:?} {iterations}: {answer}\n")
                        .as_bytes(),
                );
            }
        }
    }
    assert_eq!(runs, SCHEMES.len() * 2 * MUTATIONS.len() * 4);
    assert!(
        ooms > 0 && double > 0,
        "{ooms} OOMs, {double} double allocations"
    );
    assert_eq!(h, 0x2193_8c08_6110_db08, "mutant digest {h:#018x}");
}

#[test]
fn event_backend_fault_answers_are_pinned() {
    // The event backend's full answer under one random fault per seed
    // on V, X and W at 8×16: the complete `EmuError` of a crash, a stall
    // or a squeezed OOM, or the `FaultReport`s a run absorbed from a
    // slowdown or a link delay. Every failure report is built off the
    // machine's hot path, so moving that code must not move the digest.
    let cost = UnitCost::paper_grid();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (mut failed, mut absorbed) = (0, 0);
    for scheme in [
        SchemeKind::OneFOneB,
        SchemeKind::Chimera,
        SchemeKind::Interleave { chunks: 2 },
    ] {
        let s = generate(ScheduleConfig::new(scheme, 8, 16));
        let cfg = EmulatorConfig {
            channel_capacity: scheme_channel_capacity(scheme),
            ..Default::default()
        };
        for seed in 0..40 {
            let plan = FaultPlan::single_random(seed, &s);
            let answer = match run_with_faults(&s, &cost, cfg, &plan) {
                Ok(r) => {
                    absorbed += !r.faults.is_empty() as usize;
                    format!("ok {} {:?}", r.total_ns, r.faults)
                }
                Err(e) => {
                    failed += 1;
                    format!("{e:?}")
                }
            };
            fnv1a(&mut h, format!("{scheme:?} {seed}: {answer}\n").as_bytes());
        }
    }
    assert!(
        failed > 0 && absorbed > 0,
        "{failed} failed, {absorbed} absorbed"
    );
    assert_eq!(h, 0x0df3_8a35_df6d_58af, "fault digest {h:#018x}");
}

/// Runs every mutant of `mutants(rounds)` that passes every structural
/// check, so that only the link rule can reject it: `validate` accepts it
/// or reports a single `NotExecutable`. The DP simulator, the makespan
/// sweep and a zero-jitter event-backend run must then give the same
/// answer, errors equal by value, and name the stuck state the deadlock
/// check names. Returns how many mutants qualified and how many the
/// check rejected.
fn link_engines_agree(rounds: usize) -> (usize, usize) {
    let cost = UnitCost::paper_grid();
    let mut qualified = 0;
    let mut rejected = 0;
    for Mutant {
        scheme,
        round,
        edit,
        schedule: s,
        ..
    } in mutants(rounds)
    {
        if let Err(errors) = validate_with(&s, opts(scheme)) {
            if !matches!(errors[..], [ValidationError::NotExecutable(_)]) {
                continue;
            }
        }
        qualified += 1;
        let cap = scheme_channel_capacity(scheme);
        let exec = check_executable(&s, cap);
        let sim = simulate_timeline(&s, &cost, cap).map(|t| t.total_ns);
        let sweep = makespan_sweep(&s, &cost, cap);
        let event = EmulatorConfig {
            channel_capacity: cap,
            ..Default::default()
        };
        let emu = run(&s, &cost, event);
        rejected += exec.is_err() as usize;
        let what = format!("{scheme:?} {round} {edit}: exec {exec:?}, sim {sim:?}, event {emu:?}");
        let emu = emu.map(|r| r.total_ns).map_err(|e| match e {
            EmuError::Deadlock(d) => SimError::Deadlock(d),
            EmuError::Mismatch(m) => SimError::Mismatch(m),
            e => panic!("{what}: {e}"),
        });
        assert_eq!(sim, emu, "{what}");
        assert_eq!(sweep, emu, "{what}");
        assert!(common::same_answer(&exec, &emu), "{what}");
    }
    (qualified, rejected)
}

#[test]
fn every_link_engine_agrees_with_the_deadlock_check() {
    let (qualified, rejected) = link_engines_agree(4);
    assert_eq!(qualified, 50, "{rejected} of {qualified} rejected");
}

#[test]
#[ignore = "57 344 mutants through every engine; CI runs it in release"]
fn every_link_engine_agrees_with_the_deadlock_check_at_scale() {
    let (qualified, rejected) = link_engines_agree(512);
    assert_eq!(qualified, 6203, "{rejected} of {qualified} rejected");
}

#[test]
fn from_text_rejects_headers_a_constructor_would_panic_on() {
    // (body after the version line, line of the error, what it says)
    let cases = [
        (
            "scheme V devices 0 micros 1\nroutes 0\n",
            2,
            "at least one device",
        ),
        (
            "scheme X devices 3 micros 2\nroutes 0 1\nd0:\nd1:\nd2:\n",
            2,
            "even number of devices",
        ),
        (
            "scheme W:0 devices 2 micros 1\nroutes 0\nd0:\nd1:\n",
            2,
            "at least one chunk",
        ),
        (
            "scheme H:0 devices 2 micros 1\nroutes 0\nd0:\nd1:\n",
            2,
            "at least one chunk",
        ),
        (
            "scheme V devices 2 micros 1\nroutes 1\nd0:\nd1:\n",
            3,
            "route out of range",
        ),
        (
            "scheme X devices 2 micros 2\nroutes 0 2\nd0:\nd1:\n",
            3,
            "route out of range",
        ),
    ];
    for (body, line, what) in cases {
        let text = format!("mario-schedule v1\n{body}");
        let parsed = catch_unwind(|| from_text(&text));
        let err = parsed
            .unwrap_or_else(|_| panic!("from_text panicked on {body:?}"))
            .expect_err(body);
        assert_eq!(err.line, line, "{body:?}: {err}");
        assert!(err.what.contains(what), "{body:?}: {err}");
    }
}

#[test]
fn validate_sizes_nothing_by_a_header_its_instructions_do_not_fill() {
    // Headers that claim far more micros × stages than their
    // instructions hold, with the (needed, found) counts `validate`
    // reports. Each needs gigabytes or seconds if the route table or the
    // index is sized from the header alone. Without micro-batches nothing
    // is missing, and no route table is built.
    let cases = [
        (
            "scheme W:20000000 devices 4 micros 1\nroutes 0\nd0:\nd1:\nd2:\nd3:\n",
            Some((80_000_000, 0)),
        ),
        (
            "scheme W:1000000 devices 4 micros 1\nroutes 0\nd0:\nd1:\nd2:\nd3:\n",
            Some((4_000_000, 0)),
        ),
        (
            "scheme W:1000000 devices 1 micros 2\nroutes 0 0\nd0: F0^0 B0^0 F1^0\n",
            Some((2_000_000, 3)),
        ),
        (
            "scheme W:4000000000 devices 1 micros 0\nroutes\nd0:\n",
            None,
        ),
    ];
    for (body, answer) in cases {
        let s = from_text(&format!("mario-schedule v1\n{body}")).expect(body);
        let want = answer.map_or(Ok(()), |(needed, found)| {
            Err(vec![ValidationError::TooFewInstructions { needed, found }])
        });
        assert_eq!(
            validate_with(&s, ValidateOptions::default()),
            want,
            "{body:?}"
        );
    }
}

/// The characters text mutants draw single edits from: those the format
/// uses, `+` (a sign `u32::from_str` accepts), and tab, CR and VT, which
/// are Unicode White_Space like the space (VT is not
/// `u8::is_ascii_whitespace`).
const TEXT_ALPHABET: &[u8] = b"0123456789 \n:^<>dFBRSAGXVWHZcirw+\t\r\x0B";

/// Non-ASCII characters mutants insert whole: two spaces that split
/// tokens (no-break and ideographic) and a letter that does not.
const TEXT_WIDE: &[char] = &['\u{A0}', '\u{3000}', '\u{e9}'];

/// The oracle differential's wider alphabets: `TEXT_ALPHABET` and form
/// feed, and `TEXT_WIDE` and NEL (U+0085, whose lead byte 0xC2 also
/// starts non-space letters).
const TEXT_ALPHABET_FF: &[u8] = b"0123456789 \n:^<>dFBRSAGXVWHZcirw+\t\r\x0B\x0C";
const TEXT_WIDE_NEL: &[char] = &['\u{A0}', '\u{3000}', '\u{e9}', '\u{85}'];

/// Hands `each` `count` mutants of the `devices`×`micros` text of each
/// scheme, seeded by `seed`. A mutant makes 1–3 edits: replace, insert
/// or delete one character of `alphabet`, or insert one of `wide`.
fn text_mutants(
    (devices, micros): (u32, u32),
    (alphabet, wide): (&[u8], &[char]),
    seed: u64,
    count: usize,
    mut each: impl FnMut(SchemeKind, &str),
) {
    let mut rng = Rng(seed);
    for scheme in SCHEMES {
        let text: Vec<char> = to_text(&generate(ScheduleConfig::new(scheme, devices, micros)))
            .chars()
            .collect();
        for _ in 0..count {
            let mut chars = text.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(chars.len());
                let c = alphabet[rng.below(alphabet.len())] as char;
                match rng.below(4) {
                    0 => chars[at] = c,
                    1 => chars.insert(at, c),
                    2 => {
                        chars.remove(at);
                    }
                    _ => chars.insert(at, wide[rng.below(wide.len())]),
                }
            }
            each(scheme, &chars.into_iter().collect::<String>());
        }
    }
}

/// The `str`-method parser `from_text` replaced, kept as the oracle the
/// byte-level reader must agree with on every input: the same schedule,
/// or the same error on the same line. And the `Display`-based writer
/// `to_text` replaced, which the byte writer must match byte for byte.
mod oracle {
    use mario::ir::{
        DeviceId, DeviceProgram, Instr, InstrKind, Schedule, SchemeKind, TextError, Topology,
    };

    fn scheme_token(s: SchemeKind) -> String {
        match s {
            SchemeKind::GPipe => "G".into(),
            SchemeKind::OneFOneB => "V".into(),
            SchemeKind::Chimera => "X".into(),
            SchemeKind::Interleave { chunks } => format!("W:{chunks}"),
            SchemeKind::Wave { chunks } => format!("H:{chunks}"),
            SchemeKind::ForwardOnly => "F".into(),
            SchemeKind::ZeroBubbleH1 => "Z".into(),
            SchemeKind::ZeroBubbleV => "ZV".into(),
        }
    }

    /// The previous `Instr` `Display`.
    fn instr(i: &Instr) -> String {
        let m = i.micro.0;
        let p = i.part.0;
        match i.kind {
            InstrKind::Forward { ckpt: false } => format!("F{m}^{p}"),
            InstrKind::Forward { ckpt: true } => format!("cF{m}^{p}"),
            InstrKind::Backward => format!("B{m}^{p}"),
            InstrKind::BackwardInput => format!("Bi{m}^{p}"),
            InstrKind::BackwardWeight => format!("Bw{m}^{p}"),
            InstrKind::Recompute => format!("R{m}^{p}"),
            InstrKind::SendAct { peer } => format!("SA{m}^{p}>d{}", peer.0),
            InstrKind::RecvAct { peer } => format!("RA{m}^{p}<d{}", peer.0),
            InstrKind::SendGrad { peer } => format!("SG{m}^{p}>d{}", peer.0),
            InstrKind::RecvGrad { peer } => format!("RG{m}^{p}<d{}", peer.0),
            InstrKind::AllReduce => "AR".into(),
            InstrKind::OptimizerStep => "OS".into(),
        }
    }

    /// The previous `to_text`, with the previous `DeviceProgram` `Display`
    /// inlined.
    pub fn to_text(s: &Schedule) -> String {
        let mut out = String::from("mario-schedule v1\n");
        out.push_str(&format!(
            "scheme {} devices {} micros {}\n",
            scheme_token(s.topology.scheme),
            s.topology.devices,
            s.micros
        ));
        out.push_str("routes");
        for r in &s.routes {
            out.push_str(&format!(" {r}"));
        }
        out.push('\n');
        for p in s.programs() {
            out.push_str(&format!("d{}:", p.device.0));
            for i in p.instrs() {
                out.push_str(&format!(" {}", instr(i)));
            }
            out.push('\n');
        }
        out
    }

    fn parse_scheme(tok: &str) -> Option<SchemeKind> {
        match tok {
            "G" => Some(SchemeKind::GPipe),
            "V" => Some(SchemeKind::OneFOneB),
            "X" => Some(SchemeKind::Chimera),
            "F" => Some(SchemeKind::ForwardOnly),
            "Z" => Some(SchemeKind::ZeroBubbleH1),
            "ZV" => Some(SchemeKind::ZeroBubbleV),
            _ => {
                let (letter, chunks) = tok.split_once(':')?;
                let chunks: u32 = chunks.parse().ok()?;
                match letter {
                    "W" => Some(SchemeKind::Interleave { chunks }),
                    "H" => Some(SchemeKind::Wave { chunks }),
                    _ => None,
                }
            }
        }
    }

    /// The previous `parse_instr`.
    pub fn parse_instr(tok: &str) -> Option<Instr> {
        if tok == "AR" {
            return Some(Instr::all_reduce());
        }
        if tok == "OS" {
            return Some(Instr::optimizer_step());
        }
        // P2P: e.g. SA3^1>d2 / RG0^0<d1.
        for (prefix, recv) in [("SA", false), ("SG", false), ("RA", true), ("RG", true)] {
            if let Some(rest) = tok.strip_prefix(prefix) {
                let sep = if recv { '<' } else { '>' };
                let (mp, peer) = rest.split_once(sep)?;
                let (m, p) = mp.split_once('^')?;
                let micro: u32 = m.parse().ok()?;
                let part: u32 = p.parse().ok()?;
                let peer: u32 = peer.strip_prefix('d')?.parse().ok()?;
                let peer = DeviceId(peer);
                return Some(match prefix {
                    "SA" => Instr::send_act(micro, part, peer),
                    "SG" => Instr::send_grad(micro, part, peer),
                    "RA" => Instr::recv_act(micro, part, peer),
                    _ => Instr::recv_grad(micro, part, peer),
                });
            }
        }
        // Compute: cF3^0 / F3^0 / B3^0 / R3^0.
        let (kind, rest): (fn(u32, u32) -> Instr, &str) = if let Some(r) = tok.strip_prefix("cF") {
            (|m, p| Instr::ckpt_forward(m, p), r)
        } else if let Some(r) = tok.strip_prefix('F') {
            (|m, p| Instr::forward(m, p), r)
        } else if let Some(r) = tok.strip_prefix("Bi") {
            (|m, p| Instr::backward_input(m, p), r)
        } else if let Some(r) = tok.strip_prefix("Bw") {
            (|m, p| Instr::backward_weight(m, p), r)
        } else if let Some(r) = tok.strip_prefix('B') {
            (|m, p| Instr::backward(m, p), r)
        } else if let Some(r) = tok.strip_prefix('R') {
            (|m, p| Instr::recompute(m, p), r)
        } else {
            return None;
        };
        let (m, p) = rest.split_once('^')?;
        Some(kind(m.parse().ok()?, p.parse().ok()?))
    }

    /// The previous `from_text`.
    pub fn from_text(text: &str) -> Result<Schedule, TextError> {
        let err = |line: usize, what: &str| TextError {
            line,
            what: what.to_string(),
        };
        let mut lines = text.lines().enumerate();

        let (n, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
        if header.trim() != "mario-schedule v1" {
            return Err(err(n + 1, "expected header 'mario-schedule v1'"));
        }

        let (n, meta) = lines.next().ok_or_else(|| err(2, "missing scheme line"))?;
        let toks: Vec<&str> = meta.split_whitespace().collect();
        let [kw_s, scheme, kw_d, devices, kw_m, micros] = toks.as_slice() else {
            return Err(err(n + 1, "expected 'scheme <s> devices <d> micros <n>'"));
        };
        if *kw_s != "scheme" || *kw_d != "devices" || *kw_m != "micros" {
            return Err(err(n + 1, "expected 'scheme <s> devices <d> micros <n>'"));
        }
        let scheme = parse_scheme(scheme).ok_or_else(|| err(n + 1, "unknown scheme token"))?;
        let devices: u32 = devices
            .parse()
            .map_err(|_| err(n + 1, "bad device count"))?;
        let micros: u32 = micros.parse().map_err(|_| err(n + 1, "bad micro count"))?;

        let topo = Topology::try_new(scheme, devices).map_err(|e| err(n + 1, &e))?;

        let (n, routes_line) = lines.next().ok_or_else(|| err(3, "missing routes line"))?;
        // No capacity is reserved from the header's counts: hostile text can
        // claim billions.
        let mut routes = Vec::new();
        let mut toks = routes_line.split_whitespace();
        if toks.next() != Some("routes") {
            return Err(err(n + 1, "expected 'routes ...'"));
        }
        for t in toks {
            let route = t.parse::<u32>().map_err(|_| err(n + 1, "bad route"))?;
            if route >= topo.num_routes() {
                return Err(err(n + 1, "route out of range for the scheme"));
            }
            routes.push(route);
        }
        if routes.len() != micros as usize {
            return Err(err(n + 1, "route count != micros"));
        }

        let mut programs: Vec<DeviceProgram> = Vec::new();
        for (n, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (dev, rest) = line
                .split_once(':')
                .ok_or_else(|| err(n + 1, "expected 'dK: <instrs>'"))?;
            let dev: u32 = dev
                .strip_prefix('d')
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err(n + 1, "bad device tag"))?;
            if dev as usize != programs.len() {
                return Err(err(n + 1, "device lines out of order"));
            }
            let mut prog = DeviceProgram::new(DeviceId(dev));
            for tok in rest.split_whitespace() {
                let instr =
                    parse_instr(tok).ok_or_else(|| err(n + 1, "unparseable instruction"))?;
                prog.push(instr);
            }
            programs.push(prog);
        }
        if programs.len() != devices as usize {
            return Err(err(
                text.lines().count() + 1,
                "wrong number of device lines",
            ));
        }
        Ok(Schedule::from_programs(topo, micros, routes, programs))
    }
}

#[test]
fn from_text_never_panics_on_byte_mutants() {
    // Every answer is pinned: the digest hashes the full `Debug` of each
    // result, the parsed schedule or the error with its line.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut parsed = 0;
    text_mutants(
        (4, 8),
        (TEXT_ALPHABET, TEXT_WIDE),
        0x7e57,
        500,
        |scheme, mutant| match catch_unwind(|| from_text(mutant)) {
            Ok(result) => {
                parsed += result.is_ok() as usize;
                fnv1a(&mut h, format!("{scheme:?}: {result:?}\n").as_bytes());
            }
            Err(_) => panic!("from_text panicked on {scheme:?} mutant:\n{mutant}"),
        },
    );
    // Some edits land in instruction tokens and still parse; validation,
    // not the parser, rejects those.
    assert!(parsed > 0);
    assert_eq!(
        h, 0xcea4_db2f_51ad_1e28,
        "byte-mutant from_text digest {h:#018x}"
    );
}

/// `from_text`'s answer at 1, 2, 3 and 5 parts: the same schedule, or
/// the same error on the same line.
fn every_split_agrees(scheme: SchemeKind, text: &str) {
    let want = from_text(text);
    for parts in [1, 2, 3, 5] {
        let got = from_text_in_parts(text, parts);
        assert!(
            got == want,
            "{scheme:?} at {parts} parts: {:?} vs {:?}\n{text}",
            got.as_ref().err(),
            want.as_ref().err()
        );
    }
}

#[test]
fn the_split_parser_answers_as_one_part_on_byte_mutants() {
    for scheme in SCHEMES {
        let text = to_text(&generate(ScheduleConfig::new(scheme, 8, 16)));
        every_split_agrees(scheme, &text);
        // Each device line's tag in turn, one too high: some split opens
        // a part on it, where only the merge sees the tag out of order.
        let lines: Vec<&str> = text.lines().collect();
        for k in 3..lines.len() {
            let mut bumped: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            bumped[k] = bumped[k].replacen(&format!("d{}:", k - 3), &format!("d{}:", k - 2), 1);
            let bumped = bumped.join("\n") + "\n";
            let e = from_text(&bumped).unwrap_err();
            assert_eq!(
                (e.line, e.what.as_str()),
                (k + 1, "device lines out of order")
            );
            every_split_agrees(scheme, &bumped);
        }
    }
    let mut mutants = 0;
    text_mutants(
        (8, 16),
        (TEXT_ALPHABET_FF, TEXT_WIDE_NEL),
        0x5917,
        63,
        |scheme, mutant| {
            every_split_agrees(scheme, mutant);
            mutants += 1;
        },
    );
    assert_eq!(mutants, SCHEMES.len() * 63);
}

#[test]
fn from_text_reads_edge_tokens_as_the_grammar_says() {
    let d2 = DeviceId(2);
    let tokens = [
        ("F+3^0", Some(Instr::forward(3u32, 0u32))),
        ("F03^0", Some(Instr::forward(3u32, 0u32))),
        ("F3^+0", Some(Instr::forward(3u32, 0u32))),
        ("F4294967295^0", Some(Instr::forward(u32::MAX, 0u32))),
        ("F4294967296^0", None),
        ("F++3^0", None),
        ("F-3^0", None),
        ("SA1^0>d+2", Some(Instr::send_act(1u32, 0u32, d2))),
        ("RG1^0<d02", Some(Instr::recv_grad(1u32, 0u32, d2))),
        ("SA1^0<d2", None),
        ("cB1^0", None),
        ("Bi1^0", Some(Instr::backward_input(1u32, 0u32))),
        ("B1^0^0", None),
        ("ARx", None),
    ];
    for (tok, want) in tokens {
        assert_eq!(parse_instr(tok), want, "{tok:?}");
    }

    let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 4));
    let text = to_text(&s);
    // Every separator Unicode calls white space splits tokens after the
    // version line; a line ending may carry a CR.
    let (version, body) = text.split_once('\n').expect("a version line");
    let spaced = |sep: &str| format!("{version}\n{}", body.replace(' ', sep));
    for (what, edited) in [
        ("CRLF", text.replace('\n', "\r\n")),
        ("tab", spaced("\t")),
        ("VT", spaced("\x0B")),
        ("FF", spaced("\x0C")),
        ("NEL", spaced("\u{85}")),
        ("line separator", spaced("\u{2028}")),
        ("NBSP", spaced("\u{A0}")),
        ("ideographic space", spaced("\u{3000}")),
        ("trailing CR", text.trim_end().to_string() + "\r"),
        ("NEL before LF", text.replace('\n', "\u{85}\n")),
        ("LS before LF", text.replace('\n', "\u{2028}\n")),
        (
            "a line of Unicode blanks",
            text.replacen("\nd1:", "\n\u{85}\u{2028}\u{A0}\u{3000}\nd1:", 1),
        ),
    ] {
        assert!(from_text(&edited) == Ok(s.clone()), "{what}");
        // `parse_instr` reads every instruction token as `from_text` did.
        let lines = edited.lines().skip(3).filter(|l| !l.trim().is_empty());
        for (line, p) in lines.zip(s.programs()) {
            let tokens: Vec<_> = line.split_whitespace().skip(1).map(parse_instr).collect();
            let want: Vec<_> = p.instrs().iter().copied().map(Some).collect();
            assert_eq!(tokens, want, "{what}: {line:?}");
        }
    }
    // A non-ASCII character that is no white space is no separator, also
    // where its lead byte is that of one (0xC2 of NEL, 0xE2 of U+2028):
    // glued to a token's last digit, or to a device tag's colon.
    let at = text
        .match_indices('\n')
        .nth(2)
        .expect("three header lines")
        .0;
    let (head, body) = text.split_at(at);
    for (glue, from, to, error) in [
        ("\u{e9}", " SA", "{}SA", "unparseable instruction"),
        ("\u{e9}", "^0 ", "^0{} ", "unparseable instruction"),
        ("\u{a1}", "^0 ", "^0{} ", "unparseable instruction"),
        ("\u{20ac}", "^0 ", "^0{} ", "unparseable instruction"),
        ("\u{a1}", ": ", ":{} ", "unparseable instruction"),
        ("\u{20ac}", ":", "{}:", "bad device tag"),
    ] {
        let glued = head.to_string() + &body.replacen(from, &to.replace("{}", glue), 1);
        assert_eq!(
            from_text(&glued).unwrap_err(),
            TextError {
                line: 4,
                what: error.into()
            },
            "{glue:?} in {to:?}"
        );
        let line = glued.lines().nth(3).expect("a first device line");
        let bad = line
            .split_whitespace()
            .find(|t| t.contains(glue))
            .expect("the glued token");
        assert_eq!(parse_instr(bad), None, "{bad:?}");
        assert_eq!(oracle::parse_instr(bad), None, "{bad:?}");
    }
    // Signs and leading zeros are read wherever a number is.
    let signed = text
        .replace("devices 4", "devices +4")
        .replace("d1:", "d+01:");
    assert!(from_text(&signed) == Ok(s));
    // A number past u32 is an error, not a wrap.
    let overflow = text.replace("micros 4", "micros 4294967300");
    assert_eq!(
        from_text(&overflow).unwrap_err(),
        TextError {
            line: 2,
            what: "bad micro count".into()
        }
    );
}

#[test]
#[ignore = "50 000 mutants parsed both ways; CI runs it in release"]
fn from_text_matches_the_oracle_on_byte_mutants_at_scale() {
    let (mut mutants, mut parsed) = (0, 0);
    let alphabet = (TEXT_ALPHABET_FF, TEXT_WIDE_NEL);
    text_mutants((8, 16), alphabet, 0x0dd5, 6250, |scheme, mutant| {
        let want = oracle::from_text(mutant);
        let got = from_text(mutant);
        // The text is small, so `from_text` reads it in one part.
        for (parts, got) in [
            (1, got.clone()),
            (2, from_text_in_parts(mutant, 2)),
            (3, from_text_in_parts(mutant, 3)),
        ] {
            assert!(
                got == want,
                "{scheme:?} mutant at {parts} parts: {:?} vs {:?}\n{mutant}",
                got.as_ref().err(),
                want.as_ref().err()
            );
        }
        for tok in mutant.split_whitespace() {
            assert_eq!(parse_instr(tok), oracle::parse_instr(tok), "{tok:?}");
        }
        mutants += 1;
        parsed += got.is_ok() as usize;
    });
    assert_eq!(mutants, SCHEMES.len() * 6250);
    assert!(parsed > 0);
}

/// The schedules whose text the writer differential compares: every
/// scheme's plain and checkpointed (passes 1–3) `devices`×`micros`
/// schedule, with and without an all-reduce, a split-backward one, and
/// a hand-built program at `u32::MAX`.
fn writer_cases(devices: u32, micros: u32) -> Vec<(String, Schedule)> {
    let mut out = Vec::new();
    for scheme in SCHEMES {
        let base = generate(ScheduleConfig::new(scheme, devices, micros));
        let mut tuned = base.clone();
        apply_checkpoint(&mut tuned);
        overlap_recompute(&mut tuned);
        remove_redundancy(&mut tuned);
        let reduced = generate(ScheduleConfig::new(scheme, devices, micros).allreduce(true));
        out.push((format!("{scheme:?}"), base));
        out.push((format!("{scheme:?} passes 1-3"), tuned));
        out.push((format!("{scheme:?} all-reduce"), reduced));
    }
    let mut split = generate(ScheduleConfig::new(SchemeKind::OneFOneB, devices, micros));
    apply_checkpoint(&mut split);
    split_backward(&mut split, SplitOptions::default());
    out.push(("split backward".into(), split));

    let max = u32::MAX;
    let peer = DeviceId(max);
    let topo = mario::ir::Topology::new(SchemeKind::Interleave { chunks: max }, 2);
    let mut edge = Schedule::empty(topo, 1, vec![0]);
    for i in [
        Instr::forward(max, max),
        Instr::ckpt_forward(max, max),
        Instr::backward(max, max),
        Instr::backward_input(max, max),
        Instr::backward_weight(max, max),
        Instr::recompute(max, max),
        Instr::send_act(max, max, peer),
        Instr::recv_act(max, max, peer),
        Instr::send_grad(max, max, peer),
        Instr::recv_grad(max, max, peer),
        Instr::all_reduce(),
        Instr::optimizer_step(),
        Instr::forward(0u32, 0u32),
    ] {
        edge.program_mut(DeviceId(1)).push(i);
    }
    out.push(("u32::MAX ids".into(), edge));
    out
}

/// `to_text` writes what the `Display`-based writer wrote, and
/// `from_text` reads it back to the same schedule.
fn writer_matches_the_oracle(devices: u32, micros: u32) {
    let cases = writer_cases(devices, micros);
    // The generated schedules hold every kind, checkpointed forwards too.
    let kinds: std::collections::HashSet<_> = cases
        .iter()
        .filter(|(what, _)| what != "u32::MAX ids")
        .flat_map(|(_, s)| s.programs().iter().flat_map(|p| p.instrs()))
        .map(|i| (i.kind.tag(), i.is_ckpt_forward()))
        .collect();
    assert_eq!(kinds.len(), 12, "{kinds:?}");
    for (what, s) in &cases {
        let got = to_text(s);
        assert!(got == oracle::to_text(s), "{what}: to_text moved a byte");
        assert!(from_text(&got).as_ref() == Ok(s), "{what}: no round trip");
        for (line, p) in got.lines().skip(3).zip(s.programs()) {
            assert_eq!(line, p.to_string(), "{what}: {}", p.device);
        }
    }
}

#[test]
fn to_text_matches_the_oracle_writer() {
    writer_matches_the_oracle(4, 8);
}

#[test]
#[ignore = "every case at 8x16 and 32x64; CI runs it in release"]
fn to_text_matches_the_oracle_writer_at_scale() {
    writer_matches_the_oracle(8, 16);
    writer_matches_the_oracle(32, 64);
}
