//! Hostile inputs: a small deterministic mutator breaks one instruction
//! of a valid schedule at a time.
//!
//! `validate` is pinned by hashing the full `Debug` rendering of every
//! result `validate_with` returns, error order included. The digest was
//! recorded from the scan-per-query implementation of `validate`, so an
//! indexed one must report exactly the same errors in exactly the same
//! order — and must not panic on out-of-range micro or part ids.
//!
//! The same mutants run through both emulator backends, which must not
//! panic and must fail the same way, and through every engine that
//! shares `mario_ir::link`'s ack-window rule, which must agree with the
//! deadlock check on accept versus reject.
//!
//! Hostile schedule *text* must parse to a schedule or a `TextError`,
//! never a panic: headers that would break a constructor's assertions are
//! pinned case by case, and byte-level mutants of generated text are
//! fuzzed with a fixed seed.

use mario::cluster::{run, EmuError, EmulatorBackend, EmulatorConfig};
use mario::core::passes::{apply_checkpoint, overlap_recompute, remove_redundancy};
use mario::core::simulator::simulate_timeline;
use mario::core::tuner::scheme_channel_capacity;
use mario::ir::{
    check_executable, from_text, to_text, validate_with, DeviceId, InstrKind, MicroId, PartId,
    Schedule, SchemeKind, UnitCost, ValidateOptions, ValidationError,
};
use mario::schedules::{generate, ScheduleConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

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
        h, 0x00e1_93a1_cc82_9942,
        "mutated-validate digest {h:#018x}"
    );
}

#[test]
fn both_backends_fail_mutated_schedules_the_same_way() {
    let cost = UnitCost::paper_grid();
    let mut failed = 0;
    for Mutant {
        scheme,
        edit,
        schedule: s,
        ..
    } in mutants(1)
    {
        let thread = EmulatorConfig {
            channel_capacity: scheme_channel_capacity(scheme),
            iterations: 2,
            watchdog: Duration::from_millis(300),
            ..Default::default()
        };
        let event = EmulatorConfig {
            backend: EmulatorBackend::Event,
            ..thread
        };
        let [th, ev] = [thread, event].map(|cfg| {
            catch_unwind(AssertUnwindSafe(|| run(&s, &cost, cfg)))
                .unwrap_or_else(|_| panic!("{scheme:?} {edit}: {:?} panicked", cfg.backend))
        });
        match (&th, &ev) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.device_clocks, b.device_clocks, "{scheme:?} {edit}")
            }
            (Err(a), Err(b)) => {
                failed += 1;
                assert!(
                    !matches!(a, EmuError::WorkerPanicked { .. }),
                    "{scheme:?} {edit}: {a}"
                );
                assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{scheme:?} {edit}: thread {a} vs event {b}"
                );
                // Which devices time out first is the thread backend's
                // real-time race, so deadlock reports only have to agree
                // on their kind.
                if !matches!(a, EmuError::DeadlockSuspected { .. }) {
                    assert_eq!(a, b, "{scheme:?} {edit}");
                }
            }
            _ => panic!("{scheme:?} {edit}: thread {th:?} vs event {ev:?}"),
        }
    }
    // Most corruptions break execution too, not just validation.
    assert!(
        failed >= SCHEMES.len() * 2 * MUTATIONS.len() / 2,
        "{failed} failed"
    );
}

#[test]
fn every_link_engine_agrees_with_the_deadlock_check() {
    // Mutants that pass every structural check, so only the link rule can
    // reject them: `validate` accepts them or reports a single
    // `NotExecutable`. The deadlock check, the DP simulator and a
    // zero-jitter event-backend run must then accept or reject together.
    let cost = UnitCost::paper_grid();
    let mut qualified = 0;
    let mut rejected = 0;
    for Mutant {
        scheme,
        round,
        edit,
        schedule: s,
    } in mutants(4)
    {
        if let Err(errors) = validate_with(&s, opts(scheme)) {
            if !matches!(errors[..], [ValidationError::NotExecutable(_)]) {
                continue;
            }
        }
        qualified += 1;
        let cap = scheme_channel_capacity(scheme);
        let exec = check_executable(&s, cap);
        let sim = simulate_timeline(&s, &cost, cap);
        let event = EmulatorConfig {
            channel_capacity: cap,
            backend: EmulatorBackend::Event,
            ..Default::default()
        };
        let emu = run(&s, &cost, event);
        rejected += exec.is_err() as usize;
        assert_eq!(
            (sim.is_ok(), emu.is_ok()),
            (exec.is_ok(), exec.is_ok()),
            "{scheme:?} {round} {edit}: exec {exec:?}, sim {sim:?}, event {emu:?}"
        );
    }
    assert_eq!(qualified, 50, "{rejected} of {qualified} rejected");
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
fn from_text_never_panics_on_byte_mutants() {
    // 1–3 byte edits (replace, insert or delete) of the 4x8 text of each
    // scheme, drawn from the characters the format uses.
    const ALPHABET: &[u8] = b"0123456789 \n:^<>dFBRSAGXVWHZcirw";
    let mut rng = Rng(0x7e57);
    let mut parsed = 0;
    for scheme in SCHEMES {
        let text = to_text(&generate(ScheduleConfig::new(scheme, 4, 8)));
        for _ in 0..500 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                let b = ALPHABET[rng.below(ALPHABET.len())];
                match rng.below(3) {
                    0 => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ => {
                        bytes.remove(at);
                    }
                }
            }
            let mutant = String::from_utf8(bytes).expect("ASCII edits of ASCII text");
            match catch_unwind(|| from_text(&mutant)) {
                Ok(result) => parsed += result.is_ok() as usize,
                Err(_) => panic!("from_text panicked on {scheme:?} mutant:\n{mutant}"),
            }
        }
    }
    // Some edits land in instruction tokens and still parse; validation,
    // not the parser, rejects those.
    assert!(parsed > 0);
}
