//! Byte-level pins of the list scheduler, `engine::derive_schedule`.
//!
//! Each policy test hashes the schedule text `to_text` renders for one
//! policy over D ∈ {2, 4, 6, 8, 16} and every even N in 2..=64, and
//! compares the digest with one recorded from the scan-every-ready-item
//! engine. `tuner_sizes_are_pinned` hashes Chimera at D ∈ {24, 32} and
//! the two-chunk wave at D = 32 over every even N in 4..=128, the sizes
//! a 32-GPU tuner grid derives, with digests recorded from the heap
//! engine that scanned the `D` heap tops per pick. The time-stepped
//! engine keeps all of them. Any change to the order the engine fires
//! items in changes a digest.
//! `tests/pass_pins.rs` of the root package sees only the post-pass text
//! at a few sizes; these pins see the engine's own output.

use mario_ir::{to_text, SchemeKind, Topology};
use mario_schedules::{derive_schedule, EnginePolicy};

/// 64-bit FNV-1a.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of `derive_schedule` over the grid, one `(D, N)` point at a
/// time: the point's label, then its schedule text.
fn digest(
    scheme: SchemeKind,
    routes: impl Fn(u32) -> Vec<u32>,
    policy: impl Fn(u32) -> EnginePolicy,
    extra: &[(u32, u32)],
) -> u64 {
    let grid = [2u32, 4, 6, 8, 16]
        .into_iter()
        .flat_map(|d| (2..=64).step_by(2).map(move |n| (d, n)));
    digest_over(scheme, routes, policy, grid.chain(extra.iter().copied()))
}

/// Digest of `derive_schedule` over the given `(D, N)` points.
fn digest_over(
    scheme: SchemeKind,
    routes: impl Fn(u32) -> Vec<u32>,
    policy: impl Fn(u32) -> EnginePolicy,
    points: impl Iterator<Item = (u32, u32)>,
) -> u64 {
    let mut h = FNV_OFFSET;
    for (d, n) in points {
        let s = derive_schedule(Topology::new(scheme, d), n, routes(n), &policy(d));
        fnv1a(&mut h, format!("{scheme:?} {d}x{n}\n").as_bytes());
        fnv1a(&mut h, to_text(&s).as_bytes());
    }
    h
}

fn single_route(n: u32) -> Vec<u32> {
    vec![0; n as usize]
}

#[test]
fn unlimited_policy_is_pinned() {
    let h = digest(
        SchemeKind::GPipe,
        single_route,
        |d| EnginePolicy::unlimited(d, 1),
        &[],
    );
    assert_eq!(h, 0x42a0_e937_5062_2beb, "unlimited digest {h:#018x}");
}

#[test]
fn one_f_one_b_policy_is_pinned() {
    let h = digest(
        SchemeKind::OneFOneB,
        single_route,
        EnginePolicy::one_f_one_b,
        &[],
    );
    assert_eq!(h, 0xdc26_1e9a_1624_b775, "1F1B digest {h:#018x}");
    // Interleave routes cross every device twice: only the first arrival
    // is gated.
    let h = digest(
        SchemeKind::Interleave { chunks: 2 },
        single_route,
        EnginePolicy::one_f_one_b,
        &[],
    );
    assert_eq!(
        h, 0xa5e9_6145_98eb_66b3,
        "Interleave under 1F1B digest {h:#018x}"
    );
}

#[test]
fn chimera_policy_is_pinned() {
    let h = digest(
        SchemeKind::Chimera,
        mario_schedules::chimera::routes,
        EnginePolicy::chimera,
        &[(64, 512)],
    );
    assert_eq!(h, 0x2281_9c62_1560_7002, "Chimera digest {h:#018x}");
}

#[test]
fn wave_policy_is_pinned() {
    let h = digest(
        SchemeKind::Wave { chunks: 2 },
        single_route,
        EnginePolicy::wave,
        &[],
    );
    assert_eq!(h, 0xdbff_960f_41c9_1ef1, "wave digest {h:#018x}");
}

#[test]
fn tuner_sizes_are_pinned() {
    // The sizes a 32-GPU tuner grid generates: every even N in 4..=128 at
    // D = 24 and 32 for Chimera, and at D = 32 for a two-chunk wave.
    let sizes = |ds: &'static [u32]| {
        ds.iter()
            .flat_map(|&d| (4..=128).step_by(2).map(move |n| (d, n)))
    };
    let h = digest_over(
        SchemeKind::Chimera,
        mario_schedules::chimera::routes,
        EnginePolicy::chimera,
        sizes(&[24, 32]),
    );
    assert_eq!(
        h, 0xf5c9_3631_27fc_1861,
        "Chimera tuner-size digest {h:#018x}"
    );
    let h = digest_over(
        SchemeKind::Wave { chunks: 2 },
        single_route,
        EnginePolicy::wave,
        sizes(&[32]),
    );
    assert_eq!(h, 0xa508_bccb_cb11_3c6c, "wave tuner-size digest {h:#018x}");
}
