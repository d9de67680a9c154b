//! Byte-level pins of critical-path analysis and what-if re-timing.
//!
//! For every scheme `generate` supports, at 4×8 and 8×16, the DP
//! simulator records runs at channel capacities 1 and 2 (where the
//! schedule executes), over 1 and 2 iterations, with no checkpoint, a
//! flat write and a sharded synchronous flush. Each test hashes the full
//! `Debug` rendering of `analyze`'s `CritReport` on every recording,
//! followed by the `WhatIfResult` of straggler, windowed-slowdown,
//! link-delay (whole-link and `nth`-scoped) and `free_checkpoint`
//! queries, and compares the digest per scheme with one recorded from the
//! hashed, two-pass implementation of `critpath`. Any change to a slack,
//! a path segment, a link headroom or a re-timed clock changes a digest.
//!
//! The cost model gives wires, launches and checkpoint shards nonzero,
//! device-dependent costs, so wire segments, injected delays and
//! capacity acks all reach the pinned output.

use mario::core::critpath::{analyze, whatif, WhatIf};
use mario::core::simulator::{simulate, SimOptions};
use mario::ir::{
    min_channel_capacity, CheckpointPolicy, ComputeKind, CostModel, DeviceId, LinkSlack, PartId,
    PerturbationProfile, SchemeKind, ShardedWrite, SlowdownWindow, UnitCost,
};
use mario::schedules::{generate, ScheduleConfig};

/// 64-bit FNV-1a.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The unit grid with device-dependent compute, nonzero wire and launch
/// costs and a device-dependent checkpoint shard.
struct WireCost(UnitCost);

impl CostModel for WireCost {
    fn compute_time(&self, d: DeviceId, p: PartId, k: ComputeKind) -> u64 {
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
        9_000 + 1_700 * d.0 as u64
    }
}

/// Every scheme `generate` supports.
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

/// The what-if queries asked of every recording of a `devices`-wide run
/// over `iters` iterations: `(label, profile, free_checkpoint)`.
fn queries(devices: u32, iters: u32) -> Vec<(&'static str, PerturbationProfile, bool)> {
    let last = DeviceId(devices - 1);
    let identity = PerturbationProfile::identity();
    vec![
        ("identity", identity.clone(), false),
        (
            "straggler",
            identity.clone().with_straggler(DeviceId(devices / 2), 3.0),
            false,
        ),
        (
            "straggler-odd",
            identity.clone().with_straggler(last, 1.37),
            false,
        ),
        (
            "window",
            identity.clone().with_slowdown(SlowdownWindow {
                device: DeviceId(1),
                factor: 2.5,
                from_pc: 3,
                until_pc: 17,
                iteration: Some(iters - 1),
            }),
            false,
        ),
        (
            "link-nth",
            identity.clone().with_link_slack(LinkSlack {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: Some(2),
                extra_ns: 700,
                iteration: Some(0),
            }),
            false,
        ),
        (
            "link-all",
            identity.clone().with_link_slack(LinkSlack {
                src: last,
                dst: DeviceId(devices - 2),
                nth: None,
                extra_ns: 1_100,
                iteration: None,
            }),
            false,
        ),
        ("free-ckpt", identity.clone(), true),
        (
            "free-ckpt-straggler",
            identity.with_straggler(DeviceId(0), 2.0),
            true,
        ),
    ]
}

/// Digest of every recording of `scheme` at `devices × micros`: each
/// label, the `CritReport` and the what-if answers, in order. Also
/// returns the number of recordings.
fn scheme_digest(scheme: SchemeKind, devices: u32, micros: u32) -> (u64, usize) {
    let s = generate(ScheduleConfig::new(scheme, devices, micros));
    let cost = WireCost(UnitCost::paper_grid());
    let min_cap = min_channel_capacity(&s).expect("generated schedules execute");
    let identity = PerturbationProfile::identity();
    let checkpoints = [
        ("none", None),
        (
            "flat",
            Some(CheckpointPolicy::every(1).with_write_ns(4_000)),
        ),
        (
            "sharded",
            Some(CheckpointPolicy::every(1).with_sharded(ShardedWrite::new(2_000, 600))),
        ),
    ];
    let mut h = FNV_OFFSET;
    let mut recordings = 0;
    for cap in [1usize, 2].into_iter().filter(|&c| c >= min_cap) {
        for iters in [1u32, 2] {
            for (ck_label, checkpoint) in checkpoints {
                let opts = SimOptions {
                    channel_capacity: cap,
                    iterations: iters,
                    checkpoint,
                    profile: &identity,
                    ..SimOptions::default()
                };
                let t = simulate(&s, &cost, &opts).expect("recording completes");
                let label = format!("{scheme:?} {devices}x{micros} cap{cap} it{iters} {ck_label}");
                fnv1a(&mut h, label.as_bytes());
                fnv1a(&mut h, format!("{:?}", analyze(&s, &t.spans)).as_bytes());
                for (q, profile, free_checkpoint) in queries(devices, iters) {
                    let w = whatif(
                        &s,
                        &t.spans,
                        &WhatIf {
                            profile: &profile,
                            free_checkpoint,
                        },
                    );
                    fnv1a(&mut h, q.as_bytes());
                    fnv1a(&mut h, format!("{w:?}").as_bytes());
                }
                recordings += 1;
            }
        }
    }
    (h, recordings)
}

/// Compares every scheme's digest at `devices × micros` with `pins`,
/// reporting all computed digests on a mismatch.
fn check(devices: u32, micros: u32, pins: [u64; 8]) {
    let got: Vec<(u64, usize)> = SCHEMES
        .iter()
        .map(|&scheme| scheme_digest(scheme, devices, micros))
        .collect();
    for (&scheme, &(_, recordings)) in SCHEMES.iter().zip(&got) {
        assert!(recordings >= 6, "{scheme:?}: only {recordings} recordings");
    }
    let digests: Vec<u64> = got.iter().map(|&(h, _)| h).collect();
    assert_eq!(
        digests, pins,
        "critpath digests at {devices}x{micros} moved; computed {:#018x?}",
        digests
    );
}

#[test]
fn critpath_matches_the_pins_at_4x8() {
    check(
        4,
        8,
        [
            0xea5e_4980_213c_18b1,
            0xedb5_5d8d_8d06_47bf,
            0xe888_48d6_8edf_8771,
            0x8529_1f52_07aa_fe02,
            0x201c_f9f3_3252_0fcc,
            0x68b4_dd62_ebf4_6974,
            0x684f_d0e7_f3ac_2adc,
            0x8bb7_9560_65b3_e8c9,
        ],
    );
}

#[test]
fn critpath_matches_the_pins_at_8x16() {
    check(
        8,
        16,
        [
            0x964c_b384_e86f_ed6b,
            0x5c03_2b44_f50e_3672,
            0xc6c8_70f4_a415_1ad8,
            0xf76a_8491_a524_da9b,
            0x5531_83d1_3b16_adc5,
            0xd815_17ac_89da_e455,
            0xb45d_bd4e_8552_be69,
            0x5d3c_c2c7_d09f_0b81,
        ],
    );
}
