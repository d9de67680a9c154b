//! Byte-level pins of critical-path analysis and what-if re-timing.
//!
//! For every scheme `generate` supports, at 4×8 and 8×16, the DP
//! simulator records runs at channel capacities 1 and 2 (where the
//! schedule executes), over 1 and 2 iterations, with no checkpoint, a
//! flat write and a sharded synchronous flush. Each test hashes the full
//! `Debug` rendering of `analyze`'s `CritReport` on every recording,
//! followed by the `WhatIfResult` of straggler, windowed-slowdown,
//! link-delay (whole-link and `nth`-scoped) and `free_checkpoint`
//! queries, and compares the digest per scheme with a pinned one. The
//! `CritReport` part was recorded from the hashed, two-pass
//! implementation of `critpath`; the what-if part since slowdowns stopped
//! scaling all-reduce and optimizer spans. Any change to a slack, a path
//! segment, a link headroom or a re-timed clock changes a digest, and
//! every what-if answer must also equal the device clocks of a fresh
//! simulation under its counterfactual, so a pin can only move towards
//! the ground truth.
//!
//! The cost model gives wires, launches, all-reduce, the optimizer step
//! and checkpoint shards nonzero, mostly device-dependent costs, so wire
//! segments, injected delays, capacity acks and unscaled collectives all
//! reach the pinned output.

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
                let truth = |profile: &PerturbationProfile, free_checkpoint: bool| {
                    let checkpoint = if free_checkpoint { None } else { checkpoint };
                    let opts = SimOptions {
                        channel_capacity: cap,
                        iterations: iters,
                        checkpoint,
                        profile,
                        ..SimOptions::default()
                    };
                    simulate(&s, &cost, &opts).expect("ground truth completes")
                };
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
                    assert_eq!(
                        w.device_clocks,
                        truth(&profile, free_checkpoint).device_clocks,
                        "{label} {q}: what-if disagrees with a fresh simulation"
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
            0x1d43_22c9_4d9b_64f8,
            0x8f17_9c37_de46_601b,
            0xbdc4_72d9_b6e2_c15f,
            0x2bfa_22da_b46b_0bf6,
            0xbc48_4c78_b71b_e670,
            0x68b4_dd62_ebf4_6974,
            0x5a3e_af3c_c126_4e78,
            0x78f9_14be_b0b9_f02f,
        ],
    );
}

#[test]
fn critpath_matches_the_pins_at_8x16() {
    check(
        8,
        16,
        [
            0xd4fe_9e2e_49fb_9bd8,
            0x52b8_6220_4247_181a,
            0xb746_b1a0_9d81_8d7e,
            0x2a3d_dcf6_2229_c23d,
            0xf38f_9329_82aa_902d,
            0xd815_17ac_89da_e455,
            0x8e4d_5a41_2289_e90b,
            0x3cfd_eab9_9d7f_aa3f,
        ],
    );
}
