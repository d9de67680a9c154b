//! Generator-level properties: instruction counts, warmup structure,
//! memory profiles and makespans across the whole (scheme, D, N) space.

use mario_ir::{
    DeviceId, Instr, InstrKind, InstrTag, MicroId, PartId, Schedule, SchemeKind, Topology,
};
use mario_schedules::{generate, generate_compute, unit_makespan, ScheduleConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 1F1B makespan closed form holds for all sizes with N >= D.
    #[test]
    fn one_f_one_b_makespan_closed_form(d in 1u32..10, extra in 0u32..12) {
        let n = d + extra;
        let s = generate_compute(SchemeKind::OneFOneB, d, n);
        prop_assert_eq!(unit_makespan(&s), ((d - 1) * 3 + n * 3) as u64);
    }

    /// Every device sees each of its micro-batches exactly once per
    /// direction (forward and backward counts match the route structure).
    #[test]
    fn compute_counts_match_routes(
        d in 2u32..6,
        k in 1u32..4,
        chunks in 1u32..4,
    ) {
        for scheme in [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks },
            SchemeKind::Wave { chunks },
        ] {
            let d = if matches!(scheme, SchemeKind::Chimera) && d % 2 == 1 {
                d + 1
            } else {
                d
            };
            let n = k * d * 2; // satisfies every scheme's divisibility rule
            let s = generate_compute(scheme, d, n);
            prop_assert_eq!(
                s.count_tag(InstrTag::Forward),
                s.expected_forward_count(),
                "{:?} D={} N={}",
                scheme,
                d,
                n
            );
            prop_assert_eq!(
                s.count_tag(InstrTag::Backward),
                s.expected_forward_count()
            );
        }
    }

    /// 1F1B warmup depth: device d starts with exactly min(D-1-d, N)
    /// forwards before its first backward.
    #[test]
    fn one_f_one_b_warmup_depth(d in 2u32..8, n in 1u32..20) {
        let s = generate_compute(SchemeKind::OneFOneB, d, n);
        for dev in 0..d {
            let prog = s.program(DeviceId(dev));
            let first_bw = prog
                .position(|i| i.kind.tag() == InstrTag::Backward)
                .unwrap();
            let warmup = prog.instrs()[..first_bw]
                .iter()
                .filter(|i| i.kind.is_compute())
                .count() as u32;
            // One forward beyond warmup belongs to the first 1F1B pair.
            let expect = (d - 1 - dev).min(n);
            let expect = if n > expect { expect + 1 } else { expect };
            prop_assert_eq!(warmup, expect, "device {} of D={} N={}", dev, d, n);
        }
    }

    /// Chimera splits micro-batches evenly across the two directions.
    #[test]
    fn chimera_balances_directions(dh in 1u32..4, nh in 1u32..6) {
        let d = 2 * dh;
        let n = 2 * nh;
        let s = generate_compute(SchemeKind::Chimera, d, n);
        let down = s.routes.iter().filter(|&&r| r == 0).count();
        let up = s.routes.iter().filter(|&&r| r == 1).count();
        prop_assert_eq!(down, up);
        // Each direction's head device hosts that direction's first
        // forward.
        prop_assert!(s
            .program(DeviceId(0))
            .position_of(InstrTag::Forward, MicroId(0), PartId(0))
            .is_some());
        prop_assert!(s
            .program(DeviceId(d - 1))
            .position_of(InstrTag::Forward, MicroId(1), PartId(1))
            .is_some());
    }

    /// Comm insertion emits exactly one SA per device-crossing forward hop
    /// and one SG per crossing backward hop.
    #[test]
    fn comm_counts_match_crossings(d in 2u32..6, k in 1u32..3) {
        let n = 2 * k * d;
        for scheme in [SchemeKind::OneFOneB, SchemeKind::Interleave { chunks: 2 }] {
            let s = generate(ScheduleConfig::new(scheme, d, n));
            let mut crossings = 0usize;
            for m in 0..n {
                let path = s.forward_path_of(MicroId(m));
                crossings += path
                    .windows(2)
                    .filter(|w| w[0].0 != w[1].0)
                    .count();
            }
            prop_assert_eq!(s.count_tag(InstrTag::SendAct), crossings, "{:?}", scheme);
            prop_assert_eq!(s.count_tag(InstrTag::RecvAct), crossings);
            prop_assert_eq!(s.count_tag(InstrTag::SendGrad), crossings);
            prop_assert_eq!(s.count_tag(InstrTag::RecvGrad), crossings);
        }
    }

    /// GPipe memory dominates 1F1B memory on every device.
    #[test]
    fn gpipe_memory_dominates_1f1b(d in 2u32..8, n in 2u32..16) {
        let g = generate_compute(SchemeKind::GPipe, d, n);
        let v = generate_compute(SchemeKind::OneFOneB, d, n);
        let gp = g.peak_on_the_fly_per_device(true);
        let vp = v.peak_on_the_fly_per_device(true);
        for dev in 0..d as usize {
            prop_assert!(gp[dev] >= vp[dev]);
        }
    }
}

/// Every scheme `generate` supports, at sizes each one accepts.
fn every_generated_schedule() -> Vec<Schedule> {
    let mut out = Vec::new();
    for (d, n) in [(2u32, 4u32), (4, 8), (4, 16), (8, 16)] {
        for scheme in [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
            SchemeKind::Interleave { chunks: 3 },
            SchemeKind::Wave { chunks: 2 },
            SchemeKind::ForwardOnly,
            SchemeKind::ZeroBubbleH1,
            SchemeKind::ZeroBubbleV,
        ] {
            out.push(generate(ScheduleConfig::new(scheme, d, n)));
        }
    }
    out
}

/// The part of the stage an instruction runs for on `dev`. A message is
/// tagged with its producer's part, so a receive runs for the hop after
/// (activations) or before (gradients) its sender's; `None` when the
/// sender's stage has no such hop on `dev`.
fn local_part(topo: &Topology, dev: DeviceId, i: &Instr) -> Option<PartId> {
    let hop = match i.kind {
        InstrKind::RecvAct { peer } => topo.next_hop(peer, i.part),
        InstrKind::RecvGrad { peer } => topo.prev_hop(peer, i.part),
        _ => return Some(i.part),
    };
    hop.filter(|&(d, _)| d == dev).map(|(_, p)| p)
}

/// Asserts that no instruction of any generated schedule has a tag in
/// `banned` on a device holding the first (or, when `first` is false, the
/// last) stage of the part it runs for.
fn check_stage_comm(first: bool, banned: [InstrTag; 2]) {
    for s in every_generated_schedule() {
        let topo = &s.topology;
        for prog in s.programs() {
            let dev = prog.device;
            for (pc, i) in prog.iter() {
                let what = format!(
                    "{:?} {}x{}: {dev}#{pc} {i}",
                    topo.scheme, topo.devices, s.micros
                );
                let part =
                    local_part(topo, dev, i).unwrap_or_else(|| panic!("{what}: no such hop"));
                let at_end = if first {
                    topo.is_first_stage(dev, part)
                } else {
                    topo.is_last_stage(dev, part)
                };
                assert!(
                    !(at_end && banned.contains(&i.kind.tag())),
                    "{what} on an end stage"
                );
            }
        }
    }
}

/// A first stage has no upstream: it never receives an activation or
/// sends a gradient for that part.
#[test]
fn first_stage_never_receives_activations_or_sends_gradients() {
    check_stage_comm(true, [InstrTag::RecvAct, InstrTag::SendGrad]);
}

/// A last stage has no downstream: it never sends an activation or
/// receives a gradient for that part.
#[test]
fn last_stage_never_sends_activations_or_receives_gradients() {
    check_stage_comm(false, [InstrTag::SendAct, InstrTag::RecvGrad]);
}
