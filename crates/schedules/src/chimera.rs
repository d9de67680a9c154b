//! The Chimera schedule ("X" shape; Li & Hoefler, SC'21): two pipelines run
//! simultaneously in opposite directions — the *down* pipeline (part 0)
//! places stage `s` on device `s`, the *up* pipeline (part 1) mirrors it —
//! so each direction's bubbles are filled by the other direction's compute.
//! Each direction carries half the micro-batches and each device holds one
//! weight replica per direction (Table 1: `2 × M_w`).
//!
//! The per-device instruction order is *derived* with the dependency-driven
//! list scheduler ([`crate::engine`]) under the Chimera injection policy
//! (each head device keeps at most `D/2` of its direction's micro-batches
//! in flight), which reproduces the bidirectional 1F1B shape for any even
//! `D` and any even `N` without transcribing per-size tables.

use crate::engine::{derive_schedule, EnginePolicy};
use mario_ir::{Schedule, SchemeKind, Topology};

/// Route assignment: even micro-batches take the down pipeline, odd ones
/// the up pipeline.
pub fn routes(micros: u32) -> Vec<u32> {
    (0..micros).map(|m| m % 2).collect()
}

/// Generates the compute-only Chimera schedule. `devices` and `micros`
/// must both be even ([`crate::ScheduleConfig::check`]): each direction
/// needs an equal share.
pub fn generate_compute(devices: u32, micros: u32) -> Schedule {
    let topo = Topology::new(SchemeKind::Chimera, devices);
    derive_schedule(topo, micros, routes(micros), &EnginePolicy::chimera(devices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::unit_makespan;
    use mario_ir::{validate, DeviceId, InstrTag, MicroId, PartId};

    #[test]
    fn chimera_is_valid_across_sizes() {
        for d in [2u32, 4, 6, 8] {
            for n in [d, 2 * d] {
                let s = generate_compute(d, n);
                validate(&s).unwrap_or_else(|e| panic!("D={d} N={n}: {e:?}"));
            }
        }
    }

    #[test]
    fn both_directions_present_on_every_device() {
        let s = generate_compute(4, 8);
        for d in 0..4u32 {
            let p = s.program(DeviceId(d));
            assert!(p.count(|i| i.part == PartId(0) && i.kind.is_compute()) > 0);
            assert!(p.count(|i| i.part == PartId(1) && i.kind.is_compute()) > 0);
        }
    }

    #[test]
    fn down_micros_start_on_device_zero_up_on_last() {
        let s = generate_compute(4, 4);
        // Micro 0 (down): forward on device 0 comes before device 3.
        assert!(s.program(DeviceId(0)).position_of(InstrTag::Forward, MicroId(0), PartId(0)).is_some());
        // Micro 1 (up): forward happens on part 1, starting at device 3.
        assert!(s.program(DeviceId(3)).position_of(InstrTag::Forward, MicroId(1), PartId(1)).is_some());
        assert!(s.program(DeviceId(0)).position_of(InstrTag::Forward, MicroId(1), PartId(1)).is_some());
    }

    #[test]
    fn bidirectional_overlap_beats_unidirectional_bubble() {
        // Chimera's whole point: for N = D the makespan beats 1F1B's.
        let d = 8u32;
        let n = d;
        let x = unit_makespan(&generate_compute(d, n));
        let v = unit_makespan(&crate::one_f_one_b::generate_compute(d, n));
        assert!(
            x < v,
            "Chimera ({x}) should beat 1F1B ({v}) at N = D = {d}"
        );
    }

    #[test]
    fn peak_memory_within_table1_bounds() {
        let d = 8u32;
        let s = generate_compute(d, d);
        for (dev, &peak) in s.peak_on_the_fly_per_device(true).iter().enumerate() {
            assert!(
                peak as u32 <= d,
                "device {dev}: {peak} exceeds Table 1 upper bound D={d}"
            );
            assert!(peak as u32 >= d / 2, "device {dev}: {peak} below D/2");
        }
    }

    #[test]
    #[should_panic(expected = "even micro-batch")]
    fn rejects_odd_micros() {
        let _ = crate::generate_compute(SchemeKind::Chimera, 4, 5);
    }
}
