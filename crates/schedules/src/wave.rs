//! A Hanayo-style wave pipeline (Liu et al., SC'23): micro-batches traverse
//! the devices in alternating directions across `chunks` waves, so wave
//! boundaries stay on-device (no communication at the turn) and the bubble
//! shrinks like Chimera's without duplicating weights.
//!
//! Hanayo's action lists are not open source (paper §3.2), so — like the
//! paper, which re-expresses schemes in its own instruction lists — we
//! derive the order with the dependency-driven list scheduler under a
//! wave-friendly in-flight policy.

use crate::engine::{derive_schedule, EnginePolicy};
use mario_ir::{Schedule, SchemeKind, Topology};

/// Generates the compute-only wave schedule with `chunks` waves.
///
/// # Panics
/// If `chunks == 0`.
pub fn generate_compute(devices: u32, micros: u32, chunks: u32) -> Schedule {
    assert!(chunks > 0, "wave pipeline needs at least one wave");
    let topo = Topology::new(SchemeKind::Wave { chunks }, devices);
    derive_schedule(
        topo,
        micros,
        vec![0; micros as usize],
        &EnginePolicy::wave(devices),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{validate, DeviceId, InstrTag, MicroId, PartId};

    #[test]
    fn wave_is_valid_across_sizes() {
        for d in [2u32, 4, 8] {
            for n in [4u32, 8] {
                for c in [1u32, 2] {
                    let s = generate_compute(d, n, c);
                    validate(&s).unwrap_or_else(|e| panic!("D={d} N={n} c={c}: {e:?}"));
                }
            }
        }
    }

    #[test]
    fn wave_turns_stay_on_device() {
        // With 2 waves on 4 devices, stage 3 -> stage 4 both live on d3, so
        // no SA/RA crosses that boundary once comm is inserted.
        let s = generate_compute(4, 4, 2);
        let full = crate::builder::insert_comm(&s, crate::builder::CommOptions::default());
        let d3 = full.program(DeviceId(3));
        // d3 receives activations for its chunk-0 stage only (the chunk-1
        // input is produced locally).
        let recvs = d3.count(|i| {
            matches!(i.kind, mario_ir::InstrKind::RecvAct { .. }) && i.micro == MicroId(0)
        });
        assert_eq!(recvs, 1);
        validate(&full).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn every_micro_crosses_every_wave() {
        let s = generate_compute(4, 4, 2);
        for m in 0..4u32 {
            for d in 0..4u32 {
                for c in 0..2u32 {
                    assert!(
                        s.program(DeviceId(d))
                            .position_of(InstrTag::Forward, MicroId(m), PartId(c))
                            .is_some(),
                        "missing F{m}^{c} on d{d}"
                    );
                }
            }
        }
    }
}
