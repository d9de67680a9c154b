//! The interleaved 1F1B schedule ("W" shape; Megatron-LM virtual pipeline,
//! Narayanan et al., SC'21): each device holds `v` model chunks and
//! micro-batches wrap around the device ring `v` times, shrinking the bubble
//! by `v` at the cost of extra activation memory
//! (Table 1: `[(D+1), (3D-2)] × M_θ/2` for `v = 2`).
//!
//! The ordering below follows Megatron's `get_model_chunk_id` /
//! warmup-count logic: micro-batches advance in groups of `D` per chunk,
//! the warmup length of device `d` is `(D-d-1)·2 + (v-1)·D`, and the steady
//! phase alternates one forward with one backward.

use mario_ir::{DeviceId, Instr, Schedule, SchemeKind, Topology};

/// Maps the `k`-th forward slot of a device to `(micro, chunk)`.
fn forward_slot(k: u32, devices: u32, chunks: u32) -> (u32, u32) {
    let group = k / (devices * chunks);
    let in_group = k % (devices * chunks);
    let chunk = in_group / devices;
    let micro = group * devices + in_group % devices;
    (micro, chunk)
}

/// Maps the `k`-th backward slot of a device to `(micro, chunk)`.
fn backward_slot(k: u32, devices: u32, chunks: u32) -> (u32, u32) {
    let group = k / (devices * chunks);
    let in_group = k % (devices * chunks);
    let chunk = chunks - 1 - in_group / devices;
    let micro = group * devices + in_group % devices;
    (micro, chunk)
}

/// Generates the compute-only interleaved schedule. `micros` must be a
/// multiple of `devices` (Megatron's requirement) and `chunks` at least 1
/// ([`crate::ScheduleConfig::check`]).
pub fn generate_compute(devices: u32, micros: u32, chunks: u32) -> Schedule {
    let topo = Topology::new(SchemeKind::Interleave { chunks }, devices);
    let mut s = Schedule::empty(topo, micros, vec![0; micros as usize]);
    let total = micros * chunks;
    for d in 0..devices {
        let prog = s.program_mut(DeviceId(d));
        let warmup = ((devices - d - 1) * 2 + (chunks - 1) * devices).min(total);
        for k in 0..warmup {
            let (m, c) = forward_slot(k, devices, chunks);
            prog.push(Instr::forward(m, c));
        }
        for i in 0..(total - warmup) {
            let (fm, fc) = forward_slot(warmup + i, devices, chunks);
            prog.push(Instr::forward(fm, fc));
            let (bm, bc) = backward_slot(i, devices, chunks);
            prog.push(Instr::backward(bm, bc));
        }
        for i in (total - warmup)..total {
            let (bm, bc) = backward_slot(i, devices, chunks);
            prog.push(Instr::backward(bm, bc));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::validate;

    #[test]
    fn slot_maps_cycle_through_chunks_in_groups_of_d() {
        // D = 4, v = 2: forwards go m0..m3 chunk0, m0..m3 chunk1, m4..m7
        // chunk0, ...
        let seq: Vec<(u32, u32)> = (0..16).map(|k| forward_slot(k, 4, 2)).collect();
        assert_eq!(&seq[0..4], &[(0, 0), (1, 0), (2, 0), (3, 0)]);
        assert_eq!(&seq[4..8], &[(0, 1), (1, 1), (2, 1), (3, 1)]);
        assert_eq!(&seq[8..12], &[(4, 0), (5, 0), (6, 0), (7, 0)]);
        // Backwards retire chunks in reverse order.
        assert_eq!(backward_slot(0, 4, 2), (0, 1));
        assert_eq!(backward_slot(4, 4, 2), (0, 0));
    }

    #[test]
    fn interleave_is_valid_across_sizes() {
        for (d, v) in [(2u32, 2u32), (4, 2), (4, 3), (8, 2)] {
            for n in [d, 2 * d, 4 * d] {
                let s = generate_compute(d, n, v);
                validate(&s).unwrap_or_else(|e| panic!("D={d} N={n} v={v}: {e:?}"));
            }
        }
    }

    #[test]
    fn single_chunk_interleave_is_valid_and_memory_bounded() {
        // Megatron's interleaved scheduler keeps a 2x-longer warmup than
        // plain 1F1B even for v = 1 (its warmup formula is
        // (D-d-1)*2 + (v-1)*D), so the order is not identical to 1F1B —
        // but it must still be valid and its memory bounded by 2D.
        let w = generate_compute(4, 8, 1);
        validate(&w).unwrap_or_else(|e| panic!("{e:?}"));
        let peaks = w.peak_on_the_fly_per_device(true);
        assert!(peaks.iter().all(|&p| p <= 8), "peaks {peaks:?}");
    }

    #[test]
    fn memory_exceeds_1f1b_per_stage() {
        // Interleave trades memory for bubble: device 0's on-the-fly count
        // (in units of a *full* micro-batch across both its chunks) exceeds
        // the 1F1B bound D.
        let d = 4u32;
        let w = generate_compute(d, 8, 2);
        let peaks = w.peak_on_the_fly_per_device(true);
        assert!(
            peaks[0] > d as usize,
            "expected > {d} on-the-fly chunk-activations, got {}",
            peaks[0]
        );
    }

    #[test]
    #[should_panic(expected = "multiple of devices")]
    fn rejects_non_multiple_micros() {
        let _ = crate::generate_compute(SchemeKind::Interleave { chunks: 2 }, 4, 6);
    }
}
