//! Pass 5 (extension) — *split-backward*, the paper's stated future work
//! (§8: "Mario can further adopt the split backward parts of ZB-H1 to
//! overlap remaining bubbles").
//!
//! Following Zero Bubble (Qi et al., ICLR'24), each backward is split into
//! its **input-gradient** half `Bi` (on the critical path: the upstream
//! stage waits for it) and its **weight-gradient** half `Bw` (off the
//! critical path: only the optimizer step consumes it). `Bi` stays where
//! the backward was — and the `SG` that ships the input gradient now fires
//! half a backward earlier — while `Bw` is *deferred* into the next
//! communication-wait slot (just before the following `RG`/`RA`) or, for
//! the tail micro-batches, to the end of the iteration, where the cooldown
//! bubbles absorb it.
//!
//! Memory note: the stage's activations stay live until `Bw` (the weight
//! GEMM reads them), so deferral trades a bounded amount of extra live
//! activation for bubble reduction — exactly ZB-H1's trade.

use mario_ir::{DeviceId, Instr, InstrKind, Schedule};

/// How far a deferred `Bw` may float.
#[derive(Debug, Clone, Copy)]
pub struct SplitOptions {
    /// Maximum number of weight-halves deferred per device; halves beyond
    /// the cap are placed directly after their input half (bounds the
    /// total wgrad stashes held across the iteration).
    pub max_deferred: usize,
}

impl Default for SplitOptions {
    fn default() -> Self {
        Self { max_deferred: 4 }
    }
}

/// Splits every full backward into `Bi` + deferred `Bw`. Returns the number
/// of backwards split. Idempotent (already-split pairs are left alone).
pub fn split_backward(schedule: &mut Schedule, opts: SplitOptions) -> usize {
    let mut split = 0;
    for d in 0..schedule.devices() {
        let prog = schedule.program_mut(DeviceId(d));
        let pairs: Vec<_> = prog
            .instrs()
            .iter()
            .filter(|i| i.kind == InstrKind::Backward)
            .map(|i| (i.micro, i.part))
            .collect();
        let mut deferred = 0usize;
        for (m, p) in pairs {
            let b = prog.backward_pos(m, p).expect("collected above");
            prog.replace_kind(b, InstrKind::BackwardInput);
            // Find the insertion slot for Bw: just before the next receive
            // after the (possibly present) SG that follows Bi — the device
            // would idle there waiting for a message anyway. Past
            // `max_deferred`, fall back to right after Bi (degenerate but
            // memory-safe).
            let mut slot = b + 1;
            // Skip the sends attached to Bi (SG of this micro).
            while slot < prog.len() && prog.instrs()[slot].kind.is_send() {
                slot += 1;
            }
            if deferred < opts.max_deferred {
                let mut probe = slot;
                while probe < prog.len() {
                    let instr = &prog.instrs()[probe];
                    let k = &instr.kind;
                    if k.is_recv() {
                        // Only a receive of the *same* part is a legal wait
                        // slot: floating past another chunk's receive would
                        // reorder `Bw` against that part's per-(pair, class,
                        // part) FIFO traffic on interleaved/bidirectional
                        // schedules. A different-part receive ends the float
                        // window — fall back to right after `Bi`.
                        if instr.part == p {
                            slot = probe;
                            deferred += 1;
                        }
                        break;
                    }
                    if matches!(k, InstrKind::AllReduce | InstrKind::OptimizerStep) {
                        slot = probe;
                        deferred += 1;
                        break;
                    }
                    probe += 1;
                }
                if probe == prog.len() {
                    slot = prog.len();
                    deferred += 1;
                }
            }
            prog.insert(slot, Instr {
                kind: InstrKind::BackwardWeight,
                micro: m,
                part: p,
            });
            split += 1;
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{apply_checkpoint, overlap_recompute, remove_redundancy};
    use crate::simulator::{simulate_memory, simulate_timeline};
    use mario_ir::{validate, InstrTag, SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn split_schedules_stay_valid_on_every_scheme() {
        for scheme in [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
        ] {
            let mut s = generate(ScheduleConfig::new(scheme, 4, 8));
            let n = split_backward(&mut s, SplitOptions::default());
            assert!(n > 0);
            let opts = mario_ir::ValidateOptions {
                channel_capacity: 2,
            };
            mario_ir::validate_with(&s, opts).unwrap_or_else(|e| panic!("{scheme:?}: {e:?}"));
            assert_eq!(s.count_tag(InstrTag::Backward), 0);
            assert_eq!(
                s.count_tag(InstrTag::BackwardInput),
                s.count_tag(InstrTag::BackwardWeight)
            );
        }
    }

    #[test]
    fn split_reduces_1f1b_makespan() {
        // ZB-H1's claim: deferring W halves fills the warmup/cooldown
        // bubbles, shortening the iteration.
        let cost = UnitCost::paper_grid();
        let base = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let t_base = simulate_timeline(&base, &cost, 1).unwrap().total_ns;
        let mut zb = base.clone();
        split_backward(&mut zb, SplitOptions::default());
        let t_zb = simulate_timeline(&zb, &cost, 1).unwrap().total_ns;
        assert!(
            t_zb < t_base,
            "split backward should shrink the bubble: {t_zb} vs {t_base}"
        );
    }

    #[test]
    fn split_costs_bounded_extra_memory() {
        let cost = UnitCost::paper_grid();
        let base = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let m_base = simulate_memory(&base, &cost, None).max_peak();
        let mut zb = base.clone();
        split_backward(
            &mut zb,
            SplitOptions { max_deferred: 2 },
        );
        let m_zb = simulate_memory(&zb, &cost, None).max_peak();
        assert!(
            m_zb <= m_base + 2,
            "deferral cap must bound extra memory: {m_zb} vs {m_base}"
        );
    }

    #[test]
    fn composes_with_mario_checkpointing() {
        let cost = UnitCost::paper_grid();
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        apply_checkpoint(&mut s);
        overlap_recompute(&mut s);
        remove_redundancy(&mut s);
        split_backward(&mut s, SplitOptions::default());
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
        // The split halves of checkpointed pairs still free the restored
        // activations: memory stays at the Mario level (one replica plus
        // the bounded deferrals).
        let peaks = simulate_memory(&s, &cost, None).peak;
        assert!(peaks.iter().all(|&p| p <= 4), "{peaks:?}");
    }

    /// Regression (interleaved deferral): a deferred `Bw` must never float
    /// past a receive belonging to a different part/chunk — on W/X schedules
    /// that reorders it against the other chunk's FIFO traffic.
    fn assert_bw_never_crosses_foreign_recv(s: &Schedule) {
        for d in 0..s.devices() {
            let prog = s.program(DeviceId(d));
            for (bw_pos, i) in prog.iter() {
                if i.kind != InstrKind::BackwardWeight {
                    continue;
                }
                let bi_pos = prog
                    .position(|x| {
                        x.kind == InstrKind::BackwardInput
                            && x.micro == i.micro
                            && x.part == i.part
                    })
                    .expect("every Bw has a Bi");
                for between in &prog.instrs()[bi_pos..bw_pos] {
                    if between.kind.is_recv() {
                        assert_eq!(
                            between.part, i.part,
                            "d{d}: Bw{}^{} floated past a part-{} receive",
                            i.micro.0, i.part.0, between.part.0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deferred_bw_stays_within_its_part_on_interleave() {
        let mut s = generate(ScheduleConfig::new(
            SchemeKind::Interleave { chunks: 2 },
            4,
            8,
        ));
        split_backward(&mut s, SplitOptions::default());
        let opts = mario_ir::ValidateOptions {
            channel_capacity: 2,
        };
        mario_ir::validate_with(&s, opts).unwrap_or_else(|e| panic!("{e:?}"));
        assert_bw_never_crosses_foreign_recv(&s);
    }

    #[test]
    fn deferred_bw_stays_within_its_part_on_chimera() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 8));
        split_backward(&mut s, SplitOptions::default());
        let opts = mario_ir::ValidateOptions {
            channel_capacity: 2,
        };
        mario_ir::validate_with(&s, opts).unwrap_or_else(|e| panic!("{e:?}"));
        assert_bw_never_crosses_foreign_recv(&s);
    }

    #[test]
    fn idempotent() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        assert!(split_backward(&mut s, SplitOptions::default()) > 0);
        assert_eq!(split_backward(&mut s, SplitOptions::default()), 0);
    }

    #[test]
    fn runs_on_the_emulator() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        split_backward(&mut s, SplitOptions::default());
        let r = mario_cluster::run(
            &s,
            &UnitCost::paper_grid(),
            mario_cluster::EmulatorConfig::default(),
        )
        .unwrap();
        assert!(r.total_ns > 0);
        // Simulator and emulator still agree exactly.
        let sim = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert_eq!(sim.device_clocks, r.device_clocks);
    }
}
