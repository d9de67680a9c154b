//! Pass 2 — *overlap-recompute* (paper §5.1): move each recomputation in
//! front of the `RG` that precedes its backward, so the recompute executes
//! while the gradient is still in flight — concurrently with the next
//! device's backward — instead of serializing after it.
//!
//! "If RC_i is incorrectly placed after RG_i, it must wait for RG_i to
//! finish, … causing RC_i on device j to wait for BW_i on device j+1 and
//! losing the opportunity for concurrent execution."

use mario_ir::{InstrKind, InstrTag, ProgramIndex, Schedule};

/// Hoists recomputes ahead of the receive-gradient chain preceding their
/// backward. Returns the number of recomputes moved. Idempotent.
///
/// Pairs are handled in the order of their recomputes, each seeing the
/// moves before it: a device program is indexed once, the moves are
/// applied to a doubly linked list over its positions, and the program is
/// rebuilt from the list. A pair with no backward (malformed input), or
/// with ids outside the schedule's micro/part range, is skipped.
pub fn overlap_recompute(schedule: &mut Schedule) -> usize {
    let (micros, parts) = (schedule.micros, schedule.topology.parts_per_device());
    let mut ix = ProgramIndex::default();
    let mut list = Links::default();
    let mut moved = 0;
    for prog in schedule.programs_mut() {
        let instrs = prog.instrs();
        ix.rebuild(instrs, micros, parts);
        list.reset(instrs.len());
        let mut moved_here = 0;
        for i in instrs.iter().filter(|i| i.kind == InstrKind::Recompute) {
            let (m, p) = (i.micro, i.part);
            // The first recompute of a pair only ever moves earlier, so it
            // stays the first one.
            let (Some(rc), Some(bw)) = (
                ix.first(InstrTag::Recompute, m, p),
                ix.effective_backward(m, p),
            ) else {
                continue;
            };
            // Walk back from the backward over the contiguous RecvGrad
            // chain directly before it, stepping over the recompute itself.
            let mut target = bw;
            let mut passed_rc = false;
            while let Some(idx) = list.prev(target) {
                if idx == rc {
                    passed_rc = true;
                } else if !matches!(instrs[idx].kind, InstrKind::RecvGrad { .. }) {
                    break;
                }
                target = idx;
            }
            // The recompute moves when it sits after the chain's start: it
            // was stepped over inside the chain, or it is still after the
            // backward. Only recomputes move, each only earlier, so one
            // that has not moved keeps its original order to the backward.
            let after_target = if passed_rc {
                target != rc
            } else {
                !list.moved[rc] && rc > bw
            };
            if after_target {
                list.move_before(rc, target);
                moved_here += 1;
            }
        }
        if moved_here > 0 {
            let out = list.order().map(|pos| instrs[pos]).collect();
            *prog = mario_ir::DeviceProgram::from_instrs(prog.device, out);
            moved += moved_here;
        }
    }
    moved
}

/// A doubly linked list over the positions `0..n` of one program, with a
/// sentinel at `n`. Scratch that is reused across devices.
#[derive(Default)]
struct Links {
    prev: Vec<usize>,
    next: Vec<usize>,
    /// Whether the node at each original position was moved.
    moved: Vec<bool>,
}

impl Links {
    fn reset(&mut self, n: usize) {
        self.prev.clear();
        self.prev.push(n);
        self.prev.extend(0..n);
        self.next.clear();
        self.next.extend(1..=n);
        self.next.push(0);
        self.moved.clear();
        self.moved.resize(n, false);
    }

    fn sentinel(&self) -> usize {
        self.moved.len()
    }

    /// The node before `node`, or `None` at the front.
    fn prev(&self, node: usize) -> Option<usize> {
        let p = self.prev[node];
        (p != self.sentinel()).then_some(p)
    }

    /// Unlinks `node` and relinks it directly before `anchor`.
    fn move_before(&mut self, node: usize, anchor: usize) {
        let (p, n) = (self.prev[node], self.next[node]);
        self.next[p] = n;
        self.prev[n] = p;
        let before = self.prev[anchor];
        self.next[before] = node;
        self.prev[node] = before;
        self.next[node] = anchor;
        self.prev[anchor] = node;
        self.moved[node] = true;
    }

    /// Original positions in list order.
    fn order(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        let mut node = self.sentinel();
        (0..self.moved.len()).map(move |_| {
            node = self.next[node];
            node
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::apply_checkpoint::apply_checkpoint;
    use crate::simulator::simulate_timeline;
    use mario_ir::{validate, DeviceId, Instr, MicroId, PartId, SchemeKind, Topology, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn recompute_lands_before_the_recv_grad() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        apply_checkpoint(&mut s);
        let moved = overlap_recompute(&mut s);
        assert!(moved > 0);
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
        // On a non-last device, the pattern must now be RC .. RG .. BW.
        let prog = s.program(DeviceId(1));
        for m in 0..8u32 {
            let rc = prog
                .position_of(InstrTag::Recompute, MicroId(m), PartId(0))
                .unwrap();
            let bw = prog.backward_pos(MicroId(m), PartId(0)).unwrap();
            let rg = prog
                .position(|i| {
                    matches!(i.kind, InstrKind::RecvGrad { .. }) && i.micro == MicroId(m)
                })
                .unwrap();
            assert!(rc < rg && rg < bw, "m{m}: rc={rc} rg={rg} bw={bw}");
        }
    }

    #[test]
    fn idempotent() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        apply_checkpoint(&mut s);
        overlap_recompute(&mut s);
        assert_eq!(overlap_recompute(&mut s), 0);
    }

    #[test]
    fn overlap_reduces_makespan_vs_naive_checkpointing() {
        // The motivation experiment: naive ckpt serializes recompute on the
        // critical path; overlapping hides (part of) it in bubbles.
        let cost = UnitCost::paper_grid();
        let mut naive = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        apply_checkpoint(&mut naive);
        let t_naive = simulate_timeline(&naive, &cost, 1).unwrap().total_ns;

        let mut ovlp = naive.clone();
        overlap_recompute(&mut ovlp);
        let t_ovlp = simulate_timeline(&ovlp, &cost, 1).unwrap().total_ns;
        assert!(
            t_ovlp < t_naive,
            "overlap {t_ovlp} should beat naive {t_naive}"
        );
    }

    #[test]
    fn last_stage_has_no_rg_and_keeps_rc_adjacent() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
        apply_checkpoint(&mut s);
        overlap_recompute(&mut s);
        let prog = s.program(DeviceId(3));
        for m in 0..4u32 {
            let rc = prog
                .position_of(InstrTag::Recompute, MicroId(m), PartId(0))
                .unwrap();
            let bw = prog.backward_pos(MicroId(m), PartId(0)).unwrap();
            assert_eq!(rc + 1, bw);
        }
    }

    #[test]
    fn pair_without_backward_is_skipped_not_a_panic() {
        // Hand-built: micro 0 lost its backward; micro 1 is well formed.
        let mut s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 2), 2, vec![0, 0]);
        let d0 = s.program_mut(DeviceId(0));
        d0.push(Instr::ckpt_forward(0u32, 0u32));
        d0.push(Instr::ckpt_forward(1u32, 0u32));
        d0.push(Instr::recompute(0u32, 0u32));
        d0.push(Instr::recv_grad(1u32, 0u32, DeviceId(1)));
        d0.push(Instr::recompute(1u32, 0u32));
        d0.push(Instr::backward(1u32, 0u32));
        assert_eq!(overlap_recompute(&mut s), 1);
        assert_eq!(
            s.program(DeviceId(0)).to_string(),
            "d0: cF0^0 cF1^0 R0^0 R1^0 RG1^0<d1 B1^0"
        );
    }

    #[test]
    fn valid_on_all_schemes() {
        for scheme in [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
        ] {
            let mut s = generate(ScheduleConfig::new(scheme, 4, 8));
            apply_checkpoint(&mut s);
            overlap_recompute(&mut s);
            validate(&s).unwrap_or_else(|e| panic!("{scheme:?}: {e:?}"));
        }
    }
}
