//! Pass 3 — *remove-redundancy* (paper §5.1): when a checkpointed forward
//! and its backward are adjacent (no other compute in between), the
//! activation would be dropped and instantly restored — pure overhead with
//! no memory benefit — so the checkpoint and its recompute are removed.
//!
//! This fires on the last pipeline stage (where 1F1B strictly alternates
//! F/B) and in cool-down tails.

use mario_ir::{Instr, InstrKind, InstrTag, MicroId, PartId, ProgramIndex, Schedule};

/// Reverts pointless checkpoints. Returns the number reverted. Idempotent.
///
/// Pairs are handled in the order of their checkpointed forwards, each
/// seeing the reverts before it: removing one pair's recompute can empty a
/// later pair's forward..backward window. A device program is indexed
/// once, a Fenwick tree over its positions counts the compute still
/// standing in any window, and the program is rebuilt once at the end. A
/// pair with no backward or no recompute (malformed input), or with ids
/// outside the schedule's micro/part range, is skipped.
pub fn remove_redundancy(schedule: &mut Schedule) -> usize {
    let (micros, parts) = (schedule.micros, schedule.topology.parts_per_device());
    let mut ix = ProgramIndex::default();
    let mut compute = Fenwick::default();
    let mut removed = Vec::new();
    let mut reverted = 0;
    for prog in schedule.programs_mut() {
        ix.rebuild(prog.instrs(), micros, parts);
        compute.reset(prog.instrs().iter().map(|i| i.kind.is_compute() as i32));
        removed.clear();
        removed.resize(prog.len(), false);
        let mut reverted_here = 0;
        // A revert touches only a forward at or before the checkpointed
        // forward that triggered it, so this scan sees the pairs as they
        // stood before the pass.
        for pos in 0..prog.len() {
            let i = prog.instrs()[pos];
            if !i.is_ckpt_forward() {
                continue;
            }
            let (m, p) = (i.micro, i.part);
            let (Some(f), Some(b), Some(rc)) = (
                ix.first(InstrTag::Forward, m, p),
                ix.effective_backward(m, p),
                first_standing_recompute(prog.instrs(), &ix, &removed, m, p),
            ) else {
                continue;
            };
            // Any compute other than our own recompute between CFW and BW?
            let window = if b > f + 1 { compute.sum(f + 1..b) } else { 0 };
            let own = (f < rc && rc < b) as i32;
            if window == own {
                prog.replace_kind(f, InstrKind::Forward { ckpt: false });
                removed[rc] = true;
                compute.add(rc, -1);
                reverted_here += 1;
            }
        }
        if reverted_here > 0 {
            let mut pos = 0;
            prog.retain(|_| {
                pos += 1;
                !removed[pos - 1]
            });
            reverted += reverted_here;
        }
    }
    reverted
}

/// Position of the first recompute of `(micro, part)` not yet removed.
fn first_standing_recompute(
    instrs: &[Instr],
    ix: &ProgramIndex,
    removed: &[bool],
    micro: MicroId,
    part: PartId,
) -> Option<usize> {
    let first = ix.first(InstrTag::Recompute, micro, part)?;
    if !removed[first] {
        return Some(first);
    }
    // Only a pair with several recomputes (malformed input) gets here.
    (first + 1..instrs.len()).find(|&k| {
        !removed[k]
            && instrs[k].kind == InstrKind::Recompute
            && instrs[k].micro == micro
            && instrs[k].part == part
    })
}

/// Prefix sums over program positions with point updates. Scratch that is
/// reused across devices.
#[derive(Default)]
struct Fenwick(Vec<i32>);

impl Fenwick {
    /// Loads one value per position, in linear time.
    fn reset(&mut self, values: impl Iterator<Item = i32>) {
        let t = &mut self.0;
        t.clear();
        t.push(0);
        t.extend(values);
        for k in 1..t.len() {
            let parent = k + (k & k.wrapping_neg());
            if parent < t.len() {
                t[parent] += t[k];
            }
        }
    }

    fn add(&mut self, pos: usize, delta: i32) {
        let mut k = pos + 1;
        while k < self.0.len() {
            self.0[k] += delta;
            k += k & k.wrapping_neg();
        }
    }

    /// Sum over positions `0..end`.
    fn prefix(&self, end: usize) -> i32 {
        let (mut k, mut sum) = (end, 0);
        while k > 0 {
            sum += self.0[k];
            k &= k - 1;
        }
        sum
    }

    fn sum(&self, range: std::ops::Range<usize>) -> i32 {
        self.prefix(range.end) - self.prefix(range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::apply_checkpoint::apply_checkpoint;
    use crate::passes::overlap_recompute::overlap_recompute;
    use mario_ir::{validate, DeviceId, Instr, InstrTag, SchemeKind, Topology};
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn last_device_checkpoints_are_all_removed() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        apply_checkpoint(&mut s);
        let n = remove_redundancy(&mut s);
        assert!(n >= 8, "at least the last device's 8 pairs, got {n}");
        let last = s.program(DeviceId(3));
        assert_eq!(last.count(|i| i.is_ckpt_forward()), 0);
        assert_eq!(last.count(|i| i.kind == InstrKind::Recompute), 0);
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn early_devices_keep_their_checkpoints() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        apply_checkpoint(&mut s);
        remove_redundancy(&mut s);
        // Device 0's steady-state pairs have other compute in between.
        assert!(s.program(DeviceId(0)).count(|i| i.is_ckpt_forward()) > 0);
    }

    #[test]
    fn idempotent_and_order_independent_with_overlap() {
        let mut a = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        apply_checkpoint(&mut a);
        overlap_recompute(&mut a);
        remove_redundancy(&mut a);
        assert_eq!(remove_redundancy(&mut a), 0);
        validate(&a).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn recompute_count_matches_ckpt_count_afterwards() {
        for scheme in [
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
        ] {
            let mut s = generate(ScheduleConfig::new(scheme, 4, 8));
            apply_checkpoint(&mut s);
            remove_redundancy(&mut s);
            assert_eq!(
                s.count_ckpt_forwards(),
                s.count_tag(InstrTag::Recompute),
                "{scheme:?}"
            );
            validate(&s).unwrap_or_else(|e| panic!("{scheme:?}: {e:?}"));
        }
    }

    #[test]
    fn pairs_without_backward_or_recompute_are_skipped_not_a_panic() {
        // Hand-built: micro 0 lost its backward, micro 2 its recompute;
        // micro 1 is well formed and redundant.
        let mut s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 1), 3, vec![0; 3]);
        let d0 = s.program_mut(DeviceId(0));
        d0.push(Instr::ckpt_forward(0u32, 0u32));
        d0.push(Instr::recompute(0u32, 0u32));
        d0.push(Instr::ckpt_forward(1u32, 0u32));
        d0.push(Instr::recompute(1u32, 0u32));
        d0.push(Instr::backward(1u32, 0u32));
        d0.push(Instr::ckpt_forward(2u32, 0u32));
        d0.push(Instr::backward(2u32, 0u32));
        assert_eq!(remove_redundancy(&mut s), 1);
        assert_eq!(
            s.program(DeviceId(0)).to_string(),
            "d0: cF0^0 R0^0 F1^0 B1^0 cF2^0 B2^0"
        );
    }

    #[test]
    fn gpipe_keeps_all_checkpoints() {
        // GPipe never has F adjacent to its own B (all forwards first).
        let mut s = generate(ScheduleConfig::new(SchemeKind::GPipe, 4, 8));
        apply_checkpoint(&mut s);
        // Exception: with N micro-batches, the *last* micro-batch's forward
        // on the last device is immediately followed by backwards — but in
        // GPipe order B0 comes first, so only if N == 1 would it be
        // adjacent. With N = 8 nothing is removed on devices 0..2; on the
        // last device, F7 is followed by B0..B7, and only B7 matches F7's
        // pair, so the span contains other compute.
        assert_eq!(remove_redundancy(&mut s), 0);
    }
}
