//! Pass 1 — *apply-checkpoint* (paper §5.1): replace every paired forward
//! with a checkpointed forward and insert its recomputation immediately
//! before the corresponding backward, so only one replica of full
//! activations is live per stage at a time.

use mario_ir::{Instr, InstrKind, InstrTag, ProgramIndex, Schedule};

/// Applies checkpointing to every (micro, part) pair on every device.
/// Returns the number of forwards converted. Idempotent.
///
/// A pair is converted when its first forward is plain and it has a
/// backward on the same device; a pair without one (malformed input), or
/// with ids outside the schedule's micro/part range, is skipped. Each
/// device program is indexed once and rebuilt in one pass.
pub fn apply_checkpoint(schedule: &mut Schedule) -> usize {
    let (micros, parts) = (schedule.micros, schedule.topology.parts_per_device());
    let mut ix = ProgramIndex::default();
    let mut converted = 0;
    for prog in schedule.programs_mut() {
        let instrs = prog.instrs();
        ix.rebuild(instrs, micros, parts);
        let converts = |i: &Instr| {
            ix.first(InstrTag::Forward, i.micro, i.part)
                .is_some_and(|f| !instrs[f].is_ckpt_forward())
                && ix.effective_backward(i.micro, i.part).is_some()
        };
        let is_converted_forward = |pos: usize, i: &Instr| {
            i.kind == InstrKind::Forward { ckpt: false }
                && ix.first(InstrTag::Forward, i.micro, i.part) == Some(pos)
                && converts(i)
        };
        let n = instrs
            .iter()
            .enumerate()
            .filter(|&(pos, i)| is_converted_forward(pos, i))
            .count();
        if n == 0 {
            continue;
        }
        let mut out = Vec::with_capacity(instrs.len() + n);
        for (pos, &i) in instrs.iter().enumerate() {
            if is_converted_forward(pos, &i) {
                out.push(Instr::ckpt_forward(i.micro, i.part));
                continue;
            }
            // "The distance between RC_i and BW_i should be minimized":
            // the recompute goes directly before the backward.
            if matches!(i.kind, InstrKind::Backward | InstrKind::BackwardInput)
                && ix.effective_backward(i.micro, i.part) == Some(pos)
                && converts(&i)
            {
                out.push(Instr::recompute(i.micro, i.part));
            }
            out.push(i);
        }
        *prog = mario_ir::DeviceProgram::from_instrs(prog.device, out);
        converted += n;
    }
    converted
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{validate, DeviceId, InstrTag, MicroId, PartId, SchemeKind};
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn converts_every_forward_and_stays_valid() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let forwards = s.count_tag(InstrTag::Forward);
        let n = apply_checkpoint(&mut s);
        assert_eq!(n, forwards);
        assert_eq!(s.count_ckpt_forwards(), forwards);
        assert_eq!(s.count_tag(InstrTag::Recompute), forwards);
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn recompute_sits_directly_before_backward() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        apply_checkpoint(&mut s);
        for d in 0..4u32 {
            let prog = s.program(DeviceId(d));
            for m in 0..8u32 {
                let rc = prog
                    .position_of(InstrTag::Recompute, MicroId(m), PartId(0))
                    .unwrap();
                let bw = prog.backward_pos(MicroId(m), PartId(0)).unwrap();
                assert_eq!(rc + 1, bw, "d{d} m{m}");
            }
        }
    }

    #[test]
    fn idempotent() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 8));
        let first = apply_checkpoint(&mut s);
        assert!(first > 0);
        assert_eq!(apply_checkpoint(&mut s), 0);
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn works_on_every_scheme() {
        for scheme in [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
        ] {
            let mut s = generate(ScheduleConfig::new(scheme, 4, 8));
            apply_checkpoint(&mut s);
            validate(&s).unwrap_or_else(|e| panic!("{scheme:?}: {e:?}"));
        }
    }

    #[test]
    fn memory_collapses_to_one_replica() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        apply_checkpoint(&mut s);
        // Counting only full activations (ckpt excluded), every device
        // holds at most one restored replica at a time.
        let peaks = s.peak_on_the_fly_per_device(false);
        assert!(peaks.iter().all(|&p| p <= 1), "{peaks:?}");
    }
}
