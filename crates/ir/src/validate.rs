//! Structural validation of schedules.
//!
//! A schedule is *well-formed* when every micro-batch performs one forward
//! and one backward on every stage of its route, checkpointing is paired
//! with exactly one recomputation placed inside the `CFW..BW` window, and
//! every stage-boundary crossing carries correctly-tagged, correctly-ordered
//! communication. These are exactly the dependencies the graph tuner
//! (paper §5.1) promises to preserve across its passes, so the test suite
//! re-validates after every transformation.
//!
//! # Order of the checks and of the errors
//!
//! [`validate_with`] first rejects, with one
//! [`ValidationError::TooFewInstructions`], a schedule with fewer
//! instructions than its micros × stages: every (micro, stage) needs its
//! own forward, and nothing is sized by the header's counts before that.
//! Then one walk over every program finds whether any p2p instruction
//! exists, stray compute and the all-reduce counts and order. The
//! per-(micro, hop) checks run hop-major — every micro at hop 0, then
//! every micro at hop 1, … — so that consecutive checks read one
//! device's index and program and its neighbours' instead of striding
//! across all devices once per micro. Errors are still reported
//! micro-major: per-hop errors first, by micro, then hop, then the order
//! each check pushes them; then stray compute in program order; then the
//! all-reduce errors; and, only when nothing else failed, executability.
//! Each per-hop error is tagged with its micro, and when any exist a
//! stable bucketing by micro restores that order, so a valid schedule
//! pays nothing for it.

use crate::exec::{check_executable, ExecError};
use crate::ids::{DeviceId, MicroId, PartId};
use crate::index::{ProgramIndex, RouteHops};
use crate::instr::{Instr, InstrKind, InstrTag};
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One validation failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationError {
    /// A `(device, micro, part)` triple is missing a required instruction.
    Missing {
        /// Where the instruction was expected.
        device: DeviceId,
        /// Expected instruction class.
        tag: InstrTag,
        /// Micro-batch.
        micro: MicroId,
        /// Partition.
        part: PartId,
    },
    /// A `(device, micro, part)` triple has a duplicated instruction.
    Duplicate {
        /// Offending device.
        device: DeviceId,
        /// Duplicated instruction class.
        tag: InstrTag,
        /// Micro-batch.
        micro: MicroId,
        /// Partition.
        part: PartId,
    },
    /// An instruction appears on a device whose route never visits it.
    Misplaced {
        /// Offending device.
        device: DeviceId,
        /// The instruction.
        instr: String,
    },
    /// Two instructions are in the wrong relative order.
    OrderViolation {
        /// Offending device.
        device: DeviceId,
        /// Human-readable description of the violated constraint.
        what: String,
    },
    /// A recompute exists for a non-checkpointed forward, or is missing for
    /// a checkpointed one.
    CheckpointMismatch {
        /// Offending device.
        device: DeviceId,
        /// Micro-batch.
        micro: MicroId,
        /// Partition.
        part: PartId,
        /// Description.
        what: String,
    },
    /// A p2p instruction names the wrong peer.
    WrongPeer {
        /// Offending device.
        device: DeviceId,
        /// The instruction.
        instr: String,
        /// The peer the topology dictates.
        expected: DeviceId,
    },
    /// Symbolic execution failed (deadlock or message mismatch).
    NotExecutable(ExecError),
    /// The schedule has fewer instructions than the forwards its header
    /// needs, one per (micro, stage); checked before anything is sized
    /// by the header's counts.
    TooFewInstructions {
        /// Forwards needed: micros × stages per route.
        needed: u64,
        /// Instructions the schedule has.
        found: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Missing {
                device,
                tag,
                micro,
                part,
            } => write!(f, "{device}: missing {tag:?} for ({micro}, {part})"),
            ValidationError::Duplicate {
                device,
                tag,
                micro,
                part,
            } => write!(f, "{device}: duplicate {tag:?} for ({micro}, {part})"),
            ValidationError::Misplaced { device, instr } => {
                write!(f, "{device}: instruction {instr} does not belong here")
            }
            ValidationError::OrderViolation { device, what } => {
                write!(f, "{device}: order violation: {what}")
            }
            ValidationError::CheckpointMismatch {
                device,
                micro,
                part,
                what,
            } => write!(f, "{device}: checkpoint mismatch for ({micro}, {part}): {what}"),
            ValidationError::WrongPeer {
                device,
                instr,
                expected,
            } => write!(f, "{device}: {instr} should target {expected}"),
            ValidationError::NotExecutable(e) => write!(f, "schedule not executable: {e}"),
            ValidationError::TooFewInstructions { needed, found } => write!(
                f,
                "{found} instructions cannot hold the {needed} forwards the header needs \
                 (one per micro-batch and stage)"
            ),
        }
    }
}

/// Validation knobs.
#[derive(Debug, Clone, Copy)]
pub struct ValidateOptions {
    /// Channel capacity used by the executability check.
    pub channel_capacity: usize,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        Self {
            channel_capacity: 1,
        }
    }
}

/// Validates `schedule` with default options.
pub fn validate(schedule: &Schedule) -> Result<(), Vec<ValidationError>> {
    validate_with(schedule, ValidateOptions::default())
}

/// Validates `schedule` with explicit options. Returns *all* failures.
pub fn validate_with(
    schedule: &Schedule,
    opts: ValidateOptions,
) -> Result<(), Vec<ValidationError>> {
    // Hostile text can claim billions of micros or stages for a few
    // bytes, and the route table and the index below grow with them. A
    // schedule that holds one forward per (micro, stage) pays for that
    // size with its own instructions; one that cannot is rejected here.
    let needed = u64::from(schedule.micros) * u64::from(schedule.topology.num_stages());
    let found = schedule.total_instrs();
    if (found as u64) < needed {
        return Err(vec![ValidationError::TooFewInstructions { needed, found }]);
    }
    // Forward-only (serving) schedules invert the backward requirements:
    // no backward/recompute/gradient instruction may appear at all, and
    // only the activation half of the comm pairing applies.
    let forward_only = matches!(
        schedule.topology.scheme,
        crate::topology::SchemeKind::ForwardOnly
    );
    // Without micro-batches nothing visits a hop, so no route table is
    // built: its size grows with the stage count alone.
    let hops = (schedule.micros > 0).then(|| RouteHops::new(&schedule.topology));
    let walk = Walk::new(schedule, hops.as_ref(), forward_only);
    let parts = schedule.topology.parts_per_device();
    let index: Vec<ProgramIndex> = schedule
        .programs()
        .iter()
        .map(|p| ProgramIndex::new(p.instrs(), schedule.micros, parts))
        .collect();
    let v = Indexed { schedule, index };

    // -- Per (micro, hop) compute + communication requirements ------------
    let mut errors = Vec::new();
    if let Some(hops) = &hops {
        // Hop-major for locality; the errors go back into micro-major
        // order by their micro (see the module docs). Every route crosses
        // every stage once.
        let mut micro_of: Vec<u32> = Vec::new();
        for hop_idx in 0..schedule.topology.num_stages() as usize {
            for m in 0..schedule.micros {
                let micro = MicroId(m);
                let path = hops.path(schedule.route_of(micro));
                check_hop(
                    &mut errors,
                    &v,
                    micro,
                    path,
                    hop_idx,
                    forward_only,
                    walk.p2p,
                );
                micro_of.resize(errors.len(), m);
            }
        }
        if !errors.is_empty() {
            let mut by_micro = vec![Vec::new(); schedule.micros as usize];
            for (m, e) in micro_of.into_iter().zip(errors.drain(..)) {
                by_micro[m as usize].push(e);
            }
            errors.extend(by_micro.into_iter().flatten());
        }
    }

    // -- No stray compute on devices off the route (or out-of-range) -------
    errors.extend(walk.stray);

    // -- Collective bookkeeping --------------------------------------------
    if walk.all_reduces.iter().any(|&c| c != walk.all_reduces[0]) {
        errors.push(ValidationError::OrderViolation {
            device: DeviceId(0),
            what: format!(
                "uneven AllReduce counts across devices: {:?}",
                walk.all_reduces
            ),
        });
    }
    errors.extend(walk.early_all_reduces);

    // -- Executability ------------------------------------------------------
    if errors.is_empty() {
        if let Err(e) = check_executable(schedule, opts.channel_capacity) {
            errors.push(ValidationError::NotExecutable(e));
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// What one walk over every program finds, for the checks that are not
/// per hop.
struct Walk {
    /// Whether any p2p instruction exists. Communication is checked
    /// (presence, tagging, ordering) only then: compute-only schedules are
    /// legal for analysis.
    p2p: bool,
    /// Compute on a device its route never visits, with an out-of-range
    /// micro, or of the backward pass in a forward-only schedule; in
    /// program order.
    stray: Vec<ValidationError>,
    /// Each device's number of all-reduces.
    all_reduces: Vec<usize>,
    /// Devices whose first all-reduce precedes a backward, in device
    /// order. An all-reduce is device-local in every executor, so it is
    /// only correct once the device has produced all of its weight
    /// gradients.
    early_all_reduces: Vec<ValidationError>,
}

impl Walk {
    fn new(schedule: &Schedule, hops: Option<&RouteHops>, forward_only: bool) -> Self {
        let mut walk = Walk {
            p2p: false,
            stray: Vec::new(),
            all_reduces: Vec::with_capacity(schedule.programs().len()),
            early_all_reduces: Vec::new(),
        };
        for prog in schedule.programs() {
            let device = prog.device;
            let mut all_reduces = 0;
            let mut first_ar = None;
            let mut late_backward = None;
            for (pos, i) in prog.iter() {
                walk.p2p |= i.kind.is_p2p();
                match i.kind {
                    InstrKind::AllReduce => {
                        all_reduces += 1;
                        first_ar.get_or_insert(pos);
                    }
                    InstrKind::Backward | InstrKind::BackwardInput | InstrKind::BackwardWeight
                        if first_ar.is_some() =>
                    {
                        late_backward.get_or_insert(pos);
                    }
                    _ => {}
                }
                if forward_only
                    && matches!(
                        i.kind.tag(),
                        InstrTag::Backward
                            | InstrTag::BackwardInput
                            | InstrTag::BackwardWeight
                            | InstrTag::Recompute
                            | InstrTag::SendGrad
                            | InstrTag::RecvGrad
                    )
                {
                    walk.stray.push(ValidationError::Misplaced {
                        device,
                        instr: format!(
                            "{i} (backward-pass instruction in a forward-only schedule)"
                        ),
                    });
                    continue;
                }
                if i.kind.is_compute() {
                    if i.micro.0 >= schedule.micros {
                        walk.stray.push(ValidationError::Misplaced {
                            device,
                            instr: format!("{i} (micro out of range)"),
                        });
                        continue;
                    }
                    // In range, so there are micros and a route table.
                    let off_route = hops.is_some_and(|h| {
                        h.hop(schedule.route_of(i.micro), device, i.part).is_none()
                    });
                    if off_route {
                        walk.stray.push(ValidationError::Misplaced {
                            device,
                            instr: i.to_string(),
                        });
                    }
                }
            }
            walk.all_reduces.push(all_reduces);
            if let (Some(ar), Some(b)) = (first_ar, late_backward) {
                let what = format!("AllReduce at #{ar} before {} at #{b}", prog.instrs()[b]);
                walk.early_all_reduces
                    .push(ValidationError::OrderViolation { device, what });
            }
        }
        walk
    }
}

/// The requirements on `path[hop_idx]` for `micro`: one forward, one
/// backward or split pair in order, checkpoint pairing and — when
/// `check_comm` — the communication to and from the neighbouring hops.
fn check_hop(
    errors: &mut Vec<ValidationError>,
    v: &Indexed,
    micro: MicroId,
    path: &[(DeviceId, PartId)],
    hop_idx: usize,
    forward_only: bool,
    check_comm: bool,
) {
    let m = micro.0;
    let (dev, part) = path[hop_idx];
    let ix = v.index(dev);
    check_unique(errors, ix, dev, InstrTag::Forward, micro, part);
    if forward_only {
        check_forward_only_hop(errors, v, micro, path, hop_idx, check_comm);
        return;
    }
    // Exactly one full backward XOR a split (Bi + Bw) pair.
    let n_b = ix.count(InstrTag::Backward, micro, part);
    let n_bi = ix.count(InstrTag::BackwardInput, micro, part);
    let n_bw = ix.count(InstrTag::BackwardWeight, micro, part);
    match (n_b, n_bi, n_bw) {
        (1, 0, 0) => {}
        (0, 1, 1) => {
            let bi = ix.first(InstrTag::BackwardInput, micro, part);
            let bwp = ix.first(InstrTag::BackwardWeight, micro, part);
            if bwp < bi {
                errors.push(ValidationError::OrderViolation {
                    device: dev,
                    what: format!("Bw{m}^{} before its input-gradient half", part.0),
                });
            }
        }
        (0, 0, 0) => errors.push(ValidationError::Missing {
            device: dev,
            tag: InstrTag::Backward,
            micro,
            part,
        }),
        _ => errors.push(ValidationError::Duplicate {
            device: dev,
            tag: InstrTag::Backward,
            micro,
            part,
        }),
    }
    let fw = ix.first(InstrTag::Forward, micro, part);
    // Ordering and comm anchor on the instruction that unblocks the
    // upstream stage: the backward, or the Bi half when split.
    let bw = ix.effective_backward(micro, part);
    let (Some(fw), Some(bw)) = (fw, bw) else {
        return;
    };
    if bw < fw {
        errors.push(ValidationError::OrderViolation {
            device: dev,
            what: format!("B{m}^{} before its forward", part.0),
        });
    }
    // Checkpoint / recompute pairing.
    let is_ckpt = v.schedule.program(dev).instrs()[fw].is_ckpt_forward();
    let rc = ix.first(InstrTag::Recompute, micro, part);
    match (is_ckpt, rc) {
        (true, None) => errors.push(ValidationError::CheckpointMismatch {
            device: dev,
            micro,
            part,
            what: "checkpointed forward without recompute".into(),
        }),
        (false, Some(_)) => errors.push(ValidationError::CheckpointMismatch {
            device: dev,
            micro,
            part,
            what: "recompute without checkpointed forward".into(),
        }),
        (true, Some(rc)) => {
            if rc <= fw || rc >= bw {
                errors.push(ValidationError::CheckpointMismatch {
                    device: dev,
                    micro,
                    part,
                    what: format!(
                        "recompute at #{rc} outside forward (#{fw})..backward (#{bw}) window"
                    ),
                });
            }
            if ix.count(InstrTag::Recompute, micro, part) > 1 {
                errors.push(ValidationError::Duplicate {
                    device: dev,
                    tag: InstrTag::Recompute,
                    micro,
                    part,
                });
            }
        }
        (false, None) => {}
    }

    if check_comm {
        check_hop_comm(errors, v, micro, path, hop_idx, fw, Some(bw));
    }
}

/// A schedule with every device program indexed.
struct Indexed<'a> {
    schedule: &'a Schedule,
    index: Vec<ProgramIndex>,
}

impl Indexed<'_> {
    fn index(&self, device: DeviceId) -> &ProgramIndex {
        &self.index[device.index()]
    }

    /// The first `tag` instruction of `(micro, part)` on `device`, with its
    /// position.
    fn find(
        &self,
        device: DeviceId,
        tag: InstrTag,
        micro: MicroId,
        part: PartId,
    ) -> Option<(usize, &Instr)> {
        let pos = self.index(device).first(tag, micro, part)?;
        Some((pos, &self.schedule.program(device).instrs()[pos]))
    }
}

fn check_unique(
    errors: &mut Vec<ValidationError>,
    ix: &ProgramIndex,
    device: DeviceId,
    tag: InstrTag,
    micro: MicroId,
    part: PartId,
) {
    match ix.count(tag, micro, part) {
        0 => errors.push(ValidationError::Missing {
            device,
            tag,
            micro,
            part,
        }),
        1 => {}
        _ => errors.push(ValidationError::Duplicate {
            device,
            tag,
            micro,
            part,
        }),
    }
}

/// The forward-only half of the per-hop requirements: the forward exists
/// (checked by the caller), must not be checkpointed (there is no backward
/// to recompute for), must not have a recompute, and — when comm is
/// checked — carries only the activation half of the hop pairing.
fn check_forward_only_hop(
    errors: &mut Vec<ValidationError>,
    v: &Indexed,
    micro: MicroId,
    path: &[(DeviceId, PartId)],
    hop_idx: usize,
    check_comm: bool,
) {
    let (dev, part) = path[hop_idx];
    let Some((fw, instr)) = v.find(dev, InstrTag::Forward, micro, part) else {
        return; // the Missing error is already recorded
    };
    if instr.is_ckpt_forward() {
        errors.push(ValidationError::CheckpointMismatch {
            device: dev,
            micro,
            part,
            what: "checkpointed forward in a forward-only schedule".into(),
        });
    }
    if check_comm {
        check_hop_comm(errors, v, micro, path, hop_idx, fw, None);
    }
}

fn check_hop_comm(
    errors: &mut Vec<ValidationError>,
    v: &Indexed,
    m: MicroId,
    path: &[(DeviceId, PartId)],
    hop_idx: usize,
    fw: usize,
    bw: Option<usize>,
) {
    let (dev, part) = path[hop_idx];

    // Forward-direction activation: this hop sends to the next hop (if any,
    // and if it lives on a different device — wave reflections stay local).
    if let Some(&(next_dev, next_part)) = path.get(hop_idx + 1) {
        if next_dev != dev {
            // SA(m, part) on this device, after the forward.
            match v.find(dev, InstrTag::SendAct, m, part) {
                Some((pos, instr)) => {
                    if instr.kind.peer() != Some(next_dev) {
                        errors.push(ValidationError::WrongPeer {
                            device: dev,
                            instr: instr.to_string(),
                            expected: next_dev,
                        });
                    }
                    if pos < fw {
                        errors.push(ValidationError::OrderViolation {
                            device: dev,
                            what: format!("SA{}^{} before its forward", m.0, part.0),
                        });
                    }
                }
                None => errors.push(ValidationError::Missing {
                    device: dev,
                    tag: InstrTag::SendAct,
                    micro: m,
                    part,
                }),
            }
            // RA(m, part) on the next device, before its forward. The
            // message is tagged with the *producer's* part.
            let next_fw = v.index(next_dev).first(InstrTag::Forward, m, next_part);
            match v.find(next_dev, InstrTag::RecvAct, m, part) {
                Some((pos, instr)) => {
                    if instr.kind.peer() != Some(dev) {
                        errors.push(ValidationError::WrongPeer {
                            device: next_dev,
                            instr: instr.to_string(),
                            expected: dev,
                        });
                    }
                    if let Some(next_fw) = next_fw {
                        if pos > next_fw {
                            errors.push(ValidationError::OrderViolation {
                                device: next_dev,
                                what: format!(
                                    "RA{}^{} after the forward that consumes it",
                                    m.0, part.0
                                ),
                            });
                        }
                    }
                }
                None => errors.push(ValidationError::Missing {
                    device: next_dev,
                    tag: InstrTag::RecvAct,
                    micro: m,
                    part,
                }),
            }
        }
    }

    // Backward-direction gradient: this hop's backward sends to the
    // previous hop (if any, on a different device); symmetric tagging.
    // Forward-only schedules have no backward (`bw` is None) and skip it.
    let Some(bw) = bw else { return };
    if hop_idx > 0 {
        let (prev_dev, prev_part) = path[hop_idx - 1];
        if prev_dev != dev {
            match v.find(dev, InstrTag::SendGrad, m, part) {
                Some((pos, instr)) => {
                    if instr.kind.peer() != Some(prev_dev) {
                        errors.push(ValidationError::WrongPeer {
                            device: dev,
                            instr: instr.to_string(),
                            expected: prev_dev,
                        });
                    }
                    if pos < bw {
                        errors.push(ValidationError::OrderViolation {
                            device: dev,
                            what: format!("SG{}^{} before its backward", m.0, part.0),
                        });
                    }
                }
                None => errors.push(ValidationError::Missing {
                    device: dev,
                    tag: InstrTag::SendGrad,
                    micro: m,
                    part,
                }),
            }
            let prev_bw = v.index(prev_dev).effective_backward(m, prev_part);
            match v.find(prev_dev, InstrTag::RecvGrad, m, part) {
                Some((pos, instr)) => {
                    if instr.kind.peer() != Some(dev) {
                        errors.push(ValidationError::WrongPeer {
                            device: prev_dev,
                            instr: instr.to_string(),
                            expected: dev,
                        });
                    }
                    if let Some(prev_bw) = prev_bw {
                        if pos > prev_bw {
                            errors.push(ValidationError::OrderViolation {
                                device: prev_dev,
                                what: format!(
                                    "RG{}^{} after the backward that consumes it",
                                    m.0, part.0
                                ),
                            });
                        }
                    }
                }
                None => errors.push(ValidationError::Missing {
                    device: prev_dev,
                    tag: InstrTag::RecvGrad,
                    micro: m,
                    part,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{SchemeKind, Topology};

    /// A hand-built, fully correct 2-device 1-micro schedule with comm.
    fn good() -> Schedule {
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut s = Schedule::empty(topo, 1, vec![0]);
        {
            let d0 = s.program_mut(DeviceId(0));
            d0.push(Instr::forward(0u32, 0u32));
            d0.push(Instr::send_act(0u32, 0u32, DeviceId(1)));
            d0.push(Instr::recv_grad(0u32, 0u32, DeviceId(1)));
            d0.push(Instr::backward(0u32, 0u32));
        }
        {
            let d1 = s.program_mut(DeviceId(1));
            d1.push(Instr::recv_act(0u32, 0u32, DeviceId(0)));
            d1.push(Instr::forward(0u32, 0u32));
            d1.push(Instr::backward(0u32, 0u32));
            d1.push(Instr::send_grad(0u32, 0u32, DeviceId(0)));
        }
        s
    }

    #[test]
    fn good_schedule_validates() {
        assert!(validate(&good()).is_ok());
    }

    #[test]
    fn missing_backward_is_reported() {
        let mut s = good();
        s.program_mut(DeviceId(1))
            .retain(|i| !i.is_backward_of(MicroId(0), PartId(0)));
        let errs = validate(&s).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::Missing {
                tag: InstrTag::Backward,
                ..
            }
        )));
    }

    #[test]
    fn duplicate_forward_is_reported() {
        let mut s = good();
        s.program_mut(DeviceId(0)).insert(0, Instr::forward(0u32, 0u32));
        let errs = validate(&s).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::Duplicate {
                tag: InstrTag::Forward,
                ..
            }
        )));
    }

    #[test]
    fn ckpt_without_recompute_is_reported() {
        let mut s = good();
        s.program_mut(DeviceId(0))
            .replace_kind(0, InstrKind::Forward { ckpt: true });
        let errs = validate(&s).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::CheckpointMismatch { .. })));
    }

    #[test]
    fn recompute_in_window_is_accepted() {
        let mut s = good();
        s.program_mut(DeviceId(0))
            .replace_kind(0, InstrKind::Forward { ckpt: true });
        // Insert the recompute just before the backward.
        let bw = s
            .program(DeviceId(0))
            .backward_pos(MicroId(0), PartId(0))
            .unwrap();
        s.program_mut(DeviceId(0))
            .insert(bw, Instr::recompute(0u32, 0u32));
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn recompute_after_backward_is_rejected() {
        let mut s = good();
        s.program_mut(DeviceId(0))
            .replace_kind(0, InstrKind::Forward { ckpt: true });
        s.program_mut(DeviceId(0)).push(Instr::recompute(0u32, 0u32));
        let errs = validate(&s).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::CheckpointMismatch { what, .. } if what.contains("window")
        )));
    }

    #[test]
    fn wrong_peer_is_reported() {
        let mut s = good();
        let pos = s
            .program(DeviceId(0))
            .position_of(InstrTag::SendAct, MicroId(0), PartId(0))
            .unwrap();
        s.program_mut(DeviceId(0))
            .replace_kind(pos, InstrKind::SendAct { peer: DeviceId(0) });
        let errs = validate(&s).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::WrongPeer { .. })));
    }

    #[test]
    fn compute_only_schedules_skip_comm_checks() {
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut s = Schedule::empty(topo, 1, vec![0]);
        for d in 0..2u32 {
            let p = s.program_mut(DeviceId(d));
            p.push(Instr::forward(0u32, 0u32));
            p.push(Instr::backward(0u32, 0u32));
        }
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn out_of_range_micro_is_reported_not_panicking() {
        let mut s = good();
        // Corrupt a backward to reference a micro that does not exist.
        let pos = s
            .program(DeviceId(1))
            .backward_pos(MicroId(0), PartId(0))
            .unwrap();
        s.program_mut(DeviceId(1))
            .insert(pos, Instr::backward(9u32, 0u32));
        s.program_mut(DeviceId(1))
            .retain(|i| !i.is_backward_of(MicroId(0), PartId(0)));
        let errs = validate(&s).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::Misplaced { instr, .. } if instr.contains("out of range")
        )));
    }

    #[test]
    fn misplaced_compute_is_reported() {
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut s = Schedule::empty(topo, 1, vec![0]);
        for d in 0..2u32 {
            let p = s.program_mut(DeviceId(d));
            p.push(Instr::forward(0u32, 0u32));
            p.push(Instr::backward(0u32, 0u32));
        }
        // Part 1 does not exist in a V-shape pipeline.
        s.program_mut(DeviceId(0)).push(Instr::forward(0u32, 1u32));
        let errs = validate(&s).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::Misplaced { .. })));
    }

    #[test]
    fn split_backward_pair_is_accepted() {
        let mut s = good();
        // Replace d1's backward with Bi + Bw.
        let bw = s
            .program(DeviceId(1))
            .backward_pos(MicroId(0), PartId(0))
            .unwrap();
        s.program_mut(DeviceId(1))
            .replace_kind(bw, InstrKind::BackwardInput);
        s.program_mut(DeviceId(1))
            .insert(bw + 1, Instr::backward_weight(0u32, 0u32));
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn weight_half_before_input_half_is_rejected() {
        let mut s = good();
        let bw = s
            .program(DeviceId(1))
            .backward_pos(MicroId(0), PartId(0))
            .unwrap();
        s.program_mut(DeviceId(1))
            .replace_kind(bw, InstrKind::BackwardInput);
        s.program_mut(DeviceId(1))
            .insert(bw, Instr::backward_weight(0u32, 0u32));
        let errs = validate(&s).unwrap_err();
        assert!(errs.iter().any(
            |e| matches!(e, ValidationError::OrderViolation { what, .. } if what.contains("input-gradient"))
        ));
    }

    #[test]
    fn lone_input_half_is_rejected() {
        let mut s = good();
        let bw = s
            .program(DeviceId(1))
            .backward_pos(MicroId(0), PartId(0))
            .unwrap();
        s.program_mut(DeviceId(1))
            .replace_kind(bw, InstrKind::BackwardInput);
        let errs = validate(&s).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::Duplicate { .. } | ValidationError::Missing { .. })));
    }

    #[test]
    fn allreduce_before_a_backward_is_an_order_violation() {
        // 1F1B 2×1 with an all-reduce and optimizer step per device, then
        // d0's AR moved to the front. Every timed executor treats AR as
        // local and finishes this schedule; the error is the order, not a
        // deadlock.
        let mut s = good();
        for d in 0..2u32 {
            let p = s.program_mut(DeviceId(d));
            p.push(Instr::all_reduce());
            p.push(Instr::optimizer_step());
        }
        assert!(validate(&s).is_ok());
        let d0 = s.program_mut(DeviceId(0));
        d0.retain(|i| i.kind != InstrKind::AllReduce);
        d0.insert(0, Instr::all_reduce());
        assert_eq!(
            validate(&s).unwrap_err(),
            vec![ValidationError::OrderViolation {
                device: DeviceId(0),
                what: "AllReduce at #0 before B0^0 at #4".into(),
            }]
        );
    }

    #[test]
    fn uneven_allreduce_counts_are_reported() {
        let mut s = good();
        s.program_mut(DeviceId(0)).push(Instr::all_reduce());
        let errs = validate(&s).unwrap_err();
        assert!(errs.iter().any(
            |e| matches!(e, ValidationError::OrderViolation { what, .. } if what.contains("AllReduce"))
        ));
    }
}
