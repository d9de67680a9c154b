//! Pipeline instructions — the IR of a pipeline schedule.
//!
//! A schedule is one instruction list per device (Table 3 of the paper):
//! forward/backward compute, recomputation, point-to-point activation and
//! gradient transfers, the data-parallel all-reduce and the optimizer step.
//! Every instruction carries the `(micro, part)` pair that identifies which
//! micro-batch and which on-device partition (pipeline direction / model
//! chunk) it belongs to.

use crate::ids::{DeviceId, MicroId, PartId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The operation an [`Instr`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrKind {
    /// Forward computation of one micro-batch through one stage.
    ///
    /// `ckpt = true` marks a *checkpointed* forward (`CFW` in the paper):
    /// intermediate activations are dropped and only the stage input is
    /// stashed, to be restored later by a [`InstrKind::Recompute`].
    Forward {
        /// Whether activation checkpointing is applied to this forward.
        ckpt: bool,
    },
    /// Backward computation of one micro-batch through one stage.
    Backward,
    /// Input-gradient half of a split backward (ZB-H1-style, the paper's
    /// §8 future work): computes the gradient w.r.t. the stage input, which
    /// is all the upstream stage needs — the weight half can be deferred
    /// into bubbles.
    BackwardInput,
    /// Weight-gradient half of a split backward: flexible work that only
    /// the optimizer step depends on.
    BackwardWeight,
    /// Recomputation (`RC`): replays the forward pass from the stashed
    /// checkpoint to restore the activations needed by the backward.
    Recompute,
    /// Send the stage-boundary activation to the device holding the next
    /// stage (`SA`).
    SendAct {
        /// Destination device.
        peer: DeviceId,
    },
    /// Receive the stage-boundary activation from the device holding the
    /// previous stage (`RA`).
    RecvAct {
        /// Source device.
        peer: DeviceId,
    },
    /// Send the boundary gradient to the device holding the previous stage
    /// (`SG`).
    SendGrad {
        /// Destination device.
        peer: DeviceId,
    },
    /// Receive the boundary gradient from the device holding the next stage
    /// (`RG`).
    RecvGrad {
        /// Source device.
        peer: DeviceId,
    },
    /// Gradient all-reduce across the data-parallel dimension (`AR`).
    AllReduce,
    /// Optimizer step at the end of an iteration (`OS`).
    OptimizerStep,
}

impl InstrKind {
    /// True for forward, backward and recompute instructions.
    #[inline]
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            InstrKind::Forward { .. }
                | InstrKind::Backward
                | InstrKind::BackwardInput
                | InstrKind::BackwardWeight
                | InstrKind::Recompute
        )
    }

    /// True for point-to-point send/recv instructions.
    #[inline]
    pub fn is_p2p(&self) -> bool {
        self.peer().is_some()
    }

    /// The p2p peer device, if this is a p2p instruction.
    #[inline]
    pub fn peer(&self) -> Option<DeviceId> {
        match *self {
            InstrKind::SendAct { peer }
            | InstrKind::RecvAct { peer }
            | InstrKind::SendGrad { peer }
            | InstrKind::RecvGrad { peer } => Some(peer),
            _ => None,
        }
    }

    /// True for the sending half of a p2p pair.
    #[inline]
    pub fn is_send(&self) -> bool {
        matches!(self, InstrKind::SendAct { .. } | InstrKind::SendGrad { .. })
    }

    /// True for the receiving half of a p2p pair.
    #[inline]
    pub fn is_recv(&self) -> bool {
        matches!(self, InstrKind::RecvAct { .. } | InstrKind::RecvGrad { .. })
    }

    /// A kind tag that ignores payload fields (used to match send/recv pairs
    /// and find positions irrespective of the peer).
    #[inline]
    pub fn tag(&self) -> InstrTag {
        match self {
            InstrKind::Forward { .. } => InstrTag::Forward,
            InstrKind::Backward => InstrTag::Backward,
            InstrKind::BackwardInput => InstrTag::BackwardInput,
            InstrKind::BackwardWeight => InstrTag::BackwardWeight,
            InstrKind::Recompute => InstrTag::Recompute,
            InstrKind::SendAct { .. } => InstrTag::SendAct,
            InstrKind::RecvAct { .. } => InstrTag::RecvAct,
            InstrKind::SendGrad { .. } => InstrTag::SendGrad,
            InstrKind::RecvGrad { .. } => InstrTag::RecvGrad,
            InstrKind::AllReduce => InstrTag::AllReduce,
            InstrKind::OptimizerStep => InstrTag::OptimizerStep,
        }
    }
}

/// Payload-free discriminant of [`InstrKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrTag {
    /// Forward (checkpointed or not).
    Forward,
    /// Backward.
    Backward,
    /// Input-gradient half of a split backward.
    BackwardInput,
    /// Weight-gradient half of a split backward.
    BackwardWeight,
    /// Recomputation.
    Recompute,
    /// Send activation.
    SendAct,
    /// Receive activation.
    RecvAct,
    /// Send gradient.
    SendGrad,
    /// Receive gradient.
    RecvGrad,
    /// Data-parallel all-reduce.
    AllReduce,
    /// Optimizer step.
    OptimizerStep,
}

/// One pipeline instruction: an operation plus the `(micro, part)` pair it
/// acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instr {
    /// What to do.
    pub kind: InstrKind,
    /// Micro-batch id (subscript `m`).
    pub micro: MicroId,
    /// Partition id (superscript `p`).
    pub part: PartId,
}

impl Instr {
    /// Plain (non-checkpointed) forward.
    pub fn forward(micro: impl Into<MicroId>, part: impl Into<PartId>) -> Self {
        Self {
            kind: InstrKind::Forward { ckpt: false },
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Checkpointed forward (`CFW`).
    pub fn ckpt_forward(micro: impl Into<MicroId>, part: impl Into<PartId>) -> Self {
        Self {
            kind: InstrKind::Forward { ckpt: true },
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Backward.
    pub fn backward(micro: impl Into<MicroId>, part: impl Into<PartId>) -> Self {
        Self {
            kind: InstrKind::Backward,
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Input-gradient half of a split backward (`Bi`).
    pub fn backward_input(micro: impl Into<MicroId>, part: impl Into<PartId>) -> Self {
        Self {
            kind: InstrKind::BackwardInput,
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Weight-gradient half of a split backward (`Bw`).
    pub fn backward_weight(micro: impl Into<MicroId>, part: impl Into<PartId>) -> Self {
        Self {
            kind: InstrKind::BackwardWeight,
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Recomputation (`RC`).
    pub fn recompute(micro: impl Into<MicroId>, part: impl Into<PartId>) -> Self {
        Self {
            kind: InstrKind::Recompute,
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Send activation to `peer`.
    pub fn send_act(micro: impl Into<MicroId>, part: impl Into<PartId>, peer: DeviceId) -> Self {
        Self {
            kind: InstrKind::SendAct { peer },
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Receive activation from `peer`.
    pub fn recv_act(micro: impl Into<MicroId>, part: impl Into<PartId>, peer: DeviceId) -> Self {
        Self {
            kind: InstrKind::RecvAct { peer },
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Send gradient to `peer`.
    pub fn send_grad(micro: impl Into<MicroId>, part: impl Into<PartId>, peer: DeviceId) -> Self {
        Self {
            kind: InstrKind::SendGrad { peer },
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Receive gradient from `peer`.
    pub fn recv_grad(micro: impl Into<MicroId>, part: impl Into<PartId>, peer: DeviceId) -> Self {
        Self {
            kind: InstrKind::RecvGrad { peer },
            micro: micro.into(),
            part: part.into(),
        }
    }

    /// Data-parallel all-reduce (micro/part are irrelevant and set to 0).
    pub fn all_reduce() -> Self {
        Self {
            kind: InstrKind::AllReduce,
            micro: MicroId(0),
            part: PartId(0),
        }
    }

    /// Optimizer step (micro/part are irrelevant and set to 0).
    pub fn optimizer_step() -> Self {
        Self {
            kind: InstrKind::OptimizerStep,
            micro: MicroId(0),
            part: PartId(0),
        }
    }

    /// True if this instruction is the forward of `(micro, part)`,
    /// checkpointed or not.
    #[inline]
    pub fn is_forward_of(&self, micro: MicroId, part: PartId) -> bool {
        matches!(self.kind, InstrKind::Forward { .. }) && self.micro == micro && self.part == part
    }

    /// True if this instruction is the backward of `(micro, part)`.
    #[inline]
    pub fn is_backward_of(&self, micro: MicroId, part: PartId) -> bool {
        self.kind == InstrKind::Backward && self.micro == micro && self.part == part
    }

    /// True if this is a checkpointed forward.
    #[inline]
    pub fn is_ckpt_forward(&self) -> bool {
        matches!(self.kind, InstrKind::Forward { ckpt: true })
    }
}

/// What the notation writes after a kind's prefix.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tail {
    /// Nothing (`AR`, `OS`).
    Bare,
    /// `<micro>^<part>`.
    Ids,
    /// `<micro>^<part>`, the separator byte, `d` and the peer.
    Peer(u8, DeviceId),
}

impl InstrKind {
    /// The notation table: each kind's prefix and what follows it. It is
    /// the one definition of the notation; [`Instr::encode`], and through
    /// it both `Display`s and [`crate::to_text`], write from it.
    #[inline]
    pub(crate) fn notation(self) -> (&'static str, Tail) {
        match self {
            InstrKind::Forward { ckpt: false } => ("F", Tail::Ids),
            InstrKind::Forward { ckpt: true } => ("cF", Tail::Ids),
            InstrKind::Backward => ("B", Tail::Ids),
            InstrKind::BackwardInput => ("Bi", Tail::Ids),
            InstrKind::BackwardWeight => ("Bw", Tail::Ids),
            InstrKind::Recompute => ("R", Tail::Ids),
            InstrKind::SendAct { peer } => ("SA", Tail::Peer(b'>', peer)),
            InstrKind::RecvAct { peer } => ("RA", Tail::Peer(b'<', peer)),
            InstrKind::SendGrad { peer } => ("SG", Tail::Peer(b'>', peer)),
            InstrKind::RecvGrad { peer } => ("RG", Tail::Peer(b'<', peer)),
            InstrKind::AllReduce => ("AR", Tail::Bare),
            InstrKind::OptimizerStep => ("OS", Tail::Bare),
        }
    }
}

/// The longest notation: a two-byte prefix, a `u32`, `^`, a `u32`, `>d`
/// and a `u32`.
const NOTATION_MAX: usize = 2 + 10 + 1 + 10 + 2 + 10;

/// `n`'s decimal digits, written at the end of `buf`.
#[inline]
pub(crate) fn decimal(n: u32, buf: &mut [u8; 10]) -> &[u8] {
    let mut n = n;
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

/// The number of decimal digits of `n`.
#[inline]
pub(crate) fn decimal_len(n: u32) -> usize {
    n.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// Copies `bytes` into `out` at `at` and returns the index after them.
#[inline]
pub(crate) fn put(out: &mut [u8], at: usize, bytes: &[u8]) -> usize {
    let end = at + bytes.len();
    out[at..end].copy_from_slice(bytes);
    end
}

/// Writes `n` in decimal into `out` at `at` and returns the index after it.
#[inline]
pub(crate) fn put_u32(out: &mut [u8], at: usize, n: u32) -> usize {
    put(out, at, decimal(n, &mut [0; 10]))
}

impl Instr {
    /// The length in bytes of the notation [`Instr::encode`] writes.
    #[inline]
    pub(crate) fn encoded_len(&self) -> usize {
        let (prefix, tail) = self.kind.notation();
        let ids = decimal_len(self.micro.0) + 1 + decimal_len(self.part.0);
        prefix.len()
            + match tail {
                Tail::Bare => 0,
                Tail::Ids => ids,
                Tail::Peer(_, peer) => ids + 2 + decimal_len(peer.0),
            }
    }

    /// Writes the notation into `out` at `at` and returns the index after
    /// it; `out` must hold [`Instr::encoded_len`] bytes from `at`.
    #[inline]
    pub(crate) fn encode(&self, out: &mut [u8], at: usize) -> usize {
        let (prefix, tail) = self.kind.notation();
        let at = put(out, at, prefix.as_bytes());
        let ids = |out: &mut [u8], at| {
            let at = put_u32(out, at, self.micro.0);
            let at = put(out, at, b"^");
            put_u32(out, at, self.part.0)
        };
        match tail {
            Tail::Bare => at,
            Tail::Ids => ids(out, at),
            Tail::Peer(sep, peer) => {
                let at = ids(out, at);
                let at = put(out, at, &[sep, b'd']);
                put_u32(out, at, peer.0)
            }
        }
    }
}

impl fmt::Display for Instr {
    /// Compact notation mirroring the paper: `F3^0`, `cF3^0`, `B3^0`,
    /// `R3^0`, `SA3^0>d2`, `RA3^0<d0`, `AR`, `OS`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0; NOTATION_MAX];
        let len = self.encode(&mut buf, 0);
        f.write_str(std::str::from_utf8(&buf[..len]).expect("the notation is ASCII"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let i = Instr::forward(3u32, 1u32);
        assert_eq!(i.micro, MicroId(3));
        assert_eq!(i.part, PartId(1));
        assert!(matches!(i.kind, InstrKind::Forward { ckpt: false }));
        assert!(!i.is_ckpt_forward());
        assert!(Instr::ckpt_forward(0u32, 0u32).is_ckpt_forward());
    }

    #[test]
    fn compute_and_comm_predicates() {
        assert!(Instr::forward(0u32, 0u32).kind.is_compute());
        assert!(Instr::backward(0u32, 0u32).kind.is_compute());
        assert!(Instr::recompute(0u32, 0u32).kind.is_compute());
        assert!(!Instr::all_reduce().kind.is_compute());

        let sa = Instr::send_act(0u32, 0u32, DeviceId(2));
        assert!(sa.kind.is_p2p());
        assert!(sa.kind.is_send());
        assert!(!sa.kind.is_recv());
        assert_eq!(sa.kind.peer(), Some(DeviceId(2)));

        let rg = Instr::recv_grad(0u32, 0u32, DeviceId(1));
        assert!(rg.kind.is_recv());
        assert!(!rg.kind.is_send());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Instr::forward(3u32, 0u32).to_string(), "F3^0");
        assert_eq!(Instr::ckpt_forward(3u32, 0u32).to_string(), "cF3^0");
        assert_eq!(Instr::backward(2u32, 1u32).to_string(), "B2^1");
        assert_eq!(Instr::recompute(2u32, 1u32).to_string(), "R2^1");
        assert_eq!(
            Instr::send_act(1u32, 0u32, DeviceId(2)).to_string(),
            "SA1^0>d2"
        );
        assert_eq!(
            Instr::recv_act(1u32, 0u32, DeviceId(0)).to_string(),
            "RA1^0<d0"
        );
        assert_eq!(Instr::all_reduce().to_string(), "AR");
        assert_eq!(Instr::optimizer_step().to_string(), "OS");
    }

    #[test]
    fn tags_ignore_payload() {
        assert_eq!(
            InstrKind::Forward { ckpt: true }.tag(),
            InstrKind::Forward { ckpt: false }.tag()
        );
        assert_eq!(
            InstrKind::SendAct { peer: DeviceId(0) }.tag(),
            InstrKind::SendAct { peer: DeviceId(9) }.tag()
        );
        assert_ne!(InstrTag::SendAct, InstrTag::RecvAct);
    }

    #[test]
    fn is_forward_of_matches_both_ckpt_states() {
        let m = MicroId(5);
        let p = PartId(0);
        assert!(Instr::forward(5u32, 0u32).is_forward_of(m, p));
        assert!(Instr::ckpt_forward(5u32, 0u32).is_forward_of(m, p));
        assert!(!Instr::backward(5u32, 0u32).is_forward_of(m, p));
        assert!(!Instr::forward(4u32, 0u32).is_forward_of(m, p));
    }
}
