//! Per-device instruction lists and the edit operations the graph tuner
//! (paper §5.1) performs on them.
//!
//! A [`DeviceProgram`] is an ordered list of [`Instr`] executed in-order by
//! one device; *horizontal dependencies* in the paper's terminology are
//! exactly this list order. The graph-tuner passes work by locating
//! instructions, substituting kinds, and moving instructions between slots,
//! so this module provides precise position queries and order-preserving
//! edits.

use crate::ids::{DeviceId, MicroId, PartId};
use crate::instr::{decimal_len, put, put_u32, Instr, InstrKind, InstrTag};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The ordered instruction list of one device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceProgram {
    /// The device executing this list.
    pub device: DeviceId,
    instrs: Vec<Instr>,
}

impl DeviceProgram {
    /// Creates an empty program for `device`.
    pub fn new(device: DeviceId) -> Self {
        Self {
            device,
            instrs: Vec::new(),
        }
    }

    /// Creates a program from an existing instruction vector.
    pub fn from_instrs(device: DeviceId, instrs: Vec<Instr>) -> Self {
        Self { device, instrs }
    }

    /// Appends an instruction.
    #[inline]
    pub fn push(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instructions, in execution order.
    #[inline]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Iterates over `(position, instruction)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Instr)> {
        self.instrs.iter().enumerate()
    }

    /// The instruction at `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> Option<&Instr> {
        self.instrs.get(pos)
    }

    /// Position of the first instruction matching `pred`.
    pub fn position(&self, pred: impl Fn(&Instr) -> bool) -> Option<usize> {
        self.instrs.iter().position(pred)
    }

    /// Position of the (unique) instruction with tag `tag` for `(micro, part)`.
    pub fn position_of(&self, tag: InstrTag, micro: MicroId, part: PartId) -> Option<usize> {
        self.position(|i| i.kind.tag() == tag && i.micro == micro && i.part == part)
    }

    /// Position of the backward of `(micro, part)`.
    pub fn backward_pos(&self, micro: MicroId, part: PartId) -> Option<usize> {
        self.position_of(InstrTag::Backward, micro, part)
    }

    /// Counts instructions matching `pred`.
    pub fn count(&self, pred: impl Fn(&Instr) -> bool) -> usize {
        self.instrs.iter().filter(|i| pred(i)).count()
    }

    /// Replaces the kind of the instruction at `pos`.
    pub fn replace_kind(&mut self, pos: usize, kind: InstrKind) {
        self.instrs[pos].kind = kind;
    }

    /// Inserts `instr` at `pos`, shifting later instructions right.
    pub fn insert(&mut self, pos: usize, instr: Instr) {
        self.instrs.insert(pos, instr);
    }

    /// Keeps only the instructions for which `keep` returns true, visiting
    /// each once, in order.
    pub fn retain(&mut self, keep: impl FnMut(&Instr) -> bool) {
        self.instrs.retain(keep);
    }

    /// Rotates `range` left by `mid`: the adjacent runs
    /// `range.start..range.start + mid` and `range.start + mid..range.end`
    /// swap places, each keeping its own order, and every instruction
    /// outside `range` stays put. `rotate_left(range, range.len() - mid)`
    /// undoes it.
    pub fn rotate_left(&mut self, range: std::ops::Range<usize>, mid: usize) {
        self.instrs[range].rotate_left(mid);
    }

    /// Multiset of compute work `(tag, micro, part)` — used by tests to check
    /// that tuner passes never lose or duplicate compute (recomputes aside).
    pub fn compute_multiset(&self) -> Vec<(InstrTag, MicroId, PartId)> {
        let mut v: Vec<_> = self
            .instrs
            .iter()
            .filter(|i| i.kind.is_compute())
            .map(|i| (i.kind.tag(), i.micro, i.part))
            .collect();
        v.sort_by_key(|&(t, m, p)| (format!("{t:?}"), m, p));
        v
    }

    /// The peak number of simultaneously "on-the-fly" micro-batches on this
    /// device: micro-batches whose forward has been issued but whose
    /// backward has not yet completed (paper §2.1). For checkpointed
    /// forwards only a checkpoint is retained, so they are *excluded* when
    /// `count_ckpt` is false.
    pub fn peak_on_the_fly(&self, count_ckpt: bool) -> usize {
        let mut live = 0usize;
        let mut recomputed = 0usize;
        let mut peak = 0usize;
        for i in &self.instrs {
            match i.kind {
                InstrKind::Forward { ckpt: false } => live += 1,
                InstrKind::Forward { ckpt: true } if count_ckpt => live += 1,
                InstrKind::Recompute if !count_ckpt => recomputed += 1,
                // A split micro-batch retires at the *weight* half, not the
                // input half: the weight GEMM still reads the activation.
                InstrKind::Backward | InstrKind::BackwardWeight => {
                    let total = live + recomputed;
                    if total > 0 {
                        // Retire one micro-batch: prefer a recomputed one,
                        // since its activations are the freshest.
                        if recomputed > 0 {
                            recomputed -= 1;
                        } else {
                            live = live.saturating_sub(1);
                        }
                    }
                }
                _ => {}
            }
            peak = peak.max(live + recomputed);
        }
        peak
    }
}

impl DeviceProgram {
    /// The length in bytes of the line [`DeviceProgram::encode_line`]
    /// writes.
    pub(crate) fn line_len(&self) -> usize {
        let instrs: usize = self.instrs.iter().map(|i| 1 + i.encoded_len()).sum();
        2 + decimal_len(self.device.0) + instrs
    }

    /// Writes the program's line, `dK:` and a space before each
    /// instruction's notation, into `out` at `at` and returns the index
    /// after it; `out` must hold [`DeviceProgram::line_len`] bytes from
    /// `at`.
    pub(crate) fn encode_line(&self, out: &mut [u8], at: usize) -> usize {
        let at = put(out, at, b"d");
        let at = put_u32(out, at, self.device.0);
        let mut at = put(out, at, b":");
        for i in &self.instrs {
            at = put(out, at, b" ");
            at = i.encode(out, at);
        }
        at
    }
}

impl fmt::Display for DeviceProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = vec![0; self.line_len()];
        self.encode_line(&mut line, 0);
        f.write_str(std::str::from_utf8(&line).expect("the notation is ASCII"))
    }
}

impl<'a> IntoIterator for &'a DeviceProgram {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;
    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeviceProgram {
        let mut p = DeviceProgram::new(DeviceId(0));
        p.push(Instr::forward(0u32, 0u32));
        p.push(Instr::forward(1u32, 0u32));
        p.push(Instr::backward(0u32, 0u32));
        p.push(Instr::forward(2u32, 0u32));
        p.push(Instr::backward(1u32, 0u32));
        p.push(Instr::backward(2u32, 0u32));
        p
    }

    #[test]
    fn position_queries() {
        let p = sample();
        let at = |tag, m: u32| p.position_of(tag, MicroId(m), PartId(0));
        assert_eq!(at(InstrTag::Forward, 1), Some(1));
        assert_eq!(p.backward_pos(MicroId(1), PartId(0)), Some(4));
        assert_eq!(at(InstrTag::Forward, 9), None);
        assert_eq!(at(InstrTag::Recompute, 0), None);
    }

    #[test]
    fn rotate_left_swaps_adjacent_runs_and_undoes() {
        let mut p = sample();
        // Swap [F1 B0] with [F2 B1]; F0 and B2 stay put.
        p.rotate_left(1..5, 2);
        let s: Vec<String> = p.instrs().iter().map(|i| i.to_string()).collect();
        assert_eq!(s, vec!["F0^0", "F2^0", "B1^0", "F1^0", "B0^0", "B2^0"]);
        p.rotate_left(1..5, 2);
        assert_eq!(p, sample());
        // Unequal runs: [B0] and [F2 B1] swap, and the complement undoes.
        p.rotate_left(2..5, 1);
        let s: Vec<String> = p.instrs().iter().map(|i| i.to_string()).collect();
        assert_eq!(s, vec!["F0^0", "F1^0", "F2^0", "B1^0", "B0^0", "B2^0"]);
        p.rotate_left(2..5, 2);
        assert_eq!(p, sample());
    }

    #[test]
    fn replace_kind_toggles_checkpointing() {
        let mut p = sample();
        p.replace_kind(0, InstrKind::Forward { ckpt: true });
        assert!(p.instrs()[0].is_ckpt_forward());
        assert_eq!(p.instrs()[0].micro, MicroId(0));
    }

    #[test]
    fn peak_on_the_fly_counts_live_microbatches() {
        let p = sample();
        // F0 F1 -> 2 live; B0 -> 1; F2 -> 2; B1 -> 1; B2 -> 0. Peak 2.
        assert_eq!(p.peak_on_the_fly(true), 2);
    }

    #[test]
    fn peak_on_the_fly_ignores_checkpointed_forwards() {
        let mut p = DeviceProgram::new(DeviceId(0));
        for m in 0..4u32 {
            p.push(Instr::ckpt_forward(m, 0u32));
        }
        for m in 0..4u32 {
            p.push(Instr::recompute(m, 0u32));
            p.push(Instr::backward(m, 0u32));
        }
        // Checkpointed forwards keep no full activation; only one recompute
        // is live at a time.
        assert_eq!(p.peak_on_the_fly(false), 1);
        // If we count checkpoints as full residents we'd see 4.
        assert_eq!(p.peak_on_the_fly(true), 4);
    }

    #[test]
    fn compute_multiset_ignores_comm() {
        let mut p = sample();
        p.push(Instr::send_act(0u32, 0u32, DeviceId(1)));
        let before = p.compute_multiset();
        p.push(Instr::recv_grad(0u32, 0u32, DeviceId(1)));
        assert_eq!(before, p.compute_multiset());
        assert_eq!(before.len(), 6);
    }

    #[test]
    fn display_is_compact() {
        let p = sample();
        assert_eq!(p.to_string(), "d0: F0^0 F1^0 B0^0 F2^0 B1^0 B2^0");
    }
}
