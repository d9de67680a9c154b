//! Per-device memory accounting shared by the offline memory simulator
//! (mario-core) and the online cluster emulator (mario-cluster).
//!
//! The paper's memory simulation (§5.2) splits the footprint into a *static*
//! part (weights, gradients, optimizer states, framework overhead) and a
//! *dynamic* part (live activations, checkpoints, transfer buffers). The
//! ledger applies the same allocation rules in both execution engines so the
//! simulator-vs-real comparison (Fig. 10) measures modeling error, not
//! bookkeeping divergence.

use crate::hash::FastMap;
use crate::ids::{MicroId, PartId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a dynamic allocation holds; one live allocation per key at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocKey {
    /// Full activation set of one micro-batch on one partition (kept by a
    /// plain forward, or restored by a recompute).
    Act(MicroId, PartId),
    /// Stashed checkpoint (stage input) of one micro-batch (kept by a
    /// checkpointed forward).
    Ckpt(MicroId, PartId),
    /// Output boundary tensor waiting to be sent (pass-4 send buffer).
    OutBuf(MicroId, PartId),
    /// Received boundary tensor waiting to be consumed.
    InBuf(MicroId, PartId),
    /// Small stash kept between a split backward's input half and its
    /// weight half (the tensors the weight GEMM still needs).
    Wgrad(MicroId, PartId),
    /// Transient serialization buffer held while writing a model-state
    /// checkpoint (one per device; released when the write completes).
    Snapshot,
}

/// Error raised when an allocation would exceed the device capacity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OomError {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes already in use (static + dynamic).
    pub in_use: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory: requested {} B with {} B in use of {} B capacity",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// Why an allocation failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocError {
    /// The allocation would exceed the device capacity.
    Oom(OomError),
    /// The key already holds a live allocation: the instruction stream
    /// violated the activation lifecycle (a malformed schedule).
    Live(AllocKey),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Oom(e) => e.fmt(f),
            AllocError::Live(key) => write!(f, "double allocation of {key:?}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Number of allocation kinds the dense table holds: the four the
/// memory rules allocate per (micro, part).
const KINDS: usize = 4;

impl AllocKey {
    /// The dense table's kind number, micro and part of a key the memory
    /// rules allocate; `None` for `InBuf` and `Snapshot`, which stay cold.
    #[inline]
    fn dense(self) -> Option<(usize, MicroId, PartId)> {
        match self {
            AllocKey::Act(m, p) => Some((0, m, p)),
            AllocKey::Ckpt(m, p) => Some((1, m, p)),
            AllocKey::OutBuf(m, p) => Some((2, m, p)),
            AllocKey::Wgrad(m, p) => Some((3, m, p)),
            AllocKey::InBuf(..) | AllocKey::Snapshot => None,
        }
    }
}

/// A per-device memory ledger with peak tracking and optional capacity.
///
/// A ledger from [`crate::MemoryRules::ledger`] is dense: one live bit
/// per (kind, micro, part) for the schedule's micros and the device's
/// parts, and a size per (kind, part) fixed from the cost model when the
/// ledger is built, so allocating or freeing such a key hashes nothing.
/// Every other key — `InBuf`, `Snapshot`, ids outside the table, and
/// every key of a [`MemLedger::new`] ledger — is kept in a small cold map
/// with the size it was allocated at. A key is dense or cold by its ids
/// alone, so the two never hold the same key and the answers are the
/// same either way.
#[derive(Debug, Clone)]
pub struct MemLedger {
    static_bytes: u64,
    dynamic: u64,
    peak: u64,
    capacity: Option<u64>,
    /// Micros and parts the dense table covers.
    micros: usize,
    parts: usize,
    /// One byte per (micro, part), at `micro × parts + part`; bit `k` is
    /// set while kind `k` is live.
    live: Vec<u8>,
    /// Size of each kind, per part.
    sizes: Vec<[u64; KINDS]>,
    /// Live allocations in the dense table.
    dense_live: usize,
    /// Live allocations outside the dense table.
    cold: FastMap<AllocKey, u64>,
}

impl MemLedger {
    /// Creates a ledger with `static_bytes` permanently resident and an
    /// optional device capacity (OOM checking is disabled when `None`).
    /// It has no dense table: every key takes the size it is allocated at.
    pub fn new(static_bytes: u64, capacity: Option<u64>) -> Self {
        Self::dense(static_bytes, capacity, 0, Vec::new())
    }

    /// A ledger whose dense table covers micros `0..micros` and parts
    /// `0..sizes.len()`, `sizes[part][kind]` being the size of kind
    /// `kind` (numbered as [`AllocKey::dense`] does) on `part`.
    pub(crate) fn dense(
        static_bytes: u64,
        capacity: Option<u64>,
        micros: usize,
        sizes: Vec<[u64; KINDS]>,
    ) -> Self {
        let parts = sizes.len();
        Self {
            static_bytes,
            dynamic: 0,
            peak: static_bytes,
            capacity,
            micros,
            parts,
            live: vec![0; micros * parts],
            sizes,
            dense_live: 0,
            cold: FastMap::default(),
        }
    }

    /// Current total footprint (static + dynamic).
    #[inline]
    pub fn current(&self) -> u64 {
        self.static_bytes + self.dynamic
    }

    /// Current dynamic footprint only.
    #[inline]
    pub fn dynamic(&self) -> u64 {
        self.dynamic
    }

    /// Static footprint.
    #[inline]
    pub fn static_bytes(&self) -> u64 {
        self.static_bytes
    }

    /// Peak total footprint observed so far.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Number of live dynamic allocations.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.dense_live + self.cold.len()
    }

    /// The table cell of `key` — its byte in `live`, kind and part — or
    /// `None` when the key is cold.
    #[inline]
    fn cell(&self, key: AllocKey) -> Option<(usize, usize, usize)> {
        let (kind, m, p) = key.dense()?;
        let (m, p) = (m.index(), p.index());
        (m < self.micros && p < self.parts).then_some((m * self.parts + p, kind, p))
    }

    /// True if `key` currently holds a live allocation.
    pub fn is_live(&self, key: AllocKey) -> bool {
        match self.cell(key) {
            Some((i, kind, _)) => self.live[i] & (1 << kind) != 0,
            None => self.cold.contains_key(&key),
        }
    }

    /// Allocates `bytes` under `key`.
    ///
    /// Zero-byte requests are recorded (so state machines stay uniform) but
    /// cost nothing. Allocating an already-live key fails and leaves the
    /// ledger unchanged.
    ///
    /// # Panics
    /// Panics when `key` lies in the dense table and `bytes` is not the
    /// size the table fixed for it.
    pub fn alloc(&mut self, key: AllocKey, bytes: u64) -> Result<(), AllocError> {
        if let Some((_, kind, p)) = self.cell(key) {
            let fixed = self.sizes[p][kind];
            assert_eq!(
                bytes, fixed,
                "{key:?} has size {fixed} in the ledger's table"
            );
        }
        self.alloc_sized(key, || bytes)
    }

    /// Allocates `key` at the size the dense table fixes for it; a cold
    /// key is allocated at `size()`. Otherwise as [`MemLedger::alloc`].
    // Always inlined, so the memory rules' hot path holds no call into
    // the ledger whatever the crate's codegen-unit split.
    #[inline(always)]
    pub(crate) fn alloc_sized(
        &mut self,
        key: AllocKey,
        size: impl FnOnce() -> u64,
    ) -> Result<(), AllocError> {
        let Some((i, kind, p)) = self.cell(key) else {
            return self.cold_alloc(key, size());
        };
        let bit = 1 << kind;
        if self.live[i] & bit != 0 {
            return Err(AllocError::Live(key));
        }
        let bytes = self.sizes[p][kind];
        self.charge(bytes)?;
        self.live[i] |= bit;
        self.dense_live += 1;
        Ok(())
    }

    /// Adds `bytes` to the dynamic footprint, or reports the OOM with the
    /// footprint left as it was.
    #[inline]
    fn charge(&mut self, bytes: u64) -> Result<(), AllocError> {
        let now = self.current() + bytes;
        if let Some(cap) = self.capacity {
            if now > cap {
                return Err(AllocError::Oom(OomError {
                    requested: bytes,
                    in_use: self.current(),
                    capacity: cap,
                }));
            }
        }
        self.dynamic += bytes;
        self.peak = self.peak.max(now);
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn cold_alloc(&mut self, key: AllocKey, bytes: u64) -> Result<(), AllocError> {
        if self.cold.contains_key(&key) {
            return Err(AllocError::Live(key));
        }
        self.charge(bytes)?;
        self.cold.insert(key, bytes);
        Ok(())
    }

    /// Frees the allocation under `key`, returning its size.
    ///
    /// Freeing a key that is not live is a logic error: it means the
    /// instruction stream violated the activation lifecycle.
    pub fn free(&mut self, key: AllocKey) -> u64 {
        self.take(key)
            .unwrap_or_else(|| panic!("freeing non-live allocation {key:?}"))
    }

    /// Frees `key` if live; returns the freed size (0 if it was not live).
    #[inline]
    pub fn free_if_live(&mut self, key: AllocKey) -> u64 {
        self.take(key).unwrap_or(0)
    }

    /// Frees `key` and returns its size, or `None` if it was not live.
    #[inline]
    fn take(&mut self, key: AllocKey) -> Option<u64> {
        let Some((i, kind, p)) = self.cell(key) else {
            return self.cold_free(key);
        };
        let bit = 1 << kind;
        if self.live[i] & bit == 0 {
            return None;
        }
        self.live[i] &= !bit;
        self.dense_live -= 1;
        let bytes = self.sizes[p][kind];
        self.dynamic -= bytes;
        Some(bytes)
    }

    #[cold]
    #[inline(never)]
    fn cold_free(&mut self, key: AllocKey) -> Option<u64> {
        let bytes = self.cold.remove(&key)?;
        self.dynamic -= bytes;
        Some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(m: u32) -> AllocKey {
        AllocKey::Act(MicroId(m), PartId(0))
    }

    #[test]
    fn tracks_peak_over_alloc_free_cycles() {
        let mut l = MemLedger::new(100, None);
        l.alloc(key(0), 50).unwrap();
        l.alloc(key(1), 50).unwrap();
        assert_eq!(l.current(), 200);
        l.free(key(0));
        l.alloc(key(2), 10).unwrap();
        assert_eq!(l.current(), 160);
        assert_eq!(l.peak(), 200);
        assert_eq!(l.dynamic(), 60);
        assert_eq!(l.static_bytes(), 100);
    }

    #[test]
    fn oom_is_detected_and_rolled_back() {
        let mut l = MemLedger::new(10, Some(100));
        l.alloc(key(0), 80).unwrap();
        let Err(AllocError::Oom(err)) = l.alloc(key(1), 20) else {
            panic!("expected an OOM");
        };
        assert_eq!(err.requested, 20);
        assert_eq!(err.capacity, 100);
        assert_eq!(err.in_use, 90);
        // The failed allocation must not linger.
        assert!(!l.is_live(key(1)));
        assert_eq!(l.current(), 90);
        // And we can still free the old one and retry.
        l.free(key(0));
        l.alloc(key(1), 20).unwrap();
    }

    #[test]
    fn zero_byte_allocations_keep_state_machines_uniform() {
        let mut l = MemLedger::new(0, Some(10));
        l.alloc(AllocKey::Ckpt(MicroId(0), PartId(0)), 0).unwrap();
        assert!(l.is_live(AllocKey::Ckpt(MicroId(0), PartId(0))));
        assert_eq!(l.current(), 0);
        assert_eq!(l.free(AllocKey::Ckpt(MicroId(0), PartId(0))), 0);
    }

    #[test]
    fn double_alloc_fails_and_keeps_the_live_allocation() {
        let mut l = MemLedger::new(0, None);
        l.alloc(key(0), 1).unwrap();
        assert_eq!(l.alloc(key(0), 5), Err(AllocError::Live(key(0))));
        assert_eq!(l.current(), 1);
        assert_eq!(l.free(key(0)), 1);
    }

    #[test]
    #[should_panic(expected = "non-live allocation")]
    fn free_of_dead_key_panics() {
        let mut l = MemLedger::new(0, None);
        l.free(key(0));
    }

    #[test]
    fn free_if_live_is_permissive() {
        let mut l = MemLedger::new(0, None);
        assert_eq!(l.free_if_live(key(0)), 0);
        l.alloc(key(0), 5).unwrap();
        assert_eq!(l.free_if_live(key(0)), 5);
        assert_eq!(l.live_count(), 0);
        assert_eq!(l.dynamic(), 0);
    }

    #[test]
    fn in_range_keys_live_only_in_the_dense_table() {
        // Sizes by part: Act, Ckpt, OutBuf, Wgrad.
        let mut l = MemLedger::dense(0, None, 2, vec![[10, 2, 3, 0], [11, 4, 5, 1]]);
        let keys = |m: u32, p: u32| {
            let (m, p) = (MicroId(m), PartId(p));
            [
                AllocKey::Act(m, p),
                AllocKey::Ckpt(m, p),
                AllocKey::OutBuf(m, p),
                AllocKey::Wgrad(m, p),
            ]
        };
        for (m, p) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            for (key, bytes) in keys(m, p).into_iter().zip(l.sizes[p as usize]) {
                l.alloc(key, bytes).unwrap();
            }
        }
        assert!(l.cold.is_empty());
        assert_eq!((l.live_count(), l.current()), (16, 2 * 15 + 2 * 21));
        // Past the table, and the kinds it does not hold, are cold.
        l.alloc(AllocKey::Act(MicroId(2), PartId(0)), 7).unwrap();
        l.alloc(AllocKey::Ckpt(MicroId(0), PartId(u32::MAX)), 9)
            .unwrap();
        l.alloc(AllocKey::InBuf(MicroId(0), PartId(0)), 5).unwrap();
        l.alloc(AllocKey::Snapshot, 0).unwrap();
        assert_eq!((l.cold.len(), l.live_count()), (4, 20));
        assert_eq!(l.free(AllocKey::Wgrad(MicroId(1), PartId(1))), 1);
        assert_eq!(l.free_if_live(AllocKey::Wgrad(MicroId(1), PartId(1))), 0);
        assert_eq!(l.free(AllocKey::Snapshot), 0);
        assert_eq!(l.live_count(), 18);
    }

    #[test]
    fn a_header_inflated_past_its_instructions_sizes_no_table() {
        use crate::topology::{SchemeKind, Topology};
        use crate::{from_text, DeviceId, MemoryRules, Schedule, UnitCost};
        let cost = UnitCost::paper_grid();
        let s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 2), 2, vec![0, 0]);
        let l = MemoryRules::new(&s).ledger(DeviceId(0), &cost, 0, None);
        assert_eq!((l.micros, l.parts), (2, 1));
        // Two million (micro, part) cells, three instructions.
        let text = "mario-schedule v1\nscheme W:1000000 devices 1 micros 2\n\
                    routes 0 0\nd0: F0^0 B0^0 F1^0\n";
        let s = from_text(text).unwrap();
        let l = MemoryRules::new(&s).ledger(DeviceId(0), &cost, 0, None);
        assert!(l.live.is_empty() && l.sizes.is_empty());
    }

    #[test]
    #[should_panic(expected = "in the ledger's table")]
    fn a_table_key_takes_only_its_table_size() {
        let mut l = MemLedger::dense(0, None, 1, vec![[10, 2, 3, 0]]);
        let _ = l.alloc(key(0), 11);
    }

    #[test]
    fn distinct_key_kinds_do_not_collide() {
        let mut l = MemLedger::new(0, None);
        l.alloc(AllocKey::Act(MicroId(0), PartId(0)), 1).unwrap();
        l.alloc(AllocKey::Ckpt(MicroId(0), PartId(0)), 2).unwrap();
        l.alloc(AllocKey::OutBuf(MicroId(0), PartId(0)), 3).unwrap();
        l.alloc(AllocKey::InBuf(MicroId(0), PartId(0)), 4).unwrap();
        assert_eq!(l.current(), 10);
        assert_eq!(l.live_count(), 4);
    }
}
