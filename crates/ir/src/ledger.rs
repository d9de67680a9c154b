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

/// A per-device memory ledger with peak tracking and optional capacity.
#[derive(Debug, Clone)]
pub struct MemLedger {
    static_bytes: u64,
    dynamic: u64,
    peak: u64,
    capacity: Option<u64>,
    live: FastMap<AllocKey, u64>,
}

impl MemLedger {
    /// Creates a ledger with `static_bytes` permanently resident and an
    /// optional device capacity (OOM checking is disabled when `None`).
    pub fn new(static_bytes: u64, capacity: Option<u64>) -> Self {
        Self {
            static_bytes,
            dynamic: 0,
            peak: static_bytes,
            capacity,
            live: FastMap::default(),
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
        self.live.len()
    }

    /// True if `key` currently holds a live allocation.
    pub fn is_live(&self, key: AllocKey) -> bool {
        self.live.contains_key(&key)
    }

    /// Allocates `bytes` under `key`.
    ///
    /// Zero-byte requests are recorded (so state machines stay uniform) but
    /// cost nothing. Allocating an already-live key is a logic error.
    pub fn alloc(&mut self, key: AllocKey, bytes: u64) -> Result<(), OomError> {
        if let Some(prev) = self.live.insert(key, bytes) {
            panic!("double allocation of {key:?} (previous {prev} B)");
        }
        self.dynamic += bytes;
        let now = self.current();
        if let Some(cap) = self.capacity {
            if now > cap {
                // Roll back so the caller can report a consistent state.
                self.live.remove(&key);
                self.dynamic -= bytes;
                return Err(OomError {
                    requested: bytes,
                    in_use: self.current(),
                    capacity: cap,
                });
            }
        }
        self.peak = self.peak.max(now);
        Ok(())
    }

    /// Frees the allocation under `key`, returning its size.
    ///
    /// Freeing a key that is not live is a logic error: it means the
    /// instruction stream violated the activation lifecycle.
    pub fn free(&mut self, key: AllocKey) -> u64 {
        let bytes = self
            .live
            .remove(&key)
            .unwrap_or_else(|| panic!("freeing non-live allocation {key:?}"));
        self.dynamic -= bytes;
        bytes
    }

    /// Frees `key` if live; returns the freed size (0 if it was not live).
    pub fn free_if_live(&mut self, key: AllocKey) -> u64 {
        let bytes = self.live.remove(&key).unwrap_or(0);
        self.dynamic -= bytes;
        bytes
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
        let err = l.alloc(key(1), 20).unwrap_err();
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
    #[should_panic(expected = "double allocation")]
    fn double_alloc_panics() {
        let mut l = MemLedger::new(0, None);
        l.alloc(key(0), 1).unwrap();
        let _ = l.alloc(key(0), 1);
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
