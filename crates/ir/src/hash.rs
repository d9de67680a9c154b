//! A fast, deterministic hasher for the small integer keys of the
//! executors' per-instruction maps (channels, links, ledger keys).
//!
//! `std`'s default SipHash is DoS-resistant and randomly seeded, neither of
//! which these keys need: they are device, micro and part ids the program
//! itself produces. This is the multiply–rotate word hash rustc uses
//! internally (FxHash), one word per integer written.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time multiply–rotate hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed through [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn is_seed_free_and_separates_small_keys() {
        // No per-process random state: a key hashes the same in every run.
        assert_eq!(hash_of(7u64), 7u64.wrapping_mul(SEED));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
        let distinct: FastSet<u64> = (0..64u32)
            .flat_map(|a| (0..64u32).map(move |b| hash_of((a, b))))
            .collect();
        assert_eq!(distinct.len(), 64 * 64);
    }

    #[test]
    fn byte_writes_pad_partial_words() {
        let mut h = FastHasher::default();
        h.write(&[7, 0, 0]);
        assert_eq!(h.finish(), hash_of(7u64));
        assert_ne!(hash_of("abcdefghi"), hash_of("abcdefgh"));
    }
}
