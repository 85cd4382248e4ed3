//! A seeded multiply-fold hasher for the simulators' internal maps.
//!
//! The simulators key their hot maps (ledger balances, explorer index,
//! ENS registrar/registry/resolver, subgraph fold state) by keccak-derived
//! fixed-width values — 20-byte addresses and 32-byte hashes. std's
//! SipHash spends most of a lookup on those keys; this hasher folds each
//! 8-byte word into the state with one 64×64→128-bit multiply.
//!
//! The seed is drawn once per process from std's [`RandomState`], so map
//! iteration order stays as unspecified as it is with SipHash (nothing may
//! depend on it), while every [`FastState`] in one process hashes equal
//! keys to equal values. Maps whose keys arrive from outside the simulator
//! — crawled pages, decoded files, serve requests — keep SipHash
//! (DESIGN.md, hashing policy).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Odd 64-bit multipliers (fractional digits of π).
const MUL_WORD: u64 = 0x243f_6a88_85a3_08d3;
const MUL_FINISH: u64 = 0x1319_8a2e_0370_7344 | 1;

/// The high and low halves of a full 128-bit product, xor-folded.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = (a as u128).wrapping_mul(b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The per-process seed, drawn from [`RandomState`] on first use.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// [`BuildHasher`] for [`FastHasher`], seeded once per process.
///
/// ```
/// use ens_types::{Address, FastMap};
///
/// let mut balances: FastMap<Address, u64> = FastMap::default();
/// balances.insert(Address::derive(b"alice"), 7);
/// assert_eq!(balances[&Address::derive(b"alice")], 7);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        FastState {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.seed }
    }
}

/// The multiply-fold hasher built by [`FastState`].
#[derive(Clone, Debug)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline(always)]
    fn mix(&mut self, word: u64) {
        self.state = fold_mul(self.state ^ word, MUL_WORD);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            // The tail length goes into the top bits so "a" and "a\0"
            // differ even without a length prefix.
            self.mix(u64::from_le_bytes(buf) ^ ((tail.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold_mul(self.state, MUL_FINISH)
    }
}

/// A [`HashMap`] hashed with [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, Hash32, LabelHash};
    use proptest::prelude::*;

    #[test]
    fn states_in_one_process_agree() {
        let (a, b) = (FastState::default(), FastState::default());
        for key in [
            Address::derive(b"alice"),
            Address::ZERO,
            Address::derive_indexed("sender", 42),
        ] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        let h = LabelHash(Hash32([7; 32]));
        assert_eq!(a.hash_one(h), b.hash_one(h));
        assert_eq!(a.hash_one("gold"), b.hash_one("gold"));
    }

    #[test]
    fn distinct_keys_spread() {
        let s = FastState::default();
        let hashes: std::collections::BTreeSet<u64> = (0..10_000u64)
            .map(|i| s.hash_one(Address::derive_indexed("spread", i)))
            .collect();
        assert_eq!(hashes.len(), 10_000, "64-bit collisions on 10K keys");
        // The low bits pick the bucket: all 256 values of the low byte
        // appear over 10K keys.
        let low: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        assert_eq!(low.len(), 256);
    }

    #[test]
    fn short_tails_are_length_sensitive() {
        let s = FastState::default();
        assert_ne!(s.hash_one(b"a".as_slice()), s.hash_one(b"a\0".as_slice()));
        let (mut x, mut y) = (s.build_hasher(), s.build_hasher());
        x.write(b"a");
        y.write(b"a\0");
        assert_ne!(x.finish(), y.finish());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any sequence of inserts and removes leaves a fast-hashed map and
        /// a std `HashMap` with the same contents.
        #[test]
        fn fast_map_matches_std_map(
            ops in proptest::collection::vec((any::<bool>(), 0u64..64, any::<u32>()), 0..300),
        ) {
            let mut fast: FastMap<Address, u32> = FastMap::default();
            let mut std_map: HashMap<Address, u32> = HashMap::new();
            for (insert, k, v) in ops {
                let key = Address::derive_indexed("key", k);
                if insert {
                    prop_assert_eq!(fast.insert(key, v), std_map.insert(key, v));
                } else {
                    prop_assert_eq!(fast.remove(&key), std_map.remove(&key));
                }
            }
            prop_assert_eq!(fast.len(), std_map.len());
            for (k, v) in &std_map {
                prop_assert_eq!(fast.get(k), Some(v));
            }
        }
    }
}
