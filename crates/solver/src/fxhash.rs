//! A fixed-key multiplicative hasher for the solver's internal memo
//! tables (the Fx hash of rustc and Firefox).
//!
//! The standard library's SipHash is randomly keyed to resist
//! hash-flooding; the tables here are keyed by the solver's own ids and
//! literals, never by untrusted input, and a few multiplies per key cost
//! far less than a SipHash round. A fixed key also makes iteration order
//! repeat from run to run, but nothing relies on that: every table using
//! this hasher is only probed, or read through a sort (see
//! `BitBlaster::inputs_sorted`) or into an ordered `Model`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The multiplier of the Fx hash: odd, with well-mixed high bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds each written word into the state by rotate, xor and multiply.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash(&(1u8, 2u32, 3u32)), hash(&(1u8, 2u32, 3u32)));
        assert_ne!(hash(&(1u8, 2u32, 3u32)), hash(&(1u8, 3u32, 2u32)));
        let hashes: std::collections::HashSet<u64> = (0u32..1000).map(|i| hash(&i)).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_writes_fold_every_chunk() {
        let bytes = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(b"abcdefgh1"), bytes(b"abcdefgh2"));
        assert_ne!(bytes(b"1abcdefgh"), bytes(b"2abcdefgh"));
    }
}
