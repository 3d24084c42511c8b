//! FxHash, `rustc-hash`'s multiply–rotate hasher, for maps keyed by lines,
//! addresses, write-ids and litmus states: no adversary picks those keys,
//! so SipHash buys nothing. `(hash + word) * K` mixes upward only and the
//! bucket comes from the low bits, so `finish` rotates the high bits down,
//! by 21 rather than `rustc-hash` 2's 26: over keys 1, 8 or 64 bytes apart
//! in 256–4096 buckets, 21 fills at least 74 % of them, 26 as few as 45 %.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`] (build with `default()`).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through [`FxHasher`] (build with `default()`).
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiply–rotate hasher (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for FxHasher {
    /// Eight bytes a word, little-endian, the tail zero-padded: a slice of
    /// integers arrives here in one call.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        if let tail @ [_, ..] = words.remainder() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
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
        self.0.rotate_left(21)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    #[test]
    fn hashes_are_deterministic_and_key_sensitive() {
        assert_eq!(fx(&0x1040u64), fx(&0x1040u64));
        assert_eq!(fx(&vec![1u64, 2, 3]), fx(&vec![1u64, 2, 3]));
        assert_ne!(fx(&0x1040u64), fx(&0x1080u64));
        assert_ne!(fx(&vec![1u64, 2, 3]), fx(&vec![1u64, 3, 2]));
        assert_ne!(fx(&(1u16, 0x40u64)), fx(&(2u16, 0x40u64)));
        assert_ne!(fx(&vec![1u8, 2, 3]), fx(&vec![1u8, 2, 3, 0]));
    }

    #[test]
    fn aligned_line_keys_spread_over_the_low_bits() {
        let buckets: HashSet<u64> = (0..1024u64).map(|i| fx(&(i * 64)) & 1023).collect();
        assert!(buckets.len() >= 900, "1024 lines fill only {} of 1024 buckets", buckets.len());
    }
}
