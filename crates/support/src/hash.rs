//! The workspace's byte hash ([`fnv1a`]) and hashers for pre-hashed keys.
//!
//! FNV-1a is the one *stable* hash in the tree: transcript and
//! regret-curve digests and template fingerprints all have to repeat
//! across runs and hosts, which `DefaultHasher` does not promise.
//! `autoindex-sql`'s fingerprint scan folds its canonical bytes one
//! [`fnv1a_step`] at a time, as [`fnv1a_from`] does.
//!
//! The serving hot path keys its template caches by the statement's
//! canonical FNV-1a fingerprint — a value that *is already a hash*.
//! `std::collections::HashMap`'s default SipHash would re-hash those 8
//! bytes through 4 SipRounds per lookup; at two map probes per served
//! statement that is measurable against a sub-microsecond front end.
//!
//! [`U64HashMap`] replaces SipHash with one multiply-and-fold finisher.
//! FNV-1a's multiply only carries entropy *upwards*, so its low bits (the
//! ones `HashMap` picks buckets with) are the weakest; folding the high
//! half back down repairs that for table sizes that fit in memory:
//!
//! ```text
//! h' = (h ^ (h >> 32)) * 0x9E37_79B9_7F4A_7C15
//! ```
//!
//! [`WordHashMap`] is its counterpart for keys of several machine words
//! — a 128-bit template fingerprint with its stamp fold — and
//! [`WordHasher`] its hash, which also folds the configuration bitmaps the
//! tuner probes thousands of times per round into the `u64` its own
//! indexes key a [`U64HashMap`] by. Each word is
//! folded in with one 64 × 64 → 128-bit multiply whose halves are xored,
//! so a word's high bits reach the low bits a table picks buckets with:
//!
//! ```text
//! h' = fold((h ^ w) * 0x9E37_79B9_7F4A_7C15),  fold(x) = lo(x) ^ hi(x)
//! ```
//!
//! Neither is DoS-hardened — keys here are fingerprints and slot sets of
//! the workload's own templates and indexes, not attacker input — and
//! neither map is iterated where its order could reach an output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FNV-1a (64-bit) offset basis: the state before any byte.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a (64-bit) over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash from state `h` (start at [`FNV_OFFSET`]):
/// hashing pieces in turn equals hashing their concatenation.
pub fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a_step(h, b))
}

/// One FNV-1a step: byte `b` folded into state `h`.
#[inline]
pub fn fnv1a_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Multiply-fold hasher for `u64` keys that are already well distributed.
/// Only `write_u64` is expected on the hot path; the bulk [`Hasher::write`]
/// fallback keeps it correct (FNV-1a) for any other key shape.
#[derive(Debug, Default, Clone)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0;
        (h ^ (h >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn write(&mut self, bytes: &[u8]) {
        let h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = fnv1a_from(h, bytes);
    }
}

/// `BuildHasher` for [`U64Hasher`].
pub type U64BuildHasher = BuildHasherDefault<U64Hasher>;

/// A `HashMap` keyed by pre-hashed `u64`s (template fingerprints).
pub type U64HashMap<V> = HashMap<u64, V, U64BuildHasher>;

/// Multiply-fold hasher for keys made of whole machine words. Integer
/// writes fold in one word each; byte writes (how `Hash` hands over a
/// `[u64]`) fold in eight bytes at a time, the tail zero-padded.
#[derive(Debug, Default, Clone)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn fold_in(&mut self, w: u64) {
        let x = ((self.0 ^ w) as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x as u64 ^ (x >> 64) as u64;
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold_in(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.fold_in(n as u64);
        self.fold_in((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold_in(n as u64);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold_in(u64::from_ne_bytes(w.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.fold_in(u64::from_ne_bytes(last));
        }
    }
}

/// `BuildHasher` for [`WordHasher`].
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

/// A `HashMap` keyed by word sequences (template fingerprints with their
/// stamp folds).
pub type WordHashMap<K, V> = HashMap<K, V, WordBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrips_and_spreads_low_bits() {
        let mut m: U64HashMap<usize> = U64HashMap::default();
        // Keys agreeing on their low 32 bits (the worst case for raw FNV
        // bucketing) must still distribute and round-trip.
        for i in 0..1_000u64 {
            m.insert(i << 32 | 0xdead_beef, i as usize);
        }
        assert_eq!(m.len(), 1_000);
        for i in 0..1_000u64 {
            assert_eq!(m.get(&(i << 32 | 0xdead_beef)), Some(&(i as usize)));
        }
    }

    #[test]
    fn word_map_spreads_keys_that_differ_in_one_high_bit() {
        use std::hash::BuildHasher;
        // Word sequences that differ only in one word's top bit (the
        // highest slot of a configuration bitmap's word) must round-trip
        // and land in as many low-bit buckets as random keys would.
        let key = |i: usize| {
            let mut key = vec![u64::MAX; 5];
            key[i % 5] ^= 1 << 63;
            key.push(i as u64 / 5);
            key
        };
        let mut m: WordHashMap<Vec<u64>, usize> = WordHashMap::default();
        for i in 0..1_000 {
            m.insert(key(i), i);
        }
        for i in 0..1_000 {
            assert_eq!(m.get(&key(i)), Some(&i));
        }
        let build = WordBuildHasher::default();
        let buckets: std::collections::HashSet<u64> =
            (0..1_000).map(|i| build.hash_one(key(i)) & 1023).collect();
        assert!(buckets.len() > 550, "{} of 1024 buckets", buckets.len());
        // Byte writes fold whole words, the tail zero-padded.
        let (mut a, mut b) = (WordHasher::default(), WordHasher::default());
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        b.write_u64(u64::from_ne_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        b.write_u64(u64::from_ne_bytes([9, 0, 0, 0, 0, 0, 0, 0]));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn byte_fallback_matches_fnv1a() {
        let mut h = U64Hasher::default();
        h.write(b"abc");
        assert_eq!(h.0, fnv1a(b"abc"));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_chains() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_from(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
