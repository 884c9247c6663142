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
//! This is not DoS-hardened — keys here are fingerprints of the workload's
//! own templates (bounded by the template store capacity), not attacker
//! input.

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
