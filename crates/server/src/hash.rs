//! Stable content hashing for cache keys.
//!
//! The design cache keys compiled designs by the *content* of what
//! produced them (a [`SocConfig`](occ_soc::SocConfig)), so two clients
//! submitting the same design must hash it to the same key — across
//! processes and across runs.
//! `std::collections::hash_map::DefaultHasher` is explicitly *not*
//! guaranteed stable, so the cache uses FNV-1a 64-bit: tiny, fully
//! specified, and entirely adequate for a cache whose collisions cost
//! a rebuild, not correctness (values are verified by construction —
//! a collision would hand a job artifacts for a different design, and
//! [`CaptureModel::with_graph`](occ_fsim::CaptureModel::with_graph)
//! rejects mismatched graphs).

/// FNV-1a, 64-bit. Feed bytes and primitives, then [`Fnv64::finish`].
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` via its bit pattern (`to_bits`), so `0.05`
    /// hashes identically everywhere and `-0.0 != 0.0` is harmless.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Renders a hash the way the protocol exposes it: 16 lowercase hex
/// digits.
#[must_use]
pub fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv1a_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn length_prefix_separates_fields() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(hex(0x2a), "000000000000002a");
    }
}
