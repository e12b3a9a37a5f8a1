//! Content-addressed canonical hashing of simulation inputs.
//!
//! Simulation in this workspace is a *pure* function of its configuration
//! and seed, which makes whole-result memoization sound — but only if two
//! configurations that would simulate identically also hash identically,
//! and two that would diverge never collide by construction (modulo 64-bit
//! FNV collisions). [`CanonicalHash`] provides that fingerprint: each
//! config type feeds every semantically meaningful field through a
//! [`CanonicalHasher`] in a fixed, documented order, using the same
//! FNV-1a-64 discipline as the sweep journal and the trace-cache key.
//!
//! ## Canonical encoding rules
//!
//! * **Floats** are encoded by IEEE-754 bit pattern
//!   (`f64::to_bits().to_le_bytes()`). This is deliberately exact:
//!   `-0.0` and `0.0` hash *differently*, and NaNs with different payloads
//!   hash differently. Hash equality means bit-level input equality, which
//!   is precisely the determinism contract of the simulator (a sign bit
//!   can change downstream arithmetic).
//! * **Strings and slices** are length-prefixed so that adjacent fields
//!   cannot alias (`("ab", "c")` vs `("a", "bc")`).
//! * **Enums** write a discriminant tag byte before their payload.
//! * **`Option`** writes a `0`/`1` tag byte, then the payload if present.
//!
//! Types implement [`CanonicalHash`] in the crate that defines them; the
//! top-level `Scenario` fingerprint in `sustain-hpc-core` composes them.

/// Incremental FNV-1a-64 hasher over a canonical byte encoding.
///
/// The constants match the journal hashing in `core::sweep` and the
/// `TraceKey` fingerprint in `sustain-grid`: offset basis
/// `0xCBF2_9CE4_8422_2325`, prime `0x0000_0100_0000_01B3`.
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    state: u64,
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        CanonicalHasher::new()
    }
}

impl CanonicalHasher {
    /// FNV-1a-64 offset basis.
    pub(crate) const OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    /// FNV-1a-64 prime.
    pub(crate) const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Start a new hash at the FNV offset basis.
    pub fn new() -> CanonicalHasher {
        CanonicalHasher {
            state: Self::OFFSET_BASIS,
        }
    }

    /// Mix raw bytes (no length prefix — callers that need framing use
    /// [`write_str`](Self::write_str) / [`write_len`](Self::write_len)).
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Mix a single byte — used for enum discriminants and bool/Option
    /// tags.
    pub fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// Mix a `bool` as a tag byte (`0` / `1`).
    pub fn write_bool(&mut self, v: bool) {
        self.write_tag(v as u8);
    }

    /// Mix a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mix a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mix a `usize`, widened to `u64` so the hash is identical across
    /// pointer widths.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mix a collection length prefix (alias for
    /// [`write_usize`](Self::write_usize), named for intent).
    pub(crate) fn write_len(&mut self, len: usize) {
        self.write_usize(len);
    }

    /// Mix an `f64` by exact bit pattern. `-0.0 != 0.0` and NaN payloads
    /// are significant — see the module docs for why.
    pub fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    /// Mix a string, length-prefixed to prevent field aliasing.
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 64-bit fingerprint of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// A canonical, content-addressed 64-bit fingerprint of a value.
///
/// Implementations must write every field that influences simulation, in
/// a fixed order, using the framing rules in the module docs. Two values
/// hash equal iff their canonical encodings are byte-identical.
pub trait CanonicalHash {
    /// Feed this value's canonical encoding into `hasher`.
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher);

    /// The standalone FNV-1a-64 fingerprint of this value.
    fn canonical_hash(&self) -> u64 {
        let mut hasher = CanonicalHasher::new();
        self.canonical_hash_into(&mut hasher);
        hasher.finish()
    }
}

impl CanonicalHash for bool {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_bool(*self);
    }
}

impl CanonicalHash for u32 {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_u32(*self);
    }
}

impl CanonicalHash for u64 {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_u64(*self);
    }
}

impl CanonicalHash for usize {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_usize(*self);
    }
}

impl CanonicalHash for f64 {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_f64(*self);
    }
}

impl CanonicalHash for str {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_str(self);
    }
}

impl CanonicalHash for String {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_str(self);
    }
}

impl<T: CanonicalHash + ?Sized> CanonicalHash for &T {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        (**self).canonical_hash_into(hasher);
    }
}

impl<T: CanonicalHash> CanonicalHash for Option<T> {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        match self {
            None => hasher.write_tag(0),
            Some(v) => {
                hasher.write_tag(1);
                v.canonical_hash_into(hasher);
            }
        }
    }
}

impl<T: CanonicalHash> CanonicalHash for [T] {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_len(self.len());
        for v in self {
            v.canonical_hash_into(hasher);
        }
    }
}

impl<T: CanonicalHash> CanonicalHash for Vec<T> {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        self.as_slice().canonical_hash_into(hasher);
    }
}

impl<A: CanonicalHash, B: CanonicalHash> CanonicalHash for (A, B) {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        self.0.canonical_hash_into(hasher);
        self.1.canonical_hash_into(hasher);
    }
}

impl CanonicalHash for crate::time::SimTime {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_f64(self.as_secs());
    }
}

impl CanonicalHash for crate::time::SimDuration {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_f64(self.as_secs());
    }
}

impl CanonicalHash for crate::units::Power {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_f64(self.watts());
    }
}

impl CanonicalHash for crate::units::Energy {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_f64(self.joules());
    }
}

impl CanonicalHash for crate::units::Carbon {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_f64(self.grams());
    }
}

impl CanonicalHash for crate::units::CarbonIntensity {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        hasher.write_f64(self.grams_per_kwh());
    }
}

impl CanonicalHash for crate::series::TimeSeries {
    fn canonical_hash_into(&self, hasher: &mut CanonicalHasher) {
        self.start().canonical_hash_into(hasher);
        self.step().canonical_hash_into(hasher);
        self.values().canonical_hash_into(hasher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn matches_reference_fnv1a() {
        // FNV-1a-64 of "a" is a published reference value.
        let mut h = CanonicalHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let ab_c = ("ab".to_string(), "c".to_string()).canonical_hash();
        let a_bc = ("a".to_string(), "bc".to_string()).canonical_hash();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn float_encoding_is_bit_exact() {
        assert_ne!((-0.0f64).canonical_hash(), 0.0f64.canonical_hash());
        let nan1 = f64::from_bits(0x7FF8_0000_0000_0001);
        let nan2 = f64::from_bits(0x7FF8_0000_0000_0002);
        assert_ne!(nan1.canonical_hash(), nan2.canonical_hash());
        assert_eq!(1.5f64.canonical_hash(), 1.5f64.canonical_hash());
    }

    #[test]
    fn option_tags_distinguish_none_from_zero() {
        let none: Option<u64> = None;
        assert_ne!(none.canonical_hash(), Some(0u64).canonical_hash());
    }

    #[test]
    fn vec_length_prefix_distinguishes_splits() {
        let a: Vec<u64> = vec![1, 2];
        let b: Vec<u64> = vec![1, 2, 0];
        assert_ne!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn time_series_hash_covers_start_step_values() {
        let base = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), vec![1.0, 2.0]);
        let same = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), vec![1.0, 2.0]);
        assert_eq!(base.canonical_hash(), same.canonical_hash());
        let step = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(2.0), vec![1.0, 2.0]);
        assert_ne!(base.canonical_hash(), step.canonical_hash());
        let vals = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), vec![1.0, 2.5]);
        assert_ne!(base.canonical_hash(), vals.canonical_hash());
    }
}
