//! Content-addressed canonical hashing of simulation inputs.
//!
//! Simulation in this workspace is a *pure* function of its configuration
//! and seed, which makes whole-result memoization sound — but only if two
//! configurations that would simulate identically also hash identically,
//! and two that would diverge never collide by construction (modulo 64-bit
//! FNV collisions). [`CanonicalHash`] provides that fingerprint for every
//! [`Serialize`] type: a [`CanonicalHasher`] is a [`Sink`] that folds the
//! value's serialization event stream into FNV-1a-64 ([`fnv1a`], the one
//! copy of the function in the workspace).
//!
//! ## Canonical encoding rules
//!
//! The encoding *is* the `Serialize` event stream, so a type's field list
//! is spelled once, in its `#[derive(Serialize)]`. A field left out of
//! `Serialize` is left out of the key. Each event writes a distinct tag
//! byte, then its payload:
//!
//! * **Floats** are encoded by IEEE-754 bit pattern
//!   (`f64::to_bits().to_le_bytes()`). This is deliberately exact:
//!   `-0.0` and `0.0` hash *differently*, and NaNs with different payloads
//!   hash differently. Hash equality means bit-level input equality, which
//!   is precisely the determinism contract of the simulator (a sign bit
//!   can change downstream arithmetic).
//! * **Strings and object keys** are length-prefixed, and a key's tag
//!   differs from a string's, so adjacent values cannot alias
//!   (`("ab", "c")` vs `("a", "bc")`).
//! * **Arrays and objects** are bracketed by begin/end events, so nesting
//!   is part of the key (`[[1],[]]` vs `[[],[1]]`).
//! * **Structs** hash their field names along with their values, and
//!   **enum variants** their variant names: the derive sends both through
//!   [`Sink::field`].
//! * **`Option`** follows serde: `None` is the `null` event and `Some(x)`
//!   is `x`. That aliases `None` with `Some(None)` in an
//!   `Option<Option<_>>` and with `Some(unit)` in an `Option<UnitStruct>`;
//!   no hashed type has either.

use serde::{Serialize, Sink};

/// FNV-1a-64 offset basis.
const OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a-64 prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a-64 of `bytes`: the hash behind RNG label seeding, the sweep
/// journal checksum and [`CanonicalHasher`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(OFFSET_BASIS, bytes)
}

/// Continues an FNV-1a-64 hash at `state` over `bytes`.
fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// The tag byte each [`Sink`] event writes ahead of its payload.
#[repr(u8)]
enum Tag {
    Null,
    Bool,
    U64,
    I64,
    F64,
    Str,
    BeginArray,
    Element,
    EndArray,
    BeginObject,
    Key,
    EndObject,
}

/// Incremental FNV-1a-64 over a value's serialization events (see the
/// module docs for the encoding).
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
    /// Start a new hash at the FNV offset basis.
    pub fn new() -> CanonicalHasher {
        CanonicalHasher {
            state: OFFSET_BASIS,
        }
    }

    /// Mixes one event: its tag byte, then its payload.
    fn event(&mut self, tag: Tag, payload: &[u8]) {
        self.state = fnv1a_from(fnv1a_from(self.state, &[tag as u8]), payload);
    }

    /// Mixes a length-prefixed string event.
    fn text(&mut self, tag: Tag, s: &str) {
        self.event(tag, &(s.len() as u64).to_le_bytes());
        self.state = fnv1a_from(self.state, s.as_bytes());
    }

    /// Mixes an `f64` by exact bit pattern (the [`Sink::f64`] event).
    /// `-0.0 != 0.0` and NaN payloads are significant — see the module
    /// docs for why.
    pub fn write_f64(&mut self, v: f64) {
        self.event(Tag::F64, &v.to_bits().to_le_bytes());
    }

    /// The 64-bit fingerprint of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

// `field` keeps its default (`key`): struct field names and enum variant
// tags are part of the key.
impl Sink for CanonicalHasher {
    fn null(&mut self) {
        self.event(Tag::Null, &[]);
    }
    fn bool(&mut self, v: bool) {
        self.event(Tag::Bool, &[v as u8]);
    }
    fn u64(&mut self, v: u64) {
        self.event(Tag::U64, &v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.event(Tag::I64, &v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.write_f64(v);
    }
    fn str(&mut self, v: &str) {
        self.text(Tag::Str, v);
    }
    fn begin_array(&mut self) {
        self.event(Tag::BeginArray, &[]);
    }
    fn element(&mut self) {
        self.event(Tag::Element, &[]);
    }
    fn end_array(&mut self) {
        self.event(Tag::EndArray, &[]);
    }
    fn begin_object(&mut self) {
        self.event(Tag::BeginObject, &[]);
    }
    fn key(&mut self, key: &str) {
        self.text(Tag::Key, key);
    }
    fn end_object(&mut self) {
        self.event(Tag::EndObject, &[]);
    }
}

/// A canonical, content-addressed 64-bit fingerprint of a value: the
/// [`CanonicalHasher`] digest of its [`Serialize`] stream. Two values
/// hash equal iff they serialize to the same events with the same float
/// bits.
pub trait CanonicalHash {
    /// The FNV-1a-64 fingerprint of this value.
    fn canonical_hash(&self) -> u64;
}

impl<T: Serialize + ?Sized> CanonicalHash for T {
    fn canonical_hash(&self) -> u64 {
        let mut hasher = CanonicalHasher::new();
        self.serialize(&mut hasher);
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn matches_reference_fnv1a() {
        // FNV-1a-64 of "" and "a" are published reference values.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let ab_c = ("ab", "c").canonical_hash();
        let a_bc = ("a", "bc").canonical_hash();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn float_encoding_is_bit_exact() {
        assert_ne!((-0.0f64).canonical_hash(), 0.0f64.canonical_hash());
        let nan1 = f64::from_bits(0x7FF8_0000_0000_0001);
        let nan2 = f64::from_bits(0x7FF8_0000_0000_0002);
        assert_ne!(nan1.canonical_hash(), nan2.canonical_hash());
        assert_eq!(1.5f64.canonical_hash(), 1.5f64.canonical_hash());
        let mut hasher = CanonicalHasher::new();
        hasher.write_f64(1.5);
        assert_eq!(hasher.finish(), 1.5f64.canonical_hash());
    }

    #[test]
    fn option_tags_distinguish_none_from_zero() {
        let none: Option<u64> = None;
        assert_ne!(none.canonical_hash(), Some(0u64).canonical_hash());
    }

    #[test]
    fn none_differs_from_some_empty_string() {
        let none: Option<&str> = None;
        assert_ne!(none.canonical_hash(), Some("").canonical_hash());
    }

    #[test]
    fn vec_length_prefix_distinguishes_splits() {
        let a: Vec<u64> = vec![1, 2];
        let b: Vec<u64> = vec![1, 2, 0];
        assert_ne!(a.canonical_hash(), b.canonical_hash());
        let split: (Vec<u64>, Vec<u64>) = (vec![1], vec![2]);
        let joined: (Vec<u64>, Vec<u64>) = (vec![1, 2], vec![]);
        assert_ne!(split.canonical_hash(), joined.canonical_hash());
    }

    #[test]
    fn brackets_frame_nesting() {
        let a: Vec<Vec<u64>> = vec![vec![1], vec![]];
        let b: Vec<Vec<u64>> = vec![vec![], vec![1]];
        assert_ne!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn object_key_differs_from_equal_string_value() {
        let mut key = CanonicalHasher::new();
        key.key("x");
        let mut value = CanonicalHasher::new();
        value.str("x");
        assert_ne!(key.finish(), value.finish());
    }

    #[test]
    fn enum_variants_with_equal_payloads_differ() {
        #[derive(Serialize)]
        enum Policy {
            Fcfs,
            EasyBackfill,
            Gate(u64),
            Cap(u64),
        }
        assert_ne!(
            Policy::Fcfs.canonical_hash(),
            Policy::EasyBackfill.canonical_hash()
        );
        assert_ne!(
            Policy::Gate(1).canonical_hash(),
            Policy::Cap(1).canonical_hash()
        );
    }

    #[test]
    fn time_series_hash_covers_start_step_values() {
        let base = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), vec![1.0, 2.0]);
        let same = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), vec![1.0, 2.0]);
        assert_eq!(base.canonical_hash(), same.canonical_hash());
        let start = TimeSeries::new(
            SimTime::from_hours(1.0),
            SimDuration::from_hours(1.0),
            vec![1.0, 2.0],
        );
        assert_ne!(base.canonical_hash(), start.canonical_hash());
        let step = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(2.0), vec![1.0, 2.0]);
        assert_ne!(base.canonical_hash(), step.canonical_hash());
        let vals = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), vec![1.0, 2.5]);
        assert_ne!(base.canonical_hash(), vals.canonical_hash());
    }
}
