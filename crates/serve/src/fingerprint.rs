//! Content-addressed fingerprints for evaluation queries.
//!
//! A [`Fingerprint`] is a 128-bit FNV-1a hash over a *canonical* byte
//! encoding of a serialized value tree: every node is fed to the hash with a
//! type tag, integers in fixed-width little-endian form, and object entries
//! sorted by key. Two queries that serialize to the same logical value — the
//! same architecture, layer, spatial unrolling, temporal mapping (or search
//! objective) and model options — therefore hash to the same fingerprint
//! regardless of how their structs were built, which makes the fingerprint
//! usable as a memoization key for the result cache.

use serde::{Serialize, Value};
use std::fmt;

/// A 128-bit content hash of an evaluation query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Parses the `Display` form (32 lowercase hex digits).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Incremental FNV-1a-128 hasher.
#[derive(Debug, Clone)]
struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    fn new() -> Self {
        Fnv128 { state: FNV_OFFSET }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u128 {
        self.state
    }
}

fn hash_value(h: &mut Fnv128, v: &Value) {
    match v {
        Value::Null => h.update(b"n"),
        Value::Bool(b) => h.update(if *b { b"b1" } else { b"b0" }),
        Value::U64(n) => {
            h.update(b"u");
            h.update(&n.to_le_bytes());
        }
        Value::I64(n) => {
            // Non-negative integers hash identically whether they arrived
            // as U64 or I64 (JSON does not distinguish the two).
            if *n >= 0 {
                h.update(b"u");
                h.update(&(*n as u64).to_le_bytes());
            } else {
                h.update(b"i");
                h.update(&n.to_le_bytes());
            }
        }
        Value::F64(f) => {
            // Integral floats hash like integers for the same reason.
            if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 {
                h.update(b"u");
                h.update(&(*f as u64).to_le_bytes());
            } else if f.fract() == 0.0 && *f < 0.0 && *f >= i64::MIN as f64 {
                h.update(b"i");
                h.update(&(*f as i64).to_le_bytes());
            } else {
                h.update(b"f");
                h.update(&f.to_bits().to_le_bytes());
            }
        }
        Value::String(s) => {
            h.update(b"s");
            h.update(&(s.len() as u64).to_le_bytes());
            h.update(s.as_bytes());
        }
        Value::Array(items) => {
            h.update(b"a");
            h.update(&(items.len() as u64).to_le_bytes());
            for item in items {
                hash_value(h, item);
            }
        }
        Value::Object(entries) => hash_object(h, entries.iter()),
    }
}

fn hash_object<'a>(h: &mut Fnv128, entries: impl Iterator<Item = &'a (String, Value)>) {
    // Sort by key so field order never affects the fingerprint.
    let mut refs: Vec<&(String, Value)> = entries.collect();
    refs.sort_by(|a, b| a.0.cmp(&b.0));
    h.update(b"o");
    h.update(&(refs.len() as u64).to_le_bytes());
    for (k, val) in refs {
        h.update(&(k.len() as u64).to_le_bytes());
        h.update(k.as_bytes());
        hash_value(h, val);
    }
}

/// Fingerprints an already-serialized value tree.
pub fn fingerprint_value(v: &Value) -> Fingerprint {
    let mut h = Fnv128::new();
    hash_value(&mut h, v);
    Fingerprint(h.finish())
}

/// Fingerprints a request object as if it had no top-level `id` field, so
/// requests that differ only in their `id` share it. Equals
/// [`fingerprint_value`] of the object with `id` removed.
pub(crate) fn fingerprint_request(v: &Value) -> Fingerprint {
    let mut h = Fnv128::new();
    match v {
        Value::Object(entries) => hash_object(&mut h, entries.iter().filter(|(k, _)| k != "id")),
        other => hash_value(&mut h, other),
    }
    Fingerprint(h.finish())
}

/// Fingerprints any serializable value.
pub fn fingerprint_of<T: Serialize>(value: &T) -> Fingerprint {
    fingerprint_value(&value.to_value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips() {
        let fp = fingerprint_of(&("abc", 7u64));
        let shown = fp.to_string();
        assert_eq!(shown.len(), 32);
        assert_eq!(Fingerprint::from_hex(&shown), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
    }

    #[test]
    fn object_key_order_is_canonical() {
        let a = Value::Object(vec![
            ("x".into(), Value::U64(1)),
            ("y".into(), Value::U64(2)),
        ]);
        let b = Value::Object(vec![
            ("y".into(), Value::U64(2)),
            ("x".into(), Value::U64(1)),
        ]);
        assert_eq!(fingerprint_value(&a), fingerprint_value(&b));
    }

    #[test]
    fn numeric_forms_unify() {
        // 8 as U64, I64 and F64 must hash identically: JSON round trips can
        // produce any of the three for the same document.
        assert_eq!(
            fingerprint_value(&Value::U64(8)),
            fingerprint_value(&Value::I64(8))
        );
        assert_eq!(
            fingerprint_value(&Value::U64(8)),
            fingerprint_value(&Value::F64(8.0))
        );
        assert_ne!(
            fingerprint_value(&Value::F64(8.5)),
            fingerprint_value(&Value::U64(8))
        );
    }

    #[test]
    fn request_fingerprint_ignores_only_the_top_level_id() {
        let with_id = |id: Value| {
            Value::Object(vec![
                ("id".into(), id),
                ("kind".into(), Value::String("search".into())),
                (
                    "mapper".into(),
                    Value::Object(vec![("id".into(), Value::U64(1))]),
                ),
            ])
        };
        let without = Value::Object(vec![
            ("kind".into(), Value::String("search".into())),
            (
                "mapper".into(),
                Value::Object(vec![("id".into(), Value::U64(1))]),
            ),
        ]);
        assert_eq!(
            fingerprint_request(&with_id(Value::U64(7))),
            fingerprint_value(&without)
        );
        assert_eq!(
            fingerprint_request(&with_id(Value::String("x".into()))),
            fingerprint_request(&with_id(Value::Null))
        );
        // A nested `id` is content.
        let nested = Value::Object(vec![
            ("kind".into(), Value::String("search".into())),
            (
                "mapper".into(),
                Value::Object(vec![("id".into(), Value::U64(2))]),
            ),
        ]);
        assert_ne!(fingerprint_request(&nested), fingerprint_value(&without));
    }

    #[test]
    fn structure_is_not_trivially_collidable() {
        // Same leaf bytes, different shapes.
        let flat = Value::Array(vec![Value::U64(1), Value::U64(2)]);
        let nested = Value::Array(vec![Value::Array(vec![Value::U64(1), Value::U64(2)])]);
        assert_ne!(fingerprint_value(&flat), fingerprint_value(&nested));
        // String "1" vs integer 1.
        assert_ne!(
            fingerprint_value(&Value::String("1".into())),
            fingerprint_value(&Value::U64(1))
        );
        // Key/value boundary shifts.
        let a = Value::Object(vec![("ab".into(), Value::String("c".into()))]);
        let b = Value::Object(vec![("a".into(), Value::String("bc".into()))]);
        assert_ne!(fingerprint_value(&a), fingerprint_value(&b));
    }
}
