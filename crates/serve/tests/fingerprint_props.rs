//! Property tests for the content-addressed fingerprint and the cached
//! evaluation path.

use proptest::prelude::*;
use serde::{Serialize, Value};
use std::sync::Arc;
use ulm_arch::presets;
use ulm_mapping::SpatialUnroll;
use ulm_serve::{fingerprint_of, fingerprint_value, EvalService, ServeOptions};
use ulm_workload::{Layer, Precision};

fn layer(b: u64, k: u64, c: u64) -> Layer {
    Layer::matmul(format!("({b},{k},{c})"), b, k, c, Precision::int8_out24())
}

proptest! {
    /// Building the same logical query twice yields the same fingerprint:
    /// the hash depends only on content, never on construction order or
    /// allocation identity.
    #[test]
    fn equal_inputs_have_equal_fingerprints(
        b in 1u64..64,
        k in 1u64..64,
        c in 1u64..64,
    ) {
        let chip = presets::toy_chip();
        let first = (
            chip.arch.clone(),
            SpatialUnroll::new(chip.spatial.clone()),
            layer(b, k, c),
        );
        let chip2 = presets::toy_chip();
        let second = (
            chip2.arch.clone(),
            SpatialUnroll::new(chip2.spatial.clone()),
            layer(b, k, c),
        );
        prop_assert_eq!(fingerprint_of(&first), fingerprint_of(&second));
    }

    /// Object key order never matters: a permuted field order hashes the
    /// same, which is what makes JSON round trips fingerprint-stable.
    #[test]
    fn key_order_is_irrelevant(
        a in 0u64..1000,
        b in 0u64..1000,
        c in 0u64..1000,
    ) {
        let forward = Value::Object(vec![
            ("alpha".to_string(), Value::U64(a)),
            ("beta".to_string(), Value::U64(b)),
            ("gamma".to_string(), Value::U64(c)),
        ]);
        let reversed = Value::Object(vec![
            ("gamma".to_string(), Value::U64(c)),
            ("beta".to_string(), Value::U64(b)),
            ("alpha".to_string(), Value::U64(a)),
        ]);
        prop_assert_eq!(fingerprint_value(&forward), fingerprint_value(&reversed));
    }

    /// Distinct layer shapes must not collide: a collision here would make
    /// the cache silently answer one layer's query with another's result.
    #[test]
    fn distinct_layers_do_not_collide(
        b1 in 1u64..64, k1 in 1u64..64, c1 in 1u64..64,
        b2 in 1u64..64, k2 in 1u64..64, c2 in 1u64..64,
    ) {
        if (b1, k1, c1) != (b2, k2, c2) {
            prop_assert_ne!(
                fingerprint_of(&layer(b1, k1, c1)),
                fingerprint_of(&layer(b2, k2, c2))
            );
        }
    }

    /// A JSON round trip of the serialized query preserves the
    /// fingerprint: printing and re-parsing may change U64/I64/F64 forms
    /// but never the hash.
    #[test]
    fn json_round_trip_preserves_fingerprint(
        b in 1u64..64,
        k in 1u64..64,
        c in 1u64..64,
    ) {
        let l = layer(b, k, c);
        let direct = l.to_value();
        let text = serde_json::to_string(&direct).unwrap();
        let reparsed: Value = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(fingerprint_value(&direct), fingerprint_value(&reparsed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cached answer is bit-identical to the freshly computed one: the
    /// second identical request must return the exact same answer, from
    /// the cache.
    #[test]
    fn cached_evaluate_is_bit_identical(
        b in 1u64..16,
        k in 1u64..16,
        c in 1u64..16,
    ) {
        let svc = EvalService::new(ServeOptions {
            parallelism: Some(1),
            cache_capacity: 64,
            queue_capacity: None,
            ..ServeOptions::default()
        });
        let line = format!(
            "{{\"kind\":\"search\",\"arch\":\"toy\",\"layer\":\"{b}x{k}x{c}\",\
             \"mapper\":{{\"max_exhaustive\":60,\"samples\":8}}}}"
        );
        let strip = |resp: String| -> Value {
            let mut v: Value = serde_json::from_str(&resp).unwrap();
            // Timing varies between runs; everything else must not.
            if let Value::Object(entries) = &mut v {
                entries.retain(|(key, _)| key != "elapsed_ms");
            }
            v
        };
        let uncached = svc.handle_line(&line).unwrap();
        prop_assert_eq!(svc.cache_stats().hits, 0);
        let cached = svc.handle_line(&line).unwrap();
        // An error answer is stored nowhere, so its repeat looks up again
        // and misses.
        let hits = u64::from(uncached.contains("\"ok\":true"));
        prop_assert_eq!(svc.cache_stats().hits, hits, "{}", cached);
        prop_assert_eq!(strip(uncached), strip(cached));
        let _ = Arc::strong_count(&svc);
    }
}

/// Fingerprints name durable-log records and appear in every answer, so
/// they must never change. These were computed before request
/// fingerprints were memoized; each request is sent twice so the
/// memoized path is checked too.
#[test]
fn golden_fingerprints_are_stable() {
    let svc = EvalService::new(ServeOptions {
        parallelism: Some(1),
        include_timing: false,
        ..ServeOptions::default()
    });
    let mapping = r#"{"spatial":{"factors":[["K",2],["B",2]]},"stack":{"loops":[{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"B","size":2},{"dim":"K","size":2}]},"allocs":{"values":[{"bounds":[0,5]},{"bounds":[0,5]},{"bounds":[3,5]}]}}"#;
    let golden = [
        (
            format!(r#"{{"kind":"eval","arch":"toy","layer":"4x4x8","mapping":{mapping}}}"#),
            "384c25061f26ef31b9ad1a1e7e36329e",
        ),
        (
            r#"{"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#.to_string(),
            "ade175cd34f504810e6084fa17bcca52",
        ),
        (
            r#"{"kind":"net","arch":"toy","net":"attention-decode","mapper":{"max_exhaustive":200,"samples":20}}"#.to_string(),
            "5f4ddfd6489ba633c5fd580b3e22c31c",
        ),
        // A whatif answer carries its base design's fingerprint.
        (
            r#"{"kind":"whatif","arch":"case16","gb_bw":128,"layer":"8x16x64","mapper":{"max_exhaustive":200,"samples":20},"set":["mem.GB.bw=2x"]}"#.to_string(),
            "aef4df7ef933cf8ddc76c2cc9f3fe52d",
        ),
    ];
    for (line, fingerprint) in &golden {
        for _ in 0..2 {
            let v: Value = serde_json::from_str(&svc.handle_line(line).unwrap()).unwrap();
            assert_eq!(
                v.get("fingerprint").and_then(Value::as_str),
                Some(*fingerprint),
                "{line}"
            );
        }
    }
}
