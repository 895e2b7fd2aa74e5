//! A repeat is answered from the answer store, keyed by the request minus
//! its `id` and probed before the request is typed, with its body printed
//! once on the first hit and spliced after. None of this may change a
//! byte: every repeat must equal the first answer, across restarts,
//! evictions, `id` forms and the request spellings that share a
//! fingerprint, and `/stats` must count the lookups.

use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use ulm_serve::{EvalService, ServeOptions};

const SEARCH: &str = r#"{"id":1,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#;
const EVAL: &str = r#"{"id":1,"kind":"eval","arch":"toy","layer":"4x4x8","mapping":{"spatial":{"factors":[["K",2],["B",2]]},"stack":{"loops":[{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"B","size":2},{"dim":"K","size":2}]},"allocs":{"values":[{"bounds":[0,5]},{"bounds":[0,5]},{"bounds":[3,5]}]}}}"#;
const NET: &str = r#"{"id":1,"kind":"net","arch":"toy","net":"attention-decode","mapper":{"max_exhaustive":200,"samples":20}}"#;
const WHATIF: &str = r#"{"id":1,"kind":"whatif","arch":"case16","gb_bw":128,"layer":"8x16x64","mapper":{"max_exhaustive":200,"samples":20},"set":["mem.GB.bw=2x"]}"#;

const SURROGATE: &str = r#"{"id":1,"kind":"surrogate","arch":"toy","layer":"4x4x8","template":"4x4x16","mapper":{"max_exhaustive":100,"samples":10}}"#;

/// One request of each memoized kind.
const KINDS: [&str; 4] = [SEARCH, EVAL, NET, WHATIF];

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ulm-hit-path-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn opts(cache_capacity: usize, dir: Option<&Path>) -> ServeOptions {
    ServeOptions {
        parallelism: Some(1),
        cache_capacity,
        cache_dir: dir.map(Path::to_path_buf),
        include_timing: false,
        ..ServeOptions::default()
    }
}

fn answer(svc: &EvalService, line: &str) -> String {
    let response = svc.handle_line(line).unwrap();
    assert!(response.contains("\"ok\":true"), "{line} -> {response}");
    response
}

#[test]
fn repeats_equal_the_first_answer() {
    let svc = EvalService::new(opts(64, None));
    for line in KINDS.iter().chain([&SURROGATE]) {
        let first = answer(&svc, line);
        // The first hit prints and stores the answer, the second splices
        // it.
        for _ in 0..2 {
            assert_eq!(answer(&svc, line), first, "{line}");
        }
    }
}

#[test]
fn other_dims_on_a_stored_specialization_have_their_own_fingerprint() {
    let svc = EvalService::new(opts(64, None));
    let first = answer(&svc, SURROGATE);
    let fingerprint = |line: &str| {
        let v: Value = serde_json::from_str(line).unwrap();
        v.get("fingerprint")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    };
    let other = answer(&svc, &SURROGATE.replace("\"4x4x8\"", "\"8x4x8\""));
    let totals = svc.surrogate_totals();
    assert_eq!((totals.hits, totals.misses), (1, 1));
    assert_ne!(fingerprint(&other), fingerprint(&first));
}

#[test]
fn entries_replayed_from_the_log_answer_the_same_bytes() {
    let dir = scratch("restart");
    let first_run = EvalService::open(opts(64, Some(&dir))).unwrap();
    let firsts: Vec<String> = KINDS.iter().map(|l| answer(&first_run, l)).collect();
    drop(first_run);

    // Replayed entries carry no printed body: the first hit prints it.
    let svc = EvalService::open(opts(64, Some(&dir))).unwrap();
    assert_eq!(svc.disk_stats().unwrap().warmed, KINDS.len());
    for (line, first) in KINDS.iter().zip(&firsts) {
        for _ in 0..2 {
            assert_eq!(&answer(&svc, line), first, "{line}");
        }
    }
    assert_eq!(svc.cache_stats().misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_evicted_entry_is_recomputed_to_the_same_bytes() {
    // One entry per shard, so distinct searches evict one another.
    let svc = EvalService::new(opts(16, None));
    let first = answer(&svc, SEARCH);
    assert_eq!(answer(&svc, SEARCH), first);
    for c in 1..=64 {
        answer(
            &svc,
            &SEARCH
                .replace("4x4x8", &format!("4x4x{c}"))
                .replace("\"id\":1", "\"id\":2"),
        );
    }
    assert!(svc.cache_stats().evictions > 0);
    // Recomputed fresh, then stored and hit again.
    let misses = svc.cache_stats().misses;
    let recomputed = answer(&svc, SEARCH);
    assert_eq!(recomputed, first);
    assert_eq!(svc.cache_stats().misses, misses + 1);
    assert_eq!(answer(&svc, SEARCH), first);
}

#[test]
fn every_id_form_gets_the_same_answer() {
    let svc = EvalService::new(opts(64, None));
    for line in KINDS {
        let reference = answer(&svc, line);
        let rest = reference.strip_prefix("{\"id\":1,").unwrap();
        for id in ["2", "\"text\"", "null", "-7", "{\"a\":[1,2]}", "1.5"] {
            let with_id = line.replacen("\"id\":1", &format!("\"id\":{id}"), 1);
            assert_eq!(answer(&svc, &with_id), format!("{{\"id\":{id},{rest}"));
        }
        // No `id` at all answers with `id:null`.
        let without = line.replacen("\"id\":1,", "", 1);
        assert_eq!(answer(&svc, &without), format!("{{\"id\":null,{rest}"));
    }
}

#[test]
fn spellings_of_one_request_share_a_fingerprint_and_an_answer() {
    let svc = EvalService::new(opts(64, None));
    let first = answer(&svc, SEARCH);
    let spellings = [
        // Key order, top level and nested.
        r#"{"mapper":{"samples":10,"max_exhaustive":100},"layer":"4x4x8","arch":"toy","kind":"search","id":1}"#,
        // Whitespace.
        " { \"id\" : 1 , \"kind\" : \"search\" , \"arch\" : \"toy\" , \"layer\" : \"4x4x8\" , \"mapper\" : { \"max_exhaustive\" : 100 , \"samples\" : 10 } } ",
    ];
    for line in spellings {
        assert_eq!(answer(&svc, line), first, "{line}");
    }
    let stats = svc.cache_stats();
    assert_eq!((stats.insertions, stats.hits), (1, spellings.len() as u64));
}

#[test]
fn stats_count_one_lookup_per_memoized_request() {
    // Each eval/search/net request looks up the cache once, and so does a
    // whatif the answer store does not hold (a stored whatif answer is
    // its bytes and looks nothing up). A whatif whose knobs are invalid
    // is answered before its base lookup, so the valid whatif on the same
    // base (id 4) is the one that misses and caches it.
    let svc = EvalService::new(opts(64, None));
    let lines = [
        SEARCH,
        SEARCH,
        EVAL,
        NET,
        NET,
        WHATIF,
        WHATIF,
        r#"{"id":2,"kind":"search","arch":"case16","gb_bw":128,"layer":"8x16x64","mapper":{"max_exhaustive":200,"samples":20}}"#,
        r#"{"id":3,"kind":"whatif","arch":"toy","layer":"4x4x8","set":["mem.NOPE.bw=2x"]}"#,
        r#"{"id":4,"kind":"whatif","arch":"toy","layer":"4x4x8","set":["mem.LB.bw=2x"]}"#,
        r#"{"id":5,"kind":"search","arch":"toy","layer":"4x4x8","spatial":[["K",1024]]}"#,
        r#"{"id":6,"kind":"search","arch":"nope","layer":"4x4x8"}"#,
        r#"{"id":7,"kind":"surrogate","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#,
        r#"{"id":8,"kind":"stats"}"#,
        EVAL,
        SEARCH,
    ];
    for line in lines {
        svc.handle_line(line).unwrap();
    }
    let stats: Value =
        serde_json::from_str(&svc.handle_line(r#"{"kind":"stats"}"#).unwrap()).unwrap();
    let cache = stats.get("cache").unwrap();
    let count = |key: &str| cache.get(key).and_then(Value::as_u64).unwrap();
    assert_eq!(
        (count("hits"), count("misses"), count("insertions")),
        (5, 6, 5),
        "{stats:?}"
    );
}
