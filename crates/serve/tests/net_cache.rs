//! `net` requests go through the same result cache, single-flight and
//! durable log as eval/search: repeats are answered from the cache with
//! the same bytes, distinct runs never alias, and a restart answers from
//! the log. Their layers share the service's search store with every
//! other request kind: a search that reads the same inputs runs once,
//! and no shared search changes a byte of any answer.

use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use ulm_arch::presets;
use ulm_mapper::{Mapper, MapperOptions};
use ulm_mapping::SpatialUnroll;
use ulm_serve::store::write_log;
use ulm_serve::{
    EvalOutcome, EvalService, Fingerprint, SearchTotals, ServeOptions, CACHE_LOG_FILE,
};
use ulm_workload::{networks, Layer};

/// A small network run: the toy chip, a two-layer attention decode.
const NET: &str = r#"{"id":1,"kind":"net","arch":"toy","net":"attention-decode","mapper":{"max_exhaustive":200,"samples":20}}"#;

/// A fresh scratch directory per test (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ulm-net-cache-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn opts(dir: Option<&Path>) -> ServeOptions {
    ServeOptions {
        parallelism: Some(4),
        cache_capacity: 64,
        cache_dir: dir.map(Path::to_path_buf),
        include_timing: false,
        ..ServeOptions::default()
    }
}

fn parse(response: &str) -> Value {
    serde_json::from_str(response).expect("responses are valid JSON")
}

#[test]
fn a_repeated_net_is_a_byte_identical_cache_hit() {
    let svc = EvalService::new(opts(None));
    let first = svc.handle_line(NET).unwrap();
    assert!(first.contains("\"ok\":true"), "{first}");
    let before = svc.cache_stats();
    let second = svc.handle_line(NET).unwrap();
    let after = svc.cache_stats();
    assert_eq!(first, second);
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(after.misses, before.misses);
    assert_eq!(after.insertions, before.insertions);
}

#[test]
fn fusion_overlap_and_seed_variants_never_alias() {
    let svc = EvalService::new(opts(None));
    let variants = [
        NET.to_string(),
        NET.replace(
            r#""net":"attention-decode""#,
            r#""net":"attention-decode","fuse":[{"layers":["logit","attend"],"pin":"LB"}]"#,
        ),
        NET.replace(
            r#""net":"attention-decode""#,
            r#""net":"attention-decode","overlap":"weight-prefetch""#,
        ),
        NET.replace(r#""samples":20"#, r#""samples":20,"seed":7"#),
    ];
    let mut fingerprints = Vec::new();
    for line in &variants {
        let hits = svc.cache_stats().hits;
        let v = parse(&svc.handle_line(line).unwrap());
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{line}");
        assert_eq!(svc.cache_stats().hits, hits, "{line} hit another entry");
        fingerprints.push(v.get("fingerprint").cloned().unwrap());
    }
    for (i, a) in fingerprints.iter().enumerate() {
        for b in &fingerprints[i + 1..] {
            assert_ne!(a, b);
        }
    }
    assert_eq!(svc.cache_stats().insertions, variants.len() as u64);
}

#[test]
fn a_restart_answers_a_net_from_the_log() {
    let dir = scratch("restart");
    let first = EvalService::open(opts(Some(&dir))).unwrap();
    let fresh = first.handle_line(NET).unwrap();
    assert!(fresh.contains("\"ok\":true"), "{fresh}");
    assert_eq!(first.disk_stats().unwrap().appends, 1);
    drop(first);

    let second = EvalService::open(opts(Some(&dir))).unwrap();
    let disk = second.disk_stats().unwrap();
    assert_eq!((disk.warmed, disk.decode_failures), (1, 0));
    let warmed = second.handle_line(NET).unwrap();
    assert_eq!(fresh, warmed);
    let stats = second.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0));
    assert_eq!(second.disk_stats().unwrap().appends, 0);

    // A compaction rewrites the net entry in the same format.
    second.compact_cache_log().unwrap();
    drop(second);
    let third = EvalService::open(opts(Some(&dir))).unwrap();
    assert_eq!(third.disk_stats().unwrap().decode_failures, 0);
    assert_eq!(third.handle_line(NET).unwrap(), fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_log_of_eval_and_search_payloads_still_replays() {
    // Build the log the way services wrote it before net entries existed:
    // each payload is an `EvalOutcome` printed as itself. The energy
    // search's payload is printed as services did while search counters
    // still carried a `batch_lanes` field.
    let memory = EvalService::new(opts(None));
    let search = r#"{"id":1,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#;
    let answer = parse(&memory.handle_line(search).unwrap());
    let mapping = serde_json::to_string(answer.get("mapping").unwrap()).unwrap();
    let eval =
        format!(r#"{{"id":2,"kind":"eval","arch":"toy","layer":"4x4x8","mapping":{mapping}}}"#);
    let energy = r#"{"id":3,"kind":"search","arch":"toy","layer":"4x4x8","objective":"energy"}"#;
    let mut entries = Vec::new();
    let mut expected = Vec::new();
    for (line, with_batch_lanes) in [
        (search.to_string(), false),
        (eval, false),
        (energy.to_string(), true),
    ] {
        let response = memory.handle_line(&line).unwrap();
        let v = parse(&response);
        let outcome: EvalOutcome = serde::Deserialize::from_value(&v).unwrap();
        let mut payload = serde::Serialize::to_value(&outcome);
        if with_batch_lanes {
            let stats = field_mut(field_mut(&mut payload, "search"), "stats");
            let Value::Object(stats) = stats else {
                panic!("search stats are an object");
            };
            stats.push(("batch_lanes".to_string(), Value::U64(1)));
        }
        let fp = v.get("fingerprint").and_then(Value::as_str).unwrap();
        entries.push((
            Fingerprint::from_hex(fp).unwrap().as_u128(),
            serde_json::to_string(&payload).unwrap().into_bytes(),
        ));
        expected.push((line, response));
    }
    assert!(String::from_utf8_lossy(&entries[2].1).contains("\"batch_lanes\":1"));
    let dir = scratch("legacy");
    write_log(&dir.join(CACHE_LOG_FILE), &entries).unwrap();

    let svc = EvalService::open(opts(Some(&dir))).unwrap();
    let disk = svc.disk_stats().unwrap();
    assert_eq!((disk.warmed, disk.decode_failures), (3, 0));
    for (line, response) in &expected {
        assert_eq!(&svc.handle_line(line).unwrap(), response);
    }
    assert_eq!(svc.cache_stats().misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value under `key` of a JSON object.
fn field_mut<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Object(fields) = v else {
        panic!("expected an object holding `{key}`");
    };
    fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}`"))
}

#[test]
fn concurrent_identical_nets_compute_once() {
    let dir = scratch("flight");
    let svc = EvalService::open(opts(Some(&dir))).unwrap();
    let handles: Vec<_> = (0..8).map(|_| svc.submit_line(NET.to_string())).collect();
    let responses: Vec<String> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    assert!(responses.iter().all(|r| r == &responses[0]));
    // Single-flight: one leader computed, stored and logged the result;
    // every other request was answered from the cache.
    assert_eq!(svc.cache_stats().insertions, 1);
    assert_eq!(svc.disk_stats().unwrap().appends, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An attention prefill on `case32` at GB 512 b/cy under mapper options
/// `mapper`: six layers of four workloads.
fn prefill(id: u64, mapper: &str) -> String {
    format!(
        r#"{{"id":{id},"kind":"net","arch":"case32","gb_bw":512,"net":"attention-prefill","mapper":{mapper}}}"#
    )
}

/// Searches run and store hits since `before`.
fn since(svc: &EvalService, before: SearchTotals) -> (usize, usize) {
    let now = svc.search_totals();
    (
        now.searches - before.searches,
        now.store_hits - before.store_hits,
    )
}

/// The answer a fresh service gives `line`.
fn cold(line: &str) -> String {
    EvalService::new(opts(None)).handle_line(line).unwrap()
}

/// The prefill's distinct workloads, each with whether `opts` sample its
/// space on `case32` at GB 512 b/cy.
fn prefill_workloads(opts: MapperOptions) -> Vec<(Layer, bool)> {
    let chip = presets::by_name("case32", 512).unwrap();
    let mut distinct: Vec<(Layer, bool)> = Vec::new();
    for layer in networks::attention_prefill() {
        if distinct.iter().all(|(d, _)| !d.same_workload(&layer)) {
            let size = Mapper::new(&chip.arch, &layer, SpatialUnroll::new(chip.spatial.clone()))
                .space_size();
            distinct.push((layer, size > opts.max_exhaustive));
        }
    }
    distinct
}

#[test]
fn nets_that_differ_only_in_an_unread_seed_share_every_search() {
    // Every prefill layer is walked exhaustively under the default
    // options, so the seed is never read.
    let workloads = prefill_workloads(MapperOptions::default());
    assert_eq!(workloads.len(), 4);
    assert!(workloads.iter().all(|(_, sampled)| !sampled));
    let svc = EvalService::new(opts(None));
    let lines = [prefill(1, r#"{"seed":1}"#), prefill(2, r#"{"seed":2}"#)];

    let before = svc.search_totals();
    let first = svc.handle_line(&lines[0]).unwrap();
    // q_proj/o_proj and k_proj/v_proj share a workload within the net.
    assert_eq!(since(&svc, before), (4, 2));
    let before = svc.search_totals();
    let second = svc.handle_line(&lines[1]).unwrap();
    assert_eq!(since(&svc, before), (0, 6), "the second net ran a search");

    assert!(first.contains("\"ok\":true"), "{first}");
    assert_eq!(first, cold(&lines[0]));
    assert_eq!(second, cold(&lines[1]));
}

#[test]
fn a_sampled_layer_is_searched_again_under_another_seed() {
    let mapper = MapperOptions {
        max_exhaustive: 5_000,
        ..MapperOptions::default()
    };
    let workloads = prefill_workloads(mapper);
    let sampled = workloads.iter().filter(|(_, sampled)| *sampled).count();
    assert!(
        0 < sampled && sampled < workloads.len(),
        "{sampled} sampled"
    );
    let svc = EvalService::new(opts(None));
    let lines = [
        prefill(1, r#"{"max_exhaustive":5000,"seed":1}"#),
        prefill(2, r#"{"max_exhaustive":5000,"seed":2}"#),
    ];
    let first = svc.handle_line(&lines[0]).unwrap();
    let before = svc.search_totals();
    let second = svc.handle_line(&lines[1]).unwrap();
    // Only the sampled workloads read the seed.
    let (searches, _) = since(&svc, before);
    assert_eq!(searches, sampled);
    assert_eq!(first, cold(&lines[0]));
    assert_eq!(second, cold(&lines[1]));
}

#[test]
fn a_search_and_a_surrogate_reuse_a_net_layer_search() {
    let svc = EvalService::new(opts(None));
    let net = prefill(1, "{}");
    assert!(svc.handle_line(&net).unwrap().contains("\"ok\":true"));
    // q_proj's workload: 128x256x256 at the prefill's precision.
    let layer = r#"{"b":128,"k":256,"c":256,"precision":"int8_acc24"}"#;
    let search =
        format!(r#"{{"id":2,"kind":"search","arch":"case32","gb_bw":512,"layer":{layer}}}"#);
    let surrogate = format!(
        r#"{{"id":3,"kind":"surrogate","arch":"case32","gb_bw":512,"layer":{},"template":"128x256x256"}}"#,
        layer.replace("\"b\":128", "\"b\":256")
    );
    for line in [&search, &surrogate] {
        let before = svc.search_totals();
        let answer = svc.handle_line(line).unwrap();
        assert_eq!(since(&svc, before), (0, 1), "{line}");
        assert!(answer.contains("\"ok\":true"), "{answer}");
        assert_eq!(answer, cold(line), "{line}");
    }
}

#[test]
fn concurrent_nets_run_each_search_once() {
    let svc = EvalService::open(opts(None)).unwrap();
    let lines: Vec<String> = (1..=8)
        .map(|seed| prefill(seed, &format!(r#"{{"seed":{seed}}}"#)))
        .collect();
    let handles: Vec<_> = lines
        .iter()
        .map(|line| svc.submit_line(line.clone()))
        .collect();
    let responses: Vec<String> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    // Eight distinct nets, so eight result-cache entries, but one search
    // per workload: every other layer waited for it or found it stored.
    assert_eq!(svc.cache_stats().insertions, 8);
    let totals = svc.search_totals();
    assert_eq!((totals.searches, totals.store_hits), (4, 8 * 6 - 4));
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    // Every net's answer equals a fresh service's, byte for byte.
    for (line, response) in lines.iter().zip(&responses) {
        assert_eq!(response, &cold(line), "{line}");
    }
}
