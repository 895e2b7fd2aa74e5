//! Integration tests for the durable result log: restart warm-up through
//! [`EvalService::open`], recovery from torn and bit-flipped logs, and
//! property tests for the record codec.

use proptest::collection;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use ulm_serve::store::{encode_record, replay, MAGIC};
use ulm_serve::{EvalService, ServeOptions, CACHE_LOG_FILE};

/// A small search request that exercises the full evaluate-and-persist path.
const SEARCH: &str = r#"{"id":1,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#;

/// A fresh scratch directory per test (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ulm-cache-log-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn opts(dir: &Path) -> ServeOptions {
    ServeOptions {
        parallelism: Some(1),
        cache_capacity: 64,
        cache_dir: Some(dir.to_path_buf()),
        include_timing: false,
        ..ServeOptions::default()
    }
}

#[test]
fn restart_answers_previously_seen_fingerprints_from_the_warmed_cache() {
    let dir = scratch("restart");
    let first = EvalService::open(opts(&dir)).unwrap();
    let fresh = first.handle_line(SEARCH).unwrap();
    assert!(fresh.contains("\"ok\":true"), "{fresh}");
    assert_eq!(first.cache_stats().misses, 1);
    assert_eq!(first.disk_stats().unwrap().appends, 1);
    drop(first);

    // A brand-new process image: nothing in memory, everything on disk.
    let second = EvalService::open(opts(&dir)).unwrap();
    let disk = second.disk_stats().unwrap();
    assert_eq!(disk.warmed, 1);
    assert_eq!(disk.replayed_records, 1);
    assert_eq!(disk.recovered_from, None);

    let warmed = second.handle_line(SEARCH).unwrap();
    // The hit counters prove no re-evaluation happened, and with timing
    // disabled the answers must agree byte for byte.
    let stats = second.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0));
    assert_eq!(fresh, warmed);
    // Answering from the warm cache is not a new result; nothing appends.
    assert_eq!(second.disk_stats().unwrap().appends, 0);
}

#[test]
fn torn_final_record_warms_the_prefix_and_heals_on_reopen() {
    let dir = scratch("torn");
    let other: String = SEARCH.replace("4x4x8", "4x8x8");
    let svc = EvalService::open(opts(&dir)).unwrap();
    svc.handle_line(SEARCH).unwrap();
    svc.handle_line(&other).unwrap();
    assert_eq!(svc.disk_stats().unwrap().appends, 2);
    drop(svc);

    // Tear bytes off the final record, as a crash mid-append would.
    let path = dir.join(CACHE_LOG_FILE);
    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let svc = EvalService::open(opts(&dir)).unwrap();
    let disk = svc.disk_stats().unwrap();
    assert_eq!(disk.warmed, 1);
    assert_eq!(disk.recovered_from.as_deref(), Some("cache/truncated"));
    // The surviving entry still answers from cache; the torn one must be
    // re-evaluated (and re-appended onto the now-trusted prefix).
    svc.handle_line(SEARCH).unwrap();
    svc.handle_line(&other).unwrap();
    let stats = svc.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(svc.disk_stats().unwrap().appends, 1);
    drop(svc);

    // Truncate-on-open dropped the damaged tail, so the next restart sees
    // a clean log holding both entries again.
    let healed = EvalService::open(opts(&dir)).unwrap();
    let disk = healed.disk_stats().unwrap();
    assert_eq!(disk.warmed, 2);
    assert_eq!(disk.recovered_from, None);
}

#[test]
fn bad_checksum_in_the_tail_warms_only_trusted_records() {
    let dir = scratch("flip");
    let other: String = SEARCH.replace("4x4x8", "8x4x8");
    let svc = EvalService::open(opts(&dir)).unwrap();
    svc.handle_line(SEARCH).unwrap();
    svc.handle_line(&other).unwrap();
    drop(svc);

    // Flip one payload bit inside the final record.
    let path = dir.join(CACHE_LOG_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let tail = bytes.len() - 4;
    bytes[tail] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let svc = EvalService::open(opts(&dir)).unwrap();
    let disk = svc.disk_stats().unwrap();
    assert_eq!(disk.warmed, 1);
    assert_eq!(disk.recovered_from.as_deref(), Some("cache/bad-checksum"));
}

#[test]
fn a_file_that_is_not_a_cache_log_is_refused_outright() {
    let dir = scratch("magic");
    std::fs::write(dir.join(CACHE_LOG_FILE), b"definitely not a log").unwrap();
    let err = match EvalService::open(opts(&dir)) {
        Err(e) => e,
        Ok(_) => panic!("a non-log file must not open as a cache log"),
    };
    assert_eq!(err.code(), "cache/bad-magic");
}

#[test]
fn checksum_valid_but_undecodable_payloads_are_skipped_not_fatal() {
    let dir = scratch("decode");
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&encode_record(42, b"not an outcome"));
    std::fs::write(dir.join(CACHE_LOG_FILE), &bytes).unwrap();

    let svc = EvalService::open(opts(&dir)).unwrap();
    let disk = svc.disk_stats().unwrap();
    assert_eq!(disk.replayed_records, 1);
    assert_eq!(disk.warmed, 0);
    assert_eq!(disk.decode_failures, 1);
}

/// Strategy for `(fingerprint, payload)` entries: fingerprints from two
/// full-domain u64 halves, payloads as short arbitrary byte strings.
fn entry_strategy() -> impl Strategy<Value = Vec<(u64, u64, Vec<u8>)>> {
    collection::vec(
        (
            any::<u64>(),
            any::<u64>(),
            collection::vec(any::<u8>(), 0..48),
        ),
        0..12,
    )
}

fn encode_stream(entries: &[(u128, Vec<u8>)]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    for (fp, payload) in entries {
        bytes.extend_from_slice(&encode_record(*fp, payload));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → replay round-trips every entry, with last-write-wins
    /// semantics per fingerprint and fingerprint-sorted output.
    #[test]
    fn record_streams_round_trip(raw in entry_strategy()) {
        let entries: Vec<(u128, Vec<u8>)> = raw
            .into_iter()
            .map(|(hi, lo, payload)| ((u128::from(hi) << 64) | u128::from(lo), payload))
            .collect();
        let bytes = encode_stream(&entries);
        let (got, report) = replay(&bytes).unwrap();
        prop_assert_eq!(report.records, entries.len() as u64);
        prop_assert_eq!(report.valid_bytes, bytes.len() as u64);
        prop_assert!(report.corruption.is_none());

        let mut expect: std::collections::BTreeMap<u128, Vec<u8>> =
            std::collections::BTreeMap::new();
        for (fp, payload) in entries {
            expect.insert(fp, payload);
        }
        prop_assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }

    /// Cutting the stream anywhere never panics and never errors (the magic
    /// survives): replay recovers a valid prefix whose re-encoding replays
    /// to the same entries (recovery is idempotent).
    #[test]
    fn truncation_anywhere_recovers_a_replayable_prefix(
        raw in entry_strategy(),
        cut_ppm in 0u64..=1_000_000,
    ) {
        let entries: Vec<(u128, Vec<u8>)> = raw
            .into_iter()
            .map(|(hi, lo, payload)| ((u128::from(hi) << 64) | u128::from(lo), payload))
            .collect();
        let bytes = encode_stream(&entries);
        let body = bytes.len() - MAGIC.len();
        let cut = MAGIC.len() + (body as u64 * cut_ppm / 1_000_000) as usize;

        let (got, report) = replay(&bytes[..cut]).unwrap();
        prop_assert!(report.valid_bytes as usize <= cut);
        prop_assert!(report.records <= entries.len() as u64);
        if cut == bytes.len() {
            prop_assert!(report.corruption.is_none());
        }
        let (again, clean) = replay(&encode_stream(&got)).unwrap();
        prop_assert!(clean.corruption.is_none());
        prop_assert_eq!(again, got);
    }
}
