//! `ulm-serve` speed benches: what the content-addressed cache buys on
//! repeated evaluation, and what the parallelism knob buys on a DSE sweep.
//!
//! Three groups:
//!
//! * `serve_cache` — the same search request answered cold (fresh service
//!   every iteration) vs warm (one service, cache hit after the first
//!   iteration);
//! * `serve_codec` — the JSON byte path a cache hit and a restart pay:
//!   printing and parsing one search response, and `EvalService::open`
//!   replaying a 3,000-record durable log;
//! * `dse_parallelism` — the identical design sweep on 1 vs N threads
//!   (the results are byte-identical; only the wall clock changes).

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Value;
use std::hint::black_box;
use ulm::dse::{enumerate_designs, explore, ExploreOptions, MemoryPool};
use ulm::prelude::*;
use ulm::serve::{CacheLog, EvalOutcome, EvalService, ServeOptions, CACHE_LOG_FILE};

const REQUEST: &str = r#"{"kind":"search","arch":"case16","layer":"64x96x640","mapper":{"max_exhaustive":500,"samples":50}}"#;

fn quiet_service() -> std::sync::Arc<EvalService> {
    EvalService::new(ServeOptions {
        parallelism: Some(1),
        cache_capacity: 256,
        queue_capacity: None,
        ..ServeOptions::default()
    })
}

fn bench_cached_vs_uncached(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_cache");
    g.sample_size(10);
    g.bench_function("uncached_search", |b| {
        b.iter(|| {
            // A fresh service each time: every request is a miss.
            let svc = quiet_service();
            black_box(svc.handle_line(black_box(REQUEST)))
        })
    });
    let warm = quiet_service();
    warm.handle_line(REQUEST); // prime the cache
    g.bench_function("cached_search", |b| {
        b.iter(|| black_box(warm.handle_line(black_box(REQUEST))))
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let warm = quiet_service();
    let line = warm.handle_line(REQUEST).expect("a search answers");
    let response: Value = serde_json::from_str(&line).expect("responses are JSON");
    let mut g = c.benchmark_group("serve_codec");
    g.bench_function("print_search_response", |b| {
        b.iter(|| black_box(serde_json::to_string(black_box(&response)).unwrap()))
    });
    g.bench_function("parse_search_response", |b| {
        b.iter(|| black_box(serde_json::from_str::<Value>(black_box(&line)).unwrap()))
    });

    // A durable log of 3,000 distinct fingerprints, each holding the
    // search outcome the warm service computed (the answer carries every
    // outcome field).
    let outcome: EvalOutcome =
        serde::Deserialize::from_value(&response).expect("the answer holds the outcome");
    let payload = serde_json::to_string(&outcome).expect("printing is infallible");
    let dir = std::env::temp_dir().join(format!("ulm-bench-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the log directory");
    let (mut log, _, _) = CacheLog::open(&dir.join(CACHE_LOG_FILE)).expect("create the log");
    for i in 0..3_000u128 {
        log.append(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), payload.as_bytes())
            .expect("append a record");
    }
    drop(log);
    g.sample_size(10);
    g.bench_function("open_3000_record_log", |b| {
        b.iter(|| {
            black_box(
                EvalService::open(ServeOptions {
                    parallelism: Some(1),
                    cache_dir: Some(dir.clone()),
                    ..ServeOptions::default()
                })
                .expect("the log replays"),
            )
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_dse_parallelism(c: &mut Criterion) {
    let layer = Layer::matmul("dse", 256, 256, 64, Precision::int8_out24());
    let pool = MemoryPool {
        w_reg_words_per_mac: vec![1, 2],
        i_reg_words_per_mac: vec![1, 2],
        o_reg_words_per_pe: vec![1, 2],
        w_lb_kb: vec![4, 16],
        i_lb_kb: vec![4, 16],
    };
    let designs = enumerate_designs(&pool, &[16], 128);
    let opts = |threads: Option<usize>| ExploreOptions {
        mapper: MapperOptions {
            max_exhaustive: 200,
            samples: 20,
            ..MapperOptions::default()
        },
        parallelism: threads,
        ..ExploreOptions::default()
    };

    let mut g = c.benchmark_group("dse_parallelism");
    g.sample_size(10);
    g.bench_function("threads_1", |b| {
        b.iter(|| black_box(explore(&designs, &layer, &opts(None))))
    });
    let n = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    g.bench_function("threads_all", |b| {
        b.iter(|| black_box(explore(&designs, &layer, &opts(Some(n)))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cached_vs_uncached,
    bench_codec,
    bench_dse_parallelism
);
criterion_main!(benches);
