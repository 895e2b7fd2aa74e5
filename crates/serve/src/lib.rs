//! # ulm-serve — concurrent batch evaluation with a content-addressed cache
//!
//! This crate turns the uniform latency model into a *service*: a stream of
//! evaluation requests goes in, a stream of results comes out, and identical
//! requests are answered from a memoization cache instead of being
//! re-evaluated.
//!
//! The moving parts:
//!
//! * [`fingerprint`] — deterministic 128-bit content hashes over everything
//!   that determines an evaluation result (architecture, layer, spatial
//!   unrolling, temporal mapping or search configuration, model options).
//! * [`cache`] — a sharded, bounded, LRU-evicting map from fingerprint to
//!   result, safe to share across worker threads.
//! * [`pool`] — a bounded worker pool on plain `std::thread`; a full queue
//!   blocks producers (backpressure) instead of buffering unboundedly.
//! * [`store`] — the durable, shareable backing store: an append-only,
//!   checksummed log of fingerprint-keyed records that survives restarts,
//!   recovers the valid prefix of a damaged file, and compacts in place.
//! * [`server`] — the NDJSON request/response protocol plus its two
//!   transports: [`server::run_batch`] for stdin/stdout pipelines
//!   (`ulm batch`, every platform) and [`server::run_reactor`] for TCP
//!   sockets on the single-threaded epoll event loop (`ulm serve`,
//!   Linux only). A repeated request of any kind is answered from an
//!   answer store keyed by the request itself, before the request is
//!   typed; on the event loop such a hit never reaches the worker pool.
//!   A mapping search, whichever request kind asks for it, runs once per
//!   distinct set of inputs it reads, in the service's search store.
//!
//! ## Quick start
//!
//! ```
//! use ulm_serve::{EvalService, ServeOptions, server::run_batch};
//!
//! let service = EvalService::new(ServeOptions {
//!     parallelism: Some(2),
//!     cache_capacity: 256,
//!     ..ServeOptions::default()
//! });
//! let requests = concat!(
//!     r#"{"id":1,"kind":"search","arch":"toy","layer":"4x4x8","#,
//!     r#""mapper":{"max_exhaustive":100,"samples":10}}"#,
//!     "\n",
//!     r#"{"id":2,"kind":"stats"}"#,
//!     "\n",
//! );
//! let mut out = Vec::new();
//! let summary = run_batch(&service, requests.as_bytes(), &mut out).unwrap();
//! assert_eq!(summary.requests, 2);
//! assert_eq!(summary.errors, 0);
//! ```
//!
//! Everything is built on `std` only — no async runtime, no HTTP framework —
//! so the service runs anywhere the model itself does; only the event loop
//! behind `ulm serve` needs Linux.

pub mod cache;
pub mod fingerprint;
pub mod pool;
pub mod server;
pub mod store;

pub use cache::{CacheStats, ResultCache};
pub use fingerprint::{fingerprint_of, fingerprint_value, Fingerprint};
pub use pool::{JobHandle, PoolStats, WorkerPool};
pub use server::{
    run_batch, run_reactor, BatchSummary, DiskStats, EvalOutcome, EvalService, LatencySummary,
    ReactorService, SearchMeta, SearchTotals, ServeOptions, SurrogateTotals, WhatifTotals,
    CACHE_LOG_FILE,
};
pub use store::{CacheLog, ReplayReport};
