//! The NDJSON request/response protocol and the evaluation service.
//!
//! One JSON object per line in, one JSON object per line out. Four request
//! kinds:
//!
//! * `eval` — evaluate one explicit temporal mapping:
//!   `{"kind":"eval","id":1,"arch":"case16","layer":"64x96x640","mapping":{…}}`
//! * `search` — run a mapping-space search and return the best mapping:
//!   `{"kind":"search","id":2,"arch":"case16","layer":{"b":64,"k":96,"c":640},"objective":"latency"}`
//! * `whatif` — re-evaluate a base design's best mapping with overridden
//!   architecture knobs, incrementally:
//!   `{"kind":"whatif","id":3,"arch":"case16","layer":"64x96x640","set":["mem.GB.bw=2x"]}`.
//!   The base query is resolved against the fingerprinted result cache
//!   (computed and cached on a miss), the knob overrides become an
//!   [`ulm_model::InputDelta`], and only the invalidated lowering stages
//!   are recomputed for the modified architecture. The response reports
//!   base and modified latency/energy plus their deltas.
//! * `net` — schedule a whole layer sequence, optionally with depth-first
//!   fused segments whose intermediates stay pinned on chip:
//!   `{"kind":"net","id":4,"arch":"toy","net":"attention-decode","fuse":[{"layers":["logit","attend"],"pin":"LB"}]}`.
//!   The `fuse` field enters the fingerprint, so the same network with and
//!   without fusion are distinct cache identities. Network runs share the
//!   eval/search path — result cache, single-flight and durable log — but
//!   their answers carry no `cached` marker; hits show in `/stats`.
//! * `surrogate` — answer a fixed-architecture workload-dimension query
//!   from a cached arch-specialized [`SpecializedModel`]:
//!   `{"kind":"surrogate","id":5,"arch":"case16","layer":"128x96x640","template":"64x96x640"}`.
//!   The service keeps a bounded store of specializations keyed by
//!   `(arch, spatial, model, mapper, template, calibration)`; a request
//!   whose key is resident skips the template search and prices only its
//!   own workload dims under the stored mapping shape, from the
//!   specialization's point memo when it has seen them before. When the
//!   service was opened with a calibration
//!   for the request's architecture, its fitted constants are applied
//!   to each specialization it builds and the calibration id enters the
//!   fingerprint.
//! * `stats` — report cache hit rate, queue depth, request-latency
//!   percentiles and the count of handler panics: `{"kind":"stats"}` (also
//!   accepted as `"/stats"`). Without timing, the latencies and the pool
//!   gauges (`queue_depth`, `in_flight`, `submitted`, `completed`) are
//!   left out, so the answer is reproducible; [`run_batch`] runs a stats
//!   line alone, after every line before it and before any after it.
//!
//! Responses echo the request's `id` and carry `"ok":true` with a result, or
//! `"ok":false` with an `"error"` string. A malformed line yields an error
//! *response*, never a dropped connection.
//!
//! [`EvalService`] is the engine behind both transports: it routes every
//! request through a bounded [`WorkerPool`] and memoizes eval/search/net
//! results, request fingerprints and surrogate specializations, each in
//! a fingerprint-keyed [`ResultCache`]. [`run_batch`] drives it
//! from any `BufRead`/`Write` pair (the `ulm batch` subcommand wires
//! stdin/stdout); [`run_tcp`] serves `std::net::TcpListener` connections
//! (`ulm serve`).

use crate::cache::{CacheStats, ResultCache};
use crate::fingerprint::{fingerprint_request, fingerprint_value, Fingerprint};
use crate::pool::{JobHandle, PoolStats, WorkerPool};
use crate::store::{CacheLog, ReplayReport};
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use ulm_arch::{presets, ArchDesc, Architecture};
use ulm_energy::{EnergyModel, EnergyReport};
use ulm_error::UlmError;
pub use ulm_mapper::SearchStats;
use ulm_mapper::{Mapper, MapperOptions, Objective};
use ulm_mapping::{MappedLayer, Mapping, SegmentResidency, SpatialUnroll};
use ulm_model::{
    apply_overrides, Calibration, InputDelta, LatencyModel, LatencyReport, MappingShape,
    ModelOptions, ModelScratch, SpecializedModel,
};
use ulm_network::{InterLayerOverlap, NetworkEvaluator};
use ulm_reactor::{extract_line, Extracted};
use ulm_workload::{im2col, networks, Dim, Layer, NetworkDesc, Precision};

/// Configuration for an [`EvalService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads; `None` uses `std::thread::available_parallelism`.
    pub parallelism: Option<usize>,
    /// Maximum cached results.
    pub cache_capacity: usize,
    /// Job-queue slots; `None` uses twice the worker count.
    pub queue_capacity: Option<usize>,
    /// Directory for the durable cache log; `None` keeps the cache
    /// memory-only. Opening replays the log into the in-memory cache, and
    /// every newly computed result is appended to it.
    pub cache_dir: Option<PathBuf>,
    /// Emit per-request `elapsed_ms` in responses. Off, responses for
    /// identical request streams are byte-identical across runs and
    /// transports — the differential tests rely on that.
    pub include_timing: bool,
    /// Longest accepted request line in bytes; longer lines are answered
    /// with a `request/too-large` error and discarded.
    pub max_line_len: usize,
    /// Fitted per-port constants from `ulm calibrate`. Applied to
    /// `surrogate` requests whose architecture matches the calibration's;
    /// the calibration id then enters those fingerprints and `/stats`.
    pub calibration: Option<Calibration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            parallelism: None,
            cache_capacity: 4096,
            queue_capacity: None,
            cache_dir: None,
            include_timing: true,
            max_line_len: 1 << 20,
            calibration: None,
        }
    }
}

/// Filename of the durable result log inside a cache directory.
pub const CACHE_LOG_FILE: &str = "results.ulmlog";

/// Append-count threshold that triggers an automatic log compaction.
const COMPACT_EVERY: u64 = 4096;

/// A memoizable eval/search result, as the durable log stores it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EvalOutcome {
    /// The evaluated (for `eval`) or best-found (for `search`) mapping.
    pub mapping: Mapping,
    /// Intra-layer latency breakdown.
    pub latency: LatencyReport,
    /// Energy breakdown.
    pub energy: EnergyReport,
    /// Search metadata; `None` for direct `eval` requests.
    pub search: Option<SearchMeta>,
}

/// How a `search` request covered the mapping space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchMeta {
    /// True when the space was enumerated exhaustively.
    pub exhaustive: bool,
    /// The search's effort counters (the shared [`SearchStats`] from
    /// `ulm-mapper`).
    pub stats: SearchStats,
}

/// A memoizable `net` result: exactly the fields a `net` answer prints,
/// in answer order.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct NetOutcome {
    total_cycles: f64,
    sequential_cycles: f64,
    total_fj: f64,
    utilization: f64,
    segments: Vec<SegmentResidency>,
    layers: Vec<NetLayerOutcome>,
}

/// One layer's row of a [`NetOutcome`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct NetLayerOutcome {
    name: String,
    cc_total: f64,
    energy_fj: f64,
    hidden_preload: u64,
}

/// What a result-cache entry holds: whichever request kind computed the
/// entry under a fingerprint.
// Nearly every entry is a `Layer`, and every entry already sits behind an
// `Arc`; boxing the variant would only add a second allocation per entry.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Outcome {
    Layer(EvalOutcome),
    Net(NetOutcome),
}

impl Outcome {
    /// The answer fields that follow `cached` (eval/search) or
    /// `fingerprint` (net), printed.
    fn print_body(&self) -> Arc<str> {
        match self {
            Outcome::Layer(o) => print_fields(&Value::Object(vec![
                (
                    "mapping_text".to_string(),
                    Value::String(o.mapping.to_string()),
                ),
                ("mapping".to_string(), o.mapping.to_value()),
                ("latency".to_string(), o.latency.to_value()),
                ("energy".to_string(), o.energy.to_value()),
                ("search".to_string(), o.search.to_value()),
            ])),
            Outcome::Net(o) => print_fields(&o.to_value()),
        }
    }

    /// The durable-log payload. An eval/search outcome is printed as
    /// itself — the bytes logs held before net entries existed — and a
    /// net outcome as `{"net":{…}}`, a key no eval/search payload has.
    fn encode(&self) -> Option<Vec<u8>> {
        let value = match self {
            Outcome::Layer(outcome) => outcome.to_value(),
            Outcome::Net(outcome) => Value::Object(vec![("net".to_string(), outcome.to_value())]),
        };
        serde_json::to_string(&value).ok().map(String::into_bytes)
    }

    /// Decodes one persisted log payload; `None` when the JSON is
    /// unreadable or matches neither outcome shape.
    fn decode(payload: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(payload).ok()?;
        let value: Value = serde_json::from_str(text).ok()?;
        match value.get("net") {
            Some(net) => serde::Deserialize::from_value(net).ok().map(Outcome::Net),
            None => serde::Deserialize::from_value(&value)
                .ok()
                .map(Outcome::Layer),
        }
    }
}

/// One result-cache entry. The cache holds entries behind an `Arc`, so a
/// hit clones a pointer, never the outcome.
struct Cached {
    outcome: Outcome,
    /// The outcome's printed answer body, filled on the entry's first hit
    /// and spliced into every later answer. An entry that is never hit —
    /// in an all-distinct stream, or replayed from the log and not asked
    /// for — keeps no printed copy.
    body: OnceLock<Arc<str>>,
}

impl Cached {
    fn new(outcome: Outcome) -> Self {
        Cached {
            outcome,
            body: OnceLock::new(),
        }
    }

    /// The answer to a request with fingerprint `fp`; `hit` says whether
    /// the entry came from the cache.
    fn answer(&self, fp: Fingerprint, hit: bool) -> Answer {
        let head = match &self.outcome {
            Outcome::Layer(o) => {
                let kind = if o.search.is_some() { "search" } else { "eval" };
                format!(r#""kind":"{kind}","fingerprint":"{fp}","cached":{hit},"#)
            }
            // Net answers have never carried a `cached` marker; their cache
            // hits show in `/stats` only, so repeats stay byte-identical.
            Outcome::Net(_) => format!(r#""kind":"net","fingerprint":"{fp}","#),
        };
        let body = if hit {
            Arc::clone(self.body.get_or_init(|| self.outcome.print_body()))
        } else {
            self.outcome.print_body()
        };
        Answer { head, body }
    }
}

/// A successful answer's fields, printed as `"key":value` pairs without
/// the enclosing braces; [`answer_line`] splices it into a response line.
struct Answer {
    /// The fields before `body`, each followed by a comma; empty for
    /// request kinds that are not cached.
    head: String,
    /// The remaining fields. On a cache hit, shared with the entry.
    body: Arc<str>,
}

impl Answer {
    /// An answer printed in full from its fields.
    fn fields(fields: Vec<(String, Value)>) -> Self {
        Answer {
            head: String::new(),
            body: print_fields(&Value::Object(fields)),
        }
    }
}

/// Prints an object's fields without its braces.
fn print_fields(object: &Value) -> Arc<str> {
    let text = serde_json::to_string(object).expect("printing is infallible");
    Arc::from(&text[1..text.len() - 1])
}

/// Incremental-evaluation counters across `whatif` requests, reported by
/// `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WhatifTotals {
    /// `whatif` requests successfully evaluated.
    pub requests: usize,
    /// Requests whose fingerprinted base entry was already cached, so only
    /// the incremental re-evaluation ran.
    pub delta_hits: usize,
    /// Requests that had to compute (and cache) the base design first.
    pub full_rebuilds: usize,
}

/// Surrogate fast-path counters across `surrogate` requests, reported by
/// `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SurrogateTotals {
    /// `surrogate` requests successfully answered.
    pub requests: usize,
    /// Requests answered from a stored specialization.
    pub hits: usize,
    /// Requests that had to build a specialization first.
    pub misses: usize,
}

/// Cumulative search effort across every *executed* (non-cached) search
/// request, reported by `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchTotals {
    /// Search requests actually executed (cache misses).
    pub searches: usize,
    /// Effort counters summed across them (the shared [`SearchStats`]).
    pub stats: SearchStats,
}

/// Request-latency summary for `/stats`, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Completed eval/search/whatif/surrogate/net requests measured.
    pub count: usize,
    /// Fastest request.
    pub min_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// 95th percentile (nearest-rank) over the most recent 4,096 requests.
    pub p95_ms: f64,
    /// Slowest request.
    pub max_ms: f64,
}

impl LatencySummary {
    fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                min_ms: 0.0,
                mean_ms: 0.0,
                p95_ms: 0.0,
                max_ms: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let rank = ((count as f64 * 0.95).ceil() as usize).clamp(1, count);
        LatencySummary {
            count,
            min_ms: sorted[0],
            mean_ms: sorted.iter().sum::<f64>() / count as f64,
            p95_ms: sorted[rank - 1],
            max_ms: sorted[count - 1],
        }
    }
}

/// Most recent request latencies the `/stats` p95 is computed over.
const LATENCY_WINDOW: usize = 4096;

/// Request latencies in bounded memory: exact running count, min, max and
/// sum, plus a ring of the last [`LATENCY_WINDOW`] samples for the p95.
#[derive(Debug, Default)]
struct LatencyLog {
    count: usize,
    min_ms: f64,
    max_ms: f64,
    sum_ms: f64,
    recent: Vec<f64>,
    /// Ring slot the next sample overwrites once `recent` is full.
    next: usize,
}

impl LatencyLog {
    fn record(&mut self, ms: f64) {
        if self.count == 0 {
            (self.min_ms, self.max_ms) = (ms, ms);
        } else {
            self.min_ms = self.min_ms.min(ms);
            self.max_ms = self.max_ms.max(ms);
        }
        self.count += 1;
        self.sum_ms += ms;
        if self.recent.len() < LATENCY_WINDOW {
            self.recent.push(ms);
        } else {
            self.recent[self.next] = ms;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    /// While every sample is still in the ring this is exactly
    /// [`LatencySummary::from_samples`] over all of them; past the window,
    /// count, min, max and mean come from the running totals.
    fn summary(&self) -> LatencySummary {
        let mut summary = LatencySummary::from_samples(&self.recent);
        if self.count > self.recent.len() {
            summary.count = self.count;
            summary.min_ms = self.min_ms;
            summary.max_ms = self.max_ms;
            summary.mean_ms = self.sum_ms / self.count as f64;
        }
        summary
    }
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// A fully resolved evaluation query (everything that enters the
/// fingerprint).
struct Query {
    arch: Architecture,
    spatial: SpatialUnroll,
    layer: Layer,
    model: ModelOptions,
    mode: QueryMode,
}

enum QueryMode {
    Eval(Box<Mapping>),
    Search {
        objective: Objective,
        mapper: MapperOptions,
        /// Worker threads inside the ordering search. Deliberately NOT
        /// part of the fingerprint: the result is identical at every
        /// thread count, so requests differing only here must share a
        /// cache entry.
        parallelism: Option<usize>,
    },
}

/// A whole-network scheduling query (the `net` request kind): a layer
/// sequence plus optional depth-first fused segments and an inter-layer
/// overlap policy. Memoized like a [`Query`]; the `fuse` field is part of
/// its fingerprint, so fused and unfused runs of the same network never
/// alias.
struct NetQuery {
    arch: Architecture,
    spatial: SpatialUnroll,
    layers: Vec<Layer>,
    fusion: Vec<ulm_mapping::FusedSegment>,
    overlap: InterLayerOverlap,
    objective: Objective,
    mapper: MapperOptions,
    /// Threads for the distinct-shape searches; not fingerprinted (the
    /// result is identical at every thread count).
    parallelism: Option<usize>,
}

/// A fixed-architecture workload-dimension query (the `surrogate` request
/// kind), answered through a cached [`SpecializedModel`] when possible.
struct SurrogateQuery {
    arch: Architecture,
    spatial: SpatialUnroll,
    /// The query point; its dims are the only workload-varying input.
    layer: Layer,
    /// Dims of the layer whose best mapping defines the specialization
    /// shape (defaults to the query dims).
    template: (u64, u64, u64),
    model: ModelOptions,
    mapper: MapperOptions,
}

enum Request {
    Query(Box<Query>),
    Net(Box<NetQuery>),
    WhatIf { base: Box<Query>, set: Vec<String> },
    Surrogate(Box<SurrogateQuery>),
    Stats,
}

fn field<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    match obj.get(key) {
        Some(Value::Null) | None => None,
        Some(v) => Some(v),
    }
}

fn parse_u64(v: &Value, what: &str) -> Result<u64, UlmError> {
    v.as_u64().ok_or_else(|| {
        UlmError::invalid_request(format!("`{what}` must be a non-negative integer"))
    })
}

/// Resolves the `arch` field: a preset name (with optional top-level
/// `gb_bw`) or an inline architecture-description object.
fn parse_arch(req: &Value) -> Result<(Architecture, SpatialUnroll), UlmError> {
    let default = Value::String(String::new());
    let spec = field(req, "arch").unwrap_or(&default);
    match spec {
        Value::String(name) => {
            let gb_bw = match field(req, "gb_bw") {
                Some(v) => parse_u64(v, "gb_bw")?,
                None => 128,
            };
            let preset = if name.is_empty() { "case16" } else { name };
            let chip = presets::by_name(preset, gb_bw).ok_or_else(|| {
                UlmError::invalid_request(format!(
                    "unknown arch preset `{name}` ({})",
                    presets::NAMES.join("|")
                ))
            })?;
            Ok((chip.arch, SpatialUnroll::new(chip.spatial)))
        }
        obj @ Value::Object(_) => {
            let desc: ArchDesc = serde::Deserialize::from_value(obj)
                .map_err(|e| UlmError::invalid_request(format!("invalid arch description: {e}")))?;
            let (arch, spatial) = desc.build().map_err(UlmError::from)?;
            Ok((arch, SpatialUnroll::new(spatial)))
        }
        _ => Err(UlmError::invalid_request(
            "`arch` must be a preset name or an object",
        )),
    }
}

fn parse_precision(name: &str) -> Result<Precision, UlmError> {
    Precision::by_name(name).ok_or_else(|| {
        UlmError::invalid_request(format!(
            "unknown precision `{name}` ({})",
            Precision::NAMES.join("|")
        ))
    })
}

/// Rejects zero sizes before they reach `Layer::matmul` (which asserts
/// positivity and would panic the worker).
fn check_dims(b: u64, k: u64, c: u64) -> Result<(), UlmError> {
    if b == 0 || k == 0 || c == 0 {
        return Err(UlmError::invalid_request(format!(
            "layer dimensions must be positive, got {b}x{k}x{c}"
        )));
    }
    Ok(())
}

/// Resolves the `layer` field: `"BxKxC"` shorthand or an object with
/// `b`/`k`/`c` and optional `precision`/`name`.
fn parse_layer(req: &Value) -> Result<Layer, UlmError> {
    let spec = field(req, "layer").ok_or_else(|| UlmError::invalid_request("missing `layer`"))?;
    match spec {
        Value::String(text) => {
            let parts: Vec<&str> = text.split('x').collect();
            let bad =
                || UlmError::invalid_request(format!("`layer` string must be BxKxC, got `{text}`"));
            if parts.len() != 3 {
                return Err(bad());
            }
            let b: u64 = parts[0].parse().map_err(|_| bad())?;
            let k: u64 = parts[1].parse().map_err(|_| bad())?;
            let c: u64 = parts[2].parse().map_err(|_| bad())?;
            check_dims(b, k, c)?;
            Ok(Layer::matmul(
                format!("({b},{k},{c})"),
                b,
                k,
                c,
                Precision::int8_out24(),
            ))
        }
        Value::Object(_) => {
            let need = |key: &str| UlmError::invalid_request(format!("`layer` needs `{key}`"));
            let b = parse_u64(field(spec, "b").ok_or_else(|| need("b"))?, "layer.b")?;
            let k = parse_u64(field(spec, "k").ok_or_else(|| need("k"))?, "layer.k")?;
            let c = parse_u64(field(spec, "c").ok_or_else(|| need("c"))?, "layer.c")?;
            check_dims(b, k, c)?;
            let precision = match field(spec, "precision") {
                Some(Value::String(p)) => parse_precision(p)?,
                Some(_) => {
                    return Err(UlmError::invalid_request(
                        "`layer.precision` must be a string",
                    ))
                }
                None => Precision::int8_out24(),
            };
            let name = match field(spec, "name") {
                Some(Value::String(n)) => n.clone(),
                _ => format!("({b},{k},{c})"),
            };
            Ok(Layer::matmul(name, b, k, c, precision))
        }
        _ => Err(UlmError::invalid_request(
            "`layer` must be a BxKxC string or an object",
        )),
    }
}

/// Optional `spatial` override: `[["K",16],["B",8]]`.
fn parse_spatial(req: &Value, default: SpatialUnroll) -> Result<SpatialUnroll, UlmError> {
    match field(req, "spatial") {
        None => Ok(default),
        Some(v) => {
            let pairs: Vec<(Dim, u64)> = serde::Deserialize::from_value(v)
                .map_err(|e| UlmError::invalid_request(format!("invalid `spatial`: {e}")))?;
            if pairs.iter().any(|&(_, f)| f == 0) {
                return Err(UlmError::invalid_request(
                    "`spatial` factors must be positive",
                ));
            }
            Ok(SpatialUnroll::new(pairs))
        }
    }
}

/// Optional `model` overrides, applied on top of [`ModelOptions::default`].
fn parse_model(req: &Value) -> Result<ModelOptions, UlmError> {
    let mut opts = ModelOptions::default();
    let Some(spec) = field(req, "model") else {
        return Ok(opts);
    };
    let Value::Object(entries) = spec else {
        return Err(UlmError::invalid_request("`model` must be an object"));
    };
    for (key, v) in entries {
        let flag = v
            .as_bool()
            .ok_or_else(|| UlmError::invalid_request(format!("`model.{key}` must be a boolean")));
        match key.as_str() {
            "bw_aware" => opts.bw_aware = flag?,
            "compute_links" => opts.compute_links = flag?,
            "phase_aware_z" => opts.phase_aware_z = flag?,
            "eq2_oversubscription_bound" => opts.eq2_oversubscription_bound = flag?,
            "max_intervals" => {
                opts.union.max_intervals = parse_u64(v, "model.max_intervals")?;
            }
            other => {
                return Err(UlmError::invalid_request(format!(
                    "unknown model option `{other}`"
                )))
            }
        }
    }
    Ok(opts)
}

/// Optional `mapper` overrides, applied on top of [`MapperOptions::default`]
/// (with `bw_aware` following the model options unless set explicitly).
fn parse_mapper(
    req: &Value,
    model: &ModelOptions,
) -> Result<(MapperOptions, Option<usize>), UlmError> {
    let mut opts = MapperOptions {
        bw_aware: model.bw_aware,
        ..MapperOptions::default()
    };
    let mut parallelism = None;
    let Some(spec) = field(req, "mapper") else {
        return Ok((opts, parallelism));
    };
    let Value::Object(entries) = spec else {
        return Err(UlmError::invalid_request("`mapper` must be an object"));
    };
    for (key, v) in entries {
        match key.as_str() {
            "max_exhaustive" => {
                opts.max_exhaustive = u128::from(parse_u64(v, "mapper.max_exhaustive")?);
            }
            "samples" => opts.samples = parse_u64(v, "mapper.samples")? as usize,
            "seed" => opts.seed = parse_u64(v, "mapper.seed")?,
            "bw_aware" => {
                opts.bw_aware = v.as_bool().ok_or_else(|| {
                    UlmError::invalid_request("`mapper.bw_aware` must be a boolean")
                })?;
            }
            "parallelism" => {
                parallelism = match parse_u64(v, "mapper.parallelism")? {
                    0 => None,
                    n => Some(n as usize),
                };
            }
            other => {
                return Err(UlmError::invalid_request(format!(
                    "unknown mapper option `{other}`"
                )))
            }
        }
    }
    Ok((opts, parallelism))
}

fn parse_objective(req: &Value) -> Result<Objective, UlmError> {
    match field(req, "objective") {
        None => Ok(Objective::Latency),
        Some(Value::String(s)) => Objective::by_name(s).ok_or_else(|| {
            UlmError::invalid_request(format!(
                "unknown objective `{}` ({})",
                s.to_ascii_lowercase(),
                Objective::NAMES.join("|")
            ))
        }),
        Some(_) => Err(UlmError::invalid_request("`objective` must be a string")),
    }
}

/// The `set` field of a `whatif` request: a non-empty array of
/// `mem.<name>.<knob>=<value>` override strings.
fn parse_set(req: &Value) -> Result<Vec<String>, UlmError> {
    let spec = field(req, "set")
        .ok_or_else(|| UlmError::invalid_request("`whatif` needs a `set` array of overrides"))?;
    let Value::Array(items) = spec else {
        return Err(UlmError::invalid_request("`set` must be an array"));
    };
    let mut set = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::String(s) => set.push(s.clone()),
            _ => {
                return Err(UlmError::invalid_request(
                    "`set` entries must be strings like `mem.GB.bw=2x`",
                ))
            }
        }
    }
    if set.is_empty() {
        return Err(UlmError::invalid_request("`set` must not be empty"));
    }
    Ok(set)
}

/// Parses the common eval/search query fields. `eval_mode` selects an
/// explicit-mapping evaluation over a mapping search.
fn parse_query(req: &Value, eval_mode: bool) -> Result<Query, UlmError> {
    let (arch, default_spatial) = parse_arch(req)?;
    let spatial = parse_spatial(req, default_spatial)?;
    let layer = parse_layer(req)?;
    let model = parse_model(req)?;
    let mode = if eval_mode {
        let spec = field(req, "mapping")
            .ok_or_else(|| UlmError::invalid_request("`eval` needs a `mapping`"))?;
        let mapping: Mapping = serde::Deserialize::from_value(spec)
            .map_err(|e| UlmError::invalid_request(format!("invalid `mapping`: {e}")))?;
        QueryMode::Eval(Box::new(mapping))
    } else {
        let (mapper, parallelism) = parse_mapper(req, &model)?;
        QueryMode::Search {
            objective: parse_objective(req)?,
            mapper,
            parallelism,
        }
    };
    Ok(Query {
        arch,
        spatial,
        layer,
        model,
        mode,
    })
}

/// Resolves the `net` field: a built-in preset name or an inline network
/// description object. Conv layers are Im2Col-lowered to matmuls, same as
/// the CLI's `ulm network`.
fn parse_net_layers(req: &Value) -> Result<Vec<Layer>, UlmError> {
    let spec = field(req, "net")
        .ok_or_else(|| UlmError::invalid_request("`net` request needs a `net` field"))?;
    let lowered: Vec<_> = match spec {
        Value::String(name) => networks::by_name(name).ok_or_else(|| {
            UlmError::invalid_request(format!(
                "unknown net preset `{name}` ({})",
                networks::NAMES.join("|")
            ))
        })?,
        obj @ Value::Object(_) => {
            let desc: NetworkDesc = serde::Deserialize::from_value(obj)
                .map_err(|e| UlmError::invalid_request(format!("invalid net description: {e}")))?;
            desc.to_layers()
                .map_err(UlmError::from)?
                .iter()
                .map(im2col)
                .collect()
        }
        _ => {
            return Err(UlmError::invalid_request(
                "`net` must be a preset name or an object",
            ))
        }
    };
    lowered
        .into_iter()
        .map(|l| l.map_err(|e| UlmError::invalid_request(e.to_string())))
        .collect()
}

/// The optional `fuse` field: an array of fused-segment descriptors,
/// `[{"layers":["logit","attend"],"pin":"LB"}, …]`. Validation against
/// the network and chip happens at evaluation time.
fn parse_fuse(req: &Value) -> Result<Vec<ulm_mapping::FusedSegment>, UlmError> {
    match field(req, "fuse") {
        None => Ok(Vec::new()),
        Some(v) => serde::Deserialize::from_value(v)
            .map_err(|e| UlmError::invalid_request(format!("invalid `fuse`: {e}"))),
    }
}

fn parse_overlap(req: &Value) -> Result<InterLayerOverlap, UlmError> {
    match field(req, "overlap") {
        None => Ok(InterLayerOverlap::None),
        Some(Value::String(s)) => match s.as_str() {
            "none" => Ok(InterLayerOverlap::None),
            "weight-prefetch" => Ok(InterLayerOverlap::WeightPrefetch),
            other => Err(UlmError::invalid_request(format!(
                "unknown overlap `{other}` (none|weight-prefetch)"
            ))),
        },
        Some(_) => Err(UlmError::invalid_request("`overlap` must be a string")),
    }
}

fn parse_surrogate_query(req: &Value) -> Result<SurrogateQuery, UlmError> {
    let (arch, default_spatial) = parse_arch(req)?;
    let spatial = parse_spatial(req, default_spatial)?;
    let layer = parse_layer(req)?;
    let model = parse_model(req)?;
    let (mapper, _parallelism) = parse_mapper(req, &model)?;
    let template = match field(req, "template") {
        None => (
            layer.shape().dim(Dim::B),
            layer.shape().dim(Dim::K),
            layer.shape().dim(Dim::C),
        ),
        Some(Value::String(text)) => {
            let parts: Vec<&str> = text.split('x').collect();
            let bad =
                || UlmError::invalid_request(format!("`template` must be BxKxC, got `{text}`"));
            if parts.len() != 3 {
                return Err(bad());
            }
            let b: u64 = parts[0].parse().map_err(|_| bad())?;
            let k: u64 = parts[1].parse().map_err(|_| bad())?;
            let c: u64 = parts[2].parse().map_err(|_| bad())?;
            check_dims(b, k, c)?;
            (b, k, c)
        }
        Some(_) => {
            return Err(UlmError::invalid_request(
                "`template` must be a BxKxC string",
            ))
        }
    };
    Ok(SurrogateQuery {
        arch,
        spatial,
        layer,
        template,
        model,
        mapper,
    })
}

fn parse_net_query(req: &Value) -> Result<NetQuery, UlmError> {
    let (arch, default_spatial) = parse_arch(req)?;
    let spatial = parse_spatial(req, default_spatial)?;
    let layers = parse_net_layers(req)?;
    let model = parse_model(req)?;
    let (mapper, parallelism) = parse_mapper(req, &model)?;
    Ok(NetQuery {
        arch,
        spatial,
        layers,
        fusion: parse_fuse(req)?,
        overlap: parse_overlap(req)?,
        objective: parse_objective(req)?,
        mapper,
        parallelism,
    })
}

/// The top-level keys every request kind accepts.
const COMMON_KEYS: [&str; 5] = ["id", "kind", "arch", "gb_bw", "spatial"];

/// The top-level keys `kind` accepts beyond [`COMMON_KEYS`]: exactly the
/// fields its parser reads. `None` for an unknown kind.
fn kind_keys(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "stats" | "/stats" => &[],
        "eval" => &["layer", "model", "mapping"],
        "search" => &["layer", "model", "mapper", "objective"],
        "whatif" => &["layer", "model", "mapper", "objective", "mapping", "set"],
        "net" => &["net", "model", "mapper", "fuse", "overlap", "objective"],
        "surrogate" => &["layer", "model", "mapper", "template"],
        _ => return None,
    })
}

fn parse_request(req: &Value) -> Result<Request, UlmError> {
    let Value::Object(entries) = req else {
        return Err(UlmError::invalid_request("request must be a JSON object"));
    };
    let kind = match field(req, "kind") {
        Some(Value::String(k)) => k.as_str(),
        Some(_) => return Err(UlmError::invalid_request("`kind` must be a string")),
        // Requests with a `mapping` default to eval, ones with a `net`
        // to a network run, everything else to search, so minimal lines
        // stay minimal.
        None => {
            if field(req, "mapping").is_some() {
                "eval"
            } else if field(req, "net").is_some() {
                "net"
            } else {
                "search"
            }
        }
    };
    let allowed = kind_keys(kind).ok_or_else(|| {
        UlmError::invalid_request(format!(
            "unknown kind `{kind}` (eval|search|whatif|net|surrogate|stats)"
        ))
    })?;
    // A misspelled field would otherwise be ignored and the request
    // answered as if it were absent.
    if let Some((key, _)) = entries
        .iter()
        .find(|(key, _)| !COMMON_KEYS.contains(&key.as_str()) && !allowed.contains(&key.as_str()))
    {
        return Err(UlmError::invalid_request(format!(
            "unknown field `{key}` for kind `{kind}` (allowed: {})",
            COMMON_KEYS
                .iter()
                .chain(allowed)
                .copied()
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    match kind {
        "stats" | "/stats" => Ok(Request::Stats),
        "eval" | "search" => Ok(Request::Query(Box::new(parse_query(req, kind == "eval")?))),
        "net" => Ok(Request::Net(Box::new(parse_net_query(req)?))),
        // The base of a `whatif` follows the same defaulting rule: an
        // explicit `mapping` evaluates that mapping, otherwise the best
        // mapping is searched (and cached) first.
        "whatif" => {
            let with_mapping = field(req, "mapping").is_some();
            // Nothing is searched under an explicit mapping, so search
            // settings there would be silently ignored.
            let search_key = entries
                .iter()
                .find(|(key, _)| key == "mapper" || key == "objective");
            if let (true, Some((key, _))) = (with_mapping, search_key) {
                return Err(UlmError::invalid_request(format!(
                    "`{key}` is not allowed on a `whatif` with a `mapping` (nothing is searched)"
                )));
            }
            Ok(Request::WhatIf {
                set: parse_set(req)?,
                base: Box::new(parse_query(req, with_mapping)?),
            })
        }
        "surrogate" => Ok(Request::Surrogate(Box::new(parse_surrogate_query(req)?))),
        _ => unreachable!("kind_keys accepted the kind"),
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A memoized request: its fingerprint names the result, `execute`
/// computes it on a cache miss. [`EvalService::lookup_or_execute`] runs
/// every job through the same cache, single-flight and durable log.
trait Job {
    /// True when the job computes an [`Outcome::Net`]. A cache entry of
    /// the other kind under the job's fingerprint is treated as a miss.
    const NET: bool;

    /// The canonical identity of the result. Everything that can change
    /// it is included; thread counts are not.
    fn fingerprint(&self) -> Fingerprint;

    fn execute(&self) -> Result<Outcome, UlmError>;
}

impl Job for Query {
    const NET: bool = false;

    fn fingerprint(&self) -> Fingerprint {
        let mut entries = vec![
            ("arch".to_string(), self.arch.to_value()),
            ("spatial".to_string(), self.spatial.to_value()),
            ("layer".to_string(), self.layer.to_value()),
            ("model".to_string(), self.model.to_value()),
        ];
        match &self.mode {
            QueryMode::Eval(mapping) => {
                entries.push(("op".to_string(), Value::String("eval".into())));
                entries.push(("mapping".to_string(), mapping.to_value()));
            }
            QueryMode::Search {
                objective, mapper, ..
            } => {
                entries.push(("op".to_string(), Value::String("search".into())));
                entries.push(("objective".to_string(), objective.to_value()));
                entries.push(("mapper".to_string(), mapper.to_value()));
            }
        }
        fingerprint_value(&Value::Object(entries))
    }

    fn execute(&self) -> Result<Outcome, UlmError> {
        let outcome = match &self.mode {
            QueryMode::Eval(mapping) => {
                let view = MappedLayer::new(&self.layer, &self.arch, mapping)?;
                // One lowering feeds both models.
                let model = LatencyModel::with_options(self.model);
                let lowered = ulm_model::LoweredLayer::build(&view, model.dtl_options());
                let latency = model.evaluate_lowered(&view, &lowered);
                let energy = EnergyModel::new().evaluate_lowered(&view, &lowered);
                EvalOutcome {
                    mapping: (**mapping).clone(),
                    latency,
                    energy,
                    search: None,
                }
            }
            QueryMode::Search {
                objective,
                mapper,
                parallelism,
            } => {
                let result = Mapper::new(&self.arch, &self.layer, self.spatial.clone())
                    .with_options(*mapper)
                    .with_parallelism(*parallelism)
                    .search(*objective)?;
                EvalOutcome {
                    mapping: result.best.mapping,
                    latency: result.best.latency,
                    energy: result.best.energy,
                    search: Some(SearchMeta {
                        exhaustive: result.exhaustive,
                        stats: result.stats,
                    }),
                }
            }
        };
        Ok(Outcome::Layer(outcome))
    }
}

impl Job for NetQuery {
    const NET: bool = true;

    /// The `fuse` descriptors are included — fused and unfused evaluations
    /// of the same network are different results and must never share an
    /// identity.
    fn fingerprint(&self) -> Fingerprint {
        let entries = vec![
            ("op".to_string(), Value::String("net".into())),
            ("arch".to_string(), self.arch.to_value()),
            ("spatial".to_string(), self.spatial.to_value()),
            (
                "layers".to_string(),
                Value::Array(self.layers.iter().map(Serialize::to_value).collect()),
            ),
            ("fuse".to_string(), self.fusion.to_value()),
            ("overlap".to_string(), self.overlap.to_value()),
            ("objective".to_string(), self.objective.to_value()),
            ("mapper".to_string(), self.mapper.to_value()),
        ];
        fingerprint_value(&Value::Object(entries))
    }

    fn execute(&self) -> Result<Outcome, UlmError> {
        let report = NetworkEvaluator::new(&self.arch, self.spatial.clone())
            .with_overlap(self.overlap)
            .with_objective(self.objective)
            .with_mapper_options(self.mapper)
            .with_parallelism(self.parallelism)
            .with_fusion(self.fusion.clone())
            .evaluate(&self.layers)?;
        Ok(Outcome::Net(NetOutcome {
            total_cycles: report.total_cycles(),
            sequential_cycles: report.sequential_cycles(),
            total_fj: report.total_fj(),
            utilization: report.utilization(),
            layers: report
                .layers
                .iter()
                .map(|l| NetLayerOutcome {
                    name: l.name.clone(),
                    cc_total: l.latency.cc_total,
                    energy_fj: l.energy.total_fj,
                    hidden_preload: l.hidden_preload,
                })
                .collect(),
            segments: report.segments,
        }))
    }
}

impl SurrogateQuery {
    /// The inputs the cached specialization depends on — everything
    /// except the workload dims. Also the prefix of the result
    /// fingerprint. The calibration id is included when the service
    /// applied one: calibrated and uncalibrated answers must never alias.
    fn spec_entries(&self, calibration_id: Option<&str>) -> Vec<(String, Value)> {
        let (tb, tk, tc) = self.template;
        let mut entries = vec![
            ("op".to_string(), Value::String("surrogate".into())),
            ("arch".to_string(), self.arch.to_value()),
            ("spatial".to_string(), self.spatial.to_value()),
            ("model".to_string(), self.model.to_value()),
            ("mapper".to_string(), self.mapper.to_value()),
            (
                "template".to_string(),
                Value::String(format!("{tb}x{tk}x{tc}")),
            ),
            ("precision".to_string(), self.layer.precision().to_value()),
        ];
        if let Some(id) = calibration_id {
            entries.push(("calibration".to_string(), Value::String(id.to_string())));
        }
        entries
    }

    /// Key of the query's specialization in the service's store.
    fn spec_key(&self, calibration_id: Option<&str>) -> Fingerprint {
        fingerprint_value(&Value::Object(self.spec_entries(calibration_id)))
    }

    /// The canonical identity of this query's *result*: the
    /// specialization's inputs plus the workload dims.
    fn fingerprint(&self, calibration_id: Option<&str>) -> Fingerprint {
        let mut entries = self.spec_entries(calibration_id);
        entries.push(("layer".to_string(), self.layer.to_value()));
        fingerprint_value(&Value::Object(entries))
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Serializes the cache's current entries into log-ready `(fingerprint,
/// payload)` pairs.
fn encode_snapshot(cache: &ResultCache<Arc<Cached>>) -> Vec<(u128, Vec<u8>)> {
    cache
        .snapshot()
        .into_iter()
        .filter_map(|(fp, entry)| entry.outcome.encode().map(|payload| (fp, payload)))
        .collect()
}

/// One protocol-shaped error line (`id:null`, `ok:false`, message + code)
/// for failures that happen before a request can be parsed at all —
/// oversized lines, over-capacity rejections.
fn error_response(err: UlmError) -> String {
    error_line(&Value::Null, &err)
}

/// One `"ok":true` response line: `{"id":…,"ok":true,` + the answer's
/// head and body + `elapsed_ms` when given + `}`. Cache hits and misses
/// are spliced alike, so a hit's bytes equal the miss's but for `cached`.
fn answer_line(id: &Value, answer: &Answer, elapsed_ms: Option<f64>) -> String {
    let id = serde_json::to_string(id).expect("printing is infallible");
    let mut line = String::with_capacity(id.len() + answer.head.len() + answer.body.len() + 48);
    line.push_str("{\"id\":");
    line.push_str(&id);
    line.push_str(",\"ok\":true,");
    line.push_str(&answer.head);
    line.push_str(&answer.body);
    if let Some(ms) = elapsed_ms {
        line.push_str(",\"elapsed_ms\":");
        line.push_str(&serde_json::to_string(&Value::F64(ms)).expect("printing is infallible"));
    }
    line.push('}');
    line
}

/// One `"ok":false` response line: the request's `id`, the error message
/// and its stable machine-readable `domain/kind` code.
fn error_line(id: &Value, err: &UlmError) -> String {
    let entries = vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::String(err.to_string())),
        ("code".to_string(), Value::String(err.code().to_string())),
    ];
    serde_json::to_string(&Value::Object(entries)).expect("printing is infallible")
}

/// Runs a request handler, turning a panic into an `internal/panic` error
/// so the request still gets its answer. The service takes every lock
/// poison-tolerantly, and [`ResultCache::get_or_build`] wakes the waiters
/// of a build that panics, so an unwind leaves no other request waiting.
fn catch_panic<T>(handler: impl FnOnce() -> Result<T, UlmError>) -> Result<T, UlmError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(UlmError::Panic { message })
    })
}

/// Durable-store state and counters for a disk-backed service.
struct DiskState {
    log: Mutex<CacheLog>,
    /// Entries successfully replayed into the cache at startup.
    warmed: usize,
    /// What the startup replay found on disk.
    replay: ReplayReport,
    /// CRC-valid records whose payload would not decode (skipped).
    decode_failures: u64,
    /// Records appended this run.
    appends: AtomicU64,
    /// Appends that failed at the I/O layer (the request still succeeds).
    append_errors: AtomicU64,
    /// Automatic compactions this run.
    compactions: AtomicU64,
}

/// Counters describing the durable cache log, reported by `/stats` and
/// returned by [`EvalService::disk_stats`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DiskStats {
    /// Entries replayed into the in-memory cache at startup.
    pub warmed: usize,
    /// Valid records the startup replay read (before deduplication).
    pub replayed_records: u64,
    /// Stable code of the tail corruption the replay recovered from, if
    /// any (e.g. `cache/truncated`).
    pub recovered_from: Option<String>,
    /// CRC-valid records whose payload would not decode (skipped).
    pub decode_failures: u64,
    /// Records appended this run.
    pub appends: u64,
    /// Appends that failed at the I/O layer.
    pub append_errors: u64,
    /// Automatic compactions this run.
    pub compactions: u64,
}

/// Specializations the service keeps for `surrogate` requests: four per
/// cache shard, so any four keys stay resident together however they hash.
/// Each holds at most `MEMO_CAP` (16,384) remembered points.
const SPECIALIZATIONS: usize = 64;

/// The concurrent, cache-backed evaluation engine.
pub struct EvalService {
    cache: ResultCache<Arc<Cached>>,
    /// Request (minus its `id`) → the canonical fingerprint of what it
    /// asks for, so each distinct request builds its fingerprint once.
    /// Bounded by the cache capacity; its probes are not cache lookups.
    fingerprints: ResultCache<Fingerprint>,
    /// Surrogate specializations by `spec_key`. Each sits behind its own
    /// lock: a query updates the specialization's scratch and point memo.
    specializations: ResultCache<Arc<Mutex<SpecializedModel>>>,
    pool: WorkerPool,
    latencies: Mutex<LatencyLog>,
    /// Requests answered with `internal/panic`.
    panics: AtomicU64,
    search_totals: Mutex<SearchTotals>,
    whatif_totals: Mutex<WhatifTotals>,
    surrogate_totals: Mutex<SurrogateTotals>,
    calibration: Option<Calibration>,
    disk: Option<DiskState>,
    include_timing: bool,
    max_line_len: usize,
}

impl EvalService {
    /// A memory-only service with the given sizing.
    ///
    /// # Panics
    ///
    /// Panics when `opts.cache_dir` is set — opening a durable store can
    /// fail, so that path must go through [`EvalService::open`].
    pub fn new(opts: ServeOptions) -> Arc<Self> {
        assert!(
            opts.cache_dir.is_none(),
            "EvalService::new is memory-only; use EvalService::open for cache_dir"
        );
        Self::open(opts).expect("in-memory service construction is infallible")
    }

    /// A service with the given sizing, warming the in-memory cache from
    /// `opts.cache_dir`'s log when one is configured.
    ///
    /// # Errors
    ///
    /// Fails when the cache log cannot be created/opened, or exists but is
    /// not a cache log (`cache/bad-magic`). A *damaged* log is not an
    /// error: the valid prefix is loaded and the torn tail truncated away.
    pub fn open(opts: ServeOptions) -> Result<Arc<Self>, UlmError> {
        let workers = opts.parallelism.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        });
        let queue = opts.queue_capacity.unwrap_or(2 * workers.max(1));
        let cache = ResultCache::new(opts.cache_capacity);
        let disk = match &opts.cache_dir {
            None => None,
            Some(dir) => {
                let (log, entries, replay) = CacheLog::open(&dir.join(CACHE_LOG_FILE))?;
                let mut warmed = 0usize;
                let mut decode_failures = 0u64;
                for (fp, payload) in entries {
                    match Outcome::decode(&payload) {
                        Some(outcome) => {
                            cache.insert(Fingerprint(fp), Arc::new(Cached::new(outcome)));
                            warmed += 1;
                        }
                        None => decode_failures += 1,
                    }
                }
                Some(DiskState {
                    log: Mutex::new(log),
                    warmed,
                    replay,
                    decode_failures,
                    appends: AtomicU64::new(0),
                    append_errors: AtomicU64::new(0),
                    compactions: AtomicU64::new(0),
                })
            }
        };
        Ok(Arc::new(EvalService {
            cache,
            fingerprints: ResultCache::new(opts.cache_capacity),
            specializations: ResultCache::new(SPECIALIZATIONS),
            pool: WorkerPool::new(workers, queue),
            latencies: Mutex::new(LatencyLog::default()),
            panics: AtomicU64::new(0),
            search_totals: Mutex::new(SearchTotals::default()),
            whatif_totals: Mutex::new(WhatifTotals::default()),
            surrogate_totals: Mutex::new(SurrogateTotals::default()),
            calibration: opts.calibration.clone(),
            disk,
            include_timing: opts.include_timing,
            max_line_len: opts.max_line_len,
        }))
    }

    /// Counters for the durable store, `None` when memory-only.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| DiskStats {
            warmed: d.warmed,
            replayed_records: d.replay.records,
            recovered_from: d.replay.corruption.as_ref().map(|e| e.code().to_string()),
            decode_failures: d.decode_failures,
            appends: d.appends.load(Ordering::Relaxed),
            append_errors: d.append_errors.load(Ordering::Relaxed),
            compactions: d.compactions.load(Ordering::Relaxed),
        })
    }

    /// The configured request-line length bound in bytes.
    pub fn max_line_len(&self) -> usize {
        self.max_line_len
    }

    /// Appends a freshly computed result to the durable log (best-effort:
    /// an I/O failure is counted, not propagated — the in-memory result
    /// already answered the request) and compacts when enough appends have
    /// accumulated.
    fn persist(&self, fp: Fingerprint, outcome: &Outcome) {
        let Some(disk) = &self.disk else { return };
        let Some(payload) = outcome.encode() else {
            disk.append_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut log = disk
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match log.append(fp.0, &payload) {
            Ok(()) => {
                disk.appends.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                disk.append_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if log.appended_since_compact() >= COMPACT_EVERY {
            let entries = encode_snapshot(&self.cache);
            if log.compact(&entries).is_ok() {
                disk.compactions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Forces a log compaction down to the current in-memory snapshot.
    /// No-op (returning `Ok`) when memory-only.
    pub fn compact_cache_log(&self) -> Result<(), UlmError> {
        let Some(disk) = &self.disk else {
            return Ok(());
        };
        let entries = encode_snapshot(&self.cache);
        let mut log = disk
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        log.compact(&entries)?;
        disk.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Cumulative search-effort counters over executed (non-cached)
    /// search requests.
    pub fn search_totals(&self) -> SearchTotals {
        *self
            .search_totals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Cumulative incremental-evaluation counters over `whatif` requests.
    pub fn whatif_totals(&self) -> WhatifTotals {
        *self
            .whatif_totals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Cumulative fast-path counters over `surrogate` requests.
    pub fn surrogate_totals(&self) -> SurrogateTotals {
        *self
            .surrogate_totals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The id of the calibration the service was opened with, if any.
    pub fn calibration_id(&self) -> Option<&str> {
        self.calibration.as_ref().map(|c| c.id.as_str())
    }

    /// Snapshot of cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot of pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Handles one raw NDJSON line synchronously on the calling thread.
    /// Returns `None` for blank lines.
    pub fn handle_line(&self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let req = match serde_json::from_str::<Value>(line) {
            Ok(req) => req,
            Err(e) => {
                let err = UlmError::invalid_request(format!("invalid JSON: {e}"));
                return Some(error_line(&Value::Null, &err));
            }
        };
        let id = req.get("id").unwrap_or(&Value::Null);
        Some(match catch_panic(|| self.respond(id, &req)) {
            Ok(line) => line,
            Err(err) => {
                if matches!(err, UlmError::Panic { .. }) {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                }
                error_line(id, &err)
            }
        })
    }

    /// Submits one line to the worker pool (blocking while the queue is
    /// full) and returns a handle to the eventual response.
    pub fn submit_line(self: &Arc<Self>, line: String) -> JobHandle<Option<String>> {
        let service = Arc::clone(self);
        self.pool.submit(move || service.handle_line(&line))
    }

    /// Answers one parsed request line whose `id` is `id`.
    fn respond(&self, id: &Value, req: &Value) -> Result<String, UlmError> {
        // Unit tests inject a handler panic with this request kind.
        #[cfg(test)]
        if req.get("kind").and_then(Value::as_str) == Some("test/panic") {
            panic!("injected handler panic");
        }
        match parse_request(req)? {
            Request::Stats => Ok(answer_line(id, &Answer::fields(self.stats_fields()), None)),
            Request::WhatIf { base, set } => {
                self.timed(id, || self.respond_whatif(req, &base, &set))
            }
            Request::Surrogate(query) => self.timed(id, || self.respond_surrogate(req, &query)),
            Request::Net(query) => self.timed(id, || self.respond_cached(req, &*query)),
            Request::Query(query) => self.timed(id, || self.respond_cached(req, &*query)),
        }
    }

    /// Runs one request handler under the latency clock: the sample goes
    /// to `/stats` whether the handler succeeds or fails, and a success
    /// carries `elapsed_ms` when timing is on.
    fn timed(
        &self,
        id: &Value,
        handler: impl FnOnce() -> Result<Answer, UlmError>,
    ) -> Result<String, UlmError> {
        let start = Instant::now();
        let result = handler();
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        self.latencies
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .record(elapsed_ms);
        Ok(answer_line(
            id,
            &result?,
            self.include_timing.then_some(elapsed_ms),
        ))
    }

    /// Answers an eval, search or net request from its cache entry,
    /// computing the entry on a miss.
    fn respond_cached<J: Job>(&self, req: &Value, job: &J) -> Result<Answer, UlmError> {
        let (fp, entry, hit) = self.lookup_or_execute(req, job)?;
        Ok(entry.answer(fp, hit))
    }

    /// Applies the knob overrides, resolves the base query against the
    /// fingerprinted cache (computing and caching it on a miss), and
    /// re-evaluates the base's mapping on the modified architecture
    /// through the dirty-stage delta path — invalidated lowering stages
    /// are recomputed, everything else is reused. The delta evaluation is
    /// bit-identical to a cold evaluation of the modified design.
    fn respond_whatif(
        &self,
        req: &Value,
        base: &Query,
        set: &[String],
    ) -> Result<Answer, UlmError> {
        // Knob errors are answered before the base lookup, so a bad `set`
        // costs no search and leaves nothing in the cache or the log.
        let (modified_arch, delta) = apply_overrides(&base.arch, set)?;
        let (fp, entry, cached) = self.lookup_or_execute(req, base)?;
        let Outcome::Layer(outcome) = &entry.outcome else {
            unreachable!("a query's cache entry is a layer outcome");
        };

        let model = LatencyModel::with_options(base.model);
        let mut scratch = ModelScratch::default();
        // Prime the pipeline on the base design, then rebuild only what
        // the overrides invalidated. A pure-bandwidth override reuses the
        // residency and feed-rate stages (and the energy model's access
        // counts with them).
        let base_view = MappedLayer::new(&base.layer, &base.arch, &outcome.mapping)?;
        let (base_fast, _) = model.evaluate_delta_fast(&base_view, InputDelta::ALL, &mut scratch);
        let view = MappedLayer::new(&base.layer, &modified_arch, &outcome.mapping)?;
        let (fast, rebuild) = model.evaluate_delta_fast(&view, delta, &mut scratch);
        let energy = EnergyModel::new().evaluate_lowered(&view, scratch.lowered());

        {
            let mut totals = self
                .whatif_totals
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            totals.requests += 1;
            if cached {
                totals.delta_hits += 1;
            } else {
                totals.full_rebuilds += 1;
            }
        }

        let summary = |cc_total: f64, ss_overall: f64, utilization: f64, energy_fj: f64| {
            Value::Object(vec![
                ("cc_total".to_string(), Value::F64(cc_total)),
                ("ss_overall".to_string(), Value::F64(ss_overall)),
                ("utilization".to_string(), Value::F64(utilization)),
                ("energy_fj".to_string(), Value::F64(energy_fj)),
            ])
        };
        Ok(Answer::fields(vec![
            ("kind".to_string(), Value::String("whatif".into())),
            ("fingerprint".to_string(), Value::String(fp.to_string())),
            ("cached".to_string(), Value::Bool(cached)),
            (
                "set".to_string(),
                Value::Array(set.iter().map(|s| Value::String(s.clone())).collect()),
            ),
            (
                "mapping_text".to_string(),
                Value::String(outcome.mapping.to_string()),
            ),
            ("mapping".to_string(), outcome.mapping.to_value()),
            (
                "base".to_string(),
                summary(
                    base_fast.cc_total,
                    base_fast.ss_overall,
                    base_fast.utilization,
                    outcome.energy.total_fj,
                ),
            ),
            (
                "modified".to_string(),
                summary(
                    fast.cc_total,
                    fast.ss_overall,
                    fast.utilization,
                    energy.total_fj,
                ),
            ),
            (
                "delta".to_string(),
                Value::Object(vec![
                    (
                        "cc_total".to_string(),
                        Value::F64(fast.cc_total - base_fast.cc_total),
                    ),
                    (
                        "energy_fj".to_string(),
                        Value::F64(energy.total_fj - outcome.energy.total_fj),
                    ),
                    (
                        "speedup".to_string(),
                        Value::F64(base_fast.cc_total / fast.cc_total),
                    ),
                ]),
            ),
            (
                "rebuild".to_string(),
                Value::Object(vec![
                    (
                        "stages_rebuilt".to_string(),
                        Value::U64(u64::from(rebuild.stages_rebuilt)),
                    ),
                    (
                        "stages_skipped".to_string(),
                        Value::U64(u64::from(rebuild.stages_skipped)),
                    ),
                ]),
            ),
        ]))
    }

    /// Answers a `surrogate` request. When the service's store holds a
    /// specialization for the request's key, the query skips the mapping
    /// search and prices the request's dims under the stored shape (or
    /// reads them from the specialization's point memo). Otherwise the
    /// template layer's best mapping is searched once, the model is fixed
    /// to the resulting `(arch, shape)`, and the specialization is stored
    /// for the next request. A service calibration matching the request's
    /// architecture is applied to the specialization it builds; its id
    /// enters the key and the fingerprint. The answer's fingerprint is
    /// read from the request memo, like eval's, search's and net's.
    fn respond_surrogate(&self, req: &Value, q: &SurrogateQuery) -> Result<Answer, UlmError> {
        let calibration = self
            .calibration
            .as_ref()
            .filter(|cal| cal.arch == q.arch.name());
        let calibration_id = calibration.map(|cal| cal.id.as_str());
        let Ok((fp, _)) = self.fingerprints.get_or_build(
            fingerprint_request(req),
            |_| true,
            || Ok::<_, std::convert::Infallible>(q.fingerprint(calibration_id)),
        );
        let (b, k, c) = (
            q.layer.shape().dim(Dim::B),
            q.layer.shape().dim(Dim::K),
            q.layer.shape().dim(Dim::C),
        );

        let specialize = || -> Result<_, UlmError> {
            let arch = match calibration {
                Some(cal) => std::borrow::Cow::Owned(cal.apply(&q.arch)?.0),
                None => std::borrow::Cow::Borrowed(&q.arch),
            };
            let (tb, tk, tc) = q.template;
            let mut template = q.layer.clone();
            template.set_matmul_dims(tb, tk, tc);
            let mapper = Mapper::new(&arch, &template, q.spatial.clone()).with_options(q.mapper);
            let winner = mapper.search_fast(Objective::Latency)?.ordering;
            let mapping = mapper
                .mapping(&winner)
                .expect("the winning ordering has a legal allocation");
            let shape = MappingShape::from_mapping(&mapping)?;
            let spec = SpecializedModel::prepare(
                LatencyModel::with_options(q.model),
                &arch,
                &template,
                shape,
            )?;
            Ok(Arc::new(Mutex::new(spec)))
        };
        let (spec, hit) =
            self.specializations
                .get_or_build(q.spec_key(calibration_id), |_| true, specialize)?;
        let (fast, shape_text) = {
            let mut spec = spec
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            (spec.query(b, k, c)?, spec.shape().to_string())
        };

        {
            let mut totals = self
                .surrogate_totals
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            totals.requests += 1;
            if hit {
                totals.hits += 1;
            } else {
                totals.misses += 1;
            }
        }

        let mut fields = vec![
            ("kind".to_string(), Value::String("surrogate".into())),
            ("fingerprint".to_string(), Value::String(fp.to_string())),
            ("specialized_reused".to_string(), Value::Bool(hit)),
            ("shape".to_string(), Value::String(shape_text)),
            ("layer".to_string(), Value::String(format!("{b}x{k}x{c}"))),
            (
                "latency".to_string(),
                Value::Object(vec![
                    ("cc_total".to_string(), Value::F64(fast.cc_total)),
                    ("cc_ideal".to_string(), Value::F64(fast.cc_ideal)),
                    ("cc_spatial".to_string(), Value::U64(fast.cc_spatial)),
                    ("ss_overall".to_string(), Value::F64(fast.ss_overall)),
                    ("preload".to_string(), Value::U64(fast.preload)),
                    ("offload".to_string(), Value::U64(fast.offload)),
                    ("utilization".to_string(), Value::F64(fast.utilization)),
                ]),
            ),
        ];
        if let Some(id) = calibration_id {
            fields.push(("calibration_id".to_string(), Value::String(id.to_string())));
        }
        Ok(Answer::fields(fields))
    }

    /// Cache lookup with single-flight coalescing: concurrent identical
    /// jobs are computed once — the first thread executes, the others
    /// wait for it and then read the cached result. Returns the job's
    /// fingerprint, its entry, and whether the entry came from the cache.
    ///
    /// The fingerprint is built once per distinct request `req` (the line
    /// `job` was parsed from): requests equal to it but for `id`, key order
    /// and whitespace read it from the memo.
    fn lookup_or_execute<J: Job>(
        &self,
        req: &Value,
        job: &J,
    ) -> Result<(Fingerprint, Arc<Cached>, bool), UlmError> {
        let Ok((fp, _)) = self.fingerprints.get_or_build(
            fingerprint_request(req),
            |_| true,
            || Ok::<_, std::convert::Infallible>(job.fingerprint()),
        );
        let fits = |e: &Arc<Cached>| matches!(e.outcome, Outcome::Net(_)) == J::NET;
        let (entry, hit) = self
            .cache
            .get_or_build(fp, fits, || -> Result<_, UlmError> {
                let entry = Arc::new(Cached::new(job.execute()?));
                if let Outcome::Layer(EvalOutcome {
                    search: Some(meta), ..
                }) = &entry.outcome
                {
                    let mut totals = self
                        .search_totals
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    totals.searches += 1;
                    totals.stats.absorb(&meta.stats);
                }
                Ok(entry)
            })?;
        if !hit {
            // The build stored the entry first: a compaction triggered by
            // the append snapshots the cache and must see it.
            self.persist(fp, &entry.outcome);
        }
        Ok((fp, entry, hit))
    }

    fn stats_fields(&self) -> Vec<(String, Value)> {
        let cache = self.cache.stats();
        let mut cache_value = match cache.to_value() {
            Value::Object(entries) => entries,
            _ => Vec::new(),
        };
        cache_value.push(("hit_rate".to_string(), Value::F64(cache.hit_rate())));
        let mut pool = self.pool.stats().to_value();
        if !self.include_timing {
            // Without timing the answer is reproducible: no request
            // latencies, and none of the pool gauges, which move with
            // thread timing.
            if let Value::Object(entries) = &mut pool {
                entries.retain(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "queue_depth" | "in_flight" | "submitted" | "completed"
                    )
                });
            }
        }
        let mut fields = vec![
            ("kind".to_string(), Value::String("stats".into())),
            ("cache".to_string(), Value::Object(cache_value)),
            ("pool".to_string(), pool),
        ];
        if self.include_timing {
            let latency = self
                .latencies
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .summary();
            fields.push(("latency_ms".to_string(), latency.to_value()));
        }
        fields.extend([
            (
                "panics".to_string(),
                Value::U64(self.panics.load(Ordering::Relaxed)),
            ),
            ("search".to_string(), self.search_totals().to_value()),
            ("whatif".to_string(), self.whatif_totals().to_value()),
            ("surrogate".to_string(), self.surrogate_totals().to_value()),
            (
                "calibration_id".to_string(),
                match self.calibration_id() {
                    Some(id) => Value::String(id.to_string()),
                    None => Value::Null,
                },
            ),
        ]);
        if let Some(disk) = self.disk_stats() {
            fields.push(("disk".to_string(), disk.to_value()));
        }
        fields
    }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// One step of bounded line reading from a `BufRead`.
enum BoundedLine {
    /// A complete line within the bound.
    Line(String),
    /// A line over the bound was dropped (resync handled internally).
    Oversized,
    /// Input exhausted.
    Eof,
}

/// Reads the next newline-terminated line from `input`, enforcing
/// `max_len` via the same framing state machine the reactor uses. A
/// trailing unterminated line at EOF still comes out as a line.
fn read_bounded_line<R: BufRead>(
    input: &mut R,
    buf: &mut Vec<u8>,
    discarding: &mut bool,
    max_len: usize,
) -> std::io::Result<BoundedLine> {
    loop {
        match extract_line(buf, discarding, max_len) {
            Extracted::Line(line) => return Ok(BoundedLine::Line(line)),
            Extracted::Oversized => return Ok(BoundedLine::Oversized),
            Extracted::Incomplete => {
                let chunk = input.fill_buf()?;
                if chunk.is_empty() {
                    if buf.is_empty() || *discarding {
                        return Ok(BoundedLine::Eof);
                    }
                    // Terminate the final partial line so it parses.
                    buf.push(b'\n');
                    continue;
                }
                let n = chunk.len();
                buf.extend_from_slice(chunk);
                input.consume(n);
            }
        }
    }
}

/// Totals from one [`run_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Non-blank lines processed.
    pub requests: usize,
    /// Responses with `"ok":false`.
    pub errors: usize,
}

/// True when `line` is a `stats` request.
fn is_stats_line(line: &str) -> bool {
    line.contains("stats")
        && serde_json::from_str::<Value>(line).is_ok_and(|req| {
            matches!(
                req.get("kind").and_then(Value::as_str),
                Some("stats" | "/stats")
            )
        })
}

/// Streams NDJSON requests from `input` to `output` through the service's
/// worker pool. Responses are written in input order; concurrency comes
/// from pipelining, bounded by the pool's queue (backpressure) and a small
/// in-flight window. A `stats` line runs alone: every line before it
/// has been answered and no line after it has started, so its counters
/// cover exactly the lines before it.
///
/// # Errors
///
/// Propagates I/O errors from reading `input` or writing `output`.
pub fn run_batch<R: BufRead, W: Write>(
    service: &Arc<EvalService>,
    mut input: R,
    output: &mut W,
) -> std::io::Result<BatchSummary> {
    let mut summary = BatchSummary::default();
    let window = 2 * service.pool.worker_count() + 4;
    let mut pending: VecDeque<JobHandle<Option<String>>> = VecDeque::new();

    let flush_one = |pending: &mut VecDeque<JobHandle<Option<String>>>,
                     output: &mut W,
                     summary: &mut BatchSummary|
     -> std::io::Result<()> {
        if let Some(handle) = pending.pop_front() {
            if let Some(response) = handle.wait() {
                summary.requests += 1;
                if response.contains("\"ok\":false") {
                    summary.errors += 1;
                }
                output.write_all(response.as_bytes())?;
                output.write_all(b"\n")?;
            }
        }
        Ok(())
    };

    let mut buf = Vec::new();
    let mut discarding = false;
    loop {
        let limit = service.max_line_len;
        match read_bounded_line(&mut input, &mut buf, &mut discarding, limit)? {
            BoundedLine::Eof => break,
            BoundedLine::Oversized => {
                // Answered in order like any other request, through the
                // pool so the pipeline's ordering invariant holds.
                let response = error_response(UlmError::TooLarge { limit });
                pending.push_back(service.pool.submit(move || Some(response)));
            }
            BoundedLine::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let barrier = is_stats_line(&line);
                while barrier && !pending.is_empty() {
                    flush_one(&mut pending, output, &mut summary)?;
                }
                pending.push_back(service.submit_line(line));
                while barrier && !pending.is_empty() {
                    flush_one(&mut pending, output, &mut summary)?;
                }
            }
        }
        while pending.len() >= window {
            flush_one(&mut pending, output, &mut summary)?;
        }
        // Opportunistically drain already-finished fronts to keep latency
        // low without blocking the reader.
        while pending.front().is_some_and(JobHandle::is_ready) {
            flush_one(&mut pending, output, &mut summary)?;
        }
    }
    while !pending.is_empty() {
        flush_one(&mut pending, output, &mut summary)?;
    }
    output.flush()?;
    Ok(summary)
}

/// True for `accept` failures that condemn one connection attempt, not
/// the listener: aborted handshakes, and resource exhaustion (`EMFILE`,
/// `ENFILE`, `ENOBUFS`, `ENOMEM`) that draining existing connections will
/// relieve.
fn is_transient_accept_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
    ) || matches!(e.raw_os_error(), Some(23 | 24 | 12 | 105 | 71))
}

/// How long the accept loop sleeps after a transient failure before
/// retrying, giving existing connections time to release descriptors.
const ACCEPT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(100);

fn serve_connection(service: &Arc<EvalService>, stream: &std::net::TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut buf = Vec::new();
    let mut discarding = false;
    let limit = service.max_line_len;
    loop {
        let response = match read_bounded_line(&mut reader, &mut buf, &mut discarding, limit) {
            Err(_) | Ok(BoundedLine::Eof) => break,
            Ok(BoundedLine::Oversized) => error_response(UlmError::TooLarge { limit }),
            Ok(BoundedLine::Line(line)) => match service.submit_line(line).wait() {
                Some(response) => response,
                None => continue, // blank line
            },
        };
        if writer.write_all(response.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
        {
            break;
        }
    }
}

/// Serves NDJSON over TCP: one connection per client thread, one response
/// line per request line, until the client closes. `max_connections` bounds
/// how many connections are accepted before returning (`None` = serve
/// forever); malformed requests produce error responses, not disconnects.
///
/// Transient `accept` failures (aborted handshakes, descriptor
/// exhaustion) are logged and retried after a short backoff instead of
/// killing the server; request lines beyond the service's length bound are
/// answered with `request/too-large` and discarded.
///
/// # Errors
///
/// Propagates non-transient `accept` failures. Per-connection I/O errors
/// terminate only that connection.
pub fn run_tcp(
    service: &Arc<EvalService>,
    listener: TcpListener,
    max_connections: Option<usize>,
) -> std::io::Result<()> {
    std::thread::scope(|scope| {
        let mut accepted = 0usize;
        loop {
            if let Some(limit) = max_connections {
                if accepted >= limit {
                    break;
                }
            }
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if is_transient_accept_error(&e) => {
                    eprintln!("ulm serve: transient accept failure ({e}); retrying");
                    std::thread::sleep(ACCEPT_BACKOFF);
                    continue;
                }
                Err(e) => return Err(e),
            };
            accepted += 1;
            let service = Arc::clone(service);
            scope.spawn(move || serve_connection(&service, &stream));
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// The event-driven transport
// ---------------------------------------------------------------------------

/// Adapter letting the epoll reactor drive the evaluation engine: request
/// lines are dispatched to the worker pool and answered through the
/// completion channel, never blocking the event-loop thread (the reactor
/// keeps in-flight submissions below [`WorkerPool::queue_capacity`], the
/// point where [`WorkerPool::submit`] would block).
pub struct ReactorService(Arc<EvalService>);

impl ReactorService {
    /// Wraps a service for [`ulm_reactor::Reactor::run`].
    pub fn new(service: Arc<EvalService>) -> Self {
        ReactorService(service)
    }
}

impl ulm_reactor::LineService for ReactorService {
    fn submit(&self, line: String, done: ulm_reactor::Completion) {
        let service = Arc::clone(&self.0);
        // The handle is dropped: the response travels through `done`.
        let _ = self
            .0
            .pool
            .submit(move || done.send(service.handle_line(&line)));
    }

    fn oversized(&self, limit: usize) -> Option<String> {
        Some(error_response(UlmError::TooLarge { limit }))
    }

    fn over_capacity(&self, active: usize) -> Option<String> {
        Some(error_response(UlmError::OverCapacity { active }))
    }

    fn capacity_hint(&self) -> usize {
        self.0.pool.queue_capacity()
    }
}

/// Serves NDJSON over TCP on the single-threaded epoll reactor: one event
/// loop multiplexes every connection while evaluations run on the
/// service's worker pool. The reactor's line-length bound is overridden by
/// the service's own, so both transports enforce the same limit.
///
/// Returns the run summary once the reactor shuts down (via
/// `opts.shutdown_on_stdin_close` or a `ShutdownHandle` taken from a
/// directly constructed [`ulm_reactor::Reactor`]).
///
/// # Errors
///
/// Fails with `reactor/unsupported` off Linux and `reactor/io` for
/// event-loop-level failures.
pub fn run_reactor(
    service: &Arc<EvalService>,
    listener: TcpListener,
    mut opts: ulm_reactor::ReactorOptions,
) -> Result<ulm_reactor::ReactorSummary, UlmError> {
    opts.max_line_len = service.max_line_len;
    let reactor = ulm_reactor::Reactor::new(listener, opts)?;
    Ok(reactor.run(&ReactorService::new(Arc::clone(service)))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Arc<EvalService> {
        EvalService::new(ServeOptions {
            parallelism: Some(2),
            cache_capacity: 64,
            ..ServeOptions::default()
        })
    }

    fn parse(response: &str) -> Value {
        serde_json::from_str(response).expect("responses are valid JSON")
    }

    #[test]
    fn search_then_eval_round_trip() {
        let svc = service();
        let search = svc
            .handle_line(
                r#"{"kind":"search","id":1,"arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":200,"samples":20}}"#,
            )
            .unwrap();
        let v = parse(&search);
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{search}");
        assert_eq!(v.get("id"), Some(&Value::U64(1)));
        assert!(v.get("latency").and_then(|l| l.get("cc_total")).is_some());

        // Feed the returned mapping back as an explicit eval.
        let mapping = serde_json::to_string(v.get("mapping").unwrap()).unwrap();
        let eval_line =
            format!(r#"{{"kind":"eval","id":2,"arch":"toy","layer":"4x4x8","mapping":{mapping}}}"#);
        let eval = svc.handle_line(&eval_line).unwrap();
        let ev = parse(&eval);
        assert_eq!(ev.get("ok"), Some(&Value::Bool(true)), "{eval}");
        // Same mapping, same model: identical latency.
        assert_eq!(
            ev.get("latency").and_then(|l| l.get("cc_total")),
            v.get("latency").and_then(|l| l.get("cc_total"))
        );
    }

    #[test]
    fn identical_searches_hit_the_cache() {
        let svc = service();
        let line = r#"{"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#;
        let first = parse(&svc.handle_line(line).unwrap());
        let second = parse(&svc.handle_line(line).unwrap());
        assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
        assert_eq!(second.get("cached"), Some(&Value::Bool(true)));
        assert_eq!(first.get("fingerprint"), second.get("fingerprint"));
        // Bit-identical result payloads.
        assert_eq!(first.get("latency"), second.get("latency"));
        assert_eq!(first.get("energy"), second.get("energy"));
        assert!(svc.cache_stats().hits >= 1);
    }

    #[test]
    fn malformed_lines_yield_error_objects() {
        let svc = service();
        for bad in [
            "{not json",
            r#"{"kind":"explode"}"#,
            r#"{"kind":"eval","arch":"toy","layer":"4x4x8"}"#,
            r#"{"kind":"search","arch":"nope","layer":"4x4x8"}"#,
            r#"{"kind":"search","arch":"toy"}"#,
            r#"[1,2,3]"#,
            // Zero sizes must become error responses, not worker panics.
            r#"{"kind":"search","arch":"toy","layer":"0x4x8"}"#,
            r#"{"kind":"search","arch":"toy","layer":{"b":4,"k":0,"c":8}}"#,
            r#"{"kind":"search","arch":"toy","layer":"4x4x8","spatial":[["K",0]]}"#,
        ] {
            let resp = svc.handle_line(bad).unwrap();
            let v = parse(&resp);
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{bad} -> {resp}");
            assert!(v.get("error").is_some());
        }
        // Blank lines are skipped outright.
        assert_eq!(svc.handle_line("   "), None);
    }

    #[test]
    fn error_responses_carry_stable_codes() {
        let svc = service();
        for (bad, code) in [
            ("{not json", "request/invalid"),
            (r#"{"kind":"explode"}"#, "request/invalid"),
            (
                r#"{"kind":"search","arch":"nope","layer":"4x4x8"}"#,
                "request/invalid",
            ),
            // A well-formed request whose search finds no legal mapping
            // surfaces the typed domain error, not a stringly one.
            (
                r#"{"kind":"search","arch":"toy","layer":"4x4x8","spatial":[["K",1024]]}"#,
                "mapper/no-legal-mapping",
            ),
        ] {
            let v = parse(&svc.handle_line(bad).unwrap());
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{bad}");
            assert_eq!(
                v.get("code"),
                Some(&Value::String(code.to_string())),
                "{bad}"
            );
        }
    }

    #[test]
    fn unknown_top_level_fields_are_rejected_per_kind() {
        let svc = service();
        for (bad, key, kind) in [
            (
                r#"{"kind":"search","arch":"toy","layer":"4x4x8","objectve":"energy"}"#,
                "objectve",
                "search",
            ),
            (
                r#"{"kind":"search","arch":"toy","layer":"4x4x8","overlap":"weight-prefetch","net":7}"#,
                "overlap",
                "search",
            ),
            // A kind-less line is checked against the kind it defaults to.
            (
                r#"{"arch":"toy","net":"handtracking","layer":"4x4x8"}"#,
                "layer",
                "net",
            ),
            (r#"{"kind":"stats","layer":"4x4x8"}"#, "layer", "stats"),
            (
                r#"{"kind":"surrogate","arch":"toy","layer":"4x4x8","reuse":false}"#,
                "reuse",
                "surrogate",
            ),
        ] {
            let v = parse(&svc.handle_line(bad).unwrap());
            assert_eq!(
                v.get("code"),
                Some(&Value::String("request/invalid".into())),
                "{bad}"
            );
            let error = v.get("error").and_then(Value::as_str).unwrap();
            assert!(
                error.contains(&format!("`{key}`")) && error.contains(&format!("`{kind}`")),
                "{bad} -> {error}"
            );
        }

        // Every field a kind parses is accepted.
        let mapper = r#""mapper":{"max_exhaustive":100,"samples":10}"#;
        let model = r#""model":{"bw_aware":true}"#;
        let common = r#""id":1,"arch":"toy","gb_bw":128,"spatial":[["K",2],["B",2]]"#;
        let search = parse(
            &svc.handle_line(&format!(
                r#"{{{common},"kind":"search","layer":"4x4x8",{model},{mapper},"objective":"latency"}}"#
            ))
            .unwrap(),
        );
        assert_eq!(search.get("ok"), Some(&Value::Bool(true)), "{search:?}");
        let mapping = serde_json::to_string(search.get("mapping").unwrap()).unwrap();
        for line in [
            format!(r#"{{{common},"kind":"eval","layer":"4x4x8",{model},"mapping":{mapping}}}"#),
            format!(
                r#"{{{common},"kind":"whatif","layer":"4x4x8",{model},{mapper},"objective":"latency","set":["mem.LB.bw=2x"]}}"#
            ),
            format!(
                r#"{{{common},"kind":"whatif","layer":"4x4x8",{model},"mapping":{mapping},"set":["mem.LB.bw=2x"]}}"#
            ),
            format!(
                r#"{{{common},"kind":"net","net":"attention-decode",{model},{mapper},"fuse":[],"overlap":"weight-prefetch","objective":"latency"}}"#
            ),
            format!(
                r#"{{{common},"kind":"surrogate","layer":"4x4x8",{model},{mapper},"template":"4x4x8"}}"#
            ),
            format!(r#"{{{common},"kind":"stats"}}"#),
        ] {
            let v = parse(&svc.handle_line(&line).unwrap());
            assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{line} -> {v:?}");
        }
    }

    #[test]
    fn whatif_with_a_mapping_rejects_search_settings() {
        let svc = service();
        let search = parse(
            &svc.handle_line(r#"{"kind":"search","arch":"toy","layer":"4x4x8"}"#)
                .unwrap(),
        );
        let mapping = serde_json::to_string(search.get("mapping").unwrap()).unwrap();
        for (extra, key) in [
            (r#""objective":"bogus","mapper":{"wat":1}"#, "objective"),
            (r#""mapper":{"max_exhaustive":100}"#, "mapper"),
            (r#""objective":"latency""#, "objective"),
        ] {
            let line = format!(
                r#"{{"kind":"whatif","arch":"toy","layer":"4x4x8","mapping":{mapping},{extra},"set":["mem.LB.bw=2x"]}}"#
            );
            let v = parse(&svc.handle_line(&line).unwrap());
            assert_eq!(
                v.get("code"),
                Some(&Value::String("request/invalid".into())),
                "{line} -> {v:?}"
            );
            let error = v.get("error").and_then(Value::as_str).unwrap();
            assert!(error.contains(&format!("`{key}`")), "{line} -> {error}");
        }
        // A search-mode whatif still takes both keys.
        let v = parse(
            &svc.handle_line(
                r#"{"kind":"whatif","arch":"toy","layer":"4x4x8","objective":"latency","mapper":{"max_exhaustive":100,"samples":10},"set":["mem.LB.bw=2x"]}"#,
            )
            .unwrap(),
        );
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
    }

    #[test]
    fn whatif_knob_errors_skip_the_base_search() {
        let svc = service();
        let counts = |svc: &EvalService| {
            let stats = parse(&svc.handle_line(r#"{"kind":"stats"}"#).unwrap());
            let cache = stats.get("cache").unwrap();
            ["hits", "misses", "insertions"].map(|k| cache.get(k).and_then(Value::as_u64))
        };
        let before = counts(&svc);
        let v = parse(
            &svc.handle_line(
                r#"{"kind":"whatif","arch":"toy","layer":"4x4x8","set":["mem.NOPE.bw=2x"]}"#,
            )
            .unwrap(),
        );
        assert_eq!(
            v.get("code"),
            Some(&Value::String("knob/unknown-memory".into()))
        );
        assert_eq!(counts(&svc), before);
        let search = parse(
            &svc.handle_line(r#"{"kind":"search","arch":"toy","layer":"4x4x8"}"#)
                .unwrap(),
        );
        assert_eq!(
            search.get("cached"),
            Some(&Value::Bool(false)),
            "{search:?}"
        );
    }

    #[test]
    fn panicking_handlers_answer_and_keep_the_pool_serving() {
        let svc = service();
        let panic_line = r#"{"id":5,"kind":"test/panic"}"#;
        let expected = r#"{"id":5,"ok":false,"error":"request handler panicked: injected handler panic","code":"internal/panic"}"#;
        // More panics than workers, on the threaded transport's path.
        let workers = svc.pool_stats().workers;
        for _ in 0..=workers {
            let response = svc.submit_line(panic_line.to_string()).wait();
            assert_eq!(response.as_deref(), Some(expected));
        }
        // The batch transport answers in order around the panic.
        let input = format!("{panic_line}\n{{\"id\":6,\"kind\":\"stats\"}}\n");
        let mut out = Vec::new();
        let summary = run_batch(&svc, input.as_bytes(), &mut out).unwrap();
        assert_eq!((summary.requests, summary.errors), (2, 1));
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], expected);
        // `/stats` counts every panic answer, on both paths: the batch
        // answers its stats line only after the panicking line before it.
        let stats = parse(lines[1]);
        assert_eq!(stats.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            stats.get("panics").and_then(Value::as_u64),
            Some(workers as u64 + 2)
        );
    }

    #[test]
    fn latency_log_is_bounded_and_exact() {
        let samples: Vec<f64> = (0..10_000u32)
            .map(|i| f64::from((i * 7919) % 10_007) / 8.0)
            .collect();
        let mut log = LatencyLog::default();
        for (i, &ms) in samples.iter().enumerate() {
            log.record(ms);
            // Within the window the summary is the full-sample one.
            if i + 1 == LATENCY_WINDOW {
                assert_eq!(
                    log.summary(),
                    LatencySummary::from_samples(&samples[..LATENCY_WINDOW])
                );
            }
        }
        assert_eq!(log.recent.len(), LATENCY_WINDOW);
        assert!(log.recent.capacity() <= LATENCY_WINDOW);
        let all = LatencySummary::from_samples(&samples);
        let summary = log.summary();
        assert_eq!(summary.count, 10_000);
        assert_eq!(summary.min_ms, all.min_ms);
        assert_eq!(summary.max_ms, all.max_ms);
        assert!((summary.mean_ms - all.mean_ms).abs() < 1e-9 * all.mean_ms);
        // The p95 covers the most recent window only.
        let recent = LatencySummary::from_samples(&samples[samples.len() - LATENCY_WINDOW..]);
        assert_eq!(summary.p95_ms, recent.p95_ms);
    }

    #[test]
    fn a_panicking_leader_releases_its_followers() {
        let svc = service();
        let fp = Fingerprint(42);
        let (started_tx, started) = std::sync::mpsc::channel();
        let (panic_tx, panic_now) = std::sync::mpsc::channel::<()>();
        let leader = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                svc.cache.get_or_build(
                    fp,
                    |_| true,
                    || -> Result<_, UlmError> {
                        started_tx.send(()).unwrap();
                        panic_now.recv().unwrap();
                        panic!("leader panicked mid-search");
                    },
                )
            })
        };
        started.recv().unwrap();
        // A follower waits on the leader's build the way
        // `lookup_or_execute` does.
        let (woke_tx, woke) = std::sync::mpsc::channel();
        {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let got = svc.cache.get_or_build(
                    fp,
                    |_| true,
                    || {
                        Ok::<_, UlmError>(Arc::new(Cached::new(Outcome::Net(NetOutcome {
                            total_cycles: 1.0,
                            sequential_cycles: 1.0,
                            total_fj: 1.0,
                            utilization: 1.0,
                            segments: Vec::new(),
                            layers: Vec::new(),
                        }))))
                    },
                );
                woke_tx.send(got.is_ok()).unwrap();
            });
        }
        // Once the follower's lookup has missed, it waits on the leader's
        // build, which cannot finish before `panic_tx` sends.
        while svc.cache_stats().misses < 2 {
            std::thread::yield_now();
        }
        panic_tx.send(()).unwrap();
        assert!(leader.join().is_err());
        assert!(woke
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the follower was woken"));
        assert_eq!(svc.cache.building(), 0);
    }

    #[test]
    fn net_attention_decode_round_trips_with_fusion_aware_fingerprint() {
        let svc = service();
        let base = r#"{"kind":"net","id":7,"arch":"toy","net":"attention-decode","mapper":{"max_exhaustive":200,"samples":20}}"#;
        let fused = r#"{"kind":"net","id":8,"arch":"toy","net":"attention-decode","mapper":{"max_exhaustive":200,"samples":20},"fuse":[{"layers":["logit","attend"],"pin":"LB"}]}"#;
        let b = parse(&svc.handle_line(base).unwrap());
        let f = parse(&svc.handle_line(fused).unwrap());
        assert_eq!(b.get("ok"), Some(&Value::Bool(true)), "{b:?}");
        assert_eq!(f.get("ok"), Some(&Value::Bool(true)), "{f:?}");
        // The `fuse` field enters the fingerprint: same network, distinct
        // identities.
        assert_ne!(b.get("fingerprint"), f.get("fingerprint"));
        // The fused run reports its residency table…
        assert_eq!(
            f.get("segments").map(|s| match s {
                Value::Array(items) => items.len(),
                _ => 0,
            }),
            Some(1)
        );
        // …and pinning at the toy chip's backing store elides nothing, so
        // the totals are the layer-by-layer oracle's, exactly.
        assert_eq!(b.get("total_cycles"), f.get("total_cycles"));
        assert_eq!(b.get("total_fj"), f.get("total_fj"));
    }

    #[test]
    fn net_fusion_errors_carry_fuse_codes() {
        let svc = service();
        let bad = r#"{"kind":"net","arch":"toy","net":"attention-decode","fuse":[{"layers":["logit","nope"],"pin":"LB"}]}"#;
        let v = parse(&svc.handle_line(bad).unwrap());
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{v:?}");
        assert_eq!(
            v.get("code"),
            Some(&Value::String("fuse/unknown-layer".to_string()))
        );
    }

    #[test]
    fn whatif_matches_cold_evaluation_of_modified_arch() {
        let svc = service();
        let base = r#"{"kind":"search","arch":"case16","gb_bw":128,"layer":"8x16x64","mapper":{"max_exhaustive":200,"samples":20}}"#;
        let b = parse(&svc.handle_line(base).unwrap());
        assert_eq!(b.get("ok"), Some(&Value::Bool(true)), "{b:?}");

        // Same base fields + overrides: the cached entry is the base.
        let whatif = parse(&svc.handle_line(
            r#"{"kind":"whatif","arch":"case16","gb_bw":128,"layer":"8x16x64","mapper":{"max_exhaustive":200,"samples":20},"set":["mem.GB.bw=2x"]}"#,
        ).unwrap());
        assert_eq!(whatif.get("ok"), Some(&Value::Bool(true)), "{whatif:?}");
        assert_eq!(whatif.get("cached"), Some(&Value::Bool(true)));
        assert_eq!(whatif.get("fingerprint"), b.get("fingerprint"));
        // The base half of the response is the cached result.
        assert_eq!(
            whatif.get("base").and_then(|v| v.get("cc_total")),
            b.get("latency").and_then(|l| l.get("cc_total"))
        );
        // A bandwidth-only override reuses the residency and feed-rate
        // stages.
        let rebuild = whatif.get("rebuild").unwrap();
        assert_eq!(
            rebuild.get("stages_skipped").and_then(Value::as_u64),
            Some(2),
            "{whatif:?}"
        );

        // Cold re-evaluation of the incumbent mapping on the modified
        // architecture (`case16` at twice the GB bandwidth) must agree
        // bit for bit.
        let mapping = serde_json::to_string(b.get("mapping").unwrap()).unwrap();
        let cold_line = format!(
            r#"{{"kind":"eval","arch":"case16","gb_bw":256,"layer":"8x16x64","mapping":{mapping}}}"#
        );
        let cold = parse(&svc.handle_line(&cold_line).unwrap());
        assert_eq!(cold.get("ok"), Some(&Value::Bool(true)), "{cold:?}");
        assert_eq!(
            whatif.get("modified").and_then(|v| v.get("cc_total")),
            cold.get("latency").and_then(|l| l.get("cc_total"))
        );
        assert_eq!(
            whatif.get("modified").and_then(|v| v.get("energy_fj")),
            cold.get("energy").and_then(|e| e.get("total_fj"))
        );

        // Counters: one whatif, served off the cached base.
        let totals = svc.whatif_totals();
        assert_eq!(totals.requests, 1);
        assert_eq!(totals.delta_hits, 1);
        assert_eq!(totals.full_rebuilds, 0);

        // A whatif whose base is not cached computes it from scratch and
        // shows up as a full rebuild (and caches the base for next time).
        let fresh = parse(&svc.handle_line(
            r#"{"kind":"whatif","arch":"case16","gb_bw":128,"layer":"16x16x64","mapper":{"max_exhaustive":200,"samples":20},"set":["mem.GB.bw=2x"]}"#,
        ).unwrap());
        assert_eq!(fresh.get("ok"), Some(&Value::Bool(true)), "{fresh:?}");
        assert_eq!(fresh.get("cached"), Some(&Value::Bool(false)));
        let totals = svc.whatif_totals();
        assert_eq!(totals.requests, 2);
        assert_eq!(totals.delta_hits, 1);
        assert_eq!(totals.full_rebuilds, 1);

        // `/stats` surfaces the same counters.
        let stats = parse(&svc.handle_line(r#"{"kind":"stats"}"#).unwrap());
        let w = stats.get("whatif").unwrap();
        assert_eq!(w.get("requests").and_then(Value::as_u64), Some(2));
        assert_eq!(w.get("delta_hits").and_then(Value::as_u64), Some(1));
        assert_eq!(w.get("full_rebuilds").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn whatif_knob_errors_carry_stable_codes() {
        let svc = service();
        for (bad, code) in [
            (
                r#"{"kind":"whatif","arch":"toy","layer":"4x4x8","set":["mem.NOPE.bw=2x"]}"#,
                "knob/unknown-memory",
            ),
            (
                r#"{"kind":"whatif","arch":"toy","layer":"4x4x8","set":["gb.bw=2x"]}"#,
                "knob/unknown-path",
            ),
            (
                r#"{"kind":"whatif","arch":"toy","layer":"4x4x8","set":["mem.LB.bw=fast"]}"#,
                "knob/bad-value",
            ),
            (
                r#"{"kind":"whatif","arch":"toy","layer":"4x4x8","set":["mem.LB.bw=0x"]}"#,
                "knob/invalid-value",
            ),
            // Malformed `set` shapes stay request-level errors.
            (
                r#"{"kind":"whatif","arch":"toy","layer":"4x4x8","set":[]}"#,
                "request/invalid",
            ),
            (
                r#"{"kind":"whatif","arch":"toy","layer":"4x4x8"}"#,
                "request/invalid",
            ),
        ] {
            let v = parse(&svc.handle_line(bad).unwrap());
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{bad}");
            assert_eq!(
                v.get("code"),
                Some(&Value::String(code.to_string())),
                "{bad}"
            );
        }
    }

    #[test]
    fn surrogate_store_reuse_counts_hits_and_misses() {
        let svc = service();
        let first = r#"{"kind":"surrogate","arch":"case16","layer":"64x96x640","mapper":{"max_exhaustive":200,"samples":20}}"#;
        let sweep = r#"{"kind":"surrogate","arch":"case16","layer":"128x96x640","template":"64x96x640","mapper":{"max_exhaustive":200,"samples":20}}"#;
        let a = parse(&svc.handle_line(first).unwrap());
        assert_eq!(a.get("ok"), Some(&Value::Bool(true)), "{a:?}");
        assert_eq!(a.get("specialized_reused"), Some(&Value::Bool(false)));
        // The first request's default template (its own dims) matches the
        // sweep request's explicit template, so the specialization is
        // reused even though the query layers differ.
        let b = parse(&svc.handle_line(sweep).unwrap());
        assert_eq!(b.get("ok"), Some(&Value::Bool(true)), "{b:?}");
        assert_eq!(b.get("specialized_reused"), Some(&Value::Bool(true)));
        // Distinct layers keep distinct result identities.
        assert_ne!(a.get("fingerprint"), b.get("fingerprint"));
        assert_eq!(
            svc.surrogate_totals(),
            SurrogateTotals {
                requests: 2,
                hits: 1,
                misses: 1
            }
        );
        // `/stats` surfaces the counters and the (absent) calibration id.
        let stats = parse(&svc.handle_line(r#"{"kind":"stats"}"#).unwrap());
        let sur = stats.get("surrogate").expect("stats carry surrogate");
        assert_eq!(sur.get("hits"), Some(&Value::U64(1)));
        assert_eq!(sur.get("misses"), Some(&Value::U64(1)));
        assert_eq!(stats.get("calibration_id"), Some(&Value::Null));
    }

    #[test]
    fn alternating_surrogate_keys_are_all_kept() {
        let svc = service();
        let lines: Vec<String> = ["8x16x64", "16x16x64", "8x32x64"]
            .iter()
            .map(|template| {
                format!(
                    r#"{{"kind":"surrogate","arch":"case16","layer":"32x32x64","template":"{template}","mapper":{{"max_exhaustive":200,"samples":20}}}}"#
                )
            })
            .collect();
        for round in [false, true] {
            for line in &lines {
                let v = parse(&svc.handle_line(line).unwrap());
                assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
                assert_eq!(
                    v.get("specialized_reused"),
                    Some(&Value::Bool(round)),
                    "{line}"
                );
            }
        }
        assert_eq!(
            svc.surrogate_totals(),
            SurrogateTotals {
                requests: 6,
                hits: 3,
                misses: 3
            }
        );
    }

    #[test]
    fn calibrated_service_stamps_calibration_id() {
        let cal = ulm_model::Calibration {
            arch: "case-study-16x16".into(),
            id: "cal-test".into(),
            ports: Vec::new(),
        };
        let svc = EvalService::new(ServeOptions {
            calibration: Some(cal),
            ..ServeOptions::default()
        });
        let line = r#"{"kind":"surrogate","arch":"case16","layer":"8x16x64","mapper":{"max_exhaustive":200,"samples":20}}"#;
        let v = parse(&svc.handle_line(line).unwrap());
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
        assert_eq!(
            v.get("calibration_id"),
            Some(&Value::String("cal-test".into()))
        );
        // A second point on the same specialization is answered from the
        // store and still carries the calibration id.
        let again = r#"{"kind":"surrogate","arch":"case16","layer":"16x16x64","template":"8x16x64","mapper":{"max_exhaustive":200,"samples":20}}"#;
        let v = parse(&svc.handle_line(again).unwrap());
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
        assert_eq!(v.get("specialized_reused"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("calibration_id"),
            Some(&Value::String("cal-test".into()))
        );
        // A different architecture ignores the case16 calibration.
        let other = r#"{"kind":"surrogate","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#;
        let w = parse(&svc.handle_line(other).unwrap());
        assert_eq!(w.get("ok"), Some(&Value::Bool(true)), "{w:?}");
        assert_eq!(w.get("calibration_id"), None);
        // `/stats` reports the loaded calibration.
        let stats = parse(&svc.handle_line(r#"{"kind":"stats"}"#).unwrap());
        assert_eq!(
            stats.get("calibration_id"),
            Some(&Value::String("cal-test".into()))
        );
    }

    #[test]
    fn stats_report_cache_and_pool() {
        let svc = service();
        let line = r#"{"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#;
        svc.handle_line(line).unwrap();
        svc.handle_line(line).unwrap();
        let stats = parse(&svc.handle_line(r#"{"kind":"stats"}"#).unwrap());
        assert_eq!(stats.get("ok"), Some(&Value::Bool(true)));
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(1));
        assert!(cache.get("hit_rate").and_then(Value::as_f64).unwrap() > 0.0);
        let latency = stats.get("latency_ms").unwrap();
        assert_eq!(latency.get("count").and_then(Value::as_u64), Some(2));
        assert!(
            latency.get("max_ms").and_then(Value::as_f64).unwrap()
                >= latency.get("min_ms").and_then(Value::as_f64).unwrap()
        );
        assert!(stats.get("pool").unwrap().get("workers").is_some());
        // `/stats` alias.
        let alias = parse(&svc.handle_line(r#"{"kind":"/stats"}"#).unwrap());
        assert_eq!(alias.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parallelism_is_excluded_from_the_fingerprint() {
        // Searches differing only in `mapper.parallelism` return the same
        // result, so they must share a cache entry.
        let svc = service();
        let serial = parse(&svc.handle_line(
            r#"{"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#,
        ).unwrap());
        let threaded = parse(&svc.handle_line(
            r#"{"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10,"parallelism":4}}"#,
        ).unwrap());
        assert_eq!(serial.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(serial.get("fingerprint"), threaded.get("fingerprint"));
        assert_eq!(threaded.get("cached"), Some(&Value::Bool(true)));
        assert_eq!(serial.get("latency"), threaded.get("latency"));
    }

    #[test]
    fn batch_lanes_is_an_unknown_mapper_option() {
        // Every search runs the one batched kernel; a lane count is no
        // longer a request knob, on a search or a net.
        let svc = service();
        for line in [
            r#"{"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"batch_lanes":8}}"#,
            r#"{"kind":"net","arch":"toy","net":"attention-decode","objective":"energy","mapper":{"batch_lanes":8}}"#,
        ] {
            let v = parse(&svc.handle_line(line).unwrap());
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{v:?}");
            assert_eq!(
                v.get("code"),
                Some(&Value::String("request/invalid".to_string()))
            );
            let error = v.get("error").and_then(Value::as_str).unwrap();
            assert!(error.contains("unknown mapper option"), "{error}");
        }
    }

    #[test]
    fn stats_report_cumulative_search_totals() {
        let svc = service();
        let line = r#"{"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#;
        let first = parse(&svc.handle_line(line).unwrap());
        svc.handle_line(line).unwrap(); // cached: must not re-accumulate
        let stats = parse(&svc.handle_line(r#"{"kind":"stats"}"#).unwrap());
        let search = stats.get("search").unwrap();
        assert_eq!(search.get("searches").and_then(Value::as_u64), Some(1));
        let totals = search.get("stats").unwrap();
        let meta = first.get("search").unwrap().get("stats").unwrap();
        for key in ["generated", "evaluated", "pruned", "cache_hits"] {
            assert_eq!(
                totals.get(key).and_then(Value::as_u64),
                meta.get(key).and_then(Value::as_u64),
                "{key}"
            );
        }
    }

    #[test]
    fn concurrent_identical_queries_compute_once() {
        let svc = EvalService::new(ServeOptions {
            parallelism: Some(4),
            cache_capacity: 64,
            ..ServeOptions::default()
        });
        let line = r#"{"kind":"search","arch":"toy","layer":"4x8x8","mapper":{"max_exhaustive":200,"samples":20}}"#;
        let handles: Vec<_> = (0..8).map(|_| svc.submit_line(line.to_string())).collect();
        let responses: Vec<Value> = handles
            .into_iter()
            .map(|h| parse(&h.wait().unwrap()))
            .collect();
        // Single-flight: exactly one thread computed, everyone else was
        // served from the cache, with identical payloads.
        let fresh = responses
            .iter()
            .filter(|r| r.get("cached") == Some(&Value::Bool(false)))
            .count();
        assert_eq!(fresh, 1, "exactly one leader may compute");
        assert_eq!(svc.cache_stats().insertions, 1);
        for r in &responses {
            assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
            assert_eq!(r.get("latency"), responses[0].get("latency"));
        }
    }

    #[test]
    fn batch_preserves_input_order() {
        let svc = service();
        let mut input = String::new();
        for i in 0..12 {
            let bkc = ["4x4x8", "4x8x8", "8x4x8"][i % 3];
            input.push_str(&format!(
                "{{\"id\":{i},\"kind\":\"search\",\"arch\":\"toy\",\"layer\":\"{bkc}\",\"mapper\":{{\"max_exhaustive\":100,\"samples\":10}}}}\n"
            ));
        }
        input.push_str("{\"id\":99,\"kind\":\"stats\"}\n");
        let mut out = Vec::new();
        let summary = run_batch(&svc, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 13);
        assert_eq!(summary.errors, 0);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 13);
        for (i, line) in lines.iter().take(12).enumerate() {
            let v = parse(line);
            assert_eq!(
                v.get("id").and_then(Value::as_u64),
                Some(i as u64),
                "{line}"
            );
        }
        // Repeated layers must have hit the cache (9 distinct → 3 uniques).
        assert!(svc.cache_stats().hits >= 9 - 3);
    }

    #[test]
    fn batch_stats_lines_are_reproducible_without_timing() {
        let search = |layer: &str| {
            format!(
                r#"{{"kind":"search","arch":"toy","layer":"{layer}","mapper":{{"max_exhaustive":100,"samples":10}}}}"#
            )
        };
        let corpus = [
            search("4x4x8"),
            search("4x8x8"),
            search("8x4x8"),
            r#"{"kind":"stats"}"#.to_string(),
            search("4x4x8"),
            r#"{"kind":"surrogate","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#.to_string(),
            r#"{"kind":"/stats"}"#.to_string(),
        ]
        .join("\n");
        let run = || {
            let svc = EvalService::new(ServeOptions {
                parallelism: Some(2),
                cache_capacity: 64,
                include_timing: false,
                ..ServeOptions::default()
            });
            let mut out = Vec::new();
            run_batch(&svc, corpus.as_bytes(), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let first = run();
        assert_eq!(first, run());
        // Each stats line counts exactly the lines before it.
        let lines: Vec<&str> = first.lines().collect();
        let count = |line: &str, group: &str, key: &str| {
            parse(line)
                .get(group)
                .and_then(|g| g.get(key))
                .and_then(Value::as_u64)
        };
        assert_eq!(count(lines[3], "cache", "misses"), Some(3));
        assert_eq!(count(lines[3], "cache", "hits"), Some(0));
        assert_eq!(count(lines[3], "search", "searches"), Some(3));
        assert_eq!(count(lines[6], "cache", "hits"), Some(1));
        assert_eq!(count(lines[6], "surrogate", "requests"), Some(1));
        assert_eq!(count(lines[6], "pool", "in_flight"), None);
        assert_eq!(count(lines[6], "pool", "completed"), None);
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpStream;

        let svc = service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc2 = Arc::clone(&svc);
        let server = std::thread::spawn(move || run_tcp(&svc2, listener, Some(1)));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"{\"id\":7,\"kind\":\"search\",\"arch\":\"toy\",\"layer\":\"4x4x8\",\"mapper\":{\"max_exhaustive\":100,\"samples\":10}}\nnot json\n",
            )
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reader = BufReader::new(&stream);
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 2);
        let first = parse(&lines[0]);
        assert_eq!(first.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(first.get("ok"), Some(&Value::Bool(true)));
        let second = parse(&lines[1]);
        assert_eq!(second.get("ok"), Some(&Value::Bool(false)));
        server.join().unwrap().unwrap();
    }
}
