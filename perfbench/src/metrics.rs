//! Metric tables, statistics helpers and the result line.

use crate::Args;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload's timed run: `(name,
/// unit)`. On `dse-fig8` an operation is one design priced; on the serve
/// workloads it is one request answered.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run: `(name,
/// unit)`. A layer a workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("reactor.self_us", "us"),
    ("reactor.requests", "count"),
    ("reactor.responses", "count"),
    ("pool.wait_us", "us"),
    ("pool.submitted", "count"),
    ("pool.completed", "count"),
    ("server.self_us", "us"),
    ("server.hit_us", "us"),
    ("server.stats_ms", "ms"),
    ("server.eval_ms", "ms"),
    ("server.search_ms", "ms"),
    ("server.whatif_ms", "ms"),
    ("server.surrogate_ms", "ms"),
    ("server.net_ms", "ms"),
    ("fingerprint.us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.evictions", "count"),
    ("cache.net_cached_ratio", "ratio"),
    ("cache.net_requests", "count"),
    ("store.replay_ms", "ms"),
    ("store.replayed_records", "count"),
    ("store.append_us", "us"),
    ("store.appends", "count"),
    ("store.compactions", "count"),
    ("mapper.search_ms", "ms"),
    ("mapper.orderings_per_s", "1/s"),
    ("mapper.prune_ratio", "ratio"),
    ("mapper.generated", "count"),
    ("mapper.evaluated", "count"),
    ("mapper.prefix_reuses", "count"),
    ("search.searches", "count"),
    ("model.lower_us", "us"),
    ("model.evaluate_lowered_us", "us"),
    ("model.evaluate_fast_us", "us"),
    ("model.delta_us", "us"),
    ("model.surrogate_prepare_ms", "ms"),
    ("model.surrogate_query_us", "us"),
    ("surrogate.slot_hit_ratio", "ratio"),
    ("surrogate.requests", "count"),
    ("whatif.requests", "count"),
    ("whatif.delta_hits", "count"),
    ("energy.evaluate_lowered_us", "us"),
    ("network.evaluate_ms", "ms"),
    ("network.attention_decode_ms", "ms"),
    ("network.attention_prefill_ms", "ms"),
    ("network.handtracking_ms", "ms"),
    ("network.distinct_shape_ratio", "ratio"),
    ("network.layers", "count"),
    ("dse.enumerate_ms", "ms"),
    ("dse.pareto_ms", "ms"),
    ("dse.feasible_ratio", "ratio"),
    ("dse.designs", "count"),
    ("path.reactor_us", "us"),
    ("path.pool_us", "us"),
    ("path.server_us", "us"),
    ("path.fingerprint_us", "us"),
    ("path.store_us", "us"),
    ("path.mapper_us", "us"),
    ("path.model_us", "us"),
    ("path.energy_us", "us"),
    ("path.network_us", "us"),
    ("path.dse_us", "us"),
    ("path.total_us", "us"),
    ("path.untraced_us", "us"),
    ("path.request_us", "us"),
    ("path.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("accuracy.mean_pct", "%"),
    ("accuracy.worst_pct", "%"),
    ("run.ops", "count"),
    ("run.nproc", "count"),
];

/// The share by which the blocking-path self times may miss the untraced
/// per-op latency (`|path.coverage - 1|`); a traced run warns beyond it.
/// It is a timing comparison across two phases of a run, so it is not
/// counted as a failed operation.
pub const COVERAGE_TOLERANCE: f64 = 0.25;

/// Per-layer values by metric name; unset names report 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload's result.
pub struct Report {
    /// Operations attempted (designs priced or requests sent).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// A timed run's report from its end-to-end values.
    pub fn end_to_end(attempted: u64, failed: u64, values: [f64; 5]) -> Self {
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect();
        Report {
            attempted,
            failed,
            metrics,
        }
    }

    /// A traced run's report; every [`PER_LAYER`] metric appears.
    pub fn per_layer(attempted: u64, failed: u64, layers: &Layers) -> Self {
        for name in layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric `{name}` is missing from PER_LAYER"
            );
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect();
        Report {
            attempted,
            failed,
            metrics,
        }
    }

    /// Prints one `name value unit` line per metric, the stamp, and the
    /// JSON result as the last line.
    pub fn print(&self, args: &Args) {
        for (name, unit, value) in &self.metrics {
            println!(
                "{:<30} {value:>16.6} {unit}",
                format!("{}.{name}", args.workload)
            );
        }
        println!(
            "{:<30} {:>16.6} ratio ({} failed / {} attempted)",
            format!("{}.error_rate", args.workload),
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!("stamp {}", stamp(args, self.attempted));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                assert!(value.is_finite(), "metric `{name}` is not finite");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Warns when the blocking-path self times miss the untraced per-op
/// latency by more than [`COVERAGE_TOLERANCE`].
pub fn warn_coverage(layers: &Layers) {
    let coverage = layers.get("path.coverage").copied().unwrap_or(0.0);
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        eprintln!(
            "warning: blocking-path self times cover {:.1}% of the untraced latency \
             (traced requests took {:.1}% of it)",
            coverage * 100.0,
            ratio(
                layers.get("path.request_us").copied().unwrap_or(0.0),
                layers.get("path.untraced_us").copied().unwrap_or(0.0)
            ) * 100.0
        );
    }
}

/// What every result is stamped with, as a JSON object: commit, core
/// count, seed, workload and its operation count.
pub fn stamp(args: &Args, ops: u64) -> String {
    format!(
        "{{\"git_sha\": \"{}\", \"nproc\": {}, \"seed\": {}, \"workload\": \"{}\", \"ops\": {}, \"trace\": {}}}",
        git_sha(),
        nproc(),
        args.seed,
        args.workload,
        ops,
        u8::from(args.trace)
    )
}

/// Nearest-rank percentile `q` in `[0, 1]` of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set in MB (`VmHWM`), 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` without spawning git;
/// `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
                    })
            })
            .unwrap_or_default(),
    };
    if sha.len() == 40 && sha.bytes().all(|b| b.is_ascii_hexdigit()) {
        sha
    } else {
        "unknown".to_string()
    }
}

/// FNV-1a over 64-bit words: the digest of checked outputs.
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn per_layer_reports_every_metric() {
        let mut layers = Layers::new();
        layers.insert("cache.hit_ratio", 0.5);
        let r = Report::per_layer(10, 0, &layers);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert!(r
            .metrics
            .iter()
            .any(|&(n, _, v)| n == "cache.hit_ratio" && v == 0.5));
    }

    /// The manifest's metric lists match the tables the program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc: serde::Value = serde_json::from_str(&manifest).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, printed, "{key}");
        }
    }
}
