#!/usr/bin/env bash
# Performance snapshot of the DSE hot path: runs the mapper_hot_path
# bench (baseline allocating search vs the batched, pruned, class-walking
# search on the Fig. 8 case-study workload for each objective, the
# permutation vs ordering-class walk, one sampled DSE design through
# `search` and `search_fast`, report-assembling `LatencyModel::evaluate`
# vs scratch-based `evaluate_fast` throughput, full vs incremental
# delta-evaluation of a one-knob GB-bandwidth neighbor, surrogate
# queries, a whole 1,350-design Fig. 8 regime priced one design per
# `explore_with_stats` call in a fixed shuffled order, and a fixed grid
# of distinct matmuls searched once each) and leaves the
# machine-readable numbers, stamped with the core count, in
# BENCH_mapper.json at the repo root (override the destination with
# BENCH_MAPPER_JSON).
#
# Everything runs offline — all dependencies are path crates vendored
# under vendor/, so no registry access is required.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p ulm-bench --bench mapper_hot_path

echo
echo "==> ${BENCH_MAPPER_JSON:-BENCH_mapper.json}"
cat "${BENCH_MAPPER_JSON:-BENCH_mapper.json}"
