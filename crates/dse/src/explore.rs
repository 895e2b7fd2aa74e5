//! Per-design mapping optimization, latency-area evaluation and Pareto
//! extraction.

use crate::pool::{build_design, DesignParams, DesignPoint};
use ulm_arch::AreaModel;
pub use ulm_mapper::SearchStats;
use ulm_mapper::{Mapper, MapperError, MapperOptions, Objective};
use ulm_mapping::MappedLayer;
use ulm_model::{
    InputDelta, LatencyModel, MappingShape, ModelScratch, RebuildStats, SpecializedModel,
    SurrogateStats,
};
use ulm_workload::Layer;

/// One evaluated hardware design.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DsePoint {
    /// The design's free parameters.
    pub params: DesignParams,
    /// Best (mapping-optimized) total latency in cycles.
    pub latency: f64,
    /// Area in mm², GB excluded (as in Fig. 8).
    pub area_mm2: f64,
    /// MAC utilization at the best mapping.
    pub utilization: f64,
    /// Temporal stall of the best mapping, cycles.
    pub ss_overall: f64,
}

/// DSE configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreOptions {
    /// Mapping-search settings per design point.
    pub mapper: MapperOptions,
    /// Area-model parameters.
    pub area: AreaModel,
    /// Worker threads for [`explore`]: `None` or `Some(1)` evaluates
    /// serially; `Some(n)` splits the design list across `n` threads.
    /// Results are merged in design order, so the output is identical for
    /// every thread count.
    pub parallelism: Option<usize>,
    /// Worker threads *within* each design's ordering search (routed to
    /// [`Mapper::with_parallelism`]). Useful when the design list is
    /// short but each mapping space is large; the per-design result is
    /// identical at every setting.
    pub mapping_parallelism: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            // DSE sweeps thousands of designs: keep per-design mapping
            // search light but meaningful.
            mapper: MapperOptions {
                max_exhaustive: 2_000,
                samples: 60,
                ..MapperOptions::default()
            },
            area: AreaModel::default(),
            parallelism: None,
            mapping_parallelism: None,
        }
    }
}

/// Aggregate search-effort counters for one [`explore_with_stats`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DseStats {
    /// Designs evaluated (including infeasible ones).
    pub designs: usize,
    /// Designs with at least one legal mapping.
    pub feasible: usize,
    /// Ordering-search counters summed across all designs (the shared
    /// [`SearchStats`] from `ulm-mapper`).
    pub search: SearchStats,
    /// Wall-clock exploration time in milliseconds.
    pub wall_ms: f64,
}

/// Evaluates one design: optimizes the mapping for lowest latency and
/// computes the GB-excluded area.
///
/// # Errors
///
/// Propagates [`MapperError::NoLegalMapping`] when the design cannot run
/// the layer at all (e.g. registers too small for the spatial block).
pub fn evaluate_design(
    design: &DesignPoint,
    layer: &Layer,
    opts: &ExploreOptions,
) -> Result<DsePoint, MapperError> {
    evaluate_design_counted(design, layer, opts).map(|(p, _)| p)
}

fn evaluate_design_counted(
    design: &DesignPoint,
    layer: &Layer,
    opts: &ExploreOptions,
) -> Result<(DsePoint, SearchStats), MapperError> {
    let mapper = Mapper::new(&design.arch, layer, design.spatial.clone())
        .with_options(opts.mapper)
        .with_parallelism(opts.mapping_parallelism);
    let result = mapper.search_fast(Objective::Latency)?;
    let h = design.arch.hierarchy();
    let exclude: Vec<_> = h.find("GB").into_iter().collect();
    let area_mm2 = opts.area.total_mm2(&design.arch, &exclude);
    Ok((
        DsePoint {
            params: design.params,
            latency: result.latency.cc_total,
            area_mm2,
            utilization: result.latency.utilization,
            ss_overall: result.latency.ss_overall,
        },
        result.stats,
    ))
}

/// Runs `eval` on every design and returns the results in design order.
/// With `parallelism = Some(n)` (n > 1) the designs are split into
/// contiguous chunks across up to `n` threads; each result lands in its
/// design's slot, so the output is identical for every thread count.
fn for_each_design<T: Send>(
    designs: &[DesignPoint],
    parallelism: Option<usize>,
    eval: impl Fn(&DesignPoint) -> Option<T> + Sync,
) -> Vec<Option<T>> {
    let threads = parallelism.unwrap_or(1).clamp(1, designs.len().max(1));
    let mut slots: Vec<Option<T>> = designs.iter().map(|_| None).collect();
    let run = |d_chunk: &[DesignPoint], s_chunk: &mut [Option<T>]| {
        for (d, slot) in d_chunk.iter().zip(s_chunk) {
            *slot = eval(d);
        }
    };
    if threads <= 1 {
        run(designs, &mut slots);
    } else {
        let chunk = designs.len().div_ceil(threads);
        let run = &run;
        std::thread::scope(|scope| {
            for (d_chunk, s_chunk) in designs.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                scope.spawn(move || run(d_chunk, s_chunk));
            }
        });
    }
    slots
}

/// Evaluates every design, silently skipping ones with no legal mapping.
///
/// With `opts.parallelism = Some(n)` (n > 1) the designs are split across
/// `n` threads; each design is still evaluated by the same deterministic
/// seeded search and the results are merged back in design order, so the
/// returned vector is byte-identical to the serial one.
pub fn explore(designs: &[DesignPoint], layer: &Layer, opts: &ExploreOptions) -> Vec<DsePoint> {
    explore_with_stats(designs, layer, opts).0
}

/// [`explore`], additionally returning aggregate search-effort counters.
/// The point list is identical to [`explore`]'s; the counters are summed
/// in design order and deterministic for a fixed
/// `(parallelism, mapping_parallelism)` setting.
pub fn explore_with_stats(
    designs: &[DesignPoint],
    layer: &Layer,
    opts: &ExploreOptions,
) -> (Vec<DsePoint>, DseStats) {
    let t0 = std::time::Instant::now();
    let slots = for_each_design(designs, opts.parallelism, |d| {
        evaluate_design_counted(d, layer, opts).ok()
    });
    let mut stats = DseStats {
        designs: designs.len(),
        ..DseStats::default()
    };
    let mut points = Vec::with_capacity(designs.len());
    for (point, counters) in slots.into_iter().flatten() {
        stats.feasible += 1;
        stats.search.absorb(&counters);
        points.push(point);
    }
    stats.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (points, stats)
}

/// Incremental-evaluation counters for one [`explore_bw_sweep`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepStats {
    /// Distinct (non-bandwidth) designs in the sweep.
    pub designs: usize,
    /// Designs with at least one legal mapping.
    pub feasible: usize,
    /// Sweep points produced (`feasible × bandwidths`).
    pub points: usize,
    /// Full evaluations: one mapping search + from-scratch lowering per
    /// feasible design, at its first bandwidth.
    pub full_evals: usize,
    /// Incremental re-evaluations of bandwidth neighbors.
    pub delta_evals: usize,
    /// Lowering stages recomputed across all points.
    pub stages_rebuilt: u64,
    /// Lowering stages reused from the previous point.
    pub stages_skipped: u64,
    /// Wall-clock sweep time in milliseconds.
    pub wall_ms: f64,
}

/// One design's sweep output: its points plus local counters.
type DesignSweep = (Vec<DsePoint>, RebuildStats, usize);

/// Sweeps every design across `gb_bws`, evaluating bandwidth neighbors
/// incrementally.
///
/// Points are ordered to maximize reuse: all bandwidth variants of one
/// design are evaluated consecutively. The mapping is searched once per
/// design (at `gb_bws[0]`) and the resulting incumbent mapping is then
/// re-evaluated at each remaining bandwidth through
/// [`LatencyModel::evaluate_delta_fast`] — a pure-`BANDWIDTH`
/// [`InputDelta`], since bandwidth variants of a design differ only in
/// the GB port rates. Delta evaluation is bit-identical to a cold
/// evaluation of the same mapping on the variant architecture, so the
/// returned points are exactly what a per-point from-scratch sweep of
/// the incumbent mapping would produce. Designs with no legal mapping
/// are silently skipped, as in [`explore`].
///
/// `gb_bws` must be non-empty; each design's `gb_bw_bits` field is
/// overridden by the swept values. With `opts.parallelism = Some(n)` the
/// designs are split across `n` threads and merged in design order, so
/// the output is identical for every thread count.
pub fn explore_bw_sweep(
    designs: &[DesignPoint],
    gb_bws: &[u64],
    layer: &Layer,
    opts: &ExploreOptions,
) -> (Vec<DsePoint>, SweepStats) {
    assert!(
        !gb_bws.is_empty(),
        "bandwidth sweep needs at least one value"
    );
    let t0 = std::time::Instant::now();
    let slots = for_each_design(designs, opts.parallelism, |d| {
        sweep_design(d, gb_bws, layer, opts).ok()
    });
    let mut stats = SweepStats {
        designs: designs.len(),
        ..SweepStats::default()
    };
    let mut points = Vec::with_capacity(designs.len() * gb_bws.len());
    for (design_points, rebuilds, delta_evals) in slots.into_iter().flatten() {
        stats.feasible += 1;
        stats.points += design_points.len();
        stats.full_evals += 1;
        stats.delta_evals += delta_evals;
        stats.stages_rebuilt += u64::from(rebuilds.stages_rebuilt);
        stats.stages_skipped += u64::from(rebuilds.stages_skipped);
        points.extend(design_points);
    }
    stats.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (points, stats)
}

/// Searches the mapping once at `gb_bws[0]`, then walks the remaining
/// bandwidths with delta evaluations of the incumbent mapping.
fn sweep_design(
    design: &DesignPoint,
    gb_bws: &[u64],
    layer: &Layer,
    opts: &ExploreOptions,
) -> Result<DesignSweep, MapperError> {
    let base_params = DesignParams {
        gb_bw_bits: gb_bws[0],
        ..design.params
    };
    let base = build_design(base_params);
    let mapper = Mapper::new(&base.arch, layer, base.spatial.clone())
        .with_options(opts.mapper)
        .with_parallelism(opts.mapping_parallelism);
    let winner = mapper.search_fast(Objective::Latency)?.ordering;
    let mapping = mapper
        .mapping(&winner)
        .expect("the winning ordering has a legal allocation");
    // Area excludes GB and the swept knob is a GB port rate, so one
    // number covers every point of this design.
    let exclude: Vec<_> = base.arch.hierarchy().find("GB").into_iter().collect();
    let area_mm2 = opts.area.total_mm2(&base.arch, &exclude);

    let model = if opts.mapper.bw_aware {
        LatencyModel::new()
    } else {
        LatencyModel::bw_unaware()
    };
    let mut scratch = ModelScratch::default();
    let mut rebuilds = RebuildStats::default();
    let mut points = Vec::with_capacity(gb_bws.len());
    let mut prev = base;
    let mut delta = InputDelta::ALL; // first point: nothing cached yet
    for &bw in gb_bws {
        let variant = if bw == prev.params.gb_bw_bits {
            prev
        } else {
            let next = build_design(DesignParams {
                gb_bw_bits: bw,
                ..design.params
            });
            delta = delta.union(InputDelta::between(&prev.arch, &next.arch));
            next
        };
        let view = MappedLayer::new(layer, &variant.arch, &mapping)
            .expect("incumbent mapping stays legal: bandwidth does not affect capacity");
        let (fast, stats) = model.evaluate_delta_fast(&view, delta, &mut scratch);
        rebuilds.accumulate(stats);
        points.push(DsePoint {
            params: variant.params,
            latency: fast.cc_total,
            area_mm2,
            utilization: fast.utilization,
            ss_overall: fast.ss_overall,
        });
        delta = InputDelta::NONE;
        prev = variant;
    }
    Ok((points, rebuilds, gb_bws.len() - 1))
}

/// One workload point of an [`explore_workload_sweep`] run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadPoint {
    /// The design's free parameters.
    pub params: DesignParams,
    /// Matmul dimensions `(b, k, c)` of this point.
    pub dims: (u64, u64, u64),
    /// Total latency in cycles of the incumbent dataflow at these dims.
    pub latency: f64,
    /// MAC utilization.
    pub utilization: f64,
    /// Temporal stall, cycles.
    pub ss_overall: f64,
}

/// Specialization-reuse counters for one [`explore_workload_sweep`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadSweepStats {
    /// Designs in the sweep.
    pub designs: usize,
    /// Designs with a legal mapping on the template layer.
    pub feasible: usize,
    /// Workload points produced.
    pub points: usize,
    /// Mapping searches performed: one per feasible design, regardless of
    /// how many workload points it answers.
    pub searches: usize,
    /// Points rejected by the surrogate (dims that do not fit the
    /// design's memories under the incumbent dataflow).
    pub infeasible_points: usize,
    /// Queries whose Step-2 port grouping was reused across points.
    pub grouping_reused: u64,
    /// Queries that had to rebuild the port grouping.
    pub grouping_rebuilt: u64,
    /// Wall-clock sweep time in milliseconds.
    pub wall_ms: f64,
}

/// One design's workload-sweep output: points plus surrogate counters.
type WorkloadSweep = (Vec<WorkloadPoint>, SurrogateStats, usize);

/// Sweeps every design across a list of workload dims, reusing one
/// [`SpecializedModel`] per design.
///
/// The dual of [`explore_bw_sweep`]: there the workload is fixed and the
/// architecture varies; here the architecture is fixed per design and
/// the workload varies. The mapping is searched once per design on the
/// `template` layer, the search incumbent's *shape* (spatial unrolling +
/// loop ordering) is specialized against the design's architecture, and
/// every `(b, k, c)` in `dims` is then answered through
/// [`SpecializedModel::query`] — which is bit-identical to re-deriving
/// the mapping at those dims and evaluating from scratch
/// ([`SpecializedModel::query_oracle`]), so the returned points are
/// exactly what a per-point cold sweep of the incumbent dataflow would
/// produce. Designs with no legal mapping on the template are silently
/// skipped, as in [`explore`]; dims that do not fit a design are counted
/// in [`WorkloadSweepStats::infeasible_points`] and skipped.
///
/// `dims` must be non-empty. With `opts.parallelism = Some(n)` the
/// designs are split across `n` threads and merged in design order, so
/// the output is identical for every thread count.
pub fn explore_workload_sweep(
    designs: &[DesignPoint],
    dims: &[(u64, u64, u64)],
    template: &Layer,
    opts: &ExploreOptions,
) -> (Vec<WorkloadPoint>, WorkloadSweepStats) {
    assert!(!dims.is_empty(), "workload sweep needs at least one point");
    let t0 = std::time::Instant::now();
    let slots = for_each_design(designs, opts.parallelism, |d| {
        sweep_workload_design(d, dims, template, opts)
    });
    let mut stats = WorkloadSweepStats {
        designs: designs.len(),
        ..WorkloadSweepStats::default()
    };
    let mut points = Vec::with_capacity(designs.len() * dims.len());
    for (design_points, surrogate, infeasible) in slots.into_iter().flatten() {
        stats.feasible += 1;
        stats.searches += 1;
        stats.points += design_points.len();
        stats.infeasible_points += infeasible;
        stats.grouping_reused += surrogate.grouping_reused;
        stats.grouping_rebuilt += surrogate.grouping_rebuilt;
        points.extend(design_points);
    }
    stats.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (points, stats)
}

/// Searches the mapping once on the template, specializes its shape, and
/// answers every workload point through the surrogate.
fn sweep_workload_design(
    design: &DesignPoint,
    dims: &[(u64, u64, u64)],
    template: &Layer,
    opts: &ExploreOptions,
) -> Option<WorkloadSweep> {
    let mapper = Mapper::new(&design.arch, template, design.spatial.clone())
        .with_options(opts.mapper)
        .with_parallelism(opts.mapping_parallelism);
    let winner = mapper.search_fast(Objective::Latency).ok()?.ordering;
    let mapping = mapper
        .mapping(&winner)
        .expect("the winning ordering has a legal allocation");
    let shape = MappingShape::from_mapping(&mapping).ok()?;
    let model = if opts.mapper.bw_aware {
        LatencyModel::new()
    } else {
        LatencyModel::bw_unaware()
    };
    let mut spec = SpecializedModel::prepare(model, &design.arch, template, shape).ok()?;
    let mut points = Vec::with_capacity(dims.len());
    let mut infeasible = 0usize;
    for &(b, k, c) in dims {
        match spec.query(b, k, c) {
            Ok(fast) => points.push(WorkloadPoint {
                params: design.params,
                dims: (b, k, c),
                latency: fast.cc_total,
                utilization: fast.utilization,
                ss_overall: fast.ss_overall,
            }),
            Err(_) => infeasible += 1,
        }
    }
    Some((points, spec.stats(), infeasible))
}

/// Indices of the latency-area Pareto front (minimizing both), sorted by
/// increasing area.
pub fn pareto_front(points: &[DsePoint]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .area_mm2
            .total_cmp(&points[b].area_mm2)
            .then(points[a].latency.total_cmp(&points[b].latency))
    });
    let mut front = Vec::new();
    let mut best_latency = f64::INFINITY;
    for idx in order {
        if points[idx].latency < best_latency {
            best_latency = points[idx].latency;
            front.push(idx);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{build_design, enumerate_designs, MemoryPool};
    use ulm_workload::Precision;

    fn small_layer() -> Layer {
        Layer::matmul("l", 64, 64, 128, Precision::int8_out24())
    }

    fn quick_opts() -> ExploreOptions {
        ExploreOptions {
            mapper: MapperOptions {
                max_exhaustive: 200,
                samples: 20,
                ..MapperOptions::default()
            },
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn single_design_evaluates() {
        let d = build_design(DesignParams {
            array_side: 16,
            w_reg_words: 1,
            i_reg_words: 1,
            o_reg_words: 1,
            w_lb_kb: 16,
            i_lb_kb: 8,
            gb_bw_bits: 128,
        });
        let p = evaluate_design(&d, &small_layer(), &quick_opts()).unwrap();
        assert!(p.latency > 0.0);
        assert!(p.area_mm2 > 0.0);
        assert!(p.utilization > 0.0 && p.utilization <= 1.0);
    }

    /// `evaluate_design` reads the kernel's winner scalars; the report
    /// of the winner `Mapper::search` builds must agree bit for bit, on
    /// every design of a small pool, in both models, under the quick and
    /// the default (Fig. 8) search settings.
    #[test]
    fn evaluate_design_matches_the_report_path() {
        let pool = MemoryPool {
            w_reg_words_per_mac: vec![1, 2],
            i_reg_words_per_mac: vec![1, 2],
            o_reg_words_per_pe: vec![1],
            w_lb_kb: vec![4, 16],
            i_lb_kb: vec![4, 16],
        };
        let designs = enumerate_designs(&pool, &[16, 32], 128);
        let layer = small_layer();
        let (mut feasible, mut infeasible) = (0, 0);
        for base in [quick_opts(), ExploreOptions::default()] {
            for bw_aware in [true, false] {
                let opts = ExploreOptions {
                    mapper: MapperOptions {
                        bw_aware,
                        ..base.mapper
                    },
                    ..base
                };
                for d in &designs {
                    let mapper =
                        Mapper::new(&d.arch, &layer, d.spatial.clone()).with_options(opts.mapper);
                    match (
                        evaluate_design(d, &layer, &opts),
                        mapper.search(Objective::Latency),
                    ) {
                        (Ok(point), Ok(report)) => {
                            feasible += 1;
                            let want = &report.best.latency;
                            assert_eq!(point.latency.to_bits(), want.cc_total.to_bits());
                            assert_eq!(point.utilization.to_bits(), want.utilization.to_bits());
                            assert_eq!(point.ss_overall.to_bits(), want.ss_overall.to_bits());
                        }
                        (Err(a), Err(b)) => {
                            infeasible += 1;
                            assert_eq!(a, b);
                        }
                        (a, b) => panic!("{:?}: {a:?} vs {:?}", d.params, b.map(|r| r.stats)),
                    }
                }
            }
        }
        assert!(feasible > 0 && feasible + infeasible == 4 * designs.len());
    }

    #[test]
    fn more_memory_costs_more_area() {
        let base = DesignParams {
            array_side: 16,
            w_reg_words: 1,
            i_reg_words: 1,
            o_reg_words: 1,
            w_lb_kb: 4,
            i_lb_kb: 4,
            gb_bw_bits: 128,
        };
        let small = evaluate_design(&build_design(base), &small_layer(), &quick_opts()).unwrap();
        let big = evaluate_design(
            &build_design(DesignParams {
                w_lb_kb: 64,
                i_lb_kb: 64,
                ..base
            }),
            &small_layer(),
            &quick_opts(),
        )
        .unwrap();
        assert!(big.area_mm2 > small.area_mm2);
    }

    #[test]
    fn parallel_explore_matches_serial_exactly() {
        let pool = MemoryPool {
            w_reg_words_per_mac: vec![1, 2],
            i_reg_words_per_mac: vec![1, 2],
            o_reg_words_per_pe: vec![1],
            w_lb_kb: vec![4, 16],
            i_lb_kb: vec![4, 16],
        };
        let designs = enumerate_designs(&pool, &[16], 128);
        let serial = explore(&designs, &small_layer(), &quick_opts());
        for threads in [2usize, 3, 8] {
            let par = explore(
                &designs,
                &small_layer(),
                &ExploreOptions {
                    parallelism: Some(threads),
                    ..quick_opts()
                },
            );
            assert_eq!(serial, par, "parallelism={threads} diverged from serial");
        }
    }

    #[test]
    fn stats_account_for_every_design() {
        let pool = MemoryPool {
            w_reg_words_per_mac: vec![1, 2],
            i_reg_words_per_mac: vec![1],
            o_reg_words_per_pe: vec![1],
            w_lb_kb: vec![4, 16],
            i_lb_kb: vec![4],
        };
        let designs = enumerate_designs(&pool, &[16], 128);
        let (points, stats) = explore_with_stats(&designs, &small_layer(), &quick_opts());
        assert_eq!(stats.designs, designs.len());
        assert_eq!(stats.feasible, points.len());
        assert!(stats.search.generated >= stats.search.evaluated + stats.search.pruned);
        assert!(stats.search.evaluated > 0);
        assert!(stats.wall_ms > 0.0);
        // The point list is exactly what `explore` returns.
        assert_eq!(points, explore(&designs, &small_layer(), &quick_opts()));
    }

    #[test]
    fn intra_design_parallelism_matches_serial_exactly() {
        let pool = MemoryPool {
            w_reg_words_per_mac: vec![1, 2],
            i_reg_words_per_mac: vec![1],
            o_reg_words_per_pe: vec![1],
            w_lb_kb: vec![4, 16],
            i_lb_kb: vec![4],
        };
        let designs = enumerate_designs(&pool, &[16], 128);
        let serial = explore(&designs, &small_layer(), &quick_opts());
        for threads in [2usize, 4] {
            let par = explore(
                &designs,
                &small_layer(),
                &ExploreOptions {
                    mapping_parallelism: Some(threads),
                    ..quick_opts()
                },
            );
            assert_eq!(serial, par, "mapping_parallelism={threads} diverged");
        }
    }

    #[test]
    fn bw_sweep_matches_cold_evaluation_of_incumbent() {
        let pool = MemoryPool {
            w_reg_words_per_mac: vec![1, 2],
            i_reg_words_per_mac: vec![1],
            o_reg_words_per_pe: vec![1],
            w_lb_kb: vec![4, 16],
            i_lb_kb: vec![4],
        };
        let designs = enumerate_designs(&pool, &[16], 64);
        let bws = [64u64, 128, 256, 512];
        let layer = small_layer();
        let opts = quick_opts();
        let (points, stats) = explore_bw_sweep(&designs, &bws, &layer, &opts);

        assert_eq!(stats.designs, designs.len());
        assert_eq!(stats.points, points.len());
        assert_eq!(stats.points, stats.feasible * bws.len());
        assert_eq!(stats.full_evals, stats.feasible);
        assert_eq!(stats.delta_evals, stats.feasible * (bws.len() - 1));
        // Each delta point reuses the residency and feed-rate stages.
        assert!(stats.stages_skipped >= 2 * stats.delta_evals as u64);

        // Cold re-derivation: the same search at bws[0], then a
        // from-scratch evaluation of that mapping at every bandwidth.
        let mut cold = Vec::new();
        for d in &designs {
            let base = build_design(DesignParams {
                gb_bw_bits: bws[0],
                ..d.params
            });
            let mapper =
                Mapper::new(&base.arch, &layer, base.spatial.clone()).with_options(opts.mapper);
            let Ok(result) = mapper.search(Objective::Latency) else {
                continue;
            };
            let mapping = result.best.mapping;
            let exclude: Vec<_> = base.arch.hierarchy().find("GB").into_iter().collect();
            let area_mm2 = opts.area.total_mm2(&base.arch, &exclude);
            for &bw in &bws {
                let v = build_design(DesignParams {
                    gb_bw_bits: bw,
                    ..d.params
                });
                let view = MappedLayer::new(&layer, &v.arch, &mapping).unwrap();
                let fast = LatencyModel::new().evaluate_fast(&view, &mut ModelScratch::default());
                cold.push(DsePoint {
                    params: v.params,
                    latency: fast.cc_total,
                    area_mm2,
                    utilization: fast.utilization,
                    ss_overall: fast.ss_overall,
                });
            }
        }
        assert_eq!(points.len(), cold.len());
        for (a, b) in points.iter().zip(&cold) {
            assert_eq!(a.params, b.params);
            assert_eq!(a.latency.to_bits(), b.latency.to_bits(), "{:?}", a.params);
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.ss_overall.to_bits(), b.ss_overall.to_bits());
            assert_eq!(a.area_mm2.to_bits(), b.area_mm2.to_bits());
        }
    }

    #[test]
    fn parallel_bw_sweep_matches_serial_exactly() {
        let pool = MemoryPool {
            w_reg_words_per_mac: vec![1, 2],
            i_reg_words_per_mac: vec![1, 2],
            o_reg_words_per_pe: vec![1],
            w_lb_kb: vec![4],
            i_lb_kb: vec![4],
        };
        let designs = enumerate_designs(&pool, &[16], 64);
        let bws = [64u64, 256];
        let (serial, _) = explore_bw_sweep(&designs, &bws, &small_layer(), &quick_opts());
        for threads in [2usize, 3] {
            let (par, _) = explore_bw_sweep(
                &designs,
                &bws,
                &small_layer(),
                &ExploreOptions {
                    parallelism: Some(threads),
                    ..quick_opts()
                },
            );
            assert_eq!(serial, par, "parallelism={threads} diverged from serial");
        }
    }

    #[test]
    fn workload_sweep_matches_cold_oracle_of_incumbent() {
        let pool = MemoryPool {
            w_reg_words_per_mac: vec![1, 2],
            i_reg_words_per_mac: vec![1],
            o_reg_words_per_pe: vec![1],
            w_lb_kb: vec![4, 16],
            i_lb_kb: vec![4],
        };
        let designs = enumerate_designs(&pool, &[16], 128);
        let dims = [(16u64, 64u64, 128u64), (64, 64, 128), (128, 32, 96)];
        let template = small_layer();
        let opts = quick_opts();
        let (points, stats) = explore_workload_sweep(&designs, &dims, &template, &opts);

        assert_eq!(stats.designs, designs.len());
        assert_eq!(stats.points, points.len());
        assert_eq!(stats.searches, stats.feasible);
        assert_eq!(
            stats.points + stats.infeasible_points,
            stats.feasible * dims.len()
        );
        assert_eq!(
            stats.grouping_reused + stats.grouping_rebuilt,
            stats.points as u64
        );

        // Cold re-derivation: the same search per design, then the
        // surrogate's from-scratch oracle path at every workload point.
        let mut cold = Vec::new();
        for d in &designs {
            let mapper =
                Mapper::new(&d.arch, &template, d.spatial.clone()).with_options(opts.mapper);
            let Ok(result) = mapper.search(Objective::Latency) else {
                continue;
            };
            let shape = MappingShape::from_mapping(&result.best.mapping).unwrap();
            let spec =
                SpecializedModel::prepare(LatencyModel::new(), &d.arch, &template, shape).unwrap();
            for &(b, k, c) in &dims {
                let Ok(fast) = spec.query_oracle(b, k, c) else {
                    continue;
                };
                cold.push(WorkloadPoint {
                    params: d.params,
                    dims: (b, k, c),
                    latency: fast.cc_total,
                    utilization: fast.utilization,
                    ss_overall: fast.ss_overall,
                });
            }
        }
        assert_eq!(points.len(), cold.len());
        for (a, b) in points.iter().zip(&cold) {
            assert_eq!(a.params, b.params);
            assert_eq!(a.dims, b.dims);
            assert_eq!(a.latency.to_bits(), b.latency.to_bits(), "{:?}", a.params);
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.ss_overall.to_bits(), b.ss_overall.to_bits());
        }
    }

    #[test]
    fn parallel_workload_sweep_matches_serial_exactly() {
        let pool = MemoryPool {
            w_reg_words_per_mac: vec![1, 2],
            i_reg_words_per_mac: vec![1, 2],
            o_reg_words_per_pe: vec![1],
            w_lb_kb: vec![4],
            i_lb_kb: vec![4],
        };
        let designs = enumerate_designs(&pool, &[16], 128);
        let dims = [(32u64, 64u64, 128u64), (96, 48, 160)];
        let (serial, _) = explore_workload_sweep(&designs, &dims, &small_layer(), &quick_opts());
        for threads in [2usize, 3] {
            let (par, _) = explore_workload_sweep(
                &designs,
                &dims,
                &small_layer(),
                &ExploreOptions {
                    parallelism: Some(threads),
                    ..quick_opts()
                },
            );
            assert_eq!(serial, par, "parallelism={threads} diverged from serial");
        }
    }

    #[test]
    fn pareto_front_is_monotone() {
        let pool = MemoryPool {
            w_reg_words_per_mac: vec![1, 2],
            i_reg_words_per_mac: vec![1],
            o_reg_words_per_pe: vec![1],
            w_lb_kb: vec![4, 16],
            i_lb_kb: vec![4, 16],
        };
        let designs = enumerate_designs(&pool, &[16], 128);
        let points = explore(&designs, &small_layer(), &quick_opts());
        assert!(!points.is_empty());
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        // Along the front, area increases and latency strictly decreases.
        for w in front.windows(2) {
            assert!(points[w[1]].area_mm2 >= points[w[0]].area_mm2);
            assert!(points[w[1]].latency < points[w[0]].latency);
        }
        // Every non-front point is dominated by some front point.
        for (i, p) in points.iter().enumerate() {
            if front.contains(&i) {
                continue;
            }
            assert!(front.iter().any(|&f| {
                points[f].area_mm2 <= p.area_mm2 + 1e-12 && points[f].latency <= p.latency + 1e-9
            }));
        }
    }
}
