//! Per-design mapping optimization, latency-area evaluation and Pareto
//! extraction.

use crate::pool::{DesignParams, DesignPoint};
use ulm_arch::AreaModel;
use ulm_mapper::{Mapper, MapperError, MapperOptions, Objective, SearchStats};
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
    /// Designs are the unit of parallelism: each design's mapping search
    /// runs whole on the thread that takes it. Results are merged in
    /// design order, so the output is identical for every thread count.
    pub parallelism: Option<usize>,
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
/// computes the GB-excluded area, returning the winner's search counters
/// alongside.
///
/// # Errors
///
/// Propagates [`MapperError::NoLegalMapping`] when the design cannot run
/// the layer at all (e.g. registers too small for the spatial block).
fn evaluate_design(
    design: &DesignPoint,
    layer: &Layer,
    opts: &ExploreOptions,
) -> Result<(DsePoint, SearchStats), MapperError> {
    let mapper = Mapper::new(&design.arch, layer, design.spatial.clone()).with_options(opts.mapper);
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
/// The point list is identical to [`explore`]'s; each design's search
/// runs on one thread, so the counters are identical for every
/// `parallelism` setting too.
pub fn explore_with_stats(
    designs: &[DesignPoint],
    layer: &Layer,
    opts: &ExploreOptions,
) -> (Vec<DsePoint>, DseStats) {
    let t0 = std::time::Instant::now();
    let slots = for_each_design(designs, opts.parallelism, |d| {
        evaluate_design(d, layer, opts).ok()
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
        let (p, _) = evaluate_design(&d, &small_layer(), &quick_opts()).unwrap();
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
                        (Ok((point, _)), Ok(report)) => {
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
        let (small, _) =
            evaluate_design(&build_design(base), &small_layer(), &quick_opts()).unwrap();
        let (big, _) = evaluate_design(
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
        let (serial, serial_stats) = explore_with_stats(&designs, &small_layer(), &quick_opts());
        for threads in [2usize, 3, 8] {
            let (par, par_stats) = explore_with_stats(
                &designs,
                &small_layer(),
                &ExploreOptions {
                    parallelism: Some(threads),
                    ..quick_opts()
                },
            );
            assert_eq!(serial, par, "parallelism={threads} diverged from serial");
            assert_eq!(
                serial_stats.search, par_stats.search,
                "parallelism={threads}"
            );
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
