//! `dse-fig8`: the whole Fig. 8 architecture sweep, run serially with
//! `ExploreOptions::default()` on the 256×256×64 layer.
//!
//! One pass enumerates the designs at both GB bandwidths, then prices
//! regime (a) BW-unaware at 128 b/cy, (b) at 128 b/cy and (c) at
//! 1024 b/cy — 3 × 1,350 designs — and extracts each regime's Pareto
//! front. Each design goes through `explore_with_stats` on its own, so
//! every design's latency is a sample; serially this is the same work as
//! one call over the regime's list. `ops_per_s` is designs priced per
//! second of pass time, `p50_ms`/`p99_ms` the per-design latency
//! percentiles over every pass of the run. The seed permutes the
//! order in which designs are priced; results are put back in design
//! order and every pass's digest must equal [`REFERENCE_DIGESTS`].

use crate::metrics::{self, mean, median, percentile, ratio, Digest, Layers, Report};
use crate::rng::Rng;
use crate::trace::{trace_path, Tracer};
use crate::Args;
use std::time::Instant;
use ulm_dse::{
    enumerate_designs, explore_with_stats, pareto_front, DesignPoint, DsePoint, DseStats,
    ExploreOptions, MemoryPool,
};
use ulm_energy::EnergyModel;
use ulm_mapper::{MapperOptions, Objective};
use ulm_mapping::MappedLayer;
use ulm_model::{LatencyModel, LoweredLayer, ModelScratch};
use ulm_workload::{Layer, Precision};

/// MAC array sides of the sweep.
const SIDES: [u64; 3] = [16, 32, 64];

/// Fig. 8 regimes: (GB bits per cycle, bandwidth-aware model).
const REGIMES: [(u64, bool); 3] = [(128, false), (128, true), (1024, true)];

/// Digest of every regime's points and Pareto front on this code.
pub const REFERENCE_DIGESTS: [u64; 3] = [
    0xff50_be44_25d3_ab17,
    0x7b5b_e1d2_8440_c71f,
    0x6254_2319_a474_7e8a,
];

/// Passes per requested second, sized so a run's fixed pass count takes
/// about `--seconds` on a 2-core x86-64 host.
const PASSES_PER_SECOND: f64 = 2.5;

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Every how many designs the traced run replays one layer down.
const TRACE_EVERY: usize = 8;

fn layer() -> Layer {
    Layer::matmul("dse", 256, 256, 64, Precision::int8_out24())
}

fn options(bw_aware: bool) -> ExploreOptions {
    let defaults = ExploreOptions::default();
    ExploreOptions {
        mapper: MapperOptions {
            bw_aware,
            ..defaults.mapper
        },
        ..defaults
    }
}

/// Designs of one pass, per regime (regimes a and b share the 128 b/cy
/// list).
struct Designs {
    at_128: Vec<DesignPoint>,
    at_1024: Vec<DesignPoint>,
}

impl Designs {
    fn enumerate() -> Self {
        let pool = MemoryPool::default();
        Designs {
            at_128: enumerate_designs(&pool, &SIDES, 128),
            at_1024: enumerate_designs(&pool, &SIDES, 1024),
        }
    }

    fn regime(&self, gb_bw: u64) -> &[DesignPoint] {
        if gb_bw == 128 {
            &self.at_128
        } else {
            &self.at_1024
        }
    }
}

/// Digest of a regime's result: every point's bits in design order
/// (infeasible designs marked) and the Pareto front.
pub fn regime_digest(points: &[Option<DsePoint>], front: &[usize]) -> u64 {
    let mut d = Digest::new();
    for (i, p) in points.iter().enumerate() {
        d.word(i as u64);
        match p {
            None => d.word(u64::MAX),
            Some(p) => {
                let q = p.params;
                for w in [
                    q.array_side,
                    q.w_reg_words,
                    q.i_reg_words,
                    q.o_reg_words,
                    q.w_lb_kb,
                    q.i_lb_kb,
                    q.gb_bw_bits,
                ] {
                    d.word(w);
                }
                for f in [p.latency, p.area_mm2, p.utilization, p.ss_overall] {
                    d.word(f.to_bits());
                }
            }
        }
    }
    for &i in front {
        d.word(i as u64);
    }
    d.finish()
}

/// Designs counted as failed: all of a regime's when its digest is not
/// `expected`.
pub fn regime_failures(points: &[Option<DsePoint>], front: &[usize], expected: u64) -> u64 {
    if regime_digest(points, front) == expected {
        0
    } else {
        points.len() as u64
    }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    design_ms: Vec<f64>,
    failed: u64,
    stats: DseStats,
    /// Per regime, the digest this pass computed.
    digests: [u64; 3],
}

/// Spans of a traced pass, summarized.
#[derive(Default)]
struct PassTrace {
    enumerate_us: f64,
    pareto_us: Vec<f64>,
    dse_self_us: Vec<f64>,
    mapper_us: Vec<f64>,
    mapper_generated: u64,
    lower_us: Vec<f64>,
    evaluate_lowered_us: Vec<f64>,
    evaluate_fast_us: Vec<f64>,
    energy_us: Vec<f64>,
    mismatches: u64,
}

fn run_pass(
    orders: &[Vec<usize>; 3],
    layer: &Layer,
    pass_no: usize,
    mut traced: Option<(&mut Tracer, &mut PassTrace)>,
) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    let designs = match traced.as_mut() {
        None => Designs::enumerate(),
        Some((tracer, summary)) => {
            let (designs, span) =
                tracer.span("dse.enumerate", pass_no as u64, None, Designs::enumerate);
            summary.enumerate_us += tracer.us(span);
            designs
        }
    };
    for (r, &(gb_bw, bw_aware)) in REGIMES.iter().enumerate() {
        let opts = options(bw_aware);
        let list = designs.regime(gb_bw);
        let mut points: Vec<Option<DsePoint>> = vec![None; list.len()];
        for &i in &orders[r] {
            let design = std::slice::from_ref(&list[i]);
            let op = ((pass_no * REGIMES.len() + r) * list.len() + i) as u64;
            let start = Instant::now();
            let (found, stats) = match traced.as_mut() {
                None => explore_with_stats(design, layer, &opts),
                Some((tracer, summary)) => {
                    let (out, root) = tracer.span("dse.explore", op, None, || {
                        explore_with_stats(design, layer, &opts)
                    });
                    if i % TRACE_EVERY == 0 {
                        replay_design(tracer, summary, &list[i], layer, &opts, op, root, &out.0);
                    }
                    out
                }
            };
            pass.design_ms.push(start.elapsed().as_secs_f64() * 1e3);
            points[i] = found.into_iter().next();
            pass.stats.designs += stats.designs;
            pass.stats.feasible += stats.feasible;
            pass.stats.search.absorb(&stats.search);
        }
        let feasible: Vec<DsePoint> = points.iter().flatten().cloned().collect();
        let front = match traced.as_mut() {
            None => pareto_front(&feasible),
            Some((tracer, summary)) => {
                let (front, span) = tracer.span("dse.pareto", pass_no as u64, None, || {
                    pareto_front(&feasible)
                });
                summary.pareto_us.push(tracer.us(span));
                front
            }
        };
        pass.digests[r] = regime_digest(&points, &front);
        pass.failed += regime_failures(&points, &front, REFERENCE_DIGESTS[r]);
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

/// Replays one design one layer down: the mapping search
/// `explore_with_stats` ran, then the model and energy calls on the best
/// mapping it found.
#[allow(clippy::too_many_arguments)]
fn replay_design(
    tracer: &mut Tracer,
    summary: &mut PassTrace,
    design: &DesignPoint,
    layer: &Layer,
    opts: &ExploreOptions,
    op: u64,
    root: usize,
    explored: &[DsePoint],
) {
    let mapper = ulm_mapper::Mapper::new(&design.arch, layer, design.spatial.clone())
        .with_options(opts.mapper);
    let (result, span) = tracer.span("mapper.search", op, Some(root), || {
        mapper.search(Objective::Latency)
    });
    summary.mapper_us.push(tracer.us(span));
    summary.dse_self_us.push(tracer.us(root) - tracer.us(span));
    let Ok(result) = result else {
        if !explored.is_empty() {
            summary.mismatches += 1;
        }
        return;
    };
    summary.mapper_generated += result.stats.generated as u64;
    if explored.first().map(|p| p.latency.to_bits()) != Some(result.best.latency.cc_total.to_bits())
    {
        summary.mismatches += 1;
    }
    let model = if opts.mapper.bw_aware {
        LatencyModel::new()
    } else {
        LatencyModel::bw_unaware()
    };
    let Ok(view) = MappedLayer::new(layer, &design.arch, &result.best.mapping) else {
        summary.mismatches += 1;
        return;
    };
    let (lowered, s) = tracer.span("model.lower", op, Some(span), || {
        LoweredLayer::build(&view, model.dtl_options())
    });
    summary.lower_us.push(tracer.us(s));
    let (report, s) = tracer.span("model.evaluate_lowered", op, Some(span), || {
        model.evaluate_lowered(&view, &lowered)
    });
    summary.evaluate_lowered_us.push(tracer.us(s));
    let mut scratch = ModelScratch::default();
    let (fast, s) = tracer.span("model.evaluate_fast", op, Some(span), || {
        model.evaluate_fast(&view, &mut scratch)
    });
    summary.evaluate_fast_us.push(tracer.us(s));
    let (_, s) = tracer.span("energy.evaluate_lowered", op, Some(span), || {
        EnergyModel::new().evaluate_lowered(&view, &lowered)
    });
    summary.energy_us.push(tracer.us(s));
    if report.cc_total.to_bits() != result.best.latency.cc_total.to_bits()
        || fast.cc_total.to_bits() != report.cc_total.to_bits()
    {
        summary.mismatches += 1;
    }
}

fn orders(seed: u64) -> [Vec<usize>; 3] {
    let mut rng = Rng::new(seed, 0xD5E);
    let n = MemoryPool::default().combinations() * SIDES.len();
    std::array::from_fn(|_| {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        order
    })
}

/// Set-up: enumeration plus one warm-up pass; returns its seconds.
fn setup(orders: &[Vec<usize>; 3], layer: &Layer) -> (f64, u64) {
    let t0 = Instant::now();
    let warm = run_pass(orders, layer, 0, None);
    (t0.elapsed().as_secs_f64(), warm.failed)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let layer = layer();
    let orders = orders(args.seed);
    let passes = ((args.seconds as f64 * PASSES_PER_SECOND).round() as usize).max(1);
    if !args.trace {
        let mut setups = Vec::new();
        let mut failed = 0;
        for _ in 0..SETUP_REPS {
            let (s, f) = setup(&orders, &layer);
            setups.push(s);
            failed += f;
        }
        let (mut wall_s, mut design_ms) = (0.0, Vec::new());
        let mut attempted = 0u64;
        for p in 0..passes {
            let pass = run_pass(&orders, &layer, p, None);
            if pass.failed > 0 {
                eprintln!("dse-fig8: pass {p} digests {:#x?}", pass.digests);
            }
            attempted += pass.stats.designs as u64;
            failed += pass.failed;
            wall_s += pass.wall_s;
            design_ms.extend(pass.design_ms);
        }
        return Ok(Report::end_to_end(
            attempted,
            failed,
            [
                median(&setups),
                attempted as f64 / wall_s,
                percentile(&design_ms, 0.50),
                percentile(&design_ms, 0.99),
                metrics::peak_rss_mb(),
            ],
        ));
    }

    let (_, mut failed) = setup(&orders, &layer);
    let mut untraced_wall = 0.0;
    let mut totals = DseStats::default();
    let mut attempted = 0u64;
    for p in 0..passes {
        let pass = run_pass(&orders, &layer, p, None);
        untraced_wall += pass.wall_s;
        attempted += pass.stats.designs as u64;
        failed += pass.failed;
        totals.designs += pass.stats.designs;
        totals.feasible += pass.stats.feasible;
        totals.search.absorb(&pass.stats.search);
    }
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut summary = PassTrace::default();
    let mut traced_wall = 0.0;
    for p in 0..passes {
        let pass = run_pass(&orders, &layer, p, Some((&mut tracer, &mut summary)));
        traced_wall += pass.wall_s;
        failed += pass.failed;
    }
    failed += summary.mismatches;

    let designs_per_pass = (attempted / passes as u64) as f64;
    let per_pass_us = summary.enumerate_us / passes as f64
        + summary.pareto_us.iter().sum::<f64>() / passes as f64;
    let dse_us = mean(&summary.dse_self_us) + per_pass_us / designs_per_pass;
    let mapper_us = mean(&summary.mapper_us);
    let untraced_us = untraced_wall * 1e6 / attempted as f64;
    let mut layers = Layers::new();
    let s = totals.search;
    for (name, value) in [
        (
            "dse.enumerate_ms",
            summary.enumerate_us / passes as f64 / 1e3,
        ),
        ("dse.pareto_ms", mean(&summary.pareto_us) / 1e3),
        (
            "dse.feasible_ratio",
            ratio(totals.feasible as f64, totals.designs as f64),
        ),
        ("dse.designs", totals.designs as f64),
        ("mapper.search_ms", mapper_us / 1e3),
        (
            "mapper.orderings_per_s",
            ratio(
                summary.mapper_generated as f64,
                summary.mapper_us.iter().sum::<f64>() / 1e6,
            ),
        ),
        (
            "mapper.prune_ratio",
            ratio(s.pruned as f64, s.generated as f64),
        ),
        ("mapper.generated", s.generated as f64),
        ("mapper.evaluated", s.evaluated as f64),
        ("mapper.prefix_reuses", s.cache_hits as f64),
        ("model.lower_us", mean(&summary.lower_us)),
        (
            "model.evaluate_lowered_us",
            mean(&summary.evaluate_lowered_us),
        ),
        ("model.evaluate_fast_us", mean(&summary.evaluate_fast_us)),
        ("energy.evaluate_lowered_us", mean(&summary.energy_us)),
        ("path.dse_us", dse_us),
        ("path.mapper_us", mapper_us),
        ("path.total_us", dse_us + mapper_us),
        ("path.untraced_us", untraced_us),
        ("path.request_us", traced_wall * 1e6 / attempted as f64),
        ("path.coverage", ratio(dse_us + mapper_us, untraced_us)),
        (
            "trace.overhead_pct",
            ratio(traced_wall - untraced_wall, untraced_wall) * 100.0,
        ),
        ("trace.spans", tracer.len() as f64),
        ("run.ops", attempted as f64),
        ("run.nproc", metrics::nproc() as f64),
    ] {
        layers.insert(name, value);
    }
    failed += crate::validate::accuracy_into(&mut layers);
    metrics::warn_coverage(&layers);
    tracer
        .write(
            &trace_path(&args.workload, args.seed),
            &metrics::stamp(args, attempted),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(Report::per_layer(attempted, failed, &layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(latency: f64) -> DsePoint {
        let design = &enumerate_designs(&MemoryPool::default(), &[16], 128)[0];
        DsePoint {
            params: design.params,
            latency,
            area_mm2: 1.5,
            utilization: 0.5,
            ss_overall: 10.0,
        }
    }

    #[test]
    fn a_perturbed_point_is_counted_as_failed() {
        let points = vec![Some(point(1000.0)), None, Some(point(900.0))];
        let failures = |points: &[Option<DsePoint>], reference| {
            let feasible: Vec<DsePoint> = points.iter().flatten().cloned().collect();
            regime_failures(points, &pareto_front(&feasible), reference)
        };
        let feasible: Vec<DsePoint> = points.iter().flatten().cloned().collect();
        let reference = regime_digest(&points, &pareto_front(&feasible));
        assert_eq!(failures(&points, reference), 0);

        // One ulp on one latency changes the digest: every design of the
        // regime counts as failed.
        let mut perturbed = points.clone();
        if let Some(p) = perturbed[2].as_mut() {
            p.latency = f64::from_bits(p.latency.to_bits() + 1);
        }
        assert_eq!(failures(&perturbed, reference), 3);

        // A design that silently became infeasible is caught too.
        let mut dropped = points.clone();
        dropped[0] = None;
        assert_eq!(failures(&dropped, reference), 3);
    }

    #[test]
    fn the_seed_permutes_but_keeps_every_design() {
        let a = orders(1);
        let b = orders(2);
        assert_ne!(a[0], b[0]);
        let mut sorted = a[0].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1350).collect::<Vec<_>>());
        assert_eq!(orders(1)[2], a[2]);
    }
}
