//! Quick phase-level timing of the mapper hot path (dev aid, not a bench).

use std::time::Instant;
use ulm::mapper::enumerate;
use ulm::prelude::*;

fn main() {
    let arch = presets::case_study_chip(128);
    let layer = Layer::matmul("fig8-dse", 64, 96, 640, Precision::int8_out24());
    let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
    let opts = MapperOptions {
        max_exhaustive: 1_000_000,
        ..MapperOptions::default()
    };
    let mapper = Mapper::new(&arch, &layer, spatial.clone()).with_options(opts);
    let factors = mapper.factors();
    println!("space = {}", mapper.space_size());

    // Full search timing, per objective.
    for obj in [Objective::Latency, Objective::Energy, Objective::Edp] {
        let t = Instant::now();
        let r = mapper.search(obj).unwrap();
        let full = t.elapsed().as_secs_f64();
        println!(
            "search[{obj:?}]: {:.3}s ({:.0}/s), evaluated {}, pruned {}",
            full,
            r.stats.generated as f64 / full,
            r.stats.evaluated,
            r.stats.pruned
        );
    }
    let r = mapper.search(Objective::Latency).unwrap();

    // Batch kernel with real incumbent threading: split push vs drain time.
    {
        use ulm::model::{BatchKernel, LaneObjective, LaneOutcome};
        let model = LatencyModel::new();
        let mut kernel = BatchKernel::new(
            &arch,
            &layer,
            &spatial,
            model,
            &factors,
            64,
            LaneObjective::Latency,
        );
        let mut push_t = 0.0f64;
        let mut drain_t = 0.0f64;
        let mut inc: Option<f64> = None;
        let mut evaluated = 0u64;
        let t0 = Instant::now();
        let mut drain = |k: &mut BatchKernel, inc: &mut Option<f64>, evaluated: &mut u64| {
            let t = Instant::now();
            k.drain(*inc, |_, outcome| {
                if let LaneOutcome::Scored(s) = outcome {
                    *evaluated += 1;
                    if inc.map(|b| s < b).unwrap_or(true) {
                        *inc = Some(s);
                    }
                }
                *inc
            });
            drain_t += t.elapsed().as_secs_f64();
        };
        enumerate::for_each_ordering(&factors, |o| {
            if kernel.is_full() {
                drain(&mut kernel, &mut inc, &mut evaluated);
            }
            let t = Instant::now();
            kernel.push(o);
            push_t += t.elapsed().as_secs_f64();
            true
        });
        drain(&mut kernel, &mut inc, &mut evaluated);
        let total = t0.elapsed().as_secs_f64();
        println!(
            "kernel split: total {:.3}s, push {:.3}s, drain {:.3}s, evaluated {evaluated}, best {:?}",
            total, push_t, drain_t, inc
        );
    }

    // Batch kernel: push + bounds only (incumbent 0.0 prunes everything).
    {
        use ulm::model::{BatchKernel, LaneObjective};
        let model = LatencyModel::new();
        let mut kernel = BatchKernel::new(
            &arch,
            &layer,
            &spatial,
            model,
            &factors,
            64,
            LaneObjective::Latency,
        );
        let t = Instant::now();
        let mut pruned = 0u64;
        enumerate::for_each_ordering(&factors, |o| {
            if kernel.is_full() {
                kernel.drain(Some(0.0), |_, _| {
                    pruned += 1;
                    Some(0.0)
                });
            }
            kernel.push(o);
            true
        });
        kernel.drain(Some(0.0), |_, _| {
            pruned += 1;
            Some(0.0)
        });
        let dt = t.elapsed().as_secs_f64();
        println!(
            "kernel push+bounds: {:.3}s ({:.0}/s) [{pruned}]",
            dt,
            110880.0 / dt
        );
    }

    // Pure enumeration cost.
    let t = Instant::now();
    let mut n = 0u64;
    enumerate::for_each_ordering(&factors, |o| {
        n += std::hint::black_box(o.len() as u64);
        true
    });
    println!("enumerate only: {:.3}s ({n})", t.elapsed().as_secs_f64());

    // evaluate_fast on the winner, repeated.
    let view = MappedLayer::new(&layer, &arch, &r.best.mapping).unwrap();
    let model = LatencyModel::new();
    let mut ms = ModelScratch::default();
    let iters = 200_000u64;
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..iters {
        acc ^= model.evaluate_fast(&view, &mut ms).cc_total.to_bits();
    }
    let dt = t.elapsed().as_secs_f64();
    println!(
        "evaluate_fast: {:.0}/s ({:.2}us each) [{acc:x}]",
        iters as f64 / dt,
        dt / iters as f64 * 1e6
    );
}
