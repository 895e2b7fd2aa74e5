//! CI perf smoke: on the Fig. 8 case-study workload, the batched search
//! must find the same best mapping, bit for bit, as the reference walk
//! through `Mapper::evaluate_ordering` over the same ordering-class walk,
//! and must be at least 1.5x faster, for the latency and the energy
//! objective. Exits nonzero on a regression, so `scripts/ci.sh` can gate
//! on it; the threshold is deliberately loose to stay robust on slow or
//! loaded machines while still catching a batched path that has degraded
//! to reference speed.

use std::time::Instant;
use ulm::mapper::enumerate::{self, OrderingWalk};
use ulm::mapper::factorize::Factor;
use ulm::model::OrderingClasses;
use ulm::prelude::*;

/// The reference walk: every ordering the class walk visits, evaluated
/// through the report path, first strictly better.
struct Reference<'m, 'a> {
    classes: OrderingClasses<'a>,
    mapper: &'m Mapper<'a>,
    obj: Objective,
    best: Option<EvaluatedMapping>,
    walked: usize,
}

impl OrderingWalk for Reference<'_, '_> {
    fn enter(&mut self, depth: usize, factor: Factor) -> bool {
        self.classes.enter(depth, factor)
    }

    fn visit(&mut self, ordering: &[Factor]) -> bool {
        self.walked += 1;
        if let Some(em) = self.mapper.evaluate_ordering(ordering) {
            let better = self
                .best
                .as_ref()
                .map(|b| em.score(self.obj) < b.score(self.obj))
                .unwrap_or(true);
            if better {
                self.best = Some(em);
            }
        }
        true
    }
}

/// Best of two runs of `f`, to shrink scheduler noise.
fn best_of_two<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best_secs = f64::INFINITY;
    let mut result = None;
    for _ in 0..2 {
        let t = Instant::now();
        result = Some(f());
        best_secs = best_secs.min(t.elapsed().as_secs_f64());
    }
    (result.expect("ran twice"), best_secs)
}

fn main() {
    let arch = presets::case_study_chip(128);
    let layer = Layer::matmul("fig8-dse", 64, 96, 640, Precision::int8_out24());
    let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
    let mapper = Mapper::new(&arch, &layer, spatial.clone()).with_options(MapperOptions {
        max_exhaustive: 1_000_000,
        ..MapperOptions::default()
    });
    let factors = mapper.factors();

    let mut failures = Vec::new();
    for obj in [Objective::Latency, Objective::Energy] {
        let (batched, batched_secs) = best_of_two(|| mapper.search(obj).expect("search succeeds"));
        let (reference, reference_secs) = best_of_two(|| {
            let mut walk = Reference {
                classes: OrderingClasses::new(&arch, &layer, &spatial, &factors),
                mapper: &mapper,
                obj,
                best: None,
                walked: 0,
            };
            enumerate::walk_orderings(&factors, &mut walk);
            walk
        });
        let want = reference.best.expect("legal mappings exist");
        let orderings = reference.walked as f64;
        let speedup = reference_secs / batched_secs;
        println!(
            "{obj:?}: reference {:.3}s ({:.0}/s) | batched {:.3}s ({:.0}/s) | speedup {:.2}x",
            reference_secs,
            orderings / reference_secs,
            batched_secs,
            orderings / batched_secs,
            speedup,
        );
        if want.mapping != batched.best.mapping {
            failures.push(format!("{obj:?}: best mapping diverged from the reference"));
        }
        if want.score(obj).to_bits() != batched.best.score(obj).to_bits() {
            failures.push(format!(
                "{obj:?}: score bits diverged: reference {} vs batched {}",
                want.score(obj),
                batched.best.score(obj)
            ));
        }
        if reference.walked != batched.stats.generated {
            failures.push(format!(
                "{obj:?}: walked {} orderings, the search generated {}",
                reference.walked, batched.stats.generated
            ));
        }
        if speedup < 1.5 {
            failures.push(format!(
                "{obj:?}: batched search only {speedup:.2}x the reference walk (want >= 1.5x)"
            ));
        }
    }
    if failures.is_empty() {
        println!("batch perf smoke OK");
    } else {
        for f in &failures {
            eprintln!("batch perf smoke FAILED: {f}");
        }
        std::process::exit(1);
    }
}
