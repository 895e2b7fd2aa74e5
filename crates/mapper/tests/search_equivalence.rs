//! Property tests: the optimized search (batched kernel,
//! branch-and-bound pruning, prefix memoization) returns the
//! byte-identical best mapping — same latency bits, same ordering, same
//! first-strictly-better tie-break — as the naive exhaustive/sampled
//! search it replaced.

use proptest::prelude::*;
use ulm_arch::presets;
use ulm_mapper::{
    enumerate, factorize::Factor, EvaluatedMapping, Mapper, MapperOptions, Objective,
};
use ulm_mapping::SpatialUnroll;
use ulm_workload::{Layer, Precision};

/// The pre-optimization search semantics, reimplemented verbatim: list
/// the candidate orderings (full enumeration within `max_exhaustive`,
/// else stationary seeds + uniform samples), evaluate each with the slow
/// per-ordering path, keep the first strictly better score.
fn reference_search(
    mapper: &Mapper<'_>,
    opts: &MapperOptions,
    obj: Objective,
) -> Option<EvaluatedMapping> {
    let factors = mapper.factors();
    let candidates: Vec<Vec<Factor>> = if mapper.space_size() <= opts.max_exhaustive {
        let mut all = Vec::new();
        enumerate::for_each_ordering(&factors, |o| {
            all.push(o.to_vec());
            true
        });
        all
    } else {
        let mut c = enumerate::seeded_orderings(&factors);
        c.extend(enumerate::sample_orderings(
            &factors,
            opts.samples,
            opts.seed,
        ));
        c
    };
    let mut best: Option<EvaluatedMapping> = None;
    for ordering in &candidates {
        if let Some(em) = mapper.evaluate_ordering(ordering) {
            let better = best
                .as_ref()
                .map(|b| em.score(obj) < b.score(obj))
                .unwrap_or(true);
            if better {
                best = Some(em);
            }
        }
    }
    best
}

fn check_case(b: u64, k: u64, c: u64, obj: Objective, bw_aware: bool) -> Result<(), TestCaseError> {
    let chip = presets::toy_chip();
    let layer = Layer::matmul(format!("({b},{k},{c})"), b, k, c, Precision::int8_acc24());
    let opts = MapperOptions {
        max_exhaustive: 3_000,
        samples: 40,
        bw_aware,
        ..MapperOptions::default()
    };
    let mapper = Mapper::new(&chip.arch, &layer, SpatialUnroll::new(chip.spatial.clone()))
        .with_options(opts);
    let reference = reference_search(&mapper, &opts, obj);
    match (&reference, mapper.search(obj)) {
        (None, Err(_)) => {}
        (Some(want), Ok(got)) => {
            prop_assert_eq!(&want.mapping, &got.best.mapping, "different best mapping");
            prop_assert_eq!(
                want.score(obj).to_bits(),
                got.best.score(obj).to_bits(),
                "score bits diverged"
            );
            prop_assert_eq!(
                want.latency.cc_total.to_bits(),
                got.best.latency.cc_total.to_bits()
            );
            // Every candidate is accounted for: scored, pruned, or
            // illegal.
            prop_assert!(got.stats.evaluated + got.stats.pruned <= got.stats.generated);
        }
        (want, got) => {
            return Err(TestCaseError::fail(format!(
                "reference {} but search {}",
                if want.is_some() {
                    "found a mapping"
                } else {
                    "found nothing"
                },
                if got.is_ok() { "succeeded" } else { "failed" },
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Latency search (the pruned path) is exactly equivalent to the
    /// naive search.
    #[test]
    fn pruned_parallel_latency_search_matches_reference(
        b in 1u64..=24,
        k in 1u64..=24,
        c in 1u64..=32,
        bw_aware in any::<bool>(),
    ) {
        check_case(b, k, c, Objective::Latency, bw_aware)?;
    }

    /// Energy and EDP searches (no pruning) are also exactly equivalent.
    #[test]
    fn energy_and_edp_search_match_reference(
        b in 1u64..=16,
        k in 1u64..=16,
        c in 1u64..=16,
    ) {
        check_case(b, k, c, Objective::Energy, true)?;
        check_case(b, k, c, Objective::Edp, true)?;
    }
}
