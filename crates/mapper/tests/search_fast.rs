//! `Mapper::search_fast` is `Mapper::search` without the winner's
//! report: the same winning ordering and mapping, the same counters, and
//! score and latency scalars bit-identical to the report's. Random
//! matmul and conv layers on five presets, all three objectives,
//! exhaustive and sampled spaces.
//!
//! Also pins the search-space memo: searches with equal sampler inputs
//! share one space, and changing any of them does not.

use proptest::prelude::*;
use std::sync::Arc;
use ulm_arch::{presets, Architecture};
use ulm_mapper::{Mapper, MapperOptions, Objective};
use ulm_mapping::SpatialUnroll;
use ulm_workload::{Dim, Layer, LayerShape, Precision};

const OBJECTIVES: [Objective; 3] = [Objective::Latency, Objective::Energy, Objective::Edp];

fn preset(idx: usize) -> presets::PresetChip {
    match idx {
        0 => presets::toy_chip(),
        1 => presets::validation_chip(),
        2 => presets::scaled_case_study_chip(16, 128),
        3 => presets::tpu_like_chip(16),
        _ => presets::fusion_chip(),
    }
}

/// Compares `search_fast` with `search` for every objective.
fn check(
    arch: &Architecture,
    spatial: &SpatialUnroll,
    layer: &Layer,
    opts: MapperOptions,
) -> Result<(), TestCaseError> {
    let mapper = Mapper::new(arch, layer, spatial.clone()).with_options(opts);
    for obj in OBJECTIVES {
        let ctx = format!("{} on {}, {obj:?}", layer.name(), arch.name());
        match (mapper.search(obj), mapper.search_fast(obj)) {
            (Err(full), Err(fast)) => prop_assert_eq!(full, fast, "{}", ctx),
            (Ok(full), Ok(fast)) => {
                let ordering: Vec<(Dim, u64)> = full
                    .best
                    .mapping
                    .stack()
                    .loops()
                    .iter()
                    .map(|l| (l.dim, l.size))
                    .collect();
                prop_assert_eq!(&ordering, &fast.ordering, "{}", ctx);
                let mapping = mapper.mapping(&fast.ordering);
                prop_assert_eq!(mapping.as_ref(), Some(&full.best.mapping), "{}", ctx);
                let (want, got) = (&full.best.latency, &fast.latency);
                prop_assert_eq!(want.cc_total.to_bits(), got.cc_total.to_bits(), "{}", ctx);
                prop_assert_eq!(
                    want.utilization.to_bits(),
                    got.utilization.to_bits(),
                    "{}",
                    ctx
                );
                prop_assert_eq!(
                    want.ss_overall.to_bits(),
                    got.ss_overall.to_bits(),
                    "{}",
                    ctx
                );
                prop_assert_eq!(
                    full.best.score(obj).to_bits(),
                    fast.score.to_bits(),
                    "{}",
                    ctx
                );
                prop_assert_eq!(full.stats, fast.stats, "{}", ctx);
                prop_assert_eq!(full.space_size, fast.space_size, "{}", ctx);
                prop_assert_eq!(full.exhaustive, fast.exhaustive, "{}", ctx);
            }
            (full, fast) => {
                return Err(TestCaseError::fail(format!(
                    "{ctx}: search {} but search_fast {}",
                    if full.is_ok() { "succeeded" } else { "failed" },
                    if fast.is_ok() { "succeeded" } else { "failed" },
                )));
            }
        }
    }
    Ok(())
}

/// Checks one layer on preset `idx`, on an exhaustive or (through a small
/// `max_exhaustive`) a sampled space.
fn check_preset(
    idx: usize,
    layer: &Layer,
    sampled: bool,
    bw_aware: bool,
) -> Result<(), TestCaseError> {
    let chip = preset(idx);
    let opts = MapperOptions {
        max_exhaustive: if sampled { 12 } else { 3_000 },
        samples: 40,
        bw_aware,
        ..MapperOptions::default()
    };
    check(
        &chip.arch,
        &SpatialUnroll::new(chip.spatial.clone()),
        layer,
        opts,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn search_fast_matches_search_on_matmuls(
        idx in 0usize..5,
        b in 1u64..=24,
        k in 1u64..=24,
        c in 1u64..=32,
        sampled in any::<bool>(),
        bw_aware in any::<bool>(),
    ) {
        let layer = Layer::matmul(format!("mm({b},{k},{c})"), b, k, c, Precision::int8_acc24());
        check_preset(idx, &layer, sampled, bw_aware)?;
    }

    #[test]
    fn search_fast_matches_search_on_convs(
        idx in 0usize..5,
        k in 1u64..=8,
        c in 1u64..=8,
        oy in 2u64..=6,
        f in 1u64..=3,
        sampled in any::<bool>(),
        bw_aware in any::<bool>(),
    ) {
        let layer = Layer::conv2d(
            format!("conv({k},{c},{oy},{f})"),
            LayerShape::conv(1, k, c, oy, oy, f, f),
            Precision::int8_acc24(),
        );
        check_preset(idx, &layer, sampled, bw_aware)?;
    }
}

/// A case-study layer whose EDP winner is not its latency winner, so the
/// kernel must keep the scalars of the lane that won on EDP score, not on
/// latency.
#[test]
fn edp_winner_scalars_come_from_the_edp_winner() {
    let chip = presets::case_study_chip(128);
    let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
    let layer = Layer::matmul("parting", 32, 48, 640, Precision::int8_out24());
    for max_exhaustive in [100, 3_000] {
        let opts = MapperOptions {
            max_exhaustive,
            samples: 60,
            ..MapperOptions::default()
        };
        check(&chip, &spatial, &layer, opts).unwrap();
    }
    let mapper = Mapper::new(&chip, &layer, spatial).with_options(MapperOptions {
        max_exhaustive: 3_000,
        ..MapperOptions::default()
    });
    let edp = mapper.search_fast(Objective::Edp).unwrap();
    let latency = mapper.search_fast(Objective::Latency).unwrap();
    assert!(edp.latency.cc_total > latency.latency.cc_total);
}

#[test]
fn equal_sampler_inputs_share_one_space() {
    let layer = Layer::matmul("memo", 64, 96, 640, Precision::int8_out24());
    let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
    let opts = MapperOptions {
        max_exhaustive: 100,
        samples: 30,
        ..MapperOptions::default()
    };
    let chip_128 = presets::case_study_chip(128);
    let chip_1024 = presets::case_study_chip(1024);
    let space = |chip: &ulm_arch::Architecture, spatial: &SpatialUnroll, opts| {
        Mapper::new(chip, &layer, spatial.clone())
            .with_options(opts)
            .space()
    };
    let first = space(&chip_128, &spatial, opts);
    assert!(!first.exhaustive());
    assert_eq!(first.candidate_count(), 6 + 30);

    // Another design with the same factor multiset, and a model switch
    // the sampler never reads, share it.
    assert!(Arc::ptr_eq(&first, &space(&chip_1024, &spatial, opts)));
    let unaware = MapperOptions {
        bw_aware: false,
        ..opts
    };
    assert!(Arc::ptr_eq(&first, &space(&chip_128, &spatial, unaware)));

    // Each sampler input, and a spatial unroll that changes the factor
    // multiset, gets a space of its own.
    let changed = [
        MapperOptions {
            seed: opts.seed + 1,
            ..opts
        },
        MapperOptions {
            samples: opts.samples + 1,
            ..opts
        },
        MapperOptions {
            max_exhaustive: opts.max_exhaustive + 1,
            ..opts
        },
    ];
    for other in changed {
        let s = space(&chip_128, &spatial, other);
        assert!(!Arc::ptr_eq(&first, &s), "{other:?}");
        assert!(Arc::ptr_eq(&s, &space(&chip_128, &spatial, other)));
    }
    let wider = SpatialUnroll::new(vec![(Dim::K, 32), (Dim::B, 8)]);
    let s = space(&chip_128, &wider, opts);
    assert_ne!(s.factors(), first.factors());
    assert!(!Arc::ptr_eq(&first, &s));

    // A search walks the memoized space, which is still there after.
    let mapper = Mapper::new(&chip_128, &layer, spatial.clone()).with_options(opts);
    let found = mapper.search_fast(Objective::Latency).unwrap();
    assert_eq!(found.stats.generated, first.candidate_count());
    assert!(Arc::ptr_eq(&first, &mapper.space()));
}
