//! `Mapper::search_fast` is `Mapper::search` without the winner's
//! report: the same winning ordering and mapping, the same counters, and
//! score and latency scalars bit-identical to the report's. Random
//! matmul and conv layers on five presets, all three objectives,
//! exhaustive and sampled spaces.
//!
//! Also pins the search-space memo: searches with equal sampler inputs
//! share one space, and changing any of them does not; and the fold
//! store: a search that reads a folded sampled space, on the design that
//! folded it or on one with other capacities or bandwidths, returns what
//! a fresh thread's unfolded search returns.

use proptest::prelude::*;
use std::sync::Arc;
use ulm_arch::{presets, Architecture};
use ulm_mapper::{FastSearch, Mapper, MapperError, MapperOptions, Objective};
use ulm_mapping::SpatialUnroll;
use ulm_model::apply_overrides;
use ulm_workload::{Dim, Layer, LayerShape, Operand, Precision};

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

/// `mapper`'s `obj` search on a thread of its own, so with empty space
/// and fold stores: the unfolded reference.
fn fresh(mapper: &Mapper<'_>, obj: Objective) -> Result<FastSearch, MapperError> {
    std::thread::scope(|s| {
        s.spawn(|| mapper.search_fast(obj))
            .join()
            .expect("search thread")
    })
}

/// Equal as a search result: the ordering, the score and latency bits,
/// and all four counters.
fn same_search(
    got: &Result<FastSearch, MapperError>,
    want: &Result<FastSearch, MapperError>,
    ctx: &str,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(&got.ordering, &want.ordering, "{}", ctx);
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits(), "{}", ctx);
            let bits = |f: &FastSearch| {
                [
                    f.latency.cc_total.to_bits(),
                    f.latency.utilization.to_bits(),
                    f.latency.ss_overall.to_bits(),
                ]
            };
            prop_assert_eq!(bits(got), bits(want), "{}", ctx);
            prop_assert_eq!(got.stats, want.stats, "{}", ctx);
            prop_assert_eq!(got.space_size, want.space_size, "{}", ctx);
            prop_assert_eq!(got.exhaustive, want.exhaustive, "{}", ctx);
        }
        (got, want) => prop_assert_eq!(got.as_ref().err(), want.as_ref().err(), "{}", ctx),
    }
    Ok(())
}

/// On one thread: a sampled space's first search (which records the
/// context), its second (which folds it), a third (which reads the fold)
/// and a search on `variant`, an architecture that differs only in
/// capacities or port bandwidths (which reads the same fold); each must
/// equal a fresh thread's search of the same inputs.
fn check_folds(
    arch: &Architecture,
    variant: &Architecture,
    spatial: &SpatialUnroll,
    layer: &Layer,
    opts: MapperOptions,
) -> Result<(), TestCaseError> {
    let base = Mapper::new(arch, layer, spatial.clone()).with_options(opts);
    let other = Mapper::new(variant, layer, spatial.clone()).with_options(opts);
    for obj in OBJECTIVES {
        let (want, want_other) = (fresh(&base, obj), fresh(&other, obj));
        let runs = std::thread::scope(|s| {
            s.spawn(|| {
                let first = base.search_fast(obj);
                let second = base.search_fast(obj);
                let third = base.search_fast(obj);
                (first, second, third, other.search_fast(obj))
            })
            .join()
            .expect("search thread")
        });
        let ctx = format!("{} on {}, {obj:?}", layer.name(), arch.name());
        same_search(&runs.0, &want, &format!("{ctx}: first search"))?;
        same_search(&runs.1, &want, &format!("{ctx}: second search"))?;
        same_search(&runs.2, &want, &format!("{ctx}: third search"))?;
        same_search(
            &runs.3,
            &want_other,
            &format!("{ctx}: resized or rebandwidthed"),
        )?;
    }
    Ok(())
}

/// `chip`'s architecture with memory `mem`'s capacity scaled by `size`
/// and its port bandwidths by `bw` (each `1x` when unchanged).
fn variant(chip: &presets::PresetChip, mem: usize, size: &str, bw: &str) -> Architecture {
    let h = chip.arch.hierarchy();
    let name = h.memories()[mem % h.memories().len()].name().to_string();
    let knobs = [
        format!("mem.{name}.size={size}"),
        format!("mem.{name}.bw={bw}"),
    ];
    apply_overrides(&chip.arch, &knobs)
        .expect("scaling a memory is a valid knob")
        .0
}

/// Sampled options for the fold checks.
fn sampled(bw_aware: bool) -> MapperOptions {
    MapperOptions {
        max_exhaustive: 12,
        samples: 40,
        bw_aware,
        ..MapperOptions::default()
    }
}

const SCALES: [&str; 3] = ["0.5x", "1x", "2x"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn folded_matmul_searches_equal_fresh_ones(
        idx in 0usize..5,
        b in 1u64..=24,
        k in 1u64..=24,
        c in 1u64..=32,
        mem in 0usize..8,
        size in 0usize..3,
        bw in 0usize..3,
        bw_aware in any::<bool>(),
    ) {
        let chip = preset(idx);
        let layer = Layer::matmul(format!("mm({b},{k},{c})"), b, k, c, Precision::int8_acc24());
        let other = variant(&chip, mem, SCALES[size], SCALES[bw]);
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        check_folds(&chip.arch, &other, &spatial, &layer, sampled(bw_aware))?;
    }

    #[test]
    fn folded_conv_searches_equal_fresh_ones(
        idx in 0usize..5,
        k in 1u64..=8,
        c in 1u64..=8,
        oy in 2u64..=6,
        f in 1u64..=3,
        stride in 1u64..=2,
        mem in 0usize..8,
        size in 0usize..3,
        bw in 0usize..3,
        bw_aware in any::<bool>(),
    ) {
        let chip = preset(idx);
        let layer = Layer::conv2d(
            format!("conv({k},{c},{oy},{f})/{stride}"),
            LayerShape::conv(1, k, c, oy, oy, f, f).with_stride(stride, stride),
            Precision::int8_acc24(),
        );
        let other = variant(&chip, mem, SCALES[size], SCALES[bw]);
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        check_folds(&chip.arch, &other, &spatial, &layer, sampled(bw_aware))?;
    }
}

/// Layers with one factor multiset but different workloads never share a
/// fold: on one thread, each layer's searches (the second and third read
/// a fold) equal a fresh thread's, and the strided conv's differ from
/// the unit-stride one's, so a shared fold would show.
#[test]
fn layers_with_one_multiset_never_share_folds() {
    let chip = presets::scaled_case_study_chip(16, 128);
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let opts = sampled(true);
    let shape = LayerShape::conv(1, 16, 16, 8, 8, 3, 3);
    let prec = Precision::int8_acc24();
    let pairs = [
        (
            Layer::conv2d("unit", shape, prec),
            Layer::conv2d("strided", shape.with_stride(2, 2), prec),
        ),
        (
            Layer::matmul("mm", 32, 64, 64, prec),
            Layer::matmul("mm", 32, 64, 64, prec).with_kv_cache(Operand::W),
        ),
    ];
    for (a, b) in &pairs {
        let (ma, mb) = (
            Mapper::new(&chip.arch, a, spatial.clone()).with_options(opts),
            Mapper::new(&chip.arch, b, spatial.clone()).with_options(opts),
        );
        assert_eq!(ma.factors(), mb.factors(), "one multiset");
        assert!(!ma.space().exhaustive());
        let (want_a, want_b) = (
            fresh(&ma, Objective::Latency),
            fresh(&mb, Objective::Latency),
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 0..3 {
                    for (m, want, name) in [(&ma, &want_a, a.name()), (&mb, &want_b, b.name())] {
                        let got = m.search_fast(Objective::Latency);
                        same_search(&got, want, &format!("{name}, search {round}")).unwrap();
                    }
                }
            })
            .join()
            .expect("search thread")
        });
        if a.name() == "unit" {
            let (a, b) = (want_a.unwrap(), want_b.unwrap());
            assert_ne!(
                (a.score.to_bits(), a.stats),
                (b.score.to_bits(), b.stats),
                "the strides must tell the two folds apart"
            );
        }
    }
}
