//! The batched SoA kernel is a drop-in replacement for the scalar
//! search: at every lane count — including widths that do not divide the
//! space and the degenerate single lane — the full [`SearchResult`] is
//! bit-identical to the scalar (`batch_lanes = 1`) path: same best
//! mapping, same score bits, same generated/evaluated/pruned/prefix
//! counters. Random matmul (optionally with KV-cache resident weights)
//! and conv workloads on every matmul-capable preset, the attention
//! decode network's KV-cache layers, roofline pruning on and off. The
//! presets cover shared ports, double-buffered lower levels and chains
//! whose top interface a KV-cache operand never crosses — the places
//! where the kernel's folded link constants and lane rows could part
//! from the lowering.

use proptest::prelude::*;
use ulm::prelude::*;

const LANE_COUNTS: [usize; 4] = [7, 8, 9, 64];

/// The matmul-capable built-in presets, drawn as in
/// `tests/surrogate_props.rs`.
fn preset(idx: usize) -> ulm::arch::presets::PresetChip {
    match idx {
        0 => presets::toy_chip(),
        1 => presets::validation_chip(),
        2 => presets::scaled_case_study_chip(16, 128),
        3 => presets::tpu_like_chip(16),
        _ => presets::fusion_chip(),
    }
}

fn check_layer(idx: usize, layer: &Layer, bw_aware: bool) -> Result<(), TestCaseError> {
    let chip = preset(idx);
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let opts = MapperOptions {
        max_exhaustive: 5_000,
        samples: 32,
        bw_aware,
        ..MapperOptions::default()
    };
    let search = |lanes: usize| -> Option<SearchResult> {
        Mapper::new(&chip.arch, layer, spatial.clone())
            .with_options(opts)
            .with_batch_lanes(Some(lanes))
            .search(Objective::Latency)
            .ok()
    };
    let scalar = search(1);
    for lanes in LANE_COUNTS {
        let batched = search(lanes);
        match (&scalar, batched) {
            (None, None) => {}
            (Some(want), Some(got)) => {
                prop_assert_eq!(
                    &want.best.mapping,
                    &got.best.mapping,
                    "preset {} lanes {}: best mapping diverged",
                    idx,
                    lanes
                );
                prop_assert_eq!(
                    want.best.latency.cc_total.to_bits(),
                    got.best.latency.cc_total.to_bits(),
                    "lanes {}: cc_total bits diverged",
                    lanes
                );
                prop_assert_eq!(
                    want.best.score(Objective::Latency).to_bits(),
                    got.best.score(Objective::Latency).to_bits(),
                    "lanes {}: score bits diverged",
                    lanes
                );
                // The counters replay the scalar sequence exactly: the
                // same orderings are generated, pruned against the same
                // incumbent trajectory, and share the same prefixes.
                prop_assert_eq!(want.stats.generated, got.stats.generated);
                prop_assert_eq!(
                    want.stats.evaluated,
                    got.stats.evaluated,
                    "lanes {}: evaluated count diverged",
                    lanes
                );
                prop_assert_eq!(
                    want.stats.pruned,
                    got.stats.pruned,
                    "lanes {}: pruned count diverged",
                    lanes
                );
                prop_assert_eq!(want.stats.cache_hits, got.stats.cache_hits);
                prop_assert_eq!(want.space_size, got.space_size);
                prop_assert_eq!(want.exhaustive, got.exhaustive);
                prop_assert_eq!(got.stats.batch_lanes, lanes);
            }
            (want, got) => {
                return Err(TestCaseError::fail(format!(
                    "preset {idx} lanes {lanes}: scalar {} a result but batched {}",
                    if want.is_some() {
                        "found"
                    } else {
                        "did not find"
                    },
                    if got.is_some() { "did" } else { "did not" },
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matmul workloads: every lane width replays the scalar search bit
    /// for bit, with and without the roofline prune, with and without
    /// KV-cache resident weights.
    #[test]
    fn batched_matmul_search_is_bit_identical(
        idx in 0usize..5,
        b in 1u64..=24,
        k in 1u64..=24,
        c in 1u64..=32,
        kv in any::<bool>(),
        bw_aware in any::<bool>(),
    ) {
        let mut layer = Layer::matmul(
            format!("bm({b},{k},{c})"),
            b, k, c,
            Precision::int8_acc24(),
        );
        if kv {
            layer = layer.with_kv_cache(Operand::W);
        }
        check_layer(idx, &layer, bw_aware)?;
    }

    /// Conv workloads exercise the non-multiplicative input-halo word
    /// accounting (the `prefix_ext` fallback in the kernel).
    #[test]
    fn batched_conv_search_is_bit_identical(
        idx in 0usize..5,
        k in 1u64..=8,
        c in 1u64..=8,
        oy in 2u64..=6,
        f in 1u64..=3,
        bw_aware in any::<bool>(),
    ) {
        let shape = LayerShape::conv(1, k, c, oy, oy, f, f);
        let layer = Layer::conv2d(
            format!("bc({k},{c},{oy},{f})"),
            shape,
            Precision::int8_acc24(),
        );
        check_layer(idx, &layer, bw_aware)?;
    }
}

/// The attention decode network on every preset: its logit and attend
/// layers read KV-cache resident weights, whose top interface carries no
/// traffic (`active < chain.len() - 1`).
#[test]
fn attention_decode_kv_layers_are_bit_identical() {
    let layers = ulm::workload::networks::attention_decode();
    assert!(layers.iter().any(|l| l.is_kv_cache(Operand::W)));
    for idx in 0..5 {
        for layer in &layers {
            for bw_aware in [true, false] {
                check_layer(idx, layer, bw_aware).unwrap();
            }
        }
    }
}

/// One deterministic anchor on the Fig. 8 case-study geometry, so the
/// equivalence gate in CI exercises the exact workload the performance
/// claims are made on (scaled down to keep the test quick).
#[test]
fn fig8_style_case_is_bit_identical_at_every_lane_count() {
    let arch = ulm::arch::presets::case_study_chip(128);
    let layer = Layer::matmul("fig8-small", 16, 24, 160, Precision::int8_out24());
    let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
    let opts = MapperOptions {
        max_exhaustive: 200_000,
        ..MapperOptions::default()
    };
    let search = |lanes: usize| {
        Mapper::new(&arch, &layer, spatial.clone())
            .with_options(opts)
            .with_batch_lanes(Some(lanes))
            .search(Objective::Latency)
            .expect("search succeeds")
    };
    let scalar = search(1);
    for lanes in LANE_COUNTS {
        let got = search(lanes);
        assert_eq!(scalar.best.mapping, got.best.mapping, "lanes {lanes}");
        assert_eq!(
            scalar.best.latency.cc_total.to_bits(),
            got.best.latency.cc_total.to_bits(),
            "lanes {lanes}"
        );
        assert_eq!(scalar.stats.evaluated, got.stats.evaluated, "lanes {lanes}");
        assert_eq!(scalar.stats.pruned, got.stats.pruned, "lanes {lanes}");
    }
}
