//! `NetworkEvaluator` searches each distinct layer shape once and lowers
//! every layer with its own residency pins. These properties pin that
//! sharing against a plain per-layer oracle — search, view, pinned
//! lowering, latency and energy for every layer on its own — so sharing
//! a search can never change a layer's answer.

use proptest::prelude::*;
use ulm_arch::{presets, Architecture};
use ulm_energy::EnergyModel;
use ulm_mapper::{Mapper, MapperError, MapperOptions, Objective};
use ulm_mapping::{FusedSegment, MappedLayer, Mapping, SpatialUnroll};
use ulm_model::{LatencyModel, LatencyReport, LoweredLayer, ResidencyPins};
use ulm_network::{NetworkError, NetworkEvaluator, NetworkReport};
use ulm_workload::{Dim, Layer, Operand, Precision};

fn opts() -> MapperOptions {
    MapperOptions {
        max_exhaustive: 300,
        samples: 30,
        ..MapperOptions::default()
    }
}

fn evaluator<'a>(arch: &'a Architecture, spatial: &SpatialUnroll) -> NetworkEvaluator<'a> {
    NetworkEvaluator::new(arch, spatial.clone()).with_mapper_options(opts())
}

/// One layer searched, lowered with `pins` and evaluated alone.
fn oracle(
    arch: &Architecture,
    spatial: &SpatialUnroll,
    layer: &Layer,
    pins: ResidencyPins,
) -> Result<(Mapping, LatencyReport, f64), MapperError> {
    let mapping = Mapper::new(arch, layer, spatial.clone())
        .with_options(opts())
        .search(Objective::Latency)?
        .best
        .mapping;
    let view = MappedLayer::new(layer, arch, &mapping).expect("search returns legal mappings");
    let model = LatencyModel::new();
    let lowered = LoweredLayer::build_pinned(&view, model.dtl_options(), pins);
    let latency = model.evaluate_lowered(&view, &lowered);
    let energy = EnergyModel::new().evaluate_lowered(&view, &lowered);
    Ok((mapping, latency, energy.total_fj))
}

/// Every layer of `report` is bit-equal to its oracle.
fn assert_matches_oracle(
    report: &NetworkReport,
    oracles: &[(Mapping, LatencyReport, f64)],
    context: &str,
) {
    assert_eq!(report.layers.len(), oracles.len(), "{context}");
    for (got, (mapping, latency, fj)) in report.layers.iter().zip(oracles) {
        assert_eq!(&got.mapping, mapping, "{context}: {}", got.name);
        assert_eq!(&got.latency, latency, "{context}: {}", got.name);
        assert_eq!(
            got.energy.total_fj.to_bits(),
            fj.to_bits(),
            "{context}: {}",
            got.name
        );
    }
}

/// Matmul shapes `(B, K, C)` small enough to search quickly; drawn from
/// a pool of three, so most sequences repeat a shape.
const POOL: [(u64, u64, u64); 3] = [(64, 64, 128), (64, 32, 128), (32, 64, 64)];

/// A layer from the pool with a random name. Variant 1 changes only its
/// precision, variant 2 only its KV-cache flags: neither may share a
/// search with the plain twin.
fn arb_layer() -> impl Strategy<Value = Layer> {
    (0..POOL.len(), 0u8..3, 0u32..100).prop_map(|(shape, variant, tag)| {
        let (b, k, c) = POOL[shape];
        let name = format!("l{tag}");
        match variant {
            0 => Layer::matmul(name, b, k, c, Precision::int8_acc24()),
            1 => Layer::matmul(name, b, k, c, Precision::uniform(8)),
            _ => Layer::matmul(name, b, k, c, Precision::int8_acc24()).with_kv_cache(Operand::W),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared searches give every layer exactly its oracle's mapping,
    /// latency and energy.
    #[test]
    fn shared_searches_match_the_per_layer_oracle(
        layers in proptest::collection::vec(arb_layer(), 1..7)
    ) {
        let arch = presets::case_study_chip(128);
        let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
        let oracles: Result<Vec<_>, _> = layers
            .iter()
            .map(|l| oracle(&arch, &spatial, l, [None; 3]))
            .collect();
        match (&oracles, evaluator(&arch, &spatial).evaluate(&layers)) {
            (Ok(oracles), Ok(report)) => assert_matches_oracle(&report, oracles, "shared"),
            (Err(_), Err(NetworkError::LayerUnmappable { layer, .. })) => {
                let first = layers
                    .iter()
                    .find(|l| oracle(&arch, &spatial, l, [None; 3]).is_err())
                    .expect("some layer failed");
                prop_assert_eq!(layer, first.name().to_string());
            }
            (want, got) => panic!("oracle {want:?} but evaluator {got:?}"),
        }
    }
}

/// Two layers of one shape under different fusion pins share a search but
/// are each lowered with their own pins.
#[test]
fn same_shape_layers_keep_their_own_fusion_pins() {
    let chip = presets::fusion_chip();
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let layers = vec![
        Layer::matmul("a", 4, 8, 8, Precision::int8_acc24()),
        Layer::matmul("b", 4, 8, 8, Precision::int8_acc24()),
    ];
    assert!(layers[0].same_workload(&layers[1]));
    let seg = FusedSegment::new(vec!["a".into(), "b".into()], "LB");
    let residency = seg.residency(&chip.arch, &layers).unwrap();
    assert_ne!(residency.pins_for(0), residency.pins_for(1));
    let oracles: Vec<_> = layers
        .iter()
        .enumerate()
        .map(|(idx, l)| oracle(&chip.arch, &spatial, l, residency.pins_for(idx)).unwrap())
        .collect();
    // The producer skips its output writeback, the consumer its input
    // refill: the same mapping, two different answers.
    assert_eq!(oracles[0].0, oracles[1].0);
    assert_ne!(oracles[0].1, oracles[1].1);
    let report = evaluator(&chip.arch, &spatial)
        .with_fusion(vec![seg])
        .evaluate(&layers)
        .unwrap();
    assert_matches_oracle(&report, &oracles, "fused");
}
