//! The batched SoA kernel is the one ordering-search engine, for every
//! objective. These tests pin it against the reference walk through
//! [`Mapper::evaluate_ordering`] (the full report path), first strictly
//! better:
//!
//! * the search's best mapping and score bits equal the reference's over
//!   every candidate ordering (every permutation when exhaustive);
//! * its `evaluated`/`pruned` counters equal a replay of the walked
//!   orderings through the reference, pruning latency on the report's
//!   stall-free total and roofline exactly as the kernel's bounds do,
//!   and never pruning energy or EDP;
//! * driving [`BatchKernel`] directly at lane counts that do and do not
//!   divide the walk (1, 7, 8, 9, 64) reproduces the same best ordering,
//!   score bits and counters, so drain boundaries change nothing.
//!
//! Random matmul (optionally with KV-cache resident weights) and conv
//! workloads on every matmul-capable preset, the attention decode
//! network's KV-cache layers, roofline pruning on and off. The presets
//! cover shared ports, double-buffered lower levels and chains whose top
//! interface a KV-cache operand never crosses — the places where the
//! kernel's folded link constants and lane rows could part from the
//! lowering.

use proptest::prelude::*;
use std::collections::HashMap;
use ulm::mapper::enumerate::{self, OrderingWalk};
use ulm::mapper::factorize::Factor;
use ulm::model::{roofline, BatchKernel, LaneObjective, LaneOutcome, OrderingClasses};
use ulm::prelude::*;

const LANE_COUNTS: [usize; 5] = [1, 7, 8, 9, 64];
const OBJECTIVES: [Objective; 3] = [Objective::Latency, Objective::Energy, Objective::Edp];

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

/// Records the orderings an ordering-class walk visits.
struct Recorder<'a> {
    classes: OrderingClasses<'a>,
    visited: Vec<Vec<Factor>>,
}

impl OrderingWalk for Recorder<'_> {
    fn enter(&mut self, depth: usize, factor: Factor) -> bool {
        self.classes.enter(depth, factor)
    }

    fn visit(&mut self, ordering: &[Factor]) -> bool {
        self.visited.push(ordering.to_vec());
        true
    }
}

/// The reference numbers of one legal ordering: its score, and the two
/// latency lower bounds the kernel prunes on (the stall-free total and
/// the roofline), all read off the report path.
#[derive(Clone, Copy)]
struct Reference {
    score: f64,
    floor: f64,
    roof: f64,
}

/// Best `(score, ordering)` and `(evaluated, pruned)` of one walk.
type Walk = (Option<(f64, Vec<Factor>)>, usize, usize);

/// The kernel's walk: `walked` pushed in order at `lanes` lanes, the
/// incumbent threaded through every drain.
fn kernel_walk(
    chip: &ulm::arch::presets::PresetChip,
    layer: &Layer,
    bw_aware: bool,
    obj: Objective,
    walked: &[Vec<Factor>],
    lanes: usize,
) -> Walk {
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let factors = Mapper::new(&chip.arch, layer, spatial.clone()).factors();
    let model = if bw_aware {
        LatencyModel::new()
    } else {
        LatencyModel::bw_unaware()
    };
    let energy = || EnergyModel::new().lane_energy(&chip.arch, layer);
    let objective = match obj {
        Objective::Latency => LaneObjective::Latency,
        Objective::Energy => LaneObjective::Energy(energy()),
        Objective::Edp => LaneObjective::Edp(energy()),
    };
    let mut kernel = BatchKernel::new(
        &chip.arch, layer, &spatial, model, &factors, lanes, objective,
    );
    let mut walk: Walk = (None, 0, 0);
    let drain = |kernel: &mut BatchKernel<'_>, walk: &mut Walk| {
        let incumbent = walk.0.as_ref().map(|b| b.0);
        kernel.drain(incumbent, |ordering, outcome| {
            match outcome {
                LaneOutcome::Illegal => {}
                LaneOutcome::Pruned => walk.2 += 1,
                LaneOutcome::Scored(score) => {
                    walk.1 += 1;
                    if walk.0.as_ref().map(|b| score < b.0).unwrap_or(true) {
                        walk.0 = Some((score, ordering.to_vec()));
                    }
                }
            }
            walk.0.as_ref().map(|b| b.0)
        });
    };
    for ordering in walked {
        if kernel.is_full() {
            drain(&mut kernel, &mut walk);
        }
        kernel.push(ordering);
    }
    drain(&mut kernel, &mut walk);
    walk
}

fn check_layer(
    idx: usize,
    layer: &Layer,
    bw_aware: bool,
    obj: Objective,
) -> Result<(), TestCaseError> {
    let chip = preset(idx);
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let opts = MapperOptions {
        max_exhaustive: 5_000,
        samples: 32,
        bw_aware,
        ..MapperOptions::default()
    };
    let mapper = Mapper::new(&chip.arch, layer, spatial.clone()).with_options(opts);
    let factors = mapper.factors();
    let exhaustive = mapper.space_size() <= opts.max_exhaustive;
    let ctx = format!("preset {idx} {} {obj:?} bw_aware {bw_aware}", layer.name());

    // Every candidate through the reference path, first strictly better.
    let mut candidates = Vec::new();
    if exhaustive {
        enumerate::for_each_ordering(&factors, |o| {
            candidates.push(o.to_vec());
            true
        });
    } else {
        candidates = enumerate::seeded_orderings(&factors);
        candidates.extend(enumerate::sample_orderings(
            &factors,
            opts.samples,
            opts.seed,
        ));
    }
    let mut reference: HashMap<Vec<Factor>, Option<Reference>> = HashMap::new();
    let mut want: Option<(f64, EvaluatedMapping)> = None;
    for ordering in &candidates {
        let em = mapper.evaluate_ordering(ordering);
        let numbers = em.as_ref().map(|em| {
            let lat = &em.latency;
            let view = MappedLayer::new(layer, &chip.arch, &em.mapping).expect("legal");
            Reference {
                score: em.score(obj),
                floor: FastLatency::compose(
                    lat.preload,
                    lat.offload,
                    lat.cc_ideal,
                    lat.cc_spatial,
                    0.0,
                )
                .cc_total,
                roof: roofline(&view).bound_cycles(),
            }
        });
        reference.insert(ordering.clone(), numbers);
        if let Some(em) = em {
            let score = em.score(obj);
            if want.as_ref().map(|w| score < w.0).unwrap_or(true) {
                want = Some((score, em));
            }
        }
    }

    // The orderings the search walks: one per ordering class when
    // exhaustive, every candidate otherwise.
    let walked = if exhaustive {
        let mut rec = Recorder {
            classes: OrderingClasses::new(&chip.arch, layer, &spatial, &factors),
            visited: Vec::new(),
        };
        enumerate::walk_orderings(&factors, &mut rec);
        rec.visited
    } else {
        candidates.clone()
    };

    // The walk replayed through the reference numbers.
    let (mut evaluated, mut pruned) = (0, 0);
    let mut incumbent: Option<f64> = None;
    for ordering in &walked {
        let Some(r) = reference[ordering] else {
            continue;
        };
        if let (Objective::Latency, Some(inc)) = (obj, incumbent) {
            if r.floor >= inc || (bw_aware && r.roof - inc > 1e-6 + 1e-9 * inc.abs()) {
                pruned += 1;
                continue;
            }
        }
        evaluated += 1;
        if incumbent.map(|b| r.score < b).unwrap_or(true) {
            incumbent = Some(r.score);
        }
    }

    let got = mapper.search(obj);
    match (&want, &got) {
        (None, Err(_)) => {}
        (Some((score, best)), Ok(got)) => {
            prop_assert_eq!(&best.mapping, &got.best.mapping, "{}: best mapping", ctx);
            prop_assert_eq!(score.to_bits(), got.best.score(obj).to_bits(), "{}", ctx);
            prop_assert_eq!(
                best.latency.cc_total.to_bits(),
                got.best.latency.cc_total.to_bits(),
                "{}",
                ctx
            );
            prop_assert_eq!(
                best.energy.total_fj.to_bits(),
                got.best.energy.total_fj.to_bits(),
                "{}",
                ctx
            );
            prop_assert_eq!(got.stats.generated, walked.len(), "{}", ctx);
            prop_assert_eq!(got.stats.evaluated, evaluated, "{}: evaluated", ctx);
            prop_assert_eq!(got.stats.pruned, pruned, "{}: pruned", ctx);
            prop_assert_eq!(got.exhaustive, exhaustive, "{}", ctx);
        }
        (want, got) => {
            return Err(TestCaseError::fail(format!(
                "{ctx}: reference {} a mapping but search returned {got:?}",
                if want.is_some() {
                    "found"
                } else {
                    "did not find"
                },
            )));
        }
    }

    // Drain boundaries: every lane count walks to the same result.
    for lanes in LANE_COUNTS {
        let (best, k_evaluated, k_pruned) =
            kernel_walk(&chip, layer, bw_aware, obj, &walked, lanes);
        prop_assert_eq!(k_evaluated, evaluated, "{} lanes {}: evaluated", ctx, lanes);
        prop_assert_eq!(k_pruned, pruned, "{} lanes {}: pruned", ctx, lanes);
        match (&got, best) {
            (Err(_), None) => {}
            (Ok(got), Some((score, ordering))) => {
                prop_assert_eq!(
                    score.to_bits(),
                    got.best.score(obj).to_bits(),
                    "{} lanes {}",
                    ctx,
                    lanes
                );
                let em = mapper.evaluate_ordering(&ordering).expect("legal winner");
                prop_assert_eq!(&em.mapping, &got.best.mapping, "{} lanes {}", ctx, lanes);
            }
            (got, best) => {
                return Err(TestCaseError::fail(format!(
                    "{ctx} lanes {lanes}: search returned {got:?} but the kernel best is {best:?}"
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matmul workloads, with and without the roofline prune, with and
    /// without KV-cache resident weights.
    #[test]
    fn batched_matmul_search_is_bit_identical(
        idx in 0usize..5,
        b in 1u64..=24,
        k in 1u64..=24,
        c in 1u64..=32,
        kv in any::<bool>(),
        bw_aware in any::<bool>(),
        obj in 0usize..3,
    ) {
        let mut layer = Layer::matmul(
            format!("bm({b},{k},{c})"),
            b, k, c,
            Precision::int8_acc24(),
        );
        if kv {
            layer = layer.with_kv_cache(Operand::W);
        }
        check_layer(idx, &layer, bw_aware, OBJECTIVES[obj])?;
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
        obj in 0usize..3,
    ) {
        let shape = LayerShape::conv(1, k, c, oy, oy, f, f);
        let layer = Layer::conv2d(
            format!("bc({k},{c},{oy},{f})"),
            shape,
            Precision::int8_acc24(),
        );
        check_layer(idx, &layer, bw_aware, OBJECTIVES[obj])?;
    }
}

/// The attention decode network on every preset and objective: its logit
/// and attend layers read KV-cache resident weights, whose top interface
/// carries no traffic (`active < chain.len() - 1`).
#[test]
fn attention_decode_kv_layers_are_bit_identical() {
    let layers = ulm::workload::networks::attention_decode();
    assert!(layers.iter().any(|l| l.is_kv_cache(Operand::W)));
    for idx in 0..5 {
        for layer in &layers {
            for bw_aware in [true, false] {
                for obj in OBJECTIVES {
                    check_layer(idx, layer, bw_aware, obj).unwrap();
                }
            }
        }
    }
}

/// One deterministic anchor on the Fig. 8 case-study geometry (scaled
/// down to keep the test quick), so the gate exercises the workload the
/// performance numbers are measured on, for every objective and lane
/// count.
#[test]
fn fig8_style_case_is_bit_identical_at_every_lane_count() {
    let arch = ulm::arch::presets::case_study_chip(128);
    let layer = Layer::matmul("fig8-small", 16, 24, 160, Precision::int8_out24());
    let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
    let mapper = Mapper::new(&arch, &layer, spatial.clone()).with_options(MapperOptions {
        max_exhaustive: 200_000,
        ..MapperOptions::default()
    });
    let chip = ulm::arch::presets::PresetChip {
        arch: arch.clone(),
        spatial: spatial.factors().to_vec(),
    };
    let factors = mapper.factors();
    let mut rec = Recorder {
        classes: OrderingClasses::new(&arch, &layer, &spatial, &factors),
        visited: Vec::new(),
    };
    enumerate::walk_orderings(&factors, &mut rec);
    let evaluated: Vec<EvaluatedMapping> = rec
        .visited
        .iter()
        .filter_map(|ordering| mapper.evaluate_ordering(ordering))
        .collect();
    for obj in OBJECTIVES {
        let got = mapper.search(obj).expect("search succeeds");
        // First strictly better over the walked orderings, through the
        // reference path.
        let want = evaluated
            .iter()
            .reduce(|w, em| if em.score(obj) < w.score(obj) { em } else { w })
            .expect("legal mappings exist");
        assert_eq!(want.mapping, got.best.mapping, "{obj:?}");
        assert_eq!(
            want.score(obj).to_bits(),
            got.best.score(obj).to_bits(),
            "{obj:?}"
        );
        for lanes in LANE_COUNTS {
            let (best, evaluated, pruned) =
                kernel_walk(&chip, &layer, true, obj, &rec.visited, lanes);
            let (score, _) = best.expect("legal mappings exist");
            assert_eq!(
                score.to_bits(),
                got.best.score(obj).to_bits(),
                "{obj:?} lanes {lanes}"
            );
            assert_eq!(evaluated, got.stats.evaluated, "{obj:?} lanes {lanes}");
            assert_eq!(pruned, got.stats.pruned, "{obj:?} lanes {lanes}");
        }
    }
}
