//! Oracle tests for the ordering-class walk (DESIGN.md §10.4).
//!
//! An exhaustive search walks only the first ordering of each ordering
//! class and skips every subtree whose prefix state was already seen.
//! These tests pin that against the plain permutation walk it replaced:
//! the same best mapping, latency and energy bits for every objective
//! and model; the walk visits exactly the first
//! member of each class; every member of a class scores identically;
//! and a memo that fills up changes nothing.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use ulm_arch::presets::{self, PresetChip};
use ulm_arch::{Architecture, MacArray, Memory, MemoryHierarchy, MemoryKind, Port};
use ulm_mapper::enumerate::{self, OrderingWalk};
use ulm_mapper::factorize::{ordering_count, Factor};
use ulm_mapper::{EvaluatedMapping, Mapper, MapperError, MapperOptions, Objective};
use ulm_mapping::{LoopStack, MappedLayer, Mapping, SpatialUnroll};
use ulm_model::{
    BatchKernel, DtlOptions, LaneObjective, LaneOutcome, LatencyModel, LoweredLayer,
    OrderingClasses,
};
use ulm_workload::{Dim, Layer, LayerShape, Operand, Precision};

/// Largest space the permutation oracle walks per case; the generators'
/// bounds keep every case below it.
const MAX_SPACE: u128 = 5_000;

fn opts(bw_aware: bool) -> MapperOptions {
    MapperOptions {
        max_exhaustive: MAX_SPACE,
        bw_aware,
        ..MapperOptions::default()
    }
}

/// The permutation walk: every ordering through the reference
/// evaluation, first strictly better score.
fn permutation_search(mapper: &Mapper<'_>, obj: Objective) -> Option<EvaluatedMapping> {
    let mut best: Option<EvaluatedMapping> = None;
    enumerate::for_each_ordering(&mapper.factors(), |ordering| {
        if let Some(em) = mapper.evaluate_ordering(ordering) {
            if best
                .as_ref()
                .map(|b| em.score(obj) < b.score(obj))
                .unwrap_or(true)
            {
                best = Some(em);
            }
        }
        true
    });
    best
}

fn check(
    chip: &PresetChip,
    layer: &Layer,
    obj: Objective,
    bw_aware: bool,
) -> Result<(), TestCaseError> {
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let mapper = Mapper::new(&chip.arch, layer, spatial.clone()).with_options(opts(bw_aware));
    let space = mapper.space_size();
    prop_assert!(space <= MAX_SPACE, "{}: space {}", layer.name(), space);
    let want = permutation_search(&mapper, obj);
    let got = mapper.search(obj);
    let ctx = format!("{} {obj:?}", layer.name());
    match (&want, got) {
        (None, Err(MapperError::NoLegalMapping { tried })) => {
            prop_assert_eq!(tried as u128, space, "{}", ctx);
        }
        (Some(want), Ok(got)) => {
            prop_assert!(got.exhaustive, "{}", ctx);
            prop_assert_eq!(&want.mapping, &got.best.mapping, "{}", ctx);
            prop_assert_eq!(
                want.latency.cc_total.to_bits(),
                got.best.latency.cc_total.to_bits(),
                "{}",
                ctx
            );
            prop_assert_eq!(
                want.energy.total_fj.to_bits(),
                got.best.energy.total_fj.to_bits(),
                "{}",
                ctx
            );
            prop_assert_eq!(got.covered() as u128, space, "{}", ctx);
            prop_assert!(got.stats.generated as u128 <= space, "{}", ctx);
        }
        (want, got) => {
            return Err(TestCaseError::fail(format!(
                "{ctx}: permutation walk found {}, class walk returned {got:?}",
                if want.is_some() { "a mapping" } else { "none" },
            )));
        }
    }
    Ok(())
}

fn chip(index: usize, gb_bw: u64) -> PresetChip {
    match index % 6 {
        0 => presets::toy_chip(),
        1 => presets::scaled_case_study_chip(16, gb_bw),
        2 => presets::scaled_case_study_chip(32, gb_bw),
        3 => presets::scaled_case_study_chip(64, gb_bw),
        4 => presets::validation_chip(),
        _ => presets::fusion_chip(),
    }
}

fn objective(index: usize) -> Objective {
    [Objective::Latency, Objective::Energy, Objective::Edp][index % 3]
}

/// Per-preset scale, so that each preset's spatial unrolling leaves a
/// few temporal factors to order.
fn scale(index: usize) -> u64 {
    [1, 4, 8, 16, 8, 1][index % 6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_class_walk_matches_permutation_walk(
        preset in 0usize..6,
        obj in 0usize..3,
        gb_bw in 0usize..4,
        b in 1u64..=12,
        k in 1u64..=12,
        c in 1u64..=16,
        bw_aware in any::<bool>(),
    ) {
        let s = scale(preset);
        let layer = Layer::matmul(
            format!("mm({},{},{})", b * s, k * s, c * s),
            b * s,
            k * s,
            c * s,
            Precision::int8_out24(),
        );
        let gb_bw = [64, 128, 512, 1024][gb_bw];
        check(&chip(preset, gb_bw), &layer, objective(obj), bw_aware)?;
    }

    /// Conv inputs grow by halo, not by factor products, so their words
    /// come from the full prefix extents.
    #[test]
    fn conv_class_walk_matches_permutation_walk(
        preset in 0usize..6,
        obj in 0usize..3,
        k in 1u64..=4,
        c in 1u64..=4,
        oy in 2u64..=4,
        f in 2u64..=3,
        bw_aware in any::<bool>(),
    ) {
        let s = scale(preset).min(4);
        let layer = Layer::conv2d(
            format!("conv({k},{c},{oy},{f})"),
            LayerShape::conv(1, k * s, c * s, oy, 1, f, 1),
            Precision::int8_acc24(),
        );
        check(&chip(preset, 128), &layer, objective(obj), bw_aware)?;
    }

    /// KV-cache resident weights carry no traffic on their top
    /// interface.
    #[test]
    fn kv_class_walk_matches_permutation_walk(
        preset in 0usize..6,
        obj in 0usize..3,
        rows in 1u64..=8,
        ctx in 2u64..=16,
        d_head in 1u64..=8,
        attend in any::<bool>(),
        bw_aware in any::<bool>(),
    ) {
        let s = scale(preset);
        let (k, c) = if attend { (d_head * s, ctx * s) } else { (ctx * s, d_head * s) };
        let layer = Layer::matmul(format!("kv({rows},{k},{c})"), rows * s, k, c, Precision::int8_acc24())
            .with_kv_cache(Operand::W);
        check(&chip(preset, 256), &layer, objective(obj), bw_aware)?;
    }
}

/// Records the orderings a class walk visits.
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

/// The leaf state of one ordering as the model sees it: every
/// (operand, level) row of the lowered IR — words, period, `Z`, run,
/// refills, distinct blocks, output finality — or `None` when the
/// greedy allocation is illegal. Built by the scalar path, independently
/// of the class walk's incremental state.
type Rows = Option<Vec<[u64; 7]>>;

fn rows(
    chip: &PresetChip,
    layer: &Layer,
    spatial: &SpatialUnroll,
    ordering: &[Factor],
    lowered: &mut LoweredLayer,
) -> Rows {
    let stack = LoopStack::from_pairs(ordering);
    let mapping = Mapping::with_greedy_alloc(&chip.arch, layer, spatial.clone(), stack).ok()?;
    let view = MappedLayer::new(layer, &chip.arch, &mapping).ok()?;
    LoweredLayer::build_into(&view, DtlOptions::default(), lowered);
    Some(
        Operand::all()
            .flat_map(|op| lowered.levels(op).iter())
            .map(|r| {
                [
                    r.words,
                    r.period,
                    r.z,
                    r.run,
                    r.refills,
                    r.distinct_above,
                    r.final_above as u64,
                ]
            })
            .collect(),
    )
}

/// Every permutation in enumeration order with its leaf rows.
fn leaf_rows(
    chip: &PresetChip,
    layer: &Layer,
    spatial: &SpatialUnroll,
) -> Vec<(Vec<Factor>, Rows)> {
    let factors = Mapper::new(&chip.arch, layer, spatial.clone()).factors();
    let mut lowered = LoweredLayer::default();
    let mut out = Vec::new();
    enumerate::for_each_ordering(&factors, |ordering| {
        let leaf = rows(chip, layer, spatial, ordering, &mut lowered);
        out.push((ordering.to_vec(), leaf));
        true
    });
    out
}

/// Groups every permutation by its leaf rows (all illegal orderings form
/// one group) and checks that the class walk visits exactly the first
/// member of each group, in enumeration order. Returns the group count.
fn first_members_are_walked(chip: &PresetChip, layer: &Layer, spatial: &SpatialUnroll) -> usize {
    let all = leaf_rows(chip, layer, spatial);
    let mut seen = HashSet::new();
    let firsts: Vec<Vec<Factor>> = all
        .iter()
        .filter(|(_, rows)| seen.insert(rows.clone()))
        .map(|(o, _)| o.clone())
        .collect();
    let factors = Mapper::new(&chip.arch, layer, spatial.clone()).factors();
    let mut walk = Recorder {
        classes: OrderingClasses::new(&chip.arch, layer, spatial, &factors),
        visited: Vec::new(),
    };
    let total = ordering_count(&factors);
    enumerate::walk_orderings(&factors, &mut walk);
    assert_eq!(all.len() as u128, total);
    assert_eq!(walk.visited, firsts, "{}", layer.name());
    firsts.len()
}

/// A toy-sized chip whose W chain narrows upward: `W-Reg` holds 8 words
/// but `W-Mid` above it only 4, so the greedy allocation fails for the
/// orderings that close `W-Reg` with more than 4 words resident.
fn narrowing_chip() -> PresetChip {
    let mut h = MemoryHierarchy::builder();
    let reg = |name: &str, bits: u64| {
        Memory::new(name, MemoryKind::RegisterFile, bits)
            .with_ports(vec![Port::read(bits), Port::write(8)])
    };
    let w_reg = h.add_memory(reg("W-Reg", 8 * 8));
    let w_mid = h.add_memory(reg("W-Mid", 4 * 8));
    let i_reg = h.add_memory(reg("I-Reg", 8 * 8));
    let o_reg = h.add_memory(reg("O-Reg", 8 * 24));
    let lb = h.add_memory(
        Memory::new("LB", MemoryKind::Sram, 16 * 1024 * 8)
            .with_ports(vec![Port::read(16), Port::write(16)])
            .as_backing_store(),
    );
    h.set_chain(Operand::W, vec![w_reg, w_mid, lb]);
    h.set_chain(Operand::I, vec![i_reg, lb]);
    h.set_chain(Operand::O, vec![o_reg, lb]);
    PresetChip {
        arch: Architecture::new(
            "narrowing",
            MacArray::new(2, 2, 1),
            h.build().expect("well-formed hierarchy"),
        ),
        spatial: vec![(Dim::K, 2), (Dim::B, 2)],
    }
}

#[test]
fn walk_visits_exactly_the_first_member_of_each_class() {
    let toy = presets::toy_chip();
    let spatial = SpatialUnroll::new(toy.spatial.clone());
    let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
    assert_eq!(first_members_are_walked(&toy, &layer, &spatial), 17);
    // Mixed primes in every dim: rows and runs built from differently
    // sized factors must stay apart.
    let mixed = Layer::matmul("mixed", 12, 12, 12, Precision::int8_acc24());
    first_members_are_walked(&toy, &mixed, &spatial);
    let conv = Layer::conv2d(
        "conv",
        LayerShape::conv(1, 4, 2, 4, 2, 3, 1),
        Precision::int8_acc24(),
    );
    first_members_are_walked(&toy, &conv, &spatial);
    let fusion = presets::fusion_chip();
    let kv = Layer::matmul("kv", 4, 16, 4, Precision::int8_acc24()).with_kv_cache(Operand::W);
    first_members_are_walked(&fusion, &kv, &SpatialUnroll::new(fusion.spatial.clone()));
    // Illegal prefixes collapse into one class per remaining multiset,
    // so the walk visits only the first illegal ordering.
    let narrow = narrowing_chip();
    let layer = Layer::matmul("narrow", 4, 4, 6, Precision::int8_acc24());
    let spatial = SpatialUnroll::new(narrow.spatial.clone());
    let rows = leaf_rows(&narrow, &layer, &spatial);
    assert!(rows.iter().any(|(_, r)| r.is_none()) && rows.iter().any(|(_, r)| r.is_some()));
    first_members_are_walked(&narrow, &layer, &spatial);

    let fig8 = PresetChip {
        arch: presets::case_study_chip(128),
        spatial: vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)],
    };
    let layer = Layer::matmul("fig8", 64, 96, 640, Precision::int8_out24());
    let classes =
        first_members_are_walked(&fig8, &layer, &SpatialUnroll::new(fig8.spatial.clone()));
    // 110,880 orderings, 3,633 distinct row tuples.
    assert_eq!(classes, 3_633);
}

/// The premise that makes skipping exact: orderings with the same leaf
/// rows have the same legality and the same latency (both models) and
/// energy bits.
#[test]
fn equal_rows_score_identically() {
    let toy = presets::toy_chip();
    let fusion = presets::fusion_chip();
    let cases = [
        (&toy, Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24())),
        (
            &toy,
            Layer::conv2d(
                "conv",
                LayerShape::conv(1, 4, 2, 4, 2, 3, 1),
                Precision::int8_acc24(),
            ),
        ),
        (
            &fusion,
            Layer::matmul("kv", 4, 16, 4, Precision::int8_acc24()).with_kv_cache(Operand::W),
        ),
    ];
    for (chip, layer) in cases {
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let mappers = [true, false].map(|bw_aware| {
            Mapper::new(&chip.arch, &layer, spatial.clone()).with_options(opts(bw_aware))
        });
        let mut first: HashMap<Rows, [Option<(u64, u64)>; 2]> = HashMap::new();
        let mut repeats = 0;
        for (ordering, rows) in leaf_rows(chip, &layer, &spatial) {
            let scores = mappers.each_ref().map(|m| {
                m.evaluate_ordering(&ordering)
                    .map(|em| (em.latency.cc_total.to_bits(), em.energy.total_fj.to_bits()))
            });
            assert_eq!(rows.is_some(), scores[0].is_some(), "{ordering:?}");
            match first.get(&rows) {
                Some(want) => {
                    assert_eq!(&scores, want, "{}: {ordering:?}", layer.name());
                    repeats += 1;
                }
                None => {
                    first.insert(rows, scores);
                }
            }
        }
        assert!(repeats > 0, "{}: no class has two members", layer.name());
    }
}

/// A memo bounded far below the number of prefix states stops
/// inserting; the walk then skips less but returns the same best lane.
#[test]
fn a_full_memo_changes_nothing() {
    let fig8 = presets::case_study_chip(128);
    let layer = Layer::matmul("fig8-small", 16, 24, 160, Precision::int8_out24());
    let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
    let factors = Mapper::new(&fig8, &layer, spatial.clone()).factors();
    let total = ordering_count(&factors);

    struct Search<'k, 'a> {
        classes: OrderingClasses<'a>,
        kernel: &'k mut BatchKernel<'a>,
        best: Option<(f64, Vec<Factor>)>,
        visited: usize,
    }
    impl Search<'_, '_> {
        fn drain(&mut self) {
            let best = &mut self.best;
            self.kernel.drain(best.as_ref().map(|b| b.0), |o, outcome| {
                if let LaneOutcome::Scored(s) = outcome {
                    if best.as_ref().map(|b| s < b.0).unwrap_or(true) {
                        *best = Some((s, o.to_vec()));
                    }
                }
                best.as_ref().map(|b| b.0)
            });
        }
    }
    impl OrderingWalk for Search<'_, '_> {
        fn enter(&mut self, depth: usize, factor: Factor) -> bool {
            self.classes.enter(depth, factor)
        }
        fn visit(&mut self, ordering: &[Factor]) -> bool {
            if self.kernel.is_full() {
                self.drain();
            }
            self.visited += 1;
            self.kernel.push(ordering);
            true
        }
    }
    let run = |limit: Option<usize>| {
        let mut kernel = BatchKernel::new(
            &fig8,
            &layer,
            &spatial,
            LatencyModel::new(),
            &factors,
            64,
            LaneObjective::Latency,
        );
        let classes = kernel.classes();
        let classes = match limit {
            Some(l) => classes.with_memo_limit(l),
            None => classes,
        };
        let mut s = Search {
            classes,
            kernel: &mut kernel,
            best: None,
            visited: 0,
        };
        enumerate::walk_orderings(&factors, &mut s);
        s.drain();
        let (score, ordering) = s.best.expect("legal mappings exist");
        (score.to_bits(), ordering, s.visited)
    };
    let (bits, ordering, unbounded) = run(None);
    let want = Mapper::new(&fig8, &layer, spatial.clone())
        .with_options(MapperOptions {
            max_exhaustive: total,
            ..MapperOptions::default()
        })
        .search(Objective::Latency)
        .expect("legal mappings exist");
    assert_eq!(bits, want.best.latency.cc_total.to_bits());
    assert_eq!(unbounded, want.stats.generated);
    let mut last = unbounded;
    for limit in [500, 50, 5, 1, 0] {
        let (b, o, visited) = run(Some(limit));
        assert_eq!(b, bits, "limit {limit}");
        assert_eq!(o, ordering, "limit {limit}");
        assert!(
            visited >= last,
            "limit {limit}: a smaller memo skipped more"
        );
        last = visited;
    }
    assert_eq!(last as u128, total, "an empty memo walks every ordering");
}

/// The unmappable-layer error still counts every ordering of the space
/// (visited or skipped as a repeat), so its text is unchanged.
#[test]
fn unmappable_layer_error_counts_the_whole_space() {
    let toy = presets::toy_chip();
    let layer = Layer::matmul("too-wide", 8, 8, 8, Precision::int8_acc24());
    // 16 spatial MACs on the 4-MAC toy array: no ordering is legal.
    let spatial = SpatialUnroll::new(vec![(Dim::K, 4), (Dim::B, 4)]);
    for obj in [Objective::Latency, Objective::Energy, Objective::Edp] {
        let err = Mapper::new(&toy.arch, &layer, spatial.clone())
            .search(obj)
            .unwrap_err();
        assert_eq!(err.to_string(), "no legal mapping found among 20 orderings");
    }
}
