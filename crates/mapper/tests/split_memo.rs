//! The folded space's split memo: a kernel over a fold reads each
//! operand's greedy split, and its bounds, from a memo keyed by the
//! operand's word budgets and interface bandwidths, so the designs of a
//! sweep that share an operand's budgets share its splits. These tests
//! pin that a memo hit, a memo miss and no memo at all price every lane
//! alike:
//!
//! * designs drawn, in random order and with repeats, from a pool whose
//!   operands share budget vectors across designs: a kernel over a warm
//!   fold (hits after the first sighting), one over a fresh fold (a miss
//!   for every operand) and an unfolded kernel give the same per-lane
//!   outcomes, score bits, incumbent, `winner_latency` and `cache_hits`,
//!   for both latency models and every objective, at several lane counts;
//! * more budget vectors than the memo holds, cycled twice over one fold:
//!   the memo stays within the bytes the fold reserves for it, and every
//!   design keeps the unfolded kernel's answers.

use proptest::prelude::*;
use std::rc::Rc;
use ulm_arch::presets;
use ulm_arch::Architecture;
use ulm_energy::EnergyModel;
use ulm_mapper::{Mapper, MapperOptions, SearchSpace};
use ulm_mapping::SpatialUnroll;
use ulm_model::{
    apply_overrides, BatchKernel, FastLatency, FoldedSpace, LaneObjective, LaneOutcome,
    LatencyModel, SPLIT_ENTRIES,
};
use ulm_workload::{Layer, Precision};

/// Sampled-space options: every layer below has more orderings than
/// `max_exhaustive`.
fn options() -> MapperOptions {
    MapperOptions {
        max_exhaustive: 100,
        samples: 60,
        ..MapperOptions::default()
    }
}

/// One lane's outcome, scores as bits.
type Lane = (u8, u64);

/// A sweep's lanes, final incumbent bits, winner latency and prefix
/// reuses.
type Sweep = (Vec<Lane>, Option<u64>, Option<FastLatency>, u64);

fn lane(outcome: LaneOutcome) -> Lane {
    match outcome {
        LaneOutcome::Illegal => (0, 0),
        LaneOutcome::Pruned => (1, 0),
        LaneOutcome::Scored(s) => (2, s.to_bits()),
    }
}

/// Pushes candidates `0..count` through `kernel` with `push`, threading
/// the first-strictly-better incumbent through every drain as the
/// mapper does.
fn sweep(
    mut kernel: BatchKernel<'_>,
    count: usize,
    mut push: impl FnMut(&mut BatchKernel<'_>, usize),
) -> Sweep {
    let mut lanes = Vec::with_capacity(count);
    let mut best: Option<f64> = None;
    let mut drain = |k: &mut BatchKernel<'_>, best: &mut Option<f64>| {
        *best = k.drain(*best, |_, outcome| {
            lanes.push(lane(outcome));
            if let LaneOutcome::Scored(s) = outcome {
                if best.is_none_or(|b| s < b) {
                    *best = Some(s);
                }
            }
            *best
        });
    };
    for i in 0..count {
        if kernel.is_full() {
            drain(&mut kernel, &mut best);
        }
        push(&mut kernel, i);
    }
    drain(&mut kernel, &mut best);
    (
        lanes,
        best.map(f64::to_bits),
        kernel.winner_latency(),
        kernel.cache_hits(),
    )
}

/// What a kernel's lanes score: 0 latency, 1 energy, 2 EDP.
fn objective<'a>(which: usize, arch: &'a Architecture, layer: &'a Layer) -> LaneObjective<'a> {
    let energy = || EnergyModel::new().lane_energy(arch, layer);
    match which {
        0 => LaneObjective::Latency,
        1 => LaneObjective::Energy(energy()),
        _ => LaneObjective::Edp(energy()),
    }
}

/// One sampled search context: a layer, its spatial unrolling and its
/// sampled space on the case16 chip shape.
struct Context {
    base: Architecture,
    layer: Layer,
    spatial: SpatialUnroll,
    space: std::sync::Arc<SearchSpace>,
}

impl Context {
    fn new(b: u64, k: u64, c: u64) -> Self {
        let chip = presets::scaled_case_study_chip(16, 128);
        let layer = Layer::matmul("memo", b, k, c, Precision::int8_out24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let space = Mapper::new(&chip.arch, &layer, spatial.clone())
            .with_options(options())
            .space();
        assert!(!space.exhaustive(), "{b}x{k}x{c} is sampled");
        Self {
            base: chip.arch,
            layer,
            spatial,
            space,
        }
    }

    fn fold(&self, lanes: usize) -> Rc<FoldedSpace> {
        let candidates = (0..self.space.candidate_count()).map(|i| self.space.candidate(i));
        Rc::new(FoldedSpace::fold(
            &self.base,
            &self.layer,
            &self.spatial,
            self.space.factors(),
            candidates,
            lanes,
        ))
    }

    /// `arch` priced three ways; panics unless all agree, and returns the
    /// warm fold's sweep.
    fn check(
        &self,
        arch: &Architecture,
        warm: &Rc<FoldedSpace>,
        model: LatencyModel,
        obj: usize,
        lanes: usize,
    ) -> Sweep {
        let (layer, count) = (&self.layer, self.space.candidate_count());
        let folded = |fold: Rc<FoldedSpace>| {
            let kernel = BatchKernel::from_folded(
                arch,
                layer,
                fold,
                model,
                lanes,
                objective(obj, arch, layer),
            );
            sweep(kernel, count, |k, i| k.push_candidate(i))
        };
        let hit = folded(Rc::clone(warm));
        let miss = folded(self.fold(lanes));
        let kernel = BatchKernel::new(
            arch,
            layer,
            &self.spatial,
            model,
            self.space.factors(),
            lanes,
            objective(obj, arch, layer),
        );
        let unfolded = sweep(kernel, count, |k, i| k.push(self.space.candidate(i)));
        assert_eq!(hit, miss, "warm vs cold fold");
        assert_eq!(hit, unfolded, "fold vs unfolded kernel");
        hit
    }
}

/// The design pool: the case16 chip with its W and I buffers and W
/// registers resized and its GB bandwidth scaled, 36 designs sharing 6 W,
/// 3 I and 1 O budget vectors and 2 vectors of GB bandwidth.
fn pool(base: &Architecture) -> Vec<Architecture> {
    let mut out = Vec::new();
    for w_lb in ["0.5x", "1x", "2x"] {
        for i_lb in ["0.5x", "1x", "2x"] {
            for w_reg in ["1x", "2x"] {
                for gb in ["1x", "4x"] {
                    let knobs = [
                        format!("mem.W-LB.size={w_lb}"),
                        format!("mem.I-LB.size={i_lb}"),
                        format!("mem.W-Reg.size={w_reg}"),
                        format!("mem.GB.bw={gb}"),
                    ];
                    out.push(apply_overrides(base, &knobs).expect("valid knobs").0);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memo_hits_misses_and_unfolded_kernels_agree(
        dims in 0usize..3,
        order in proptest::collection::vec(0usize..36, 4..10),
        bw_aware in any::<bool>(),
        obj in 0usize..3,
        lanes in 0usize..3,
    ) {
        let (b, k, c) = [(64, 96, 640), (32, 64, 256), (128, 48, 96)][dims];
        let lanes = [1, 7, 64][lanes];
        let ctx = Context::new(b, k, c);
        let designs = pool(&ctx.base);
        let model = if bw_aware { LatencyModel::new() } else { LatencyModel::bw_unaware() };
        let warm = ctx.fold(lanes);
        let mut legal = 0;
        for &d in &order {
            let (lanes_out, ..) = ctx.check(&designs[d], &warm, model, obj, lanes);
            legal += lanes_out.iter().filter(|l| l.0 != 0).count();
        }
        prop_assert!(legal > 0, "no design had a legal lane");
    }
}

/// More budget vectors than the memo holds, twice over one fold: the
/// memo evicts and re-splits, stays inside the fold's reserved bytes, and
/// never changes an answer.
#[test]
fn a_full_memo_evicts_within_its_reserve_and_keeps_answers() {
    let ctx = Context::new(64, 96, 640);
    let warm = ctx.fold(64);
    let footprint = FoldedSpace::footprint(ctx.space.factors().len(), warm.candidate_count());
    let designs: Vec<Architecture> = (0..SPLIT_ENTRIES + 8)
        .map(|i| {
            let knobs = [
                format!("mem.W-LB.size={}x", 0.5 + i as f64 / 8.0),
                format!("mem.I-LB.size={}x", 2.0 - i as f64 / 32.0),
            ];
            apply_overrides(&ctx.base, &knobs).expect("valid knobs").0
        })
        .collect();
    let mut first = Vec::new();
    let mut held = 0;
    for round in 0..2 {
        for (d, arch) in designs.iter().enumerate() {
            let got = ctx.check(arch, &warm, LatencyModel::new(), 0, 64);
            if round == 0 {
                first.push(got);
            } else {
                assert_eq!(got, first[d], "design {d} changed on its second sighting");
            }
            held = held.max(warm.memo_bytes());
            assert!(
                footprint + warm.memo_bytes() <= warm.bytes(),
                "memo {} B over the fold's reserve ({} B of {} B are columns)",
                warm.memo_bytes(),
                footprint,
                warm.bytes()
            );
        }
    }
    assert!(held > 0, "the memo was never filled");
}
