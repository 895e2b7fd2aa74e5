//! **DSE hot path** — the per-ordering cost that dominates Fig. 8's
//! architecture sweep. Compares the pre-optimization baseline (fresh
//! allocations + full evaluation for every ordering) against the
//! optimized search (batched kernel, branch-and-bound pruning, prefix
//! memoization, ordering classes) on
//! the Fig. 8 case-study workload, for the latency, energy and EDP
//! objectives; then the permutation walk (every ordering through the
//! batched kernel) against the ordering-class walk `Mapper::search`
//! runs, on three exhaustive spaces; then one sampled Fig. 8 DSE design
//! through `search` and `search_fast`, on a cold and a warm space memo;
//! then a whole 1,350-design Fig. 8 regime, one design per
//! `explore_with_stats` call in a fixed shuffled order. Searches, model
//! evaluations and designs are timed as medians (with quartiles) over
//! repeats. Writes the numbers, stamped with the core count, to
//! `BENCH_mapper.json` (path overridable via the `BENCH_MAPPER_JSON` env
//! var).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Instant;
use ulm::mapper::enumerate;
use ulm::model::{BatchKernel, LaneObjective, LaneOutcome};
use ulm::prelude::*;

/// System allocator wrapper counting every allocation, so the JSON
/// snapshot can report allocations-per-ordering for both paths.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, AtomicOrdering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, AtomicOrdering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, AtomicOrdering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCATIONS.load(AtomicOrdering::SeqCst)
}

/// The Fig. 8 DSE workload: the scaled-down case-study chip evaluating
/// an Im2Col-lowered layer under the canonical 16x8x2 spatial unrolling.
fn setup() -> (Architecture, Layer, SpatialUnroll) {
    let arch = presets::case_study_chip(128);
    let layer = Layer::matmul("fig8-dse", 64, 96, 640, Precision::int8_out24());
    let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
    (arch, layer, spatial)
}

/// One exhaustive space timed both ways: the permutation walk (every
/// ordering pushed through the batched kernel, first strictly better)
/// and `Mapper::search`'s ordering-class walk.
struct WalkRow {
    key: &'static str,
    workload: String,
    space: u128,
    perm_secs: f64,
    perm_generated: u128,
    class_secs: f64,
    class_generated: usize,
}

/// The pre-class search at the search's lane count, serial: every
/// ordering through the batched kernel, then the full evaluation of the
/// winner, as `Mapper::search` did before ordering classes.
fn permutation_walk(
    mapper: &Mapper<'_>,
    arch: &Architecture,
    layer: &Layer,
    spatial: &SpatialUnroll,
) -> (u64, u128) {
    let factors = &mapper.factors();
    let mut kernel = BatchKernel::new(
        arch,
        layer,
        spatial,
        LatencyModel::new(),
        factors,
        64,
        LaneObjective::Latency,
    );
    type Best = Option<(f64, Vec<(Dim, u64)>)>;
    let mut best: Best = None;
    let drain = |k: &mut BatchKernel<'_>, best: &mut Best| {
        k.drain(best.as_ref().map(|b| b.0), |ordering, outcome| {
            if let LaneOutcome::Scored(s) = outcome {
                if best.as_ref().map(|b| s < b.0).unwrap_or(true) {
                    *best = Some((s, ordering.to_vec()));
                }
            }
            best.as_ref().map(|b| b.0)
        });
    };
    let mut generated = 0u128;
    enumerate::for_each_ordering(factors, |ordering| {
        if kernel.is_full() {
            drain(&mut kernel, &mut best);
        }
        generated += 1;
        kernel.push(ordering);
        true
    });
    drain(&mut kernel, &mut best);
    let (_, ordering) = best.expect("a legal ordering exists");
    let winner = mapper
        .evaluate_ordering(&ordering)
        .expect("the winner is legal");
    (winner.latency.cc_total.to_bits(), generated)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Repeats of each timed search row: a single ~10 ms search spreads too
/// widely across runs to compare.
const SEARCH_REPEATS: usize = 12;

/// Repeats of each timed one-design row.
const DESIGN_REPEATS: usize = 41;

/// Repeats of each timed evaluation loop (model, delta, surrogate rows).
const LOOP_REPEATS: usize = 15;

/// Median and interquartile range of repeated timings, in seconds.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Spread {
    fn of(mut v: Vec<f64>) -> Self {
        v.sort_by(f64::total_cmp);
        let at = |q: usize| v[(v.len() - 1) * q / 4];
        Spread {
            median: at(2),
            q1: at(1),
            q3: at(3),
        }
    }

    /// `"{key}_secs"` and its quartiles as JSON fields.
    fn json(&self, key: &str) -> String {
        format!(
            "  \"{key}_secs\": {:.7},\n  \"{key}_secs_q1\": {:.7},\n  \"{key}_secs_q3\": {:.7},\n",
            self.median, self.q1, self.q3
        )
    }
}

/// `LOOP_REPEATS` timed loops of `iters` calls of `f`: the spread of one
/// loop's wall time, and the last call's result bits.
fn time_loops(iters: u64, mut f: impl FnMut() -> u64) -> (Spread, u64) {
    let mut times = Vec::with_capacity(LOOP_REPEATS);
    let mut bits = 0;
    for _ in 0..LOOP_REPEATS {
        let t = Instant::now();
        for _ in 0..iters {
            bits = f();
        }
        times.push(t.elapsed().as_secs_f64());
    }
    (Spread::of(times), bits)
}

/// One sampled Fig. 8 DSE design priced four ways: `search` against
/// `search_fast` on a warm space memo, and `search_fast` on a cold
/// memo against a memo hit.
struct DesignRows {
    workload: String,
    generated: usize,
    search: Spread,
    search_fast: Spread,
    cold_space: Spread,
    memo_hit: Spread,
}

/// Times the first feasible sampled 32x32 design of the default Fig. 8
/// pool at GB 128 b/cy, under the DSE's default search settings. A cold
/// space is a thread's first search; the memo hit is the same thread's
/// second, which also folds the sampled space (the timer runs inside the
/// thread, so spawning is not timed). The warm `search`/`search_fast`
/// rows repeat one design over a warm fold, so they overstate what a
/// sweep of distinct designs gains; the `dse_sweep` row prices those.
fn design_rows() -> DesignRows {
    let layer = Layer::matmul("dse", 256, 256, 64, Precision::int8_out24());
    let opts = ExploreOptions::default().mapper;
    let designs = enumerate_designs(&MemoryPool::default(), &[32], 128);
    let (design, winner) = designs
        .iter()
        .find_map(|d| {
            let r = Mapper::new(&d.arch, &layer, d.spatial.clone())
                .with_options(opts)
                .search_fast(Objective::Latency)
                .ok()?;
            (!r.exhaustive).then_some((d, r))
        })
        .expect("the pool has a feasible sampled design");
    let mapper = Mapper::new(&design.arch, &layer, design.spatial.clone()).with_options(opts);
    let (mut full, mut fast) = (Vec::new(), Vec::new());
    for _ in 0..DESIGN_REPEATS {
        let t = Instant::now();
        let r = mapper.search(Objective::Latency).expect("feasible");
        full.push(t.elapsed().as_secs_f64());
        assert_eq!(
            r.best.latency.cc_total.to_bits(),
            winner.latency.cc_total.to_bits()
        );
        let t = Instant::now();
        let r = mapper.search_fast(Objective::Latency).expect("feasible");
        fast.push(t.elapsed().as_secs_f64());
        assert_eq!(r, winner);
    }
    let (mut cold, mut hit) = (Vec::new(), Vec::new());
    for _ in 0..DESIGN_REPEATS {
        let (c, h) = std::thread::scope(|s| {
            s.spawn(|| {
                let t = Instant::now();
                let first = mapper.search_fast(Objective::Latency).expect("feasible");
                let c = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let second = mapper.search_fast(Objective::Latency).expect("feasible");
                let h = t.elapsed().as_secs_f64();
                assert_eq!(first, winner);
                assert_eq!(second, winner);
                (c, h)
            })
            .join()
            .expect("timing thread")
        });
        cold.push(c);
        hit.push(h);
    }
    let p = design.params;
    DesignRows {
        workload: format!(
            "Fig. 8 matmul 256x256x64 on the {s}x{s} design wReg{} iReg{} oReg{} wLB{}K iLB{}K, \
             GB 128 b/cy, {} factors, {} sampled candidates",
            p.w_reg_words,
            p.i_reg_words,
            p.o_reg_words,
            p.w_lb_kb,
            p.i_lb_kb,
            mapper.factors().len(),
            winner.stats.generated,
            s = p.array_side,
        ),
        generated: winner.stats.generated,
        search: Spread::of(full),
        search_fast: Spread::of(fast),
        cold_space: Spread::of(cold),
        memo_hit: Spread::of(hit),
    }
}

/// Timed passes of the DSE sweep row (after one untimed warm-up pass).
const SWEEP_PASSES: usize = 5;

/// One Fig. 8 regime priced design by design, as a DSE client (and
/// perfbench's `dse-fig8`) calls it.
struct SweepRow {
    workload: String,
    designs: usize,
    /// Per-design wall time over every timed pass.
    design: Spread,
    /// Designs per second of the median pass.
    designs_per_sec: f64,
    search: SearchStats,
}

/// Regime (b) of Fig. 8 — the default memory pool on 16x16, 32x32 and
/// 64x64 arrays at GB 128 b/cy, bandwidth-aware, under the DSE's default
/// search settings — one design per `explore_with_stats` call, in a
/// fixed shuffled order. Every pass must price every design identically.
fn sweep_row() -> SweepRow {
    let layer = Layer::matmul("dse", 256, 256, 64, Precision::int8_out24());
    let opts = ExploreOptions::default();
    let designs = enumerate_designs(&MemoryPool::default(), &[16, 32, 64], 128);
    // A fixed Fisher-Yates shuffle (xorshift64), so a design's
    // neighbours are not its memory variants.
    let mut order: Vec<usize> = (0..designs.len()).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..order.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let pass = |times: &mut Vec<f64>| {
        let mut points = Vec::with_capacity(designs.len());
        let mut search = SearchStats::default();
        let t0 = Instant::now();
        for &i in &order {
            let t = Instant::now();
            let (p, stats) = explore_with_stats(std::slice::from_ref(&designs[i]), &layer, &opts);
            times.push(t.elapsed().as_secs_f64());
            search.absorb(&stats.search);
            points.push((i, p));
        }
        let secs = t0.elapsed().as_secs_f64();
        points.sort_by_key(|&(i, _)| i);
        (points, search, secs)
    };
    let (want, search, _) = pass(&mut Vec::new());
    let (mut times, mut passes) = (Vec::new(), Vec::new());
    for _ in 0..SWEEP_PASSES {
        let (points, stats, secs) = pass(&mut times);
        assert!(
            points == want && stats == search,
            "a sweep pass priced differently"
        );
        passes.push(secs);
    }
    SweepRow {
        workload: format!(
            "Fig. 8 regime (b): matmul 256x256x64, default pool on 16/32/64 arrays, GB 128 b/cy, \
             bw-aware, one design per explore_with_stats call, fixed shuffled order, \
             {SWEEP_PASSES} passes after a warm-up"
        ),
        designs: designs.len(),
        design: Spread::of(times),
        designs_per_sec: designs.len() as f64 / median(passes),
        search,
    }
}

/// Median wall time of `reps` alternating runs of both walks; the class
/// walk's best score must equal the permutation walk's bit for bit.
fn walk_row(
    key: &'static str,
    workload: String,
    arch: &Architecture,
    layer: &Layer,
    spatial: &SpatialUnroll,
    reps: usize,
) -> WalkRow {
    let mapper = Mapper::new(arch, layer, spatial.clone()).with_options(MapperOptions {
        max_exhaustive: u128::MAX,
        ..MapperOptions::default()
    });
    let (mut perm, mut class) = (Vec::new(), Vec::new());
    let (mut perm_generated, mut class_generated) = (0, 0);
    for _ in 0..reps {
        let t = Instant::now();
        let (bits, generated) = permutation_walk(&mapper, arch, layer, spatial);
        perm.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let r = mapper
            .search(Objective::Latency)
            .expect("a legal ordering exists");
        class.push(t.elapsed().as_secs_f64());
        assert!(r.exhaustive);
        assert_eq!(bits, r.best.latency.cc_total.to_bits(), "{workload}");
        (perm_generated, class_generated) = (generated, r.stats.generated);
    }
    WalkRow {
        key,
        workload,
        space: mapper.space_size(),
        perm_secs: median(perm),
        perm_generated,
        class_secs: median(class),
        class_generated,
    }
}

/// Fig. 8 forced exhaustive, the serve-cold prefill `q_proj` net layer,
/// and a serve-cold search space under 500 orderings.
fn walk_rows() -> Vec<WalkRow> {
    let (arch, layer, spatial) = setup();
    let mut rows = vec![walk_row(
        "fig8",
        "case_study_chip(128) matmul 64x96x640, spatial K16 B8 C2".into(),
        &arch,
        &layer,
        &spatial,
        5,
    )];
    let case32 = presets::scaled_case_study_chip(32, 512);
    let q_proj = networks::attention_prefill()
        .into_iter()
        .find(|l| l.name() == "q_proj")
        .expect("prefill has q_proj");
    rows.push(walk_row(
        "prefill_q_proj",
        "attention-prefill q_proj 128x256x256 on case32, GB 512 bit/cycle".into(),
        &case32.arch,
        &q_proj,
        &SpatialUnroll::new(case32.spatial.clone()),
        9,
    ));
    let case16 = presets::scaled_case_study_chip(16, 128);
    rows.push(walk_row(
        "small",
        "matmul 64x32x32 on case16, GB 128 bit/cycle".into(),
        &case16.arch,
        &Layer::matmul("small", 64, 32, 32, Precision::int8_out24()),
        &SpatialUnroll::new(case16.spatial.clone()),
        101,
    ));
    rows
}

/// One energy-bearing objective's Fig. 8 forced-exhaustive search.
struct ObjectiveRow {
    key: &'static str,
    secs: f64,
    generated: usize,
    evaluated: usize,
    score_bits: u64,
}

/// Median wall time of five serial `Mapper::search` runs per
/// energy-bearing objective, forced exhaustive on the Fig. 8 workload.
fn objective_rows(opts: MapperOptions) -> Vec<ObjectiveRow> {
    let (arch, layer, spatial) = setup();
    let mapper = Mapper::new(&arch, &layer, spatial).with_options(opts);
    [("energy", Objective::Energy), ("edp", Objective::Edp)]
        .into_iter()
        .map(|(key, obj)| {
            let mut secs = Vec::new();
            let mut last = None;
            for _ in 0..5 {
                let t = Instant::now();
                let r = mapper.search(obj).expect("a legal ordering exists");
                secs.push(t.elapsed().as_secs_f64());
                last = Some(r);
            }
            let r = last.expect("ran five times");
            ObjectiveRow {
                key,
                secs: median(secs),
                generated: r.stats.generated,
                evaluated: r.stats.evaluated,
                score_bits: r.best.score(obj).to_bits(),
            }
        })
        .collect()
}

struct Snapshot {
    nproc: usize,
    walks: Vec<WalkRow>,
    space: u128,
    baseline_secs: f64,
    baseline_allocs_per_ordering: f64,
    baseline_score_bits: u64,
    batched_secs: Spread,
    batched_allocs_per_ordering: f64,
    batched_pruned: usize,
    batched_cache_hits: u64,
    batched_score_bits: u64,
    objectives: Vec<ObjectiveRow>,
    design: DesignRows,
    sweep: SweepRow,
    model_iters: u64,
    model_eval_secs: Spread,
    model_eval_fast_secs: Spread,
    model_bits_identical: bool,
    delta_iters: u64,
    delta_full_secs: Spread,
    delta_incr_secs: Spread,
    delta_stages_rebuilt: u32,
    delta_stages_skipped: u32,
    delta_bits_identical: bool,
    surrogate_iters: u64,
    surrogate_secs: Spread,
    surrogate_cold_secs: Spread,
    surrogate_full_secs: Spread,
    surrogate_bits_identical: bool,
}

/// Wall-clock measurement of the two search flavors over the identical
/// exhaustive ordering space: the allocating baseline once, the batched
/// search as a median over repeats.
fn measure() -> Snapshot {
    let (arch, layer, spatial) = setup();
    let opts = MapperOptions {
        max_exhaustive: 1_000_000, // force exhaustive enumeration
        ..MapperOptions::default()
    };

    // Baseline: the pre-optimization search loop — every ordering goes
    // through the allocating `evaluate_ordering` path, first-strictly-
    // better argmin.
    let mapper = Mapper::new(&arch, &layer, spatial.clone()).with_options(opts);
    let factors = mapper.factors();
    let space = mapper.space_size();
    let a0 = allocs();
    let t0 = Instant::now();
    let mut best: Option<EvaluatedMapping> = None;
    // First strictly better energy and EDP scores of the same walk, to
    // check the energy-bearing searches against.
    let (mut best_energy, mut best_edp) = (f64::INFINITY, f64::INFINITY);
    let mut generated = 0u64;
    enumerate::for_each_ordering(&factors, |ordering| {
        generated += 1;
        if let Some(em) = mapper.evaluate_ordering(ordering) {
            best_energy = best_energy.min(em.score(Objective::Energy));
            best_edp = best_edp.min(em.score(Objective::Edp));
            let better = best
                .as_ref()
                .map(|b| em.score(Objective::Latency) < b.score(Objective::Latency))
                .unwrap_or(true);
            if better {
                best = Some(em);
            }
        }
        true
    });
    let baseline_secs = t0.elapsed().as_secs_f64();
    let baseline_allocs = allocs() - a0;
    let best = best.expect("baseline finds a legal mapping");
    assert_eq!(generated as u128, space);

    // The batched search: repeats, median and IQR.
    let batched_mapper = Mapper::new(&arch, &layer, spatial).with_options(opts);
    let mut batched_times = Vec::new();
    let mut batched_allocs = 0;
    let mut batched = None;
    for rep in 0..SEARCH_REPEATS {
        let a = allocs();
        let t = Instant::now();
        let r = batched_mapper
            .search(Objective::Latency)
            .expect("batched search finds a legal mapping");
        batched_times.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            batched_allocs = allocs() - a;
        }
        batched = Some(r);
    }
    let batched = batched.expect("ran");
    let batched_secs = Spread::of(batched_times);

    let objectives = objective_rows(opts);

    // All must agree bit-for-bit (the equivalence property tests check
    // this exhaustively; the bench double-checks its own run).
    let baseline_bits = best.latency.cc_total.to_bits();
    assert_eq!(baseline_bits, batched.best.latency.cc_total.to_bits());
    assert_eq!(best.mapping, batched.best.mapping);
    assert_eq!(objectives[0].score_bits, best_energy.to_bits());
    assert_eq!(objectives[1].score_bits, best_edp.to_bits());

    // Report-assembling vs scratch-based latency evaluation on the best
    // mapping: both run the same lowering + Steps 2-3 core, so the only
    // difference is report assembly vs scalar reuse.
    let view = MappedLayer::new(&layer, &arch, &batched.best.mapping).expect("legal best mapping");
    let model = LatencyModel::new();
    let mut scratch = ModelScratch::default();
    let model_iters: u64 = 1_000;
    let (model_eval_secs, slow_bits) = time_loops(model_iters, || {
        black_box(model.evaluate(&view)).cc_total.to_bits()
    });
    let (model_eval_fast_secs, fast_bits) = time_loops(model_iters, || {
        black_box(model.evaluate_fast(&view, &mut scratch))
            .cc_total
            .to_bits()
    });

    // Delta evaluation: re-evaluating a one-knob GB-bandwidth neighbor
    // of the design, as `ulm whatif --set mem.GB.bw=2x` does. Full =
    // from-scratch lowering + Steps 1-3 per point; incremental = only
    // the bandwidth-dirty stages (phase inputs + DTL stall refresh) on
    // the cached lowering.
    let (neighbor, delta) =
        apply_overrides(&arch, &["mem.GB.bw=2x"]).expect("GB bandwidth knob applies");
    let neighbor_view = MappedLayer::new(&layer, &neighbor, &batched.best.mapping)
        .expect("bandwidth does not affect capacity legality");
    let delta_iters: u64 = 1_000;
    let (delta_full_secs, full_bits) = time_loops(delta_iters, || {
        black_box(model.evaluate_fast(&neighbor_view, &mut scratch))
            .cc_total
            .to_bits()
    });
    // Prime the scratch on the base design, then hit the neighbor with
    // only the bandwidth delta, steady-state.
    model.evaluate_delta_fast(&view, InputDelta::ALL, &mut scratch);
    let mut rebuild = RebuildStats::default();
    let (delta_incr_secs, incr_bits) = time_loops(delta_iters, || {
        let (f, stats) = model.evaluate_delta_fast(black_box(&neighbor_view), delta, &mut scratch);
        rebuild = stats;
        black_box(f).cc_total.to_bits()
    });

    // Specialized surrogate: fix the model to the (arch, incumbent
    // shape) pair, then answer the Fig. 8 workload point. The
    // steady-state loop is serve's repeated-request pattern (the first
    // query evaluates, repeats hit the point memo); the cold loop clears
    // the memo every iteration to price one evaluation. The baseline is
    // the full fixed-arch path a sweep client would otherwise run per
    // point: greedy allocation + validation + `evaluate_fast` on a warm
    // scratch — the path a cold query runs, so the two cold rates
    // should agree.
    let shape =
        MappingShape::from_mapping(&batched.best.mapping).expect("matmul incumbents have shapes");
    let surrogate_spatial = shape.spatial().clone();
    let surrogate_stack = batched.best.mapping.stack().clone();
    let mut spec = SpecializedModel::prepare(LatencyModel::new(), &arch, &layer, shape)
        .expect("matmul templates specialize");
    let surrogate_iters: u64 = 2_000;
    let (surrogate_secs, surrogate_bits) = time_loops(surrogate_iters, || {
        black_box(
            spec.query(black_box(64), 96, 640)
                .expect("the Fig. 8 point is feasible"),
        )
        .cc_total
        .to_bits()
    });
    // Cold rate: clearing the point memo before each query forces a full
    // evaluation every time.
    let (surrogate_cold_secs, surrogate_cold_bits) = time_loops(surrogate_iters, || {
        spec.clear_memo();
        black_box(
            spec.query(black_box(64), 96, 640)
                .expect("the Fig. 8 point is feasible"),
        )
        .cc_total
        .to_bits()
    });
    let (surrogate_full_secs, surrogate_full_bits) = time_loops(surrogate_iters, || {
        let m = Mapping::with_greedy_alloc(
            &arch,
            &layer,
            surrogate_spatial.clone(),
            surrogate_stack.clone(),
        )
        .expect("incumbent stack stays legal");
        let v = MappedLayer::new(&layer, &arch, &m).expect("legal mapping");
        black_box(model.evaluate_fast(&v, &mut scratch))
            .cc_total
            .to_bits()
    });

    Snapshot {
        nproc: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        walks: walk_rows(),
        space,
        baseline_secs,
        baseline_allocs_per_ordering: baseline_allocs as f64 / generated as f64,
        baseline_score_bits: baseline_bits,
        batched_secs,
        batched_allocs_per_ordering: batched_allocs as f64 / generated as f64,
        batched_pruned: batched.stats.pruned,
        batched_cache_hits: batched.stats.cache_hits,
        batched_score_bits: batched.best.latency.cc_total.to_bits(),
        objectives,
        design: design_rows(),
        sweep: sweep_row(),
        model_iters,
        model_eval_secs,
        model_eval_fast_secs,
        model_bits_identical: slow_bits == fast_bits,
        delta_iters,
        delta_full_secs,
        delta_incr_secs,
        delta_stages_rebuilt: rebuild.stages_rebuilt,
        delta_stages_skipped: rebuild.stages_skipped,
        delta_bits_identical: full_bits == incr_bits,
        surrogate_iters,
        surrogate_secs,
        surrogate_cold_secs,
        surrogate_full_secs,
        surrogate_bits_identical: surrogate_bits == surrogate_full_bits
            && surrogate_cold_bits == surrogate_full_bits,
    }
}

fn json_path() -> PathBuf {
    std::env::var_os("BENCH_MAPPER_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_mapper.json")
        })
}

fn write_snapshot(s: &Snapshot) {
    let n = s.space as f64;
    let baseline_ops = n / s.baseline_secs;
    let batched_ops = n / s.batched_secs.median;
    let mut walks = String::new();
    for w in &s.walks {
        walks.push_str(&format!(
            "  \"{k}_workload\": \"{}\",\n  \
             \"{k}_orderings\": {},\n  \
             \"{k}_permutation_secs\": {:.6},\n  \
             \"{k}_permutation_generated\": {},\n  \
             \"{k}_class_secs\": {:.6},\n  \
             \"{k}_class_generated\": {},\n  \
             \"{k}_class_speedup\": {:.2},\n",
            w.workload,
            w.space,
            w.perm_secs,
            w.perm_generated,
            w.class_secs,
            w.class_generated,
            w.perm_secs / w.class_secs,
            k = w.key,
        ));
    }
    let mut objectives = String::new();
    for o in &s.objectives {
        objectives.push_str(&format!(
            "  \"{k}_secs\": {:.6},\n  \
             \"{k}_orderings_per_sec\": {:.1},\n  \
             \"{k}_generated\": {},\n  \
             \"{k}_evaluated\": {},\n",
            o.secs,
            n / o.secs,
            o.generated,
            o.evaluated,
            k = o.key,
        ));
    }
    let d = &s.design;
    let design = format!(
        "  \"dse_design_workload\": \"{}\",\n  \"dse_design_repeats\": {DESIGN_REPEATS},\n  \
         \"dse_design_generated\": {},\n{}{}{}{}  \
         \"dse_design_search_fast_speedup\": {:.2},\n  \
         \"dse_design_memo_speedup\": {:.2}\n",
        d.workload,
        d.generated,
        d.search.json("dse_design_search"),
        d.search_fast.json("dse_design_search_fast"),
        d.cold_space.json("dse_design_cold_space"),
        d.memo_hit.json("dse_design_memo_hit"),
        d.search.median / d.search_fast.median,
        d.cold_space.median / d.memo_hit.median,
    );
    let w = &s.sweep;
    let sweep = format!(
        "  \"dse_sweep_workload\": \"{}\",\n  \"dse_sweep_designs\": {},\n{}  \
         \"dse_sweep_designs_per_sec\": {:.1},\n  \"dse_sweep_generated\": {},\n  \
         \"dse_sweep_evaluated\": {},\n  \"dse_sweep_pruned\": {},\n  \
         \"dse_sweep_prefix_reuses\": {},\n",
        w.workload,
        w.designs,
        w.design.json("dse_sweep_design"),
        w.designs_per_sec,
        w.search.generated,
        w.search.evaluated,
        w.search.pruned,
        w.search.cache_hits,
    );
    let loops = [
        s.model_eval_secs.json("model_eval"),
        s.model_eval_fast_secs.json("model_eval_fast"),
        s.delta_full_secs.json("delta_full"),
        s.delta_incr_secs.json("delta_incremental"),
        s.surrogate_secs.json("surrogate"),
        s.surrogate_cold_secs.json("surrogate_cold"),
        s.surrogate_full_secs.json("surrogate_full_path"),
    ]
    .concat();
    let json = format!(
        "{{\n  \"nproc\": {},\n{walks}  \
         \"workload\": \"fig8-dse case_study_chip(128) matmul 64x96x640, spatial K16 B8 C2\",\n  \
         \"orderings\": {},\n  \
         \"baseline_secs\": {:.6},\n  \
         \"baseline_orderings_per_sec\": {:.1},\n  \
         \"baseline_allocs_per_ordering\": {:.2},\n  \
         \"search_repeats\": {SEARCH_REPEATS},\n{}  \
         \"batched_orderings_per_sec\": {:.1},\n  \
         \"batched_allocs_per_ordering\": {:.4},\n  \
         \"batched_speedup\": {:.2},\n{objectives}  \
         \"pruned\": {},\n  \
         \"prefix_reuses\": {},\n  \
         \"results_bit_identical\": {},\n  \
         \"loop_repeats\": {LOOP_REPEATS},\n  \
         \"model_iters\": {},\n  \
         \"delta_iters\": {},\n  \
         \"surrogate_iters\": {},\n{loops}  \
         \"model_evaluate_per_sec\": {:.1},\n  \
         \"model_evaluate_fast_per_sec\": {:.1},\n  \
         \"model_fast_speedup\": {:.2},\n  \
         \"model_bits_identical\": {},\n  \
         \"delta_workload\": \"one-knob neighbor mem.GB.bw=2x of the best Fig. 8 mapping\",\n  \
         \"delta_full_points_per_sec\": {:.1},\n  \
         \"delta_incremental_points_per_sec\": {:.1},\n  \
         \"delta_eval_speedup\": {:.2},\n  \
         \"delta_stages_rebuilt\": {},\n  \
         \"delta_stages_skipped\": {},\n  \
         \"delta_bits_identical\": {},\n  \
         \"surrogate_workload\": \"Fig. 8 point 64x96x640 on the (case-study arch, incumbent shape) specialization\",\n  \
         \"surrogate_points_per_sec\": {:.1},\n  \
         \"surrogate_cold_points_per_sec\": {:.1},\n  \
         \"surrogate_full_path_points_per_sec\": {:.1},\n  \
         \"surrogate_vs_fast_speedup\": {:.2},\n  \
         \"surrogate_cold_vs_full_speedup\": {:.2},\n  \
         \"surrogate_bits_identical\": {},\n{sweep}{design}}}\n",
        s.nproc,
        s.space,
        s.baseline_secs,
        baseline_ops,
        s.baseline_allocs_per_ordering,
        s.batched_secs.json("batched"),
        batched_ops,
        s.batched_allocs_per_ordering,
        s.baseline_secs / s.batched_secs.median,
        s.batched_pruned,
        s.batched_cache_hits,
        s.baseline_score_bits == s.batched_score_bits,
        s.model_iters,
        s.delta_iters,
        s.surrogate_iters,
        s.model_iters as f64 / s.model_eval_secs.median,
        s.model_iters as f64 / s.model_eval_fast_secs.median,
        s.model_eval_secs.median / s.model_eval_fast_secs.median,
        s.model_bits_identical,
        s.delta_iters as f64 / s.delta_full_secs.median,
        s.delta_iters as f64 / s.delta_incr_secs.median,
        s.delta_full_secs.median / s.delta_incr_secs.median,
        s.delta_stages_rebuilt,
        s.delta_stages_skipped,
        s.delta_bits_identical,
        s.surrogate_iters as f64 / s.surrogate_secs.median,
        s.surrogate_iters as f64 / s.surrogate_cold_secs.median,
        s.surrogate_iters as f64 / s.surrogate_full_secs.median,
        s.surrogate_full_secs.median / s.surrogate_secs.median,
        s.surrogate_full_secs.median / s.surrogate_cold_secs.median,
        s.surrogate_bits_identical,
    );
    let path = json_path();
    fs::write(&path, json).expect("write BENCH_mapper.json");
    println!(
        "[bench] {} orderings: baseline {:.0}/s, batched {:.0}/s ({:.1}x)",
        s.space,
        baseline_ops,
        batched_ops,
        s.baseline_secs / s.batched_secs.median,
    );
    for o in &s.objectives {
        println!(
            "[bench] {} search: {:.2} ms ({:.0}/s), {} generated, {} evaluated",
            o.key,
            o.secs * 1e3,
            n / o.secs,
            o.generated,
            o.evaluated,
        );
    }
    println!(
        "[bench] latency model: evaluate {:.0}/s vs evaluate_fast {:.0}/s ({:.1}x)",
        s.model_iters as f64 / s.model_eval_secs.median,
        s.model_iters as f64 / s.model_eval_fast_secs.median,
        s.model_eval_secs.median / s.model_eval_fast_secs.median,
    );
    println!(
        "[bench] delta eval (mem.GB.bw=2x neighbor): full {:.0}/s vs incremental {:.0}/s \
         ({:.1}x, {} stages rebuilt / {} skipped, identical: {})",
        s.delta_iters as f64 / s.delta_full_secs.median,
        s.delta_iters as f64 / s.delta_incr_secs.median,
        s.delta_full_secs.median / s.delta_incr_secs.median,
        s.delta_stages_rebuilt,
        s.delta_stages_skipped,
        s.delta_bits_identical,
    );
    println!(
        "[bench] surrogate (Fig. 8 point): specialized {:.0}/s (cold {:.0}/s) vs full path \
         {:.0}/s ({:.1}x, cold {:.1}x, identical: {})",
        s.surrogate_iters as f64 / s.surrogate_secs.median,
        s.surrogate_iters as f64 / s.surrogate_cold_secs.median,
        s.surrogate_iters as f64 / s.surrogate_full_secs.median,
        s.surrogate_full_secs.median / s.surrogate_secs.median,
        s.surrogate_full_secs.median / s.surrogate_cold_secs.median,
        s.surrogate_bits_identical,
    );
    for w in &s.walks {
        println!(
            "[bench] {}: {} orderings, permutation walk {:.2} ms ({} generated) vs class walk \
             {:.2} ms ({} generated), {:.1}x",
            w.workload,
            w.space,
            w.perm_secs * 1e3,
            w.perm_generated,
            w.class_secs * 1e3,
            w.class_generated,
            w.perm_secs / w.class_secs,
        );
    }
    println!(
        "[bench] {}: search {:.1} us vs search_fast {:.1} us ({:.2}x); cold space {:.1} us vs \
         memo hit {:.1} us ({:.2}x)",
        d.workload,
        d.search.median * 1e6,
        d.search_fast.median * 1e6,
        d.search.median / d.search_fast.median,
        d.cold_space.median * 1e6,
        d.memo_hit.median * 1e6,
        d.cold_space.median / d.memo_hit.median,
    );
    println!(
        "[bench] {}: {} designs, {:.1} us per design (q1 {:.1}, q3 {:.1}), {:.0} designs/s",
        w.workload,
        w.designs,
        w.design.median * 1e6,
        w.design.q1 * 1e6,
        w.design.q3 * 1e6,
        w.designs_per_sec,
    );
    println!("[json] {}", path.display());
}

fn bench_hot_path(c: &mut Criterion) {
    let snapshot = measure();
    write_snapshot(&snapshot);

    // Per-ordering microbench: the allocating report path on a
    // representative ordering.
    let (arch, layer, spatial) = setup();
    let mapper = Mapper::new(&arch, &layer, spatial);
    let factors = mapper.factors();
    let mut ordering = Vec::new();
    enumerate::for_each_ordering(&factors, |o| {
        ordering = o.to_vec();
        false // keep only the first ordering
    });

    let mut g = c.benchmark_group("mapper_hot_path");
    g.bench_function("evaluate_ordering_slow", |b| {
        b.iter(|| black_box(mapper.evaluate_ordering(black_box(&ordering))))
    });
    g.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
