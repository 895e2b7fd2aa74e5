//! Counting-allocator proof that the batched kernel is
//! allocation-free in steady state for every objective: after one
//! warm-up sweep has sized the lane rows, the stall scratch and the
//! energy scorer's traffic table,
//! replaying the whole ordering space through `push`/`drain` performs
//! zero heap allocations. The same holds for a column-fed sampled search
//! (`push_candidate` over a `FoldedSpace`), and a latency kernel built
//! over a warm fold allocates nothing from construction to drop: it
//! refolds the design into the fold's own lane buffers.
//!
//! This file is its own test binary (integration test) so the global
//! allocator swap cannot interfere with other tests, and it contains a
//! single `#[test]` so no concurrent test thread can allocate while the
//! steady-state window is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use std::rc::Rc;
use ulm_arch::presets;
use ulm_energy::EnergyModel;
use ulm_mapper::{enumerate, Mapper, MapperOptions};
use ulm_mapping::SpatialUnroll;
use ulm_model::{BatchKernel, FoldedSpace, LaneObjective, LaneOutcome, LatencyModel};
use ulm_workload::{Layer, Precision};

/// Wraps the system allocator and counts every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One full sweep of `orderings` through the kernel with incumbent
/// threading, exactly like the mapper's batched chunk loop. Returns
/// (evaluated, pruned, best) so sweeps can be cross-checked.
fn sweep(
    kernel: &mut BatchKernel<'_>,
    orderings: &[Vec<(ulm_workload::Dim, u64)>],
) -> (u64, u64, Option<f64>) {
    sweep_with(kernel, orderings.len(), |k, i| k.push(&orderings[i]))
}

/// [`sweep`] over `count` lanes that `push` fills, by ordering or by
/// folded candidate index.
fn sweep_with(
    kernel: &mut BatchKernel<'_>,
    count: usize,
    mut push: impl FnMut(&mut BatchKernel<'_>, usize),
) -> (u64, u64, Option<f64>) {
    let mut evaluated = 0u64;
    let mut pruned = 0u64;
    let mut incumbent: Option<f64> = None;
    let mut drain = |k: &mut BatchKernel<'_>, inc: &mut Option<f64>| {
        let mut cur = *inc;
        k.drain(cur, |_, outcome| {
            match outcome {
                LaneOutcome::Scored(s) => {
                    evaluated += 1;
                    if cur.map(|b| s < b).unwrap_or(true) {
                        cur = Some(s);
                    }
                }
                LaneOutcome::Pruned => pruned += 1,
                LaneOutcome::Illegal => {}
            }
            cur
        });
        *inc = cur;
    };
    for i in 0..count {
        if kernel.is_full() {
            drain(kernel, &mut incumbent);
        }
        push(kernel, i);
    }
    drain(kernel, &mut incumbent);
    (evaluated, pruned, incumbent)
}

#[test]
fn steady_state_batched_kernel_allocates_nothing() {
    let chip = presets::toy_chip();
    let layer = Layer::matmul("batch-alloc-probe", 8, 8, 16, Precision::int8_acc24());
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let mapper = Mapper::new(&chip.arch, &layer, spatial.clone());

    // Materialize the ordering space up front (this allocates, and
    // that's fine — it happens before the measured window).
    let factors = mapper.factors();
    let mut orderings: Vec<Vec<(ulm_workload::Dim, u64)>> = Vec::new();
    enumerate::for_each_ordering(&factors, |o| {
        orderings.push(o.to_vec());
        true
    });
    assert!(
        orderings.len() > 100,
        "need a non-trivial space, got {}",
        orderings.len()
    );

    let energy = || EnergyModel::new().lane_energy(&chip.arch, &layer);
    for (name, lanes) in ["latency", "energy", "edp"]
        .into_iter()
        .flat_map(|name| [(name, 8usize), (name, 64)])
    {
        let objective = match name {
            "latency" => LaneObjective::Latency,
            "energy" => LaneObjective::Energy(energy()),
            _ => LaneObjective::Edp(energy()),
        };
        let model = LatencyModel::new();
        let mut kernel = BatchKernel::new(
            &chip.arch, &layer, &spatial, model, &factors, lanes, objective,
        );

        // Warm-up sweep: grows the lane rows, the stall scratch and the
        // energy traffic table to their high-water marks.
        let warm = sweep(&mut kernel, &orderings);
        assert!(warm.0 > 0, "{name} lanes {lanes}: warm-up scored nothing");

        // Steady state: the identical sweep must not touch the heap.
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let steady = sweep(&mut kernel, &orderings);
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(warm, steady, "{name} lanes {lanes}: sweeps diverged");
        assert_eq!(
            after - before,
            0,
            "{name} lanes {lanes}: steady-state sweep over {} orderings performed {} heap \
             allocations",
            orderings.len(),
            after - before
        );
    }
    steady_state_folded_kernel_allocates_nothing();
}

/// Allocations `f` performs.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// The folded half of the test: `push_candidate` sweeps over a
/// `FoldedSpace`.
fn steady_state_folded_kernel_allocates_nothing() {
    let chip = presets::scaled_case_study_chip(16, 128);
    let layer = Layer::matmul("fold-alloc-probe", 64, 96, 640, Precision::int8_out24());
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let mapper = Mapper::new(&chip.arch, &layer, spatial.clone()).with_options(MapperOptions {
        max_exhaustive: 100,
        samples: 60,
        ..MapperOptions::default()
    });
    let space = mapper.space();
    assert!(!space.exhaustive() && space.candidate_count() > 60);
    let fold = || {
        let candidates = (0..space.candidate_count()).map(|i| space.candidate(i));
        Rc::new(FoldedSpace::fold(
            &chip.arch,
            &layer,
            &spatial,
            space.factors(),
            candidates,
            8,
        ))
    };
    let model = LatencyModel::new();
    let energy = || EnergyModel::new().lane_energy(&chip.arch, &layer);
    for name in ["latency", "energy", "edp"] {
        let objective = match name {
            "latency" => LaneObjective::Latency,
            "energy" => LaneObjective::Energy(energy()),
            _ => LaneObjective::Edp(energy()),
        };
        let folded = fold();
        let count = folded.candidate_count();
        let mut kernel = BatchKernel::from_folded(&chip.arch, &layer, folded, model, 8, objective);
        let by_index = |k: &mut BatchKernel<'_>, i: usize| k.push_candidate(i);
        let warm = sweep_with(&mut kernel, count, by_index);
        assert!(warm.0 > 0, "{name}: warm-up scored nothing");
        let (steady, allocs) = allocations_of(|| sweep_with(&mut kernel, count, by_index));
        assert_eq!(warm, steady, "{name}: sweeps diverged");
        assert_eq!(
            allocs, 0,
            "{name}: steady-state folded sweep over {count} candidates allocated {allocs} times"
        );
    }

    // A latency kernel over a warm fold: construction, the sweep and the
    // drop that returns the lane buffers allocate nothing.
    let folded = fold();
    let count = folded.candidate_count();
    let design = |folded: &Rc<FoldedSpace>| {
        let mut kernel = BatchKernel::from_folded(
            &chip.arch,
            &layer,
            Rc::clone(folded),
            model,
            8,
            LaneObjective::Latency,
        );
        let outcome = sweep_with(&mut kernel, count, |k, i| k.push_candidate(i));
        (outcome, kernel.cache_hits())
    };
    let warm = design(&folded);
    let (steady, allocs) = allocations_of(|| design(&folded));
    assert_eq!(warm, steady, "designs diverged");
    assert_eq!(
        allocs, 0,
        "a design over a warm fold allocated {allocs} times"
    );
}
