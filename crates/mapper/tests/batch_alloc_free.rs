//! Counting-allocator proof that the batched SoA kernel is
//! allocation-free in steady state for every objective: after one
//! warm-up sweep has sized the lane rows, the stall scratch and the
//! energy scorer's traffic table,
//! replaying the whole ordering space through `push`/`drain` performs
//! zero heap allocations.
//!
//! This file is its own test binary (integration test) so the global
//! allocator swap cannot interfere with other tests, and it contains a
//! single `#[test]` so no concurrent test thread can allocate while the
//! steady-state window is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ulm_arch::presets;
use ulm_energy::EnergyModel;
use ulm_mapper::{enumerate, Mapper};
use ulm_mapping::SpatialUnroll;
use ulm_model::{BatchKernel, LaneObjective, LaneOutcome, LatencyModel};
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
    for ordering in orderings {
        if kernel.is_full() {
            drain(kernel, &mut incumbent);
        }
        kernel.push(ordering);
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
}
