//! The **`LoweredLayer` evaluation IR**: one lowering pass from a
//! [`MappedLayer`] to everything the downstream consumers need.
//!
//! The paper's Step 1 ("Divide") produces exactly one artifact — the
//! per-operand unit-memory/DTL graph with `Mem_DATA`, `Mem_CC`, `ReqBW_u`
//! and `Z` — yet latency, energy and simulation all read overlapping
//! pieces of it. `LoweredLayer` materializes that artifact once:
//!
//! ```text
//! Layer → Mapping → MappedLayer → LoweredLayer → {latency, energy, sim, network}
//! ```
//!
//! The IR holds, per `(operand, level)`:
//!
//! * the residency/turnaround table ([`LevelLowering`]): `Mem_DATA` words,
//!   `Mem_CC`, `Z`, the top irrelevant-run, the exact distinct-content
//!   transfer count, the distinct-block count, and output finality;
//! * the loops above the level (a flat `(size, relevant)` arena) together
//!   with the mixed-radix [`region`](LoweredLayer::region) arithmetic the
//!   simulator uses to discover which periods move data;
//!
//! plus the layer-wide quantities: the Step-1 DTL list, per-operand
//! compute feed rates, and the phase inputs (`preload`, `offload`,
//! `CC_ideal`, `CC_spatial`).
//!
//! Construction is a single pass over the view. [`LoweredLayer::build`]
//! allocates an owned IR for long-lived use (e.g. one per layer in
//! `ulm-network`); [`LoweredLayer::build_into`] refills an existing IR
//! reusing its capacity, which is what keeps the mapper's hot path
//! allocation-free (the IR lives inside
//! [`ModelScratch`](crate::ModelScratch)).

use crate::delta::{InputDelta, RebuildStats, Stage};
use crate::dtl::{self, Dtl, DtlOptions};
use crate::fast::FastLatency;
use crate::phases;
use crate::slots::LiveSlots;
use ulm_mapping::{MappedLayer, SpatialUnroll};
use ulm_workload::{Layer, Operand, Relevance};

/// Residency pins for one lowering: `Some(level)` per operand keeps that
/// operand resident at `level`, eliding every inter-memory interface at
/// or above it (no refills from / drains to the levels above — the
/// depth-first-fusion and KV-cache contract). `None` leaves the operand's
/// full chain active.
pub type ResidencyPins = [Option<usize>; 3];

/// Interfaces of `op`'s chain that carry traffic for an *unpinned*
/// lowering of `layer`: normally `chain_len - 1` (every inter-memory
/// interface), one fewer for a KV-cache resident operand, whose top
/// interface never moves data within a decode step.
///
/// Reads only workload structure — never capacities or bandwidths — so
/// incremental-relowering deltas can ignore it.
pub fn kv_active_interfaces(layer: &Layer, op: Operand, chain_len: usize) -> usize {
    let base = chain_len.saturating_sub(1);
    if layer.is_kv_cache(op) {
        base.min(chain_len.saturating_sub(2))
    } else {
        base
    }
}

/// The lowered residency/turnaround table of one `(operand, level)`.
///
/// All fields are exact integers derived from the mapping, so consumers
/// reading them reproduce the source arithmetic bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLowering {
    /// `Mem_DATA` in words: data of the operand resident at this level.
    pub words: u64,
    /// `Mem_CC`: the block turnaround period in cycles.
    pub period: u64,
    /// `Z`: number of periods over the computation phase.
    pub z: u64,
    /// Product of the consecutive irrelevant-loop run at the top of the
    /// level's own loop range (the Table-I window scale factor).
    pub run: u64,
    /// Exact number of distinct-content block transfers into (W/I) or out
    /// of (O) the level over the whole layer.
    pub refills: u64,
    /// Number of distinct blocks seen above the level (revisits ignored).
    pub distinct_above: u64,
    /// True when no loop irrelevant to the operand remains above the
    /// level. For outputs this means blocks crossing the interface above
    /// are final (fully accumulated), not partial sums.
    pub final_above: bool,
}

/// Where a Step-1 body reads its per-`(operand, level)` rows: a
/// [`MappedLayer`] (derived on demand), a built [`LoweredLayer`], or one
/// lane of the batched kernel. Phases, DTLs, interface traffic and the
/// energy model's access counts are each written once against this
/// trait, so every source yields the same bits by construction.
pub trait Rows {
    /// Interfaces of `op`'s chain that carry traffic.
    fn active(&self, op: Operand) -> usize;
    /// The residency row of `(op, level)`.
    fn row(&self, op: Operand, level: usize) -> LevelLowering;
    /// Distinct words of `op` the MAC array touches per cycle.
    fn feed(&self, op: Operand) -> u64;
}

/// A [`MappedLayer`] read as [`Rows`], every field derived from the
/// view. The residency stage fills the IR through it, and the roofline
/// reads a view through it without lowering.
pub(crate) struct ViewRows<'v, 'a>(pub(crate) &'v MappedLayer<'a>);

impl Rows for ViewRows<'_, '_> {
    fn active(&self, op: Operand) -> usize {
        let chain_len = self.0.arch().hierarchy().chain(op).len();
        kv_active_interfaces(self.0.layer(), op, chain_len)
    }

    fn row(&self, op: Operand, level: usize) -> LevelLowering {
        let v = self.0;
        LevelLowering {
            words: v.mem_data_words(op, level),
            period: v.mem_cc(op, level),
            z: v.z(op, level),
            run: v.top_ir_run(op, level),
            refills: v.refill_count(op, level),
            distinct_above: v.distinct_blocks_above(op, level),
            final_above: !v.has_ir_above(op, level),
        }
    }

    fn feed(&self, op: Operand) -> u64 {
        feed_words(self.0.layer(), self.0.mapping().spatial(), op)
    }
}

/// Distinct words of `op` the MAC array touches per cycle: the product
/// of the spatial unroll factors relevant to `op` (irrelevant unrolls
/// broadcast one word).
pub(crate) fn feed_words(layer: &Layer, spatial: &SpatialUnroll, op: Operand) -> u64 {
    let rel = layer.operand_relevance(op);
    spatial
        .factors()
        .iter()
        .filter(|(d, _)| rel.get(*d) != Relevance::Irrelevant)
        .map(|&(_, f)| f)
        .product()
}

/// The build-once evaluation IR shared by the latency model (slow and
/// fast paths), the energy model, the simulator's schedule extraction and
/// the network evaluator. See the [module docs](self).
#[derive(Debug, Default)]
pub struct LoweredLayer {
    opts: DtlOptions,
    /// Residency pins requested at build time (fused segments).
    pins: ResidencyPins,
    /// Interfaces that carry traffic per operand: the pin-aware prefix
    /// length of each chain. Everything at or above it is elided.
    active: [u32; 3],
    /// Per-(operand, level) tables, operand-major.
    levels: Vec<LevelLowering>,
    /// `levels` range per operand: operand `k` owns
    /// `levels[offsets[k]..offsets[k + 1]]`.
    offsets: [usize; 4],
    /// Per `levels` entry: its range into `loops`.
    loop_ranges: Vec<(u32, u32)>,
    /// Flat `(size, relevant)` arena of the loops above each level,
    /// innermost-above first, indexed by `loop_ranges`.
    loops: Vec<(u64, bool)>,
    /// The Step-1 DTL list, in canonical build order.
    dtls: Vec<Dtl>,
    /// Distinct words of each operand the MAC array touches per cycle
    /// (the product of operand-relevant spatial unroll factors).
    words_per_cycle: [u64; 3],
    preload: u64,
    offload: u64,
    cc_ideal: f64,
    cc_spatial: u64,
    spatial_stall: f64,
}

impl LoweredLayer {
    /// Lowers `view` into a fresh, owned IR.
    pub fn build(view: &MappedLayer<'_>, opts: DtlOptions) -> Self {
        let mut out = Self::default();
        Self::build_into(view, opts, &mut out);
        out
    }

    /// Lowers `view` into `out`, reusing its buffers — the steady-state
    /// path allocates nothing once the buffers have grown to size.
    ///
    /// Runs the four pipeline stages in build order (see
    /// [`Stage`]); [`rebuild_dirty`](Self::rebuild_dirty) re-runs the
    /// same stage functions selectively.
    pub fn build_into(view: &MappedLayer<'_>, opts: DtlOptions, out: &mut LoweredLayer) {
        out.pins = [None; 3];
        out.rebuild_full(view, opts);
    }

    /// Lowers `view` with explicit residency pins: `pins[op]` keeps that
    /// operand resident at the given chain level, eliding every interface
    /// at or above it. A fused segment prices its elided DRAM round-trips
    /// by pinning the producer's output and the consumer's input at the
    /// fusion buffer; `[None; 3]` is bit-identical to [`build`](Self::build).
    pub fn build_pinned(view: &MappedLayer<'_>, opts: DtlOptions, pins: ResidencyPins) -> Self {
        let mut out = Self {
            pins,
            ..Self::default()
        };
        out.rebuild_full(view, opts);
        out
    }

    /// Runs all four stages, keeping `self.pins`. Every architecture
    /// constant is read through live `LiveSlots` lookups, the values the
    /// batched kernel folds into its tables.
    fn rebuild_full(&mut self, view: &MappedLayer<'_>, opts: DtlOptions) {
        self.opts = opts;
        self.stage_residency(view);
        self.stage_phases(view);
        // [`Stage::DtlGraph`]: Step 1 proper, read off the rows above.
        let slots = LiveSlots::new(view.arch().hierarchy());
        let mut dtls = std::mem::take(&mut self.dtls);
        dtl::build_dtls_with(view.layer().precision(), opts, &*self, &slots, &mut dtls);
        self.dtls = dtls;
    }

    /// [`Stage::Residency`] and [`Stage::FeedRates`]: the
    /// per-`(operand, level)` tables, the loops-above arena, the layer
    /// scalars and the compute feed rates. Reads workload, mapping and
    /// architecture structure (chain shapes) — never bandwidths or
    /// capacities.
    fn stage_residency(&mut self, view: &MappedLayer<'_>) {
        let rows = ViewRows(view);
        self.levels.clear();
        self.loop_ranges.clear();
        self.loops.clear();

        self.cc_ideal = view.cc_ideal();
        self.cc_spatial = view.cc_spatial();
        self.spatial_stall = view.spatial_stall();

        let stack = view.mapping().stack();
        for op in Operand::all() {
            self.offsets[op.index()] = self.levels.len();
            let rel = view.layer().operand_relevance(op);
            for level in 0..view.arch().hierarchy().chain(op).len() {
                let lo = self.loops.len() as u32;
                let from = view.mapping().alloc(op).upper(level);
                self.loops.extend(
                    stack.loops()[from..]
                        .iter()
                        .map(|l| (l.size, rel.get(l.dim).is_relevant())),
                );
                self.loop_ranges.push((lo, self.loops.len() as u32));
                self.levels.push(rows.row(op, level));
            }
            let pinned = self.pins[op.index()].unwrap_or(usize::MAX);
            self.active[op.index()] = rows.active(op).min(pinned) as u32;
            self.words_per_cycle[op.index()] = rows.feed(op);
        }
        self.offsets[3] = self.levels.len();
    }

    /// [`Stage::Phases`]: pre-load / off-load cycle counts. Reads port
    /// bandwidths, so a bandwidth delta re-runs it; block sizes come from
    /// the (clean) residency tables built by the stage before it.
    fn stage_phases(&mut self, view: &MappedLayer<'_>) {
        let precision = view.layer().precision();
        let slots = LiveSlots::new(view.arch().hierarchy());
        self.preload = phases::preload_cycles_with(precision, &*self, &slots);
        self.offload = phases::offload_cycles_with(precision, &*self, &slots);
    }

    /// Recomputes only the stages invalidated by `delta`, bit-identical
    /// to [`build_into`](Self::build_into) on the same view.
    ///
    /// The dirty decision per stage is `delta.intersects(stage.reads())`
    /// (see [`Stage::reads`]). Because the residency tables and feed
    /// rates feed every later stage, a delta touching them degrades to a
    /// full rebuild; a pure-bandwidth delta re-runs the phase stage and
    /// refreshes the bandwidth-dependent DTL columns (`RealBW`,
    /// `X_REAL`, `SS_u`) in place; a capacity-only or empty delta skips
    /// all four stages.
    ///
    /// The caller is responsible for `view` matching the previous
    /// lowering up to `delta`: pass the *same* layer and mapping with an
    /// architecture whose difference is described by `delta` (use
    /// [`InputDelta::between`](crate::InputDelta::between)). A never-built
    /// or differently-optioned IR falls back to a full rebuild.
    pub fn rebuild_dirty(
        &mut self,
        view: &MappedLayer<'_>,
        opts: DtlOptions,
        delta: InputDelta,
    ) -> RebuildStats {
        let dirty = |s: Stage| delta.intersects(s.reads());
        let never_built = self.levels.is_empty();
        if never_built || self.opts != opts || dirty(Stage::Residency) || dirty(Stage::FeedRates) {
            // Preserves `self.pins` (unlike `build_into`): a pinned IR
            // stays pinned across incremental rebuilds.
            self.rebuild_full(view, opts);
            return RebuildStats::full();
        }
        let mut stats = RebuildStats {
            stages_rebuilt: 0,
            stages_skipped: 2, // residency + feed rates reused
        };
        if dirty(Stage::Phases) {
            self.stage_phases(view);
            stats.stages_rebuilt += 1;
        } else {
            stats.stages_skipped += 1;
        }
        if dirty(Stage::DtlGraph) {
            // Structure (periods, windows, endpoints) is clean here —
            // only the bandwidth columns can have moved.
            dtl::refresh_bandwidth(view, self);
            stats.stages_rebuilt += 1;
        } else {
            stats.stages_skipped += 1;
        }
        stats
    }

    /// The options the DTL list was built with.
    pub fn options(&self) -> DtlOptions {
        self.opts
    }

    /// The Step-1 DTL list.
    pub fn dtls(&self) -> &[Dtl] {
        &self.dtls
    }

    pub(crate) fn dtls_mut(&mut self) -> &mut Vec<Dtl> {
        &mut self.dtls
    }

    /// Consumes the IR, returning the DTL list.
    pub fn into_dtls(self) -> Vec<Dtl> {
        self.dtls
    }

    /// Interfaces of `op`'s chain that carry traffic under this lowering:
    /// normally `chain.len() - 1`, fewer when a residency pin or a
    /// KV-cache flag elides the top of the chain. Consumers pricing
    /// transfers iterate `0..active_interfaces(op)` instead of the full
    /// chain; the residency tables themselves stay full-length.
    pub fn active_interfaces(&self, op: Operand) -> usize {
        self.active[op.index()] as usize
    }

    /// The residency pins this IR was built with.
    pub fn pins(&self) -> ResidencyPins {
        self.pins
    }

    /// The residency tables of one operand's chain, innermost first.
    pub fn levels(&self, op: Operand) -> &[LevelLowering] {
        &self.levels[self.offsets[op.index()]..self.offsets[op.index() + 1]]
    }

    /// The residency table of one `(operand, level)`.
    pub fn level(&self, op: Operand, level: usize) -> &LevelLowering {
        &self.levels(op)[level]
    }

    /// The `(size, relevant)` loops above `level`, innermost-above first.
    fn loops_above(&self, op: Operand, level: usize) -> &[(u64, bool)] {
        let (lo, hi) = self.loop_ranges[self.offsets[op.index()] + level];
        &self.loops[lo as usize..hi as usize]
    }

    /// The distinct-data region id active during period `j` of
    /// `(op, level)`: the mixed-radix digits of `j` restricted to the
    /// operand-relevant loops above the level. Periods sharing a region
    /// reuse the same block, so no transfer happens between them.
    pub fn region(&self, op: Operand, level: usize, j: u64) -> u64 {
        let mut rem = j;
        let mut id = 0u64;
        let mut mul = 1u64;
        for &(size, relevant) in self.loops_above(op, level) {
            let d = rem % size;
            rem /= size;
            if relevant {
                id += d * mul;
                mul *= size;
            }
        }
        id
    }

    /// Distinct words of `op` the MAC array touches per cycle.
    pub fn words_per_cycle(&self, op: Operand) -> u64 {
        self.words_per_cycle[op.index()]
    }

    /// Pre-load phase cycles.
    pub fn preload(&self) -> u64 {
        self.preload
    }

    /// Off-load phase cycles.
    pub fn offload(&self) -> u64 {
        self.offload
    }

    /// `CC_ideal` (may be fractional).
    pub fn cc_ideal(&self) -> f64 {
        self.cc_ideal
    }

    /// `CC_spatial`: the temporal iteration count.
    pub fn cc_spatial(&self) -> u64 {
        self.cc_spatial
    }

    /// Spatial stall: `CC_spatial − CC_ideal`.
    pub fn spatial_stall(&self) -> f64 {
        self.spatial_stall
    }

    /// Composes the phase totals with a given temporal stall — the single
    /// implementation of `CC_total = preload + CC_spatial + SS_overall +
    /// offload` shared by the slow and fast latency paths.
    pub fn totals(&self, ss_overall: f64) -> FastLatency {
        FastLatency::compose(
            self.preload,
            self.offload,
            self.cc_ideal,
            self.cc_spatial,
            ss_overall,
        )
    }
}

impl Rows for LoweredLayer {
    fn active(&self, op: Operand) -> usize {
        self.active_interfaces(op)
    }

    fn row(&self, op: Operand, level: usize) -> LevelLowering {
        *self.level(op, level)
    }

    fn feed(&self, op: Operand) -> u64 {
        self.words_per_cycle(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn toy_view() -> (ulm_arch::presets::PresetChip, Layer, Mapping) {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
        )
        .unwrap();
        (chip, layer, mapping)
    }

    #[test]
    fn tables_match_view_accessors() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let lw = LoweredLayer::build(&view, DtlOptions::default());
        let h = chip.arch.hierarchy();
        for op in Operand::all() {
            assert_eq!(lw.levels(op).len(), h.chain(op).len());
            for (level, e) in lw.levels(op).iter().enumerate() {
                assert_eq!(e.words, view.mem_data_words(op, level));
                assert_eq!(e.period, view.mem_cc(op, level));
                assert_eq!(e.z, view.z(op, level));
                assert_eq!(e.run, view.top_ir_run(op, level));
                assert_eq!(e.refills, view.refill_count(op, level));
                assert_eq!(e.distinct_above, view.distinct_blocks_above(op, level));
                assert_eq!(e.final_above, !view.has_ir_above(op, level));
            }
        }
        assert_eq!(lw.cc_spatial(), view.cc_spatial());
        assert_eq!(lw.cc_ideal().to_bits(), view.cc_ideal().to_bits());
    }

    #[test]
    fn build_into_reuses_buffers_and_matches_build() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let owned = LoweredLayer::build(&view, DtlOptions::default());
        let mut reused = LoweredLayer::default();
        LoweredLayer::build_into(&view, DtlOptions::default(), &mut reused);
        LoweredLayer::build_into(&view, DtlOptions::default(), &mut reused);
        assert_eq!(owned.dtls(), reused.dtls());
        assert_eq!(owned.levels, reused.levels);
        assert_eq!(owned.loops, reused.loops);
        assert_eq!(owned.preload(), reused.preload());
        assert_eq!(owned.offload(), reused.offload());
    }

    #[test]
    fn regions_collapse_irrelevant_loops() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let lw = LoweredLayer::build(&view, DtlOptions::default());
        // W at level 0: loops above are C8 (relevant), B2 (irrelevant),
        // K2 (relevant). Periods that differ only in the B digit share a
        // region.
        let regions: Vec<u64> = (0..lw.level(Operand::W, 0).z)
            .map(|j| lw.region(Operand::W, 0, j))
            .collect();
        let distinct = {
            let mut r = regions.clone();
            r.sort_unstable();
            r.dedup();
            r.len() as u64
        };
        assert_eq!(distinct, lw.level(Operand::W, 0).distinct_above);
    }
}
