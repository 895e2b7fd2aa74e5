//! Batched structure-of-arrays evaluation of candidate loop orderings:
//! the mapper's one ordering-search engine, for every objective.
//!
//! For the ordering search the architecture, the layer, the spatial
//! unrolling and the factor *multiset* are fixed, and only the factor
//! *order* varies. [`BatchKernel`] exploits that by packing the
//! per-(operand, level) rows of up to `lanes` orderings — `Mem_DATA`,
//! `Mem_CC`, `Z`, the `ReqBW` run, refill and distinct-block counts,
//! output finality — into contiguous per-field lanes. Each lane is a
//! [`Rows`] source, read by the same bodies that read a lowered layer, so
//! a lane's score is bit-identical to the one-ordering evaluation of
//! its ordering by construction:
//!
//! * **Latency** ([`LaneObjective::Latency`]): the phase floor and (for
//!   bw-aware models) the roofline bound are computed for all lanes in
//!   lockstep so the compiler can autovectorize, and lanes that cannot
//!   beat the running incumbent are pruned. Only survivors pay for Steps
//!   1–3: the lowering's own DTL body over the lane's rows, then the same
//!   [`StallScratch::combine_and_integrate`] as
//!   [`LatencyModel::evaluate_fast`].
//! * **Energy** ([`LaneObjective::Energy`]): the energy model's own
//!   access-count body over the lane's rows (supplied by `ulm-energy`,
//!   which this crate cannot depend on). No DTLs, no Steps 2–3.
//! * **EDP** ([`LaneObjective::Edp`]): the latency score times the
//!   energy.
//!
//! Energy and EDP lanes are never pruned. The objective is a
//! construction input, so a latency kernel never computes energy.
//! Latency and EDP kernels keep the latency scalars of the first strictly
//! better lane they score ([`BatchKernel::winner_latency`]), so a search
//! that needs only its winner's scalars builds no report.
//!
//! Batch-constant work is hoisted into [`BatchKernel::new`]: the spatial
//! fit and coverage checks (`CC_spatial` and every dimension extent are
//! multiset invariants, independent of order), per-level capacity
//! budgets for the greedy allocation, and every link constant (port
//! bandwidths, endpoints, double-buffering), folded once into flat slot
//! tables captured through the lowering's own live lookups. Per pushed
//! ordering the kernel extends
//! prefix-memoized cycle counts and residency words (shared inner
//! prefixes with the previously pushed ordering are reused and counted
//! in [`cache_hits`](BatchKernel::cache_hits)), replays the greedy level
//! allocation with precomputed word budgets, and derives `Z`/refill/run
//! scalars from closed-form suffix products instead of re-walking loop
//! stacks.

use crate::classes::{GreedyTables, OrderingClasses};
use crate::dtl::{build_dtls_with, crossing_bits, Dtl};
use crate::fast::FastLatency;
use crate::lower::{feed_words, kv_active_interfaces, LevelLowering, Rows};
use crate::phases::block_cycles;
use crate::roofline::interface_traffic;
use crate::slots::{ArchSlots, FoldedSlots};
use crate::stall::StallScratch;
use crate::LatencyModel;
use std::sync::Arc;
use ulm_arch::Architecture;
use ulm_mapping::SpatialUnroll;
use ulm_workload::{Dim, DimSizes, Layer, Operand, Precision};

/// Outcome of one lane after a [`BatchKernel::drain`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneOutcome {
    /// No legal greedy allocation for this ordering.
    Illegal,
    /// Legal, but a monotone lower bound proved the ordering cannot beat
    /// the incumbent passed to `drain` (latency kernels only).
    Pruned,
    /// Fully evaluated: the objective score, bit-identical to the
    /// one-ordering evaluation of the same ordering.
    Scored(f64),
}

/// Prices one lane in energy (fJ) from its [`Rows`] and `CC_spatial`.
/// `ulm-energy` builds it around its own accumulation body.
pub type LaneEnergy<'a> = Box<dyn FnMut(&dyn Rows, u64) -> f64 + 'a>;

/// What a [`BatchKernel`]'s lanes score, fixed at construction.
pub enum LaneObjective<'a> {
    /// `CC_total`, pruned against the incumbent.
    Latency,
    /// Energy alone.
    Energy(LaneEnergy<'a>),
    /// `CC_total × energy`.
    Edp(LaneEnergy<'a>),
}

/// The SoA lane rows: one `Vec` per [`LevelLowering`] field, stride
/// `lanes`, indexed `(row_off[op] + level) * lanes + lane`.
struct LaneRows {
    lanes: usize,
    row_off: [usize; 3],
    /// Interfaces that carry traffic per operand, as
    /// [`kv_active_interfaces`] counts them for an unpinned lowering.
    active: [usize; 3],
    /// Distinct words per cycle the MAC array reads of each operand.
    feed: [u64; 3],
    words: Vec<u64>,
    period: Vec<u64>,
    z: Vec<u64>,
    run: Vec<u64>,
    refills: Vec<u64>,
    distinct: Vec<u64>,
    final_above: Vec<bool>,
}

impl LaneRows {
    /// The row at flat index `idx`.
    fn at(&self, idx: usize) -> LevelLowering {
        LevelLowering {
            words: self.words[idx],
            period: self.period[idx],
            z: self.z[idx],
            run: self.run[idx],
            refills: self.refills[idx],
            distinct_above: self.distinct[idx],
            final_above: self.final_above[idx],
        }
    }
}

/// One lane of [`LaneRows`] read as [`Rows`]: the row source a scored
/// lane hands to the shared DTL and energy bodies.
struct Lane<'r> {
    rows: &'r LaneRows,
    lane: usize,
}

impl Rows for Lane<'_> {
    fn active(&self, op: Operand) -> usize {
        self.rows.active[op.index()]
    }

    fn row(&self, op: Operand, level: usize) -> LevelLowering {
        let r = self.rows;
        r.at((r.row_off[op.index()] + level) * r.lanes + self.lane)
    }

    fn feed(&self, op: Operand) -> u64 {
        self.rows.feed[op.index()]
    }
}

/// A reusable batched evaluator for one (architecture, layer, spatial,
/// factor-multiset) search context. See the module docs.
pub struct BatchKernel<'a> {
    arch: &'a Architecture,
    /// Greedy-allocation tables, shared with [`OrderingClasses`] walks.
    tables: Arc<GreedyTables<'a>>,
    model: LatencyModel,
    objective: LaneObjective<'a>,
    /// Every link constant, folded once from the architecture.
    slots: FoldedSlots,
    precision: Precision,
    /// Factors per ordering.
    n: usize,
    /// Lanes currently filled.
    count: usize,
    cc_ideal: f64,
    cc_spatial: u64,
    /// Per physical memory: capacity in bits, `None` for backing stores
    /// (exempt from the residency check).
    mem_caps: Vec<Option<u64>>,

    // --- prefix memoization (persists across drains) ---
    prev: Vec<(Dim, u64)>,
    /// `prefix_cycles[p]` = product of the innermost `p` factor sizes.
    prefix_cycles: Vec<u64>,
    /// `words_at[op][p]` = operand words resident under the innermost
    /// `p` factors (entry 0 = spatial extents alone).
    words_at: [Vec<u64>; 3],
    /// `prefix_ext[p]`: full extents, maintained only when some operand
    /// is non-multiplicative (conv inputs).
    prefix_ext: Vec<DimSizes>,
    /// `rel_at[op][p]` = product of the operand-*relevant* sizes among
    /// the innermost `p` factors (so `rel_at[op][n] / rel_at[op][upper]`
    /// is the exact distinct-block count above `upper`, and
    /// `suffix_all[upper] == distinct` iff everything above is relevant).
    rel_at: [Vec<u64>; 3],
    cache_hits: u64,

    // --- per-push scratch ---
    suffix_all: Vec<u64>,
    bounds: [Vec<u32>; 3],
    residency: Vec<u64>,

    // --- lanes ---
    rows: LaneRows,
    lane_ord: Vec<(Dim, u64)>,
    lane_illegal: Vec<bool>,
    lane_pre: Vec<u64>,
    lane_off: Vec<u64>,
    lane_tmp: Vec<u64>,
    lane_floor: Vec<f64>,
    lane_roof: Vec<f64>,

    // --- survivor evaluation ---
    dtls: Vec<Dtl>,
    /// Steps 2–3 scratch. It memoizes port-group window unions: survivors
    /// share most of their rows, so most of their port groups repeat.
    stall: StallScratch,
    /// Score and latency scalars of the first strictly better scored
    /// lane since construction (latency and EDP kernels only).
    winner: Option<(f64, FastLatency)>,
}

impl<'a> BatchKernel<'a> {
    /// Builds a kernel for `factors` (the temporal factor multiset every
    /// pushed ordering permutes; sizes must all be > 1, as produced by
    /// the mapper's factorizer) holding up to `lanes` orderings, scoring
    /// them by `objective`.
    pub fn new(
        arch: &'a Architecture,
        layer: &'a Layer,
        spatial: &SpatialUnroll,
        model: LatencyModel,
        factors: &[(Dim, u64)],
        lanes: usize,
        objective: LaneObjective<'a>,
    ) -> Self {
        debug_assert!(factors.iter().all(|&(_, s)| s > 1));
        let lanes = lanes.max(1);
        let n = factors.len();
        let h = arch.hierarchy();

        let tables = Arc::new(GreedyTables::new(arch, layer, spatial, factors));
        let macs = arch.mac_array().num_macs();
        let cc_ideal = layer.total_macs() as f64 / macs as f64;
        let cc_spatial: u64 = factors.iter().map(|&(_, s)| s).product();

        let mem_caps: Vec<Option<u64>> = h
            .memories()
            .iter()
            .map(|m| (!m.is_backing_store()).then(|| m.mapper_capacity_bits()))
            .collect();

        let chain_len = |op: Operand| h.chain(op).len();
        let row_off = [
            0,
            chain_len(Operand::W),
            chain_len(Operand::W) + chain_len(Operand::I),
        ];
        let len = (row_off[2] + chain_len(Operand::O)) * lanes;
        let rows = LaneRows {
            lanes,
            row_off,
            active: [Operand::W, Operand::I, Operand::O]
                .map(|op| kv_active_interfaces(layer, op, chain_len(op))),
            feed: [Operand::W, Operand::I, Operand::O].map(|op| feed_words(layer, spatial, op)),
            words: vec![0; len],
            period: vec![0; len],
            z: vec![0; len],
            run: vec![0; len],
            refills: vec![0; len],
            distinct: vec![0; len],
            final_above: vec![false; len],
        };

        let words_at = [0, 1, 2].map(|oi| {
            let mut v = vec![0u64; n + 1];
            v[0] = tables.ops[oi].words0;
            v
        });
        let spatial_ext = tables.spatial_ext;

        Self {
            arch,
            tables,
            model,
            objective,
            slots: FoldedSlots::fold(h),
            precision: *layer.precision(),
            n,
            count: 0,
            cc_ideal,
            cc_spatial,
            mem_caps,
            prev: Vec::with_capacity(n),
            prefix_cycles: {
                let mut v = vec![0u64; n + 1];
                v[0] = 1;
                v
            },
            words_at,
            prefix_ext: vec![spatial_ext; n + 1],
            rel_at: [(); 3].map(|_| vec![1u64; n + 1]),
            cache_hits: 0,
            suffix_all: vec![1u64; n + 1],
            bounds: [(); 3].map(|_| Vec::with_capacity(8)),
            residency: vec![0u64; h.memories().len()],
            rows,
            lane_ord: vec![(Dim::B, 0); n * lanes],
            lane_illegal: vec![false; lanes],
            lane_pre: vec![0; lanes],
            lane_off: vec![0; lanes],
            lane_tmp: vec![0; lanes],
            lane_floor: vec![0.0; lanes],
            lane_roof: vec![0.0; lanes],
            dtls: Vec::with_capacity(16),
            stall: StallScratch::with_union_memo(),
            winner: None,
        }
    }

    /// The lane capacity this kernel was built with.
    pub fn lanes(&self) -> usize {
        self.rows.lanes
    }

    /// Lanes currently filled (reset by [`drain`](Self::drain)).
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no lanes are filled.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True when a [`drain`](Self::drain) is required before `push`.
    pub fn is_full(&self) -> bool {
        self.count == self.rows.lanes
    }

    /// Prefix quantities reused from the previously pushed ordering: one
    /// per shared inner-prefix factor.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// The latency scalars of the first strictly better lane this kernel
    /// has scored since construction: the same lane a first-strictly-
    /// better walk over the drained outcomes keeps, with the same bits as
    /// [`LatencyModel::evaluate_fast`] on its mapping. `None` for an
    /// energy kernel, which never computes latency.
    pub fn winner_latency(&self) -> Option<FastLatency> {
        self.winner.map(|(_, latency)| latency)
    }

    /// A fresh ordering-class walk over this kernel's factor multiset,
    /// sharing the kernel's greedy-allocation tables.
    pub fn classes(&self) -> OrderingClasses<'a> {
        OrderingClasses::with_tables(Arc::clone(&self.tables))
    }

    /// Packs one ordering (innermost factor first, a permutation of the
    /// constructor's factor multiset) into the next lane: extends the
    /// prefix memos, replays the greedy level allocation and fills the
    /// lane's SoA row scalars. Panics if the kernel [`is_full`](Self::is_full).
    pub fn push(&mut self, ordering: &[(Dim, u64)]) {
        assert!(self.count < self.rows.lanes, "kernel is full; drain first");
        debug_assert_eq!(ordering.len(), self.n);
        let n = self.n;
        let lane = self.count;
        self.count += 1;
        self.lane_ord[lane * n..(lane + 1) * n].copy_from_slice(ordering);

        // Prefix sharing with the previously pushed ordering.
        let shared = self
            .prev
            .iter()
            .zip(ordering)
            .take_while(|(a, b)| *a == *b)
            .count();
        self.cache_hits += shared as u64;
        self.prev.clear();
        self.prev.extend_from_slice(ordering);
        let t = &*self.tables;
        for (p, &(d, s)) in ordering.iter().enumerate().skip(shared) {
            self.prefix_cycles[p + 1] = self.prefix_cycles[p] * s;
            if t.need_ext {
                let mut ext = self.prefix_ext[p];
                ext.multiply(d, s);
                self.prefix_ext[p + 1] = ext;
            }
            for (oi, g) in t.ops.iter().enumerate() {
                self.words_at[oi][p + 1] =
                    t.grow_words(oi, self.words_at[oi][p], &self.prefix_ext[p + 1], d, s);
                self.rel_at[oi][p + 1] = self.rel_at[oi][p] * if g.rel[d.index()] { s } else { 1 };
            }
        }

        // Suffix products for Z / refills; the per-operand relevant
        // suffixes come from the memoized `rel_at` prefix products
        // (`distinct = rel_at[n] / rel_at[upper]`, exact), so this is the
        // only whole-ordering pass left.
        self.suffix_all[n] = 1;
        for p in (0..n).rev() {
            self.suffix_all[p] = self.suffix_all[p + 1] * ordering[p].1;
        }

        // Greedy level allocation with precomputed word budgets — the
        // same bounds `Mapping::with_greedy_alloc` assigns, or Illegal.
        let mut illegal = !t.const_legal;
        if !illegal {
            'ops: for (oi, g) in t.ops.iter().enumerate() {
                let bounds = &mut self.bounds[oi];
                bounds.clear();
                let mut prev = 0usize;
                let levels = g.levels;
                for lvl in 0..levels {
                    if lvl + 1 == levels {
                        bounds.push(n as u32);
                        break;
                    }
                    let cap = g.cap_words[lvl];
                    let words = &self.words_at[oi];
                    if words[prev] > cap {
                        illegal = true;
                        break 'ops;
                    }
                    let mut p = prev;
                    while p < n && words[p + 1] <= cap {
                        p += 1;
                    }
                    bounds.push(p as u32);
                    prev = p;
                }
            }
        }

        // Residency: per physical memory, summed over resident operands.
        if !illegal {
            self.residency.fill(0);
            for op in Operand::all() {
                let (oi, bits) = (op.index(), self.precision.bits(op));
                for (lvl, &mid) in self.arch.hierarchy().chain(op).iter().enumerate() {
                    let upper = self.bounds[oi][lvl] as usize;
                    self.residency[mid.0] += self.words_at[oi][upper] * bits;
                }
            }
            for (i, &needed) in self.residency.iter().enumerate() {
                if let Some(cap) = self.mem_caps[i] {
                    if needed > cap {
                        illegal = true;
                        break;
                    }
                }
            }
        }

        self.lane_illegal[lane] = illegal;
        if illegal {
            return;
        }

        // Fill the lane's SoA rows from the memoized prefix/suffix data.
        let rows = &mut self.rows;
        for (oi, g) in t.ops.iter().enumerate() {
            let rel_at = &self.rel_at[oi];
            let rel_total = rel_at[n];
            for lvl in 0..g.levels {
                let upper = self.bounds[oi][lvl] as usize;
                let lower = if lvl == 0 {
                    0
                } else {
                    self.bounds[oi][lvl - 1] as usize
                };
                let idx = (rows.row_off[oi] + lvl) * rows.lanes + lane;
                rows.words[idx] = self.words_at[oi][upper];
                rows.period[idx] = self.prefix_cycles[upper];
                rows.z[idx] = self.suffix_all[upper];
                let mut run = 1u64;
                for p in (lower..upper).rev() {
                    let (d, s) = ordering[p];
                    if g.rel[d.index()] {
                        break;
                    }
                    run *= s;
                }
                rows.run[idx] = run;
                // First relevant position at or above `upper`; the scan
                // only crosses the (short) irrelevant run above the split.
                let mut fr = upper;
                while fr < n && !g.rel[ordering[fr].0.index()] {
                    fr += 1;
                }
                rows.refills[idx] = self.suffix_all[fr];
                // Exact: `rel_at[upper]` divides `rel_total`, and (sizes
                // being > 1) everything above is relevant iff the full and
                // relevant-only suffix products agree.
                let distinct = rel_total / rel_at[upper];
                rows.distinct[idx] = distinct;
                rows.final_above[idx] = self.suffix_all[upper] == distinct;
            }
        }
    }

    /// Evaluates every filled lane in push order and resets the kernel.
    ///
    /// A latency kernel computes the phase floor and (for bw-aware
    /// models) the roofline bound for all lanes in lockstep first; the
    /// per-lane walk then prunes against the running `incumbent`, fully
    /// evaluating only the survivors. Energy and EDP kernels score every
    /// legal lane. `visit` receives each lane's ordering and outcome and
    /// returns the updated incumbent (the chunk-local best so far), so
    /// prune decisions follow the first-strictly-better walk exactly.
    /// Returns the final incumbent.
    pub fn drain(
        &mut self,
        mut incumbent: Option<f64>,
        mut visit: impl FnMut(&[(Dim, u64)], LaneOutcome) -> Option<f64>,
    ) -> Option<f64> {
        let cnt = self.count;
        if cnt == 0 {
            return incumbent;
        }
        let prunes = matches!(self.objective, LaneObjective::Latency);
        if !matches!(self.objective, LaneObjective::Energy(_)) {
            self.compute_bounds(cnt, prunes);
        }
        let bw_aware = self.model.options().bw_aware;
        for lane in 0..cnt {
            let outcome = if self.lane_illegal[lane] {
                LaneOutcome::Illegal
            } else {
                let pruned = match incumbent {
                    Some(inc) if prunes => {
                        self.lane_floor[lane] >= inc
                            || (bw_aware && self.lane_roof[lane] - inc > 1e-6 + 1e-9 * inc.abs())
                    }
                    _ => false,
                };
                if pruned {
                    LaneOutcome::Pruned
                } else {
                    LaneOutcome::Scored(self.score(lane))
                }
            };
            let ordering = &self.lane_ord[lane * self.n..(lane + 1) * self.n];
            incumbent = visit(ordering, outcome);
        }
        self.count = 0;
        incumbent
    }

    /// The objective score of one legal lane. A latency or EDP lane that
    /// beats every lane scored before it keeps its latency scalars.
    fn score(&mut self, lane: usize) -> f64 {
        let (score, latency) = match self.objective {
            LaneObjective::Latency => {
                let latency = self.lane_latency(lane);
                (latency.cc_total, latency)
            }
            LaneObjective::Energy(_) => return self.lane_energy(lane),
            LaneObjective::Edp(_) => {
                let latency = self.lane_latency(lane);
                (latency.cc_total * self.lane_energy(lane), latency)
            }
        };
        if self.winner.is_none_or(|(best, _)| score < best) {
            self.winner = Some((score, latency));
        }
        score
    }

    /// The energy of one legal lane, by the scorer the kernel was built
    /// with.
    fn lane_energy(&mut self, lane: usize) -> f64 {
        let rows = Lane {
            rows: &self.rows,
            lane,
        };
        match &mut self.objective {
            LaneObjective::Energy(energy) | LaneObjective::Edp(energy) => {
                energy(&rows, self.cc_spatial)
            }
            LaneObjective::Latency => unreachable!("a latency kernel never prices energy"),
        }
    }

    /// Lockstep phase cycles over lanes `0..cnt` and, when `prunes`, the
    /// phase-floor and roofline bounds, each term the lowering's
    /// per-interface expression over the folded link constants. Illegal
    /// lanes hold garbage rows; their values are never read.
    fn compute_bounds(&mut self, cnt: usize, prunes: bool) {
        let rows = &self.rows;
        let precision = &self.precision;
        let base = |op: Operand, lvl: usize| (rows.row_off[op.index()] + lvl) * rows.lanes;
        // Preload: max over W and I of the per-level refill sums.
        self.lane_pre[..cnt].fill(0);
        for op in [Operand::W, Operand::I] {
            self.lane_tmp[..cnt].fill(0);
            let bits = precision.bits(op);
            for lvl in 0..rows.active[op.index()] {
                let words = &rows.words[base(op, lvl)..base(op, lvl) + cnt];
                let bw = self.slots.interface(op, lvl).bw_bits;
                for (acc, &w) in self.lane_tmp[..cnt].iter_mut().zip(words) {
                    *acc += block_cycles(w, bits, bw);
                }
            }
            for (pre, &t) in self.lane_pre[..cnt].iter_mut().zip(&self.lane_tmp[..cnt]) {
                *pre = (*pre).max(t);
            }
        }
        // Offload: per-level drain sums of O at the crossing precision.
        self.lane_off[..cnt].fill(0);
        let o = Operand::O;
        for lvl in 0..rows.active[o.index()] {
            let b = base(o, lvl);
            let bw = self.slots.interface(o, lvl).bw_bits;
            for (lane, off) in self.lane_off[..cnt].iter_mut().enumerate() {
                let bits = crossing_bits(precision, o, rows.final_above[b + lane]);
                *off += block_cycles(rows.words[b + lane], bits, bw);
            }
        }
        if !prunes {
            return;
        }
        // Phase floor: the stall-free composition, through the same
        // `FastLatency::compose` every other path uses.
        for lane in 0..cnt {
            self.lane_floor[lane] = FastLatency::compose(
                self.lane_pre[lane],
                self.lane_off[lane],
                self.cc_ideal,
                self.cc_spatial,
                0.0,
            )
            .cc_total;
        }
        // Roofline bound over the compute roof and every interface roof,
        // in (operand, level) order.
        if !self.model.options().bw_aware {
            return;
        }
        self.lane_roof[..cnt].fill(self.cc_ideal);
        for op in Operand::all() {
            for lvl in 0..rows.active[op.index()] {
                let b = base(op, lvl);
                let bw = self.slots.interface(op, lvl).bw_bits as f64;
                for (lane, roof) in self.lane_roof[..cnt].iter_mut().enumerate() {
                    let (main, read_back) = interface_traffic(precision, op, &rows.at(b + lane));
                    *roof = roof.max((main + read_back) as f64 / bw);
                }
            }
        }
    }

    /// The latency scalars of one surviving lane: the lowering's own DTL
    /// body over the lane's rows and the folded link constants, then
    /// Steps 2–3 and the composition.
    fn lane_latency(&mut self, lane: usize) -> FastLatency {
        let opts = *self.model.options();
        let ss_overall = if opts.bw_aware {
            let rows = Lane {
                rows: &self.rows,
                lane,
            };
            let dtl_opts = self.model.dtl_options();
            build_dtls_with(
                &self.precision,
                dtl_opts,
                &rows,
                &self.slots,
                &mut self.dtls,
            );
            let raw = self.stall.combine_and_integrate(
                self.arch,
                &self.dtls,
                opts.union,
                opts.eq2_oversubscription_bound,
            );
            raw.max(0.0)
        } else {
            0.0
        };
        FastLatency::compose(
            self.lane_pre[lane],
            self.lane_off[lane],
            self.cc_ideal,
            self.cc_spatial,
            ss_overall,
        )
    }
}

/// The phase floor, roofline bound and scored `CC_total` of a one-lane
/// latency kernel holding `mapping`'s own ordering, for the bound checks
/// against the lowered IR.
#[cfg(test)]
pub(crate) fn latency_lane_bounds(
    arch: &Architecture,
    layer: &Layer,
    mapping: &ulm_mapping::Mapping,
    model: LatencyModel,
) -> (f64, f64, f64) {
    let ordering: Vec<(Dim, u64)> = mapping
        .stack()
        .loops()
        .iter()
        .map(|l| (l.dim, l.size))
        .collect();
    let mut kernel = BatchKernel::new(
        arch,
        layer,
        mapping.spatial(),
        model,
        &ordering,
        1,
        LaneObjective::Latency,
    );
    kernel.push(&ordering);
    assert!(!kernel.lane_illegal[0], "{}", layer.name());
    kernel.compute_bounds(1, true);
    let latency = kernel.lane_latency(0).cc_total;
    (kernel.lane_floor[0], kernel.lane_roof[0], latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelScratch;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, MappedLayer, Mapping, SpatialUnroll};
    use ulm_workload::{Layer, Precision};

    /// Every permutation of the toy factor multiset, kernel vs scalar:
    /// identical legality and bit-identical scores, for both models.
    #[test]
    fn kernel_matches_scalar_on_toy_permutations() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        // The toy factor multiset: B2, K2, C2, C2, C2.
        let factors = vec![
            (Dim::B, 2),
            (Dim::K, 2),
            (Dim::C, 2),
            (Dim::C, 2),
            (Dim::C, 2),
        ];
        let orderings = permutations(&factors);
        for model in [LatencyModel::new(), LatencyModel::bw_unaware()] {
            let mut kernel = BatchKernel::new(
                &chip.arch,
                &layer,
                &spatial,
                model,
                &factors,
                8,
                LaneObjective::Latency,
            );
            let mut scalar_scratch = ModelScratch::default();
            let mut results: Vec<LaneOutcome> = Vec::new();
            for ord in &orderings {
                if kernel.is_full() {
                    kernel.drain(None, |_, o| {
                        results.push(o);
                        None
                    });
                }
                kernel.push(ord);
            }
            kernel.drain(None, |_, o| {
                results.push(o);
                None
            });
            assert_eq!(results.len(), orderings.len());
            for (ord, got) in orderings.iter().zip(&results) {
                let scalar = scalar_eval(
                    &chip.arch,
                    &layer,
                    &spatial,
                    model,
                    ord,
                    &mut scalar_scratch,
                );
                match (scalar, got) {
                    (None, LaneOutcome::Illegal) => {}
                    (Some(want), LaneOutcome::Scored(s)) => {
                        assert_eq!(want.to_bits(), s.to_bits(), "ordering {ord:?}");
                    }
                    other => panic!("mismatch for {ord:?}: {other:?}"),
                }
            }
        }
    }

    fn scalar_eval(
        arch: &ulm_arch::Architecture,
        layer: &Layer,
        spatial: &SpatialUnroll,
        model: LatencyModel,
        ordering: &[(Dim, u64)],
        scratch: &mut ModelScratch,
    ) -> Option<f64> {
        let stack = LoopStack::from_pairs(ordering);
        let mapping = Mapping::with_greedy_alloc(arch, layer, spatial.clone(), stack).ok()?;
        let view = MappedLayer::new(layer, arch, &mapping).ok()?;
        Some(model.evaluate_fast(&view, scratch).cc_total)
    }

    fn permutations(factors: &[(Dim, u64)]) -> Vec<Vec<(Dim, u64)>> {
        let mut out = Vec::new();
        let mut cur = Vec::new();
        let mut used = vec![false; factors.len()];
        fn rec(
            factors: &[(Dim, u64)],
            used: &mut [bool],
            cur: &mut Vec<(Dim, u64)>,
            out: &mut Vec<Vec<(Dim, u64)>>,
        ) {
            if cur.len() == factors.len() {
                out.push(cur.clone());
                return;
            }
            let mut seen = Vec::new();
            for i in 0..factors.len() {
                if used[i] || seen.contains(&factors[i]) {
                    continue;
                }
                seen.push(factors[i]);
                used[i] = true;
                cur.push(factors[i]);
                rec(factors, used, cur, out);
                cur.pop();
                used[i] = false;
            }
        }
        rec(factors, &mut used, &mut cur, &mut out);
        out
    }

    /// Incumbent-driven pruning: outcomes must replay the scalar
    /// bounded-search sequence (same pruned set, same survivor scores).
    #[test]
    fn pruning_replays_scalar_sequence() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let factors = vec![
            (Dim::B, 2),
            (Dim::K, 2),
            (Dim::C, 2),
            (Dim::C, 2),
            (Dim::C, 2),
        ];
        let orderings = permutations(&factors);
        let model = LatencyModel::new();

        // Scalar reference sequence with floor-only-style incumbents:
        // replicate the mapper's bounded walk using full scores.
        let mut scalar_scratch = ModelScratch::default();
        let mut best: Option<f64> = None;
        let mut want = Vec::new();
        for ord in &orderings {
            match scalar_eval(
                &chip.arch,
                &layer,
                &spatial,
                model,
                ord,
                &mut scalar_scratch,
            ) {
                None => want.push(None),
                Some(score) => {
                    want.push(Some(score));
                    if best.map(|b| score < b).unwrap_or(true) {
                        best = Some(score);
                    }
                }
            }
        }

        let mut kernel = BatchKernel::new(
            &chip.arch,
            &layer,
            &spatial,
            model,
            &factors,
            7,
            LaneObjective::Latency,
        );
        let mut running: Option<f64> = None;
        let mut outcomes = Vec::new();
        let drain = |k: &mut BatchKernel<'_>,
                     running: &mut Option<f64>,
                     outcomes: &mut Vec<LaneOutcome>| {
            let r = k.drain(*running, |_, o| {
                outcomes.push(o);
                if let LaneOutcome::Scored(s) = o {
                    if running.map(|b| s < b).unwrap_or(true) {
                        *running = Some(s);
                    }
                }
                *running
            });
            *running = r;
        };
        for ord in &orderings {
            if kernel.is_full() {
                drain(&mut kernel, &mut running, &mut outcomes);
            }
            kernel.push(ord);
        }
        drain(&mut kernel, &mut running, &mut outcomes);

        assert_eq!(outcomes.len(), want.len());
        // The final best must match the unpruned best exactly, and no
        // scored lane may disagree with the scalar score.
        assert_eq!(running.unwrap().to_bits(), best.unwrap().to_bits());
        for (o, w) in outcomes.iter().zip(&want) {
            match (o, w) {
                (LaneOutcome::Illegal, None) => {}
                (LaneOutcome::Scored(s), Some(w)) => assert_eq!(s.to_bits(), w.to_bits()),
                (LaneOutcome::Pruned, Some(_)) => {}
                other => panic!("{other:?}"),
            }
        }
    }
}
