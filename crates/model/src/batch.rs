//! Batched evaluation of candidate loop orderings: the mapper's one
//! ordering-search engine, for every objective.
//!
//! For the ordering search the architecture, the layer, the spatial
//! unrolling and the factor *multiset* are fixed, and only the factor
//! *order* varies. [`BatchKernel`] exploits that by packing the
//! per-(operand, level) rows of up to `lanes` orderings — `Mem_DATA`,
//! `Mem_CC`, `Z`, the `ReqBW` run, refill and distinct-block counts,
//! output finality — into one contiguous block of rows per lane. Each
//! lane is a [`Rows`] source, read by the same bodies that read a lowered
//! layer, so a lane's score is bit-identical to the one-ordering
//! evaluation of its ordering by construction:
//!
//! * **Latency** ([`LaneObjective::Latency`]): the phase floor and (for
//!   bw-aware models) the roofline bound are computed for all lanes of a
//!   batch, one interface at a time, and lanes that cannot beat the
//!   running incumbent are pruned. Only survivors pay for Steps 1–3: the
//!   lowering's own DTL body over the lane's rows, then the same
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
//! Batch-constant work is hoisted into [`BatchKernel::new`], split by
//! what it depends on. The workload half — the spatial coverage check
//! (every dimension extent is a multiset invariant, independent of
//! order), per-operand relevance, the words the spatial unrolling alone
//! leaves resident, the feed rates — is fixed by the layer, the spatial
//! unrolling and the factor multiset. The design half — per-level
//! capacity budgets for the greedy allocation, the spatial fit, and
//! every link constant (port bandwidths, endpoints, double-buffering),
//! folded into flat slot tables captured through the lowering's own live
//! lookups — is what one architecture decides.
//!
//! Per pushed ordering the kernel reads a *prefix column set*: for every
//! prefix length `p`, the product of the innermost `p` factor sizes, the
//! product of the sizes at and above `p`, and per operand the resident
//! words and the distinct-block count above `p`. One row-fill body
//! replays the greedy level allocation against the design's word budgets
//! and reads every row scalar off those columns instead of re-walking
//! loop stacks. [`push`](BatchKernel::push) extends the kernel's one
//! incrementally updated set: shared inner prefixes with the previously
//! pushed ordering are reused and counted in
//! [`cache_hits`](BatchKernel::cache_hits). A sampled space's candidates
//! are fixed, so a [`FoldedSpace`] computes every candidate's columns,
//! and its `cache_hits` contribution, once; a kernel built on it
//! ([`BatchKernel::from_folded`]) folds only the design half and pushes
//! candidates by index ([`push_candidate`](BatchKernel::push_candidate)),
//! with the same rows, scores and counters.

use crate::classes::{Budgets, GreedyTables, OrderingClasses, WorkloadTables};
use crate::dtl::{build_dtls_with, crossing_bits, Dtl};
use crate::fast::FastLatency;
use crate::lower::{kv_active_interfaces, LevelLowering, Rows};
use crate::phases::block_cycles;
use crate::roofline::interface_traffic;
use crate::slots::{ArchSlots, FoldedSlots};
use crate::stall::StallScratch;
use crate::LatencyModel;
use std::cell::RefCell;
use std::mem::size_of;
use std::rc::Rc;
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

/// The lane rows: each lane's [`LevelLowering`] tables, operand-major,
/// contiguous per lane (a push writes one block), indexed
/// `lane * per_lane + row_off[op] + level`.
#[derive(Default)]
struct LaneRows {
    lanes: usize,
    /// Rows per lane: the chain lengths summed over the operands.
    per_lane: usize,
    row_off: [usize; 3],
    /// Interfaces that carry traffic per operand, as
    /// [`kv_active_interfaces`] counts them for an unpinned lowering.
    active: [usize; 3],
    /// Distinct words per cycle the MAC array reads of each operand.
    feed: [u64; 3],
    rows: Vec<LevelLowering>,
}

/// A placeholder row for lanes not filled yet.
const NO_ROW: LevelLowering = LevelLowering {
    words: 0,
    period: 0,
    z: 0,
    run: 0,
    refills: 0,
    distinct_above: 0,
    final_above: false,
};

impl LaneRows {
    /// Shapes the rows for `lanes` lanes of `layer` on `arch`'s chains,
    /// reusing this storage.
    fn reset(&mut self, arch: &Architecture, layer: &Layer, feed: [u64; 3], lanes: usize) {
        let h = arch.hierarchy();
        let chain_len = |op: Operand| h.chain(op).len();
        self.lanes = lanes;
        self.row_off = [
            0,
            chain_len(Operand::W),
            chain_len(Operand::W) + chain_len(Operand::I),
        ];
        self.per_lane = self.row_off[2] + chain_len(Operand::O);
        self.active = [Operand::W, Operand::I, Operand::O]
            .map(|op| kv_active_interfaces(layer, op, chain_len(op)));
        self.feed = feed;
        self.rows.resize(self.per_lane * lanes, NO_ROW);
    }

    /// Lane `lane`'s row of operand `op` at `level`.
    #[inline]
    fn at(&self, lane: usize, op: Operand, level: usize) -> &LevelLowering {
        &self.rows[lane * self.per_lane + self.row_off[op.index()] + level]
    }

    /// Bytes of the rows' storage.
    fn bytes(&self) -> usize {
        self.rows.capacity() * size_of::<LevelLowering>()
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
        *self.rows.at(self.lane, op, level)
    }

    fn feed(&self, op: Operand) -> u64 {
        self.rows.feed[op.index()]
    }
}

/// The prefix column set of one ordering: what the row-fill body reads.
/// Every column has `n + 1` entries, indexed by prefix length.
#[derive(Clone, Copy)]
struct Columns<'c> {
    /// The ordering, innermost factor first.
    ordering: &'c [(Dim, u64)],
    /// `cycles[p]` = product of the innermost `p` factor sizes.
    cycles: &'c [u64],
    /// `suffix[p]` = product of the factor sizes at and above `p`.
    suffix: &'c [u64],
    /// `words[op][p]` = operand words resident under the innermost `p`
    /// factors (entry 0 = spatial extents alone).
    words: [&'c [u64]; 3],
    /// `distinct[op][p]` = product of the operand-*relevant* sizes at
    /// and above `p`: the exact distinct-block count above a boundary at
    /// `p` (and, sizes being > 1, `suffix[p] == distinct[op][p]` iff
    /// everything above is relevant).
    distinct: [&'c [u64]; 3],
}

/// Columns per candidate in a [`FoldedSpace`]: cycles, suffix, and words
/// and distinct-block counts per operand.
const COLUMNS: usize = 8;

/// The incrementally updated prefix column set [`BatchKernel::push`]
/// extends: the columns of the last ordering, grown from its shared
/// prefix with the one before.
#[derive(Default)]
struct PrefixState {
    prev: Vec<(Dim, u64)>,
    cycles: Vec<u64>,
    suffix: Vec<u64>,
    words: [Vec<u64>; 3],
    distinct: [Vec<u64>; 3],
    /// `ext[p]`: full extents, maintained only when some operand is
    /// non-multiplicative (conv inputs).
    ext: Vec<DimSizes>,
}

impl PrefixState {
    fn new(work: &WorkloadTables) -> Self {
        let n = work.n;
        let mut cycles = vec![0u64; n + 1];
        cycles[0] = 1;
        Self {
            prev: Vec::with_capacity(n),
            cycles,
            suffix: vec![1u64; n + 1],
            words: [0, 1, 2].map(|oi| {
                let mut v = vec![0u64; n + 1];
                v[0] = work.ops[oi].words0;
                v
            }),
            distinct: [(); 3].map(|_| vec![1u64; n + 1]),
            ext: vec![work.spatial_ext; n + 1],
        }
    }

    /// Moves the set to `ordering` (a permutation of the multiset) and
    /// returns the number of inner-prefix factors it shares with the
    /// previous ordering, whose entries were reused.
    fn extend(&mut self, work: &WorkloadTables, layer: &Layer, ordering: &[(Dim, u64)]) -> usize {
        let shared = self
            .prev
            .iter()
            .zip(ordering)
            .take_while(|(a, b)| *a == *b)
            .count();
        self.prev.clear();
        self.prev.extend_from_slice(ordering);
        for (p, &(d, s)) in ordering.iter().enumerate().skip(shared) {
            self.cycles[p + 1] = self.cycles[p] * s;
            if work.need_ext {
                let mut ext = self.ext[p];
                ext.multiply(d, s);
                self.ext[p + 1] = ext;
            }
            for oi in 0..3 {
                self.words[oi][p + 1] =
                    work.grow_words(layer, oi, self.words[oi][p], &self.ext[p + 1], d, s);
            }
        }
        // Suffix products for Z, refills and distinct blocks: the only
        // whole-ordering pass.
        for p in (0..ordering.len()).rev() {
            let (d, s) = ordering[p];
            self.suffix[p] = self.suffix[p + 1] * s;
            for (oi, g) in work.ops.iter().enumerate() {
                self.distinct[oi][p] =
                    self.distinct[oi][p + 1] * if g.rel[d.index()] { s } else { 1 };
            }
        }
        shared
    }

    fn columns(&self) -> Columns<'_> {
        Columns {
            ordering: &self.prev,
            cycles: &self.cycles,
            suffix: &self.suffix,
            words: [&self.words[0], &self.words[1], &self.words[2]],
            distinct: [&self.distinct[0], &self.distinct[1], &self.distinct[2]],
        }
    }
}

/// Everything a kernel folds per design, plus its lane and survivor
/// scratch. A kernel over a [`FoldedSpace`] borrows the space's set and
/// returns it on drop, so the designs of a sweep reuse one allocation.
#[derive(Default)]
struct KernelBufs {
    /// The design half of the greedy-allocation tables.
    budgets: Budgets,
    /// Per physical memory: capacity in bits, `None` for backing stores
    /// (exempt from the residency check).
    mem_caps: Vec<Option<u64>>,
    /// Every link constant, folded from the architecture.
    slots: FoldedSlots,
    rows: LaneRows,
    // --- per-push scratch ---
    bounds: [Vec<u32>; 3],
    residency: Vec<u64>,
    // --- lanes ---
    lane_ord: Vec<(Dim, u64)>,
    lane_illegal: Vec<bool>,
    lane_pre: Vec<u64>,
    lane_off: Vec<u64>,
    lane_tmp: Vec<u64>,
    lane_floor: Vec<f64>,
    lane_roof: Vec<f64>,
    // --- survivor evaluation ---
    dtls: Vec<Dtl>,
    /// Steps 2–3 scratch.
    stall: StallScratch,
}

impl KernelBufs {
    /// Folds what `arch` decides — capacities, link constants, the lane
    /// shape — into this storage, for `lanes` lanes of `layer`.
    fn refold(&mut self, arch: &Architecture, layer: &Layer, work: &WorkloadTables, lanes: usize) {
        let h = arch.hierarchy();
        self.budgets.refold(arch, layer, work);
        self.mem_caps.clear();
        self.mem_caps.extend(
            h.memories()
                .iter()
                .map(|m| (!m.is_backing_store()).then(|| m.mapper_capacity_bits())),
        );
        self.slots.refold(h);
        self.rows.reset(arch, layer, work.feed, lanes);
        self.residency.resize(h.memories().len(), 0);
        self.lane_ord.resize(work.n * lanes, (Dim::B, 0));
        self.lane_illegal.resize(lanes, false);
        for v in [&mut self.lane_pre, &mut self.lane_off, &mut self.lane_tmp] {
            v.resize(lanes, 0);
        }
        self.lane_floor.resize(lanes, 0.0);
        self.lane_roof.resize(lanes, 0.0);
        self.dtls.clear();
        self.dtls.reserve(16);
    }

    /// Bytes of this storage.
    fn bytes(&self) -> usize {
        let u64s = self.budgets.bytes()
            + self.residency.capacity() * size_of::<u64>()
            + (self.lane_pre.capacity() + self.lane_off.capacity() + self.lane_tmp.capacity())
                * size_of::<u64>()
            + (self.lane_floor.capacity() + self.lane_roof.capacity()) * size_of::<f64>();
        u64s + self.mem_caps.capacity() * size_of::<Option<u64>>()
            + self.slots.bytes()
            + self.rows.bytes()
            + self.bounds.iter().map(|b| b.capacity() * 4).sum::<usize>()
            + self.lane_ord.capacity() * size_of::<(Dim, u64)>()
            + self.lane_illegal.capacity()
            + self.dtls.capacity() * size_of::<Dtl>()
    }

    /// The one row-fill body: replays the greedy level allocation of the
    /// ordering whose prefix columns are `c` against this design's word
    /// budgets, checks residency, and fills lane `lane`'s rows.
    fn fill(
        &mut self,
        lane: usize,
        arch: &Architecture,
        work: &WorkloadTables,
        precision: &Precision,
        c: Columns<'_>,
    ) {
        let n = work.n;
        self.lane_ord[lane * n..(lane + 1) * n].copy_from_slice(c.ordering);

        // Greedy level allocation with precomputed word budgets — the
        // same bounds `Mapping::with_greedy_alloc` assigns, or Illegal.
        let b = &self.budgets;
        let mut illegal = !b.const_legal;
        if !illegal {
            'ops: for oi in 0..3 {
                let bounds = &mut self.bounds[oi];
                bounds.clear();
                let (levels, words) = (b.levels[oi], c.words[oi]);
                let mut prev = 0usize;
                for lvl in 0..levels {
                    if lvl + 1 == levels {
                        bounds.push(n as u32);
                        break;
                    }
                    let cap = b.cap(oi, lvl);
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
                let (oi, bits) = (op.index(), precision.bits(op));
                for (lvl, &mid) in arch.hierarchy().chain(op).iter().enumerate() {
                    let upper = self.bounds[oi][lvl] as usize;
                    self.residency[mid.0] += c.words[oi][upper] * bits;
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

        // Fill the lane's rows from the prefix columns.
        let rows = &mut self.rows;
        for (oi, g) in work.ops.iter().enumerate() {
            let first = lane * rows.per_lane + rows.row_off[oi];
            for lvl in 0..self.budgets.levels[oi] {
                let upper = self.bounds[oi][lvl] as usize;
                let lower = if lvl == 0 {
                    0
                } else {
                    self.bounds[oi][lvl - 1] as usize
                };
                let mut run = 1u64;
                for p in (lower..upper).rev() {
                    let (d, s) = c.ordering[p];
                    if g.rel[d.index()] {
                        break;
                    }
                    run *= s;
                }
                // First relevant position at or above `upper`; the scan
                // only crosses the (short) irrelevant run above the split.
                let mut fr = upper;
                while fr < n && !g.rel[c.ordering[fr].0.index()] {
                    fr += 1;
                }
                // Sizes being > 1, everything above is relevant iff the
                // full and relevant-only suffix products agree.
                let distinct = c.distinct[oi][upper];
                rows.rows[first + lvl] = LevelLowering {
                    words: c.words[oi][upper],
                    period: c.cycles[upper],
                    z: c.suffix[upper],
                    run,
                    refills: c.suffix[fr],
                    distinct_above: distinct,
                    final_above: c.suffix[upper] == distinct,
                };
            }
        }
    }
}

/// A sampled search context folded once: the design-independent prefix
/// columns of every candidate ordering of one (layer, spatial unrolling,
/// factor multiset) and the candidates' `cache_hits` contributions, the
/// workload half of the greedy tables, and a kernel's lane buffers.
/// Capacities and bandwidths are not in it, so the designs of a sweep
/// that share a layer, a spatial unrolling and sampler inputs share one
/// fold; each design's [`BatchKernel::from_folded`] refolds only them.
///
/// Every column is the value [`BatchKernel::push`] computes for the same
/// ordering, by the same extension code, so a kernel over a fold scores
/// every lane, and counts every prefix reuse, bit for bit as a kernel
/// pushed the orderings.
pub struct FoldedSpace {
    work: Arc<WorkloadTables>,
    count: usize,
    /// The candidates, flat with stride `n`.
    orderings: Vec<(Dim, u64)>,
    /// Per candidate, [`COLUMNS`] columns of `n + 1` entries each:
    /// cycles, suffix, words W/I/O, distinct blocks W/I/O.
    columns: Vec<u64>,
    /// Per candidate: inner-prefix factors it shares with the candidate
    /// before it (0 for the first), its `cache_hits` contribution.
    hits: Vec<u32>,
    /// The lane buffers, while no kernel holds them.
    bufs: RefCell<Option<KernelBufs>>,
    bytes: usize,
}

impl FoldedSpace {
    /// Folds `candidates` (permutations of `factors`, in push order) for
    /// `layer` under `spatial`, with lane buffers for `lanes` lanes on
    /// `arch`'s chain shape.
    pub fn fold<'o>(
        arch: &Architecture,
        layer: &Layer,
        spatial: &SpatialUnroll,
        factors: &[(Dim, u64)],
        candidates: impl ExactSizeIterator<Item = &'o [(Dim, u64)]>,
        lanes: usize,
    ) -> Self {
        debug_assert!(factors.iter().all(|&(_, s)| s > 1));
        let work = Arc::new(WorkloadTables::new(layer, spatial, factors));
        let (n, count) = (factors.len(), candidates.len());
        let mut prefix = PrefixState::new(&work);
        let mut orderings = Vec::with_capacity(count * n);
        let mut columns = Vec::with_capacity(count * COLUMNS * (n + 1));
        let mut hits = Vec::with_capacity(count);
        for ordering in candidates {
            debug_assert_eq!(ordering.len(), n);
            hits.push(prefix.extend(&work, layer, ordering) as u32);
            orderings.extend_from_slice(ordering);
            let c = prefix.columns();
            for column in [c.cycles, c.suffix]
                .into_iter()
                .chain(c.words)
                .chain(c.distinct)
            {
                columns.extend_from_slice(column);
            }
        }
        let mut bufs = KernelBufs::default();
        bufs.refold(arch, layer, &work, lanes.max(1));
        let bytes = Self::footprint(n, count) + bufs.bytes();
        Self {
            work,
            count,
            orderings,
            columns,
            hits,
            bufs: RefCell::new(Some(bufs)),
            bytes,
        }
    }

    /// Bytes the columns, candidates and counters of a fold of `count`
    /// candidates of `n` factors take, before its lane buffers.
    pub fn footprint(n: usize, count: usize) -> usize {
        count * (COLUMNS * (n + 1) * size_of::<u64>() + n * size_of::<(Dim, u64)>() + 4)
    }

    /// Bytes this fold holds: its [`footprint`](Self::footprint) and its
    /// lane buffers as sized at fold time.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of folded candidates.
    pub fn candidate_count(&self) -> usize {
        self.count
    }

    /// Candidate `i`'s prefix column set.
    fn columns(&self, i: usize) -> Columns<'_> {
        let n = self.work.n;
        let stride = n + 1;
        let block = &self.columns[i * COLUMNS * stride..(i + 1) * COLUMNS * stride];
        let col = |k: usize| &block[k * stride..(k + 1) * stride];
        Columns {
            ordering: &self.orderings[i * n..(i + 1) * n],
            cycles: col(0),
            suffix: col(1),
            words: [col(2), col(3), col(4)],
            distinct: [col(5), col(6), col(7)],
        }
    }
}

/// A reusable batched evaluator for one (architecture, layer, spatial,
/// factor-multiset) search context. See the module docs.
pub struct BatchKernel<'a> {
    arch: &'a Architecture,
    layer: &'a Layer,
    /// The workload half of the greedy-allocation tables.
    work: Arc<WorkloadTables>,
    model: LatencyModel,
    objective: LaneObjective<'a>,
    precision: Precision,
    /// The folded space candidates are pushed from; its lane buffers go
    /// back to it when the kernel drops.
    folded: Option<Rc<FoldedSpace>>,
    /// The incrementally updated column set [`push`](Self::push) extends
    /// (empty over a folded space).
    prefix: PrefixState,
    bufs: KernelBufs,
    /// Lanes currently filled.
    count: usize,
    cc_ideal: f64,
    cache_hits: u64,
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
        let work = Arc::new(WorkloadTables::new(layer, spatial, factors));
        let prefix = PrefixState::new(&work);
        Self::build(arch, layer, work, model, None, prefix, lanes, objective)
    }

    /// Builds a kernel over `folded`, the folded sampled space of this
    /// `layer` (and of the spatial unrolling and factor multiset it was
    /// folded under) on an architecture of the same chain shape as
    /// `arch`: only `arch`'s capacities and link constants are folded,
    /// into the space's own lane buffers. Candidates are pushed by index
    /// ([`push_candidate`](Self::push_candidate)).
    pub fn from_folded(
        arch: &'a Architecture,
        layer: &'a Layer,
        folded: Rc<FoldedSpace>,
        model: LatencyModel,
        lanes: usize,
        objective: LaneObjective<'a>,
    ) -> Self {
        let work = Arc::clone(&folded.work);
        Self::build(
            arch,
            layer,
            work,
            model,
            Some(folded),
            PrefixState::default(),
            lanes,
            objective,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        arch: &'a Architecture,
        layer: &'a Layer,
        work: Arc<WorkloadTables>,
        model: LatencyModel,
        folded: Option<Rc<FoldedSpace>>,
        prefix: PrefixState,
        lanes: usize,
        objective: LaneObjective<'a>,
    ) -> Self {
        let mut bufs = folded
            .as_ref()
            .and_then(|f| f.bufs.borrow_mut().take())
            .unwrap_or_default();
        bufs.refold(arch, layer, &work, lanes.max(1));
        let macs = arch.mac_array().num_macs();
        Self {
            arch,
            layer,
            work,
            model,
            objective,
            precision: *layer.precision(),
            folded,
            prefix,
            bufs,
            count: 0,
            cc_ideal: layer.total_macs() as f64 / macs as f64,
            cache_hits: 0,
            winner: None,
        }
    }

    /// The lane capacity this kernel was built with.
    pub fn lanes(&self) -> usize {
        self.bufs.rows.lanes
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
        self.count == self.bufs.rows.lanes
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
    /// reading the kernel's greedy-allocation tables.
    pub fn classes(&self) -> OrderingClasses<'a> {
        OrderingClasses::with_tables(GreedyTables {
            layer: self.layer,
            work: Arc::clone(&self.work),
            budgets: self.bufs.budgets.clone(),
        })
    }

    /// Claims the next lane. Panics if the kernel [`is_full`](Self::is_full).
    fn next_lane(&mut self) -> usize {
        assert!(
            self.count < self.bufs.rows.lanes,
            "kernel is full; drain first"
        );
        self.count += 1;
        self.count - 1
    }

    /// Packs one ordering (innermost factor first, a permutation of the
    /// constructor's factor multiset) into the next lane: extends the
    /// kernel's prefix columns from the shared prefix with the previously
    /// pushed ordering, then fills the lane. Panics if the kernel
    /// [`is_full`](Self::is_full) or was built over a folded space.
    pub fn push(&mut self, ordering: &[(Dim, u64)]) {
        assert!(
            self.folded.is_none(),
            "a kernel over a folded space pushes candidates by index"
        );
        debug_assert_eq!(ordering.len(), self.work.n);
        let lane = self.next_lane();
        let shared = self.prefix.extend(&self.work, self.layer, ordering);
        self.cache_hits += shared as u64;
        let c = self.prefix.columns();
        self.bufs
            .fill(lane, self.arch, &self.work, &self.precision, c);
    }

    /// Packs candidate `i` of the folded space into the next lane, from
    /// its folded columns: the lane and the `cache_hits` count
    /// [`push`](Self::push) of the same candidate (after the ones before
    /// it) would give. Panics if the kernel [`is_full`](Self::is_full)
    /// or was not built by [`from_folded`](Self::from_folded).
    pub fn push_candidate(&mut self, i: usize) {
        let lane = self.next_lane();
        let folded = self
            .folded
            .as_deref()
            .expect("push_candidate needs a kernel over a folded space");
        self.cache_hits += u64::from(folded.hits[i]);
        self.bufs.fill(
            lane,
            self.arch,
            &self.work,
            &self.precision,
            folded.columns(i),
        );
    }

    /// Evaluates every filled lane in push order and resets the kernel.
    ///
    /// A latency kernel computes the phase floor and (for bw-aware
    /// models) the roofline bound for all lanes first; the
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
        let n = self.work.n;
        for lane in 0..cnt {
            let outcome = if self.bufs.lane_illegal[lane] {
                LaneOutcome::Illegal
            } else {
                let pruned = match incumbent {
                    Some(inc) if prunes => {
                        self.bufs.lane_floor[lane] >= inc
                            || (bw_aware
                                && self.bufs.lane_roof[lane] - inc > 1e-6 + 1e-9 * inc.abs())
                    }
                    _ => false,
                };
                if pruned {
                    LaneOutcome::Pruned
                } else {
                    LaneOutcome::Scored(self.score(lane))
                }
            };
            let ordering = &self.bufs.lane_ord[lane * n..(lane + 1) * n];
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
            rows: &self.bufs.rows,
            lane,
        };
        match &mut self.objective {
            LaneObjective::Energy(energy) | LaneObjective::Edp(energy) => {
                energy(&rows, self.work.cc_spatial)
            }
            LaneObjective::Latency => unreachable!("a latency kernel never prices energy"),
        }
    }

    /// Phase cycles of lanes `0..cnt`, one interface at a time, and, when
    /// `prunes`, the phase-floor and roofline bounds, each term the
    /// lowering's per-interface expression over the folded link
    /// constants. Illegal lanes hold stale rows; their values are never
    /// read.
    fn compute_bounds(&mut self, cnt: usize, prunes: bool) {
        let b = &mut self.bufs;
        let rows = &b.rows;
        let precision = &self.precision;
        // Preload: max over W and I of the per-level refill sums.
        b.lane_pre[..cnt].fill(0);
        for op in [Operand::W, Operand::I] {
            b.lane_tmp[..cnt].fill(0);
            let bits = precision.bits(op);
            for lvl in 0..rows.active[op.index()] {
                let bw = b.slots.interface(op, lvl).bw_bits;
                for (lane, acc) in b.lane_tmp[..cnt].iter_mut().enumerate() {
                    *acc += block_cycles(rows.at(lane, op, lvl).words, bits, bw);
                }
            }
            for (pre, &t) in b.lane_pre[..cnt].iter_mut().zip(&b.lane_tmp[..cnt]) {
                *pre = (*pre).max(t);
            }
        }
        // Offload: per-level drain sums of O at the crossing precision.
        b.lane_off[..cnt].fill(0);
        let o = Operand::O;
        for lvl in 0..rows.active[o.index()] {
            let bw = b.slots.interface(o, lvl).bw_bits;
            for (lane, off) in b.lane_off[..cnt].iter_mut().enumerate() {
                let row = rows.at(lane, o, lvl);
                let bits = crossing_bits(precision, o, row.final_above);
                *off += block_cycles(row.words, bits, bw);
            }
        }
        if !prunes {
            return;
        }
        // Phase floor: the stall-free composition, through the same
        // `FastLatency::compose` every other path uses.
        for lane in 0..cnt {
            b.lane_floor[lane] = FastLatency::compose(
                b.lane_pre[lane],
                b.lane_off[lane],
                self.cc_ideal,
                self.work.cc_spatial,
                0.0,
            )
            .cc_total;
        }
        // Roofline bound over the compute roof and every interface roof,
        // in (operand, level) order.
        if !self.model.options().bw_aware {
            return;
        }
        b.lane_roof[..cnt].fill(self.cc_ideal);
        for op in Operand::all() {
            for lvl in 0..rows.active[op.index()] {
                let bw = b.slots.interface(op, lvl).bw_bits as f64;
                for (lane, roof) in b.lane_roof[..cnt].iter_mut().enumerate() {
                    let (main, read_back) =
                        interface_traffic(precision, op, rows.at(lane, op, lvl));
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
        let b = &mut self.bufs;
        let ss_overall = if opts.bw_aware {
            let rows = Lane {
                rows: &b.rows,
                lane,
            };
            let dtl_opts = self.model.dtl_options();
            build_dtls_with(&self.precision, dtl_opts, &rows, &b.slots, &mut b.dtls);
            let raw =
                b.stall
                    .combine_and_integrate(self.arch, &b.dtls, opts.eq2_oversubscription_bound);
            raw.max(0.0)
        } else {
            0.0
        };
        FastLatency::compose(
            b.lane_pre[lane],
            b.lane_off[lane],
            self.cc_ideal,
            self.work.cc_spatial,
            ss_overall,
        )
    }
}

impl Drop for BatchKernel<'_> {
    /// Hands the lane buffers back to the folded space they came from.
    fn drop(&mut self) {
        if let Some(mut slot) = self
            .folded
            .as_ref()
            .and_then(|f| f.bufs.try_borrow_mut().ok())
        {
            *slot = Some(std::mem::take(&mut self.bufs));
        }
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
    assert!(!kernel.bufs.lane_illegal[0], "{}", layer.name());
    kernel.compute_bounds(1, true);
    let latency = kernel.lane_latency(0).cc_total;
    (kernel.bufs.lane_floor[0], kernel.bufs.lane_roof[0], latency)
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
