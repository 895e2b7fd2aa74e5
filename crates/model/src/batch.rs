//! Batched evaluation of candidate loop orderings: the mapper's one
//! ordering-search engine, for every objective.
//!
//! For the ordering search the architecture, the layer, the spatial
//! unrolling and the factor *multiset* are fixed, and only the factor
//! *order* varies. [`BatchKernel`] exploits that by packing up to `lanes`
//! orderings into lanes and reading each ordering's per-(operand, level)
//! rows — `Mem_DATA`, `Mem_CC`, `Z`, the `ReqBW` run, refill and
//! distinct-block counts, output finality — through the [`Rows`] trait,
//! by the same bodies that read a lowered layer, so a lane's score is
//! bit-identical to the one-ordering evaluation of its ordering by
//! construction:
//!
//! * **Latency** ([`LaneObjective::Latency`]): `drain` walks the lanes in
//!   push order and prunes each one whose roofline bound (bw-aware
//!   models only, checked first) or phase floor shows it cannot beat the
//!   running incumbent. Only survivors pay for
//!   Steps 1–3: the lowering's own DTL body over the lane's rows, then
//!   the same [`StallScratch::combine_and_integrate`] as
//!   [`LatencyModel::evaluate_fast`].
//! * **Energy** ([`LaneObjective::Energy`]): the energy model's own
//!   access-count body over the lane's rows (supplied by `ulm-energy`,
//!   which this crate cannot depend on). No DTLs, no Steps 2–3.
//! * **EDP** ([`LaneObjective::Edp`]): the latency score times the
//!   energy.
//!
//! Energy and EDP lanes are never pruned (DESIGN.md §10.2 has the exact
//! EDP bound and why it is not applied yet). The objective is a
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
//! words and the distinct-block count above `p`. One greedy-split body
//! replays the greedy level allocation against an operand's word budgets
//! and cuts the columns at each level's bound; every row scalar is then
//! a column read at a cut (`SplitRows`), so the residency check reads
//! the rows without storing them, and the one row-fill body stores them
//! where the bounds or a score need them. The bound expressions (phase
//! cycles, interface roofs) are one body each, over any [`Rows`].
//! [`push`](BatchKernel::push) extends the kernel's one incrementally
//! updated column set: shared inner prefixes with the previously pushed
//! ordering are reused and counted in
//! [`cache_hits`](BatchKernel::cache_hits), and the lane's rows are
//! stored at push time, since the next push overwrites the columns.
//!
//! A sampled space's candidates are fixed, so a [`FoldedSpace`] computes
//! every candidate's columns, and its `cache_hits` contribution, once; a
//! kernel built on it ([`BatchKernel::from_folded`]) folds only the
//! design half and pushes candidates by index
//! ([`push_candidate`](BatchKernel::push_candidate)). A candidate's
//! greedy split depends on the design only through its operand's word
//! budgets, and its bound terms only through the split and the operand's
//! interface bandwidths, and the designs of a sweep share few of those,
//! so the fold also memoizes, per operand, budget vector and bandwidth
//! vector, every candidate's split and bound terms (at most
//! [`SPLIT_ENTRIES`] entries). A pushed candidate then costs its
//! residency check at the memoized cuts; `drain` combines its operands'
//! memoized bounds, and fills its rows only if it scores it. Rows,
//! scores and counters are those of a kernel that pushed the orderings.

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
use ulm_workload::{Dim, DimSizes, Layer, Operand, Precision, ALL_OPERANDS};

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

/// The stored lane rows: [`LevelLowering`] tables, operand-major,
/// contiguous per slot, indexed `slot * per_lane + row_off[op] + level`.
/// An unfolded kernel stores every lane's rows; a kernel over a
/// [`FoldedSpace`] stores only the lane being scored, in slot 0.
#[derive(Default)]
struct LaneRows {
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

/// A placeholder row for slots not filled yet.
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
    /// Shapes the rows for `slots` lanes of `layer` on `arch`'s chains,
    /// reusing this storage.
    fn reset(&mut self, arch: &Architecture, layer: &Layer, feed: [u64; 3], slots: usize) {
        let h = arch.hierarchy();
        let chain_len = |op: Operand| h.chain(op).len();
        self.row_off = [
            0,
            chain_len(Operand::W),
            chain_len(Operand::W) + chain_len(Operand::I),
        ];
        self.per_lane = self.row_off[2] + chain_len(Operand::O);
        self.active = [Operand::W, Operand::I, Operand::O]
            .map(|op| kv_active_interfaces(layer, op, chain_len(op)));
        self.feed = feed;
        self.rows.resize(self.per_lane * slots, NO_ROW);
    }

    /// Slot `slot`'s row of operand `op` at `level`.
    #[inline]
    fn at(&self, slot: usize, op: Operand, level: usize) -> &LevelLowering {
        &self.rows[slot * self.per_lane + self.row_off[op.index()] + level]
    }

    /// Bytes of the rows' storage.
    fn bytes(&self) -> usize {
        self.rows.capacity() * size_of::<LevelLowering>()
    }
}

/// One slot of [`LaneRows`] read as [`Rows`]: the row source a scored
/// lane hands to the shared DTL and energy bodies.
struct Lane<'r> {
    rows: &'r LaneRows,
    slot: usize,
}

impl Rows for Lane<'_> {
    fn active(&self, op: Operand) -> usize {
        self.rows.active[op.index()]
    }

    fn row(&self, op: Operand, level: usize) -> LevelLowering {
        *self.rows.at(self.slot, op, level)
    }

    fn feed(&self, op: Operand) -> u64 {
        self.rows.feed[op.index()]
    }
}

/// The prefix column set of one ordering: what the split and the rows
/// read. Every column has `n + 1` entries, indexed by prefix length.
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

/// The one greedy-split body: replays the greedy level allocation of
/// operand `oi` of the ordering whose prefix columns are `c` against the
/// word budgets `caps` (one per level below the top) — the same bounds
/// `Mapping::with_greedy_alloc` assigns — into `cuts`: per level, the
/// prefix length it holds, the top one `n`. False when no legal split
/// exists. Cuts fit 16 bits: a multiset has at most 63 prime factors per
/// dimension.
fn greedy_split(c: &Columns<'_>, oi: usize, caps: &[u64], cuts: &mut [u16]) -> bool {
    let (n, words) = (c.ordering.len(), c.words[oi]);
    let mut upper = 0usize;
    for (lvl, cut) in cuts.iter_mut().enumerate() {
        match caps.get(lvl) {
            Some(&cap) => {
                if words[upper] > cap {
                    return false;
                }
                while upper < n && words[upper + 1] <= cap {
                    upper += 1;
                }
            }
            None => upper = n,
        }
        *cut = upper as u16;
    }
    true
}

/// One ordering's rows at its greedy split, read as [`Rows`]: each row is
/// a few column reads at its level's cut, computed on read, so the
/// residency check and the bounds store nothing.
struct SplitRows<'r> {
    c: Columns<'r>,
    /// Per operand, one cut per level.
    cuts: [&'r [u16]; 3],
    work: &'r WorkloadTables,
    active: [usize; 3],
}

impl Rows for SplitRows<'_> {
    fn active(&self, op: Operand) -> usize {
        self.active[op.index()]
    }

    // Not inlined into the row fill on its own, where a call per row
    // cost an unfolded push about 15%.
    #[inline(always)]
    fn row(&self, op: Operand, level: usize) -> LevelLowering {
        let (oi, c) = (op.index(), &self.c);
        let cuts = self.cuts[oi];
        let upper = cuts[level] as usize;
        let lower = level.checked_sub(1).map_or(0, |l| cuts[l] as usize);
        let rel = &self.work.ops[oi].rel;
        let mut run = 1u64;
        for &(d, s) in c.ordering[lower..upper].iter().rev() {
            if rel[d.index()] {
                break;
            }
            run *= s;
        }
        // First relevant position at or above `upper`; the scan only
        // crosses the (short) irrelevant run above the split.
        let mut first_rel = upper;
        while first_rel < c.ordering.len() && !rel[c.ordering[first_rel].0.index()] {
            first_rel += 1;
        }
        // Sizes being > 1, everything above is relevant iff the full and
        // relevant-only suffix products agree.
        let distinct = c.distinct[oi][upper];
        LevelLowering {
            words: c.words[oi][upper],
            period: c.cycles[upper],
            z: c.suffix[upper],
            run,
            refills: c.suffix[first_rel],
            distinct_above: distinct,
            final_above: c.suffix[upper] == distinct,
        }
    }

    fn feed(&self, op: Operand) -> u64 {
        self.work.feed[op.index()]
    }
}

/// The bound expressions, one body each, per operand over the rows
/// `rows` reads and the folded link constants: the lowering's
/// per-interface terms. Operand `op`'s phase cycles: the refill (W, I)
/// or drain (O) block cycles summed over its active interfaces.
fn phase_cycles(rows: &impl Rows, op: Operand, slots: &FoldedSlots, precision: &Precision) -> u64 {
    (0..rows.active(op))
        .map(|lvl| {
            let row = rows.row(op, lvl);
            let bits = crossing_bits(precision, op, row.final_above);
            block_cycles(row.words, bits, slots.interface(op, lvl).bw_bits)
        })
        .sum()
}

/// Operand `op`'s largest interface roof: its traffic over the link
/// bandwidth, 0 when it crosses no interface.
fn interface_roof(
    rows: &impl Rows,
    op: Operand,
    slots: &FoldedSlots,
    precision: &Precision,
) -> f64 {
    (0..rows.active(op)).fold(0.0, |roof: f64, lvl| {
        let (main, read_back) = interface_traffic(precision, op, &rows.row(op, lvl));
        roof.max((main + read_back) as f64 / slots.interface(op, lvl).bw_bits as f64)
    })
}

/// A legal lane's phase cycles and phase floor.
#[derive(Debug, Clone, Copy)]
struct LaneBounds {
    /// Preload and offload cycles, fed to [`FastLatency::compose`].
    pre: u64,
    off: u64,
    /// The stall-free `CC_total`.
    floor: f64,
}

impl LaneBounds {
    /// A lane's bounds from its operands' (W, I, O) phase cycles: the
    /// preload is the max over W and I, the offload O's, the phase floor
    /// their stall-free composition through the same
    /// `FastLatency::compose` every other path uses.
    fn of([w, i, o]: [u64; 3], cc_ideal: f64, cc_spatial: u64) -> Self {
        let pre = w.max(i);
        Self {
            pre,
            off: o,
            floor: FastLatency::compose(pre, o, cc_ideal, cc_spatial, 0.0).cc_total,
        }
    }
}

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
    /// `CC_ideal`: the layer's MACs over the array's.
    cc_ideal: f64,
    rows: LaneRows,
    // --- per-push scratch ---
    residency: Vec<u64>,
    // --- lanes ---
    lanes: usize,
    /// Per lane: its ordering (unfolded kernels) or its candidate index
    /// (kernels over a fold).
    lane_ord: Vec<(Dim, u64)>,
    lane_cand: Vec<u32>,
    lane_illegal: Vec<bool>,
    // --- survivor evaluation ---
    dtls: Vec<Dtl>,
    /// Steps 2–3 scratch.
    stall: StallScratch,
}

impl KernelBufs {
    /// Folds what `arch` decides — capacities, link constants, the lane
    /// shape — into this storage, for `lanes` lanes of `layer`, pushed by
    /// ordering or, when `folded`, by candidate index.
    fn refold(
        &mut self,
        arch: &Architecture,
        layer: &Layer,
        work: &WorkloadTables,
        lanes: usize,
        folded: bool,
    ) {
        let h = arch.hierarchy();
        self.budgets.refold(arch, layer, work);
        self.mem_caps.clear();
        self.mem_caps.extend(
            h.memories()
                .iter()
                .map(|m| (!m.is_backing_store()).then(|| m.mapper_capacity_bits())),
        );
        self.slots.refold(h);
        self.cc_ideal = layer.total_macs() as f64 / arch.mac_array().num_macs() as f64;
        self.rows
            .reset(arch, layer, work.feed, if folded { 1 } else { lanes });
        self.residency.resize(h.memories().len(), 0);
        self.lanes = lanes;
        let (ord, cand) = if folded {
            (0, lanes)
        } else {
            (work.n * lanes, 0)
        };
        self.lane_ord.resize(ord, (Dim::B, 0));
        self.lane_cand.resize(cand, 0);
        self.lane_illegal.resize(lanes, false);
        self.dtls.clear();
        self.dtls.reserve(16);
    }

    /// Bytes of this storage.
    fn bytes(&self) -> usize {
        self.budgets.bytes()
            + self.mem_caps.capacity() * size_of::<Option<u64>>()
            + self.slots.bytes()
            + self.rows.bytes()
            + self.residency.capacity() * size_of::<u64>()
            + self.lane_ord.capacity() * size_of::<(Dim, u64)>()
            + self.lane_cand.capacity() * size_of::<u32>()
            + self.lane_illegal.capacity()
            + self.dtls.capacity() * size_of::<Dtl>()
    }

    /// Records whether lane `lane`, `legal` by its greedy split, also
    /// fits every physical memory (backing stores exempt) at the split
    /// `src` reads, and returns it.
    fn admit(
        &mut self,
        lane: usize,
        legal: bool,
        arch: &Architecture,
        precision: &Precision,
        src: &SplitRows<'_>,
    ) -> bool {
        let legal = legal && {
            self.residency.fill(0);
            for op in Operand::all() {
                let (oi, bits) = (op.index(), precision.bits(op));
                for (&cut, &mid) in src.cuts[oi].iter().zip(arch.hierarchy().chain(op)) {
                    self.residency[mid.0] += src.c.words[oi][cut as usize] * bits;
                }
            }
            self.residency
                .iter()
                .zip(&self.mem_caps)
                .all(|(&needed, cap)| cap.is_none_or(|cap| needed <= cap))
        };
        self.lane_illegal[lane] = !legal;
        legal
    }

    /// The one row-fill body: stores the rows `src` reads in slot `slot`.
    fn fill(&mut self, slot: usize, src: &SplitRows<'_>) {
        let rows = &mut self.rows;
        for op in Operand::all() {
            let first = slot * rows.per_lane + rows.row_off[op.index()];
            for lvl in 0..src.cuts[op.index()].len() {
                rows.rows[first + lvl] = src.row(op, lvl);
            }
        }
    }
}

/// Split-memo entries each [`FoldedSpace`] keeps, over all operands. A
/// Fig. 8 array side meets 15 W, 15 I and 2 O word-budget vectors per
/// GB bandwidth; when the memo is full its oldest entry makes room,
/// which costs a design one split and one bound per candidate, the
/// price of an unfolded push.
pub const SPLIT_ENTRIES: usize = 32;

/// One candidate's bound terms for one operand at its split.
#[derive(Debug, Clone, Copy, Default)]
struct OperandBounds {
    /// Its [`phase_cycles`].
    cycles: u64,
    /// Its [`interface_roof`].
    roof: f64,
}

/// One operand's greedy split of every candidate of a fold under one
/// word-budget vector, and each candidate's [`OperandBounds`] at that
/// split under one vector of interface bandwidths.
struct Split {
    oi: usize,
    /// The word budgets, one per level below the top, and the bandwidths
    /// of the operand's active interfaces: the memo key.
    caps: Vec<u64>,
    bws: Vec<u64>,
    levels: usize,
    /// Per candidate: does a legal split exist?
    legal: Vec<bool>,
    /// Per candidate, one cut per level, and its bounds (read only when
    /// legal).
    cuts: Vec<u16>,
    bounds: Vec<OperandBounds>,
}

impl Split {
    /// Candidate `i`'s cuts.
    fn cuts(&self, i: usize) -> &[u16] {
        &self.cuts[i * self.levels..(i + 1) * self.levels]
    }

    /// Bytes an entry for `count` candidates over `levels` levels takes,
    /// its shared allocation's reference counts and its memo slot
    /// included.
    fn bytes(count: usize, levels: usize) -> usize {
        Self::OVERHEAD
            + 2 * levels.saturating_sub(1) * size_of::<u64>()
            + count * (1 + levels * size_of::<u16>() + size_of::<OperandBounds>())
    }

    /// Bytes this entry holds.
    fn held(&self) -> usize {
        Self::OVERHEAD
            + (self.caps.capacity() + self.bws.capacity()) * size_of::<u64>()
            + self.legal.capacity()
            + self.cuts.capacity() * size_of::<u16>()
            + self.bounds.capacity() * size_of::<OperandBounds>()
    }

    const OVERHEAD: usize = size_of::<Split>() + 2 * size_of::<usize>() + size_of::<Rc<Split>>();
}

/// A sampled search context folded once: the design-independent prefix
/// columns of every candidate ordering of one (layer, spatial unrolling,
/// factor multiset) and the candidates' `cache_hits` contributions, the
/// workload half of the greedy tables, a kernel's lane buffers and the
/// memo of greedy splits per operand budget vector. Capacities and
/// bandwidths are not in it, so the designs of a sweep that share a
/// layer, a spatial unrolling and sampler inputs share one fold; each
/// design's [`BatchKernel::from_folded`] refolds only them.
///
/// Every column is the value [`BatchKernel::push`] computes for the same
/// ordering, by the same extension code, and every split the value of
/// the same greedy-split body, so a kernel over a fold scores every
/// lane, and counts every prefix reuse, bit for bit as a kernel pushed
/// the orderings.
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
    /// The split memo, oldest entry first, at most [`SPLIT_ENTRIES`].
    splits: RefCell<Vec<Rc<Split>>>,
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
        bufs.refold(arch, layer, &work, lanes.max(1), true);
        let levels = bufs.budgets.levels.into_iter().max().unwrap_or(0);
        let bytes = Self::footprint(n, count) + Self::memo_reserve(count, levels) + bufs.bytes();
        Self {
            work,
            count,
            orderings,
            columns,
            hits,
            bufs: RefCell::new(Some(bufs)),
            splits: RefCell::new(Vec::with_capacity(SPLIT_ENTRIES)),
            bytes,
        }
    }

    /// Bytes the columns, candidates and counters of a fold of `count`
    /// candidates of `n` factors take, before its lane buffers and its
    /// split memo.
    pub fn footprint(n: usize, count: usize) -> usize {
        count * (COLUMNS * (n + 1) * size_of::<u64>() + n * size_of::<(Dim, u64)>() + 4)
    }

    /// Bytes the split memo of a fold of `count` candidates, on chains of
    /// at most `levels` levels, takes at its [`SPLIT_ENTRIES`] bound.
    pub fn memo_reserve(count: usize, levels: usize) -> usize {
        SPLIT_ENTRIES * Split::bytes(count, levels)
    }

    /// Bytes this fold holds: its [`footprint`](Self::footprint), its
    /// [`memo_reserve`](Self::memo_reserve), reserved up front, and its
    /// lane buffers as sized at fold time.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Bytes the split memo holds now: within the reserve
    /// [`bytes`](Self::bytes) counts for it.
    pub fn memo_bytes(&self) -> usize {
        self.splits.borrow().iter().map(|s| s.held()).sum()
    }

    /// Number of folded candidates.
    pub fn candidate_count(&self) -> usize {
        self.count
    }

    /// Candidate `i`'s ordering.
    fn ordering(&self, i: usize) -> &[(Dim, u64)] {
        let n = self.work.n;
        &self.orderings[i * n..(i + 1) * n]
    }

    /// Candidate `i`'s prefix column set.
    fn columns(&self, i: usize) -> Columns<'_> {
        let stride = self.work.n + 1;
        let block = &self.columns[i * COLUMNS * stride..(i + 1) * COLUMNS * stride];
        let col = |k: usize| &block[k * stride..(k + 1) * stride];
        Columns {
            ordering: self.ordering(i),
            cycles: col(0),
            suffix: col(1),
            words: [col(2), col(3), col(4)],
            distinct: [col(5), col(6), col(7)],
        }
    }

    /// Operand `op`'s split of every candidate, and its bounds there,
    /// under the word budgets and link constants `bufs` holds for one
    /// design: a memo hit compares them in place and allocates nothing;
    /// a miss splits and bounds every candidate and evicts the oldest
    /// entry of a full memo.
    fn split(&self, bufs: &KernelBufs, precision: &Precision, op: Operand) -> Rc<Split> {
        let (oi, b, slots) = (op.index(), &bufs.budgets, &bufs.slots);
        let (caps, active) = (b.caps(oi), bufs.rows.active);
        let bws = (0..active[oi]).map(|lvl| slots.interface(op, lvl).bw_bits);
        let mut memo = self.splits.borrow_mut();
        if let Some(hit) = memo
            .iter()
            .find(|s| s.oi == oi && s.caps == caps && s.bws.iter().copied().eq(bws.clone()))
        {
            return Rc::clone(hit);
        }
        let levels = b.levels[oi];
        let mut entry = Split {
            oi,
            caps: caps.to_vec(),
            bws: bws.collect(),
            levels,
            legal: Vec::with_capacity(self.count),
            cuts: vec![0; self.count * levels],
            bounds: vec![OperandBounds::default(); self.count],
        };
        let chunks = entry.cuts.chunks_exact_mut(levels);
        for ((i, cuts), bound) in chunks.enumerate().zip(&mut entry.bounds) {
            let c = self.columns(i);
            let legal = greedy_split(&c, oi, caps, cuts);
            entry.legal.push(legal);
            if legal {
                let mut src = SplitRows {
                    c,
                    cuts: [&[]; 3],
                    work: &self.work,
                    active,
                };
                src.cuts[oi] = cuts;
                *bound = OperandBounds {
                    cycles: phase_cycles(&src, op, slots, precision),
                    roof: interface_roof(&src, op, slots, precision),
                };
            }
        }
        let entry = Rc::new(entry);
        if memo.len() == SPLIT_ENTRIES {
            memo.remove(0);
        }
        memo.push(Rc::clone(&entry));
        entry
    }

    /// Candidate `i`'s rows at the memoized `splits`.
    fn rows<'r>(
        &'r self,
        splits: &'r [Rc<Split>; 3],
        i: usize,
        active: [usize; 3],
    ) -> SplitRows<'r> {
        SplitRows {
            c: self.columns(i),
            cuts: [0, 1, 2].map(|oi| splits[oi].cuts(i)),
            work: &self.work,
            active,
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
    /// The folded space candidates are pushed from, and its split of
    /// every candidate per operand under this design's budgets; its lane
    /// buffers go back to it when the kernel drops.
    folded: Option<(Rc<FoldedSpace>, [Rc<Split>; 3])>,
    /// The incrementally updated column set [`push`](Self::push) extends
    /// and the split scratch, per operand (empty over a folded space).
    prefix: PrefixState,
    cuts: [Vec<u16>; 3],
    bufs: KernelBufs,
    /// Lanes currently filled.
    count: usize,
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
        let mut kernel = Self::build(arch, layer, work, model, None, lanes, objective);
        kernel.prefix = PrefixState::new(&kernel.work);
        kernel.cuts = kernel.bufs.budgets.levels.map(|levels| vec![0; levels]);
        kernel
    }

    /// Builds a kernel over `folded`, the folded sampled space of this
    /// `layer` (and of the spatial unrolling and factor multiset it was
    /// folded under) on an architecture of the same chain shape as
    /// `arch`: only `arch`'s capacities and link constants are folded,
    /// into the space's own lane buffers, and each operand's split is
    /// looked up in the space's memo. Candidates are pushed by index
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
        Self::build(arch, layer, work, model, Some(folded), lanes, objective)
    }

    fn build(
        arch: &'a Architecture,
        layer: &'a Layer,
        work: Arc<WorkloadTables>,
        model: LatencyModel,
        folded: Option<Rc<FoldedSpace>>,
        lanes: usize,
        objective: LaneObjective<'a>,
    ) -> Self {
        let mut bufs = folded
            .as_ref()
            .and_then(|f| f.bufs.borrow_mut().take())
            .unwrap_or_default();
        bufs.refold(arch, layer, &work, lanes.max(1), folded.is_some());
        let precision = *layer.precision();
        let folded = folded.map(|f| {
            let splits = ALL_OPERANDS.map(|op| f.split(&bufs, &precision, op));
            (f, splits)
        });
        Self {
            arch,
            layer,
            work,
            model,
            objective,
            precision,
            folded,
            prefix: PrefixState::default(),
            cuts: Default::default(),
            bufs,
            count: 0,
            cache_hits: 0,
            winner: None,
        }
    }

    /// The lane capacity this kernel was built with.
    pub fn lanes(&self) -> usize {
        self.bufs.lanes
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
        self.count == self.bufs.lanes
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
        assert!(self.count < self.bufs.lanes, "kernel is full; drain first");
        self.count += 1;
        self.count - 1
    }

    /// Packs one ordering (innermost factor first, a permutation of the
    /// constructor's factor multiset) into the next lane: extends the
    /// kernel's prefix columns from the shared prefix with the previously
    /// pushed ordering, splits it and stores its rows. Panics
    /// if the kernel [`is_full`](Self::is_full) or was built over a
    /// folded space.
    pub fn push(&mut self, ordering: &[(Dim, u64)]) {
        assert!(
            self.folded.is_none(),
            "a kernel over a folded space pushes candidates by index"
        );
        let n = self.work.n;
        debug_assert_eq!(ordering.len(), n);
        let lane = self.next_lane();
        let shared = self.prefix.extend(&self.work, self.layer, ordering);
        self.cache_hits += shared as u64;
        self.bufs.lane_ord[lane * n..(lane + 1) * n].copy_from_slice(ordering);
        let c = self.prefix.columns();
        let b = &self.bufs.budgets;
        let legal = b.const_legal
            && self
                .cuts
                .iter_mut()
                .enumerate()
                .all(|(oi, cuts)| greedy_split(&c, oi, b.caps(oi), cuts));
        let src = SplitRows {
            c,
            cuts: [&self.cuts[0], &self.cuts[1], &self.cuts[2]],
            work: &self.work,
            active: self.bufs.rows.active,
        };
        if self
            .bufs
            .admit(lane, legal, self.arch, &self.precision, &src)
        {
            // The stored rows are cheaper to read than to recompute.
            self.bufs.fill(lane, &src);
        }
    }

    /// Packs candidate `i` of the folded space into the next lane: its
    /// legality, read at the memoized splits, and the `cache_hits` count
    /// [`push`](Self::push) of the same candidate (after the ones before
    /// it) would give. Its bounds are read from the memo and its rows
    /// filled only when [`drain`](Self::drain) reaches it. Panics if the
    /// kernel
    /// [`is_full`](Self::is_full) or was not built by
    /// [`from_folded`](Self::from_folded).
    pub fn push_candidate(&mut self, i: usize) {
        let lane = self.next_lane();
        let (folded, splits) = self
            .folded
            .as_ref()
            .expect("push_candidate needs a kernel over a folded space");
        self.cache_hits += u64::from(folded.hits[i]);
        let bufs = &mut self.bufs;
        bufs.lane_cand[lane] = i as u32;
        let legal = bufs.budgets.const_legal && splits.iter().all(|s| s.legal[i]);
        let src = folded.rows(splits, i, bufs.rows.active);
        bufs.admit(lane, legal, self.arch, &self.precision, &src);
    }

    /// Evaluates every filled lane in push order and resets the kernel.
    ///
    /// A latency kernel prunes each legal lane against the running
    /// `incumbent` on its roofline (bw-aware models) and its phase
    /// floor; only the survivors are fully evaluated, a folded lane's
    /// rows filled first. Energy and EDP kernels score every legal lane.
    /// `visit` receives each lane's ordering and outcome and returns the
    /// updated incumbent (the chunk-local best so far), so prune
    /// decisions follow the first-strictly-better walk exactly. Returns
    /// the final incumbent.
    pub fn drain(
        &mut self,
        mut incumbent: Option<f64>,
        mut visit: impl FnMut(&[(Dim, u64)], LaneOutcome) -> Option<f64>,
    ) -> Option<f64> {
        let folded = self.folded.as_ref().map(|(f, _)| Rc::clone(f));
        let n = self.work.n;
        for lane in 0..self.count {
            let outcome = self.outcome(lane, incumbent);
            let ordering = match &folded {
                Some(f) => f.ordering(self.bufs.lane_cand[lane] as usize),
                None => &self.bufs.lane_ord[lane * n..(lane + 1) * n],
            };
            incumbent = visit(ordering, outcome);
        }
        self.count = 0;
        incumbent
    }

    /// Lane `lane`'s outcome against `incumbent`. A latency or EDP lane
    /// that beats every lane scored before it keeps its latency scalars.
    fn outcome(&mut self, lane: usize, incumbent: Option<f64>) -> LaneOutcome {
        if self.bufs.lane_illegal[lane] {
            return LaneOutcome::Illegal;
        }
        if let LaneObjective::Energy(_) = self.objective {
            let slot = self.lane_slot(lane);
            return LaneOutcome::Scored(self.lane_energy(slot));
        }
        // The roofline is checked first: on bandwidth-bound spaces it
        // prunes most lanes and the phase floor almost none.
        let mut bounds = None;
        if matches!(self.objective, LaneObjective::Latency)
            && incumbent.is_some_and(|inc| {
                (self.model.options().bw_aware
                    && self.lane_roof(lane) - inc > 1e-6 + 1e-9 * inc.abs())
                    || bounds.insert(self.lane_bounds(lane)).floor >= inc
            })
        {
            return LaneOutcome::Pruned;
        }
        let bounds = bounds.unwrap_or_else(|| self.lane_bounds(lane));
        let slot = self.lane_slot(lane);
        let latency = self.lane_latency(bounds, slot);
        let score = match self.objective {
            LaneObjective::Edp(_) => latency.cc_total * self.lane_energy(slot),
            _ => latency.cc_total,
        };
        if self.winner.is_none_or(|(best, _)| score < best) {
            self.winner = Some((score, latency));
        }
        LaneOutcome::Scored(score)
    }

    /// The row slot of legal lane `lane`, which is scored: a folded
    /// lane's rows are filled now, into the one slot.
    fn lane_slot(&mut self, lane: usize) -> usize {
        let Some((folded, splits)) = &self.folded else {
            return lane;
        };
        let i = self.bufs.lane_cand[lane] as usize;
        let src = folded.rows(splits, i, self.bufs.rows.active);
        self.bufs.fill(0, &src);
        0
    }

    /// Legal lane `lane`'s operand (W, I, O) bound terms: `memo` of its
    /// split-memo entries (a folded lane) or `body` over its stored rows.
    fn lane_terms<T>(
        &self,
        lane: usize,
        memo: impl Fn(&OperandBounds) -> T,
        body: impl Fn(&Lane<'_>, Operand, &FoldedSlots, &Precision) -> T,
    ) -> [T; 3] {
        let b = &self.bufs;
        match &self.folded {
            Some((_, splits)) => {
                let i = b.lane_cand[lane] as usize;
                splits.each_ref().map(|s| memo(&s.bounds[i]))
            }
            None => {
                let rows = Lane {
                    rows: &b.rows,
                    slot: lane,
                };
                ALL_OPERANDS.map(|op| body(&rows, op, &b.slots, &self.precision))
            }
        }
    }

    /// Legal lane `lane`'s phase cycles and phase floor.
    fn lane_bounds(&self, lane: usize) -> LaneBounds {
        let cycles = self.lane_terms(lane, |t| t.cycles, |r, op, s, p| phase_cycles(r, op, s, p));
        LaneBounds::of(cycles, self.bufs.cc_ideal, self.work.cc_spatial)
    }

    /// Legal lane `lane`'s roofline bound: the max of the compute roof
    /// and every interface roof.
    fn lane_roof(&self, lane: usize) -> f64 {
        let roofs = self.lane_terms(lane, |t| t.roof, |r, op, s, p| interface_roof(r, op, s, p));
        roofs.into_iter().fold(self.bufs.cc_ideal, f64::max)
    }

    /// The energy of the lane whose rows are in `slot`, by the scorer the
    /// kernel was built with.
    fn lane_energy(&mut self, slot: usize) -> f64 {
        let rows = Lane {
            rows: &self.bufs.rows,
            slot,
        };
        match &mut self.objective {
            LaneObjective::Energy(energy) | LaneObjective::Edp(energy) => {
                energy(&rows, self.work.cc_spatial)
            }
            LaneObjective::Latency => unreachable!("a latency kernel never prices energy"),
        }
    }

    /// The latency scalars of a surviving lane with phase cycles
    /// `bounds`, whose rows are in `slot`: the lowering's own DTL body
    /// over the rows and the folded link constants, then Steps 2–3 and
    /// the composition.
    fn lane_latency(&mut self, bounds: LaneBounds, slot: usize) -> FastLatency {
        let opts = *self.model.options();
        let b = &mut self.bufs;
        let ss_overall = if opts.bw_aware {
            let rows = Lane {
                rows: &b.rows,
                slot,
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
            bounds.pre,
            bounds.off,
            b.cc_ideal,
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
            .and_then(|(f, _)| f.bufs.try_borrow_mut().ok())
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
    let bounds = kernel.lane_bounds(0);
    let latency = kernel.lane_latency(bounds, 0).cc_total;
    (bounds.floor, kernel.lane_roof(0), latency)
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
