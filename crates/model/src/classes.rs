//! Ordering classes: the exact state of a loop-ordering *prefix* as far
//! as the greedy level allocation and every later row can tell.
//!
//! Step 1 and Table I charge each memory level only per-level
//! quantities: the data size at the level boundary, its period and `Z`,
//! the run of top irrelevant loops, refills, distinct blocks and output
//! finality. Those quantities depend on an ordering only through a small
//! state that can be built incrementally, one placed factor at a time,
//! innermost first. Per operand it holds:
//!
//! - the current greedy level;
//! - for each *completed* level boundary `b` (closed once the next
//!   factor would overflow the level's word budget, exactly the batched
//!   kernel's greedy loop): `words[b]`, `prefix_cycles[b]`, the
//!   relevant-only prefix product at `b` and the run of trailing
//!   irrelevant factors below `b` (clipped at the level's lower bound).
//!   The refill count needs no entry of its own: only a factor that
//!   grows the operand's words — a relevant one — can overflow a level,
//!   so the first relevant factor at or above `b` is the one at `b`, and
//!   the refills equal `total / prefix_cycles[b]`;
//! - for the open level, the product of trailing irrelevant factors
//!   above its lower bound;
//! - an illegal marker once a level's lower-bound words overflow it.
//!
//! Together with the multiset of factors still to place, that state
//! decides every row (and so legality and every score) of every
//! completion. [`OrderingClasses::enter`] builds it in O(1) per tree
//! node and operand and reports whether it was seen before in this walk.
//! The memo key is exact: the remaining multiset as a mixed-radix
//! integer, and per operand an interned id of its (completed-row list,
//! open run) pair, the list itself interned one row at a time. A prefix
//! whose state was already seen has completions that map one to
//! one onto the completions of an earlier prefix, with identical rows, so
//! under a first-strictly-better search none of them can win. DESIGN.md
//! §10.4 has the full argument.

use crate::lower::feed_words;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::Arc;
use ulm_arch::Architecture;
use ulm_mapping::SpatialUnroll;
use ulm_workload::{Dim, DimSizes, Layer, Operand, Relevance, ALL_DIMS};

/// Remembered prefix states per walk. When full the memo stops
/// inserting: later repeats are then walked instead of skipped, which
/// costs time but never changes an answer.
const MAX_PREFIX_STATES: usize = 1 << 18;

/// Id for a row list or operand state the bounded intern tables could
/// not store; prefixes carrying one are never skipped.
const UNKEYED: u32 = u32::MAX;

/// Per-operand tables of the greedy level allocation that the workload,
/// the spatial unrolling and the factor multiset fix.
#[derive(Debug, Clone)]
pub(crate) struct OpGreedy {
    pub(crate) op: Operand,
    /// Per dim: does a temporal factor of this dim grow the operand's
    /// resident words multiplicatively (strictly relevant)?
    pub(crate) step: [bool; 7],
    /// Per dim: `is_relevant()` (partials included) — drives runs,
    /// refill counts and output finality.
    pub(crate) rel: [bool; 7],
    /// All factor dims are strictly relevant or irrelevant to this
    /// operand, so resident words grow by pure factor products.
    pub(crate) words_mult: bool,
    /// Words resident under the spatial unrolling alone.
    pub(crate) words0: u64,
}

/// The order-independent tables of one (layer, spatial, factor-multiset)
/// search context that no capacity or bandwidth changes: the half of
/// [`GreedyTables`] a DSE sweep folds once for all its designs.
#[derive(Debug)]
pub(crate) struct WorkloadTables {
    pub(crate) ops: [OpGreedy; 3],
    /// Spatial times temporal extents cover every layer dimension.
    covered: bool,
    /// MACs the spatial unrolling occupies.
    spatial_macs: u64,
    /// Some operand is non-multiplicative (conv inputs), so full prefix
    /// extents must be tracked.
    pub(crate) need_ext: bool,
    pub(crate) spatial_ext: DimSizes,
    /// Distinct words per cycle the MAC array reads of each operand.
    pub(crate) feed: [u64; 3],
    /// `CC_spatial`: the product of the temporal factor sizes.
    pub(crate) cc_spatial: u64,
    /// Factors per ordering.
    pub(crate) n: usize,
    /// Distinct factors and their mixed-radix strides: the id of a
    /// remaining multiset is `Σ count_i · stride_i`, `full` for all of
    /// them; `None` when the ids do not fit a `u64`.
    items: Vec<(Dim, u64)>,
    strides: Vec<u64>,
    full: Option<u64>,
}

impl WorkloadTables {
    pub(crate) fn new(layer: &Layer, spatial: &SpatialUnroll, factors: &[(Dim, u64)]) -> Self {
        let mut temporal = DimSizes::new(1, 1, 1, 1, 1, 1, 1);
        for &(d, s) in factors {
            temporal.multiply(d, s);
        }
        let covered = layer
            .shape()
            .dims()
            .iter()
            .all(|(dim, required)| spatial.extent(dim) * temporal[dim] >= required);
        let spatial_ext = spatial.extents();
        let ops = [Operand::W, Operand::I, Operand::O].map(|op| {
            let rel_table = layer.operand_relevance(op);
            let mut step = [false; 7];
            let mut rel = [false; 7];
            for d in ALL_DIMS {
                let r = rel_table.get(d);
                step[d.index()] = r == Relevance::Relevant;
                rel[d.index()] = r.is_relevant();
            }
            let words_mult = factors.iter().all(|&(d, _)| {
                matches!(
                    rel_table.get(d),
                    Relevance::Relevant | Relevance::Irrelevant
                )
            });
            OpGreedy {
                op,
                step,
                rel,
                words_mult,
                words0: layer.data_words(op, &spatial_ext),
            }
        });
        let mut items: Vec<(Dim, u64)> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for &f in factors {
            match items.iter().position(|&g| g == f) {
                Some(i) => counts[i] += 1,
                None => {
                    items.push(f);
                    counts.push(1);
                }
            }
        }
        let mut strides = Vec::with_capacity(items.len());
        let mut stride = Some(1u64);
        let mut full = 0u64;
        for &c in &counts {
            let s = stride.unwrap_or(0);
            strides.push(s);
            full = full.wrapping_add(c.wrapping_mul(s));
            stride = stride.and_then(|s| s.checked_mul(c + 1));
        }
        Self {
            need_ext: ops.iter().any(|g| !g.words_mult),
            ops,
            covered,
            spatial_macs: spatial.product(),
            spatial_ext,
            feed: [Operand::W, Operand::I, Operand::O].map(|op| feed_words(layer, spatial, op)),
            cc_spatial: factors.iter().map(|&(_, s)| s).product(),
            n: factors.len(),
            items,
            strides,
            full: stride.map(|_| full),
        }
    }

    /// Words of operand `oi` of `layer` resident once factor `(d, s)`
    /// joins a prefix holding `words`; `ext` is the grown prefix's full
    /// extents (read only for non-multiplicative operands).
    #[inline]
    pub(crate) fn grow_words(
        &self,
        layer: &Layer,
        oi: usize,
        words: u64,
        ext: &DimSizes,
        d: Dim,
        s: u64,
    ) -> u64 {
        let g = &self.ops[oi];
        if g.words_mult {
            words * if g.step[d.index()] { s } else { 1 }
        } else {
            layer.data_words(g.op, ext)
        }
    }
}

/// The design half of the greedy allocation tables: what one
/// architecture's capacities decide, refolded per design.
#[derive(Debug, Clone, Default)]
pub(crate) struct Budgets {
    /// Memory levels in each operand's chain.
    pub(crate) levels: [usize; 3],
    /// Per operand and level below its top: the greedy capacity budget
    /// in *words* (`mapper_capacity_bits / sharers / bits`, floored),
    /// flat from `cap_off[op]`.
    cap_words: Vec<u64>,
    cap_off: [usize; 3],
    /// Spatial fit + coverage verdict (order-independent).
    pub(crate) const_legal: bool,
}

impl Budgets {
    /// Refolds the budgets for `arch`, reusing this table's storage.
    pub(crate) fn refold(&mut self, arch: &Architecture, layer: &Layer, work: &WorkloadTables) {
        let h = arch.hierarchy();
        let prec = layer.precision();
        self.const_legal = work.covered && work.spatial_macs <= arch.mac_array().num_macs();
        self.cap_words.clear();
        for op in Operand::all() {
            let (oi, bits, chain) = (op.index(), prec.bits(op), h.chain(op));
            self.levels[oi] = chain.len();
            self.cap_off[oi] = self.cap_words.len();
            for &lower in &chain[..chain.len().saturating_sub(1)] {
                let sharers = h.served_operand_count(lower) as u64;
                self.cap_words
                    .push(h.mem(lower).mapper_capacity_bits() / sharers / bits);
            }
        }
    }

    /// Bytes of the budget table's storage.
    pub(crate) fn bytes(&self) -> usize {
        self.cap_words.capacity() * std::mem::size_of::<u64>()
    }

    /// Operand `oi`'s word budget at level `lvl` (below its top).
    #[inline]
    pub(crate) fn cap(&self, oi: usize, lvl: usize) -> u64 {
        self.cap_words[self.cap_off[oi] + lvl]
    }
}

/// The order-independent tables of one (architecture, layer, spatial,
/// factor-multiset) search context that the greedy allocation reads:
/// the workload half, shared, and the design half.
#[derive(Debug, Clone)]
pub(crate) struct GreedyTables<'a> {
    pub(crate) layer: &'a Layer,
    pub(crate) work: Arc<WorkloadTables>,
    pub(crate) budgets: Budgets,
}

impl<'a> GreedyTables<'a> {
    pub(crate) fn new(
        arch: &Architecture,
        layer: &'a Layer,
        spatial: &SpatialUnroll,
        factors: &[(Dim, u64)],
    ) -> Self {
        let work = Arc::new(WorkloadTables::new(layer, spatial, factors));
        let mut budgets = Budgets::default();
        budgets.refold(arch, layer, &work);
        Self {
            layer,
            work,
            budgets,
        }
    }
}

/// One completed level boundary of an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ClosedRow {
    words: u64,
    cycles: u64,
    rel: u64,
    run: u64,
}

/// Per-operand prefix state at one depth.
#[derive(Debug, Clone, Copy, Default)]
struct OpState {
    /// Current greedy level.
    level: u32,
    /// Interned id of the completed-row list.
    list: u32,
    /// Trailing irrelevant factor product above the open level's lower
    /// bound.
    run: u64,
}

/// Everything known about the current path's prefix of one length.
#[derive(Debug, Clone, Copy, Default)]
struct Depth {
    /// Id of the multiset of factors still to place.
    rem: u64,
    /// Product of the placed factor sizes.
    cycles: u64,
    /// Per operand: resident words and relevant-only size product.
    words: [u64; 3],
    rel: [u64; 3],
    ops: [OpState; 3],
    illegal: bool,
}

/// Multiply-rotate hasher for the fixed-width memo keys (the keys are
/// exact; only bucket placement depends on the hash). It starts from a
/// per-memo random seed, so a crafted layer cannot aim its prefix
/// states at one bucket.
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // The multiply only carries low bits upward; fold the high half
        // back down, since buckets are picked by the low bits.
        let h = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }
}

/// Builds [`WordHasher`]s from one random seed.
#[derive(Debug, Clone, Copy)]
struct WordBuild(u64);

impl WordBuild {
    fn new() -> Self {
        Self(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for WordBuild {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

/// The id of `key` in `table` (ids count from 1), inserting it while
/// the table holds fewer than `cap` entries, else [`UNKEYED`].
fn id_of<K: Hash + Eq>(table: &mut HashMap<K, u32, WordBuild>, key: K, cap: usize) -> u32 {
    let len = table.len();
    match table.entry(key) {
        Entry::Occupied(e) => *e.get(),
        Entry::Vacant(e) if len < cap => *e.insert(len as u32 + 1),
        Entry::Vacant(_) => UNKEYED,
    }
}

/// `(remaining multiset id, per-operand state ids)`, or
/// `(remaining, illegal)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrefixKey([u64; 2]);

impl Hash for PrefixKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &w in &self.0 {
            state.write_u64(w);
        }
    }
}

/// The interned row lists and the set of prefix states seen so far,
/// each holding at most `limit` entries.
#[derive(Debug)]
struct Memo {
    limit: usize,
    lists: HashMap<(u32, ClosedRow), u32, WordBuild>,
    /// Interned `(row list, open run)` pairs: one operand's whole state.
    states: HashMap<(u32, u64), u32, WordBuild>,
    seen: HashSet<PrefixKey, WordBuild>,
}

impl Memo {
    /// The id of `list` extended by `row`. Id 0 is the empty list;
    /// [`UNKEYED`] marks a list the bounded table could not store (and
    /// everything grown from it), whose prefixes are never skipped.
    fn intern(&mut self, list: u32, row: ClosedRow) -> u32 {
        if list == UNKEYED {
            return UNKEYED;
        }
        id_of(&mut self.lists, (list, row), self.limit)
    }

    /// The id of one operand's `(row list, open run)` state, below 2^21
    /// so that three pack into a word; [`UNKEYED`] when the bounded table
    /// could not store it.
    fn state(&mut self, list: u32, run: u64) -> u32 {
        if list == UNKEYED {
            return UNKEYED;
        }
        id_of(&mut self.states, (list, run), self.limit.min((1 << 21) - 1))
    }

    /// True when `key` is new; bounded, so a full memo answers "new" for
    /// everything it has not stored.
    fn first_visit(&mut self, key: PrefixKey) -> bool {
        if self.seen.len() < self.limit {
            self.seen.insert(key)
        } else {
            !self.seen.contains(&key)
        }
    }
}

/// The ordering-class walk state for one search chunk: prefix state per
/// depth of the current path, plus the memo of states already seen. See
/// the module docs.
#[derive(Debug)]
pub struct OrderingClasses<'a> {
    tables: GreedyTables<'a>,
    /// Per prefix length along the current path.
    path: Vec<Depth>,
    /// Full prefix extents per prefix length, maintained only for
    /// non-multiplicative operands.
    ext: Vec<DimSizes>,
    memo: Memo,
}

impl<'a> OrderingClasses<'a> {
    /// A fresh walk over orderings of `factors` (the multiset every
    /// ordering permutes) for this layer, architecture and spatial
    /// unrolling.
    pub fn new(
        arch: &Architecture,
        layer: &'a Layer,
        spatial: &SpatialUnroll,
        factors: &[(Dim, u64)],
    ) -> Self {
        Self::with_tables(GreedyTables::new(arch, layer, spatial, factors))
    }

    pub(crate) fn with_tables(tables: GreedyTables<'a>) -> Self {
        let (w, b) = (&*tables.work, &tables.budgets);
        let n = w.n;
        let mut path = vec![Depth::default(); n + 1];
        path[0] = Depth {
            rem: w.full.unwrap_or(0),
            cycles: 1,
            words: [0, 1, 2].map(|oi| w.ops[oi].words0),
            rel: [1; 3],
            ops: [OpState {
                level: 0,
                list: 0,
                run: 1,
            }; 3],
            illegal: !b.const_legal
                || (0..3).any(|oi| b.levels[oi] > 1 && w.ops[oi].words0 > b.cap(oi, 0)),
        };
        let ext = vec![w.spatial_ext; if w.need_ext { n + 1 } else { 1 }];
        Self {
            path,
            ext,
            memo: Memo {
                limit: MAX_PREFIX_STATES,
                lists: HashMap::with_hasher(WordBuild::new()),
                states: HashMap::with_hasher(WordBuild::new()),
                seen: HashSet::with_hasher(WordBuild::new()),
            },
            tables,
        }
    }

    /// Bounds the memo at `limit` prefix states (and as many interned
    /// rows and operand states) instead of the built-in bound. Exactness never depends
    /// on the bound — a full memo only skips less — and the oracle tests
    /// use this to check that.
    pub fn with_memo_limit(mut self, limit: usize) -> Self {
        self.memo.limit = limit;
        self
    }

    /// Extends the current path's prefix of length `depth` by `factor`
    /// and returns true when the resulting prefix state is seen for the
    /// first time in this walk. A `false` means an earlier prefix had the
    /// same state: every completion of this one has a twin, earlier in
    /// enumeration order, with identical rows, legality and scores.
    ///
    /// Calls must follow a depth-first walk: `depth` is the length of a
    /// prefix entered earlier along the current path (0 for the root).
    pub fn enter(&mut self, depth: usize, factor: (Dim, u64)) -> bool {
        let (t, b) = (&*self.tables.work, &self.tables.budgets);
        let (d, s) = factor;
        let prev = self.path[depth];
        let mut next = prev;
        if t.full.is_some() {
            let i = t
                .items
                .iter()
                .position(|&f| f == factor)
                .expect("factor belongs to the walk's multiset");
            next.rem -= t.strides[i];
        }
        next.cycles *= s;
        let ext = if t.need_ext {
            let mut e = self.ext[depth];
            e.multiply(d, s);
            self.ext[depth + 1] = e;
            e
        } else {
            t.spatial_ext
        };
        for oi in 0..3 {
            next.words[oi] = t.grow_words(self.tables.layer, oi, prev.words[oi], &ext, d, s);
            next.rel[oi] *= if t.ops[oi].rel[d.index()] { s } else { 1 };
        }

        if !next.illegal {
            'ops: for (oi, st) in next.ops.iter_mut().enumerate() {
                let (g, levels) = (&t.ops[oi], b.levels[oi]);
                // Close every level the grown prefix overflows, at bound
                // `depth`, exactly as the kernel's greedy scan stops there.
                while st.level as usize + 1 < levels
                    && next.words[oi] > b.cap(oi, st.level as usize)
                {
                    st.list = self.memo.intern(
                        st.list,
                        ClosedRow {
                            words: prev.words[oi],
                            cycles: prev.cycles,
                            rel: prev.rel[oi],
                            run: st.run,
                        },
                    );
                    st.level += 1;
                    st.run = 1;
                    if st.level as usize + 1 < levels
                        && prev.words[oi] > b.cap(oi, st.level as usize)
                    {
                        next.illegal = true;
                        break 'ops;
                    }
                }
                st.run = if g.rel[d.index()] { 1 } else { st.run * s };
            }
        }
        self.path[depth + 1] = next;
        if t.full.is_none() {
            return true;
        }
        let mut packed = u64::MAX;
        if !next.illegal {
            packed = 0;
            for st in &next.ops {
                let id = self.memo.state(st.list, st.run);
                if id == UNKEYED {
                    return true;
                }
                packed = packed << 21 | id as u64;
            }
        }
        self.memo.first_visit(PrefixKey([next.rem, packed]))
    }
}
