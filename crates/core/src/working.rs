//! The mutable summary state evolved by the greedy search (Alg. 1–2),
//! including the Lemma-1 `O(deg)` merge-cost evaluation and the
//! merging-with-selective-superedge-addition step of Sect. III-D.
//!
//! # Evaluate/commit split (DESIGN.md §2)
//!
//! The API is split into two halves so candidate groups can be processed
//! in parallel:
//!
//! * **Evaluate** — read-only. [`eval_merge_view`] prices a merge against
//!   any [`SummaryView`]; [`evaluate_group`] runs the whole Alg.-2
//!   sampling loop for one candidate group against a *frozen*
//!   [`WorkingSummary`] plus a group-local overlay ([`GroupView`]),
//!   returning a [`GroupOutcome`] merge log instead of mutating shared
//!   state. Groups are disjoint supernode sets, so overlays never
//!   conflict and workers share the summary immutably.
//! * **Commit** — batched, parallel. [`WorkingSummary::commit`] applies a
//!   whole iteration's merge logs at once, in three passes through
//!   [`Exec`]: per group, the unions in log order; per surviving
//!   supernode, one scan of its final member list (Alg. 2's superedge
//!   re-addition, priced against the true global state); per table that
//!   receives superedge bits from a survivor, one pass that takes them
//!   (relabeling an untouched table's merged keys on the way, and
//!   rescanning its values where two keys collapse). The result is bit
//!   for bit what applying the merges one at a time in canonical group
//!   order gives ([`WorkingSummary::merge`] is the one-merge case), and
//!   every table is exact when it returns.
//!
//! # The merge-evaluation hot loop (DESIGN.md §7)
//!
//! Three structures keep the Alg.-2 inner loop off the allocator, the
//! hash functions and the member edges:
//!
//! * **Persistent neighbor tables** ([`WorkingSummary`]): per supernode,
//!   a sorted table of `(neighbor supernode, flat member-edge weight
//!   sum, superedge bit)` entries, kept exact by every commit. They are
//!   the superedge adjacency and the evaluator's weight vectors at once.
//! * An **epoch-stamped dense scratch** ([`Scratch`]): per-supernode
//!   accumulators are flat `stamp`/`val` arrays indexed by `SuperId`
//!   plus a `touched` list, cleared in `O(touched)` by bumping an epoch
//!   counter — no hashing, no per-call allocation.
//! * A **group-local span cache** ([`GroupView::with_cache`]): at group
//!   start every member's table is copied into a bump arena as a sorted
//!   span with positional value, superedge and neighbor-weight columns;
//!   each span also memoizes its Eq.-9 side cost. Intra-group merges
//!   combine the two member spans incrementally and stale span keys are
//!   remapped dead→kept lazily, so the cache survives the whole group
//!   round.
//!
//! Both the cached and the scan evaluator accumulate per-neighbor sums
//! in member-edge visit order and price pairs in ascending-`SuperId`
//! order, so on any snapshot state their [`DeltaEval`]s are **bitwise
//! identical** — the property `tests/eval_equivalence.rs` pins down and
//! the byte-identical-at-any-thread-count guarantee rests on.

use std::cell::RefCell;
use std::ops::Range;

use pgs_graph::{FxHashMap, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::CheckpointError;
use crate::cost::{best_pair_cost, pair_cost, CostModel, CostParams};
use crate::exec::Exec;
use crate::summary::{Summary, SuperId};
use crate::weights::NodeWeights;

/// Per-supernode aggregate state.
#[derive(Clone, Debug)]
struct SuperData {
    /// Member nodes (unsorted during the run; sorted when frozen).
    members: Vec<NodeId>,
    /// Sum of normalized node weights `Σ ŵ_u`.
    wsum: f64,
    /// Sum of squared normalized node weights `Σ ŵ_u²`.
    sqsum: f64,
}

/// One epoch-stamped dense accumulator: `val[s]` is live iff
/// `stamp[s]` equals the current epoch, and `touched` lists the live
/// slots. Clearing is an epoch bump plus truncating `touched` — the
/// `stamp`/`val` arrays are never rewritten wholesale.
#[derive(Default)]
pub(crate) struct DenseLane {
    stamp: Vec<u32>,
    val: Vec<f64>,
    touched: Vec<SuperId>,
}

impl DenseLane {
    fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.val.resize(n, 0.0);
        }
    }

    /// Adds `v` into slot `s` under `epoch`, registering first touches.
    #[inline]
    fn add(&mut self, s: SuperId, v: f64, epoch: u32) {
        let i = s as usize;
        if self.stamp[i] == epoch {
            self.val[i] += v;
        } else {
            self.stamp[i] = epoch;
            self.val[i] = v;
            self.touched.push(s);
        }
    }

    /// The accumulated value of slot `s`, if touched this epoch.
    #[inline]
    pub(crate) fn get(&self, s: SuperId, epoch: u32) -> Option<f64> {
        let i = s as usize;
        (self.stamp[i] == epoch).then(|| self.val[i])
    }

    /// Sorts `touched` ascending — the canonical pricing order. A span
    /// loaded without remapping arrives already sorted, so the common
    /// case is a no-op scan.
    fn sort_touched(&mut self) {
        if !self.touched.is_sorted() {
            self.touched.sort_unstable();
        }
    }

    /// Caps the lane's dense arrays to `cap` supernode-id slots,
    /// returning the backing allocations beyond it. Stamps below the cap
    /// stay valid (values are only live under the current epoch, and
    /// every consumer opens a fresh epoch via [`Scratch::begin`] before
    /// reading).
    fn shrink_to_ids(&mut self, cap: usize) {
        if self.stamp.len() > cap {
            self.stamp.truncate(cap);
            self.stamp.shrink_to_fit();
            self.val.truncate(cap);
            self.val.shrink_to_fit();
            self.touched.clear();
            self.touched.shrink_to_fit();
        }
    }
}

/// Reusable evaluation scratch: two epoch-stamped dense lanes (one per
/// merge endpoint). One allocation serves the millions of evaluations a
/// run performs; a crate-private `Scratch::begin` clears both lanes in
/// `O(touched)`.
#[derive(Default)]
pub struct Scratch {
    epoch: u32,
    a: DenseLane,
    b: DenseLane,
}

impl Scratch {
    /// Opens a fresh epoch with both lanes empty, sizing lane `a` for
    /// `n` supernode ids. Lane `b` is sized on demand
    /// ([`Scratch::ensure_b`]): the cached evaluator and the commit
    /// path only ever touch lane `a`, so the default pipeline pays for
    /// one dense lane per worker thread, not two.
    fn begin(&mut self, n: usize) {
        self.a.ensure(n);
        self.a.touched.clear();
        self.b.touched.clear();
        if self.epoch == u32::MAX {
            // Once per 2^32 epochs: retire every stale stamp so old
            // epochs can never alias the restarted counter.
            self.a.stamp.fill(0);
            self.b.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Sizes lane `b` (the scan evaluator's second accumulator).
    fn ensure_b(&mut self, n: usize) {
        self.b.ensure(n);
    }

    /// Caps both dense lanes to at most `cap` supernode-id slots,
    /// returning any memory beyond that to the allocator — the scratch
    /// lifetime hook (ROADMAP): a lane sized for the largest graph a
    /// thread ever processed shrinks back to the active graph. A later
    /// run against a bigger graph simply regrows it.
    pub fn shrink_to(&mut self, cap: usize) {
        self.a.shrink_to_ids(cap);
        self.b.shrink_to_ids(cap);
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with this thread's reusable [`Scratch`]. Epoch stamping
/// makes reuse across unrelated calls free, so evaluate-phase workers
/// share one allocation across all the groups they process.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Caps the *current thread's* reusable evaluation scratch to `cap`
/// supernode-id slots ([`Scratch::shrink_to`]). Called by the request
/// API at run finalization so a long-lived server thread keeps lanes
/// sized to the graph it is actually serving, not the largest one it
/// ever saw. (Under [`Exec`]'s scoped threads, evaluate-phase worker
/// threads are per-phase and their lanes free with the threads; this
/// hook covers the persistent driver thread.)
pub fn shrink_thread_scratch(cap: usize) {
    with_thread_scratch(|s| s.shrink_to(cap));
}

/// Outcome of evaluating a candidate merge `{A, B}` (Eq. 10–11).
#[derive(Clone, Copy, Debug)]
pub struct DeltaEval {
    /// Absolute cost reduction `ΔCost` (Eq. 10).
    pub delta: f64,
    /// Relative cost reduction `ΔCost / (Cost_A + Cost_B − Cost_AB)`
    /// (Eq. 11); 0 when the denominator vanishes.
    pub relative: f64,
}

/// Read access to summary state sufficient to price a merge (Lemma 1).
///
/// Implemented by [`WorkingSummary`] (the live shared state) and by
/// [`GroupView`] (a frozen snapshot plus a group-local overlay, used by
/// the parallel evaluate phase). Everything [`eval_merge_view`] needs
/// goes through this trait, so evaluation is physically unable to mutate
/// shared state.
pub trait SummaryView {
    /// The input graph.
    fn graph_ref(&self) -> &Graph;
    /// The node weights in force.
    fn weights_ref(&self) -> &NodeWeights;
    /// Cost parameters (log2|V|, encoding model).
    fn cost_params(&self) -> &CostParams;
    /// Number of live supernodes in this view.
    fn live_count(&self) -> usize;
    /// Member nodes of a live supernode.
    fn members_of(&self, s: SuperId) -> &[NodeId];
    /// `Σ ŵ_u` over the members of `s`.
    fn wsum_of(&self, s: SuperId) -> f64;
    /// `Σ ŵ_u²` over the members of `s`.
    fn sqsum_of(&self, s: SuperId) -> f64;
    /// Supernode currently containing node `u`.
    fn super_of(&self, u: NodeId) -> SuperId;
    /// True if the superedge `{a, b}` exists in this view.
    fn has_superedge_in(&self, a: SuperId, b: SuperId) -> bool;

    /// `log2` of the live supernode count (0 when ≤ 1 remain).
    #[inline]
    fn view_log_s(&self) -> f64 {
        log2_live(self.live_count())
    }
}

/// Total pair weight between distinct supernodes: `ŵ_A · ŵ_B`.
#[inline]
fn tot_between_view<V: SummaryView + ?Sized>(v: &V, a: SuperId, b: SuperId) -> f64 {
    v.wsum_of(a) * v.wsum_of(b)
}

/// Total pair weight inside a supernode: `(ŵ_A² − Σŵ_u²)/2`.
#[inline]
fn tot_within_view<V: SummaryView + ?Sized>(v: &V, a: SuperId) -> f64 {
    let w = v.wsum_of(a);
    ((w * w - v.sqsum_of(a)) / 2.0).max(0.0)
}

/// The Lemma-1 `O(Σ |N_u|)` scan: accumulates, per neighbor supernode
/// `X`, the summed personalized edge weight between `s` and `X` into
/// `lane`, in member-edge visit order (the canonical per-key
/// accumulation order — span building and the scan evaluator both use
/// it, which is what makes their sums bitwise identical).
/// Intra-supernode edges accumulate twice their weight (visited from
/// both endpoints); divide by two before using as `e_ss`.
fn accumulate_edge_weights_view<V: SummaryView + ?Sized>(
    v: &V,
    s: SuperId,
    lane: &mut DenseLane,
    epoch: u32,
) {
    let g = v.graph_ref();
    let w = v.weights_ref();
    for &u in v.members_of(s) {
        let wu = w.node(u);
        for &nb in g.neighbors(u) {
            lane.add(v.super_of(nb), wu * w.node(nb), epoch);
        }
    }
}

/// One side of a priced merge: a supernode's *sorted* neighbor keys plus
/// positional readers over whatever stores the vector (span columns, a
/// dense lane projected through its `touched` list, ...). `val(i)` is
/// the `i`-th entry's flat member-edge weight sum, `pres(i, x)` its
/// superedge bit and `wx(i, x)` the neighbor's `Σ ŵ` — callers must pass
/// readers extensionally equal to the view's own answers
/// ([`SummaryView::has_superedge_in`], [`SummaryView::wsum_of`]).
struct Side<'k, VA, PA, WA> {
    keys: &'k [SuperId],
    val: VA,
    pres: PA,
    wx: WA,
}

impl<VA, PA, WA> Side<'_, VA, PA, WA>
where
    VA: Fn(usize) -> f64,
    PA: Fn(usize, SuperId) -> bool,
    WA: Fn(usize, SuperId) -> f64,
{
    /// The value stored under key `x`, 0 when `x` is not a neighbor.
    #[inline]
    fn value_at(&self, x: SuperId) -> f64 {
        match self.keys.binary_search(&x) {
            Ok(i) => (self.val)(i),
            Err(_) => 0.0,
        }
    }
}

/// `Cost_s` (Eq. 9) of one merge side: the pair costs of `s` against
/// each of its neighbors, summed in ascending key order. Every
/// evaluator prices its sides through this one helper, so a side cost
/// computed once can be reused (the group cache memoizes it per span)
/// without breaking bitwise equality with a fresh scan.
fn side_cost<V, VA, PA, WA>(v: &V, s: SuperId, side: &Side<'_, VA, PA, WA>) -> f64
where
    V: SummaryView + ?Sized,
    VA: Fn(usize) -> f64,
    PA: Fn(usize, SuperId) -> bool,
    WA: Fn(usize, SuperId) -> f64,
{
    let p = v.cost_params();
    let log_s = v.view_log_s();
    let ws_ = v.wsum_of(s);
    let mut cost = 0.0;
    for (i, &x) in side.keys.iter().enumerate() {
        let e_raw = (side.val)(i);
        let (tot, e) = if x == s {
            (tot_within_view(v, s), e_raw / 2.0)
        } else {
            (ws_ * (side.wx)(i, x), e_raw)
        };
        cost += pair_cost((side.pres)(i, x), tot, e, log_s, p);
    }
    cost
}

/// **The** canonical pricing routine (Eq. 10–11): prices the merge
/// `{a, b}` from the two sides' side costs ([`side_cost`]) and sorted
/// neighbor vectors, generically over their storage. Every evaluator
/// funnels through this one function, so the f64 accumulation order —
/// per-supernode costs in ascending-`SuperId` order, the merged
/// supernode's externals in sorted merge-join union order — is shared
/// **by construction**: identical vector contents give bitwise-identical
/// [`DeltaEval`]s (the DESIGN.md §7 invariant). The per-entry loops read
/// only the sides' positional columns: no hash lookups, no random
/// weight reads.
fn price_merge_canonical<V, VA, PA, WA, VB, PB, WB>(
    v: &V,
    a: SuperId,
    b: SuperId,
    (cost_a, cost_b): (f64, f64),
    sa: &Side<'_, VA, PA, WA>,
    sb: &Side<'_, VB, PB, WB>,
) -> DeltaEval
where
    V: SummaryView + ?Sized,
    VA: Fn(usize) -> f64,
    PA: Fn(usize, SuperId) -> bool,
    WA: Fn(usize, SuperId) -> f64,
    VB: Fn(usize) -> f64,
    PB: Fn(usize, SuperId) -> bool,
    WB: Fn(usize, SuperId) -> f64,
{
    let p = v.cost_params();
    let log_s = v.view_log_s();
    let (wa, wb) = (v.wsum_of(a), v.wsum_of(b));
    let (ka, kb) = (sa.keys, sb.keys);

    // A superedge only ever joins supernodes that share a member edge,
    // so `{a, b}` is present iff b's entry in a's vector carries it.
    let (e_ab, has_ab) = match ka.binary_search(&b) {
        Ok(i) => ((sa.val)(i), (sa.pres)(i, b)),
        Err(_) => (0.0, false),
    };
    let cost_ab = pair_cost(has_ab, wa * wb, e_ab, log_s, p);
    let denom = cost_a + cost_b - cost_ab;

    // Cost of the merged supernode C = A ∪ B with optimal re-encoding of
    // its incident pairs, priced at |S| − 1 supernodes.
    let live = v.live_count();
    let log_s_after = if live <= 2 {
        0.0
    } else {
        ((live - 1) as f64).log2()
    };
    let wc = wa + wb;
    let sqc = v.sqsum_of(a) + v.sqsum_of(b);
    let tot_cc = ((wc * wc - sqc) / 2.0).max(0.0);
    let e_cc = sa.value_at(a) / 2.0 + sb.value_at(b) / 2.0 + e_ab;
    let mut cost_c = best_pair_cost(tot_cc, e_cc, log_s_after, p).0;

    // Externals of C: two-pointer merge-join over the two sorted key
    // lists (ascending union order — the canonical cost_c summation
    // order), with straight-line tails once either side is exhausted.
    let mut external = |x: SuperId, e: f64, wx: f64| {
        if x != a && x != b {
            cost_c += best_pair_cost(wc * wx, e, log_s_after, p).0;
        }
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < ka.len() && j < kb.len() {
        let (xa, xb) = (ka[i], kb[j]);
        if xa == xb {
            external(xa, (sa.val)(i) + (sb.val)(j), (sa.wx)(i, xa));
            i += 1;
            j += 1;
        } else if xa < xb {
            external(xa, (sa.val)(i), (sa.wx)(i, xa));
            i += 1;
        } else {
            external(xb, (sb.val)(j), (sb.wx)(j, xb));
            j += 1;
        }
    }
    while i < ka.len() {
        external(ka[i], (sa.val)(i), (sa.wx)(i, ka[i]));
        i += 1;
    }
    while j < kb.len() {
        external(kb[j], (sb.val)(j), (sb.wx)(j, kb[j]));
        j += 1;
    }

    let delta = denom - cost_c;
    let relative = if denom > f64::EPSILON {
        delta / denom
    } else {
        0.0
    };
    DeltaEval { delta, relative }
}

/// Evaluates the merge of live supernodes `a != b` (Eq. 10–11) against
/// any [`SummaryView`], without mutating anything. `O(Σ_{u∈A∪B} |N_u|)`
/// per Lemma 1 — the *scan* evaluator: it re-walks member edges on every
/// call. The group evaluator answers from cached spans instead
/// ([`GroupView::eval_merge_cached`]) and agrees with this function
/// bitwise on any snapshot state (both price through the crate-private
/// `side_cost` and `price_merge_canonical`).
pub fn eval_merge_view<V: SummaryView + ?Sized>(
    v: &V,
    a: SuperId,
    b: SuperId,
    scratch: &mut Scratch,
) -> DeltaEval {
    debug_assert!(a != b);
    scratch.begin(v.graph_ref().num_nodes());
    scratch.ensure_b(v.graph_ref().num_nodes());
    accumulate_edge_weights_view(v, a, &mut scratch.a, scratch.epoch);
    accumulate_edge_weights_view(v, b, &mut scratch.b, scratch.epoch);
    scratch.a.sort_touched();
    scratch.b.sort_touched();
    let (la, lb) = (&scratch.a, &scratch.b);
    let sa = Side {
        keys: &la.touched,
        val: |i: usize| la.val[la.touched[i] as usize],
        pres: |_, x| v.has_superedge_in(a, x),
        wx: |_, x| v.wsum_of(x),
    };
    let sb = Side {
        keys: &lb.touched,
        val: |i: usize| lb.val[lb.touched[i] as usize],
        pres: |_, x| v.has_superedge_in(b, x),
        wx: |_, x| v.wsum_of(x),
    };
    let costs = (side_cost(v, a, &sa), side_cost(v, b, &sb));
    price_merge_canonical(v, a, b, costs, &sa, &sb)
}

/// Null link of the intrusive live list.
const LIVE_NIL: SuperId = SuperId::MAX;

/// The persistent live-supernode set: an intrusive doubly-linked list
/// threaded through the `SuperId` space. Ids are linked in ascending
/// order at construction and only ever *removed* (a merge kills one
/// id), so in-order traversal stays ascending for the whole run —
/// the canonical enumeration order `live_ids()` used to rebuild with
/// an `O(|V|)` scan per call. Removal is `O(1)` at commit.
#[derive(Clone, Debug)]
struct LiveList {
    next: Vec<SuperId>,
    prev: Vec<SuperId>,
    head: SuperId,
}

impl LiveList {
    /// Links exactly the ids for which `alive` holds, ascending.
    fn new(n: usize, mut alive: impl FnMut(usize) -> bool) -> Self {
        let mut next = vec![LIVE_NIL; n];
        let mut prev = vec![LIVE_NIL; n];
        let mut head = LIVE_NIL;
        let mut last = LIVE_NIL;
        for i in 0..n {
            if !alive(i) {
                continue;
            }
            let i = i as SuperId;
            if last == LIVE_NIL {
                head = i;
            } else {
                next[last as usize] = i;
                prev[i as usize] = last;
            }
            last = i;
        }
        LiveList { next, prev, head }
    }

    /// Ascending iterator over the linked ids.
    fn iter(&self) -> LiveIter<'_> {
        LiveIter {
            next: &self.next,
            cur: self.head,
        }
    }

    /// Unlinks `s` in O(1). `s` must currently be linked.
    #[inline]
    fn remove(&mut self, s: SuperId) {
        let (p, nx) = (self.prev[s as usize], self.next[s as usize]);
        if p == LIVE_NIL {
            self.head = nx;
        } else {
            self.next[p as usize] = nx;
        }
        if nx != LIVE_NIL {
            self.prev[nx as usize] = p;
        }
    }
}

/// Ascending iterator over the live supernode ids
/// ([`WorkingSummary::live_iter`]).
pub struct LiveIter<'s> {
    next: &'s [SuperId],
    cur: SuperId,
}

impl Iterator for LiveIter<'_> {
    type Item = SuperId;

    #[inline]
    fn next(&mut self) -> Option<SuperId> {
        if self.cur == LIVE_NIL {
            return None;
        }
        let s = self.cur;
        self.cur = self.next[s as usize];
        Some(s)
    }
}

/// Persistent per-supernode min-hash signatures (DESIGN.md §11): `lanes`
/// independent hash lanes per supernode, flat-indexed `s * lanes + k`.
/// Lane `k` of supernode `U` holds `min_{u∈U} min_{v∈N(u)∪{u}}
/// f_k(v)` — Eq. (12) under the `k`-th bank hash. Because `u64::min` is
/// exactly associative and commutative, a commit repairs the survivor's
/// signature as the lane-wise min of its sides in `O(lanes)` per merge,
/// and the maintained value is **bitwise equal** to a from-scratch
/// recompute over the merged member set (pinned by
/// `signatures_match_recompute_after_merges` and the proptests in
/// `tests/core_props.rs`).
struct SigBank {
    lanes: usize,
    data: Vec<u64>,
}

impl SigBank {
    /// Folds the dead side's signature into the survivor, lane-wise.
    #[inline]
    fn fold_into(&mut self, keep: SuperId, dead: SuperId) {
        let l = self.lanes;
        let d0 = dead as usize * l;
        let k0 = keep as usize * l;
        for k in 0..l {
            let dv = self.data[d0 + k];
            let kv = &mut self.data[k0 + k];
            if dv < *kv {
                *kv = dv;
            }
        }
    }
}

/// One table entry, 12 bytes: the neighbor key packed with the
/// superedge bit (`key << 1 | bit`, so entries sort by key) and the
/// weight sum's bits, stored side by side so a neighbor update touches
/// one cache line rather than one per column.
#[derive(Clone, Copy, Default)]
struct Entry([u32; 3]);

impl Entry {
    #[inline]
    fn new(key: SuperId, superedge: bool, val: f64) -> Self {
        let bits = val.to_bits();
        Entry([
            (key << 1) | u32::from(superedge),
            bits as u32,
            (bits >> 32) as u32,
        ])
    }

    /// The neighbor supernode.
    #[inline]
    fn key(self) -> SuperId {
        self.0[0] >> 1
    }

    /// The superedge bit of `{owner, key}`.
    #[inline]
    fn superedge(self) -> bool {
        self.0[0] & 1 != 0
    }

    /// The flat member-edge weight sum.
    #[inline]
    fn val(self) -> f64 {
        f64::from_bits(u64::from(self.0[1]) | (u64::from(self.0[2]) << 32))
    }

    #[inline]
    fn set_superedge(&mut self, superedge: bool) {
        self.0[0] = (self.0[0] & !1) | u32::from(superedge);
    }

    #[inline]
    fn set_val(&mut self, val: f64) {
        *self = Entry::new(self.key(), self.superedge(), val);
    }
}

/// Arena window of one table.
#[derive(Clone, Copy, Default)]
struct Slot {
    start: u32,
    len: u32,
}

impl Slot {
    /// A fresh window. Empty tables all sit at 0, so no compaction or
    /// truncation can leave an empty window past the arena end.
    fn new(start: usize, len: usize) -> Self {
        Slot {
            start: if len == 0 { 0 } else { start as u32 },
            len: len as u32,
        }
    }

    #[inline]
    fn len(self) -> usize {
        self.len as usize
    }

    #[inline]
    fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len()
    }

    /// Keeps the window's first `len` entries; an emptied window moves
    /// to 0 like every empty table.
    fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.len());
        if len == 0 {
            self.start = 0;
        }
        self.len = len as u32;
    }
}

/// Reserved table slack, as a right shift of the initial entry count
/// (1/32): room to append merged tables between compactions.
const TABLE_SLACK_SHIFT: u32 = 5;

/// The persistent neighbor tables (DESIGN.md §7): one table per live
/// supernode `s`, sorted by key. Each entry holds a neighbor supernode
/// `x` (some member of `s` has an input edge into `x`; `x == s` for
/// intra edges), the flat member-edge weight sum between them —
/// accumulated in `s`'s member-edge visit order, so bit for bit what a
/// fresh scan computes — and the superedge bit of `{s, x}`.
///
/// All tables share one flat arena whose allocation is fixed at
/// construction. A merge never grows the total entry count (a survivor's
/// table has at most as many keys as its parts' tables together, and
/// neighbors only relabel or drop entries), so a commit frees the merged
/// supernodes' slots and appends each survivor's new table in a window
/// sized by its parts' old lengths, compacting the arena in place first
/// when the slack runs out.
///
/// An untouched table in which two keys collapse onto one survivor
/// cannot combine their two subtotals exactly (they interleave in visit
/// order), so the commit rescans its values from its member edges.
#[derive(Default)]
struct NeighborTables {
    /// Every table's entries, each table ascending by key.
    entries: Vec<Entry>,
    /// Per supernode id: its table's window (dead slots: length 0).
    slots: Vec<Slot>,
}

impl NeighborTables {
    /// An empty store over `n` supernode ids whose arena holds
    /// `entries` table entries plus the reserved slack.
    fn with_capacity(n: usize, entries: usize) -> Self {
        NeighborTables {
            entries: Vec::with_capacity(entries + (entries >> TABLE_SLACK_SHIFT) + 64),
            slots: vec![Slot::default(); n],
        }
    }

    /// Appends `s`'s table at the arena end (construction only).
    fn push_table(&mut self, s: SuperId, entries: impl Iterator<Item = Entry>) {
        let at = self.entries.len();
        self.entries.extend(entries);
        self.slots[s as usize] = Slot::new(at, self.entries.len() - at);
    }

    /// `s`'s entries.
    #[inline]
    fn table(&self, s: SuperId) -> &[Entry] {
        &self.entries[self.slots[s as usize].range()]
    }

    /// Arena index of key `x` in `s`'s table.
    #[inline]
    fn find(&self, s: SuperId, x: SuperId) -> Option<usize> {
        let r = self.slots[s as usize].range();
        self.entries[r.clone()]
            .binary_search_by_key(&x, |e| e.key())
            .ok()
            .map(|i| r.start + i)
    }

    /// Appends one window per `(supernode, size)` at the arena end and
    /// points each supernode's slot at its window, returning the arena
    /// index the windows start at. The old slots must be freed first; the
    /// arena compacts before appending when the slack cannot hold the
    /// windows.
    fn append_windows(&mut self, windows: &[(SuperId, usize)], live: LiveIter<'_>) -> usize {
        let need: usize = windows.iter().map(|&(_, size)| size).sum();
        if self.entries.len() + need > self.entries.capacity() {
            self.compact(live);
        }
        debug_assert!(self.entries.len() + need <= self.entries.capacity());
        let base = self.entries.len();
        self.entries.resize(base + need, Entry::default());
        let mut at = base;
        for &(s, size) in windows {
            self.slots[s as usize] = Slot::new(at, size);
            at += size;
        }
        base
    }

    /// Slides every live table down in arena order, dropping holes and
    /// dead slots; contents are copied verbatim, capacity is kept.
    fn compact(&mut self, live: LiveIter<'_>) {
        let mut order: Vec<u64> = live
            .filter(|&s| self.slots[s as usize].len() > 0)
            .map(|s| (u64::from(self.slots[s as usize].start) << 32) | u64::from(s))
            .collect();
        order.sort_unstable();
        let mut write = 0usize;
        for slot in order {
            let s = (slot & 0xFFFF_FFFF) as usize;
            let r = self.slots[s].range();
            if r.start != write {
                self.entries.copy_within(r.clone(), write);
                self.slots[s].start = write as u32;
            }
            write += r.len();
        }
        self.entries.truncate(write);
    }
}

/// The summary graph under construction: supernode partition, the
/// persistent neighbor tables (superedge adjacency plus per-neighbor
/// weight sums), and the incremental statistics needed to evaluate
/// merges in `O(Σ_{u∈A∪B} |N_u|)` (Lemma 1).
pub struct WorkingSummary<'a> {
    g: &'a Graph,
    w: &'a NodeWeights,
    params: CostParams,
    /// Supernode of each node.
    node_super: Vec<SuperId>,
    /// Member lists indexed by `SuperId`; `None` = merged away.
    members: Vec<Option<Vec<NodeId>>>,
    /// Dense weight-sum columns indexed by `SuperId` (`Σ ŵ_u` and
    /// `Σ ŵ_u²` over the members) — flat `f64` reads on the evaluator's
    /// hottest access path. Dead slots hold stale values, never read.
    wsum: Vec<f64>,
    sqsum: Vec<f64>,
    /// Per-supernode neighbor tables; a self-loop is the entry keyed by
    /// the supernode's own id.
    tables: NeighborTables,
    /// Number of live supernodes `|S|`.
    live: usize,
    /// Number of superedges `|P|` (self-loops count once).
    num_superedges: usize,
    /// Persistent live-id list, maintained in O(1) per merge by `commit`.
    live_list: LiveList,
    /// Persistent min-hash signature lanes; attached by the incremental
    /// candidate generator ([`crate::shingle::attach_signatures`]) and
    /// repaired lane-wise at every commit.
    sigs: Option<SigBank>,
    /// Per-id marks of [`WorkingSummary::commit`]. Between commits every
    /// live id is [`mark::UNTOUCHED`]; ids merged away in this run stay
    /// [`mark::DEAD`].
    marks: Vec<u32>,
}

/// What [`WorkingSummary::commit`] records per supernode id in `marks`.
mod mark {
    /// Live, and not named by any merge of the commit in progress.
    pub(super) const UNTOUCHED: u32 = 0;
    /// Merged away (kept for good: dead ids are never named again). Its
    /// final survivor is `node_super[id]`, since every supernode
    /// contains its own id.
    pub(super) const DEAD: u32 = u32::MAX;
    /// Untouched, with a table that names a merged supernode (pass 3):
    /// the mark is `QUEUED` plus the table's index among those tables.
    pub(super) const QUEUED: u32 = 1 << 31;

    /// A survivor of the commit: the mark is one plus the batch index of
    /// the last merge it absorbed (during pass 1, one plus its index in
    /// its log's part list).
    #[inline]
    pub(super) fn is_survivor(m: u32) -> bool {
        m != UNTOUCHED && m < QUEUED
    }

    /// The pass-3 index of a queued untouched table.
    #[inline]
    pub(super) fn queued(m: u32) -> Option<usize> {
        (QUEUED..DEAD).contains(&m).then(|| (m - QUEUED) as usize)
    }
}

/// `log2` of a live supernode count (0 when ≤ 1 remain).
#[inline]
fn log2_live(live: usize) -> f64 {
    if live <= 1 {
        0.0
    } else {
        (live as f64).log2()
    }
}

/// Survivors or tables per work run of the commit's table passes: the
/// heartbeat granularity, small enough that a heavy head of survivors
/// still spreads over every worker.
const COMMIT_RUN: usize = 64;

/// One supernode a merge log names, as pass 1 of
/// [`WorkingSummary::commit`] evolves it.
struct Part {
    id: SuperId,
    /// 0 until the part survives a merge, then one plus the batch index
    /// of its last merge; [`mark::DEAD`] once merged away.
    last: u32,
    /// Member count before the commit: only later members change
    /// supernode.
    orig: u32,
    /// Old table lengths of every part folded into this one: an upper
    /// bound on the survivor's new table.
    cap: u32,
    /// Member list, taken out of the summary for the pass.
    members: Vec<NodeId>,
    wsum: f64,
    sqsum: f64,
}

/// One non-empty merge log's share of a batched commit (pass 1).
struct GroupCommit<'l> {
    log: &'l [(SuperId, SuperId)],
    /// Batch index of the log's first merge.
    first: usize,
    /// The supernodes the log names, in first-appearance order.
    parts: Vec<Part>,
    /// Superedges incident to the parts before the commit, each counted
    /// once.
    dropped: usize,
}

/// A survivor's new table window (pass 2).
struct Rebuild<'t> {
    id: SuperId,
    table: &'t mut [Entry],
    /// Entries written.
    len: usize,
    /// Superedges this side decided to keep.
    added: usize,
    /// Entries whose bit the other side decides (it merged later).
    deferred: usize,
}

/// A run of untouched tables that name merged supernodes (pass 3): the
/// arena region from the first table's start to the last one's end,
/// and the tables' [`Queued`] records.
struct RelabelRun<'t> {
    tables: &'t mut [Queued],
    /// The [`Columns`] column of `tables[0]`.
    first: usize,
    region: &'t mut [Entry],
    /// Arena index of `region[0]`.
    start: usize,
}

/// An untouched table that names a merged supernode (pass 3): its arena
/// start, its id, and the number of survivors it neighbors — which pass
/// 3 overwrites with the table's new length.
type Queued = (u32, SuperId, u32);

/// The superedge bits pass 3 hands out (the transpose of the survivors'
/// decisions): column `c` holds, in ascending order of the deciding
/// survivor's id, the bits one table takes from the survivors that
/// decide its pairs — columns `0..S` for the survivors (their pairs with
/// survivors that merged later), then one per queued untouched table.
struct Columns {
    /// One past each column's last bit; column `c` starts where `c - 1`
    /// ends.
    end: Vec<u32>,
    bits: Vec<u64>,
}

impl Columns {
    fn range(&self, c: usize) -> Range<usize> {
        let start = if c == 0 { 0 } else { self.end[c - 1] as usize };
        start..self.end[c] as usize
    }

    #[inline]
    fn bit(&self, k: usize) -> bool {
        (self.bits[k >> 6] >> (k & 63)) & 1 != 0
    }
}

impl<'a> WorkingSummary<'a> {
    /// Initializes the summary with singleton supernodes and one superedge
    /// per input edge (Alg. 1 line 1).
    pub fn new(g: &'a Graph, w: &'a NodeWeights, model: CostModel) -> Self {
        assert_eq!(g.num_nodes(), w.len(), "weights must cover all nodes");
        let n = g.num_nodes();
        assert!(n < 1 << 31, "supernode ids must fit 31 bits");
        let node_super: Vec<SuperId> = (0..n as SuperId).collect();
        let members: Vec<Option<Vec<NodeId>>> = (0..n).map(|u| Some(vec![u as NodeId])).collect();
        let wsum: Vec<f64> = (0..n).map(|u| w.node(u as NodeId)).collect();
        let sqsum: Vec<f64> = wsum.iter().map(|&wu| wu * wu).collect();
        // A singleton's table is its sorted adjacency row, every entry a
        // superedge, each sum a single product — what a scan computes.
        let mut tables = NeighborTables::with_capacity(n, 2 * g.num_edges());
        for u in 0..n as NodeId {
            let wu = w.node(u);
            tables.push_table(
                u,
                g.neighbors(u)
                    .iter()
                    .map(|&v| Entry::new(v, true, wu * w.node(v))),
            );
        }
        WorkingSummary {
            g,
            w,
            params: CostParams::new(n, model),
            node_super,
            members,
            wsum,
            sqsum,
            tables,
            live: n,
            num_superedges: g.num_edges(),
            live_list: LiveList::new(n, |_| true),
            sigs: None,
            marks: vec![mark::UNTOUCHED; n],
        }
    }

    /// Rebuilds a mid-run summary from checkpointed parts: per live
    /// supernode its id, **verbatim** `Σ ŵ_u` / `Σ ŵ_u²` (rounding from
    /// the incremental merge sums preserved), and members in their
    /// original in-memory order; plus the superedge pair set. Neighbor
    /// tables are rebuilt by a fresh member-edge scan — exactly the
    /// values the live run's tables hold — so the resulting state is
    /// indistinguishable from the one [`WorkingSummary::commit`] built
    /// live: the checkpoint/resume byte-identity contract (DESIGN.md
    /// §10).
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] when a superedge joins two supernodes
    /// that share no member edge: no run creates such a pair, and the
    /// blob's decoder cannot see it without the graph.
    ///
    /// # Panics
    /// Panics unless the member lists partition `0..|V|` and superedge
    /// pairs are unique — [`crate::checkpoint::RunCheckpoint::decode`]
    /// validates both before this runs.
    pub fn from_checkpoint<'s>(
        g: &'a Graph,
        w: &'a NodeWeights,
        model: CostModel,
        supers: impl Iterator<Item = (SuperId, f64, f64, &'s [NodeId])>,
        superedges: &[(SuperId, SuperId)],
    ) -> Result<Self, CheckpointError> {
        assert_eq!(g.num_nodes(), w.len(), "weights must cover all nodes");
        let n = g.num_nodes();
        assert!(n < 1 << 31, "supernode ids must fit 31 bits");
        let mut node_super: Vec<SuperId> = vec![SuperId::MAX; n];
        let mut members: Vec<Option<Vec<NodeId>>> = vec![None; n];
        let mut wsum = vec![0.0; n];
        let mut sqsum = vec![0.0; n];
        let mut live = 0usize;
        for (id, ws_, sq, mem) in supers {
            for &u in mem {
                node_super[u as usize] = id;
            }
            members[id as usize] = Some(mem.to_vec());
            wsum[id as usize] = ws_;
            sqsum[id as usize] = sq;
            live += 1;
        }
        assert!(
            node_super.iter().all(|&s| s != SuperId::MAX),
            "checkpoint members must partition the node set"
        );
        let live_list = LiveList::new(n, |i| members[i].is_some());
        let mut ws = WorkingSummary {
            g,
            w,
            params: CostParams::new(n, model),
            node_super,
            members,
            wsum,
            sqsum,
            tables: NeighborTables::default(),
            live,
            num_superedges: 0,
            live_list,
            sigs: None,
            marks: vec![mark::UNTOUCHED; n],
        };
        let mut tables = NeighborTables::with_capacity(n, 2 * g.num_edges());
        let mut scratch = Scratch::default();
        for s in ws.live_iter() {
            scratch.begin(n);
            accumulate_edge_weights_view(&ws, s, &mut scratch.a, scratch.epoch);
            scratch.a.sort_touched();
            let lane = &scratch.a;
            tables.push_table(
                s,
                lane.touched
                    .iter()
                    .map(|&x| Entry::new(x, false, lane.val[x as usize])),
            );
        }
        for &(a, b) in superedges {
            let (Some(i), Some(j)) = (tables.find(a, b), tables.find(b, a)) else {
                return Err(CheckpointError::Corrupt(format!(
                    "superedge ({a}, {b}) joins supernodes that share no edge"
                )));
            };
            tables.entries[i].set_superedge(true);
            tables.entries[j].set_superedge(true);
        }
        ws.num_superedges = superedges.len();
        ws.tables = tables;
        Ok(ws)
    }

    /// The input graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.g
    }

    /// `Σ ŵ_u` of a live supernode, for checkpointing (the raw column
    /// value — stored verbatim so resume preserves merge-sum rounding).
    #[inline]
    pub fn wsum_raw(&self, s: SuperId) -> f64 {
        debug_assert!(self.is_live(s), "dead supernode");
        self.wsum[s as usize]
    }

    /// `Σ ŵ_u²` of a live supernode, for checkpointing.
    #[inline]
    pub fn sqsum_raw(&self, s: SuperId) -> f64 {
        debug_assert!(self.is_live(s), "dead supernode");
        self.sqsum[s as usize]
    }

    /// The node weights in force.
    #[inline]
    pub fn weights(&self) -> &NodeWeights {
        self.w
    }

    /// Cost parameters (log2|V|, encoding model).
    #[inline]
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Number of live supernodes `|S|`.
    #[inline]
    pub fn num_supernodes(&self) -> usize {
        self.live
    }

    /// Number of superedges `|P|`.
    #[inline]
    pub fn num_superedges(&self) -> usize {
        self.num_superedges
    }

    /// `log2 |S|` (0 when a single supernode remains).
    #[inline]
    pub fn log_s(&self) -> f64 {
        log2_live(self.live)
    }

    /// Current size in bits per Eq. (3).
    pub fn size_bits(&self) -> f64 {
        (2.0 * self.num_superedges as f64 + self.g.num_nodes() as f64) * self.log_s()
    }

    /// True if `s` names a live supernode.
    #[inline]
    pub fn is_live(&self, s: SuperId) -> bool {
        (s as usize) < self.members.len() && self.members[s as usize].is_some()
    }

    /// Ids of all live supernodes, ascending — a collected
    /// [`WorkingSummary::live_iter`]. Prefer the iterator where a `Vec`
    /// is not required: it walks the persistent live list in `O(|S|)`
    /// without allocating (the old implementation scanned all `|V|`
    /// member slots into a fresh `Vec` per call).
    pub fn live_ids(&self) -> Vec<SuperId> {
        let mut ids = Vec::with_capacity(self.live);
        ids.extend(self.live_iter());
        ids
    }

    /// Ascending iterator over the live supernode ids, backed by the
    /// persistent live list a commit maintains in O(1) per merge.
    pub fn live_iter(&self) -> LiveIter<'_> {
        self.live_list.iter()
    }

    /// Member nodes of a live supernode.
    ///
    /// # Panics
    /// Panics if `s` is dead.
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract: callers pass live supernodes"
    )]
    pub fn members(&self, s: SuperId) -> &[NodeId] {
        self.members[s as usize].as_ref().expect("dead supernode")
    }

    /// Installs the persistent signature bank (`lanes` min-hash values
    /// per supernode, flat-indexed `s * lanes + k`). Built by
    /// [`crate::shingle::attach_signatures`]; from here on every
    /// [`WorkingSummary::commit`] repairs each survivor lane-wise in
    /// `O(lanes)` per merge.
    pub(crate) fn set_signature_bank(&mut self, lanes: usize, data: Vec<u64>) {
        debug_assert_eq!(data.len(), self.g.num_nodes() * lanes);
        self.sigs = Some(SigBank { lanes, data });
    }

    /// Number of signature lanes attached (0 = no bank).
    pub fn signature_lanes(&self) -> usize {
        self.sigs.as_ref().map_or(0, |b| b.lanes)
    }

    /// Lane `lane` of live supernode `s`'s maintained min-hash
    /// signature.
    ///
    /// # Panics
    /// Panics if no bank is attached or `lane` is out of range.
    #[inline]
    pub fn signature(&self, s: SuperId, lane: usize) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: a bank must be attached first"
        )]
        let bank = self.sigs.as_ref().expect("no signature bank attached");
        assert!(lane < bank.lanes, "lane {lane} out of range");
        debug_assert!(self.is_live(s), "dead supernode");
        bank.data[s as usize * bank.lanes + lane]
    }

    /// Supernode currently containing node `u`.
    #[inline]
    pub fn supernode_of(&self, u: NodeId) -> SuperId {
        self.node_super[u as usize]
    }

    /// True if the superedge `{a, b}` currently exists.
    #[inline]
    pub fn has_superedge(&self, a: SuperId, b: SuperId) -> bool {
        self.tables
            .find(a, b)
            .is_some_and(|i| self.tables.entries[i].superedge())
    }

    /// Superedge neighbors of `s` in ascending order (self-loop
    /// included as `s`).
    pub fn superedge_neighbors(&self, s: SuperId) -> impl Iterator<Item = SuperId> + '_ {
        self.tables
            .table(s)
            .iter()
            .filter(|e| e.superedge())
            .map(|e| e.key())
    }

    /// `s`'s neighbor table in ascending key order: per neighbor
    /// supernode (`s` itself for intra edges), the flat member-edge
    /// weight sum and the superedge bit. Each sum is, bit for bit, what
    /// a fresh scan of `s`'s member edges computes (DESIGN.md §7).
    pub fn neighbor_table(&self, s: SuperId) -> impl Iterator<Item = (SuperId, f64, bool)> + '_ {
        self.tables
            .table(s)
            .iter()
            .map(|e| (e.key(), e.val(), e.superedge()))
    }

    /// Rewrites the values of `s`'s table `table` (keys exact) from a
    /// fresh member-edge scan.
    fn rescan_into(&self, s: SuperId, table: &mut [Entry]) {
        with_thread_scratch(|scratch| {
            scratch.begin(self.g.num_nodes());
            accumulate_edge_weights_view(self, s, &mut scratch.a, scratch.epoch);
            for e in table.iter_mut() {
                debug_assert!(scratch.a.get(e.key(), scratch.epoch).is_some());
                e.set_val(scratch.a.val[e.key() as usize]);
            }
        });
    }

    /// Evaluates the merge of live supernodes `a != b` (Eq. 10–11) without
    /// mutating anything. `O(Σ_{u∈A∪B} |N_u|)` per Lemma 1. Delegates to
    /// [`eval_merge_view`], the generic read-only evaluate half.
    pub fn eval_merge(&self, a: SuperId, b: SuperId, scratch: &mut Scratch) -> DeltaEval {
        debug_assert!(a != b && self.is_live(a) && self.is_live(b));
        eval_merge_view(self, a, b, scratch)
    }

    /// Merges supernodes `a` and `b` (Alg. 2 lines 6–9) and returns the
    /// id of the merged supernode (the larger side's id is reused) — the
    /// one-log, one-merge case of [`WorkingSummary::commit`].
    ///
    /// # Panics
    /// Panics unless `a` and `b` are two distinct live supernodes.
    pub fn merge(&mut self, a: SuperId, b: SuperId) -> SuperId {
        self.commit([&[(a, b)][..]], &Exec::serial(), || {});
        self.node_super[a as usize]
    }

    /// Commits a batch of merge logs, bit for bit as if every log were
    /// applied one merge at a time, log after log (DESIGN.md §7).
    ///
    /// Each merge is Alg. 2 lines 6–9: drop every superedge incident to
    /// either side, union the member sets (keeping the larger side's id,
    /// so total relabeling work is `O(n log n)` across a run), and
    /// re-add exactly the superedges incident to the union that minimize
    /// `Cost_{A∪B}` (Eq. 9). The logs name disjoint supernodes and are all
    /// known up front, so the batch needs no replay. It runs three passes
    /// through `exec`:
    ///
    /// 1. **Per log:** the unions in log order — keep/dead by member
    ///    count, member lists, `Σ ŵ`/`Σ ŵ²` — and each survivor's last
    ///    merge, whose position in the batch fixes the `log2|S|` that
    ///    merge priced with. Signature lanes and `node_super` follow.
    /// 2. **Per survivor:** one scan of its final member list writes its
    ///    new table, keys and values exact. A pair's superedge bit is
    ///    priced by whichever side merged last, from that side's scan at
    ///    its last merge's `log2|S|` (later merges of other supernodes
    ///    never touch the pair); a survivor always decides its pairs with
    ///    untouched supernodes.
    /// 3. **Per receiving table:** a serial transpose lays every decided
    ///    bit out for the other side of its pair. Each survivor then takes
    ///    the bits of the pairs it left to a later side, and each
    ///    untouched table naming a merged supernode relabels those keys
    ///    to their survivors and takes their bits; values move unchanged.
    ///    Two keys collapsing onto one survivor leave one entry, and the
    ///    table's values are rescanned from its member edges.
    ///
    /// `beat` is called once per log and once per run of survivors or
    /// tables, so a liveness watchdog sees the commit progress.
    ///
    /// # Panics
    /// Panics if a merge names a supernode that is not live at that point
    /// of its log, or if two logs name the same supernode.
    pub fn commit<'l>(
        &mut self,
        logs: impl IntoIterator<Item = &'l [(SuperId, SuperId)]>,
        exec: &Exec,
        beat: impl Fn() + Sync,
    ) {
        let live_start = self.live;
        let mut groups = self.take_parts(logs, &beat);
        let this = &*self;
        exec.for_each_run(&mut groups, 1, |run| {
            for group in run {
                beat();
                this.union_group(group);
            }
        });
        let (survivors, dropped) = self.apply_unions(groups);
        let (added, base, deferred) = self.rebuild_survivors(&survivors, live_start, exec, &beat);
        self.settle_bits(&survivors, &deferred, base, exec, &beat);
        self.num_superedges = self.num_superedges - dropped + added;
        for &(x, _) in &survivors {
            self.marks[x as usize] = mark::UNTOUCHED;
        }
    }

    /// Pass 1 set-up: moves every supernode a non-empty log names, with
    /// its member list, into that log's part list and marks it with its
    /// position there. An empty log commits nothing and just beats.
    fn take_parts<'l>(
        &mut self,
        logs: impl IntoIterator<Item = &'l [(SuperId, SuperId)]>,
        beat: &impl Fn(),
    ) -> Vec<GroupCommit<'l>> {
        let mut groups = Vec::new();
        let mut first = 0;
        for log in logs {
            if log.is_empty() {
                beat();
                continue;
            }
            let mut parts: Vec<Part> = Vec::new();
            for &(a, b) in log {
                assert!(a != b, "merge needs two live supernodes");
                for s in [a, b] {
                    let i = s as usize;
                    match self.marks.get(i).copied() {
                        Some(mark::UNTOUCHED) => {}
                        Some(m) if m != mark::DEAD => {
                            assert!(
                                parts.get(m as usize - 1).is_some_and(|p| p.id == s),
                                "merge logs must name disjoint supernodes"
                            );
                            continue;
                        }
                        _ => {}
                    }
                    assert!(self.is_live(s), "merge needs two live supernodes");
                    let members = self.members[i].take().unwrap_or_default();
                    parts.push(Part {
                        id: s,
                        last: 0,
                        orig: members.len() as u32,
                        cap: self.tables.slots[i].len() as u32,
                        members,
                        wsum: self.wsum[i],
                        sqsum: self.sqsum[i],
                    });
                    self.marks[i] = parts.len() as u32;
                }
            }
            groups.push(GroupCommit {
                log,
                first,
                parts,
                dropped: 0,
            });
            first += log.len();
        }
        groups
    }

    /// Pass 1 for one log: replays its unions in order on the parts
    /// taken out of the summary, then counts the superedges the old
    /// tables hold incident to any part (a pair between two named
    /// supernodes once, at its smaller id).
    fn union_group(&self, group: &mut GroupCommit<'_>) {
        let GroupCommit {
            log,
            first,
            parts,
            dropped,
        } = group;
        for (k, &(a, b)) in log.iter().enumerate() {
            let ia = self.marks[a as usize] as usize - 1;
            let ib = self.marks[b as usize] as usize - 1;
            assert!(
                parts[ia].last != mark::DEAD && parts[ib].last != mark::DEAD,
                "merge needs two live supernodes"
            );
            let (keep, dead) = if parts[ia].members.len() >= parts[ib].members.len() {
                (ia, ib)
            } else {
                (ib, ia)
            };
            let moved = std::mem::take(&mut parts[dead].members);
            let (wsum, sqsum, cap) = (parts[dead].wsum, parts[dead].sqsum, parts[dead].cap);
            parts[dead].last = mark::DEAD;
            let kept = &mut parts[keep];
            kept.members.extend_from_slice(&moved);
            kept.wsum += wsum;
            kept.sqsum += sqsum;
            kept.cap += cap;
            kept.last = (*first + k + 1) as u32;
        }
        *dropped = parts
            .iter()
            .map(|p| {
                self.tables
                    .table(p.id)
                    .iter()
                    .filter(|e| {
                        e.superedge()
                            && (e.key() >= p.id || self.marks[e.key() as usize] == mark::UNTOUCHED)
                    })
                    .count()
            })
            .sum();
    }

    /// Writes pass 1 back: survivors get their member lists and weight
    /// sums, their new members' `node_super`, and their last merge as
    /// their mark; merged-away supernodes fold their signatures into
    /// their survivors and leave the live list. Every named supernode's
    /// old table is freed. Returns the survivors, in log order, with
    /// their new tables' size bounds, and the superedges dropped.
    fn apply_unions(&mut self, groups: Vec<GroupCommit<'_>>) -> (Vec<(SuperId, usize)>, usize) {
        let mut survivors = Vec::new();
        let mut dropped = 0;
        for mut group in groups {
            dropped += group.dropped;
            for part in group.parts.iter_mut().filter(|p| p.last != mark::DEAD) {
                let s = part.id as usize;
                debug_assert!(mark::is_survivor(part.last), "a named supernode merges");
                for &u in &part.members[part.orig as usize..] {
                    self.node_super[u as usize] = part.id;
                }
                self.members[s] = Some(std::mem::take(&mut part.members));
                self.wsum[s] = part.wsum;
                self.sqsum[s] = part.sqsum;
                self.marks[s] = part.last;
                self.tables.slots[s] = Slot::default();
                survivors.push((part.id, part.cap as usize));
            }
            // `u64::min` is exact and order-free, so folding each dead
            // part straight into its final survivor gives the lanes the
            // one-merge-at-a-time folds give.
            for part in group.parts.iter().filter(|p| p.last == mark::DEAD) {
                let s = part.id as usize;
                self.marks[s] = mark::DEAD;
                self.tables.slots[s] = Slot::default();
                self.live -= 1;
                self.live_list.remove(part.id);
                if let Some(bank) = &mut self.sigs {
                    bank.fold_into(self.node_super[s], part.id);
                }
            }
        }
        (survivors, dropped)
    }

    /// Pass 2: one scan per survivor writes its new table into a window
    /// sized by its parts' old tables. Returns the superedges the
    /// survivors re-added, the arena index their windows start at, and
    /// per survivor the number of pairs it left to a later side.
    fn rebuild_survivors(
        &mut self,
        survivors: &[(SuperId, usize)],
        live_start: usize,
        exec: &Exec,
        beat: &(impl Fn() + Sync),
    ) -> (usize, usize, Vec<u32>) {
        let base = self.tables.append_windows(survivors, self.live_list.iter());
        // The tables move out so the scans can read the rest of `self`
        // while the workers write disjoint windows of the arena.
        let mut tables = std::mem::take(&mut self.tables);
        let NeighborTables { entries, slots, .. } = &mut tables;
        let mut windows = Vec::with_capacity(survivors.len());
        let mut rest = &mut entries[base..];
        for &(id, cap) in survivors {
            let (table, tail) = std::mem::take(&mut rest).split_at_mut(cap);
            windows.push(Rebuild {
                id,
                table,
                len: 0,
                added: 0,
                deferred: 0,
            });
            rest = tail;
        }
        let this = &*self;
        exec.for_each_run(&mut windows, COMMIT_RUN, |run| {
            beat();
            for w in run {
                this.rebuild_table(w, live_start);
            }
        });
        let mut added = 0;
        let deferred = windows
            .iter()
            .map(|w| {
                slots[w.id as usize].truncate(w.len);
                added += w.added;
                w.deferred as u32
            })
            .collect();
        drop(windows);
        self.tables = tables;
        (added, base, deferred)
    }

    /// Pass 2 for one survivor `w.id`: scans its final member list into
    /// its window — sorted keys, values in member-edge visit order — and
    /// prices each pair it decides at its last merge's `log2|S|`. A pair
    /// with a survivor that merged later is left to that side (bit unset
    /// until pass 3).
    fn rebuild_table(&self, w: &mut Rebuild<'_>, live_start: usize) {
        let x = w.id;
        let last = self.marks[x as usize];
        let log_s = log2_live(live_start - last as usize);
        with_thread_scratch(|scratch| {
            scratch.begin(self.g.num_nodes());
            accumulate_edge_weights_view(self, x, &mut scratch.a, scratch.epoch);
            scratch.a.sort_touched();
            let lane = &scratch.a;
            w.len = lane.touched.len();
            for (i, &y) in lane.touched.iter().enumerate() {
                let e_raw = lane.val[y as usize];
                let m = self.marks[y as usize];
                let bit = if mark::is_survivor(m) && m > last {
                    w.deferred += 1;
                    false
                } else {
                    let (tot, e) = if y == x {
                        (tot_within_view(self, x), e_raw / 2.0)
                    } else {
                        (tot_between_view(self, x, y), e_raw)
                    };
                    best_pair_cost(tot, e, log_s, &self.params).1
                };
                w.added += usize::from(bit);
                w.table[i] = Entry::new(y, bit, e_raw);
            }
        });
    }

    /// Pass 3: hands every bit a survivor decided to the other side of
    /// its pair. A serial transpose of the survivors' tables lays the
    /// bits out per receiving table ([`Columns`]); then, in parallel over
    /// disjoint arena windows, each survivor fills the pairs it left to a
    /// later side, and each untouched table that names a merged
    /// supernode relabels those keys to their survivors and takes their
    /// bits. `base` is where pass 2 appended the survivors' tables, so
    /// every untouched table lies below it.
    fn settle_bits(
        &mut self,
        survivors: &[(SuperId, usize)],
        deferred: &[u32],
        base: usize,
        exec: &Exec,
        beat: &(impl Fn() + Sync),
    ) {
        let mut queued = self.queue_untouched(survivors);
        let columns = self.transpose_bits(survivors, deferred, &queued);
        let mut tables = std::mem::take(&mut self.tables);
        let NeighborTables { entries, slots } = &mut tables;
        let (lower, upper) = entries.split_at_mut(base);

        let mut later = Vec::new();
        let (mut rest, mut at) = (upper, base);
        for (c, (&(x, _), &d)) in survivors.iter().zip(deferred).enumerate() {
            if d > 0 {
                let r = slots[x as usize].range();
                let (table, tail) = std::mem::take(&mut rest)[r.start - at..].split_at_mut(r.len());
                later.push((x, c, table));
                (rest, at) = (tail, r.end);
            }
        }
        let mut runs = Vec::with_capacity(queued.len().div_ceil(COMMIT_RUN));
        let (mut rest, mut at) = (lower, 0);
        for (i, run) in queued.chunks_mut(COMMIT_RUN).enumerate() {
            let start = run[0].0 as usize;
            let end = slots[run[run.len() - 1].1 as usize].range().end;
            let (region, tail) = std::mem::take(&mut rest)[start - at..].split_at_mut(end - start);
            runs.push(RelabelRun {
                tables: run,
                first: survivors.len() + i * COMMIT_RUN,
                region,
                start,
            });
            (rest, at) = (tail, end);
        }

        let (this, slots_read, columns) = (&*self, &*slots, &columns);
        exec.for_each_run(&mut later, COMMIT_RUN, |run| {
            beat();
            for (x, c, table) in run {
                this.fill_later_bits(*x, table, columns.range(*c), columns);
            }
        });
        exec.for_each_run(&mut runs, 1, |runs| {
            for run in runs {
                beat();
                for (i, (_, y, out)) in run.tables.iter_mut().enumerate() {
                    let r = slots_read[*y as usize].range();
                    let table = &mut run.region[r.start - run.start..r.end - run.start];
                    *out = this.relabel_table(*y, table, columns.range(run.first + i), columns);
                }
            }
        });
        drop((later, runs));
        for &(_, y, len) in &queued {
            slots[y as usize].truncate(len as usize);
            self.marks[y as usize] = mark::UNTOUCHED;
        }
        self.tables = tables;
    }

    /// Pass 3 set-up: the untouched tables that name a merged supernode
    /// are exactly the untouched keys of the survivors' new tables. They
    /// come back in arena order, each marked with its index there and
    /// paired with the number of survivors it neighbors.
    fn queue_untouched(&mut self, survivors: &[(SuperId, usize)]) -> Vec<Queued> {
        let mut queued: Vec<Queued> = Vec::new();
        for &(x, _) in survivors {
            for e in self.tables.table(x) {
                let y = e.key() as usize;
                let q = match mark::queued(self.marks[y]) {
                    Some(q) => q,
                    None if self.marks[y] == mark::UNTOUCHED => {
                        self.marks[y] = mark::QUEUED + queued.len() as u32;
                        queued.push((self.tables.slots[y].start, e.key(), 0));
                        queued.len() - 1
                    }
                    None => continue,
                };
                queued[q].2 += 1;
            }
        }
        queued.sort_unstable_by_key(|&(start, ..)| start);
        for (q, &(_, y, _)) in queued.iter().enumerate() {
            self.marks[y as usize] = mark::QUEUED + q as u32;
        }
        queued
    }

    /// The serial transpose of pass 3: walks the survivors' tables in
    /// ascending id order and appends each bit a survivor decided for a
    /// pair whose other side is a queued table or an earlier survivor to
    /// that side's column — so every column lists its bits in ascending
    /// order of the deciding survivor, which is the order of the keys
    /// that receive them.
    fn transpose_bits(
        &self,
        survivors: &[(SuperId, usize)],
        deferred: &[u32],
        queued: &[Queued],
    ) -> Columns {
        let mut end = Vec::with_capacity(survivors.len() + queued.len());
        let mut total = 0;
        for &count in deferred
            .iter()
            .chain(queued.iter().map(|(.., count)| count))
        {
            end.push(total);
            total += count;
        }
        let mut bits = vec![0u64; (total as usize).div_ceil(64)];
        let last = |x: SuperId| self.marks[x as usize];
        let merges = survivors.iter().map(|&(x, _)| last(x)).max().unwrap_or(0);
        let mut column_of = vec![0u32; merges as usize + 1];
        for (c, &(x, _)) in survivors.iter().enumerate() {
            column_of[last(x) as usize] = c as u32;
        }
        let mut order: Vec<SuperId> = survivors.iter().map(|&(x, _)| x).collect();
        order.sort_unstable();
        for x in order {
            for e in self.tables.table(x) {
                let m = self.marks[e.key() as usize];
                let c = match mark::queued(m) {
                    Some(q) => survivors.len() + q,
                    None if mark::is_survivor(m) && m < last(x) => column_of[m as usize] as usize,
                    None => continue,
                };
                let k = end[c] as usize;
                bits[k >> 6] |= u64::from(e.superedge()) << (k & 63);
                end[c] += 1;
            }
        }
        Columns { end, bits }
    }

    /// Pass 3 for one survivor `x`: sets the bits of the pairs it left
    /// to a later side, in key order, from its column `bits`.
    fn fill_later_bits(
        &self,
        x: SuperId,
        table: &mut [Entry],
        bits: Range<usize>,
        columns: &Columns,
    ) {
        let last = self.marks[x as usize];
        let mut k = bits.start;
        for e in table.iter_mut() {
            let m = self.marks[e.key() as usize];
            if mark::is_survivor(m) && m > last {
                e.set_superedge(columns.bit(k));
                k += 1;
            }
        }
        debug_assert_eq!(k, bits.end);
    }

    /// Pass 3 for `y`'s untouched table: each key naming a merged-away
    /// supernode becomes its survivor, and the survivors' keys take the
    /// bits of column `bits` in key order. A value moves unchanged — the
    /// same edges in the same visit order make up its sum — unless two
    /// keys collapse onto one survivor: their subtotals interleave in
    /// visit order, so one entry stays and the values are rescanned.
    /// Returns the new length.
    fn relabel_table(
        &self,
        y: SuperId,
        table: &mut [Entry],
        bits: Range<usize>,
        columns: &Columns,
    ) -> u32 {
        let mut relabeled = false;
        for e in table.iter_mut() {
            if self.marks[e.key() as usize] == mark::DEAD {
                *e = Entry::new(self.node_super[e.key() as usize], false, e.val());
                relabeled = true;
            }
        }
        let mut len = table.len();
        if relabeled {
            if !table.is_sorted_by_key(|e| e.key()) {
                table.sort_unstable_by_key(|e| e.key());
            }
            len = 1;
            for i in 1..table.len() {
                if table[len - 1].key() != table[i].key() {
                    table[len] = table[i];
                    len += 1;
                }
            }
            if len < table.len() {
                self.rescan_into(y, &mut table[..len]);
            }
        }
        let mut k = bits.start;
        for e in &mut table[..len] {
            if mark::is_survivor(self.marks[e.key() as usize]) {
                e.set_superedge(columns.bit(k));
                k += 1;
            }
        }
        debug_assert_eq!(k, bits.end);
        len as u32
    }

    /// Drops the superedge `{a, b}` if present (used by sparsification,
    /// Sect. III-F). Returns whether anything was removed.
    pub fn remove_superedge(&mut self, a: SuperId, b: SuperId) -> bool {
        let (Some(i), Some(j)) = (self.tables.find(a, b), self.tables.find(b, a)) else {
            return false;
        };
        if !self.tables.entries[i].superedge() {
            return false;
        }
        self.tables.entries[i].set_superedge(false);
        self.tables.entries[j].set_superedge(false);
        self.num_superedges -= 1;
        true
    }

    /// Total pair weight between two (possibly equal) live supernodes:
    /// `Σ W_uv` over all node pairs of the block — the `tot` operand of
    /// the Eq. (6) pair cost. Exposed for sparsification and tests.
    pub fn pair_tot(&self, a: SuperId, b: SuperId) -> f64 {
        if a == b {
            tot_within_view(self, a)
        } else {
            tot_between_view(self, a, b)
        }
    }

    /// Freezes into an immutable [`Summary`] (superedge weights 1.0).
    pub fn into_summary(self) -> Summary {
        let n = self.g.num_nodes();
        let mut superedges = Vec::with_capacity(self.num_superedges);
        for s in self.live_iter() {
            superedges.extend(
                self.superedge_neighbors(s)
                    .filter(|&x| s <= x)
                    .map(|x| (s, x, 1.0f32)),
            );
        }
        // The run state is no longer needed: free it before the summary
        // allocates its own, so the two never peak together.
        let node_super = self.node_super;
        drop((self.tables, self.members, self.sigs));
        Summary::new(n, node_super, &superedges)
    }
}

impl SummaryView for WorkingSummary<'_> {
    #[inline]
    fn graph_ref(&self) -> &Graph {
        self.g
    }

    #[inline]
    fn weights_ref(&self) -> &NodeWeights {
        self.w
    }

    #[inline]
    fn cost_params(&self) -> &CostParams {
        &self.params
    }

    #[inline]
    fn live_count(&self) -> usize {
        self.live
    }

    #[inline]
    fn members_of(&self, s: SuperId) -> &[NodeId] {
        self.members(s)
    }

    #[inline]
    fn wsum_of(&self, s: SuperId) -> f64 {
        debug_assert!(self.is_live(s), "dead supernode");
        self.wsum[s as usize]
    }

    #[inline]
    fn sqsum_of(&self, s: SuperId) -> f64 {
        debug_assert!(self.is_live(s), "dead supernode");
        self.sqsum[s as usize]
    }

    #[inline]
    fn super_of(&self, u: NodeId) -> SuperId {
        self.node_super[u as usize]
    }

    #[inline]
    fn has_superedge_in(&self, a: SuperId, b: SuperId) -> bool {
        self.has_superedge(a, b)
    }
}

/// The group-local span cache: per group member, its neighbor vector as
/// a sorted span in a bump arena with positional columns — neighbor
/// key, flat weight sum, superedge bit, and the neighbor's `Σ ŵ` as the
/// view sees it — so pricing reads nothing but the two spans. Spans are
/// immutable once written (bar the side-cost memo); an intra-group
/// merge appends the combined span and retires the inputs, and span
/// keys that name locally-dead supernodes are remapped dead→kept
/// lazily through `forward`.
#[derive(Default)]
struct GroupCache {
    keys: Vec<SuperId>,
    vals: Vec<f64>,
    /// Superedge bit of `{member, key}` per entry.
    pres: Vec<bool>,
    /// `Σ ŵ` of each entry's neighbor supernode.
    wx: Vec<f64>,
    /// Live member supernode → its span in the arena.
    spans: FxHashMap<SuperId, Span>,
    /// Locally-dead supernode → its surviving merge target (one step;
    /// reads follow the chain).
    forward: FxHashMap<SuperId, SuperId>,
    /// Total length of the spans currently mapped — the live fraction of
    /// the arena. Everything beyond it is retired garbage; once garbage
    /// is the majority the arena compacts in place
    /// ([`GroupCache::compact`]).
    live_len: usize,
}

/// Arena entries below which compaction is never worth the copy.
const COMPACT_MIN_ARENA: usize = 256;

/// One cached span: an arena window, a staleness bit and the memoized
/// side cost.
///
/// A span is **dirty** once any of its keys or columns may disagree
/// with the overlay — it references a supernode that merged locally.
/// Dirty spans are re-canonicalized before their next read; clean spans
/// price straight off the arena with zero hash lookups.
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    dirty: bool,
    /// `Cost_s` (Eq. 9) and the group's local merge count it was priced
    /// at. Everything a side cost reads is fixed while the span stays
    /// clean except `log2|S|`, which moves with every local merge — so
    /// the merge count is the whole memo key.
    memo: Option<(usize, f64)>,
}

impl GroupCache {
    /// Follows dead→kept links to the currently-live supernode.
    #[inline]
    fn resolve(&self, mut s: SuperId) -> SuperId {
        while let Some(&t) = self.forward.get(&s) {
            s = t;
        }
        s
    }

    /// A span's `(keys, vals, presence, neighbor weights)` columns.
    #[inline]
    fn slices(&self, span: Span) -> (&[SuperId], &[f64], &[bool], &[f64]) {
        let r = span.start as usize..(span.start + span.len) as usize;
        (
            &self.keys[r.clone()],
            &self.vals[r.clone()],
            &self.pres[r.clone()],
            &self.wx[r],
        )
    }

    /// Marks every clean span referencing `keep` or `dead` dirty — their
    /// keys (dead) or superedge bits and neighbor weights (keep) no
    /// longer reflect the overlay. Spans are sorted, so each check is
    /// two binary searches.
    fn mark_dirty_referencing(&mut self, keep: SuperId, dead: SuperId) {
        let keys = &self.keys;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "order-insensitive: only sets dirty bits, no output depends on visit order"
        )]
        for span in self.spans.values_mut() {
            if span.dirty {
                continue;
            }
            let ks = &keys[span.start as usize..(span.start + span.len) as usize];
            if ks.binary_search(&keep).is_ok() || ks.binary_search(&dead).is_ok() {
                span.dirty = true;
            }
        }
    }

    /// Accumulates `s`'s cached span into `lane`, remapping stale keys.
    /// Entries are added in span (ascending original key) order — the
    /// canonical order the equivalence invariant is defined over.
    fn load(&self, s: SuperId, lane: &mut DenseLane, epoch: u32) {
        let Span { start, len, .. } = self.spans[&s];
        let (start, len) = (start as usize, len as usize);
        if self.forward.is_empty() {
            for i in start..start + len {
                lane.add(self.keys[i], self.vals[i], epoch);
            }
        } else {
            for i in start..start + len {
                lane.add(self.resolve(self.keys[i]), self.vals[i], epoch);
            }
        }
    }

    /// Opens a new span for `s` at the arena end, retiring its old one
    /// (and compacting first if retired entries dominate: long-running
    /// groups churn spans every refresh/merge, and nothing else reclaims
    /// them). Pair with [`GroupCache::close`] — together the single owner
    /// of the arena-append invariant: all four columns grow in lockstep
    /// with the recorded `Span { start, len }`.
    fn open(&mut self, s: SuperId) -> usize {
        self.retire(s);
        if self.keys.len() >= COMPACT_MIN_ARENA && self.keys.len() >= 2 * self.live_len {
            self.compact();
        }
        self.keys.len()
    }

    /// Records the entries appended since [`GroupCache::open`] as `s`'s
    /// clean span.
    fn close(&mut self, s: SuperId, start: usize) -> Span {
        let span = Span {
            start: start as u32,
            len: (self.keys.len() - start) as u32,
            dirty: false,
            memo: None,
        };
        self.spans.insert(s, span);
        self.live_len += span.len as usize;
        span
    }

    /// Bump-appends the lane's sorted contents as the new span of `s`,
    /// with superedge bits from `present` (called with each entry's
    /// position and key) and neighbor weights from `wsum`.
    fn store_from_lane(
        &mut self,
        s: SuperId,
        lane: &DenseLane,
        present: impl Fn(usize, SuperId) -> bool,
        wsum: impl Fn(SuperId) -> f64,
    ) -> Span {
        let start = self.open(s);
        for (i, &x) in lane.touched.iter().enumerate() {
            self.keys.push(x);
            self.vals.push(lane.val[x as usize]);
            self.pres.push(present(i, x));
            self.wx.push(wsum(x));
        }
        self.close(s, start)
    }

    /// Bump-appends a neighbor table as the new span of `s`, gathering
    /// each neighbor's weight from `wsum`.
    fn store_from_table(&mut self, s: SuperId, table: &[Entry], wsum: &[f64]) -> Span {
        let start = self.open(s);
        self.keys.extend(table.iter().map(|e| e.key()));
        self.vals.extend(table.iter().map(|e| e.val()));
        self.pres.extend(table.iter().map(|e| e.superedge()));
        self.wx.extend(table.iter().map(|e| wsum[e.key() as usize]));
        self.close(s, start)
    }

    /// Drops a member's span (it merged away locally, or is replaced).
    fn retire(&mut self, s: SuperId) {
        if let Some(span) = self.spans.remove(&s) {
            self.live_len -= span.len as usize;
        }
    }

    /// Compacts the arena in place: live spans slide down in arena
    /// order, retired entries vanish, capacity is kept for reuse. Span
    /// contents are copied verbatim (same columns, same dirty state and
    /// memo), so every subsequent read is unchanged.
    fn compact(&mut self) {
        let mut order: Vec<(u32, SuperId)> = self
            .spans
            .iter()
            .map(|(&owner, span)| (span.start, owner))
            .collect();
        order.sort_unstable();
        let mut write = 0usize;
        for (start, owner) in order {
            let len = self.spans[&owner].len as usize;
            let start = start as usize;
            #[expect(
                clippy::expect_used,
                reason = "owner came from iterating these same spans"
            )]
            if start != write {
                self.keys.copy_within(start..start + len, write);
                self.vals.copy_within(start..start + len, write);
                self.pres.copy_within(start..start + len, write);
                self.wx.copy_within(start..start + len, write);
                self.spans.get_mut(&owner).expect("live span").start = write as u32;
            }
            write += len;
        }
        self.keys.truncate(write);
        self.vals.truncate(write);
        self.pres.truncate(write);
        self.wx.truncate(write);
        debug_assert_eq!(write, self.live_len);
    }

    /// Clears all state, keeping allocations — the pooled-reuse hook.
    fn reset(&mut self) {
        self.keys.clear();
        self.vals.clear();
        self.pres.clear();
        self.wx.clear();
        self.spans.clear();
        self.forward.clear();
        self.live_len = 0;
    }
}

thread_local! {
    static GROUP_CACHE_POOL: RefCell<Option<GroupCache>> = const { RefCell::new(None) };
}

/// A cleared [`GroupCache`], reusing the previous group's arena and map
/// allocations when this thread processed one before.
fn pooled_group_cache() -> GroupCache {
    GROUP_CACHE_POOL
        .with(|cell| cell.borrow_mut().take())
        .unwrap_or_default()
}

/// Returns a group's cache to this thread's pool for the next group.
fn recycle_group_cache(mut cache: GroupCache) {
    cache.reset();
    GROUP_CACHE_POOL.with(|cell| *cell.borrow_mut() = Some(cache));
}

/// The superedges a local merge gave its survivor (sorted neighbor ids),
/// stamped with that merge's position in the group's merge sequence.
struct Rewired {
    at: usize,
    added: Vec<SuperId>,
}

/// A frozen [`WorkingSummary`] plus a group-local overlay: the parallel
/// evaluate phase's view of the summary.
///
/// Merges simulated through [`GroupView::merge_local`] touch only the
/// overlay; the underlying summary is shared immutably between all
/// workers of an iteration. Supernodes outside the owning group are seen
/// at their iteration-start state — the same staleness the paper's
/// distributed variant accepts within a round — and `log2|S|` is priced
/// against the snapshot live count minus this group's own merges (each
/// group prices as if it alone were shrinking the summary; see
/// DESIGN.md §2).
///
/// Built through [`GroupView::with_cache`], the view additionally
/// carries the group-local span cache and answers evaluations from
/// spans ([`GroupView::eval_merge_cached`]) instead of member-edge scans
/// (see DESIGN.md §7).
pub struct GroupView<'w, 'a> {
    ws: &'w WorkingSummary<'a>,
    /// Locally-merged survivors (members/weight aggregates diverge from
    /// the snapshot).
    local: FxHashMap<SuperId, SuperData>,
    /// Node → supernode for members of locally-dead supernodes.
    remap: FxHashMap<NodeId, SuperId>,
    /// Superedges of each locally-merged survivor, as its last local
    /// merge chose them.
    rewired: FxHashMap<SuperId, Rewired>,
    /// Local merge count (prices `log2|S|` within this view).
    merged: usize,
    /// Group-local span cache (None = scan evaluation).
    cache: Option<GroupCache>,
}

impl<'w, 'a> GroupView<'w, 'a> {
    /// A fresh overlay over the frozen summary, without a span cache —
    /// evaluations go through the scan path ([`eval_merge_view`]).
    pub fn new(ws: &'w WorkingSummary<'a>) -> Self {
        GroupView {
            ws,
            local: FxHashMap::default(),
            remap: FxHashMap::default(),
            rewired: FxHashMap::default(),
            merged: 0,
            cache: None,
        }
    }

    /// A fresh overlay carrying the group-local span cache: every
    /// member's neighbor table is copied into the arena once, here, and
    /// every subsequent [`GroupView::eval_merge_cached`] answers from the
    /// cached spans, whose values are the tables' exact sums.
    pub fn with_cache(ws: &'w WorkingSummary<'a>, group: &[SuperId]) -> Self {
        let mut cache = pooled_group_cache();
        for &s in group {
            cache.store_from_table(s, ws.tables.table(s), &ws.wsum);
        }
        let mut view = GroupView::new(ws);
        view.cache = Some(cache);
        view
    }

    /// True if `s` merged away locally: a supernode's id is one of its
    /// own nodes, and a merged-away side's nodes are all remapped.
    fn merged_away(&self, s: SuperId) -> bool {
        self.remap.contains_key(&s)
    }

    /// The span cache of a view built by [`GroupView::with_cache`].
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract of every cached entry point"
    )]
    fn cache(&self) -> &GroupCache {
        self.cache.as_ref().expect("GroupView built without cache")
    }

    /// Evaluates the merge `{a, b}` from the group cache — no
    /// member-edge walk, `O(|span_a| + |span_b|)`.
    ///
    /// A dirty span on either side is first refreshed (keys resolved
    /// dead→kept through the dense scratch, values compacted, superedge
    /// bits and neighbor weights recomputed against the overlay — the
    /// lazy-remap pass, run once instead of per evaluation). Each side's
    /// Eq.-9 cost then comes from the span's memo when the group has not
    /// merged since it was priced, and pricing walks the two sorted clean
    /// spans' positional columns. The accumulation orders match
    /// [`eval_merge_view`] exactly, so results are bitwise identical to
    /// the scan evaluator on snapshot states.
    ///
    /// # Panics
    /// Panics if the view was built without a cache.
    pub fn eval_merge_cached(
        &mut self,
        a: SuperId,
        b: SuperId,
        scratch: &mut Scratch,
    ) -> DeltaEval {
        debug_assert!(a != b && !self.merged_away(a) && !self.merged_away(b));
        // Refresh both before reading either span: a refresh bump-stores
        // and may compact the arena, relocating previously read spans.
        let (mut sa, _) = self.refreshed_span(a, scratch);
        let (sb, moved) = self.refreshed_span(b, scratch);
        if moved {
            sa = self.cache().spans[&a];
        }
        let costs = (self.side_cost_of(a, sa), self.side_cost_of(b, sb));
        let cache = self.cache();
        let (ka, va, pa, wa) = cache.slices(sa);
        let (kb, vb, pb, wb) = cache.slices(sb);
        price_merge_canonical(
            self,
            a,
            b,
            costs,
            &Side {
                keys: ka,
                val: |i: usize| va[i],
                pres: |i: usize, _| pa[i],
                wx: |i: usize, _| wa[i],
            },
            &Side {
                keys: kb,
                val: |i: usize| vb[i],
                pres: |i: usize, _| pb[i],
                wx: |i: usize, _| wb[i],
            },
        )
    }

    /// `Cost_s` of clean span `span`: the memo when it was priced at the
    /// current local merge count, else priced now (through the same
    /// [`side_cost`] the scan evaluator uses) and memoized.
    fn side_cost_of(&mut self, s: SuperId, span: Span) -> f64 {
        if let Some((at, cost)) = span.memo {
            if at == self.merged {
                return cost;
            }
        }
        let cache = self.cache();
        let (k, v, p, w) = cache.slices(span);
        let cost = side_cost(
            self,
            s,
            &Side {
                keys: k,
                val: |i: usize| v[i],
                pres: |i: usize, _| p[i],
                wx: |i: usize, _| w[i],
            },
        );
        if let Some(memo) = self.cache.as_mut().and_then(|c| c.spans.get_mut(&s)) {
            memo.memo = Some((self.merged, cost));
        }
        cost
    }

    /// `s`'s span, re-canonicalized first if dirty: stale keys resolved
    /// and combined via the dense scratch (span order in, ascending
    /// order out — the canonical remap-combine), superedge bits and
    /// neighbor weights recomputed against the overlay, result
    /// bump-stored as the member's new clean span. The flag reports
    /// whether a store happened (which may have moved other spans).
    fn refreshed_span(&mut self, s: SuperId, scratch: &mut Scratch) -> (Span, bool) {
        let cache = self.cache();
        let span = cache.spans[&s];
        if !span.dirty {
            return (span, false);
        }
        scratch.begin(self.ws.g.num_nodes());
        cache.load(s, &mut scratch.a, scratch.epoch);
        scratch.a.sort_touched();
        #[expect(clippy::expect_used, reason = "same Option read just above")]
        let mut cache = self.cache.take().expect("checked above");
        let span = cache.store_from_lane(
            s,
            &scratch.a,
            |_, x| self.has_superedge_in(s, x),
            |x| self.wsum_of(x),
        );
        self.cache = Some(cache);
        (span, true)
    }

    /// Simulates the merge of `a` and `b` in the overlay, mirroring
    /// [`WorkingSummary::merge`] (drop incident superedges, union member
    /// sets keeping the larger side's id, selectively re-add
    /// cost-reducing superedges). Returns the surviving id.
    ///
    /// Committing the same `(a, b)` log through
    /// [`WorkingSummary::commit`] performs the identical unions: the
    /// keep/dead choice depends only on member counts, which evolve the
    /// same way in both (the overlay starts from the snapshot and other
    /// groups never touch this group's supernodes).
    ///
    /// With a cache, the merged supernode's weight vector is the linear
    /// merge of the two member spans (keep's entries folded first, then
    /// dead's — the canonical combine order), stored as a fresh span; the
    /// superedge re-addition prices straight from it instead of
    /// re-scanning member edges.
    pub fn merge_local(&mut self, a: SuperId, b: SuperId, scratch: &mut Scratch) -> SuperId {
        debug_assert!(a != b && !self.merged_away(a) && !self.merged_away(b));
        let size_a = self.members_of(a).len();
        let size_b = self.members_of(b).len();
        let (keep, dead) = if size_a >= size_b { (a, b) } else { (b, a) };

        // Union member sets and weight aggregates into the overlay.
        let dead_data = match self.local.remove(&dead) {
            Some(d) => d,
            None => SuperData {
                members: self.ws.members(dead).to_vec(),
                wsum: self.ws.wsum_of(dead),
                sqsum: self.ws.sqsum_of(dead),
            },
        };
        let ws = self.ws;
        let keep_data = self.local.entry(keep).or_insert_with(|| SuperData {
            members: ws.members(keep).to_vec(),
            wsum: ws.wsum_of(keep),
            sqsum: ws.sqsum_of(keep),
        });
        keep_data.members.extend_from_slice(&dead_data.members);
        keep_data.wsum += dead_data.wsum;
        keep_data.sqsum += dead_data.sqsum;
        for &u in &dead_data.members {
            self.remap.insert(u, keep);
        }
        self.merged += 1;

        // The merged supernode's weight vector lands in scratch lane `a`:
        // from the cached spans when the cache is on (keep's span first,
        // then dead's, stale keys resolved), else from a member-edge
        // rescan.
        scratch.begin(self.ws.g.num_nodes());
        let mut cache = self.cache.take();
        if let Some(cache) = cache.as_mut() {
            cache.forward.insert(dead, keep);
            cache.load(keep, &mut scratch.a, scratch.epoch);
            cache.load(dead, &mut scratch.a, scratch.epoch);
            cache.retire(dead);
            cache.mark_dirty_referencing(keep, dead);
        } else {
            accumulate_edge_weights_view(self, keep, &mut scratch.a, scratch.epoch);
        }
        scratch.a.sort_touched();

        // Selective superedge re-addition against the overlay: the
        // survivor's superedges become exactly the cost-reducing pairs
        // chosen here.
        let log_s = self.view_log_s();
        let lane = &scratch.a;
        let adds: Vec<bool> = lane
            .touched
            .iter()
            .map(|&x| {
                let e_raw = lane.val[x as usize];
                let (tot, e) = if x == keep {
                    (tot_within_view(self, keep), e_raw / 2.0)
                } else {
                    (tot_between_view(self, keep, x), e_raw)
                };
                best_pair_cost(tot, e, log_s, self.cost_params()).1
            })
            .collect();
        if let Some(cache) = cache.as_mut() {
            // Born clean: keys resolved, bits just chosen, neighbor
            // weights read from the overlay.
            cache.store_from_lane(keep, lane, |i, _| adds[i], |x| self.wsum_of(x));
        }
        self.cache = cache;
        let added = lane
            .touched
            .iter()
            .zip(&adds)
            .filter_map(|(&x, &add)| add.then_some(x))
            .collect();
        self.rewired.remove(&dead);
        self.rewired.insert(
            keep,
            Rewired {
                at: self.merged,
                added,
            },
        );
        keep
    }
}

impl SummaryView for GroupView<'_, '_> {
    #[inline]
    fn graph_ref(&self) -> &Graph {
        self.ws.graph_ref()
    }

    #[inline]
    fn weights_ref(&self) -> &NodeWeights {
        self.ws.weights_ref()
    }

    #[inline]
    fn cost_params(&self) -> &CostParams {
        self.ws.cost_params()
    }

    #[inline]
    fn live_count(&self) -> usize {
        self.ws.live_count() - self.merged
    }

    #[inline]
    fn members_of(&self, s: SuperId) -> &[NodeId] {
        debug_assert!(!self.merged_away(s), "locally-dead supernode queried");
        match self.local.get(&s) {
            Some(d) => &d.members,
            None => self.ws.members(s),
        }
    }

    #[inline]
    fn wsum_of(&self, s: SuperId) -> f64 {
        match self.local.get(&s) {
            Some(d) => d.wsum,
            None => self.ws.wsum_of(s),
        }
    }

    #[inline]
    fn sqsum_of(&self, s: SuperId) -> f64 {
        match self.local.get(&s) {
            Some(d) => d.sqsum,
            None => self.ws.sqsum_of(s),
        }
    }

    #[inline]
    fn super_of(&self, u: NodeId) -> SuperId {
        match self.remap.get(&u) {
            Some(&s) => s,
            None => self.ws.super_of(u),
        }
    }

    /// A local merge drops every superedge incident to its two sides and
    /// re-adds a chosen set for the survivor; after that only another
    /// local merge involving one of a pair's endpoints can change the
    /// pair. So `{a, b}` is decided by the later of the two endpoints'
    /// last local merges — or by the snapshot when neither has merged
    /// locally.
    #[inline]
    fn has_superedge_in(&self, a: SuperId, b: SuperId) -> bool {
        match (self.rewired.get(&a), self.rewired.get(&b)) {
            (None, None) => self.ws.has_superedge(a, b),
            (Some(ra), Some(rb)) if rb.at > ra.at => rb.added.binary_search(&a).is_ok(),
            (Some(ra), _) => ra.added.binary_search(&b).is_ok(),
            (None, Some(rb)) => rb.added.binary_search(&a).is_ok(),
        }
    }
}

/// The merge log and rejection samples one candidate group produced
/// during the parallel evaluate phase.
#[derive(Clone, Debug, Default)]
pub struct GroupOutcome {
    /// Accepted merges in simulation order, the log
    /// [`WorkingSummary::commit`] applies.
    pub merges: Vec<(SuperId, SuperId)>,
    /// Best-of-attempt reductions that failed the threshold (the group's
    /// contribution to the list `L` of Sect. III-E).
    pub rejected: Vec<f64>,
    /// Candidate-pair evaluations performed (throughput accounting).
    pub evals: u64,
    /// Sum of the accepted merges' absolute cost reductions `ΔCost`
    /// (Eq. 10) — the observed savings this group delivered, fed back
    /// into the gain-ordered group scheduler (DESIGN.md §11). A pure
    /// function of the same inputs as the merge log, so it is identical
    /// at any thread count.
    pub accepted_delta: f64,
}

/// Which evaluator [`evaluate_group_with`] prices candidate merges with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergeEvaluator {
    /// Neighbor tables copied into group-local spans with memoized side
    /// costs (DESIGN.md §7) — the default.
    #[default]
    Cached,
    /// Member-edge rescans through the dense scratch, pricing in the
    /// same canonical order as `Cached` — the bitwise equivalence
    /// baseline (`tests/eval_equivalence.rs`).
    Scan,
}

/// The read-only half of one group's Alg.-2 round with the default
/// cached evaluator; see [`evaluate_group_with`].
pub fn evaluate_group(
    ws: &WorkingSummary<'_>,
    group: &[SuperId],
    theta: f64,
    seed: u64,
    use_absolute_cost: bool,
) -> GroupOutcome {
    evaluate_group_with(
        ws,
        group,
        theta,
        seed,
        use_absolute_cost,
        MergeEvaluator::Cached,
    )
}

/// The read-only half of one group's Alg.-2 round: repeatedly samples
/// `|C_i|` supernode pairs, picks the best relative (or absolute, for
/// the Eq.-10 ablation) cost reduction, and accepts it when it clears
/// `theta` — all against a frozen summary plus a [`GroupView`] overlay,
/// logging decisions instead of mutating shared state. Stops when one
/// supernode remains or after `log2|C_i|` consecutive failures. (See
/// [`merge_group`] for the serial evaluate-then-commit convenience
/// form.)
///
/// All randomness comes from `seed` (drawn serially by the driver), so
/// the outcome is a pure function of `(ws, group, theta, seed,
/// evaluator)` — workers can evaluate any number of groups concurrently,
/// in any order, and the committed result stays identical.
pub fn evaluate_group_with(
    ws: &WorkingSummary<'_>,
    group: &[SuperId],
    theta: f64,
    seed: u64,
    use_absolute_cost: bool,
    evaluator: MergeEvaluator,
) -> GroupOutcome {
    with_thread_scratch(|scratch| {
        let mut view = match evaluator {
            MergeEvaluator::Cached => GroupView::with_cache(ws, group),
            MergeEvaluator::Scan => GroupView::new(ws),
        };
        let mut group: Vec<SuperId> = group.to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut outcome = GroupOutcome::default();

        let mut fails = 0usize;
        while group.len() > 1 {
            let max_fails = (group.len() as f64).log2().ceil() as usize;
            if fails > max_fails {
                break;
            }
            let samples = group.len();
            // The ranking key is fixed for the whole round: track it
            // directly instead of re-deriving it from `best` per sample.
            let mut best: Option<(usize, usize)> = None;
            let mut best_key: Option<f64> = None;
            let mut best_delta = 0.0f64;
            for _ in 0..samples {
                let i = rng.random_range(0..group.len());
                let j = rng.random_range(0..group.len());
                if i == j {
                    continue;
                }
                let (a, b) = (group[i], group[j]);
                let eval = match evaluator {
                    MergeEvaluator::Cached => view.eval_merge_cached(a, b, scratch),
                    MergeEvaluator::Scan => eval_merge_view(&view, a, b, scratch),
                };
                outcome.evals += 1;
                let key = if use_absolute_cost {
                    eval.delta
                } else {
                    eval.relative
                };
                if best_key.is_none_or(|bk| key > bk) {
                    best_key = Some(key);
                    best_delta = eval.delta;
                    best = Some((i, j));
                }
            }
            let Some((i, j)) = best else {
                fails += 1;
                continue;
            };
            #[expect(
                clippy::expect_used,
                reason = "best and best_key are always set together"
            )]
            let score = best_key.expect("best implies a key");
            if score >= theta {
                let (a, b) = (group[i], group[j]);
                let kept = view.merge_local(a, b, scratch);
                outcome.merges.push((a, b));
                outcome.accepted_delta += best_delta;
                // O(1) removal of the dead id at its known index (the
                // survivor cannot be displaced out of the vector).
                let dead_idx = if kept == a { j } else { i };
                group.swap_remove(dead_idx);
                debug_assert!(group.contains(&kept));
                fails = 0;
            } else {
                outcome.rejected.push(score);
                fails += 1;
            }
        }
        if let Some(cache) = view.cache.take() {
            recycle_group_cache(cache);
        }
        outcome
    })
}

/// Evaluates one group and immediately commits its merge log — the
/// serial convenience form of the evaluate/commit pair (one Alg.-2
/// round, the one-log case of [`WorkingSummary::commit`]). Returns the
/// outcome so callers can inspect the rejection samples.
pub fn merge_group(
    ws: &mut WorkingSummary<'_>,
    group: &[SuperId],
    theta: f64,
    seed: u64,
    use_absolute_cost: bool,
) -> GroupOutcome {
    let outcome = evaluate_group(ws, group, theta, seed, use_absolute_cost);
    ws.commit([outcome.merges.as_slice()], &Exec::serial(), || {});
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::barabasi_albert;
    use rand::SeedableRng;

    fn uniform_ws(g: &Graph) -> (NodeWeights, CostModel) {
        (
            NodeWeights::uniform(g.num_nodes()),
            CostModel::ErrorCorrection,
        )
    }

    /// Brute-force total personalized cost (Eq. 5 without the constant
    /// |V| log2|S| term): sums pair costs over *all* supernode pairs.
    fn brute_force_pair_costs(ws: &WorkingSummary<'_>) -> f64 {
        let live = ws.live_ids();
        let log_s = ws.log_s();
        let mut total = 0.0;
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i..] {
                let mut e = 0.0;
                for &u in ws.members(a) {
                    for &v in ws.members(b) {
                        if a == b && u >= v {
                            continue;
                        }
                        if ws.graph().has_edge(u, v) {
                            e += ws.weights().pair(u, v);
                        }
                    }
                }
                let tot = ws.pair_tot(a, b);
                total += pair_cost(ws.has_superedge(a, b), tot, e, log_s, ws.params());
            }
        }
        total
    }

    #[test]
    fn initialization_mirrors_graph() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (w, m) = uniform_ws(&g);
        let ws = WorkingSummary::new(&g, &w, m);
        assert_eq!(ws.num_supernodes(), 5);
        assert_eq!(ws.num_superedges(), 4);
        assert!(ws.has_superedge(0, 1));
        assert!(!ws.has_superedge(0, 2));
        let size = ws.size_bits();
        assert!((size - (2.0 * 4.0 + 5.0) * 5f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn merge_twins_is_lossless() {
        // Nodes 0,1 share neighbors {2,3} exactly (Fig. 3: A,B with same
        // connectivity) — merging them should produce a supernode with
        // superedges to 2 and 3, no self-loop, and positive delta.
        let g = graph_from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let eval = ws.eval_merge(0, 1, &mut scratch);
        assert!(eval.delta > 0.0, "merging twins must reduce cost");
        assert!(eval.relative > 0.0 && eval.relative <= 1.0);
        let c = ws.merge(0, 1);
        assert_eq!(ws.num_supernodes(), 3);
        assert!(ws.has_superedge(c, 2));
        assert!(ws.has_superedge(c, 3));
        assert!(!ws.has_superedge(c, c), "no intra edges, no self-loop");
        assert_eq!(ws.num_superedges(), 2);
    }

    #[test]
    fn merge_clique_creates_self_loop() {
        // Triangle 0-1-2: merging 0 and 1 leaves intra edge (0,1) inside C
        // plus both-to-2; with a 3-node graph, log2|V| dominates and the
        // dense connections are kept via superedges.
        let g = graph_from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let c = ws.merge(0, 1);
        assert!(
            ws.has_superedge(c, c),
            "intra edge should become a self-loop"
        );
        assert!(ws.has_superedge(c, 2));
    }

    #[test]
    fn merged_members_and_mapping_consistent() {
        let g = barabasi_albert(50, 2, 3);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let c1 = ws.merge(0, 1);
        let c2 = ws.merge(c1, 2);
        assert_eq!(ws.num_supernodes(), 48);
        let mut members = ws.members(c2).to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2]);
        for &u in &[0u32, 1, 2] {
            assert_eq!(ws.supernode_of(u), c2);
        }
    }

    #[test]
    fn delta_matches_brute_force_cost_difference() {
        // The engine's ΔCost must equal the actual decrease of the global
        // pair-cost sum — up to the log2|S| repricing of *non-incident*
        // superedges, which the algorithm deliberately ignores (Sect.
        // III-D "while fixing all non-incident superedges"). Neutralize
        // that by comparing at the same |S|: we recompute the brute-force
        // costs with the post-merge |S| on both sides... simpler: use a
        // graph where non-incident superedges don't exist.
        // Star: center 0, leaves 1..5. Merging leaves 1,2 touches every
        // superedge (all are incident to 0 via leaves? no: superedges
        // {0,3},{0,4},{0,5} are not incident to 1 or 2).
        // Instead use a 4-node path where the merge touches all edges.
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let before = brute_force_pair_costs(&ws);
        let eval = ws.eval_merge(0, 2, &mut scratch);
        ws.merge(0, 2);
        let after = brute_force_pair_costs(&ws);
        assert!(
            (eval.delta - (before - after)).abs() < 1e-9,
            "delta {} vs brute force {}",
            eval.delta,
            before - after
        );
    }

    #[test]
    fn eval_does_not_mutate() {
        let g = barabasi_albert(40, 3, 1);
        let (w, m) = uniform_ws(&g);
        let ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let e1 = ws.eval_merge(3, 7, &mut scratch);
        let e2 = ws.eval_merge(3, 7, &mut scratch);
        assert_eq!(e1.delta, e2.delta);
        assert_eq!(ws.num_supernodes(), 40);
        assert_eq!(ws.num_superedges(), g.num_edges());
    }

    #[test]
    fn cached_eval_matches_scan_eval_bitwise() {
        // The §7 invariant on a snapshot state: the cached evaluator and
        // the scan evaluator agree bit for bit (the proptest suite in
        // tests/eval_equivalence.rs broadens this to random graphs).
        let g = barabasi_albert(80, 4, 21);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        // Multi-member supernodes make the spans non-trivial.
        ws.merge(0, 1);
        ws.merge(2, 3);
        let group: Vec<SuperId> = ws.live_ids().into_iter().take(20).collect();
        let mut view = GroupView::with_cache(&ws, &group);
        for i in 0..group.len() {
            for j in (i + 1)..group.len() {
                let scan = ws.eval_merge(group[i], group[j], &mut scratch);
                let cached = view.eval_merge_cached(group[i], group[j], &mut scratch);
                assert_eq!(scan.delta.to_bits(), cached.delta.to_bits());
                assert_eq!(scan.relative.to_bits(), cached.relative.to_bits());
            }
        }
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        // A stamp written in the epoch before the u32 wrap must not
        // alias the restarted counter.
        let mut scratch = Scratch {
            epoch: u32::MAX - 1,
            ..Default::default()
        };
        scratch.begin(4); // epoch == u32::MAX
        scratch.a.add(2, 1.5, scratch.epoch);
        assert_eq!(scratch.a.get(2, scratch.epoch), Some(1.5));
        scratch.begin(4); // wrap: stamps cleared, epoch == 1
        assert_eq!(scratch.epoch, 1);
        assert_eq!(scratch.a.get(2, scratch.epoch), None);
        scratch.a.add(2, 2.5, scratch.epoch);
        assert_eq!(scratch.a.get(2, scratch.epoch), Some(2.5));
    }

    #[test]
    fn scratch_shrink_preserves_correctness() {
        let g = barabasi_albert(60, 3, 2);
        let (w, m) = uniform_ws(&g);
        let ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let before = ws.eval_merge(3, 7, &mut scratch);
        assert!(scratch.a.stamp.len() >= 60);

        // Cap below the graph size, then evaluate again: lanes regrow
        // and the result is bit-identical.
        scratch.shrink_to(10);
        assert!(scratch.a.stamp.len() <= 10 && scratch.b.stamp.len() <= 10);
        let after = ws.eval_merge(3, 7, &mut scratch);
        assert_eq!(before.delta.to_bits(), after.delta.to_bits());

        // The thread-local hook is callable at any quiescent point.
        shrink_thread_scratch(16);
    }

    #[test]
    fn superedge_count_stays_consistent() {
        let g = barabasi_albert(60, 3, 9);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut rng = StdRng::seed_from_u64(5);
        let mut live = ws.live_ids();
        for _ in 0..30 {
            let i = rng.random_range(0..live.len());
            let j = rng.random_range(0..live.len());
            if i == j {
                continue;
            }
            let (a, b) = (live[i], live[j]);
            let kept = ws.merge(a, b);
            let dead = if kept == a { b } else { a };
            live.retain(|&s| s != dead);
            // Recount superedges from the neighbor tables.
            let mut count = 0usize;
            for &s in &live {
                for x in ws.superedge_neighbors(s) {
                    if s <= x {
                        count += 1;
                    }
                }
            }
            assert_eq!(count, ws.num_superedges());
        }
    }

    #[test]
    fn remove_superedge_updates_count() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        assert!(ws.remove_superedge(0, 1));
        assert!(!ws.remove_superedge(0, 1));
        assert_eq!(ws.num_superedges(), 1);
        assert!(!ws.has_superedge(0, 1));
        assert!(!ws.has_superedge(1, 0));
    }

    #[test]
    fn into_summary_preserves_structure() {
        let g = graph_from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        ws.merge(0, 1);
        let merged_count = ws.num_superedges();
        let s = ws.into_summary();
        assert_eq!(s.num_supernodes(), 3);
        assert_eq!(s.num_superedges(), merged_count);
        assert_eq!(s.supernode_of(0), s.supernode_of(1));
        assert_ne!(s.supernode_of(0), s.supernode_of(2));
    }

    #[test]
    fn merge_group_reduces_supernodes_at_zero_threshold() {
        let g = barabasi_albert(80, 3, 4);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let group: Vec<SuperId> = (0..40).collect();
        let outcome = merge_group(&mut ws, &group, -f64::INFINITY, 0, false);
        // With threshold -inf every attempt merges: group collapses to one.
        assert_eq!(outcome.merges.len(), 39);
        assert_eq!(ws.num_supernodes(), 80 - 39);
        assert!(outcome.rejected.is_empty());
        assert!(outcome.evals >= 39, "evals must be accounted");
    }

    #[test]
    fn merge_group_respects_high_threshold() {
        let g = barabasi_albert(80, 3, 4);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let group: Vec<SuperId> = (0..40).collect();
        // Relative reduction can never reach 2.0.
        let outcome = merge_group(&mut ws, &group, 2.0, 0, false);
        assert_eq!(ws.num_supernodes(), 80, "nothing should merge");
        assert!(outcome.merges.is_empty());
        assert!(
            !outcome.rejected.is_empty(),
            "failures must be recorded in L"
        );
        assert!(outcome.rejected.iter().all(|&r| r < 2.0));
    }

    #[test]
    fn evaluate_group_log_replays_identically() {
        // The commit contract: replaying a GroupOutcome's merge log on
        // the shared summary yields exactly the supernode structure the
        // overlay simulated.
        let g = barabasi_albert(120, 4, 8);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let group: Vec<SuperId> = (10..60).collect();
        let outcome = evaluate_group(&ws, &group, 0.0, 7, false);
        assert!(!outcome.merges.is_empty(), "seed 7 should accept merges");
        for &(a, b) in &outcome.merges {
            let kept = ws.merge(a, b);
            assert!(kept == a || kept == b);
        }
        assert_eq!(ws.num_supernodes(), 120 - outcome.merges.len());
        // Supernodes outside the group were never touched.
        for s in 0..10u32 {
            assert_eq!(ws.members(s), &[s]);
        }
    }

    #[test]
    fn evaluate_group_evaluators_agree_on_outcome() {
        // Cached and scan evaluation of the same group walk the same
        // sampling sequence and land on the same merge log.
        let g = barabasi_albert(150, 4, 13);
        let w = NodeWeights::uniform(g.num_nodes());
        let ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let group: Vec<SuperId> = (20..90).collect();
        for seed in 0..4 {
            let cached = evaluate_group_with(&ws, &group, 0.0, seed, false, MergeEvaluator::Cached);
            let scan = evaluate_group_with(&ws, &group, 0.0, seed, false, MergeEvaluator::Scan);
            assert_eq!(cached.merges, scan.merges, "seed {seed}");
            assert_eq!(cached.rejected, scan.rejected, "seed {seed}");
            assert_eq!(cached.evals, scan.evals, "seed {seed}");
        }
    }

    #[test]
    fn from_checkpoint_reproduces_live_state() {
        // Merge a few pairs live, capture the parts, rebuild, and check
        // the rebuilt summary is indistinguishable: same members (order
        // included), same weight-sum bits, same superedges, and
        // bit-identical merge evaluations from the restored state.
        let g = barabasi_albert(80, 3, 11);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        ws.merge(0, 1);
        ws.merge(2, 3);
        ws.merge(ws.supernode_of(0), 10);

        let live = ws.live_ids();
        let parts: Vec<(SuperId, f64, f64, Vec<NodeId>)> = live
            .iter()
            .map(|&s| (s, ws.wsum_raw(s), ws.sqsum_raw(s), ws.members(s).to_vec()))
            .collect();
        let mut edges: Vec<(SuperId, SuperId)> = Vec::new();
        for &s in &live {
            for x in ws.superedge_neighbors(s) {
                if s <= x {
                    edges.push((s, x));
                }
            }
        }
        edges.sort_unstable();
        let restored = WorkingSummary::from_checkpoint(
            &g,
            &w,
            CostModel::ErrorCorrection,
            parts
                .iter()
                .map(|(s, ws_, sq, mem)| (*s, *ws_, *sq, mem.as_slice())),
            &edges,
        )
        .unwrap();
        assert_eq!(restored.num_supernodes(), ws.num_supernodes());
        assert_eq!(restored.num_superedges(), ws.num_superedges());
        for &s in &live {
            assert_eq!(restored.members(s), ws.members(s));
            assert_eq!(restored.wsum_raw(s).to_bits(), ws.wsum_raw(s).to_bits());
            assert_eq!(restored.sqsum_raw(s).to_bits(), ws.sqsum_raw(s).to_bits());
        }
        for u in g.nodes() {
            assert_eq!(restored.supernode_of(u), ws.supernode_of(u));
        }
        let (a, b) = (live[0], live[live.len() - 1]);
        let e1 = ws.eval_merge(a, b, &mut scratch);
        let e2 = restored.eval_merge(a, b, &mut scratch);
        assert_eq!(e1.delta.to_bits(), e2.delta.to_bits());
        assert_eq!(e1.relative.to_bits(), e2.relative.to_bits());
    }

    #[test]
    fn neighbor_tables_compact_within_their_allocation() {
        // Survivor windows are appended into the reserved slack until it
        // runs out; the arena must then compact in place (never
        // reallocate) and every table must still match a fresh scan.
        let g = barabasi_albert(400, 3, 5);
        let w = NodeWeights::personalized(&g, &[0, 7], 1.5);
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let cap = ws.tables.entries.capacity();
        let mut scratch = Scratch::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut compactions = 0;
        for _ in 0..320 {
            let live = ws.live_ids();
            let a = live[rng.random_range(0..live.len().min(40))];
            let b = live[rng.random_range(0..live.len())];
            if a == b {
                continue;
            }
            let before = ws.tables.entries.len();
            ws.merge(a, b);
            // A commit appends the survivor's window; only a compaction
            // shrinks the arena.
            compactions += usize::from(ws.tables.entries.len() < before);
            assert_eq!(ws.tables.entries.capacity(), cap, "arena reallocated");
        }
        assert!(compactions > 0, "the slack never ran out");
        for s in ws.live_iter() {
            scratch.begin(g.num_nodes());
            accumulate_edge_weights_view(&ws, s, &mut scratch.a, scratch.epoch);
            scratch.a.sort_touched();
            let table: Vec<(SuperId, f64, bool)> = ws.neighbor_table(s).collect();
            assert_eq!(table.len(), scratch.a.touched.len());
            for (&x, &(k, v, _)) in scratch.a.touched.iter().zip(&table) {
                assert_eq!((x, scratch.a.val[x as usize].to_bits()), (k, v.to_bits()));
            }
        }
    }

    #[test]
    fn group_cache_compaction_bounds_arena_and_preserves_values() {
        // Repeatedly re-storing a member's span retires the old copy;
        // without compaction the arena grows linearly with churn. Drive
        // enough churn to trip compaction and verify both the bound and
        // that live spans read back unchanged.
        let mut cache = GroupCache::default();
        let mut lane = DenseLane::default();
        lane.ensure(64);
        let epoch = 1;
        for x in 0..32u32 {
            lane.add(x, x as f64 + 0.5, epoch);
        }
        lane.sort_touched();
        for round in 0..100 {
            for s in 0..4u32 {
                cache.store_from_lane(s, &lane, |i, _| i % 3 == 0, |x| f64::from(x) * 2.0);
            }
            assert!(
                cache.keys.len() <= (2 * cache.live_len).max(COMPACT_MIN_ARENA + 4 * 32),
                "round {round}: arena {} entries for {} live",
                cache.keys.len(),
                cache.live_len
            );
        }
        assert_eq!(cache.live_len, 4 * 32);
        let check = |cache: &GroupCache, s: SuperId| {
            let (ks, vs, ps, ws_) = cache.slices(cache.spans[&s]);
            assert_eq!(ks, (0..32u32).collect::<Vec<_>>().as_slice());
            for (i, &v) in vs.iter().enumerate() {
                assert_eq!(v.to_bits(), (i as f64 + 0.5).to_bits());
                assert_eq!(ps[i], i % 3 == 0);
                assert_eq!(ws_[i].to_bits(), (i as f64 * 2.0).to_bits());
            }
        };
        for s in 0..4u32 {
            check(&cache, s);
        }
        // Retiring spans keeps the accounting consistent through the
        // next compaction, and a span's dirty bit and memo ride along
        // with its columns.
        cache.retire(0);
        cache.retire(1);
        assert_eq!(cache.live_len, 2 * 32);
        if let Some(span) = cache.spans.get_mut(&2) {
            span.dirty = true;
            span.memo = Some((7, 1.25));
        }
        for _ in 0..100 {
            cache.store_from_lane(3, &lane, |i, _| i % 3 == 0, |x| f64::from(x) * 2.0);
        }
        assert!(cache.keys.len() <= (2 * cache.live_len).max(COMPACT_MIN_ARENA + 32));
        let span = cache.spans[&2];
        assert!(span.dirty, "dirty bit survives compaction");
        assert_eq!(
            span.memo.map(|(at, c)| (at, c.to_bits())),
            Some((7, 1.25f64.to_bits()))
        );
        check(&cache, 2);
        check(&cache, 3);
    }

    #[test]
    fn group_cache_pool_reuse_is_invisible_to_results() {
        // Two groups evaluated back-to-back on one thread share the
        // pooled arena; outcomes must match a fresh-per-group run
        // (pinned indirectly: same outcome as the scan evaluator, which
        // never touches the pool).
        let g = barabasi_albert(150, 4, 17);
        let w = NodeWeights::uniform(g.num_nodes());
        let ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        for (lo, hi) in [(0u32, 50u32), (50, 100), (100, 150)] {
            let group: Vec<SuperId> = (lo..hi).collect();
            let cached = evaluate_group_with(&ws, &group, 0.0, 99, false, MergeEvaluator::Cached);
            let scan = evaluate_group_with(&ws, &group, 0.0, 99, false, MergeEvaluator::Scan);
            assert_eq!(cached.merges, scan.merges);
            assert_eq!(cached.rejected, scan.rejected);
        }
    }

    #[test]
    #[should_panic(expected = "merge needs two live supernodes")]
    fn merging_dead_supernode_panics() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let kept = ws.merge(0, 1);
        let dead = if kept == 0 { 1 } else { 0 };
        let _ = ws.merge(dead, 2);
    }
}
