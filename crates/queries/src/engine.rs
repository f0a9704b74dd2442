//! The query engine: a summary compiled once into a query-ready plan,
//! then amortized across arbitrarily many queries.
//!
//! # Plan
//!
//! [`QueryEngine::new`] precomputes, once per [`Summary`], a
//! struct-of-arrays *supernode plan*:
//!
//! * the superedge CSR split into separate neighbor/weight columns
//!   (`nbr: Vec<SuperId>`, `wgt: Vec<f32>`, offsets borrowed from the
//!   summary),
//! * per-supernode weighted reconstructed degrees `d̂` and self-loop
//!   weights,
//! * per-supernode member counts as `f64`, and
//! * the node→supernode and member-CSR columns, borrowed zero-copy from
//!   the summary.
//!
//! # Collapsed per-supernode state
//!
//! The iterative solvers (RWR, PHP, PageRank, eigenvector centrality)
//! exploit an exact invariant of summary-side power iteration: every
//! member of a supernode has the *same* reconstructed neighborhood, so
//! if all members of each supernode hold equal scores, one update step
//! keeps them equal — and the initial vectors are uniform. The only
//! exception is the query node itself (its teleport/pin term differs
//! from its supernode siblings). The full `|V|`-dimensional state is
//! therefore exactly representable as one value per supernode plus one
//! scalar for the query node, shrinking each iteration from
//! `O(|V| + |P|)` to `O(|S| + |P|)`; members are expanded back to a
//! per-node vector once, after convergence. Floating-point results can
//! differ from the per-node reference path of the test suite
//! (`tests/support/reference.rs`) only by summation-order rounding (the
//! trajectories are mathematically identical); the equivalence suite
//! bounds the difference at `1e-8`.
//!
//! # Scratch reuse and batching
//!
//! Per-query working buffers come from an internal scratch pool instead
//! of being reallocated per call, so a long-lived engine allocates only
//! the answer vector per query. The `*_batch` methods fan independent
//! query nodes out over [`pgs_core::exec::Exec`] with deterministic
//! index-order reassembly — results are byte-identical to the serial
//! loop at any thread count (each query is a pure function of the plan).
//!
//! See `DESIGN.md` §6 for the architecture discussion.

use std::sync::Mutex;

use pgs_core::exec::Exec;
use pgs_core::summary::{Summary, SuperId};
use pgs_graph::NodeId;

use crate::{MAX_ITERS, TOLERANCE};

/// Reusable per-query working buffers (see the scratch pool in
/// [`QueryEngine`]). Every solver fully (re)initializes the buffers it
/// uses, so recycled scratch never leaks state between queries.
#[derive(Default)]
struct Scratch {
    /// `|S|`-sized float buffers: state / next-state / mass / insum.
    f0: Vec<f64>,
    f1: Vec<f64>,
    f2: Vec<f64>,
    f3: Vec<f64>,
    /// Per-supernode BFS levels.
    level: Vec<u32>,
    /// Per-supernode expansion flags.
    flag: Vec<bool>,
    frontier: Vec<SuperId>,
    next_frontier: Vec<SuperId>,
}

impl Scratch {
    /// Resizes the four `|S|`-sized float buffers (state, next-state,
    /// and the two aggregation buffers) so solvers can overwrite them.
    fn resize_floats(&mut self, s_count: usize) {
        self.f0.resize(s_count, 0.0);
        self.f1.resize(s_count, 0.0);
        self.f2.resize(s_count, 0.0);
        self.f3.resize(s_count, 0.0);
    }
}

/// A summary compiled into a query-ready plan (see the module docs).
///
/// Cheap to build — `O(|S| + |P|)` plus three borrowed columns — and
/// intended to be built once per summary and shared across queries and
/// worker threads (`&QueryEngine` is `Send + Sync`).
///
/// # Example
/// ```
/// use pgs_core::Summary;
/// use pgs_core::exec::Exec;
/// use pgs_queries::QueryEngine;
///
/// let s = Summary::new(4, vec![0, 0, 1, 2], &[(0, 1, 1.0), (1, 2, 1.0)]);
/// let engine = QueryEngine::new(&s);
/// let serial: Vec<_> = [0u32, 3].iter().map(|&q| engine.rwr(q, 0.05)).collect();
/// let batched = engine.rwr_batch(&[0, 3], 0.05, &Exec::new(2));
/// assert_eq!(serial, batched); // byte-identical at any thread count
/// ```
pub struct QueryEngine<'s> {
    s: &'s Summary,
    /// Node→supernode column, borrowed (`|V|`).
    node_super: &'s [SuperId],
    /// Member CSR, borrowed (`|S|+1` offsets over `|V|` members).
    member_off: &'s [u32],
    members: &'s [NodeId],
    /// Superedge CSR offsets, borrowed (`|S|+1`).
    off: &'s [u32],
    /// Superedge CSR columns, struct-of-arrays.
    nbr: Vec<SuperId>,
    wgt: Vec<f32>,
    /// Supernode sizes as `f64` (collapsed solvers multiply by them
    /// every iteration).
    sizes_f: Vec<f64>,
    /// Weighted reconstructed degree `d̂` shared by a supernode's members.
    sdeg: Vec<f64>,
    /// Self-loop weight per supernode (0 when absent).
    self_w: Vec<f64>,
    /// Recycled per-query buffers.
    pool: Mutex<Vec<Scratch>>,
}

impl<'s> QueryEngine<'s> {
    /// Compiles `s` into a plan. `O(|S| + |P|)`.
    pub fn new(s: &'s Summary) -> Self {
        let s_count = s.num_supernodes();
        let off = s.sadj_offsets();
        let entries = *off.last().unwrap_or(&0) as usize;
        let mut nbr = Vec::with_capacity(entries);
        let mut wgt = Vec::with_capacity(entries);
        let mut sizes_f = Vec::with_capacity(s_count);
        let mut sdeg = Vec::with_capacity(s_count);
        let mut self_w = Vec::with_capacity(s_count);
        for x in 0..s_count as SuperId {
            sizes_f.push(s.supernode_size(x) as f64);
            let mut d = 0.0;
            let mut sw = 0.0;
            for &(y, w) in s.neighbor_supers(x) {
                nbr.push(y);
                wgt.push(w);
                d += w as f64 * s.supernode_size(y) as f64;
                if y == x {
                    d -= w as f64; // members are not their own neighbors
                    sw = w as f64;
                }
            }
            sdeg.push(d);
            self_w.push(sw);
        }
        QueryEngine {
            s,
            node_super: s.node_supers(),
            member_off: s.member_offsets(),
            members: s.members_flat(),
            off,
            nbr,
            wgt,
            sizes_f,
            sdeg,
            self_w,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The summary this engine serves.
    #[inline]
    pub fn summary(&self) -> &'s Summary {
        self.s
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_super.len()
    }

    /// Number of supernodes `|S|`.
    #[inline]
    pub fn num_supernodes(&self) -> usize {
        self.sizes_f.len()
    }

    /// Superedge neighbors of supernode `x` (plan column slice).
    #[inline]
    fn nbrs(&self, x: usize) -> &[SuperId] {
        &self.nbr[self.off[x] as usize..self.off[x + 1] as usize]
    }

    /// Member nodes of supernode `x` (borrowed from the summary).
    #[inline]
    fn members_of(&self, x: usize) -> &[NodeId] {
        &self.members[self.member_off[x] as usize..self.member_off[x + 1] as usize]
    }

    fn grab(&self) -> Scratch {
        self.pool.lock().unwrap().pop().unwrap_or_default()
    }

    fn recycle(&self, sc: Scratch) {
        self.pool.lock().unwrap().push(sc);
    }

    /// `insum[y] = Σ_{X ∈ sadj(Y)} w(X,Y) · src[X]` for every supernode,
    /// via the struct-of-arrays CSR. The shared inner loop of all
    /// iterative solvers.
    #[inline]
    fn gather(&self, src: &[f64], insum: &mut [f64]) {
        for (y, slot) in insum.iter_mut().enumerate() {
            let lo = self.off[y] as usize;
            let hi = self.off[y + 1] as usize;
            let mut acc = 0.0;
            for (n, w) in self.nbr[lo..hi].iter().zip(&self.wgt[lo..hi]) {
                acc += *w as f64 * src[*n as usize];
            }
            *slot = acc;
        }
    }

    /// Expands a per-supernode vector to the per-node answer.
    fn expand(&self, per_super: &[f64]) -> Vec<f64> {
        self.node_super
            .iter()
            .map(|&x| per_super[x as usize])
            .collect()
    }

    // ----- neighborhood (Alg. 4) ------------------------------------

    /// Neighbors of `q` in the reconstructed graph `Ĝ` (Alg. 4), read
    /// directly from the plan in `O(d̂(q))`.
    pub fn neighbors(&self, q: NodeId) -> Vec<NodeId> {
        let sq = self.node_super[q as usize] as usize;
        // Capacity from member counts, not `sdeg`: the weighted degree
        // overshoots by the weight factor on weighted summaries.
        let cap: usize = self
            .nbrs(sq)
            .iter()
            .map(|&y| self.sizes_f[y as usize] as usize)
            .sum();
        let mut out = Vec::with_capacity(cap);
        for &y in self.nbrs(sq) {
            for &v in self.members_of(y as usize) {
                if v != q {
                    out.push(v);
                }
            }
        }
        out
    }

    /// [`QueryEngine::neighbors`] for a batch of query nodes, fanned out
    /// over `exec` and reassembled in input order.
    pub fn neighbors_batch(&self, qs: &[NodeId], exec: &Exec) -> Vec<Vec<NodeId>> {
        exec.map_indexed(qs, |_, &q| self.neighbors(q))
    }

    // ----- HOP (Alg. 5) ---------------------------------------------

    /// BFS hop counts from `q` on `Ĝ` (Alg. 5) at pure supernode
    /// granularity: `O(|S| + |P|)` traversal plus one `O(|V|)`
    /// expansion. Unreachable nodes get `u32::MAX`; convert with
    /// [`crate::hops_to_f64`] before scoring.
    pub fn hops(&self, q: NodeId) -> Vec<u32> {
        let n = self.num_nodes();
        assert!((q as usize) < n, "query node out of range");
        let s_count = self.num_supernodes();
        let mut sc = self.grab();
        // level[y] = BFS level at which y is first *targeted* — the hop
        // count of all its members (members share reconstructed
        // neighborhoods). The query supernode starts expanded but not
        // targeted: its non-query members are only reached once some
        // expanded supernode (possibly itself, via a self-loop) points
        // back at it.
        sc.level.clear();
        sc.level.resize(s_count, u32::MAX);
        sc.flag.clear();
        sc.flag.resize(s_count, false);
        sc.frontier.clear();
        sc.next_frontier.clear();
        let sq = self.node_super[q as usize] as usize;
        sc.flag[sq] = true;
        sc.frontier.push(sq as SuperId);
        let mut d = 0u32;
        let Scratch {
            level,
            flag,
            frontier,
            next_frontier,
            ..
        } = &mut sc;
        while !frontier.is_empty() {
            d += 1;
            for &x in frontier.iter() {
                for &y in self.nbrs(x as usize) {
                    let y = y as usize;
                    if level[y] == u32::MAX {
                        level[y] = d;
                    }
                    if !flag[y] {
                        flag[y] = true;
                        next_frontier.push(y as SuperId);
                    }
                }
            }
            frontier.clear();
            std::mem::swap(frontier, next_frontier);
        }
        let mut dist: Vec<u32> = self
            .node_super
            .iter()
            .map(|&x| sc.level[x as usize])
            .collect();
        dist[q as usize] = 0;
        self.recycle(sc);
        dist
    }

    /// [`QueryEngine::hops`] for a batch of query nodes, fanned out over
    /// `exec` and reassembled in input order.
    pub fn hops_batch(&self, qs: &[NodeId], exec: &Exec) -> Vec<Vec<u32>> {
        exec.map_indexed(qs, |_, &q| self.hops(q))
    }

    // ----- RWR (Alg. 6) ---------------------------------------------

    /// RWR scores w.r.t. `q` on `Ĝ` (Alg. 6) with collapsed
    /// per-supernode state; `restart` is the restarting probability
    /// (paper: 0.05). `O(|S| + |P|)` per iteration.
    pub fn rwr(&self, q: NodeId, restart: f64) -> Vec<f64> {
        let n = self.num_nodes();
        assert!((q as usize) < n, "query node out of range");
        assert!((0.0..1.0).contains(&restart), "restart must be in [0, 1)");
        let p = 1.0 - restart;
        let s_count = self.num_supernodes();
        let sq = self.node_super[q as usize] as usize;
        let mut sc = self.grab();
        sc.resize_floats(s_count);
        let Scratch {
            f0: a,
            f1: na,
            f2: mass,
            f3: insum,
            ..
        } = &mut sc;
        let init = 1.0 / n as f64;
        a.fill(init);
        let mut rq = init; // the query node's own score
        for _ in 0..MAX_ITERS {
            // mass[X] = (Σ_{u ∈ X} r_u) / d̂(X); the member sum is
            // |X|·a[X], corrected at the query supernode where one
            // member holds rq instead of a[X].
            for ((m, &sz), (&av, &dg)) in mass
                .iter_mut()
                .zip(&self.sizes_f)
                .zip(a.iter().zip(&self.sdeg))
            {
                *m = if dg > 0.0 { sz * av / dg } else { 0.0 };
            }
            if self.sdeg[sq] > 0.0 {
                mass[sq] = (self.sizes_f[sq] * a[sq] + (rq - a[sq])) / self.sdeg[sq];
            }
            self.gather(mass, insum);
            // Generic member update + total outgoing mass + diff, fused.
            let mut sum = 0.0;
            let mut diff = 0.0f64;
            for (y, slot) in na.iter_mut().enumerate() {
                let mut val = insum[y];
                if self.self_w[y] > 0.0 && self.sdeg[y] > 0.0 {
                    val -= self.self_w[y] * a[y] / self.sdeg[y];
                }
                let val = p * val;
                diff = diff.max((val - a[y]).abs());
                *slot = val;
                sum += self.sizes_f[y] * val;
            }
            // The query node replaces one generic member of its
            // supernode and absorbs the teleport mass.
            let mut valq = insum[sq];
            if self.self_w[sq] > 0.0 && self.sdeg[sq] > 0.0 {
                valq -= self.self_w[sq] * rq / self.sdeg[sq];
            }
            let valq = p * valq;
            sum += valq - na[sq];
            let nrq = valq + (1.0 - sum);
            diff = diff.max((nrq - rq).abs());
            std::mem::swap(a, na);
            rq = nrq;
            if diff < TOLERANCE {
                break;
            }
        }
        let mut out = self.expand(a);
        out[q as usize] = rq;
        self.recycle(sc);
        out
    }

    /// [`QueryEngine::rwr`] for a batch of query nodes, fanned out over
    /// `exec` and reassembled in input order.
    pub fn rwr_batch(&self, qs: &[NodeId], restart: f64, exec: &Exec) -> Vec<Vec<f64>> {
        exec.map_indexed(qs, |_, &q| self.rwr(q, restart))
    }

    // ----- PHP -------------------------------------------------------

    /// PHP scores w.r.t. `q` on `Ĝ` with collapsed per-supernode state;
    /// `c` is the decay constant (paper: 0.95). `O(|S| + |P|)` per
    /// iteration.
    pub fn php(&self, q: NodeId, c: f64) -> Vec<f64> {
        let n = self.num_nodes();
        assert!((q as usize) < n, "query node out of range");
        assert!((0.0..1.0).contains(&c), "decay must be in [0, 1)");
        let s_count = self.num_supernodes();
        let sq = self.node_super[q as usize] as usize;
        let mut sc = self.grab();
        sc.resize_floats(s_count);
        let Scratch {
            f0: a,
            f1: na,
            f2: total,
            f3: insum,
            ..
        } = &mut sc;
        a.fill(0.0); // generic member score; the query node is pinned at 1
        for _ in 0..MAX_ITERS {
            // total[X] = Σ_{u ∈ X} php_u = |X|·a[X], with the query
            // node's pinned 1 replacing one generic member.
            for ((t, &sz), &av) in total.iter_mut().zip(&self.sizes_f).zip(a.iter()) {
                *t = sz * av;
            }
            total[sq] += 1.0 - a[sq];
            self.gather(total, insum);
            let mut diff = 0.0f64;
            for (y, slot) in na.iter_mut().enumerate() {
                let val = if self.sdeg[y] > 0.0 {
                    let mut acc = insum[y];
                    if self.self_w[y] > 0.0 {
                        acc -= self.self_w[y] * a[y]; // exclude self
                    }
                    c * acc / self.sdeg[y]
                } else {
                    0.0
                };
                diff = diff.max((val - a[y]).abs());
                *slot = val;
            }
            std::mem::swap(a, na);
            if diff < TOLERANCE {
                break;
            }
        }
        let mut out = self.expand(a);
        out[q as usize] = 1.0;
        self.recycle(sc);
        out
    }

    /// [`QueryEngine::php`] for a batch of query nodes, fanned out over
    /// `exec` and reassembled in input order.
    pub fn php_batch(&self, qs: &[NodeId], c: f64, exec: &Exec) -> Vec<Vec<f64>> {
        exec.map_indexed(qs, |_, &q| self.php(q, c))
    }

    // ----- PageRank ---------------------------------------------------

    /// PageRank on `Ĝ` with collapsed per-supernode state (no query
    /// node, so the state is exactly one value per supernode); dangling
    /// mass is redistributed uniformly. `O(|S| + |P|)` per iteration.
    pub fn pagerank(&self, damping: f64) -> Vec<f64> {
        assert!((0.0..1.0).contains(&damping), "damping must be in [0, 1)");
        let n = self.num_nodes();
        if n == 0 {
            return Vec::new();
        }
        let s_count = self.num_supernodes();
        let mut sc = self.grab();
        sc.resize_floats(s_count);
        let Scratch {
            f0: a,
            f1: na,
            f2: mass,
            f3: insum,
            ..
        } = &mut sc;
        a.fill(1.0 / n as f64);
        for _ in 0..MAX_ITERS {
            let mut dangling = 0.0;
            for ((m, &sz), (&av, &dg)) in mass
                .iter_mut()
                .zip(&self.sizes_f)
                .zip(a.iter().zip(&self.sdeg))
            {
                if dg > 0.0 {
                    *m = sz * av / dg;
                } else {
                    *m = 0.0;
                    dangling += sz * av;
                }
            }
            self.gather(mass, insum);
            let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
            let mut diff = 0.0f64;
            for (y, slot) in na.iter_mut().enumerate() {
                let mut val = insum[y];
                if self.self_w[y] > 0.0 && self.sdeg[y] > 0.0 {
                    val -= self.self_w[y] * a[y] / self.sdeg[y];
                }
                let val = base + damping * val;
                diff = diff.max((val - a[y]).abs());
                *slot = val;
            }
            std::mem::swap(a, na);
            if diff < TOLERANCE {
                break;
            }
        }
        let out = self.expand(a);
        self.recycle(sc);
        out
    }

    // ----- degrees ----------------------------------------------------

    /// Degrees of every node in `Ĝ`, from the plan's size column in
    /// `O(|V| + |P|)` total.
    pub fn degrees(&self) -> Vec<usize> {
        let s_count = self.num_supernodes();
        let mut super_deg = vec![0usize; s_count];
        let mut has_loop = vec![false; s_count];
        for (x, slot) in super_deg.iter_mut().enumerate() {
            let mut d = 0usize;
            for &y in self.nbrs(x) {
                d += self.sizes_f[y as usize] as usize;
                if y as usize == x {
                    has_loop[x] = true;
                }
            }
            *slot = d;
        }
        self.node_super
            .iter()
            .map(|&x| super_deg[x as usize] - usize::from(has_loop[x as usize]))
            .collect()
    }

    // ----- clustering coefficient -------------------------------------

    /// Clustering coefficient of `u` in `Ĝ` from supernode structure, in
    /// `O(deg_P(S_u)²)`.
    pub fn clustering_coefficient(&self, u: NodeId) -> f64 {
        let su = self.node_super[u as usize];
        // Neighbor supernodes with the count of u's neighbors inside them.
        let mut blocks: Vec<(SuperId, usize)> = Vec::new();
        for &y in self.nbrs(su as usize) {
            let mut cnt = self.sizes_f[y as usize] as usize;
            if y == su {
                cnt -= 1; // u itself
            }
            if cnt > 0 {
                blocks.push((y, cnt));
            }
        }
        let deg: usize = blocks.iter().map(|&(_, c)| c).sum();
        if deg < 2 {
            return 0.0;
        }
        // Adjacent pairs among the neighbor multiset: within one
        // supernode iff it has a self-loop, across two iff the superedge
        // exists.
        let has_edge = |a: SuperId, b: SuperId| self.nbrs(a as usize).binary_search(&b).is_ok();
        let mut links = 0usize;
        for (i, &(y, cy)) in blocks.iter().enumerate() {
            if has_edge(y, y) {
                links += cy * (cy - 1) / 2;
            }
            for &(z, cz) in &blocks[i + 1..] {
                if has_edge(y, z) {
                    links += cy * cz;
                }
            }
        }
        2.0 * links as f64 / (deg * (deg - 1)) as f64
    }

    // ----- eigenvector centrality -------------------------------------

    /// Eigenvector centrality on `Ĝ` by power iteration with collapsed
    /// per-supernode state; returns the L2-normalized dominant
    /// eigenvector, or the zero vector if `Ĝ` has no edges.
    /// `O(|S| + |P|)` per iteration.
    pub fn eigenvector_centrality(&self, iters: usize) -> Vec<f64> {
        let n = self.num_nodes();
        if n == 0 {
            return Vec::new();
        }
        let s_count = self.num_supernodes();
        let mut sc = self.grab();
        sc.resize_floats(s_count);
        let Scratch {
            f0: a,
            f1: na,
            f2: total,
            f3: insum,
            ..
        } = &mut sc;
        a.fill(1.0 / (n as f64).sqrt());
        for _ in 0..iters {
            for ((t, &sz), &av) in total.iter_mut().zip(&self.sizes_f).zip(a.iter()) {
                *t = sz * av;
            }
            self.gather(total, insum);
            let mut norm = 0.0;
            for (y, slot) in na.iter_mut().enumerate() {
                let mut val = insum[y];
                if self.self_w[y] > 0.0 {
                    val -= self.self_w[y] * a[y];
                }
                *slot = val;
                norm += self.sizes_f[y] * val * val;
            }
            if norm <= 0.0 {
                self.recycle(sc);
                return vec![0.0; n];
            }
            let inv = 1.0 / norm.sqrt();
            na.iter_mut().for_each(|x| *x *= inv);
            std::mem::swap(a, na);
        }
        let out = self.expand(a);
        self.recycle(sc);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{hops_exact, php_exact, rwr_exact};
    use crate::extended::pagerank_exact;
    use pgs_core::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
    use pgs_graph::gen::barabasi_albert;

    fn close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < tol, "{what} mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn identity_summary_matches_exact() {
        let g = barabasi_albert(80, 3, 7);
        let s = Summary::identity(&g);
        let e = QueryEngine::new(&s);
        close(&e.rwr(3, 0.05), &rwr_exact(&g, 3, 0.05), 1e-8, "rwr");
        close(&e.php(11, 0.95), &php_exact(&g, 11, 0.95), 1e-8, "php");
        close(
            &e.pagerank(0.85),
            &pagerank_exact(&g, 0.85),
            1e-8,
            "pagerank",
        );
        assert_eq!(e.hops(5), hops_exact(&g, 5));
        for u in g.nodes() {
            let mut nb = e.neighbors(u);
            nb.sort_unstable();
            assert_eq!(nb, g.neighbors(u), "neighbors at {u}");
        }
    }

    #[test]
    fn merged_summary_matches_reconstruction() {
        // Supernode {0,1,2} with self-loop (clique), {3,4} attached.
        let s = Summary::new(
            5,
            vec![0, 0, 0, 1, 1],
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)],
        );
        let recon = s.reconstruct();
        let e = QueryEngine::new(&s);
        for q in 0..5u32 {
            close(
                &e.rwr(q, 0.05),
                &rwr_exact(&recon, q, 0.05),
                1e-7,
                "rwr vs recon",
            );
            close(
                &e.php(q, 0.95),
                &php_exact(&recon, q, 0.95),
                1e-7,
                "php vs recon",
            );
            assert_eq!(e.hops(q), hops_exact(&recon, q), "hops at {q}");
            assert_eq!(e.degrees()[q as usize], recon.degree(q), "degree at {q}");
        }
        close(
            &e.pagerank(0.85),
            &pagerank_exact(&recon, 0.85),
            1e-7,
            "pagerank vs recon",
        );
    }

    #[test]
    fn scratch_reuse_is_pure() {
        // Repeating a query through the same engine (recycled scratch)
        // must give the byte-identical answer.
        let g = barabasi_albert(100, 3, 9);
        let req = SummarizeRequest::new(Budget::Bits(0.5 * g.size_bits())).targets(&[0]);
        let s = Pegasus::default().run(&g, &req).unwrap().summary;
        let e = QueryEngine::new(&s);
        let first = e.rwr(7, 0.05);
        let hops_first = e.hops(13);
        for _ in 0..3 {
            assert_eq!(e.rwr(7, 0.05), first);
            assert_eq!(e.hops(13), hops_first);
        }
    }

    #[test]
    fn batched_results_byte_identical_at_any_thread_count() {
        let g = barabasi_albert(150, 3, 5);
        let req = SummarizeRequest::new(Budget::Bits(0.5 * g.size_bits())).targets(&[0, 1]);
        let s = Pegasus::default().run(&g, &req).unwrap().summary;
        let e = QueryEngine::new(&s);
        let qs: Vec<NodeId> = (0..24).map(|i| (i * 5) as NodeId).collect();
        let serial_rwr: Vec<Vec<f64>> = qs.iter().map(|&q| e.rwr(q, 0.05)).collect();
        let serial_hops: Vec<Vec<u32>> = qs.iter().map(|&q| e.hops(q)).collect();
        let serial_php: Vec<Vec<f64>> = qs.iter().map(|&q| e.php(q, 0.95)).collect();
        for threads in [1, 2, 8] {
            let exec = Exec::new(threads);
            assert_eq!(e.rwr_batch(&qs, 0.05, &exec), serial_rwr, "t={threads}");
            assert_eq!(e.hops_batch(&qs, &exec), serial_hops, "t={threads}");
            assert_eq!(e.php_batch(&qs, 0.95, &exec), serial_php, "t={threads}");
        }
    }

    #[test]
    fn rwr_is_distribution_and_weighted_edges_matter() {
        let s = Summary::new(3, vec![0, 1, 2], &[(0, 1, 3.0), (0, 2, 1.0)]);
        let e = QueryEngine::new(&s);
        let r = e.rwr(0, 0.05);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        assert!(r[1] > r[2], "heavier superedge should attract more: {r:?}");
    }

    #[test]
    fn singleton_with_self_loop_has_zero_degree() {
        // A single-member supernode with only a self-loop reconstructs to
        // an isolated node (d̂ = w·1 − w = 0); solvers must not divide by
        // its zero degree.
        let s = Summary::new(2, vec![0, 1], &[(0, 0, 1.0)]);
        let e = QueryEngine::new(&s);
        assert_eq!(e.degrees(), vec![0, 0]);
        let r = e.rwr(1, 0.05);
        assert!(r[1] > 0.99, "all mass teleports back to q: {r:?}");
        assert_eq!(e.hops(0), vec![0, u32::MAX]);
    }
}
