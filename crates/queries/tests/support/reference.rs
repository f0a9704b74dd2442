//! Paper-literal per-node query implementations, kept as the *reference
//! path* of the equivalence suite.
//!
//! Each answers its query by iterating over all `|V|` node states each
//! pass (Alg. 4 reads member lists directly). The
//! [`pgs_queries::QueryEngine`] collapses per-node state to per-supernode
//! state (see `engine.rs` for why that is exact); the suite checks the
//! engine against these independent implementations on random summaries.

use pgs_core::summary::{Summary, SuperId};
use pgs_graph::NodeId;

use pgs_queries::{MAX_ITERS, TOLERANCE};

/// Neighborhood reference (Alg. 4): the neighbors of `q` in `Ĝ`, read
/// member by member from the summary's superedge list.
pub fn get_neighbors(s: &Summary, q: NodeId) -> Vec<NodeId> {
    let sq = s.supernode_of(q);
    let mut out = Vec::with_capacity(s.reconstructed_degree(q));
    for &(x, _) in s.neighbor_supers(sq) {
        for &v in s.members(x) {
            if v != q {
                out.push(v);
            }
        }
    }
    out
}

/// Per-node HOP reference (Alg. 5): BFS hop counts from `q` on `Ĝ`,
/// assigning distances member-by-member. Unreachable nodes get
/// `u32::MAX`.
pub fn hops_summary(s: &Summary, q: NodeId) -> Vec<u32> {
    let n = s.num_nodes();
    let mut dist = vec![u32::MAX; n];
    dist[q as usize] = 0;
    // Supernode-level BFS: when a supernode is first reached at hop `d`,
    // all of its still-unassigned members are at hop `d` (members share
    // reconstructed neighborhoods). Each supernode expands exactly once;
    // an already-expanded target (only ever the query supernode, whose
    // non-query members start unassigned) just gets its members filled.
    let mut expanded = vec![false; s.num_supernodes()];
    let mut frontier: Vec<SuperId> = Vec::new();
    let sq = s.supernode_of(q);
    expanded[sq as usize] = true;
    frontier.push(sq);
    let mut d = 0u32;
    let mut next: Vec<SuperId> = Vec::new();
    while !frontier.is_empty() {
        d += 1;
        next.clear();
        for &x in &frontier {
            for &(y, _) in s.neighbor_supers(x) {
                for &v in s.members(y) {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = d;
                    }
                }
                if !expanded[y as usize] {
                    expanded[y as usize] = true;
                    next.push(y);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    dist
}

/// Weighted reconstructed degree of every supernode's members:
/// `d̂(u) = Σ_{Y ∈ sadj(S_u)} w(S_u,Y)·|Y| − w(S_u,S_u)` (self-loop term
/// excludes the node itself). Identical for all members of a supernode.
pub(crate) fn weighted_degrees(s: &Summary) -> Vec<f64> {
    let mut deg = vec![0.0f64; s.num_supernodes()];
    for x in 0..s.num_supernodes() as SuperId {
        let mut d = 0.0;
        for &(y, w) in s.neighbor_supers(x) {
            d += w as f64 * s.supernode_size(y) as f64;
            if y == x {
                d -= w as f64; // members are not their own neighbors
            }
        }
        deg[x as usize] = d;
    }
    deg
}

fn self_loop_weights(s: &Summary) -> Vec<f64> {
    (0..s.num_supernodes() as SuperId)
        .map(|x| {
            s.neighbor_supers(x)
                .iter()
                .find(|&&(y, _)| y == x)
                .map_or(0.0, |&(_, w)| w as f64)
        })
        .collect()
}

/// Per-node RWR reference (Alg. 6): power iteration with one state per
/// node; each iteration costs `O(|V| + |P|)`.
pub fn rwr_summary(s: &Summary, q: NodeId, restart: f64) -> Vec<f64> {
    let n = s.num_nodes();
    assert!((q as usize) < n, "query node out of range");
    assert!((0.0..1.0).contains(&restart), "restart must be in [0, 1)");
    let p = 1.0 - restart;
    let s_count = s.num_supernodes();
    let sdeg = weighted_degrees(s);
    let self_loop_w = self_loop_weights(s);

    let mut r = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    // Scratch: per-supernode outgoing mass and incoming weighted sums.
    let mut mass = vec![0.0f64; s_count];
    let mut insum = vec![0.0f64; s_count];
    for _ in 0..MAX_ITERS {
        // mass[X] = Σ_{u ∈ X} r_u / d̂(u).
        mass.iter_mut().for_each(|x| *x = 0.0);
        for u in 0..n as NodeId {
            let x = s.supernode_of(u) as usize;
            if sdeg[x] > 0.0 {
                mass[x] += r[u as usize] / sdeg[x];
            }
        }
        // insum[Y] = Σ_{X ∈ sadj(Y)} w(X,Y) · mass[X].
        insum.iter_mut().for_each(|x| *x = 0.0);
        for y in 0..s_count as SuperId {
            let mut acc = 0.0;
            for &(x, w) in s.neighbor_supers(y) {
                acc += w as f64 * mass[x as usize];
            }
            insum[y as usize] = acc;
        }
        // next[v] = insum[S_v] − self-walk correction (v cannot walk to
        // itself under a self-loop).
        let mut sum = 0.0;
        for v in 0..n as NodeId {
            let y = s.supernode_of(v) as usize;
            let mut val = insum[y];
            if self_loop_w[y] > 0.0 && sdeg[y] > 0.0 {
                val -= self_loop_w[y] * r[v as usize] / sdeg[y];
            }
            let val = p * val;
            next[v as usize] = val;
            sum += val;
        }
        next[q as usize] += 1.0 - sum;
        let diff = r
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        std::mem::swap(&mut r, &mut next);
        if diff < TOLERANCE {
            break;
        }
    }
    r
}

/// Per-node PHP reference; `c` is the decay constant. Each iteration
/// costs `O(|V| + |P|)`.
pub fn php_summary(s: &Summary, q: NodeId, c: f64) -> Vec<f64> {
    let n = s.num_nodes();
    assert!((q as usize) < n, "query node out of range");
    assert!((0.0..1.0).contains(&c), "decay must be in [0, 1)");
    let s_count = s.num_supernodes();
    let sdeg = weighted_degrees(s);
    let self_loop_w = self_loop_weights(s);

    let mut php = vec![0.0f64; n];
    php[q as usize] = 1.0;
    let mut next = vec![0.0f64; n];
    let mut total = vec![0.0f64; s_count]; // Σ php over members
    let mut insum = vec![0.0f64; s_count];
    for _ in 0..MAX_ITERS {
        total.iter_mut().for_each(|x| *x = 0.0);
        for u in 0..n as NodeId {
            total[s.supernode_of(u) as usize] += php[u as usize];
        }
        insum.iter_mut().for_each(|x| *x = 0.0);
        for y in 0..s_count as SuperId {
            let mut acc = 0.0;
            for &(x, w) in s.neighbor_supers(y) {
                acc += w as f64 * total[x as usize];
            }
            insum[y as usize] = acc;
        }
        let mut diff = 0.0f64;
        for u in 0..n as NodeId {
            if u == q {
                next[u as usize] = 1.0;
                continue;
            }
            let y = s.supernode_of(u) as usize;
            if sdeg[y] <= 0.0 {
                next[u as usize] = 0.0;
                continue;
            }
            let mut acc = insum[y];
            if self_loop_w[y] > 0.0 {
                acc -= self_loop_w[y] * php[u as usize]; // exclude self
            }
            next[u as usize] = c * acc / sdeg[y];
        }
        for u in 0..n {
            diff = diff.max((next[u] - php[u]).abs());
        }
        std::mem::swap(&mut php, &mut next);
        if diff < TOLERANCE {
            break;
        }
    }
    php
}

/// Per-node degree reference: degrees of every node in `Ĝ`.
pub fn degrees_summary(s: &Summary) -> Vec<usize> {
    let s_count = s.num_supernodes();
    let mut super_deg = vec![0usize; s_count];
    let mut has_loop = vec![false; s_count];
    for x in 0..s_count as SuperId {
        let mut d = 0usize;
        for &(y, _) in s.neighbor_supers(x) {
            d += s.supernode_size(y);
            if y == x {
                has_loop[x as usize] = true;
            }
        }
        super_deg[x as usize] = d;
    }
    (0..s.num_nodes() as NodeId)
        .map(|u| {
            let x = s.supernode_of(u) as usize;
            super_deg[x] - usize::from(has_loop[x])
        })
        .collect()
}

/// Per-node PageRank reference on `Ĝ`; dangling mass is redistributed
/// uniformly. `O(|V| + |P|)` per iteration.
pub fn pagerank_summary(s: &Summary, damping: f64) -> Vec<f64> {
    assert!((0.0..1.0).contains(&damping), "damping must be in [0, 1)");
    let n = s.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let s_count = s.num_supernodes();
    let mut sdeg = vec![0.0f64; s_count];
    let mut self_w = vec![0.0f64; s_count];
    for x in 0..s_count as SuperId {
        let mut d = 0.0;
        for &(y, w) in s.neighbor_supers(x) {
            d += w as f64 * s.supernode_size(y) as f64;
            if y == x {
                d -= w as f64;
                self_w[x as usize] = w as f64;
            }
        }
        sdeg[x as usize] = d;
    }

    let mut pr = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut mass = vec![0.0f64; s_count];
    let mut insum = vec![0.0f64; s_count];
    for _ in 0..MAX_ITERS {
        mass.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0;
        for u in 0..n as NodeId {
            let x = s.supernode_of(u) as usize;
            if sdeg[x] > 0.0 {
                mass[x] += pr[u as usize] / sdeg[x];
            } else {
                dangling += pr[u as usize];
            }
        }
        insum.iter_mut().for_each(|x| *x = 0.0);
        for y in 0..s_count as SuperId {
            let mut acc = 0.0;
            for &(x, w) in s.neighbor_supers(y) {
                acc += w as f64 * mass[x as usize];
            }
            insum[y as usize] = acc;
        }
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        let mut diff = 0.0f64;
        for u in 0..n as NodeId {
            let y = s.supernode_of(u) as usize;
            let mut val = insum[y];
            if self_w[y] > 0.0 && sdeg[y] > 0.0 {
                val -= self_w[y] * pr[u as usize] / sdeg[y];
            }
            let val = base + damping * val;
            diff = diff.max((val - pr[u as usize]).abs());
            next[u as usize] = val;
        }
        std::mem::swap(&mut pr, &mut next);
        if diff < TOLERANCE {
            break;
        }
    }
    pr
}

/// Per-node eigenvector-centrality reference on `Ĝ` by power iteration.
/// Returns the L2-normalized dominant eigenvector; zero vector if `Ĝ`
/// has no edges.
pub fn eigenvector_centrality_summary(s: &Summary, iters: usize) -> Vec<f64> {
    let n = s.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let s_count = s.num_supernodes();
    let self_w = self_loop_weights(s);
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut next = vec![0.0f64; n];
    let mut total = vec![0.0f64; s_count];
    let mut insum = vec![0.0f64; s_count];
    for _ in 0..iters {
        total.iter_mut().for_each(|x| *x = 0.0);
        for u in 0..n as NodeId {
            total[s.supernode_of(u) as usize] += v[u as usize];
        }
        insum.iter_mut().for_each(|x| *x = 0.0);
        for y in 0..s_count as SuperId {
            let mut acc = 0.0;
            for &(x, w) in s.neighbor_supers(y) {
                acc += w as f64 * total[x as usize];
            }
            insum[y as usize] = acc;
        }
        let mut norm = 0.0;
        for u in 0..n as NodeId {
            let y = s.supernode_of(u) as usize;
            let mut val = insum[y];
            if self_w[y] > 0.0 {
                val -= self_w[y] * v[u as usize];
            }
            next[u as usize] = val;
            norm += val * val;
        }
        if norm <= 0.0 {
            return vec![0.0; n];
        }
        let inv = 1.0 / norm.sqrt();
        next.iter_mut().for_each(|x| *x *= inv);
        std::mem::swap(&mut v, &mut next);
    }
    v
}
