//! The Louvain method (Blondel et al., 2008 — ref. \[28\]): greedy
//! modularity optimization in two repeated phases (local moving +
//! community aggregation), implemented in-house per Sect. V-A ("we
//! implemented the Louvain method").

use pgs_graph::{FxHashMap, Graph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::balance_into;

/// Community labels (arbitrary ids in `0..|V|`) from the Louvain method.
///
/// Deterministic for a fixed seed (the seed shuffles the node visiting
/// order, which affects tie-breaking).
pub fn louvain(g: &Graph, seed: u64) -> Vec<u32> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // Current coarse graph as weighted adjacency + self-loop weights.
    // community_of_original[v] = current coarse node of original node v.
    let mut coarse_of: Vec<u32> = (0..n as u32).collect();
    let mut adj: Vec<FxHashMap<u32, f64>> = vec![FxHashMap::default(); n];
    for (u, v) in g.edges() {
        *adj[u as usize].entry(v).or_insert(0.0) += 1.0;
        *adj[v as usize].entry(u).or_insert(0.0) += 1.0;
    }
    let mut self_loops: Vec<f64> = vec![0.0; n];
    let two_m = (2 * g.num_edges()).max(1) as f64;

    loop {
        let cn = adj.len();
        // Local moving phase on the coarse graph.
        let mut community: Vec<u32> = (0..cn as u32).collect();
        let degree: Vec<f64> = (0..cn)
            .map(|u| adj[u].values().sum::<f64>() + 2.0 * self_loops[u])
            .collect();
        let mut comm_degree: Vec<f64> = degree.clone();
        let mut order: Vec<usize> = (0..cn).collect();
        order.shuffle(&mut rng);

        let mut improved_any = false;
        let mut pass = 0;
        loop {
            let mut moved = 0usize;
            for &u in &order {
                let cu = community[u];
                // Weights from u to each adjacent community.
                let mut to_comm: FxHashMap<u32, f64> = FxHashMap::default();
                #[expect(
                    clippy::iter_over_hash_type,
                    reason = "FxHashMap order is insertion-deterministic; sequential pass sums f64 weights in adj[u] insertion order identically every run"
                )]
                for (&v, &w) in &adj[u] {
                    *to_comm.entry(community[v as usize]).or_insert(0.0) += w;
                }
                let k_u = degree[u];
                comm_degree[cu as usize] -= k_u;
                let base = to_comm.get(&cu).copied().unwrap_or(0.0)
                    - comm_degree[cu as usize] * k_u / two_m;
                let mut best = (cu, base);
                #[expect(
                    clippy::iter_over_hash_type,
                    reason = "FxHashMap order is insertion-deterministic; sequential pass breaks ties identically every run"
                )]
                for (&c, &w_uc) in &to_comm {
                    if c == cu {
                        continue;
                    }
                    let gain = w_uc - comm_degree[c as usize] * k_u / two_m;
                    if gain > best.1 + 1e-12 {
                        best = (c, gain);
                    }
                }
                comm_degree[best.0 as usize] += k_u;
                if best.0 != cu {
                    community[u] = best.0;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
            improved_any = true;
            pass += 1;
            if pass >= 20 {
                break; // safety bound; Louvain converges long before this
            }
        }

        if !improved_any {
            // Map coarse communities back to original nodes and stop.
            let mut out = vec![0u32; n];
            for v in 0..n {
                out[v] = community[coarse_of[v] as usize];
            }
            return out;
        }

        // Aggregation phase: communities become the next coarse nodes.
        let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
        for &c in community.iter() {
            let next = remap.len() as u32;
            remap.entry(c).or_insert(next);
        }
        let new_n = remap.len();
        let mut new_adj: Vec<FxHashMap<u32, f64>> = vec![FxHashMap::default(); new_n];
        let mut new_self: Vec<f64> = vec![0.0; new_n];
        for u in 0..cn {
            let cu = remap[&community[u]];
            new_self[cu as usize] += self_loops[u];
            #[expect(
                clippy::iter_over_hash_type,
                reason = "FxHashMap order is insertion-deterministic; sequential pass sums f64 weights and fills new_adj in adj[u] insertion order identically every run"
            )]
            for (&v, &w) in &adj[u] {
                let cv = remap[&community[v as usize]];
                if cu == cv {
                    // Each intra edge visited from both endpoints.
                    new_self[cu as usize] += w / 2.0;
                } else {
                    *new_adj[cu as usize].entry(cv).or_insert(0.0) += w;
                }
            }
        }
        for v in 0..n {
            coarse_of[v] = remap[&community[coarse_of[v] as usize]];
        }
        if new_n == cn {
            return coarse_of;
        }
        adj = new_adj;
        self_loops = new_self;
    }
}

/// Louvain communities balanced into exactly `m` non-empty parts (the
/// preprocessing step of Alg. 3).
pub fn louvain_partition(g: &Graph, m: usize, seed: u64) -> Vec<u32> {
    let labels = louvain(g, seed);
    balance_into(&labels, m)
}

/// Newman modularity of a labeling (used by tests; higher is better).
pub fn modularity(g: &Graph, labels: &[u32]) -> f64 {
    let m2 = (2 * g.num_edges()) as f64;
    if m2 == 0.0 {
        return 0.0;
    }
    let max_label = labels.iter().copied().max().map_or(0, |x| x as usize + 1);
    let mut intra = vec![0.0f64; max_label];
    let mut deg = vec![0.0f64; max_label];
    for (u, v) in g.edges() {
        if labels[u as usize] == labels[v as usize] {
            intra[labels[u as usize] as usize] += 1.0;
        }
    }
    for u in g.nodes() {
        deg[labels[u as usize] as usize] += g.degree(u) as f64;
    }
    let mut q = 0.0;
    for c in 0..max_label {
        q += intra[c] / (m2 / 2.0) - (deg[c] / m2).powi(2);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::planted_partition;

    #[test]
    fn two_cliques_split_into_two_communities() {
        // Two triangles joined by one edge.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let labels = louvain(&g, 1);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn finds_planted_communities_with_positive_modularity() {
        let g = planted_partition(200, 4, 1200, 80, 5);
        let labels = louvain(&g, 3);
        let q = modularity(&g, &labels);
        assert!(q > 0.4, "modularity {q} too low for a strong partition");
    }

    #[test]
    fn modularity_of_planted_truth_is_high() {
        let g = planted_partition(200, 4, 1200, 80, 5);
        let truth: Vec<u32> = (0..200).map(|u| u / 50).collect();
        assert!(modularity(&g, &truth) > 0.4);
    }

    #[test]
    fn louvain_partition_m_parts() {
        let g = planted_partition(160, 10, 700, 80, 2);
        let labels = louvain_partition(&g, 8, 1);
        assert!(crate::is_valid_partition(&labels, 8));
    }

    #[test]
    fn singleton_components_handled() {
        let g = pgs_graph::Graph::empty(5);
        let labels = louvain(&g, 0);
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = planted_partition(120, 4, 500, 40, 8);
        assert_eq!(louvain(&g, 9), louvain(&g, 9));
    }
}
