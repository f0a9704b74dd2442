//! # pgs-bench — experiment harness for the PeGaSus evaluation
//!
//! One binary per table/figure of Sect. V (see `src/bin/`). This
//! library holds what they share: the Table II dataset stand-ins,
//! query-accuracy evaluation, and environment knobs. Speed is measured
//! by the end-to-end benchmark in `perfbench/`, not here.
//!
//! ## Dataset substitution (DESIGN.md §5)
//!
//! The paper's six real-world graphs are SNAP/KONECT downloads that are
//! not redistributable offline. Each gets a structurally matched
//! synthetic stand-in (community-planted graphs for social /
//! collaboration / co-purchase networks, preferential attachment for
//! internet topologies, R-MAT for hyperlinks), with the two smallest at
//! their original sizes and the larger ones scaled down so the full
//! suite completes on a laptop. Loading the original edge lists through
//! [`pgs_graph::io::read_edge_list`] reproduces the paper's exact
//! setting.
//!
//! ## Knobs
//!
//! * `PGS_QUERIES` — query nodes per accuracy measurement (default 25;
//!   the paper uses 100).
//! * `PGS_SCALE` — multiplies dataset sizes (default 1.0; >1 approaches
//!   the paper's scale at a proportional runtime cost).

use std::time::Instant;

use pgs_graph::traverse::largest_component;
use pgs_graph::{Graph, NodeId};
use pgs_queries::{
    hops_exact, hops_to_f64, php_exact, rwr_exact, smape, spearman, QueryEngine, PHP_DECAY,
    RWR_RESTART,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A named dataset stand-in (Table II).
pub struct Dataset {
    /// Short name used in the paper's figures (LA, CA, DB, A6, SK, WK).
    pub name: &'static str,
    /// What the stand-in substitutes for.
    pub paper_name: &'static str,
    /// Nodes of the *paper's* dataset, for the Table II comparison.
    pub paper_nodes: usize,
    /// Edges of the *paper's* dataset.
    pub paper_edges: usize,
    /// The generated graph (largest connected component, like the paper).
    pub graph: Graph,
}

fn scale() -> f64 {
    std::env::var("PGS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Number of query nodes per accuracy measurement (`PGS_QUERIES`).
pub fn num_queries() -> usize {
    std::env::var("PGS_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25)
}

/// Worker threads the experiment binaries hand to the summarizers
/// (`PGS_THREADS`; default 0 = all hardware threads). Summaries are
/// identical at any setting — only wall-clock changes.
pub fn num_threads() -> usize {
    std::env::var("PGS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn lcc(g: Graph) -> Graph {
    largest_component(&g).0
}

/// Names of the six Table II stand-ins, smallest first.
pub fn dataset_names() -> [&'static str; 6] {
    ["LA", "CA", "DB", "A6", "SK", "WK"]
}

/// Builds one Table II stand-in by name (see [`dataset_names`]).
///
/// # Panics
/// Panics on an unknown name.
pub fn dataset(name: &str) -> Dataset {
    let s = scale();
    let sz = |base: usize| ((base as f64 * s) as usize).max(64);
    match name {
        "LA" => Dataset {
            name: "LA",
            paper_name: "LastFM-Asia (social)",
            paper_nodes: 7_624,
            paper_edges: 27_806,
            // Original size: community structure + heavy-tailed degrees.
            graph: lcc(pgs_graph::gen::dc_planted_partition(
                sz(7_624),
                76,
                sz(23_000),
                sz(4_800),
                0.75,
                101,
            )),
        },
        "CA" => Dataset {
            name: "CA",
            paper_name: "Caida (internet)",
            paper_nodes: 26_475,
            paper_edges: 53_381,
            // Original size: heavy-tailed internet topology with the
            // hub-and-leaf redundancy of real AS graphs.
            graph: lcc(pgs_graph::gen::barabasi_albert_mixed(sz(26_475), 0.55, 102)),
        },
        "DB" => Dataset {
            name: "DB",
            paper_name: "DBLP (collaboration, 1/16 scale)",
            paper_nodes: 317_080,
            paper_edges: 1_049_866,
            graph: lcc(pgs_graph::gen::dc_planted_partition(
                sz(19_800),
                400,
                sz(53_000),
                sz(12_600),
                0.75,
                103,
            )),
        },
        "A6" => Dataset {
            name: "A6",
            paper_name: "Amazon0601 (co-purchase, 1/16 scale)",
            paper_nodes: 403_364,
            paper_edges: 2_443_311,
            graph: lcc(pgs_graph::gen::barabasi_albert(sz(25_200), 6, 104)),
        },
        "SK" => Dataset {
            name: "SK",
            paper_name: "Skitter (internet, 1/40 scale)",
            paper_nodes: 1_694_616,
            paper_edges: 11_094_209,
            graph: lcc(pgs_graph::gen::barabasi_albert(sz(42_000), 7, 105)),
        },
        "WK" => Dataset {
            name: "WK",
            paper_name: "Wikipedia (hyperlinks, 1/64 scale)",
            paper_nodes: 3_174_745,
            paper_edges: 103_310_688,
            graph: lcc(pgs_graph::gen::rmat(
                (15.0 + s.log2()).round().max(10.0) as u32,
                sz(1_600_000),
                0.57,
                0.19,
                0.19,
                106,
            )),
        },
        other => panic!("unknown dataset {other}"),
    }
}

/// All six stand-ins (expensive: builds every graph eagerly).
pub fn datasets() -> Vec<Dataset> {
    dataset_names().iter().map(|n| dataset(n)).collect()
}

/// The small-dataset subset on which the supernode-budgeted baselines
/// (k-GraSS, S2L, SAAGs) complete in reasonable time. The paper reports
/// o.o.t / o.o.m for them on larger datasets (Fig. 8); we apply the same
/// policy by size threshold.
pub fn baseline_feasible(g: &Graph) -> bool {
    g.num_nodes() <= 10_000
}

/// Uniformly sampled query nodes.
pub fn sample_queries(g: &Graph, count: usize, seed: u64) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = g.nodes().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    ids.truncate(count.min(g.num_nodes()));
    ids
}

/// The three node-similarity query types of Sect. V-A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryType {
    /// Random walk with restart.
    Rwr,
    /// Shortest-path hop count.
    Hop,
    /// Penalized hitting probability.
    Php,
}

impl QueryType {
    /// All query types.
    pub const ALL: [QueryType; 3] = [QueryType::Rwr, QueryType::Hop, QueryType::Php];

    /// Figure-legend name.
    pub fn name(&self) -> &'static str {
        match self {
            QueryType::Rwr => "RWR",
            QueryType::Hop => "HOP",
            QueryType::Php => "PHP",
        }
    }
}

/// Ground-truth answers for a batch of queries, computed once per
/// dataset and reused across every ratio/method cell.
pub struct GroundTruth {
    /// The query nodes.
    pub queries: Vec<NodeId>,
    /// Exact answer vectors, aligned with `queries`.
    pub answers: Vec<Vec<f64>>,
    /// Which query these answers are for.
    pub query_type: QueryType,
}

impl GroundTruth {
    /// Computes exact answers on the input graph.
    pub fn compute(g: &Graph, queries: &[NodeId], qt: QueryType) -> Self {
        let answers = queries
            .iter()
            .map(|&q| match qt {
                QueryType::Rwr => rwr_exact(g, q, RWR_RESTART),
                QueryType::Hop => hops_to_f64(&hops_exact(g, q)),
                QueryType::Php => php_exact(g, q, PHP_DECAY),
            })
            .collect();
        GroundTruth {
            queries: queries.to_vec(),
            answers,
            query_type: qt,
        }
    }

    /// Mean (SMAPE, Spearman) of the summary's answers against this
    /// ground truth. Compiles one [`QueryEngine`] plan and reuses it
    /// for the whole query batch.
    pub fn score_summary(&self, s: &pgs_core::Summary) -> (f64, f64) {
        let engine = QueryEngine::new(s);
        let mut sm = 0.0;
        let mut sc = 0.0;
        for (i, &q) in self.queries.iter().enumerate() {
            let approx = match self.query_type {
                QueryType::Rwr => engine.rwr(q, RWR_RESTART),
                QueryType::Hop => hops_to_f64(&engine.hops(q)),
                QueryType::Php => engine.php(q, PHP_DECAY),
            };
            sm += smape(&self.answers[i], &approx);
            sc += spearman(&self.answers[i], &approx);
        }
        let n = self.queries.len() as f64;
        (sm / n, sc / n)
    }

    /// Mean (SMAPE, Spearman) of a distributed cluster's answers.
    pub fn score_cluster(&self, c: &pgs_distributed::Cluster) -> (f64, f64) {
        let mut sm = 0.0;
        let mut sc = 0.0;
        for (i, &q) in self.queries.iter().enumerate() {
            let approx = match self.query_type {
                QueryType::Rwr => c.rwr(q, RWR_RESTART),
                QueryType::Hop => hops_to_f64(&c.hops(q)),
                QueryType::Php => c.php(q, PHP_DECAY),
            };
            sm += smape(&self.answers[i], &approx);
            sc += spearman(&self.answers[i], &approx);
        }
        let n = self.queries.len() as f64;
        (sm / n, sc / n)
    }
}

/// Wall-clock timing helper.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Least-squares slope of `log2(y)` against `log2(x)` — the linearity
/// check of Fig. 6 (slope ≈ 1 ⇒ linear scaling).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.log2(), y.log2()))
        .collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in pts {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_datasets_are_connected_and_nonempty() {
        // Only the two original-size small datasets, to keep unit tests
        // fast; the experiment binaries exercise the rest.
        for d in ["LA", "CA"].map(dataset) {
            assert!(d.graph.num_nodes() > 0, "{}: empty", d.name);
            assert!(
                pgs_graph::traverse::is_connected(&d.graph),
                "{}: not connected after LCC",
                d.name
            );
        }
    }

    #[test]
    fn loglog_slope_of_linear_data_is_one() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((loglog_slope(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loglog_slope_of_quadratic_data_is_two() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ground_truth_identity_scores_perfectly() {
        let g = pgs_graph::gen::barabasi_albert(200, 3, 1);
        let queries = sample_queries(&g, 5, 2);
        for qt in QueryType::ALL {
            let gt = GroundTruth::compute(&g, &queries, qt);
            let s = pgs_core::Summary::identity(&g);
            let (sm, sc) = gt.score_summary(&s);
            assert!(sm < 1e-6, "{}: smape {sm}", qt.name());
            assert!(sc > 0.999, "{}: spearman {sc}", qt.name());
        }
    }

    #[test]
    fn sample_queries_distinct() {
        let g = pgs_graph::gen::barabasi_albert(100, 2, 3);
        let q = sample_queries(&g, 30, 7);
        let mut s = q.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 30);
    }
}
