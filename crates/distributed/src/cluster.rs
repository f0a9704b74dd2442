//! The `m`-machine cluster simulator implementing Alg. 3.
//!
//! Machine stores are built in parallel: each machine's summary (or
//! subgraph) depends only on the shared input graph and that machine's
//! node subset, so construction fans out one task per machine through
//! [`pgs_core::exec::Exec`] — the same deterministic fork-join machinery
//! the summarizer's evaluate phase uses — and reassembles by machine
//! index. The built cluster is therefore identical at any parallelism.

use pgs_core::api::{Budget, Pegasus, PgsError, Ssumm, SummarizeRequest, Summarizer};
use pgs_core::exec::Exec;
use pgs_core::pegasus::PegasusConfig;
use pgs_core::ssumm::SsummConfig;
use pgs_core::Summary;
use pgs_graph::{Graph, NodeId};
use pgs_partition::Method;
use pgs_queries::QueryEngine;

use crate::subgraph::local_subgraph;

/// Which query a [`Cluster::query_batch`] call answers for every node in
/// the batch.
#[derive(Clone, Copy, Debug)]
pub enum BatchQuery {
    /// RWR with the given restart probability (paper: 0.05).
    Rwr(f64),
    /// BFS hop counts; unreachable targets come back as `f64::INFINITY`.
    Hop,
    /// PHP with the given decay constant (paper: 0.95).
    Php(f64),
}

/// What each machine stores.
pub enum MachineStore {
    /// A summary graph (personalized or not).
    Summary(Summary),
    /// An uncompressed local subgraph over the full node-id space.
    Subgraph(Graph),
}

impl MachineStore {
    /// Bits this machine's store occupies (Eq. 3 / Eq. 4 accounting).
    pub fn size_bits(&self) -> f64 {
        match self {
            MachineStore::Summary(s) => s.size_bits(),
            MachineStore::Subgraph(g) => g.size_bits(),
        }
    }
}

/// How machine stores are built (the Fig. 12 contenders).
#[derive(Clone, Debug)]
pub enum Backend {
    /// Alg. 3: a PeGaSus summary personalized to each machine's subset.
    Pegasus(PegasusConfig),
    /// One non-personalized SSumM summary shared by every machine.
    Ssumm(SsummConfig),
    /// Uncompressed subgraphs from a graph-partitioning method.
    Subgraph(Method),
}

/// An in-process simulation of `m` machines answering queries with zero
/// inter-machine communication (Sect. IV).
///
/// # Example
/// ```
/// use pgs_graph::gen::planted_partition;
/// use pgs_distributed::{Backend, Cluster};
///
/// let g = planted_partition(200, 8, 800, 100, 1);
/// // 4 machines, each with memory for a ratio-0.5 summary (Sect. V-F).
/// let budget = 0.5 * g.size_bits();
/// let cluster = Cluster::try_build(&g, 4, budget, &Backend::Pegasus(Default::default()), 7)
///     .expect("valid budget");
/// let scores = cluster.rwr(0, 0.05);      // answered by node 0's machine
/// assert_eq!(scores.len(), 200);
/// ```
pub struct Cluster {
    /// Machine of each node (`V_i` membership).
    part: Vec<u32>,
    machines: Vec<MachineStore>,
}

impl Cluster {
    /// Preprocessing of Alg. 3: partition `V` with Louvain (or the
    /// backend's own partitioner), then build one store per machine
    /// within `budget_bits_per_machine`. Summary backends run
    /// [`Pegasus`]/[`Ssumm`] via [`Summarizer::run`], so an invalid
    /// per-machine budget (or an empty graph) surfaces as a typed
    /// [`PgsError`] instead of a panic deep inside a worker.
    pub fn try_build(
        g: &Graph,
        m: usize,
        budget_bits_per_machine: f64,
        backend: &Backend,
        seed: u64,
    ) -> Result<Cluster, PgsError> {
        assert!(m >= 1, "need at least one machine");
        let part = match backend {
            // Alg. 3 partitions with Louvain; the subgraph baselines use
            // their own partitioner for both routing and construction.
            Backend::Pegasus(_) | Backend::Ssumm(_) => Method::Louvain.partition(g, m, seed),
            Backend::Subgraph(method) => method.partition(g, m, seed),
        };
        let mut subsets: Vec<Vec<NodeId>> = vec![Vec::new(); m];
        for (u, &p) in part.iter().enumerate() {
            subsets[p as usize].push(u as NodeId);
        }

        // One build task per machine. The total parallelism budget is the
        // backend's own `num_threads` knob (0 = all hardware threads), so
        // a caller limiting CPU gets a correspondingly limited — even
        // fully serial — cluster build.
        let machines: Vec<MachineStore> = match backend {
            Backend::Pegasus(cfg) => {
                // Split the budget between the machine fan-out and each
                // summarizer's own evaluate phases: m machines ×
                // (budget/m) inner workers never oversubscribes. Output
                // is identical at any split (the engine's determinism
                // guarantee), so overriding the inner parallelism is safe.
                let exec = Exec::new(cfg.num_threads);
                let inner = Pegasus(PegasusConfig {
                    num_threads: (exec.threads() / m.max(1)).max(1),
                    ..cfg.clone()
                });
                exec.map_indexed(&subsets, |_, subset| {
                    // An empty subset means that machine personalizes to
                    // nothing in particular: `targets` maps it to uniform
                    // weights.
                    let req = SummarizeRequest::new(Budget::Bits(budget_bits_per_machine))
                        .targets(subset);
                    inner
                        .run(g, &req)
                        .map(|out| MachineStore::Summary(out.summary))
                })
                .into_iter()
                .collect::<Result<_, _>>()?
            }
            Backend::Ssumm(cfg) => {
                // One non-personalized summary, logically replicated;
                // `cfg.num_threads` already governs its build.
                let req = SummarizeRequest::new(Budget::Bits(budget_bits_per_machine));
                let s = Ssumm(cfg.clone()).run(g, &req)?.summary;
                (0..m).map(|_| MachineStore::Summary(s.clone())).collect()
            }
            Backend::Subgraph(_) => Exec::new(0).map_indexed(&subsets, |_, subset| {
                MachineStore::Subgraph(local_subgraph(g, subset, budget_bits_per_machine))
            }),
        };
        Ok(Cluster { part, machines })
    }

    /// Number of machines `m`.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// The machine a query on node `q` routes to (Alg. 3 line 6).
    #[inline]
    pub fn route(&self, q: NodeId) -> usize {
        self.part[q as usize] as usize
    }

    /// Read-only view of a machine's store.
    pub fn machine(&self, i: usize) -> &MachineStore {
        &self.machines[i]
    }

    /// Largest per-machine store, in bits (must respect the budget).
    pub fn max_machine_bits(&self) -> f64 {
        self.machines
            .iter()
            .map(|m| m.size_bits())
            .fold(0.0, f64::max)
    }

    /// RWR query on node `q`, answered entirely by `q`'s machine.
    pub fn rwr(&self, q: NodeId, restart: f64) -> Vec<f64> {
        match &self.machines[self.route(q)] {
            MachineStore::Summary(s) => QueryEngine::new(s).rwr(q, restart),
            MachineStore::Subgraph(g) => pgs_queries::rwr_exact(g, q, restart),
        }
    }

    /// HOP query on node `q`, answered entirely by `q`'s machine.
    /// Unreachable nodes are `u32::MAX` as usual.
    pub fn hops(&self, q: NodeId) -> Vec<u32> {
        match &self.machines[self.route(q)] {
            MachineStore::Summary(s) => QueryEngine::new(s).hops(q),
            MachineStore::Subgraph(g) => pgs_queries::hops_exact(g, q),
        }
    }

    /// PHP query on node `q`, answered entirely by `q`'s machine.
    pub fn php(&self, q: NodeId, c: f64) -> Vec<f64> {
        match &self.machines[self.route(q)] {
            MachineStore::Summary(s) => QueryEngine::new(s).php(q, c),
            MachineStore::Subgraph(g) => pgs_queries::php_exact(g, q, c),
        }
    }

    /// Scatter-gather batch serving: the Alg.-3 query loop amortized
    /// over a whole batch. Each query node routes to its machine; every
    /// summary machine that receives at least one query compiles its
    /// [`QueryEngine`] plan once and reuses it (plus recycled scratch)
    /// for all of its queries, and the independent queries fan out over
    /// `exec` with deterministic index-order reassembly. Answers are
    /// byte-identical to calling [`Cluster::rwr`] / [`Cluster::hops`] /
    /// [`Cluster::php`] per node, at any thread count (hop counts are
    /// returned as `f64` with unreachable targets mapped to
    /// `f64::INFINITY`).
    pub fn query_batch(&self, qs: &[NodeId], query: BatchQuery, exec: &Exec) -> Vec<Vec<f64>> {
        // Compile one plan per summary machine that will actually answer.
        let mut needed = vec![false; self.machines.len()];
        for &q in qs {
            needed[self.route(q)] = true;
        }
        let engines: Vec<Option<QueryEngine>> = self
            .machines
            .iter()
            .zip(&needed)
            .map(|(m, &need)| match m {
                MachineStore::Summary(s) if need => Some(QueryEngine::new(s)),
                _ => None,
            })
            .collect();
        exec.map_indexed(qs, |_, &q| {
            let mi = self.route(q);
            match (&self.machines[mi], &engines[mi]) {
                (MachineStore::Summary(_), Some(e)) => match query {
                    BatchQuery::Rwr(restart) => e.rwr(q, restart),
                    BatchQuery::Hop => hops_as_f64(&e.hops(q)),
                    BatchQuery::Php(c) => e.php(q, c),
                },
                (MachineStore::Subgraph(g), _) => match query {
                    BatchQuery::Rwr(restart) => pgs_queries::rwr_exact(g, q, restart),
                    BatchQuery::Hop => hops_as_f64(&pgs_queries::hops_exact(g, q)),
                    BatchQuery::Php(c) => pgs_queries::php_exact(g, q, c),
                },
                (MachineStore::Summary(_), None) => {
                    unreachable!("plan compiled for every routed summary machine")
                }
            }
        })
    }
}

/// Raw hop counts as `f64`, unreachable (`u32::MAX`) mapped to `+∞`
/// (callers scoring against ground truth want
/// [`pgs_queries::hops_to_f64`]'s longest-path convention instead).
fn hops_as_f64(hops: &[u32]) -> Vec<f64> {
    hops.iter()
        .map(|&d| {
            if d == u32::MAX {
                f64::INFINITY
            } else {
                d as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::gen::planted_partition;
    use pgs_queries::{hops_to_f64, smape};

    fn test_graph() -> Graph {
        planted_partition(240, 8, 1000, 140, 3)
    }

    #[test]
    fn pegasus_cluster_meets_per_machine_budget() {
        let g = test_graph();
        // Per-machine memory k = ratio × Size(G), per Sect. V-F.
        let budget = 0.5 * g.size_bits();
        let c =
            Cluster::try_build(&g, 8, budget, &Backend::Pegasus(Default::default()), 1).unwrap();
        assert_eq!(c.num_machines(), 8);
        assert!(c.max_machine_bits() <= budget + 1e-9);
    }

    #[test]
    fn ssumm_cluster_replicates_one_summary() {
        let g = test_graph();
        let budget = 0.5 * g.size_bits();
        let c = Cluster::try_build(&g, 8, budget, &Backend::Ssumm(Default::default()), 1).unwrap();
        let first = c.machine(0).size_bits();
        for i in 1..8 {
            assert_eq!(c.machine(i).size_bits(), first);
        }
    }

    #[test]
    fn subgraph_cluster_meets_budget() {
        let g = test_graph();
        let budget = 0.4 * g.size_bits();
        for method in Method::ALL {
            let c = Cluster::try_build(&g, 8, budget, &Backend::Subgraph(method), 2).unwrap();
            assert!(
                c.max_machine_bits() <= budget + 1e-9,
                "{} overflows budget",
                method.name()
            );
        }
    }

    #[test]
    fn every_node_routes_to_a_machine() {
        let g = test_graph();
        let budget = 0.5 * g.size_bits();
        let c =
            Cluster::try_build(&g, 4, budget, &Backend::Pegasus(Default::default()), 3).unwrap();
        for u in g.nodes() {
            assert!(c.route(u) < 4);
        }
    }

    #[test]
    fn queries_return_full_vectors() {
        let g = test_graph();
        let budget = 0.5 * g.size_bits();
        for backend in [
            Backend::Pegasus(Default::default()),
            Backend::Ssumm(Default::default()),
            Backend::Subgraph(Method::Louvain),
        ] {
            let c = Cluster::try_build(&g, 4, budget, &backend, 4).unwrap();
            let r = c.rwr(7, 0.05);
            assert_eq!(r.len(), g.num_nodes());
            let h = c.hops(7);
            assert_eq!(h.len(), g.num_nodes());
            let p = c.php(7, 0.95);
            assert_eq!(p.len(), g.num_nodes());
        }
    }

    #[test]
    fn query_batch_matches_per_call_routing_at_any_thread_count() {
        let g = test_graph();
        let budget = 0.5 * g.size_bits();
        let qs: Vec<u32> = (0..24).map(|i| i * 9).collect();
        for backend in [
            Backend::Pegasus(Default::default()),
            Backend::Ssumm(Default::default()),
            Backend::Subgraph(Method::Louvain),
        ] {
            let c = Cluster::try_build(&g, 4, budget, &backend, 6).unwrap();
            let serial_rwr: Vec<Vec<f64>> = qs.iter().map(|&q| c.rwr(q, 0.05)).collect();
            let serial_hops: Vec<Vec<f64>> =
                qs.iter().map(|&q| super::hops_as_f64(&c.hops(q))).collect();
            let serial_php: Vec<Vec<f64>> = qs.iter().map(|&q| c.php(q, 0.95)).collect();
            for threads in [1usize, 2, 8] {
                let exec = Exec::new(threads);
                assert_eq!(
                    c.query_batch(&qs, BatchQuery::Rwr(0.05), &exec),
                    serial_rwr,
                    "rwr, t={threads}"
                );
                assert_eq!(
                    c.query_batch(&qs, BatchQuery::Hop, &exec),
                    serial_hops,
                    "hop, t={threads}"
                );
                assert_eq!(
                    c.query_batch(&qs, BatchQuery::Php(0.95), &exec),
                    serial_php,
                    "php, t={threads}"
                );
            }
        }
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let g = test_graph();
        let bad_budgets = [
            (f64::NAN, Backend::Pegasus(Default::default())),
            (-1.0, Backend::Ssumm(Default::default())),
        ];
        for (budget, backend) in bad_budgets {
            match Cluster::try_build(&g, 4, budget, &backend, 1) {
                Err(PgsError::InvalidBudgetBits(_)) => {}
                Err(other) => panic!("wrong error: {other}"),
                Ok(_) => panic!("budget {budget} should be rejected"),
            }
        }
    }

    #[test]
    fn personalized_cluster_is_finitely_accurate() {
        // Sanity: PeGaSus-cluster answers correlate with ground truth.
        let g = test_graph();
        let budget = 0.6 * g.size_bits();
        let c =
            Cluster::try_build(&g, 4, budget, &Backend::Pegasus(Default::default()), 5).unwrap();
        let q = 11;
        let truth = hops_to_f64(&pgs_queries::hops_exact(&g, q));
        let approx = hops_to_f64(&c.hops(q));
        let err = smape(&truth, &approx);
        assert!(err < 0.9, "HOP SMAPE {err} suspiciously bad");
    }
}
