//! Seeded inputs. One `--seed` derives every graph, target set, arrival
//! schedule and query sample; the program under test only ever sees
//! the generated edge lists and the ids drawn here.
//!
//! Node ids are drawn in the edge-list file's id space and go through
//! the loader's id map ([`IdMap`]), because `read_edge_list` renumbers
//! nodes in first-seen order.

use std::path::Path;

use pgs_graph::traverse::largest_component;
use pgs_graph::{FxHashMap, Graph, NodeId};

/// Stream tags: each use of the seed draws from its own stream.
pub mod stream {
    pub const GRAPH: u64 = 1;
    pub const TARGETS: u64 = 2;
    pub const SCHEDULE: u64 = 3;
    pub const QUERIES: u64 = 4;
    pub const QUALITY: u64 = 5;
}

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same inputs on every build.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `(seed, stream, index)`.
    pub fn new(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// `k` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, n: u64, k: usize) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::with_capacity(k);
        while out.len() < k.min(n as usize) {
            let x = self.below(n);
            if !out.contains(&x) {
                out.push(x);
            }
        }
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Offline personalized summarization of a Barabási–Albert graph.
    SummarizeBa,
    /// The multi-tenant summarization service under independent users.
    ServeTenants,
    /// Alg. 3: communication-free multi-query answering.
    QueryCluster,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "summarize-ba" => Some(Workload::SummarizeBa),
            "serve-tenants" => Some(Workload::ServeTenants),
            "query-cluster" => Some(Workload::QueryCluster),
            _ => None,
        }
    }

    /// The workload's input graph for `seed`.
    pub fn graph(self, seed: u64) -> Graph {
        let s = Rng::new(seed, stream::GRAPH, 0).next_u64();
        match self {
            // Sect. V-C scalability setting: 200k nodes, ~1M edges.
            Workload::SummarizeBa => pgs_graph::gen::barabasi_albert(200_000, 5, s),
            // The LA stand-in's generator at half its size (a social
            // network), so jobs are short enough for a lightly loaded
            // open loop.
            Workload::ServeTenants => {
                largest_component(&pgs_graph::gen::dc_planted_partition(
                    3_812, 38, 11_500, 2_400, 0.75, s,
                ))
                .0
            }
            // The DB stand-in's generator parameters (collaboration).
            Workload::QueryCluster => {
                largest_component(&pgs_graph::gen::dc_planted_partition(
                    19_800, 400, 53_000, 12_600, 0.75, s,
                ))
                .0
            }
        }
    }
}

/// Writes the workload's graph for `seed` as an edge list.
pub fn write_graph(workload: Workload, seed: u64, path: &Path) -> std::io::Result<()> {
    pgs_graph::io::write_edge_list(&workload.graph(seed), path)
}

/// The loader's renumbering: file id → dense [`NodeId`].
pub struct IdMap(FxHashMap<u64, NodeId>);

impl IdMap {
    /// Wraps the map `read_edge_list` returned.
    pub fn new(map: FxHashMap<u64, NodeId>) -> Self {
        IdMap(map)
    }

    /// Ids in the file's id space (`0..n`, every node has an edge).
    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// Maps file ids to loaded ids.
    pub fn map(&self, file_ids: &[u64]) -> Result<Vec<NodeId>, String> {
        file_ids
            .iter()
            .map(|id| {
                self.0
                    .get(id)
                    .copied()
                    .ok_or_else(|| format!("file id {id} is not in the loaded graph"))
            })
            .collect()
    }
}

/// `k` distinct file ids for use `index` of `stream`.
pub fn draw_ids(seed: u64, stream: u64, index: u64, n: u64, k: usize) -> Vec<u64> {
    Rng::new(seed, stream, index).distinct(n, k)
}

/// Share of each phase-1 arrival slot, from its start, that the
/// arrival falls in. Arrivals in the first half of their slot keep
/// consecutive jobs half a slot apart, longer than most jobs run: on a
/// 2-vCPU VM two single-thread jobs running at once each ran 1.5-1.8x
/// slower than alone, and with whole-slot jitter the share of jobs that
/// happened to overlap decided the p90.
pub const ARRIVAL_JITTER: f64 = 0.5;

/// Budget ratios a sweep tenant walks through, in order.
pub const SWEEP_RATIOS: [f64; 4] = [0.7, 0.55, 0.4, 0.25];

/// One job of the serve-tenants workload.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Tenant index; `0..SWEEP` sweep tenants, the rest explore.
    pub tenant: usize,
    /// Seconds after the phase-1 start when the job is due (0 for the
    /// burst, which is submitted at once).
    pub due_s: f64,
    /// Compression ratio of the job's budget.
    pub ratio: f64,
    /// Target set in file ids.
    pub targets: Vec<u64>,
    /// Whether the job's weights are already cached at submit.
    pub cache_hit: bool,
    /// Burst (phase 2) rather than open-loop (phase 1).
    pub burst: bool,
}

/// The serve-tenants schedule: phase-1 open-loop jobs, then the burst.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Jobs in submission order.
    pub jobs: Vec<JobSpec>,
}

/// Shape of a serve-tenants schedule.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleShape {
    /// Tenants that reuse one target set across [`SWEEP_RATIOS`].
    pub sweep_tenants: usize,
    /// Tenants that send a fresh target set with every job.
    pub explore_tenants: usize,
    /// Targets per set.
    pub targets: usize,
    /// Phase-1 jobs.
    pub open_jobs: usize,
    /// Phase-1 mean arrival rate, jobs per second.
    pub rate: f64,
    /// Phase-2 jobs.
    pub burst_jobs: usize,
}

impl Schedule {
    /// The schedule for `seed` over a graph of `n` file ids.
    ///
    /// Arrivals are jittered: job `i` is due at a uniformly random
    /// instant of the first [`ARRIVAL_JITTER`] share of the `i`-th slot
    /// of length `1 / rate`. Users arrive independently of completions (an open
    /// loop) at exactly the offered rate in every seed, without the
    /// long clusters a 100-job Poisson sample has, which would decide
    /// the p90 by themselves.
    /// Tenants take turns in one seeded order, so each tenant gets the
    /// same number of jobs to within one and its jobs arrive a whole
    /// round apart: no tenant queues behind its own previous job.
    pub fn new(seed: u64, n: u64, shape: ScheduleShape) -> Self {
        let mut rng = Rng::new(seed, stream::SCHEDULE, 0);
        let tenants = shape.sweep_tenants + shape.explore_tenants;
        let total = shape.open_jobs + shape.burst_jobs;
        let due: Vec<f64> = (0..shape.open_jobs)
            .map(|i| (i as f64 + ARRIVAL_JITTER * rng.next_f64()) / shape.rate)
            .collect();

        let mut round: Vec<usize> = (0..tenants).collect();
        rng.shuffle(&mut round);
        let order = round.iter().copied().cycle();

        // Every target set in the run is distinct, so only a sweep
        // tenant's own repeats can hit the weight cache.
        let mut seen: Vec<Vec<u64>> = Vec::new();
        let mut fresh = |index: u64| -> Vec<u64> {
            let mut i = 0;
            loop {
                let mut t = draw_ids(seed, stream::TARGETS, index * 1000 + i, n, shape.targets);
                t.sort_unstable();
                if !seen.contains(&t) {
                    seen.push(t.clone());
                    return t;
                }
                i += 1;
            }
        };
        let sweep_sets: Vec<Vec<u64>> = (0..shape.sweep_tenants).map(|t| fresh(t as u64)).collect();

        let mut jobs_of = vec![0usize; tenants];
        let jobs = order
            .take(total)
            .enumerate()
            .map(|(i, tenant)| {
                let burst = i >= shape.open_jobs;
                let k = jobs_of[tenant];
                jobs_of[tenant] += 1;
                let sweep = tenant < shape.sweep_tenants;
                JobSpec {
                    tenant,
                    due_s: due.get(i).copied().unwrap_or(0.0),
                    ratio: SWEEP_RATIOS[k % SWEEP_RATIOS.len()],
                    targets: if sweep {
                        sweep_sets[tenant].clone()
                    } else {
                        fresh((tenants + i) as u64)
                    },
                    cache_hit: sweep && k > 0,
                    burst,
                }
            })
            .collect();
        Schedule { jobs }
    }

    /// Jobs whose weights the schedule expects to find cached.
    pub fn designed_hits(&self) -> u64 {
        self.jobs.iter().filter(|j| j.cache_hit).count() as u64
    }

    /// Jobs whose submit must resolve a fresh BFS.
    pub fn designed_misses(&self) -> u64 {
        self.jobs.len() as u64 - self.designed_hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ScheduleShape = ScheduleShape {
        sweep_tenants: 8,
        explore_tenants: 8,
        targets: 10,
        open_jobs: 100,
        rate: 4.0,
        burst_jobs: 40,
    };

    #[test]
    fn a_seed_always_produces_the_same_schedule() {
        let a = Schedule::new(42, 7_000, SHAPE);
        let b = Schedule::new(42, 7_000, SHAPE);
        assert_eq!(a, b);
        assert_ne!(a, Schedule::new(43, 7_000, SHAPE));
        assert_eq!(
            draw_ids(9, stream::QUERIES, 3, 500, 4),
            draw_ids(9, stream::QUERIES, 3, 500, 4)
        );
    }

    #[test]
    fn schedule_has_the_designed_shape() {
        let s = Schedule::new(7, 7_000, SHAPE);
        assert_eq!(s.jobs.len(), 140);
        let open: Vec<&JobSpec> = s.jobs.iter().filter(|j| !j.burst).collect();
        assert_eq!(open.len(), 100);
        // One arrival in the first ARRIVAL_JITTER of each slot of
        // 1 / rate seconds.
        for (i, j) in open.iter().enumerate() {
            let slot = j.due_s * SHAPE.rate;
            assert!(
                slot >= i as f64 && slot < i as f64 + ARRIVAL_JITTER,
                "job {i} at {}",
                j.due_s
            );
        }
        // Each sweep tenant misses once and hits on every later job.
        let sweep_jobs = s.jobs.iter().filter(|j| j.tenant < 8).count() as u64;
        assert_eq!(s.designed_hits(), sweep_jobs - 8);
        assert_eq!(s.designed_misses(), 140 - s.designed_hits());
        // Tenants are dealt evenly.
        for t in 0..16 {
            let n = s.jobs.iter().filter(|j| j.tenant == t).count();
            assert!((8..=9).contains(&n), "tenant {t}: {n}");
        }
        // Explore target sets are all distinct and never a sweep set.
        let mut sets: Vec<&Vec<u64>> = s
            .jobs
            .iter()
            .filter(|j| j.tenant >= 8)
            .map(|j| &j.targets)
            .collect();
        let explore = sets.len();
        sets.extend(s.jobs.iter().filter(|j| j.tenant < 8).map(|j| &j.targets));
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), explore + 8);
    }

    #[test]
    fn rng_draws_are_in_range_and_distinct() {
        let mut r = Rng::new(1, 2, 3);
        let ids = r.distinct(50, 10);
        assert_eq!(ids.len(), 10);
        assert!(ids.iter().all(|&x| x < 50));
        let mut d = ids.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
