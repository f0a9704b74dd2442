//! # pgs-distributed — "communication-free" distributed multi-query
//! answering (Sect. IV, Alg. 3; evaluated in Sect. V-F / Fig. 12).
//!
//! A [`Cluster`] simulates `m` machines, each with `k` bits of memory.
//! Preprocessing partitions `V` into `m` subsets `V_1..V_m` (Louvain by
//! default, any [`pgs_partition::Method`] works) and loads each machine
//! with one of:
//!
//! * a **PeGaSus summary personalized to `V_i`** within budget `k`
//!   (Alg. 3 — the paper's proposal),
//! * a shared **non-personalized SSumM summary** of the whole graph
//!   within budget `k` (Fig. 12's SSumM baseline), or
//! * a **subgraph of size `k`** composed of the edges closest to `V_i`
//!   ("Potential Alternatives" of Sect. IV — the graph-partitioning
//!   baselines).
//!
//! A query on node `q` is routed to the machine `i` with `q ∈ V_i` and
//! answered there with zero inter-machine communication.

pub mod cluster;
pub mod subgraph;

pub use cluster::{Backend, BatchQuery, Cluster, MachineStore};
pub use subgraph::local_subgraph;
