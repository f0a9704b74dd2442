//! # pgs-graph — graph substrate for personalized graph summarization
//!
//! This crate provides the infrastructure that the PeGaSus reproduction is
//! built on:
//!
//! * [`Graph`] — an immutable, undirected, simple graph in compressed
//!   sparse row (CSR) form, the input representation used by every
//!   summarizer, query, and partitioner in the workspace.
//! * [`GraphBuilder`] — incremental construction with de-duplication and
//!   self-loop removal, matching the paper's preprocessing ("we removed all
//!   self-loops and edge directions").
//! * [`gen`] — random-graph generators (Barabási–Albert, Watts–Strogatz,
//!   Erdős–Rényi, planted partition, R-MAT) used as offline stand-ins for
//!   the paper's six real-world datasets (Table II).
//! * [`io`] — whitespace/tab-separated edge-list reading and writing so the
//!   original SNAP/KONECT datasets can be dropped in unchanged.
//! * [`traverse`] — BFS, multi-source BFS, connected components, and the
//!   90-percentile effective diameter (used in Fig. 10).
//! * [`sample`] — node-sampled induced subgraphs (used by the scalability
//!   sweep of Fig. 6) and BFS-local node sampling (Fig. 10).
//!
//! Node identifiers are dense `u32` indices `0..n`; this matches the
//! paper's `V = {1, 2, ..., |V|}` convention (0-based here) and keeps the
//! hot structures compact per the Rust Performance Book guidance on
//! smaller integers.

pub mod builder;
pub mod gen;
pub mod graph;
pub mod io;
pub mod sample;
pub mod traverse;

pub use builder::GraphBuilder;
pub use graph::{Graph, NodeId};

/// Convenience alias used across the workspace for hash maps keyed by
/// node/supernode ids (FxHash: fast for integer keys).
pub type FxHashMap<K, V> = rustc_hash::FxHashMap<K, V>;
/// Convenience alias for hash sets of integer ids.
pub type FxHashSet<K> = rustc_hash::FxHashSet<K>;
