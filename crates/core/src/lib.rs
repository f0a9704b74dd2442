//! # pgs-core — PeGaSus: Personalized Graph Summarization
//!
//! Reproduction of *"Personalized Graph Summarization: Formulation,
//! Scalable Algorithms, and Applications"* (Kang, Lee, Shin — ICDE 2022).
//!
//! Given a graph `G = (V, E)`, a set of target nodes `T ⊆ V`, and a bit
//! budget `k`, PeGaSus ([`Pegasus`]) produces a [`Summary`] graph
//! `G̅ = (S, P)` — supernodes `S` partitioning `V` plus superedges `P` —
//! that minimizes the **personalized reconstruction error** (Eq. 1):
//! error on node pairs close to `T` is weighted up by
//! `W_uv = α^{-(D(u,T)+D(v,T))}/Z` (Eq. 2), so the summary stays sharp
//! near the target nodes and coarsens far away.
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |-------|--------|
//! | Eq. (2) personalized weights | [`weights`] |
//! | Eq. (3) summary size, `G̅` representation | [`summary`] |
//! | Eq. (5)–(11) cost model | [`cost`] |
//! | Sect. III-C candidate generation (shingles) | [`shingle`] |
//! | Sect. III-D merging & superedge addition (Alg. 2) | [`working`], [`pegasus`] |
//! | Sect. III-E adaptive thresholding | [`threshold`] |
//! | Sect. III-F further sparsification | [`sparsify`] |
//! | Alg. 1 driver | [`pegasus`] |
//! | Sect. III-G SSumM baseline \[7\] | [`ssumm`] |
//! | Eq. (1) error evaluation | [`error`] |
//! | Unified request/response API | [`api`] |
//!
//! ## Quickstart
//!
//! Every summarizer runs through one request path ([`api`], DESIGN.md
//! §8): build a [`SummarizeRequest`], run it through a [`Summarizer`],
//! get a [`RunOutput`] or a typed [`PgsError`] back.
//!
//! ```
//! use pgs_core::api::{Budget, Pegasus, StopReason, SummarizeRequest, Summarizer};
//! use pgs_graph::gen::barabasi_albert;
//!
//! let g = barabasi_albert(500, 4, 42);
//! let req = SummarizeRequest::new(Budget::Ratio(0.5)) // or Bits / Supernodes
//!     .targets(&[0, 1, 2]);                           // personalize to these nodes
//! let out = Pegasus::default().run(&g, &req).unwrap();
//! assert_eq!(out.stop, StopReason::BudgetMet);
//! assert!(out.summary.size_bits() <= 0.5 * g.size_bits());
//! assert_eq!(out.summary.num_nodes(), 500);
//! assert!(out.stats.merges > 0);
//! ```

// Panic policy (DESIGN.md §13): `clippy.toml` exempts lock-poisoning
// unwraps; every other site carries an `#[expect(..., reason = ...)]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod api;
pub mod checkpoint;
pub mod cost;
pub mod error;
pub mod exec;
pub mod fault;
pub mod pegasus;
pub mod shingle;
pub mod sparsify;
pub mod ssumm;
pub mod summary;
pub mod summary_io;
pub mod threshold;
pub mod weights;
pub mod working;

pub use api::{
    Budget, CheckpointSink, Checkpointing, Pegasus, Personalization, PgsError, RunControl,
    RunOutput, Ssumm, StopReason, SummarizeRequest, Summarizer,
};
pub use checkpoint::{CheckpointError, RunCheckpoint};
pub use fault::FaultPlan;
pub use pegasus::PegasusConfig;
pub use ssumm::SsummConfig;
pub use summary::{Summary, SuperId};
pub use weights::NodeWeights;
