//! # pegasus-summary — Personalized Graph Summarization
//!
//! A complete Rust reproduction of *"Personalized Graph Summarization:
//! Formulation, Scalable Algorithms, and Applications"* (Kang, Lee,
//! Shin — ICDE 2022): the PeGaSus algorithm, the SSumM / k-GraSS / S2L /
//! SAAGs baselines, summary-side query answering, and the
//! communication-free distributed multi-query application.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`graph`] (`pgs-graph`) | CSR graphs, generators, IO, traversal |
//! | [`core`] (`pgs-core`) | PeGaSus, SSumM, summary representation, cost model |
//! | [`baselines`] (`pgs-baselines`) | k-GraSS, S2L, SAAGs |
//! | [`queries`] (`pgs-queries`) | RWR / HOP / PHP on graphs & summaries, SMAPE/Spearman |
//! | [`partition`] (`pgs-partition`) | Louvain, BLP, SHP |
//! | [`distributed`] (`pgs-distributed`) | Alg. 3 cluster simulator |
//! | [`serve`] (`pgs-serve`) | Multi-tenant serving: request queue, worker pool, weight cache |
//!
//! ## Quickstart
//!
//! Every algorithm is served through the unified request API
//! (`pgs_core::api`, DESIGN.md §8): build a [`SummarizeRequest`], run
//! it through any [`Summarizer`], get a [`RunOutput`] — or a typed
//! [`PgsError`] — back.
//!
//! ```
//! use pegasus_summary::prelude::*;
//!
//! // A scale-free graph and two users we care about.
//! let g = barabasi_albert(1000, 4, 42);
//! let targets = [3, 77];
//!
//! // Summarize to half the original bit size, personalized to them.
//! let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&targets);
//! let out = Pegasus::default().run(&g, &req).unwrap();
//! assert_eq!(out.stop, StopReason::BudgetMet);
//! let summary = out.summary;
//! assert!(summary.size_bits() <= 0.5 * g.size_bits());
//!
//! // Answer a node-similarity query straight from the summary.
//! let approx = rwr_summary(&summary, targets[0], 0.05);
//! let exact = rwr_exact(&g, targets[0], 0.05);
//! let err = smape(&exact, &approx);
//! assert!(err < 0.9); // far better than an uninformed answer
//!
//! // The same request shape drives every other algorithm.
//! let baseline = KGrass::default()
//!     .run(&g, &SummarizeRequest::new(Budget::Supernodes(200)))
//!     .unwrap();
//! assert_eq!(baseline.summary.num_supernodes(), 200);
//! ```
//!
//! [`SummarizeRequest`]: prelude::SummarizeRequest
//! [`Summarizer`]: prelude::Summarizer
//! [`RunOutput`]: prelude::RunOutput
//! [`PgsError`]: prelude::PgsError

pub use pgs_baselines as baselines;
pub use pgs_core as core;
pub use pgs_distributed as distributed;
pub use pgs_graph as graph;
pub use pgs_partition as partition;
pub use pgs_queries as queries;
pub use pgs_serve as serve;

/// One-stop imports for applications.
pub mod prelude {
    pub use pgs_baselines::{kgrass_summarize, s2l_summarize, saags_summarize};
    pub use pgs_baselines::{KGrass, KGrassConfig, S2l, S2lConfig, Saags, SaagsConfig};
    pub use pgs_core::error::{personalized_error, reconstruction_error};
    pub use pgs_core::summary_io::{read_summary, write_summary};
    pub use pgs_core::{
        ssumm_summarize, summarize, Budget, NodeWeights, Pegasus, PegasusConfig, Personalization,
        PgsError, RunControl, RunOutput, Ssumm, SsummConfig, StopReason, SummarizeRequest,
        Summarizer, Summary,
    };
    pub use pgs_distributed::{Backend, Cluster};
    pub use pgs_graph::gen::{
        barabasi_albert, erdos_renyi, grid, planted_partition, watts_strogatz,
    };
    pub use pgs_graph::{Graph, GraphBuilder, NodeId};
    pub use pgs_partition::Method;
    pub use pgs_queries::{
        clustering_coefficient_exact, clustering_coefficient_summary, degrees_summary,
        get_neighbors, hops_exact, hops_summary, hops_to_f64, pagerank_exact, pagerank_summary,
        php_exact, php_summary, rwr_exact, rwr_summary, smape, spearman,
    };
    pub use pgs_serve::{ServiceConfig, SubmitRequest, SummaryHandle, SummaryService};
}
