//! # pgs-baselines — competing graph summarizers
//!
//! Re-implementations of the three non-personalized summarizers PeGaSus
//! is compared against in Sect. V-D (Figs. 7–8), following the
//! configurations the paper states in Sect. V-A:
//!
//! * [`kgrass`] — GraSS (LeFevre & Terzi, SDM 2010 \[11\]) with the
//!   `SamplePairs` strategy, `c = 1.0`. Greedy pairwise merging that
//!   minimizes the L1 error of the expected-adjacency reconstruction;
//!   budgeted by supernode count.
//! * [`s2l`] — S2L (Riondato et al., DMKD 2017 \[10\]): summarization via
//!   geometric clustering of adjacency rows, L1 distance, no
//!   dimensionality reduction; budgeted by supernode count.
//! * [`saags`] — SAAGs (Beg et al., PAKDD 2018 \[9\]): scalable
//!   approximate merging scored through count-min sketches of supernode
//!   neighborhoods (`w = 50`, `d = 2`); produces weighted summaries.
//!
//! All three produce [`pgs_core::Summary`] values with *dense* superedge
//! sets (every block holding at least one edge becomes a superedge,
//! weighted by density or count) — the behavior Fig. 8 attributes to
//! them ("add superedges without selection"), which is what makes query
//! answering on their outputs slow relative to PeGaSus/SSumM.
//!
//! Each runs only through the unified request API ([`api`]): [`KGrass`],
//! [`S2l`], and [`Saags`] implement [`pgs_core::Summarizer`], with
//! supernode-count budget normalization and typed
//! [`pgs_core::PgsError`] validation.

pub mod api;
pub mod common;
pub mod kgrass;
pub mod s2l;
pub mod saags;

pub use api::{KGrass, S2l, Saags};
pub use kgrass::KGrassConfig;
pub use s2l::S2lConfig;
pub use saags::SaagsConfig;
