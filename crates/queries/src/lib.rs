//! # pgs-queries — node-similarity query answering
//!
//! The three query types of Sect. V-A, each answered two ways:
//!
//! * **exactly** on the input graph ([`exact`]), producing the ground
//!   truth `x`, and
//! * **approximately** on a summary graph ([`QueryEngine`]) without
//!   reconstructing it (Appendix A, Alg. 4–6), producing `x̂`.
//!
//! Query types:
//!
//! * `HOP` — shortest-path hop counts from a query node (Alg. 5).
//! * `RWR` — random walk with restart scores, restart probability 0.05
//!   (Alg. 6, paper ref. \[44\]).
//! * `PHP` — penalized hitting probability with decay `c = 0.95`
//!   (paper refs. \[45\], \[46\]).
//!
//! Accuracy is measured by SMAPE (lower better) and Spearman rank
//! correlation (higher better) in [`metrics`], exactly as in Sect. V-A.
//! On weighted summaries (e.g. from the SAAGs baseline) queries take the
//! superedge weights into account, as footnoted in Appendix A.
//!
//! ## Serving many queries
//!
//! [`QueryEngine::new`] compiles a summary once into a struct-of-arrays
//! supernode plan; build it once per summary and reuse it. It answers
//! every query type from reusable scratch buffers, and its `*_batch`
//! methods fan independent query nodes out over
//! [`pgs_core::exec::Exec`] with byte-identical results at any thread
//! count. The original per-node implementations live on as the test
//! suite's oracle (`tests/support/reference.rs`).

#[cfg(test)]
mod approx;
pub mod engine;
pub mod exact;
pub mod extended;
pub mod metrics;

pub use engine::QueryEngine;
pub use exact::{hops_exact, php_exact, rwr_exact};
pub use extended::{clustering_coefficient_exact, eigenvector_centrality_exact, pagerank_exact};
pub use metrics::{smape, spearman};

/// Default RWR restart probability (Sect. V-A).
pub const RWR_RESTART: f64 = 0.05;
/// Default PHP decay constant (Sect. V-A).
pub const PHP_DECAY: f64 = 0.95;
/// Default iteration cap for the iterative solvers.
pub const MAX_ITERS: usize = 100;
/// Default L∞ convergence tolerance for the iterative solvers.
pub const TOLERANCE: f64 = 1e-9;

/// Replaces unreachable hop entries (`u32::MAX`) by the longest observed
/// finite hop count, per the HOP convention of Sect. V-A ("if there is no
/// path between them, we used the length of the longest path in the given
/// (sub)graph"). Returns the result as `f64` for metric computation.
pub fn hops_to_f64(hops: &[u32]) -> Vec<f64> {
    let max_finite = hops
        .iter()
        .copied()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0);
    hops.iter()
        .map(|&d| {
            if d == u32::MAX {
                max_finite as f64
            } else {
                d as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_to_f64_fills_unreachable() {
        let hops = vec![0, 1, 2, u32::MAX];
        assert_eq!(hops_to_f64(&hops), vec![0.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn hops_to_f64_all_unreachable() {
        let hops = vec![u32::MAX, u32::MAX];
        assert_eq!(hops_to_f64(&hops), vec![0.0, 0.0]);
    }
}
