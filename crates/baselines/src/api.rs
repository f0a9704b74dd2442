//! The baselines behind the unified [`Summarizer`] interface
//! (DESIGN.md §8).
//!
//! All three are supernode-count budgeted:
//! [`Budget::Supernodes`](pgs_core::Budget::Supernodes) clamps to at
//! most `|V|`; ratios and bit budgets normalize via
//! [`Budget::to_supernodes`](pgs_core::Budget::to_supernodes). None of
//! them optimizes a personalized objective, so any non-uniform
//! [`pgs_core::Personalization`] is a typed [`PgsError::Unsupported`] —
//! never silently ignored.
//!
//! ```
//! use pgs_baselines::KGrass;
//! use pgs_core::api::{Budget, SummarizeRequest, Summarizer};
//! use pgs_graph::gen::barabasi_albert;
//!
//! let g = barabasi_albert(200, 3, 5);
//! let req = SummarizeRequest::new(Budget::Supernodes(40));
//! let out = KGrass::default().run(&g, &req).unwrap();
//! assert_eq!(out.summary.num_supernodes(), 40);
//! ```

use pgs_core::api::{finish_run, PgsError, RunOutput, SummarizeRequest, Summarizer};
use pgs_graph::Graph;

use crate::kgrass::{kgrass_loop, KGrassConfig};
use crate::s2l::{s2l_loop, S2lConfig};
use crate::saags::{saags_loop, SaagsConfig};

/// Shared validation for the count-budgeted, non-personalized
/// baselines: non-empty graph, uniform personalization, and a budget
/// normalized to a supernode count.
fn validate_count_budgeted(
    g: &Graph,
    req: &SummarizeRequest,
    algorithm: &'static str,
) -> Result<usize, PgsError> {
    if g.num_nodes() == 0 {
        return Err(PgsError::EmptyGraph);
    }
    req.require_uniform(algorithm)?;
    req.budget().to_supernodes(g)
}

/// k-GraSS (GraSS `SamplePairs`) behind the [`Summarizer`] interface.
#[derive(Clone, Debug, Default)]
pub struct KGrass(pub KGrassConfig);

impl Summarizer for KGrass {
    fn name(&self) -> &'static str {
        "kgrass"
    }

    fn run(&self, g: &Graph, req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        let k = validate_count_budgeted(g, req, self.name())?;
        let (summary, stats, stop) = kgrass_loop(g, k, &self.0, req.control_ref());
        Ok(finish_run(g, summary, stats, stop))
    }
}

/// S2L (geometric clustering) behind the [`Summarizer`] interface.
#[derive(Clone, Debug, Default)]
pub struct S2l(pub S2lConfig);

impl Summarizer for S2l {
    fn name(&self) -> &'static str {
        "s2l"
    }

    fn run(&self, g: &Graph, req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        let k = validate_count_budgeted(g, req, self.name())?;
        let (summary, stats, stop) = s2l_loop(g, k, &self.0, req.control_ref());
        Ok(finish_run(g, summary, stats, stop))
    }
}

/// SAAGs (count-min-sketch merging) behind the [`Summarizer`]
/// interface.
#[derive(Clone, Debug, Default)]
pub struct Saags(pub SaagsConfig);

impl Summarizer for Saags {
    fn name(&self) -> &'static str {
        "saags"
    }

    fn run(&self, g: &Graph, req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        let k = validate_count_budgeted(g, req, self.name())?;
        let (summary, stats, stop) = saags_loop(g, k, &self.0, req.control_ref());
        Ok(finish_run(g, summary, stats, stop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_core::api::{Budget, Personalization, StopReason};
    use pgs_graph::gen::barabasi_albert;

    #[test]
    fn all_three_run_through_the_trait() {
        let g = barabasi_albert(150, 3, 9);
        let req = SummarizeRequest::new(Budget::Supernodes(30));
        let algs: [Box<dyn Summarizer>; 3] = [
            Box::new(KGrass::default()),
            Box::new(S2l::default()),
            Box::new(Saags::default()),
        ];
        for alg in &algs {
            let out = alg.run(&g, &req).unwrap();
            assert_eq!(out.stop, StopReason::BudgetMet, "{}", alg.name());
            assert!(out.summary.num_supernodes() <= 30, "{}", alg.name());
            assert!(out.stats.evals > 0, "{}", alg.name());
        }
    }

    #[test]
    fn ratio_budgets_normalize_to_node_fractions() {
        let g = barabasi_albert(200, 3, 2);
        let req = SummarizeRequest::new(Budget::Ratio(0.2));
        let out = KGrass::default().run(&g, &req).unwrap();
        // ⌈0.2 · 200⌉ = 40 supernodes.
        assert_eq!(out.summary.num_supernodes(), 40);
    }

    #[test]
    fn personalization_is_a_typed_error() {
        let g = barabasi_albert(80, 3, 3);
        let targeted = SummarizeRequest::new(Budget::Supernodes(10)).targets(&[0, 1]);
        let weighted = SummarizeRequest::new(Budget::Supernodes(10))
            .personalization(Personalization::Weights(pgs_core::NodeWeights::uniform(80)));
        let algs: [Box<dyn Summarizer>; 3] = [
            Box::new(KGrass::default()),
            Box::new(S2l::default()),
            Box::new(Saags::default()),
        ];
        for alg in &algs {
            for req in [&targeted, &weighted] {
                assert!(
                    matches!(alg.run(&g, req), Err(PgsError::Unsupported { .. })),
                    "{}",
                    alg.name()
                );
            }
        }
    }

    #[test]
    fn invalid_budgets_never_panic() {
        let g = barabasi_albert(50, 2, 1);
        for bad in [
            Budget::Supernodes(0),
            Budget::Ratio(f64::NAN),
            Budget::Bits(-1.0),
        ] {
            let req = SummarizeRequest::new(bad);
            assert!(KGrass::default().run(&g, &req).is_err(), "{bad:?}");
        }
    }
}
