//! The result line: correctness, op accounting, and named metrics with
//! units, printed as one JSON object.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Output checks of one run. Every failure is kept and printed to
/// stderr; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `what` as failed unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a failure.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// A finished run.
pub struct Report {
    pub checks: Checks,
    /// Timed ops started.
    pub attempted: u64,
    /// Timed ops that errored, were refused, stopped short of their
    /// budget, or failed a check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 64 * self.metrics.len());
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.passed() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values have no JSON form; they never come out
            // of a correct run, and a run that produced one is failed.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end metrics every untraced run prints, with units (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("quality_error", "ratio"),
];

/// The per-layer metrics every traced run prints, with units (the
/// `per_layer` list of `BENCHMARK.json`). A layer a workload does not
/// reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_ms", "ms"),
    ("graph.rss_mb", "MiB"),
    ("weights.bfs_ms", "ms"),
    ("weights.bfs_calls", "count"),
    ("engine.run_ms", "ms"),
    ("engine.candidates_ms", "ms"),
    ("engine.evaluate_ms", "ms"),
    ("engine.commit_ms", "ms"),
    ("engine.sparsify_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("engine.evals", "count"),
    ("engine.merges", "count"),
    ("engine.iterations", "count"),
    ("engine.groups", "count"),
    ("engine.eval_us", "us"),
    ("engine.accept_ratio", "ratio"),
    ("engine.state_mb", "MiB"),
    ("engine.state_bytes_per_edge", "B/edge"),
    ("serve.submit_ms", "ms"),
    ("serve.submit_p90_ms", "ms"),
    ("serve.submit_hit_ms", "ms"),
    ("serve.submit_hit_tail_ms", "ms"),
    ("serve.submit_miss_ms", "ms"),
    ("serve.submit_miss_tail_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.wait_p90_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.other_frac", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.checkpoints", "count"),
    ("serve.checkpoint_failures", "count"),
    ("serve.errors", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.retried", "count"),
    ("partition.louvain_ms", "ms"),
    ("distributed.build_ms", "ms"),
    ("distributed.plans_per_op", "count"),
    ("queries.rwr_ms", "ms"),
    ("queries.php_ms", "ms"),
    ("queries.hop_ms", "ms"),
    ("queries.plan_ms", "ms"),
    ("queries.answered", "count"),
    ("bench.late_ms", "ms"),
    ("bench.steal_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.closure_err_frac", "ratio"),
    ("bench.nproc", "count"),
];

/// Metric values by name, emitted in the order of a declared list.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` (declared in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The metrics of `declared`, in its order. A declared metric left
    /// unset reads 0 when `zero_missing`, and is reported as a failed
    /// check otherwise; so is any non-finite value.
    pub fn emit(
        &self,
        declared: &[(&'static str, &'static str)],
        zero_missing: bool,
        checks: &mut Checks,
    ) -> Vec<Metric> {
        declared
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if zero_missing => 0.0,
                    None => {
                        checks.fail(format!("metric {name} was not measured"));
                        0.0
                    }
                };
                checks.expect(value.is_finite(), || format!("metric {name} is {value}"));
                Metric { name, value, unit }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_precision() {
        let mut v = Values::default();
        v.set("op_p50_ms", 1.234_567_890_123);
        v.set("setup_s", 0.5);
        let mut checks = Checks::default();
        let metrics = v.emit(&END_TO_END[..2], false, &mut checks);
        let r = Report {
            checks,
            attempted: 3,
            failed: 0,
            metrics,
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"op_p50_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn unset_end_to_end_metrics_fail_and_unset_layers_read_zero() {
        let v = Values::default();
        let mut checks = Checks::default();
        let layers = v.emit(PER_LAYER, true, &mut checks);
        assert!(checks.passed());
        assert!(layers.iter().all(|m| m.value == 0.0));
        v.emit(END_TO_END, false, &mut checks);
        assert_eq!(checks.failures().len(), END_TO_END.len());
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn a_failed_check_or_op_makes_the_run_incorrect() {
        let mut checks = Checks::default();
        checks.expect(true, || unreachable!());
        assert!(checks.passed());
        checks.expect(false, || "budget".into());
        assert_eq!(checks.failures(), ["budget".to_string()]);
        let r = Report {
            checks,
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
        };
        assert!(r.to_json().starts_with("{\"correct\": false"));
        let r = Report {
            checks: Checks::default(),
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        };
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
