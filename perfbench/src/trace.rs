//! In-memory spans recorded around calls into the workspace's public
//! functions, and the self-time arithmetic over them.
//!
//! A span carries a name (the per-layer metric stem), start and end in
//! seconds since the tracer's epoch, its parent span, and the op it
//! belongs to. Spans stay in memory and are reduced once, when the run
//! ends. A span's self time is its duration minus the part of its
//! interval that its children cover; over one op the self times sum to
//! the op's wall time exactly when children nest inside their parents
//! and siblings do not overlap, and the closure error measures how far
//! a recorded tree is from that.

use std::time::Instant;

use crate::stats::median;

/// Largest closure error accepted for any traced op: its self times
/// must sum to its wall time within this share of the wall time.
pub const CLOSURE_TOLERANCE: f64 = 0.01;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Metric stem, e.g. `engine.evaluate`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u32,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<usize>,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch.
    pub end: f64,
}

impl Span {
    /// Length of the interval in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An append-only span log.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Sets the end of a span recorded before its extent was known.
    pub fn close(&mut self, span: usize, end: f64) {
        self.spans[span].end = end;
    }

    /// Records `durations` as consecutive children of `parent`, laid out
    /// from the parent's start. Used for the engine phases, which the
    /// engine reports as durations rather than intervals.
    pub fn record_sequence(&mut self, parent: usize, durations: &[(&'static str, f64)]) {
        let (op, mut t) = (self.spans[parent].op, self.spans[parent].start);
        for &(name, d) in durations {
            self.record(name, op, Some(parent), t, t + d);
            t += d;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| s.duration() - union_length(&mut iv))
        .collect()
}

/// Total length covered by a set of intervals.
fn union_length(iv: &mut [(f64, f64)]) -> f64 {
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in iv.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Per op, in op order: `(op, root wall time, sum of self times)`.
/// Ops without exactly one root span are skipped.
pub fn closure(spans: &[Span]) -> Vec<(u32, f64, f64)> {
    let selfs = self_times(spans);
    let mut ops: Vec<u32> = spans.iter().map(|s| s.op).collect();
    ops.sort_unstable();
    ops.dedup();
    ops.into_iter()
        .filter_map(|op| {
            let mut roots = spans.iter().filter(|s| s.op == op && s.parent.is_none());
            let root = roots.next()?;
            if roots.next().is_some() {
                return None;
            }
            let sum = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.op == op)
                .map(|(_, t)| t)
                .sum();
            Some((op, root.duration(), sum))
        })
        .collect()
}

/// Largest relative closure error over all ops (0 when nothing was
/// traced).
pub fn max_closure_error(spans: &[Span]) -> f64 {
    closure(spans)
        .into_iter()
        .map(|(_, wall, sum)| {
            if wall > 0.0 {
                (sum - wall).abs() / wall
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max)
}

/// Per-op totals of the spans named `name` (inclusive, or self time
/// with `self_only`), for every op that has at least one such span.
pub fn per_op_totals(spans: &[Span], name: &str, self_only: bool) -> Vec<f64> {
    let selfs = self_times(spans);
    let mut totals: Vec<(u32, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(&selfs) {
        if s.name != name {
            continue;
        }
        let v = if self_only { *t } else { s.duration() };
        match totals.iter_mut().find(|(op, _)| *op == s.op) {
            Some((_, acc)) => *acc += v,
            None => totals.push((s.op, v)),
        }
    }
    totals.into_iter().map(|(_, v)| v).collect()
}

/// Median over ops of the per-op inclusive total of `name`, in ms.
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    median(&per_op_totals(spans, name, false)) * 1e3
}

/// Median over ops of the per-op self time of `name`, in ms.
pub fn median_self_ms(spans: &[Span], name: &str) -> f64 {
    median(&per_op_totals(spans, name, true)) * 1e3
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(children: &[(f64, f64)]) -> Vec<Span> {
        let mut t = Tracer::new();
        let root = t.record("op", 0, None, 0.0, 10.0);
        for &(a, b) in children {
            t.record("child", 0, Some(root), a, b);
        }
        t.spans().to_vec()
    }

    #[test]
    fn nested_children_close_exactly() {
        let mut t = Tracer::new();
        let root = t.record("op", 7, None, 0.0, 10.0);
        let run = t.record("engine.run", 7, Some(root), 1.0, 9.0);
        t.record_sequence(run, &[("engine.candidates", 1.0), ("engine.evaluate", 5.0)]);
        let spans = t.spans();
        let selfs = self_times(spans);
        assert_eq!(selfs, vec![2.0, 2.0, 1.0, 5.0]);
        assert_eq!(spans[3].start, 2.0);
        assert_eq!(closure(spans), vec![(7, 10.0, 10.0)]);
        assert_eq!(max_closure_error(spans), 0.0);
        assert_eq!(median_self_ms(spans, "engine.run"), 2000.0);
        assert_eq!(median_ms(spans, "engine.run"), 8000.0);
    }

    #[test]
    fn overlapping_siblings_are_counted_once_in_the_parent_only() {
        let spans = tree(&[(1.0, 4.0), (3.0, 6.0)]);
        let selfs = self_times(&spans);
        // The parent loses the 5 s union; each child keeps its own 3 s.
        assert_eq!(selfs, vec![5.0, 3.0, 3.0]);
        assert!((max_closure_error(&spans) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_child_outside_its_parent_shows_as_closure_error() {
        let spans = tree(&[(8.0, 12.0)]);
        assert_eq!(self_times(&spans), vec![8.0, 4.0]);
        assert!((max_closure_error(&spans) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn per_op_totals_sum_repeated_spans_within_an_op() {
        let mut t = Tracer::new();
        for op in 0..3u32 {
            let root = t.record("op", op, None, 0.0, 10.0);
            t.record("queries.rwr", op, Some(root), 0.0, 1.0 + f64::from(op));
            t.record("queries.rwr", op, Some(root), 5.0, 6.0);
        }
        assert_eq!(
            per_op_totals(t.spans(), "queries.rwr", false),
            vec![2.0, 3.0, 4.0]
        );
        assert_eq!(count(t.spans(), "queries.rwr"), 6);
        assert_eq!(median_ms(t.spans(), "missing"), 0.0);
    }
}
