//! Per-tenant circuit breakers (DESIGN.md §12), the admission-side
//! complement of the service's stall watchdog.
//!
//! A tenant whose recent completions keep failing (errors, stalls,
//! exhausted retries) gets fast-rejected at submit until a half-open
//! probe succeeds, keeping a poisoned workload from burning worker time
//! that healthy tenants could use. State is the textbook three-state
//! machine (Closed → Open on trip, Open → HalfOpen after the cooldown,
//! HalfOpen → Closed/Open on the probe's outcome), driven by injectable
//! `Instant`s so tests never sleep.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Per-tenant circuit breaker state. Held under the service's scheduler
/// lock, so all methods take `&mut self` and an injected `now`.
#[derive(Debug)]
pub struct Breaker {
    /// Recent completion outcomes, `true` = failure (bounded ring).
    window: VecDeque<bool>,
    /// Outcomes needed before the failure rate is judged at all.
    capacity: usize,
    state: BreakerState,
    /// Times the breaker has tripped Closed → Open.
    pub trips: u64,
}

#[derive(Debug, PartialEq)]
enum BreakerState {
    /// Healthy: everything admitted.
    Closed,
    /// Tripped: fast-reject until the cooldown expires.
    Open { until: Instant },
    /// Cooldown over, one probe admitted at `since`; its outcome
    /// decides Closed vs. re-Open. A probe that never reports back
    /// (shed, crashed process) goes stale after one more cooldown and
    /// the next admission takes its place — the breaker can never stick
    /// in HalfOpen forever.
    HalfOpen { since: Instant },
}

impl Breaker {
    /// A closed breaker judging failure rates over the last `window`
    /// completions (minimum 1).
    pub fn new(window: usize) -> Self {
        Breaker {
            window: VecDeque::with_capacity(window.max(1)),
            capacity: window.max(1),
            state: BreakerState::Closed,
            trips: 0,
        }
    }

    /// Pure admission check: `Ok(())` would admit, `Err(wait)`
    /// fast-rejects with the remaining cooldown as the caller's retry
    /// hint. Callers that go on to admit must follow up with
    /// [`Breaker::note_admitted`] — the split keeps a submission that
    /// passes the breaker but fails a *later* admission bound (queue
    /// depth) from consuming the probe slot.
    pub fn check(&self, now: Instant, cooldown: Duration) -> Result<(), Duration> {
        match &self.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open { until } => {
                if now >= *until {
                    Ok(()) // probe slot available
                } else {
                    Err(*until - now)
                }
            }
            BreakerState::HalfOpen { since } => {
                let stale_at = *since + cooldown;
                if now >= stale_at {
                    Ok(()) // stale probe; the next admission takes over
                } else {
                    Err(stale_at - now)
                }
            }
        }
    }

    /// Marks one admission. Transitions an expired `Open` (or a stale
    /// `HalfOpen`) into `HalfOpen` with this admission as the probe;
    /// no-op while `Closed`.
    pub fn note_admitted(&mut self, now: Instant, cooldown: Duration) {
        match &self.state {
            BreakerState::Closed => {}
            BreakerState::Open { until } => {
                if now >= *until {
                    self.state = BreakerState::HalfOpen { since: now };
                }
            }
            BreakerState::HalfOpen { since } => {
                if now >= *since + cooldown {
                    self.state = BreakerState::HalfOpen { since: now };
                }
            }
        }
    }

    /// Records one completion outcome. In `Closed`, a full window whose
    /// failure fraction reaches `threshold` trips the breaker open for
    /// `cooldown`. In `HalfOpen`, the outcome is the probe's verdict:
    /// success closes the breaker (window reset), failure re-opens it
    /// for another cooldown. (An outcome of a job admitted *before* the
    /// trip draining in `HalfOpen` is indistinguishable from the probe's
    /// — it is judged the same way, a deliberate simplification.)
    pub fn record(&mut self, failure: bool, now: Instant, threshold: f64, cooldown: Duration) {
        match &self.state {
            BreakerState::Closed => {
                if self.window.len() == self.capacity {
                    self.window.pop_front();
                }
                self.window.push_back(failure);
                if self.window.len() == self.capacity {
                    let failures = self.window.iter().filter(|&&f| f).count();
                    if failures as f64 >= threshold * self.capacity as f64 {
                        self.trip(now, cooldown);
                    }
                }
            }
            BreakerState::HalfOpen { .. } => {
                if failure {
                    self.trip(now, cooldown);
                } else {
                    self.state = BreakerState::Closed;
                    self.window.clear();
                }
            }
            // Outcomes of jobs admitted before the trip may still drain
            // while Open; they carry no new information.
            BreakerState::Open { .. } => {}
        }
    }

    fn trip(&mut self, now: Instant, cooldown: Duration) {
        self.state = BreakerState::Open {
            until: now + cooldown,
        };
        self.trips += 1;
        self.window.clear();
    }

    /// Whether the breaker currently fast-rejects.
    pub fn is_open(&self, now: Instant, cooldown: Duration) -> bool {
        self.check(now, cooldown).is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_secs(1);

    /// `check` then `note_admitted`, the way the service admits.
    fn admit(b: &mut Breaker, now: Instant) -> Result<(), Duration> {
        b.check(now, COOLDOWN)?;
        b.note_admitted(now, COOLDOWN);
        Ok(())
    }

    #[test]
    fn breaker_trips_on_failure_rate_and_recovers_through_a_probe() {
        let t0 = Instant::now();
        let mut b = Breaker::new(4);
        assert!(admit(&mut b, t0).is_ok());
        // Three failures out of four: 0.75 >= 0.5 trips it.
        for f in [true, false, true, true] {
            b.record(f, t0, 0.5, COOLDOWN);
        }
        assert_eq!(b.trips, 1);
        assert!(b.is_open(t0, COOLDOWN));
        let wait = b.check(t0, COOLDOWN).unwrap_err();
        assert!(wait > Duration::ZERO && wait <= COOLDOWN);

        // Cooldown elapses: exactly one probe gets in.
        let t1 = t0 + COOLDOWN + Duration::from_millis(1);
        assert!(admit(&mut b, t1).is_ok(), "the probe");
        assert!(admit(&mut b, t1).is_err(), "only one probe");
        // Probe succeeds: closed again, window reset.
        b.record(false, t1, 0.5, COOLDOWN);
        assert!(!b.is_open(t1, COOLDOWN));
        assert!(admit(&mut b, t1).is_ok());
        // A fresh window is needed before it can trip again.
        b.record(true, t1, 0.5, COOLDOWN);
        assert_eq!(b.trips, 1, "one failure in a fresh window is not a trip");
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let t0 = Instant::now();
        let mut b = Breaker::new(2);
        b.record(true, t0, 0.5, COOLDOWN);
        b.record(true, t0, 0.5, COOLDOWN);
        assert_eq!(b.trips, 1);
        let t1 = t0 + COOLDOWN + Duration::from_millis(1);
        assert!(admit(&mut b, t1).is_ok());
        b.record(true, t1, 0.5, COOLDOWN);
        assert_eq!(b.trips, 2, "failed probe re-trips");
        assert!(b.is_open(t1, COOLDOWN));
        // Outcomes draining while open change nothing.
        b.record(false, t1, 0.5, COOLDOWN);
        assert!(b.is_open(t1, COOLDOWN));
    }

    #[test]
    fn stale_probe_is_superseded_instead_of_wedging_half_open() {
        // A probe that never reports back (shed before running, or the
        // process died) must not hold the breaker in HalfOpen forever.
        let t0 = Instant::now();
        let mut b = Breaker::new(1);
        b.record(true, t0, 0.5, COOLDOWN);
        assert_eq!(b.trips, 1);
        let t1 = t0 + COOLDOWN + Duration::from_millis(1);
        assert!(admit(&mut b, t1).is_ok(), "the probe (then lost)");
        assert!(admit(&mut b, t1).is_err());
        // One more cooldown later the lost probe is written off.
        let t2 = t1 + COOLDOWN + Duration::from_millis(1);
        assert!(admit(&mut b, t2).is_ok(), "replacement probe");
        b.record(false, t2, 0.5, COOLDOWN);
        assert!(!b.is_open(t2, COOLDOWN), "replacement verdict closes it");
    }

    #[test]
    fn under_filled_window_never_trips() {
        let t0 = Instant::now();
        let mut b = Breaker::new(8);
        for _ in 0..7 {
            b.record(true, t0, 0.5, COOLDOWN);
        }
        assert_eq!(b.trips, 0, "seven of eight outcomes is not a verdict");
        b.record(true, t0, 0.5, COOLDOWN);
        assert_eq!(b.trips, 1);
    }
}
