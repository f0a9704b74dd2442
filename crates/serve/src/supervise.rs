//! Runtime supervision: the stall watchdog and per-tenant circuit
//! breakers (DESIGN.md §12).
//!
//! Cancellation in this workspace is cooperative — a run that stops
//! ticking its commit boundaries (a wedged evaluator, a deadlocked
//! downstream call, the injected
//! [`FaultKind::StallForever`](pgs_core::fault::FaultKind::StallForever))
//! holds its worker forever when no deadline is set, and a deadline
//! cannot distinguish *slow* from *stuck*. The [`Supervisor`] can:
//! engines stamp a shared heartbeat at group granularity in evaluate
//! and commit (through
//! [`RunControl::beat`](pgs_core::api::RunControl::beat)), so a
//! heartbeat whose *value* has not changed for longer than the stall
//! timeout is evidence the run is wedged, however long its iterations
//! are. The supervisor then escalates to the run's cancel flag and marks
//! it stalled; the worker publishes the partial result as
//! [`StopReason::Stalled`](pgs_core::api::StopReason::Stalled) through
//! the existing isolation path, and the pool never wedges.
//!
//! The [`Breaker`] is the admission-side complement: a tenant whose
//! recent completions keep failing (errors, stalls, exhausted retries)
//! gets fast-rejected at submit until a half-open probe succeeds,
//! keeping a poisoned workload from burning worker time that healthy
//! tenants could use. State is the textbook three-state machine
//! (Closed → Open on trip, Open → HalfOpen after the cooldown, HalfOpen
//! → Closed/Open on the probe's outcome), driven by injectable `Instant`s
//! so tests never sleep.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One supervised run: where its liveness shows, how to kill it, where
/// to record the verdict.
struct Watch {
    heartbeat: Arc<AtomicU64>,
    cancel: Arc<AtomicBool>,
    stalled: Arc<AtomicBool>,
    last_value: u64,
    last_change: Instant,
}

/// Callback invoked with a job id right after the watchdog flags it
/// stalled (and before anything else observes the cancellation) — the
/// serving layer hangs its stall-forensics capture here.
pub type OnStall = Arc<dyn Fn(u64) + Send + Sync>;

struct Shared {
    watches: Mutex<BTreeMap<u64, Watch>>,
    shutdown: Mutex<bool>,
    cv: Condvar,
    /// Stall-escalation hook, installed once after construction (the
    /// service needs its own `Arc` built before it can capture it).
    on_stall: Mutex<Option<OnStall>>,
}

/// The stall watchdog: a single thread ticking at a quarter of the
/// stall timeout, comparing each watched run's heartbeat against the
/// value it saw last. A run whose heartbeat value is unchanged for
/// `stall_timeout` or longer is flagged (its `stalled` marker set, its
/// cancel flag raised) exactly once. Dropping the supervisor joins the
/// thread.
pub struct Supervisor {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Spawns the watchdog thread with the given stall timeout.
    pub fn new(stall_timeout: Duration) -> Self {
        let shared = Arc::new(Shared {
            watches: Mutex::new(BTreeMap::new()),
            shutdown: Mutex::new(false),
            cv: Condvar::new(),
            on_stall: Mutex::new(None),
        });
        let tick = (stall_timeout / 4).max(Duration::from_millis(1));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("pgs-watchdog".into())
            .spawn(move || watchdog_loop(&thread_shared, stall_timeout, tick))
            // pgs-allow: PGS004 OS thread exhaustion at construction is unrecoverable
            .expect("spawning watchdog");
        Supervisor {
            shared,
            handle: Some(handle),
        }
    }

    /// Registers a run under `id`. The heartbeat is considered live as
    /// of now; the first stall verdict cannot come before one full
    /// timeout has elapsed with the value frozen.
    pub fn watch(
        &self,
        id: u64,
        heartbeat: Arc<AtomicU64>,
        cancel: Arc<AtomicBool>,
        stalled: Arc<AtomicBool>,
    ) {
        let last_value = heartbeat.load(Ordering::Relaxed);
        self.shared.watches.lock().unwrap().insert(
            id,
            Watch {
                heartbeat,
                cancel,
                stalled,
                last_value,
                last_change: Instant::now(),
            },
        );
    }

    /// Deregisters a run (its worker finished with it). Idempotent.
    pub fn unwatch(&self, id: u64) {
        self.shared.watches.lock().unwrap().remove(&id);
    }

    /// Installs the stall-escalation hook: called with each flagged
    /// job's id, outside the watch-table lock, at most once per job.
    /// Replaces any previously installed hook.
    pub fn set_on_stall(&self, hook: OnStall) {
        *self.shared.on_stall.lock().unwrap() = Some(hook);
    }

    /// Runs currently under watch.
    pub fn watching(&self) -> usize {
        self.shared.watches.lock().unwrap().len()
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        *self.shared.shutdown.lock().unwrap() = true;
        self.shared.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn watchdog_loop(shared: &Shared, stall_timeout: Duration, tick: Duration) {
    loop {
        {
            let mut down = shared.shutdown.lock().unwrap();
            while !*down {
                let (guard, timed_out) = shared.cv.wait_timeout(down, tick).unwrap();
                down = guard;
                if timed_out.timed_out() {
                    break;
                }
            }
            if *down {
                return;
            }
        }
        let now = Instant::now();
        let mut flagged = Vec::new();
        {
            let mut watches = shared.watches.lock().unwrap();
            for (&id, watch) in watches.iter_mut() {
                let value = watch.heartbeat.load(Ordering::Relaxed);
                if value != watch.last_value {
                    watch.last_value = value;
                    watch.last_change = now;
                } else if now.duration_since(watch.last_change) >= stall_timeout
                    && !watch.stalled.swap(true, Ordering::Relaxed)
                {
                    // Escalation: mark first, then cancel — the worker
                    // that observes the cancel must already see the
                    // verdict. The hook runs after the flag lands but
                    // outside the watch-table lock (it may take the
                    // service's own locks).
                    watch.cancel.store(true, Ordering::Relaxed);
                    flagged.push(id);
                }
            }
        }
        if !flagged.is_empty() {
            let hook = shared.on_stall.lock().unwrap().clone();
            if let Some(hook) = hook {
                for id in flagged {
                    hook(id);
                }
            }
        }
    }
}

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

    #[test]
    fn watchdog_flags_a_frozen_heartbeat_and_spares_a_live_one() {
        let sup = Supervisor::new(Duration::from_millis(40));
        let frozen = Arc::new(AtomicU64::new(0));
        let frozen_cancel = Arc::new(AtomicBool::new(false));
        let frozen_stalled = Arc::new(AtomicBool::new(false));
        sup.watch(
            1,
            Arc::clone(&frozen),
            Arc::clone(&frozen_cancel),
            Arc::clone(&frozen_stalled),
        );
        let live = Arc::new(AtomicU64::new(0));
        let live_cancel = Arc::new(AtomicBool::new(false));
        let live_stalled = Arc::new(AtomicBool::new(false));
        sup.watch(
            2,
            Arc::clone(&live),
            Arc::clone(&live_cancel),
            Arc::clone(&live_stalled),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while !frozen_stalled.load(Ordering::Relaxed) && Instant::now() < deadline {
            live.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(frozen_stalled.load(Ordering::Relaxed), "frozen run flagged");
        assert!(frozen_cancel.load(Ordering::Relaxed), "escalated to cancel");
        assert!(!live_stalled.load(Ordering::Relaxed), "live run untouched");
        assert!(!live_cancel.load(Ordering::Relaxed));
        sup.unwatch(1);
        sup.unwatch(2);
        assert_eq!(sup.watching(), 0);
    }

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
