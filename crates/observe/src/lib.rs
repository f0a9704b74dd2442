//! # pgs-observe — live observability primitives
//!
//! The instrumentation layer DESIGN.md §14 documents: everything the
//! serving stack and the engines need to expose what they are doing
//! *while* they are doing it, without perturbing determinism or paying
//! for observability nobody is consuming.
//!
//! * [`Registry`] — a lock-light metrics registry of typed
//!   [`Counter`]s and [`Gauge`]s (one relaxed atomic each) and
//!   fixed-bucket [`Histogram`]s. The registry mutex is
//!   touched only on handle creation and snapshot; the hot update paths
//!   are a single relaxed `fetch_add` on a pre-bound handle.
//! * [`EventJournal`] — a bounded ring of structured job-lifecycle
//!   [`Event`]s (admitted → queued → running → checkpointed →
//!   retried / stalled / completed), with an optional NDJSON file sink
//!   for tailing. The ring is the stall-forensics "second tier": the
//!   watchdog snapshots the tail before escalating to cancel.
//! * [`Json`] — the minimal JSON value parser the `pgs top` report and
//!   the CI shape checks use to read metric dumps back (the workspace
//!   is offline and serde-free; all JSON is hand-rolled).
//!
//! Determinism boundary: nothing in this crate is read by engine code —
//! metrics and events are strictly write-only from the summarization
//! path, and every timing they carry lives outside the byte-identity
//! contract (DESIGN.md §14).

pub mod events;
pub mod json;
pub mod metrics;

pub use events::{Event, EventJournal, EventKind};
pub use json::{push_json_string, Json};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsValues, Registry, LATENCY_BOUNDS_US,
};
