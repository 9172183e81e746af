//! Engine-wide observability: structured event tracing, a per-level
//! metrics registry, and report formatting helpers.
//!
//! The paper's evaluation is an exercise in *attribution* — Fig 1 ties
//! user-visible latency spikes to background compaction, Table 1 splits
//! compaction time into read/merge/write phases, and Figs 10/12 account
//! for who moved which bytes. This crate gives every layer of the stack
//! a shared vocabulary for those questions:
//!
//! * [`Event`] / [`EventKind`] — one record per background action
//!   (flush, merge, link, stall, GC, ...) with virtual-clock timestamps,
//!   levels, byte/file counts, and per-phase durations.
//! * [`EventSink`] — where events go. [`NoopSink`] (zero-cost when
//!   tracing is off), [`RingBufferSink`] (bounded, drop-oldest,
//!   in-memory), and [`JsonlSink`] (line-delimited JSON for offline
//!   analysis).
//! * [`MetricsRegistry`] — log-linear latency histograms and blame totals
//!   per operation type, plus the few counters recorded below the engine
//!   (transient retries, scrub coverage); [`LevelGauge`] is the per-level
//!   value (files, bytes, compaction score) the engine computes on request.
//! * [`TraceCtx`] / [`Blame`] / [`TraceReservoir`] — per-request span
//!   trees with a blame taxonomy attributing every nanosecond of an op's
//!   latency to one bucket, plus the deterministic worst-K reservoir
//!   behind `ldc-bench tail` / `trace-report`.
//!
//! This crate is dependency-free (std only) so every other crate in the
//! workspace — including `ldc-ssd` at the bottom of the stack — can
//! depend on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod lockcheck;

mod event;
mod json;
mod metrics;
mod sink;
mod trace;

pub use event::{Event, EventKind, Nanos};
pub use metrics::{DegradedCounters, LatencyHistogram, LevelGauge, MetricsRegistry, OpType};
pub use sink::{parse_jsonl, JsonlSink, NoopSink, RingBufferSink, SharedSink};
pub use trace::{Blame, Span, Trace, TraceCtx, TraceReservoir};

/// The sink trait: where [`Event`]s are delivered.
///
/// Implementations must be cheap to call concurrently. Hot paths are
/// expected to gate event *construction* on [`EventSink::enabled`], so
/// a disabled sink costs one virtual call and no allocation:
///
/// ```
/// use ldc_obs::{Event, EventKind, EventSink, NoopSink};
/// let sink = NoopSink;
/// if sink.enabled() {
///     sink.record(Event::span(EventKind::Flush, 0, 10));
/// }
/// ```
pub trait EventSink: Send + Sync {
    /// Whether this sink wants events at all. `false` lets callers skip
    /// building the [`Event`] entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Delivers one event.
    fn record(&self, event: Event);
}
