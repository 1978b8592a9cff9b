//! # qb-obs
//!
//! Zero-dependency observability for the qborrow verify stack:
//!
//! * **Spans** ([`span`]) — hierarchical regions (sweep → target →
//!   condition root → backend call → solver phase) recorded into a
//!   lock-free per-thread ring buffer with monotonic timestamps. Tracing
//!   is off by default; a disabled span site costs one relaxed atomic
//!   load, so instrumented hot paths stay free.
//! * **Metrics** ([`counter_add`], [`observe_ns`], [`Histogram`]) —
//!   labelled counters and log-bucketed latency histograms with merge
//!   support; always on, written only at coarse points.
//! * **Exporters** — [`chrome_trace`] renders spans as Chrome
//!   trace-event JSON (loadable in Perfetto / `chrome://tracing`);
//!   [`prometheus_text`] renders a metrics snapshot in the Prometheus
//!   text exposition format.
//!
//! # Examples
//!
//! ```
//! qb_obs::set_enabled(true);
//! {
//!     let _sweep = qb_obs::span("sweep", "demo");
//!     let _target = qb_obs::span("target", "q0");
//! }
//! qb_obs::set_enabled(false);
//! let spans = qb_obs::take_spans();
//! assert_eq!(spans.len(), 2);
//! let json = qb_obs::chrome_trace(&spans);
//! assert!(json.contains("\"traceEvents\""));
//! ```

mod export;
mod hist;
mod metrics;
mod recorder;
mod span;
mod timeseries;

pub use export::{chrome_trace, prometheus_text};
pub use hist::{Histogram, HIST_BUCKETS};
pub use metrics::{
    counter_add, gauge_set, metrics_snapshot, observe_ns, reset_metrics, MetricsSnapshot,
};
pub use recorder::{ExemplarReason, FlightRecorder, RecordedRequest, DEFAULT_RECORDER_CAPACITY};
pub use span::{
    dropped_spans, enabled, flush_thread_spans, now_ns, set_enabled, set_ring_capacity, span,
    span_with, take_all_spans, take_spans, Span, SpanEvent,
};
pub use timeseries::{TimePoint, TimeSeries};
