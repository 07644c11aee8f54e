//! # occ-obs — unified tracing and metrics for the flow stack
//!
//! Before this crate, runtime visibility was a patchwork: per-stage
//! flow timings in one ad-hoc struct, kernel counters in another,
//! cache counters in a third — all post-hoc, none live. This crate is
//! the one instrumentation substrate everything reports through:
//!
//! * [`span`] / [`stage_span`] — lightweight RAII tracing spans with
//!   monotonic clocks, parent/child nesting via a thread-local scope,
//!   and fixed-size key=value attributes. A [`SpanRecorder`] collects
//!   records into preallocated shards, so recording a span on a hot
//!   path (a fault-sim batch, a PODEM search phase) allocates nothing.
//!   With no recorder installed on the thread, `span()` is a cheap
//!   no-op — library crates instrument unconditionally and pay only
//!   when someone is watching.
//! * [`metrics`] — the process-wide [`MetricsRegistry`] of typed,
//!   pre-registered counters/gauges/histograms (all atomic, zero-alloc
//!   to bump). [`OccMetrics`] is the full catalog: kernel events,
//!   PODEM decisions, cache hit/miss/evict, queue depth, admission
//!   sheds, per-op request latency. The daemon's `metrics` wire op
//!   renders it as Prometheus text exposition.
//!
//! ## Span example
//!
//! ```
//! use occ_obs::{SpanRecorder, SpanTree};
//!
//! let recorder = SpanRecorder::new();
//! {
//!     let _scope = recorder.install(true); // detail spans on
//!     let _flow = occ_obs::stage_span("flow");
//!     let mut batch = occ_obs::span("fsim.batch");
//!     batch.attr_u64("faults", 128);
//! } // guards drop: records land in the recorder
//! let tree = SpanTree::build(&recorder.records());
//! assert_eq!(tree.roots[0].record.name, "flow");
//! assert_eq!(tree.roots[0].children[0].record.name, "fsim.batch");
//! ```
//!
//! ## Metrics example
//!
//! ```
//! let m = occ_obs::metrics();
//! m.kernel_faults_graded.add(42);
//! assert!(occ_obs::metrics().registry.render().contains("occ_kernel_faults_graded_total"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metric;
mod trace;

pub use metric::{
    metrics, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, OccMetrics,
    CANCEL_CAUSES, DEFAULT_SECONDS_BOUNDS, ERROR_CODES, OPS, SHED_REASONS, STAGE_LABELS,
};
pub use trace::{
    current, detail_enabled, set_alloc_probe, span, stage_span, AttrValue, InstalledScope,
    SpanGuard, SpanNode, SpanRecord, SpanRecorder, SpanTree, MAX_ATTRS,
};
