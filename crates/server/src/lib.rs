//! # occ-server — the concurrent TestFlow job service
//!
//! The flow crate made one pipeline run cheap to *express*; this crate
//! makes many runs cheap to *execute*. Production test generation is a
//! job stream — the same design swept across clocking modes, the same
//! mode across design revisions, many engineers against one compute
//! budget — and the per-job cost outside ATPG proper that repeats is
//! recompiling a design that has not changed: the netlist and its
//! levelized simulation graph.
//!
//! Three layers, each usable on its own:
//!
//! * [`ArtifactCache`] — sharded, byte-budgeted, content-addressed:
//!   compiled designs keyed by the stable FNV-1a [`design_hash`] of
//!   their generator config, handed out as `Arc` clones, concurrent
//!   builds of one key deduplicated via per-shard condvars, LRU
//!   eviction that can never invalidate an in-flight job (it holds its
//!   own `Arc`).
//! * [`FlowService`] — the in-process API: [`FlowService::submit`]
//!   runs one [`JobSpec`] against the cache and returns a
//!   [`JobOutcome`] whose report is **byte-identical** to a cold
//!   in-process run — warm jobs compile no design
//!   ([`TestFlow::graph`](occ_flow::TestFlow::graph) hands the cached
//!   graph to the bind stage). `occ-bench`'s Table-1 sweep and the
//!   `delay_test_flow` example ride this directly.
//! * [`serve`] — the daemon: newline-delimited JSON over TCP
//!   ([`proto`] documents the line format), a fixed [`JobPool`] worker
//!   budget shared by all connections, typed protocol errors built on
//!   [`FlowError`](occ_flow::FlowError).
//!
//! The daemon is built to degrade, not collapse: per-job deadlines and
//! cooperative cancellation (`deadline_ms` → a
//! [`CancelToken`](occ_flow::CancelToken) checked at every flow stage
//! and inside the ATPG/fault-sim batch loops), admission control that
//! sheds load with a typed `overloaded` + `retry_after_ms` hint before
//! queues grow unbounded, bounded request framing, and a graceful
//! drain (`shutdown` finishes queued jobs under a deadline while new
//! work draws `shutting-down`). The [`faults`] module provides the
//! seeded, deterministic fault-injection plan the chaos suite and the
//! degraded-mode bench use to prove all of this; [`request_with_retry`]
//! is the matching client-side retry/backoff contract.
//!
//! ## Example
//!
//! ```
//! use occ_server::{FlowService, JobSpec};
//! use occ_soc::SocConfig;
//! use occ_atpg::AtpgOptions;
//!
//! let service = FlowService::new(0);
//! let mut job = JobSpec::new(SocConfig::tiny(1));
//! job.clocking = occ_core::ClockingMode::SimpleCpf;
//! job.atpg = AtpgOptions { random_patterns: 32, backtrack_limit: 12,
//!                          ..AtpgOptions::default() };
//! let cold = service.submit(&job).unwrap();
//! let warm = service.submit(&job).unwrap();
//! assert!(!cold.warm && warm.warm);
//! let (a, b) = (cold.report.unwrap(), warm.report.unwrap());
//! assert_eq!(a.coverage, b.coverage);
//! assert_eq!(a.result.patterns.patterns(), b.result.patterns.patterns());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod design;
pub mod faults;
pub mod hash;
pub mod pool;
pub mod proto;
pub mod server;
mod service;

pub use cache::{ArtifactCache, CacheStats, KindCounters, SHARDS};
pub use design::{design_hash, DesignArtifact};
pub use faults::{cooperative_delay, FaultAction, FaultPlan, Trigger};
pub use hash::{hex, Fnv64};
/// The workspace's JSON value type, which every reply line renders
/// through — re-exported from [`occ_flow`].
pub use occ_flow::{Json, JsonError};
pub use pool::JobPool;
pub use proto::{
    error_line, health_line, job_line, parse_request, run_job, run_job_with_cancel, stats_line,
    ProtoError, ReportFormat, Request,
};
pub use server::{request, request_with_retry, serve, RetryPolicy, ServerConfig, ServerHandle};
pub use service::{DesignAnalysis, FlowService, JobCacheStats, JobOutcome, JobSpec};
