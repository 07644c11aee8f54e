//! # occ-flow — the unified `TestFlow` pipeline
//!
//! The paper's Table 1 is produced by one repeated pipeline — generate
//! a SOC, insert scan, pick a clocking mode (external / simple CPF /
//! enhanced CPF), build capture procedures, run ATPG, fault-simulate,
//! report coverage. This crate is the single orchestration surface for
//! that pipeline:
//!
//! * [`TestFlow`] — the builder: source (SOC or custom netlist),
//!   clocking mode, fault model, engine, ATPG options, one `run()`;
//! * [`EngineChoice`] — pluggable fault-sim engines (serial / sharded /
//!   auto) behind the [`occ_fsim::FaultSimEngine`] trait, guaranteed
//!   bit-identical results;
//! * [`FlowReport`] — per-stage timings, ATPG stats, coverage report,
//!   pattern counts, std-only JSON/CSV serialization;
//! * [`Json`] — the workspace's one JSON value type: parser and the
//!   writer every report, wire reply and bench baseline renders
//!   through;
//! * [`FlowError`] — typed errors for every misconfiguration the
//!   hand-wired pipelines used to panic on: zero clock domains,
//!   missing scan chains, zero worker threads, clocking modes that
//!   cannot produce the requested procedures, model-binding failures.
//!
//! ## Example
//!
//! The full pipeline on a small seeded SOC, comparing the serial and
//! sharded engines (whose reports are equal by construction):
//!
//! ```
//! use occ_flow::{EngineChoice, FaultKind, TestFlow};
//! use occ_core::ClockingMode;
//! use occ_atpg::AtpgOptions;
//! use occ_soc::{generate, SocConfig};
//!
//! # fn main() -> Result<(), occ_flow::FlowError> {
//! let soc = generate(&SocConfig::tiny(1));
//! let quick = AtpgOptions {
//!     random_patterns: 32,
//!     backtrack_limit: 12,
//!     ..AtpgOptions::default()
//! };
//! let report = TestFlow::new(&soc)
//!     .clocking(ClockingMode::SimpleCpf)
//!     .fault_model(FaultKind::Transition)
//!     .engine(EngineChoice::Sharded { threads: 2 })
//!     .mask_bidi(true)
//!     .atpg(quick)
//!     .run()?;
//! assert!(report.coverage_pct() > 0.0);
//! assert_eq!(report.threads, 2);
//! assert!(report.to_json().contains("\"clocking\":\"simple-cpf\""));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod engine;
mod error;
mod json;
mod procedures;
mod report;
mod source;
mod timing;

pub use builder::TestFlow;
pub use engine::{EngineChoice, ParseEngineChoiceError};
pub use error::FlowError;
pub use json::{Json, JsonError};
pub use procedures::build_procedures;
pub use report::{FlowReport, LintBlock, Stage, StageTiming, TraceBlock};
pub use source::{PatternSource, PatternSourceBlock};
pub use timing::{TimingConfig, DEFAULT_DOMAIN_PERIOD_PS};

/// Embedded pattern-source configurations accepted by
/// [`TestFlow::pattern_source`] — re-exported from [`occ_bist`] and
/// [`occ_dft`].
pub use occ_bist::BistConfig;
pub use occ_dft::EdtConfig;

/// Delay-test-quality types every timed [`FlowReport`] carries —
/// re-exported from [`occ_timing`].
pub use occ_timing::{ProcWindow, QualityOptions, QualityReport};

/// Static design-rule / testability lint types the pre-ATPG
/// [`Stage::Lint`] stage produces — re-exported from [`occ_lint`].
pub use occ_lint::{
    Diagnostic, LintGate, LintReport, Linter, ParseLintGateError, RuleId, Severity,
};

/// The fault model a flow targets — re-exported from [`occ_fault`]
/// under the name the builder API uses
/// (`.fault_model(FaultKind::Transition)`).
pub use occ_fault::FaultModel as FaultKind;

/// Compiled fault-sim kernel statistics — re-exported from
/// [`occ_fsim`] because every [`FlowReport`] carries one.
pub use occ_fsim::KernelStats;

/// Cooperative cancellation handle (and its trip cause) accepted by
/// [`TestFlow::cancel`] — re-exported from [`occ_fsim`].
pub use occ_fsim::{CancelCause, CancelToken};

/// ATPG kernel statistics (decisions, backtracks, value-engine events,
/// incremental re-simulations) — re-exported from [`occ_atpg`] because
/// every [`FlowReport`] carries one.
pub use occ_atpg::AtpgKernelStats;

/// Span-tracing types a traced [`FlowReport`] carries in its
/// [`TraceBlock`] — re-exported from [`occ_obs`].
pub use occ_obs::{SpanNode, SpanRecord, SpanRecorder, SpanTree};
