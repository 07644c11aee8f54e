//! The workspace-level flow error type.
//!
//! Everything that can go wrong between SOC, capture model, procedure
//! construction and ATPG surfaces here as one typed enum — replacing
//! the `expect`/`unwrap`/`panic!` seams the hand-wired pipelines used
//! to have. Written `thiserror`-style by hand (the workspace builds
//! offline, so no derive crates).

use occ_core::ClockingMode;
use occ_fault::FaultModel;
use occ_fsim::{CancelCause, ModelError};
use std::error::Error;
use std::fmt;

/// Error raised while configuring or running a [`TestFlow`].
///
/// [`TestFlow`]: crate::TestFlow
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The capture model declares no clock domains — nothing can be
    /// pulsed, so no capture procedure exists.
    NoDomains,
    /// The design has no scan flops (no chains were inserted, or every
    /// flop was skipped): capture patterns cannot be loaded or
    /// unloaded.
    NoScanChains,
    /// A sharded engine was requested with zero worker threads.
    ZeroThreads,
    /// The clocking mode cannot provide the capture procedures the
    /// requested fault model needs (e.g. a single-pulse external clock
    /// for transition tests, which require launch + capture).
    UnsupportedClocking {
        /// The offending mode.
        mode: ClockingMode,
        /// The fault model that was requested.
        fault_model: FaultModel,
        /// Why the combination cannot work.
        reason: &'static str,
    },
    /// Binding the netlist into a capture model failed.
    Model(ModelError),
    /// The lint stage found error-severity design-rule violations and
    /// the flow was configured with the `deny` gate.
    LintDenied {
        /// Number of error-severity diagnostics.
        errors: usize,
        /// The first error diagnostic, rendered.
        first: String,
    },
    /// An embedded pattern source (EDT or LBIST) was requested on a
    /// bare-model flow: those sources are defined in terms of the
    /// SOC's scan-chain architecture, which `TestFlow::model` does not
    /// carry.
    PatternSourceNeedsSoc {
        /// The requested source's label (`edt` / `lbist`).
        source: &'static str,
    },
    /// An explicit [`EdtConfig`](occ_dft::EdtConfig) disagrees with
    /// the SOC's actual scan geometry (leave `chains` at 0 to let the
    /// flow derive the geometry).
    EdtGeometryMismatch {
        /// Chains/shift length the config claims.
        config: (usize, usize),
        /// Chains/shift length the design actually has.
        design: (usize, usize),
    },
    /// An [`EdtConfig`](occ_dft::EdtConfig) asks for no scan channels,
    /// or for more channels than the design has chains: every channel
    /// feeds at least one chain.
    EdtChannelCount {
        /// Channels the config asks for.
        channels: usize,
        /// Scan chains the design has.
        chains: usize,
    },
    /// The flow's [`CancelToken`] was cancelled explicitly (a draining
    /// server abandoning in-flight work); all partial state was
    /// discarded.
    ///
    /// [`CancelToken`]: occ_fsim::CancelToken
    Cancelled,
    /// The flow's deadline budget expired before the run completed; all
    /// partial state was discarded.
    DeadlineExceeded,
    /// A failure outside the flow's own validation — e.g. an artifact
    /// build failing in a serving layer, or an injected fault in a
    /// chaos test. The message says what broke.
    Internal(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::NoDomains => {
                f.write_str("capture model declares no clock domains; nothing can be pulsed")
            }
            FlowError::NoScanChains => f.write_str(
                "design has no scan flops; capture patterns cannot be loaded or unloaded",
            ),
            FlowError::ZeroThreads => {
                f.write_str("sharded fault-sim engine requires at least one worker thread")
            }
            FlowError::UnsupportedClocking {
                mode,
                fault_model,
                reason,
            } => {
                let fm = match fault_model {
                    FaultModel::StuckAt => "stuck-at",
                    FaultModel::Transition => "transition",
                };
                write!(
                    f,
                    "clocking mode '{mode}' cannot drive {fm} test generation: {reason}"
                )
            }
            FlowError::Model(e) => write!(f, "capture model binding failed: {e}"),
            FlowError::LintDenied { errors, first } => write!(
                f,
                "lint denied the flow: {errors} error-severity violation(s), first: {first}"
            ),
            FlowError::PatternSourceNeedsSoc { source } => write!(
                f,
                "pattern source '{source}' needs a SOC flow (scan-chain \
                 architecture); bare-model flows only support external ATPG"
            ),
            FlowError::EdtGeometryMismatch { config, design } => write!(
                f,
                "EDT config geometry ({} chains x {} cycles) does not match \
                 the design ({} chains x {} cycles); set chains to 0 to derive it",
                config.0, config.1, design.0, design.1
            ),
            FlowError::EdtChannelCount { channels, chains } => write!(
                f,
                "EDT config asks for {channels} scan channel(s); the design's \
                 {chains} chain(s) allow 1..={chains}"
            ),
            FlowError::Cancelled => f.write_str("flow cancelled before completion"),
            FlowError::DeadlineExceeded => f.write_str("flow deadline exceeded before completion"),
            FlowError::Internal(message) => write!(f, "internal failure: {message}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for FlowError {
    fn from(e: ModelError) -> Self {
        FlowError::Model(e)
    }
}

impl From<CancelCause> for FlowError {
    fn from(cause: CancelCause) -> Self {
        match cause {
            CancelCause::Cancelled => FlowError::Cancelled,
            CancelCause::DeadlineExceeded => FlowError::DeadlineExceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FlowError::UnsupportedClocking {
            mode: ClockingMode::ExternalClock { max_pulses: 1 },
            fault_model: FaultModel::Transition,
            reason: "transition tests need launch + capture pulses",
        };
        let msg = e.to_string();
        assert!(msg.contains("transition"), "{msg}");
        assert!(msg.contains("launch + capture"), "{msg}");
        assert!(FlowError::ZeroThreads.to_string().contains("worker thread"));
    }
}
