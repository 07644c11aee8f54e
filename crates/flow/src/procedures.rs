//! The flow's procedures stage: the named capture procedures a
//! clocking mode can physically deliver for a fault model.

use crate::FlowError;
use occ_core::{stuck_at_procedures, transition_procedures, ClockingMode};
use occ_fault::FaultModel;
use occ_fsim::FrameSpec;

/// Validates the clocking/fault-model combination and builds the
/// capture procedures — the flow's procedures stage, exported so tools
/// that re-assemble the pipeline from its layers build the same set.
///
/// # Errors
///
/// Returns [`FlowError::UnsupportedClocking`] when the mode cannot
/// physically deliver the procedures the fault model needs (fewer
/// pulses than a launch + capture pair, or no procedures at all).
///
/// # Examples
///
/// ```
/// use occ_core::ClockingMode;
/// use occ_flow::{build_procedures, FaultKind};
///
/// let procs = build_procedures(ClockingMode::SimpleCpf, FaultKind::Transition, 2).unwrap();
/// assert!(!procs.is_empty());
/// assert!(build_procedures(
///     ClockingMode::ExternalClock { max_pulses: 1 },
///     FaultKind::Transition,
///     2
/// )
/// .is_err());
/// ```
pub fn build_procedures(
    mode: ClockingMode,
    fault_model: FaultModel,
    n_domains: usize,
) -> Result<Vec<FrameSpec>, FlowError> {
    let unsupported = |reason: &'static str| FlowError::UnsupportedClocking {
        mode,
        fault_model,
        reason,
    };
    let max_pulses = match mode {
        ClockingMode::ExternalClock { max_pulses }
        | ClockingMode::EnhancedCpf { max_pulses }
        | ClockingMode::ConstrainedExternal { max_pulses } => max_pulses,
        ClockingMode::SimpleCpf => 2,
    };
    let procedures = match fault_model {
        FaultModel::Transition if max_pulses < 2 => {
            return Err(unsupported(
                "transition tests need launch + capture pulses (max_pulses >= 2)",
            ))
        }
        FaultModel::StuckAt if max_pulses < 1 => {
            return Err(unsupported(
                "stuck-at tests need at least one capture pulse",
            ))
        }
        FaultModel::Transition => transition_procedures(mode, n_domains),
        FaultModel::StuckAt => stuck_at_procedures(mode, n_domains),
    };
    if procedures.is_empty() {
        return Err(unsupported("the mode yields no capture procedures"));
    }
    Ok(procedures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procedure_builder_matches_modes() {
        let p = build_procedures(
            ClockingMode::EnhancedCpf { max_pulses: 4 },
            FaultModel::Transition,
            2,
        )
        .unwrap();
        assert!(p.len() > 1);
        let err = build_procedures(
            ClockingMode::ExternalClock { max_pulses: 0 },
            FaultModel::StuckAt,
            2,
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::UnsupportedClocking { .. }));
    }
}
