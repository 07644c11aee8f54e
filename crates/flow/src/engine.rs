//! Engine selection: how many workers a flow grades faults on. Every
//! choice grades on the sharded [`occ_fsim::ParallelFaultSim`]; test
//! generation always runs the compiled [`occ_atpg::CompiledPodem`].

use crate::FlowError;
use std::fmt;
use std::str::FromStr;

/// How many workers a [`TestFlow`](crate::TestFlow) grades faults on.
/// All choices produce bit-identical results; they differ only in how
/// the grading work is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// One thread: no pool, every batch graded inline on the calling
    /// thread.
    #[default]
    Serial,
    /// The sharded engine with an explicit worker count.
    Sharded {
        /// Worker threads (must be at least 1).
        threads: usize,
    },
    /// The sharded engine using all available hardware parallelism.
    Auto,
}

impl EngineChoice {
    /// Resolves the concrete worker-thread count.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::ZeroThreads`] for `Sharded { threads: 0 }`.
    pub fn resolve_threads(self) -> Result<usize, FlowError> {
        match self {
            EngineChoice::Serial => Ok(1),
            EngineChoice::Sharded { threads: 0 } => Err(FlowError::ZeroThreads),
            EngineChoice::Sharded { threads } => Ok(threads),
            EngineChoice::Auto => {
                Ok(std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
            }
        }
    }

    /// The engine label reports carry: `serial`, `sharded` or `auto`.
    pub fn label(self) -> &'static str {
        match self {
            EngineChoice::Serial => "serial",
            EngineChoice::Sharded { .. } => "sharded",
            EngineChoice::Auto => "auto",
        }
    }
}

impl fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineChoice::Sharded { threads } => write!(f, "sharded:{threads}"),
            other => f.write_str(other.label()),
        }
    }
}

/// Error parsing an [`EngineChoice`] label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineChoiceError {
    input: String,
}

impl fmt::Display for ParseEngineChoiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown engine '{}' (expected serial, auto or sharded:N)",
            self.input
        )
    }
}

impl std::error::Error for ParseEngineChoiceError {}

impl FromStr for EngineChoice {
    type Err = ParseEngineChoiceError;

    /// Parses `serial`, `auto` or `sharded:N` (what `--engine` CLI
    /// switches route through).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseEngineChoiceError {
            input: s.to_owned(),
        };
        match s.trim().to_ascii_lowercase().as_str() {
            "serial" => Ok(EngineChoice::Serial),
            "auto" | "sharded" => Ok(EngineChoice::Auto),
            other => match other.strip_prefix("sharded:") {
                Some(n) => Ok(EngineChoice::Sharded {
                    threads: n.parse().map_err(|_| err())?,
                }),
                None => Err(err()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_and_parsing() {
        assert_eq!(EngineChoice::Serial.resolve_threads(), Ok(1));
        assert_eq!(
            EngineChoice::Sharded { threads: 8 }.resolve_threads(),
            Ok(8)
        );
        assert_eq!(
            EngineChoice::Sharded { threads: 0 }.resolve_threads(),
            Err(FlowError::ZeroThreads)
        );
        assert!(EngineChoice::Auto.resolve_threads().unwrap() >= 1);

        assert_eq!("serial".parse(), Ok(EngineChoice::Serial));
        assert_eq!("auto".parse(), Ok(EngineChoice::Auto));
        assert_eq!(
            "sharded:4".parse(),
            Ok(EngineChoice::Sharded { threads: 4 })
        );
        assert!("sharded:lots".parse::<EngineChoice>().is_err());
        assert!("gpu".parse::<EngineChoice>().is_err());
        assert_eq!(
            EngineChoice::Sharded { threads: 2 }.to_string(),
            "sharded:2"
        );
    }
}
