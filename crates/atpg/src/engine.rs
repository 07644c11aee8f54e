//! The pluggable ATPG engine interface.
//!
//! The deterministic search loop of `run_atpg` needs one operation
//! from a test generator: *attempt a test for one fault under one
//! capture procedure*. This trait captures exactly that — the analogue
//! of [`occ_fsim::FaultSimEngine`] for the generation side — so the
//! retained scalar [`ReferencePodem`](crate::ReferencePodem) and the
//! compiled incremental [`CompiledPodem`](crate::CompiledPodem) are
//! interchangeable behind `&mut dyn AtpgEngine`. Both are required
//! (and swept in `tests/atpg_equivalence.rs`) to produce **identical
//! [`PodemOutcome`]s** for the same inputs: the compiled engine
//! replaces only the value engine and the lookup tables, never the
//! decision order.

use crate::{Observability, PodemOutcome};
use occ_fault::Fault;
use occ_fsim::FrameSpec;

/// Work counters a compiled ATPG engine reports — collected into
/// `FlowReport`s and the `atpg_bench` perf baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtpgKernelStats {
    /// Decision-variable assignments tried (initial choices + flips).
    pub decisions: u64,
    /// Backtracks (deepest-unflipped-decision flips).
    pub backtracks: u64,
    /// Value-engine events: cell evaluations plus flop-capture
    /// computations (0 for the reference engine, which re-evaluates
    /// everything and counts nothing).
    pub events: u64,
    /// Incremental (changed-cone) re-simulations.
    pub incremental_resims: u64,
    /// Full from-scratch dual simulations (one per PODEM run for the
    /// compiled engine, one per *decision* for the reference engine).
    pub full_resims: u64,
    /// PODEM runs whose opening full simulation was *seeded* from the
    /// per-procedure all-X baseline instead of evaluated from scratch
    /// (the compiled engine, when the procedure spec repeats across
    /// targeted faults; 0 for the reference engine).
    pub seeded_sims: u64,
}

impl std::ops::AddAssign for AtpgKernelStats {
    fn add_assign(&mut self, o: AtpgKernelStats) {
        self.decisions += o.decisions;
        self.backtracks += o.backtracks;
        self.events += o.events;
        self.incremental_resims += o.incremental_resims;
        self.full_resims += o.full_resims;
        self.seeded_sims += o.seeded_sims;
    }
}

impl std::ops::Sub for AtpgKernelStats {
    type Output = AtpgKernelStats;

    /// The work done between two snapshots of one engine's counters.
    fn sub(self, earlier: AtpgKernelStats) -> AtpgKernelStats {
        AtpgKernelStats {
            decisions: self.decisions - earlier.decisions,
            backtracks: self.backtracks - earlier.backtracks,
            events: self.events - earlier.events,
            incremental_resims: self.incremental_resims - earlier.incremental_resims,
            full_resims: self.full_resims - earlier.full_resims,
            seeded_sims: self.seeded_sims - earlier.seeded_sims,
        }
    }
}

/// A test-generation engine: anything that can run one
/// backtrack-limited PODEM search for one fault under one procedure.
///
/// Implementations must be deterministic — the outcome may not depend
/// on internal scratch state carried between calls.
pub trait AtpgEngine {
    /// Attempts to generate a test for `fault` under `spec`.
    ///
    /// `obs` must be the observability cones of the same `spec`.
    fn run(
        &mut self,
        spec: &FrameSpec,
        obs: &Observability,
        fault: Fault,
        backtrack_limit: usize,
    ) -> PodemOutcome;

    /// A short human-readable engine label (for reports and logs).
    fn engine_name(&self) -> &'static str;

    /// Work counters accumulated by this engine since construction.
    fn kernel_stats(&self) -> AtpgKernelStats {
        AtpgKernelStats::default()
    }

    /// A fresh engine over the same model that may search on another
    /// thread — the hook fault-parallel search draws its workers from.
    /// A fork must reach the same outcome, with the same decisions and
    /// backtracks, as `self` for every search. The default, `None`,
    /// keeps every search on the calling thread.
    fn fork(&self) -> Option<Box<dyn AtpgEngine + Send + '_>> {
        None
    }

    /// Adds the work of searches run on this engine's forks to its
    /// [`AtpgEngine::kernel_stats`], so a fault-parallel run reports the
    /// sum of the searches it committed. Engines that cannot fork never
    /// receive a call; the default ignores it.
    fn absorb_stats(&mut self, stats: AtpgKernelStats) {
        let _ = stats;
    }
}
