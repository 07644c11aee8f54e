//! # occ-atpg — automatic test pattern generation
//!
//! A PODEM-based ATPG engine operating on the same
//! [`occ_fsim::CaptureModel`] / [`occ_fsim::FrameSpec`] abstractions as
//! the fault simulator, so every Table 1 experiment of the paper is the
//! *same engine* offered a different set of named capture procedures:
//!
//! * stuck-at ATPG over 1..n-frame external-clock procedures
//!   (experiment (a)), including clock-sequential initialization of
//!   non-scan cells via extra pulses;
//! * broadside (launch-off-capture) transition ATPG over 2..n-frame
//!   procedures (experiments (b)–(e)), honouring PI-hold and PO-mask
//!   constraints and per-domain / inter-domain pulse sets;
//! * 64-pattern batched fault-simulation drop (fortuitous detection),
//!   random fill, reverse-order static compaction — all grading through
//!   the pluggable [`occ_fsim::FaultSimEngine`] trait, so the serial
//!   and sharded fault simulators are interchangeable with identical
//!   results;
//! * backtrack-limited search with proper untestable/aborted
//!   classification (the paper's "1 % ATPG untestable, 0.3 % aborted");
//! * structural fault grouping of the leftovers (the paper's §6 future
//!   work): cross-domain, PO-masked-only, PI-held-only, non-scan- and
//!   RAM-dependent;
//! * one entry point, [`run_atpg`] (with [`run_atpg_cancellable`] as
//!   its random-fill shorthand), taking the fault-sim engine, the ATPG
//!   engine, the lint verdict, a cancel token and the pattern-delivery
//!   [`PatternFill`];
//! * a pluggable [`AtpgEngine`] trait (the generation-side analogue of
//!   [`occ_fsim::FaultSimEngine`]): the compiled incremental
//!   [`CompiledPodem`] (flat lookup tables, stamped scratch,
//!   changed-cone re-simulation through [`DualGraphSim`]) is the engine
//!   flows run; the retained scalar [`ReferencePodem`] is the oracle
//!   the equivalence suites and benches check it against, with
//!   identical outcomes;
//! * fault-parallel search: engines that [fork](AtpgEngine::fork)
//!   search ahead of an in-order commit on the fault simulator's worker
//!   threads, with results identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod compiled;
mod dualsim;
mod engine;
mod flow;
mod podem;
mod reach;
mod scoap;

pub use classify::classify_faults;
pub use compiled::CompiledPodem;
pub use dualsim::{DualGraphSim, DualSim};
pub use engine::{AtpgEngine, AtpgKernelStats};
pub use flow::{
    run_atpg, run_atpg_cancellable, AtpgOptions, AtpgResult, AtpgStats, PatternFill, RandomFill,
};
pub use podem::{PodemOutcome, ReferencePodem};
pub use reach::Observability;
pub use scoap::{Controllability, INF};
