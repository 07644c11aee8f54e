//! # occ-fsim — parallel-pattern fault simulation over capture models
//!
//! The fault-grading substrate of the workspace: a 64-bit
//! parallel-pattern single-fault-propagation (PPSFP) simulator in the
//! tradition of Waicukauski et al. (the paper's reference \[3\]),
//! generalized to the **multi-frame capture procedures** the paper's
//! on-chip clock generation produces:
//!
//! * a [`CaptureModel`] binds a netlist to clock domains and test
//!   constraints (scan enable held, resets inactive, masked sources);
//! * a [`FrameSpec`] describes one named capture procedure — how many
//!   cycles, which domains pulse when, whether PIs may change and POs
//!   are strobed;
//! * a [`SimGraph`] is compiled once per model: flattened CSR
//!   fanin/fanout arrays, dense [`OpCode`]s, the levelized evaluation
//!   order, per-flop capture metadata and precomputed observability
//!   cones;
//! * [`simulate_good`] runs up to 64 [`Pattern`]s through the procedure
//!   at once (incrementally across frames when PIs are held);
//!   [`FaultSim`] — the compiled zero-allocation PPSFP kernel —
//!   propagates each fault's difference over the graph and reports
//!   per-pattern detection masks, honouring transition-fault launch
//!   conditions and rejecting cone-unobservable faults in O(1);
//! * [`ParallelFaultSim`] shards the collapsed fault universe across
//!   worker threads (per-thread scratch arenas, deterministic merge)
//!   and produces masks bit-identical to the serial engine;
//! * the [`FaultSimEngine`] trait makes the engines interchangeable
//!   behind `&mut dyn FaultSimEngine` — ATPG and static compaction in
//!   `occ-atpg` are generic over it — and surfaces [`KernelStats`]
//!   (cells compiled, cone-pruned faults, events propagated);
//! * [`ReferenceFaultSim`] retains the pre-kernel allocation-heavy
//!   engine as the correctness oracle and perf baseline.
//!
//! The ATPG engine (`occ-atpg`) runs on the same model types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod engine;
mod faultsim;
mod goodsim;
mod graph;
mod model;
mod parallel;
mod pattern;
mod pval;
mod reference;
mod spec;
mod timing;

pub use cancel::{CancelCause, CancelToken};
pub use engine::FaultSimEngine;
pub use faultsim::{FaultSim, ScanResponse};
pub use goodsim::{simulate_good, GoodBatch};
pub use graph::{FlopMeta, KernelStats, OpCode, SimGraph, FLOP_TAG, NO_RESET};
pub use model::{CaptureModel, ClockBinding, FlopInfo, ModelError};
pub use parallel::ParallelFaultSim;
pub use pattern::{Pattern, PatternSet};
pub use pval::{eval_packed, PVal};
pub use reference::ReferenceFaultSim;
pub use spec::{CycleSpec, DomainId, FrameSpec};
pub use timing::{SimTiming, TimePs};
