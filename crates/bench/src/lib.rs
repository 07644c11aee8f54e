//! # occ-bench — the Table 1 / figure experiment harness
//!
//! Drives the whole workspace to regenerate every table and figure of
//! *Beck et al., DATE 2005*:
//!
//! * [`run_table1`] — the five ATPG experiments (a)–(e) on one seeded
//!   SOC, swept through an in-process [`occ_server::FlowService`] so
//!   the design is compiled once and every later row reuses the cached
//!   graph, reporting test coverage and pattern count per row plus the
//!   paper's qualitative shape checks;
//! * [`fig1_report`] — the device architecture (SOC + per-domain CPFs);
//! * [`fig2_waveforms`] — the delay-test clocking of both domains
//!   (shift → launch/capture burst → shift), simulated on the real
//!   gate-level device;
//! * [`fig3_report`] — the CPF schematic (gate list + Verilog);
//! * [`fig4_waveforms`] — the CPF timing diagram.
//!
//! Binaries `table1`, `fig1_architecture`, `fig2_waveform`,
//! `fig3_cpf_netlist` and `fig4_cpf_waveform` print these to stdout.
//! The gated bench binaries (`fsim_bench`, `atpg_bench`,
//! `timing_bench`, `bist_bench`, `server_bench`) share one regression
//! [`gate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod figures;
pub mod gate;

pub use experiments::{
    job_spec, matrix_sources, run_experiment, run_experiment_service, run_sources_matrix,
    run_table1, ExperimentId, ExperimentRow, MatrixCell, ParseExperimentIdError, SourcesMatrix,
    Table1, Table1Options, MATRIX_MODES,
};
pub use figures::{fig1_report, fig2_waveforms, fig3_report, fig4_waveforms};
