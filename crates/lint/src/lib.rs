//! # occ-lint — static design-rule and testability analysis
//!
//! The admission layer of the flow: checks a design **before** any
//! ATPG or fault-simulation cycles are spent on it, riding the
//! structures the workspace already compiles — the [`Netlist`] fanout
//! graph, the [`CaptureModel`]'s compiled `SimGraph` observability
//! cones, SCOAP controllability costs and the scan-chain metadata.
//! Zero allocation after the model compiles is the same budget the
//! engines run on: one pass builds a few flat scratch vectors sized by
//! the netlist and nothing per-diagnostic-check.
//!
//! ## Rule catalog
//!
//! | id | name | severity | catches |
//! |------|------|----------|---------|
//! | `L001` | `comb-loop` | error | combinational loops closed through transparent latch / clock-gate paths (the builder already rejects pure gate loops) |
//! | `L002` | `floating-net` | warning | unloaded drivers and logic fed by an uncontrolled `TieX` source |
//! | `L003` | `duplicate-name` | error | two cells claiming one instance name — a multiply-driven net in this single-driver IR |
//! | `L004` | `non-scan-capture` | warning | non-scan flops clocked by a bound capture domain |
//! | `L005` | `cdc-at-speed` | warning | inter-domain launch→capture paths the clocking mode exercises at functional speed |
//! | `L006` | `scan-chain` | error | scan-chain connectivity / ordering / enable-wiring breaks |
//! | `L007` | `untestable` | info | faults proven structurally untestable from cones + SCOAP `INF` costs |
//! | `L008` | `x-source` | warning | `TieX` / uninitialized non-scan state reaching scan-flop capture cones — the MISR observation cone LBIST signs off on |
//!
//! `L007` is also the perf hook: its fault list is the
//! `pre_untestable` argument of [`occ_atpg::run_atpg`], which marks
//! the faults `Untestable` up front and skips their PODEM searches with
//! an identical final pattern set.
//!
//! ## Example
//!
//! ```
//! use occ_fsim::{CaptureModel, ClockBinding};
//! use occ_lint::{LintGate, Linter};
//! use occ_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new("d");
//! let clk = b.input("clk");
//! let se = b.input("se");
//! let si = b.input("si");
//! let a = b.input("a");
//! let f = b.sdff(a, clk, se, si);
//! b.output("q", f);
//! let nl = b.finish().unwrap();
//! let mut binding = ClockBinding::new();
//! binding.add_domain("c", clk);
//! let model = CaptureModel::new(&nl, binding).unwrap();
//! let report = Linter::new(&model).run();
//! assert!(report.passes(LintGate::Deny));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod model_rules;
mod netlist_rules;
mod untestable;

pub use diag::{Diagnostic, LintGate, LintReport, ParseLintGateError, RuleId, Severity};

use occ_core::ClockingMode;
use occ_dft::ScanChains;
use occ_fault::FaultUniverse;
use occ_fsim::CaptureModel;
use occ_netlist::Netlist;

/// Runs only the netlist-structural rules (`L001`–`L003`) — the checks
/// that need no clock binding. Used for fixtures and designs that do
/// not (yet) form a valid [`CaptureModel`].
pub fn check_netlist(netlist: &Netlist) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    netlist_rules::run(netlist, &mut out);
    out
}

/// The static analyzer: configure what context is available (clocking
/// mode for CDC rules, scan-chain metadata for chain rules), then
/// [`run`](Linter::run) or
/// [`run_with_universe`](Linter::run_with_universe).
#[derive(Debug)]
pub struct Linter<'a> {
    model: &'a CaptureModel<'a>,
    mode: Option<ClockingMode>,
    chains: Option<&'a ScanChains>,
}

impl<'a> Linter<'a> {
    /// Creates a linter over a bound capture model.
    pub fn new(model: &'a CaptureModel<'a>) -> Self {
        Linter {
            model,
            mode: None,
            chains: None,
        }
    }

    /// Enables the mode-aware CDC rule (`L005`) for a clocking mode.
    #[must_use]
    pub fn mode(mut self, mode: ClockingMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Enables the scan-chain rule (`L006`) against chain metadata.
    #[must_use]
    pub fn chains(mut self, chains: &'a ScanChains) -> Self {
        self.chains = Some(chains);
        self
    }

    /// Runs the structural rules (`L001`–`L006` and `L008`, as
    /// configured).
    pub fn run(&self) -> LintReport {
        let mut report = LintReport::default();
        report.cells_scanned = netlist_rules::run(self.model.netlist(), &mut report.diagnostics);
        model_rules::non_scan_capture(self.model, &mut report.diagnostics);
        if let Some(mode) = self.mode {
            model_rules::cdc_at_speed(self.model, mode, &mut report.diagnostics);
        }
        if let Some(chains) = self.chains {
            model_rules::scan_chain(self.model, chains, &mut report.diagnostics);
        }
        model_rules::x_source(self.model, &mut report.diagnostics);
        report
    }

    /// Runs the structural rules plus the untestability pass (`L007`)
    /// over a fault universe; the report's `untestable` list is the
    /// `pre_untestable` input of [`occ_atpg::run_atpg`].
    pub fn run_with_universe(&self, universe: &FaultUniverse) -> LintReport {
        let mut report = self.run();
        report.faults_scanned = untestable::run(
            self.model,
            universe,
            &mut report.diagnostics,
            &mut report.untestable,
        );
        report
    }
}
