//! Typed diagnostics: rule identities, severities, locations and the
//! aggregated [`LintReport`] with its severity gate.

use occ_fault::Fault;
use occ_netlist::CellId;
use std::fmt;

/// A stable lint rule identity. The `Lnnn` codes are part of the tool's
/// interface: scripts grep for them, fixtures pin them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// `L001` — combinational loop through transparent latches.
    CombLoop,
    /// `L002` — floating net: unloaded driver or logic fed by an
    /// uncontrolled (`TieX`) source.
    FloatingNet,
    /// `L003` — duplicate cell name: two drivers claim one net name,
    /// the representable form of a multiply-driven net in this IR.
    DuplicateName,
    /// `L004` — non-scan flop clocked by a bound capture domain.
    NonScanCapture,
    /// `L005` — clock-domain-crossing path exercised at speed by the
    /// clocking mode.
    CdcAtSpeed,
    /// `L006` — scan-chain connectivity or ordering break.
    ScanChain,
    /// `L007` — structurally untestable fault (unobservable cone or
    /// uncontrollable activation).
    Untestable,
    /// `L008` — X-source audit for LBIST readiness: a `TieX` or
    /// uninitialized non-scan state element whose value reaches a scan
    /// flop's capture cone, i.e. the MISR observation cone. Every such
    /// source corrupts a multiple-input signature register
    /// deterministically-unpredictably and must be bounded (or the
    /// signature declared invalid) before self-test can sign off.
    XSource,
}

impl RuleId {
    /// All rules, in code order.
    pub const ALL: [RuleId; 8] = [
        RuleId::CombLoop,
        RuleId::FloatingNet,
        RuleId::DuplicateName,
        RuleId::NonScanCapture,
        RuleId::CdcAtSpeed,
        RuleId::ScanChain,
        RuleId::Untestable,
        RuleId::XSource,
    ];

    /// The stable `Lnnn` code.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::CombLoop => "L001",
            RuleId::FloatingNet => "L002",
            RuleId::DuplicateName => "L003",
            RuleId::NonScanCapture => "L004",
            RuleId::CdcAtSpeed => "L005",
            RuleId::ScanChain => "L006",
            RuleId::Untestable => "L007",
            RuleId::XSource => "L008",
        }
    }

    /// Short machine-readable rule name.
    pub fn label(self) -> &'static str {
        match self {
            RuleId::CombLoop => "comb-loop",
            RuleId::FloatingNet => "floating-net",
            RuleId::DuplicateName => "duplicate-name",
            RuleId::NonScanCapture => "non-scan-capture",
            RuleId::CdcAtSpeed => "cdc-at-speed",
            RuleId::ScanChain => "scan-chain",
            RuleId::Untestable => "untestable",
            RuleId::XSource => "x-source",
        }
    }

    /// The severity this rule reports at (fixed per rule: the catalog
    /// is the contract, not a tuning knob).
    pub fn severity(self) -> Severity {
        match self {
            RuleId::CombLoop | RuleId::DuplicateName | RuleId::ScanChain => Severity::Error,
            RuleId::FloatingNet | RuleId::NonScanCapture | RuleId::CdcAtSpeed | RuleId::XSource => {
                Severity::Warning
            }
            RuleId::Untestable => Severity::Info,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.label())
    }
}

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: feeds downstream stages (e.g. ATPG
    /// pre-classification), never gates.
    Info,
    /// Suspicious but test-able; gates only under future stricter
    /// policies.
    Warning,
    /// A structural defect that invalidates test generation; fails the
    /// flow under [`LintGate::Deny`].
    Error,
}

impl Severity {
    /// Lower-case label (`info` / `warning` / `error`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One lint finding: rule, severity, the cell(s) it anchors to and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Its severity (always `rule.severity()`).
    pub severity: Severity,
    /// The primary cell location, when one exists.
    pub cell: Option<CellId>,
    /// A related cell (the other end of a path or chain link).
    pub related: Option<CellId>,
    /// What happened, with names resolved.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic for `rule` at `cell`.
    pub fn new(rule: RuleId, cell: Option<CellId>, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            cell,
            related: None,
            message: message.into(),
        }
    }

    /// Attaches a related cell (builder style).
    #[must_use]
    pub fn with_related(mut self, related: CellId) -> Self {
        self.related = Some(related);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.severity, self.rule, self.message)?;
        if let Some(c) = self.cell {
            write!(f, " [{c}]")?;
        }
        Ok(())
    }
}

/// The severity gate a flow applies to a lint report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintGate {
    /// Error-severity diagnostics fail the flow.
    #[default]
    Deny,
    /// Report everything, fail nothing.
    Warn,
}

impl LintGate {
    /// Lower-case label (`deny` / `warn`), round-tripping through
    /// [`LintGate::from_str`](std::str::FromStr).
    pub fn label(self) -> &'static str {
        match self {
            LintGate::Deny => "deny",
            LintGate::Warn => "warn",
        }
    }
}

impl fmt::Display for LintGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error parsing a [`LintGate`] label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLintGateError {
    input: String,
}

impl fmt::Display for ParseLintGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown lint gate '{}' (expected deny or warn)",
            self.input
        )
    }
}

impl std::error::Error for ParseLintGateError {}

impl std::str::FromStr for LintGate {
    type Err = ParseLintGateError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "deny" => Ok(LintGate::Deny),
            "warn" => Ok(LintGate::Warn),
            _ => Err(ParseLintGateError {
                input: s.to_owned(),
            }),
        }
    }
}

/// Everything one lint pass produced: the diagnostics plus the
/// ATPG-feeding untestability verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, in rule order.
    pub diagnostics: Vec<Diagnostic>,
    /// Faults the untestability pass proved structurally untestable —
    /// the input to ATPG pre-classification (the `pre_untestable`
    /// argument of `occ_atpg::run_atpg`).
    pub untestable: Vec<Fault>,
    /// Cells the structural rules scanned.
    pub cells_scanned: usize,
    /// Faults the untestability pass examined (0 when it did not run).
    pub faults_scanned: usize,
}

impl LintReport {
    /// Number of diagnostics of one rule.
    pub fn count(&self, rule: RuleId) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.count_severity(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.count_severity(Severity::Warning)
    }

    /// Number of diagnostics at one severity.
    pub fn count_severity(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True when the report passes under `gate`: `Deny` requires zero
    /// error-severity diagnostics, `Warn` always passes.
    pub fn passes(&self, gate: LintGate) -> bool {
        match gate {
            LintGate::Deny => self.errors() == 0,
            LintGate::Warn => true,
        }
    }

    /// The first error-severity diagnostic, if any — what a denying
    /// flow reports.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint: {} error(s), {} warning(s), {} structurally untestable \
             fault(s) over {} cells",
            self.errors(),
            self.warnings(),
            self.untestable.len(),
            self.cells_scanned
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = RuleId::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(
            codes,
            ["L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008"]
        );
    }

    #[test]
    fn gate_semantics() {
        let mut report = LintReport::default();
        assert!(report.passes(LintGate::Deny));
        report
            .diagnostics
            .push(Diagnostic::new(RuleId::NonScanCapture, None, "w"));
        assert!(report.passes(LintGate::Deny), "warnings never deny");
        report
            .diagnostics
            .push(Diagnostic::new(RuleId::ScanChain, None, "e"));
        assert!(!report.passes(LintGate::Deny));
        assert!(report.passes(LintGate::Warn));
        assert_eq!(report.first_error().unwrap().rule, RuleId::ScanChain);
    }

    #[test]
    fn gate_labels_round_trip() {
        for gate in [LintGate::Deny, LintGate::Warn] {
            assert_eq!(gate.label().parse::<LintGate>().unwrap(), gate);
        }
        assert!("strict".parse::<LintGate>().is_err());
    }
}
