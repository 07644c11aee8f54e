//! Table 1: the five ATPG experiments, each one [`TestFlow`] run.

use occ_atpg::AtpgOptions;
use occ_core::ClockingMode;
use occ_flow::{
    BistConfig, EdtConfig, EngineChoice, FaultKind, FlowError, FlowReport, PatternSource, TestFlow,
};
use occ_server::{CacheStats, FlowService, JobCacheStats, JobSpec};
use occ_sim::DelayModel;
use occ_soc::{Soc, SocConfig};
use std::fmt;
use std::str::FromStr;

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// (a) stuck-at test using a single external clock.
    A,
    /// (b) transition test using a single external clock (ideal).
    B,
    /// (c) transition test using simple 2-pulse on-chip CPFs.
    C,
    /// (d) transition test using enhanced CPFs (2–4 pulses +
    /// inter-domain).
    D,
    /// (e) transition test, external clock with all ATE constraints.
    E,
}

impl ExperimentId {
    /// All rows in paper order.
    pub const ALL: [ExperimentId; 5] = [
        ExperimentId::A,
        ExperimentId::B,
        ExperimentId::C,
        ExperimentId::D,
        ExperimentId::E,
    ];

    /// The paper's description of the row.
    pub fn description(self) -> &'static str {
        match self {
            ExperimentId::A => "stuck-at, single external clock",
            ExperimentId::B => "transition, single external clock",
            ExperimentId::C => "transition, on-chip clock generation (2-pulse CPF)",
            ExperimentId::D => "transition, enhanced CPF (2-4 pulses, inter-domain)",
            ExperimentId::E => "transition, external clock with ATE constraints",
        }
    }
}

/// Error parsing an [`ExperimentId`] row label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExperimentIdError {
    input: String,
}

impl fmt::Display for ParseExperimentIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown Table 1 row '{}' (expected a, b, c, d or e)",
            self.input
        )
    }
}

impl std::error::Error for ParseExperimentIdError {}

impl FromStr for ExperimentId {
    type Err = ParseExperimentIdError;

    /// Parses a row label (`a`..`e`, case-insensitive, with or without
    /// the display parentheses).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s
            .trim()
            .trim_start_matches('(')
            .trim_end_matches(')')
            .to_ascii_lowercase()
            .as_str()
        {
            "a" => Ok(ExperimentId::A),
            "b" => Ok(ExperimentId::B),
            "c" => Ok(ExperimentId::C),
            "d" => Ok(ExperimentId::D),
            "e" => Ok(ExperimentId::E),
            _ => Err(ParseExperimentIdError {
                input: s.to_owned(),
            }),
        }
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            ExperimentId::A => 'a',
            ExperimentId::B => 'b',
            ExperimentId::C => 'c',
            ExperimentId::D => 'd',
            ExperimentId::E => 'e',
        };
        write!(f, "({c})")
    }
}

/// The measured outcome of one experiment.
#[derive(Debug)]
pub struct ExperimentRow {
    /// Which experiment.
    pub id: ExperimentId,
    /// Test coverage in percent (detected / total collapsed faults).
    pub coverage_pct: f64,
    /// ATPG efficiency in percent.
    pub efficiency_pct: f64,
    /// Pattern count (scan loads).
    pub patterns: usize,
    /// Total collapsed faults.
    pub total_faults: usize,
    /// Wall-clock seconds for the run (all flow stages).
    pub seconds: f64,
    /// The full flow report (stage timings, ATPG stats, fault
    /// statuses, pattern set).
    pub report: FlowReport,
    /// The design-cache hit or miss of the run, when it went through a
    /// [`FlowService`] (`None` for direct [`run_experiment`] calls).
    pub cache: Option<JobCacheStats>,
}

/// Options for a Table 1 reproduction run.
#[derive(Debug, Clone)]
pub struct Table1Options {
    /// SOC generator seed.
    pub seed: u64,
    /// Flops per clock domain.
    pub flops_per_domain: usize,
    /// PODEM backtrack limit.
    pub backtrack_limit: usize,
    /// Fault-simulation engine all experiments grade through.
    pub engine: EngineChoice,
    /// Run the delay-test-quality stage (default delay model) and
    /// print the per-clocking-mode quality comparison.
    pub timing: bool,
    /// Run the pre-ATPG lint stage under this gate (`None` = lint
    /// off). Structurally untestable faults skip their PODEM searches;
    /// coverage and pattern sets are unchanged.
    pub lint: Option<occ_flow::LintGate>,
    /// Record detail spans and attach the span tree to each report
    /// (`table1 --trace` prints it under the stage table).
    pub trace: bool,
}

impl Default for Table1Options {
    fn default() -> Self {
        Table1Options {
            seed: 20050307, // DATE'05 in Munich
            flops_per_domain: 120,
            backtrack_limit: 48,
            engine: EngineChoice::Auto,
            timing: false,
            lint: None,
            trace: false,
        }
    }
}

/// The clocking mode, fault model and bidi masking a row uses.
fn mode_of(id: ExperimentId) -> (ClockingMode, FaultKind, bool /* bidi masked */) {
    match id {
        ExperimentId::A => (
            ClockingMode::ExternalClock { max_pulses: 4 },
            FaultKind::StuckAt,
            false,
        ),
        ExperimentId::B => (
            ClockingMode::ExternalClock { max_pulses: 4 },
            FaultKind::Transition,
            false,
        ),
        ExperimentId::C => (ClockingMode::SimpleCpf, FaultKind::Transition, true),
        ExperimentId::D => (
            ClockingMode::EnhancedCpf { max_pulses: 4 },
            FaultKind::Transition,
            true,
        ),
        ExperimentId::E => (
            ClockingMode::ConstrainedExternal { max_pulses: 4 },
            FaultKind::Transition,
            true,
        ),
    }
}

/// Runs one Table 1 experiment on an already-generated SOC through the
/// [`TestFlow`] pipeline.
///
/// # Errors
///
/// Returns the [`FlowError`] of a misconfigured flow (the standard
/// rows on a generated SOC always validate).
pub fn run_experiment(
    soc: &Soc,
    id: ExperimentId,
    options: &Table1Options,
) -> Result<ExperimentRow, FlowError> {
    let (mode, fault_kind, mask_bidi) = mode_of(id);
    let mut flow = TestFlow::new(soc)
        .clocking(mode)
        .fault_model(fault_kind)
        .mask_bidi(mask_bidi)
        .engine(options.engine)
        .trace(options.trace)
        .atpg(AtpgOptions {
            backtrack_limit: options.backtrack_limit,
            ..AtpgOptions::default()
        });
    if options.timing {
        flow = flow.timing(DelayModel::default());
    }
    if let Some(gate) = options.lint {
        flow = flow.lint(gate);
    }
    let report = flow.run()?;
    Ok(ExperimentRow {
        id,
        coverage_pct: report.coverage_pct(),
        efficiency_pct: report.efficiency_pct(),
        patterns: report.patterns(),
        total_faults: report.coverage.total,
        seconds: report.total_seconds(),
        report,
        cache: None,
    })
}

/// The [`JobSpec`] equivalent of a Table 1 row on `design`.
#[must_use]
pub fn job_spec(design: SocConfig, id: ExperimentId, options: &Table1Options) -> JobSpec {
    let (mode, fault_kind, mask_bidi) = mode_of(id);
    let mut spec = JobSpec::new(design);
    spec.clocking = mode;
    spec.fault_model = fault_kind;
    spec.engine = options.engine;
    spec.atpg = AtpgOptions {
        backtrack_limit: options.backtrack_limit,
        ..AtpgOptions::default()
    };
    spec.mask_bidi = mask_bidi;
    spec.timing = options.timing;
    spec.lint = options.lint;
    spec.trace = options.trace;
    spec
}

/// Runs one Table 1 experiment through a [`FlowService`]: the design
/// is compiled on first use and every later row reuses the cached
/// design ([`ExperimentRow::cache`] records whether it hit).
///
/// # Errors
///
/// Returns the [`FlowError`] of a misconfigured flow.
pub fn run_experiment_service(
    service: &FlowService,
    design: &SocConfig,
    id: ExperimentId,
    options: &Table1Options,
) -> Result<ExperimentRow, FlowError> {
    let outcome = service.submit(&job_spec(design.clone(), id, options))?;
    let report = outcome.report.expect("flow jobs carry a report");
    Ok(ExperimentRow {
        id,
        coverage_pct: report.coverage_pct(),
        efficiency_pct: report.efficiency_pct(),
        patterns: report.patterns(),
        total_faults: report.coverage.total,
        seconds: report.total_seconds(),
        report,
        cache: Some(outcome.cache),
    })
}

/// The complete Table 1 with shape checks against the paper.
#[derive(Debug)]
pub struct Table1 {
    /// The generated rows in paper order.
    pub rows: Vec<ExperimentRow>,
    /// The options used.
    pub options: Table1Options,
    /// Global design-cache counters of the sweep's [`FlowService`]:
    /// one design miss, four hits — the SOC is compiled once across
    /// all five clocking-mode rows.
    pub cache: CacheStats,
}

impl Table1 {
    /// Fetches a row.
    pub fn row(&self, id: ExperimentId) -> &ExperimentRow {
        self.rows
            .iter()
            .find(|r| r.id == id)
            .expect("all rows present")
    }

    /// The paper's qualitative findings, evaluated on the measured
    /// numbers. Returns `(description, holds)` pairs.
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let a = self.row(ExperimentId::A);
        let b = self.row(ExperimentId::B);
        let c = self.row(ExperimentId::C);
        let d = self.row(ExperimentId::D);
        let e = self.row(ExperimentId::E);
        vec![
            (
                format!(
                    "stuck-at coverage exceeds transition coverage ({:.2}% > {:.2}%)",
                    a.coverage_pct, b.coverage_pct
                ),
                a.coverage_pct > b.coverage_pct,
            ),
            (
                format!(
                    "transition patterns several times stuck-at count ({} vs {})",
                    b.patterns, a.patterns
                ),
                b.patterns as f64 >= 2.0 * a.patterns as f64,
            ),
            (
                format!(
                    "simple CPF loses coverage vs ideal ({:.2}% < {:.2}%)",
                    c.coverage_pct, b.coverage_pct
                ),
                c.coverage_pct + 1.0 < b.coverage_pct,
            ),
            (
                format!(
                    "on-chip clocking increases pattern count ({} > {})",
                    c.patterns, b.patterns
                ),
                c.patterns > b.patterns,
            ),
            (
                format!(
                    "enhanced CPF recovers coverage ({:.2}% > {:.2}%)",
                    d.coverage_pct, c.coverage_pct
                ),
                d.coverage_pct > c.coverage_pct,
            ),
            (
                format!(
                    "most-flexible bound sits between the CPF rows and the ideal \
                     ({:.2}% <= {:.2}% < {:.2}%)",
                    c.coverage_pct, e.coverage_pct, b.coverage_pct
                ),
                c.coverage_pct <= e.coverage_pct && e.coverage_pct < b.coverage_pct,
            ),
            (
                format!(
                    "flexible clocking trims patterns vs (d) ({} <= {})",
                    e.patterns, d.patterns
                ),
                e.patterns <= d.patterns,
            ),
            (
                format!(
                    "ATPG efficiency stays high everywhere (min {:.2}%)",
                    self.rows
                        .iter()
                        .map(|r| r.efficiency_pct)
                        .fold(f64::INFINITY, f64::min)
                ),
                self.rows.iter().all(|r| r.efficiency_pct > 90.0),
            ),
        ]
    }

    /// The table as CSV: the [`FlowReport`] header plus one row per
    /// experiment (for sweep tooling). Timed runs append the
    /// delay-quality header + rows block.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(FlowReport::csv_header());
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.report.to_csv_row());
            out.push('\n');
        }
        if self.rows.iter().any(|r| r.report.lint.is_some()) {
            out.push_str(FlowReport::lint_csv_header());
            out.push('\n');
            for r in &self.rows {
                if let Some(row) = r.report.lint_csv_row() {
                    out.push_str(&row);
                    out.push('\n');
                }
            }
        }
        if self.rows.iter().any(|r| r.report.delay_quality.is_some()) {
            out.push_str(FlowReport::delay_quality_csv_header());
            out.push('\n');
            for r in &self.rows {
                if let Some(row) = r.report.delay_quality_csv_row() {
                    out.push_str(&row);
                    out.push('\n');
                }
            }
        }
        out
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1 reproduction (seed {}, {} flops/domain, {} engine)",
            self.options.seed, self.options.flops_per_domain, self.options.engine
        )?;
        writeln!(
            f,
            "{:<4} {:<52} {:>8} {:>9} {:>9} {:>8}",
            "row", "experiment", "TC %", "eff %", "#pattern", "time s"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<4} {:<52} {:>8.2} {:>9.2} {:>9} {:>8.1}",
                r.id.to_string(),
                r.id.description(),
                r.coverage_pct,
                r.efficiency_pct,
                r.patterns,
                r.seconds
            )?;
        }
        writeln!(f)?;
        writeln!(f, "shape checks vs the paper:")?;
        for (desc, ok) in self.shape_checks() {
            writeln!(f, "  [{}] {desc}", if ok { "ok" } else { "FAIL" })?;
        }
        if self.rows.iter().any(|r| r.report.lint.is_some()) {
            writeln!(f)?;
            writeln!(f, "lint (pre-ATPG static analysis):")?;
            for r in &self.rows {
                let Some(lint) = &r.report.lint else {
                    continue;
                };
                writeln!(
                    f,
                    "  {} [{}]: {} error(s), {} warning(s), \
                     {} untestable, {} PODEM searches skipped",
                    r.id,
                    lint.gate,
                    lint.report.errors(),
                    lint.report.warnings(),
                    lint.report.untestable.len(),
                    r.report.result.stats.lint_pruned,
                )?;
            }
        }
        if self.rows.iter().any(|r| r.report.delay_quality.is_some()) {
            writeln!(f)?;
            writeln!(
                f,
                "delay test quality (slack-aware SDD grading, lower SDQL is better):"
            )?;
            writeln!(
                f,
                "{:<4} {:<24} {:>13} {:>8} {:>10} {:>10} {:>11}",
                "row", "clocking", "window ps", "TC %", "weighted %", "SDQL", "mean slack"
            )?;
            for r in &self.rows {
                let Some(q) = &r.report.delay_quality else {
                    continue;
                };
                let min_w = q.windows.iter().map(|w| w.window_ps).min().unwrap_or(0);
                let max_w = q.windows.iter().map(|w| w.window_ps).max().unwrap_or(0);
                let window = if min_w == max_w {
                    format!("{min_w}")
                } else {
                    format!("{min_w}-{max_w}")
                };
                writeln!(
                    f,
                    "{:<4} {:<24} {:>13} {:>8.2} {:>10.2} {:>10.3} {:>11.0}",
                    r.id.to_string(),
                    r.report.clocking.label(),
                    window,
                    r.coverage_pct,
                    q.weighted_coverage_pct,
                    q.sdql,
                    q.mean_test_slack_ps,
                )?;
            }
        }
        Ok(())
    }
}

/// Runs all five experiments through an in-process [`FlowService`]:
/// the SOC is generated and compiled exactly once (first row), and
/// every later row reuses the cached graph — the five-mode sweep is
/// the service's canonical warm workload.
///
/// # Errors
///
/// Propagates the first [`FlowError`] (the standard rows always
/// validate on a generated SOC).
pub fn run_table1(options: &Table1Options) -> Result<Table1, FlowError> {
    let service = FlowService::new(0);
    let design = SocConfig::paper_like(options.seed, options.flops_per_domain);
    let rows = ExperimentId::ALL
        .iter()
        .map(|&id| run_experiment_service(&service, &design, id, options))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Table1 {
        rows,
        options: options.clone(),
        cache: service.cache_stats(),
    })
}

/// The transition-test clocking rows of the sources matrix, in paper
/// order: ideal external, simple CPF, enhanced CPF, constrained
/// external. (Row (a) is stuck-at and stays external-only in Table 1.)
pub const MATRIX_MODES: [ExperimentId; 4] = [
    ExperimentId::B,
    ExperimentId::C,
    ExperimentId::D,
    ExperimentId::E,
];

/// The three pattern sources of the matrix, in sweep order.
#[must_use]
pub fn matrix_sources() -> [PatternSource; 3] {
    [
        PatternSource::ExternalAtpg,
        PatternSource::Edt(EdtConfig::auto()),
        PatternSource::Lbist(BistConfig::default()),
    ]
}

/// One cell of the clocking × pattern-source matrix.
#[derive(Debug)]
pub struct MatrixCell {
    /// The clocking-mode row.
    pub id: ExperimentId,
    /// The pattern-source column label (`external` / `edt` / `lbist`).
    pub source: &'static str,
    /// Test coverage in percent under this source's observation.
    pub coverage_pct: f64,
    /// Slack-weighted transition coverage in percent.
    pub weighted_pct: f64,
    /// Statistical delay quality level (lower is better).
    pub sdql: f64,
    /// Pattern count.
    pub patterns: usize,
    /// The full flow report (including the `pattern_source` block for
    /// embedded sources).
    pub report: FlowReport,
    /// The design-cache hit or miss of the cell's job.
    pub cache: JobCacheStats,
}

/// The 4 clocking modes × 3 pattern sources matrix: the paper's
/// clocking comparison re-asked under each delivery/observation
/// architecture, from one [`FlowService`] sweep.
#[derive(Debug)]
pub struct SourcesMatrix {
    /// All cells, source-major then mode order.
    pub cells: Vec<MatrixCell>,
    /// The options used.
    pub options: Table1Options,
    /// Global cache counters: the design artifact is compiled exactly
    /// once across all twelve cells.
    pub cache: CacheStats,
}

impl SourcesMatrix {
    /// Fetches a cell.
    pub fn cell(&self, id: ExperimentId, source: &str) -> &MatrixCell {
        self.cells
            .iter()
            .find(|c| c.id == id && c.source == source)
            .expect("all cells present")
    }

    /// The paper's quality inversion evaluated *within each pattern
    /// source*: the ideal external clock wins logical coverage over
    /// simple on-chip CPFs, while at-speed enhanced CPFs win SDQL
    /// (lower is better). Returns `(description, holds)` pairs.
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let mut checks = Vec::new();
        for source in ["external", "edt", "lbist"] {
            let b = self.cell(ExperimentId::B, source);
            let c = self.cell(ExperimentId::C, source);
            let d = self.cell(ExperimentId::D, source);
            checks.push((
                format!(
                    "[{source}] external clock wins logical coverage \
                     ({:.2}% > {:.2}%)",
                    b.coverage_pct, c.coverage_pct
                ),
                b.coverage_pct > c.coverage_pct,
            ));
            checks.push((
                format!(
                    "[{source}] at-speed enhanced CPF wins SDQL \
                     ({:.4} < {:.4})",
                    d.sdql, b.sdql
                ),
                d.sdql < b.sdql,
            ));
        }
        checks
    }

    /// The matrix as CSV: the flow header + one row per cell, then the
    /// delay-quality and pattern-source block pairs.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("source,");
        out.push_str(FlowReport::csv_header());
        out.push('\n');
        for c in &self.cells {
            out.push_str(c.source);
            out.push(',');
            out.push_str(&c.report.to_csv_row());
            out.push('\n');
        }
        out.push_str("source,");
        out.push_str(FlowReport::delay_quality_csv_header());
        out.push('\n');
        for c in &self.cells {
            if let Some(row) = c.report.delay_quality_csv_row() {
                out.push_str(c.source);
                out.push(',');
                out.push_str(&row);
                out.push('\n');
            }
        }
        if self.cells.iter().any(|c| c.report.pattern_source.is_some()) {
            out.push_str(FlowReport::pattern_source_csv_header());
            out.push('\n');
            for c in &self.cells {
                if let Some(row) = c.report.pattern_source_csv_row() {
                    out.push_str(&row);
                    out.push('\n');
                }
            }
        }
        out
    }
}

impl fmt::Display for SourcesMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "clocking x pattern-source matrix (seed {}, {} flops/domain)",
            self.options.seed, self.options.flops_per_domain
        )?;
        writeln!(
            f,
            "{:<10} {:<4} {:<24} {:>8} {:>10} {:>10} {:>9}",
            "source", "row", "clocking", "TC %", "weighted %", "SDQL", "#pattern"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<10} {:<4} {:<24} {:>8.2} {:>10.2} {:>10.3} {:>9}",
                c.source,
                c.id.to_string(),
                c.report.clocking.label(),
                c.coverage_pct,
                c.weighted_pct,
                c.sdql,
                c.patterns,
            )?;
        }
        writeln!(f)?;
        writeln!(f, "compaction accounting (embedded sources):")?;
        for c in &self.cells {
            let Some(ps) = &c.report.pattern_source else {
                continue;
            };
            writeln!(
                f,
                "  {:<6} {:<4} {:>5}/{:<5} kernel detections survive \
                 ({} aliased, {} compactor-masked, {} X-masked)",
                ps.source,
                c.id.to_string(),
                ps.source_detected,
                ps.kernel_detected,
                ps.aliased,
                ps.compactor_masked,
                ps.x_masked,
            )?;
        }
        writeln!(f)?;
        writeln!(f, "shape checks vs the paper, per source:")?;
        for (desc, ok) in self.shape_checks() {
            writeln!(f, "  [{}] {desc}", if ok { "ok" } else { "FAIL" })?;
        }
        writeln!(
            f,
            "design compiled once across {} cells: {} miss, {} hits",
            self.cells.len(),
            self.cache.design.misses,
            self.cache.design.hits,
        )
    }
}

/// Runs the 4 clocking modes × 3 pattern sources matrix through one
/// [`FlowService`]: the design artifact is compiled exactly once (the
/// cache key excludes the pattern source), and the delay-quality
/// stage is always on so every cell carries SDQL.
///
/// # Errors
///
/// Propagates the first [`FlowError`].
pub fn run_sources_matrix(options: &Table1Options) -> Result<SourcesMatrix, FlowError> {
    let service = FlowService::new(0);
    let design = SocConfig::paper_like(options.seed, options.flops_per_domain);
    let mut cells = Vec::with_capacity(MATRIX_MODES.len() * 3);
    for source in matrix_sources() {
        for id in MATRIX_MODES {
            let mut spec = job_spec(design.clone(), id, options);
            spec.timing = true;
            spec.pattern_source = source.clone();
            let outcome = service.submit(&spec)?;
            let report = outcome.report.expect("flow jobs carry a report");
            let q = report
                .delay_quality
                .as_ref()
                .expect("matrix cells always run the timing stage");
            cells.push(MatrixCell {
                id,
                source: source.label(),
                coverage_pct: report.coverage_pct(),
                weighted_pct: q.weighted_coverage_pct,
                sdql: q.sdql,
                patterns: report.patterns(),
                report,
                cache: outcome.cache,
            });
        }
    }
    Ok(SourcesMatrix {
        cells,
        options: options.clone(),
        cache: service.cache_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_soc::generate;

    #[test]
    fn ids_parse_and_display() {
        for id in ExperimentId::ALL {
            let s = id.to_string();
            // Both the bare letter and the display form round-trip.
            assert_eq!(s[1..2].parse::<ExperimentId>(), Ok(id));
            assert_eq!(s.parse::<ExperimentId>(), Ok(id));
        }
        assert!("x".parse::<ExperimentId>().is_err());
        let err = "zz".parse::<ExperimentId>().unwrap_err();
        assert!(err.to_string().contains("zz"));
    }

    #[test]
    fn single_experiment_runs_on_small_soc() {
        let soc = generate(&SocConfig::tiny(1));
        let opts = Table1Options {
            flops_per_domain: 24,
            engine: EngineChoice::Serial,
            ..Table1Options::default()
        };
        let row = run_experiment(&soc, ExperimentId::A, &opts).unwrap();
        assert!(row.coverage_pct > 50.0, "coverage {:.1}", row.coverage_pct);
        assert!(row.patterns > 0);
        assert_eq!(row.total_faults, row.report.coverage.total);
        assert_eq!(row.patterns, row.report.patterns());
    }

    #[test]
    fn service_rows_share_the_compiled_design() {
        let service = FlowService::new(0);
        let design = SocConfig::tiny(3);
        let opts = Table1Options {
            backtrack_limit: 12,
            engine: EngineChoice::Serial,
            ..Table1Options::default()
        };
        let c = run_experiment_service(&service, &design, ExperimentId::C, &opts).unwrap();
        let d = run_experiment_service(&service, &design, ExperimentId::D, &opts).unwrap();
        assert!(!c.cache.unwrap().design_hit, "first row compiles");
        assert!(d.cache.unwrap().design_hit, "later rows reuse the graph");

        // The service path is the same pipeline: a direct run of the
        // same row on the same design produces the same numbers.
        let direct = run_experiment(&generate(&design), ExperimentId::C, &opts).unwrap();
        assert_eq!(c.coverage_pct, direct.coverage_pct);
        assert_eq!(c.patterns, direct.patterns);
        assert_eq!(c.report.stats(), direct.report.stats());
    }

    #[test]
    fn experiment_rows_agree_across_engines() {
        // One Table 1 row, serial vs sharded: the ExperimentRow numbers
        // must be identical (the engines are bit-identical by contract).
        let soc = generate(&SocConfig::tiny(2));
        let opts = |engine| Table1Options {
            flops_per_domain: 24,
            engine,
            ..Table1Options::default()
        };
        let serial = run_experiment(&soc, ExperimentId::C, &opts(EngineChoice::Serial)).unwrap();
        let sharded = run_experiment(
            &soc,
            ExperimentId::C,
            &opts(EngineChoice::Sharded { threads: 4 }),
        )
        .unwrap();
        assert_eq!(serial.coverage_pct, sharded.coverage_pct);
        assert_eq!(serial.patterns, sharded.patterns);
        assert_eq!(serial.report.stats(), sharded.report.stats());
    }

    #[test]
    fn sources_matrix_shares_one_compiled_design() {
        let opts = Table1Options {
            flops_per_domain: 16,
            backtrack_limit: 12,
            engine: EngineChoice::Serial,
            ..Table1Options::default()
        };
        let matrix = run_sources_matrix(&opts).unwrap();
        assert_eq!(matrix.cells.len(), MATRIX_MODES.len() * 3);

        // One compile for twelve cells: the artifact cache keys
        // deliberately exclude the pattern source.
        assert_eq!(matrix.cache.design.misses, 1);
        assert_eq!(matrix.cache.design.hits, 11);
        assert!(matrix.cells.iter().skip(1).all(|c| c.cache.design_hit));

        // Every cell ran the timing stage; embedded cells carry the
        // refereed pattern-source block with exhaustive accounting.
        for c in &matrix.cells {
            assert!(c.sdql >= 0.0 && c.patterns > 0, "{} {}", c.id, c.source);
            match c.source {
                "external" => assert!(c.report.pattern_source.is_none()),
                _ => {
                    let ps = c.report.pattern_source.as_ref().unwrap();
                    assert_eq!(ps.source, c.source);
                    assert_eq!(
                        ps.source_detected + ps.aliased + ps.compactor_masked + ps.x_masked,
                        ps.kernel_detected,
                        "{} {}: {ps:?}",
                        c.id,
                        c.source
                    );
                }
            }
        }

        // Rendering: one flow row per cell plus block sections; the
        // shape-check text names every source.
        let csv = matrix.to_csv();
        assert!(csv.starts_with("source,design,clocking"), "{csv}");
        // One flow row and one delay-quality row per edt cell.
        assert_eq!(
            csv.lines().filter(|l| l.starts_with("edt,")).count(),
            MATRIX_MODES.len() * 2
        );
        let text = matrix.to_string();
        for source in ["external", "edt", "lbist"] {
            assert!(text.contains(&format!("[{source}]")), "{text}");
        }
        assert_eq!(matrix.shape_checks().len(), 6);
    }
}
