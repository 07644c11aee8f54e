//! The structured outcome of a flow run: per-stage timings, ATPG
//! counters, the coverage report, and its JSON (a [`Json`] tree) and
//! CSV forms.

use crate::source::PatternSourceBlock;
use crate::Json;
use occ_atpg::{AtpgKernelStats, AtpgResult, AtpgStats};
use occ_core::ClockingMode;
use occ_fault::{CoverageReport, FaultModel};
use occ_fsim::KernelStats;
use occ_lint::{LintGate, LintReport, RuleId};
use occ_obs::{AttrValue, SpanNode, SpanTree};
use occ_timing::QualityReport;
use std::fmt;
use std::io::{self, Write};

/// The lint stage's outcome as carried by a [`FlowReport`]: the gate
/// the flow applied plus the full [`LintReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintBlock {
    /// The severity gate the flow was configured with.
    pub gate: LintGate,
    /// The analyzer's findings and untestability verdict.
    pub report: LintReport,
}

/// One pipeline stage of a flow run, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Binding the netlist + clock binding into a capture model.
    BindModel,
    /// Building the named capture procedures for the clocking mode.
    Procedures,
    /// Enumerating and collapsing the fault universe.
    FaultUniverse,
    /// Static design-rule and testability analysis (pre-ATPG); only
    /// runs when `TestFlow::lint` was configured.
    Lint,
    /// The ATPG run itself (bootstrap, PODEM, fault sim, compaction).
    Atpg,
    /// The embedded pattern-source pass: LBIST generation + MISR
    /// grading, or EDT compacted-observation re-grade; only runs when
    /// `TestFlow::pattern_source` selected an embedded source.
    PatternSource,
    /// Structural classification of leftover faults.
    Classify,
    /// The delay-test-quality pass (STA + timed re-grade); only runs
    /// when `TestFlow::timing` was configured.
    Timing,
}

impl Stage {
    /// The stable machine-readable stage name.
    pub fn label(self) -> &'static str {
        match self {
            Stage::BindModel => "bind-model",
            Stage::Procedures => "procedures",
            Stage::FaultUniverse => "fault-universe",
            Stage::Lint => "lint",
            Stage::Atpg => "atpg",
            Stage::PatternSource => "pattern-source",
            Stage::Classify => "classify",
            Stage::Timing => "timing",
        }
    }

    /// The inverse of [`Stage::label`]: the stage a span name denotes,
    /// if any (how per-stage timings are derived from the span
    /// recorder).
    pub fn from_label(label: &str) -> Option<Stage> {
        match label {
            "bind-model" => Some(Stage::BindModel),
            "procedures" => Some(Stage::Procedures),
            "fault-universe" => Some(Stage::FaultUniverse),
            "lint" => Some(Stage::Lint),
            "atpg" => Some(Stage::Atpg),
            "pattern-source" => Some(Stage::PatternSource),
            "classify" => Some(Stage::Classify),
            "timing" => Some(Stage::Timing),
            _ => None,
        }
    }
}

/// The captured span forest of a traced flow run (opt-in via
/// [`TestFlow::trace`](crate::TestFlow::trace) or a `trace: true`
/// wire request). Absent on untraced runs — their reports are
/// byte-identical to before tracing existed.
#[derive(Debug)]
pub struct TraceBlock {
    /// The span forest: the `flow` root span (stage spans beneath it,
    /// detail spans beneath those) plus any sibling roots recorded in
    /// the same scope (per-job design-cache spans).
    pub tree: SpanTree,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Wall-clock seconds spent in one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// Which stage.
    pub stage: Stage,
    /// Elapsed seconds.
    pub seconds: f64,
}

/// Everything a [`TestFlow`](crate::TestFlow) run produces: identity
/// (design, mode, engine), per-stage timings, ATPG statistics, the
/// coverage report and the full [`AtpgResult`] (pattern set + fault
/// statuses) for downstream consumers.
#[derive(Debug)]
pub struct FlowReport {
    /// Design name.
    pub design: String,
    /// The clocking mode the flow ran under.
    pub clocking: ClockingMode,
    /// The fault model targeted.
    pub fault_model: FaultModel,
    /// Fault-sim engine label (`serial` / `sharded` / `auto`).
    pub engine: String,
    /// Resolved worker-thread count.
    pub threads: usize,
    /// Number of capture procedures offered to ATPG.
    pub procedures: usize,
    /// Per-stage wall-clock timings, in execution order.
    pub stages: Vec<StageTiming>,
    /// Coverage / efficiency statistics (the Table 1 columns),
    /// snapshotted when the flow completed. Re-derive with
    /// `result.report()` after mutating `result.faults`.
    pub coverage: CoverageReport,
    /// Compiled fault-sim kernel statistics: graph shape (cells
    /// compiled, observability-cone sizes) plus the grading work the
    /// engine performed (faults graded, cone-pruned faults, events
    /// propagated). All-zero for engines without a compiled kernel.
    pub kernel: KernelStats,
    /// ATPG kernel statistics: PODEM decisions and backtracks, value-
    /// engine events and incremental vs full re-simulations.
    pub atpg_kernel: AtpgKernelStats,
    /// The lint stage's gate and findings. `None` unless the flow ran
    /// with `TestFlow::lint` — reports of unlinted flows are
    /// unchanged.
    pub lint: Option<LintBlock>,
    /// Delay-test quality (SDQL, weighted coverage, slack histogram,
    /// per-procedure capture windows). `None` unless the flow ran with
    /// `TestFlow::timing` — reports of untimed flows are unchanged.
    pub delay_quality: Option<QualityReport>,
    /// Embedded pattern-source accounting (MISR signature / aliasing,
    /// EDT compression / compactor masking). `None` for external-ATPG
    /// flows — their reports are unchanged.
    pub pattern_source: Option<PatternSourceBlock>,
    /// The captured span forest. `None` unless the flow ran with
    /// `TestFlow::trace(true)` — untraced reports are unchanged.
    pub trace: Option<TraceBlock>,
    /// The full ATPG result: compacted pattern set and fault statuses.
    pub result: AtpgResult,
}

impl FlowReport {
    /// Generated pattern count (scan loads).
    pub fn patterns(&self) -> usize {
        self.result.patterns.len()
    }

    /// ATPG run counters.
    pub fn stats(&self) -> &AtpgStats {
        &self.result.stats
    }

    /// Test coverage in percent.
    pub fn coverage_pct(&self) -> f64 {
        self.coverage.coverage_pct()
    }

    /// ATPG efficiency in percent.
    pub fn efficiency_pct(&self) -> f64 {
        self.coverage.efficiency_pct()
    }

    /// Total wall-clock seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Seconds spent in one stage (0.0 if the stage did not run).
    pub fn stage_seconds(&self, stage: Stage) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.seconds)
            .sum()
    }

    /// The report (minus the raw pattern data) as one JSON object.
    /// Every float is rounded to six decimals and every non-finite one
    /// is `null`; integers are exact.
    pub fn json(&self) -> Json {
        let c = &self.coverage;
        let s = &self.result.stats;
        let k = &self.kernel;
        let a = &self.atpg_kernel;
        let mut members = vec![
            ("design", self.design.as_str().into()),
            ("clocking", self.clocking.label().into()),
            ("fault_model", fault_model_label(self.fault_model).into()),
            ("engine", self.engine.as_str().into()),
            ("threads", self.threads.into()),
            ("procedures", self.procedures.into()),
            ("patterns", self.patterns().into()),
            ("total_faults", c.total.into()),
            ("detected", c.detected.into()),
            ("untestable", c.untestable.into()),
            ("aborted", c.aborted.into()),
            ("constrained", c.constrained.into()),
            ("undetected", c.undetected.into()),
            ("coverage_pct", six(self.coverage_pct())),
            ("efficiency_pct", six(self.efficiency_pct())),
            (
                "stats",
                Json::obj([
                    ("targeted", s.targeted.into()),
                    ("podem_calls", s.podem_calls.into()),
                    ("tests_found", s.tests_found.into()),
                    ("aborted_calls", s.aborted_calls.into()),
                    (
                        "patterns_before_compaction",
                        s.patterns_before_compaction.into(),
                    ),
                    ("fsim_batches", s.fsim_batches.into()),
                    ("lint_pruned", s.lint_pruned.into()),
                ]),
            ),
            (
                "kernel",
                Json::obj([
                    ("cells", k.cells.into()),
                    ("comb_cells", k.comb_cells.into()),
                    ("flops", k.flops.into()),
                    ("cone_scan", k.cone_scan.into()),
                    ("cone_po", k.cone_po.into()),
                    ("faults_graded", k.faults_graded.into()),
                    ("cone_pruned", k.cone_pruned.into()),
                    ("events", k.events.into()),
                ]),
            ),
            (
                "atpg_kernel",
                Json::obj([
                    ("decisions", a.decisions.into()),
                    ("backtracks", a.backtracks.into()),
                    ("events", a.events.into()),
                    ("incremental_resims", a.incremental_resims.into()),
                    ("full_resims", a.full_resims.into()),
                    ("seeded_sims", a.seeded_sims.into()),
                ]),
            ),
        ];
        if let Some(lint) = &self.lint {
            let r = &lint.report;
            let rules = RuleId::ALL
                .iter()
                .map(|&rule| (rule.code(), r.count(rule).into()));
            members.push((
                "lint",
                Json::obj([
                    ("gate", lint.gate.label().into()),
                    ("errors", r.errors().into()),
                    ("warnings", r.warnings().into()),
                    ("untestable", r.untestable.len().into()),
                    ("cells_scanned", r.cells_scanned.into()),
                    ("faults_scanned", r.faults_scanned.into()),
                    ("rules", Json::obj(rules)),
                ]),
            ));
        }
        if let Some(q) = &self.delay_quality {
            let windows = q.windows.iter().map(|win| {
                Json::obj([
                    ("name", win.name.as_str().into()),
                    ("window_ps", win.window_ps.into()),
                    ("at_speed", win.at_speed.into()),
                ])
            });
            members.push((
                "delay_quality",
                Json::obj([
                    ("sdql", six(q.sdql)),
                    ("weighted_coverage_pct", six(q.weighted_coverage_pct)),
                    ("lambda_ps", six(q.lambda_ps)),
                    ("faults", q.faults.into()),
                    ("detected_timed", q.detected_timed.into()),
                    ("mean_test_slack_ps", six(q.mean_test_slack_ps)),
                    ("min_test_slack_ps", q.min_test_slack_ps.into()),
                    ("max_test_slack_ps", q.max_test_slack_ps.into()),
                    ("bucket_ps", q.bucket_ps.into()),
                    ("histogram", q.histogram.iter().copied().collect()),
                    ("windows", windows.collect()),
                ]),
            ));
        }
        if let Some(ps) = &self.pattern_source {
            members.push((
                "pattern_source",
                Json::obj([
                    ("source", ps.source.as_str().into()),
                    ("kernel_detected", ps.kernel_detected.into()),
                    ("source_detected", ps.source_detected.into()),
                    ("aliased", ps.aliased.into()),
                    ("compactor_masked", ps.compactor_masked.into()),
                    ("x_masked", ps.x_masked.into()),
                    ("signature", ps.signature.into()),
                    ("signature_valid", ps.signature_valid.into()),
                    ("x_sources", ps.x_sources.into()),
                    ("compression_ratio", six(ps.compression_ratio)),
                    ("encode_splits", ps.encode_splits.into()),
                    ("dropped_cubes", ps.dropped_cubes.into()),
                ]),
            ));
        }
        if let Some(tr) = &self.trace {
            let spans = tr.tree.roots.iter().map(span_json).collect();
            members.push(("trace", Json::obj([("spans", spans)])));
        }
        let stages = self.stages.iter().map(|st| {
            Json::obj([
                ("stage", st.stage.label().into()),
                ("seconds", six(st.seconds)),
            ])
        });
        members.push(("stages", stages.collect()));
        members.push(("total_seconds", six(self.total_seconds())));
        Json::obj(members)
    }

    /// [`FlowReport::json`], rendered.
    pub fn to_json(&self) -> String {
        self.json().to_string()
    }

    /// The CSV header matching [`FlowReport::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "design,clocking,fault_model,engine,threads,procedures,patterns,\
         total_faults,detected,untestable,aborted,constrained,undetected,\
         coverage_pct,efficiency_pct,total_seconds"
    }

    /// One CSV data row (no trailing newline).
    pub fn to_csv_row(&self) -> String {
        let fm = fault_model_label(self.fault_model);
        let c = &self.coverage;
        format!(
            "{},{},{fm},{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4}",
            csv_field(&self.design),
            self.clocking.label(),
            csv_field(&self.engine),
            self.threads,
            self.procedures,
            self.patterns(),
            c.total,
            c.detected,
            c.untestable,
            c.aborted,
            c.constrained,
            c.undetected,
            self.coverage_pct(),
            self.efficiency_pct(),
            self.total_seconds(),
        )
    }

    /// The CSV header of the `lint` block (see
    /// [`FlowReport::lint_csv_row`]).
    pub fn lint_csv_header() -> &'static str {
        "design,gate,errors,warnings,untestable,lint_pruned,\
         l001,l002,l003,l004,l005,l006,l007,l008"
    }

    /// One CSV row of lint data, when the flow ran the lint stage.
    pub fn lint_csv_row(&self) -> Option<String> {
        let lint = self.lint.as_ref()?;
        let r = &lint.report;
        let counts: Vec<String> = RuleId::ALL
            .iter()
            .map(|rule| r.count(*rule).to_string())
            .collect();
        Some(format!(
            "{},{},{},{},{},{},{}",
            csv_field(&self.design),
            lint.gate.label(),
            r.errors(),
            r.warnings(),
            r.untestable.len(),
            self.result.stats.lint_pruned,
            counts.join(","),
        ))
    }

    /// The CSV header of the `delay_quality` block (see
    /// [`FlowReport::delay_quality_csv_row`]).
    pub fn delay_quality_csv_header() -> &'static str {
        "design,clocking,sdql,weighted_coverage_pct,lambda_ps,faults,detected_timed,\
         mean_test_slack_ps,min_test_slack_ps,max_test_slack_ps,min_window_ps,max_window_ps"
    }

    /// One CSV row of delay-quality data, when the flow ran the timing
    /// stage.
    pub fn delay_quality_csv_row(&self) -> Option<String> {
        let q = self.delay_quality.as_ref()?;
        let min_w = q.windows.iter().map(|w| w.window_ps).min().unwrap_or(0);
        let max_w = q.windows.iter().map(|w| w.window_ps).max().unwrap_or(0);
        Some(format!(
            "{},{},{:.6},{:.4},{:.1},{},{},{:.1},{},{},{},{}",
            csv_field(&self.design),
            self.clocking.label(),
            q.sdql,
            q.weighted_coverage_pct,
            q.lambda_ps,
            q.faults,
            q.detected_timed,
            q.mean_test_slack_ps,
            q.min_test_slack_ps,
            q.max_test_slack_ps,
            min_w,
            max_w,
        ))
    }

    /// The CSV header of the `pattern_source` block (see
    /// [`FlowReport::pattern_source_csv_row`]).
    pub fn pattern_source_csv_header() -> &'static str {
        "design,source,kernel_detected,source_detected,aliased,compactor_masked,\
         x_masked,signature,signature_valid,x_sources,compression_ratio,\
         encode_splits,dropped_cubes"
    }

    /// One CSV row of pattern-source data, when the flow ran an
    /// embedded pattern source.
    pub fn pattern_source_csv_row(&self) -> Option<String> {
        let ps = self.pattern_source.as_ref()?;
        Some(format!(
            "{},{},{},{},{},{},{},{},{},{},{:.2},{},{}",
            csv_field(&self.design),
            csv_field(&ps.source),
            ps.kernel_detected,
            ps.source_detected,
            ps.aliased,
            ps.compactor_masked,
            ps.x_masked,
            ps.signature
                .map_or_else(String::new, |s| format!("{s:#018x}")),
            ps.signature_valid
                .map_or_else(String::new, |v| v.to_string()),
            ps.x_sources,
            ps.compression_ratio,
            ps.encode_splits,
            ps.dropped_cubes,
        ))
    }

    /// Writes header + row as a two-line CSV document; a flow that ran
    /// the timing stage appends the `delay_quality` header + row pair
    /// (untimed reports are byte-identical to before the stage
    /// existed).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv(&self, w: &mut dyn Write) -> io::Result<()> {
        writeln!(w, "{}", Self::csv_header())?;
        writeln!(w, "{}", self.to_csv_row())?;
        if let Some(row) = self.lint_csv_row() {
            writeln!(w, "{}", Self::lint_csv_header())?;
            writeln!(w, "{row}")?;
        }
        if let Some(row) = self.delay_quality_csv_row() {
            writeln!(w, "{}", Self::delay_quality_csv_header())?;
            writeln!(w, "{row}")?;
        }
        if let Some(row) = self.pattern_source_csv_row() {
            writeln!(w, "{}", Self::pattern_source_csv_header())?;
            writeln!(w, "{row}")?;
        }
        Ok(())
    }
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flow '{}' under {} [{} engine, {} thread(s), {} procedures]",
            self.design, self.clocking, self.engine, self.threads, self.procedures
        )?;
        writeln!(
            f,
            "  coverage {:.2}%  efficiency {:.2}%  patterns {}",
            self.coverage_pct(),
            self.efficiency_pct(),
            self.patterns()
        )?;
        for st in &self.stages {
            writeln!(f, "  stage {:<15} {:>8.3}s", st.stage.label(), st.seconds)?;
        }
        if self.kernel.faults_graded > 0 {
            writeln!(
                f,
                "  kernel: {} cells compiled, {} faults graded \
                 ({} cone-pruned), {} events",
                self.kernel.cells,
                self.kernel.faults_graded,
                self.kernel.cone_pruned,
                self.kernel.events
            )?;
        }
        if self.atpg_kernel.decisions > 0 {
            writeln!(
                f,
                "  atpg kernel: {} decisions ({} backtracks), \
                 {} events, {} incremental / {} full / {} seeded resims",
                self.atpg_kernel.decisions,
                self.atpg_kernel.backtracks,
                self.atpg_kernel.events,
                self.atpg_kernel.incremental_resims,
                self.atpg_kernel.full_resims,
                self.atpg_kernel.seeded_sims
            )?;
        }
        if let Some(lint) = &self.lint {
            writeln!(
                f,
                "  lint [{}]: {} error(s), {} warning(s), \
                 {} untestable fault(s) pre-classified ({} searches skipped)",
                lint.gate,
                lint.report.errors(),
                lint.report.warnings(),
                lint.report.untestable.len(),
                self.result.stats.lint_pruned
            )?;
        }
        if let Some(q) = &self.delay_quality {
            write!(f, "  {q}")?;
        }
        if let Some(ps) = &self.pattern_source {
            writeln!(
                f,
                "  pattern source [{}]: {} of {} kernel detections survive \
                 compaction ({} aliased, {} compactor-masked, {} X-masked)",
                ps.source,
                ps.source_detected,
                ps.kernel_detected,
                ps.aliased,
                ps.compactor_masked,
                ps.x_masked
            )?;
            match (ps.signature, ps.signature_valid) {
                (Some(sig), Some(valid)) => writeln!(
                    f,
                    "    signature {sig:#018x} ({}, {} X-source(s))",
                    if valid { "valid" } else { "invalid" },
                    ps.x_sources
                )?,
                (None, Some(_)) => writeln!(
                    f,
                    "    signature unpredictable (X reached the MISR; {} X-source(s))",
                    ps.x_sources
                )?,
                _ => writeln!(
                    f,
                    "    compression {:.1}x, {} cube split(s), {} dropped",
                    ps.compression_ratio, ps.encode_splits, ps.dropped_cubes
                )?,
            }
        }
        if let Some(tr) = &self.trace {
            writeln!(f, "  trace ({} span(s)):", tr.tree.len())?;
            for line in tr.tree.render().lines() {
                writeln!(f, "    {line}")?;
            }
        }
        write!(f, "  total {:.3}s", self.total_seconds())
    }
}

/// One span node (and its children) as a JSON object.
fn span_json(node: &SpanNode) -> Json {
    let r = &node.record;
    let mut members = vec![
        ("name", r.name.into()),
        ("start_seconds", six(r.start_seconds())),
        ("seconds", six(r.seconds())),
    ];
    if r.alloc_bytes > 0 {
        members.push(("alloc_bytes", r.alloc_bytes.into()));
    }
    if !r.attrs().is_empty() {
        let attrs = r.attrs().iter().map(|&(k, v)| {
            let value = match v {
                AttrValue::U64(n) => n.into(),
                AttrValue::I64(n) => u64::try_from(n).map_or(Json::Num(n as f64), Json::U64),
                AttrValue::F64(x) => six(x),
                AttrValue::Str(s) => s.into(),
            };
            (k, value)
        });
        members.push(("attrs", Json::obj(attrs)));
    }
    if !node.children.is_empty() {
        members.push(("children", node.children.iter().map(span_json).collect()));
    }
    Json::obj(members)
}

/// `v` as the report writes it: the value of its six-decimal
/// rendering (`null` when not finite).
fn six(v: f64) -> Json {
    Json::Num(format!("{v:.6}").parse().unwrap_or(v))
}

fn fault_model_label(model: FaultModel) -> &'static str {
    match model {
        FaultModel::StuckAt => "stuck-at",
        FaultModel::Transition => "transition",
    }
}

/// Quotes a CSV field when it contains a delimiter, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_rounds_to_the_six_decimal_value() {
        assert_eq!(six(1.5), Json::Num(1.5));
        assert_eq!(six(97.123_456_7), Json::Num(97.123_457));
        assert_eq!(six(1e-7).to_string(), "0.0");
        assert_eq!(six(f64::NAN).to_string(), "null");
        assert_eq!(six(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
