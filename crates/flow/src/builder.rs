//! The [`TestFlow`] builder — the one orchestration surface for the
//! paper's pipeline: bind a capture model, pick a clocking mode, build
//! the named capture procedures, run ATPG through a pluggable
//! fault-sim engine, classify the leftovers and report.

use crate::procedures::build_procedures;
use crate::report::{LintBlock, TraceBlock};
use crate::source::{PatternSource, PatternSourceBlock};
use crate::timing::{run_quality, TimingConfig, DEFAULT_DOMAIN_PERIOD_PS};
use crate::{EngineChoice, FlowError, FlowReport, Stage, StageTiming};
use occ_atpg::{
    classify_faults, run_atpg, AtpgEngine, AtpgKernelStats, AtpgOptions, AtpgResult, AtpgStats,
    CompiledPodem, PatternFill, RandomFill,
};
use occ_bist::{regrade_edt, run_lbist, x_source_count, ChainMap, EdtFill};
use occ_core::{ClockDomainSpec, ClockingMode};
use occ_dft::{EdtCodec, EdtConfig};
use occ_fault::{FaultModel, FaultUniverse};
use occ_fsim::{CancelToken, CaptureModel, ClockBinding, ParallelFaultSim, SimGraph};
use occ_lint::{LintGate, Linter};
use occ_netlist::Netlist;
use occ_obs::{SpanRecorder, SpanTree};
use occ_sim::{DelayModel, Time};
use occ_soc::Soc;
use std::sync::Arc;

/// What the flow runs on: a generated [`Soc`] (the standard path) or a
/// caller-supplied netlist + clock binding (custom designs, tests).
#[derive(Debug)]
enum Source<'s> {
    Soc(&'s Soc),
    Model {
        netlist: &'s Netlist,
        binding: ClockBinding,
    },
}

/// Builder for one end-to-end test-generation pipeline run.
///
/// The seven hand-wired steps every experiment used to repeat —
/// generate SOC, insert scan, pick a clocking mode, build capture
/// procedures, run ATPG, fault-simulate, report coverage — collapse
/// into one chain:
///
/// ```no_run
/// use occ_flow::{EngineChoice, FaultKind, TestFlow};
/// use occ_core::ClockingMode;
/// use occ_atpg::AtpgOptions;
/// use occ_soc::{generate, SocConfig};
///
/// # fn main() -> Result<(), occ_flow::FlowError> {
/// let soc = generate(&SocConfig::paper_like(7, 60));
/// let report = TestFlow::new(&soc)
///     .clocking(ClockingMode::EnhancedCpf { max_pulses: 4 })
///     .fault_model(FaultKind::Transition)
///     .engine(EngineChoice::Sharded { threads: 8 })
///     .atpg(AtpgOptions::default())
///     .run()?;
/// println!("{}", report.to_json());
/// # Ok(())
/// # }
/// ```
///
/// Misconfiguration returns a typed [`FlowError`] instead of
/// panicking; see the crate docs for the full validation list.
#[derive(Debug)]
pub struct TestFlow<'s> {
    source: Source<'s>,
    clocking: ClockingMode,
    fault_model: FaultModel,
    engine: EngineChoice,
    atpg: AtpgOptions,
    mask_bidi: bool,
    timing: Option<TimingConfig>,
    lint: Option<LintGate>,
    pattern_source: PatternSource,
    graph: Option<Arc<SimGraph>>,
    cancel: CancelToken,
    trace: bool,
}

impl<'s> TestFlow<'s> {
    /// Starts a flow over a generated SOC.
    ///
    /// Defaults: ideal external clock (4 pulses), transition faults,
    /// serial fault-sim engine, default [`AtpgOptions`], bidi feedback
    /// unmasked.
    pub fn new(soc: &'s Soc) -> Self {
        Self::from_source(Source::Soc(soc))
    }

    /// Starts a flow over an arbitrary netlist with an explicit clock
    /// binding (custom wrappers, hand-built designs, misconfiguration
    /// tests). `mask_bidi` has no effect on this source — the binding
    /// already says what is masked.
    pub fn over(netlist: &'s Netlist, binding: ClockBinding) -> Self {
        Self::from_source(Source::Model { netlist, binding })
    }

    /// The defaults both public constructors share.
    fn from_source(source: Source<'s>) -> Self {
        TestFlow {
            source,
            clocking: ClockingMode::ExternalClock { max_pulses: 4 },
            fault_model: FaultModel::Transition,
            engine: EngineChoice::Serial,
            atpg: AtpgOptions::default(),
            mask_bidi: false,
            timing: None,
            lint: None,
            pattern_source: PatternSource::ExternalAtpg,
            graph: None,
            cancel: CancelToken::never(),
            trace: false,
        }
    }

    /// Selects the clocking mode (which capture procedures the clock
    /// generation scheme can physically deliver).
    #[must_use]
    pub fn clocking(mut self, mode: ClockingMode) -> Self {
        self.clocking = mode;
        self
    }

    /// Selects the fault model (stuck-at or transition).
    #[must_use]
    pub fn fault_model(mut self, kind: FaultModel) -> Self {
        self.fault_model = kind;
        self
    }

    /// Selects how many workers grade faults (see [`EngineChoice`]).
    #[must_use]
    pub fn engine(mut self, choice: EngineChoice) -> Self {
        self.engine = choice;
        self
    }

    /// Overrides the ATPG options (backtrack limit, random bootstrap,
    /// compaction, fill seed).
    #[must_use]
    pub fn atpg(mut self, options: AtpgOptions) -> Self {
        self.atpg = options;
        self
    }

    /// Masks the bidirectional-pad feedback paths (the ATE constraint
    /// of experiments (c)–(e)). Only meaningful for SOC sources.
    #[must_use]
    pub fn mask_bidi(mut self, mask: bool) -> Self {
        self.mask_bidi = mask;
        self
    }

    /// Enables the delay-test-quality stage under the given delay
    /// model: after ATPG, the final pattern set is re-graded through
    /// the timed PPSFP kernel, on the workers the selected
    /// [`EngineChoice`] resolves to, and the report gains a `delay_quality`
    /// block (SDQL, weighted coverage, slack histogram, per-procedure
    /// capture windows). Strictly additive — fault statuses, pattern
    /// sets and every pre-existing report field are unchanged.
    #[must_use]
    pub fn timing(self, delays: DelayModel) -> Self {
        self.timing_config(TimingConfig::from(delays))
    }

    /// Enables the delay-test-quality stage with full control over the
    /// tester period, per-domain functional periods and the defect
    /// distribution (see [`TimingConfig`]).
    #[must_use]
    pub fn timing_config(mut self, config: TimingConfig) -> Self {
        self.timing = Some(config);
        self
    }

    /// Enables the pre-ATPG lint stage under the given gate.
    ///
    /// The [`Linter`] runs every static design-rule and testability
    /// check (comb loops, floating nets, duplicate names, non-scan
    /// capture flops, mode-aware at-speed CDC paths, scan-chain
    /// integrity, structural untestability) over the bound capture
    /// model before any test generation.
    ///
    /// * [`LintGate::Deny`] — error-severity violations abort the run
    ///   with [`FlowError::LintDenied`]; warnings are reported only.
    /// * [`LintGate::Warn`] — everything is reported, nothing aborts.
    ///
    /// Either way, faults the linter proves structurally untestable
    /// are pre-classified as [`occ_fault::FaultStatus::Untestable`]
    /// and their PODEM searches skipped — the resulting pattern set
    /// and coverage are identical to the unlinted flow (the proofs are
    /// sound; see [`occ_atpg::run_atpg`]).
    #[must_use]
    pub fn lint(mut self, gate: LintGate) -> Self {
        self.lint = Some(gate);
        self
    }

    /// Selects how patterns are delivered to the scan chains (see
    /// [`PatternSource`]).
    ///
    /// * [`PatternSource::ExternalAtpg`] (default) — tester-driven
    ///   deterministic patterns; flows and reports are unchanged.
    /// * [`PatternSource::Edt`] — ATPG cubes are solved into channel
    ///   data by the EDT decompressor and responses are observed
    ///   through the space compactor; the fault list is re-graded
    ///   under compacted observation and the report gains a
    ///   `pattern_source` block (compression ratio, cube splits,
    ///   compactor-masked / X-masked detections). SOC flows only.
    /// * [`PatternSource::Lbist`] — PRPG-filled pseudo-random
    ///   patterns graded through the MISR; replaces the ATPG stage
    ///   entirely and the block carries the predicted signature,
    ///   aliasing count and X-source validity. SOC flows only.
    #[must_use]
    pub fn pattern_source(mut self, source: PatternSource) -> Self {
        self.pattern_source = source;
        self
    }

    /// Hands the flow the design's already-compiled [`SimGraph`] (from
    /// a design cache): the bind stage skips graph compilation and
    /// shares the `Arc`. The graph must come from this flow's netlist;
    /// a cell or flop count mismatch fails the bind stage with
    /// [`FlowError::Model`]. Reports are byte-identical to a run that
    /// compiles its own graph. Every other stage (procedures, delay
    /// table) is built per run: each costs microseconds.
    #[must_use]
    pub fn graph(mut self, graph: Arc<SimGraph>) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Enables span-tree capture: the run installs a
    /// [`SpanRecorder`] with detail spans on, so every substage
    /// (ATPG phases, fault-sim batches, STA passes) records, and the
    /// report gains a `trace` block holding the span forest.
    /// Per-stage timings are identical in schema either way — they
    /// are derived from the same stage spans — and untraced reports
    /// are byte-identical to before tracing existed.
    #[must_use]
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Attaches a cooperative [`CancelToken`]: the pipeline polls it at
    /// every stage boundary and threads it into the ATPG/fault-sim
    /// batch loops. When it trips, [`TestFlow::run`] abandons all
    /// partial state and returns [`FlowError::Cancelled`] or
    /// [`FlowError::DeadlineExceeded`]; cancellation latency is
    /// bounded by one PODEM search plus one fault-simulation block.
    /// The default token never trips.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Runs the pipeline: bind model → procedures → fault universe →
    /// ATPG (through the selected engine) → classify → report.
    ///
    /// # Errors
    ///
    /// Returns a typed [`FlowError`] for every misconfiguration the
    /// hand-wired pipelines used to panic on: zero worker threads,
    /// model-binding failures, zero clock domains, missing scan chains
    /// and clocking modes that cannot produce the procedures the fault
    /// model needs.
    pub fn run(&self) -> Result<FlowReport, FlowError> {
        let threads = self.engine.resolve_threads()?;
        // Stage-boundary cancellation poll; the batch loops inside ATPG
        // poll the same token at a finer grain.
        let check_cancel = || -> Result<(), FlowError> {
            match self.cancel.cause() {
                Some(cause) => Err(cause.into()),
                None => Ok(()),
            }
        };
        check_cancel()?;
        // Reuse an already-installed recorder (a traced service job
        // installs one around the whole job, so design-cache spans
        // join the same forest); otherwise install our own for the
        // duration of the run. Detail spans record only when tracing —
        // the default path records just the stage spans the report's
        // timings are derived from.
        let (recorder, _scope) = match occ_obs::current() {
            Some(r) => (r, None),
            None => {
                let r = SpanRecorder::new();
                let scope = r.install(self.trace);
                (r, Some(scope))
            }
        };
        let flow_span = occ_obs::stage_span("flow");
        let root_id = flow_span.id().unwrap_or(0);

        let (netlist, binding) = match &self.source {
            Source::Soc(soc) => (soc.netlist(), soc.binding(self.mask_bidi)),
            Source::Model { netlist, binding } => (*netlist, binding.clone()),
        };

        let stage_guard = occ_obs::stage_span(Stage::BindModel.label());
        let model = match &self.graph {
            Some(graph) => CaptureModel::with_graph(netlist, binding, Arc::clone(graph))?,
            None => CaptureModel::new(netlist, binding)?,
        };
        drop(stage_guard);
        if model.domain_count() == 0 {
            return Err(FlowError::NoDomains);
        }
        if model.scan_flops().is_empty() {
            return Err(FlowError::NoScanChains);
        }
        check_cancel()?;

        let stage_guard = occ_obs::stage_span(Stage::Procedures.label());
        let procedures = build_procedures(self.clocking, self.fault_model, model.domain_count())?;
        drop(stage_guard);

        let stage_guard = occ_obs::stage_span(Stage::FaultUniverse.label());
        let universe = match self.fault_model {
            FaultModel::StuckAt => FaultUniverse::stuck_at(netlist),
            FaultModel::Transition => FaultUniverse::transition(netlist),
        };
        drop(stage_guard);
        check_cancel()?;

        let lint = if let Some(gate) = self.lint {
            let stage_guard = occ_obs::stage_span(Stage::Lint.label());
            let mut linter = Linter::new(&model).mode(self.clocking);
            if let Source::Soc(soc) = &self.source {
                linter = linter.chains(soc.chains());
            }
            let lint_report = linter.run_with_universe(&universe);
            drop(stage_guard);
            if !lint_report.passes(gate) {
                return Err(FlowError::LintDenied {
                    errors: lint_report.errors(),
                    first: lint_report
                        .first_error()
                        .map(ToString::to_string)
                        .unwrap_or_default(),
                });
            }
            Some(LintBlock {
                gate,
                report: lint_report,
            })
        } else {
            None
        };
        let pre_untestable: &[occ_fault::Fault] = lint
            .as_ref()
            .map_or(&[], |l| l.report.untestable.as_slice());
        check_cancel()?;

        let mut pattern_source: Option<PatternSourceBlock> = None;
        let (mut result, kernel, atpg_kernel) =
            if let PatternSource::Lbist(cfg) = &self.pattern_source {
                // LBIST replaces deterministic generation outright: the
                // PRPG fills the chains, the MISR observes them, and the
                // kernel referees which detections survive compaction.
                let Source::Soc(soc) = &self.source else {
                    return Err(FlowError::PatternSourceNeedsSoc { source: "lbist" });
                };
                let x_sources = match &lint {
                    Some(l) => x_source_count(&l.report.diagnostics),
                    // X-bounding is part of the LBIST contract even when
                    // the lint stage was not configured: audit X-sources
                    // internally so the signature validity is always
                    // honest.
                    None => {
                        let r = Linter::new(&model)
                            .mode(self.clocking)
                            .chains(soc.chains())
                            .run();
                        x_source_count(&r.diagnostics)
                    }
                };
                let stage_guard = occ_obs::stage_span(Stage::PatternSource.label());
                let outcome = run_lbist(
                    &model,
                    &procedures,
                    universe,
                    soc.chains(),
                    cfg,
                    pre_untestable,
                    x_sources,
                    &self.cancel,
                )?;
                drop(stage_guard);
                let r = outcome.report;
                pattern_source = Some(PatternSourceBlock {
                    source: "lbist".to_owned(),
                    kernel_detected: r.kernel_detected,
                    source_detected: r.bist_detected,
                    aliased: r.aliased,
                    compactor_masked: 0,
                    x_masked: r.x_masked,
                    signature: r.signature,
                    signature_valid: Some(r.signature_valid),
                    x_sources: r.x_sources,
                    compression_ratio: 0.0,
                    encode_splits: 0,
                    dropped_cubes: 0,
                });
                let result = AtpgResult {
                    patterns: outcome.patterns,
                    faults: outcome.faults,
                    stats: AtpgStats::default(),
                };
                (result, outcome.kernel, AtpgKernelStats::default())
            } else {
                let atpg_guard = occ_obs::stage_span(Stage::Atpg.label());
                // Every engine choice grades on the sharded engine: at
                // one thread (`serial`) it spawns no pool and grades
                // inline on a cached serial kernel.
                let mut engine = ParallelFaultSim::with_threads(&model, threads);
                let mut podem = CompiledPodem::new(&model);
                // EDT delivers every ATPG cube through the decompressor
                // instead of directly from the tester; external ATPG
                // random-fills.
                let mut edt = match &self.pattern_source {
                    PatternSource::Edt(cfg) => {
                        let Source::Soc(soc) = &self.source else {
                            return Err(FlowError::PatternSourceNeedsSoc { source: "edt" });
                        };
                        let map = ChainMap::new(&model, soc.chains());
                        let cfg = resolve_edt_geometry(cfg, &map)?;
                        let codec = EdtCodec::new(cfg);
                        let fill = EdtFill::new(codec.clone(), map.clone(), self.atpg.fill_seed);
                        Some((codec, map, fill))
                    }
                    _ => None,
                };
                let mut random;
                let fill: &mut dyn PatternFill = match &mut edt {
                    Some((_, _, fill)) => fill,
                    None => {
                        random = RandomFill::new(self.atpg.fill_seed);
                        &mut random
                    }
                };
                let mut result = run_atpg(
                    &model,
                    &procedures,
                    universe,
                    &self.atpg,
                    &mut engine,
                    &mut podem,
                    pre_untestable,
                    &self.cancel,
                    fill,
                )?;
                drop(atpg_guard);
                if let Some((codec, map, fill)) = &edt {
                    // Re-grade the final pattern set under compacted
                    // observation: detections that die to XOR
                    // cancellation or X-poisoning in the compactor are
                    // taken away again, with the loss accounted.
                    let stage_guard = occ_obs::stage_span(Stage::PatternSource.label());
                    let (faults, grade) = regrade_edt(
                        &model,
                        &procedures,
                        &result.patterns,
                        &result.faults,
                        codec,
                        map,
                        &self.cancel,
                    )?;
                    result.faults = faults;
                    drop(stage_guard);
                    pattern_source = Some(PatternSourceBlock {
                        source: "edt".to_owned(),
                        kernel_detected: grade.kernel_detected,
                        source_detected: grade.edt_detected,
                        aliased: 0,
                        compactor_masked: grade.compactor_masked,
                        x_masked: grade.x_masked,
                        signature: None,
                        signature_valid: None,
                        x_sources: 0,
                        compression_ratio: fill.compression_ratio(),
                        encode_splits: fill.splits(),
                        dropped_cubes: fill.dropped_cubes(),
                    });
                }
                (result, engine.kernel_stats(), podem.kernel_stats())
            };

        let stage_guard = occ_obs::stage_span(Stage::Classify.label());
        classify_faults(&model, &mut result.faults);
        drop(stage_guard);
        check_cancel()?;

        let delay_quality = self
            .timing
            .as_ref()
            .map(|cfg| {
                let stage_guard = occ_obs::stage_span(Stage::Timing.label());
                let periods = self.domain_periods(cfg, model.domain_count());
                let q = run_quality(
                    &model,
                    &procedures,
                    self.clocking,
                    &result,
                    cfg,
                    &periods,
                    threads,
                    &self.cancel,
                );
                drop(stage_guard);
                q
            })
            .transpose()?;
        check_cancel()?;

        // The root span must drop before the records are read — a
        // span's record lands in the recorder at guard drop.
        drop(flow_span);
        let records = recorder.records();
        let stages: Vec<StageTiming> = records
            .iter()
            .filter(|r| r.parent == root_id)
            .filter_map(|r| {
                Stage::from_label(r.name).map(|stage| StageTiming {
                    stage,
                    seconds: r.seconds(),
                })
            })
            .collect();
        let trace = self.trace.then(|| TraceBlock {
            tree: SpanTree::build(&records),
        });
        self.feed_metrics(&stages, &kernel, &atpg_kernel, &result.stats);

        let coverage = result.report();
        Ok(FlowReport {
            design: netlist.name().to_owned(),
            clocking: self.clocking,
            fault_model: self.fault_model,
            engine: self.engine.label().to_owned(),
            threads,
            procedures: procedures.len(),
            stages,
            coverage,
            kernel,
            atpg_kernel,
            lint,
            delay_quality,
            pattern_source,
            trace,
            result,
        })
    }

    /// Feeds the process-wide metric catalog from the run's stat
    /// structs — one batch of relaxed atomic adds at flow end, so the
    /// kernels' inner loops stay free of shared-counter traffic.
    fn feed_metrics(
        &self,
        stages: &[StageTiming],
        kernel: &occ_fsim::KernelStats,
        atpg_kernel: &occ_atpg::AtpgKernelStats,
        stats: &AtpgStats,
    ) {
        let m = occ_obs::metrics();
        m.kernel_faults_graded.add(kernel.faults_graded);
        m.kernel_cone_pruned.add(kernel.cone_pruned);
        m.kernel_events.add(kernel.events);
        m.atpg_decisions.add(atpg_kernel.decisions);
        m.atpg_backtracks.add(atpg_kernel.backtracks);
        m.atpg_events.add(atpg_kernel.events);
        m.atpg_podem_calls.add(stats.podem_calls as u64);
        m.atpg_tests_found.add(stats.tests_found as u64);
        m.atpg_aborted_calls.add(stats.aborted_calls as u64);
        for st in stages {
            if let Some(h) = m.stage(st.stage.label()) {
                h.observe(st.seconds);
            }
        }
    }

    /// The per-domain functional periods the quality stage grades
    /// against: explicit config wins (padded with the default period
    /// when shorter than the domain count, so the functional
    /// thresholds and capture windows always agree on one period per
    /// domain), SOC sources derive them from the generator's domain
    /// frequencies, custom netlists fall back to the paper's
    /// fast-domain period.
    fn domain_periods(&self, cfg: &TimingConfig, n_domains: usize) -> Vec<Time> {
        if !cfg.domain_periods_ps.is_empty() {
            let mut periods = cfg.domain_periods_ps.clone();
            if periods.len() < n_domains {
                periods.resize(n_domains, DEFAULT_DOMAIN_PERIOD_PS);
            }
            return periods;
        }
        match &self.source {
            Source::Soc(soc) => soc
                .config()
                .domains
                .iter()
                .map(|d| ClockDomainSpec::new(&d.name, d.freq_mhz).period_ps())
                .collect(),
            Source::Model { .. } => vec![DEFAULT_DOMAIN_PERIOD_PS; n_domains],
        }
    }
}

/// Resolves an [`EdtConfig`] against the design's actual scan
/// geometry. A config with `chains == 0` (see [`EdtConfig::auto`]) is
/// derived: chains and shift length from the chain map, channel count
/// from the paper's ~10:1 chain:channel shape, and ring length from
/// the channel count — a ring much longer than the variables a
/// channel can inject within warmup leaves decompressor outputs
/// structurally constant, so `auto` sizes it at 8 cells per channel.
/// An explicit config must match the design exactly. Either way the
/// channel count must lie in `1..=chains` — checked before anything is
/// sized by it, since the codec's tables grow with it.
fn resolve_edt_geometry(cfg: &EdtConfig, map: &ChainMap) -> Result<EdtConfig, FlowError> {
    let check_channels = |channels: usize| {
        if (1..=map.chains()).contains(&channels) {
            Ok(())
        } else {
            Err(FlowError::EdtChannelCount {
                channels,
                chains: map.chains(),
            })
        }
    };
    if cfg.chains == 0 {
        let chains = map.chains();
        let channels = if cfg.channels > 0 {
            cfg.channels
        } else {
            (chains / 10).max(1)
        };
        check_channels(channels)?;
        let lfsr_len = if cfg.lfsr_len > 0 {
            cfg.lfsr_len
        } else {
            (channels * 8).clamp(16, 64)
        };
        return Ok(EdtConfig {
            channels,
            chains,
            shift_len: map.shift_len(),
            lfsr_len,
            warmup: cfg.warmup.max(1),
            seed: cfg.seed,
        });
    }
    if cfg.chains != map.chains() || cfg.shift_len != map.shift_len() {
        return Err(FlowError::EdtGeometryMismatch {
            config: (cfg.chains, cfg.shift_len),
            design: (map.chains(), map.shift_len()),
        });
    }
    check_channels(cfg.channels)?;
    Ok(cfg.clone())
}
