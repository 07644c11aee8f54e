//! The traced flow: the service's flow job rebuilt from the layers'
//! public calls, so each call can carry a span.
//!
//! `TestFlow::run` has no per-call hooks, and the flow's timing stage
//! (`run_quality`) is crate-private, so the traced run re-assembles the
//! same pipeline here: design build (`generate`, `CaptureModel::new`),
//! `run_atpg_cancellable` handed wrapped engines, `run_lbist`, and the
//! timing pass from `Sta`, `FaultSim::attach_timing`/`detect` and
//! `QualityReport::compute`. Every workload checks that this rebuild
//! reproduces the untraced job's quality numbers exactly.

use crate::mix::median;
use crate::{spans, Run};
use occ_atpg::{
    classify_faults, run_atpg_cancellable, AtpgEngine, AtpgKernelStats, AtpgResult, AtpgStats,
    CompiledPodem, Observability, PodemOutcome,
};
use occ_bist::{run_lbist, x_source_count};
use occ_core::{capture_window_ps, ClockDomainSpec, ClockingMode};
use occ_fault::{Fault, FaultModel, FaultSite, FaultUniverse};
use occ_flow::{
    build_procedures, EngineChoice, FlowReport, PatternSource, TimingConfig,
    DEFAULT_DOMAIN_PERIOD_PS,
};
use occ_fsim::{
    simulate_good, CancelToken, CaptureModel, FaultSim, FaultSimEngine, FrameSpec, GoodBatch,
    KernelStats, ParallelFaultSim, Pattern, SimGraph, SimTiming,
};
use occ_lint::Linter;
use occ_server::JobSpec;
use occ_sim::{CompiledDelays, DelayModel, Time};
use occ_soc::{generate, Soc, SocConfig};
use occ_timing::{CaptureTargets, FaultSlack, ProcWindow, QualityReport, Sta};
use std::sync::Arc;

/// The numbers a flow must reproduce exactly, wherever it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub coverage_pct: f64,
    pub patterns: usize,
    pub aborted: usize,
    pub undetected: usize,
    pub sdql: f64,
    /// Every fault has exactly one status: the status counts sum to
    /// the fault total.
    pub counts_sum: bool,
    /// LBIST loss accounting is exhaustive (always true for ATPG flows).
    pub accounting: bool,
}

impl Quality {
    pub fn of_report(report: &FlowReport) -> Quality {
        let c = &report.coverage;
        Quality {
            coverage_pct: report.coverage_pct(),
            patterns: report.patterns(),
            aborted: c.aborted,
            undetected: c.undetected,
            sdql: report.delay_quality.as_ref().map_or(0.0, |q| q.sdql),
            counts_sum: c.detected + c.untestable + c.aborted + c.constrained + c.undetected
                == c.total,
            accounting: report.pattern_source.as_ref().is_none_or(|p| {
                p.source_detected + p.aliased + p.compactor_masked + p.x_masked == p.kernel_detected
            }),
        }
    }
}

/// Sets the exact quality metrics from the workload's distinct flows.
/// `unresolved` picks the faults a flow gave up on.
pub fn record_quality(run: &mut Run, quality: &[Quality], unresolved: fn(&Quality) -> usize) {
    let n = quality.len().max(1) as f64;
    run.set(
        "coverage_pct",
        quality.iter().map(|q| q.coverage_pct).sum::<f64>() / n,
    );
    run.set(
        "pattern_count",
        quality.iter().map(|q| q.patterns).sum::<usize>() as f64,
    );
    run.set(
        "aborted_faults",
        quality.iter().map(unresolved).sum::<usize>() as f64,
    );
    run.set("sdql", quality.iter().map(|q| q.sdql).sum());
}

/// Deterministic work counts summed over traced flows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub decisions: u64,
    pub backtracks: u64,
    pub faults_graded: u64,
    pub events: u64,
    /// Σ `GoodBatch::n_patterns` over every graded batch.
    pub lanes: u64,
    pub regrade_detects: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.decisions += o.decisions;
        self.backtracks += o.backtracks;
        self.faults_graded += o.faults_graded;
        self.events += o.events;
        self.lanes += o.lanes;
        self.regrade_detects += o.regrade_detects;
    }
}

/// A generated and compiled design: what the service's artifact cache
/// holds for one `SocConfig`, built here by direct calls.
pub struct Design {
    pub soc: Soc,
    pub graph: Arc<SimGraph>,
    pub delays: CompiledDelays,
}

impl Design {
    pub fn build(config: &SocConfig) -> Design {
        let soc = {
            let _s = spans::enter("soc.generate");
            generate(config)
        };
        let graph = {
            let _s = spans::enter("fsim.compile");
            CaptureModel::new(soc.netlist(), soc.binding(false))
                .expect("generated SOCs always bind")
                .graph_arc()
        };
        let delays = DelayModel::default().compile(soc.netlist());
        Design { soc, graph, delays }
    }

    fn domain_periods(&self) -> Vec<Time> {
        self.soc
            .config()
            .domains
            .iter()
            .map(|d| ClockDomainSpec::new(&d.name, d.freq_mhz).period_ps())
            .collect()
    }
}

/// Times every grading batch, split into full and one-pattern batches.
struct TracedFsim<'e> {
    inner: &'e mut dyn FaultSimEngine,
    lanes: u64,
}

impl FaultSimEngine for TracedFsim<'_> {
    fn detect_batch(&mut self, spec: &FrameSpec, good: &GoodBatch, faults: &[Fault]) -> Vec<u64> {
        let _s = spans::enter(if good.n_patterns == 1 {
            "fsim.single_batch"
        } else {
            "fsim.batch"
        });
        self.lanes += good.n_patterns as u64;
        self.inner.detect_batch(spec, good, faults)
    }

    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    fn worker_threads(&self) -> usize {
        self.inner.worker_threads()
    }

    fn kernel_stats(&self) -> KernelStats {
        self.inner.kernel_stats()
    }

    fn attach_cancel(&mut self, token: CancelToken) {
        self.inner.attach_cancel(token);
    }
}

/// Times every PODEM search and names its span by the outcome.
struct TracedPodem<'e> {
    inner: &'e mut dyn AtpgEngine,
}

impl AtpgEngine for TracedPodem<'_> {
    fn run(
        &mut self,
        spec: &FrameSpec,
        obs: &Observability,
        fault: Fault,
        backtrack_limit: usize,
    ) -> PodemOutcome {
        let span = spans::enter("atpg.podem.test");
        let outcome = self.inner.run(spec, obs, fault, backtrack_limit);
        match outcome {
            PodemOutcome::Test(_) => {}
            PodemOutcome::Aborted => span.rename("atpg.podem.aborted"),
            PodemOutcome::Untestable => span.rename("atpg.podem.untestable"),
        }
        outcome
    }

    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    fn kernel_stats(&self) -> AtpgKernelStats {
        self.inner.kernel_stats()
    }
}

/// Runs one flow job on `design` the way `FlowService::submit` does,
/// with a span around each layer call.
pub fn traced_flow(design: &Design, job: &JobSpec) -> (Quality, Counters) {
    let _flow = spans::enter("flow");
    let netlist = design.soc.netlist();
    let model = CaptureModel::with_graph(
        netlist,
        design.soc.binding(job.mask_bidi),
        Arc::clone(&design.graph),
    )
    .expect("generated SOCs always bind");
    let procedures = build_procedures(job.clocking, job.fault_model, model.domain_count())
        .expect("benchmark flows use supported clocking modes");
    let universe = match job.fault_model {
        FaultModel::StuckAt => FaultUniverse::stuck_at(netlist),
        FaultModel::Transition => FaultUniverse::transition(netlist),
    };
    let never = CancelToken::never();
    let mut counters = Counters::default();
    let mut accounting = true;
    let mut result = match &job.pattern_source {
        PatternSource::Lbist(cfg) => {
            // The flow audits X-sources for the signature's validity
            // even without a lint stage.
            let lint = Linter::new(&model)
                .mode(job.clocking)
                .chains(design.soc.chains())
                .run();
            let x_sources = x_source_count(&lint.diagnostics);
            let outcome = {
                let _s = spans::enter("bist.lbist");
                run_lbist(
                    &model,
                    &procedures,
                    universe,
                    design.soc.chains(),
                    cfg,
                    &[],
                    x_sources,
                    &never,
                )
                .expect("a never-token cannot trip")
            };
            let r = outcome.report;
            accounting = r.bist_detected + r.aliased + r.x_masked == r.kernel_detected;
            AtpgResult {
                patterns: outcome.patterns,
                faults: outcome.faults,
                stats: AtpgStats::default(),
            }
        }
        PatternSource::ExternalAtpg => {
            let threads = job.engine.resolve_threads().expect("non-zero threads");
            let mut serial;
            let mut sharded;
            let inner: &mut dyn FaultSimEngine = match job.engine {
                EngineChoice::Serial => {
                    serial = FaultSim::new(&model);
                    &mut serial
                }
                EngineChoice::Sharded { .. } | EngineChoice::Auto => {
                    sharded = ParallelFaultSim::with_threads(&model, threads);
                    &mut sharded
                }
            };
            let mut compiled = CompiledPodem::new(&model);
            let mut fsim = TracedFsim { inner, lanes: 0 };
            let mut podem = TracedPodem {
                inner: &mut compiled,
            };
            let result = {
                let _s = spans::enter("atpg.run");
                run_atpg_cancellable(
                    &model,
                    &procedures,
                    universe,
                    &job.atpg,
                    &mut fsim,
                    &mut podem,
                    &[],
                    &never,
                )
                .expect("a never-token cannot trip")
            };
            let k = fsim.kernel_stats();
            let a = podem.kernel_stats();
            counters.decisions = a.decisions;
            counters.backtracks = a.backtracks;
            counters.faults_graded = k.faults_graded;
            counters.events = k.events;
            counters.lanes = fsim.lanes;
            result
        }
        PatternSource::Edt(_) => panic!("the benchmark runs no EDT flows"),
    };
    classify_faults(&model, &mut result.faults);
    let sdql = if job.timing {
        quality_pass(
            &model,
            &procedures,
            job.clocking,
            &result,
            design,
            &mut counters.regrade_detects,
        )
        .sdql
    } else {
        0.0
    };
    let c = result.report();
    let quality = Quality {
        coverage_pct: c.coverage_pct(),
        patterns: result.patterns.len(),
        aborted: c.aborted,
        undetected: c.undetected,
        sdql,
        counts_sum: c.detected + c.untestable + c.aborted + c.constrained + c.undetected == c.total,
        accounting,
    };
    (quality, counters)
}

/// Derives the per-layer metrics of a traced pass from its spans and
/// counters. `wall_s` is the pass's wall time.
pub fn record_layers(run: &mut Run, spans: &[spans::Span], counters: &Counters, wall_s: f64) {
    let totals = spans::summarise(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call_ms = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds() * 1e3)
            .collect();
        median(&v)
    };
    run.set("soc.generate_ms", per_call_ms("soc.generate"));
    run.set("fsim.compile_ms", per_call_ms("fsim.compile"));

    let (test, aborted, untestable) = (
        get("atpg.podem.test"),
        get("atpg.podem.aborted"),
        get("atpg.podem.untestable"),
    );
    let calls = test.count + aborted.count + untestable.count;
    run.set("atpg.podem.calls", calls as f64);
    run.set("atpg.podem.test.calls", test.count as f64);
    run.set("atpg.podem.aborted.calls", aborted.count as f64);
    run.set("atpg.podem.untestable.calls", untestable.count as f64);
    run.set("atpg.podem.test_s", test.busy_s);
    run.set("atpg.podem.aborted_s", aborted.busy_s);
    run.set("atpg.podem.untestable_s", untestable.busy_s);
    run.set("atpg.podem.decisions", counters.decisions as f64);
    run.set("atpg.podem.backtracks", counters.backtracks as f64);
    run.set(
        "atpg.podem.useful_frac",
        test.count as f64 / calls.max(1) as f64,
    );
    let atpg = get("atpg.run");
    run.set("atpg.run_s", atpg.busy_s);
    run.set("atpg.self_s", atpg.self_s);

    let (batch, single) = (get("fsim.batch"), get("fsim.single_batch"));
    let batches = batch.count + single.count;
    run.set("fsim.batch.calls", batches as f64);
    run.set("fsim.batch_s", batch.busy_s + single.busy_s);
    run.set("fsim.single_batch.calls", single.count as f64);
    run.set("fsim.single_batch_s", single.busy_s);
    run.set(
        "fsim.lane_fill",
        counters.lanes as f64 / (64 * batches.max(1)) as f64,
    );
    run.set("fsim.faults_graded", counters.faults_graded as f64);
    run.set("fsim.events", counters.events as f64);

    let lbist = get("bist.lbist");
    let (sta, regrade, quality) = (
        get("timing.sta"),
        get("timing.regrade"),
        get("timing.quality"),
    );
    run.set("bist.lbist_s", lbist.busy_s);
    run.set("timing.sta_s", sta.busy_s);
    run.set("timing.regrade_s", regrade.busy_s);
    run.set("timing.regrade.detects", counters.regrade_detects as f64);
    run.set("timing.quality_s", quality.busy_s);
    let layers_s = atpg.busy_s + lbist.busy_s + sta.busy_s + regrade.busy_s + quality.busy_s;
    run.set("trace.layer_frac", layers_s / wall_s);
}

/// The node whose good value defines a fault site's value.
fn site_index(model: &CaptureModel<'_>, fault: Fault) -> usize {
    match fault.site() {
        FaultSite::Output(c) => c.index(),
        FaultSite::Input { cell, pin } => model.netlist().cell(cell).inputs()[pin as usize].index(),
    }
}

/// The flow's timing stage: functional slack per fault site from STA,
/// observed test slack from the timed re-grade of the final patterns,
/// and the SDQL aggregate.
fn quality_pass(
    model: &CaptureModel<'_>,
    procedures: &[FrameSpec],
    mode: ClockingMode,
    result: &AtpgResult,
    design: &Design,
    detects: &mut u64,
) -> QualityReport {
    let cfg = TimingConfig::default();
    let graph = model.graph();
    let n_domains = model.domain_count();
    let delays = design.delays.as_slice();
    let periods = design.domain_periods();
    let windows: Vec<ProcWindow> = procedures
        .iter()
        .map(|spec| ProcWindow {
            name: spec.name().to_owned(),
            window_ps: capture_window_ps(mode, spec, &periods, cfg.ate_period_ps),
            at_speed: mode.is_at_speed(),
        })
        .collect();
    let faults = result.faults.faults();
    let mut slacks = vec![FaultSlack::default(); faults.len()];

    let mut sta = Sta::new(graph.cells());
    {
        let _s = spans::enter("timing.sta");
        let sites: Vec<usize> = faults.iter().map(|&f| site_index(model, f)).collect();
        for d in 0..n_domains {
            sta.compute(graph, delays, &CaptureTargets::domain(d, n_domains));
            let period = periods.get(d).copied().unwrap_or(DEFAULT_DOMAIN_PERIOD_PS);
            for (slack, &site) in slacks.iter_mut().zip(&sites) {
                if let Some(path) = sta.path_through(site) {
                    let margin = period.saturating_sub(path);
                    slack.func_slack_ps =
                        Some(slack.func_slack_ps.map_or(margin, |p| p.min(margin)));
                }
            }
        }
        sta.compute_arrivals(graph, delays);
    }
    {
        let _s = spans::enter("timing.regrade");
        let view = Arc::new(SimTiming::new(delays.to_vec(), sta.arrivals().to_vec()));
        let mut fsim = FaultSim::new(model);
        fsim.attach_timing(view);
        let patterns = result.patterns.patterns();
        for (pi, spec) in procedures.iter().enumerate() {
            let idxs: Vec<usize> = (0..patterns.len())
                .filter(|&i| patterns[i].proc_index == pi)
                .collect();
            let window = windows[pi].window_ps;
            for chunk in idxs.chunks(64) {
                let pats: Vec<Pattern> = chunk.iter().map(|&i| patterns[i].clone()).collect();
                let good = simulate_good(model, spec, &pats);
                for (slack, &fault) in slacks.iter_mut().zip(faults) {
                    if !result.faults.status(fault).is_detected() {
                        continue;
                    }
                    *detects += 1;
                    if fsim.detect(spec, &good, fault) != 0 {
                        let margin = window.saturating_sub(fsim.last_path_ps());
                        slack.test_slack_ps =
                            Some(slack.test_slack_ps.map_or(margin, |p| p.min(margin)));
                    }
                }
            }
        }
    }
    let _s = spans::enter("timing.quality");
    QualityReport::compute(&slacks, windows, &cfg.quality)
}
