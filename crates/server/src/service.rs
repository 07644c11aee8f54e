//! The in-process flow service: one [`FlowService::submit`] call runs
//! one job against the shared design cache.
//!
//! This is the layer both frontends share — the TCP daemon
//! ([`crate::server`]) and in-process consumers (`occ-bench`'s Table-1
//! sweep, the `delay_test_flow` example). The design (generated SOC
//! plus compiled [`SimGraph`](occ_fsim::SimGraph)) is the one thing
//! worth compiling once: a *warm* job fetches it as an `Arc` clone and
//! hands the graph to [`TestFlow::graph`], so its bind stage compiles
//! nothing. Every flow job then builds its own capture procedures and
//! delay table, exactly as a direct [`TestFlow`] run does: in a
//! release build on a 2-core x86-64 host, the procedures take
//! 0.6–4.0 µs per clocking mode and fault model and the delay table
//! 2.4–9.1 µs for 316–1,270 cells (medians of 201 calls), against the
//! 0.1 s or more a flow job runs, so caching them would save about
//! 0.01% of a job. Reports are byte-identical to a cold run — the
//! design is a pure function of the config its cache key hashes.

use crate::cache::{ArtifactCache, CacheStats};
use crate::design::{design_hash, DesignArtifact};
use crate::faults::{cooperative_delay, FaultAction, FaultPlan};
use occ_atpg::AtpgOptions;
use occ_core::ClockingMode;
use occ_fault::FaultModel;
use occ_flow::{
    CancelToken, EngineChoice, FlowError, FlowReport, LintGate, PatternSource, TestFlow,
};
use occ_sim::DelayModel;
use occ_soc::SocConfig;
use std::sync::Arc;
use std::time::Duration;

/// One job: which design, which flow configuration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The design, by content (the generator config *is* the design —
    /// same config, same netlist).
    pub design: SocConfig,
    /// Clocking mode of the capture procedures.
    pub clocking: ClockingMode,
    /// Fault model.
    pub fault_model: FaultModel,
    /// Fault-simulation engine.
    pub engine: EngineChoice,
    /// ATPG options (backtrack limit, random bootstrap, compaction).
    pub atpg: AtpgOptions,
    /// Mask the bidi-pad feedback paths (the ATE constraint).
    pub mask_bidi: bool,
    /// Run the delay-test-quality stage (default delay model).
    pub timing: bool,
    /// Run the pre-ATPG lint stage under this gate.
    pub lint: Option<LintGate>,
    /// How patterns reach the scan chains (external ATPG, EDT
    /// decompression, LBIST). The design cache key does not include
    /// the source, so a sweep over sources on one design compiles the
    /// design exactly once.
    pub pattern_source: PatternSource,
    /// Skip the flow entirely: compile (or fetch) the design artifact
    /// and report its analysis only.
    pub analyze_only: bool,
    /// Per-job time budget in milliseconds (`None` = unbounded). A job
    /// past its deadline is cooperatively cancelled at the next batch
    /// boundary and returns [`FlowError::DeadlineExceeded`].
    pub deadline_ms: Option<u64>,
    /// Capture a span tree for this job: the service installs a
    /// detail-on recorder around the design fetch and the flow, so the
    /// report's `trace` block holds the whole job's span forest
    /// (cache spans included).
    pub trace: bool,
}

impl JobSpec {
    /// A flow job on `design` with the [`TestFlow`] defaults: external
    /// clock (4 pulses), transition faults, serial fault sim, no timing,
    /// no lint.
    #[must_use]
    pub fn new(design: SocConfig) -> Self {
        JobSpec {
            design,
            clocking: ClockingMode::ExternalClock { max_pulses: 4 },
            fault_model: FaultModel::Transition,
            engine: EngineChoice::Serial,
            atpg: AtpgOptions::default(),
            mask_bidi: false,
            timing: false,
            lint: None,
            pattern_source: PatternSource::ExternalAtpg,
            analyze_only: false,
            deadline_ms: None,
            trace: false,
        }
    }
}

/// How a job's design lookup went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCacheStats {
    /// The SOC and its compiled graph came from the cache.
    pub design_hit: bool,
}

/// Structural summary of a compiled design artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignAnalysis {
    /// Design name (from the generator config).
    pub design: String,
    /// Netlist cells.
    pub cells: usize,
    /// Flops bound into the capture model.
    pub flops: usize,
    /// Scan-chain flops.
    pub scan_flops: usize,
    /// Clock domains.
    pub domains: usize,
    /// Approximate resident bytes of the cached artifact.
    pub graph_bytes: usize,
}

/// What a job returns: identity, cache behaviour, analysis, and (for
/// flow jobs) the full report.
#[derive(Debug)]
pub struct JobOutcome {
    /// Content hash of the design config.
    pub design_hash: u64,
    /// True when the design came from the cache, so the job compiled
    /// no design (the same flag as [`JobCacheStats::design_hit`]).
    pub warm: bool,
    /// The job's design-cache hit or miss.
    pub cache: JobCacheStats,
    /// Structural summary of the design.
    pub analysis: DesignAnalysis,
    /// The flow report (`None` for analyze-only jobs).
    pub report: Option<FlowReport>,
}

/// The shared job service: a design cache plus the logic to run one
/// job against it. All methods take `&self`; share across threads with
/// an `Arc`.
#[derive(Debug)]
pub struct FlowService {
    cache: ArtifactCache,
    faults: FaultPlan,
}

impl FlowService {
    /// Creates a service with a cache byte budget (0 = unlimited).
    #[must_use]
    pub fn new(cache_budget: usize) -> Self {
        Self::with_faults(cache_budget, FaultPlan::none())
    }

    /// [`FlowService::new`] with a fault-injection plan (chaos tests
    /// and the degraded-mode bench; see [`crate::faults`]).
    #[must_use]
    pub fn with_faults(cache_budget: usize, faults: FaultPlan) -> Self {
        FlowService {
            cache: ArtifactCache::new(cache_budget),
            faults,
        }
    }

    /// Global cache counters and occupancy.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Runs one job: fetch or compile its design, then run the flow
    /// over it (unless analyze-only).
    ///
    /// # Errors
    ///
    /// Degenerate designs map onto the closest [`FlowError`]
    /// ([`FlowError::NoDomains`], [`FlowError::NoScanChains`]) before
    /// the generator would panic on them; flow misconfigurations
    /// propagate from [`TestFlow::run`]; a job past its
    /// [`JobSpec::deadline_ms`] returns
    /// [`FlowError::DeadlineExceeded`].
    pub fn submit(&self, job: &JobSpec) -> Result<JobOutcome, FlowError> {
        self.submit_with_cancel(job, None)
    }

    /// [`FlowService::submit`] under an external cancel scope: the
    /// job's token is a child of `parent` (the daemon's drain token)
    /// carrying the job's own [`JobSpec::deadline_ms`] budget, so one
    /// server-wide cancel fans out to every in-flight job while each
    /// job keeps its own deadline.
    ///
    /// # Errors
    ///
    /// As [`FlowService::submit`], plus [`FlowError::Cancelled`] when
    /// `parent` (or the job's own token) is cancelled mid-run.
    pub fn submit_with_cancel(
        &self,
        job: &JobSpec,
        parent: Option<&CancelToken>,
    ) -> Result<JobOutcome, FlowError> {
        let deadline = job.deadline_ms.map(Duration::from_millis);
        let cancel = match (parent, deadline) {
            (Some(p), d) => p.child(d),
            (None, Some(d)) => CancelToken::with_deadline(d),
            (None, None) => CancelToken::never(),
        };
        self.run(job, &cancel)
    }

    fn run(&self, job: &JobSpec, cancel: &CancelToken) -> Result<JobOutcome, FlowError> {
        // Stage-boundary cancellation poll; the flow itself polls the
        // same token at a finer grain once it starts.
        let check = || -> Result<(), FlowError> {
            match cancel.cause() {
                Some(cause) => Err(cause.into()),
                None => Ok(()),
            }
        };
        check()?;
        // A traced job installs a detail-on recorder for its whole
        // duration: design-cache spans recorded below land in the
        // same forest the flow's `trace` block reports.
        let _trace_scope = if job.trace {
            let recorder = occ_obs::SpanRecorder::new();
            Some(recorder.install(true))
        } else {
            None
        };
        let dh = design_hash(&job.design);
        let (design, design_hit) = self.design_artifact(dh, &job.design)?;
        let cache = JobCacheStats { design_hit };
        let analysis = DesignAnalysis {
            design: job.design.name.clone(),
            cells: design.soc.netlist().len(),
            flops: design.graph.flop_count(),
            scan_flops: design.graph.scan_flops().len(),
            domains: job.design.domains.len(),
            graph_bytes: design.approx_bytes(),
        };

        if job.analyze_only {
            return Ok(JobOutcome {
                design_hash: dh,
                warm: design_hit,
                cache,
                analysis,
                report: None,
            });
        }
        check()?;

        // A virtual slow stage for the chaos suite: the injected delay
        // polls the job's token, so deadlines bound it like real work.
        if let Some(FaultAction::DelayMs(ms)) = self.faults.fire("flow.stage") {
            cooperative_delay(ms, cancel);
        }
        check()?;

        let mut flow = TestFlow::new(&design.soc)
            .clocking(job.clocking)
            .fault_model(job.fault_model)
            .engine(job.engine)
            .atpg(job.atpg.clone())
            .mask_bidi(job.mask_bidi)
            .pattern_source(job.pattern_source.clone())
            .graph(Arc::clone(&design.graph))
            .cancel(cancel.clone())
            .trace(job.trace);
        if job.timing {
            flow = flow.timing(DelayModel::default());
        }
        if let Some(gate) = job.lint {
            flow = flow.lint(gate);
        }
        let report = flow.run()?;

        Ok(JobOutcome {
            design_hash: dh,
            warm: design_hit,
            cache,
            analysis,
            report: Some(report),
        })
    }

    fn design_artifact(
        &self,
        dh: u64,
        config: &SocConfig,
    ) -> Result<(Arc<DesignArtifact>, bool), FlowError> {
        self.cache.get_or_build(dh, || {
            // Chaos-suite injection: a builder that panics or errors
            // must leave the shard clean (BuildGuard) and un-cached.
            match self.faults.fire("cache.design.build") {
                Some(FaultAction::Panic(msg)) => panic!("{msg}"),
                Some(FaultAction::Error(msg)) => return Err(FlowError::Internal(msg)),
                _ => {}
            }
            // Reject configs the generator would panic on, with the
            // closest typed error.
            if config.domains.is_empty() || config.total_flops() == 0 {
                return Err(FlowError::NoDomains);
            }
            if config.scan_chains == 0 {
                return Err(FlowError::NoScanChains);
            }
            Ok(DesignArtifact::build(config))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_job(seed: u64) -> JobSpec {
        let mut job = JobSpec::new(SocConfig::tiny(seed));
        job.clocking = ClockingMode::SimpleCpf;
        job.atpg = AtpgOptions {
            random_patterns: 32,
            backtrack_limit: 12,
            ..AtpgOptions::default()
        };
        job
    }

    #[test]
    fn cold_then_warm() {
        let service = FlowService::new(0);
        let cold = service.submit(&quick_job(3)).unwrap();
        assert!(!cold.warm);
        assert!(!cold.cache.design_hit);
        let warm = service.submit(&quick_job(3)).unwrap();
        assert!(warm.warm, "{:?}", warm.cache);
        assert_eq!(cold.design_hash, warm.design_hash);
        // Identical coverage — full byte-identity is pinned in
        // tests/service.rs via canonical JSON.
        assert_eq!(
            cold.report.unwrap().coverage_pct(),
            warm.report.unwrap().coverage_pct()
        );
    }

    #[test]
    fn analyze_only_skips_the_flow() {
        let service = FlowService::new(0);
        let mut job = quick_job(4);
        job.analyze_only = true;
        let out = service.submit(&job).unwrap();
        assert!(out.report.is_none());
        assert!(out.analysis.cells > 0);
        assert!(out.analysis.scan_flops > 0);
    }

    #[test]
    fn degenerate_design_is_typed_not_a_panic() {
        let service = FlowService::new(0);
        let mut job = quick_job(5);
        job.design.domains.clear();
        assert_eq!(service.submit(&job).unwrap_err(), FlowError::NoDomains);
        let mut job = quick_job(5);
        job.design.scan_chains = 0;
        assert_eq!(service.submit(&job).unwrap_err(), FlowError::NoScanChains);
    }
}
