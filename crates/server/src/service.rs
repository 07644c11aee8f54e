//! The in-process flow service: one [`FlowService::submit`] call runs
//! one job against the shared artifact cache.
//!
//! This is the layer both frontends share — the TCP daemon
//! ([`crate::server`]) and in-process consumers (`occ-bench`'s Table-1
//! sweep, the `delay_test_flow` example). A *warm* job (every artifact
//! it needs already cached) executes no compile stage at all: the
//! graph, procedures and delay table arrive as `Arc` clones and
//! [`TestFlow::artifacts`](occ_flow::TestFlow::artifacts) routes them
//! past the corresponding stages. Reports are byte-identical to a cold
//! run — each artifact is a pure function of the content its cache key
//! hashes.

use crate::cache::{
    delays_bytes, procedures_bytes, Artifact, ArtifactCache, ArtifactKind, CacheStats,
};
use crate::design::{design_hash, DesignArtifact};
use crate::faults::{cooperative_delay, FaultAction, FaultPlan};
use crate::hash::Fnv64;
use occ_atpg::AtpgOptions;
use occ_core::ClockingMode;
use occ_fault::FaultModel;
use occ_flow::{
    build_procedures, CancelToken, EngineChoice, FlowArtifacts, FlowError, FlowReport, LintGate,
    PatternSource, TestFlow,
};
use occ_fsim::FrameSpec;
use occ_sim::{CompiledDelays, DelayModel};
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
    /// decompression, LBIST). The artifact cache keys (design,
    /// procedures, delays) do not include the source, so a sweep over
    /// sources on one design compiles everything exactly once.
    pub pattern_source: PatternSource,
    /// Skip the flow entirely: compile (or fetch) the design artifact
    /// and report its analysis only.
    pub analyze_only: bool,
    /// Per-job time budget in milliseconds (`None` = unbounded). A job
    /// past its deadline is cooperatively cancelled at the next batch
    /// boundary and returns [`FlowError::DeadlineExceeded`].
    pub deadline_ms: Option<u64>,
    /// Capture a span tree for this job: the service installs a
    /// detail-on recorder around artifact fetches and the flow, so the
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

/// Which of a job's artifact lookups hit the cache. `None` = the job
/// did not need that artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCacheStats {
    /// SOC + compiled graph.
    pub design_hit: bool,
    /// Capture procedures (`None` for analyze-only jobs).
    pub procedures_hit: Option<bool>,
    /// Compiled delay table (`None` for untimed jobs).
    pub delays_hit: Option<bool>,
}

impl JobCacheStats {
    /// True when every artifact the job needed came from the cache —
    /// i.e. the job ran no compile stage.
    #[must_use]
    pub fn warm(&self) -> bool {
        self.design_hit && self.procedures_hit.unwrap_or(true) && self.delays_hit.unwrap_or(true)
    }
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
    /// True when the job ran no compile stage (see
    /// [`JobCacheStats::warm`]).
    pub warm: bool,
    /// Per-artifact hit/miss of this job.
    pub cache: JobCacheStats,
    /// Structural summary of the design.
    pub analysis: DesignAnalysis,
    /// The flow report (`None` for analyze-only jobs).
    pub report: Option<FlowReport>,
}

/// The shared job service: an artifact cache plus the logic to run one
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

    /// Runs one job: fetch-or-compile the artifacts it needs, then run
    /// the flow over them (unless analyze-only).
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
        // duration: artifact-cache spans recorded below land in the
        // same forest the flow's `trace` block reports.
        let _trace_scope = if job.trace {
            let recorder = occ_obs::SpanRecorder::new();
            Some(recorder.install(true))
        } else {
            None
        };
        let dh = design_hash(&job.design);
        let (design, design_hit) = self.design_artifact(dh, &job.design)?;
        let mut cache = JobCacheStats {
            design_hit,
            ..JobCacheStats::default()
        };
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
                warm: cache.warm(),
                cache,
                analysis,
                report: None,
            });
        }
        check()?;

        let n_domains = job.design.domains.len();
        let (procedures, procs_hit) =
            self.procedures_artifact(job.clocking, job.fault_model, n_domains)?;
        cache.procedures_hit = Some(procs_hit);

        let delays = if job.timing {
            let (table, hit) = self.delays_artifact(dh, &design)?;
            cache.delays_hit = Some(hit);
            Some(table)
        } else {
            None
        };

        // A virtual slow stage for the chaos suite: the injected delay
        // polls the job's token, so deadlines bound it like real work.
        if let Some(FaultAction::DelayMs(ms)) = self.faults.fire("flow.stage") {
            cooperative_delay(ms, cancel);
        }
        check()?;

        let artifacts = FlowArtifacts {
            graph: Some(Arc::clone(&design.graph)),
            procedures: Some(procedures),
            delays,
        };
        let mut flow = TestFlow::new(&design.soc)
            .clocking(job.clocking)
            .fault_model(job.fault_model)
            .engine(job.engine)
            .atpg(job.atpg.clone())
            .mask_bidi(job.mask_bidi)
            .pattern_source(job.pattern_source.clone())
            .artifacts(artifacts)
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
            warm: cache.warm(),
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
        let key = kind_key("design", dh);
        let (artifact, hit) = self.cache.get_or_build(ArtifactKind::Design, key, || {
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
            let artifact = DesignArtifact::build(config);
            let bytes = artifact.approx_bytes();
            Ok((Artifact::Design(Arc::new(artifact)), bytes))
        })?;
        match artifact {
            Artifact::Design(design) => Ok((design, hit)),
            _ => unreachable!("design key returned a non-design artifact"),
        }
    }

    fn procedures_artifact(
        &self,
        mode: ClockingMode,
        fault_model: FaultModel,
        n_domains: usize,
    ) -> Result<(Arc<Vec<FrameSpec>>, bool), FlowError> {
        // Keyed by what determines the procedures — *not* the design:
        // two designs with the same domain count share the entry.
        let mut h = Fnv64::new();
        h.write_str(&mode.to_string());
        h.write_str(match fault_model {
            FaultModel::StuckAt => "stuck-at",
            FaultModel::Transition => "transition",
        });
        h.write_u64(n_domains as u64);
        let key = kind_key("procedures", h.finish());
        let (artifact, hit) = self.cache.get_or_build(ArtifactKind::Procedures, key, || {
            let procs = build_procedures(mode, fault_model, n_domains)?;
            let bytes = procedures_bytes(&procs);
            Ok((Artifact::Procedures(Arc::new(procs)), bytes))
        })?;
        match artifact {
            Artifact::Procedures(procs) => Ok((procs, hit)),
            _ => unreachable!("procedures key returned a non-procedures artifact"),
        }
    }

    fn delays_artifact(
        &self,
        dh: u64,
        design: &DesignArtifact,
    ) -> Result<(Arc<CompiledDelays>, bool), FlowError> {
        // Keyed by design + delay-model identity. Jobs always grade
        // under the default model, so the tag is a constant; a future
        // per-job delay model would hash its parameters here.
        let mut h = Fnv64::new();
        h.write_u64(dh);
        h.write_str("delay-model:default");
        let key = kind_key("delays", h.finish());
        let (artifact, hit) = self.cache.get_or_build(ArtifactKind::Delays, key, || {
            let table = DelayModel::default().compile(design.soc.netlist());
            let bytes = delays_bytes(&table);
            Ok((Artifact::Delays(Arc::new(table)), bytes))
        })?;
        match artifact {
            Artifact::Delays(table) => Ok((table, hit)),
            _ => unreachable!("delays key returned a non-delays artifact"),
        }
    }
}

/// Folds the artifact kind into the key so one map serves all kinds
/// without cross-kind collisions.
fn kind_key(kind: &str, content: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(kind);
    h.write_u64(content);
    h.finish()
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
        assert_eq!(out.cache.procedures_hit, None);
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
