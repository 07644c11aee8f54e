//! The flow's delay-test-quality stage.
//!
//! With [`TestFlow::timing`](crate::TestFlow::timing) configured, the
//! pipeline gains one analysis pass after ATPG:
//!
//! 1. the [`DelayModel`] is compiled into a flat per-cell table
//!    ([`DelayModel::compile`]) shared by every timing consumer;
//! 2. a compiled [`Sta`] derives per-cell arrival times plus, per
//!    clock domain, the longest *functional* path through every fault
//!    site (the failure threshold of a delay defect there);
//! 3. the final pattern set is re-graded, 64 patterns at a time,
//!    through the timed PPSFP kernel on the flow's fault-sim engine
//!    ([`ParallelFaultSim::detect_many_timed`]): the detected faults
//!    are dealt to the sharded pool in blocks (inline at one thread),
//!    each detection records its longest sensitized path, and the
//!    procedure's capture window
//!    ([`occ_core::capture_window_ps`]) turns that into the smallest
//!    delay defect the detection screens. Paths fold with `max` over
//!    a procedure's chunks, margins with `min` over procedures, so the
//!    slacks are identical at any thread count;
//! 4. [`QualityReport::compute`] aggregates the per-fault slacks into
//!    SDQL, weighted coverage and the slack histogram.
//!
//! The pass is strictly read-only over the ATPG result: masks, fault
//! statuses and pattern sets are untouched, and a flow without
//! `.timing(..)` produces byte-identical reports to one built before
//! this stage existed. It polls the flow's [`CancelToken`] after every
//! chunk, so a trip ends it within one chunk's grading.

use occ_core::{capture_window_ps, ClockingMode};
use occ_fault::Fault;
use occ_fsim::{
    simulate_good, CancelCause, CancelToken, CaptureModel, FrameSpec, ParallelFaultSim, Pattern,
    SimTiming, TimePs,
};
use occ_sim::{DelayModel, Time};
use occ_timing::{CaptureTargets, FaultSlack, ProcWindow, QualityOptions, QualityReport, Sta};
use std::sync::Arc;

/// Functional period assumed for domains the flow cannot derive one
/// for (custom-netlist sources without explicit periods): the paper's
/// fast 150 MHz domain.
pub const DEFAULT_DOMAIN_PERIOD_PS: Time = 6_666;

/// Configuration of the delay-test-quality stage.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Per-cell propagation delays (compiled once per run).
    pub delays: DelayModel,
    /// The slow tester period external clocking modes capture under.
    /// Default: 40 ns (the paper's 25 MHz reference clock).
    pub ate_period_ps: Time,
    /// Explicit per-domain functional periods in ps. Empty (the
    /// default) derives them from the SOC's domain configuration, or
    /// [`DEFAULT_DOMAIN_PERIOD_PS`] for custom-netlist sources; a
    /// vector shorter than the domain count is padded with
    /// [`DEFAULT_DOMAIN_PERIOD_PS`] so functional thresholds and
    /// capture windows always agree.
    pub domain_periods_ps: Vec<Time>,
    /// Defect-size distribution and histogram knobs.
    pub quality: QualityOptions,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            delays: DelayModel::default(),
            ate_period_ps: 40_000,
            domain_periods_ps: Vec::new(),
            quality: QualityOptions::default(),
        }
    }
}

impl From<DelayModel> for TimingConfig {
    /// The `.timing(DelayModel)` shorthand: everything else defaulted.
    fn from(delays: DelayModel) -> Self {
        TimingConfig {
            delays,
            ..TimingConfig::default()
        }
    }
}

/// The node whose good value defines a fault site's value (the driver
/// for input-pin faults), as a dense cell index.
fn site_index(model: &CaptureModel<'_>, fault: Fault) -> usize {
    match fault.site() {
        occ_fault::FaultSite::Output(c) => c.index(),
        occ_fault::FaultSite::Input { cell, pin } => {
            model.netlist().cell(cell).inputs()[pin as usize].index()
        }
    }
}

/// Runs the quality pass over a finished ATPG result, re-grading on
/// `threads` fault-sim workers.
///
/// # Errors
///
/// Returns the cause once `cancel` trips; no partially graded chunk
/// reaches the report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_quality(
    model: &CaptureModel<'_>,
    procedures: &[FrameSpec],
    mode: ClockingMode,
    result: &occ_atpg::AtpgResult,
    cfg: &TimingConfig,
    domain_periods: &[Time],
    threads: usize,
    cancel: &CancelToken,
) -> Result<QualityReport, CancelCause> {
    let graph = model.graph();
    let n_domains = model.domain_count();
    let compiled = {
        let _compile_span = occ_obs::span("timing.compile");
        cfg.delays.compile(model.netlist())
    };
    let delays = compiled.as_slice();

    let windows: Vec<ProcWindow> = procedures
        .iter()
        .map(|spec| ProcWindow {
            name: spec.name().to_owned(),
            window_ps: capture_window_ps(mode, spec, domain_periods, cfg.ate_period_ps),
            at_speed: mode.is_at_speed(),
        })
        .collect();

    let faults = result.faults.faults();
    let mut slacks = vec![FaultSlack::default(); faults.len()];

    // Functional failure thresholds: per domain, the margin of the
    // longest functional path through each fault site under that
    // domain's period; a defect fails the device as soon as it exceeds
    // the tightest margin of any observing domain.
    let sites: Vec<usize> = faults.iter().map(|&f| site_index(model, f)).collect();
    let mut sta = Sta::new(graph.cells());
    let mut sta_span = occ_obs::span("timing.sta");
    sta_span.attr_u64("domains", n_domains as u64);
    for d in 0..n_domains {
        sta.compute(graph, delays, &CaptureTargets::domain(d, n_domains));
        let period = domain_periods
            .get(d)
            .copied()
            .unwrap_or(DEFAULT_DOMAIN_PERIOD_PS);
        for (slack, &site) in slacks.iter_mut().zip(&sites) {
            if let Some(path) = sta.path_through(site) {
                let margin = period.saturating_sub(path);
                slack.func_slack_ps = Some(slack.func_slack_ps.map_or(margin, |p| p.min(margin)));
            }
        }
    }

    // Observed test slacks: re-grade the final pattern set with the
    // timed kernel and keep, per detected fault, the smallest
    // window − longest-sensitized-path margin over all detections.
    // The kernel view only consumes arrivals, which are target-
    // independent — the forward pass alone suffices.
    sta.compute_arrivals(graph, delays);
    drop(sta_span);
    let mut regrade_span = occ_obs::span("timing.regrade");
    regrade_span.attr_u64("patterns", result.patterns.patterns().len() as u64);
    let mut psim = ParallelFaultSim::with_threads(model, threads);
    psim.attach_cancel(cancel.clone());
    regrade_span.attr_u64("threads", psim.threads() as u64);
    let view = Arc::new(SimTiming::new(delays.to_vec(), sta.arrivals().to_vec()));
    // Only detected faults can record a path; `slot[k]` is the universe
    // index of `detected[k]`.
    let (slot, detected): (Vec<usize>, Vec<Fault>) = faults
        .iter()
        .enumerate()
        .filter(|&(_, &f)| result.faults.status(f).is_detected())
        .unzip();
    let patterns = result.patterns.patterns();
    for (pi, spec) in procedures.iter().enumerate() {
        let idxs: Vec<usize> = (0..patterns.len())
            .filter(|&i| patterns[i].proc_index == pi)
            .collect();
        if idxs.is_empty() {
            continue;
        }
        // The longest path of any detection under this procedure.
        let mut longest: Vec<Option<TimePs>> = vec![None; detected.len()];
        for chunk in idxs.chunks(64) {
            let pats: Vec<Pattern> = chunk.iter().map(|&i| patterns[i].clone()).collect();
            let good = simulate_good(model, spec, &pats);
            let graded = psim.detect_many_timed(spec, &good, &detected, &view);
            // A chunk graded across the trip carries zeroed pairs:
            // stop before it is folded.
            if let Some(cause) = cancel.cause() {
                return Err(cause);
            }
            for (path, (mask, p)) in longest.iter_mut().zip(graded) {
                if mask != 0 {
                    *path = Some(path.map_or(p, |q| q.max(p)));
                }
            }
        }
        let window = windows[pi].window_ps;
        for (&k, path) in slot.iter().zip(&longest) {
            if let Some(p) = *path {
                let margin = window.saturating_sub(p);
                let slack = &mut slacks[k];
                slack.test_slack_ps = Some(slack.test_slack_ps.map_or(margin, |s| s.min(margin)));
            }
        }
    }

    drop(regrade_span);
    Ok(QualityReport::compute(&slacks, windows, &cfg.quality))
}
