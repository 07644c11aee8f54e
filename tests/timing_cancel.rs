//! Cancellation of the delay-test-quality stage: a deadline that trips
//! while the timed re-grade runs on two fault-sim workers must return
//! the typed error within one re-grade chunk, must not leave a worker
//! thread running, and must not disturb the next job on the same
//! `FlowService`.
//!
//! Kept alone in its own test binary: it counts the process's threads
//! before and after the cancelled call.

use occ::core::ClockingMode;
use occ::flow::{BistConfig, EngineChoice, FaultKind, FlowError, FlowReport, PatternSource};
use occ::server::{FlowService, JobSpec};
use occ::soc::SocConfig;
use std::time::{Duration, Instant};

/// An at-speed LBIST flow with the timing stage: no PODEM search, so
/// the re-grade is most of the run.
fn job() -> JobSpec {
    let mut job = JobSpec::new(SocConfig::paper_like(7, 96));
    job.clocking = ClockingMode::SimpleCpf;
    job.fault_model = FaultKind::Transition;
    job.mask_bidi = true;
    job.engine = EngineChoice::Sharded { threads: 2 };
    job.timing = true;
    job.pattern_source = PatternSource::Lbist(BistConfig {
        patterns: 2_048,
        ..BistConfig::default()
    });
    job
}

/// Live threads of this process (Linux; `None` elsewhere).
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

/// Start offset from the flow's root span, and duration, of the timing
/// stage of a traced run.
fn timing_window(report: &FlowReport) -> (Duration, Duration) {
    let tree = &report.trace.as_ref().expect("traced run").tree;
    let flow = tree.find("flow").expect("flow span");
    let timing = tree.find("timing").expect("timing stage span");
    let offset = timing.record.start_ns - flow.record.start_ns;
    (
        Duration::from_nanos(offset),
        Duration::from_nanos(timing.record.dur_ns),
    )
}

fn assert_same(a: &FlowReport, b: &FlowReport) {
    assert_eq!(a.result.patterns.patterns(), b.result.patterns.patterns());
    for (fault, status) in a.result.faults.iter() {
        assert_eq!(status, b.result.faults.status(fault), "fault {fault}");
    }
    let (qa, qb) = (
        a.delay_quality.as_ref().expect("timed"),
        b.delay_quality.as_ref().expect("timed"),
    );
    assert_eq!(qa.sdql.to_bits(), qb.sdql.to_bits());
    assert_eq!(qa.histogram, qb.histogram);
    assert_eq!(qa.min_test_slack_ps, qb.min_test_slack_ps);
    assert_eq!(qa.max_test_slack_ps, qb.max_test_slack_ps);
}

#[test]
fn deadline_mid_regrade_cancels_promptly_and_the_service_recovers() {
    let service = FlowService::new(0);
    // A traced uncancelled run warms the design cache and locates the
    // timing stage on this machine.
    let mut traced = job();
    traced.trace = true;
    let full = service.submit(&traced).expect("uncancelled run").report;
    let full = full.expect("flow jobs carry a report");
    let (timing_start, timing_len) = timing_window(&full);
    assert!(
        timing_len > Duration::from_millis(20),
        "timing stage too short to land a deadline in: {timing_len:?}"
    );

    // Trip the deadline halfway through the timing stage.
    let deadline = timing_start + timing_len / 2;
    let mut cancelled = job();
    cancelled.deadline_ms = Some(deadline.as_millis() as u64);
    let threads_before = live_threads();
    let t0 = Instant::now();
    let err = service
        .submit(&cancelled)
        .expect_err("the deadline trips mid-regrade");
    let elapsed = t0.elapsed();
    assert_eq!(err, FlowError::DeadlineExceeded);
    // An uncancelled re-grade would run another half stage; a cancelled
    // one stops after the chunk in flight.
    assert!(
        elapsed < deadline + timing_len / 4,
        "cancel took {elapsed:?} (deadline {deadline:?}, timing stage {timing_len:?})"
    );
    assert_eq!(
        live_threads(),
        threads_before,
        "a thread outlived the cancelled call"
    );

    // The same service serves the next job in full.
    let again = service.submit(&job()).expect("uncancelled rerun").report;
    assert_same(&full, &again.expect("flow jobs carry a report"));
}
