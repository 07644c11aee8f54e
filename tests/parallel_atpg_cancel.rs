//! Cancellation of a fault-parallel PODEM search: a deadline that trips
//! while two workers search ahead of the commit point must return the
//! typed error promptly — each worker finishes at most the search it is
//! in — and the call must not leave a worker thread running. The next
//! job on the same `FlowService` must come back as if nothing happened.
//!
//! Kept alone in its own test binary: it counts the process's threads
//! before and after the cancelled call.

use occ::atpg::AtpgOptions;
use occ::core::ClockingMode;
use occ::flow::{EngineChoice, FaultKind, FlowError, FlowReport};
use occ::server::{FlowService, JobSpec};
use occ::soc::SocConfig;
use std::time::{Duration, Instant};

fn job() -> JobSpec {
    let mut job = JobSpec::new(SocConfig::paper_like(7, 32));
    job.clocking = ClockingMode::EnhancedCpf { max_pulses: 4 };
    job.fault_model = FaultKind::Transition;
    job.mask_bidi = true;
    job.engine = EngineChoice::Sharded { threads: 2 };
    job.atpg = AtpgOptions {
        random_patterns: 32,
        backtrack_limit: 48,
        ..AtpgOptions::default()
    };
    job
}

/// Live threads of this process (Linux; `None` elsewhere).
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

/// Start offset from the flow's root span, and duration, of the search
/// phase of a traced run.
fn search_window(report: &FlowReport) -> (Duration, Duration) {
    let tree = &report.trace.as_ref().expect("traced run").tree;
    let flow = tree.find("flow").expect("flow span");
    let search = tree.find("atpg.search").expect("search span");
    let offset = search.record.start_ns - flow.record.start_ns;
    (
        Duration::from_nanos(offset),
        Duration::from_nanos(search.record.dur_ns),
    )
}

fn assert_same(a: &FlowReport, b: &FlowReport) {
    assert_eq!(a.result.stats, b.result.stats);
    assert_eq!(a.atpg_kernel.decisions, b.atpg_kernel.decisions);
    assert_eq!(a.result.patterns.patterns(), b.result.patterns.patterns());
    for (fault, status) in a.result.faults.iter() {
        assert_eq!(status, b.result.faults.status(fault), "fault {fault}");
    }
}

#[test]
fn deadline_mid_search_cancels_promptly_and_the_service_recovers() {
    let service = FlowService::new(0);
    // A traced uncancelled run warms the design cache and locates the
    // search phase on this machine.
    let mut traced = job();
    traced.trace = true;
    let full = service.submit(&traced).expect("uncancelled run").report;
    let full = full.expect("flow jobs carry a report");
    let (search_start, search_len) = search_window(&full);
    assert!(
        search_len > Duration::from_millis(20),
        "search phase too short to land a deadline in: {search_len:?}"
    );

    // Trip the deadline halfway through the search.
    let deadline = search_start + search_len / 2;
    let mut cancelled = job();
    cancelled.deadline_ms = Some(deadline.as_millis() as u64);
    let threads_before = live_threads();
    let t0 = Instant::now();
    let err = service
        .submit(&cancelled)
        .expect_err("the deadline trips mid-search");
    let elapsed = t0.elapsed();
    assert_eq!(err, FlowError::DeadlineExceeded);
    // An uncancelled search would run another half phase; a cancelled
    // one stops once each worker finishes its current search.
    assert!(
        elapsed < deadline + search_len / 4,
        "cancel took {elapsed:?} (deadline {deadline:?}, search phase {search_len:?})"
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
