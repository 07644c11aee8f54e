//! Determinism of fault-parallel PODEM search: every Table-1 clocking
//! mode and fault model, run through `TestFlow` at 1, 2 and 8 search
//! threads (the thread count follows the sharded fault simulator),
//! must produce identical pattern sets, per-fault statuses, ATPG
//! counters and PODEM decision/backtrack totals. Workers search ahead
//! of the commit point, but results commit strictly in universe order
//! and a search whose fault an earlier commit already detected is
//! discarded, so none of these may depend on scheduling.
//!
//! EDT delivery covers the commit step's own fallback: a split cube
//! that misses its target sends the commit step back to searching the
//! remaining procedures itself. The lint-pruned flow covers faults
//! skipped before the search ever sees them.

use occ::atpg::AtpgOptions;
use occ::core::ClockingMode;
use occ::flow::{
    EdtConfig, EngineChoice, FaultKind, FlowReport, LintGate, PatternSource, TestFlow,
};
use occ::obs::AttrValue;
use occ::soc::{generate, SocConfig};

const MODES: [ClockingMode; 4] = [
    ClockingMode::ExternalClock { max_pulses: 4 },
    ClockingMode::SimpleCpf,
    ClockingMode::EnhancedCpf { max_pulses: 4 },
    ClockingMode::ConstrainedExternal { max_pulses: 4 },
];

const THREADS: [usize; 3] = [1, 2, 8];

fn quick() -> AtpgOptions {
    AtpgOptions {
        random_patterns: 32,
        backtrack_limit: 16,
        ..AtpgOptions::default()
    }
}

/// The `threads` attribute of the run's `atpg.search` span.
fn search_threads(report: &FlowReport) -> u64 {
    let trace = report.trace.as_ref().expect("traced run");
    let search = trace.tree.find("atpg.search").expect("search span");
    match search.record.attrs().iter().find(|(k, _)| *k == "threads") {
        Some((_, AttrValue::U64(n))) => *n,
        other => panic!("atpg.search carries no threads attribute: {other:?}"),
    }
}

fn assert_same(base: &FlowReport, other: &FlowReport, what: &str) {
    assert_eq!(base.result.stats, other.result.stats, "{what}: stats");
    assert_eq!(
        (base.atpg_kernel.decisions, base.atpg_kernel.backtracks),
        (other.atpg_kernel.decisions, other.atpg_kernel.backtracks),
        "{what}: decisions/backtracks"
    );
    assert_eq!(
        base.result.patterns.patterns(),
        other.result.patterns.patterns(),
        "{what}: pattern sets"
    );
    for (fault, status) in base.result.faults.iter() {
        assert_eq!(
            status,
            other.result.faults.status(fault),
            "{what}: fault {fault}"
        );
    }
    assert_eq!(base.coverage, other.coverage, "{what}: coverage");
}

/// Runs `flow` at every thread count and checks each run against the
/// single-threaded one; returns the single-threaded report.
fn across_threads(what: &str, flow: impl Fn(EngineChoice) -> FlowReport) -> FlowReport {
    let runs: Vec<FlowReport> = THREADS
        .iter()
        .map(|&threads| flow(EngineChoice::Sharded { threads }))
        .collect();
    for (report, &threads) in runs.iter().zip(&THREADS) {
        assert_eq!(search_threads(report), threads as u64, "{what}");
        assert_same(&runs[0], report, &format!("{what} at {threads} threads"));
    }
    runs.into_iter().next().expect("three runs")
}

#[test]
fn every_mode_and_fault_model_identical_at_any_thread_count() {
    let soc = generate(&SocConfig::tiny(3));
    for mode in MODES {
        for fault_model in [FaultKind::StuckAt, FaultKind::Transition] {
            let base = across_threads(&format!("{mode:?} {fault_model:?}"), |engine| {
                TestFlow::new(&soc)
                    .clocking(mode)
                    .fault_model(fault_model)
                    .mask_bidi(true)
                    .engine(engine)
                    .atpg(quick())
                    .trace(true)
                    .run()
                    .expect("flow runs")
            });
            assert!(
                base.result.stats.podem_calls > 0,
                "{mode:?} searched nothing"
            );
        }
    }
}

#[test]
fn edt_and_lint_pruned_flows_identical_at_any_thread_count() {
    // On this design and mode some split cubes miss their target, so
    // the commit step runs later procedures' searches itself.
    let soc = generate(&SocConfig::tiny(2));
    let edt = across_threads("edt", |engine| {
        TestFlow::new(&soc)
            .clocking(ClockingMode::ExternalClock { max_pulses: 4 })
            .fault_model(FaultKind::Transition)
            .mask_bidi(true)
            .engine(engine)
            .atpg(quick())
            .pattern_source(PatternSource::Edt(EdtConfig::auto()))
            .trace(true)
            .run()
            .expect("edt flow runs")
    });
    let ps = edt.pattern_source.as_ref().expect("edt block");
    assert!(ps.encode_splits > 0, "no split delivery exercised: {ps:?}");

    let pruned = across_threads("lint-pruned", |engine| {
        TestFlow::new(&soc)
            .clocking(ClockingMode::SimpleCpf)
            .fault_model(FaultKind::Transition)
            .mask_bidi(true)
            .engine(engine)
            .atpg(quick())
            .lint(LintGate::Warn)
            .trace(true)
            .run()
            .expect("lint-pruned flow runs")
    });
    assert!(pruned.result.stats.lint_pruned > 0, "lint pruned nothing");
}
