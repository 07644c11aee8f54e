//! Flow-level contract of the delay-test-quality stage: strictly
//! opt-in (untimed reports are unchanged by construction and carry no
//! quality block), discriminating — at-speed CPF clocking scores a
//! better SDQL / weighted coverage than the slow external tester clock
//! even where logical coverage is comparable — and independent of the
//! fault-sim engine the re-grade runs on.

use occ_atpg::AtpgOptions;
use occ_core::ClockingMode;
use occ_flow::{
    BistConfig, EngineChoice, FaultKind, FlowReport, PatternSource, QualityReport, Stage, TestFlow,
    TimingConfig,
};
use occ_sim::DelayModel;
use occ_soc::{generate, SocConfig};

fn quick() -> AtpgOptions {
    AtpgOptions {
        random_patterns: 32,
        backtrack_limit: 12,
        ..AtpgOptions::default()
    }
}

fn run(soc: &occ_soc::Soc, mode: ClockingMode, timed: bool) -> FlowReport {
    let mut flow = TestFlow::new(soc)
        .clocking(mode)
        .fault_model(FaultKind::Transition)
        .mask_bidi(true)
        .engine(EngineChoice::Serial)
        .atpg(quick());
    if timed {
        flow = flow.timing(DelayModel::default());
    }
    flow.run().expect("flow validates")
}

#[test]
fn timing_is_strictly_opt_in() {
    let soc = generate(&SocConfig::tiny(5));
    let untimed = run(&soc, ClockingMode::SimpleCpf, false);
    let timed = run(&soc, ClockingMode::SimpleCpf, true);

    // The analysis pass changes nothing the untimed pipeline produces.
    assert!(untimed.delay_quality.is_none());
    assert_eq!(untimed.coverage, timed.coverage);
    assert_eq!(untimed.patterns(), timed.patterns());
    assert_eq!(untimed.stats(), timed.stats());
    for (fault, status) in untimed.result.faults.iter() {
        assert_eq!(status, timed.result.faults.status(fault), "fault {fault}");
    }
    assert!(!untimed.to_json().contains("delay_quality"));
    assert_eq!(untimed.stage_seconds(Stage::Timing), 0.0);

    // The timed report carries the block everywhere it serializes.
    let q = timed.delay_quality.as_ref().expect("quality block");
    assert_eq!(q.faults, timed.coverage.total);
    assert!(q.detected_timed > 0, "no timed detections");
    assert!(timed.to_json().contains("\"delay_quality\":{\"sdql\":"));
    assert!(timed.stage_seconds(Stage::Timing) > 0.0);
    let mut csv = Vec::new();
    timed.write_csv(&mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    assert!(csv.contains("sdql"), "quality CSV block missing: {csv}");
    assert!(timed.to_string().contains("SDQL"));
    // Every simple-CPF window is an at-speed domain period.
    assert!(q.windows.iter().all(|w| w.at_speed && w.window_ps < 40_000));
}

#[test]
fn at_speed_clocking_beats_the_slow_tester_clock() {
    let soc = generate(&SocConfig::tiny(6));
    let cpf = run(&soc, ClockingMode::SimpleCpf, true);
    let ext = run(
        &soc,
        ClockingMode::ConstrainedExternal { max_pulses: 4 },
        true,
    );
    let qc = cpf.delay_quality.as_ref().unwrap();
    let qe = ext.delay_quality.as_ref().unwrap();
    // External windows are the 40 ns tester period; CPF windows are
    // the 75/150 MHz functional periods.
    assert!(qe.windows.iter().all(|w| w.window_ps == 40_000));
    assert!(qc.windows.iter().all(|w| w.window_ps <= 13_332));
    // The same logical detections screen far less through the slow
    // window: higher weighted coverage and lower SDQL for the CPF.
    assert!(
        qc.weighted_coverage_pct > qe.weighted_coverage_pct,
        "cpf {:.2}% <= ext {:.2}%",
        qc.weighted_coverage_pct,
        qe.weighted_coverage_pct
    );
    assert!(
        qc.sdql < qe.sdql,
        "cpf sdql {} >= ext sdql {}",
        qc.sdql,
        qe.sdql
    );
    // Observed test slacks are tighter at speed.
    assert!(qc.mean_test_slack_ps < qe.mean_test_slack_ps);
}

#[test]
fn custom_netlist_sources_use_default_periods() {
    use occ_fsim::ClockBinding;
    use occ_netlist::{Logic, NetlistBuilder};

    let mut b = NetlistBuilder::new("t");
    let clk = b.input("clk");
    let se = b.input("se");
    let si = b.input("si");
    let d = b.input("d");
    let f0 = b.sdff(d, clk, se, si);
    let g = b.not(f0);
    let _f1 = b.sdff(g, clk, se, f0);
    b.output("q", g);
    let nl = b.finish().unwrap();
    let mut binding = ClockBinding::new();
    binding.add_domain("a", clk);
    binding.constrain(se, Logic::Zero);
    binding.mask(si);

    let report = TestFlow::over(&nl, binding)
        .clocking(ClockingMode::SimpleCpf)
        .fault_model(FaultKind::Transition)
        .atpg(quick())
        .timing_config(TimingConfig {
            delays: DelayModel::uniform(5),
            ..TimingConfig::default()
        })
        .run()
        .expect("flow validates");
    let q = report.delay_quality.as_ref().unwrap();
    assert!(q
        .windows
        .iter()
        .all(|w| w.window_ps == occ_flow::DEFAULT_DOMAIN_PERIOD_PS));
}

/// Every number of two quality blocks, floats by their bits.
fn assert_same_quality(a: &QualityReport, b: &QualityReport, what: &str) {
    assert_eq!(a.sdql.to_bits(), b.sdql.to_bits(), "{what}: sdql");
    assert_eq!(
        a.weighted_coverage_pct.to_bits(),
        b.weighted_coverage_pct.to_bits(),
        "{what}: weighted coverage"
    );
    assert_eq!(
        a.mean_test_slack_ps.to_bits(),
        b.mean_test_slack_ps.to_bits(),
        "{what}: mean slack"
    );
    assert_eq!(
        a.min_test_slack_ps, b.min_test_slack_ps,
        "{what}: min slack"
    );
    assert_eq!(
        a.max_test_slack_ps, b.max_test_slack_ps,
        "{what}: max slack"
    );
    assert_eq!(a.histogram, b.histogram, "{what}: histogram");
    assert_eq!(a.bucket_ps, b.bucket_ps, "{what}: bucket width");
    assert_eq!(
        a.detected_timed, b.detected_timed,
        "{what}: timed detections"
    );
    assert_eq!(a.faults, b.faults, "{what}: faults");
    assert_eq!(a.windows, b.windows, "{what}: windows");
}

#[test]
fn quality_is_identical_on_every_engine() {
    let soc = generate(&SocConfig::tiny(7));
    // Table 1 rows (b)-(e), then row (c) under at-speed LBIST.
    let rows = [
        (ClockingMode::ExternalClock { max_pulses: 4 }, false, None),
        (ClockingMode::SimpleCpf, true, None),
        (ClockingMode::EnhancedCpf { max_pulses: 4 }, true, None),
        (
            ClockingMode::ConstrainedExternal { max_pulses: 4 },
            true,
            None,
        ),
        (ClockingMode::SimpleCpf, true, Some(256)),
    ];
    for (mode, mask_bidi, lbist) in rows {
        let run = |engine| {
            let mut flow = TestFlow::new(&soc)
                .clocking(mode)
                .fault_model(FaultKind::Transition)
                .mask_bidi(mask_bidi)
                .engine(engine)
                .atpg(quick())
                .timing(DelayModel::default());
            if let Some(patterns) = lbist {
                flow = flow.pattern_source(PatternSource::Lbist(BistConfig {
                    patterns,
                    ..BistConfig::default()
                }));
            }
            flow.run().expect("flow validates")
        };
        let serial = run(EngineChoice::Serial);
        let want = serial.delay_quality.as_ref().expect("quality block");
        // Enough detections to deal more than one 128-fault block.
        assert!(want.detected_timed > 256, "{mode:?}: too few detections");
        for threads in [1, 2, 8] {
            let sharded = run(EngineChoice::Sharded { threads });
            let what = format!("{mode:?} lbist={lbist:?} threads={threads}");
            assert_eq!(serial.patterns(), sharded.patterns(), "{what}");
            let got = sharded.delay_quality.as_ref().expect("quality block");
            assert_same_quality(want, got, &what);
        }
    }
}
