//! The pattern-source axis end to end: external ATPG reports are
//! unchanged, EDT delivery re-grades under compacted observation with
//! every lost detection accounted, LBIST replaces generation with
//! PRPG/MISR and a refereed signature, and misconfiguration surfaces
//! as typed errors.

use occ_atpg::AtpgOptions;
use occ_core::ClockingMode;
use occ_flow::{
    BistConfig, EdtConfig, FaultKind, FlowError, FlowReport, LintGate, PatternSource, Stage,
    TestFlow,
};
use occ_fsim::ClockBinding;
use occ_netlist::NetlistBuilder;
use occ_soc::{generate, SocConfig};

fn quick() -> AtpgOptions {
    AtpgOptions {
        random_patterns: 32,
        backtrack_limit: 12,
        ..AtpgOptions::default()
    }
}

fn flow(soc: &occ_soc::Soc) -> TestFlow<'_> {
    TestFlow::new(soc)
        .clocking(ClockingMode::SimpleCpf)
        .fault_model(FaultKind::StuckAt)
        .atpg(quick())
}

#[test]
fn external_atpg_reports_are_unchanged() {
    let soc = generate(&SocConfig::tiny(1));
    let base = flow(&soc).run().unwrap();
    let explicit = flow(&soc)
        .pattern_source(PatternSource::ExternalAtpg)
        .run()
        .unwrap();
    assert!(base.pattern_source.is_none());
    assert!(!base.to_json().contains("pattern_source"));
    // Identical up to wall-clock stage timings.
    let strip = |j: String| -> String { j.split(",\"stages\"").next().unwrap().to_owned() };
    assert_eq!(strip(base.to_json()), strip(explicit.to_json()));
    assert!(base.stage_seconds(Stage::PatternSource) == 0.0);
}

#[test]
fn edt_delivery_regrades_under_compacted_observation() {
    let soc = generate(&SocConfig::tiny(2));
    let report = flow(&soc)
        .pattern_source(PatternSource::Edt(EdtConfig::auto()))
        .run()
        .unwrap();
    let ps = report.pattern_source.as_ref().expect("edt block");
    assert_eq!(ps.source, "edt");
    // Referee identity: every kernel detection either survives the
    // compactor or is explained as cancellation / X-masking.
    assert_eq!(
        ps.source_detected + ps.compactor_masked + ps.x_masked,
        ps.kernel_detected,
        "{ps:?}"
    );
    assert!(ps.source_detected <= ps.kernel_detected);
    // tiny() has 2 chains behind 1 auto-derived channel.
    assert!(ps.compression_ratio >= 2.0, "{ps:?}");
    assert!(ps.signature.is_none() && ps.signature_valid.is_none());
    assert!(report.coverage_pct() > 0.0);
    assert!(report.stage_seconds(Stage::PatternSource) > 0.0);
    // Serialization carries the block.
    let json = report.to_json();
    assert!(
        json.contains("\"pattern_source\":{\"source\":\"edt\""),
        "{json}"
    );
    let mut csv = Vec::new();
    report.write_csv(&mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    assert!(csv.contains("compression_ratio"), "{csv}");
    assert!(FlowReport::pattern_source_csv_header().starts_with("design,source"));
    assert!(format!("{report}").contains("pattern source [edt]"));
}

#[test]
fn edt_flows_are_deterministic() {
    let soc = generate(&SocConfig::tiny(3));
    let run = || {
        flow(&soc)
            .pattern_source(PatternSource::Edt(EdtConfig::auto()))
            .run()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.pattern_source, b.pattern_source);
    assert_eq!(a.coverage.detected, b.coverage.detected);
    assert_eq!(a.patterns(), b.patterns());
}

#[test]
fn lbist_replaces_atpg_with_a_refereed_signature() {
    let soc = generate(&SocConfig::tiny(4));
    let cfg = BistConfig {
        patterns: 256,
        ..BistConfig::default()
    };
    let report = flow(&soc)
        .pattern_source(PatternSource::Lbist(cfg))
        .run()
        .unwrap();
    let ps = report.pattern_source.as_ref().expect("lbist block");
    assert_eq!(ps.source, "lbist");
    assert_eq!(
        ps.source_detected + ps.aliased + ps.x_masked,
        ps.kernel_detected,
        "{ps:?}"
    );
    assert_eq!(report.patterns(), 256);
    assert!(report.coverage_pct() > 0.0, "{report}");
    // The generation stage is the pattern source, not ATPG.
    assert!(report.stage_seconds(Stage::PatternSource) > 0.0);
    assert!(report.stage_seconds(Stage::Atpg) == 0.0);
    assert!(ps.signature_valid.is_some());
    // Same campaign with a lint stage: the X-source audit comes from
    // the lint block instead of an internal run, same verdict.
    let linted = flow(&soc)
        .lint(LintGate::Warn)
        .pattern_source(PatternSource::Lbist(cfg))
        .run()
        .unwrap();
    let lp = linted.pattern_source.as_ref().unwrap();
    assert_eq!(lp.x_sources, ps.x_sources);
    assert_eq!(lp.signature, ps.signature);
}

#[test]
fn embedded_sources_require_a_soc_flow() {
    // A bare-model flow has no scan-chain architecture to hang a
    // decompressor or PRPG off of.
    let mut b = NetlistBuilder::new("bare");
    let clk = b.input("clk");
    let d = b.input("d");
    let se = b.input("se");
    let si = b.input("si");
    let q = b.sdff(d, clk, se, si);
    b.output("q", q);
    let nl = b.finish().unwrap();
    let mut binding = ClockBinding::new();
    binding.add_domain("clk", nl.find("clk").unwrap());

    let err = TestFlow::over(&nl, binding.clone())
        .atpg(quick())
        .pattern_source(PatternSource::Edt(EdtConfig::auto()))
        .run()
        .unwrap_err();
    assert_eq!(err, FlowError::PatternSourceNeedsSoc { source: "edt" });

    let err = TestFlow::over(&nl, binding)
        .atpg(quick())
        .pattern_source(PatternSource::Lbist(BistConfig::default()))
        .run()
        .unwrap_err();
    assert_eq!(err, FlowError::PatternSourceNeedsSoc { source: "lbist" });
}

#[test]
fn explicit_edt_geometry_must_match_the_design() {
    let soc = generate(&SocConfig::tiny(5));
    let err = flow(&soc)
        .pattern_source(PatternSource::Edt(EdtConfig::paper_like(357, 99)))
        .run()
        .unwrap_err();
    match err {
        FlowError::EdtGeometryMismatch { config, design } => {
            assert_eq!(config, (357, 99));
            assert_ne!(config, design);
        }
        other => panic!("expected geometry mismatch, got {other:?}"),
    }

    // More channels than chains is a typed error, derived or explicit,
    // before the codec is sized: `edt:4000000000` on the wire once
    // aborted the daemon on a 32 GB allocation.
    let chains = soc.chains().chains().len();
    let explicit = EdtConfig::paper_like(chains, soc.chains().max_chain_len());
    let with_channels = |cfg: &EdtConfig, channels| EdtConfig {
        channels,
        ..cfg.clone()
    };
    for cfg in [
        with_channels(&EdtConfig::auto(), chains + 1),
        with_channels(&EdtConfig::auto(), 4_000_000_000),
        with_channels(&explicit, chains + 1),
        with_channels(&explicit, 0),
    ] {
        let err = flow(&soc)
            .pattern_source(PatternSource::Edt(cfg.clone()))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            FlowError::EdtChannelCount {
                channels: cfg.channels,
                chains
            }
        );
    }
    for cfg in [
        with_channels(&EdtConfig::auto(), chains),
        with_channels(&explicit, chains),
    ] {
        let report = flow(&soc)
            .pattern_source(PatternSource::Edt(cfg))
            .run()
            .expect("one channel per chain is a valid geometry");
        assert!(report.pattern_source.is_some());
    }
}
