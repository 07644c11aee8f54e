//! Golden wire-format test for the [`FlowReport`] JSON emitted over
//! the protocol.
//!
//! The daemon splices `FlowReport::to_json()` verbatim into its
//! response line, so this file *is* the compatibility contract for
//! wire clients: the exact top-level key sequence, the sub-keys of
//! every nested block, and round-trippability through the std-only
//! parser. Renaming or reordering a report key breaks this test
//! first, before it breaks a downstream consumer.

use occ_atpg::AtpgOptions;
use occ_core::ClockingMode;
use occ_flow::{EdtConfig, FlowReport, PatternSource};
use occ_lint::LintGate;
use occ_server::{
    job_line, request, serve, FlowService, JobSpec, Json, ReportFormat, ServerConfig,
};
use occ_soc::SocConfig;

fn keys(value: &Json) -> Vec<&str> {
    value
        .as_object()
        .expect("expected an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect::<Vec<_>>()
}

#[test]
fn flow_report_wire_format_is_stable() {
    let service = FlowService::new(0);
    let mut job = JobSpec::new(SocConfig::tiny(7));
    job.clocking = ClockingMode::SimpleCpf;
    job.mask_bidi = true;
    job.timing = true; // emit the delay_quality block
    job.lint = Some(LintGate::Warn); // emit the lint block
    job.pattern_source = PatternSource::Edt(EdtConfig::auto()); // emit pattern_source
    job.atpg = AtpgOptions {
        random_patterns: 32,
        backtrack_limit: 12,
        ..AtpgOptions::default()
    };
    let outcome = service.submit(&job).unwrap();
    let raw = outcome.report.as_ref().unwrap().to_json();
    let parsed = Json::parse(&raw).expect("report JSON must parse");

    // The full top-level key sequence, in order. This is the golden
    // contract: additions belong at a documented position, removals
    // and reorders are wire breaks.
    assert_eq!(
        keys(&parsed),
        [
            "design",
            "clocking",
            "fault_model",
            "engine",
            "threads",
            "procedures",
            "patterns",
            "total_faults",
            "detected",
            "untestable",
            "aborted",
            "constrained",
            "undetected",
            "coverage_pct",
            "efficiency_pct",
            "stats",
            "kernel",
            "atpg_kernel",
            "lint",
            "delay_quality",
            "pattern_source",
            "stages",
            "total_seconds",
        ]
    );

    assert_eq!(
        keys(parsed.get("stats").unwrap()),
        [
            "targeted",
            "podem_calls",
            "tests_found",
            "aborted_calls",
            "patterns_before_compaction",
            "fsim_batches",
            "lint_pruned",
        ]
    );
    assert_eq!(
        keys(parsed.get("kernel").unwrap()),
        [
            "cells",
            "comb_cells",
            "flops",
            "cone_scan",
            "cone_po",
            "faults_graded",
            "cone_pruned",
            "events",
        ]
    );
    assert_eq!(
        keys(parsed.get("atpg_kernel").unwrap()),
        [
            "decisions",
            "backtracks",
            "events",
            "incremental_resims",
            "full_resims",
            "seeded_sims",
        ]
    );

    let lint = parsed.get("lint").unwrap();
    assert_eq!(
        keys(lint),
        [
            "gate",
            "errors",
            "warnings",
            "untestable",
            "cells_scanned",
            "faults_scanned",
            "rules",
        ]
    );
    assert!(
        lint.get("rules").unwrap().as_object().is_some(),
        "lint.rules must be a per-rule code:count object"
    );

    let quality = parsed.get("delay_quality").unwrap();
    assert_eq!(
        keys(quality),
        [
            "sdql",
            "weighted_coverage_pct",
            "lambda_ps",
            "faults",
            "detected_timed",
            "mean_test_slack_ps",
            "min_test_slack_ps",
            "max_test_slack_ps",
            "bucket_ps",
            "histogram",
            "windows",
        ]
    );
    for window in quality.get("windows").unwrap().as_array().unwrap() {
        assert_eq!(keys(window), ["name", "window_ps", "at_speed"]);
    }

    let ps = parsed.get("pattern_source").unwrap();
    assert_eq!(
        keys(ps),
        [
            "source",
            "kernel_detected",
            "source_detected",
            "aliased",
            "compactor_masked",
            "x_masked",
            "signature",
            "signature_valid",
            "x_sources",
            "compression_ratio",
            "encode_splits",
            "dropped_cubes",
        ]
    );
    assert_eq!(ps.get("source").and_then(Json::as_str), Some("edt"));

    // Every stage entry is {stage, seconds} and the cardinal numbers
    // survive the std-only parser exactly (u64-exact extraction).
    for stage in parsed.get("stages").unwrap().as_array().unwrap() {
        assert_eq!(keys(stage), ["stage", "seconds"]);
    }
    assert_eq!(
        parsed.get("patterns").unwrap().as_u64(),
        Some(outcome.report.as_ref().unwrap().patterns() as u64)
    );
    assert_eq!(
        parsed.get("design").unwrap().as_str(),
        Some(outcome.report.as_ref().unwrap().design.as_str())
    );

    // Round trip: canonical re-serialization must itself parse to the
    // same document (the writer and parser agree on escapes and
    // number forms).
    let rewritten = parsed.to_string();
    assert_eq!(Json::parse(&rewritten).unwrap(), parsed);
}

#[test]
fn traced_report_inserts_trace_before_stages_and_matches_stage_timings() {
    let service = FlowService::new(0);
    let mut job = JobSpec::new(SocConfig::tiny(7));
    job.clocking = ClockingMode::SimpleCpf;
    job.trace = true;
    job.atpg = AtpgOptions {
        random_patterns: 32,
        backtrack_limit: 12,
        ..AtpgOptions::default()
    };
    let outcome = service.submit(&job).unwrap();
    let raw = outcome.report.as_ref().unwrap().to_json();
    let parsed = Json::parse(&raw).expect("traced report JSON must parse");

    // The optional trace block's documented position: immediately
    // before "stages". Everything else keeps the golden order.
    let top = keys(&parsed);
    let trace_at = top.iter().position(|k| *k == "trace").expect("trace key");
    assert_eq!(top[trace_at + 1], "stages");
    assert_eq!(top[trace_at - 1], "atpg_kernel"); // no lint/quality/ps blocks here

    // The span tree's stage totals ARE the report's per-stage
    // timings: both come from the same records, so the numbers agree
    // exactly over the wire.
    let spans = parsed
        .get("trace")
        .unwrap()
        .get("spans")
        .unwrap()
        .as_array()
        .unwrap();
    let flow_root = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("flow"))
        .expect("flow root span");
    let children = flow_root.get("children").unwrap().as_array().unwrap();
    for stage in parsed.get("stages").unwrap().as_array().unwrap() {
        let label = stage.get("stage").and_then(Json::as_str).unwrap();
        let span = children
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(label))
            .unwrap_or_else(|| panic!("stage '{label}' has a span"));
        assert_eq!(
            span.get("seconds").and_then(Json::as_f64),
            stage.get("seconds").and_then(Json::as_f64),
            "stage '{label}': span and report timings must agree"
        );
    }

    // An untraced run of the same job emits no trace key at all.
    job.trace = false;
    let untraced = service.submit(&job).unwrap();
    let raw = untraced.report.as_ref().unwrap().to_json();
    assert!(!keys(&Json::parse(&raw).unwrap()).contains(&"trace"));
}

#[test]
fn every_pattern_source_serves_over_tcp() {
    let mut server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_budget: 0,
        ..ServerConfig::default()
    })
    .expect("bind on an ephemeral port");

    for (source, expect_block) in [
        ("external", None),
        ("edt:1", Some("edt")),
        ("lbist:128", Some("lbist")),
    ] {
        let line = format!(
            r#"{{"op":"flow","design":{{"preset":"tiny","seed":5}},"clocking":"simple-cpf","random_patterns":32,"backtrack_limit":12,"pattern_source":"{source}"}}"#
        );
        let response = request(server.addr(), &line).unwrap();
        let v = Json::parse(&response).unwrap();
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{source}: {response}"
        );
        let report = v.get("report").expect("flow response carries a report");
        match expect_block {
            None => assert!(report.get("pattern_source").is_none(), "{source}"),
            Some(label) => {
                let ps = report.get("pattern_source").expect("block present");
                assert_eq!(ps.get("source").and_then(Json::as_str), Some(label));
                let n = |key: &str| ps.get(key).and_then(Json::as_u64).unwrap();
                assert_eq!(
                    n("source_detected") + n("aliased") + n("compactor_masked") + n("x_masked"),
                    n("kernel_detected"),
                    "{source}: referee accounting must be exhaustive over the wire"
                );
            }
        }
    }
    // The design artifact was compiled once and shared across sources:
    // the last job hit the cache even though its source differed.
    let stats = request(server.addr(), r#"{"op":"stats"}"#).unwrap();
    let v = Json::parse(&stats).unwrap();
    let design = v.get("cache").unwrap().get("design").unwrap();
    assert_eq!(design.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(design.get("hits").and_then(Json::as_u64), Some(2));
    server.shutdown();
}

#[test]
fn job_response_line_embeds_the_report_verbatim() {
    let service = FlowService::new(0);
    let mut job = JobSpec::new(SocConfig::tiny(7));
    job.clocking = ClockingMode::SimpleCpf;
    job.atpg = AtpgOptions {
        random_patterns: 32,
        backtrack_limit: 12,
        ..AtpgOptions::default()
    };
    let outcome = service.submit(&job).unwrap();
    let line = job_line(&outcome, ReportFormat::Json);

    let response = Json::parse(&line).expect("response line must parse");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("op").and_then(Json::as_str), Some("flow"));

    // The embedded report is the report writer's output spliced in
    // unmodified: extracting and re-serializing it must equal parsing
    // `to_json()` directly.
    let direct = Json::parse(&outcome.report.as_ref().unwrap().to_json()).unwrap();
    assert_eq!(response.get("report"), Some(&direct));

    // CSV framing: header line + one row, last column the wall clock.
    let csv_line = job_line(&outcome, ReportFormat::Csv);
    let csv = Json::parse(&csv_line).unwrap();
    let text = csv
        .get("report_csv")
        .and_then(Json::as_str)
        .expect("csv response carries report_csv");
    let mut lines = text.lines();
    let report = outcome.report.as_ref().unwrap();
    assert_eq!(lines.next(), Some(FlowReport::csv_header()));
    assert_eq!(lines.next(), Some(report.to_csv_row().as_str()));
    assert_eq!(lines.next(), None);
}
