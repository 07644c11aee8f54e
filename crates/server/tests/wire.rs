//! Golden wire-format test for the [`FlowReport`] JSON emitted over
//! the protocol.
//!
//! The daemon embeds the report's JSON tree (`FlowReport::json()`, the
//! same tree `to_json()` renders) in its response line, so this file
//! *is* the compatibility contract for wire clients: the exact
//! top-level key sequence, the sub-keys of every nested block, the
//! form and value of every number, and round-trippability through the
//! std-only parser. Renaming or reordering a report key breaks this test
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
        .map(|(k, _)| k.as_ref())
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

    // The number contract. Each float member is a float whose value is
    // exactly its field at six decimals; each integer member is the
    // exact integer.
    let report = outcome.report.as_ref().unwrap();
    let (q, source) = (
        report.delay_quality.as_ref().unwrap(),
        report.pattern_source.as_ref().unwrap(),
    );
    let six = |v: f64| format!("{v:.6}").parse::<f64>().unwrap();
    for (block, key, field) in [
        (&parsed, "coverage_pct", report.coverage_pct()),
        (&parsed, "efficiency_pct", report.efficiency_pct()),
        (quality, "sdql", q.sdql),
        (quality, "weighted_coverage_pct", q.weighted_coverage_pct),
        (quality, "lambda_ps", q.lambda_ps),
        (quality, "mean_test_slack_ps", q.mean_test_slack_ps),
        (ps, "compression_ratio", source.compression_ratio),
    ] {
        assert_eq!(block.get(key), Some(&Json::Num(six(field))), "{key}");
    }
    let (c, s, k, a) = (
        &report.coverage,
        report.stats(),
        &report.kernel,
        &report.atpg_kernel,
    );
    let lint_report = &report.lint.as_ref().unwrap().report;
    let (stats, kernel, atpg_kernel) = (
        parsed.get("stats").unwrap(),
        parsed.get("kernel").unwrap(),
        parsed.get("atpg_kernel").unwrap(),
    );
    for (block, key, field) in [
        (&parsed, "threads", report.threads as u64),
        (&parsed, "procedures", report.procedures as u64),
        (&parsed, "patterns", report.patterns() as u64),
        (&parsed, "total_faults", c.total as u64),
        (&parsed, "detected", c.detected as u64),
        (&parsed, "untestable", c.untestable as u64),
        (&parsed, "aborted", c.aborted as u64),
        (&parsed, "constrained", c.constrained as u64),
        (&parsed, "undetected", c.undetected as u64),
        (stats, "targeted", s.targeted as u64),
        (stats, "podem_calls", s.podem_calls as u64),
        (stats, "tests_found", s.tests_found as u64),
        (stats, "aborted_calls", s.aborted_calls as u64),
        (
            stats,
            "patterns_before_compaction",
            s.patterns_before_compaction as u64,
        ),
        (stats, "fsim_batches", s.fsim_batches as u64),
        (stats, "lint_pruned", s.lint_pruned as u64),
        (kernel, "cells", k.cells as u64),
        (kernel, "comb_cells", k.comb_cells as u64),
        (kernel, "flops", k.flops as u64),
        (kernel, "cone_scan", k.cone_scan as u64),
        (kernel, "cone_po", k.cone_po as u64),
        (kernel, "faults_graded", k.faults_graded),
        (kernel, "cone_pruned", k.cone_pruned),
        (kernel, "events", k.events),
        (atpg_kernel, "decisions", a.decisions),
        (atpg_kernel, "backtracks", a.backtracks),
        (atpg_kernel, "events", a.events),
        (atpg_kernel, "incremental_resims", a.incremental_resims),
        (atpg_kernel, "full_resims", a.full_resims),
        (atpg_kernel, "seeded_sims", a.seeded_sims),
        (lint, "errors", lint_report.errors() as u64),
        (lint, "warnings", lint_report.warnings() as u64),
        (lint, "untestable", lint_report.untestable.len() as u64),
        (lint, "cells_scanned", lint_report.cells_scanned as u64),
        (lint, "faults_scanned", lint_report.faults_scanned as u64),
        (quality, "faults", q.faults as u64),
        (quality, "detected_timed", q.detected_timed as u64),
        (quality, "min_test_slack_ps", q.min_test_slack_ps),
        (quality, "max_test_slack_ps", q.max_test_slack_ps),
        (quality, "bucket_ps", q.bucket_ps),
        (ps, "kernel_detected", source.kernel_detected as u64),
        (ps, "source_detected", source.source_detected as u64),
        (ps, "aliased", source.aliased as u64),
        (ps, "compactor_masked", source.compactor_masked as u64),
        (ps, "x_masked", source.x_masked as u64),
        (ps, "x_sources", source.x_sources as u64),
        (ps, "encode_splits", source.encode_splits as u64),
        (ps, "dropped_cubes", source.dropped_cubes as u64),
    ] {
        assert_eq!(block.get(key), Some(&Json::U64(field)), "{key}");
    }
    let histogram: Vec<Json> = q.histogram.iter().map(|&n| Json::U64(n)).collect();
    assert_eq!(
        quality.get("histogram").unwrap().as_array(),
        Some(&histogram[..])
    );
    for (wire, window) in quality
        .get("windows")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .zip(&q.windows)
    {
        assert_eq!(wire.get("window_ps"), Some(&Json::U64(window.window_ps)));
    }

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

    // The embedded report is the report's own tree: extracting it
    // must equal parsing `to_json()` directly.
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
