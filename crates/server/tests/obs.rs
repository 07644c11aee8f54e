//! End-to-end observability: the `metrics` wire op serves the full
//! catalog with live counters, `stats` carries cumulative per-op and
//! error tallies, and identical warm jobs move the registry by
//! identical deltas.
//!
//! The metric registry is process-global, so everything registry-
//! sensitive runs inside one test function, sequentially.

use occ_core::ClockingMode;
use occ_server::{request, serve, FlowService, JobSpec, Json, ServerConfig};
use occ_soc::SocConfig;

#[test]
fn metrics_stats_and_warm_job_deltas() {
    let mut server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_budget: 0,
        ..ServerConfig::default()
    })
    .expect("bind on an ephemeral port");
    let addr = server.addr();

    // One traced flow job, then scrape.
    let flow_line = r#"{"op":"flow","design":{"preset":"tiny","seed":5},"clocking":"simple-cpf","random_patterns":32,"backtrack_limit":12,"trace":true}"#;
    let response = request(addr, flow_line).unwrap();
    let v = Json::parse(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    assert!(
        v.get("report").unwrap().get("trace").is_some(),
        "trace:true reply carries the span tree"
    );

    let scrape = request(addr, r#"{"op":"metrics"}"#).unwrap();
    let v = Json::parse(&scrape).unwrap();
    assert_eq!(v.get("op").and_then(Json::as_str), Some("metrics"));
    let text = v
        .get("exposition")
        .and_then(Json::as_str)
        .expect("metrics reply carries the exposition");

    // The catalog is complete (every family present with HELP/TYPE)
    // and the flow moved the kernel and cache counters off zero.
    for family in [
        "occ_kernel_faults_graded_total",
        "occ_kernel_events_total",
        "occ_atpg_decisions_total",
        "occ_atpg_podem_calls_total",
        "occ_atpg_aborted_calls_total",
        "occ_atpg_speculative_discarded_total",
        "occ_cache_hits_total",
        "occ_cache_misses_total",
        "occ_requests_total",
        "occ_request_errors_total",
        "occ_request_latency_seconds",
        "occ_flow_stage_seconds",
        "occ_jobs_pending",
        "occ_cache_resident_bytes",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family}")),
            "{family} in catalog"
        );
    }
    let series_value = |needle: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("series {needle} present and numeric"))
    };
    assert!(series_value("occ_kernel_faults_graded_total") > 0.0);
    assert!(series_value("occ_kernel_events_total") > 0.0);
    assert!(series_value(r#"occ_cache_misses_total{kind="design"}"#) > 0.0);
    assert!(series_value(r#"occ_requests_total{op="flow"}"#) > 0.0);

    // `stats` reports the same cumulative tallies as JSON objects:
    // the flow and metrics requests above are already counted.
    let stats = request(addr, r#"{"op":"stats"}"#).unwrap();
    let v = Json::parse(&stats).unwrap();
    let ops = v.get("ops").expect("stats carries per-op counts");
    assert!(ops.get("flow").and_then(Json::as_u64).unwrap() >= 1);
    assert!(ops.get("metrics").and_then(Json::as_u64).unwrap() >= 1);
    let errors = v.get("errors").expect("stats carries error tallies");
    let before_bad = errors.get("bad-request").and_then(Json::as_u64).unwrap();
    let bad = request(addr, r#"{"op":"no-such-op"}"#).unwrap();
    assert_eq!(
        Json::parse(&bad).unwrap().get("ok").and_then(Json::as_bool),
        Some(false)
    );
    let stats = request(addr, r#"{"op":"stats"}"#).unwrap();
    let after_bad = Json::parse(&stats)
        .unwrap()
        .get("errors")
        .unwrap()
        .get("bad-request")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(after_bad, before_bad + 1);
    server.shutdown();

    // Warm-job determinism, in-process: after a cold run, two
    // identical warm jobs move every counter by the same delta.
    let service = FlowService::new(0);
    let mut job = JobSpec::new(SocConfig::tiny(11));
    job.clocking = ClockingMode::SimpleCpf;
    job.atpg.random_patterns = 32;
    job.atpg.backtrack_limit = 12;
    service.submit(&job).unwrap(); // cold: compiles + caches the design

    let m = occ_obs::metrics();
    let snap0 = m.registry.snapshot();
    service.submit(&job).unwrap();
    let snap1 = m.registry.snapshot();
    service.submit(&job).unwrap();
    let snap2 = m.registry.snapshot();

    // Timing-valued series differ run to run; everything counting
    // discrete work must not. (`_bucket` placement and `_sum` depend
    // on wall time, `_count` does not.)
    let counters_only = |d: std::collections::BTreeMap<String, f64>| {
        d.into_iter()
            .filter(|(k, _)| !k.contains("_bucket") && !k.contains("_sum"))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    let d1 = counters_only(snap1.delta(&snap0));
    let d2 = counters_only(snap2.delta(&snap1));
    assert_eq!(d1, d2, "identical warm jobs must move identical counters");
    assert_eq!(
        d1.get(r#"occ_cache_hits_total{kind="design"}"#),
        Some(&1.0),
        "warm jobs hit the design cache"
    );
    assert!(!d1.contains_key(r#"occ_cache_misses_total{kind="design"}"#));
    // Histogram counts (not sums) are part of the deterministic delta:
    // each warm job observes each run stage exactly once.
    assert!(d1
        .keys()
        .any(|k| k.starts_with("occ_flow_stage_seconds_count")));
}
