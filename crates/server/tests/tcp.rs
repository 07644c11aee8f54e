//! End-to-end daemon tests over a real TCP socket.
//!
//! Binds to port 0 (OS-assigned) so the suite is parallel-safe, then
//! drives the full protocol: ping, flow jobs whose served reports must
//! equal an in-process [`FlowService`] run, stats, error mapping, and
//! a clean `shutdown` handshake.

use occ_server::{
    request, serve, FaultAction, FaultPlan, FlowService, JobSpec, Json, ServerConfig, Trigger,
};
use occ_soc::SocConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_budget: 0,
        ..ServerConfig::default()
    }
}

fn test_server() -> occ_server::ServerHandle {
    serve(&test_config()).expect("bind on an ephemeral port")
}

const FLOW: &str = r#"{"op":"flow","design":{"preset":"tiny","seed":5},
    "clocking":"simple-cpf","mask_bidi":true,
    "random_patterns":32,"backtrack_limit":12}"#;

/// The equivalent of [`FLOW`] against the in-process API.
fn flow_spec() -> JobSpec {
    let mut job = JobSpec::new(SocConfig::tiny(5));
    job.clocking = occ_core::ClockingMode::SimpleCpf;
    job.mask_bidi = true;
    job.atpg.random_patterns = 32;
    job.atpg.backtrack_limit = 12;
    job
}

#[test]
fn ping_round_trips() {
    let mut server = test_server();
    let response = request(server.addr(), r#"{"op":"ping"}"#).unwrap();
    let v = Json::parse(&response).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
    server.shutdown();
}

#[test]
fn served_flow_report_matches_in_process_run() {
    let mut server = test_server();
    // Normalize newlines: requests are one line on the wire.
    let line = FLOW.replace('\n', " ");
    let response = request(server.addr(), &line).unwrap();
    let served = Json::parse(&response).unwrap();
    assert_eq!(
        served.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    assert_eq!(served.get("warm").and_then(Json::as_bool), Some(false));

    let in_process = FlowService::new(0);
    let outcome = in_process.submit(&flow_spec()).unwrap();
    let direct = Json::parse(&outcome.report.as_ref().unwrap().to_json()).unwrap();

    // The served report and the in-process report are the same
    // document once wall-clock members are stripped — the daemon is a
    // transport, not a different pipeline.
    let volatile = ["stages", "total_seconds"];
    assert_eq!(
        served
            .get("report")
            .expect("flow response carries a report")
            .clone()
            .without_keys(&volatile),
        direct.without_keys(&volatile),
    );

    // A second identical request is served warm from the daemon's
    // cache and still matches.
    let again = Json::parse(&request(server.addr(), &line).unwrap()).unwrap();
    assert_eq!(again.get("warm").and_then(Json::as_bool), Some(true));
    assert_eq!(
        again.get("report").unwrap().clone().without_keys(&volatile),
        served
            .get("report")
            .unwrap()
            .clone()
            .without_keys(&volatile),
    );

    // Stats reflect the two jobs: one design miss, one hit.
    let stats = Json::parse(&request(server.addr(), r#"{"op":"stats"}"#).unwrap()).unwrap();
    let design = stats.get("cache").unwrap().get("design").unwrap();
    assert_eq!(design.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(design.get("hits").and_then(Json::as_u64), Some(1));
    server.shutdown();
}

#[test]
fn protocol_errors_are_typed_lines() {
    let mut server = test_server();
    for (line, code) in [
        ("not json at all", "bad-request"),
        (r#"{"op":"warp"}"#, "bad-request"),
        (
            // Zero pulses parses but the flow itself rejects it — the
            // daemon must map the typed FlowError, not die.
            r#"{"op":"flow","design":{"preset":"tiny","seed":1},"clocking":"external:0"}"#,
            "unsupported-clocking",
        ),
    ] {
        let response = request(server.addr(), line).unwrap();
        let v = Json::parse(&response).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(code),
            "{line}: {response}"
        );
    }
    server.shutdown();
}

#[test]
fn one_connection_can_pipeline_requests() {
    let mut server = test_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"op\":\"ping\""), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"stats\""), "{line}");
    server.shutdown();
}

#[test]
fn persistent_connection_replies_without_a_nagle_stall() {
    // The daemon sends each reply in one write. Sent as the line and
    // then its newline, the newline waited in Nagle's buffer for the
    // client's delayed ACK: a median of ~44 ms per reply, against
    // ~0.04 ms in one write, so the bound sits far from both.
    const ROUNDS: usize = 50;
    const MAX_MEDIAN_MS: f64 = 5.0;
    let mut server = test_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut call = |line: &str| -> f64 {
        let t = Instant::now();
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(reply.contains("\"ok\":true"), "{reply}");
        ms
    };
    let analyze = r#"{"op":"analyze","design":{"preset":"tiny","seed":11}}"#;
    call(analyze); // the cold build
    let mut ping: Vec<f64> = (0..ROUNDS).map(|_| call(r#"{"op":"ping"}"#)).collect();
    let mut warm: Vec<f64> = (0..ROUNDS).map(|_| call(analyze)).collect();
    for (what, ms) in [("ping", &mut ping), ("warm analyze", &mut warm)] {
        ms.sort_by(f64::total_cmp);
        let median = ms[ROUNDS / 2];
        assert!(
            median < MAX_MEDIAN_MS,
            "{what}: median {median:.2} ms over {ROUNDS} replies on one connection"
        );
    }
    server.shutdown();
}

#[test]
fn concurrent_tcp_clients_get_deterministic_reports() {
    let mut server = test_server();
    let addr = server.addr();
    let line = FLOW.replace('\n', " ");
    let volatile = ["stages", "total_seconds"];

    let mut handles = Vec::new();
    for _ in 0..4 {
        let line = line.clone();
        handles.push(std::thread::spawn(move || {
            Json::parse(&request(addr, &line).unwrap())
                .unwrap()
                .get("report")
                .expect("flow response carries a report")
                .clone()
                .without_keys(&volatile)
                .to_string()
        }));
    }
    let reports: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "served reports diverged across concurrent clients"
    );
    server.shutdown();
}

#[test]
fn health_op_reports_state_and_pool() {
    let mut server = test_server();
    let v = Json::parse(&request(server.addr(), r#"{"op":"health"}"#).unwrap()).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("state").and_then(Json::as_str), Some("serving"));
    assert_eq!(v.get("pending").and_then(Json::as_u64), Some(0));
    assert_eq!(v.get("workers").and_then(Json::as_u64), Some(2));
    server.shutdown();
}

#[test]
fn oversized_request_line_draws_bad_request_and_closes() {
    let mut config = test_config();
    config.max_line_bytes = 256;
    let mut server = serve(&config).expect("bind on an ephemeral port");

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(1024));
    stream.write_all(huge.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(&line).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad-request"),
        "{line}"
    );
    // Framing is lost past an oversized line: the connection closes.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

    // The daemon itself keeps serving.
    let pong = request(server.addr(), r#"{"op":"ping"}"#).unwrap();
    assert!(pong.contains("\"ok\":true"), "{pong}");
    server.shutdown();
}

#[test]
fn binary_junk_frame_is_a_typed_bad_request() {
    let mut server = test_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&[0xFF, 0xFE, 0x00, 0x9C, b'\n']).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("bad-request"), "{line}");
    server.shutdown();
}

#[test]
fn deeply_nested_line_is_a_typed_bad_request() {
    // 40,000 `[` fit under the default line cap; parsed recursively
    // without a depth bound they overflow the connection thread's
    // stack and abort the whole daemon.
    let mut server = test_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut hostile = "[".repeat(40_000);
    hostile.push('\n');
    stream.write_all(hostile.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(&line).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad-request"),
        "{line}"
    );

    // The same daemon, on the same connection, still answers.
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"op\":\"ping\""), "{line}");
    server.shutdown();
}

#[test]
fn oversized_design_is_a_typed_bad_request() {
    // Built, this design would need more memory than any host has; the
    // daemon used to abort on the failed allocation.
    let mut server = test_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(
            b"{\"op\":\"analyze\",\"design\":{\"preset\":\"paper_like\",\"flops_per_domain\":4000000000}}\n",
        )
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(&line).unwrap();
    let error = v.get("error").expect("an error reply");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("bad-request"),
        "{line}"
    );
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("'flops_per_domain' must be in 0..=8192"),
        "{message}"
    );

    // The same connection still answers.
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"op\":\"ping\""), "{line}");

    // An EDT decompressor with more channels than the design has
    // chains: the daemon used to abort sizing it (32 GB).
    stream
        .write_all(
            b"{\"op\":\"flow\",\"design\":{\"preset\":\"tiny\",\"seed\":3},\"pattern_source\":\"edt:4000000000\"}\n",
        )
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(&line).unwrap();
    let error = v.get("error").expect("an error reply");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("flow-error"),
        "{line}"
    );
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("asks for 4000000000 scan channel(s)"),
        "{message}"
    );
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"op\":\"ping\""), "{line}");

    // A fault-sim pool of four billion workers: rejected at parse
    // time, before a job is queued or a thread started.
    stream
        .write_all(
            b"{\"op\":\"flow\",\"design\":{\"preset\":\"tiny\",\"seed\":3},\"engine\":\"sharded:4000000000\"}\n",
        )
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(&line).unwrap();
    let error = v.get("error").expect("an error reply");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("bad-request"),
        "{line}"
    );
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"op\":\"ping\""), "{line}");
    server.shutdown();
}

#[test]
fn deadline_exceeded_is_typed_and_prompt_while_others_complete() {
    // The first job to reach the flow.stage site sleeps "5 s" — but it
    // carries a 400 ms deadline, so the cooperative delay trips early
    // and the daemon answers `deadline-exceeded` well within 2x the
    // deadline. A second, deadline-free job completes normally.
    let mut config = test_config();
    config.faults =
        FaultPlan::seeded(11).inject("flow.stage", Trigger::Nth(1), FaultAction::DelayMs(5_000));
    let mut server = serve(&config).expect("bind on an ephemeral port");
    let addr = server.addr();

    let mut slow = FLOW.replace('\n', " ");
    slow.truncate(slow.len() - 1);
    slow.push_str(",\"deadline_ms\":400}");
    let t0 = Instant::now();
    let slow_thread = std::thread::spawn(move || (request(addr, &slow).unwrap(), t0.elapsed()));

    // Wait for the doomed job to be in flight before submitting the
    // healthy one, so Nth(1) deterministically hits the former.
    for _ in 0..500 {
        let v = Json::parse(&request(addr, r#"{"op":"health"}"#).unwrap()).unwrap();
        if v.get("pending").and_then(Json::as_u64) >= Some(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(100));

    let healthy = Json::parse(&request(addr, &FLOW.replace('\n', " ")).unwrap()).unwrap();
    assert_eq!(
        healthy.get("ok").and_then(Json::as_bool),
        Some(true),
        "the deadline-free job must complete normally"
    );

    let (slow_response, elapsed) = slow_thread.join().unwrap();
    let v = Json::parse(&slow_response).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("deadline-exceeded"),
        "{slow_response}"
    );
    assert!(
        elapsed < Duration::from_millis(800),
        "deadline must bound the job: took {elapsed:?} for a 400 ms deadline"
    );
    server.shutdown();
}

#[test]
fn queued_jobs_drain_then_eof_on_shutdown() {
    // Pipelining a flow job and a shutdown on one connection: the job
    // response flushes first (ordered pipeline), then the shutdown
    // ack, then EOF — queued work drains before the daemon hangs up.
    let server = test_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut lines = FLOW.replace('\n', " ");
    lines.push('\n');
    lines.push_str("{\"op\":\"shutdown\"}\n");
    stream.write_all(lines.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let job = Json::parse(&line).unwrap();
    assert_eq!(
        job.get("ok").and_then(Json::as_bool),
        Some(true),
        "queued job must finish during drain: {line}"
    );
    assert!(job.get("report").is_some(), "{line}");

    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"op\":\"shutdown\""), "{line}");

    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");
    server.wait();
}

#[test]
fn drain_deadline_expiry_cancels_stragglers() {
    // A job stuck in a "5 s" injected stage meets a 100 ms drain
    // deadline: the drainer cancels it, the client gets a typed
    // `cancelled` error, and the daemon still closes promptly.
    let mut config = test_config();
    config.drain_deadline_ms = 100;
    config.faults =
        FaultPlan::seeded(12).inject("flow.stage", Trigger::Always, FaultAction::DelayMs(5_000));
    let server = serve(&config).expect("bind on an ephemeral port");

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut lines = FLOW.replace('\n', " ");
    lines.push('\n');
    lines.push_str("{\"op\":\"shutdown\"}\n");
    let t0 = Instant::now();
    stream.write_all(lines.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(&line).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("cancelled"),
        "straggler must be cancelled at the drain deadline: {line}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "drain must not wait out the injected 5 s stage"
    );
    server.wait();
}

#[test]
fn health_and_stats_answer_during_drain_and_jobs_are_refused() {
    let mut config = test_config();
    config.drain_deadline_ms = 10_000;
    config.faults =
        FaultPlan::seeded(13).inject("flow.stage", Trigger::Always, FaultAction::DelayMs(1_500));
    let server = serve(&config).expect("bind on an ephemeral port");
    let addr = server.addr();

    // Park one job in the injected slow stage.
    let line = FLOW.replace('\n', " ");
    let job_thread = std::thread::spawn(move || request(addr, &line).unwrap());
    for _ in 0..500 {
        let v = Json::parse(&request(addr, r#"{"op":"health"}"#).unwrap()).unwrap();
        if v.get("pending").and_then(Json::as_u64) >= Some(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // Trigger the drain from a second connection.
    let ack = request(addr, r#"{"op":"shutdown"}"#).unwrap();
    assert!(ack.contains("\"ok\":true"), "{ack}");

    // While draining: health reports the state and the straggler,
    // stats still answers, and new jobs draw `shutting-down`.
    let health = Json::parse(&request(addr, r#"{"op":"health"}"#).unwrap()).unwrap();
    assert_eq!(health.get("state").and_then(Json::as_str), Some("draining"));
    assert!(health.get("pending").and_then(Json::as_u64) >= Some(1));

    let stats = request(addr, r#"{"op":"stats"}"#).unwrap();
    assert!(stats.contains("\"ok\":true"), "{stats}");

    let refused = Json::parse(&request(addr, &FLOW.replace('\n', " ")).unwrap()).unwrap();
    assert_eq!(
        refused
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("shutting-down"),
        "new jobs must be refused during drain"
    );

    // The parked job still completes (the drain deadline is generous).
    let parked = Json::parse(&job_thread.join().unwrap()).unwrap();
    assert_eq!(
        parked.get("ok").and_then(Json::as_bool),
        Some(true),
        "in-flight job must drain to completion"
    );
    server.wait();
}

#[test]
fn overload_is_shed_with_retry_hint_and_retry_succeeds() {
    // One worker + a queue capped at 1: parking a slow job fills the
    // pool, so an immediate second job is shed with `overloaded` and a
    // retry hint; `request_with_retry` waits it out and succeeds.
    let mut config = test_config();
    config.workers = 1;
    config.max_pending = 1;
    config.faults =
        FaultPlan::seeded(14).inject("flow.stage", Trigger::Nth(1), FaultAction::DelayMs(1_000));
    let mut server = serve(&config).expect("bind on an ephemeral port");
    let addr = server.addr();

    let line = FLOW.replace('\n', " ");
    let parked = {
        let line = line.clone();
        std::thread::spawn(move || request(addr, &line).unwrap())
    };
    for _ in 0..500 {
        let v = Json::parse(&request(addr, r#"{"op":"health"}"#).unwrap()).unwrap();
        if v.get("pending").and_then(Json::as_u64) >= Some(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // Bare request: shed, with the typed code and a retry hint.
    let shed = Json::parse(&request(addr, &line).unwrap()).unwrap();
    let error = shed.get("error").expect("typed error");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("overloaded"),
        "{shed:?}"
    );
    assert!(error.get("retry_after_ms").and_then(Json::as_u64) >= Some(1));

    // Retrying client: backs off past the parked job and succeeds.
    let policy = occ_server::RetryPolicy {
        attempts: 20,
        base_ms: 100,
        cap_ms: 500,
        seed: 42,
    };
    let retried =
        Json::parse(&occ_server::request_with_retry(addr, &line, &policy).unwrap()).unwrap();
    assert_eq!(
        retried.get("ok").and_then(Json::as_bool),
        Some(true),
        "retry must eventually land: {retried:?}"
    );

    assert!(parked.join().unwrap().contains("\"ok\":true"));
    server.shutdown();
}

#[test]
fn per_connection_inflight_cap_sheds_excess_pipelining() {
    let mut config = test_config();
    config.workers = 1;
    config.max_inflight_per_conn = 1;
    config.faults =
        FaultPlan::seeded(15).inject("flow.stage", Trigger::Nth(1), FaultAction::DelayMs(500));
    let mut server = serve(&config).expect("bind on an ephemeral port");

    // Two pipelined jobs on one connection: the first parks in the
    // slow stage, the second exceeds the connection's in-flight cap.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut lines = FLOW.replace('\n', " ");
    lines.push('\n');
    lines.push_str(&FLOW.replace('\n', " "));
    lines.push('\n');
    stream.write_all(lines.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    assert!(first.contains("\"ok\":true"), "{first}");
    assert!(
        second.contains("overloaded"),
        "second pipelined job must be shed: {second}"
    );
    server.shutdown();
}

#[test]
fn shutdown_op_stops_the_daemon() {
    let server = test_server();
    let addr = server.addr();
    let response = request(addr, r#"{"op":"shutdown"}"#).unwrap();
    assert!(response.contains("\"ok\":true"), "{response}");
    // The listener is closed (or closing): new requests must fail
    // rather than hang. Allow a brief grace for the accept thread to
    // observe the flag.
    let mut refused = false;
    for _ in 0..50 {
        match request(addr, r#"{"op":"ping"}"#) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    assert!(refused, "daemon kept serving after shutdown");
    // `wait` returns promptly once shut down.
    server.wait();
}
