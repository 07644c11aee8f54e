//! The `daemon` workload: the TCP daemon (`occ_server::serve`, two
//! workers, unbounded cache) on loopback, driven by two closed-loop
//! clients over persistent connections.
//!
//! Each client replays its own seeded request sequence: one sends
//! `analyze` requests only, the other alternates a `flow` and an
//! `analyze`. Analyzes name the warm design set that set-up compiled,
//! except one in every twenty, which names a never-seen design (a cold
//! build). Flows run the four
//! transition clocking modes on two small paper-like designs with the
//! timing stage. Every request line goes out in one write on an untuned
//! socket, as a plain client would send it: no `TCP_NODELAY`, no
//! quick-ACK, no reconnects, so the benchmark sees the reply latency a
//! client sees.

use crate::layers::{record_layers, record_quality, traced_flow, Counters, Design, Quality};
use crate::mix::{median, peak_rss_mb, percentile, repeat_setup, AnalyzeMix, Probe, Rng};
use crate::{spans, Run, Size, PAPER_SEED};
use occ_server::{
    parse_request, serve, FlowService, JobSpec, Json, Request, ServerConfig, ServerHandle,
};
use occ_soc::SocConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const CLIENTS: usize = 2;
/// Cold daemon set-ups timed before the timed phase, and again after it.
const SETUP_REPS: usize = 9;
/// The client that sends the flows.
const FLOW_CLIENT: usize = 1;
/// The transition-test rows (b)–(e): clocking mode and bidi masking.
const FLOW_MODES: [(&str, bool); 4] = [
    ("external:4", false),
    ("simple-cpf", true),
    ("enhanced-cpf:4", true),
    ("constrained-external:4", true),
];

fn design_json(config: &SocConfig) -> String {
    format!(
        r#"{{"preset":"paper_like","seed":{},"flops_per_domain":{}}}"#,
        config.seed, config.domains[0].flops
    )
}

fn analyze_line(config: &SocConfig) -> String {
    format!(r#"{{"op":"analyze","design":{}}}"#, design_json(config))
}

fn flow_designs(size: &Size) -> Vec<SocConfig> {
    size.flow_flops
        .iter()
        .map(|&f| SocConfig::paper_like(PAPER_SEED, f))
        .collect()
}

fn flow_lines(size: &Size) -> Vec<String> {
    flow_designs(size)
        .iter()
        .flat_map(|design| {
            FLOW_MODES.iter().map(move |(mode, mask)| {
                format!(
                    r#"{{"op":"flow","design":{},"clocking":"{mode}","mask_bidi":{mask},"timing":true,"backtrack_limit":16,"random_patterns":64}}"#,
                    design_json(design)
                )
            })
        })
        .collect()
}

fn job_of(line: &str) -> JobSpec {
    match parse_request(line) {
        Ok(Request::Job { spec, .. }) => *spec,
        other => panic!("benchmark flow line does not parse: {other:?}"),
    }
}

/// A request of a client sequence.
enum Req {
    Analyze { line: String, warm: bool },
    Flow(usize),
}

/// Client 0 sends only analyzes; client 1 alternates a flow and an
/// analyze. A single flow client keeps flows from competing with each
/// other for the two cores, so a flow's latency is the flow's own; at
/// today's reply latencies the mix comes to about ten analyzes per flow.
fn client_sequence(
    mix: &AnalyzeMix,
    seed: u64,
    client: usize,
    size: &Size,
    flows: usize,
) -> Vec<Req> {
    let mut rng = Rng::new(seed, 0xC11E_0000 + client as u64);
    let mut analyzes = mix.sequence(&mut rng, size.sequence).into_iter();
    let mut cold = 0;
    // Flow specs are dealt from shuffled decks, so every spec runs
    // equally often whatever the seed.
    let mut deck: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(size.sequence);
    for k in 0..size.sequence {
        if client == FLOW_CLIENT && k % 2 == 0 {
            if deck.is_empty() {
                deck = (0..flows).collect();
                rng.shuffle(&mut deck);
            }
            out.push(Req::Flow(deck.pop().expect("refilled above")));
            continue;
        }
        let target = analyzes.next().expect("sequence sized for the requests");
        let design = match target {
            Some(i) => mix.warm[i].clone(),
            None => {
                cold += 1;
                mix.cold(client as u64, cold)
            }
        };
        out.push(Req::Analyze {
            line: analyze_line(&design),
            warm: target.is_some(),
        });
    }
    out
}

/// One request on a fresh connection, sent in one write.
fn fresh_request(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    let mut conn = Conn::new(stream)?;
    conn.call(line)
}

/// A persistent client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.buf.trim_end().to_owned())
    }
}

/// A running daemon with its warm design set compiled and the client
/// connections open. Clients close before the daemon drains.
struct Daemon {
    clients: Vec<Conn>,
    handle: ServerHandle,
}

fn ok_reply(reply: &str) -> Option<Json> {
    let v = Json::parse(reply).ok()?;
    (v.get("ok").and_then(Json::as_bool) == Some(true)).then_some(v)
}

fn cold_daemon(warm: &[SocConfig]) -> Daemon {
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_budget: 0,
        ..ServerConfig::default()
    })
    .expect("bind a loopback port");
    for design in warm {
        let reply = fresh_request(handle.addr(), &analyze_line(design)).expect("daemon answers");
        assert!(
            ok_reply(&reply).is_some(),
            "warm-up analyze failed: {reply}"
        );
    }
    let clients = (0..CLIENTS)
        .map(|_| Conn::new(TcpStream::connect(handle.addr()).expect("connect")).expect("clone"))
        .collect();
    Daemon { clients, handle }
}

/// Coverage, patterns, aborted faults and SDQL as a flow reply carries
/// them (floats at the report's six decimals).
type WireQuality = (f64, u64, u64, f64);

fn wire_quality(q: &Quality) -> WireQuality {
    let six = |v: f64| {
        format!("{v:.6}")
            .parse::<f64>()
            .expect("formatted float parses")
    };
    (
        six(q.coverage_pct),
        q.patterns as u64,
        q.aborted as u64,
        six(q.sdql),
    )
}

fn reply_quality(v: &Json) -> Option<(WireQuality, f64)> {
    let r = v.get("report")?;
    let num = |o: &Json, k: &str| o.get(k).and_then(Json::as_f64);
    let quality = (
        num(r, "coverage_pct")?,
        r.get("patterns")?.as_u64()?,
        r.get("aborted")?.as_u64()?,
        num(r.get("delay_quality")?, "sdql")?,
    );
    Some((quality, num(r, "total_seconds")?))
}

#[derive(Default)]
struct ClientLog {
    analyze_s: Vec<f64>,
    flow_s: Vec<f64>,
    /// Flow round trip minus the report's own `total_seconds`.
    flow_overhead_s: Vec<f64>,
    flows: Vec<(usize, WireQuality)>,
    bytes: u64,
    replies: u64,
    failed: u64,
    problems: Vec<String>,
}

struct Stop<'a> {
    t0: Instant,
    seconds: f64,
    size: &'a Size,
    analyzes: AtomicUsize,
    flows: AtomicUsize,
}

impl Stop<'_> {
    /// The run ends after `seconds`, once the percentiles have their
    /// samples, or at three times `seconds` regardless.
    fn done(&self) -> bool {
        let elapsed = self.t0.elapsed().as_secs_f64();
        elapsed >= 3.0 * self.seconds
            || (elapsed >= self.seconds
                && self.analyzes.load(Ordering::Relaxed) >= self.size.min_analyzes
                && self.flows.load(Ordering::Relaxed) >= self.size.min_flows)
    }
}

fn client_loop(conn: &mut Conn, reqs: &[Req], flow_lines: &[String], stop: &Stop<'_>) -> ClientLog {
    let mut log = ClientLog::default();
    for req in reqs {
        if stop.done() {
            break;
        }
        let line = match req {
            Req::Analyze { line, .. } => line,
            Req::Flow(i) => &flow_lines[*i],
        };
        let t = Instant::now();
        let reply = conn.call(line);
        let rtt = t.elapsed().as_secs_f64();
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                log.failed += 1;
                log.problems.push(format!("request failed: {e}"));
                break;
            }
        };
        log.replies += 1;
        log.bytes += reply.len() as u64 + 1;
        let ok = match (req, ok_reply(&reply)) {
            (Req::Analyze { warm, .. }, Some(v)) => {
                log.analyze_s.push(rtt);
                stop.analyzes.fetch_add(1, Ordering::Relaxed);
                let hit = v
                    .get("cache")
                    .and_then(|c| c.get("design_hit"))
                    .and_then(Json::as_bool);
                hit == Some(*warm)
            }
            (Req::Flow(i), Some(v)) => {
                log.flow_s.push(rtt);
                stop.flows.fetch_add(1, Ordering::Relaxed);
                match reply_quality(&v) {
                    Some((q, job_s)) => {
                        log.flows.push((*i, q));
                        log.flow_overhead_s.push(rtt - job_s);
                        true
                    }
                    None => false,
                }
            }
            (_, None) => false,
        };
        if !ok {
            log.failed += 1;
            log.problems
                .push(format!("bad reply: {}", &reply[..reply.len().min(200)]));
        }
    }
    log
}

/// In-process `FlowService` runs of the distinct flow specs: what every
/// daemon reply must equal. Returns them with their total seconds on a
/// warm service.
fn reference_flows(size: &Size, jobs: &[JobSpec]) -> (Vec<Quality>, f64) {
    let service = FlowService::new(0);
    for design in flow_designs(size) {
        service
            .submit(&crate::mix::analyze_job(design))
            .expect("flow designs build");
    }
    let t = Instant::now();
    let quality = jobs
        .iter()
        .map(|job| {
            let report = service
                .submit(job)
                .expect("benchmark flows run")
                .report
                .expect("flow jobs report");
            Quality::of_report(&report)
        })
        .collect();
    (quality, t.elapsed().as_secs_f64())
}

pub fn run(size: &Size, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut run = Run::default();
    let mix = AnalyzeMix::new(seed, size.warm_designs, &size.analyze_flops);
    let lines = flow_lines(size);
    let jobs: Vec<JobSpec> = lines.iter().map(|l| job_of(l)).collect();
    let sequences: Vec<Vec<Req>> = (0..CLIENTS)
        .map(|c| client_sequence(&mix, seed, c, size, lines.len()))
        .collect();
    let mut warm = mix.warm.clone();
    warm.extend(flow_designs(size));
    let (mut daemon, mut setup_s) = repeat_setup(SETUP_REPS, || cold_daemon(&warm));

    let stop = Stop {
        t0: Instant::now(),
        seconds,
        size,
        analyzes: AtomicUsize::new(0),
        flows: AtomicUsize::new(0),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .zip(&sequences)
            .map(|(conn, reqs)| s.spawn(|| client_loop(conn, reqs, &lines, &stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let phase_s = stop.t0.elapsed().as_secs_f64();

    let (reference, reference_s) = reference_flows(size, &jobs);
    let wire_reference: Vec<WireQuality> = reference.iter().map(wire_quality).collect();
    let mut all = ClientLog::default();
    for log in logs {
        for &(i, q) in &log.flows {
            let ok = q == wire_reference[i];
            run.op(ok);
            run.check(ok, || {
                format!(
                    "flow {i}: reply {q:?} differs from in-process {:?}",
                    wire_reference[i]
                )
            });
        }
        run.attempted += log.replies - log.flows.len() as u64;
        run.failed += log.failed;
        all.analyze_s.extend(log.analyze_s);
        all.flow_s.extend(log.flow_s);
        all.flow_overhead_s.extend(log.flow_overhead_s);
        all.bytes += log.bytes;
        all.replies += log.replies;
        all.problems.extend(log.problems);
    }
    for p in all.problems.into_iter().take(5) {
        run.check(false, || p);
    }
    for q in &reference {
        run.check(q.counts_sum, || {
            format!("in-process flow {q:?}: status counts do not sum")
        });
    }
    eprintln!(
        "daemon: {} analyze and {} flow replies in {phase_s:.1} s",
        all.analyze_s.len(),
        all.flow_s.len()
    );
    let analyze_p50_ms = percentile(&all.analyze_s, 0.50) * 1e3;

    if trace {
        let mut probe = Probe::new(&mix, seed, size.probe_ops);
        probe.finish(&mix, &mut run);
        probe.record_cache(&mut run);

        let mut ping = Vec::with_capacity(size.pings);
        let mut connect_ping = Vec::with_capacity(size.pings);
        for _ in 0..size.pings {
            let t = Instant::now();
            let persistent = daemon.clients[0].call(r#"{"op":"ping"}"#);
            ping.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let fresh = fresh_request(daemon.handle.addr(), r#"{"op":"ping"}"#);
            connect_ping.push(t.elapsed().as_secs_f64());
            for reply in [persistent, fresh] {
                let ok = reply.is_ok_and(|r| ok_reply(&r).is_some());
                run.op(ok);
            }
        }
        run.set("server.wire.ping_ms", median(&ping) * 1e3);
        run.set("server.wire.connect_ping_ms", median(&connect_ping) * 1e3);
        run.set(
            "server.wire.analyze_overhead_ms",
            analyze_p50_ms - median(&probe.hit_s) * 1e3,
        );
        run.set(
            "server.wire.flow_overhead_ms",
            median(&all.flow_overhead_s) * 1e3,
        );
        run.set(
            "server.wire.response_bytes",
            all.bytes as f64 / all.replies.max(1) as f64,
        );

        let (designs, _) = repeat_setup(SETUP_REPS, || {
            flow_designs(size)
                .iter()
                .map(Design::build)
                .collect::<Vec<_>>()
        });
        let t = Instant::now();
        let mut counters = Counters::default();
        for (i, job) in jobs.iter().enumerate() {
            let (q, c) = traced_flow(&designs[i / FLOW_MODES.len()], job);
            counters += c;
            run.op(q == reference[i]);
            run.check(q == reference[i], || {
                format!(
                    "flow {i}: traced {q:?} differs from the service's {:?}",
                    reference[i]
                )
            });
        }
        let traced_s = t.elapsed().as_secs_f64();
        record_layers(&mut run, &spans::take(), &counters, traced_s);
        run.set("trace.overhead_pct", (traced_s / reference_s - 1.0) * 100.0);
        return run;
    }

    // As many cold set-ups again after the timed phase, so the median
    // spans the run.
    drop(daemon);
    setup_s.extend(repeat_setup(SETUP_REPS, || cold_daemon(&warm)).1);
    run.set("setup_s", median(&setup_s));
    // The daemon's unit of work is a reply: wall_s is the timed phase's
    // seconds per 100 of them.
    run.set("wall_s", phase_s * 100.0 / all.replies.max(1) as f64);
    run.set("jobs_per_s", all.replies as f64 / phase_s);
    run.set("analyze_p50_ms", analyze_p50_ms);
    run.set("analyze_p99_ms", percentile(&all.analyze_s, 0.99) * 1e3);
    run.set("flow_p50_ms", percentile(&all.flow_s, 0.50) * 1e3);
    run.set("flow_p90_ms", percentile(&all.flow_s, 0.90) * 1e3);
    record_quality(&mut run, &reference, |q| q.aborted);
    run.set("ok_frac", run.ok_frac());
    run.set("peak_rss_mb", peak_rss_mb());
    run
}
