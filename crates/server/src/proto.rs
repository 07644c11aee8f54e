//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, over a plain
//! TCP stream — trivially scriptable (`echo '{"op":"ping"}' | nc`).
//!
//! ## Requests
//!
//! ```json
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"health"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! {"op":"analyze","design":{"preset":"tiny","seed":3}}
//! {"op":"flow","design":{"preset":"paper_like","seed":7,"flops_per_domain":60},
//!  "clocking":"enhanced-cpf:4","fault_model":"transition",
//!  "engine":"serial","backtrack_limit":48,"random_patterns":256,"compaction":true,
//!  "mask_bidi":true,"timing":true,"lint":"deny","format":"json",
//!  "pattern_source":"edt","deadline_ms":60000,"trace":true}
//! ```
//!
//! Every `flow`/`analyze` field except `design` is optional and
//! defaults to the [`TestFlow`](occ_flow::TestFlow) defaults. Keys the
//! protocol does not know are ignored, so a request carrying a retired
//! field still parses.
//! `design.preset` is `tiny` or `paper_like`; `seed` and
//! `flops_per_domain` size it. `format` is `json` (the full
//! [`FlowReport`] embedded as an object) or
//! `csv` (header + row as a string). `pattern_source` is `external`
//! (default), `edt[:channels]` (auto-derived decompressor geometry) or
//! `lbist[:patterns]`. Integer fields (`seed`, `fill_seed`,
//! `deadline_ms`, ...) are read exactly over the whole `u64` range;
//! fields narrower than that reject larger values with `bad-request`.
//!
//! ## Responses
//!
//! Success: `{"ok":true,"op":...,...}` — job responses carry
//! `design_hash`, `warm` and `cache.design_hit` (both true when the
//! design came from the cache), the design `analysis` and, for flow
//! jobs, the `report`.
//! Failure: `{"ok":false,"error":{"code":...,"message":...}}` with
//! code one of `bad-request`, `unsupported-clocking`, `lint-denied`,
//! `model-error`, `flow-error`, `cancelled`, `deadline-exceeded`,
//! `overloaded` (plus a `retry_after_ms` hint), `shutting-down`,
//! `internal`. The README's robustness section tabulates them.
//!
//! Every reply line is a [`Json`] value rendered by its one writer
//! (the constant `ping` and `shutdown` acknowledgements excepted), so
//! a flow reply's report is the same tree as
//! [`FlowReport::to_json`].

use crate::cache::{CacheStats, KindCounters};
use crate::hash::hex;
use crate::service::{FlowService, JobOutcome, JobSpec};
use occ_fault::FaultModel;
use occ_flow::{BistConfig, EdtConfig, EngineChoice, FlowError, FlowReport, Json, PatternSource};
use occ_soc::SocConfig;

/// A protocol-level failure: a stable machine-readable code plus a
/// human-readable message, optionally carrying a retry hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable error code (`bad-request`, `unsupported-clocking`,
    /// `lint-denied`, `model-error`, `flow-error`, `cancelled`,
    /// `deadline-exceeded`, `overloaded`, `shutting-down`, `internal`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// For `overloaded`: how long the client should back off before
    /// retrying (the [`crate::server::request_with_retry`] helper
    /// honours this over its own backoff schedule).
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    /// An error with the given code and message (no retry hint).
    #[must_use]
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// An `overloaded` load-shedding error carrying a retry-after hint.
    #[must_use]
    pub fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> Self {
        ProtoError {
            code: "overloaded",
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    fn bad(message: impl Into<String>) -> Self {
        ProtoError::new("bad-request", message)
    }
}

impl From<FlowError> for ProtoError {
    /// Maps flow errors onto protocol codes. The catch-all arm keeps
    /// this total as `FlowError` (marked `non_exhaustive`) grows.
    fn from(e: FlowError) -> Self {
        let code = match &e {
            FlowError::UnsupportedClocking { .. } => "unsupported-clocking",
            FlowError::LintDenied { .. } => "lint-denied",
            FlowError::Model(_) => "model-error",
            FlowError::Cancelled => "cancelled",
            FlowError::DeadlineExceeded => "deadline-exceeded",
            FlowError::Internal(_) => "internal",
            _ => "flow-error",
        };
        ProtoError::new(code, e.to_string())
    }
}

/// A parsed request.
#[derive(Debug)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Cache counters and occupancy.
    Stats,
    /// Serving state, queue depth and worker budget (answers during a
    /// drain, unlike new jobs).
    Health,
    /// The full live metric catalog as Prometheus text exposition
    /// (answers during a drain, like `health`).
    Metrics,
    /// Stop the daemon: drain queued jobs under the drain deadline,
    /// then close (acknowledged before the listener closes).
    Shutdown,
    /// Run a job (flow or analyze-only, per [`JobSpec::analyze_only`]).
    Job {
        /// The job to run.
        spec: Box<JobSpec>,
        /// Report rendering for flow jobs.
        format: ReportFormat,
    },
}

/// How a flow response embeds its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// The report's JSON object, spliced verbatim.
    Json,
    /// `FlowReport::csv_header()` + the row, as one escaped string.
    Csv,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a `bad-request` [`ProtoError`] naming the offending field.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = Json::parse(line).map_err(|e| ProtoError::bad(e.to_string()))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::bad("missing or non-string 'op'"))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "health" => Ok(Request::Health),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "flow" | "analyze" => {
            let mut spec = JobSpec::new(parse_design(
                v.get("design")
                    .ok_or_else(|| ProtoError::bad("missing 'design'"))?,
            )?);
            spec.analyze_only = op == "analyze";
            if let Some(s) = opt_str(&v, "clocking")? {
                spec.clocking = s.parse().map_err(|e: occ_core::ParseClockingModeError| {
                    ProtoError::bad(e.to_string())
                })?;
            }
            if let Some(s) = opt_str(&v, "fault_model")? {
                spec.fault_model = match s {
                    "stuck-at" => FaultModel::StuckAt,
                    "transition" => FaultModel::Transition,
                    other => {
                        return Err(ProtoError::bad(format!(
                            "unknown fault model '{other}' (expected stuck-at or transition)"
                        )))
                    }
                };
            }
            if let Some(s) = opt_str(&v, "engine")? {
                spec.engine = parse_engine(s)?;
            }
            if let Some(n) = opt_usize(&v, "backtrack_limit")? {
                spec.atpg.backtrack_limit = n;
            }
            if let Some(n) = opt_usize(&v, "random_patterns")? {
                spec.atpg.random_patterns = n;
            }
            if let Some(n) = opt_u64(&v, "fill_seed")? {
                spec.atpg.fill_seed = n;
            }
            if let Some(b) = opt_bool(&v, "compaction")? {
                spec.atpg.compaction = b;
            }
            if let Some(b) = opt_bool(&v, "mask_bidi")? {
                spec.mask_bidi = b;
            }
            if let Some(b) = opt_bool(&v, "timing")? {
                spec.timing = b;
            }
            if let Some(s) = opt_str(&v, "lint")? {
                spec.lint =
                    Some(s.parse().map_err(|e: occ_lint::ParseLintGateError| {
                        ProtoError::bad(e.to_string())
                    })?);
            }
            if let Some(s) = opt_str(&v, "pattern_source")? {
                spec.pattern_source = parse_pattern_source(s)?;
            }
            if let Some(n) = opt_u64(&v, "deadline_ms")? {
                spec.deadline_ms = Some(n);
            }
            if let Some(b) = opt_bool(&v, "trace")? {
                spec.trace = b;
            }
            let format = match opt_str(&v, "format")? {
                None | Some("json") => ReportFormat::Json,
                Some("csv") => ReportFormat::Csv,
                Some(other) => {
                    return Err(ProtoError::bad(format!(
                        "unknown format '{other}' (expected json or csv)"
                    )))
                }
            };
            Ok(Request::Job {
                spec: Box::new(spec),
                format,
            })
        }
        other => Err(ProtoError::bad(format!("unknown op '{other}'"))),
    }
}

fn opt_str<'v>(v: &'v Json, key: &str) -> Result<Option<&'v str>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(ProtoError::bad(format!("'{key}' must be a string"))),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtoError::bad(format!("'{key}' must be a non-negative integer"))),
    }
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, ProtoError> {
    opt_u64(v, key)?
        .map(|n| {
            usize::try_from(n).map_err(|_| {
                ProtoError::bad(format!("'{key}' must be at most {} (got {n})", usize::MAX))
            })
        })
        .transpose()
}

fn opt_bool(v: &Json, key: &str) -> Result<Option<bool>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(b) => b
            .as_bool()
            .map(Some)
            .ok_or_else(|| ProtoError::bad(format!("'{key}' must be a boolean"))),
    }
}

/// The largest worker count `"engine":"sharded:N"` may name. A flow
/// job starts N fault-sim worker threads, forks N + 1 PODEM engines
/// for its search and starts a second pool of N for its timing stage.
/// With no cap, one request line naming `sharded:4000000000` could ask
/// the OS for billions of threads. `auto` stays accepted: it resolves
/// to the host's own parallelism.
pub const MAX_ENGINE_THREADS: usize = 64;

/// Parses an `engine` value (`serial`, `auto` or `sharded:N`), with N
/// in `1..=`[`MAX_ENGINE_THREADS`].
fn parse_engine(s: &str) -> Result<EngineChoice, ProtoError> {
    let engine = s
        .parse()
        .map_err(|e: occ_flow::ParseEngineChoiceError| ProtoError::bad(e.to_string()))?;
    match engine {
        EngineChoice::Sharded { threads } if !(1..=MAX_ENGINE_THREADS).contains(&threads) => {
            Err(ProtoError::bad(format!(
                "'engine' sharded:N must have N in 1..={MAX_ENGINE_THREADS} (got {threads})"
            )))
        }
        engine => Ok(engine),
    }
}

/// Parses a `pattern_source` value: `external`, `edt` (auto geometry),
/// `edt:<channels>`, `lbist` (default budget) or `lbist:<patterns>`.
fn parse_pattern_source(s: &str) -> Result<PatternSource, ProtoError> {
    let (head, arg) = match s.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (s, None),
    };
    let num = |what: &str| -> Result<Option<usize>, ProtoError> {
        arg.map(|a| {
            a.parse::<usize>().map_err(|_| {
                ProtoError::bad(format!(
                    "pattern source '{head}:{a}': {what} must be a number"
                ))
            })
        })
        .transpose()
    };
    match head {
        "external" => match arg {
            None => Ok(PatternSource::ExternalAtpg),
            Some(a) => Err(ProtoError::bad(format!(
                "pattern source 'external' takes no argument (got '{a}')"
            ))),
        },
        "edt" => {
            let mut cfg = EdtConfig::auto();
            if let Some(channels) = num("channel count")? {
                cfg.channels = channels;
            }
            Ok(PatternSource::Edt(cfg))
        }
        "lbist" => {
            let mut cfg = BistConfig::default();
            if let Some(patterns) = num("pattern budget")? {
                cfg.patterns = patterns;
            }
            Ok(PatternSource::Lbist(cfg))
        }
        other => Err(ProtoError::bad(format!(
            "unknown pattern source '{other}' (expected external, edt[:channels] or lbist[:patterns])"
        ))),
    }
}

/// The largest `design.flops_per_domain` a request may name, for
/// either preset. At the cap a `paper_like` design has ~91k cells; on a
/// 2-core x86-64 host the daemon builds it in ~0.08 s, peaking at
/// ~17 MB resident. With no cap, one request line naming
/// 4,000,000,000 aborted the daemon on a failed allocation.
pub const MAX_FLOPS_PER_DOMAIN: usize = 8_192;

fn parse_design(v: &Json) -> Result<SocConfig, ProtoError> {
    let preset = v
        .get("preset")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::bad("design needs a string 'preset' (tiny or paper_like)"))?;
    let seed = opt_u64(v, "seed")?.unwrap_or(1);
    let flops = opt_usize(v, "flops_per_domain")?;
    if let Some(f) = flops.filter(|&f| f > MAX_FLOPS_PER_DOMAIN) {
        return Err(ProtoError::bad(format!(
            "'flops_per_domain' must be in 0..={MAX_FLOPS_PER_DOMAIN} (got {f})"
        )));
    }
    match preset {
        "tiny" => {
            let mut config = SocConfig::tiny(seed);
            if let Some(f) = flops {
                for d in &mut config.domains {
                    d.flops = f;
                }
            }
            Ok(config)
        }
        "paper_like" => Ok(SocConfig::paper_like(seed, flops.unwrap_or(60))),
        other => Err(ProtoError::bad(format!(
            "unknown design preset '{other}' (expected tiny or paper_like)"
        ))),
    }
}

/// Renders a failure response line.
#[must_use]
pub fn error_line(e: &ProtoError) -> String {
    let retry = e.retry_after_ms.map(|ms| ("retry_after_ms", ms.into()));
    let error = [
        ("code", e.code.into()),
        ("message", e.message.as_str().into()),
    ];
    Json::obj([
        ("ok", false.into()),
        ("error", Json::obj(error.into_iter().chain(retry))),
    ])
    .to_string()
}

/// Renders the `health` response line.
#[must_use]
pub fn health_line(state: &str, pending: usize, workers: usize) -> String {
    Json::obj([
        ("ok", true.into()),
        ("op", "health".into()),
        ("state", state.into()),
        ("pending", pending.into()),
        ("workers", workers.into()),
    ])
    .to_string()
}

/// Renders the response line for a completed job.
#[must_use]
pub fn job_line(outcome: &JobOutcome, format: ReportFormat) -> String {
    let op = if outcome.report.is_some() {
        "flow"
    } else {
        "analyze"
    };
    let (c, a) = (&outcome.cache, &outcome.analysis);
    let report = outcome.report.as_ref().map(|report| match format {
        // The report's own tree, so a served report is byte-identical
        // to an in-process `to_json()`.
        ReportFormat::Json => ("report", report.json()),
        ReportFormat::Csv => (
            "report_csv",
            format!("{}\n{}", FlowReport::csv_header(), report.to_csv_row()).into(),
        ),
    });
    let members = [
        ("ok", true.into()),
        ("op", op.into()),
        ("design_hash", hex(outcome.design_hash).into()),
        ("warm", outcome.warm.into()),
        ("cache", Json::obj([("design_hit", c.design_hit.into())])),
        (
            "analysis",
            Json::obj([
                ("design", a.design.as_str().into()),
                ("cells", a.cells.into()),
                ("flops", a.flops.into()),
                ("scan_flops", a.scan_flops.into()),
                ("domains", a.domains.into()),
                ("graph_bytes", a.graph_bytes.into()),
            ]),
        ),
    ];
    Json::obj(members.into_iter().chain(report)).to_string()
}

fn counters_obj(c: &KindCounters) -> Json {
    Json::obj([
        ("hits", c.hits.into()),
        ("misses", c.misses.into()),
        ("evictions", c.evictions.into()),
    ])
}

/// Renders the `stats` response line: cache counters plus cumulative
/// per-op request counts and error-code tallies since daemon start,
/// sourced from the global [`occ_obs`] metrics registry.
#[must_use]
pub fn stats_line(s: &CacheStats) -> String {
    let m = occ_obs::metrics();
    let tally = |names: &[&'static str], counters: &[std::sync::Arc<occ_obs::Counter>]| {
        Json::obj(
            names
                .iter()
                .zip(counters)
                .map(|(&n, c)| (n, c.get().into())),
        )
    };
    Json::obj([
        ("ok", true.into()),
        ("op", "stats".into()),
        (
            "cache",
            Json::obj([
                ("design", counters_obj(&s.design)),
                ("entries", s.entries.into()),
                ("bytes", s.bytes.into()),
            ]),
        ),
        ("ops", tally(&occ_obs::OPS, &m.requests)),
        ("errors", tally(&occ_obs::ERROR_CODES, &m.request_errors)),
    ])
    .to_string()
}

/// Renders the `metrics` response line: the full catalog as
/// Prometheus text exposition, JSON-escaped into one field.
#[must_use]
pub fn metrics_line() -> String {
    let exposition = occ_obs::metrics().registry.render();
    Json::obj([
        ("ok", true.into()),
        ("op", "metrics".into()),
        ("exposition", exposition.into()),
    ])
    .to_string()
}

/// Executes one already-parsed request against the service and renders
/// the response line. `Shutdown` and `Ping` are handled by the caller
/// (the daemon needs to act on shutdown; ping needs no service).
#[must_use]
pub fn run_job(service: &FlowService, spec: &JobSpec, format: ReportFormat) -> String {
    run_job_with_cancel(service, spec, format, None)
}

/// [`run_job`] under an external cancel scope (the daemon's drain
/// token); the job's own deadline nests inside it.
#[must_use]
pub fn run_job_with_cancel(
    service: &FlowService,
    spec: &JobSpec,
    format: ReportFormat,
    parent: Option<&occ_flow::CancelToken>,
) -> String {
    match service.submit_with_cancel(spec, parent) {
        Ok(outcome) => job_line(&outcome, format),
        Err(e) => {
            let pe = ProtoError::from(e);
            let m = occ_obs::metrics();
            if let Some(c) = m.request_error(pe.code) {
                c.inc();
            }
            match pe.code {
                "deadline-exceeded" => m.cancellations[0].inc(),
                "cancelled" => m.cancellations[1].inc(),
                _ => {}
            }
            error_line(&pe)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_flow_requests() {
        let r = parse_request(r#"{"op":"flow","design":{"preset":"tiny","seed":9}}"#).unwrap();
        let Request::Job { spec, format } = r else {
            panic!("not a job")
        };
        assert!(!spec.analyze_only);
        assert_eq!(spec.design.seed, 9);
        assert_eq!(format, ReportFormat::Json);

        // The line carries the retired ATPG-engine key: it is ignored
        // like any unknown key, so old clients keep working.
        let r = parse_request(
            r#"{"op":"flow","design":{"preset":"paper_like","seed":7,"flops_per_domain":40},
               "clocking":"enhanced-cpf:3","fault_model":"stuck-at","engine":"sharded:2",
               "atpg_engine":"reference","backtrack_limit":9,"random_patterns":17,
               "compaction":false,"mask_bidi":true,"timing":true,"lint":"warn","format":"csv"}"#,
        )
        .unwrap();
        let Request::Job { spec, format } = r else {
            panic!("not a job")
        };
        assert_eq!(spec.design.domains[0].flops, 40);
        assert_eq!(
            spec.clocking,
            occ_core::ClockingMode::EnhancedCpf { max_pulses: 3 }
        );
        assert_eq!(spec.fault_model, FaultModel::StuckAt);
        assert_eq!(spec.atpg.backtrack_limit, 9);
        assert_eq!(spec.atpg.random_patterns, 17);
        assert!(!spec.atpg.compaction);
        assert!(spec.mask_bidi && spec.timing);
        assert_eq!(spec.lint, Some(occ_lint::LintGate::Warn));
        assert_eq!(format, ReportFormat::Csv);
    }

    #[test]
    fn parses_pattern_sources() {
        assert_eq!(
            parse_pattern_source("external").unwrap(),
            PatternSource::ExternalAtpg
        );
        let PatternSource::Edt(cfg) = parse_pattern_source("edt:4").unwrap() else {
            panic!("not edt");
        };
        assert_eq!(cfg.channels, 4);
        assert_eq!(cfg.chains, 0, "geometry stays auto-derived");
        assert_eq!(parse_pattern_source("edt").unwrap(), {
            PatternSource::Edt(EdtConfig::auto())
        });
        let PatternSource::Lbist(cfg) = parse_pattern_source("lbist:512").unwrap() else {
            panic!("not lbist");
        };
        assert_eq!(cfg.patterns, 512);
        for bad in ["prng", "edt:none", "lbist:-4", "external:2"] {
            assert_eq!(parse_pattern_source(bad).unwrap_err().code, "bad-request");
        }
    }

    #[test]
    fn rejects_bad_requests_with_codes() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"flow"}"#, "missing 'design'"),
            (
                r#"{"op":"flow","design":{"preset":"huge"}}"#,
                "unknown design preset",
            ),
            (
                r#"{"op":"flow","design":{"preset":"tiny"},"clocking":"warp"}"#,
                "unknown clocking mode",
            ),
            (
                r#"{"op":"flow","design":{"preset":"tiny"},"backtrack_limit":-1}"#,
                "non-negative",
            ),
            (
                r#"{"op":"analyze","design":{"preset":"paper_like","flops_per_domain":4000000000}}"#,
                "'flops_per_domain' must be in 0..=8192 (got 4000000000)",
            ),
            (
                r#"{"op":"flow","design":{"preset":"tiny","flops_per_domain":8193}}"#,
                "'flops_per_domain' must be in 0..=8192",
            ),
            (
                r#"{"op":"flow","design":{"preset":"tiny"},"engine":"sharded:0"}"#,
                "'engine' sharded:N must have N in 1..=64 (got 0)",
            ),
            (
                r#"{"op":"flow","design":{"preset":"tiny"},"engine":"sharded:65"}"#,
                "'engine' sharded:N must have N in 1..=64 (got 65)",
            ),
            (
                r#"{"op":"flow","design":{"preset":"tiny"},"engine":"sharded:4000000000"}"#,
                "'engine' sharded:N must have N in 1..=64 (got 4000000000)",
            ),
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code, "bad-request", "{line}");
            assert!(e.message.contains(needle), "{line}: {}", e.message);
        }
        let line = format!(
            r#"{{"op":"flow","design":{{"preset":"tiny"}},"engine":"sharded:{MAX_ENGINE_THREADS}"}}"#
        );
        let Request::Job { spec, .. } = parse_request(&line).unwrap() else {
            panic!("not a job")
        };
        assert_eq!(
            spec.engine,
            EngineChoice::Sharded {
                threads: MAX_ENGINE_THREADS
            }
        );
    }

    #[test]
    fn flops_per_domain_accepts_its_whole_range() {
        let line = format!(
            r#"{{"op":"analyze","design":{{"preset":"paper_like","flops_per_domain":{MAX_FLOPS_PER_DOMAIN}}}}}"#
        );
        let Request::Job { spec, .. } = parse_request(&line).unwrap() else {
            panic!("not a job")
        };
        assert_eq!(spec.design.domains[0].flops, MAX_FLOPS_PER_DOMAIN);
    }

    #[test]
    fn wire_integers_are_exact_over_the_whole_u64_range() {
        let job = |line: &str| match parse_request(line) {
            Ok(Request::Job { spec, .. }) => spec,
            other => panic!("{line}: {other:?}"),
        };
        let spec = job(r#"{"op":"analyze","design":{"preset":"tiny","seed":9007199254740993}}"#);
        assert_eq!(spec.design.seed, 9_007_199_254_740_993);
        let spec =
            job(r#"{"op":"flow","design":{"preset":"tiny"},"fill_seed":18446744073709551615}"#);
        assert_eq!(spec.atpg.fill_seed, u64::MAX);
    }

    #[test]
    fn error_lines_are_valid_json() {
        let e = ProtoError::bad("field \"x\" broke\nbadly");
        let line = error_line(&e);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_str), Some("bad-request"));
        assert!(err.get("message").unwrap().as_str().unwrap().contains('\n'));
    }

    #[test]
    fn flow_error_codes_map() {
        assert_eq!(ProtoError::from(FlowError::NoDomains).code, "flow-error");
        assert_eq!(
            ProtoError::from(FlowError::LintDenied {
                errors: 1,
                first: "x".into()
            })
            .code,
            "lint-denied"
        );
    }
}
