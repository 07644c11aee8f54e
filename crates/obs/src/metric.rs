//! The process-wide metrics registry and the `occ` metric catalog.
//!
//! Three typed primitives — [`Counter`], [`Gauge`], [`Histogram`] —
//! all plain atomics: bumping one on a hot path is a single relaxed
//! RMW, no lock, no allocation. Every metric is **pre-registered** in
//! a [`MetricsRegistry`] at construction; the registry owns the
//! descriptor (name, help, label set) and renders the whole catalog as
//! Prometheus text exposition for the daemon's `metrics` wire op.
//!
//! [`OccMetrics`] (reachable via [`metrics()`]) is the one catalog the
//! whole workspace feeds: the flow pushes kernel/ATPG deltas when a
//! run completes, the artifact cache bumps hit/miss/evict as they
//! happen, the daemon counts requests, errors, sheds and latencies.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (queue depth, resident
/// bytes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The bucket upper bounds (seconds) used by every latency/duration
/// histogram in the catalog: half a millisecond to ten seconds.
pub const DEFAULT_SECONDS_BOUNDS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// A fixed-bucket histogram of seconds. Observation is bounded work
/// over a static bound table plus three relaxed atomic adds — no
/// allocation, no lock.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    /// Per-bin (non-cumulative) counts; the last bin is +Inf overflow.
    bins: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum kept in nanoseconds so it stays an atomic integer.
    sum_ns: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            bins: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation, in seconds.
    pub fn observe(&self, seconds: f64) {
        let bin = self
            .bounds
            .iter()
            .position(|b| seconds <= *b)
            .unwrap_or(self.bounds.len());
        self.bins[bin].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let ns = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9) as u64
        } else {
            0
        };
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in seconds.
    #[must_use]
    pub fn sum_seconds(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Cumulative bucket counts, one per bound plus the +Inf bucket
    /// last (Prometheus semantics).
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<u64> {
        let mut acc = 0;
        self.bins
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct Desc {
    name: &'static str,
    help: &'static str,
    labels: &'static [(&'static str, &'static str)],
}

impl Desc {
    /// `name{k="v",...}` — the exposition/snapshot series key.
    fn series(&self) -> String {
        series_key(self.name, self.labels, None)
    }
}

fn series_key(name: &str, labels: &[(&str, &str)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return name.to_owned();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{v}\"");
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Trims a float label/exposition value: `0.5` not `0.500000`, but
/// keeps at least one decimal so it still reads as a float.
fn trim_float(v: f64) -> String {
    let mut s = format!("{v:.6}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

#[derive(Debug)]
enum Entry {
    Counter(Desc, Arc<Counter>),
    Gauge(Desc, Arc<Gauge>),
    Histogram(Desc, Arc<Histogram>),
}

impl Entry {
    fn desc(&self) -> &Desc {
        match self {
            Entry::Counter(d, _) | Entry::Gauge(d, _) | Entry::Histogram(d, _) => d,
        }
    }
}

/// An ordered registry of pre-registered metrics. Registration happens
/// once at startup (under a lock); reads and renders never block a
/// writer — the handles are plain atomics the registry merely lists.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a counter and returns its handle.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
    ) -> Arc<Counter> {
        let handle = Arc::new(Counter::default());
        self.entries
            .lock()
            .expect("metrics registry poisoned")
            .push(Entry::Counter(
                Desc { name, help, labels },
                Arc::clone(&handle),
            ));
        handle
    }

    /// Registers a gauge and returns its handle.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
    ) -> Arc<Gauge> {
        let handle = Arc::new(Gauge::default());
        self.entries
            .lock()
            .expect("metrics registry poisoned")
            .push(Entry::Gauge(
                Desc { name, help, labels },
                Arc::clone(&handle),
            ));
        handle
    }

    /// Registers a histogram with the given bucket bounds (seconds).
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
        bounds: &'static [f64],
    ) -> Arc<Histogram> {
        let handle = Arc::new(Histogram::new(bounds));
        self.entries
            .lock()
            .expect("metrics registry poisoned")
            .push(Entry::Histogram(
                Desc { name, help, labels },
                Arc::clone(&handle),
            ));
        handle
    }

    /// Renders the whole catalog as Prometheus text exposition
    /// (`text/plain; version=0.0.4`): `# HELP` / `# TYPE` once per
    /// family, series in registration order.
    #[must_use]
    pub fn render(&self) -> String {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut out = String::with_capacity(entries.len() * 64);
        let mut last_family = "";
        for entry in entries.iter() {
            let d = entry.desc();
            if d.name != last_family {
                let kind = match entry {
                    Entry::Counter(..) => "counter",
                    Entry::Gauge(..) => "gauge",
                    Entry::Histogram(..) => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", d.name, d.help);
                let _ = writeln!(out, "# TYPE {} {kind}", d.name);
                last_family = d.name;
            }
            match entry {
                Entry::Counter(_, c) => {
                    let _ = writeln!(out, "{} {}", d.series(), c.get());
                }
                Entry::Gauge(_, g) => {
                    let _ = writeln!(out, "{} {}", d.series(), g.get());
                }
                Entry::Histogram(_, h) => {
                    let cumulative = h.cumulative_buckets();
                    for (i, acc) in cumulative.iter().enumerate() {
                        let le = if i < h.bounds().len() {
                            trim_float(h.bounds()[i])
                        } else {
                            "+Inf".to_owned()
                        };
                        let key = series_key(
                            &format!("{}_bucket", d.name),
                            unstatic(d.labels),
                            Some(&le),
                        );
                        let _ = writeln!(out, "{key} {acc}");
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        series_key(&format!("{}_sum", d.name), unstatic(d.labels), None),
                        trim_float(h.sum_seconds()),
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        series_key(&format!("{}_count", d.name), unstatic(d.labels), None),
                        h.count(),
                    );
                }
            }
        }
        out
    }

    /// A point-in-time snapshot of every series as `key -> value`.
    /// Histograms contribute `_bucket{...,le=...}`, `_sum` and
    /// `_count` series. Used by the delta-equality tests.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut map = BTreeMap::new();
        for entry in entries.iter() {
            let d = entry.desc();
            match entry {
                Entry::Counter(_, c) => {
                    map.insert(d.series(), c.get() as f64);
                }
                Entry::Gauge(_, g) => {
                    map.insert(d.series(), g.get() as f64);
                }
                Entry::Histogram(_, h) => {
                    let cumulative = h.cumulative_buckets();
                    for (i, acc) in cumulative.iter().enumerate() {
                        let le = if i < h.bounds().len() {
                            trim_float(h.bounds()[i])
                        } else {
                            "+Inf".to_owned()
                        };
                        map.insert(
                            series_key(
                                &format!("{}_bucket", d.name),
                                unstatic(d.labels),
                                Some(&le),
                            ),
                            *acc as f64,
                        );
                    }
                    map.insert(
                        series_key(&format!("{}_sum", d.name), unstatic(d.labels), None),
                        h.sum_seconds(),
                    );
                    map.insert(
                        series_key(&format!("{}_count", d.name), unstatic(d.labels), None),
                        h.count() as f64,
                    );
                }
            }
        }
        MetricsSnapshot { series: map }
    }
}

/// Reborrows a `'static` label slice at a shorter lifetime (the
/// `series_key` helper takes ordinary slices so callers can also pass
/// locals).
fn unstatic<'a>(labels: &'a [(&'static str, &'static str)]) -> &'a [(&'a str, &'a str)] {
    labels
}

/// A point-in-time value map of every registered series.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `series key -> value`, sorted by key.
    pub series: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    /// The value of one series (0.0 when absent).
    #[must_use]
    pub fn get(&self, key: &str) -> f64 {
        self.series.get(key).copied().unwrap_or(0.0)
    }

    /// `self - earlier`, keeping only series that changed.
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> BTreeMap<String, f64> {
        self.series
            .iter()
            .filter_map(|(k, v)| {
                let d = v - earlier.get(k);
                (d != 0.0).then(|| (k.clone(), d))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// The occ metric catalog.
// ---------------------------------------------------------------------

/// Wire-protocol operations the daemon counts.
pub const OPS: [&str; 7] = [
    "ping", "stats", "health", "metrics", "flow", "analyze", "shutdown",
];

/// Protocol error codes the daemon tallies.
pub const ERROR_CODES: [&str; 10] = [
    "bad-request",
    "unsupported-clocking",
    "lint-denied",
    "model-error",
    "flow-error",
    "cancelled",
    "deadline-exceeded",
    "overloaded",
    "shutting-down",
    "internal",
];

/// Flow stage labels (matching `occ_flow::Stage::label`).
pub const STAGE_LABELS: [&str; 8] = [
    "bind-model",
    "procedures",
    "fault-universe",
    "lint",
    "atpg",
    "pattern-source",
    "classify",
    "timing",
];

/// Admission-shed reasons: global queue full vs per-connection cap.
pub const SHED_REASONS: [&str; 2] = ["queue", "connection"];

/// Cooperative-cancellation causes.
pub const CANCEL_CAUSES: [&str; 2] = ["deadline", "cancelled"];

/// The label of the cache series: the design is the one artifact kind
/// the cache holds.
const DESIGN_KIND: &[(&str, &str)] = &[("kind", "design")];
const OP_LABELS: [&[(&str, &str)]; 7] = [
    &[("op", "ping")],
    &[("op", "stats")],
    &[("op", "health")],
    &[("op", "metrics")],
    &[("op", "flow")],
    &[("op", "analyze")],
    &[("op", "shutdown")],
];
const CODE_LABELS: [&[(&str, &str)]; 10] = [
    &[("code", "bad-request")],
    &[("code", "unsupported-clocking")],
    &[("code", "lint-denied")],
    &[("code", "model-error")],
    &[("code", "flow-error")],
    &[("code", "cancelled")],
    &[("code", "deadline-exceeded")],
    &[("code", "overloaded")],
    &[("code", "shutting-down")],
    &[("code", "internal")],
];
const STAGE_LABEL_SETS: [&[(&str, &str)]; 8] = [
    &[("stage", "bind-model")],
    &[("stage", "procedures")],
    &[("stage", "fault-universe")],
    &[("stage", "lint")],
    &[("stage", "atpg")],
    &[("stage", "pattern-source")],
    &[("stage", "classify")],
    &[("stage", "timing")],
];
const SHED_LABELS: [&[(&str, &str)]; 2] = [&[("reason", "queue")], &[("reason", "connection")]];
const CAUSE_LABELS: [&[(&str, &str)]; 2] = [&[("cause", "deadline")], &[("cause", "cancelled")]];

/// The full `occ` metric catalog, pre-registered in one registry.
/// Reached through [`metrics()`]; see the README's Observability
/// section for the per-metric table.
#[derive(Debug)]
#[allow(clippy::struct_field_names)]
pub struct OccMetrics {
    /// The registry listing every handle below, in catalog order.
    pub registry: MetricsRegistry,

    /// Faults graded by the fault-sim kernel.
    pub kernel_faults_graded: Arc<Counter>,
    /// Faults skipped by observability-cone pruning.
    pub kernel_cone_pruned: Arc<Counter>,
    /// Events propagated by the fault-sim kernel.
    pub kernel_events: Arc<Counter>,

    /// PODEM decisions.
    pub atpg_decisions: Arc<Counter>,
    /// PODEM backtracks.
    pub atpg_backtracks: Arc<Counter>,
    /// ATPG value-engine events.
    pub atpg_events: Arc<Counter>,
    /// PODEM searches attempted.
    pub atpg_podem_calls: Arc<Counter>,
    /// PODEM searches that produced a test.
    pub atpg_tests_found: Arc<Counter>,
    /// PODEM searches that ended at the backtrack limit.
    pub atpg_aborted_calls: Arc<Counter>,
    /// Speculative PODEM searches whose results were discarded because
    /// an earlier commit already detected their fault.
    pub atpg_speculative_discarded: Arc<Counter>,

    /// Design-cache hits.
    pub cache_hits: Arc<Counter>,
    /// Design-cache misses (builds).
    pub cache_misses: Arc<Counter>,
    /// Design-cache evictions.
    pub cache_evictions: Arc<Counter>,
    /// Resident cache bytes (refreshed when stats/metrics are read).
    pub cache_resident_bytes: Arc<Gauge>,
    /// Ready cache entries (refreshed when stats/metrics are read).
    pub cache_entries: Arc<Gauge>,

    /// Daemon jobs queued or running.
    pub jobs_pending: Arc<Gauge>,
    /// Jobs shed by admission control ([`SHED_REASONS`] order).
    pub admission_shed: [Arc<Counter>; 2],
    /// Jobs cooperatively cancelled ([`CANCEL_CAUSES`] order).
    pub cancellations: [Arc<Counter>; 2],
    /// Requests handled, by op ([`OPS`] order).
    pub requests: [Arc<Counter>; 7],
    /// Error responses, by code ([`ERROR_CODES`] order).
    pub request_errors: [Arc<Counter>; 10],
    /// Request latency by op ([`OPS`] order), seconds.
    pub request_latency: [Arc<Histogram>; 7],
    /// Flow stage wall time by stage ([`STAGE_LABELS`] order), seconds.
    pub flow_stage_seconds: [Arc<Histogram>; 8],
}

impl OccMetrics {
    fn new() -> Self {
        let r = MetricsRegistry::new();
        let counter_set = |name, help, labels: &[&'static [(&'static str, &'static str)]]| {
            labels
                .iter()
                .map(|l| r.counter(name, help, l))
                .collect::<Vec<_>>()
        };
        let kernel_faults_graded = r.counter(
            "occ_kernel_faults_graded_total",
            "Faults graded by the fault-simulation kernel",
            &[],
        );
        let kernel_cone_pruned = r.counter(
            "occ_kernel_cone_pruned_total",
            "Faults skipped by observability-cone pruning",
            &[],
        );
        let kernel_events = r.counter(
            "occ_kernel_events_total",
            "Events propagated by the fault-simulation kernel",
            &[],
        );
        let atpg_decisions = r.counter(
            "occ_atpg_decisions_total",
            "PODEM decisions across all searches",
            &[],
        );
        let atpg_backtracks = r.counter("occ_atpg_backtracks_total", "PODEM backtracks", &[]);
        let atpg_events = r.counter("occ_atpg_events_total", "ATPG value-engine events", &[]);
        let atpg_podem_calls = r.counter(
            "occ_atpg_podem_calls_total",
            "PODEM searches attempted",
            &[],
        );
        let atpg_tests_found = r.counter(
            "occ_atpg_tests_found_total",
            "PODEM searches that produced a test",
            &[],
        );
        let atpg_aborted_calls = r.counter(
            "occ_atpg_aborted_calls_total",
            "PODEM searches that ended at the backtrack limit",
            &[],
        );
        let atpg_speculative_discarded = r.counter(
            "occ_atpg_speculative_discarded_total",
            "Speculative PODEM searches discarded at in-order commit",
            &[],
        );
        let cache_hits = r.counter(
            "occ_cache_hits_total",
            "Artifact-cache hits by kind",
            DESIGN_KIND,
        );
        let cache_misses = r.counter(
            "occ_cache_misses_total",
            "Artifact-cache misses (builds) by kind",
            DESIGN_KIND,
        );
        let cache_evictions = r.counter(
            "occ_cache_evictions_total",
            "Artifact-cache evictions by kind",
            DESIGN_KIND,
        );
        let cache_resident_bytes = r.gauge(
            "occ_cache_resident_bytes",
            "Approximate resident artifact-cache bytes",
            &[],
        );
        let cache_entries = r.gauge("occ_cache_entries", "Ready artifact-cache entries", &[]);
        let jobs_pending = r.gauge("occ_jobs_pending", "Daemon jobs queued or running", &[]);
        let admission_shed = counter_set(
            "occ_admission_shed_total",
            "Jobs shed by admission control, by reason",
            &SHED_LABELS,
        );
        let cancellations = counter_set(
            "occ_cancellations_total",
            "Jobs cooperatively cancelled, by cause",
            &CAUSE_LABELS,
        );
        let requests = counter_set("occ_requests_total", "Requests handled, by op", &OP_LABELS);
        let request_errors = counter_set(
            "occ_request_errors_total",
            "Error responses, by code",
            &CODE_LABELS,
        );
        let request_latency: Vec<Arc<Histogram>> = OP_LABELS
            .iter()
            .map(|l| {
                r.histogram(
                    "occ_request_latency_seconds",
                    "Request latency by op (admission to response)",
                    l,
                    DEFAULT_SECONDS_BOUNDS,
                )
            })
            .collect();
        let flow_stage_seconds: Vec<Arc<Histogram>> = STAGE_LABEL_SETS
            .iter()
            .map(|l| {
                r.histogram(
                    "occ_flow_stage_seconds",
                    "Flow stage wall time, by stage",
                    l,
                    DEFAULT_SECONDS_BOUNDS,
                )
            })
            .collect();
        let arr2 = |mut v: Vec<Arc<Counter>>| -> [Arc<Counter>; 2] { [v.remove(0), v.remove(0)] };
        OccMetrics {
            kernel_faults_graded,
            kernel_cone_pruned,
            kernel_events,
            atpg_decisions,
            atpg_backtracks,
            atpg_events,
            atpg_podem_calls,
            atpg_tests_found,
            atpg_aborted_calls,
            atpg_speculative_discarded,
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_resident_bytes,
            cache_entries,
            jobs_pending,
            admission_shed: arr2(admission_shed),
            cancellations: arr2(cancellations),
            requests: requests.try_into().expect("7 ops registered"),
            request_errors: request_errors.try_into().expect("10 codes registered"),
            request_latency: request_latency.try_into().expect("7 ops registered"),
            flow_stage_seconds: flow_stage_seconds.try_into().expect("8 stages registered"),
            registry: r,
        }
    }

    /// The request counter for a wire op, by label.
    #[must_use]
    pub fn request(&self, op: &str) -> Option<&Counter> {
        OPS.iter()
            .position(|&o| o == op)
            .map(|i| self.requests[i].as_ref())
    }

    /// The error counter for a protocol code, by label.
    #[must_use]
    pub fn request_error(&self, code: &str) -> Option<&Counter> {
        ERROR_CODES
            .iter()
            .position(|&c| c == code)
            .map(|i| self.request_errors[i].as_ref())
    }

    /// The latency histogram for a wire op, by label.
    #[must_use]
    pub fn latency(&self, op: &str) -> Option<&Histogram> {
        OPS.iter()
            .position(|&o| o == op)
            .map(|i| self.request_latency[i].as_ref())
    }

    /// The stage-duration histogram for a flow stage label.
    #[must_use]
    pub fn stage(&self, label: &str) -> Option<&Histogram> {
        STAGE_LABELS
            .iter()
            .position(|&s| s == label)
            .map(|i| self.flow_stage_seconds[i].as_ref())
    }
}

static METRICS: OnceLock<OccMetrics> = OnceLock::new();

/// The process-wide metric catalog (created on first use).
#[must_use]
pub fn metrics() -> &'static OccMetrics {
    METRICS.get_or_init(OccMetrics::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_count_correctly() {
        let h = Histogram::new(&[0.001, 0.01, 0.1]);
        h.observe(0.0005); // bin 0
        h.observe(0.001); // bin 0 (le is inclusive)
        h.observe(0.05); // bin 2
        h.observe(5.0); // +Inf bin
        assert_eq!(h.count(), 4);
        assert_eq!(h.cumulative_buckets(), vec![2, 2, 3, 4]);
        assert!((h.sum_seconds() - 5.0515).abs() < 1e-6);
    }

    #[test]
    fn exposition_is_prometheus_shaped() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_total", "a counter", &[("kind", "x")]);
        c.add(3);
        let g = r.gauge("t_gauge", "a gauge", &[]);
        g.set(-2);
        let h = r.histogram("t_seconds", "a histogram", &[], &[0.5, 1.0]);
        h.observe(0.7);
        let text = r.render();
        assert!(text.contains("# HELP t_total a counter"));
        assert!(text.contains("# TYPE t_total counter"));
        assert!(text.contains("t_total{kind=\"x\"} 3"));
        assert!(text.contains("t_gauge -2"));
        assert!(text.contains("t_seconds_bucket{le=\"0.5\"} 0"));
        assert!(text.contains("t_seconds_bucket{le=\"1.0\"} 1"));
        assert!(text.contains("t_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("t_seconds_sum 0.7"));
        assert!(text.contains("t_seconds_count 1"));
    }

    #[test]
    fn help_and_type_emitted_once_per_family() {
        let r = MetricsRegistry::new();
        let _a = r.counter("fam_total", "family", &[("kind", "a")]);
        let _b = r.counter("fam_total", "family", &[("kind", "b")]);
        let text = r.render();
        assert_eq!(text.matches("# HELP fam_total").count(), 1);
        assert_eq!(text.matches("# TYPE fam_total").count(), 1);
        assert_eq!(text.matches("fam_total{").count(), 2);
    }

    #[test]
    fn snapshot_deltas_ignore_unchanged_series() {
        let r = MetricsRegistry::new();
        let a = r.counter("a_total", "a", &[]);
        let _b = r.counter("b_total", "b", &[]);
        let before = r.snapshot();
        a.add(2);
        let after = r.snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.get("a_total"), Some(&2.0));
    }

    #[test]
    fn global_catalog_has_every_family() {
        let m = metrics();
        let text = m.registry.render();
        for family in [
            "occ_kernel_faults_graded_total",
            "occ_kernel_cone_pruned_total",
            "occ_kernel_events_total",
            "occ_atpg_decisions_total",
            "occ_atpg_backtracks_total",
            "occ_atpg_events_total",
            "occ_atpg_podem_calls_total",
            "occ_atpg_tests_found_total",
            "occ_atpg_aborted_calls_total",
            "occ_atpg_speculative_discarded_total",
            "occ_cache_hits_total",
            "occ_cache_misses_total",
            "occ_cache_evictions_total",
            "occ_cache_resident_bytes",
            "occ_cache_entries",
            "occ_jobs_pending",
            "occ_admission_shed_total",
            "occ_cancellations_total",
            "occ_requests_total",
            "occ_request_errors_total",
            "occ_request_latency_seconds",
            "occ_flow_stage_seconds",
        ] {
            assert!(text.contains(family), "missing {family}");
        }
        assert!(m.request("flow").is_some());
        assert!(m.request("warp").is_none());
        assert!(m.request_error("overloaded").is_some());
        assert!(m.stage("atpg").is_some());
        assert!(m.latency("metrics").is_some());
    }
}
