//! End-to-end and per-layer benchmark of the occ workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|lbist|daemon|all [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! * `table1` — Table 1 rows (a)–(e) with the timing stage on the
//!   paper-like SOC, through one in-process `FlowService`.
//! * `lbist` — rows (b)–(e) under at-speed LBIST with the timing stage.
//! * `daemon` — the TCP daemon on loopback, two closed-loop clients
//!   replaying seeded analyze/flow traffic over persistent connections.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
//! workload again with the layers called one by one under the
//! benchmark's own spans and prints the per-layer metrics. The last
//! stdout line is one JSON object; the exit status is non-zero when an
//! output check fails. `--self-test` runs every workload at tiny sizes
//! through the same code paths.

mod daemon;
mod layers;
mod mix;
mod spans;
mod sweep;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The generator seed of the paper-like SOC (DATE'05 in Munich). Every
/// workload's flows run on designs of this seed, whatever `--seed` is,
/// so their quality numbers compare exactly between runs.
pub const PAPER_SEED: u64 = 20_050_307;

/// Every end-to-end metric, printed by every untraced run.
const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("analyze_p50_ms", "ms"),
    ("analyze_p99_ms", "ms"),
    ("flow_p50_ms", "ms"),
    ("flow_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("coverage_pct", "%"),
    ("pattern_count", "count"),
    ("aborted_faults", "count"),
    ("sdql", "defects"),
];

/// Every per-layer metric, printed by every traced run. A layer that
/// is not on a workload's path reads 0 there.
const PER_LAYER: [(&str, &str); 36] = [
    ("soc.generate_ms", "ms"),
    ("fsim.compile_ms", "ms"),
    ("atpg.podem.calls", "count"),
    ("atpg.podem.test.calls", "count"),
    ("atpg.podem.aborted.calls", "count"),
    ("atpg.podem.untestable.calls", "count"),
    ("atpg.podem.test_s", "s"),
    ("atpg.podem.aborted_s", "s"),
    ("atpg.podem.untestable_s", "s"),
    ("atpg.podem.decisions", "count"),
    ("atpg.podem.backtracks", "count"),
    ("atpg.podem.useful_frac", "fraction"),
    ("atpg.run_s", "s"),
    ("atpg.self_s", "s"),
    ("fsim.batch.calls", "count"),
    ("fsim.batch_s", "s"),
    ("fsim.single_batch.calls", "count"),
    ("fsim.single_batch_s", "s"),
    ("fsim.lane_fill", "fraction"),
    ("fsim.faults_graded", "count"),
    ("fsim.events", "count"),
    ("bist.lbist_s", "s"),
    ("timing.sta_s", "s"),
    ("timing.regrade_s", "s"),
    ("timing.regrade.detects", "count"),
    ("timing.quality_s", "s"),
    ("server.cache.hit_us", "us"),
    ("server.cache.build_ms", "ms"),
    ("server.cache.hit_frac", "fraction"),
    ("server.wire.ping_ms", "ms"),
    ("server.wire.connect_ping_ms", "ms"),
    ("server.wire.analyze_overhead_ms", "ms"),
    ("server.wire.flow_overhead_ms", "ms"),
    ("server.wire.response_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_frac", "fraction"),
];

/// Workload sizes: the benchmark's, or the self-test's tiny ones.
#[derive(Debug, Clone)]
pub struct Size {
    /// Flops per domain of the Table-1 / LBIST SOC.
    pub flops: usize,
    /// LBIST pattern budget per flow.
    pub lbist_patterns: usize,
    /// Flops per domain of the daemon's flow designs.
    pub flow_flops: [usize; 2],
    /// Flops per domain of the analyze designs.
    pub analyze_flops: [usize; 2],
    /// Designs in the warm analyze set.
    pub warm_designs: usize,
    /// Analyze submits of the in-process service probe.
    pub probe_ops: usize,
    /// Replies the daemon run collects at least, whatever `--seconds`.
    pub min_analyzes: usize,
    pub min_flows: usize,
    /// Requests per client sequence (the daemon never runs past it).
    pub sequence: usize,
    /// Pings per wire probe.
    pub pings: usize,
    /// Enforce the paper's shape checks (they hold for the 96-flop SOC,
    /// not at self-test sizes, where they are only reported).
    pub paper_shape: bool,
}

impl Size {
    fn full() -> Size {
        Size {
            flops: 96,
            lbist_patterns: 10_000,
            flow_flops: [16, 24],
            analyze_flops: [16, 24],
            warm_designs: 32,
            probe_ops: 2_000,
            min_analyzes: 1_000,
            min_flows: 100,
            sequence: 4_400,
            pings: 40,
            paper_shape: true,
        }
    }

    fn tiny() -> Size {
        Size {
            flops: 24,
            lbist_patterns: 512,
            flow_flops: [8, 12],
            analyze_flops: [8, 12],
            warm_designs: 4,
            probe_ops: 40,
            min_analyzes: 20,
            min_flows: 2,
            sequence: 110,
            pings: 4,
            paper_shape: false,
        }
    }
}

/// One run's outcome: operations, failed checks and metric values.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Counts one operation and whether it passed its checks.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed whole-run check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Prints every catalogue metric as a readable line, then the JSON
    /// result line. Returns whether the run is correct.
    fn print(&mut self, workload: &str, trace: bool) -> bool {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, value) in &self.metrics {
            if !catalogue.iter().any(|(n, _)| n == name) {
                self.problems
                    .push(format!("metric {name} is not in the catalogue"));
            } else if !value.is_finite() {
                self.problems.push(format!("metric {name} is {value}"));
            }
        }
        let mut json = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => 0.0,
                None if trace => 0.0,
                None => {
                    self.problems
                        .push(format!("end-to-end metric {name} missing"));
                    0.0
                }
            };
            println!("{workload:>7} {name:<34} {value:>16.6} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for p in &self.problems {
            eprintln!("{workload}: CHECK FAILED: {p}");
        }
        let correct = self.correct();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            if correct { 0 } else { self.failed.max(1) },
        );
        correct
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: PAPER_SEED,
        seconds: 30.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.self_test {
        args.workload = "all".to_owned();
    }
    if !["table1", "lbist", "daemon", "all"].contains(&args.workload.as_str()) {
        return Err("--workload must be table1, lbist, daemon or all".to_owned());
    }
    Ok(args)
}

fn run_workload(workload: &str, size: &Size, seed: u64, seconds: f64, trace: bool) -> Run {
    match workload {
        "table1" => sweep::run(sweep::Kind::Table1, size, seed, seconds, trace),
        "lbist" => sweep::run(sweep::Kind::Lbist, size, seed, seconds, trace),
        "daemon" => daemon::run(size, seed, seconds, trace),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let (size, seconds) = if args.self_test {
        (Size::tiny(), 0.5)
    } else {
        (Size::full(), args.seconds)
    };
    let single = [args.workload.as_str()];
    let workloads: &[&str] = if args.workload == "all" {
        &["table1", "lbist", "daemon"]
    } else {
        &single
    };
    // `all` prints the end-to-end metrics of every workload, then the
    // per-layer metrics of every workload.
    let modes: &[bool] = if args.workload == "all" {
        &[false, true]
    } else {
        std::slice::from_ref(&args.trace)
    };
    let mut correct = true;
    for &trace in modes {
        for &w in workloads {
            let mut run = run_workload(w, &size, args.seed, seconds, trace);
            correct &= run.print(w, trace);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
