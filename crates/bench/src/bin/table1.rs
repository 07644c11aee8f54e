//! Reproduces the paper's Table 1: the five ATPG experiments (a)–(e),
//! each one `TestFlow` run through the pluggable fault-sim engines.
//!
//! Usage:
//! ```text
//! table1 [row] [--flops N] [--seed S] [--limit B] [--threads N]
//!        [--engine serial|auto|sharded:N] [--timing]
//!        [--lint [deny|warn]] [--trace] [--sources] [--csv] [--verbose]
//! ```
//! With no row, all five experiments run and the full table plus the
//! paper-shape checks are printed. With a row label (`a`..`e`), only
//! that experiment runs. The fault-sim engine defaults to `auto` (all
//! available hardware parallelism); `--threads N` is shorthand for
//! `--engine sharded:N`. `--timing` adds the slack-aware
//! delay-test-quality pass and prints the paper-style per-clocking-mode
//! quality comparison (SDQL, weighted coverage, capture windows).
//! `--lint` runs the pre-ATPG static design-rule /
//! testability analysis (gate defaults to `deny`; error-severity
//! violations abort the run) and pre-classifies structurally
//! untestable faults so their PODEM searches are skipped — coverage
//! and pattern sets are unchanged. `--trace` records detail spans
//! through every stage and prints the per-row (with `--sources`,
//! per-cell) span tree (name, wall time, key=value attributes) under
//! the results.
//!
//! The five-row sweep runs through an in-process
//! `occ::server::FlowService`: the SOC is generated and compiled once
//! (first row) and every later clocking-mode row reuses the cached
//! simulation graph. `--verbose` prints the per-row design-cache hits
//! and the sweep's global cache counters.
//!
//! `--sources` replaces the five-row table with the 4 clocking modes ×
//! 3 pattern sources matrix: every transition-test clocking row (b)–(e)
//! re-run under external ATPG, EDT-compressed delivery, and at-speed
//! LBIST, with the delay-quality pass forced on so each cell carries
//! coverage, weighted coverage, and SDQL. The twelve cells run through
//! one `FlowService` — the design artifact compiles once and the cache
//! counters printed at the bottom prove it.

use occ_bench::{run_experiment, run_sources_matrix, run_table1, ExperimentId, Table1Options};
use occ_fault::FaultStatus;
use occ_flow::{EngineChoice, LintGate};
use occ_soc::{generate, SocConfig};

/// The `--verbose` label of a design-cache lookup.
fn hit(design_hit: bool) -> &'static str {
    if design_hit {
        "hit"
    } else {
        "miss"
    }
}

/// Prints a traced report's span tree (no-op for untraced runs).
fn print_trace(report: &occ_flow::FlowReport) {
    if let Some(tr) = &report.trace {
        println!("trace ({} span(s)):", tr.tree.len());
        for line in tr.tree.render().lines() {
            println!("  {line}");
        }
    }
}

fn parsed_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, what: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{what} needs a valid value");
        std::process::exit(2);
    })
}

fn main() {
    let mut options = Table1Options::default();
    let mut row: Option<ExperimentId> = None;
    let mut csv = false;
    let mut verbose = false;
    let mut sources = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flops" => options.flops_per_domain = parsed_value(&mut args, "--flops"),
            "--seed" => options.seed = parsed_value(&mut args, "--seed"),
            "--limit" => options.backtrack_limit = parsed_value(&mut args, "--limit"),
            "--threads" => {
                options.engine = EngineChoice::Sharded {
                    threads: parsed_value(&mut args, "--threads"),
                };
            }
            "--engine" => options.engine = parsed_value(&mut args, "--engine"),
            "--timing" => options.timing = true,
            "--lint" => {
                // Optional gate value: `--lint warn` / `--lint deny`;
                // bare `--lint` denies (the strict default).
                let gate = args
                    .peek()
                    .and_then(|v| v.parse::<LintGate>().ok())
                    .inspect(|_g| {
                        args.next();
                    })
                    .unwrap_or(LintGate::Deny);
                options.lint = Some(gate);
            }
            "--trace" => options.trace = true,
            "--sources" => sources = true,
            "--csv" => csv = true,
            "--verbose" => verbose = true,
            other if other.starts_with('-') => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
            other => match other.parse() {
                Ok(id) => row = Some(id),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            },
        }
    }

    if sources {
        if let Some(id) = row {
            eprintln!("--sources sweeps all transition rows; drop the '{id}' row argument");
            std::process::exit(2);
        }
        let matrix = match run_sources_matrix(&options) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("flow error: {e}");
                std::process::exit(1);
            }
        };
        if csv {
            print!("{}", matrix.to_csv());
        } else {
            print!("{matrix}");
            for c in matrix.cells.iter().filter(|c| c.report.trace.is_some()) {
                println!("{} {}:", c.source, c.id);
                print_trace(&c.report);
            }
        }
        if verbose {
            println!("design cache (in-process flow service):");
            for c in &matrix.cells {
                println!(
                    "  {:<10} {} {:<24} design {}",
                    c.source,
                    c.id,
                    c.report.clocking.label(),
                    hit(c.cache.design_hit),
                );
            }
        }
        if matrix.shape_checks().iter().any(|(_, ok)| !ok) {
            eprintln!("shape checks failed: the per-source inversion does not hold");
            std::process::exit(1);
        }
        return;
    }

    match row {
        Some(id) => {
            let soc = generate(&SocConfig::paper_like(
                options.seed,
                options.flops_per_domain,
            ));
            let r = match run_experiment(&soc, id, &options) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("flow error: {e}");
                    std::process::exit(1);
                }
            };
            if csv {
                print!("{}", {
                    let mut out = Vec::new();
                    r.report.write_csv(&mut out).expect("stdout CSV");
                    String::from_utf8(out).expect("CSV is UTF-8")
                });
                return;
            }
            println!(
                "{} {}: coverage {:.2}%  efficiency {:.2}%  patterns {}  ({:.1}s, {} engine x{})",
                r.id,
                r.id.description(),
                r.coverage_pct,
                r.efficiency_pct,
                r.patterns,
                r.seconds,
                r.report.engine,
                r.report.threads,
            );
            println!("{}", r.report.coverage);
            if let Some(lint) = &r.report.lint {
                println!(
                    "lint [{}]: {} error(s), {} warning(s), {} untestable, \
                     {} PODEM searches skipped",
                    lint.gate,
                    lint.report.errors(),
                    lint.report.warnings(),
                    lint.report.untestable.len(),
                    r.report.result.stats.lint_pruned,
                );
            }
            if let Some(q) = &r.report.delay_quality {
                print!("{q}");
            }
            let undetected = r
                .report
                .result
                .faults
                .iter()
                .filter(|(_, s)| !s.is_detected())
                .count();
            let aborted = r
                .report
                .result
                .faults
                .iter()
                .filter(|(_, s)| matches!(s, FaultStatus::Aborted))
                .count();
            println!("undetected {undetected}, aborted {aborted}");
            print_trace(&r.report);
        }
        None => {
            let table = match run_table1(&options) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("flow error: {e}");
                    std::process::exit(1);
                }
            };
            if csv {
                print!("{}", table.to_csv());
            } else {
                println!("{table}");
            }
            if options.trace && !csv {
                for r in &table.rows {
                    println!("{} {}:", r.id, r.report.clocking.label());
                    print_trace(&r.report);
                }
            }
            if verbose {
                println!("design cache (in-process flow service):");
                for r in &table.rows {
                    let c = r.cache.expect("table rows run through the service");
                    println!(
                        "  {} {:<24} design {}",
                        r.id,
                        r.report.clocking.label(),
                        hit(c.design_hit),
                    );
                }
                let s = &table.cache;
                println!(
                    "  totals: design {}/{} hit/miss ({} entries, {} bytes resident)",
                    s.design.hits, s.design.misses, s.entries, s.bytes,
                );
            }
        }
    }
}
