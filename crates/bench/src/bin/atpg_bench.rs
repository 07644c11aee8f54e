//! ATPG throughput benchmark and regression gate — the generation-side
//! sibling of `fsim_bench`.
//!
//! Runs the retained `ReferencePodem` and the compiled `CompiledPodem`
//! over a strided sample of the transition-fault universe of the
//! seeded Table-1 SOC (one broadside procedure), cross-checks that
//! every `PodemOutcome` is identical, and writes decisions/sec plus
//! allocation counts to `BENCH_atpg.json` so the perf trajectory is
//! tracked in-repo.
//!
//! ```text
//! atpg_bench [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Four gates:
//!
//! * **Allocation** (hardware-independent, always on): the compiled
//!   engine must stay O(1) allocations per PODEM decision — measured
//!   with the shared counting allocator over the whole run loop
//!   (including per-fault pattern setup) and capped at
//!   [`MAX_ALLOCS_PER_DECISION`].
//! * **Lint-pruned identity** (hardware-independent, always on): the
//!   full lint → pre-classified ATPG flow must skip at least one PODEM
//!   search on the SOC and still produce a pattern set byte-identical
//!   to the unpruned run (same procedure indices, scan loads, PI
//!   fills, coverage). The skipped-search count and both wall-clocks
//!   land in the JSON as the `lint` row.
//! * **Parallel-search identity** (hardware-independent, always on):
//!   Table-1 row (d) is run through `TestFlow` with its search on one
//!   thread and on every available thread; the pattern sets, per-fault
//!   statuses and PODEM decision/backtrack counts must be identical.
//!   Both ATPG-stage wall-clocks and the count of discarded speculative
//!   searches land in the JSON as the `search` row (no timing gate).
//! * **Speedup ratio** (with `--check`, through [`occ_bench::gate`]):
//!   the compiled-vs-reference decisions/sec ratio — both engines make
//!   identical decisions, so the ratio cancels out machine speed — must
//!   not regress more than 20% against the committed baseline.
//!   `BENCH_SKIP_CHECK` bypasses it on cold machines; the outcome and
//!   identity cross-checks always run.

#[path = "../alloc_track.rs"]
mod alloc_track;

#[global_allocator]
static ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

use occ_atpg::{
    run_atpg_cancellable, AtpgEngine, AtpgOptions, AtpgResult, CompiledPodem, Observability,
    PodemOutcome, ReferencePodem,
};
use occ_bench::gate::{self, Gate};
use occ_bench::{run_experiment, ExperimentId, Table1Options};
use occ_core::ClockingMode;
use occ_fault::FaultUniverse;
use occ_flow::{EngineChoice, FlowReport, Json, Stage};
use occ_fsim::{CancelToken, CaptureModel, FaultSim, FrameSpec};
use occ_lint::Linter;
use occ_soc::{generate, SocConfig};
use std::process::ExitCode;
use std::time::Instant;

/// Flops per clock domain of the seeded Table-1 SOC.
const FLOPS: usize = 96;

/// Target size of the strided transition-fault sample.
const FAULTS: usize = 600;

/// PODEM backtrack limit.
const LIMIT: usize = 48;

/// Timed passes per engine; the best counts.
const REPS: usize = 2;

/// Hard cap on compiled-engine allocations per PODEM decision. The
/// steady state is ~0 (scratch is stamped and reused); the budget
/// covers per-fault pattern construction and one-time warm-up growth.
const MAX_ALLOCS_PER_DECISION: f64 = 4.0;

struct EngineRow {
    engine: String,
    seconds: f64,
    decisions: u64,
    decisions_per_sec: f64,
    faults_per_sec: f64,
    allocs: u64,
    alloc_bytes: u64,
    events: u64,
    incremental_resims: u64,
}

/// Measurement of the lint → pre-classified ATPG flow vs the plain
/// run, gated on byte-identical pattern sets.
struct LintRow {
    untestable: usize,
    podem_skipped: usize,
    plain_seconds: f64,
    pruned_seconds: f64,
    patterns: usize,
    coverage_pct: f64,
}

/// Table-1 row (d) searched on one thread and on all of them, gated on
/// identical results.
struct SearchRow {
    threads: usize,
    serial_seconds: f64,
    parallel_seconds: f64,
    podem_calls: usize,
    decisions: u64,
    backtracks: u64,
    discarded: u64,
    patterns: usize,
}

fn main() -> ExitCode {
    let gate = match Gate::from_env(&gate::ATPG) {
        Ok(g) => g,
        Err(code) => return code,
    };

    let soc = generate(&SocConfig::paper_like(20050307, FLOPS));
    let model =
        CaptureModel::new(soc.netlist(), soc.binding(true)).expect("generated SOC always binds");
    let domains: Vec<usize> = (0..model.domain_count()).collect();
    let spec = FrameSpec::broadside("loc", &domains, 2)
        .hold_pi(true)
        .observe_po(false);
    let obs = Observability::compute(&model, &spec);

    // A strided sample of the universe, so the run touches cones from
    // every block of the design.
    let universe = FaultUniverse::transition(soc.netlist());
    let all = universe.faults();
    let stride = (all.len() / FAULTS).max(1);
    let faults: Vec<occ_fault::Fault> = all.iter().copied().step_by(stride).collect();
    println!(
        "atpg_bench: {} — {} cells, {} of {} faults (stride {}), limit {}",
        soc.netlist().name(),
        soc.netlist().len(),
        faults.len(),
        all.len(),
        stride,
        LIMIT,
    );

    let mut rows: Vec<EngineRow> = Vec::new();
    let mut outcomes: Vec<(String, Vec<PodemOutcome>)> = Vec::new();

    // Reference (retained scalar) engine.
    {
        let mut engine = ReferencePodem::new(&model);
        let (row, outs) = run_engine("reference", &mut engine, &spec, &obs, &faults);
        rows.push(row);
        outcomes.push(("reference".to_owned(), outs));
    }

    // Compiled incremental engine.
    {
        let mut engine = CompiledPodem::new(&model);
        let (row, outs) = run_engine("compiled", &mut engine, &spec, &obs, &faults);
        rows.push(row);
        outcomes.push(("compiled".to_owned(), outs));
    }

    // Correctness gate: every outcome must be identical.
    if outcomes[1].1 != outcomes[0].1 {
        let at = outcomes[0]
            .1
            .iter()
            .zip(&outcomes[1].1)
            .position(|(a, b)| a != b);
        eprintln!(
            "atpg_bench: FATAL — compiled outcomes diverge from reference (first at sample {at:?})"
        );
        return ExitCode::FAILURE;
    }
    let tests_found = outcomes[0]
        .1
        .iter()
        .filter(|o| matches!(o, PodemOutcome::Test(_)))
        .count();

    let speedup = rows[1].decisions_per_sec / rows[0].decisions_per_sec.max(1e-9);
    for r in &rows {
        println!(
            "  {:<10} {:>8.3}s  {:>12.0} decisions/s  {:>9.0} faults/s  \
             {:>10} allocs  {:>12} bytes  {:>12} events",
            r.engine,
            r.seconds,
            r.decisions_per_sec,
            r.faults_per_sec,
            r.allocs,
            r.alloc_bytes,
            r.events,
        );
    }
    println!(
        "  compiled vs reference speedup: {speedup:.2}x ({} tests found, {} decisions)",
        tests_found, rows[1].decisions
    );

    // Allocation gate: O(1) per decision, hardware-independent.
    let allocs_per_decision = rows[1].allocs as f64 / (rows[1].decisions.max(1)) as f64;
    println!(
        "  compiled allocs/decision: {allocs_per_decision:.3} (cap {MAX_ALLOCS_PER_DECISION})"
    );
    if allocs_per_decision > MAX_ALLOCS_PER_DECISION {
        eprintln!(
            "atpg_bench: FATAL — compiled engine allocates {allocs_per_decision:.2} \
             per decision (cap {MAX_ALLOCS_PER_DECISION}); the zero-allocation \
             contract is broken"
        );
        return ExitCode::FAILURE;
    }

    // Lint-pruned identity gate: the lint → pre-classified flow must
    // skip searches without changing a single pattern byte.
    let lint = match run_lint_pruned(&soc, &model, &spec) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("atpg_bench: FATAL — lint-pruned flow: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  lint-pruned  plain {:.3}s  pruned {:.3}s  {} untestable, {} searches \
         skipped, {} patterns, {:.2}% coverage (pattern sets identical)",
        lint.plain_seconds,
        lint.pruned_seconds,
        lint.untestable,
        lint.podem_skipped,
        lint.patterns,
        lint.coverage_pct,
    );

    // Parallel-search identity gate: thread count changes how fast the
    // row is searched, never what it produces.
    let search = match run_search_row(&soc) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("atpg_bench: FATAL — parallel search: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  search (d)   1 thread {:.3}s  {} threads {:.3}s  ({:.2}x)  {} PODEM calls, \
         {} decisions, {} discarded, {} patterns (results identical)",
        search.serial_seconds,
        search.threads,
        search.parallel_seconds,
        search.serial_seconds / search.parallel_seconds.max(1e-9),
        search.podem_calls,
        search.decisions,
        search.discarded,
        search.patterns,
    );

    let engines = rows.iter().map(|r| {
        Json::obj([
            ("engine", r.engine.as_str().into()),
            ("seconds", r.seconds.into()),
            ("decisions", r.decisions.into()),
            ("decisions_per_sec", r.decisions_per_sec.into()),
            ("faults_per_sec", r.faults_per_sec.into()),
            ("allocs", r.allocs.into()),
            ("alloc_bytes", r.alloc_bytes.into()),
            ("events", r.events.into()),
            ("incremental_resims", r.incremental_resims.into()),
        ])
    });
    let report = Json::obj([
        ("design", soc.netlist().name().into()),
        ("cells", soc.netlist().len().into()),
        ("faults", faults.len().into()),
        ("tests_found", tests_found.into()),
        ("flops_per_domain", FLOPS.into()),
        ("backtrack_limit", LIMIT.into()),
        ("peak_rss_kb", alloc_track::peak_rss_kb().into()),
        ("engines", engines.collect()),
        (
            "lint",
            Json::obj([
                ("untestable", lint.untestable.into()),
                ("podem_skipped", lint.podem_skipped.into()),
                ("plain_seconds", lint.plain_seconds.into()),
                ("pruned_seconds", lint.pruned_seconds.into()),
                ("patterns", lint.patterns.into()),
                ("coverage_pct", lint.coverage_pct.into()),
                ("patterns_identical", true.into()),
            ]),
        ),
        (
            "search",
            Json::obj([
                ("row", "d".into()),
                ("threads", search.threads.into()),
                ("serial_seconds", search.serial_seconds.into()),
                ("parallel_seconds", search.parallel_seconds.into()),
                ("podem_calls", search.podem_calls.into()),
                ("decisions", search.decisions.into()),
                ("backtracks", search.backtracks.into()),
                ("discarded", search.discarded.into()),
                ("patterns", search.patterns.into()),
                ("identical", true.into()),
            ]),
        ),
        ("allocs_per_decision", allocs_per_decision.into()),
        ("speedup_compiled_vs_reference", speedup.into()),
    ]);
    gate.finish(&report, &[])
}

/// Runs one engine over the fault sample [`REPS`] times, keeping the
/// best wall-clock and the first rep's outcomes + allocation delta.
fn run_engine(
    name: &str,
    engine: &mut dyn AtpgEngine,
    spec: &FrameSpec,
    obs: &Observability,
    faults: &[occ_fault::Fault],
) -> (EngineRow, Vec<PodemOutcome>) {
    let mut best = f64::INFINITY;
    let mut outcomes = Vec::new();
    let mut delta = alloc_track::AllocSnapshot::default();
    for rep in 0..REPS {
        let before = alloc_track::snapshot();
        let t0 = Instant::now();
        let outs: Vec<PodemOutcome> = faults
            .iter()
            .map(|&f| engine.run(spec, obs, f, LIMIT))
            .collect();
        best = best.min(t0.elapsed().as_secs_f64());
        if rep == 0 {
            delta = alloc_track::snapshot().since(before);
            outcomes = outs;
        }
    }
    let stats = engine.kernel_stats();
    let reps = REPS as u64;
    let decisions = stats.decisions / reps;
    let secs = best.max(1e-9);
    (
        EngineRow {
            engine: name.to_owned(),
            seconds: best,
            decisions,
            decisions_per_sec: decisions as f64 / secs,
            faults_per_sec: faults.len() as f64 / secs,
            allocs: delta.allocs,
            alloc_bytes: delta.bytes,
            events: stats.events / reps,
            incremental_resims: stats.incremental_resims / reps,
        },
        outcomes,
    )
}

/// Runs the full lint → pre-classified ATPG flow next to the plain,
/// unpruned run on the same universe, times both, and hard-gates
/// on identical results: the statically proven untestable set may
/// change how much work ATPG does, never what it produces.
fn run_lint_pruned(
    soc: &occ_soc::Soc,
    model: &CaptureModel<'_>,
    spec: &FrameSpec,
) -> Result<LintRow, String> {
    let universe = FaultUniverse::transition(soc.netlist());
    let report = Linter::new(model)
        .mode(ClockingMode::EnhancedCpf { max_pulses: 2 })
        .chains(soc.chains())
        .run_with_universe(&universe);
    let options = AtpgOptions {
        random_patterns: 64,
        backtrack_limit: LIMIT,
        ..AtpgOptions::default()
    };
    let procedures = std::slice::from_ref(spec);

    let mut engine = FaultSim::new(model);
    let mut podem = CompiledPodem::new(model);
    let t0 = Instant::now();
    let plain = run_atpg_cancellable(
        model,
        procedures,
        universe.clone(),
        &options,
        &mut engine,
        &mut podem,
        &[],
        &CancelToken::never(),
    )
    .expect("a never-token cannot trip");
    let plain_seconds = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let pruned = run_atpg_cancellable(
        model,
        procedures,
        universe,
        &options,
        &mut engine,
        &mut podem,
        &report.untestable,
        &CancelToken::never(),
    )
    .expect("a never-token cannot trip");
    let pruned_seconds = t0.elapsed().as_secs_f64();

    if pruned.stats.lint_pruned == 0 {
        return Err("lint pre-classification skipped zero PODEM searches".to_owned());
    }
    check_identical(("pruned", &pruned), ("plain", &plain))?;
    Ok(LintRow {
        untestable: report.untestable.len(),
        podem_skipped: pruned.stats.lint_pruned,
        plain_seconds,
        pruned_seconds,
        patterns: pruned.patterns.len(),
        coverage_pct: pruned.report().coverage_pct(),
    })
}

/// Runs Table-1 row (d) with its search on one thread and on every
/// available thread, and hard-gates on identical patterns, per-fault
/// statuses and PODEM work.
fn run_search_row(soc: &occ_soc::Soc) -> Result<SearchRow, String> {
    let run = |engine: EngineChoice| -> Result<FlowReport, String> {
        let options = Table1Options {
            flops_per_domain: FLOPS,
            backtrack_limit: LIMIT,
            engine,
            ..Table1Options::default()
        };
        run_experiment(soc, ExperimentId::D, &options)
            .map(|row| row.report)
            .map_err(|e| e.to_string())
    };
    let serial = run(EngineChoice::Sharded { threads: 1 })?;
    let discarded = occ_obs::metrics().atpg_speculative_discarded.get();
    let parallel = run(EngineChoice::Auto)?;
    let discarded = occ_obs::metrics().atpg_speculative_discarded.get() - discarded;

    check_identical(("1-thread", &serial.result), ("N-thread", &parallel.result))?;
    let faults = &serial.result.faults;
    if let Some((fault, _)) = parallel
        .result
        .faults
        .iter()
        .find(|&(f, s)| faults.status(f) != s)
    {
        return Err(format!(
            "fault {fault} status diverges between 1 and N threads"
        ));
    }
    let work = |r: &FlowReport| (r.atpg_kernel.decisions, r.atpg_kernel.backtracks);
    if work(&parallel) != work(&serial) || parallel.result.stats != serial.result.stats {
        return Err(format!(
            "PODEM work diverges: {:?} at 1 thread vs {:?} at {}",
            work(&serial),
            work(&parallel),
            parallel.threads
        ));
    }
    Ok(SearchRow {
        threads: parallel.threads,
        serial_seconds: serial.stage_seconds(Stage::Atpg),
        parallel_seconds: parallel.stage_seconds(Stage::Atpg),
        podem_calls: serial.result.stats.podem_calls,
        decisions: serial.atpg_kernel.decisions,
        backtracks: serial.atpg_kernel.backtracks,
        discarded,
        patterns: serial.patterns(),
    })
}

/// Byte-level pattern-set identity between two ATPG results (`a` and
/// `b` name them in the error). Fault statuses are not compared: a
/// lint-pruned run may relabel `Aborted` faults `Untestable`.
fn check_identical(
    (a_name, a): (&str, &AtpgResult),
    (b_name, b): (&str, &AtpgResult),
) -> Result<(), String> {
    if a.report().detected != b.report().detected {
        return Err(format!(
            "detected counts diverge: {a_name} {} vs {b_name} {}",
            a.report().detected,
            b.report().detected
        ));
    }
    if a.patterns.len() != b.patterns.len() {
        return Err(format!(
            "pattern counts diverge: {a_name} {} vs {b_name} {}",
            a.patterns.len(),
            b.patterns.len()
        ));
    }
    for (i, (p, q)) in a
        .patterns
        .patterns()
        .iter()
        .zip(b.patterns.patterns())
        .enumerate()
    {
        if p.proc_index != q.proc_index || p.scan_load != q.scan_load || p.pis != q.pis {
            return Err(format!(
                "pattern {i} diverges between {a_name} and {b_name} runs"
            ));
        }
    }
    Ok(())
}
