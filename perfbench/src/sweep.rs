//! The sweep workloads, both on the paper-like SOC with the timing
//! stage and one in-process `FlowService`:
//!
//! * `table1` — rows (a)–(e) with external ATPG, the paper's experiment;
//! * `lbist` — rows (b)–(e) under at-speed LBIST, where PODEM does no
//!   work and the timed re-grade dominates.
//!
//! The SOC is fixed across seeds; the seed orders the rows of every
//! sweep. Each seed therefore runs the same experiment, and the quality
//! metrics compare exactly between runs.

use crate::layers::{record_layers, record_quality, traced_flow, Counters, Design, Quality};
use crate::mix::{
    analyze_job, median, peak_rss_mb, percentile, repeat_setup, AnalyzeMix, Probe, Rng,
};
use crate::{spans, Run, Size, PAPER_SEED};
use occ_bench::{job_spec, ExperimentId, ExperimentRow, Table1, Table1Options, MATRIX_MODES};
use occ_flow::{BistConfig, PatternSource};
use occ_server::{FlowService, JobSpec};
use occ_soc::SocConfig;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Table1,
    Lbist,
}

struct Row {
    id: ExperimentId,
    job: JobSpec,
}

fn rows(kind: Kind, size: &Size) -> Vec<Row> {
    let design = SocConfig::paper_like(PAPER_SEED, size.flops);
    let options = Table1Options {
        flops_per_domain: size.flops,
        timing: true,
        ..Table1Options::default()
    };
    let ids: &[ExperimentId] = match kind {
        Kind::Table1 => &ExperimentId::ALL,
        Kind::Lbist => &MATRIX_MODES,
    };
    ids.iter()
        .map(|&id| {
            let mut job = job_spec(design.clone(), id, &options);
            if kind == Kind::Lbist {
                job.pattern_source = PatternSource::Lbist(BistConfig {
                    patterns: size.lbist_patterns,
                    ..BistConfig::default()
                });
            }
            Row { id, job }
        })
        .collect()
}

/// A cold service set-up: a fresh `FlowService` that has generated and
/// compiled the SOC.
fn cold_service(design: &SocConfig) -> FlowService {
    let service = FlowService::new(0);
    service
        .submit(&analyze_job(design.clone()))
        .expect("the Table-1 SOC builds");
    service
}

/// One sweep's output checks, beyond the per-row ones: the paper-shape
/// checks of Table 1, or the LBIST quality inversion.
fn sweep_checks(
    kind: Kind,
    rows: &[Row],
    quality: &[Quality],
    reports: Vec<ExperimentRow>,
    service: &FlowService,
) -> Vec<String> {
    let failed = |checks: Vec<(String, bool)>| {
        checks
            .into_iter()
            .filter(|(_, ok)| !ok)
            .map(|(what, _)| what)
            .collect()
    };
    match kind {
        Kind::Table1 => failed(
            Table1 {
                rows: reports,
                options: Table1Options::default(),
                cache: service.cache_stats(),
            }
            .shape_checks(),
        ),
        Kind::Lbist => {
            let q = |id| quality[rows.iter().position(|r| r.id == id).expect("row present")];
            let (b, c, d) = (q(ExperimentId::B), q(ExperimentId::C), q(ExperimentId::D));
            failed(vec![
                (
                    format!(
                        "[lbist] external clock wins logical coverage ({:.2}% > {:.2}%)",
                        b.coverage_pct, c.coverage_pct
                    ),
                    b.coverage_pct > c.coverage_pct,
                ),
                (
                    format!(
                        "[lbist] at-speed enhanced CPF wins SDQL ({:.4} < {:.4})",
                        d.sdql, b.sdql
                    ),
                    d.sdql < b.sdql,
                ),
            ])
        }
    }
}

/// Runs one sweep through the service in `order`, checking every row,
/// and calls `between` after each row, outside its timing. Returns the
/// per-row qualities (in row order) and per-row seconds.
fn service_sweep(
    kind: Kind,
    size: &Size,
    rows: &[Row],
    order: &[usize],
    service: &FlowService,
    run: &mut Run,
    between: &mut dyn FnMut(&mut Run),
) -> (Vec<Quality>, Vec<f64>) {
    let mut quality = vec![None; rows.len()];
    let mut seconds = vec![0.0; rows.len()];
    let mut reports = Vec::with_capacity(rows.len());
    for &i in order {
        let t = Instant::now();
        let outcome = service.submit(&rows[i].job);
        seconds[i] = t.elapsed().as_secs_f64();
        between(run);
        let report = match outcome.map(|o| (o.report, o.cache)) {
            Ok((Some(report), cache)) => (report, cache),
            other => {
                run.check(false, || {
                    format!("row {} did not report: {other:?}", rows[i].id)
                });
                continue;
            }
        };
        let (report, cache) = report;
        quality[i] = Some(Quality::of_report(&report));
        reports.push(ExperimentRow {
            id: rows[i].id,
            coverage_pct: report.coverage_pct(),
            efficiency_pct: report.efficiency_pct(),
            patterns: report.patterns(),
            total_faults: report.coverage.total,
            seconds: seconds[i],
            report,
            cache: Some(cache),
        });
    }
    let Some(quality) = quality.into_iter().collect::<Option<Vec<Quality>>>() else {
        run.check(false, || "a row failed; sweep checks skipped".to_owned());
        return (Vec::new(), seconds);
    };
    let mut problems = sweep_checks(kind, rows, &quality, reports, service);
    if !size.paper_shape {
        for p in problems.drain(..) {
            eprintln!("shape check not enforced at this size: {p}");
        }
    }
    for (row, q) in rows.iter().zip(&quality) {
        run.op(problems.is_empty() && q.counts_sum && q.accounting);
        run.check(q.counts_sum, || {
            format!("row {}: status counts do not sum to the total", row.id)
        });
        run.check(q.accounting, || {
            format!("row {}: LBIST loss accounting is not exhaustive", row.id)
        });
    }
    for p in problems {
        run.check(false, || format!("shape check failed: {p}"));
    }
    (quality, seconds)
}

/// Cold set-ups timed before the first sweep and after every sweep.
const SETUPS_PER_POINT: usize = 5;
/// The in-process analyze probe runs in this many chunks, one after each
/// row until it is done.
const PROBE_CHUNKS: usize = 16;

pub fn run(kind: Kind, size: &Size, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut run = Run::default();
    let rows = rows(kind, size);
    let design = SocConfig::paper_like(PAPER_SEED, size.flops);
    let mut rng = Rng::new(seed, 0x5EE9);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mix = AnalyzeMix::new(seed, size.warm_designs, &size.analyze_flops);
    let mut probe = Probe::new(&mix, seed, size.probe_ops);
    let chunk = size.probe_ops.div_ceil(PROBE_CHUNKS);
    // Set-ups and probe requests take a millisecond or less each. The
    // probe runs between rows and the set-ups between sweeps, outside the
    // row timing, so that their statistics span the whole run rather than
    // one noisy moment of it.
    let (service, mut setup_s) = repeat_setup(SETUPS_PER_POINT, || cold_service(&design));

    if trace {
        probe.finish(&mix, &mut run);
        probe.record_cache(&mut run);
        let (design, _) = repeat_setup(SETUPS_PER_POINT, || Design::build(&design));

        rng.shuffle(&mut order);
        let t = Instant::now();
        let (expected, _) =
            service_sweep(kind, size, &rows, &order, &service, &mut run, &mut |_| {});
        let untraced_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut counters = Counters::default();
        let mut traced = vec![None; rows.len()];
        for &i in &order {
            let (q, c) = traced_flow(&design, &rows[i].job);
            run.op(q.counts_sum && q.accounting);
            counters += c;
            traced[i] = Some(q);
        }
        let traced_s = t.elapsed().as_secs_f64();
        for ((row, want), got) in rows.iter().zip(&expected).zip(&traced) {
            run.check(Some(*want) == *got, || {
                format!(
                    "row {}: traced flow {got:?} differs from the service's {want:?}",
                    row.id
                )
            });
        }
        record_layers(&mut run, &spans::take(), &counters, traced_s);
        run.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
        return run;
    }

    // Whole sweeps until the next one would overrun `seconds`.
    let mut expected: Option<Vec<Quality>> = None;
    let mut row_s = vec![0.0; rows.len()];
    let mut sweeps = 0usize;
    let mut timed_s = 0.0;
    loop {
        rng.shuffle(&mut order);
        let (quality, seconds_by_row) =
            service_sweep(kind, size, &rows, &order, &service, &mut run, &mut |run| {
                probe.run(&mix, chunk, run);
            });
        timed_s += seconds_by_row.iter().sum::<f64>();
        for (total, s) in row_s.iter_mut().zip(seconds_by_row) {
            *total += s;
        }
        match &expected {
            None => expected = Some(quality),
            Some(first) => run.check(*first == quality, || {
                format!("sweep {sweeps} differs from the first: {quality:?} vs {first:?}")
            }),
        }
        sweeps += 1;
        setup_s.extend(repeat_setup(SETUPS_PER_POINT, || cold_service(&design)).1);
        if timed_s + timed_s / sweeps as f64 > seconds {
            break;
        }
    }
    probe.finish(&mix, &mut run);

    let wall_s = timed_s / sweeps as f64;
    run.set("setup_s", median(&setup_s));
    run.set("wall_s", wall_s);
    run.set("jobs_per_s", rows.len() as f64 / wall_s);
    // The in-process analyze mix stands in for the wire's analyze
    // traffic: no request of a sweep is an analyze.
    let all = probe.all_s();
    eprintln!(
        "{kind:?}: {sweeps} sweeps of {} rows, {} analyze probe samples",
        rows.len(),
        all.len()
    );
    run.set("analyze_p50_ms", percentile(&all, 0.50) * 1e3);
    run.set("analyze_p99_ms", percentile(&all, 0.99) * 1e3);
    // Five (four) rows leave no flow percentile with ten samples beyond
    // it: the sweep workloads report the mean row time and the slowest
    // row's mean time instead.
    run.set("flow_p50_ms", wall_s * 1e3 / rows.len() as f64);
    run.set(
        "flow_p90_ms",
        row_s.iter().copied().fold(0.0, f64::max) * 1e3 / sweeps as f64,
    );
    // LBIST runs no search: its counterpart of the paper's aborted
    // faults are the faults the pattern budget left undetected.
    let unresolved: fn(&Quality) -> usize = match kind {
        Kind::Table1 => |q| q.aborted,
        Kind::Lbist => |q| q.undetected,
    };
    record_quality(
        &mut run,
        expected.as_deref().unwrap_or_default(),
        unresolved,
    );
    run.set("ok_frac", run.ok_frac());
    run.set("peak_rss_mb", peak_rss_mb());
    run
}
