//! STA throughput benchmark and regression gate — the timing-side
//! sibling of `fsim_bench` / `atpg_bench`.
//!
//! Runs the retained naive [`occ_timing::reference_arrivals`] and the
//! compiled [`occ_timing::Sta`] over the seeded Table-1 SOC,
//! cross-checks that the arrival tables are identical, and times both;
//! then grades a strided transition-fault sample through the **timed**
//! PPSFP detect path (timing view attached) under the counting
//! allocator; finally runs one at-speed LBIST flow with the timing
//! stage at `serial` and at `auto`, which re-grades its patterns on one
//! thread and on the sharded pool. Results land in `BENCH_timing.json`
//! so the perf trajectory is tracked in-repo.
//!
//! ```text
//! timing_bench [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Gates:
//!
//! * **Allocation** (hardware-independent, always on): after warm-up
//!   the timed detect path must stay O(1) allocations per fault —
//!   capped at [`MAX_ALLOCS_PER_FAULT`].
//! * **Re-grade identity** (always on): the `serial` and `auto` flows
//!   must report bit-identical `delay_quality` blocks. Their `timing`
//!   stage seconds and thread counts are recorded; the auto-vs-serial
//!   ratio is an advisory row, never a floor.
//! * **Speedup ratio** (with `--check`, through [`occ_bench::gate`]):
//!   the compiled-vs-reference STA passes/sec ratio — both engines
//!   produce identical arrivals on the same machine, so the ratio
//!   cancels out machine speed — must not regress more than 20% against
//!   the committed baseline. `BENCH_SKIP_CHECK` bypasses it on cold
//!   machines; the arrival cross-check always runs.

#[path = "../alloc_track.rs"]
mod alloc_track;

#[global_allocator]
static ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

use occ_bench::gate::{self, Gate};
use occ_core::ClockingMode;
use occ_fault::FaultUniverse;
use occ_flow::{
    BistConfig, EngineChoice, FaultKind, FlowReport, Json, PatternSource, Stage, TestFlow,
};
use occ_fsim::{simulate_good, CaptureModel, FaultSim, FrameSpec, Pattern, SimTiming};
use occ_netlist::{CellKind, Logic};
use occ_sim::DelayModel;
use occ_soc::{generate, SocConfig};
use occ_timing::{reference_arrivals, CaptureTargets, Sta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Flops per clock domain of the seeded Table-1 SOC.
const FLOPS: usize = 96;

/// Timed STA passes per engine.
const PASSES: usize = 2_000;

/// Target size of the strided transition-fault sample.
const FAULTS: usize = 2_000;

/// Hard cap on timed-detect allocations per fault after warm-up. The
/// steady state is 0 — all timed scratch is allocated on attach.
const MAX_ALLOCS_PER_FAULT: f64 = 1.0;

/// LBIST patterns of the re-grade row's flow.
const REGRADE_PATTERNS: usize = 10_000;

/// The re-grade row's clocking: the paper's at-speed enhanced CPF.
const REGRADE_MODE: ClockingMode = ClockingMode::EnhancedCpf { max_pulses: 4 };

fn main() -> ExitCode {
    let gate = match Gate::from_env(&gate::TIMING) {
        Ok(g) => g,
        Err(code) => return code,
    };

    let soc = generate(&SocConfig::paper_like(20050307, FLOPS));
    let model =
        CaptureModel::new(soc.netlist(), soc.binding(true)).expect("generated SOC always binds");
    let graph = model.graph();
    let n = graph.cells();
    // A library-like delay model with per-kind and per-cell overrides:
    // the realistic case the compiled flat table exists for (every
    // uncompiled lookup pays mnemonic-keyed HashMap probes).
    let mut delay_model = DelayModel::default();
    delay_model
        .set_kind(CellKind::Nand, 12)
        .set_kind(CellKind::Nor, 14)
        .set_kind(CellKind::Xor, 18)
        .set_kind(CellKind::Xnor, 18)
        .set_kind(CellKind::Mux2, 16)
        .set_kind(CellKind::Not, 6);
    for id in soc.netlist().ids().step_by(17) {
        delay_model.set_cell(id, 11);
    }
    let table = delay_model.compile(soc.netlist());
    let n_domains = model.domain_count();
    let targets = CaptureTargets::all(n_domains);
    println!(
        "timing_bench: {} — {} cells, {} passes, {} faults",
        soc.netlist().name(),
        n,
        PASSES,
        FAULTS,
    );

    // Correctness gate: compiled arrivals must equal the naive oracle.
    let mut sta = Sta::new(n);
    sta.compute_arrivals(graph, table.as_slice());
    let oracle = reference_arrivals(soc.netlist(), &delay_model);
    if sta.arrivals() != oracle.as_slice() {
        let at = sta.arrivals().iter().zip(&oracle).position(|(a, b)| a != b);
        eprintln!(
            "timing_bench: FATAL — compiled STA arrivals diverge from the \
             reference (first at cell {at:?})"
        );
        return ExitCode::FAILURE;
    }

    // Reference STA throughput (allocates per pass, HashMap lookups).
    let t0 = Instant::now();
    for _ in 0..PASSES {
        let a = reference_arrivals(soc.netlist(), &delay_model);
        std::hint::black_box(&a);
    }
    let ref_secs = t0.elapsed().as_secs_f64().max(1e-9);

    // Compiled STA throughput (reused buffers, flat delay table) —
    // the identical arrival pass the reference just ran.
    let t0 = Instant::now();
    for _ in 0..PASSES {
        sta.compute_arrivals(graph, table.as_slice());
        std::hint::black_box(sta.max_arrival());
    }
    let sta_secs = t0.elapsed().as_secs_f64().max(1e-9);
    // The full compute (arrival + departure) feeds the flow; keep the
    // departure pass warm so its cost shows in profiles too.
    sta.compute(graph, table.as_slice(), &targets);

    let ref_passes = PASSES as f64 / ref_secs;
    let sta_passes = PASSES as f64 / sta_secs;
    let speedup = sta_passes / ref_passes.max(1e-9);
    println!(
        "  reference STA {ref_passes:>10.1} passes/s ({ref_secs:.3}s)\n  compiled  STA {sta_passes:>10.1} passes/s ({sta_secs:.3}s)\n  \
         compiled vs reference speedup: {speedup:.2}x",
    );

    // Timed detect path: strided transition-fault sample, 64 random
    // patterns, timing view attached. Warm up one full sweep, then
    // measure allocations per fault (must be O(1): the cap is the
    // always-on, hardware-independent gate).
    let universe = FaultUniverse::transition(soc.netlist());
    let all = universe.faults();
    let stride = (all.len() / FAULTS).max(1);
    let faults: Vec<occ_fault::Fault> = all.iter().copied().step_by(stride).collect();
    let domains: Vec<usize> = (0..n_domains).collect();
    let spec = FrameSpec::broadside("loc", &domains, 2)
        .hold_pi(true)
        .observe_po(false);
    let mut rng = StdRng::seed_from_u64(0x0CC);
    let pats: Vec<Pattern> = (0..64)
        .map(|_| {
            let mut p = Pattern::empty(&model, &spec, 0);
            p.fill_x(|| Logic::from_bool(rng.gen_bool(0.5)));
            p
        })
        .collect();
    let good = simulate_good(&model, &spec, &pats);
    let mut fsim = FaultSim::new(&model);
    fsim.attach_timing(Arc::new(SimTiming::new(
        table.as_slice().to_vec(),
        sta.arrivals().to_vec(),
    )));
    let mut detected = 0usize;
    for &f in &faults {
        if fsim.detect(&spec, &good, f) != 0 {
            detected += 1;
        }
    }
    let before = alloc_track::snapshot();
    let t0 = Instant::now();
    for &f in &faults {
        std::hint::black_box(fsim.detect(&spec, &good, f));
        std::hint::black_box(fsim.last_path_ps());
    }
    let timed_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let delta = alloc_track::snapshot().since(before);
    let timed_fps = faults.len() as f64 / timed_secs;
    let allocs_per_fault = delta.allocs as f64 / faults.len() as f64;
    println!(
        "  timed detect  {:>10.0} faults/s  ({} of {} detected, {} allocs, \
         {:.4} allocs/fault, cap {MAX_ALLOCS_PER_FAULT})",
        timed_fps,
        detected,
        faults.len(),
        delta.allocs,
        allocs_per_fault,
    );
    if allocs_per_fault > MAX_ALLOCS_PER_FAULT {
        eprintln!(
            "timing_bench: FATAL — timed detect path allocates \
             {allocs_per_fault:.2} per fault (cap {MAX_ALLOCS_PER_FAULT}); \
             the zero-allocation contract is broken"
        );
        return ExitCode::FAILURE;
    }

    // Timed re-grade on the flow's engine: the same flow at `serial`
    // and at `auto` must report the same delay quality.
    let regrade = |engine| {
        TestFlow::new(&soc)
            .clocking(REGRADE_MODE)
            .fault_model(FaultKind::Transition)
            .mask_bidi(true)
            .engine(engine)
            .timing(DelayModel::default())
            .pattern_source(PatternSource::Lbist(BistConfig {
                patterns: REGRADE_PATTERNS,
                ..BistConfig::default()
            }))
            .run()
            .expect("the Table-1 SOC runs at-speed LBIST")
    };
    let serial = regrade(EngineChoice::Serial);
    let auto = regrade(EngineChoice::Auto);
    let quality = |r: &FlowReport| r.delay_quality.clone().expect("timed flow");
    let (serial_q, auto_q) = (quality(&serial), quality(&auto));
    // Debug renders every float in its shortest round-trip form, so
    // equal renderings are bit-identical blocks.
    if format!("{serial_q:?}") != format!("{auto_q:?}") {
        eprintln!(
            "timing_bench: FATAL — the timed re-grade at {} threads reports \
             a different delay_quality block than at 1 thread:\n  serial {serial_q:?}\n  \
             auto   {auto_q:?}",
            auto.threads,
        );
        return ExitCode::FAILURE;
    }
    let timing_s = |r: &FlowReport| r.stage_seconds(Stage::Timing);
    let regrade_speedup = timing_s(&serial) / timing_s(&auto).max(1e-9);
    println!(
        "  re-grade {} LBIST x{REGRADE_PATTERNS}: timing stage {:.3}s at 1 thread, \
         {:.3}s at {} ({regrade_speedup:.2}x), SDQL {:.4} identical",
        REGRADE_MODE.label(),
        timing_s(&serial),
        timing_s(&auto),
        auto.threads,
        serial_q.sdql,
    );
    let report = Json::obj([
        ("design", soc.netlist().name().into()),
        ("cells", n.into()),
        ("flops_per_domain", FLOPS.into()),
        ("passes", PASSES.into()),
        (
            "sta",
            Json::obj([
                ("reference_passes_per_sec", ref_passes.into()),
                ("compiled_passes_per_sec", sta_passes.into()),
            ]),
        ),
        (
            "timed_detect",
            Json::obj([
                ("faults", faults.len().into()),
                ("detected", detected.into()),
                ("faults_per_sec", timed_fps.into()),
                ("allocs_per_fault", allocs_per_fault.into()),
            ]),
        ),
        (
            "regrade",
            Json::obj([
                ("clocking", REGRADE_MODE.label().into()),
                ("lbist_patterns", REGRADE_PATTERNS.into()),
                ("sdql", serial_q.sdql.into()),
                (
                    "serial",
                    Json::obj([
                        ("threads", serial.threads.into()),
                        ("timing_s", timing_s(&serial).into()),
                    ]),
                ),
                (
                    "auto",
                    Json::obj([
                        ("threads", auto.threads.into()),
                        ("timing_s", timing_s(&auto).into()),
                    ]),
                ),
                ("speedup_auto_vs_serial", regrade_speedup.into()),
            ]),
        ),
        ("peak_rss_kb", alloc_track::peak_rss_kb().into()),
        ("speedup_compiled_vs_reference", speedup.into()),
    ]);
    gate.finish(&report, &[])
}
