//! ATPG engine equivalence sweep: [`ReferencePodem`] and
//! [`CompiledPodem`] must produce **identical** `PodemOutcome`s for
//! every fault, and identical end-to-end ATPG results (fault statuses,
//! pattern sets, coverage, run counters) on seeded SOCs across all
//! four clocking modes and both fault models.
//!
//! The compiled engine replaces only the value engine (incremental
//! [`occ::atpg::DualGraphSim`] instead of the re-allocating
//! `DualSim`) and the lookup tables — the search itself is a
//! line-for-line translation, so any divergence here is a bug, not a
//! heuristic difference.

use occ::atpg::{
    classify_faults, run_atpg_cancellable, AtpgEngine, AtpgOptions, AtpgResult, CompiledPodem,
    DualGraphSim, DualSim, Observability, PodemOutcome, ReferencePodem,
};
use occ::core::ClockingMode;
use occ::fault::{FaultModel, FaultUniverse};
use occ::flow::{build_procedures, EngineChoice, FaultKind, TestFlow};
use occ::fsim::{
    simulate_good, CancelToken, CaptureModel, ClockBinding, CycleSpec, FaultSim, FrameSpec, Pattern,
};
use occ::netlist::{Logic, Netlist, NetlistBuilder};
use occ::soc::{generate, SocConfig};

const MODES: [ClockingMode; 4] = [
    ClockingMode::ExternalClock { max_pulses: 4 },
    ClockingMode::SimpleCpf,
    ClockingMode::EnhancedCpf { max_pulses: 4 },
    ClockingMode::ConstrainedExternal { max_pulses: 4 },
];

/// Per-fault outcome identity: both engines run a strided sample of
/// the fault universe under every capture procedure of the mode, and
/// the outcomes (including the exact pattern bits of found tests) must
/// be equal. (Exhaustive per-fault identity on random circuits is
/// separately pinned by `crates/atpg/tests/brute_force.rs`; the stride
/// keeps this seeded-SOC sweep inside the tier-1 budget.)
const FAULT_STRIDE: usize = 8;

#[test]
fn per_fault_outcomes_identical() {
    let soc = generate(&SocConfig::tiny(5));
    for mode in MODES {
        for fault_model in [FaultKind::StuckAt, FaultKind::Transition] {
            let model =
                CaptureModel::new(soc.netlist(), soc.binding(true)).expect("generated SOC binds");
            let procedures = match fault_model {
                FaultModel::StuckAt => occ::core::stuck_at_procedures(mode, model.domain_count()),
                FaultModel::Transition => {
                    occ::core::transition_procedures(mode, model.domain_count())
                }
            };
            let universe = match fault_model {
                FaultModel::StuckAt => FaultUniverse::stuck_at(soc.netlist()),
                FaultModel::Transition => FaultUniverse::transition(soc.netlist()),
            };
            let mut reference = ReferencePodem::new(&model);
            let mut compiled = CompiledPodem::new(&model);
            let mut checked = 0usize;
            let mut found = 0usize;
            for spec in &procedures {
                let obs = Observability::compute(&model, spec);
                for &fault in universe.faults().iter().step_by(FAULT_STRIDE) {
                    let a = reference.run(spec, &obs, fault, 32);
                    let b = AtpgEngine::run(&mut compiled, spec, &obs, fault, 32);
                    assert_eq!(
                        a,
                        b,
                        "engines diverge: {mode:?} {fault_model:?} {} {fault}",
                        spec.name()
                    );
                    checked += 1;
                    if matches!(a, PodemOutcome::Test(_)) {
                        found += 1;
                    }
                }
            }
            assert!(checked > 0, "no faults checked for {mode:?}");
            assert!(
                found > 0 || procedures.is_empty(),
                "degenerate sweep: no tests found for {mode:?} {fault_model:?}"
            );
            // Identical outcomes imply identical decision counts.
            let ra = AtpgEngine::kernel_stats(&reference);
            let rb = AtpgEngine::kernel_stats(&compiled);
            assert_eq!(ra.decisions, rb.decisions, "{mode:?} {fault_model:?}");
            assert_eq!(ra.backtracks, rb.backtracks, "{mode:?} {fault_model:?}");
        }
    }
}

/// End-to-end identity through `run_atpg_cancellable`: same coverage,
/// same fault statuses, same pattern sets, same run counters.
#[test]
fn full_atpg_runs_identical() {
    let soc = generate(&SocConfig::tiny(9));
    let model = CaptureModel::new(soc.netlist(), soc.binding(true)).expect("generated SOC binds");
    for mode in [
        ClockingMode::SimpleCpf,
        ClockingMode::EnhancedCpf { max_pulses: 4 },
    ] {
        let procedures = occ::core::transition_procedures(mode, model.domain_count());
        let universe = FaultUniverse::transition(soc.netlist());
        let options = AtpgOptions {
            random_patterns: 32,
            backtrack_limit: 24,
            ..AtpgOptions::default()
        };

        let mut fsim_a = FaultSim::new(&model);
        let mut ref_podem = ReferencePodem::new(&model);
        let a = run_atpg_cancellable(
            &model,
            &procedures,
            universe.clone(),
            &options,
            &mut fsim_a,
            &mut ref_podem,
            &[],
            &CancelToken::never(),
        )
        .expect("a never-token cannot trip");

        let mut fsim_b = FaultSim::new(&model);
        let mut comp_podem = CompiledPodem::new(&model);
        let b = run_atpg_cancellable(
            &model,
            &procedures,
            universe,
            &options,
            &mut fsim_b,
            &mut comp_podem,
            &[],
            &CancelToken::never(),
        )
        .expect("a never-token cannot trip");

        assert_eq!(a.report(), b.report(), "{mode:?}");
        assert_eq!(a.stats, b.stats, "{mode:?}");
        assert_eq!(a.patterns.len(), b.patterns.len(), "{mode:?}");
        for (pa, pb) in a.patterns.patterns().iter().zip(b.patterns.patterns()) {
            assert_eq!(pa, pb, "{mode:?}");
        }
        for (fault, status) in a.faults.iter() {
            assert_eq!(status, b.faults.status(fault), "{mode:?} fault {fault}");
        }
    }
}

/// A two-domain rig whose async reset net is driven by internal logic
/// (same shape as the `kernel_equivalence` rig): two scan flops in
/// domain `a` feed the active-high reset of a `DffRh` in domain `b`.
/// Frames that pulse only domain `a` leave the `DffRh` non-pulsed
/// while its faulty reset net toggles — the corner of the workspace
/// reset contract (`occ_fsim::FaultSim::capture_flop`).
fn reset_logic_rig() -> (Netlist, ClockBinding) {
    let mut b = NetlistBuilder::new("reset_rig");
    let clka = b.input("clka");
    let clkb = b.input("clkb");
    let se = b.input("se");
    let si = b.input("si");
    let d = b.input("d");
    let f0 = b.sdff(d, clka, se, si);
    let inv = b.not(f0);
    let f1 = b.sdff(inv, clka, se, f0);
    let rst = b.and2(f0, f1);
    let xo = b.xor2(f0, d);
    let fb = b.dff_rh(xo, clkb, rst);
    let obs = b.or2(fb, f1);
    b.output("q", obs);
    let nl = b.finish().unwrap();
    let mut binding = ClockBinding::new();
    binding.add_domain("a", clka);
    binding.add_domain("b", clkb);
    binding.constrain(se, Logic::Zero);
    binding.mask(si);
    (nl, binding)
}

/// Reset contract alignment: on the logic-driven-reset rig, both
/// scalar value engines ([`DualSim`] and [`DualGraphSim`]) must agree
/// with the packed PPSFP engine on *every* fault over the *exhaustive*
/// pattern space — including specs where the `DffRh` is never pulsed
/// while its faulty reset net is active (good machine resets every
/// frame, faulty non-pulsed state carries).
#[test]
fn reset_driven_by_logic_value_engines_agree_with_ppsfp() {
    let (nl, binding) = reset_logic_rig();
    let model = CaptureModel::new(&nl, binding).unwrap();
    let specs = [
        FrameSpec::new("a_only", vec![CycleSpec::pulsing(&[0]); 2]).hold_pi(true),
        FrameSpec::new(
            "a_then_b",
            vec![
                CycleSpec::pulsing(&[0]),
                CycleSpec::pulsing(&[0]),
                CycleSpec::pulsing(&[1]),
            ],
        )
        .hold_pi(true),
        FrameSpec::new("both", vec![CycleSpec::pulsing(&[0, 1]); 2]).hold_pi(true),
    ];
    let mut ds = DualSim::new(&model);
    let mut gs = DualGraphSim::new(&model);
    let mut fsim = FaultSim::new(&model);
    let mut agreements = 0usize;
    let mut detections = 0usize;
    for universe in [FaultUniverse::stuck_at(&nl), FaultUniverse::transition(&nl)] {
        for spec in &specs {
            // Exhaustive: 2 scan bits x 1 held PI bit = 8 patterns.
            for bits in 0u8..8 {
                let mut p = Pattern::empty(&model, spec, 0);
                p.scan_load = vec![
                    Logic::from_bool(bits & 1 != 0),
                    Logic::from_bool(bits & 2 != 0),
                ];
                p.pis[0] = vec![Logic::from_bool(bits & 4 != 0)];
                let good = simulate_good(&model, spec, &[p.clone()]);
                for &fault in universe.faults() {
                    let packed = fsim.detect(spec, &good, fault) & 1 == 1;
                    ds.simulate(spec, &p, fault);
                    assert_eq!(
                        ds.detected(spec, fault),
                        packed,
                        "DualSim vs packed: {} {fault} bits {bits}",
                        spec.name()
                    );
                    gs.begin(spec, &p, fault);
                    assert_eq!(
                        gs.detected(spec, fault),
                        packed,
                        "DualGraphSim vs packed: {} {fault} bits {bits}",
                        spec.name()
                    );
                    agreements += 1;
                    detections += usize::from(packed);
                }
            }
        }
    }
    assert!(agreements > 0);
    assert!(detections > 0, "degenerate rig: nothing detected");
}

/// PODEM outcome identity on the logic-driven-reset rig: both search
/// engines produce the same outcome (including exact pattern bits) for
/// every fault under mixed-pulse procedures.
#[test]
fn reset_driven_by_logic_podem_outcomes_identical() {
    let (nl, binding) = reset_logic_rig();
    let model = CaptureModel::new(&nl, binding).unwrap();
    let spec = FrameSpec::new(
        "a_then_b",
        vec![
            CycleSpec::pulsing(&[0]),
            CycleSpec::pulsing(&[0]),
            CycleSpec::pulsing(&[1]),
        ],
    )
    .hold_pi(true);
    let obs = Observability::compute(&model, &spec);
    let mut reference = ReferencePodem::new(&model);
    let mut compiled = CompiledPodem::new(&model);
    let mut found = 0usize;
    for universe in [FaultUniverse::stuck_at(&nl), FaultUniverse::transition(&nl)] {
        for &fault in universe.faults() {
            let a = reference.run(&spec, &obs, fault, 32);
            let b = AtpgEngine::run(&mut compiled, &spec, &obs, fault, 32);
            assert_eq!(a, b, "engines diverge on reset rig: {fault}");
            if matches!(a, PodemOutcome::Test(_)) {
                found += 1;
            }
        }
    }
    assert!(found > 0, "degenerate rig: PODEM found no tests");
}

/// The flow's ATPG stage under either engine: on the procedures and
/// fault universe a `TestFlow` builds, `ReferencePodem` and
/// `CompiledPodem` give the same coverage, stats, patterns and
/// decisions — across all four clocking modes and both fault models.
#[test]
fn flows_identical_across_atpg_engines() {
    let soc = generate(&SocConfig::tiny(3));
    let model = CaptureModel::new(soc.netlist(), soc.binding(true)).expect("generated SOC binds");
    let quick = AtpgOptions {
        random_patterns: 32,
        backtrack_limit: 16,
        ..AtpgOptions::default()
    };
    for mode in MODES {
        for fault_model in [FaultKind::StuckAt, FaultKind::Transition] {
            let procedures = build_procedures(mode, fault_model, model.domain_count())
                .expect("every mode drives both fault models");
            let universe = match fault_model {
                FaultModel::StuckAt => FaultUniverse::stuck_at(soc.netlist()),
                FaultModel::Transition => FaultUniverse::transition(soc.netlist()),
            };
            let run = |podem: &mut dyn AtpgEngine| -> AtpgResult {
                let mut result = run_atpg_cancellable(
                    &model,
                    &procedures,
                    universe.clone(),
                    &quick,
                    &mut FaultSim::new(&model),
                    podem,
                    &[],
                    &CancelToken::never(),
                )
                .expect("a never-token cannot trip");
                classify_faults(&model, &mut result.faults);
                result
            };
            let mut reference_podem = ReferencePodem::new(&model);
            let mut compiled_podem = CompiledPodem::new(&model);
            let reference = run(&mut reference_podem);
            let compiled = run(&mut compiled_podem);
            assert_eq!(
                reference.report(),
                compiled.report(),
                "{mode:?} {fault_model:?}"
            );
            assert_eq!(reference.stats, compiled.stats, "{mode:?} {fault_model:?}");
            assert_eq!(
                reference.patterns.len(),
                compiled.patterns.len(),
                "{mode:?} {fault_model:?}"
            );
            let reference_kernel = AtpgEngine::kernel_stats(&reference_podem);
            let compiled_kernel = AtpgEngine::kernel_stats(&compiled_podem);
            assert_eq!(
                reference_kernel.decisions, compiled_kernel.decisions,
                "{mode:?} {fault_model:?}"
            );
            // The compiled engine actually ran incrementally: one full
            // sim per PODEM run, the rest changed-cone updates.
            if compiled_kernel.decisions > 0 {
                assert!(
                    compiled_kernel.incremental_resims > 0,
                    "compiled engine never re-simulated incrementally ({mode:?})"
                );
                assert!(compiled_kernel.events > 0);
            }
            assert_eq!(reference_kernel.seeded_sims, 0);
        }
    }
}

/// Per-spec baseline seeding: PODEM opens every run with the all-X
/// pattern, so once a procedure's baseline is captured every later run
/// under the same spec seeds its opening simulation instead of
/// re-evaluating from scratch. Pattern byte-identity against the
/// reference engine under seeding is pinned by
/// `flows_identical_across_atpg_engines` above; this test pins that
/// the seeding actually engages and full sims stay bounded by the
/// number of distinct procedures.
#[test]
fn compiled_engine_seeds_repeated_spec_baselines() {
    let soc = generate(&SocConfig::tiny(3));
    let report = TestFlow::new(&soc)
        .clocking(ClockingMode::SimpleCpf)
        .fault_model(FaultKind::Transition)
        .mask_bidi(true)
        .engine(EngineChoice::Serial)
        .atpg(AtpgOptions {
            random_patterns: 32,
            backtrack_limit: 16,
            ..AtpgOptions::default()
        })
        .run()
        .expect("flow runs");
    let k = &report.atpg_kernel;
    assert!(
        k.seeded_sims > 0,
        "no PODEM run reused a spec baseline: {k:?}"
    );
    assert!(
        k.full_resims <= report.procedures as u64,
        "more full sims ({}) than procedures ({})",
        k.full_resims,
        report.procedures
    );
    assert!(report.to_json().contains("\"seeded_sims\":"));
}
