//! Per-rule fixtures: each broken design triggers exactly its rule,
//! each clean twin stays silent, the Table-1 SOC passes the deny gate,
//! and the `L007` untestability verdict is checked against the actual
//! engines — brute-force packed simulation and a full PODEM run may
//! never contradict a statically proven untestable fault. Finally the
//! lint-pruned ATPG run must be byte-identical to the unpruned run
//! while skipping at least one PODEM search.

use occ_atpg::{run_atpg_cancellable, AtpgOptions, AtpgResult, CompiledPodem};
use occ_core::{stuck_at_procedures, ClockingMode};
use occ_dft::{insert_scan, ScanConfig};
use occ_fault::{FaultStatus, FaultUniverse};
use occ_fsim::{
    simulate_good, CancelToken, CaptureModel, ClockBinding, CycleSpec, FaultSim, FrameSpec, Pattern,
};
use occ_lint::{check_netlist, LintGate, Linter, RuleId, Severity};
use occ_netlist::{Logic, Netlist, NetlistBuilder};
use occ_soc::{generate, SocConfig};

/// Asserts every diagnostic in `diags` fired for `rule`, and at least
/// one did.
fn assert_only_rule(diags: &[occ_lint::Diagnostic], rule: RuleId) {
    assert!(!diags.is_empty(), "expected {rule} to fire");
    for d in diags {
        assert_eq!(d.rule, rule, "unexpected co-firing diagnostic: {d}");
        assert_eq!(d.severity, rule.severity());
    }
}

#[test]
fn l001_comb_loop_through_latch() {
    // Broken: latch data pin fed from a gate that reads the latch —
    // transparent while en=0, so the loop is combinationally closed
    // even though the levelizer (which treats the latch as
    // sequential) accepts the netlist.
    let mut b = NetlistBuilder::new("loop");
    let d = b.input("d");
    let en = b.input("en");
    let l = b.latch_low(d, en);
    let g = b.and2(l, d);
    b.set_input(l, 0, g);
    b.output("q", l);
    let nl = b.finish().unwrap();
    assert_only_rule(&check_netlist(&nl), RuleId::CombLoop);

    // Clean twin: same cells, loop not closed.
    let mut b = NetlistBuilder::new("no_loop");
    let d = b.input("d");
    let en = b.input("en");
    let l = b.latch_low(d, en);
    let g = b.and2(l, d);
    b.output("q", g);
    let nl = b.finish().unwrap();
    assert!(check_netlist(&nl).is_empty());
}

#[test]
fn l002_floating_net() {
    // Broken twice over: a gate driving no load, and a TieX source
    // driving live logic.
    let mut b = NetlistBuilder::new("float");
    let a = b.input("a");
    let c = b.input("c");
    let g = b.and2(a, c);
    let _dead = b.or2(a, c);
    let t = b.tiex();
    let riding = b.xor2(g, t);
    b.output("q", riding);
    let nl = b.finish().unwrap();
    let diags = check_netlist(&nl);
    assert_only_rule(&diags, RuleId::FloatingNet);
    assert_eq!(diags.len(), 2, "dead gate + TieX source: {diags:?}");

    // Clean twin: every driver loaded, no uncontrolled source.
    let mut b = NetlistBuilder::new("solid");
    let a = b.input("a");
    let c = b.input("c");
    let g = b.and2(a, c);
    b.output("q", g);
    let nl = b.finish().unwrap();
    assert!(check_netlist(&nl).is_empty());
}

#[test]
fn l003_duplicate_name() {
    let mut b = NetlistBuilder::new("dup");
    let a = b.input("a");
    let g1 = b.buf(a);
    b.name_cell(g1, "u1");
    let g2 = b.not(a);
    b.name_cell(g2, "u1");
    b.output("q1", g1);
    b.output("q2", g2);
    let nl = b.finish().unwrap();
    let diags = check_netlist(&nl);
    assert_only_rule(&diags, RuleId::DuplicateName);
    assert_eq!(diags.len(), 1);

    // Clean twin: distinct names.
    let mut b = NetlistBuilder::new("uniq");
    let a = b.input("a");
    let g1 = b.buf(a);
    b.name_cell(g1, "u1");
    let g2 = b.not(a);
    b.name_cell(g2, "u2");
    b.output("q1", g1);
    b.output("q2", g2);
    let nl = b.finish().unwrap();
    assert!(check_netlist(&nl).is_empty());
}

#[test]
fn l004_non_scan_capture() {
    let mut b = NetlistBuilder::new("nonscan");
    let clk = b.input("clk");
    let d = b.input("d");
    let f = b.dff(d, clk);
    b.output("q", f);
    let nl = b.finish().unwrap();
    let mut binding = ClockBinding::new();
    binding.add_domain("c", clk);
    let model = CaptureModel::new(&nl, binding).unwrap();
    let report = Linter::new(&model).run();
    assert_only_rule(&report.diagnostics, RuleId::NonScanCapture);
    assert_eq!(report.diagnostics.len(), 1);
    // A warning: reports, but never denies.
    assert!(report.passes(LintGate::Deny));
}

/// Two-domain rig with one comb path from domain `a` into domain `b`.
fn cdc_rig() -> (Netlist, occ_netlist::CellId, occ_netlist::CellId) {
    let mut b = NetlistBuilder::new("cdc");
    let clka = b.input("clka");
    let clkb = b.input("clkb");
    let se = b.input("se");
    let si = b.input("si");
    let d = b.input("d");
    let f0 = b.sdff(d, clka, se, si);
    let g = b.not(f0);
    let f1 = b.sdff(g, clkb, se, f0);
    b.output("q", f1);
    (b.finish().unwrap(), clka, clkb)
}

#[test]
fn l005_cdc_at_speed_fires_only_under_at_speed_modes() {
    let (nl, clka, clkb) = cdc_rig();
    let bind = || {
        let mut binding = ClockBinding::new();
        binding.add_domain("a", clka);
        binding.add_domain("b", clkb);
        binding
    };

    // Enhanced CPF pulses different domains back-to-back: the a→b
    // path is exercised at speed (and only a→b — nothing crosses
    // b→a), so exactly one diagnostic fires.
    let model = CaptureModel::new(&nl, bind()).unwrap();
    let report = Linter::new(&model)
        .mode(ClockingMode::EnhancedCpf { max_pulses: 2 })
        .run();
    assert_only_rule(&report.diagnostics, RuleId::CdcAtSpeed);
    assert_eq!(report.diagnostics.len(), 1);

    // Clean twins: modes that never pulse two domains back-to-back.
    for mode in [
        ClockingMode::SimpleCpf,
        ClockingMode::ExternalClock { max_pulses: 2 },
    ] {
        let report = Linter::new(&model).mode(mode).run();
        assert!(
            report.diagnostics.is_empty(),
            "{mode:?} must not flag the crossing: {:?}",
            report.diagnostics
        );
    }
}

/// A plain two-flop design, scan-stitched into one chain.
fn scanned_pair() -> (
    occ_dft::ScanChains,
    occ_netlist::CellId,
    occ_netlist::CellId,
) {
    let mut b = NetlistBuilder::new("pair");
    let clk = b.input("clk");
    let d = b.input("d");
    let f0 = b.dff(d, clk);
    let f1 = b.dff(f0, clk);
    b.output("q", f1);
    let nl = b.finish().unwrap();
    let chains = insert_scan(&nl, &ScanConfig::new(1)).unwrap();
    (chains, clk, d)
}

#[test]
fn l006_scan_chain_breaks() {
    // Break 1: the second chain flop's scan-in rewired off the chain
    // order (pin 3 of an Sdff is si).
    let (chains, clk, d) = scanned_pair();
    let victim = chains.chains()[0][1];
    let mut b = NetlistBuilder::from_netlist(chains.netlist());
    b.set_input(victim, 3, d);
    let tampered = b.finish().unwrap();
    let mut binding = ClockBinding::new();
    binding.add_domain("c", clk);
    let model = CaptureModel::new(&tampered, binding).unwrap();
    let report = Linter::new(&model).chains(&chains).run();
    assert_only_rule(&report.diagnostics, RuleId::ScanChain);
    assert!(!report.passes(LintGate::Deny), "chain breaks must deny");
    assert!(report.passes(LintGate::Warn));
    assert_eq!(report.first_error().unwrap().rule, RuleId::ScanChain);

    // Break 2: a flop's scan-enable off the global enable (pin 2).
    let (chains, clk, d) = scanned_pair();
    let victim = chains.chains()[0][0];
    let mut b = NetlistBuilder::from_netlist(chains.netlist());
    b.set_input(victim, 2, d);
    let tampered = b.finish().unwrap();
    let mut binding = ClockBinding::new();
    binding.add_domain("c", clk);
    let model = CaptureModel::new(&tampered, binding).unwrap();
    let report = Linter::new(&model).chains(&chains).run();
    assert_only_rule(&report.diagnostics, RuleId::ScanChain);

    // Clean twin: the untampered stitch lints silent.
    let (chains, clk, _) = scanned_pair();
    let mut binding = ClockBinding::new();
    binding.add_domain("c", clk);
    let model = CaptureModel::new(chains.netlist(), binding).unwrap();
    let report = Linter::new(&model).chains(&chains).run();
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn l008_x_source_reaching_misr_observation_cone() {
    // Broken: a TieX and an uninitialized non-scan flop both feed,
    // through combinational logic, the D pin of a scan flop — any
    // MISR compacting that flop's unload captures an unbounded X.
    // The same cells trip L002 (uncontrolled source) and L004
    // (non-scan capture), so the assertions filter for L008.
    let mut b = NetlistBuilder::new("xsrc");
    let clk = b.input("clk");
    let se = b.input("se");
    let si = b.input("si");
    let d = b.input("d");
    let t = b.tiex();
    let nsf = b.dff(d, clk);
    let g = b.xor2(t, nsf);
    let f = b.sdff(g, clk, se, si);
    b.output("q", f);
    let nl = b.finish().unwrap();
    let mut binding = ClockBinding::new();
    binding.add_domain("c", clk);
    binding.constrain(nl.find("se").unwrap(), Logic::Zero);
    binding.mask(nl.find("si").unwrap());
    let model = CaptureModel::new(&nl, binding).unwrap();
    let report = Linter::new(&model).run();
    let l008: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|diag| diag.rule == RuleId::XSource)
        .collect();
    assert_eq!(l008.len(), 2, "TieX + uninitialized flop: {l008:?}");
    for diag in &l008 {
        assert_eq!(diag.severity, Severity::Warning);
    }
    // A warning for external-ATPG flows (X-fill tolerates it), fatal
    // only for signature-based sources — so it reports, never denies.
    assert!(report.passes(LintGate::Deny));

    // Clean twin: the same X-sources exist but only reach a primary
    // output; the scan flop's capture cone stays X-free, so a MISR
    // observing it is safe and L008 stays silent.
    let mut b = NetlistBuilder::new("xbounded");
    let clk = b.input("clk");
    let se = b.input("se");
    let si = b.input("si");
    let d = b.input("d");
    let a = b.input("a");
    let t = b.tiex();
    let nsf = b.dff(d, clk);
    let g = b.xor2(t, nsf);
    b.output("po", g);
    let f = b.sdff(a, clk, se, si);
    b.output("q", f);
    let nl = b.finish().unwrap();
    let mut binding = ClockBinding::new();
    binding.add_domain("c", clk);
    binding.constrain(nl.find("se").unwrap(), Logic::Zero);
    binding.mask(nl.find("si").unwrap());
    let model = CaptureModel::new(&nl, binding).unwrap();
    let report = Linter::new(&model).run();
    assert!(
        report
            .diagnostics
            .iter()
            .all(|diag| diag.rule != RuleId::XSource),
        "PO-only X-sources must not fire L008: {:?}",
        report.diagnostics
    );
}

/// The ATPG test rig: four scan flops, two free PIs, scan enable
/// constrained to functional mode and scan-in masked — which makes
/// every fault on those control nets statically untestable (their
/// activation value is unproducible under capture conditions).
fn atpg_rig() -> (Netlist, occ_netlist::CellId) {
    let mut b = NetlistBuilder::new("t");
    let clk = b.input("clk");
    let se = b.input("se");
    let si = b.input("si");
    let a = b.input("a");
    let c = b.input("b");
    let f0 = b.sdff(a, clk, se, si);
    let f1 = b.sdff(c, clk, se, f0);
    let g1 = b.and2(f0, f1);
    let g2 = b.xor2(g1, c);
    let f2 = b.sdff(g2, clk, se, f1);
    let g3 = b.nor2(f2, g1);
    let f3 = b.sdff(g3, clk, se, f2);
    b.output("po", g3);
    b.output("q", f3);
    (b.finish().unwrap(), clk)
}

fn rig_binding(nl: &Netlist, clk: occ_netlist::CellId) -> ClockBinding {
    let mut binding = ClockBinding::new();
    binding.add_domain("c", clk);
    binding.constrain(nl.find("se").unwrap(), Logic::Zero);
    binding.mask(nl.find("si").unwrap());
    binding
}

#[test]
fn l007_untestable_never_contradicted_by_brute_force_or_podem() {
    let (nl, clk) = atpg_rig();
    let model = CaptureModel::new(&nl, rig_binding(&nl, clk)).unwrap();
    let universe = FaultUniverse::stuck_at(&nl);
    let report = Linter::new(&model).run_with_universe(&universe);
    assert_only_rule(&report.diagnostics, RuleId::Untestable);
    assert_eq!(report.diagnostics.len(), report.untestable.len());
    assert!(report.count_severity(Severity::Info) > 0);
    // Info diagnostics never gate.
    assert!(report.passes(LintGate::Deny));

    // Brute force: all 2^6 (4 scan bits + 2 free PIs) patterns in one
    // packed batch — no engine may ever detect a proven fault.
    let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
    let mut patterns = Vec::with_capacity(64);
    for bits in 0u32..64 {
        let mut p = Pattern::empty(&model, &spec, 0);
        for (i, v) in p.scan_load.iter_mut().enumerate() {
            *v = Logic::from_bool(bits & (1 << i) != 0);
        }
        for (i, v) in p.pis[0].iter_mut().enumerate() {
            *v = Logic::from_bool(bits & (1 << (4 + i)) != 0);
        }
        patterns.push(p);
    }
    let good = simulate_good(&model, &spec, &patterns);
    let masks = FaultSim::new(&model).detect_many(&spec, &good, &report.untestable);
    for (fault, mask) in report.untestable.iter().zip(&masks) {
        assert_eq!(*mask, 0, "brute force detected 'untestable' {fault}");
    }

    // Full ATPG (no pre-classification): no completed run may end a
    // proven fault in a detected state.
    let mut engine = FaultSim::new(&model);
    let mut podem = CompiledPodem::new(&model);
    let result = run_atpg_cancellable(
        &model,
        std::slice::from_ref(&spec),
        universe,
        &AtpgOptions::default(),
        &mut engine,
        &mut podem,
        &[],
        &CancelToken::never(),
    )
    .expect("a never-token cannot trip");
    for &fault in &report.untestable {
        assert!(
            !result.faults.status(fault).is_detected(),
            "ATPG detected statically 'untestable' {fault}"
        );
    }
}

/// One small generated SOC, linted exactly as `TestFlow` wires it.
fn lint_soc(
    soc: &occ_soc::Soc,
    model: &CaptureModel<'_>,
    universe: &FaultUniverse,
) -> occ_lint::LintReport {
    Linter::new(model)
        .mode(ClockingMode::EnhancedCpf { max_pulses: 3 })
        .chains(soc.chains())
        .run_with_universe(universe)
}

#[test]
fn generated_soc_is_deny_clean() {
    // The Table-1 device model must admit itself: warnings are
    // expected (non-scan islands, CDC paths), errors are not.
    let soc = generate(&SocConfig::tiny(3));
    let model = CaptureModel::new(soc.netlist(), soc.binding(true)).unwrap();
    let universe = FaultUniverse::stuck_at(soc.netlist());
    let report = lint_soc(&soc, &model, &universe);
    assert!(
        report.passes(LintGate::Deny),
        "SOC must be deny-clean; first error: {:?}",
        report.first_error()
    );
    assert_eq!(report.errors(), 0);
    assert_eq!(report.cells_scanned, soc.netlist().len());
    assert_eq!(report.faults_scanned, universe.faults().len());
}

fn assert_identical_runs(pruned: &AtpgResult, plain: &AtpgResult) {
    assert_eq!(
        pruned.report().coverage_pct(),
        plain.report().coverage_pct()
    );
    assert_eq!(pruned.report().detected, plain.report().detected);
    assert_eq!(pruned.patterns.len(), plain.patterns.len());
    for (a, b) in pruned
        .patterns
        .patterns()
        .iter()
        .zip(plain.patterns.patterns())
    {
        assert_eq!(a.proc_index, b.proc_index);
        assert_eq!(a.scan_load, b.scan_load, "scan loads diverged");
        assert_eq!(a.pis, b.pis, "PI fills diverged");
    }
}

#[test]
fn lint_pruned_atpg_is_byte_identical_and_skips_searches() {
    let soc = generate(&SocConfig::tiny(3));
    let model = CaptureModel::new(soc.netlist(), soc.binding(true)).unwrap();
    let universe = FaultUniverse::stuck_at(soc.netlist());
    let report = lint_soc(&soc, &model, &universe);
    let procedures = stuck_at_procedures(ClockingMode::SimpleCpf, model.domain_count());
    let options = AtpgOptions {
        random_patterns: 64,
        backtrack_limit: 32,
        ..AtpgOptions::default()
    };

    let mut engine = FaultSim::new(&model);
    let mut podem = CompiledPodem::new(&model);
    let plain = run_atpg_cancellable(
        &model,
        &procedures,
        universe.clone(),
        &options,
        &mut engine,
        &mut podem,
        &[],
        &CancelToken::never(),
    )
    .expect("a never-token cannot trip");
    let pruned = run_atpg_cancellable(
        &model,
        &procedures,
        universe,
        &options,
        &mut engine,
        &mut podem,
        &report.untestable,
        &CancelToken::never(),
    )
    .expect("a never-token cannot trip");

    assert!(
        pruned.stats.lint_pruned > 0,
        "expected at least one skipped PODEM search"
    );
    assert_eq!(plain.stats.lint_pruned, 0);
    assert_identical_runs(&pruned, &plain);
    // Every pre-classified fault ends untestable (or constrained by
    // the pre-pass), never detected.
    for &fault in &report.untestable {
        let status = pruned.faults.status(fault);
        assert!(
            matches!(status, FaultStatus::Untestable | FaultStatus::Constrained),
            "pre-classified {fault} ended as {status:?}"
        );
    }
}
