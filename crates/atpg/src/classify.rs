//! Structural fault grouping — the paper's §6 future work, implemented.
//!
//! "An attempt will be made to classify and group these faults as
//! non-functional scan path, low-speed and other faults that cannot
//! cause the device to fail at-speed operation." For every fault left
//! undetected, a one-frame cone analysis explains *why* the clocking
//! mode could not cover it: only observable through masked POs, only
//! launchable from held PIs, crossing clock domains, or depending on
//! uninitialized non-scan/RAM state.

use occ_fault::{FaultClass, FaultList};
use occ_fsim::CaptureModel;
use occ_netlist::CellKind;

/// Per-cell structural summary used for fault grouping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ConeSummary {
    /// Bitmask of domains whose flops appear in the fan-in cone (launch
    /// sources within one frame).
    launch_domains: u64,
    /// Bitmask of domains whose *scan* flops appear in the fan-out cone
    /// (capture sinks within one frame).
    capture_domains: u64,
    /// A free primary input feeds the cone.
    pi_in_fanin: bool,
    /// A non-scan flop feeds the cone.
    nonscan_in_fanin: bool,
    /// A RAM read port feeds the cone.
    ram_in_fanin: bool,
    /// The fan-out cone reaches a primary output.
    reaches_po: bool,
    /// The fan-out cone reaches a non-scan flop (state sink only).
    nonscan_sink: bool,
}

/// Computes fan-in/fan-out summaries for every cell (one-frame depth:
/// cones stop at sequential boundaries).
fn cone_summaries(model: &CaptureModel<'_>) -> Vec<ConeSummary> {
    let nl = model.netlist();
    let n = nl.len();
    let mut s = vec![ConeSummary::default(); n];

    let free_pi: std::collections::HashSet<_> = model.free_pis().iter().copied().collect();

    // Fan-in pass in topological order.
    for id in nl.ids() {
        let cell = nl.cell(id);
        let idx = id.index();
        match cell.kind() {
            CellKind::Input => {
                s[idx].pi_in_fanin = free_pi.contains(&id);
            }
            CellKind::RamOut { .. } => {
                s[idx].ram_in_fanin = true;
            }
            k if k.is_flop() => {
                if let Some(fi) = model.flop_index(id) {
                    let info = model.flops()[fi];
                    s[idx].launch_domains |= 1 << info.domain;
                    if !info.is_scan {
                        s[idx].nonscan_in_fanin = true;
                    }
                }
            }
            _ => {}
        }
    }
    for &id in nl.levelization().order() {
        let cell = nl.cell(id);
        let mut acc = s[id.index()];
        for &i in cell.inputs() {
            let si = s[i.index()];
            acc.launch_domains |= si.launch_domains;
            acc.pi_in_fanin |= si.pi_in_fanin;
            acc.nonscan_in_fanin |= si.nonscan_in_fanin;
            acc.ram_in_fanin |= si.ram_in_fanin;
        }
        s[id.index()] = acc;
    }

    // Fan-out pass in reverse topological order.
    let mut order: Vec<_> = nl.levelization().order().to_vec();
    order.reverse();
    // Seed sinks.
    for (id, cell) in nl.iter() {
        match cell.kind() {
            CellKind::Output => s[id.index()].reaches_po = true,
            k if k.is_flop() => {
                if let Some(fi) = model.flop_index(id) {
                    let info = model.flops()[fi];
                    // The flop's D pin drives capture into its domain.
                    // Recorded on the flop itself; propagated below via
                    // the D input edge.
                    if info.is_scan {
                        s[id.index()].capture_domains |= 1 << info.domain;
                    } else {
                        s[id.index()].nonscan_sink = true;
                    }
                }
            }
            _ => {}
        }
    }
    // Push sink info backwards: a cell inherits the sinks of every cell
    // it feeds. Iterate a few times to cover comb + flop-D edges (the
    // netlist is levelized, one reverse pass over comb plus one edge
    // hop into flops suffices when applied twice).
    for _ in 0..2 {
        let snapshot = s.clone();
        for (id, cell) in nl.iter() {
            // `id` feeds each of its inputs' fanout sets; equivalently,
            // each input inherits from `id`.
            let kind = cell.kind();
            for (pin, &src) in cell.inputs().iter().enumerate() {
                let inherit = match kind {
                    k if k.is_flop() => {
                        // Only the data-path pins propagate effects.
                        if pin == 0 || (k.is_scan_flop() && pin == 3) {
                            ConeSummary {
                                capture_domains: snapshot[id.index()].capture_domains,
                                reaches_po: false,
                                nonscan_sink: snapshot[id.index()].nonscan_sink,
                                ..ConeSummary::default()
                            }
                        } else {
                            continue;
                        }
                    }
                    CellKind::Output => ConeSummary {
                        reaches_po: true,
                        ..ConeSummary::default()
                    },
                    _ if kind.is_combinational() => ConeSummary {
                        capture_domains: snapshot[id.index()].capture_domains,
                        reaches_po: snapshot[id.index()].reaches_po,
                        nonscan_sink: snapshot[id.index()].nonscan_sink,
                        ..ConeSummary::default()
                    },
                    _ => continue,
                };
                let t = &mut s[src.index()];
                t.capture_domains |= inherit.capture_domains;
                t.reaches_po |= inherit.reaches_po;
                t.nonscan_sink |= inherit.nonscan_sink;
            }
        }
        // Comb backward closure within the snapshot round.
        for &id in &order {
            let cell = nl.cell(id);
            let me = s[id.index()];
            for &src in cell.inputs() {
                let t = &mut s[src.index()];
                t.capture_domains |= me.capture_domains;
                t.reaches_po |= me.reaches_po;
                t.nonscan_sink |= me.nonscan_sink;
            }
        }
    }
    s
}

/// Assigns a [`FaultClass`] to every non-detected fault in `list` based
/// on the cone summaries — the grouping report of the paper's
/// conclusions.
pub fn classify_faults(model: &CaptureModel<'_>, list: &mut FaultList) {
    let summaries = cone_summaries(model);
    let faults: Vec<_> = list
        .iter()
        .filter(|(_, st)| !st.is_detected())
        .map(|(f, _)| f)
        .collect();
    for fault in faults {
        let node = fault.site().effect_cell();
        let s = summaries[node.index()];
        let class = if s.capture_domains == 0 && s.reaches_po {
            FaultClass::PoMaskedOnly
        } else if s.capture_domains != 0
            && s.launch_domains != 0
            && s.capture_domains & s.launch_domains == 0
        {
            FaultClass::CrossDomain
        } else if s.launch_domains == 0 && s.pi_in_fanin {
            FaultClass::PiHeldOnly
        } else if s.nonscan_in_fanin {
            FaultClass::NonScanDependent
        } else if s.ram_in_fanin {
            FaultClass::RamDependent
        } else {
            FaultClass::Plain
        };
        list.set_class(fault, class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_fault::{FaultStatus, FaultUniverse};
    use occ_fsim::ClockBinding;
    use occ_netlist::{Logic, NetlistBuilder};

    #[test]
    fn classes_reflect_structure() {
        // g_po: only reaches a PO. g_x: launches from domain A, captured
        // in domain B only. g_ns: fed by a non-scan flop.
        let mut b = NetlistBuilder::new("t");
        let cka = b.input("cka");
        let ckb = b.input("ckb");
        let se = b.input("se");
        let si = b.input("si");
        let d = b.input("d");
        let fa = b.sdff(d, cka, se, si);
        let nf = b.dff(d, cka);
        let g_po = b.not(fa);
        b.output("po", g_po);
        let g_x = b.buf(fa);
        let _fb = b.sdff(g_x, ckb, se, si);
        let g_ns = b.and2(nf, fa);
        let _fc = b.sdff(g_ns, cka, se, si);
        let nl = b.finish().unwrap();

        let mut binding = ClockBinding::new();
        binding.add_domain("a", cka);
        binding.add_domain("b", ckb);
        binding.constrain(se, Logic::Zero);
        binding.mask(si);
        let model = CaptureModel::new(&nl, binding).unwrap();
        let mut list = FaultList::new(FaultUniverse::transition(&nl));
        classify_faults(&model, &mut list);

        use occ_fault::{Fault, FaultSite, Polarity};
        let f_po = Fault::transition(FaultSite::Output(g_po), Polarity::P0);
        assert_eq!(list.class(f_po), Some(FaultClass::PoMaskedOnly));
        let f_x = Fault::transition(FaultSite::Output(g_x), Polarity::P0);
        assert_eq!(list.class(f_x), Some(FaultClass::CrossDomain));

        // Mark one fault detected: it must not show in the histogram.
        list.set_status(f_po, FaultStatus::Detected { pattern: 0 });
        let report = list.report();
        assert!(report
            .class_histogram
            .get(&FaultClass::PoMaskedOnly)
            .is_none_or(|&n| n < 2));
        assert!(report.class_histogram[&FaultClass::CrossDomain] >= 1);
    }
}
