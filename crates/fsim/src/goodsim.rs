//! Batched (64-pattern) good-machine simulation of a capture procedure.
//!
//! Runs on the [`SimGraph`](crate::SimGraph) compiled into the capture
//! model: dense op-code evaluation over the levelized order, flop
//! capture through precomputed pin metadata (reset handling is skipped
//! entirely for flops without a reset pin), and two frame-level
//! optimizations for multi-frame procedures:
//!
//! * the packed primary-input frame is built **once** when the
//!   procedure holds PIs (instead of re-packing every slot of every
//!   pattern per frame);
//! * with held PIs, frames after the first are simulated
//!   **incrementally**: the previous frame's values are copied and only
//!   the cones of flops whose state changed are re-evaluated
//!   event-wise — identical values by construction, a fraction of the
//!   evaluations.

use crate::graph::{SimGraph, FLOP_TAG, NO_RESET};
use crate::pval::PVal;
use crate::{CaptureModel, FrameSpec, Pattern};

/// Good-machine values for a batch of up to 64 patterns under one
/// capture procedure.
///
/// * `frames[k-1][cell]` — node values of combinational frame `k`
///   (1-based); flop nodes carry the state *entering* the frame.
/// * `states[k][flop]` — flop states after cycle `k`; `states[0]` is the
///   scan load (non-scan flops start `X`).
#[derive(Debug, Clone)]
pub struct GoodBatch {
    /// Number of real patterns in the batch (≤ 64).
    pub n_patterns: usize,
    /// Mask with one bit per real pattern.
    pub valid_mask: u64,
    /// Per-frame node values.
    pub frames: Vec<Vec<PVal>>,
    /// Flop states; index 0 is the load state.
    pub states: Vec<Vec<PVal>>,
}

/// Event-driven re-evaluation scratch for incremental frames.
struct Propagator {
    buckets: Vec<Vec<u32>>,
    enq: Vec<u32>,
    gen: u32,
}

impl Propagator {
    fn new(graph: &SimGraph) -> Self {
        Propagator {
            buckets: vec![Vec::new(); graph.bucket_count()],
            enq: vec![0; graph.cells()],
            gen: 0,
        }
    }

    /// Enqueues the combinational fanouts of `cell`.
    fn seed(&mut self, graph: &SimGraph, cell: usize) {
        for &e in graph.prop_fanouts(cell) {
            if e & FLOP_TAG == 0 {
                let f = e as usize;
                if self.enq[f] != self.gen {
                    self.enq[f] = self.gen;
                    self.buckets[graph.level_of(f) as usize].push(e);
                }
            }
        }
    }

    /// Re-evaluates enqueued cells in level order, propagating only
    /// where values actually change. Equivalent to a full re-eval of
    /// the frame (every cell is a pure function of PIs and flop nodes).
    fn run(&mut self, graph: &SimGraph, vals: &mut [PVal]) {
        for lvl in 0..self.buckets.len() {
            while let Some(raw) = self.buckets[lvl].pop() {
                let c = raw as usize;
                let v = graph.eval_cell(c, |_, src| vals[src as usize]);
                if v != vals[c] {
                    vals[c] = v;
                    self.seed(graph, c);
                }
            }
        }
    }

    fn next_gen(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.enq.fill(0);
            self.gen = 1;
        }
    }
}

/// Packs one frame's free-PI values across the batch.
fn pack_pis(model: &CaptureModel<'_>, patterns: &[Pattern], frame: usize, out: &mut Vec<PVal>) {
    out.clear();
    for (pi_idx, _) in model.free_pis().iter().enumerate() {
        let mut pv = PVal::XX;
        for (b, p) in patterns.iter().enumerate() {
            pv = pv.with_slot(b, p.pis_for_frame(frame)[pi_idx]);
        }
        out.push(pv);
    }
}

/// Simulates up to 64 patterns (all using procedure `spec`) and returns
/// the full good-machine view.
///
/// # Panics
///
/// Panics if more than 64 patterns are passed, or a pattern's shape does
/// not match the model/spec.
pub fn simulate_good(
    model: &CaptureModel<'_>,
    spec: &FrameSpec,
    patterns: &[Pattern],
) -> GoodBatch {
    assert!(patterns.len() <= 64, "PPSFP batch limit is 64 patterns");
    assert!(!patterns.is_empty(), "empty batch");
    let graph = model.graph();
    let n_cells = graph.cells();
    let n_flops = graph.flop_count();
    let valid_mask = if patterns.len() == 64 {
        !0u64
    } else {
        (1u64 << patterns.len()) - 1
    };

    // Load state.
    let mut state0 = vec![PVal::XX; n_flops];
    for (si, &fi) in model.scan_flops().iter().enumerate() {
        let mut pv = PVal::XX;
        for (b, p) in patterns.iter().enumerate() {
            pv = pv.with_slot(b, p.scan_load[si]);
        }
        state0[fi as usize] = pv;
    }

    // The frame-independent baseline: ties, constraints, masks.
    let mut base = vec![PVal::XX; n_cells];
    for &(c, v) in graph.tie_values() {
        base[c as usize] = v;
    }
    for &(c, v) in model.forced() {
        base[c.index()] = PVal::splat(v);
    }
    for &c in model.masked() {
        base[c.index()] = PVal::XX;
    }

    // Packed free-PI values; built once when the procedure holds PIs.
    let hold = spec.holds_pi();
    let mut pi_frame: Vec<PVal> = Vec::new();
    pack_pis(model, patterns, 1, &mut pi_frame);

    let mut states = vec![state0];
    let mut frames: Vec<Vec<PVal>> = Vec::with_capacity(spec.frames());
    let mut prop = Propagator::new(graph);

    for k in 1..=spec.frames() {
        let incremental = hold && k > 1;
        let mut vals = if incremental {
            // Base inputs are unchanged: start from the previous frame
            // and re-evaluate only the cones of changed flops.
            frames[k - 2].clone()
        } else {
            if k > 1 {
                pack_pis(model, patterns, k, &mut pi_frame);
            }
            let mut vals = base.clone();
            for (pi_idx, &pi) in model.free_pis().iter().enumerate() {
                vals[pi.index()] = pi_frame[pi_idx];
            }
            vals
        };

        // Flop nodes carry the entering state.
        if incremental {
            prop.next_gen();
            for (fi, &entering) in states[k - 1].iter().enumerate() {
                let cell = graph.flop_meta(fi).cell as usize;
                if vals[cell] != entering {
                    vals[cell] = entering;
                    prop.seed(graph, cell);
                }
            }
            prop.run(graph, &mut vals);
        } else {
            for (fi, &entering) in states[k - 1].iter().enumerate() {
                vals[graph.flop_meta(fi).cell as usize] = entering;
            }
            for &c in graph.comb_order() {
                let ci = c as usize;
                vals[ci] = graph.eval_cell(ci, |_, src| vals[src as usize]);
            }
        }

        // Next state: sample pulsed domains, apply resets where a reset
        // pin exists.
        let cycle = &spec.cycles()[k - 1];
        let mut next = states[k - 1].clone();
        for (fi, slot) in next.iter_mut().enumerate() {
            let meta = graph.flop_meta(fi);
            if cycle.pulses_domain(meta.domain as usize) {
                *slot = meta.sample(|src| vals[src as usize]);
            }
            if meta.reset != NO_RESET {
                *slot = meta.apply_reset(*slot, vals[meta.reset as usize]);
            }
        }
        states.push(next);
        frames.push(vals);
    }

    GoodBatch {
        n_patterns: patterns.len(),
        valid_mask,
        frames,
        states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockBinding, CycleSpec, FrameSpec};
    use occ_netlist::{Logic, NetlistBuilder};

    /// Two-domain toy: dom-A flop feeds an inverter into dom-B flop.
    fn two_domain() -> (
        occ_netlist::Netlist,
        occ_netlist::CellId,
        occ_netlist::CellId,
    ) {
        let mut b = NetlistBuilder::new("t");
        let cka = b.input("cka");
        let ckb = b.input("ckb");
        let se = b.input("se");
        let si = b.input("si");
        let d = b.input("d");
        let fa = b.sdff(d, cka, se, si);
        let inv = b.not(fa);
        let fb = b.sdff(inv, ckb, se, fa);
        b.output("q", fb);
        b.name_cell(fa, "fa");
        b.name_cell(fb, "fb");
        (b.finish().unwrap(), cka, ckb)
    }

    fn model_of(
        nl: &occ_netlist::Netlist,
        cka: occ_netlist::CellId,
        ckb: occ_netlist::CellId,
    ) -> CaptureModel<'_> {
        let mut binding = ClockBinding::new();
        binding.add_domain("a", cka);
        binding.add_domain("b", ckb);
        let se = nl.find("se").unwrap();
        binding.constrain(se, Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        CaptureModel::new(nl, binding).unwrap()
    }

    #[test]
    fn scan_load_appears_in_frame_one() {
        let (nl, cka, ckb) = two_domain();
        let model = model_of(&nl, cka, ckb);
        let spec = FrameSpec::new("p", vec![CycleSpec::pulsing(&[0, 1])]);
        let mut p = Pattern::empty(&model, &spec, 0);
        p.scan_load = vec![Logic::One, Logic::Zero];
        let g = simulate_good(&model, &spec, &[p]);
        let fa = nl.find("fa").unwrap();
        let fb = nl.find("fb").unwrap();
        assert_eq!(g.frames[0][fa.index()].slot(0), Logic::One);
        assert_eq!(g.frames[0][fb.index()].slot(0), Logic::Zero);
    }

    #[test]
    fn only_pulsed_domain_captures() {
        let (nl, cka, ckb) = two_domain();
        let model = model_of(&nl, cka, ckb);
        // Pulse only domain B: fb captures !fa, fa holds.
        let spec = FrameSpec::new("p", vec![CycleSpec::pulsing(&[1])]);
        let mut p = Pattern::empty(&model, &spec, 0);
        p.scan_load = vec![Logic::One, Logic::One];
        p.pis[0] = vec![Logic::Zero]; // d
        let g = simulate_good(&model, &spec, &[p]);
        // states[1]: fa held (1), fb captured !1 = 0.
        assert_eq!(g.states[1][0].slot(0), Logic::One);
        assert_eq!(g.states[1][1].slot(0), Logic::Zero);
    }

    #[test]
    fn two_frames_chain_captures() {
        let (nl, cka, ckb) = two_domain();
        let model = model_of(&nl, cka, ckb);
        // Frame 1: pulse A (fa <- d); frame 2: pulse B (fb <- !fa).
        let spec = FrameSpec::new(
            "p",
            vec![CycleSpec::pulsing(&[0]), CycleSpec::pulsing(&[1])],
        )
        .hold_pi(true);
        let mut p = Pattern::empty(&model, &spec, 0);
        p.scan_load = vec![Logic::Zero, Logic::Zero];
        p.pis[0] = vec![Logic::One]; // d=1
        let g = simulate_good(&model, &spec, &[p]);
        assert_eq!(g.states[1][0].slot(0), Logic::One); // fa captured d
        assert_eq!(g.states[2][1].slot(0), Logic::Zero); // fb captured !fa
    }

    #[test]
    fn non_scan_flops_start_x() {
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let d = b.input("d");
        let nf = b.dff(d, clk);
        let g = b.buf(nf);
        b.output("q", g);
        let nl = b.finish().unwrap();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", clk);
        let model = CaptureModel::new(&nl, binding).unwrap();
        let spec = FrameSpec::new("p", vec![CycleSpec::pulsing(&[0]); 2]);
        let mut p = Pattern::empty(&model, &spec, 0);
        for f in &mut p.pis {
            f[0] = Logic::One;
        }
        let gb = simulate_good(&model, &spec, &[p]);
        // Frame 1 sees X (uninitialized), frame 2 sees the captured 1.
        assert_eq!(gb.frames[0][nf.index()].slot(0), Logic::X);
        assert_eq!(gb.frames[1][nf.index()].slot(0), Logic::One);
    }

    #[test]
    fn batch_slots_are_independent() {
        let (nl, cka, ckb) = two_domain();
        let model = model_of(&nl, cka, ckb);
        let spec = FrameSpec::new("p", vec![CycleSpec::pulsing(&[0, 1])]);
        let mut p0 = Pattern::empty(&model, &spec, 0);
        p0.scan_load = vec![Logic::One, Logic::Zero];
        let mut p1 = Pattern::empty(&model, &spec, 0);
        p1.scan_load = vec![Logic::Zero, Logic::Zero];
        let g = simulate_good(&model, &spec, &[p0, p1]);
        assert_eq!(g.valid_mask, 0b11);
        let fa = nl.find("fa").unwrap();
        assert_eq!(g.frames[0][fa.index()].slot(0), Logic::One);
        assert_eq!(g.frames[0][fa.index()].slot(1), Logic::Zero);
    }

    #[test]
    fn incremental_hold_pi_frames_match_full_eval() {
        // The same multi-frame procedure with and without hold_pi, fed
        // identical per-frame PI values: the incremental path (hold_pi)
        // must produce exactly the frames of the full re-eval path.
        let (nl, cka, ckb) = two_domain();
        let model = model_of(&nl, cka, ckb);
        let hold = FrameSpec::new("h", vec![CycleSpec::pulsing(&[0, 1]); 3]).hold_pi(true);
        let free = FrameSpec::new("f", vec![CycleSpec::pulsing(&[0, 1]); 3]);

        let mut ph = Pattern::empty(&model, &hold, 0);
        ph.scan_load = vec![Logic::One, Logic::Zero];
        ph.pis[0] = vec![Logic::One];
        let mut pf = Pattern::empty(&model, &free, 0);
        pf.scan_load = vec![Logic::One, Logic::Zero];
        for f in &mut pf.pis {
            f[0] = Logic::One; // same value every frame
        }

        let gh = simulate_good(&model, &hold, &[ph]);
        let gf = simulate_good(&model, &free, &[pf]);
        assert_eq!(gh.frames, gf.frames);
        assert_eq!(gh.states, gf.states);
    }
}
