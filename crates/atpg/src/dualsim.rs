//! Scalar good/faulty dual simulation — PODEM's value engines.
//!
//! Unlike the packed PPSFP simulator (which only reports detection),
//! PODEM needs to *inspect* intermediate values: the fault-site value
//! per frame, unjustified objectives, X nodes and difference nodes.
//! Two engines provide that view for a single candidate pattern:
//!
//! * [`DualSim`] — the retained reference engine: full good and faulty
//!   value arrays re-allocated and re-evaluated from scratch on every
//!   call (the oracle the compiled engine is checked against);
//! * [`DualGraphSim`] — the compiled engine riding the
//!   [`SimGraph`](occ_fsim::SimGraph) (CSR fanin/fanout edges, dense
//!   [`OpCode`](occ_fsim::OpCode)s, flattened levelization): frame
//!   values live in flat reusable arrays, and when a PODEM decision
//!   flips a single scan bit or PI only the changed cone is
//!   re-simulated event-wise, frame by frame. Values are identical to
//!   [`DualSim`] by construction (deterministic function composition —
//!   a cell re-evaluates only after a fanin changed), which is what
//!   makes [`CompiledPodem`](crate::CompiledPodem) decision-for-
//!   decision identical to [`ReferencePodem`](crate::ReferencePodem).
//!
//! Both engines implement the workspace-wide reset contract (see
//! `occ_fsim::FaultSim::capture_flop`, "reset semantics"): the **good**
//! machine applies asynchronous resets every frame, while the
//! **faulty** state of a flop whose domain is not pulsed in a frame
//! carries its entering state iff the fault involves the flop
//! (entering-state difference or a differing input-pin driver) and
//! otherwise tracks the good machine — matching the packed PPSFP
//! engines' sparse-difference representation bit-for-bit, including
//! designs whose reset nets are driven by internal logic.

use occ_fault::{Fault, FaultModel, FaultSite, Polarity};
use occ_fsim::{CaptureModel, FrameSpec, OpCode, Pattern, SimGraph, NO_RESET};
use occ_netlist::{CellId, CellKind, Logic};

/// Scalar dual-machine simulation state for one pattern and one fault.
#[derive(Debug)]
pub struct DualSim<'m, 'a> {
    model: &'m CaptureModel<'a>,
    /// Good node values per frame (frame k at index k-1).
    pub good: Vec<Vec<Logic>>,
    /// Faulty node values per frame.
    pub faulty: Vec<Vec<Logic>>,
    /// Good flop states (index 0 = load).
    pub good_state: Vec<Vec<Logic>>,
    /// Faulty flop states.
    pub faulty_state: Vec<Vec<Logic>>,
}

impl<'m, 'a> DualSim<'m, 'a> {
    /// Creates an empty simulator for the model.
    pub fn new(model: &'m CaptureModel<'a>) -> Self {
        DualSim {
            model,
            good: Vec::new(),
            faulty: Vec::new(),
            good_state: Vec::new(),
            faulty_state: Vec::new(),
        }
    }

    /// The bound capture model.
    pub fn model(&self) -> &'m CaptureModel<'a> {
        self.model
    }

    /// Runs both machines for `pattern` under `spec` with `fault`
    /// injected in its active frames.
    pub fn simulate(&mut self, spec: &FrameSpec, pattern: &Pattern, fault: Fault) {
        let frames = spec.frames();
        self.good.clear();
        self.faulty.clear();
        self.good_state.clear();
        self.faulty_state.clear();

        let n_flops = self.model.flops().len();
        let mut gs0 = vec![Logic::X; n_flops];
        for (si, &fi) in self.model.scan_flops().iter().enumerate() {
            gs0[fi as usize] = pattern.scan_load[si];
        }
        self.good_state.push(gs0.clone());
        self.faulty_state.push(gs0);

        for k in 1..=frames {
            let active = match fault.model() {
                FaultModel::StuckAt => true,
                FaultModel::Transition => k == frames,
            };
            let gvals = self.eval_frame(spec, pattern, k, &self.good_state[k - 1], None);
            let fvals = self.eval_frame(
                spec,
                pattern,
                k,
                &self.faulty_state[k - 1],
                active.then_some(fault),
            );
            let gnext = self.next_state_good(spec, k, &gvals, &self.good_state[k - 1]);
            let fnext = self.next_state_faulty(
                spec,
                k,
                &fvals,
                &gvals,
                &self.faulty_state[k - 1],
                &self.good_state[k - 1],
                &gnext,
            );
            self.good.push(gvals);
            self.faulty.push(fvals);
            self.good_state.push(gnext);
            self.faulty_state.push(fnext);
        }
    }

    fn eval_frame(
        &self,
        spec: &FrameSpec,
        pattern: &Pattern,
        frame: usize,
        state: &[Logic],
        fault: Option<Fault>,
    ) -> Vec<Logic> {
        let nl = self.model.netlist();
        let mut vals = vec![Logic::X; nl.len()];
        for (id, cell) in nl.iter() {
            match cell.kind() {
                CellKind::Tie0 => vals[id.index()] = Logic::Zero,
                CellKind::Tie1 => vals[id.index()] = Logic::One,
                _ => {}
            }
        }
        for &(c, v) in self.model.forced() {
            vals[c.index()] = v;
        }
        for &c in self.model.masked() {
            vals[c.index()] = Logic::X;
        }
        let _ = spec;
        for (i, &pi) in self.model.free_pis().iter().enumerate() {
            vals[pi.index()] = pattern.pis_for_frame(frame)[i];
        }
        for (fi, info) in self.model.flops().iter().enumerate() {
            vals[info.cell.index()] = state[fi];
        }
        if let Some(f) = fault {
            if let FaultSite::Output(c) = f.site() {
                vals[c.index()] = polarity_logic(f.polarity());
            }
        }
        for &id in nl.levelization().order() {
            if let Some(f) = fault {
                if f.site() == FaultSite::Output(id) {
                    vals[id.index()] = polarity_logic(f.polarity());
                    continue;
                }
            }
            let cell = nl.cell(id);
            let mut ins: Vec<Logic> = cell.inputs().iter().map(|&s| vals[s.index()]).collect();
            if let Some(f) = fault {
                if let FaultSite::Input { cell: fc, pin } = f.site() {
                    if fc == id {
                        ins[pin as usize] = polarity_logic(f.polarity());
                    }
                }
            }
            vals[id.index()] = cell.kind().eval_comb(&ins).unwrap_or(Logic::X);
        }
        vals
    }

    /// Samples one pulsed flop from `vals` and applies its
    /// asynchronous-reset handling (also from `vals`).
    fn sample_and_reset(&self, cell_id: CellId, vals: &[Logic]) -> Logic {
        let nl = self.model.netlist();
        let cell = nl.cell(cell_id);
        let mut next = match cell.kind() {
            CellKind::Sdff | CellKind::SdffRl => {
                let d = vals[cell.inputs()[0].index()];
                let se = vals[cell.inputs()[2].index()];
                let si = vals[cell.inputs()[3].index()];
                Logic::mux2(se, d, si)
            }
            _ => vals[cell.inputs()[0].index()].drive(),
        };
        if let Some(rpin) = cell.reset() {
            let r = vals[rpin.index()].drive();
            let act = match cell.kind() {
                CellKind::DffRh => r == Logic::One,
                _ => r == Logic::Zero,
            };
            if act {
                next = Logic::Zero;
            } else if !r.is_definite() && next != Logic::Zero {
                next = Logic::X;
            }
        }
        next
    }

    /// The good machine's next state after 1-based `frame`: pulsed
    /// flops sample (then apply reset handling), and asynchronous
    /// resets additionally act on *every* flop every frame — a reset
    /// pin is asynchronous, so it does not wait for a pulse. This is
    /// `simulate_good`'s rule in the workspace reset contract
    /// (`occ_fsim::FaultSim::capture_flop`, "reset semantics").
    fn next_state_good(
        &self,
        spec: &FrameSpec,
        frame: usize,
        vals: &[Logic],
        prev: &[Logic],
    ) -> Vec<Logic> {
        let nl = self.model.netlist();
        let cycle = &spec.cycles()[frame - 1];
        let mut next = prev.to_vec();
        for (fi, info) in self.model.flops().iter().enumerate() {
            if cycle.pulses_domain(info.domain) {
                next[fi] = self.sample_and_reset(info.cell, vals);
                continue;
            }
            if let Some(rpin) = nl.cell(info.cell).reset() {
                let r = vals[rpin.index()].drive();
                let act = match nl.cell(info.cell).kind() {
                    CellKind::DffRh => r == Logic::One,
                    _ => r == Logic::Zero,
                };
                if act {
                    next[fi] = Logic::Zero;
                } else if !r.is_definite() && next[fi] != Logic::Zero {
                    next[fi] = Logic::X;
                }
            }
        }
        next
    }

    /// The faulty machine's next state after 1-based `frame`,
    /// mirroring the packed PPSFP engines' sparse-difference rule
    /// (the workspace reset contract,
    /// `occ_fsim::FaultSim::capture_flop`): a pulsed flop samples and
    /// applies reset handling from the faulty values; a *non-pulsed*
    /// flop carries its entering state **iff the fault involves it**
    /// (its entering state differs from the good machine, or some
    /// input-pin driver settled to a different faulty value this
    /// frame) — a faulty reset net active in a non-pulsed frame is
    /// not propagated into the flop. A non-pulsed flop the fault does
    /// not involve tracks the good machine exactly (including the
    /// good machine's own asynchronous-reset action).
    #[allow(clippy::too_many_arguments)]
    fn next_state_faulty(
        &self,
        spec: &FrameSpec,
        frame: usize,
        fvals: &[Logic],
        gvals: &[Logic],
        fprev: &[Logic],
        gprev: &[Logic],
        gnext: &[Logic],
    ) -> Vec<Logic> {
        let nl = self.model.netlist();
        let cycle = &spec.cycles()[frame - 1];
        let mut next = fprev.to_vec();
        for (fi, info) in self.model.flops().iter().enumerate() {
            if cycle.pulses_domain(info.domain) {
                next[fi] = self.sample_and_reset(info.cell, fvals);
                continue;
            }
            let involved = fprev[fi] != gprev[fi]
                || nl
                    .cell(info.cell)
                    .inputs()
                    .iter()
                    .any(|&s| fvals[s.index()] != gvals[s.index()]);
            next[fi] = if involved { fprev[fi] } else { gnext[fi] };
        }
        next
    }

    /// The node carrying the site value (driver for input-pin faults).
    pub fn site_node(&self, site: FaultSite) -> CellId {
        match site {
            FaultSite::Output(c) => c,
            FaultSite::Input { cell, pin } => {
                self.model.netlist().cell(cell).inputs()[pin as usize]
            }
        }
    }

    /// Whether the current pattern detects the fault (same criterion as
    /// the packed fault simulator: launch condition for transition
    /// faults, definite difference at an observed point).
    pub fn detected(&self, spec: &FrameSpec, fault: Fault) -> bool {
        let frames = spec.frames();
        if fault.model() == FaultModel::Transition {
            if frames < 2 {
                return false;
            }
            let node = self.site_node(fault.site());
            let before = self.good[frames - 2][node.index()];
            let after = self.good[frames - 1][node.index()];
            let ok = match fault.polarity() {
                Polarity::P0 => before == Logic::Zero && after == Logic::One,
                Polarity::P1 => before == Logic::One && after == Logic::Zero,
            };
            if !ok {
                return false;
            }
        }
        for &k in spec.po_observe_frames() {
            for &po in self.model.primary_outputs() {
                let g = self.good[k - 1][po.index()];
                let f = self.faulty[k - 1][po.index()];
                if g.is_definite() && f.is_definite() && g != f {
                    return true;
                }
            }
        }
        for &fi in self.model.scan_flops() {
            let g = self.good_state[frames][fi as usize];
            let mut f = self.faulty_state[frames][fi as usize];
            if fault.model() == FaultModel::StuckAt {
                if let FaultSite::Output(c) = fault.site() {
                    if c == self.model.flops()[fi as usize].cell {
                        f = polarity_logic(fault.polarity());
                    }
                }
            }
            if g.is_definite() && f.is_definite() && g != f {
                return true;
            }
        }
        false
    }
}

pub(crate) fn polarity_logic(p: Polarity) -> Logic {
    match p {
        Polarity::P0 => Logic::Zero,
        Polarity::P1 => Logic::One,
    }
}

/// Which of the two machines an internal pass operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Machine {
    Good,
    Faulty,
}

/// The good-machine arrays of one full simulation of the **all-X**
/// pattern under one procedure spec.
///
/// PODEM opens every run with `Pattern::empty` (all scan bits and PIs
/// at `X`), so the good machine's opening full simulation depends on
/// the spec alone — when ATPG targets thousands of faults under the
/// same handful of procedures, every run after the first can *seed*
/// its arrays from this snapshot (good and faulty both start as the
/// good baseline) and inject only the fault incrementally, instead of
/// re-evaluating every cell of every frame from scratch.
#[derive(Debug)]
struct SpecBaseline {
    /// The spec the arrays reflect (compared by [`FrameSpec`]
    /// equality).
    spec: FrameSpec,
    /// Good frame values, `frames * cells`.
    good: Vec<Logic>,
    /// Good flop states, `(frames + 1) * flops`.
    good_state: Vec<Logic>,
}

/// True for opcodes the levelized propagation re-evaluates — the cells
/// an input-pin fault can be seeded into. Sources, ties and state
/// cells never sit in the worklist buckets.
#[inline]
fn is_comb_op(op: OpCode) -> bool {
    matches!(
        op,
        OpCode::Buf
            | OpCode::Not
            | OpCode::And
            | OpCode::Nand
            | OpCode::Or
            | OpCode::Nor
            | OpCode::Xor
            | OpCode::Xnor
            | OpCode::Mux2
    )
}

/// True when every scan bit and every PI of the pattern is `X` —
/// exactly the shape `Pattern::empty` produces.
fn pattern_is_all_x(pattern: &Pattern) -> bool {
    pattern.scan_load.iter().all(|&v| v == Logic::X)
        && pattern
            .pis
            .iter()
            .all(|frame| frame.iter().all(|&v| v == Logic::X))
}

/// Compiled dual-machine value engine for PODEM, riding the
/// [`SimGraph`] of the bound model.
///
/// The engine keeps both machines' node values for every frame in flat
/// reusable arrays (`frame * cell` and `frame * flop` indexed — no
/// per-call `Vec<Vec<Logic>>`). A run starts with one full simulation
/// ([`DualGraphSim::begin`]); afterwards each PODEM decision notes the
/// changed variable ([`DualGraphSim::note_scan`] /
/// [`DualGraphSim::note_pi`]) and [`DualGraphSim::resimulate`] updates
/// only the affected cone: changed sources are seeded into levelized
/// worklist buckets, cells re-evaluate in level order, fanouts are
/// notified only when a value actually moved, and flop captures
/// recompute only for flops whose sample cone or entering state
/// changed — carrying the dirt frame to frame.
///
/// Values are bit-identical to [`DualSim`] for the same (spec,
/// pattern, fault): every cell is a pure function of its fanins, so
/// re-evaluating exactly the changed cone reproduces the full
/// re-evaluation. The equivalence sweep in `tests/atpg_equivalence.rs`
/// checks this transitively through whole ATPG runs.
///
/// Reset semantics follow [`DualSim`] and the packed engines (the
/// good machine resets every frame; a non-pulsed faulty flop carries
/// iff fault-involved, else tracks the good machine); see
/// `occ_fsim::FaultSim::capture_flop` for the contract shared by all
/// engines. Because the faulty capture reads *good*-machine values,
/// the good pass always runs to completion before the faulty pass and
/// records which flops it re-captured per frame; the faulty capture
/// then recomputes its own touched set merged with that record — the
/// union covers every capture input that can have changed, keeping
/// both passes fully incremental.
#[derive(Debug)]
pub struct DualGraphSim<'m, 'a> {
    model: &'m CaptureModel<'a>,
    graph: &'m SimGraph,
    /// Constant tie values, precomputed as scalars.
    ties: Vec<(u32, Logic)>,
    /// Bound frame count (0 until the first [`DualGraphSim::begin`]).
    frames: usize,
    /// Frame values, `(k-1) * cells + cell` (k 1-based).
    good: Vec<Logic>,
    faulty: Vec<Logic>,
    /// Flop states, `k * flops + fi` (k 0-based; 0 is the load state).
    good_state: Vec<Logic>,
    faulty_state: Vec<Logic>,
    /// The fault the arrays currently reflect.
    cur_fault: Option<Fault>,
    // Event-driven re-evaluation scratch (shared by both machines,
    // used one frame at a time).
    buckets: Vec<Vec<u32>>,
    enq: Vec<u32>,
    flop_stamp: Vec<u32>,
    gen: u32,
    touched: Vec<u32>,
    // Decision-variable changes noted since the last (re)simulation.
    dirty_scan: Vec<u32>,
    dirty_pi: Vec<(u32, u32)>,
    // `(frame - 1, cell)` pairs whose value moved (either machine)
    // during the most recent `resimulate` — the feed for the search
    // engine's D-frontier candidate maintenance.
    changed: Vec<(u32, u32)>,
    // Entering-state dirt, double-buffered across frames.
    sdirty: Vec<u32>,
    sdirty_next: Vec<u32>,
    // Flops the good pass re-captured, per frame (index k-1). The
    // faulty capture reads good values/states, so its incremental
    // sweep is its own touched set merged with this one.
    good_flop_touched: Vec<Vec<u32>>,
    // Per-spec snapshots of the all-X good machine; `begin` seeds from
    // a matching snapshot instead of running a full simulation.
    baselines: Vec<SpecBaseline>,
    // Work counters.
    events: u64,
    incremental_resims: u64,
    full_resims: u64,
    seeded_sims: u64,
}

impl<'m, 'a> DualGraphSim<'m, 'a> {
    /// Creates an engine bound to the model's compiled graph. Scratch
    /// arrays are sized lazily on the first [`DualGraphSim::begin`].
    pub fn new(model: &'m CaptureModel<'a>) -> Self {
        let graph = model.graph();
        let ties: Vec<(u32, Logic)> = model
            .netlist()
            .iter()
            .filter_map(|(id, cell)| match cell.kind() {
                CellKind::Tie0 => Some((id.index() as u32, Logic::Zero)),
                CellKind::Tie1 => Some((id.index() as u32, Logic::One)),
                _ => None,
            })
            .collect();
        DualGraphSim {
            model,
            graph,
            ties,
            frames: 0,
            good: Vec::new(),
            faulty: Vec::new(),
            good_state: Vec::new(),
            faulty_state: Vec::new(),
            cur_fault: None,
            buckets: vec![Vec::new(); graph.bucket_count()],
            enq: vec![0; graph.cells()],
            flop_stamp: vec![0; graph.flop_count()],
            gen: 0,
            touched: Vec::new(),
            dirty_scan: Vec::new(),
            dirty_pi: Vec::new(),
            changed: Vec::new(),
            sdirty: Vec::new(),
            sdirty_next: Vec::new(),
            good_flop_touched: Vec::new(),
            baselines: Vec::new(),
            events: 0,
            incremental_resims: 0,
            full_resims: 0,
            seeded_sims: 0,
        }
    }

    /// The bound capture model.
    pub fn model(&self) -> &'m CaptureModel<'a> {
        self.model
    }

    /// Cell evaluations plus flop-capture computations performed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Incremental (changed-cone) re-simulations performed.
    pub fn incremental_resims(&self) -> u64 {
        self.incremental_resims
    }

    /// Full from-scratch simulations performed (one per PODEM run).
    pub fn full_resims(&self) -> u64 {
        self.full_resims
    }

    /// PODEM runs whose opening simulation was seeded from the
    /// per-spec all-X baseline instead of evaluated from scratch.
    pub fn seeded_sims(&self) -> u64 {
        self.seeded_sims
    }

    /// Good value of `cell` in 1-based `frame`.
    #[inline]
    pub fn good(&self, frame: usize, cell: CellId) -> Logic {
        self.good[(frame - 1) * self.graph.cells() + cell.index()]
    }

    /// Faulty value of `cell` in 1-based `frame`.
    #[inline]
    pub fn faulty(&self, frame: usize, cell: CellId) -> Logic {
        self.faulty[(frame - 1) * self.graph.cells() + cell.index()]
    }

    /// Good state of flop `fi` after cycle `k` (`k = 0` is the load).
    #[inline]
    pub fn good_state(&self, k: usize, fi: usize) -> Logic {
        self.good_state[k * self.graph.flop_count() + fi]
    }

    /// Faulty state of flop `fi` after cycle `k`.
    #[inline]
    pub fn faulty_state(&self, k: usize, fi: usize) -> Logic {
        self.faulty_state[k * self.graph.flop_count() + fi]
    }

    /// The node carrying the site value (driver for input-pin faults).
    pub fn site_node(&self, site: FaultSite) -> CellId {
        match site {
            FaultSite::Output(c) => c,
            FaultSite::Input { cell, pin } => {
                self.model.netlist().cell(cell).inputs()[pin as usize]
            }
        }
    }

    /// Starts a PODEM run: full dual simulation of `pattern` with
    /// `fault` injected in its active frames. Subsequent
    /// [`DualGraphSim::resimulate`] calls update incrementally.
    pub fn begin(&mut self, spec: &FrameSpec, pattern: &Pattern, fault: Fault) {
        self.bind(spec);
        self.cur_fault = Some(fault);
        self.dirty_scan.clear();
        self.dirty_pi.clear();

        let frames = spec.frames();
        let n = self.graph.cells();
        let nf = self.graph.flop_count();
        let all_x = pattern_is_all_x(pattern);

        // PODEM always opens with the all-X pattern, whose good
        // machine depends on the spec alone: seed both machines from
        // the cached baseline and inject only the fault incrementally.
        if all_x {
            let DualGraphSim {
                baselines,
                good,
                faulty,
                good_state,
                faulty_state,
                ..
            } = self;
            if let Some(b) = baselines.iter().find(|b| &b.spec == spec) {
                good[..frames * n].copy_from_slice(&b.good);
                faulty[..frames * n].copy_from_slice(&b.good);
                good_state[..(frames + 1) * nf].copy_from_slice(&b.good_state);
                faulty_state[..(frames + 1) * nf].copy_from_slice(&b.good_state);
                self.seeded_sims += 1;
                self.inject_fault_incremental(spec, fault);
                return;
            }
        }

        self.full_resims += 1;
        self.good[..frames * n].fill(Logic::X);
        self.faulty[..frames * n].fill(Logic::X);
        self.good_state[..(frames + 1) * nf].fill(Logic::X);
        self.faulty_state[..(frames + 1) * nf].fill(Logic::X);

        for (si, &fi) in self.model.scan_flops().iter().enumerate() {
            let v = pattern.scan_load[si];
            self.good_state[fi as usize] = v;
            self.faulty_state[fi as usize] = v;
        }

        for k in 1..=frames {
            let active = fault_active(fault, k, frames);
            self.eval_frame_full(Machine::Good, pattern, k, None);
            self.eval_frame_full(Machine::Faulty, pattern, k, active.then_some(fault));
            // Good next-state first: the faulty capture reads it.
            self.next_state_full_good(spec, k);
            self.next_state_full_faulty(spec, k);
        }

        if all_x {
            self.baselines.push(SpecBaseline {
                spec: spec.clone(),
                good: self.good[..frames * n].to_vec(),
                good_state: self.good_state[..(frames + 1) * nf].to_vec(),
            });
        }
    }

    /// Faulty-machine-only incremental pass over all frames, used when
    /// [`DualGraphSim::begin`] seeded both machines from a
    /// [`SpecBaseline`]: the good arrays are already exact, so only the
    /// fault's difference cone needs evaluation. Mirrors the faulty
    /// half of [`DualGraphSim::machine_pass`] with the fault site (and,
    /// for input-pin faults, the faulted cell) as the only seeds.
    ///
    /// `good_flop_touched` is left stale on purpose: `resimulate`
    /// always runs its good pass (which rewrites the per-frame records)
    /// before the faulty pass reads them, and nothing else consumes
    /// them. The change log is likewise untouched — the search engine
    /// rebuilds its candidate set from scratch after `begin`.
    fn inject_fault_incremental(&mut self, spec: &FrameSpec, fault: Fault) {
        let DualGraphSim {
            graph,
            frames,
            good,
            faulty,
            good_state,
            faulty_state,
            buckets,
            enq,
            flop_stamp,
            gen,
            touched,
            sdirty,
            sdirty_next,
            events,
            ..
        } = self;
        let graph: &SimGraph = graph;
        let frames = *frames;
        let n = graph.cells();
        let nf = graph.flop_count();

        sdirty.clear();
        for k in 1..=frames {
            *gen = gen.wrapping_add(1);
            if *gen == 0 {
                enq.fill(0);
                flop_stamp.fill(0);
                *gen = 1;
            }
            touched.clear();
            let active = fault_active(fault, k, frames);
            let (out_site, in_site, forced) = decode_fault(active.then_some(fault));
            {
                let vals = &mut faulty[(k - 1) * n..k * n];

                // Seed 1: flops whose entering faulty state diverged in
                // an earlier frame.
                for &fi in sdirty.iter() {
                    let fi = fi as usize;
                    if flop_stamp[fi] != *gen {
                        flop_stamp[fi] = *gen;
                        touched.push(fi as u32);
                    }
                    let ci = graph.flop_meta(fi).cell as usize;
                    if out_site == Some(ci) {
                        continue;
                    }
                    let v = faulty_state[(k - 1) * nf + fi];
                    if vals[ci] != v {
                        vals[ci] = v;
                        push_fanouts(graph, ci, *gen, enq, buckets, flop_stamp, touched);
                    }
                }

                // Seed 2: the fault site itself.
                if let Some(ci) = out_site {
                    if vals[ci] != forced {
                        vals[ci] = forced;
                        push_fanouts(graph, ci, *gen, enq, buckets, flop_stamp, touched);
                    }
                }
                if let Some((ci, _)) = in_site {
                    // Only combinational cells may enter the worklist;
                    // a faulted pin on a source/state cell cannot
                    // change that cell's own value anyway.
                    if is_comb_op(graph.op(ci)) && enq[ci] != *gen {
                        enq[ci] = *gen;
                        buckets[graph.level_of(ci) as usize].push(ci as u32);
                    }
                }

                // Propagate level by level; only moved values notify.
                for lvl in 0..buckets.len() {
                    while let Some(raw) = buckets[lvl].pop() {
                        let ci = raw as usize;
                        if out_site == Some(ci) {
                            continue;
                        }
                        let pin_fault = match in_site {
                            Some((cell, pin)) if cell == ci => Some((pin, forced)),
                            _ => None,
                        };
                        *events += 1;
                        let v = eval_logic(graph, ci, vals, pin_fault);
                        if v != vals[ci] {
                            vals[ci] = v;
                            push_fanouts(graph, ci, *gen, enq, buckets, flop_stamp, touched);
                        }
                    }
                }
            }

            // Capture recompute for touched flops only. An untouched
            // flop's entering state and sample cone equal the good
            // machine's, so its capture equals the good capture — which
            // is exactly the copied value.
            sdirty_next.clear();
            let cycle = &spec.cycles()[k - 1];
            let fvals = &faulty[(k - 1) * n..k * n];
            let gvals = &good[(k - 1) * n..k * n];
            let gprev = &good_state[(k - 1) * nf..k * nf];
            let gnext = &good_state[k * nf..(k + 1) * nf];
            let (fprev_all, fnext_all) = faulty_state.split_at_mut(k * nf);
            let fprev = &fprev_all[(k - 1) * nf..];
            let fnext = &mut fnext_all[..nf];
            for &fi in touched.iter() {
                let fi = fi as usize;
                *events += 1;
                let pulsed = cycle.pulses_domain(graph.flop_meta(fi).domain as usize);
                let v = capture_faulty(
                    graph, fi, pulsed, fvals, gvals, fprev[fi], gprev[fi], gnext[fi],
                );
                if v != fnext[fi] {
                    fnext[fi] = v;
                    sdirty_next.push(fi as u32);
                }
            }
            std::mem::swap(sdirty, sdirty_next);
        }
    }

    /// Notes that scan-load bit `si` changed since the last simulation.
    #[inline]
    pub fn note_scan(&mut self, si: usize) {
        self.dirty_scan.push(si as u32);
    }

    /// Notes that free-PI `pi` of pattern frame `pframe` changed.
    #[inline]
    pub fn note_pi(&mut self, pi: usize, pframe: usize) {
        self.dirty_pi.push((pi as u32, pframe as u32));
    }

    /// Re-simulates after the noted decision-variable changes,
    /// re-evaluating only the affected cones of both machines.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DualGraphSim::begin`].
    pub fn resimulate(&mut self, spec: &FrameSpec, pattern: &Pattern) {
        assert!(self.cur_fault.is_some(), "resimulate before begin");
        self.changed.clear();
        if self.dirty_scan.is_empty() && self.dirty_pi.is_empty() {
            return; // arrays already reflect the pattern
        }
        self.incremental_resims += 1;
        self.machine_pass(Machine::Good, spec, pattern);
        self.machine_pass(Machine::Faulty, spec, pattern);
        self.dirty_scan.clear();
        self.dirty_pi.clear();
    }

    /// Takes the `(frame - 1, cell)` change log of the most recent
    /// [`DualGraphSim::resimulate`] (both machines, duplicates
    /// possible). The caller returns the buffer through
    /// [`DualGraphSim::restore_changed`] so its capacity is reused.
    pub(crate) fn take_changed(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.changed)
    }

    /// Hands a drained change-log buffer back for reuse.
    pub(crate) fn restore_changed(&mut self, mut buf: Vec<(u32, u32)>) {
        buf.clear();
        self.changed = buf;
    }

    /// Sizes the flat arrays for the spec (grow-only).
    fn bind(&mut self, spec: &FrameSpec) {
        let frames = spec.frames();
        self.frames = frames;
        let n = self.graph.cells();
        let nf = self.graph.flop_count();
        if self.good.len() < frames * n {
            self.good.resize(frames * n, Logic::X);
            self.faulty.resize(frames * n, Logic::X);
        }
        if self.good_state.len() < (frames + 1) * nf {
            self.good_state.resize((frames + 1) * nf, Logic::X);
            self.faulty_state.resize((frames + 1) * nf, Logic::X);
        }
        if self.good_flop_touched.len() < frames {
            self.good_flop_touched.resize(frames, Vec::new());
        }
    }

    /// Full evaluation of one machine's frame `k`, mirroring
    /// [`DualSim::simulate`]'s `eval_frame` over the graph.
    fn eval_frame_full(
        &mut self,
        machine: Machine,
        pattern: &Pattern,
        k: usize,
        fault: Option<Fault>,
    ) {
        let graph = self.graph;
        let model = self.model;
        let n = graph.cells();
        let nf = graph.flop_count();
        let (vals_all, state_all) = match machine {
            Machine::Good => (&mut self.good, &self.good_state),
            Machine::Faulty => (&mut self.faulty, &self.faulty_state),
        };
        let vals = &mut vals_all[(k - 1) * n..k * n];
        let state = &state_all[(k - 1) * nf..k * nf];

        for &(c, v) in &self.ties {
            vals[c as usize] = v;
        }
        for &(c, v) in model.forced() {
            vals[c.index()] = v;
        }
        for &c in model.masked() {
            vals[c.index()] = Logic::X;
        }
        let pis = pattern.pis_for_frame(k);
        for (i, &pi) in model.free_pis().iter().enumerate() {
            vals[pi.index()] = pis[i];
        }
        for (fi, &s) in state.iter().enumerate() {
            vals[graph.flop_meta(fi).cell as usize] = s;
        }
        let (out_site, in_site, forced) = decode_fault(fault);
        if let Some(ci) = out_site {
            vals[ci] = forced;
        }
        let mut events = 0u64;
        for &c in graph.comb_order() {
            let ci = c as usize;
            if out_site == Some(ci) {
                vals[ci] = forced;
                continue;
            }
            let pin_fault = match in_site {
                Some((cell, pin)) if cell == ci => Some((pin, forced)),
                _ => None,
            };
            events += 1;
            vals[ci] = eval_logic(graph, ci, vals, pin_fault);
        }
        self.events += events;
    }

    /// Full good-machine next-state computation after frame `k`,
    /// mirroring [`DualSim::simulate`]'s `next_state_good`.
    fn next_state_full_good(&mut self, spec: &FrameSpec, k: usize) {
        let graph = self.graph;
        let n = graph.cells();
        let nf = graph.flop_count();
        let vals = &self.good[(k - 1) * n..k * n];
        let (prev_all, next_all) = self.good_state.split_at_mut(k * nf);
        let prev = &prev_all[(k - 1) * nf..];
        let next = &mut next_all[..nf];
        let cycle = &spec.cycles()[k - 1];
        let mut events = 0u64;
        for fi in 0..nf {
            events += 1;
            let pulsed = cycle.pulses_domain(graph.flop_meta(fi).domain as usize);
            next[fi] = capture_logic(graph, fi, pulsed, vals, prev[fi]);
        }
        self.events += events;
    }

    /// Full faulty-machine next-state computation after frame `k`,
    /// mirroring [`DualSim::simulate`]'s `next_state_faulty`. Must run
    /// after [`DualGraphSim::next_state_full_good`] for the same frame
    /// — the non-pulsed rule reads the good machine's values, entering
    /// state and next state.
    fn next_state_full_faulty(&mut self, spec: &FrameSpec, k: usize) {
        let graph = self.graph;
        let n = graph.cells();
        let nf = graph.flop_count();
        let fvals = &self.faulty[(k - 1) * n..k * n];
        let gvals = &self.good[(k - 1) * n..k * n];
        let gprev = &self.good_state[(k - 1) * nf..k * nf];
        let gnext = &self.good_state[k * nf..(k + 1) * nf];
        let (fprev_all, fnext_all) = self.faulty_state.split_at_mut(k * nf);
        let fprev = &fprev_all[(k - 1) * nf..];
        let fnext = &mut fnext_all[..nf];
        let cycle = &spec.cycles()[k - 1];
        let mut events = 0u64;
        for fi in 0..nf {
            events += 1;
            let pulsed = cycle.pulses_domain(graph.flop_meta(fi).domain as usize);
            fnext[fi] = capture_faulty(
                graph, fi, pulsed, fvals, gvals, fprev[fi], gprev[fi], gnext[fi],
            );
        }
        self.events += events;
    }

    /// One machine's incremental pass over all frames: seed the changed
    /// sources, propagate level by level, recompute touched captures,
    /// carry state dirt forward.
    fn machine_pass(&mut self, machine: Machine, spec: &FrameSpec, pattern: &Pattern) {
        let DualGraphSim {
            model,
            graph,
            frames,
            good,
            faulty,
            good_state,
            faulty_state,
            cur_fault,
            buckets,
            enq,
            flop_stamp,
            gen,
            touched,
            dirty_scan,
            dirty_pi,
            changed,
            sdirty,
            sdirty_next,
            good_flop_touched,
            events,
            ..
        } = self;
        let graph: &SimGraph = graph;
        let frames = *frames;
        let n = graph.cells();
        let nf = graph.flop_count();
        let fault = cur_fault.expect("machine_pass before begin");
        let hold = pattern.pis.len() == 1;

        // Load-state changes seed frame 1's entering-state dirt.
        sdirty.clear();
        {
            let state_all = match machine {
                Machine::Good => &mut good_state[..],
                Machine::Faulty => &mut faulty_state[..],
            };
            for &si in dirty_scan.iter() {
                let fi = model.scan_flops()[si as usize] as usize;
                let v = pattern.scan_load[si as usize];
                if state_all[fi] != v {
                    state_all[fi] = v;
                    sdirty.push(fi as u32);
                }
            }
        }

        for k in 1..=frames {
            *gen = gen.wrapping_add(1);
            if *gen == 0 {
                enq.fill(0);
                flop_stamp.fill(0);
                *gen = 1;
            }
            touched.clear();
            let active = fault_active(fault, k, frames);
            let (out_site, in_site, forced) = decode_fault(match machine {
                Machine::Good => None,
                Machine::Faulty => active.then_some(fault),
            });
            {
                let (vals_all, state_all) = match machine {
                    Machine::Good => (&mut good[..], &good_state[..]),
                    Machine::Faulty => (&mut faulty[..], &faulty_state[..]),
                };
                let vals = &mut vals_all[(k - 1) * n..k * n];

                // Seed 1: changed PIs applying to this frame.
                for &(pi, pf) in dirty_pi.iter() {
                    if !hold && pf as usize != k - 1 {
                        continue;
                    }
                    let ci = model.free_pis()[pi as usize].index();
                    if out_site == Some(ci) {
                        continue; // forced site never changes
                    }
                    let v = pattern.pis_for_frame(k)[pi as usize];
                    if vals[ci] != v {
                        vals[ci] = v;
                        changed.push(((k - 1) as u32, ci as u32));
                        push_fanouts(graph, ci, *gen, enq, buckets, flop_stamp, touched);
                    }
                }

                // Seed 2: flops whose entering state changed — their
                // node value moves, and their capture must recompute
                // even when holding.
                for &fi in sdirty.iter() {
                    let fi = fi as usize;
                    if flop_stamp[fi] != *gen {
                        flop_stamp[fi] = *gen;
                        touched.push(fi as u32);
                    }
                    let ci = graph.flop_meta(fi).cell as usize;
                    if out_site == Some(ci) {
                        continue;
                    }
                    let v = state_all[(k - 1) * nf + fi];
                    if vals[ci] != v {
                        vals[ci] = v;
                        changed.push(((k - 1) as u32, ci as u32));
                        push_fanouts(graph, ci, *gen, enq, buckets, flop_stamp, touched);
                    }
                }

                // Propagate level by level; only moved values notify.
                for lvl in 0..buckets.len() {
                    while let Some(raw) = buckets[lvl].pop() {
                        let ci = raw as usize;
                        if out_site == Some(ci) {
                            continue;
                        }
                        let pin_fault = match in_site {
                            Some((cell, pin)) if cell == ci => Some((pin, forced)),
                            _ => None,
                        };
                        *events += 1;
                        let v = eval_logic(graph, ci, vals, pin_fault);
                        if v != vals[ci] {
                            vals[ci] = v;
                            changed.push(((k - 1) as u32, ci as u32));
                            push_fanouts(graph, ci, *gen, enq, buckets, flop_stamp, touched);
                        }
                    }
                }
            }

            // Capture phase; changed next states carry the dirt into
            // frame k+1. The good machine recomputes only the touched
            // captures (and records them); the faulty machine's
            // non-pulsed rule reads the good machine's values, entering
            // state and next state, so it recomputes its own touched
            // set merged with the flops the good pass re-captured this
            // frame — the union covers every input of `capture_faulty`
            // that can have changed.
            sdirty_next.clear();
            let cycle = &spec.cycles()[k - 1];
            match machine {
                Machine::Good => {
                    let vals = &good[(k - 1) * n..k * n];
                    let (prev_all, next_all) = good_state.split_at_mut(k * nf);
                    let prev = &prev_all[(k - 1) * nf..];
                    let next = &mut next_all[..nf];
                    for &fi in touched.iter() {
                        let fi = fi as usize;
                        *events += 1;
                        let pulsed = cycle.pulses_domain(graph.flop_meta(fi).domain as usize);
                        let v = capture_logic(graph, fi, pulsed, vals, prev[fi]);
                        if v != next[fi] {
                            next[fi] = v;
                            sdirty_next.push(fi as u32);
                        }
                    }
                    let record = &mut good_flop_touched[k - 1];
                    record.clear();
                    record.extend_from_slice(touched);
                }
                Machine::Faulty => {
                    for &fi in &good_flop_touched[k - 1] {
                        if flop_stamp[fi as usize] != *gen {
                            flop_stamp[fi as usize] = *gen;
                            touched.push(fi);
                        }
                    }
                    let fvals = &faulty[(k - 1) * n..k * n];
                    let gvals = &good[(k - 1) * n..k * n];
                    let gprev = &good_state[(k - 1) * nf..k * nf];
                    let gnext = &good_state[k * nf..(k + 1) * nf];
                    let (fprev_all, fnext_all) = faulty_state.split_at_mut(k * nf);
                    let fprev = &fprev_all[(k - 1) * nf..];
                    let fnext = &mut fnext_all[..nf];
                    for &fi in touched.iter() {
                        let fi = fi as usize;
                        *events += 1;
                        let pulsed = cycle.pulses_domain(graph.flop_meta(fi).domain as usize);
                        let v = capture_faulty(
                            graph, fi, pulsed, fvals, gvals, fprev[fi], gprev[fi], gnext[fi],
                        );
                        if v != fnext[fi] {
                            fnext[fi] = v;
                            sdirty_next.push(fi as u32);
                        }
                    }
                }
            }
            std::mem::swap(sdirty, sdirty_next);
        }
    }

    /// Whether the current pattern detects the fault — same criterion
    /// as [`DualSim::detected`].
    pub fn detected(&self, spec: &FrameSpec, fault: Fault) -> bool {
        let frames = spec.frames();
        if fault.model() == FaultModel::Transition {
            if frames < 2 {
                return false;
            }
            let node = self.site_node(fault.site());
            let before = self.good(frames - 1, node);
            let after = self.good(frames, node);
            let ok = match fault.polarity() {
                Polarity::P0 => before == Logic::Zero && after == Logic::One,
                Polarity::P1 => before == Logic::One && after == Logic::Zero,
            };
            if !ok {
                return false;
            }
        }
        for &k in spec.po_observe_frames() {
            for &po in self.model.primary_outputs() {
                let g = self.good(k, po);
                let f = self.faulty(k, po);
                if g.is_definite() && f.is_definite() && g != f {
                    return true;
                }
            }
        }
        for &fi in self.model.scan_flops() {
            let g = self.good_state(frames, fi as usize);
            let mut f = self.faulty_state(frames, fi as usize);
            if fault.model() == FaultModel::StuckAt {
                if let FaultSite::Output(c) = fault.site() {
                    if c == self.model.flops()[fi as usize].cell {
                        f = polarity_logic(fault.polarity());
                    }
                }
            }
            if g.is_definite() && f.is_definite() && g != f {
                return true;
            }
        }
        false
    }
}

/// Whether the fault is injected in 1-based frame `k` of `frames`.
#[inline]
fn fault_active(fault: Fault, k: usize, frames: usize) -> bool {
    match fault.model() {
        FaultModel::StuckAt => true,
        FaultModel::Transition => k == frames,
    }
}

/// Splits an optional injected fault into (forced output cell, forced
/// input pin, forced value).
#[inline]
fn decode_fault(fault: Option<Fault>) -> (Option<usize>, Option<(usize, u8)>, Logic) {
    match fault {
        None => (None, None, Logic::X),
        Some(f) => {
            let forced = polarity_logic(f.polarity());
            match f.site() {
                FaultSite::Output(c) => (Some(c.index()), None, forced),
                FaultSite::Input { cell, pin } => (None, Some((cell.index(), pin)), forced),
            }
        }
    }
}

/// Scalar evaluation of one combinational cell over the graph —
/// exactly [`CellKind::eval_comb`] per op code, reading fanins from
/// `vals` with an optional forced pin.
#[inline]
fn eval_logic(
    graph: &SimGraph,
    ci: usize,
    vals: &[Logic],
    pin_fault: Option<(u8, Logic)>,
) -> Logic {
    let fanins = graph.fanins(ci);
    let read = |pin: usize| -> Logic {
        match pin_fault {
            Some((p, v)) if p as usize == pin => v,
            _ => vals[fanins[pin] as usize],
        }
    };
    match graph.op(ci) {
        OpCode::Buf => read(0).drive(),
        OpCode::Not => !read(0),
        OpCode::And => Logic::and_all((0..fanins.len()).map(read)),
        OpCode::Nand => !Logic::and_all((0..fanins.len()).map(read)),
        OpCode::Or => Logic::or_all((0..fanins.len()).map(read)),
        OpCode::Nor => !Logic::or_all((0..fanins.len()).map(read)),
        OpCode::Xor => Logic::xor_all((0..fanins.len()).map(read)),
        OpCode::Xnor => !Logic::xor_all((0..fanins.len()).map(read)),
        OpCode::Mux2 => Logic::mux2(read(0), read(1), read(2)),
        // Sources, ties and state never sit in the levelized order.
        _ => Logic::X,
    }
}

/// Scalar capture of one **good-machine** flop — exactly
/// [`DualSim`]'s `next_state_good` for a single flop: sample on
/// pulse, hold otherwise, then asynchronous-reset handling every
/// frame (the good machine's rule in the workspace reset contract,
/// `occ_fsim::FaultSim::capture_flop`).
#[inline]
fn capture_logic(graph: &SimGraph, fi: usize, pulsed: bool, vals: &[Logic], prev: Logic) -> Logic {
    let meta = graph.flop_meta(fi);
    let mut next = prev;
    if pulsed {
        next = if meta.mux_scan {
            Logic::mux2(
                vals[meta.se as usize],
                vals[meta.d as usize],
                vals[meta.si as usize],
            )
        } else {
            vals[meta.d as usize].drive()
        };
    }
    if meta.reset != NO_RESET {
        let r = vals[meta.reset as usize].drive();
        let act = if meta.reset_high {
            r == Logic::One
        } else {
            r == Logic::Zero
        };
        if act {
            next = Logic::Zero;
        } else if !r.is_definite() && next != Logic::Zero {
            next = Logic::X;
        }
    }
    next
}

/// Scalar capture of one **faulty-machine** flop — exactly
/// [`DualSim`]'s `next_state_faulty` for a single flop, mirroring the
/// packed engines' sparse-difference rule (the workspace reset
/// contract, `occ_fsim::FaultSim::capture_flop`): pulsed flops sample
/// and reset from the faulty values; a non-pulsed flop carries its
/// entering state iff the fault involves it (entering-state
/// difference or a differing input-pin driver value), and otherwise
/// tracks the good machine (whose own reset action is in `gnext`).
#[inline]
#[allow(clippy::too_many_arguments)]
fn capture_faulty(
    graph: &SimGraph,
    fi: usize,
    pulsed: bool,
    fvals: &[Logic],
    gvals: &[Logic],
    fprev: Logic,
    gprev: Logic,
    gnext: Logic,
) -> Logic {
    let meta = graph.flop_meta(fi);
    if pulsed {
        return capture_logic(graph, fi, true, fvals, fprev);
    }
    let involved = fprev != gprev
        || graph
            .fanins(meta.cell as usize)
            .iter()
            .any(|&s| fvals[s as usize] != gvals[s as usize]);
    if involved {
        fprev
    } else {
        gnext
    }
}

/// Enqueues the propagation fanouts of `ci`: combinational sinks into
/// the levelized buckets, flop sinks into the touched list.
#[inline]
fn push_fanouts(
    graph: &SimGraph,
    ci: usize,
    gen: u32,
    enq: &mut [u32],
    buckets: &mut [Vec<u32>],
    flop_stamp: &mut [u32],
    touched: &mut Vec<u32>,
) {
    for &e in graph.prop_fanouts(ci) {
        if e & occ_fsim::FLOP_TAG != 0 {
            let fi = (e & !occ_fsim::FLOP_TAG) as usize;
            if flop_stamp[fi] != gen {
                flop_stamp[fi] = gen;
                touched.push(fi as u32);
            }
        } else {
            let f = e as usize;
            if enq[f] != gen {
                enq[f] = gen;
                buckets[graph.level_of(f) as usize].push(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_fsim::{ClockBinding, CycleSpec, FaultSim};

    #[test]
    fn dual_sim_detection_matches_ppsfp() {
        // Small circuit, all faults, fixed patterns: the scalar dual
        // simulator and the packed engine must agree.
        let mut b = occ_netlist::NetlistBuilder::new("t");
        let clk = b.input("clk");
        let se = b.input("se");
        let si = b.input("si");
        let d = b.input("d");
        let f0 = b.sdff(d, clk, se, si);
        let inv = b.not(f0);
        let g = b.and2(inv, d);
        let f1 = b.sdff(g, clk, se, f0);
        b.output("q", f1);
        let nl = b.finish().unwrap();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", clk);
        binding.constrain(se, Logic::Zero);
        binding.mask(si);
        let model = CaptureModel::new(&nl, binding).unwrap();
        let spec = FrameSpec::new("loc", vec![CycleSpec::pulsing(&[0]); 2])
            .hold_pi(true)
            .observe_po(false);
        let uni = occ_fault::FaultUniverse::transition(&nl);

        let mut ds = DualSim::new(&model);
        let mut fsim = FaultSim::new(&model);
        for load0 in [Logic::Zero, Logic::One] {
            for dval in [Logic::Zero, Logic::One] {
                let mut p = Pattern::empty(&model, &spec, 0);
                p.scan_load = vec![load0, Logic::Zero];
                p.pis[0] = vec![dval];
                let good = occ_fsim::simulate_good(&model, &spec, &[p.clone()]);
                for &fault in uni.faults() {
                    ds.simulate(&spec, &p, fault);
                    let scalar = ds.detected(&spec, fault);
                    let packed = fsim.detect(&spec, &good, fault) & 1 == 1;
                    assert_eq!(scalar, packed, "fault {fault} load {load0} d {dval}");
                }
            }
        }
    }
}
