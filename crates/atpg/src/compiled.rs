//! Compiled PODEM: the reference search over a zero-allocation,
//! incrementally re-simulated value engine.
//!
//! [`CompiledPodem`] makes **exactly the same decisions** as
//! [`ReferencePodem`](crate::ReferencePodem) — the objective order,
//! backtrace tie-breaking and X-path pruning are line-for-line
//! translations — but every hot-loop data structure is compiled:
//!
//! * the dual machine is a [`DualGraphSim`] riding the model's
//!   [`SimGraph`](occ_fsim::SimGraph): flat frame arrays instead of
//!   per-call `Vec<Vec<Logic>>`, and event-driven re-evaluation of
//!   only the cone a decision changed;
//! * scan and PI decision variables resolve through flat `Vec`-indexed
//!   lookup tables instead of `HashMap<CellId, usize>`;
//! * the X-path walk and the backtrace memo use generation-stamped
//!   scratch arrays sized once, instead of a fresh `vec![false; ..]` /
//!   `HashSet` per call;
//! * backtrace input ordering replicates the reference's stable
//!   sort-by-controllability with an in-place selection loop (same
//!   order, no sort buffer).
//!
//! The result: after warm-up a PODEM decision allocates nothing
//! (`atpg_bench` gates this with the counting allocator), and the
//! equivalence sweep in `tests/atpg_equivalence.rs` pins outcome
//! identity across clocking modes and fault models.

use crate::dualsim::{polarity_logic, DualGraphSim};
use crate::engine::{AtpgEngine, AtpgKernelStats};
use crate::podem::PodemOutcome;
use crate::scoap::{Controllability, INF};
use crate::Observability;
use occ_fault::{Fault, FaultModel, FaultSite};
use occ_fsim::{CaptureModel, FrameSpec, Pattern};
use occ_netlist::{CellId, CellKind, Logic};

/// Sentinel for the flat variable lookup tables.
const NONE: u32 = u32::MAX;

/// A decision variable (same shape as the reference engine's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Var {
    /// Scan-load bit (index into the model's scan order).
    Scan(usize),
    /// Free-PI bit: `(pi index, pattern frame index)`.
    Pi(usize, usize),
}

/// The compiled PODEM engine bound to a capture model.
pub struct CompiledPodem<'m, 'a> {
    model: &'m CaptureModel<'a>,
    sim: DualGraphSim<'m, 'a>,
    /// Cell index -> scan-order slot (`NONE` for non-scan cells).
    scan_of: Vec<u32>,
    /// Cell index -> free-PI slot (`NONE` otherwise).
    pi_of: Vec<u32>,
    cc: Controllability,
    // Decision stack, reused across runs.
    stack: Vec<(Var, bool, bool)>,
    // X-path scratch: stamped visited over (cell, frame) + worklist.
    visited: Vec<u32>,
    vgen: u32,
    work: Vec<(u32, u32)>,
    // Backtrace memo: stamped failed set over (cell, frame, want).
    failed: Vec<u32>,
    fgen: u32,
    // Frame stride of the stamped tables (the bound spec's frames).
    cur_frames: usize,
    // D-frontier candidate maintenance: the levelized order and each
    // cell's position in it (`NONE` for non-combinational cells), the
    // per-frame candidate sets (as order positions, sorted on demand,
    // pruned to the exact frontier as they are walked) and a stamped
    // membership table over (cell, frame).
    order: Vec<CellId>,
    order_pos: Vec<u32>,
    cand: Vec<Vec<u32>>,
    cand_dirty: Vec<bool>,
    cand_in: Vec<u32>,
    cgen: u32,
    // Work counters, plus the committed work of forked searches.
    decisions: u64,
    backtracks: u64,
    absorbed: AtpgKernelStats,
}

impl<'m, 'a> CompiledPodem<'m, 'a> {
    /// Creates an engine for the model.
    pub fn new(model: &'m CaptureModel<'a>) -> Self {
        let n = model.netlist().len();
        let mut scan_of = vec![NONE; n];
        for (i, c) in model.scan_cells().enumerate() {
            scan_of[c.index()] = i as u32;
        }
        let mut pi_of = vec![NONE; n];
        for (i, &c) in model.free_pis().iter().enumerate() {
            pi_of[c.index()] = i as u32;
        }
        let order: Vec<CellId> = model.netlist().levelization().order().to_vec();
        let mut order_pos = vec![NONE; n];
        for (pos, &id) in order.iter().enumerate() {
            order_pos[id.index()] = pos as u32;
        }
        Self::with_tables(
            model,
            scan_of,
            pi_of,
            Controllability::compute(model),
            order,
            order_pos,
        )
    }

    /// An engine over precomputed lookup tables, with empty scratch.
    fn with_tables(
        model: &'m CaptureModel<'a>,
        scan_of: Vec<u32>,
        pi_of: Vec<u32>,
        cc: Controllability,
        order: Vec<CellId>,
        order_pos: Vec<u32>,
    ) -> Self {
        CompiledPodem {
            sim: DualGraphSim::new(model),
            cc,
            model,
            scan_of,
            pi_of,
            stack: Vec::new(),
            visited: Vec::new(),
            vgen: 0,
            work: Vec::new(),
            failed: Vec::new(),
            fgen: 0,
            cur_frames: 0,
            order,
            order_pos,
            cand: Vec::new(),
            cand_dirty: Vec::new(),
            cand_in: Vec::new(),
            cgen: 0,
            decisions: 0,
            backtracks: 0,
            absorbed: AtpgKernelStats::default(),
        }
    }

    /// Attempts to generate a test for `fault` under `spec`.
    ///
    /// `obs` must be the observability cones of the same `spec`.
    /// Outcomes are identical to
    /// [`ReferencePodem::run`](crate::ReferencePodem::run).
    pub fn run(
        &mut self,
        spec: &FrameSpec,
        obs: &Observability,
        fault: Fault,
        backtrack_limit: usize,
    ) -> PodemOutcome {
        if fault.model() == FaultModel::Transition && spec.frames() < 2 {
            return PodemOutcome::Untestable;
        }
        let n = self.model.netlist().len();
        self.cur_frames = spec.frames();
        let slots = n * spec.frames();
        if self.visited.len() < slots {
            self.visited.resize(slots, 0);
        }
        if self.failed.len() < slots * 2 {
            self.failed.resize(slots * 2, 0);
        }
        if self.cand.len() < spec.frames() {
            self.cand.resize_with(spec.frames(), Vec::new);
            self.cand_dirty.resize(spec.frames(), false);
        }
        if self.cand_in.len() < slots {
            self.cand_in.resize(slots, 0);
        }

        let mut pattern = Pattern::empty(self.model, spec, 0);
        self.sim.begin(spec, &pattern, fault);
        self.seed_candidates(spec, fault);
        self.stack.clear();
        let mut backtracks = 0usize;
        // Hard ceiling on iterations as a safety net.
        let max_iters = 200_000usize;

        for _ in 0..max_iters {
            self.sim.resimulate(spec, &pattern);
            self.drain_changed();
            if self.sim.detected(spec, fault) {
                return PodemOutcome::Test(Box::new(pattern));
            }

            let step = if !self.effect_possible(spec, obs, fault) {
                None
            } else {
                self.find_assignment(spec, obs, fault)
            };

            match step {
                Some((var, val)) => {
                    debug_assert!(
                        !self.stack.iter().any(|&(v, _, _)| v == var),
                        "backtrace returned an assigned variable"
                    );
                    self.decisions += 1;
                    self.assign(&mut pattern, var, Some(val));
                    self.stack.push((var, val, false));
                }
                None => {
                    // Backtrack: flip the deepest unflipped decision.
                    loop {
                        match self.stack.pop() {
                            Some((var, val, false)) => {
                                backtracks += 1;
                                if backtracks > backtrack_limit {
                                    return PodemOutcome::Aborted;
                                }
                                self.backtracks += 1;
                                self.decisions += 1;
                                self.assign(&mut pattern, var, Some(!val));
                                self.stack.push((var, !val, true));
                                break;
                            }
                            Some((var, _, true)) => {
                                self.assign(&mut pattern, var, None);
                            }
                            None => return PodemOutcome::Untestable,
                        }
                    }
                }
            }
        }
        PodemOutcome::Aborted
    }

    fn assign(&mut self, pattern: &mut Pattern, var: Var, val: Option<bool>) {
        let v = val.map_or(Logic::X, Logic::from_bool);
        match var {
            Var::Scan(i) => {
                pattern.scan_load[i] = v;
                self.sim.note_scan(i);
            }
            Var::Pi(i, f) => {
                pattern.pis[f][i] = v;
                self.sim.note_pi(i, f);
            }
        }
    }

    /// Cheap soundness check: can the fault effect still be activated
    /// and observed under the current (partial) assignment?
    fn effect_possible(&mut self, spec: &FrameSpec, obs: &Observability, fault: Fault) -> bool {
        let frames = spec.frames();
        let site = self.sim.site_node(fault.site());
        let v_fault = polarity_logic(fault.polarity());

        // Activation feasibility on good values.
        match fault.model() {
            FaultModel::Transition => {
                let before = self.sim.good(frames - 1, site);
                let after = self.sim.good(frames, site);
                let init = v_fault; // STR: 0 before, 1 after.
                let fin = !v_fault;
                if before.is_definite() && before != init {
                    return false;
                }
                if after.is_definite() && after != fin {
                    return false;
                }
            }
            FaultModel::StuckAt => {
                // Some active frame must allow the opposite value.
                let scan_q_site = self.stuck_scan_q_flop(fault);
                let state_ok = scan_q_site.is_some_and(|fi| {
                    let s = self.sim.good_state(frames, fi);
                    !s.is_definite() || s != v_fault
                });
                let frame_ok = (1..=frames).any(|k| {
                    let g = self.sim.good(k, site);
                    !g.is_definite() || g != v_fault
                });
                if !frame_ok && !state_ok {
                    return false;
                }
            }
        }

        // Observation feasibility: dynamic X-path check (same walk as
        // the reference, over stamped scratch instead of fresh arrays).
        if self.stuck_scan_q_flop(fault).is_some() {
            return true; // observed directly at unload
        }
        self.xpath_to_observation(spec, obs, fault)
    }

    /// Forward reachability from the fault site over "carrier" nodes —
    /// nodes where the faulty value is unknown or differs from the good
    /// value — to an observation point. Identical traversal to the
    /// reference engine; the visited set is a generation-stamped array
    /// reused across calls.
    fn xpath_to_observation(
        &mut self,
        spec: &FrameSpec,
        obs: &Observability,
        fault: Fault,
    ) -> bool {
        let CompiledPodem {
            model,
            sim,
            visited,
            vgen,
            work,
            ..
        } = self;
        let nl = model.netlist();
        let frames = spec.frames();
        *vgen = vgen.wrapping_add(1);
        if *vgen == 0 {
            visited.fill(0);
            *vgen = 1;
        }
        let gen = *vgen;
        let carrier = |id: CellId, k: usize| {
            let g = sim.good(k, id);
            let f = sim.faulty(k, id);
            !g.is_definite() || !f.is_definite() || g != f
        };
        let state_carrier = |fi: usize, k: usize| {
            let g = sim.good_state(k, fi);
            let f = sim.faulty_state(k, fi);
            !g.is_definite() || !f.is_definite() || g != f
        };

        work.clear();
        let active = |k: usize| match fault.model() {
            FaultModel::StuckAt => true,
            FaultModel::Transition => k == frames,
        };
        let seed_cell = fault.site().effect_cell();
        let site = sim.site_node(fault.site());
        for k in 1..=frames {
            if !active(k) {
                continue;
            }
            for &s in &[seed_cell, site] {
                let slot = s.index() * frames + (k - 1);
                if carrier(s, k) && visited[slot] != gen {
                    visited[slot] = gen;
                    work.push((s.index() as u32, k as u32));
                }
            }
        }

        while let Some((ci, kw)) = work.pop() {
            let id = CellId::from_index(ci as usize);
            let k = kw as usize;
            // Observation?
            if spec.po_observe_frames().contains(&k) && nl.cell(id).kind() == CellKind::Output {
                return true;
            }
            let _ = obs;
            for &f in nl.fanouts(id) {
                let kind = nl.cell(f).kind();
                if kind.is_flop() {
                    let Some(fi) = model.flop_index(f) else {
                        continue;
                    };
                    let info = model.flops()[fi];
                    if !spec.cycles()[k - 1].pulses_domain(info.domain) {
                        continue;
                    }
                    if !state_carrier(fi, k) {
                        continue;
                    }
                    // Captured: observable at unload if scan and the
                    // state survives (conservatively: reached at any
                    // frame; survival is handled by continuing the
                    // walk below).
                    if info.is_scan && k == frames {
                        return true;
                    }
                    if k < frames {
                        // The (possibly corrupt) state feeds frame k+1,
                        // and survives further holds.
                        let mut kk = k + 1;
                        loop {
                            let slot = f.index() * frames + (kk - 1);
                            if carrier(f, kk) && visited[slot] != gen {
                                visited[slot] = gen;
                                work.push((f.index() as u32, kk as u32));
                            }
                            // Holding flops keep the corrupt state alive
                            // to later frames.
                            if kk >= frames || spec.cycles()[kk - 1].pulses_domain(info.domain) {
                                break;
                            }
                            kk += 1;
                        }
                        // A scan flop holding its corrupt capture to the
                        // end is observed at unload.
                        if info.is_scan
                            && !(k + 1..=frames)
                                .any(|j| spec.cycles()[j - 1].pulses_domain(info.domain))
                            && state_carrier(fi, frames)
                        {
                            return true;
                        }
                    }
                } else if kind.is_combinational() && carrier(f, k) {
                    let slot = f.index() * frames + (k - 1);
                    if visited[slot] != gen {
                        visited[slot] = gen;
                        work.push((f.index() as u32, k as u32));
                    }
                }
            }
        }
        false
    }

    /// Rebuilds the D-frontier candidate sets after a full simulation:
    /// every cell whose output differs between the machines (in the
    /// broad sense — differing definite values *or* differing
    /// definiteness) is noted together with its propagation fanouts,
    /// plus the input-site cell in its active frames. The sets are a
    /// superset of the frontier — [`CompiledPodem::find_assignment`]
    /// re-applies the exact per-cell filters and drops the cells that
    /// fail them — kept current by [`CompiledPodem::drain_changed`]
    /// after each incremental resim, so decisions no longer walk the
    /// whole levelized order.
    fn seed_candidates(&mut self, spec: &FrameSpec, fault: Fault) {
        let frames = spec.frames();
        self.cgen = self.cgen.wrapping_add(1);
        if self.cgen == 0 {
            self.cand_in.fill(0);
            self.cgen = 1;
        }
        for f in 0..frames {
            self.cand[f].clear();
            self.cand_dirty[f] = false;
        }
        if let FaultSite::Input { cell, .. } = fault.site() {
            let first_active = match fault.model() {
                FaultModel::StuckAt => 1,
                FaultModel::Transition => frames,
            };
            for k in first_active..=frames {
                self.note_candidate(cell.index(), k - 1);
            }
        }
        let n = self.model.netlist().len();
        for k in 1..=frames {
            for ci in 0..n {
                let id = CellId::from_index(ci);
                let g = self.sim.good(k, id);
                let f = self.sim.faulty(k, id);
                let broad_diff = (g.is_definite() && f.is_definite() && g != f)
                    || (g.is_definite() != f.is_definite());
                if broad_diff {
                    self.note_changed(ci, k - 1);
                }
            }
        }
    }

    /// Feeds the value engine's changed-cell log of the last resim into
    /// the candidate sets.
    fn drain_changed(&mut self) {
        let buf = self.sim.take_changed();
        for &(frame0, ci) in &buf {
            self.note_changed(ci as usize, frame0 as usize);
        }
        self.sim.restore_changed(buf);
    }

    /// A cell's value moved (or differs) at `frame0`: the cell itself
    /// and its propagation fanouts become D-frontier candidates there.
    fn note_changed(&mut self, ci: usize, frame0: usize) {
        self.note_candidate(ci, frame0);
        let model = self.model;
        let graph = model.graph();
        for &e in graph.prop_fanouts(ci) {
            if e & occ_fsim::FLOP_TAG == 0 {
                self.note_candidate(e as usize, frame0);
            }
        }
    }

    #[inline]
    fn note_candidate(&mut self, ci: usize, frame0: usize) {
        let pos = self.order_pos[ci];
        if pos == NONE {
            return; // non-combinational cells never sit on the frontier
        }
        let slot = ci * self.cur_frames + frame0;
        if self.cand_in[slot] != self.cgen {
            self.cand_in[slot] = self.cgen;
            self.cand[frame0].push(pos);
            self.cand_dirty[frame0] = true;
        }
    }

    /// For stuck faults on a scan flop's Q net: the flop's model index
    /// (they are observed directly during unload).
    fn stuck_scan_q_flop(&self, fault: Fault) -> Option<usize> {
        if fault.model() != FaultModel::StuckAt {
            return None;
        }
        let FaultSite::Output(c) = fault.site() else {
            return None;
        };
        let fi = self.model.flop_index(c)?;
        self.model.flops()[fi].is_scan.then_some(fi)
    }

    /// Derives objectives in priority order and backtraces each until
    /// one reaches an unassigned decision variable. Same priorities as
    /// the reference engine.
    fn find_assignment(
        &mut self,
        spec: &FrameSpec,
        obs: &Observability,
        fault: Fault,
    ) -> Option<(Var, bool)> {
        let frames = spec.frames();
        let site = self.sim.site_node(fault.site());
        let v_fault = polarity_logic(fault.polarity());

        // 1. Activation objectives: if unjustified, they are mandatory —
        // when they cannot be backtraced the branch is dead.
        match fault.model() {
            FaultModel::Transition => {
                let before = self.sim.good(frames - 1, site);
                if !before.is_definite() {
                    return self.backtrace(spec, site, frames - 1, v_fault == Logic::One);
                }
                let after = self.sim.good(frames, site);
                if !after.is_definite() {
                    return self.backtrace(spec, site, frames, v_fault == Logic::Zero);
                }
            }
            FaultModel::StuckAt => {
                let want = v_fault == Logic::Zero; // opposite of stuck value
                                                   // A stuck Q on a scan flop is observed directly at
                                                   // unload: justify the flop's *final captured state* to
                                                   // the opposite value.
                if let Some(fi) = self.stuck_scan_q_flop(fault) {
                    let s = self.sim.good_state(frames, fi);
                    if !s.is_definite() {
                        if let Some(hit) = self.backtrace_state(spec, site, want) {
                            return Some(hit);
                        }
                    }
                }
                let mut best = None;
                for k in (1..=frames).rev() {
                    let g = self.sim.good(k, site);
                    if !g.is_definite() && obs.observable(k, fault.site().effect_cell()) {
                        if let Some(hit) = self.backtrace(spec, site, k, want) {
                            best = Some(hit);
                            break;
                        }
                    }
                }
                if best.is_some() {
                    return best;
                }
                // If the site is already activated somewhere (including
                // via the unload-observed state), fall through to
                // propagation; otherwise dead end.
                let state_activated = self.stuck_scan_q_flop(fault).is_some_and(|fi| {
                    let s = self.sim.good_state(frames, fi);
                    s.is_definite() && s != v_fault
                });
                let activated = state_activated
                    || (1..=frames).any(|k| {
                        let g = self.sim.good(k, site);
                        g.is_definite() && g != v_fault
                    });
                if !activated {
                    return None;
                }
            }
        }

        // 2. Propagation: every observable D-frontier gate, every X
        // side input, until a backtrace lands on a variable — same
        // enumeration order as the reference (frames ascending, then
        // levelized order), but generated from the maintained candidate
        // sets instead of walking the whole order. The sets are kept
        // *exact* lazily: a candidate failing a filter is dropped in
        // place (order kept) and its stamp cleared. Every filter reads
        // only the cell's own values and its inputs' values, and any
        // move of those lands in the change log, so `drain_changed`
        // re-adds the cell before its verdict can flip — the visited
        // sequence of frontier gates, and with it every decision, is
        // unchanged.
        let nl = self.model.netlist();
        let pin_site_cell = match fault.site() {
            FaultSite::Input { cell, .. } => Some(cell),
            FaultSite::Output(_) => None,
        };
        let active = |k: usize| match fault.model() {
            FaultModel::StuckAt => true,
            FaultModel::Transition => k == frames,
        };
        for k in 1..=frames {
            let f0 = k - 1;
            if self.cand_dirty[f0] {
                self.cand[f0].sort_unstable();
                self.cand_dirty[f0] = false;
            }
            let (mut read, mut write) = (0usize, 0usize);
            while read < self.cand[f0].len() {
                let pos = self.cand[f0][read];
                read += 1;
                let id = self.order[pos as usize];
                if !self.on_frontier(obs, id, k, pin_site_cell == Some(id) && active(k)) {
                    self.cand_in[id.index() * self.cur_frames + f0] = 0;
                    continue;
                }
                self.cand[f0][write] = pos;
                write += 1;
                let kind = nl.cell(id).kind();
                let mut oi = 0usize;
                while let Some((node, want)) = self.side_objective(kind, id, k, oi) {
                    oi += 1;
                    if let Some(hit) = self.backtrace(spec, node, k, want) {
                        // Keep the unvisited tail behind the survivors.
                        let list = &mut self.cand[f0];
                        let len = list.len();
                        list.copy_within(read.., write);
                        list.truncate(len - (read - write));
                        return Some(hit);
                    }
                }
            }
            self.cand[f0].truncate(write);
        }
        None
    }

    /// The reference engine's D-frontier filters for `id` in frame `k`:
    /// an unsettled output (either machine X), observable from that
    /// frame, with a fault effect on some input (or the faulted pin
    /// itself, when `pin_site` says `id` carries an active pin fault).
    fn on_frontier(&self, obs: &Observability, id: CellId, k: usize, pin_site: bool) -> bool {
        let g_out = self.sim.good(k, id);
        let f_out = self.sim.faulty(k, id);
        if g_out.is_definite() && f_out.is_definite() {
            return false; // settled (either propagated or blocked)
        }
        if !obs.observable(k, id) {
            return false;
        }
        pin_site
            || self.model.netlist().cell(id).inputs().iter().any(|&i| {
                let g = self.sim.good(k, i);
                let f = self.sim.faulty(k, i);
                (g.is_definite() && f.is_definite() && g != f)
                    || (g.is_definite() != f.is_definite())
            })
    }

    /// The `oi`-th side-input objective of a D-frontier gate, in
    /// exactly the order the reference engine materializes them.
    fn side_objective(
        &self,
        kind: CellKind,
        id: CellId,
        frame: usize,
        oi: usize,
    ) -> Option<(CellId, bool)> {
        let nl = self.model.netlist();
        let cell = nl.cell(id);
        let is_x = |i: CellId| !self.sim.good(frame, i).is_definite();
        let nth_x = |j: usize| cell.inputs().iter().copied().filter(|&i| is_x(i)).nth(j);
        match kind {
            CellKind::And | CellKind::Nand => nth_x(oi).map(|n| (n, true)),
            CellKind::Or | CellKind::Nor => nth_x(oi).map(|n| (n, false)),
            CellKind::Xor | CellKind::Xnor => {
                // Each X input yields (n, false) then (n, true).
                nth_x(oi / 2).map(|n| (n, oi % 2 == 1))
            }
            CellKind::Mux2 => {
                // Every X pin yields two entries; the select is steered
                // toward a differing leg first.
                let sel = cell.inputs()[0];
                let d1 = cell.inputs()[2];
                let pin = nth_x(oi / 2)?;
                if pin == sel {
                    let g = self.sim.good(frame, d1);
                    let f = self.sim.faulty(frame, d1);
                    let first = g.is_definite() && f.is_definite() && g != f;
                    Some((sel, if oi.is_multiple_of(2) { first } else { !first }))
                } else {
                    Some((pin, oi.is_multiple_of(2)))
                }
            }
            _ => None,
        }
    }

    /// Backtraces a flop's *post-procedure state* (what scan unload
    /// reads) to a decision variable: the sample pin at its last
    /// capture, or the scan-load bit if its domain never pulses.
    fn backtrace_state(&mut self, spec: &FrameSpec, ff: CellId, want: bool) -> Option<(Var, bool)> {
        let nl = self.model.netlist();
        let cell = nl.cell(ff);
        let domain = self
            .model
            .flop_index(ff)
            .map(|fi| self.model.flops()[fi].domain)?;
        let mut k = spec.frames() + 1;
        loop {
            if k == 1 {
                return self.scan_var(ff).map(|si| (Var::Scan(si), want));
            }
            if spec.cycles()[k - 2].pulses_domain(domain) {
                let next = match cell.kind() {
                    CellKind::Sdff | CellKind::SdffRl => {
                        let se = self.sim.good(k - 1, cell.inputs()[2]);
                        if se == Logic::One {
                            cell.inputs()[3]
                        } else {
                            cell.inputs()[0]
                        }
                    }
                    _ => cell.inputs()[0],
                };
                return self.backtrace(spec, next, k - 1, want);
            }
            k -= 1;
        }
    }

    #[inline]
    fn scan_var(&self, cell: CellId) -> Option<usize> {
        let si = self.scan_of[cell.index()];
        (si != NONE).then_some(si as usize)
    }

    /// Walks an objective back to an unassigned decision variable —
    /// identical exploration to the reference engine; the failed-goal
    /// memo is a generation-stamped array instead of a per-call
    /// `HashSet`.
    fn backtrace(
        &mut self,
        spec: &FrameSpec,
        node: CellId,
        frame: usize,
        want: bool,
    ) -> Option<(Var, bool)> {
        self.fgen = self.fgen.wrapping_add(1);
        if self.fgen == 0 {
            self.failed.fill(0);
            self.fgen = 1;
        }
        self.backtrace_rec(spec, node, frame, want, 0)
    }

    #[inline]
    fn failed_slot(&self, node: CellId, frame: usize, want: bool) -> usize {
        (node.index() * self.cur_frames + (frame - 1)) * 2 + want as usize
    }

    fn backtrace_rec(
        &mut self,
        spec: &FrameSpec,
        node: CellId,
        frame: usize,
        want: bool,
        depth: usize,
    ) -> Option<(Var, bool)> {
        let slot = self.failed_slot(node, frame, want);
        if depth > 4_096 || self.failed[slot] == self.fgen {
            return None;
        }
        // Only X-valued nodes can be justified; a definite node means
        // this particular path needs no (or permits no) new assignment.
        if self.sim.good(frame, node).is_definite() {
            return None;
        }
        // Statically uncontrollable goals cannot be backtraced.
        if self.cc.cost(node, want) >= INF {
            return None;
        }
        let nl = self.model.netlist();
        let cell = nl.cell(node);
        let result = (|| {
            // Stop at decision variables.
            if cell.kind() == CellKind::Input {
                let pi = self.pi_of[node.index()];
                if pi != NONE {
                    let pframe = if spec.holds_pi() { 0 } else { frame - 1 };
                    return Some((Var::Pi(pi as usize, pframe), want));
                }
                return None; // constrained/clock input
            }
            if cell.kind().is_flop() {
                // Value in `frame` is the state after cycle frame-1:
                // walk back over hold cycles to the defining capture.
                let mut k = frame;
                loop {
                    if k == 1 {
                        // Load state: scan bits are decision variables.
                        return self.scan_var(node).map(|si| (Var::Scan(si), want));
                    }
                    let domain = self
                        .model
                        .flop_index(node)
                        .map(|fi| self.model.flops()[fi].domain)?;
                    if spec.cycles()[k - 2].pulses_domain(domain) {
                        let next = match cell.kind() {
                            CellKind::Sdff | CellKind::SdffRl => {
                                let se = self.sim.good(k - 1, cell.inputs()[2]);
                                if se == Logic::One {
                                    cell.inputs()[3]
                                } else {
                                    cell.inputs()[0]
                                }
                            }
                            _ => cell.inputs()[0],
                        };
                        return self.backtrace_rec(spec, next, k - 1, want, depth + 1);
                    }
                    k -= 1;
                }
            }
            match cell.kind() {
                CellKind::Buf | CellKind::Output => {
                    self.backtrace_rec(spec, cell.inputs()[0], frame, want, depth + 1)
                }
                CellKind::Not => {
                    self.backtrace_rec(spec, cell.inputs()[0], frame, !want, depth + 1)
                }
                CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => {
                    let inv = matches!(cell.kind(), CellKind::Nand | CellKind::Nor);
                    let and_like = matches!(cell.kind(), CellKind::And | CellKind::Nand);
                    let goal = want ^ inv;
                    // Controlling goal: any single X input suffices —
                    // take the cheapest first. Non-controlling goal:
                    // every X input must eventually be justified —
                    // start with the hardest (fail fast). The selection
                    // loop reproduces the reference's stable sort
                    // (ties in pin order, reversed for descending).
                    let controlling_goal = goal != and_like;
                    let mut prev: Option<(u32, usize)> = None;
                    loop {
                        let mut best: Option<(u32, usize, CellId)> = None;
                        for (pos, &i) in cell.inputs().iter().enumerate() {
                            if self.sim.good(frame, i).is_definite() {
                                continue;
                            }
                            let key = (self.cc.cost(i, goal), pos);
                            let after_prev = match prev {
                                None => true,
                                Some(p) => {
                                    if controlling_goal {
                                        key > p
                                    } else {
                                        key < p
                                    }
                                }
                            };
                            if !after_prev {
                                continue;
                            }
                            let better = match best {
                                None => true,
                                Some((bc, bp, _)) => {
                                    if controlling_goal {
                                        key < (bc, bp)
                                    } else {
                                        key > (bc, bp)
                                    }
                                }
                            };
                            if better {
                                best = Some((key.0, key.1, i));
                            }
                        }
                        let (c, p, i) = best?;
                        prev = Some((c, p));
                        if let Some(hit) = self.backtrace_rec(spec, i, frame, goal, depth + 1) {
                            return Some(hit);
                        }
                    }
                }
                CellKind::Xor | CellKind::Xnor => {
                    let inv = cell.kind() == CellKind::Xnor;
                    let inner = want ^ inv;
                    let mut acc = false;
                    for &i in cell.inputs() {
                        if let Some(b) = self.sim.good(frame, i).to_bool() {
                            acc ^= b;
                        }
                    }
                    // Remaining Xs (other than the chosen one) are
                    // aimed at 0, so the chosen one carries the parity;
                    // candidates in ascending min-cost order.
                    let mut prev: Option<(u32, usize)> = None;
                    loop {
                        let mut best: Option<(u32, usize, CellId)> = None;
                        for (pos, &i) in cell.inputs().iter().enumerate() {
                            if self.sim.good(frame, i).is_definite() {
                                continue;
                            }
                            let key = (self.cc.cost(i, false).min(self.cc.cost(i, true)), pos);
                            if prev.is_some_and(|p| key <= p) {
                                continue;
                            }
                            if best.is_none_or(|(bc, bp, _)| key < (bc, bp)) {
                                best = Some((key.0, key.1, i));
                            }
                        }
                        let (c, p, i) = best?;
                        prev = Some((c, p));
                        if let Some(hit) =
                            self.backtrace_rec(spec, i, frame, inner ^ acc, depth + 1)
                        {
                            return Some(hit);
                        }
                    }
                }
                CellKind::Mux2 => {
                    let sel = cell.inputs()[0];
                    match self.sim.good(frame, sel).to_bool() {
                        Some(true) => {
                            self.backtrace_rec(spec, cell.inputs()[2], frame, want, depth + 1)
                        }
                        Some(false) => {
                            self.backtrace_rec(spec, cell.inputs()[1], frame, want, depth + 1)
                        }
                        None => {
                            // Try steering the select either way
                            // (cheaper side first), then the data legs.
                            let first = self.cc.cost(sel, true) < self.cc.cost(sel, false);
                            for (n, w) in [
                                (sel, first),
                                (sel, !first),
                                (cell.inputs()[1], want),
                                (cell.inputs()[2], want),
                            ] {
                                if let Some(hit) = self.backtrace_rec(spec, n, frame, w, depth + 1)
                                {
                                    return Some(hit);
                                }
                            }
                            None
                        }
                    }
                }
                _ => None, // ties, RAM, latch, clock gate
            }
        })();
        if result.is_none() {
            let slot = self.failed_slot(node, frame, want);
            self.failed[slot] = self.fgen;
        }
        result
    }
}

impl AtpgEngine for CompiledPodem<'_, '_> {
    fn run(
        &mut self,
        spec: &FrameSpec,
        obs: &Observability,
        fault: Fault,
        backtrack_limit: usize,
    ) -> PodemOutcome {
        CompiledPodem::run(self, spec, obs, fault, backtrack_limit)
    }

    fn engine_name(&self) -> &'static str {
        "compiled"
    }

    fn kernel_stats(&self) -> AtpgKernelStats {
        let mut stats = AtpgKernelStats {
            decisions: self.decisions,
            backtracks: self.backtracks,
            events: self.sim.events(),
            incremental_resims: self.sim.incremental_resims(),
            full_resims: self.sim.full_resims(),
            seeded_sims: self.sim.seeded_sims(),
        };
        stats += self.absorbed;
        stats
    }

    /// Forks share the model and copy the static lookup tables; scratch
    /// and the per-spec baselines start empty, so a fork's first search
    /// under each procedure runs a full simulation (the opening
    /// simulation's cost differs, never its values or the decisions).
    fn fork(&self) -> Option<Box<dyn AtpgEngine + Send + '_>> {
        Some(Box::new(CompiledPodem::with_tables(
            self.model,
            self.scan_of.clone(),
            self.pi_of.clone(),
            self.cc.clone(),
            self.order.clone(),
            self.order_pos.clone(),
        )))
    }

    fn absorb_stats(&mut self, stats: AtpgKernelStats) {
        self.absorbed += stats;
    }
}
