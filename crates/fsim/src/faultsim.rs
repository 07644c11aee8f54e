//! PPSFP: parallel-pattern single-fault propagation, as a compiled
//! zero-allocation kernel.
//!
//! For each fault, the good-machine batch is perturbed at the fault site
//! and the difference is propagated event-wise, level by level, through
//! each capture frame; flop-state differences carry across frames.
//! Detection requires a *definite* good/faulty difference at a scan flop
//! captured by the procedure or at an observed primary output — plus,
//! for transition faults, the launch condition (the site must toggle
//! into the faulty polarity between the launch and capture frames).
//!
//! The hot path runs entirely on the [`SimGraph`] compiled into the
//! [`CaptureModel`]: CSR fanout walks, dense op-code evaluation and
//! stamped scratch arrays that are reused across faults, so grading a
//! fault allocates nothing. Faults whose effect cell lies outside the
//! graph's observability cone are rejected in O(1) before any
//! propagation. The pre-kernel engine is retained as
//! [`ReferenceFaultSim`](crate::ReferenceFaultSim); both produce
//! bit-identical detection masks (cross-checked in
//! `tests/kernel_equivalence.rs`).

use crate::cancel::CancelToken;
use crate::goodsim::GoodBatch;
use crate::graph::{FlopMeta, KernelStats, OpCode, SimGraph, FLOP_TAG, NO_RESET};
use crate::pval::PVal;
use crate::timing::{SimTiming, TimePs};
use crate::{CaptureModel, CycleSpec, FrameSpec};
use occ_fault::{Fault, FaultModel, FaultSite, Polarity};
use occ_netlist::CellId;
use std::sync::Arc;

/// Sparse per-flop faulty-state buffer: a stamped value array plus the
/// list of flops holding a difference, cleared in O(1) by bumping the
/// stamp generation.
#[derive(Debug)]
struct StateBuf {
    tag: Vec<u32>,
    gen: u32,
    val: Vec<PVal>,
    list: Vec<u32>,
}

impl StateBuf {
    fn new(n_flops: usize) -> Self {
        StateBuf {
            tag: vec![0; n_flops],
            gen: 0,
            val: vec![PVal::XX; n_flops],
            list: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.tag.fill(0);
            self.gen = 1;
        }
        self.list.clear();
    }

    #[inline]
    fn set(&mut self, fi: usize, v: PVal) {
        if self.tag[fi] != self.gen {
            self.tag[fi] = self.gen;
            self.list.push(fi as u32);
        }
        self.val[fi] = v;
    }

    #[inline]
    fn get(&self, fi: usize) -> Option<PVal> {
        if self.tag[fi] == self.gen {
            Some(self.val[fi])
        } else {
            None
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// Optional timed-detect scratch: attached via
/// [`FaultSim::attach_timing`], it annotates the difference propagation
/// with picosecond arrival times so a detection also reports the
/// longest sensitized path. All arrays are allocated once on attach —
/// the timed detect path stays zero-allocation (gated by
/// `timing_bench`).
#[derive(Debug)]
struct TimedScratch {
    view: Arc<SimTiming>,
    /// Difference arrival per cell (valid where `fstamp == gen`).
    time: Vec<TimePs>,
    /// Capture-path time per flop, parallel to `cur` / `next`.
    state_cur: Vec<TimePs>,
    state_next: Vec<TimePs>,
    /// Longest detecting path of the most recent `detect` call.
    last_path: TimePs,
}

/// Per-fault scan-unload response detail, filled by
/// [`FaultSim::detect_response`]: everything a space/time compactor
/// model (EDT XOR compactor, LBIST MISR) needs to re-grade a detection
/// under *compacted* observation.
///
/// All per-flop vectors are indexed in [`SimGraph::scan_flops`] order —
/// the same order as [`crate::Pattern::scan_load`] slots — and every
/// mask is packed over the batch patterns (bit per pattern), already
/// masked by the launch condition and the batch validity mask.
#[derive(Debug, Clone, Default)]
pub struct ScanResponse {
    /// The full detection mask, identical to what
    /// [`FaultSim::detect`] returns: `po | OR(diff)`.
    pub detect: u64,
    /// Patterns detecting at an observed primary output.
    pub po: u64,
    /// Per scan flop: patterns with a definite good/faulty unload
    /// difference at that flop.
    pub diff: Vec<u64>,
    /// Per scan flop: patterns whose *good-machine* unload value is X
    /// (an X-bounding concern: the signature is unpredictable there).
    pub good_x: Vec<u64>,
    /// Per scan flop: patterns whose *faulty-machine* unload value is
    /// X. Faulty-only X (`faulty_x & !good_x`) means the faulty
    /// response is unpredictable even though the good one is known —
    /// a compactor must treat such patterns as masked, never detected.
    pub faulty_x: Vec<u64>,
}

impl ScanResponse {
    /// An empty response (sized lazily by the first
    /// [`FaultSim::detect_response`] call).
    #[must_use]
    pub fn new() -> Self {
        ScanResponse::default()
    }

    /// Zeroes every mask and (re)sizes the per-flop vectors; reuses
    /// the allocations once warmed up.
    fn reset(&mut self, n_scan: usize) {
        self.detect = 0;
        self.po = 0;
        for v in [&mut self.diff, &mut self.good_x, &mut self.faulty_x] {
            v.clear();
            v.resize(n_scan, 0);
        }
    }
}

/// Reusable PPSFP engine bound to one capture model.
///
/// All scratch state (value/stamp arrays, levelized worklist buckets,
/// flop-state buffers) is allocated once in [`FaultSim::new`] and
/// reused for every fault: the [`FaultSim::detect`] hot path performs
/// no heap allocation.
///
/// # Examples
///
/// ```
/// use occ_netlist::{NetlistBuilder, Logic};
/// use occ_fault::{Fault, FaultSite, Polarity};
/// use occ_fsim::{ClockBinding, CaptureModel, FrameSpec, CycleSpec, Pattern,
///                simulate_good, FaultSim};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("t");
/// let clk = b.input("clk");
/// let d = b.input("d");
/// let se = b.input("se");
/// let si = b.input("si");
/// let ff = b.sdff(d, clk, se, si);
/// b.output("q", ff);
/// let nl = b.finish()?;
/// let mut binding = ClockBinding::new();
/// binding.add_domain("a", clk);
/// binding.constrain(se, Logic::Zero);
/// binding.mask(si);
/// let model = CaptureModel::new(&nl, binding)?;
///
/// let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
/// let mut p = Pattern::empty(&model, &spec, 0);
/// p.pis[0] = vec![Logic::One]; // d = 1
/// let good = simulate_good(&model, &spec, &[p]);
///
/// let mut fsim = FaultSim::new(&model);
/// let f = Fault::stuck(FaultSite::Output(d), Polarity::P0);
/// assert_eq!(fsim.detect(&spec, &good, f), 0b1); // captured into ff
/// assert_eq!(fsim.kernel_stats().faults_graded, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FaultSim<'g> {
    graph: &'g SimGraph,
    // Faulty node values with generation stamps (valid when stamp==gen).
    fval: Vec<PVal>,
    fstamp: Vec<u32>,
    gen: u32,
    // Levelized worklist buckets and enqueue stamps.
    buckets: Vec<Vec<u32>>,
    enq: Vec<u32>,
    // Touched-flop dedup stamps and list (reused across frames).
    flop_stamp: Vec<u32>,
    touched: Vec<u32>,
    // Carried faulty flop state: current frame in, next frame out.
    cur: StateBuf,
    next: StateBuf,
    // PO-observation difference mask of the most recent *full* kernel
    // pass (unmasked; stale after an early return — detect_response
    // replicates the early exits before trusting it or `cur`).
    po_diff: u64,
    // Optional timed-detect annotations (attach_timing).
    timed: Option<Box<TimedScratch>>,
    // Cooperative cancellation, polled at batch-loop boundaries
    // (attach_cancel; the default token never trips).
    cancel: CancelToken,
    // Work counters, accumulated since construction.
    faults_graded: u64,
    cone_pruned: u64,
    events: u64,
    timed_faults: u64,
}

impl<'g> FaultSim<'g> {
    /// Creates an engine with scratch space sized for the model.
    pub fn new(model: &'g CaptureModel<'_>) -> Self {
        Self::from_graph(model.graph())
    }

    /// Creates an engine directly over a compiled graph — everything
    /// the kernel needs lives in the graph, which is how the persistent
    /// [`ParallelFaultSim`](crate::ParallelFaultSim) workers build
    /// their arenas from an `Arc<SimGraph>` they own.
    pub fn from_graph(graph: &'g SimGraph) -> Self {
        let n = graph.cells();
        let n_flops = graph.flop_count();
        FaultSim {
            graph,
            fval: vec![PVal::XX; n],
            fstamp: vec![0; n],
            gen: 0,
            buckets: vec![Vec::new(); graph.bucket_count()],
            enq: vec![0; n],
            flop_stamp: vec![0; n_flops],
            touched: Vec::new(),
            cur: StateBuf::new(n_flops),
            next: StateBuf::new(n_flops),
            po_diff: 0,
            timed: None,
            cancel: CancelToken::never(),
            faults_graded: 0,
            cone_pruned: 0,
            events: 0,
            timed_faults: 0,
        }
    }

    /// Attaches a per-cell timing view: from now on every
    /// [`FaultSim::detect`] call additionally records the longest
    /// sensitized propagation path of the fault difference, readable
    /// through [`FaultSim::last_path_ps`]. Detection masks are
    /// unaffected — the annotations are strictly additive, and an
    /// engine without an attached view behaves exactly as before.
    ///
    /// All timed scratch is allocated here; the per-fault timed path
    /// performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if the view does not cover the compiled graph's cells.
    pub fn attach_timing(&mut self, view: Arc<SimTiming>) {
        assert_eq!(
            view.cells(),
            self.graph.cells(),
            "timing view must cover every graph cell"
        );
        let n = self.graph.cells();
        let nf = self.graph.flop_count();
        self.timed = Some(Box::new(TimedScratch {
            view,
            time: vec![0; n],
            state_cur: vec![0; nf],
            state_next: vec![0; nf],
            last_path: 0,
        }));
    }

    /// Attaches `view` unless it is already the attached view, so an
    /// engine that grades batch after batch under one view keeps its
    /// timed scratch.
    pub(crate) fn keep_timing(&mut self, view: &Arc<SimTiming>) {
        if !self
            .timed
            .as_ref()
            .is_some_and(|t| Arc::ptr_eq(&t.view, view))
        {
            self.attach_timing(Arc::clone(view));
        }
    }

    /// Detaches the timing view (detections stop recording paths).
    pub fn detach_timing(&mut self) {
        self.timed = None;
    }

    /// The longest sensitized propagation path (in ps, from the launch
    /// clock edge to the latest detecting observation point) recorded
    /// by the most recent [`FaultSim::detect`] call. Zero when no
    /// timing view is attached or the fault was not detected.
    ///
    /// The time is an upper bound over the batch: differences are
    /// propagated word-parallel across up to 64 patterns, so the
    /// recorded path is the longest difference path any pattern of the
    /// batch sensitized — exactly the path that defines the smallest
    /// delay defect the batch screens.
    pub fn last_path_ps(&self) -> TimePs {
        self.timed.as_ref().map_or(0, |t| t.last_path)
    }

    /// Kernel statistics: the compiled graph's shape plus the work this
    /// engine has performed since construction.
    pub fn kernel_stats(&self) -> KernelStats {
        let mut s = self.graph.static_stats();
        s.faults_graded = self.faults_graded;
        s.cone_pruned = self.cone_pruned;
        s.events = self.events;
        s.timed_faults = self.timed_faults;
        s
    }

    /// Returns the detection mask (bit per pattern) for one fault.
    pub fn detect(&mut self, spec: &FrameSpec, good: &GoodBatch, fault: Fault) -> u64 {
        // The timed path lives in a separate cold copy of the kernel
        // loop so the untimed hot path compiles exactly as if the
        // instrumentation did not exist. A shared const-generic body
        // was measured first and regressed the untimed kernel ~25% on
        // fsim_bench (the second monomorphization blew the inlining/
        // code-layout budget); the duplicate + `#[cold]` restored the
        // committed baseline, and the two copies are pinned mask-
        // identical over whole fault universes by
        // `timed_and_untimed_masks_agree_over_whole_universes`.
        if self.timed.is_some() {
            self.detect_timed(spec, good, fault)
        } else {
            self.detect_untimed(spec, good, fault)
        }
    }

    /// The launch/validity mask of a fault under this spec — a bit per
    /// pattern where a detection is even possible. Mirrors the kernel's
    /// own computation so [`FaultSim::detect_response`] can recognize
    /// the early-return paths that leave the scratch state stale.
    fn launch_mask(&self, spec: &FrameSpec, good: &GoodBatch, fault: Fault) -> u64 {
        match fault.model() {
            FaultModel::StuckAt => good.valid_mask,
            FaultModel::Transition => {
                let frames = spec.frames();
                if frames < 2 {
                    return 0;
                }
                let site_node = graph_site_node(self.graph, fault.site());
                let before = good.frames[frames - 2][site_node];
                let after = good.frames[frames - 1][site_node];
                let m = match fault.polarity() {
                    Polarity::P0 => before.def0() & after.def1(),
                    Polarity::P1 => before.def1() & after.def0(),
                };
                m & good.valid_mask
            }
        }
    }

    /// Like [`FaultSim::detect`], but additionally fills `resp` with
    /// the per-scan-flop unload response detail a compactor model
    /// (MISR, EDT XOR tree) needs to decide which detections survive
    /// compaction.
    ///
    /// The response vectors follow `graph.scan_flops()` order — the
    /// same order as a [`Pattern`](crate::Pattern)'s `scan_load` slots.
    /// `diff` and `po` are pre-masked by the launch and validity masks,
    /// so the invariant `detect == po | OR(diff[i])` holds exactly; a
    /// compactor never needs to re-derive the kernel's masking. `good_x`
    /// / `faulty_x` carry the unload X positions (masked by validity
    /// only): a faulty-only X (`faulty_x & !good_x`) is a position the
    /// compactor must treat as unknown, never as a detection.
    ///
    /// Costs one extra pass over the scan flops on top of
    /// [`FaultSim::detect`]; the kernel loop itself is unchanged.
    pub fn detect_response(
        &mut self,
        spec: &FrameSpec,
        good: &GoodBatch,
        fault: Fault,
        resp: &mut ScanResponse,
    ) -> u64 {
        let scan = self.graph.scan_flops();
        resp.reset(scan.len());

        // Replicate the kernel's early exits: on any of them the
        // kernel returns 0 before running the frame loop, leaving
        // `cur` / `po_diff` stale from the previous fault.
        let with_po = !spec.po_observe_frames().is_empty();
        let launch = self.launch_mask(spec, good, fault);
        let early = !self.graph.observable(fault.site().effect_cell(), with_po) || launch == 0;

        let detect = self.detect(spec, good, fault);
        if early {
            debug_assert_eq!(detect, 0, "early-exit replication out of sync with kernel");
            return 0;
        }

        let valid = good.valid_mask;
        resp.po = self.po_diff & launch & valid;

        let frames = spec.frames();
        let forced = forced_val(fault.polarity());
        let out_site = match fault.site() {
            FaultSite::Output(c) => Some(c.index()),
            FaultSite::Input { .. } => None,
        };
        let g = self.graph;
        let mut or_diff = resp.po;
        for (i, &fi) in scan.iter().enumerate() {
            let fi = fi as usize;
            let good_v = good.states[frames][fi];
            let mut faulty_v = self.cur.get(fi).unwrap_or(good_v);
            // Same direct-Q rule as the kernel's unload loop: a stuck
            // output on the scan flop itself is read straight off the
            // chain.
            let cell = g.flop_meta(fi).cell as usize;
            if fault.model() == FaultModel::StuckAt && out_site == Some(cell) {
                faulty_v = forced;
            }
            resp.diff[i] = good_v.definite_diff(faulty_v) & launch & valid;
            resp.good_x[i] = good_v.x & valid;
            resp.faulty_x[i] = faulty_v.x & valid;
            or_diff |= resp.diff[i];
        }
        resp.detect = detect;
        debug_assert_eq!(detect, or_diff, "response must explain every detection bit");
        detect
    }

    /// The untimed kernel loop — the original hot path, untouched.
    fn detect_untimed(&mut self, spec: &FrameSpec, good: &GoodBatch, fault: Fault) -> u64 {
        self.faults_graded += 1;

        // Cone pruning: a fault whose effect cell cannot reach a scan
        // flop (or an observed PO) is undetectable under this spec.
        let with_po = !spec.po_observe_frames().is_empty();
        if !self.graph.observable(fault.site().effect_cell(), with_po) {
            self.cone_pruned += 1;
            return 0;
        }

        let site_node = graph_site_node(self.graph, fault.site());
        let frames = spec.frames();

        // Launch requirement for transition faults.
        let launch_mask = match fault.model() {
            FaultModel::StuckAt => good.valid_mask,
            FaultModel::Transition => {
                if frames < 2 {
                    return 0;
                }
                let before = good.frames[frames - 2][site_node];
                let after = good.frames[frames - 1][site_node];
                let m = match fault.polarity() {
                    Polarity::P0 => before.def0() & after.def1(), // slow-to-rise
                    Polarity::P1 => before.def1() & after.def0(), // slow-to-fall
                };
                m & good.valid_mask
            }
        };
        if launch_mask == 0 {
            return 0;
        }

        let first_active = match fault.model() {
            FaultModel::StuckAt => 1,
            FaultModel::Transition => frames,
        };
        let forced = forced_val(fault.polarity());
        let (out_site, in_site) = match fault.site() {
            FaultSite::Output(c) => (Some(c.index()), None),
            FaultSite::Input { cell, pin } => (None, Some((cell.index(), pin))),
        };

        self.cur.clear();
        let mut po_diff = 0u64;

        for k in first_active..=frames {
            let active = match fault.model() {
                FaultModel::StuckAt => true,
                FaultModel::Transition => k == frames,
            };
            if !active && self.cur.is_empty() {
                continue;
            }

            self.bump_gen();
            let gvals = &good.frames[k - 1];
            self.touched.clear();

            // Seed 1: carried-in state differences.
            for i in 0..self.cur.list.len() {
                let fi = self.cur.list[i] as usize;
                let cell = self.graph.flop_meta(fi).cell as usize;
                self.fval[cell] = self.cur.val[fi];
                self.fstamp[cell] = self.gen;
                self.push_fanouts(cell);
            }

            // Seed 2: the fault site.
            if active {
                if let Some(ci) = out_site {
                    self.fval[ci] = forced;
                    self.fstamp[ci] = self.gen;
                    if forced != gvals[ci] {
                        self.push_fanouts(ci);
                    }
                } else if let Some((ci, pin)) = in_site {
                    // Evaluate the consuming cell with the pin forced.
                    self.events += 1;
                    let v = self.eval_faulty(ci, gvals, Some((pin, forced)));
                    if v != gvals[ci] {
                        self.fval[ci] = v;
                        self.fstamp[ci] = self.gen;
                        self.push_fanouts(ci);
                    }
                }
            }

            // Propagate level by level.
            for lvl in 0..self.buckets.len() {
                while let Some(raw) = self.buckets[lvl].pop() {
                    let ci = raw as usize;
                    // The forced output site never re-evaluates.
                    if active && out_site == Some(ci) {
                        continue;
                    }
                    let pin_fault = match in_site {
                        Some((cell, pin)) if active && cell == ci => Some((pin, forced)),
                        _ => None,
                    };
                    self.events += 1;
                    let was_stamped = self.fstamp[ci] == self.gen;
                    let v = self.eval_faulty(ci, gvals, pin_fault);
                    if was_stamped {
                        // Re-evaluation of an already-seeded node (an
                        // input-site cell reached again from upstream):
                        // only re-notify fanouts when the value moved.
                        if v != self.fval[ci] {
                            self.fval[ci] = v;
                            self.push_fanouts(ci);
                        }
                    } else if v != gvals[ci] {
                        self.fval[ci] = v;
                        self.fstamp[ci] = self.gen;
                        self.push_fanouts(ci);
                    }
                }
            }

            // Primary-output observation.
            if spec.po_observe_frames().contains(&k) {
                let g = self.graph;
                for &po in g.po_cells() {
                    let p = po as usize;
                    if self.fstamp[p] == self.gen {
                        po_diff |= gvals[p].definite_diff(self.fval[p]);
                    }
                }
            }

            // Next faulty state: flops touched by propagation plus the
            // carried diffs (deduplicated through the same stamps).
            self.next.clear();
            let cycle = &spec.cycles()[k - 1];
            for i in 0..self.touched.len() {
                let fi = self.touched[i] as usize;
                self.capture_flop::<false>(fi, k, cycle, good, gvals);
            }
            for i in 0..self.cur.list.len() {
                let fi = self.cur.list[i] as usize;
                if self.flop_stamp[fi] != self.gen {
                    self.flop_stamp[fi] = self.gen;
                    self.capture_flop::<false>(fi, k, cycle, good, gvals);
                }
            }
            std::mem::swap(&mut self.cur, &mut self.next);
        }

        // Detection: scan-state differences at unload + observed POs.
        self.po_diff = po_diff;
        let mut detect = po_diff;
        for &fi in self.graph.scan_flops() {
            let fi = fi as usize;
            let good_v = good.states[frames][fi];
            let mut faulty_v = self.cur.get(fi).unwrap_or(good_v);
            // A *stuck* output on the scan flop itself is observed
            // directly during unload (the chain reads the Q net). A
            // transition fault is not: unload shifting is slow, so the
            // slow edge has settled by the time the chain samples.
            if fault.model() == FaultModel::StuckAt
                && out_site == Some(self.graph.flop_meta(fi).cell as usize)
            {
                faulty_v = forced;
            }
            detect |= good_v.definite_diff(faulty_v);
        }

        detect & launch_mask & good.valid_mask
    }

    /// The timed copy of the kernel loop: identical mask computation,
    /// plus picosecond annotations along the difference propagation
    /// (see [`FaultSim::attach_timing`]). Kept out of the hot section —
    /// grading without timing never touches this code.
    #[cold]
    #[inline(never)]
    fn detect_timed(&mut self, spec: &FrameSpec, good: &GoodBatch, fault: Fault) -> u64 {
        self.faults_graded += 1;
        if let Some(ts) = &mut self.timed {
            ts.last_path = 0;
        }
        self.timed_faults += 1;

        // Cone pruning: a fault whose effect cell cannot reach a scan
        // flop (or an observed PO) is undetectable under this spec.
        let with_po = !spec.po_observe_frames().is_empty();
        if !self.graph.observable(fault.site().effect_cell(), with_po) {
            self.cone_pruned += 1;
            return 0;
        }

        let site_node = graph_site_node(self.graph, fault.site());
        let frames = spec.frames();

        // Launch requirement for transition faults.
        let launch_mask = match fault.model() {
            FaultModel::StuckAt => good.valid_mask,
            FaultModel::Transition => {
                if frames < 2 {
                    return 0;
                }
                let before = good.frames[frames - 2][site_node];
                let after = good.frames[frames - 1][site_node];
                let m = match fault.polarity() {
                    Polarity::P0 => before.def0() & after.def1(), // slow-to-rise
                    Polarity::P1 => before.def1() & after.def0(), // slow-to-fall
                };
                m & good.valid_mask
            }
        };
        if launch_mask == 0 {
            return 0;
        }

        let first_active = match fault.model() {
            FaultModel::StuckAt => 1,
            FaultModel::Transition => frames,
        };
        let forced = forced_val(fault.polarity());
        let (out_site, in_site) = match fault.site() {
            FaultSite::Output(c) => (Some(c.index()), None),
            FaultSite::Input { cell, pin } => (None, Some((cell.index(), pin))),
        };

        self.cur.clear();
        let mut po_diff = 0u64;

        for k in first_active..=frames {
            let active = match fault.model() {
                FaultModel::StuckAt => true,
                FaultModel::Transition => k == frames,
            };
            if !active && self.cur.is_empty() {
                continue;
            }

            self.bump_gen();
            let gvals = &good.frames[k - 1];
            self.touched.clear();

            // Seed 1: carried-in state differences. A carried diff
            // presents at the flop's Q one clock-to-out after the new
            // frame's launch edge.
            for i in 0..self.cur.list.len() {
                let fi = self.cur.list[i] as usize;
                let cell = self.graph.flop_meta(fi).cell as usize;
                self.fval[cell] = self.cur.val[fi];
                self.fstamp[cell] = self.gen;
                if let Some(ts) = &mut self.timed {
                    ts.time[cell] = ts.view.delay(cell);
                }
                self.push_fanouts(cell);
            }

            // Seed 2: the fault site. The difference launches when the
            // good machine's transition settles at the site (its STA
            // arrival time).
            if active {
                if let Some(ci) = out_site {
                    self.fval[ci] = forced;
                    self.fstamp[ci] = self.gen;
                    if let Some(ts) = &mut self.timed {
                        ts.time[ci] = ts.view.arrival(ci);
                    }
                    if forced != gvals[ci] {
                        self.push_fanouts(ci);
                    }
                } else if let Some((ci, pin)) = in_site {
                    // Evaluate the consuming cell with the pin forced.
                    self.events += 1;
                    let v = self.eval_faulty(ci, gvals, Some((pin, forced)));
                    if v != gvals[ci] {
                        self.fval[ci] = v;
                        self.fstamp[ci] = self.gen;
                        if let Some(ts) = &mut self.timed {
                            ts.time[ci] = ts.view.arrival(site_node) + ts.view.delay(ci);
                        }
                        self.push_fanouts(ci);
                    }
                }
            }

            // Propagate level by level.
            for lvl in 0..self.buckets.len() {
                while let Some(raw) = self.buckets[lvl].pop() {
                    let ci = raw as usize;
                    // The forced output site never re-evaluates.
                    if active && out_site == Some(ci) {
                        continue;
                    }
                    let pin_fault = match in_site {
                        Some((cell, pin)) if active && cell == ci => Some((pin, forced)),
                        _ => None,
                    };
                    self.events += 1;
                    let was_stamped = self.fstamp[ci] == self.gen;
                    let v = self.eval_faulty(ci, gvals, pin_fault);
                    if was_stamped {
                        // Re-evaluation of an already-seeded node (an
                        // input-site cell reached again from upstream):
                        // only re-notify fanouts when the value moved.
                        if v != self.fval[ci] {
                            let t = self.prop_time(ci, pin_fault.is_some(), site_node);
                            if let Some(ts) = &mut self.timed {
                                ts.time[ci] = t;
                            }
                            self.fval[ci] = v;
                            self.push_fanouts(ci);
                        }
                    } else if v != gvals[ci] {
                        let t = self.prop_time(ci, pin_fault.is_some(), site_node);
                        if let Some(ts) = &mut self.timed {
                            ts.time[ci] = t;
                        }
                        self.fval[ci] = v;
                        self.fstamp[ci] = self.gen;
                        self.push_fanouts(ci);
                    }
                }
            }

            // Primary-output observation.
            if spec.po_observe_frames().contains(&k) {
                let g = self.graph;
                for &po in g.po_cells() {
                    let p = po as usize;
                    if self.fstamp[p] == self.gen {
                        let d = gvals[p].definite_diff(self.fval[p]);
                        po_diff |= d;
                        // Only count paths whose difference bits survive
                        // the launch/validity masking — bits dropped by
                        // the final mask never screen anything.
                        if d & launch_mask != 0 {
                            if let Some(ts) = &mut self.timed {
                                ts.last_path = ts.last_path.max(ts.time[p]);
                            }
                        }
                    }
                }
            }

            // Next faulty state: flops touched by propagation plus the
            // carried diffs (deduplicated through the same stamps).
            self.next.clear();
            let cycle = &spec.cycles()[k - 1];
            for i in 0..self.touched.len() {
                let fi = self.touched[i] as usize;
                self.capture_flop::<true>(fi, k, cycle, good, gvals);
            }
            for i in 0..self.cur.list.len() {
                let fi = self.cur.list[i] as usize;
                if self.flop_stamp[fi] != self.gen {
                    self.flop_stamp[fi] = self.gen;
                    self.capture_flop::<true>(fi, k, cycle, good, gvals);
                }
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            if let Some(ts) = &mut self.timed {
                std::mem::swap(&mut ts.state_cur, &mut ts.state_next);
            }
        }

        // Detection: scan-state differences at unload + observed POs.
        self.po_diff = po_diff;
        let mut detect = po_diff;
        let g = self.graph;
        for &fi in g.scan_flops() {
            let fi = fi as usize;
            let good_v = good.states[frames][fi];
            let mut faulty_v = self.cur.get(fi).unwrap_or(good_v);
            // A *stuck* output on the scan flop itself is observed
            // directly during unload (the chain reads the Q net). A
            // transition fault is not: unload shifting is slow, so the
            // slow edge has settled by the time the chain samples.
            let cell = g.flop_meta(fi).cell as usize;
            let mut direct_q = false;
            if fault.model() == FaultModel::StuckAt && out_site == Some(cell) {
                faulty_v = forced;
                direct_q = true;
            }
            let d = good_v.definite_diff(faulty_v);
            detect |= d;
            // As at the POs: only launch-valid difference bits count.
            if d & launch_mask != 0 {
                if let Some(ts) = &mut self.timed {
                    // Captured diffs carry their capture-path time; a
                    // stuck Q read directly at (slow) unload stresses
                    // nothing beyond the flop's own clock-to-out.
                    let t = if !direct_q && self.cur.get(fi).is_some() {
                        ts.state_cur[fi]
                    } else {
                        ts.view.delay(cell)
                    };
                    ts.last_path = ts.last_path.max(t);
                }
            }
        }

        detect & launch_mask & good.valid_mask
    }

    /// Arrival of the fault difference at `ci`'s output: the latest
    /// difference among its stamped fanins (plus the site launch for an
    /// active input-pin fault on this cell) plus the cell's own delay.
    /// Only called with a timing view attached.
    #[inline]
    fn prop_time(&self, ci: usize, pin_fault: bool, site_node: usize) -> TimePs {
        let ts = self.timed.as_ref().expect("timed scratch attached");
        let mut t = if pin_fault {
            ts.view.arrival(site_node)
        } else {
            0
        };
        for &src in self.graph.fanins(ci) {
            let s = src as usize;
            if self.fstamp[s] == self.gen {
                t = t.max(ts.time[s]);
            }
        }
        t + ts.view.delay(ci)
    }

    /// The capture-path time recorded with a flop's faulty next state:
    /// the latest stamped sample-pin difference for a pulsed flop
    /// (floored at its own clock-to-out), the carried capture time for
    /// a holding flop. Only called with a timing view attached.
    #[inline]
    fn capture_time(&self, meta: &FlopMeta, fi: usize, pulsed: bool) -> TimePs {
        let ts = self.timed.as_ref().expect("timed scratch attached");
        let cell = meta.cell as usize;
        if pulsed {
            let mut t = ts.view.delay(cell);
            let mut consider = |src: u32| {
                let s = src as usize;
                if self.fstamp[s] == self.gen {
                    t = t.max(ts.time[s]);
                }
            };
            consider(meta.d);
            if meta.mux_scan {
                consider(meta.se);
                consider(meta.si);
            }
            if meta.reset != NO_RESET {
                consider(meta.reset);
            }
            t
        } else if self.cur.get(fi).is_some() {
            ts.state_cur[fi]
        } else {
            ts.view.delay(cell)
        }
    }

    /// Attaches a cooperative-cancellation token: from now on
    /// [`FaultSim::detect_many`] polls it every few dozen faults and,
    /// once tripped, stops grading and pads the remaining masks with
    /// zero. The engine itself stays fully usable — cancellation never
    /// touches scratch state mid-fault — so a caller that observes the
    /// trip discards the batch and may keep the engine for later work.
    pub fn attach_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Detects a batch of faults, returning one mask per fault.
    ///
    /// If an attached [`CancelToken`] trips mid-batch, the remaining
    /// masks are zero — callers that honour cancellation must check the
    /// token and discard the result.
    pub fn detect_many(
        &mut self,
        spec: &FrameSpec,
        good: &GoodBatch,
        faults: &[Fault],
    ) -> Vec<u64> {
        let mut batch_span = occ_obs::span("fsim.batch");
        batch_span.attr_u64("faults", faults.len() as u64);
        batch_span.attr_u64("patterns", good.n_patterns as u64);
        self.detect_each(faults, |fsim, f| fsim.detect(spec, good, f))
    }

    /// The timed counterpart of [`FaultSim::detect_many`] (a timing
    /// view must be attached): per fault, the mask and the
    /// [`FaultSim::last_path_ps`] that detection left, with the same
    /// cancellation padding.
    pub(crate) fn detect_many_timed(
        &mut self,
        spec: &FrameSpec,
        good: &GoodBatch,
        faults: &[Fault],
    ) -> Vec<(u64, TimePs)> {
        debug_assert!(self.timed.is_some(), "timed batch without a timing view");
        self.detect_each(faults, |fsim, f| {
            let mask = fsim.detect(spec, good, f);
            (mask, fsim.last_path_ps())
        })
    }

    /// Grades `faults` one by one, polling the cancellation token at a
    /// stride that keeps the check invisible on the hot path (one
    /// relaxed load per `CANCEL_STRIDE` faults). Once it trips, the
    /// rest of the output is `T::default()`.
    fn detect_each<T: Copy + Default>(
        &mut self,
        faults: &[Fault],
        mut grade: impl FnMut(&mut Self, Fault) -> T,
    ) -> Vec<T> {
        const CANCEL_STRIDE: usize = 32;
        let mut out = Vec::with_capacity(faults.len());
        for (i, &f) in faults.iter().enumerate() {
            if i % CANCEL_STRIDE == 0 && self.cancel.is_cancelled() {
                break;
            }
            out.push(grade(self, f));
        }
        out.resize(faults.len(), T::default());
        out
    }

    fn bump_gen(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Stamp wrap-around (once per 2^32 frames): invalidate all
            // stamps so stale entries can never alias the new epoch.
            self.fstamp.fill(0);
            self.enq.fill(0);
            self.flop_stamp.fill(0);
            self.gen = 1;
        }
    }

    /// Faulty (stamped) or good value of a node's driver.
    #[inline]
    fn read_val(&self, src: u32, gvals: &[PVal]) -> PVal {
        let s = src as usize;
        if self.fstamp[s] == self.gen {
            self.fval[s]
        } else {
            gvals[s]
        }
    }

    /// Evaluates one cell with faulty input values (and an optional pin
    /// override for an active input-site fault on this cell).
    #[inline]
    fn eval_faulty(&self, ci: usize, gvals: &[PVal], pin_fault: Option<(u8, PVal)>) -> PVal {
        if self.graph.op(ci) == OpCode::State {
            // Flop/latch/ram nodes keep their frame value.
            return self.read_val(ci as u32, gvals);
        }
        match pin_fault {
            None => self.graph.eval_cell(ci, |_, src| self.read_val(src, gvals)),
            Some((pin, forced)) => self.graph.eval_cell(ci, |p, src| {
                if p == pin as usize {
                    forced
                } else {
                    self.read_val(src, gvals)
                }
            }),
        }
    }

    /// Computes one flop's faulty next state and records it in `next`
    /// when it differs from the good next state.
    ///
    /// ## Reset semantics
    ///
    /// The workspace-wide contract **every** engine implements — the
    /// packed PPSFP engines here, `ReferenceFaultSim`, and the scalar
    /// ATPG value engines (`occ-atpg`'s `DualSim` and `DualGraphSim`):
    ///
    /// * the **good** machine applies asynchronous resets every frame
    ///   (see `simulate_good`) — a reset is an asynchronous pin, so it
    ///   acts regardless of whether the flop's domain is pulsed;
    /// * the **faulty** state of a flop whose domain is *not pulsed*
    ///   in the frame *carries over iff the fault involves the flop* —
    ///   its entering state already differs from the good machine's,
    ///   or one of its input-pin drivers settled to a faulty value this
    ///   frame — and otherwise *tracks the good machine* (inheriting
    ///   the good machine's own asynchronous-reset action). A faulty
    ///   reset net active in a non-pulsed frame is never propagated
    ///   into the flop.
    ///
    /// The asymmetry is deliberate. The faulty machine is stored as a
    /// sparse difference against the good machine, and a non-pulsed
    /// flop is precisely one whose capture path is quiescent in the
    /// frame: re-deriving its state from a possibly-faulty reset net
    /// would manufacture glitch-like behavior the slow scan frames
    /// cannot actually exhibit, so an existing difference simply
    /// carries — while a flop the fault cannot reach stays equal to
    /// the good machine by construction of the sparse representation.
    /// In a *pulsed* frame both machines apply full sample-then-reset
    /// handling. The cross-engine suites (`dual_sim_detection_*`,
    /// `tests/atpg_equivalence.rs`, `tests/kernel_equivalence.rs` —
    /// including rigs whose reset nets are driven by internal logic —
    /// and the brute-force re-detect checks) pin all engines to this
    /// contract.
    fn capture_flop<const TIMED: bool>(
        &mut self,
        fi: usize,
        k: usize,
        cycle: &CycleSpec,
        good: &GoodBatch,
        gvals: &[PVal],
    ) {
        self.events += 1;
        let meta = *self.graph.flop_meta(fi);
        let good_next = good.states[k][fi];
        let pulsed = cycle.pulses_domain(meta.domain as usize);
        let faulty_next = if pulsed {
            let sampled = meta.sample(|src| self.read_val(src, gvals));
            if meta.reset == NO_RESET {
                sampled
            } else {
                meta.apply_reset(sampled, self.read_val(meta.reset, gvals))
            }
        } else {
            // Workspace reset contract (see "Reset semantics" above):
            // a non-pulsed flop the fault involves (existing diff, or
            // touched by a faulty capture fanin) carries its entering
            // state; untouched flops never reach here and implicitly
            // track the good machine. A faulty reset net active in a
            // non-pulsed frame is never propagated into the flop.
            self.cur.get(fi).unwrap_or(good.states[k - 1][fi])
        };
        if faulty_next != good_next {
            if TIMED {
                let t = self.capture_time(&meta, fi, pulsed);
                if let Some(ts) = &mut self.timed {
                    ts.state_next[fi] = t;
                }
            }
            self.next.set(fi, faulty_next);
        }
    }

    fn push_fanouts(&mut self, ci: usize) {
        let g = self.graph;
        for &e in g.prop_fanouts(ci) {
            if e & FLOP_TAG != 0 {
                let fi = (e & !FLOP_TAG) as usize;
                if self.flop_stamp[fi] != self.gen {
                    self.flop_stamp[fi] = self.gen;
                    self.touched.push(fi as u32);
                }
            } else {
                let f = e as usize;
                if self.enq[f] != self.gen {
                    self.enq[f] = self.gen;
                    self.buckets[g.level_of(f) as usize].push(e);
                }
            }
        }
    }
}

/// The node whose good value defines the fault site's value: the cell
/// itself for output faults, the driving net for input-pin faults.
pub(crate) fn site_node(model: &CaptureModel<'_>, site: FaultSite) -> CellId {
    match site {
        FaultSite::Output(c) => c,
        FaultSite::Input { cell, pin } => model.netlist().cell(cell).inputs()[pin as usize],
    }
}

/// [`site_node`] over the compiled graph's CSR fanins (same pin order
/// as the netlist), as a dense cell index.
pub(crate) fn graph_site_node(graph: &SimGraph, site: FaultSite) -> usize {
    match site {
        FaultSite::Output(c) => c.index(),
        FaultSite::Input { cell, pin } => graph.fanins(cell.index())[pin as usize] as usize,
    }
}

pub(crate) fn forced_val(p: Polarity) -> PVal {
    match p {
        Polarity::P0 => PVal::ZERO,
        Polarity::P1 => PVal::ONE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_good, ClockBinding, CycleSpec, Pattern};
    use occ_netlist::{Logic, NetlistBuilder};

    /// One scan flop feeding AND with a PI, captured by a second flop.
    struct Rig {
        nl: occ_netlist::Netlist,
        clk: CellId,
        d_pi: CellId,
        g: CellId,
        f1: CellId,
    }

    fn rig() -> Rig {
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let se = b.input("se");
        let si = b.input("si");
        let d_pi = b.input("d");
        let f0 = b.sdff(d_pi, clk, se, si);
        let g = b.and2(f0, d_pi);
        let f1 = b.sdff(g, clk, se, f0);
        b.output("q", f1);
        b.name_cell(f0, "f0");
        b.name_cell(f1, "f1");
        Rig {
            nl: b.finish().unwrap(),
            clk,
            d_pi,
            g,
            f1,
        }
    }

    fn model(r: &Rig) -> CaptureModel<'_> {
        let mut binding = ClockBinding::new();
        binding.add_domain("a", r.clk);
        binding.constrain(r.nl.find("se").unwrap(), Logic::Zero);
        binding.mask(r.nl.find("si").unwrap());
        CaptureModel::new(&r.nl, binding).unwrap()
    }

    #[test]
    fn stuck_at_detected_when_activated() {
        let r = rig();
        let m = model(&r);
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
        // Pattern: f0=1, d=1 -> g=1 good; g sa0 -> f1 captures 0.
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::One, Logic::Zero];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &spec, &[p]);
        let mut fsim = FaultSim::new(&m);
        let det = fsim.detect(
            &spec,
            &good,
            Fault::stuck(FaultSite::Output(r.g), Polarity::P0),
        );
        assert_eq!(det, 1);
        // sa1 not activated by this pattern (good value is already 1).
        let det1 = fsim.detect(
            &spec,
            &good,
            Fault::stuck(FaultSite::Output(r.g), Polarity::P1),
        );
        assert_eq!(det1, 0);
    }

    #[test]
    fn input_pin_fault_is_branch_local() {
        let r = rig();
        let m = model(&r);
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
        // d=1 feeds both the AND pin and f0's D. A branch fault on the
        // AND pin (sa0) kills g but not the other branch.
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::One, Logic::One];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &spec, &[p]);
        let mut fsim = FaultSim::new(&m);
        let det = fsim.detect(
            &spec,
            &good,
            Fault::stuck(FaultSite::Input { cell: r.g, pin: 1 }, Polarity::P0),
        );
        assert_eq!(det, 1, "branch fault propagates to f1");
    }

    #[test]
    fn po_masking_blocks_detection() {
        // Fault whose only observation point is the PO.
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let se = b.input("se");
        let si = b.input("si");
        let d = b.input("d");
        let f0 = b.sdff(d, clk, se, si);
        let g = b.not(f0);
        b.output("q", g);
        let nl = b.finish().unwrap();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", clk);
        binding.constrain(se, Logic::Zero);
        binding.mask(si);
        let m = CaptureModel::new(&nl, binding).unwrap();

        let observe = FrameSpec::new("o", vec![CycleSpec::pulsing(&[0])]);
        let masked = FrameSpec::new("m", vec![CycleSpec::pulsing(&[0])]).observe_po(false);
        let mut p = Pattern::empty(&m, &observe, 0);
        p.scan_load = vec![Logic::One];
        let fault = Fault::stuck(FaultSite::Output(g), Polarity::P1);

        let good_o = simulate_good(&m, &observe, std::slice::from_ref(&p));
        let mut fsim = FaultSim::new(&m);
        assert_eq!(fsim.detect(&observe, &good_o, fault), 1);

        let good_m = simulate_good(&m, &masked, &[p]);
        assert_eq!(fsim.detect(&masked, &good_m, fault), 0);
        // The masked-PO rejection comes straight from the scan cone.
        assert_eq!(fsim.kernel_stats().cone_pruned, 1);
    }

    #[test]
    fn transition_needs_launch() {
        let r = rig();
        let m = model(&r);
        let spec = FrameSpec::new(
            "loc",
            vec![CycleSpec::pulsing(&[0]), CycleSpec::pulsing(&[0])],
        )
        .hold_pi(true)
        .observe_po(false);
        // Load f0=0, d=1: frame1 g=0; f0 captures 1 -> frame2 g=1:
        // slow-to-rise at g is launched and captured into f1.
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::Zero, Logic::X];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &spec, &[p.clone()]);
        let mut fsim = FaultSim::new(&m);
        let str_fault = Fault::transition(FaultSite::Output(r.g), Polarity::P0);
        assert_eq!(fsim.detect(&spec, &good, str_fault), 1);

        // Slow-to-fall is not launched by this pattern (no 1->0).
        let stf_fault = Fault::transition(FaultSite::Output(r.g), Polarity::P1);
        assert_eq!(fsim.detect(&spec, &good, stf_fault), 0);

        // Launch without capture-frame effect: load f0=1 (g stays 1,
        // no transition) -> no detection.
        let mut p2 = Pattern::empty(&m, &spec, 0);
        p2.scan_load = vec![Logic::One, Logic::X];
        p2.pis[0] = vec![Logic::One];
        let good2 = simulate_good(&m, &spec, &[p2]);
        assert_eq!(fsim.detect(&spec, &good2, str_fault), 0);
    }

    #[test]
    fn multi_frame_stuck_at_propagates_through_state() {
        // Fault effect captured in frame 1 must be observable after
        // frame 2 even though the site is no longer perturbed there.
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let se = b.input("se");
        let si = b.input("si");
        let d = b.input("d");
        let f0 = b.sdff(d, clk, se, si); // captures d
        let f1 = b.sdff(f0, clk, se, f0); // shift behind it
        b.output("q", f1);
        let nl = b.finish().unwrap();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", clk);
        binding.constrain(se, Logic::Zero);
        binding.mask(si);
        let m = CaptureModel::new(&nl, binding).unwrap();
        let spec = FrameSpec::new("s2", vec![CycleSpec::pulsing(&[0]); 2]).hold_pi(true);
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::Zero, Logic::Zero];
        p.pis[0] = vec![Logic::One]; // d=1 held
        let good = simulate_good(&m, &spec, &[p]);
        let mut fsim = FaultSim::new(&m);
        // d sa0: f0 captures 0 instead of 1 in both frames; after frame 2
        // f1 holds the frame-1 corruption.
        let det = fsim.detect(
            &spec,
            &good,
            Fault::stuck(FaultSite::Output(d), Polarity::P0),
        );
        assert_eq!(det, 1);
    }

    #[test]
    fn detection_respects_valid_mask() {
        let r = rig();
        let m = model(&r);
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::One, Logic::Zero];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &spec, &[p]);
        assert_eq!(good.valid_mask, 1);
        let mut fsim = FaultSim::new(&m);
        let det = fsim.detect(
            &spec,
            &good,
            Fault::stuck(FaultSite::Output(r.d_pi), Polarity::P0),
        );
        assert_eq!(det & !good.valid_mask, 0);
        let _ = r.f1;
    }

    #[test]
    fn timed_detect_records_longest_sensitized_path() {
        let r = rig();
        let m = model(&r);
        let graph = m.graph();
        // Hand-built timing: 10 ps gates, 30 ps flops, ports/ties 0 —
        // mirroring occ-sim's default DelayModel.
        let delays: Vec<u64> = (0..graph.cells())
            .map(|c| match graph.op(c) {
                OpCode::State => 30,
                OpCode::Source | OpCode::Tie0 | OpCode::Tie1 | OpCode::TieX => 0,
                _ => 10,
            })
            .collect();
        let mut arrival = vec![0u64; graph.cells()];
        for c in 0..graph.cells() {
            if graph.op(c) == OpCode::State {
                arrival[c] = delays[c];
            }
        }
        for &c in graph.comb_order() {
            let ci = c as usize;
            let t = graph
                .fanins(ci)
                .iter()
                .map(|&s| arrival[s as usize])
                .max()
                .unwrap_or(0);
            arrival[ci] = t + delays[ci];
        }
        // arrival(g) = clk2q(f0) + delay(and) = 40.
        assert_eq!(arrival[r.g.index()], 40);

        let spec = FrameSpec::new(
            "loc",
            vec![CycleSpec::pulsing(&[0]), CycleSpec::pulsing(&[0])],
        )
        .hold_pi(true)
        .observe_po(false);
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::Zero, Logic::X];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &spec, &[p]);
        let fault = Fault::transition(FaultSite::Output(r.g), Polarity::P0);

        // Untimed and timed gradings produce the same mask.
        let mut fsim = FaultSim::new(&m);
        let untimed = fsim.detect(&spec, &good, fault);
        assert_eq!(fsim.last_path_ps(), 0, "no view attached: no path");
        fsim.attach_timing(std::sync::Arc::new(crate::SimTiming::new(
            delays.clone(),
            arrival.clone(),
        )));
        let timed = fsim.detect(&spec, &good, fault);
        assert_eq!(untimed, timed, "timing must not change the mask");
        // The diff launches at arrival(g)=40 and is captured straight
        // into f1's D: the recorded path is 40 ps.
        assert_eq!(fsim.last_path_ps(), 40);
        assert_eq!(fsim.kernel_stats().timed_faults, 1);

        // Undetected fault: no path recorded.
        let stf = Fault::transition(FaultSite::Output(r.g), Polarity::P1);
        assert_eq!(fsim.detect(&spec, &good, stf), 0);
        assert_eq!(fsim.last_path_ps(), 0);

        // Detaching restores the untimed behaviour.
        fsim.detach_timing();
        assert_eq!(fsim.detect(&spec, &good, fault), untimed);
        assert_eq!(fsim.last_path_ps(), 0);
    }

    #[test]
    fn timed_and_untimed_masks_agree_over_whole_universes() {
        // The timed kernel copy must compute bit-identical masks for
        // every fault of both universes, across single- and
        // multi-frame procedures.
        let r = rig();
        let m = model(&r);
        let graph = m.graph();
        let view = std::sync::Arc::new(crate::SimTiming::new(
            vec![10; graph.cells()],
            vec![25; graph.cells()],
        ));
        let specs = [
            FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]),
            FrameSpec::new(
                "loc",
                vec![CycleSpec::pulsing(&[0]), CycleSpec::pulsing(&[0])],
            )
            .hold_pi(true)
            .observe_po(false),
        ];
        let universes = [
            occ_fault::FaultUniverse::stuck_at(&r.nl),
            occ_fault::FaultUniverse::transition(&r.nl),
        ];
        for spec in &specs {
            for loads in [
                [Logic::Zero, Logic::Zero],
                [Logic::Zero, Logic::One],
                [Logic::One, Logic::Zero],
                [Logic::One, Logic::One],
            ] {
                let mut p = Pattern::empty(&m, spec, 0);
                p.scan_load = loads.to_vec();
                for f in &mut p.pis {
                    f[0] = Logic::One;
                }
                let good = simulate_good(&m, spec, &[p]);
                let mut untimed = FaultSim::new(&m);
                let mut timed = FaultSim::new(&m);
                timed.attach_timing(view.clone());
                for uni in &universes {
                    for &fault in uni.faults() {
                        assert_eq!(
                            untimed.detect(spec, &good, fault),
                            timed.detect(spec, &good, fault),
                            "fault {fault} spec {} loads {loads:?}",
                            spec.name(),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_stats_track_work() {
        let r = rig();
        let m = model(&r);
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::One, Logic::Zero];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &spec, &[p]);
        let mut fsim = FaultSim::new(&m);
        let _ = fsim.detect(
            &spec,
            &good,
            Fault::stuck(FaultSite::Output(r.g), Polarity::P0),
        );
        let stats = fsim.kernel_stats();
        assert_eq!(stats.faults_graded, 1);
        assert_eq!(stats.cells, r.nl.len());
        assert!(stats.events > 0, "propagation produced no events");
    }

    #[test]
    fn detect_response_matches_detect_and_explains_bits() {
        let r = rig();
        let m = model(&r);
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::One, Logic::Zero];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &spec, &[p]);
        let mut fsim = FaultSim::new(&m);
        let mut resp = ScanResponse::new();
        for fault in [
            Fault::stuck(FaultSite::Output(r.g), Polarity::P0),
            Fault::stuck(FaultSite::Output(r.g), Polarity::P1),
            Fault::stuck(FaultSite::Output(r.d_pi), Polarity::P0),
            Fault::stuck(FaultSite::Output(r.f1), Polarity::P0),
        ] {
            let det = fsim.detect_response(&spec, &good, fault, &mut resp);
            let mut plain = FaultSim::new(&m);
            assert_eq!(
                det,
                plain.detect(&spec, &good, fault),
                "mask must match detect"
            );
            assert_eq!(det, resp.detect);
            let or = resp.diff.iter().fold(resp.po, |a, &d| a | d);
            assert_eq!(det, or, "detect must equal po | OR(chain diffs)");
        }
    }

    #[test]
    fn detect_response_zeroes_after_cone_pruned_fault() {
        // PO-only observable fault under a masked-PO spec is cone
        // pruned, which leaves the kernel scratch stale — the response
        // must still come back zeroed.
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let se = b.input("se");
        let si = b.input("si");
        let d = b.input("d");
        let f0 = b.sdff(d, clk, se, si);
        let g = b.not(f0);
        b.output("q", g);
        let nl = b.finish().unwrap();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", clk);
        binding.constrain(se, Logic::Zero);
        binding.mask(si);
        let m = CaptureModel::new(&nl, binding).unwrap();
        let masked = FrameSpec::new("m", vec![CycleSpec::pulsing(&[0])]).observe_po(false);
        let mut p = Pattern::empty(&m, &masked, 0);
        p.scan_load = vec![Logic::One];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &masked, &[p]);
        let mut fsim = FaultSim::new(&m);
        let mut resp = ScanResponse::new();
        // Populates the carried faulty state with a real scan diff...
        let det = fsim.detect_response(
            &masked,
            &good,
            Fault::stuck(FaultSite::Output(d), Polarity::P0),
            &mut resp,
        );
        assert_eq!(det, 1);
        assert_eq!(resp.diff[0], 1);
        // ...which must not leak into the next, cone-pruned fault.
        let det = fsim.detect_response(
            &masked,
            &good,
            Fault::stuck(FaultSite::Output(g), Polarity::P1),
            &mut resp,
        );
        assert_eq!(det, 0);
        assert_eq!(resp.detect, 0);
        assert_eq!(resp.po, 0);
        assert!(resp.diff.iter().all(|&v| v == 0));
    }

    #[test]
    fn detect_response_zeroes_after_launchless_transition() {
        let r = rig();
        let m = model(&r);
        let spec = FrameSpec::new(
            "loc",
            vec![CycleSpec::pulsing(&[0]), CycleSpec::pulsing(&[0])],
        )
        .hold_pi(true)
        .observe_po(false);
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::Zero, Logic::X];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &spec, &[p]);
        let mut fsim = FaultSim::new(&m);
        let mut resp = ScanResponse::new();
        let str_fault = Fault::transition(FaultSite::Output(r.g), Polarity::P0);
        assert_eq!(fsim.detect_response(&spec, &good, str_fault, &mut resp), 1);
        assert_eq!(resp.detect, 1);
        // Slow-to-fall has no 1->0 launch here: early return, zeroed.
        let stf_fault = Fault::transition(FaultSite::Output(r.g), Polarity::P1);
        assert_eq!(fsim.detect_response(&spec, &good, stf_fault, &mut resp), 0);
        assert_eq!(resp.detect, 0);
        assert_eq!(resp.po, 0);
        assert!(resp.diff.iter().all(|&v| v == 0));
    }

    #[test]
    fn detect_response_reports_unload_x_positions() {
        let r = rig();
        let m = model(&r);
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
        // f0 = X -> g = X -> f1 unloads X in the good machine: no
        // definite diff can ever fire at that position, and the
        // response must flag it so a compactor treats it as unknown.
        let mut p = Pattern::empty(&m, &spec, 0);
        p.scan_load = vec![Logic::X, Logic::Zero];
        p.pis[0] = vec![Logic::One];
        let good = simulate_good(&m, &spec, &[p]);
        let mut fsim = FaultSim::new(&m);
        let mut resp = ScanResponse::new();
        let det = fsim.detect_response(
            &spec,
            &good,
            Fault::stuck(FaultSite::Output(r.g), Polarity::P0),
            &mut resp,
        );
        assert_eq!(det, 0);
        assert_eq!(resp.good_x[1], 1, "good-machine X at the f1 unload");
        assert!(resp.diff.iter().all(|&v| v == 0));
    }
}
