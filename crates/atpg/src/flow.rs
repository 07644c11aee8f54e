//! The top-level ATPG flow: target faults, batch fault simulation,
//! random fill and static compaction — the loop every Table 1
//! experiment runs, behind one entry point, [`run_atpg`]
//! ([`run_atpg_cancellable`] is its random-fill shorthand).
//!
//! The flow is generic over **both** engines it drives. Every grading
//! step goes through [`FaultSimEngine`], so the serial compiled-kernel
//! [`occ_fsim::FaultSim`] and the sharded
//! [`occ_fsim::ParallelFaultSim`] are interchangeable and produce
//! identical results (the engines guarantee bit-identical masks); and
//! every deterministic test-generation attempt goes through
//! [`AtpgEngine`]. Products run the compiled [`crate::CompiledPodem`];
//! the equivalence suites and `atpg_bench` hand the same loop the
//! scalar [`crate::ReferencePodem`] oracle and check identical
//! outcomes. The drop and compaction loops below ride the
//! kernels unchanged: the zero-allocation rebuild and the
//! observability-cone pruning live entirely behind
//! [`FaultSimEngine::detect_batch`], which is what makes
//! single-pattern compaction grading (one full-universe pass per kept
//! pattern) affordable.

use crate::{AtpgEngine, AtpgKernelStats, Observability, PodemOutcome};
use occ_fault::{Fault, FaultList, FaultModel, FaultSite, FaultStatus, FaultUniverse};
use occ_fsim::{
    simulate_good, CancelCause, CancelToken, CaptureModel, FaultSimEngine, FrameSpec, Pattern,
    PatternSet,
};
use occ_netlist::Logic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Mutex};

/// Options controlling an ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgOptions {
    /// PODEM backtrack limit; exceeding it classifies a fault aborted.
    pub backtrack_limit: usize,
    /// Seed for random X-fill and bootstrap patterns.
    pub fill_seed: u64,
    /// Run the reverse-order static compaction pass.
    pub compaction: bool,
    /// Random patterns fault-simulated per procedure before
    /// deterministic generation (only contributing ones are kept) —
    /// the standard random-bootstrap phase of production flows.
    pub random_patterns: usize,
}

impl Default for AtpgOptions {
    fn default() -> Self {
        AtpgOptions {
            backtrack_limit: 128,
            fill_seed: 0x0CC,
            compaction: true,
            random_patterns: 256,
        }
    }
}

/// Counters reported by an ATPG run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtpgStats {
    /// Faults handed to PODEM (not dropped by fault simulation first).
    pub targeted: usize,
    /// PODEM invocations (targets × procedures tried).
    pub podem_calls: usize,
    /// Tests found by PODEM.
    pub tests_found: usize,
    /// Calls ending in abort.
    pub aborted_calls: usize,
    /// Patterns before compaction.
    pub patterns_before_compaction: usize,
    /// 64-pattern fault-simulation batches run.
    pub fsim_batches: usize,
    /// Faults pre-classified untestable by static analysis, whose
    /// PODEM searches were skipped entirely (see [`run_atpg`]).
    pub lint_pruned: usize,
}

/// The result of an ATPG run.
#[derive(Debug)]
pub struct AtpgResult {
    /// The generated (compacted) pattern set.
    pub patterns: PatternSet,
    /// Final fault statuses.
    pub faults: FaultList,
    /// Run counters.
    pub stats: AtpgStats,
}

impl AtpgResult {
    /// Convenience: the coverage report of the final fault list.
    pub fn report(&self) -> occ_fault::CoverageReport {
        self.faults.report()
    }
}

/// How patterns reach the chains — the delivery seam of the ATPG flow.
///
/// The flow generates deterministic test *cubes* (care bits only) and
/// needs pseudo-random *bootstrap* patterns; how those become the
/// patterns actually applied is a property of the test architecture,
/// not of the search. [`RandomFill`] is the classic external-ATE path
/// (X-fill every don't-care); an EDT implementation encodes the care
/// bits into compressed channel data and delivers the decompressor's
/// expansion instead, possibly splitting one cube across several
/// deliverable patterns when the encoder's linear system is
/// overconstrained.
pub trait PatternFill {
    /// Turns one PODEM cube into the pattern(s) the hardware can
    /// actually deliver. `proc_index` is set by the caller afterwards.
    ///
    /// An empty vector means the cube is undeliverable under this
    /// source; a multi-pattern vector is a split delivery — the caller
    /// re-grades the target fault against the batch instead of trusting
    /// the cube's guarantee.
    fn deliver(
        &mut self,
        cube: Pattern,
        model: &CaptureModel<'_>,
        spec: &FrameSpec,
        pi: usize,
    ) -> Vec<Pattern>;

    /// One pseudo-random bootstrap pattern for procedure `pi`.
    fn bootstrap(&mut self, model: &CaptureModel<'_>, spec: &FrameSpec, pi: usize) -> Pattern;
}

/// The default [`PatternFill`]: random X-fill straight from a seeded
/// RNG, i.e. uncompressed external-ATE delivery (what
/// [`run_atpg_cancellable`] hands [`run_atpg`]).
#[derive(Debug)]
pub struct RandomFill {
    rng: StdRng,
}

impl RandomFill {
    /// A fill stream seeded like [`AtpgOptions::fill_seed`].
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomFill {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl PatternFill for RandomFill {
    fn deliver(
        &mut self,
        mut cube: Pattern,
        _model: &CaptureModel<'_>,
        _spec: &FrameSpec,
        _pi: usize,
    ) -> Vec<Pattern> {
        cube.fill_x(|| Logic::from_bool(self.rng.gen_bool(0.5)));
        vec![cube]
    }

    fn bootstrap(&mut self, model: &CaptureModel<'_>, spec: &FrameSpec, pi: usize) -> Pattern {
        let mut p = Pattern::empty(model, spec, pi);
        p.fill_x(|| Logic::from_bool(self.rng.gen_bool(0.5)));
        p
    }
}

/// Grades `candidates` against one batch and applies the detections to
/// `list`, mapping the lowest detecting pattern bit through
/// `pattern_of_bit`.
fn apply_detections(
    engine: &mut dyn FaultSimEngine,
    spec: &FrameSpec,
    good: &occ_fsim::GoodBatch,
    candidates: &[occ_fault::Fault],
    list: &mut FaultList,
    mut pattern_of_bit: impl FnMut(usize) -> u32,
) {
    let masks = engine.detect_batch(spec, good, candidates);
    for (&fault, &mask) in candidates.iter().zip(&masks) {
        if mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            list.set_status(
                fault,
                FaultStatus::Detected {
                    pattern: pattern_of_bit(bit),
                },
            );
        }
    }
}

/// Runs the full ATPG flow for a fault universe over a set of capture
/// procedures, grading through the given [`FaultSimEngine`],
/// generating through the given [`AtpgEngine`] and delivering through
/// the given [`PatternFill`].
///
/// For each yet-undetected fault, the procedures are tried in order
/// (skipping those whose observability cone cannot see the fault); a
/// found test goes through `fill` and is appended, and every 64
/// patterns the whole undetected list is fault-simulated to drop
/// fortuitous detections. Optionally a reverse-order static compaction
/// pass prunes patterns that no longer contribute, re-grading from
/// scratch.
///
/// The searches spread over [`FaultSimEngine::worker_threads`] threads
/// when that is more than one and the ATPG engine can
/// [fork](AtpgEngine::fork): workers search the next still-undetected
/// faults ahead of the commit point, and the calling thread commits
/// their outcomes strictly in universe order — fill draws, pattern
/// pushes, 64-pattern drops and stats happen exactly as in a serial
/// run, and a search whose fault an earlier commit already detected is
/// discarded uncounted. `podem`'s counters end up as the sum of the
/// committed searches.
///
/// The result is independent of both engine choices and of the thread
/// count: serial and sharded fault simulators return bit-identical
/// masks, and the reference and compiled PODEM engines (and their
/// forks) return identical [`PodemOutcome`]s — so fault statuses,
/// pattern sets and coverage reports are equal for any combination.
///
/// **Pre-classified faults.** Faults in `pre_untestable` (the
/// `occ-lint` untestability pass) are marked
/// [`FaultStatus::Untestable`] up front and skipped by PODEM. The
/// verdict must be *sound* (no engine can ever detect such a fault);
/// under that contract the final pattern set is byte-identical to a run
/// with an empty slice: the bootstrap still grades the pre-marked
/// faults (their detection masks are zero by soundness, so no pattern
/// is kept on their account), the PODEM loop skips them exactly as it
/// skips any other non-`Undetected` status, and compaction carries the
/// verdict through. The only admissible difference is classification
/// *labels* on faults whose unpruned search would have hit the
/// backtrack limit (`Aborted` vs `Untestable`); `stats.lint_pruned`
/// counts the skipped searches.
///
/// **Pattern delivery.** Every bootstrap pattern and every PODEM cube
/// goes through `fill`, so a compressed delivery architecture (EDT) can
/// replace random X-fill without touching the search. Two behaviours
/// are only reachable with a fill other than [`RandomFill`]: a *split*
/// delivery (more than one pattern per cube) is immediately graded
/// against its target fault — the cube's detection guarantee does not
/// survive re-encoding — and a fault whose every found test is
/// *undeliverable* stays [`FaultStatus::Undetected`] (the search
/// succeeded; the delivery architecture failed), never `Untestable` or
/// `Aborted`.
///
/// **Cancellation.** `cancel` is attached to the grading engine and
/// polled at every batch boundary (per random-bootstrap chunk, per
/// PODEM target, per compaction pattern). When it trips — explicit
/// cancel or an expired deadline — the run abandons all partial state;
/// an `Ok` result is never built from a truncated grading pass (the
/// cause is re-checked after the last batch, and trip states are
/// permanent). Latency is bounded by one PODEM search (per search
/// worker) plus one 64-wide fault-simulation block; no search worker
/// outlives the call.
///
/// # Errors
///
/// Returns the [`CancelCause`] when the token trips before the run
/// completes.
///
/// # Panics
///
/// Panics if `procedures` is empty (`occ-flow` validates this ahead of
/// time and returns a typed error instead), or if a pre-classified
/// fault is not in `universe` (compute the verdict over the same
/// collapsed universe the run targets).
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn run_atpg(
    model: &CaptureModel<'_>,
    procedures: &[FrameSpec],
    universe: FaultUniverse,
    options: &AtpgOptions,
    engine: &mut dyn FaultSimEngine,
    podem: &mut dyn AtpgEngine,
    pre_untestable: &[occ_fault::Fault],
    cancel: &CancelToken,
    fill: &mut dyn PatternFill,
) -> Result<AtpgResult, CancelCause> {
    engine.attach_cancel(cancel.clone());
    assert!(
        !procedures.is_empty(),
        "need at least one capture procedure"
    );
    let mut list = FaultList::new(universe);
    let mut stats = AtpgStats::default();

    let observability: Vec<Observability> = procedures
        .iter()
        .map(|spec| Observability::compute(model, spec))
        .collect();

    let mut patterns = PatternSet::new(procedures.to_vec());

    // Pre-pass: faults sitting on constrained or masked control pins
    // (clocks held low, scan enable, resets, scan-in ports) cannot be
    // activated by capture patterns — they are covered by other test
    // classes (chain test, DC parametrics), which is what the paper's
    // planned "non-functional scan path" grouping is about.
    {
        let controlled: std::collections::HashSet<_> = model
            .forced()
            .iter()
            .map(|&(c, _)| c)
            .chain(model.masked().iter().copied())
            .collect();
        let all: Vec<occ_fault::Fault> = list.faults().to_vec();
        for fault in all {
            let node = match fault.site() {
                occ_fault::FaultSite::Output(c) => c,
                occ_fault::FaultSite::Input { cell, pin } => {
                    model.netlist().cell(cell).inputs()[pin as usize]
                }
            };
            if controlled.contains(&node) {
                list.set_status(fault, FaultStatus::Constrained);
            }
        }
    }

    // Apply the static untestability verdict (after the constrained
    // pre-pass, which takes precedence on overlapping sites). The
    // per-fault PODEM loop below skips any non-Undetected status, so
    // each pre-marked fault saves its whole deterministic search.
    for &fault in pre_untestable {
        if list.status(fault) == FaultStatus::Undetected {
            list.set_status(fault, FaultStatus::Untestable);
            stats.lint_pruned += 1;
        }
    }

    // Random-bootstrap phase: cheap fortuitous detection before any
    // deterministic search.
    let mut phase_span = occ_obs::span("atpg.bootstrap");
    phase_span.attr_u64("procedures", procedures.len() as u64);
    for (pi, spec) in procedures.iter().enumerate() {
        let mut remaining = options.random_patterns;
        while remaining > 0 {
            if let Some(cause) = cancel.cause() {
                return Err(cause);
            }
            let chunk = remaining.min(64);
            remaining -= chunk;
            let mut pats: Vec<Pattern> = Vec::with_capacity(chunk);
            for _ in 0..chunk {
                pats.push(fill.bootstrap(model, spec, pi));
            }
            let good = simulate_good(model, spec, &pats);
            stats.fsim_batches += 1;
            // Attribute each newly detected fault to the lowest pattern
            // bit; keep only contributing patterns.
            let candidates: Vec<occ_fault::Fault> = list
                .iter()
                .filter(|(_, s)| !s.is_detected())
                .map(|(f, _)| f)
                .collect();
            let masks = engine.detect_batch(spec, &good, &candidates);
            let mut used_bits: Vec<usize> = masks
                .iter()
                .filter(|&&m| m != 0)
                .map(|m| m.trailing_zeros() as usize)
                .collect();
            used_bits.sort_unstable();
            used_bits.dedup();
            let mut index_of_bit = std::collections::HashMap::new();
            for &bit in &used_bits {
                let idx = patterns.push(pats[bit].clone());
                index_of_bit.insert(bit, idx);
            }
            for (&fault, &mask) in candidates.iter().zip(&masks) {
                if mask != 0 {
                    let bit = mask.trailing_zeros() as usize;
                    list.set_status(
                        fault,
                        FaultStatus::Detected {
                            pattern: index_of_bit[&bit] as u32,
                        },
                    );
                }
            }
            if used_bits.is_empty() {
                break; // diminishing returns for this procedure
            }
        }
    }

    phase_span.attr_u64("patterns", patterns.len() as u64);
    drop(phase_span);

    let mut phase_span = occ_obs::span("atpg.search");
    let search = Search {
        model,
        procedures,
        observability: &observability,
        backtrack_limit: options.backtrack_limit,
        cancel,
    };
    let faults: Vec<Fault> = list.faults().to_vec();
    let threads = engine.worker_threads();
    let mut commit = Commit {
        search: &search,
        engine,
        fill,
        list: &mut list,
        stats: &mut stats,
        patterns: &mut patterns,
        pending: vec![Vec::new(); procedures.len()],
    };
    let (searched, workers, discarded) = search_faults(&mut commit, &faults, podem, threads);
    phase_span.attr_u64("threads", workers as u64);
    phase_span.attr_u64("discarded", discarded);
    occ_obs::metrics().atpg_speculative_discarded.add(discarded);
    searched?;
    stats.patterns_before_compaction = patterns.len();
    phase_span.attr_u64("targeted", stats.targeted as u64);
    phase_span.attr_u64("tests_found", stats.tests_found as u64);
    drop(phase_span);

    if options.compaction {
        let mut phase_span = occ_obs::span("atpg.compaction");
        phase_span.attr_u64("before", patterns.len() as u64);
        let (compacted, regraded) = reverse_compact(
            model, procedures, &patterns, &list, engine, &mut stats, cancel,
        )?;
        phase_span.attr_u64("after", compacted.len() as u64);
        return Ok(AtpgResult {
            patterns: compacted,
            faults: regraded,
            stats,
        });
    }

    // Final soundness check: trip states are permanent, so a live token
    // here proves no earlier grading pass was truncated.
    if let Some(cause) = cancel.cause() {
        return Err(cause);
    }
    Ok(AtpgResult {
        patterns,
        faults: list,
        stats,
    })
}

/// [`run_atpg`] with [`RandomFill`] seeded from
/// [`AtpgOptions::fill_seed`]: uncompressed external-ATE delivery.
///
/// # Errors
///
/// Returns the [`CancelCause`] when the token trips before the run
/// completes.
///
/// # Panics
///
/// Panics under the same conditions as [`run_atpg`].
#[allow(clippy::too_many_arguments)]
pub fn run_atpg_cancellable(
    model: &CaptureModel<'_>,
    procedures: &[FrameSpec],
    universe: FaultUniverse,
    options: &AtpgOptions,
    engine: &mut dyn FaultSimEngine,
    podem: &mut dyn AtpgEngine,
    pre_untestable: &[occ_fault::Fault],
    cancel: &CancelToken,
) -> Result<AtpgResult, CancelCause> {
    let mut fill = RandomFill::new(options.fill_seed);
    run_atpg(
        model,
        procedures,
        universe,
        options,
        engine,
        podem,
        pre_untestable,
        cancel,
        &mut fill,
    )
}

/// Speculative searches in flight per worker thread: how far the
/// workers may run ahead of the in-order commit point.
const LOOKAHEAD_PER_WORKER: usize = 4;

/// What every PODEM search of a run shares: the model, the procedures
/// with their observability cones, the backtrack limit and the token.
struct Search<'r, 'm> {
    model: &'r CaptureModel<'m>,
    procedures: &'r [FrameSpec],
    observability: &'r [Observability],
    backtrack_limit: usize,
    cancel: &'r CancelToken,
}

impl Search<'_, '_> {
    /// Whether procedure `pi` is worth a search at all: some frame can
    /// observe the fault's effect cell, or the fault is a stuck scan-flop
    /// Q (observed directly at unload).
    fn searchable(&self, pi: usize, fault: Fault) -> bool {
        let model = self.model;
        let effect = fault.site().effect_cell();
        (1..=self.procedures[pi].frames()).any(|k| self.observability[pi].observable(k, effect))
            || fault.model() == FaultModel::StuckAt
                && matches!(fault.site(), FaultSite::Output(c)
                    if model.flop_index(c).is_some_and(|fi| model.flops()[fi].is_scan))
    }

    fn run(&self, podem: &mut dyn AtpgEngine, pi: usize, fault: Fault) -> PodemOutcome {
        podem.run(
            &self.procedures[pi],
            &self.observability[pi],
            fault,
            self.backtrack_limit,
        )
    }

    /// A worker's search of one fault: the searchable procedures in
    /// order, up to and including the first test. Stops early, with a
    /// shorter list, once the token trips.
    fn speculate(&self, podem: &mut dyn AtpgEngine, idx: usize, fault: Fault) -> Speculated {
        let before = podem.kernel_stats();
        let mut outcomes = Vec::new();
        for pi in 0..self.procedures.len() {
            if !self.searchable(pi, fault) {
                continue;
            }
            if self.cancel.cause().is_some() {
                break;
            }
            let outcome = self.run(podem, pi, fault);
            let test = matches!(outcome, PodemOutcome::Test(_));
            outcomes.push((pi, outcome));
            if test {
                break;
            }
        }
        Speculated {
            idx,
            outcomes,
            work: podem.kernel_stats() - before,
        }
    }
}

/// One fault's searches, run ahead of the commit point by a worker.
struct Speculated {
    /// Universe index of the fault.
    idx: usize,
    /// `(procedure, outcome)` in procedure order.
    outcomes: Vec<(usize, PodemOutcome)>,
    /// The worker engine's counters over these searches.
    work: AtpgKernelStats,
}

/// The search phase's state, advanced strictly in universe order: the
/// only place fault statuses, patterns, stats and the fill stream move
/// during the search, whatever thread ran a search.
struct Commit<'c, 'r, 'm> {
    search: &'c Search<'r, 'm>,
    engine: &'c mut dyn FaultSimEngine,
    fill: &'c mut dyn PatternFill,
    list: &'c mut FaultList,
    stats: &'c mut AtpgStats,
    patterns: &'c mut PatternSet,
    /// Per-procedure batch of not-yet-fault-simulated pattern indices.
    pending: Vec<Vec<usize>>,
}

impl Commit<'_, '_, '_> {
    /// The commit loop: every fault still undetected at its turn takes
    /// its speculated outcomes (from `pipe`, when workers run) and
    /// searches whatever procedures those do not cover on `local`.
    fn run(
        &mut self,
        faults: &[Fault],
        local: &mut dyn AtpgEngine,
        mut pipe: Option<&mut Pipeline>,
    ) -> Result<(), CancelCause> {
        for (idx, &fault) in faults.iter().enumerate() {
            let undetected = self.list.status(fault) == FaultStatus::Undetected;
            let speculated = match pipe.as_deref_mut() {
                Some(p) => p.take(idx, undetected, faults, self.list),
                None => Vec::new(),
            };
            // Checked after the take: a worker cuts a fault's searches
            // short only once the token has tripped.
            if let Some(cause) = self.search.cancel.cause() {
                return Err(cause);
            }
            if !undetected {
                continue;
            }
            self.commit_fault(fault, speculated, local);
        }
        for pi in 0..self.pending.len() {
            let mut batch = std::mem::take(&mut self.pending[pi]);
            self.flush(pi, &mut batch);
        }
        Ok(())
    }

    /// Tries the procedures in order for one undetected fault, exactly
    /// as a serial search would: each outcome comes from `speculated`
    /// when a worker already searched that procedure, else from `local`.
    fn commit_fault(
        &mut self,
        fault: Fault,
        speculated: Vec<(usize, PodemOutcome)>,
        local: &mut dyn AtpgEngine,
    ) {
        let search = self.search;
        let model = search.model;
        self.stats.targeted += 1;
        let mut speculated = speculated.into_iter().peekable();
        let mut any_abort = false;
        let mut found = false;
        let mut undeliverable = false;
        for (pi, spec) in search.procedures.iter().enumerate() {
            if !search.searchable(pi, fault) {
                continue;
            }
            self.stats.podem_calls += 1;
            let outcome = match speculated.next_if(|&(p, _)| p == pi) {
                Some((_, outcome)) => outcome,
                None => search.run(local, pi, fault),
            };
            match outcome {
                PodemOutcome::Test(p) => {
                    self.stats.tests_found += 1;
                    let mut delivered = self.fill.deliver(*p, model, spec, pi);
                    for q in &mut delivered {
                        q.proc_index = pi;
                    }
                    if delivered.is_empty() {
                        // The source cannot carry this cube at all;
                        // keep searching other procedures.
                        undeliverable = true;
                        continue;
                    }
                    if delivered.len() == 1 {
                        // Exact delivery: the cube's detection
                        // guarantee holds, same path as random fill.
                        let idx = self.patterns.push(delivered.pop().expect("one pattern"));
                        self.list.set_status(
                            fault,
                            FaultStatus::Detected {
                                pattern: idx as u32,
                            },
                        );
                        self.pending[pi].push(idx);
                    } else {
                        // Split delivery: the care bits are spread over
                        // several patterns, so the target must be
                        // re-graded — no single pattern is guaranteed
                        // to detect it.
                        let idxs: Vec<usize> = delivered
                            .iter()
                            .map(|q| self.patterns.push(q.clone()))
                            .collect();
                        let good = simulate_good(model, spec, &delivered);
                        self.stats.fsim_batches += 1;
                        let mask = self.engine.detect_batch(spec, &good, &[fault])[0];
                        if mask != 0 {
                            let bit = mask.trailing_zeros() as usize;
                            self.list.set_status(
                                fault,
                                FaultStatus::Detected {
                                    pattern: idxs[bit] as u32,
                                },
                            );
                        }
                        self.pending[pi].extend(idxs);
                        if mask == 0 {
                            // Keep the patterns (they still drop other
                            // faults at the next flush) but try the
                            // remaining procedures for this one.
                            undeliverable = true;
                            self.flush_full(pi);
                            continue;
                        }
                    }
                    self.flush_full(pi);
                    found = true;
                    break;
                }
                PodemOutcome::Aborted => {
                    any_abort = true;
                    self.stats.aborted_calls += 1;
                }
                PodemOutcome::Untestable => {}
            }
        }
        if !found && !undeliverable {
            self.list.set_status(
                fault,
                if any_abort {
                    FaultStatus::Aborted
                } else {
                    FaultStatus::Untestable
                },
            );
        }
    }

    /// Grades every full 64-pattern batch pending for procedure `pi`.
    fn flush_full(&mut self, pi: usize) {
        while self.pending[pi].len() >= 64 {
            let mut batch: Vec<usize> = self.pending[pi].drain(..64).collect();
            self.flush(pi, &mut batch);
        }
    }

    fn flush(&mut self, pi: usize, batch: &mut Vec<usize>) {
        let search = self.search;
        flush_batch(
            search.model,
            self.engine,
            self.patterns,
            search.procedures,
            pi,
            batch,
            self.list,
            self.stats,
        );
    }
}

/// The commit step's side of fault-parallel search: dispatches the
/// next faults still undetected to the workers, at most `window` ahead
/// of the commit point, and hands their results back in universe
/// order.
struct Pipeline {
    jobs: mpsc::Sender<usize>,
    results: mpsc::Receiver<std::thread::Result<Speculated>>,
    window: usize,
    /// Dispatched faults the commit point has not reached, ascending.
    dispatched: VecDeque<usize>,
    /// Next universe index to consider for dispatch.
    next: usize,
    /// Results that arrived ahead of their turn.
    ready: HashMap<usize, Speculated>,
    /// Searches whose results were thrown away.
    discarded: u64,
    /// Worker counters over the committed searches.
    work: AtpgKernelStats,
}

impl Pipeline {
    /// The speculated outcomes for fault `idx` — empty when it was not
    /// dispatched or is no longer `undetected` (its result is then
    /// discarded).
    fn take(
        &mut self,
        idx: usize,
        undetected: bool,
        faults: &[Fault],
        list: &FaultList,
    ) -> Vec<(usize, PodemOutcome)> {
        while self.dispatched.len() < self.window && self.next < faults.len() {
            let j = self.next;
            self.next += 1;
            if list.status(faults[j]) == FaultStatus::Undetected {
                // Workers only stop receiving once this side hangs up.
                let _ = self.jobs.send(j);
                self.dispatched.push_back(j);
            }
        }
        if self.dispatched.front() != Some(&idx) {
            return Vec::new();
        }
        self.dispatched.pop_front();
        if !undetected {
            if let Some(s) = self.ready.remove(&idx) {
                self.discarded += s.outcomes.len() as u64;
            }
            return Vec::new();
        }
        loop {
            if let Some(s) = self.ready.remove(&idx) {
                self.work += s.work;
                return s.outcomes;
            }
            match self.results.recv() {
                // The commit point already passed this fault.
                Ok(Ok(s)) if s.idx < idx => self.discarded += s.outcomes.len() as u64,
                Ok(Ok(s)) => {
                    self.ready.insert(s.idx, s);
                }
                Ok(Err(panic)) => std::panic::resume_unwind(panic),
                Err(_) => unreachable!("search workers exited with fault {idx} outstanding"),
            }
        }
    }

    /// Hangs up on the workers and waits for them to drain: every
    /// result not committed counts as discarded. Returns the discarded
    /// count and the committed worker counters.
    fn finish(mut self) -> (u64, AtpgKernelStats) {
        drop(self.jobs);
        for s in self.results.iter().flatten() {
            self.discarded += s.outcomes.len() as u64;
        }
        for s in self.ready.values() {
            self.discarded += s.outcomes.len() as u64;
        }
        (self.discarded, self.work)
    }
}

/// A search worker: takes dispatched faults until the commit step
/// hangs up, searching each on its own forked engine. A panicking
/// search is handed to the commit step to re-raise.
fn search_worker(
    search: &Search<'_, '_>,
    faults: &[Fault],
    podem: &mut dyn AtpgEngine,
    jobs: &Mutex<mpsc::Receiver<usize>>,
    results: &mpsc::Sender<std::thread::Result<Speculated>>,
) {
    loop {
        // Hold the queue lock only while dequeueing.
        let Ok(idx) = jobs.lock().expect("job queue poisoned").recv() else {
            return; // the commit step hung up
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            search.speculate(podem, idx, faults[idx])
        }));
        let panicked = result.is_err();
        if results.send(result).is_err() || panicked {
            return;
        }
    }
}

/// Runs the search phase through one commit loop. With more than one
/// fault-sim worker thread and an ATPG engine that forks, that many
/// scoped workers search ahead of the commit point on forked engines
/// (the commit step searches on a fork of its own); otherwise every
/// search runs inline on `podem`. Either way `podem` ends up reporting
/// the counters of the committed searches. Returns the loop's result,
/// the worker count (1 when inline) and the discarded-search count.
fn search_faults(
    commit: &mut Commit<'_, '_, '_>,
    faults: &[Fault],
    podem: &mut dyn AtpgEngine,
    threads: usize,
) -> (Result<(), CancelCause>, usize, u64) {
    let mut forks = Vec::new();
    if threads > 1 {
        while forks.len() <= threads {
            match podem.fork() {
                Some(f) => forks.push(f),
                None => break,
            }
        }
    }
    if forks.len() < 2 {
        drop(forks);
        return (commit.run(faults, podem, None), 1, 0);
    }
    let mut local = forks.pop().expect("at least two forks");
    let workers = forks.len();
    let (job_tx, job_rx) = mpsc::channel();
    let job_rx = Mutex::new(job_rx);
    let (result_tx, result_rx) = mpsc::channel();
    let search = commit.search;
    let (result, discarded, work) = std::thread::scope(|scope| {
        for mut fork in forks {
            let results = result_tx.clone();
            let job_rx = &job_rx;
            scope.spawn(move || {
                search_worker(search, faults, &mut *fork, job_rx, &results);
            });
        }
        drop(result_tx);
        // Built inside the scope: if the commit loop unwinds, dropping
        // the job sender releases the workers before the scope joins.
        let mut pipe = Pipeline {
            jobs: job_tx,
            results: result_rx,
            window: LOOKAHEAD_PER_WORKER * workers,
            dispatched: VecDeque::new(),
            next: 0,
            ready: HashMap::new(),
            discarded: 0,
            work: AtpgKernelStats::default(),
        };
        let result = commit.run(faults, &mut *local, Some(&mut pipe));
        let (discarded, work) = pipe.finish();
        (result, discarded, work)
    });
    let mut committed = local.kernel_stats();
    committed += work;
    drop(local);
    podem.absorb_stats(committed);
    (result, workers, discarded)
}

/// Fault-simulates one batch of same-procedure patterns against every
/// undetected fault.
#[allow(clippy::too_many_arguments)]
fn flush_batch(
    model: &CaptureModel<'_>,
    engine: &mut dyn FaultSimEngine,
    patterns: &PatternSet,
    procedures: &[FrameSpec],
    pi: usize,
    batch: &mut Vec<usize>,
    list: &mut FaultList,
    stats: &mut AtpgStats,
) {
    if batch.is_empty() {
        return;
    }
    stats.fsim_batches += 1;
    let pats: Vec<Pattern> = batch
        .iter()
        .map(|&i| patterns.patterns()[i].clone())
        .collect();
    let good = simulate_good(model, &procedures[pi], &pats);
    // Grade every non-detected fault, including aborted/untestable
    // verdicts from other procedures: fortuitous detection overrides.
    let candidates: Vec<occ_fault::Fault> = list
        .iter()
        .filter(|(_, s)| !s.is_detected())
        .map(|(f, _)| f)
        .collect();
    apply_detections(engine, &procedures[pi], &good, &candidates, list, |bit| {
        batch[bit] as u32
    });
    batch.clear();
}

/// Reverse-order static compaction: grade patterns from last to first,
/// keep only those that newly detect something, then re-grade the kept
/// set front-to-back for final statuses and pattern indices. Grading
/// goes through the same pluggable [`FaultSimEngine`] as the main flow.
#[allow(clippy::too_many_arguments)]
fn reverse_compact(
    model: &CaptureModel<'_>,
    procedures: &[FrameSpec],
    patterns: &PatternSet,
    list: &FaultList,
    engine: &mut dyn FaultSimEngine,
    stats: &mut AtpgStats,
    cancel: &CancelToken,
) -> Result<(PatternSet, FaultList), CancelCause> {
    let mut shadow = FaultList::new(list.universe().clone());
    let mut keep: Vec<usize> = Vec::new();
    for idx in (0..patterns.len()).rev() {
        if let Some(cause) = cancel.cause() {
            return Err(cause);
        }
        let p = &patterns.patterns()[idx];
        let spec = &procedures[p.proc_index];
        let good = simulate_good(model, spec, std::slice::from_ref(p));
        stats.fsim_batches += 1;
        let undetected: Vec<occ_fault::Fault> = shadow.undetected().collect();
        let masks = engine.detect_batch(spec, &good, &undetected);
        let mut contributes = false;
        for (&fault, &mask) in undetected.iter().zip(&masks) {
            if mask & 1 == 1 {
                shadow.set_status(fault, FaultStatus::Detected { pattern: 0 });
                contributes = true;
            }
        }
        if contributes {
            keep.push(idx);
        }
    }
    keep.sort_unstable();

    let mut compacted = PatternSet::new(procedures.to_vec());
    for &idx in &keep {
        compacted.push(patterns.patterns()[idx].clone());
    }

    // Final grading pass over the kept set, preserving the ATPG's
    // untestable/aborted verdicts for whatever stays undetected.
    let mut final_list = FaultList::new(list.universe().clone());
    for (pi, spec) in procedures.iter().enumerate() {
        let idxs: Vec<usize> = (0..compacted.len())
            .filter(|&i| compacted.patterns()[i].proc_index == pi)
            .collect();
        for chunk in idxs.chunks(64) {
            if let Some(cause) = cancel.cause() {
                return Err(cause);
            }
            stats.fsim_batches += 1;
            let pats: Vec<Pattern> = chunk
                .iter()
                .map(|&i| compacted.patterns()[i].clone())
                .collect();
            let good = simulate_good(model, spec, &pats);
            let undetected: Vec<occ_fault::Fault> = final_list.undetected().collect();
            apply_detections(engine, spec, &good, &undetected, &mut final_list, |bit| {
                chunk[bit] as u32
            });
        }
    }
    // Carry over proven classifications.
    for (fault, status) in list.iter() {
        if final_list.status(fault) == FaultStatus::Undetected {
            match status {
                FaultStatus::Untestable => final_list.set_status(fault, FaultStatus::Untestable),
                FaultStatus::Aborted => final_list.set_status(fault, FaultStatus::Aborted),
                FaultStatus::Constrained => final_list.set_status(fault, FaultStatus::Constrained),
                _ => {}
            }
        }
    }
    // See run_atpg: a live token here proves no truncation.
    if let Some(cause) = cancel.cause() {
        return Err(cause);
    }
    Ok((compacted, final_list))
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_fault::FaultUniverse;
    use occ_fsim::{ClockBinding, CycleSpec, FaultSim, ParallelFaultSim};
    use occ_netlist::NetlistBuilder;

    fn rig() -> (occ_netlist::Netlist, occ_netlist::CellId) {
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

    fn run_serial(
        model: &CaptureModel<'_>,
        procs: &[FrameSpec],
        universe: FaultUniverse,
        options: &AtpgOptions,
    ) -> AtpgResult {
        let mut engine = FaultSim::new(model);
        let mut podem = crate::CompiledPodem::new(model);
        run_atpg_cancellable(
            model,
            procs,
            universe,
            options,
            &mut engine,
            &mut podem,
            &[],
            &CancelToken::never(),
        )
        .expect("a never-token cannot trip")
    }

    #[test]
    fn stuck_at_flow_reaches_high_coverage() {
        let (nl, clk) = rig();
        let mut binding = ClockBinding::new();
        binding.add_domain("c", clk);
        binding.constrain(nl.find("se").unwrap(), Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        let model = CaptureModel::new(&nl, binding).unwrap();
        let procs = vec![FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])])];
        let result = run_serial(
            &model,
            &procs,
            FaultUniverse::stuck_at(&nl),
            &AtpgOptions::default(),
        );
        let report = result.report();
        // Small clean circuit: everything should resolve, coverage high.
        assert!(report.coverage_pct() > 80.0, "report: {report}");
        assert!(report.efficiency_pct() > 99.0, "report: {report}");
        assert!(!result.patterns.is_empty());
        // Every detected fault's pattern index is in range.
        for (_, status) in result.faults.iter() {
            if let FaultStatus::Detected { pattern } = status {
                assert!((pattern as usize) < result.patterns.len());
            }
        }
    }

    #[test]
    fn transition_flow_generates_two_frame_tests() {
        let (nl, clk) = rig();
        let mut binding = ClockBinding::new();
        binding.add_domain("c", clk);
        binding.constrain(nl.find("se").unwrap(), Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        let model = CaptureModel::new(&nl, binding).unwrap();
        let procs = vec![FrameSpec::broadside("loc", &[0], 2)
            .hold_pi(true)
            .observe_po(false)];
        let result = run_serial(
            &model,
            &procs,
            FaultUniverse::transition(&nl),
            &AtpgOptions::default(),
        );
        let report = result.report();
        assert!(report.detected > 0);
        assert!(report.efficiency_pct() > 95.0, "report: {report}");
    }

    #[test]
    fn compaction_never_reduces_coverage() {
        let (nl, clk) = rig();
        let mut binding = ClockBinding::new();
        binding.add_domain("c", clk);
        binding.constrain(nl.find("se").unwrap(), Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        let model = CaptureModel::new(&nl, binding).unwrap();
        let procs = vec![FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])])];
        let uni = FaultUniverse::stuck_at(&nl);
        let with = run_serial(
            &model,
            &procs,
            uni.clone(),
            &AtpgOptions {
                compaction: true,
                ..AtpgOptions::default()
            },
        );
        let without = run_serial(
            &model,
            &procs,
            uni,
            &AtpgOptions {
                compaction: false,
                ..AtpgOptions::default()
            },
        );
        assert_eq!(with.report().detected, without.report().detected);
        assert!(with.patterns.len() <= without.patterns.len());
    }

    #[test]
    fn serial_and_sharded_engines_agree_end_to_end() {
        // The whole ATPG flow — bootstrap, PODEM drop, compaction —
        // must be invariant under the engine choice.
        let (nl, clk) = rig();
        let mut binding = ClockBinding::new();
        binding.add_domain("c", clk);
        binding.constrain(nl.find("se").unwrap(), Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        let model = CaptureModel::new(&nl, binding).unwrap();
        let procs = vec![FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])])];
        let uni = FaultUniverse::stuck_at(&nl);
        let options = AtpgOptions::default();

        let serial = run_serial(&model, &procs, uni.clone(), &options);
        let mut sharded_engine = ParallelFaultSim::with_threads(&model, 4).block_size(2);
        let mut podem = crate::CompiledPodem::new(&model);
        let sharded = run_atpg_cancellable(
            &model,
            &procs,
            uni,
            &options,
            &mut sharded_engine,
            &mut podem,
            &[],
            &CancelToken::never(),
        )
        .expect("a never-token cannot trip");

        assert_eq!(serial.report(), sharded.report());
        assert_eq!(serial.patterns.len(), sharded.patterns.len());
        assert_eq!(serial.stats, sharded.stats);
        for (fault, status) in serial.faults.iter() {
            assert_eq!(status, sharded.faults.status(fault), "fault {fault}");
        }
    }
}
