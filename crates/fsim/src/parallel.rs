//! Sharded PPSFP: fault-partition parallelism over the serial engine,
//! scheduled onto a **persistent worker pool**.
//!
//! PPSFP is embarrassingly parallel across *faults*: each fault's
//! detection mask depends only on the shared read-only inputs (the
//! compiled [`SimGraph`], the [`FrameSpec`] and the good-machine
//! batch), so the collapsed fault universe can be sharded across
//! worker threads with **no shared mutable state** — every worker owns
//! private [`FaultSim`] scratch arenas (value/stamp/bucket vectors)
//! which it reuses for all blocks it ever grades.
//!
//! The workers are spawned once, when the scheduler is created, and
//! live until it is dropped. Earlier revisions re-entered
//! `thread::scope` for every batch, which re-spawned (and re-allocated
//! the arenas of) every worker per call — exactly the wrong shape for
//! the many-small-batch ATPG phase. The pool instead holds an
//! `Arc<SimGraph>` per worker (the graph owns every compiled array, so
//! the threads need no borrow of the caller's model) and receives jobs
//! over a shared queue; per batch the inputs are shared with the
//! workers through three `Arc` clones.
//!
//! Two batch shapes run on the same pool:
//!
//! * [`ParallelFaultSim::detect_many`] — detection masks, graded on each
//!   worker's untimed engine;
//! * [`ParallelFaultSim::detect_many_timed`] — masks plus the longest
//!   sensitized path per fault, graded on a second, timed engine each
//!   worker keeps attached to the batch's [`SimTiming`] view (it is
//!   re-attached only when a batch brings a different view).
//!
//! Determinism: results are written back by fault index, so both are
//! bit-identical to the serial engine at any thread count and block
//! size, and the [`FaultStatus`] merge in [`ParallelFaultSim::grade`]
//! processes faults in universe order — thread scheduling can never
//! change a coverage report or a slack.
//!
//! Blocks are dealt from the shared queue, so an expensive cone
//! occupies one worker while the others drain the rest — better load
//! balance than any static striding, with the same deterministic
//! output.

use crate::cancel::CancelToken;
use crate::faultsim::FaultSim;
use crate::goodsim::GoodBatch;
use crate::graph::{KernelStats, SimGraph};
use crate::timing::{SimTiming, TimePs};
use crate::{CaptureModel, FrameSpec};
use occ_fault::{Fault, FaultList, FaultStatus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

/// Default number of faults per scheduling block.
const DEFAULT_BLOCK: usize = 128;

/// A pool worker's private engines, reused for every block it ever
/// grades.
struct Worker<'g> {
    graph: &'g SimGraph,
    untimed: FaultSim<'g>,
    // Built by the first timed block; kept attached to the view it last
    // graded under.
    timed: Option<FaultSim<'g>>,
}

impl<'g> Worker<'g> {
    /// The untimed engine, or the timed one attached to `timing`.
    fn engine(&mut self, timing: Option<&Arc<SimTiming>>) -> &mut FaultSim<'g> {
        let Some(view) = timing else {
            return &mut self.untimed;
        };
        let graph = self.graph;
        let engine = self
            .timed
            .get_or_insert_with(|| FaultSim::from_graph(graph));
        engine.keep_timing(view);
        engine
    }
}

/// One block of a batch, run on whichever worker dequeues it; it sends
/// its own result back.
type Job = Box<dyn for<'g> FnOnce(&mut Worker<'g>) + Send>;

/// What a block grades with: the engine's batch call over the shared
/// inputs.
type Grade<T> = fn(&mut FaultSim<'_>, &FrameSpec, &GoodBatch, &[Fault]) -> Vec<T>;

/// The persistent workers plus the sending half of their job queue.
#[derive(Debug)]
struct Pool {
    // `Option` so `Drop` can hang up the queue before joining.
    jobs: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    fn spawn(graph: &Arc<SimGraph>, threads: usize) -> Pool {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let graph = Arc::clone(graph);
                thread::spawn(move || {
                    let mut worker = Worker {
                        graph: &graph,
                        untimed: FaultSim::from_graph(&graph),
                        timed: None,
                    };
                    loop {
                        // Hold the queue lock only while dequeueing.
                        let Ok(job) = rx.lock().expect("job queue poisoned").recv() else {
                            break; // scheduler dropped
                        };
                        job(&mut worker);
                    }
                })
            })
            .collect();
        Pool {
            jobs: Some(tx),
            workers,
        }
    }

    fn submit(&self, job: Job) {
        self.jobs
            .as_ref()
            .expect("pool hung up")
            .send(job)
            .expect("fault-sim worker pool is gone");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Hang up the queue first so the blocked workers see the
        // disconnect, then reap them.
        self.jobs.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A fault-partition scheduler running the PPSFP engine on a persistent
/// pool of worker threads with per-thread scratch arenas.
///
/// # Examples
///
/// ```
/// use occ_netlist::{NetlistBuilder, Logic};
/// use occ_fault::FaultUniverse;
/// use occ_fsim::{ClockBinding, CaptureModel, FrameSpec, CycleSpec, Pattern,
///                simulate_good, FaultSim, ParallelFaultSim};
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
/// p.pis[0] = vec![Logic::One];
/// let good = simulate_good(&model, &spec, &[p]);
///
/// let faults = FaultUniverse::stuck_at(&nl).faults().to_vec();
/// let serial = FaultSim::new(&model).detect_many(&spec, &good, &faults);
/// let sharded = ParallelFaultSim::with_threads(&model, 4).detect_many(&spec, &good, &faults);
/// assert_eq!(serial, sharded);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParallelFaultSim<'g> {
    graph: &'g SimGraph,
    threads: usize,
    block: usize,
    // The persistent workers (absent when the scheduler is serial).
    pool: Option<Pool>,
    // Lazily-built serial engines reused across small-batch calls (the
    // ATPG compaction loop grades one pattern at a time, the timed
    // re-grade one 64-pattern chunk at a time; rebuilding the scratch
    // arenas per call would dominate). The timed one stays attached to
    // the view it last graded under.
    scratch: Option<FaultSim<'g>>,
    timed_scratch: Option<FaultSim<'g>>,
    // Kernel work counters merged back from worker shards (atomic so
    // `detect_many(&self)` can record them).
    faults_graded: AtomicU64,
    cone_pruned: AtomicU64,
    events: AtomicU64,
    timed_faults: AtomicU64,
    // Cooperative cancellation, shared with every worker per job (the
    // default token never trips).
    cancel: CancelToken,
}

impl<'g> ParallelFaultSim<'g> {
    /// Creates a scheduler with an explicit worker count (`0` and `1`
    /// both mean "run serially on the calling thread"). Workers are
    /// spawned immediately and live until the scheduler is dropped.
    pub fn with_threads(model: &'g CaptureModel<'_>, threads: usize) -> Self {
        let threads = threads.max(1);
        let pool = (threads > 1).then(|| Pool::spawn(&model.graph_arc(), threads));
        ParallelFaultSim {
            graph: model.graph(),
            threads,
            block: DEFAULT_BLOCK,
            pool,
            scratch: None,
            timed_scratch: None,
            faults_graded: AtomicU64::new(0),
            cone_pruned: AtomicU64::new(0),
            events: AtomicU64::new(0),
            timed_faults: AtomicU64::new(0),
            cancel: CancelToken::never(),
        }
    }

    /// Attaches a cooperative-cancellation token; every subsequent
    /// batch polls it at block boundaries (workers skip blocks once it
    /// trips and return zero masks). The caller is expected to discard
    /// the truncated batch after observing the trip.
    pub fn attach_cancel(&mut self, token: CancelToken) {
        for scratch in [&mut self.scratch, &mut self.timed_scratch]
            .into_iter()
            .flatten()
        {
            scratch.attach_cancel(token.clone());
        }
        self.cancel = token;
    }

    /// Kernel statistics aggregated over every shard this scheduler has
    /// run (plus the cached serial scratch engines, when used).
    pub fn kernel_stats(&self) -> KernelStats {
        let mut s = self.graph.static_stats();
        s.faults_graded = self.faults_graded.load(Ordering::Relaxed);
        s.cone_pruned = self.cone_pruned.load(Ordering::Relaxed);
        s.events = self.events.load(Ordering::Relaxed);
        s.timed_faults = self.timed_faults.load(Ordering::Relaxed);
        for scratch in [&self.scratch, &self.timed_scratch].into_iter().flatten() {
            s.absorb(&scratch.kernel_stats());
        }
        s
    }

    /// Overrides the scheduling block size (faults handed to a worker
    /// at a time). Mainly for tests; the default suits real designs.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub fn block_size(mut self, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        self.block = block;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool, when the batch is worth sharding: below roughly one
    /// block the cross-thread handoff cannot pay for itself.
    fn pool_for(&self, faults: &[Fault]) -> Option<&Pool> {
        self.pool.as_ref().filter(|_| faults.len() > self.block)
    }

    /// A cached serial engine, built with the scheduler's token.
    fn cached<'s>(
        slot: &'s mut Option<FaultSim<'g>>,
        graph: &'g SimGraph,
        cancel: &CancelToken,
    ) -> &'s mut FaultSim<'g> {
        slot.get_or_insert_with(|| {
            let mut engine = FaultSim::from_graph(graph);
            engine.attach_cancel(cancel.clone());
            engine
        })
    }

    /// Like [`ParallelFaultSim::detect_many`], but reuses a cached
    /// serial scratch arena for the small batches that fall below the
    /// sharding threshold (how the trait-object ATPG path calls in —
    /// static compaction grades one pattern at a time).
    pub fn detect_many_cached(
        &mut self,
        spec: &FrameSpec,
        good: &GoodBatch,
        faults: &[Fault],
    ) -> Vec<u64> {
        if self.pool_for(faults).is_none() {
            return Self::cached(&mut self.scratch, self.graph, &self.cancel)
                .detect_many(spec, good, faults);
        }
        self.detect_many(spec, good, faults)
    }

    /// Detects a batch of faults, returning one 64-bit mask per fault —
    /// bit-identical to [`FaultSim::detect_many`] at any thread count.
    // The closure handed to `shard` cannot be the method path: the
    // engine's lifetime is early-bound on the method, so the path does
    // not coerce to the higher-ranked `Grade`.
    #[allow(clippy::redundant_closure_for_method_calls)]
    pub fn detect_many(&self, spec: &FrameSpec, good: &GoodBatch, faults: &[Fault]) -> Vec<u64> {
        let Some(pool) = self.pool_for(faults) else {
            let mut engine = FaultSim::from_graph(self.graph);
            engine.attach_cancel(self.cancel.clone());
            let masks = engine.detect_many(spec, good, faults);
            self.merge_stats(&engine.kernel_stats());
            return masks;
        };

        // The workers run outside this thread's span scope, so the
        // whole sharded batch is one span on the calling thread.
        let mut batch_span = occ_obs::span("fsim.batch");
        batch_span.attr_u64("faults", faults.len() as u64);
        batch_span.attr_u64("patterns", good.n_patterns as u64);
        batch_span.attr_u64("threads", self.threads as u64);
        self.shard(
            pool,
            spec,
            good,
            faults,
            None,
            |engine, spec, good, faults| engine.detect_many(spec, good, faults),
        )
    }

    /// Detects a batch of faults on the timed path: per fault, the
    /// detection mask and the longest sensitized path in ps — exactly
    /// what [`FaultSim::detect`] followed by
    /// [`FaultSim::last_path_ps`] returns on a serial engine with
    /// `timing` attached, at any thread count and block size.
    ///
    /// Pool workers grade on a timed engine each keeps attached to
    /// `timing`, so consecutive batches under one view (the flow's
    /// re-grade, 64 patterns at a time) re-attach nothing. With one
    /// thread, or below one block, the batch runs inline on a cached
    /// timed scratch engine. A tripped cancellation token zeroes the
    /// remaining pairs, as in [`ParallelFaultSim::detect_many`].
    #[allow(clippy::redundant_closure_for_method_calls)] // as in `detect_many`
    pub fn detect_many_timed(
        &mut self,
        spec: &FrameSpec,
        good: &GoodBatch,
        faults: &[Fault],
        timing: &Arc<SimTiming>,
    ) -> Vec<(u64, TimePs)> {
        let Some(pool) = self.pool_for(faults) else {
            let engine = Self::cached(&mut self.timed_scratch, self.graph, &self.cancel);
            engine.keep_timing(timing);
            return engine.detect_many_timed(spec, good, faults);
        };
        self.shard(
            pool,
            spec,
            good,
            faults,
            Some(timing),
            |engine, spec, good, faults| engine.detect_many_timed(spec, good, faults),
        )
    }

    /// Deals `faults` to the pool in blocks; each block runs `grade` on
    /// a worker's untimed engine, or on its timed engine when `timing`
    /// is given. Results are merged by fault index, so the output does
    /// not depend on which worker took which block.
    fn shard<T: Copy + Default + Send + 'static>(
        &self,
        pool: &Pool,
        spec: &FrameSpec,
        good: &GoodBatch,
        faults: &[Fault],
        timing: Option<&Arc<SimTiming>>,
        grade: Grade<T>,
    ) -> Vec<T> {
        // Share the batch inputs with the pool; the clones live only as
        // long as the slowest worker needs them.
        let spec = Arc::new(spec.clone());
        let good = Arc::new(good.clone());
        let faults = Arc::new(faults.to_vec());
        let (tx, rx) = mpsc::channel();
        let n_blocks = faults.len().div_ceil(self.block);
        for b in 0..n_blocks {
            let start = b * self.block;
            let end = (start + self.block).min(faults.len());
            let (spec, good, faults) = (Arc::clone(&spec), Arc::clone(&good), Arc::clone(&faults));
            let (timing, cancel, tx) = (timing.cloned(), self.cancel.clone(), tx.clone());
            pool.submit(Box::new(move |worker: &mut Worker<'_>| {
                let engine = worker.engine(timing.as_ref());
                let before = engine.kernel_stats();
                // A tripped token short-circuits the block: zeros, no
                // grading. The caller observes the trip and discards
                // the whole batch.
                let out = if cancel.is_cancelled() {
                    vec![T::default(); end - start]
                } else {
                    engine.attach_cancel(cancel);
                    grade(engine, &spec, &good, &faults[start..end])
                };
                let after = engine.kernel_stats();
                let delta = KernelStats {
                    faults_graded: after.faults_graded - before.faults_graded,
                    cone_pruned: after.cone_pruned - before.cone_pruned,
                    events: after.events - before.events,
                    timed_faults: after.timed_faults - before.timed_faults,
                    ..KernelStats::default()
                };
                // A send error means the caller gave up on the batch;
                // keep serving the queue.
                let _ = tx.send((start, out, delta));
            }));
        }
        drop(tx);

        // Deterministic merge: each block owns a disjoint index range.
        let mut out = vec![T::default(); faults.len()];
        for _ in 0..n_blocks {
            let (start, part, stats) = rx.recv().expect("fault-sim worker panicked");
            self.merge_stats(&stats);
            out[start..start + part.len()].copy_from_slice(&part);
        }
        out
    }

    fn merge_stats(&self, stats: &KernelStats) {
        self.faults_graded
            .fetch_add(stats.faults_graded, Ordering::Relaxed);
        self.cone_pruned
            .fetch_add(stats.cone_pruned, Ordering::Relaxed);
        self.events.fetch_add(stats.events, Ordering::Relaxed);
        self.timed_faults
            .fetch_add(stats.timed_faults, Ordering::Relaxed);
    }

    /// Grades every fault of `list` that is not yet detected against
    /// the batch and merges the detection masks into [`FaultStatus`]:
    /// a fault with a non-zero mask becomes
    /// `Detected { pattern: pattern_of_bit(lowest set bit) }`.
    ///
    /// The merge walks faults in universe order, so the resulting
    /// statuses are independent of thread count and scheduling. Returns
    /// the number of faults newly marked detected.
    pub fn grade(
        &self,
        spec: &FrameSpec,
        good: &GoodBatch,
        list: &mut FaultList,
        mut pattern_of_bit: impl FnMut(usize) -> u32,
    ) -> usize {
        let candidates: Vec<Fault> = list
            .iter()
            .filter(|(_, s)| !s.is_detected())
            .map(|(f, _)| f)
            .collect();
        let masks = self.detect_many(spec, good, &candidates);
        let mut newly = 0;
        for (fault, mask) in candidates.into_iter().zip(masks) {
            if mask != 0 {
                let bit = mask.trailing_zeros() as usize;
                list.set_status(
                    fault,
                    FaultStatus::Detected {
                        pattern: pattern_of_bit(bit),
                    },
                );
                newly += 1;
            }
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_good, ClockBinding, CycleSpec, Pattern};
    use occ_fault::FaultUniverse;
    use occ_netlist::{Logic, NetlistBuilder};

    /// A few dozen gates with reconvergence, scan flops and a PO.
    fn rig() -> occ_netlist::Netlist {
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let se = b.input("se");
        let si = b.input("si");
        let mut prev = si;
        let mut taps = Vec::new();
        for i in 0..8 {
            let d = b.input(&format!("d{i}"));
            let f = b.sdff(d, clk, se, prev);
            let g = b.xor2(f, d);
            let h = b.and2(g, f);
            taps.push(h);
            prev = f;
        }
        let mut acc = taps[0];
        for &t in &taps[1..] {
            acc = b.or2(acc, t);
        }
        let fout = b.sdff(acc, clk, se, prev);
        b.output("po", acc);
        b.output("q", fout);
        b.finish().unwrap()
    }

    fn check_identical(threads: usize, block: usize) {
        let nl = rig();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", nl.find("clk").unwrap());
        binding.constrain(nl.find("se").unwrap(), Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        let model = CaptureModel::new(&nl, binding).unwrap();
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);

        let n_scan = model.scan_flops().len();
        let mut patterns = Vec::new();
        for i in 0..16u64 {
            let mut p = Pattern::empty(&model, &spec, 0);
            p.scan_load = (0..n_scan)
                .map(|s| Logic::from_bool((i >> (s % 16)) & 1 == 1))
                .collect();
            for frame in &mut p.pis {
                for (j, v) in frame.iter_mut().enumerate() {
                    *v = Logic::from_bool((i + j as u64).is_multiple_of(3));
                }
            }
            patterns.push(p);
        }
        let good = simulate_good(&model, &spec, &patterns);
        let faults = FaultUniverse::stuck_at(&nl).faults().to_vec();

        let serial = FaultSim::new(&model).detect_many(&spec, &good, &faults);
        let sharded = ParallelFaultSim::with_threads(&model, threads)
            .block_size(block)
            .detect_many(&spec, &good, &faults);
        assert_eq!(serial, sharded, "threads={threads} block={block}");
        assert!(
            serial.iter().any(|&m| m != 0),
            "degenerate: nothing detected"
        );
    }

    #[test]
    fn sharded_masks_match_serial_across_thread_counts() {
        for threads in [1, 2, 3, 8] {
            check_identical(threads, 4);
        }
    }

    #[test]
    fn sharded_masks_match_serial_with_ragged_tail_block() {
        // Block sizes that do not divide the fault count exercise the
        // final short block.
        for block in [1, 3, 7, 64] {
            check_identical(4, block);
        }
    }

    #[test]
    fn pool_survives_many_batches() {
        // The persistent pool must serve repeated batches (the ATPG
        // shape) without respawning or wedging, and stay bit-identical.
        let nl = rig();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", nl.find("clk").unwrap());
        binding.constrain(nl.find("se").unwrap(), Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        let model = CaptureModel::new(&nl, binding).unwrap();
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
        let mut p = Pattern::empty(&model, &spec, 0);
        p.fill_x(|| Logic::One);
        let good = simulate_good(&model, &spec, &[p]);
        let faults = FaultUniverse::stuck_at(&nl).faults().to_vec();

        let mut serial = FaultSim::new(&model);
        let want = serial.detect_many(&spec, &good, &faults);
        let psim = ParallelFaultSim::with_threads(&model, 4).block_size(2);
        for round in 0..10 {
            let got = psim.detect_many(&spec, &good, &faults);
            assert_eq!(got, want, "round {round}");
        }
        let graded = psim.kernel_stats().faults_graded;
        assert_eq!(graded, 10 * faults.len() as u64);
    }

    /// A hand-made timing view over the rig: uneven delays and launch
    /// arrivals, so different cones record different paths.
    fn view(graph: &SimGraph, salt: u64) -> Arc<SimTiming> {
        let n = graph.cells() as u64;
        Arc::new(SimTiming::new(
            (0..n).map(|i| 5 + (i * 7 + salt) % 23).collect(),
            (0..n).map(|i| (i * 13 + salt) % 97).collect(),
        ))
    }

    /// `detect` + `last_path_ps` on a fresh serial engine with `view`.
    fn serial_timed(
        model: &CaptureModel<'_>,
        spec: &FrameSpec,
        good: &GoodBatch,
        faults: &[Fault],
        view: &Arc<SimTiming>,
    ) -> Vec<(u64, TimePs)> {
        let mut engine = FaultSim::new(model);
        engine.attach_timing(Arc::clone(view));
        faults
            .iter()
            .map(|&f| {
                let mask = engine.detect(spec, good, f);
                (mask, engine.last_path_ps())
            })
            .collect()
    }

    #[test]
    fn timed_batches_match_serial_at_any_thread_count_and_block() {
        let nl = rig();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", nl.find("clk").unwrap());
        binding.constrain(nl.find("se").unwrap(), Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        let model = CaptureModel::new(&nl, binding).unwrap();
        let n_scan = model.scan_flops().len();
        let cases = [
            (
                FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]),
                FaultUniverse::stuck_at(&nl),
            ),
            (
                FrameSpec::broadside("loc", &[0], 2),
                FaultUniverse::transition(&nl),
            ),
        ];
        for (spec, universe) in &cases {
            let patterns: Vec<Pattern> = (0..48u64)
                .map(|i| {
                    let mut p = Pattern::empty(&model, spec, 0);
                    p.scan_load = (0..n_scan)
                        .map(|s| Logic::from_bool((i * 5 + s as u64).is_multiple_of(3)))
                        .collect();
                    for frame in &mut p.pis {
                        for (j, v) in frame.iter_mut().enumerate() {
                            *v = Logic::from_bool((i + j as u64) % 4 < 2);
                        }
                    }
                    p
                })
                .collect();
            let good = simulate_good(&model, spec, &patterns);
            let faults = universe.faults().to_vec();
            let timing = view(model.graph(), 0);
            let want = serial_timed(&model, spec, &good, &faults, &timing);
            let masks = FaultSim::new(&model).detect_many(spec, &good, &faults);
            assert!(want.iter().any(|&(_, p)| p > 0), "{}: no path", spec.name());

            // The rig has fewer than 128 faults: that block size covers
            // the inline path at every thread count.
            for threads in [1, 2, 8] {
                for block in [1, 7, 128] {
                    let mut psim =
                        ParallelFaultSim::with_threads(&model, threads).block_size(block);
                    let got = psim.detect_many_timed(spec, &good, &faults, &timing);
                    let at = format!("{} threads={threads} block={block}", spec.name());
                    assert_eq!(got, want, "{at}");
                    let got_masks: Vec<u64> = got.iter().map(|&(m, _)| m).collect();
                    assert_eq!(got_masks, masks, "{at}");
                    assert_eq!(
                        psim.kernel_stats().timed_faults,
                        faults.len() as u64,
                        "{at}"
                    );
                    // A second view re-attaches; the first one again
                    // reproduces its own paths.
                    let other = view(model.graph(), 11);
                    let again = psim.detect_many_timed(spec, &good, &faults, &other);
                    assert_eq!(
                        again,
                        serial_timed(&model, spec, &good, &faults, &other),
                        "{at}"
                    );
                    assert_eq!(psim.detect_many_timed(spec, &good, &faults, &timing), want);
                }
            }
        }
    }

    #[test]
    fn a_tripped_token_zeroes_timed_batches() {
        let nl = rig();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", nl.find("clk").unwrap());
        binding.constrain(nl.find("se").unwrap(), Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        let model = CaptureModel::new(&nl, binding).unwrap();
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
        let mut p = Pattern::empty(&model, &spec, 0);
        p.fill_x(|| Logic::One);
        let good = simulate_good(&model, &spec, &[p]);
        let faults = FaultUniverse::stuck_at(&nl).faults().to_vec();
        let timing = view(model.graph(), 3);
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 2] {
            let mut psim = ParallelFaultSim::with_threads(&model, threads).block_size(4);
            psim.attach_cancel(token.clone());
            let got = psim.detect_many_timed(&spec, &good, &faults, &timing);
            assert_eq!(got, vec![(0, 0); faults.len()], "threads={threads}");
        }
    }

    #[test]
    fn grade_merges_in_universe_order() {
        let nl = rig();
        let mut binding = ClockBinding::new();
        binding.add_domain("a", nl.find("clk").unwrap());
        binding.constrain(nl.find("se").unwrap(), Logic::Zero);
        binding.mask(nl.find("si").unwrap());
        let model = CaptureModel::new(&nl, binding).unwrap();
        let spec = FrameSpec::new("sa", vec![CycleSpec::pulsing(&[0])]);
        let mut p = Pattern::empty(&model, &spec, 0);
        let n_scan = model.scan_flops().len();
        p.scan_load = (0..n_scan).map(|s| Logic::from_bool(s % 2 == 0)).collect();
        for frame in &mut p.pis {
            frame.fill(Logic::One);
        }
        let good = simulate_good(&model, &spec, &[p]);
        let uni = FaultUniverse::stuck_at(&nl);

        let mut serial_list = FaultList::new(uni.clone());
        let mut engine = FaultSim::new(&model);
        for fault in uni.faults().to_vec() {
            if engine.detect(&spec, &good, fault) != 0 {
                serial_list.set_status(fault, FaultStatus::Detected { pattern: 7 });
            }
        }

        for threads in [1, 2, 8] {
            let mut list = FaultList::new(uni.clone());
            let psim = ParallelFaultSim::with_threads(&model, threads).block_size(2);
            let newly = psim.grade(&spec, &good, &mut list, |_| 7);
            assert_eq!(newly, serial_list.report().detected, "threads={threads}");
            for (fault, status) in list.iter() {
                assert_eq!(status, serial_list.status(fault), "fault {fault}");
            }
        }
    }
}
