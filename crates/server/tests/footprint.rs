//! What one cached design costs, measured by a counting allocator.
//!
//! Each cold `analyze` leaves exactly one compiled design in the
//! artifact cache. The test binary's global allocator counts live bytes
//! and live allocations (frees included), so the heap a design keeps is
//! the difference across its submit. Allocation sizes are
//! deterministic, so these numbers are the same on every host and the
//! gate needs no hardware normalization. It holds two things:
//!
//! - the compact netlist layout stays within its per-design budget;
//! - the cache's byte estimate ([`DesignAnalysis::graph_bytes`], the
//!   unit of `cache_budget` and of the `occ_cache_resident_bytes`
//!   gauge) stays within 20% of the heap it stands for.
//!
//! The binary holds a single test: the counters are process-wide.
//!
//! [`DesignAnalysis::graph_bytes`]: occ_server::DesignAnalysis

use occ_server::{FlowService, JobSpec};
use occ_soc::SocConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCS: AtomicIsize = AtomicIsize::new(0);

/// A [`System`] wrapper tracking live requested bytes and live
/// allocation count.
struct LiveAlloc;

fn grow(bytes: usize, allocs: isize) {
    LIVE_BYTES.fetch_add(bytes as isize, Ordering::Relaxed);
    LIVE_ALLOCS.fetch_add(allocs, Ordering::Relaxed);
}

fn shrink(bytes: usize, allocs: isize) {
    LIVE_BYTES.fetch_sub(bytes as isize, Ordering::Relaxed);
    LIVE_ALLOCS.fetch_sub(allocs, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; the counters are side effects.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size(), 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size(), 1);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size(), 1);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size(), 0);
        grow(new_size, 0);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveAlloc = LiveAlloc;

fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_ALLOCS.load(Ordering::Relaxed),
    )
}

/// Cold designs measured (past one warm-up design).
const DESIGNS: u64 = 120;
/// Live heap one cached 16/24-flop design may keep: 52 KiB.
const MAX_BYTES: isize = 52 * 1024;
/// Live allocations one cached design may keep.
const MAX_ALLOCS: isize = 250;
/// How far the cache's estimate may stray from the measured heap.
const ESTIMATE_TOLERANCE: f64 = 0.20;

fn analyze(seed: u64) -> JobSpec {
    let flops = if seed.is_multiple_of(2) { 16 } else { 24 };
    let mut job = JobSpec::new(SocConfig::paper_like(5_000 + seed, flops));
    job.analyze_only = true;
    job
}

#[test]
fn a_cached_design_stays_small_and_is_counted_honestly() {
    let service = FlowService::new(0);
    // The first job pays one-time costs (lazy statics, the cache's
    // shard maps); charge them to no measured design.
    service.submit(&analyze(0)).expect("warm-up design builds");

    let mut worst = (0, 0, 0.0_f64);
    for seed in 1..=DESIGNS {
        let job = analyze(seed);
        let (bytes0, allocs0) = live();
        let cache0 = service.cache_stats().bytes;
        let outcome = service.submit(&job).expect("analyze succeeds");
        assert!(!outcome.cache.design_hit, "design {seed} must be cold");
        let estimate = outcome.analysis.graph_bytes;
        let cells = outcome.analysis.cells;
        drop(outcome);
        let (bytes1, allocs1) = live();
        let kept = bytes1 - bytes0;
        let allocs = allocs1 - allocs0;
        assert_eq!(
            service.cache_stats().bytes - cache0,
            estimate,
            "the cache charges the design its estimate"
        );
        let error = (estimate as f64 - kept as f64).abs() / kept as f64;
        assert!(
            error <= ESTIMATE_TOLERANCE,
            "design {seed} ({cells} cells): estimate {estimate} B vs {kept} B kept ({:.1}% off)",
            error * 100.0
        );
        assert!(
            kept <= MAX_BYTES,
            "design {seed} ({cells} cells) keeps {kept} B of heap (budget {MAX_BYTES})"
        );
        assert!(
            allocs <= MAX_ALLOCS,
            "design {seed} ({cells} cells) keeps {allocs} allocations (budget {MAX_ALLOCS})"
        );
        worst = (worst.0.max(kept), worst.1.max(allocs), worst.2.max(error));
    }
    eprintln!(
        "footprint: worst of {DESIGNS} designs: {} B kept, {} allocations, estimate {:.1}% off",
        worst.0,
        worst.1,
        worst.2 * 100.0
    );
}
