//! The content-addressed compiled-design cache.
//!
//! Jobs on the same design repeat the same expensive compile work:
//! netlist generation, scan insertion and graph levelization. This
//! cache keeps each compiled [`DesignArtifact`] under its
//! [`design_hash`](crate::design_hash) and hands out `Arc` clones, so
//! a warm job compiles no design at all. It holds nothing else: a
//! flow's capture procedures and delay table cost microseconds to
//! build (see [`FlowService`](crate::FlowService)), so every job builds
//! its own.
//!
//! ## Concurrency
//!
//! The map is split into [`SHARDS`] shards, each behind its own
//! `Mutex` — jobs on different designs hash to different shards (with
//! high probability) and never serialize on the cache. Within a shard,
//! a *build in progress* is represented explicitly: the first thread
//! to miss inserts a `Building` marker and compiles **outside the
//! lock**; concurrent requests for the same key block on the shard's
//! `Condvar` instead of duplicating the build. This keeps hit/miss
//! counters deterministic (one miss per distinct key, ever — asserted
//! by the concurrent stress tests) and bounds memory (never two copies
//! of one design). A build that fails or panics removes its marker
//! on unwind, so waiters see the slot empty and retry the build rather
//! than hanging.
//!
//! ## Eviction
//!
//! Each shard owns `budget / SHARDS` bytes. On insert, the shard
//! evicts its least-recently-used **ready** entries (never the one
//! just inserted, never a `Building` marker) until back under budget.
//! Because values are `Arc`s, eviction only drops the cache's
//! reference — jobs holding the design keep it alive and complete
//! unaffected; the bytes are reclaimed when the last job drops it.

use crate::design::DesignArtifact;
use occ_flow::FlowError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Shard count. A small power of two: enough that concurrent jobs on
/// different designs almost never share a lock, small enough that a
/// stats snapshot is cheap.
pub const SHARDS: usize = 8;

/// Hit/miss/eviction counters of the design cache (a snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Requests served from a ready entry (including threads that
    /// waited out a concurrent build).
    pub hits: u64,
    /// Requests that performed the build.
    pub misses: u64,
    /// Entries evicted under byte-budget pressure.
    pub evictions: u64,
}

/// A full cache snapshot: counters plus occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Design-artifact lookups.
    pub design: KindCounters,
    /// Ready entries currently resident.
    pub entries: usize,
    /// Approximate resident bytes.
    pub bytes: usize,
}

#[derive(Debug)]
enum Slot {
    /// A build is in flight on another thread; wait on the condvar.
    Building,
    Ready {
        value: Arc<DesignArtifact>,
        bytes: usize,
        /// Last-touch stamp (global monotonic counter) — the LRU key.
        stamp: u64,
    },
}

#[derive(Debug, Default)]
struct Shard {
    slots: HashMap<u64, Slot>,
    bytes: usize,
}

#[derive(Debug, Default)]
struct ShardLock {
    shard: Mutex<Shard>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The sharded, byte-budgeted design cache. Shared across job
/// workers and client connections behind an `Arc` (all methods take
/// `&self`).
#[derive(Debug)]
pub struct ArtifactCache {
    shards: Vec<ShardLock>,
    /// Per-shard byte budget; 0 = unlimited.
    shard_budget: usize,
    stamp: AtomicU64,
    counters: Counters,
}

impl ArtifactCache {
    /// Creates a cache with a total byte budget (0 = unlimited). The
    /// budget is split evenly across shards.
    #[must_use]
    pub fn new(byte_budget: usize) -> Self {
        ArtifactCache {
            shards: (0..SHARDS).map(|_| ShardLock::default()).collect(),
            shard_budget: byte_budget / SHARDS,
            stamp: AtomicU64::new(0),
            counters: Default::default(),
        }
    }

    fn shard_of(&self, key: u64) -> &ShardLock {
        // High bits: FNV mixes low bits least.
        &self.shards[(key >> 56) as usize % SHARDS]
    }

    fn touch(&self) -> u64 {
        self.stamp.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up the design under `key` (its
    /// [`design_hash`](crate::design_hash)), building and caching it on
    /// a miss. Returns the design plus whether this call was a hit.
    /// Concurrent callers with the same key build once: the rest block
    /// until the build completes and count as hits.
    ///
    /// # Errors
    ///
    /// Propagates the builder's [`FlowError`]; nothing is cached and
    /// waiting threads retry their own build.
    ///
    /// # Panics
    ///
    /// Panics if a lock was poisoned (a builder panicked while the
    /// cache itself held no lock — only eviction code runs locked).
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<DesignArtifact, FlowError>,
    ) -> Result<(Arc<DesignArtifact>, bool), FlowError> {
        let lock = self.shard_of(key);
        let mut shard = lock.shard.lock().expect("cache shard poisoned");
        loop {
            match shard.slots.get_mut(&key) {
                Some(Slot::Ready { value, stamp, .. }) => {
                    *stamp = self.touch();
                    let value = Arc::clone(value);
                    drop(shard);
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    occ_obs::metrics().cache_hits.inc();
                    let _hit_span = occ_obs::span("cache.hit");
                    return Ok((value, true));
                }
                Some(Slot::Building) => {
                    shard = lock.ready.wait(shard).expect("cache shard poisoned");
                }
                None => {
                    shard.slots.insert(key, Slot::Building);
                    break;
                }
            }
        }
        drop(shard);

        // Build outside the lock; the guard clears the Building marker
        // on *any* exit that did not store a value (error or panic),
        // so waiters never deadlock on an abandoned build.
        let guard = BuildGuard {
            lock,
            key,
            armed: true,
        };
        let mut build_span = occ_obs::span("cache.build");
        let value = Arc::new(build()?);
        let bytes = value.approx_bytes();
        build_span.attr_u64("bytes", bytes as u64);
        drop(build_span);
        self.store(key, Arc::clone(&value), bytes, guard);
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        occ_obs::metrics().cache_misses.inc();
        Ok((value, false))
    }

    fn store(&self, key: u64, value: Arc<DesignArtifact>, bytes: usize, mut guard: BuildGuard<'_>) {
        let lock = guard.lock;
        let mut shard = lock.shard.lock().expect("cache shard poisoned");
        shard.slots.insert(
            key,
            Slot::Ready {
                value,
                bytes,
                stamp: self.touch(),
            },
        );
        shard.bytes += bytes;
        guard.armed = false;

        // Evict LRU ready entries (never the one just inserted) until
        // back under budget.
        if self.shard_budget > 0 {
            while shard.bytes > self.shard_budget {
                let victim = shard
                    .slots
                    .iter()
                    .filter_map(|(&k, slot)| match slot {
                        Slot::Ready { stamp, .. } if k != key => Some((*stamp, k)),
                        _ => None,
                    })
                    .min();
                let Some((_, vk)) = victim else { break };
                if let Some(Slot::Ready { bytes, .. }) = shard.slots.remove(&vk) {
                    shard.bytes -= bytes;
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                    occ_obs::metrics().cache_evictions.inc();
                }
            }
        }
        drop(shard);
        lock.ready.notify_all();
    }

    /// A consistent-enough snapshot of counters and occupancy (shards
    /// are visited one at a time; counters are monotonic).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let design = KindCounters {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        };
        let mut entries = 0;
        let mut bytes = 0;
        for lock in &self.shards {
            let shard = lock.shard.lock().expect("cache shard poisoned");
            entries += shard
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            bytes += shard.bytes;
        }
        CacheStats {
            design,
            entries,
            bytes,
        }
    }
}

/// Removes an in-flight `Building` marker if the build never stored a
/// value (builder error or panic) and wakes waiters so one of them
/// retries.
struct BuildGuard<'c> {
    lock: &'c ShardLock,
    key: u64,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut shard) = self.lock.shard.lock() {
                if matches!(shard.slots.get(&self.key), Some(Slot::Building)) {
                    shard.slots.remove(&self.key);
                }
            }
            self.lock.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_soc::SocConfig;

    fn tiny(seed: u64) -> Result<DesignArtifact, FlowError> {
        Ok(DesignArtifact::build(&SocConfig::tiny(seed)))
    }

    #[test]
    fn caches_and_counts() {
        let cache = ArtifactCache::new(0);
        let (cold, hit) = cache.get_or_build(1, || tiny(1)).unwrap();
        assert!(!hit);
        let (warm, hit) = cache
            .get_or_build(1, || panic!("must not rebuild on hit"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&cold, &warm));
        let s = cache.stats();
        assert_eq!((s.design.hits, s.design.misses), (1, 1));
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, cold.approx_bytes());
    }

    #[test]
    fn failed_build_is_not_cached_and_unblocks() {
        let cache = ArtifactCache::new(0);
        let r = cache.get_or_build(2, || Err(FlowError::NoDomains));
        assert!(r.is_err());
        // The slot is free again: a retry builds.
        let (_, hit) = cache.get_or_build(2, || tiny(2)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn evicts_lru_under_budget() {
        // Budget so small any second entry in one shard must evict the
        // first. Keys differing only below bit 56 land in one shard.
        let cache = ArtifactCache::new(SHARDS); // 1 byte per shard
        cache.get_or_build(10, || tiny(10)).unwrap();
        cache.get_or_build(11, || tiny(11)).unwrap();
        let s = cache.stats();
        assert!(s.design.evictions >= 1, "{s:?}");
        // The newest entry survives its own insertion.
        let (_, hit) = cache.get_or_build(11, || tiny(11)).unwrap();
        assert!(hit);
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = Arc::new(ArtifactCache::new(0));
        let builds = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_build(42, move || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        tiny(42)
                    })
                    .unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!(s.design.misses, 1);
        assert_eq!(s.design.hits, 7);
    }
}
