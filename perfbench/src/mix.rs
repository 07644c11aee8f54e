//! Seeded inputs shared by the workloads: the analyze traffic mix, the
//! in-process service probe, and the statistics every run reports.

use crate::Run;
use occ_server::{FlowService, JobSpec};
use occ_soc::SocConfig;
use std::time::Instant;

/// splitmix64: a small seeded generator, so the inputs of a seed are
/// the same on every build.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Analyze requests come in blocks of this many, exactly one of them
/// naming a never-seen design (a cold build, about 5%).
pub const ANALYZE_BLOCK: usize = 20;

/// The analyze traffic of one seed: a warm design set that set-up
/// compiles, and a supply of never-seen designs of the same sizes.
pub struct AnalyzeMix {
    pub warm: Vec<SocConfig>,
    seed_base: u64,
    sizes: Vec<usize>,
}

impl AnalyzeMix {
    pub fn new(seed: u64, warm_designs: usize, sizes: &[usize]) -> AnalyzeMix {
        // Design seeds live far from the fixed workload designs.
        let seed_base = 1_000_000 + (seed % 1_000_000) * 100_000_000;
        let warm = (0..warm_designs)
            .map(|i| SocConfig::paper_like(seed_base + i as u64, sizes[i % sizes.len()]))
            .collect();
        AnalyzeMix {
            warm,
            seed_base,
            sizes: sizes.to_vec(),
        }
    }

    /// The `k`-th never-seen design of stream `stream` (one per client).
    pub fn cold(&self, stream: u64, k: u64) -> SocConfig {
        let seed = self.seed_base + 100_000 * (stream + 1) + k;
        SocConfig::paper_like(seed, self.sizes[k as usize % self.sizes.len()])
    }

    /// `n` analyze targets for one stream, in blocks of
    /// [`ANALYZE_BLOCK`]: `None` is the block's cold design, `Some(i)`
    /// a warm design.
    pub fn sequence(&self, rng: &mut Rng, n: usize) -> Vec<Option<usize>> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let cold = rng.below(ANALYZE_BLOCK);
            for i in 0..ANALYZE_BLOCK {
                out.push((i != cold).then(|| rng.below(self.warm.len())));
            }
        }
        out.truncate(n);
        out
    }
}

pub fn analyze_job(design: SocConfig) -> JobSpec {
    let mut job = JobSpec::new(design);
    job.analyze_only = true;
    job
}

/// In-process analyze latencies of the mix, without the wire. The
/// requests run in chunks, so that a run can spread them over its whole
/// length. Each chunk gets a fresh `FlowService` with the warm set
/// compiled, so the never-seen designs of earlier chunks do not pile up
/// in memory while the workload runs.
pub struct Probe {
    targets: Vec<Option<usize>>,
    done: usize,
    hits: u64,
    lookups: u64,
    pub hit_s: Vec<f64>,
    pub build_s: Vec<f64>,
}

impl Probe {
    pub fn new(mix: &AnalyzeMix, seed: u64, ops: usize) -> Probe {
        Probe {
            targets: mix.sequence(&mut Rng::new(seed, 0x9B0B), ops),
            done: 0,
            hits: 0,
            lookups: 0,
            hit_s: Vec::new(),
            build_s: Vec::new(),
        }
    }

    /// Submits the next `n` requests, timing each. A warm design must
    /// hit the cache and a cold one must miss.
    pub fn run(&mut self, mix: &AnalyzeMix, n: usize, run: &mut Run) {
        let end = (self.done + n).min(self.targets.len());
        if end == self.done {
            return;
        }
        let service = FlowService::new(0);
        for design in &mix.warm {
            service
                .submit(&analyze_job(design.clone()))
                .expect("warm designs build");
        }
        let before = service.cache_stats().design;
        for k in self.done..end {
            let target = self.targets[k];
            let design = match target {
                Some(i) => mix.warm[i].clone(),
                None => mix.cold(99, k as u64),
            };
            let job = analyze_job(design);
            let t = Instant::now();
            let outcome = service.submit(&job);
            let dt = t.elapsed().as_secs_f64();
            run.op(outcome.is_ok_and(|o| o.cache.design_hit == target.is_some()));
            if target.is_some() {
                self.hit_s.push(dt);
            } else {
                self.build_s.push(dt);
            }
        }
        let after = service.cache_stats().design;
        self.hits += after.hits - before.hits;
        self.lookups += after.hits + after.misses - before.hits - before.misses;
        self.done = end;
    }

    pub fn finish(&mut self, mix: &AnalyzeMix, run: &mut Run) {
        self.run(mix, self.targets.len(), run);
    }

    pub fn all_s(&self) -> Vec<f64> {
        self.hit_s.iter().chain(&self.build_s).copied().collect()
    }

    /// Sets the `server.cache.*` metrics: median hit and build times,
    /// and design-cache hits per lookup from `cache_stats()`.
    pub fn record_cache(&self, run: &mut Run) {
        run.set("server.cache.hit_us", median(&self.hit_s) * 1e6);
        run.set("server.cache.build_ms", median(&self.build_s) * 1e3);
        run.set(
            "server.cache.hit_frac",
            self.hits as f64 / self.lookups.max(1) as f64,
        );
    }
}

/// Runs `setup` `reps` times from cold, tearing the previous one down
/// outside the timing, and keeps the last. One set-up takes
/// milliseconds, too short to time once, so `setup_s` is the median of
/// many.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("reps > 0"), times)
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
