//! Deterministic fault injection for the daemon's chaos tests.
//!
//! A [`FaultPlan`] is a seeded registry of *injection sites* — named
//! points the serving path consults via [`FaultPlan::fire`]. Production
//! code runs with the default (empty) plan, where `fire` is a single
//! `Option` check; the chaos suite and the degraded-mode bench arm
//! sites with a [`Trigger`] and a [`FaultAction`] to reproduce the
//! failures the robustness layer must absorb:
//!
//! | site                  | consulted by                         | sensible actions |
//! |-----------------------|--------------------------------------|------------------|
//! | `cache.design.build`  | the design-artifact builder closure  | `Panic`, `Error` |
//! | `worker.job`          | the job-pool closure, before the job | `Panic`          |
//! | `flow.stage`          | the service, between design fetch and the flow | `DelayMs` |
//! | `tcp.write`           | the connection writer, per response  | `TornWrite`, `DropConn` |
//!
//! Everything is deterministic: `Nth` triggers count calls,
//! `Probability` triggers draw from a per-site xorshift stream seeded
//! by `plan seed ^ FNV(site name)` — the same plan replays the same
//! failures in the same order, so chaos assertions (cache never
//! poisons, reports stay byte-identical) hold under a fixed seed sweep.

use crate::hash::Fnv64;
use occ_flow::CancelToken;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an armed site does when its trigger fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Panic with this message (exercises `catch_unwind` seams: the
    /// cache's `BuildGuard`, the pool's worker isolation, the server's
    /// panic-payload capture).
    Panic(String),
    /// Return a typed error with this message (the builder-error path:
    /// nothing cached, waiters retry).
    Error(String),
    /// Sleep this many milliseconds, cooperatively (a virtual slow
    /// stage: polls the job's cancel token so deadlines still bound
    /// the wait).
    DelayMs(u64),
    /// Write only a prefix of the response bytes, then sever the
    /// connection (a torn TCP write).
    TornWrite,
    /// Sever the connection without writing the response.
    DropConn,
}

/// When an armed site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every call.
    Always,
    /// Exactly the `n`-th call (1-based), once.
    Nth(u64),
    /// Each call independently with probability `p`, drawn from the
    /// site's seeded xorshift stream.
    Probability(f64),
}

#[derive(Debug)]
struct Site {
    trigger: Trigger,
    action: FaultAction,
    calls: u64,
    fired: u64,
    rng: u64,
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    sites: Mutex<HashMap<String, Site>>,
}

/// A seeded fault-injection plan; see the module docs. Cloning shares
/// the plan (trigger state included), so the handle given to the
/// server and the one kept by the test observe the same counters.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    // `None` = the empty plan: `fire` costs one branch, no locking.
    inner: Option<Arc<Inner>>,
}

impl FaultPlan {
    /// The empty plan — no site ever fires (the production default).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying the seed its `Probability` triggers will
    /// draw from. Arm sites with [`FaultPlan::inject`].
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            inner: Some(Arc::new(Inner {
                seed,
                sites: Mutex::new(HashMap::new()),
            })),
        }
    }

    /// Arms `site` with a trigger and an action (builder-style; a plan
    /// built from [`FaultPlan::none`] gains a seed of 0). Re-injecting
    /// a site replaces its arming and resets its counters.
    #[must_use]
    pub fn inject(self, site: &str, trigger: Trigger, action: FaultAction) -> Self {
        let plan = if self.inner.is_some() {
            self
        } else {
            FaultPlan::seeded(0)
        };
        {
            let inner = plan.inner.as_ref().expect("plan was just seeded");
            let mut h = Fnv64::new();
            h.write_str(site);
            let rng = (inner.seed ^ h.finish()).max(1);
            inner.sites.lock().expect("fault plan poisoned").insert(
                site.to_owned(),
                Site {
                    trigger,
                    action,
                    calls: 0,
                    fired: 0,
                    rng,
                },
            );
        }
        plan
    }

    /// Consults `site`: counts the call and returns the armed action
    /// when the trigger fires. The hot path (empty plan, or site not
    /// armed) is one branch / one map probe.
    #[must_use]
    pub fn fire(&self, site: &str) -> Option<FaultAction> {
        let inner = self.inner.as_ref()?;
        let mut sites = inner.sites.lock().expect("fault plan poisoned");
        let slot = sites.get_mut(site)?;
        slot.calls += 1;
        let fires = match slot.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => slot.calls == n,
            Trigger::Probability(p) => next_unit(&mut slot.rng) < p,
        };
        if fires {
            slot.fired += 1;
            Some(slot.action.clone())
        } else {
            None
        }
    }

    /// How many times `site` has fired (0 for unarmed sites) — what
    /// chaos tests and the degraded-mode bench assert against.
    #[must_use]
    pub fn fired(&self, site: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|inner| {
                inner
                    .sites
                    .lock()
                    .expect("fault plan poisoned")
                    .get(site)
                    .map(|s| s.fired)
            })
            .unwrap_or(0)
    }

    /// How many times `site` has been consulted (fired or not).
    #[must_use]
    pub fn calls(&self, site: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|inner| {
                inner
                    .sites
                    .lock()
                    .expect("fault plan poisoned")
                    .get(site)
                    .map(|s| s.calls)
            })
            .unwrap_or(0)
    }
}

/// One xorshift64 step mapped to `[0, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    // 53 high-entropy bits → uniform double in [0, 1).
    #[allow(clippy::cast_precision_loss)]
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    unit
}

/// Sleeps `ms` milliseconds cooperatively: polls `cancel` every few
/// milliseconds and returns early once it trips, so an injected delay
/// never outlives the job's deadline by more than one poll interval.
pub fn cooperative_delay(ms: u64, cancel: &CancelToken) {
    const POLL_MS: u64 = 2;
    let mut remaining = ms;
    while remaining > 0 {
        if cancel.is_cancelled() {
            return;
        }
        let step = remaining.min(POLL_MS);
        std::thread::sleep(Duration::from_millis(step));
        remaining -= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        assert_eq!(plan.fire("cache.design.build"), None);
        assert_eq!(plan.fired("cache.design.build"), 0);
        assert_eq!(plan.calls("anything"), 0);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let plan = FaultPlan::seeded(1).inject(
            "worker.job",
            Trigger::Nth(2),
            FaultAction::Panic("boom".into()),
        );
        assert_eq!(plan.fire("worker.job"), None);
        assert_eq!(
            plan.fire("worker.job"),
            Some(FaultAction::Panic("boom".into()))
        );
        assert_eq!(plan.fire("worker.job"), None);
        assert_eq!(plan.fired("worker.job"), 1);
        assert_eq!(plan.calls("worker.job"), 3);
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).inject(
                "tcp.write",
                Trigger::Probability(0.3),
                FaultAction::DropConn,
            );
            (0..64).map(|_| plan.fire("tcp.write").is_some()).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds, different streams");
        let fired = run(7).iter().filter(|&&b| b).count();
        assert!((5..=30).contains(&fired), "p=0.3 over 64 draws: {fired}");
    }

    #[test]
    fn clones_share_trigger_state() {
        let plan = FaultPlan::seeded(3).inject(
            "cache.design.build",
            Trigger::Nth(1),
            FaultAction::Error("injected".into()),
        );
        let server_half = plan.clone();
        assert!(server_half.fire("cache.design.build").is_some());
        assert_eq!(plan.fired("cache.design.build"), 1);
    }

    #[test]
    fn cooperative_delay_honours_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let t0 = std::time::Instant::now();
        cooperative_delay(5_000, &token);
        assert!(t0.elapsed() < Duration::from_millis(500));
    }
}
