//! A bounded evaluation-reuse cache for the staged SA (the PR-5 tentpole).
//!
//! The staged search of [`treeopt`](crate::treeopt) revisits tree
//! configurations constantly: the incumbent is re-evaluated at every group
//! boundary, round winners are re-scored with the next stage's metric, and
//! small steps frequently regenerate a recently seen `(b1, b2)` vector.
//! Before this layer, every visit rebuilt the cooling network, re-ran the
//! hydraulic solve and re-assembled the thermal system from scratch.
//!
//! [`EvalCache`] memoizes two things per `(TreeConfig, ModelChoice)` key:
//!
//! * the **built artifacts** — the [`CoolingNetwork`] and a warm
//!   [`Evaluator`] (hydraulics + thermal assembly done once); and
//! * the **computed scores** — one `(value, operating point)` pair per
//!   [`ScoreKey`], so a repeated evaluation is a lookup, not a solve.
//!
//! Transparency is the design constraint: with the cache on, a search must
//! produce bit-for-bit the results it produces with the cache off. Score
//! memoization is transparent because evaluations are deterministic; reusing
//! a built evaluator for a *new* score key is made transparent by calling
//! [`Evaluator::reset_state`] first, which drops all warm-start history so
//! the probe sequence matches a freshly built evaluator exactly.
//!
//! The cache is bounded: past `capacity` entries, the least-recently-used
//! entry is evicted (a full evaluator holds a factored thermal system, so
//! unbounded growth would dominate memory on long schedules).

use crate::evaluate::{Evaluator, ModelChoice, OperatingPoint};
use crate::Problem;
use coolnet_network::builders::tree::TreeConfig;
use coolnet_network::CoolingNetwork;
use coolnet_obs::LazyCounter;
use coolnet_units::Pascal;
use std::sync::{Arc, Mutex};

/// Cache maps are keyed HashMaps on purpose: every access is an exact-key
/// lookup, and the one place iteration order could matter — LRU eviction —
/// tie-breaks on `Slot::last_used` ticks, which are strictly monotonic and
/// therefore unique, so `min_by_key` picks the same victim regardless of
/// iteration order. Nothing order-dependent can leak into a DesignResult.
// analyze:allow(determinism)
type Map<K, V> = std::collections::HashMap<K, V>;

/// Score lookups answered from the memo.
static M_HITS: LazyCounter = LazyCounter::new("eval.cache_hits");
/// Score lookups that had to compute (build and/or evaluate).
static M_MISSES: LazyCounter = LazyCounter::new("eval.cache_misses");
/// Entries evicted to stay within capacity.
static M_EVICTIONS: LazyCounter = LazyCounter::new("eval.cache_evictions");

/// What was evaluated for a configuration. Frozen pressures are keyed by
/// their exact bit pattern: the SA freezes pressures produced by earlier
/// full evaluations, so equal logical pressures are equal bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoreKey {
    /// The full network evaluation for a problem (objective + optimal
    /// pressure).
    Full(Problem),
    /// `ΔT` at a frozen pressure (problem-independent).
    GradientAt(u64),
    /// The problem objective at a frozen pressure (grouped iterations).
    ObjectiveAt(Problem, u64),
}

impl ScoreKey {
    /// Key for `ΔT` at the frozen pressure `p`.
    pub fn gradient_at(p: Pascal) -> Self {
        ScoreKey::GradientAt(p.value().to_bits())
    }

    /// Key for `problem`'s objective at the frozen pressure `p`.
    pub fn objective_at(problem: Problem, p: Pascal) -> Self {
        ScoreKey::ObjectiveAt(problem, p.value().to_bits())
    }
}

/// The artifacts built once per `(TreeConfig, ModelChoice)`: the network
/// and an evaluator over it.
pub struct BuiltEval {
    /// The built cooling network.
    pub net: CoolingNetwork,
    /// The evaluator (hydraulics + assembled thermal system).
    pub ev: Evaluator,
}

/// Build state of an entry: building is attempted at most once, and a
/// failed build (unbuildable config) is memoized as permanently infeasible.
enum Built {
    NotYet,
    Ready(Box<BuiltEval>),
    Failed,
}

struct Entry {
    built: Built,
    scores: Map<ScoreKey, (f64, Option<OperatingPoint>)>,
}

struct Slot {
    entry: Arc<Mutex<Entry>>,
    last_used: u64,
}

/// Full entry identity: tenant scope, configuration and model. The scope
/// isolates tenants sharing one process-wide cache — two jobs with
/// different benchmarks or pressure-search options produce different
/// scores for the same `(config, model)`, so they must never share an
/// entry (see [`EvalCache::eval_scoped`]).
type EntryKey = (u64, TreeConfig, ModelChoice);

struct LruMap {
    map: Map<EntryKey, Slot>,
    tick: u64,
}

/// Bounded LRU cache of built evaluators and computed scores, shared by
/// reference across the SA worker threads.
///
/// Entry bodies sit behind their own mutexes, so two workers evaluating
/// *different* configurations proceed concurrently; two workers hitting the
/// *same* configuration serialize, and the second one sees the first one's
/// memoized score.
pub struct EvalCache {
    inner: Mutex<LruMap>,
    capacity: usize,
}

/// Locks poison-tolerantly: a panic absorbed by the SA layer must not
/// wedge the cache for the rest of the run.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    coolnet_obs::sync::lock_recover(m)
}

impl EvalCache {
    /// Creates a cache holding at most `capacity` built entries
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LruMap {
                map: Map::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The memoized `(value, operating point)` of `key` on `(config, model)`,
    /// computing and memoizing it on a miss.
    ///
    /// On a miss, `build` runs first if the entry has never been built
    /// (`None` marks the configuration unbuildable, memoized as `+∞`
    /// forever); then the evaluator's warm-start state is reset and
    /// `compute` runs on it. The reset is what keeps a reused evaluator
    /// bit-for-bit equivalent to a fresh one.
    pub fn eval<B, C>(
        &self,
        config: &TreeConfig,
        model: ModelChoice,
        key: ScoreKey,
        build: B,
        compute: C,
    ) -> (f64, Option<OperatingPoint>)
    where
        B: FnOnce() -> Option<BuiltEval>,
        C: FnOnce(&Evaluator) -> (f64, Option<OperatingPoint>),
    {
        self.eval_scoped(0, config, model, key, build, compute)
    }

    /// Like [`eval`](Self::eval), under an explicit tenant `scope`.
    ///
    /// A process-wide cache shared by heterogeneous jobs keys every entry
    /// by scope in addition to `(config, model)`: the scope must cover
    /// every score-affecting input outside the per-request key — the
    /// benchmark and the pressure-search options — so two tenants share
    /// hits exactly when their scores are interchangeable. Single-run
    /// caches use scope `0` ([`eval`](Self::eval)).
    pub fn eval_scoped<B, C>(
        &self,
        scope: u64,
        config: &TreeConfig,
        model: ModelChoice,
        key: ScoreKey,
        build: B,
        compute: C,
    ) -> (f64, Option<OperatingPoint>)
    where
        B: FnOnce() -> Option<BuiltEval>,
        C: FnOnce(&Evaluator) -> (f64, Option<OperatingPoint>),
    {
        let entry = self.slot(scope, config, model);
        let mut entry = lock(&entry);
        if let Some(&memo) = entry.scores.get(&key) {
            M_HITS.inc();
            return memo;
        }
        M_MISSES.inc();
        if matches!(entry.built, Built::NotYet) {
            entry.built = match build() {
                Some(b) => Built::Ready(Box::new(b)),
                None => Built::Failed,
            };
        }
        let value = match &entry.built {
            Built::Ready(b) => {
                b.ev.reset_state();
                compute(&b.ev)
            }
            Built::Failed | Built::NotYet => (f64::INFINITY, None),
        };
        entry.scores.insert(key, value);
        value
    }

    /// The entry for `(scope, config, model)`, inserting (and evicting the
    /// LRU entry if at capacity) when absent.
    fn slot(&self, scope: u64, config: &TreeConfig, model: ModelChoice) -> Arc<Mutex<Entry>> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let key = (scope, config.clone(), model);
        if let Some(slot) = inner.map.get_mut(&key) {
            slot.last_used = tick;
            return Arc::clone(&slot.entry);
        }
        if inner.map.len() >= self.capacity {
            // O(n) scan: capacities are small (hundreds) and misses are
            // dominated by the thermal solve they precede.
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                inner.map.remove(&oldest);
                M_EVICTIONS.inc();
            }
        }
        let entry = Arc::new(Mutex::new(Entry {
            built: Built::NotYet,
            scores: Map::new(),
        }));
        inner.map.insert(
            key,
            Slot {
                entry: Arc::clone(&entry),
                last_used: tick,
            },
        );
        entry
    }
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::GridDims;
    use coolnet_network::builders::tree::{self, BranchStyle};
    use coolnet_network::builders::GlobalFlow;
    use coolnet_obs as obs;

    fn config(b1: u16, b2: u16) -> TreeConfig {
        TreeConfig::uniform(GlobalFlow::WestToEast, BranchStyle::Binary, 2, b1, b2)
    }

    /// A build closure that never runs the thermal stack: these tests only
    /// exercise the bookkeeping, so `None` (unbuildable) is enough.
    fn no_build() -> Option<BuiltEval> {
        None
    }

    #[test]
    fn memoizes_scores_and_counts_hits() {
        obs::set_enabled(true);
        let before = obs::snapshot();
        let cache = EvalCache::new(8);
        let key = ScoreKey::Full(Problem::PumpingPower);
        // Unbuildable config: both calls resolve to +∞, the second from
        // the memo without invoking build again.
        let mut builds = 0;
        let v1 = cache.eval(
            &config(4, 10),
            ModelChoice::fast(),
            key,
            || {
                builds += 1;
                no_build()
            },
            |_| (1.0, None),
        );
        let v2 = cache.eval(
            &config(4, 10),
            ModelChoice::fast(),
            key,
            || {
                builds += 1;
                no_build()
            },
            |_| (2.0, None),
        );
        assert_eq!(builds, 1);
        assert!(v1.0.is_infinite() && v2.0.is_infinite());
        // Counters are process-global and sibling tests may run
        // concurrently, so assert lower bounds rather than exact deltas.
        let after = obs::snapshot();
        assert!(after.counter_delta(&before, "eval.cache_hits") >= 1);
        assert!(after.counter_delta(&before, "eval.cache_misses") >= 1);
    }

    #[test]
    fn distinct_keys_compute_separately() {
        let cache = EvalCache::new(8);
        let c = config(6, 12);
        let p = Pascal::from_kilopascals(3.0);
        let full = ScoreKey::Full(Problem::ThermalGradient);
        let at_p = ScoreKey::gradient_at(p);
        assert_ne!(full, at_p);
        assert_ne!(
            ScoreKey::objective_at(Problem::PumpingPower, p),
            ScoreKey::objective_at(Problem::ThermalGradient, p),
        );
        // Two different keys on the same entry: two misses, one build.
        let mut builds = 0;
        cache.eval(
            &c,
            ModelChoice::fast(),
            full,
            || {
                builds += 1;
                no_build()
            },
            |_| (0.0, None),
        );
        cache.eval(
            &c,
            ModelChoice::fast(),
            at_p,
            || {
                builds += 1;
                no_build()
            },
            |_| (0.0, None),
        );
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        obs::set_enabled(true);
        let before = obs::snapshot();
        let cache = EvalCache::new(2);
        let key = ScoreKey::Full(Problem::PumpingPower);
        let (a, b, c) = (config(2, 8), config(4, 10), config(6, 12));
        let m = ModelChoice::fast();
        cache.eval(&a, m, key, no_build, |_| (0.0, None));
        cache.eval(&b, m, key, no_build, |_| (0.0, None));
        // Touch `a` so `b` becomes the LRU entry, then insert `c`.
        cache.eval(&a, m, key, no_build, |_| (0.0, None));
        cache.eval(&c, m, key, no_build, |_| (0.0, None));
        assert_eq!(cache.len(), 2);
        let after = obs::snapshot();
        assert!(after.counter_delta(&before, "eval.cache_evictions") >= 1);
        // `a` survived (checked first — a lookup of the evicted `b` would
        // itself evict again at capacity), `b` was evicted and rebuilds.
        let mut a_rebuilt = false;
        cache.eval(
            &a,
            m,
            key,
            || {
                a_rebuilt = true;
                no_build()
            },
            |_| (0.0, None),
        );
        assert!(!a_rebuilt, "recently used entry must survive eviction");
        let mut rebuilt = false;
        cache.eval(
            &b,
            m,
            key,
            || {
                rebuilt = true;
                no_build()
            },
            |_| (0.0, None),
        );
        assert!(rebuilt, "evicted entry must rebuild");
    }

    #[test]
    fn scopes_isolate_tenants_sharing_one_cache() {
        // Two tenants (different benchmarks / psearch options) score the
        // same (config, model, key) differently; under distinct scopes the
        // shared cache must keep both computations and never cross-serve.
        let cache = EvalCache::new(8);
        let c = config(4, 10);
        let key = ScoreKey::Full(Problem::PumpingPower);
        let m = ModelChoice::fast();
        let mut builds = 0;
        let (a, _) = cache.eval_scoped(
            1,
            &c,
            m,
            key,
            || {
                builds += 1;
                no_build()
            },
            |_| (0.0, None),
        );
        let (b, _) = cache.eval_scoped(
            2,
            &c,
            m,
            key,
            || {
                builds += 1;
                no_build()
            },
            |_| (0.0, None),
        );
        assert_eq!(builds, 2, "distinct scopes must not share entries");
        assert_eq!(cache.len(), 2);
        assert_eq!(a.to_bits(), b.to_bits());
        // Same scope re-serves the memo without rebuilding.
        cache.eval_scoped(
            1,
            &c,
            m,
            key,
            || {
                builds += 1;
                no_build()
            },
            |_| (9.0, None),
        );
        assert_eq!(builds, 2);
        // The unscoped entry point is scope 0 — distinct from both.
        cache.eval(&c, m, key, no_build, |_| (0.0, None));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn model_choice_separates_entries() {
        let cache = EvalCache::new(8);
        let c = config(4, 10);
        let key = ScoreKey::Full(Problem::PumpingPower);
        cache.eval(&c, ModelChoice::TwoRm { m: 4 }, key, no_build, |_| {
            (0.0, None)
        });
        cache.eval(&c, ModelChoice::FourRm, key, no_build, |_| (0.0, None));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn computes_with_a_real_evaluator_and_resets_state() {
        use coolnet_cases::Benchmark;
        let dims = GridDims::new(21, 21);
        let bench = Benchmark::iccad_scaled(1, dims);
        let cfg = config(6, 14);
        let build = || {
            let net = tree::build(dims, &bench.tsv, &bench.restricted, &cfg).ok()?;
            let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).ok()?;
            Some(BuiltEval { net, ev })
        };
        let p = Pascal::from_kilopascals(6.0);
        let probe = |ev: &Evaluator| match ev.profile(p) {
            Ok(pr) => (pr.delta_t.value(), None),
            Err(_) => (f64::INFINITY, None),
        };
        let cache = EvalCache::new(4);
        // Compute the same quantity under two different keys (forcing a
        // recompute on a reused, reset evaluator) and fresh, uncached.
        let (v1, _) = cache.eval(
            &cfg,
            ModelChoice::fast(),
            ScoreKey::gradient_at(p),
            build,
            probe,
        );
        let (v2, _) = cache.eval(
            &cfg,
            ModelChoice::fast(),
            ScoreKey::objective_at(Problem::ThermalGradient, p),
            build,
            probe,
        );
        let fresh = build().map(|b| probe(&b.ev).0).unwrap_or(f64::INFINITY);
        assert!(v1.is_finite());
        assert_eq!(v1.to_bits(), v2.to_bits(), "reset evaluator must match");
        assert_eq!(v1.to_bits(), fresh.to_bits(), "cached must match fresh");
    }
}
