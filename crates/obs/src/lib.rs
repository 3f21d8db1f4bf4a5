//! Workspace-wide observability substrate: atomic counters, fixed-bucket
//! log-scale histograms, and RAII span timers behind a static registry.
//!
//! The paper's flows are probe-dominated — every SA candidate, pressure
//! search step, and run-time control interval is one or more sparse solves
//! (§4.1, §6) — so the interesting questions ("how many solves did this
//! search burn?", "did any ladder escalate?", "how often did the probe
//! cache skip a refresh?") are counting questions. This crate answers them
//! without touching the numerics:
//!
//! * Instrumented call sites declare [`LazyCounter`]/[`LazyHistogram`]
//!   statics. The constructors are `const`, so declaring a metric costs
//!   nothing; the underlying storage is allocated in a global registry on
//!   first use and shared by every handle with the same name.
//! * [`snapshot`] exports every registered metric as a serde-serializable
//!   [`MetricsSnapshot`]; deltas between two snapshots isolate one region
//!   of work (see [`MetricsSnapshot::counter_delta`]).
//! * [`set_enabled`]`(false)` turns the whole layer off. The disabled
//!   hot-path cost of any recording call is exactly one relaxed atomic
//!   load — the gate is checked before the lazy handle is even resolved.
//!
//! Metric names follow a `subsystem.metric` scheme (`ladder.escalations`,
//! `probe.refresh_skips`, `scenario.integrator_rebuilds`, …); the name is
//! the identity, so two statics with the same name observe one value.
//!
//! Counters and histogram cells are relaxed atomics: totals are exact once
//! the writing threads are quiescent, and a [`snapshot`] taken mid-flight
//! is a best-effort view (count/sum/buckets of a histogram may be
//! momentarily inconsistent with each other). Tests that assert on deltas
//! should serialize the instrumented region against concurrent writers.

#![forbid(unsafe_code)]

/// Poison-recovering lock helpers (the workspace's lock discipline).
pub mod sync;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Global recording gate; metrics are enabled by default.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns metric recording on or off process-wide.
///
/// Reads ([`Counter::get`], [`snapshot`]) keep working while disabled;
/// only the recording paths become no-ops.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled (one relaxed load).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter (relaxed; wraps at `u64::MAX`).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two of `u64`,
/// plus a dedicated zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log₂-scale histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `0 < b < 63` holds values in
/// `[2^(b-1), 2^b)`; the top bucket 63 is unbounded above and holds
/// `[2^62, ∞)` (`bucket_index` clamps everything from `2^63` up into it).
/// The exact sum and count are kept alongside the
/// buckets, so the mean is exact and only the shape is quantized.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// The bucket index of `value` (0 for 0, else `⌊log₂ value⌋ + 1`).
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded samples (wraps at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII timer recording its elapsed nanoseconds into a [`Histogram`] on
/// drop. Obtained from [`LazyHistogram::span`]; inert (holds nothing, does
/// nothing) when metrics were disabled at creation.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    live: Option<(&'static Histogram, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.live.take() {
            let ns = start.elapsed().as_nanos();
            hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
}

/// The global registry mapping metric names to leaked storage.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Poison-tolerant lock: the maps hold no invariants a panicking writer
/// could break (insert-only, values are leaked statics).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    sync::lock_recover(m)
}

/// A named counter handle resolving its storage on first use.
///
/// Declare as a `static`; the `const` constructor makes declaration free.
/// Two handles with the same name share one [`Counter`].
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    slot: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A handle for the counter registered under `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: OnceLock::new(),
        }
    }

    /// The metric name this handle resolves.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn metric(&self) -> &'static Counter {
        self.slot.get_or_init(|| {
            let mut map = lock(&registry().counters);
            map.entry(self.name)
                .or_insert_with(|| Box::leak(Box::new(Counter::new())))
        })
    }

    /// Increments the counter by one; a single relaxed load when disabled.
    pub fn inc(&self) {
        if !enabled() {
            return;
        }
        self.metric().add(1);
    }

    /// Adds `n`; a single relaxed load when disabled. `add(0)` is useful
    /// to register a metric (making it appear in snapshots as `0`) without
    /// counting anything.
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.metric().add(n);
    }

    /// The current value (works while disabled; registers the metric).
    pub fn get(&self) -> u64 {
        self.metric().get()
    }

    /// Resolves the handle so the metric appears in [`snapshot`]s even if
    /// it never fires — an explicit `0` distinguishes "never incremented"
    /// from "not instrumented". Works regardless of the enabled gate.
    pub fn register(&self) {
        let _ = self.metric();
    }
}

/// A named histogram handle resolving its storage on first use.
///
/// Declare as a `static`; two handles with the same name share one
/// [`Histogram`].
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    slot: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// A handle for the histogram registered under `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: OnceLock::new(),
        }
    }

    /// The metric name this handle resolves.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn metric(&self) -> &'static Histogram {
        self.slot.get_or_init(|| {
            let mut map = lock(&registry().histograms);
            map.entry(self.name)
                .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
        })
    }

    /// Records one sample; a single relaxed load when disabled.
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.metric().record(value);
    }

    /// Resolves the handle so the histogram appears in [`snapshot`]s even
    /// if it never records — an explicit empty histogram distinguishes
    /// "never sampled" from "not instrumented". Works regardless of the
    /// enabled gate.
    pub fn register(&self) {
        let _ = self.metric();
    }

    /// Starts a [`Span`] timing until drop; inert when disabled (one
    /// relaxed load, no clock read).
    pub fn span(&self) -> Span {
        if !enabled() {
            return Span { live: None };
        }
        Span {
            live: Some((self.metric(), Instant::now())),
        }
    }
}

/// Point-in-time export of one [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Per-bucket counts with trailing empty buckets trimmed; bucket 0
    /// holds zeros, bucket `0 < b < 63` holds `[2^(b-1), 2^b)`, and the
    /// top bucket 63 holds `[2^62, ∞)`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time export of every registered metric, keyed by name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, or `0` if it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The state of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// How much counter `name` grew since `earlier` (saturating, so a
    /// [`reset`] between the snapshots yields `0` rather than wrapping).
    pub fn counter_delta(&self, earlier: &MetricsSnapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// How much histogram `name`'s sample sum grew since `earlier`.
    pub fn histogram_sum_delta(&self, earlier: &MetricsSnapshot, name: &str) -> u64 {
        let now = self.histogram(name).map_or(0, |h| h.sum);
        let was = earlier.histogram(name).map_or(0, |h| h.sum);
        now.saturating_sub(was)
    }

    /// The growth of every metric since `earlier`, as a serializable
    /// [`MetricsDelta`] with zero-growth entries dropped.
    ///
    /// This is the per-region (e.g. per-job) attribution primitive: take a
    /// snapshot before and after a unit of work and keep only what moved.
    /// Counters are process-global, so under concurrency the window also
    /// contains activity from overlapping work — a delta attributes a
    /// *window*, not a thread.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsDelta {
        let counters = self
            .counters
            .iter()
            .map(|(name, &now)| (name.clone(), now.saturating_sub(earlier.counter(name))))
            .filter(|(_, grew)| *grew > 0)
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(name, now)| {
                let was = earlier.histogram(name);
                let grew = HistogramDelta {
                    count: now.count.saturating_sub(was.map_or(0, |h| h.count)),
                    sum: now.sum.saturating_sub(was.map_or(0, |h| h.sum)),
                };
                (grew.count > 0 || grew.sum > 0).then(|| (name.clone(), grew))
            })
            .collect();
        MetricsDelta {
            counters,
            histograms,
        }
    }
}

/// Growth of one histogram across a [`MetricsSnapshot::delta_since`]
/// window.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramDelta {
    /// Samples recorded in the window.
    pub count: u64,
    /// Sample-sum growth in the window.
    pub sum: u64,
}

/// Growth of every registered metric across one window, with zero-growth
/// entries dropped. Produced by [`MetricsSnapshot::delta_since`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsDelta {
    /// Counter growth by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram growth by metric name.
    pub histograms: BTreeMap<String, HistogramDelta>,
}

impl MetricsDelta {
    /// The growth of counter `name` in this window (`0` if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Whether nothing moved in the window.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

/// Exports every registered metric. Works regardless of the enabled gate.
///
/// A metric is registered by its first recording call while enabled, or
/// explicitly via [`LazyCounter::register`] / [`LazyHistogram::register`];
/// registered-but-never-fired metrics export as explicit zeros, so a
/// consumer can distinguish "never fired" from "not instrumented".
/// Handles that were never resolved either way are absent.
pub fn snapshot() -> MetricsSnapshot {
    let counters = lock(&registry().counters)
        .iter()
        .map(|(&name, c)| (name.to_owned(), c.get()))
        .collect();
    let histograms = lock(&registry().histograms)
        .iter()
        .map(|(&name, h)| (name.to_owned(), h.snapshot()))
        .collect();
    MetricsSnapshot {
        counters,
        histograms,
    }
}

/// Zeroes every registered metric (for tests). Registered names survive a
/// reset — handles keep pointing at the same storage.
pub fn reset() {
    for c in lock(&registry().counters).values() {
        c.reset();
    }
    for h in lock(&registry().histograms).values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests flip the global gate and assert on shared metric values;
    /// serialize them so parallel test threads cannot interleave.
    static GUARD: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn registered_but_zero_metrics_export_as_explicit_zeros() {
        let _g = guard();
        set_enabled(true);
        static C: LazyCounter = LazyCounter::new("test.registered_zero_counter");
        static H: LazyHistogram = LazyHistogram::new("test.registered_zero_histogram");
        C.register();
        H.register();
        // Never incremented / recorded — but present, as zeros, so jq
        // gates and diagnosis can tell "never fired" from "not
        // instrumented".
        let snap = snapshot();
        assert_eq!(
            snap.counters.get("test.registered_zero_counter").copied(),
            Some(0)
        );
        let h = snap.histogram("test.registered_zero_histogram").unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0);
        // register() is idempotent and keeps pointing at the same storage.
        C.register();
        C.inc();
        assert_eq!(snapshot().counter("test.registered_zero_counter"), C.get());
    }

    #[test]
    fn register_works_while_disabled() {
        let _g = guard();
        set_enabled(false);
        static C: LazyCounter = LazyCounter::new("test.registered_while_disabled");
        C.register();
        assert_eq!(
            snapshot()
                .counters
                .get("test.registered_while_disabled")
                .copied(),
            Some(0)
        );
        set_enabled(true);
    }

    #[test]
    fn counter_semantics() {
        let _g = guard();
        set_enabled(true);
        static C: LazyCounter = LazyCounter::new("test.counter_semantics");
        let base = C.get();
        C.inc();
        C.add(4);
        C.add(0);
        assert_eq!(C.get(), base + 5);
        assert_eq!(C.name(), "test.counter_semantics");
    }

    #[test]
    fn same_name_shares_storage() {
        let _g = guard();
        set_enabled(true);
        static A: LazyCounter = LazyCounter::new("test.shared");
        static B: LazyCounter = LazyCounter::new("test.shared");
        let base = A.get();
        B.add(3);
        assert_eq!(A.get(), base + 3);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        // The top bucket is unbounded above: everything from 2^62 on —
        // including values whose nominal bucket would be 64 — lands in 63.
        assert_eq!(Histogram::bucket_index(1 << 62), HISTOGRAM_BUCKETS - 1);
        assert_eq!(
            Histogram::bucket_index((1 << 63) - 1),
            HISTOGRAM_BUCKETS - 1
        );
        assert_eq!(Histogram::bucket_index(1 << 63), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_semantics() {
        let _g = guard();
        set_enabled(true);
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1); // the zero
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[7], 1); // 100 in [64, 128)
        assert_eq!(snap.buckets.len(), 8, "trailing zeros trimmed");
        assert!((snap.mean() - 21.2).abs() < 1e-12);
    }

    #[test]
    fn span_records_elapsed_time() {
        let _g = guard();
        set_enabled(true);
        static H: LazyHistogram = LazyHistogram::new("test.span_hist");
        let before = snapshot();
        {
            let _span = H.span();
            std::hint::black_box(0u64);
        }
        let after = snapshot();
        let h_after = after.histogram("test.span_hist").unwrap();
        let was = before.histogram("test.span_hist").map_or(0, |h| h.count);
        assert_eq!(h_after.count, was + 1);
    }

    #[test]
    fn disabled_mode_is_a_no_op() {
        let _g = guard();
        set_enabled(true);
        static C: LazyCounter = LazyCounter::new("test.disabled_counter");
        static H: LazyHistogram = LazyHistogram::new("test.disabled_hist");
        C.add(1); // register while enabled
        H.record(1);
        let before = snapshot();
        set_enabled(false);
        assert!(!enabled());
        C.inc();
        C.add(10);
        H.record(99);
        let span = H.span();
        drop(span);
        set_enabled(true);
        let after = snapshot();
        assert_eq!(after.counter_delta(&before, "test.disabled_counter"), 0);
        assert_eq!(after.histogram_sum_delta(&before, "test.disabled_hist"), 0);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let _g = guard();
        set_enabled(true);
        static C: LazyCounter = LazyCounter::new("test.round_trip");
        static H: LazyHistogram = LazyHistogram::new("test.round_trip_hist");
        C.add(7);
        H.record(42);
        let snap = snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        assert!(back.counter("test.round_trip") >= 7);
        assert!(back.histogram("test.round_trip_hist").is_some());
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _g = guard();
        set_enabled(true);
        static C: LazyCounter = LazyCounter::new("test.reset");
        C.add(5);
        reset();
        assert_eq!(C.get(), 0);
        let snap = snapshot();
        assert!(snap.counters.contains_key("test.reset"));
        C.inc();
        assert_eq!(C.get(), 1);
        // Restore state for sibling tests that measured before reset ran:
        // deltas saturate at zero, so nothing to do beyond re-enabling.
        set_enabled(true);
    }

    #[test]
    fn delta_since_keeps_only_what_moved() {
        let _g = guard();
        set_enabled(true);
        static C: LazyCounter = LazyCounter::new("test.window_moved");
        static Z: LazyCounter = LazyCounter::new("test.window_still");
        static H: LazyHistogram = LazyHistogram::new("test.window_hist");
        C.register();
        Z.register();
        H.register();
        let before = snapshot();
        C.add(3);
        H.record(10);
        H.record(4);
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.counter("test.window_moved"), 3);
        assert_eq!(delta.counter("test.window_still"), 0);
        assert!(!delta.counters.contains_key("test.window_still"));
        let h = delta.histograms.get("test.window_hist").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 14);
        assert!(!delta.is_empty());
        // An idle window is empty, and the delta round-trips through serde.
        let idle = snapshot().delta_since(&snapshot());
        assert!(idle.counter("test.window_moved") == 0);
        let json = serde_json::to_string(&delta).unwrap();
        let back: MetricsDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(delta, back);
    }

    #[test]
    fn counter_delta_ignores_unrelated_metrics() {
        let _g = guard();
        set_enabled(true);
        static C: LazyCounter = LazyCounter::new("test.delta");
        let before = snapshot();
        C.add(2);
        let after = snapshot();
        assert_eq!(after.counter_delta(&before, "test.delta"), 2);
        assert_eq!(after.counter_delta(&before, "test.never_registered"), 0);
    }
}
