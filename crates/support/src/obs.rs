//! Lightweight observability: named counters, gauges, histogram-style
//! timers and spans behind a [`MetricsRegistry`].
//!
//! The paper evaluates AutoIndex by *observed* behaviour — what-if calls
//! issued, MCTS iterations spent, tuning latency, index build/drop activity
//! (§V–§VI) — so the reproduction needs a truthful measurement layer on its
//! hot paths. This module is that layer, hermetic and std-only:
//!
//! * [`Counter`] — a monotonically increasing `u64` (`db.whatif_calls`,
//!   `mcts.iterations`, …). Lock-free after interning; safe to bump from
//!   scoped worker threads.
//! * [`Gauge`] — a last-write-wins / accumulating `f64` (threads in use,
//!   accumulated hypothetical-plan cost).
//! * [`Timer`] — duration aggregation (count / total / min / max), with a
//!   [`ScopedTimer`] RAII guard for span-style timing of a code region.
//!
//! Handles are cheap `Arc` clones of the underlying atomic cell: intern
//! once with [`MetricsRegistry::counter`] (one mutex + map lookup), then
//! update on the hot path with plain atomic ops. [`MetricsRegistry::reset`]
//! zeroes values **through the shared cells**, so cached handles stay live
//! across experiment boundaries.
//!
//! [`MetricsRegistry::snapshot`] exports everything as a
//! [`Json`] value (deterministic key order via the
//! in-repo JSON writer), which `bench/src/bin/repro.rs` prints per
//! experiment and `scripts/verify.sh` smoke-checks.
//!
//! A process-wide default registry is available via
//! [`MetricsRegistry::global`]; components default to it but accept a
//! private registry when a test needs isolated, exact counts.
//!
//! ```
//! use autoindex_support::obs::MetricsRegistry;
//!
//! let m = MetricsRegistry::new();
//! let calls = m.counter("db.whatif_calls");
//! calls.incr();
//! calls.add(2);
//! assert_eq!(calls.get(), 3);
//!
//! m.gauge("tuner.bandit.ucb_max").set(0.4);
//! {
//!     let _span = m.timer("mcts.round_time").scope(); // records on drop
//! }
//! let snap = m.snapshot();
//! assert_eq!(
//!     snap.get("counters").and_then(|c| c.get("db.whatif_calls")).and_then(|v| v.as_u64()),
//!     Some(3)
//! );
//! assert_eq!(
//!     snap.get("timers").and_then(|t| t.get("mcts.round_time"))
//!         .and_then(|t| t.get("count")).and_then(|v| v.as_u64()),
//!     Some(1)
//! );
//! m.reset();
//! assert_eq!(calls.get(), 0); // cached handles survive a reset
//! ```

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A monotonically increasing event counter.
///
/// Cloning shares the underlying cell; updates are relaxed atomic adds, so
/// counters may be bumped concurrently from worker threads (the epoch
/// engine's executors bump `<prefix>.worker_panics` that way).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time `f64` measurement (threads in use, bytes, accumulated
/// cost). Stored as IEEE-754 bits in an atomic, so it is just as
/// thread-safe as [`Counter`].
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Accumulate `v` onto the value (compare-and-swap loop).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Raise the value to `v` if it is currently lower (compare-and-swap
    /// loop). High-water marks (queue depth, concurrent workers) under
    /// multi-threaded writers.
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

#[derive(Debug)]
struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64, // u64::MAX when empty
    max_ns: AtomicU64,
}

impl Default for TimerCell {
    fn default() -> Self {
        TimerCell {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// Histogram-style duration aggregation: count, total, min, max.
///
/// Record explicit durations with [`Timer::record`], or time a region with
/// the RAII [`Timer::scope`] guard:
///
/// ```
/// use autoindex_support::obs::MetricsRegistry;
/// use std::time::Duration;
///
/// let m = MetricsRegistry::new();
/// let t = m.timer("search");
/// t.record(Duration::from_millis(3));
/// t.record(Duration::from_millis(5));
/// assert_eq!(t.count(), 2);
/// assert!((t.total().as_millis()) >= 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timer(Arc<TimerCell>);

impl Timer {
    /// Record one observed duration.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.0.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.0.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Start a span over the enclosing scope; the elapsed time is recorded
    /// when the returned guard drops.
    pub fn scope(&self) -> ScopedTimer {
        ScopedTimer {
            timer: self.clone(),
            start: Instant::now(),
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.0.total_ns.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.0.count.store(0, Ordering::Relaxed);
        self.0.total_ns.store(0, Ordering::Relaxed);
        self.0.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.0.max_ns.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Json {
        let count = self.count();
        let total_ns = self.0.total_ns.load(Ordering::Relaxed);
        let min_ns = self.0.min_ns.load(Ordering::Relaxed);
        let max_ns = self.0.max_ns.load(Ordering::Relaxed);
        let to_ms = |ns: u64| ns as f64 / 1e6;
        let mut m = BTreeMap::new();
        m.insert("count".to_string(), Json::from(count));
        m.insert("total_ms".to_string(), Json::Number(to_ms(total_ns)));
        m.insert(
            "mean_ms".to_string(),
            Json::Number(if count == 0 {
                0.0
            } else {
                to_ms(total_ns) / count as f64
            }),
        );
        m.insert(
            "min_ms".to_string(),
            Json::Number(if count == 0 { 0.0 } else { to_ms(min_ns) }),
        );
        m.insert("max_ms".to_string(), Json::Number(to_ms(max_ns)));
        Json::Object(m)
    }
}

/// RAII guard produced by [`Timer::scope`]; records the elapsed wall time
/// into its timer on drop.
#[derive(Debug)]
pub struct ScopedTimer {
    timer: Timer,
    start: Instant,
}

impl ScopedTimer {
    /// Elapsed time so far (the span is still open).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.timer.record(self.start.elapsed());
    }
}

/// Number of cells in a [`ShardedCounter`]. Sixteen covers every worker
/// sweep the benches run; workers beyond that wrap around (still correct,
/// just sharing cells again).
pub const SHARD_CELLS: usize = 16;

/// One cache line per cell so concurrent writers never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

/// A counter sharded across cache-line-padded per-worker cells.
///
/// A plain [`Counter`] is lock-free but still *contended*: every worker's
/// `fetch_add` bounces the same cache line between cores. A
/// `ShardedCounter` gives each worker its own padded cell
/// ([`ShardedCounter::cell`]) so hot-path increments are core-local;
/// [`ShardedCounter::sum`] folds the cells on the (cold) snapshot path.
///
/// Totals are exact; only the per-cell breakdown depends on worker
/// numbering.
#[derive(Debug, Clone)]
pub struct ShardedCounter(Arc<[PaddedCell; SHARD_CELLS]>);

impl Default for ShardedCounter {
    fn default() -> Self {
        ShardedCounter(Arc::new(std::array::from_fn(|_| PaddedCell::default())))
    }
}

impl ShardedCounter {
    /// A fresh sharded counter with all cells zero.
    pub fn new() -> Self {
        ShardedCounter::default()
    }

    /// The hot-path handle for `worker` (wraps modulo [`SHARD_CELLS`]).
    pub fn cell(&self, worker: usize) -> ShardCell {
        ShardCell {
            counter: self.clone(),
            idx: worker % SHARD_CELLS,
        }
    }

    /// Increment `worker`'s cell by one.
    #[inline]
    pub fn incr(&self, worker: usize) {
        self.0[worker % SHARD_CELLS]
            .0
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to `worker`'s cell.
    #[inline]
    pub fn add(&self, worker: usize, n: u64) {
        self.0[worker % SHARD_CELLS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all cells (the snapshot-time read).
    pub fn sum(&self) -> u64 {
        self.0.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for c in self.0.iter() {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A [`ShardedCounter`] handle pinned to one worker's cell: increments are
/// a single relaxed `fetch_add` on a cache line no other worker writes.
#[derive(Debug, Clone)]
pub struct ShardCell {
    counter: ShardedCounter,
    idx: usize,
}

impl ShardCell {
    /// Increment this cell by one.
    #[inline]
    pub fn incr(&self) {
        self.counter.0[self.idx].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to this cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.counter.0[self.idx].0.fetch_add(n, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    sharded: Mutex<BTreeMap<String, ShardedCounter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    timers: Mutex<BTreeMap<String, Timer>>,
}

/// An interning registry of named [`Counter`]s, [`Gauge`]s and [`Timer`]s.
///
/// Cloning shares the registry (it is an `Arc` inside), so a database, an
/// advisor and a search can all write into the same snapshot. Interning a
/// name takes a mutex; the returned handle updates lock-free — cache
/// handles on hot paths.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// A fresh, empty, private registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-wide default registry. Components that are not handed an
    /// explicit registry record here; `repro` prints and resets it between
    /// experiments. Tests that assert *exact* counts should install a
    /// private registry instead (global counters are shared across
    /// concurrently running tests).
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Intern (or look up) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Intern (or look up) the sharded counter `name`.
    ///
    /// Sharded and plain counters share one namespace in every read-side
    /// view ([`Self::counter_value`], [`Self::counters_with_prefix`],
    /// [`Self::snapshot`]): a name registered both ways reports the *sum*
    /// of both cells. Prefer distinct names.
    pub fn sharded_counter(&self, name: &str) -> ShardedCounter {
        let mut map = self.inner.sharded.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Intern (or look up) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Intern (or look up) the timer `name`.
    pub fn timer(&self, name: &str) -> Timer {
        let mut map = self.inner.timers.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Convenience: start a [`ScopedTimer`] span on timer `name`.
    pub fn scoped(&self, name: &str) -> ScopedTimer {
        self.timer(name).scope()
    }

    /// Current value of counter `name` (0 if never interned). Handy in
    /// tests and smoke checks.
    pub fn counter_value(&self, name: &str) -> u64 {
        let plain = self
            .inner
            .counters
            .lock()
            .expect("metrics lock")
            .get(name)
            .map(Counter::get)
            .unwrap_or(0);
        let sharded = self
            .inner
            .sharded
            .lock()
            .expect("metrics lock")
            .get(name)
            .map(ShardedCounter::sum)
            .unwrap_or(0);
        plain + sharded
    }

    /// Current value of gauge `name` (0.0 if never interned).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.inner
            .gauges
            .lock()
            .expect("metrics lock")
            .get(name)
            .map(Gauge::get)
            .unwrap_or(0.0)
    }

    /// All counters whose name starts with `prefix`, sorted by name.
    /// Lets callers lift a whole namespace (`"guard."`, `"db.fault."`)
    /// into a report without enumerating every metric by hand. Plain and
    /// sharded counters are merged into one deterministically sorted view.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        let merged = self.merged_counters(prefix);
        merged.into_iter().collect()
    }

    /// Plain + sharded counters with `prefix`, merged (summing name
    /// collisions) into one sorted map. The single source of truth for
    /// every read-side counter view, so snapshots and prefix scans agree
    /// and diff cleanly regardless of which flavour recorded the value.
    fn merged_counters(&self, prefix: &str) -> BTreeMap<String, u64> {
        let mut merged: BTreeMap<String, u64> = self
            .inner
            .counters
            .lock()
            .expect("metrics lock")
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        for (name, s) in self.inner.sharded.lock().expect("metrics lock").iter() {
            if name.starts_with(prefix) {
                *merged.entry(name.clone()).or_insert(0) += s.sum();
            }
        }
        merged
    }

    /// Zero every counter, gauge and timer **in place**: handles cached by
    /// components remain attached to the same cells and keep working.
    pub fn reset(&self) {
        for c in self.inner.counters.lock().expect("metrics lock").values() {
            c.reset();
        }
        for s in self.inner.sharded.lock().expect("metrics lock").values() {
            s.reset();
        }
        for g in self.inner.gauges.lock().expect("metrics lock").values() {
            g.reset();
        }
        for t in self.inner.timers.lock().expect("metrics lock").values() {
            t.reset();
        }
    }

    /// Export the registry as a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"db.whatif_calls": 123, ...},
    ///   "gauges":   {"tuner.bandit.ucb_max": 0.4, ...},
    ///   "timers":   {"mcts.round_time": {"count": 1, "total_ms": ..,
    ///                "mean_ms": .., "min_ms": .., "max_ms": ..}, ...}
    /// }
    /// ```
    ///
    /// Key order is deterministic (sorted), so identical states serialize
    /// byte-identically through [`Json`]'s writer.
    pub fn snapshot(&self) -> Json {
        let counters: BTreeMap<String, Json> = self
            .merged_counters("")
            .into_iter()
            .map(|(k, v)| (k, Json::from(v)))
            .collect();
        let gauges: BTreeMap<String, Json> = self
            .inner
            .gauges
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), Json::Number(v.get())))
            .collect();
        let timers: BTreeMap<String, Json> = self
            .inner
            .timers
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let mut out = BTreeMap::new();
        out.insert("counters".to_string(), Json::Object(counters));
        out.insert("gauges".to_string(), Json::Object(gauges));
        out.insert("timers".to_string(), Json::Object(timers));
        Json::Object(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_and_share() {
        let m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.incr();
        b.add(4);
        assert_eq!(m.counter("x").get(), 5);
        assert_eq!(m.counter_value("x"), 5);
        assert_eq!(m.counter_value("never-touched"), 0);
    }

    #[test]
    fn counters_with_prefix_lifts_a_namespace() {
        let m = MetricsRegistry::new();
        m.counter("guard.rollbacks").add(2);
        m.counter("guard.applies").add(7);
        m.counter("db.whatif_calls").incr();
        let guard = m.counters_with_prefix("guard.");
        assert_eq!(
            guard,
            vec![
                ("guard.applies".to_string(), 7),
                ("guard.rollbacks".to_string(), 2)
            ]
        );
        assert!(m.counters_with_prefix("nope.").is_empty());
    }

    #[test]
    fn gauges_set_and_accumulate() {
        let m = MetricsRegistry::new();
        let g = m.gauge("g");
        g.set(2.5);
        g.add(1.5);
        assert!((g.get() - 4.0).abs() < 1e-12);
        g.set(-1.0);
        assert_eq!(m.gauge("g").get(), -1.0);
    }

    #[test]
    fn gauge_set_max_keeps_high_water_mark() {
        let m = MetricsRegistry::new();
        let g = m.gauge("hwm");
        g.set_max(3.0);
        g.set_max(1.0); // lower — ignored
        assert_eq!(g.get(), 3.0);
        g.set_max(7.5);
        assert_eq!(m.gauge_value("hwm"), 7.5);
        assert_eq!(m.gauge_value("never-interned"), 0.0);
    }

    #[test]
    fn timers_aggregate_and_scope() {
        let m = MetricsRegistry::new();
        let t = m.timer("t");
        t.record(Duration::from_micros(100));
        t.record(Duration::from_micros(300));
        assert_eq!(t.count(), 2);
        assert_eq!(t.total(), Duration::from_micros(400));
        {
            let span = m.scoped("t");
            assert!(span.elapsed() < Duration::from_secs(5));
        }
        assert_eq!(t.count(), 3);
        let snap = t.snapshot();
        assert_eq!(snap.get("count").and_then(Json::as_u64), Some(3));
        assert!(snap.get("min_ms").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(
            snap.get("max_ms").and_then(Json::as_f64).unwrap()
                >= snap.get("min_ms").and_then(Json::as_f64).unwrap()
        );
    }

    #[test]
    fn empty_timer_snapshot_is_zeroed() {
        let m = MetricsRegistry::new();
        let t = m.timer("empty");
        let snap = t.snapshot();
        assert_eq!(snap.get("count").and_then(Json::as_u64), Some(0));
        assert_eq!(snap.get("min_ms").and_then(Json::as_f64), Some(0.0));
        assert_eq!(snap.get("mean_ms").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn reset_zeroes_through_cached_handles() {
        let m = MetricsRegistry::new();
        let c = m.counter("c");
        let g = m.gauge("g");
        let t = m.timer("t");
        c.add(7);
        g.set(3.0);
        t.record(Duration::from_millis(1));
        m.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(t.count(), 0);
        // Cached handles still work after the reset.
        c.incr();
        assert_eq!(m.counter_value("c"), 1);
        t.record(Duration::from_millis(2));
        assert_eq!(t.snapshot().get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn clone_shares_state() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m.counter("shared").incr();
        assert_eq!(m2.counter_value("shared"), 1);
    }

    #[test]
    fn snapshot_round_trips_through_json_writer() {
        let m = MetricsRegistry::new();
        m.counter("mcts.iterations").add(42);
        m.gauge("db.whatif_cost_total").set(12.5);
        m.timer("mcts.round_time").record(Duration::from_millis(2));
        let snap = m.snapshot();
        let text = snap.to_string();
        let back = Json::parse(&text).expect("snapshot is valid JSON");
        assert_eq!(back, snap);
        assert_eq!(
            back.get("counters")
                .and_then(|c| c.get("mcts.iterations"))
                .and_then(Json::as_u64),
            Some(42)
        );
        // Determinism: identical state serializes byte-identically.
        assert_eq!(text, m.snapshot().to_string());
    }

    #[test]
    fn counters_are_thread_safe() {
        let m = MetricsRegistry::new();
        let c = m.counter("parallel");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = MetricsRegistry::global();
        let b = MetricsRegistry::global();
        a.counter("obs.selftest.global").incr();
        assert!(b.counter_value("obs.selftest.global") >= 1);
    }

    #[test]
    fn sharded_counter_sums_across_cells() {
        let m = MetricsRegistry::new();
        let c = m.sharded_counter("obs.sharded.test");
        std::thread::scope(|s| {
            for w in 0..4 {
                let cell = c.cell(w);
                s.spawn(move || {
                    for _ in 0..1000 {
                        cell.incr();
                    }
                    cell.add(5);
                });
            }
        });
        assert_eq!(c.sum(), 4 * 1005);
        assert_eq!(m.counter_value("obs.sharded.test"), 4 * 1005);
        // Interning again attaches to the same cells.
        assert_eq!(m.sharded_counter("obs.sharded.test").sum(), 4 * 1005);
        // Workers beyond SHARD_CELLS wrap around but totals stay exact.
        c.incr(SHARD_CELLS + 1);
        assert_eq!(c.sum(), 4 * 1005 + 1);
    }

    #[test]
    fn sharded_counters_merge_into_deterministic_views() {
        let m = MetricsRegistry::new();
        m.counter("ns.plain").add(3);
        m.sharded_counter("ns.sharded").cell(0).add(7);
        m.sharded_counter("ns.sharded").cell(9).add(2);
        // Same name in both flavours reports the sum.
        m.counter("ns.both").add(1);
        m.sharded_counter("ns.both").add(0, 10);

        assert_eq!(
            m.counters_with_prefix("ns."),
            vec![
                ("ns.both".to_string(), 11),
                ("ns.plain".to_string(), 3),
                ("ns.sharded".to_string(), 9),
            ]
        );
        assert_eq!(m.counter_value("ns.both"), 11);

        let snap = m.snapshot();
        let counters = snap.get("counters").unwrap();
        assert_eq!(counters.get("ns.sharded").and_then(Json::as_u64), Some(9));
        assert_eq!(counters.get("ns.both").and_then(Json::as_u64), Some(11));
        // Byte-identical serialization regardless of which flavour recorded.
        assert_eq!(snap.to_string(), m.snapshot().to_string());

        m.reset();
        assert_eq!(m.counter_value("ns.sharded"), 0);
        assert_eq!(m.counter_value("ns.both"), 0);
        // Handles cached before reset stay attached to the same cells.
        m.sharded_counter("ns.sharded").cell(3).incr();
        assert_eq!(m.counter_value("ns.sharded"), 1);
    }
}
