//! Lightweight telemetry for the McVerSi pipeline: counters, log2-bucket
//! histograms, and scoped span timers behind one facade.
//!
//! Design constraints, in order:
//!
//! 1. **Metrics never change behaviour.** The global enabled flag (see
//!    [`enable`]) gates only the *recording cost*; no simulation or campaign
//!    decision may read it. Campaign results with metrics off are therefore
//!    bit-identical to results with metrics on (a differential test in
//!    `mcversi-core` pins this).
//! 2. **The disabled path is one relaxed atomic load.** Every record call
//!    checks [`enabled`] first and returns immediately when it is off.  The
//!    benchmark's `telemetry.trace_overhead_share` compares its own traced
//!    loop, which checks each iteration inline, with the untraced
//!    `TestRunner`, which checks on a second thread; it therefore reads the
//!    cost of switching metrics on plus the hidden checks, not that cost
//!    alone.
//! 3. **Storage is thread-local.** Each campaign sample runs entirely on one
//!    worker thread, so a thread-local store gives exact per-sample
//!    attribution for free — and concurrently running `cargo test` threads
//!    cannot bleed counts into each other. [`reset_local`] /
//!    [`local_snapshot`] scope a measurement region on the current thread.
//!
//! Metrics are declared as `static` items with `const fn new`, so declaring
//! one is free; the slot in the thread-local store is claimed lazily on
//! first record via a double-checked global registry:
//!
//! ```
//! use mcversi_telemetry as telemetry;
//!
//! static CACHE_HITS: telemetry::Counter = telemetry::Counter::new("sim.l1.hit");
//! static RELATION_SIZE: telemetry::Histogram = telemetry::Histogram::new("mcm.relation.size");
//! static PHASE_SIMULATE: telemetry::Timer = telemetry::Timer::new("phase.simulate");
//!
//! telemetry::enable();
//! telemetry::reset_local();
//! {
//!     let _span = PHASE_SIMULATE.span(); // records elapsed ns on drop
//!     CACHE_HITS.incr();
//!     RELATION_SIZE.record(42);
//! }
//! let snapshot = telemetry::local_snapshot();
//! assert_eq!(snapshot.counters["sim.l1.hit"], 1);
//! ```
//!
//! A [`MetricsSnapshot`] is plain serializable data: `mcversi-core` streams
//! it through the sink fabric as a `CampaignEvent::Metrics` record and
//! aggregates it into `CampaignResult`; the `mcversi-report` binary renders
//! the per-phase / per-counter breakdown. Counters and histograms are
//! deterministic under a fixed seed; wall-clock [`Timer`]s are kept in a
//! separate map so determinism tests can compare the deterministic part
//! only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Enabled flag
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on, process-wide and permanently ("sticky on").
///
/// There is deliberately no way to turn recording off again: concurrently
/// running tests share this flag, and a test flipping it off mid-way through
/// another test's measured region would drop counts nondeterministically.
/// Recording on is always safe because metrics never influence behaviour —
/// only whether the thread-local stores are written to.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether metric recording is on. One relaxed atomic load — this is the
/// entire disabled-path cost of every record call.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Registry: &'static str names -> dense per-kind slot indices
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Histogram,
    Timer,
}

struct Registry {
    counters: Vec<&'static str>,
    histograms: Vec<&'static str>,
    timers: Vec<&'static str>,
}

impl Registry {
    fn names_mut(&mut self, kind: Kind) -> &mut Vec<&'static str> {
        match kind {
            Kind::Counter => &mut self.counters,
            Kind::Histogram => &mut self.histograms,
            Kind::Timer => &mut self.timers,
        }
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: Vec::new(),
    histograms: Vec::new(),
    timers: Vec::new(),
});

/// Resolves a metric's dense slot index, registering the name on first use.
///
/// `slot` holds `index + 1` once registered (0 means "not yet"), so the fast
/// path after the first record is a single acquire load.
fn resolve_slot(slot: &AtomicUsize, name: &'static str, kind: Kind) -> usize {
    let cached = slot.load(Ordering::Acquire);
    if cached != 0 {
        return cached - 1;
    }
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    // Double-check under the lock: another thread may have registered us.
    let cached = slot.load(Ordering::Acquire);
    if cached != 0 {
        return cached - 1;
    }
    let names = registry.names_mut(kind);
    let index = names.len();
    names.push(name);
    slot.store(index + 1, Ordering::Release);
    index
}

fn registered_names(kind: Kind) -> Vec<&'static str> {
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    registry.names_mut(kind).clone()
}

// ---------------------------------------------------------------------------
// Thread-local stores
// ---------------------------------------------------------------------------

/// Raw histogram state: log2 buckets. `buckets[0]` counts zero values,
/// `buckets[k]` (k >= 1) counts values with bit length k, i.e. the range
/// `[2^(k-1), 2^k)`.
#[derive(Debug, Clone)]
struct HistData {
    count: u64,
    sum: u64,
    buckets: [u64; 65],
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            count: 0,
            sum: 0,
            buckets: [0; 65],
        }
    }
}

impl HistData {
    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Adds another histogram's state to this one.
    fn absorb(&mut self, other: &HistData) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (bucket, &count) in self.buckets.iter_mut().zip(&other.buckets) {
            *bucket += count;
        }
    }
}

/// The log2 bucket index of a value: 0 for 0, otherwise the bit length.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The metric state of one thread, slot by slot: what [`take_local`] and
/// [`local_metrics`] hand out and [`absorb`] folds in.  Slots are
/// process-wide, so this can move between threads without naming a metric.
#[derive(Debug, Clone, Default)]
pub struct LocalMetrics {
    counters: Vec<u64>,
    histograms: Vec<HistData>,
    timers: Vec<HistData>,
}

thread_local! {
    static LOCAL: RefCell<LocalMetrics> = RefCell::new(LocalMetrics::default());
}

/// Clears all metric state recorded on the current thread.
///
/// Call at the start of a measurement region (e.g. the top of a campaign
/// sample); pair with [`local_snapshot`] at the end.
pub fn reset_local() {
    LOCAL.with(|local| {
        let mut store = local.borrow_mut();
        store.counters.clear();
        store.histograms.clear();
        store.timers.clear();
    });
}

/// Snapshots all metric state recorded on the current thread since the last
/// [`reset_local`].
pub fn local_snapshot() -> MetricsSnapshot {
    let mut snapshot = MetricsSnapshot::default();
    let counter_names = registered_names(Kind::Counter);
    let histogram_names = registered_names(Kind::Histogram);
    let timer_names = registered_names(Kind::Timer);
    LOCAL.with(|local| {
        let store = local.borrow();
        for (index, &value) in store.counters.iter().enumerate() {
            if value == 0 {
                continue;
            }
            let name = counter_names.get(index).copied().unwrap_or("?");
            *snapshot.counters.entry(name.to_string()).or_insert(0) += value;
        }
        for (index, data) in store.histograms.iter().enumerate() {
            if data.count == 0 {
                continue;
            }
            let name = histogram_names.get(index).copied().unwrap_or("?");
            merge_hist(&mut snapshot.histograms, name, data);
        }
        for (index, data) in store.timers.iter().enumerate() {
            if data.count == 0 {
                continue;
            }
            let name = timer_names.get(index).copied().unwrap_or("?");
            merge_hist(&mut snapshot.timers, name, data);
        }
    });
    snapshot
}

/// A copy of the current thread's metric state, for [`absorb`] to put back.
pub fn local_metrics() -> LocalMetrics {
    LOCAL.with(|local| local.borrow().clone())
}

/// Takes the current thread's metric state out, leaving it as
/// [`reset_local`] would, for [`absorb`] on another thread.
pub fn take_local() -> LocalMetrics {
    LOCAL.with(|local| std::mem::take(&mut *local.borrow_mut()))
}

/// Folds `metrics` into the current thread's metric state, so that the next
/// [`local_snapshot`] is the merge of what it would have been and the
/// snapshot of `metrics`.
///
/// This is how work done on another thread is attributed to this one (a
/// helper thread ships its share back with [`take_local`]), and how a
/// measurement region is put back to an earlier point: [`reset_local`], then
/// `absorb` the [`local_metrics`] copied there.  No lock is taken and no
/// name looked up.  A no-op while telemetry is disabled.
pub fn absorb(metrics: &LocalMetrics) {
    if !enabled() {
        return;
    }
    LOCAL.with(|local| {
        let mut store = local.borrow_mut();
        if store.counters.len() < metrics.counters.len() {
            store.counters.resize(metrics.counters.len(), 0);
        }
        for (mine, &theirs) in store.counters.iter_mut().zip(&metrics.counters) {
            *mine += theirs;
        }
        absorb_hists(&mut store.histograms, &metrics.histograms);
        absorb_hists(&mut store.timers, &metrics.timers);
    });
}

/// Adds each histogram of `other` to the one in the same slot of `store`.
fn absorb_hists(store: &mut Vec<HistData>, other: &[HistData]) {
    if store.len() < other.len() {
        store.resize_with(other.len(), HistData::default);
    }
    for (mine, theirs) in store.iter_mut().zip(other) {
        mine.absorb(theirs);
    }
}

fn merge_hist(map: &mut BTreeMap<String, HistogramSnapshot>, name: &str, data: &HistData) {
    let entry = map.entry(name.to_string()).or_default();
    entry.count += data.count;
    entry.sum = entry.sum.saturating_add(data.sum);
    for (bucket, &count) in data.buckets.iter().enumerate() {
        if count != 0 {
            *entry.buckets.entry(bucket as u8).or_insert(0) += count;
        }
    }
}

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// A monotonically increasing event count (thread-local storage).
///
/// Declare as a `static`; recording is a no-op while telemetry is disabled.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    slot: AtomicUsize,
}

impl Counter {
    /// Declares a counter. Free until first recorded to.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            slot: AtomicUsize::new(0),
        }
    }

    /// Adds `n` to the counter on the current thread.
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        let index = resolve_slot(&self.slot, self.name, Kind::Counter);
        LOCAL.with(|local| {
            let mut store = local.borrow_mut();
            if index >= store.counters.len() {
                store.counters.resize(index + 1, 0);
            }
            store.counters[index] += n;
        });
    }

    /// Adds one to the counter on the current thread.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A distribution of values in fixed log2 buckets (thread-local storage).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    slot: AtomicUsize,
}

impl Histogram {
    /// Declares a histogram. Free until first recorded to.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            slot: AtomicUsize::new(0),
        }
    }

    /// Records one observation of `value` on the current thread.
    #[inline]
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        let index = resolve_slot(&self.slot, self.name, Kind::Histogram);
        LOCAL.with(|local| {
            let mut store = local.borrow_mut();
            if index >= store.histograms.len() {
                store.histograms.resize_with(index + 1, HistData::default);
            }
            store.histograms[index].record(value);
        });
    }
}

/// A wall-clock span timer: elapsed nanoseconds are recorded into a log2
/// histogram (thread-local storage).
///
/// Timer values are nondeterministic by nature; [`MetricsSnapshot`] keeps
/// them in a separate map from counters/histograms so determinism tests can
/// ignore them.
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    slot: AtomicUsize,
}

impl Timer {
    /// Declares a timer. Free until first recorded to.
    pub const fn new(name: &'static str) -> Self {
        Timer {
            name,
            slot: AtomicUsize::new(0),
        }
    }

    /// Starts a scoped span; the elapsed time is recorded when the returned
    /// guard drops. While telemetry is disabled the clock is never read.
    #[inline]
    pub fn span(&'static self) -> Span {
        Span {
            timer: self,
            start: if enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Records an already-measured duration (used by `Span`; exposed for
    /// callers that cannot use RAII scoping).
    pub fn record(&self, elapsed: Duration) {
        if !enabled() {
            return;
        }
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let index = resolve_slot(&self.slot, self.name, Kind::Timer);
        LOCAL.with(|local| {
            let mut store = local.borrow_mut();
            if index >= store.timers.len() {
                store.timers.resize_with(index + 1, HistData::default);
            }
            store.timers[index].record(nanos);
        });
    }
}

/// RAII guard returned by [`Timer::span`]; records elapsed time on drop.
#[derive(Debug)]
pub struct Span {
    timer: &'static Timer,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.timer.record(start.elapsed());
        }
    }
}

/// An always-on elapsed-time reading, independent of the enabled flag.
///
/// This is the workspace's sanctioned wrapper around `Instant` for simple
/// "how long since X" readings outside the span system (e.g. `ProgressSink`'s
/// rolling runs/sec line); the xtask hygiene check bans raw `Instant::now()`
/// outside this crate and the campaign deadline logic.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A serializable log2-bucket histogram: observation count, saturating sum,
/// and sparse bucket counts keyed by bit length (0 = the value zero,
/// k = values in `[2^(k-1), 2^k)`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// Sparse log2 bucket counts (only non-zero buckets present).
    pub buckets: BTreeMap<u8, u64>,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&bucket, &count) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += count;
        }
    }
}

/// A point-in-time copy of all metrics recorded on one thread: the payload
/// of `CampaignEvent::Metrics` records and the `CampaignResult::metrics`
/// aggregate.
///
/// `counters` and `histograms` are deterministic under a fixed seed;
/// `timers` hold wall-clock nanosecond distributions and are not.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Event counts by counter name.
    pub counters: BTreeMap<String, u64>,
    /// Value distributions by histogram name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Wall-clock span distributions (nanoseconds) by timer name.
    pub timers: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.timers.is_empty()
    }

    /// Folds another snapshot into this one (summing counters and merging
    /// histograms/timers), e.g. to aggregate per-sample snapshots into a
    /// campaign total.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, &value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
        for (name, hist) in &other.timers {
            self.timers.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// The deterministic part of the snapshot: counters and histograms,
    /// without the wall-clock timers. Equal across runs with equal seeds.
    pub fn deterministic_part(
        &self,
    ) -> (&BTreeMap<String, u64>, &BTreeMap<String, HistogramSnapshot>) {
        (&self.counters, &self.histograms)
    }

    /// Total wall-clock nanoseconds recorded under `timers` whose name
    /// starts with `prefix` (e.g. `"phase."` for phase attribution).
    pub fn timer_sum_ns(&self, prefix: &str) -> u64 {
        self.timers
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, hist)| hist.sum)
            .fold(0u64, u64::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: Counter = Counter::new("test.counter");
    static TEST_HIST: Histogram = Histogram::new("test.hist");
    static TEST_TIMER: Timer = Timer::new("test.timer");

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counter_and_histogram_roundtrip_through_snapshot() {
        enable();
        reset_local();
        TEST_COUNTER.add(3);
        TEST_COUNTER.incr();
        TEST_HIST.record(0);
        TEST_HIST.record(5);
        let snapshot = local_snapshot();
        assert_eq!(snapshot.counters["test.counter"], 4);
        let hist = &snapshot.histograms["test.hist"];
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 5);
        assert_eq!(hist.buckets[&0], 1);
        assert_eq!(hist.buckets[&3], 1); // 5 has bit length 3

        reset_local();
        assert!(local_snapshot().is_empty());
    }

    #[test]
    fn span_records_into_timers_only() {
        enable();
        reset_local();
        {
            let _span = TEST_TIMER.span();
        }
        let snapshot = local_snapshot();
        assert_eq!(snapshot.timers["test.timer"].count, 1);
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.histograms.is_empty());
        reset_local();
    }

    #[test]
    fn threads_do_not_share_local_state() {
        enable();
        std::thread::spawn(|| {
            reset_local();
            TEST_COUNTER.add(100);
            assert_eq!(local_snapshot().counters["test.counter"], 100);
        })
        .join()
        .unwrap();
        // This thread's view is unaffected by the other thread's writes.
        reset_local();
        assert!(!local_snapshot().counters.contains_key("test.counter"));
    }

    #[test]
    fn absorb_folds_another_threads_metrics_and_rewinds_this_one() {
        enable();
        reset_local();
        TEST_COUNTER.add(2);
        TEST_HIST.record(5);
        let saved = local_metrics();
        let saved_snapshot = local_snapshot();

        // Work measured on another thread lands here as if done here.
        let (shipped, shipped_snapshot) = std::thread::spawn(|| {
            reset_local();
            TEST_COUNTER.add(40);
            TEST_HIST.record(0);
            TEST_HIST.record(u64::MAX);
            {
                let _span = TEST_TIMER.span();
            }
            let snapshot = local_snapshot();
            let shipped = take_local();
            assert!(local_snapshot().is_empty(), "taking leaves nothing behind");
            (shipped, snapshot)
        })
        .join()
        .unwrap();
        absorb(&shipped);
        let mut merged = saved_snapshot.clone();
        merged.merge(&shipped_snapshot);
        assert_eq!(local_snapshot(), merged);
        assert_eq!(local_snapshot().counters["test.counter"], 42);

        // Recording goes on on top of what was absorbed.
        TEST_COUNTER.incr();
        assert_eq!(local_snapshot().counters["test.counter"], 43);

        // Back to the saved point: exactly what was saved, timers included.
        reset_local();
        absorb(&saved);
        assert_eq!(local_snapshot(), saved_snapshot);
        reset_local();
    }

    #[test]
    fn merge_sums_counters_and_buckets() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("c".into(), 1);
        a.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 1,
                sum: 4,
                buckets: [(3u8, 1u64)].into_iter().collect(),
            },
        );
        let mut b = MetricsSnapshot::default();
        b.counters.insert("c".into(), 2);
        b.counters.insert("d".into(), 5);
        b.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 2,
                sum: 3,
                buckets: [(1u8, 1u64), (2, 1)].into_iter().collect(),
            },
        );
        a.merge(&b);
        assert_eq!(a.counters["c"], 3);
        assert_eq!(a.counters["d"], 5);
        let h = &a.histograms["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 7);
        assert_eq!(h.buckets[&1], 1);
        assert_eq!(h.buckets[&2], 1);
        assert_eq!(h.buckets[&3], 1);
    }

    #[test]
    fn snapshot_serializes_and_deserializes() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert("sim.l1.hit".into(), 7);
        snapshot.timers.insert(
            "phase.simulate".into(),
            HistogramSnapshot {
                count: 2,
                sum: 1500,
                buckets: [(10u8, 2u64)].into_iter().collect(),
            },
        );
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn timer_sum_ns_filters_by_prefix() {
        let mut snapshot = MetricsSnapshot::default();
        for (name, sum) in [("phase.a", 10u64), ("phase.b", 20), ("other", 100)] {
            snapshot.timers.insert(
                name.into(),
                HistogramSnapshot {
                    count: 1,
                    sum,
                    buckets: BTreeMap::new(),
                },
            );
        }
        assert_eq!(snapshot.timer_sum_ns("phase."), 30);
        assert_eq!(snapshot.timer_sum_ns(""), 130);
    }
}
