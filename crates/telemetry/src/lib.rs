//! # firmup-telemetry
//!
//! Zero-dependency (std-only) tracing, metrics, and per-stage pipeline
//! profiling for the FirmUp reproduction.
//!
//! The crate provides four primitives, all registered in a global
//! thread-safe registry keyed by name:
//!
//! - **Counters** — monotonically increasing `u64` totals
//!   ([`incr`], [`add`], [`counter`]).
//! - **Gauges** — last-written `i64` values ([`set_gauge`], [`gauge`]).
//! - **Histograms** — log2-bucketed distributions with count / sum /
//!   min / max ([`observe`], [`histogram`]). `game.steps` mirrors the
//!   FirmUp paper's Fig. 9 step-count distribution.
//! - **Spans** — RAII wall-clock timers ([`span()`], [`span!`]) that nest
//!   through a thread-local frame stack into `/`-joined call-tree paths
//!   (`scan/index/lift`). Per-path count and total/min/max latency are
//!   recorded on drop. Spans carry deterministic trace/span ids (see
//!   [`trace_ctx`]); an explicit [`TraceCtx`] hands a parent span across
//!   threads so the executor's stolen units still nest correctly.
//!
//! All of it is gated behind a single [`AtomicU64`]-free relaxed
//! [`enabled`] flag: when telemetry is off (the default), every entry
//! point is one relaxed atomic load and an early return, keeping the
//! overhead on hot paths (corpus search, game steps) well under the 2%
//! budget the bench suite asserts.
//!
//! [`snapshot`] captures a consistent view of every registered metric;
//! [`Snapshot::render_text`] and [`Snapshot::render_json`] export it for
//! humans and machines respectively. The JSON form additionally
//! aggregates span stats by **leaf stage name** (`lift`, `canonicalize`,
//! `index`, `game`, `search`) so consumers need not care how deeply a
//! stage was nested.
//!
//! The [`export`] module renders traces and snapshots for external
//! tools: Chrome trace-event JSON (Perfetto), collapsed-stack
//! flamegraphs, and Prometheus text exposition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod trace_ctx;

pub use export::{render_chrome, render_folded, render_prometheus};
pub use trace_ctx::{
    current_ctx, current_worker, set_span_trace, set_worker, span_trace_enabled, take_trace,
    trace_instant, trace_snapshot, InstantRecord, SpanRecord, Trace, TraceCtx, TraceNode,
    TraceTree, MAX_TRACE_SPANS,
};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use json::Json;

/// Number of log2 histogram buckets (covers the full `u64` range).
pub const HIST_BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Global enable gates
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn metric recording on. Idempotent.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn metric recording off. Recording calls become near-free no-ops;
/// already-recorded values are retained.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether metric recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<HashMap<String, Arc<HistogramInner>>>,
    spans: Mutex<HashMap<String, Arc<SpanStats>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Total name → handle resolutions against the metric registry
/// (counter/gauge/histogram lookups). Every resolution takes the
/// registry lock and allocates the name `String` on first insert, so
/// hot loops must not resolve per item — they accumulate locally
/// (e.g. [`LocalHistogram`]) and flush once. The scan-path regression
/// test pins this count flat as the corpus grows.
static METRIC_LOOKUPS: AtomicU64 = AtomicU64::new(0);

/// Number of metric-registry name resolutions so far (see
/// `METRIC_LOOKUPS`'s invariant). Monotonic; not cleared by
/// [`reset`].
pub fn registry_lookups() -> u64 {
    METRIC_LOOKUPS.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide telemetry epoch (first use).
pub(crate) fn epoch_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Generation counter for [`reset`]: per-thread span-stats caches
/// compare against it so a reset invalidates handles they hold into the
/// cleared registry (otherwise they would keep feeding orphaned stats
/// no snapshot can see).
static RESET_GEN: AtomicU64 = AtomicU64::new(0);

/// Clear every registered metric and span. Intended for tests; racing
/// recorders may re-register concurrently.
pub fn reset() {
    let r = registry();
    r.counters.lock().unwrap().clear();
    r.gauges.lock().unwrap().clear();
    r.histograms.lock().unwrap().clear();
    r.spans.lock().unwrap().clear();
    RESET_GEN.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Handle to a registered counter. Cheap to clone; hot loops should
/// grab one handle instead of resolving the name per call.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`, if telemetry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one, if telemetry is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Look up (registering on first use) the named counter.
pub fn counter(name: &str) -> Counter {
    METRIC_LOOKUPS.fetch_add(1, Ordering::Relaxed);
    let mut map = registry().counters.lock().unwrap();
    Counter(Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0))),
    ))
}

/// Increment the named counter by one.
#[inline]
pub fn incr(name: &str) {
    add(name, 1);
}

/// Increment the named counter by `n`.
#[inline]
pub fn add(name: &str, n: u64) {
    if enabled() {
        counter(name).0.fetch_add(n, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// Handle to a registered gauge (a last-written `i64`).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value, if telemetry is enabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Look up (registering on first use) the named gauge.
pub fn gauge(name: &str) -> Gauge {
    METRIC_LOOKUPS.fetch_add(1, Ordering::Relaxed);
    let mut map = registry().gauges.lock().unwrap();
    Gauge(Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0))),
    ))
}

/// Set the named gauge.
#[inline]
pub fn set_gauge(name: &str, v: i64) {
    if enabled() {
        gauge(name).0.store(v, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistogramInner {
    fn new() -> HistogramInner {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Bucket index for value `v`: 0 holds only zero, bucket `i > 0` holds
/// `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (see [`bucket_of`]).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Handle to a registered histogram.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Record one observation, if telemetry is enabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.0.record(v);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// Look up (registering on first use) the named histogram.
pub fn histogram(name: &str) -> Histogram {
    METRIC_LOOKUPS.fetch_add(1, Ordering::Relaxed);
    let mut map = registry().histograms.lock().unwrap();
    Histogram(Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramInner::new())),
    ))
}

/// Record one observation in the named histogram.
#[inline]
pub fn observe(name: &str, v: u64) {
    if enabled() {
        histogram(name).0.record(v);
    }
}

/// A plain-struct histogram accumulator for hot loops: identical
/// bucket layout to the registered [`Histogram`]s, but updated with
/// ordinary arithmetic — no registry lookup, no lock, no atomics, no
/// allocation per observation. Accumulate per scan (or per worker) and
/// [`flush_into`](LocalHistogram::flush_into) the named global
/// histogram once at the end; the merged global is indistinguishable
/// from having observed every value directly.
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl LocalHistogram {
    /// An empty accumulator.
    pub fn new() -> LocalHistogram {
        LocalHistogram::default()
    }

    /// Record one observation. Unconditional — gating on [`enabled`] is
    /// the flush's job, keeping this a branch-free handful of integer
    /// ops.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        // Wrapping, matching the global histogram's `fetch_add`.
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Observations accumulated since the last flush.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold another accumulator into this one (per-worker partials into
    /// a scan-wide total).
    pub fn merge(&mut self, other: &LocalHistogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Merge the accumulated observations into the named global
    /// histogram (one registry resolution) and clear the accumulator.
    /// No-op on the registry when empty or when telemetry is disabled.
    pub fn flush_into(&mut self, name: &str) {
        if self.count > 0 && enabled() {
            self.flush_to(&histogram(name));
        }
        *self = LocalHistogram::default();
    }

    /// [`flush_into`](LocalHistogram::flush_into) through an already
    /// resolved handle: no registry lookup.
    pub fn flush_to(&mut self, h: &Histogram) {
        if self.count > 0 && enabled() {
            h.0.count.fetch_add(self.count, Ordering::Relaxed);
            h.0.sum.fetch_add(self.sum, Ordering::Relaxed);
            h.0.min.fetch_min(self.min, Ordering::Relaxed);
            h.0.max.fetch_max(self.max, Ordering::Relaxed);
            for (i, &n) in self.buckets.iter().enumerate() {
                if n > 0 {
                    h.0.buckets[i].fetch_add(n, Ordering::Relaxed);
                }
            }
        }
        *self = LocalHistogram::default();
    }
}

/// Register every listed metric up front so a run that never touches
/// one still reports it (at zero) in snapshots and exposition scrapes —
/// dashboards and tests can rely on the full metric family existing.
pub fn preregister(counters: &[&str], gauges: &[&str], histograms: &[&str]) {
    for name in counters {
        let _ = counter(name);
    }
    for name in gauges {
        let _ = gauge(name);
    }
    for name in histograms {
        let _ = histogram(name);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Latency totals of one span path, striped so concurrent workers
/// update different cache lines: a scan finishes a `game` and a `unit`
/// span per target on every worker, and four atomic updates on one
/// shared line per span made each of them bounce between cores.
/// Readers sum the stripes.
struct SpanStats {
    stripes: [SpanStripe; SPAN_STRIPES],
}

/// Stripes per span path; a thread always updates stripe
/// `thread index % SPAN_STRIPES`.
const SPAN_STRIPES: usize = 16;

/// One stripe of [`SpanStats`], alone on its cache line.
#[repr(align(64))]
struct SpanStripe {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStats {
    fn new() -> SpanStats {
        SpanStats {
            stripes: std::array::from_fn(|_| SpanStripe {
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                min_ns: AtomicU64::new(u64::MAX),
                max_ns: AtomicU64::new(0),
            }),
        }
    }

    fn record(&self, elapsed_ns: u64) {
        let s = &self.stripes[SPAN_STRIPE.with(|i| *i)];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        s.min_ns.fetch_min(elapsed_ns, Ordering::Relaxed);
        s.max_ns.fetch_max(elapsed_ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SpanSnapshot {
        let mut out = SpanSnapshot {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        };
        for s in &self.stripes {
            out.count += s.count.load(Ordering::Relaxed);
            out.total_ns += s.total_ns.load(Ordering::Relaxed);
            out.min_ns = out.min_ns.min(s.min_ns.load(Ordering::Relaxed));
            out.max_ns = out.max_ns.max(s.max_ns.load(Ordering::Relaxed));
        }
        if out.count == 0 {
            out.min_ns = 0;
        }
        out
    }
}

thread_local! {
    /// This thread's [`SpanStats`] stripe, assigned round-robin at
    /// first use.
    static SPAN_STRIPE: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % SPAN_STRIPES
    };

    /// Per-thread memo of span paths already resolved against the global
    /// registry, tagged with the [`RESET_GEN`] it was built under. A
    /// scan finishes one span per game — millions per run — and every
    /// finish used to take the global spans lock plus a `String`
    /// allocation for the entry probe. With the memo, a repeated path
    /// costs a pointer comparison (span paths are shared `Arc`s, and a
    /// hot loop reuses the same one) or one local hash lookup, then
    /// four uncontended atomic updates; the lock and allocations are
    /// paid once per (thread, path). [`reset`] bumps the generation,
    /// which drops the whole memo so stale handles into the cleared
    /// registry are never fed again.
    static SPAN_STATS_MEMO: std::cell::RefCell<SpanStatsMemo> =
        std::cell::RefCell::new(SpanStatsMemo::default());
}

/// See `SPAN_STATS_MEMO`.
#[derive(Default)]
struct SpanStatsMemo {
    gen: u64,
    by_path: HashMap<String, Arc<SpanStats>>,
    /// The last few paths recorded, by `Arc` identity. Holding the
    /// `Arc<str>` keeps its address from being reused by another path.
    recent: [Option<(Arc<str>, Arc<SpanStats>)>; 2],
    next: usize,
}

/// Feed one finished span into the per-path latency registry.
pub(crate) fn record_span_stats(path: &Arc<str>, elapsed_ns: u64) {
    SPAN_STATS_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let gen = RESET_GEN.load(Ordering::Relaxed);
        if memo.gen != gen {
            *memo = SpanStatsMemo {
                gen,
                ..SpanStatsMemo::default()
            };
        }
        if let Some((_, stats)) = memo
            .recent
            .iter()
            .flatten()
            .find(|(p, _)| Arc::ptr_eq(p, path))
        {
            stats.record(elapsed_ns);
            return;
        }
        let stats = match memo.by_path.get(&**path) {
            Some(stats) => Arc::clone(stats),
            None => {
                let stats = {
                    let mut map = registry().spans.lock().unwrap();
                    Arc::clone(
                        map.entry(path.to_string())
                            .or_insert_with(|| Arc::new(SpanStats::new())),
                    )
                };
                memo.by_path.insert(path.to_string(), Arc::clone(&stats));
                stats
            }
        };
        stats.record(elapsed_ns);
        let slot = memo.next;
        memo.recent[slot] = Some((Arc::clone(path), stats));
        memo.next = (slot + 1) % memo.recent.len();
    });
}

/// RAII timer for one pipeline stage. Created by [`span()`] / [`span!`]
/// or by entering an explicit [`TraceCtx`]; on drop it records elapsed
/// wall time under the `/`-joined path of all open spans on this thread
/// and — when span tracing is on ([`set_span_trace`]) — appends a
/// [`SpanRecord`] to the global trace collector.
pub struct SpanGuard {
    // None when both metrics and span tracing were off at span entry.
    pub(crate) active: Option<trace_ctx::ActiveSpan>,
}

impl SpanGuard {
    /// Attach a key-value attribute, exported in the trace record's
    /// `args`. No-op on an inert guard.
    pub fn attr(&mut self, key: &str, value: impl ToString) {
        if let Some(a) = &mut self.active {
            a.push_attr(key, value.to_string());
        }
    }
}

/// Open a named span. The name becomes one path segment; nested spans
/// produce paths such as `scan/index/lift`. The span is an *ambient*
/// child of whatever span is innermost on this thread — to parent under
/// a span running on another thread, carry a [`TraceCtx`] instead.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() && !span_trace_enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard {
        active: Some(trace_ctx::push_ambient(name)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            trace_ctx::finish(active);
        }
    }
}

/// Open a span for the rest of the enclosing scope:
/// `let _span = span!("lift");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

// ---------------------------------------------------------------------------
// Snapshot + exporters
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) from the log2 buckets:
    /// find the bucket that crosses rank `q * count` and interpolate
    /// linearly inside it, clamping to the recorded `min`/`max`. The
    /// estimate is exact when the crossing bucket holds one distinct
    /// value and otherwise accurate to the bucket's span (a factor of
    /// two). Returns 0.0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0.0;
        for (bi, &(lo, n)) in self.buckets.iter().enumerate() {
            let next = seen + n as f64;
            if next >= rank || bi + 1 == self.buckets.len() {
                if lo == 0 {
                    return 0.0;
                }
                // Bucket i > 0 covers [lo, 2*lo).
                let frac = if n == 0 {
                    0.0
                } else {
                    ((rank - seen) / n as f64).clamp(0.0, 1.0)
                };
                let v = lo as f64 + frac * lo as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            seen = next;
        }
        self.max as f64
    }
}

/// Point-in-time copy of one span path's latency stats.
#[derive(Clone, Debug)]
pub struct SpanSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across all completions.
    pub total_ns: u64,
    /// Fastest completion in nanoseconds.
    pub min_ns: u64,
    /// Slowest completion in nanoseconds.
    pub max_ns: u64,
}

/// A consistent view of every registered metric.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span stats keyed by full `/`-joined path, sorted by path.
    pub spans: Vec<(String, SpanSnapshot)>,
}

/// Capture the current value of every registered metric.
pub fn snapshot() -> Snapshot {
    let r = registry();
    let mut counters: Vec<(String, u64)> = r
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    counters.sort();
    let mut gauges: Vec<(String, i64)> = r
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    gauges.sort();
    let mut histograms: Vec<(String, HistogramSnapshot)> = r
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|(k, h)| {
            let count = h.count.load(Ordering::Relaxed);
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_lower_bound(i), n))
                })
                .collect();
            (
                k.clone(),
                HistogramSnapshot {
                    count,
                    sum: h.sum.load(Ordering::Relaxed),
                    min: if count == 0 {
                        0
                    } else {
                        h.min.load(Ordering::Relaxed)
                    },
                    max: h.max.load(Ordering::Relaxed),
                    buckets,
                },
            )
        })
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    let mut spans: Vec<(String, SpanSnapshot)> = r
        .spans
        .lock()
        .unwrap()
        .iter()
        .map(|(k, s)| (k.clone(), s.snapshot()))
        .collect();
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    Snapshot {
        counters,
        gauges,
        histograms,
        spans,
    }
}

impl Snapshot {
    /// Span stats aggregated by **leaf stage name** (the last path
    /// segment), summing across call sites — `scan/index/lift` and
    /// `index/lift` both contribute to stage `lift`.
    pub fn stages(&self) -> Vec<(String, SpanSnapshot)> {
        let mut by_leaf: HashMap<&str, SpanSnapshot> = HashMap::new();
        for (path, s) in &self.spans {
            let leaf = path.rsplit('/').next().unwrap_or(path);
            let entry = by_leaf.entry(leaf).or_insert(SpanSnapshot {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            entry.count += s.count;
            entry.total_ns += s.total_ns;
            entry.min_ns = entry.min_ns.min(s.min_ns);
            entry.max_ns = entry.max_ns.max(s.max_ns);
        }
        let mut out: Vec<(String, SpanSnapshot)> = by_leaf
            .into_iter()
            .map(|(k, mut v)| {
                if v.count == 0 {
                    v.min_ns = 0;
                }
                (k.to_string(), v)
            })
            .collect();
        out.sort_by_key(|(_, v)| std::cmp::Reverse(v.total_ns));
        out
    }

    /// Render a human-readable multi-line summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("stages (by total time):\n");
            for (name, s) in self.stages() {
                let _ = writeln!(
                    out,
                    "  {name:<24} {:>6} calls  total {:>10}  mean {:>10}",
                    s.count,
                    fmt_ns(s.total_ns as f64),
                    fmt_ns(if s.count == 0 {
                        0.0
                    } else {
                        s.total_ns as f64 / s.count as f64
                    }),
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<32} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<32} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<32} count {} min {} mean {:.1} max {}",
                    h.count,
                    h.min,
                    h.mean(),
                    h.max,
                );
                for (lo, n) in &h.buckets {
                    let _ = writeln!(out, "    >= {lo:<12} {n}");
                }
            }
        }
        out
    }

    /// Render the snapshot as a JSON object with `counters`, `gauges`,
    /// `histograms`, `spans` (full paths), and `stages` (leaf-name
    /// aggregates) sections.
    pub fn render_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".to_string(), Json::Num(h.count as f64)),
                        ("sum".to_string(), Json::Num(h.sum as f64)),
                        ("min".to_string(), Json::Num(h.min as f64)),
                        ("max".to_string(), Json::Num(h.max as f64)),
                        ("mean".to_string(), Json::Num(h.mean())),
                        (
                            "buckets".to_string(),
                            Json::Arr(
                                h.buckets
                                    .iter()
                                    .map(|(lo, n)| {
                                        Json::Arr(vec![Json::Num(*lo as f64), Json::Num(*n as f64)])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect();
        let span_obj = |s: &SpanSnapshot| {
            Json::Obj(vec![
                ("count".to_string(), Json::Num(s.count as f64)),
                ("total_ns".to_string(), Json::Num(s.total_ns as f64)),
                ("min_ns".to_string(), Json::Num(s.min_ns as f64)),
                ("max_ns".to_string(), Json::Num(s.max_ns as f64)),
            ])
        };
        let spans = self
            .spans
            .iter()
            .map(|(k, s)| (k.clone(), span_obj(s)))
            .collect();
        let stages = self
            .stages()
            .iter()
            .map(|(k, s)| (k.clone(), span_obj(s)))
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(histograms)),
            ("spans".to_string(), Json::Obj(spans)),
            ("stages".to_string(), Json::Obj(stages)),
        ])
    }
}

/// [`snapshot`] + [`Snapshot::render_text`] in one call.
pub fn render_text() -> String {
    snapshot().render_text()
}

/// [`snapshot`] + [`Snapshot::render_json`] in one call.
pub fn render_json() -> Json {
    snapshot().render_json()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(3), 4);
    }

    #[test]
    fn quantile_estimates_from_log2_buckets() {
        let snap = |values: &[u64]| {
            let mut buckets: Vec<(u64, u64)> = Vec::new();
            for &v in values {
                let lo = bucket_lower_bound(bucket_of(v));
                match buckets.iter_mut().find(|(b, _)| *b == lo) {
                    Some((_, n)) => *n += 1,
                    None => buckets.push((lo, 1)),
                }
            }
            buckets.sort_unstable();
            HistogramSnapshot {
                count: values.len() as u64,
                sum: values.iter().sum(),
                min: values.iter().copied().min().unwrap_or(0),
                max: values.iter().copied().max().unwrap_or(0),
                buckets,
            }
        };
        // Empty histogram.
        assert_eq!(snap(&[]).quantile(0.5), 0.0);
        // A single value: min == max pins the estimate exactly.
        assert_eq!(snap(&[100]).quantile(0.5), 100.0);
        assert_eq!(snap(&[100]).quantile(0.95), 100.0);
        // All zeros stay zero.
        assert_eq!(snap(&[0, 0, 0]).quantile(0.99), 0.0);
        // A spread: the median lands in the right bucket, and p100
        // clamps to max.
        let h = snap(&[1, 2, 4, 8, 16, 32, 64, 128]);
        let p50 = h.quantile(0.5);
        assert!((4.0..=16.0).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 128.0);
        // Monotone in q.
        assert!(h.quantile(0.95) >= h.quantile(0.5));
        // Heavily skewed data: p95 sits in the top bucket's range.
        let h = snap(&[1; 19].iter().copied().chain([1000]).collect::<Vec<_>>());
        assert!(h.quantile(0.5) <= 2.0);
        assert!(h.quantile(0.99) > 500.0);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        disable();
        incr("unit.disabled.counter");
        observe("unit.disabled.hist", 9);
        {
            let _s = span!("unit-disabled-span");
        }
        let snap = snapshot();
        assert!(!snap
            .counters
            .iter()
            .any(|(k, v)| k == "unit.disabled.counter" && *v > 0));
        assert!(!snap
            .histograms
            .iter()
            .any(|(k, h)| k == "unit.disabled.hist" && h.count > 0));
        assert!(!snap.spans.iter().any(|(k, _)| k == "unit-disabled-span"));
    }
}
