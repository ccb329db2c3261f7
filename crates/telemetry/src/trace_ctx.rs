//! Query-scoped tracing: explicit trace contexts that survive thread
//! hops.
//!
//! PR-1's span timers nest through a thread-local stack, which is
//! correct only while a call tree stays on one thread. The work-stealing
//! executor broke that assumption: a scan unit that runs on a stolen
//! worker opens its spans on a fresh stack, severing the parent link and
//! mis-filing its latency under a truncated path. This module fixes the
//! model with an explicit [`TraceCtx`] — a `(trace id, span id, path)`
//! triple that can be captured on one thread ([`current_ctx`]), shipped
//! to another, and re-entered there ([`TraceCtx::enter`]) so every
//! descendant span lands under the correct parent no matter which worker
//! executed it.
//!
//! **Deterministic identity.** Span ids are *derived*, not allocated:
//! `child id = mix(parent id, name, key)` where the key is either an
//! explicit caller-supplied value (the executor keys unit spans by unit
//! index) or a per-parent sequence number (correct for the serial code
//! inside one unit). For a fixed workload the full span tree — ids,
//! parents, names — is therefore a pure function of the input,
//! *byte-identically reconstructable* at every `--threads N`; only
//! timestamps and worker lanes vary. [`Trace::tree_for`] rebuilds the
//! tree and [`TraceTree::render_stable`] renders exactly the
//! deterministic part.
//!
//! Finished spans are recorded into a bounded global collector when span
//! tracing is on ([`set_span_trace`], the CLI's `--trace-out` /
//! `firmup profile`); [`take_trace`] drains it for export (see
//! [`crate::export`]).

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on buffered span records: a runaway trace degrades into
/// counted drops ([`Trace::dropped`]) instead of unbounded memory.
pub const MAX_TRACE_SPANS: usize = 1 << 20;

static SPAN_TRACE: AtomicBool = AtomicBool::new(false);

/// Turn span-record collection on or off (the `--trace-out` /
/// `firmup profile` gate). Metrics ([`crate::enabled`]) and span
/// collection are independent: collection works even when the metric
/// registry is disabled.
pub fn set_span_trace(on: bool) {
    SPAN_TRACE.store(on, Ordering::Relaxed);
}

/// Whether finished spans are being recorded into the trace collector.
#[inline]
pub fn span_trace_enabled() -> bool {
    SPAN_TRACE.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Deterministic id derivation
// ---------------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a: stable across platforms and runs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derive a child span id from its parent id, name, and sibling key.
/// Pure and collision-resistant enough for tree reconstruction; never
/// returns 0 (the "no parent" sentinel).
fn derive_id(parent: u64, name: &str, key: u64) -> u64 {
    let h = splitmix64(parent ^ splitmix64(hash_name(name).wrapping_add(key)));
    if h == 0 {
        1
    } else {
        h
    }
}

// ---------------------------------------------------------------------------
// Thread-local span frames + worker lanes
// ---------------------------------------------------------------------------

pub(crate) struct Frame {
    trace_id: u64,
    span_id: u64,
    path: Arc<str>,
    /// Sequence number for the next ambient (un-keyed) child span.
    next_child: u64,
    /// Memo of the last ambient child opened under this frame:
    /// `(name, joined path)`. A hot loop that opens the same span name
    /// thousands of times under one parent (the per-game span inside a
    /// scan unit) re-joins the path once and then pays only an `Arc`
    /// refcount bump per span instead of a fresh `String` each time.
    last_child: Option<ChildPath>,
}

/// An ambient child span's name and its joined path.
type ChildPath = (&'static str, Arc<str>);

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Finished spans not yet moved to the shared collector: a thread
    /// hands them over in batches (see [`finish`]) instead of taking
    /// the collector lock once per span.
    static PENDING: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
    /// The path and ambient-child memo of the last explicit context
    /// entered on this thread. A worker enters one `unit` context per
    /// scan unit, all with the same path, so each reuses the previous
    /// one's interned path and its `…/unit/game` child path.
    static LAST_CTX: RefCell<Option<(Arc<str>, Option<ChildPath>)>> =
        const { RefCell::new(None) };
    static WORKER: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Tag this thread as executor worker lane `id` (or `None` for the main
/// lane). Recorded on every span/instant the thread finishes so the
/// Chrome trace export can draw one lane per worker.
pub fn set_worker(id: Option<u32>) {
    WORKER.with(|w| w.set(id));
}

/// The worker lane this thread was tagged with, if any.
pub fn current_worker() -> Option<u32> {
    WORKER.with(Cell::get)
}

/// A span being timed on this thread: the state [`crate::SpanGuard`]
/// records from on drop.
pub(crate) struct ActiveSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: Cow<'static, str>,
    path: Arc<str>,
    attrs: Vec<(String, String)>,
    start_ns: u64,
    started: Instant,
}

/// Open an ambient span: a child of whatever frame is on top of this
/// thread's stack (sequence-keyed), or a fresh root when the stack is
/// empty.
///
/// `name` is `&'static str` (the only caller is [`crate::span()`], whose
/// names are literals) so the active span can borrow it — no allocation
/// per span on the metrics-only path.
pub(crate) fn push_ambient(name: &'static str) -> ActiveSpan {
    let (trace_id, span_id, parent_id, path) = FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let ids = match frames.last_mut() {
            Some(p) => {
                let key = p.next_child;
                p.next_child += 1;
                let sid = derive_id(p.span_id, name, key);
                let path = match &p.last_child {
                    Some((n, cached)) if *n == name => Arc::clone(cached),
                    _ => {
                        let mut joined = String::with_capacity(p.path.len() + 1 + name.len());
                        joined.push_str(&p.path);
                        joined.push('/');
                        joined.push_str(name);
                        let joined: Arc<str> = Arc::from(joined);
                        p.last_child = Some((name, Arc::clone(&joined)));
                        joined
                    }
                };
                (p.trace_id, sid, p.span_id, path)
            }
            None => {
                let sid = derive_id(0, name, 0);
                (sid, sid, 0, Arc::<str>::from(name))
            }
        };
        frames.push(Frame {
            trace_id: ids.0,
            span_id: ids.1,
            path: Arc::clone(&ids.3),
            next_child: 0,
            last_child: None,
        });
        ids
    });
    ActiveSpan {
        trace_id,
        span_id,
        parent_id,
        name: Cow::Borrowed(name),
        path,
        attrs: Vec::new(),
        // Only the trace collector consumes start timestamps; with
        // collection off, skip the extra clock read (one per span, and
        // the scan opens a span per game).
        start_ns: if span_trace_enabled() {
            crate::epoch_ns()
        } else {
            0
        },
        started: Instant::now(),
    }
}

/// Push a frame for an explicit context (a cross-thread handoff).
/// `path` is the context's path as `(parent path, child name)`, the
/// child part absent for a context entered whole.
pub(crate) fn push_ctx(
    ids: (u64, u64, u64),
    name: Cow<'static, str>,
    path: (&str, Option<&str>),
    attrs: Vec<(String, String)>,
) -> ActiveSpan {
    let (trace_id, span_id, parent_id) = ids;
    let (parent, child) = path;
    let is_path = |p: &str| match child {
        None => p == parent,
        Some(c) => {
            p.len() == parent.len() + 1 + c.len()
                && p.starts_with(parent)
                && p[parent.len()..].starts_with('/')
                && p.ends_with(c)
        }
    };
    let (path, last_child) = LAST_CTX.with(|last| {
        let mut last = last.borrow_mut();
        match &*last {
            Some((path, memo)) if is_path(path) => (Arc::clone(path), memo.clone()),
            _ => {
                let path: Arc<str> = match child {
                    None => Arc::from(parent),
                    Some(c) => Arc::from(format!("{parent}/{c}")),
                };
                *last = Some((Arc::clone(&path), None));
                (path, None)
            }
        }
    });
    FRAMES.with(|f| {
        f.borrow_mut().push(Frame {
            trace_id,
            span_id,
            path: Arc::clone(&path),
            next_child: 0,
            last_child,
        });
    });
    ActiveSpan {
        trace_id,
        span_id,
        parent_id,
        name,
        path,
        attrs,
        // Only the trace collector consumes start timestamps; with
        // collection off, skip the extra clock read (one per span, and
        // the scan opens a span per game).
        start_ns: if span_trace_enabled() {
            crate::epoch_ns()
        } else {
            0
        },
        started: Instant::now(),
    }
}

/// Batch size at which a thread's pending span records move to the
/// shared collector even while spans are still open on it.
const PENDING_FLUSH: usize = 256;

/// Close the active span: pop its frame, feed the latency registry, and
/// (when span tracing is on) record a [`SpanRecord`]. Records collect
/// in a per-thread batch that moves to the shared collector when the
/// thread's outermost span closes or the batch fills, so concurrent
/// workers do not contend on the collector lock once per span.
pub(crate) fn finish(active: ActiveSpan) {
    let dur_ns = active.started.elapsed().as_nanos() as u64;
    let outermost = FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        if let Some(frame) = frames.pop() {
            if frame.last_child.is_some() {
                // Keep this frame's child-path memo for the next
                // context entered with the same path.
                LAST_CTX.with(|last| {
                    let mut last = last.borrow_mut();
                    if last
                        .as_ref()
                        .is_some_and(|(p, _)| Arc::ptr_eq(p, &frame.path))
                    {
                        *last = Some((frame.path, frame.last_child));
                    }
                });
            }
        }
        frames.is_empty()
    });
    if crate::enabled() {
        crate::record_span_stats(&active.path, dur_ns);
    }
    if span_trace_enabled() {
        let rec = SpanRecord {
            trace_id: active.trace_id,
            span_id: active.span_id,
            parent_id: active.parent_id,
            name: active.name.into_owned(),
            path: active.path.to_string(),
            start_ns: active.start_ns,
            dur_ns,
            worker: current_worker(),
            attrs: active.attrs,
        };
        let full = PENDING.with(|p| {
            let mut p = p.borrow_mut();
            p.push(rec);
            p.len() >= PENDING_FLUSH
        });
        if full {
            flush_pending();
        }
    }
    // Also when tracing was switched off meanwhile: nothing recorded
    // may stay behind on a thread that is about to go idle or exit.
    if outermost {
        flush_pending();
    }
}

/// Move this thread's pending span records to the shared collector.
fn flush_pending() {
    let batch = PENDING.with(|p| std::mem::take(&mut *p.borrow_mut()));
    if batch.is_empty() {
        return;
    }
    let mut buf = collector().lock().unwrap();
    let room = MAX_TRACE_SPANS.saturating_sub(buf.spans.len());
    buf.dropped += batch.len().saturating_sub(room) as u64;
    buf.spans.extend(batch.into_iter().take(room));
}

impl ActiveSpan {
    pub(crate) fn push_attr(&mut self, key: &str, value: String) {
        self.attrs.push((key.to_string(), value));
    }
}

// ---------------------------------------------------------------------------
// TraceCtx
// ---------------------------------------------------------------------------

/// An explicit trace context: the identity of one span, capturable on
/// one thread and enterable on another. See the module docs for the
/// deterministic-id scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: String,
    path: String,
    attrs: Vec<(String, String)>,
}

impl TraceCtx {
    /// A fresh root context. The trace id (and root span id) derive from
    /// `name`, so a fixed workload gets a fixed trace identity.
    pub fn root(name: &str) -> TraceCtx {
        TraceCtx::root_keyed(name, 0)
    }

    /// A fresh root context whose trace id derives from `name` *and*
    /// `key`. A long-lived server roots each request at
    /// `root_keyed("request", request_id)`: every request owns a
    /// distinct trace id, so spans from concurrently executing requests
    /// reconstruct into disjoint per-request trees instead of
    /// interleaving — and the same request id always yields the same
    /// tree identity.
    pub fn root_keyed(name: &str, key: u64) -> TraceCtx {
        let id = derive_id(0, name, key);
        TraceCtx {
            trace_id: id,
            span_id: id,
            parent_id: 0,
            name: name.to_string(),
            path: name.to_string(),
            attrs: Vec::new(),
        }
    }

    /// Derive a child context keyed by `key`. Use an input-derived key
    /// (unit index, part index) when siblings may be created from
    /// different threads or in nondeterministic order — the id must not
    /// depend on scheduling.
    pub fn child(&self, name: &str, key: u64) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            span_id: derive_id(self.span_id, name, key),
            parent_id: self.span_id,
            name: name.to_string(),
            path: format!("{}/{}", self.path, name),
            attrs: Vec::new(),
        }
    }

    /// Attach a key-value attribute (exported into the Chrome trace's
    /// `args`).
    #[must_use]
    pub fn with_attr(mut self, key: &str, value: impl ToString) -> TraceCtx {
        self.attrs.push((key.to_string(), value.to_string()));
        self
    }

    /// The trace id this context belongs to.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// This span's id.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// The `/`-joined path from the trace root to this span.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Begin timing this context's span on the current thread. Nested
    /// ambient spans ([`crate::span()`]) become its children; the span is
    /// recorded when the guard drops. Inert when both metrics and span
    /// tracing are off.
    pub fn enter(self) -> crate::SpanGuard {
        if !crate::enabled() && !span_trace_enabled() {
            return crate::SpanGuard { active: None };
        }
        crate::SpanGuard {
            active: Some(push_ctx(
                (self.trace_id, self.span_id, self.parent_id),
                Cow::Owned(self.name),
                (&self.path, None),
                self.attrs,
            )),
        }
    }

    /// `self.child(name, key).enter()` without building the child
    /// context: the executor enters one keyed `unit` span per work
    /// unit, and this skips that context's two string allocations.
    pub fn enter_child(&self, name: &'static str, key: u64) -> crate::SpanGuard {
        if !crate::enabled() && !span_trace_enabled() {
            return crate::SpanGuard { active: None };
        }
        crate::SpanGuard {
            active: Some(push_ctx(
                (
                    self.trace_id,
                    derive_id(self.span_id, name, key),
                    self.span_id,
                ),
                Cow::Borrowed(name),
                (&self.path, Some(name)),
                Vec::new(),
            )),
        }
    }
}

/// Snapshot the innermost span on this thread as a [`TraceCtx`], for
/// handing work to another thread. `None` when no span is open (or
/// recording is off).
pub fn current_ctx() -> Option<TraceCtx> {
    FRAMES.with(|f| {
        f.borrow().last().map(|frame| TraceCtx {
            trace_id: frame.trace_id,
            span_id: frame.span_id,
            parent_id: 0, // unknown here; only child derivation needs ids
            name: frame
                .path
                .rsplit('/')
                .next()
                .unwrap_or(&frame.path)
                .to_string(),
            path: frame.path.to_string(),
            attrs: Vec::new(),
        })
    })
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's derived id (never 0).
    pub span_id: u64,
    /// Parent span id, 0 for a root.
    pub parent_id: u64,
    /// Leaf name (one path segment).
    pub name: String,
    /// Full `/`-joined path from the root.
    pub path: String,
    /// Start time in nanoseconds since process start.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Executor worker lane, `None` for the main thread.
    pub worker: Option<u32>,
    /// Key-value attributes.
    pub attrs: Vec<(String, String)>,
}

/// One point event (e.g. a work steal).
#[derive(Clone, Debug, PartialEq)]
pub struct InstantRecord {
    /// Event name.
    pub name: String,
    /// Time in nanoseconds since process start.
    pub ts_ns: u64,
    /// Executor worker lane, `None` for the main thread.
    pub worker: Option<u32>,
    /// Key-value attributes.
    pub attrs: Vec<(String, String)>,
}

/// A drained (or snapshotted) trace buffer.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Finished spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Instant events, in emission order.
    pub instants: Vec<InstantRecord>,
    /// Spans discarded after the [`MAX_TRACE_SPANS`] cap was hit.
    pub dropped: u64,
}

fn collector() -> &'static Mutex<Trace> {
    static COLLECTOR: OnceLock<Mutex<Trace>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Trace::default()))
}

/// Emit one instant event (a zero-duration marker, e.g. a steal) when
/// span tracing is on.
pub fn trace_instant(name: &str, attrs: &[(&str, String)]) {
    if !span_trace_enabled() {
        return;
    }
    let rec = InstantRecord {
        name: name.to_string(),
        ts_ns: crate::epoch_ns(),
        worker: current_worker(),
        attrs: attrs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    };
    let mut buf = collector().lock().unwrap();
    if buf.instants.len() >= MAX_TRACE_SPANS {
        buf.dropped += 1;
    } else {
        buf.instants.push(rec);
    }
}

/// Drain the trace collector, returning everything recorded since the
/// last drain. Spans still pending on *other* threads are moved over
/// when those threads close their outermost span.
pub fn take_trace() -> Trace {
    flush_pending();
    std::mem::take(&mut *collector().lock().unwrap())
}

/// Copy the trace collector without draining it (for tests that share
/// the process-global collector with concurrent tests — filter by trace
/// id via [`Trace::tree_for`]).
pub fn trace_snapshot() -> Trace {
    flush_pending();
    collector().lock().unwrap().clone()
}

// ---------------------------------------------------------------------------
// Tree reconstruction
// ---------------------------------------------------------------------------

/// One node of a reconstructed span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceNode {
    /// Derived span id.
    pub span_id: u64,
    /// Span name.
    pub name: String,
    /// How many records carried this id (normally 1).
    pub count: u64,
    /// Total nanoseconds across those records (excluded from
    /// [`TraceTree::render_stable`]).
    pub total_ns: u64,
    /// Children, sorted by span id.
    pub children: Vec<TraceNode>,
}

/// A reconstructed trace: roots sorted by span id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceTree {
    /// Root spans (parent id 0 or parent never recorded).
    pub roots: Vec<TraceNode>,
}

impl Trace {
    /// Reconstruct the span tree across every trace in the buffer.
    pub fn tree(&self) -> TraceTree {
        self.build_tree(None)
    }

    /// Reconstruct the span tree of one trace only.
    pub fn tree_for(&self, trace_id: u64) -> TraceTree {
        self.build_tree(Some(trace_id))
    }

    fn build_tree(&self, filter: Option<u64>) -> TraceTree {
        struct Agg {
            name: String,
            parent: u64,
            count: u64,
            total_ns: u64,
        }
        let mut by_id: HashMap<u64, Agg> = HashMap::new();
        for s in &self.spans {
            if filter.is_some_and(|t| t != s.trace_id) {
                continue;
            }
            let e = by_id.entry(s.span_id).or_insert(Agg {
                name: s.name.clone(),
                parent: s.parent_id,
                count: 0,
                total_ns: 0,
            });
            e.count += 1;
            e.total_ns += s.dur_ns;
        }
        let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut roots: Vec<u64> = Vec::new();
        for (&id, agg) in &by_id {
            if agg.parent != 0 && by_id.contains_key(&agg.parent) {
                children.entry(agg.parent).or_default().push(id);
            } else {
                roots.push(id);
            }
        }
        fn build(
            id: u64,
            by_id: &HashMap<u64, Agg>,
            children: &mut HashMap<u64, Vec<u64>>,
        ) -> TraceNode {
            let agg = &by_id[&id];
            let mut kids = children.remove(&id).unwrap_or_default();
            kids.sort_unstable();
            TraceNode {
                span_id: id,
                name: agg.name.clone(),
                count: agg.count,
                total_ns: agg.total_ns,
                children: kids
                    .into_iter()
                    .map(|k| build(k, by_id, children))
                    .collect(),
            }
        }
        roots.sort_unstable();
        TraceTree {
            roots: roots
                .into_iter()
                .map(|r| build(r, &by_id, &mut children))
                .collect(),
        }
    }
}

impl TraceTree {
    /// Render only the deterministic part of the tree — names, derived
    /// ids, structure, and record counts; no timestamps, durations, or
    /// worker lanes. For a fixed workload this string is byte-identical
    /// at every thread count.
    pub fn render_stable(&self) -> String {
        fn walk(node: &TraceNode, depth: usize, out: &mut String) {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{}{}#{:016x} x{}",
                "  ".repeat(depth),
                node.name,
                node.span_id,
                node.count
            );
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            walk(r, 0, &mut out);
        }
        out
    }

    /// Total span count in the tree.
    pub fn len(&self) -> usize {
        fn count(n: &TraceNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }

    /// Whether the tree has no spans.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ids_are_stable_and_key_sensitive() {
        let root = TraceCtx::root("scan");
        assert_eq!(root.trace_id(), TraceCtx::root("scan").trace_id());
        assert_ne!(root.trace_id(), TraceCtx::root("other").trace_id());
        let a = root.child("unit", 0);
        let b = root.child("unit", 1);
        assert_eq!(a, root.child("unit", 0));
        assert_ne!(a.span_id(), b.span_id());
        assert_eq!(a.path(), "scan/unit");
        assert_ne!(a.span_id(), 0, "0 is the no-parent sentinel");
    }

    #[test]
    fn tree_reconstruction_sorts_children_and_filters_by_trace() {
        let root = TraceCtx::root("t-tree");
        let mk = |ctx: &TraceCtx| SpanRecord {
            trace_id: ctx.trace_id(),
            span_id: ctx.span_id(),
            parent_id: ctx.parent_id,
            name: ctx.name.clone(),
            path: ctx.path().to_string(),
            start_ns: 0,
            dur_ns: 10,
            worker: None,
            attrs: Vec::new(),
        };
        let u0 = root.child("unit", 0);
        let u1 = root.child("unit", 1);
        let other = TraceCtx::root("t-other");
        let trace = Trace {
            // Arrival order scrambled on purpose.
            spans: vec![mk(&u1), mk(&other), mk(&root), mk(&u0)],
            instants: Vec::new(),
            dropped: 0,
        };
        let tree = trace.tree_for(root.trace_id());
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].name, "t-tree");
        assert_eq!(tree.roots[0].children.len(), 2);
        assert_eq!(tree.len(), 3);
        let mut ids: Vec<u64> = tree.roots[0].children.iter().map(|c| c.span_id).collect();
        let sorted = {
            let mut s = ids.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(ids, sorted, "children sorted by span id");
        ids.dedup();
        assert_eq!(ids.len(), 2);
        // The other trace is excluded; tree() would include it.
        assert_eq!(trace.tree().roots.len(), 2);
        // Stable render is one line per span: name, id, count — and no
        // duration field that could vary between runs.
        let r = tree.render_stable();
        assert_eq!(r.lines().count(), tree.len(), "{r}");
        assert!(r.contains("t-tree#"), "{r}");
        assert!(
            r.lines().all(|l| l.trim_start().matches(' ').count() == 1),
            "{r}"
        );
    }
}
