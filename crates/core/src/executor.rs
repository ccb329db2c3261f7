//! Work-stealing executor for fine-grained scan work units.
//!
//! A corpus scan decomposes into many independent units — a chunk of
//! targets inside one [`crate::search::search_corpus`] call, or a
//! (query × candidate-shard) pair at the whole-scan level (see
//! [`crate::search::scan_units`]). [`run_units`] schedules those units
//! over `std::thread::scope` workers that drain a per-worker chunked
//! deque and steal from a sibling's tail when their own runs dry —
//! std-only, no extra dependencies.
//!
//! **Determinism invariant.** Every unit's result lands in a slot
//! vector indexed by unit number, and the merged output is read back in
//! slot order. Scheduling, stealing, and arrival order can never leak
//! into results: for a fixed input, `threads = N` produces the same
//! output vector for every `N`.
//!
//! Telemetry: each processed chunk counts in `scan.units_done` and
//! records its item count in the `scan.unit_items` histogram; each
//! successful steal counts in `scan.steal_count` and (under span
//! tracing) emits a `steal` instant with thief/victim lanes. Each
//! *unit* runs under a `unit` span parented on the caller's innermost
//! span via an explicit [`TraceCtx`] keyed by unit index — so the
//! reconstructed span tree is identical at every thread count even when
//! a unit executes on a stolen worker, and chunk boundaries (which vary
//! with `threads`) never shape the tree.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use firmup_telemetry::{Counter, Histogram, LocalHistogram, TraceCtx};

/// Resolve a `threads` setting: `0` means one worker per available
/// core (falling back to 4 when parallelism cannot be queried).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Process-wide ceiling on workers spawned by concurrent [`run_units`]
/// calls (`0` = uncapped). A long-lived server admitting many scans at
/// once sets this once so N in-flight requests × M threads each cannot
/// oversubscribe the machine.
static WORKER_CAP: AtomicUsize = AtomicUsize::new(0);

/// Workers currently granted to in-flight [`run_units`] calls.
static WORKERS_IN_USE: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide worker ceiling shared by every concurrent
/// [`run_units`] call (`0` restores the default: uncapped). Each call
/// still gets at least one worker, so a saturated cap degrades to
/// serial execution instead of blocking — and the determinism invariant
/// makes the granted width unobservable in results.
pub fn set_worker_cap(cap: usize) {
    WORKER_CAP.store(cap, Ordering::SeqCst);
}

/// A grant of worker slots against [`WORKER_CAP`], released on drop.
struct WorkerClaim {
    granted: usize,
    charged: usize,
}

impl Drop for WorkerClaim {
    fn drop(&mut self) {
        if self.charged > 0 {
            WORKERS_IN_USE.fetch_sub(self.charged, Ordering::SeqCst);
        }
    }
}

/// How many of `want` workers fit under `cap` given `already` granted:
/// everything when uncapped, otherwise what remains — but never less
/// than one, so no caller ever blocks on the cap.
fn grant(want: usize, cap: usize, already: usize) -> usize {
    if cap == 0 {
        want
    } else {
        want.min(cap.saturating_sub(already)).max(1)
    }
}

/// Claim up to `want` worker slots against the global cap.
fn claim_workers(want: usize) -> WorkerClaim {
    let cap = WORKER_CAP.load(Ordering::SeqCst);
    if cap == 0 || want <= 1 {
        return WorkerClaim {
            granted: want,
            charged: 0,
        };
    }
    // Optimistically charge the full request, then refund what the cap
    // refuses — a single fetch_add keeps concurrent claimants additive.
    let already = WORKERS_IN_USE.fetch_add(want, Ordering::SeqCst);
    let granted = grant(want, cap, already);
    if granted < want {
        WORKERS_IN_USE.fetch_sub(want - granted, Ordering::SeqCst);
    }
    WorkerClaim {
        granted,
        charged: granted,
    }
}

/// Scheduling chunk size for `items` spread over `threads` workers:
/// about four chunks per worker so stealing can rebalance a skewed
/// workload, never zero.
pub fn chunk_size(items: usize, threads: usize) -> usize {
    (items / (threads.max(1) * 4)).max(1)
}

/// Metric handles resolved once per [`run_units`] call. The registry
/// resolution (name hash + map lock) must stay off the per-chunk path:
/// a scan issues O(units) chunks, and the regression pin in
/// `tests/metric_lookup_pin.rs` requires registry traffic to be O(1)
/// in corpus size. `None` when telemetry was disabled at entry, so the
/// disabled path stays lookup-free.
struct ChunkMetrics {
    units_done: Counter,
    unit_items: Histogram,
    steals: Counter,
}

impl ChunkMetrics {
    fn resolve() -> Option<ChunkMetrics> {
        firmup_telemetry::enabled().then(|| ChunkMetrics {
            units_done: firmup_telemetry::counter("scan.units_done"),
            unit_items: firmup_telemetry::histogram("scan.unit_items"),
            steals: firmup_telemetry::counter("scan.steal_count"),
        })
    }
}

impl ChunkMetrics {
    /// Add one worker's chunk tally (kept locally, so workers do not
    /// contend on the shared metrics once per chunk).
    fn add(&self, tally: &mut ChunkTally) {
        self.units_done.add(tally.chunks);
        tally.items.flush_to(&self.unit_items);
        tally.chunks = 0;
    }
}

/// One worker's `scan.units_done` / `scan.unit_items` observations.
#[derive(Default)]
struct ChunkTally {
    chunks: u64,
    items: LocalHistogram,
}

/// Process one chunk of unit indices, tallying it in `tally`. Every
/// unit gets its own `unit` span, parented on `parent` (the caller's
/// innermost span at [`run_units`] entry) and keyed by unit index so
/// its identity is scheduling-independent.
fn run_chunk<R>(
    range: Range<usize>,
    parent: Option<&TraceCtx>,
    tally: &mut ChunkTally,
    run: &(impl Fn(usize) -> R + Sync),
    out: &mut Vec<(usize, R)>,
) {
    tally.chunks += 1;
    tally.items.record(range.len() as u64);
    for i in range {
        let _span = match parent {
            Some(p) => p.enter_child("unit", i as u64),
            None => firmup_telemetry::span!("unit"),
        };
        out.push((i, run(i)));
    }
}

/// Run `n` independent work units over `threads` workers (resolved via
/// [`resolve_threads`]) pulling chunks of `chunk` consecutive unit
/// indices from per-worker deques, stealing from siblings when idle.
/// Each worker's deque starts as one contiguous block of chunks, so
/// neighbouring units (in a scan, the units of one job) tend to run on
/// one worker; the calling thread is worker 0.
///
/// `run(i)` is called exactly once for every `i in 0..n`; the returned
/// vector holds the results in unit order regardless of thread count or
/// scheduling — see the module docs for the determinism invariant.
///
/// A panic inside `run` propagates out of the scope join (poisoning the
/// whole call), exactly like the pre-executor scoped-thread pools;
/// callers that need isolation catch unwinds inside `run` (as
/// [`crate::search::search_corpus_robust`] does).
pub fn run_units<R, F>(n: usize, threads: usize, chunk: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let claim = claim_workers(resolve_threads(threads).min(n.max(1)));
    let threads = claim.granted;
    let chunk = chunk.max(1);
    // Captured once on the calling thread: the parent every unit span
    // hangs from, no matter which worker ends up executing it.
    let parent = firmup_telemetry::current_ctx();
    let metrics = ChunkMetrics::resolve();
    if threads <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        let mut tally = ChunkTally::default();
        for start in (0..n).step_by(chunk) {
            run_chunk(
                start..(start + chunk).min(n),
                parent.as_ref(),
                &mut tally,
                &run,
                &mut out,
            );
        }
        if let Some(m) = &metrics {
            m.add(&mut tally);
        }
        return out.into_iter().map(|(_, r)| r).collect();
    }
    // Deal chunks up front as one contiguous block per worker; no new
    // work is ever enqueued, so "every deque empty" is a safe exit.
    let queues: Vec<Mutex<VecDeque<Range<usize>>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    let chunks = n.div_ceil(chunk);
    for (c, start) in (0..n).step_by(chunk).enumerate() {
        queues[c * threads / chunks]
            .lock()
            .expect("unit queue lock")
            .push_back(start..(start + chunk).min(n));
    }
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = |w: usize| {
        let mut done: Vec<(usize, R)> = Vec::new();
        let mut tally = ChunkTally::default();
        loop {
            // Own work first (front), then steal a victim's tail.
            // The own-queue pop must be its own statement: a guard
            // temporary chained into `.or_else(..)` would stay alive
            // across the whole steal scan, and two idle workers each
            // holding their own (empty) queue lock while trying the
            // other's form a lock cycle.
            let own = queues[w].lock().expect("unit queue lock").pop_front();
            let job = own.or_else(|| {
                (1..threads).find_map(|off| {
                    let victim = (w + off) % threads;
                    let stolen = queues[victim].lock().expect("unit queue lock").pop_back();
                    if let Some(range) = &stolen {
                        if let Some(m) = metrics.as_ref() {
                            m.steals.incr();
                        }
                        firmup_telemetry::trace_instant(
                            "steal",
                            &[
                                ("victim", victim.to_string()),
                                ("thief", w.to_string()),
                                ("units", format!("{range:?}")),
                            ],
                        );
                    }
                    stolen
                })
            });
            let Some(range) = job else { break };
            run_chunk(range, parent.as_ref(), &mut tally, &run, &mut done);
        }
        if let Some(m) = &metrics {
            m.add(&mut tally);
        }
        let mut slots = slots.lock().expect("unit slots lock");
        for (i, r) in done {
            slots[i] = Some(r);
        }
    };
    std::thread::scope(|scope| {
        let work = &work;
        for w in 1..threads {
            scope.spawn(move || {
                firmup_telemetry::set_worker(Some(w as u32));
                work(w);
            });
        }
        // The calling thread is worker 0: it starts on its own block at
        // once instead of idling while the others start. Its own lane
        // tag comes back on return and on unwind alike.
        struct Lane(Option<u32>);
        impl Drop for Lane {
            fn drop(&mut self) {
                firmup_telemetry::set_worker(self.0);
            }
        }
        let _lane = Lane(firmup_telemetry::current_worker());
        firmup_telemetry::set_worker(Some(0));
        work(0);
    });
    slots
        .into_inner()
        .expect("unit slots lock")
        .into_iter()
        .map(|r| r.expect("every unit slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_unit_order_for_every_thread_count() {
        let calls = AtomicUsize::new(0);
        for threads in [1, 2, 3, 4, 8] {
            for n in [0, 1, 2, 7, 33] {
                calls.store(0, Ordering::Relaxed);
                let out = run_units(n, threads, 3, |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i * 10
                });
                assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
                assert_eq!(calls.load(Ordering::Relaxed), n, "run once per unit");
            }
        }
    }

    #[test]
    fn idle_workers_steal_pending_chunks() {
        firmup_telemetry::enable();
        let before = firmup_telemetry::counter("scan.steal_count").get();
        // chunk = 1 deals unit i to queue i % 2: evens to worker 0, odds
        // to worker 1. Worker 0's units sleep, so worker 1 drains its
        // own queue quickly and must steal the pending even units.
        run_units(8, 2, 1, |i| {
            if i % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert!(
            firmup_telemetry::counter("scan.steal_count").get() > before,
            "no steal recorded for a skewed workload"
        );
    }

    #[test]
    fn concurrent_stealers_never_deadlock() {
        // Regression: the steal scan once ran while the thief still held
        // its own (empty) queue lock — the guard temporary from
        // `queues[w].lock()` chained straight into `.or_else(..)` lived
        // until the end of the statement — so several simultaneously
        // idle workers could each hold their own queue lock while
        // probing a sibling's and form a lock cycle. Steal-heavy rounds
        // (one unit per worker, one straggler) made that near-certain
        // over a few hundred iterations; a watchdog turns the historic
        // hang into a clean failure.
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..400usize {
                let n = 12;
                let out = run_units(n, 4, 1, |i| {
                    // Skewed, allocation-bearing work so workers drain
                    // their queues at different rates and re-enter the
                    // steal scan many times per round.
                    let mut acc = 0u64;
                    for k in 0..((i * 7 + round) % 23) * 40 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
                        if k % 16 == 0 {
                            acc ^= format!("{acc:x}").len() as u64;
                        }
                    }
                    (i, acc)
                });
                assert_eq!(out.len(), n);
                assert!(out.iter().enumerate().all(|(i, r)| r.0 == i));
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("steal-heavy rounds deadlocked: lock cycle among idle stealers");
    }

    #[test]
    fn grant_math_caps_but_never_starves() {
        // Uncapped: everything granted.
        assert_eq!(grant(8, 0, 1000), 8);
        // Under cap: full request.
        assert_eq!(grant(3, 8, 2), 3);
        // Partially available: what remains.
        assert_eq!(grant(4, 8, 6), 2);
        // Saturated (or overshot): still one worker, never zero.
        assert_eq!(grant(4, 8, 8), 1);
        assert_eq!(grant(4, 8, 100), 1);
        // want = 1 is always satisfiable.
        assert_eq!(grant(1, 2, 2), 1);
    }

    #[test]
    fn capped_run_units_stays_correct_and_releases_slots() {
        // Functional check under a tight cap: results stay deterministic
        // and complete while several run_units calls race for two slots,
        // and every slot is released afterwards. Counter *values* during
        // the race are scheduling-dependent, so only the end state is
        // asserted exactly.
        set_worker_cap(2);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        let out = run_units(16, 4, 1, |i| i * 3);
                        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
                    }
                });
            }
        });
        set_worker_cap(0);
        // Sibling tests may have claimed slots during the capped window;
        // their calls are short, so the counter must drain to zero. With
        // the cap back at 0 no new claim charges anything, so a counter
        // stuck above zero is a leak.
        let gone = (0..1000).any(|_| {
            if WORKERS_IN_USE.load(Ordering::SeqCst) == 0 {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            false
        });
        assert!(gone, "worker slots leaked past their run_units call");
    }

    #[test]
    fn chunk_size_is_never_zero_and_scales_down() {
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(3, 4), 1);
        assert!(chunk_size(1000, 4) >= 2);
        assert!(chunk_size(1000, 1) > chunk_size(1000, 8));
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
