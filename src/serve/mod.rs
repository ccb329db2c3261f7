//! `firmup serve` — a long-lived scan daemon over a resident corpus
//! index.
//!
//! FirmUp's workload is prepare-once/scan-many: one shared
//! [`CorpusIndex`](firmup_core::persist::CorpusIndex) queried by many
//! concurrent requests. The daemon
//! composes the existing robustness pieces into a serving loop:
//!
//! - **Admission control & load shedding** — a bounded
//!   [`admission::AdmissionQueue`]; when it is full the connection gets
//!   a structured `429 overloaded` response with a retry-after hint,
//!   never a hang or a panic ([`admission`]).
//! - **Per-request budgets** — a client `deadline_ms` (body field or
//!   `x-firmup-deadline-ms` header), capped by `--max-request-ms`, is
//!   anchored at request *arrival* and flows into
//!   [`ScanBudget::deadline`] — queue wait counts against the caller's
//!   deadline, and exhaustion returns partial results with
//!   `over_budget` markers exactly like the CLI.
//! - **Panic isolation** — each connection (and each scan) runs under
//!   `isolate()`: a poisoned request answers 500 and the daemon serves
//!   on.
//! - **Graceful drain** — SIGTERM/SIGINT stop the accept loop, workers
//!   answer everything already admitted (budget-cancelled after
//!   `--drain-ms`), metrics flush, and the process exits 0 (TERM) or
//!   130 (INT).
//! - **Hot reload** — SIGHUP swaps in a freshly loaded snapshot behind
//!   an `Arc`; in-flight requests finish on the old snapshot, and a
//!   failed reload keeps the old snapshot while surfacing the error via
//!   `/readyz` ([`lifecycle`]).
//!
//! **Determinism extends to serving**: a scan request is answered by
//! the same [`crate::pipeline::run_scan`] the CLI uses, so the response
//! body is byte-identical to `firmup scan --index DIR --format json`
//! stdout for the same snapshot — regardless of concurrent load,
//! worker threads, or whether the request was queued.
//!
//! Endpoints: `POST /scan` (JSON body, or a bare JSON line — see
//! [`protocol`]), `GET /healthz`, `GET /readyz`, `GET /metrics`
//! (Prometheus text exposition).

pub mod admission;
pub mod lifecycle;
pub mod protocol;

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use firmup_core::error::{isolate, FaultCtx};
use firmup_core::search::ScanBudget;
use firmup_firmware::durable::write_atomic;
use firmup_telemetry::json::Json;
use firmup_telemetry::TraceCtx;

use crate::pipeline::{QueryCache, ScanOptions};
use admission::AdmissionQueue;
use lifecycle::{DrainState, SnapshotStore};
use protocol::{read_request, write_response, ProtocolError, Request};

/// Per-connection socket I/O timeout: a wedged or vanished client can
/// hold a worker for at most this long.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Read timeout used on the shed path, which runs on the accept loop —
/// kept short so a slow client cannot stall admission for long.
const SHED_READ_TIMEOUT: Duration = Duration::from_millis(1000);
/// Hard cap on request body size.
const MAX_BODY: usize = 64 * 1024;
/// Poll interval for the nonblocking accept loop (also how quickly a
/// SIGHUP/SIGTERM is noticed when no connections arrive).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Daemon configuration (all defaults applied by the CLI layer).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory holding the persisted corpus index.
    pub index_dir: PathBuf,
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port;
    /// pair with `port_file` to discover it).
    pub listen: String,
    /// Request worker threads.
    pub workers: usize,
    /// Bounded admission queue capacity; a request arriving beyond it
    /// is shed with a 429.
    pub queue_cap: usize,
    /// Scan threads per request (0 = all cores). Responses are
    /// byte-identical for every value.
    pub threads: usize,
    /// Server-side cap on a request's deadline in milliseconds
    /// (`None` = uncapped).
    pub max_request_ms: Option<u64>,
    /// How long a drain lets in-flight work finish before
    /// budget-cancelling it.
    pub drain_ms: u64,
    /// Write the bound address here (atomically) once listening.
    pub port_file: Option<PathBuf>,
    /// Write the final metrics snapshot here (atomically) on exit.
    pub metrics_out: Option<PathBuf>,
    /// Record spans and write a Chrome trace-event file here on exit.
    pub trace_out: Option<PathBuf>,
}

/// One admitted connection, queued for a worker.
struct Job {
    stream: TcpStream,
    /// Accept time: queue wait is measured — and the client deadline
    /// anchored — here, so time spent queued counts against both.
    arrival: Instant,
    /// Request id: monotonic admission order; keys the per-request
    /// trace root so concurrent requests trace disjointly.
    id: u64,
}

/// Run the daemon until a terminating signal, then drain and flush.
/// Returns the process exit code (0 for SIGTERM/clean, 130 for SIGINT).
///
/// # Errors
///
/// Startup failures only (bad index, unbindable address, unwritable
/// port file); once serving, faults degrade instead of erroring out.
pub fn run(cfg: &ServeConfig) -> Result<u8, String> {
    firmup_telemetry::enable();
    firmup_telemetry::preregister(
        &[
            "serve.requests",
            "serve.admitted",
            "serve.shed",
            "serve.scans",
            "serve.poisoned",
            "serve.budget_exceeded",
            "serve.bad_requests",
            "serve.reloads",
            "serve.reload_failures",
            "scan.queries_loaded",
            "scan.queries_built",
            "scan.query_records_rejected",
            "scan.errors.query",
            "game.sims_computed",
            "game.sims_memoized",
            "game.sim_table_fallbacks",
        ],
        &["serve.queue_depth"],
        &["serve.request_us", "serve.queue_wait_us"],
    );
    if cfg.trace_out.is_some() {
        firmup_telemetry::set_span_trace(true);
    }
    crate::shutdown::install_serve();
    // N in-flight scans × M threads each must not oversubscribe the
    // machine: cap the executor's total workers at the core count.
    // (Determinism is unaffected — results never depend on the width
    // actually granted.)
    firmup_core::executor::set_worker_cap(firmup_core::executor::resolve_threads(0));
    let store = SnapshotStore::open(&cfg.index_dir)?;
    let listener = TcpListener::bind(&cfg.listen).map_err(|e| format!("{}: {e}", cfg.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    if let Some(pf) = &cfg.port_file {
        write_atomic(pf, addr.to_string().as_bytes())
            .map_err(|e| format!("{}: {e}", pf.display()))?;
    }
    eprintln!(
        "serve: listening on {addr} ({} executable(s) from {}, epoch {})",
        store.snapshot().len(),
        cfg.index_dir.display(),
        store.epoch()
    );
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;

    let queue: AdmissionQueue<Job> = AdmissionQueue::new(cfg.queue_cap);
    let drain = DrainState::new(Duration::from_millis(cfg.drain_ms));
    let cache = QueryCache::default();
    let answered = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let (queue, store, drain, cache, answered) = (&queue, &store, &drain, &cache, &answered);
        for w in 0..cfg.workers.max(1) {
            scope.spawn(move || {
                firmup_telemetry::set_worker(Some(w as u32));
                while let Some(job) = queue.pop() {
                    firmup_telemetry::set_gauge("serve.queue_depth", queue.depth() as i64);
                    let id = job.id;
                    // Outer isolation: a panic anywhere in connection
                    // handling (protocol layer included) poisons only
                    // this connection, never the worker or the daemon.
                    let handled = isolate(FaultCtx::image(format!("conn-{id}")), || {
                        handle_job(job, cfg, store, drain, cache, queue);
                        Ok(())
                    });
                    if let Err(e) = handled {
                        firmup_telemetry::incr("serve.poisoned");
                        eprintln!("serve: connection {id} poisoned: {e}");
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Accept loop (on the calling thread): admission, shedding, and
        // signal polling. Never blocks for long — the listener is
        // nonblocking and the shed path's reads are short-capped.
        let mut next_id = 0u64;
        let mut hup_seen = crate::shutdown::hup_generation();
        loop {
            if crate::shutdown::interrupted() {
                break;
            }
            let hup = crate::shutdown::hup_generation();
            if hup != hup_seen {
                hup_seen = hup;
                firmup_telemetry::incr("serve.reloads");
                match store.reload() {
                    Ok(()) => eprintln!(
                        "serve: index reloaded (epoch {}, {} executable(s))",
                        store.epoch(),
                        store.snapshot().len()
                    ),
                    Err(e) => {
                        firmup_telemetry::incr("serve.reload_failures");
                        eprintln!("serve: reload failed, keeping old snapshot: {e}");
                    }
                }
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    next_id += 1;
                    firmup_telemetry::incr("serve.requests");
                    // Accepted sockets do not inherit the listener's
                    // nonblocking mode on every platform — normalize,
                    // and bound all per-connection I/O.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    let job = Job {
                        stream,
                        arrival: Instant::now(),
                        id: next_id,
                    };
                    match queue.try_push(job) {
                        Ok(depth) => {
                            firmup_telemetry::incr("serve.admitted");
                            firmup_telemetry::set_gauge("serve.queue_depth", depth as i64);
                        }
                        Err(job) => {
                            firmup_telemetry::incr("serve.shed");
                            shed(job);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => {
                    eprintln!("serve: accept: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }

        // Drain: stop admitting, let workers answer everything already
        // accepted; after the drain allowance, in-flight scans see
        // `stop` and cancel cooperatively at unit boundaries.
        drain.begin();
        queue.close();
        eprintln!(
            "serve: draining ({} queued, {} answered so far)",
            queue.depth(),
            answered.load(Ordering::Relaxed)
        );
    });

    // All workers joined: every admitted request has been answered.
    let snap = firmup_telemetry::snapshot();
    eprint!("{}", snap.render_text());
    if let Some(path) = &cfg.metrics_out {
        write_atomic(path, snap.render_json().render().as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("serve: metrics written to {}", path.display());
    }
    if let Some(path) = &cfg.trace_out {
        let trace = firmup_telemetry::take_trace();
        let doc = firmup_telemetry::render_chrome(&trace);
        write_atomic(path, doc.render().as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "serve: trace written to {} ({} span(s))",
            path.display(),
            trace.spans.len()
        );
    }
    let code = match crate::shutdown::term_signal() {
        Some(2) => crate::shutdown::INTERRUPT_EXIT_CODE,
        _ => 0,
    };
    eprintln!(
        "serve: drained {} request(s); exit {code}",
        answered.load(Ordering::Relaxed)
    );
    Ok(code)
}

/// Answer a shed connection with a structured 429. Runs on the accept
/// loop, so the request read is short-capped; any I/O failure is the
/// client's problem (logged, never fatal).
fn shed(job: Job) {
    let _ = job.stream.set_read_timeout(Some(SHED_READ_TIMEOUT));
    // Read the request first so the response survives the close (an
    // unread request in the socket buffer can turn close into RST) and
    // so newline-JSON clients get a shed line in their own dialect.
    let mut reader = BufReader::new(&job.stream);
    let raw_json = read_request(&mut reader, MAX_BODY)
        .map(|r| r.raw_json)
        .unwrap_or(false);
    let body = Json::Obj(vec![
        ("error".into(), Json::Str("overloaded".into())),
        ("retry_after_ms".into(), Json::Num(1000.0)),
    ])
    .render()
    .into_bytes();
    let mut w = &job.stream;
    if let Err(e) = write_response(
        &mut w,
        raw_json,
        429,
        "application/json",
        &[("Retry-After", "1".to_string())],
        &body,
    ) {
        eprintln!("serve: shed response for request {}: {e}", job.id);
    }
}

/// Read, dispatch, and answer one admitted connection (on a worker).
fn handle_job(
    job: Job,
    cfg: &ServeConfig,
    store: &SnapshotStore,
    drain: &DrainState,
    cache: &QueryCache,
    queue: &AdmissionQueue<Job>,
) {
    let started = Instant::now();
    firmup_telemetry::observe(
        "serve.queue_wait_us",
        job.arrival.elapsed().as_micros() as u64,
    );
    let mut reader = BufReader::new(&job.stream);
    let req = match read_request(&mut reader, MAX_BODY) {
        Ok(req) => req,
        Err(ProtocolError { status, message }) => {
            firmup_telemetry::incr("serve.bad_requests");
            respond(
                &job,
                false,
                status,
                "application/json",
                &[],
                &protocol::error_body("bad_request", &message),
            );
            firmup_telemetry::observe("serve.request_us", started.elapsed().as_micros() as u64);
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond(&job, false, 200, "text/plain", &[], b"ok\n"),
        ("GET", "/readyz") => readyz(&job, cfg, store, queue.depth()),
        ("GET", "/metrics") => {
            let text = firmup_telemetry::render_prometheus(&firmup_telemetry::snapshot());
            respond(
                &job,
                false,
                200,
                "text/plain; version=0.0.4",
                &[],
                text.as_bytes(),
            );
        }
        ("POST", "/scan") => scan(&job, &req, cfg, store, drain, cache),
        (_, "/scan" | "/healthz" | "/readyz" | "/metrics") => {
            firmup_telemetry::incr("serve.bad_requests");
            respond(
                &job,
                req.raw_json,
                405,
                "application/json",
                &[],
                &protocol::error_body("method_not_allowed", &req.method),
            );
        }
        (_, path) => {
            firmup_telemetry::incr("serve.bad_requests");
            respond(
                &job,
                req.raw_json,
                404,
                "application/json",
                &[],
                &protocol::error_body("not_found", path),
            );
        }
    }
    firmup_telemetry::observe("serve.request_us", started.elapsed().as_micros() as u64);
}

/// Readiness: a loaded snapshot, no lingering reload failure, and a
/// queue below the shed threshold. The body reports the inputs so
/// operators (and the chaos drill) can see *why* the daemon is not
/// ready.
fn readyz(job: &Job, cfg: &ServeConfig, store: &SnapshotStore, depth: usize) {
    let reload_error = store.reload_error();
    // Depth is sampled racily; readiness is advisory by nature.
    let ready = reload_error.is_none() && depth < cfg.queue_cap;
    let (segment_epoch, segments) = store.segment_view();
    let body = Json::Obj(vec![
        ("ready".into(), Json::Bool(ready)),
        ("epoch".into(), Json::Num(store.epoch() as f64)),
        (
            "executables".into(),
            Json::Num(store.snapshot().len() as f64),
        ),
        ("segment_epoch".into(), Json::Num(segment_epoch as f64)),
        ("segments".into(), Json::Num(segments as f64)),
        ("queue_depth".into(), Json::Num(depth as f64)),
        ("queue_capacity".into(), Json::Num(cfg.queue_cap as f64)),
        (
            "reload_error".into(),
            match reload_error {
                Some(e) => Json::Str(e),
                None => Json::Null,
            },
        ),
    ])
    .render()
    .into_bytes();
    let status = if ready { 200 } else { 503 };
    respond(job, false, status, "application/json", &[], &body);
}

/// Execute one scan request end to end: budget derivation, snapshot
/// pin, isolated scan, canonical findings document.
fn scan(
    job: &Job,
    req: &Request,
    cfg: &ServeConfig,
    store: &SnapshotStore,
    drain: &DrainState,
    cache: &QueryCache,
) {
    firmup_telemetry::incr("serve.scans");
    let scan_req = match protocol::parse_scan_request(req) {
        Ok(r) => r,
        Err(msg) => {
            firmup_telemetry::incr("serve.bad_requests");
            respond(
                job,
                req.raw_json,
                400,
                "application/json",
                &[],
                &protocol::error_body("bad_request", &msg),
            );
            return;
        }
    };
    // Per-request trace root keyed by request id: spans from concurrent
    // requests reconstruct into disjoint trees (see `--trace-out`).
    let _request_span = TraceCtx::root_keyed("request", job.id)
        .with_attr("id", job.id)
        .enter();
    // Pin the snapshot for the whole request: a SIGHUP reload swaps the
    // store's Arc but never this one.
    let snapshot = store.snapshot();
    // Test hook: hold the request here (snapshot already pinned) so
    // tests can deterministically overlap reloads and queue pressure
    // with an in-flight scan.
    if let Some(ms) = std::env::var("FIRMUP_TEST_HANDLE_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(Duration::from_millis(ms));
    }
    // Client deadline capped by the server, anchored at *arrival*:
    // queue wait already counts against it.
    let effective_ms = match (scan_req.deadline_ms, cfg.max_request_ms) {
        (Some(c), Some(m)) => Some(c.min(m)),
        (c, m) => c.or(m),
    };
    let budget = ScanBudget {
        deadline: effective_ms.map(|ms| job.arrival + Duration::from_millis(ms)),
        ..ScanBudget::default()
    };
    let opts = ScanOptions {
        cve: scan_req.cve.clone(),
        top_k: scan_req.top_k.unwrap_or(0),
        threads: cfg.threads,
        explain: scan_req.explain,
    };
    let id = job.id;
    let scanned = isolate(FaultCtx::image(format!("request-{id}")), || {
        crate::pipeline::run_scan(&snapshot, &opts, &budget, cache, &|| drain.expired())
    });
    match scanned {
        Ok(output) => {
            for d in &output.diagnostics {
                eprintln!("{d}");
            }
            if output.over_budget > 0 {
                firmup_telemetry::incr("serve.budget_exceeded");
            }
            // The canonical findings document — byte-identical to the
            // CLI's `--format json` stdout for the same snapshot.
            let cancelled = drain.expired();
            let mut body = output.render_json(cancelled).render().into_bytes();
            body.push(b'\n');
            respond(job, req.raw_json, 200, "application/json", &[], &body);
        }
        Err(e) => {
            firmup_telemetry::incr("serve.poisoned");
            eprintln!("serve: request {id} poisoned: {e}");
            respond(
                job,
                req.raw_json,
                500,
                "application/json",
                &[],
                &protocol::error_body("poisoned", &e.to_string()),
            );
        }
    }
}

/// Write a response, logging (never panicking on) client-side I/O
/// failures — a vanished client must not take a worker down.
fn respond(
    job: &Job,
    raw_json: bool,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
) {
    let mut w = &job.stream;
    if let Err(e) = write_response(&mut w, raw_json, status, content_type, extra, body) {
        eprintln!("serve: response for request {}: {e}", job.id);
    }
}

// Re-exported for integration tests and the chaos serve stage.
#[doc(hidden)]
pub use protocol::{http_request, HttpResponse};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_deadline_combines_client_and_cap() {
        let combine = |c: Option<u64>, m: Option<u64>| match (c, m) {
            (Some(c), Some(m)) => Some(c.min(m)),
            (c, m) => c.or(m),
        };
        assert_eq!(combine(None, None), None);
        assert_eq!(combine(Some(5), None), Some(5));
        assert_eq!(combine(None, Some(9)), Some(9));
        assert_eq!(combine(Some(5), Some(9)), Some(5));
        assert_eq!(combine(Some(9), Some(5)), Some(5));
    }

    #[test]
    fn serve_config_is_cloneable_and_debuggable() {
        let cfg = ServeConfig {
            index_dir: PathBuf::from("/tmp/x"),
            listen: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 4,
            threads: 1,
            max_request_ms: Some(100),
            drain_ms: 500,
            port_file: None,
            metrics_out: None,
            trace_out: None,
        };
        let copy = cfg.clone();
        assert_eq!(format!("{cfg:?}"), format!("{copy:?}"));
    }
}
