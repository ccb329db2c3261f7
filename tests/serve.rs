//! End-to-end tests for `firmup serve`: admission control and load
//! shedding, serving determinism under concurrency, per-request
//! budgets, hot reload, and graceful drain — each against a real daemon
//! child process on an ephemeral port.
//!
//! Unix-only: the drain/reload tests speak SIGTERM/SIGINT/SIGHUP.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use firmup::firmware::index::{index_path, read_container, write_container_v2};
use firmup::serve::protocol::{http_request, HttpResponse};
use firmup::telemetry::json::Json;

const TIMEOUT: Duration = Duration::from_secs(30);

fn firmup_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_firmup"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firmup-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generate a corpus under `dir/<sub>` and index it into `dir/<idx>`;
/// return the CLI's canonical findings document for that index — the
/// bytes every serve response must reproduce exactly.
fn build_index(dir: &Path, sub: &str, idx: &str, seed: Option<&str>) -> Vec<u8> {
    let mut gen = firmup_bin();
    gen.args(["gen-corpus", "--out", sub, "--devices", "1"])
        .current_dir(dir);
    if let Some(seed) = seed {
        gen.args(["--seed", seed]);
    }
    let out = gen.output().expect("spawn gen-corpus");
    assert!(
        out.status.success(),
        "gen-corpus failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut images: Vec<String> = std::fs::read_dir(dir.join(sub))
        .expect("corpus dir")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().is_some_and(|x| x == "fwim"))
                .then(|| format!("{sub}/{}", p.file_name().unwrap().to_str().unwrap()))
        })
        .collect();
    images.sort();
    let mut cmd = firmup_bin();
    cmd.arg("index").current_dir(dir);
    for img in &images {
        cmd.arg(img);
    }
    cmd.args(["--out", idx]);
    let out = cmd.output().expect("spawn index");
    assert!(
        out.status.success(),
        "index failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = firmup_bin()
        .args(["scan", "--index", idx, "--format", "json", "--threads", "1"])
        .current_dir(dir)
        .output()
        .expect("spawn scan");
    assert!(
        out.status.success(),
        "baseline scan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// A `firmup serve` child on an ephemeral port, killed on drop if a
/// test failed before draining it.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(dir: &Path, idx: &str, tag: &str, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let port_file = dir.join(format!("port-{tag}"));
        let log = std::fs::File::create(dir.join(format!("serve-{tag}.log"))).expect("log file");
        let mut cmd = firmup_bin();
        cmd.args([
            "serve",
            "--index",
            idx,
            "--listen",
            "127.0.0.1:0",
            "--port-file",
        ])
        .arg(&port_file)
        .args(extra)
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::from(log));
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let child = cmd.spawn().expect("spawn serve");
        let deadline = Instant::now() + TIMEOUT;
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                break s.trim().to_string();
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote {tag} port file"
            );
            std::thread::sleep(Duration::from_millis(25));
        };
        Daemon { child, addr }
    }

    fn signal(&self, sig: &str) {
        let status = Command::new("kill")
            .args([sig, &self.child.id().to_string()])
            .status()
            .expect("spawn kill");
        assert!(status.success(), "kill {sig} failed");
    }

    /// Wait for exit (bounded) and return the exit code.
    fn wait_exit(mut self) -> i32 {
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.code().expect("exit code (not a signal death)");
            }
            assert!(Instant::now() < deadline, "daemon did not exit in time");
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn scan(addr: &str, body: &str) -> HttpResponse {
    http_request(addr, "POST", "/scan", Some(body.as_bytes()), TIMEOUT).expect("scan request")
}

/// One bare newline-JSON-dialect request: a JSON line in, the response
/// document (with trailing newline) out.
fn raw_scan(addr: &str, line: &str) -> Vec<u8> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    stream.set_write_timeout(Some(TIMEOUT)).expect("timeout");
    let mut w = &stream;
    w.write_all(line.as_bytes()).expect("send");
    w.write_all(b"\n").expect("send newline");
    let mut out = Vec::new();
    (&stream).read_to_end(&mut out).expect("read response");
    out
}

/// The determinism soak: concurrent clients hammering daemons at
/// several `--threads` values, every response byte-identical to the
/// single-threaded CLI's stdout, then a SIGTERM drain to exit 0.
#[test]
fn soak_responses_byte_identical_under_concurrency() {
    let dir = temp_dir("soak");
    let baseline = build_index(&dir, "corpus", "idx", None);
    assert!(!baseline.is_empty());

    for (threads, clients, per_client) in [(1, 8, 6), (2, 8, 50), (3, 8, 6), (4, 8, 6)] {
        let tag = format!("soak-t{threads}");
        let d = Daemon::spawn(&dir, "idx", &tag, &["--threads", &threads.to_string()], &[]);
        std::thread::scope(|s| {
            for c in 0..clients {
                let (addr, baseline) = (&d.addr, &baseline);
                s.spawn(move || {
                    for r in 0..per_client {
                        // One client speaks the bare-JSON dialect; the
                        // rest speak HTTP. Same bytes either way.
                        let body = if c == 0 {
                            raw_scan(addr, "{}")
                        } else {
                            let resp = scan(addr, "{}");
                            assert_eq!(resp.status, 200, "client {c} request {r}");
                            resp.body
                        };
                        assert_eq!(
                            body, *baseline,
                            "threads={threads} client {c} request {r} diverged from the CLI"
                        );
                    }
                });
            }
        });
        d.signal("-TERM");
        assert_eq!(d.wait_exit(), 0, "threads={threads} drain must exit 0");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: with one slow worker and a one-slot queue, excess
/// requests are shed with a structured 429 (+ Retry-After) while the
/// admitted ones still complete correctly — and nothing hangs, panics,
/// or drops a connection without an answer.
#[test]
fn overload_sheds_structured_429_and_admitted_requests_complete() {
    let dir = temp_dir("shed");
    let baseline = build_index(&dir, "corpus", "idx", None);
    let d = Daemon::spawn(
        &dir,
        "idx",
        "shed",
        &["--workers", "1", "--queue-cap", "1"],
        &[("FIRMUP_TEST_HANDLE_DELAY_MS", "1500")],
    );
    std::thread::scope(|s| {
        let (addr, baseline) = (&d.addr, &baseline);
        // A occupies the lone worker; B fills the one queue slot.
        let a = s.spawn(move || scan(addr, "{}"));
        std::thread::sleep(Duration::from_millis(400));
        let b = s.spawn(move || scan(addr, "{}"));
        std::thread::sleep(Duration::from_millis(300));
        // The queue is full: these must shed immediately, structured.
        for i in 0..3 {
            let resp = scan(addr, "{}");
            assert_eq!(resp.status, 429, "overflow request {i} was not shed");
            assert!(
                resp.headers
                    .iter()
                    .any(|(k, _)| k.eq_ignore_ascii_case("retry-after")),
                "shed response carries no Retry-After hint"
            );
            let doc = Json::parse(std::str::from_utf8(&resp.body).expect("utf8"))
                .expect("shed body parses");
            assert_eq!(
                doc.get("error").and_then(Json::as_str),
                Some("overloaded"),
                "shed body must name the overload"
            );
        }
        for (name, handle) in [("A", a), ("B", b)] {
            let resp = handle.join().expect("client thread");
            assert_eq!(resp.status, 200, "admitted request {name} must complete");
            assert_eq!(resp.body, *baseline, "admitted request {name} diverged");
        }
    });
    d.signal("-TERM");
    assert_eq!(d.wait_exit(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGHUP hot reload: an in-flight request finishes on the snapshot it
/// pinned at admission; requests after the reload see the new index —
/// no request is ever dropped or answered from a torn mix.
#[test]
fn sighup_reload_swaps_snapshot_without_dropping_inflight() {
    let dir = temp_dir("reload");
    let expected_a = build_index(&dir, "corpus-a", "idx", Some("11"));
    let expected_b = build_index(&dir, "corpus-b", "idx-b", Some("2222"));
    assert_ne!(expected_a, expected_b, "seeds must yield distinct corpora");

    let d = Daemon::spawn(
        &dir,
        "idx",
        "reload",
        &[],
        &[("FIRMUP_TEST_HANDLE_DELAY_MS", "800")],
    );
    std::thread::scope(|s| {
        let addr = &d.addr;
        // r1 pins the old snapshot, then stalls in the handler.
        let r1 = s.spawn(move || scan(addr, "{}"));
        std::thread::sleep(Duration::from_millis(250));

        // Swap the on-disk index to corpus B and ask for a reload.
        std::fs::copy(
            firmup::firmware::index::index_path(&dir.join("idx-b")),
            firmup::firmware::index::index_path(&dir.join("idx")),
        )
        .expect("swap index");
        d.signal("-HUP");
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let resp = http_request(addr, "GET", "/readyz", None, TIMEOUT).expect("readyz");
            let doc =
                Json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("readyz parses");
            if doc.get("epoch").and_then(Json::as_u64) == Some(2) {
                break;
            }
            assert!(Instant::now() < deadline, "reload never completed");
            std::thread::sleep(Duration::from_millis(25));
        }

        // Post-reload requests see the new corpus...
        let r2 = scan(addr, "{}");
        assert_eq!(r2.status, 200);
        assert_eq!(r2.body, expected_b, "post-reload request must see corpus B");
        // ...while the in-flight request finished on the old snapshot.
        let r1 = r1.join().expect("r1 thread");
        assert_eq!(r1.status, 200, "reload must not drop the in-flight request");
        assert_eq!(r1.body, expected_a, "in-flight request must see corpus A");
    });
    d.signal("-TERM");
    assert_eq!(d.wait_exit(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful drain: SIGTERM stops admission but the in-flight request is
/// answered in full before the process exits 0; SIGINT exits 130.
#[test]
fn sigterm_drains_inflight_then_exits_zero_and_sigint_exits_130() {
    let dir = temp_dir("drain");
    let baseline = build_index(&dir, "corpus", "idx", None);

    let d = Daemon::spawn(
        &dir,
        "idx",
        "drain",
        &["--drain-ms", "20000"],
        &[("FIRMUP_TEST_HANDLE_DELAY_MS", "900")],
    );
    std::thread::scope(|s| {
        let (addr, baseline) = (&d.addr, &baseline);
        let r1 = s.spawn(move || scan(addr, "{}"));
        std::thread::sleep(Duration::from_millis(250));
        d.signal("-TERM");
        let resp = r1.join().expect("r1 thread");
        assert_eq!(resp.status, 200, "drain must answer the in-flight request");
        assert_eq!(resp.body, *baseline, "drained request diverged");
    });
    assert_eq!(d.wait_exit(), 0, "SIGTERM drain must exit 0");

    let d = Daemon::spawn(&dir, "idx", "int", &[], &[]);
    let resp = http_request(&d.addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
    assert_eq!(resp.status, 200);
    d.signal("-INT");
    assert_eq!(d.wait_exit(), 130, "SIGINT must exit 130");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol edges and observability on one daemon: exhausted budgets
/// return partial results (never errors), malformed input gets
/// structured 4xx without hurting later requests, and `/metrics` is a
/// valid Prometheus exposition counting all of it.
#[test]
fn budgets_malformed_input_and_metrics_are_structured() {
    let dir = temp_dir("proto");
    let baseline = build_index(&dir, "corpus", "idx", None);
    let d = Daemon::spawn(&dir, "idx", "proto", &[], &[]);
    let addr = &d.addr;

    // deadline_ms 0: already exhausted on arrival — partial results
    // with over_budget markers, exactly like the CLI's --scan-ms.
    let resp = scan(addr, "{\"deadline_ms\": 0}");
    assert_eq!(resp.status, 200, "budget exhaustion is not an error");
    let doc = Json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("parses");
    assert!(
        doc.get("over_budget").and_then(Json::as_u64) > Some(0),
        "exhausted deadline must mark targets over budget: {doc:?}"
    );
    assert_eq!(doc.get("total").and_then(Json::as_u64), Some(0));
    // The bare-JSON dialect answers the same bytes.
    assert_eq!(raw_scan(addr, "{\"deadline_ms\": 0}"), resp.body);

    // Malformed requests: structured rejections, never hangs or panics.
    let garbage = http_request(addr, "POST", "/scan", Some(b"{not json"), TIMEOUT).expect("send");
    assert_eq!(garbage.status, 400);
    let unknown = scan(addr, "{\"bogus\": 1}");
    assert_eq!(unknown.status, 400);
    assert!(String::from_utf8_lossy(&unknown.body).contains("bogus"));
    let method = http_request(addr, "DELETE", "/scan", None, TIMEOUT).expect("send");
    assert_eq!(method.status, 405);
    let path = http_request(addr, "GET", "/nope", None, TIMEOUT).expect("send");
    assert_eq!(path.status, 404);

    // The daemon shrugged all of it off.
    let ok = scan(addr, "{}");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body, baseline);

    // /metrics: parseable exposition whose counters reflect the above.
    let resp = http_request(addr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).expect("metrics are UTF-8");
    let samples = firmup::telemetry::export::parse_exposition(&text).expect("exposition parses");
    let value = |name: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
            .value
    };
    assert!(value("firmup_serve_requests_total") >= 8.0);
    assert!(value("firmup_serve_admitted_total") >= 8.0);
    assert!(value("firmup_serve_scans_total") >= 4.0);
    assert!(value("firmup_serve_budget_exceeded_total") >= 2.0);
    assert!(value("firmup_serve_bad_requests_total") >= 4.0);
    assert_eq!(value("firmup_serve_poisoned_total"), 0.0);
    assert!(value("firmup_serve_request_us_count") >= 4.0);
    assert!(
        samples.iter().any(|s| s.name == "firmup_serve_queue_depth"),
        "queue depth gauge must be exposed even when idle"
    );

    d.signal("-TERM");
    assert_eq!(d.wait_exit(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record-backed snapshot: the daemon fills its query cache from the
/// persisted `query:*` records (no compile), its first response equals
/// the CLI's bytes and those of a scan that compiled every query, and a
/// SIGHUP reload — here onto the same corpus without records — keeps
/// the response equal.
#[test]
fn first_response_from_persisted_queries_matches_cli_across_reload() {
    let dir = temp_dir("records");
    let baseline = build_index(&dir, "corpus", "idx", None);
    let index = firmup::core::persist::CorpusIndex::load(&dir.join("idx")).expect("load");
    assert!(
        index.query_names().count() > 0,
        "index carries no query records"
    );
    // The same corpus without its query records.
    let fresh_fui = index_path(&dir.join("idx-fresh"));
    let records: Vec<_> = read_container(&std::fs::read(index_path(&dir.join("idx"))).unwrap())
        .expect("pristine index")
        .into_iter()
        .filter(|r| !r.name.starts_with("query:"))
        .collect();
    std::fs::create_dir_all(dir.join("idx-fresh")).unwrap();
    std::fs::write(&fresh_fui, write_container_v2(&records)).unwrap();
    let fresh = firmup_bin()
        .args(["scan", "--index", "idx-fresh", "--format", "json"])
        .current_dir(&dir)
        .output()
        .expect("spawn scan");
    assert!(fresh.status.success());
    assert_eq!(fresh.stdout, baseline, "fresh-build CLI scan differs");

    let d = Daemon::spawn(&dir, "idx", "records", &[], &[]);
    let addr = &d.addr;
    let first = scan(addr, "{}");
    assert_eq!(first.status, 200);
    assert_eq!(first.body, baseline, "first response differs from the CLI");
    let counter = |name: &str| -> f64 {
        let resp = http_request(addr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
        let text = String::from_utf8(resp.body).expect("metrics are UTF-8");
        firmup::telemetry::export::parse_exposition(&text)
            .expect("exposition parses")
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
            .value
    };
    assert!(counter("firmup_scan_queries_loaded_total") > 0.0);
    assert_eq!(counter("firmup_scan_queries_built_total"), 0.0);

    std::fs::copy(&fresh_fui, index_path(&dir.join("idx"))).expect("republish index");
    d.signal("-HUP");
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let resp = http_request(addr, "GET", "/readyz", None, TIMEOUT).expect("readyz");
        let doc =
            Json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("readyz parses");
        if doc.get("epoch").and_then(Json::as_u64) == Some(2) {
            break;
        }
        assert!(Instant::now() < deadline, "reload never completed");
        std::thread::sleep(Duration::from_millis(25));
    }
    let after = scan(addr, "{}");
    assert_eq!(after.status, 200);
    assert_eq!(after.body, baseline, "response changed across the reload");
    assert_eq!(counter("firmup_scan_queries_built_total"), 0.0);
    d.signal("-TERM");
    assert_eq!(d.wait_exit(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
