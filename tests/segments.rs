//! Property test for the incremental-indexing hard invariant: *any*
//! schedule of `firmup index --add` batches and `firmup compact` calls,
//! over *any* permutation of the image set, must produce scan findings
//! byte-identical to a from-scratch `firmup index` build — at every
//! thread count.
//!
//! The schedule space is driven by a deterministic xorshift stream
//! seeded from the proptest case, so a failing seed reproduces its
//! exact partition / shuffle / compaction history.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use proptest::prelude::*;

fn firmup() -> Command {
    Command::new(env!("CARGO_BIN_EXE_firmup"))
}

/// Shared fixture: one generated corpus plus the from-scratch baseline
/// scan, built once and reused by every generated schedule.
struct Fixture {
    root: PathBuf,
    images: Vec<PathBuf>,
    baseline: String,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let root =
            std::env::temp_dir().join(format!("firmup-segments-prop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        let corpus = root.join("corpus");
        let out = firmup()
            .args([
                "gen-corpus",
                "--out",
                corpus.to_str().unwrap(),
                "--devices",
                "3",
            ])
            .output()
            .expect("spawn gen-corpus");
        assert!(
            out.status.success(),
            "gen-corpus failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut images: Vec<PathBuf> = std::fs::read_dir(&corpus)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                (p.extension().is_some_and(|x| x == "fwim")).then_some(p)
            })
            .collect();
        images.sort();
        assert!(images.len() >= 3, "need several images to shuffle");

        // The reference: one monolithic build over the whole image set.
        let full = root.join("full");
        let out = firmup()
            .arg("index")
            .args(&images)
            .args(["--out", full.to_str().unwrap(), "--threads", "1"])
            .output()
            .expect("spawn index");
        assert!(
            out.status.success(),
            "full index failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let baseline = scan_json(&full, 1);
        Fixture {
            root,
            images,
            baseline,
        }
    })
}

fn scan_json(idx: &Path, threads: usize) -> String {
    let out = firmup()
        .args(["scan", "--index", idx.to_str().unwrap()])
        .args(["--format", "json", "--threads", &threads.to_string()])
        .output()
        .expect("spawn scan");
    assert!(
        out.status.success(),
        "scan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("scan JSON is UTF-8")
}

/// xorshift64* — a tiny deterministic stream derived from the proptest
/// seed; every schedule decision (shuffle swaps, batch sizes, compact
/// interleavings) draws from it, so the whole history replays from the
/// one seed in a failure report.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn any_ingestion_schedule_reproduces_the_from_scratch_scan(seed in any::<u64>()) {
        let fx = fixture();
        let mut rng = seed | 1; // xorshift must not start at 0

        // A random permutation of the image set (Fisher–Yates).
        let mut order: Vec<usize> = (0..fx.images.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (next(&mut rng) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }

        // Ingest it in random batches, randomly compacting in between.
        let idx = fx.root.join(format!("sched-{seed:016x}"));
        let _ = std::fs::remove_dir_all(&idx);
        let mut at = 0;
        while at < order.len() {
            let take = 1 + (next(&mut rng) as usize) % (order.len() - at);
            let mut cmd = firmup();
            cmd.args(["index", "--add"]);
            for &i in &order[at..at + take] {
                cmd.arg(&fx.images[i]);
            }
            at += take;
            cmd.args(["--out", idx.to_str().unwrap(), "--threads", "1"]);
            let out = cmd.output().expect("spawn index --add");
            prop_assert!(
                out.status.success(),
                "index --add failed (seed {seed:#x}): {}",
                String::from_utf8_lossy(&out.stderr)
            );
            if next(&mut rng).is_multiple_of(2) {
                let out = firmup()
                    .arg("compact")
                    .arg(&idx)
                    .output()
                    .expect("spawn compact");
                prop_assert!(
                    out.status.success(),
                    "compact failed (seed {seed:#x}): {}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
        }

        // The hard invariant: byte-identical findings to the monolithic
        // build, for every thread count.
        for threads in 1..=4 {
            let got = scan_json(&idx, threads);
            prop_assert_eq!(
                &got,
                &fx.baseline,
                "scan diverged from the from-scratch baseline \
                 (seed {:#x}, --threads {})",
                seed,
                threads
            );
        }
        let _ = std::fs::remove_dir_all(&idx);
    }
}

/// A base built by `firmup index` carries the prebuilt `query:*`
/// records; `index --add` leaves them in the base and `compact` carries
/// them into the folded file unchanged, so the grown index still scans
/// without compiling a query — and to the monolithic build's bytes.
#[test]
fn index_add_compact_history_keeps_the_query_records() {
    let fx = fixture();
    let idx = fx.root.join("query-records");
    let _ = std::fs::remove_dir_all(&idx);
    let (base, rest) = fx.images.split_at(fx.images.len() / 2);
    let out = firmup()
        .arg("index")
        .args(base)
        .args(["--out", idx.to_str().unwrap(), "--threads", "1"])
        .output()
        .expect("spawn index");
    assert!(out.status.success());
    let records = |idx: &Path| {
        let ix = firmup::core::persist::CorpusIndex::load(idx).expect("load");
        ix.query_names()
            .map(|n| (n.to_string(), ix.query(n).unwrap().unwrap()))
            .collect::<Vec<_>>()
    };
    let built = records(&idx);
    assert_eq!(built.len(), firmup::pipeline::query_keys().len());
    let out = firmup()
        .args(["index", "--add"])
        .args(rest)
        .args(["--out", idx.to_str().unwrap(), "--threads", "1"])
        .output()
        .expect("spawn index --add");
    assert!(out.status.success());
    let metrics = idx.join("m.json");
    let scan_built = |idx: &Path| {
        let out = firmup()
            .args(["scan", "--index", idx.to_str().unwrap(), "--format", "json"])
            .args(["--metrics-out", metrics.to_str().unwrap()])
            .output()
            .expect("spawn scan");
        assert!(out.status.success());
        let doc = firmup::telemetry::json::Json::parse(&std::fs::read_to_string(&metrics).unwrap())
            .unwrap();
        let built = doc
            .get("counters")
            .and_then(|c| c.get("scan.queries_built"))
            .and_then(firmup::telemetry::json::Json::as_f64);
        (String::from_utf8(out.stdout).unwrap(), built)
    };
    assert_eq!(scan_built(&idx), (fx.baseline.clone(), Some(0.0)));
    let out = firmup().arg("compact").arg(&idx).output().expect("compact");
    assert!(out.status.success());
    assert_eq!(records(&idx), built, "compact changed the query records");
    assert_eq!(scan_built(&idx), (fx.baseline.clone(), Some(0.0)));
    let _ = std::fs::remove_dir_all(&idx);
}
