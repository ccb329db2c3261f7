//! End-to-end tests of the persisted corpus index: `firmup index` →
//! `firmup scan --index` equivalence, corruption handling, prefiltering,
//! and the borrowed-context allocation regression.

use std::path::{Path, PathBuf};
use std::process::Command;

use firmup::telemetry::json::Json;

fn firmup() -> Command {
    Command::new(env!("CARGO_BIN_EXE_firmup"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firmup-index-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generate a corpus into `dir/corpus`, returning the image paths.
fn gen_corpus(dir: &Path, devices: &str) -> Vec<PathBuf> {
    let corpus = dir.join("corpus");
    let out = firmup()
        .args([
            "gen-corpus",
            "--out",
            corpus.to_str().unwrap(),
            "--devices",
            devices,
        ])
        .output()
        .expect("spawn");
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
    assert!(!images.is_empty());
    images
}

/// Findings lines of a scan (the CVE hits), in order.
fn findings(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.contains("suspected at"))
        .map(str::to_string)
        .collect()
}

#[test]
fn warm_scan_reproduces_cold_scan_findings() {
    let dir = temp_dir("equivalence");
    let images = gen_corpus(&dir, "4");
    let idx = dir.join("idx");

    // Build the persisted index.
    let out = firmup()
        .arg("index")
        .args(&images)
        .args(["--out", idx.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "index failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("indexed"), "{text}");
    assert!(idx.join("corpus.fui").is_file(), "no corpus.fui written");

    // Cold scan (from images) and warm scan (from the index) must agree
    // on every finding.
    let cold = firmup().arg("scan").args(&images).output().expect("spawn");
    assert!(cold.status.success());
    let warm = firmup()
        .args(["scan", "--index", idx.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        warm.status.success(),
        "warm scan failed: {}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm_text = String::from_utf8_lossy(&warm.stdout);
    assert!(
        warm_text.contains("loaded") && warm_text.contains("from index"),
        "{warm_text}"
    );
    let cold_findings = findings(&String::from_utf8_lossy(&cold.stdout));
    let warm_findings = findings(&warm_text);
    assert!(!cold_findings.is_empty(), "cold scan found nothing");
    assert_eq!(cold_findings, warm_findings);
}

#[test]
fn prefiltered_scan_still_finds_the_planted_cves() {
    let dir = temp_dir("prefilter");
    let images = gen_corpus(&dir, "3");
    let idx = dir.join("idx");
    assert!(firmup()
        .arg("index")
        .args(&images)
        .args(["--out", idx.to_str().unwrap()])
        .output()
        .expect("spawn")
        .status
        .success());

    let full = firmup()
        .args(["scan", "--index", idx.to_str().unwrap()])
        .output()
        .expect("spawn");
    let metrics = dir.join("metrics.json");
    let pref = firmup()
        .args([
            "scan",
            "--index",
            idx.to_str().unwrap(),
            "--top-k",
            "3",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(pref.status.success());
    // Prefiltering keeps the true positives: with the planted ground
    // truth, the vulnerable executable shares far more weighted strands
    // with the query than any rival, so top-3 never drops a finding.
    let full_findings = findings(&String::from_utf8_lossy(&full.stdout));
    let pref_findings = findings(&String::from_utf8_lossy(&pref.stdout));
    assert!(!full_findings.is_empty());
    for f in &full_findings {
        assert!(
            pref_findings.contains(f),
            "prefilter dropped a finding: {f}"
        );
    }
    // And the prefilter actually ran (counter is in the metrics file).
    let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = doc.get("counters").expect("counters");
    assert!(
        counters
            .get("prefilter.candidates")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "prefilter.candidates never incremented"
    );
    assert!(
        counters
            .get("index.cache_hit")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "index.cache_hit never incremented"
    );
}

#[test]
fn lazy_warm_scan_reports_decode_counters_and_maps_the_whole_blob() {
    let dir = temp_dir("lazy-metrics");
    let images = gen_corpus(&dir, "3");
    let idx = dir.join("idx");
    assert!(firmup()
        .arg("index")
        .args(&images)
        .args(["--out", idx.to_str().unwrap()])
        .output()
        .expect("spawn")
        .status
        .success());

    let metrics = dir.join("lazy_metrics.json");
    let out = firmup()
        .args([
            "scan",
            "--index",
            idx.to_str().unwrap(),
            "--top-k",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "warm scan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = doc.get("counters").expect("counters");
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    // The lazy loader decoded at least the prefiltered candidates…
    assert!(counter("index.reps_decoded") > 0, "no lazy decodes counted");
    // …and `bytes_mapped` accounts for exactly the on-disk index blob.
    let fui_len = std::fs::metadata(idx.join("corpus.fui"))
        .expect("corpus.fui")
        .len();
    assert_eq!(
        counter("index.bytes_mapped"),
        fui_len,
        "bytes_mapped must equal the corpus.fui size"
    );
}

/// Copy the `corpus.fui` of index `idx` into the directory `out`,
/// rewritten without its `query:*` records — the same corpus, but
/// every query of a scan over the copy is compiled fresh.
fn copy_without_query_records(idx: &Path, out: &Path) {
    use firmup::firmware::index::{index_path, read_container, write_container_v2};
    let blob = std::fs::read(index_path(idx)).expect("read corpus.fui");
    let records: Vec<_> = read_container(&blob)
        .expect("pristine index")
        .into_iter()
        .filter(|r| !r.name.starts_with("query:"))
        .collect();
    std::fs::create_dir_all(out).unwrap();
    std::fs::write(index_path(out), write_container_v2(&records)).unwrap();
}

#[test]
fn v1_or_version_0_index_is_rejected_with_a_rebuild_hint() {
    let dir = temp_dir("old-format");
    let images = gen_corpus(&dir, "2");
    let idx = dir.join("idx");
    assert!(firmup()
        .arg("index")
        .args(&images)
        .args(["--out", idx.to_str().unwrap()])
        .output()
        .expect("spawn")
        .status
        .success());
    let blob = std::fs::read(idx.join("corpus.fui")).unwrap();
    const HINT: &str = "this build reads only format 2 — rebuild with `firmup index`";
    for version in [1u32, 0] {
        let old = dir.join(format!("idx-v{version}"));
        std::fs::create_dir_all(&old).unwrap();
        let mut bytes = blob.clone();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(old.join("corpus.fui"), &bytes).unwrap();
        let old_s = old.to_str().unwrap();

        let out = firmup()
            .args(["scan", "--index", old_s])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "v{version} scan: {stderr}");
        assert!(stderr.contains(HINT), "v{version} scan: {stderr}");
        assert!(
            stderr.contains(&format!("unsupported index format version {version}")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "v{version} scan: {stderr}");

        let out = firmup().args(["fsck", old_s]).output().expect("spawn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "v{version} fsck: {stdout}");
        assert!(
            stdout
                .lines()
                .any(|l| l.contains("corpus.fui") && l.contains("DAMAGED") && l.contains(HINT)),
            "v{version} fsck: {stdout}"
        );

        // serve refuses to start: it exits on its own, with the hint.
        let mut child = firmup()
            .args(["serve", "--index", old_s, "--listen", "127.0.0.1:0"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll serve") {
                break status;
            }
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                panic!("serve started on a v{version} index");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(1), "v{version} serve: {stderr}");
        assert!(stderr.contains(HINT), "v{version} serve: {stderr}");
        assert!(!stderr.contains("panicked"), "v{version} serve: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_index_is_a_structured_error_not_a_panic() {
    let dir = temp_dir("corrupt");
    let images = gen_corpus(&dir, "2");
    let idx = dir.join("idx");
    assert!(firmup()
        .arg("index")
        .args(&images)
        .args(["--out", idx.to_str().unwrap()])
        .output()
        .expect("spawn")
        .status
        .success());
    let fui = idx.join("corpus.fui");
    let pristine = std::fs::read(&fui).unwrap();

    // Damage the file several ways; every scan must exit with the
    // normal failure code (1) and a structured diagnosis — no panic
    // (which would exit 101 and print a backtrace marker).
    let mut damaged: Vec<(&str, Vec<u8>)> = vec![
        ("bad magic", {
            let mut b = pristine.clone();
            b[0] = b'X';
            b
        }),
        ("future version", {
            let mut b = pristine.clone();
            b[4..8].copy_from_slice(&0xfeed_beefu32.to_le_bytes());
            b
        }),
        ("payload bit flip", {
            let mut b = pristine.clone();
            let n = b.len();
            b[n - 3] ^= 0x40;
            b
        }),
        ("empty file", Vec::new()),
    ];
    for cut in [5usize, 9, 21, pristine.len() / 2, pristine.len() - 1] {
        damaged.push(("truncation", pristine[..cut].to_vec()));
    }
    for (what, blob) in damaged {
        std::fs::write(&fui, &blob).unwrap();
        let out = firmup()
            .args(["scan", "--index", idx.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{what}: scan succeeded?!");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{what}: wrong exit code (panic?)"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("firmup:"), "{what}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "{what}: panic escaped: {stderr}"
        );
        // The diagnosis names the index file.
        assert!(stderr.contains("corpus.fui"), "{what}: {stderr}");
    }
}

#[test]
fn reader_during_rebuild_sees_a_complete_snapshot_never_a_torn_one() {
    let dir = temp_dir("concurrent-reader");
    let images = gen_corpus(&dir, "3");
    let idx = dir.join("idx");

    // First build: the snapshot concurrent readers are allowed to see.
    assert!(firmup()
        .arg("index")
        .args(&images)
        .args(["--out", idx.to_str().unwrap()])
        .output()
        .expect("spawn")
        .status
        .success());
    let baseline = {
        let out = firmup()
            .args(["scan", "--index", idx.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(out.status.success());
        findings(&String::from_utf8_lossy(&out.stdout))
    };
    assert!(!baseline.is_empty());

    // Rebuild the same directory slowly (test hook delays each segment).
    // corpus.fui is only ever replaced atomically, so every reader that
    // races the writer must see the complete previous snapshot — never
    // a torn file, never a panic.
    let mut writer = firmup()
        .arg("index")
        .args(&images)
        .args(["--out", idx.to_str().unwrap()])
        .env("FIRMUP_TEST_SEGMENT_DELAY_MS", "400")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn writer");
    let mut reads_during = 0usize;
    for _ in 0..50 {
        let writer_live = writer.try_wait().expect("try_wait").is_none();
        let out = firmup()
            .args(["scan", "--index", idx.to_str().unwrap()])
            .output()
            .expect("spawn reader");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "reader panicked: {stderr}");
        assert!(out.status.success(), "reader failed mid-rebuild: {stderr}");
        assert_eq!(
            findings(&String::from_utf8_lossy(&out.stdout)),
            baseline,
            "reader saw a torn/partial snapshot"
        );
        if !writer_live {
            break;
        }
        reads_during += 1;
    }
    assert!(
        reads_during > 0,
        "writer finished before any concurrent read; raise the delay"
    );
    assert!(writer.wait().expect("wait").success());
}

#[test]
fn scan_peak_rep_clones_stay_flat_as_the_corpus_grows() {
    // The regression this pins: scan used to clone every ExecutableRep
    // to build the GlobalContext, doubling peak allocations. Contexts
    // are now built from borrowed reps, so the `rep.clones` telemetry
    // counter must not scale with corpus size.
    let clones_for = |tag: &str, devices: &str| -> (u64, u64) {
        let dir = temp_dir(tag);
        let images = gen_corpus(&dir, devices);
        let metrics = dir.join("metrics.json");
        let out = firmup()
            .arg("scan")
            .args(&images)
            .args(["--metrics-out", metrics.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(out.status.success());
        let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let counters = doc.get("counters").expect("counters");
        let clones = counters
            .get("rep.clones")
            .and_then(Json::as_u64)
            .expect("rep.clones counter registered");
        let indexed = counters
            .get("index.executables")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let _ = std::fs::remove_dir_all(&dir);
        (clones, indexed)
    };
    let (small_clones, small_reps) = clones_for("clones-small", "2");
    let (big_clones, big_reps) = clones_for("clones-big", "6");
    assert!(
        big_reps > small_reps,
        "corpus did not grow ({small_reps} -> {big_reps})"
    );
    // Scan-path code must not clone per-target: whatever constant
    // cloning remains (none today) may not track corpus size.
    assert_eq!(
        small_clones, big_clones,
        "rep.clones scales with corpus size ({small_reps} reps -> {small_clones} clones, \
         {big_reps} reps -> {big_clones} clones)"
    );
    assert_eq!(big_clones, 0, "scan path clones ExecutableRep");
}

/// Run `firmup scan ARGS --format json --metrics-out M`, returning the
/// findings document (stdout bytes) and the run's counters.
fn scan_with_counters(dir: &Path, args: &[&str]) -> (Vec<u8>, Json) {
    let metrics = dir.join("scan-metrics.json");
    let out = firmup()
        .arg("scan")
        .args(args)
        .args([
            "--format",
            "json",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "scan {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = doc.get("counters").cloned().expect("counters");
    (out.stdout, counters)
}

fn count(counters: &Json, name: &str) -> f64 {
    counters
        .get(name)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("counter {name} missing: {counters:?}"))
}

#[test]
fn warm_scan_loads_persisted_queries_and_matches_fresh_builds() {
    let dir = temp_dir("persisted-queries");
    let images = gen_corpus(&dir, "3");
    let idx = dir.join("idx");
    let out = firmup()
        .arg("index")
        .args(&images)
        .args(["--out", idx.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let index = firmup::core::persist::CorpusIndex::load(&idx).expect("load");
    assert_eq!(
        index.query_names().count(),
        firmup::pipeline::query_keys().len(),
        "index must carry one query record per (package, arch)"
    );

    // The same corpus without query records, so every query of a scan
    // is compiled fresh.
    let fresh = dir.join("idx-fresh");
    copy_without_query_records(&idx, &fresh);
    let idx_s = idx.to_str().unwrap();
    let fresh_s = fresh.to_str().unwrap();

    let (warm, c) = scan_with_counters(&dir, &["--index", idx_s]);
    assert_eq!(count(&c, "scan.queries_built"), 0.0, "warm scan compiled");
    assert!(count(&c, "scan.queries_loaded") > 0.0);
    let (rebuilt, c) = scan_with_counters(&dir, &["--index", fresh_s]);
    assert!(count(&c, "scan.queries_built") > 0.0);
    assert_eq!(count(&c, "scan.queries_loaded"), 0.0);
    assert_eq!(
        warm, rebuilt,
        "persisted queries changed the findings bytes"
    );
    let mut cold_args: Vec<&str> = images.iter().map(|p| p.to_str().unwrap()).collect();
    let (cold, _) = scan_with_counters(&dir, &cold_args);
    assert_eq!(warm, cold, "warm scan differs from the cold scan");
    cold_args.extend(["--top-k", "3", "--explain"]);
    let (cold_explained, _) = scan_with_counters(&dir, &cold_args);

    // Persisted == fresh under every option that shapes the output.
    let mut variants: Vec<Vec<String>> = vec![
        vec!["--threads".into(), "1".into()],
        vec!["--threads".into(), "4".into()],
        vec!["--top-k".into(), "3".into()],
        vec!["--explain".into()],
    ];
    for cve in firmup::firmware::packages::all_cves() {
        variants.push(vec!["--cve".into(), cve.cve.into()]);
    }
    for extra in &variants {
        let extra: Vec<&str> = extra.iter().map(String::as_str).collect();
        let (a, ca) = scan_with_counters(&dir, &[&["--index", idx_s][..], &extra].concat());
        let (b, _) = scan_with_counters(&dir, &[&["--index", fresh_s][..], &extra].concat());
        assert_eq!(a, b, "{extra:?}: persisted and fresh queries disagree");
        assert_eq!(count(&ca, "scan.queries_built"), 0.0, "{extra:?}");
    }
    let (warm_explained, _) =
        scan_with_counters(&dir, &["--index", idx_s, "--top-k", "3", "--explain"]);
    assert_eq!(warm_explained, cold_explained);
    let _ = std::fs::remove_dir_all(&dir);
}
