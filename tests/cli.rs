//! End-to-end tests of the `firmup` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn firmup() -> Command {
    Command::new(env!("CARGO_BIN_EXE_firmup"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firmup-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn gen_corpus_info_scan_roundtrip() {
    let dir = temp_dir("roundtrip");

    // gen-corpus writes images plus a manifest.
    let out = firmup()
        .args([
            "gen-corpus",
            "--out",
            dir.to_str().unwrap(),
            "--devices",
            "4",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "gen-corpus failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.tsv")).expect("manifest");
    assert!(manifest.starts_with("file\tvendor"));
    let images: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "fwim")).then_some(p)
        })
        .collect();
    assert!(!images.is_empty());

    // info describes an image.
    let out = firmup()
        .arg("info")
        .arg(&images[0])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("firmware image"), "{text}");
    assert!(text.contains("procedure(s)"), "{text}");

    // scan over all images produces a findings report.
    let mut cmd = firmup();
    cmd.arg("scan");
    for p in &images {
        cmd.arg(p);
    }
    let out = cmd.output().expect("spawn");
    assert!(
        out.status.success(),
        "scan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("indexed"), "{text}");
    assert!(text.contains("suspected occurrence(s)"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scan_metrics_out_writes_parseable_profile() {
    use firmup::telemetry::json::Json;

    let dir = temp_dir("metrics");
    let out = firmup()
        .args([
            "gen-corpus",
            "--out",
            dir.to_str().unwrap(),
            "--devices",
            "4",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "gen-corpus failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let images: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "fwim")).then_some(p)
        })
        .collect();
    assert!(!images.is_empty());

    let metrics = dir.join("metrics.json");
    let mut cmd = firmup();
    // `--explain` is a boolean flag: it must NOT swallow the image paths
    // that follow it (the regression `positional()` used to have).
    cmd.args([
        "scan",
        "--explain",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    for p in &images {
        cmd.arg(p);
    }
    let out = cmd.output().expect("spawn");
    assert!(
        out.status.success(),
        "scan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stages (by total time):"), "{text}");
    assert!(text.contains("metrics written to"), "{text}");

    // The metrics file parses and carries the acceptance-criteria
    // content: per-stage span timings and a populated game profile.
    let body = std::fs::read_to_string(&metrics).expect("metrics file");
    let doc = Json::parse(&body).expect("metrics file is valid JSON");
    let stages = doc.get("stages").expect("stages section");
    for stage in ["lift", "canonicalize", "index", "game", "search"] {
        let s = stages
            .get(stage)
            .unwrap_or_else(|| panic!("missing stage {stage}"));
        assert!(
            s.get("count").and_then(Json::as_u64).unwrap_or(0) > 0,
            "stage {stage} never fired"
        );
    }
    let steps = doc
        .get("histograms")
        .and_then(|h| h.get("game.steps"))
        .expect("game.steps histogram");
    assert!(steps.get("count").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert!(
        !steps
            .get("buckets")
            .and_then(Json::as_arr)
            .expect("buckets")
            .is_empty(),
        "game.steps histogram has no buckets"
    );
    let games = doc
        .get("counters")
        .and_then(|c| c.get("game.played"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let ended: u64 = [
        "query_matched",
        "fixed_point",
        "limit_exceeded",
        "deadline_exceeded",
    ]
    .iter()
    .filter_map(|e| {
        doc.get("counters")
            .and_then(|c| c.get(&format!("game.ended.{e}")))
            .and_then(Json::as_u64)
    })
    .sum();
    assert!(games > 0, "no games recorded");
    assert_eq!(
        games, ended,
        "every game records exactly one ending counter"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden end-to-end conformance: `firmup scan --format json` over the
/// default-seed 3-device corpus must reproduce
/// `tests/fixtures/golden_findings.json` byte for byte — cold (from
/// images), warm (from a saved index), and with `--threads 4`. The
/// determinism invariant makes all four runs byte-identical.
///
/// Bless path: after an intentional behavior change, regenerate the
/// fixture with
///
/// ```text
/// FIRMUP_BLESS=1 cargo test --test cli golden_scan_output
/// ```
///
/// and commit the diff.
#[test]
fn golden_scan_output_matches_fixture_cold_warm_and_threaded() {
    let dir = temp_dir("golden");
    let out = firmup()
        .args(["gen-corpus", "--out", ".", "--devices", "3"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "gen-corpus failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Bare file names (the scan runs inside `dir`) so target ids in the
    // JSON are path-independent and identical between cold and warm.
    let mut images: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "fwim"))
                .then(|| p.file_name().unwrap().to_str().unwrap().to_string())
        })
        .collect();
    images.sort();
    assert!(!images.is_empty());

    let scan = |extra: &[&str], tag: &str| -> String {
        let mut cmd = firmup();
        cmd.arg("scan").current_dir(&dir);
        if !extra.contains(&"--index") {
            for p in &images {
                cmd.arg(p);
            }
        }
        cmd.args(["--format", "json"]).args(extra);
        let out = cmd.output().expect("spawn");
        assert!(
            out.status.success(),
            "{tag} scan failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("json stdout is UTF-8")
    };

    let cold = scan(&[], "cold");
    // JSON mode keeps stdout to exactly one machine-readable document.
    assert_eq!(cold.lines().count(), 1, "stdout must be one JSON line");
    firmup::telemetry::json::Json::parse(cold.trim()).expect("stdout parses as JSON");

    let mut cmd = firmup();
    cmd.arg("index").current_dir(&dir);
    for p in &images {
        cmd.arg(p);
    }
    cmd.args(["--out", "idx"]);
    let out = cmd.output().expect("spawn");
    assert!(
        out.status.success(),
        "index failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let warm = scan(&["--index", "idx"], "warm");
    let threaded = scan(&["--threads", "4"], "cold --threads 4");
    let warm_threaded = scan(&["--index", "idx", "--threads", "4"], "warm --threads 4");
    assert_eq!(cold, warm, "warm scan diverged from cold scan");
    assert_eq!(cold, threaded, "--threads 4 diverged from serial scan");
    assert_eq!(cold, warm_threaded, "warm --threads 4 diverged");

    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_findings.json");
    if std::env::var("FIRMUP_BLESS").is_ok() {
        std::fs::write(&fixture, &cold).expect("bless fixture");
    } else {
        let golden = std::fs::read_to_string(&fixture)
            .expect("tests/fixtures/golden_findings.json (bless with FIRMUP_BLESS=1)");
        assert_eq!(
            cold, golden,
            "scan output diverged from the golden fixture; if intentional, \
             rebless with FIRMUP_BLESS=1 cargo test --test cli golden_scan_output"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--format json` keeps stdout machine-pure even with every
/// observability flag raised at once: progress, metrics, and trace
/// confirmations all belong to stderr, and stdout is exactly one
/// parseable JSON document.
#[test]
fn scan_json_stdout_stays_pure_with_observability_flags() {
    use firmup::telemetry::json::Json;

    let dir = temp_dir("json-pure");
    let out = firmup()
        .args(["gen-corpus", "--out", ".", "--devices", "3"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let images: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "fwim")).then_some(p)
        })
        .collect();

    let mut cmd = firmup();
    cmd.args([
        "scan",
        "--format",
        "json",
        "--explain",
        "--threads",
        "2",
        "--metrics-out",
        dir.join("m.json").to_str().unwrap(),
        "--trace-out",
        dir.join("t.json").to_str().unwrap(),
    ]);
    for p in &images {
        cmd.arg(p);
    }
    let out = cmd.output().expect("spawn");
    assert!(
        out.status.success(),
        "scan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert_eq!(
        stdout.lines().count(),
        1,
        "stdout must be exactly one JSON line, got:\n{stdout}"
    );
    let doc = Json::parse(stdout.trim()).expect("stdout parses as JSON");
    assert!(doc.get("findings").is_some(), "{stdout}");
    // The informational lines really moved to stderr, not into the void.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("metrics written to"), "{stderr}");
    assert!(stderr.contains("trace written to"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden provenance conformance: `scan --explain --format json` over
/// the default-seed 3-device corpus must reproduce
/// `tests/fixtures/golden_explain.json` byte for byte — cold, warm
/// (saved index), and with `--threads 4`. Explain records (prefilter
/// rank/score, strand overlap, game rounds) are part of the determinism
/// contract. Rebless with `FIRMUP_BLESS=1 cargo test --test cli
/// golden_explain`.
#[test]
fn golden_explain_output_matches_fixture_cold_warm_and_threaded() {
    use firmup::telemetry::json::Json;

    let dir = temp_dir("golden-explain");
    let out = firmup()
        .args(["gen-corpus", "--out", ".", "--devices", "3"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let mut images: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "fwim"))
                .then(|| p.file_name().unwrap().to_str().unwrap().to_string())
        })
        .collect();
    images.sort();
    assert!(!images.is_empty());

    let scan = |extra: &[&str], tag: &str| -> String {
        let mut cmd = firmup();
        cmd.arg("scan").current_dir(&dir);
        if !extra.contains(&"--index") {
            for p in &images {
                cmd.arg(p);
            }
        }
        cmd.args(["--format", "json", "--explain"]).args(extra);
        let out = cmd.output().expect("spawn");
        assert!(
            out.status.success(),
            "{tag} scan failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("json stdout is UTF-8")
    };

    let cold = scan(&[], "cold");
    // Every finding carries its provenance record.
    let doc = Json::parse(cold.trim()).expect("stdout parses as JSON");
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings array");
    assert!(!findings.is_empty(), "corpus plants at least one CVE");
    for f in findings {
        let ex = f.get("explain").expect("finding has explain record");
        assert!(ex.get("query_strands").and_then(Json::as_u64).unwrap_or(0) > 0);
        assert!(ex.get("shared_strands").is_some());
        assert!(ex.get("game_steps").is_some());
        assert!(ex.get("game_ended").and_then(Json::as_str).is_some());
    }

    let mut cmd = firmup();
    cmd.arg("index").current_dir(&dir);
    for p in &images {
        cmd.arg(p);
    }
    cmd.args(["--out", "idx"]);
    assert!(cmd.output().expect("spawn").status.success());

    let warm = scan(&["--index", "idx"], "warm");
    let threaded = scan(&["--threads", "4"], "cold --threads 4");
    assert_eq!(cold, warm, "explain output diverged warm vs cold");
    assert_eq!(cold, threaded, "explain output diverged across threads");

    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_explain.json");
    if std::env::var("FIRMUP_BLESS").is_ok() {
        std::fs::write(&fixture, &cold).expect("bless fixture");
    } else {
        let golden = std::fs::read_to_string(&fixture)
            .expect("tests/fixtures/golden_explain.json (bless with FIRMUP_BLESS=1)");
        assert_eq!(
            cold, golden,
            "explain output diverged from the golden fixture; if intentional, \
             rebless with FIRMUP_BLESS=1 cargo test --test cli golden_explain"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace-out` writes a Perfetto-loadable Chrome trace whose span
/// tree — the (span, parent, path) relation carried in event args — is
/// fully linked (no dangling parents) and byte-identical between
/// `--threads 1` and `--threads 4`. `firmup profile` folds the same
/// spans into non-empty collapsed stacks.
#[test]
fn trace_out_is_thread_invariant_and_profile_folds_stacks() {
    use firmup::telemetry::json::Json;

    let dir = temp_dir("trace-out");
    let out = firmup()
        .args(["gen-corpus", "--out", ".", "--devices", "3"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let images: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "fwim")).then_some(p)
        })
        .collect();

    // One traced scan per thread count; return the sorted span relation.
    let tree = |threads: &str, path: &str| -> Vec<String> {
        let mut cmd = firmup();
        cmd.args(["scan", "--threads", threads, "--trace-out", path])
            .current_dir(&dir);
        for p in &images {
            cmd.arg(p);
        }
        let out = cmd.output().expect("spawn");
        assert!(
            out.status.success(),
            "traced scan failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let body = std::fs::read_to_string(dir.join(path)).expect("trace file");
        let doc = Json::parse(&body).expect("trace file is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert!(!spans.is_empty(), "trace has no spans");
        // Every parent link resolves: either the no-parent sentinel or
        // another recorded span.
        let ids: std::collections::HashSet<&str> = spans
            .iter()
            .filter_map(|s| {
                s.get("args")
                    .and_then(|a| a.get("span"))
                    .and_then(Json::as_str)
            })
            .collect();
        let mut rel: Vec<String> = spans
            .iter()
            .map(|s| {
                let args = s.get("args").expect("span args");
                let span = args.get("span").and_then(Json::as_str).expect("span id");
                let parent = args
                    .get("parent")
                    .and_then(Json::as_str)
                    .expect("parent id");
                let path = args.get("path").and_then(Json::as_str).expect("span path");
                assert!(
                    parent == "0000000000000000" || ids.contains(parent),
                    "span {span} ({path}) has dangling parent {parent}"
                );
                format!("{span}|{parent}|{path}")
            })
            .collect();
        rel.sort();
        rel
    };

    let serial = tree("1", "t1.json");
    let threaded = tree("4", "t4.json");
    assert_eq!(
        serial, threaded,
        "span tree diverged between --threads 1 and --threads 4"
    );

    // `firmup profile` writes non-empty collapsed stacks rooted at scan.
    let folded = dir.join("p.folded");
    let mut cmd = firmup();
    cmd.args(["profile", "--out", folded.to_str().unwrap()])
        .current_dir(&dir);
    for p in &images {
        cmd.arg(p);
    }
    let out = cmd.output().expect("spawn");
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "profile keeps stdout clean");
    let body = std::fs::read_to_string(&folded).expect("folded file");
    assert!(!body.trim().is_empty(), "folded output is empty");
    for line in body.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        count
            .parse::<u64>()
            .expect("folded self-time is an integer");
    }
    assert!(body.lines().any(|l| l.starts_with("scan")), "{body}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_error_paths_are_clean() {
    // Unknown command.
    let out = firmup().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing file.
    let out = firmup()
        .args(["info", "/nonexistent/path.fwim"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // Help exits cleanly.
    let out = firmup().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    // gen-corpus requires --out.
    let out = firmup().arg("gen-corpus").output().expect("spawn");
    assert!(!out.status.success());

    // gen-corpus rejects unknown scale presets with a structured error.
    let out = firmup()
        .args(["gen-corpus", "--out", "/tmp/x", "--scale", "bogus"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));
}

/// `firmup fsck` exit-code taxonomy, pinned end to end: a clean index
/// exits 0 ("fsck: clean"), a successful `--repair` exits 0 and says
/// "repaired (clean after repair)", and unrepaired damage exits 1
/// ("fsck: NOT clean"). Scripts branch on these codes, so they are a
/// compatibility contract, not cosmetics.
#[test]
fn fsck_exit_codes_distinguish_clean_repaired_and_unrepairable() {
    let dir = temp_dir("fsck-taxonomy");
    let corpus = dir.join("corpus");
    let out = firmup()
        .args([
            "gen-corpus",
            "--out",
            corpus.to_str().unwrap(),
            "--devices",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let mut images: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "fwim")).then_some(p)
        })
        .collect();
    images.sort();
    assert!(images.len() >= 2);

    // Build a multi-segment layout: two `--add` publishes leave live
    // segments behind a manifest that can be damaged.
    let idx = dir.join("idx");
    for img in &images[..2] {
        let out = firmup()
            .args(["index", "--add"])
            .arg(img)
            .args(["--out", idx.to_str().unwrap(), "--threads", "1"])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "index --add failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let fsck = |extra: &[&str]| -> (Option<i32>, String) {
        let out = firmup()
            .arg("fsck")
            .arg(&idx)
            .args(extra)
            .output()
            .expect("spawn fsck");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };

    // Clean: exit 0.
    let (code, table) = fsck(&[]);
    assert_eq!(code, Some(0), "{table}");
    assert!(table.contains("fsck: clean"), "{table}");

    // Tear the manifest tail: unrepaired damage is exit 1.
    let manifest = idx.join("segments.fum");
    let bytes = std::fs::read(&manifest).expect("manifest");
    std::fs::write(&manifest, &bytes[..bytes.len() - 3]).expect("tear");
    let (code, table) = fsck(&[]);
    assert_eq!(code, Some(1), "{table}");
    assert!(table.contains("fsck: NOT clean"), "{table}");

    // Repair: exit 0 with the repaired footer...
    let (code, table) = fsck(&["--repair"]);
    assert_eq!(code, Some(0), "{table}");
    assert!(
        table.contains("fsck: repaired (clean after repair)"),
        "{table}"
    );

    // ...and the index is plainly clean afterwards.
    let (code, table) = fsck(&[]);
    assert_eq!(code, Some(0), "{table}");
    assert!(table.contains("fsck: clean"), "{table}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Read the `*.fwim` image bytes and MANIFEST.tsv of a generated corpus
/// directory, keyed by file name.
fn corpus_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read corpus dir")
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name.ends_with(".fwim") || name == "MANIFEST.tsv")
                .then(|| (name, std::fs::read(&p).expect("read corpus file")))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn gen_corpus_is_thread_invariant_and_resumes_after_a_crash() {
    let base = temp_dir("gen-resume");
    let gen_args = |out: &std::path::Path, threads: &str| {
        vec![
            "gen-corpus".to_string(),
            "--out".to_string(),
            out.to_string_lossy().into_owned(),
            "--scale".to_string(),
            "smoke".to_string(),
            "--devices".to_string(),
            "4".to_string(),
            "--threads".to_string(),
            threads.to_string(),
        ]
    };

    // Reference: a clean single-threaded run.
    let clean = base.join("clean");
    let out = firmup()
        .args(gen_args(&clean, "1"))
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "gen-corpus failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = corpus_bytes(&clean);
    assert!(reference.iter().any(|(n, _)| n == "MANIFEST.tsv"));

    // Generation is planned before any building, so worker count must
    // not change a single output byte.
    let threaded = base.join("threaded");
    let out = firmup()
        .args(gen_args(&threaded, "3"))
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "threaded gen-corpus failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(reference, corpus_bytes(&threaded), "threads changed bytes");

    // Kill the generator after its second committed device, then
    // resume: the journal must carry the committed work across the
    // crash and the final corpus must be byte-identical to a clean run.
    let crashed = base.join("crashed");
    let out = firmup()
        .args(gen_args(&crashed, "1"))
        .env("FIRMUP_CRASH_POINT", "index.between_segments:2")
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "injected crash did not fire");
    assert!(
        crashed.join("gen.fuj").is_file(),
        "no generation journal survived the crash"
    );
    let metrics = base.join("gen_metrics.json");
    let mut resume_args = gen_args(&crashed, "1");
    resume_args.push("--resume".into());
    resume_args.push("--metrics-out".into());
    resume_args.push(metrics.to_string_lossy().into_owned());
    let out = firmup().args(&resume_args).output().expect("spawn");
    assert!(
        out.status.success(),
        "gen-corpus --resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(reference, corpus_bytes(&crashed), "resume changed bytes");
    // The resume actually reused the pre-crash devices rather than
    // silently rebuilding the world.
    let doc = firmup::telemetry::json::Json::parse(&std::fs::read_to_string(&metrics).unwrap())
        .expect("metrics JSON");
    let counters = doc.get("counters").expect("counters");
    let reused = counters
        .get("gen.devices_reused")
        .and_then(firmup::telemetry::json::Json::as_u64)
        .unwrap_or(0);
    assert!(reused >= 2, "expected >= 2 reused devices, got {reused}");
}

/// Regression: `--scan-ms` is the caller's deadline for the whole
/// command, so on the warm path the clock must start *before* the index
/// load, not after it. (It used to start after, letting a slow load
/// consume unbounded time the budget was supposed to cap.) With a
/// load artificially slower than the whole allowance, every target must
/// come back over-budget — and the command still exits cleanly with the
/// structured degradation messages.
#[test]
fn scan_ms_clock_starts_before_warm_index_load() {
    let dir = temp_dir("scanms-clock");
    let out = firmup()
        .args(["gen-corpus", "--out", ".", "--devices", "1"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let image = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "fwim"))
                .then(|| p.file_name().unwrap().to_str().unwrap().to_string())
        })
        .next()
        .expect("one image");
    let out = firmup()
        .args(["index", &image, "--out", "idx"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "index failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Load delay (400ms) > whole-scan allowance (150ms): if the clock
    // started after the load, the scan would complete normally; with
    // the fix it must report every target over budget and find nothing.
    let out = firmup()
        .args(["scan", "--index", "idx", "--scan-ms", "150"])
        .env("FIRMUP_TEST_INDEX_LOAD_DELAY_MS", "400")
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "budget exhaustion must degrade, not fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("scan budget (--scan-ms) exhausted"),
        "missing the deadline degradation notice:\n{stdout}"
    );
    assert!(
        stdout.contains("0 suspected occurrence(s)"),
        "an exhausted-at-load scan must find nothing:\n{stdout}"
    );
    assert!(
        stderr.contains("over budget (scan deadline)"),
        "per-target diagnostics must name the scan deadline:\n{stderr}"
    );

    // Control: the same scan without the injected delay completes and
    // actually finds things within the same allowance.
    let out = firmup()
        .args(["scan", "--index", "idx", "--scan-ms", "10000"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("suspected at"),
        "control scan should find occurrences"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
