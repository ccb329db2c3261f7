//! Fault-injection acceptance tests: every corruption operator, pushed
//! through every pipeline stage, must end in a structured error or a
//! degraded-but-reported result — never a panic.

use std::path::PathBuf;
use std::process::Command;

use firmup::chaos::{run, ChaosConfig};
use firmup::firmware::faultinject::CorruptOp;

/// The pinned CI seed: `firmup chaos --seed c4a05000` replays this run.
const PINNED_SEED: u64 = 0xc4a0_5000;

#[test]
fn chaos_matrix_contains_every_operator_with_zero_panics() {
    let report = run(&ChaosConfig {
        seed: PINNED_SEED,
        devices: 1,
        variants: 2,
    });
    assert!(report.trials() > 0, "matrix ran no trials");
    assert_eq!(
        report.per_op.len(),
        CorruptOp::all().len(),
        "matrix must cover every operator"
    );
    for op in &report.per_op {
        assert!(op.trials > 0, "{}: no trials", op.op.name());
        assert_eq!(op.panics, 0, "{}: a stage panicked", op.op.name());
        // Every trial is accounted for by a structured outcome: a
        // rejected unpack, a degraded (nothing searchable) image, or a
        // completed search.
        assert_eq!(
            op.unpack_errors + op.degraded + op.searched,
            op.trials,
            "{}: unaccounted trial",
            op.op.name()
        );
        // The index-corruption stage pushes each damaged blob through
        // the loader driven to a full decode, and every attempt must be
        // accounted for: a structured IndexError or a load the damage
        // happened to leave decodable — never a panic, and never a load
        // of a blob the container CRCs reject (both counted above).
        assert_eq!(
            op.index_errors + op.index_ok,
            op.trials,
            "{}: unaccounted index trial",
            op.op.name()
        );
        assert!(
            op.index_errors > 0,
            "{}: operator never damaged the index detectably",
            op.op.name()
        );
    }
    assert!(report.passed());
}

#[test]
fn typed_record_corruption_is_rejected_by_the_loader() {
    let report = run(&ChaosConfig {
        seed: PINNED_SEED,
        devices: 1,
        variants: 1,
    });
    assert!(
        !report.record_trials.is_empty(),
        "no postings2 record trials ran — record missing from the pristine index?"
    );
    for mutation in [
        "truncated",
        "bitflip",
        "count-overrun",
        "zero-delta",
        "zero-key-delta",
        "delta-overflow",
    ] {
        assert!(
            report
                .record_trials
                .iter()
                .any(|t| t.record == "postings2" && t.mutation == mutation),
            "missing trial postings2:{mutation}"
        );
    }
    // A damaged query record is a cache miss: the scan rebuilds the
    // query and renders the pristine findings bytes.
    for mutation in ["truncated", "bitflip"] {
        let t = report
            .record_trials
            .iter()
            .find(|t| t.record == "query" && t.mutation == mutation)
            .unwrap_or_else(|| panic!("missing trial query:{mutation}"));
        assert!(t.ok, "query:{mutation}: {t:?}");
        assert_eq!(t.fallback_matches, Some(true), "query:{mutation}: {t:?}");
    }
    for t in &report.record_trials {
        assert!(
            t.passed(),
            "{}:{} violated the codec trust boundary (rejected={} panics={})",
            t.record,
            t.mutation,
            t.rejected,
            t.panics
        );
    }
    assert!(report.passed());
}

#[test]
fn chaos_is_deterministic_for_a_pinned_seed() {
    let config = ChaosConfig {
        seed: PINNED_SEED,
        devices: 1,
        variants: 1,
    };
    let a = run(&config);
    let b = run(&config);
    for (ra, rb) in a.per_op.iter().zip(&b.per_op) {
        assert_eq!(ra.op, rb.op);
        assert_eq!(ra.trials, rb.trials);
        assert_eq!(ra.unpack_errors, rb.unpack_errors, "{}", ra.op.name());
        assert_eq!(ra.stage_errors, rb.stage_errors, "{}", ra.op.name());
        assert_eq!(ra.degraded, rb.degraded, "{}", ra.op.name());
        assert_eq!(ra.searched, rb.searched, "{}", ra.op.name());
        assert_eq!(ra.index_errors, rb.index_errors, "{}", ra.op.name());
        assert_eq!(ra.index_ok, rb.index_ok, "{}", ra.op.name());
    }
}

fn firmup() -> Command {
    Command::new(env!("CARGO_BIN_EXE_firmup"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firmup-chaos-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn chaos_subcommand_reports_a_passing_matrix() {
    let out = firmup()
        .args([
            "chaos",
            "--seed",
            "c4a05000",
            "--devices",
            "1",
            "--variants",
            "1",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "chaos failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chaos matrix"), "{text}");
    assert!(text.contains("PASS"), "{text}");
    for op in CorruptOp::all() {
        assert!(
            text.contains(op.name()),
            "missing operator row: {}",
            op.name()
        );
    }
}

#[test]
fn crash_matrix_passes_for_the_pinned_seed() {
    let out = firmup()
        .args([
            "chaos",
            "--crash-matrix",
            "--seed",
            "c4a05000",
            "--devices",
            "2",
        ])
        .output()
        .expect("spawn");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "crash matrix failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("crash-consistency matrix"), "{text}");
    assert!(text.contains("result: PASS"), "matrix did not pass: {text}");
    // Every deterministic crash point is exercised.
    for point in [
        "durable.after_temp_write",
        "durable.before_rename",
        "journal.mid_append",
        "index.between_segments",
    ] {
        assert!(text.contains(point), "missing crash point row: {point}");
    }
}

#[test]
fn scan_survives_a_poisoned_image_and_reports_the_healthy_ones() {
    let dir = temp_dir("poisoned-scan");
    let out = firmup()
        .args([
            "gen-corpus",
            "--out",
            dir.to_str().unwrap(),
            "--devices",
            "3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "gen-corpus failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut images: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "fwim")).then_some(p)
        })
        .collect();
    images.sort();
    assert!(images.len() >= 2, "need at least two images");

    // Poison one image: garbage that is not even a FWIM header.
    std::fs::write(&images[0], b"\xde\xad\xbe\xefgarbage").expect("poison image");

    let mut cmd = firmup();
    cmd.args(["scan", "--cve", "CVE-2011-0762"]);
    for p in &images {
        cmd.arg(p);
    }
    let out = cmd.output().expect("spawn");
    assert!(
        out.status.success(),
        "scan over a corpus with one poisoned image must still succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("1 unreadable image(s) skipped"),
        "poisoned image not reported: {text}"
    );
    assert!(text.contains("suspected occurrence(s)"), "{text}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("skipping image"),
        "no skip diagnostic: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scan_budget_flags_degrade_gracefully() {
    let dir = temp_dir("budget-scan");
    let out = firmup()
        .args([
            "gen-corpus",
            "--out",
            dir.to_str().unwrap(),
            "--devices",
            "2",
        ])
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
    assert!(!images.is_empty());

    // A zero step budget: the scan must terminate immediately but
    // cleanly, reporting the degradation instead of hanging or dying.
    let mut cmd = firmup();
    cmd.args(["scan", "--max-steps", "0"]);
    for p in &images {
        cmd.arg(p);
    }
    let out = cmd.output().expect("spawn");
    assert!(
        out.status.success(),
        "budgeted scan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("step budget (--max-steps) exhausted"),
        "no budget diagnostic: {text}"
    );
    assert!(text.contains("suspected occurrence(s)"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_one_cve_is_unaffected_by_tight_game_budget_flag_parsing() {
    // `--game-ms` with a generous value must parse and not change scan
    // behaviour observably (the game finishes far faster than 10s).
    let dir = temp_dir("game-budget");
    let out = firmup()
        .args([
            "gen-corpus",
            "--out",
            dir.to_str().unwrap(),
            "--devices",
            "1",
        ])
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
    cmd.args(["scan", "--game-ms", "10000", "--cve", "CVE-2011-0762"]);
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
    assert!(text.contains("suspected occurrence(s)"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}
