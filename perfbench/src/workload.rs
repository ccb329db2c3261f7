//! The three workloads, untraced (end-to-end metrics, the binary only)
//! and traced (per-layer metrics from in-process library calls).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use firmup::core::persist::CorpusIndex;
use firmup::core::search::ScanBudget;
use firmup::pipeline::{run_scan, QueryCache};
use firmup::telemetry::json::Json;

use crate::mix::{Mix, CLASSES};
use crate::trace::{render, traced_index, Recorder, TracedScanner};
use crate::{options, prog, stats, Args, Oracle, Outcome, Setup, Workload, INDEX, THREADS};

/// The incrementally grown index of the `ingest` workload.
const GROWN: &str = "grown";
/// Overhead pairs (untraced vs traced in-process scan) per traced run.
const OVERHEAD_PAIRS: usize = 4;

pub fn untraced(
    args: &Args,
    bin: &Path,
    setup: Setup,
    oracle: &Oracle,
    out: &mut Outcome,
) -> Result<(), String> {
    match args.workload {
        Workload::Ingest => ingest(args, bin, &setup, oracle, out, None),
        Workload::ScanCli => scan_cli(args, bin, oracle, out, None),
        Workload::Serve => serve(args, bin, setup, oracle, out),
    }
}

pub fn traced(
    args: &Args,
    bin: &Path,
    setup: Setup,
    oracle: &Oracle,
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = Recorder::new();
    match args.workload {
        Workload::Ingest => ingest(args, bin, &setup, oracle, out, Some(&rec))?,
        Workload::ScanCli => scan_cli(args, bin, oracle, out, Some(&rec))?,
        Workload::Serve => traced_serve(args, bin, setup, oracle, out, &rec)?,
    }
    overhead(out)?;
    std::fs::write("spans.jsonl", rec.render_jsonl()).map_err(|e| e.to_string())?;
    Ok(())
}

fn threads_arg() -> String {
    THREADS.to_string()
}

/// The `ingest` split of the fleet, in fleet order: every fourth image is
/// held back for `--add`, the rest form the base. The device plan is the
/// same for every seed, so the split holds the same packages on every
/// seed and only the code differs; a seeded hold-back set would change
/// how much each run lifts.
fn split(images: &[String]) -> (Vec<String>, Vec<String>) {
    let (held, base): (Vec<_>, Vec<_>) = images
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 4 == 3);
    let names = |v: Vec<(usize, String)>| v.into_iter().map(|(_, p)| p).collect();
    (names(base), names(held))
}

/// Check that the index in `dir` scans to exactly the full build's
/// exhaustive findings.
fn check_grown(out: &mut Outcome, oracle: &Oracle, dir: &str) -> Result<(), String> {
    let corpus = CorpusIndex::open(Path::new(dir)).map_err(|e| e.to_string())?;
    let got = run_scan(
        &corpus,
        &options("{}", THREADS),
        &ScanBudget::unlimited(),
        &QueryCache::default(),
        &|| false,
    )
    .map_err(|e| e.to_string())?;
    out.check(render(&got) == oracle.fresh["{}"], || {
        format!("{dir}: findings differ from the full build's")
    });
    Ok(())
}

/// `ingest`: each cycle builds an index of ¾ of the fleet, adds the
/// held-back ¼ one image per `firmup index --add` process, and compacts;
/// the grown index must scan to the full build's findings. Traced, each
/// cycle is followed by the same cycle in-process.
fn ingest(
    args: &Args,
    bin: &Path,
    setup: &Setup,
    oracle: &Oracle,
    out: &mut Outcome,
    rec: Option<&Recorder>,
) -> Result<(), String> {
    let (base, held) = split(&setup.fleet.images);
    let here = Path::new(".");
    let threads = threads_arg();
    let (mut adds_ms, mut add_s, mut compact_s, mut base_s, mut images_per_s, mut cycle_s) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut traced_ops, mut remainders) = (0u64, Vec::new());
    let start = Instant::now();
    while base_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let _ = std::fs::remove_dir_all(GROWN);
        let mut cmd: Vec<&str> = vec!["index"];
        cmd.extend(base.iter().map(String::as_str));
        cmd.extend(["--out", GROWN, "--threads", &threads]);
        let r = prog::run(bin, here, &cmd)?;
        out.check(r.ok, || {
            format!("index of the base failed: {}", r.stderr.trim())
        });
        let mut cycle = r.wall;
        base_s.push(r.wall.as_secs_f64());
        let mut batch = Duration::ZERO;
        for img in &held {
            let r = prog::run(
                bin,
                here,
                &["index", "--add", img, "--out", GROWN, "--threads", &threads],
            )?;
            out.check(r.ok, || {
                format!("index --add {img} failed: {}", r.stderr.trim())
            });
            adds_ms.push(r.wall.as_secs_f64() * 1e3);
            batch += r.wall;
        }
        add_s.push(batch.as_secs_f64());
        let r = prog::run(bin, here, &["compact", GROWN])?;
        out.check(r.ok, || format!("compact failed: {}", r.stderr.trim()));
        compact_s.push(r.wall.as_secs_f64());
        cycle += batch + r.wall;
        cycle_s.push(cycle.as_secs_f64());
        images_per_s.push(setup.fleet.images.len() as f64 / cycle.as_secs_f64());
        check_grown(out, oracle, GROWN)?;

        if let Some(rec) = rec {
            traced_ops += 1;
            let op = traced_ops;
            let dir = Path::new("traced");
            let _ = std::fs::remove_dir_all(dir);
            traced_index(rec, op, here, &base, dir, THREADS)?;
            for img in &held {
                let report = rec
                    .span("ingest.add", op, || {
                        firmup::ingest::add_images(dir, &[PathBuf::from(img)], THREADS)
                    })
                    .map_err(|e| e.to_string())?;
                out.check(report.added == 1, || {
                    format!("traced add of {img}: {report:?}")
                });
            }
            rec.span("ingest.compact", op, || firmup::ingest::compact(dir))
                .map_err(|e| e.to_string())?;
            check_grown(out, oracle, "traced")?;
            remainders.push(cycle.as_secs_f64() * 1e3 - rec.root_ms(op));
        }
    }
    let median = |xs: &[f64]| stats::median(xs).expect("at least one cycle");
    out.note("cycles", Json::Num(base_s.len() as f64));
    if let Some(rec) = rec {
        per_layer(out, rec, traced_ops, median(&remainders));
        return Ok(());
    }
    out.latency("add", &adds_ms)?;
    out.metric("ops_per_s", median(&images_per_s), "1/s");
    out.metric(
        "index_bytes",
        prog::dir_bytes(Path::new(GROWN)).map_err(|e| e.to_string())? as f64,
        "bytes",
    );
    out.detail(
        "add_s",
        median(&add_s),
        "s",
        &format!(" ({} images per batch)", held.len()),
    );
    out.detail("compact_s", median(&compact_s), "s", "");
    out.detail(
        "base_index_s",
        median(&base_s),
        "s",
        &format!(" ({} images)", base.len()),
    );
    out.detail("cycle_s", median(&cycle_s), "s", "");
    Ok(())
}

/// `scan_cli`: repeated warm `firmup scan --index` processes, one at a
/// time, each checked byte for byte. Traced, each process is followed
/// by the same scan in-process (fresh index open and query cache, as a
/// new process has).
fn scan_cli(
    args: &Args,
    bin: &Path,
    oracle: &Oracle,
    out: &mut Outcome,
    rec: Option<&Recorder>,
) -> Result<(), String> {
    let want = &oracle.fresh["{}"];
    let threads = threads_arg();
    let cmd = [
        "scan",
        "--index",
        INDEX,
        "--format",
        "json",
        "--threads",
        &threads,
    ];
    let mut walls_ms = Vec::new();
    let (mut traced_ops, mut remainders) = (0u64, Vec::new());
    let start = Instant::now();
    while walls_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let r = prog::run(bin, Path::new("."), &cmd)?;
        out.check(r.ok && &r.stdout == want, || {
            format!("scan output differs from run_scan (ok={})", r.ok)
        });
        walls_ms.push(r.wall.as_secs_f64() * 1e3);
        if let Some(rec) = rec {
            traced_ops += 1;
            let op = traced_ops;
            let corpus = rec
                .span("core.persist.open", op, || {
                    CorpusIndex::open(Path::new(INDEX))
                })
                .map_err(|e| e.to_string())?;
            let got = TracedScanner::default().scan(rec, op, &corpus, &options("{}", THREADS))?;
            let bytes = rec.span("pipeline.render", op, || render(&got));
            out.check(&bytes == want, || {
                "traced scan differs from run_scan".into()
            });
            remainders.push(r.wall.as_secs_f64() * 1e3 - rec.root_ms(op));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    if let Some(rec) = rec {
        let remainder = stats::median(&remainders).expect("at least one scan");
        per_layer(out, rec, traced_ops, remainder);
        return Ok(());
    }
    out.latency("scan", &walls_ms)?;
    out.metric("ops_per_s", walls_ms.len() as f64 / elapsed, "1/s");
    out.metric(
        "index_bytes",
        prog::dir_bytes(Path::new(INDEX)).map_err(|e| e.to_string())? as f64,
        "bytes",
    );
    Ok(())
}

/// One served request: class, latency, and whether the body was right.
struct Served {
    class: &'static str,
    ms: f64,
    ok: bool,
}

/// Two closed-loop clients, each with its own seeded request sequence,
/// for `seconds`; every response is checked against `run_scan`.
fn drive_clients(seed: u64, addr: &str, oracle: &Oracle, seconds: f64) -> (Vec<Served>, f64) {
    let start = Instant::now();
    let served: Vec<Served> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..THREADS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut mix = Mix::new(seed, c);
                    let mut served = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let (class, body) = mix.next_request();
                        let (ok, ms) = match prog::request(addr, &body) {
                            Ok((bytes, wall)) => {
                                (bytes == oracle.warm[&body], wall.as_secs_f64() * 1e3)
                            }
                            Err(e) => {
                                eprintln!("perfbench: request {body}: {e}");
                                (false, 0.0)
                            }
                        };
                        served.push(Served { class, ms, ok });
                    }
                    served
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    (served, start.elapsed().as_secs_f64())
}

/// Check one CLI scan per request class (the first of each class in the
/// seeded mix) against the fresh-cache `run_scan` answer.
fn check_cli_classes(
    args: &Args,
    bin: &Path,
    oracle: &Oracle,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut mix = Mix::new(args.seed, 0);
    let mut seen: Vec<&str> = Vec::new();
    while seen.len() < CLASSES.len() {
        let (class, body) = mix.next_request();
        if seen.contains(&class) {
            continue;
        }
        seen.push(class);
        let opts = options(&body, THREADS);
        let mut cmd = vec![
            "scan".to_string(),
            "--index".into(),
            INDEX.into(),
            "--format".into(),
            "json".into(),
        ];
        if let Some(cve) = opts.cve {
            cmd.extend(["--cve".into(), cve]);
        }
        cmd.extend([
            "--top-k".into(),
            opts.top_k.to_string(),
            "--threads".into(),
            threads_arg(),
        ]);
        let cmd: Vec<&str> = cmd.iter().map(String::as_str).collect();
        let r = prog::run(bin, Path::new("."), &cmd)?;
        out.check(r.ok && r.stdout == oracle.fresh[&body], || {
            format!("CLI scan for {body} differs from run_scan")
        });
    }
    Ok(())
}

/// `serve`: one daemon (2 workers × 1 scan thread), two closed-loop
/// clients sending the seeded mix.
fn serve(
    args: &Args,
    bin: &Path,
    mut setup: Setup,
    oracle: &Oracle,
    out: &mut Outcome,
) -> Result<(), String> {
    check_cli_classes(args, bin, oracle, out)?;
    let daemon = setup.daemon.take().ok_or("serve set-up has no daemon")?;
    let (served, elapsed) = drive_clients(args.seed, &daemon.addr, oracle, args.seconds);
    let rss = daemon.peak_rss_mb()?;
    let stopped = daemon.stop();
    out.check(stopped.is_ok(), || format!("daemon shutdown: {stopped:?}"));
    for s in &served {
        out.check(s.ok, || {
            format!("{} response differs from run_scan", s.class)
        });
    }
    let ok: Vec<&Served> = served.iter().filter(|s| s.ok).collect();
    let all_ms: Vec<f64> = ok.iter().map(|s| s.ms).collect();
    out.latency("req", &all_ms)?;
    out.metric("ops_per_s", ok.len() as f64 / elapsed, "1/s");
    out.metric(
        "index_bytes",
        prog::dir_bytes(Path::new(INDEX)).map_err(|e| e.to_string())? as f64,
        "bytes",
    );
    out.detail("req_per_s", ok.len() as f64 / elapsed, "1/s", "");
    out.detail("serve_rss_mb", rss, "MB", " (VmHWM before SIGTERM)");
    for (class, _) in CLASSES {
        let ms: Vec<f64> = ok
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect();
        if let Some(m) = stats::median(&ms) {
            out.detail(
                &format!("req_p50_ms.{class}"),
                m,
                "ms",
                &format!(" (n={})", ms.len()),
            );
        }
    }
    Ok(())
}

/// Traced `serve`: the daemon serves the mix for half the time (the
/// end-to-end side of the remainder), then the same mix runs in-process
/// on one warm corpus and query cache, one scan thread per request, as
/// a daemon worker runs it.
fn traced_serve(
    args: &Args,
    bin: &Path,
    mut setup: Setup,
    oracle: &Oracle,
    out: &mut Outcome,
    rec: &Recorder,
) -> Result<(), String> {
    check_cli_classes(args, bin, oracle, out)?;
    let daemon = setup.daemon.take().ok_or("serve set-up has no daemon")?;
    let (served, _) = drive_clients(args.seed, &daemon.addr, oracle, args.seconds / 2.0);
    let stopped = daemon.stop();
    out.check(stopped.is_ok(), || format!("daemon shutdown: {stopped:?}"));
    for s in &served {
        out.check(s.ok, || {
            format!("{} response differs from run_scan", s.class)
        });
    }
    let e2e_ms = served.iter().map(|s| s.ms).sum::<f64>() / served.len().max(1) as f64;

    let corpus = CorpusIndex::open(Path::new(INDEX)).map_err(|e| e.to_string())?;
    let mut scanner = TracedScanner::default();
    // Warm the cache and decode everything, as the daemon's first
    // request did, outside the measured spans.
    scanner.scan(&Recorder::new(), 0, &corpus, &options("{}", 1))?;
    let mut mix = Mix::new(args.seed, 0);
    let mut ops = 0u64;
    let start = Instant::now();
    while ops == 0 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        ops += 1;
        let (_, body) = mix.next_request();
        let got = scanner.scan(rec, ops, &corpus, &options(&body, 1))?;
        let bytes = rec.span("pipeline.render", ops, || render(&got));
        out.check(bytes == oracle.warm[&body], || {
            format!("traced {body} differs from run_scan")
        });
    }
    // The two sides serve different requests of the same mix
    // (concurrent clients vs one in-process loop), so the remainder
    // compares their means.
    let traced_ms = (1..=ops).map(|op| rec.root_ms(op)).sum::<f64>() / ops as f64;
    per_layer(out, rec, ops, e2e_ms - traced_ms);
    Ok(())
}

/// Traced vs untraced in-process exhaustive scan wall, as a share:
/// after one discarded pair, pairs alternate which side runs first.
fn overhead(out: &mut Outcome) -> Result<(), String> {
    let opts = options("{}", THREADS);
    let time = |traced: bool| -> Result<f64, String> {
        let corpus = CorpusIndex::open(Path::new(INDEX)).map_err(|e| e.to_string())?;
        let t = Instant::now();
        if traced {
            TracedScanner::default().scan(&Recorder::new(), 0, &corpus, &opts)?;
        } else {
            run_scan(
                &corpus,
                &opts,
                &ScanBudget::unlimited(),
                &QueryCache::default(),
                &|| false,
            )
            .map_err(|e| e.to_string())?;
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..=OVERHEAD_PAIRS {
        let first_traced = pair % 2 == 1;
        let a = time(first_traced)?;
        let b = time(!first_traced)?;
        if pair > 0 {
            let (p, t) = if first_traced { (b, a) } else { (a, b) };
            plain.push(p);
            traced.push(t);
        }
    }
    let (p, t) = (
        stats::median(&plain).expect("pairs ran"),
        stats::median(&traced).expect("pairs ran"),
    );
    out.metric("trace.overhead_pct", 100.0 * (t - p) / p, "%");
    out.note("overhead_pairs", Json::Num(OVERHEAD_PAIRS as f64));
    Ok(())
}

/// Emit every per-layer metric, per traced operation of the workload
/// (a cycle, a scan, a request); layers the workload bypasses read 0.
/// `unattributed_ms` is the operation's end-to-end wall minus its root
/// spans.
fn per_layer(out: &mut Outcome, rec: &Recorder, ops: u64, unattributed_ms: f64) {
    let per = |v: f64| v / ops.max(1) as f64;
    let ratio = |num: &str, den: &str| {
        let d = rec.counter(den);
        if d > 0.0 {
            rec.counter(num) / d
        } else {
            0.0
        }
    };
    for (metric, span) in [
        ("firmware.unpack_ms", "firmware.unpack"),
        ("obj.parse_ms", "obj.parse"),
        ("core.lift_ms", "core.lift"),
        ("core.canon_ms", "core.canon"),
        ("core.persist.commit_ms", "core.persist.commit"),
        ("core.persist.build_ms", "core.persist.build"),
        ("core.persist.save_ms", "core.persist.save"),
        ("ingest.add_ms", "ingest.add"),
        ("ingest.compact_ms", "ingest.compact"),
        ("core.persist.open_ms", "core.persist.open"),
        ("core.persist.decode_ms", "core.persist.decode"),
        ("firmware.query_build_ms", "firmware.query_build"),
        ("core.query_index_ms", "core.query_index"),
        ("core.prefilter_ms", "core.prefilter"),
        ("core.games_ms", "core.games"),
        ("core.merge_ms", "core.merge"),
        ("pipeline.render_ms", "pipeline.render"),
        ("pipeline.run_scan_ms", "pipeline.run_scan"),
    ] {
        out.metric(metric, per(rec.busy_ms(span)), "ms");
    }
    for (metric, counter, unit) in [
        ("core.lift.procedures", "core.lift.procedures", "count"),
        ("core.lift.failed", "core.lift.failed", "count"),
        ("core.canon.strands", "core.canon.strands", "count"),
        ("core.persist.bytes", "core.persist.bytes", "bytes"),
        (
            "core.persist.reps_decoded",
            "core.persist.reps_decoded",
            "count",
        ),
        ("core.prefilter.kept", "core.prefilter.kept", "count"),
        ("core.games", "core.games", "count"),
        ("core.game_steps", "core.game_steps", "count"),
    ] {
        out.metric(metric, per(rec.counter(counter)), unit);
    }
    out.metric("unattributed_ms", unattributed_ms, "ms");
    out.metric(
        "core.canon.distinct_ratio",
        ratio("core.canon.distinct", "core.canon.strands"),
        "ratio",
    );
    out.metric(
        "core.prefilter.useful_ratio",
        ratio("core.prefilter.useful", "core.prefilter.kept"),
        "ratio",
    );
    out.metric(
        "core.games.useful_ratio",
        ratio("core.findings", "core.games"),
        "ratio",
    );
    out.note("traced_ops", Json::Num(ops as f64));
}
