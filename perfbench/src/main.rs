//! FirmUp end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|scan_cli|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Builds the `firmup` binary, generates a
//! seeded `small`-preset fleet under `perfbench/work/`, drives the binary
//! (child processes, and TCP to a `firmup serve` child) for `--seconds`,
//! checks every output against the in-process library and the
//! generator's ground truth, and prints each metric by name with its
//! unit. The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of the traced
//! in-process run with `--trace 1`. Any mismatch exits 1. METRICS.md
//! describes the workloads and metrics.

mod fleet;
mod mix;
mod prog;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use firmup::core::persist::CorpusIndex;
use firmup::core::search::ScanBudget;
use firmup::pipeline::{run_scan, QueryCache, ScanOptions, ScanOutput};
use firmup::telemetry::json::Json;

use fleet::Fleet;
use prog::Daemon;

/// Threads handed to the program (`--threads`), and the benchmark's
/// own parallelism (fleet generation, serve clients).
pub const THREADS: usize = 2;
/// Set-ups per untraced run; `setup_s` and `index_s` are their medians.
const SETUPS: usize = 3;
/// Work directory, relative to the repository root.
const WORK: &str = "perfbench/work";
/// Index directory inside a set-up directory.
pub const INDEX: &str = "idx";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    ScanCli,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "scan_cli" => Some(Workload::ScanCli),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ScanCli => "scan_cli",
            Workload::Serve => "serve",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or_else(|| {
            format!("--workload: expected ingest|scan_cli|serve, got `{workload}`")
        })?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
        },
    })
}

/// One run's checks, metrics and provenance.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    details: Vec<String>,
    provenance: Vec<(String, Json)>,
}

impl Outcome {
    /// Count one checked operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: MISMATCH: {}", what());
        }
    }

    /// Record a metric of the result object (printed too).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.detail(name, value, unit, "");
        self.metrics.push((name, value, unit));
    }

    /// Print a named figure that is not part of the result object.
    pub fn detail(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.details
            .push(format!("metric {name} = {value} {unit}{note}"));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.provenance.push((key.to_string(), value));
    }

    /// Record the median of `samples_ms` as metric `p50_ms` and print it
    /// as `{prefix}_p50_ms`, with its tail as `{prefix}_tail_ms` (the
    /// tail is printed only: a run of a few dozen CLI processes has no
    /// percentile above the median with ten samples beyond it).
    pub fn latency(&mut self, prefix: &str, samples_ms: &[f64]) -> Result<(), String> {
        let median = stats::median(samples_ms).ok_or("no latency samples")?;
        let n = samples_ms.len();
        self.metric("p50_ms", median, "ms");
        self.detail(
            &format!("{prefix}_p50_ms"),
            median,
            "ms",
            &format!(" (n={n})"),
        );
        self.note("samples", Json::Num(n as f64));
        match stats::tail(samples_ms) {
            Some((pct, value)) => {
                self.detail(
                    &format!("{prefix}_tail_ms"),
                    value,
                    "ms",
                    &format!(" (p{pct:.1}, n={n})"),
                );
                self.note("tail_percentile", Json::Num(pct));
            }
            None => self.details.push(format!(
                "metric {prefix}_tail_ms = n/a (n={n}: a tail needs more than {} samples)",
                stats::TAIL_BEYOND
            )),
        }
        Ok(())
    }
}

/// One prepared set-up: the fleet on disk, its full index, and (for
/// `serve`) the running daemon.
pub struct Setup {
    pub dir: PathBuf,
    pub fleet: Fleet,
    pub daemon: Option<Daemon>,
    /// Body of the daemon's first response (checked once the oracle exists).
    pub first_response: Vec<u8>,
}

/// Generate the fleet in `dir`, index it with the binary, and for
/// `serve` boot the daemon and make its first request. Returns the
/// set-up with its wall time and the index build's wall time.
fn set_up(bin: &Path, dir: &Path, args: &Args) -> Result<(Setup, f64, f64), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let start = Instant::now();
    let fleet = fleet::generate(args.seed, dir, THREADS).map_err(|e| format!("fleet: {e}"))?;
    let mut cmd: Vec<&str> = vec!["index"];
    cmd.extend(fleet.images.iter().map(String::as_str));
    let threads = THREADS.to_string();
    cmd.extend(["--out", INDEX, "--threads", &threads]);
    let index_s = prog::run_ok(bin, dir, &cmd)?.wall.as_secs_f64();
    let mut setup = Setup {
        dir: dir.to_path_buf(),
        fleet,
        daemon: None,
        first_response: Vec::new(),
    };
    if args.workload == Workload::Serve {
        let daemon = Daemon::start(bin, dir, INDEX)?;
        setup.first_response = prog::request(&daemon.addr, "{}")
            .map_err(|e| format!("first request: {e}"))?
            .0;
        setup.daemon = Some(daemon);
    }
    Ok((setup, start.elapsed().as_secs_f64(), index_s))
}

/// Scan options of a request body (`{}`, `{"cve":..}`, `{"top_k":..}`).
pub fn options(body: &str, threads: usize) -> ScanOptions {
    let doc = Json::parse(body).expect("benchmark request bodies are valid JSON");
    ScanOptions {
        cve: doc.get("cve").and_then(Json::as_str).map(str::to_string),
        top_k: doc
            .get("top_k")
            .and_then(Json::as_u64)
            .map_or(0, |k| k as usize),
        threads,
        explain: false,
    }
}

/// Expected program output per request body, from the in-process
/// `run_scan` on the index the binary built.
///
/// `warm` answers each body with one query cache shared in the order a
/// daemon sees them (the exhaustive `{}` first, as the set-up's first
/// request): what `firmup serve` must return. `fresh` answers each body
/// with a new cache, as a `firmup scan` process does.
pub struct Oracle {
    pub warm: HashMap<String, Vec<u8>>,
    pub fresh: HashMap<String, Vec<u8>>,
    pub full: ScanOutput,
}

impl Oracle {
    /// Bodies whose answer depends on the query cache's history.
    pub fn divergent(&self) -> Vec<&str> {
        let mut bodies: Vec<&str> = self
            .warm
            .iter()
            .filter(|(body, bytes)| self.fresh[*body] != **bytes)
            .map(|(body, _)| body.as_str())
            .collect();
        bodies.sort_unstable();
        bodies
    }
}

fn oracle(index: &Path, bodies: &[String]) -> Result<Oracle, String> {
    let corpus = CorpusIndex::open(index).map_err(|e| e.to_string())?;
    let scan = |body: &str, cache: &QueryCache| {
        let out = run_scan(
            &corpus,
            &options(body, THREADS),
            &ScanBudget::unlimited(),
            cache,
            &|| false,
        )
        .map_err(|e| e.to_string())?;
        for d in &out.diagnostics {
            eprintln!("perfbench: in-process scan: {d}");
        }
        Ok::<_, String>(out)
    };
    let shared = QueryCache::default();
    let full = scan("{}", &shared)?;
    let (mut warm, mut fresh) = (HashMap::new(), HashMap::new());
    for body in bodies {
        warm.insert(body.clone(), trace::render(&scan(body, &shared)?));
        fresh.insert(
            body.clone(),
            trace::render(&scan(body, &QueryCache::default())?),
        );
    }
    Ok(Oracle { warm, fresh, full })
}

/// Record the corpus dimensions of `setup` and the exhaustive scan.
fn note_dimensions(out: &mut Outcome, setup: &Setup, oracle: &Oracle) -> Result<(), String> {
    let corpus = CorpusIndex::open(&setup.dir.join(INDEX)).map_err(|e| e.to_string())?;
    corpus.ensure_all().map_err(|e| e.to_string())?;
    // An exhaustive hunt plays every CVE query against every executable
    // of the query's architecture, so each executable once per CVE.
    let games = firmup::firmware::packages::all_cves().len() * corpus.len();
    let dims = Json::Obj(vec![
        ("images".into(), Json::Num(setup.fleet.images.len() as f64)),
        (
            "executables".into(),
            Json::Num(setup.fleet.executables() as f64),
        ),
        (
            "procedures_prestrip".into(),
            Json::Num(setup.fleet.procedures() as f64),
        ),
        (
            "procedures_lifted".into(),
            Json::Num(
                (0..corpus.len())
                    .map(|i| corpus.get(i).procedures.len())
                    .sum::<usize>() as f64,
            ),
        ),
        ("games_exhaustive".into(), Json::Num(games as f64)),
        (
            "findings_exhaustive".into(),
            Json::Num(oracle.full.findings.len() as f64),
        ),
        (
            "planted_vulnerable".into(),
            Json::Num(setup.fleet.planted() as f64),
        ),
    ]);
    out.note("corpus", dims);
    Ok(())
}

/// The commit checked out in the current directory, read from `.git`
/// (loose or packed ref); `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(name) => read(name).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        }),
        None => Some(head),
    };
    commit
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let commit = git_commit();
    let bin = prog::build_firmup()?;
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(WORK);
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    }
    let setups = if args.trace { 1 } else { SETUPS };
    let (mut setup_s, mut index_s) = (Vec::new(), Vec::new());
    let mut setup = None;
    for k in 0..setups {
        if let Some(prev) = setup.take() {
            retire(prev)?;
        }
        let (s, secs, idx) = set_up(&bin, &work.join(format!("setup{k}")), args)?;
        setup_s.push(secs);
        index_s.push(idx);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    // Every in-process path below is relative to the set-up directory,
    // as the program's are: executable ids embed the image paths.
    std::env::set_current_dir(&setup.dir).map_err(|e| e.to_string())?;

    let bodies = if args.workload == Workload::Serve {
        mix::Mix::all_bodies()
    } else {
        vec!["{}".to_string()]
    };
    let oracle = oracle(Path::new(INDEX), &bodies)?;
    if setup.daemon.is_some() {
        let want = &oracle.warm["{}"];
        out.check(&setup.first_response == want, || {
            "first serve response differs from run_scan".into()
        });
    }
    let divergent = oracle.divergent();
    if !divergent.is_empty() {
        eprintln!(
            "perfbench: known defect: run_scan answers {} differently after a warm query cache than from a fresh one",
            divergent.join(", ")
        );
    }
    out.detail(
        "cache_divergent_bodies",
        divergent.len() as f64,
        "count",
        &format!(" of {}", bodies.len()),
    );
    out.note(
        "cache_divergent_bodies",
        Json::Arr(
            divergent
                .iter()
                .map(|b| Json::Str((*b).to_string()))
                .collect(),
        ),
    );
    note_dimensions(&mut out, &setup, &oracle)?;
    let (precision, recall) = fleet::score(&setup.fleet, &oracle.full.findings);

    out.note("workload", Json::Str(args.workload.name().into()));
    out.note("seed", Json::Num(args.seed as f64));
    out.note("trace", Json::Bool(args.trace));
    out.note("seconds", Json::Num(args.seconds));
    out.note(
        "host_cpus",
        Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
    );
    out.note("program_threads", Json::Num(THREADS as f64));
    out.note("git_commit", Json::Str(commit));

    if args.trace {
        workload::traced(args, &bin, setup, &oracle, &mut out)?;
    } else {
        out.metric(
            "setup_s",
            stats::median(&setup_s).expect("set-ups ran"),
            "s",
        );
        out.detail(
            "index_s",
            stats::median(&index_s).expect("set-ups ran"),
            "s",
            &format!(" (n={setups})"),
        );
        out.note("setups", Json::Num(setups as f64));
        workload::untraced(args, &bin, setup, &oracle, &mut out)?;
        out.metric("precision", precision, "ratio");
        out.metric("recall", recall, "ratio");
    }
    out.note("attempted", Json::Num(out.attempted as f64));
    out.note("failed", Json::Num(out.failed as f64));
    Ok(out)
}

/// Tear down a set-up that is not the one measured.
fn retire(setup: Setup) -> Result<(), String> {
    if let Some(d) = setup.daemon {
        d.stop()?;
    }
    std::fs::remove_dir_all(&setup.dir).map_err(|e| format!("{}: {e}", setup.dir.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &out.details {
        println!("{line}");
    }
    println!("provenance {}", Json::Obj(out.provenance.clone()).render());
    let correct = out.failed == 0;
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                (*name).to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str((*unit).into())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
