//! `firmup` — command-line front end for the FirmUp pipeline.
//!
//! ```text
//! firmup gen-corpus --out DIR [--scale PRESET] [--threads N] [--resume]
//! firmup info PATH                      # firmware image or ELF
//! firmup disasm ELF [--proc NAME]       # disassembly + canonical strands
//! firmup index IMAGE... --out DIR       # persist a strand-hash corpus index
//! firmup index ... --resume             # continue a crashed/interrupted build
//! firmup fsck DIR [--repair] [IMAGE...] # verify (and rebuild) a saved index
//! firmup scan IMAGE... [--cve ID]       # hunt CVE queries in images
//! firmup scan --index DIR [--cve ID]    # warm scan from a saved index
//! firmup profile IMAGE... [--out FILE]  # scan + collapsed-stack profile
//! firmup serve --index DIR [--listen ADDR]  # long-lived scan daemon
//! ```
//!
//! See the README's subcommand reference table for the full flag list.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use firmup::core::canon::{canonicalize, AddrSpace, CanonConfig};
use firmup::core::error::FirmUpError;
use firmup::core::lift::lift_executable;
use firmup::core::persist::{CorpusIndex, IndexCheckpoint};
use firmup::core::search::ScanBudget;
use firmup::core::sim::ExecutableRep;
use firmup::firmware::corpus::{
    build_device, plan as corpus_plan, CorpusImage, DevicePlan, ScalePreset,
};
use firmup::firmware::durable::{
    acquire_lock, crash_point, fnv1a_64, write_atomic, LockOptions, CP_BETWEEN_SEGMENTS,
};
use firmup::firmware::image::unpack;
use firmup::firmware::index::image_digest;
use firmup::isa::Arch;
use firmup::obj::Elf;

/// Top-level command outcome: a printable failure, or a clean SIGINT
/// cut-short (which exits with [`firmup::shutdown::INTERRUPT_EXIT_CODE`]
/// so scripts can tell the two apart).
enum CliError {
    Msg(String),
    Interrupted,
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Msg(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.first().map(String::as_str) {
        Some("gen-corpus") => gen_corpus(&args[1..]),
        Some("info") => info(&args[1..]).map_err(CliError::Msg),
        Some("disasm") => disasm(&args[1..]).map_err(CliError::Msg),
        Some("index") => index(&args[1..]),
        Some("compact") => compact_cmd(&args[1..]).map_err(CliError::Msg),
        Some("fsck") => fsck_cmd(&args[1..]).map_err(CliError::Msg),
        Some("scan") => scan(&args[1..]),
        Some("profile") => profile(&args[1..]),
        Some("chaos") => chaos(&args[1..]).map_err(CliError::Msg),
        // `serve` owns its exit code (0 = clean/SIGTERM drain, 130 =
        // SIGINT) — it never goes through the index-oriented
        // "rerun with --resume" interrupt message below.
        Some("serve") => {
            return match serve_cmd(&args[1..]) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("firmup: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--help" | "-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::Msg(format!("unknown command `{other}`\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Interrupted) => {
            eprintln!(
                "firmup: interrupted — committed work is durable; rerun with --resume to continue"
            );
            ExitCode::from(firmup::shutdown::INTERRUPT_EXIT_CODE)
        }
        Err(CliError::Msg(e)) => {
            eprintln!("firmup: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "firmup — static CVE detection in stripped firmware (ASPLOS'18 reproduction)

USAGE:
    firmup gen-corpus --out DIR [--scale smoke|small|medium|paper]
                 [--devices N] [--seed HEX] [--threads N] [--resume]
                 [--metrics-out FILE.json]
        Generate a synthetic firmware corpus (images + ground-truth
        manifest). --scale picks a preset sized against the paper's
        corpus dimensions (smoke = the CI fixture, medium >= 500 images
        / >= 100k procedures, paper >= 2000 images); --devices overrides
        the preset's device count. All randomness is drawn once from the
        seed into a plan, then each device is built as a pure function
        over --threads workers (0 = all cores, the default) — the output
        bytes are identical for every N. The run is crash safe: every
        image and per-device manifest fragment lands via
        temp+fsync+rename and each finished device is committed to
        DIR/gen.fuj behind an advisory lock; ^C exits cleanly (code 130)
        after in-flight devices, and --resume verifies the journal by
        content digest (never timestamps) and rebuilds only the devices
        that never committed.
    firmup info PATH
        Describe a firmware image (parts, vendors) or an ELF (sections, procedures).
    firmup disasm ELF [--proc NAME]
        Disassemble an executable and print lifted IR + canonical strands.
    firmup index IMAGE... --out DIR [--add] [--threads N] [--resume]
                 [--metrics-out FILE.json]
        Unpack, lift, and canonicalize every executable in the images and
        persist the result — procedure metadata, canonical strand hashes,
        the trained global context, and an inverted strand->procedure
        postings table — as DIR/corpus.fui (a versioned, checksummed
        binary index). Per-part work fans out over --threads (0 = all
        cores, the default); a corrupt part is skipped, never fatal.
        The build is crash safe: each image is committed as a durable
        checkpoint segment (DIR/segments/ + DIR/journal.fuj) behind an
        advisory lock, every file lands via temp+fsync+rename, and ^C
        exits cleanly (code 130) after the current segment. --resume
        verifies the journal and re-lifts only what was never committed.
        With --add, IMAGE... are appended incrementally instead: each
        new image becomes its own CRC'd segment and the live-segment
        manifest (DIR/segments.fum) is atomically rewritten to publish
        it — committed state is never rewritten, duplicates are skipped,
        and segments a crashed run committed but never published are
        adopted on rerun. Readers (scan, serve after SIGHUP) union the
        base corpus.fui with every live segment; findings are
        byte-identical to a from-scratch index over the same images.
    firmup compact DIR [--metrics-out FILE.json]
        Fold every live segment published by `index --add` into
        DIR/corpus.fui: one atomic rewrite of the base (its seals record
        absorbs the folded image digests), then an atomic rewrite of the
        manifest to empty. Crash safe at every point — a kill between
        the two writes leaves only sealed entries, which readers skip
        and a rerun clears idempotently. Scan findings are byte-for-byte
        unchanged by compaction.
    firmup fsck DIR [--repair] [IMAGE...] [--threads N]
        Verify a saved index: sweep atomic-write debris, trim a torn
        journal tail, CRC-check every checkpoint segment (quarantining
        damage), verify the live-segment manifest (torn headers,
        missing/damaged/truncated segments, double-committed entries
        already sealed into corpus.fui), and decode every corpus.fui
        record. Prints a per-object verdict table and a final taxonomy
        line: exit 0 for `clean` and for `repaired` (clean after
        --repair, with the report showing what was rebuilt), exit 1 for
        unrepairable damage. With --repair (and the source IMAGE... for
        anything lost) rebuilds only the damaged pieces, truncates the
        manifest to its longest verifiable prefix, and rewrites
        corpus.fui from verified segments.
    firmup scan IMAGE... [--index DIR] [--cve CVE-ID] [--threads N]
                [--top-k K] [--format text|json] [--explain]
                [--trace-out FILE.json] [--metrics-out FILE.json]
                [--game-ms N] [--target-ms N] [--scan-ms N] [--max-steps N]
        Hunt the built-in CVE queries inside firmware images. With
        --index DIR the targets come from a saved index instead of
        IMAGE... arguments, skipping unpack/lift/canonicalize entirely;
        --top-k K additionally prefilters each query to the K most
        strand-overlapping executables before playing the game (0 = play
        everything, the default). --threads N schedules fine-grained
        (query x candidate-shard) work units over a work-stealing
        executor (0 = all cores; default 1); findings are byte-identical
        for every N — results merge on (similarity, target id, address),
        never on arrival order. --format json emits the findings as one
        machine-readable JSON document on stdout (all diagnostics and
        the profile move to stderr); text (the default) prints one line
        per finding. Prints a stage-by-stage profile; --metrics-out
        additionally writes the full metrics snapshot (span timings,
        game.steps histogram, counters) as JSON, atomically.
        The scan is fault tolerant: unreadable/corrupt images are
        reported and skipped, a damaged index is a structured error, a
        panicking target poisons only itself, the --*-ms / --max-steps
        budgets degrade over-budget targets gracefully instead of
        hanging, and ^C stops at the next target boundary (exit 130)
        after flushing findings and metrics. --explain attaches a
        provenance record to every finding (prefilter rank/score, strand
        overlap counts, game rounds, deadline margin) in both text and
        JSON output; explain records obey the same determinism invariant
        as the findings themselves. --trace-out FILE.json records every
        span with stable trace/span ids and writes a Chrome trace-event
        file (open it in Perfetto or about://tracing) with one lane per
        worker thread and instant markers for work steals.
    firmup profile IMAGE... [--index DIR] [--cve CVE-ID] [--threads N]
                [--top-k K] [--out FILE]
        Run a quiet scan with span tracing on and fold the span tree
        into collapsed flamegraph stacks (\"path;to;span self_ns\" lines,
        ready for flamegraph.pl / inferno / speedscope). Writes to
        results/profile.folded unless --out overrides it.
    firmup serve --index DIR [--listen ADDR] [--workers N] [--queue-cap N]
                [--threads N] [--max-request-ms N] [--drain-ms N]
                [--port-file FILE] [--metrics-out FILE.json]
                [--trace-out FILE.json]
        Long-lived scan daemon over a resident index. Loads DIR once and
        answers concurrent scan requests over TCP at ADDR (default
        127.0.0.1:7878; :0 picks a free port, written to --port-file).
        Speaks two wire dialects on the same port: minimal HTTP/1.1
        (POST /scan with a JSON body; GET /healthz, /readyz, /metrics)
        and bare newline-JSON (one request object in, one findings
        document out). A scan body is {\"cve\": ..., \"top_k\": N,
        \"explain\": bool, \"deadline_ms\": N} — every field optional —
        and the response is byte-identical to `firmup scan --index DIR
        --format json` stdout for the same snapshot, regardless of load
        or --threads. Admission is bounded at --queue-cap pending
        requests (default 64); beyond it requests are shed with a
        structured 429 + Retry-After instead of queueing unboundedly.
        deadline_ms (or the x-firmup-deadline-ms header), capped by
        --max-request-ms (default 60000; 0 = uncapped), is anchored at
        arrival — queue wait counts — and exhaustion returns partial
        results with over_budget markers, exactly like the CLI. A
        panicking request answers 500 and poisons only itself. SIGHUP
        hot-reloads the index (in-flight requests finish on the old
        snapshot; a failed reload keeps the old snapshot and surfaces
        the error in /readyz). SIGTERM/SIGINT drain gracefully: stop
        accepting, answer everything admitted (budget-cancelled after
        --drain-ms, default 5000), flush metrics/trace, exit 0 (130 for
        SIGINT).
    firmup chaos [--seed HEX] [--devices N] [--variants N] [--crash-matrix]
                 [--serve]
        Fault-injection matrix: corrupt a seeded corpus with every
        operator (bit flips, truncation, torn sector-aligned renames,
        stale lock stamps, CRC smash, bogus/overlapping part headers,
        mangled section tables, oversized lengths) and push each damaged
        blob through unpack -> lift -> search. Exits nonzero if any stage
        panics. --crash-matrix instead kills a child firmup at every
        deterministic crash point in `index`, `index --add`, and
        `compact` (including the torn-manifest fault) and asserts each
        one recovers to byte-identical scan findings — and, for
        compact, a byte-identical corpus.fui. --serve
        instead runs the serving drill: boot a child daemon, corrupt
        its on-disk index between SIGHUP reloads, and assert it
        degrades (old snapshot keeps serving identical findings, the
        reload error surfaces in /readyz, a restored index recovers,
        SIGTERM drains to exit 0) rather than crashing.
";

/// Flags that consume the following argument as their value. Everything
/// else starting with `--` is a boolean flag (e.g. `--explain`,
/// `--resume`, `--repair`, `--crash-matrix`).
const VALUE_FLAGS: &[&str] = &[
    "--out",
    "--devices",
    "--scale",
    "--seed",
    "--proc",
    "--cve",
    "--metrics-out",
    "--trace-out",
    "--game-ms",
    "--target-ms",
    "--scan-ms",
    "--max-steps",
    "--variants",
    "--index",
    "--threads",
    "--top-k",
    "--format",
    "--listen",
    "--workers",
    "--queue-cap",
    "--max-request-ms",
    "--drain-ms",
    "--port-file",
];

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            // Only flags in the table consume a value; boolean flags
            // (`--explain`) must not eat the following positional.
            i += if VALUE_FLAGS.contains(&a.as_str()) {
                2
            } else {
                1
            };
            continue;
        }
        out.push(a);
        i += 1;
    }
    out
}

/// Tab-separated ground-truth manifest header (one row per image).
const MANIFEST_HEADER: &str = "file\tvendor\tdevice\tfw_version\tlatest\tarch\tvulnerable\n";

/// Deterministic on-disk name of the `global`-th corpus image.
fn image_file_name(global: usize, img: &CorpusImage) -> String {
    format!(
        "{:03}_{}_{}_{}.fwim",
        global, img.meta.vendor, img.meta.device, img.meta.version
    )
}

/// One MANIFEST.tsv row for `img`, stored as `file`.
fn manifest_line(file: &str, img: &CorpusImage) -> String {
    let vulns: Vec<String> = img
        .truth
        .iter()
        .flat_map(|t| {
            t.vulnerable
                .iter()
                .map(move |(n, _)| format!("{}:{}@{}", t.package, t.version, n))
        })
        .collect();
    format!(
        "{file}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        img.meta.vendor,
        img.meta.device,
        img.meta.version,
        img.is_latest,
        img.arch,
        vulns.join(",")
    )
}

/// A committed device parsed back out of `gen.fuj`: summary totals for
/// the final report plus the digests that let `--resume` verify the
/// durable bytes instead of trusting them.
struct GenEntry {
    execs: u64,
    procs: u64,
    frag_digest: u64,
    files: Vec<(String, u64)>,
}

/// Parse one `gen1` journal line. A malformed or torn line yields
/// `None` and its device is simply rebuilt — the journal is a cache of
/// proofs, never the source of truth.
fn parse_gen_line(line: &str) -> Option<(usize, GenEntry)> {
    let mut parts = line.split('\t');
    if parts.next()? != "gen1" {
        return None;
    }
    let device = parts.next()?.parse().ok()?;
    let execs = parts.next()?.parse().ok()?;
    let procs = parts.next()?.parse().ok()?;
    let frag_digest = u64::from_str_radix(parts.next()?, 16).ok()?;
    let mut files = Vec::new();
    for f in parts.next()?.split(',') {
        let (name, digest) = f.rsplit_once(':')?;
        files.push((name.to_string(), u64::from_str_radix(digest, 16).ok()?));
    }
    if parts.next().is_some() {
        return None;
    }
    Some((
        device,
        GenEntry {
            execs,
            procs,
            frag_digest,
            files,
        },
    ))
}

/// Build one planned device and commit it durably: image files and the
/// device's manifest fragment land via temp+fsync+rename, then a
/// `gen1` line (with content digests) is appended to `gen.fuj` under
/// the journal mutex and fsync'd. Returns `(executables, procedures)`.
fn build_one_device(
    out: &Path,
    frag_dir: &Path,
    dp: &DevicePlan,
    strip: bool,
    first_image: usize,
    journal: &std::sync::Mutex<std::fs::File>,
) -> Result<(u64, u64), String> {
    use std::io::Write as _;
    let images = build_device(dp, strip);
    let mut frag = String::new();
    let mut files = Vec::with_capacity(images.len());
    let mut execs = 0u64;
    let mut procs = 0u64;
    for (k, img) in images.iter().enumerate() {
        let file = image_file_name(first_image + k, img);
        write_atomic(&out.join(&file), &img.blob).map_err(|e| format!("{file}: {e}"))?;
        firmup::telemetry::incr("gen.images_written");
        frag.push_str(&manifest_line(&file, img));
        files.push(format!("{file}:{:016x}", image_digest(&file, &img.blob)));
        execs += img.truth.len() as u64;
        procs += img
            .truth
            .iter()
            .map(|t| t.symbols.len() as u64)
            .sum::<u64>();
    }
    let frag_path = frag_dir.join(format!("{:05}.tsv", dp.device));
    write_atomic(&frag_path, frag.as_bytes())
        .map_err(|e| format!("{}: {e}", frag_path.display()))?;
    let line = format!(
        "gen1\t{}\t{execs}\t{procs}\t{:016x}\t{}\n",
        dp.device,
        fnv1a_64(&[frag.as_bytes()]),
        files.join(",")
    );
    let mut jf = journal.lock().expect("gen journal lock");
    jf.write_all(line.as_bytes())
        .and_then(|()| jf.sync_data())
        .map_err(|e| format!("gen.fuj: {e}"))?;
    Ok((execs, procs))
}

fn gen_corpus(args: &[String]) -> Result<(), CliError> {
    use std::io::Write as _;
    firmup::telemetry::enable();
    // Pre-register the generation counters so every run (including a
    // fully reused --resume) reports them in --metrics-out JSON.
    for name in [
        "gen.devices_built",
        "gen.devices_reused",
        "gen.images_written",
        "io.retries",
    ] {
        let _ = firmup::telemetry::counter(name);
    }
    let out = PathBuf::from(
        flag_value(args, "--out")
            .ok_or_else(|| CliError::Msg("gen-corpus requires --out DIR".into()))?,
    );
    let preset = match flag_value(args, "--scale") {
        None => ScalePreset::Smoke,
        Some(name) => ScalePreset::parse(name).ok_or_else(|| {
            CliError::Msg(format!(
                "--scale: expected smoke|small|medium|paper, got `{name}`"
            ))
        })?,
    };
    let mut config = preset.config();
    if let Some(d) = usize_flag(args, "--devices")? {
        config.devices = d;
    }
    if let Some(v) = flag_value(args, "--seed") {
        config.seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
            .map_err(|e| CliError::Msg(format!("--seed: {e}")))?;
    }
    let threads = usize_flag(args, "--threads")?.unwrap_or(0);
    let resume = has_flag(args, "--resume");
    let metrics_out = flag_value(args, "--metrics-out").map(PathBuf::from);
    firmup::shutdown::install();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    // One writer at a time, like `firmup index`: a concurrent generator
    // on the same DIR gets a structured lock-held error.
    let lock = acquire_lock(&out, &LockOptions::from_env())
        .map_err(|e| CliError::Msg(FirmUpError::from(e).to_string()))?;

    // Draw every random decision up front; from here on building a
    // device is pure, so order / parallelism / resume can't change the
    // output bytes.
    let plan = corpus_plan(&config);
    let mut offsets = Vec::with_capacity(plan.devices.len());
    let mut total_images = 0usize;
    for d in &plan.devices {
        offsets.push(total_images);
        total_images += d.firmwares.len();
    }

    let journal_path = out.join("gen.fuj");
    let frag_dir = out.join("manifest.d");
    std::fs::create_dir_all(&frag_dir).map_err(|e| format!("{}: {e}", frag_dir.display()))?;
    // The header pins what the journal describes; resuming under a
    // different seed or scale would silently interleave two corpora.
    let header = format!(
        "genhdr\t{:016x}\t{}\t{}\n",
        config.seed,
        config.devices,
        preset.name()
    );

    // Devices already durable (resume only). Verification is zero
    // trust: a device counts only if its journal line, every image
    // file, and its manifest fragment all digest-match.
    let mut committed: std::collections::HashMap<usize, (u64, u64)> =
        std::collections::HashMap::new();
    let journal_text = if resume {
        std::fs::read_to_string(&journal_path).unwrap_or_default()
    } else {
        String::new()
    };
    if !journal_text.is_empty() {
        let mut lines = journal_text.lines();
        if lines.next().map(|h| format!("{h}\n")) != Some(header.clone()) {
            return Err(CliError::Msg(format!(
                "{}: journal was written for a different seed/scale; \
                 rerun without --resume or use a fresh --out",
                journal_path.display()
            )));
        }
        for line in lines {
            let Some((d, entry)) = parse_gen_line(line) else {
                continue;
            };
            if d >= plan.devices.len() {
                continue;
            }
            let verified = entry.files.len() == plan.devices[d].firmwares.len()
                && entry.files.iter().all(|(name, digest)| {
                    std::fs::read(out.join(name)).is_ok_and(|b| image_digest(name, &b) == *digest)
                })
                && std::fs::read(frag_dir.join(format!("{d:05}.tsv")))
                    .is_ok_and(|b| fnv1a_64(&[&b]) == entry.frag_digest);
            if verified {
                committed.insert(d, (entry.execs, entry.procs));
            }
        }
        firmup::telemetry::add("gen.devices_reused", committed.len() as u64);
    }
    let jf = if journal_text.starts_with(&header) {
        std::fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .map_err(|e| CliError::Msg(format!("{}: {e}", journal_path.display())))?
    } else {
        // Fresh run (or unreadable/foreign journal without --resume):
        // start the journal over. Stale image files from the same plan
        // are overwritten in place.
        let mut f = std::fs::File::create(&journal_path)
            .map_err(|e| CliError::Msg(format!("{}: {e}", journal_path.display())))?;
        f.write_all(header.as_bytes())
            .and_then(|()| f.sync_data())
            .map_err(|e| CliError::Msg(format!("{}: {e}", journal_path.display())))?;
        f
    };
    let journal = std::sync::Mutex::new(jf);

    let todo: Vec<usize> = (0..plan.devices.len())
        .filter(|d| !committed.contains_key(d))
        .collect();
    let errors = std::sync::Mutex::new(Vec::<String>::new());
    let built: Vec<Option<(u64, u64)>> = {
        let _span = firmup::telemetry::span!("gen.build");
        firmup::core::executor::run_units(todo.len(), threads, 1, |j| {
            if firmup::shutdown::interrupted() {
                return None;
            }
            let d = todo[j];
            let r = build_one_device(
                &out,
                &frag_dir,
                &plan.devices[d],
                config.strip,
                offsets[d],
                &journal,
            );
            lock.heartbeat();
            crash_point(CP_BETWEEN_SEGMENTS);
            match r {
                Ok(tot) => {
                    firmup::telemetry::incr("gen.devices_built");
                    Some(tot)
                }
                Err(e) => {
                    errors.lock().expect("gen error list").push(e);
                    None
                }
            }
        })
    };
    if let Some(e) = errors
        .into_inner()
        .expect("gen error list")
        .into_iter()
        .next()
    {
        return Err(CliError::Msg(e));
    }

    let write_metrics = |metrics_out: &Option<PathBuf>| -> Result<(), CliError> {
        if let Some(path) = metrics_out {
            let snap = firmup::telemetry::snapshot();
            write_atomic(path, snap.render_json().render().as_bytes())
                .map_err(|e| CliError::Msg(format!("{}: {e}", path.display())))?;
            println!("metrics written to {}", path.display());
        }
        Ok(())
    };

    let durable = committed.len() + built.iter().flatten().count();
    if firmup::shutdown::interrupted() {
        println!(
            "interrupted: {durable}/{} device(s) durable in {}; rerun with --resume to finish",
            plan.devices.len(),
            out.display()
        );
        write_metrics(&metrics_out)?;
        return Err(CliError::Interrupted);
    }

    // Assemble MANIFEST.tsv from the per-device fragments, in plan
    // order — byte-identical whatever order the devices finished in.
    let mut manifest = String::from(MANIFEST_HEADER);
    for d in 0..plan.devices.len() {
        let frag_path = frag_dir.join(format!("{d:05}.tsv"));
        let frag = std::fs::read_to_string(&frag_path)
            .map_err(|e| CliError::Msg(format!("{}: {e}", frag_path.display())))?;
        manifest.push_str(&frag);
    }
    write_atomic(&out.join("MANIFEST.tsv"), manifest.as_bytes())
        .map_err(|e| CliError::Msg(format!("MANIFEST.tsv: {e}")))?;

    let mut execs = 0u64;
    let mut procs = 0u64;
    for &(e, p) in committed.values().chain(built.iter().flatten()) {
        execs += e;
        procs += p;
    }
    println!(
        "wrote {} images ({} executables, {} procedures) to {}",
        total_images,
        execs,
        procs,
        out.display()
    );
    write_metrics(&metrics_out)?;
    drop(lock);
    Ok(())
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn info(args: &[String]) -> Result<(), String> {
    let paths = positional(args);
    if paths.is_empty() {
        return Err("info requires a PATH".into());
    }
    for p in paths {
        let bytes = read(Path::new(p))?;
        if bytes.starts_with(firmup::firmware::image::MAGIC) {
            let u = unpack(&bytes).map_err(|e| e.to_string())?;
            println!("{p}: firmware image — {}", u.meta);
            for issue in &u.issues {
                println!("  issue: {issue:?}");
            }
            for part in &u.parts {
                match Elf::parse(&part.data) {
                    Ok(elf) => {
                        let arch = Arch::from_elf_machine(elf.machine)
                            .map_or_else(|| format!("machine {}", elf.machine), |a| a.to_string());
                        let lifted = lift_executable(&elf);
                        let procs = lifted.as_ref().map_or(0, |l| l.procedure_count());
                        println!(
                            "  {} — {arch}, {} bytes, {} procedure(s), {}",
                            part.name,
                            part.data.len(),
                            procs,
                            if elf.is_stripped() {
                                "stripped"
                            } else {
                                "with symbols"
                            }
                        );
                    }
                    Err(e) => println!("  {} — unparseable: {e}", part.name),
                }
            }
        } else {
            let elf = Elf::parse(&bytes).map_err(|e| e.to_string())?;
            let arch = Arch::from_elf_machine(elf.machine)
                .map_or_else(|| format!("machine {}", elf.machine), |a| a.to_string());
            println!("{p}: ELF32 {arch}, entry {:#x}", elf.entry);
            for w in &elf.warnings {
                println!("  warning: {w}");
            }
            for s in &elf.sections {
                println!(
                    "  section {:<10} {:#010x}..{:#010x}",
                    s.name,
                    s.addr,
                    s.end()
                );
            }
            let lifted = lift_executable(&elf).map_err(|e| e.to_string())?;
            println!("  {} procedure(s):", lifted.procedure_count());
            for proc_ in &lifted.program.procedures {
                println!(
                    "    {:#010x} {:<30} {} block(s)",
                    proc_.addr,
                    proc_.display_name(),
                    proc_.blocks.len()
                );
            }
        }
    }
    Ok(())
}

fn disasm(args: &[String]) -> Result<(), String> {
    let paths = positional(args);
    let path = paths.first().ok_or("disasm requires an ELF path")?;
    let filter = flag_value(args, "--proc");
    let elf = Elf::parse(&read(Path::new(path))?).map_err(|e| e.to_string())?;
    let lifted = lift_executable(&elf).map_err(|e| e.to_string())?;
    let space = AddrSpace::from_elf(&elf);
    let config = CanonConfig::default();
    for proc_ in &lifted.program.procedures {
        if let Some(f) = filter {
            if proc_.display_name() != f {
                continue;
            }
        }
        println!("=== {} @ {:#x} ===", proc_.display_name(), proc_.addr);
        for block in &proc_.blocks {
            println!("  block {:#x}:", block.addr);
            for a in &block.asm {
                println!("    {a}");
            }
            let ssa = firmup::ir::ssa::ssa_block(block);
            for strand in firmup::core::strand::decompose(&ssa) {
                let c = canonicalize(&strand, &space, &config);
                for line in c.text.lines() {
                    println!("      ; strand: {line}");
                }
            }
        }
    }
    Ok(())
}

/// Where scan output goes: human text on stdout, one JSON document on
/// stdout (informational lines on stderr), or nothing (the `profile`
/// subcommand, which only wants the trace).
#[derive(Clone, Copy, PartialEq)]
enum OutputMode {
    Text,
    Json,
    Quiet,
}

fn scan(args: &[String]) -> Result<(), CliError> {
    // Scans always profile themselves: telemetry stays disabled (and
    // near-free) for every other command.
    firmup::telemetry::enable();
    // Pre-register the fault-tolerance counters so a clean scan still
    // reports them (at zero) in --metrics-out JSON.
    for name in [
        "scan.targets_poisoned",
        "scan.budget_exceeded",
        "scan.units_done",
        "scan.steal_count",
        "scan.queries_loaded",
        "scan.queries_built",
        "scan.query_records_rejected",
        "scan.errors.query",
        "unpack.parts_quarantined",
        "unpack.issues",
        "index.cache_hit",
        "index.reps_decoded",
        "index.bytes_mapped",
        "index.arena_bytes",
        "prefilter.candidates",
        "rep.clones",
        "io.retries",
        "game.sims_computed",
        "game.sims_memoized",
        "game.sim_table_fallbacks",
    ] {
        let _ = firmup::telemetry::counter(name);
    }
    let mode = match flag_value(args, "--format") {
        None | Some("text") => OutputMode::Text,
        Some("json") => OutputMode::Json,
        Some(other) => {
            return Err(CliError::Msg(format!(
                "--format: expected `text` or `json`, got `{other}`"
            )))
        }
    };
    let trace_out = flag_value(args, "--trace-out").map(PathBuf::from);
    if trace_out.is_some() {
        firmup::telemetry::set_span_trace(true);
    }
    firmup::shutdown::install();
    let metrics_out = flag_value(args, "--metrics-out").map(PathBuf::from);
    let (_, interrupted) = {
        let _span = firmup::telemetry::span!("scan");
        scan_images(args, mode)?
    };
    // In JSON mode stdout carries exactly one document: the findings.
    // Everything informational — profile included — goes to stderr.
    let info = |msg: String| {
        if mode == OutputMode::Json {
            eprintln!("{msg}");
        } else {
            println!("{msg}");
        }
    };
    let snap = firmup::telemetry::snapshot();
    if mode == OutputMode::Json {
        eprint!("{}", snap.render_text());
    } else {
        print!("{}", snap.render_text());
    }
    if let Some(path) = metrics_out {
        write_atomic(&path, snap.render_json().render().as_bytes())
            .map_err(|e| CliError::Msg(format!("{}: {e}", path.display())))?;
        info(format!("metrics written to {}", path.display()));
    }
    if let Some(path) = trace_out {
        let trace = firmup::telemetry::take_trace();
        let doc = firmup::telemetry::render_chrome(&trace);
        write_atomic(&path, doc.render().as_bytes())
            .map_err(|e| CliError::Msg(format!("{}: {e}", path.display())))?;
        info(format!(
            "trace written to {} ({} span(s), {} instant(s){})",
            path.display(),
            trace.spans.len(),
            trace.instants.len(),
            if trace.dropped > 0 {
                format!(", {} dropped", trace.dropped)
            } else {
                String::new()
            }
        ));
    }
    if interrupted {
        return Err(CliError::Interrupted);
    }
    Ok(())
}

/// `firmup profile` — run a quiet scan with span tracing on and fold
/// the resulting span tree into collapsed flamegraph stacks.
fn profile(args: &[String]) -> Result<(), CliError> {
    firmup::telemetry::enable();
    firmup::telemetry::set_span_trace(true);
    firmup::shutdown::install();
    let out = flag_value(args, "--out")
        .map_or_else(|| PathBuf::from("results/profile.folded"), PathBuf::from);
    let (findings, interrupted) = {
        let _span = firmup::telemetry::span!("scan");
        scan_images(args, OutputMode::Quiet)?
    };
    let trace = firmup::telemetry::take_trace();
    let folded = firmup::telemetry::render_folded(&trace);
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::Msg(format!("{}: {e}", dir.display())))?;
        }
    }
    write_atomic(&out, folded.as_bytes())
        .map_err(|e| CliError::Msg(format!("{}: {e}", out.display())))?;
    eprintln!(
        "profile: folded {} span(s) into {} ({findings} finding(s))",
        trace.spans.len(),
        out.display()
    );
    if interrupted {
        return Err(CliError::Interrupted);
    }
    Ok(())
}

/// Parse the `--game-ms`/`--target-ms`/`--scan-ms`/`--max-steps` flags
/// into a [`ScanBudget`].
fn scan_budget(args: &[String]) -> Result<ScanBudget, String> {
    let ms = |flag: &str| -> Result<Option<std::time::Duration>, String> {
        flag_value(args, flag)
            .map(|v| {
                v.parse::<u64>()
                    .map(std::time::Duration::from_millis)
                    .map_err(|e| format!("{flag}: {e}"))
            })
            .transpose()
    };
    Ok(ScanBudget {
        per_game: ms("--game-ms")?,
        per_target: ms("--target-ms")?,
        total: ms("--scan-ms")?,
        max_steps_total: flag_value(args, "--max-steps")
            .map(|v| v.parse::<u64>().map_err(|e| format!("--max-steps: {e}")))
            .transpose()?,
        deadline: None,
    })
}

/// Parse a `usize`-valued flag.
fn usize_flag(args: &[String], name: &str) -> Result<Option<usize>, String> {
    flag_value(args, name)
        .map(|v| v.parse::<usize>().map_err(|e| format!("{name}: {e}")))
        .transpose()
}

/// Unpack every image and lift + canonicalize each contained executable,
/// pooling the per-part work of *all* images over `threads` scoped
/// worker threads (0 = one per core) via [`firmup::pipeline`]. Every
/// per-image and per-part step is fault-isolated: a corrupt image or a
/// panicking lift is reported and skipped, never aborting the run (the
/// corpus-scale robustness requirement of §5.1). Returns the reps in
/// deterministic image/part order plus the count of images that failed
/// to unpack entirely.
fn lift_images(paths: &[&String], threads: usize) -> Result<(Vec<ExecutableRep>, usize), String> {
    let mut parts: Vec<firmup::pipeline::PartJob> = Vec::new();
    let mut skipped_images = 0usize;
    for p in paths {
        let unpacked = std::fs::read(Path::new(p.as_str()))
            .map_err(FirmUpError::from)
            .and_then(|bytes| firmup::pipeline::unpack_parts(p, &bytes));
        match unpacked {
            Ok(mut jobs) => parts.append(&mut jobs),
            Err(e) => {
                eprintln!("firmup: skipping image: {e}");
                firmup::telemetry::incr(&format!("scan.errors.{}", e.kind()));
                skipped_images += 1;
            }
        }
    }
    if skipped_images == paths.len() {
        return Err("no scannable image: every input failed to unpack".into());
    }
    let mut reps = Vec::with_capacity(parts.len());
    for r in firmup::pipeline::lift_parts(&parts, threads) {
        match r {
            Ok(rep) => reps.push(rep),
            Err(e) => eprintln!("firmup: skipping part: {e}"),
        }
    }
    Ok((reps, skipped_images))
}

fn index(args: &[String]) -> Result<(), CliError> {
    if has_flag(args, "--add") {
        return index_add(args);
    }
    firmup::telemetry::enable();
    // Pre-register the durability counters so every run (including one
    // that reuses everything) reports them in --metrics-out JSON.
    for name in [
        "index.segments_committed",
        "index.segments_reused",
        "index.resumed",
        "index.reps_decoded",
        "index.bytes_mapped",
        "index.queries_stored",
        "io.retries",
    ] {
        let _ = firmup::telemetry::counter(name);
    }
    let paths = positional(args);
    if paths.is_empty() {
        return Err(CliError::Msg("index requires at least one IMAGE".into()));
    }
    let out = PathBuf::from(
        flag_value(args, "--out")
            .ok_or_else(|| CliError::Msg("index requires --out DIR".into()))?,
    );
    let threads = usize_flag(args, "--threads")?.unwrap_or(0);
    let resume = has_flag(args, "--resume");
    let metrics_out = flag_value(args, "--metrics-out").map(PathBuf::from);
    firmup::shutdown::install();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    // One writer at a time: a second `firmup index` on the same DIR gets
    // a structured lock-held error instead of a torn index.
    let lock = acquire_lock(&out, &LockOptions::from_env())
        .map_err(|e| CliError::Msg(FirmUpError::from(e).to_string()))?;
    if resume {
        firmup::telemetry::incr("index.resumed");
    }
    let (mut ckpt, stats) =
        IndexCheckpoint::open(&out, resume).map_err(|e| CliError::Msg(e.to_string()))?;
    if stats.torn_tail {
        eprintln!("firmup: journal ended in a torn append (trimmed; that segment will be rebuilt)");
    }
    if stats.damaged > 0 {
        eprintln!(
            "firmup: {} damaged checkpoint segment(s) dropped; they will be re-lifted",
            stats.damaged
        );
    }
    // Test hook: slow the per-segment loop down so concurrency tests can
    // reliably observe a writer mid-build.
    let segment_delay = std::env::var("FIRMUP_TEST_SEGMENT_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(std::time::Duration::from_millis);

    let mut reps: Vec<ExecutableRep> = Vec::new();
    let mut sealed: Vec<u64> = Vec::new();
    let mut skipped = 0usize;
    let mut segments_done = 0usize;
    let mut was_interrupted = false;
    // Build every CVE query once, on a worker that overlaps the image
    // loop (and its per-segment fsyncs); the `query:*` records let each
    // later `scan --index` skip compiling, lifting and canonicalizing
    // the queries.
    let query_keys = firmup::pipeline::query_keys();
    let built_queries = std::thread::scope(|scope| {
        let prebuild = scope.spawn(|| {
            let _span = firmup::telemetry::span!("index.queries");
            firmup::pipeline::build_queries(&query_keys, threads)
        });
        for p in &paths {
            let bytes = match std::fs::read(Path::new(p.as_str())) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("firmup: skipping image {p}: {e}");
                    firmup::telemetry::incr("scan.errors.io");
                    skipped += 1;
                    continue;
                }
            };
            let digest = image_digest(p, &bytes);
            if ckpt.committed(digest) {
                match ckpt.load_segment(digest) {
                    Ok(seg) => {
                        firmup::telemetry::incr("index.segments_reused");
                        reps.extend(seg);
                        sealed.push(digest);
                        segments_done += 1;
                    }
                    Err(e) => return Err(CliError::Msg(e.to_string())),
                }
            } else {
                match firmup::pipeline::lift_image(p, &bytes, threads) {
                    Ok(seg) => {
                        ckpt.commit(digest, &seg)
                            .map_err(|e| CliError::Msg(e.to_string()))?;
                        reps.extend(seg);
                        sealed.push(digest);
                        segments_done += 1;
                    }
                    Err(e) => {
                        eprintln!("firmup: skipping image: {e}");
                        firmup::telemetry::incr(&format!("scan.errors.{}", e.kind()));
                        skipped += 1;
                    }
                }
            }
            lock.heartbeat();
            crash_point(CP_BETWEEN_SEGMENTS);
            if let Some(d) = segment_delay {
                std::thread::sleep(d);
            }
            if firmup::shutdown::interrupted() {
                was_interrupted = true;
                break;
            }
        }
        prebuild
            .join()
            .map_err(|_| CliError::Msg("query prebuild thread panicked".into()))
    })?;

    let write_metrics = |metrics_out: &Option<PathBuf>| -> Result<(), CliError> {
        if let Some(path) = metrics_out {
            let snap = firmup::telemetry::snapshot();
            write_atomic(path, snap.render_json().render().as_bytes())
                .map_err(|e| CliError::Msg(format!("{}: {e}", path.display())))?;
            println!("metrics written to {}", path.display());
        }
        Ok(())
    };

    if was_interrupted {
        println!(
            "interrupted: {segments_done} image segment(s) durable in {}; rerun with --resume to finish",
            out.display()
        );
        print!("{}", firmup::telemetry::snapshot().render_text());
        write_metrics(&metrics_out)?;
        return Err(CliError::Interrupted);
    }
    if skipped == paths.len() {
        return Err(CliError::Msg(
            "no indexable image: every input failed to unpack".into(),
        ));
    }
    let mut corpus = CorpusIndex::build(reps);
    // Seal the ingested image digests into the base so `index --add`
    // can dedup against it and `compact` can prove what it folded.
    corpus.set_seals(sealed);
    let stored = firmup::pipeline::store_queries(&mut corpus, &query_keys, built_queries);
    firmup::telemetry::add("index.queries_stored", stored as u64);
    corpus
        .save(&out)
        .map_err(|e| CliError::Msg(e.to_string()))?;
    println!(
        "indexed {} executable(s) ({} procedure(s), {} distinct strand(s)) from {} image(s){} -> {}",
        corpus.len(),
        (0..corpus.len())
            .map(|i| corpus.get(i).procedures.len())
            .sum::<usize>(),
        corpus.postings.strand_count(),
        paths.len() - skipped,
        if skipped > 0 {
            format!(" ({skipped} unreadable image(s) skipped)")
        } else {
            String::new()
        },
        firmup::firmware::index::index_path(&out).display()
    );
    print!("{}", firmup::telemetry::snapshot().render_text());
    write_metrics(&metrics_out)?;
    drop(lock);
    Ok(())
}

fn index_add(args: &[String]) -> Result<(), CliError> {
    firmup::telemetry::enable();
    for name in [
        "index.segments_committed",
        "index.segments_reused",
        "index.manifest_published",
        "io.retries",
    ] {
        let _ = firmup::telemetry::counter(name);
    }
    let paths = positional(args);
    if paths.is_empty() {
        return Err(CliError::Msg(
            "index --add requires at least one IMAGE".into(),
        ));
    }
    let out = PathBuf::from(
        flag_value(args, "--out")
            .ok_or_else(|| CliError::Msg("index requires --out DIR".into()))?,
    );
    let threads = usize_flag(args, "--threads")?.unwrap_or(0);
    let metrics_out = flag_value(args, "--metrics-out").map(PathBuf::from);
    firmup::shutdown::install();
    let images: Vec<PathBuf> = paths.iter().map(|p| PathBuf::from(p.as_str())).collect();
    let report = firmup::ingest::add_images(&out, &images, threads)
        .map_err(|e| CliError::Msg(e.to_string()))?;
    let write_metrics = || -> Result<(), CliError> {
        if let Some(path) = &metrics_out {
            let snap = firmup::telemetry::snapshot();
            write_atomic(path, snap.render_json().render().as_bytes())
                .map_err(|e| CliError::Msg(format!("{}: {e}", path.display())))?;
            println!("metrics written to {}", path.display());
        }
        Ok(())
    };
    if report.interrupted {
        println!(
            "interrupted: {} new segment(s) durable in {}; rerun `firmup index --add` to publish them",
            report.added + report.adopted,
            out.display()
        );
        print!("{}", firmup::telemetry::snapshot().render_text());
        write_metrics()?;
        return Err(CliError::Interrupted);
    }
    if report.skipped == paths.len() {
        return Err(CliError::Msg(
            "no indexable image: every input failed to unpack".into(),
        ));
    }
    let mut notes = String::new();
    if report.adopted > 0 {
        notes.push_str(&format!(
            " ({} segment(s) adopted from an interrupted run)",
            report.adopted
        ));
    }
    if report.already_live > 0 {
        notes.push_str(&format!(
            " ({} image(s) already indexed, skipped)",
            report.already_live
        ));
    }
    if report.skipped > 0 {
        notes.push_str(&format!(
            " ({} unreadable image(s) skipped)",
            report.skipped
        ));
    }
    println!(
        "added {} image(s) ({} executable(s)) -> {} live segment(s) at epoch {} in {}{notes}",
        report.added + report.adopted,
        report.executables,
        report.live_segments,
        report.epoch,
        out.display(),
    );
    print!("{}", firmup::telemetry::snapshot().render_text());
    write_metrics()?;
    Ok(())
}

fn compact_cmd(args: &[String]) -> Result<(), String> {
    firmup::telemetry::enable();
    let _ = firmup::telemetry::counter("index.segments_folded");
    let pos = positional(args);
    let [dir] = pos.as_slice() else {
        return Err("compact requires exactly one DIR".into());
    };
    let metrics_out = flag_value(args, "--metrics-out").map(PathBuf::from);
    let report = firmup::ingest::compact(Path::new(dir.as_str())).map_err(|e| e.to_string())?;
    if report.epoch == 0 {
        println!(
            "nothing to compact: no live-segment manifest in {dir} ({} executable(s) in the base)",
            report.executables
        );
    } else {
        println!(
            "compacted {} live segment(s) into {} — {} executable(s), manifest now empty at epoch {}",
            report.folded,
            firmup::firmware::index::index_path(Path::new(dir.as_str())).display(),
            report.executables,
            report.epoch
        );
    }
    if let Some(path) = &metrics_out {
        let snap = firmup::telemetry::snapshot();
        write_atomic(path, snap.render_json().render().as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("metrics written to {}", path.display());
    }
    print!("{}", firmup::telemetry::snapshot().render_text());
    Ok(())
}

fn fsck_cmd(args: &[String]) -> Result<(), String> {
    firmup::telemetry::enable();
    let _ = firmup::telemetry::counter("fsck.records_repaired");
    let pos = positional(args);
    let (dir, images) = pos.split_first().ok_or("fsck requires a DIR")?;
    let opts = firmup::fsck::FsckOptions {
        repair: has_flag(args, "--repair"),
        images: images.iter().map(|p| PathBuf::from(p.as_str())).collect(),
        threads: usize_flag(args, "--threads")?.unwrap_or(0),
    };
    let report = firmup::fsck::run(Path::new(dir.as_str()), &opts).map_err(|e| e.to_string())?;
    print!("{report}");
    // Exit taxonomy: clean and repaired-to-clean both exit 0 (the
    // report distinguishes them); unrepairable damage exits 1.
    match report.outcome() {
        firmup::fsck::FsckOutcome::Clean | firmup::fsck::FsckOutcome::Repaired => Ok(()),
        firmup::fsck::FsckOutcome::Unrepairable if opts.repair => Err(
            "index not clean after repair (pass the source IMAGE... to rebuild lost segments)"
                .into(),
        ),
        firmup::fsck::FsckOutcome::Unrepairable => {
            Err("index not clean (rerun with --repair and the source images to rebuild)".into())
        }
    }
}

fn scan_images(args: &[String], mode: OutputMode) -> Result<(usize, bool), String> {
    let paths = positional(args);
    let index_dir = flag_value(args, "--index").map(PathBuf::from);
    if paths.is_empty() && index_dir.is_none() {
        return Err("scan requires at least one IMAGE (or --index DIR)".into());
    }
    // Anchor the whole-scan allowance *before* acquiring the corpus:
    // `--scan-ms` is the caller's deadline for the command, so index
    // load (or cold lift) counts against it — a corrupt or slow index
    // can no longer blow past the deadline before the clock even starts.
    let budget = scan_budget(args)?.anchored(std::time::Instant::now());
    let opts = firmup::pipeline::ScanOptions {
        cve: flag_value(args, "--cve").map(str::to_string),
        top_k: usize_flag(args, "--top-k")?.unwrap_or(0),
        threads: usize_flag(args, "--threads")?.unwrap_or(1),
        explain: has_flag(args, "--explain"),
    };
    let threads = opts.threads;
    // Informational lines: stdout normally, stderr when stdout is the
    // JSON findings document or suppressed (`firmup profile`).
    let info = |msg: String| match mode {
        OutputMode::Text => println!("{msg}"),
        OutputMode::Json | OutputMode::Quiet => eprintln!("{msg}"),
    };

    // Acquire the corpus: warm path loads the persisted index and skips
    // unpack/lift/canonicalize entirely; cold path lifts the images and
    // builds the same structures in memory. Either way the scan below is
    // identical.
    let corpus = if let Some(dir) = &index_dir {
        // Test hook: make the index load observably slow, so tests can
        // pin that load time is charged against --scan-ms.
        if let Some(ms) = std::env::var("FIRMUP_TEST_INDEX_LOAD_DELAY_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let corpus = CorpusIndex::open(dir).map_err(|e| e.to_string())?;
        info(format!(
            "loaded {} executable(s) from index {}",
            corpus.len(),
            dir.display()
        ));
        corpus
    } else {
        let (reps, skipped_images) = lift_images(&paths, threads)?;
        info(format!(
            "indexed {} executable(s) from {} image(s){}",
            reps.len(),
            paths.len() - skipped_images,
            if skipped_images > 0 {
                format!(" ({skipped_images} unreadable image(s) skipped)")
            } else {
                String::new()
            }
        ));
        CorpusIndex::build(reps)
    };

    // The scan core is shared with `firmup serve`: same query build,
    // unit decomposition, work-stealing pass, and deterministic merge —
    // which is what keeps a served response byte-identical to this
    // CLI's JSON output for the same corpus snapshot.
    let cache = firmup::pipeline::QueryCache::default();
    let output = firmup::pipeline::run_scan(
        &corpus,
        &opts,
        &budget,
        &cache,
        &firmup::shutdown::interrupted,
    )
    .map_err(|e| {
        // A lazy decode failure names the index file, like load errors.
        let e = match &index_dir {
            Some(dir) => e.in_ctx(firmup::core::error::FaultCtx::image(
                firmup::firmware::index::index_path(dir)
                    .display()
                    .to_string(),
            )),
            None => e,
        };
        e.to_string()
    })?;
    for d in &output.diagnostics {
        eprintln!("{d}");
    }
    for f in &output.findings {
        match mode {
            OutputMode::Text => {
                println!(
                    "{}: {} ({} {}) suspected at {:#x} in {} (Sim={}, {} game step(s))",
                    f.cve.cve,
                    f.cve.procedure,
                    f.cve.package,
                    f.version,
                    f.addr,
                    f.target,
                    f.sim,
                    f.steps
                );
                if let Some(ex) = &f.explain {
                    print!("{}", ex.render_text());
                }
            }
            OutputMode::Json | OutputMode::Quiet => {}
        }
    }
    let interrupted = firmup::shutdown::interrupted();
    if output.saw_scan_deadline {
        info("scan budget (--scan-ms) exhausted; remaining targets skipped".to_string());
    }
    if output.saw_step_budget {
        info("step budget (--max-steps) exhausted; remaining targets skipped".to_string());
    }
    if interrupted {
        info("interrupted; findings so far are complete for the targets scanned".to_string());
    }
    if mode == OutputMode::Json {
        println!("{}", output.render_json(interrupted).render());
    }
    let findings = output.findings.len();
    info(format!("{findings} suspected occurrence(s)"));
    if output.poisoned > 0 || output.over_budget > 0 {
        info(format!(
            "degraded: {} poisoned target(s), {} over-budget target(s)",
            output.poisoned, output.over_budget
        ));
    }
    Ok((findings, interrupted))
}

fn chaos(args: &[String]) -> Result<(), String> {
    let seed = flag_value(args, "--seed")
        .map(|v| {
            u64::from_str_radix(v.trim_start_matches("0x"), 16).map_err(|e| format!("--seed: {e}"))
        })
        .transpose()?
        .unwrap_or(0xc4a0_5000);
    let devices = flag_value(args, "--devices")
        .map(|v| v.parse::<usize>().map_err(|e| format!("--devices: {e}")))
        .transpose()?
        .unwrap_or(2);
    if has_flag(args, "--serve") {
        let firmup_bin = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let report = firmup::chaos::run_serve_chaos(&firmup::chaos::ServeChaosConfig {
            seed,
            devices,
            firmup_bin,
        })?;
        print!("{report}");
        return if report.passed() {
            Ok(())
        } else {
            Err("serve-stage degradation violation (see drill above)".into())
        };
    }
    if has_flag(args, "--crash-matrix") {
        let firmup_bin = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let report = firmup::chaos::run_crash_matrix(&firmup::chaos::CrashMatrixConfig {
            seed,
            devices,
            firmup_bin,
        })?;
        print!("{report}");
        return if report.passed() {
            Ok(())
        } else {
            Err("crash-consistency violation (see matrix above)".into())
        };
    }
    let variants = flag_value(args, "--variants")
        .map(|v| v.parse::<u64>().map_err(|e| format!("--variants: {e}")))
        .transpose()?
        .unwrap_or(4);
    let report = firmup::chaos::run(&firmup::chaos::ChaosConfig {
        seed,
        devices,
        variants,
    });
    print!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} panic(s) contained by stage guards",
            report.panics()
        ))
    }
}

/// `firmup serve`: parse flags into a [`firmup::serve::ServeConfig`]
/// and run the daemon; the returned code becomes the process exit code.
fn serve_cmd(args: &[String]) -> Result<u8, String> {
    let index_dir = PathBuf::from(
        flag_value(args, "--index").ok_or_else(|| "serve requires --index DIR".to_string())?,
    );
    let max_request_ms = flag_value(args, "--max-request-ms")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|e| format!("--max-request-ms: {e}"))
        })
        .transpose()?
        .unwrap_or(60_000);
    let drain_ms = flag_value(args, "--drain-ms")
        .map(|v| v.parse::<u64>().map_err(|e| format!("--drain-ms: {e}")))
        .transpose()?
        .unwrap_or(5_000);
    let cfg = firmup::serve::ServeConfig {
        index_dir,
        listen: flag_value(args, "--listen")
            .unwrap_or("127.0.0.1:7878")
            .to_string(),
        workers: usize_flag(args, "--workers")?.unwrap_or(4),
        queue_cap: usize_flag(args, "--queue-cap")?.unwrap_or(64),
        threads: usize_flag(args, "--threads")?.unwrap_or(1),
        max_request_ms: (max_request_ms > 0).then_some(max_request_ms),
        drain_ms,
        port_file: flag_value(args, "--port-file").map(PathBuf::from),
        metrics_out: flag_value(args, "--metrics-out").map(PathBuf::from),
        trace_out: flag_value(args, "--trace-out").map(PathBuf::from),
    };
    firmup::serve::run(&cfg)
}
