//! The chaos harness: drive every corruption operator through every
//! pipeline stage and prove nothing panics.
//!
//! `firmup chaos` (and the `tests/chaos.rs` suite) generate a small
//! seeded corpus, damage each image with every [`CorruptOp`], then push
//! the damaged blob through unpack → ELF parse → lift/index → search,
//! each stage guarded by [`firmup_core::error::isolate`]. Each trial
//! additionally damages a pristine persisted corpus index
//! ([`firmup_core::persist::CorpusIndex`]) with the same operator and
//! pushes it through the index loader, which must answer with a
//! structured [`firmup_firmware::index::IndexError`]. Every trial must
//! end in a structured error, a degraded-but-completed scan, or a clean
//! completion; a contained panic is recorded and fails the run — the
//! guard exists so the harness can *report* the bug instead of dying
//! from it.

use std::fmt;

use firmup_core::canon::CanonConfig;
use firmup_core::error::{isolate, FaultCtx, FirmUpError};
use firmup_core::persist::CorpusIndex;
use firmup_core::search::{search_corpus_robust, ScanBudget, SearchConfig};
use firmup_core::sim::{index_elf, ExecutableRep};
use firmup_firmware::corpus::{generate, CorpusConfig};
use firmup_firmware::faultinject::{corrupt, CorruptOp};
use firmup_firmware::image::unpack;
use firmup_firmware::packages::all_cves;
use firmup_obj::Elf;

use crate::pipeline::{
    build_queries, query_keys, run_scan, store_queries, QueryCache, ScanOptions,
};

/// Chaos run parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: drives both corpus generation and every corruption.
    pub seed: u64,
    /// Devices in the generated victim corpus.
    pub devices: usize,
    /// Corruption variants per (image, operator) pair.
    pub variants: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xc4a0_5000,
            devices: 2,
            variants: 4,
        }
    }
}

/// Tally for one corruption operator across all its trials.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// The operator.
    pub op: CorruptOp,
    /// Corrupted blobs pushed through the pipeline.
    pub trials: u64,
    /// Trials rejected at unpack with a structured error.
    pub unpack_errors: u64,
    /// Parts rejected at ELF parse / lift with a structured error.
    pub stage_errors: u64,
    /// Trials that unpacked but yielded nothing searchable (degraded).
    pub degraded: u64,
    /// Trials that ran a search to completion.
    pub searched: u64,
    /// Search targets degraded by the chaos budget.
    pub budget_exceeded: u64,
    /// Damaged index blobs rejected by the loader with a structured
    /// [`firmup_firmware::index::IndexError`].
    pub index_errors: u64,
    /// Damaged index blobs the loader still accepted (damage landed in
    /// slack the format tolerates — e.g. a no-op truncation).
    pub index_ok: u64,
    /// Panics contained by a stage guard — any nonzero value is a bug.
    pub panics: u64,
}

impl OpReport {
    fn new(op: CorruptOp) -> OpReport {
        OpReport {
            op,
            trials: 0,
            unpack_errors: 0,
            stage_errors: 0,
            degraded: 0,
            searched: 0,
            budget_exceeded: 0,
            index_errors: 0,
            index_ok: 0,
            panics: 0,
        }
    }
}

/// One targeted FUIX record-corruption trial. Unlike the blind
/// [`CorruptOp`] stage, these rebuild the container around a damaged
/// payload so every table offset and CRC-32 is *valid* — the damage is
/// visible only to the typed codec (the `postings2` varint-delta
/// decoder, the `query:*` record checksum), which must answer with a
/// structured error, never a panic.
#[derive(Debug, Clone)]
pub struct RecordTrial {
    /// Record attacked (`postings2`, or `query` — one
    /// `query:<package>:<arch>` record).
    pub record: &'static str,
    /// Mutation applied (`truncated`, `bitflip`, `zero-delta`, ...).
    pub mutation: &'static str,
    /// Whether the mutation is guaranteed malformed (a bitflip may land
    /// on bytes that still decode; crafted bad deltas may not).
    pub must_reject: bool,
    /// The loader (driven to a full decode) answered with a structured
    /// error.
    pub rejected: bool,
    /// The loader accepted the blob.
    pub ok: bool,
    /// Panics contained by the stage guard — any nonzero value is a bug.
    pub panics: u64,
    /// `query` trials only: whether the loader accepted the blob and a
    /// scan rebuilt the damaged query (`queries_built > 0`) and rendered
    /// the pristine findings bytes. `None` for other records.
    pub fallback_matches: Option<bool>,
}

impl RecordTrial {
    /// The invariant: no panic, a guaranteed-malformed payload
    /// rejected, and a damaged query record costing a rebuild, never an
    /// answer.
    pub fn passed(&self) -> bool {
        self.panics == 0
            && (!self.must_reject || self.rejected)
            && self.fallback_matches != Some(false)
    }
}

/// The full chaos matrix result.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed the run used (replays the exact damage).
    pub seed: u64,
    /// One tally per operator, in [`CorruptOp::all`] order.
    pub per_op: Vec<OpReport>,
    /// Targeted typed-codec trials against the `postings2` and
    /// `query:*` records (valid container CRCs, malformed payloads).
    pub record_trials: Vec<RecordTrial>,
}

impl ChaosReport {
    /// Total trials across operators.
    pub fn trials(&self) -> u64 {
        self.per_op.iter().map(|r| r.trials).sum()
    }

    /// Total contained panics — must be zero for a passing run.
    pub fn panics(&self) -> u64 {
        self.per_op.iter().map(|r| r.panics).sum::<u64>()
            + self.record_trials.iter().map(|t| t.panics).sum::<u64>()
    }

    /// Whether every trial ended in a structured error or a completed
    /// (possibly degraded) scan.
    pub fn passed(&self) -> bool {
        self.panics() == 0 && self.record_trials.iter().all(RecordTrial::passed)
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos matrix (seed {:#x}, {} trial(s)):",
            self.seed,
            self.trials()
        )?;
        writeln!(
            f,
            "  {:<22} {:>7} {:>8} {:>7} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
            "operator",
            "trials",
            "unpack-e",
            "stage-e",
            "degraded",
            "searched",
            "budget",
            "idx-err",
            "idx-ok",
            "PANICS"
        )?;
        for r in &self.per_op {
            writeln!(
                f,
                "  {:<22} {:>7} {:>8} {:>7} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
                r.op.name(),
                r.trials,
                r.unpack_errors,
                r.stage_errors,
                r.degraded,
                r.searched,
                r.budget_exceeded,
                r.index_errors,
                r.index_ok,
                r.panics
            )?;
        }
        if !self.record_trials.is_empty() {
            writeln!(f, "typed-record corruption (valid CRCs):")?;
            writeln!(
                f,
                "  {:<11} {:<15} {:>7} {:>7} {:>7}",
                "record", "mutation", "loader", "PANICS", "verdict"
            )?;
            for t in &self.record_trials {
                let loader = if t.rejected {
                    "reject"
                } else if t.ok {
                    "ok"
                } else {
                    "PANIC"
                };
                writeln!(
                    f,
                    "  {:<11} {:<15} {:>7} {:>7} {:>7}",
                    t.record,
                    t.mutation,
                    loader,
                    t.panics,
                    if t.passed() { "pass" } else { "FAIL" }
                )?;
            }
        }
        writeln!(
            f,
            "result: {}",
            if self.passed() {
                "PASS — zero panics escaped any stage"
            } else {
                "FAIL — a pipeline stage panicked"
            }
        )
    }
}

/// Run the full operator × stage matrix.
pub fn run(config: &ChaosConfig) -> ChaosReport {
    let corpus = generate(&CorpusConfig {
        seed: config.seed,
        devices: config.devices.max(1),
        ..CorpusConfig::tiny()
    });
    let canon = CanonConfig::default();
    // One pristine persisted index per image: the index-corruption stage
    // damages *these* blobs, exercising the FUIX reader exactly the way
    // the image operators exercise the FWIM unpacker.
    let index_blobs: Vec<Vec<u8>> = corpus
        .images
        .iter()
        .map(|img| {
            let reps = unpack(&img.blob).map_or_else(
                |_| Vec::new(),
                |u| {
                    u.parts
                        .iter()
                        .filter_map(|part| {
                            let elf = Elf::parse(&part.data).ok()?;
                            index_elf(&elf, &part.name, &canon).ok()
                        })
                        .collect()
                },
            );
            CorpusIndex::build(reps).to_bytes()
        })
        .collect();
    let mut per_op = Vec::new();
    for op in CorruptOp::all() {
        let mut tally = OpReport::new(op);
        for (i, img) in corpus.images.iter().enumerate() {
            for variant in 0..config.variants.max(1) {
                // Distinct, reproducible damage per (image, op, variant).
                let seed = config
                    .seed
                    .wrapping_mul(0x100_0193)
                    .wrapping_add((i as u64) << 8)
                    .wrapping_add(variant);
                let damaged = corrupt(&img.blob, op, seed);
                run_trial(
                    &damaged,
                    &format!("chaos[{}#{i}v{variant}]", op.name()),
                    &canon,
                    &mut tally,
                );
                let damaged_index = corrupt(&index_blobs[i], op, seed.wrapping_mul(31) ^ 0x1d);
                run_index_trial(
                    &damaged_index,
                    &format!("chaos-index[{}#{i}v{variant}]", op.name()),
                    &mut tally,
                );
            }
        }
        per_op.push(tally);
    }
    let record_trials = index_blobs
        .first()
        .map(|blob| {
            let mut trials = run_record_trials(blob);
            trials.extend(run_query_trials(blob));
            trials
        })
        .unwrap_or_default();
    ChaosReport {
        seed: config.seed,
        per_op,
        record_trials,
    }
}

/// Load `blob` the way [`CorpusIndex::load`] does —
/// [`CorpusIndex::from_bytes`] driven to a full decode by
/// [`CorpusIndex::ensure_all`] — under a stage guard that turns a panic
/// into a poisoned error.
fn load_fully(blob: &[u8], tag: &str) -> Result<CorpusIndex, FirmUpError> {
    isolate(FaultCtx::image(tag), || {
        let index = CorpusIndex::from_bytes(blob.to_vec())?;
        index.ensure_all()?;
        Ok(index)
    })
}

/// Targeted corruption of the typed `postings2` record: the container
/// is rebuilt around each damaged payload with
/// [`write_container_v2`](firmup_firmware::index::write_container_v2),
/// so the table and every CRC-32 verify clean — only the varint-delta
/// codec's own trust boundary (strict monotonicity, bounded counts) can
/// catch the damage.
fn run_record_trials(pristine: &[u8]) -> Vec<RecordTrial> {
    use firmup_firmware::index::{push_varint, read_container, write_container_v2};
    let varints = |vals: &[u64]| {
        let mut out = Vec::new();
        for &v in vals {
            push_varint(&mut out, v);
        }
        out
    };
    let record = "postings2";
    let Ok(records) = read_container(pristine) else {
        return Vec::new();
    };
    let Some(orig) = records.iter().find(|r| r.name == record) else {
        return Vec::new();
    };
    // (mutation, guaranteed-malformed, replacement payload).
    let cases: Vec<(&'static str, bool, Vec<u8>)> = vec![
        // Cut mid-stream: the leading count promises entries the bytes
        // can no longer deliver.
        (
            "truncated",
            !orig.payload.is_empty(),
            orig.payload[..orig.payload.len() / 2].to_vec(),
        ),
        // Flip bits mid-payload: may or may not still decode, but must
        // never panic.
        ("bitflip", false, {
            let mut p = orig.payload.clone();
            if !p.is_empty() {
                let mid = p.len() / 2;
                p[mid] ^= 0x55;
            }
            p
        }),
        // A count far beyond what any payload could back.
        ("count-overrun", true, varints(&[u64::MAX])),
        // 1 key: key=5, list len 2, site=7, then a zero site delta.
        ("zero-delta", true, varints(&[1, 5, 2, 7, 0])),
        // 2 keys: key=5 (1 site), then a zero key delta.
        ("zero-key-delta", true, varints(&[2, 5, 1, 9, 0])),
        // 2 keys: key=5 (1 site), then a key delta that overflows.
        ("delta-overflow", true, varints(&[2, 5, 1, 9, u64::MAX])),
    ];
    cases
        .into_iter()
        .map(|(mutation, must_reject, payload)| {
            let mut damaged = records.clone();
            damaged
                .iter_mut()
                .find(|r| r.name == record)
                .expect("record present")
                .payload = payload;
            let blob = write_container_v2(&damaged);
            let loaded = load_fully(&blob, &format!("chaos-record[{record}:{mutation}]"));
            let poisoned = matches!(&loaded, Err(e) if e.is_poisoned());
            RecordTrial {
                record,
                mutation,
                must_reject,
                rejected: loaded.is_err() && !poisoned,
                ok: loaded.is_ok(),
                panics: u64::from(poisoned),
                fallback_matches: None,
            }
        })
        .collect()
}

/// Targeted corruption of one `query:<package>:<arch>` record, with
/// valid container CRCs: truncation and a mid-payload bitflip. The
/// loader must accept the blob (a query record is a cache, not corpus
/// state), and a scan must rebuild the query and render the same
/// findings bytes as the pristine index.
fn run_query_trials(pristine: &[u8]) -> Vec<RecordTrial> {
    use firmup_firmware::index::{read_container, write_container_v2};
    let Ok(mut index) = load_fully(pristine, "chaos-query") else {
        return Vec::new();
    };
    // One CVE, with its package's query for every arch the corpus holds
    // — everything that scan asks for.
    let cve = all_cves()[0];
    let archs: Vec<_> = (0..index.len()).map(|i| index.exe_arch(i)).collect();
    let keys: Vec<_> = query_keys()
        .into_iter()
        .filter(|&(p, a)| p == cve.package && archs.contains(&a))
        .collect();
    let built = build_queries(&keys, 1);
    store_queries(&mut index, &keys, built);
    let blob = index.to_bytes();
    let opts = ScanOptions {
        cve: Some(cve.cve.to_string()),
        ..ScanOptions::default()
    };
    let scan = |index: &CorpusIndex| {
        run_scan(
            index,
            &opts,
            &ScanBudget::unlimited(),
            &QueryCache::default(),
            &|| false,
        )
        .map(|out| (out.render_json(false).render(), out.queries_built))
    };
    let pristine_scan = isolate(FaultCtx::image("chaos-query"), || {
        scan(&CorpusIndex::from_bytes(blob.clone())?)
    });
    let (Ok(records), Ok((want, 0))) = (read_container(&blob), pristine_scan) else {
        return Vec::new();
    };
    let Some(target) = records.iter().position(|r| r.name.starts_with("query:")) else {
        return Vec::new();
    };
    let orig = &records[target].payload;
    let cases: [(&'static str, Vec<u8>); 2] = [
        ("truncated", orig[..orig.len() / 2].to_vec()),
        ("bitflip", {
            let mut p = orig.clone();
            let mid = p.len() / 2;
            p[mid] ^= 0x55;
            p
        }),
    ];
    let mut trials = Vec::new();
    for (mutation, payload) in cases {
        let mut damaged = records.clone();
        damaged[target].payload = payload;
        let blob = write_container_v2(&damaged);
        let tag = format!("chaos-record[query:{mutation}]");
        let scanned = isolate(FaultCtx::image(&tag), || {
            let (got, built) = scan(&CorpusIndex::from_bytes(blob.clone())?)?;
            Ok(got == want && built > 0)
        });
        let poisoned = matches!(&scanned, Err(e) if e.is_poisoned());
        trials.push(RecordTrial {
            record: "query",
            mutation,
            must_reject: false,
            rejected: scanned.is_err() && !poisoned,
            ok: scanned.is_ok(),
            panics: u64::from(poisoned),
            fallback_matches: Some(matches!(scanned, Ok(true))),
        });
    }
    trials
}

/// Push one damaged blob through unpack → parse → lift/index → search.
fn run_trial(blob: &[u8], image_id: &str, canon: &CanonConfig, tally: &mut OpReport) {
    tally.trials += 1;
    let ctx = FaultCtx::image(image_id);

    // Stage 1: unpack.
    let unpacked = match isolate(ctx.clone(), || unpack(blob).map_err(FirmUpError::from)) {
        Ok(u) => u,
        Err(e) if e.is_poisoned() => {
            tally.panics += 1;
            return;
        }
        Err(_) => {
            tally.unpack_errors += 1;
            return;
        }
    };

    // Stage 2+3: ELF parse and lift/index, per part.
    let mut reps: Vec<ExecutableRep> = Vec::new();
    for part in &unpacked.parts {
        let part_ctx = ctx.clone().with_package(&part.name);
        let indexed = isolate(part_ctx, || {
            let elf = Elf::parse(&part.data)?;
            index_elf(&elf, &part.name, canon).map_err(FirmUpError::from)
        });
        match indexed {
            Ok(rep) => reps.push(rep),
            Err(e) if e.is_poisoned() => tally.panics += 1,
            Err(_) => tally.stage_errors += 1,
        }
    }

    // Stage 4: search. A synthetic query (a clone of the first indexed
    // procedure) keeps the chaos loop fast — the point is exercising
    // the game on damaged-but-parseable procedures, not CVE accuracy.
    let Some(query) = reps
        .iter()
        .find(|r| !r.procedures.is_empty())
        .map(|r| ExecutableRep {
            id: "chaos-query".into(),
            arch: r.arch,
            procedures: vec![r.procedures[0].clone()],
        })
    else {
        tally.degraded += 1;
        return;
    };
    let config = SearchConfig {
        threads: 1,
        ..SearchConfig::default()
    };
    let budget = ScanBudget {
        per_game: Some(std::time::Duration::from_millis(250)),
        per_target: Some(std::time::Duration::from_secs(2)),
        ..ScanBudget::default()
    };
    let report = search_corpus_robust(&query, 0, &reps, &config, &budget);
    tally.panics += report.poisoned() as u64;
    tally.budget_exceeded += report.budget_exceeded() as u64;
    tally.searched += 1;
}

/// Push one damaged index blob through the loader ([`load_fully`]: the
/// decoder driven to a full decode, where deferred payload CRCs are
/// finally checked). Any outcome but a structured error or a
/// successful decode (when the damage happened to land in tolerated
/// slack) is a contained panic — and a bug. The byte layer is the
/// independent oracle: a blob `read_container` rejects (it verifies
/// every CRC) must never load.
fn run_index_trial(blob: &[u8], index_id: &str, tally: &mut OpReport) {
    let loaded = load_fully(blob, index_id);
    match &loaded {
        Ok(_) => tally.index_ok += 1,
        Err(e) if e.is_poisoned() => tally.panics += 1,
        Err(_) => tally.index_errors += 1,
    }
    // Accepting damage the byte layer rejects is a hole in the loader's
    // verification: count it like a panic so the matrix fails loudly
    // instead of averaging it away.
    if loaded.is_ok() && firmup_firmware::index::read_container(blob).is_err() {
        eprintln!("chaos: {index_id}: loader accepted damage the container CRCs reject");
        tally.panics += 1;
    }
}

// ---- crash-consistency matrix ---------------------------------------------

/// Crash-matrix run parameters (`firmup chaos --crash-matrix`).
#[derive(Debug, Clone)]
pub struct CrashMatrixConfig {
    /// Corpus seed (also names the scratch directory).
    pub seed: u64,
    /// Devices in the generated victim corpus.
    pub devices: usize,
    /// The `firmup` binary to drive as crashing/resuming children.
    pub firmup_bin: std::path::PathBuf,
}

/// One crash-point trial's measurements.
#[derive(Debug, Clone)]
pub struct CrashTrial {
    /// The `FIRMUP_CRASH_POINT` spec injected into the child build.
    pub spec: String,
    /// The injected child did abort (a trial where it survives measures
    /// nothing).
    pub crashed: bool,
    /// `firmup index --resume` completed afterwards.
    pub resume_ok: bool,
    /// Segments the resume reused from the journal.
    pub reused: u64,
    /// Segments the resume had to (re-)lift and commit.
    pub committed: u64,
    /// Expected reused count for this crash point.
    pub expected_reused: u64,
    /// `firmup fsck` reported the resumed directory clean.
    pub fsck_clean: bool,
    /// Warm-scan findings byte-identical to the uninterrupted baseline.
    pub findings_match: bool,
    /// `corpus.fui` byte-identical to the uninterrupted baseline.
    pub fui_identical: bool,
}

impl CrashTrial {
    /// The full invariant: crash observed, resume clean, work reuse
    /// exact, fsck clean, findings and index bytes identical.
    pub fn passed(&self) -> bool {
        self.crashed
            && self.resume_ok
            && self.reused == self.expected_reused
            && self.fsck_clean
            && self.findings_match
            && self.fui_identical
    }
}

/// One trial of the incremental-ingestion state machines: kill
/// `firmup index --add` or `firmup compact` at a crash point (or tear
/// the manifest behind its back), recover with the documented command,
/// and check the recovered directory against the full-build baseline.
#[derive(Debug, Clone)]
pub struct IngestTrial {
    /// Which state machine was attacked: `add` or `compact`.
    pub stage: &'static str,
    /// The injected `FIRMUP_CRASH_POINT` spec (or the fault name).
    pub spec: String,
    /// The injected child did abort (or the fault was applied).
    pub crashed: bool,
    /// The recovery command completed.
    pub rerun_ok: bool,
    /// Segments the recovery adopted from the journal without
    /// re-lifting (`add` trials only).
    pub adopted: u64,
    /// Expected adoption count, when the trial pins one.
    pub expected_adopted: Option<u64>,
    /// `firmup fsck` exits 0 on the recovered directory.
    pub fsck_clean: bool,
    /// Scan findings byte-identical to the full-build baseline.
    pub findings_match: bool,
    /// Recovered durable state matches the no-crash reference: the
    /// manifest bytes for `add`, the full-build `corpus.fui` bytes plus
    /// an empty manifest for `compact`.
    pub state_match: bool,
}

impl IngestTrial {
    /// The full invariant for one ingest crash trial.
    pub fn passed(&self) -> bool {
        self.crashed
            && self.rerun_ok
            && self
                .expected_adopted
                .is_none_or(|want| self.adopted == want)
            && self.fsck_clean
            && self.findings_match
            && self.state_match
    }
}

/// The crash-consistency matrix result.
#[derive(Debug)]
pub struct CrashMatrixReport {
    /// Seed the run used.
    pub seed: u64,
    /// Images in the victim corpus (= segments per full build).
    pub images: usize,
    /// Findings the uninterrupted baseline produced.
    pub baseline_findings: usize,
    /// One row per injected crash point.
    pub trials: Vec<CrashTrial>,
    /// One row per `index --add` / `compact` crash trial.
    pub ingest_trials: Vec<IngestTrial>,
}

impl CrashMatrixReport {
    /// Whether every trial upheld the invariant.
    pub fn passed(&self) -> bool {
        !self.trials.is_empty()
            && self.trials.iter().all(CrashTrial::passed)
            && !self.ingest_trials.is_empty()
            && self.ingest_trials.iter().all(IngestTrial::passed)
    }
}

impl fmt::Display for CrashMatrixReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "crash-consistency matrix (seed {:#x}, {} image(s), {} baseline finding(s)):",
            self.seed, self.images, self.baseline_findings
        )?;
        writeln!(
            f,
            "  {:<32} {:>7} {:>7} {:>9} {:>9} {:>5} {:>9} {:>5} {:>7}",
            "crash point",
            "crashed",
            "resumed",
            "reused",
            "expected",
            "fsck",
            "findings",
            "fui",
            "verdict"
        )?;
        let yn = |b: bool| if b { "yes" } else { "NO" };
        for t in &self.trials {
            writeln!(
                f,
                "  {:<32} {:>7} {:>7} {:>9} {:>9} {:>5} {:>9} {:>5} {:>7}",
                t.spec,
                yn(t.crashed),
                yn(t.resume_ok),
                format!("{}+{}", t.reused, t.committed),
                t.expected_reused,
                yn(t.fsck_clean),
                yn(t.findings_match),
                yn(t.fui_identical),
                if t.passed() { "pass" } else { "FAIL" }
            )?;
        }
        writeln!(f, "ingest state machines (index --add / compact):")?;
        writeln!(
            f,
            "  {:<10} {:<34} {:>7} {:>7} {:>9} {:>5} {:>9} {:>6} {:>7}",
            "stage",
            "crash point",
            "crashed",
            "rerun",
            "adopted",
            "fsck",
            "findings",
            "state",
            "verdict"
        )?;
        for t in &self.ingest_trials {
            writeln!(
                f,
                "  {:<10} {:<34} {:>7} {:>7} {:>9} {:>5} {:>9} {:>6} {:>7}",
                t.stage,
                t.spec,
                yn(t.crashed),
                yn(t.rerun_ok),
                match t.expected_adopted {
                    Some(want) => format!("{}/{want}", t.adopted),
                    None => "-".to_string(),
                },
                yn(t.fsck_clean),
                yn(t.findings_match),
                yn(t.state_match),
                if t.passed() { "pass" } else { "FAIL" }
            )?;
        }
        writeln!(
            f,
            "result: {}",
            if self.passed() {
                "PASS — every crash point recovered to byte-identical findings"
            } else {
                "FAIL — a crash point violated the recovery invariant"
            }
        )
    }
}

/// Findings lines of a scan's stdout (the CVE hits), verbatim.
fn findings_of(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.contains("suspected at"))
        .map(str::to_string)
        .collect()
}

/// Read `index.segments_reused` / `index.segments_committed` out of a
/// `--metrics-out` JSON snapshot.
fn read_segment_counters(path: &std::path::Path) -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = firmup_telemetry::json::Json::parse(&text)
        .map_err(|e| format!("{}: unparseable metrics JSON: {e}", path.display()))?;
    let counters = doc
        .get("counters")
        .ok_or_else(|| format!("{}: no counters object", path.display()))?;
    let get = |name: &str| {
        counters
            .get(name)
            .and_then(firmup_telemetry::json::Json::as_u64)
            .unwrap_or(0)
    };
    Ok((
        get("index.segments_reused"),
        get("index.segments_committed"),
    ))
}

/// Run the crash-consistency matrix: for each deterministic crash point
/// ([`firmup_firmware::durable`]'s `CP_*` set), kill a child
/// `firmup index` at that exact point, then assert the invariant —
/// *the directory loads clean, `--resume` re-lifts only what was never
/// committed, `fsck` is clean, and the warm-scan findings and
/// `corpus.fui` bytes are identical to an uninterrupted run*.
///
/// # Errors
///
/// Setup failures (scratch dir, corpus generation, a baseline build
/// that won't run at all); trial *failures* are not errors — they land
/// in the report as failed rows.
pub fn run_crash_matrix(config: &CrashMatrixConfig) -> Result<CrashMatrixReport, String> {
    use std::process::Command;
    let work = std::env::temp_dir().join(format!(
        "firmup-crashmatrix-{:x}-{}",
        config.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    // Victim corpus, written as .fwim files for the child processes.
    let corpus = generate(&CorpusConfig {
        seed: config.seed,
        devices: config.devices.max(2),
        ..CorpusConfig::tiny()
    });
    let mut images: Vec<std::path::PathBuf> = Vec::new();
    for (i, img) in corpus.images.iter().enumerate() {
        let path = work.join(format!("{i:03}.fwim"));
        std::fs::write(&path, &img.blob).map_err(|e| format!("{}: {e}", path.display()))?;
        images.push(path);
    }
    let n = images.len();

    let index_args = |dir: &std::path::Path, extra: &[&str]| -> Vec<String> {
        let mut v = vec!["index".to_string()];
        v.extend(images.iter().map(|p| p.display().to_string()));
        v.extend(["--out".to_string(), dir.display().to_string()]);
        v.extend(["--threads".to_string(), "1".to_string()]);
        v.extend(extra.iter().map(|s| (*s).to_string()));
        v
    };
    let run_child =
        |args: &[String], crash: Option<&str>| -> Result<std::process::Output, String> {
            let mut cmd = Command::new(&config.firmup_bin);
            cmd.args(args);
            match crash {
                Some(spec) => cmd.env("FIRMUP_CRASH_POINT", spec),
                None => cmd.env_remove("FIRMUP_CRASH_POINT"),
            };
            cmd.output().map_err(|e| format!("spawn firmup: {e}"))
        };

    // Uninterrupted baseline: build, scan, remember bytes + findings.
    let base = work.join("baseline");
    let out = run_child(&index_args(&base, &[]), None)?;
    if !out.status.success() {
        return Err(format!(
            "baseline index failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let base_fui = std::fs::read(firmup_firmware::index::index_path(&base))
        .map_err(|e| format!("baseline corpus.fui: {e}"))?;
    let scan_args = |dir: &std::path::Path| {
        vec![
            "scan".to_string(),
            "--index".to_string(),
            dir.display().to_string(),
        ]
    };
    let out = run_child(&scan_args(&base), None)?;
    if !out.status.success() {
        return Err(format!(
            "baseline scan failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let base_findings = findings_of(&out.stdout);

    // The matrix: each crash point, including a kill after every k-th
    // segment, plus the final corpus.fui rename (the (n+1)-th atomic
    // write of the build — n segments come first).
    let mut specs: Vec<(String, u64)> = vec![
        ("durable.after_temp_write:1".to_string(), 0),
        ("durable.before_rename:1".to_string(), 0),
        ("journal.mid_append:1".to_string(), 0),
    ];
    for k in 1..=n as u64 {
        specs.push((format!("index.between_segments:{k}"), k));
    }
    specs.push((format!("durable.before_rename:{}", n + 1), n as u64));

    let mut trials = Vec::new();
    for (spec, expected_reused) in specs {
        let dir = work.join(format!("trial-{}", spec.replace([':', '.'], "_")));
        let crashed = !run_child(&index_args(&dir, &[]), Some(&spec))?
            .status
            .success();
        let metrics = dir.join("resume-metrics.json");
        let resume = run_child(
            &index_args(
                &dir,
                &["--resume", "--metrics-out", metrics.to_str().unwrap_or("")],
            ),
            None,
        )?;
        let resume_ok = resume.status.success();
        let (reused, committed) = if resume_ok {
            read_segment_counters(&metrics).unwrap_or((u64::MAX, u64::MAX))
        } else {
            (u64::MAX, u64::MAX)
        };
        let fsck = run_child(&["fsck".to_string(), dir.display().to_string()], None)?;
        let scan = run_child(&scan_args(&dir), None)?;
        let findings_match = scan.status.success() && findings_of(&scan.stdout) == base_findings;
        let fui_identical = std::fs::read(firmup_firmware::index::index_path(&dir))
            .is_ok_and(|bytes| bytes == base_fui);
        trials.push(CrashTrial {
            spec,
            crashed,
            resume_ok,
            reused,
            committed,
            expected_reused,
            fsck_clean: fsck.status.success(),
            findings_match,
            fui_identical,
        });
    }
    // ---- ingest state machines: index --add and compact ------------------
    //
    // Base = a full build of the first half of the corpus; the second
    // half arrives via `index --add`. The recovery contract under test:
    // rerunning the same command finishes the interrupted publish, and
    // findings (plus, after compact, the corpus.fui bytes themselves)
    // are identical to the uninterrupted full build.
    let n1 = (n / 2).max(1);
    let (base_imgs, add_imgs) = images.split_at(n1);
    let m = add_imgs.len() as u64;
    let sub_index_args =
        |imgs: &[std::path::PathBuf], dir: &std::path::Path, extra: &[&str]| -> Vec<String> {
            let mut v = vec!["index".to_string()];
            v.extend(imgs.iter().map(|p| p.display().to_string()));
            v.extend(["--out".to_string(), dir.display().to_string()]);
            v.extend(["--threads".to_string(), "1".to_string()]);
            v.extend(extra.iter().map(|s| (*s).to_string()));
            v
        };
    // Seed one trial directory with the half-corpus base, then the
    // uninterrupted `--add` reference whose manifest bytes every add
    // trial must reproduce.
    let setup_base = |dir: &std::path::Path| -> Result<(), String> {
        let out = run_child(&sub_index_args(base_imgs, dir, &[]), None)?;
        if !out.status.success() {
            return Err(format!(
                "half-corpus base build failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(())
    };
    let reference = work.join("ingest-reference");
    setup_base(&reference)?;
    let out = run_child(&sub_index_args(add_imgs, &reference, &["--add"]), None)?;
    if !out.status.success() {
        return Err(format!(
            "reference `index --add` failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let reference_manifest = std::fs::read(firmup_firmware::index::manifest_path(&reference))
        .map_err(|e| format!("reference manifest: {e}"))?;

    let mut ingest_trials: Vec<IngestTrial> = Vec::new();
    // Add-machine crash points: mid segment write, mid journal append,
    // after each committed segment, and at the manifest publish rename
    // (the (m+1)-th atomic write — m segment writes come first).
    let mut add_specs: Vec<(String, Option<u64>)> = vec![
        ("durable.after_temp_write:1".to_string(), Some(0)),
        ("journal.mid_append:1".to_string(), Some(0)),
    ];
    for k in 1..=m {
        add_specs.push((format!("index.between_segments:{k}"), Some(k)));
    }
    add_specs.push((format!("durable.before_rename:{}", m + 1), Some(m)));
    for (spec, expected_adopted) in add_specs {
        let dir = work.join(format!("add-{}", spec.replace([':', '.'], "_")));
        setup_base(&dir)?;
        let crashed = !run_child(&sub_index_args(add_imgs, &dir, &["--add"]), Some(&spec))?
            .status
            .success();
        let metrics = dir.join("add-metrics.json");
        let rerun = run_child(
            &sub_index_args(
                add_imgs,
                &dir,
                &["--add", "--metrics-out", metrics.to_str().unwrap_or("")],
            ),
            None,
        )?;
        let rerun_ok = rerun.status.success();
        let adopted = if rerun_ok {
            read_segment_counters(&metrics).map_or(u64::MAX, |(reused, _)| reused)
        } else {
            u64::MAX
        };
        let fsck = run_child(&["fsck".to_string(), dir.display().to_string()], None)?;
        let scan = run_child(&scan_args(&dir), None)?;
        let findings_match = scan.status.success() && findings_of(&scan.stdout) == base_findings;
        let state_match = std::fs::read(firmup_firmware::index::manifest_path(&dir))
            .is_ok_and(|bytes| bytes == reference_manifest);
        ingest_trials.push(IngestTrial {
            stage: "add",
            spec,
            crashed,
            rerun_ok,
            adopted,
            expected_adopted,
            fsck_clean: fsck.status.success(),
            findings_match,
            state_match,
        });
    }
    // Torn-manifest fault: shear the published manifest's tail (the
    // crash `write_manifest` can't produce but a dying disk can), then
    // recover with `fsck --repair` — both live entries are salvageable,
    // so findings must survive intact.
    {
        let dir = work.join("add-torn-manifest");
        setup_base(&dir)?;
        let ok = run_child(&sub_index_args(add_imgs, &dir, &["--add"]), None)?
            .status
            .success();
        let mpath = firmup_firmware::index::manifest_path(&dir);
        let torn_applied = ok
            && std::fs::read(&mpath).is_ok_and(|bytes| {
                bytes.len() > 3 && std::fs::write(&mpath, &bytes[..bytes.len() - 3]).is_ok()
            });
        let repair = run_child(
            &[
                "fsck".to_string(),
                dir.display().to_string(),
                "--repair".to_string(),
            ],
            None,
        )?;
        let fsck = run_child(&["fsck".to_string(), dir.display().to_string()], None)?;
        let scan = run_child(&scan_args(&dir), None)?;
        let findings_match = scan.status.success() && findings_of(&scan.stdout) == base_findings;
        // The repaired manifest re-publishes the same entries at a
        // bumped epoch; entry-for-entry equality is the contract.
        let state_match = std::fs::read(&mpath).is_ok_and(|bytes| {
            let reref = firmup_firmware::index::scan_manifest(&reference_manifest);
            let scan = firmup_firmware::index::scan_manifest(&bytes);
            !scan.torn && scan.entries == reref.entries
        });
        ingest_trials.push(IngestTrial {
            stage: "add",
            spec: "torn-manifest+fsck--repair".to_string(),
            crashed: torn_applied,
            rerun_ok: repair.status.success(),
            adopted: 0,
            expected_adopted: None,
            fsck_clean: fsck.status.success(),
            findings_match,
            state_match,
        });
    }
    // Compact-machine crash points: mid corpus.fui temp write, at the
    // corpus.fui rename, and at the manifest-clear rename (the window
    // where every manifest entry is sealed — readers must skip them and
    // the rerun must finish the publish idempotently).
    for spec in [
        "durable.after_temp_write:1",
        "durable.before_rename:1",
        "durable.before_rename:2",
    ] {
        let dir = work.join(format!("compact-{}", spec.replace([':', '.'], "_")));
        setup_base(&dir)?;
        let ok = run_child(&sub_index_args(add_imgs, &dir, &["--add"]), None)?
            .status
            .success();
        if !ok {
            return Err("compact-trial `index --add` setup failed".into());
        }
        let compact_args = vec!["compact".to_string(), dir.display().to_string()];
        let crashed = !run_child(&compact_args, Some(spec))?.status.success();
        let rerun_ok = run_child(&compact_args, None)?.status.success();
        let fsck = run_child(&["fsck".to_string(), dir.display().to_string()], None)?;
        let scan = run_child(&scan_args(&dir), None)?;
        let findings_match = scan.status.success() && findings_of(&scan.stdout) == base_findings;
        // The compacted base must be byte-identical to the full build,
        // and the manifest must be live-entry free.
        let state_match = std::fs::read(firmup_firmware::index::index_path(&dir))
            .is_ok_and(|bytes| bytes == base_fui)
            && firmup_firmware::index::read_manifest(&dir)
                .is_ok_and(|m| m.is_some_and(|m| m.entries.is_empty()));
        ingest_trials.push(IngestTrial {
            stage: "compact",
            spec: spec.to_string(),
            crashed,
            rerun_ok,
            adopted: 0,
            expected_adopted: None,
            fsck_clean: fsck.status.success(),
            findings_match,
            state_match,
        });
    }

    let report = CrashMatrixReport {
        seed: config.seed,
        images: n,
        baseline_findings: base_findings.len(),
        trials,
        ingest_trials,
    };
    if report.passed() {
        let _ = std::fs::remove_dir_all(&work);
    } else {
        eprintln!(
            "crash matrix: scratch kept for debugging at {}",
            work.display()
        );
    }
    Ok(report)
}

/// `firmup chaos --serve` parameters.
#[derive(Debug, Clone)]
pub struct ServeChaosConfig {
    /// Corpus seed (also names the scratch directory).
    pub seed: u64,
    /// Devices in the generated victim corpus.
    pub devices: usize,
    /// The `firmup` binary to run as the daemon under test.
    pub firmup_bin: std::path::PathBuf,
}

/// One assertion of the serve drill, with evidence for the report.
#[derive(Debug, Clone)]
pub struct ServeChaosStep {
    /// What was asserted.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Observed evidence (status line, body prefix, exit code, ...).
    pub detail: String,
}

/// The serve-stage chaos result: a scripted fault-injection drill
/// against a live daemon.
#[derive(Debug)]
pub struct ServeChaosReport {
    /// Seed the run used.
    pub seed: u64,
    /// One row per assertion, in drill order.
    pub steps: Vec<ServeChaosStep>,
}

impl ServeChaosReport {
    /// Whether every assertion held.
    pub fn passed(&self) -> bool {
        !self.steps.is_empty() && self.steps.iter().all(|s| s.ok)
    }
}

impl fmt::Display for ServeChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "serve chaos drill (seed {:#x}):", self.seed)?;
        for s in &self.steps {
            writeln!(
                f,
                "  {:<44} {:>4}  {}",
                s.name,
                if s.ok { "pass" } else { "FAIL" },
                s.detail
            )?;
        }
        writeln!(
            f,
            "result: {}",
            if self.passed() {
                "PASS — the daemon degraded, never crashed"
            } else {
                "FAIL — a serve invariant was violated"
            }
        )
    }
}

/// Fault-inject a live daemon between SIGHUP reloads and assert it
/// *degrades* instead of crashing: a reload of a corrupted index keeps
/// the old snapshot serving byte-identical findings and surfaces the
/// error through `/readyz`; restoring the index and reloading recovers;
/// SIGTERM drains to exit 0.
///
/// # Errors
///
/// Setup failures only (scratch dir, corpus generation, the daemon not
/// starting at all); assertion *failures* land in the report as failed
/// rows. Unix-only (signals); on other platforms returns an error.
pub fn run_serve_chaos(config: &ServeChaosConfig) -> Result<ServeChaosReport, String> {
    use std::process::Command;
    use std::time::Duration;

    use crate::serve::protocol::http_request;

    if !cfg!(unix) {
        return Err("the serve chaos drill needs unix signals".into());
    }
    let work = std::env::temp_dir().join(format!(
        "firmup-servechaos-{:x}-{}",
        config.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let corpus = generate(&CorpusConfig {
        seed: config.seed,
        devices: config.devices.max(1),
        ..CorpusConfig::tiny()
    });
    let mut images: Vec<String> = Vec::new();
    for (i, img) in corpus.images.iter().enumerate() {
        let path = work.join(format!("{i:03}.fwim"));
        std::fs::write(&path, &img.blob).map_err(|e| format!("{}: {e}", path.display()))?;
        images.push(path.display().to_string());
    }

    let idx = work.join("idx");
    let mut index_args = vec!["index".to_string()];
    index_args.extend(images.iter().cloned());
    index_args.extend(["--out".to_string(), idx.display().to_string()]);
    let out = Command::new(&config.firmup_bin)
        .args(&index_args)
        .output()
        .map_err(|e| format!("spawn firmup index: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "index build failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }

    // Baseline: what a correct scan of this index answers, bytes and all.
    let out = Command::new(&config.firmup_bin)
        .args([
            "scan",
            "--index",
            &idx.display().to_string(),
            "--format",
            "json",
        ])
        .output()
        .map_err(|e| format!("spawn firmup scan: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "baseline scan failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let baseline = out.stdout;

    // The daemon under test.
    let port_file = work.join("port");
    let mut daemon = Command::new(&config.firmup_bin)
        .args([
            "serve",
            "--index",
            &idx.display().to_string(),
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file.display().to_string(),
            "--drain-ms",
            "2000",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn firmup serve: {e}"))?;
    let mut addr = String::new();
    for _ in 0..200 {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            addr = s.trim().to_string();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if addr.is_empty() {
        let _ = daemon.kill();
        return Err("daemon never wrote its port file".into());
    }
    let timeout = Duration::from_secs(30);
    let hup = |pid: u32| {
        let _ = Command::new("kill")
            .args(["-HUP", &pid.to_string()])
            .status();
    };
    let readyz = |want_ready: bool| -> (bool, String) {
        // Reload is asynchronous to the signal: poll until /readyz
        // reflects the wanted state or the clock runs out.
        for _ in 0..100 {
            if let Ok(resp) = http_request(&addr, "GET", "/readyz", None, timeout) {
                let body = String::from_utf8_lossy(&resp.body).into_owned();
                let ready = resp.status == 200;
                if ready == want_ready {
                    return (true, format!("{} {body}", resp.status));
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        match http_request(&addr, "GET", "/readyz", None, timeout) {
            Ok(resp) => (
                false,
                format!("{} {}", resp.status, String::from_utf8_lossy(&resp.body)),
            ),
            Err(e) => (false, format!("readyz: {e}")),
        }
    };
    let scan_matches = || -> (bool, String) {
        match http_request(&addr, "POST", "/scan", Some(b"{}"), timeout) {
            Ok(resp) => (
                resp.status == 200 && resp.body == baseline,
                format!("{} ({} byte body)", resp.status, resp.body.len()),
            ),
            Err(e) => (false, format!("scan: {e}")),
        }
    };
    let mut steps: Vec<ServeChaosStep> = Vec::new();
    let mut step = |name: &'static str, (ok, detail): (bool, String)| {
        steps.push(ServeChaosStep { name, ok, detail });
    };

    step("daemon serves the CLI-identical baseline", scan_matches());

    // Fault injection: corrupt the on-disk index, then ask for a reload.
    let fui = firmup_firmware::index::index_path(&idx);
    let pristine = std::fs::read(&fui).map_err(|e| format!("{}: {e}", fui.display()))?;
    std::fs::write(&fui, b"FUIXgarbage").map_err(|e| format!("{}: {e}", fui.display()))?;
    hup(daemon.id());
    step("failed reload turns /readyz not-ready", readyz(false));
    step(
        "old snapshot keeps serving identical findings",
        scan_matches(),
    );

    // Recovery: restore the index the way `firmup index` writes it.
    firmup_firmware::durable::write_atomic(&fui, &pristine)
        .map_err(|e| format!("{}: {e}", fui.display()))?;
    hup(daemon.id());
    step("reload of the restored index recovers", readyz(true));
    step(
        "recovered daemon still serves identical findings",
        scan_matches(),
    );

    // Graceful drain.
    let _ = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status();
    let mut exit = None;
    for _ in 0..200 {
        if let Some(status) = daemon.try_wait().map_err(|e| format!("wait: {e}"))? {
            exit = status.code();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if exit.is_none() {
        let _ = daemon.kill();
    }
    step(
        "SIGTERM drains to exit 0",
        (exit == Some(0), format!("exit {exit:?}")),
    );

    let report = ServeChaosReport {
        seed: config.seed,
        steps,
    };
    if report.passed() {
        let _ = std::fs::remove_dir_all(&work);
    } else {
        eprintln!(
            "serve chaos: scratch kept for debugging at {}",
            work.display()
        );
    }
    Ok(report)
}
