//! Shared pipeline plumbing for the CLI front end and the daemon.
//!
//! Three commands walk the same front half of the pipeline — `scan`
//! (cold path), `index` (per-image checkpointed), and `fsck --repair`
//! (rebuild damaged segments) — so the fault-isolated unpack and the
//! work-stealing parallel lift live here once. Every per-image and
//! per-part step runs under [`isolate`]: a corrupt image or a panicking
//! lift is a structured, skippable error, never a process abort.
//!
//! The back half lives here too: [`run_scan`] executes one complete
//! corpus scan (query build → unit decomposition → work-stealing search
//! → deterministic merge) against an already-acquired [`CorpusIndex`]
//! and returns a structured [`ScanOutput`]. `firmup scan` renders it as
//! text or JSON; `firmup serve` renders the *same* [`ScanOutput`] per
//! request — which is what makes a served response byte-identical to
//! single-threaded CLI output for the same snapshot.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use firmup_core::canon::CanonConfig;
use firmup_core::error::{isolate, FaultCtx, FirmUpError};
use firmup_core::persist::{query_record_name, CorpusIndex, QueryRecord};
use firmup_core::search::{
    merge_outcomes, prefilter_candidates, scan_units, BudgetReason, Explain, ScanBudget, ScanUnit,
    SearchConfig, TargetOutcome,
};
use firmup_core::sim::{index_elf, ExecutableRep};
use firmup_firmware::corpus::{query_source, QuerySource};
use firmup_firmware::durable::fnv1a_64;
use firmup_firmware::image::unpack;
use firmup_firmware::index::IndexError;
use firmup_firmware::packages::{all_cves, CveSpec};
use firmup_isa::Arch;
use firmup_obj::Elf;
use firmup_telemetry::json::Json;

/// One liftable part: attribution context, executable id
/// (`image:part`), and the raw ELF bytes.
pub type PartJob = (FaultCtx, String, Vec<u8>);

/// Unpack one image blob into its part jobs. Each degraded-but-recoverable
/// issue adds one `unpack.issues` and marks an `unpack.issue` instant on
/// the span trace.
///
/// # Errors
///
/// A structured [`FirmUpError`] when the image is unreadable beyond
/// recovery (including a contained panic in the unpacker).
pub fn unpack_parts(tag: &str, bytes: &[u8]) -> Result<Vec<PartJob>, FirmUpError> {
    let img_ctx = FaultCtx::image(tag);
    let u = isolate(img_ctx.clone(), || unpack(bytes).map_err(FirmUpError::from))?;
    for issue in &u.issues {
        firmup_telemetry::incr("unpack.issues");
        firmup_telemetry::trace_instant(
            "unpack.issue",
            &[("image", tag.to_string()), ("issue", format!("{issue:?}"))],
        );
    }
    Ok(u.parts
        .into_iter()
        .map(|part| {
            let ctx = img_ctx.clone().with_package(&part.name);
            let id = format!("{tag}:{}", part.name);
            (ctx, id, part.data)
        })
        .collect())
}

/// Lift + canonicalize each part, fanning out over `threads` scoped
/// worker threads (0 = one per core). Results keep part order; each
/// slot is the part's [`ExecutableRep`] or the structured error that
/// felled it.
pub fn lift_parts(parts: &[PartJob], threads: usize) -> Vec<Result<ExecutableRep, FirmUpError>> {
    let canon = CanonConfig::default();
    par_map(parts, threads, "part", |(ctx, id, data)| {
        isolate(ctx.clone(), || {
            let elf = Elf::parse(data)?;
            index_elf(&elf, id, &canon).map_err(FirmUpError::from)
        })
    })
}

/// Apply `f` to every item over `threads` scoped worker threads (0 = one
/// per core), keeping item order in the result. Each item runs under a
/// `span` span parented on the caller's innermost span and keyed by item
/// index, so the span tree is the same whether an item runs inline or on
/// a worker thread.
fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    span: &'static str,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    let parent = firmup_telemetry::current_ctx();
    let run_one = |i: usize| {
        let _span = match &parent {
            Some(p) => p.child(span, i as u64).enter(),
            None => firmup_telemetry::span!(span),
        };
        f(&items[i])
    };
    if threads <= 1 || items.len() <= 1 {
        return (0..items.len()).map(run_one).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(items.len()).collect());
    std::thread::scope(|scope| {
        for w in 0..threads.min(items.len()) {
            let (run_one, next, slots) = (&run_one, &next, &slots);
            scope.spawn(move || {
                firmup_telemetry::set_worker(Some(w as u32));
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = run_one(i);
                    slots.lock().expect("par_map slots lock")[i] = Some(r);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("par_map slots lock")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Unpack one image and lift every part, keeping only the successful
/// reps (failures are reported to stderr and skipped) — the per-image
/// unit `firmup index` checkpoints and `fsck --repair` rebuilds.
///
/// # Errors
///
/// Only when the image itself is unreadable; per-part failures degrade.
pub fn lift_image(
    tag: &str,
    bytes: &[u8],
    threads: usize,
) -> Result<Vec<ExecutableRep>, FirmUpError> {
    let parts = unpack_parts(tag, bytes)?;
    let mut reps = Vec::with_capacity(parts.len());
    for r in lift_parts(&parts, threads) {
        match r {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                eprintln!("firmup: skipping part: {e}");
                firmup_telemetry::incr(&format!("scan.errors.{}", e.kind()));
            }
        }
    }
    Ok(reps)
}

// ---------------------------------------------------------------------------
// Shared scan core (CLI `scan` and `serve` both render from this)
// ---------------------------------------------------------------------------

/// Number of contiguous corpus shards a scan decomposes into. A fixed
/// constant — never derived from `--threads` — so the (query ×
/// candidate-shard) unit decomposition, and with it the span tree
/// reconstructed from `--trace-out`, is identical at every thread
/// count; 32 keeps stealing granular for typical core counts
/// (`CorpusIndex::shards` clamps to the corpus size).
pub const SCAN_SHARDS: usize = 32;

// ---------------------------------------------------------------------------
// CVE queries: built once (at `firmup index` time, or on a cache miss),
// persisted as `query:<package>:<arch>` records, cached per process.
// ---------------------------------------------------------------------------

/// Version of the query build recipe, folded into every query digest.
/// Bump it whenever compiler, lifter or canonicalizer changes can alter
/// a query's rep without changing any other digest input: every
/// persisted query record then reads as stale and is rebuilt.
pub const QUERY_RECORD_VERSION: u32 = 1;

/// Digest of everything a query build for `arch` consumes: package
/// name, version, generated MinC source, arch, compiler options,
/// canonicalization config, and [`QUERY_RECORD_VERSION`]. A persisted
/// query whose digest differs from the current one is stale.
pub fn query_digest(q: &QuerySource, arch: Arch) -> u64 {
    let options = format!("{:?}", q.options);
    let canon = format!("{:?}", CanonConfig::default());
    fnv1a_64(&[
        &QUERY_RECORD_VERSION.to_le_bytes(),
        q.package.as_bytes(),
        q.version.as_bytes(),
        q.source.as_bytes(),
        arch.name().as_bytes(),
        options.as_bytes(),
        canon.as_bytes(),
    ])
}

/// Every (package, arch) query a scan can ask for: each CVE package, in
/// CVE order, on every architecture.
pub fn query_keys() -> Vec<(&'static str, Arch)> {
    let mut packages: Vec<&'static str> = Vec::new();
    for cve in all_cves() {
        if !packages.contains(&cve.package) {
            packages.push(cve.package);
        }
    }
    packages
        .into_iter()
        .flat_map(|p| Arch::all().into_iter().map(move |a| (p, a)))
        .collect()
}

/// Compile, lift and canonicalize the query for every key, over
/// `threads` scoped workers (0 = one per core). Results keep key order;
/// a failed build (unknown package, lift error, contained panic) is the
/// structured error.
pub fn build_queries(
    keys: &[(&str, Arch)],
    threads: usize,
) -> Vec<Result<QueryRecord, FirmUpError>> {
    par_map(keys, threads, "query", |&(package, arch)| {
        isolate(FaultCtx::image("query").with_package(package), || {
            let q = query_source(package)?;
            let rep = index_elf(&q.compile(arch), "query", &CanonConfig::default())?;
            Ok(QueryRecord {
                digest: query_digest(&q, arch),
                version: q.version.to_string(),
                rep,
            })
        })
    })
}

/// Store each successfully built query of `keys` (the output of
/// [`build_queries`] over the same keys) into `corpus` as its
/// `query:<package>:<arch>` record; returns how many were stored. A
/// failure is reported to stderr and skipped — scans rebuild a missing
/// record.
pub fn store_queries(
    corpus: &mut CorpusIndex,
    keys: &[(&str, Arch)],
    built: Vec<Result<QueryRecord, FirmUpError>>,
) -> usize {
    let mut stored = 0;
    for (&(package, arch), q) in keys.iter().zip(built) {
        match q {
            Ok(q) => {
                corpus.set_query(query_record_name(package, arch), &q);
                stored += 1;
            }
            Err(e) => eprintln!("firmup: query {package} on {arch}: {e}"),
        }
    }
    stored
}

/// Why a persisted query record could not be used.
#[derive(Debug)]
pub enum QueryRecordMiss {
    /// The index carries no record for the key.
    Absent,
    /// The record does not decode (container CRC, checksum, layout).
    Damaged(IndexError),
    /// The record decodes but was built from other inputs than the
    /// current build would use (digest or version mismatch).
    Stale,
}

/// The persisted query for (`package`, `arch`), if `corpus` carries a
/// record for it that decodes and whose digest matches a build from
/// today's inputs (recomputing the digest only generates the source —
/// microseconds, no compilation).
///
/// # Errors
///
/// The [`QueryRecordMiss`] that rules the record out.
pub fn persisted_query(
    corpus: &CorpusIndex,
    package: &str,
    arch: Arch,
) -> Result<QueryRecord, QueryRecordMiss> {
    let record = corpus
        .query(&query_record_name(package, arch))
        .ok_or(QueryRecordMiss::Absent)?
        .map_err(QueryRecordMiss::Damaged)?;
    let current = query_source(package).map_err(|_| QueryRecordMiss::Stale)?;
    if record.digest != query_digest(&current, arch) || record.version != current.version {
        return Err(QueryRecordMiss::Stale);
    }
    Ok(record)
}

/// A compiled CVE query: the query rep, the index of the vulnerable
/// procedure inside it, and the vulnerable package version string.
type QueryRep = Arc<(ExecutableRep, usize, String)>;

/// Cache of compiled CVE queries keyed by (package, arch). Query
/// compilation is corpus-independent, so one cache can serve every scan
/// in a process — the CLI builds a fresh one per run, `firmup serve`
/// shares one across all requests. A miss is filled from the corpus's
/// persisted query record when it has a current one, else by a fresh
/// build. A failed build is cached as `None` (and reported once via
/// [`ScanOutput::diagnostics`]) so a broken package is not recompiled
/// per request.
///
/// An entry caches the vulnerable-procedure index of the CVE that filled
/// it, so a later CVE of the same package hunts that procedure too (the
/// known defect described under "Known defect" in perfbench/METRICS.md).
/// It is kept as is: fixing it changes findings, and the benchmark's
/// traced scan mirrors it.
#[derive(Default)]
pub struct QueryCache {
    entries: Mutex<HashMap<(String, Arch), Option<QueryRep>>>,
}

/// Fill every (package, arch) entry the `cves` × `archs` jobs need that
/// `cache` lacks: from `corpus`'s persisted query records first, the
/// rest through [`build_queries`] — outside the cache lock, so a
/// concurrent request is never blocked behind a compile. Each entry
/// resolves the procedure of the first CVE that needs it.
fn fill_query_cache(
    corpus: &CorpusIndex,
    cves: &[CveSpec],
    archs: &[Arch],
    cache: &QueryCache,
    threads: usize,
    out: &mut ScanOutput,
) {
    let mut missing: Vec<(CveSpec, Arch)> = Vec::new();
    {
        let entries = cache.entries.lock().expect("query cache lock");
        for cve in cves {
            for &arch in archs {
                if !entries.contains_key(&(cve.package.to_string(), arch))
                    && !missing
                        .iter()
                        .any(|(c, a)| c.package == cve.package && *a == arch)
                {
                    missing.push((*cve, arch));
                }
            }
        }
    }
    if missing.is_empty() {
        return;
    }
    let persisted: Vec<Option<QueryRecord>> = missing
        .iter()
        .map(
            |(cve, arch)| match persisted_query(corpus, cve.package, *arch) {
                Ok(q) => Some(q),
                Err(QueryRecordMiss::Absent) => None,
                Err(_) => {
                    firmup_telemetry::incr("scan.query_records_rejected");
                    None
                }
            },
        )
        .collect();
    let to_build: Vec<(&str, Arch)> = missing
        .iter()
        .zip(&persisted)
        .filter(|(_, p)| p.is_none())
        .map(|((cve, arch), _)| (cve.package, *arch))
        .collect();
    out.queries_built += to_build.len();
    firmup_telemetry::add("scan.queries_built", to_build.len() as u64);
    firmup_telemetry::add(
        "scan.queries_loaded",
        (missing.len() - to_build.len()) as u64,
    );
    let mut built = build_queries(&to_build, threads).into_iter();
    let mut filled = Vec::with_capacity(missing.len());
    for ((cve, arch), persisted) in missing.into_iter().zip(persisted) {
        let query = persisted.map_or_else(|| built.next().expect("one build per key"), Ok);
        let entry = match query {
            Err(e) => Err(format!("firmup: query for {}: {e}", cve.cve)),
            Ok(QueryRecord {
                mut rep, version, ..
            }) => {
                // Intern against the current corpus snapshot up front:
                // a fresh query must not take the re-intern clone in
                // `run_scan` (`rep.clones` is pinned flat — and zero —
                // as the corpus grows).
                rep.intern_with(&corpus.interner);
                match rep.find_named(cve.procedure) {
                    Some(qv) => Ok(Arc::new((rep, qv, version))),
                    None => Err(format!(
                        "firmup: query for {}: procedure {} not found in the {} {} query",
                        cve.cve, cve.procedure, cve.package, arch
                    )),
                }
            }
        };
        let entry = match entry {
            Ok(query) => Some(query),
            Err(line) => {
                firmup_telemetry::incr("scan.errors.query");
                out.diagnostics.push(line);
                None
            }
        };
        filled.push(((cve.package.to_string(), arch), entry));
    }
    let mut entries = cache.entries.lock().expect("query cache lock");
    for (key, entry) in filled {
        // A concurrent request may have filled the key meanwhile; keep
        // whichever landed first.
        entries.entry(key).or_insert(entry);
    }
}

/// One scan job: a built CVE query and the candidate targets it plays
/// against. The query rep lives behind an `Arc` shared with the cache —
/// an [`ExecutableRep`] is never cloned on the scan path.
struct ScanJob {
    cve: CveSpec,
    query: QueryRep,
    candidates: Vec<usize>,
    /// Full prefilter ranking `(corpus index, overlap score)` kept for
    /// explain provenance (None when explain is off).
    prefilter: Option<Vec<(usize, f64)>>,
}

/// What one scan should hunt and how hard.
#[derive(Clone, Debug, Default)]
pub struct ScanOptions {
    /// Restrict to one CVE id (`--cve`); `None` hunts every built-in.
    pub cve: Option<String>,
    /// Prefilter each query to the K most strand-overlapping
    /// executables before playing the game (0 = play everything).
    pub top_k: usize,
    /// Worker threads for the work-stealing executor (0 = all cores).
    /// Findings are byte-identical for every value.
    pub threads: usize,
    /// Attach an [`Explain`] provenance record to every finding.
    pub explain: bool,
}

/// One confirmed finding, with everything both renderers (CLI text/JSON
/// and the serve response) need.
#[derive(Clone, Debug)]
pub struct ScanFinding {
    /// The CVE query that matched.
    pub cve: CveSpec,
    /// Vulnerable package version string from the query build.
    pub version: String,
    /// Target executable id (`image:part`).
    pub target: String,
    /// Address of the matched procedure inside the target.
    pub addr: u32,
    /// Similarity score of the match.
    pub sim: usize,
    /// Back-and-forth game steps played.
    pub steps: usize,
    /// Provenance record (only when [`ScanOptions::explain`] is set).
    pub explain: Option<Explain>,
}

impl ScanFinding {
    /// The finding as one JSON object (the element shape of the CLI's
    /// `--format json` `findings` array and of serve responses).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("cve".into(), Json::Str(self.cve.cve.to_string())),
            (
                "procedure".into(),
                Json::Str(self.cve.procedure.to_string()),
            ),
            ("package".into(), Json::Str(self.cve.package.to_string())),
            ("version".into(), Json::Str(self.version.clone())),
            ("target".into(), Json::Str(self.target.clone())),
            ("addr".into(), Json::Num(f64::from(self.addr))),
            ("sim".into(), Json::Num(self.sim as f64)),
            ("steps".into(), Json::Num(self.steps as f64)),
        ];
        if let Some(ex) = &self.explain {
            obj.push(("explain".into(), ex.to_json()));
        }
        Json::Obj(obj)
    }
}

/// Structured result of one whole-corpus scan: deterministically merged
/// findings plus degradation counts and human-readable diagnostics.
#[derive(Clone, Debug, Default)]
pub struct ScanOutput {
    /// Confirmed findings in deterministic merge order (sim descending,
    /// target id, address — never arrival order).
    pub findings: Vec<ScanFinding>,
    /// Targets whose work panicked (the unwind was contained).
    pub poisoned: usize,
    /// Targets degraded by a budget bound.
    pub over_budget: usize,
    /// Whether the whole-scan deadline fired at least once.
    pub saw_scan_deadline: bool,
    /// Whether the step budget fired at least once.
    pub saw_step_budget: bool,
    /// Human-readable degradation lines (poisoned targets, over-budget
    /// targets, query-build failures), for stderr.
    pub diagnostics: Vec<String>,
    /// Query-cache misses filled by compiling the query (the rest came
    /// from the corpus's persisted `query:*` records).
    pub queries_built: usize,
}

impl ScanOutput {
    /// Render the scan as the canonical findings document — the exact
    /// JSON the CLI prints on stdout under `--format json` and the body
    /// `firmup serve` returns, byte-identical for the same corpus
    /// snapshot and options at any thread count.
    pub fn render_json(&self, interrupted: bool) -> Json {
        Json::Obj(vec![
            (
                "findings".into(),
                Json::Arr(self.findings.iter().map(ScanFinding::to_json).collect()),
            ),
            ("total".into(), Json::Num(self.findings.len() as f64)),
            ("poisoned".into(), Json::Num(self.poisoned as f64)),
            ("over_budget".into(), Json::Num(self.over_budget as f64)),
            ("interrupted".into(), Json::Bool(interrupted)),
        ])
    }
}

/// Phase 1 of [`run_scan`]: one job per (CVE, arch group) whose query
/// is available, with its candidate targets. A CVE whose query cannot
/// be built, or lacks the vulnerable procedure, yields a diagnostic and
/// no job.
fn plan_jobs(
    corpus: &CorpusIndex,
    cves: Vec<CveSpec>,
    opts: &ScanOptions,
    cache: &QueryCache,
    out: &mut ScanOutput,
) -> Vec<ScanJob> {
    // Group targets by architecture: each (CVE, arch) pair is one job.
    // Identity metadata only — no executable payload is decoded here.
    let mut arch_groups: Vec<(Arch, Vec<usize>)> = Vec::new();
    for i in 0..corpus.len() {
        let arch = corpus.exe_arch(i);
        match arch_groups.iter_mut().find(|(a, _)| *a == arch) {
            Some((_, members)) => members.push(i),
            None => arch_groups.push((arch, vec![i])),
        }
    }
    // Groups are discovered in executable order, which an `index --add`
    // history is free to permute. Sort by arch so the job list — and
    // with it the findings stream — is a pure function of corpus
    // content, not of ingestion order.
    arch_groups.sort_by_key(|(a, _)| *a);

    let archs: Vec<Arch> = arch_groups.iter().map(|(a, _)| *a).collect();
    fill_query_cache(corpus, &cves, &archs, cache, opts.threads, out);
    let mut jobs: Vec<ScanJob> = Vec::new();
    for cve in cves {
        for (arch, members) in &arch_groups {
            let key = (cve.package.to_string(), *arch);
            let mut entries = cache.entries.lock().expect("query cache lock");
            let Some(entry) = entries.get_mut(&key) else {
                continue;
            };
            // Re-intern the cached query against the *current*
            // corpus snapshot: the cache outlives hot reloads, and
            // a stale interner token would silently demote the
            // whole scan to the hash-compare slow path (never to a
            // wrong answer — token mismatches fall back). One rep
            // clone per (package, arch, corpus *generation*) — a
            // hot-reload event, never a function of corpus size.
            if let Some(q) = entry.as_mut() {
                let tok = corpus.interner.token();
                let have =
                    q.0.procedures
                        .first()
                        .and_then(|p| p.interned.as_ref())
                        .map(|i| i.token);
                if have != Some(tok) {
                    let mut rep = q.0.clone();
                    rep.intern_with(&corpus.interner);
                    *q = Arc::new((rep, q.1, q.2.clone()));
                }
            }
            let Some(query) = entry.clone() else {
                continue;
            };
            drop(entries);
            // The full overlap ranking serves two masters: top-k
            // candidate selection and explain provenance (rank /
            // score / pool). Computed once, unconditionally ranked
            // (k = 0) so explain records are identical with and
            // without top-k trimming. Score ties are re-broken on
            // the executable's stable id: the raw postings index
            // reflects ingestion order, which an `index --add`
            // history is free to permute, and the top-k cut must
            // land identically for every such history.
            let ranked: Option<Vec<(usize, f64)>> = (opts.top_k > 0 || opts.explain).then(|| {
                let mut r = prefilter_candidates(
                    &query.0.procedures[query.1],
                    &corpus.postings,
                    Some(&corpus.context),
                    0,
                );
                r.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| corpus.exe_id(a.0).cmp(corpus.exe_id(b.0)))
                });
                r
            });
            let candidates: Vec<usize> = if opts.top_k > 0 {
                ranked
                    .as_deref()
                    .unwrap_or_default()
                    .iter()
                    .map(|&(i, _)| i)
                    .filter(|&i| corpus.exe_arch(i) == *arch)
                    .take(opts.top_k)
                    .collect()
            } else {
                members.clone()
            };
            if candidates.is_empty() {
                continue;
            }
            jobs.push(ScanJob {
                cve,
                query,
                candidates,
                prefilter: if opts.explain { ranked } else { None },
            });
        }
    }
    jobs
}

/// Execute one complete scan against an acquired corpus: fetch the CVE
/// queries (from `cache`, else the corpus's persisted `query:*` records,
/// else a fresh build), decompose candidates along the index's
/// [`SCAN_SHARDS`] shard boundaries into fine-grained work units, run
/// them all in one work-stealing pass sharing `budget`, and merge the
/// outcomes deterministically. `stop` is polled at unit boundaries (the
/// cooperative-cancel path behind `^C` and serve's drain deadline).
///
/// On a lazily opened index only the union of every job's candidates is
/// decoded (batched, before the parallel pass), so with `--top-k` the
/// per-scan decode cost tracks the candidate set, not the corpus.
///
/// Every per-finding `finding` telemetry event is emitted here, under
/// whatever span/trace context the caller has entered — `firmup serve`
/// enters a per-request root so concurrent scans trace disjointly.
///
/// # Errors
///
/// A damaged executable payload in a lazily opened index surfaces as
/// the structured [`FirmUpError::Index`] the decode diagnosed (callers
/// add the index path context).
pub fn run_scan(
    corpus: &CorpusIndex,
    opts: &ScanOptions,
    budget: &ScanBudget,
    cache: &QueryCache,
    stop: &(dyn Fn() -> bool + Sync),
) -> Result<ScanOutput, FirmUpError> {
    let mut out = ScanOutput::default();

    // Phase 1 — build the job list serially: fetch one query per
    // (package, arch) and select its candidates (whole arch group, or
    // top-k by weighted strand overlap from the postings table).
    let cves: Vec<CveSpec> = all_cves()
        .into_iter()
        .filter(|cve| opts.cve.as_deref().is_none_or(|f| cve.cve == f))
        .collect();
    let jobs = {
        let _span = firmup_telemetry::span!("queries");
        plan_jobs(corpus, cves, opts, cache, &mut out)
    };

    // Phase 2 — decode the union of every job's candidates (a no-op on
    // built or fully loaded indexes; on opened ones this is the only
    // place executable payloads are read, batched so the parallel pass
    // below borrows infallibly), then decompose candidate lists along the index's
    // shard boundaries into fine-grained (query × candidate-shard) work
    // units and execute them all in one work-stealing pass sharing a
    // single scan-wide budget.
    {
        let _span = firmup_telemetry::span!("decode");
        let mut wanted: Vec<usize> = jobs
            .iter()
            .flat_map(|j| j.candidates.iter().copied())
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        corpus.ensure_decoded(wanted)?;
    }
    let shards = corpus.shard_ranges(SCAN_SHARDS);
    let mut units: Vec<ScanUnit> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        for shard in &shards {
            let targets: Vec<usize> = job
                .candidates
                .iter()
                .copied()
                .filter(|i| shard.contains(i))
                .collect();
            if !targets.is_empty() {
                units.push(ScanUnit { job: j, targets });
            }
        }
    }
    let job_queries: Vec<(&ExecutableRep, usize)> =
        jobs.iter().map(|j| (&j.query.0, j.query.1)).collect();
    let config = SearchConfig {
        context: Some(corpus.context.clone()),
        threads: opts.threads,
        ..SearchConfig::default()
    };
    let corpus_view = corpus.rep_view();
    let per_unit = scan_units(&job_queries, &units, &corpus_view, &config, budget, stop);

    // Phase 3 — regroup outcomes per job and merge deterministically:
    // findings rank on (sim, target id, address), never arrival order,
    // so any thread count yields byte-identical findings.
    let mut per_job: Vec<Vec<Vec<TargetOutcome>>> = jobs.iter().map(|_| Vec::new()).collect();
    for (unit, outcomes) in units.iter().zip(per_unit) {
        per_job[unit.job].push(outcomes);
    }
    // Resolve a finding's target id back to its corpus slot, for
    // explain provenance (strand counts, prefilter rank).
    let target_index: HashMap<&str, usize> =
        (0..corpus.len()).map(|i| (corpus.exe_id(i), i)).collect();
    for (job, job_outcomes) in jobs.iter().zip(per_job) {
        let cve = &job.cve;
        for outcome in merge_outcomes(job_outcomes) {
            let id = outcome.target_id().to_string();
            match &outcome {
                TargetOutcome::Poisoned { panic, .. } => {
                    out.diagnostics.push(format!(
                        "firmup: target {id} poisoned while hunting {}: {panic}",
                        cve.cve
                    ));
                    out.poisoned += 1;
                    continue;
                }
                TargetOutcome::BudgetExceeded { reason, .. } => {
                    out.diagnostics.push(format!(
                        "firmup: target {id} over budget ({reason}) hunting {}",
                        cve.cve
                    ));
                    out.over_budget += 1;
                    match reason {
                        BudgetReason::ScanDeadline => out.saw_scan_deadline = true,
                        BudgetReason::StepBudget => out.saw_step_budget = true,
                        _ => {}
                    }
                }
                TargetOutcome::Completed(_) => {}
            }
            let Some(r) = outcome.result() else { continue };
            if let Some(m) = &r.matched {
                let explain_rec = if opts.explain {
                    target_index.get(id.as_str()).map(|&ti| {
                        let mut ex = Explain::for_match(
                            &job.query.0,
                            job.query.1,
                            corpus.get(ti),
                            m,
                            r,
                            &config,
                        );
                        if let Some(pf) = &job.prefilter {
                            if let Some(pos) = pf.iter().position(|&(i, _)| i == ti) {
                                ex = ex.with_prefilter(pos + 1, pf[pos].1, pf.len());
                            }
                        }
                        ex
                    })
                } else {
                    None
                };
                out.findings.push(ScanFinding {
                    cve: *cve,
                    version: job.query.2.clone(),
                    target: id,
                    addr: m.addr,
                    sim: m.sim,
                    steps: r.steps,
                    explain: explain_rec,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmup_firmware::corpus::{generate, CorpusConfig};

    #[test]
    fn lift_image_produces_ordered_reps_and_degrades_on_garbage() {
        let corpus = generate(&CorpusConfig::tiny());
        let img = &corpus.images[0];
        let reps = lift_image("img0", &img.blob, 2).unwrap();
        assert!(!reps.is_empty());
        // Part order is preserved and ids carry the tag.
        assert!(reps.iter().all(|r| r.id.starts_with("img0:")));
        let serial = lift_image("img0", &img.blob, 1).unwrap();
        assert_eq!(reps, serial, "parallel lift must match serial order");
        // Total garbage is a structured error, not a panic.
        assert!(lift_image("junk", &[0u8; 16], 1).is_err());
    }

    #[test]
    fn a_cve_naming_a_missing_procedure_is_a_diagnostic_not_a_job() {
        firmup_telemetry::enable();
        let corpus = generate(&CorpusConfig::tiny());
        let reps = lift_image("img0", &corpus.images[0].blob, 1).unwrap();
        let index = CorpusIndex::build(reps);
        let real = all_cves()[0];
        let bogus = CveSpec {
            cve: "CVE-0000-0000",
            procedure: "no_such_procedure",
            ..real
        };
        let mut out = ScanOutput::default();
        let jobs = plan_jobs(
            &index,
            vec![bogus],
            &ScanOptions::default(),
            &QueryCache::default(),
            &mut out,
        );
        assert!(jobs.is_empty(), "a job was planned for a missing procedure");
        assert!(!out.diagnostics.is_empty());
        assert!(
            out.diagnostics
                .iter()
                .all(|d| d.contains("CVE-0000-0000") && d.contains("no_such_procedure")),
            "{:?}",
            out.diagnostics
        );
        assert!(firmup_telemetry::counter("scan.errors.query").get() >= 1);
        // The same package with its real procedure does plan jobs.
        let mut out = ScanOutput::default();
        let jobs = plan_jobs(
            &index,
            vec![real],
            &ScanOptions::default(),
            &QueryCache::default(),
            &mut out,
        );
        assert!(!jobs.is_empty() && out.diagnostics.is_empty());
    }
}
