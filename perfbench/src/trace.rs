//! The traced run: the layers' public library functions called
//! in-process from here, with a span recorded around each call.
//!
//! [`traced_index`] mirrors `firmup index` and [`TracedScanner`]
//! mirrors `firmup::pipeline::run_scan` step for step (arch-sorted
//! groups, queries interned against `corpus.interner`, `SCAN_SHARDS`
//! units, the stable exe-id top-k tie-break), so the traced run must
//! reproduce the program's findings byte for byte — the caller checks.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use firmup::core::canon::{AddrSpace, CanonConfig};
use firmup::core::lift::lift_executable;
use firmup::core::persist::{CorpusIndex, IndexCheckpoint};
use firmup::core::search::{
    merge_outcomes, prefilter_candidates, scan_units, BudgetReason, ScanBudget, ScanUnit,
    SearchConfig, TargetOutcome,
};
use firmup::core::sim::{build_rep, index_elf, ExecutableRep};
use firmup::firmware::corpus::try_build_query;
use firmup::firmware::image::unpack;
use firmup::firmware::index::{image_digest, index_path};
use firmup::firmware::packages::all_cves;
use firmup::isa::Arch;
use firmup::obj::Elf;
use firmup::pipeline::{ScanFinding, ScanOptions, ScanOutput, SCAN_SHARDS};

/// One recorded span: a layer call, the operation it served, and
/// whether it ran on the operation's own thread (`root`) or inside a
/// parallel region another root span covers.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub root: bool,
    pub lane: usize,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span and counter store for one traced run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn record<T>(
        &self,
        name: &'static str,
        op: u64,
        root: bool,
        lane: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span store lock").push(Span {
            name,
            op,
            root,
            lane,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        });
        out
    }

    /// Run `f` as a root span of operation `op`.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.record(name, op, true, 0, f)
    }

    /// Run `f` as a span nested in a root span of `op`, on worker `lane`.
    pub fn child<T>(&self, name: &'static str, op: u64, lane: usize, f: impl FnOnce() -> T) -> T {
        self.record(name, op, false, lane, f)
    }

    /// Add `n` to counter `name`.
    pub fn count(&self, name: &'static str, n: f64) {
        *self
            .counts
            .lock()
            .expect("counter lock")
            .entry(name)
            .or_default() += n;
    }

    /// Total busy milliseconds of every span named `name`.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span store lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .fold(0.0, |a, b| a + b)
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("counter lock")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Milliseconds of operation `op` covered by its root spans.
    pub fn root_ms(&self, op: u64) -> f64 {
        self.spans
            .lock()
            .expect("span store lock")
            .iter()
            .filter(|s| s.op == op && s.root)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .fold(0.0, |a, b| a + b)
    }

    /// Every span as one JSON line each.
    pub fn render_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span store lock");
        spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"op\":{},\"root\":{},\"lane\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}\n",
                    s.name, s.op, s.root, s.lane, s.start_us, s.end_us
                )
            })
            .collect()
    }
}

/// Build an index of `images` (paths relative to `work`) into `out`
/// exactly as `firmup index IMAGES --out OUT --threads T` does: one
/// checkpoint segment per image, then `CorpusIndex::build` + `save`.
pub fn traced_index(
    rec: &Recorder,
    op: u64,
    work: &Path,
    images: &[String],
    out: &Path,
    threads: usize,
) -> Result<(), String> {
    let canon = CanonConfig::default();
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let (mut ckpt, _) = IndexCheckpoint::open(out, false).map_err(|e| e.to_string())?;
    let mut reps: Vec<ExecutableRep> = Vec::new();
    let mut sealed = Vec::new();
    for path in images {
        let bytes = std::fs::read(work.join(path)).map_err(|e| format!("{path}: {e}"))?;
        let digest = image_digest(path, &bytes);
        let unpacked = rec
            .span("firmware.unpack", op, || unpack(&bytes))
            .map_err(|e| format!("{path}: {e}"))?;
        let parts: Vec<(String, Vec<u8>)> = unpacked
            .parts
            .into_iter()
            .map(|p| (format!("{path}:{}", p.name), p.data))
            .collect();
        let seg = rec.span("lift_parts", op, || {
            lift_parts(rec, op, &parts, &canon, threads)
        });
        rec.span("core.persist.commit", op, || ckpt.commit(digest, &seg))
            .map_err(|e| e.to_string())?;
        reps.extend(seg);
        sealed.push(digest);
    }
    let procedures: usize = reps.iter().map(|r| r.procedures.len()).sum();
    let strands: usize = reps.iter().map(ExecutableRep::strand_total).sum();
    let mut corpus = rec.span("core.persist.build", op, || CorpusIndex::build(reps));
    corpus.set_seals(sealed);
    rec.span("core.persist.save", op, || corpus.save(out))
        .map_err(|e| e.to_string())?;
    rec.count("core.lift.procedures", procedures as f64);
    rec.count("core.canon.strands", strands as f64);
    rec.count("core.canon.distinct", corpus.postings.strand_count() as f64);
    let bytes = std::fs::metadata(index_path(out))
        .map_err(|e| e.to_string())?
        .len();
    rec.count("core.persist.bytes", bytes as f64);
    Ok(())
}

/// `firmup::pipeline::lift_parts` with a span around each layer call:
/// parts fan out over `threads` workers; results keep part order and a
/// part that fails to parse or lift is skipped (and counted).
fn lift_parts(
    rec: &Recorder,
    op: u64,
    parts: &[(String, Vec<u8>)],
    canon: &CanonConfig,
    threads: usize,
) -> Vec<ExecutableRep> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ExecutableRep>>> = Mutex::new(vec![None; parts.len()]);
    std::thread::scope(|s| {
        for lane in 0..threads.clamp(1, parts.len().max(1)) {
            let (next, slots) = (&next, &slots);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((id, data)) = parts.get(i) else {
                    break;
                };
                let rep = rec
                    .child("obj.parse", op, lane, || Elf::parse(data))
                    .ok()
                    .and_then(|elf| {
                        let lifted = rec
                            .child("core.lift", op, lane, || lift_executable(&elf))
                            .ok()?;
                        Some(rec.child("core.canon", op, lane, || {
                            build_rep(&lifted, &AddrSpace::from_elf(&elf), canon, id)
                        }))
                    });
                if rep.is_none() {
                    rec.count("core.lift.failed", 1.0);
                }
                slots.lock().expect("lift slots lock")[i] = rep;
            });
        }
    });
    slots
        .into_inner()
        .expect("lift slots lock")
        .into_iter()
        .flatten()
        .collect()
}

type QueryRep = Arc<(ExecutableRep, usize, String)>;

/// The traced twin of `run_scan` plus its query cache and the set of
/// executables already decoded, both kept across calls (one scanner per
/// corpus, as `firmup serve` keeps one per snapshot).
#[derive(Default)]
pub struct TracedScanner {
    cache: HashMap<(String, Arch), Option<QueryRep>>,
    decoded: HashSet<usize>,
}

impl TracedScanner {
    /// Mirror of `run_scan(corpus, opts, &ScanBudget::unlimited(), ..)`
    /// with spans; returns the same `ScanOutput`. Explain records are
    /// not supported.
    pub fn scan(
        &mut self,
        rec: &Recorder,
        op: u64,
        corpus: &CorpusIndex,
        opts: &ScanOptions,
    ) -> Result<ScanOutput, String> {
        assert!(
            !opts.explain,
            "the traced scan does not build explain records"
        );
        rec.span("pipeline.run_scan", op, || {
            self.scan_inner(rec, op, corpus, opts)
        })
    }

    fn scan_inner(
        &mut self,
        rec: &Recorder,
        op: u64,
        corpus: &CorpusIndex,
        opts: &ScanOptions,
    ) -> Result<ScanOutput, String> {
        let canon = CanonConfig::default();
        let budget = ScanBudget::unlimited();
        let mut out = ScanOutput::default();
        let mut arch_groups: Vec<(Arch, Vec<usize>)> = Vec::new();
        for i in 0..corpus.len() {
            let arch = corpus.exe_arch(i);
            match arch_groups.iter_mut().find(|(a, _)| *a == arch) {
                Some((_, members)) => members.push(i),
                None => arch_groups.push((arch, vec![i])),
            }
        }
        arch_groups.sort_by_key(|(a, _)| *a);

        struct Job {
            cve: firmup::firmware::packages::CveSpec,
            query: QueryRep,
            candidates: Vec<usize>,
        }
        let mut jobs: Vec<Job> = Vec::new();
        for cve in all_cves() {
            if opts.cve.as_deref().is_some_and(|c| c != cve.cve) {
                continue;
            }
            for (arch, members) in &arch_groups {
                let entry = self
                    .cache
                    .entry((cve.package.to_string(), *arch))
                    .or_insert_with(|| {
                        let built = rec.child("firmware.query_build", op, 0, || {
                            try_build_query(cve.package, *arch)
                        });
                        let (elf, version) = match built {
                            Ok(q) => q,
                            Err(e) => {
                                out.diagnostics
                                    .push(format!("firmup: query for {}: {e}", cve.cve));
                                return None;
                            }
                        };
                        rec.child("core.query_index", op, 0, || {
                            index_elf(&elf, "query", &canon).ok().and_then(|mut rep| {
                                rep.intern_with(&corpus.interner);
                                rep.find_named(cve.procedure)
                                    .map(|qv| Arc::new((rep, qv, version)))
                            })
                        })
                    });
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
                let candidates: Vec<usize> = if opts.top_k > 0 {
                    let kept: Vec<usize> = rec.child("core.prefilter", op, 0, || {
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
                        r.into_iter()
                            .map(|(i, _)| i)
                            .filter(|&i| corpus.exe_arch(i) == *arch)
                            .take(opts.top_k)
                            .collect()
                    });
                    rec.count("core.prefilter.kept", kept.len() as f64);
                    kept
                } else {
                    members.clone()
                };
                if candidates.is_empty() {
                    continue;
                }
                jobs.push(Job {
                    cve,
                    query,
                    candidates,
                });
            }
        }

        let mut wanted: Vec<usize> = jobs
            .iter()
            .flat_map(|j| j.candidates.iter().copied())
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let fresh = wanted.iter().filter(|i| !self.decoded.contains(i)).count();
        rec.child("core.persist.decode", op, 0, || {
            corpus.ensure_decoded(wanted.iter().copied())
        })
        .map_err(|e| e.to_string())?;
        self.decoded.extend(wanted);
        rec.count("core.persist.reps_decoded", fresh as f64);

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
        let view = corpus.rep_view();
        let per_unit = rec.child("core.games", op, 0, || {
            scan_units(&job_queries, &units, &view, &config, &budget, &|| false)
        });

        rec.child("core.merge", op, 0, || {
            let mut per_job: Vec<Vec<Vec<TargetOutcome>>> =
                jobs.iter().map(|_| Vec::new()).collect();
            for (unit, outcomes) in units.iter().zip(per_unit) {
                per_job[unit.job].push(outcomes);
            }
            let (mut games, mut steps, mut useful_candidates) = (0usize, 0usize, 0usize);
            for (job, job_outcomes) in jobs.iter().zip(per_job) {
                for outcome in merge_outcomes(job_outcomes) {
                    games += 1;
                    let id = outcome.target_id().to_string();
                    match &outcome {
                        TargetOutcome::Poisoned { panic, .. } => {
                            out.diagnostics.push(format!(
                                "firmup: target {id} poisoned while hunting {}: {panic}",
                                job.cve.cve
                            ));
                            out.poisoned += 1;
                            continue;
                        }
                        TargetOutcome::BudgetExceeded { reason, .. } => {
                            out.diagnostics.push(format!(
                                "firmup: target {id} over budget ({reason}) hunting {}",
                                job.cve.cve
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
                    steps += r.steps;
                    if let Some(m) = &r.matched {
                        if opts.top_k > 0 {
                            useful_candidates += 1;
                        }
                        out.findings.push(ScanFinding {
                            cve: job.cve,
                            version: job.query.2.clone(),
                            target: id,
                            addr: m.addr,
                            sim: m.sim,
                            steps: r.steps,
                            explain: None,
                        });
                    }
                }
            }
            rec.count("core.games", games as f64);
            rec.count("core.game_steps", steps as f64);
            rec.count("core.findings", out.findings.len() as f64);
            rec.count("core.prefilter.useful", useful_candidates as f64);
        });
        Ok(out)
    }
}

/// Render `out` as the program prints it (`--format json` stdout, and
/// the serve response body): the findings document plus a newline.
pub fn render(out: &ScanOutput) -> Vec<u8> {
    let mut bytes = out.render_json(false).render().into_bytes();
    bytes.push(b'\n');
    bytes
}
