//! `firmup fsck` — offline integrity verification and repair of an
//! index directory.
//!
//! An index directory holds four kinds of durable state: the
//! checkpoint journal (`journal.fuj`), the per-image segments under
//! `segments/`, the live-segment manifest (`segments.fum`) published
//! by `index --add`, and the final `corpus.fui`. fsck verifies all of
//! them — every record CRC is re-computed, every journal entry's
//! segment is read back, every manifest entry's segment is verified
//! against its recorded CRC and executable count — and reports a
//! per-object verdict table. Damaged segments are quarantined (moved
//! into `quarantine/`) so a later `--repair` run, given the source
//! images, re-lifts *only* the images whose checkpoints were lost and
//! rebuilds `corpus.fui` from the surviving plus repaired segments.
//!
//! Multi-segment layouts add three failure classes, all detected and
//! all repairable: a *torn* manifest (a crash mid-rewrite left a
//! salvageable prefix), a manifest entry whose segment is missing,
//! damaged, or truncated (`--repair` truncates the manifest to its
//! longest verifiable prefix), and a *double-committed* entry whose
//! image digest is already sealed into `corpus.fui` — the normal
//! residue of a compact interrupted between its two atomic writes;
//! readers skip such entries, and `--repair` drops them.
//!
//! fsck takes the directory's writer lock (scope `fsck`): it must
//! never race a live `firmup index`, `index --add`, or `compact`.

use std::fmt;
use std::path::{Path, PathBuf};

use firmup_core::error::{FaultCtx, FirmUpError};
use firmup_core::persist::{
    parse_query_record_name, query_record_name, segment_from_bytes, CorpusIndex, IndexCheckpoint,
};
use firmup_firmware::crc::crc32;
use firmup_firmware::durable::{acquire_lock, is_tmp_debris, write_atomic, LockOptions};
use firmup_firmware::index::{
    image_digest, index_path, journal_path, manifest_path, parse_journal, render_journal_entry,
    scan_container, scan_manifest, segments_dir, write_manifest, JournalEntry, Manifest,
    RecordStatus,
};
use firmup_isa::Arch;

use crate::pipeline::{build_queries, persisted_query, query_keys, store_queries, QueryRecordMiss};

/// Subdirectory damaged segments are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What to check and whether to fix it.
#[derive(Debug, Clone, Default)]
pub struct FsckOptions {
    /// Rebuild what verification condemned (requires the source images
    /// for any lost segments).
    pub repair: bool,
    /// Source images, for re-lifting damaged/missing segments.
    pub images: Vec<PathBuf>,
    /// Lift parallelism for repairs (0 = all cores).
    pub threads: usize,
}

/// Verdict for one checked object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Verified intact.
    Ok,
    /// Damaged (and quarantined where applicable).
    Damaged,
    /// Referenced but absent.
    Missing,
    /// Present but unreferenced (warning, not damage).
    Orphan,
    /// Intact but built from other inputs than today's (a `query:*`
    /// record whose digest no longer matches): a warning, not damage —
    /// scans rebuild the query, and `--repair` rewrites the record.
    Stale,
    /// Was damaged or missing; rebuilt by `--repair`.
    Repaired,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Damaged => "DAMAGED",
            Verdict::Missing => "MISSING",
            Verdict::Orphan => "orphan",
            Verdict::Stale => "stale",
            Verdict::Repaired => "repaired",
        }
    }
}

/// One row of the verdict table.
#[derive(Debug, Clone)]
pub struct FsckRow {
    /// What was checked (`journal`, `segment <file>`, `corpus.fui`, or
    /// `corpus.fui record <name>`).
    pub what: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Diagnosis detail (empty when ok).
    pub detail: String,
}

/// Full fsck outcome: the verdict table plus summary counts.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Per-object verdicts, in check order.
    pub rows: Vec<FsckRow>,
    /// Stray `write_atomic` temp files swept.
    pub tmp_swept: usize,
    /// Whether the journal ended in a torn append (trimmed).
    pub torn_tail: bool,
    /// Segments quarantined this run.
    pub quarantined: usize,
    /// Segments rebuilt by `--repair`.
    pub repaired: usize,
}

impl FsckReport {
    fn push(&mut self, what: impl Into<String>, verdict: Verdict, detail: impl Into<String>) {
        self.rows.push(FsckRow {
            what: what.into(),
            verdict,
            detail: detail.into(),
        });
    }

    /// Damaged/missing rows not superseded by a later `Repaired` row
    /// for the same object (the verdict table is a history: a repair
    /// resolves the diagnosis that preceded it). Rebuilding a container
    /// also resolves its sub-objects (`corpus.fui` covers every
    /// `corpus.fui record <name>` row).
    fn unresolved(&self) -> usize {
        let covers = |repaired: &str, what: &str| {
            what == repaired
                || what
                    .strip_prefix(repaired)
                    .is_some_and(|r| r.starts_with(' '))
        };
        self.rows
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                matches!(r.verdict, Verdict::Damaged | Verdict::Missing)
                    && !self.rows[i + 1..].iter().any(|later| {
                        later.verdict == Verdict::Repaired && covers(&later.what, &r.what)
                    })
            })
            .count()
    }

    /// Whether every object is intact (or was repaired): orphans and a
    /// trimmed torn tail are warnings, anything damaged or missing is
    /// not clean.
    pub fn clean(&self) -> bool {
        self.unresolved() == 0
    }

    /// The exit-code taxonomy: [`FsckOutcome::Clean`] (nothing was
    /// wrong), [`FsckOutcome::Repaired`] (damage was found and fully
    /// repaired — the report shows what), or
    /// [`FsckOutcome::Unrepairable`] (damage remains). The first two
    /// exit 0; the last exits 1.
    pub fn outcome(&self) -> FsckOutcome {
        if !self.clean() {
            FsckOutcome::Unrepairable
        } else if self.rows.iter().any(|r| r.verdict == Verdict::Repaired) {
            FsckOutcome::Repaired
        } else {
            FsckOutcome::Clean
        }
    }
}

/// Three-way exit taxonomy of an fsck run — see [`FsckReport::outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckOutcome {
    /// Every object verified intact; nothing was touched.
    Clean,
    /// Damage was found and every piece of it was repaired.
    Repaired,
    /// Damage remains after verification (and repair, if requested).
    Unrepairable,
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.rows.iter().map(|r| r.what.len()).max().unwrap_or(4);
        writeln!(f, "{:<width$}  verdict   detail", "object")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<width$}  {:<8}  {}",
                r.what,
                r.verdict.label(),
                r.detail
            )?;
        }
        let damaged = self.unresolved();
        writeln!(
            f,
            "fsck: {} object(s) checked, {} damaged/missing, {} quarantined, {} repaired{}{}",
            self.rows.len(),
            damaged,
            self.quarantined,
            self.repaired,
            if self.torn_tail {
                ", torn journal tail trimmed"
            } else {
                ""
            },
            if self.tmp_swept > 0 {
                format!(", {} stray tmp file(s) swept", self.tmp_swept)
            } else {
                String::new()
            }
        )?;
        writeln!(
            f,
            "fsck: {}",
            match self.outcome() {
                FsckOutcome::Clean => "clean",
                FsckOutcome::Repaired => "repaired (clean after repair)",
                FsckOutcome::Unrepairable => "NOT clean",
            }
        )
    }
}

fn sweep_tmp(dir: &Path, report: &mut FsckReport) {
    let Ok(listing) = std::fs::read_dir(dir) else {
        return;
    };
    for item in listing.flatten() {
        let name = item.file_name();
        if name.to_str().is_some_and(is_tmp_debris) && std::fs::remove_file(item.path()).is_ok() {
            report.tmp_swept += 1;
        }
    }
}

fn quarantine(dir: &Path, path: &Path, report: &mut FsckReport) {
    let qdir = dir.join(QUARANTINE_DIR);
    let _ = std::fs::create_dir_all(&qdir);
    if let Some(name) = path.file_name() {
        if std::fs::rename(path, qdir.join(name)).is_ok() {
            report.quarantined += 1;
        }
    }
}

/// Verify (and with [`FsckOptions::repair`], rebuild) the index
/// directory `dir`.
///
/// # Errors
///
/// [`FirmUpError::Lock`] when a live writer holds the directory,
/// [`FirmUpError::Io`] on unreadable metadata. Damage to the *index
/// contents* is not an error — it lands in the report.
pub fn run(dir: &Path, opts: &FsckOptions) -> Result<FsckReport, FirmUpError> {
    let _lock = acquire_lock(dir, &LockOptions::scoped("fsck"))?;
    let mut report = FsckReport::default();
    let seg_dir = segments_dir(dir);
    sweep_tmp(dir, &mut report);
    sweep_tmp(&seg_dir, &mut report);

    // Journal: parse, trim a torn tail, verify each entry's segment.
    let journal = journal_path(dir);
    let journal_bytes = match std::fs::read(&journal) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(FirmUpError::from(e).in_ctx(FaultCtx::image(journal.display().to_string())))
        }
    };
    let (entries, torn) = parse_journal(&journal_bytes);
    report.torn_tail = torn;
    let mut valid: Vec<JournalEntry> = Vec::new();
    let mut journal_dirty = torn;
    for entry in entries {
        let seg_path = seg_dir.join(&entry.segment);
        let what = format!("segment {}", entry.segment);
        match std::fs::read(&seg_path) {
            Err(_) => {
                report.push(what, Verdict::Missing, "segment file absent");
                journal_dirty = true;
            }
            Ok(blob) if crc32(&blob) != entry.crc => {
                report.push(what, Verdict::Damaged, "CRC-32 mismatch vs journal");
                quarantine(dir, &seg_path, &mut report);
                journal_dirty = true;
            }
            Ok(blob) => match segment_from_bytes(&blob) {
                Ok(reps) if reps.len() as u32 == entry.executables => {
                    report.push(what, Verdict::Ok, format!("{} executable(s)", reps.len()));
                    valid.push(entry);
                }
                Ok(reps) => {
                    report.push(
                        what,
                        Verdict::Damaged,
                        format!(
                            "journal declares {} executable(s), segment holds {}",
                            entry.executables,
                            reps.len()
                        ),
                    );
                    quarantine(dir, &seg_path, &mut report);
                    journal_dirty = true;
                }
                Err(e) => {
                    report.push(what, Verdict::Damaged, e.to_string());
                    quarantine(dir, &seg_path, &mut report);
                    journal_dirty = true;
                }
            },
        }
    }

    // Live-segment manifest: parse tolerantly, then verify every entry
    // against its segment file. The base file's seals record identifies
    // double-committed entries (a compact crashed between rewriting
    // corpus.fui and clearing the manifest): readers already skip them,
    // so they are dropped, not condemned-with-prejudice. Anything else
    // bad truncates the manifest to its longest verifiable prefix on
    // repair.
    let base_seals: Vec<u64> = std::fs::read(index_path(dir))
        .ok()
        .and_then(|b| CorpusIndex::from_bytes(b).ok())
        .map(|ix| ix.seals().to_vec())
        .unwrap_or_default();
    let manifest_file = manifest_path(dir);
    let manifest_bytes = match std::fs::read(&manifest_file) {
        Ok(b) => Some(b),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            return Err(
                FirmUpError::from(e).in_ctx(FaultCtx::image(manifest_file.display().to_string()))
            )
        }
    };
    let mut manifest_keep: Vec<JournalEntry> = Vec::new();
    let mut manifest_names: Vec<String> = Vec::new();
    let mut manifest_dirty = false;
    let mut manifest_epoch = 0u64;
    if let Some(bytes) = &manifest_bytes {
        let mscan = scan_manifest(bytes);
        manifest_epoch = mscan.epoch.unwrap_or(0);
        if mscan.torn {
            report.push(
                "segments.fum",
                Verdict::Damaged,
                format!(
                    "torn manifest ({} entr{} salvageable)",
                    mscan.entries.len(),
                    if mscan.entries.len() == 1 { "y" } else { "ies" }
                ),
            );
            manifest_dirty = true;
        }
        let mut prefix_intact = true;
        for entry in mscan.entries {
            let what = format!("segments.fum entry {}", entry.segment);
            manifest_names.push(entry.segment.clone());
            if base_seals.contains(&entry.digest) {
                report.push(
                    what,
                    Verdict::Orphan,
                    "double-committed: image already sealed into corpus.fui (readers skip it)",
                );
                manifest_dirty = true; // dropped on repair, but harmless
                continue;
            }
            if !prefix_intact {
                report.push(
                    what,
                    Verdict::Damaged,
                    "beyond a damaged entry (dropped with the prefix on repair)",
                );
                continue;
            }
            let seg_path = seg_dir.join(&entry.segment);
            match std::fs::read(&seg_path) {
                Err(_) => {
                    report.push(what, Verdict::Missing, "live segment file absent");
                    manifest_dirty = true;
                    prefix_intact = false;
                }
                Ok(blob) if crc32(&blob) != entry.crc => {
                    report.push(what, Verdict::Damaged, "CRC-32 mismatch vs manifest");
                    manifest_dirty = true;
                    prefix_intact = false;
                }
                Ok(blob) => match segment_from_bytes(&blob) {
                    Ok(reps) if reps.len() as u32 == entry.executables => {
                        report.push(what, Verdict::Ok, format!("{} executable(s)", reps.len()));
                        manifest_keep.push(entry);
                    }
                    Ok(reps) => {
                        report.push(
                            what,
                            Verdict::Damaged,
                            format!(
                                "manifest declares {} executable(s), segment holds {}",
                                entry.executables,
                                reps.len()
                            ),
                        );
                        manifest_dirty = true;
                        prefix_intact = false;
                    }
                    Err(e) => {
                        report.push(what, Verdict::Damaged, e.to_string());
                        manifest_dirty = true;
                        prefix_intact = false;
                    }
                },
            }
        }
    }

    // Orphan segments: present on disk, referenced by neither the
    // journal nor the live-segment manifest.
    if let Ok(listing) = std::fs::read_dir(&seg_dir) {
        for item in listing.flatten() {
            let name = item.file_name().to_string_lossy().into_owned();
            if !valid.iter().any(|e| e.segment == name) && !manifest_names.contains(&name) {
                report.push(
                    format!("segment {name}"),
                    Verdict::Orphan,
                    "referenced by neither the journal nor the manifest",
                );
            }
        }
    }

    // Repair lost segments from source images, if provided.
    if opts.repair {
        let (mut ckpt, _) = IndexCheckpoint::open(dir, true)?;
        for img in &opts.images {
            let tag = img.display().to_string();
            let bytes = match std::fs::read(img) {
                Ok(b) => b,
                Err(e) => {
                    report.push(format!("image {tag}"), Verdict::Missing, e.to_string());
                    continue;
                }
            };
            let digest = image_digest(&tag, &bytes);
            if ckpt.committed(digest) {
                continue;
            }
            match crate::pipeline::lift_image(&tag, &bytes, opts.threads) {
                Ok(reps) => {
                    let n = reps.len();
                    ckpt.commit(digest, &reps)?;
                    firmup_telemetry::add("fsck.records_repaired", n as u64);
                    report.repaired += 1;
                    report.push(
                        format!(
                            "segment {}",
                            firmup_firmware::index::segment_file_name(digest)
                        ),
                        Verdict::Repaired,
                        format!("re-lifted {n} executable(s) from {tag}"),
                    );
                }
                Err(e) => {
                    report.push(format!("image {tag}"), Verdict::Damaged, e.to_string());
                }
            }
        }
        // Re-read the journal: the checkpoint open above already
        // dropped condemned entries and the repairs appended new ones.
        let bytes = std::fs::read(&journal).unwrap_or_default();
        valid = parse_journal(&bytes).0;
        journal_dirty = false;
        // Rewrite a damaged manifest to its verified prefix (sealed
        // duplicates dropped, epoch bumped so reloads notice).
        if manifest_dirty {
            write_manifest(
                dir,
                &Manifest {
                    epoch: manifest_epoch + 1,
                    entries: manifest_keep.clone(),
                },
            )
            .map_err(|e| {
                FirmUpError::from(e).in_ctx(FaultCtx::image(manifest_file.display().to_string()))
            })?;
            report.repaired += 1;
            report.push(
                "segments.fum",
                Verdict::Repaired,
                format!(
                    "rewritten to {} verified live entr{} at epoch {}",
                    manifest_keep.len(),
                    if manifest_keep.len() == 1 { "y" } else { "ies" },
                    manifest_epoch + 1
                ),
            );
        }
    } else if journal_dirty && !journal_bytes.is_empty() {
        // Rewrite the journal to only the verified entries so the next
        // resume does not re-diagnose the same damage.
        let mut fresh = String::new();
        for e in &valid {
            fresh.push_str(&render_journal_entry(e));
        }
        write_atomic(&journal, fresh.as_bytes()).map_err(|e| {
            FirmUpError::from(e).in_ctx(FaultCtx::image(journal.display().to_string()))
        })?;
    }
    let _ = journal_dirty;

    // corpus.fui: per-record verdicts, then a full typed decode.
    let fui = index_path(dir);
    let mut fui_ok = false;
    match std::fs::read(&fui) {
        Err(_) => report.push("corpus.fui", Verdict::Missing, "index file absent"),
        Ok(blob) if blob.is_empty() => {
            report.push("corpus.fui", Verdict::Damaged, "zero-length file")
        }
        Ok(blob) => match scan_container(&blob) {
            Err(e) => report.push("corpus.fui", Verdict::Damaged, e.to_string()),
            Ok(checks) => {
                let mut damaged = 0usize;
                for c in &checks {
                    // An intact query record gets its verdict from the
                    // typed check below (ok / damaged / stale).
                    if c.status == RecordStatus::Ok && parse_query_record_name(&c.name).is_some() {
                        continue;
                    }
                    let verdict = match c.status {
                        RecordStatus::Ok => Verdict::Ok,
                        _ => {
                            damaged += 1;
                            Verdict::Damaged
                        }
                    };
                    let detail = match c.status {
                        RecordStatus::Ok => format!("{} byte(s)", c.len),
                        RecordStatus::ChecksumMismatch => "CRC-32 mismatch".to_string(),
                        RecordStatus::TruncatedPayload => "payload truncated".to_string(),
                    };
                    report.push(format!("corpus.fui record {}", c.name), verdict, detail);
                }
                if damaged == 0 {
                    let decoded = CorpusIndex::from_bytes(blob)
                        .and_then(|index| index.ensure_all().map(|()| index));
                    match decoded {
                        Ok(index) => {
                            fui_ok = true;
                            check_queries(dir, index, opts, &mut report)?;
                        }
                        Err(e) => report.push("corpus.fui", Verdict::Damaged, e.to_string()),
                    }
                }
            }
        },
    }

    // Rebuild corpus.fui from the (surviving + repaired) segments.
    if opts.repair && !fui_ok {
        let (ckpt, _) = IndexCheckpoint::open(dir, true)?;
        let mut reps = Vec::new();
        let mut complete = true;
        for e in &valid {
            match ckpt.load_segment(e.digest) {
                Ok(mut segment_reps) => reps.append(&mut segment_reps),
                Err(_) => complete = false,
            }
        }
        if complete {
            let mut rebuilt = CorpusIndex::build(reps);
            // The rebuild folds *every* verified segment, so seal their
            // digests and clear the manifest — otherwise readers would
            // union the still-live entries in twice.
            rebuilt.set_seals(valid.iter().map(|e| e.digest).collect());
            let keys = query_keys();
            let built = build_queries(&keys, opts.threads);
            store_queries(&mut rebuilt, &keys, built);
            rebuilt.save(dir)?;
            report.push("corpus.fui", Verdict::Repaired, "rebuilt from segments");
            if manifest_bytes.is_some() {
                write_manifest(
                    dir,
                    &Manifest {
                        epoch: manifest_epoch + 1,
                        entries: Vec::new(),
                    },
                )
                .map_err(|e| {
                    FirmUpError::from(e)
                        .in_ctx(FaultCtx::image(manifest_file.display().to_string()))
                })?;
                report.push(
                    "segments.fum",
                    Verdict::Repaired,
                    "cleared: every live segment folded into the rebuilt corpus.fui",
                );
            }
        } else {
            report.push(
                "corpus.fui",
                Verdict::Damaged,
                "cannot rebuild: segments still missing (pass the source images)",
            );
        }
    }
    Ok(report)
}

/// Give every `query:*` record of the decoded `corpus.fui` its verdict —
/// ok, damaged (the payload fails its checksum or layout) or stale (its
/// digest no longer matches today's build inputs) — and with
/// [`FsckOptions::repair`] rebuild the condemned ones through
/// [`build_queries`] and rewrite `corpus.fui`.
fn check_queries(
    dir: &Path,
    mut index: CorpusIndex,
    opts: &FsckOptions,
    report: &mut FsckReport,
) -> Result<(), FirmUpError> {
    let mut condemned: Vec<(String, Arch)> = Vec::new();
    for name in index.query_names() {
        let what = format!("corpus.fui record {name}");
        let Some((package, arch)) = parse_query_record_name(name) else {
            continue;
        };
        match persisted_query(&index, package, arch) {
            Ok(q) => report.push(what, Verdict::Ok, format!("query {package} {}", q.version)),
            Err(QueryRecordMiss::Stale) => {
                report.push(
                    what,
                    Verdict::Stale,
                    "stale digest: built from other inputs; scans rebuild it",
                );
                condemned.push((package.to_string(), arch));
            }
            Err(QueryRecordMiss::Damaged(e)) => {
                report.push(what, Verdict::Damaged, e.to_string());
                condemned.push((package.to_string(), arch));
            }
            Err(QueryRecordMiss::Absent) => {}
        }
    }
    if !opts.repair || condemned.is_empty() {
        return Ok(());
    }
    let keys: Vec<(&str, Arch)> = condemned.iter().map(|(p, a)| (p.as_str(), *a)).collect();
    let built = build_queries(&keys, opts.threads);
    for (&(package, arch), q) in keys.iter().zip(built) {
        let name = query_record_name(package, arch);
        match q {
            Ok(q) => {
                index.set_query(name.clone(), &q);
                report.repaired += 1;
                report.push(
                    format!("corpus.fui record {name}"),
                    Verdict::Repaired,
                    "query rebuilt",
                );
            }
            Err(e) => report.push(
                format!("corpus.fui record {name}"),
                Verdict::Damaged,
                e.to_string(),
            ),
        }
    }
    index.save(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmup_core::sim::{ExecutableRep, ProcedureRep};
    use firmup_isa::Arch;

    fn rep(id: &str) -> ExecutableRep {
        ExecutableRep {
            id: id.into(),
            arch: Arch::Mips32,
            procedures: vec![ProcedureRep {
                addr: 0x1000,
                name: Some("f".into()),
                strands: vec![1, 4, 9],
                block_count: 1,
                size: 16,
                interned: None,
            }],
        }
    }

    fn setup(tag: &str) -> (PathBuf, IndexCheckpoint) {
        let dir = std::env::temp_dir().join(format!("firmup-fsck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut ckpt, _) = IndexCheckpoint::open(&dir, false).unwrap();
        ckpt.commit(0xa1, &[rep("a")]).unwrap();
        ckpt.commit(0xb2, &[rep("b")]).unwrap();
        CorpusIndex::build(vec![rep("a"), rep("b")])
            .save(&dir)
            .unwrap();
        (dir, ckpt)
    }

    #[test]
    fn pristine_directory_is_clean() {
        let (dir, _ckpt) = setup("clean");
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert!(report.clean(), "{report}");
        assert_eq!(report.quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_segment_is_condemned_and_quarantined() {
        let (dir, _ckpt) = setup("damage");
        let seg = segments_dir(&dir).join(firmup_firmware::index::segment_file_name(0xa1));
        let mut blob = std::fs::read(&seg).unwrap();
        blob[12] ^= 0xff;
        std::fs::write(&seg, &blob).unwrap();
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert!(!report.clean(), "{report}");
        assert_eq!(report.quarantined, 1);
        assert!(dir
            .join(QUARANTINE_DIR)
            .join(firmup_firmware::index::segment_file_name(0xa1))
            .is_file());
        // The journal was rewritten: a second fsck reports the segment
        // gone from the manifest (clean now — the damage is recorded).
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert!(
            !report.rows.iter().any(|r| r.verdict == Verdict::Damaged),
            "{report}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_records_are_ok_stale_or_damaged_and_repair_rebuilds_them() {
        use firmup_firmware::index::{read_container, write_container_v2};
        let (dir, _ckpt) = setup("queries");
        let keys = [
            ("wget", Arch::Mips32),
            ("dbus", Arch::Arm32),
            ("bftpd", Arch::X86),
        ];
        let mut index = CorpusIndex::load(&dir).unwrap();
        let built = build_queries(&keys, 1);
        assert_eq!(store_queries(&mut index, &keys, built), keys.len());
        // dbus: built from "other inputs" — the digest no longer matches.
        let name = |(p, a): (&str, Arch)| query_record_name(p, a);
        let mut stale = index.query(&name(keys[1])).unwrap().unwrap();
        stale.digest ^= 1;
        index.set_query(name(keys[1]), &stale);
        // bftpd: damaged under a valid container CRC.
        let mut records = read_container(&index.to_bytes()).unwrap();
        let r = records
            .iter_mut()
            .find(|r| r.name == name(keys[2]))
            .unwrap();
        let mid = r.payload.len() / 2;
        r.payload[mid] ^= 0x55;
        std::fs::write(index_path(&dir), write_container_v2(&records)).unwrap();

        let verdict = |report: &FsckReport, key| {
            let what = format!("corpus.fui record {}", name(key));
            report
                .rows
                .iter()
                .filter(|r| r.what == what)
                .map(|r| r.verdict)
                .collect::<Vec<_>>()
        };
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert_eq!(verdict(&report, keys[0]), [Verdict::Ok], "{report}");
        assert_eq!(verdict(&report, keys[1]), [Verdict::Stale], "{report}");
        assert_eq!(verdict(&report, keys[2]), [Verdict::Damaged], "{report}");
        assert_eq!(report.outcome(), FsckOutcome::Unrepairable, "{report}");

        let repair = FsckOptions {
            repair: true,
            ..FsckOptions::default()
        };
        let report = run(&dir, &repair).unwrap();
        assert_eq!(report.outcome(), FsckOutcome::Repaired, "{report}");
        assert_eq!(
            verdict(&report, keys[2]),
            [Verdict::Damaged, Verdict::Repaired]
        );
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert_eq!(report.outcome(), FsckOutcome::Clean, "{report}");
        for key in keys {
            assert_eq!(verdict(&report, key), [Verdict::Ok], "{report}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_corpus_record_gets_a_per_record_verdict() {
        let (dir, _ckpt) = setup("record");
        let fui = index_path(&dir);
        let mut blob = std::fs::read(&fui).unwrap();
        let n = blob.len();
        blob[n - 2] ^= 0x20; // inside the last record's payload
        std::fs::write(&fui, &blob).unwrap();
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert!(!report.clean());
        let damaged: Vec<&FsckRow> = report
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Damaged)
            .collect();
        assert_eq!(damaged.len(), 1, "{report}");
        assert!(damaged[0].what.starts_with("corpus.fui record"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_postings2_record_is_individually_checked() {
        let (dir, _ckpt) = setup("v2rec");
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.what == "corpus.fui record postings2" && r.verdict == Verdict::Ok),
            "missing per-record verdict for postings2: {report}"
        );
        // No interner record is written: it is derived from postings2.
        assert!(
            !report.rows.iter().any(|r| r.what.contains("intern")),
            "{report}"
        );
        // Valid-CRC typed damage: rebuild the container around a
        // zero-delta postings2 payload (1 key, 2 sites, second delta 0).
        // Every record CRC verifies clean, so only the full typed decode
        // can condemn the file — the row must land on corpus.fui itself
        // with the codec's diagnosis.
        let fui = index_path(&dir);
        let blob = std::fs::read(&fui).unwrap();
        let mut records = firmup_firmware::index::read_container(&blob).unwrap();
        let mut payload = Vec::new();
        for v in [1u64, 5, 2, 7, 0] {
            firmup_firmware::index::push_varint(&mut payload, v);
        }
        records
            .iter_mut()
            .find(|r| r.name == "postings2")
            .expect("index carries a postings2 record")
            .payload = payload;
        let damaged = firmup_firmware::index::write_container_v2(&records);
        std::fs::write(&fui, &damaged).unwrap();
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert!(!report.clean(), "{report}");
        assert!(
            report.rows.iter().any(|r| r.what == "corpus.fui"
                && r.verdict == Verdict::Damaged
                && r.detail.contains("strictly increasing")),
            "typed decode did not diagnose the codec damage: {report}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_and_version_0_corpus_files_are_damaged_with_the_rebuild_hint() {
        for version in [1u32, 0] {
            let (dir, _ckpt) = setup(&format!("version{version}"));
            let fui = index_path(&dir);
            let mut blob = std::fs::read(&fui).unwrap();
            blob[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&fui, &blob).unwrap();
            let report = run(&dir, &FsckOptions::default()).unwrap();
            assert_eq!(report.outcome(), FsckOutcome::Unrepairable, "{report}");
            assert!(
                report.rows.iter().any(|r| r.what == "corpus.fui"
                    && r.verdict == Verdict::Damaged
                    && r.detail
                        .contains(&format!("unsupported index format version {version}"))
                    && r.detail.contains("rebuild with `firmup index`")),
                "{report}"
            );
            // --repair rebuilds a current-format file from the segments.
            let repair = FsckOptions {
                repair: true,
                ..FsckOptions::default()
            };
            assert_eq!(run(&dir, &repair).unwrap().outcome(), FsckOutcome::Repaired);
            assert_eq!(CorpusIndex::load(&dir).unwrap().len(), 2);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn repair_rebuilds_corpus_from_surviving_segments() {
        let (dir, _ckpt) = setup("rebuild");
        // Smash corpus.fui entirely; segments are intact, so repair
        // rebuilds without any source images.
        std::fs::write(index_path(&dir), b"garbage").unwrap();
        let report = run(
            &dir,
            &FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert!(report.clean(), "{report}");
        let back = CorpusIndex::load(&dir).unwrap();
        assert_eq!(back.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A multi-segment layout: base corpus of `a` (sealed), live
    /// segments `b` (0xb2) and `c` (0xc3) journaled and published by a
    /// manifest at epoch 5.
    fn setup_multiseg(tag: &str) -> (PathBuf, Vec<JournalEntry>) {
        let dir =
            std::env::temp_dir().join(format!("firmup-fsck-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut ckpt, _) = IndexCheckpoint::open(&dir, false).unwrap();
        ckpt.commit(0xb2, &[rep("b")]).unwrap();
        ckpt.commit(0xc3, &[rep("c")]).unwrap();
        let mut base = CorpusIndex::build(vec![rep("a")]);
        base.set_seals(vec![0xa1]);
        base.save(&dir).unwrap();
        let entries = vec![
            ckpt.entry(0xb2).unwrap().clone(),
            ckpt.entry(0xc3).unwrap().clone(),
        ];
        write_manifest(
            &dir,
            &Manifest {
                epoch: 5,
                entries: entries.clone(),
            },
        )
        .unwrap();
        (dir, entries)
    }

    #[test]
    fn intact_multi_segment_layout_is_clean() {
        let (dir, _) = setup_multiseg("clean");
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert_eq!(report.outcome(), FsckOutcome::Clean, "{report}");
        assert!(report
            .rows
            .iter()
            .any(|r| r.what.starts_with("segments.fum entry") && r.verdict == Verdict::Ok));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_is_detected_and_repaired_to_its_prefix() {
        let (dir, _) = setup_multiseg("torn");
        let mpath = manifest_path(&dir);
        let bytes = std::fs::read(&mpath).unwrap();
        std::fs::write(&mpath, &bytes[..bytes.len() - 3]).unwrap();
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert_eq!(report.outcome(), FsckOutcome::Unrepairable, "{report}");
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.what == "segments.fum" && r.detail.contains("torn")),
            "{report}"
        );
        let report = run(
            &dir,
            &FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.outcome(), FsckOutcome::Repaired, "{report}");
        // Both live entries survived the tear; the repaired manifest
        // republishes them at a bumped epoch and reads see all three.
        let ix = CorpusIndex::load(&dir).unwrap();
        assert_eq!(ix.len(), 3, "{report}");
        assert_eq!(ix.segment_epoch(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_committed_manifest_entry_is_a_warning_and_dropped_on_repair() {
        let (dir, _) = setup_multiseg("dup");
        // Simulate a compact that crashed after rewriting corpus.fui
        // but before clearing the manifest: the new base has folded b
        // in (and sealed 0xb2), yet the manifest still lists it live.
        let mut base = CorpusIndex::build(vec![rep("a"), rep("b")]);
        base.set_seals(vec![0xa1, 0xb2]);
        base.save(&dir).unwrap();
        let report = run(&dir, &FsckOptions::default()).unwrap();
        // Readers skip the sealed entry, so this is a warning (orphan),
        // not damage — fsck without --repair stays clean.
        assert_eq!(report.outcome(), FsckOutcome::Clean, "{report}");
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.verdict == Verdict::Orphan && r.detail.contains("double-committed")),
            "{report}"
        );
        let report = run(
            &dir,
            &FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.outcome(), FsckOutcome::Repaired, "{report}");
        let m = firmup_firmware::index::read_manifest(&dir)
            .unwrap()
            .unwrap();
        assert_eq!(m.entries.len(), 1, "only 0xc3 stays live");
        assert_eq!(m.entries[0].digest, 0xc3);
        assert_eq!(CorpusIndex::load(&dir).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_live_segment_truncates_manifest_to_verifiable_prefix() {
        let (dir, entries) = setup_multiseg("prefix");
        // Splice a never-committed segment between the two live ones:
        // [b, ghost, c] — the verifiable prefix is just [b].
        let ghost = JournalEntry {
            digest: 0xdd,
            crc: 0,
            executables: 1,
            segment: firmup_firmware::index::segment_file_name(0xdd),
        };
        write_manifest(
            &dir,
            &Manifest {
                epoch: 5,
                entries: vec![entries[0].clone(), ghost, entries[1].clone()],
            },
        )
        .unwrap();
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert_eq!(report.outcome(), FsckOutcome::Unrepairable, "{report}");
        let report = run(
            &dir,
            &FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.outcome(), FsckOutcome::Repaired, "{report}");
        let m = firmup_firmware::index::read_manifest(&dir)
            .unwrap()
            .unwrap();
        assert_eq!(m.entries.len(), 1, "{report}");
        assert_eq!(m.entries[0].digest, 0xb2);
        // Base (a) + surviving prefix (b): c is journaled but no longer
        // published, exactly the consistent-prefix contract.
        assert_eq!(CorpusIndex::load(&dir).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_contents_are_reported_not_panicked() {
        let dir = std::env::temp_dir().join(format!("firmup-fsck-void-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = run(&dir, &FsckOptions::default()).unwrap();
        assert!(!report.clean(), "an empty dir has no corpus.fui: {report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
