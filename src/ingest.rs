//! Incremental corpus ingestion — the engine behind `firmup index
//! --add` and `firmup compact`.
//!
//! A prepared corpus grows continuously: new firmware drops arrive
//! after `corpus.fui` was built, and rebuilding the whole index per
//! image does not scale. This module implements LSM-style growth on
//! top of the durable checkpoint machinery:
//!
//! * [`add_images`] lifts each new image into its own CRC'd segment
//!   under `segments/` (committed via `write_atomic` + a journal
//!   append, exactly like a full build's checkpoints), then publishes
//!   the new live-segment set atomically by rewriting the
//!   `segments.fum` manifest. Committed segments are never rewritten.
//!   [`firmup_core::persist::CorpusIndex::open`] unions the base file
//!   with every live segment, so scans see the additions immediately
//!   (and `firmup serve` picks them up on SIGHUP).
//! * [`compact`] folds every live segment into `corpus.fui` and
//!   atomically rewrites it, then publishes an empty manifest. The
//!   base file's `seals` record carries the digest of every folded
//!   image, which closes the crash window between the two writes: a
//!   reader that sees the new base with the old manifest skips the
//!   now-sealed segments instead of counting them twice, and rerunning
//!   `compact` completes the interrupted publish idempotently.
//!
//! Both operations hold the directory's advisory writer lock with a
//! distinct scope (`add` / `compact`), so concurrent writers fail fast
//! with a structured error naming the rival operation.
//!
//! The hard invariant (enforced by `tests/segments.rs` and the chaos
//! crash matrices): any sequence of `--add`, `compact`, and
//! crash+retry yields byte-identical scan findings to a from-scratch
//! `firmup index` over the same image set.

use std::path::{Path, PathBuf};

use firmup_core::error::{FaultCtx, FirmUpError};
use firmup_core::persist::{CorpusIndex, IndexCheckpoint};
use firmup_firmware::durable::{acquire_lock, crash_point, LockOptions, CP_BETWEEN_SEGMENTS};
use firmup_firmware::index::{
    image_digest, manifest_path, read_manifest, write_manifest, IndexError, JournalEntry, Manifest,
};

/// What one [`add_images`] run did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AddReport {
    /// Images newly lifted and committed as segments this run.
    pub added: usize,
    /// Images whose segment a previous (crashed or interrupted) run
    /// committed but never published; adopted into the manifest
    /// without re-lifting.
    pub adopted: usize,
    /// Images already folded into the corpus (sealed in the base or
    /// named by the live manifest); skipped as duplicates.
    pub already_live: usize,
    /// Unreadable or unliftable images skipped with a diagnostic.
    pub skipped: usize,
    /// Executables contributed by the newly lifted images.
    pub executables: usize,
    /// Manifest epoch after publish (the pre-run epoch if interrupted
    /// before publishing).
    pub epoch: u64,
    /// Live segments named by the manifest after publish.
    pub live_segments: usize,
    /// Whether SIGINT stopped the run before the manifest publish —
    /// committed segments are durable; rerun to publish them.
    pub interrupted: bool,
}

/// What one [`compact`] run did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Live segments folded into `corpus.fui` this run (0 when the
    /// run only completed a previously interrupted publish).
    pub folded: usize,
    /// Executables in the compacted corpus.
    pub executables: usize,
    /// Manifest epoch after publish (0 when there was no manifest and
    /// nothing to do).
    pub epoch: u64,
}

fn io_ctx(path: &Path) -> FaultCtx {
    FaultCtx::image(path.display().to_string())
}

/// Open the directory's union view, bootstrapping an empty base
/// `corpus.fui` first when the directory has never been indexed (so
/// `--add` works on a fresh directory).
fn open_or_bootstrap(dir: &Path) -> Result<CorpusIndex, FirmUpError> {
    match CorpusIndex::open(dir) {
        Ok(ix) => Ok(ix),
        Err(FirmUpError::Index {
            source: IndexError::Missing { .. },
            ..
        }) => {
            CorpusIndex::build(Vec::new()).save(dir)?;
            CorpusIndex::open(dir)
        }
        Err(e) => Err(e),
    }
}

/// Append `images` to the corpus at `dir` as per-image segments,
/// without rewriting any committed state: each new image is lifted,
/// written as a CRC'd segment, journaled, and finally published by an
/// atomic manifest rewrite (old live entries + new ones, epoch + 1).
///
/// Duplicate images (already sealed into the base or already live) are
/// skipped; segments committed by a crashed previous run are adopted
/// without re-lifting. A SIGINT stops before the publish — everything
/// committed so far is durable and a rerun adopts it.
///
/// # Errors
///
/// [`FirmUpError::Lock`] when another writer holds the directory;
/// [`FirmUpError::Index`]/[`FirmUpError::Io`] for damaged or
/// unwritable on-disk state. Per-image lift failures are *skipped*
/// (reported on stderr and counted), matching `firmup index`.
pub fn add_images(
    dir: &Path,
    images: &[PathBuf],
    threads: usize,
) -> Result<AddReport, FirmUpError> {
    let _span = firmup_telemetry::span!("index.add");
    std::fs::create_dir_all(dir).map_err(|e| FirmUpError::from(e).in_ctx(io_ctx(dir)))?;
    let lock = acquire_lock(dir, &LockOptions::scoped("add"))?;
    let opened = open_or_bootstrap(dir)?;
    let old_manifest =
        read_manifest(dir).map_err(|e| FirmUpError::from(e).in_ctx(io_ctx(&manifest_path(dir))))?;
    let old_epoch = old_manifest.as_ref().map_or(0, |m| m.epoch);
    // The union's seal list ends with the live segment digests (in
    // manifest order); everything before them was sealed into the base.
    // Keep exactly the live entries — sealed ones are dropped from the
    // manifest we publish, finishing any interrupted compact.
    let live_from = opened.seals().len() - opened.segment_count();
    let live_digests = &opened.seals()[live_from..];
    let mut entries: Vec<JournalEntry> = old_manifest.map_or_else(Vec::new, |m| {
        m.entries
            .into_iter()
            .filter(|e| live_digests.contains(&e.digest))
            .collect()
    });
    // Never wipe: resume-mode open replays the journal and verifies
    // every committed segment instead of clearing them.
    let (mut ckpt, _stats) = IndexCheckpoint::open(dir, true)?;
    let mut report = AddReport {
        epoch: old_epoch,
        live_segments: entries.len(),
        ..AddReport::default()
    };
    for img in images {
        let tag = img.display().to_string();
        let bytes = match std::fs::read(img) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("firmup: skipping image {tag}: {e}");
                firmup_telemetry::incr("scan.errors.io");
                report.skipped += 1;
                continue;
            }
        };
        let digest = image_digest(&tag, &bytes);
        if opened.seals().contains(&digest) || entries.iter().any(|e| e.digest == digest) {
            report.already_live += 1;
        } else if let Some(entry) = ckpt.entry(digest).cloned() {
            firmup_telemetry::incr("index.segments_reused");
            report.adopted += 1;
            entries.push(entry);
        } else {
            match crate::pipeline::lift_image(&tag, &bytes, threads) {
                Ok(reps) => {
                    ckpt.commit(digest, &reps)?;
                    report.executables += reps.len();
                    report.added += 1;
                    entries.push(
                        ckpt.entry(digest)
                            .expect("segment committed a moment ago")
                            .clone(),
                    );
                }
                Err(e) => {
                    eprintln!("firmup: skipping image: {e}");
                    firmup_telemetry::incr(&format!("scan.errors.{}", e.kind()));
                    report.skipped += 1;
                }
            }
        }
        lock.heartbeat();
        crash_point(CP_BETWEEN_SEGMENTS);
        if crate::shutdown::interrupted() {
            report.interrupted = true;
            return Ok(report);
        }
    }
    let manifest = Manifest {
        epoch: old_epoch + 1,
        entries,
    };
    write_manifest(dir, &manifest)
        .map_err(|e| FirmUpError::from(e).in_ctx(io_ctx(&manifest_path(dir))))?;
    firmup_telemetry::incr("index.manifest_published");
    report.epoch = manifest.epoch;
    report.live_segments = manifest.entries.len();
    drop(lock);
    Ok(report)
}

/// Fold every live segment into `corpus.fui` and publish an empty
/// manifest. Two atomic writes, in a crash-safe order:
///
/// 1. rewrite `corpus.fui` with the folded executables and a `seals`
///    record extended by the folded digests;
/// 2. rewrite `segments.fum` with zero entries (epoch + 1).
///
/// A crash between the two leaves a manifest whose every entry is
/// sealed — readers skip them (no double count) and rerunning
/// `compact` finishes the publish. Segment files are never deleted
/// here; they remain verifiable checkpoints (`fsck` reconciles them).
///
/// # Errors
///
/// [`FirmUpError::Lock`] when another writer holds the directory;
/// [`FirmUpError::Index`]/[`FirmUpError::Io`] for damaged or
/// unwritable on-disk state (a missing `corpus.fui` included — run
/// `firmup index` first).
pub fn compact(dir: &Path) -> Result<CompactReport, FirmUpError> {
    let _span = firmup_telemetry::span!("index.compact");
    let lock = acquire_lock(dir, &LockOptions::scoped("compact"))?;
    let old_manifest =
        read_manifest(dir).map_err(|e| FirmUpError::from(e).in_ctx(io_ctx(&manifest_path(dir))))?;
    let Some(old_manifest) = old_manifest else {
        // No manifest: validate the base exists, then report a no-op.
        let ix = CorpusIndex::open(dir)?;
        return Ok(CompactReport {
            folded: 0,
            executables: ix.len(),
            epoch: 0,
        });
    };
    // The fully loaded union *is* the compacted corpus: executables in
    // ingestion order, merged context/postings identical to a
    // from-scratch build, seals extended by the folded digests.
    let index = CorpusIndex::load(dir)?;
    let folded = index.segment_count();
    firmup_telemetry::add("index.segments_folded", folded as u64);
    index.save(dir)?;
    write_manifest(
        dir,
        &Manifest {
            epoch: old_manifest.epoch + 1,
            entries: Vec::new(),
        },
    )
    .map_err(|e| FirmUpError::from(e).in_ctx(io_ctx(&manifest_path(dir))))?;
    firmup_telemetry::incr("index.manifest_published");
    drop(lock);
    Ok(CompactReport {
        folded,
        executables: index.len(),
        epoch: old_manifest.epoch + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmup_core::error::FirmUpError;

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("firmup-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn add_on_fresh_directory_bootstraps_an_empty_base() {
        let dir = temp("bootstrap");
        let report = add_images(&dir, &[], 1).unwrap();
        assert_eq!(report.added, 0);
        assert_eq!(report.epoch, 1);
        let ix = CorpusIndex::open(&dir).unwrap();
        assert!(ix.is_empty());
        assert_eq!(ix.segment_epoch(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_without_manifest_is_a_noop_but_requires_a_base() {
        let dir = temp("noop");
        // No base at all: structured error, not a panic.
        std::fs::create_dir_all(&dir).unwrap();
        let err = compact(&dir).unwrap_err();
        assert!(matches!(err, FirmUpError::Index { .. }), "{err:?}");
        // With a base and no manifest: report a no-op.
        CorpusIndex::build(Vec::new()).save(&dir).unwrap();
        let report = compact(&dir).unwrap();
        assert_eq!(report, CompactReport::default());
        assert!(!manifest_path(&dir).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_add_and_compact_fail_fast_naming_the_rival() {
        let dir = temp("rival");
        CorpusIndex::build(Vec::new()).save(&dir).unwrap();
        let held = acquire_lock(&dir, &LockOptions::scoped("add")).unwrap();
        let err = compact(&dir).unwrap_err();
        assert!(matches!(err, FirmUpError::Lock { .. }), "{err:?}");
        assert!(err.to_string().contains("firmup add"), "{err}");
        drop(held);
        let held = acquire_lock(&dir, &LockOptions::scoped("compact")).unwrap();
        let err = add_images(&dir, &[], 1).unwrap_err();
        assert!(matches!(err, FirmUpError::Lock { .. }), "{err:?}");
        assert!(err.to_string().contains("firmup compact"), "{err}");
        drop(held);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_locks_from_dead_holders_are_stolen_by_both_scopes() {
        let dir = temp("stale");
        CorpusIndex::build(Vec::new()).save(&dir).unwrap();
        // A pid far above any real pid_max: provably dead. `--add`
        // steals a dead `compact` holder's lock and vice versa.
        let lock = dir.join("index.lock");
        std::fs::write(&lock, "pid 4199999999\nscope compact\n").unwrap();
        let report = add_images(&dir, &[], 1).unwrap();
        assert_eq!(report.epoch, 1, "add did not steal the stale lock");
        std::fs::write(&lock, "pid 4199999999\nscope add\n").unwrap();
        compact(&dir).expect("compact did not steal the stale lock");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_images_are_skipped_not_fatal() {
        let dir = temp("skip");
        let report = add_images(&dir, &[PathBuf::from("/definitely/not/there.fwim")], 1).unwrap();
        assert_eq!(report.skipped, 1);
        assert_eq!(report.added, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
