//! Typed persistence of the strand-hash corpus index — the `firmup
//! index` artifact.
//!
//! [`CorpusIndex`] is everything a scan needs *after* the expensive
//! unpack → parse → lift → canonicalize front half of the pipeline:
//! every target's [`ExecutableRep`] (procedure metadata + canonical
//! strand hashes), the trained [`GlobalContext`], and an inverted
//! [`StrandPostings`] table for candidate prefiltering. `firmup index
//! IMAGE... --out DIR` builds and saves one; `firmup scan --index DIR`
//! opens it and goes straight to the back-and-forth game.
//!
//! This module owns the *typed* encoding — how reps, context, and
//! postings become record payloads. The byte-level container (magic,
//! format version, per-record CRC-32, truncation-safe reads) is
//! [`firmup_firmware::index`] ("FUIX", format version 2 only); see
//! ARCHITECTURE.md §4 for the full format specification.
//!
//! Record names within the container:
//!
//! * `meta` — executable count (u32);
//! * `seals` — digests of the images folded into this file (omitted
//!   when empty); readers skip manifest segments whose digest is
//!   sealed, which is what makes `firmup compact`'s two-file publish
//!   crash-safe (see ARCHITECTURE.md §4.9);
//! * `exemeta` — per-executable id + arch, decodable without touching
//!   any `exe:<i>` payload (what makes loads lazy);
//! * `exe:<i>` — the i-th [`ExecutableRep`];
//! * `query:<package>:<arch>` — a prebuilt CVE query ([`QueryRecord`]),
//!   written by `firmup index` (omitted when none were built); a cache
//!   of a pure function of its inputs, so an absent, stale or damaged
//!   one costs a rebuild, never an answer (ARCHITECTURE.md §4.11);
//! * `context` — the [`GlobalContext`] document frequencies;
//! * `postings2` — the [`StrandPostings`] table, varint-delta
//!   compressed.
//!
//! The corpus [`StrandInterner`] is not stored: its hash list is the
//! sorted set of every strand in the corpus, which is exactly the
//! `postings2` key set, so every reader derives it from there.
//!
//! ## Multi-segment layouts
//!
//! An index directory may additionally carry a live-segment manifest
//! (`segments.fum`) naming per-image segments under `segments/` that
//! were appended by `firmup index --add` *after* `corpus.fui` was last
//! written. [`CorpusIndex::open`] / [`CorpusIndex::load`] union the
//! base file with every live (unsealed) segment in manifest order:
//! executables concatenate, document frequencies add, and posting
//! lists merge with the segment's local executable positions rebased
//! by the running total — so the merged structures are exactly what a
//! from-scratch build over the same image set would produce.
//!
//! Unknown record names (such as the `intern` record older writers
//! stored) are skipped on load — the forward-compatibility rule:
//! additive format changes introduce new names, breaking changes bump
//! the container's format version.
//!
//! ## Loading
//!
//! [`CorpusIndex::open`] reads only the record table, `meta`/`exemeta`,
//! `context`, and `postings2` — each [`ExecutableRep`] stays a byte
//! range until a scan asks for it via [`CorpusIndex::try_get`] /
//! [`CorpusIndex::ensure_decoded`], then is cached for the life of the
//! index. Warm-scan startup cost therefore scales with the *candidate
//! set*, not the corpus. [`CorpusIndex::load`] is `open` followed by
//! [`CorpusIndex::ensure_all`]: it verifies and decodes every payload
//! up front, for callers that must reject a damaged file before using
//! it (a `serve` reload, compaction).

use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use firmup_firmware::crc::crc32;
use firmup_firmware::durable::{fnv1a_64, write_atomic};
use firmup_firmware::index::{
    append_journal, index_path, journal_path, manifest_path, parse_journal, push_varint,
    read_manifest, read_table, read_varint, record_bytes, segment_file_name, segments_dir,
    write_container_v2, IndexError, JournalEntry, Record, TableEntry,
};
use firmup_isa::Arch;

use crate::error::{FaultCtx, FirmUpError};
use crate::intern::StrandInterner;
use crate::sim::{ExecutableRep, GlobalContext, ProcedureRep, StrandPostings};

/// How a [`CorpusIndex`] holds its executables: one container blob per
/// source (the base file, then each live segment) plus one entry and
/// one slot per executable. Slot `i` is filled the first time
/// executable `i` is needed — or up front, for reps built in memory.
#[derive(Debug, Clone, Default)]
struct RepStore {
    blobs: Vec<Vec<u8>>,
    entries: Vec<LazyExe>,
    slots: Vec<OnceLock<ExecutableRep>>,
}

impl RepStore {
    /// Hold an already decoded rep in a pre-filled slot.
    fn push_decoded(&mut self, rep: ExecutableRep) {
        self.entries.push(LazyExe {
            id: rep.id.clone(),
            arch: rep.arch,
            payload: None,
        });
        self.slots.push(OnceLock::from(rep));
    }

    /// Hold one container blob and its executables as undecoded byte
    /// ranges into it.
    ///
    /// Telemetry: adds the blob length to `index.bytes_mapped`.
    fn push_blob(&mut self, blob: Vec<u8>, exes: Vec<ExeRow>) {
        firmup_telemetry::add("index.bytes_mapped", blob.len() as u64);
        let bi = self.blobs.len();
        self.blobs.push(blob);
        for (id, arch, table) in exes {
            self.entries.push(LazyExe {
                id,
                arch,
                payload: Some((bi, table)),
            });
            self.slots.push(OnceLock::new());
        }
    }
}

/// The cheap, always-available identity of an executable: what
/// `exemeta` records, plus where the full payload lives (blob index and
/// table entry). `None` means the slot was filled at construction (an
/// in-memory build) and has no blob behind it.
#[derive(Debug, Clone)]
struct LazyExe {
    id: String,
    arch: Arch,
    payload: Option<(usize, TableEntry)>,
}

/// One executable as the record table describes it: `exemeta` identity
/// plus the table entry of its `exe:<i>` payload.
type ExeRow = (String, Arch, TableEntry);

/// One persisted query record's payload: held as bytes (set in memory)
/// or as a table entry into the base blob, and decoded only when a scan
/// asks for it.
#[derive(Debug, Clone)]
enum QueryBytes {
    Owned(Vec<u8>),
    Mapped(TableEntry),
}

/// A prebuilt CVE query executable as persisted in a
/// `query:<package>:<arch>` record: the digest of the build's inputs
/// (see ARCHITECTURE.md §4.11 — the caller defines and checks it), the
/// query version string, and the canonicalized rep.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Digest of every input the build consumed.
    pub digest: u64,
    /// Package version the query was compiled from.
    pub version: String,
    /// The compiled, lifted, canonicalized query executable.
    pub rep: ExecutableRep,
}

/// The container record name of the query for (`package`, `arch`).
pub fn query_record_name(package: &str, arch: Arch) -> String {
    format!("{QUERY_PREFIX}{package}:{}", arch.name())
}

/// Split a `query:<package>:<arch>` record name back into its key.
/// `None` for any other name or an unknown arch.
pub fn parse_query_record_name(name: &str) -> Option<(&str, Arch)> {
    let (package, arch) = name.strip_prefix(QUERY_PREFIX)?.rsplit_once(':')?;
    let arch = Arch::all().into_iter().find(|a| a.name() == arch)?;
    Some((package, arch))
}

const QUERY_PREFIX: &str = "query:";

/// A persisted (or persistable) scan corpus: canonicalized executables
/// plus the derived search structures.
///
/// ```
/// use firmup_core::persist::CorpusIndex;
/// use firmup_core::sim::{ExecutableRep, ProcedureRep};
/// use firmup_isa::Arch;
/// let exe = ExecutableRep {
///     id: "fw/bin/wget".into(),
///     arch: Arch::Mips32,
///     procedures: vec![ProcedureRep {
///         addr: 0x400000, name: None, strands: vec![3, 5, 8],
///         block_count: 2, size: 24, interned: None,
///     }],
/// };
/// let index = CorpusIndex::build(vec![exe]);
/// let back = CorpusIndex::from_bytes(index.to_bytes()).unwrap();
/// assert_eq!(back.try_get(0).unwrap().procedures[0].strands, vec![3, 5, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct CorpusIndex {
    /// The canonicalized targets, in corpus order. [`StrandPostings`]
    /// executable positions index into this store.
    store: RepStore,
    /// Per-strand document frequencies trained over the executables.
    pub context: Arc<GlobalContext>,
    /// Inverted strand → `(executable, procedure)` table.
    pub postings: StrandPostings,
    /// The corpus's frozen strand-hash set, naming every canonical
    /// strand by its rank ([`StrandId`](crate::intern::StrandId)).
    /// Every decoded rep and the context are interned against it, so
    /// game-phase similarity compares dense `u32` ids instead of `u64`
    /// hashes. Always derived from [`CorpusIndex::postings`]' key set,
    /// never persisted.
    pub interner: Arc<StrandInterner>,
    /// Digests of the images folded into this corpus (base file seals
    /// plus any live segments unioned at open). Empty for indexes that
    /// predate incremental ingestion.
    seals: Vec<u64>,
    /// Persisted query records, sorted by name. Carried through
    /// load → save untouched; never derived from the executables.
    queries: Vec<(String, QueryBytes)>,
    /// Manifest epoch observed at open (0 when no manifest exists).
    seg_epoch: u64,
    /// Live (unsealed) segments unioned at open.
    seg_count: usize,
}

/// A cheap handle to one executable of a [`CorpusIndex`], usable
/// wherever the search layer takes `Borrow<ExecutableRep>` (e.g.
/// [`crate::search::scan_units`]). The handle does *not* decode: the
/// caller must [`CorpusIndex::ensure_decoded`] every index it will
/// borrow first — `Borrow` is infallible, so an undecoded slot is a
/// programming error and panics.
#[derive(Debug, Clone, Copy)]
pub struct RepAt<'a> {
    /// The owning index.
    pub index: &'a CorpusIndex,
    /// Global executable position.
    pub i: usize,
}

impl Borrow<ExecutableRep> for RepAt<'_> {
    fn borrow(&self) -> &ExecutableRep {
        self.index.get(self.i)
    }
}

/// The corpus interner: the sorted, unique set of every strand in the
/// corpus — by construction exactly the postings table's key set. The
/// one rule every constructor (build, decode, segment union) follows.
fn interner_of(postings: &StrandPostings) -> Arc<StrandInterner> {
    Arc::new(StrandInterner::from_sorted(postings.keys().to_vec()))
}

impl CorpusIndex {
    /// Assemble an index around its derived structures: derive the
    /// interner from `postings` and attach it to `context`.
    fn assemble(
        store: RepStore,
        mut context: GlobalContext,
        postings: StrandPostings,
        seals: Vec<u64>,
        queries: Vec<(String, QueryBytes)>,
    ) -> CorpusIndex {
        let interner = interner_of(&postings);
        context.attach_interner(&interner);
        CorpusIndex {
            store,
            context: Arc::new(context),
            postings,
            interner,
            seals,
            queries,
            seg_epoch: 0,
            seg_count: 0,
        }
    }

    /// Build the derived structures over a set of canonicalized
    /// executables (the in-memory path a cold scan takes, and the final
    /// step of `firmup index`).
    pub fn build(executables: Vec<ExecutableRep>) -> CorpusIndex {
        let _span = firmup_telemetry::span!("index.build");
        let context = GlobalContext::build(&executables);
        let postings = StrandPostings::build(&executables);
        let mut index = CorpusIndex::assemble(
            RepStore::default(),
            context,
            postings,
            Vec::new(),
            Vec::new(),
        );
        for mut e in executables {
            e.intern_with(&index.interner);
            index.store.push_decoded(e);
        }
        index
    }

    /// Digests of the images folded into this corpus, in ingestion
    /// order: the base file's `seals` record plus the digest of every
    /// live segment unioned at open. The dedup set `index --add`
    /// consults, and the seal list `compact` persists.
    pub fn seals(&self) -> &[u64] {
        &self.seals
    }

    /// Replace the seal list (used by builders that know the image
    /// digests of everything they folded in — `firmup index` and
    /// `compact`). Serialized as the `seals` record, omitted when
    /// empty.
    pub fn set_seals(&mut self, seals: Vec<u64>) {
        self.seals = seals;
    }

    /// Names of the persisted `query:<package>:<arch>` records, sorted.
    pub fn query_names(&self) -> impl Iterator<Item = &str> {
        self.queries.iter().map(|(n, _)| n.as_str())
    }

    /// Decode the persisted query record `name`; `None` when the index
    /// carries no such record. Mapped records are read (and their
    /// container CRC verified) here, on first use.
    ///
    /// # Errors
    ///
    /// A damaged record — CRC mismatch, truncated range, or a payload
    /// failing [`decode_query_record`] — is the structured [`IndexError`].
    pub fn query(&self, name: &str) -> Option<Result<QueryRecord, IndexError>> {
        let i = self
            .queries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()?;
        Some(
            self.query_payload(&self.queries[i].1)
                .and_then(decode_query_record),
        )
    }

    /// Insert (or replace) the query record `name`. Written into the
    /// container by [`CorpusIndex::to_bytes`]; [`CorpusIndex::build`]
    /// never adds any.
    pub fn set_query(&mut self, name: String, record: &QueryRecord) {
        let bytes = QueryBytes::Owned(encode_query_record(record));
        match self.queries.binary_search_by(|(n, _)| n.cmp(&name)) {
            Ok(i) => self.queries[i].1 = bytes,
            Err(i) => self.queries.insert(i, (name, bytes)),
        }
    }

    fn query_payload<'a>(&'a self, bytes: &'a QueryBytes) -> Result<&'a [u8], IndexError> {
        match bytes {
            QueryBytes::Owned(b) => Ok(b),
            // Only `from_bytes` maps query records, always into the
            // base blob it pushed first.
            QueryBytes::Mapped(t) => record_bytes(&self.store.blobs[0], t),
        }
    }

    /// Manifest epoch observed when this index was opened (0 when the
    /// directory had no `segments.fum`).
    pub fn segment_epoch(&self) -> u64 {
        self.seg_epoch
    }

    /// Number of live segments unioned into this index at open.
    pub fn segment_count(&self) -> usize {
        self.seg_count
    }

    /// Number of executables in the corpus (decoded or not).
    pub fn len(&self) -> usize {
        self.store.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executable `i`'s id, without decoding its payload.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    pub fn exe_id(&self, i: usize) -> &str {
        &self.store.entries[i].id
    }

    /// Executable `i`'s architecture, without decoding its payload.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    pub fn exe_arch(&self, i: usize) -> Arch {
        self.store.entries[i].arch
    }

    /// Executable `i`, which must already be decoded (always true for a
    /// built index; after [`CorpusIndex::ensure_decoded`] for a decoded
    /// one). The infallible accessor the scan's inner loop and
    /// [`RepAt`] use.
    ///
    /// # Panics
    ///
    /// If `i` is out of range, or the slot is undecoded — a programming
    /// error (a candidate reached the play phase without going through
    /// `ensure_decoded`).
    pub fn get(&self, i: usize) -> &ExecutableRep {
        self.store.slots[i]
            .get()
            .unwrap_or_else(|| panic!("executable {i} not decoded; ensure_decoded first"))
    }

    /// Executable `i`, decoding (and caching) it on first use.
    /// Concurrent calls may race to decode the same slot; the loser's
    /// work is discarded — wasteful but correct, and the scan path
    /// avoids it by batching through [`CorpusIndex::ensure_decoded`]
    /// before going parallel.
    ///
    /// Telemetry: each payload actually decoded adds one
    /// `index.reps_decoded`.
    ///
    /// # Errors
    ///
    /// A damaged payload (CRC mismatch, truncated range, undecodable
    /// fields) surfaces as the structured [`IndexError`].
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    pub fn try_get(&self, i: usize) -> Result<&ExecutableRep, IndexError> {
        let slot = &self.store.slots[i];
        if let Some(rep) = slot.get() {
            return Ok(rep);
        }
        let (blob, table) = self.store.entries[i]
            .payload
            .as_ref()
            .ok_or_else(|| malformed("pre-decoded slot lost its value"))?;
        let mut rep = decode_executable(record_bytes(&self.store.blobs[*blob], table)?)?;
        rep.intern_with(&self.interner);
        firmup_telemetry::incr("index.reps_decoded");
        // A concurrent decoder may have won the race; either value is
        // identical, so keep whichever landed.
        Ok(slot.get_or_init(|| rep))
    }

    /// Decode every executable in `indices` (the scan's candidate set),
    /// so subsequent [`CorpusIndex::get`] / [`RepAt`] borrows are
    /// infallible. A no-op for already-decoded slots.
    ///
    /// # Errors
    ///
    /// The first damaged payload aborts with its [`IndexError`].
    pub fn ensure_decoded(
        &self,
        indices: impl IntoIterator<Item = usize>,
    ) -> Result<(), IndexError> {
        for i in indices {
            self.try_get(i)?;
        }
        Ok(())
    }

    /// Decode everything — for callers that genuinely need the whole
    /// corpus (re-serialization, fsck rebuilds, whole-corpus diffs) or
    /// must know every payload verifies before using the index.
    ///
    /// # Errors
    ///
    /// The first damaged payload aborts with its [`IndexError`].
    pub fn ensure_all(&self) -> Result<(), IndexError> {
        self.ensure_decoded(0..self.len())
    }

    /// Borrowable handles for the whole corpus, in order — the slice
    /// scan workers index into. Decode candidates first
    /// ([`CorpusIndex::ensure_decoded`]); see [`RepAt`].
    pub fn rep_view(&self) -> Vec<RepAt<'_>> {
        (0..self.len()).map(|i| RepAt { index: self, i }).collect()
    }

    /// Split `0..len()` into at most `k` near-equal contiguous ranges
    /// for feeding scan workers. Ranges only name executable positions
    /// — nothing is cloned or decoded — so a prefiltered candidate list
    /// (global indices from [`crate::search::prefilter_candidates`])
    /// routes to its owning shard by range membership.
    ///
    /// `k == 0` is treated as 1; an empty corpus yields no ranges;
    /// every executable lands in exactly one range.
    pub fn shard_ranges(&self, k: usize) -> Vec<std::ops::Range<usize>> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let k = k.clamp(1, n);
        (0..k).map(|i| (i * n / k)..((i + 1) * n / k)).collect()
    }

    /// The typed records, in container order.
    ///
    /// # Panics
    ///
    /// With undecoded slots (callers re-serializing a decoded index
    /// must [`CorpusIndex::ensure_all`] first).
    fn typed_records(&self) -> Vec<Record> {
        let n = self.len();
        let mut records = Vec::with_capacity(n + self.queries.len() + 5);
        records.push(Record::new("meta", (n as u32).to_le_bytes().to_vec()));
        if !self.seals.is_empty() {
            records.push(Record::new("seals", encode_seals(&self.seals)));
        }
        records.push(Record::new("exemeta", encode_exemeta(self)));
        for i in 0..n {
            records.push(Record::new(
                format!("exe:{i}"),
                encode_executable(self.get(i)),
            ));
        }
        // A mapped record whose bytes no longer verify is dropped:
        // readers rebuild an absent query anyway.
        for (name, bytes) in &self.queries {
            if let Ok(payload) = self.query_payload(bytes) {
                records.push(Record::new(name.clone(), payload.to_vec()));
            }
        }
        records.push(Record::new("context", encode_context(&self.context)));
        records.push(Record::new("postings2", encode_postings2(&self.postings)));
        records
    }

    /// Serialize into a FUIX container blob.
    ///
    /// # Panics
    ///
    /// With undecoded slots; [`CorpusIndex::ensure_all`] first.
    pub fn to_bytes(&self) -> Vec<u8> {
        write_container_v2(&self.typed_records())
    }

    /// Decode a FUIX blob — the one decoder of corpus files: verify the
    /// record table, decode `meta`/`exemeta`/`context`/`postings2`, and
    /// hold every `exe:<i>` as an unverified byte range until first use
    /// ([`CorpusIndex::try_get`]; [`CorpusIndex::ensure_all`] verifies
    /// everything).
    ///
    /// Telemetry: adds the blob length to `index.bytes_mapped`.
    ///
    /// # Errors
    ///
    /// Structured [`IndexError`]s for a damaged header or record table,
    /// a format version other than 2
    /// ([`IndexError::UnsupportedVersion`]), or any eagerly read
    /// record; a missing required record or counts disagreeing with
    /// `meta` is [`IndexError::Malformed`].
    pub fn from_bytes(blob: Vec<u8>) -> Result<CorpusIndex, IndexError> {
        let c = read_contents(&blob)?;
        let mut store = RepStore::default();
        store.push_blob(blob, c.exes);
        Ok(CorpusIndex::assemble(
            store, c.context, c.postings, c.seals, c.queries,
        ))
    }

    /// Write the index into `dir` (created if needed) as
    /// [`firmup_firmware::index::INDEX_FILE`]. The write is atomic
    /// (temp file + fsync + rename): a concurrent reader sees either
    /// the previous complete index or this one, never a torn hybrid,
    /// and a crash mid-save cannot destroy the old file.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`FirmUpError::Io`].
    pub fn save(&self, dir: &Path) -> Result<(), FirmUpError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| FirmUpError::from(e).in_ctx(FaultCtx::image(dir.display().to_string())))?;
        let path = index_path(dir);
        write_atomic(&path, &self.to_bytes()).map_err(|e| {
            FirmUpError::from(e).in_ctx(FaultCtx::image(path.display().to_string()))
        })?;
        Ok(())
    }

    /// Load the index from `dir` with every payload verified and
    /// decoded: [`CorpusIndex::open`] followed by
    /// [`CorpusIndex::ensure_all`]. What a caller uses when a damaged
    /// file must fail *now* — a `serve` reload rejects it before
    /// swapping snapshots — rather than at the first scan that touches
    /// the damaged executable.
    ///
    /// # Errors
    ///
    /// As [`CorpusIndex::open`], plus the [`IndexError`] of the first
    /// payload that fails to verify or decode, with the path of
    /// `corpus.fui` in its [`FaultCtx`] (live segments are verified
    /// whole at open, so only base-file payloads can fail here).
    pub fn load(dir: &Path) -> Result<CorpusIndex, FirmUpError> {
        let index = CorpusIndex::open(dir)?;
        index.ensure_all().map_err(|e| {
            FirmUpError::from(e).in_ctx(FaultCtx::image(index_path(dir).display().to_string()))
        })?;
        Ok(index)
    }

    /// Open the index from `dir` — the scan-time entry point: postings,
    /// context, and executable identities load now; procedure payloads
    /// load when a scan's candidate set demands them. Live segments
    /// named by the directory's manifest are unioned in (their payloads
    /// stay undecoded too).
    ///
    /// Telemetry: a successful open runs under an `index.load` span,
    /// adds one `index.cache_hit` per executable restored (the unpack /
    /// lift / canonicalize work the cache saved), and adds every blob
    /// held to `index.bytes_mapped`.
    ///
    /// # Errors
    ///
    /// A missing file is [`IndexError::Missing`] and a zero-length one
    /// is [`IndexError::Truncated`] — distinct structured diagnoses
    /// (the first means "never built", the second "a write died"), both
    /// surfaced as [`FirmUpError::Index`]. Other unreadable files are
    /// [`FirmUpError::Io`]; damaged ones (including a file in a format
    /// version other than 2) wrap the byte-level [`IndexError`]. All
    /// carry the file path in their [`FaultCtx`].
    pub fn open(dir: &Path) -> Result<CorpusIndex, FirmUpError> {
        let _span = firmup_telemetry::span!("index.load");
        let path = index_path(dir);
        let ctx = FaultCtx::image(path.display().to_string());
        let blob = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(FirmUpError::from(IndexError::Missing {
                    path: path.display().to_string(),
                })
                .in_ctx(ctx));
            }
            Err(e) => return Err(FirmUpError::from(e).in_ctx(ctx)),
        };
        if blob.is_empty() {
            return Err(FirmUpError::from(IndexError::Truncated {
                context: "empty index file",
            })
            .in_ctx(ctx));
        }
        let mut index =
            CorpusIndex::from_bytes(blob).map_err(|e| FirmUpError::from(e).in_ctx(ctx))?;
        let manifest_ctx = FaultCtx::image(manifest_path(dir).display().to_string());
        let manifest = read_manifest(dir).map_err(|e| FirmUpError::from(e).in_ctx(manifest_ctx))?;
        if let Some(m) = manifest {
            index.seg_epoch = m.epoch;
            // Segments whose digest is already sealed into the base
            // were folded by a compact whose manifest rewrite hasn't
            // landed (or crashed mid-publish): skip them, or their
            // executables would count twice.
            let live: Vec<JournalEntry> = m
                .entries
                .into_iter()
                .filter(|e| !index.seals.contains(&e.digest))
                .collect();
            index.seg_count = live.len();
            index.union_segments(dir, &live)?;
        }
        firmup_telemetry::add("index.cache_hit", index.len() as u64);
        Ok(index)
    }

    /// Fold each live segment into the opened base, in manifest order:
    /// append its executables, add its document frequencies, and merge
    /// its posting lists with local executable positions rebased by the
    /// running corpus size. Rebasing preserves every list's `(exe,
    /// proc)` ordering, so the merged table is exactly what
    /// [`StrandPostings::build`] over the concatenated corpus yields.
    fn union_segments(&mut self, dir: &Path, live: &[JournalEntry]) -> Result<(), FirmUpError> {
        if live.is_empty() {
            return Ok(());
        }
        let seg_dir = segments_dir(dir);
        let mut docs = self.context.docs();
        let mut df: std::collections::HashMap<u64, u32> =
            self.context.entries().into_iter().collect();
        let mut post: std::collections::HashMap<u64, Vec<(u32, u32)>> = self
            .postings
            .entries()
            .into_iter()
            .map(|(s, l)| (s, l.to_vec()))
            .collect();
        for entry in live {
            let path = seg_dir.join(&entry.segment);
            let ctx = FaultCtx::image(path.display().to_string());
            let blob = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(FirmUpError::from(IndexError::Missing {
                        path: path.display().to_string(),
                    })
                    .in_ctx(ctx));
                }
                Err(e) => return Err(FirmUpError::from(e).in_ctx(ctx)),
            };
            if crc32(&blob) != entry.crc {
                return Err(FirmUpError::from(IndexError::ChecksumMismatch {
                    record: entry.segment.clone(),
                })
                .in_ctx(ctx));
            }
            let offset = self.len() as u32;
            let c = read_contents(&blob).map_err(|e| FirmUpError::from(e).in_ctx(ctx))?;
            docs += c.context.docs();
            for (s, n) in c.context.entries() {
                *df.entry(s).or_default() += n;
            }
            for (s, sites) in c.postings.entries() {
                post.entry(s)
                    .or_default()
                    .extend(sites.iter().map(|&(e, p)| (e + offset, p)));
            }
            self.store.push_blob(blob, c.exes);
            self.seals.push(entry.digest);
        }
        // The unioned strand set differs from the base's: rebuild the
        // context and postings, derive a new interner from the merged
        // keys, and re-intern everything already decoded. Undecoded
        // reps intern against the new interner when they decode.
        let postings = StrandPostings::from_entries(post);
        let interner = interner_of(&postings);
        let mut context = GlobalContext::from_entries(docs, df);
        context.attach_interner(&interner);
        self.context = Arc::new(context);
        self.postings = postings;
        self.interner = interner;
        for slot in &mut self.store.slots {
            if let Some(rep) = slot.get_mut() {
                rep.intern_with(&self.interner);
            }
        }
        Ok(())
    }
}

fn malformed(reason: &str) -> IndexError {
    IndexError::Malformed {
        reason: reason.to_string(),
    }
}

/// What the record table of a corpus file or segment holds, with the
/// small records decoded and every `exe:<i>` left as a table entry.
struct Contents {
    exes: Vec<ExeRow>,
    context: GlobalContext,
    postings: StrandPostings,
    seals: Vec<u64>,
    queries: Vec<(String, QueryBytes)>,
}

/// Parse a FUIX blob's record table and decode everything but the
/// executable payloads — the one table parser behind
/// [`CorpusIndex::from_bytes`], the segment union and
/// [`segment_from_bytes`]. `meta`, `exemeta`, `context` and `postings2`
/// are required (every corpus file and segment carries them); unknown
/// names are skipped.
fn read_contents(blob: &[u8]) -> Result<Contents, IndexError> {
    let table = read_table(blob)?;
    let mut count: Option<u32> = None;
    let mut identities: Option<Vec<(String, Arch)>> = None;
    let mut context: Option<GlobalContext> = None;
    let mut postings: Option<StrandPostings> = None;
    let mut exe_tables: Vec<Option<TableEntry>> = Vec::new();
    let mut seals: Vec<u64> = Vec::new();
    let mut queries: Vec<(String, QueryBytes)> = Vec::new();
    for e in table {
        if e.name == "meta" {
            let mut pos = 0;
            count = Some(get_u32(record_bytes(blob, &e)?, &mut pos, "meta record")?);
        } else if e.name == "seals" {
            seals = decode_seals(record_bytes(blob, &e)?)?;
        } else if e.name == "exemeta" {
            identities = Some(decode_exemeta(record_bytes(blob, &e)?)?);
        } else if let Some(i) = e.name.strip_prefix("exe:") {
            let i: usize = i.parse().map_err(|_| malformed("bad exe record name"))?;
            if i >= exe_tables.len() {
                exe_tables.resize_with(i + 1, || None);
            }
            exe_tables[i] = Some(e);
        } else if e.name == "context" {
            context = Some(decode_context(record_bytes(blob, &e)?)?);
        } else if e.name == "postings2" {
            postings = Some(decode_postings2(record_bytes(blob, &e)?)?);
        } else if e.name.starts_with(QUERY_PREFIX) {
            queries.push((e.name.clone(), QueryBytes::Mapped(e)));
        }
    }
    queries.sort_by(|a, b| a.0.cmp(&b.0));
    let count = count.ok_or_else(|| malformed("missing meta record"))? as usize;
    let identities = identities.ok_or_else(|| malformed("missing exemeta record"))?;
    if exe_tables.len() != count || identities.len() != count {
        return Err(malformed(&format!(
            "meta declares {count} executables, found {} payloads / {} identities",
            exe_tables.len(),
            identities.len()
        )));
    }
    let exes = identities
        .into_iter()
        .zip(exe_tables)
        .enumerate()
        .map(|(i, ((id, arch), t))| {
            let table = t.ok_or_else(|| malformed(&format!("missing record exe:{i}")))?;
            Ok((id, arch, table))
        })
        .collect::<Result<_, IndexError>>()?;
    Ok(Contents {
        exes,
        context: context.ok_or_else(|| malformed("missing context record"))?,
        postings: postings.ok_or_else(|| malformed("missing postings2 record"))?,
        seals,
        queries,
    })
}

// ---- per-image checkpoint segments ---------------------------------------

/// Serialize one image's executables as a checkpoint segment: a FUIX
/// container holding `meta` + `exe:<i>` plus the mergeable sidecars
/// (`exemeta`, per-segment `context` and `postings2` with *local*
/// executable positions) that let [`CorpusIndex::open`] union the
/// segment without decoding its payloads. Derived structures are still
/// rebuilt from scratch at finalize, so a resumed build and an
/// uninterrupted one produce byte-identical `corpus.fui` files.
pub fn segment_to_bytes(reps: &[ExecutableRep]) -> Vec<u8> {
    let mut records = Vec::with_capacity(reps.len() + 4);
    records.push(Record::new(
        "meta",
        (reps.len() as u32).to_le_bytes().to_vec(),
    ));
    records.push(Record::new(
        "exemeta",
        encode_exemeta_pairs(reps.iter().map(|r| (r.id.as_str(), r.arch))),
    ));
    for (i, exe) in reps.iter().enumerate() {
        records.push(Record::new(format!("exe:{i}"), encode_executable(exe)));
    }
    records.push(Record::new(
        "context",
        encode_context(&GlobalContext::build(reps)),
    ));
    records.push(Record::new(
        "postings2",
        encode_postings2(&StrandPostings::build(reps)),
    ));
    write_container_v2(&records)
}

/// Decode a checkpoint segment back into its executables, verifying
/// every record.
///
/// # Errors
///
/// Container damage or a typed-payload inconsistency (including a
/// segment missing its `exemeta`/`context`/`postings2` sidecars), as a
/// structured [`IndexError`].
pub fn segment_from_bytes(blob: &[u8]) -> Result<Vec<ExecutableRep>, IndexError> {
    read_contents(blob)?
        .exes
        .iter()
        .map(|(_, _, table)| decode_executable(record_bytes(blob, table)?))
        .collect()
}

/// What [`IndexCheckpoint::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Committed segments that verified and will be reused.
    pub reused: usize,
    /// Journal entries whose segment was missing or failed its CRC
    /// (dropped; those images re-lift).
    pub damaged: usize,
    /// Whether the journal ended in a torn (discarded) append.
    pub torn_tail: bool,
}

/// The journaled checkpoint state of one `firmup index --out DIR`
/// build: per-image segments under `DIR/segments/` plus a manifest
/// journal (`journal.fuj`) whose entries commit each segment. A build
/// that crashes after N commits resumes by replaying the journal,
/// verifying each segment's CRC, and re-lifting only what is missing —
/// at most one image of work is lost.
#[derive(Debug)]
pub struct IndexCheckpoint {
    dir: PathBuf,
    entries: Vec<JournalEntry>,
}

impl IndexCheckpoint {
    /// Open (or reset) the checkpoint state in `dir`.
    ///
    /// With `resume` false the journal and all segments are cleared for
    /// a fresh build — but `corpus.fui` is left alone, so concurrent
    /// readers keep loading the last complete snapshot until the new
    /// one atomically replaces it. With `resume` true the journal is
    /// replayed: each entry's segment file is read and its CRC-32
    /// verified; entries that fail are dropped (their images re-lift).
    ///
    /// # Errors
    ///
    /// Filesystem failures as [`FirmUpError::Io`].
    pub fn open(
        dir: &Path,
        resume: bool,
    ) -> Result<(IndexCheckpoint, CheckpointStats), FirmUpError> {
        let io_ctx = |p: &Path| FaultCtx::image(p.display().to_string());
        std::fs::create_dir_all(dir).map_err(|e| FirmUpError::from(e).in_ctx(io_ctx(dir)))?;
        let seg_dir = segments_dir(dir);
        std::fs::create_dir_all(&seg_dir)
            .map_err(|e| FirmUpError::from(e).in_ctx(io_ctx(&seg_dir)))?;
        let journal = journal_path(dir);
        let mut stats = CheckpointStats::default();
        let mut entries = Vec::new();
        if resume {
            let bytes = match std::fs::read(&journal) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(FirmUpError::from(e).in_ctx(io_ctx(&journal))),
            };
            let (parsed, torn) = parse_journal(&bytes);
            stats.torn_tail = torn;
            for entry in parsed {
                let seg_path = seg_dir.join(&entry.segment);
                match std::fs::read(&seg_path) {
                    Ok(blob) if crc32(&blob) == entry.crc => {
                        stats.reused += 1;
                        entries.push(entry);
                    }
                    _ => stats.damaged += 1,
                }
            }
            if torn || stats.damaged > 0 {
                // Rewrite the journal to only the verified entries so
                // the damage is diagnosed once, not on every restart.
                let mut fresh = String::new();
                for e in &entries {
                    fresh.push_str(&firmup_firmware::index::render_journal_entry(e));
                }
                write_atomic(&journal, fresh.as_bytes())
                    .map_err(|e| FirmUpError::from(e).in_ctx(io_ctx(&journal)))?;
            }
        } else {
            match std::fs::remove_file(&journal) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(FirmUpError::from(e).in_ctx(io_ctx(&journal))),
            }
            // A fresh build also invalidates the live-segment manifest:
            // its entries point at segment files cleared below, and the
            // rebuilt corpus.fui will carry its own seals.
            let manifest = manifest_path(dir);
            match std::fs::remove_file(&manifest) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(FirmUpError::from(e).in_ctx(io_ctx(&manifest))),
            }
            let listing = std::fs::read_dir(&seg_dir)
                .map_err(|e| FirmUpError::from(e).in_ctx(io_ctx(&seg_dir)))?;
            for item in listing.flatten() {
                let _ = std::fs::remove_file(item.path());
            }
        }
        Ok((
            IndexCheckpoint {
                dir: dir.to_path_buf(),
                entries,
            },
            stats,
        ))
    }

    /// Whether a segment for this image digest is already committed.
    pub fn committed(&self, digest: u64) -> bool {
        self.entries.iter().any(|e| e.digest == digest)
    }

    /// The journal entry of a committed segment, if any — what `index
    /// --add` copies into the manifest when it adopts a segment that a
    /// crashed run committed but never published.
    pub fn entry(&self, digest: u64) -> Option<&JournalEntry> {
        self.entries.iter().find(|e| e.digest == digest)
    }

    /// Number of committed segments (reused + newly written).
    pub fn segments(&self) -> usize {
        self.entries.len()
    }

    /// Load the executables of a committed segment.
    ///
    /// # Errors
    ///
    /// [`FirmUpError::Index`] if no such segment is committed or its
    /// contents fail to decode; [`FirmUpError::Io`] on read failures.
    pub fn load_segment(&self, digest: u64) -> Result<Vec<ExecutableRep>, FirmUpError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.digest == digest)
            .ok_or_else(|| {
                FirmUpError::from(malformed(&format!(
                    "no committed segment for {digest:016x}"
                )))
            })?;
        let path = segments_dir(&self.dir).join(&entry.segment);
        let ctx = FaultCtx::image(path.display().to_string());
        let blob = std::fs::read(&path).map_err(|e| FirmUpError::from(e).in_ctx(ctx.clone()))?;
        segment_from_bytes(&blob).map_err(|e| FirmUpError::from(e).in_ctx(ctx))
    }

    /// Durably commit one image's executables: write the segment
    /// atomically, then append (and fsync) its journal entry. Only
    /// after both is the image's work safe against a crash.
    ///
    /// Telemetry: increments `index.segments_committed`.
    ///
    /// # Errors
    ///
    /// Filesystem failures as [`FirmUpError::Io`].
    pub fn commit(&mut self, digest: u64, reps: &[ExecutableRep]) -> Result<(), FirmUpError> {
        let bytes = segment_to_bytes(reps);
        let entry = JournalEntry {
            digest,
            crc: crc32(&bytes),
            executables: reps.len() as u32,
            segment: segment_file_name(digest),
        };
        let seg_path = segments_dir(&self.dir).join(&entry.segment);
        write_atomic(&seg_path, &bytes).map_err(|e| {
            FirmUpError::from(e).in_ctx(FaultCtx::image(seg_path.display().to_string()))
        })?;
        let journal = journal_path(&self.dir);
        append_journal(&journal, &entry).map_err(|e| {
            FirmUpError::from(e).in_ctx(FaultCtx::image(journal.display().to_string()))
        })?;
        firmup_telemetry::incr("index.segments_committed");
        self.entries.push(entry);
        Ok(())
    }
}

// ---- payload encoding primitives -----------------------------------------
//
// Same discipline as the container: little-endian fixed-width integers,
// length-prefixed strings, every read bounds-checked. Payloads are
// CRC-protected by the container, so decode errors here mean a *logic*
// mismatch (or a reader meeting data only a future writer puts inside an
// existing record — which the format rules forbid).

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_u32(b: &[u8], pos: &mut usize, what: &str) -> Result<u32, IndexError> {
    let s = b
        .get(*pos..pos.saturating_add(4))
        .ok_or_else(|| malformed(&format!("{what}: payload too short")))?;
    *pos += 4;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

fn get_u64(b: &[u8], pos: &mut usize, what: &str) -> Result<u64, IndexError> {
    let s = b
        .get(*pos..pos.saturating_add(8))
        .ok_or_else(|| malformed(&format!("{what}: payload too short")))?;
    *pos += 8;
    Ok(u64::from_le_bytes([
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
    ]))
}

fn get_str(b: &[u8], pos: &mut usize, what: &str) -> Result<String, IndexError> {
    let len = get_u32(b, pos, what)? as usize;
    if len > b.len() {
        return Err(malformed(&format!("{what}: string length out of range")));
    }
    let s = b
        .get(*pos..pos.saturating_add(len))
        .ok_or_else(|| malformed(&format!("{what}: payload too short")))?;
    *pos += len;
    String::from_utf8(s.to_vec()).map_err(|_| malformed(&format!("{what}: non-UTF-8 string")))
}

// ---- ExecutableRep -------------------------------------------------------

fn encode_executable(exe: &ExecutableRep) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &exe.id);
    put_u32(&mut out, u32::from(exe.arch.elf_machine()));
    put_u32(&mut out, exe.procedures.len() as u32);
    for p in &exe.procedures {
        put_u32(&mut out, p.addr);
        match &p.name {
            Some(n) => {
                out.push(1);
                put_str(&mut out, n);
            }
            None => out.push(0),
        }
        put_u32(&mut out, p.block_count as u32);
        put_u32(&mut out, p.size);
        put_u32(&mut out, p.strands.len() as u32);
        for &h in &p.strands {
            put_u64(&mut out, h);
        }
    }
    out
}

fn decode_executable(b: &[u8]) -> Result<ExecutableRep, IndexError> {
    decode_executable_at(b, &mut 0)
}

/// Decode one [`ExecutableRep`] starting at `*pos`, leaving `*pos` just
/// past it (so an enclosing payload can check nothing trails it).
fn decode_executable_at(b: &[u8], pos: &mut usize) -> Result<ExecutableRep, IndexError> {
    let id = get_str(b, pos, "executable id")?;
    let machine = get_u32(b, pos, "executable arch")?;
    let machine = u16::try_from(machine).map_err(|_| malformed("arch tag out of range"))?;
    let arch = Arch::from_elf_machine(machine)
        .ok_or_else(|| malformed(&format!("unknown arch tag {machine}")))?;
    let nprocs = get_u32(b, pos, "procedure count")? as usize;
    if nprocs > b.len() {
        return Err(malformed("procedure count out of range"));
    }
    let mut procedures = Vec::with_capacity(nprocs);
    for _ in 0..nprocs {
        let addr = get_u32(b, pos, "procedure addr")?;
        let has_name = b
            .get(*pos)
            .copied()
            .ok_or_else(|| malformed("procedure name tag: payload too short"))?;
        *pos += 1;
        let name = match has_name {
            0 => None,
            1 => Some(get_str(b, pos, "procedure name")?),
            _ => return Err(malformed("bad procedure name tag")),
        };
        let block_count = get_u32(b, pos, "procedure blocks")? as usize;
        let size = get_u32(b, pos, "procedure size")?;
        let nstrands = get_u32(b, pos, "strand count")? as usize;
        if nstrands.saturating_mul(8) > b.len() {
            return Err(malformed("strand count out of range"));
        }
        let mut strands = Vec::with_capacity(nstrands);
        for _ in 0..nstrands {
            strands.push(get_u64(b, pos, "strand hash")?);
        }
        // The whole pipeline (Sim's merge walk, the game's pruning)
        // assumes sorted, deduplicated strand vectors; enforce the
        // invariant at the trust boundary.
        if strands.windows(2).any(|w| w[0] >= w[1]) {
            return Err(malformed("strand vector not sorted/deduplicated"));
        }
        procedures.push(ProcedureRep {
            addr,
            name,
            strands,
            block_count,
            size,
            interned: None,
        });
    }
    Ok(ExecutableRep {
        id,
        arch,
        procedures,
    })
}

// ---- query records -------------------------------------------------------
//
// `query:<package>:<arch>`: input digest (u64), version (str), the query
// rep (ExecutableRep layout), then an FNV-1a 64 checksum of everything
// before it. The container CRC catches torn or flipped bytes on disk;
// the inner checksum makes the record self-verifying, so even a payload
// rewritten under a fresh CRC can only ever be rejected (and rebuilt),
// never decoded into a different query.

/// Serialize a [`QueryRecord`] as a `query:*` record payload.
pub fn encode_query_record(q: &QueryRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, q.digest);
    put_str(&mut out, &q.version);
    out.extend_from_slice(&encode_executable(&q.rep));
    let check = fnv1a_64(&[&out]);
    put_u64(&mut out, check);
    out
}

/// Decode a `query:*` record payload.
///
/// # Errors
///
/// [`IndexError::Malformed`] when the checksum fails, a field does not
/// decode, or bytes trail the rep.
pub fn decode_query_record(b: &[u8]) -> Result<QueryRecord, IndexError> {
    let split = b
        .len()
        .checked_sub(8)
        .ok_or_else(|| malformed("query record: payload too short"))?;
    let (body, check) = b.split_at(split);
    if fnv1a_64(&[body]).to_le_bytes() != check {
        return Err(malformed("query record checksum mismatch"));
    }
    let mut pos = 0;
    let digest = get_u64(body, &mut pos, "query digest")?;
    let version = get_str(body, &mut pos, "query version")?;
    let rep = decode_executable_at(body, &mut pos)?;
    if pos != body.len() {
        return Err(malformed("query record: trailing bytes"));
    }
    Ok(QueryRecord {
        digest,
        version,
        rep,
    })
}

// ---- exemeta -------------------------------------------------------------
//
// The sidecar that makes lazy loads possible: every executable's id
// and arch in one small eagerly read record, so arch-grouping and
// progress reporting never touch an exe payload.

fn encode_exemeta(index: &CorpusIndex) -> Vec<u8> {
    encode_exemeta_pairs((0..index.len()).map(|i| (index.exe_id(i), index.exe_arch(i))))
}

fn encode_exemeta_pairs<'a>(items: impl ExactSizeIterator<Item = (&'a str, Arch)>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, items.len() as u32);
    for (id, arch) in items {
        put_str(&mut out, id);
        put_u32(&mut out, u32::from(arch.elf_machine()));
    }
    out
}

fn decode_exemeta(b: &[u8]) -> Result<Vec<(String, Arch)>, IndexError> {
    let mut pos = 0;
    let n = get_u32(b, &mut pos, "exemeta count")? as usize;
    if n.saturating_mul(8) > b.len() {
        return Err(malformed("exemeta count out of range"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = get_str(b, &mut pos, "exemeta id")?;
        let machine = get_u32(b, &mut pos, "exemeta arch")?;
        let machine = u16::try_from(machine).map_err(|_| malformed("arch tag out of range"))?;
        let arch = Arch::from_elf_machine(machine)
            .ok_or_else(|| malformed(&format!("unknown arch tag {machine}")))?;
        out.push((id, arch));
    }
    Ok(out)
}

// ---- seals ---------------------------------------------------------------
//
// The image digests folded into a corpus file, in ingestion order.
// Written only when non-empty.

fn encode_seals(seals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + seals.len() * 8);
    put_u32(&mut out, seals.len() as u32);
    for &d in seals {
        put_u64(&mut out, d);
    }
    out
}

fn decode_seals(b: &[u8]) -> Result<Vec<u64>, IndexError> {
    let mut pos = 0;
    let n = get_u32(b, &mut pos, "seals count")? as usize;
    if n.saturating_mul(8) > b.len() {
        return Err(malformed("seals count out of range"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_u64(b, &mut pos, "seal digest")?);
    }
    Ok(out)
}

// ---- GlobalContext -------------------------------------------------------

fn encode_context(ctx: &GlobalContext) -> Vec<u8> {
    let entries = ctx.entries();
    let mut out = Vec::with_capacity(8 + entries.len() * 12);
    put_u32(&mut out, ctx.docs());
    put_u32(&mut out, entries.len() as u32);
    for (strand, df) in entries {
        put_u64(&mut out, strand);
        put_u32(&mut out, df);
    }
    out
}

fn decode_context(b: &[u8]) -> Result<GlobalContext, IndexError> {
    let mut pos = 0;
    let docs = get_u32(b, &mut pos, "context docs")?;
    let n = get_u32(b, &mut pos, "context entry count")? as usize;
    if n.saturating_mul(12) > b.len() {
        return Err(malformed("context entry count out of range"));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let strand = get_u64(b, &mut pos, "context strand")?;
        let df = get_u32(b, &mut pos, "context df")?;
        entries.push((strand, df));
    }
    Ok(GlobalContext::from_entries(docs, entries))
}

// ---- postings2: sorted varint-delta encoding ------------------------------
//
// The record exploits one invariant: its key sequences are strictly
// increasing (postings keys by construction, packed `(exe << 32) | proc`
// sites within one posting list by walk order). Sorted u64s
// delta-encode to mostly-small gaps, and LEB128 varints store small gaps
// in one or two bytes — so the record shrinks by roughly the hash
// entropy it no longer repeats. Strict monotonicity doubles as the trust
// boundary: a zero or overflowing delta cannot come from our writers and
// is diagnosed as `Malformed`, never absorbed. It is also what lets the
// decoded key set serve, unchecked, as the corpus interner.

fn encode_postings2(postings: &StrandPostings) -> Vec<u8> {
    let keys = postings.keys();
    let mut out = Vec::with_capacity(10 + keys.len() * 4);
    push_varint(&mut out, keys.len() as u64);
    let mut prev_key = 0u64;
    for (i, &key) in keys.iter().enumerate() {
        push_varint(&mut out, if i == 0 { key } else { key - prev_key });
        prev_key = key;
        let sites = postings.list_at(i);
        push_varint(&mut out, sites.len() as u64);
        let mut prev_site = 0u64;
        for (j, &(exe, proc_)) in sites.iter().enumerate() {
            let packed = (u64::from(exe) << 32) | u64::from(proc_);
            push_varint(&mut out, if j == 0 { packed } else { packed - prev_site });
            prev_site = packed;
        }
    }
    out
}

fn decode_postings2(b: &[u8]) -> Result<StrandPostings, IndexError> {
    let mut pos = 0;
    let n = read_varint(b, &mut pos, "postings2 strand count")? as usize;
    // Every strand costs at least two bytes (key delta + list length).
    if n.saturating_mul(2) > b.len() {
        return Err(malformed("postings2 strand count out of range"));
    }
    let mut entries = Vec::with_capacity(n);
    let mut prev_key = 0u64;
    for i in 0..n {
        let delta = read_varint(b, &mut pos, "postings2 key delta")?;
        let key = if i == 0 {
            delta
        } else {
            if delta == 0 {
                return Err(malformed("postings2 keys not strictly increasing"));
            }
            prev_key
                .checked_add(delta)
                .ok_or_else(|| malformed("postings2 key delta overflows u64"))?
        };
        prev_key = key;
        let m = read_varint(b, &mut pos, "postings2 list length")? as usize;
        if m > b.len() {
            return Err(malformed("postings2 list length out of range"));
        }
        let mut sites = Vec::with_capacity(m);
        let mut prev_site = 0u64;
        for j in 0..m {
            let delta = read_varint(b, &mut pos, "postings2 site delta")?;
            let packed = if j == 0 {
                delta
            } else {
                if delta == 0 {
                    return Err(malformed("postings2 sites not strictly increasing"));
                }
                prev_site
                    .checked_add(delta)
                    .ok_or_else(|| malformed("postings2 site delta overflows u64"))?
            };
            prev_site = packed;
            sites.push(((packed >> 32) as u32, packed as u32));
        }
        entries.push((key, sites));
    }
    Ok(StrandPostings::from_entries(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{prefilter_candidates, search_corpus, SearchConfig};
    use firmup_firmware::index::{read_container, FORMAT_V2};

    /// Decode everything and clone it out — the test-side view of an
    /// index's executables, whether built or decoded.
    pub(super) fn reps_of(ix: &CorpusIndex) -> Vec<ExecutableRep> {
        ix.ensure_all().unwrap();
        (0..ix.len()).map(|i| ix.get(i).clone()).collect()
    }

    fn exe(id: &str, strand_sets: &[&[u64]]) -> ExecutableRep {
        ExecutableRep {
            id: id.to_string(),
            arch: Arch::Mips32,
            procedures: strand_sets
                .iter()
                .enumerate()
                .map(|(i, s)| ProcedureRep {
                    addr: 0x1000 + (i as u32) * 0x40,
                    name: if i % 2 == 0 {
                        Some(format!("p{i}"))
                    } else {
                        None
                    },
                    strands: s.to_vec(),
                    block_count: i + 1,
                    size: 16 * (i as u32 + 1),
                    interned: None,
                })
                .collect(),
        }
    }

    fn sample() -> CorpusIndex {
        CorpusIndex::build(vec![
            exe("a", &[&[1, 2, 3], &[2, 9]]),
            exe("b", &[&[2, 3, 4]]),
            exe("c", &[&[], &[7]]),
        ])
    }

    #[test]
    fn shard_ranges_partition_the_corpus() {
        let index = sample();
        for k in [0usize, 1, 2, 3, 7] {
            let ranges = index.shard_ranges(k);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= index.len());
            // Contiguous, complete, non-overlapping coverage.
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, index.len());
        }
        // Empty corpus: no ranges.
        assert!(CorpusIndex::build(Vec::new()).shard_ranges(4).is_empty());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let index = sample();
        let blob = index.to_bytes();
        let back = CorpusIndex::from_bytes(blob.clone()).unwrap();
        assert_eq!(back.len(), index.len());
        // Identity is available before any payload decode.
        for i in 0..back.len() {
            assert_eq!(back.exe_id(i), index.exe_id(i));
            assert_eq!(back.exe_arch(i), index.exe_arch(i));
        }
        assert_eq!(*back.context, *index.context);
        assert_eq!(back.postings, index.postings);
        assert_eq!(back.interner.hashes(), index.interner.hashes());
        assert_eq!(reps_of(&back), reps_of(&index));
        // Re-serializing a fully decoded index reproduces the blob.
        assert_eq!(back.to_bytes(), blob);
    }

    /// A hand-built container in the retired version-1 layout (no
    /// payload offsets, no table CRC), carrying `records`.
    fn v1_blob(records: &[Record]) -> Vec<u8> {
        let mut out = b"FUIX".to_vec();
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for r in records {
            put_str(&mut out, &r.name);
            put_u32(&mut out, r.payload.len() as u32);
            put_u32(&mut out, crc32(&r.payload));
        }
        for r in records {
            out.extend_from_slice(&r.payload);
        }
        out
    }

    #[test]
    fn v1_and_version_0_files_are_unsupported_with_a_rebuild_hint() {
        let records = read_container(&sample().to_bytes()).unwrap();
        let mut zeroed = sample().to_bytes();
        zeroed[4..8].copy_from_slice(&0u32.to_le_bytes());
        for (found, blob) in [(1, v1_blob(&records)), (0, zeroed)] {
            let want = IndexError::UnsupportedVersion {
                found,
                supported: FORMAT_V2,
            };
            assert_eq!(CorpusIndex::from_bytes(blob.clone()).unwrap_err(), want);
            let dir = std::env::temp_dir().join(format!(
                "firmup-persist-v{found}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(index_path(&dir), &blob).unwrap();
            for err in [
                CorpusIndex::open(&dir).unwrap_err(),
                CorpusIndex::load(&dir).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, FirmUpError::Index { source, .. } if *source == want),
                    "{err:?}"
                );
                let msg = err.to_string();
                assert!(msg.contains("corpus.fui"), "{msg}");
                assert!(
                    msg.contains("this build reads only format 2 — rebuild with `firmup index`"),
                    "{msg}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn lazy_damage_surfaces_at_decode_not_open() {
        let index = sample();
        let blob = index.to_bytes();
        // Find the exe:1 payload and flip a bit in it: the offset table
        // still verifies, so decode succeeds; try_get(1) diagnoses.
        let table = read_table(&blob).unwrap();
        let e1 = table.iter().find(|e| e.name == "exe:1").unwrap().clone();
        let mut bad = blob;
        bad[e1.offset as usize] ^= 0x40;
        let back = CorpusIndex::from_bytes(bad).unwrap();
        assert!(back.try_get(0).is_ok());
        let err = back.try_get(1).unwrap_err();
        assert!(
            matches!(err, IndexError::ChecksumMismatch { .. }),
            "{err:?}"
        );
        assert!(back.ensure_all().is_err());
    }

    #[test]
    fn roundtrip_preserves_match_results() {
        // The acceptance property: searching against a reloaded index
        // yields the same results as the freshly built one.
        let index = sample();
        let back = CorpusIndex::from_bytes(index.to_bytes()).unwrap();
        back.ensure_all().unwrap();
        let config = SearchConfig {
            context: Some(index.context.clone()),
            ..SearchConfig::default()
        };
        let fresh = search_corpus(index.get(0), 0, &index.rep_view(), &config);
        let config = SearchConfig {
            context: Some(back.context.clone()),
            ..SearchConfig::default()
        };
        let warm = search_corpus(back.get(0), 0, &back.rep_view(), &config);
        assert_eq!(fresh, warm);
    }

    #[test]
    fn empty_corpus_roundtrips() {
        let index = CorpusIndex::build(Vec::new());
        let back = CorpusIndex::from_bytes(index.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert!(back.postings.is_empty());
        assert!(back.interner.is_empty());
        assert_eq!(back.context.docs(), 0);
    }

    #[test]
    fn unknown_records_are_skipped() {
        // Forward compatibility: a future writer adding a record name is
        // readable by this version — and so is an `intern` record an
        // older writer stored (even one that would no longer decode).
        let index = sample();
        let records = {
            let mut r = read_container(&index.to_bytes()).unwrap();
            r.push(Record::new("future:embedding", vec![9, 9, 9]));
            r.push(Record::new("intern", vec![0xff; 3]));
            r
        };
        let back = CorpusIndex::from_bytes(write_container_v2(&records)).unwrap();
        assert_eq!(reps_of(&back), reps_of(&index));
        assert_eq!(back.interner.hashes(), index.interner.hashes());
    }

    #[test]
    fn missing_records_are_diagnosed() {
        let index = sample();
        for drop_name in ["meta", "exemeta", "exe:1", "context", "postings2"] {
            let records: Vec<Record> = read_container(&index.to_bytes())
                .unwrap()
                .into_iter()
                .filter(|r| r.name != drop_name)
                .collect();
            let err = CorpusIndex::from_bytes(write_container_v2(&records)).unwrap_err();
            assert!(
                matches!(err, IndexError::Malformed { .. }),
                "dropping {drop_name}: {err:?}"
            );
        }
    }

    #[test]
    fn unsorted_strands_are_rejected() {
        let mut bad = exe("x", &[&[5]]);
        bad.procedures[0].strands = vec![5, 3];
        let blob = segment_to_bytes(&[bad]);
        let back = CorpusIndex::from_bytes(blob.clone()).unwrap();
        assert!(matches!(
            back.ensure_all(),
            Err(IndexError::Malformed { .. })
        ));
        assert!(matches!(
            segment_from_bytes(&blob),
            Err(IndexError::Malformed { .. })
        ));
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!(
            "firmup-persist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let index = sample();
        index.save(&dir).unwrap();
        // load() decodes everything up front...
        let back = CorpusIndex::load(&dir).unwrap();
        assert!((0..back.len()).all(|i| back.store.slots[i].get().is_some()));
        assert_eq!(reps_of(&back), reps_of(&index));
        // ...open() leaves every payload for first use.
        let opened = CorpusIndex::open(&dir).unwrap();
        assert!((0..opened.len()).all(|i| opened.store.slots[i].get().is_none()));
        assert_eq!(reps_of(&opened), reps_of(&index));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_index_is_a_structured_missing_error_with_path() {
        let dir = std::env::temp_dir().join("firmup-persist-definitely-missing");
        let err = CorpusIndex::load(&dir).unwrap_err();
        assert_eq!(err.kind(), "index");
        assert!(
            matches!(
                err,
                FirmUpError::Index {
                    source: IndexError::Missing { .. },
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("corpus.fui"), "{err}");
    }

    #[test]
    fn zero_length_index_is_a_structured_truncation_with_path() {
        let dir = std::env::temp_dir().join(format!(
            "firmup-persist-empty-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(index_path(&dir), b"").unwrap();
        let err = CorpusIndex::load(&dir).unwrap_err();
        assert_eq!(err.kind(), "index");
        assert!(
            matches!(
                err,
                FirmUpError::Index {
                    source: IndexError::Truncated { .. },
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("corpus.fui"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_file_is_an_index_error_with_path() {
        let dir = std::env::temp_dir().join(format!(
            "firmup-persist-damaged-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let index = sample();
        index.save(&dir).unwrap();
        let path = index_path(&dir);
        let mut blob = std::fs::read(&path).unwrap();
        let n = blob.len();
        blob[n - 1] ^= 0x01;
        std::fs::write(&path, &blob).unwrap();
        let err = CorpusIndex::load(&dir).unwrap_err();
        assert_eq!(err.kind(), "index");
        assert!(err.to_string().contains("corpus.fui"), "{err}");
        // Damage inside an exe payload passes open() but not load(),
        // which names the file all the same.
        let index = sample();
        index.save(&dir).unwrap();
        let blob = std::fs::read(&path).unwrap();
        let e1 = read_table(&blob)
            .unwrap()
            .into_iter()
            .find(|e| e.name == "exe:1")
            .unwrap();
        let mut bad = blob;
        bad[e1.offset as usize] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(CorpusIndex::open(&dir).is_ok());
        let err = CorpusIndex::load(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                FirmUpError::Index {
                    source: IndexError::ChecksumMismatch { .. },
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("corpus.fui"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefilter_ranks_by_overlap_against_a_reloaded_index() {
        let index = CorpusIndex::from_bytes(sample().to_bytes()).unwrap();
        // Query shares {2,3} with a, {2,3} with b... weight-free check:
        // a strand counts once per executable.
        let query = ProcedureRep {
            addr: 0,
            name: None,
            strands: vec![2, 3, 7],
            block_count: 1,
            size: 4,
            interned: None,
        };
        let ranked = prefilter_candidates(&query, &index.postings, None, 0);
        let score = |e: usize| ranked.iter().find(|&&(i, _)| i == e).map(|&(_, s)| s);
        assert_eq!(score(0), Some(2.0)); // a: strands 2, 3
        assert_eq!(score(1), Some(2.0)); // b: strands 2, 3
        assert_eq!(score(2), Some(1.0)); // c: strand 7
        let top2 = prefilter_candidates(&query, &index.postings, None, 2);
        assert_eq!(top2.len(), 2);
        assert_eq!((top2[0].0, top2[1].0), (0, 1)); // ties break low-index
    }

    #[test]
    fn segments_roundtrip() {
        let reps = reps_of(&sample());
        let blob = segment_to_bytes(&reps);
        assert_eq!(segment_from_bytes(&blob).unwrap(), reps);
        assert!(segment_from_bytes(&segment_to_bytes(&[]))
            .unwrap()
            .is_empty());
        // Damage is diagnosed, not panicked on.
        let mut bad = blob.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert!(segment_from_bytes(&bad).is_err());
    }

    #[test]
    fn checkpoint_commit_resume_and_damage_detection() {
        let dir = std::env::temp_dir().join(format!(
            "firmup-checkpoint-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let reps = reps_of(&sample());

        // Fresh build: commit two segments.
        let (mut ckpt, stats) = IndexCheckpoint::open(&dir, false).unwrap();
        assert_eq!(stats, CheckpointStats::default());
        ckpt.commit(0x11, &reps[0..1]).unwrap();
        ckpt.commit(0x22, &reps[1..3]).unwrap();
        assert!(ckpt.committed(0x11) && ckpt.committed(0x22) && !ckpt.committed(0x33));

        // Resume: both segments verify and reload intact.
        let (ckpt, stats) = IndexCheckpoint::open(&dir, true).unwrap();
        assert_eq!(
            (stats.reused, stats.damaged, stats.torn_tail),
            (2, 0, false)
        );
        assert_eq!(ckpt.load_segment(0x11).unwrap(), reps[0..1]);
        assert_eq!(ckpt.load_segment(0x22).unwrap(), reps[1..3]);

        // Damage one segment on disk: resume drops exactly that entry.
        let seg = segments_dir(&dir).join(segment_file_name(0x11));
        let mut blob = std::fs::read(&seg).unwrap();
        blob[10] ^= 0xff;
        std::fs::write(&seg, &blob).unwrap();
        let (ckpt, stats) = IndexCheckpoint::open(&dir, true).unwrap();
        assert_eq!((stats.reused, stats.damaged), (1, 1));
        assert!(!ckpt.committed(0x11) && ckpt.committed(0x22));

        // A torn journal tail is discarded and flagged once: the
        // rewrite means the *next* resume is clean.
        let journal = journal_path(&dir);
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.extend_from_slice(b"seg 00000000000000ab 0000");
        std::fs::write(&journal, &bytes).unwrap();
        let (_, stats) = IndexCheckpoint::open(&dir, true).unwrap();
        assert!(stats.torn_tail);
        let (_, stats) = IndexCheckpoint::open(&dir, true).unwrap();
        assert!(!stats.torn_tail, "journal rewrite did not stick");

        // Fresh open clears everything.
        let (ckpt, _) = IndexCheckpoint::open(&dir, false).unwrap();
        assert_eq!(ckpt.segments(), 0);
        assert!(!journal.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seals_record_roundtrips_and_is_omitted_when_empty() {
        let mut index = sample();
        // No seals: bytes are exactly the pre-incremental layout (no
        // `seals` record at all).
        let plain = index.to_bytes();
        assert!(read_container(&plain)
            .unwrap()
            .iter()
            .all(|r| r.name != "seals"));
        index.set_seals(vec![0xaa, 0xbb, 0xcc]);
        let sealed = index.to_bytes();
        assert_ne!(plain, sealed);
        let back = CorpusIndex::from_bytes(sealed.clone()).unwrap();
        assert_eq!(back.seals(), &[0xaa, 0xbb, 0xcc]);
        // Re-serialization keeps the seal list (compact depends on it).
        back.ensure_all().unwrap();
        assert_eq!(back.to_bytes(), sealed);
        assert_eq!(reps_of(&back), reps_of(&index));
    }

    #[test]
    fn query_records_roundtrip_and_carry_through_resave() {
        let mut index = sample();
        let plain = index.to_bytes();
        let q = QueryRecord {
            digest: 0xfeed,
            version: "1.2".into(),
            rep: exe("query", &[&[4, 8], &[15]]),
        };
        let name = query_record_name("wget", Arch::Mips32);
        assert_eq!(parse_query_record_name(&name), Some(("wget", Arch::Mips32)));
        assert_eq!(parse_query_record_name("query:wget:vax"), None);
        index.set_query(name.clone(), &q);
        let blob = index.to_bytes();
        // The record sits between the executables and `context`, so the
        // container's tail (postings2) is where it always was.
        let names: Vec<String> = read_container(&blob)
            .unwrap()
            .into_iter()
            .map(|r| r.name)
            .collect();
        let at = names.iter().position(|n| *n == name).unwrap();
        assert_eq!(names[at - 1], "exe:2");
        assert_eq!(names[at + 1], "context");
        let loaded = CorpusIndex::from_bytes(blob.clone()).unwrap();
        assert_eq!(loaded.query_names().collect::<Vec<_>>(), [name.as_str()]);
        assert_eq!(loaded.query(&name).unwrap().unwrap(), q);
        assert!(loaded.query("query:dbus:x86").is_none());
        // load → save carries the record forward byte for byte.
        loaded.ensure_all().unwrap();
        assert_eq!(loaded.to_bytes(), blob);
        assert_eq!(reps_of(&loaded), reps_of(&index));
        assert_ne!(plain, blob);
        // Every truncation and every single-byte flip of the payload is
        // rejected by the record's own checksum.
        let payload = encode_query_record(&q);
        for cut in 0..payload.len() {
            assert!(decode_query_record(&payload[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..payload.len() {
            let mut p = payload.clone();
            p[i] ^= 0x55;
            assert!(decode_query_record(&p).is_err(), "flip {i}");
        }
    }

    /// Build the on-disk shape `index --add` leaves behind: a base
    /// `corpus.fui` over `base_reps`, plus one live segment per entry
    /// of `segments`, published via the manifest at `epoch`.
    pub(super) fn write_layout(
        dir: &std::path::Path,
        base: &CorpusIndex,
        segments: &[(u64, &[ExecutableRep])],
        epoch: u64,
    ) {
        use firmup_firmware::index::{write_manifest, Manifest};
        base.save(dir).unwrap();
        std::fs::create_dir_all(segments_dir(dir)).unwrap();
        let mut entries = Vec::new();
        for &(digest, reps) in segments {
            let blob = segment_to_bytes(reps);
            let name = segment_file_name(digest);
            std::fs::write(segments_dir(dir).join(&name), &blob).unwrap();
            entries.push(JournalEntry {
                digest,
                crc: crc32(&blob),
                executables: reps.len() as u32,
                segment: name,
            });
        }
        write_manifest(dir, &Manifest { epoch, entries }).unwrap();
    }

    #[test]
    fn multi_segment_open_unions_live_segments() {
        let dir = std::env::temp_dir().join(format!(
            "firmup-union-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let all = reps_of(&sample());
        let mut base = CorpusIndex::build(all[0..1].to_vec());
        base.set_seals(vec![0xa1]);
        write_layout(&dir, &base, &[(0xb2, &all[1..2]), (0xc3, &all[2..3])], 7);

        let full = CorpusIndex::build(all.clone());
        for index in [
            CorpusIndex::open(&dir).unwrap(),
            CorpusIndex::load(&dir).unwrap(),
        ] {
            assert_eq!(index.len(), 3);
            assert_eq!(index.segment_epoch(), 7);
            assert_eq!(index.segment_count(), 2);
            assert_eq!(index.seals(), &[0xa1, 0xb2, 0xc3]);
            assert_eq!(reps_of(&index), all);
            // The merged derived structures are exactly the
            // from-scratch build's.
            assert_eq!(index.context.entries(), full.context.entries());
            assert_eq!(index.context.docs(), full.context.docs());
            assert_eq!(index.postings.entries(), full.postings.entries());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_segments_are_skipped_on_open() {
        // The compact crash window: corpus.fui already holds an image
        // whose segment the (not yet rewritten) manifest still names.
        let dir = std::env::temp_dir().join(format!(
            "firmup-sealskip-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let all = reps_of(&sample());
        let mut base = CorpusIndex::build(all.clone());
        base.set_seals(vec![0xa1, 0xb2, 0xc3]);
        // Manifest still lists 0xb2 and 0xc3 — both sealed, both skipped.
        write_layout(&dir, &base, &[(0xb2, &all[1..2]), (0xc3, &all[2..3])], 9);
        let index = CorpusIndex::open(&dir).unwrap();
        assert_eq!(index.len(), 3, "sealed segments must not double-count");
        assert_eq!(index.segment_count(), 0);
        assert_eq!(index.segment_epoch(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn add_history_then_union_reproduces_full_build_bytes() {
        // The compact contract: serializing the unioned index writes
        // the same bytes a from-scratch build over the same images (in
        // the same order, with the same seals) would.
        let dir = std::env::temp_dir().join(format!(
            "firmup-compacteq-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let all = reps_of(&sample());
        let mut base = CorpusIndex::build(all[0..1].to_vec());
        base.set_seals(vec![0xa1]);
        write_layout(&dir, &base, &[(0xb2, &all[1..2]), (0xc3, &all[2..3])], 2);
        let union = CorpusIndex::load(&dir).unwrap();
        let mut full = CorpusIndex::build(all);
        full.set_seals(vec![0xa1, 0xb2, 0xc3]);
        assert_eq!(union.to_bytes(), full.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsidecared_segments_are_malformed() {
        // Every segment writer emits the exemeta/context/postings2
        // sidecars; one without them is damaged, not a second layout.
        let dir = std::env::temp_dir().join(format!(
            "firmup-plainseg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let all = reps_of(&sample());
        let base = CorpusIndex::build(all[0..1].to_vec());
        base.save(&dir).unwrap();
        std::fs::create_dir_all(segments_dir(&dir)).unwrap();
        let mut records = vec![Record::new("meta", 2u32.to_le_bytes().to_vec())];
        for (i, exe) in all[1..3].iter().enumerate() {
            records.push(Record::new(format!("exe:{i}"), encode_executable(exe)));
        }
        let blob = write_container_v2(&records);
        assert!(matches!(
            segment_from_bytes(&blob),
            Err(IndexError::Malformed { .. })
        ));
        let name = segment_file_name(0xdd);
        std::fs::write(segments_dir(&dir).join(&name), &blob).unwrap();
        firmup_firmware::index::write_manifest(
            &dir,
            &firmup_firmware::index::Manifest {
                epoch: 1,
                entries: vec![JournalEntry {
                    digest: 0xdd,
                    crc: crc32(&blob),
                    executables: 2,
                    segment: name,
                }],
            },
        )
        .unwrap();
        let err = CorpusIndex::open(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                FirmUpError::Index {
                    source: IndexError::Malformed { .. },
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("seg-"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_live_segment_fails_open_with_structured_error() {
        let dir = std::env::temp_dir().join(format!(
            "firmup-badseg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let all = reps_of(&sample());
        let base = CorpusIndex::build(all[0..1].to_vec());
        write_layout(&dir, &base, &[(0xb2, &all[1..2])], 1);
        let seg = segments_dir(&dir).join(segment_file_name(0xb2));
        let mut blob = std::fs::read(&seg).unwrap();
        let n = blob.len();
        blob[n / 2] ^= 0xff;
        std::fs::write(&seg, &blob).unwrap();
        let err = CorpusIndex::open(&dir).unwrap_err();
        assert_eq!(err.kind(), "index");
        assert!(err.to_string().contains("checksum"), "{err}");
        // A missing segment file is diagnosed as Missing, not Io.
        std::fs::remove_file(&seg).unwrap();
        let err = CorpusIndex::open(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                FirmUpError::Index {
                    source: IndexError::Missing { .. },
                    ..
                }
            ),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_version_is_pinned() {
        // A reminder to bump deliberately: to_bytes writes format 2,
        // the only layout this build reads.
        assert_eq!(FORMAT_V2, 2);
        assert_eq!(&sample().to_bytes()[4..8], &2u32.to_le_bytes());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::reps_of;
    use super::*;
    use proptest::prelude::*;

    fn arb_rep() -> impl Strategy<Value = ExecutableRep> {
        (
            "[a-z]{1,12}",
            0..4usize,
            proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..20), 0..6),
        )
            .prop_map(|(id, arch_i, strand_sets)| {
                let arch = Arch::all()[arch_i % Arch::all().len()];
                ExecutableRep {
                    id,
                    arch,
                    procedures: strand_sets
                        .into_iter()
                        .enumerate()
                        .map(|(i, mut strands)| {
                            strands.sort_unstable();
                            strands.dedup();
                            ProcedureRep {
                                addr: (i as u32) * 0x20,
                                name: (i % 3 == 0).then(|| format!("f{i}")),
                                strands,
                                block_count: i,
                                size: i as u32 * 4,
                                interned: None,
                            }
                        })
                        .collect(),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Write → read reproduces identical strand hashes (and all
        /// other fields) for arbitrary corpora.
        #[test]
        fn roundtrip_property(reps in proptest::collection::vec(arb_rep(), 0..5)) {
            let index = CorpusIndex::build(reps);
            let back = CorpusIndex::from_bytes(index.to_bytes()).unwrap();
            let want = reps_of(&index);
            prop_assert_eq!(&reps_of(&back), &want);
            prop_assert_eq!(back.context.entries(), index.context.entries());
            prop_assert_eq!(back.postings.entries(), index.postings.entries());
            // Identity metadata is consistent with the decoded reps.
            for (i, w) in want.iter().enumerate() {
                prop_assert_eq!(back.exe_id(i), &w.id);
                prop_assert_eq!(back.exe_arch(i), w.arch);
            }
        }

        /// The interner is never stored, so every constructor must
        /// derive the same one: the sorted set of every strand in the
        /// corpus, which is the postings key set — on a built index, a
        /// decoded one, and one unioned from an `index --add` history.
        #[test]
        fn interner_is_the_postings_key_set(
            reps in proptest::collection::vec(arb_rep(), 0..5),
            split in any::<proptest::sample::Index>(),
        ) {
            let strands = |reps: &[ExecutableRep]| {
                let mut all: Vec<u64> = reps
                    .iter()
                    .flat_map(|e| e.procedures.iter())
                    .flat_map(|p| p.strands.iter().copied())
                    .collect();
                all.sort_unstable();
                all.dedup();
                all
            };
            let want = strands(&reps);
            let built = CorpusIndex::build(reps.clone());
            let decoded = CorpusIndex::from_bytes(built.to_bytes()).unwrap();
            static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "firmup-interner-prop-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let at = if reps.is_empty() { 0 } else { split.index(reps.len() + 1) };
            let base = CorpusIndex::build(reps[..at].to_vec());
            let segments: Vec<(u64, &[ExecutableRep])> = (at..reps.len())
                .map(|i| (0x100 + i as u64, &reps[i..i + 1]))
                .collect();
            super::tests::write_layout(&dir, &base, &segments, 1);
            let unioned = CorpusIndex::open(&dir).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            for ix in [&built, &decoded, &unioned] {
                prop_assert_eq!(ix.interner.hashes(), ix.postings.keys());
                prop_assert_eq!(ix.interner.hashes(), &want[..]);
                // Every decoded rep interns completely against it.
                for rep in reps_of(ix) {
                    for p in &rep.procedures {
                        prop_assert!(p.interned.as_ref().is_some_and(|s| s.complete));
                    }
                }
            }
        }
    }
}
