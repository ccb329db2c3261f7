//! The on-disk corpus-index container ("FUIX") — byte-level layer.
//!
//! `firmup index` persists lifted-and-canonicalized executables so that
//! repeated scans (`firmup scan --index DIR`) skip the dominant
//! unpack → parse → lift → canonicalize cost entirely. This module owns
//! the *container*: a versioned, checksummed, truncation-safe record
//! file, deliberately shaped like the FWIM image format ([`crate::image`])
//! so the same fault-injection operators exercise both parsers. The
//! *typed* layer — how `ExecutableRep`, the strand postings table, and
//! the global context are encoded into record payloads — lives in
//! `firmup-core::persist`, which depends on this crate (never the other
//! way around).
//!
//! # File layout (format version 2)
//!
//! ```text
//! offset 0   magic           b"FUIX"
//! offset 4   format version  u32 LE (2)
//! offset 8   record count    u32 LE (N, capped at 1_048_576)
//! then       record table    N × { name: u32 len + UTF-8 bytes,
//!                                  payload offset: u64 LE (absolute),
//!                                  payload length: u32 LE,
//!                                  payload crc32:  u32 LE }
//! then       table crc32     u32 LE over bytes [4 .. table end)
//! then       payload region  (offsets point into it, table order)
//! ```
//!
//! The explicit offsets let a reader locate any record without touching
//! the others — [`read_table`] parses and verifies *only* the header and
//! table (the table CRC catches offset-table bit flips eagerly), and
//! [`record_bytes`] bounds-checks and CRC-verifies one payload on
//! demand. That is the substrate of the lazy `CorpusIndex` load path in
//! `firmup-core::persist`: postings and metadata records are decoded at
//! open, each `exe:<i>` only when a scan actually needs that candidate.
//!
//! Integrity and forward-compatibility rules (see ARCHITECTURE.md §4 for
//! the full specification):
//!
//! * every multi-byte read is bounds-checked — a cut-short file yields
//!   [`IndexError::Truncated`], never a panic or a wild slice;
//! * each record payload carries a CRC-32 ([`crate::crc::crc32`]); a
//!   mismatch yields [`IndexError::ChecksumMismatch`] naming the record;
//! * the record table carries its own CRC-32, so a damaged offset table
//!   is rejected at open instead of steering lazy reads to wrong byte
//!   ranges;
//! * a future *compatible* extension adds new record names — readers
//!   must skip records they do not recognize;
//! * an *incompatible* change bumps the format version; a reader accepts
//!   exactly [`FORMAT_V2`] and answers any other version (the retired
//!   version 1, a zeroed header, a future number) with
//!   [`IndexError::UnsupportedVersion`] instead of misparsing it. An
//!   index is a cache, so the remedy is always a rebuild.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::crc::crc32;

/// Container magic (`b"FUIX"` — FirmUp IndeX).
pub const MAGIC: &[u8; 4] = b"FUIX";

/// Format version 2, the only one this build reads or writes: record
/// table with absolute payload offsets and a table-level CRC-32,
/// enabling lazy per-record reads. Bump only for layout changes an
/// older reader would misparse; additive changes use new record names
/// instead.
pub const FORMAT_V2: u32 = 2;

/// Highest record count a reader accepts; anything larger is treated as
/// a corrupt header (the same defensive cap the FWIM unpacker applies
/// to its part table).
pub const MAX_RECORDS: u32 = 1 << 20;

/// File name of the index inside its directory (`firmup index --out DIR`
/// writes `DIR/corpus.fui`).
pub const INDEX_FILE: &str = "corpus.fui";

/// Path of the index file inside an index directory.
pub fn index_path(dir: &Path) -> PathBuf {
    dir.join(INDEX_FILE)
}

/// One named, checksummed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record name (e.g. `meta`, `exe:3`, `postings`, `context`).
    pub name: String,
    /// Raw payload bytes; the typed encoding is `firmup-core`'s concern.
    pub payload: Vec<u8>,
}

impl Record {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, payload: Vec<u8>) -> Record {
        Record {
            name: name.into(),
            payload,
        }
    }
}

/// Structured container read failure. Every variant is a *diagnosis*:
/// chaos testing requires that no input — bit-flipped, truncated,
/// version-bumped, or oversized — escalates past this enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// No index file exists at the path (distinct from a damaged one:
    /// the fix is `firmup index`, not repair).
    Missing {
        /// Path that was opened.
        path: String,
    },
    /// The blob does not start with the FUIX magic.
    NotAnIndex,
    /// The file declares a format version other than the one this
    /// reader supports; the fix is a rebuild with `firmup index`.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The one version this reader supports.
        supported: u32,
    },
    /// The file ran out while reading the named structure.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A record payload's CRC-32 did not match its table entry.
    ChecksumMismatch {
        /// Name of the damaged record.
        record: String,
    },
    /// A structurally invalid value (bogus record count, non-UTF-8 name,
    /// undecodable typed payload).
    Malformed {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Missing { path } => write!(
                f,
                "no index at {path} — run `firmup index` first (or wait for an in-progress build)"
            ),
            IndexError::NotAnIndex => f.write_str("not a firmup index (bad magic)"),
            IndexError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported index format version {found}: this build reads only format \
                 {supported} — rebuild with `firmup index`"
            ),
            IndexError::Truncated { context } => {
                write!(f, "truncated index while reading {context}")
            }
            IndexError::ChecksumMismatch { record } => {
                write!(f, "index record `{record}` failed its checksum")
            }
            IndexError::Malformed { reason } => write!(f, "malformed index: {reason}"),
        }
    }
}

impl std::error::Error for IndexError {}

fn push_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn read_u32(b: &[u8], pos: &mut usize, context: &'static str) -> Result<u32, IndexError> {
    let s = b
        .get(*pos..pos.saturating_add(4))
        .ok_or(IndexError::Truncated { context })?;
    *pos += 4;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

fn read_u64(b: &[u8], pos: &mut usize, context: &'static str) -> Result<u64, IndexError> {
    let s = b
        .get(*pos..pos.saturating_add(8))
        .ok_or(IndexError::Truncated { context })?;
    *pos += 8;
    Ok(u64::from_le_bytes([
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
    ]))
}

fn read_str(b: &[u8], pos: &mut usize, context: &'static str) -> Result<String, IndexError> {
    let len = read_u32(b, pos, context)? as usize;
    if len > b.len() {
        return Err(IndexError::Truncated { context });
    }
    let s = b
        .get(*pos..pos.saturating_add(len))
        .ok_or(IndexError::Truncated { context })?;
    *pos += len;
    String::from_utf8(s.to_vec()).map_err(|_| IndexError::Malformed {
        reason: format!("non-UTF-8 string in {context}"),
    })
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Append `v` as an LEB128 varint: 7 data bits per byte, least
/// significant group first, high bit set on every byte but the last.
/// A `u64` takes at most 10 bytes; values below 128 take one.
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read one LEB128 varint written by [`push_varint`]. Structured
/// failure on truncation, on runs longer than 10 bytes, and on a 10th
/// byte that would shift bits past the 64th — a damaged length can
/// never escalate into a panic or a silently wrapped value.
pub fn read_varint(b: &[u8], pos: &mut usize, context: &'static str) -> Result<u64, IndexError> {
    let mut v: u64 = 0;
    for i in 0..10 {
        let byte = *b
            .get(pos.saturating_add(i))
            .ok_or(IndexError::Truncated { context })?;
        let data = u64::from(byte & 0x7f);
        // Bytes 0..9 contribute 63 bits; the 10th may only carry the
        // single remaining one.
        if i == 9 && data > 1 {
            return Err(IndexError::Malformed {
                reason: format!("varint overflows u64 in {context}"),
            });
        }
        v |= data << (7 * i);
        if byte & 0x80 == 0 {
            *pos += i + 1;
            return Ok(v);
        }
    }
    Err(IndexError::Malformed {
        reason: format!("varint longer than 10 bytes in {context}"),
    })
}

/// Serialize records into a version-2 FUIX container blob: the record
/// table carries absolute payload offsets and is sealed with its own
/// CRC-32, so readers can verify the table eagerly and fetch payloads
/// lazily.
pub fn write_container_v2(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_V2.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    // The table's byte size is known up front: name fields plus the
    // fixed 16 bytes (offset u64 + len u32 + crc u32) per record, plus
    // the trailing table CRC.
    let table_bytes: usize = records.iter().map(|r| 4 + r.name.len() + 16).sum();
    let mut offset = (out.len() + table_bytes + 4) as u64;
    for r in records {
        push_str(&mut out, &r.name);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&r.payload).to_le_bytes());
        offset += r.payload.len() as u64;
    }
    let table_crc = crc32(&out[4..]);
    out.extend_from_slice(&table_crc.to_le_bytes());
    for r in records {
        out.extend_from_slice(&r.payload);
    }
    out
}

/// One parsed record-table row: where a payload lives and how to verify
/// it, without having read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// Record name.
    pub name: String,
    /// Absolute offset of the payload in the blob.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// Parse and verify a FUIX container's header and record table only —
/// no payload bytes are read. Returns one [`TableEntry`] per record.
/// The table CRC is verified here, so a bit-flipped or truncated offset
/// table is a structured error at open — it can never steer a later
/// [`record_bytes`] to a wrong range.
///
/// # Errors
///
/// [`IndexError::NotAnIndex`] (bad magic),
/// [`IndexError::UnsupportedVersion`] (any version but [`FORMAT_V2`]),
/// [`IndexError::Truncated`] (header or table cut short),
/// [`IndexError::Malformed`] (bogus record count, non-UTF-8 name,
/// payload offset inside the table), or
/// [`IndexError::ChecksumMismatch`] on the table CRC (reported as record
/// `<table>`).
pub fn read_table(blob: &[u8]) -> Result<Vec<TableEntry>, IndexError> {
    if blob.len() < 4 || &blob[0..4] != MAGIC {
        return Err(IndexError::NotAnIndex);
    }
    let mut pos = 4usize;
    let version = read_u32(blob, &mut pos, "format version")?;
    if version != FORMAT_V2 {
        return Err(IndexError::UnsupportedVersion {
            found: version,
            supported: FORMAT_V2,
        });
    }
    let count = read_u32(blob, &mut pos, "record count")?;
    if count > MAX_RECORDS {
        return Err(IndexError::Malformed {
            reason: format!("record count {count} exceeds the {MAX_RECORDS} cap"),
        });
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name = read_str(blob, &mut pos, "record table")?;
        let offset = read_u64(blob, &mut pos, "record table")?;
        let len = read_u32(blob, &mut pos, "record table")?;
        let crc = read_u32(blob, &mut pos, "record table")?;
        entries.push(TableEntry {
            name,
            offset,
            len,
            crc,
        });
    }
    let table_end = pos;
    let declared = read_u32(blob, &mut pos, "record table checksum")?;
    if crc32(&blob[4..table_end]) != declared {
        return Err(IndexError::ChecksumMismatch {
            record: "<table>".to_string(),
        });
    }
    // Offsets pointing back into the header/table would alias structure
    // bytes as payload — structurally invalid even if the payload CRC
    // happens to hold.
    let payload_base = pos as u64;
    if let Some(e) = entries.iter().find(|e| e.offset < payload_base) {
        return Err(IndexError::Malformed {
            reason: format!(
                "record `{}` declares payload offset {} inside the table (payloads start at \
                 {payload_base})",
                e.name, e.offset
            ),
        });
    }
    Ok(entries)
}

/// Fetch and verify one record's payload bytes by its table entry —
/// the lazy read path. Bounds are checked (a cut-short payload region
/// is [`IndexError::Truncated`]) and the payload CRC-32 is verified on
/// every call.
///
/// # Errors
///
/// [`IndexError::Truncated`] when the blob ends before the payload
/// range, [`IndexError::ChecksumMismatch`] naming the record when its
/// bytes fail the CRC.
pub fn record_bytes<'a>(blob: &'a [u8], entry: &TableEntry) -> Result<&'a [u8], IndexError> {
    let start = usize::try_from(entry.offset).map_err(|_| IndexError::Truncated {
        context: "record payload",
    })?;
    let payload = blob
        .get(start..start.saturating_add(entry.len as usize))
        .ok_or(IndexError::Truncated {
            context: "record payload",
        })?;
    if crc32(payload) != entry.crc {
        return Err(IndexError::ChecksumMismatch {
            record: entry.name.clone(),
        });
    }
    Ok(payload)
}

/// Parse a FUIX container blob back into its records, eagerly
/// verifying every payload.
///
/// # Errors
///
/// Returns a structured [`IndexError`] for every class of damage: wrong
/// magic, unsupported version, truncation anywhere (header, table,
/// payload region), a bogus record count, a non-UTF-8 record name, a
/// damaged table checksum, or a payload whose CRC-32 disagrees with
/// the table. Unlike the FWIM unpacker there is no carving fallback and
/// no quarantine: an index is a *cache*, so any damage invalidates the
/// whole file and the caller rebuilds it from the source images.
pub fn read_container(blob: &[u8]) -> Result<Vec<Record>, IndexError> {
    let entries = read_table(blob)?;
    let mut records = Vec::with_capacity(entries.len());
    for entry in entries {
        let payload = record_bytes(blob, &entry)?.to_vec();
        records.push(Record {
            name: entry.name,
            payload,
        });
    }
    Ok(records)
}

// ---- manifest journal & checkpoint segments ------------------------------

/// File name of the checkpoint manifest journal inside an index
/// directory: one line per committed per-image segment.
pub const JOURNAL_FILE: &str = "journal.fuj";

/// Subdirectory holding per-image checkpoint segments.
pub const SEGMENTS_DIR: &str = "segments";

/// Path of the manifest journal inside an index directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// Path of the segments subdirectory inside an index directory.
pub fn segments_dir(dir: &Path) -> PathBuf {
    dir.join(SEGMENTS_DIR)
}

/// Canonical segment file name for an image digest.
pub fn segment_file_name(digest: u64) -> String {
    format!("seg-{digest:016x}.fui")
}

/// Content digest of a source image: FNV-1a 64 over the path tag and
/// the raw bytes (chunk-delimited, so tag/content confusion is
/// impossible). Identifies which segment belongs to which image across
/// restarts.
pub fn image_digest(tag: &str, bytes: &[u8]) -> u64 {
    crate::durable::fnv1a_64(&[tag.as_bytes(), bytes])
}

/// One committed checkpoint: image digest → durable segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// [`image_digest`] of the source image.
    pub digest: u64,
    /// CRC-32 of the full segment file's bytes.
    pub crc: u32,
    /// Number of executables the segment holds.
    pub executables: u32,
    /// Segment file name inside [`SEGMENTS_DIR`].
    pub segment: String,
}

/// Render one journal line: `seg <digest> <crc> <count> <file> <linecrc>\n`,
/// where `linecrc` is the CRC-32 of everything before its own field —
/// a torn append (crash mid-write) fails this check and is discarded by
/// [`parse_journal`] instead of poisoning the manifest.
pub fn render_journal_entry(e: &JournalEntry) -> String {
    let body = format!(
        "seg {:016x} {:08x} {} {}",
        e.digest, e.crc, e.executables, e.segment
    );
    let linecrc = crc32(body.as_bytes());
    format!("{body} {linecrc:08x}\n")
}

fn parse_journal_line(line: &str) -> Option<JournalEntry> {
    let (body, crc_field) = line.rsplit_once(' ')?;
    let linecrc = u32::from_str_radix(crc_field.trim(), 16).ok()?;
    if crc32(body.as_bytes()) != linecrc {
        return None;
    }
    let mut fields = body.split(' ');
    if fields.next()? != "seg" {
        return None;
    }
    let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
    let crc = u32::from_str_radix(fields.next()?, 16).ok()?;
    let executables = fields.next()?.parse().ok()?;
    let segment = fields.next()?.to_string();
    if fields.next().is_some() || segment.contains('/') || segment.contains("..") {
        return None;
    }
    Some(JournalEntry {
        digest,
        crc,
        executables,
        segment,
    })
}

/// Parse a manifest journal: valid entries in order, plus whether a
/// torn (unparseable) tail was found. Parsing stops at the first bad
/// line — anything after a torn append is untrusted.
pub fn parse_journal(bytes: &[u8]) -> (Vec<JournalEntry>, bool) {
    let text = String::from_utf8_lossy(bytes);
    let mut entries = Vec::new();
    for line in text.split('\n') {
        if line.is_empty() {
            continue;
        }
        match parse_journal_line(line) {
            Some(e) => entries.push(e),
            None => return (entries, true),
        }
    }
    (entries, false)
}

/// Append one entry to the journal and fsync it. When the
/// `journal.mid_append` crash point is armed, the entry is staged in
/// two synced halves so an injected crash leaves a *real* torn tail on
/// disk (which [`parse_journal`] must then discard).
///
/// # Errors
///
/// Any filesystem failure opening, writing, or syncing the journal.
pub fn append_journal(path: &Path, entry: &JournalEntry) -> std::io::Result<()> {
    use std::io::Write;
    let line = render_journal_entry(entry);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if crate::durable::crash_armed(crate::durable::CP_MID_JOURNAL_APPEND) {
        let half = line.len() / 2;
        f.write_all(&line.as_bytes()[..half])?;
        f.sync_all()?;
        crate::durable::crash_point(crate::durable::CP_MID_JOURNAL_APPEND);
        f.write_all(&line.as_bytes()[half..])?;
    } else {
        f.write_all(line.as_bytes())?;
    }
    f.sync_all()
}

// ---- live-segment manifest (incremental `index --add`) -------------------

/// File name of the live-segment manifest inside an index directory.
///
/// The manifest is the *reader-visible* list of segments: `corpus.fui`
/// plus the manifest's segments, in manifest order, are the whole
/// corpus. The journal ([`JOURNAL_FILE`]) remains the *writer*'s
/// crash-recovery log — a segment can be journaled (durable, reusable
/// by `--resume`) without being manifested (visible to readers) yet.
pub const MANIFEST_FILE: &str = "segments.fum";

/// Path of the live-segment manifest inside an index directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

/// Parsed live-segment manifest: a generation counter plus the ordered
/// list of live (not-yet-compacted) segments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Generation counter: bumped by every `index --add` and `compact`
    /// publish, so `firmup serve` can report reload progress.
    pub epoch: u64,
    /// Live segments in append order (the merge order readers use).
    pub entries: Vec<JournalEntry>,
}

/// Render a manifest document. Every line carries a trailing CRC-32 of
/// its own body (the journal-line convention), and the footer repeats
/// the entry count — a truncated or torn manifest fails one of the two
/// and is diagnosed instead of silently dropping segments:
///
/// ```text
/// fum <epoch> <linecrc>
/// seg <digest> <crc> <count> <file> <linecrc>   (one per segment)
/// end <n> <linecrc>
/// ```
pub fn render_manifest(m: &Manifest) -> String {
    let mut out = String::new();
    let header = format!("fum {}", m.epoch);
    out.push_str(&format!("{header} {:08x}\n", crc32(header.as_bytes())));
    for e in &m.entries {
        out.push_str(&render_journal_entry(e));
    }
    let footer = format!("end {}", m.entries.len());
    out.push_str(&format!("{footer} {:08x}\n", crc32(footer.as_bytes())));
    out
}

/// Tolerant manifest walk (the fsck view): header epoch if readable,
/// the valid prefix of entries, and whether the document is damaged
/// (torn tail, bad line CRC, missing or disagreeing footer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestScan {
    /// Epoch from the header, when the header line was intact.
    pub epoch: Option<u64>,
    /// Longest valid prefix of segment entries.
    pub entries: Vec<JournalEntry>,
    /// Whether any damage was found (the strict parse would fail).
    pub torn: bool,
}

fn parse_crc_line<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let (body, crc_field) = line.rsplit_once(' ')?;
    let linecrc = u32::from_str_radix(crc_field.trim(), 16).ok()?;
    if crc32(body.as_bytes()) != linecrc {
        return None;
    }
    body.strip_prefix(keyword)?.strip_prefix(' ')
}

/// Walk a manifest tolerantly: never fails, reports the valid prefix
/// and whether the document was damaged. `fsck --repair` rewrites the
/// manifest from this prefix ("repair to a consistent prefix").
pub fn scan_manifest(bytes: &[u8]) -> ManifestScan {
    let text = String::from_utf8_lossy(bytes);
    let mut lines = text.split('\n').filter(|l| !l.is_empty());
    let epoch = lines
        .next()
        .and_then(|l| parse_crc_line(l, "fum"))
        .and_then(|rest| rest.parse::<u64>().ok());
    let mut entries = Vec::new();
    let mut torn = epoch.is_none();
    let mut footer_count: Option<usize> = None;
    for line in lines {
        if torn && epoch.is_none() {
            // Header damage poisons everything after it: a seg line we
            // cannot anchor to an epoch is untrusted.
            break;
        }
        if let Some(rest) = parse_crc_line(line, "end") {
            footer_count = rest.parse::<usize>().ok();
            break;
        }
        match parse_journal_line(line) {
            Some(e) => entries.push(e),
            None => {
                torn = true;
                break;
            }
        }
    }
    if footer_count != Some(entries.len()) {
        torn = true;
    }
    ManifestScan {
        epoch,
        entries,
        torn,
    }
}

/// Parse a manifest strictly — the reader path. Any damage (bad header,
/// torn seg line, missing or disagreeing footer) is a structured
/// [`IndexError::Malformed`]: a reader must never silently scan a
/// shorter corpus than the writer published.
///
/// # Errors
///
/// [`IndexError::Malformed`] naming the damage.
pub fn parse_manifest(bytes: &[u8]) -> Result<Manifest, IndexError> {
    let scan = scan_manifest(bytes);
    if scan.torn {
        return Err(IndexError::Malformed {
            reason: format!(
                "torn segment manifest ({} valid entr{} salvageable — run `firmup fsck --repair`)",
                scan.entries.len(),
                if scan.entries.len() == 1 { "y" } else { "ies" }
            ),
        });
    }
    Ok(Manifest {
        epoch: scan.epoch.unwrap_or(0),
        entries: scan.entries,
    })
}

/// Read the manifest of an index directory. A missing file is
/// `Ok(None)` — a plain single-file index (or one written by an older
/// build) simply has no live segments.
///
/// # Errors
///
/// [`IndexError::Malformed`] for a damaged manifest, or an I/O failure
/// surfaced as [`IndexError::Malformed`] naming the path.
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>, IndexError> {
    let path = manifest_path(dir);
    match std::fs::read(&path) {
        Ok(bytes) => parse_manifest(&bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(IndexError::Malformed {
            reason: format!("reading {}: {e}", path.display()),
        }),
    }
}

/// Atomically publish a manifest (tmp + fsync + rename via
/// [`crate::durable::write_atomic`], so the `durable.*` crash points
/// cover the publish step).
///
/// # Errors
///
/// Any filesystem failure of the atomic write.
pub fn write_manifest(dir: &Path, m: &Manifest) -> std::io::Result<()> {
    crate::durable::write_atomic(&manifest_path(dir), render_manifest(m).as_bytes())
}

// ---- tolerant per-record verification (fsck) -----------------------------

/// Verdict for one record during a tolerant [`scan_container`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordStatus {
    /// Payload present and its CRC-32 matches.
    Ok,
    /// Payload present but its CRC-32 disagrees with the table.
    ChecksumMismatch,
    /// The payload region ends before this record's bytes.
    TruncatedPayload,
}

/// One row of an fsck verdict table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordCheck {
    /// Record name from the table.
    pub name: String,
    /// Declared payload length.
    pub len: u32,
    /// Verification verdict.
    pub status: RecordStatus,
}

/// Walk a FUIX container *tolerantly*, producing a per-record verdict
/// instead of stopping at the first damaged record — `firmup fsck`'s
/// view. Header or record-table damage still fails the whole file (no
/// table means nothing to itemize).
///
/// # Errors
///
/// Structured [`IndexError`] when the header or record table is
/// unreadable.
pub fn scan_container(blob: &[u8]) -> Result<Vec<RecordCheck>, IndexError> {
    if blob.is_empty() {
        return Err(IndexError::Truncated {
            context: "empty index file",
        });
    }
    let entries = read_table(blob)?;
    let mut checks = Vec::with_capacity(entries.len());
    for entry in entries {
        let status = match record_bytes(blob, &entry) {
            Ok(_) => RecordStatus::Ok,
            Err(IndexError::ChecksumMismatch { .. }) => RecordStatus::ChecksumMismatch,
            Err(_) => RecordStatus::TruncatedPayload,
        };
        checks.push(RecordCheck {
            name: entry.name,
            len: entry.len,
            status,
        });
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record::new("meta", vec![1, 0, 0, 0]),
            Record::new("exe:0", (0u8..200).collect()),
            Record::new("postings", vec![]),
        ]
    }

    #[test]
    fn container_roundtrip() {
        let records = sample();
        let blob = write_container_v2(&records);
        assert_eq!(blob[4..8], FORMAT_V2.to_le_bytes());
        assert_eq!(read_container(&blob).unwrap(), records);
        // Lazy path: table-only parse, then each payload on demand.
        let entries = read_table(&blob).unwrap();
        assert_eq!(entries.len(), records.len());
        for (e, r) in entries.iter().zip(&records) {
            assert_eq!(e.name, r.name);
            assert_eq!(record_bytes(&blob, e).unwrap(), &r.payload[..]);
        }
    }

    #[test]
    fn empty_container_roundtrips() {
        let blob = write_container_v2(&[]);
        assert_eq!(read_container(&blob).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_is_not_an_index() {
        let mut blob = write_container_v2(&sample());
        blob[0] = b'X';
        assert_eq!(read_container(&blob), Err(IndexError::NotAnIndex));
        assert_eq!(read_container(&[]), Err(IndexError::NotAnIndex));
    }

    /// A hand-built version-1 container: the retired layout, whose
    /// record table has no payload offsets and no table CRC.
    fn v1_blob(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for r in records {
            push_str(&mut out, &r.name);
            out.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(&r.payload).to_le_bytes());
        }
        for r in records {
            out.extend_from_slice(&r.payload);
        }
        out
    }

    #[test]
    fn every_version_but_2_is_rejected_not_misparsed() {
        let mut zeroed = write_container_v2(&sample());
        zeroed[4..8].copy_from_slice(&0u32.to_le_bytes());
        let mut future = write_container_v2(&sample());
        future[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        for (found, blob) in [(1, v1_blob(&sample())), (0, zeroed), (u32::MAX, future)] {
            let want = IndexError::UnsupportedVersion {
                found,
                supported: FORMAT_V2,
            };
            assert_eq!(read_table(&blob), Err(want.clone()));
            assert_eq!(read_container(&blob), Err(want.clone()));
            assert_eq!(scan_container(&blob), Err(want.clone()));
            let msg = want.to_string();
            assert!(
                msg.contains("this build reads only format 2 — rebuild with `firmup index`"),
                "{msg}"
            );
        }
    }

    #[test]
    fn every_truncation_point_is_a_structured_error() {
        let blob = write_container_v2(&sample());
        for cut in 0..blob.len() {
            match read_container(&blob[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("cut at {cut} of {} parsed successfully", blob.len()),
            }
        }
    }

    #[test]
    fn table_bitflips_are_caught_eagerly() {
        let blob = write_container_v2(&sample());
        // Find where the table ends: header(12) + per-record name/offset/
        // len/crc fields + the 4-byte table CRC.
        let table_end: usize = 12
            + sample()
                .iter()
                .map(|r| 4 + r.name.len() + 16)
                .sum::<usize>()
            + 4;
        // Every single-bit flip inside the version, count, table, or
        // table-CRC bytes must be rejected by read_table itself — the
        // lazy path never trusts a damaged table.
        for pos in 4..table_end {
            for bit in 0..8 {
                let mut damaged = blob.clone();
                damaged[pos] ^= 1 << bit;
                assert!(
                    read_table(&damaged).is_err(),
                    "table flip at byte {pos} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn offsets_into_the_table_are_malformed() {
        // Hand-craft a container whose record points at the header,
        // with a recomputed table CRC so only the offset check can
        // reject it.
        let payload = vec![7u8; 8];
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&FORMAT_V2.to_le_bytes());
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&1u32.to_le_bytes()); // name len
        blob.push(b'x');
        blob.extend_from_slice(&0u64.to_le_bytes()); // offset inside header
        blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        blob.extend_from_slice(&crc32(&payload).to_le_bytes());
        let table_crc = crc32(&blob[4..]);
        blob.extend_from_slice(&table_crc.to_le_bytes());
        blob.extend_from_slice(&payload);
        assert!(matches!(
            read_table(&blob),
            Err(IndexError::Malformed { .. })
        ));
    }

    #[test]
    fn payload_bitflip_fails_the_record_checksum() {
        let mut blob = write_container_v2(&sample());
        let n = blob.len();
        blob[n - 1] ^= 0x80; // last byte of exe:0's payload region
        match read_container(&blob) {
            Err(IndexError::ChecksumMismatch { record }) => assert_eq!(record, "exe:0"),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn bogus_record_count_is_malformed() {
        let mut blob = write_container_v2(&sample());
        blob[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_container(&blob),
            Err(IndexError::Malformed { .. }) | Err(IndexError::Truncated { .. })
        ));
    }

    #[test]
    fn non_utf8_record_name_is_malformed() {
        let mut blob = write_container_v2(&[Record::new("abcd", vec![])]);
        // The name bytes start after magic+version+count+name-length.
        blob[16] = 0xff;
        blob[17] = 0xfe;
        assert!(matches!(
            read_container(&blob),
            Err(IndexError::Malformed { .. })
        ));
    }

    #[test]
    fn index_path_appends_the_canonical_file_name() {
        assert_eq!(
            index_path(Path::new("/tmp/idx")),
            PathBuf::from("/tmp/idx/corpus.fui")
        );
    }

    fn entry(i: u64) -> JournalEntry {
        JournalEntry {
            digest: 0x1234_5678_9abc_def0 ^ i,
            crc: 0xdead_beef ^ i as u32,
            executables: 3 + i as u32,
            segment: segment_file_name(0x1234_5678_9abc_def0 ^ i),
        }
    }

    #[test]
    fn journal_roundtrips_and_orders() {
        let mut bytes = Vec::new();
        for i in 0..5 {
            bytes.extend_from_slice(render_journal_entry(&entry(i)).as_bytes());
        }
        let (entries, torn) = parse_journal(&bytes);
        assert!(!torn);
        assert_eq!(entries, (0..5).map(entry).collect::<Vec<_>>());
    }

    #[test]
    fn torn_journal_tail_is_discarded_not_fatal() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(render_journal_entry(&entry(0)).as_bytes());
        bytes.extend_from_slice(render_journal_entry(&entry(1)).as_bytes());
        let full = bytes.len();
        bytes.extend_from_slice(render_journal_entry(&entry(2)).as_bytes());
        // Tear the last append anywhere mid-line: the first two entries
        // survive, the tail is flagged.
        for cut in full + 1..bytes.len() - 1 {
            let (entries, torn) = parse_journal(&bytes[..cut]);
            assert!(torn, "cut at {cut} not flagged torn");
            assert_eq!(entries.len(), 2, "cut at {cut} lost committed entries");
        }
    }

    #[test]
    fn corrupted_journal_line_fails_its_own_crc() {
        let mut line = render_journal_entry(&entry(7)).into_bytes();
        line[6] ^= 0x01; // flip one digest nibble; linecrc now disagrees
        let (entries, torn) = parse_journal(&line);
        assert!(torn);
        assert!(entries.is_empty());
    }

    #[test]
    fn journal_rejects_path_traversal_in_segment_names() {
        let body = "seg 0000000000000001 00000001 1 ../evil.fui";
        let line = format!("{body} {:08x}\n", crc32(body.as_bytes()));
        let (entries, torn) = parse_journal(line.as_bytes());
        assert!(entries.is_empty() && torn);
    }

    #[test]
    fn append_journal_survives_restart() {
        let dir = std::env::temp_dir().join(format!("firmup-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        append_journal(&path, &entry(0)).unwrap();
        append_journal(&path, &entry(1)).unwrap();
        let (entries, torn) = parse_journal(&std::fs::read(&path).unwrap());
        assert!(!torn);
        assert_eq!(entries, vec![entry(0), entry(1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrips_with_epoch_and_order() {
        let m = Manifest {
            epoch: 7,
            entries: (0..4).map(entry).collect(),
        };
        let text = render_manifest(&m);
        assert_eq!(parse_manifest(text.as_bytes()).unwrap(), m);
        // Empty manifests (post-compact) roundtrip too.
        let empty = Manifest {
            epoch: 9,
            entries: vec![],
        };
        assert_eq!(
            parse_manifest(render_manifest(&empty).as_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn torn_manifest_is_rejected_strictly_and_salvaged_tolerantly() {
        let m = Manifest {
            epoch: 3,
            entries: (0..3).map(entry).collect(),
        };
        let text = render_manifest(&m).into_bytes();
        // Every truncation point either still parses (only when nothing
        // was lost — i.e. never, because the footer seals the count) or
        // is a structured Malformed error; the tolerant scan salvages
        // exactly the whole lines before the cut.
        for cut in 0..text.len() - 1 {
            let sliced = &text[..cut];
            assert!(
                matches!(parse_manifest(sliced), Err(IndexError::Malformed { .. })),
                "cut at {cut} of {} parsed strictly",
                text.len()
            );
            let scan = scan_manifest(sliced);
            assert!(scan.torn, "cut at {cut} not flagged");
            assert!(scan.entries.len() <= 3);
            for (got, want) in scan.entries.iter().zip(m.entries.iter()) {
                assert_eq!(got, want, "salvaged prefix diverged at cut {cut}");
            }
        }
        // A flipped byte inside a seg line fails that line's CRC.
        let mut damaged = text.clone();
        let seg_line_start = render_manifest(&Manifest {
            epoch: 3,
            entries: vec![],
        })
        .lines()
        .next()
        .unwrap()
        .len()
            + 1;
        damaged[seg_line_start + 6] ^= 0x01;
        let scan = scan_manifest(&damaged);
        assert!(scan.torn);
        assert!(scan.entries.is_empty());
        // A damaged header poisons the document entirely.
        let mut bad_header = text;
        bad_header[1] = b'x';
        let scan = scan_manifest(&bad_header);
        assert!(scan.torn && scan.epoch.is_none() && scan.entries.is_empty());
    }

    #[test]
    fn manifest_footer_count_seals_the_entry_list() {
        let m = Manifest {
            epoch: 1,
            entries: (0..2).map(entry).collect(),
        };
        let text = render_manifest(&m);
        // Drop one seg line but keep the (now disagreeing) footer: the
        // count mismatch must be diagnosed.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        let forged = format!("{}\n", lines.join("\n"));
        assert!(parse_manifest(forged.as_bytes()).is_err());
        let scan = scan_manifest(forged.as_bytes());
        assert!(scan.torn);
        assert_eq!(scan.entries.len(), 1);
    }

    #[test]
    fn manifest_read_write_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("firmup-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        let m = Manifest {
            epoch: 2,
            entries: (0..2).map(entry).collect(),
        };
        write_manifest(&dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(m));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn image_digest_separates_tag_and_content() {
        assert_ne!(image_digest("a.fwim", b"xy"), image_digest("a.fwimx", b"y"));
        assert_eq!(image_digest("a.fwim", b"xy"), image_digest("a.fwim", b"xy"));
    }

    #[test]
    fn scan_container_itemizes_damage_per_record() {
        let records = sample();
        let blob = write_container_v2(&records);
        // Pristine: every record Ok.
        let checks = scan_container(&blob).unwrap();
        assert_eq!(checks.len(), records.len());
        assert!(checks.iter().all(|c| c.status == RecordStatus::Ok));

        // Flip a byte in the middle record's payload: only it reports
        // ChecksumMismatch, the rest stay Ok (unlike read_container,
        // which stops at the first failure).
        let mut damaged = blob.clone();
        let n = damaged.len();
        damaged[n - 100] ^= 0xff; // inside exe:0's 200-byte payload
        let checks = scan_container(&damaged).unwrap();
        assert_eq!(checks[0].status, RecordStatus::Ok);
        assert_eq!(checks[1].status, RecordStatus::ChecksumMismatch);
        assert_eq!(checks[2].status, RecordStatus::Ok);

        // Truncate into the payload region: the cut record (and any
        // after it) report TruncatedPayload.
        let cut = blob.len() - 150;
        let checks = scan_container(&blob[..cut]).unwrap();
        assert_eq!(checks[0].status, RecordStatus::Ok);
        assert_eq!(checks[1].status, RecordStatus::TruncatedPayload);
    }

    #[test]
    fn scan_container_rejects_unreadable_headers() {
        assert!(matches!(
            scan_container(&[]),
            Err(IndexError::Truncated { .. })
        ));
        let mut blob = write_container_v2(&sample());
        blob[0] = b'X';
        assert_eq!(scan_container(&blob), Err(IndexError::NotAnIndex));
    }
}
