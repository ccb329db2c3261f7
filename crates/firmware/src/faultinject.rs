//! Deterministic fault injection for the scan pipeline.
//!
//! Real firmware corpora are dominated by damaged inputs — truncated
//! downloads, vendors that lie in part tables, ELFs with mangled
//! section headers. This module produces that damage *on demand and
//! reproducibly*: every corruption operator is driven by the crate's
//! SplitMix64 [`SmallRng`], so a pinned seed replays the exact same
//! corruption in CI, in a failing test, and under a debugger.
//!
//! The operators are structure-aware: when the blob is a FWIM image or
//! contains an embedded ELF they aim at the part table / section
//! headers specifically, because random bit noise rarely exercises the
//! interesting parsing paths. On unrecognized blobs they fall back to
//! random-offset damage.

use crate::image::MAGIC;
use crate::rng::SmallRng;

/// The ELF magic (duplicated from `firmup-obj` to keep this module
/// byte-oriented).
const ELF_MAGIC: [u8; 4] = [0x7f, b'E', b'L', b'F'];

/// A corruption operator: one class of damage seen in real corpora.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptOp {
    /// Flip 1–64 random bits anywhere in the blob.
    BitFlip,
    /// Cut the blob at a random point (download truncation).
    Truncate,
    /// Overwrite part CRCs with garbage (checksum smash).
    CrcSmash,
    /// Rewrite a part-table entry with a bogus name length and a wild
    /// payload length.
    BogusPartHeader,
    /// Make two part declarations claim overlapping payload bytes by
    /// inflating an early part's declared length.
    OverlapParts,
    /// Scribble over an embedded ELF's section header table.
    MangleSectionTable,
    /// Declare an absurdly oversized length field (part table or ELF
    /// section size).
    OversizeLength,
    /// Rewrite a container's format-version field (FWIM or FUIX index)
    /// with a wild future version: index loaders must reject it with a
    /// structured "unsupported version" error instead of misparsing.
    VersionBump,
    /// Cut the blob at a 512-byte sector boundary — the shape a crashed
    /// non-atomic rename/write leaves behind (whole leading sectors
    /// durable, the tail gone). Distinct from [`CorruptOp::Truncate`],
    /// whose cut lands anywhere.
    TornRename,
    /// Overwrite the blob's header with advisory-lock-file text
    /// (`pid N\n...`) — what a reader sees if it opens the wrong file in
    /// an index directory, or a buggy writer leaks lock contents into a
    /// data file. Parsers must diagnose "not an index/image", not panic.
    StaleLock,
    /// Cut a line-oriented segment manifest (`segments.fum`) strictly
    /// *mid-line* — the residue of a crashed non-atomic manifest writer.
    /// Line CRCs (and the count-sealing footer) must flag the document
    /// torn; the strict reader rejects it and `fsck --repair` salvages
    /// the valid prefix. Falls back to an arbitrary-offset cut on blobs
    /// that are not manifests.
    TornManifest,
}

impl CorruptOp {
    /// All operators, in a stable order (the chaos matrix iterates
    /// this).
    pub fn all() -> [CorruptOp; 11] {
        [
            CorruptOp::BitFlip,
            CorruptOp::Truncate,
            CorruptOp::CrcSmash,
            CorruptOp::BogusPartHeader,
            CorruptOp::OverlapParts,
            CorruptOp::MangleSectionTable,
            CorruptOp::OversizeLength,
            CorruptOp::VersionBump,
            CorruptOp::TornRename,
            CorruptOp::StaleLock,
            CorruptOp::TornManifest,
        ]
    }

    /// Stable name for reports and telemetry keys.
    pub fn name(self) -> &'static str {
        match self {
            CorruptOp::BitFlip => "bit_flip",
            CorruptOp::Truncate => "truncate",
            CorruptOp::CrcSmash => "crc_smash",
            CorruptOp::BogusPartHeader => "bogus_part_header",
            CorruptOp::OverlapParts => "overlap_parts",
            CorruptOp::MangleSectionTable => "mangle_section_table",
            CorruptOp::OversizeLength => "oversize_length",
            CorruptOp::VersionBump => "version_bump",
            CorruptOp::TornRename => "torn_rename",
            CorruptOp::StaleLock => "stale_lock",
            CorruptOp::TornManifest => "torn_manifest",
        }
    }
}

/// Apply `op` to a copy of `blob`, deterministically: the same
/// `(blob, op, seed)` triple always produces the same corrupted bytes.
/// Never panics, for any input (including empty blobs).
pub fn corrupt(blob: &[u8], op: CorruptOp, seed: u64) -> Vec<u8> {
    // Mix the operator into the stream so the same seed exercises
    // different offsets per operator.
    let mut rng = SmallRng::seed_from_u64(seed ^ (0x5eed_0000 + op as u64));
    let mut out = blob.to_vec();
    if out.is_empty() {
        return out;
    }
    match op {
        CorruptOp::BitFlip => {
            let flips = rng.gen_range(1..=64usize);
            for _ in 0..flips {
                let pos = rng.gen_range(0..out.len());
                let bit = rng.gen_range(0..8u32);
                out[pos] ^= 1u8 << bit;
            }
        }
        CorruptOp::Truncate => {
            let keep = rng.gen_range(0..out.len());
            out.truncate(keep);
        }
        CorruptOp::CrcSmash => {
            if let Some(table) = part_table(&out) {
                for entry in table.entries {
                    let crc = entry.crc_off;
                    if crc + 4 <= out.len() {
                        let garbage = rng.next_u64() as u32;
                        out[crc..crc + 4].copy_from_slice(&garbage.to_le_bytes());
                    }
                }
            } else {
                scribble(&mut out, &mut rng, 4);
            }
        }
        CorruptOp::BogusPartHeader => {
            if let Some(table) = part_table(&out) {
                if let Some(entry) = pick(&table.entries, &mut rng) {
                    // Wild name length: drives the string reader into
                    // its truncation guards.
                    let name_len = entry.name_len_off;
                    if name_len + 4 <= out.len() {
                        let wild = rng.next_u64() as u32 | 0x0100_0000;
                        out[name_len..name_len + 4].copy_from_slice(&wild.to_le_bytes());
                    }
                }
            } else {
                scribble(&mut out, &mut rng, 8);
            }
        }
        CorruptOp::OverlapParts => {
            if let Some(table) = part_table(&out) {
                // Inflate an early part's declared length so its
                // payload claim swallows (overlaps) its successors'.
                if let Some(entry) = pick(&table.entries, &mut rng) {
                    let len = entry.len_off;
                    if len + 4 <= out.len() {
                        let declared = u32::from_le_bytes([
                            out[len],
                            out[len + 1],
                            out[len + 2],
                            out[len + 3],
                        ]);
                        let inflated = declared.saturating_mul(2).saturating_add(64);
                        out[len..len + 4].copy_from_slice(&inflated.to_le_bytes());
                    }
                }
            } else {
                scribble(&mut out, &mut rng, 8);
            }
        }
        CorruptOp::MangleSectionTable => {
            if let Some(elf_off) = find_elf(&out, &mut rng) {
                // e_shoff/e_shentsize/e_shnum live at +32/+46/+48.
                for field in [32usize, 46, 48] {
                    let pos = elf_off + field;
                    if pos + 2 <= out.len() {
                        let garbage = rng.next_u64();
                        out[pos] = garbage as u8;
                        out[pos + 1] = (garbage >> 8) as u8;
                    }
                }
            } else {
                scribble(&mut out, &mut rng, 16);
            }
        }
        CorruptOp::OversizeLength => {
            // An oversized length: a part-table len when available,
            // else an ELF section size, else a random u32 field.
            if let Some(table) = part_table(&out) {
                if let Some(entry) = pick(&table.entries, &mut rng) {
                    let len = entry.len_off;
                    if len + 4 <= out.len() {
                        out[len..len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                    }
                }
            } else if out.len() >= 4 {
                let pos = rng.gen_range(0..out.len().saturating_sub(3).max(1));
                if pos + 4 <= out.len() {
                    out[pos..pos + 4].copy_from_slice(&0xffff_fff0u32.to_le_bytes());
                }
            }
        }
        CorruptOp::VersionBump => {
            // Both FWIM and FUIX keep a u32 format version at offset 4.
            let recognized =
                out.len() >= 8 && (&out[0..4] == MAGIC || &out[0..4] == crate::index::MAGIC);
            if recognized {
                let wild = (rng.next_u64() as u32) | 0x8000_0000;
                out[4..8].copy_from_slice(&wild.to_le_bytes());
            } else {
                scribble(&mut out, &mut rng, 4);
            }
        }
        CorruptOp::TornRename => {
            // Keep only whole leading 512-byte sectors, never the full
            // blob: the on-disk residue of a crash between a partial
            // write and its rename.
            let sectors = out.len() / 512;
            let max_keep = if out.len().is_multiple_of(512) {
                sectors.saturating_sub(1)
            } else {
                sectors
            };
            if max_keep == 0 {
                out.truncate(0);
            } else {
                let keep = 512 * rng.gen_range(1..=max_keep);
                out.truncate(keep);
            }
        }
        CorruptOp::StaleLock => {
            // Stamp advisory-lock text over the header region.
            let pid = rng.gen_range(2..100_000u64);
            let text = format!("pid {pid}\n");
            let n = text.len().min(out.len());
            out[..n].copy_from_slice(&text.as_bytes()[..n]);
        }
        CorruptOp::TornManifest => {
            // Cut a `fum ` manifest strictly mid-line: pick a line, keep
            // everything before it plus a partial prefix of it, so the
            // torn line's trailing CRC field never survives intact.
            let line_starts: Vec<usize> = if out.starts_with(b"fum ") {
                std::iter::once(0)
                    .chain(
                        out.iter()
                            .enumerate()
                            .filter(|&(_, &b)| b == b'\n')
                            .map(|(i, _)| i + 1),
                    )
                    .filter(|&s| s < out.len())
                    .collect()
            } else {
                Vec::new()
            };
            if line_starts.is_empty() {
                // Not a manifest (or a headerless scrap): arbitrary cut,
                // still always shrinking non-empty blobs.
                let keep = rng.gen_range(0..out.len());
                out.truncate(keep);
            } else {
                let start = *pick(&line_starts, &mut rng).expect("non-empty");
                let line_end = out[start..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(out.len(), |p| start + p + 1);
                // Keep at least one byte of the line (a cut at the line
                // start would be indistinguishable from a clean shorter
                // document for non-final lines) and never the whole line.
                let keep = start + 1 + rng.gen_range(0..(line_end - start - 1).max(1));
                out.truncate(keep.min(out.len() - 1));
            }
        }
    }
    out
}

/// Random single-byte scribbles: the structure-agnostic fallback.
fn scribble(out: &mut [u8], rng: &mut SmallRng, n: usize) {
    for _ in 0..n {
        let pos = rng.gen_range(0..out.len());
        out[pos] = rng.next_u64() as u8;
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut SmallRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        items.get(rng.gen_range(0..items.len()))
    }
}

/// Byte offsets of one FWIM part-table / FUIX record-table entry's
/// fields (the two formats share the entry shape, except that a FUIX
/// entry carries a u64 payload offset between name and length).
struct PartEntry {
    name_len_off: usize,
    len_off: usize,
    crc_off: usize,
}

struct PartTable {
    entries: Vec<PartEntry>,
}

/// Walk a FWIM or FUIX header far enough to locate the part/record
/// table entries (offsets only; payloads untouched). Returns `None` for
/// unrecognized or structurally hopeless blobs.
fn part_table(blob: &[u8]) -> Option<PartTable> {
    if blob.len() < 8 {
        return None;
    }
    let is_fwim = &blob[0..4] == MAGIC;
    let is_fuix = &blob[0..4] == crate::index::MAGIC;
    if !is_fwim && !is_fuix {
        return None;
    }
    let mut pos = 8usize; // magic + format version
    let read_u32 = |pos: &mut usize| -> Option<u32> {
        let s = blob.get(*pos..*pos + 4)?;
        *pos += 4;
        Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    };
    if is_fwim {
        // vendor, device, version strings (FUIX has no metadata block).
        for _ in 0..3 {
            let len = read_u32(&mut pos)? as usize;
            pos = pos.checked_add(len)?;
            if pos > blob.len() {
                return None;
            }
        }
    }
    let count = read_u32(&mut pos)? as usize;
    if count > 4096 {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len_off = pos;
        let name_len = read_u32(&mut pos)? as usize;
        pos = pos.checked_add(name_len)?;
        if pos > blob.len() {
            return None;
        }
        if is_fuix {
            pos = pos.checked_add(8)?; // payload offset
        }
        let len_off = pos;
        let _len = read_u32(&mut pos)?;
        let crc_off = pos;
        let _crc = read_u32(&mut pos)?;
        entries.push(PartEntry {
            name_len_off,
            len_off,
            crc_off,
        });
    }
    Some(PartTable { entries })
}

/// Offset of one embedded ELF magic, chosen deterministically among all
/// occurrences.
fn find_elf(blob: &[u8], rng: &mut SmallRng) -> Option<usize> {
    if blob.len() < 52 {
        return None;
    }
    let hits: Vec<usize> = (0..blob.len() - 4)
        .filter(|&i| blob[i..i + 4] == ELF_MAGIC)
        .collect();
    pick(&hits, rng).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{pack, unpack, ImageMeta, Part};

    fn sample_image() -> Vec<u8> {
        let mut b = firmup_obj::write::ElfBuilder::new(8, 0x1000);
        b.text(0x1000, vec![0x90u8; 64]);
        let elf = b.build().write();
        pack(
            &ImageMeta {
                vendor: "ACME".into(),
                device: "X1".into(),
                version: "1.0".into(),
            },
            &[
                Part {
                    name: "bin/a".into(),
                    data: elf.clone(),
                },
                Part {
                    name: "bin/b".into(),
                    data: elf,
                },
            ],
        )
    }

    #[test]
    fn corruption_is_deterministic() {
        let img = sample_image();
        for op in CorruptOp::all() {
            let a = corrupt(&img, op, 42);
            let b = corrupt(&img, op, 42);
            let c = corrupt(&img, op, 43);
            assert_eq!(a, b, "{}: same seed must replay", op.name());
            // Different seeds *usually* differ; at minimum they must
            // not be required to match.
            let _ = c;
        }
    }

    #[test]
    fn every_operator_changes_the_blob() {
        let img = sample_image();
        for op in CorruptOp::all() {
            let damaged = corrupt(&img, op, 7);
            assert_ne!(damaged, img, "{} was a no-op", op.name());
        }
    }

    #[test]
    fn empty_and_tiny_blobs_never_panic() {
        for op in CorruptOp::all() {
            for blob in [&[][..], &[0x7f][..], &[1, 2, 3][..]] {
                let _ = corrupt(blob, op, 1);
            }
        }
    }

    #[test]
    fn part_table_locator_matches_pack_layout() {
        let img = sample_image();
        let table = part_table(&img).expect("sample is a FWIM image");
        assert_eq!(table.entries.len(), 2);
        // Smashing the located CRCs must trip the unpacker's checksum
        // issue — proof the offsets are right.
        let smashed = corrupt(&img, CorruptOp::CrcSmash, 99);
        let u = unpack(&smashed).expect("structure intact");
        assert!(
            !u.issues.is_empty(),
            "CRC smash must be noticed by the unpacker"
        );
    }

    #[test]
    fn version_bump_rewrites_the_header_version() {
        let img = sample_image();
        let bumped = corrupt(&img, CorruptOp::VersionBump, 3);
        assert_eq!(&bumped[0..4], MAGIC, "magic untouched");
        let v = u32::from_le_bytes([bumped[4], bumped[5], bumped[6], bumped[7]]);
        assert!(v >= 0x8000_0000, "version must be wild, got {v:#x}");
    }

    #[test]
    fn structure_aware_ops_target_fuix_record_tables() {
        use crate::index::{read_container, read_table, write_container_v2, IndexError, Record};
        let blob = write_container_v2(&[
            Record::new("meta", vec![1, 2, 3, 4]),
            Record::new("exe:0", vec![9u8; 64]),
        ]);
        let table = part_table(&blob).expect("FUIX blob has a locatable record table");
        assert_eq!(table.entries.len(), 2);
        for (e, t) in table.entries.iter().zip(read_table(&blob).unwrap()) {
            let at = |off: usize| u32::from_le_bytes(blob[off..off + 4].try_into().unwrap());
            assert_eq!((at(e.len_off), at(e.crc_off)), (t.len, t.crc));
        }
        // Smashing the located CRCs must trip the container's checksum
        // verification — proof the offsets are right for FUIX too.
        let smashed = corrupt(&blob, CorruptOp::CrcSmash, 11);
        assert!(matches!(
            read_container(&smashed),
            Err(IndexError::ChecksumMismatch { .. })
        ));
        // And a version bump must be rejected as unsupported.
        let bumped = corrupt(&blob, CorruptOp::VersionBump, 11);
        assert!(matches!(
            read_container(&bumped),
            Err(IndexError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn torn_rename_cuts_on_sector_boundaries() {
        let img = sample_image();
        for seed in 0..32 {
            let torn = corrupt(&img, CorruptOp::TornRename, seed);
            assert!(torn.len() < img.len(), "seed {seed}: nothing torn off");
            assert_eq!(torn.len() % 512, 0, "seed {seed}: cut mid-sector");
            assert_eq!(torn, img[..torn.len()], "seed {seed}: prefix altered");
        }
        // Sub-sector blobs lose everything (the single partial sector
        // was never durable).
        assert!(corrupt(&[7u8; 100], CorruptOp::TornRename, 1).is_empty());
        // Exact-multiple blobs still always shrink.
        let exact = vec![3u8; 1024];
        let torn = corrupt(&exact, CorruptOp::TornRename, 5);
        assert_eq!(torn.len(), 512);
    }

    #[test]
    fn stale_lock_spoils_the_magic_with_lock_text() {
        use crate::index::{read_container, write_container_v2, IndexError, Record};
        let blob = write_container_v2(&[Record::new("meta", vec![1, 2, 3, 4])]);
        let damaged = corrupt(&blob, CorruptOp::StaleLock, 9);
        assert!(damaged.starts_with(b"pid "), "lock text not stamped");
        assert_eq!(read_container(&damaged), Err(IndexError::NotAnIndex));
        let img = sample_image();
        let damaged = corrupt(&img, CorruptOp::StaleLock, 9);
        assert!(!damaged.starts_with(MAGIC), "FWIM magic must be spoiled");
        // The unpacker may still carve embedded ELFs (degraded mode);
        // it must simply not panic.
        let _ = unpack(&damaged);
    }

    #[test]
    fn torn_manifest_cuts_mid_line_and_is_always_diagnosed() {
        use crate::index::{
            parse_manifest, scan_manifest, segment_file_name, JournalEntry, Manifest,
        };
        let m = Manifest {
            epoch: 5,
            entries: (0..4)
                .map(|i| JournalEntry {
                    digest: 0x1000 + i,
                    crc: 0xabcd ^ i as u32,
                    executables: 2,
                    segment: segment_file_name(0x1000 + i),
                })
                .collect(),
        };
        let blob = crate::index::render_manifest(&m).into_bytes();
        for seed in 0..64 {
            let torn = corrupt(&blob, CorruptOp::TornManifest, seed);
            assert!(torn.len() < blob.len(), "seed {seed}: nothing torn off");
            assert_eq!(torn, blob[..torn.len()], "seed {seed}: prefix altered");
            // The cut must land mid-line: the residue never ends in '\n'.
            assert_ne!(*torn.last().unwrap(), b'\n', "seed {seed}: clean cut");
            // The strict reader rejects it; the tolerant scan salvages a
            // valid prefix of the original entries.
            assert!(parse_manifest(&torn).is_err(), "seed {seed}: accepted");
            let scan = scan_manifest(&torn);
            assert!(scan.torn, "seed {seed}: not flagged");
            assert!(scan.entries.len() <= m.entries.len());
            for (got, want) in scan.entries.iter().zip(m.entries.iter()) {
                assert_eq!(got, want, "seed {seed}: salvage diverged");
            }
        }
        // Non-manifest blobs fall back to a plain shrinking cut.
        let img = sample_image();
        let torn = corrupt(&img, CorruptOp::TornManifest, 3);
        assert!(torn.len() < img.len());
        assert_eq!(torn, img[..torn.len()]);
    }

    #[test]
    fn unpack_survives_every_operator() {
        let img = sample_image();
        for op in CorruptOp::all() {
            for seed in 0..16 {
                let damaged = corrupt(&img, op, seed);
                // Structured error or degraded success — the unpacker
                // itself must never panic.
                let _ = unpack(&damaged);
            }
        }
    }
}
