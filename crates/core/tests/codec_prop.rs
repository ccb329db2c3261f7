//! Property suite pinning the hot-path codecs and interning invariants
//! behind the allocation overhaul:
//!
//! * LEB128 varint round-trips across the u64 range (7-bit group
//!   boundaries, empty and single-element lists);
//! * the varint-delta trust boundary — a zero delta spliced into an
//!   otherwise valid `postings2` record (container CRCs intact) must be
//!   rejected by the index loader, never absorbed;
//! * galloping-merge ≡ naive-merge on arbitrary sorted sets, including
//!   the skewed shapes that trigger the galloping path;
//! * interner determinism — any insertion order produces the same id
//!   assignment, and `id → hash → id` round-trips.

use firmup_core::intern::StrandInterner;
use firmup_core::merge::{for_each_common, gallop_ge, intersect_count};
use firmup_core::persist::CorpusIndex;
use firmup_core::sim::{ExecutableRep, ProcedureRep};
use firmup_firmware::index::{push_varint, read_container, read_varint, write_container_v2};
use firmup_isa::Arch;
use proptest::collection::vec;
use proptest::prelude::*;

// ---- varint round-trips ---------------------------------------------------

fn round_trip(v: u64) -> u64 {
    let mut buf = Vec::new();
    push_varint(&mut buf, v);
    assert!(buf.len() <= 10, "varint for {v} took {} bytes", buf.len());
    let mut pos = 0;
    let back = read_varint(&buf, &mut pos, "test varint").expect("decodes");
    assert_eq!(
        pos,
        buf.len(),
        "decode must consume exactly what encode wrote"
    );
    back
}

#[test]
fn varint_round_trips_at_every_7bit_boundary() {
    let mut edges = vec![0u64, 1, u64::MAX, u64::MAX - 1];
    for k in 1..=9u32 {
        let b = 1u64 << (7 * k);
        edges.extend([b - 1, b, b + 1]);
    }
    for v in edges {
        assert_eq!(round_trip(v), v, "boundary value {v:#x}");
    }
}

#[test]
fn varint_lists_round_trip_including_empty_and_single() {
    for list in [vec![], vec![42u64], vec![0, 1, 127, 128, u64::MAX]] {
        let mut buf = Vec::new();
        push_varint(&mut buf, list.len() as u64);
        for &v in &list {
            push_varint(&mut buf, v);
        }
        let mut pos = 0;
        let n = read_varint(&buf, &mut pos, "list count").unwrap() as usize;
        let back: Vec<u64> = (0..n)
            .map(|_| read_varint(&buf, &mut pos, "list value").unwrap())
            .collect();
        assert_eq!(back, list);
        assert_eq!(pos, buf.len());
    }
}

#[test]
fn truncated_varint_is_a_structured_error_not_a_panic() {
    for v in [128u64, 1 << 14, 1 << 30, u64::MAX] {
        let mut buf = Vec::new();
        push_varint(&mut buf, v);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                read_varint(&buf[..cut], &mut pos, "cut varint").is_err(),
                "{v}: {cut}-byte prefix of a {}-byte varint decoded",
                buf.len()
            );
        }
    }
}

// ---- the varint-delta trust boundary --------------------------------------

/// A tiny but real corpus index whose container the splice tests edit.
fn base_index_bytes() -> Vec<u8> {
    let rep = ExecutableRep {
        id: "codec-prop".into(),
        arch: Arch::Mips32,
        procedures: vec![ProcedureRep {
            addr: 0x1000,
            name: Some("f".into()),
            strands: vec![1, 4, 9],
            block_count: 1,
            size: 16,
            interned: None,
        }],
    };
    CorpusIndex::build(vec![rep]).to_bytes()
}

/// Replace `name`'s payload and rebuild the container, so every table
/// offset and CRC-32 verifies — only the typed codec sees the change.
fn with_record(base: &[u8], name: &str, payload: Vec<u8>) -> Vec<u8> {
    let mut records = read_container(base).expect("pristine container");
    records
        .iter_mut()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no `{name}` record in the container"))
        .payload = payload;
    write_container_v2(&records)
}

/// The loader, driven to a full decode, must reject the blob with a
/// structured error.
fn assert_rejected(blob: &[u8], what: &str) {
    let loaded = CorpusIndex::from_bytes(blob.to_vec()).and_then(|ix| ix.ensure_all());
    assert!(
        loaded.is_err(),
        "{what}: loader accepted a malformed record"
    );
}

/// Delta-encode a strictly increasing list the way the writers do,
/// optionally forcing the delta at `poison` to zero.
fn encode_delta_list(out: &mut Vec<u8>, vals: &[u64], poison: Option<usize>) {
    let mut prev = 0u64;
    for (i, &v) in vals.iter().enumerate() {
        let delta = if i == 0 { v } else { v - prev };
        push_varint(out, if poison == Some(i) { 0 } else { delta });
        prev = v;
    }
}

/// Strictly increasing non-empty u64 list (positive gaps, no overflow).
fn sorted_hashes() -> impl Strategy<Value = Vec<u64>> {
    vec((1u64..1 << 40, 1u64..1 << 20), 1..=24).prop_map(|gaps| {
        let mut acc = 0u64;
        gaps.iter()
            .map(|&(first_scale, gap)| {
                acc += gap + first_scale % 7;
                acc
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn postings2_zero_delta_is_rejected(
        keys in sorted_hashes(),
        sites in sorted_hashes(),
        poison_sites in any::<bool>(),
        pick in any::<proptest::sample::Index>(),
    ) {
        let base = base_index_bytes();
        let encode = |poison_key: Option<usize>, poison_site: Option<usize>| {
            let mut out = Vec::new();
            push_varint(&mut out, keys.len() as u64);
            let mut prev_key = 0u64;
            for (i, &key) in keys.iter().enumerate() {
                let delta = if i == 0 { key } else { key - prev_key };
                push_varint(&mut out, if poison_key == Some(i) { 0 } else { delta });
                prev_key = key;
                push_varint(&mut out, sites.len() as u64);
                encode_delta_list(&mut out, &sites, if i == 0 { poison_site } else { None });
            }
            out
        };
        let good = with_record(&base, "postings2", encode(None, None));
        let ix = CorpusIndex::from_bytes(good).expect("well-formed postings2 record");
        prop_assert_eq!(ix.postings.keys(), &keys[..]);
        if poison_sites && sites.len() > 1 {
            let at = 1 + pick.index(sites.len() - 1);
            assert_rejected(
                &with_record(&base, "postings2", encode(None, Some(at))),
                &format!("postings2 zero site delta at {at}"),
            );
        } else if keys.len() > 1 {
            let at = 1 + pick.index(keys.len() - 1);
            assert_rejected(
                &with_record(&base, "postings2", encode(Some(at), None)),
                &format!("postings2 zero key delta at {at}"),
            );
        }
    }
}

// ---- galloping merge ≡ naive merge ----------------------------------------

fn sorted_dedup(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

fn naive_common(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter()
        .filter(|x| b.binary_search(x).is_ok())
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gallop_ge_is_partition_point(raw in vec(0u64..1000, 0..=64), target in 0u64..1100) {
        let s = sorted_dedup(raw);
        prop_assert_eq!(gallop_ge(&s, &target), s.partition_point(|&v| v < target));
    }

    #[test]
    fn galloping_merge_matches_naive_on_arbitrary_sets(
        a in vec(0u64..512, 0..=48),
        b in vec(0u64..512, 0..=48),
    ) {
        let (a, b) = (sorted_dedup(a), sorted_dedup(b));
        let want = naive_common(&a, &b);
        let mut got = Vec::new();
        for_each_common(&a, &b, |v| got.push(v));
        prop_assert_eq!(&got, &want, "visit order/content diverged from naive merge");
        let mut swapped = Vec::new();
        for_each_common(&b, &a, |v| swapped.push(v));
        prop_assert_eq!(&swapped, &want, "argument order changed the result");
        prop_assert_eq!(intersect_count(&a, &b), want.len());
    }

    #[test]
    fn galloping_merge_matches_naive_on_skewed_sets(
        small in vec(0u64..4096, 0..=6),
        large in vec(0u64..4096, 200..=400),
    ) {
        // |small| · 8 < |large| forces the galloping path.
        let (small, large) = (sorted_dedup(small), sorted_dedup(large));
        let want = naive_common(&small, &large);
        let mut got = Vec::new();
        for_each_common(&small, &large, |v| got.push(v));
        prop_assert_eq!(got, want);
    }
}

// ---- interner determinism -------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interner_is_insertion_order_independent(
        raw in vec(any::<u64>(), 0..=48),
        rot in any::<proptest::sample::Index>(),
        rev in any::<bool>(),
    ) {
        let sorted = StrandInterner::from_hashes(raw.iter().copied());
        // Reorder: rotate by an arbitrary amount, optionally reverse.
        let mut reordered = raw.clone();
        if !reordered.is_empty() {
            let mid = rot.index(reordered.len());
            reordered.rotate_left(mid);
        }
        if rev {
            reordered.reverse();
        }
        let other = StrandInterner::from_hashes(reordered);
        prop_assert_eq!(sorted.hashes(), other.hashes());
        for &h in sorted.hashes() {
            prop_assert_eq!(sorted.id_of(h), other.id_of(h));
        }
    }

    #[test]
    fn interner_ids_round_trip_and_follow_hash_order(raw in vec(any::<u64>(), 0..=48)) {
        let interner = StrandInterner::from_hashes(raw.iter().copied());
        // Ids are dense ranks: id → hash → id round-trips, and the id
        // order is exactly the hash order (what makes the id fast path
        // bit-identical to the hash path).
        for (rank, &h) in interner.hashes().iter().enumerate() {
            let id = interner.id_of(h).expect("every interned hash resolves");
            prop_assert_eq!(id as usize, rank);
            prop_assert_eq!(interner.hash_of(id), Some(h));
        }
        for w in interner.hashes().windows(2) {
            prop_assert!(w[0] < w[1], "interner hashes must be strictly increasing");
        }
        // A hash that was never interned resolves to nothing.
        if !interner.hashes().contains(&0xdead_beef_dead_beef) {
            prop_assert!(interner.id_of(0xdead_beef_dead_beef).is_none());
        }
    }
}
