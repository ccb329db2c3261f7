//! Global hash-consed strand interning.
//!
//! A corpus index knows every canonical strand hash it contains (the
//! [`GlobalContext`](crate::sim::GlobalContext) df table and the
//! posting lists share one key set). [`StrandInterner`] freezes that
//! set — sorted, deduplicated — and names each hash by its rank: a
//! dense `u32` [`StrandId`]. Because ids are assigned in hash order,
//! *id order is hash order*: every sorted-merge intersection and every
//! ascending-order weighted sum over ids visits pairs in exactly the
//! same sequence as over the original `u64` hashes, so similarity
//! counts and `f64` accumulations are bit-identical — only narrower
//! and faster (VulMatch's signature-set spirit, PAPERS.md).
//!
//! Interners are *runtime* identities: each carries a process-unique
//! `token`, and two id sequences are only ever compared when their
//! tokens match. A rep interned against yesterday's snapshot can never
//! be silently compared by id against today's (serve hot-reload swaps
//! the corpus under long-lived query caches) — mismatched tokens fall
//! back to the always-correct hash path. Nothing of an interner is
//! persisted: a loaded index derives its interner from the posting
//! table's key set.

use std::sync::atomic::{AtomicU64, Ordering};

/// Dense id of one canonical strand hash within a [`StrandInterner`]:
/// its rank in the sorted hash set.
pub type StrandId = u32;

/// A frozen, sorted strand-hash set with rank lookup both ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrandInterner {
    /// Sorted, deduplicated canonical strand hashes; the id of
    /// `hashes[i]` is `i`.
    hashes: Vec<u64>,
    /// Process-unique identity for id-comparability checks.
    token: u64,
}

fn next_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl StrandInterner {
    /// Intern an arbitrary hash collection (sorted + deduplicated
    /// internally). Any insertion order produces the same id
    /// assignment — determinism pinned by the interner property tests.
    pub fn from_hashes(hashes: impl IntoIterator<Item = u64>) -> StrandInterner {
        let mut hashes: Vec<u64> = hashes.into_iter().collect();
        hashes.sort_unstable();
        hashes.dedup();
        StrandInterner {
            hashes,
            token: next_token(),
        }
    }

    /// Adopt an already sorted, strictly increasing hash list (e.g. a
    /// decoded posting table's keys — the decoder enforces monotonicity at
    /// the trust boundary).
    pub fn from_sorted(hashes: Vec<u64>) -> StrandInterner {
        debug_assert!(hashes.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
        StrandInterner {
            hashes,
            token: next_token(),
        }
    }

    /// The id of `hash`, if interned.
    pub fn id_of(&self, hash: u64) -> Option<StrandId> {
        self.hashes.binary_search(&hash).ok().map(|i| i as StrandId)
    }

    /// The hash named by `id`, if in range (the `id → strand` direction
    /// of the round-trip property).
    pub fn hash_of(&self, id: StrandId) -> Option<u64> {
        self.hashes.get(id as usize).copied()
    }

    /// Number of interned strands.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The sorted hash list.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Process-unique identity of this interner instance.
    pub fn token(&self) -> u64 {
        self.token
    }
}

/// A procedure's strand set translated to interner ids: ascending (id
/// order ≡ hash order), carrying the issuing interner's token. `ids`
/// holds only the strands the interner knows; `complete` records
/// whether that was all of them (query procedures may contain strands
/// the corpus has never seen — those can't intersect anything in the
/// corpus, so id-merges stay exact regardless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedStrands {
    /// Token of the interner that issued `ids`.
    pub token: u64,
    /// Ascending interned ids of the known strands.
    pub ids: Vec<StrandId>,
    /// Whether every strand of the procedure was known to the interner.
    pub complete: bool,
}

impl InternedStrands {
    /// Intern a sorted strand-hash slice.
    pub fn of(strands: &[u64], interner: &StrandInterner) -> InternedStrands {
        let ids: Vec<StrandId> = strands.iter().filter_map(|&h| interner.id_of(h)).collect();
        InternedStrands {
            token: interner.token(),
            complete: ids.len() == strands.len(),
            ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sorted_ranks() {
        let i = StrandInterner::from_hashes([30, 10, 20, 10]);
        assert_eq!(i.len(), 3);
        assert_eq!(i.id_of(10), Some(0));
        assert_eq!(i.id_of(20), Some(1));
        assert_eq!(i.id_of(30), Some(2));
        assert_eq!(i.id_of(25), None);
        assert_eq!(i.hash_of(2), Some(30));
        assert_eq!(i.hash_of(3), None);
    }

    #[test]
    fn tokens_are_unique_per_instance() {
        let a = StrandInterner::from_hashes([1, 2]);
        let b = StrandInterner::from_hashes([1, 2]);
        assert_ne!(a.token(), b.token(), "same content, distinct identity");
    }

    #[test]
    fn interned_strands_skip_unknown_and_flag_incomplete() {
        let i = StrandInterner::from_hashes([10, 20, 30]);
        let all = InternedStrands::of(&[10, 30], &i);
        assert!(all.complete);
        assert_eq!(all.ids, vec![0, 2]);
        let some = InternedStrands::of(&[10, 25], &i);
        assert!(!some.complete);
        assert_eq!(some.ids, vec![0]);
    }
}
