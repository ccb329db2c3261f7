//! Property tests for the scan determinism invariant: for arbitrary
//! small corpora, `search_corpus` / `search_corpus_robust` findings are
//! identical across runs and across every thread count 1..=4 — the
//! work-stealing executor merges by unit slot, never by arrival order.
//! A differential suite checks that `scan_units`, whose games share one
//! `Sim` table per query executable, answers every target exactly as
//! that target played alone through `play_recorded`.

use std::collections::HashSet;

use firmup_core::game::{play_recorded, GameConfig, GameEnd, DENSE_CELL_LIMIT};
use firmup_core::intern::StrandInterner;
use firmup_core::search::{
    merge_outcomes, scan_units, search_corpus, search_corpus_robust, ScanBudget, ScanUnit,
    SearchConfig, TargetOutcome,
};
use firmup_core::sim::{ExecutableRep, ProcedureRep};
use firmup_isa::Arch;
use proptest::prelude::*;

fn exec(id: String, procs: Vec<Vec<u64>>) -> ExecutableRep {
    ExecutableRep {
        id,
        arch: Arch::Mips32,
        procedures: procs
            .into_iter()
            .enumerate()
            .map(|(i, mut strands)| {
                strands.sort_unstable();
                strands.dedup();
                ProcedureRep {
                    addr: 0x1000 + (i as u32) * 0x40,
                    name: None,
                    strands,
                    block_count: 1,
                    size: 16,
                    interned: None,
                }
            })
            .collect(),
    }
}

/// Random corpora: 2..12 executables of up to 5 procedures over a small
/// strand universe, so overlaps (and equal-score ties) are common.
fn rand_corpus() -> impl Strategy<Value = Vec<ExecutableRep>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(0u64..30, 1..8), 1..5),
        2..12,
    )
    .prop_map(|execs| {
        execs
            .into_iter()
            .enumerate()
            .map(|(i, procs)| exec(format!("t{i}"), procs))
            .collect()
    })
}

fn fingerprint(results: &[firmup_core::search::TargetResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| format!("{}|{:?}|{}|{:?}", r.target_id, r.matched, r.steps, r.ended))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `search_corpus` findings are identical across runs and across
    /// thread counts 1..=4.
    #[test]
    fn corpus_search_is_thread_count_invariant(corpus in rand_corpus(), qpick in 0usize..12) {
        let q = &corpus[qpick % corpus.len()];
        if q.procedures[0].strands.is_empty() {
            return Ok(());
        }
        let reference = {
            let config = SearchConfig { threads: 1, ..SearchConfig::default() };
            fingerprint(&search_corpus(q, 0, &corpus, &config))
        };
        for threads in 1..=4usize {
            let config = SearchConfig { threads, ..SearchConfig::default() };
            // Across thread counts AND across repeated runs.
            for run in 0..2 {
                let got = fingerprint(&search_corpus(q, 0, &corpus, &config));
                prop_assert_eq!(
                    &got, &reference,
                    "threads={} run={} diverged", threads, run
                );
            }
        }
    }

    /// The robust scan (unit-sharded, work-stealing) reports the same
    /// outcomes for every thread count when unbudgeted.
    #[test]
    fn robust_scan_is_thread_count_invariant(corpus in rand_corpus()) {
        let q = &corpus[0];
        let describe = |o: &TargetOutcome| {
            format!("{}|{:?}", o.target_id(), o.result().map(|r| (&r.matched, r.steps)))
        };
        let reference: Vec<String> = search_corpus_robust(
            q, 0, &corpus,
            &SearchConfig { threads: 1, ..SearchConfig::default() },
            &ScanBudget::unlimited(),
        ).outcomes.iter().map(&describe).collect();
        for threads in 2..=4usize {
            let got: Vec<String> = search_corpus_robust(
                q, 0, &corpus,
                &SearchConfig { threads, ..SearchConfig::default() },
                &ScanBudget::unlimited(),
            ).outcomes.iter().map(&describe).collect();
            prop_assert_eq!(&got, &reference, "threads={} diverged", threads);
        }
    }

    /// Unit decomposition is transparent: any shard split of the same
    /// candidate list, merged with `merge_outcomes`, yields one fixed
    /// sequence — equal-score ties break on stable target ids, never on
    /// batch arrival.
    #[test]
    fn unit_split_does_not_change_merged_outcomes(
        corpus in rand_corpus(),
        split_seed in 1usize..5,
    ) {
        let q = &corpus[0];
        let config = SearchConfig { threads: 3, ..SearchConfig::default() };
        let jobs = [(q, 0usize)];
        let whole = vec![ScanUnit { job: 0, targets: (0..corpus.len()).collect() }];
        let sharded: Vec<ScanUnit> = (0..corpus.len())
            .collect::<Vec<_>>()
            .chunks(split_seed)
            .map(|c| ScanUnit { job: 0, targets: c.to_vec() })
            .collect();
        let describe = |outs: Vec<TargetOutcome>| -> Vec<String> {
            outs.iter()
                .map(|o| format!("{}|{:?}", o.target_id(), o.result().map(|r| &r.matched)))
                .collect()
        };
        let a = describe(merge_outcomes(scan_units(
            &jobs, &whole, &corpus, &config, &ScanBudget::unlimited(), &|| false,
        )));
        let b = describe(merge_outcomes(scan_units(
            &jobs, &sharded, &corpus, &config, &ScanBudget::unlimited(), &|| false,
        )));
        prop_assert_eq!(a, b, "shard split {} changed merged outcomes", split_seed);
    }
}

/// Corpora built to share strand sets: executables draw their
/// procedures from a small pool of strand sets (so one set recurs
/// within and across executables), and some executables are whole
/// copies of others under a new id.
fn rand_repetitive_corpus() -> impl Strategy<Value = Vec<ExecutableRep>> {
    (
        proptest::collection::vec(proptest::collection::vec(0u64..30, 1..8), 1..10),
        proptest::collection::vec(proptest::collection::vec(0usize..64, 1..6), 2..9),
        proptest::collection::vec(0usize..64, 0..4),
    )
        .prop_map(|(pool, exes, copies)| {
            let mut picks: Vec<Vec<usize>> = exes;
            for c in copies {
                let copy = picks[c % picks.len()].clone();
                picks.push(copy);
            }
            picks
                .into_iter()
                .enumerate()
                .map(|(i, pick)| {
                    let procs = pick.iter().map(|&p| pool[p % pool.len()].clone()).collect();
                    exec(format!("t{i}"), procs)
                })
                .collect()
        })
}

/// A copy of `corpus` and of `outside` interned against one interner
/// over the corpus's strands (the corpus complete, `outside` possibly
/// not), as a loaded index and its queries are.
fn interned(
    corpus: &[ExecutableRep],
    outside: &ExecutableRep,
) -> (Vec<ExecutableRep>, ExecutableRep) {
    let interner = StrandInterner::from_hashes(
        corpus
            .iter()
            .flat_map(|e| e.procedures.iter().flat_map(|p| p.strands.iter().copied())),
    );
    let mut corpus = corpus.to_vec();
    for e in &mut corpus {
        e.intern_with(&interner);
    }
    let mut outside = outside.clone();
    outside.intern_with(&interner);
    (corpus, outside)
}

/// Run `jobs` over `corpus` through `scan_units` — each job's
/// candidates cut into units of `split` targets — and check every
/// target's `query_match`, `steps` and `ended` against the same target
/// played alone through `play_recorded`, at 1, 2 and 4 threads. The
/// acceptance thresholds are zeroed so `matched` is exactly the game's
/// `query_match`.
fn scan_equals_games_alone(
    jobs: &[(&ExecutableRep, usize)],
    candidates: &[Vec<usize>],
    corpus: &[ExecutableRep],
    split: usize,
) -> Result<(), TestCaseError> {
    let units: Vec<ScanUnit> = candidates
        .iter()
        .enumerate()
        .flat_map(|(job, c)| {
            c.chunks(split).map(move |c| ScanUnit {
                job,
                targets: c.to_vec(),
            })
        })
        .collect();
    for threads in [1, 2, 4] {
        let config = SearchConfig {
            min_sim: 0,
            accept_ratio: 0.0,
            threads,
            ..SearchConfig::default()
        };
        let per_unit = scan_units(
            jobs,
            &units,
            corpus,
            &config,
            &ScanBudget::unlimited(),
            &|| false,
        );
        for (unit, outcomes) in units.iter().zip(&per_unit) {
            prop_assert_eq!(outcomes.len(), unit.targets.len());
            let (q, qv) = jobs[unit.job];
            for (&t, o) in unit.targets.iter().zip(outcomes) {
                let alone = play_recorded(q, qv, &corpus[t], &GameConfig::default(), None);
                let TargetOutcome::Completed(r) = o else {
                    return Err(TestCaseError(format!("unbudgeted outcome {o:?}")));
                };
                prop_assert_eq!(&r.target_id, &corpus[t].id);
                prop_assert_eq!(
                    r.matched.as_ref().map(|m| (m.index, m.sim)),
                    alone.query_match,
                    "job {} target {} threads {} split {}",
                    unit.job,
                    t,
                    threads,
                    split
                );
                prop_assert_eq!(r.steps, alone.steps);
                prop_assert_eq!(r.ended, alone.ended);
            }
        }
    }
    Ok(())
}

/// The jobs of the differential property over `corpus` (at least two
/// executables): two procedures of `corpus[0]`, which share a table, one
/// of `corpus[1]`, and one of an executable outside the corpus. Jobs
/// get different candidate sets, so tables cover different unions.
#[allow(clippy::type_complexity)]
fn differential_jobs<'a>(
    corpus: &'a [ExecutableRep],
    outside: &'a ExecutableRep,
) -> (Vec<(&'a ExecutableRep, usize)>, Vec<Vec<usize>>) {
    let last = corpus[0].procedures.len() - 1;
    let jobs = vec![
        (&corpus[0], 0),
        (&corpus[0], last),
        (&corpus[1], 0),
        (outside, 0),
    ];
    let n = corpus.len();
    let candidates = vec![
        (0..n).collect(),
        (0..n).filter(|i| i % 2 == 0).collect(),
        (0..n).rev().collect(),
        (0..n).filter(|i| i % 3 != 0).collect(),
    ];
    (jobs, candidates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shared `Sim` table is invisible: on corpora full of repeated
    /// strand sets and duplicated executables, every target of a
    /// `scan_units` call — on plain and on interned reps, at every
    /// thread count and unit split — equals that target's game played
    /// alone.
    #[test]
    fn shared_sim_table_equals_each_game_alone(
        corpus in rand_repetitive_corpus(),
        outside in proptest::collection::vec(proptest::collection::vec(0u64..30, 1..8), 1..6),
        split in 1usize..4,
    ) {
        let outside = exec("outside".into(), outside);
        let (jobs, candidates) = differential_jobs(&corpus, &outside);
        scan_equals_games_alone(&jobs, &candidates, &corpus, split)?;
        let (icorpus, ioutside) = interned(&corpus, &outside);
        let (jobs, candidates) = differential_jobs(&icorpus, &ioutside);
        scan_equals_games_alone(&jobs, &candidates, &icorpus, split)?;
    }
}

/// A query executable whose table would exceed `DENSE_CELL_LIMIT`
/// plays with per-game memos — counted in `game.sim_table_fallbacks` —
/// and still answers every target as its game played alone, next to a
/// small job in the same call that keeps its shared table.
#[test]
fn job_over_the_cell_cap_falls_back_and_agrees() {
    let nq = 2_100usize;
    // Query procedure i holds strands {3i, 3i+1, 3i+2}: all distinct.
    let big = exec(
        "big".into(),
        (0..nq as u64)
            .map(|i| vec![3 * i, 3 * i + 1, 3 * i + 2])
            .collect(),
    );
    // 36 executables of 60 distinct strand sets each, every one
    // sharing a strand with a query procedure, plus a copy of query
    // procedure `t` so games can match; 4 more repeat earlier
    // executables under new ids.
    let mut corpus: Vec<ExecutableRep> = (0..36u64)
        .map(|t| {
            let mut procs: Vec<Vec<u64>> = (0..60u64)
                .map(|j| {
                    let k = t * 60 + j;
                    vec![3 * (k % nq as u64), 1_000_000 + 2 * k, 1_000_001 + 2 * k]
                })
                .collect();
            procs.push(vec![3 * t, 3 * t + 1, 3 * t + 2]);
            exec(format!("c{t}"), procs)
        })
        .collect();
    for t in 0..4 {
        let mut copy = corpus[t].clone();
        copy.id = format!("copy{t}");
        corpus.push(copy);
    }
    let classes: HashSet<&[u64]> = corpus
        .iter()
        .flat_map(|e| e.procedures.iter().map(|p| p.strands.as_slice()))
        .collect();
    assert!(
        nq * classes.len() > DENSE_CELL_LIMIT,
        "the input must exceed the cap: {nq} x {} cells",
        classes.len()
    );
    let small = &corpus[0];
    let all: Vec<usize> = (0..corpus.len()).collect();
    let jobs = [(&big, 0), (&big, 5), (small, 60)];
    let candidates = vec![all.clone(), all.clone(), all];
    firmup_telemetry::enable();
    let fallbacks = firmup_telemetry::counter("game.sim_table_fallbacks");
    let before = fallbacks.get();
    for split in [1, 7] {
        scan_equals_games_alone(&jobs, &candidates, &corpus, split).unwrap();
    }
    // Two big-query jobs fall back, per scan: 2 splits x 3 thread counts.
    assert_eq!(fallbacks.get() - before, 2 * 2 * 3);
    let r = play_recorded(&big, 0, &corpus[0], &GameConfig::default(), None);
    assert_eq!(
        r.ended,
        GameEnd::QueryMatched,
        "the data must produce matches"
    );
}
