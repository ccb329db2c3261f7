//! Property tests for the back-and-forth game (Algorithm 2).

use firmup_core::game::{play, play_recorded, procedure_centric, GameConfig, GameEnd};
use firmup_core::intern::StrandInterner;
use firmup_core::sim::{sim, ExecutableRep, ProcedureRep};
use firmup_isa::Arch;
use proptest::prelude::*;

fn exec(id: &str, procs: Vec<Vec<u64>>) -> ExecutableRep {
    ExecutableRep {
        id: id.into(),
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

/// Random executables: up to 8 procedures of up to 10 strands drawn from
/// a small universe (to force collisions and rival activity).
fn rand_exec(id: &'static str) -> impl Strategy<Value = ExecutableRep> {
    proptest::collection::vec(proptest::collection::vec(0u64..24, 1..10), 1..8)
        .prop_map(move |procs| exec(id, procs))
}

/// Which interner ids a property's reps carry.
#[derive(Debug, Clone, Copy)]
enum Interning {
    /// None: `sim` takes the `u64` hash path.
    Off,
    /// One interner over both sides' strands, so both sides are
    /// complete.
    Both,
    /// An interner over the target's strands only, so the query is
    /// incomplete wherever it holds a strand the target lacks.
    TargetOnly,
}

fn interning() -> impl Strategy<Value = Interning> {
    (0usize..3).prop_map(|i| [Interning::Off, Interning::Both, Interning::TargetOnly][i])
}

/// Copies of `q` and `t` interned as `how` says.
fn intern(q: &ExecutableRep, t: &ExecutableRep, how: Interning) -> (ExecutableRep, ExecutableRep) {
    let strands = |e: &ExecutableRep| -> Vec<u64> {
        e.procedures
            .iter()
            .flat_map(|p| p.strands.iter().copied())
            .collect()
    };
    let (mut q, mut t) = (q.clone(), t.clone());
    let interner = match how {
        Interning::Off => return (q, t),
        Interning::Both => StrandInterner::from_hashes(strands(&q).into_iter().chain(strands(&t))),
        Interning::TargetOnly => StrandInterner::from_hashes(strands(&t)),
    };
    q.intern_with(&interner);
    t.intern_with(&interner);
    (q, t)
}

/// The interned reps `qi`/`ti` of `q`/`t` give the hash path's answers:
/// `sim` on every procedure pair, `play`'s `query_match`, `matches`,
/// `steps` and `ended`, and `play_recorded`'s `query_match`, `steps`
/// and `ended`.
fn agrees_with_hash_path(
    q: &ExecutableRep,
    t: &ExecutableRep,
    qi: &ExecutableRep,
    ti: &ExecutableRep,
    qv: usize,
) -> Result<(), TestCaseError> {
    for (a, b) in q.procedures.iter().zip(&qi.procedures) {
        for (c, d) in t.procedures.iter().zip(&ti.procedures) {
            prop_assert_eq!(sim(b, d), sim(a, c));
        }
    }
    let cfg = GameConfig::default();
    let (want, got) = (play(q, qv, t, &cfg), play(qi, qv, ti, &cfg));
    prop_assert_eq!(got.query_match, want.query_match);
    prop_assert_eq!(got.matches, want.matches);
    prop_assert_eq!(got.steps, want.steps);
    prop_assert_eq!(got.ended, want.ended);
    let want = play_recorded(q, qv, t, &cfg, None);
    let got = play_recorded(qi, qv, ti, &cfg, None);
    prop_assert_eq!(got.query_match, want.query_match);
    prop_assert_eq!(got.steps, want.steps);
    prop_assert_eq!(got.ended, want.ended);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The partial matching is injective on both sides and, when the
    /// game reports success, contains the query procedure. The same
    /// holds on interned reps, whose game equals the hash path's.
    #[test]
    fn matching_invariants(
        q0 in rand_exec("q"),
        t0 in rand_exec("t"),
        qv_seed in 0usize..8,
        how in interning(),
    ) {
        let qv = qv_seed % q0.procedures.len();
        let (q, t) = intern(&q0, &t0, how);
        // Each side is complete exactly when its interner saw all of it.
        for p in &q.procedures {
            let complete = p.interned.as_ref().map(|i| i.complete);
            let want = match how {
                Interning::Off => None,
                Interning::Both => Some(true),
                Interning::TargetOnly => Some(
                    p.strands
                        .iter()
                        .all(|h| t.procedures.iter().any(|tp| tp.strands.contains(h))),
                ),
            };
            prop_assert_eq!(complete, want);
        }
        agrees_with_hash_path(&q0, &t0, &q, &t, qv)?;
        let g = play(&q, qv, &t, &GameConfig::default());
        let mut qs: Vec<usize> = g.matches.iter().map(|&(a, _, _)| a).collect();
        let mut ts: Vec<usize> = g.matches.iter().map(|&(_, b, _)| b).collect();
        let n = g.matches.len();
        qs.sort_unstable();
        qs.dedup();
        ts.sort_unstable();
        ts.dedup();
        prop_assert_eq!(qs.len(), n, "query side not injective");
        prop_assert_eq!(ts.len(), n, "target side not injective");
        match g.ended {
            GameEnd::QueryMatched => {
                prop_assert!(g.query_match.is_some());
                prop_assert!(g.matches.iter().any(|&(a, _, _)| a == qv));
            }
            _ => prop_assert!(g.query_match.is_none()),
        }
        // Every recorded pair has positive similarity.
        for &(a, b, s) in &g.matches {
            prop_assert_eq!(sim(&q.procedures[a], &t.procedures[b]), s);
            prop_assert!(s >= 1);
        }
    }

    /// Determinism: the same inputs produce the same game.
    #[test]
    fn game_is_deterministic(q in rand_exec("q"), t in rand_exec("t")) {
        let a = play(&q, 0, &t, &GameConfig::default());
        let b = play(&q, 0, &t, &GameConfig::default());
        prop_assert_eq!(a.query_match, b.query_match);
        prop_assert_eq!(a.matches, b.matches);
        prop_assert_eq!(a.steps, b.steps);
    }

    /// The game's accepted match never scores below the procedure-centric
    /// pick *for the same pair set it had access to*: if both succeed and
    /// agree on the pick, the scores agree.
    #[test]
    fn game_score_consistent_with_sim(q in rand_exec("q"), t in rand_exec("t")) {
        let g = play(&q, 0, &t, &GameConfig::default());
        if let (Some((gt, gs)), Some((pt, ps))) =
            (g.query_match, procedure_centric(&q, 0, &t, 1))
        {
            if gt == pt {
                prop_assert_eq!(gs, ps);
            } else {
                // The game deviated from the local maximum; the rival
                // must have had a reason (its pick was claimed by a
                // strictly better or equal partner).
                prop_assert!(gs <= ps, "game exceeded the local maximum?");
            }
        }
    }

    /// Self-matching: playing an executable against itself matches the
    /// query procedure to itself whenever it has any strands.
    #[test]
    fn self_game_is_identity(q0 in rand_exec("q"), qv_seed in 0usize..8, how in interning()) {
        let qv = qv_seed % q0.procedures.len();
        if q0.procedures[qv].strands.is_empty() {
            return Ok(());
        }
        let (q, t) = intern(&q0, &q0, how);
        agrees_with_hash_path(&q0, &q0, &q, &t, qv)?;
        let g = play(&q, qv, &t, &GameConfig::default());
        // Note: equal-Sim duplicates may legitimately swap, but the
        // score must equal full self-similarity.
        if let Some((_, s)) = g.query_match {
            prop_assert_eq!(s, q.procedures[qv].strand_count());
        } else {
            prop_assert!(false, "self-game failed: {:?}", g.ended);
        }
    }
}
