//! Binary similarity as a back-and-forth game — §4, Algorithm 2.
//!
//! Pairwise similarity alone picks a *local* maximum: the target
//! procedure with the most shared strands, which large unrelated
//! procedures routinely win (Fig. 2/4 of the paper). The game lifts the
//! decision to the executable level: a *player* proposes a match for the
//! query; a *rival* tries to exhibit a query-side procedure that fits the
//! proposed target better; the player must then either re-justify or
//! re-match. The algorithm implements the player's winning strategy,
//! producing a **partial** matching that must contain the query but need
//! not cover either executable — robust to firmware customization
//! (missing/extra procedures) where full-graph matching breaks.
//!
//! Every game reads `Sim` through one memo: a `SimTable` of
//! `AtomicU32` cells, one row per query procedure and one column per
//! target *strand-set class*, filled lazily. [`play`] and
//! [`play_recorded`] give each target procedure its own class in a
//! per-thread table that lasts one game; a corpus scan
//! ([`crate::search::scan_units`]) instead shares one table per query
//! executable across all of its games, with target procedures whose
//! strand sets are equal sharing a column, so each distinct
//! intersection runs once per scan.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::sim::{sim, ExecutableRep};

/// Which executable a work-stack item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The query executable `Q`.
    Query,
    /// The target executable `T`.
    Target,
}

/// A procedure reference on the game's work stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Item {
    /// Which executable.
    pub side: Side,
    /// Procedure index within that executable.
    pub index: usize,
}

/// Why the game ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GameEnd {
    /// A match for the query procedure was found.
    QueryMatched,
    /// The stack reached a fixed state: no further moves exist, the
    /// matching cannot be completed.
    FixedPoint,
    /// A resource heuristic fired (too many matches / stack too deep /
    /// too many steps) — §4.2's last ending condition.
    LimitExceeded,
    /// The wall-clock [`GameConfig::deadline`] passed before the game
    /// settled; the partial matching built so far is still reported.
    DeadlineExceeded,
}

impl GameEnd {
    /// Stable snake_case label — the suffix of the `game.ended.*`
    /// telemetry counters and the value `--explain` reports.
    pub fn label(self) -> &'static str {
        match self {
            GameEnd::QueryMatched => "query_matched",
            GameEnd::FixedPoint => "fixed_point",
            GameEnd::LimitExceeded => "limit_exceeded",
            GameEnd::DeadlineExceeded => "deadline_exceeded",
        }
    }

    /// All endings, in [`GameStats`] tally order.
    const ALL: [GameEnd; 4] = [
        GameEnd::QueryMatched,
        GameEnd::FixedPoint,
        GameEnd::LimitExceeded,
        GameEnd::DeadlineExceeded,
    ];

    fn tally_index(self) -> usize {
        match self {
            GameEnd::QueryMatched => 0,
            GameEnd::FixedPoint => 1,
            GameEnd::LimitExceeded => 2,
            GameEnd::DeadlineExceeded => 3,
        }
    }
}

/// Per-scan accumulator for game-phase telemetry. [`play`] resolves
/// `game.played` / `game.steps` / `game.ended.*` in the registry once
/// per game — a lock, a `String` key, and (for `ended`) a `format!`
/// allocation per target. A scan passes one `GameStats` to
/// [`play_recorded`] instead; everything accumulates in plain fields
/// and [`flush`](GameStats::flush) merges into the registry once at
/// scan end, producing identical counter totals.
#[derive(Debug, Default)]
pub struct GameStats {
    played: u64,
    steps: firmup_telemetry::LocalHistogram,
    ended: [u64; 4],
    /// `Sim` intersections actually run (`game.sims_computed`).
    sims_computed: u64,
    /// `Sim` answers served from a memo (`game.sims_memoized`).
    sims_memoized: u64,
    /// Scan jobs over [`DENSE_CELL_LIMIT`] that played with the
    /// per-game memo (`game.sim_table_fallbacks`).
    sim_table_fallbacks: u64,
}

impl GameStats {
    /// An empty accumulator.
    pub fn new() -> GameStats {
        GameStats::default()
    }

    /// Games accumulated since the last flush.
    pub fn played(&self) -> u64 {
        self.played
    }

    /// Fold another accumulator into this one.
    pub fn merge(&mut self, other: &GameStats) {
        self.played += other.played;
        self.steps.merge(&other.steps);
        for (t, o) in self.ended.iter_mut().zip(&other.ended) {
            *t += o;
        }
        self.sims_computed += other.sims_computed;
        self.sims_memoized += other.sims_memoized;
        self.sim_table_fallbacks += other.sim_table_fallbacks;
    }

    fn record(&mut self, ended: GameEnd, steps: usize, sims: SimCounts) {
        self.played += 1;
        self.steps.record(steps as u64);
        self.ended[ended.tally_index()] += 1;
        self.sims_computed += sims.computed;
        self.sims_memoized += sims.memoized;
    }

    /// Count `jobs` scan jobs whose shared table would exceed
    /// [`DENSE_CELL_LIMIT`].
    pub(crate) fn record_table_fallbacks(&mut self, jobs: u64) {
        self.sim_table_fallbacks += jobs;
    }

    /// Merge the tallies into the global registry (a bounded handful of
    /// name resolutions, independent of how many games were played) and
    /// clear the accumulator.
    pub fn flush(&mut self) {
        if self.played > 0 {
            firmup_telemetry::add("game.played", self.played);
            for end in GameEnd::ALL {
                let n = self.ended[end.tally_index()];
                if n > 0 {
                    firmup_telemetry::add(&format!("game.ended.{}", end.label()), n);
                }
            }
        }
        for (name, n) in [
            ("game.sims_computed", self.sims_computed),
            ("game.sims_memoized", self.sims_memoized),
            ("game.sim_table_fallbacks", self.sim_table_fallbacks),
        ] {
            if n > 0 {
                firmup_telemetry::add(name, n);
            }
        }
        self.steps.flush_into("game.steps");
        self.played = 0;
        self.ended = [0; 4];
        self.sims_computed = 0;
        self.sims_memoized = 0;
        self.sim_table_fallbacks = 0;
    }
}

/// Tunable limits (§4.2: "as a heuristic, the game can also be stopped
/// if too many matches were found or ToMatch contains too many
/// procedures").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GameConfig {
    /// Minimum shared strands for a candidate to count as a match at
    /// all.
    pub min_sim: usize,
    /// Stop after this many player/rival iterations.
    pub max_steps: usize,
    /// Stop when the partial matching grows past this size.
    pub max_matches: usize,
    /// Stop when the work stack grows past this size.
    pub max_stack: usize,
    /// Wall-clock deadline: stop with [`GameEnd::DeadlineExceeded`] once
    /// `Instant::now()` passes it. `None` (the default) means untimed.
    /// Scan budgets ([`crate::search::ScanBudget`]) set this per game.
    pub deadline: Option<std::time::Instant>,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            min_sim: 1,
            max_steps: 256,
            max_matches: 64,
            max_stack: 64,
            deadline: None,
        }
    }
}

/// One retraceable step, for rendering game courses like the paper's
/// Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The procedure being matched this iteration.
    pub m: Item,
    /// The best match found for `m` on the other side.
    pub forward: usize,
    /// The best match found for `forward` back on `m`'s side.
    pub back: usize,
    /// `Sim` of the forward pair.
    pub sim_forward: usize,
    /// Whether the pair was accepted into the matching.
    pub accepted: bool,
}

/// Result of one game.
#[derive(Debug, Clone)]
pub struct GameResult {
    /// The target procedure matched to the query, with its `Sim` score
    /// (`None` when the game failed).
    pub query_match: Option<(usize, usize)>,
    /// The whole partial matching: `(query index, target index, sim)`.
    /// Populated by [`play`]; empty from [`play_recorded`] and the
    /// corpus scan, which read only `query_match` — assembling the full
    /// matching would allocate a buffer per game just to drop it.
    pub matches: Vec<(usize, usize, usize)>,
    /// Iterations performed (the paper's Fig. 9 metric).
    pub steps: usize,
    /// Why the game stopped.
    pub ended: GameEnd,
    /// Full trace for game-course rendering. Recorded by [`play`];
    /// empty from [`play_recorded`] and the corpus scan, which would
    /// discard it — recording would grow a heap buffer per game just
    /// to drop it.
    pub trace: Vec<TraceStep>,
}

impl fmt::Display for GameResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "game: {:?} after {} step(s), {} pair(s)",
            self.ended,
            self.steps,
            self.matches.len()
        )
    }
}

/// Play the similarity game for `query.procedures[qv]` against `target`.
///
/// # Panics
///
/// Panics if `qv` is out of bounds.
pub fn play(
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    config: &GameConfig,
) -> GameResult {
    let mut trace = Vec::new();
    let mut result = play_with(
        query,
        qv,
        target,
        config,
        None,
        None,
        Some(&mut trace),
        true,
    );
    result.trace = trace;
    result
}

/// [`play`] with scan-local telemetry: when `stats` is given the
/// per-game counters accumulate there (zero registry traffic); when
/// `None` they are recorded directly, the legacy per-game behaviour.
/// Neither the game trace nor the full `matches` vector is assembled
/// (both come back empty): its callers read only
/// `query_match`/`steps`/`ended` — use [`play`] when rendering game
/// courses or inspecting the whole matching. `Sim` is memoized for this
/// one game; a corpus scan shares its memo across games instead (see
/// the module docs).
///
/// # Panics
///
/// Panics if `qv` is out of bounds.
pub fn play_recorded(
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    config: &GameConfig,
    stats: Option<&mut GameStats>,
) -> GameResult {
    play_with(query, qv, target, config, None, stats, None, false)
}

/// [`play_recorded`] reading and filling a scan's shared memo instead
/// of a per-game one.
pub(crate) fn play_shared(
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    config: &GameConfig,
    memo: SimMemo<'_>,
    stats: Option<&mut GameStats>,
) -> GameResult {
    debug_assert_eq!(memo.column.len(), target.procedures.len());
    play_with(query, qv, target, config, Some(memo), stats, None, false)
}

#[allow(clippy::too_many_arguments)]
fn play_with(
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    config: &GameConfig,
    shared: Option<SimMemo<'_>>,
    stats: Option<&mut GameStats>,
    trace: Option<&mut Vec<TraceStep>>,
    want_matches: bool,
) -> GameResult {
    assert!(qv < query.procedures.len(), "query index out of range");
    let _span = firmup_telemetry::span!("game");
    let (result, sims) = PLAY_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => play_inner(
            query,
            qv,
            target,
            config,
            shared,
            &mut scratch,
            trace,
            want_matches,
        ),
        // Re-entrant play on this thread (e.g. through a test harness
        // hook): fall back to fresh scratch rather than panicking.
        Err(_) => play_inner(
            query,
            qv,
            target,
            config,
            shared,
            &mut PlayScratch::default(),
            trace,
            want_matches,
        ),
    });
    match stats {
        Some(st) => st.record(result.ended, result.steps, sims),
        None => {
            if firmup_telemetry::enabled() {
                // Fig. 9's metric: how many back-and-forth iterations
                // games need.
                firmup_telemetry::incr("game.played");
                firmup_telemetry::observe("game.steps", result.steps as u64);
                firmup_telemetry::incr(&format!("game.ended.{}", result.ended.label()));
                firmup_telemetry::add("game.sims_computed", sims.computed);
                firmup_telemetry::add("game.sims_memoized", sims.memoized);
            }
        }
    }
    result
}

/// Cell cap for one `SimTable`: 2^22 cells, 16 MiB of `AtomicU32`.
/// A scan job whose shared table would exceed it plays each game with
/// the per-game table instead, and a single game whose (query × target)
/// table would exceed it plays unmemoized — every `Sim` is recomputed,
/// trading time for bounded memory on a pathological pair of huge
/// executables.
pub const DENSE_CELL_LIMIT: usize = 1 << 22;

/// Memo cell value for "not computed yet"; a filled cell holds
/// `Sim + 1`.
const UNSET: u32 = 0;

/// A lazily filled `Sim` memo: one row per query procedure, one column
/// per target strand-set class, row-major. Cells are atomics so one
/// table can be filled by every worker of a scan at once: `Sim` is a
/// pure function of the two strand sets, so racing `Relaxed` writers
/// store the same value and a reader sees either "unset" (and computes
/// that same value) or the value — never a different answer.
#[derive(Debug)]
pub(crate) struct SimTable {
    cells: Vec<AtomicU32>,
    cols: usize,
}

impl SimTable {
    /// An all-unset `rows × cols` table, or `None` above
    /// [`DENSE_CELL_LIMIT`].
    pub(crate) fn new(rows: usize, cols: usize) -> Option<SimTable> {
        let n = rows.checked_mul(cols).filter(|&n| n <= DENSE_CELL_LIMIT)?;
        Some(SimTable {
            cells: (0..n).map(|_| AtomicU32::new(UNSET)).collect(),
            cols,
        })
    }

    /// A game's view: `column[ti]` is target procedure `ti`'s class.
    pub(crate) fn memo<'a>(&'a self, column: &'a [u32]) -> SimMemo<'a> {
        SimMemo {
            cells: &self.cells,
            cols: self.cols,
            column,
        }
    }
}

/// One game's view of a [`SimTable`]: the cells plus the target's
/// procedure → column map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimMemo<'a> {
    cells: &'a [AtomicU32],
    cols: usize,
    column: &'a [u32],
}

/// How one game's `Sim` lookups were answered.
#[derive(Debug, Clone, Copy, Default)]
struct SimCounts {
    computed: u64,
    memoized: u64,
}

/// Sentinel for "unmatched" in the dense matched arrays.
const UNMATCHED: u32 = u32::MAX;

/// Reusable per-thread game scratch: the per-game `Sim` table (one
/// class per target procedure) with its identity column map, and both
/// matched arrays and the work stack — all capacity-retaining across
/// games, so a corpus scan allocates nothing per target once warm.
#[derive(Debug, Default)]
struct PlayScratch {
    /// Per-game memo cells, row-major `query × target`; reset to unset
    /// at the start of every game that uses them.
    cells: Vec<AtomicU32>,
    /// `identity[ti] == ti`: the per-game memo's column map.
    identity: Vec<u32>,
    /// `q → t` (`UNMATCHED` when free).
    matched_q: Vec<u32>,
    /// `t → q` (`UNMATCHED` when free).
    matched_t: Vec<u32>,
    /// The ToMatch work stack, capacity-retaining across games.
    to_match: Vec<Item>,
}

thread_local! {
    static PLAY_SCRATCH: RefCell<PlayScratch> = RefCell::new(PlayScratch::default());
}

/// The per-game memo over `cells`/`identity`: one class per target
/// procedure, reset to unset. `None` (play unmemoized) above
/// [`DENSE_CELL_LIMIT`].
fn per_game_memo<'a>(
    cells: &'a mut Vec<AtomicU32>,
    identity: &'a mut Vec<u32>,
    nq: usize,
    nt: usize,
) -> Option<SimMemo<'a>> {
    let n = nq.checked_mul(nt).filter(|&n| n <= DENSE_CELL_LIMIT)?;
    if cells.len() < n {
        cells.resize_with(n, || AtomicU32::new(UNSET));
    }
    for c in &mut cells[..n] {
        *c.get_mut() = UNSET;
    }
    while identity.len() < nt {
        identity.push(identity.len() as u32);
    }
    Some(SimMemo {
        cells: &cells[..n],
        cols: nt,
        column: &identity[..nt],
    })
}

#[allow(clippy::too_many_arguments)]
fn play_inner(
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    config: &GameConfig,
    shared: Option<SimMemo<'_>>,
    scratch: &mut PlayScratch,
    mut trace: Option<&mut Vec<TraceStep>>,
    want_matches: bool,
) -> (GameResult, SimCounts) {
    let nq = query.procedures.len();
    let nt = target.procedures.len();
    let PlayScratch {
        cells,
        identity,
        matched_q,
        matched_t,
        to_match,
    } = scratch;
    let memo = shared.or_else(|| per_game_memo(cells, identity, nq, nt));
    let mut counts = SimCounts::default();
    let mut sim_of = |qi: usize, ti: usize| -> usize {
        let Some(m) = memo else {
            counts.computed += 1;
            return sim(&query.procedures[qi], &target.procedures[ti]);
        };
        let cell = &m.cells[qi * m.cols + m.column[ti] as usize];
        match cell.load(Ordering::Relaxed) {
            UNSET => {
                counts.computed += 1;
                let v = sim(&query.procedures[qi], &target.procedures[ti]);
                // A `Sim` too large for a cell is simply not memoized.
                if let Some(stored) = u32::try_from(v).ok().and_then(|v| v.checked_add(1)) {
                    cell.store(stored, Ordering::Relaxed);
                }
                v
            }
            stored => {
                counts.memoized += 1;
                (stored - 1) as usize
            }
        }
    };

    // Matches, per side.
    matched_q.clear();
    matched_q.resize(nq, UNMATCHED);
    matched_t.clear();
    matched_t.resize(nt, UNMATCHED);
    let mut matched_count = 0usize;
    to_match.clear();
    to_match.push(Item {
        side: Side::Query,
        index: qv,
    });
    let mut steps = 0usize;
    let ended;

    loop {
        // Ending conditions (GameDidntEnd()).
        if matched_q[qv] != UNMATCHED {
            ended = GameEnd::QueryMatched;
            break;
        }
        if to_match.is_empty() {
            ended = GameEnd::FixedPoint;
            break;
        }
        if steps >= config.max_steps
            || matched_count >= config.max_matches
            || to_match.len() >= config.max_stack
        {
            ended = GameEnd::LimitExceeded;
            break;
        }
        if config
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
        {
            ended = GameEnd::DeadlineExceeded;
            break;
        }
        steps += 1;
        let m = *to_match.last().expect("checked non-empty");

        // Forward: best unmatched candidate on the other side.
        let forward = match m.side {
            Side::Query => best_match(
                |ti| matched_t[ti] == UNMATCHED,
                nt,
                |ti| sim_of(m.index, ti),
                config.min_sim,
            ),
            Side::Target => best_match(
                |qi| matched_q[qi] == UNMATCHED,
                nq,
                |qi| sim_of(qi, m.index),
                config.min_sim,
            ),
        };
        let Some((fwd, fwd_sim)) = forward else {
            // No candidate at all for the top of the stack: fixed state.
            ended = GameEnd::FixedPoint;
            break;
        };
        // Back: best unmatched candidate for `forward` on M's side.
        let back = match m.side {
            Side::Query => best_match(
                |qi| matched_q[qi] == UNMATCHED,
                nq,
                |qi| sim_of(qi, fwd),
                config.min_sim,
            ),
            Side::Target => best_match(
                |ti| matched_t[ti] == UNMATCHED,
                nt,
                |ti| sim_of(fwd, ti),
                config.min_sim,
            ),
        };
        let Some((back_idx, _)) = back else {
            ended = GameEnd::FixedPoint;
            break;
        };

        let accepted = back_idx == m.index;
        if let Some(t) = trace.as_deref_mut() {
            t.push(TraceStep {
                m,
                forward: fwd,
                back: back_idx,
                sim_forward: fwd_sim,
                accepted,
            });
        }
        if accepted {
            // M ↔ Forward joins the matching.
            let (qi, ti) = match m.side {
                Side::Query => (m.index, fwd),
                Side::Target => (fwd, m.index),
            };
            matched_q[qi] = ti as u32;
            matched_t[ti] = qi as u32;
            matched_count += 1;
            // ToMatch.Pop(Matches): clear everything now matched off the
            // top of the stack.
            while let Some(top) = to_match.last() {
                let is_matched = match top.side {
                    Side::Query => matched_q[top.index] != UNMATCHED,
                    Side::Target => matched_t[top.index] != UNMATCHED,
                };
                if is_matched {
                    to_match.pop();
                } else {
                    break;
                }
            }
        } else {
            // PushIfNotExists([Forward, Back]).
            let fwd_item = Item {
                side: match m.side {
                    Side::Query => Side::Target,
                    Side::Target => Side::Query,
                },
                index: fwd,
            };
            let back_item = Item {
                side: m.side,
                index: back_idx,
            };
            let mut pushed = false;
            for item in [fwd_item, back_item] {
                if !to_match.contains(&item) {
                    to_match.push(item);
                    pushed = true;
                }
            }
            if !pushed {
                // Nothing new to explore and the top keeps failing: the game
                // will never end — the paper's "fixed state".
                ended = GameEnd::FixedPoint;
                break;
            }
        }
    }

    let mut matches: Vec<(usize, usize, usize)> = Vec::new();
    if want_matches {
        matches.reserve_exact(matched_count);
        for (qi, &ti) in matched_q.iter().enumerate() {
            if ti != UNMATCHED {
                matches.push((qi, ti as usize, sim_of(qi, ti as usize)));
            }
        }
    }
    let query_match = (matched_q[qv] != UNMATCHED)
        .then(|| (matched_q[qv] as usize, sim_of(qv, matched_q[qv] as usize)));
    let result = GameResult {
        query_match,
        matches,
        steps,
        ended,
        trace: Vec::new(),
    };
    (result, counts)
}

/// Argmax with deterministic tie-breaking (higher sim, then lower
/// index), restricted to unmatched candidates and a minimum score.
fn best_match(
    eligible: impl Fn(usize) -> bool,
    n: usize,
    mut score: impl FnMut(usize) -> usize,
    min_sim: usize,
) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for i in 0..n {
        if !eligible(i) {
            continue;
        }
        let s = score(i);
        if s < min_sim {
            continue;
        }
        match best {
            Some((_, bs)) if bs >= s => {}
            _ => best = Some((i, s)),
        }
    }
    best
}

/// Procedure-centric matching (the `PC∼` baseline from §4.1): the single
/// best target by pairwise similarity, no game. Used for the ablation in
/// Fig. 9's discussion ("without this iterative matching process, the
/// overall precision drops from 90.11% to 67.3%").
pub fn procedure_centric(
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    min_sim: usize,
) -> Option<(usize, usize)> {
    best_match(
        |_| true,
        target.procedures.len(),
        |ti| sim(&query.procedures[qv], &target.procedures[ti]),
        min_sim,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ProcedureRep;
    use firmup_isa::Arch;

    /// Build a fake executable whose procedures have the given strand
    /// sets.
    fn exec(id: &str, procs: &[&[u64]]) -> ExecutableRep {
        ExecutableRep {
            id: id.into(),
            arch: Arch::Mips32,
            procedures: procs
                .iter()
                .enumerate()
                .map(|(i, strands)| {
                    let mut s = strands.to_vec();
                    s.sort_unstable();
                    s.dedup();
                    ProcedureRep {
                        addr: 0x1000 + (i as u32) * 0x100,
                        name: None,
                        strands: s,
                        block_count: 1,
                        size: 16,
                        interned: None,
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn immediate_match_takes_one_step() {
        let q = exec("q", &[&[1, 2, 3]]);
        let t = exec("t", &[&[1, 2, 3], &[9, 10]]);
        let r = play(&q, 0, &t, &GameConfig::default());
        assert_eq!(r.ended, GameEnd::QueryMatched);
        assert_eq!(r.query_match, Some((0, 3)));
        assert_eq!(r.steps, 1);
    }

    #[test]
    fn fig4_scenario_game_corrects_local_maximum() {
        // Fig. 4 of the paper: q1={s1,s2,s3}, q2={s1,s3,s4,s5};
        // t1={s1,s2,s3,s4,s5}, t2={s2,s3}.
        // Procedure-centric matches q1→t1 (sim 3); the game must end
        // with q1→t2 because q2 fits t1 better (sim 4).
        let q = exec("q", &[&[1, 2, 3], &[1, 3, 4, 5]]);
        let t = exec("t", &[&[1, 2, 3, 4, 5], &[2, 3]]);
        // Procedure-centric: local maximum.
        assert_eq!(procedure_centric(&q, 0, &t, 1), Some((0, 3)));
        // Game: executable-level maximum.
        let r = play(&q, 0, &t, &GameConfig::default());
        assert_eq!(r.ended, GameEnd::QueryMatched);
        assert_eq!(r.query_match.map(|(t, _)| t), Some(1), "q1 must match t2");
        assert!(r.steps > 1, "required rival interaction");
        // The full matching also pairs q2 with t1.
        assert!(r.matches.contains(&(1, 0, 4)));
    }

    #[test]
    fn no_candidates_is_fixed_point() {
        let q = exec("q", &[&[1, 2]]);
        let t = exec("t", &[&[7, 8]]);
        let r = play(&q, 0, &t, &GameConfig::default());
        assert_eq!(r.ended, GameEnd::FixedPoint);
        assert_eq!(r.query_match, None);
    }

    #[test]
    fn empty_target_is_fixed_point() {
        let q = exec("q", &[&[1]]);
        let t = exec("t", &[]);
        let r = play(&q, 0, &t, &GameConfig::default());
        assert_eq!(r.ended, GameEnd::FixedPoint);
    }

    #[test]
    fn matching_is_injective() {
        let q = exec("q", &[&[1, 2, 3], &[1, 2, 4], &[1, 2, 5]]);
        let t = exec("t", &[&[1, 2, 3, 4, 5], &[1, 2, 3], &[2, 5]]);
        let r = play(&q, 0, &t, &GameConfig::default());
        let mut qs: Vec<usize> = r.matches.iter().map(|&(q, _, _)| q).collect();
        let mut ts: Vec<usize> = r.matches.iter().map(|&(_, t, _)| t).collect();
        qs.dedup();
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(qs.len(), r.matches.len());
        assert_eq!(ts.len(), r.matches.len());
    }

    #[test]
    fn limits_stop_runaway_games() {
        // Large families of near-identical procedures force many rival
        // moves; a tiny step limit must end the game.
        let strands: Vec<Vec<u64>> = (0..20)
            .map(|i| (0..10u64).chain([100 + i as u64]).collect())
            .collect();
        let views: Vec<&[u64]> = strands.iter().map(Vec::as_slice).collect();
        let q = exec("q", &views);
        let t = exec("t", &views);
        let r = play(
            &q,
            0,
            &t,
            &GameConfig {
                max_steps: 2,
                ..GameConfig::default()
            },
        );
        assert!(matches!(
            r.ended,
            GameEnd::LimitExceeded | GameEnd::QueryMatched
        ));
        assert!(r.steps <= 2);
    }

    #[test]
    fn expired_deadline_ends_game_gracefully() {
        // A deadline already in the past must stop the game on its
        // first iteration with DeadlineExceeded — never hang or panic.
        let strands: Vec<Vec<u64>> = (0..20)
            .map(|i| (0..10u64).chain([100 + i as u64]).collect())
            .collect();
        let views: Vec<&[u64]> = strands.iter().map(Vec::as_slice).collect();
        let q = exec("q", &views);
        let t = exec("t", &views);
        let r = play(
            &q,
            0,
            &t,
            &GameConfig {
                deadline: Some(std::time::Instant::now()),
                ..GameConfig::default()
            },
        );
        assert_eq!(r.ended, GameEnd::DeadlineExceeded);
        assert_eq!(r.query_match, None);
        assert!(r.steps <= 1);
    }

    #[test]
    fn trace_records_rival_moves() {
        let q = exec("q", &[&[1, 2, 3], &[1, 3, 4, 5]]);
        let t = exec("t", &[&[1, 2, 3, 4, 5], &[2, 3]]);
        let r = play(&q, 0, &t, &GameConfig::default());
        assert!(!r.trace.is_empty());
        assert!(
            r.trace.iter().any(|s| !s.accepted),
            "a rejected move exists"
        );
        assert!(r.trace.iter().any(|s| s.accepted));
    }

    #[test]
    fn min_sim_gates_matches() {
        let q = exec("q", &[&[1, 2]]);
        let t = exec("t", &[&[1, 9]]); // sim = 1
        let strict = GameConfig {
            min_sim: 2,
            ..GameConfig::default()
        };
        assert_eq!(play(&q, 0, &t, &strict).query_match, None);
        assert!(play(&q, 0, &t, &GameConfig::default())
            .query_match
            .is_some());
    }
}
