//! Executable-level search: FirmUp's outer loop.
//!
//! Given a query executable and a query procedure, search a set of
//! target executables; for each target, play the back-and-forth game
//! and decide whether the target *contains* the query procedure. The
//! paper validated findings semi-manually (§5.2); as the automated
//! stand-in we accept a game match whose similarity clears a
//! configurable fraction of the query's strand count.
//!
//! A whole-corpus scan ([`scan_units`]) shares `Sim` across games: one
//! lazily filled similarity table per distinct query executable, whose
//! columns are the candidates' *strand-set classes* — procedures with
//! equal strand sets share a column, so firmware's reused code costs
//! one intersection per scan instead of one per game.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use std::borrow::Borrow;

use crate::executor::{chunk_size, resolve_threads, run_units};
use crate::game::{
    play, play_recorded, play_shared, GameConfig, GameEnd, GameResult, GameStats, SimMemo, SimTable,
};
use crate::sim::{ExecutableRep, GlobalContext, ProcedureRep, StrandPostings};

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Game limits.
    pub game: GameConfig,
    /// Absolute minimum shared strands for acceptance.
    pub min_sim: usize,
    /// Minimum accepted fraction of the query's strand set: raw
    /// `sim / |q|` without a global context, or significance-weighted
    /// `wsim(q,t) / mass(q)` with one.
    pub accept_ratio: f64,
    /// Worker threads for corpus search (0 = all available cores).
    pub threads: usize,
    /// Optional trained global context: weights strands by rarity so
    /// that ubiquitous loop/compare strands cannot carry an acceptance.
    pub context: Option<std::sync::Arc<GlobalContext>>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            game: GameConfig::default(),
            min_sim: 3,
            accept_ratio: 0.45,
            threads: 0,
            context: None,
        }
    }
}

/// Outcome of searching one target executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetResult {
    /// Target executable id.
    pub target_id: String,
    /// The matched procedure (index, address, sim) when accepted.
    pub matched: Option<MatchInfo>,
    /// Steps the game needed (Fig. 9's metric).
    pub steps: usize,
    /// How the game ended.
    pub ended: GameEnd,
    /// Microseconds left on the binding wall-clock deadline when the
    /// game returned (negative when the game overran it). `None` when
    /// the search ran without a deadline — the only case covered by the
    /// determinism invariant, which is why this is recorded here and not
    /// derived at report time.
    pub deadline_margin_us: Option<i64>,
}

/// An accepted match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchInfo {
    /// Procedure index in the target executable.
    pub index: usize,
    /// Procedure address.
    pub addr: u32,
    /// Shared strand count.
    pub sim: usize,
}

/// Scan-local telemetry accumulator: per-target counters and timing
/// histograms collected as plain fields, merged across workers, and
/// flushed to the global registry once per scan — so registry traffic
/// (a lock plus a `String` key per metric touch) stays O(1) in corpus
/// size instead of O(targets). Counter totals after
/// [`flush`](ScanStats::flush) are identical to the legacy per-target
/// recording.
#[derive(Debug, Default)]
pub struct ScanStats {
    targets: u64,
    accepted: u64,
    target_us: firmup_telemetry::LocalHistogram,
    game: GameStats,
}

impl ScanStats {
    /// An empty accumulator.
    pub fn new() -> ScanStats {
        ScanStats::default()
    }

    /// Targets searched since the last flush.
    pub fn targets(&self) -> u64 {
        self.targets
    }

    /// Fold another worker's accumulator into this one.
    pub fn merge(&mut self, other: &ScanStats) {
        self.targets += other.targets;
        self.accepted += other.accepted;
        self.target_us.merge(&other.target_us);
        self.game.merge(&other.game);
    }

    /// Merge everything into the global registry (a bounded handful of
    /// name resolutions, independent of corpus size) and clear.
    pub fn flush(&mut self) {
        if firmup_telemetry::enabled() {
            if self.targets > 0 {
                firmup_telemetry::add("search.targets", self.targets);
            }
            if self.accepted > 0 {
                firmup_telemetry::add("search.accepted", self.accepted);
            }
        }
        self.target_us.flush_into("search.target_us");
        self.game.flush();
        self.targets = 0;
        self.accepted = 0;
    }
}

/// Search a single target executable for `query.procedures[qv]`.
pub fn search_target(
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    config: &SearchConfig,
) -> TargetResult {
    search_target_with(query, qv, target, config, &config.game, None, None, None)
}

/// [`search_target`] with the scan-loop fast paths: `game` is
/// `config.game` with the scan's per-game deadline, `memo` is the
/// scan's shared `Sim` table for this target (`None` plays with a
/// per-game memo), `qp_mass` carries the query procedure's context
/// mass precomputed once per job (it is a pure function of the query
/// and the context, so recomputing it per target is pure overhead),
/// and `stats` redirects per-target telemetry into a scan-local
/// accumulator. With `stats == None` the legacy direct-to-registry
/// recording is preserved bit for bit.
#[allow(clippy::too_many_arguments)]
fn search_target_with(
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    config: &SearchConfig,
    game: &GameConfig,
    memo: Option<SimMemo<'_>>,
    qp_mass: Option<f64>,
    mut stats: Option<&mut ScanStats>,
) -> TargetResult {
    let started = firmup_telemetry::enabled().then(std::time::Instant::now);
    let game_stats = stats.as_deref_mut().map(|s| &mut s.game);
    let result: GameResult = match memo {
        Some(m) => play_shared(query, qv, target, game, m, game_stats),
        None => play_recorded(query, qv, target, game, game_stats),
    };
    let matched = result.query_match.and_then(|(ti, s)| {
        let qp = &query.procedures[qv];
        let tp = &target.procedures[ti];
        let fraction_ok = match &config.context {
            Some(ctx) => {
                let mass = qp_mass.unwrap_or_else(|| ctx.mass(qp));
                mass <= f64::EPSILON || ctx.weighted_sim(qp, tp) >= config.accept_ratio * mass
            }
            None => (s as f64) >= config.accept_ratio * qp.strand_count() as f64,
        };
        let accepted = s >= config.min_sim && fraction_ok;
        accepted.then_some(MatchInfo {
            index: ti,
            addr: tp.addr,
            sim: s,
        })
    });
    if let Some(t0) = started {
        let us = t0.elapsed().as_micros() as u64;
        match stats {
            Some(st) => {
                st.targets += 1;
                if matched.is_some() {
                    st.accepted += 1;
                }
                st.target_us.record(us);
            }
            None => {
                firmup_telemetry::observe("search.target_us", us);
                firmup_telemetry::incr("search.targets");
                if matched.is_some() {
                    firmup_telemetry::incr("search.accepted");
                }
            }
        }
    }
    let deadline_margin_us = game.deadline.map(|d| {
        let now = Instant::now();
        if d >= now {
            i64::try_from((d - now).as_micros()).unwrap_or(i64::MAX)
        } else {
            -i64::try_from((now - d).as_micros()).unwrap_or(i64::MAX)
        }
    });
    TargetResult {
        target_id: target.id.clone(),
        matched,
        steps: result.steps,
        ended: result.ended,
        deadline_margin_us,
    }
}

/// Search many targets in parallel over the work-stealing executor
/// ([`crate::executor::run_units`], matching the paper's threaded setup
/// on a 72-thread Xeon). Targets are chunked for scheduling; results
/// come back in target order for every thread count.
///
/// Targets are taken through [`Borrow`], so both owned slices
/// (`&[ExecutableRep]`) and borrowed candidate lists
/// (`&[&ExecutableRep]`, e.g. a prefiltered subset of a loaded corpus
/// index) work without cloning a single rep.
pub fn search_corpus<T: Borrow<ExecutableRep> + Sync>(
    query: &ExecutableRep,
    qv: usize,
    targets: &[T],
    config: &SearchConfig,
) -> Vec<TargetResult> {
    let _span = firmup_telemetry::span!("search");
    let threads = resolve_threads(config.threads);
    run_units(
        targets.len(),
        threads,
        chunk_size(targets.len(), threads),
        |i| search_target(query, qv, targets[i].borrow(), config),
    )
}

/// Candidate prefiltering over a strand postings table: rank executables
/// by (optionally significance-weighted) strand overlap with the query
/// procedure and keep the top `k`.
///
/// This is the corpus-index fast path: instead of playing the full
/// back-and-forth game against every executable in a 2,000-image corpus,
/// the scan walks only the posting lists of the query's strands —
/// touching exactly the executables that share at least one canonical
/// strand — and plays the game against the `k` best. With a
/// [`GlobalContext`], each shared strand contributes its significance
/// weight (so ubiquitous prologue strands cannot carry a candidate);
/// without one, every shared strand counts 1.0.
///
/// Returns `(executable index, overlap score)` pairs, best first, ties
/// broken toward the lower index for determinism. `k == 0` is treated
/// as "no limit" (rank everything that overlaps). Executables sharing
/// no strand with the query are never returned — the game cannot accept
/// them anyway ([`SearchConfig::min_sim`] ≥ 1).
///
/// Telemetry: each invocation adds the surviving candidate count to
/// `prefilter.candidates` and counts `prefilter.invocations`.
pub fn prefilter_candidates(
    query: &ProcedureRep,
    postings: &StrandPostings,
    context: Option<&GlobalContext>,
    k: usize,
) -> Vec<(usize, f64)> {
    let mut overlap: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    // Both the query's strand set and the postings key array are sorted,
    // so one forward galloping cursor finds every query strand's slot —
    // O(|q| log |keys|) worst case instead of a cold binary search per
    // strand, and nearly linear when the query's strands cluster.
    let keys = postings.keys();
    let mut base = 0usize;
    for &strand in &query.strands {
        let at = base + crate::merge::gallop_ge(&keys[base..], &strand);
        base = at;
        if keys.get(at) != Some(&strand) {
            continue;
        }
        base = at + 1;
        let w = context.map_or(1.0, |c| c.weight(strand));
        // A strand counts once per executable, no matter how many of its
        // procedures contain it — mirroring set-based `Sim`.
        let mut last: Option<u32> = None;
        for &(exe, _proc) in postings.list_at(at) {
            if last != Some(exe) {
                *overlap.entry(exe).or_default() += w;
                last = Some(exe);
            }
        }
    }
    let mut ranked: Vec<(usize, f64)> = overlap
        .into_iter()
        .map(|(exe, score)| (exe as usize, score))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    if k > 0 {
        ranked.truncate(k);
    }
    firmup_telemetry::incr("prefilter.invocations");
    firmup_telemetry::add("prefilter.candidates", ranked.len() as u64);
    ranked
}

// `TargetResult` needs Clone for the slot vector above.
impl TargetResult {
    /// Whether the search reported a (claimed) occurrence.
    pub fn found(&self) -> bool {
        self.matched.is_some()
    }
}

/// Provenance for one accepted finding: why the scan believes this
/// target procedure is the query (`scan --explain`). Every field is a
/// pure function of the input corpus and configuration, so explain
/// records inherit the scan determinism invariant — byte-identical
/// across thread counts and cold vs. warm — except `deadline_margin_us`,
/// which only exists on budget-bounded scans (already outside the
/// invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// 1-based rank of the target among the prefiltered candidates, if
    /// a candidate prefilter ran.
    pub prefilter_rank: Option<usize>,
    /// The target's strand-overlap prefilter score.
    pub prefilter_score: Option<f64>,
    /// How many candidates the prefilter ranked in total.
    pub prefilter_pool: Option<usize>,
    /// Strand count of the query procedure.
    pub query_strands: usize,
    /// Strand count of the matched target procedure.
    pub target_strands: usize,
    /// Shared canonical strands (the game's `sim`).
    pub shared_strands: usize,
    /// Acceptance threshold the match had to clear
    /// ([`SearchConfig::accept_ratio`]).
    pub accept_ratio: f64,
    /// Significance-weighted similarity, when a trained
    /// [`GlobalContext`] weighted the acceptance.
    pub weighted_sim: Option<f64>,
    /// Total significance mass of the query procedure under that
    /// context.
    pub query_mass: Option<f64>,
    /// Back-and-forth rounds the game needed.
    pub game_steps: usize,
    /// How the game ended ([`GameEnd::label`]).
    pub game_ended: GameEnd,
    /// Wall-clock margin to the binding deadline, from
    /// [`TargetResult::deadline_margin_us`].
    pub deadline_margin_us: Option<i64>,
}

impl Explain {
    /// Assemble the provenance of an accepted match from the search
    /// inputs that produced it. Prefilter provenance is attached
    /// separately via [`Explain::with_prefilter`].
    pub fn for_match(
        query: &ExecutableRep,
        qv: usize,
        target: &ExecutableRep,
        m: &MatchInfo,
        r: &TargetResult,
        config: &SearchConfig,
    ) -> Explain {
        let qp = &query.procedures[qv];
        let tp = &target.procedures[m.index];
        let (weighted_sim, query_mass) = match &config.context {
            Some(ctx) => (Some(ctx.weighted_sim(qp, tp)), Some(ctx.mass(qp))),
            None => (None, None),
        };
        Explain {
            prefilter_rank: None,
            prefilter_score: None,
            prefilter_pool: None,
            query_strands: qp.strand_count(),
            target_strands: tp.strand_count(),
            shared_strands: m.sim,
            accept_ratio: config.accept_ratio,
            weighted_sim,
            query_mass,
            game_steps: r.steps,
            game_ended: r.ended,
            deadline_margin_us: r.deadline_margin_us,
        }
    }

    /// Attach prefilter provenance: the target's 1-based `rank` and
    /// overlap `score` among a ranked pool of `pool` candidates.
    #[must_use]
    pub fn with_prefilter(mut self, rank: usize, score: f64, pool: usize) -> Explain {
        self.prefilter_rank = Some(rank);
        self.prefilter_score = Some(score);
        self.prefilter_pool = Some(pool);
        self
    }

    /// Render as a JSON object (the `explain` field of a JSON finding).
    pub fn to_json(&self) -> firmup_telemetry::json::Json {
        use firmup_telemetry::json::Json;
        let mut obj: Vec<(String, Json)> = Vec::new();
        let mut num = |k: &str, v: f64| obj.push((k.to_string(), Json::Num(v)));
        if let Some(r) = self.prefilter_rank {
            num("prefilter_rank", r as f64);
        }
        if let Some(s) = self.prefilter_score {
            num("prefilter_score", s);
        }
        if let Some(p) = self.prefilter_pool {
            num("prefilter_pool", p as f64);
        }
        num("query_strands", self.query_strands as f64);
        num("target_strands", self.target_strands as f64);
        num("shared_strands", self.shared_strands as f64);
        num("accept_ratio", self.accept_ratio);
        if let Some(w) = self.weighted_sim {
            num("weighted_sim", w);
        }
        if let Some(m) = self.query_mass {
            num("query_mass", m);
        }
        num("game_steps", self.game_steps as f64);
        obj.push((
            "game_ended".to_string(),
            Json::Str(self.game_ended.label().to_string()),
        ));
        if let Some(us) = self.deadline_margin_us {
            obj.push(("deadline_margin_us".to_string(), Json::Num(us as f64)));
        }
        Json::Obj(obj)
    }

    /// Render as indented human-readable lines (the `--explain` text
    /// output under a finding).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if let (Some(rank), Some(score), Some(pool)) = (
            self.prefilter_rank,
            self.prefilter_score,
            self.prefilter_pool,
        ) {
            let _ = writeln!(
                out,
                "    prefilter: rank {rank}/{pool} (overlap score {score:.2})"
            );
        }
        let _ = write!(
            out,
            "    strands: {} shared of {} query / {} target (accept ratio {:.2})",
            self.shared_strands, self.query_strands, self.target_strands, self.accept_ratio
        );
        out.push('\n');
        if let (Some(w), Some(m)) = (self.weighted_sim, self.query_mass) {
            let _ = writeln!(out, "    weighted: wsim {w:.3} of query mass {m:.3}");
        }
        let _ = write!(
            out,
            "    game: {} step(s), ended {}",
            self.game_steps,
            self.game_ended.label()
        );
        out.push('\n');
        if let Some(us) = self.deadline_margin_us {
            let _ = writeln!(out, "    deadline margin: {us} us");
        }
        out
    }
}

/// Wall-clock and step budgets for a scan, applied at three scopes
/// (per-game, per-target-executable, whole-scan). `None` means
/// unbounded; the default is fully unbounded, matching the legacy
/// [`search_corpus`] behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanBudget {
    /// Wall-clock bound for a single back-and-forth game.
    pub per_game: Option<Duration>,
    /// Wall-clock bound for all work on one target executable.
    pub per_target: Option<Duration>,
    /// Wall-clock bound for the whole scan.
    pub total: Option<Duration>,
    /// Total game steps across the whole scan (a deterministic budget
    /// for reproducible degradation, unlike wall-clock bounds).
    pub max_steps_total: Option<u64>,
    /// Absolute wall-clock deadline for the whole scan. Unlike `total`
    /// (which is measured from when the scan loop itself starts), this
    /// is an externally anchored instant — set it to charge setup work
    /// (index load, queue wait in a server) against the caller's
    /// deadline. When both are set the earlier one binds.
    pub deadline: Option<Instant>,
}

impl ScanBudget {
    /// A budget with no bounds set.
    pub fn unlimited() -> ScanBudget {
        ScanBudget::default()
    }

    /// Whether any bound is configured.
    pub fn is_bounded(&self) -> bool {
        *self != ScanBudget::default()
    }

    /// Convert the relative `total` bound into an absolute [`deadline`]
    /// anchored at `now`, so everything that happens after `now` — index
    /// load, queue wait, lift — counts against the whole-scan allowance
    /// instead of restarting the clock when the scan loop is reached.
    /// Keeps the earlier instant when a deadline is already set.
    ///
    /// [`deadline`]: ScanBudget::deadline
    #[must_use]
    pub fn anchored(mut self, now: Instant) -> ScanBudget {
        if let Some(total) = self.total.take() {
            let d = now + total;
            self.deadline = Some(self.deadline.map_or(d, |e| e.min(d)));
        }
        self
    }

    /// The binding wall-clock deadline for a game starting now, given
    /// when the scan and the current target started — the earliest of
    /// the three scoped deadlines, tagged with which bound it came from.
    fn game_deadline(
        &self,
        scan_start: Instant,
        target_start: Instant,
    ) -> Option<(Instant, BudgetReason)> {
        let mut best: Option<(Instant, BudgetReason)> = None;
        let mut consider = |deadline: Option<Instant>, reason: BudgetReason| {
            if let Some(d) = deadline {
                if best.is_none_or(|(b, _)| d < b) {
                    best = Some((d, reason));
                }
            }
        };
        consider(
            self.per_game.map(|d| Instant::now() + d),
            BudgetReason::GameDeadline,
        );
        consider(
            self.per_target.map(|d| target_start + d),
            BudgetReason::TargetDeadline,
        );
        consider(
            self.total.map(|d| scan_start + d),
            BudgetReason::ScanDeadline,
        );
        consider(self.deadline, BudgetReason::ScanDeadline);
        best
    }
}

/// Which [`ScanBudget`] bound fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetReason {
    /// [`ScanBudget::per_game`] expired mid-game.
    GameDeadline,
    /// [`ScanBudget::per_target`] expired for this target.
    TargetDeadline,
    /// [`ScanBudget::total`] expired for the whole scan.
    ScanDeadline,
    /// [`ScanBudget::max_steps_total`] was spent.
    StepBudget,
}

impl fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetReason::GameDeadline => "per-game deadline",
            BudgetReason::TargetDeadline => "per-target deadline",
            BudgetReason::ScanDeadline => "scan deadline",
            BudgetReason::StepBudget => "step budget",
        })
    }
}

/// Fault-tolerant outcome of one target: completed, poisoned by a
/// contained panic, or degraded by a budget bound. The scan always
/// produces exactly one outcome per target — a pathological target can
/// cost at most its own slot.
#[derive(Debug, Clone)]
pub enum TargetOutcome {
    /// The game ran to a natural end.
    Completed(TargetResult),
    /// The per-target work panicked; the unwind was contained.
    Poisoned {
        /// Target executable id.
        target_id: String,
        /// Rendered panic payload.
        panic: String,
    },
    /// A budget bound fired. `partial` carries the degraded result when
    /// the game got far enough to report one.
    BudgetExceeded {
        /// Target executable id.
        target_id: String,
        /// Partial result, when the interrupted game produced one.
        partial: Option<TargetResult>,
        /// Which bound fired.
        reason: BudgetReason,
    },
}

impl TargetOutcome {
    /// The target executable id.
    pub fn target_id(&self) -> &str {
        match self {
            TargetOutcome::Completed(r) => &r.target_id,
            TargetOutcome::Poisoned { target_id, .. }
            | TargetOutcome::BudgetExceeded { target_id, .. } => target_id,
        }
    }

    /// The underlying result, if any (complete or partial).
    pub fn result(&self) -> Option<&TargetResult> {
        match self {
            TargetOutcome::Completed(r) => Some(r),
            TargetOutcome::BudgetExceeded { partial, .. } => partial.as_ref(),
            TargetOutcome::Poisoned { .. } => None,
        }
    }

    /// Whether a (possibly partial) result reports an occurrence.
    pub fn found(&self) -> bool {
        self.result().is_some_and(TargetResult::found)
    }
}

/// The report of a fault-tolerant corpus search: one outcome per
/// target, plus casualty counts.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// One outcome per target, in target order.
    pub outcomes: Vec<TargetOutcome>,
}

impl ScanReport {
    /// Completed (non-degraded) results.
    pub fn completed(&self) -> impl Iterator<Item = &TargetResult> {
        self.outcomes.iter().filter_map(|o| match o {
            TargetOutcome::Completed(r) => Some(r),
            _ => None,
        })
    }

    /// Number of targets whose work panicked.
    pub fn poisoned(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, TargetOutcome::Poisoned { .. }))
            .count()
    }

    /// Number of targets degraded by a budget bound.
    pub fn budget_exceeded(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, TargetOutcome::BudgetExceeded { .. }))
            .count()
    }

    /// All results, complete or partial, in target order.
    pub fn results(&self) -> impl Iterator<Item = &TargetResult> {
        self.outcomes.iter().filter_map(TargetOutcome::result)
    }
}

/// The inputs every game of one [`scan_units`] call shares.
struct ScanCtx<'a> {
    config: &'a SearchConfig,
    budget: &'a ScanBudget,
    scan_start: Instant,
    steps_spent: AtomicU64,
}

/// Play one target under budget bounds, containing panics. The per-game
/// deadline is computed *here*, immediately before the game starts —
/// never once per worker or per unit — so a slow sibling game on the
/// same worker can never eat a later game's `per_game` allowance.
fn run_one_target(
    ctx: &ScanCtx<'_>,
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    memo: Option<SimMemo<'_>>,
    qp_mass: Option<f64>,
    stats: Option<&mut ScanStats>,
) -> TargetOutcome {
    let budget = ctx.budget;
    // Deterministic bound first: refuse to start once the scan-wide
    // step budget is spent.
    if budget
        .max_steps_total
        .is_some_and(|max| ctx.steps_spent.load(Ordering::Relaxed) >= max)
    {
        firmup_telemetry::incr("scan.budget_exceeded");
        return TargetOutcome::BudgetExceeded {
            target_id: target.id.clone(),
            partial: None,
            reason: BudgetReason::StepBudget,
        };
    }
    let target_start = Instant::now();
    // A scan/target deadline already in the past: report without
    // playing at all.
    let deadline = budget.game_deadline(ctx.scan_start, target_start);
    if let Some((d, reason)) = deadline {
        if d <= target_start {
            firmup_telemetry::incr("scan.budget_exceeded");
            return TargetOutcome::BudgetExceeded {
                target_id: target.id.clone(),
                partial: None,
                reason,
            };
        }
    }
    let game = GameConfig {
        deadline: deadline.map(|(d, _)| d),
        ..ctx.config.game
    };
    let played = catch_unwind(AssertUnwindSafe(|| {
        search_target_with(query, qv, target, ctx.config, &game, memo, qp_mass, stats)
    }));
    match played {
        Ok(r) => {
            ctx.steps_spent.fetch_add(r.steps as u64, Ordering::Relaxed);
            if r.ended == GameEnd::DeadlineExceeded {
                firmup_telemetry::incr("scan.budget_exceeded");
                let reason = deadline.map_or(BudgetReason::GameDeadline, |(_, r)| r);
                TargetOutcome::BudgetExceeded {
                    target_id: target.id.clone(),
                    partial: Some(r),
                    reason,
                }
            } else {
                TargetOutcome::Completed(r)
            }
        }
        Err(payload) => {
            firmup_telemetry::incr("scan.targets_poisoned");
            TargetOutcome::Poisoned {
                target_id: target.id.clone(),
                panic: crate::error::panic_message(payload.as_ref()),
            }
        }
    }
}

/// Table columns for one candidate set: the strand-set class of every
/// candidate procedure, numbered densely within the set.
#[derive(Debug)]
struct ColumnMap {
    /// Sorted corpus indices of the candidates.
    targets: Vec<usize>,
    /// Target `targets[i]`'s procedure columns are
    /// `columns[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    columns: Vec<u32>,
    /// Number of distinct columns.
    width: usize,
}

/// The `Sim` tables of one [`scan_units`] call: one per distinct query
/// executable (compared by `ptr::eq`, so the CVE jobs of one package
/// share a table), over the union of its jobs' candidates.
#[derive(Debug)]
struct ScanSims {
    /// Each job's query group.
    job_group: Vec<usize>,
    /// Each group's table and the index of its column map in `maps`;
    /// `None` where `rows × columns` would exceed
    /// [`DENSE_CELL_LIMIT`](crate::game::DENSE_CELL_LIMIT).
    tables: Vec<Option<(SimTable, usize)>>,
    /// Column maps, shared by groups with equal candidate sets (every
    /// package's jobs on one architecture, in an exhaustive scan).
    maps: Vec<ColumnMap>,
}

impl ScanSims {
    /// Build the tables under a `sim_table` span. Every candidate
    /// procedure gets a strand-set class — equal sorted `strands` share
    /// one — numbered once over all candidates, then renumbered densely
    /// per candidate set as its table columns.
    fn build<T: Borrow<ExecutableRep>>(
        jobs: &[(&ExecutableRep, usize)],
        units: &[ScanUnit],
        corpus: &[T],
    ) -> ScanSims {
        let _span = firmup_telemetry::span!("sim_table");
        let mut queries: Vec<&ExecutableRep> = Vec::new();
        let job_group: Vec<usize> = jobs
            .iter()
            .map(|&(q, _)| {
                queries
                    .iter()
                    .position(|&r| std::ptr::eq(r, q))
                    .unwrap_or_else(|| {
                        queries.push(q);
                        queries.len() - 1
                    })
            })
            .collect();
        let mut group_targets: Vec<Vec<usize>> = vec![Vec::new(); queries.len()];
        for u in units {
            group_targets[job_group[u.job]].extend_from_slice(&u.targets);
        }
        for ts in &mut group_targets {
            ts.sort_unstable();
            ts.dedup();
        }
        let (first, class, classes) = strand_set_classes(&group_targets, corpus);

        let mut maps: Vec<ColumnMap> = Vec::new();
        let mut column_of: Vec<u32> = vec![u32::MAX; classes];
        let tables = group_targets
            .into_iter()
            .zip(&queries)
            .map(|(targets, q)| {
                let map = match maps.iter().position(|m| m.targets == targets) {
                    Some(i) => i,
                    None => {
                        maps.push(ColumnMap::new(
                            targets,
                            |t| {
                                let nt = corpus[t].borrow().procedures.len();
                                &class[first[t]..first[t] + nt]
                            },
                            &mut column_of,
                        ));
                        maps.len() - 1
                    }
                };
                SimTable::new(q.procedures.len(), maps[map].width).map(|table| (table, map))
            })
            .collect();
        ScanSims {
            job_group,
            tables,
            maps,
        }
    }

    /// Jobs whose group plays with per-game memos.
    fn fallback_jobs(&self) -> usize {
        self.job_group
            .iter()
            .filter(|&&g| self.tables[g].is_none())
            .count()
    }

    /// The shared memo for `job`'s game on corpus target `t` (one of its
    /// candidates), or `None` when the job's group fell back.
    fn memo(&self, job: usize, t: usize) -> Option<SimMemo<'_>> {
        let (table, map) = self.tables[self.job_group[job]].as_ref()?;
        let m = &self.maps[*map];
        let i = m
            .targets
            .binary_search(&t)
            .expect("every unit target is a candidate of its job");
        Some(table.memo(&m.columns[m.starts[i]..m.starts[i + 1]]))
    }
}

impl ColumnMap {
    /// Number `targets`' classes (`classes_of(t)` per target) densely.
    /// `column_of` is scratch indexed by class, all `u32::MAX` on entry
    /// and on return.
    fn new<'c>(
        targets: Vec<usize>,
        classes_of: impl Fn(usize) -> &'c [u32],
        column_of: &mut [u32],
    ) -> ColumnMap {
        let mut starts = Vec::with_capacity(targets.len() + 1);
        let mut columns: Vec<u32> = Vec::new();
        let mut width = 0u32;
        starts.push(0);
        for &t in &targets {
            for &c in classes_of(t) {
                let col = &mut column_of[c as usize];
                if *col == u32::MAX {
                    *col = width;
                    width += 1;
                }
                columns.push(*col);
            }
            starts.push(columns.len());
        }
        for &t in &targets {
            for &c in classes_of(t) {
                column_of[c as usize] = u32::MAX;
            }
        }
        ColumnMap {
            targets,
            starts,
            columns,
            width: width as usize,
        }
    }
}

/// Strand-set classes of every procedure of every target in `groups`:
/// returns, per corpus index, the offset of its first procedure in the
/// class list (`usize::MAX` if not a target), the class list, and the
/// class count. Sets are found through a cheap order-free fingerprint;
/// equal fingerprints are confirmed by comparing the sets, and a
/// genuine (or crafted) collision goes through an exact slice-keyed map.
fn strand_set_classes<T: Borrow<ExecutableRep>>(
    groups: &[Vec<usize>],
    corpus: &[T],
) -> (Vec<usize>, Vec<u32>, usize) {
    let mut first: Vec<usize> = vec![usize::MAX; corpus.len()];
    let mut class: Vec<u32> = Vec::new();
    let mut by_print: HashMap<u64, u32> = HashMap::new();
    let mut collided: HashMap<&[u64], u32> = HashMap::new();
    let mut sets: Vec<&[u64]> = Vec::new();
    for &t in groups.iter().flatten() {
        if first[t] != usize::MAX {
            continue;
        }
        first[t] = class.len();
        for p in &corpus[t].borrow().procedures {
            let set = p.strands.as_slice();
            let print = set.iter().fold(set.len() as u64, |h, &s| h.wrapping_add(s));
            let fresh = sets.len() as u32;
            let c = *by_print.entry(print).or_insert(fresh);
            let c = if c == fresh {
                sets.push(set);
                c
            } else if sets[c as usize] == set {
                c
            } else {
                *collided.entry(set).or_insert_with(|| {
                    sets.push(set);
                    fresh
                })
            };
            class.push(c);
        }
    }
    (first, class, sets.len())
}

/// One fine-grained scan work unit: a query job plus the shard of
/// candidate targets it plays against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanUnit {
    /// Index into the job list passed to [`scan_units`].
    pub job: usize,
    /// Indices into the corpus slice passed to [`scan_units`] —
    /// typically one candidate shard of a prefiltered list.
    pub targets: Vec<usize>,
}

/// Execute fine-grained (query × candidate-shard) scan units over the
/// work-stealing executor, sharing one [`ScanBudget`] across all units:
/// the scan deadline and the step budget are global, while per-target
/// and per-game deadlines are re-derived immediately before every
/// single game — a slow sibling game on the same worker can never eat a
/// later game's allowance. Returns one outcome vector per unit,
/// in unit order — combine a job's vectors with [`merge_outcomes`] for
/// an arrival-order-free report.
///
/// `stop` is polled before each unit starts; once it returns `true`
/// remaining units yield empty outcome vectors (the cooperative-cancel
/// path behind `^C`). A cancelled scan naturally loses the determinism
/// guarantee, exactly like a wall-clock budget.
///
/// Games read `Sim` through one table per distinct query executable
/// (see the module docs), built under a `sim_table` span before the
/// units run and dropped when the call returns. A group whose table
/// would exceed [`DENSE_CELL_LIMIT`](crate::game::DENSE_CELL_LIMIT)
/// plays with per-game memos instead, counted per job in
/// `game.sim_table_fallbacks`. Which worker fills a cell first never
/// matters: the value is a pure function of the two strand sets.
pub fn scan_units<T: Borrow<ExecutableRep> + Sync>(
    jobs: &[(&ExecutableRep, usize)],
    units: &[ScanUnit],
    corpus: &[T],
    config: &SearchConfig,
    budget: &ScanBudget,
    stop: &(dyn Fn() -> bool + Sync),
) -> Vec<Vec<TargetOutcome>> {
    let _span = firmup_telemetry::span!("search");
    let ctx = ScanCtx {
        config,
        budget,
        scan_start: Instant::now(),
        steps_spent: AtomicU64::new(0),
    };
    let sims = ScanSims::build(jobs, units, corpus);
    // The query's significance mass is a pure function of (job, context):
    // compute it once per job here instead of once per target inside the
    // acceptance check.
    let job_mass: Option<Vec<f64>> = config.context.as_ref().map(|ctx| {
        jobs.iter()
            .map(|&(q, qv)| ctx.mass(&q.procedures[qv]))
            .collect()
    });
    let mut scan_stats = ScanStats::new();
    scan_stats
        .game
        .record_table_fallbacks(sims.fallback_jobs() as u64);
    let stats = std::sync::Mutex::new(scan_stats);
    let out = run_units(units.len(), resolve_threads(config.threads), 1, |u| {
        if stop() {
            return Vec::new();
        }
        let unit = &units[u];
        let (query, qv) = jobs[unit.job];
        let qp_mass = job_mass.as_ref().map(|m| m[unit.job]);
        let mut local = ScanStats::new();
        let outcomes: Vec<TargetOutcome> = unit
            .targets
            .iter()
            .map(|&t| {
                run_one_target(
                    &ctx,
                    query,
                    qv,
                    corpus[t].borrow(),
                    sims.memo(unit.job, t),
                    qp_mass,
                    Some(&mut local),
                )
            })
            .collect();
        stats.lock().expect("scan stats lock").merge(&local);
        outcomes
    });
    stats.into_inner().expect("scan stats lock").flush();
    out
}

/// Deterministically merge one query job's per-unit outcomes: findings
/// first, ranked by (sim descending, target id, match address), then
/// the non-findings by target id. The order is a pure function of
/// result content and stable identifiers — never of unit arrival order
/// — which is what keeps `--threads N` byte-identical for every `N`.
pub fn merge_outcomes(per_unit: Vec<Vec<TargetOutcome>>) -> Vec<TargetOutcome> {
    fn key(o: &TargetOutcome) -> (u8, std::cmp::Reverse<usize>, &str, u32) {
        match o.result().and_then(|r| r.matched.as_ref()) {
            Some(m) => (0, std::cmp::Reverse(m.sim), o.target_id(), m.addr),
            None => (1, std::cmp::Reverse(0), o.target_id(), 0),
        }
    }
    let mut all: Vec<TargetOutcome> = per_unit.into_iter().flatten().collect();
    all.sort_by(|a, b| key(a).cmp(&key(b)));
    all
}

/// Fault-tolerant corpus search: like [`search_corpus`] but each target
/// is isolated — a panic poisons only its own slot ([`TargetOutcome::
/// Poisoned`]), and [`ScanBudget`] bounds degrade targets gracefully
/// instead of hanging the scan. Implemented as a single-job [`scan_units`]
/// call whose units are contiguous target chunks, so outcomes keep
/// target order. Telemetry: contained panics count in
/// `scan.targets_poisoned`, budget casualties in `scan.budget_exceeded`.
pub fn search_corpus_robust<T: Borrow<ExecutableRep> + Sync>(
    query: &ExecutableRep,
    qv: usize,
    targets: &[T],
    config: &SearchConfig,
    budget: &ScanBudget,
) -> ScanReport {
    let chunk = chunk_size(targets.len(), resolve_threads(config.threads));
    let units: Vec<ScanUnit> = (0..targets.len())
        .step_by(chunk)
        .map(|start| ScanUnit {
            job: 0,
            targets: (start..(start + chunk).min(targets.len())).collect(),
        })
        .collect();
    let per_unit = scan_units(&[(query, qv)], &units, targets, config, budget, &|| false);
    ScanReport {
        outcomes: per_unit.into_iter().flatten().collect(),
    }
}

/// Top-k candidates within one target: repeatedly play the game,
/// excluding previously returned procedures. The paper measures the
/// human-effort tradeoff of top-k result lists in §5.3 (Fig. 9's
/// discussion); FirmUp itself returns one match per game, so k > 1 is
/// obtained by re-playing on the residual executable.
pub fn top_k(
    query: &ExecutableRep,
    qv: usize,
    target: &ExecutableRep,
    k: usize,
    config: &GameConfig,
) -> Vec<MatchInfo> {
    let mut out = Vec::new();
    let mut residual = target.clone();
    let mut removed: Vec<usize> = Vec::new(); // original indices, sorted
    for _ in 0..k {
        let g = play(query, qv, &residual, config);
        let Some((ti, s)) = g.query_match else { break };
        // Map the residual index back to the original executable.
        let mut orig = ti;
        for &r in &removed {
            if r <= orig {
                orig += 1;
            }
        }
        out.push(MatchInfo {
            index: orig,
            addr: residual.procedures[ti].addr,
            sim: s,
        });
        residual.procedures.remove(ti);
        let insert_at = removed.partition_point(|&r| r <= orig);
        removed.insert(insert_at, orig);
        if residual.procedures.is_empty() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ProcedureRep;
    use firmup_isa::Arch;

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
    fn accepts_strong_matches_rejects_weak() {
        let q = exec("q", &[&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]]);
        let strong = exec("strong", &[&[1, 2, 3, 4, 5, 6, 7, 99]]);
        let weak = exec("weak", &[&[1, 200, 300]]);
        let config = SearchConfig::default();
        assert!(search_target(&q, 0, &strong, &config).found());
        assert!(
            !search_target(&q, 0, &weak, &config).found(),
            "1/10 shared is below ratio"
        );
    }

    #[test]
    fn corpus_search_parallel_matches_serial() {
        let q = exec("q", &[&[1, 2, 3, 4, 5, 6]]);
        let targets: Vec<ExecutableRep> = (0..24)
            .map(|i| {
                if i % 3 == 0 {
                    exec(&format!("t{i}"), &[&[1, 2, 3, 4, 5, 88], &[7, 8]])
                } else {
                    exec(&format!("t{i}"), &[&[100 + i as u64, 200]])
                }
            })
            .collect();
        let serial = SearchConfig {
            threads: 1,
            ..SearchConfig::default()
        };
        let parallel = SearchConfig {
            threads: 4,
            ..SearchConfig::default()
        };
        let a = search_corpus(&q, 0, &targets, &serial);
        let b = search_corpus(&q, 0, &targets, &parallel);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.target_id, y.target_id);
            assert_eq!(x.matched, y.matched);
        }
        assert_eq!(a.iter().filter(|r| r.found()).count(), 8);
    }

    #[test]
    fn top_k_returns_decreasing_distinct_candidates() {
        let q = exec("q", &[&[1, 2, 3, 4, 5, 6]]);
        let t = exec(
            "t",
            &[
                &[1, 2, 3, 4, 5, 9],
                &[1, 2, 3, 7, 8],
                &[1, 2, 10],
                &[50, 51],
            ],
        );
        let hits = crate::search::top_k(&q, 0, &t, 3, &crate::game::GameConfig::default());
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 1);
        assert_eq!(hits[2].index, 2);
        assert!(hits[0].sim >= hits[1].sim && hits[1].sim >= hits[2].sim);
        // Addresses refer to the *original* executable.
        assert_eq!(hits[2].addr, t.procedures[2].addr);
    }

    #[test]
    fn top_k_stops_when_no_more_candidates() {
        let q = exec("q", &[&[1, 2]]);
        let t = exec("t", &[&[1, 2], &[99]]);
        let hits = crate::search::top_k(&q, 0, &t, 5, &crate::game::GameConfig::default());
        assert_eq!(hits.len(), 1, "the 99-only procedure shares nothing");
    }

    #[test]
    fn empty_targets_ok() {
        let q = exec("q", &[&[1]]);
        let empty: &[ExecutableRep] = &[];
        assert!(search_corpus(&q, 0, empty, &SearchConfig::default()).is_empty());
    }

    #[test]
    fn robust_search_matches_legacy_on_healthy_corpus() {
        let q = exec("q", &[&[1, 2, 3, 4, 5, 6]]);
        let targets: Vec<ExecutableRep> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    exec(&format!("t{i}"), &[&[1, 2, 3, 4, 5, 88], &[7, 8]])
                } else {
                    exec(&format!("t{i}"), &[&[100 + i as u64, 200]])
                }
            })
            .collect();
        let config = SearchConfig {
            threads: 4,
            ..SearchConfig::default()
        };
        let legacy = search_corpus(&q, 0, &targets, &config);
        let report = search_corpus_robust(&q, 0, &targets, &config, &ScanBudget::unlimited());
        assert_eq!(report.outcomes.len(), legacy.len());
        assert_eq!(report.poisoned(), 0);
        assert_eq!(report.budget_exceeded(), 0);
        for (o, r) in report.outcomes.iter().zip(&legacy) {
            assert_eq!(o.target_id(), r.target_id);
            assert_eq!(o.result().and_then(|x| x.matched.clone()), r.matched);
        }
    }

    #[test]
    fn panicking_targets_poison_only_their_slot() {
        // An out-of-range query index makes `play` panic for every
        // target; the robust scan must contain each unwind and still
        // produce one outcome per target.
        let q = exec("q", &[&[1, 2, 3]]);
        let targets = vec![exec("a", &[&[1, 2]]), exec("b", &[&[3]])];
        let config = SearchConfig {
            threads: 2,
            ..SearchConfig::default()
        };
        let report = search_corpus_robust(&q, 99, &targets, &config, &ScanBudget::unlimited());
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.poisoned(), 2);
        for (o, id) in report.outcomes.iter().zip(["a", "b"]) {
            assert_eq!(o.target_id(), id);
            match o {
                TargetOutcome::Poisoned { panic, .. } => {
                    assert!(panic.contains("out of range"), "{panic}");
                }
                other => panic!("expected Poisoned, got {other:?}"),
            }
        }
    }

    #[test]
    fn spent_step_budget_degrades_remaining_targets() {
        let q = exec("q", &[&[1, 2, 3]]);
        let targets = vec![exec("a", &[&[1, 2, 3]]), exec("b", &[&[1, 2, 3]])];
        let config = SearchConfig {
            threads: 1,
            ..SearchConfig::default()
        };
        let budget = ScanBudget {
            max_steps_total: Some(0),
            ..ScanBudget::default()
        };
        let report = search_corpus_robust(&q, 0, &targets, &config, &budget);
        assert_eq!(report.budget_exceeded(), 2);
        for o in &report.outcomes {
            assert!(matches!(
                o,
                TargetOutcome::BudgetExceeded {
                    reason: BudgetReason::StepBudget,
                    partial: None,
                    ..
                }
            ));
        }
    }

    #[test]
    fn expired_scan_deadline_reports_partial_outcomes() {
        let q = exec("q", &[&[1, 2, 3]]);
        let targets = vec![exec("a", &[&[1, 2, 3]])];
        let budget = ScanBudget {
            total: Some(Duration::ZERO),
            ..ScanBudget::default()
        };
        let config = SearchConfig {
            threads: 1,
            ..SearchConfig::default()
        };
        let report = search_corpus_robust(&q, 0, &targets, &config, &budget);
        assert_eq!(report.outcomes.len(), 1);
        match &report.outcomes[0] {
            TargetOutcome::BudgetExceeded { reason, .. } => {
                assert_eq!(*reason, BudgetReason::ScanDeadline);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert!(!report.outcomes[0].found());
    }

    #[test]
    fn slow_game_exceeds_only_its_own_unit_under_parallel_workers() {
        // Regression test for per-game deadline scoping: the deadline
        // must be derived immediately before *each* game, never once
        // per worker. A single pathologically slow target must come
        // back BudgetExceeded while every sibling unit on the same
        // worker pool completes.
        //
        // The slow game is a rival cascade: the query has procedures
        // q_k sharing `common` plus k extra strands with every target
        // procedure, so the back-match from any target prefers the
        // highest-index unmatched q over q_0 — each step counters the
        // last, and with ~32k-strand sets every step costs millions of
        // merge operations, far beyond a 1 ms game allowance.
        let common: Vec<u64> = (0..32_768).collect();
        let extras: Vec<u64> = (900_000..900_040).collect();
        let proc_with = |addr: u32, strands: Vec<u64>| ProcedureRep {
            addr,
            name: None,
            strands,
            block_count: 1,
            size: 16,
            interned: None,
        };
        let query = ExecutableRep {
            id: "q".into(),
            arch: Arch::Mips32,
            procedures: (0..40)
                .map(|k| {
                    let mut s = common.clone();
                    s.extend_from_slice(&extras[..k]);
                    proc_with(0x1000 + k as u32, s)
                })
                .collect(),
        };
        let slow = ExecutableRep {
            id: "slow".into(),
            arch: Arch::Mips32,
            procedures: (0..40)
                .map(|j| {
                    let mut s = common.clone();
                    s.extend_from_slice(&extras);
                    proc_with(0x2000 + j as u32, s)
                })
                .collect(),
        };
        // Fast siblings: one tiny procedure each. Their games accept on
        // the first step (sim ties break toward q_0), so they finish
        // with QueryMatched no matter how slow the wall clock is.
        let fast = |i: u32| ExecutableRep {
            id: format!("fast{i}"),
            arch: Arch::Mips32,
            procedures: vec![proc_with(0x3000 + i, vec![1, 2, 3])],
        };
        let targets = vec![slow, fast(0), fast(1), fast(2)];
        let config = SearchConfig {
            threads: 2,
            ..SearchConfig::default()
        };
        let budget = ScanBudget {
            per_game: Some(Duration::from_millis(1)),
            ..ScanBudget::default()
        };
        let report = search_corpus_robust(&query, 0, &targets, &config, &budget);
        assert_eq!(report.outcomes.len(), 4);
        match &report.outcomes[0] {
            TargetOutcome::BudgetExceeded { reason, .. } => {
                assert_eq!(*reason, BudgetReason::GameDeadline);
            }
            other => panic!("slow target should exceed its game deadline, got {other:?}"),
        }
        for o in &report.outcomes[1..] {
            assert!(
                matches!(o, TargetOutcome::Completed(_)),
                "sibling unit degraded by a neighbour's slow game: {o:?}"
            );
        }
    }

    #[test]
    fn merge_outcomes_is_independent_of_unit_split_and_arrival() {
        let done = |id: &str, sim: Option<(usize, u32)>| {
            TargetOutcome::Completed(TargetResult {
                target_id: id.into(),
                matched: sim.map(|(s, addr)| MatchInfo {
                    index: 0,
                    addr,
                    sim: s,
                }),
                steps: 1,
                ended: GameEnd::QueryMatched,
                deadline_margin_us: None,
            })
        };
        let a = done("t/a", Some((9, 0x10)));
        let b = done("t/b", Some((9, 0x20))); // ties with a on sim → id order
        let c = done("t/c", Some((12, 0x30))); // best sim → first
        let d = done("t/d", None); // non-finding → after all findings
                                   // Two different unit splits, each in a different arrival order.
        let merged1 = merge_outcomes(vec![
            vec![d.clone(), a.clone()],
            vec![b.clone()],
            vec![c.clone()],
        ]);
        let merged2 = merge_outcomes(vec![vec![c.clone(), b.clone(), a.clone(), d.clone()]]);
        let ids = |v: &[TargetOutcome]| -> Vec<String> {
            v.iter().map(|o| o.target_id().to_string()).collect()
        };
        assert_eq!(ids(&merged1), vec!["t/c", "t/a", "t/b", "t/d"]);
        assert_eq!(ids(&merged1), ids(&merged2));
    }

    #[test]
    fn anchored_budget_converts_total_into_earliest_deadline() {
        let now = Instant::now();
        // total becomes an absolute deadline anchored at `now`.
        let b = ScanBudget {
            total: Some(Duration::from_secs(5)),
            ..ScanBudget::default()
        }
        .anchored(now);
        assert_eq!(b.total, None);
        assert_eq!(b.deadline, Some(now + Duration::from_secs(5)));
        assert!(b.is_bounded());
        // An earlier pre-existing deadline wins; a later one is tightened.
        let early = now + Duration::from_secs(1);
        let b = ScanBudget {
            total: Some(Duration::from_secs(5)),
            deadline: Some(early),
            ..ScanBudget::default()
        }
        .anchored(now);
        assert_eq!(b.deadline, Some(early));
        let b = ScanBudget {
            total: Some(Duration::from_secs(1)),
            deadline: Some(now + Duration::from_secs(60)),
            ..ScanBudget::default()
        }
        .anchored(now);
        assert_eq!(b.deadline, Some(now + Duration::from_secs(1)));
        // No total: anchoring is a no-op.
        let b = ScanBudget::unlimited().anchored(now);
        assert_eq!(b, ScanBudget::unlimited());
    }

    #[test]
    fn expired_anchored_deadline_reports_scan_deadline_without_playing() {
        let q = exec("q", &[&[1, 2, 3]]);
        let targets = vec![exec("a", &[&[1, 2, 3]]), exec("b", &[&[1, 2, 3]])];
        // A zero allowance anchored before the scan loop starts: every
        // target must come back ScanDeadline-exceeded without playing.
        let budget = ScanBudget {
            total: Some(Duration::ZERO),
            ..ScanBudget::default()
        }
        .anchored(Instant::now());
        let config = SearchConfig {
            threads: 1,
            ..SearchConfig::default()
        };
        let report = search_corpus_robust(&q, 0, &targets, &config, &budget);
        assert_eq!(report.outcomes.len(), 2);
        for o in &report.outcomes {
            match o {
                TargetOutcome::BudgetExceeded {
                    reason, partial, ..
                } => {
                    assert_eq!(*reason, BudgetReason::ScanDeadline);
                    assert!(partial.is_none(), "deadline in the past must not play");
                }
                other => panic!("expected BudgetExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn budget_reason_display_is_readable() {
        assert_eq!(BudgetReason::GameDeadline.to_string(), "per-game deadline");
        assert_eq!(BudgetReason::StepBudget.to_string(), "step budget");
        assert!(!ScanBudget::unlimited().is_bounded());
        assert!(ScanBudget {
            per_game: Some(Duration::from_millis(5)),
            ..ScanBudget::default()
        }
        .is_bounded());
    }
}
