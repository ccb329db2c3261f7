//! The paper's evaluation, regenerated: one function per table/figure.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use firmup_baselines::{bindiff, gitz};
use firmup_core::game::{play, GameConfig};
use firmup_core::search::{search_target, SearchConfig};
use firmup_isa::Arch;

use crate::setup::{Query, Workbench};

/// The five queries of the Fig. 6 comparison (the paper's first labeled
/// group).
pub const FIG6_QUERIES: [(&str, &str); 5] = [
    ("libcurl", "tailmatch"),
    ("dbus", "printf_string_upper_bound"),
    ("libcurl", "alloc_addbyter"),
    ("vsftpd", "vsf_filename_passes_filter"),
    ("wget", "ftp_retrieve_glob"),
];

/// The nine queries of the Fig. 8 comparison (both labeled groups).
pub const FIG8_QUERIES: [(&str, &str); 9] = [
    ("libcurl", "tailmatch"),
    ("dbus", "printf_string_upper_bound"),
    ("libcurl", "alloc_addbyter"),
    ("vsftpd", "vsf_filename_passes_filter"),
    ("wget", "ftp_retrieve_glob"),
    ("net-snmp", "snmp_pdu_parse"),
    ("bftpd", "bftpdutmp_log"),
    ("libexif", "exif_entry_get_value"),
    ("libcurl", "curl_easy_unescape"),
];

fn arch_query(
    q: &Query,
    arch: Arch,
) -> Option<(
    &firmup_core::ExecutableRep,
    usize,
    &firmup_baselines::StructuralRep,
)> {
    q.per_arch
        .iter()
        .find(|(a, ..)| *a == arch)
        .map(|(_, rep, qv, st)| (rep, *qv, st))
}

// ===================================================================
// Table 2 — CVE hunt over the wild corpus
// ===================================================================

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// CVE id.
    pub cve: String,
    /// Package.
    pub package: String,
    /// Vulnerable procedure.
    pub procedure: String,
    /// Correct findings of vulnerable instances.
    pub confirmed: usize,
    /// Accepted matches that are not vulnerable instances (wrong
    /// procedure, absent procedure, or patched version — the paper's
    /// version-discrepancy FPs).
    pub fps: usize,
    /// Vendors among the confirmed findings.
    pub vendors: Vec<String>,
    /// Devices whose *latest* firmware carries a confirmed finding.
    pub latest: usize,
    /// Wall-clock seconds for the whole experiment line.
    pub secs: f64,
}

/// Run the Table 2 experiment: hunt each CVE across the stripped corpus.
pub fn table2(wb: &Workbench) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for cve in firmup_firmware::packages::all_cves().into_iter().take(7) {
        let t0 = Instant::now();
        let query = wb.query(cve.package, cve.procedure);
        let config = SearchConfig {
            context: Some(wb.context.clone()),
            threads: 1,
            ..SearchConfig::default()
        };
        let mut confirmed = 0usize;
        let mut fps = 0usize;
        let mut images: BTreeSet<usize> = BTreeSet::new();
        let mut latest_devices: BTreeSet<usize> = BTreeSet::new();
        for t in &wb.targets {
            let Some((rep, qv, _)) = arch_query(&query, t.rep.arch) else {
                continue;
            };
            let r = search_target(rep, qv, &t.rep, &config);
            let Some(m) = r.matched else { continue };
            let truth = wb.truth_addr(t, cve.procedure);
            let vulnerable = wb.truth_vulnerable(t, cve.procedure);
            if truth == Some(m.addr) && vulnerable {
                confirmed += 1;
                images.insert(t.image);
                let img = &wb.corpus.images[t.image];
                if img.is_latest {
                    latest_devices.insert(img.device);
                }
            } else {
                fps += 1;
            }
        }
        rows.push(Table2Row {
            cve: cve.cve.to_string(),
            package: cve.package.to_string(),
            procedure: cve.procedure.to_string(),
            confirmed,
            fps,
            vendors: wb.vendors_of(&images),
            latest: latest_devices.len(),
            secs: t0.elapsed().as_secs_f64(),
        });
    }
    rows
}

/// Render Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: confirmed vulnerable procedures found in stripped firmware images"
    );
    let _ = writeln!(
        out,
        "{:<3} {:<14} {:<9} {:<28} {:>9} {:>4}  {:<24} {:>6} {:>8}",
        "#",
        "CVE",
        "Package",
        "Procedure",
        "Confirmed",
        "FPs",
        "Affected Vendors",
        "Latest",
        "Time"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<3} {:<14} {:<9} {:<28} {:>9} {:>4}  {:<24} {:>6} {:>7.2}s",
            i + 1,
            r.cve,
            r.package,
            r.procedure,
            r.confirmed,
            r.fps,
            r.vendors.join(","),
            r.latest,
            r.secs
        );
    }
    out
}

// ===================================================================
// Fig. 6 — FirmUp vs BinDiff on labeled targets
// ===================================================================

/// P / FP / FN counts for one tool on one query line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Correct matches.
    pub p: usize,
    /// Wrong matches.
    pub fp: usize,
    /// Missing matches.
    pub fn_: usize,
}

impl Counts {
    /// Total decisions.
    pub fn total(&self) -> usize {
        self.p + self.fp + self.fn_
    }

    /// Fraction of false results.
    pub fn false_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.fp + self.fn_) as f64 / self.total() as f64
        }
    }
}

/// One Fig. 6 line.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Query procedure.
    pub query: String,
    /// FirmUp counts.
    pub firmup: Counts,
    /// BinDiff counts.
    pub bindiff: Counts,
}

/// Run the Fig. 6 labeled comparison. Targets are executables known (by
/// ground truth) to contain the query procedure; both tools run on
/// stripped inputs (we *can* configure our BinDiff to ignore names —
/// the paper could not, which is why it reduced the experiment to the
/// first labeled group).
pub fn fig6(wb: &Workbench) -> Vec<Fig6Row> {
    FIG6_QUERIES
        .iter()
        .map(|(pkg, proc_name)| {
            let query = wb.query(pkg, proc_name);
            let mut firmup = Counts::default();
            let mut bd = Counts::default();
            for t in wb.labeled_targets(proc_name) {
                let Some((rep, qv, qstruct)) = arch_query(&query, t.rep.arch) else {
                    continue;
                };
                let truth = wb.truth_addr(t, proc_name).expect("labeled");
                // FirmUp: raw game (no acceptance gate — the target is
                // known to contain the procedure; the question is which
                // one it is).
                let g = play(rep, qv, &t.rep, &GameConfig::default());
                match g.query_match {
                    Some((ti, _)) if t.rep.procedures[ti].addr == truth => firmup.p += 1,
                    Some(_) => firmup.fp += 1,
                    None => firmup.fn_ += 1,
                }
                // BinDiff on name-stripped structures.
                let mut qs = qstruct.clone();
                for p in &mut qs.procedures {
                    p.name = None;
                }
                let mut ts = t.structure.clone();
                for p in &mut ts.procedures {
                    p.name = None;
                }
                let qvi = qstruct.find_named(proc_name).expect("query has symbols");
                let d = bindiff::diff(&qs, &ts);
                match d.target_of(qvi) {
                    Some(ti) if ts.procedures[ti].addr == truth => bd.p += 1,
                    Some(_) => bd.fp += 1,
                    None => bd.fn_ += 1,
                }
            }
            Fig6Row {
                query: (*proc_name).to_string(),
                firmup,
                bindiff: bd,
            }
        })
        .collect()
}

/// Render Fig. 6 as a text bar table.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 6: labeled experiment, FirmUp vs BinDiff (P / FP / FN)"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>14}   {:>14}",
        "query", "FirmUp P/FP/FN", "BinDiff P/FP/FN"
    );
    let mut fu = Counts::default();
    let mut bd = Counts::default();
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>4}/{:>3}/{:>3}      {:>4}/{:>3}/{:>3}",
            r.query,
            r.firmup.p,
            r.firmup.fp,
            r.firmup.fn_,
            r.bindiff.p,
            r.bindiff.fp,
            r.bindiff.fn_
        );
        fu.p += r.firmup.p;
        fu.fp += r.firmup.fp;
        fu.fn_ += r.firmup.fn_;
        bd.p += r.bindiff.p;
        bd.fp += r.bindiff.fp;
        bd.fn_ += r.bindiff.fn_;
    }
    let _ = writeln!(
        out,
        "overall false results: FirmUp {:.1}% vs BinDiff {:.1}% (paper: 6% vs 69.3%)",
        fu.false_rate() * 100.0,
        bd.false_rate() * 100.0
    );
    out
}

// ===================================================================
// Fig. 8 — FirmUp vs GitZ (top-1) on labeled targets
// ===================================================================

/// One Fig. 8 line (the paper folds FN into FP here).
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Query procedure.
    pub query: String,
    /// FirmUp: correct matches.
    pub firmup_p: usize,
    /// FirmUp: false (wrong or missing).
    pub firmup_f: usize,
    /// GitZ top-1: correct.
    pub gitz_p: usize,
    /// GitZ top-1: false.
    pub gitz_f: usize,
}

/// Run the Fig. 8 labeled comparison.
pub fn fig8(wb: &Workbench) -> Vec<Fig8Row> {
    FIG8_QUERIES
        .iter()
        .map(|(pkg, proc_name)| {
            let query = wb.query(pkg, proc_name);
            let mut row = Fig8Row {
                query: (*proc_name).to_string(),
                firmup_p: 0,
                firmup_f: 0,
                gitz_p: 0,
                gitz_f: 0,
            };
            for t in wb.labeled_targets(proc_name) {
                let Some((rep, qv, _)) = arch_query(&query, t.rep.arch) else {
                    continue;
                };
                let truth = wb.truth_addr(t, proc_name).expect("labeled");
                let g = play(rep, qv, &t.rep, &GameConfig::default());
                match g.query_match {
                    Some((ti, _)) if t.rep.procedures[ti].addr == truth => row.firmup_p += 1,
                    _ => row.firmup_f += 1,
                }
                match gitz::top1(&rep.procedures[qv], &t.rep, &wb.context) {
                    Some(m) if m.addr == truth => row.gitz_p += 1,
                    _ => row.gitz_f += 1,
                }
            }
            row
        })
        .collect()
}

/// Render Fig. 8.
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 8: labeled experiment, FirmUp vs GitZ top-1 (P / F)"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>12}   {:>12}",
        "query", "FirmUp P/F", "GitZ P/F"
    );
    let (mut fp_, mut ff, mut gp, mut gf) = (0, 0, 0, 0);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>6}/{:>4}    {:>6}/{:>4}",
            r.query, r.firmup_p, r.firmup_f, r.gitz_p, r.gitz_f
        );
        fp_ += r.firmup_p;
        ff += r.firmup_f;
        gp += r.gitz_p;
        gf += r.gitz_f;
    }
    let denom = |p: usize, f: usize| {
        if p + f == 0 {
            0.0
        } else {
            f as f64 / (p + f) as f64
        }
    };
    let _ = writeln!(
        out,
        "overall false rate: FirmUp {:.1}% vs GitZ {:.1}% (paper: 9.88% vs 34%)",
        denom(fp_, ff) * 100.0,
        denom(gp, gf) * 100.0
    );
    out
}

// ===================================================================
// Fig. 9 — game steps histogram + game ablation
// ===================================================================

/// Fig. 9 data: correct matches bucketed by game steps, plus the
/// with/without-game precision ablation the paper quotes (90.11% vs
/// 67.3%).
#[derive(Debug, Clone, Default)]
pub struct Fig9 {
    /// Buckets: 1, 2, 3-4, 5-8, 9-16, 17-32 steps.
    pub buckets: [usize; 6],
    /// Correct matches needing more than 32 steps.
    pub beyond: usize,
    /// Precision with the full game.
    pub game_precision: f64,
    /// Precision with procedure-centric (no-game) matching.
    pub pc_precision: f64,
}

/// Run the Fig. 9 measurement over all Fig. 8 queries.
pub fn fig9(wb: &Workbench) -> Fig9 {
    let mut out = Fig9::default();
    let mut game_ok = 0usize;
    let mut pc_ok = 0usize;
    let mut total = 0usize;
    for (pkg, proc_name) in FIG8_QUERIES {
        let query = wb.query(pkg, proc_name);
        for t in wb.labeled_targets(proc_name) {
            let Some((rep, qv, _)) = arch_query(&query, t.rep.arch) else {
                continue;
            };
            let truth = wb.truth_addr(t, proc_name).expect("labeled");
            total += 1;
            let g = play(rep, qv, &t.rep, &GameConfig::default());
            if let Some((ti, _)) = g.query_match {
                if t.rep.procedures[ti].addr == truth {
                    game_ok += 1;
                    let b = match g.steps {
                        0 | 1 => 0,
                        2 => 1,
                        3..=4 => 2,
                        5..=8 => 3,
                        9..=16 => 4,
                        17..=32 => 5,
                        _ => {
                            out.beyond += 1;
                            continue;
                        }
                    };
                    out.buckets[b] += 1;
                }
            }
            // Procedure-centric ablation: the best pairwise pick with no
            // game (GitZ-style weighted top-1 — the stronger strawman).
            if let Some(m) = gitz::top1(&rep.procedures[qv], &t.rep, &wb.context) {
                if m.addr == truth {
                    pc_ok += 1;
                }
            }
        }
    }
    if total > 0 {
        out.game_precision = game_ok as f64 / total as f64;
        out.pc_precision = pc_ok as f64 / total as f64;
    }
    out
}

/// Render Fig. 9.
pub fn render_fig9(f: &Fig9) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 9: correct matches by game steps needed");
    let labels = ["1", "2", "3-4", "5-8", "9-16", "17-32"];
    for (label, n) in labels.iter().zip(f.buckets.iter()) {
        let _ = writeln!(out, "{label:>6} steps: {n:>5} {}", "#".repeat((*n).min(60)));
    }
    if f.beyond > 0 {
        let _ = writeln!(out, "   >32 steps: {:>5}", f.beyond);
    }
    let _ = writeln!(
        out,
        "precision with game {:.2}% vs procedure-centric {:.2}% (paper: 90.11% vs 67.3%)",
        f.game_precision * 100.0,
        f.pc_precision * 100.0
    );
    out
}

// ===================================================================
// Table 1 — a game course
// ===================================================================

/// Render a game course for the wget query against a customized,
/// stripped vendor build (the Table 1 / Fig. 2 walk-through).
pub fn table1() -> String {
    use firmup_compiler::{compile_source, CompilerOptions, ToolchainProfile};
    use firmup_core::canon::CanonConfig;
    use firmup_core::sim::index_elf;
    use firmup_firmware::packages::source_for;

    let canon = CanonConfig::default();
    // Query: vsftpd 2.3.5, default build, full features.
    let qsrc = source_for("vsftpd", "2.3.5", &[], 0, 0);
    let qelf = compile_source(&qsrc, Arch::Mips32, &CompilerOptions::default()).expect("query");
    let query = index_elf(&qelf, "vsftpd-query", &canon).expect("query lifts");
    // Target: the vendor disabled a feature group (the paper's §2.2
    // --disable-opie story) under a different toolchain and stripped it;
    // a lookalike procedure contests the first pick, forcing rival moves.
    let tsrc = source_for("vsftpd", "2.3.2", &["ssl"], 5, 4);
    let mut telf = compile_source(
        &tsrc,
        Arch::Mips32,
        &CompilerOptions {
            profile: ToolchainProfile::vendor_size(),
            layout: Default::default(),
        },
    )
    .expect("target");
    let names: Vec<(String, u32)> = telf
        .func_symbols()
        .iter()
        .map(|s| (s.name.clone(), s.value))
        .collect();
    telf.strip(false);
    let target = index_elf(&telf, "netgear-fw", &canon).expect("target lifts");

    let qv = query
        .find_named("vsf_filename_passes_filter")
        .expect("query symbol");
    let g = play(&query, qv, &target, &GameConfig::default());
    let resolve = |addr: u32| {
        names
            .iter()
            .find(|(_, a)| *a == addr)
            .map_or_else(|| format!("sub_{addr:x}"), |(n, _)| format!("{n}()"))
    };
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: game course for vsf_filename_passes_filter()");
    let _ = writeln!(out, "{:<7} {:<60} {:<6}", "Actor", "Step", "Sim");
    for (i, s) in g.trace.iter().enumerate() {
        let (m_name, fwd_name) = match s.m.side {
            firmup_core::game::Side::Query => (
                query.procedures[s.m.index].display_name() + "()",
                resolve(target.procedures[s.forward].addr),
            ),
            firmup_core::game::Side::Target => (
                resolve(target.procedures[s.m.index].addr),
                query.procedures[s.forward].display_name() + "()",
            ),
        };
        let actor = if s.accepted { "player" } else { "rival" };
        let verb = if s.accepted { "matches" } else { "counters" };
        let _ = writeln!(
            out,
            "{:<7} {:<60} {:<6}",
            actor,
            format!("step {}: {verb} {m_name} with {fwd_name}", i + 1),
            s.sim_forward
        );
    }
    match g.query_match {
        Some((ti, s)) => {
            let _ = writeln!(
                out,
                "game over after {} step(s): vsf_filename_passes_filter() ↔ {} (Sim={s})",
                g.steps,
                resolve(target.procedures[ti].addr)
            );
        }
        None => {
            let _ = writeln!(out, "game failed: {:?}", g.ended);
        }
    }
    out
}

// ===================================================================
// Fig. 3 — lifting and canonicalization of one strand
// ===================================================================

/// Render the Fig. 1/Fig. 3 walk-through: the first block of
/// `ftp_retrieve_glob` on two builds, its lifted statements and its
/// canonical strands.
pub fn fig3() -> String {
    use firmup_compiler::{compile_source, CompilerOptions, ToolchainProfile};
    use firmup_core::canon::{canonicalize, AddrSpace, CanonConfig};
    use firmup_core::lift::lift_executable;
    use firmup_core::strand::decompose;
    use firmup_firmware::packages::source_for;

    let mut out = String::new();
    let src = source_for("wget", "1.15", &[], 0, 0);
    for (label, profile) in [
        ("gcc-like -O2 (query)", ToolchainProfile::gcc_like()),
        (
            "vendor -Os (NETGEAR-style target)",
            ToolchainProfile::vendor_size(),
        ),
    ] {
        let elf = compile_source(
            &src,
            Arch::Mips32,
            &CompilerOptions {
                profile,
                layout: Default::default(),
            },
        )
        .expect("compiles");
        let lifted = lift_executable(&elf).expect("lifts");
        let p = lifted
            .program
            .procedure_named("ftp_retrieve_glob")
            .expect("present");
        let block = p.entry_block();
        let _ = writeln!(out, "=== {label}: first BB of ftp_retrieve_glob() ===");
        for a in &block.asm {
            let _ = writeln!(out, "    {a}");
        }
        let _ = writeln!(out, "--- lifted ---");
        for s in &block.stmts {
            let _ = writeln!(out, "    {s}");
        }
        let _ = writeln!(out, "--- canonical strands ---");
        let ssa = firmup_ir::ssa::ssa_block(block);
        let space = AddrSpace::from_elf(&elf);
        for s in decompose(&ssa) {
            let c = canonicalize(&s, &space, &CanonConfig::default());
            for line in c.text.lines() {
                let _ = writeln!(out, "    {line}");
            }
            let _ = writeln!(out, "    --");
        }
        let _ = writeln!(out);
    }
    out
}

// ===================================================================
// Fig. 5 / Fig. 7 — graph variance and the BinDiff failure mode
// ===================================================================

/// Render call-graph variance (Fig. 5) and a CFG-shape false-match
/// example (Fig. 7) from the workbench corpus.
pub fn fig7(wb: &Workbench) -> String {
    let mut out = String::new();
    let proc_name = "vsf_filename_passes_filter";
    let query = wb.query("vsftpd", proc_name);
    let mut shown = 0;
    for t in wb.labeled_targets(proc_name) {
        let Some((rep, qv, qstruct)) = arch_query(&query, t.rep.arch) else {
            continue;
        };
        let truth = wb.truth_addr(t, proc_name).expect("labeled");
        let qvi = qstruct.find_named(proc_name).expect("query symbols");
        let qf = &qstruct.procedures[qvi];
        // Fig. 5: call-graph neighborhood sizes.
        let _ = writeln!(
            out,
            "Fig. 5 ({}): query callees/callers = {}/{}; matching target proc exists at {truth:#x}",
            t.rep.id,
            qf.callees.len(),
            qf.callers.len()
        );
        // Fig. 7: what BinDiff picks vs what FirmUp picks.
        let mut qs = qstruct.clone();
        for p in &mut qs.procedures {
            p.name = None;
        }
        let mut ts = t.structure.clone();
        for p in &mut ts.procedures {
            p.name = None;
        }
        let d = bindiff::diff(&qs, &ts);
        let g = play(rep, qv, &t.rep, &GameConfig::default());
        let bd_pick = d.target_of(qvi).map(|ti| ts.procedures[ti].addr);
        let fu_pick = g.query_match.map(|(ti, _)| t.rep.procedures[ti].addr);
        let _ =
            writeln!(
            out,
            "Fig. 7: qv CFG = {} blocks / {} edges; BinDiff picked {} ({}), FirmUp picked {} ({})",
            qf.blocks,
            qf.edges,
            bd_pick.map_or("none".into(), |a| format!("{a:#x}")),
            if bd_pick == Some(truth) { "correct" } else { "WRONG" },
            fu_pick.map_or("none".into(), |a| format!("{a:#x}")),
            if fu_pick == Some(truth) { "correct" } else { "WRONG" },
        );
        shown += 1;
        if shown >= 6 {
            break;
        }
    }
    out
}

// ===================================================================
// Ablation — which canonicalization passes carry the matching
// ===================================================================

/// One ablation line: a canonicalization variant and the labeled
/// matching precision it achieves.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub variant: String,
    /// Correct / total over the Fig. 6 labeled pairs.
    pub correct: usize,
    /// Total labeled pairs.
    pub total: usize,
}

/// Measure matching precision with individual §3.2.1 passes disabled —
/// the design-choice ablation DESIGN.md calls out. Targets are
/// re-indexed from the corpus images under each variant.
pub fn ablation(wb: &Workbench) -> Vec<AblationRow> {
    use firmup_core::canon::CanonConfig;
    let variants: Vec<(&str, CanonConfig)> = vec![
        ("full canonicalization", CanonConfig::default()),
        (
            "no optimizer",
            CanonConfig {
                optimize: false,
                ..CanonConfig::default()
            },
        ),
        (
            "no offset elimination",
            CanonConfig {
                offset_elimination: false,
                ..CanonConfig::default()
            },
        ),
        (
            "no name normalization",
            CanonConfig {
                normalize_names: false,
                ..CanonConfig::default()
            },
        ),
        (
            "no stack-slot folding",
            CanonConfig {
                fold_stack_slots: false,
                ..CanonConfig::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, config) in variants {
        // Re-index every target executable under this variant.
        let mut targets: Vec<(usize, usize, firmup_core::ExecutableRep)> = Vec::new();
        for (ii, img) in wb.corpus.images.iter().enumerate() {
            let unpacked = firmup_firmware::image::unpack(&img.blob).expect("unpacks");
            for (pi, part) in unpacked.parts.iter().enumerate() {
                let elf = firmup_obj::Elf::parse(&part.data).expect("parses");
                let rep = firmup_core::sim::index_elf(&elf, &format!("{ii}:{pi}"), &config)
                    .expect("lifts");
                targets.push((ii, pi, rep));
            }
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for (pkg, proc_name) in FIG6_QUERIES {
            // Queries must use the same canonicalization variant.
            let mut query = wb.query(pkg, proc_name);
            for (arch, rep, _, _) in &mut query.per_arch {
                let (qelf, _) = firmup_firmware::corpus::build_query(pkg, *arch);
                *rep = firmup_core::sim::index_elf(&qelf, "q", &config).expect("lifts");
            }
            for (ii, pi, t) in &targets {
                let Some((rep, _, _)) = arch_query(&query, t.arch) else {
                    continue;
                };
                let Some(qv) = rep.find_named(proc_name) else {
                    continue;
                };
                let Some(truth) = wb.corpus.images[*ii].truth[*pi].addr_of(proc_name) else {
                    continue;
                };
                total += 1;
                let g = play(rep, qv, t, &GameConfig::default());
                if let Some((ti, _)) = g.query_match {
                    if t.procedures[ti].addr == truth {
                        correct += 1;
                    }
                }
            }
        }
        rows.push(AblationRow {
            variant: name.to_string(),
            correct,
            total,
        });
    }
    rows
}

/// Render the ablation table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: labeled matching precision per canonicalization variant"
    );
    for r in rows {
        let pct = if r.total == 0 {
            0.0
        } else {
            100.0 * r.correct as f64 / r.total as f64
        };
        let _ = writeln!(
            out,
            "{:<26} {:>4}/{:<4} ({pct:.1}%)",
            r.variant, r.correct, r.total
        );
    }
    out
}

// ===================================================================
// Index benchmark — cold vs warm corpus preparation
// ===================================================================

/// Result of the cold-vs-warm persisted-index experiment (see
/// EXPERIMENTS.md, "Persisted index: cold vs warm scan startup").
#[derive(Debug, Clone)]
pub struct IndexBench {
    /// Corpus scale multiplier used.
    pub scale: usize,
    /// Executables in the corpus.
    pub executables: usize,
    /// Procedures across the corpus.
    pub procedures: usize,
    /// Size of the persisted `corpus.fui` file in bytes.
    pub index_bytes: u64,
    /// Cold preparation: unpack → parse → lift → canonicalize → build.
    pub cold_ms: f64,
    /// Warm preparation: load + decode the persisted index (best of 3).
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub speedup: f64,
    /// Whether a search against the reloaded corpus reproduced the
    /// cold corpus's results exactly.
    pub results_equal: bool,
}

/// Measure cold-vs-warm corpus preparation: the cold path runs the full
/// unpack → parse → lift → canonicalize → build pipeline over a seeded
/// corpus; the warm path loads the same corpus from a persisted FUIX
/// index. Both are then searched with the same query to verify the
/// cache changes *when* the work happens, never *what* is found.
pub fn bench_index(scale: usize) -> IndexBench {
    use firmup::pipeline::lift_image;
    use firmup_core::persist::CorpusIndex;
    use firmup_core::search::search_corpus;
    use firmup_firmware::corpus::{generate, CorpusConfig};

    let corpus = generate(&CorpusConfig {
        devices: 6 * scale.max(1),
        max_firmware_versions: 2,
        ..CorpusConfig::default()
    });
    // One lift thread keeps `cold_ms` a serial figure; the `img{i}` tag
    // keeps executable ids unique across images.
    let cold_run = || {
        let mut reps = Vec::new();
        for (i, img) in corpus.images.iter().enumerate() {
            reps.extend(
                lift_image(&format!("img{i}"), &img.blob, 1).expect("corpus images unpack"),
            );
        }
        CorpusIndex::build(reps)
    };

    let t0 = Instant::now();
    let cold_index = cold_run();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    let dir = std::env::temp_dir().join(format!("firmup-bench-index-{}", std::process::id()));
    cold_index.save(&dir).expect("save index");
    let index_bytes = std::fs::metadata(firmup_firmware::index::index_path(&dir))
        .map(|m| m.len())
        .unwrap_or(0);
    let mut warm_ms = f64::INFINITY;
    let mut warm_index = None;
    for _ in 0..3 {
        let t = Instant::now();
        let loaded = CorpusIndex::load(&dir).expect("load index");
        warm_ms = warm_ms.min(t.elapsed().as_secs_f64() * 1e3);
        warm_index = Some(loaded);
    }
    let warm_index = warm_index.expect("at least one warm load");
    let _ = std::fs::remove_dir_all(&dir);

    // Equivalence check: same query, cold corpus vs reloaded corpus.
    let results_equal =
        match (0..cold_index.len()).find(|&i| !cold_index.get(i).procedures.is_empty()) {
            Some(qi) => {
                let cold_cfg = SearchConfig {
                    context: Some(cold_index.context.clone()),
                    threads: 1,
                    ..SearchConfig::default()
                };
                let warm_cfg = SearchConfig {
                    context: Some(warm_index.context.clone()),
                    threads: 1,
                    ..SearchConfig::default()
                };
                let a = search_corpus(cold_index.get(qi), 0, &cold_index.rep_view(), &cold_cfg);
                let b = search_corpus(warm_index.get(qi), 0, &warm_index.rep_view(), &warm_cfg);
                a == b
            }
            None => {
                (0..cold_index.len()).all(|i| cold_index.get(i) == warm_index.get(i))
                    && cold_index.len() == warm_index.len()
            }
        };

    IndexBench {
        scale,
        executables: cold_index.len(),
        procedures: (0..cold_index.len())
            .map(|i| cold_index.get(i).procedures.len())
            .sum(),
        index_bytes,
        cold_ms,
        warm_ms,
        speedup: if warm_ms > 0.0 {
            cold_ms / warm_ms
        } else {
            0.0
        },
        results_equal,
    }
}

// ===================================================================
// Scan benchmark — work-stealing executor scaling, cold vs warm
// ===================================================================

/// One cell of the scan-scaling sweep: a (mode, thread-count, top-k)
/// triple.
#[derive(Debug, Clone)]
pub struct ScanBenchCell {
    /// `"cold"` (the index `CorpusIndex::build` made in memory) or
    /// `"warm"` (the saved index file, `open`ed lazily, with the
    /// persisted `query:*` records `firmup index` writes).
    pub mode: &'static str,
    /// Worker thread count for the work-stealing executor.
    pub threads: usize,
    /// `--top-k` prefilter trim per job (0 = every same-arch target).
    pub top_k: usize,
    /// Best-of-3 wall-clock time of one `run_scan` in milliseconds, with
    /// the index's query cache and decoded candidates already warm.
    pub wall_ms: f64,
    /// Target games played per second.
    pub targets_per_sec: f64,
    /// Serial (same-mode, same-top-k, threads = 1) wall time divided by
    /// this cell's.
    pub speedup: f64,
    /// Number of findings produced.
    pub findings: usize,
    /// Whether the findings fingerprint is byte-identical to the
    /// same-top-k cold serial reference — the determinism invariant
    /// (every thread count, cold ≡ warm), measured.
    pub results_equal: bool,
    /// Executable payloads decoded for this cell, counting its index's
    /// warm-up sweep when the cell is the first on that index (warm
    /// mode only; 0 for built indexes or already-decoded slots).
    pub reps_decoded: u64,
    /// Median per-target game latency (µs, from `search.target_us`).
    pub p50_target_us: f64,
    /// 95th-percentile per-target game latency (µs).
    pub p95_target_us: f64,
}

/// Result of the scan-scaling experiment (see EXPERIMENTS.md,
/// "Scaling: the work-stealing scan executor").
#[derive(Debug, Clone)]
pub struct ScanBench {
    /// The corpus preset the sweep ran at: `"quick"` (4 devices — the
    /// historical smoke shape), or a `gen-corpus` scale preset name
    /// (`"smoke"`, `"small"`, `"medium"`).
    pub preset: String,
    /// Devices in the generated corpus.
    pub devices: usize,
    /// Executables in the corpus.
    pub executables: usize,
    /// Procedures in the corpus (the paper-adjacent size axis).
    pub procedures: usize,
    /// Target games per full (top_k = 0) sweep: the `search.target_us`
    /// count of the untimed warm-up sweep.
    pub plays: usize,
    /// `available_parallelism()` of the host — speedups above 1 are
    /// physically impossible when this is 1, so gates on speedup only
    /// apply when this is ≥ the thread count under test.
    pub host_cpus: usize,
    /// Peak strand-arena bytes summed over every corpus lift (the
    /// `index.arena_bytes` telemetry counter, measured across the
    /// rep-building phase): what the bump allocator holds at its high-
    /// water mark instead of per-strand heap traffic.
    pub alloc_bytes: u64,
    /// Resident bytes of the corpus postings table backing arrays
    /// ([`firmup_core::sim::StrandPostings::resident_bytes`]) — the
    /// in-memory footprint the varint-delta `postings2` record decodes
    /// into.
    pub postings_bytes: u64,
    /// The sweep: for each mode, threads ascending at top_k = 0, then
    /// the top-k sensitivity series at the widest thread count.
    pub cells: Vec<ScanBenchCell>,
}

/// The per-cell delta of one log2 histogram between two snapshots.
/// `min`/`max` are bucket-precision estimates (quantile clamps only).
fn histogram_delta(
    before: &firmup_telemetry::Snapshot,
    after: &firmup_telemetry::Snapshot,
    name: &str,
) -> firmup_telemetry::HistogramSnapshot {
    fn find<'a>(
        s: &'a firmup_telemetry::Snapshot,
        name: &str,
    ) -> Option<&'a firmup_telemetry::HistogramSnapshot> {
        s.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
    let empty = firmup_telemetry::HistogramSnapshot {
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
        buckets: Vec::new(),
    };
    let Some(a) = find(after, name) else {
        return empty;
    };
    let b = find(before, name);
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    for &(lo, n) in &a.buckets {
        let prev = b
            .and_then(|h| h.buckets.iter().find(|&&(l, _)| l == lo))
            .map_or(0, |&(_, c)| c);
        if n > prev {
            buckets.push((lo, n - prev));
        }
    }
    if buckets.is_empty() {
        return empty;
    }
    let min = buckets[0].0;
    let last_lo = buckets[buckets.len() - 1].0;
    let max = if last_lo == 0 { 0 } else { 2 * last_lo - 1 };
    firmup_telemetry::HistogramSnapshot {
        count: a.count - b.map_or(0, |h| h.count),
        sum: a.sum - b.map_or(0, |h| h.sum),
        min,
        max,
        buckets,
    }
}

/// Resolve a scan-bench preset name to its corpus configuration.
/// `"quick"` is the historical 4-device smoke shape; the rest are the
/// `gen-corpus --scale` presets.
fn scan_bench_config(preset: &str) -> Option<firmup_firmware::corpus::CorpusConfig> {
    use firmup_firmware::corpus::{CorpusConfig, ScalePreset};
    if preset == "quick" {
        return Some(CorpusConfig {
            devices: 4,
            max_firmware_versions: 2,
            ..CorpusConfig::default()
        });
    }
    ScalePreset::parse(preset).map(|p| p.config())
}

/// Measure how the scan scales: every cell times
/// [`firmup::pipeline::run_scan`] — the scan `firmup scan` and
/// `firmup serve` run — hunting every built-in CVE, swept over threads
/// ∈ {1, 2, 4, 8} (`quick`: {1, 2, 4}) × two index modes — cold (built
/// in memory) and warm (the saved file, opened lazily) — plus a
/// `--top-k` sensitivity series on freshly opened warm indexes. Each
/// index keeps one [`QueryCache`](firmup::pipeline::QueryCache), filled
/// by one untimed warm-up sweep (`serve`'s steady state). Every cell's
/// findings document is fingerprinted against the same-top-k cold
/// serial reference — `results_equal` is the determinism invariant
/// (every thread count, cold ≡ warm), measured rather than assumed.
///
/// # Panics
///
/// On an unknown preset name, or on corpus/index construction failures
/// (internal bugs the package tests rule out).
pub fn bench_scan(preset: &str) -> ScanBench {
    use firmup::pipeline::{
        build_queries, lift_image, query_keys, run_scan, store_queries, QueryCache, ScanOptions,
    };
    use firmup_core::persist::CorpusIndex;
    use firmup_core::search::ScanBudget;
    use firmup_firmware::corpus::generate;

    /// Timed sweeps per cell: the best wall counts, and the repeats
    /// double as a run-to-run determinism check.
    const SWEEPS: usize = 3;

    firmup_telemetry::enable();
    let config =
        scan_bench_config(preset).unwrap_or_else(|| panic!("unknown scan-bench preset `{preset}`"));
    let devices = config.devices;
    let corpus = generate(&config);
    let arena_before = firmup_telemetry::counter("index.arena_bytes").get();
    let mut reps = Vec::new();
    for (i, img) in corpus.images.iter().enumerate() {
        reps.extend(lift_image(&format!("img{i}"), &img.blob, 1).expect("corpus images unpack"));
    }
    let alloc_bytes = firmup_telemetry::counter("index.arena_bytes").get() - arena_before;
    let mut cold = CorpusIndex::build(reps);
    let postings_bytes = cold.postings.resident_bytes() as u64;
    // The `query:*` records `firmup index` writes.
    let keys = query_keys();
    store_queries(&mut cold, &keys, build_queries(&keys, 0));
    let dir = std::env::temp_dir().join(format!("firmup-bench-scan-{}", std::process::id()));
    cold.save(&dir).expect("save index");
    let warm = CorpusIndex::open(&dir).expect("open index");

    // One sweep is one `run_scan`, fingerprinted by the bytes of its
    // findings document.
    let run_sweep = |index: &CorpusIndex, cache: &QueryCache, threads: usize, top_k: usize| {
        let opts = ScanOptions {
            threads,
            top_k,
            ..ScanOptions::default()
        };
        let t0 = Instant::now();
        let out = run_scan(index, &opts, &ScanBudget::unlimited(), cache, &|| false)
            .expect("scan the bench index");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        (wall_ms, out.findings.len(), out.render_json(false).render())
    };
    let decoded = || firmup_telemetry::counter("index.reps_decoded").get();

    let quick = preset == "quick";
    let sweep: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let widest = *sweep.last().unwrap_or(&1);
    // The untimed warm-up that fills `cache`; returns the games it played.
    let warm_up = |index: &CorpusIndex, cache: &QueryCache, top_k: usize| {
        let before = firmup_telemetry::snapshot();
        run_sweep(index, cache, widest, top_k);
        histogram_delta(&before, &firmup_telemetry::snapshot(), "search.target_us").count as usize
    };
    let mut cells = Vec::new();
    // Per-top-k references: every (mode, threads) cell must reproduce
    // the cold serial fingerprint for its own top-k.
    let mut references: std::collections::HashMap<usize, String> = std::collections::HashMap::new();
    // `decoded_from` is the decode counter before this cell's index
    // warm-up, or after the previous cell on the same index.
    let mut measure = |index: &CorpusIndex,
                       cache: &QueryCache,
                       mode: &'static str,
                       threads: usize,
                       top_k: usize,
                       serial_wall: f64,
                       decoded_from: u64|
     -> f64 {
        let before = firmup_telemetry::snapshot();
        let (mut wall_ms, findings, fp) = run_sweep(index, cache, threads, top_k);
        let mut stable = true;
        for _ in 1..SWEEPS {
            let (w, _, fp_rep) = run_sweep(index, cache, threads, top_k);
            wall_ms = wall_ms.min(w);
            stable &= fp_rep == fp;
        }
        let h = histogram_delta(&before, &firmup_telemetry::snapshot(), "search.target_us");
        let serial_wall = if serial_wall > 0.0 {
            serial_wall
        } else {
            wall_ms
        };
        let reference = references.entry(top_k).or_insert_with(|| fp.clone());
        let cell_plays = h.count as usize / SWEEPS;
        cells.push(ScanBenchCell {
            mode,
            threads,
            top_k,
            wall_ms,
            targets_per_sec: if wall_ms > 0.0 {
                cell_plays as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            speedup: if wall_ms > 0.0 {
                serial_wall / wall_ms
            } else {
                0.0
            },
            findings,
            results_equal: stable && fp == *reference,
            reps_decoded: decoded() - decoded_from,
            p50_target_us: h.quantile(0.5),
            p95_target_us: h.quantile(0.95),
        });
        wall_ms
    };
    let mut plays = 0;
    for (mode, index) in [("cold", &cold), ("warm", &warm)] {
        let cache = QueryCache::default();
        let mut decoded_from = decoded();
        plays = warm_up(index, &cache, 0);
        let mut serial_wall = 0.0f64;
        for &threads in sweep {
            let wall = measure(index, &cache, mode, threads, 0, serial_wall, decoded_from);
            decoded_from = decoded();
            if threads == 1 {
                serial_wall = wall;
            }
        }
    }
    // Top-k sensitivity at the widest thread count, each k on a freshly
    // opened index so `reps_decoded` counts the candidate decode.
    for &k in &[8usize, 32, 128] {
        let decoded_from = decoded();
        let fresh = CorpusIndex::open(&dir).expect("reopen index");
        let cache = QueryCache::default();
        warm_up(&fresh, &cache, k);
        measure(&fresh, &cache, "warm", widest, k, 0.0, decoded_from);
    }
    let _ = std::fs::remove_dir_all(&dir);
    ScanBench {
        preset: preset.to_string(),
        devices,
        executables: cold.len(),
        procedures: (0..cold.len()).map(|i| cold.get(i).procedures.len()).sum(),
        plays,
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        alloc_bytes,
        postings_bytes,
        cells,
    }
}

/// Render the scan benchmark as the `results/bench_scan.json` payload.
pub fn render_scan_bench(b: &ScanBench) -> String {
    use firmup_telemetry::json::Json;
    let r3 = |x: f64| (x * 1e3).round() / 1e3;
    let cells: Vec<Json> = b
        .cells
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("mode".into(), Json::Str(c.mode.to_string())),
                ("threads".into(), Json::Num(c.threads as f64)),
                ("top_k".into(), Json::Num(c.top_k as f64)),
                ("wall_ms".into(), Json::Num(r3(c.wall_ms))),
                ("targets_per_sec".into(), Json::Num(r3(c.targets_per_sec))),
                ("speedup".into(), Json::Num(r3(c.speedup))),
                ("findings".into(), Json::Num(c.findings as f64)),
                ("results_equal".into(), Json::Bool(c.results_equal)),
                ("reps_decoded".into(), Json::Num(c.reps_decoded as f64)),
                ("p50_target_us".into(), Json::Num(r3(c.p50_target_us))),
                ("p95_target_us".into(), Json::Num(r3(c.p95_target_us))),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("preset".into(), Json::Str(b.preset.clone())),
        ("devices".into(), Json::Num(b.devices as f64)),
        ("executables".into(), Json::Num(b.executables as f64)),
        ("procedures".into(), Json::Num(b.procedures as f64)),
        ("plays".into(), Json::Num(b.plays as f64)),
        ("host_cpus".into(), Json::Num(b.host_cpus as f64)),
        ("alloc_bytes".into(), Json::Num(b.alloc_bytes as f64)),
        ("postings_bytes".into(), Json::Num(b.postings_bytes as f64)),
        ("cells".into(), Json::Arr(cells)),
    ]);
    let mut out = doc.render();
    out.push('\n');
    out
}

/// The standalone acceptance gate on a fresh [`ScanBench`], independent
/// of any baseline: every cell must report `results_equal` (the
/// determinism invariant across thread counts, cold ≡ warm),
/// and — only when the host has ≥ 4 cores, where parallel speedup is
/// physically measurable — the best 4-thread `top_k = 0` cell must
/// clear 1.5× over its serial counterpart.
///
/// # Errors
///
/// A human-readable description of the first violated gate.
pub fn check_scan_bench(b: &ScanBench) -> Result<(), String> {
    for c in &b.cells {
        if !c.results_equal {
            return Err(format!(
                "determinism violation: mode={} threads={} top_k={} diverged from the reference findings",
                c.mode, c.threads, c.top_k
            ));
        }
    }
    if b.host_cpus >= 4 {
        let best = b
            .cells
            .iter()
            .filter(|c| c.threads == 4 && c.top_k == 0)
            .map(|c| c.speedup)
            .fold(0.0f64, f64::max);
        if best <= 1.5 {
            return Err(format!(
                "scaling failure: best 4-thread speedup {best:.2}× ≤ 1.5× on a {}-cpu host",
                b.host_cpus
            ));
        }
    }
    Ok(())
}

/// Compare a fresh `bench_scan.json` against a checked-in baseline.
///
/// Hard failures (the `Err` string): unparseable documents, a sweep
/// shape mismatch (different `preset`/`devices`, or a baseline cell
/// with no matching (mode, threads, top_k) cell), any cell with
/// `results_equal: false`, a findings-count change, or a speedup below
/// `baseline × (1 - tol)`. Speedups *above* `baseline × (1 + tol)` —
/// e.g. a 1-core baseline replayed on a many-core runner — only produce
/// warnings (the `Ok` list), and the below-baseline check is skipped
/// entirely (with a warning) when the current host has fewer cores than
/// the baseline's, which is what lets the same baseline gate hosts of
/// different widths.
pub fn compare_scan_bench(current: &str, baseline: &str, tol: f64) -> Result<Vec<String>, String> {
    use firmup_telemetry::json::Json;
    let cur = Json::parse(current).map_err(|e| format!("current bench_scan.json: {e}"))?;
    let base = Json::parse(baseline).map_err(|e| format!("baseline bench_scan.json: {e}"))?;
    for key in ["preset", "devices"] {
        let (a, b) = (cur.get(key), base.get(key));
        if a.map(Json::render) != b.map(Json::render) {
            return Err(format!(
                "sweep shape mismatch on `{key}`: current {:?} vs baseline {:?}",
                a.map(Json::render),
                b.map(Json::render)
            ));
        }
    }
    let cells = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing `cells` array")?
            .to_vec())
    };
    let cur_cells = cells(&cur)?;
    let mut warnings = Vec::new();
    let cpus = |doc: &Json| doc.get("host_cpus").and_then(Json::as_u64);
    let narrower_host = match (cpus(&cur), cpus(&base)) {
        (Some(c), Some(b)) => c < b,
        _ => false,
    };
    if narrower_host {
        warnings.push(format!(
            "current host has {} cpu(s) vs baseline's {}; speedup regressions not enforced",
            cpus(&cur).unwrap_or(0),
            cpus(&base).unwrap_or(0)
        ));
    }
    for bc in cells(&base)? {
        let (mode, threads, top_k) = (
            bc.get("mode").and_then(Json::as_str).unwrap_or(""),
            bc.get("threads").and_then(Json::as_u64).unwrap_or(0),
            bc.get("top_k").and_then(Json::as_u64).unwrap_or(0),
        );
        let cc = cur_cells
            .iter()
            .find(|c| {
                c.get("mode").and_then(Json::as_str) == Some(mode)
                    && c.get("threads").and_then(Json::as_u64) == Some(threads)
                    && c.get("top_k").and_then(Json::as_u64).unwrap_or(0) == top_k
            })
            .ok_or_else(|| {
                format!("no current cell for mode={mode} threads={threads} top_k={top_k}")
            })?;
        if !matches!(cc.get("results_equal"), Some(Json::Bool(true))) {
            return Err(format!(
                "determinism violation: mode={mode} threads={threads} top_k={top_k} \
                 has results_equal != true"
            ));
        }
        let num = |c: &Json, k: &str| c.get(k).and_then(Json::as_f64);
        let (cf, bf) = (num(cc, "findings"), num(&bc, "findings"));
        if cf != bf {
            return Err(format!(
                "findings changed for mode={mode} threads={threads} top_k={top_k}: \
                 {cf:?} vs baseline {bf:?}"
            ));
        }
        if let (Some(cs), Some(bs)) = (num(cc, "speedup"), num(&bc, "speedup")) {
            if cs < bs * (1.0 - tol) && !narrower_host {
                return Err(format!(
                    "speedup regression for mode={mode} threads={threads} top_k={top_k}: \
                     {cs:.2} < {bs:.2} × (1 - {tol:.2})"
                ));
            }
            if cs > bs * (1.0 + tol) {
                warnings.push(format!(
                    "speedup improved for mode={mode} threads={threads} top_k={top_k}: \
                     {cs:.2} > {bs:.2} × (1 + {tol:.2}) — consider reblessing the baseline"
                ));
            }
        }
    }
    Ok(warnings)
}

// ===================================================================
// Trace-overhead benchmark — what instrumentation costs the hot path
// ===================================================================

/// One cell of the trace-overhead sweep: a telemetry mode and the
/// best-of-3 wall time of the same scan workload under it.
#[derive(Debug, Clone)]
pub struct TraceOverheadCell {
    /// `"off"` (recording disabled), `"metrics"` (span-stats registry
    /// only), or `"full"` (metrics + span-trace collection).
    pub mode: &'static str,
    /// Best-of-3 wall time in milliseconds.
    pub wall_ms: f64,
    /// Spans collected per run (non-zero only in `full` mode).
    pub spans: usize,
}

/// Result of `experiments trace-overhead`: the cost of observability on
/// a representative scan, as a fraction of the untraced wall time.
#[derive(Debug, Clone)]
pub struct TraceOverhead {
    /// Corpus scale multiplier.
    pub scale: usize,
    /// Devices in the generated corpus.
    pub devices: usize,
    /// Executables scanned.
    pub executables: usize,
    /// Target games per run (arch queries × targets).
    pub plays: usize,
    /// The three mode cells, in off → metrics → full order.
    pub cells: Vec<TraceOverheadCell>,
    /// `metrics` wall over `off` wall, minus 1.
    pub overhead_metrics: f64,
    /// `full` wall over `off` wall, minus 1 — gated at < 10%.
    pub overhead_full: f64,
}

/// Budget the CI gate holds `overhead_full` under.
pub const TRACE_OVERHEAD_BUDGET: f64 = 0.10;

/// Measure what telemetry costs a hot scan: one CVE query (all four
/// architectures) played against every corpus target, identical across
/// three telemetry modes — recording off, metrics only, and full span
/// tracing. Each mode is best-of-3 after a shared warm-up run, so the
/// comparison isolates instrumentation from cache state. Restores the
/// enabled-metrics/no-span-trace state the experiments CLI runs under.
pub fn bench_trace_overhead(scale: usize) -> TraceOverhead {
    use firmup_core::search::{search_corpus_robust, ScanBudget};
    use firmup_core::sim::ExecutableRep;

    let wb = Workbench::build(scale);
    let reps: Vec<&ExecutableRep> = wb.targets.iter().map(|t| &t.rep).collect();
    // Three queries × four architectures each: enough games that the
    // wall time dwarfs scheduler jitter, so a <10% budget is testable.
    let queries: Vec<Query> = FIG6_QUERIES[..3]
        .iter()
        .map(|(pkg, proc)| wb.query(pkg, proc))
        .collect();
    let config = SearchConfig {
        context: Some(std::sync::Arc::clone(&wb.context)),
        threads: 4,
        ..SearchConfig::default()
    };
    let run = || {
        let mut findings = 0usize;
        for query in &queries {
            for (_, rep, qv, _) in &query.per_arch {
                let report =
                    search_corpus_robust(rep, *qv, &reps, &config, &ScanBudget::unlimited());
                findings += report
                    .outcomes
                    .iter()
                    .filter(|o| o.result().is_some_and(|r| r.found()))
                    .count();
            }
        }
        findings
    };

    // Warm up caches once, outside any measurement.
    firmup_telemetry::disable();
    firmup_telemetry::set_span_trace(false);
    let _ = run();

    // Best-of-3 with the modes interleaved round-robin, so slow drift
    // (frequency scaling, page-cache warming) hits every mode equally
    // instead of biasing whichever mode measures first.
    let modes: [(&'static str, bool, bool); 3] = [
        ("off", false, false),
        ("metrics", true, false),
        ("full", true, true),
    ];
    let mut cells: Vec<TraceOverheadCell> = modes
        .iter()
        .map(|&(mode, ..)| TraceOverheadCell {
            mode,
            wall_ms: f64::INFINITY,
            spans: 0,
        })
        .collect();
    for _ in 0..3 {
        for (cell, &(_, metrics, span_trace)) in cells.iter_mut().zip(&modes) {
            if metrics {
                firmup_telemetry::enable();
            } else {
                firmup_telemetry::disable();
            }
            firmup_telemetry::set_span_trace(span_trace);
            drop(firmup_telemetry::take_trace());
            let t0 = Instant::now();
            let _ = run();
            cell.wall_ms = cell.wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            cell.spans = firmup_telemetry::take_trace().spans.len();
        }
    }
    firmup_telemetry::enable();
    firmup_telemetry::set_span_trace(false);

    let wall = |mode: &str| {
        cells
            .iter()
            .find(|c| c.mode == mode)
            .map_or(0.0, |c| c.wall_ms)
    };
    let overhead = |mode: &str| {
        if wall("off") > 0.0 {
            wall(mode) / wall("off") - 1.0
        } else {
            0.0
        }
    };
    TraceOverhead {
        scale,
        devices: wb.corpus.images.len(),
        executables: reps.len(),
        plays: queries.iter().map(|q| q.per_arch.len()).sum::<usize>() * reps.len(),
        overhead_metrics: overhead("metrics"),
        overhead_full: overhead("full"),
        cells,
    }
}

/// Render the trace-overhead result as the
/// `results/bench_trace_overhead.json` payload.
pub fn render_trace_overhead(b: &TraceOverhead) -> String {
    use firmup_telemetry::json::Json;
    let r3 = |x: f64| (x * 1e3).round() / 1e3;
    let cells: Vec<Json> = b
        .cells
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("mode".into(), Json::Str(c.mode.to_string())),
                ("wall_ms".into(), Json::Num(r3(c.wall_ms))),
                ("spans".into(), Json::Num(c.spans as f64)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("scale".into(), Json::Num(b.scale as f64)),
        ("devices".into(), Json::Num(b.devices as f64)),
        ("executables".into(), Json::Num(b.executables as f64)),
        ("plays".into(), Json::Num(b.plays as f64)),
        ("cells".into(), Json::Arr(cells)),
        ("overhead_metrics".into(), Json::Num(r3(b.overhead_metrics))),
        ("overhead_full".into(), Json::Num(r3(b.overhead_full))),
        ("budget".into(), Json::Num(TRACE_OVERHEAD_BUDGET)),
    ]);
    let mut out = doc.render();
    out.push('\n');
    out
}

/// Render the index benchmark as the `results/bench_index.json` payload.
pub fn render_index_bench(b: &IndexBench) -> String {
    format!(
        "{{\n  \"scale\": {},\n  \"executables\": {},\n  \"procedures\": {},\n  \
         \"index_bytes\": {},\n  \"cold_ms\": {:.3},\n  \"warm_ms\": {:.3},\n  \
         \"speedup\": {:.2},\n  \"results_equal\": {}\n}}\n",
        b.scale,
        b.executables,
        b.procedures,
        b.index_bytes,
        b.cold_ms,
        b.warm_ms,
        b.speedup,
        b.results_equal
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(preset: &str, cells: &[(&str, u64, f64, u64, bool)]) -> String {
        doc_on_host(preset, 4, cells)
    }

    fn doc_on_host(preset: &str, host_cpus: u64, cells: &[(&str, u64, f64, u64, bool)]) -> String {
        use firmup_telemetry::json::Json;
        let cells: Vec<Json> = cells
            .iter()
            .map(|&(mode, threads, speedup, findings, eq)| {
                Json::Obj(vec![
                    ("mode".into(), Json::Str(mode.to_string())),
                    ("threads".into(), Json::Num(threads as f64)),
                    ("top_k".into(), Json::Num(0.0)),
                    ("speedup".into(), Json::Num(speedup)),
                    ("findings".into(), Json::Num(findings as f64)),
                    ("results_equal".into(), Json::Bool(eq)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("preset".into(), Json::Str(preset.to_string())),
            ("devices".into(), Json::Num(4.0)),
            ("host_cpus".into(), Json::Num(host_cpus as f64)),
            ("cells".into(), Json::Arr(cells)),
        ])
        .render()
    }

    #[test]
    fn comparator_accepts_within_tolerance() {
        let base = doc(
            "quick",
            &[("cold", 1, 1.0, 9, true), ("cold", 4, 2.0, 9, true)],
        );
        let cur = doc(
            "quick",
            &[("cold", 1, 1.0, 9, true), ("cold", 4, 1.7, 9, true)],
        );
        let warnings = compare_scan_bench(&cur, &base, 0.20).expect("within tolerance");
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn comparator_fails_on_speedup_regression_and_warns_on_improvement() {
        let base = doc("quick", &[("cold", 4, 2.0, 9, true)]);
        let slow = doc("quick", &[("cold", 4, 1.5, 9, true)]);
        let err = compare_scan_bench(&slow, &base, 0.20).unwrap_err();
        assert!(err.contains("speedup regression"), "{err}");
        let fast = doc("quick", &[("cold", 4, 3.1, 9, true)]);
        let warnings = compare_scan_bench(&fast, &base, 0.20).expect("improvement passes");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("improved"), "{warnings:?}");
    }

    #[test]
    fn comparator_skips_speedup_gate_on_narrower_hosts() {
        // A 4-core baseline replayed on a 1-core host can't reproduce the
        // parallel speedup; the comparator must warn instead of failing,
        // while still enforcing determinism.
        let base = doc_on_host("quick", 4, &[("cold", 4, 2.0, 9, true)]);
        let slow = doc_on_host("quick", 1, &[("cold", 4, 1.0, 9, true)]);
        let warnings = compare_scan_bench(&slow, &base, 0.20).expect("narrow host passes");
        assert!(
            warnings.iter().any(|w| w.contains("not enforced")),
            "{warnings:?}"
        );
        let nondet = doc_on_host("quick", 1, &[("cold", 4, 1.0, 9, false)]);
        assert!(compare_scan_bench(&nondet, &base, 0.20)
            .unwrap_err()
            .contains("determinism"));
    }

    #[test]
    fn comparator_hard_fails_on_determinism_findings_and_shape() {
        let base = doc("quick", &[("cold", 1, 1.0, 9, true)]);
        let nondet = doc("quick", &[("cold", 1, 1.0, 9, false)]);
        assert!(compare_scan_bench(&nondet, &base, 0.20)
            .unwrap_err()
            .contains("determinism"));
        let drifted = doc("quick", &[("cold", 1, 1.0, 7, true)]);
        assert!(compare_scan_bench(&drifted, &base, 0.20)
            .unwrap_err()
            .contains("findings changed"));
        let missing = doc("quick", &[("warm", 1, 1.0, 9, true)]);
        assert!(compare_scan_bench(&missing, &base, 0.20)
            .unwrap_err()
            .contains("no current cell"));
        let full = doc("medium", &[("cold", 1, 1.0, 9, true)]);
        assert!(compare_scan_bench(&full, &base, 0.20)
            .unwrap_err()
            .contains("sweep shape mismatch"));
        assert!(compare_scan_bench("nonsense", &base, 0.20).is_err());
    }

    #[test]
    fn histogram_delta_subtracts_prior_observations() {
        firmup_telemetry::enable();
        let name = "bench.test.delta_histogram";
        firmup_telemetry::observe(name, 10);
        let before = firmup_telemetry::snapshot();
        firmup_telemetry::observe(name, 100);
        firmup_telemetry::observe(name, 100);
        let after = firmup_telemetry::snapshot();
        let d = histogram_delta(&before, &after, name);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 200);
        let p50 = d.quantile(0.5);
        assert!((64.0..128.0).contains(&p50), "p50 = {p50}");
        let none = histogram_delta(&after, &after, name);
        assert_eq!(none.count, 0);
        assert_eq!(none.quantile(0.5), 0.0);
    }
}
