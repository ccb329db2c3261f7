//! CLI for regenerating the paper's tables and figures.
//!
//! Usage: `experiments [table1|fig3|table2|fig6|fig7|fig8|fig9|ablation|index|scan-bench|trace-overhead|all]
//! [--scale N] [--quick]`
//!
//! Every run profiles itself through `firmup-telemetry` and writes the
//! machine-readable snapshot to `results/bench_metrics.json` — per-stage
//! span timings (`lift`, `canonicalize`, `index`, `game`, `search`), the
//! `game.steps` histogram (Fig. 9's metric), and pipeline counters —
//! seeding the perf trajectory future optimisation PRs measure against.

use std::path::Path;

use firmup_bench::experiments as ex;
use firmup_bench::setup::Workbench;
use firmup_firmware::durable::write_atomic;

// Results land via temp+fsync+rename so a crashed or ^C'd run never
// leaves a half-written table behind for a later `all` to mix in.
fn save(name: &str, content: &str) {
    println!("{content}");
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.txt");
    match write_atomic(Path::new(&path), content.as_bytes()) {
        Ok(()) => eprintln!("[saved {path}]"),
        Err(e) => eprintln!("[failed to save {path}: {e}]"),
    }
}

fn save_json(name: &str, content: &str) {
    println!("{content}");
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    match write_atomic(Path::new(&path), content.as_bytes()) {
        Ok(()) => eprintln!("[saved {path}]"),
        Err(e) => eprintln!("[failed to save {path}: {e}]"),
    }
}

fn save_metrics() {
    let _ = std::fs::create_dir_all("results");
    let path = "results/bench_metrics.json";
    let json = firmup_telemetry::render_json().render();
    match write_atomic(Path::new(path), json.as_bytes()) {
        Ok(()) => eprintln!("[saved {path}]"),
        Err(e) => eprintln!("[failed to save {path}: {e}]"),
    }
}

fn main() {
    firmup_telemetry::enable();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1);

    // The corpus-free experiments.
    if matches!(which, "table1" | "all") {
        save("table1", &ex::table1());
    }
    if matches!(which, "fig3" | "all") {
        save("fig3", &ex::fig3());
    }
    // The index benchmark builds its own corpus (it measures corpus
    // preparation itself, so the shared Workbench would be cheating).
    if matches!(which, "index" | "all") {
        eprintln!("[benchmarking cold vs warm index at scale {scale}…]");
        save_json(
            "bench_index",
            &ex::render_index_bench(&ex::bench_index(scale)),
        );
    }
    // The scan-scaling benchmark also builds its own corpus and times
    // `pipeline::run_scan` on it; with a checked-in baseline it
    // doubles as a regression gate: exit 1 on a speedup/determinism
    // regression, warn on improvement.
    if matches!(which, "scan-bench") {
        // --quick is the historical 4-device sweep; --preset selects a
        // gen-corpus scale preset (smoke/small/medium).
        let preset = if args.iter().any(|a| a == "--quick") {
            "quick".to_string()
        } else {
            args.iter()
                .position(|a| a == "--preset")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "medium".to_string())
        };
        eprintln!("[benchmarking scan scaling ({preset} preset)…]");
        let bench = ex::bench_scan(&preset);
        let rendered = ex::render_scan_bench(&bench);
        save_json("bench_scan", &rendered);
        // Determinism is non-negotiable on every host; the parallel
        // speedup criterion only applies where the hardware can show it.
        if let Err(e) = ex::check_scan_bench(&bench) {
            eprintln!("[bench failure: {e}]");
            save_metrics();
            std::process::exit(1);
        }
        // The checked-in baseline is a --quick sweep; only a --quick run
        // is an apples-to-apples regression gate.
        if preset == "quick" {
            match std::fs::read_to_string("results/bench_baseline.json") {
                Ok(baseline) => match ex::compare_scan_bench(&rendered, &baseline, 0.20) {
                    Ok(warnings) => {
                        for w in warnings {
                            eprintln!("[bench warning: {w}]");
                        }
                        eprintln!("[scan bench within ±20% of results/bench_baseline.json]");
                    }
                    Err(e) => {
                        eprintln!("[bench regression: {e}]");
                        save_metrics();
                        std::process::exit(1);
                    }
                },
                Err(_) => {
                    eprintln!("[no results/bench_baseline.json; skipping regression comparison]");
                }
            }
        }
        save_metrics();
        return;
    }
    // The trace-overhead gate: instrumentation must cost the hot scan
    // less than the budget, measured rather than assumed.
    if matches!(which, "trace-overhead") {
        eprintln!("[benchmarking tracing overhead at scale {scale}…]");
        let b = ex::bench_trace_overhead(scale);
        save_json("bench_trace_overhead", &ex::render_trace_overhead(&b));
        save_metrics();
        if b.overhead_full >= ex::TRACE_OVERHEAD_BUDGET {
            eprintln!(
                "[tracing overhead regression: full tracing costs {:+.1}% ≥ {:.0}% budget]",
                b.overhead_full * 100.0,
                ex::TRACE_OVERHEAD_BUDGET * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "[full tracing overhead {:+.1}%, metrics-only {:+.1}% — within the {:.0}% budget]",
            b.overhead_full * 100.0,
            b.overhead_metrics * 100.0,
            ex::TRACE_OVERHEAD_BUDGET * 100.0
        );
        return;
    }
    if matches!(which, "table1" | "fig3" | "index") {
        save_metrics();
        return;
    }

    eprintln!("[generating corpus at scale {scale}…]");
    let t0 = std::time::Instant::now();
    let wb = Workbench::build(scale);
    eprintln!(
        "[corpus ready: {} images, {} executables, {} procedures, indexed in {:?}]",
        wb.corpus.images.len(),
        wb.corpus.executable_count(),
        wb.corpus.procedure_count(),
        t0.elapsed()
    );

    match which {
        "table2" => save("table2", &ex::render_table2(&ex::table2(&wb))),
        "fig6" => save("fig6", &ex::render_fig6(&ex::fig6(&wb))),
        "fig7" => save("fig7", &ex::fig7(&wb)),
        "fig8" => save("fig8", &ex::render_fig8(&ex::fig8(&wb))),
        "fig9" => save("fig9", &ex::render_fig9(&ex::fig9(&wb))),
        "ablation" => save("ablation", &ex::render_ablation(&ex::ablation(&wb))),
        "all" => {
            save("table2", &ex::render_table2(&ex::table2(&wb)));
            save("fig6", &ex::render_fig6(&ex::fig6(&wb)));
            save("fig7", &ex::fig7(&wb));
            save("fig8", &ex::render_fig8(&ex::fig8(&wb)));
            save("fig9", &ex::render_fig9(&ex::fig9(&wb)));
            save("ablation", &ex::render_ablation(&ex::ablation(&wb)));
        }
        other => {
            eprintln!("unknown experiment `{other}`; use table1|fig3|table2|fig6|fig7|fig8|fig9|ablation|index|scan-bench|trace-overhead|all");
            std::process::exit(2);
        }
    }
    save_metrics();
}
