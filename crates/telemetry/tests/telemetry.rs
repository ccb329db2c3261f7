//! Integration tests for the telemetry registry: concurrent recording,
//! span nesting, and the JSON snapshot round-trip.
//!
//! Telemetry state is process-global, so every test here uses uniquely
//! named metrics and the suite enables recording up front.

use firmup_telemetry as tm;
use tm::json::Json;

fn enabled() {
    tm::enable();
}

#[test]
fn counters_are_exact_under_contention() {
    enabled();
    let c = tm::counter("it.counter.contended");
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..10_000 {
                    c.incr();
                }
            });
        }
    });
    assert_eq!(c.get(), 80_000);
}

#[test]
fn histograms_are_exact_under_contention() {
    enabled();
    let h = tm::histogram("it.hist.contended");
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let h = h.clone();
            s.spawn(move || {
                for i in 0..1_000u64 {
                    h.observe(t * 1_000 + i);
                }
            });
        }
    });
    let snap = tm::snapshot();
    let (_, hist) = snap
        .histograms
        .iter()
        .find(|(k, _)| k == "it.hist.contended")
        .expect("registered");
    assert_eq!(hist.count, 8_000);
    assert_eq!(hist.min, 0);
    assert_eq!(hist.max, 7_999);
    // Observations land in log2 buckets covering [0, 8000).
    assert_eq!(hist.buckets.iter().map(|(_, n)| n).sum::<u64>(), 8_000);
    let total: u64 = (0..8u64)
        .map(|t| (0..1_000).map(|i| t * 1_000 + i).sum::<u64>())
        .sum();
    assert_eq!(hist.sum, total);
}

#[test]
fn spans_nest_into_slash_joined_paths() {
    enabled();
    {
        let _outer = tm::span!("it-outer");
        {
            let _inner = tm::span!("it-inner");
        }
        {
            let _inner = tm::span!("it-inner");
        }
    }
    let snap = tm::snapshot();
    let inner = snap
        .spans
        .iter()
        .find(|(k, _)| k == "it-outer/it-inner")
        .expect("nested path recorded");
    assert_eq!(inner.1.count, 2);
    let outer = snap
        .spans
        .iter()
        .find(|(k, _)| k == "it-outer")
        .expect("outer path");
    assert_eq!(outer.1.count, 1);
    assert!(
        outer.1.total_ns >= inner.1.total_ns,
        "outer span encloses both inner spans"
    );
    // Leaf aggregation folds paths by last segment.
    let stages = snap.stages();
    let (_, leaf) = stages
        .iter()
        .find(|(k, _)| k == "it-inner")
        .expect("stage aggregate");
    assert_eq!(leaf.count, 2);
}

#[test]
fn gauge_keeps_last_write() {
    enabled();
    tm::set_gauge("it.gauge", 41);
    tm::set_gauge("it.gauge", -7);
    let snap = tm::snapshot();
    let (_, v) = snap
        .gauges
        .iter()
        .find(|(k, _)| k == "it.gauge")
        .expect("registered");
    assert_eq!(*v, -7);
}

#[test]
fn json_snapshot_round_trips() {
    enabled();
    tm::add("it.json.counter", 3);
    tm::observe("it.json.hist", 5);
    tm::observe("it.json.hist", 600);
    {
        let _s = tm::span!("it-json-span");
    }
    let rendered = tm::render_json().render();
    let doc = Json::parse(&rendered).expect("snapshot renders valid JSON");

    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("it.json.counter"))
            .and_then(Json::as_u64),
        Some(3)
    );
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get("it.json.hist"))
        .expect("histogram");
    assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
    assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(605));
    assert_eq!(hist.get("min").and_then(Json::as_u64), Some(5));
    assert_eq!(hist.get("max").and_then(Json::as_u64), Some(600));
    let buckets = hist.get("buckets").and_then(Json::as_arr).expect("buckets");
    assert_eq!(buckets.len(), 2, "5 and 600 live in different log2 buckets");

    let span = doc
        .get("stages")
        .and_then(|s| s.get("it-json-span"))
        .expect("stage");
    assert_eq!(span.get("count").and_then(Json::as_u64), Some(1));
}

#[test]
fn quantile_edge_cases() {
    // Empty histogram: every quantile is 0.0.
    let empty = tm::HistogramSnapshot {
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
        buckets: Vec::new(),
    };
    for q in [0.0, 0.5, 1.0] {
        assert_eq!(empty.quantile(q), 0.0);
    }

    // Single-bucket histogram: every quantile stays inside [min, max].
    let single = tm::HistogramSnapshot {
        count: 4,
        sum: 44,
        min: 9,
        max: 13,
        buckets: vec![(8, 4)], // all four values in [8, 16)
    };
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let v = single.quantile(q);
        assert!((9.0..=13.0).contains(&v), "q={q} gave {v}");
    }
    // q=0.0 pins to the low edge, q=1.0 to the recorded max.
    assert_eq!(single.quantile(0.0), 9.0);
    assert_eq!(single.quantile(1.0), 13.0);

    // Out-of-range q clamps rather than panicking.
    assert_eq!(single.quantile(-1.0), single.quantile(0.0));
    assert_eq!(single.quantile(2.0), single.quantile(1.0));
}

#[test]
fn bucket_round_trip_at_u64_boundaries() {
    // Every bucket index round-trips through its own lower bound.
    for i in 0..tm::HIST_BUCKETS {
        assert_eq!(tm::bucket_of(tm::bucket_lower_bound(i)), i, "bucket {i}");
    }
    // Powers of two open a new bucket; their predecessors close one.
    for k in 1..64u32 {
        let p = 1u64 << k;
        assert_eq!(tm::bucket_of(p), k as usize + 1, "2^{k}");
        assert_eq!(tm::bucket_of(p - 1), k as usize, "2^{k} - 1");
    }
    // The extremes: only zero lands in bucket 0, and u64::MAX lands in
    // the last bucket.
    assert_eq!(tm::bucket_of(0), 0);
    assert_eq!(tm::bucket_of(1), 1);
    assert_eq!(tm::bucket_of(u64::MAX), tm::HIST_BUCKETS - 1);
    assert_eq!(tm::bucket_lower_bound(tm::HIST_BUCKETS - 1), 1u64 << 63);
    // Every value sits within its bucket's [lo, 2*lo) range.
    for v in [0u64, 1, 2, 3, 7, 64, 1_000_003, u64::MAX / 2, u64::MAX] {
        let lo = tm::bucket_lower_bound(tm::bucket_of(v));
        assert!(lo <= v, "lower bound {lo} above value {v}");
        if lo > 0 && lo <= u64::MAX / 2 {
            assert!(v < lo * 2, "value {v} escapes bucket [{lo}, {})", lo * 2);
        }
    }
}

#[test]
fn trace_ctx_reparents_spans_across_threads() {
    enabled();
    // A root on the main thread; children entered on worker threads via
    // explicit contexts. With the old thread-local-only stack these
    // worker spans would record as roots named "it-ctx-unit"; with
    // TraceCtx they nest under the root's path.
    let root = tm::TraceCtx::root("it-ctx-root");
    {
        let _g = root.clone().enter();
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let ctx = root.child("it-ctx-unit", i);
                s.spawn(move || {
                    let _u = ctx.enter();
                    let _inner = tm::span!("it-ctx-inner");
                });
            }
        });
    }
    let snap = tm::snapshot();
    let count_of = |path: &str| {
        snap.spans
            .iter()
            .find(|(k, _)| k == path)
            .map_or(0, |(_, s)| s.count)
    };
    assert_eq!(count_of("it-ctx-root"), 1);
    assert_eq!(count_of("it-ctx-root/it-ctx-unit"), 4);
    assert_eq!(count_of("it-ctx-root/it-ctx-unit/it-ctx-inner"), 4);
    assert_eq!(count_of("it-ctx-unit"), 0, "no orphaned worker spans");
}

#[test]
fn prometheus_round_trips_against_live_registry() {
    enabled();
    tm::add("it.prom.counter", 17);
    tm::set_gauge("it.prom.gauge", -4);
    for v in [0u64, 3, 3, 900] {
        tm::observe("it.prom.hist", v);
    }
    let snap = tm::snapshot();
    let samples =
        tm::export::parse_exposition(&tm::render_prometheus(&snap)).expect("exposition parses");
    let value = |name: &str, le: Option<&str>| {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && le.is_none_or(|want| s.labels.iter().any(|(k, v)| k == "le" && v == want))
            })
            .unwrap_or_else(|| panic!("missing {name}"))
            .value
    };
    assert_eq!(value("firmup_it_prom_counter_total", None), 17.0);
    assert_eq!(value("firmup_it_prom_gauge", None), -4.0);
    let hist = snap
        .histograms
        .iter()
        .find(|(k, _)| k == "it.prom.hist")
        .map(|(_, h)| h)
        .expect("histogram registered");
    assert_eq!(value("firmup_it_prom_hist_count", None), hist.count as f64);
    assert_eq!(value("firmup_it_prom_hist_sum", None), hist.sum as f64);
    assert_eq!(
        value("firmup_it_prom_hist_bucket", Some("+Inf")),
        hist.count as f64
    );
    // Cumulative bucket counts are monotone and end at count.
    let mut les: Vec<f64> = samples
        .iter()
        .filter(|s| s.name == "firmup_it_prom_hist_bucket")
        .map(|s| s.value)
        .collect();
    let sorted = {
        let mut s = les.clone();
        s.sort_by(f64::total_cmp);
        s
    };
    assert_eq!(les, sorted, "bucket counts are cumulative");
    assert_eq!(les.pop(), Some(hist.count as f64));
}

#[test]
fn local_histogram_flush_matches_direct_observation() {
    enabled();
    let values = [0u64, 1, 2, 3, 100, 5_000, u64::MAX];
    for &v in &values {
        tm::observe("it.local.direct", v);
    }
    let mut local = tm::LocalHistogram::new();
    for &v in &values {
        local.record(v);
    }
    assert_eq!(local.count(), values.len() as u64);
    local.flush_into("it.local.flushed");
    assert_eq!(local.count(), 0, "flush clears the accumulator");
    let snap = tm::snapshot();
    let get = |n: &str| {
        snap.histograms
            .iter()
            .find(|(k, _)| k == n)
            .expect("registered")
            .1
            .clone()
    };
    let (d, f) = (get("it.local.direct"), get("it.local.flushed"));
    assert_eq!(d.count, f.count);
    assert_eq!(d.sum, f.sum);
    assert_eq!(d.min, f.min);
    assert_eq!(d.max, f.max);
    assert_eq!(d.buckets, f.buckets, "bucket layout identical");
}

#[test]
fn local_histogram_merge_combines_workers() {
    let mut a = tm::LocalHistogram::new();
    let mut b = tm::LocalHistogram::new();
    a.record(4);
    a.record(9);
    b.record(1);
    a.merge(&b);
    assert_eq!(a.count(), 3);
    // Merging an empty accumulator changes nothing.
    a.merge(&tm::LocalHistogram::new());
    assert_eq!(a.count(), 3);
}

#[test]
fn registry_lookups_counts_name_resolutions() {
    // Other tests in this binary resolve names concurrently, so only
    // monotonicity and a lower bound are assertable here; the scan-path
    // flatness pin lives in firmup-core's dedicated test binary.
    let before = tm::registry_lookups();
    let _ = tm::counter("it.lookups.a");
    let _ = tm::histogram("it.lookups.b");
    let _ = tm::gauge("it.lookups.c");
    assert!(tm::registry_lookups() >= before + 3);
}
