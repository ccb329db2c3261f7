//! Span records are batched per thread before they reach the shared
//! collector; these tests pin that no record is lost on the way. They
//! drain the process-global collector, so they live alone in this
//! binary and run as one test.

use firmup_telemetry::{set_span_trace, span, take_trace, TraceCtx};

#[test]
fn batched_span_records_all_reach_the_collector() {
    set_span_trace(true);
    drop(take_trace());

    // Spans closed while an outer span is still open on this thread
    // are visible to a drain from inside that span.
    let outer = span!("outer");
    for _ in 0..3 {
        let _inner = span!("inner");
    }
    let trace = take_trace();
    assert_eq!(trace.spans.iter().filter(|s| s.name == "inner").count(), 3);
    drop(outer);

    // Spans from worker threads — more than one batch each — arrive
    // once the workers close their outermost span.
    let root = TraceCtx::root("batching");
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let root = root.clone();
            s.spawn(move || {
                for i in 0..300u64 {
                    let _unit = root.child("unit", w * 1000 + i).enter();
                    let _game = span!("game");
                }
            });
        }
    });
    let trace = take_trace();
    assert_eq!(trace.spans.iter().filter(|s| s.name == "unit").count(), 600);
    assert_eq!(trace.spans.iter().filter(|s| s.name == "game").count(), 600);
    assert_eq!(trace.dropped, 0);
    set_span_trace(false);
}
