//! Golden-file test: the Chrome `trace_event` export of a fixed
//! virtual-time session must match `tests/golden/chrome_trace.json`
//! byte-for-byte, and satisfy the trace_event schema.
//!
//! Regenerate with `TRACE_BLESS=1 cargo test -p pastis-trace --test
//! golden_chrome` after an intentional format change.

use pastis_trace::{chrome_trace_json, json, CommOp, Component, TraceSession, Track};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/chrome_trace.json"
);

/// A small fixed two-rank session exercising every event shape: main-track
/// spans with args, worker sub-track spans, and comm instants.
fn fixture_session() -> TraceSession {
    let session = TraceSession::virtual_time();
    for rank in 0..2usize {
        let rec = session.recorder(rank);
        rec.record_span_at(
            Component::SparseOther,
            "kmer_matrix",
            Track::Rank,
            0.0,
            0.125,
            &[("nnz", 640 + rank as u64)],
        );
        rec.record_span_at(
            Component::SpGemm,
            "summa.block",
            Track::Rank,
            0.125,
            0.5,
            &[("r", 0), ("c", rank as u64)],
        );
        rec.record_comm_at(CommOp::Broadcast, 1536, 1, 0.0625, 0.125);
        rec.record_span_at(
            Component::Align,
            "align.batch",
            Track::Rank,
            0.625,
            0.25,
            &[("pairs", 32)],
        );
        for w in 0..2u32 {
            rec.record_span_at(
                Component::Align,
                "align.unit",
                Track::PoolWorker(w),
                0.625,
                0.2 + w as f64 * 0.05,
                &[("unit", w as u64), ("pairs", 16)],
            );
        }
        rec.record_comm_at(CommOp::AllReduce, 56, 1, 0.001, 0.875);
    }
    session
}

#[test]
fn chrome_export_matches_golden_file() {
    let text = chrome_trace_json(&fixture_session());
    if std::env::var_os("TRACE_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with TRACE_BLESS=1");
    assert_eq!(
        text, golden,
        "chrome trace export drifted from the golden file; \
         if intentional, regenerate with TRACE_BLESS=1"
    );
}

#[test]
fn chrome_export_satisfies_trace_event_schema() {
    let text = chrome_trace_json(&fixture_session());
    let v = json::parse(&text).expect("export must be valid JSON");

    let events = v
        .get("traceEvents")
        .and_then(json::JsonValue::as_array)
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    let mut pids = Vec::new();
    for e in events {
        // Mandatory keys on every event.
        let ph = e.get("ph").and_then(json::JsonValue::as_str).unwrap();
        assert!(e.get("name").and_then(json::JsonValue::as_str).is_some());
        let pid = e.get("pid").and_then(json::JsonValue::as_u64).unwrap();
        assert!(e.get("tid").and_then(json::JsonValue::as_u64).is_some());
        pids.push(pid);
        match ph {
            // Complete events need ts + dur.
            "X" => {
                assert!(e.get("ts").and_then(json::JsonValue::as_u64).is_some());
                assert!(e.get("dur").and_then(json::JsonValue::as_u64).is_some());
            }
            // Instants need ts and a scope.
            "i" => {
                assert!(e.get("ts").and_then(json::JsonValue::as_u64).is_some());
                assert_eq!(e.get("s").and_then(json::JsonValue::as_str), Some("t"));
            }
            // Metadata events carry an args.name.
            "M" => {
                assert!(e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(json::JsonValue::as_str)
                    .is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids, vec![0, 1], "one Chrome process per rank");

    // Worker sub-tracks exist and are labelled.
    for want in ["pool-worker 0", "pool-worker 1"] {
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(json::JsonValue::as_str) == Some("thread_name")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(json::JsonValue::as_str)
                        == Some(want)
            }),
            "missing thread_name metadata for {want}"
        );
    }
}
