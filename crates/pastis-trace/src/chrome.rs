//! Chrome `trace_event` exporter.
//!
//! Emits the JSON-object flavour of the [Trace Event Format] consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a top-level
//! object with a `traceEvents` array. Mapping:
//!
//! * **process = rank.** `pid` is the rank id; a `process_name` metadata
//!   event labels it `"rank N"`.
//! * **thread = track.** `tid 0` is the rank's main pipeline track; `tid
//!   1 + w` is alignment-pool worker `w`'s occupancy sub-track, labelled
//!   with `thread_name` metadata.
//! * **spans** become complete events (`"ph":"X"`) with the component
//!   label as `cat` and span args under `args`.
//! * **communication events** become instant events (`"ph":"i"`, thread
//!   scope) named `comm.<op>` with `bytes`, `peers`, and `wait_us` args.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Timestamps are integer microseconds since the session epoch, so the
//! export is byte-deterministic for virtual-time sessions (pinned by the
//! golden-file test).

use crate::json::JsonWriter;
use crate::recorder::{Recorder, Track};
use crate::TraceSession;

/// Render the whole session as Chrome `trace_event` JSON.
pub fn chrome_trace_json(session: &TraceSession) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("displayTimeUnit", "ms")
        .key("traceEvents")
        .begin_array();
    for rec in session.recorders() {
        write_rank_events(&mut w, &rec);
    }
    w.end_array().end_object();
    w.finish()
}

fn write_rank_events(w: &mut JsonWriter, rec: &Recorder) {
    let pid = rec.rank() as u64;

    // Process metadata: name the rank's track group.
    w.begin_object()
        .field_str("name", "process_name")
        .field_str("ph", "M")
        .field_u64("pid", pid)
        .field_u64("tid", 0)
        .key("args")
        .begin_object()
        .field_str("name", &format!("rank {pid}"))
        .end_object()
        .end_object();

    let spans = rec.snapshot_spans();

    // Thread metadata for every track that carries events.
    let mut tids: Vec<u64> = spans.iter().map(|s| s.track.tid()).collect();
    tids.push(0); // comm events + pipeline spans live on the main track
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let label = Track::tid_label(tid);
        w.begin_object()
            .field_str("name", "thread_name")
            .field_str("ph", "M")
            .field_u64("pid", pid)
            .field_u64("tid", tid)
            .key("args")
            .begin_object()
            .field_str("name", &label)
            .end_object()
            .end_object();
    }

    // Spans, ordered by (track, start) for deterministic output regardless
    // of drop order.
    let mut ordered: Vec<usize> = (0..spans.len()).collect();
    ordered.sort_by_key(|&i| (spans[i].track.tid(), spans[i].start_us, spans[i].dur_us));
    for i in ordered {
        let s = &spans[i];
        w.begin_object()
            .field_str("name", s.name)
            .field_str("cat", s.component.label())
            .field_str("ph", "X")
            .field_u64("ts", s.start_us)
            .field_u64("dur", s.dur_us)
            .field_u64("pid", pid)
            .field_u64("tid", s.track.tid());
        if !s.args.is_empty() {
            w.key("args").begin_object();
            for (k, v) in &s.args {
                w.field_u64(k, *v);
            }
            w.end_object();
        }
        w.end_object();
    }

    // Communication instants on the main track.
    let mut comms = rec.snapshot_comms();
    comms.sort_by_key(|a| (a.ts_us, a.op.index()));
    for c in comms {
        w.begin_object()
            .field_str("name", &format!("comm.{}", c.op.label()))
            .field_str("cat", "comm")
            .field_str("ph", "i")
            .field_str("s", "t")
            .field_u64("ts", c.ts_us)
            .field_u64("pid", pid)
            .field_u64("tid", Track::Rank.tid())
            .key("args")
            .begin_object()
            .field_u64("bytes", c.bytes)
            .field_u64("peers", c.peers as u64)
            .field_u64("wait_us", (c.wait_s * 1e6).round().max(0.0) as u64);
        if let Some(peer) = c.peer {
            w.field_u64("peer", peer as u64);
        }
        w.end_object().end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::recorder::CommOp;
    use crate::Component;

    fn sample_session() -> TraceSession {
        let session = TraceSession::virtual_time();
        for rank in 0..2 {
            let rec = session.recorder(rank);
            rec.record_span_at(
                Component::SpGemm,
                "summa.block",
                Track::Rank,
                0.0,
                0.5,
                &[("r", 0), ("c", 1)],
            );
            rec.record_span_at(
                Component::Align,
                "align.unit",
                Track::PoolWorker(0),
                0.5,
                0.25,
                &[],
            );
            rec.record_comm_at(CommOp::Broadcast, 1024, 1, 0.01, 0.0);
        }
        session
    }

    #[test]
    fn export_parses_and_has_one_process_per_rank() {
        let text = chrome_trace_json(&sample_session());
        let v = parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        let mut pids: Vec<u64> = events
            .iter()
            .map(|e| e.get("pid").unwrap().as_u64().unwrap())
            .collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids, vec![0, 1]);
        // Every event carries the mandatory keys.
        for e in events {
            for k in ["name", "ph", "pid", "tid"] {
                assert!(e.get(k).is_some(), "missing {k}: {e:?}");
            }
        }
    }

    #[test]
    fn worker_spans_land_on_sub_tracks() {
        let text = chrome_trace_json(&sample_session());
        let v = parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let worker_span = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("align.unit"))
            .unwrap();
        assert_eq!(worker_span.get("tid").unwrap().as_u64(), Some(2050));
        // ...and a thread_name metadata event labels that tid.
        assert!(events.iter().any(|e| {
            e.get("name").unwrap().as_str() == Some("thread_name")
                && e.get("tid").unwrap().as_u64() == Some(2050)
                && e.get("args").unwrap().get("name").unwrap().as_str() == Some("pool-worker 0")
        }));
    }

    #[test]
    fn comm_events_are_instants_with_byte_args() {
        let text = chrome_trace_json(&sample_session());
        let v = parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let comm = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("comm.broadcast"))
            .unwrap();
        assert_eq!(comm.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(
            comm.get("args").unwrap().get("bytes").unwrap().as_u64(),
            Some(1024)
        );
        assert_eq!(
            comm.get("args").unwrap().get("wait_us").unwrap().as_u64(),
            Some(10_000)
        );
    }

    #[test]
    fn virtual_export_is_deterministic() {
        let a = chrome_trace_json(&sample_session());
        let b = chrome_trace_json(&sample_session());
        assert_eq!(a, b);
    }
}
