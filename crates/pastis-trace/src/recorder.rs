//! The per-rank event recorder and the cross-rank trace session.
//!
//! Design goals, in order:
//!
//! 1. **Observation-only.** A recorder is a sink; nothing in the pipeline
//!    reads it back, so enabling telemetry cannot change any search output.
//! 2. **Cheap enough to leave on.** Spans are recorded at *batch*
//!    granularity (one span per SUMMA block, per alignment batch, per
//!    collective), never per pair or per cell, so the recording cost is a
//!    mutex push amortized over thousands of DP cells. The disabled mode is
//!    a `None` check: no clock read, no allocation, no lock.
//! 3. **Two time planes.** The threaded backend records real monotonic
//!    timestamps against the session epoch; the virtual-time simulator
//!    records *modeled* timestamps through the `*_at` entry points — same
//!    event structures, same exporters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::component::Component;

/// Communication operation kinds recorded by instrumented communicators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommOp {
    /// One-to-all broadcast (the SUMMA stage propagation).
    Broadcast,
    /// All-gather (k-mer column compaction, graph gathering).
    AllGather,
    /// Rooted gather.
    Gather,
    /// Personalized all-to-all.
    AllToAllV,
    /// All-reduce (stats aggregation).
    AllReduce,
    /// Barrier.
    Barrier,
    /// Non-blocking point-to-point send (sequence exchange).
    SendTo,
    /// Blocking point-to-point receive (the "cwait" side).
    RecvFrom,
}

impl CommOp {
    /// All operation kinds in display order.
    pub const ALL: [CommOp; 8] = [
        CommOp::Broadcast,
        CommOp::AllGather,
        CommOp::Gather,
        CommOp::AllToAllV,
        CommOp::AllReduce,
        CommOp::Barrier,
        CommOp::SendTo,
        CommOp::RecvFrom,
    ];

    /// Stable dense index in the order of [`CommOp::ALL`].
    pub fn index(self) -> usize {
        match self {
            CommOp::Broadcast => 0,
            CommOp::AllGather => 1,
            CommOp::Gather => 2,
            CommOp::AllToAllV => 3,
            CommOp::AllReduce => 4,
            CommOp::Barrier => 5,
            CommOp::SendTo => 6,
            CommOp::RecvFrom => 7,
        }
    }

    /// Short label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            CommOp::Broadcast => "broadcast",
            CommOp::AllGather => "all_gather",
            CommOp::Gather => "gather",
            CommOp::AllToAllV => "all_to_allv",
            CommOp::AllReduce => "all_reduce",
            CommOp::Barrier => "barrier",
            CommOp::SendTo => "send_to",
            CommOp::RecvFrom => "recv_from",
        }
    }
}

/// The display track a span belongs to within its rank's process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The rank's main timeline (pipeline phases, collectives).
    Rank,
    /// The overlapped SUMMA's stage-compute sub-track (`spgemm.stage`
    /// spans). Kept off the main track so phase totals (which sum
    /// [`Track::Rank`] spans only) never double-count the enclosing
    /// block span.
    SpGemmWorker(u32),
    /// The dedicated comm-issuing path of the double-buffered SUMMA: the
    /// `summa.bcast.prefetch` spans posting stage `k+1`'s broadcasts while
    /// stage `k` computes. Off [`Track::Rank`] so the prefetch time is
    /// visible without double-counting inside the enclosing block span.
    CommPath,
    /// One unified-pool worker's occupancy sub-track (slots from
    /// `pastis-pool`, which serves both engines; slots at and above the
    /// pool's thread count are the submitting threads helping out).
    PoolWorker(u32),
}

impl Track {
    /// Chrome `tid` for this track: 0 = main, 1025+w = SpGEMM stage
    /// track `w`, 2049 = the SUMMA comm-prefetch path, 2050+w = work-pool
    /// slot `w` (offsets keep the families in disjoint tid ranges for any
    /// realistic pool size; tids 1–1024 belonged to the retired
    /// per-engine alignment workers).
    pub fn tid(self) -> u64 {
        match self {
            Track::Rank => 0,
            Track::SpGemmWorker(w) => 1025 + w as u64,
            Track::CommPath => 2049,
            Track::PoolWorker(w) => 2050 + w as u64,
        }
    }

    /// Human-readable display label (also the Chrome `thread_name`).
    pub fn label(self) -> String {
        Track::tid_label(self.tid())
    }

    /// Display label for a Chrome `tid` produced by [`Track::tid`].
    pub fn tid_label(tid: u64) -> String {
        match tid {
            0 => "main".to_string(),
            1025..=2048 => format!("spgemm-worker {}", tid - 1025),
            2049 => "comm-prefetch".to_string(),
            2050.. => format!("pool-worker {}", tid - 2050),
            _ => format!("tid {tid}"),
        }
    }
}

/// One closed span: a named interval attributed to a [`Component`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Component the interval is attributed to (the trace category).
    pub component: Component,
    /// Span name, e.g. `"summa.block"`.
    pub name: &'static str,
    /// Track within the rank's process.
    pub track: Track,
    /// Start, microseconds since the session epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Structured arguments (counters attached to the span).
    pub args: Vec<(&'static str, u64)>,
}

impl SpanEvent {
    /// End timestamp (µs since epoch).
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// One communication operation: kind, traffic, peers, and wait time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEvent {
    /// Operation kind.
    pub op: CommOp,
    /// Timestamp (µs since the session epoch) of the call.
    pub ts_us: u64,
    /// Payload bytes this rank moved in the operation (caller-supplied,
    /// mirroring the `CommStats` accounting — and, on the virtual-time
    /// backend, exactly the α–β model's assumed volume).
    pub bytes: u64,
    /// Number of peer ranks involved besides this one.
    pub peers: u32,
    /// For point-to-point operations, the concrete peer rank (the
    /// destination of a send, the source of a receive) — the information
    /// the critical-path extractor needs to pair a `SendTo` with its
    /// matching `RecvFrom` into a cross-rank comm edge. `None` for
    /// collectives, where the whole team participates.
    pub peer: Option<u32>,
    /// Seconds this rank spent inside the operation (wait + transfer).
    pub wait_s: f64,
}

/// How a recorder obtains timestamps.
#[derive(Debug, Clone, Copy)]
enum Epoch {
    /// Real monotonic clock relative to the session's creation instant.
    Real(Instant),
    /// Virtual time: only the `*_at` recording entry points are meaningful;
    /// clock-reading entry points record at the largest timestamp seen.
    Virtual,
}

#[derive(Debug, Default)]
struct Events {
    spans: Vec<SpanEvent>,
    comms: Vec<CommEvent>,
    counters: BTreeMap<&'static str, f64>,
}

#[derive(Debug)]
struct RecorderInner {
    rank: usize,
    epoch: Epoch,
    events: Mutex<Events>,
}

/// A per-rank telemetry sink. Cloning is cheap (an `Arc`); the disabled
/// recorder ([`Recorder::disabled`]) makes every call a no-op.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl Recorder {
    /// The no-op recorder: every call returns immediately.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The rank this recorder belongs to (0 when disabled).
    pub fn rank(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.rank)
    }

    /// Microseconds since the session epoch (0 when disabled or virtual).
    pub fn now_us(&self) -> u64 {
        match self.inner.as_deref() {
            Some(RecorderInner {
                epoch: Epoch::Real(e),
                ..
            }) => e.elapsed().as_micros() as u64,
            _ => 0,
        }
    }

    /// Open an RAII span on the rank's main track; it closes (and is
    /// recorded) when the guard drops. Prefer the [`crate::span!`] macro.
    pub fn span(&self, component: Component, name: &'static str) -> SpanGuard {
        SpanGuard {
            rec: self.inner.clone(),
            component,
            name,
            track: Track::Rank,
            start_us: self.now_us(),
            args: Vec::new(),
        }
    }

    /// Record a closed span with explicit (virtual or replayed) timestamps.
    pub fn record_span_at(
        &self,
        component: Component,
        name: &'static str,
        track: Track,
        start_s: f64,
        dur_s: f64,
        args: &[(&'static str, u64)],
    ) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        inner.events.lock().unwrap().spans.push(SpanEvent {
            component,
            name,
            track,
            start_us: secs_to_us(start_s),
            dur_us: secs_to_us(dur_s),
            args: args.to_vec(),
        });
    }

    /// Record a communication operation that just completed, taking
    /// `wait_s` seconds (timestamped at the call's *start*).
    pub fn record_comm(&self, op: CommOp, bytes: u64, peers: usize, wait_s: f64) {
        if self.inner.is_none() {
            return;
        }
        let ts = self.now_us().saturating_sub(secs_to_us(wait_s));
        self.record_comm_at(op, bytes, peers, wait_s, ts as f64 * 1e-6);
    }

    /// Record a just-completed point-to-point operation against a concrete
    /// `peer` rank (send destination / receive source), so the analytics
    /// layer can pair both sides into a comm edge.
    pub fn record_comm_p2p(&self, op: CommOp, bytes: u64, peer: usize, wait_s: f64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let ts_us = self.now_us().saturating_sub(secs_to_us(wait_s));
        inner.events.lock().unwrap().comms.push(CommEvent {
            op,
            ts_us,
            bytes,
            peers: 1,
            peer: Some(peer as u32),
            wait_s,
        });
    }

    /// Record a communication operation with an explicit timestamp.
    pub fn record_comm_at(&self, op: CommOp, bytes: u64, peers: usize, wait_s: f64, ts_s: f64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        inner.events.lock().unwrap().comms.push(CommEvent {
            op,
            ts_us: secs_to_us(ts_s),
            bytes,
            peers: peers as u32,
            peer: None,
            wait_s,
        });
    }

    /// Accumulate `v` into the named per-rank counter.
    pub fn add_counter(&self, name: &'static str, v: f64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        *inner
            .events
            .lock()
            .unwrap()
            .counters
            .entry(name)
            .or_insert(0.0) += v;
    }

    /// Snapshot of all spans recorded so far.
    pub fn snapshot_spans(&self) -> Vec<SpanEvent> {
        self.inner
            .as_deref()
            .map_or_else(Vec::new, |i| i.events.lock().unwrap().spans.clone())
    }

    /// Snapshot of all communication events recorded so far.
    pub fn snapshot_comms(&self) -> Vec<CommEvent> {
        self.inner
            .as_deref()
            .map_or_else(Vec::new, |i| i.events.lock().unwrap().comms.clone())
    }

    /// Snapshot of the per-rank counters.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.inner
            .as_deref()
            .map_or_else(BTreeMap::new, |i| i.events.lock().unwrap().counters.clone())
    }
}

fn secs_to_us(s: f64) -> u64 {
    (s * 1e6).round().max(0.0) as u64
}

/// RAII guard returned by [`Recorder::span`]; records the span on drop.
/// Dropping a disabled guard does nothing.
#[must_use = "a span guard records its interval when dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    rec: Option<Arc<RecorderInner>>,
    component: Component,
    name: &'static str,
    track: Track,
    start_us: u64,
    args: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Move the span to the given track (builder style).
    pub fn on_track(mut self, track: Track) -> SpanGuard {
        self.track = track;
        self
    }

    /// Attach a structured argument (builder style).
    pub fn arg(mut self, name: &'static str, value: u64) -> SpanGuard {
        if self.rec.is_some() {
            self.args.push((name, value));
        }
        self
    }

    /// Attach a structured argument after creation (e.g. a count known
    /// only when the spanned work finishes).
    pub fn push_arg(&mut self, name: &'static str, value: u64) {
        if self.rec.is_some() {
            self.args.push((name, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.rec.take() else {
            return;
        };
        let end_us = match inner.epoch {
            Epoch::Real(e) => e.elapsed().as_micros() as u64,
            Epoch::Virtual => self.start_us,
        };
        inner.events.lock().unwrap().spans.push(SpanEvent {
            component: self.component,
            name: self.name,
            track: self.track,
            start_us: self.start_us,
            dur_us: end_us.saturating_sub(self.start_us),
            args: std::mem::take(&mut self.args),
        });
    }
}

/// A set of per-rank recorders sharing one epoch, so timestamps from
/// different ranks land on one timeline. Create once before spawning rank
/// threads, hand each rank `session.recorder(rank)`, export after joining.
#[derive(Debug)]
pub struct TraceSession {
    epoch: Epoch,
    recorders: Mutex<Vec<Recorder>>,
}

impl Default for TraceSession {
    fn default() -> TraceSession {
        TraceSession::new()
    }
}

impl TraceSession {
    /// A real-time session: timestamps are monotonic microseconds since
    /// this call.
    pub fn new() -> TraceSession {
        TraceSession {
            epoch: Epoch::Real(Instant::now()),
            recorders: Mutex::new(Vec::new()),
        }
    }

    /// A virtual-time session for the performance-model plane: events are
    /// recorded through the `*_at` entry points with modeled timestamps.
    pub fn virtual_time() -> TraceSession {
        TraceSession {
            epoch: Epoch::Virtual,
            recorders: Mutex::new(Vec::new()),
        }
    }

    /// Whether this session carries modeled (virtual) rather than measured
    /// timestamps.
    pub fn is_virtual(&self) -> bool {
        matches!(self.epoch, Epoch::Virtual)
    }

    /// Create (and register) the recorder for `rank`. Calling twice for
    /// the same rank returns the same underlying sink.
    pub fn recorder(&self, rank: usize) -> Recorder {
        let mut regs = self.recorders.lock().unwrap();
        if let Some(r) = regs.iter().find(|r| r.rank() == rank) {
            return r.clone();
        }
        let rec = Recorder {
            inner: Some(Arc::new(RecorderInner {
                rank,
                epoch: self.epoch,
                events: Mutex::new(Events::default()),
            })),
        };
        regs.push(rec.clone());
        rec
    }

    /// All registered recorders, sorted by rank.
    pub fn recorders(&self) -> Vec<Recorder> {
        let mut v = self.recorders.lock().unwrap().clone();
        v.sort_by_key(Recorder::rank);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let mut g = span!(rec, Component::Align, "noop", { x: 1u64 });
            g.push_arg("y", 2);
        }
        rec.record_comm(CommOp::Barrier, 0, 3, 0.1);
        rec.add_counter("pairs", 5.0);
        assert!(rec.snapshot_spans().is_empty());
        assert!(rec.snapshot_comms().is_empty());
        assert!(rec.counters().is_empty());
    }

    #[test]
    fn span_guard_records_on_drop_with_args() {
        let session = TraceSession::new();
        let rec = session.recorder(2);
        assert_eq!(rec.rank(), 2);
        let round = 4u64;
        {
            let mut g = span!(rec, Component::SpGemm, "summa.bcast_a", { round, bytes: 128u64 });
            g.push_arg("late", 7);
        }
        let spans = rec.snapshot_spans();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.name, "summa.bcast_a");
        assert_eq!(s.component, Component::SpGemm);
        assert_eq!(s.track, Track::Rank);
        assert_eq!(s.args, vec![("round", 4), ("bytes", 128), ("late", 7)]);
        assert!(s.end_us() >= s.start_us);
    }

    #[test]
    fn nested_spans_are_contained() {
        let session = TraceSession::new();
        let rec = session.recorder(0);
        {
            let _outer = rec.span(Component::SpGemm, "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = rec.span(Component::SparseOther, "inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let spans = rec.snapshot_spans();
        assert_eq!(spans.len(), 2);
        // Drop order: inner first.
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "inner");
        assert!(outer.start_us <= inner.start_us);
        assert!(inner.end_us() <= outer.end_us());
    }

    #[test]
    fn virtual_session_records_explicit_times() {
        let session = TraceSession::virtual_time();
        assert!(session.is_virtual());
        let rec = session.recorder(1);
        rec.record_span_at(
            Component::Io,
            "io.read",
            Track::Rank,
            0.5,
            1.25,
            &[("bytes", 10)],
        );
        rec.record_comm_at(CommOp::Broadcast, 4096, 3, 0.01, 2.0);
        let spans = rec.snapshot_spans();
        assert_eq!(spans[0].start_us, 500_000);
        assert_eq!(spans[0].dur_us, 1_250_000);
        let comms = rec.snapshot_comms();
        assert_eq!(comms[0].bytes, 4096);
        assert_eq!(comms[0].ts_us, 2_000_000);
        assert_eq!(comms[0].peers, 3);
    }

    #[test]
    fn session_deduplicates_rank_recorders() {
        let session = TraceSession::new();
        let a = session.recorder(3);
        let b = session.recorder(3);
        a.add_counter("x", 1.0);
        b.add_counter("x", 1.0);
        assert_eq!(session.recorders().len(), 1);
        assert_eq!(session.recorders()[0].counters()["x"], 2.0);
    }

    #[test]
    fn recorders_sorted_by_rank() {
        let session = TraceSession::new();
        for r in [3usize, 0, 2, 1] {
            session.recorder(r);
        }
        let ranks: Vec<usize> = session.recorders().iter().map(Recorder::rank).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn counters_accumulate() {
        let session = TraceSession::new();
        let rec = session.recorder(0);
        rec.add_counter("aligned_pairs", 10.0);
        rec.add_counter("aligned_pairs", 5.0);
        assert_eq!(rec.counters()["aligned_pairs"], 15.0);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let session = TraceSession::new();
        let rec = session.recorder(0);
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    let _g = rec
                        .span(Component::Align, "align.unit")
                        .on_track(Track::PoolWorker(w));
                });
            }
        });
        assert_eq!(rec.snapshot_spans().len(), 4);
    }
}
