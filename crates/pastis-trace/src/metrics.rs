//! Flat, schema-versioned metrics derived from a [`TraceSession`].
//!
//! Where the Chrome export preserves the raw timeline, [`MetricsReport`]
//! condenses it into per-rank aggregates: component seconds (Table IV's
//! buckets), per-collective traffic totals (the α–β model's inputs), and
//! the named pipeline counters. `pastis-bench` table binaries and the CLI
//! `--metrics-json` flag consume this form.
//!
//! Component seconds are summed over **main-track spans only**
//! ([`Track::Rank`]): alignment-worker sub-track spans overlap their
//! enclosing `align.batch` span by construction and exist for occupancy
//! inspection, not accounting. Nested main-track spans are rare and
//! deliberate (none are emitted by the pipeline today), so no
//! double-counting correction is applied beyond the track filter.

use std::collections::BTreeMap;

use crate::component::{Component, ImbalanceStats};
use crate::hist::{span_histograms, DurationHistogram};
use crate::json::{JsonValue, JsonWriter};
use crate::recorder::{CommOp, Recorder, Track};
use crate::TraceSession;

/// Version of the metrics-JSON schema; bump on breaking shape changes.
///
/// * v1 — component seconds, per-op comm totals, counters.
/// * v2 — adds per-span-name duration histograms (`span_hist`) and
///   per-worker-track busy seconds (`worker_seconds`). v1 documents still
///   parse (the new sections read back empty).
pub const METRICS_SCHEMA_VERSION: u32 = 2;

/// Per-operation communication totals for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommTotals {
    /// Number of operations of this kind.
    pub count: u64,
    /// Total payload bytes this rank moved.
    pub bytes: u64,
    /// Total seconds spent inside the operation.
    pub wait_s: f64,
}

/// One rank's aggregated telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTelemetry {
    /// The rank id.
    pub rank: usize,
    /// Seconds per [`Component`], indexed by [`Component::index`], summed
    /// over main-track spans.
    pub component_s: [f64; Component::ALL.len()],
    /// Per-collective traffic totals, indexed by [`CommOp::index`].
    pub comm: [CommTotals; CommOp::ALL.len()],
    /// Named pipeline counters (aligned pairs, cells, ...). Owned keys so
    /// a report parsed back from JSON compares equal to a live one.
    pub counters: BTreeMap<String, f64>,
    /// Duration histogram per span name, over **all** tracks (schema v2).
    pub span_hist: BTreeMap<String, DurationHistogram>,
    /// Busy seconds per off-main track (worker occupancy), keyed by the
    /// track's display label (schema v2).
    pub worker_seconds: BTreeMap<String, f64>,
    /// End of the last event on this rank, µs since the session epoch.
    pub span_end_us: u64,
}

impl RankTelemetry {
    /// Seconds attributed to `c` on this rank.
    pub fn component_secs(&self, c: Component) -> f64 {
        self.component_s[c.index()]
    }

    /// Traffic totals for `op` on this rank.
    pub fn comm_totals(&self, op: CommOp) -> CommTotals {
        self.comm[op.index()]
    }

    /// A named counter (0.0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn from_recorder(rec: &Recorder) -> RankTelemetry {
        let mut t = RankTelemetry {
            rank: rec.rank(),
            ..RankTelemetry::default()
        };
        for s in rec.snapshot_spans() {
            if s.track == Track::Rank {
                t.component_s[s.component.index()] += s.dur_us as f64 * 1e-6;
            } else {
                *t.worker_seconds.entry(s.track.label()).or_insert(0.0) += s.dur_us as f64 * 1e-6;
            }
            t.span_end_us = t.span_end_us.max(s.end_us());
        }
        for c in rec.snapshot_comms() {
            let slot = &mut t.comm[c.op.index()];
            slot.count += 1;
            slot.bytes += c.bytes;
            slot.wait_s += c.wait_s;
        }
        t.counters = rec
            .counters()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        t.span_hist = span_histograms(rec);
        t
    }
}

/// The full cross-rank metrics report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// One entry per rank, sorted by rank.
    pub ranks: Vec<RankTelemetry>,
    /// Whether the source session carried modeled (virtual) timestamps.
    pub virtual_time: bool,
}

impl MetricsReport {
    /// Aggregate everything recorded in `session` so far.
    pub fn from_session(session: &TraceSession) -> MetricsReport {
        MetricsReport {
            ranks: session
                .recorders()
                .iter()
                .map(RankTelemetry::from_recorder)
                .collect(),
            virtual_time: session.is_virtual(),
        }
    }

    /// Number of ranks in the report.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Cross-rank imbalance stats for a component's seconds. `None` when
    /// the report is empty.
    pub fn component_imbalance(&self, c: Component) -> Option<ImbalanceStats> {
        if self.ranks.is_empty() {
            return None;
        }
        let values: Vec<f64> = self.ranks.iter().map(|r| r.component_secs(c)).collect();
        Some(ImbalanceStats::from_values(&values))
    }

    /// Cross-rank imbalance stats for a named counter. `None` when the
    /// report is empty.
    pub fn counter_imbalance(&self, name: &str) -> Option<ImbalanceStats> {
        if self.ranks.is_empty() {
            return None;
        }
        let values: Vec<f64> = self.ranks.iter().map(|r| r.counter(name)).collect();
        Some(ImbalanceStats::from_values(&values))
    }

    /// Total payload bytes moved in `op` summed over all ranks.
    pub fn total_bytes(&self, op: CommOp) -> u64 {
        self.ranks.iter().map(|r| r.comm_totals(op).bytes).sum()
    }

    /// Total seconds spent in `op` summed over all ranks.
    pub fn total_wait_s(&self, op: CommOp) -> f64 {
        self.ranks.iter().map(|r| r.comm_totals(op).wait_s).sum()
    }

    /// Serialize to the schema-versioned metrics JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("schema_version", METRICS_SCHEMA_VERSION as u64)
            .key("virtual_time")
            .bool(self.virtual_time)
            .field_u64("nranks", self.ranks.len() as u64)
            .key("ranks")
            .begin_array();
        for r in &self.ranks {
            w.begin_object().field_u64("rank", r.rank as u64);
            w.key("component_seconds").begin_object();
            for c in Component::ALL {
                w.field_f64(c.label(), r.component_secs(c));
            }
            w.end_object();
            w.key("comm").begin_object();
            for op in CommOp::ALL {
                let t = r.comm_totals(op);
                w.key(op.label())
                    .begin_object()
                    .field_u64("count", t.count)
                    .field_u64("bytes", t.bytes)
                    .field_f64("wait_seconds", t.wait_s)
                    .end_object();
            }
            w.end_object();
            w.key("counters").begin_object();
            for (k, v) in &r.counters {
                w.field_f64(k, *v);
            }
            w.end_object();
            w.key("span_hist").begin_object();
            for (name, h) in &r.span_hist {
                w.key(name);
                h.write_json(&mut w);
            }
            w.end_object();
            w.key("worker_seconds").begin_object();
            for (label, secs) in &r.worker_seconds {
                w.field_f64(label, *secs);
            }
            w.end_object();
            w.field_u64("span_end_us", r.span_end_us);
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Reconstruct a full report from its [`MetricsReport::to_json`] form.
    /// Accepts schema v1 (the new sections read back empty) and v2; on v2
    /// every histogram's invariants are validated. The round trip is exact:
    /// `from_json(to_json(r)) == r` up to float formatting.
    pub fn from_json(text: &str) -> Result<MetricsReport, String> {
        let v = crate::json::parse(text)?;
        let schema = v
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema_version")?;
        if schema == 0 || schema > METRICS_SCHEMA_VERSION as u64 {
            return Err(format!("unsupported schema_version {schema}"));
        }
        let ranks = v
            .get("ranks")
            .and_then(JsonValue::as_array)
            .ok_or("missing ranks array")?;
        let mut report = MetricsReport {
            ranks: Vec::with_capacity(ranks.len()),
            virtual_time: matches!(v.get("virtual_time"), Some(JsonValue::Bool(true))),
        };
        for r in ranks {
            let mut t = RankTelemetry {
                rank: r
                    .get("rank")
                    .and_then(JsonValue::as_u64)
                    .ok_or("rank entry missing rank id")? as usize,
                ..RankTelemetry::default()
            };
            let comp = r
                .get("component_seconds")
                .ok_or("rank entry missing component_seconds")?;
            for c in Component::ALL {
                t.component_s[c.index()] = comp
                    .get(c.label())
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("missing component_seconds.{}", c.label()))?;
            }
            let comm = r.get("comm").ok_or("rank entry missing comm")?;
            for op in CommOp::ALL {
                let o = comm
                    .get(op.label())
                    .ok_or_else(|| format!("missing comm.{}", op.label()))?;
                t.comm[op.index()] = CommTotals {
                    count: o.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
                    bytes: o.get("bytes").and_then(JsonValue::as_u64).unwrap_or(0),
                    wait_s: o
                        .get("wait_seconds")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                };
            }
            if let Some(JsonValue::Object(m)) = r.get("counters") {
                for (k, val) in m {
                    t.counters.insert(
                        k.clone(),
                        val.as_f64()
                            .ok_or_else(|| format!("counter {k} not a number"))?,
                    );
                }
            } else {
                return Err("rank entry missing counters".into());
            }
            match r.get("span_hist") {
                Some(JsonValue::Object(m)) => {
                    for (name, hv) in m {
                        let h = DurationHistogram::from_json(hv)
                            .map_err(|e| format!("span_hist.{name}: {e}"))?;
                        t.span_hist.insert(name.clone(), h);
                    }
                }
                Some(_) => return Err("span_hist is not an object".into()),
                None if schema >= 2 => return Err("schema v2 rank missing span_hist".into()),
                None => {}
            }
            match r.get("worker_seconds") {
                Some(JsonValue::Object(m)) => {
                    for (label, sv) in m {
                        t.worker_seconds.insert(
                            label.clone(),
                            sv.as_f64()
                                .ok_or_else(|| format!("worker_seconds.{label} not a number"))?,
                        );
                    }
                }
                Some(_) => return Err("worker_seconds is not an object".into()),
                None if schema >= 2 => return Err("schema v2 rank missing worker_seconds".into()),
                None => {}
            }
            t.span_end_us = r
                .get("span_end_us")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            report.ranks.push(t);
        }
        Ok(report)
    }

    /// Validate a metrics JSON document produced by
    /// [`MetricsReport::to_json`]: checks the schema version (v1 and v2
    /// both parse), the per-rank shape, and — on v2 — every histogram's
    /// invariants (bucket indices monotone and summing to the declared
    /// count, percentiles `p50 ≤ p95 ≤ p99 ≤ max`). Returns a shallow
    /// summary for the CLI `trace-check` subcommand and CI.
    pub fn parse_json(text: &str) -> Result<ParsedMetrics, String> {
        let v = crate::json::parse(text)?;
        let schema = v
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema_version")? as u32;
        let report = MetricsReport::from_json(text)?;
        let declared = v.get("nranks").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
        if declared != report.ranks.len() {
            return Err(format!(
                "nranks declares {declared} ranks, document has {}",
                report.ranks.len()
            ));
        }
        let mut out = ParsedMetrics {
            schema,
            nranks: declared,
            rank_ids: Vec::new(),
            phase_names: Vec::new(),
            hist_names: Vec::new(),
        };
        for r in &report.ranks {
            out.rank_ids.push(r.rank);
            for c in Component::ALL {
                if r.component_secs(c) > 0.0 && !out.phase_names.iter().any(|p| p == c.label()) {
                    out.phase_names.push(c.label().to_owned());
                }
            }
            for name in r.span_hist.keys() {
                if !out.hist_names.contains(name) {
                    out.hist_names.push(name.clone());
                }
            }
        }
        out.hist_names.sort();
        Ok(out)
    }
}

/// Shallow, validation-oriented view of a parsed metrics document (used by
/// the CLI `trace-check` subcommand and CI).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedMetrics {
    /// Schema version the document declared (1 or 2).
    pub schema: u32,
    /// Declared rank count.
    pub nranks: usize,
    /// Rank ids present in the `ranks` array.
    pub rank_ids: Vec<usize>,
    /// Component labels with nonzero recorded seconds on at least one
    /// rank — the pipeline phases the document covers.
    pub phase_names: Vec<String>,
    /// Span names carrying a duration histogram (schema v2; sorted).
    pub hist_names: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_session() -> TraceSession {
        let session = TraceSession::virtual_time();
        for rank in 0..3usize {
            let rec = session.recorder(rank);
            rec.record_span_at(
                Component::SpGemm,
                "summa.block",
                Track::Rank,
                0.0,
                1.0 + rank as f64,
                &[],
            );
            rec.record_span_at(
                Component::Align,
                "align.unit",
                Track::PoolWorker(0),
                0.0,
                100.0, // must NOT count toward component seconds
                &[],
            );
            rec.record_comm_at(CommOp::Broadcast, 100 * (rank as u64 + 1), 2, 0.5, 0.0);
            rec.record_comm_at(CommOp::Broadcast, 50, 2, 0.25, 1.0);
            rec.add_counter("aligned_pairs", 10.0 * (rank as f64 + 1.0));
        }
        session
    }

    #[test]
    fn aggregates_main_track_only() {
        let report = MetricsReport::from_session(&sample_session());
        assert_eq!(report.nranks(), 3);
        assert!(report.virtual_time);
        let r1 = &report.ranks[1];
        assert!((r1.component_secs(Component::SpGemm) - 2.0).abs() < 1e-9);
        // Worker sub-track span excluded from accounting.
        assert_eq!(r1.component_secs(Component::Align), 0.0);
        let bt = r1.comm_totals(CommOp::Broadcast);
        assert_eq!(bt.count, 2);
        assert_eq!(bt.bytes, 250);
        assert!((bt.wait_s - 0.75).abs() < 1e-12);
        assert_eq!(r1.counter("aligned_pairs"), 20.0);
        assert_eq!(report.total_bytes(CommOp::Broadcast), 100 + 200 + 300 + 150);
    }

    #[test]
    fn imbalance_views() {
        let report = MetricsReport::from_session(&sample_session());
        let imb = report.component_imbalance(Component::SpGemm).unwrap();
        assert_eq!(imb.min, 1.0);
        assert_eq!(imb.max, 3.0);
        let pairs = report.counter_imbalance("aligned_pairs").unwrap();
        assert_eq!(pairs.avg, 20.0);
        assert!((pairs.imbalance_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_validates() {
        let report = MetricsReport::from_session(&sample_session());
        let text = report.to_json();
        let parsed = MetricsReport::parse_json(&text).unwrap();
        assert_eq!(parsed.nranks, 3);
        assert_eq!(parsed.rank_ids, vec![0, 1, 2]);
        // Spot-check raw JSON fields through the generic parser too.
        let v = crate::json::parse(&text).unwrap();
        let rank0 = &v.get("ranks").unwrap().as_array().unwrap()[0];
        assert_eq!(
            rank0
                .get("comm")
                .unwrap()
                .get("broadcast")
                .unwrap()
                .get("bytes")
                .unwrap()
                .as_u64(),
            Some(150)
        );
        assert_eq!(
            rank0
                .get("counters")
                .unwrap()
                .get("aligned_pairs")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
    }

    #[test]
    fn schema_version_is_enforced() {
        let bad = r#"{"schema_version":999,"nranks":0,"ranks":[]}"#;
        assert!(MetricsReport::parse_json(bad).is_err());
    }

    #[test]
    fn full_report_round_trips_through_json() {
        let report = MetricsReport::from_session(&sample_session());
        let back = MetricsReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn v2_documents_carry_histograms_and_worker_seconds() {
        let report = MetricsReport::from_session(&sample_session());
        let parsed = MetricsReport::parse_json(&report.to_json()).unwrap();
        assert_eq!(parsed.schema, METRICS_SCHEMA_VERSION);
        assert_eq!(
            parsed.hist_names,
            vec!["align.unit".to_string(), "summa.block".to_string()]
        );
        let back = MetricsReport::from_json(&report.to_json()).unwrap();
        let r1 = &back.ranks[1];
        assert_eq!(r1.span_hist["summa.block"].count(), 1);
        assert_eq!(r1.span_hist["summa.block"].max_us(), 2_000_000);
        // The worker sub-track's busy seconds are reported per label.
        assert!((r1.worker_seconds["pool-worker 0"] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn v1_documents_still_parse() {
        // A v1 document has no span_hist / worker_seconds sections.
        let v1 = r#"{"schema_version":1,"virtual_time":true,"nranks":1,"ranks":[{"rank":0,
            "component_seconds":{"align":1.0,"spgemm":2.0,"sparse-other":0.0,"io":0.0,
            "cwait":0.5,"other":0.0},
            "comm":{"broadcast":{"count":1,"bytes":10,"wait_seconds":0.1},
            "all_gather":{"count":0,"bytes":0,"wait_seconds":0.0},
            "gather":{"count":0,"bytes":0,"wait_seconds":0.0},
            "all_to_allv":{"count":0,"bytes":0,"wait_seconds":0.0},
            "all_reduce":{"count":0,"bytes":0,"wait_seconds":0.0},
            "barrier":{"count":0,"bytes":0,"wait_seconds":0.0},
            "send_to":{"count":0,"bytes":0,"wait_seconds":0.0},
            "recv_from":{"count":0,"bytes":0,"wait_seconds":0.0}},
            "counters":{"aligned_pairs":7.0},"span_end_us":3000000}]}"#;
        let parsed = MetricsReport::parse_json(v1).unwrap();
        assert_eq!(parsed.schema, 1);
        assert_eq!(parsed.nranks, 1);
        assert!(parsed.hist_names.is_empty());
        let report = MetricsReport::from_json(v1).unwrap();
        assert_eq!(report.ranks[0].counter("aligned_pairs"), 7.0);
        assert!(report.ranks[0].span_hist.is_empty());
    }

    #[test]
    fn broken_histogram_invariants_fail_validation() {
        let report = MetricsReport::from_session(&sample_session());
        let text = report.to_json();
        // Corrupt one histogram's declared count.
        let bad = text.replacen("\"count\":1,", "\"count\":4,", 1);
        assert_ne!(bad, text);
        assert!(MetricsReport::parse_json(&bad).is_err());
    }

    #[test]
    fn empty_report_is_sane() {
        let report = MetricsReport::from_session(&TraceSession::new());
        assert_eq!(report.nranks(), 0);
        assert!(report.component_imbalance(Component::Align).is_none());
        let parsed = MetricsReport::parse_json(&report.to_json()).unwrap();
        assert_eq!(parsed.nranks, 0);
    }
}
