//! End-to-end contract of the run-telemetry layer (referenced from
//! `pastis_core::pipeline`): tracing is *observation-only* — the similarity
//! graph and the work counters are bit-identical with telemetry on or off,
//! at any parallelism — and a traced multi-rank session is *complete*: every
//! rank contributes every pipeline phase, the alignment pool emits worker
//! occupancy sub-tracks, the instrumented communicator records traffic, and
//! both exporters round-trip the session.

use std::sync::Arc;

use pastis::comm::{run_threaded, Communicator, ProcessGrid, TracedComm};
use pastis::core::pipeline::{run_search_serial, run_search_serial_traced, run_search_traced};
use pastis::core::SearchParams;
use pastis::seqio::{SyntheticConfig, SyntheticDataset};
use pastis::trace::{chrome_trace_json, MetricsReport, Recorder, TraceSession, Track};

fn dataset() -> pastis::seqio::SeqStore {
    SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 60,
        mean_len: 70.0,
        singleton_fraction: 0.35,
        divergence: 0.10,
        seed: 321,
        ..SyntheticConfig::small(60, 321)
    })
    .store
}

fn fingerprint(graph: &pastis::core::SimilarityGraph) -> Vec<(u32, u32, i32, u32)> {
    graph
        .edges()
        .iter()
        .map(|e| (e.i, e.j, e.score, e.common_kmers))
        .collect()
}

#[test]
fn telemetry_is_observation_only_at_any_align_thread_count() {
    // The determinism guarantee (tests/determinism.rs) extends to the
    // telemetry switch: turning the recorder on must not perturb the graph
    // or the work accounting, whether each rank aligns serially or on a
    // worker pool.
    let store = dataset();
    for threads in [1usize, 2, 4] {
        let params = SearchParams::test_defaults().with_align_threads(threads);
        let off = run_search_serial(&store, &params).unwrap();
        let session = TraceSession::new();
        let on = run_search_serial_traced(&store, &params, &session.recorder(0)).unwrap();
        assert!(off.graph.n_edges() > 5, "run found almost nothing");
        assert_eq!(
            fingerprint(&on.graph),
            fingerprint(&off.graph),
            "align_threads={threads}: telemetry changed the graph"
        );
        assert_eq!(on.stats.aligned_pairs, off.stats.aligned_pairs);
        assert_eq!(on.stats.cells, off.stats.cells);
        assert_eq!(on.stats.similar_pairs, off.stats.similar_pairs);
        // ...and the traced run actually recorded something.
        assert!(!session.recorder(0).snapshot_spans().is_empty());
    }
}

#[test]
fn four_rank_traced_session_is_complete() {
    let p = 4usize;
    let store = Arc::new(dataset());
    let params = Arc::new(SearchParams::test_defaults().with_align_threads(2));
    let session = Arc::new(TraceSession::new());
    let want = {
        let res = run_search_serial(&store, &params).unwrap();
        fingerprint(&res.graph)
    };

    let sess = Arc::clone(&session);
    let outs = run_threaded(p, move |c| {
        let rec = sess.recorder(c.rank());
        let comm = TracedComm::new(c.split(0, c.rank()), rec.clone());
        let grid = ProcessGrid::square(comm);
        let res = run_search_traced(&grid, &store, &params, &rec).unwrap();
        fingerprint(&res.gather_graph(grid.world()))
    });
    for fp in outs {
        assert_eq!(fp, want, "traced 4-rank run changed the graph");
    }

    // Every rank's timeline carries every pipeline phase, plus at least one
    // alignment unit span on a work-pool sub-track.
    for rank in 0..p {
        let rec = session.recorder(rank);
        let spans = rec.snapshot_spans();
        for phase in [
            "kmer_matrix",
            "summa.block",
            "align.batch",
            "output.assembly",
        ] {
            assert!(
                spans.iter().any(|s| s.name == phase),
                "rank {rank} missing {phase} span"
            );
        }
        assert!(
            spans
                .iter()
                .any(|s| s.name == "align.unit" && matches!(s.track, Track::PoolWorker(_))),
            "rank {rank} has no align.unit span on a pool-worker sub-track"
        );
        // The instrumented communicator saw traffic on this rank.
        let comms = rec.snapshot_comms();
        assert!(!comms.is_empty(), "rank {rank} recorded no comm events");
        assert!(
            comms.iter().map(|e| e.bytes).sum::<u64>() > 0,
            "rank {rank} recorded zero comm bytes"
        );
    }

    // Both exporters round-trip the live session.
    let trace = chrome_trace_json(&session);
    let parsed = pastis::trace::json::parse(&trace).expect("chrome trace is valid JSON");
    assert!(parsed.get("traceEvents").is_some());
    let metrics = MetricsReport::from_session(&session);
    let parsed = MetricsReport::parse_json(&metrics.to_json()).expect("metrics round-trip");
    assert_eq!(parsed.nranks, p);
    assert!(parsed.phase_names.iter().any(|s| s == "align"));
    assert!(parsed.phase_names.iter().any(|s| s == "spgemm"));
}

#[test]
fn overlapped_run_telemetry_proves_interleaving() {
    // The overlap tentpole's observable contract: with `--overlap` and the
    // unified pool on, the timeline must show (a) a SUMMA broadcast
    // prefetch running *inside* a stage's local SpGEMM compute span,
    // (b) a pre-blocked sparse block running concurrently with the
    // previous block's alignment, and (c) the pool's steal counter
    // published on every rank — while the graph stays bit-identical to
    // the serial reference.
    let p = 4usize;
    let store = Arc::new(dataset());
    let params = Arc::new(
        SearchParams::test_defaults()
            .with_blocking(2, 2)
            .with_pre_blocking(true)
            .with_threads(2)
            .with_overlap(true),
    );
    let session = Arc::new(TraceSession::new());
    let want = {
        let serial = SearchParams::test_defaults().with_blocking(2, 2);
        fingerprint(&run_search_serial(&store, &serial).unwrap().graph)
    };

    let sess = Arc::clone(&session);
    let outs = run_threaded(p, move |c| {
        let rec = sess.recorder(c.rank());
        let comm = TracedComm::new(c.split(0, c.rank()), rec.clone());
        let grid = ProcessGrid::square(comm);
        let res = run_search_traced(&grid, &store, &params, &rec).unwrap();
        fingerprint(&res.gather_graph(grid.world()))
    });
    for fp in outs {
        assert_eq!(fp, want, "overlapped pooled run changed the graph");
    }

    // (a) Broadcast prefetch inside SpGEMM compute. The stage span opens
    // on the issuing thread before the compute thread is spawned, so
    // `prefetch.start >= stage.start` is guaranteed; a prefetch that also
    // starts before the stage ends was truly concurrent with compute.
    let mut bcast_overlaps = 0usize;
    // (b) Pre-blocking: block k+1's SUMMA runs while block k aligns.
    let mut block_overlaps = 0usize;
    for rank in 0..p {
        let rec = session.recorder(rank);
        let spans = rec.snapshot_spans();
        let stages: Vec<_> = spans.iter().filter(|s| s.name == "spgemm.stage").collect();
        let prefetches: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "summa.bcast.prefetch")
            .collect();
        assert!(
            !stages.is_empty() && !prefetches.is_empty(),
            "rank {rank}: overlapped run emitted no stage/prefetch spans"
        );
        bcast_overlaps += prefetches
            .iter()
            .filter(|f| {
                stages
                    .iter()
                    .any(|s| f.start_us >= s.start_us && f.start_us < s.end_us())
            })
            .count();
        let aligns: Vec<_> = spans.iter().filter(|s| s.name == "align.batch").collect();
        let sparse: Vec<_> = spans.iter().filter(|s| s.name == "summa.block").collect();
        block_overlaps += sparse
            .iter()
            .filter(|b| {
                aligns
                    .iter()
                    .any(|a| b.start_us < a.end_us() && a.start_us < b.end_us())
            })
            .count();
        // The pooled kernels ran on shared pool worker tracks.
        assert!(
            spans
                .iter()
                .any(|s| matches!(s.track, Track::PoolWorker(_))),
            "rank {rank}: no span landed on a unified-pool worker track"
        );
        // (c) The steal counter is published (stealing itself depends on
        // timing; the counter existing with a sane value is the contract).
        let steals = rec.counters()["pool.steals"];
        assert!(
            steals.is_finite() && steals >= 0.0,
            "rank {rank}: bad pool.steals counter {steals}"
        );
    }
    assert!(
        bcast_overlaps > 0,
        "no SUMMA broadcast prefetch overlapped a stage's SpGEMM compute"
    );
    assert!(
        block_overlaps > 0,
        "no pre-blocked sparse block overlapped the previous block's alignment"
    );
}

#[test]
fn disabled_recorder_pipeline_records_nothing() {
    // The `--no-telemetry` path: a disabled recorder flows through the whole
    // pipeline (including the align pool and the traced communicator) and
    // stays empty, while still producing the right answer.
    let store = Arc::new(dataset());
    let params = Arc::new(SearchParams::test_defaults().with_align_threads(2));
    let want = fingerprint(&run_search_serial(&store, &params).unwrap().graph);
    let outs = run_threaded(4, move |c| {
        let rec = Recorder::disabled();
        let comm = TracedComm::new(c.split(0, c.rank()), rec.clone());
        let grid = ProcessGrid::square(comm);
        let res = run_search_traced(&grid, &store, &params, &rec).unwrap();
        assert!(rec.snapshot_spans().is_empty());
        assert!(rec.snapshot_comms().is_empty());
        assert!(rec.counters().is_empty());
        fingerprint(&res.gather_graph(grid.world()))
    });
    for fp in outs {
        assert_eq!(fp, want);
    }
}
