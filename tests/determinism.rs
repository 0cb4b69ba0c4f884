//! The determinism claim (Section IV of the paper): *"the PASTIS algorithm
//! gives identical results irrespective of the amount of parallelism
//! utilized and the blocking size chosen"* — the key architectural contrast
//! with DIAMOND ("results will not be completely identical for different
//! values of the block size") and MMseqs2 (sensitivity changes with
//! parallelism).
//!
//! These tests sweep process counts, blocking factors, load-balancing
//! schemes and pre-blocking over a real synthetic dataset and require the
//! similarity graph to be bit-identical.

use pastis::comm::{run_threaded, Communicator, ProcessGrid};
use pastis::core::pipeline::{run_search_serial, run_search_serial_traced};
use pastis::core::{run_search, LoadBalance, SearchParams};
use pastis::seqio::{SyntheticConfig, SyntheticDataset};
use pastis::sparse::SpGemmKind;
use pastis::trace::{names, TraceSession, Track};

fn dataset() -> pastis::seqio::SeqStore {
    SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 60,
        mean_len: 70.0,
        singleton_fraction: 0.35,
        divergence: 0.10,
        seed: 2024,
        ..SyntheticConfig::small(60, 2024)
    })
    .store
}

fn params() -> SearchParams {
    SearchParams::test_defaults()
}

type EdgeFingerprint = Vec<(u32, u32, i32, u32)>;

fn fingerprint(graph: &pastis::core::SimilarityGraph) -> EdgeFingerprint {
    graph
        .edges()
        .iter()
        .map(|e| (e.i, e.j, e.score, e.common_kmers))
        .collect()
}

fn reference_fingerprint() -> EdgeFingerprint {
    let res = run_search_serial(&dataset(), &params()).unwrap();
    assert!(
        res.graph.n_edges() > 5,
        "reference run found almost nothing"
    );
    fingerprint(&res.graph)
}

#[test]
fn identical_results_across_process_counts() {
    let want = reference_fingerprint();
    for p in [1usize, 4, 9, 16] {
        let store = dataset();
        let prm = params();
        let out = run_threaded(p, move |c| {
            let grid = ProcessGrid::square(c.split(0, c.rank()));
            let res = run_search(&grid, &store, &prm).unwrap();
            fingerprint(&res.gather_graph(grid.world()))
        });
        for fp in out {
            assert_eq!(fp, want, "p={p} changed results");
        }
    }
}

#[test]
fn identical_results_across_blocking_factors() {
    let want = reference_fingerprint();
    for (br, bc) in [(1, 1), (2, 2), (3, 4), (5, 5), (8, 8), (1, 7)] {
        let res = run_search_serial(&dataset(), &params().with_blocking(br, bc)).unwrap();
        assert_eq!(fingerprint(&res.graph), want, "blocking {br}x{bc}");
    }
}

#[test]
fn identical_results_across_schemes_and_preblocking() {
    let want = reference_fingerprint();
    for lb in [LoadBalance::Triangular, LoadBalance::IndexBased] {
        for pb in [false, true] {
            let prm = params()
                .with_blocking(4, 4)
                .with_load_balance(lb)
                .with_pre_blocking(pb);
            let res = run_search_serial(&dataset(), &prm).unwrap();
            assert_eq!(fingerprint(&res.graph), want, "{lb:?} pre_blocking={pb}");
        }
    }
}

#[test]
fn identical_results_across_spgemm_kernels_and_thread_counts() {
    // The local SpGEMM kernels (hash/heap/parallel) share one
    // combine-order contract, so the kernel-selection policy and the
    // intra-rank SpGEMM pool join the determinism claim too.
    let want = reference_fingerprint();
    for kind in [
        SpGemmKind::Auto,
        SpGemmKind::Hash,
        SpGemmKind::Heap,
        SpGemmKind::Parallel,
    ] {
        for threads in [1usize, 4] {
            let prm = params()
                .with_blocking(2, 2)
                .with_spgemm(kind)
                .with_spgemm_threads(threads);
            let res = run_search_serial(&dataset(), &prm).unwrap();
            assert_eq!(
                fingerprint(&res.graph),
                want,
                "spgemm={kind} threads={threads}"
            );
        }
    }
}

#[test]
fn identical_results_with_everything_varied_at_once() {
    let want = reference_fingerprint();
    let out = run_threaded(9, move |c| {
        let grid = ProcessGrid::square(c.split(0, c.rank()));
        let prm = params()
            .with_blocking(3, 5)
            .with_load_balance(LoadBalance::Triangular)
            .with_pre_blocking(true)
            .with_align_threads(4)
            .with_spgemm(SpGemmKind::Parallel)
            .with_spgemm_threads(3);
        let res = run_search(&grid, &dataset(), &prm).unwrap();
        fingerprint(&res.gather_graph(grid.world()))
    });
    for fp in out {
        assert_eq!(fp, want);
    }
}

#[test]
fn identical_results_with_overlap_and_unified_pool() {
    // The overlap tentpole joins the determinism claim: double-buffered
    // SUMMA broadcasts plus the unified work-stealing pool leave the graph
    // bit-identical for any pool size, either SpGEMM kernel, and with or
    // without pre-blocking — on a real 4-rank grid.
    let want = reference_fingerprint();
    for threads in [1usize, 2, 4] {
        for kind in [SpGemmKind::Hash, SpGemmKind::Parallel] {
            for pb in [false, true] {
                let out = run_threaded(4, move |c| {
                    let grid = ProcessGrid::square(c.split(0, c.rank()));
                    let prm = params()
                        .with_blocking(2, 2)
                        .with_pre_blocking(pb)
                        .with_spgemm(kind)
                        .with_threads(threads)
                        .with_overlap(true);
                    let res = run_search(&grid, &dataset(), &prm).unwrap();
                    fingerprint(&res.gather_graph(grid.world()))
                });
                for fp in out {
                    assert_eq!(
                        fp, want,
                        "threads={threads} spgemm={kind} pre_blocking={pb} overlap=on"
                    );
                }
            }
        }
    }
}

#[test]
fn identical_results_across_align_thread_counts() {
    // The intra-rank thread counts join the same contract as the rank
    // count and the blocking size. Without `--threads`,
    // `--align-threads`/`--spgemm-threads` size and cap the one work pool:
    // every combination must emit the `--threads 1` TSV byte for byte, and
    // alignment must run as pool units — `align.unit` spans on pool-worker
    // tracks, never per-engine `align.worker` spans.
    let store = dataset();
    let base = params().with_blocking(2, 2);
    let want = run_search_serial(&store, &base.clone().with_threads(1))
        .unwrap()
        .graph
        .to_tsv_lines();
    assert!(!want.is_empty(), "sweep baseline found no edges");
    for align_threads in [0usize, 1, 3] {
        for spgemm_threads in [0usize, 1, 3] {
            for pb in [false, true] {
                let prm = base
                    .clone()
                    .with_align_threads(align_threads)
                    .with_spgemm_threads(spgemm_threads)
                    .with_pre_blocking(pb);
                assert_eq!(prm.threads, None);
                let ctx =
                    format!("align_threads={align_threads} spgemm_threads={spgemm_threads} pre_blocking={pb}");
                let session = TraceSession::new();
                let rec = session.recorder(0);
                let res = run_search_serial_traced(&store, &prm, &rec).unwrap();
                assert_eq!(res.graph.to_tsv_lines(), want, "TSV diverged at {ctx}");
                let spans = rec.snapshot_spans();
                assert!(
                    spans.iter().all(|s| s.name != "align.worker"),
                    "align.worker span at {ctx}"
                );
                let units: Vec<_> = spans
                    .iter()
                    .filter(|s| s.name == names::SPAN_ALIGN_UNIT)
                    .collect();
                assert!(!units.is_empty(), "no align.unit spans at {ctx}");
                assert!(
                    units
                        .iter()
                        .all(|s| matches!(s.track, Track::PoolWorker(_))),
                    "align.unit off the pool-worker tracks at {ctx}"
                );
            }
        }
    }
}

#[test]
fn overlap_off_and_engine_caps_preserve_results() {
    // The remaining knobs of the unified pool: overlap explicitly off on
    // the pooled path, and per-engine concurrency caps (including a cap of
    // zero workers, where the submitting thread still completes the job).
    let want = reference_fingerprint();
    let cases: [(bool, Option<usize>, Option<usize>); 3] = [
        (false, None, None),
        (true, Some(1), Some(2)),
        (true, Some(0), None),
    ];
    for (overlap, align_cap, spgemm_cap) in cases {
        let out = run_threaded(4, move |c| {
            let grid = ProcessGrid::square(c.split(0, c.rank()));
            let mut prm = params()
                .with_blocking(2, 2)
                .with_pre_blocking(true)
                .with_threads(4)
                .with_overlap(overlap);
            prm.align_cap = align_cap;
            prm.spgemm_cap = spgemm_cap;
            let res = run_search(&grid, &dataset(), &prm).unwrap();
            fingerprint(&res.gather_graph(grid.world()))
        });
        for fp in out {
            assert_eq!(
                fp, want,
                "overlap={overlap} align_cap={align_cap:?} spgemm_cap={spgemm_cap:?}"
            );
        }
    }
}

#[test]
fn aligned_pair_totals_are_parallelism_invariant() {
    // Beyond the output edges: the amount of alignment *work* is also
    // invariant (each unordered pair aligned exactly once, anywhere).
    let serial = run_search_serial(&dataset(), &params()).unwrap();
    for p in [4usize, 9] {
        let out = run_threaded(p, move |c| {
            let grid = ProcessGrid::square(c.split(0, c.rank()));
            let res = run_search(&grid, &dataset(), &params()).unwrap();
            res.stats.all_reduce(grid.world())
        });
        for stats in out {
            assert_eq!(stats.aligned_pairs, serial.stats.aligned_pairs, "p={p}");
            assert_eq!(stats.cells, serial.stats.cells, "p={p}");
            assert_eq!(stats.similar_pairs, serial.stats.similar_pairs, "p={p}");
        }
    }
}
