//! DIAMOND-style chunked work-package distributed search.
//!
//! Architecture (Section IV): both sequence sets are split into chunks;
//! each element of the Cartesian product of chunk sets is a *work package*
//! processed independently by a worker, with intermediate results written
//! to the shared filesystem and joined per query chunk at the end. Memory
//! is bounded per package, which the real DIAMOND achieves with per-block
//! heuristics — and which is why its documentation warns that "results
//! will not be completely identical for different values of the block
//! size". This module reproduces that architecture, including:
//!
//! * per-package candidate *caps* (the memory-bounding heuristic) — so the
//!   chunking-dependence of results is reproducible and testable, in
//!   contrast to PASTIS's blocking-independent determinism;
//! * intermediate-spill byte accounting (the filesystem pressure the paper
//!   criticizes).

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use pastis_align::batch::{AlignTask, BatchAligner};
use pastis_align::matrices::Blosum62;
use pastis_align::sw::GapPenalties;
use pastis_comm::grid::BlockDist1D;
use pastis_core::checkpoint::{digest_bytes, digest_u64};
use pastis_core::filter::EdgeFilter;
use pastis_core::kmer::distinct_kmers;
use pastis_core::simgraph::{SimilarityEdge, SimilarityGraph};
use pastis_pool::{Engine, WorkPool};
use pastis_seqio::{ReducedAlphabet, SeqStore};
use pastis_trace::{names, span, Component, Recorder, TraceSession};

use crate::ckpt::{self, BaselineCheckpoint};

/// Configuration of the DIAMOND-style search.
#[derive(Debug, Clone)]
pub struct DiamondLikeConfig {
    /// k-mer (seed) length.
    pub k: usize,
    /// Alphabet for seeding.
    pub alphabet: ReducedAlphabet,
    /// Minimum shared seeds to consider a pair.
    pub min_shared_kmers: u32,
    /// Number of query chunks.
    pub query_chunks: usize,
    /// Number of reference chunks (the "block size" knob).
    pub ref_chunks: usize,
    /// Per-package cap on candidates kept per query — the memory-bounding
    /// heuristic that makes results chunking-dependent. `usize::MAX`
    /// disables the cap (and restores determinism).
    pub max_candidates_per_query: usize,
    /// Gap model.
    pub gaps: GapPenalties,
    /// Identity threshold.
    pub ani_threshold: f64,
    /// Coverage threshold.
    pub coverage_threshold: f64,
    /// Intra-package alignment worker threads (1 = serial, 0 = one per
    /// core). Results are identical for every value.
    pub align_threads: usize,
    /// Intra-package seed-join worker threads: each package's query scan
    /// runs as atomically-claimed units stitched back in query order
    /// (1 = serial, 0 = one per core). Results are identical for every
    /// value.
    pub seed_threads: usize,
    /// Directory for per-query-chunk join checkpoints (`None` disables).
    /// The seed/package phase is recomputed on resume — it is deterministic
    /// and cheap next to alignment, which is what the checkpoints cover.
    /// Robustness knob — never affects the output.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in `checkpoint_dir`,
    /// skipping the already-joined query chunks; the final graph is
    /// bit-identical to an uninterrupted run.
    pub resume: bool,
}

impl Default for DiamondLikeConfig {
    fn default() -> DiamondLikeConfig {
        DiamondLikeConfig {
            k: 6,
            alphabet: ReducedAlphabet::Full20,
            min_shared_kmers: 2,
            query_chunks: 2,
            ref_chunks: 2,
            max_candidates_per_query: 64,
            gaps: GapPenalties::pastis_defaults(),
            ani_threshold: 0.30,
            coverage_threshold: 0.70,
            align_threads: 1,
            seed_threads: 1,
            checkpoint_dir: None,
            resume: false,
        }
    }
}

/// Outcome of a DIAMOND-style run.
#[derive(Debug, Clone)]
pub struct DiamondLikeReport {
    /// Similarity graph after the final join.
    pub graph: SimilarityGraph,
    /// Work packages processed (`query_chunks × ref_chunks`).
    pub packages: usize,
    /// Seed-join candidates before capping.
    pub seed_candidates: u64,
    /// Candidates dropped by the per-package cap (the source of
    /// chunking-dependence).
    pub capped_out: u64,
    /// Pairs aligned.
    pub aligned_pairs: u64,
    /// Intermediate bytes written to (and re-read from) the shared
    /// filesystem by the package/join protocol.
    pub spilled_bytes: u64,
    /// Measured wall seconds.
    pub wall_seconds: f64,
    /// When resuming: how many query-chunk joins were restored from the
    /// checkpoint instead of re-aligned.
    pub resumed_chunks: Option<usize>,
}

/// One intermediate record a package writes for the join phase.
#[derive(Debug, Clone, Copy)]
struct Intermediate {
    query: u32,
    target: u32,
    shared: u32,
}

const INTERMEDIATE_BYTES: u64 = 12;

/// Run the many-against-many search with the work-package architecture.
pub fn run_diamond_like(store: &SeqStore, cfg: &DiamondLikeConfig) -> DiamondLikeReport {
    run_inner(store, cfg, None)
}

/// Like [`run_diamond_like`], recording phase spans into `session` — one
/// recorder per query chunk (the unit that owns a spill file), with a
/// `package.seed_join` span per work package and a `join.align` span per
/// join. Observation-only: the report is identical to the untraced run's.
pub fn run_diamond_like_traced(
    store: &SeqStore,
    cfg: &DiamondLikeConfig,
    session: &TraceSession,
) -> DiamondLikeReport {
    run_inner(store, cfg, Some(session))
}

fn run_inner(
    store: &SeqStore,
    cfg: &DiamondLikeConfig,
    session: Option<&TraceSession>,
) -> DiamondLikeReport {
    assert!(
        cfg.query_chunks > 0 && cfg.ref_chunks > 0,
        "chunk counts must be positive"
    );
    let start = Instant::now();
    let n = store.len();
    let qdist = BlockDist1D::new(n, cfg.query_chunks.min(n.max(1)));
    let rdist = BlockDist1D::new(n, cfg.ref_chunks.min(n.max(1)));

    let mut seed_candidates = 0u64;
    let mut capped_out = 0u64;
    let mut spilled_bytes = 0u64;
    // Per query chunk: the spilled intermediates awaiting the final join.
    let mut spill: Vec<Vec<Intermediate>> = (0..qdist.parts).map(|_| Vec::new()).collect();
    let seed_pool = WorkPool::sized(cfg.seed_threads);

    // --- Package phase: every (query chunk, ref chunk) pair.
    for (qc, spill_qc) in spill.iter_mut().enumerate() {
        let rec = session.map_or_else(Recorder::disabled, |s| s.recorder(qc));
        let (q0, q1) = (
            qdist.part_offset(qc),
            qdist.part_offset(qc) + qdist.part_len(qc),
        );
        for rc in 0..rdist.parts {
            let spilled_before = spill_qc.len() as u64;
            let mut pkg_span = span!(rec, Component::SparseOther, names::SPAN_PACKAGE_SEED_JOIN, {
                rc: rc as u64,
            });
            let (r0, r1) = (
                rdist.part_offset(rc),
                rdist.part_offset(rc) + rdist.part_len(rc),
            );
            // Index the reference chunk.
            let mut index: HashMap<u32, Vec<u32>> = HashMap::new();
            for t in r0..r1 {
                for (kmer, _) in distinct_kmers(store.seq(t), cfg.k, cfg.alphabet) {
                    index.entry(kmer).or_default().push(t as u32);
                }
            }
            // Seed-join each query of the chunk against the index — one
            // pool unit per query, stitched back in query order, so the
            // spill stream (and the cap's victims) are identical for
            // every worker count.
            let per_query = seed_pool.run(Engine::Sparse, q1 - q0, |u, _slot| {
                let q = q0 + u;
                let mut hits: HashMap<u32, u32> = HashMap::new();
                for (kmer, _) in distinct_kmers(store.seq(q), cfg.k, cfg.alphabet) {
                    if let Some(ts) = index.get(&kmer) {
                        for &t in ts {
                            if (t as usize) != q {
                                *hits.entry(t).or_insert(0) += 1;
                            }
                        }
                    }
                }
                let mut cands: Vec<(u32, u32)> = hits
                    .into_iter()
                    .filter(|&(_, s)| s >= cfg.min_shared_kmers)
                    .collect();
                // The memory-bounding heuristic: keep the best
                // `max_candidates_per_query` by shared-seed count within
                // *this package*. A pair near the cap can survive one
                // chunking and be evicted under another — the
                // non-determinism the paper quotes DIAMOND's docs on.
                cands.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let uncapped = cands.len();
                if cands.len() > cfg.max_candidates_per_query {
                    cands.truncate(cfg.max_candidates_per_query);
                }
                (uncapped, cands)
            });
            for (u, (uncapped, cands)) in per_query.into_iter().enumerate() {
                let q = q0 + u;
                seed_candidates += uncapped as u64;
                capped_out += (uncapped - cands.len()) as u64;
                for (t, shared) in cands {
                    spill_qc.push(Intermediate {
                        query: q as u32,
                        target: t,
                        shared,
                    });
                    spilled_bytes += INTERMEDIATE_BYTES;
                }
            }
            pkg_span.push_arg("spilled", spill_qc.len() as u64 - spilled_before);
            drop(pkg_span);
        }
    }

    // --- Join phase: per query chunk, read back intermediates, merge
    // duplicates across packages, align, filter.
    let aligner = BatchAligner::new(Blosum62, cfg.gaps);
    let filter = EdgeFilter {
        ani_threshold: cfg.ani_threshold,
        coverage_threshold: cfg.coverage_threshold,
    };
    let mut graph = SimilarityGraph::new(n);
    let mut aligned_pairs = 0u64;

    // One checkpoint unit = one query chunk's join (the alignment phase —
    // the dominant cost). The package phase above is deterministic and was
    // recomputed wholesale; a resumed run restores the joined chunks.
    let ckpt_dir = cfg.checkpoint_dir.as_deref();
    let fp = if ckpt_dir.is_some() {
        fingerprint(store, cfg)
    } else {
        0
    };
    let mut start_chunk = 0usize;
    let mut resumed_chunks = None;
    if cfg.resume {
        let dir = ckpt_dir.expect("resume requires checkpoint_dir");
        if let Some(ck) = ckpt::latest_valid(dir, qdist.parts, fp) {
            for e in &ck.edges {
                graph.add(*e);
            }
            aligned_pairs = ck.counter(names::CTR_ALIGNED_PAIRS);
            start_chunk = ck.units_done;
            resumed_chunks = Some(ck.units_done);
        }
    }

    for (chunk_idx, chunk) in spill.iter().enumerate() {
        if chunk_idx < start_chunk {
            // Restored from the checkpoint — only the join's filesystem
            // re-read accounting still applies (the spill itself was
            // recomputed above), keeping the report identical to an
            // uninterrupted run's.
            spilled_bytes += chunk.len() as u64 * INTERMEDIATE_BYTES;
            continue;
        }
        let rec = session.map_or_else(Recorder::disabled, |s| s.recorder(chunk_idx));
        let mut join_span = span!(rec, Component::Align, names::SPAN_JOIN_ALIGN, {
            records: chunk.len() as u64,
        });
        spilled_bytes += chunk.len() as u64 * INTERMEDIATE_BYTES; // re-read
        let mut merged: HashMap<(u32, u32), u32> = HashMap::new();
        for rec in chunk {
            let key = if rec.query < rec.target {
                (rec.query, rec.target)
            } else {
                (rec.target, rec.query)
            };
            let e = merged.entry(key).or_insert(0);
            *e = (*e).max(rec.shared);
        }
        let mut pairs: Vec<((u32, u32), u32)> = merged.into_iter().collect();
        pairs.sort_unstable();
        // Each unordered pair may surface in up to two query chunks; the
        // canonical owner (the chunk of the smaller id) aligns it. Rescore
        // the chunk's surviving pairs as one batch on the worker pool.
        pairs.retain(|&((i, _), _)| qdist.owner(i as usize) == chunk_idx);
        let tasks: Vec<AlignTask> = pairs
            .iter()
            .map(|&((i, j), _)| AlignTask {
                query: i,
                reference: j,
                seed_q: 0,
                seed_r: 0,
            })
            .collect();
        let (results, _stats) =
            aligner.run_batch_parallel(&tasks, |id| store.seq(id as usize), cfg.align_threads);
        aligned_pairs += tasks.len() as u64;
        for (((i, j), shared), res) in pairs.iter().zip(&results) {
            let (qs, rs) = (store.seq(*i as usize), store.seq(*j as usize));
            if filter.passes(res, qs.len(), rs.len()) {
                graph.add(SimilarityEdge {
                    i: *i,
                    j: *j,
                    score: res.score,
                    ani: res.identity() as f32,
                    coverage: res.coverage_min(qs.len(), rs.len()) as f32,
                    common_kmers: *shared,
                });
            }
        }
        join_span.push_arg("pairs", tasks.len() as u64);
        drop(join_span);
        rec.add_counter(names::CTR_ALIGNED_PAIRS, tasks.len() as f64);
        if let Some(dir) = ckpt_dir {
            let ck = BaselineCheckpoint {
                fingerprint: fp,
                units_done: chunk_idx + 1,
                units: qdist.parts,
                counters: vec![(names::CTR_ALIGNED_PAIRS.into(), aligned_pairs)],
                edges: graph.edges().to_vec(),
            };
            if let Err(e) = ckpt::save(dir, &ck) {
                // Best-effort: losing a restart point must not fail the
                // run. The fault family mirror puts a warning in the
                // end-of-run report.
                rec.add_counter(names::CTR_CHECKPOINT_WRITE_FAILED, 1.0);
                rec.add_counter(names::CTR_FAULT_CKPT_SAVE_FAILED, 1.0);
                eprintln!("warning: baseline checkpoint save failed (chunk {chunk_idx}): {e}");
            } else {
                rec.add_counter(names::CTR_CHECKPOINT_UNITS_WRITTEN, 1.0);
            }
        }
    }
    graph.normalize();
    DiamondLikeReport {
        graph,
        packages: qdist.parts * rdist.parts,
        seed_candidates,
        capped_out,
        aligned_pairs,
        spilled_bytes,
        wall_seconds: start.elapsed().as_secs_f64(),
        resumed_chunks,
    }
}

/// Digest of everything that determines this baseline's output: the
/// output-relevant config (the chunking *does* affect results once the
/// candidate cap engages, so it is included) and the input residues.
/// `align_threads` and the checkpoint knobs are deliberately excluded.
fn fingerprint(store: &SeqStore, cfg: &DiamondLikeConfig) -> u64 {
    let mut h = 0x4449_414d_4f4e_444cu64; // "DIAMONDL"
    h = digest_u64(h, cfg.k as u64);
    h = digest_bytes(h, format!("{:?}", cfg.alphabet).as_bytes());
    h = digest_u64(h, cfg.min_shared_kmers as u64);
    h = digest_u64(h, cfg.query_chunks as u64);
    h = digest_u64(h, cfg.ref_chunks as u64);
    h = digest_u64(h, cfg.max_candidates_per_query as u64);
    h = digest_u64(h, cfg.gaps.open as u64);
    h = digest_u64(h, cfg.gaps.extend as u64);
    h = digest_u64(h, cfg.ani_threshold.to_bits());
    h = digest_u64(h, cfg.coverage_threshold.to_bits());
    h = digest_u64(h, store.len() as u64);
    for i in 0..store.len() {
        h = digest_bytes(h, store.seq(i));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_align::matrices::encode;
    use pastis_seqio::{SyntheticConfig, SyntheticDataset};

    fn cfg() -> DiamondLikeConfig {
        DiamondLikeConfig {
            k: 4,
            min_shared_kmers: 1,
            ani_threshold: 0.3,
            coverage_threshold: 0.3,
            max_candidates_per_query: usize::MAX,
            ..DiamondLikeConfig::default()
        }
    }

    fn tiny_store() -> SeqStore {
        let mut s = SeqStore::new();
        for (i, q) in [
            "MKVLAWYHEEMKVLAWYHEE",
            "MKVLAWYHEEMKVLAWYHEA",
            "GGSTPNQRCDGGSTPNQRCD",
            "GGSTPNQRCDGGSTPNQRCE",
            "WPWPWPWPWPWPWPWPWPWP",
        ]
        .iter()
        .enumerate()
        {
            s.push(format!("s{i}"), encode(q).unwrap());
        }
        s
    }

    #[test]
    fn finds_planted_families() {
        let r = run_diamond_like(&tiny_store(), &cfg());
        let keys: Vec<_> = r.graph.edges().iter().map(|e| e.key()).collect();
        assert!(keys.contains(&(0, 1)));
        assert!(keys.contains(&(2, 3)));
        assert_eq!(r.packages, 4);
    }

    #[test]
    fn uncapped_results_are_chunking_independent() {
        let store = tiny_store();
        let base = run_diamond_like(&store, &cfg());
        for (qc, rc) in [(1usize, 1usize), (3, 2), (5, 5)] {
            let r = run_diamond_like(
                &store,
                &DiamondLikeConfig {
                    query_chunks: qc,
                    ref_chunks: rc,
                    ..cfg()
                },
            );
            assert_eq!(r.graph.edges(), base.graph.edges(), "{qc}x{rc}");
        }
    }

    #[test]
    fn capped_results_depend_on_chunking() {
        // The headline architectural contrast with PASTIS: with the
        // memory-bounding cap active, changing the block size changes
        // which candidates survive.
        let ds = SyntheticDataset::generate(&SyntheticConfig {
            n_sequences: 120,
            mean_len: 60.0,
            mean_family_size: 20.0,
            singleton_fraction: 0.0,
            divergence: 0.08,
            seed: 42,
            ..SyntheticConfig::small(120, 42)
        });
        let capped = |rc: usize| {
            run_diamond_like(
                &ds.store,
                &DiamondLikeConfig {
                    ref_chunks: rc,
                    max_candidates_per_query: 3,
                    ..cfg()
                },
            )
        };
        let one = capped(1);
        let four = capped(4);
        assert!(one.capped_out > 0, "cap never engaged; test is vacuous");
        // More packages -> more survivors slip past the per-package cap.
        assert_ne!(
            one.graph.n_edges(),
            four.graph.n_edges(),
            "expected chunking-dependent results under capping"
        );
    }

    #[test]
    fn align_thread_count_does_not_change_results() {
        let store = tiny_store();
        let base = run_diamond_like(&store, &cfg());
        for threads in [2usize, 4, 0] {
            let r = run_diamond_like(
                &store,
                &DiamondLikeConfig {
                    align_threads: threads,
                    ..cfg()
                },
            );
            assert_eq!(r.graph.edges(), base.graph.edges(), "threads={threads}");
            assert_eq!(r.aligned_pairs, base.aligned_pairs);
        }
    }

    #[test]
    fn seed_thread_count_does_not_change_results() {
        let store = tiny_store();
        // Include a tight per-query cap: the capped spill stream is the
        // part that would expose any stitch-order slip.
        for cap in [usize::MAX, 2] {
            let capped = DiamondLikeConfig {
                max_candidates_per_query: cap,
                ..cfg()
            };
            let base = run_diamond_like(&store, &capped);
            for threads in [2usize, 4, 0] {
                let r = run_diamond_like(
                    &store,
                    &DiamondLikeConfig {
                        seed_threads: threads,
                        ..capped.clone()
                    },
                );
                assert_eq!(
                    r.graph.edges(),
                    base.graph.edges(),
                    "cap={cap} threads={threads}"
                );
                assert_eq!(r.seed_candidates, base.seed_candidates);
                assert_eq!(r.capped_out, base.capped_out);
                assert_eq!(r.spilled_bytes, base.spilled_bytes);
            }
        }
    }

    #[test]
    fn spill_grows_with_ref_chunks() {
        let store = tiny_store();
        let few = run_diamond_like(
            &store,
            &DiamondLikeConfig {
                ref_chunks: 1,
                query_chunks: 1,
                ..cfg()
            },
        );
        let many = run_diamond_like(
            &store,
            &DiamondLikeConfig {
                ref_chunks: 5,
                query_chunks: 5,
                ..cfg()
            },
        );
        // Same candidates, same spill per candidate — but the join sees
        // duplicates across packages only when pairs straddle chunks, so
        // spill is at least as large.
        assert!(many.spilled_bytes >= few.spilled_bytes);
        assert!(many.packages > few.packages);
    }

    #[test]
    fn counters_coherent() {
        let r = run_diamond_like(&tiny_store(), &cfg());
        assert!(r.seed_candidates >= r.aligned_pairs);
        assert!(r.aligned_pairs >= r.graph.n_edges() as u64);
        assert_eq!(r.capped_out, 0);
    }

    #[test]
    fn traced_run_emits_package_and_join_spans() {
        let store = tiny_store();
        let base = run_diamond_like(&store, &cfg());
        let session = TraceSession::new();
        let traced = run_diamond_like_traced(&store, &cfg(), &session);
        // Observation-only.
        assert_eq!(traced.graph.edges(), base.graph.edges());
        assert_eq!(traced.spilled_bytes, base.spilled_bytes);
        let recs = session.recorders();
        assert_eq!(recs.len(), 2); // one per query chunk
        let mut packages = 0;
        let mut total_aligned = 0.0;
        for rec in &recs {
            let spans = rec.snapshot_spans();
            packages += spans
                .iter()
                .filter(|s| s.name == names::SPAN_PACKAGE_SEED_JOIN)
                .count();
            assert!(spans.iter().any(|s| s.name == names::SPAN_JOIN_ALIGN));
            total_aligned += rec.counters()[names::CTR_ALIGNED_PAIRS];
        }
        assert_eq!(packages, base.packages);
        assert_eq!(total_aligned as u64, base.aligned_pairs);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let store = tiny_store();
        let dir = std::env::temp_dir().join(format!("pastis-diamond-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let chunked = DiamondLikeConfig {
            query_chunks: 3,
            ..cfg()
        };
        let base = run_diamond_like(&store, &chunked);
        let ccfg = DiamondLikeConfig {
            checkpoint_dir: Some(dir.clone()),
            ..chunked.clone()
        };
        let checkpointed = run_diamond_like(&store, &ccfg);
        assert_eq!(checkpointed.graph.edges(), base.graph.edges());
        assert!(checkpointed.resumed_chunks.is_none());
        // "Killed after join 2": drop the newest checkpoint and resume.
        std::fs::remove_file(crate::ckpt::baseline_ckpt_path(&dir, 3)).unwrap();
        let resumed = run_diamond_like(
            &store,
            &DiamondLikeConfig {
                resume: true,
                ..ccfg
            },
        );
        assert_eq!(resumed.resumed_chunks, Some(2));
        assert_eq!(resumed.graph.edges(), base.graph.edges());
        assert_eq!(resumed.aligned_pairs, base.aligned_pairs);
        assert_eq!(resumed.spilled_bytes, base.spilled_bytes);
        assert_eq!(resumed.seed_candidates, base.seed_candidates);
        // A different chunking is a different run — its checkpoints are
        // foreign (chunking can change capped results, so the fingerprint
        // includes it).
        let foreign = run_diamond_like(
            &store,
            &DiamondLikeConfig {
                query_chunks: 2,
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..cfg()
            },
        );
        assert!(foreign.resumed_chunks.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store() {
        let r = run_diamond_like(&SeqStore::new(), &cfg());
        assert_eq!(r.graph.n_edges(), 0);
        assert_eq!(r.aligned_pairs, 0);
    }
}
