//! MMseqs2-style replicated-index distributed search.
//!
//! Architecture (Section IV): hybrid distribution where either the
//! reference set is chunked across ranks and **every rank searches all
//! queries against its chunk** (target split), or the query set is chunked
//! and **every rank searches its queries against all references** (query
//! split). Either way, one full set's k-mer index lives on *every* rank —
//! the memory-scaling weakness the paper calls out. This module implements
//! that architecture faithfully at reduced scale, including per-rank index
//! memory accounting, so the blow-up is measurable.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use pastis_align::batch::{AlignTask, BatchAligner};
use pastis_align::matrices::Blosum62;
use pastis_align::sw::GapPenalties;
use pastis_comm::grid::BlockDist1D;
use pastis_core::checkpoint::{digest_bytes, digest_u64, write_atomic};
use pastis_core::filter::EdgeFilter;
use pastis_core::kmer::distinct_kmers;
use pastis_core::simgraph::{SimilarityEdge, SimilarityGraph};
use pastis_pool::{Engine, WorkPool};
use pastis_seqio::{ReducedAlphabet, SeqStore};
use pastis_trace::{names, span, Component, Recorder, TraceSession};

use crate::ckpt::{self, BaselineCheckpoint};

/// Which sequence set is chunked across ranks (the other is replicated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMode {
    /// References chunked; queries (and their index) replicated.
    TargetSplit,
    /// Queries chunked; references (and their index) replicated.
    QuerySplit,
}

/// Configuration of the MMseqs2-style search.
#[derive(Debug, Clone)]
pub struct MmseqsLikeConfig {
    /// k-mer length of the prefilter index.
    pub k: usize,
    /// Alphabet for the index.
    pub alphabet: ReducedAlphabet,
    /// Minimum shared k-mers to trigger an alignment (the double-hit
    /// prefilter).
    pub min_shared_kmers: u32,
    /// Gap model of the rescoring alignment.
    pub gaps: GapPenalties,
    /// Post-alignment identity threshold.
    pub ani_threshold: f64,
    /// Post-alignment coverage threshold.
    pub coverage_threshold: f64,
    /// Split mode.
    pub mode: SplitMode,
    /// Intra-rank alignment worker threads (1 = serial on the calling
    /// thread, 0 = one per core). Results are identical for every value.
    pub align_threads: usize,
    /// Intra-rank prefilter worker threads: each rank's query scan runs
    /// as atomically-claimed units stitched back in query order (1 =
    /// serial, 0 = one per core). Results are identical for every value.
    pub prefilter_threads: usize,
    /// Directory for per-simulated-rank checkpoints (`None` disables).
    /// Robustness knob — never affects the output.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in `checkpoint_dir`,
    /// skipping already-searched ranks; the final graph is bit-identical
    /// to an uninterrupted run.
    pub resume: bool,
    /// Directory holding persisted per-rank prefilter indexes. When set,
    /// each simulated rank loads its CRC-framed, fingerprint-bound
    /// postings file instead of rebuilding the index — and writes one
    /// (best-effort) after building when none is valid. Real MMseqs2
    /// persists its prefilter index the same way; rebuilding it every run
    /// was this module's historical behavior. Never affects the output:
    /// a loaded index is bit-identical to a rebuilt one.
    pub index_dir: Option<PathBuf>,
}

impl Default for MmseqsLikeConfig {
    fn default() -> MmseqsLikeConfig {
        MmseqsLikeConfig {
            k: 6,
            alphabet: ReducedAlphabet::Full20,
            min_shared_kmers: 2,
            gaps: GapPenalties::pastis_defaults(),
            ani_threshold: 0.30,
            coverage_threshold: 0.70,
            mode: SplitMode::TargetSplit,
            align_threads: 1,
            prefilter_threads: 1,
            checkpoint_dir: None,
            resume: false,
            index_dir: None,
        }
    }
}

/// Outcome of an MMseqs2-style many-against-many run.
#[derive(Debug, Clone)]
pub struct MmseqsLikeReport {
    /// The similarity graph found (union over ranks, normalized).
    pub graph: SimilarityGraph,
    /// Prefilter candidates examined (sum over ranks).
    pub prefilter_candidates: u64,
    /// Pairs aligned.
    pub aligned_pairs: u64,
    /// Bytes of the replicated k-mer index **per rank** — constant in the
    /// rank count: the architecture's scaling wall.
    pub index_bytes_per_rank: u64,
    /// Ranks simulated.
    pub ranks: usize,
    /// Measured wall seconds (all ranks executed serially).
    pub wall_seconds: f64,
    /// When resuming: how many simulated ranks were restored from the
    /// checkpoint instead of recomputed.
    pub resumed_ranks: Option<usize>,
}

/// The replicated inverted index: k-mer id → (sequence, position) list.
#[derive(Debug)]
struct KmerIndex {
    map: HashMap<u32, Vec<(u32, u32)>>,
    bytes: u64,
}

impl KmerIndex {
    fn build(
        store: &SeqStore,
        ids: impl Iterator<Item = usize>,
        cfg: &MmseqsLikeConfig,
    ) -> KmerIndex {
        let mut map: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
        let mut postings = 0u64;
        for id in ids {
            for (kmer, pos) in distinct_kmers(store.seq(id), cfg.k, cfg.alphabet) {
                map.entry(kmer).or_default().push((id as u32, pos));
                postings += 1;
            }
        }
        // 8 bytes per posting + 16 per distinct k-mer bucket, the rough
        // footprint of MMseqs2's index tables.
        let bytes = postings * 8 + map.len() as u64 * 16;
        KmerIndex { map, bytes }
    }

    /// Serialize as the versioned, CRC-framed `PASTIS-PFIDX 1` text:
    /// fingerprint-bound, one sorted postings line per k-mer, posting
    /// order preserved so a reload is bit-identical to the build.
    fn to_text(&self, fingerprint: u64, rank: usize) -> String {
        let mut postings = 0u64;
        let mut kmers: Vec<&u32> = self.map.keys().collect();
        kmers.sort_unstable();
        let mut body = format!("PASTIS-PFIDX {PFIDX_SCHEMA_VERSION}\n");
        body.push_str(&format!("fingerprint {fingerprint:016x}\n"));
        body.push_str(&format!("rank {rank}\n"));
        let mut lines = String::new();
        for k in kmers {
            let posting = &self.map[k];
            postings += posting.len() as u64;
            lines.push_str(&k.to_string());
            for (id, pos) in posting {
                lines.push_str(&format!(" {id},{pos}"));
            }
            lines.push('\n');
        }
        body.push_str(&format!("dims {} {postings}\n", self.map.len()));
        body.push_str(&lines);
        let crc = pastis_comm::fault::crc32(body.as_bytes());
        body.push_str(&format!("end {crc:08x}\n"));
        body
    }

    /// Parse a persisted postings file, validating the CRC frame, schema
    /// version, fingerprint, and rank binding, and the declared counts.
    fn parse(text: &str, fingerprint: u64, rank: usize) -> Result<KmerIndex, String> {
        let body = text
            .strip_suffix('\n')
            .and_then(|t| t.rsplit_once('\n'))
            .map(|(body, _)| &text[..body.len() + 1])
            .ok_or("prefilter index: truncated file")?;
        let end_line = text[body.len()..]
            .trim_end()
            .strip_prefix("end ")
            .ok_or("prefilter index: missing end frame")?;
        let want = u32::from_str_radix(end_line, 16)
            .map_err(|_| "prefilter index: malformed end crc".to_owned())?;
        let got = pastis_comm::fault::crc32(body.as_bytes());
        if got != want {
            return Err(format!(
                "prefilter index: crc mismatch (stored {want:08x}, computed {got:08x})"
            ));
        }
        let mut lines = body.lines();
        let header = lines.next().ok_or("prefilter index: empty file")?;
        let version = header
            .strip_prefix("PASTIS-PFIDX ")
            .ok_or("prefilter index: bad magic")?;
        if version != PFIDX_SCHEMA_VERSION.to_string() {
            return Err(format!("prefilter index: unknown schema version {version}"));
        }
        let keyed = |line: Option<&str>, key: &str| -> Result<String, String> {
            line.and_then(|l| l.strip_prefix(key))
                .and_then(|l| l.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| format!("prefilter index: missing '{key}' line"))
        };
        let fp = u64::from_str_radix(&keyed(lines.next(), "fingerprint")?, 16)
            .map_err(|_| "prefilter index: malformed fingerprint".to_owned())?;
        if fp != fingerprint {
            return Err("prefilter index: fingerprint mismatch (stale index)".into());
        }
        let r: usize = keyed(lines.next(), "rank")?
            .parse()
            .map_err(|_| "prefilter index: malformed rank".to_owned())?;
        if r != rank {
            return Err(format!("prefilter index: file is for rank {r}, not {rank}"));
        }
        let dims = keyed(lines.next(), "dims")?;
        let (nk, np) = dims
            .split_once(' ')
            .ok_or("prefilter index: malformed dims")?;
        let n_kmers: usize = nk
            .parse()
            .map_err(|_| "prefilter index: malformed dims".to_owned())?;
        let n_postings: u64 = np
            .parse()
            .map_err(|_| "prefilter index: malformed dims".to_owned())?;
        let mut map: HashMap<u32, Vec<(u32, u32)>> = HashMap::with_capacity(n_kmers);
        let mut postings = 0u64;
        let mut prev: Option<u32> = None;
        for line in lines {
            let mut parts = line.split(' ');
            let kmer: u32 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("prefilter index: malformed postings line")?;
            if prev.is_some_and(|p| p >= kmer) {
                return Err("prefilter index: k-mers out of order".into());
            }
            prev = Some(kmer);
            let mut posting = Vec::new();
            for p in parts {
                let (id, pos) = p
                    .split_once(',')
                    .ok_or("prefilter index: malformed posting")?;
                let id: u32 = id
                    .parse()
                    .map_err(|_| "prefilter index: malformed posting".to_owned())?;
                let pos: u32 = pos
                    .parse()
                    .map_err(|_| "prefilter index: malformed posting".to_owned())?;
                posting.push((id, pos));
            }
            if posting.is_empty() {
                return Err("prefilter index: empty postings line".into());
            }
            postings += posting.len() as u64;
            map.insert(kmer, posting);
        }
        if map.len() != n_kmers || postings != n_postings {
            return Err(format!(
                "prefilter index: dims mismatch (declared {n_kmers} k-mers/{n_postings} \
                 postings, found {}/{postings})",
                map.len()
            ));
        }
        let bytes = postings * 8 + map.len() as u64 * 16;
        Ok(KmerIndex { map, bytes })
    }
}

/// Schema version of the persisted prefilter-index format.
const PFIDX_SCHEMA_VERSION: u32 = 1;

/// Per-rank postings file under the configured index directory.
fn pfidx_path(dir: &std::path::Path, rank: usize) -> PathBuf {
    dir.join(format!("pfidx_r{rank:04}.idx"))
}

/// Run the many-against-many search over `nranks` simulated ranks
/// (executed one after another on this host; the work and memory
/// partitioning is exactly the distributed architecture's).
pub fn run_mmseqs_like(
    store: &SeqStore,
    cfg: &MmseqsLikeConfig,
    nranks: usize,
) -> MmseqsLikeReport {
    run_inner(store, cfg, nranks, None)
}

/// Like [`run_mmseqs_like`], recording each simulated rank's phase spans
/// (`index.build`, `prefilter`, `align.batch`) and work counters into
/// `session` — one recorder per rank, so the baseline's trace is directly
/// comparable to the PASTIS pipeline's. Observation-only: the report is
/// identical to the untraced run's.
pub fn run_mmseqs_like_traced(
    store: &SeqStore,
    cfg: &MmseqsLikeConfig,
    nranks: usize,
    session: &TraceSession,
) -> MmseqsLikeReport {
    run_inner(store, cfg, nranks, Some(session))
}

fn run_inner(
    store: &SeqStore,
    cfg: &MmseqsLikeConfig,
    nranks: usize,
    session: Option<&TraceSession>,
) -> MmseqsLikeReport {
    assert!(nranks > 0, "need at least one rank");
    let start = Instant::now();
    let n = store.len();
    let chunks = BlockDist1D::new(n, nranks);
    let aligner = BatchAligner::new(Blosum62, cfg.gaps);
    let filter = EdgeFilter {
        ani_threshold: cfg.ani_threshold,
        coverage_threshold: cfg.coverage_threshold,
    };

    let mut graph = SimilarityGraph::new(n);
    let mut prefilter_candidates = 0u64;
    let mut aligned_pairs = 0u64;
    let mut index_bytes_per_rank = 0u64;
    let prefilter_pool = WorkPool::sized(cfg.prefilter_threads);

    // One checkpoint unit = one simulated rank (they execute serially).
    let ckpt_dir = cfg.checkpoint_dir.as_deref();
    let fp = if ckpt_dir.is_some() || cfg.index_dir.is_some() {
        fingerprint(store, cfg, nranks)
    } else {
        0
    };
    let mut start_rank = 0usize;
    let mut resumed_ranks = None;
    if cfg.resume {
        let dir = ckpt_dir.expect("resume requires checkpoint_dir");
        if let Some(ck) = ckpt::latest_valid(dir, nranks, fp) {
            for e in &ck.edges {
                graph.add(*e);
            }
            prefilter_candidates = ck.counter(names::CTR_PREFILTER_CANDIDATES);
            aligned_pairs = ck.counter(names::CTR_ALIGNED_PAIRS);
            index_bytes_per_rank = ck.counter("index_bytes_per_rank");
            start_rank = ck.units_done;
            resumed_ranks = Some(ck.units_done);
        }
    }

    for rank in start_rank..nranks {
        let rec = session.map_or_else(Recorder::disabled, |s| s.recorder(rank));
        let c0 = chunks.part_offset(rank);
        let c1 = c0 + chunks.part_len(rank);
        // In target-split mode the rank indexes its *chunk* and scans all
        // queries; in query-split mode it indexes the *whole* reference
        // set and scans its chunk. Either way one side of the pairing is
        // all `n` sequences; the replicated structure differs.
        let mut build_span = span!(rec, Component::SparseOther, names::SPAN_INDEX_BUILD);
        // With an index directory, load the rank's persisted postings
        // (fingerprint- and rank-bound, CRC-checked) instead of
        // rebuilding; on a miss or any validation failure, rebuild and
        // persist best-effort. A loaded index is bit-identical to a
        // rebuilt one, so the output never depends on this path.
        let obtain = |ids: std::ops::Range<usize>| -> KmerIndex {
            let Some(dir) = cfg.index_dir.as_deref() else {
                return KmerIndex::build(store, ids, cfg);
            };
            let path = pfidx_path(dir, rank);
            if let Ok(text) = std::fs::read_to_string(&path) {
                match KmerIndex::parse(&text, fp, rank) {
                    Ok(idx) => {
                        rec.add_counter(names::CTR_INDEX_PREFILTER_REUSED, 1.0);
                        return idx;
                    }
                    Err(e) => {
                        eprintln!("warning: rebuilding prefilter index (unit {rank}): {e}");
                    }
                }
            }
            let idx = KmerIndex::build(store, ids, cfg);
            let _ = std::fs::create_dir_all(dir);
            if let Err(e) = write_atomic(&path, &idx.to_text(fp, rank)) {
                // Best-effort, like checkpoints: a full disk degrades to
                // "rebuild next run", never to a failed search.
                eprintln!("warning: prefilter index save failed (unit {rank}): {e}");
            }
            idx
        };
        let (index, scan): (KmerIndex, Box<dyn Iterator<Item = usize>>) = match cfg.mode {
            SplitMode::TargetSplit => (obtain(c0..c1), Box::new(0..n)),
            SplitMode::QuerySplit => (obtain(0..n), Box::new(c0..c1)),
        };
        build_span.push_arg("bytes", index.bytes);
        drop(build_span);
        // The replicated payload per rank: in target-split the full
        // *query set* (here: all sequences) is replicated; its index is
        // built once per rank in MMseqs2's prefilter. We account the
        // replicated side's index size.
        let replicated_bytes = match cfg.mode {
            SplitMode::TargetSplit => {
                // Queries replicated: every rank holds all residues.
                store.total_residues() as u64
            }
            SplitMode::QuerySplit => index.bytes,
        };
        index_bytes_per_rank = index_bytes_per_rank.max(match cfg.mode {
            SplitMode::TargetSplit => index.bytes + replicated_bytes,
            SplitMode::QuerySplit => replicated_bytes + store.total_residues() as u64,
        });

        // Prefilter the whole rank first, then rescore the surviving
        // pairs as one batch on the worker pool — MMseqs2's own
        // prefilter/alignment phase split, which is what lets the
        // alignment phase parallelize freely.
        let mut tasks: Vec<AlignTask> = Vec::new();
        let mut shared_counts: Vec<u32> = Vec::new();
        let rank_candidates_before = prefilter_candidates;
        let mut prefilter_span = span!(rec, Component::SparseOther, names::SPAN_PREFILTER);
        // Scan queries on the prefilter pool: one unit per query, claimed
        // atomically and stitched back in query order, so the candidate
        // list — and everything downstream — is identical for every
        // worker count.
        let queries: Vec<usize> = scan.collect();
        let per_query = prefilter_pool.run(Engine::Sparse, queries.len(), |u, _slot| {
            let q = queries[u];
            // Count shared k-mers per target via the index.
            let mut hits: HashMap<u32, u32> = HashMap::new();
            for (kmer, _pos) in distinct_kmers(store.seq(q), cfg.k, cfg.alphabet) {
                if let Some(posting) = index.map.get(&kmer) {
                    for &(target, _) in posting {
                        *hits.entry(target).or_insert(0) += 1;
                    }
                }
            }
            let mut targets: Vec<(u32, u32)> = hits
                .into_iter()
                .filter(|&(t, shared)| (t as usize) != q && shared >= cfg.min_shared_kmers)
                .collect();
            targets.sort_unstable();
            targets
        });
        for (q, targets) in queries.iter().zip(per_query) {
            prefilter_candidates += targets.len() as u64;
            for (t, shared) in targets {
                // Each unordered pair is seen from both sides (and, in
                // target-split, by exactly one rank per side); align only
                // the canonical orientation to mirror PASTIS accounting.
                if (*q as u32) < t {
                    tasks.push(AlignTask {
                        query: *q as u32,
                        reference: t,
                        seed_q: 0,
                        seed_r: 0,
                    });
                    shared_counts.push(shared);
                }
            }
        }
        prefilter_span.push_arg("candidates", prefilter_candidates - rank_candidates_before);
        drop(prefilter_span);
        let (results, _stats) = {
            let _s = span!(rec, Component::Align, names::SPAN_ALIGN_BATCH, {
                pairs: tasks.len() as u64,
            });
            aligner.run_batch_parallel(&tasks, |id| store.seq(id as usize), cfg.align_threads)
        };
        rec.add_counter(
            names::CTR_PREFILTER_CANDIDATES,
            (prefilter_candidates - rank_candidates_before) as f64,
        );
        rec.add_counter(names::CTR_ALIGNED_PAIRS, tasks.len() as f64);
        aligned_pairs += tasks.len() as u64;
        for ((task, res), &shared) in tasks.iter().zip(&results).zip(&shared_counts) {
            let qs = store.seq(task.query as usize);
            let rs = store.seq(task.reference as usize);
            if filter.passes(res, qs.len(), rs.len()) {
                graph.add(SimilarityEdge {
                    i: task.query,
                    j: task.reference,
                    score: res.score,
                    ani: res.identity() as f32,
                    coverage: res.coverage_min(qs.len(), rs.len()) as f32,
                    common_kmers: shared,
                });
            }
        }
        if let Some(dir) = ckpt_dir {
            let ck = BaselineCheckpoint {
                fingerprint: fp,
                units_done: rank + 1,
                units: nranks,
                counters: vec![
                    (names::CTR_PREFILTER_CANDIDATES.into(), prefilter_candidates),
                    (names::CTR_ALIGNED_PAIRS.into(), aligned_pairs),
                    ("index_bytes_per_rank".into(), index_bytes_per_rank),
                ],
                edges: graph.edges().to_vec(),
            };
            if let Err(e) = ckpt::save(dir, &ck) {
                // Checkpointing is best-effort: a full disk degrades to
                // "no restart point", never to a failed search. The fault
                // family mirror puts a warning in the end-of-run report.
                rec.add_counter(names::CTR_CHECKPOINT_WRITE_FAILED, 1.0);
                rec.add_counter(names::CTR_FAULT_CKPT_SAVE_FAILED, 1.0);
                eprintln!("warning: baseline checkpoint save failed (unit {rank}): {e}");
            } else {
                rec.add_counter(names::CTR_CHECKPOINT_UNITS_WRITTEN, 1.0);
            }
        }
    }
    graph.normalize();
    MmseqsLikeReport {
        graph,
        prefilter_candidates,
        aligned_pairs,
        index_bytes_per_rank,
        ranks: nranks,
        wall_seconds: start.elapsed().as_secs_f64(),
        resumed_ranks,
    }
}

/// Digest of everything that determines this baseline's output: the
/// output-relevant config, the rank decomposition, and the input residues.
/// `align_threads` and the checkpoint knobs are deliberately excluded.
fn fingerprint(store: &SeqStore, cfg: &MmseqsLikeConfig, nranks: usize) -> u64 {
    let mut h = 0x4d4d_5345_5153_4c4bu64; // "MMSEQSLK"
    h = digest_u64(h, cfg.k as u64);
    h = digest_bytes(h, format!("{:?}", cfg.alphabet).as_bytes());
    h = digest_u64(h, cfg.min_shared_kmers as u64);
    h = digest_u64(h, cfg.gaps.open as u64);
    h = digest_u64(h, cfg.gaps.extend as u64);
    h = digest_u64(h, cfg.ani_threshold.to_bits());
    h = digest_u64(h, cfg.coverage_threshold.to_bits());
    h = digest_bytes(h, format!("{:?}", cfg.mode).as_bytes());
    h = digest_u64(h, nranks as u64);
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

    fn cfg() -> MmseqsLikeConfig {
        MmseqsLikeConfig {
            k: 4,
            min_shared_kmers: 1,
            ani_threshold: 0.3,
            coverage_threshold: 0.3,
            ..MmseqsLikeConfig::default()
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
        let r = run_mmseqs_like(&tiny_store(), &cfg(), 1);
        let keys: Vec<_> = r.graph.edges().iter().map(|e| e.key()).collect();
        assert!(keys.contains(&(0, 1)));
        assert!(keys.contains(&(2, 3)));
        assert!(!keys.contains(&(0, 2)));
    }

    #[test]
    fn rank_count_does_not_change_results() {
        let store = tiny_store();
        let base = run_mmseqs_like(&store, &cfg(), 1);
        for nranks in [2usize, 3, 5] {
            let r = run_mmseqs_like(&store, &cfg(), nranks);
            assert_eq!(r.graph.edges(), base.graph.edges(), "nranks={nranks}");
        }
    }

    #[test]
    fn replicated_memory_never_shrinks_with_ranks() {
        // The architectural weakness: per-rank memory is bounded below by
        // the replicated set, no matter how many ranks are added — the
        // chunked side shrinks, the replicated side cannot.
        let store = tiny_store();
        let replicated_floor = store.total_residues() as u64;
        for nranks in [1usize, 2, 4, 8] {
            let t = run_mmseqs_like(&store, &cfg(), nranks);
            assert!(
                t.index_bytes_per_rank >= replicated_floor,
                "target-split nranks={nranks}"
            );
        }
        // Query-split replicates the whole reference *index*: per-rank
        // bytes are essentially constant in the rank count.
        let qcfg = MmseqsLikeConfig {
            mode: SplitMode::QuerySplit,
            ..cfg()
        };
        let q1 = run_mmseqs_like(&store, &qcfg, 1);
        let q8 = run_mmseqs_like(&store, &qcfg, 8);
        assert_eq!(q8.index_bytes_per_rank, q1.index_bytes_per_rank);
    }

    #[test]
    fn align_thread_count_does_not_change_results() {
        let store = tiny_store();
        let base = run_mmseqs_like(&store, &cfg(), 2);
        for threads in [2usize, 4, 0] {
            let r = run_mmseqs_like(
                &store,
                &MmseqsLikeConfig {
                    align_threads: threads,
                    ..cfg()
                },
                2,
            );
            assert_eq!(r.graph.edges(), base.graph.edges(), "threads={threads}");
            assert_eq!(r.aligned_pairs, base.aligned_pairs);
        }
    }

    #[test]
    fn prefilter_thread_count_does_not_change_results() {
        let store = tiny_store();
        let base = run_mmseqs_like(&store, &cfg(), 2);
        for threads in [2usize, 4, 0] {
            let r = run_mmseqs_like(
                &store,
                &MmseqsLikeConfig {
                    prefilter_threads: threads,
                    ..cfg()
                },
                2,
            );
            assert_eq!(r.graph.edges(), base.graph.edges(), "threads={threads}");
            assert_eq!(r.prefilter_candidates, base.prefilter_candidates);
            assert_eq!(r.aligned_pairs, base.aligned_pairs);
        }
    }

    #[test]
    fn modes_agree_on_edges() {
        let store = tiny_store();
        let t = run_mmseqs_like(&store, &cfg(), 3);
        let q = run_mmseqs_like(
            &store,
            &MmseqsLikeConfig {
                mode: SplitMode::QuerySplit,
                ..cfg()
            },
            3,
        );
        assert_eq!(t.graph.edges(), q.graph.edges());
    }

    #[test]
    fn prefilter_threshold_prunes() {
        let store = tiny_store();
        let loose = run_mmseqs_like(&store, &cfg(), 1);
        // Identical 20-mers share 17 4-mers; the closest family pairs
        // (one substitution) share 13. A threshold of 16 excludes all
        // cross-sequence candidates.
        let strict = run_mmseqs_like(
            &store,
            &MmseqsLikeConfig {
                min_shared_kmers: 16,
                ..cfg()
            },
            1,
        );
        assert!(strict.prefilter_candidates < loose.prefilter_candidates);
        assert!(strict.aligned_pairs <= loose.aligned_pairs);
    }

    #[test]
    fn traced_run_emits_per_rank_phase_spans() {
        let store = tiny_store();
        let base = run_mmseqs_like(&store, &cfg(), 3);
        let session = TraceSession::new();
        let traced = run_mmseqs_like_traced(&store, &cfg(), 3, &session);
        // Observation-only.
        assert_eq!(traced.graph.edges(), base.graph.edges());
        assert_eq!(traced.aligned_pairs, base.aligned_pairs);
        let recs = session.recorders();
        assert_eq!(recs.len(), 3);
        let mut total_aligned = 0.0;
        for rec in &recs {
            let spans = rec.snapshot_spans();
            for name in [
                names::SPAN_INDEX_BUILD,
                names::SPAN_PREFILTER,
                names::SPAN_ALIGN_BATCH,
            ] {
                assert!(
                    spans.iter().any(|s| s.name == name),
                    "rank {} missing {name}",
                    rec.rank()
                );
            }
            total_aligned += rec.counters()[names::CTR_ALIGNED_PAIRS];
        }
        assert_eq!(total_aligned as u64, base.aligned_pairs);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let store = tiny_store();
        let dir = std::env::temp_dir().join(format!("pastis-mmseqs-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = run_mmseqs_like(&store, &cfg(), 3);
        let ccfg = MmseqsLikeConfig {
            checkpoint_dir: Some(dir.clone()),
            ..cfg()
        };
        // A checkpointing run changes nothing about the output.
        let checkpointed = run_mmseqs_like(&store, &ccfg, 3);
        assert_eq!(checkpointed.graph.edges(), base.graph.edges());
        assert!(checkpointed.resumed_ranks.is_none());
        // Simulate "killed after rank 2": drop the newest checkpoint, then
        // resume — ranks 0..2 restored, rank 2 recomputed, same output.
        std::fs::remove_file(crate::ckpt::baseline_ckpt_path(&dir, 3)).unwrap();
        let resumed = run_mmseqs_like(
            &store,
            &MmseqsLikeConfig {
                resume: true,
                ..ccfg.clone()
            },
            3,
        );
        assert_eq!(resumed.resumed_ranks, Some(2));
        assert_eq!(resumed.graph.edges(), base.graph.edges());
        assert_eq!(resumed.prefilter_candidates, base.prefilter_candidates);
        assert_eq!(resumed.aligned_pairs, base.aligned_pairs);
        // A config change (different k) invalidates the fingerprint: the
        // stale checkpoints are ignored, not resumed into the wrong run.
        let foreign = run_mmseqs_like(
            &store,
            &MmseqsLikeConfig {
                k: 5,
                resume: true,
                ..ccfg
            },
            3,
        );
        assert!(foreign.resumed_ranks.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_prefilter_index_is_reused_and_output_invariant() {
        let store = tiny_store();
        let dir = std::env::temp_dir().join(format!("pastis-mmseqs-pfidx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = run_mmseqs_like(&store, &cfg(), 3);
        let icfg = MmseqsLikeConfig {
            index_dir: Some(dir.clone()),
            ..cfg()
        };
        // First run builds and persists — nothing to reuse yet.
        let session = TraceSession::new();
        let built = run_mmseqs_like_traced(&store, &icfg, 3, &session);
        assert_eq!(built.graph.edges(), base.graph.edges());
        let reused: f64 = session
            .recorders()
            .iter()
            .map(|r| {
                r.counters()
                    .get(names::CTR_INDEX_PREFILTER_REUSED)
                    .copied()
                    .unwrap_or(0.0)
            })
            .sum();
        assert_eq!(reused as u64, 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);
        // Second run loads every rank's postings; output identical.
        let session = TraceSession::new();
        let loaded = run_mmseqs_like_traced(&store, &icfg, 3, &session);
        assert_eq!(loaded.graph.edges(), base.graph.edges());
        assert_eq!(loaded.prefilter_candidates, base.prefilter_candidates);
        assert_eq!(loaded.aligned_pairs, base.aligned_pairs);
        assert_eq!(loaded.index_bytes_per_rank, base.index_bytes_per_rank);
        let reused: f64 = session
            .recorders()
            .iter()
            .map(|r| {
                r.counters()
                    .get(names::CTR_INDEX_PREFILTER_REUSED)
                    .copied()
                    .unwrap_or(0.0)
            })
            .sum();
        assert_eq!(reused as u64, 3);
        // A config change (different k) invalidates the fingerprint: the
        // stale files are rebuilt, not served, and the output still
        // matches a from-scratch run at the new k.
        let k5 = MmseqsLikeConfig { k: 5, ..icfg };
        let session = TraceSession::new();
        let fresh_k5 = run_mmseqs_like_traced(&store, &k5, 3, &session);
        assert_eq!(
            fresh_k5.graph.edges(),
            run_mmseqs_like(&store, &MmseqsLikeConfig { k: 5, ..cfg() }, 3)
                .graph
                .edges()
        );
        let reused: f64 = session
            .recorders()
            .iter()
            .map(|r| {
                r.counters()
                    .get(names::CTR_INDEX_PREFILTER_REUSED)
                    .copied()
                    .unwrap_or(0.0)
            })
            .sum();
        assert_eq!(reused as u64, 0);
        // A corrupted postings file is rejected and rebuilt, never parsed
        // into a wrong index.
        let path = pfidx_path(&dir, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("dims", "dIms")).unwrap();
        let recovered = run_mmseqs_like(&store, &k5, 3);
        assert_eq!(recovered.graph.edges(), fresh_k5.graph.edges());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefilter_index_round_trips_and_rejects_mutations() {
        let store = tiny_store();
        let idx = KmerIndex::build(&store, 0..store.len(), &cfg());
        let text = idx.to_text(0xDEAD_BEEF, 2);
        let back = KmerIndex::parse(&text, 0xDEAD_BEEF, 2).unwrap();
        assert_eq!(back.bytes, idx.bytes);
        assert_eq!(back.map.len(), idx.map.len());
        for (k, v) in &idx.map {
            assert_eq!(back.map.get(k), Some(v), "postings for k-mer {k}");
        }
        // Reserialization is bit-identical (deterministic ordering).
        assert_eq!(back.to_text(0xDEAD_BEEF, 2), text);
        // Wrong binding, truncation, and bit flips are all typed errors.
        assert!(KmerIndex::parse(&text, 0xDEAD_BEE0, 2)
            .unwrap_err()
            .contains("stale"));
        assert!(KmerIndex::parse(&text, 0xDEAD_BEEF, 1)
            .unwrap_err()
            .contains("rank"));
        assert!(KmerIndex::parse(&text[..text.len() / 2], 0xDEAD_BEEF, 2).is_err());
        let mut flipped = text.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] = flipped[mid].wrapping_add(1);
        assert!(KmerIndex::parse(&String::from_utf8_lossy(&flipped), 0xDEAD_BEEF, 2).is_err());
    }

    #[test]
    fn failed_checkpoint_saves_are_counted_and_warned_not_fatal() {
        let store = tiny_store();
        let base = run_mmseqs_like(&store, &cfg(), 3);
        // A regular file where the checkpoint directory should be makes
        // every save fail; the search must still complete identically.
        let dir =
            std::env::temp_dir().join(format!("pastis-mmseqs-badckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::write(&dir, b"not a directory").unwrap();
        let session = TraceSession::new();
        let broken = run_mmseqs_like_traced(
            &store,
            &MmseqsLikeConfig {
                checkpoint_dir: Some(dir.clone()),
                ..cfg()
            },
            3,
            &session,
        );
        assert_eq!(broken.graph.edges(), base.graph.edges());
        let failed: f64 = session
            .recorders()
            .iter()
            .map(|r| {
                r.counters()
                    .get(names::CTR_FAULT_CKPT_SAVE_FAILED)
                    .copied()
                    .unwrap_or(0.0)
            })
            .sum();
        assert!(failed >= 3.0, "every unit's save should fail: {failed}");
        // The end-of-run report surfaces it as a warning line.
        let text =
            pastis_trace::render_report(&pastis_trace::MetricsReport::from_session(&session));
        assert!(text.contains("-- warnings --"), "{text}");
        assert!(text.contains("checkpoint save(s) failed"), "{text}");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn counters_are_coherent() {
        let r = run_mmseqs_like(&tiny_store(), &cfg(), 2);
        assert!(r.prefilter_candidates >= r.aligned_pairs);
        assert!(r.aligned_pairs >= r.graph.n_edges() as u64);
        assert!(r.index_bytes_per_rank > 0);
    }
}
