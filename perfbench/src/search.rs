//! The two batch-search workloads: `search_align` (alignment-bound) and
//! `search_sparse` (sparse-bound).

use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use pastis_align::matrices::Blosum62;
use pastis_align::{sw_align, AlignPool, AlignTask, GapPenalties};
use pastis_comm::{Communicator, ProcessGrid, SelfComm, TracedComm};
use pastis_core::filter::candidate_passes;
use pastis_core::{
    run_search, run_search_traced, BlockPlan, EdgeFilter, OverlapSemiring, SearchParams,
    SimilarityEdge, SimilarityGraph,
};
use pastis_pool::{Engine, WorkPool};
use pastis_seqio::fasta::parse_fasta;
use pastis_seqio::SeqStore;
use pastis_sparse::{BlockedSumma, SpGemmPool, Triples};
use pastis_trace::{CommOp, Recorder, TraceSession};

use crate::inputs;
use crate::layers::Layers;
use crate::util::{
    check_counter_record, fnv1a, guarded, median, peak_rss_mb, reset_peak_rss, tail, Outcome,
    SplitMix, TempDir,
};

/// Ingests of a traced run; `seqio.parse_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Timed searches per run, at least.
const MIN_REPS: usize = 3;
/// Emitted rows re-aligned with the scalar kernel per run.
pub const SAMPLE_ROWS: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Align,
    Sparse,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Align => "search_align",
            Kind::Sparse => "search_sparse",
        }
    }

    /// Timed searches of a `seconds`-long run. The count depends on the
    /// run length only, never on the program's speed, so every build
    /// measures the same sample.
    fn reps(self, seconds: f64) -> usize {
        let per_second = match self {
            Kind::Align => 1.6,
            Kind::Sparse => 0.5,
        };
        ((per_second * seconds).round() as usize).max(MIN_REPS)
    }
}

/// The workload's search parameters on `threads` workers of the unified
/// pool, 1 rank.
pub fn search_params(kind: Kind, threads: usize) -> SearchParams {
    let mut p = SearchParams {
        k: 5,
        threads: Some(threads),
        ..SearchParams::default()
    };
    if kind == Kind::Sparse {
        p.common_kmer_threshold = 10;
        p.block_rows = 4;
        p.block_cols = 4;
    }
    p
}

/// FASTA bytes → `SeqStore` through the library's parser.
pub fn ingest(fasta: &[u8]) -> Result<SeqStore, String> {
    let records = parse_fasta(Cursor::new(fasta)).map_err(|e| e.to_string())?;
    SeqStore::from_records(&records).map_err(|e| e.to_string())
}

/// The exact work counters of one search; equal on every run of a seed.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Exact {
    pub candidates: u64,
    pub aligned_pairs: u64,
    pub cells: u64,
    pub similar_pairs: u64,
    pub spgemm_products: u64,
    pub comm_bytes: u64,
    pub comm_messages: u64,
    pub tsv_rows: u64,
    pub tsv_digest: u64,
}

impl Exact {
    fn line(&self) -> String {
        format!(
            "candidates={} aligned_pairs={} cells={} similar_pairs={} spgemm_products={} \
             comm_bytes={} comm_messages={} tsv_rows={} tsv_digest={:016x}",
            self.candidates,
            self.aligned_pairs,
            self.cells,
            self.similar_pairs,
            self.spgemm_products,
            self.comm_bytes,
            self.comm_messages,
            self.tsv_rows,
            self.tsv_digest
        )
    }
}

/// One search from an in-memory store to the TSV bytes written to `out`;
/// returns its wall time, exact counters and the TSV text.
fn search_once(
    store: &SeqStore,
    params: &SearchParams,
    out: &Path,
) -> Result<(f64, Exact, String), String> {
    let grid = ProcessGrid::square(SelfComm::new());
    let t = Instant::now();
    let res = run_search(&grid, store, params)?;
    let tsv = render(&res.graph);
    std::fs::write(out, &tsv).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let wall = t.elapsed().as_secs_f64();
    let (mut bytes, mut messages) = (0, 0);
    for c in [grid.world(), grid.row_comm(), grid.col_comm()] {
        let s = c.stats();
        bytes += s.bytes;
        messages += s.broadcasts
            + s.all_gathers
            + s.all_to_allvs
            + s.reductions
            + s.barriers
            + s.p2p_messages;
    }
    let st = res.stats;
    let exact = Exact {
        candidates: st.candidates,
        aligned_pairs: st.aligned_pairs,
        cells: st.cells,
        similar_pairs: st.similar_pairs,
        spgemm_products: st.spgemm_products,
        comm_bytes: bytes,
        comm_messages: messages,
        tsv_rows: tsv.lines().count() as u64,
        tsv_digest: fnv1a(tsv.as_bytes()),
    };
    Ok((wall, exact, tsv))
}

fn render(graph: &SimilarityGraph) -> String {
    let mut tsv = String::with_capacity(graph.n_edges() * 32);
    for l in graph.to_tsv_lines() {
        tsv.push_str(&l);
        tsv.push('\n');
    }
    tsv
}

/// Re-align one emitted row (`i j ani coverage score common_kmers`) with
/// the scalar traceback kernel and compare score, identity and coverage
/// as the TSV renders them.
fn check_row(row: &str, q: &[u8], r: &[u8], gaps: GapPenalties) -> Result<(), String> {
    let f: Vec<&str> = row.split('\t').collect();
    if f.len() != 6 {
        return Err(format!("malformed row {row:?}"));
    }
    let res = sw_align(q, r, &Blosum62, gaps);
    let want = (
        format!("{:.4}", res.identity() as f32),
        format!("{:.4}", res.coverage_min(q.len(), r.len()) as f32),
        res.score.to_string(),
    );
    if (f[2], f[3], f[4]) != (want.0.as_str(), want.1.as_str(), want.2.as_str()) {
        return Err(format!(
            "row {row:?}: scalar sw_align gives ani {} coverage {} score {}",
            want.0, want.1, want.2
        ));
    }
    Ok(())
}

/// `n` seeded row indices (with replacement) of a `rows`-row output.
fn sample_rows(seed: u64, rows: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix(seed ^ 0x5A3D_1E77);
    (0..n).map(|_| rng.below(rows)).collect()
}

/// Re-align a seeded sample of `n` emitted rows with the scalar kernel;
/// `pair` maps a row's first two columns to its two sequences.
pub fn check_sample<'a>(
    out: &mut Outcome,
    seed: u64,
    rows: &[&str],
    n: usize,
    gaps: GapPenalties,
    pair: impl Fn(usize, usize) -> Option<(&'a [u8], &'a [u8])>,
) {
    if rows.is_empty() {
        out.fail("no rows were emitted".into());
        return;
    }
    for idx in sample_rows(seed, rows.len(), n) {
        let f: Vec<usize> = rows[idx]
            .split('\t')
            .take(2)
            .filter_map(|v| v.parse().ok())
            .collect();
        let checked = match f[..] {
            [i, j] => pair(i, j).map(|(q, r)| check_row(rows[idx], q, r, gaps)),
            _ => None,
        };
        match checked {
            Some(Ok(())) => {}
            Some(Err(e)) => out.fail(e),
            None => out.fail(format!("row {:?} names no sequence pair", rows[idx])),
        }
    }
}

/// The run's input sets. `search_align` searches a corpus of independent
/// draws, each once: one family-rich draw of a few hundred sequences still
/// varies by about ±8 % in alignment work from seed to seed, and the median
/// over the corpus does not. `search_sparse` repeats one large draw, which
/// is already steady.
fn corpus(kind: Kind, seed: u64, seconds: f64) -> Vec<Vec<u8>> {
    match kind {
        Kind::Align => {
            let mut sub = SplitMix(seed);
            (0..kind.reps(seconds))
                .map(|_| inputs::search_align(sub.next_u64()))
                .collect()
        }
        Kind::Sparse => vec![inputs::search_sparse(seed)],
    }
}

/// Ingest every FASTA of `fastas`: the time it took, and the stores.
fn ingest_all(fastas: &[Vec<u8>]) -> Result<(f64, Vec<SeqStore>), String> {
    let t = Instant::now();
    let stores = fastas.iter().map(|f| ingest(f)).collect::<Result<_, _>>()?;
    Ok((t.elapsed().as_secs_f64(), stores))
}

/// Fold one set's counters into the run's: sums, and a digest over the
/// sets' digests in corpus order.
fn fold(total: &mut Exact, e: &Exact) {
    total.candidates += e.candidates;
    total.aligned_pairs += e.aligned_pairs;
    total.cells += e.cells;
    total.similar_pairs += e.similar_pairs;
    total.spgemm_products += e.spgemm_products;
    total.comm_bytes += e.comm_bytes;
    total.comm_messages += e.comm_messages;
    total.tsv_rows += e.tsv_rows;
    let mut both = total.tsv_digest.to_le_bytes().to_vec();
    both.extend_from_slice(&e.tsv_digest.to_le_bytes());
    total.tsv_digest = fnv1a(&both);
}

/// The untraced run: end-to-end metrics and every output check.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let fastas = corpus(kind, seed, seconds);
    // The first ingest warms the allocator and the clock up and is not
    // counted; `setup_s` is the median of one more before each search, so
    // its samples spread over the run like the searches' own.
    let (_, stores) = ingest_all(&fastas)?;
    let mut setup = Vec::new();
    let params = search_params(kind, 2);
    let tmp = TempDir::new(kind.name())?;
    let out_path = tmp.0.join("out.tsv");
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut first: Vec<Option<(Exact, String)>> = vec![None; stores.len()];

    let mut peaks = Vec::new();
    for r in 0..kind.reps(seconds) {
        let set = r % stores.len();
        out.attempted += 1;
        setup.push(ingest_all(&fastas)?.0);
        reset_peak_rss()?;
        let res = guarded(|| search_once(&stores[set], &params, &out_path));
        peaks.push(peak_rss_mb()?);
        match res {
            Ok((wall, exact, tsv)) => {
                walls.push(wall);
                rates.push(exact.aligned_pairs as f64 / wall);
                match &first[set] {
                    None => first[set] = Some((exact, tsv)),
                    Some((e, _)) if *e != exact => out.fail(format!(
                        "search {r} repeats set {set} with other counters:\n  first: {}\n  now:   {}",
                        e.line(),
                        exact.line()
                    )),
                    Some(_) => {}
                }
            }
            Err(e) => out.fail(format!("search {r} failed: {e}")),
        }
    }
    if walls.is_empty() {
        return Err(format!("no search succeeded: {}", out.errors.join("; ")));
    }
    let mut total = Exact::default();
    for (set, f) in first.iter().enumerate() {
        let Some((exact, tsv)) = f else { continue };
        fold(&mut total, exact);
        let store = &stores[set];
        let rows: Vec<&str> = tsv.lines().collect();
        let sample = SAMPLE_ROWS.div_ceil(stores.len());
        check_sample(
            &mut out,
            seed ^ set as u64,
            &rows,
            sample,
            params.gaps,
            |i, j| (i < store.len() && j < store.len()).then(|| (store.seq(i), store.seq(j))),
        );
    }
    let counters = total.line();
    let key = format!("{}-{seed}-{}-untraced", kind.name(), kind.reps(seconds));
    if let Some(m) = check_counter_record(&key, &counters)? {
        out.fail(m);
    }
    out.note(format!("counters: {counters}"));

    let wall = median(&walls);
    let (tail_s, pct) = tail(&walls);
    let n_seqs: usize = stores.iter().map(SeqStore::len).sum();
    out.note(format!(
        "searches: {} over {} set(s) of {n_seqs} sequences in all; tail = p{pct:.1} of n={}",
        walls.len(),
        stores.len(),
        walls.len()
    ));
    out.metric("wall_s", wall, "s");
    out.metric("alignments_per_s", median(&rates), "1/s");
    out.metric("peak_rss_mb", median(&peaks), "MB");
    out.metric("setup_s", median(&setup), "s");
    out.metric("request_p50_s", wall, "s");
    out.metric("request_tail_s", tail_s, "s");
    Ok(out)
}

/// The search composed from the layers' public calls, each call timed
/// from here: the pipeline's steps for one rank, over a counting
/// `TracedComm<SelfComm>`.
fn composed(store: &SeqStore, params: &SearchParams, out: &Path) -> Result<(Layers, u64), String> {
    let mut l = Layers::default();
    let session = TraceSession::new();
    let rec = session.recorder(0);
    let grid = ProcessGrid::square(TracedComm::new(SelfComm::new(), rec.clone()));
    let n = store.len();
    let keep_min = |acc: &mut u32, inc: u32| {
        if inc < *acc {
            *acc = inc;
        }
    };

    // kmer: A's triples, compacted k-mer columns, Aᵀ, and the stripes.
    let t = Instant::now();
    let a = pastis_core::kmer_matrix_triples(store, 0, n, params.k, params.alphabet);
    let mut col_map: Vec<u32> = a.entries.iter().map(|e| e.col).collect();
    col_map.sort_unstable();
    col_map.dedup();
    let col_map: Vec<u32> = grid.world().all_gather(col_map).concat();
    let mut compact = Triples::new(n, col_map.len().max(1));
    for e in a.entries {
        let col = col_map.binary_search(&e.col).expect("k-mer id present") as u32;
        compact.push(e.row, col, e.val);
    }
    l.kmer_nnz = compact.entries.len() as u64;
    let at = compact.clone().transpose();
    let bs = BlockedSumma::from_triples(
        &grid,
        compact,
        at,
        params.block_rows.min(n.max(1)),
        params.block_cols.min(n.max(1)),
        keep_min,
        keep_min,
    );
    l.kmer_s = t.elapsed().as_secs_f64();

    let plan = BlockPlan::new(
        params.load_balance,
        bs.br(),
        bs.bc(),
        |r| bs.row_range(r),
        |c| bs.col_range(c),
    );
    let wp = WorkPool::sized(params.threads.unwrap_or(1));
    wp.set_cap(Engine::Align, params.align_cap);
    wp.set_cap(Engine::Sparse, params.spgemm_cap);
    let spgemm = SpGemmPool::new(params.spgemm_threads)
        .with_kind(params.spgemm)
        .with_workers(wp.clone());
    let simd = params.simd.resolve()?;
    let pool = AlignPool::new(params.align_threads)
        .with_simd(simd)
        .with_workers(wp);
    let filter = EdgeFilter::from_params(params);
    let mut graph = SimilarityGraph::new(n);

    for &task in &plan.tasks {
        // sparse: one block of the Blocked 2D SUMMA.
        let t = Instant::now();
        let (cblock, gs) = bs.multiply_block_overlapped(
            &grid,
            &OverlapSemiring,
            task.r,
            task.c,
            &spgemm,
            params.overlap,
        );
        l.spgemm_s += t.elapsed().as_secs_f64();
        l.products += gs.products;
        l.candidates += cblock.nnz_local() as u64;
        l.block_nnz_max = l.block_nnz_max.max(cblock.nnz_local() as u64);

        // pipeline: load-balance pruning and the common-k-mer threshold,
        // aligned in canonical orientation (query = lower id).
        let t = Instant::now();
        let row_offset = bs.row_range(task.r).0 + cblock.row_offset();
        let col_offset = bs.col_range(task.c).0 + cblock.col_offset();
        let pruned = plan.prune_local(task, cblock.local(), row_offset, col_offset);
        let mut tasks = Vec::with_capacity(pruned.nnz());
        let mut counts = Vec::with_capacity(pruned.nnz());
        for (li, lj, ck) in pruned.iter() {
            if !candidate_passes(ck, params.common_kmer_threshold) {
                continue;
            }
            let (sq, sr) = ck.first_seed().unwrap_or((0, 0));
            let (gi, gj) = (
                (li as usize + row_offset) as u32,
                (lj as usize + col_offset) as u32,
            );
            tasks.push(if gi <= gj {
                AlignTask {
                    query: gi,
                    reference: gj,
                    seed_q: sq,
                    seed_r: sr,
                }
            } else {
                AlignTask {
                    query: gj,
                    reference: gi,
                    seed_q: sr,
                    seed_r: sq,
                }
            });
            counts.push(ck.count);
        }
        l.filter_s += t.elapsed().as_secs_f64();

        // align + pool: the batch through the unified pool.
        let t = Instant::now();
        let (results, bstats) =
            pool.run_traceback(&tasks, |id| store.seq(id as usize), &Blosum62, params.gaps);
        l.align_s += t.elapsed().as_secs_f64();
        l.pairs += tasks.len() as u64;
        l.cells += bstats.cells;
        l.cpu_s += bstats.seconds;

        // pipeline: edges into the similarity graph.
        let t = Instant::now();
        for ((at, res), &count) in tasks.iter().zip(&results).zip(&counts) {
            let (qlen, rlen) = (
                store.seq_len(at.query as usize),
                store.seq_len(at.reference as usize),
            );
            if filter.passes(res, qlen, rlen) {
                l.similar += 1;
                graph.add(SimilarityEdge {
                    i: at.query,
                    j: at.reference,
                    score: res.score,
                    ani: res.identity() as f32,
                    coverage: res.coverage_min(qlen, rlen) as f32,
                    common_kmers: count,
                });
            }
        }
        l.output_s += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    graph.normalize();
    let tsv = render(&graph);
    std::fs::write(out, &tsv).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    l.output_s += t.elapsed().as_secs_f64();

    for ev in rec.snapshot_comms() {
        if ev.op == CommOp::Broadcast {
            l.bcast_bytes += ev.bytes;
        }
        l.messages += 1;
        l.wait_s += ev.wait_s;
    }
    Ok((l, fnv1a(tsv.as_bytes())))
}

/// `run_search_traced` with an enabled recorder over a `TracedComm`.
fn traced_search_once(
    store: &SeqStore,
    params: &SearchParams,
    out: &Path,
) -> Result<(f64, u64), String> {
    let session = TraceSession::new();
    let rec: Recorder = session.recorder(0);
    let grid = ProcessGrid::square(TracedComm::new(SelfComm::new(), rec.clone()));
    let t = Instant::now();
    let res = run_search_traced(&grid, store, params, &rec)?;
    let tsv = render(&res.graph);
    std::fs::write(out, &tsv).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok((t.elapsed().as_secs_f64(), fnv1a(tsv.as_bytes())))
}

/// Sets of the corpus the traced run covers; each is searched four ways.
const TRACED_SETS: usize = 3;

/// The traced run: per-layer metrics from the composed calls, checked
/// against untraced runs of the same input. Each set is searched untraced,
/// traced (`run_search_traced`, enabled recorder), on one thread, and
/// composed; every metric is a total over the sets.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut fastas = corpus(kind, seed, seconds);
    fastas.truncate(TRACED_SETS);
    let (_, stores) = ingest_all(&fastas)?;
    let mut parse = Vec::new();
    for _ in 0..SETUP_REPS {
        parse.push(ingest_all(&fastas)?.0);
    }
    let params = search_params(kind, 2);
    let tmp = TempDir::new(kind.name())?;
    let out_path = tmp.0.join("out.tsv");
    let mut out = Outcome::default();
    let (mut wall, mut wall_1t, mut wall_traced) = (0.0, 0.0, 0.0);
    let mut layers = Layers::default();
    let mut total = Exact::default();

    for (set, store) in stores.iter().enumerate() {
        out.attempted += 4;
        let mut probe = || -> Result<(), String> {
            let (w, reference, _) = guarded(|| search_once(store, &params, &out_path))?;
            let (wt, digest) = guarded(|| traced_search_once(store, &params, &out_path))?;
            if digest != reference.tsv_digest {
                return Err("the traced search's TSV differs from the untraced one".into());
            }
            let (w1, one, _) = guarded(|| search_once(store, &search_params(kind, 1), &out_path))?;
            if one != reference {
                return Err(format!(
                    "the 1-thread search differs:\n  2 threads: {}\n  1 thread:  {}",
                    reference.line(),
                    one.line()
                ));
            }
            let (l, digest) = guarded(|| composed(store, &params, &out_path))?;
            let got = [
                l.candidates,
                l.pairs,
                l.cells,
                l.similar,
                l.products,
                digest,
            ];
            let want = [
                reference.candidates,
                reference.aligned_pairs,
                reference.cells,
                reference.similar_pairs,
                reference.spgemm_products,
                reference.tsv_digest,
            ];
            if got != want {
                return Err(format!(
                    "composed [candidates, aligned, cells, similar, products, digest] {got:?} \
                     differ from run_search's {want:?}"
                ));
            }
            wall += w;
            wall_traced += wt;
            wall_1t += w1;
            layers.add(&l);
            fold(&mut total, &reference);
            Ok(())
        };
        if let Err(e) = probe() {
            out.fail(format!("set {set}: {e}"));
        }
    }
    if layers.pairs == 0 {
        return Err(format!("no set passed: {}", out.errors.join("; ")));
    }
    let key = format!("{}-{seed}-{}-traced", kind.name(), stores.len());
    if let Some(m) = check_counter_record(&key, &total.line())? {
        out.fail(m);
    }
    out.note(format!("counters: {}", total.line()));
    out.note(format!(
        "sets: {}; untraced wall {wall:.4} s; traced {wall_traced:.4} s; 1-thread {wall_1t:.4} s",
        stores.len()
    ));

    out.metric("seqio.parse_s", median(&parse), "s");
    out.metric(
        "seqio.bytes",
        fastas.iter().map(Vec::len).sum::<usize>() as f64,
        "B",
    );
    layers.emit(&mut out, wall);
    out.metric("pool.speedup_vs_1t", wall_1t / wall, "ratio");
    // Off this workload's path: no index, no serving.
    out.metric("index.build_s", 0.0, "s");
    out.metric("index.shard_bytes", 0.0, "B");
    out.metric("index.load_s", 0.0, "s");
    for name in [
        "serve.stripe_loads_per_req",
        "serve.batches",
        "serve.aligned_pairs",
        "serve.cells",
    ] {
        out.metric(name, 0.0, "count");
    }
    out.metric("serve.cache_hit_ratio", 0.0, "ratio");
    out.metric("serve.other_s", 0.0, "s");
    out.metric("trace.overhead_ratio", wall_traced / wall, "ratio");
    Ok(out)
}
