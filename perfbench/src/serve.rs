//! The `serve_stream` workload: a closed loop with one client sending
//! small requests of held-out homologs to a long-lived persisted index.

use std::time::Instant;

use pastis_align::matrices::Blosum62;
use pastis_align::{AlignPool, AlignTask};
use pastis_core::filter::candidate_passes;
use pastis_core::{
    build_index, serve_queries, serve_queries_traced, EdgeFilter, IndexBuildConfig,
    IndexBuildReport, OverlapSemiring, PersistedIndex, SearchParams, ServeConfig, ServeStats,
    SimilarityEdge,
};
use pastis_pool::{Engine, WorkPool};
use pastis_seqio::SeqStore;
use pastis_sparse::{CsrMatrix, SpGemmPool, Triples};
use pastis_trace::{Recorder, TraceSession};

use crate::inputs;
use crate::layers::Layers;
use crate::search::{check_sample, ingest, SAMPLE_ROWS};
use crate::util::{
    check_counter_record, fnv1a, guarded, median, peak_rss_mb, reset_peak_rss, tail, trim_heap,
    Outcome, TempDir,
};

/// Queries per request.
const REQUEST_QUERIES: usize = 4;
/// Requests sent per second of `--seconds`: the stream has a fixed length
/// for a given run length, so its wall time compares across builds.
const REQUESTS_PER_SECOND: f64 = 5.0;
/// Counted index builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Requests served to measure peak RSS, and in the traced run's
/// single-thread and tracing-overhead probes.
const PROBE_REQUESTS: usize = 8;

fn params(threads: usize) -> SearchParams {
    SearchParams {
        k: 5,
        threads: Some(threads),
        ..SearchParams::default()
    }
}

fn index_config(p: &SearchParams) -> IndexBuildConfig {
    IndexBuildConfig {
        k: p.k,
        alphabet: p.alphabet,
        substitute_kmers: p.substitute_kmers,
        ..IndexBuildConfig::default()
    }
}

/// Inputs, the requests, and the built index of one run.
struct Setup {
    ref_bytes: usize,
    query_bytes: usize,
    parse_s: f64,
    refs: SeqStore,
    requests: Vec<SeqStore>,
    build_s: f64,
    report: IndexBuildReport,
    index: PersistedIndex,
    _tmp: TempDir,
}

fn setup(seed: u64, n_requests: usize, parse_reps: usize) -> Result<Setup, String> {
    let (ref_fasta, query_fasta) = inputs::serve_stream(seed);
    let mut parse = Vec::new();
    let mut stores = None;
    for _ in 0..parse_reps {
        let t = Instant::now();
        let s = (ingest(&ref_fasta)?, ingest(&query_fasta)?);
        parse.push(t.elapsed().as_secs_f64());
        stores = Some(s);
    }
    let (refs, queries) = stores.expect("parse_reps > 0");
    if queries.len() < n_requests * REQUEST_QUERIES {
        return Err(format!(
            "{} held-out queries cannot fill {n_requests} requests",
            queries.len()
        ));
    }
    let requests = (0..n_requests)
        .map(|r| {
            let ids: Vec<usize> = (r * REQUEST_QUERIES..(r + 1) * REQUEST_QUERIES).collect();
            queries.subset(&ids)
        })
        .collect();

    let tmp = TempDir::new("serve_stream")?;
    let dir = tmp.0.join("index");
    let cfg = index_config(&params(2));
    let mut builds = Vec::new();
    let mut built = None;
    // The first build warms the allocator and the page cache up and is
    // not counted.
    for rep in 0..=SETUP_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let report = build_index(&refs, &cfg, &dir, &Recorder::disabled())?;
        let index = PersistedIndex::open(&dir)?;
        if rep > 0 {
            builds.push(t.elapsed().as_secs_f64());
        }
        built = Some((report, index));
    }
    let (report, index) = built.expect("SETUP_REPS > 0");
    Ok(Setup {
        ref_bytes: ref_fasta.len(),
        query_bytes: query_fasta.len(),
        parse_s: median(&parse),
        refs,
        requests,
        build_s: median(&builds),
        report,
        index,
        _tmp: tmp,
    })
}

fn n_requests(seconds: f64) -> usize {
    ((REQUESTS_PER_SECOND * seconds).round() as usize).max(1)
}

/// Request rows renumbered from request-local query ids to stream ids.
fn renumber(lines: &[String], base: usize, into: &mut Vec<String>) -> Result<(), String> {
    for l in lines {
        let (q, rest) = l
            .split_once('\t')
            .ok_or_else(|| format!("malformed row {l:?}"))?;
        let q: usize = q.parse().map_err(|_| format!("malformed row {l:?}"))?;
        into.push(format!("{}\t{rest}", base + q));
    }
    Ok(())
}

fn add_stats(sum: &mut ServeStats, s: &ServeStats) {
    sum.requests += s.requests;
    sum.batches += s.batches;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
    sum.candidates += s.candidates;
    sum.aligned_pairs += s.aligned_pairs;
    sum.cells += s.cells;
    sum.emitted += s.emitted;
    sum.stripes_loaded += s.stripes_loaded;
}

/// The request stream in a closed loop: per-request latencies, summed
/// counters, and every row renumbered into stream order.
struct Stream {
    latencies: Vec<f64>,
    wall: f64,
    stats: ServeStats,
    rows: Vec<String>,
    sent: Vec<usize>,
}

fn run_stream(out: &mut Outcome, s: &Setup, requests: usize, cfg: &ServeConfig) -> Stream {
    let mut st = Stream {
        latencies: Vec::new(),
        wall: 0.0,
        stats: ServeStats::default(),
        rows: Vec::new(),
        sent: Vec::new(),
    };
    let start = Instant::now();
    for (r, req) in s.requests[..requests].iter().enumerate() {
        out.attempted += 1;
        let t = Instant::now();
        let res = guarded(|| serve_queries(&s.index, req, cfg));
        let lat = t.elapsed().as_secs_f64();
        match res.and_then(|o| {
            renumber(&o.lines, r * REQUEST_QUERIES, &mut st.rows)?;
            Ok(o.stats)
        }) {
            Ok(stats) => {
                st.latencies.push(lat);
                st.sent.push(r);
                add_stats(&mut st.stats, &stats);
            }
            Err(e) => out.fail(format!("request {r} failed: {e}")),
        }
    }
    st.wall = start.elapsed().as_secs_f64();
    st
}

fn exact_line(st: &Stream) -> String {
    let s = &st.stats;
    format!(
        "requests={} batches={} cache_hits={} candidates={} aligned_pairs={} cells={} \
         emitted={} stripes_loaded={} rows={} rows_digest={:016x}",
        s.requests,
        s.batches,
        s.cache_hits,
        s.candidates,
        s.aligned_pairs,
        s.cells,
        s.emitted,
        s.stripes_loaded,
        st.rows.len(),
        fnv1a(st.rows.join("\n").as_bytes())
    )
}

/// The untraced run: end-to-end metrics and every output check.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let n = n_requests(seconds);
    let s = setup(seed, n, 1)?;
    let cfg = ServeConfig::from_params(params(2));
    let mut out = Outcome::default();

    let peak_rss = request_peak_rss(&s, &cfg)?;
    let st = run_stream(&mut out, &s, n, &cfg);
    if st.latencies.is_empty() {
        return Err(format!("no request succeeded: {}", out.errors.join("; ")));
    }

    // The rows of all requests, concatenated, must be those of one
    // whole-stream call over the same queries.
    out.attempted += 1;
    let mut all = SeqStore::new();
    for &r in &st.sent {
        let req = &s.requests[r];
        for i in 0..req.len() {
            all.push(req.id(i).to_string(), req.seq(i).to_vec());
        }
    }
    let whole = guarded(|| serve_queries(&s.index, &all, &cfg)).and_then(|o| {
        // The whole call numbers only the sent requests' queries.
        let mut rows = Vec::new();
        for l in &o.lines {
            let (q, rest) = l.split_once('\t').ok_or("malformed row")?;
            let q: usize = q.parse().map_err(|_| "malformed row")?;
            let r = st.sent[q / REQUEST_QUERIES];
            rows.push(format!(
                "{}\t{rest}",
                r * REQUEST_QUERIES + q % REQUEST_QUERIES
            ));
        }
        Ok((rows, o.stats))
    });
    match whole {
        Ok((rows, ws)) => {
            if rows != st.rows {
                out.fail(format!(
                    "the requests' rows ({}) differ from one whole-stream call's ({})",
                    st.rows.len(),
                    rows.len()
                ));
            }
            let per = &st.stats;
            if (ws.candidates, ws.aligned_pairs, ws.cells, ws.emitted)
                != (per.candidates, per.aligned_pairs, per.cells, per.emitted)
            {
                out.fail("whole-stream counters differ from the requests' sums".into());
            }
        }
        Err(e) => out.fail(format!("whole-stream call failed: {e}")),
    }
    let rows: Vec<&str> = st.rows.iter().map(String::as_str).collect();
    check_sample(
        &mut out,
        seed,
        &rows,
        SAMPLE_ROWS,
        cfg.params.gaps,
        |q, j| {
            let req = s.requests.get(q / REQUEST_QUERIES)?;
            (j < s.refs.len()).then(|| (req.seq(q % REQUEST_QUERIES), s.refs.seq(j)))
        },
    );
    let counters = exact_line(&st);
    if let Some(m) = check_counter_record(&format!("serve_stream-{seed}-{n}-untraced"), &counters)?
    {
        out.fail(m);
    }
    out.note(format!("counters: {counters}"));

    let (tail_s, pct) = tail(&st.latencies);
    out.note(format!(
        "requests: {} of {REQUEST_QUERIES} queries against {} references; tail = p{pct:.1} of n={}",
        st.latencies.len(),
        s.refs.len(),
        st.latencies.len()
    ));
    out.metric("wall_s", st.wall, "s");
    out.metric(
        "alignments_per_s",
        st.stats.aligned_pairs as f64 / st.wall,
        "1/s",
    );
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("setup_s", s.build_s, "s");
    out.metric("request_p50_s", median(&st.latencies), "s");
    out.metric("request_tail_s", tail_s, "s");
    Ok(out)
}

/// Peak RSS of a request: the lowest of the peaks of the first
/// [`PROBE_REQUESTS`] requests, served ahead of the timed stream, each
/// started with the allocator's free memory returned to the kernel.
/// Measured inside the stream, the mark would mostly show what earlier
/// requests' worker threads left cached and fragmented in their arenas,
/// which grows with the stream and differs from run to run; trimming there
/// would add page faults to the timed requests. From one call to the next
/// a request's peak lands on one of two levels about 3 MB apart, and only
/// the lower level repeats from run to run.
fn request_peak_rss(s: &Setup, cfg: &ServeConfig) -> Result<f64, String> {
    let mut peak = f64::INFINITY;
    for req in &s.requests[..PROBE_REQUESTS.min(s.requests.len())] {
        trim_heap();
        reset_peak_rss()?;
        serve_queries(&s.index, req, cfg)?;
        peak = peak.min(peak_rss_mb()?);
    }
    Ok(peak)
}

/// One request composed from the layers' public calls, the way a serve
/// batch runs them: every stripe loaded, the query operand, the striped
/// SpGEMM, candidate selection, alignment, and the hit rows.
struct Composer<'a> {
    index: &'a PersistedIndex,
    p: &'a SearchParams,
    spgemm: SpGemmPool,
    pool: AlignPool,
}

impl Composer<'_> {
    /// Compose request `req`, whose first query has stream id `base`.
    fn request(
        &self,
        l: &mut Layers,
        req: &SeqStore,
        base: usize,
        rows: &mut Vec<String>,
    ) -> Result<(), String> {
        let (index, p) = (self.index, self.p);
        let manifest = &index.manifest;
        let mut stripes = Vec::with_capacity(manifest.n_stripes);
        for s in 0..manifest.n_stripes {
            let t = Instant::now();
            stripes.push(index.load_stripe(s)?);
            l.load_s.push(t.elapsed().as_secs_f64());
            l.stripes_loaded += 1;
        }

        let t = Instant::now();
        let bn = req.len();
        let tr: Triples<u32> = pastis_core::kmer_matrix_triples(req, 0, bn, p.k, p.alphabet);
        let mut compact = Triples::new(bn, manifest.inner_dim());
        for e in &tr.entries {
            if let Ok(c) = manifest.col_map.binary_search(&e.col) {
                compact.push(e.row, c as u32, e.val);
            }
        }
        l.kmer_nnz += compact.entries.len() as u64;
        let a = CsrMatrix::from_triples_combining(compact, |acc: &mut u32, inc: u32| {
            if inc < *acc {
                *acc = inc;
            }
        });
        l.kmer_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (c, gs) = self
            .spgemm
            .multiply_striped(&OverlapSemiring, &a, stripes.iter());
        l.spgemm_s += t.elapsed().as_secs_f64();
        l.products += gs.products;
        l.candidates += c.nnz() as u64;
        l.block_nnz_max = l.block_nnz_max.max(c.nnz() as u64);

        let t = Instant::now();
        let mut tasks = Vec::new();
        let mut owners = Vec::new();
        for li in 0..bn {
            let (cols, vals) = c.row(li);
            for (&lj, ck) in cols.iter().zip(vals) {
                if !candidate_passes(ck, p.common_kmer_threshold) {
                    continue;
                }
                let (sq, sr) = ck.first_seed().unwrap_or((0, 0));
                tasks.push(AlignTask {
                    query: li as u32,
                    reference: bn as u32 + lj,
                    seed_q: sq,
                    seed_r: sr,
                });
                owners.push((li, lj, ck.count));
            }
        }
        l.filter_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let lookup = |id: u32| -> &[u8] {
            let id = id as usize;
            if id < bn {
                req.seq(id)
            } else {
                index.refs.seq(id - bn)
            }
        };
        let (results, bstats) = self.pool.run_traceback(&tasks, lookup, &Blosum62, p.gaps);
        l.align_s += t.elapsed().as_secs_f64();
        l.pairs += tasks.len() as u64;
        l.cells += bstats.cells;
        l.cpu_s += bstats.seconds;

        let t = Instant::now();
        let filter = EdgeFilter::from_params(p);
        for (&(li, j, count), res) in owners.iter().zip(&results) {
            let (qlen, rlen) = (req.seq_len(li), index.refs.seq_len(j as usize));
            if filter.passes(res, qlen, rlen) {
                l.similar += 1;
                let e = SimilarityEdge {
                    i: (base + li) as u32,
                    j,
                    score: res.score,
                    ani: res.identity() as f32,
                    coverage: res.coverage_min(qlen, rlen) as f32,
                    common_kmers: count,
                };
                rows.push(e.to_tsv());
            }
        }
        l.output_s += t.elapsed().as_secs_f64();
        Ok(())
    }
}

/// Time `serve_queries_traced` over the probe requests with `rec`, or
/// `serve_queries` on `threads` workers when `rec` is `None`.
fn probe(s: &Setup, threads: usize, rec: Option<&Recorder>) -> Result<f64, String> {
    let cfg = ServeConfig::from_params(params(threads));
    let t = Instant::now();
    for req in &s.requests[..PROBE_REQUESTS.min(s.requests.len())] {
        match rec {
            Some(r) => serve_queries_traced(&s.index, req, &cfg, r)?,
            None => serve_queries(&s.index, req, &cfg)?,
        };
    }
    Ok(t.elapsed().as_secs_f64())
}

/// The traced run: per-layer metrics from the composed calls, checked
/// against the untraced stream over the same requests.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    // Half the untraced stream: the traced run serves it twice.
    let n = n_requests(seconds / 2.0);
    let s = setup(seed, n, crate::search::SETUP_REPS)?;
    let p = params(2);
    let cfg = ServeConfig::from_params(p.clone());
    let mut out = Outcome::default();

    let st = run_stream(&mut out, &s, n, &cfg);
    if st.latencies.len() != n {
        return Err(format!(
            "the untraced stream failed: {}",
            out.errors.join("; ")
        ));
    }

    let wp = WorkPool::sized(p.threads.unwrap_or(1));
    wp.set_cap(Engine::Align, p.align_cap);
    wp.set_cap(Engine::Sparse, p.spgemm_cap);
    let composer = Composer {
        index: &s.index,
        p: &p,
        spgemm: SpGemmPool::new(p.spgemm_threads)
            .with_kind(p.spgemm)
            .with_workers(wp.clone()),
        pool: AlignPool::new(p.align_threads)
            .with_simd(p.simd.resolve()?)
            .with_workers(wp),
    };
    let mut l = Layers::default();
    let mut rows = Vec::new();
    for (r, req) in s.requests[..n].iter().enumerate() {
        out.attempted += 1;
        let composed = guarded(|| composer.request(&mut l, req, r * REQUEST_QUERIES, &mut rows));
        if let Err(e) = composed {
            return Err(format!("composed request {r} failed: {e}"));
        }
    }
    let got = [l.candidates, l.pairs, l.cells, l.similar, l.stripes_loaded];
    let sv = &st.stats;
    let want = [
        sv.candidates,
        sv.aligned_pairs,
        sv.cells,
        sv.emitted,
        sv.stripes_loaded,
    ];
    if got != want {
        out.fail(format!(
            "composed counts [candidates, aligned, cells, emitted, stripes] {got:?} \
             differ from serve_queries' {want:?}"
        ));
    }
    if rows != st.rows {
        out.fail("the composed rows differ from serve_queries' rows".into());
    }

    // Single-thread baseline and tracing overhead over the probe requests,
    // each beside an untraced 2-thread probe.
    out.attempted += 3;
    let two = probe(&s, 2, None)?;
    let one = probe(&s, 1, None)?;
    let traced = probe(&s, 2, Some(&TraceSession::new().recorder(0)))?;

    if let Some(m) =
        check_counter_record(&format!("serve_stream-{seed}-{n}-traced"), &exact_line(&st))?
    {
        out.fail(m);
    }
    out.note(format!("counters: {}", exact_line(&st)));

    let attributed = l.attributed_s();
    let reqs = n as f64;
    out.metric("seqio.parse_s", s.parse_s, "s");
    out.metric("seqio.bytes", (s.ref_bytes + s.query_bytes) as f64, "B");
    l.emit(&mut out, st.wall);
    out.metric("pool.speedup_vs_1t", one / two, "ratio");
    out.metric("index.build_s", s.build_s, "s");
    out.metric("index.shard_bytes", s.report.shard_bytes as f64, "B");
    out.metric("index.load_s", median(&l.load_s), "s");
    out.metric(
        "serve.stripe_loads_per_req",
        sv.stripes_loaded as f64 / reqs,
        "count",
    );
    out.metric("serve.batches", sv.batches as f64, "count");
    out.metric("serve.aligned_pairs", sv.aligned_pairs as f64, "count");
    out.metric("serve.cells", sv.cells as f64, "count");
    let lookups = sv.cache_hits + sv.cache_misses;
    out.metric(
        "serve.cache_hit_ratio",
        sv.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.metric("serve.other_s", (st.wall - attributed) / reqs, "s");
    out.metric("trace.overhead_ratio", traced / two, "ratio");
    Ok(out)
}
