//! Emit the perf-regression ledger (`BENCH_pr10.json`).
//!
//! Measures a fixed set of kernel and end-to-end workloads — the hot
//! paths every PR is most likely to disturb — and writes them as a
//! schema-versioned [`BenchLedger`] document. CI re-runs this binary and
//! diffs the fresh ledger against the committed baseline with
//! `bench_compare`; refresh the committed file whenever a deliberate
//! perf change moves an entry.
//!
//! All timings are best-of-`reps` wall seconds on deterministic
//! synthetic datasets, so entry-to-entry ratios are stable even though
//! absolute numbers vary by host.
//!
//! Usage: `bench_ledger [n_seqs] [reps] [out.json]`
//! (defaults 800, 3, `results/BENCH_pr10.json`).

use std::collections::HashMap;
use std::time::Instant;

use pastis_align::matrices::Blosum62;
use pastis_align::sw::{sw_score_only, GapPenalties};
use pastis_bench::ledger::BenchLedger;
use pastis_bench::{bench_dataset, bench_params};
use pastis_core::kmer::distinct_kmers;
use pastis_core::pipeline::run_search_serial;
use pastis_seqio::ReducedAlphabet;
use pastis_sparse::{spgemm_hash, spgemm_heap, CsrMatrix, PlusTimes, Triples};

/// splitmix64: deterministic pair sampling without a rand dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Best-of-`reps` wall seconds of `f`.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_seqs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(800);
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);
    let out_path = args
        .next()
        .unwrap_or_else(|| "results/BENCH_pr10.json".to_owned());

    let ds = bench_dataset(n_seqs);
    let mut ledger = BenchLedger::new();

    // kernel/kmer_matrix: sequences → sparse k-mer indicator matrix, the
    // paper's production k = 6 (the pipeline's first compute phase).
    let kmer_s = best_of(reps, || {
        pastis_core::kmer_matrix_triples(&ds.store, 0, ds.store.len(), 6, ReducedAlphabet::Full20)
    });
    ledger.push(
        "kernel/kmer_matrix",
        "kernel",
        kmer_s,
        &[("n_seqs", n_seqs as f64), ("reps", reps as f64)],
    );

    // kernel/spgemm_{hash,heap}: C = A·Aᵀ on the same k-mer matrix —
    // exactly what every SUMMA stage multiplies (kernel_spgemm's shape).
    let mut cols: HashMap<u32, u32> = HashMap::new();
    let mut entries: Vec<(u32, u32, f64)> = Vec::new();
    for i in 0..ds.store.len() {
        for (kmer, _pos) in distinct_kmers(ds.store.seq(i), 6, ReducedAlphabet::Full20) {
            let next = cols.len() as u32;
            let c = *cols.entry(kmer).or_insert(next);
            entries.push((i as u32, c, 1.0));
        }
    }
    let a = CsrMatrix::from_triples_combining(
        Triples::from_entries(ds.store.len(), cols.len(), entries),
        |_, _| {},
    );
    let at = a.transpose();
    let sr = PlusTimes::new();
    let (_, stats) = spgemm_hash(&sr, &a, &at);
    let hash_s = best_of(reps, || spgemm_hash(&sr, &a, &at));
    ledger.push(
        "kernel/spgemm_hash",
        "kernel",
        hash_s,
        &[
            ("n_seqs", n_seqs as f64),
            ("nnz", a.nnz() as f64),
            ("products", stats.products as f64),
            ("reps", reps as f64),
        ],
    );
    let heap_s = best_of(reps, || spgemm_heap(&sr, &a, &at));
    ledger.push(
        "kernel/spgemm_heap",
        "kernel",
        heap_s,
        &[
            ("n_seqs", n_seqs as f64),
            ("products", stats.products as f64),
            ("reps", reps as f64),
        ],
    );

    // kernel/align_score: serial score-only Smith-Waterman over a fixed
    // random pair sample (the inner loop of the align phase).
    let n_pairs = 1000;
    let mut state = 0x5C22u64;
    let pairs: Vec<(u32, u32)> = (0..n_pairs)
        .map(|_| {
            (
                (splitmix64(&mut state) % ds.store.len() as u64) as u32,
                (splitmix64(&mut state) % ds.store.len() as u64) as u32,
            )
        })
        .collect();
    let gaps = GapPenalties::pastis_defaults();
    let cells: u64 = pairs
        .iter()
        .map(|&(q, r)| {
            ds.store.seq(q as usize).len() as u64 * ds.store.seq(r as usize).len() as u64
        })
        .sum();
    let align_s = best_of(reps, || {
        pairs
            .iter()
            .map(|&(q, r)| {
                sw_score_only(
                    ds.store.seq(q as usize),
                    ds.store.seq(r as usize),
                    &Blosum62,
                    gaps,
                )
                .0 as i64
            })
            .sum::<i64>()
    });
    ledger.push(
        "kernel/align_score",
        "kernel",
        align_s,
        &[
            ("n_pairs", n_pairs as f64),
            ("cells", cells as f64),
            ("reps", reps as f64),
        ],
    );

    // e2e/search_serial: the whole pipeline (k-mer matrix → SpGEMM →
    // align → output) on a smaller set, single rank.
    let e2e_n = (n_seqs / 2).max(100);
    let e2e_ds = bench_dataset(e2e_n);
    let params = bench_params();
    let e2e_s = best_of(reps, || run_search_serial(&e2e_ds.store, &params).unwrap());
    ledger.push(
        "e2e/search_serial",
        "e2e",
        e2e_s,
        &[("n_seqs", e2e_n as f64), ("reps", reps as f64)],
    );

    // e2e/search_budgeted: the same pipeline blocked 3x3 under a hard
    // memory budget at 3/4 of its own unconstrained peak, so completed
    // output blocks and index stripes spill through the accountant and
    // stream back at assembly. The delta against e2e/search_serial is
    // the spill overhead the ledger tracks.
    let budgeted_params = bench_params().with_blocking(3, 3);
    let spill = std::env::temp_dir().join(format!("pastis-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    let high = run_search_serial(
        &e2e_ds.store,
        &budgeted_params
            .clone()
            .with_mem_budget(1 << 30)
            .with_spill_dir(&spill),
    )
    .expect("loose budget cannot fail")
    .mem_high_water
    .expect("budgeted runs report their high water");
    let budget = high * 3 / 4;
    let budgeted_params = budgeted_params
        .with_mem_budget(budget)
        .with_spill_dir(&spill);
    let budgeted_s = best_of(reps, || {
        let _ = std::fs::remove_dir_all(&spill);
        run_search_serial(&e2e_ds.store, &budgeted_params).unwrap()
    });
    let _ = std::fs::remove_dir_all(&spill);
    ledger.push(
        "e2e/search_budgeted",
        "e2e",
        budgeted_s,
        &[
            ("n_seqs", e2e_n as f64),
            ("budget_bytes", budget as f64),
            ("reps", reps as f64),
        ],
    );

    // e2e/serve: the query-serving path — persisted index opened once,
    // the reference set streamed back as queries through admission
    // batching, cache, stripe loads, SpGEMM, and alignment. The delta
    // against e2e/search_serial is the serving-layer overhead.
    let idx_dir = std::env::temp_dir().join(format!("pastis-bench-idx-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&idx_dir);
    pastis_core::build_index(
        &e2e_ds.store,
        &pastis_core::IndexBuildConfig {
            k: params.k,
            alphabet: params.alphabet,
            substitute_kmers: params.substitute_kmers,
            stripe_cols: 256,
            mem_budget: None,
        },
        &idx_dir,
        &pastis_trace::Recorder::disabled(),
    )
    .expect("index build");
    let serve_cfg = pastis_core::ServeConfig {
        params: params.clone(),
        max_batch: 0, // cost-model sizing, as the CLI default
        max_wait_us: 1_000_000,
        cache_entries: 1024,
    };
    let serve_s = best_of(reps, || {
        let idx = pastis_core::PersistedIndex::open(&idx_dir).expect("open index");
        pastis_core::serve_queries(&idx, &e2e_ds.store, &serve_cfg).unwrap()
    });
    let _ = std::fs::remove_dir_all(&idx_dir);
    ledger.push(
        "e2e/serve",
        "e2e",
        serve_s,
        &[("n_seqs", e2e_n as f64), ("reps", reps as f64)],
    );

    let json = ledger.to_json();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write ledger");
    for e in &ledger.entries {
        println!("{:<22} {:>10.4}s  ({})", e.name, e.seconds, e.kind);
    }
    println!("wrote {} entries to {out_path}", ledger.entries.len());
}
