//! Intra-rank parallel SpGEMM — the sparse analog of the alignment side's
//! `AlignPool`, bringing the local kernels up to the multithreaded
//! CombBLAS kernels the paper inherits (Nagasaka et al., ICPP'18).
//!
//! [`SpGemmPool`] owns the kernel selection ([`SpGemmKind`]) and a handle
//! to the rank's [`WorkPool`]. Its parallel kernel is Gustavson's
//! algorithm row-partitioned into fixed-size chunks that run as pool
//! units. Every chunk runs the *same* per-row hash-accumulator kernel as
//! [`crate::spgemm_hash`] (literally the same function), and chunks are
//! stitched back in ascending row order, so the output — values *and*
//! combine order — is bit-identical to the serial kernel for any worker
//! count and any semiring, including non-commutative ones.
//!
//! The `auto` policy picks the parallel kernel when the pool lets more
//! than one thread serve SpGEMM and there are enough rows to amortize
//! chunk claims, and otherwise chooses between the serial hash and heap
//! kernels by merge fan-in. The average number of B-rows merged per output
//! row is an upper bound on the compression factor (each sorted B row
//! contributes a column at most once), so a low fan-in bound means a low
//! compression factor — the regime where the heap's ordered merge beats
//! hashing + sorting (Section V-B's compression-factor discussion).

use pastis_pool::{Engine, WorkPool};
use pastis_trace::{names, Component, Recorder, Track};

use crate::csr::CsrMatrix;
use crate::semiring::Semiring;
use crate::spgemm::{
    hash_row_into, spgemm_hash, spgemm_heap, HashAccumulator, SpGemmKind, SpGemmStats,
};
use crate::triples::Index;

/// Rows claimed per unit of work: small enough for dynamic balance over
/// ragged row costs, large enough to amortize the atomic claim.
const ROWS_PER_CHUNK: usize = 16;

/// `auto` only picks the parallel kernel when there are at least this many
/// rows (several chunks per worker); below it, chunk-claim overhead
/// dominates and a serial kernel wins.
const PARALLEL_MIN_ROWS: usize = 4 * ROWS_PER_CHUNK;

/// `auto` picks the heap kernel when the average merge fan-in (B-rows per
/// nonempty A row) is at or below this; the fan-in bounds the compression
/// factor from above, and a short k-way merge beats hash + sort.
const HEAP_MAX_FANIN: f64 = 8.0;

/// One chunk's output: per-row lengths plus the concatenated row data.
type Chunk<C> = (Vec<usize>, Vec<Index>, Vec<C>, SpGemmStats);

/// Compute row chunk `u` with the shared per-row hash kernel, emitting its
/// `spgemm.row_chunk` span on `track` when telemetry is on. Depends only
/// on `u`, so the result is the same whichever thread claims the unit.
fn row_chunk<S>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    u: usize,
    track: Track,
    rec: &Recorder,
) -> Chunk<S::C>
where
    S: Semiring,
{
    let start = u * ROWS_PER_CHUNK;
    let end = ((u + 1) * ROWS_PER_CHUNK).min(a.nrows());
    let mut span = rec.is_enabled().then(|| {
        rec.span(Component::SpGemm, names::SPAN_SPGEMM_ROW_CHUNK)
            .on_track(track)
            .arg("rows", (end - start) as u64)
    });
    let mut acc = HashAccumulator::<S::C>::with_capacity(16);
    let mut lens = Vec::with_capacity(end - start);
    let mut colind: Vec<Index> = Vec::new();
    let mut vals: Vec<S::C> = Vec::new();
    let mut stats = SpGemmStats::default();
    for i in start..end {
        let before = colind.len();
        hash_row_into(sr, a, b, i, &mut acc, &mut colind, &mut vals, &mut stats);
        lens.push(colind.len() - before);
    }
    if let Some(sp) = span.as_mut() {
        sp.push_arg("nnz", colind.len() as u64);
        sp.push_arg("products", stats.products);
    }
    (lens, colind, vals, stats)
}

/// Stitch chunk outputs (already in ascending unit = row order) into CSR.
fn stitch_chunks<A, B, C>(
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
    chunks: Vec<Chunk<C>>,
) -> (CsrMatrix<C>, SpGemmStats) {
    let total: usize = chunks.iter().map(|c| c.1.len()).sum();
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0usize);
    let mut colind: Vec<Index> = Vec::with_capacity(total);
    let mut vals: Vec<C> = Vec::with_capacity(total);
    let mut stats = SpGemmStats::default();
    let mut end = 0usize;
    for (lens, ccols, cvals, cstats) in chunks {
        for l in lens {
            end += l;
            rowptr.push(end);
        }
        colind.extend(ccols);
        vals.extend(cvals);
        stats.merge(cstats);
    }
    (
        CsrMatrix::from_parts(a.nrows(), b.ncols(), rowptr, colind, vals),
        stats,
    )
}

/// Kernel-selection wrapper around the local SpGEMM kernels: holds the
/// [`SpGemmKind`] policy, the [`WorkPool`] the parallel kernel runs on, and
/// an optional telemetry recorder, and dispatches each multiplication to
/// the chosen kernel.
///
/// Every kernel choice produces bit-identical output (the equivalence
/// tests below and the proptest sweep pin values *and* combine order), so
/// the policy only ever changes wall time — the same contract as the
/// alignment side's `AlignPool`.
#[derive(Debug, Clone)]
pub struct SpGemmPool {
    kind: SpGemmKind,
    recorder: Recorder,
    workers: WorkPool,
}

impl SpGemmPool {
    /// A pool on its own [`WorkPool::sized`]`(threads)` (`threads` counts
    /// the calling thread; `0` = one per available core) with the `auto`
    /// selection policy and telemetry off.
    pub fn new(threads: usize) -> SpGemmPool {
        SpGemmPool {
            kind: SpGemmKind::Auto,
            recorder: Recorder::disabled(),
            workers: WorkPool::sized(threads),
        }
    }

    /// The exact legacy configuration: one thread, always the serial hash
    /// kernel.
    pub fn serial() -> SpGemmPool {
        SpGemmPool::new(1).with_kind(SpGemmKind::Hash)
    }

    /// Set the kernel-selection policy.
    pub fn with_kind(mut self, kind: SpGemmKind) -> SpGemmPool {
        self.kind = kind;
        self
    }

    /// Attach a telemetry recorder: each multiplication then bumps a
    /// `spgemm.kernel.<name>` counter for the kernel it ran, and the
    /// parallel kernel emits per-chunk `spgemm.row_chunk` spans on
    /// [`Track::PoolWorker`] sub-tracks. Observation-only.
    pub fn with_recorder(mut self, recorder: Recorder) -> SpGemmPool {
        self.recorder = recorder;
        self
    }

    /// Run on a shared [`WorkPool`] instead of this pool's own: row chunks
    /// become units an idle alignment worker can steal (and vice versa),
    /// and kernel selection sizes against the threads that pool admits for
    /// SpGEMM. Results are bit-identical for every pool.
    pub fn with_workers(mut self, workers: WorkPool) -> SpGemmPool {
        self.workers = workers;
        self
    }

    /// Threads that may run one multiplication: the pool's SpGEMM-capped
    /// workers plus the calling thread (never 0).
    pub fn threads(&self) -> usize {
        self.workers.engine_threads(Engine::Sparse)
    }

    /// The attached telemetry recorder (disabled recorder when none was
    /// attached — safe to record against either way).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The configured selection policy.
    pub fn kind(&self) -> SpGemmKind {
        self.kind
    }

    /// The concrete kernel `multiply` would run for these operands —
    /// `auto` resolved against [`SpGemmPool::threads`] and the operands'
    /// shape/fan-in; never returns [`SpGemmKind::Auto`].
    pub fn select<A, B>(&self, a: &CsrMatrix<A>, b: &CsrMatrix<B>) -> SpGemmKind {
        match self.kind {
            SpGemmKind::Auto => {
                if self.threads() > 1 && a.nrows() >= PARALLEL_MIN_ROWS {
                    return SpGemmKind::Parallel;
                }
                let rows = a.nonempty_rows();
                if rows == 0 || b.nnz() == 0 {
                    // Trivially empty output; the hash kernel's row loop
                    // is the cheapest way to produce it.
                    return SpGemmKind::Hash;
                }
                // Average B-rows merged per nonempty output row. This
                // upper-bounds the compression factor (a sorted B row
                // contributes each column at most once), so low fan-in ⇒
                // low compression ⇒ the heap's short ordered merge wins.
                let fanin = a.nnz() as f64 / rows as f64;
                if fanin <= HEAP_MAX_FANIN {
                    SpGemmKind::Heap
                } else {
                    SpGemmKind::Hash
                }
            }
            k => k,
        }
    }

    /// Multiply under the configured policy: `C = A ⊗ B`, bit-identical
    /// for every policy and worker count.
    pub fn multiply<S>(
        &self,
        sr: &S,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
    ) -> (CsrMatrix<S::C>, SpGemmStats)
    where
        S: Semiring + Sync,
        S::A: Sync,
        S::B: Sync,
        S::C: Send,
    {
        let kind = self.select(a, b);
        self.recorder.add_counter(kind.counter_name(), 1.0);
        match kind {
            SpGemmKind::Hash => spgemm_hash(sr, a, b),
            SpGemmKind::Heap => spgemm_heap(sr, a, b),
            SpGemmKind::Parallel => self.multiply_parallel(sr, a, b),
            SpGemmKind::Auto => unreachable!("select() never returns Auto"),
        }
    }

    /// The row-partitioned parallel kernel: `ROWS_PER_CHUNK`-row chunks
    /// run as [`Engine::Sparse`] units on the work pool, each chunk's
    /// `spgemm.row_chunk` span on its executing thread's
    /// [`Track::PoolWorker`] sub-track, stitched in ascending row order.
    /// Stats are summed over chunks, matching the serial counters exactly.
    ///
    /// # Panics
    ///
    /// Panics if `a.ncols() != b.nrows()`.
    fn multiply_parallel<S>(
        &self,
        sr: &S,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
    ) -> (CsrMatrix<S::C>, SpGemmStats)
    where
        S: Semiring + Sync,
        S::A: Sync,
        S::B: Sync,
        S::C: Send,
    {
        assert_eq!(
            a.ncols(),
            b.nrows(),
            "SpGEMM dimension mismatch: {}x{} · {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        );
        let n_units = a.nrows().div_ceil(ROWS_PER_CHUNK);
        let chunks: Vec<Chunk<S::C>> = self.workers.run(Engine::Sparse, n_units, |u, slot| {
            row_chunk(sr, a, b, u, Track::PoolWorker(slot as u32), &self.recorder)
        });
        stitch_chunks(a, b, chunks)
    }

    /// The serving path's transpose-product entry point: multiply one
    /// query-block matrix against `B = Aᵀ` stored as column stripes (the
    /// persisted index layout — each stripe holds a contiguous range of
    /// reference columns, rows renumbered to the stripe), and stitch the
    /// per-stripe products back into one `a.nrows() × Σ stripe widths`
    /// matrix with globally ascending column ids.
    ///
    /// Each per-stripe product goes through [`SpGemmPool::multiply`], so
    /// per-entry combine order is the serial Gustavson order for every
    /// kernel and worker count — the stitched output is bit-identical to
    /// multiplying against the unstriped `B`, per stripe decomposition
    /// (pinned by this module's tests).
    pub fn multiply_striped<'b, S>(
        &self,
        sr: &S,
        a: &CsrMatrix<S::A>,
        stripes: impl IntoIterator<Item = &'b CsrMatrix<S::B>>,
    ) -> (CsrMatrix<S::C>, SpGemmStats)
    where
        S: Semiring + Sync,
        S::A: Sync,
        S::B: Sync + 'b,
        S::C: Send,
    {
        // (global column offset, rowptr, colind, vals) of one stripe product.
        type StripePart<V> = (usize, Vec<usize>, Vec<Index>, Vec<V>);
        let nrows = a.nrows();
        let mut stats = SpGemmStats::default();
        let mut parts: Vec<StripePart<S::C>> = Vec::new();
        let mut total_cols = 0usize;
        for b in stripes {
            let (c, st) = self.multiply(sr, a, b);
            stats.products += st.products;
            stats.merged_nnz += st.merged_nnz;
            let (_, ncols, rowptr, colind, vals) = c.into_parts();
            parts.push((total_cols, rowptr, colind, vals));
            total_cols += ncols;
        }
        let total_nnz: usize = parts.iter().map(|p| p.2.len()).sum();
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0usize);
        let mut colind: Vec<Index> = Vec::with_capacity(total_nnz);
        let mut vals: Vec<S::C> = Vec::with_capacity(total_nnz);
        // Stitch row-major: per output row, each stripe's run of columns is
        // shifted by the stripe's global offset; stripe order is ascending,
        // so each stitched row stays sorted.
        let mut out: Vec<Vec<(Index, S::C)>> = (0..nrows).map(|_| Vec::new()).collect();
        for (offset, p_rowptr, p_colind, p_vals) in parts {
            let mut entries = p_colind.into_iter().zip(p_vals);
            for (i, w) in p_rowptr.windows(2).enumerate() {
                for _ in w[0]..w[1] {
                    let (c, v) = entries.next().expect("rowptr spans nnz");
                    out[i].push((c + offset as Index, v));
                }
            }
        }
        for row in out {
            for (c, v) in row {
                colind.push(c);
                vals.push(v);
            }
            rowptr.push(colind.len());
        }
        (
            CsrMatrix::from_parts(nrows, total_cols, rowptr, colind, vals),
            stats,
        )
    }
}

impl Default for SpGemmPool {
    /// Equivalent to [`SpGemmPool::serial`].
    fn default() -> SpGemmPool {
        SpGemmPool::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;
    use crate::triples::Triples;
    use pastis_trace::TraceSession;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(nrows: usize, ncols: usize, density: f64, seed: u64) -> CsrMatrix<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Triples::new(nrows, ncols);
        for i in 0..nrows as Index {
            for j in 0..ncols as Index {
                if rng.gen_bool(density) {
                    t.push(i, j, rng.gen_range(1u32..100));
                }
            }
        }
        CsrMatrix::from_triples(t)
    }

    /// The parallel kernel on a pool of `threads` threads.
    fn parallel(threads: usize) -> SpGemmPool {
        SpGemmPool::new(threads).with_kind(SpGemmKind::Parallel)
    }

    #[test]
    fn striped_product_matches_unstriped_for_any_decomposition() {
        let a = random_matrix(40, 30, 0.2, 7);
        let b = random_matrix(30, 53, 0.15, 8);
        let sr = PlusTimes::<u32>::new();
        let pool = SpGemmPool::new(3);
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        for width in [1usize, 7, 16, 53, 60] {
            let mut stripes = Vec::new();
            let mut lo = 0;
            while lo < b.ncols() {
                let hi = (lo + width).min(b.ncols());
                stripes.push(b.extract_cols(lo, hi));
                lo = hi;
            }
            let (got, stats) = pool.multiply_striped(&sr, &a, stripes.iter());
            assert_eq!(got, want, "width {width}");
            assert_eq!(stats.merged_nnz, want_stats.merged_nnz, "width {width}");
        }
        // No stripes at all: an empty product with zero columns.
        let (empty, _) = pool.multiply_striped(&sr, &a, std::iter::empty());
        assert_eq!(empty.nrows(), a.nrows());
        assert_eq!(empty.ncols(), 0);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn parallel_matches_hash_across_thread_counts() {
        let a = random_matrix(97, 64, 0.12, 1);
        let b = random_matrix(64, 83, 0.15, 2);
        let sr = PlusTimes::<u32>::new();
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        for t in [1usize, 2, 3, 8] {
            let (got, stats) = parallel(t).multiply(&sr, &a, &b);
            assert_eq!(got, want, "t={t}");
            assert_eq!(stats, want_stats, "t={t}");
        }
    }

    #[test]
    fn parallel_handles_empty_and_tiny() {
        let sr = PlusTimes::<u32>::new();
        let a: CsrMatrix<u32> = CsrMatrix::empty(0, 5);
        let b: CsrMatrix<u32> = CsrMatrix::empty(5, 3);
        let (c, stats) = parallel(4).multiply(&sr, &a, &b);
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (0, 3, 0));
        assert_eq!(stats.products, 0);
        let a1 = random_matrix(1, 4, 0.9, 3);
        let b1 = random_matrix(4, 4, 0.9, 4);
        let (got, _) = parallel(8).multiply(&sr, &a1, &b1);
        assert_eq!(got, spgemm_hash(&sr, &a1, &b1).0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn parallel_dimension_mismatch_panics() {
        let a: CsrMatrix<u32> = CsrMatrix::empty(2, 3);
        let b: CsrMatrix<u32> = CsrMatrix::empty(2, 2);
        let _ = parallel(2).multiply(&PlusTimes::new(), &a, &b);
    }

    /// Order-sensitive semiring: combine concatenates, exposing any
    /// difference in accumulation order between kernels or thread counts.
    struct Concat;
    impl Semiring for Concat {
        type A = u32;
        type B = u32;
        type C = Vec<u32>;
        fn multiply(&self, a: &u32, b: &u32) -> Vec<u32> {
            vec![a * 100 + b]
        }
        fn combine(&self, acc: &mut Vec<u32>, mut incoming: Vec<u32>) {
            acc.append(&mut incoming);
        }
    }

    #[test]
    fn parallel_preserves_combine_order_for_noncommutative_semiring() {
        // Wide enough to span several row chunks; values and the per-entry
        // combine order must match the serial kernels exactly.
        let a = random_matrix(80, 40, 0.2, 5);
        let b = random_matrix(40, 50, 0.25, 6);
        let (want, _) = spgemm_hash(&Concat, &a, &b);
        let (heap, _) = spgemm_heap(&Concat, &a, &b);
        assert_eq!(want, heap);
        for t in [1usize, 2, 3, 8] {
            let (got, _) = parallel(t).multiply(&Concat, &a, &b);
            assert_eq!(got, want, "t={t}");
        }
    }

    #[test]
    fn parallel_survives_forced_accumulator_growth() {
        // Dense rows force repeated HashAccumulator growth inside chunks.
        let a = random_matrix(40, 8, 0.9, 7);
        let b = random_matrix(8, 600, 0.95, 8);
        let sr = PlusTimes::<u32>::new();
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        assert!(want.row(0).0.len() > 500, "growth case not dense enough");
        for t in [1usize, 3, 8] {
            let (got, stats) = parallel(t).multiply(&sr, &a, &b);
            assert_eq!(got, want, "t={t}");
            assert_eq!(stats, want_stats, "t={t}");
        }
    }

    #[test]
    fn pool_zero_threads_means_auto() {
        assert!(SpGemmPool::new(0).threads() >= 1);
        assert_eq!(SpGemmPool::new(3).threads(), 3);
        assert_eq!(SpGemmPool::serial().threads(), 1);
        assert_eq!(SpGemmPool::serial().kind(), SpGemmKind::Hash);
        assert_eq!(SpGemmPool::default().kind(), SpGemmKind::Hash);
    }

    #[test]
    fn auto_selection_policy() {
        // Big operand + multi-worker pool → parallel.
        let big = random_matrix(200, 64, 0.2, 9);
        let b = random_matrix(64, 64, 0.2, 10);
        let pool = SpGemmPool::new(4);
        assert_eq!(pool.select(&big, &b), SpGemmKind::Parallel);
        // One worker → serial kernel chosen by fan-in: ~13 nnz/row → hash.
        let serial_auto = SpGemmPool::new(1);
        assert_eq!(serial_auto.select(&big, &b), SpGemmKind::Hash);
        // Low fan-in (≤ HEAP_MAX_FANIN B-rows per output row) → heap.
        let thin = random_matrix(200, 64, 0.05, 11);
        assert!((thin.nnz() as f64 / thin.nonempty_rows() as f64) <= HEAP_MAX_FANIN);
        assert_eq!(serial_auto.select(&thin, &b), SpGemmKind::Heap);
        // Small operands never pick parallel even with workers available.
        let tiny = random_matrix(8, 8, 0.5, 12);
        assert_ne!(pool.select(&tiny, &tiny), SpGemmKind::Parallel);
        // Forced kinds pass through untouched.
        for k in [SpGemmKind::Hash, SpGemmKind::Heap, SpGemmKind::Parallel] {
            assert_eq!(pool.clone().with_kind(k).select(&big, &b), k);
        }
    }

    #[test]
    fn pool_multiply_is_kernel_invariant() {
        let a = random_matrix(120, 48, 0.15, 13);
        let b = random_matrix(48, 70, 0.2, 14);
        let sr = PlusTimes::<u32>::new();
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        for kind in [
            SpGemmKind::Auto,
            SpGemmKind::Hash,
            SpGemmKind::Heap,
            SpGemmKind::Parallel,
        ] {
            for t in [1usize, 4] {
                let pool = SpGemmPool::new(t).with_kind(kind);
                let (got, stats) = pool.multiply(&sr, &a, &b);
                assert_eq!(got, want, "kind={kind} t={t}");
                assert_eq!(stats, want_stats, "kind={kind} t={t}");
            }
        }
    }

    #[test]
    fn traced_pool_emits_chunk_spans_and_kernel_counters() {
        let a = random_matrix(100, 32, 0.2, 15);
        let b = random_matrix(32, 40, 0.2, 16);
        let sr = PlusTimes::<u32>::new();
        let session = TraceSession::new();
        let rec = session.recorder(0);
        let pool = SpGemmPool::new(2)
            .with_kind(SpGemmKind::Parallel)
            .with_recorder(rec.clone());
        let (got, _) = pool.multiply(&sr, &a, &b);
        assert_eq!(got, spgemm_hash(&sr, &a, &b).0);

        let spans = rec.snapshot_spans();
        // 100 rows / 16 per chunk = 7 chunk spans, all on pool tracks.
        assert_eq!(spans.len(), 7);
        let mut rows_total = 0u64;
        for s in &spans {
            assert_eq!(s.name, names::SPAN_SPGEMM_ROW_CHUNK);
            assert!(matches!(s.track, Track::PoolWorker(_)), "{:?}", s.track);
            rows_total += s.args.iter().find(|(n, _)| *n == "rows").unwrap().1;
        }
        assert_eq!(rows_total, 100);
        assert_eq!(rec.counters().get("spgemm.kernel.parallel"), Some(&1.0));

        // The serial kernels bump their own counters and emit no spans.
        let rec2 = session.recorder(1);
        let _ = SpGemmPool::serial()
            .with_recorder(rec2.clone())
            .multiply(&sr, &a, &b);
        let _ = SpGemmPool::new(1)
            .with_kind(SpGemmKind::Heap)
            .with_recorder(rec2.clone())
            .multiply(&sr, &a, &b);
        assert!(rec2.snapshot_spans().is_empty());
        assert_eq!(rec2.counters().get("spgemm.kernel.hash"), Some(&1.0));
        assert_eq!(rec2.counters().get("spgemm.kernel.heap"), Some(&1.0));
    }

    #[test]
    fn pooled_kernel_matches_hash_and_preserves_combine_order() {
        let a = random_matrix(97, 64, 0.12, 1);
        let b = random_matrix(64, 83, 0.15, 2);
        let sr = PlusTimes::<u32>::new();
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        let (cat_want, _) = spgemm_hash(&Concat, &a, &b);
        for workers in [0usize, 1, 3] {
            let pool = parallel(1).with_workers(WorkPool::with_exact_workers(workers));
            let (got, stats) = pool.multiply(&sr, &a, &b);
            assert_eq!(got, want, "workers={workers}");
            assert_eq!(stats, want_stats, "workers={workers}");
            let (cat_got, _) = pool.multiply(&Concat, &a, &b);
            assert_eq!(cat_got, cat_want, "workers={workers}");
        }
    }

    #[test]
    fn attached_pool_drives_auto_selection() {
        let big = random_matrix(200, 64, 0.2, 9);
        let b = random_matrix(64, 64, 0.2, 10);
        // One own thread, but a 3-worker unified pool behind it: auto must
        // size against the pool and pick the parallel kernel.
        let pool = SpGemmPool::new(1).with_workers(WorkPool::with_exact_workers(3));
        assert_eq!(pool.select(&big, &b), SpGemmKind::Parallel);
        // A workerless pool (caller-only) leaves auto at serial choices.
        let solo = SpGemmPool::new(4).with_workers(WorkPool::with_exact_workers(0));
        assert_ne!(solo.select(&big, &b), SpGemmKind::Parallel);
        // So does a pool whose SpGEMM cap admits no workers.
        let capped = WorkPool::with_exact_workers(3);
        capped.set_cap(Engine::Sparse, Some(0));
        let capped = SpGemmPool::new(1).with_workers(capped);
        assert_eq!(capped.threads(), 1);
        assert_ne!(capped.select(&big, &b), SpGemmKind::Parallel);
    }

    #[test]
    fn kind_parse_roundtrip() {
        for (s, k) in [
            ("auto", SpGemmKind::Auto),
            ("hash", SpGemmKind::Hash),
            ("heap", SpGemmKind::Heap),
            ("parallel", SpGemmKind::Parallel),
        ] {
            assert_eq!(SpGemmKind::parse(s), Ok(k));
            assert_eq!(k.to_string(), s);
        }
        assert!(SpGemmKind::parse("gpu").is_err());
        assert_eq!(SpGemmKind::default(), SpGemmKind::Auto);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The tentpole contract: all three kernels agree — values and
        /// combine order — for every thread count, on both a commutative
        /// and an order-revealing non-commutative semiring.
        #[test]
        fn kernels_agree_for_every_thread_count(
            seed in 0u64..1_000_000,
            nrows in 1usize..90,
            inner in 1usize..40,
            ncols in 1usize..60,
            density in 0.02f64..0.4,
        ) {
            let a = random_matrix(nrows, inner, density, seed);
            let b = random_matrix(inner, ncols, density, seed ^ 0x9e37_79b9);
            let sr = PlusTimes::<u32>::new();
            let (want, want_stats) = spgemm_hash(&sr, &a, &b);
            let (heap, heap_stats) = spgemm_heap(&sr, &a, &b);
            prop_assert_eq!(&heap, &want);
            prop_assert_eq!(heap_stats, want_stats);
            let (cat_want, _) = spgemm_hash(&Concat, &a, &b);
            let (cat_heap, _) = spgemm_heap(&Concat, &a, &b);
            prop_assert_eq!(&cat_heap, &cat_want);
            for t in [1usize, 2, 3, 8] {
                let (got, stats) = parallel(t).multiply(&sr, &a, &b);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(stats, want_stats);
                let (cat_got, _) = parallel(t).multiply(&Concat, &a, &b);
                prop_assert_eq!(&cat_got, &cat_want);
            }
        }
    }
}
