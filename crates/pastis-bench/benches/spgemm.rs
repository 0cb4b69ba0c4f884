//! Criterion benches for the semiring SpGEMM kernels: hash vs heap
//! accumulators across compression-factor regimes, the row-partitioned
//! parallel kernel across worker counts, plus the overlap semiring — the
//! local kernel inside every SUMMA stage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pastis_core::overlap::OverlapSemiring;
use pastis_sparse::{
    spgemm_hash, spgemm_heap, CsrMatrix, PlusTimes, SpGemmKind, SpGemmPool, Triples,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(nrows: usize, ncols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Triples::new(nrows, ncols);
    for i in 0..nrows {
        let mut cols = std::collections::HashSet::new();
        while cols.len() < nnz_per_row.min(ncols) {
            cols.insert(rng.gen_range(0..ncols) as u32);
        }
        for c in cols {
            t.push(i as u32, c, rng.gen_range(-1.0..1.0));
        }
    }
    CsrMatrix::from_triples(t)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_kernels");
    group.sample_size(20);
    // Compression factor rises with density: more products merge per
    // output nonzero (the genomics regime is cf 1-10, Section V-B).
    for &density in &[4usize, 16, 48] {
        let a = random_matrix(512, 512, density, 1);
        let b = random_matrix(512, 512, density, 2);
        group.bench_with_input(BenchmarkId::new("hash", density), &density, |bch, _| {
            bch.iter(|| spgemm_hash(&PlusTimes::<f64>::new(), &a, &b))
        });
        group.bench_with_input(BenchmarkId::new("heap", density), &density, |bch, _| {
            bch.iter(|| spgemm_heap(&PlusTimes::<f64>::new(), &a, &b))
        });
    }
    group.finish();
}

fn bench_parallel_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_parallel");
    group.sample_size(20);
    let a = random_matrix(512, 512, 16, 1);
    let b = random_matrix(512, 512, 16, 2);
    for &threads in &[1usize, 2, 4, 8] {
        let pool = SpGemmPool::new(threads).with_kind(SpGemmKind::Parallel);
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |bch, _| {
            bch.iter(|| pool.multiply(&PlusTimes::<f64>::new(), &a, &b))
        });
    }
    group.finish();
}

fn bench_overlap_semiring(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlap_semiring");
    group.sample_size(20);
    // Sequences-by-kmers-like structure: tall, hypersparse columns.
    let mut rng = StdRng::seed_from_u64(7);
    let mut t = Triples::new(1000, 20_000);
    for i in 0..1000u32 {
        for _ in 0..60 {
            t.push(i, rng.gen_range(0..20_000) as u32, rng.gen_range(0..200u32));
        }
    }
    t.combine_duplicates(|a, b| *a = (*a).min(b));
    let a = CsrMatrix::from_triples(t);
    let at = a.transpose();
    group.bench_function("a_at_overlap", |bch| {
        bch.iter(|| spgemm_hash(&OverlapSemiring, &a, &at))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_parallel_kernel,
    bench_overlap_semiring
);
criterion_main!(benches);
