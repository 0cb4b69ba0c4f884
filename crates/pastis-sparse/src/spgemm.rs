//! Semiring-generic local SpGEMM kernels.
//!
//! Gustavson's row-wise algorithm with two accumulator strategies, mirroring
//! the high-performance CPU kernels CombBLAS draws on (Nagasaka et al.,
//! ICPP'18 — the paper's reference [20]):
//!
//! * [`spgemm_hash`] — open-addressing hash accumulator per output row;
//!   best for short rows / low compression factors (the genomics regime).
//! * [`spgemm_heap`] — k-way merge with a binary heap; best when rows of
//!   `B` are long and sorted output order can be exploited.
//!
//! Both kernels are deterministic: `combine` is applied in ascending inner
//! index (`k`) order for each output coordinate, so custom non-commutative
//! accumulations (like PASTIS's seed-position capture) give identical
//! results regardless of kernel choice — a property the tests pin down.
//!
//! The kernels also report [`SpGemmStats`]: the number of semiring products
//! (`flops` in the paper's terminology) and merged output nonzeros, whose
//! ratio is the *compression factor* discussed in Section V-B.

use std::collections::BinaryHeap;

use crate::csr::CsrMatrix;
use crate::semiring::Semiring;
use crate::triples::Index;

/// Work counters from one SpGEMM invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpGemmStats {
    /// Semiring `multiply` invocations (the flops of the multiplication).
    pub products: u64,
    /// Nonzeros in the output (after `combine` merging).
    pub merged_nnz: u64,
}

impl SpGemmStats {
    /// The compression factor: intermediate products per output nonzero
    /// (Section V-B; "even with a modest value between 1 and 10 … memory
    /// management must be given special attention").
    pub fn compression_factor(&self) -> f64 {
        if self.merged_nnz == 0 {
            0.0
        } else {
            self.products as f64 / self.merged_nnz as f64
        }
    }

    /// Accumulate another invocation's counters.
    pub fn merge(&mut self, other: SpGemmStats) {
        self.products += other.products;
        self.merged_nnz += other.merged_nnz;
    }
}

/// Which local kernel multiplies a SUMMA stage's blocks (`--spgemm`).
///
/// Every choice yields bit-identical output — the kernels share one
/// combine-order contract (ascending inner index `k` per output
/// coordinate) — so the policy only ever changes wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpGemmKind {
    /// Heuristic choice per multiplication (see
    /// [`crate::parallel::SpGemmPool`]): the parallel kernel when the pool
    /// has more than one worker and enough rows to amortize chunk claims;
    /// otherwise heap for low merge fan-in, hash for high.
    #[default]
    Auto,
    /// Always the serial hash-accumulator kernel ([`spgemm_hash`]).
    Hash,
    /// Always the serial heap (k-way merge) kernel ([`spgemm_heap`]).
    Heap,
    /// Always the row-partitioned parallel kernel, run on the pool's
    /// [`pastis_pool::WorkPool`] ([`crate::SpGemmPool::multiply`]).
    Parallel,
}

impl SpGemmKind {
    /// Parse a `--spgemm` value: `auto`, `hash`, `heap`, `parallel`.
    pub fn parse(s: &str) -> Result<SpGemmKind, String> {
        match s {
            "auto" => Ok(SpGemmKind::Auto),
            "hash" => Ok(SpGemmKind::Hash),
            "heap" => Ok(SpGemmKind::Heap),
            "parallel" => Ok(SpGemmKind::Parallel),
            other => Err(format!(
                "unknown SpGEMM kernel '{other}' (expected auto|hash|heap|parallel)"
            )),
        }
    }

    /// Telemetry counter bumped when this concrete kernel runs.
    pub(crate) fn counter_name(self) -> &'static str {
        match self {
            SpGemmKind::Auto => pastis_trace::names::CTR_SPGEMM_KERNEL_AUTO,
            SpGemmKind::Hash => pastis_trace::names::CTR_SPGEMM_KERNEL_HASH,
            SpGemmKind::Heap => pastis_trace::names::CTR_SPGEMM_KERNEL_HEAP,
            SpGemmKind::Parallel => pastis_trace::names::CTR_SPGEMM_KERNEL_PARALLEL,
        }
    }

    /// The flag spelling this kind parses from.
    pub fn name(self) -> &'static str {
        match self {
            SpGemmKind::Auto => "auto",
            SpGemmKind::Hash => "hash",
            SpGemmKind::Heap => "heap",
            SpGemmKind::Parallel => "parallel",
        }
    }
}

impl std::fmt::Display for SpGemmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const EMPTY: Index = Index::MAX;

/// Reusable open-addressing (linear probing) accumulator keyed by column
/// index. Collects one output row, then drains it sorted.
pub(crate) struct HashAccumulator<C> {
    keys: Vec<Index>,
    vals: Vec<Option<C>>,
    occupied: Vec<u32>,
    mask: usize,
}

impl<C> HashAccumulator<C> {
    pub(crate) fn with_capacity(expected: usize) -> Self {
        let cap = (expected.max(4) * 2).next_power_of_two();
        HashAccumulator {
            keys: vec![EMPTY; cap],
            vals: (0..cap).map(|_| None).collect(),
            occupied: Vec::with_capacity(expected),
            mask: cap - 1,
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let mut bigger = HashAccumulator::<C> {
            keys: vec![EMPTY; new_cap],
            vals: (0..new_cap).map(|_| None).collect(),
            occupied: Vec::with_capacity(self.occupied.len() * 2),
            mask: new_cap - 1,
        };
        for &slot in &self.occupied {
            let key = self.keys[slot as usize];
            let val = self.vals[slot as usize]
                .take()
                .expect("occupied slot empty");
            bigger.insert_fresh(key, val);
        }
        *self = bigger;
    }

    #[inline]
    fn probe(&self, key: Index) -> usize {
        // Multiplicative hash; the table is power-of-two sized.
        let mut slot = (key as u64).wrapping_mul(0x9E3779B97F4A7C15) as usize & self.mask;
        loop {
            let k = self.keys[slot];
            if k == key || k == EMPTY {
                return slot;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn insert_fresh(&mut self, key: Index, val: C) {
        let slot = self.probe(key);
        debug_assert_eq!(self.keys[slot], EMPTY);
        self.keys[slot] = key;
        self.vals[slot] = Some(val);
        self.occupied.push(slot as u32);
    }

    /// Insert or combine.
    fn upsert<S: Semiring<C = C>>(&mut self, sr: &S, key: Index, val: C) {
        if self.occupied.len() * 2 > self.mask + 1 {
            self.grow();
        }
        let slot = self.probe(key);
        if self.keys[slot] == key {
            let acc = self.vals[slot].as_mut().expect("occupied slot empty");
            sr.combine(acc, val);
        } else {
            self.keys[slot] = key;
            self.vals[slot] = Some(val);
            self.occupied.push(slot as u32);
        }
    }

    /// Drain the row sorted by column, resetting the accumulator.
    fn drain_sorted(&mut self, cols: &mut Vec<Index>, vals: &mut Vec<C>) {
        let mut entries: Vec<(Index, C)> = self
            .occupied
            .drain(..)
            .map(|slot| {
                let key = self.keys[slot as usize];
                self.keys[slot as usize] = EMPTY;
                let val = self.vals[slot as usize]
                    .take()
                    .expect("occupied slot empty");
                (key, val)
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        for (c, v) in entries {
            cols.push(c);
            vals.push(v);
        }
    }

    fn len(&self) -> usize {
        self.occupied.len()
    }
}

/// Hash-accumulator SpGEMM: `C = A ⊗ B` under semiring `sr`.
///
/// # Panics
///
/// Panics if `a.ncols() != b.nrows()`.
///
/// Note: because the hash accumulator visits products in `k` order per row
/// (Gustavson iterates A's row entries in ascending `k`, and each B row is
/// sorted), `combine` is applied in ascending `(k, j)` discovery order; for
/// each output `(i, j)` the combine order is ascending `k`, matching the
/// heap kernel.
pub fn spgemm_hash<S: Semiring>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
) -> (CsrMatrix<S::C>, SpGemmStats) {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "SpGEMM dimension mismatch: {}x{} · {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let mut stats = SpGemmStats::default();
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0usize);
    let mut colind: Vec<Index> = Vec::new();
    let mut vals: Vec<S::C> = Vec::new();
    let mut acc = HashAccumulator::<S::C>::with_capacity(16);
    for i in 0..a.nrows() {
        hash_row_into(sr, a, b, i, &mut acc, &mut colind, &mut vals, &mut stats);
        rowptr.push(colind.len());
    }
    (
        CsrMatrix::from_parts(a.nrows(), b.ncols(), rowptr, colind, vals),
        stats,
    )
}

/// Compute output row `i` of `A ⊗ B` with the hash-accumulator row kernel,
/// appending the sorted row to `colind`/`vals` and updating `stats`.
///
/// Both [`spgemm_hash`] and the row-partitioned parallel kernel of
/// [`crate::SpGemmPool`] run this exact code path per row, so their
/// per-row arithmetic — including the combine order non-commutative
/// semirings observe — is identical by construction.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn hash_row_into<S: Semiring>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    i: usize,
    acc: &mut HashAccumulator<S::C>,
    colind: &mut Vec<Index>,
    vals: &mut Vec<S::C>,
    stats: &mut SpGemmStats,
) {
    let (acols, avals) = a.row(i);
    for (&k, av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k as usize);
        stats.products += bcols.len() as u64;
        for (&j, bv) in bcols.iter().zip(bvals) {
            acc.upsert(sr, j, sr.multiply(av, bv));
        }
    }
    stats.merged_nnz += acc.len() as u64;
    acc.drain_sorted(colind, vals);
}

/// Heap-based (k-way merge) SpGEMM: `C = A ⊗ B` under semiring `sr`.
///
/// For each output row, the sorted rows of `B` selected by `A`'s row are
/// merged with a binary heap keyed on `(column, k)`, producing output
/// columns in ascending order and combining duplicates in ascending `k`
/// order — bit-identical to [`spgemm_hash`] for any semiring.
pub fn spgemm_heap<S: Semiring>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
) -> (CsrMatrix<S::C>, SpGemmStats) {
    assert_eq!(a.ncols(), b.nrows(), "SpGEMM dimension mismatch");
    let mut stats = SpGemmStats::default();
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0usize);
    let mut colind: Vec<Index> = Vec::new();
    let mut vals: Vec<S::C> = Vec::new();

    // Min-heap over (col, k, cursor) via Reverse ordering on (col, k).
    #[derive(PartialEq, Eq)]
    struct Head {
        col: Index,
        k: Index,
        list: u32,
    }
    impl Ord for Head {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reversed for a max-heap acting as a min-heap.
            (other.col, other.k).cmp(&(self.col, self.k))
        }
    }
    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap: BinaryHeap<Head> = BinaryHeap::new();
    let mut cursors: Vec<usize> = Vec::new();
    for i in 0..a.nrows() {
        let (acols, avals) = a.row(i);
        heap.clear();
        cursors.clear();
        cursors.resize(acols.len(), 0);
        for (idx, &k) in acols.iter().enumerate() {
            let (bcols, _) = b.row(k as usize);
            if !bcols.is_empty() {
                heap.push(Head {
                    col: bcols[0],
                    k,
                    list: idx as u32,
                });
            }
        }
        let mut current: Option<(Index, S::C)> = None;
        while let Some(head) = heap.pop() {
            let list = head.list as usize;
            let k = head.k as usize;
            let (bcols, bvals) = b.row(k);
            let pos = cursors[list];
            let product = sr.multiply(&avals[list], &bvals[pos]);
            stats.products += 1;
            match current.take() {
                Some((col, mut acc)) if col == head.col => {
                    sr.combine(&mut acc, product);
                    current = Some((col, acc));
                }
                Some((col, acc)) => {
                    colind.push(col);
                    vals.push(acc);
                    current = Some((head.col, product));
                }
                None => current = Some((head.col, product)),
            }
            cursors[list] += 1;
            if cursors[list] < bcols.len() {
                heap.push(Head {
                    col: bcols[cursors[list]],
                    k: head.k,
                    list: head.list,
                });
            }
        }
        if let Some((col, acc)) = current {
            colind.push(col);
            vals.push(acc);
        }
        rowptr.push(colind.len());
    }
    stats.merged_nnz = colind.len() as u64;
    (
        CsrMatrix::from_parts(a.nrows(), b.ncols(), rowptr, colind, vals),
        stats,
    )
}

/// Naive dense reference SpGEMM — O(n³)-ish, for tests only.
///
/// Applies `combine` in ascending `k` order per output coordinate, the same
/// contract as the sparse kernels.
pub fn spgemm_dense_ref<S: Semiring>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
) -> CsrMatrix<S::C>
where
    S::C: Clone,
{
    assert_eq!(a.ncols(), b.nrows(), "SpGEMM dimension mismatch");
    let mut rowptr = vec![0usize];
    let mut colind = Vec::new();
    let mut vals = Vec::new();
    for i in 0..a.nrows() {
        let mut row: Vec<Option<S::C>> = vec![None; b.ncols()];
        let (acols, avals) = a.row(i);
        for (&k, av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            for (&j, bv) in bcols.iter().zip(bvals) {
                let p = sr.multiply(av, bv);
                match &mut row[j as usize] {
                    Some(acc) => sr.combine(acc, p),
                    slot @ None => *slot = Some(p),
                }
            }
        }
        for (j, slot) in row.into_iter().enumerate() {
            if let Some(v) = slot {
                colind.push(j as Index);
                vals.push(v);
            }
        }
        rowptr.push(colind.len());
    }
    CsrMatrix::from_parts(a.nrows(), b.ncols(), rowptr, colind, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolAndOr, CountShared, MinPlus, PlusTimes};
    use crate::triples::Triples;

    fn mat(nrows: usize, ncols: usize, e: Vec<(Index, Index, f64)>) -> CsrMatrix<f64> {
        CsrMatrix::from_triples(Triples::from_entries(nrows, ncols, e))
    }

    #[test]
    fn hash_matches_dense_small() {
        let a = mat(2, 3, vec![(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)]);
        let b = mat(3, 2, vec![(0, 1, 4.0), (1, 0, 1.0), (2, 1, 5.0)]);
        let (c, stats) = spgemm_hash(&PlusTimes::new(), &a, &b);
        let r = spgemm_dense_ref(&PlusTimes::new(), &a, &b);
        assert_eq!(c, r);
        assert_eq!(stats.products, 3);
        assert_eq!(stats.merged_nnz, 2);
    }

    #[test]
    fn heap_matches_hash_small() {
        let a = mat(2, 3, vec![(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)]);
        let b = mat(3, 2, vec![(0, 1, 4.0), (1, 0, 1.0), (2, 1, 5.0)]);
        let (ch, sh) = spgemm_hash(&PlusTimes::new(), &a, &b);
        let (cp, sp) = spgemm_heap(&PlusTimes::new(), &a, &b);
        assert_eq!(ch, cp);
        assert_eq!(sh, sp);
    }

    #[test]
    fn identity_multiplication() {
        let n = 5;
        let eye = mat(n, n, (0..n as Index).map(|i| (i, i, 1.0)).collect());
        let a = mat(n, n, vec![(0, 4, 2.0), (3, 1, 7.0), (4, 4, -1.0)]);
        let (c, _) = spgemm_hash(&PlusTimes::new(), &eye, &a);
        assert_eq!(c, a);
        let (c2, _) = spgemm_hash(&PlusTimes::new(), &a, &eye);
        assert_eq!(c2, a);
    }

    #[test]
    fn empty_operands() {
        let a: CsrMatrix<f64> = CsrMatrix::empty(3, 4);
        let b: CsrMatrix<f64> = CsrMatrix::empty(4, 2);
        let (c, stats) = spgemm_hash(&PlusTimes::new(), &a, &b);
        assert_eq!(c.nnz(), 0);
        assert_eq!((c.nrows(), c.ncols()), (3, 2));
        assert_eq!(stats.products, 0);
        let (c2, _) = spgemm_heap(&PlusTimes::new(), &a, &b);
        assert_eq!(c, c2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a: CsrMatrix<f64> = CsrMatrix::empty(2, 3);
        let b: CsrMatrix<f64> = CsrMatrix::empty(2, 2);
        let _ = spgemm_hash(&PlusTimes::new(), &a, &b);
    }

    #[test]
    fn boolean_reachability() {
        let t = |e| CsrMatrix::from_triples(Triples::from_entries(3, 3, e));
        // path 0 -> 1 -> 2
        let g = t(vec![(0, 1, true), (1, 2, true)]);
        let (g2, _) = spgemm_hash(&BoolAndOr, &g, &g);
        assert_eq!(g2.get(0, 2), Some(&true));
        assert_eq!(g2.nnz(), 1);
    }

    #[test]
    fn min_plus_shortest_two_hop() {
        let t = |e| CsrMatrix::from_triples(Triples::from_entries(3, 3, e));
        let g = t(vec![(0, 1, 1.0), (0, 2, 10.0), (1, 2, 2.0), (2, 2, 0.0)]);
        let (g2, _) = spgemm_hash(&MinPlus, &g, &g);
        // 0->1->2 = 3 beats 0->2->2 = 10.
        assert_eq!(g2.get(0, 2), Some(&3.0));
    }

    #[test]
    fn count_shared_counts_inner_overlap() {
        // A: 2 sequences x 4 kmers; C = A · Aᵀ counts shared kmers.
        let a = CsrMatrix::from_triples(Triples::from_entries(
            2,
            4,
            vec![(0, 0, ()), (0, 1, ()), (0, 3, ()), (1, 1, ()), (1, 3, ())],
        ));
        let at = a.transpose();
        let (c, stats) = spgemm_hash(&CountShared::new(), &a, &at);
        assert_eq!(c.get(0, 1), Some(&2)); // kmers 1 and 3 shared
        assert_eq!(c.get(0, 0), Some(&3));
        assert_eq!(c.get(1, 1), Some(&2));
        assert!(stats.compression_factor() >= 1.0);
    }

    #[test]
    fn hash_accumulator_growth() {
        // One dense row forces repeated growth of the accumulator.
        let n = 500;
        let a = mat(1, 1, vec![(0, 0, 1.0)]);
        let b = mat(1, n, (0..n as Index).map(|j| (0, j, j as f64)).collect());
        let (c, stats) = spgemm_hash(&PlusTimes::new(), &a, &b);
        assert_eq!(c.nnz(), n);
        assert_eq!(stats.products, n as u64);
        // Sorted output.
        let cols = c.row(0).0;
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
    }

    /// Order-sensitive semiring: combine concatenates, exposing any
    /// difference in accumulation order between kernels.
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
    fn kernels_agree_on_combine_order() {
        // A row with several inner indices hitting the same output column.
        let a = CsrMatrix::from_triples(Triples::from_entries(
            1,
            4,
            vec![(0, 0, 1u32), (0, 1, 2), (0, 2, 3), (0, 3, 4)],
        ));
        let b = CsrMatrix::from_triples(Triples::from_entries(
            4,
            2,
            vec![(0, 0, 5u32), (1, 0, 6), (2, 0, 7), (3, 0, 8), (1, 1, 9)],
        ));
        let (ch, _) = spgemm_hash(&Concat, &a, &b);
        let (cp, _) = spgemm_heap(&Concat, &a, &b);
        let dr = spgemm_dense_ref(&Concat, &a, &b);
        assert_eq!(ch, cp);
        assert_eq!(ch, dr);
        // Ascending k order: k=0..3 each contribute to column 0.
        assert_eq!(ch.get(0, 0), Some(&vec![105, 206, 307, 408]));
    }

    #[test]
    fn stats_compression_factor() {
        let s = SpGemmStats {
            products: 50,
            merged_nnz: 10,
        };
        assert_eq!(s.compression_factor(), 5.0);
        let z = SpGemmStats::default();
        assert_eq!(z.compression_factor(), 0.0);
        let mut m = s;
        m.merge(SpGemmStats {
            products: 10,
            merged_nnz: 10,
        });
        assert_eq!(m.products, 60);
        assert_eq!(m.merged_nnz, 20);
    }
}
