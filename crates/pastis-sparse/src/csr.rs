//! Compressed sparse row (CSR) storage — the local compute format.
//!
//! All local SpGEMM kernels and the alignment-pair extraction iterate rows,
//! so blocks live in CSR between exchanges. Column indices within each row
//! are kept sorted and unique, which makes row merges, transposes, and
//! equality checks deterministic.

use crate::triples::{Index, Triples};

/// A sparse matrix in CSR format with sorted, duplicate-free rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<Index>,
    vals: Vec<T>,
}

impl<T> CsrMatrix<T> {
    /// An empty `nrows × ncols` matrix.
    pub fn empty(nrows: usize, ncols: usize) -> CsrMatrix<T> {
        CsrMatrix {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colind: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Build from parts. Debug-asserts the CSR invariants (monotone row
    /// pointers, sorted unique in-bounds columns).
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<Index>,
        vals: Vec<T>,
    ) -> CsrMatrix<T> {
        assert_eq!(rowptr.len(), nrows + 1, "rowptr length mismatch");
        assert_eq!(colind.len(), vals.len(), "colind/vals length mismatch");
        assert_eq!(*rowptr.last().unwrap(), colind.len(), "rowptr end mismatch");
        debug_assert!(
            rowptr.windows(2).all(|w| w[0] <= w[1]),
            "rowptr not monotone"
        );
        debug_assert!(
            (0..nrows).all(|i| {
                let r = &colind[rowptr[i]..rowptr[i + 1]];
                r.windows(2).all(|w| w[0] < w[1]) && r.iter().all(|&c| (c as usize) < ncols)
            }),
            "row columns not sorted/unique/in-bounds"
        );
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colind,
            vals,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[Index], &[T]) {
        let (s, e) = (self.rowptr[i], self.rowptr[i + 1]);
        (&self.colind[s..e], &self.vals[s..e])
    }

    /// Number of nonzeros in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// Number of rows that contain at least one nonzero (the fan-in
    /// denominator of `auto` kernel selection).
    pub fn nonempty_rows(&self) -> usize {
        (0..self.nrows).filter(|&i| self.row_nnz(i) > 0).count()
    }

    /// Value at `(i, j)` if stored.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&(j as Index)).ok().map(|k| &vals[k])
    }

    /// Iterate stored entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, &T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, v)| (i as Index, c, v))
        })
    }

    /// The raw row pointer array.
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Decompose into `(nrows, ncols, rowptr, colind, vals)`, consuming the
    /// matrix. The move-based counterpart of [`CsrMatrix::from_parts`]; lets
    /// kernels such as [`crate::spops::spadd_into`] reuse the backing storage
    /// without cloning values.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<Index>, Vec<T>) {
        (self.nrows, self.ncols, self.rowptr, self.colind, self.vals)
    }
}

impl<T: Clone> CsrMatrix<T> {
    /// Build from triples; duplicate coordinates are a bug in the caller
    /// and panic. Use [`CsrMatrix::from_triples_combining`] to fold them.
    pub fn from_triples(t: Triples<T>) -> CsrMatrix<T> {
        Self::from_triples_combining(t, |_, _| panic!("duplicate coordinate in from_triples"))
    }

    /// Build from triples, folding duplicates with `combine`.
    pub fn from_triples_combining(
        mut t: Triples<T>,
        combine: impl FnMut(&mut T, T),
    ) -> CsrMatrix<T> {
        t.combine_duplicates(combine);
        let (nrows, ncols) = (t.nrows(), t.ncols());
        let mut rowptr = vec![0usize; nrows + 1];
        for e in &t.entries {
            rowptr[e.row as usize + 1] += 1;
        }
        for i in 0..nrows {
            rowptr[i + 1] += rowptr[i];
        }
        let mut colind = Vec::with_capacity(t.entries.len());
        let mut vals = Vec::with_capacity(t.entries.len());
        // combine_duplicates leaves entries row-major sorted.
        for e in t.entries {
            colind.push(e.col);
            vals.push(e.val);
        }
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colind,
            vals,
        }
    }

    /// Convert back to triples.
    pub fn to_triples(&self) -> Triples<T> {
        let mut t = Triples::new(self.nrows, self.ncols);
        for (i, j, v) in self.iter() {
            t.push(i, j, v.clone());
        }
        t
    }

    /// Transpose (O(nnz + dims) counting transpose; output rows sorted).
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut rowptr = vec![0usize; self.ncols + 1];
        for &c in &self.colind {
            rowptr[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            rowptr[i + 1] += rowptr[i];
        }
        let mut cursor = rowptr.clone();
        let mut colind = vec![0 as Index; self.nnz()];
        let mut vals: Vec<Option<T>> = vec![None; self.nnz()];
        for i in 0..self.nrows {
            let (cols, rvals) = self.row(i);
            for (&c, v) in cols.iter().zip(rvals) {
                let slot = cursor[c as usize];
                cursor[c as usize] += 1;
                colind[slot] = i as Index;
                vals[slot] = Some(v.clone());
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr,
            colind,
            vals: vals
                .into_iter()
                .map(|v| v.expect("transpose fill"))
                .collect(),
        }
    }

    /// Extract rows `[start, end)` as a new `(end−start) × ncols` matrix
    /// (row indices renumbered; column space unchanged).
    pub fn extract_rows(&self, start: usize, end: usize) -> CsrMatrix<T> {
        assert!(start <= end && end <= self.nrows, "row range out of bounds");
        let base = self.rowptr[start];
        let rowptr: Vec<usize> = self.rowptr[start..=end].iter().map(|p| p - base).collect();
        CsrMatrix {
            nrows: end - start,
            ncols: self.ncols,
            rowptr,
            colind: self.colind[base..self.rowptr[end]].to_vec(),
            vals: self.vals[base..self.rowptr[end]].to_vec(),
        }
    }

    /// Extract columns `[start, end)` as a new `nrows × (end−start)` matrix
    /// (column indices renumbered).
    pub fn extract_cols(&self, start: usize, end: usize) -> CsrMatrix<T> {
        assert!(
            start <= end && end <= self.ncols,
            "column range out of bounds"
        );
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colind = Vec::new();
        let mut vals = Vec::new();
        for i in 0..self.nrows {
            let (cols, rvals) = self.row(i);
            // Rows are sorted: binary search the window.
            let lo = cols.partition_point(|&c| (c as usize) < start);
            let hi = cols.partition_point(|&c| (c as usize) < end);
            for k in lo..hi {
                colind.push(cols[k] - start as Index);
                vals.push(rvals[k].clone());
            }
            rowptr.push(colind.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: end - start,
            rowptr,
            colind,
            vals,
        }
    }

    /// Keep entries satisfying the predicate (the CombBLAS `Prune`).
    pub fn prune(&self, mut keep: impl FnMut(Index, Index, &T) -> bool) -> CsrMatrix<T> {
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colind = Vec::new();
        let mut vals = Vec::new();
        for i in 0..self.nrows {
            let (cols, rvals) = self.row(i);
            for (&c, v) in cols.iter().zip(rvals) {
                if keep(i as Index, c, v) {
                    colind.push(c);
                    vals.push(v.clone());
                }
            }
            rowptr.push(colind.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr,
            colind,
            vals,
        }
    }

    /// Map values, preserving structure (the CombBLAS `Apply`).
    pub fn map<U: Clone>(&self, f: impl FnMut(&T) -> U) -> CsrMatrix<U> {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr: self.rowptr.clone(),
            colind: self.colind.clone(),
            vals: self.vals.iter().map(f).collect(),
        }
    }

    /// Approximate in-memory payload size in bytes (used for broadcast
    /// cost accounting).
    pub fn payload_bytes(&self) -> usize {
        crate::csr_payload_bytes(self.nrows, self.nnz(), std::mem::size_of::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_triples(Triples::from_entries(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        ))
    }

    #[test]
    fn from_triples_builds_sorted_rows() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0).0, &[0, 2]);
        assert_eq!(m.row(1).0, &[] as &[Index]);
        assert_eq!(m.row(2).0, &[0, 1]);
        assert_eq!(m.get(2, 1), Some(&4.0));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.nonempty_rows(), 2);
    }

    #[test]
    fn triples_roundtrip() {
        let m = sample();
        let back = CsrMatrix::from_triples(m.to_triples());
        assert_eq!(m, back);
    }

    #[test]
    #[should_panic(expected = "duplicate coordinate")]
    fn duplicates_panic_without_combiner() {
        CsrMatrix::from_triples(Triples::from_entries(1, 1, vec![(0, 0, 1.0), (0, 0, 2.0)]));
    }

    #[test]
    fn duplicates_combined() {
        let m = CsrMatrix::from_triples_combining(
            Triples::from_entries(1, 2, vec![(0, 1, 1u32), (0, 1, 41)]),
            |a, b| *a += b,
        );
        assert_eq!(m.get(0, 1), Some(&42));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_entries() {
        let t = sample().transpose();
        assert_eq!((t.nrows(), t.ncols()), (3, 3));
        assert_eq!(t.get(0, 0), Some(&1.0));
        assert_eq!(t.get(0, 2), Some(&3.0));
        assert_eq!(t.get(1, 2), Some(&4.0));
        assert_eq!(t.get(2, 0), Some(&2.0));
    }

    #[test]
    fn extract_rows_window() {
        let m = sample();
        let sub = m.extract_rows(1, 3);
        assert_eq!((sub.nrows(), sub.ncols()), (2, 3));
        assert_eq!(sub.get(1, 0), Some(&3.0));
        assert_eq!(sub.nnz(), 2);
        let empty = m.extract_rows(1, 1);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn extract_cols_window() {
        let m = sample();
        let sub = m.extract_cols(1, 3);
        assert_eq!((sub.nrows(), sub.ncols()), (3, 2));
        assert_eq!(sub.get(0, 1), Some(&2.0));
        assert_eq!(sub.get(2, 0), Some(&4.0));
        assert_eq!(sub.nnz(), 2);
    }

    #[test]
    fn prune_keeps_predicate() {
        let m = sample();
        let diag = m.prune(|i, j, _| i == j);
        assert_eq!(diag.nnz(), 1);
        assert_eq!(diag.get(0, 0), Some(&1.0));
    }

    #[test]
    fn map_changes_values_only() {
        let m = sample();
        let doubled = m.map(|v| v * 2.0);
        assert_eq!(doubled.get(2, 1), Some(&8.0));
        assert_eq!(doubled.nnz(), m.nnz());
    }

    #[test]
    fn empty_matrix() {
        let m: CsrMatrix<u8> = CsrMatrix::empty(0, 0);
        assert_eq!(m.nnz(), 0);
        let m2: CsrMatrix<u8> = CsrMatrix::empty(5, 5);
        assert_eq!(m2.row(4).0.len(), 0);
    }

    #[test]
    fn payload_bytes_monotone_in_nnz() {
        let small = CsrMatrix::from_triples(Triples::from_entries(2, 2, vec![(0, 0, 1.0f64)]));
        let large = sample();
        assert!(large.payload_bytes() > small.payload_bytes());
    }
}
