//! Multi-lane (inter-sequence) batched Smith–Waterman on real SIMD lanes.
//!
//! ADEPT's GPU kernel derives much of its throughput from *inter-task*
//! parallelism — many independent alignments advance in lock-step. On the
//! CPU the same structure maps onto vector lanes (Rognes' SWIPE and the
//! inter-sequence mode of SeqAn): one sequence pair per i16 lane, all
//! lanes updated per DP cell with saturating vector arithmetic. The lane
//! arithmetic comes from the [`crate::simd`] backends (AVX2/SSE2/NEON, or
//! the portable scalar-array fallback) selected by [`SimdBackend`].
//!
//! Two kernels share the lanes, the [`LaneTable`], the padding scheme, the
//! backend dispatch and the overflow rescue:
//!
//! * the score-only kernel ([`sw_score_lanes`]), behind `--score-only`;
//! * the full-statistics kernel behind the default path
//!   ([`crate::parallel::AlignPool::run_traceback`]): each lane also
//!   carries, for H, E and F, the begin
//!   coordinates, matches and columns of the alignment ending there,
//!   applying [`sw_align`]'s traceback rule forward, so every
//!   [`AlignmentResult`] field comes out without a traceback matrix.
//!
//! # Exactness
//!
//! The score-only kernel is *bit-identical* to the scalar i32 kernel
//! [`sw_score_only`] and the full-statistics kernel to [`sw_align`], which
//! the paper's determinism claim requires:
//!
//! * `H` values of a local alignment live in `[0, best]`; while
//!   `best < i16::MAX` no intermediate can top-saturate, and i16
//!   arithmetic equals i32 arithmetic exactly.
//! * `E`/`F` can only bottom-saturate at `i16::MIN`, which behaves as the
//!   scalar kernel's `−∞` sentinel: a bottom-saturated value never wins a
//!   `max` against `h − first ≥ −first ≥ −i16::MAX` and feeds nothing
//!   else (saturating subtraction keeps it pinned).
//! * Any top saturation forces that lane's running `best` to `i16::MAX`,
//!   so `best == i16::MAX` is an exact overflow detector: such lanes are
//!   **promoted** — re-run through the scalar i32 kernel — and counted
//!   ([`LaneScores::promotions`], surfaced as the `align.lane_promotions`
//!   counter). A true score of exactly `i16::MAX` is indistinguishable
//!   from saturation and takes the (equally exact) rescue path too.
//!
//! Scoring models whose table or gap penalties do not fit the i16 scheme
//! (see [`LaneTable::build`]) bypass the lanes entirely and run scalar —
//! exactness is never traded for speed.
//!
//! Lanes are padded to the chunk's maximum dimensions with a PAD residue
//! scoring −100 against everything: padded cells can never climb above the
//! local-alignment floor of zero, so padding cannot influence any lane's
//! optimum (property-tested), and promotion is a property of the pair
//! alone, not of its lane companions. Padded cells never strictly beat
//! the best real cell before them either, so the full-statistics kernel's
//! best-cell snapshot is padding-invariant too.

use crate::matrices::{Scoring, AA_COUNT};
use crate::simd::{ScalarLanes, SimdBackend, SimdVec, MAX_LANES};
use crate::sw::{sw_align, sw_score_only, AlignmentResult, GapPenalties};

#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2Vec, Sse2Vec};

#[cfg(target_arch = "aarch64")]
use crate::simd::NeonVec;

/// Table index used to pad ragged lanes (one past the residue codes).
const PAD_IDX: usize = AA_COUNT;

/// Rows of the score table: 21 residue codes + the PAD row.
const TABLE_DIM: usize = AA_COUNT + 1;

/// Stored width of one score-table row: `TABLE_DIM` rounded up to a power
/// of two, so a masked column index needs no bounds check.
const ROW_WIDTH: usize = 32;

/// Score of PAD against anything: below the local-alignment floor.
const PAD_SCORE: i16 = -100;

/// Largest |substitution score| the i16 scheme accepts. Leaves headroom so
/// `diag + score` can only saturate at the top (caught by promotion),
/// never wrap at the bottom.
const MAX_TABLE_SCORE: i32 = 30_000;

/// Flattened i16 score profile plus gap costs, pre-validated for the i16
/// lane scheme. Built once per batch ([`LaneTable::build`]); `None` means
/// the scoring model needs the scalar i32 path.
#[derive(Debug, Clone)]
pub struct LaneTable {
    /// `rows[a][b]` = score of codes `a` vs `b`; row/column [`PAD_IDX`]
    /// and the columns past it hold [`PAD_SCORE`].
    rows: [[i16; ROW_WIDTH]; TABLE_DIM],
    first: i16,
    extend: i16,
}

impl LaneTable {
    /// Flatten `scoring` + `gaps` into an i16 profile, or `None` if any
    /// score or gap cost falls outside the range for which the i16 kernel
    /// is provably exact (`|score| ≤ 30000`, `0 ≤ open + extend ≤ i16::MAX`,
    /// `0 ≤ extend ≤ i16::MAX`).
    pub fn build<S: Scoring>(scoring: &S, gaps: GapPenalties) -> Option<LaneTable> {
        let first = gaps.open + gaps.extend;
        if !(0..=i16::MAX as i32).contains(&first) || !(0..=i16::MAX as i32).contains(&gaps.extend)
        {
            return None;
        }
        let mut rows = [[PAD_SCORE; ROW_WIDTH]; TABLE_DIM];
        for (a, row) in rows.iter_mut().enumerate().take(AA_COUNT) {
            for (b, cell) in row.iter_mut().enumerate().take(AA_COUNT) {
                let s = scoring.score(a as u8, b as u8);
                if s.abs() > MAX_TABLE_SCORE {
                    return None;
                }
                *cell = s as i16;
            }
        }
        Some(LaneTable {
            rows,
            first: first as i16,
            extend: gaps.extend as i16,
        })
    }
}

/// Scores and overflow-rescue count of one multilane invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneScores {
    /// Optimal local score per pair, in input order. Bit-identical to
    /// [`sw_score_only`] for every backend.
    pub scores: Vec<i32>,
    /// Pairs whose i16 lane saturated and were re-scored through the
    /// scalar i32 kernel. A property of each pair (its score vs
    /// `i16::MAX`), not of lane packing — deterministic across backends,
    /// lane widths and thread counts.
    pub promotions: u64,
}

/// Longest sequence the lane kernels take. Longer pairs run through the
/// scalar kernels instead: one huge lane member would pad every companion
/// to its dimensions and push the lane's working set out of cache, and the
/// statistics kernel's i16 coordinate and column lanes must not wrap.
pub const OVERSIZED_LEN: usize = 4096;

// An alignment has at most `q_len + r_len` columns, and coordinates stay
// below either length, so every statistics lane fits in i16.
const _: () = assert!(2 * OVERSIZED_LEN < i16::MAX as usize);

/// Transposed padded reference residues of a chunk: `rt[(j-1)*lanes + l]`
/// is lane `l`'s reference code at column `j` (PAD beyond the lane's
/// length), so the per-cell score gather is a single sequential slice walk.
/// Codes are widened to i16 so a column also loads as one lane vector.
fn transpose_refs(rs: &[&[u8]], lanes: usize, n: usize) -> Vec<i16> {
    let mut rt = vec![PAD_IDX as i16; n * lanes];
    for (l, r) in rs.iter().enumerate() {
        for (j, &c) in r.iter().enumerate() {
            rt[j * lanes + l] = c as i16;
        }
    }
    rt
}

/// Gathers row `i`'s substitution scores ahead of the DP sweep:
/// `srow[(j-1)*lanes + l]` is lane `l`'s score at column `j`, laid out
/// like `rt`. Returns each lane's query code at row `i` (PAD beyond the
/// lane's length).
#[inline(always)]
fn score_row(
    qs: &[&[u8]],
    i: usize,
    table: &LaneTable,
    rt: &[i16],
    lanes: usize,
    srow: &mut [i16],
) -> [i16; MAX_LANES] {
    let mut qc = [PAD_IDX as i16; MAX_LANES];
    let mut qrow = [&table.rows[PAD_IDX]; MAX_LANES];
    for (l, (c, row)) in qc.iter_mut().zip(qrow.iter_mut()).enumerate() {
        let code = qs
            .get(l)
            .and_then(|q| q.get(i - 1))
            .map_or(PAD_IDX, |&c| c as usize);
        *c = code as i16;
        *row = &table.rows[code];
    }
    for (col, out) in rt.chunks_exact(lanes).zip(srow.chunks_exact_mut(lanes)) {
        for ((o, row), &c) in out.iter_mut().zip(&qrow).zip(col) {
            // The mask keeps the index provably in the row: no bounds check.
            *o = row[c as usize & (ROW_WIDTH - 1)];
        }
    }
    qc
}

/// The score-only vector kernel: one chunk of ≤ `V::LANES` pairs in
/// lock-step.
///
/// Writes non-saturated lanes' scores into `out` and returns the bitmask
/// of saturated lanes (callers re-score those exactly). Marked
/// `#[inline(always)]` so the `#[target_feature]` entry points inline it
/// and the trait ops compile to bare vector instructions.
#[inline(always)]
fn lanes_kernel<V: SimdVec>(qs: &[&[u8]], rs: &[&[u8]], table: &LaneTable, out: &mut [i32]) -> u32 {
    debug_assert!(qs.len() == rs.len() && qs.len() <= V::LANES && V::LANES <= MAX_LANES);
    let lanes = V::LANES;
    let m = qs.iter().map(|q| q.len()).max().unwrap_or(0);
    let n = rs.iter().map(|r| r.len()).max().unwrap_or(0);
    for o in out[..qs.len()].iter_mut() {
        *o = 0;
    }
    if m == 0 || n == 0 {
        return 0;
    }
    let rt = transpose_refs(rs, lanes, n);

    let neg = V::splat(i16::MIN);
    let zero = V::zero();
    let vfirst = V::splat(table.first);
    let vext = V::splat(table.extend);
    let mut h = vec![zero; n + 1]; // current row of H; h[0] = H(i, 0) = 0
    let mut f = vec![neg; n + 1]; // F of the previous row, per column
    let mut best = zero;
    let mut srow = vec![0i16; n * lanes];

    for i in 1..=m {
        score_row(qs, i, table, &rt, lanes, &mut srow);
        let mut e = neg;
        let mut h_left = zero; // H(i, j-1), walking left to right
        let mut diag = zero; // H(i-1, j-1); starts at H(i-1, 0) = 0
        let cells = h[1..].iter_mut().zip(&mut f[1..]);
        for ((hj, fj), sc) in cells.zip(srow.chunks_exact(lanes)) {
            let up = *hj; // H(i-1, j)
            let fv = up.sub_sat(vfirst).max(fj.sub_sat(vext));
            *fj = fv;
            let ev = h_left.sub_sat(vfirst).max(e.sub_sat(vext));
            e = ev;
            let hv = diag.add_sat(V::load(sc)).max(ev).max(fv).max(zero);
            best = best.max(hv);
            diag = up;
            *hj = hv;
            h_left = hv;
        }
    }

    let mut bbuf = [0i16; MAX_LANES];
    best.store(&mut bbuf);
    let mut saturated = 0u32;
    for (l, o) in out[..qs.len()].iter_mut().enumerate() {
        if bbuf[l] == i16::MAX {
            saturated |= 1 << l;
        } else {
            *o = bbuf[l] as i32;
        }
    }
    saturated
}

/// Traceback statistics of one DP state, carried forward lane-wise: the
/// alignment ending in that state begins at `(bi, bj)` and holds
/// `matches` identities over `cols` columns.
#[derive(Clone, Copy)]
struct Stats<V> {
    bi: V,
    bj: V,
    matches: V,
    cols: V,
}

impl<V: SimdVec> Stats<V> {
    /// An alignment that begins (and stops) at `(i, j)`.
    #[inline(always)]
    fn at(i: V, j: V) -> Self {
        Stats {
            bi: i,
            bj: j,
            matches: V::zero(),
            cols: V::zero(),
        }
    }

    /// `a` in lanes where `mask` is set, `b` elsewhere.
    #[inline(always)]
    fn select(mask: V, a: Self, b: Self) -> Self {
        Stats {
            bi: mask.select(a.bi, b.bi),
            bj: mask.select(a.bj, b.bj),
            matches: mask.select(a.matches, b.matches),
            cols: mask.select(a.cols, b.cols),
        }
    }

    /// One more aligned column; `matched` is 1 in lanes where it is a
    /// match, 0 elsewhere.
    #[inline(always)]
    fn diag(self, matched: V, one: V) -> Self {
        Stats {
            matches: self.matches.add_sat(matched),
            cols: self.cols.add_sat(one),
            ..self
        }
    }

    /// One more gap column.
    #[inline(always)]
    fn gap(self, one: V) -> Self {
        Stats {
            cols: self.cols.add_sat(one),
            ..self
        }
    }
}

/// One DP column's state from the previous row: H and F with the
/// statistics of the alignments ending in them.
#[derive(Clone, Copy)]
struct Column<V> {
    h: V,
    f: V,
    hs: Stats<V>,
    fs: Stats<V>,
}

/// The statistics-carrying vector kernel: [`lanes_kernel`]'s recurrence
/// plus, per lane, the begin coordinates, matches and columns of the
/// alignment ending in each of H, E and F — so no traceback matrix is
/// stored.
///
/// Every cell applies [`sw_align`]'s traceback rule as it is computed: H
/// takes the diagonal if `diag > 0`, else E if `e > max(diag, 0)`, else F
/// if `f > max(diag, 0, e)`, else it is a stop `(i, j, 0, 0)`; E and F
/// extend only on `ext > open`. The best cell is the first strict
/// improvement in row-major order, snapshotted there. Padded cells never
/// feed a real cell (dependencies point up and left) and never strictly
/// beat the best real cell before them, so padding stays invisible.
///
/// Fills non-saturated lanes of `out` (pre-set to empty results) and
/// returns the bitmask of saturated lanes, like [`lanes_kernel`].
#[inline(always)]
fn stats_kernel<V: SimdVec>(
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: &LaneTable,
    out: &mut [AlignmentResult],
) -> u32 {
    debug_assert!(qs.len() == rs.len() && qs.len() <= V::LANES && V::LANES <= MAX_LANES);
    let lanes = V::LANES;
    let m = qs.iter().map(|q| q.len()).max().unwrap_or(0);
    let n = rs.iter().map(|r| r.len()).max().unwrap_or(0);
    if m == 0 || n == 0 {
        return 0;
    }
    let rt = transpose_refs(rs, lanes, n);

    let neg = V::splat(i16::MIN);
    let zero = V::zero();
    let one = V::splat(1);
    let vfirst = V::splat(table.first);
    let vext = V::splat(table.extend);
    // Row 0: H(0, j) = 0, a stop at (0, j); F(0, j) = −∞ never extends.
    let mut cols: Vec<Column<V>> = (0..=n)
        .map(|j| Column {
            h: zero,
            f: neg,
            hs: Stats::at(zero, V::splat(j as i16)),
            fs: Stats::at(zero, zero),
        })
        .collect();
    let mut best = zero;
    let mut best_s = Stats::at(zero, zero);
    let (mut best_i, mut best_j) = (zero, zero);
    let mut srow = vec![0i16; n * lanes];

    for i in 1..=m {
        let vq = V::load(&score_row(qs, i, table, &rt, lanes, &mut srow));
        let vi = V::splat(i as i16);
        let mut e = neg;
        let mut es = Stats::at(zero, zero);
        let mut h_left = zero; // H(i, j-1), walking left to right
        let mut hs_left = Stats::at(vi, zero);
        let mut diag = zero; // H(i-1, j-1)
        let mut ds = cols[0].hs; // stop at (i-1, 0)
        cols[0].hs = hs_left;
        let mut vj = zero;
        let cells = srow.chunks_exact(lanes).zip(rt.chunks_exact(lanes));
        for (col, (sc, rc)) in cols[1..].iter_mut().zip(cells) {
            vj = vj.add_sat(one);
            let up = *col;
            let f_open = up.h.sub_sat(vfirst);
            let f_ext = up.f.sub_sat(vext);
            let fv = f_open.max(f_ext);
            let fs = Stats::select(f_ext.gt(f_open), up.fs, up.hs).gap(one);
            let e_open = h_left.sub_sat(vfirst);
            let e_ext = e.sub_sat(vext);
            e = e_open.max(e_ext);
            es = Stats::select(e_ext.gt(e_open), es, hs_left).gap(one);

            let dv = diag.add_sat(V::load(sc));
            let mut hv = dv.max(zero);
            // 1 where the residue codes are equal: neither is greater.
            let vr = V::load(rc);
            let matched = one.add_sat(vq.gt(vr)).add_sat(vr.gt(vq));
            let mut hs = Stats::select(dv.gt(zero), ds.diag(matched, one), Stats::at(vi, vj));
            let take_e = e.gt(hv);
            hv = hv.max(e);
            hs = Stats::select(take_e, es, hs);
            let take_f = fv.gt(hv);
            hv = hv.max(fv);
            hs = Stats::select(take_f, fs, hs);

            let better = hv.gt(best);
            best = best.max(hv);
            best_s = Stats::select(better, hs, best_s);
            best_i = better.select(vi, best_i);
            best_j = better.select(vj, best_j);

            diag = up.h;
            ds = up.hs;
            *col = Column {
                h: hv,
                f: fv,
                hs,
                fs,
            };
            h_left = hv;
            hs_left = hs;
        }
    }

    let lane = |v: V| {
        let mut a = [0i16; MAX_LANES];
        v.store(&mut a);
        a
    };
    let (score, q_end, r_end) = (lane(best), lane(best_i), lane(best_j));
    let (q_begin, r_begin) = (lane(best_s.bi), lane(best_s.bj));
    let (matches, columns) = (lane(best_s.matches), lane(best_s.cols));
    let mut saturated = 0u32;
    for (l, res) in out[..qs.len()].iter_mut().enumerate() {
        if score[l] == i16::MAX {
            saturated |= 1 << l;
            continue;
        }
        if score[l] == 0 {
            continue; // the empty alignment `out` was preset to
        }
        let at = |a: [i16; MAX_LANES]| a[l] as usize;
        let (q_span, r_span) = (at(q_end) - at(q_begin), at(r_end) - at(r_begin));
        res.score = score[l] as i32;
        res.q_begin = at(q_begin);
        res.q_end = at(q_end);
        res.r_begin = at(r_begin);
        res.r_end = at(r_end);
        res.matches = at(matches);
        res.q_gaps = at(columns) - q_span;
        res.r_gaps = at(columns) - r_span;
        res.mismatches = q_span - res.matches - res.r_gaps;
    }
    saturated
}

/// A lock-step kernel over one chunk of ≤ `V::LANES` pairs, generic over
/// the lane backend, so both kernels share one backend dispatch
/// ([`run_chunk`]). Returns the bitmask of saturated lanes.
trait ChunkKernel {
    fn run<V: SimdVec>(&mut self, qs: &[&[u8]], rs: &[&[u8]], table: &LaneTable) -> u32;
}

/// [`lanes_kernel`] writing scores.
struct ScoreChunk<'a>(&'a mut [i32]);

impl ChunkKernel for ScoreChunk<'_> {
    #[inline(always)]
    fn run<V: SimdVec>(&mut self, qs: &[&[u8]], rs: &[&[u8]], table: &LaneTable) -> u32 {
        lanes_kernel::<V>(qs, rs, table, self.0)
    }
}

/// [`stats_kernel`] writing alignment statistics.
struct StatsChunk<'a>(&'a mut [AlignmentResult]);

impl ChunkKernel for StatsChunk<'_> {
    #[inline(always)]
    fn run<V: SimdVec>(&mut self, qs: &[&[u8]], rs: &[&[u8]], table: &LaneTable) -> u32 {
        stats_kernel::<V>(qs, rs, table, self.0)
    }
}

/// AVX2 entry point: the `#[target_feature]` boundary under which the
/// generic kernels and the `Avx2Vec` ops inline into VEX instructions.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")`
/// (dispatch goes through [`SimdBackend::is_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_chunk_avx2<K: ChunkKernel>(
    kernel: &mut K,
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: &LaneTable,
) -> u32 {
    kernel.run::<Avx2Vec>(qs, rs, table)
}

/// Run one ≤ `backend.lanes()` chunk through `kernel` on the given backend.
fn run_chunk<K: ChunkKernel>(
    backend: SimdBackend,
    kernel: &mut K,
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: &LaneTable,
) -> u32 {
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Sse2 => kernel.run::<Sse2Vec>(qs, rs, table),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after runtime detection.
        SimdBackend::Avx2 => unsafe { run_chunk_avx2(kernel, qs, rs, table) },
        #[cfg(target_arch = "aarch64")]
        SimdBackend::Neon => kernel.run::<NeonVec>(qs, rs, table),
        _ => kernel.run::<ScalarLanes<16>>(qs, rs, table),
    }
}

/// Run `chunk(queries, refs, out)` over backend-width chunks of the pairs;
/// returns the indices of pairs whose lanes saturated.
#[inline(always)]
fn chunked<T>(
    queries: &[&[u8]],
    refs: &[&[u8]],
    w: usize,
    out: &mut [T],
    mut chunk: impl FnMut(&[&[u8]], &[&[u8]], &mut [T]) -> u32,
) -> Vec<usize> {
    let mut saturated = Vec::new();
    for (c, ((qs, rs), out)) in queries
        .chunks(w)
        .zip(refs.chunks(w))
        .zip(out.chunks_mut(w))
        .enumerate()
    {
        let mask = chunk(qs, rs, out);
        saturated.extend(
            (0..qs.len())
                .filter(|l| mask & (1 << l) != 0)
                .map(|l| c * w + l),
        );
    }
    saturated
}

// The two chunk drivers below are deliberately not generic: they are
// compiled (and optimized) in this crate however their generic callers
// are instantiated downstream.

/// [`lanes_kernel`] over every chunk; writes scores, returns saturated
/// pair indices.
fn score_chunks(
    queries: &[&[u8]],
    refs: &[&[u8]],
    backend: SimdBackend,
    table: &LaneTable,
    scores: &mut [i32],
) -> Vec<usize> {
    chunked(queries, refs, backend.lanes(), scores, |qs, rs, out| {
        run_chunk(backend, &mut ScoreChunk(out), qs, rs, table)
    })
}

/// [`stats_kernel`] over every chunk; fills results, returns saturated
/// pair indices.
fn stats_chunks(
    queries: &[&[u8]],
    refs: &[&[u8]],
    backend: SimdBackend,
    table: &LaneTable,
    results: &mut [AlignmentResult],
) -> Vec<usize> {
    chunked(queries, refs, backend.lanes(), results, |qs, rs, out| {
        run_chunk(backend, &mut StatsChunk(out), qs, rs, table)
    })
}

/// A forced-but-unavailable backend (possible only through library
/// misuse; the CLI validates) degrades to the portable lanes.
pub(crate) fn usable(backend: SimdBackend) -> SimdBackend {
    if backend.is_available() {
        backend
    } else {
        SimdBackend::Scalar
    }
}

/// Score `queries[k]` vs `refs[k]` for every `k` through the vector
/// backend, chunking by the backend's lane width, with the overflow
/// rescue applied. Results are bit-identical to [`sw_score_only`].
///
/// Builds the score profile per call; batch drivers that amortize it use
/// [`sw_score_lanes_prepared`].
pub fn sw_score_lanes<S: Scoring>(
    queries: &[&[u8]],
    refs: &[&[u8]],
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
) -> LaneScores {
    let table = LaneTable::build(scoring, gaps);
    sw_score_lanes_prepared(queries, refs, scoring, gaps, backend, table.as_ref())
}

/// [`sw_score_lanes`] with a pre-built [`LaneTable`] (`None` forces the
/// scalar path, which [`LaneTable::build`] demands for out-of-range
/// scoring models).
pub fn sw_score_lanes_prepared<S: Scoring>(
    queries: &[&[u8]],
    refs: &[&[u8]],
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
    table: Option<&LaneTable>,
) -> LaneScores {
    assert_eq!(queries.len(), refs.len(), "ragged lane inputs");
    let mut scores = vec![0i32; queries.len()];
    let mut promotions = 0u64;
    let Some(table) = table else {
        for (k, (q, r)) in queries.iter().zip(refs).enumerate() {
            scores[k] = sw_score_only(q, r, scoring, gaps).0;
        }
        return LaneScores { scores, promotions };
    };
    for k in score_chunks(queries, refs, usable(backend), table, &mut scores) {
        scores[k] = sw_score_only(queries[k], refs[k], scoring, gaps).0;
        promotions += 1;
    }
    LaneScores { scores, promotions }
}

/// Align `queries[k]` vs `refs[k]` for every `k` through the
/// statistics-carrying lane kernel, chunked by the backend's lane width,
/// with saturated lanes re-aligned through scalar [`sw_align`]. Returns
/// one result per pair, in input order and equal to [`sw_align`]'s field
/// for field, plus the number of promoted (saturated) pairs, which is
/// pair-intrinsic like [`LaneScores::promotions`]. `table == None` runs
/// every pair through [`sw_align`].
///
/// # Panics
///
/// If a sequence is longer than [`OVERSIZED_LEN`]: its coordinates would
/// not fit the i16 statistics lanes. Callers route those pairs to
/// [`sw_align`] themselves.
pub(crate) fn sw_align_lanes_prepared<S: Scoring>(
    queries: &[&[u8]],
    refs: &[&[u8]],
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
    table: Option<&LaneTable>,
) -> (Vec<AlignmentResult>, u64) {
    assert_eq!(queries.len(), refs.len(), "ragged lane inputs");
    let mut promotions = 0u64;
    let Some(table) = table else {
        let results = queries
            .iter()
            .zip(refs)
            .map(|(q, r)| sw_align(q, r, scoring, gaps))
            .collect();
        return (results, promotions);
    };
    assert!(
        queries.iter().chain(refs).all(|s| s.len() <= OVERSIZED_LEN),
        "sequence longer than OVERSIZED_LEN on the statistics lanes"
    );
    let mut results: Vec<AlignmentResult> = queries
        .iter()
        .zip(refs)
        .map(|(q, r)| AlignmentResult::empty(q.len(), r.len()))
        .collect();
    for k in stats_chunks(queries, refs, usable(backend), table, &mut results) {
        results[k] = sw_align(queries[k], refs[k], scoring, gaps);
        promotions += 1;
    }
    (results, promotions)
}

/// Score a whole batch of pairs on an explicit backend; the thin wrapper
/// the differential harness and the kernel benchmarks drive directly.
pub fn sw_score_batch_simd<S: Scoring>(
    pairs: &[(&[u8], &[u8])],
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
) -> LaneScores {
    let queries: Vec<&[u8]> = pairs.iter().map(|(q, _)| *q).collect();
    let refs: Vec<&[u8]> = pairs.iter().map(|(_, r)| *r).collect();
    sw_score_lanes(&queries, &refs, scoring, gaps, backend)
}

/// Align `L` pairs in lock-step; returns each lane's optimal local score.
///
/// Lanes may have ragged lengths (they are padded internally); empty
/// lanes (`q` or `r` empty) score 0. Retained compatibility surface over
/// [`sw_score_lanes`] on the detected backend.
pub fn sw_score_multi<const L: usize, S: Scoring>(
    queries: &[&[u8]; L],
    refs: &[&[u8]; L],
    scoring: &S,
    gaps: GapPenalties,
) -> [i32; L] {
    let ls = sw_score_lanes(
        &queries[..],
        &refs[..],
        scoring,
        gaps,
        SimdBackend::detect(),
    );
    let mut out = [0i32; L];
    out.copy_from_slice(&ls.scores);
    out
}

/// Score a whole batch of pairs through the multi-lane kernel, processing
/// `L` at a time. Retained compatibility surface; the lane width actually
/// used is the detected backend's, which is what makes it fast.
pub fn sw_score_batch<const L: usize, S: Scoring>(
    pairs: &[(&[u8], &[u8])],
    scoring: &S,
    gaps: GapPenalties,
) -> Vec<i32> {
    sw_score_batch_simd(pairs, scoring, gaps, SimdBackend::detect()).scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::{encode, Blosum62, MatchMismatch};
    use proptest::prelude::*;

    fn scalar(q: &[u8], r: &[u8]) -> i32 {
        sw_score_only(q, r, &Blosum62, GapPenalties::pastis_defaults()).0
    }

    #[test]
    fn uniform_lanes_match_scalar() {
        let q = encode("HEAGAWGHEE").unwrap();
        let r = encode("PAWHEAE").unwrap();
        let got = sw_score_multi::<4, _>(
            &[&q, &q, &q, &q],
            &[&r, &r, &r, &r],
            &Blosum62,
            GapPenalties::pastis_defaults(),
        );
        let want = scalar(&q, &r);
        assert_eq!(got, [want; 4]);
    }

    #[test]
    fn ragged_lanes_match_scalar() {
        let seqs: Vec<Vec<u8>> = ["MKVLAWYHEE", "PAWHEAE", "GGSTPNQRCDGGSTPNQRCD", "MK"]
            .iter()
            .map(|s| encode(s).unwrap())
            .collect();
        let qs: [&[u8]; 4] = [&seqs[0], &seqs[1], &seqs[2], &seqs[3]];
        let rs: [&[u8]; 4] = [&seqs[1], &seqs[2], &seqs[3], &seqs[0]];
        let got = sw_score_multi::<4, _>(&qs, &rs, &Blosum62, GapPenalties::pastis_defaults());
        for l in 0..4 {
            assert_eq!(got[l], scalar(qs[l], rs[l]), "lane {l}");
        }
    }

    #[test]
    fn empty_lanes_are_zero() {
        let q = encode("MKVLAW").unwrap();
        let e: Vec<u8> = Vec::new();
        let got = sw_score_multi::<2, _>(
            &[&q, &e],
            &[&q, &q],
            &Blosum62,
            GapPenalties::pastis_defaults(),
        );
        assert_eq!(got[0], scalar(&q, &q));
        assert_eq!(got[1], 0);
    }

    #[test]
    fn batch_wrapper_handles_tail() {
        let seqs: Vec<Vec<u8>> = (0..7)
            .map(|i| encode(&"MKVLAWYHEE"[..4 + i]).unwrap())
            .collect();
        let pairs: Vec<(&[u8], &[u8])> = (0..7)
            .map(|i| (seqs[i].as_slice(), seqs[(i + 3) % 7].as_slice()))
            .collect();
        let got = sw_score_batch::<4, _>(&pairs, &Blosum62, GapPenalties::pastis_defaults());
        assert_eq!(got.len(), 7);
        for (idx, (q, r)) in pairs.iter().enumerate() {
            assert_eq!(got[idx], scalar(q, r), "pair {idx}");
        }
    }

    #[test]
    fn every_available_backend_matches_scalar() {
        let seqs: Vec<Vec<u8>> = [
            "MKVLAWYHEE",
            "PAWHEAE",
            "GGSTPNQRCDGGSTPNQRCD",
            "MK",
            "",
            "W",
            "HEAGAWGHEEHEAGAWGHEE",
        ]
        .iter()
        .map(|s| encode(s).unwrap())
        .collect();
        let pairs: Vec<(&[u8], &[u8])> = (0..seqs.len())
            .flat_map(|i| (0..seqs.len()).map(move |j| (i, j)))
            .map(|(i, j)| (seqs[i].as_slice(), seqs[j].as_slice()))
            .collect();
        let g = GapPenalties::pastis_defaults();
        for backend in SimdBackend::available() {
            let got = sw_score_batch_simd(&pairs, &Blosum62, g, backend);
            assert_eq!(got.promotions, 0, "{backend}: tiny scores promoted");
            for (k, (q, r)) in pairs.iter().enumerate() {
                assert_eq!(
                    got.scores[k],
                    sw_score_only(q, r, &Blosum62, g).0,
                    "{backend} pair {k}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_scoring_takes_scalar_path() {
        // Scores beyond the i16 window must bypass the lanes (build fails)
        // and still come back exact.
        let big = MatchMismatch {
            match_score: 100_000,
            mismatch_score: -100_000,
        };
        let g = GapPenalties::pastis_defaults();
        assert!(LaneTable::build(&big, g).is_none());
        let q = vec![3u8; 12];
        let r = vec![3u8; 12];
        let got = sw_score_batch_simd(&[(&q, &r)], &big, g, SimdBackend::detect());
        assert_eq!(got.scores[0], sw_score_only(&q, &r, &big, g).0);
        assert_eq!(got.promotions, 0);
        // Pathological gap costs likewise.
        let huge_gap = GapPenalties {
            open: i16::MAX as i32,
            extend: 10,
        };
        assert!(LaneTable::build(&Blosum62, huge_gap).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lanes_always_match_scalar(
            a in proptest::collection::vec(0u8..21, 0..24),
            b in proptest::collection::vec(0u8..21, 0..24),
            c in proptest::collection::vec(0u8..21, 0..24),
            d in proptest::collection::vec(0u8..21, 0..24),
        ) {
            let g = GapPenalties::pastis_defaults();
            let got = sw_score_multi::<2, _>(&[&a, &c], &[&b, &d], &Blosum62, g);
            prop_assert_eq!(got[0], scalar(&a, &b));
            prop_assert_eq!(got[1], scalar(&c, &d));
        }
    }
}
