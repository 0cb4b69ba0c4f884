//! Exact affine-gap Smith–Waterman local alignment.
//!
//! These are the scalar reference kernels of the pipeline: ADEPT (the
//! paper's GPU library) "realizes the full Smith–Waterman sequence
//! alignment", i.e. the entire `m × n` dynamic-programming matrix is
//! computed — which is why the paper's preferred load-balance metric is
//! the *sum of DP-matrix sizes* (Figure 7b) and its kernel metric is cell
//! updates per second.
//!
//! Two scalar kernels:
//! * [`sw_score_only`] — linear memory, returns score, end coordinates and
//!   the exact cell count; used when only filtering on score.
//! * [`sw_align`] — full traceback, returning the statistics the PASTIS
//!   filter needs (identity a.k.a. ANI, per-sequence coverage). It is the
//!   oracle of the default path, [`crate::parallel::AlignPool::run_traceback`],
//!   which carries the same statistics forward on SIMD lanes without a
//!   traceback matrix ([`crate::multilane`]) and re-runs `sw_align` only
//!   for saturated or oversized pairs.
//!
//! Gap convention: a gap run of length `k` costs `open + k·extend`
//! (NCBI-BLAST convention; the paper's production parameters are
//! `open = 11`, `extend = 2`).

use crate::matrices::Scoring;

/// Affine gap penalties (positive numbers; they are subtracted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapPenalties {
    /// Cost of opening a gap run (charged once per run, on top of the
    /// first `extend`).
    pub open: i32,
    /// Cost per gap character.
    pub extend: i32,
}

impl GapPenalties {
    /// The paper's production parameters: open 11, extend 2 (Table IV).
    pub fn pastis_defaults() -> GapPenalties {
        GapPenalties {
            open: 11,
            extend: 2,
        }
    }

    /// NCBI BLASTP defaults: open 11, extend 1.
    pub fn blast_defaults() -> GapPenalties {
        GapPenalties {
            open: 11,
            extend: 1,
        }
    }

    #[inline]
    fn first(self) -> i32 {
        self.open + self.extend
    }
}

/// Result of a local alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignmentResult {
    /// Optimal local alignment score (≥ 0).
    pub score: i32,
    /// Query span `[q_begin, q_end)` of the aligned region (0-based).
    pub q_begin: usize,
    /// Exclusive end of the query span.
    pub q_end: usize,
    /// Reference span `[r_begin, r_end)`.
    pub r_begin: usize,
    /// Exclusive end of the reference span.
    pub r_end: usize,
    /// Identically aligned columns.
    pub matches: usize,
    /// Substituted columns.
    pub mismatches: usize,
    /// Gap characters in the query.
    pub q_gaps: usize,
    /// Gap characters in the reference.
    pub r_gaps: usize,
    /// DP cells computed (`|q| · |r|`), the CUPs numerator.
    pub cells: u64,
}

impl AlignmentResult {
    /// The score-0 result of a `qlen × rlen` problem.
    pub(crate) fn empty(qlen: usize, rlen: usize) -> AlignmentResult {
        AlignmentResult {
            score: 0,
            q_begin: 0,
            q_end: 0,
            r_begin: 0,
            r_end: 0,
            matches: 0,
            mismatches: 0,
            q_gaps: 0,
            r_gaps: 0,
            cells: (qlen as u64) * (rlen as u64),
        }
    }

    /// Total alignment columns.
    pub fn aligned_cols(&self) -> usize {
        self.matches + self.mismatches + self.q_gaps + self.r_gaps
    }

    /// Sequence identity over the alignment — the quantity the paper's
    /// "ANI threshold" (0.30 in Table IV) is applied to. 0 for an empty
    /// alignment.
    pub fn identity(&self) -> f64 {
        let cols = self.aligned_cols();
        if cols == 0 {
            0.0
        } else {
            self.matches as f64 / cols as f64
        }
    }

    /// Fraction of the query covered by the aligned span.
    pub fn coverage_query(&self, qlen: usize) -> f64 {
        if qlen == 0 {
            0.0
        } else {
            (self.q_end - self.q_begin) as f64 / qlen as f64
        }
    }

    /// Fraction of the reference covered by the aligned span.
    pub fn coverage_ref(&self, rlen: usize) -> f64 {
        if rlen == 0 {
            0.0
        } else {
            (self.r_end - self.r_begin) as f64 / rlen as f64
        }
    }

    /// The smaller of the two coverages — what the paper's coverage
    /// threshold (0.70) is checked against.
    pub fn coverage_min(&self, qlen: usize, rlen: usize) -> f64 {
        self.coverage_query(qlen).min(self.coverage_ref(rlen))
    }
}

/// Score-only Smith–Waterman: linear memory, no traceback.
///
/// Returns `(score, q_end, r_end, cells)` where the ends are exclusive
/// coordinates of the best-scoring cell.
pub fn sw_score_only<S: Scoring>(
    q: &[u8],
    r: &[u8],
    scoring: &S,
    gaps: GapPenalties,
) -> (i32, usize, usize, u64) {
    let (m, n) = (q.len(), r.len());
    let cells = (m as u64) * (n as u64);
    if m == 0 || n == 0 {
        return (0, 0, 0, cells);
    }
    // h_prev[j] = H(i-1, j); e[j] = E(i, j) built left-to-right;
    // f_prev[j] = F(i-1, j) required for F recursion — keep per-row F.
    let mut h_prev = vec![0i32; n + 1];
    let mut h_cur = vec![0i32; n + 1];
    let mut f_prev = vec![i32::MIN / 2; n + 1];
    let mut f_cur = vec![i32::MIN / 2; n + 1];
    let (mut best, mut bi, mut bj) = (0i32, 0usize, 0usize);
    for i in 1..=m {
        let qi = q[i - 1];
        let mut e = i32::MIN / 2;
        for j in 1..=n {
            e = (h_cur[j - 1] - gaps.first()).max(e - gaps.extend);
            let f = (h_prev[j] - gaps.first()).max(f_prev[j] - gaps.extend);
            f_cur[j] = f;
            let diag = h_prev[j - 1] + scoring.score(qi, r[j - 1]);
            let h = 0.max(diag).max(e).max(f);
            h_cur[j] = h;
            if h > best {
                best = h;
                bi = i;
                bj = j;
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
        h_cur[0] = 0;
    }
    (best, bi, bj, cells)
}

// Traceback encoding, one byte per cell:
// bits 0-1: H source (0 = stop/zero, 1 = diagonal, 2 = E, 3 = F)
// bit 2: E extends a previous E (otherwise opens from H at (i, j-1))
// bit 3: F extends a previous F (otherwise opens from H at (i-1, j))
const H_STOP: u8 = 0;
const H_DIAG: u8 = 1;
const H_FROM_E: u8 = 2;
const H_FROM_F: u8 = 3;
const E_EXT: u8 = 1 << 2;
const F_EXT: u8 = 1 << 3;

/// Full Smith–Waterman with traceback and alignment statistics.
///
/// O(m·n) time and memory (one byte per DP cell for the traceback). The
/// scalar oracle of the lane kernel, which must match it field for field.
pub fn sw_align<S: Scoring>(
    q: &[u8],
    r: &[u8],
    scoring: &S,
    gaps: GapPenalties,
) -> AlignmentResult {
    align_traced(q, r, scoring, gaps, |_| {})
}

/// [`sw_align`] handing each traceback step to `on_op` (in reverse
/// sequence order) as it is counted; tests record them to rescore.
fn align_traced<S: Scoring>(
    q: &[u8],
    r: &[u8],
    scoring: &S,
    gaps: GapPenalties,
    mut on_op: impl FnMut(Step),
) -> AlignmentResult {
    let (m, n) = (q.len(), r.len());
    if m == 0 || n == 0 {
        return AlignmentResult::empty(m, n);
    }
    let mut tb = vec![0u8; m * n];
    let mut h_prev = vec![0i32; n + 1];
    let mut h_cur = vec![0i32; n + 1];
    let mut f_prev = vec![i32::MIN / 2; n + 1];
    let mut f_cur = vec![i32::MIN / 2; n + 1];
    let (mut best, mut bi, mut bj) = (0i32, 0usize, 0usize);
    for i in 1..=m {
        let qi = q[i - 1];
        let mut e = i32::MIN / 2;
        let row = (i - 1) * n;
        for j in 1..=n {
            let mut flags = 0u8;
            let e_open = h_cur[j - 1] - gaps.first();
            let e_ext = e - gaps.extend;
            e = if e_ext > e_open {
                flags |= E_EXT;
                e_ext
            } else {
                e_open
            };
            let f_open = h_prev[j] - gaps.first();
            let f_ext = f_prev[j] - gaps.extend;
            let f = if f_ext > f_open {
                flags |= F_EXT;
                f_ext
            } else {
                f_open
            };
            f_cur[j] = f;
            let diag = h_prev[j - 1] + scoring.score(qi, r[j - 1]);
            // Tie-break preference: diagonal > E > F > stop, which yields
            // the most "matched" alignment among optimal ones.
            let mut h = 0;
            let mut src = H_STOP;
            if diag > h {
                h = diag;
                src = H_DIAG;
            }
            if e > h {
                h = e;
                src = H_FROM_E;
            }
            if f > h {
                h = f;
                src = H_FROM_F;
            }
            h_cur[j] = h;
            tb[row + (j - 1)] = flags | src;
            if h > best {
                best = h;
                bi = i;
                bj = j;
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
        h_cur[0] = 0;
    }

    let mut res = AlignmentResult::empty(m, n);
    res.score = best;
    if best == 0 {
        return res;
    }
    // Traceback from (bi, bj).
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        H,
        E,
        F,
    }
    let (mut i, mut j) = (bi, bj);
    let mut state = State::H;
    loop {
        let cell = tb[(i - 1) * n + (j - 1)];
        match state {
            State::H => match cell & 0b11 {
                H_STOP => break,
                H_DIAG => {
                    if q[i - 1] == r[j - 1] {
                        res.matches += 1;
                    } else {
                        res.mismatches += 1;
                    }
                    on_op(Step::Diag);
                    i -= 1;
                    j -= 1;
                    if i == 0 || j == 0 {
                        break;
                    }
                }
                H_FROM_E => state = State::E,
                H_FROM_F => state = State::F,
                _ => unreachable!(),
            },
            State::E => {
                // Gap in query, consuming r[j-1].
                res.q_gaps += 1;
                on_op(Step::GapInQuery);
                let ext = cell & E_EXT != 0;
                j -= 1;
                if j == 0 {
                    break;
                }
                if !ext {
                    state = State::H;
                }
            }
            State::F => {
                // Gap in reference, consuming q[i-1].
                res.r_gaps += 1;
                on_op(Step::GapInRef);
                let ext = cell & F_EXT != 0;
                i -= 1;
                if i == 0 {
                    break;
                }
                if !ext {
                    state = State::H;
                }
            }
        }
    }
    res.q_begin = i;
    res.q_end = bi;
    res.r_begin = j;
    res.r_end = bj;
    res
}

/// One traceback step of [`align_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Residues aligned (match or mismatch).
    Diag,
    /// Gap in the query (consumes a reference residue).
    GapInQuery,
    /// Gap in the reference (consumes a query residue).
    GapInRef,
}

/// [`sw_align`] plus its alignment columns in sequence order.
#[cfg(test)]
fn sw_align_ops<S: Scoring>(
    q: &[u8],
    r: &[u8],
    scoring: &S,
    gaps: GapPenalties,
) -> (AlignmentResult, Vec<Step>) {
    let mut ops = Vec::new();
    let res = align_traced(q, r, scoring, gaps, |s| ops.push(s));
    ops.reverse();
    (res, ops)
}

/// Recompute the score of an alignment from its columns — the checking
/// oracle of the tests below.
#[cfg(test)]
fn rescore<S: Scoring>(
    q: &[u8],
    r: &[u8],
    res: &AlignmentResult,
    ops: &[Step],
    scoring: &S,
    gaps: GapPenalties,
) -> i32 {
    let mut score = 0i32;
    let (mut i, mut j) = (res.q_begin, res.r_begin);
    let mut prev: Option<Step> = None;
    for &op in ops {
        match op {
            Step::Diag => {
                score += scoring.score(q[i], r[j]);
                i += 1;
                j += 1;
            }
            Step::GapInQuery => {
                score -= if prev == Some(Step::GapInQuery) {
                    gaps.extend
                } else {
                    gaps.first()
                };
                j += 1;
            }
            Step::GapInRef => {
                score -= if prev == Some(Step::GapInRef) {
                    gaps.extend
                } else {
                    gaps.first()
                };
                i += 1;
            }
        }
        prev = Some(op);
    }
    assert_eq!(i, res.q_end, "ops do not span the query range");
    assert_eq!(j, res.r_end, "ops do not span the reference range");
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::{encode, Blosum62, MatchMismatch};
    use proptest::prelude::*;

    fn gp(open: i32, extend: i32) -> GapPenalties {
        GapPenalties { open, extend }
    }

    #[test]
    fn identical_sequences_align_fully() {
        let s = encode("MKVLAWYHE").unwrap();
        let res = sw_align(&s, &s, &Blosum62, GapPenalties::pastis_defaults());
        assert_eq!(res.matches, s.len());
        assert_eq!(res.mismatches, 0);
        assert_eq!(res.q_gaps + res.r_gaps, 0);
        assert_eq!(res.identity(), 1.0);
        assert_eq!(res.coverage_min(s.len(), s.len()), 1.0);
        // Score = sum of diagonal scores.
        let want: i32 = s.iter().map(|&c| Blosum62.score(c, c)).sum();
        assert_eq!(res.score, want);
    }

    #[test]
    fn known_alignment_heagawghee_pawheae() {
        // Classic textbook pair (Durbin et al.).
        let q = encode("HEAGAWGHEE").unwrap();
        let r = encode("PAWHEAE").unwrap();
        let (res, ops) = sw_align_ops(&q, &r, &Blosum62, gp(10, 1));
        assert!(res.score > 0);
        assert_eq!(res.score, rescore(&q, &r, &res, &ops, &Blosum62, gp(10, 1)));
        let (s, _, _, cells) = sw_score_only(&q, &r, &Blosum62, gp(10, 1));
        assert_eq!(s, res.score);
        assert_eq!(cells, 70);
    }

    #[test]
    fn local_alignment_ignores_flanks() {
        // Shared core "AWGHE" with unrelated flanks.
        let q = encode("PPPPAWGHEPPPP").unwrap();
        let r = encode("KKKAWGHEKKK").unwrap();
        let res = sw_align(&q, &r, &Blosum62, GapPenalties::pastis_defaults());
        assert_eq!(res.matches, 5);
        assert_eq!(
            &q[res.q_begin..res.q_end],
            encode("AWGHE").unwrap().as_slice()
        );
        assert_eq!(
            &r[res.r_begin..res.r_end],
            encode("AWGHE").unwrap().as_slice()
        );
    }

    #[test]
    fn gap_is_opened_when_cheaper_than_mismatches() {
        // q has GGG inserted relative to r; with cheap gaps the optimal
        // local alignment bridges the insert with one 3-char gap run.
        let q = encode("AAAAGGGTTTT").unwrap();
        let r = encode("AAAATTTT").unwrap();
        let sc = MatchMismatch {
            match_score: 2,
            mismatch_score: -3,
        };
        let (res, ops) = sw_align_ops(&q, &r, &sc, gp(1, 1));
        assert_eq!(res.r_gaps, 3, "ops: {ops:?}");
        assert_eq!(res.matches, 8);
        assert_eq!(res.score, 8 * 2 - (1 + 3));
        assert_eq!(res.score, rescore(&q, &r, &res, &ops, &sc, gp(1, 1)));
    }

    #[test]
    fn affine_prefers_one_long_gap_over_two_short() {
        // With high open and low extend, a single gap run is preferred.
        let q = encode("AAAWWWAAA").unwrap();
        let r = encode("AAAAAA").unwrap();
        let res = sw_align(
            &q,
            &r,
            &MatchMismatch {
                match_score: 5,
                mismatch_score: -4,
            },
            gp(6, 1),
        );
        // Best: align AAA...AAA with one 3-long gap in reference.
        assert_eq!(res.matches, 6);
        assert_eq!(res.r_gaps, 3);
        assert_eq!(res.score, 6 * 5 - (6 + 3));
    }

    #[test]
    fn empty_inputs() {
        let e: Vec<u8> = Vec::new();
        let s = encode("MKV").unwrap();
        for (a, b) in [(&e, &s), (&s, &e), (&e, &e)] {
            let res = sw_align(a, b, &Blosum62, GapPenalties::pastis_defaults());
            assert_eq!(res.score, 0);
            assert_eq!(res.aligned_cols(), 0);
            assert_eq!(res.identity(), 0.0);
        }
    }

    #[test]
    fn dissimilar_sequences_score_zero_or_tiny() {
        let q = encode("WWWWW").unwrap();
        let r = encode("PPPPP").unwrap();
        let res = sw_align(&q, &r, &Blosum62, GapPenalties::pastis_defaults());
        assert_eq!(res.score, 0);
        assert_eq!(res.aligned_cols(), 0);
    }

    #[test]
    fn coverage_accounts_for_span_not_columns() {
        let q = encode("MKVLAWYHEE").unwrap();
        let r = encode("MKVLA").unwrap();
        let res = sw_align(&q, &r, &Blosum62, GapPenalties::pastis_defaults());
        assert!((res.coverage_query(q.len()) - 0.5).abs() < 1e-12);
        assert_eq!(res.coverage_ref(r.len()), 1.0);
        assert_eq!(res.coverage_min(q.len(), r.len()), 0.5);
    }

    #[test]
    fn cells_counted_even_when_no_alignment() {
        let (_, _, _, cells) = sw_score_only(
            &encode("WW").unwrap(),
            &encode("PPP").unwrap(),
            &Blosum62,
            GapPenalties::pastis_defaults(),
        );
        assert_eq!(cells, 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn score_is_symmetric(
            a in proptest::collection::vec(0u8..21, 0..40),
            b in proptest::collection::vec(0u8..21, 0..40),
        ) {
            let g = GapPenalties::pastis_defaults();
            let (sab, ..) = sw_score_only(&a, &b, &Blosum62, g);
            let (sba, ..) = sw_score_only(&b, &a, &Blosum62, g);
            prop_assert_eq!(sab, sba);
        }

        #[test]
        fn align_score_matches_score_only_and_rescore(
            a in proptest::collection::vec(0u8..21, 0..40),
            b in proptest::collection::vec(0u8..21, 0..40),
            open in 1i32..15,
            extend in 1i32..5,
        ) {
            let g = gp(open, extend);
            let (res, ops) = sw_align_ops(&a, &b, &Blosum62, g);
            prop_assert_eq!(&res, &sw_align(&a, &b, &Blosum62, g));
            prop_assert_eq!(ops.len(), res.aligned_cols());
            let (s, ..) = sw_score_only(&a, &b, &Blosum62, g);
            prop_assert_eq!(res.score, s);
            if res.score > 0 {
                prop_assert_eq!(rescore(&a, &b, &res, &ops, &Blosum62, g), res.score);
            }
            prop_assert!(res.score >= 0);
        }

        #[test]
        fn self_alignment_is_perfect(
            a in proptest::collection::vec(0u8..20, 1..50),
        ) {
            let res = sw_align(&a, &a, &Blosum62, GapPenalties::pastis_defaults());
            prop_assert_eq!(res.matches, a.len());
            prop_assert_eq!(res.identity(), 1.0);
        }

        #[test]
        fn substring_scores_at_least_its_self_score(
            a in proptest::collection::vec(0u8..20, 5..40),
            start in 0usize..3,
        ) {
            // Aligning a substring against the whole must recover at least
            // the substring's self-score.
            let end = a.len() - 1;
            let sub = &a[start..end];
            let self_score: i32 = sub.iter().map(|&c| Blosum62.score(c, c)).sum();
            let (s, ..) = sw_score_only(sub, &a, &Blosum62, GapPenalties::pastis_defaults());
            prop_assert!(s >= self_score);
        }

        #[test]
        fn longer_gaps_never_increase_score(
            a in proptest::collection::vec(0u8..21, 0..30),
            b in proptest::collection::vec(0u8..21, 0..30),
        ) {
            let (cheap, ..) = sw_score_only(&a, &b, &Blosum62, gp(5, 1));
            let (pricey, ..) = sw_score_only(&a, &b, &Blosum62, gp(11, 2));
            prop_assert!(pricey <= cheap);
        }
    }
}
