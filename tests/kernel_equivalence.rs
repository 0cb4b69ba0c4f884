//! Differential kernel-equivalence harness: every compiled SIMD backend of
//! both multilane kernels must be **bit-identical** to its scalar oracle —
//! the score-only lanes to the scalar i32 kernel [`sw_score_only`], and
//! the full-statistics lanes behind [`AlignPool::run_traceback`] (the
//! default alignment path) to the traceback kernel [`sw_align`], field
//! for field — scores, spans, matches, gaps and batch counters alike.
//!
//! The paper's headline determinism claim ("the output is identical for
//! every process count / blocking factor") only survives a vectorized
//! kernel if the vector arithmetic is provably score-preserving, so this
//! suite attacks it differentially: seeded generators produce biased
//! protein sequences (real amino-acid frequencies), homologous pairs via
//! point mutation + indels, adversarial all-max/all-min score pairs, and
//! the degenerate lengths (0, 1, and scores beyond i16 saturation), then
//! every backend in [`SimdBackend::available`] — which always includes the
//! portable scalar-array lanes, so the whole dispatch surface runs even on
//! hosts without AVX2 — is compared against its oracle.

use pastis::align::matrices::AA_COUNT;
use pastis::align::parallel::AlignPool;
use pastis::align::sw::{sw_align, sw_score_only, AlignmentResult, GapPenalties};
use pastis::align::{
    sw_score_batch_simd, AlignTask, BatchStats, Blosum62, MatchMismatch, Scoring, SimdBackend,
};
use pastis::core::pipeline::{run_search_serial, SearchResult};
use pastis::core::SearchParams;
use pastis::seqio::{SyntheticConfig, SyntheticDataset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Residue codes (alphabet `ARNDCQEGHILKMFPSTWYVX`).
const W: u8 = 17; // BLOSUM62 self-score 11 (the maximum)
const A: u8 = 0; // BLOSUM62 self-score 4

/// Swiss-Prot amino-acid frequencies in per-mille, in the order of the
/// canonical alphabet `ARNDCQEGHILKMFPSTWYV` plus a trace of `X`.
const AA_FREQ_PER_MILLE: [u32; 21] = [
    83, 55, 41, 55, 14, 39, 67, 71, 23, 59, 97, 58, 24, 39, 47, 66, 53, 11, 29, 69, 1,
];

fn biased_residue(rng: &mut StdRng) -> u8 {
    let total: u32 = AA_FREQ_PER_MILLE.iter().sum();
    let mut roll = rng.gen_range(0..total);
    for (code, &w) in AA_FREQ_PER_MILLE.iter().enumerate() {
        if roll < w {
            return code as u8;
        }
        roll -= w;
    }
    unreachable!("frequency table exhausted");
}

fn biased_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| biased_residue(rng)).collect()
}

/// Homolog of `parent`: seeded point mutations plus occasional 1–3-residue
/// indels, the generator's stand-in for divergent family members.
fn mutate(rng: &mut StdRng, parent: &[u8], rate: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(parent.len() + 4);
    for &c in parent {
        let roll: f64 = rng.gen();
        if roll < rate / 4.0 {
            continue; // deletion
        } else if roll < rate / 2.0 {
            out.push(biased_residue(rng)); // insertion
            out.push(c);
        } else if roll < rate {
            out.push(biased_residue(rng)); // substitution
        } else {
            out.push(c);
        }
    }
    out
}

/// One generated batch: biased random pairs, homologous pairs, and the
/// degenerate lengths 0 and 1 mixed in.
fn gen_pairs(seed: u64, n_pairs: usize, max_len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(n_pairs);
    for k in 0..n_pairs {
        let pair = match k % 4 {
            // Unrelated biased sequences.
            0 => {
                let la = rng.gen_range(0..=max_len);
                let lb = rng.gen_range(0..=max_len);
                (biased_seq(&mut rng, la), biased_seq(&mut rng, lb))
            }
            // Homologous pair (seeded mutation of a common parent).
            1 => {
                let len = rng.gen_range(1..=max_len);
                let rate = rng.gen_range(0.02..0.4);
                let parent = biased_seq(&mut rng, len);
                let child = mutate(&mut rng, &parent, rate);
                (parent, child)
            }
            // Adversarial composition: runs of the max-scoring residue
            // against runs of itself or of a uniform random residue.
            2 => {
                let la = rng.gen_range(0..=max_len);
                let lb = rng.gen_range(0..=max_len);
                let other = rng.gen_range(0..AA_COUNT as u8);
                (vec![W; la], vec![other; lb])
            }
            // Degenerate lengths 0 / 1 on either side.
            _ => {
                let tiny = rng.gen_range(0..=1);
                let l = rng.gen_range(0..=max_len);
                if k % 8 < 4 {
                    (biased_seq(&mut rng, tiny), biased_seq(&mut rng, l))
                } else {
                    (biased_seq(&mut rng, l), biased_seq(&mut rng, tiny))
                }
            }
        };
        pairs.push(pair);
    }
    pairs
}

fn scalar_reference(pairs: &[(Vec<u8>, Vec<u8>)], g: GapPenalties) -> Vec<i32> {
    pairs
        .iter()
        .map(|(q, r)| sw_score_only(q, r, &Blosum62, g).0)
        .collect()
}

/// `pairs` as a sequence store plus one task per pair (query `2k`,
/// reference `2k + 1`).
fn as_tasks(pairs: &[(Vec<u8>, Vec<u8>)]) -> (Vec<&[u8]>, Vec<AlignTask>) {
    let store: Vec<&[u8]> = pairs
        .iter()
        .flat_map(|(q, r)| [q.as_slice(), r.as_slice()])
        .collect();
    let tasks = (0..pairs.len() as u32)
        .map(|k| AlignTask {
            query: 2 * k,
            reference: 2 * k + 1,
            seed_q: 0,
            seed_r: 0,
        })
        .collect();
    (store, tasks)
}

/// `run_traceback` of `pairs` on `backend` with `threads` workers.
fn traceback_on<S: Scoring + Sync>(
    backend: SimdBackend,
    threads: usize,
    pairs: &[(Vec<u8>, Vec<u8>)],
    scoring: &S,
    g: GapPenalties,
) -> (Vec<AlignmentResult>, BatchStats) {
    let (store, tasks) = as_tasks(pairs);
    AlignPool::new(threads).with_simd(backend).run_traceback(
        &tasks,
        |id| store[id as usize],
        scoring,
        g,
    )
}

/// The full-statistics contract: on every available backend,
/// `run_traceback` equals [`sw_align`] field for field on every pair.
/// Returns the promotion count, which must agree across backends.
fn assert_traceback_matches<S: Scoring + Sync>(
    pairs: &[(Vec<u8>, Vec<u8>)],
    scoring: &S,
    g: GapPenalties,
) -> u64 {
    let want: Vec<AlignmentResult> = pairs
        .iter()
        .map(|(q, r)| sw_align(q, r, scoring, g))
        .collect();
    let mut promotions = None;
    for backend in SimdBackend::available() {
        let (got, stats) = traceback_on(backend, 2, pairs, scoring, g);
        for (k, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "{backend} pair {k} ({g:?}): {:?}", pairs[k]);
        }
        assert_eq!(stats.simd, backend);
        assert_eq!(
            *promotions.get_or_insert(stats.lane_promotions),
            stats.lane_promotions
        );
    }
    promotions.unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 generated batches, each checked against every available
    /// backend (so ≥256 cases per backend pair on any host — scalar vs
    /// SSE2 and scalar vs AVX2 on x86_64).
    #[test]
    fn every_backend_is_bit_identical_to_scalar(
        seed in 0u64..1_000_000_000,
        n_pairs in 1usize..32,
        max_len in 1usize..72,
    ) {
        let g = GapPenalties::pastis_defaults();
        let pairs = gen_pairs(seed, n_pairs, max_len);
        let borrowed: Vec<(&[u8], &[u8])> =
            pairs.iter().map(|(q, r)| (q.as_slice(), r.as_slice())).collect();
        let want = scalar_reference(&pairs, g);
        for backend in SimdBackend::available() {
            let got = sw_score_batch_simd(&borrowed, &Blosum62, g, backend);
            prop_assert_eq!(&got.scores, &want, "backend {}", backend);
            // Short pairs cannot reach i16 saturation.
            prop_assert_eq!(got.promotions, 0, "backend {}", backend);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same 256 generated batches through the default full-statistics
    /// path: `run_traceback` on every backend equals `sw_align` field for
    /// field.
    #[test]
    fn traceback_lanes_equal_sw_align_on_every_backend(
        seed in 0u64..1_000_000_000,
        n_pairs in 1usize..32,
        max_len in 1usize..72,
    ) {
        let pairs = gen_pairs(seed, n_pairs, max_len);
        let promotions = assert_traceback_matches(&pairs, &Blosum62, GapPenalties::pastis_defaults());
        prop_assert_eq!(promotions, 0);
    }
}

/// Random sequences over the first `letters` residue codes, half of them
/// point-mutated copies of a partner — the tie-heavy regime.
fn small_alphabet_pairs(seed: u64, n_pairs: usize, letters: u8) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let draw = |rng: &mut StdRng, len: usize| -> Vec<u8> {
        (0..len).map(|_| rng.gen_range(0..letters)).collect()
    };
    (0..n_pairs)
        .map(|k| {
            let q = {
                let len = rng.gen_range(0..=40);
                draw(&mut rng, len)
            };
            let r = if k % 2 == 0 {
                let len = rng.gen_range(0..=40);
                draw(&mut rng, len)
            } else {
                let mut r = q.clone();
                for c in r.iter_mut() {
                    if rng.gen_bool(0.25) {
                        *c = rng.gen_range(0..letters);
                    }
                }
                if !r.is_empty() && rng.gen_bool(0.5) {
                    let at = rng.gen_range(0..r.len());
                    r.remove(at);
                }
                r
            };
            (q, r)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Ties everywhere: ±small match/mismatch scores, cheap gap opens
    /// (`open ∈ 0..=5`, so open-vs-extend and diag-vs-gap ties are common)
    /// on 2–4-letter alphabets. Every tie must break exactly as
    /// `sw_align`'s traceback breaks it.
    #[test]
    fn tie_heavy_scoring_breaks_ties_like_sw_align(
        seed in 0u64..1_000_000_000,
        n_pairs in 1usize..48,
        letters in 2u8..=4,
        match_score in 1i32..=3,
        mismatch_score in -3i32..=-1,
        open in 0i32..=5,
        extend in 0i32..=2,
    ) {
        let pairs = small_alphabet_pairs(seed, n_pairs, letters);
        let scoring = MatchMismatch { match_score, mismatch_score };
        let promotions = assert_traceback_matches(&pairs, &scoring, GapPenalties { open, extend });
        prop_assert_eq!(promotions, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pool dispatch path (lane packing + worker scheduling) holds the
    /// same contract, including bit-identical `BatchStats` counters across
    /// backends *and* thread counts. Fewer cases than the raw-kernel
    /// proptest above — each case runs seven full pools.
    #[test]
    fn pool_stats_are_identical_across_backends(
        seed in 0u64..1_000_000_000,
        n_pairs in 1usize..48,
    ) {
        let g = GapPenalties::pastis_defaults();
        let pairs = gen_pairs(seed, n_pairs, 80);
        let mut store: Vec<Vec<u8>> = Vec::with_capacity(pairs.len() * 2);
        let mut tasks = Vec::with_capacity(pairs.len());
        for (q, r) in pairs {
            tasks.push(AlignTask {
                query: store.len() as u32,
                reference: store.len() as u32 + 1,
                seed_q: 0,
                seed_r: 0,
            });
            store.push(q);
            store.push(r);
        }
        let lookup = |id: u32| -> &[u8] { &store[id as usize] };
        let (want, want_stats) = AlignPool::new(1)
            .with_simd(SimdBackend::Scalar)
            .run_score_only(&tasks, lookup, &Blosum62, g);
        for backend in SimdBackend::available() {
            for threads in [1usize, 3] {
                let (got, stats) = AlignPool::new(threads)
                    .with_simd(backend)
                    .run_score_only(&tasks, lookup, &Blosum62, g);
                prop_assert_eq!(&got, &want, "backend {} t{}", backend, threads);
                prop_assert_eq!(stats.pairs, want_stats.pairs);
                prop_assert_eq!(stats.cells, want_stats.cells);
                prop_assert_eq!(stats.max_cells, want_stats.max_cells);
                prop_assert_eq!(stats.lane_promotions, want_stats.lane_promotions);
                prop_assert_eq!(stats.simd, backend);
            }
        }
    }
}

/// All 21×21 single-residue pairings — including the most negative BLOSUM62
/// entries — at assorted lengths, on every backend. Catches sign/saturation
/// slips that biased sampling might miss.
#[test]
fn exhaustive_residue_pairings_match_scalar() {
    let g = GapPenalties::pastis_defaults();
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for a in 0..AA_COUNT as u8 {
        for b in 0..AA_COUNT as u8 {
            pairs.push((vec![a; 7], vec![b; 13]));
            pairs.push((vec![a; 1], vec![b; 1]));
        }
    }
    let borrowed: Vec<(&[u8], &[u8])> = pairs
        .iter()
        .map(|(q, r)| (q.as_slice(), r.as_slice()))
        .collect();
    let want = scalar_reference(&pairs, g);
    for backend in SimdBackend::available() {
        let got = sw_score_batch_simd(&borrowed, &Blosum62, g, backend);
        assert_eq!(got.scores, want, "{backend}");
        assert_eq!(got.promotions, 0, "{backend}");
    }
    assert_eq!(assert_traceback_matches(&pairs, &Blosum62, g), 0);
}

/// Self-alignments whose optimal score lands exactly at i16 saturation ±1:
/// 32766 must stay on the fast path, 32767 and 32768 must take the
/// promote-to-i32 rescue — and all three must match the scalar kernel
/// exactly on every backend.
#[test]
fn overflow_boundary_promotes_exactly_at_saturation() {
    let g = GapPenalties::pastis_defaults();
    // The construction relies on these BLOSUM62 diagonal entries.
    assert_eq!(Blosum62.score(W, W), 11);
    assert_eq!(Blosum62.score(A, A), 4);
    // 11·w + 4·a self-alignment scores, straddling i16::MAX = 32767.
    let compose = |w: usize, a: usize| -> Vec<u8> {
        let mut s = vec![W; w];
        s.extend(std::iter::repeat_n(A, a));
        s
    };
    let cases = [
        (compose(2978, 2), 32766i32, 0u64), // MAX−1: no promotion
        (compose(2977, 5), 32767i32, 1u64), // exactly MAX: promoted (rescue is exact)
        (compose(2976, 8), 32768i32, 1u64), // MAX+1: saturates, promoted
    ];
    for (seq, want_score, want_promotions) in &cases {
        let (scalar_score, _, _, _) = sw_score_only(seq, seq, &Blosum62, g);
        assert_eq!(scalar_score, *want_score, "construction is off");
        for backend in SimdBackend::available() {
            let got = sw_score_batch_simd(&[(seq, seq)], &Blosum62, g, backend);
            assert_eq!(got.scores[0], *want_score, "{backend} score");
            assert_eq!(
                got.promotions, *want_promotions,
                "{backend} promotions at score {want_score}"
            );
        }
    }
}

/// The full-statistics lanes saturate at the same boundary: a pair whose
/// optimal score is 32766 stays on the lanes, 32767 and 32768 are
/// promoted to `sw_align` — and the promotions show in `BatchStats` and
/// in the `align.lane_promotions` counter on every backend and thread
/// count. Large match scores keep the pair short (33 matches around one
/// mismatch), so the statistics of a non-trivial alignment are checked at
/// the boundary too.
#[test]
fn traceback_lanes_promote_exactly_at_saturation() {
    use pastis::trace::TraceSession;
    // Gaps dearer than the mismatch, so the optimum runs through it.
    let g = GapPenalties {
        open: 900,
        extend: 100,
    };
    let mut rng = StdRng::seed_from_u64(32767);
    let mut q = vec![A; 34];
    let mut r = vec![A; 34];
    q[16] = 4;
    r[16] = 3;
    let mut pairs = vec![(q, r)];
    // Companions of ≤ 30 residues score < 32766 under any scoring here.
    for _ in 0..20 {
        let q = biased_seq(&mut rng, 28);
        let r = mutate(&mut rng, &q, 0.2);
        pairs.push((q, r));
    }
    for (penalty, want_score, want_promotions) in
        [(234, 32766, 0u64), (233, 32767, 1), (232, 32768, 1)]
    {
        let scoring = MatchMismatch {
            match_score: 1000,
            mismatch_score: -penalty,
        };
        let want = sw_align(&pairs[0].0, &pairs[0].1, &scoring, g);
        assert_eq!(
            (want.score, want.matches, want.mismatches),
            (want_score, 33, 1)
        );
        assert_eq!(
            assert_traceback_matches(&pairs, &scoring, g),
            want_promotions,
            "promotions at score {want_score}"
        );
        let (store, tasks) = as_tasks(&pairs);
        for backend in SimdBackend::available() {
            for threads in [1usize, 3] {
                let session = TraceSession::new();
                let rec = session.recorder(0);
                let (_, stats) = AlignPool::new(threads)
                    .with_simd(backend)
                    .with_recorder(rec.clone())
                    .run_traceback(&tasks, |id| store[id as usize], &scoring, g);
                assert_eq!(
                    stats.lane_promotions, want_promotions,
                    "{backend} t{threads}"
                );
                assert_eq!(
                    rec.counters().get("align.lane_promotions").copied(),
                    Some(want_promotions as f64),
                    "{backend} t{threads}: counter missing or wrong"
                );
            }
        }
    }
}

/// A task longer than the lane bound (4096 residues) skips the lanes: it
/// takes the scalar `sw_align` fallback, is counted as a promotion, and
/// its lane companions stay on the lanes.
#[test]
fn oversized_task_takes_the_scalar_fallback() {
    let g = GapPenalties::pastis_defaults();
    let mut rng = StdRng::seed_from_u64(4097);
    let long = biased_seq(&mut rng, 4097);
    let mut pairs = vec![(long[..60].to_vec(), long.clone())];
    for _ in 0..5 {
        let q = biased_seq(&mut rng, 50);
        let r = mutate(&mut rng, &q, 0.1);
        pairs.push((q, r));
    }
    assert_eq!(assert_traceback_matches(&pairs, &Blosum62, g), 1);
    let (got, _) = traceback_on(SimdBackend::detect(), 1, &pairs, &Blosum62, g);
    assert_eq!((got[0].r_begin, got[0].r_end), (0, 60), "prefix found");
}

/// Promotions are pair-intrinsic: packing a saturating pair next to small
/// pairs in the same batch promotes exactly that pair, on every backend
/// and thread count, and the `align.lane_promotions` telemetry counter
/// reports it.
#[test]
fn lane_promotions_surface_in_stats_and_telemetry() {
    use pastis::trace::TraceSession;
    let g = GapPenalties::pastis_defaults();
    let big = {
        let mut s = vec![W; 2976];
        s.extend(std::iter::repeat_n(A, 8));
        s
    };
    let mut rng = StdRng::seed_from_u64(99);
    // Two saturating self-alignments buried among 30 ordinary pairs.
    let mut store: Vec<Vec<u8>> = vec![big.clone(), big];
    for _ in 0..30 {
        let len = rng.gen_range(10..60);
        store.push(biased_seq(&mut rng, len));
    }
    let mut tasks = vec![
        AlignTask {
            query: 0,
            reference: 0,
            seed_q: 0,
            seed_r: 0,
        },
        AlignTask {
            query: 1,
            reference: 1,
            seed_q: 0,
            seed_r: 0,
        },
    ];
    for i in 2..store.len() as u32 {
        tasks.push(AlignTask {
            query: i,
            reference: (i % 30) + 2,
            seed_q: 0,
            seed_r: 0,
        });
    }
    let lookup = |id: u32| -> &[u8] { &store[id as usize] };
    for backend in SimdBackend::available() {
        for threads in [1usize, 4] {
            let session = TraceSession::new();
            let rec = session.recorder(0);
            let pool = AlignPool::new(threads)
                .with_simd(backend)
                .with_recorder(rec.clone());
            let (results, stats) = pool.run_score_only(&tasks, lookup, &Blosum62, g);
            assert_eq!(results[0].score, 32768, "{backend} t{threads}");
            assert_eq!(results[1].score, 32768, "{backend} t{threads}");
            assert_eq!(stats.lane_promotions, 2, "{backend} t{threads}");
            assert_eq!(
                rec.counters().get("align.lane_promotions").copied(),
                Some(2.0),
                "{backend} t{threads}: counter missing or wrong"
            );
        }
    }
}

/// Bit-level identity of a similarity graph (the `tests/chaos.rs` pattern):
/// every field of every edge, floats by their exact bit patterns.
fn graph_bits(res: &SearchResult) -> Vec<(u32, u32, i32, u32, u32, u32)> {
    res.graph
        .edges()
        .iter()
        .map(|e| {
            (
                e.i,
                e.j,
                e.score,
                e.ani.to_bits(),
                e.coverage.to_bits(),
                e.common_kmers,
            )
        })
        .collect()
}

/// Whole-pipeline face of the contract on the chaos-test corpus: a search
/// with the default full-statistics kernel and one with the score-only
/// kernel, each run under every backend (forced scalar, forced each
/// available backend, and auto), produce bit-identical similarity graphs.
#[test]
fn pipeline_graph_is_bit_identical_across_backends() {
    use pastis::align::SimdPolicy;
    use pastis::core::params::AlignKind;
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 40,
        mean_len: 60.0,
        singleton_fraction: 0.3,
        divergence: 0.08,
        seed: 42,
        ..SyntheticConfig::small(40, 42)
    });
    for align_kind in [AlignKind::FullSw, AlignKind::ScoreOnly] {
        let base = SearchParams {
            align_kind,
            ..SearchParams::test_defaults()
        }
        .with_blocking(2, 2)
        .with_align_threads(2);
        let want = {
            let params = base
                .clone()
                .with_simd(SimdPolicy::Force(SimdBackend::Scalar));
            graph_bits(&run_search_serial(&ds.store, &params).unwrap())
        };
        assert!(
            !want.is_empty(),
            "{align_kind:?}: reference graph is empty; test is vacuous"
        );
        let mut policies = vec![SimdPolicy::Auto];
        policies.extend(SimdBackend::available().into_iter().map(SimdPolicy::Force));
        for policy in policies {
            let params = base.clone().with_simd(policy);
            let got = graph_bits(&run_search_serial(&ds.store, &params).unwrap());
            assert_eq!(
                got, want,
                "{align_kind:?}: policy {policy:?} changed the graph"
            );
        }
    }
}
