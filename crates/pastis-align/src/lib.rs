//! Batch protein sequence alignment for PASTIS-RS.
//!
//! PASTIS performs its compute-bound phase — millions of pairwise
//! Smith–Waterman alignments per node — on GPUs through ADEPT, with SeqAn
//! as a CPU alternative. This crate is the substrate replacing both:
//!
//! * [`matrices`] — the canonical 20+1-letter amino-acid code, BLOSUM62,
//!   and simple match/mismatch scoring.
//! * [`sw`] — exact full-matrix affine-gap Smith–Waterman, scalar: a
//!   score-only linear-memory kernel and the traceback kernel
//!   [`sw_align`], which produces the alignment statistics PASTIS filters
//!   on (identity/ANI, coverage) and is the oracle of the lane kernels.
//! * [`banded`] — banded and x-drop variants (cheaper, bounded-error
//!   kernels offered as sensitivity/performance options).
//! * [`multilane`] — ADEPT-style inter-task batching: many alignments
//!   advance in lock-step vector lanes (the SeqAn-class vectorized CPU
//!   backend), one pair per saturating i16 lane with an exact
//!   promote-to-scalar overflow rescue. Two kernels share the lanes: a
//!   score-only one, and the full-statistics one behind the default
//!   alignment path, which carries each alignment's begin coordinates,
//!   matches and columns forward instead of storing a traceback matrix.
//! * [`simd`] — the lane substrate: a [`simd::SimdVec`] trait with
//!   AVX2/SSE2 (`core::arch::x86_64`, runtime-detected), NEON (aarch64)
//!   and portable scalar-array implementations, plus backend
//!   detection/selection ([`simd::SimdBackend`], [`simd::SimdPolicy`]).
//! * [`parallel`] — the intra-rank parallel engine: a worker pool
//!   executing batches as atomically-claimed units across `t` threads
//!   (bit-identical to the serial driver for any thread count), with a
//!   length-bucketing packer dispatching full-statistics and score-only
//!   work through the multilane kernels.
//! * [`batch`] — the batch driver with exact cell-update accounting: the
//!   paper's load-balance metric (Figure 7b) is the *sum of DP-matrix
//!   sizes*, and its headline kernel metric is cell updates per second
//!   (CUPs), both of which come from these counters.
//!
//! # Example
//!
//! ```
//! use pastis_align::{matrices::{encode, Blosum62}, sw::{sw_align, GapPenalties}};
//!
//! let q = encode("HEAGAWGHEE").unwrap();
//! let r = encode("PAWHEAE").unwrap();
//! let res = sw_align(&q, &r, &Blosum62, GapPenalties::blast_defaults());
//! assert!(res.score > 0);
//! assert!(res.identity() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod banded;
pub mod batch;
pub mod matrices;
pub mod multilane;
pub mod parallel;
pub mod simd;
pub mod sw;

pub use batch::{AlignTask, BatchAligner, BatchStats};
pub use matrices::{encode, Blosum62, MatchMismatch, Scoring, AA_ALPHABET};
pub use multilane::{
    sw_score_batch, sw_score_batch_simd, sw_score_lanes, sw_score_multi, LaneScores, LaneTable,
};
pub use parallel::{AlignPool, ScoreResult};
pub use simd::{SimdBackend, SimdPolicy};
pub use sw::{sw_align, sw_score_only, AlignmentResult, GapPenalties};
