//! Intra-rank parallel batch-alignment engine — the ADEPT driver analog.
//!
//! ADEPT feeds a GPU thousands of independent alignments that advance in
//! lock-step; on the CPU the same inter-task parallelism maps onto two
//! nested levels, both provided here:
//!
//! * **A worker pool** ([`AlignPool`]): an `AlignTask` batch is split into
//!   units that the rank's [`WorkPool`] threads claim from a shared atomic
//!   counter (dynamic self-scheduling, so ragged task costs balance), with
//!   results re-assembled **in task order**. Every task is computed by the same
//!   kernel regardless of which worker claims it, so output is
//!   bit-identical to the serial driver for any thread count — the same
//!   determinism contract the SUMMA layer pins down.
//! * **Multilane packing** ([`AlignPool::run_traceback`],
//!   [`AlignPool::run_score_only`]): full-statistics and score-only work
//!   is sorted by length into ragged lanes and dispatched through the
//!   vector kernels ([`crate::multilane`]) at the selected backend's lane
//!   width ([`AlignPool::with_simd`]; AVX2 16, SSE2/NEON 8, portable 16),
//!   falling back to the scalar kernels ([`sw_align`], [`sw_score_only`])
//!   for tasks longer than [`OVERSIZED_LEN`]. The lane plan is a pure
//!   function of the task list and lane width, never of the thread count,
//!   and the vector kernels are padding-invariant and equal to the scalar
//!   ones (saturated lanes are re-run through the scalar kernel), so
//!   results stay bit-identical here too — across thread counts *and*
//!   backends.
//!
//! Seed-anchored banded work ([`AlignPool::run_banded`]) parallelizes over
//! the scalar kernel only — its exploration set depends on per-pair seeds,
//! which does not fit lock-step lanes.
//!
//! Time accounting: the returned [`BatchStats`] carries the wall-vs-CPU
//! split — `seconds` sums worker busy time, `wall_seconds` is elapsed.

use std::ops::Range;
use std::time::Instant;

use pastis_pool::{Engine, WorkPool};
use pastis_trace::{names, Component, Recorder, Track};

use crate::banded::sw_banded;
use crate::batch::{AlignTask, BatchStats};
use crate::matrices::Scoring;
use crate::multilane::{
    sw_align_lanes_prepared, sw_score_lanes_prepared, usable, LaneTable, OVERSIZED_LEN,
};
use crate::simd::{SimdBackend, MAX_LANES};
use crate::sw::{sw_align, sw_score_only, AlignmentResult, GapPenalties};

/// Scalar tasks claimed per unit of work. Small enough for dynamic load
/// balance over ragged lengths, large enough to amortize the atomic claim.
const CHUNK: usize = 32;

/// Score and exact work of one score-only or banded task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreResult {
    /// Optimal local score found by the kernel (≥ 0).
    pub score: i32,
    /// DP cells attributed to the task (`|q|·|r|` for full-matrix
    /// kernels; explored cells for the banded kernel).
    pub cells: u64,
}

/// Alignment batch driver: executes batches as atomically-claimed units on
/// a [`WorkPool`].
#[derive(Debug, Clone)]
pub struct AlignPool {
    recorder: Recorder,
    simd: SimdBackend,
    workers: WorkPool,
}

impl AlignPool {
    /// A pool on its own [`WorkPool::sized`]`(threads)` (`threads` counts
    /// the calling thread; `0` means one per available core). Telemetry is
    /// off until [`AlignPool::with_recorder`] attaches a sink; the vector
    /// backend defaults to the best one the host supports
    /// ([`SimdBackend::detect`]).
    pub fn new(threads: usize) -> AlignPool {
        AlignPool {
            recorder: Recorder::disabled(),
            simd: SimdBackend::detect(),
            workers: WorkPool::sized(threads),
        }
    }

    /// Run on a shared [`WorkPool`] instead of this pool's own: units
    /// become jobs an idle sparse worker can steal (and vice versa).
    /// Results stay bit-identical — the units and their unit-order
    /// reassembly do not depend on the pool.
    pub fn with_workers(mut self, workers: WorkPool) -> AlignPool {
        self.workers = workers;
        self
    }

    /// The work pool batches run on.
    pub fn workers(&self) -> &WorkPool {
        &self.workers
    }

    /// Attach a telemetry recorder: each unit then emits one `align.unit`
    /// span on its executing thread's [`Track::PoolWorker`] sub-track,
    /// tagged with the unit index and the pairs/cells it processed.
    /// Observation-only — results are unchanged.
    pub fn with_recorder(mut self, recorder: Recorder) -> AlignPool {
        self.recorder = recorder;
        self
    }

    /// Select the vector backend for lane dispatch (an unavailable
    /// backend degrades to the portable lanes inside the kernel; callers
    /// that must reject that case validate through
    /// [`crate::simd::SimdPolicy::resolve`] first). Scores are
    /// bit-identical for every choice — only throughput changes.
    pub fn with_simd(mut self, simd: SimdBackend) -> AlignPool {
        self.simd = simd;
        self
    }

    /// Threads that may run one batch: the pool's alignment-capped
    /// workers plus the calling thread.
    pub fn threads(&self) -> usize {
        self.workers.engine_threads(Engine::Align)
    }

    /// Vector backend traceback and score-only batches dispatch through.
    pub fn simd(&self) -> SimdBackend {
        self.simd
    }

    /// Full Smith–Waterman statistics over every task — every
    /// [`AlignmentResult`] field equal to [`sw_align`]'s — through the
    /// statistics-carrying lane kernel, which stores no traceback matrix.
    ///
    /// Dispatch follows [`AlignPool::run_score_only`]: saturated lanes and
    /// tasks longer than [`OVERSIZED_LEN`] run through scalar [`sw_align`]
    /// and are counted in [`BatchStats::lane_promotions`]. Results are in
    /// task order and bit-identical for every thread count and backend.
    pub fn run_traceback<'a, S, L>(
        &self,
        tasks: &[AlignTask],
        lookup: L,
        scoring: &S,
        gaps: GapPenalties,
    ) -> (Vec<AlignmentResult>, BatchStats)
    where
        S: Scoring + Sync,
        L: Fn(u32) -> &'a [u8] + Sync,
    {
        let table = LaneTable::build(scoring, gaps);
        self.run_lanes(
            tasks,
            &lookup,
            |qs, rs, backend| {
                sw_align_lanes_prepared(qs, rs, scoring, gaps, backend, table.as_ref())
            },
            |q, r| sw_align(q, r, scoring, gaps),
        )
    }

    /// Seed-anchored banded Smith–Waterman (half-width `w`) over every
    /// task, in parallel chunks; results in task order.
    pub fn run_banded<'a, S, L>(
        &self,
        tasks: &[AlignTask],
        lookup: L,
        scoring: &S,
        gaps: GapPenalties,
        w: usize,
    ) -> (Vec<ScoreResult>, BatchStats)
    where
        S: Scoring + Sync,
        L: Fn(u32) -> &'a [u8] + Sync,
    {
        let n_units = tasks.len().div_ceil(CHUNK);
        let (chunks, stats) = self.execute_units(n_units, |u, local| {
            let range = chunk_range(u, tasks.len());
            let mut out = Vec::with_capacity(range.len());
            for t in &tasks[range] {
                let b = sw_banded(
                    lookup(t.query),
                    lookup(t.reference),
                    scoring,
                    gaps,
                    t.seed_q as usize,
                    t.seed_r as usize,
                    w,
                );
                local.pairs += 1;
                local.cells += b.cells;
                local.max_cells = local.max_cells.max(b.cells);
                out.push(ScoreResult {
                    score: b.score,
                    cells: b.cells,
                });
            }
            out
        });
        (chunks.concat(), stats)
    }

    /// Full-matrix score-only alignment over every task, dispatched
    /// through the multilane vector kernel where possible.
    ///
    /// Tasks are sorted by length into lanes of the selected backend's
    /// width (so lane members pad against near-equals); tasks longer than
    /// [`OVERSIZED_LEN`] run through scalar [`sw_score_only`]. The plan
    /// depends only on the task list and lane width, and the vector kernel
    /// is bit-identical to the scalar one (saturated lanes are promoted to
    /// the scalar i32 kernel), so results match the serial scalar driver
    /// for every thread count and every backend. The returned stats carry
    /// the backend used and the promotion count (saturated lanes plus
    /// oversized tasks).
    pub fn run_score_only<'a, S, L>(
        &self,
        tasks: &[AlignTask],
        lookup: L,
        scoring: &S,
        gaps: GapPenalties,
    ) -> (Vec<ScoreResult>, BatchStats)
    where
        S: Scoring + Sync,
        L: Fn(u32) -> &'a [u8] + Sync,
    {
        let table = LaneTable::build(scoring, gaps);
        self.run_lanes(
            tasks,
            &lookup,
            |qs, rs, backend| {
                let lanes = sw_score_lanes_prepared(qs, rs, scoring, gaps, backend, table.as_ref());
                let results = lanes
                    .scores
                    .into_iter()
                    .zip(qs.iter().zip(rs))
                    .map(|(score, (q, r))| ScoreResult {
                        score,
                        cells: q.len() as u64 * r.len() as u64,
                    })
                    .collect();
                (results, lanes.promotions)
            },
            |q, r| {
                let (score, _, _, cells) = sw_score_only(q, r, scoring, gaps);
                ScoreResult { score, cells }
            },
        )
    }

    /// The lane dispatch shared by [`AlignPool::run_traceback`] and
    /// [`AlignPool::run_score_only`]: packs `tasks` by [`LanePlan`], runs
    /// each lane unit through `lanes(queries, refs, backend)` (returning
    /// per-member results and saturation promotions) and each oversized
    /// task through `scalar(q, r)` (counted as a promotion), and scatters
    /// the results back to task order.
    fn run_lanes<'a, R, L, K, F>(
        &self,
        tasks: &[AlignTask],
        lookup: &L,
        lanes: K,
        scalar: F,
    ) -> (Vec<R>, BatchStats)
    where
        R: Send,
        L: Fn(u32) -> &'a [u8] + Sync,
        K: Fn(&[&[u8]], &[&[u8]], SimdBackend) -> (Vec<R>, u64) + Sync,
        F: Fn(&[u8], &[u8]) -> R + Sync,
    {
        let backend = usable(self.simd);
        let plan = LanePlan::build(tasks, lookup, backend.lanes());
        let (unit_results, mut stats) = self.execute_units(plan.units.len(), |u, local| {
            let (members, promoted): (&[usize], _) = match &plan.units[u] {
                LaneUnit::Lane { start, len } => (&plan.order[*start..start + len], false),
                LaneUnit::Scalar(idx) => (std::slice::from_ref(idx), true),
            };
            let mut qs: [&[u8]; MAX_LANES] = [&[]; MAX_LANES];
            let mut rs: [&[u8]; MAX_LANES] = [&[]; MAX_LANES];
            for (l, &idx) in members.iter().enumerate() {
                qs[l] = lookup(tasks[idx].query);
                rs[l] = lookup(tasks[idx].reference);
                let cells = qs[l].len() as u64 * rs[l].len() as u64;
                local.pairs += 1;
                local.cells += cells;
                local.max_cells = local.max_cells.max(cells);
            }
            let n = members.len();
            let results = if promoted {
                local.lane_promotions += 1;
                vec![scalar(qs[0], rs[0])]
            } else {
                let (results, promotions) = lanes(&qs[..n], &rs[..n], backend);
                local.lane_promotions += promotions;
                results
            };
            members.iter().copied().zip(results).collect::<Vec<_>>()
        });
        stats.simd = backend;
        self.recorder.add_counter(
            names::CTR_ALIGN_LANE_PROMOTIONS,
            stats.lane_promotions as f64,
        );
        // Scatter lane-ordered results back to task order.
        let mut tagged: Vec<(usize, R)> = unit_results.into_iter().flatten().collect();
        tagged.sort_unstable_by_key(|&(idx, _)| idx);
        (tagged.into_iter().map(|(_, r)| r).collect(), stats)
    }

    /// Dynamic self-scheduling core: `run_unit(u, &mut local_stats)` is
    /// called exactly once for each `u < n_units`, by whichever pool
    /// worker (or the submitting thread) claims `u` — including workers
    /// that just finished sparse chunks. Returns per-unit payloads in unit
    /// order plus merged stats (busy-time sum in `seconds`, elapsed in
    /// `wall_seconds`); the merge runs in unit order, so the totals are
    /// identical for every pool.
    fn execute_units<P, F>(&self, n_units: usize, run_unit: F) -> (Vec<P>, BatchStats)
    where
        P: Send,
        F: Fn(usize, &mut BatchStats) -> P + Sync,
    {
        let wall = Instant::now();
        let unit_out: Vec<(P, BatchStats)> = self.workers.run(Engine::Align, n_units, |u, slot| {
            let busy = Instant::now();
            let mut span = self.recorder.is_enabled().then(|| {
                self.recorder
                    .span(Component::Align, names::SPAN_ALIGN_UNIT)
                    .on_track(Track::PoolWorker(slot as u32))
                    .arg("unit", u as u64)
            });
            let mut local = BatchStats::default();
            let p = run_unit(u, &mut local);
            local.seconds = busy.elapsed().as_secs_f64();
            if let Some(span) = span.as_mut() {
                span.push_arg("pairs", local.pairs);
                span.push_arg("cells", local.cells);
            }
            (p, local)
        });
        let mut merged = BatchStats::default();
        let payloads = unit_out
            .into_iter()
            .map(|(p, local)| {
                merged.pairs += local.pairs;
                merged.cells += local.cells;
                merged.max_cells = merged.max_cells.max(local.max_cells);
                merged.lane_promotions += local.lane_promotions;
                merged.seconds += local.seconds;
                p
            })
            .collect();
        merged.wall_seconds = wall.elapsed().as_secs_f64();
        (payloads, merged)
    }
}

fn chunk_range(unit: usize, total: usize) -> Range<usize> {
    unit * CHUNK..((unit + 1) * CHUNK).min(total)
}

/// One claimable unit of lane-dispatched work. Lane units carry the
/// offset and length of their member run in [`LanePlan::order`].
#[derive(Debug, Clone, Copy)]
enum LaneUnit {
    Lane { start: usize, len: usize },
    Scalar(usize),
}

/// Deterministic length-bucketed packing of a lane-dispatched batch.
struct LanePlan {
    /// Lane-eligible task indices, sorted by descending max sequence
    /// length (ties by index) so lane members pad against near-equals.
    order: Vec<usize>,
    units: Vec<LaneUnit>,
}

impl LanePlan {
    /// Pack `tasks` into lanes of width `w` (the backend's lane count);
    /// the final lane may be partial — a part-filled vector costs the
    /// same as a full one, so there is no scalar tail.
    fn build<'a, L: Fn(u32) -> &'a [u8]>(tasks: &[AlignTask], lookup: &L, w: usize) -> LanePlan {
        let mut order = Vec::with_capacity(tasks.len());
        let mut units = Vec::new();
        for (idx, t) in tasks.iter().enumerate() {
            let max_len = lookup(t.query).len().max(lookup(t.reference).len());
            if max_len > OVERSIZED_LEN {
                units.push(LaneUnit::Scalar(idx));
            } else {
                order.push((max_len, idx));
            }
        }
        order.sort_unstable_by(|a, b| b.cmp(a));
        let order: Vec<usize> = order.into_iter().map(|(_, idx)| idx).collect();
        let mut pos = 0;
        while pos < order.len() {
            let len = w.min(order.len() - pos);
            units.push(LaneUnit::Lane { start: pos, len });
            pos += len;
        }
        LanePlan { order, units }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchAligner;
    use crate::matrices::{encode, Blosum62};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_store(n: usize, max_len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(0..=max_len);
                (0..len).map(|_| rng.gen_range(0u8..21)).collect()
            })
            .collect()
    }

    fn random_tasks(n_seqs: usize, n_tasks: usize, seed: u64) -> Vec<AlignTask> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_tasks)
            .map(|_| AlignTask {
                query: rng.gen_range(0..n_seqs as u32),
                reference: rng.gen_range(0..n_seqs as u32),
                seed_q: 0,
                seed_r: 0,
            })
            .collect()
    }

    #[test]
    fn pool_zero_threads_means_auto() {
        assert!(AlignPool::new(0).threads() >= 1);
        assert_eq!(AlignPool::new(3).threads(), 3);
    }

    #[test]
    fn traceback_matches_serial_for_every_thread_count() {
        // The lane statistics kernel against the scalar sw_align oracle
        // (`run_batch`), field for field, on every backend.
        let seqs = random_store(12, 40, 1);
        let tasks = random_tasks(12, 70, 2);
        let aligner = BatchAligner::new(Blosum62, GapPenalties::pastis_defaults());
        let (want, want_stats) = aligner.run_batch(&tasks, |id| &seqs[id as usize]);
        for backend in SimdBackend::available() {
            for t in [1, 2, 3, 8] {
                let pool = AlignPool::new(t).with_simd(backend);
                let (got, stats) = pool.run_traceback(
                    &tasks,
                    |id| &seqs[id as usize],
                    &Blosum62,
                    GapPenalties::pastis_defaults(),
                );
                assert_eq!(got, want, "{backend} t={t}");
                assert_eq!(stats.pairs, want_stats.pairs, "{backend} t={t}");
                assert_eq!(stats.cells, want_stats.cells, "{backend} t={t}");
                assert_eq!(stats.max_cells, want_stats.max_cells, "{backend} t={t}");
                assert_eq!(stats.simd, backend);
                assert_eq!(stats.lane_promotions, 0);
            }
        }
    }

    #[test]
    fn banded_matches_serial_kernel() {
        let seqs = random_store(10, 50, 3);
        let tasks = random_tasks(10, 40, 4);
        let g = GapPenalties::pastis_defaults();
        for t in [1, 4] {
            let (got, stats) =
                AlignPool::new(t).run_banded(&tasks, |id| &seqs[id as usize], &Blosum62, g, 5);
            for (k, task) in tasks.iter().enumerate() {
                let want = sw_banded(
                    &seqs[task.query as usize],
                    &seqs[task.reference as usize],
                    &Blosum62,
                    g,
                    0,
                    0,
                    5,
                );
                assert_eq!(got[k].score, want.score, "t={t} task {k}");
                assert_eq!(got[k].cells, want.cells, "t={t} task {k}");
            }
            assert_eq!(stats.pairs, tasks.len() as u64);
        }
    }

    #[test]
    fn score_only_matches_scalar_kernel() {
        let seqs = random_store(16, 60, 5);
        // 70 tasks ⇒ the plan exercises full lanes plus a partial tail
        // lane for every backend width (70 mod 16 = 6, 70 mod 8 = 6).
        let tasks = random_tasks(16, 70, 6);
        let g = GapPenalties::pastis_defaults();
        for t in [1, 2, 3, 8] {
            let (got, stats) =
                AlignPool::new(t).run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
            for (k, task) in tasks.iter().enumerate() {
                let (score, _, _, cells) = sw_score_only(
                    &seqs[task.query as usize],
                    &seqs[task.reference as usize],
                    &Blosum62,
                    g,
                );
                assert_eq!(got[k].score, score, "t={t} task {k}");
                assert_eq!(got[k].cells, cells, "t={t} task {k}");
            }
            assert_eq!(stats.pairs, tasks.len() as u64);
        }
    }

    #[test]
    fn lane_plan_is_exhaustive_and_deterministic() {
        let seqs = random_store(9, 30, 7);
        let tasks = random_tasks(9, 53, 8);
        let lookup = |id: u32| -> &[u8] { &seqs[id as usize] };
        for width in [4usize, 8, 16] {
            let plan = LanePlan::build(&tasks, &lookup, width);
            // Every task appears in exactly one unit.
            let mut seen = vec![0u32; tasks.len()];
            for unit in &plan.units {
                match *unit {
                    LaneUnit::Lane { start, len } => {
                        assert!(len >= 1 && len <= width, "w={width} lane len {len}");
                        plan.order[start..start + len]
                            .iter()
                            .for_each(|&i| seen[i] += 1);
                    }
                    LaneUnit::Scalar(i) => seen[i] += 1,
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "w={width} coverage: {seen:?}");
            // Descending length order within the lane-eligible set.
            for w in plan.order.windows(2) {
                let len = |i: usize| {
                    seqs[tasks[i].query as usize]
                        .len()
                        .max(seqs[tasks[i].reference as usize].len())
                };
                assert!(len(w[0]) >= len(w[1]));
            }
        }
    }

    #[test]
    fn oversized_tasks_fall_back_to_scalar() {
        let long = vec![7u8; OVERSIZED_LEN + 1];
        let short = encode("MKVLAWYHEE").unwrap();
        let seqs = [long, short];
        let tasks = vec![
            AlignTask {
                query: 0,
                reference: 1,
                seed_q: 0,
                seed_r: 0,
            };
            5
        ];
        let lookup = |id: u32| -> &[u8] { &seqs[id as usize] };
        let plan = LanePlan::build(&tasks, &lookup, SimdBackend::detect().lanes());
        assert!(plan.order.is_empty());
        assert_eq!(plan.units.len(), 5);
        let g = GapPenalties::pastis_defaults();
        let (got, stats) = AlignPool::new(2).run_score_only(&tasks, lookup, &Blosum62, g);
        let (want, _, _, _) = sw_score_only(&seqs[0], &seqs[1], &Blosum62, g);
        assert!(got.iter().all(|r| r.score == want));
        assert_eq!(stats.lane_promotions, 5);
    }

    #[test]
    fn every_backend_yields_identical_results_and_stats() {
        // The cross-backend contract the differential harness extends:
        // scores, pairs, cells, max_cells and lane_promotions are all
        // invariant under backend choice (only `simd` itself and the
        // clocks may differ).
        let seqs = random_store(14, 80, 21);
        let tasks = random_tasks(14, 90, 22);
        let g = GapPenalties::pastis_defaults();
        let pool = AlignPool::new(2).with_simd(SimdBackend::Scalar);
        let (want, want_stats) = pool.run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        assert_eq!(want_stats.simd, SimdBackend::Scalar);
        for backend in SimdBackend::available() {
            let pool = AlignPool::new(2).with_simd(backend);
            assert_eq!(pool.simd(), backend);
            let (got, stats) = pool.run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
            assert_eq!(got, want, "{backend}");
            assert_eq!(stats.simd, backend);
            assert_eq!(stats.pairs, want_stats.pairs, "{backend}");
            assert_eq!(stats.cells, want_stats.cells, "{backend}");
            assert_eq!(stats.max_cells, want_stats.max_cells, "{backend}");
            assert_eq!(
                stats.lane_promotions, want_stats.lane_promotions,
                "{backend}"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let seqs = random_store(2, 10, 9);
        let pool = AlignPool::new(4);
        let g = GapPenalties::pastis_defaults();
        let (r1, s1) = pool.run_traceback(&[], |id| &seqs[id as usize], &Blosum62, g);
        assert!(r1.is_empty());
        assert_eq!(s1.pairs, 0);
        let (r2, _) = pool.run_score_only(&[], |id| &seqs[id as usize], &Blosum62, g);
        assert!(r2.is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The pool contract: `run_batch_parallel(t)` (the lane statistics
        /// kernel) is bit-identical to `run_batch` (scalar `sw_align`) —
        /// every field of every result plus the pairs/cells/max_cells
        /// counters — for any thread count.
        #[test]
        fn parallel_driver_equals_serial_driver(
            store_seed in 0u64..1_000_000,
            task_seed in 0u64..1_000_000,
            n_seqs in 1usize..14,
            n_tasks in 0usize..90,
        ) {
            let seqs = random_store(n_seqs, 48, store_seed);
            let tasks = random_tasks(n_seqs, n_tasks, task_seed);
            let aligner = BatchAligner::new(Blosum62, GapPenalties::pastis_defaults());
            let (want, want_stats) = aligner.run_batch(&tasks, |id| &seqs[id as usize]);
            for t in [1usize, 2, 3, 8] {
                let (got, stats) =
                    aligner.run_batch_parallel(&tasks, |id| &seqs[id as usize], t);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(stats.pairs, want_stats.pairs);
                prop_assert_eq!(stats.cells, want_stats.cells);
                prop_assert_eq!(stats.max_cells, want_stats.max_cells);
            }
        }

        /// The multilane dispatch path holds the same contract against the
        /// scalar score-only kernel.
        #[test]
        fn multilane_dispatch_equals_scalar_scores(
            store_seed in 0u64..1_000_000,
            n_tasks in 0usize..60,
        ) {
            let seqs = random_store(10, 40, store_seed);
            let tasks = random_tasks(10, n_tasks, store_seed ^ 0x9e37_79b9);
            let g = GapPenalties::pastis_defaults();
            for t in [1usize, 3] {
                let (got, _) = AlignPool::new(t)
                    .run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
                for (k, task) in tasks.iter().enumerate() {
                    let (score, _, _, cells) = sw_score_only(
                        &seqs[task.query as usize],
                        &seqs[task.reference as usize],
                        &Blosum62,
                        g,
                    );
                    prop_assert_eq!(got[k].score, score);
                    prop_assert_eq!(got[k].cells, cells);
                }
            }
        }
    }

    #[test]
    fn serial_traced_pool_runs_units_on_the_caller_track() {
        use pastis_trace::TraceSession;
        let seqs = random_store(6, 30, 14);
        let tasks = random_tasks(6, 10, 15);
        let session = TraceSession::new();
        let rec = session.recorder(0);
        let pool = AlignPool::new(1).with_recorder(rec.clone());
        let g = GapPenalties::pastis_defaults();
        let _ = pool.run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        // A one-thread pool has no persistent workers: every unit runs on
        // the submitting thread's slot.
        let caller = Track::PoolWorker(pool.workers().caller_slot(Engine::Align) as u32);
        let spans = rec.snapshot_spans();
        assert!(!spans.is_empty());
        for s in &spans {
            assert_eq!(s.name, names::SPAN_ALIGN_UNIT);
            assert_eq!(s.track, caller);
        }
    }

    #[test]
    fn pool_backed_batches_match_serial_for_every_worker_count() {
        let seqs = random_store(12, 40, 1);
        let tasks = random_tasks(12, 70, 2);
        let g = GapPenalties::pastis_defaults();
        let (want_tb, want_tb_stats) =
            AlignPool::new(1).run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        let (want_so, _) =
            AlignPool::new(1).run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        let (want_bd, _) =
            AlignPool::new(1).run_banded(&tasks, |id| &seqs[id as usize], &Blosum62, g, 5);
        for workers in [0usize, 1, 3] {
            let pool = AlignPool::new(1).with_workers(WorkPool::with_exact_workers(workers));
            assert_eq!(pool.workers().threads(), workers);
            let (tb, tb_stats) = pool.run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);
            assert_eq!(tb, want_tb, "workers={workers}");
            assert_eq!(tb_stats.pairs, want_tb_stats.pairs, "workers={workers}");
            assert_eq!(tb_stats.cells, want_tb_stats.cells, "workers={workers}");
            assert_eq!(
                tb_stats.max_cells, want_tb_stats.max_cells,
                "workers={workers}"
            );
            let (so, _) = pool.run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
            assert_eq!(so, want_so, "workers={workers}");
            let (bd, _) = pool.run_banded(&tasks, |id| &seqs[id as usize], &Blosum62, g, 5);
            assert_eq!(bd, want_bd, "workers={workers}");
        }
    }

    #[test]
    fn pool_backed_batches_emit_unit_spans_on_pool_tracks() {
        use pastis_trace::TraceSession;
        let seqs = random_store(10, 48, 12);
        let tasks = random_tasks(10, 200, 13);
        let g = GapPenalties::pastis_defaults();
        let session = TraceSession::new();
        let rec = session.recorder(0);
        let pool = AlignPool::new(1)
            .with_recorder(rec.clone())
            .with_workers(WorkPool::with_exact_workers(2));
        let (_, stats) = pool.run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        let spans = rec.snapshot_spans();
        // One span per lane unit (200 tasks / lane width), each on a
        // unified-pool track, with per-unit tallies summing to the batch.
        assert_eq!(
            spans.len(),
            200usize.div_ceil(SimdBackend::detect().lanes())
        );
        let arg = |s: &pastis_trace::SpanEvent, k: &str| {
            s.args
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let mut units: Vec<u64> = Vec::new();
        let mut pairs = 0u64;
        let mut cells = 0u64;
        for s in &spans {
            assert_eq!(s.name, names::SPAN_ALIGN_UNIT);
            assert!(matches!(s.track, Track::PoolWorker(_)), "{:?}", s.track);
            units.push(arg(s, "unit"));
            pairs += arg(s, "pairs");
            cells += arg(s, "cells");
        }
        units.sort_unstable();
        assert_eq!(units, (0..spans.len() as u64).collect::<Vec<_>>());
        assert_eq!(pairs, stats.pairs);
        assert_eq!(cells, stats.cells);
    }

    #[test]
    fn parallel_stats_report_both_clocks() {
        let seqs = random_store(8, 64, 10);
        let tasks = random_tasks(8, 120, 11);
        let (_, stats) = AlignPool::new(4).run_traceback(
            &tasks,
            |id| &seqs[id as usize],
            &Blosum62,
            GapPenalties::pastis_defaults(),
        );
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.seconds > 0.0);
        // CPU time sums over workers; it can exceed wall but never be
        // less than a single worker's share of it by orders of magnitude.
        assert!(stats.seconds >= stats.wall_seconds * 0.01);
    }
}
