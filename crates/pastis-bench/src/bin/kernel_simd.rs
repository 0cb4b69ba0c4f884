//! SIMD lane-backend gate for both lane kernels: score-only and
//! full-statistics (the default alignment path).
//!
//! Runs the same batch through the serial scalar reference (`sw_score_only`
//! resp. `sw_align`) and through every lane backend compiled into this
//! build (portable scalar lanes, SSE2/AVX2 on x86_64, NEON on aarch64),
//! requires identical results, prints a side-by-side GCUPS table per
//! kernel, and **fails (exit 1) if the backend that runtime feature
//! detection would select is slower than its serial scalar kernel** — the
//! CI guard against re-introducing the software-lockstep regression the
//! real vector backends replaced, and against a statistics kernel that
//! loses to the traceback it replaced.
//!
//! The score-only `lane speedup` line for the detected backend is what
//! `MachineModel::commodity().simd_lane_speedup` was calibrated from.
//!
//! Usage: `kernel_simd [n_pairs] [reps]` (defaults 4000, 5).

use std::time::Instant;

use pastis_align::matrices::Blosum62;
use pastis_align::parallel::AlignPool;
use pastis_align::simd::SimdBackend;
use pastis_align::sw::{sw_align, sw_score_only, GapPenalties};
use pastis_bench::{bench_dataset, fmt_count, rule};

/// splitmix64: deterministic pair sampling without a rand dependency
/// (rand is a dev-dependency of this crate, unavailable to binaries).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_pairs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4000);
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);

    let ds = bench_dataset(1500);
    let seqs: Vec<Vec<u8>> = (0..ds.store.len())
        .map(|i| ds.store.seq(i).to_vec())
        .collect();
    let mut state = 0x5C22u64;
    let tasks: Vec<pastis_align::AlignTask> = (0..n_pairs)
        .map(|_| pastis_align::AlignTask {
            query: (splitmix64(&mut state) % seqs.len() as u64) as u32,
            reference: (splitmix64(&mut state) % seqs.len() as u64) as u32,
            seed_q: 0,
            seed_r: 0,
        })
        .collect();
    let gaps = GapPenalties::pastis_defaults();
    let lookup = |id: u32| -> &[u8] { &seqs[id as usize] };

    // Serial scalar reference (the i32 kernel the lanes must match and beat).
    let reference: Vec<i32> = tasks
        .iter()
        .map(|t| sw_score_only(lookup(t.query), lookup(t.reference), &Blosum62, gaps).0)
        .collect();
    let mut scalar_best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let scores: i64 = tasks
            .iter()
            .map(|t| sw_score_only(lookup(t.query), lookup(t.reference), &Blosum62, gaps).0 as i64)
            .sum();
        scalar_best = scalar_best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(scores);
    }
    let cells: u64 = tasks
        .iter()
        .map(|t| lookup(t.query).len() as u64 * lookup(t.reference).len() as u64)
        .sum();

    let detected = SimdBackend::detect();
    println!(
        "score-only kernel backends: {n_pairs} pairs, {} cells, best of {reps} reps, 1 thread",
        fmt_count(cells)
    );
    rule(78);
    println!(
        "{:<18} {:>6} {:>12} {:>10} {:>12} {:>12}",
        "backend", "lanes", "seconds", "GCUPS", "vs scalar", "promotions"
    );
    rule(78);
    let scalar_gcups = cells as f64 / scalar_best / 1e9;
    println!(
        "{:<18} {:>6} {:>12.4} {:>10.3} {:>12} {:>12}",
        "serial scalar", 1, scalar_best, scalar_gcups, "1.00x", 0
    );

    let mut detected_speedup = 0.0f64;
    for backend in SimdBackend::available() {
        let pool = AlignPool::new(1).with_simd(backend);
        let (results, stats) = pool.run_score_only(&tasks, lookup, &Blosum62, gaps);
        let got: Vec<i32> = results.iter().map(|r| r.score).collect();
        assert_eq!(
            got, reference,
            "{backend} diverged from scalar — kernel bug"
        );
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let out = pool.run_score_only(&tasks, lookup, &Blosum62, gaps);
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        let speedup = scalar_best / best;
        let mark = if backend == detected {
            "  <- selected"
        } else {
            ""
        };
        println!(
            "{:<18} {:>6} {:>12.4} {:>10.3} {:>11.2}x {:>12}{mark}",
            format!("lanes/{backend}"),
            backend.lanes(),
            best,
            cells as f64 / best / 1e9,
            speedup,
            stats.lane_promotions
        );
        if backend == detected {
            detected_speedup = speedup;
        }
    }
    rule(78);
    println!(
        "detected backend: {detected} ({} x i16 lanes), lane speedup {detected_speedup:.2}x over serial scalar",
        detected.lanes()
    );

    // Full-statistics kernel: `run_traceback` against the scalar
    // traceback oracle, field for field.
    let reference: Vec<_> = tasks
        .iter()
        .map(|t| sw_align(lookup(t.query), lookup(t.reference), &Blosum62, gaps))
        .collect();
    let mut serial_tb = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out: Vec<_> = tasks
            .iter()
            .map(|t| sw_align(lookup(t.query), lookup(t.reference), &Blosum62, gaps))
            .collect();
        serial_tb = serial_tb.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    println!();
    println!("full-statistics kernel (run_traceback vs serial sw_align), same pairs");
    rule(78);
    println!(
        "{:<18} {:>6} {:>12} {:>10} {:>12} {:>12}",
        "backend", "lanes", "seconds", "GCUPS", "vs sw_align", "promotions"
    );
    rule(78);
    println!(
        "{:<18} {:>6} {:>12.4} {:>10.3} {:>12} {:>12}",
        "serial sw_align",
        1,
        serial_tb,
        cells as f64 / serial_tb / 1e9,
        "1.00x",
        0
    );
    let mut detected_tb_speedup = 0.0f64;
    for backend in SimdBackend::available() {
        let pool = AlignPool::new(1).with_simd(backend);
        let (results, stats) = pool.run_traceback(&tasks, lookup, &Blosum62, gaps);
        assert!(
            results == reference,
            "{backend} traceback statistics diverged from sw_align — kernel bug"
        );
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let out = pool.run_traceback(&tasks, lookup, &Blosum62, gaps);
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        let speedup = serial_tb / best;
        let mark = if backend == detected {
            "  <- selected"
        } else {
            ""
        };
        println!(
            "{:<18} {:>6} {:>12.4} {:>10.3} {:>11.2}x {:>12}{mark}",
            format!("lanes/{backend}"),
            backend.lanes(),
            best,
            cells as f64 / best / 1e9,
            speedup,
            stats.lane_promotions
        );
        if backend == detected {
            detected_tb_speedup = speedup;
        }
    }
    rule(78);
    println!(
        "detected backend: {detected}, statistics lane speedup {detected_tb_speedup:.2}x over serial sw_align"
    );

    let mut failed = false;
    if detected_speedup < 1.0 {
        eprintln!(
            "FAIL: runtime-selected backend {detected} is {detected_speedup:.2}x scalar (< 1.00x)"
        );
        failed = true;
    }
    if detected_tb_speedup < 1.0 {
        eprintln!(
            "FAIL: runtime-selected backend {detected} runs run_traceback at {detected_tb_speedup:.2}x serial sw_align (< 1.00x)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("PASS: runtime-selected backend is not slower than serial scalar on either kernel");
}
