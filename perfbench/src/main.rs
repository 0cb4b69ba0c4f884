//! The benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search_align|search_sparse|serve_stream> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload's inputs are generated
//! from `--seed` and handed to the library as FASTA bytes; the library is
//! driven only through its public calls. `--trace 0` measures the
//! end-to-end metrics with telemetry off; `--trace 1` composes the same
//! work from each layer's public functions, times every call from here,
//! and prints the per-layer metrics. Every run checks its outputs; human-
//! readable lines come first and the last line of standard output is the
//! JSON result. See `perfbench/README.md` for the workloads and metrics.

mod inputs;
mod layers;
mod search;
mod serve;
mod util;

use std::process::ExitCode;

use search::Kind;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, secs) = (args.seed, args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("search_align", false) => search::run(Kind::Align, seed, secs),
        ("search_align", true) => search::run_traced(Kind::Align, seed, secs),
        ("search_sparse", false) => search::run(Kind::Sparse, seed, secs),
        ("search_sparse", true) => search::run_traced(Kind::Sparse, seed, secs),
        ("serve_stream", false) => serve::run(seed, secs),
        ("serve_stream", true) => serve::run_traced(seed, secs),
        (w, _) => Err(format!(
            "unknown workload {w:?} (search_align, search_sparse, serve_stream)"
        )),
    };
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        let msg = format!("metric {} is not a finite number", m.name);
        out.fail(msg);
    }
    println!(
        "workload {} seed {seed} trace {}",
        args.workload,
        u8::from(args.trace)
    );
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    // Reads 0 on a correct run, so it rides in the result line as
    // `failed` / `attempted` rather than as a metric entry.
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("  {:<28} {:>18.6} ratio", "fail_ratio", fail_ratio);
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
