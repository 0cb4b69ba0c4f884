//! Measurement helpers shared by the workloads: order statistics, the
//! process's peak resident set, output digests, and the result line.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the value at the highest percentile that
/// still has at least 10 samples beyond it, with that percentile. With 10
/// samples or fewer no percentile qualifies and the maximum (p100) stands
/// in; the sample count printed beside it says so.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    let idx = n - 11;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// FNV-1a over `bytes`: a digest for comparing outputs across runs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// SplitMix64: the benchmark's own seeded stream (sub-seeds, samples).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Reset the kernel's peak-RSS mark of this process to its current RSS,
/// so a later [`peak_rss_mb`] covers only what ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS mark: {e}"))
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return the allocator's free memory to the kernel, so the RSS that
/// follows holds live data only, not what earlier threads left cached in
/// their arenas (which differs from run to run).
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only releases free memory of glibc's own
    // arenas; it takes no pointers and is safe to call at any time.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Scratch space inside the checkout (under the build directory, which
/// version control ignores): index directories, TSV files, and the
/// per-build counter records.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_build").join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A per-process subdirectory of [`work_dir`], removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        let dir = work_dir()?.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Compare this run's exact counters with the record left by an earlier
/// run of the same build, workload, seed and length; the first run writes
/// the record. Returns a mismatch description.
pub fn check_counter_record(key: &str, counters: &str) -> Result<Option<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read {}: {e}", exe.display()))?;
    let path = work_dir()?.join(format!("counters-{key}-{:016x}.txt", fnv1a(&bytes)));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == counters => Ok(None),
        Ok(prev) => Ok(Some(format!(
            "exact counters differ from an earlier run of this build:\n  earlier: {prev}\n  now:     {counters}"
        ))),
        Err(_) => {
            std::fs::write(&path, counters)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(None)
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the result-line fields plus human-readable lines
/// printed before it.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, each printed; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a failed operation or check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest round-trip form: every digit, and
            // a decimal point even for whole numbers.
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
