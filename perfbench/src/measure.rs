//! Statistics, result printing, provenance and the run-to-run check of
//! modeled statistics.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::Args;

/// Fewest samples a reported p99 may leave beyond itself; a shorter
/// phase is an error rather than a disguised maximum.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Rounds of (`lo`, `hi`, closed) phases in an untraced run. Rounds
/// interleave the phases, so each samples the whole run rather than one
/// stretch of a host whose speed drifts.
pub const ROUNDS: usize = 4;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output passed the oracle.
    pub correct: bool,
    /// Requests (serve) or jobs and suite passes (reproduce) attempted.
    pub attempted: u64,
    /// Attempts that failed: errors, shed, deadline-exceeded, or an
    /// output that failed the oracle.
    pub failed: u64,
    /// The metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes, one `name = value unit` line per metric, and
    /// the result object as the last line; exits 1 on a wrong output.
    pub fn print_and_exit_code(&self, args: &Args) -> ExitCode {
        for line in &self.notes {
            println!("{line}");
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_ratio = {failed_ratio} ({} of {})",
            self.failed, self.attempted
        );
        let mut json = String::new();
        write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            println!("{} = {} {}", m.name, m.value, m.unit);
            if i > 0 {
                json.push_str(", ");
            }
            write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
        if self.correct {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: {} output(s) failed the oracle on {} (seed {})",
                self.failed,
                args.workload.name(),
                args.seed
            );
            ExitCode::FAILURE
        }
    }
}

/// Median of `xs` (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of nothing");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank quantile `q` of ascending `sorted`, and how many
/// samples lie strictly beyond it.
pub fn quantile(sorted: &[u64], q: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// A latency phase's p50 and p99 in µs, with the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Samples behind both.
    pub samples: usize,
}

/// Summarises latencies in ns; an error if p99 would have fewer than
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn latency(phase: &str, mut ns: Vec<u64>) -> Result<Latency, String> {
    if ns.is_empty() {
        return Err(format!("phase {phase} has no samples"));
    }
    ns.sort_unstable();
    let (p50, _) = quantile(&ns, 0.50);
    let (p99, beyond) = quantile(&ns, 0.99);
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "phase {phase}: {} samples leave {beyond} beyond p99 (need {MIN_TAIL_SAMPLES}); \
             run longer",
            ns.len()
        ));
    }
    Ok(Latency {
        p50_us: p50 as f64 / 1e3,
        p99_us: p99 as f64 / 1e3,
        samples: ns.len(),
    })
}

/// Open-loop timings: each request's (or job's) latency from when it
/// was due, and how late the generator started it.
#[derive(Debug, Default)]
pub struct DueLog {
    /// Done − due, ns.
    pub latency_ns: Vec<u64>,
    /// Started − due, ns (0 when on time).
    pub late_ns: Vec<u64>,
}

impl DueLog {
    /// Records one request that was due at `due`, started at `began`
    /// and finished at `done`.
    pub fn record(&mut self, due: Instant, began: Instant, done: Instant) {
        self.latency_ns.push((done - due).as_nanos() as u64);
        self.late_ns
            .push(began.saturating_duration_since(due).as_nanos() as u64);
    }

    /// Appends another log's samples.
    pub fn merge(&mut self, other: DueLog) {
        self.latency_ns.extend(other.latency_ns);
        self.late_ns.extend(other.late_ns);
    }
}

/// Summarises the `lo` and `hi` open-loop phases into their latencies,
/// and notes the sample counts and the tail figures that are printed
/// but not gated: on a shared host, p99 latency follows the host's
/// preemption stalls, and its run-to-run spread exceeds any bound a
/// regression gate could use.
pub fn open_loop_latencies(
    out: &mut Outcome,
    lo: DueLog,
    hi: DueLog,
) -> Result<(Latency, Latency), String> {
    let late = latency("generator lateness", [lo.late_ns, hi.late_ns].concat())?;
    let lo = latency("lo", lo.latency_ns)?;
    let hi = latency("hi", hi.latency_ns)?;
    for (phase, l) in [("lo", &lo), ("hi", &hi)] {
        out.note(format!(
            "latency_p99_us.{phase} = {} us ({} samples, p50 {} us; reported, not gated)",
            l.p99_us, l.samples, l.p50_us
        ));
    }
    out.note(format!(
        "gen_late_p99_us = {} us ({} samples; reported, not gated)",
        late.p99_us, late.samples
    ));
    Ok((lo, hi))
}

/// Least time a replayed layer is timed for.
const REPLAY_MIN: Duration = Duration::from_millis(120);

/// Repeats `pass` until [`REPLAY_MIN`] has passed (at least 3 times)
/// and returns ns per op.
pub fn time_per_op(ops_per_pass: u64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    while passes < 3 || start.elapsed() < REPLAY_MIN {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes * ops_per_pass) as f64
}

/// Sleeps until `due` (no-op if it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the median set-up
/// time in seconds plus the last set-up's product (earlier ones are
/// dropped).
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut durations = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        let made = setup()?;
        durations.push(t0.elapsed().as_secs_f64());
        last = Some(made);
    }
    Ok((median(&durations), last.expect("times >= 1")))
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used, over all its threads. Unlike wall
/// time it leaves out the time a shared host keeps the process's
/// virtual CPUs from running.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the
    // clock id is one Linux always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over the workspace's sources, and how many files it covers,
/// so a run names the code it measured even where no git metadata
/// exists.
fn source_digest() -> (u64, usize) {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "src", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for byte in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (h, files.len())
}

/// The checkout's git commit, if it is a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

/// Prints what this run measured and where.
pub fn print_provenance(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: nproc={nproc}");
    let (digest, files) = source_digest();
    println!(
        "code: git={} sources={digest:016x} over {files} files",
        git_commit()
    );
}

/// Checks that this run's modeled statistics equal those of every
/// earlier run of the same workload and seed over the same sources in
/// this checkout, and records them for later runs. The file is keyed
/// by the source digest, so a change that legitimately moves a modeled
/// figure starts a fresh record instead of failing against the old
/// code's. `signature` must depend only on the seed and the program,
/// never on timing.
pub fn check_modeled_repeat(args: &Args, signature: &str) -> Result<bool, String> {
    let dir = Path::new(".perfbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "modeled-{}-{}-{:016x}.txt",
        args.workload.name(),
        args.seed,
        source_digest().0
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => {
            let same = earlier == signature;
            println!(
                "modeled statistics vs earlier run of these sources at this seed: {}",
                if same { "identical" } else { "DIFFERENT" }
            );
            if !same {
                println!("  earlier: {}", earlier.trim());
                println!("  now:     {}", signature.trim());
            }
            Ok(same)
        }
        Err(_) => {
            std::fs::write(&path, signature)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("modeled statistics recorded for later runs of these sources at this seed");
            Ok(true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_count_the_tail_honestly() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&xs, 0.5), (500, 500));
        assert_eq!(quantile(&xs, 0.99), (990, 10));
        assert!(latency("ok", xs.clone()).is_ok());
        assert!(latency("short", (1..=999).collect()).is_err());
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = cpu_time();
        let mut x = 1u64;
        while cpu_time() - t0 < Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        assert!(cpu_time() > t0);
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
