//! # vlsa-profile
//!
//! A std-only, on-demand sampling profiler for long-running worker
//! threads, built for the `/profile?seconds=N` endpoint of
//! `vlsa-server`.
//!
//! The container has no `libc`, so the classic `SIGPROF` +
//! unwind-the-stack design is off the table. Instead the profiler is
//! *cooperative*: instrumented threads maintain a tiny **marker stack**
//! — a fixed array of interned frame ids updated with two atomic stores
//! per push/pop — and a sampler thread wakes at a configurable Hz,
//! snapshots every registered thread's stack, and folds the samples
//! into `thread;frame1;frame2 count` lines, the input format of
//! [flamegraph tooling](https://github.com/brendangregg/FlameGraph)
//! (`flamegraph.pl`, `inferno-flamegraph`, speedscope).
//!
//! What this trades away: only instrumented phases are visible (no
//! line-level attribution), and a sample racing a push/pop can read one
//! transiently stale leaf frame. What it buys: zero unsafe code, no
//! signals, a hot-path cost of a few relaxed/release stores per batch —
//! cheap enough to leave the markers always-on and only pay for the
//! sampler thread while a profile is actually being captured.
//!
//! ## Usage
//!
//! ```
//! use std::time::Duration;
//!
//! let stack = vlsa_profile::register_thread("worker-0");
//! let compute = vlsa_profile::frame("compute");
//! {
//!     let _in_compute = stack.push(compute);
//!     // ... hot work; a concurrent `sample()` sees "worker-0;compute"
//! }
//! let profile = vlsa_profile::sample(Duration::from_millis(30), 200);
//! assert!(profile.total_samples() > 0);
//! drop(stack); // deregisters the thread
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use vlsa_telemetry::Json;

/// Maximum marker-stack depth per thread; deeper pushes are counted but
/// not recorded (the folded stack shows a `(truncated)` leaf).
pub const MAX_DEPTH: usize = 16;

/// Hz bounds the sampler clamps to: below 1 Hz a capture would return
/// nothing useful, above 10 kHz the sampler itself becomes the workload.
pub const MIN_HZ: u32 = 1;
/// See [`MIN_HZ`].
pub const MAX_HZ: u32 = 10_000;

/// An interned frame name: push-time cost is a copy of one `u32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameId(u32);

fn intern_table() -> &'static RwLock<Vec<&'static str>> {
    static TABLE: OnceLock<RwLock<Vec<&'static str>>> = OnceLock::new();
    // Id 0 is reserved so a zeroed slot never aliases a real frame.
    TABLE.get_or_init(|| RwLock::new(vec!["(unknown)"]))
}

/// Interns a frame name, returning a cheap id to push. Call once per
/// instrumentation site (e.g. at thread start), not per iteration.
pub fn frame(name: &'static str) -> FrameId {
    {
        let table = intern_table().read().expect("intern lock");
        if let Some(i) = table.iter().position(|n| *n == name) {
            return FrameId(i as u32);
        }
    }
    let mut table = intern_table().write().expect("intern lock");
    if let Some(i) = table.iter().position(|n| *n == name) {
        return FrameId(i as u32);
    }
    table.push(name);
    FrameId((table.len() - 1) as u32)
}

fn frame_name(id: u32) -> &'static str {
    let table = intern_table().read().expect("intern lock");
    table.get(id as usize).copied().unwrap_or("(unknown)")
}

/// One thread's marker stack: fixed slots of interned frame ids plus an
/// atomic depth.
///
/// Publishing protocol: a push writes the slot *then* bumps `depth`
/// (release); a pop drops `depth` first. The sampler reads `depth`
/// (acquire) and then the slots, so it never reads beyond what was
/// fully written — at worst it sees a one-frame-stale leaf when racing
/// a push/pop, which for a statistical profiler is noise, not error.
#[derive(Debug)]
pub struct ThreadStack {
    name: String,
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_DEPTH],
}

impl ThreadStack {
    fn new(name: &str) -> ThreadStack {
        ThreadStack {
            name: name.to_string(),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// The thread name samples are folded under.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn snapshot(&self) -> (Vec<u32>, bool) {
        let depth = self.depth.load(Ordering::Acquire);
        let truncated = depth > MAX_DEPTH;
        let visible = depth.min(MAX_DEPTH);
        let frames = (0..visible)
            .map(|i| self.frames[i].load(Ordering::Relaxed))
            .collect();
        (frames, truncated)
    }
}

/// Handle returned by [`register_thread`]; keeps the thread visible to
/// the sampler and deregisters it on drop.
#[derive(Debug)]
pub struct StackHandle {
    stack: Arc<ThreadStack>,
}

impl StackHandle {
    /// Pushes a frame for the lifetime of the returned guard.
    pub fn push(&self, frame: FrameId) -> FrameGuard<'_> {
        let depth = self.stack.depth.load(Ordering::Relaxed);
        if depth < MAX_DEPTH {
            self.stack.frames[depth].store(frame.0, Ordering::Relaxed);
        }
        self.stack.depth.store(depth + 1, Ordering::Release);
        FrameGuard { stack: &self.stack }
    }

    /// The underlying stack (for tests and diagnostics).
    pub fn stack(&self) -> &ThreadStack {
        &self.stack
    }
}

impl Drop for StackHandle {
    fn drop(&mut self) {
        let mut registry = registry().lock().expect("profile registry lock");
        registry.retain(|s| !Arc::ptr_eq(s, &self.stack));
    }
}

/// RAII guard popping one marker frame on drop.
#[derive(Debug)]
pub struct FrameGuard<'a> {
    stack: &'a Arc<ThreadStack>,
}

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        let depth = self.stack.depth.load(Ordering::Relaxed);
        self.stack
            .depth
            .store(depth.saturating_sub(1), Ordering::Release);
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadStack>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers the calling thread's marker stack under `name`. The thread
/// stays sampleable until the returned handle is dropped.
pub fn register_thread(name: &str) -> StackHandle {
    let stack = Arc::new(ThreadStack::new(name));
    registry()
        .lock()
        .expect("profile registry lock")
        .push(Arc::clone(&stack));
    StackHandle { stack }
}

/// A completed capture: folded stacks with sample counts.
#[derive(Debug, Clone)]
pub struct Profile {
    duration: Duration,
    hz: u32,
    total_samples: u64,
    folded: BTreeMap<String, u64>,
}

impl Profile {
    /// Wall-clock duration of the capture.
    pub fn duration(&self) -> Duration {
        self.duration
    }

    /// Effective sampling rate (after clamping).
    pub fn hz(&self) -> u32 {
        self.hz
    }

    /// Total `(thread, stack)` samples taken — one per registered
    /// thread per tick.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Folded stacks and counts, sorted by stack name.
    pub fn stacks(&self) -> impl Iterator<Item = (&str, u64)> {
        self.folded.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The folded-stack text flamegraph tooling consumes: one
    /// `thread;frame;frame count` line per distinct stack.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// JSON form: capture parameters plus the folded stacks.
    pub fn to_json(&self) -> Json {
        let stacks: Vec<Json> = self
            .folded
            .iter()
            .map(|(stack, count)| {
                Json::obj()
                    .set("stack", stack.as_str())
                    .set("count", *count)
            })
            .collect();
        Json::obj()
            .set("duration_ms", self.duration.as_millis() as u64)
            .set("hz", self.hz as u64)
            .set("total_samples", self.total_samples)
            .set("stacks", Json::Arr(stacks))
    }
}

/// Captures a profile: samples every registered thread at `hz` for
/// `duration` (both clamped to sane bounds), blocking the caller for
/// the duration. Threads whose marker stack is empty at a tick fold to
/// `thread;(idle)`.
pub fn sample(duration: Duration, hz: u32) -> Profile {
    let hz = hz.clamp(MIN_HZ, MAX_HZ);
    let interval = Duration::from_secs_f64(1.0 / hz as f64);
    let start = Instant::now();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut total = 0u64;
    let mut tick = 0u32;
    loop {
        let stacks: Vec<Arc<ThreadStack>> = {
            let registry = registry().lock().expect("profile registry lock");
            registry.iter().map(Arc::clone).collect()
        };
        for stack in stacks {
            let (frames, truncated) = stack.snapshot();
            let mut key = stack.name().to_string();
            if frames.is_empty() {
                key.push_str(";(idle)");
            } else {
                for id in frames {
                    key.push(';');
                    key.push_str(frame_name(id));
                }
                if truncated {
                    key.push_str(";(truncated)");
                }
            }
            *folded.entry(key).or_insert(0) += 1;
            total += 1;
        }
        tick += 1;
        let next = interval * tick;
        if next >= duration {
            break;
        }
        std::thread::sleep(next.saturating_sub(start.elapsed()));
    }
    Profile {
        duration: start.elapsed(),
        hz,
        total_samples: total,
        folded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn interning_is_stable_and_dedups() {
        let a = frame("test_phase_a");
        let b = frame("test_phase_b");
        assert_ne!(a, b);
        assert_eq!(frame("test_phase_a"), a);
        assert_eq!(frame_name(a.0), "test_phase_a");
        assert_eq!(frame_name(u32::MAX), "(unknown)");
    }

    #[test]
    fn sampler_sees_a_pinned_stack() {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let stack = register_thread("prof-test-worker");
            let outer = frame("prof_outer");
            let inner = frame("prof_inner");
            let _o = stack.push(outer);
            let _i = stack.push(inner);
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Give the worker time to register and push.
        std::thread::sleep(Duration::from_millis(20));
        let profile = sample(Duration::from_millis(60), 500);
        stop.store(true, Ordering::Relaxed);
        worker.join().expect("worker");
        assert!(profile.total_samples() > 0);
        let folded = profile.to_folded();
        assert!(
            folded.contains("prof-test-worker;prof_outer;prof_inner"),
            "{folded}"
        );
        // Every folded line is "stack count".
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("space-separated");
            assert!(!stack.is_empty());
            count.parse::<u64>().expect("count is a number");
        }
    }

    #[test]
    fn idle_threads_fold_to_idle() {
        let _stack = register_thread("prof-idle-thread");
        let profile = sample(Duration::from_millis(20), 200);
        assert!(
            profile.stacks().any(|(s, _)| s.contains("(idle)")),
            "{}",
            profile.to_folded()
        );
    }

    #[test]
    fn deregistration_removes_the_thread() {
        // Sibling tests register threads in parallel, so look for this
        // stack by name rather than counting.
        let registered = || {
            registry()
                .lock()
                .expect("profile registry lock")
                .iter()
                .any(|s| s.name() == "prof-transient")
        };
        let stack = register_thread("prof-transient");
        assert!(registered());
        drop(stack);
        assert!(!registered());
    }

    #[test]
    fn guards_restore_depth() {
        let stack = register_thread("prof-depth");
        let f = frame("prof_depth_frame");
        {
            let _a = stack.push(f);
            {
                let _b = stack.push(f);
                assert_eq!(stack.stack().depth.load(Ordering::Relaxed), 2);
            }
            assert_eq!(stack.stack().depth.load(Ordering::Relaxed), 1);
        }
        assert_eq!(stack.stack().depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn json_form_parses() {
        let _stack = register_thread("prof-json");
        let profile = sample(Duration::from_millis(15), 100);
        let doc = Json::parse(&profile.to_json().to_string()).expect("valid JSON");
        assert!(doc.get("total_samples").and_then(Json::as_u64).is_some());
        assert!(doc.get("stacks").and_then(Json::as_arr).is_some());
    }
}
