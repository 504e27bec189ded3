//! # vlsa-trace
//!
//! Cycle-accurate tracing for the VLSA workspace: where `vlsa-telemetry`
//! answers *how often* (counters, histograms), this crate answers *when
//! and why* — which operand pair mispredicted, where a stall bubble
//! started, what every net did on the cycle a fault was injected.
//!
//! Three cooperating pieces:
//!
//! - **Flight recorder** ([`FlightRecorder`]): a lock-free bounded ring
//!   of [`TraceEvent`]s. Bounded memory, safe to leave always-on, and
//!   drained on demand (end of run, or the moment an error is flagged).
//! - **Chrome trace export** ([`chrome_trace`]): drained events become a
//!   `trace.json` loadable in `chrome://tracing` / Perfetto, with
//!   operand arguments encoded losslessly so [`extract_ops`] can replay
//!   the exact workload.
//! - **VCD export** ([`VcdWriter`]): a general waveform writer for
//!   GTKWave-compatible dumps; `vlsa-sim` uses it to record every net of
//!   a netlist per simulated cycle, faults included.
//!
//! ## Design rules (inherited from `vlsa-telemetry`)
//!
//! - **Off by default, ~free when off.** Instrumented code guards every
//!   hook with [`is_enabled`]: while no [`ScopedTrace`] is live anywhere
//!   in the process, one relaxed atomic load and nothing else.
//! - **Scopes belong to threads.** A [`ScopedTrace`] captures only the
//!   thread that installed it; a spawned thread traces into the same
//!   recorder only if it [`ScopedTrace::enter`]s it.
//! - **No allocation on the hot path.** [`TraceEvent`] is `Copy` with
//!   `&'static str` names; the ring never grows.
//! - **No dependencies.** JSON is `vlsa_telemetry::Json`; everything
//!   else is hand-rolled std.
//!
//! ## Usage
//!
//! ```
//! let scope = vlsa_trace::ScopedTrace::install(64);
//! vlsa_trace::record(vlsa_trace::TraceEvent::complete("op", "demo", 0, 1));
//! let events = scope.drain();
//! assert_eq!(events.len(), 1);
//! let doc = vlsa_trace::chrome_trace(&events);
//! assert!(doc.to_string().contains("traceEvents"));
//! ```

mod chrome;
mod replay;
pub mod request;
mod ring;
mod span;
mod vcd;

pub use chrome::{arg_u64, chrome_trace};
pub use replay::{extract_ops, RecordedOp, ReplayError};
pub use request::{RequestTrace, TraceRing};
pub use ring::FlightRecorder;
pub use span::{names, Phase, TraceEvent, MAX_ARGS};
pub use vcd::{VcdId, VcdWriter};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Trace scopes live on any thread: the one load [`is_enabled`] pays
/// while nothing traces. `Relaxed` suffices: the count publishes no
/// data, and a thread with a live scope always sees its own increment.
static LIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The flight recorder the calling thread traces into, while a scope
    /// is live on it.
    static CURRENT: RefCell<Option<Arc<FlightRecorder>>> = const { RefCell::new(None) };
}

/// Whether the calling thread traces: one relaxed atomic load while no
/// scope is live anywhere, plus a thread-local read otherwise.
#[inline]
pub fn is_enabled() -> bool {
    LIVE_SCOPES.load(Ordering::Relaxed) != 0 && CURRENT.with(|c| c.borrow().is_some())
}

/// The flight recorder the calling thread traces into, if a
/// [`ScopedTrace`] is live on it.
///
/// Instrumented loops should resolve this once up front and reuse the
/// handle, exactly like `vlsa_telemetry::recorder()` call sites do.
#[inline]
pub fn recorder() -> Option<Arc<FlightRecorder>> {
    if LIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Records one event into the calling thread's recorder. No-op while
/// the thread does not trace.
pub fn record(event: TraceEvent) {
    if let Some(rec) = recorder() {
        rec.record(event);
    }
}

/// Guard that puts a flight recorder in scope on the calling thread for
/// its lifetime and restores the thread's previous target on drop — the
/// tracing counterpart of [`vlsa_telemetry::ScopedRecorder`].
///
/// Only the installing thread is redirected; a guard must be dropped on
/// that thread, so it is neither `Send` nor `Sync`. Nested scopes
/// restore in order.
#[derive(Debug)]
pub struct ScopedTrace {
    recorder: Arc<FlightRecorder>,
    previous: Option<Arc<FlightRecorder>>,
    thread_bound: PhantomData<*const ()>,
}

impl ScopedTrace {
    /// Puts a fresh recorder with the given capacity in scope on the
    /// calling thread.
    pub fn install(capacity: usize) -> ScopedTrace {
        ScopedTrace::enter(Arc::new(FlightRecorder::new(capacity)))
    }

    /// Puts an existing recorder in scope on the calling thread — how a
    /// spawned thread traces into its spawner's recorder.
    pub fn enter(recorder: Arc<FlightRecorder>) -> ScopedTrace {
        let previous = CURRENT.with(|c| c.replace(Some(Arc::clone(&recorder))));
        LIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
        ScopedTrace {
            recorder,
            previous,
            thread_bound: PhantomData,
        }
    }

    /// The recorder this scope traces into.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Drains everything recorded in this scope so far.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.recorder.drain()
    }
}

impl Drop for ScopedTrace {
    fn drop(&mut self) {
        // `try_with`: a guard dropped while the thread's locals are torn
        // down must not panic.
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = self.previous.take());
        LIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn disabled_by_default_and_record_is_noop() {
        assert!(!is_enabled());
        record(TraceEvent::instant("lost", "t", 0));
        assert!(recorder().is_none());
    }

    #[test]
    fn scoped_trace_captures_and_restores() {
        {
            let scope = ScopedTrace::install(16);
            assert!(is_enabled());
            record(TraceEvent::instant("seen", "t", 1));
            let events = scope.drain();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].name, "seen");
        }
        assert!(!is_enabled());
        record(TraceEvent::instant("after", "t", 2));
        assert!(recorder().is_none());
    }

    #[test]
    fn nested_scopes_restore_in_order() {
        let outer = ScopedTrace::install(16);
        record(TraceEvent::instant("outer", "t", 0));
        {
            let inner = ScopedTrace::install(16);
            record(TraceEvent::instant("inner", "t", 1));
            assert_eq!(inner.drain().len(), 1);
        }
        assert!(is_enabled());
        record(TraceEvent::instant("outer2", "t", 2));
        assert_eq!(outer.drain().len(), 2);
        drop(outer);
        assert!(!is_enabled());
    }

    #[test]
    fn enter_shares_a_recorder_with_another_thread() {
        let scope = ScopedTrace::install(16);
        let shared = Arc::clone(scope.recorder());
        std::thread::spawn(move || {
            assert!(recorder().is_none(), "scopes do not leak across threads");
            let _entered = ScopedTrace::enter(shared);
            record(TraceEvent::instant("worker", "t", 0));
        })
        .join()
        .expect("worker");
        assert_eq!(scope.drain().len(), 1);
    }

    #[test]
    fn scopes_on_two_threads_are_isolated() {
        // Thread 0 installs first and drops first, while thread 1's
        // scope is still live: neither may see the other's events, and
        // the first drop must not switch thread 1 off.
        let barrier = Arc::new(Barrier::new(2));
        let workers: Vec<_> = (0..2u64)
            .map(|id| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let emit = |n| {
                        for ts in 0..n {
                            record(TraceEvent::instant("iso", "t", ts));
                        }
                    };
                    if id == 1 {
                        barrier.wait(); // thread 0 installed
                    }
                    let scope = ScopedTrace::install(64);
                    if id == 0 {
                        barrier.wait();
                    }
                    barrier.wait(); // both scopes live
                    emit(id + 1);
                    barrier.wait(); // both recorded
                    if id == 0 {
                        assert_eq!(scope.drain().len(), 1);
                        drop(scope);
                        barrier.wait(); // thread 0's scope is gone
                        assert!(recorder().is_none());
                        return;
                    }
                    barrier.wait();
                    emit(10);
                    assert_eq!(scope.drain().len(), 12);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker");
        }
    }
}
