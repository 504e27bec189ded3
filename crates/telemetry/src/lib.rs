//! # vlsa-telemetry
//!
//! Zero-dependency observability substrate for the VLSA workspace:
//! atomic [`Counter`]s, last-write [`Gauge`]s, fixed-bucket
//! [`Histogram`]s, and a [`Registry`] of named instruments that a
//! [`ScopedRecorder`] puts in scope on one thread.
//!
//! ## Design rules
//!
//! - **Off by default, ~free when off.** Instrumented code guards every
//!   hook with [`is_enabled`] (or asks [`recorder`] directly). While no
//!   scope is live anywhere in the process that is a single relaxed
//!   atomic load; only then is the calling thread's slot read. No
//!   allocation, locking, or formatting happens unless a scope is live
//!   on the calling thread.
//! - **Scopes belong to threads.** A [`ScopedRecorder`] redirects only
//!   the thread that installed it, so scopes on different threads never
//!   see each other's samples. Code that spawns threads hands its
//!   registry on explicitly with [`ScopedRecorder::enter`].
//! - **Names are `vlsa.<crate>.<metric>`** — e.g. `vlsa.core.adds`,
//!   `vlsa.pipeline.queue_dropped`, `vlsa.sim.gate_evals`.
//! - **No dependencies.** The build environment is offline; everything
//!   here (including JSON, see [`json::Json`]) is hand-rolled std-only.
//!
//! ## Usage
//!
//! ```
//! use std::sync::Arc;
//! use vlsa_telemetry::ScopedRecorder;
//!
//! let scope = ScopedRecorder::install();
//! if let Some(recorder) = vlsa_telemetry::recorder() {
//!     recorder.counter("vlsa.example.events").incr();
//! }
//! // A spawned thread records into the same registry only if it
//! // enters it.
//! let registry = Arc::clone(scope.registry());
//! std::thread::spawn(move || {
//!     let _scope = ScopedRecorder::enter(registry);
//!     vlsa_telemetry::recorder()
//!         .expect("entered")
//!         .counter("vlsa.example.events")
//!         .incr();
//! })
//! .join()
//! .unwrap();
//! assert_eq!(scope.registry().counter_value("vlsa.example.events"), 2);
//! drop(scope);
//! assert!(vlsa_telemetry::recorder().is_none());
//! ```

pub mod counter;
pub mod exemplar;
pub mod histogram;
pub mod json;
pub mod names;
pub mod registry;

pub use counter::{Counter, Gauge};
pub use exemplar::{Exemplar, ExemplarSet};
pub use histogram::{Histogram, MergeError, DEFAULT_BUCKETS};
pub use json::{Json, JsonError};
pub use registry::Registry;

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Scopes live on any thread: the one load [`is_enabled`] pays while
/// nothing records. `Relaxed` suffices: the count publishes no data,
/// and a thread with a live scope always sees its own increment.
static LIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The registry the calling thread records into, while a scope is
    /// live on it.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Whether the calling thread records telemetry.
///
/// This is the guard instrumented code checks before touching any
/// instrument: one relaxed atomic load while no scope is live anywhere,
/// plus a thread-local read otherwise.
#[inline]
pub fn is_enabled() -> bool {
    LIVE_SCOPES.load(Ordering::Relaxed) != 0 && CURRENT.with(|c| c.borrow().is_some())
}

/// The registry the calling thread records into, if a
/// [`ScopedRecorder`] is live on it.
///
/// Instrumented loops should resolve this once up front and reuse the
/// handle.
#[inline]
pub fn recorder() -> Option<Arc<Registry>> {
    if LIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Guard that puts a [`Registry`] in scope on the calling thread for
/// its lifetime, then restores the thread's previous target.
///
/// Only the installing thread is redirected; a guard must be dropped on
/// that thread, so it is neither `Send` nor `Sync`. Nested scopes
/// restore in order.
#[derive(Debug)]
pub struct ScopedRecorder {
    registry: Arc<Registry>,
    previous: Option<Arc<Registry>>,
    thread_bound: PhantomData<*const ()>,
}

impl ScopedRecorder {
    /// Puts a fresh registry in scope on the calling thread.
    pub fn install() -> ScopedRecorder {
        ScopedRecorder::enter(Arc::new(Registry::new()))
    }

    /// Puts an existing registry in scope on the calling thread — how a
    /// spawned thread records into its spawner's registry.
    pub fn enter(registry: Arc<Registry>) -> ScopedRecorder {
        let previous = CURRENT.with(|c| c.replace(Some(Arc::clone(&registry))));
        LIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
        ScopedRecorder {
            registry,
            previous,
            thread_bound: PhantomData,
        }
    }

    /// The registry this scope records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Snapshot of everything recorded in this scope so far.
    pub fn snapshot(&self) -> Json {
        self.registry.snapshot()
    }
}

impl Drop for ScopedRecorder {
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
    fn disabled_until_a_scope_is_live_on_this_thread() {
        assert!(!is_enabled());
        assert!(recorder().is_none());
        let scope = ScopedRecorder::install();
        assert!(is_enabled());
        assert!(Arc::ptr_eq(
            &recorder().expect("in scope"),
            scope.registry()
        ));
        drop(scope);
        assert!(!is_enabled());
    }

    #[test]
    fn scoped_recorder_isolates_and_restores() {
        {
            let scope = ScopedRecorder::install();
            recorder()
                .expect("in scope")
                .counter("vlsa.test.scoped")
                .add(5);
            assert_eq!(scope.registry().counter_value("vlsa.test.scoped"), 5);
        }
        assert!(!is_enabled());
        assert!(recorder().is_none());
    }

    #[test]
    fn nested_scopes_restore_in_order() {
        let outer = ScopedRecorder::install();
        let record = |n| {
            recorder()
                .expect("in scope")
                .counter("vlsa.test.nest")
                .add(n)
        };
        record(1);
        {
            let inner = ScopedRecorder::install();
            record(10);
            assert_eq!(inner.registry().counter_value("vlsa.test.nest"), 10);
        }
        record(1);
        assert_eq!(outer.registry().counter_value("vlsa.test.nest"), 2);
        drop(outer);
        assert!(!is_enabled());
    }

    #[test]
    fn enter_shares_a_registry_with_another_thread() {
        let scope = ScopedRecorder::install();
        let registry = Arc::clone(scope.registry());
        std::thread::spawn(move || {
            assert!(recorder().is_none(), "scopes do not leak across threads");
            let _entered = ScopedRecorder::enter(registry);
            recorder()
                .expect("entered")
                .counter("vlsa.test.enter")
                .add(3);
        })
        .join()
        .expect("worker");
        assert_eq!(scope.registry().counter_value("vlsa.test.enter"), 3);
    }

    #[test]
    fn scopes_on_two_threads_are_isolated() {
        // Thread 0 installs first and drops first, while thread 1's
        // scope is still live: neither may see the other's samples, and
        // the first drop must not switch thread 1 off.
        let barrier = Arc::new(Barrier::new(2));
        let workers: Vec<_> = (0..2u64)
            .map(|id| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let record = |n| {
                        recorder()
                            .expect("in scope")
                            .counter("vlsa.test.iso")
                            .add(n)
                    };
                    if id == 1 {
                        barrier.wait(); // thread 0 installed
                    }
                    let scope = ScopedRecorder::install();
                    if id == 0 {
                        barrier.wait();
                    }
                    barrier.wait(); // both scopes live
                    record(id + 1);
                    barrier.wait(); // both recorded
                    if id == 0 {
                        assert_eq!(scope.registry().counter_value("vlsa.test.iso"), 1);
                        drop(scope);
                        barrier.wait(); // thread 0's scope is gone
                        assert!(recorder().is_none());
                        return;
                    }
                    barrier.wait();
                    record(10);
                    assert_eq!(scope.registry().counter_value("vlsa.test.iso"), 12);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker");
        }
    }
}
