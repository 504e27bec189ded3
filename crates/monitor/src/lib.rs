//! # vlsa-monitor
//!
//! Live conformance monitoring for the VLSA pipeline. The paper sizes a
//! speculative adder's window against the *exact* distribution of the
//! longest propagate run over uniform operands; this crate watches the
//! operands the adder actually sees and checks — window by window, while
//! the pipeline runs — that the model still holds.
//!
//! Three cooperating pieces:
//!
//! - **Windowed estimators + conformance engine**
//!   ([`ConformanceMonitor`]): per-op accumulation of the stall rate,
//!   effective latency, and the live propagate-run-length spectrum; at
//!   every window close, a chi-square goodness-of-fit test of the
//!   spectrum against the `A_n(k)` recurrence ([`SpectrumModel`]) and a
//!   one-sided Poisson CUSUM on the stall count ([`CusumTracker`]).
//!   Drift raises typed [`Alert`]s, bridged into `vlsa-telemetry`
//!   (counters and gauges) and `vlsa-trace` (instant spans on the
//!   monitor track), and can trip a shared degrade flag
//!   that `ResilientPipeline` polls to pre-emptively fall back to the
//!   exact adder.
//! - **Prometheus exposition** ([`exposition`]): the whole telemetry
//!   registry rendered in text exposition format 0.0.4.
//! - **Scrape endpoint** ([`ScrapeServer`]): a dependency-free HTTP
//!   server (std `TcpListener`, one background thread) serving
//!   `/metrics` and `/snapshot`, with graceful shutdown.
//!
//! ## Design rules (inherited from `vlsa-telemetry` / `vlsa-trace`)
//!
//! - **Cheap per op.** `observe` touches plain fields only — one
//!   `longest_one_run_u64`, a few adds. Registry atomics are paid once
//!   per window, not once per op.
//! - **No dependencies.** The chi-square p-value comes from a
//!   hand-rolled incomplete gamma ([`stats`]); HTTP and JSON are std +
//!   `vlsa_telemetry::Json`.
//!
//! ## Usage
//!
//! ```
//! use vlsa_monitor::{ConformanceMonitor, MonitorConfig};
//!
//! let config = MonitorConfig::new(64, 12).with_window_ops(512);
//! let mut monitor = ConformanceMonitor::new(config);
//! // Feed it what the pipeline executed (operands, stalled?, cycles).
//! for i in 0..512u64 {
//!     let (a, b) = (i.wrapping_mul(0x9e3779b97f4a7c15), !i);
//!     monitor.observe(a, b, false, 1);
//! }
//! assert_eq!(monitor.windows().len(), 1);
//! ```

mod alert;
mod conformance;
mod monitor;
mod prom;
mod server;
pub mod stats;

pub use alert::{Alert, AlertKind, TraceExemplars};
pub use conformance::{CusumTracker, SpectrumBin, SpectrumModel};
pub use monitor::{ConformanceMonitor, MonitorConfig, WindowReport};
pub use prom::{exposition, sanitize_name};
pub use server::{
    http_get, percent_decode, query_param, write_addr_file, AcceptLoop, BodyFn, ConnFn,
    HttpResponse, Route, RouteFn, ScrapeServer,
};
