//! # vlsa-server
//!
//! A sharded, batching addition service over the VLSA resilient
//! pipeline — the serving layer that turns the paper's single-stream
//! latency contract (≈ `1 + P(error)` cycles per op) into an observable
//! *service-level* property: throughput and tail latency under
//! concurrency.
//!
//! ```text
//!                      ┌───────────────────────────────────────────┐
//!  client ── AddBatch ─► accept loop ─ route by request_id % N ─┐  │
//!  client ── AddBatch ─►  (vlsa-monitor AcceptLoop)             │  │
//!                      │                              ┌─────────▼┐ │
//!                      │   bounded queue, greedy   →  │ shard 0  │ │
//!                      │   batches (Busy when full)   │ Resilient│ │
//!                      │                              │ Pipeline │ │
//!                      │                              └─────────┬┘ │
//!  client ◄─ SumBatch ─┤            …shards 1..N-1…             │  │
//!  client ◄─ Busy ─────┤  /metrics (vlsa-monitor ScrapeServer) ◄┘  │
//!                      └───────────────────────────────────────────┘
//! ```
//!
//! - **Shard pool** ([`ShardPool`]): one OS thread per shard, each
//!   owning a `ResilientPipeline` (and optionally a live
//!   `ConformanceMonitor` wired to that shard's degrade flag). Requests
//!   route by `request_id % shards`.
//! - **Greedy batching** ([`Bounded::pop_batch`]): on wake, a shard
//!   worker takes every request already queued, up to an op-count cap,
//!   and runs it at once. No request waits for stragglers; under load
//!   requests pile up while the previous batch computes, so many small
//!   requests still become few pipeline calls.
//! - **Backpressure, never silent drops** ([`Bounded`]): producers
//!   never block and never lose work silently; a full queue sheds with
//!   a typed [`Busy`] frame, and shutdown answers with a typed error.
//! - **Binary wire protocol** ([`protocol`](crate::protocol)):
//!   length-prefixed frames, hard size limits enforced before
//!   allocation, and every malformed input mapped to a typed
//!   [`ProtocolError`] — malformed external input cannot panic the
//!   server.
//! - **Full ops-stack integration**: `vlsa.server.*` telemetry
//!   (per-shard latency histograms and quantile gauges via labeled
//!   instrument names), per-batch trace spans, and `/metrics` served by
//!   `vlsa-monitor`'s `ScrapeServer`.
//!
//! ## Usage
//!
//! ```
//! use vlsa_server::{Response, ServerConfig, VlsaClient, VlsaServer};
//!
//! let mut server = VlsaServer::start(ServerConfig::default()).expect("start");
//! let mut client = VlsaClient::connect(server.addr()).expect("connect");
//! match client.add_batch(32, &[(2, 3), (10, 20)]).expect("request") {
//!     Response::Sums(sums) => {
//!         assert_eq!(sums.results[0].sum, 5);
//!         assert_eq!(sums.results[1].sum, 30);
//!     }
//!     other => unreachable!("no load, no faults: {other:?}"),
//! }
//! server.shutdown();
//! ```
//!
//! ## Fault tolerance
//!
//! Each pool runs a supervisor thread ([`SupervisorConfig`]) that
//! restarts dead or wedged shard workers, draining their queues into
//! typed `Retryable` (code 9) frames — accepted work is never silently
//! lost. Requests can carry a deadline budget (`EXT_DEADLINE`); expired
//! ones are shed with typed `DeadlineExceeded` (code 10) frames instead
//! of occupying batch slots. [`RetryClient`] adds client-side backoff,
//! retry budgets, and hedged requests (deduplicated server-side by
//! `(key, seq)`), and the `vlsa-chaos` crate injects planned faults
//! through [`PoolHooks::chaos`] / `ServerConfig::chaos` to prove the
//! whole loop under failure.

pub mod protocol;

mod client;
mod clock;
mod error;
mod events;
mod framing;
mod obs;
mod queue;
mod retry;
mod server;
mod shard;
mod slo;

pub use client::{ClientError, Response, VlsaClient, DEFAULT_TIMEOUT};
pub use clock::ModeledClock;
pub use error::ProtocolError;
pub use events::{EventLog, EventLogConfig, WideEvent};
pub use framing::{read_frame, read_frame_bounded, write_frame, ReadError};
pub use obs::{ObsConfig, ServerObs};
pub use protocol::{
    AddBatch, Busy, ErrorFrame, Frame, HedgeKey, OpResult, ServerTiming, SumBatch, TraceContext,
};
pub use queue::{Bounded, PushError};
pub use retry::{Outcome, RetryClient, RetryPolicy, RetryStats};
pub use server::{answer_query, ServerConfig, ServerError, ServerStats, VlsaServer};
pub use shard::{
    Job, JobTrace, PoolHooks, Reply, ShardConfig, ShardPool, ShardSnapshot, ShardStats,
    SupervisorConfig,
};
pub use slo::{ServerSlo, SloVerdict};
