//! Declarative SLOs over VLSA telemetry: error-budget accounting and
//! Google-SRE-style multi-window multi-burn-rate alerting.
//!
//! The serving stack (PR 5) already measures everything an SLO needs —
//! offered/answered/shed counters, latency histograms, conformance
//! alerts, residue catches. What it lacked was a *policy layer*: how
//! much failure is acceptable, how fast is it being spent, and when is
//! the spend rate an emergency? This crate is that layer:
//!
//! - [`SloSpec`] / [`Objectives`]: declarative definitions — an SLI
//!   kind ([`SloKind`]), a compliance target, and the window structure
//!   ([`SloWindows`]) holding the budget period and burn rules.
//! - [`SloTracker`]: one SLO's error-budget accountant. Good/bad events
//!   flow into a [`TimeBuckets`] ring; every [`BurnRule`] fires when
//!   the burn rate exceeds its factor over *both* its long and short
//!   windows (sustained *and* still happening), and clears when either
//!   window recovers.
//! - [`SloEngine`]: the canonical three-SLO bundle (availability,
//!   latency, correctness) with the same alert fan-out the conformance
//!   monitor uses — telemetry counters and trace instant spans — plus
//!   the degrade coupling: a paging correctness burn flips
//!   every shard's degrade flag, pre-emptively moving the fleet to the
//!   exact adder while budget remains.
//!
//! ## Modeled time
//!
//! Nothing in this crate reads a clock. Every API takes explicit
//! modeled nanoseconds, so the same event stream always produces the
//! same alerts at the same timestamps — the burn-rate tests in
//! `tests/burn_determinism.rs` assert detection bounds to the bucket.
//! `vlsa-server` feeds it pipeline cycle time; the fleet aggregator
//! feeds it wall time relative to its own epoch; tests feed it
//! literals.
//!
//! ## Burn-rate arithmetic
//!
//! A burn rate of 1.0 means the error budget is being spent exactly at
//! the rate that exhausts it at the period's end. The standard fast
//! rule (×14.4 over 1h/5m) pages when the spend rate would exhaust a
//! 30-day budget in ~2 days; detection latency for a total outage is
//! `factor × budget_fraction × long_window` — about 52 s for a 99.9%
//! target, quantized by the ring's bucket width.

mod engine;
mod spec;
mod window;

pub use engine::{AlertState, SloAlert, SloEngine, SloTracker};
pub use spec::{BurnRule, Objectives, Severity, SloKind, SloSpec, SloWindows};
pub use window::TimeBuckets;
