//! The chaos benchmark behind `BENCH_chaos.json`: planned fault
//! injection against an in-process server, with retrying clients, and
//! a hard gate on the no-lost-request identity
//!
//! ```text
//! offered == answered_first_try + retried_successfully + shed
//!            + deadline_exceeded        (and zero hard errors)
//! ```
//!
//! Every committed plan must close its accounting: a killed worker, a
//! wedged worker, a torn connection, an expired deadline, a delayed or
//! duplicated reply — none of them may lose a request silently. Each
//! row also asserts that the *planned* faults actually fired (a chaos
//! run whose faults never landed proves nothing).

use std::io;
use std::sync::Arc;

use vlsa_chaos::{ChaosInjector, FaultPlan};
use vlsa_server::{RetryPolicy, ServerConfig, ShardConfig, SupervisorConfig, VlsaServer};
use vlsa_telemetry::Json;

use crate::report::Report;
use crate::serverbench::{run_load, LoadConfig, Mix};
use std::time::Duration;

/// Minimum fault/recovery counts a chaos point must observe to pass
/// (all zero = only the accounting identity is gated).
#[derive(Clone, Copy, Debug, Default)]
pub struct Expectations {
    /// Exact worker panics the plan must have fired.
    pub kills: u64,
    /// Exact worker stalls the plan must have fired.
    pub stalls: u64,
    /// Supervisor restarts, at least.
    pub min_restarts: u64,
    /// Requests answered only after a retry, at least.
    pub min_retried_successfully: u64,
    /// Typed deadline sheds, at least.
    pub min_deadline_exceeded: u64,
    /// Hedged copies sent, at least.
    pub min_hedged: u64,
    /// Client connections torn, at least.
    pub min_torn: u64,
    /// Duplicated reply writes, at least.
    pub min_dups: u64,
    /// Delayed reply writes, at least.
    pub min_delays: u64,
}

/// One chaos scenario: a fault plan, a server shape, a load, and what
/// must have happened by the end.
#[derive(Clone, Debug)]
pub struct ChaosPoint {
    /// Row label (`"shard-panic"`, …).
    pub name: &'static str,
    /// The fault-plan DSL driving the injector.
    pub plan: &'static str,
    /// Shard count.
    pub shards: usize,
    /// Per-shard queue depth.
    pub queue_capacity: usize,
    /// Modeled ns per pipeline cycle.
    pub cycle_ns: u64,
    /// Batch op cap override (`None` = default policy); the deadline
    /// point pins this to one request per batch so queued requests
    /// genuinely outwait their budget behind a paced device.
    pub max_batch_ops: Option<usize>,
    /// Watchdog wedge timeout override in ms (`None` = default).
    pub wedge_ms: Option<u64>,
    /// The load to offer (retry policy included).
    pub load: LoadConfig,
    /// What must have fired.
    pub expect: Expectations,
}

/// The retry policy the chaos points share: patient enough to ride out
/// a supervisor restart, budgeted so a failing server cannot triple its
/// own load.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(200),
        retry_budget_pct: 0.4,
        ..RetryPolicy::default()
    }
}

fn chaos_load() -> LoadConfig {
    LoadConfig {
        connections: 8,
        requests_per_conn: 30,
        ops_per_request: 16,
        mix: Mix::Mixed,
        retry: Some(chaos_retry()),
        ..LoadConfig::default()
    }
}

/// The committed chaos plans, one per fault class.
pub fn standard_chaos_points() -> Vec<ChaosPoint> {
    vec![
        // A worker panic mid-service: the supervisor must restart the
        // shard, the drained queue must come back as typed Retryable,
        // and the retrying clients must still land every request.
        ChaosPoint {
            name: "shard-panic",
            plan: "kill:shard=0@batch=2",
            shards: 2,
            queue_capacity: 64,
            cycle_ns: 3_000,
            max_batch_ops: None,
            wedge_ms: None,
            load: chaos_load(),
            expect: Expectations {
                kills: 1,
                min_restarts: 1,
                min_retried_successfully: 1,
                ..Expectations::default()
            },
        },
        // A wedged (not dead) worker: the watchdog must notice the
        // stalled heartbeat, depose the worker, and restart the shard.
        ChaosPoint {
            name: "wedged-worker",
            plan: "stall:shard=0@batch=2,ms=700",
            shards: 2,
            queue_capacity: 64,
            cycle_ns: 3_000,
            max_batch_ops: None,
            wedge_ms: Some(150),
            load: chaos_load(),
            expect: Expectations {
                stalls: 1,
                min_restarts: 1,
                ..Expectations::default()
            },
        },
        // Torn connections: the client rips its own socket mid-frame on
        // a cadence; ambiguous in-flight requests are resent as fresh
        // attempts and the server survives every partial frame.
        ChaosPoint {
            name: "torn-connection",
            plan: "tear:every=6",
            shards: 2,
            queue_capacity: 64,
            cycle_ns: 3_000,
            max_batch_ops: None,
            wedge_ms: None,
            load: LoadConfig {
                retry: Some(RetryPolicy {
                    tear_every: Some(6),
                    ..chaos_retry()
                }),
                ..chaos_load()
            },
            expect: Expectations {
                min_torn: 1,
                min_retried_successfully: 1,
                ..Expectations::default()
            },
        },
        // Deadline overload: a deliberately slow modeled device with a
        // tight client budget — requests that outwait their budget are
        // shed typed instead of occupying batch slots.
        ChaosPoint {
            name: "deadline-overload",
            plan: "",
            shards: 1,
            queue_capacity: 64,
            cycle_ns: 500_000,
            max_batch_ops: Some(8),
            wedge_ms: None,
            load: LoadConfig {
                connections: 4,
                requests_per_conn: 20,
                ops_per_request: 8,
                deadline_us: 2_000,
                retry: Some(RetryPolicy {
                    max_attempts: 1,
                    ..chaos_retry()
                }),
                ..chaos_load()
            },
            expect: Expectations {
                min_deadline_exceeded: 1,
                ..Expectations::default()
            },
        },
        // Delayed and duplicated replies, with hedging on: stale-frame
        // skipping absorbs the duplicates, slow replies trigger hedged
        // copies, and the server's dedup ring keeps at most one copy of
        // each attempt executing.
        ChaosPoint {
            name: "delay-dup",
            plan: "delay:shard=0,every=5,ms=10;dup:shard=0,every=3",
            shards: 2,
            queue_capacity: 64,
            cycle_ns: 3_000,
            max_batch_ops: None,
            wedge_ms: None,
            load: LoadConfig {
                retry: Some(RetryPolicy {
                    hedge_after: Some(Duration::from_millis(5)),
                    ..chaos_retry()
                }),
                ..chaos_load()
            },
            expect: Expectations {
                min_dups: 1,
                min_delays: 1,
                min_hedged: 1,
                ..Expectations::default()
            },
        },
    ]
}

/// Runs one chaos point and returns its report row (with the per-row
/// `pass` verdict already computed).
///
/// # Errors
///
/// Propagates server-start and connect failures; in-run fault handling
/// is the point of the exercise and never an `Err`.
pub fn run_chaos_point(point: &ChaosPoint) -> io::Result<Json> {
    let plan: FaultPlan = point
        .plan
        .parse()
        .map_err(|e| io::Error::other(format!("bad committed plan: {e}")))?;
    let injector = Arc::new(ChaosInjector::new(plan));
    let mut shard = ShardConfig {
        nbits: 64,
        cycle_ns: point.cycle_ns,
        queue_capacity: point.queue_capacity,
        ..ShardConfig::default()
    };
    if let Some(max_ops) = point.max_batch_ops {
        shard.max_batch_ops = max_ops;
    }
    if let Some(ms) = point.wedge_ms {
        shard.supervisor = SupervisorConfig {
            poll: Duration::from_millis(10),
            wedge_timeout: Duration::from_millis(ms),
            ..shard.supervisor
        };
    }
    let mut server = VlsaServer::start(ServerConfig {
        shards: point.shards,
        shard,
        chaos: Some(Arc::clone(&injector)),
        ..ServerConfig::default()
    })
    .map_err(|e| io::Error::other(e.to_string()))?;
    let result = run_load(server.addr(), &point.load)?;
    let totals = server.pool().totals();
    let restarts = totals.restarts;
    server.shutdown();
    let counts = injector.counts();

    // The headline invariant: every offered request has exactly one
    // terminal verdict — nothing was silently lost.
    let offered = (point.load.connections * point.load.requests_per_conn) as u64;
    let accounted = result.answered + result.shed + result.deadline_exceeded + result.errors;
    let accounting_closed = accounted == offered && result.errors == 0;

    let e = &point.expect;
    let faults_landed = counts.kills == e.kills
        && counts.stalls == e.stalls
        && restarts >= e.min_restarts
        && result.retried_successfully >= e.min_retried_successfully
        && result.deadline_exceeded >= e.min_deadline_exceeded
        && result.hedged >= e.min_hedged
        && result.torn >= e.min_torn
        && counts.dups >= e.min_dups
        && counts.delays >= e.min_delays;
    let pass = accounting_closed && faults_landed;

    Ok(Json::obj()
        .set("name", point.name)
        .set("plan", point.plan)
        .set("shards", point.shards as u64)
        .set("offered", offered)
        .set("answered", result.answered)
        .set(
            "answered_first_try",
            result.answered - result.retried_successfully.min(result.answered),
        )
        .set("retried", result.retried)
        .set("retried_successfully", result.retried_successfully)
        .set("hedged", result.hedged)
        .set("torn", result.torn)
        .set("shed", result.shed)
        .set("deadline_exceeded", result.deadline_exceeded)
        .set("errors", result.errors)
        .set("restarts", restarts)
        .set("kills", counts.kills)
        .set("stalls", counts.stalls)
        .set("delays", counts.delays)
        .set("dups", counts.dups)
        .set("accounting_closed", accounting_closed)
        .set("pass", pass))
}

/// Runs every committed plan and assembles the `BENCH_chaos.json`
/// report.
///
/// # Errors
///
/// Propagates the first failing point's setup error.
pub fn run_chaos_bench() -> io::Result<Report> {
    let mut report = Report::new("chaos");
    println!(
        "{:>16} | {:>7} {:>8} {:>7} {:>5} {:>8} {:>8} {:>6} | {:>4}",
        "plan", "offered", "answered", "retried", "shed", "deadline", "restarts", "errors", "pass"
    );
    let mut all_pass = true;
    for point in standard_chaos_points() {
        let row = run_chaos_point(&point)?;
        let n = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
        let pass = row.get("pass") == Some(&Json::Bool(true));
        all_pass &= pass;
        println!(
            "{:>16} | {:>7} {:>8} {:>7} {:>5} {:>8} {:>8} {:>6} | {:>4}",
            point.name,
            n("offered"),
            n("answered"),
            n("retried_successfully"),
            n("shed"),
            n("deadline_exceeded"),
            n("restarts"),
            n("errors"),
            if pass { "ok" } else { "FAIL" },
        );
        report.push_row(row);
    }
    report.set("all_pass", all_pass);
    Ok(report)
}

/// Whether every chaos row passed its gate — the process exit verdict.
pub fn checks_pass(report: &Report) -> bool {
    report.to_json().get("all_pass") == Some(&Json::Bool(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_plan_parses() {
        for point in standard_chaos_points() {
            let plan: FaultPlan = point.plan.parse().expect(point.name);
            // Round-trips through the canonical form.
            assert_eq!(plan, plan.to_string().parse().expect(point.name));
        }
    }

    #[test]
    fn a_shard_kill_point_closes_its_accounting() {
        // The cheapest committed point end to end: one kill, a
        // supervisor restart, retried clients, identity closed.
        let mut point = standard_chaos_points()
            .into_iter()
            .find(|p| p.name == "shard-panic")
            .expect("committed plan");
        point.load.connections = 4;
        point.load.requests_per_conn = 12;
        let row = run_chaos_point(&point).expect("run");
        assert_eq!(
            row.get("pass"),
            Some(&Json::Bool(true)),
            "gate failed: {row}"
        );
        assert!(row.get("restarts").and_then(Json::as_u64).unwrap_or(0) >= 1);
    }

    #[test]
    fn a_deadline_point_sheds_typed_and_closes_its_accounting() {
        let mut point = standard_chaos_points()
            .into_iter()
            .find(|p| p.name == "deadline-overload")
            .expect("committed plan");
        point.load.connections = 2;
        point.load.requests_per_conn = 10;
        let row = run_chaos_point(&point).expect("run");
        assert_eq!(
            row.get("pass"),
            Some(&Json::Bool(true)),
            "gate failed: {row}"
        );
        assert!(
            row.get("deadline_exceeded")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                >= 1
        );
    }
}
