//! The serving benchmark behind `BENCH_server.json`: an open-loop load
//! generator driving `vlsa-server` over real TCP, swept across shard
//! counts, plus one deliberate overload point that exercises the
//! load-shedding path.
//!
//! On a single-core host the shards cannot speed each other up in wall
//! time, so the server paces each worker by the *modeled* device time
//! (`cycle_ns` per pipeline cycle, the same clock the paper's latency
//! contract is written against). Throughput scaling across shard counts
//! then measures what it would on hardware: the aggregate cycle budget
//! of N independent adder pipelines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vlsa_pipeline::{adversarial_operands, biased_operands, random_operands};
use vlsa_server::{
    AddBatch, ObsConfig, Outcome, Response, RetryClient, RetryPolicy, ServerConfig, ServerTiming,
    ShardConfig, TraceContext, VlsaClient, VlsaServer,
};
use vlsa_telemetry::{Histogram, Json};

use crate::report::{ArgError, Report};

/// Operand mixes the generator can offer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Uniform random operands — the paper's nominal traffic.
    Uniform,
    /// Carry-friendly biased operands (high per-bit one probability).
    Biased,
    /// Worst-case carry chains; every op stalls.
    Adversarial,
    /// One third each, interleaved per request.
    Mixed,
}

impl std::str::FromStr for Mix {
    type Err = String;

    fn from_str(s: &str) -> Result<Mix, String> {
        match s {
            "uniform" => Ok(Mix::Uniform),
            "biased" => Ok(Mix::Biased),
            "adversarial" => Ok(Mix::Adversarial),
            "mixed" => Ok(Mix::Mixed),
            _ => Err("use uniform|biased|adversarial|mixed".to_string()),
        }
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mix::Uniform => "uniform",
            Mix::Biased => "biased",
            Mix::Adversarial => "adversarial",
            Mix::Mixed => "mixed",
        })
    }
}

/// One load-generation run against one server.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests each connection sends.
    pub requests_per_conn: usize,
    /// Operands per request.
    pub ops_per_request: usize,
    /// Operand width in bits.
    pub nbits: usize,
    /// Operand mix.
    pub mix: Mix,
    /// Open-loop target arrival rate in ops/s across all connections
    /// (`0` = no pacing: every connection sends back-to-back, which
    /// saturates the server and measures capacity).
    pub target_ops_per_sec: u64,
    /// RNG seed for operand generation.
    pub seed: u64,
    /// Send a sampled trace context on every Nth request per
    /// connection (`0` = never). Traced requests come back with a
    /// [`ServerTiming`] extension, collected into
    /// [`LoadResult::traced`].
    pub trace_every: u64,
    /// Stamp every request with this `EXT_DEADLINE` budget in
    /// microseconds (`0` = no deadline).
    pub deadline_us: u32,
    /// Wrap each connection in a [`RetryClient`] with this policy
    /// (`None` = the plain client: no retries, no hedging — the
    /// zero-cost baseline the nominal sweep rows commit).
    pub retry: Option<RetryPolicy>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            connections: 48,
            requests_per_conn: 100,
            ops_per_request: 64,
            nbits: 32,
            mix: Mix::Mixed,
            target_ops_per_sec: 0,
            seed: 0xB00B5,
            trace_every: 0,
            deadline_us: 0,
            retry: None,
        }
    }
}

/// One traced request: the client-observed round trip paired with the
/// server's phase decomposition echoed on the response.
#[derive(Clone, Copy, Debug)]
pub struct TracedSample {
    /// Client-observed round-trip time in microseconds.
    pub rtt_us: u64,
    /// The server's queue/linger/service/pace decomposition.
    pub timing: ServerTiming,
}

impl TracedSample {
    /// Microseconds the request spent outside the server's accounted
    /// phases: network both ways, framing, and the worker→connection
    /// hand-off. Saturates at zero (the clocks are different).
    pub fn network_us(&self) -> u64 {
        self.rtt_us.saturating_sub(self.timing.total_us())
    }
}

/// The traced sample whose round trip sits at quantile `q` of
/// `samples`, which must be sorted by `rtt_us`. `None` when empty.
pub fn sample_at_quantile(samples: &[TracedSample], q: f64) -> Option<&TracedSample> {
    if samples.is_empty() {
        return None;
    }
    let idx = ((samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    samples.get(idx)
}

/// What one load run measured (client side of the wire).
#[derive(Debug)]
pub struct LoadResult {
    /// Ops summed by the server (shed requests excluded).
    pub ops: u64,
    /// Requests answered with sums.
    pub answered: u64,
    /// Requests shed with a `Busy` frame.
    pub shed: u64,
    /// Ops whose speculative result was corrected (stall flag set).
    pub stalls: u64,
    /// Hard failures (transport or typed server errors, plus logical
    /// requests whose retries were exhausted or budget-denied).
    pub errors: u64,
    /// Requests shed with a typed `DeadlineExceeded` frame — their
    /// client-stamped budget expired before a batch slot opened.
    pub deadline_exceeded: u64,
    /// Retry attempts sent beyond first attempts (retry mode only).
    pub retried: u64,
    /// Requests that failed first but were answered by a retry.
    pub retried_successfully: u64,
    /// Hedged copies sent (retry mode with hedging only).
    pub hedged: u64,
    /// Connections deliberately torn by the client-side chaos hook.
    pub torn: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Client-observed round-trip latency in microseconds.
    pub latency_us: Histogram,
    /// Traced requests (when [`LoadConfig::trace_every`] is nonzero),
    /// sorted by round-trip time.
    pub traced: Vec<TracedSample>,
}

impl LoadResult {
    /// Delivered throughput in summed ops per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Fraction of requests shed.
    pub fn shed_rate(&self) -> f64 {
        let total = self.answered + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }

    /// Fraction of delivered ops that stalled.
    pub fn stall_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.stalls as f64 / self.ops as f64
        }
    }
}

/// Builds one connection's operand stream for `mix`.
fn operands_for(mix: Mix, nbits: usize, count: usize, rng: &mut StdRng) -> Vec<(u64, u64)> {
    match mix {
        Mix::Uniform => random_operands(nbits, count, rng),
        Mix::Biased => biased_operands(nbits, count, 0.8, rng),
        Mix::Adversarial => adversarial_operands(nbits, count),
        Mix::Mixed => {
            let third = count / 3;
            let mut ops = random_operands(nbits, third, rng);
            ops.extend(biased_operands(nbits, third, 0.8, rng));
            ops.extend(adversarial_operands(nbits, count - 2 * third));
            ops
        }
    }
}

/// Client-side counters shared across one run's connection threads.
#[derive(Debug, Default)]
struct Counters {
    ops: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    stalls: AtomicU64,
    errors: AtomicU64,
    deadline_exceeded: AtomicU64,
    retried: AtomicU64,
    retried_successfully: AtomicU64,
    hedged: AtomicU64,
    torn: AtomicU64,
}

/// One connection's client: plain, or wrapped in retry machinery.
enum Driver {
    Plain(VlsaClient),
    Retry(Box<RetryClient>),
}

/// Request-id offset separating the connections' id spaces in retry
/// mode (each attempt consumes an id, so connections cannot share the
/// `conn + r` scheme the plain path uses).
const RETRY_ID_SPAN: u64 = 1 << 20;

/// Drives `addr` with `config.connections` open-loop client threads and
/// aggregates what came back.
///
/// # Errors
///
/// Fails when a connection cannot be established; per-request transport
/// failures are counted in [`LoadResult::errors`] instead.
pub fn run_load(addr: std::net::SocketAddr, config: &LoadConfig) -> std::io::Result<LoadResult> {
    let counters = Arc::new(Counters::default());
    let latency_us = Arc::new(Histogram::with_default_buckets());
    let traced = Arc::new(Mutex::new(Vec::<TracedSample>::new()));

    // Per-connection inter-arrival gap realizing the aggregate target.
    let gap = if config.target_ops_per_sec == 0 {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(
            config.ops_per_request as f64 * config.connections as f64
                / config.target_ops_per_sec as f64,
        )
    };

    let start = Instant::now();
    let mut workers = Vec::with_capacity(config.connections);
    for conn in 0..config.connections {
        let mut rng = StdRng::seed_from_u64(config.seed ^ (conn as u64).wrapping_mul(0x9E37));
        let stream = operands_for(
            config.mix,
            config.nbits,
            config.requests_per_conn * config.ops_per_request,
            &mut rng,
        );
        let (counters, latency_us, traced) = (
            Arc::clone(&counters),
            Arc::clone(&latency_us),
            Arc::clone(&traced),
        );
        let (ops_per_request, requests) = (config.ops_per_request, config.requests_per_conn);
        let nbits = config.nbits as u8;
        let trace_every = config.trace_every;
        let deadline_us = config.deadline_us;
        let mut driver = match config.retry {
            None => Driver::Plain(VlsaClient::connect(addr)?),
            Some(policy) => {
                // The run-level deadline rides on every attempt unless
                // the policy already carries its own.
                let policy = RetryPolicy {
                    deadline_us: policy
                        .deadline_us
                        .or((deadline_us > 0).then_some(deadline_us)),
                    seed: policy.seed ^ (conn as u64).wrapping_mul(0x9E37),
                    ..policy
                };
                Driver::Retry(Box::new(
                    RetryClient::connect(&addr.to_string(), policy)?
                        .with_request_ids(conn as u64 * RETRY_ID_SPAN, 1),
                ))
            }
        };
        workers.push(std::thread::spawn(move || {
            let mut next_arrival = Instant::now();
            let record_sums = |sums: &vlsa_server::SumBatch, rtt_us: u64| {
                latency_us.record(rtt_us);
                if let Some(timing) = sums.timing {
                    traced
                        .lock()
                        .expect("traced samples lock")
                        .push(TracedSample { rtt_us, timing });
                }
                counters.answered.fetch_add(1, Ordering::Relaxed);
                counters
                    .ops
                    .fetch_add(sums.results.len() as u64, Ordering::Relaxed);
                let stalled = sums.results.iter().filter(|o| o.stalled()).count();
                counters.stalls.fetch_add(stalled as u64, Ordering::Relaxed);
            };
            for r in 0..requests {
                if !gap.is_zero() {
                    let now = Instant::now();
                    if now < next_arrival {
                        std::thread::sleep(next_arrival - now);
                    }
                    // Open loop: the schedule advances by the gap even
                    // when we are running late, never by response time.
                    next_arrival += gap;
                }
                let batch = &stream[r * ops_per_request..(r + 1) * ops_per_request];
                // Client-chosen trace ids: connection in the high
                // half, 1-based request in the low half — distinct
                // across the fleet and never the 0 sentinel.
                let trace = (trace_every != 0 && (r as u64).is_multiple_of(trace_every))
                    .then(|| TraceContext::sampled(((conn as u64) << 32) | (r as u64 + 1)));
                let sent = Instant::now();
                match &mut driver {
                    Driver::Plain(client) => {
                        // Same routing key the auto-incrementing client
                        // would use; the explicit id lets the trace
                        // context and deadline ride along.
                        let request_id = conn as u64 + r as u64;
                        let mut request = AddBatch::new(request_id, nbits, batch.to_vec());
                        if let Some(tc) = trace {
                            request = request.with_trace(tc);
                        }
                        if deadline_us > 0 {
                            request = request.with_deadline_us(deadline_us);
                        }
                        let response = client
                            .send_request(&request)
                            .and_then(|()| client.read_response(request_id));
                        match response {
                            Ok(Response::Sums(sums)) => {
                                record_sums(&sums, sent.elapsed().as_micros() as u64);
                            }
                            Ok(Response::Busy(_)) => {
                                // Shed under open-loop load is lost
                                // work, not retried — the next arrival
                                // is already due.
                                counters.shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(Response::DeadlineExceeded(_)) => {
                                counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                            }
                            // Without retry machinery a typed Retryable
                            // is a hard failure for this request; the
                            // connection itself is still good.
                            Ok(Response::Retryable(_)) => {
                                counters.errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                counters.errors.fetch_add(1, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                    Driver::Retry(client) => {
                        match client.request_traced(nbits, batch, trace) {
                            Ok(Outcome::Answered { sums, .. }) => {
                                record_sums(&sums, sent.elapsed().as_micros() as u64);
                            }
                            Ok(Outcome::Shed) => {
                                counters.shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(Outcome::DeadlineExceeded) => {
                                counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                            }
                            // Retries exhausted/denied, or a hard
                            // protocol error: the retry client
                            // reconnects internally, so keep offering.
                            Ok(Outcome::Failed(_)) | Err(_) => {
                                counters.errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
            if let Driver::Retry(client) = &driver {
                let s = client.stats();
                counters.retried.fetch_add(s.retries, Ordering::Relaxed);
                counters
                    .retried_successfully
                    .fetch_add(s.retried_successfully, Ordering::Relaxed);
                counters.hedged.fetch_add(s.hedges, Ordering::Relaxed);
                counters.torn.fetch_add(s.torn, Ordering::Relaxed);
            }
        }));
    }
    for worker in workers {
        let _ = worker.join();
    }
    let elapsed = start.elapsed();

    let mut traced = std::mem::take(&mut *traced.lock().expect("traced samples lock"));
    traced.sort_by_key(|s| s.rtt_us);

    let unwrap_stat = |a: &AtomicU64| a.load(Ordering::Relaxed);
    Ok(LoadResult {
        ops: unwrap_stat(&counters.ops),
        answered: unwrap_stat(&counters.answered),
        shed: unwrap_stat(&counters.shed),
        stalls: unwrap_stat(&counters.stalls),
        errors: unwrap_stat(&counters.errors),
        deadline_exceeded: unwrap_stat(&counters.deadline_exceeded),
        retried: unwrap_stat(&counters.retried),
        retried_successfully: unwrap_stat(&counters.retried_successfully),
        hedged: unwrap_stat(&counters.hedged),
        torn: unwrap_stat(&counters.torn),
        elapsed,
        traced,
        latency_us: Arc::try_unwrap(latency_us).unwrap_or_else(|shared| {
            let h = Histogram::with_default_buckets();
            for (bound, count) in shared.buckets() {
                h.record_n(bound, count);
            }
            h
        }),
    })
}

/// One row of the sweep: a fresh server at `shards`, one load run.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Shard count for this row.
    pub shards: usize,
    /// Per-shard queue capacity (small = overload demo).
    pub queue_capacity: usize,
    /// Row label in the report (`"nominal"` / `"overload"`).
    pub label: &'static str,
    /// Load to offer.
    pub load: LoadConfig,
}

/// Modeled device time per pipeline cycle for the sweep, in
/// nanoseconds. Chosen so the modeled service time dominates the real
/// single-core compute by a wide margin, keeping the sweep meaningful
/// on one CPU.
pub const SWEEP_CYCLE_NS: u64 = 3_000;

/// The standard sweep: saturation rows at shard counts 1/2/4/8 plus an
/// overload row with a deliberately tiny queue.
pub fn standard_sweep() -> Vec<SweepPoint> {
    // Every 16th request carries a trace context, so the committed
    // report decomposes the tail server-side without distorting it.
    let traced = LoadConfig {
        trace_every: 16,
        ..LoadConfig::default()
    };
    let mut points: Vec<SweepPoint> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|shards| SweepPoint {
            shards,
            queue_capacity: 64,
            label: "nominal",
            load: traced.clone(),
        })
        .collect();
    points.push(SweepPoint {
        shards: 2,
        queue_capacity: 2,
        label: "overload",
        load: LoadConfig {
            connections: 32,
            requests_per_conn: 60,
            ..traced
        },
    });
    points
}

/// Runs one sweep point against an in-process server and returns the
/// report row.
///
/// # Errors
///
/// Propagates server-start and connect failures as `io::Error`.
pub fn run_point(point: &SweepPoint) -> std::io::Result<Json> {
    let mut server = VlsaServer::start(ServerConfig {
        shards: point.shards,
        shard: ShardConfig {
            nbits: 64,
            cycle_ns: SWEEP_CYCLE_NS,
            queue_capacity: point.queue_capacity,
            ..ShardConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| std::io::Error::other(e.to_string()))?;
    let result = run_load(server.addr(), &point.load)?;
    let totals = server.pool().totals();
    server.shutdown();

    // Accounting must close: everything the clients sent was answered
    // with sums or a typed verdict (Busy, DeadlineExceeded, a hard
    // error) — nothing vanished.
    let offered = (point.load.connections * point.load.requests_per_conn) as u64;
    assert_eq!(
        result.answered + result.shed + result.deadline_exceeded + result.errors,
        offered,
        "silent drop: offered requests unaccounted for"
    );
    if point.load.retry.is_none() {
        // With retries on, the server counts every shed *attempt*; the
        // client counts final verdicts — only plain mode compares 1:1.
        assert_eq!(totals.shed, result.shed, "server/client shed disagree");
    }

    let q = |p: f64| result.latency_us.quantile(p).unwrap_or(0.0);
    // The server total of the traced sample at the client-RTT
    // quantile, not a quantile of server time.
    let rtt_q_sample_server =
        |p: f64| sample_at_quantile(&result.traced, p).map_or(0u64, |s| s.timing.total_us());
    Ok(Json::obj()
        .set("label", point.label)
        .set("shards", point.shards as u64)
        .set("queue_capacity", point.queue_capacity as u64)
        .set("connections", point.load.connections as u64)
        .set("mix", point.load.mix.to_string())
        .set("cycle_ns", SWEEP_CYCLE_NS)
        .set("ops", result.ops)
        .set("elapsed_s", result.elapsed.as_secs_f64())
        .set("throughput_ops_s", result.ops_per_sec())
        .set("p50_us", q(0.50))
        .set("p99_us", q(0.99))
        .set("p999_us", q(0.999))
        .set("traced", result.traced.len() as u64)
        .set("rtt_q_sample_server_p50_us", rtt_q_sample_server(0.50))
        .set("rtt_q_sample_server_p99_us", rtt_q_sample_server(0.99))
        .set("rtt_q_sample_server_p999_us", rtt_q_sample_server(0.999))
        .set("answered", result.answered)
        .set("shed", result.shed)
        .set("shed_rate", result.shed_rate())
        .set("stalls", result.stalls)
        .set("stall_rate", result.stall_rate())
        .set("errors", result.errors)
        .set("deadline_exceeded", result.deadline_exceeded)
        .set("retried", result.retried)
        .set("retried_successfully", result.retried_successfully)
        .set("hedged", result.hedged)
        .set("torn", result.torn)
        .set("restarts", totals.restarts))
}

/// Runs the whole sweep and assembles the `BENCH_server.json` report.
///
/// # Errors
///
/// Propagates the first failing point.
pub fn run_sweep(points: &[SweepPoint]) -> std::io::Result<Report> {
    let mut report = Report::new("server");
    report.set("cycle_ns", SWEEP_CYCLE_NS);
    println!(
        "{:>9} | {:>6} {:>5} | {:>12} {:>9} {:>9} {:>9} | {:>9} {:>9}",
        "label", "shards", "conns", "ops/s", "p50 us", "p99 us", "p999 us", "shed", "stall"
    );
    for point in points {
        let row = run_point(point)?;
        let f = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{:>9} | {:>6} {:>5} | {:>12.0} {:>9.0} {:>9.0} {:>9.0} | {:>8.1}% {:>8.2}%",
            point.label,
            point.shards,
            point.load.connections,
            f("throughput_ops_s"),
            f("p50_us"),
            f("p99_us"),
            f("p999_us"),
            f("shed_rate") * 100.0,
            f("stall_rate") * 100.0,
        );
        report.push_row(row);
    }
    Ok(report)
}

/// Starts a fresh 2-shard server with the given trace self-sampling
/// cadence and drives it with one load run.
fn run_obs_point(sample_every: u64, trace_every: u64) -> std::io::Result<LoadResult> {
    let mut server = VlsaServer::start(ServerConfig {
        shards: 2,
        shard: ShardConfig {
            nbits: 64,
            cycle_ns: SWEEP_CYCLE_NS,
            queue_capacity: 64,
            ..ShardConfig::default()
        },
        trace: ObsConfig {
            sample_every,
            ..ObsConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| std::io::Error::other(e.to_string()))?;
    let result = run_load(
        server.addr(),
        &LoadConfig {
            connections: 24,
            requests_per_conn: 80,
            trace_every,
            ..LoadConfig::default()
        },
    )?;
    server.shutdown();
    Ok(result)
}

/// The observability benchmark behind `BENCH_obs.json`: the cost of
/// tracing, and what tracing buys.
///
/// Two identical load runs — tracing fully off (no self-sampling, no
/// client trace contexts) versus the default rates — quantify the
/// overhead of the trace plumbing. The traced run's samples then feed
/// a critical-path breakdown: at the p50/p99/p999 round trips, how
/// many microseconds went to queue wait, batch linger, service,
/// device pacing, and the network/framing remainder.
///
/// # Errors
///
/// Propagates server-start and connect failures.
pub fn run_obs_bench() -> std::io::Result<Report> {
    let off = run_obs_point(0, 0)?;
    let on = run_obs_point(ObsConfig::default().sample_every, 8)?;

    let mut report = Report::new("obs");
    report.set("cycle_ns", SWEEP_CYCLE_NS);
    report.set("trace_off_ops_s", off.ops_per_sec());
    report.set("trace_on_ops_s", on.ops_per_sec());
    // Positive = tracing cost throughput; single-digit noise expected.
    let overhead = (off.ops_per_sec() - on.ops_per_sec()) / off.ops_per_sec().max(1e-9);
    report.set("trace_overhead_frac", overhead);
    report.set("traced_samples", on.traced.len() as u64);

    println!(
        "tracing off {:.0} ops/s | on {:.0} ops/s | overhead {:+.1}% | {} traced",
        off.ops_per_sec(),
        on.ops_per_sec(),
        overhead * 100.0,
        on.traced.len(),
    );
    println!(
        "{:>9} | {:>8} | {:>8} {:>8} {:>8} {:>8} {:>8}",
        "quantile", "rtt us", "queue", "linger", "service", "pace", "network"
    );
    for (label, quantile) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
        let Some(sample) = sample_at_quantile(&on.traced, quantile) else {
            continue;
        };
        let t = sample.timing;
        println!(
            "{:>9} | {:>8} | {:>8} {:>8} {:>8} {:>8} {:>8}",
            label,
            sample.rtt_us,
            t.queue_us,
            t.linger_us,
            t.service_us,
            t.pace_us,
            sample.network_us(),
        );
        let share = |us: u64| us as f64 / sample.rtt_us.max(1) as f64;
        report.push_row(
            Json::obj()
                .set("quantile", label)
                .set("rtt_us", sample.rtt_us)
                .set("trace_id", t.trace_id)
                .set("queue_us", u64::from(t.queue_us))
                .set("linger_us", u64::from(t.linger_us))
                .set("service_us", u64::from(t.service_us))
                .set("pace_us", u64::from(t.pace_us))
                .set("network_us", sample.network_us())
                .set("queue_share", share(u64::from(t.queue_us)))
                .set("linger_share", share(u64::from(t.linger_us)))
                .set("service_share", share(u64::from(t.service_us)))
                .set("pace_share", share(u64::from(t.pace_us)))
                .set("network_share", share(sample.network_us())),
        );
    }
    Ok(report)
}

/// Parses a `Mix` flag value.
///
/// # Errors
///
/// [`ArgError::BadValue`] on an unknown mix name.
pub fn parse_mix(value: &str) -> Result<Mix, ArgError> {
    crate::report::parse_arg("--mix", value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_names_round_trip() {
        for mix in [Mix::Uniform, Mix::Biased, Mix::Adversarial, Mix::Mixed] {
            assert_eq!(mix.to_string().parse::<Mix>(), Ok(mix));
        }
        assert!("bogus".parse::<Mix>().is_err());
    }

    #[test]
    fn a_small_nominal_point_delivers_everything() {
        let point = SweepPoint {
            shards: 2,
            queue_capacity: 64,
            label: "test",
            load: LoadConfig {
                connections: 4,
                requests_per_conn: 8,
                ops_per_request: 16,
                ..LoadConfig::default()
            },
        };
        let row = run_point(&point).expect("run");
        assert_eq!(row.get("ops").and_then(Json::as_u64), Some(4 * 8 * 16));
        assert_eq!(row.get("shed").and_then(Json::as_u64), Some(0));
        assert_eq!(row.get("errors").and_then(Json::as_u64), Some(0));
        // The mixed stream contains adversarial segments, so stalls
        // must be visible in the stall rate.
        assert!(row.get("stalls").and_then(Json::as_u64).unwrap_or(0) > 0);
    }

    #[test]
    fn traced_requests_come_back_decomposed_and_bounded_by_their_rtt() {
        let point = SweepPoint {
            shards: 2,
            queue_capacity: 64,
            label: "test-traced",
            load: LoadConfig {
                connections: 4,
                requests_per_conn: 8,
                ops_per_request: 16,
                trace_every: 2,
                ..LoadConfig::default()
            },
        };
        let row = run_point(&point).expect("run");
        // Every 2nd request of every connection carried a context.
        assert_eq!(row.get("traced").and_then(Json::as_u64), Some(4 * 8 / 2));
        // Each quantile column is a real traced sample's server-side
        // total. Totals are not monotone in rtt rank (the network share
        // varies per request), so only positivity is asserted here; the
        // strict per-sample `total <= rtt` bound lives in
        // `traced_samples_phase_sums_never_exceed_the_round_trip`.
        for column in [
            "rtt_q_sample_server_p50_us",
            "rtt_q_sample_server_p99_us",
            "rtt_q_sample_server_p999_us",
        ] {
            let total = row.get(column).and_then(Json::as_u64).expect("column");
            assert!(total > 0, "{column}: decomposition was echoed");
        }
    }

    #[test]
    fn traced_samples_phase_sums_never_exceed_the_round_trip() {
        let mut server = VlsaServer::start(ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        })
        .expect("start");
        let result = run_load(
            server.addr(),
            &LoadConfig {
                connections: 2,
                requests_per_conn: 10,
                ops_per_request: 8,
                trace_every: 1,
                ..LoadConfig::default()
            },
        )
        .expect("load");
        server.shutdown();
        assert_eq!(result.traced.len(), 20, "every request was traced");
        assert!(result.traced.windows(2).all(|w| w[0].rtt_us <= w[1].rtt_us));
        for s in &result.traced {
            assert!(s.timing.trace_id != 0);
            assert!(
                s.timing.total_us() <= s.rtt_us + 1,
                "server phases {} us exceed rtt {} us",
                s.timing.total_us(),
                s.rtt_us
            );
            assert_eq!(s.network_us(), s.rtt_us - s.timing.total_us().min(s.rtt_us));
        }
    }

    #[test]
    fn quantile_sampling_picks_the_ends_and_the_middle() {
        let sample = |rtt_us| TracedSample {
            rtt_us,
            timing: ServerTiming::default(),
        };
        assert!(sample_at_quantile(&[], 0.5).is_none());
        let sorted: Vec<TracedSample> = (0..101).map(|i| sample(i * 10)).collect();
        assert_eq!(sample_at_quantile(&sorted, 0.0).unwrap().rtt_us, 0);
        assert_eq!(sample_at_quantile(&sorted, 0.5).unwrap().rtt_us, 500);
        assert_eq!(sample_at_quantile(&sorted, 1.0).unwrap().rtt_us, 1000);
    }

    #[test]
    fn an_overload_point_sheds_but_never_drops() {
        let point = SweepPoint {
            shards: 1,
            queue_capacity: 1,
            label: "test-overload",
            load: LoadConfig {
                connections: 16,
                requests_per_conn: 10,
                ops_per_request: 32,
                ..LoadConfig::default()
            },
        };
        // run_point itself asserts answered + shed + errors == offered.
        let row = run_point(&point).expect("run");
        assert!(
            row.get("shed").and_then(Json::as_u64).unwrap_or(0) > 0,
            "a 1-deep queue under 16 connections must shed"
        );
        assert_eq!(row.get("errors").and_then(Json::as_u64), Some(0));
    }
}
