//! The TCP front end: accept loop, per-connection protocol loop, and
//! the HTTP observability mount.
//!
//! Connections are cheap threads (the protocol is synchronous per
//! connection — one request in flight each; concurrency comes from many
//! connections feeding the shared shard queues, which is where batching
//! happens). The accept loop and its graceful flag-and-wake shutdown
//! come from `vlsa_monitor::AcceptLoop`; the HTTP endpoints are
//! `vlsa_monitor::ScrapeServer` routes — one socket implementation in
//! the whole tree:
//!
//! | route | serves |
//! |---|---|
//! | `/metrics` | Prometheus exposition of the telemetry registry |
//! | `/snapshot` | build info + the registry as JSON |
//! | `/exemplars` | per-shard worst-request trace ids per latency bucket |
//! | `/trace/{id}` | a sampled request's span tree (`?format=chrome` for a Chrome-trace document) |
//! | `/profile?seconds=N&hz=H` | folded stacks from the sampling profiler (`?format=json` for JSON; one session at a time, 429 otherwise) |
//! | `/slo` | error-budget and burn-rate status per objective |
//! | `/events?n=N` | the newest N canonical wide events, JSONL |
//! | `/query?expr=&range=` | range evaluation over the embedded metrics history (`rate`, `increase`, `avg/max_over_time`, `quantile`) |
//! | `/series` | per-series retention/compression stats of the embedded store |
//! | `/healthz` | liveness — 200 whenever the process can answer |
//! | `/readyz` | readiness — 503 while shards are degraded or an SLO page is firing |

use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vlsa_chaos::ChaosInjector;
use vlsa_core::SpecError;
use vlsa_monitor::{
    exposition, percent_decode, query_param, AcceptLoop, HttpResponse, Route, ScrapeServer,
};
use vlsa_telemetry::names::{labeled_multi, recorded, server as metric};
use vlsa_telemetry::{Json, Registry, ScopedRecorder};
use vlsa_tsdb::{eval_range, parse_duration_us, range_response_json, Expr, QueryError};
use vlsa_tsdb::{RecordingRule, Tsdb, TsdbConfig};

use vlsa_slo::Objectives;

use crate::clock::ModeledClock;
use crate::error::ProtocolError;
use crate::events::{EventLog, EventLogConfig};
use crate::framing::{read_frame_bounded, write_frame, ReadError};
use crate::obs::{ObsConfig, ServerObs};
use crate::protocol::Frame;
use crate::shard::{JobTrace, PoolHooks, Reply, ShardConfig, ShardPool};
use crate::slo::ServerSlo;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Wire-protocol listen address (`"127.0.0.1:0"` for ephemeral).
    pub addr: String,
    /// Number of pipeline shards.
    pub shards: usize,
    /// Per-shard configuration.
    pub shard: ShardConfig,
    /// Mount the HTTP observability endpoints (`/metrics`, `/snapshot`,
    /// `/exemplars`, `/trace/{id}`, `/profile`) on an ephemeral port,
    /// see [`VlsaServer::metrics_addr`].
    pub metrics: bool,
    /// Request-tracing sampling and retention policy. Tracing state
    /// always exists (client-requested traces are always honored);
    /// `sample_every: 0` turns off server-initiated sampling.
    pub trace: ObsConfig,
    /// Idle read timeout per connection; bounds how long shutdown
    /// waits for connection threads to notice the stop flag.
    pub read_timeout: Duration,
    /// Write timeout per connection socket: a peer that stops draining
    /// its receive buffer cannot pin a connection thread forever.
    pub write_timeout: Duration,
    /// Total idle lifetime before a connection is reaped. A reaped
    /// connection simply closes (there is no frame to answer); clients
    /// reconnect. Zero disables reaping.
    pub idle_max: Duration,
    /// Per-frame feed deadline: once a frame's first byte arrives, the
    /// rest must arrive within this budget or the connection is torn
    /// down with a typed `SlowFrame` error (slow-loris defense).
    pub frame_deadline: Duration,
    /// Fault injector threaded into the shard workers and the reply
    /// path; `None` (production) costs nothing.
    pub chaos: Option<Arc<ChaosInjector>>,
    /// SLO objectives to enforce; `Some` wires an error-budget
    /// accountant into the shard workers and the submit path, serves
    /// `/slo`, and couples a firing correctness page to the shard
    /// degrade flags.
    pub slo: Option<Objectives>,
    /// Wide-event retention and rate-limit policy; `Some` makes every
    /// shard worker emit one canonical event per batch, served at
    /// `/events`.
    pub events: Option<EventLogConfig>,
    /// Mirror accepted wide events to a JSONL file (requires
    /// [`ServerConfig::events`]).
    pub events_file: Option<PathBuf>,
    /// Embedded time-series store policy. When `Some` *and*
    /// [`ServerConfig::metrics`] is on, the server self-ingests every
    /// telemetry registry snapshot into a `vlsa-tsdb` store on a
    /// modeled-time cadence, evaluates the default recording rules on
    /// each tick, and mounts `/query` and `/series`. On by default:
    /// turning metrics on buys history, not just instantaneous scrape.
    pub tsdb: Option<TsdbConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 1,
            shard: ShardConfig::default(),
            metrics: false,
            trace: ObsConfig::default(),
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(2),
            idle_max: Duration::from_secs(60),
            frame_deadline: Duration::from_secs(2),
            chaos: None,
            slo: None,
            events: None,
            events_file: None,
            tsdb: Some(TsdbConfig::default()),
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServerError {
    /// Invalid adder width/window in the shard config.
    Spec(SpecError),
    /// Socket setup failed.
    Io(io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Spec(e) => write!(f, "invalid shard config: {e}"),
            ServerError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<SpecError> for ServerError {
    fn from(e: SpecError) -> ServerError {
        ServerError::Spec(e)
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

/// Connection-level counters (shard-agnostic), shared with observers
/// without requiring telemetry.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Malformed/unexpected frames answered with a typed error frame.
    pub protocol_errors: AtomicU64,
    /// Connections closed by the idle reaper.
    pub idle_reaped: AtomicU64,
    /// Connections torn down for feeding a frame slower than the
    /// per-frame deadline.
    pub slow_frames: AtomicU64,
    /// Hedged copies refused because their `(key, seq)` was already
    /// accepted.
    pub hedge_duplicates: AtomicU64,
}

/// Server-side dedup for hedged requests: the first copy of a
/// `(key, seq)` executes, later copies are refused with a typed
/// `DuplicateHedge` frame without occupying a batch slot. A bounded
/// FIFO of recent keys — hedges race each other by milliseconds, so a
/// small window is enough, and an evicted key merely means a very late
/// duplicate executes twice (same sums, never wrong answers).
/// A hedge identity on the wire: the idempotency key and attempt seq.
type HedgeId = (u64, u32);

#[derive(Debug)]
struct HedgeDedup {
    cap: usize,
    inner: Mutex<(HashSet<HedgeId>, VecDeque<HedgeId>)>,
}

impl HedgeDedup {
    fn new(cap: usize) -> HedgeDedup {
        HedgeDedup {
            cap,
            inner: Mutex::new((HashSet::new(), VecDeque::new())),
        }
    }

    /// Whether this `(key, seq)` is the first copy seen (and is now
    /// registered).
    fn first_copy(&self, key: u64, seq: u32) -> bool {
        let mut guard = self.inner.lock().expect("hedge dedup lock");
        let (seen, order) = &mut *guard;
        if !seen.insert((key, seq)) {
            return false;
        }
        order.push_back((key, seq));
        if order.len() > self.cap {
            if let Some(oldest) = order.pop_front() {
                seen.remove(&oldest);
            }
        }
        true
    }
}

/// The running service: accept loop + shard pool + trace state +
/// optional HTTP observability mount.
pub struct VlsaServer {
    accept: AcceptLoop,
    scrape: Option<ScrapeServer>,
    pool: Arc<ShardPool>,
    stats: Arc<ServerStats>,
    obs: Arc<ServerObs>,
    slo: Option<Arc<ServerSlo>>,
    events: Option<Arc<EventLog>>,
    tsdb: Option<Arc<Tsdb>>,
    ingest: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl VlsaServer {
    /// Binds the wire-protocol listener (and the HTTP observability
    /// endpoints if configured) and starts the shard workers.
    ///
    /// # Errors
    ///
    /// [`ServerError::Spec`] for an invalid shard config,
    /// [`ServerError::Io`] for socket failures.
    pub fn start(config: ServerConfig) -> Result<VlsaServer, ServerError> {
        // The caller's registry, captured once: connection threads enter
        // it, and the scrape routes and history ingest read it.
        let telemetry = vlsa_telemetry::recorder();
        let slo = config.slo.clone().map(|obj| Arc::new(ServerSlo::new(obj)));
        // One modeled clock for the whole process: folded forward by
        // every shard batch, read by the event log's rate limiter and
        // the tsdb self-scraper.
        let clock = Arc::new(ModeledClock::new());
        let events = match (config.events, &config.events_file) {
            (Some(ev), Some(path)) => Some(Arc::new(EventLog::with_clock_and_file(
                ev,
                Arc::clone(&clock),
                path,
            )?)),
            (Some(ev), None) => Some(Arc::new(EventLog::with_clock(ev, Arc::clone(&clock)))),
            (None, _) => None,
        };
        let hooks = PoolHooks {
            slo: slo.clone(),
            events: events.clone(),
            chaos: config.chaos.clone(),
            clock: Arc::clone(&clock),
        };
        let pool = Arc::new(ShardPool::start_with_hooks(
            &config.shard,
            config.shards,
            hooks,
        )?);
        if let Some(slo) = &slo {
            // A firing correctness page flips every shard to the exact
            // adder — the same flags the conformance monitor drives.
            slo.set_degrade_signals(
                (0..pool.shard_count())
                    .map(|i| pool.degrade_flag(i))
                    .collect(),
            );
        }
        let stats = Arc::new(ServerStats::default());
        let obs = Arc::new(ServerObs::new(config.trace, config.shards));
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        if let Some(rec) = &telemetry {
            // One constant-1 gauge whose labels carry the build/config
            // identity, the Prometheus `build_info` convention.
            rec.gauge(&labeled_multi(
                metric::BUILD_INFO,
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("nbits", &config.shard.nbits.to_string()),
                    ("window", &config.shard.window.to_string()),
                    ("shards", &config.shards.to_string()),
                    ("cycle_ns", &config.shard.cycle_ns.to_string()),
                ],
            ))
            .set(1.0);
        }
        // Without a scope the endpoints serve an empty registry.
        let registry = telemetry.clone().unwrap_or_default();
        // The embedded metrics history rides with the HTTP mount: the
        // store exists to be queried, and the scrape loop's registry is
        // only populated when telemetry is recording anyway.
        let tsdb = match (&config.tsdb, config.metrics) {
            (Some(cfg), true) => {
                let db = Arc::new(Tsdb::new(*cfg));
                for (name, expr) in default_recording_rules() {
                    db.add_rule(RecordingRule {
                        name: name.to_string(),
                        expr: expr.to_string(),
                    })
                    .expect("default recording rules parse");
                }
                Some(db)
            }
            _ => None,
        };
        let ingest = tsdb.as_ref().map(|db| {
            spawn_ingest(
                Arc::clone(db),
                Arc::clone(&registry),
                Arc::clone(&clock),
                Arc::clone(&stop),
            )
        });
        let scrape = if config.metrics {
            Some(ScrapeServer::with_routes(
                "127.0.0.1:0",
                observability_routes(
                    &config,
                    registry,
                    Arc::clone(&obs),
                    Arc::clone(&pool),
                    slo.clone(),
                    events.clone(),
                    tsdb.clone(),
                ),
            )?)
        } else {
            None
        };
        let shared = Arc::new(ConnShared {
            pool: Arc::clone(&pool),
            stats: Arc::clone(&stats),
            obs: Arc::clone(&obs),
            stop: Arc::clone(&stop),
            slo: slo.clone(),
            chaos: config.chaos.clone(),
            telemetry,
            hedge: HedgeDedup::new(4096),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            idle_max: config.idle_max,
            frame_deadline: config.frame_deadline,
        });
        let accept = AcceptLoop::spawn("vlsa-server-accept", &config.addr, {
            let conns = Arc::clone(&conns);
            Arc::new(move |stream: TcpStream| {
                let shared = Arc::clone(&shared);
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = &shared.telemetry {
                    rec.counter(metric::CONNECTIONS).incr();
                }
                let handle = std::thread::Builder::new()
                    .name("vlsa-conn".to_string())
                    .spawn(move || serve_connection(stream, &shared));
                if let Ok(handle) = handle {
                    // Handles of finished connections accumulate until
                    // shutdown; fine at bench scale, and join-at-exit
                    // guarantees no thread outlives the server.
                    conns.lock().expect("conns lock").push(handle);
                }
            })
        })?;
        Ok(VlsaServer {
            accept,
            scrape,
            pool,
            stats,
            obs,
            slo,
            events,
            tsdb,
            ingest,
            stop,
            conns,
        })
    }

    /// The wire-protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// The `/metrics` endpoint address, when mounted.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::addr)
    }

    /// The shard pool (stats, degrade flags).
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// The trace state (rings, exemplars, sampling counters).
    pub fn obs(&self) -> &Arc<ServerObs> {
        &self.obs
    }

    /// Connection-level counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The SLO accountant, when [`ServerConfig::slo`] is set.
    pub fn slo(&self) -> Option<&Arc<ServerSlo>> {
        self.slo.as_ref()
    }

    /// The wide-event log, when [`ServerConfig::events`] is set.
    pub fn events(&self) -> Option<&Arc<EventLog>> {
        self.events.as_ref()
    }

    /// The embedded time-series store, when [`ServerConfig::tsdb`] and
    /// [`ServerConfig::metrics`] are both set.
    pub fn tsdb(&self) -> Option<&Arc<Tsdb>> {
        self.tsdb.as_ref()
    }

    /// Graceful stop: no new connections, accepted requests drain and
    /// get their replies, then workers and connection threads join.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.accept.shutdown();
        // Closing the queues lets workers drain everything already
        // accepted, so blocked connections get their replies before
        // their threads notice the stop flag.
        self.pool.shutdown();
        // The ingest thread takes its final snapshot after the pool has
        // drained, so the last tick carries the complete run's counters
        // — post-shutdown queries (and the CI accounting gate) see
        // everything the server did.
        if let Some(ingest) = self.ingest.take() {
            let _ = ingest.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(scrape) = &mut self.scrape {
            scrape.shutdown();
        }
    }
}

impl Drop for VlsaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for VlsaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VlsaServer")
            .field("addr", &self.addr())
            .field("metrics_addr", &self.metrics_addr())
            .field("pool", &self.pool)
            .finish()
    }
}

/// The recording rules every server registers: fleet throughput and
/// shed rates, the worst-shard tail, and the SLO/conformance verdicts
/// — so burn rates and chi-square/CUSUM statistics become *history*,
/// not just instantaneous gauges.
fn default_recording_rules() -> &'static [(&'static str, &'static str)] {
    &[
        (recorded::OPS_PER_SEC, "rate(vlsa.server.ops[1s])"),
        (recorded::SHED_PER_SEC, "rate(vlsa.server.shed[1s])"),
        (
            recorded::P999_US,
            "quantile(0.999, vlsa.server.request_latency_us[10s])",
        ),
        (
            recorded::BURN_RATE_MAX,
            "max_over_time(vlsa.slo.burn_rate[10s])",
        ),
        (
            recorded::PAGES_FIRING,
            "max_over_time(vlsa.slo.pages_firing[10s])",
        ),
        (recorded::CHI2_MAX, "max_over_time(vlsa.monitor.chi2[1m])"),
        (recorded::CUSUM_MAX, "max_over_time(vlsa.monitor.cusum[1m])"),
    ]
}

/// The self-scrape loop: polls on a short wall interval, but *samples
/// on the modeled-time axis* — a tick is taken only when modeled time
/// has advanced past the last ingest, so timestamps are deterministic
/// functions of the work the shards did, an idle server appends
/// nothing, and a loaded one gets a snapshot per poll. The final tick
/// (after the pool drains) captures the complete run.
fn spawn_ingest(
    db: Arc<Tsdb>,
    registry: Arc<Registry>,
    clock: Arc<ModeledClock>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("vlsa-tsdb-ingest".to_string())
        .spawn(move || {
            let mut last_append = Instant::now();
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let now_us = clock.now_us();
                if now_us > db.last_ingest_us() || db.ingest_ticks() == 0 {
                    db.ingest_registry(&registry, now_us);
                    last_append = Instant::now();
                } else if last_append.elapsed() >= Duration::from_millis(250) {
                    // Idle heartbeat: the modeled clock pauses between
                    // runs, but a snapshot taken mid-batch may have
                    // missed counter increments that landed after the
                    // final clock advance. Re-sampling one µs past the
                    // last tick converges the history to the true
                    // closing totals while the server sits idle.
                    db.ingest_registry(&registry, db.last_ingest_us() + 1);
                    last_append = Instant::now();
                }
                std::thread::sleep(Duration::from_millis(15));
            }
            // Final snapshot strictly after every earlier tick, so the
            // run's closing counter values are always queryable.
            let now_us = clock.now_us().max(db.last_ingest_us() + 1);
            db.ingest_registry(&registry, now_us);
        })
        .expect("spawn tsdb ingest thread")
}

/// The `/query?expr=&range=` handler body, shared with the fleet
/// aggregator: evaluates a range expression against a store and shapes
/// the JSON response (400 for a bad expression or parameters).
///
/// Parameters: `expr` (required, percent-encoded welcome), `start`/
/// `end` (µs of the store's time axis; `end` defaults to the newest
/// ingest, `start` to `end − range` or 0), `range` and `step` as
/// `30s`-style durations (`step` defaults to ~240 instants).
pub fn answer_query(db: &Tsdb, query: &str) -> HttpResponse {
    let Some(raw_expr) = query_param(query, "expr") else {
        return HttpResponse::bad_request(
            "missing ?expr= (e.g. /query?expr=rate(vlsa.server.ops[1s])&range=30s)".to_string(),
        );
    };
    let expr_text = percent_decode(raw_expr);
    let expr = match Expr::parse(&expr_text) {
        Ok(expr) => expr,
        Err(e) => return HttpResponse::bad_request(format!("{e}")),
    };
    let parse_ts = |key: &str| -> Result<Option<u64>, HttpResponse> {
        match query_param(query, key) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| HttpResponse::bad_request(format!("bad ?{key}= (want µs): {v:?}"))),
        }
    };
    let (start_param, end_param) = match (parse_ts("start"), parse_ts("end")) {
        (Ok(s), Ok(e)) => (s, e),
        (Err(resp), _) | (_, Err(resp)) => return resp,
    };
    let end = end_param.unwrap_or_else(|| db.last_ingest_us());
    let start = match (start_param, query_param(query, "range")) {
        (Some(s), _) => s,
        (None, Some(r)) => match parse_duration_us(&percent_decode(r)) {
            Ok(range) => end.saturating_sub(range),
            Err(e) => return HttpResponse::bad_request(format!("bad ?range=: {e}")),
        },
        (None, None) => 0,
    };
    if start > end {
        return HttpResponse::bad_request(format!("empty time range: start {start} > end {end}"));
    }
    let step = match query_param(query, "step") {
        Some(s) => match parse_duration_us(&percent_decode(s)) {
            Ok(step) => step.max(1),
            Err(e) => return HttpResponse::bad_request(format!("bad ?step=: {e}")),
        },
        // Default to ~240 evaluation instants across the range.
        None => ((end - start) / 240).max(1),
    };
    match eval_range(db, &expr, start, end, step) {
        Ok(results) => HttpResponse::ok_json(
            range_response_json(&expr_text, start, end, step, &results).to_string(),
        ),
        Err(e @ QueryError::Parse(_)) => HttpResponse::bad_request(format!("{e}")),
        Err(e @ QueryError::Decode(_)) => HttpResponse {
            status: 500,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: format!("{e}\n"),
        },
    }
}

/// The HTTP observability route table (see the module docs for the
/// full list). The scrape server serves each connection on its own
/// thread, so `/profile` — which blocks for the requested duration by
/// design — is bounded to one concurrent session per process; a second
/// request while one runs gets a typed 429.
fn observability_routes(
    config: &ServerConfig,
    registry: Arc<Registry>,
    obs: Arc<ServerObs>,
    pool: Arc<ShardPool>,
    slo: Option<Arc<ServerSlo>>,
    events: Option<Arc<EventLog>>,
    tsdb: Option<Arc<Tsdb>>,
) -> Vec<Route> {
    let build_info = Json::obj()
        .set("version", env!("CARGO_PKG_VERSION"))
        .set("nbits", config.shard.nbits as u64)
        .set("window", config.shard.window as u64)
        .set("shards", config.shards as u64)
        .set("cycle_ns", config.shard.cycle_ns)
        .set("trace_sample_every", config.trace.sample_every);
    let mut routes = Vec::new();
    {
        let registry = Arc::clone(&registry);
        routes.push(Route::exact(
            "/metrics",
            Arc::new(move |_path: &str, _query: &str| HttpResponse {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8".to_string(),
                body: exposition(&registry),
            }),
        ));
    }
    {
        let registry = Arc::clone(&registry);
        let build_info = build_info.clone();
        routes.push(Route::exact(
            "/snapshot",
            Arc::new(move |_path: &str, _query: &str| {
                let doc = Json::obj()
                    .set("build", build_info.clone())
                    .set("metrics", registry.snapshot());
                HttpResponse::ok_json(doc.to_string())
            }),
        ));
    }
    {
        let obs = Arc::clone(&obs);
        routes.push(Route::exact(
            "/exemplars",
            Arc::new(move |_path: &str, _query: &str| {
                HttpResponse::ok_json(obs.exemplars_json().to_string())
            }),
        ));
    }
    {
        let obs = Arc::clone(&obs);
        routes.push(Route::prefix(
            "/trace/",
            Arc::new(move |path: &str, query: &str| {
                let id_str = path.strip_prefix("/trace/").unwrap_or("");
                let Ok(trace_id) = id_str.parse::<u64>() else {
                    return HttpResponse::bad_request(format!(
                        "trace id must be a decimal u64, got {id_str:?}"
                    ));
                };
                match obs.lookup(trace_id) {
                    Some(trace) => {
                        let doc = if query_param(query, "format") == Some("chrome") {
                            trace.chrome_json()
                        } else {
                            trace.to_json()
                        };
                        HttpResponse::ok_json(doc.to_string())
                    }
                    None => HttpResponse::not_found(format!(
                        "no trace {trace_id} in the rings (evicted or never sampled)"
                    )),
                }
            }),
        ));
    }
    {
        // One profiling session per process: sampling perturbs what it
        // measures, and overlapping sessions would double both the
        // signal overhead and the confusion.
        let profiling = Arc::new(AtomicBool::new(false));
        routes.push(Route::exact(
            "/profile",
            Arc::new(move |_path: &str, query: &str| {
                if profiling
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    let body = Json::obj()
                        .set("error", "profile_in_progress")
                        .set(
                            "detail",
                            "one concurrent profiling session per process; retry when it ends",
                        )
                        .to_string();
                    return HttpResponse::too_many_requests(body);
                }
                let seconds = query_param(query, "seconds")
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(1)
                    .clamp(1, 30);
                let hz = query_param(query, "hz")
                    .and_then(|s| s.parse::<u32>().ok())
                    .unwrap_or(99);
                let profile = vlsa_profile::sample(Duration::from_secs(seconds), hz);
                let response = if query_param(query, "format") == Some("json") {
                    HttpResponse::ok_json(profile.to_json().to_string())
                } else {
                    HttpResponse::ok_text(profile.to_folded())
                };
                profiling.store(false, Ordering::Release);
                response
            }),
        ));
    }
    {
        let slo = slo.clone();
        routes.push(Route::exact(
            "/slo",
            Arc::new(move |_path: &str, _query: &str| match &slo {
                Some(slo) => HttpResponse::ok_json(slo.status_json().to_string()),
                None => HttpResponse::ok_json(Json::obj().set("enabled", false).to_string()),
            }),
        ));
    }
    {
        routes.push(Route::exact(
            "/events",
            Arc::new(move |_path: &str, query: &str| match &events {
                Some(events) => {
                    let n = query_param(query, "n")
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or(100);
                    HttpResponse {
                        status: 200,
                        content_type: "application/x-ndjson".to_string(),
                        body: events.last_jsonl(n),
                    }
                }
                None => HttpResponse::not_found(
                    "wide events are not enabled on this server".to_string(),
                ),
            }),
        ));
    }
    {
        let tsdb = tsdb.clone();
        routes.push(Route::exact(
            "/query",
            Arc::new(move |_path: &str, query: &str| match &tsdb {
                Some(db) => answer_query(db, query),
                None => HttpResponse::not_found(
                    "the time-series store is not enabled on this server".to_string(),
                ),
            }),
        ));
    }
    {
        routes.push(Route::exact(
            "/series",
            Arc::new(move |_path: &str, _query: &str| match &tsdb {
                Some(db) => HttpResponse::ok_json(db.stats_json().to_string()),
                None => HttpResponse::not_found(
                    "the time-series store is not enabled on this server".to_string(),
                ),
            }),
        ));
    }
    {
        // Liveness plus the supervisor's vital signs: a chaos run curls
        // this through a shard kill to watch the restart land without
        // the process restarting.
        let pool = Arc::clone(&pool);
        routes.push(Route::exact(
            "/healthz",
            Arc::new(move |_path: &str, _query: &str| {
                HttpResponse::ok_json(
                    Json::obj()
                        .set("ok", true)
                        .set("restarts", pool.restarts())
                        .set("degraded_shards", pool.degraded_shards())
                        .set("closing", pool.is_closing())
                        .to_string(),
                )
            }),
        ));
    }
    {
        routes.push(Route::exact(
            "/readyz",
            Arc::new(move |_path: &str, _query: &str| {
                let degraded = pool.degraded_shards();
                let verdict = slo.as_ref().map(|s| s.verdict()).unwrap_or_default();
                let ready = degraded == 0 && verdict.pages_firing == 0;
                let body = Json::obj()
                    .set("ready", ready)
                    .set("degraded_shards", degraded)
                    .set("slo_pages_firing", verdict.pages_firing)
                    .set("slo_warns_firing", verdict.warns_firing)
                    .to_string();
                if ready {
                    HttpResponse::ok_json(body)
                } else {
                    HttpResponse::service_unavailable(body)
                }
            }),
        ));
    }
    routes
}

/// Everything a connection thread needs, shared across all of them.
#[derive(Debug)]
struct ConnShared {
    pool: Arc<ShardPool>,
    stats: Arc<ServerStats>,
    obs: Arc<ServerObs>,
    stop: Arc<AtomicBool>,
    slo: Option<Arc<ServerSlo>>,
    chaos: Option<Arc<ChaosInjector>>,
    /// The server's registry, entered by every connection thread.
    telemetry: Option<Arc<Registry>>,
    hedge: HedgeDedup,
    read_timeout: Duration,
    write_timeout: Duration,
    idle_max: Duration,
    frame_deadline: Duration,
}

impl ConnShared {
    fn note_protocol_error(&self) {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = vlsa_telemetry::recorder() {
            rec.counter(metric::PROTOCOL_ERRORS).incr();
        }
    }
}

/// One connection's protocol loop: read a frame, answer it, repeat.
/// Every exit path is clean — a typed error frame where the protocol
/// allows one, then teardown of *this* connection only.
fn serve_connection(mut stream: TcpStream, shared: &ConnShared) {
    let _telemetry = shared.telemetry.clone().map(ScopedRecorder::enter);
    if stream.set_read_timeout(Some(shared.read_timeout)).is_err()
        || stream
            .set_write_timeout(Some(shared.write_timeout))
            .is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut last_activity = Instant::now();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        match read_frame_bounded(&stream, shared.frame_deadline) {
            Ok(Frame::AddBatch(request)) => {
                last_activity = Instant::now();
                if !answer_request(&mut stream, shared, request) {
                    break;
                }
            }
            Ok(frame) => {
                // Well-formed, but clients may only send requests.
                shared.note_protocol_error();
                let err = ProtocolError::UnexpectedFrame {
                    frame_type: frame.frame_type(),
                };
                let _ = write_frame(&mut stream, &Frame::Error(err.to_frame()));
                break;
            }
            Err(ReadError::Eof) => break,
            Err(ReadError::IdleTimeout) => {
                // Idle at a frame boundary: keep waiting until the
                // cumulative idle lifetime runs out, then reap. There
                // is no frame to answer — the peer just went quiet.
                if !shared.idle_max.is_zero() && last_activity.elapsed() >= shared.idle_max {
                    shared.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                    if let Some(rec) = vlsa_telemetry::recorder() {
                        rec.counter(metric::IDLE_REAPED).incr();
                    }
                    break;
                }
            }
            Err(ReadError::SlowFrame) => {
                // A started frame outlived its feed deadline: the peer
                // is slow-lorising (or broken). Typed error, teardown.
                shared.stats.slow_frames.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = vlsa_telemetry::recorder() {
                    rec.counter(metric::SLOW_FRAMES).incr();
                }
                shared.note_protocol_error();
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error(ProtocolError::SlowFrame.to_frame()),
                );
                break;
            }
            // Mid-frame truncation or a dead socket: nothing to answer.
            Err(ReadError::Io(_)) => break,
            Err(ReadError::Protocol(e)) => {
                // The stream cannot be re-synchronized after a framing
                // error; answer with the typed error and tear down.
                shared.note_protocol_error();
                let _ = write_frame(&mut stream, &Frame::Error(e.to_frame()));
                break;
            }
        }
    }
}

/// Answers one `AddBatch`: hedge dedup, submit, await the worker (or
/// map its loss to a typed `Retryable`), inject planned reply faults,
/// write. Returns whether the connection is still usable.
fn answer_request(
    stream: &mut TcpStream,
    shared: &ConnShared,
    request: crate::protocol::AddBatch,
) -> bool {
    let obs = &shared.obs;
    let request_id = request.request_id;
    // Hedged copies: only the first (key, seq) executes; later copies
    // are refused typed, without occupying a batch slot. A fresh seq is
    // a fresh logical attempt and executes normally.
    if let Some(h) = request.hedge {
        if !shared.hedge.first_copy(h.key, h.seq) {
            shared
                .stats
                .hedge_duplicates
                .fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = vlsa_telemetry::recorder() {
                rec.counter(metric::HEDGE_DUPLICATES).incr();
            }
            if let Some(slo) = &shared.slo {
                slo.record_hedge_duplicate();
            }
            return write_frame(
                stream,
                &Frame::Error(ProtocolError::DuplicateHedge.to_frame()),
            )
            .is_ok();
        }
    }
    // The sampling decision: client-requested traces are always
    // honored (and echoed on the wire); otherwise the server
    // self-samples every Nth request with a generated id, ring-only —
    // the response stays extension-free for untraced clients.
    let trace = match request.trace {
        Some(tc) if tc.is_sampled() => Some(JobTrace {
            trace_id: tc.trace_id,
            echo: true,
            start_us: obs.now_us(),
        }),
        Some(_) => None,
        None => obs.should_self_sample().then(|| JobTrace {
            trace_id: obs.next_trace_id(),
            echo: false,
            start_us: obs.now_us(),
        }),
    };
    let (tx, rx) = channel();
    let reply = match shared.pool.submit_traced(request, tx, trace) {
        Ok(()) => match rx.recv() {
            Ok(reply) => reply,
            // The worker dropped the reply sender without answering.
            // During shutdown that is the drain racing the request;
            // otherwise the worker died holding it — the request was
            // not executed and is safe to retry.
            Err(_) => Reply {
                frame: if shared.pool.is_closing() || shared.stop.load(Ordering::Relaxed) {
                    Frame::Error(ProtocolError::Shutdown.to_frame())
                } else {
                    shared.pool.retryable_frame(request_id)
                },
                trace: None,
            },
        },
        Err(frame) => Reply {
            frame: *frame,
            trace: None,
        },
    };
    // Planned response-side chaos: delay and/or duplicate this reply.
    // Clients must tolerate both — a delayed answer races its hedge,
    // a duplicated one exercises stale-frame skipping.
    let fault = shared
        .chaos
        .as_ref()
        .and_then(|chaos| chaos.reply_fault(shared.pool.route(request_id) as u16));
    if let Some(fault) = &fault {
        if let Some(delay) = fault.delay {
            std::thread::sleep(delay);
        }
    }
    let write_start = Instant::now();
    let mut wrote = write_frame(stream, &reply.frame).is_ok();
    if wrote && fault.is_some_and(|f| f.duplicate) {
        wrote = write_frame(stream, &reply.frame).is_ok();
    }
    if let Some(mut rt) = reply.trace {
        rt.write_us = write_start.elapsed().as_micros().min(u32::MAX as u128) as u32;
        obs.record(rt);
    }
    wrote
}
