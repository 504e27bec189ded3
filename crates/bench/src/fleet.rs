//! Fleet-level metric aggregation: scrape N `vlsa-server` processes,
//! merge their series, and watch the *fleet's* SLOs.
//!
//! Per-process scrape endpoints answer "how is this process doing";
//! capacity and user experience are fleet questions. The aggregator
//! polls each target's `/snapshot`, merges every series into a fresh
//! fleet registry per sweep (counters sum, gauges keep the max,
//! histograms merge bucket-wise between identical ladders — see
//! `vlsa_telemetry::Registry::merge_snapshot`), feeds a fleet-level
//! [`SloEngine`] from counter *deltas* between sweeps, and serves the
//! merged view on its own scrape server:
//!
//! | route | serves |
//! |---|---|
//! | `/metrics` | Prometheus exposition of the merged fleet registry |
//! | `/snapshot` | sweep metadata + the merged registry as JSON |
//! | `/slo` | fleet error-budget and burn-rate status |
//! | `/query` | range queries over the fleet's metrics *history* |
//! | `/series` | retention and compression stats of the fleet store |
//! | `/healthz` | liveness of the aggregator itself |
//! | `/readyz` | 503 while targets are down or a fleet SLO page fires |
//!
//! Every sweep is also appended to an embedded [`Tsdb`]: the merged
//! registry becomes one ingest tick on a wall-clock axis (µs since the
//! aggregator started), recording rules materialize fleet throughput,
//! shed rate, worst-shard p999, and pages-firing as first-class
//! series, and `/query` answers the same `rate()` / `increase()` /
//! `quantile()` expressions a per-process server answers — but for
//! the fleet.
//!
//! Because each sweep rebuilds the fleet registry from absolute
//! per-process counters, fleet counters are monotone while every
//! target stays up; a failed scrape makes sums dip, which the delta
//! feed clamps to zero (no data beats wrong data) and `/readyz`
//! reports via `targets_up`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vlsa_monitor::{exposition, http_get, HttpResponse, Route, ScrapeServer};
use vlsa_server::answer_query;
use vlsa_slo::{Objectives, SloEngine};
use vlsa_telemetry::names::{
    fleet as fleet_metric, monitor, recorded, resilience, server, slo as slo_metric, split_labels,
};
use vlsa_telemetry::{Histogram, Json, Registry};
use vlsa_tsdb::{RecordingRule, Tsdb, TsdbConfig};

/// Aggregator configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Scrape endpoints of the member processes.
    pub targets: Vec<SocketAddr>,
    /// Sweep period.
    pub interval: Duration,
    /// Per-scrape HTTP timeout.
    pub timeout: Duration,
    /// Fleet SLO objectives (the latency threshold doubles as the
    /// histogram-bucket split for good/bad latency events).
    pub objectives: Objectives,
    /// Listen address for the aggregator's own scrape server.
    pub listen: String,
    /// Retention budget of the embedded fleet-history store.
    pub tsdb: TsdbConfig,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            targets: Vec::new(),
            interval: Duration::from_millis(500),
            timeout: Duration::from_secs(2),
            objectives: Objectives::demo(),
            listen: "127.0.0.1:0".to_string(),
            tsdb: TsdbConfig::default(),
        }
    }
}

/// The outcome of one scrape sweep.
#[derive(Debug)]
pub struct FleetSweep {
    /// The merged fleet registry.
    pub registry: Arc<Registry>,
    /// Targets that answered with a mergeable snapshot.
    pub up: usize,
    /// Targets that failed (transport, HTTP, parse, or merge).
    pub errors: usize,
}

/// Scrapes every target's `/snapshot` and merges the `metrics`
/// sections into a fresh registry.
pub fn scrape_fleet(targets: &[SocketAddr], timeout: Duration) -> FleetSweep {
    let registry = Arc::new(Registry::new());
    let mut up = 0;
    let mut errors = 0;
    for &target in targets {
        let merged = http_get(target, "/snapshot", timeout)
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| Json::parse(&body).ok())
            .and_then(|doc| doc.get("metrics").cloned())
            .is_some_and(|metrics| registry.merge_snapshot(&metrics).is_ok());
        if merged {
            up += 1;
        } else {
            errors += 1;
        }
    }
    FleetSweep {
        registry,
        up,
        errors,
    }
}

/// The merge of every per-shard request-latency histogram in a fleet
/// registry — the fleet's end-to-end latency distribution.
pub fn merged_latency(registry: &Registry) -> Option<Histogram> {
    let mut merged: Option<Histogram> = None;
    for (name, h) in registry.histograms() {
        if split_labels(&name).0 != server::REQUEST_LATENCY_US {
            continue;
        }
        match &merged {
            None => merged = Some(h.as_ref().clone()),
            Some(m) => m.merge_from(&h).ok()?,
        }
    }
    merged
}

/// Events at or under `threshold_us` in a latency histogram — the
/// latency SLO's good-event count. Exact because SLO thresholds are
/// chosen on bucket boundaries.
fn count_le(h: &Histogram, threshold_us: u64) -> u64 {
    h.buckets()
        .iter()
        .filter(|(bound, _)| *bound <= threshold_us)
        .map(|(_, count)| count)
        .sum()
}

/// Fleet SLO accountant: turns consecutive merged registries into
/// good/bad event deltas for a [`SloEngine`].
#[derive(Debug)]
pub struct FleetSlo {
    engine: SloEngine,
    threshold_us: u64,
    prev_requests: u64,
    prev_shed: u64,
    prev_ops: u64,
    prev_corr_bad: u64,
    prev_lat_total: u64,
    prev_lat_le: u64,
}

impl FleetSlo {
    /// A fresh accountant for the given objectives.
    pub fn new(objectives: Objectives) -> FleetSlo {
        let threshold_us = objectives.latency_threshold_us;
        FleetSlo {
            engine: SloEngine::new(objectives),
            threshold_us,
            prev_requests: 0,
            prev_shed: 0,
            prev_ops: 0,
            prev_corr_bad: 0,
            prev_lat_total: 0,
            prev_lat_le: 0,
        }
    }

    /// Feeds one sweep's merged registry at `now_ns` and re-evaluates
    /// every burn-rate rule. Deltas are clamped at zero so a partial
    /// sweep (a target down) registers as missing data, not as
    /// negative traffic.
    pub fn observe_at(&mut self, now_ns: u64, registry: &Registry) {
        // Availability: answered requests vs sheds.
        let requests = registry.counter_value(server::REQUESTS);
        let shed = registry.counter_value(server::SHED);
        let avail_good = requests.saturating_sub(self.prev_requests);
        let avail_bad = shed.saturating_sub(self.prev_shed);
        self.prev_requests = self.prev_requests.max(requests);
        self.prev_shed = self.prev_shed.max(shed);
        self.engine
            .record_availability(now_ns, avail_good, avail_bad);

        // Latency: replies at or under the threshold, from the merged
        // per-shard histograms.
        let (lat_total, lat_le) = merged_latency(registry)
            .map_or((0, 0), |h| (h.count(), count_le(&h, self.threshold_us)));
        let total_d = lat_total.saturating_sub(self.prev_lat_total);
        let le_d = lat_le.saturating_sub(self.prev_lat_le).min(total_d);
        self.prev_lat_total = self.prev_lat_total.max(lat_total);
        self.prev_lat_le = self.prev_lat_le.max(lat_le);
        self.engine.record_latency(now_ns, le_d, total_d - le_d);

        // Correctness: residue catches and conformance alerts against
        // ops served.
        let ops = registry.counter_value(server::OPS);
        let corr_bad_total = registry
            .counter_value(resilience::RESIDUE_MISMATCHES)
            .saturating_add(registry.counter_value(monitor::ALERTS));
        let ops_d = ops.saturating_sub(self.prev_ops);
        let bad_d = corr_bad_total.saturating_sub(self.prev_corr_bad).min(ops_d);
        self.prev_ops = self.prev_ops.max(ops);
        self.prev_corr_bad = self.prev_corr_bad.max(corr_bad_total);
        self.engine
            .record_correctness(now_ns, ops_d.saturating_sub(bad_d), bad_d);

        self.engine.evaluate(now_ns);
    }

    /// Page-severity rules currently firing.
    pub fn pages_firing(&self) -> usize {
        self.engine.pages_firing()
    }

    /// Warn-severity rules currently firing.
    pub fn warns_firing(&self) -> usize {
        self.engine.warns_firing()
    }

    /// The engine's full status document.
    pub fn status(&self, now_ns: u64) -> Json {
        self.engine.status(now_ns)
    }
}

/// State shared between the sweep thread and the HTTP routes.
#[derive(Debug)]
struct Shared {
    registry: Mutex<Arc<Registry>>,
    slo: Mutex<FleetSlo>,
    tsdb: Arc<Tsdb>,
    epoch: Instant,
    targets: Vec<SocketAddr>,
    timeout: Duration,
    sweeps: AtomicU64,
    scrape_errors: AtomicU64,
    targets_up: AtomicU64,
    clock_ns: AtomicU64,
}

impl Shared {
    /// One sweep: scrape, merge, stamp fleet self-metrics, feed the
    /// SLO accountant, publish.
    fn sweep(&self) {
        let sweep = scrape_fleet(&self.targets, self.timeout);
        let now_ns = self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.scrape_errors
            .fetch_add(sweep.errors as u64, Ordering::Relaxed);
        self.targets_up.store(sweep.up as u64, Ordering::Relaxed);
        self.clock_ns.store(now_ns, Ordering::Relaxed);
        // The aggregator's own accounting rides in the same registry,
        // so one scrape of the aggregator tells the whole story.
        sweep
            .registry
            .counter(fleet_metric::SCRAPES)
            .add(self.sweeps.load(Ordering::Relaxed));
        sweep
            .registry
            .counter(fleet_metric::SCRAPE_ERRORS)
            .add(self.scrape_errors.load(Ordering::Relaxed));
        sweep
            .registry
            .gauge(fleet_metric::TARGETS_UP)
            .set(sweep.up as f64);
        {
            let mut slo = self.slo.lock().expect("fleet slo lock");
            slo.observe_at(now_ns, &sweep.registry);
            // The fleet SLO engine reports into the process-global
            // recorder; restating its verdicts in the sweep registry
            // makes the merged view (and therefore the history below)
            // self-contained.
            sweep
                .registry
                .gauge(slo_metric::PAGES_FIRING)
                .set(slo.pages_firing() as f64);
            sweep
                .registry
                .gauge(slo_metric::WARNS_FIRING)
                .set(slo.warns_firing() as f64);
        }
        // Append the sweep to the fleet history. The axis is wall time
        // since the aggregator started; max() keeps it strictly
        // monotone even if two sweeps land in the same microsecond.
        let now_us = (now_ns / 1_000).max(self.tsdb.last_ingest_us() + 1);
        self.tsdb.ingest_registry(&sweep.registry, now_us);
        *self.registry.lock().expect("fleet registry lock") = sweep.registry;
    }

    fn status_json(&self) -> Json {
        let now_ns = self.clock_ns.load(Ordering::Relaxed);
        self.slo.lock().expect("fleet slo lock").status(now_ns)
    }
}

/// The running aggregator: a sweep thread plus a scrape server over
/// the merged view.
#[derive(Debug)]
pub struct Aggregator {
    shared: Arc<Shared>,
    server: ScrapeServer,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
}

impl Aggregator {
    /// Starts sweeping `config.targets` every `config.interval` and
    /// serving the merged view on `config.listen`.
    ///
    /// # Errors
    ///
    /// Propagates socket-setup failures from the scrape server.
    pub fn start(config: FleetConfig) -> std::io::Result<Aggregator> {
        let tsdb = Arc::new(Tsdb::new(config.tsdb));
        for (name, expr) in fleet_recording_rules() {
            tsdb.add_rule(RecordingRule {
                name: name.to_string(),
                expr: expr.to_string(),
            })
            .expect("fleet recording rules parse");
        }
        let shared = Arc::new(Shared {
            registry: Mutex::new(Arc::new(Registry::new())),
            slo: Mutex::new(FleetSlo::new(config.objectives.clone())),
            tsdb,
            epoch: Instant::now(),
            targets: config.targets.clone(),
            timeout: config.timeout,
            sweeps: AtomicU64::new(0),
            scrape_errors: AtomicU64::new(0),
            targets_up: AtomicU64::new(0),
            clock_ns: AtomicU64::new(0),
        });
        let server = ScrapeServer::with_routes(&config.listen, routes(&shared))?;
        let stop = Arc::new(AtomicBool::new(false));
        let worker = std::thread::Builder::new()
            .name("vlsa-aggregate".to_string())
            .spawn({
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                let interval = config.interval;
                move || {
                    while !stop.load(Ordering::Relaxed) {
                        shared.sweep();
                        // Sleep in short slices so shutdown is prompt.
                        let deadline = Instant::now() + interval;
                        while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    }
                }
            })
            .expect("spawn aggregator sweep thread");
        Ok(Aggregator {
            shared,
            server,
            stop,
            worker: Some(worker),
        })
    }

    /// The aggregator's scrape address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Runs one sweep immediately (tests and scripted benches).
    pub fn sweep_once(&self) {
        self.shared.sweep();
    }

    /// The latest merged fleet registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry.lock().expect("fleet registry lock"))
    }

    /// The embedded fleet-history store (one ingest tick per sweep).
    pub fn tsdb(&self) -> &Arc<Tsdb> {
        &self.shared.tsdb
    }

    /// Fleet SLO pages currently firing.
    pub fn pages_firing(&self) -> usize {
        self.shared
            .slo
            .lock()
            .expect("fleet slo lock")
            .pages_firing()
    }

    /// Sweeps completed.
    pub fn sweeps(&self) -> u64 {
        self.shared.sweeps.load(Ordering::Relaxed)
    }

    /// Stops the sweep thread and the scrape server. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        self.server.shutdown();
    }
}

impl Drop for Aggregator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The recording rules every aggregator registers: fleet throughput
/// and shed rates, the worst shard's tail across the whole fleet, and
/// whether any fleet SLO page fired — windows sized for the default
/// 500 ms sweep cadence on a wall-clock axis.
fn fleet_recording_rules() -> &'static [(&'static str, &'static str)] {
    &[
        (recorded::OPS_PER_SEC, "rate(vlsa.server.ops[10s])"),
        (recorded::SHED_PER_SEC, "rate(vlsa.server.shed[10s])"),
        (
            recorded::P999_US,
            "quantile(0.999, vlsa.server.request_latency_us[30s])",
        ),
        (
            recorded::PAGES_FIRING,
            "max_over_time(vlsa.slo.pages_firing[30s])",
        ),
    ]
}

fn routes(shared: &Arc<Shared>) -> Vec<Route> {
    let mut routes = Vec::new();
    {
        let shared = Arc::clone(shared);
        routes.push(Route::exact(
            "/metrics",
            Arc::new(move |_path: &str, _query: &str| {
                let registry = Arc::clone(&shared.registry.lock().expect("fleet registry lock"));
                HttpResponse {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8".to_string(),
                    body: exposition(&registry),
                }
            }),
        ));
    }
    {
        let shared = Arc::clone(shared);
        routes.push(Route::exact(
            "/snapshot",
            Arc::new(move |_path: &str, _query: &str| {
                let registry = Arc::clone(&shared.registry.lock().expect("fleet registry lock"));
                let doc = Json::obj()
                    .set(
                        "fleet",
                        Json::obj()
                            .set("targets", shared.targets.len() as u64)
                            .set("targets_up", shared.targets_up.load(Ordering::Relaxed))
                            .set("sweeps", shared.sweeps.load(Ordering::Relaxed))
                            .set(
                                "scrape_errors",
                                shared.scrape_errors.load(Ordering::Relaxed),
                            ),
                    )
                    .set("metrics", registry.snapshot());
                HttpResponse::ok_json(doc.to_string())
            }),
        ));
    }
    {
        let shared = Arc::clone(shared);
        routes.push(Route::exact(
            "/slo",
            Arc::new(move |_path: &str, _query: &str| {
                HttpResponse::ok_json(shared.status_json().to_string())
            }),
        ));
    }
    {
        let shared = Arc::clone(shared);
        routes.push(Route::exact(
            "/query",
            Arc::new(move |_path: &str, query: &str| answer_query(&shared.tsdb, query)),
        ));
    }
    {
        let shared = Arc::clone(shared);
        routes.push(Route::exact(
            "/series",
            Arc::new(move |_path: &str, _query: &str| {
                HttpResponse::ok_json(shared.tsdb.stats_json().to_string())
            }),
        ));
    }
    routes.push(Route::exact(
        "/healthz",
        Arc::new(|_path: &str, _query: &str| {
            HttpResponse::ok_json(Json::obj().set("ok", true).to_string())
        }),
    ));
    {
        let shared = Arc::clone(shared);
        routes.push(Route::exact(
            "/readyz",
            Arc::new(move |_path: &str, _query: &str| {
                let up = shared.targets_up.load(Ordering::Relaxed);
                let total = shared.targets.len() as u64;
                let pages = shared.slo.lock().expect("fleet slo lock").pages_firing() as u64;
                let swept = shared.sweeps.load(Ordering::Relaxed) > 0;
                let ready = swept && up == total && pages == 0;
                let body = Json::obj()
                    .set("ready", ready)
                    .set("targets", total)
                    .set("targets_up", up)
                    .set("slo_pages_firing", pages)
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

#[cfg(test)]
mod tests {
    use super::*;
    use vlsa_telemetry::DEFAULT_BUCKETS;

    /// A synthetic per-process registry snapshot with the counters and
    /// histograms the fleet SLO feed reads.
    fn process_snapshot(requests: u64, shed: u64, latencies: &[u64]) -> Json {
        let r = Registry::new();
        r.counter(server::REQUESTS).add(requests);
        r.counter(server::SHED).add(shed);
        r.counter(server::OPS).add(requests * 4);
        let h = r.histogram(
            &vlsa_telemetry::names::labeled(server::REQUEST_LATENCY_US, "shard", 0),
            DEFAULT_BUCKETS,
        );
        for &v in latencies {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn merged_latency_pools_every_shard_histogram() {
        let fleet = Registry::new();
        fleet
            .merge_snapshot(&process_snapshot(10, 0, &[100, 200, 300]))
            .expect("merge");
        fleet
            .merge_snapshot(&process_snapshot(20, 0, &[400, 500]))
            .expect("merge");
        let merged = merged_latency(&fleet).expect("histograms present");
        assert_eq!(merged.count(), 5);
        assert_eq!(fleet.counter_value(server::REQUESTS), 30);
    }

    #[test]
    fn build_info_labels_survive_fleet_aggregation() {
        use vlsa_telemetry::names::labeled_multi;

        // Two member processes serving different speculation windows.
        // Their `build_info` gauges differ only in the `window` label,
        // so the merge must keep them as distinct series: an operator
        // at the fleet view can tell which members run which window.
        let member = |window: &str| {
            let r = Registry::new();
            r.gauge(&labeled_multi(
                server::BUILD_INFO,
                &[("version", "0.1.0"), ("window", window)],
            ))
            .set(1.0);
            r.snapshot()
        };
        let fleet = Registry::new();
        fleet.merge_snapshot(&member("16")).expect("merge");
        fleet.merge_snapshot(&member("24")).expect("merge");

        let mut windows: Vec<String> = fleet
            .gauges()
            .into_iter()
            .filter(|(name, _)| split_labels(name).0 == server::BUILD_INFO)
            .filter_map(|(name, g)| {
                assert_eq!(g.get(), 1.0, "{name}: build_info is a constant 1");
                split_labels(&name)
                    .1
                    .iter()
                    .find(|(k, _)| *k == "window")
                    .map(|(_, v)| (*v).to_string())
            })
            .collect();
        windows.sort();
        assert_eq!(windows, ["16", "24"]);
    }

    #[test]
    fn fleet_slo_pages_on_a_fleet_wide_shed_storm_and_clears() {
        let mut slo = FleetSlo::new(Objectives::demo());
        let sec = 1_000_000_000u64;
        // Healthy fleet for 60 modeled seconds.
        let mut requests = 0u64;
        for tick in 0..60u64 {
            requests += 100;
            let fleet = Registry::new();
            fleet
                .merge_snapshot(&process_snapshot(requests, 0, &[100]))
                .expect("merge");
            slo.observe_at(tick * sec, &fleet);
        }
        assert_eq!(slo.pages_firing(), 0, "{}", slo.status(60 * sec));
        // Total outage: every request shed for 15 seconds.
        let mut shed = 0u64;
        for tick in 60..75u64 {
            shed += 100;
            let fleet = Registry::new();
            fleet
                .merge_snapshot(&process_snapshot(requests, shed, &[100]))
                .expect("merge");
            slo.observe_at(tick * sec, &fleet);
        }
        assert!(
            slo.pages_firing() >= 1,
            "shed storm must page: {}",
            slo.status(75 * sec)
        );
        // Recovery: the storm clears once healthy traffic refills the
        // windows.
        for tick in 75..140u64 {
            requests += 100;
            let fleet = Registry::new();
            fleet
                .merge_snapshot(&process_snapshot(requests, shed, &[100]))
                .expect("merge");
            slo.observe_at(tick * sec, &fleet);
        }
        assert_eq!(
            slo.pages_firing(),
            0,
            "recovered fleet must clear: {}",
            slo.status(140 * sec)
        );
    }

    #[test]
    fn fleet_sweeps_build_queryable_history() {
        use vlsa_tsdb::{eval_range, Expr};

        // A synthetic member process whose request counter advances by
        // 100 on every scrape.
        let scrapes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&scrapes);
        let target = ScrapeServer::with_routes(
            "127.0.0.1:0",
            vec![Route::exact(
                "/snapshot",
                Arc::new(move |_path: &str, _query: &str| {
                    let n = counter.fetch_add(1, Ordering::Relaxed) + 1;
                    let body = Json::obj()
                        .set("metrics", process_snapshot(n * 100, 0, &[100, 200]))
                        .to_string();
                    HttpResponse::ok_json(body)
                }),
            )],
        )
        .expect("target scrape server");

        let mut agg = Aggregator::start(FleetConfig {
            targets: vec![target.addr()],
            // The worker sweeps once at start; every further sweep is
            // driven explicitly so the history is deterministic.
            interval: Duration::from_secs(3600),
            ..FleetConfig::default()
        })
        .expect("aggregator");
        for _ in 0..500 {
            if agg.tsdb().ingest_ticks() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(agg.tsdb().ingest_ticks() >= 1, "first sweep never ingested");
        for _ in 0..5 {
            agg.sweep_once();
        }

        // Six scrapes saw requests = 100..=600; the increase over the
        // whole run is therefore exactly 500.
        let db = agg.tsdb();
        let end = db.last_ingest_us();
        let expr = Expr::parse("increase(vlsa.server.requests[1h])").expect("expr");
        let results = eval_range(db, &expr, end, end, 1).expect("eval");
        assert_eq!(results.len(), 1);
        let got = results[0].points.last().expect("a final point").1;
        assert_eq!(got, 500.0, "fleet history diverged from scrape accounting");

        // The same answer is served over HTTP, like an operator would
        // ask for it.
        let (status, body) = http_get(
            agg.addr(),
            "/query?expr=increase(vlsa.server.requests%5B1h%5D)",
            Duration::from_secs(2),
        )
        .expect("query aggregator");
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).expect("valid /query JSON");
        let results = doc.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 1, "{body}");
        let (status, body) =
            http_get(agg.addr(), "/series", Duration::from_secs(2)).expect("series stats");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("valid /series JSON");
        let series = doc
            .get("total")
            .and_then(|t| t.get("series"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(series > 0, "{body}");

        // Recording rules materialized fleet throughput and the SLO
        // verdict as first-class series.
        let names = db.series_names();
        assert!(
            names.iter().any(|n| n == recorded::OPS_PER_SEC),
            "missing recorded fleet throughput in {names:?}"
        );
        assert!(
            names
                .iter()
                .any(|n| n.starts_with(slo_metric::PAGES_FIRING)),
            "fleet SLO verdict not ingested in {names:?}"
        );
        agg.shutdown();
    }

    #[test]
    fn a_down_target_clamps_deltas_instead_of_going_negative() {
        let mut slo = FleetSlo::new(Objectives::demo());
        let sec = 1_000_000_000u64;
        // Two processes up.
        let fleet = Registry::new();
        fleet
            .merge_snapshot(&process_snapshot(1000, 0, &[100]))
            .expect("merge");
        fleet
            .merge_snapshot(&process_snapshot(1000, 0, &[100]))
            .expect("merge");
        slo.observe_at(0, &fleet);
        // One vanishes: sums halve. No negative deltas, no page.
        for tick in 1..30u64 {
            let fleet = Registry::new();
            fleet
                .merge_snapshot(&process_snapshot(1000 + tick, 0, &[100]))
                .expect("merge");
            slo.observe_at(tick * sec, &fleet);
        }
        assert_eq!(slo.pages_firing(), 0);
        assert_eq!(slo.warns_firing(), 0);
    }
}
