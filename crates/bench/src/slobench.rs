//! The committed `BENCH_slo.json`: a real multi-process fleet under
//! SLO observation.
//!
//! The bench spawns two `serve` subprocesses (separate OS processes,
//! so each has its own telemetry registry — the only honest way to
//! exercise fleet merging), points an in-process [`Aggregator`] at
//! their scrape endpoints, and drives four load phases:
//!
//! 1. **nominal** — paced traffic well inside capacity; the fleet must
//!    not page.
//! 2. **drift** — the adversarial operand mix; stall and recovery
//!    pressure rises while availability holds.
//! 3. **overload** — an unpaced flood into tiny admission queues;
//!    sheds burn the availability budget and the demo fast-burn rule
//!    must page.
//! 4. **recovery** — paced traffic again for longer than the demo
//!    long window; the page must clear.
//!
//! A sampler thread records the fleet burn trajectory (pages/warns
//! over time, tagged with the phase) through the aggregator's `/slo`
//! route — the same surface an operator would watch. At the end the
//! bench scrapes every process directly, pools the per-process latency
//! histograms itself, and demands the aggregator's merged fleet
//! histogram match that ground truth bucket-for-bucket.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vlsa_monitor::http_get;
use vlsa_slo::Objectives;
use vlsa_telemetry::{Histogram, Json};

use crate::fleet::{merged_latency, scrape_fleet, Aggregator, FleetConfig};
use crate::report::Report;
use crate::serverbench::{run_load, LoadConfig, Mix};

/// How long each spawned server keeps running before self-terminating
/// (a backstop — the bench kills them as soon as it is done).
const SERVE_SECS: u64 = 300;

/// Scrape timeout for direct target scrapes.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// One spawned `serve` subprocess. Killed on drop so a panicking bench
/// never leaves servers behind.
struct FleetProcess {
    child: Child,
    addr: SocketAddr,
    metrics: SocketAddr,
}

impl Drop for FleetProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `serve` binary next to the currently running one (both are
/// `vlsa-bench` bin targets, so cargo puts them in the same directory).
fn serve_bin() -> io::Result<PathBuf> {
    let me = std::env::current_exe()?;
    let dir = me
        .parent()
        .ok_or_else(|| io::Error::other("current_exe has no parent directory"))?;
    let serve = dir.join("serve");
    if serve.exists() {
        Ok(serve)
    } else {
        Err(io::Error::other(format!(
            "serve binary not found at {} — build it first: \
             cargo build --release -p vlsa-bench --bin serve",
            serve.display()
        )))
    }
}

/// Polls `path` until a socket address appears in it.
fn await_addr_file(path: &std::path::Path, deadline: Instant) -> io::Result<SocketAddr> {
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return Ok(addr);
            }
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(format!(
                "timed out waiting for address file {}",
                path.display()
            )));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Spawns one fleet member: a `serve` subprocess with the demo SLO,
/// wide events, and a deliberately small admission queue (so the
/// overload phase sheds hard).
fn spawn_server(index: usize) -> io::Result<FleetProcess> {
    let tag = format!("vlsa-slobench-{}-{index}", std::process::id());
    let addr_file = std::env::temp_dir().join(format!("{tag}.addr"));
    let metrics_file = std::env::temp_dir().join(format!("{tag}.metrics"));
    let _ = std::fs::remove_file(&addr_file);
    let _ = std::fs::remove_file(&metrics_file);
    let child = Command::new(serve_bin()?)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--shards")
        .arg("2")
        .arg("--queue-capacity")
        .arg("8")
        .arg("--serve-secs")
        .arg(SERVE_SECS.to_string())
        .arg("--metrics")
        .arg("--slo")
        .arg("demo")
        .arg("--events")
        .arg("--addr-file")
        .arg(&addr_file)
        .arg("--metrics-addr-file")
        .arg(&metrics_file)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = await_addr_file(&addr_file, deadline);
    let metrics = addr
        .as_ref()
        .ok()
        .map(|_| await_addr_file(&metrics_file, deadline));
    let _ = std::fs::remove_file(&addr_file);
    let _ = std::fs::remove_file(&metrics_file);
    match (addr, metrics) {
        (Ok(addr), Some(Ok(metrics))) => Ok(FleetProcess {
            child,
            addr,
            metrics,
        }),
        (Err(e), _) | (_, Some(Err(e))) => Err(e),
        (_, None) => unreachable!("metrics poll runs whenever addr resolved"),
    }
}

/// Burn-trajectory sampler: polls the aggregator's `/slo` route on a
/// fixed cadence and records `(elapsed, phase, pages, warns)` rows.
struct Sampler {
    rows: Arc<Mutex<Vec<Json>>>,
    phase: Arc<Mutex<String>>,
    stop: Arc<AtomicBool>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    fn start(aggregator_addr: SocketAddr, epoch: Instant) -> Sampler {
        let rows: Arc<Mutex<Vec<Json>>> = Arc::new(Mutex::new(Vec::new()));
        let phase = Arc::new(Mutex::new("startup".to_string()));
        let stop = Arc::new(AtomicBool::new(false));
        let worker = std::thread::Builder::new()
            .name("vlsa-slobench-sampler".to_string())
            .spawn({
                let rows = Arc::clone(&rows);
                let phase = Arc::clone(&phase);
                let stop = Arc::clone(&stop);
                move || {
                    while !stop.load(Ordering::Relaxed) {
                        if let Ok((200, body)) = http_get(aggregator_addr, "/slo", SCRAPE_TIMEOUT) {
                            if let Ok(doc) = Json::parse(&body) {
                                let get = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
                                let row = Json::obj()
                                    .set("t_ms", epoch.elapsed().as_millis() as u64)
                                    .set("phase", phase.lock().expect("phase lock").clone())
                                    .set("pages_firing", get("pages_firing"))
                                    .set("warns_firing", get("warns_firing"));
                                rows.lock().expect("rows lock").push(row);
                            }
                        }
                        std::thread::sleep(Duration::from_millis(250));
                    }
                }
            })
            .expect("spawn sampler");
        Sampler {
            rows,
            phase,
            stop,
            worker: Some(worker),
        }
    }

    fn set_phase(&self, name: &str) {
        *self.phase.lock().expect("phase lock") = name.to_string();
    }

    fn finish(mut self) -> Vec<Json> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        Arc::try_unwrap(self.rows)
            .map(|m| m.into_inner().expect("rows lock"))
            .unwrap_or_default()
    }
}

/// Drives every fleet member with the same load shape concurrently and
/// returns the per-process results (indexed like `targets`).
fn drive_fleet(
    targets: &[SocketAddr],
    config: &LoadConfig,
) -> io::Result<Vec<crate::serverbench::LoadResult>> {
    let handles: Vec<_> = targets
        .iter()
        .map(|&addr| {
            let config = config.clone();
            std::thread::spawn(move || run_load(addr, &config))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("load thread panicked"))
        .collect()
}

/// The current fleet page count, straight from the aggregator.
fn fleet_pages(aggregator: &Aggregator) -> u64 {
    aggregator.sweep_once();
    aggregator.pages_firing() as u64
}

/// Latency quantiles as a JSON row fragment.
fn quantile_row(label: &str, h: &Histogram) -> Json {
    let q = |p: f64| h.quantile(p).unwrap_or(0.0);
    Json::obj()
        .set("process", label)
        .set("count", h.count())
        .set("p50_us", q(0.50))
        .set("p99_us", q(0.99))
        .set("p999_us", q(0.999))
}

/// Runs the fleet SLO bench and builds the `BENCH_slo.json` report.
///
/// The report's `checks` object records the three gate outcomes
/// (`nominal_clean`, `overload_paged` + `recovered`, and
/// `fleet_matches_ground_truth`); callers fail the run when any is
/// false.
///
/// # Errors
///
/// Propagates subprocess-spawn, handshake, and load-transport
/// failures.
pub fn run_slo_bench() -> io::Result<Report> {
    let epoch = Instant::now();
    println!("spawning a 2-process fleet (demo SLO, queue capacity 8)...");
    let fleet: Vec<FleetProcess> = (0..2).map(spawn_server).collect::<io::Result<_>>()?;
    let wire_addrs: Vec<SocketAddr> = fleet.iter().map(|p| p.addr).collect();
    let scrape_addrs: Vec<SocketAddr> = fleet.iter().map(|p| p.metrics).collect();

    let mut aggregator = Aggregator::start(FleetConfig {
        targets: scrape_addrs.clone(),
        interval: Duration::from_millis(250),
        timeout: SCRAPE_TIMEOUT,
        objectives: Objectives::demo(),
        ..FleetConfig::default()
    })?;
    println!(
        "aggregating {} targets at http://{}/metrics",
        scrape_addrs.len(),
        aggregator.addr()
    );
    let sampler = Sampler::start(aggregator.addr(), epoch);

    // Phase 1: nominal. Paced far below capacity; nothing may page.
    sampler.set_phase("nominal");
    let nominal = LoadConfig {
        connections: 4,
        requests_per_conn: 180,
        ops_per_request: 64,
        mix: Mix::Mixed,
        target_ops_per_sec: 10_000,
        trace_every: 0,
        ..LoadConfig::default()
    };
    drive_fleet(&wire_addrs, &nominal)?;
    std::thread::sleep(Duration::from_millis(600));
    let nominal_pages = fleet_pages(&aggregator);
    println!("nominal: fleet pages firing = {nominal_pages}");

    // Phase 2: drift. The adversarial mix maximizes carry runs, so
    // stall/recovery pressure rises while admission still holds.
    sampler.set_phase("drift");
    let drift = LoadConfig {
        mix: Mix::Adversarial,
        requests_per_conn: 120,
        ..nominal.clone()
    };
    let drift_results = drive_fleet(&wire_addrs, &drift)?;
    let drift_stalls: u64 = drift_results.iter().map(|r| r.stalls).sum();
    println!("drift: {drift_stalls} stalled ops across the fleet");

    // Phase 3: overload. Unpaced flood into 8-deep queues.
    sampler.set_phase("overload");
    let overload = LoadConfig {
        connections: 32,
        requests_per_conn: 120,
        ops_per_request: 256,
        mix: Mix::Mixed,
        target_ops_per_sec: 0,
        ..LoadConfig::default()
    };
    let overload_results = drive_fleet(&wire_addrs, &overload)?;
    let shed: u64 = overload_results.iter().map(|r| r.shed).sum();
    std::thread::sleep(Duration::from_millis(600));
    let overload_pages = fleet_pages(&aggregator);
    println!("overload: {shed} requests shed, fleet pages firing = {overload_pages}");

    // Phase 4: recovery. Healthy paced traffic for longer than the
    // demo slow window (40 s of budget history, 10 s fast window) so
    // the storm ages out and the page clears.
    sampler.set_phase("recovery");
    let recovery = LoadConfig {
        requests_per_conn: 430,
        ..nominal.clone()
    };
    drive_fleet(&wire_addrs, &recovery)?;
    let mut recovery_pages = fleet_pages(&aggregator);
    let clear_deadline = Instant::now() + Duration::from_secs(60);
    while recovery_pages > 0 && Instant::now() < clear_deadline {
        std::thread::sleep(Duration::from_millis(500));
        recovery_pages = fleet_pages(&aggregator);
    }
    println!("recovery: fleet pages firing = {recovery_pages}");

    // Ground truth: scrape every process directly and pool the latency
    // histograms by hand; the aggregator's merged view must agree
    // bucket-for-bucket.
    std::thread::sleep(Duration::from_millis(300));
    aggregator.sweep_once();
    let fleet_registry = aggregator.registry();
    let fleet_latency = merged_latency(&fleet_registry)
        .ok_or_else(|| io::Error::other("fleet registry has no latency histograms"))?;
    let pooled_sweep = scrape_fleet(&scrape_addrs, SCRAPE_TIMEOUT);
    let pooled_latency = merged_latency(&pooled_sweep.registry)
        .ok_or_else(|| io::Error::other("pooled scrape has no latency histograms"))?;
    let buckets_match = fleet_latency.buckets() == pooled_latency.buckets()
        && fleet_latency.overflow() == pooled_latency.overflow();

    let mut quantiles = Vec::new();
    for (i, &addr) in scrape_addrs.iter().enumerate() {
        let one = scrape_fleet(&[addr], SCRAPE_TIMEOUT);
        if let Some(h) = merged_latency(&one.registry) {
            quantiles.push(quantile_row(&format!("process-{i}"), &h));
        }
    }
    quantiles.push(quantile_row("fleet", &fleet_latency));
    quantiles.push(quantile_row("ground_truth", &pooled_latency));

    let trajectory = sampler.finish();
    aggregator.shutdown();
    let processes = fleet.len() as u64;
    drop(fleet);

    let checks = Json::obj()
        .set("nominal_clean", nominal_pages == 0)
        .set("overload_shed", shed)
        .set("overload_paged", overload_pages >= 1)
        .set("recovered", recovery_pages == 0)
        .set("fleet_matches_ground_truth", buckets_match);
    println!("checks: {checks}");

    let mut report = Report::new("slo_fleet");
    report
        .set("processes", processes)
        .set("shards_per_process", 2u64)
        .set("queue_capacity", 8u64)
        .set("objectives", "demo")
        .set("aggregator_interval_ms", 250u64)
        .set("checks", checks)
        .set("quantiles", Json::Arr(quantiles))
        .set("drift_stalls", drift_stalls);
    for row in trajectory {
        report.push_row(row);
    }
    Ok(report)
}

/// True when every gate in a `run_slo_bench` report passed.
pub fn checks_pass(report: &Report) -> bool {
    let doc = report.to_json();
    let check = |k: &str| {
        matches!(
            doc.get("checks").and_then(|c| c.get(k)),
            Some(&Json::Bool(true))
        )
    };
    check("nominal_clean")
        && check("overload_paged")
        && check("recovered")
        && check("fleet_matches_ground_truth")
}
