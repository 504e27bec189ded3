//! The `serve-small` and `serve-bulk` workloads: the addition service
//! in-process, driven over its wire protocol from two client threads.
//!
//! Each run has three phases over one seeded pool of requests: an open
//! loop at rate `lo`, an open loop at rate `hi`, and a closed loop of
//! two connections sending back to back in whole passes over the pool.
//! Open-loop latency runs from each request's *due* time, so a stall
//! also charges the requests it delays. Every reply is checked against
//! the benchmark's own oracle (exact sum, `ER` predicate).

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use vlsa_core::SpeculativeAdder;
use vlsa_pipeline::{ResilienceConfig, ResilientPipeline};
use vlsa_server::protocol::FLAG_STALLED;
use vlsa_server::{
    read_frame, write_frame, AddBatch, Frame, OpResult, Response, ServerConfig, ServerTiming,
    ShardConfig, ShardSnapshot, SumBatch, TraceContext, VlsaClient, VlsaServer,
};

use crate::gen::{self, Mix, SplitMix};
use crate::measure::{self, DueLog, Outcome};
use crate::reproduce;
use crate::{Args, Workload};

/// Adder width every request uses.
const NBITS: u8 = 64;
/// Shards in the server (this host's core count when chosen).
const SHARDS: usize = 2;
/// Client connections, one thread each.
const CONNECTIONS: usize = 2;
/// Closed-loop warm-up before anything is measured.
const WARMUP: Duration = Duration::from_millis(500);

/// What distinguishes the two serve workloads.
struct Spec {
    ops_per_request: usize,
    mix: Mix,
    /// Requests in the seeded pool (even, so request parity picks the
    /// connection and the shard alike).
    pool_requests: usize,
    /// Open-loop rates, requests per second: about ¼ and ½ of the
    /// closed-loop rate on a 2-core host when the benchmark was defined
    /// (for `serve-bulk`, of the low end of a rate that drifted). At ¾
    /// the open loop overran that host's slow periods and its backlog
    /// grew without bound.
    lo_rps: f64,
    hi_rps: f64,
    /// Shares of `--seconds` for the `lo` and `hi` phases; the closed
    /// loop gets the rest.
    lo_share: f64,
    hi_share: f64,
}

fn spec(workload: Workload) -> Spec {
    match workload {
        Workload::ServeSmall => Spec {
            ops_per_request: 4,
            mix: Mix::Uniform,
            pool_requests: 1024,
            lo_rps: 740.0,
            hi_rps: 1480.0,
            lo_share: 0.3,
            hi_share: 0.2,
        },
        Workload::ServeBulk => Spec {
            ops_per_request: 2048,
            mix: Mix::Mixed,
            pool_requests: 64,
            lo_rps: 60.0,
            hi_rps: 120.0,
            lo_share: 0.55,
            hi_share: 0.3,
        },
        Workload::Reproduce => unreachable!("not a serve workload"),
    }
}

/// The server configuration: defaults, except for the four fields a
/// benchmark of host cost has to pin.
fn server_config() -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        shards: SHARDS,
        shard: ShardConfig {
            nbits: usize::from(NBITS),
            window: ShardConfig::default().window,
            cycle_ns: 0,
            ..defaults.shard
        },
        ..defaults
    }
}

/// One pooled request with the answer the oracle expects.
struct Req {
    ops: Vec<(u64, u64)>,
    expected: Vec<OpResult>,
    stalls: u64,
}

fn make_pool(spec: &Spec, seed: u64, window: u32) -> Vec<Req> {
    let mut rng = SplitMix::new(seed, 1);
    (0..spec.pool_requests)
        .map(|_| {
            let ops = gen::operands(spec.mix, spec.ops_per_request, window, &mut rng);
            let expected: Vec<OpResult> = ops
                .iter()
                .map(|&(a, b)| {
                    let (sum, stalled) = gen::expect(a, b, window);
                    OpResult {
                        sum,
                        flags: if stalled { FLAG_STALLED } else { 0 },
                    }
                })
                .collect();
            let stalls = expected.iter().filter(|r| r.stalled()).count() as u64;
            Req {
                ops,
                expected,
                stalls,
            }
        })
        .collect()
}

/// Whether a reply carries the expected sums and stall verdicts.
fn reply_matches(req: &Req, id: u64, sums: &SumBatch) -> bool {
    sums.request_id == id
        && sums.results.len() == req.expected.len()
        && sums
            .results
            .iter()
            .zip(&req.expected)
            .all(|(got, want)| got.sum == want.sum && got.stalled() == want.stalled())
}

/// Request outcomes as the client saw them; `errors` counts
/// `Retryable` replies and transport failures.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    attempted: u64,
    answered: u64,
    shed: u64,
    deadline: u64,
    errors: u64,
    /// Failed oracle checks: answered requests whose reply was wrong,
    /// plus a failed replay or server-count check.
    wrong: u64,
    ops: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.answered += o.answered;
        self.shed += o.shed;
        self.deadline += o.deadline;
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.ops += o.ops;
    }

    fn failed(&self) -> u64 {
        self.shed + self.deadline + self.errors + self.wrong
    }

    /// Whether the server's own counters over the same requests agree
    /// with the client's: every request the server executed, shed,
    /// expired or declined is one the client counted as answered, shed,
    /// deadline-exceeded or an error, op for op, so `attempted ==
    /// answered + shed + deadline + errors` holds with the server's
    /// figures on the right. A server that dropped, re-ran or wrongly
    /// shed a request fails this.
    fn agrees_with(&self, server: &ShardSnapshot) -> bool {
        server.requests == self.answered
            && server.ops == self.ops
            && server.shed == self.shed
            && server.deadline_exceeded == self.deadline
            && self.attempted
                == server.requests + server.shed + server.deadline_exceeded + self.errors
            && server.retryable <= self.errors
    }
}

/// Server-echoed phase times of traced requests, summed.
#[derive(Clone, Copy, Debug, Default)]
struct Layers {
    requests: u64,
    ops: u64,
    queue_us: u64,
    linger_us: u64,
    service_us: u64,
    pace_us: u64,
    wire_ns: i128,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.requests += o.requests;
        self.ops += o.ops;
        self.queue_us += o.queue_us;
        self.linger_us += o.linger_us;
        self.service_us += o.service_us;
        self.pace_us += o.pace_us;
        self.wire_ns += o.wire_ns;
    }

    fn record(&mut self, t: &ServerTiming, rtt: Duration, ops: u64) {
        self.requests += 1;
        self.ops += ops;
        self.queue_us += u64::from(t.queue_us);
        self.linger_us += u64::from(t.linger_us);
        self.service_us += u64::from(t.service_us);
        self.pace_us += u64::from(t.pace_us);
        self.wire_ns += rtt.as_nanos() as i128 - i128::from(t.total_us()) * 1000;
    }

    fn per_request_us(&self, total_us: f64) -> f64 {
        total_us / self.requests.max(1) as f64
    }
}

/// What one phase (or one client thread of it) saw.
#[derive(Debug, Default)]
struct PhaseLog {
    due: DueLog,
    tally: Tally,
    layers: Layers,
}

impl PhaseLog {
    fn merge(&mut self, other: PhaseLog) {
        self.due.merge(other.due);
        self.tally.add(&other.tally);
        self.layers.add(&other.layers);
    }
}

/// One client connection; reconnects after a transport failure.
struct Conn {
    client: VlsaClient,
    addr: SocketAddr,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let client = VlsaClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn { client, addr })
    }

    /// Sends pooled request `req` under id `id`, checks the reply, and
    /// returns when it was sent and answered.
    fn exchange(
        &mut self,
        req: &Req,
        id: u64,
        traced: bool,
        log: &mut PhaseLog,
    ) -> (Instant, Instant) {
        let trace = traced.then(|| TraceContext::sampled(id + 1));
        let sent = Instant::now();
        let response = self.client.request_traced(id, NBITS, &req.ops, trace);
        let done = Instant::now();
        let tally = &mut log.tally;
        tally.attempted += 1;
        match response {
            Ok(Response::Sums(sums)) => {
                tally.answered += 1;
                tally.ops += req.ops.len() as u64;
                let mut ok = reply_matches(req, id, &sums);
                if traced {
                    match &sums.timing {
                        Some(t) if t.trace_id == id + 1 => {
                            log.layers.record(t, done - sent, req.ops.len() as u64)
                        }
                        _ => ok = false,
                    }
                }
                if !ok {
                    tally.wrong += 1;
                }
            }
            Ok(Response::Busy(_)) => tally.shed += 1,
            Ok(Response::DeadlineExceeded(_)) => tally.deadline += 1,
            Ok(Response::Retryable(_)) => tally.errors += 1,
            Err(_) => {
                tally.errors += 1;
                if let Ok(client) = VlsaClient::connect(self.addr) {
                    self.client = client;
                }
            }
        }
        (sent, done)
    }
}

/// Open loop: request `j` of `count` is due at `j / rate` seconds and
/// goes out on connection `j % 2` as soon as that connection is free.
fn open_loop(
    conns: &mut [Conn],
    pool: &[Req],
    first: u64,
    rate: f64,
    count: u64,
    traced: bool,
) -> PhaseLog {
    let start = Instant::now() + Duration::from_millis(2);
    let logs: Vec<PhaseLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut log = PhaseLog::default();
                    for j in (c as u64..count).step_by(CONNECTIONS) {
                        let due = start + Duration::from_secs_f64(j as f64 / rate);
                        measure::sleep_until(due);
                        let id = first + j;
                        let req = &pool[(id % pool.len() as u64) as usize];
                        let (sent, done) = conn.exchange(req, id, traced, &mut log);
                        log.due.record(due, sent, done);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    let mut all = PhaseLog::default();
    for log in logs {
        all.merge(log);
    }
    all
}

/// What a closed-loop phase saw: its log, and the wall time and the
/// process's CPU time (client and server together) of each whole pass
/// over the pool.
struct ClosedLog {
    log: PhaseLog,
    passes: Vec<Duration>,
    pass_cpu: Vec<Duration>,
}

impl ClosedLog {
    fn ops_per_s(&self) -> f64 {
        self.log.tally.ops as f64 / self.passes.iter().sum::<Duration>().as_secs_f64()
    }
}

/// Closed loop: both connections send back to back, in whole passes
/// over the pool (connection `c` sends the requests of parity `c`),
/// until `budget` has passed; at least one pass always runs.
fn closed_loop(
    conns: &mut [Conn],
    pool: &[Req],
    first_pass: u64,
    budget: Duration,
    traced: bool,
) -> ClosedLog {
    let deadline = Instant::now() + budget;
    let barrier = Barrier::new(CONNECTIONS);
    let go = AtomicBool::new(true);
    let marks = Mutex::new(Vec::new());
    let r = pool.len() as u64;
    let logs: Vec<PhaseLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (barrier, go, marks) = (&barrier, &go, &marks);
                s.spawn(move || {
                    let mut log = PhaseLog::default();
                    for pass in 0.. {
                        if barrier.wait().is_leader() {
                            let now = Instant::now();
                            let mut marks = marks.lock().expect("marks lock poisoned");
                            marks.push((now, measure::cpu_time()));
                            go.store(marks.len() == 1 || now < deadline, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !go.load(Ordering::SeqCst) {
                            break;
                        }
                        for i in (c as u64..r).step_by(CONNECTIONS) {
                            let id = (first_pass + pass) * r + i;
                            conn.exchange(&pool[i as usize], id, traced, &mut log);
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let mut log = PhaseLog::default();
    for l in logs {
        log.merge(l);
    }
    let marks = marks.into_inner().expect("marks lock poisoned");
    ClosedLog {
        log,
        passes: marks.windows(2).map(|w| w[1].0 - w[0].0).collect(),
        pass_cpu: marks.windows(2).map(|w| w[1].1 - w[0].1).collect(),
    }
}

fn delta(after: ShardSnapshot, before: ShardSnapshot) -> ShardSnapshot {
    let mut d = ShardSnapshot::default();
    accumulate(&mut d, after, before);
    d
}

/// Adds the counters gained between `before` and `after` to `total`.
fn accumulate(total: &mut ShardSnapshot, after: ShardSnapshot, before: ShardSnapshot) {
    total.requests += after.requests - before.requests;
    total.ops += after.ops - before.ops;
    total.stalls += after.stalls - before.stalls;
    total.exact_ops += after.exact_ops - before.exact_ops;
    total.batches += after.batches - before.batches;
    total.shed += after.shed - before.shed;
    total.retryable += after.retryable - before.retryable;
    total.deadline_exceeded += after.deadline_exceeded - before.deadline_exceeded;
    total.restarts += after.restarts - before.restarts;
    total.degraded |= after.degraded;
}

/// A started server, its client connections and the seeded pool.
struct Rig {
    server: VlsaServer,
    conns: Vec<Conn>,
    pool: Vec<Req>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.conns.clear();
        self.server.shutdown();
    }
}

fn set_up(spec: &Spec, seed: u64, window: u32) -> Result<Rig, String> {
    let server = VlsaServer::start(server_config()).map_err(|e| format!("server start: {e:?}"))?;
    let addr = server.addr();
    let pool = make_pool(spec, seed, window);
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Rig {
        server,
        conns,
        pool,
    })
}

/// Hands out request ids so every phase uses fresh ids of the right
/// parity: ids are counted in whole passes over the pool.
struct Ids {
    next_pass: u64,
    pool: u64,
}

impl Ids {
    /// The first id of an open-loop phase of `count` requests.
    fn open(&mut self, count: u64) -> u64 {
        let first = self.next_pass * self.pool;
        self.next_pass += count.div_ceil(self.pool);
        first
    }
}

/// A closed loop on the rig for `budget`, with fresh ids.
fn closed(rig: &mut Rig, ids: &mut Ids, budget: Duration, traced: bool) -> ClosedLog {
    let log = closed_loop(&mut rig.conns, &rig.pool, ids.next_pass, budget, traced);
    ids.next_pass += log.passes.len() as u64;
    log
}

/// Runs a serve workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec(args.workload);
    let window = ShardConfig::default().window as u32;
    println!("server config: {:?}", server_config());
    println!(
        "load: {} connections, {} ops/request, {:?} operands, pool of {} requests, \
         lo={} req/s, hi={} req/s",
        CONNECTIONS, spec.ops_per_request, spec.mix, spec.pool_requests, spec.lo_rps, spec.hi_rps
    );
    let (setup_s, mut rig) = measure::timed_setups(|| set_up(&spec, args.seed, window))?;
    let pool_ops = (spec.pool_requests * spec.ops_per_request) as u64;
    let pool_stalls: u64 = rig.pool.iter().map(|r| r.stalls).sum();
    let mut ids = Ids {
        next_pass: 0,
        pool: spec.pool_requests as u64,
    };
    let mut total = Tally::default();

    let warm = closed(&mut rig, &mut ids, WARMUP, false);
    total.add(&warm.log.tally);

    let seconds = args.seconds as f64;
    let lo_count = ((spec.lo_rps * seconds * spec.lo_share) as u64).max(2) & !1;
    let hi_count = ((spec.hi_rps * seconds * spec.hi_share) as u64).max(2) & !1;
    let closed_budget = Duration::from_secs_f64(seconds * (1.0 - spec.lo_share - spec.hi_share));

    let mut out = Outcome::default();
    if args.trace {
        traced(
            &spec,
            &mut rig,
            &mut ids,
            &mut total,
            (lo_count, hi_count, closed_budget),
            &mut out,
        )?;
    } else {
        let (mut lo, mut hi) = (PhaseLog::default(), PhaseLog::default());
        let mut closed_run = ClosedLog {
            log: PhaseLog::default(),
            passes: Vec::new(),
            pass_cpu: Vec::new(),
        };
        let mut closed_totals = ShardSnapshot::default();
        for _ in 0..measure::ROUNDS {
            for (log, rate, count) in [
                (&mut lo, spec.lo_rps, lo_count),
                (&mut hi, spec.hi_rps, hi_count),
            ] {
                let count = (count / measure::ROUNDS as u64).max(2) & !1;
                let first = ids.open(count);
                log.merge(open_loop(
                    &mut rig.conns,
                    &rig.pool,
                    first,
                    rate,
                    count,
                    false,
                ));
            }
            let before = rig.server.pool().totals();
            let round = closed(
                &mut rig,
                &mut ids,
                closed_budget / measure::ROUNDS as u32,
                false,
            );
            accumulate(&mut closed_totals, rig.server.pool().totals(), before);
            closed_run.log.merge(round.log);
            closed_run.passes.extend(round.passes);
            closed_run.pass_cpu.extend(round.pass_cpu);
        }

        // Modeled statistics: the closed loop ran whole passes, so its
        // pool totals must be exact multiples of one pass over the pool.
        let k = closed_run.passes.len() as u64;
        let modeled_ok = closed_totals.ops == k * pool_ops
            && closed_totals.stalls == k * pool_stalls
            && closed_totals.exact_ops == 0
            && closed_run.log.tally.failed() == 0;
        let cycles_per_op =
            (closed_totals.ops + closed_totals.stalls) as f64 / closed_totals.ops.max(1) as f64;
        out.note(format!(
            "closed loop: {k} passes, pool totals ops={} stalls={} exact_ops={} batches={} \
             (expected {} ops and {} stalls per pass): {}",
            closed_totals.ops,
            closed_totals.stalls,
            closed_totals.exact_ops,
            closed_totals.batches,
            pool_ops,
            pool_stalls,
            if modeled_ok { "exact" } else { "MISMATCH" }
        ));

        let lib = vlsa_techlib::TechLibrary::umc180();
        let row = reproduce::speedup_row(
            &lib,
            usize::from(NBITS),
            window as usize,
            &mut reproduce::Spans::off(),
        )?;
        let speedup = row.speedup();
        let signature = format!(
            "pool_ops={pool_ops} pool_stalls={pool_stalls} cycles_per_op={cycles_per_op:?} \
             aca_speedup={speedup:?}\n"
        );
        let repeat_ok = measure::check_modeled_repeat(args, &signature)?;

        for phase in [&lo.tally, &hi.tally, &closed_run.log.tally] {
            total.add(phase);
        }
        let (lo_lat, hi_lat) = measure::open_loop_latencies(&mut out, lo.due, hi.due)?;
        let pass_cpu_s: Vec<f64> = closed_run
            .pass_cpu
            .iter()
            .map(Duration::as_secs_f64)
            .collect();
        out.note(format!(
            "closed loop wall {:.3} s, CPU {:.3} s",
            closed_run.passes.iter().sum::<Duration>().as_secs_f64(),
            pass_cpu_s.iter().sum::<f64>()
        ));
        out.correct = modeled_ok && repeat_ok;
        out.metric("setup_s", setup_s, "s");
        // What a client sees: answered ops per wall second over every
        // pass. `reproduce_s` is what a pass costs: the mean CPU
        // seconds of one pass, client and server threads together.
        out.metric("ops_per_s", closed_run.ops_per_s(), "1/s");
        out.metric("latency_p50_us.lo", lo_lat.p50_us, "us");
        out.metric("latency_p50_us.hi", hi_lat.p50_us, "us");
        out.metric("modeled_cycles_per_op", cycles_per_op, "cycles/op");
        out.metric("reproduce_s", measure::mean(&pass_cpu_s), "s");
        out.metric("modeled_aca_speedup", speedup, "ratio");
        out.metric("peak_rss_mb", measure::peak_rss_mb()?, "MB");
    }
    // The rig's server was started by the last set-up, so its totals
    // cover exactly the requests of this run.
    let server = rig.server.pool().totals();
    let agrees = total.agrees_with(&server);
    total.wrong += u64::from(!agrees);
    out.correct &= total.wrong == 0;
    out.attempted = total.attempted;
    out.failed = total.failed();
    out.note(format!(
        "requests: attempted={} answered={} shed={} deadline_exceeded={} errors={} wrong={}; \
         server counted requests={} ops={} shed={} deadline_exceeded={} retryable={} ({})",
        total.attempted,
        total.answered,
        total.shed,
        total.deadline,
        total.errors,
        total.wrong,
        server.requests,
        server.ops,
        server.shed,
        server.deadline_exceeded,
        server.retryable,
        if agrees { "agree" } else { "DISAGREE" }
    ));
    Ok(out)
}

/// The traced run: per-layer metrics and the tracing overhead.
fn traced(
    spec: &Spec,
    rig: &mut Rig,
    ids: &mut Ids,
    total: &mut Tally,
    (lo_count, hi_count, closed_budget): (u64, u64, Duration),
    out: &mut Outcome,
) -> Result<(), String> {
    let before = rig.server.pool().totals();
    // Overhead: alternate untraced and traced closed loops.
    let slice = closed_budget / 4;
    let mut plain = Vec::new();
    let mut layers = Layers::default();
    let mut traced_rates = Vec::new();
    for round in 0..4 {
        let on = round % 2 == 1;
        let round = closed(rig, ids, slice, on);
        total.add(&round.log.tally);
        if on {
            traced_rates.push(round.ops_per_s());
            layers.add(&round.log.layers);
        } else {
            plain.push(round.ops_per_s());
        }
    }
    let overhead = plain.iter().sum::<f64>() / traced_rates.iter().sum::<f64>() - 1.0;

    let mut late = Vec::new();
    for (rate, count) in [(spec.lo_rps, lo_count / 2), (spec.hi_rps, hi_count / 2)] {
        let count = count.max(2) & !1;
        let first = ids.open(count);
        let phase = open_loop(&mut rig.conns, &rig.pool, first, rate, count, true);
        total.add(&phase.tally);
        layers.add(&phase.layers);
        late.extend(phase.due.late_ns);
    }
    let served = delta(rig.server.pool().totals(), before);
    late.sort_unstable();
    let (late_p99, _) = measure::quantile(&late, 0.99);

    let replay = replay(&rig.pool, ShardConfig::default().window)?;
    let n = layers.requests.max(1) as f64;
    let wire_us = layers.wire_ns as f64 / 1e3 / n;
    let protocol_us = (replay.decode_ns + replay.encode_ns) * (layers.ops as f64 / n) / 1e3;
    let queue_us = layers.per_request_us(layers.queue_us as f64);
    let linger_us = layers.per_request_us(layers.linger_us as f64);
    let service_us = layers.per_request_us(layers.service_us as f64);
    let pace_us = layers.per_request_us(layers.pace_us as f64);
    let rtt_us = wire_us + queue_us + linger_us + service_us + pace_us;
    let unattributed_us = wire_us - protocol_us;
    let costs = [
        ("server.queue_us", queue_us),
        ("server.linger_us", linger_us),
        ("server.service_ns_per_op", service_us),
        ("protocol decode + encode", protocol_us),
        ("server.unattributed_us", unattributed_us),
    ];
    let largest = costs
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty");
    out.note(format!(
        "per request (us): queue {queue_us:.1}, linger {linger_us:.1}, service {service_us:.1}, \
         pace {pace_us:.1}, protocol {protocol_us:.1}, unattributed {unattributed_us:.1} \
         ({:.1}% of the {rtt_us:.1} us round trip); largest layer: {} ({:.1} us)",
        100.0 * unattributed_us / rtt_us,
        largest.0,
        largest.1,
    ));
    out.note(format!(
        "tracing overhead: untraced {:.0} ops/s vs traced {:.0} ops/s ({} traced requests)",
        plain.iter().sum::<f64>() / plain.len() as f64,
        traced_rates.iter().sum::<f64>() / traced_rates.len() as f64,
        layers.requests
    ));
    out.note(format!(
        "ratios: spec_ok {} of {} ops; false alarms {} of {} ER firings",
        served.ops - served.stalls,
        served.ops,
        replay.false_alarms,
        replay.er_fired
    ));
    total.wrong += u64::from(!replay.correct);
    out.correct = true;
    out.metric("server.queue_us", queue_us, "us");
    out.metric("server.linger_us", linger_us, "us");
    out.metric(
        "server.service_ns_per_op",
        layers.service_us as f64 * 1e3 / layers.ops.max(1) as f64,
        "ns/op",
    );
    out.metric("server.wire_us", wire_us, "us");
    out.metric("server.unattributed_us", unattributed_us, "us");
    out.metric(
        "batcher.ops_per_batch",
        served.ops as f64 / served.batches.max(1) as f64,
        "ops",
    );
    out.metric("protocol.decode_ns_per_op", replay.decode_ns, "ns/op");
    out.metric("protocol.encode_ns_per_op", replay.encode_ns, "ns/op");
    out.metric("pipeline.run_batch_ns_per_op", replay.run_batch_ns, "ns/op");
    out.metric(
        "pipeline.self_ns_per_op",
        replay.run_batch_ns - replay.add_ns - replay.exact_ns,
        "ns/op",
    );
    out.metric("core.add_ns_per_op", replay.add_ns, "ns/op");
    out.metric("core.exact_ns_per_op", replay.exact_ns, "ns/op");
    out.metric(
        "pipeline.spec_ok_ratio",
        (served.ops - served.stalls) as f64 / served.ops.max(1) as f64,
        "ratio",
    );
    out.metric(
        "core.false_alarm_ratio",
        replay.false_alarms as f64 / replay.er_fired.max(1) as f64,
        "ratio",
    );
    reproduce::idle_layers(out);
    out.metric("trace.overhead_ratio", overhead, "ratio");
    out.metric("loadgen.late_p99_us", late_p99 as f64 / 1e3, "us");
    Ok(())
}

/// Single-threaded replays of the served requests through the layers
/// the server runs them through.
struct Replay {
    decode_ns: f64,
    encode_ns: f64,
    run_batch_ns: f64,
    add_ns: f64,
    exact_ns: f64,
    er_fired: u64,
    false_alarms: u64,
    correct: bool,
}

fn replay(pool: &[Req], window: usize) -> Result<Replay, String> {
    let ops: u64 = pool.iter().map(|r| r.ops.len() as u64).sum();
    let frames: Vec<Frame> = pool
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            let id = i as u64;
            [
                Frame::AddBatch(AddBatch::new(id, NBITS, r.ops.clone())),
                Frame::SumBatch(SumBatch {
                    request_id: id,
                    shard: (id % SHARDS as u64) as u16,
                    results: r.expected.clone(),
                    timing: None,
                    unknown: Vec::new(),
                }),
            ]
        })
        .collect();
    let mut bytes = Vec::new();
    let encode_ns = measure::time_per_op(ops, || {
        bytes.clear();
        for f in &frames {
            write_frame(&mut bytes, std::hint::black_box(f)).expect("write to Vec");
        }
    });
    let mut decoded_ok = true;
    let decode_ns = measure::time_per_op(ops, || {
        let mut cursor = Cursor::new(bytes.as_slice());
        for f in &frames {
            match read_frame(&mut cursor) {
                Ok(got) => decoded_ok &= &got == f,
                Err(_) => decoded_ok = false,
            }
        }
    });

    let adder = SpeculativeAdder::new(usize::from(NBITS), window).map_err(|e| format!("{e:?}"))?;
    let mut pipeline_ok = true;
    let run_batch_ns = measure::time_per_op(ops, || {
        let mut pipe = ResilientPipeline::new(adder, ResilienceConfig::default());
        for r in pool {
            let trace = pipe.run_batch(std::hint::black_box(&r.ops));
            pipeline_ok &= trace.outcomes.len() == r.expected.len()
                && trace
                    .outcomes
                    .iter()
                    .zip(&r.expected)
                    .all(|(o, want)| o.sum == want.sum && o.stalled == want.stalled());
        }
    });
    let mut er_fired = 0;
    let mut false_alarms = 0;
    let mut add_ok = true;
    for (r, want) in pool.iter().flat_map(|r| r.ops.iter().zip(&r.expected)) {
        let s = adder.add_u64(r.0, r.1);
        add_ok &= s.exact == want.sum && s.error_detected == want.stalled();
        er_fired += u64::from(s.error_detected);
        false_alarms += u64::from(s.is_false_alarm());
    }
    let add_ns = measure::time_per_op(ops, || {
        for r in pool {
            for &(a, b) in &r.ops {
                std::hint::black_box(adder.add_u64(a, b));
            }
        }
    });
    let exact_ns = measure::time_per_op(ops, || {
        for r in pool {
            for &(a, b) in &r.ops {
                std::hint::black_box(adder.exact_u64(a, b));
            }
        }
    });
    Ok(Replay {
        decode_ns,
        encode_ns,
        run_batch_ns,
        add_ns,
        exact_ns,
        er_fired,
        false_alarms,
        correct: decoded_ok && pipeline_ok && add_ok,
    })
}

/// Reports this workload's serving layers as idle (the reproduce
/// workload runs no server).
pub fn idle_layers(out: &mut Outcome) {
    for (name, unit) in [
        ("server.queue_us", "us"),
        ("server.linger_us", "us"),
        ("server.service_ns_per_op", "ns/op"),
        ("server.wire_us", "us"),
        ("server.unattributed_us", "us"),
        ("batcher.ops_per_batch", "ops"),
        ("protocol.decode_ns_per_op", "ns/op"),
        ("protocol.encode_ns_per_op", "ns/op"),
        ("pipeline.run_batch_ns_per_op", "ns/op"),
        ("pipeline.self_ns_per_op", "ns/op"),
        ("pipeline.spec_ok_ratio", "ratio"),
    ] {
        out.metric(name, 0.0, unit);
    }
}
