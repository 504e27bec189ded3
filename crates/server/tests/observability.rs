//! End-to-end tail-latency attribution: a deliberately induced p999
//! outlier must be traceable from the latency histogram bucket through
//! its exemplar trace id to the full span decomposition — over the
//! same HTTP endpoints an operator would use.
//!
//! The outlier is manufactured, not hoped for: one request carries a
//! large adversarial batch (every op stalls) through a server with a
//! slow modeled device, while a crowd of small uniform requests forms
//! the body of the distribution. The worst exemplar must name the
//! heavy request, `/trace/{id}` must return its span tree, and the
//! phase decomposition must sum to within tolerance of the round trip
//! the client measured for that same request.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, SeedableRng};
use vlsa_pipeline::{adversarial_operands, random_operands};
use vlsa_server::{Response, ServerConfig, ShardConfig, TraceContext, VlsaClient, VlsaServer};
use vlsa_telemetry::Json;

/// A minimal HTTP/1.0 GET against the scrape server, returning
/// `(status_line, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape server");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status = head.lines().next().expect("status line").to_string();
    (status, body.to_string())
}

#[test]
fn an_induced_p999_outlier_is_attributable_end_to_end() {
    // A slow modeled device makes service + pacing the dominant cost
    // of the heavy batch: 1024 adversarial 64-bit ops at 10 µs/cycle
    // is ≥ 20 ms of modeled device time, orders of magnitude above the
    // light traffic.
    let mut server = VlsaServer::start(ServerConfig {
        shards: 2,
        shard: ShardConfig {
            cycle_ns: 10_000,
            ..ShardConfig::default()
        },
        metrics: true,
        ..ServerConfig::default()
    })
    .expect("start");
    let scrape = server.metrics_addr().expect("metrics enabled");

    let mut client = VlsaClient::connect(server.addr()).expect("connect");
    let mut rng = StdRng::seed_from_u64(0x0B5);
    let mut rtts: HashMap<u64, u64> = HashMap::new();

    // The body of the distribution: small uniform batches across both
    // shards, every one traced so exemplars have ids to retain.
    for r in 0..40u64 {
        let trace_id = 0x1000 + r;
        let ops = random_operands(64, 4, &mut rng);
        let sent = Instant::now();
        let response = client
            .request_traced(r, 64, &ops, Some(TraceContext::sampled(trace_id)))
            .expect("request");
        assert!(matches!(response, Response::Sums(_)), "no load, no shed");
        rtts.insert(trace_id, sent.elapsed().as_micros() as u64);
    }

    // The outlier: one heavy adversarial batch pinned to shard 0 (even
    // request id). Every op pays the recovery bubble.
    const HEAVY_TRACE_ID: u64 = 0xBAD_F00D;
    let heavy_ops = adversarial_operands(64, 1024);
    let sent = Instant::now();
    let response = client
        .request_traced(
            1000,
            64,
            &heavy_ops,
            Some(TraceContext::sampled(HEAVY_TRACE_ID)),
        )
        .expect("heavy request");
    let heavy_rtt_us = sent.elapsed().as_micros() as u64;
    let Response::Sums(sums) = response else {
        panic!("heavy request was shed");
    };
    assert_eq!(usize::from(sums.shard), 0, "even id routes to shard 0");
    assert!(
        sums.results.iter().all(|op| op.stalled()),
        "adversarial ops must all stall"
    );
    let timing = sums.timing.expect("traced request echoes timing");
    assert_eq!(timing.trace_id, HEAVY_TRACE_ID);

    // The server records a trace only after writing its reply, so the
    // heavy trace can land just after the client has read the answer.
    // Wait (bounded) for it before inspecting exemplars.
    let obs = server.obs();
    let visible_by = Instant::now() + Duration::from_secs(5);
    while obs.lookup(HEAVY_TRACE_ID).is_none() {
        assert!(Instant::now() < visible_by, "heavy trace never recorded");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Step 1 — histogram bucket → exemplar: the worst retained
    // exemplar across all shards names the heavy request.
    let worst = (0..obs.shard_count())
        .filter_map(|s| obs.exemplars(s).worst())
        .max_by_key(|ex| ex.value)
        .expect("traced requests were recorded");
    assert_eq!(
        worst.trace_id, HEAVY_TRACE_ID,
        "the worst exemplar must be the induced outlier"
    );

    // The same attribution over the operator's endpoint.
    let (status, body) = http_get(scrape, "/exemplars");
    assert!(status.contains("200"), "{status}");
    let doc = Json::parse(&body).expect("exemplars JSON");
    let shards = doc.get("shards").and_then(Json::as_arr).expect("shards");
    assert!(
        shards.iter().any(|s| {
            s.get("buckets")
                .and_then(Json::as_arr)
                .is_some_and(|buckets| {
                    buckets.iter().any(|b| {
                        b.get("trace_id").and_then(Json::as_str)
                            == Some(&HEAVY_TRACE_ID.to_string())
                    })
                })
        }),
        "/exemplars must surface the outlier's trace id: {body}"
    );

    // Step 2 — exemplar trace id → span tree, over /trace/{id}.
    let (status, body) = http_get(scrape, &format!("/trace/{HEAVY_TRACE_ID}"));
    assert!(status.contains("200"), "{status}: {body}");
    let trace = Json::parse(&body).expect("trace JSON");
    assert_eq!(
        trace.get("trace_id").and_then(Json::as_str),
        Some(HEAVY_TRACE_ID.to_string().as_str())
    );
    assert_eq!(trace.get("ops").and_then(Json::as_u64), Some(1024));
    assert_eq!(trace.get("stalls").and_then(Json::as_u64), Some(1024));
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    assert_eq!(spans.len(), 5, "five phases: {body}");

    // Step 3 — decomposition closes against the client's own clock:
    // the phases must account for the round trip minus the (loopback)
    // network share, and the echoed timing must be a prefix of the
    // ring's record (which adds write_back).
    let total_us = trace.get("total_us").and_then(Json::as_u64).expect("total");
    let span_sum: u64 = spans
        .iter()
        .map(|s| s.get("dur_us").and_then(Json::as_u64).expect("dur"))
        .sum();
    assert_eq!(span_sum, total_us, "spans must tile the total exactly");
    assert!(
        total_us <= heavy_rtt_us + 1_000,
        "server-side total {total_us} us exceeds client rtt {heavy_rtt_us} us"
    );
    assert!(
        total_us >= heavy_rtt_us / 2,
        "a modeled-device-bound request must spend most of its rtt \
         server-side: total {total_us} us of rtt {heavy_rtt_us} us"
    );
    assert!(
        timing.total_us() <= total_us,
        "echoed timing omits write_back, so it cannot exceed the ring total"
    );
    // The decomposition must blame the device, not the queue: service
    // plus pacing dominates for a lone heavy batch.
    let phase = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|s| s.get("dur_us"))
            .and_then(Json::as_u64)
            .expect("phase present")
    };
    assert!(
        phase("service") + phase("device_pace") >= total_us / 2,
        "outlier must be attributed to service/pacing: {body}"
    );

    // Chrome-trace export of the same trace loads as trace events.
    let (status, body) = http_get(scrape, &format!("/trace/{HEAVY_TRACE_ID}?format=chrome"));
    assert!(status.contains("200"), "{status}");
    let chrome = Json::parse(&body).expect("chrome JSON");
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert_eq!(events.len(), 6, "root span + five phases");

    // Unknown ids are a clean 404, not a hang or a panic.
    let (status, _) = http_get(scrape, "/trace/999999999");
    assert!(status.contains("404"), "{status}");
    let (status, _) = http_get(scrape, "/trace/not-a-number");
    assert!(status.contains("400"), "{status}");

    // The rest of the light traffic is also attributable: every traced
    // rtt bounds its recorded server-side total.
    for (&trace_id, &rtt_us) in &rtts {
        let Some(rt) = obs.lookup(trace_id) else {
            continue; // evicted by ring capacity — allowed
        };
        assert!(
            rt.total_us() <= rtt_us + 1_000,
            "trace {trace_id:#x}: total {} us > rtt {rtt_us} us",
            rt.total_us()
        );
    }

    server.shutdown();
}

#[test]
fn the_profiler_and_snapshot_endpoints_serve_while_under_load() {
    // The build-info gauge lives in the caller's registry; scope one in
    // like the `serve` binary does.
    let _telemetry = vlsa_telemetry::ScopedRecorder::install();
    let mut server = VlsaServer::start(ServerConfig {
        shards: 2,
        metrics: true,
        ..ServerConfig::default()
    })
    .expect("start");
    let scrape = server.metrics_addr().expect("metrics enabled");
    let addr = server.addr();

    // Background load so the profiler has shard-worker stacks to see.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_flag = std::sync::Arc::clone(&stop);
    let load = std::thread::spawn(move || {
        let mut client = VlsaClient::connect(addr).expect("connect");
        let ops = adversarial_operands(64, 64);
        let mut id = 0u64;
        while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
            id += 1;
            let _ = client.request_traced(id, 64, &ops, Some(TraceContext::sampled(id)));
        }
    });

    // /profile blocks for the sampling window, then reports folded
    // stacks naming the shard workers and their phase frames.
    let (status, folded) = http_get(scrape, "/profile?seconds=1&hz=200");
    assert!(status.contains("200"), "{status}");
    assert!(
        folded.lines().any(|l| l.starts_with("vlsa-shard-")),
        "folded stacks must name shard workers:\n{folded}"
    );
    for line in folded.lines() {
        let (_stack, count) = line.rsplit_once(' ').expect("folded format");
        count.parse::<u64>().expect("folded sample count");
    }

    let (status, body) = http_get(scrape, "/profile?seconds=1&format=json");
    assert!(status.contains("200"), "{status}");
    Json::parse(&body).expect("profile JSON");

    // /snapshot carries build info alongside the metrics snapshot.
    let (status, body) = http_get(scrape, "/snapshot");
    assert!(status.contains("200"), "{status}");
    let snap = Json::parse(&body).expect("snapshot JSON");
    let build = snap.get("build").expect("build section");
    assert_eq!(
        build.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert_eq!(build.get("shards").and_then(Json::as_u64), Some(2));

    // /metrics carries the build-info gauge with the same labels.
    let (status, body) = http_get(scrape, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(
        body.lines()
            .any(|l| l.starts_with("vlsa_server_build_info{")
                && l.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION")))),
        "build info gauge missing:\n{body}"
    );

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    load.join().expect("load thread");
    server.shutdown();
}
