//! End-to-end metrics history: a served run must be reconstructable
//! from the embedded time-series store — the `increase()` of the ops
//! counter over the whole run must equal the client-side accounting of
//! delivered ops, over the same `/query` endpoint an operator would
//! curl — and the recording rules must have materialized derived
//! series while the run was live.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use vlsa_server::{Response, ServerConfig, ShardConfig, VlsaClient, VlsaServer};
use vlsa_telemetry::{Json, ScopedRecorder};
use vlsa_tsdb::{eval_range, Expr};

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape server");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    (
        head.lines().next().expect("status line").to_string(),
        body.to_string(),
    )
}

#[test]
fn a_live_run_is_reconstructable_from_the_store() {
    // The scope must precede the server: it captures the registry in
    // scope when it starts and hands it to every thread it spawns.
    let scope = ScopedRecorder::install();
    // A slow modeled device (10 µs/cycle) so this small run spans a
    // measurable stretch of modeled time — the axis the self-scraper
    // samples on.
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
    let mut delivered_ops = 0u64;
    for r in 0..60u64 {
        let ops: Vec<(u64, u64)> = (0..8).map(|i| (r + i, i * 3 + 1)).collect();
        match client.request_traced(r, 64, &ops, None).expect("request") {
            Response::Sums(sums) => delivered_ops += sums.results.len() as u64,
            other => panic!("no load, no shed: {other:?}"),
        }
        // Give the self-scraper wall time to take mid-run snapshots.
        if r % 20 == 19 {
            std::thread::sleep(std::time::Duration::from_millis(40));
        }
    }
    assert_eq!(delivered_ops, 60 * 8);

    // Wait (bounded) for at least one post-traffic ingest tick so the
    // live HTTP query below sees history.
    let db = std::sync::Arc::clone(server.tsdb().expect("tsdb on by default with metrics"));
    for _ in 0..100 {
        if db.last_ingest_us() > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(db.last_ingest_us() > 0, "the self-scraper never ticked");

    // The operator's view: a rate() over the whole run via /query must
    // be non-empty and well-formed.
    let (status, body) = http_get(scrape, "/query?expr=increase(vlsa.server.ops%5B10m%5D)");
    assert!(status.contains("200"), "{status}: {body}");
    let doc = Json::parse(&body).expect("valid /query JSON");
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(results.len(), 1, "one ops series: {body}");
    let points = results[0]
        .get("points")
        .and_then(Json::as_arr)
        .expect("points");
    assert!(!points.is_empty(), "live query returned no points: {body}");

    // /series exposes retention stats with a sane compression ratio.
    let (status, body) = http_get(scrape, "/series");
    assert!(status.contains("200"), "{status}");
    let doc = Json::parse(&body).expect("valid /series JSON");
    let total = doc.get("total").expect("total object");
    assert!(total.get("series").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert!(
        total
            .get("ingest_ticks")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
    );

    // Bad expressions are a client error, not a 500 or a panic.
    let (status, _) = http_get(scrape, "/query?expr=rate(unclosed%5B1s)");
    assert!(status.contains("400"), "{status}");
    let (status, _) = http_get(scrape, "/query");
    assert!(status.contains("400"), "{status}");

    // Shutdown takes the final snapshot; afterwards the accounting must
    // close: increase(ops) over the full run == ops the clients saw
    // delivered. Exactly — both sides count the same integer events.
    server.shutdown();
    let end = db.last_ingest_us();
    let expr = Expr::parse("increase(vlsa.server.ops[1h])").expect("expr");
    let results = eval_range(&db, &expr, end, end, 1).expect("eval");
    assert_eq!(results.len(), 1);
    let got = results[0].points.last().expect("a final point").1;
    assert_eq!(
        got, delivered_ops as f64,
        "store accounting diverged from client accounting"
    );

    // The recording rules ran on ingest: derived series exist as
    // first-class history.
    let names = db.series_names();
    assert!(
        names.iter().any(|n| n == "vlsa.recorded.ops_per_sec"),
        "recorded rule output missing from {names:?}"
    );

    // Telemetry recorded on the server's own threads lands in the
    // caller's registry: the shard workers' pipeline counters too.
    let registry = scope.registry();
    assert_eq!(registry.counter_value("vlsa.resilience.ops"), delivered_ops);
    assert_eq!(registry.counter_value("vlsa.server.connections"), 1);
    drop(scope);
}
