//! Load generator for `vlsa-server`.
//!
//! Two modes:
//!
//! - **Sweep** (default, no `--addr`): starts in-process servers at
//!   shard counts 1/2/4/8 plus a deliberate overload point, drives
//!   each over real TCP, prints the table, and writes
//!   `BENCH_server.json` with `--json`. This is the source of the
//!   committed benchmark.
//! - **Targeted** (`--addr <host:port>`): drives an external server
//!   (see the `serve` binary) with one open-loop load run and reports
//!   delivered throughput, latency quantiles, shed and stall rates.
//!   Exits nonzero on any transport/protocol error or silent drop —
//!   the CI smoke gate.
//! - **Observability** (`--obs`): the tracing-overhead and
//!   critical-path benchmark behind `BENCH_obs.json` — one run with
//!   tracing fully off versus one at the default rates, then a
//!   queue/linger/service/pace/network decomposition of the p50, p99,
//!   and p999 round trips from the traced run.
//! - **SLO fleet** (`--slo`): the benchmark behind `BENCH_slo.json` —
//!   spawns a 2-process fleet of `serve` subprocesses (build that bin
//!   first), aggregates them, drives nominal/drift/overload/recovery
//!   phases, and records the fleet burn trajectory plus the
//!   fleet-vs-pooled-ground-truth latency quantile check. Exits
//!   nonzero if the fleet view diverges from ground truth, overload
//!   fails to page, or the page fails to clear.
//! - **Chaos** (`--chaos`): the benchmark behind `BENCH_chaos.json` —
//!   runs every committed fault plan (worker kill, wedged worker, torn
//!   connections, deadline overload, delayed/duplicated replies)
//!   against in-process servers with retrying clients, and exits
//!   nonzero unless every plan closes the no-lost-request accounting
//!   identity `offered == answered + shed + deadline_exceeded` (with
//!   retried-successfully requests inside `answered` and zero hard
//!   errors).
//!
//! Usage:
//!   cargo run --release -p vlsa-bench --bin loadgen -- --json BENCH_server.json
//!   cargo run --release -p vlsa-bench --bin loadgen -- --obs --json BENCH_obs.json
//!   cargo run --release -p vlsa-bench --bin loadgen -- --chaos --json BENCH_chaos.json
//!   cargo build --release -p vlsa-bench --bin serve && \
//!       cargo run --release -p vlsa-bench --bin loadgen -- --slo --json BENCH_slo.json
//!   cargo run --release -p vlsa-bench --bin loadgen -- \
//!       --addr "$(cat server.addr)" --connections 8 --requests 50 \
//!       --ops 64 --mix mixed --rate 500000 --trace-every 8 \
//!       --retries 5 --tear-every 7 --deadline-us 100000
//!
//! Flags (targeted mode): `--connections <n>` (default 16),
//! `--requests <n>` per connection (default 150), `--ops <n>` per
//! request (default 64), `--n <bits>` (default 32), `--mix
//! uniform|biased|adversarial|mixed` (default mixed), `--rate <ops/s>`
//! open-loop aggregate arrival target (default 0 = saturate),
//! `--trace-every <n>` send a sampled trace context on every nth
//! request per connection (default 0 = never; traced requests report
//! the server-side phase decomposition), `--seed <s>`, `--json <path>`,
//! `--retries <n>` wrap each connection in a retrying client with `n`
//! total attempts (default 0 = plain client), `--deadline-us <n>` stamp
//! every request with an `EXT_DEADLINE` budget, `--tear-every <n>`
//! client-side chaos: tear the connection mid-frame every nth request
//! (requires `--retries`), `--hedge-after-us <n>` send a hedged copy
//! when an attempt is slower than this (requires `--retries`).

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use vlsa_bench::chaosbench;
use vlsa_bench::report::{args_without_json, parse_arg, split_value_flag, ArgError, Report};
use vlsa_bench::serverbench::{
    run_load, run_obs_bench, run_sweep, sample_at_quantile, standard_sweep, LoadConfig, Mix,
};
use vlsa_bench::slobench::{checks_pass, run_slo_bench};
use vlsa_server::RetryPolicy;
use vlsa_telemetry::Json;

fn main() -> ExitCode {
    let (args, json_path) = args_without_json().unwrap_or_else(|e| e.exit());
    let split = |args, flag| split_value_flag(args, flag).unwrap_or_else(|e: ArgError| e.exit());
    let (args, addr) = split(args, "addr");
    let (args, connections) = split(args, "connections");
    let (args, requests) = split(args, "requests");
    let (args, ops) = split(args, "ops");
    let (args, nbits) = split(args, "n");
    let (args, mix) = split(args, "mix");
    let (args, rate) = split(args, "rate");
    let (args, seed) = split(args, "seed");
    let (args, trace_every) = split(args, "trace-every");
    let (args, retries) = split(args, "retries");
    let (args, deadline_us) = split(args, "deadline-us");
    let (args, tear_every) = split(args, "tear-every");
    let (args, hedge_after_us) = split(args, "hedge-after-us");
    let obs_flag = args.iter().any(|a| a == "--obs");
    let slo_flag = args.iter().any(|a| a == "--slo");
    let chaos_flag = args.iter().any(|a| a == "--chaos");
    if let Some(unexpected) = args[1..]
        .iter()
        .find(|a| *a != "--obs" && *a != "--slo" && *a != "--chaos")
    {
        ArgError::Unexpected {
            arg: unexpected.clone(),
        }
        .exit();
    }

    if chaos_flag {
        // Chaos mode: the committed BENCH_chaos.json and its exit gate.
        let report = chaosbench::run_chaos_bench().unwrap_or_else(|e| {
            eprintln!("error: chaos bench failed: {e}");
            std::process::exit(1);
        });
        report.write_if(&json_path);
        if !chaosbench::checks_pass(&report) {
            eprintln!("FAILED: a fault plan lost requests or its faults never landed");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if slo_flag {
        // SLO fleet mode: the committed BENCH_slo.json.
        let report = run_slo_bench().unwrap_or_else(|e| {
            eprintln!("error: slo fleet bench failed: {e}");
            std::process::exit(1);
        });
        report.write_if(&json_path);
        if !checks_pass(&report) {
            eprintln!("FAILED: an SLO fleet check did not pass (see `checks` in the report)");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if obs_flag {
        // Observability mode: the committed BENCH_obs.json.
        let report = run_obs_bench().unwrap_or_else(|e| {
            eprintln!("error: obs bench failed: {e}");
            std::process::exit(1);
        });
        report.write_if(&json_path);
        return ExitCode::SUCCESS;
    }

    let Some(addr) = addr else {
        // Sweep mode: the committed BENCH_server.json.
        let report = run_sweep(&standard_sweep()).unwrap_or_else(|e| {
            eprintln!("error: sweep failed: {e}");
            std::process::exit(1);
        });
        report.write_if(&json_path);
        return ExitCode::SUCCESS;
    };

    let addr: SocketAddr = parse_arg("--addr", &addr).unwrap_or_else(|e| e.exit());
    let parsed = |flag: &str, value: Option<String>, default: u64| {
        value.map_or(default, |v| {
            parse_arg(flag, &v).unwrap_or_else(|e| e.exit())
        })
    };
    let retries = parsed("--retries", retries, 0);
    let tear_every = parsed("--tear-every", tear_every, 0);
    let hedge_after_us = parsed("--hedge-after-us", hedge_after_us, 0);
    if retries == 0 && (tear_every > 0 || hedge_after_us > 0) {
        eprintln!("error: --tear-every and --hedge-after-us require --retries");
        std::process::exit(2);
    }
    let retry = (retries > 0).then(|| RetryPolicy {
        max_attempts: retries as u32,
        tear_every: (tear_every > 0).then_some(tear_every as u32),
        hedge_after: (hedge_after_us > 0).then(|| Duration::from_micros(hedge_after_us)),
        ..RetryPolicy::default()
    });
    let config = LoadConfig {
        connections: parsed("--connections", connections, 16) as usize,
        requests_per_conn: parsed("--requests", requests, 150) as usize,
        ops_per_request: parsed("--ops", ops, 64) as usize,
        nbits: parsed("--n", nbits, 32) as usize,
        mix: mix.map_or(Mix::Mixed, |v| {
            parse_arg::<Mix>("--mix", &v).unwrap_or_else(|e| e.exit())
        }),
        target_ops_per_sec: parsed("--rate", rate, 0),
        seed: parsed("--seed", seed, 0xB00B5),
        trace_every: parsed("--trace-every", trace_every, 0),
        deadline_us: parsed("--deadline-us", deadline_us, 0) as u32,
        retry,
    };

    let result = run_load(addr, &config).unwrap_or_else(|e| {
        eprintln!("error: load run failed: {e}");
        std::process::exit(1);
    });
    let offered = (config.connections * config.requests_per_conn) as u64;
    let accounted = result.answered + result.shed + result.deadline_exceeded + result.errors;
    let q = |p: f64| result.latency_us.quantile(p).unwrap_or(0.0);
    println!(
        "delivered {} ops at {:.0} ops/s | p50 {:.0} us p99 {:.0} us p999 {:.0} us | \
         {} answered, {} shed ({:.2}%), {} deadline-exceeded, {} errors | stall rate {:.2}%",
        result.ops,
        result.ops_per_sec(),
        q(0.50),
        q(0.99),
        q(0.999),
        result.answered,
        result.shed,
        result.shed_rate() * 100.0,
        result.deadline_exceeded,
        result.errors,
        result.stall_rate() * 100.0,
    );
    if config.retry.is_some() {
        println!(
            "retry layer | {} retried ({} recovered), {} hedged, {} torn connections",
            result.retried, result.retried_successfully, result.hedged, result.torn,
        );
    }
    // The server total of the traced sample at the client-RTT
    // quantile, not a quantile of server time.
    let rtt_q_sample_server =
        |p: f64| sample_at_quantile(&result.traced, p).map_or(0, |s| s.timing.total_us());
    if !result.traced.is_empty() {
        println!(
            "traced {} requests | server total of the sample at rtt p50 {} us p99 {} us \
             p999 {} us | network at p99 {} us",
            result.traced.len(),
            rtt_q_sample_server(0.50),
            rtt_q_sample_server(0.99),
            rtt_q_sample_server(0.999),
            sample_at_quantile(&result.traced, 0.99).map_or(0, |s| s.network_us()),
        );
    }

    let mut report = Report::new("loadgen");
    report.set("addr", addr.to_string());
    report.push_row(
        Json::obj()
            .set("connections", config.connections as u64)
            .set("mix", config.mix.to_string())
            .set("target_ops_s", config.target_ops_per_sec)
            .set("ops", result.ops)
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
            .set("deadline_exceeded", result.deadline_exceeded)
            .set("retried", result.retried)
            .set("retried_successfully", result.retried_successfully)
            .set("hedged", result.hedged)
            .set("torn", result.torn)
            .set("errors", result.errors),
    );
    report.write_if(&json_path);

    if result.errors > 0 {
        eprintln!("FAILED: {} request(s) hit hard errors", result.errors);
        return ExitCode::FAILURE;
    }
    if accounted != offered {
        eprintln!("FAILED: silent drop — offered {offered}, accounted {accounted}");
        return ExitCode::FAILURE;
    }
    if config.trace_every > 0 && result.answered > 0 && result.traced.is_empty() {
        eprintln!("FAILED: trace contexts were sent but no server timing came back");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
