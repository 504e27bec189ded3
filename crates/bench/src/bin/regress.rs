//! Perf-regression gate over two `BENCH_server.json`-style reports
//! (the CI `tsdb-smoke` job runs this against committed fixtures, and
//! release flows run it against a fresh `loadgen --json` capture).
//!
//! Usage:
//!   cargo run --release -p vlsa-bench --bin regress -- \
//!       --baseline BENCH_server.json --candidate fresh.json \
//!       [--ops-floor 0.10] [--p999-floor 0.20] [--json verdict.json]
//!
//! Rows are matched by `(label, shards)`; `throughput_ops_s` (lower is
//! worse) and `p999_us` (higher is worse) are gated against
//! `max(floor, 3 × improving-side noise)` — see
//! `vlsa_bench::regress` for the noise model. Exit codes: `0` pass,
//! `1` statistically significant regression (or lost row coverage),
//! `2` malformed input.

use vlsa_bench::regress::{compare_texts, GateConfig};
use vlsa_bench::report::{args_without_json, parse_arg, split_value_flag, ArgError, Report};
use vlsa_telemetry::Json;

/// Exit code for a confirmed regression (distinct from usage errors).
const REGRESSION_EXIT_CODE: i32 = 1;

fn main() {
    let (args, json_path) = args_without_json().unwrap_or_else(|e| e.exit());
    let split = |args, flag| split_value_flag(args, flag).unwrap_or_else(|e: ArgError| e.exit());
    let (args, baseline) = split(args, "baseline");
    let (args, candidate) = split(args, "candidate");
    let (args, ops_floor) = split(args, "ops-floor");
    let (args, p999_floor) = split(args, "p999-floor");
    if let Some(unexpected) = args.get(1) {
        ArgError::Unexpected {
            arg: unexpected.clone(),
        }
        .exit();
    }
    let require = |flag: &str, value: Option<String>| {
        value.unwrap_or_else(|| {
            eprintln!("error: --{flag} <path> is required");
            std::process::exit(vlsa_bench::report::USAGE_EXIT_CODE);
        })
    };
    let baseline_path = require("baseline", baseline);
    let candidate_path = require("candidate", candidate);

    let mut config = GateConfig::default();
    if let Some(v) = ops_floor {
        config.ops_floor = parse_arg("--ops-floor", &v).unwrap_or_else(|e: ArgError| e.exit());
    }
    if let Some(v) = p999_floor {
        config.p999_floor = parse_arg("--p999-floor", &v).unwrap_or_else(|e: ArgError| e.exit());
    }

    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(vlsa_bench::report::USAGE_EXIT_CODE);
        })
    };
    let base_text = read(&baseline_path);
    let cand_text = read(&candidate_path);

    let outcome = compare_texts(&base_text, &cand_text, &config).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(vlsa_bench::report::USAGE_EXIT_CODE);
    });

    println!(
        "{:>9} | {:>6} | {:>16} | {:>12} {:>12} | {:>8} {:>9} | verdict",
        "label", "shards", "metric", "baseline", "candidate", "delta", "threshold"
    );
    for c in &outcome.checks {
        println!(
            "{:>9} | {:>6} | {:>16} | {:>12.0} {:>12.0} | {:>+7.1}% {:>8.1}% | {}",
            c.label,
            c.shards,
            c.metric,
            c.baseline,
            c.candidate,
            c.worseness * 100.0,
            c.threshold * 100.0,
            if c.regressed { "REGRESSED" } else { "ok" }
        );
    }
    for key in &outcome.missing {
        println!("{key}: MISSING from candidate (lost coverage)");
    }
    println!(
        "noise floor: ops {:.2}%, p999 {:.2}% (improving-side median)",
        outcome.noise.0 * 100.0,
        outcome.noise.1 * 100.0
    );

    let mut report = Report::new("regress");
    report
        .set("baseline", baseline_path.as_str())
        .set("candidate", candidate_path.as_str())
        .set("ops_noise", outcome.noise.0)
        .set("p999_noise", outcome.noise.1)
        .set(
            "missing",
            Json::Arr(outcome.missing.iter().map(|k| k.as_str().into()).collect()),
        )
        .set("failed", outcome.failed());
    for row in outcome.rows() {
        report.push_row(row);
    }
    report.write_if(&json_path);

    if outcome.failed() {
        eprintln!(
            "regression gate FAILED: {} regressed check(s), {} missing row(s)",
            outcome.regressions().len(),
            outcome.missing.len()
        );
        std::process::exit(REGRESSION_EXIT_CODE);
    }
    println!("regression gate passed: {} checks", outcome.checks.len());
}
