//! End-to-end replay acceptance: a captured trace, serialized to the
//! `trace.json` text the `trace` binary writes, parsed back and
//! replayed, must reproduce every sum and error flag bit-for-bit.

use vlsa_bench::tracebin::{capture_run, capture_vcd, replay, TraceConfig, VcdConfig};
use vlsa_sim::VcdNets;
use vlsa_telemetry::Json;

#[test]
fn trace_round_trips_through_text() {
    // Full 64-bit operands exercise the above-2^53 string encoding of
    // span arguments; window 8 errs often enough to cover both paths.
    let cfg = TraceConfig {
        nbits: 64,
        window: 8,
        ops: 2_000,
        seed: 4099,
    };
    let run = capture_run(&cfg);
    assert_eq!(run.dropped, 0, "ring must capture the whole stream");
    assert!(run.errors > 0, "stream must contain recovery cycles");

    let text = format!("{}\n", run.doc);
    let parsed = Json::parse(&text).expect("trace.json is valid JSON");
    let report = replay(&parsed).expect("trace is replayable");
    assert_eq!(report.ops as u64, run.operations);
    assert_eq!(report.replayed_errors, run.errors);
    assert!(report.is_exact(), "replay diverged: {report}");
}

#[test]
fn vcd_of_the_same_stream_is_well_formed() {
    let cfg = TraceConfig {
        nbits: 16,
        window: 4,
        ops: 64,
        seed: 4099,
    };
    let (text, count) = capture_vcd(
        &cfg,
        &VcdConfig {
            nets: VcdNets::Ports,
            max_ops: 32,
            fault: None,
        },
    )
    .expect("gate-level simulation");
    assert_eq!(count, 32);
    assert!(text.starts_with("$date"), "{}", &text[..60]);
    assert!(text.contains("$timescale"));
    assert!(text.contains("$enddefinitions $end"));
    assert!(text.contains(" valid $end"));
    // At least one recovery bubble stretches the dump past 32 cycles.
    let final_ts = text
        .lines()
        .rev()
        .find(|l| l.starts_with('#'))
        .and_then(|l| l[1..].parse::<u64>().ok())
        .expect("final timestamp");
    assert!(final_ts > 32, "no recovery bubble in {final_ts} cycles");
}
