//! Measures the cost of the telemetry layer on the hot add path — the
//! acceptance check for "instrumentation is off by default and costs
//! ~nothing when disabled".
//!
//! Three variants over the same operand stream:
//!
//! * `uninstrumented`: the raw speculative-add arithmetic with no
//!   telemetry call at all (the pre-telemetry baseline, inlined here).
//! * `disabled`: `SpeculativeAdder::add_u64`, telemetry compiled in but
//!   no scope live anywhere — the default state. Must sit within noise
//!   of `uninstrumented` (the only extra work is one relaxed atomic
//!   load).
//! * `enabled`: the same adds under a `ScopedRecorder`, paying for the
//!   real counter updates.
//!
//! The same contract holds for the tracing layer, so two more variants
//! mirror the span hook exactly as `vlsa-pipeline` deploys it (one
//! `vlsa_trace::recorder()` resolution before the loop — a single
//! relaxed atomic load when disabled — and a `None` check per op):
//!
//! * `trace_disabled`: spans compiled in, tracing off — the default.
//! * `trace_enabled`: the same adds recording one span per op into a
//!   scoped flight recorder, drained per iteration.
//!
//! And the same contract again for the resilience layer: with the
//! residue check turned off, `ResilientPipeline` must sit within noise
//! of the plain pipeline (its per-op extra is one `Option` branch):
//!
//! * `pipeline_baseline`: the plain `VlsaPipeline` stream.
//! * `resilience_disabled`: `ResilientPipeline` with `residue: None`.
//! * `resilience_enabled`: the same with the default mod-3 checker.
//!
//! And once more for the conformance monitor, which hangs off the
//! pipeline's operand-sampling hook:
//!
//! * `monitor_disabled`: `run_observed` with a no-op observer — must
//!   sit within noise of `pipeline_baseline` (the closure is erased).
//! * `monitor_enabled`: the same stream feeding a
//!   `ConformanceMonitor` sized to close one window per iteration.
//!
//! Run with `cargo bench -p vlsa-bench --bench telemetry_overhead`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use vlsa_core::{windowed_sum_u64, SpeculativeAdder};
use vlsa_monitor::{ConformanceMonitor, MonitorConfig};
use vlsa_pipeline::{ResilienceConfig, ResilientPipeline, VlsaPipeline};
use vlsa_telemetry::ScopedRecorder;
use vlsa_trace::{ScopedTrace, TraceEvent};

const NBITS: usize = 64;
const WINDOW: usize = 18;
const OPS: usize = 4096;

fn operands() -> Vec<(u64, u64)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    (0..OPS).map(|_| (rng.gen(), rng.gen())).collect()
}

/// The speculative-add arithmetic with telemetry *absent* rather than
/// disabled: exactly what `SpeculativeAdder::add_u64` computes at 64
/// bits, minus the `record_add` call.
fn raw_speculative_add(a: u64, b: u64, window: usize) -> (u64, bool) {
    let spec = windowed_sum_u64(a, b, NBITS, window);
    let exact = a.wrapping_add(b);
    let detected = vlsa_runstats::longest_one_run_u64(a ^ b) as usize >= window;
    black_box(exact);
    (spec, detected)
}

fn bench_overhead(c: &mut Criterion) {
    let ops = operands();
    let mut group = c.benchmark_group("telemetry_overhead");

    group.bench_function("uninstrumented", |b| {
        b.iter(|| {
            let mut errs = 0u64;
            for &(x, y) in &ops {
                let (s, e) = raw_speculative_add(black_box(x), black_box(y), WINDOW);
                errs += u64::from(e);
                black_box(s);
            }
            errs
        })
    });

    let adder = SpeculativeAdder::new(NBITS, WINDOW).expect("valid");
    group.bench_function("disabled", |b| {
        assert!(!vlsa_telemetry::is_enabled());
        b.iter(|| {
            let mut errs = 0u64;
            for &(x, y) in &ops {
                let spec = adder.add_u64(black_box(x), black_box(y));
                errs += u64::from(spec.error_detected);
                black_box(spec.speculative);
            }
            errs
        })
    });

    group.bench_function("enabled", |b| {
        let scope = ScopedRecorder::install();
        b.iter(|| {
            let mut errs = 0u64;
            for &(x, y) in &ops {
                let spec = adder.add_u64(black_box(x), black_box(y));
                errs += u64::from(spec.error_detected);
                black_box(spec.speculative);
            }
            errs
        });
        drop(scope);
    });

    // The pipeline's span hook, verbatim: resolve the recorder once,
    // branch on it per op.
    let traced_adds = |spans: &Option<std::sync::Arc<vlsa_trace::FlightRecorder>>| {
        let mut errs = 0u64;
        for (i, &(x, y)) in ops.iter().enumerate() {
            let spec = adder.add_u64(black_box(x), black_box(y));
            errs += u64::from(spec.error_detected);
            if let Some(rec) = spans {
                rec.record(
                    TraceEvent::complete("op", "bench", i as u64, 1)
                        .arg("a", x)
                        .arg("b", y)
                        .arg("err", u64::from(spec.error_detected)),
                );
            }
            black_box(spec.speculative);
        }
        errs
    };

    group.bench_function("trace_disabled", |b| {
        assert!(!vlsa_trace::is_enabled());
        b.iter(|| {
            let spans = vlsa_trace::recorder();
            black_box(traced_adds(&spans))
        })
    });

    group.bench_function("trace_enabled", |b| {
        let scope = ScopedTrace::install(OPS * 2);
        b.iter(|| {
            let spans = vlsa_trace::recorder();
            let errs = traced_adds(&spans);
            // Drain so later iterations pay the record path, not the
            // cheaper ring-full drop path.
            black_box(scope.drain().len());
            black_box(errs)
        });
        drop(scope);
    });

    group.bench_function("pipeline_baseline", |b| {
        let mut pipe = VlsaPipeline::new(SpeculativeAdder::new(NBITS, WINDOW).expect("valid"));
        b.iter(|| black_box(pipe.run(&ops).operations))
    });

    group.bench_function("resilience_disabled", |b| {
        let mut pipe = ResilientPipeline::new(
            SpeculativeAdder::new(NBITS, WINDOW).expect("valid"),
            ResilienceConfig {
                residue: None,
                ..ResilienceConfig::default()
            },
        );
        b.iter(|| {
            pipe.reset();
            black_box(pipe.run(&ops).stats.ops)
        })
    });

    group.bench_function("monitor_disabled", |b| {
        let mut pipe = VlsaPipeline::new(SpeculativeAdder::new(NBITS, WINDOW).expect("valid"));
        b.iter(|| black_box(pipe.run_observed(&ops, |_| {}).operations))
    });

    group.bench_function("monitor_enabled", |b| {
        let mut pipe = VlsaPipeline::new(SpeculativeAdder::new(NBITS, WINDOW).expect("valid"));
        let mut monitor =
            ConformanceMonitor::new(MonitorConfig::new(NBITS, WINDOW).with_window_ops(OPS as u64));
        b.iter(|| {
            let trace = pipe.run_observed(&ops, |s| {
                monitor.observe(s.a, s.b, s.stalled, s.latency_cycles);
            });
            black_box(trace.operations)
        })
    });

    group.bench_function("resilience_enabled", |b| {
        let mut pipe = ResilientPipeline::new(
            SpeculativeAdder::new(NBITS, WINDOW).expect("valid"),
            ResilienceConfig::default(),
        );
        b.iter(|| {
            pipe.reset();
            black_box(pipe.run(&ops).stats.ops)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
