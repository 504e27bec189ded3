//! Exact-count checks for the `vlsa.pipeline.*` metrics. Each test
//! records into its own thread's scope.

use vlsa_core::SpeculativeAdder;
use vlsa_pipeline::{adversarial_operands, QueueConfig, VlsaPipeline};
use vlsa_telemetry::{Json, ScopedRecorder};

fn pipeline(nbits: usize, window: usize) -> VlsaPipeline {
    VlsaPipeline::new(SpeculativeAdder::new(nbits, window).expect("valid"))
}

#[test]
fn run_records_latency_histogram_and_stall_runs() {
    let scope = ScopedRecorder::install();

    // Two clean ops, then three back-to-back stalls, then one clean op.
    let mut ops = vec![(1u64, 2u64), (3, 4)];
    ops.extend(adversarial_operands(16, 3));
    ops.push((5, 6));
    pipeline(16, 4).run(&ops);

    let registry = scope.registry();
    assert_eq!(registry.counter_value("vlsa.pipeline.ops"), 6);
    assert_eq!(registry.counter_value("vlsa.pipeline.stalls"), 3);

    let snapshot = scope.snapshot();
    let latency = snapshot
        .get("histograms")
        .and_then(|h| h.get("vlsa.pipeline.op_latency_cycles"))
        .expect("latency histogram");
    assert_eq!(latency.get("count").and_then(Json::as_u64), Some(6));
    // 3 clean ops at 1 cycle + 3 stalled ops at 2 cycles = 9 cycles.
    assert_eq!(latency.get("sum").and_then(Json::as_u64), Some(9));

    let runs = snapshot
        .get("histograms")
        .and_then(|h| h.get("vlsa.pipeline.stall_run_ops"))
        .expect("stall-run histogram");
    assert_eq!(runs.get("count").and_then(Json::as_u64), Some(1));
    assert_eq!(runs.get("max").and_then(Json::as_u64), Some(3));
}

#[test]
fn trailing_stall_run_is_flushed() {
    let scope = ScopedRecorder::install();
    pipeline(16, 4).run(&adversarial_operands(16, 2));
    let registry = scope.registry();
    let hist = registry.histogram(
        "vlsa.pipeline.stall_run_ops",
        vlsa_telemetry::DEFAULT_BUCKETS,
    );
    assert_eq!(hist.count(), 1);
    assert_eq!(hist.max(), Some(2));
}

#[test]
fn queued_run_records_waits_drops_and_occupancy() {
    let scope = ScopedRecorder::install();

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let stats = pipeline(32, 4)
        .run_queued_ops(
            QueueConfig {
                arrival_prob: 1.0,
                capacity: 4,
            },
            5_000,
            &mut rng,
            |_| ((1u64 << 31) - 1, 1),
        )
        .expect("valid queue config");

    let registry = scope.registry();
    assert_eq!(
        registry.counter_value("vlsa.pipeline.queue_arrivals"),
        stats.arrivals
    );
    assert_eq!(
        registry.counter_value("vlsa.pipeline.queue_completed"),
        stats.completed
    );
    assert_eq!(
        registry.counter_value("vlsa.pipeline.queue_dropped"),
        stats.dropped
    );
    assert_eq!(
        registry.counter_value("vlsa.pipeline.queue_recovery_cycles"),
        stats.recovery_cycles
    );
    assert!(
        (registry.gauge_value("vlsa.pipeline.queue_mean_len") - stats.mean_queue_len()).abs()
            < 1e-12
    );
    assert_eq!(
        registry.gauge_value("vlsa.pipeline.queue_max_len"),
        stats.max_queue_len as f64
    );

    // The wait histogram aggregates exactly the completed ops, and its
    // mean reproduces QueueStats::mean_wait.
    let hist = registry.histogram(
        "vlsa.pipeline.queue_wait_cycles",
        vlsa_telemetry::DEFAULT_BUCKETS,
    );
    assert_eq!(hist.count(), stats.completed);
    assert_eq!(hist.sum(), stats.total_wait_cycles);
    assert!((hist.mean().expect("non-empty") - stats.mean_wait()).abs() < 1e-12);
}

#[test]
fn disabled_telemetry_records_nothing() {
    // A scope live on this thread sees nothing of a thread without one.
    let scope = ScopedRecorder::install();
    std::thread::spawn(|| {
        assert!(!vlsa_telemetry::is_enabled());
        pipeline(16, 4).run(&[(1, 2), (3, 4)]);
    })
    .join()
    .expect("unscoped thread");
    assert_eq!(scope.registry().counter_value("vlsa.pipeline.ops"), 0);
}
