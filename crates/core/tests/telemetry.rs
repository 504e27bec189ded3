//! Exact-count checks for the `vlsa.core.*` speculation metrics.
//!
//! Each test records into its own thread's scope, so tests running in
//! parallel never see each other's adds.

use vlsa_core::SpeculativeAdder;
use vlsa_telemetry::ScopedRecorder;

#[test]
fn add_outcomes_are_counted_exactly() {
    let scope = ScopedRecorder::install();

    // Clean add: no detection, correct.
    let adder = SpeculativeAdder::new(8, 3).expect("valid");
    assert!(!adder.add_u64(1, 2).error_detected);

    // True error: full-width propagate run, detected and wrong.
    let r = adder.add_u64(0b0111_1111, 1);
    assert!(r.error_detected && !r.is_correct());

    // False positive: long propagate run with no carry entering it.
    let fp_adder = SpeculativeAdder::new(16, 4).expect("valid");
    let r = fp_adder.add_u64(0b0000_1111_1111_0000, 0b1111_0000_0000_0000);
    assert!(r.is_false_alarm());

    let registry = scope.registry();
    assert_eq!(registry.counter_value("vlsa.core.adds"), 3);
    assert_eq!(registry.counter_value("vlsa.core.detector_fires"), 2);
    assert_eq!(registry.counter_value("vlsa.core.true_errors"), 1);
    assert_eq!(registry.counter_value("vlsa.core.false_positives"), 1);
}

#[test]
fn wide_adds_record_too() {
    let scope = ScopedRecorder::install();

    let adder = SpeculativeAdder::new(128, 128).expect("valid");
    let r = adder.add_wide(&[u64::MAX, 0], &[1, 0]);
    assert!(r.is_correct());

    let registry = scope.registry();
    assert_eq!(registry.counter_value("vlsa.core.adds"), 1);
    assert_eq!(registry.counter_value("vlsa.core.true_errors"), 0);
}

#[test]
fn disabled_telemetry_records_nothing() {
    // A scope live on this thread sees nothing of a thread without one.
    let scope = ScopedRecorder::install();
    std::thread::spawn(|| {
        assert!(!vlsa_telemetry::is_enabled());
        assert!(vlsa_telemetry::recorder().is_none());
        let adder = SpeculativeAdder::new(8, 3).expect("valid");
        let _ = adder.add_u64(3, 4);
    })
    .join()
    .expect("unscoped thread");
    assert_eq!(scope.registry().counter_value("vlsa.core.adds"), 0);
}

#[test]
fn false_positive_rate_sits_between_error_and_detection_probability() {
    let scope = ScopedRecorder::install();

    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let adder = SpeculativeAdder::new(64, 6).expect("valid");
    let trials = 20_000u64;
    for _ in 0..trials {
        let _ = adder.add_u64(rng.gen(), rng.gen());
    }

    let registry = scope.registry();
    let adds = registry.counter_value("vlsa.core.adds");
    let fires = registry.counter_value("vlsa.core.detector_fires");
    let errors = registry.counter_value("vlsa.core.true_errors");
    let false_pos = registry.counter_value("vlsa.core.false_positives");
    assert_eq!(adds, trials);
    // The detector never misses: every true error fires it, and the
    // extra fires are exactly the false positives.
    assert_eq!(fires, errors + false_pos);
    assert!(
        errors > 0 && false_pos > 0,
        "errors={errors} false_pos={false_pos}"
    );
    // Measured rates track the analytic model within loose tolerance.
    let fire_rate = fires as f64 / adds as f64;
    let predicted = adder.detection_probability();
    assert!(
        (fire_rate - predicted).abs() < 0.25 * predicted + 0.003,
        "fire_rate={fire_rate} predicted={predicted}"
    );
}
