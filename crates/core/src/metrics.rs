//! Telemetry hooks for the software adder model.
//!
//! Metric names (scheme `vlsa.<crate>.<metric>`):
//!
//! - `vlsa.core.adds` — speculative additions performed
//! - `vlsa.core.detector_fires` — additions where the `ER` signal rose
//! - `vlsa.core.true_errors` — additions whose speculative sum was wrong
//! - `vlsa.core.false_positives` — detector fired but the speculation
//!   was correct (`error_detected && speculative == exact`)
//!
//! Everything is gated on [`vlsa_telemetry::recorder`], so the cost
//! while no scope is live is one relaxed atomic load per addition.

/// Records one speculative addition's outcome.
#[inline]
pub(crate) fn record_add(error_detected: bool, correct: bool) {
    let Some(recorder) = vlsa_telemetry::recorder() else {
        return;
    };
    recorder.counter("vlsa.core.adds").incr();
    if error_detected {
        recorder.counter("vlsa.core.detector_fires").incr();
        if correct {
            recorder.counter("vlsa.core.false_positives").incr();
        }
    }
    if !correct {
        recorder.counter("vlsa.core.true_errors").incr();
    }
}
