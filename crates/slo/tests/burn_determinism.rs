//! Deterministic burn-rate correctness: the acceptance tests for the
//! SLO engine.
//!
//! Everything runs in modeled time against the *standard* (production)
//! windows, so these tests pin down the real alerting behaviour —
//! detection latency to the ring bucket, zero false positives on clean
//! and sub-budget streams, clear-after-recovery — without a wall clock
//! anywhere.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vlsa_slo::{AlertState, Objectives, Severity, SloAlert, SloEngine, SloTracker};

const SECOND_NS: u64 = 1_000_000_000;

/// The standard availability tracker (99.9% target: fast page ×14.4
/// over 1h/5m, slow warn ×6 over 6h/30m).
fn availability_tracker() -> SloTracker {
    SloTracker::new(Objectives::standard().specs().remove(0))
}

/// Drives `tracker` with `rate` events/s at `bad_fraction` for
/// `seconds`, ticking every `tick_s`, starting at `start_s`. Returns
/// every alert transition with the tick (in seconds) it fired at.
fn drive(
    tracker: &mut SloTracker,
    start_s: u64,
    seconds: u64,
    tick_s: u64,
    rate: u64,
    bad_per_tick: u64,
) -> Vec<(u64, SloAlert)> {
    let mut out = Vec::new();
    let mut t = start_s;
    while t < start_s + seconds {
        let now_ns = t * SECOND_NS;
        let total = rate * tick_s;
        let bad = bad_per_tick.min(total);
        tracker.record(now_ns, total - bad, bad);
        for alert in tracker.evaluate(now_ns) {
            out.push((t, alert));
        }
        t += tick_s;
    }
    out
}

#[test]
fn null_stream_produces_zero_alerts_across_a_hundred_windows() {
    // 100 fast-rule long windows (100 h) of clean traffic at 100 ops/s,
    // evaluated every 10 s: not a single transition may fire.
    let mut tracker = availability_tracker();
    let alerts = drive(&mut tracker, 0, 100 * 3600, 10, 100, 0);
    assert!(alerts.is_empty(), "false positives: {alerts:?}");
    assert!(!tracker.firing(Severity::Page));
    assert!(!tracker.firing(Severity::Warn));
    assert_eq!(tracker.budget_consumed(), 0.0);
}

#[test]
fn sub_budget_error_rate_stays_silent() {
    // Bad fraction at half the budget (0.05% against a 0.1% budget):
    // burn rate 0.5, far under both factors, for 24 modeled hours.
    let mut tracker = availability_tracker();
    let alerts = drive(&mut tracker, 0, 24 * 3600, 10, 200, 1);
    assert!(alerts.is_empty(), "false positives: {alerts:?}");
    let burn = tracker.burn_rate(24 * 3600 * SECOND_NS, 3600 * SECOND_NS);
    assert!((burn - 0.5).abs() < 0.05, "burn {burn}");
}

#[test]
fn fast_burn_fires_within_the_analytic_detection_bound() {
    // One hour of clean traffic, then a total outage. The fast rule's
    // long window (1 h) is the binding constraint: it needs a bad
    // fraction of factor × budget = 14.4 × 0.001, which a total outage
    // accumulates in 14.4 × 0.001 × 3600 s = 51.84 s. The ring
    // quantizes in 37.5 s buckets (5 m / 8), so detection must land
    // within one bucket either side of the analytic bound.
    let mut tracker = availability_tracker();
    let warmup = drive(&mut tracker, 0, 3600, 1, 100, 0);
    assert!(warmup.is_empty());
    let outage = drive(&mut tracker, 3600, 600, 1, 100, 100);
    let (fired_at, alert) = outage
        .iter()
        .find(|(_, a)| a.rule == "fast_burn" && a.state == AlertState::Firing)
        .expect("fast burn must fire during a total outage");
    let into_outage = fired_at - 3600;
    let bound_s = 14.4 * 0.001 * 3600.0; // 51.84 s
    let bucket_s = 300.0 / 8.0; // 37.5 s
    assert!(
        (into_outage as f64) >= bound_s - bucket_s && (into_outage as f64) <= bound_s + bucket_s,
        "fired {into_outage}s into the outage; analytic bound {bound_s}s ± {bucket_s}s"
    );
    assert_eq!(alert.severity, Severity::Page);
    assert!(alert.burn_long >= 14.4 && alert.burn_short >= 14.4);
}

#[test]
fn fast_burn_clears_quickly_after_recovery() {
    let mut tracker = availability_tracker();
    drive(&mut tracker, 0, 3600, 1, 100, 0);
    let outage = drive(&mut tracker, 3600, 120, 1, 100, 100);
    assert!(outage
        .iter()
        .any(|(_, a)| a.rule == "fast_burn" && a.state == AlertState::Firing));
    assert!(tracker.firing(Severity::Page));
    // Recovery: the short window (5 m) un-fires the rule long before
    // the long window forgets the outage. One extra ring bucket of
    // grace on top of the 300 s window.
    let recovery = drive(&mut tracker, 3720, 600, 1, 100, 0);
    let (cleared_at, _) = recovery
        .iter()
        .find(|(_, a)| a.rule == "fast_burn" && a.state == AlertState::Cleared)
        .expect("fast burn must clear after recovery");
    let into_recovery = cleared_at - 3720;
    assert!(
        into_recovery <= 300 + 38,
        "cleared {into_recovery}s into recovery; short window is 300s"
    );
    assert!(!tracker.firing(Severity::Page));
}

#[test]
fn moderate_burn_warns_without_paging() {
    // Bad fraction of 1% against a 0.1% budget: burn rate 10 — above
    // the slow factor (6), below the fast factor (14.4). Only the slow
    // warn rule may fire, and only after its 6 h long window fills.
    let mut tracker = availability_tracker();
    let alerts = drive(&mut tracker, 0, 12 * 3600, 10, 100, 10);
    assert!(!alerts.is_empty(), "slow burn never fired");
    for (_, alert) in &alerts {
        assert_eq!(alert.rule, "slow_burn", "{alert}");
        assert_eq!(alert.severity, Severity::Warn);
    }
    assert!(tracker.firing(Severity::Warn));
    assert!(!tracker.firing(Severity::Page));
}

#[test]
fn identical_streams_produce_identical_alert_timelines() {
    // The determinism contract: same events, same timestamps → the
    // same transitions at the same modeled times, run-to-run.
    let run = || {
        let mut tracker = availability_tracker();
        let mut alerts = drive(&mut tracker, 0, 3600, 1, 100, 0);
        alerts.extend(drive(&mut tracker, 3600, 300, 1, 100, 100));
        alerts.extend(drive(&mut tracker, 3900, 900, 1, 100, 0));
        alerts
            .into_iter()
            .map(|(t, a)| (t, a.rule, a.state, a.at_ns))
            .collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second);
}

#[test]
fn demo_windows_compress_the_same_shape_into_seconds() {
    // The CI smoke job runs against demo windows; assert the compressed
    // detection bound here so the smoke job's timing assumptions are
    // pinned by a test: 14.4 × 0.01 × 10 s = 1.44 s, bucket 0.25 s.
    let mut tracker = SloTracker::new(Objectives::demo().specs().remove(0));
    // 60 s of clean traffic at 200 ops/s, ticking every 100 ms.
    for i in 0..600u64 {
        let now = i * SECOND_NS / 10;
        tracker.record(now, 20, 0);
        assert!(tracker.evaluate(now).is_empty());
    }
    // Total outage.
    let mut fired = None;
    for i in 600..900u64 {
        let now = i * SECOND_NS / 10;
        tracker.record(now, 0, 20);
        if tracker
            .evaluate(now)
            .iter()
            .any(|a| a.rule == "fast_burn" && a.state == AlertState::Firing)
        {
            fired = Some((i - 600) as f64 / 10.0);
            break;
        }
    }
    let t_fire = fired.expect("demo fast burn fired");
    assert!(
        (1.0..=2.0).contains(&t_fire),
        "fired after {t_fire}s; bound 1.44s ± 0.25s"
    );
}

#[test]
fn correctness_page_degrades_the_fleet_and_counts_in_telemetry() {
    let scope = vlsa_telemetry::ScopedRecorder::install();
    let mut engine = SloEngine::new(Objectives::demo());
    let flags: Vec<Arc<AtomicBool>> = (0..4).map(|_| Arc::new(AtomicBool::new(false))).collect();
    engine.set_degrade_signals(flags.clone());
    // Clean co-traffic on every SLO, then a correctness collapse.
    for i in 0..60u64 {
        let now = i * SECOND_NS;
        engine.record_availability(now, 1_000, 0);
        engine.record_latency(now, 1_000, 0);
        engine.record_correctness(now, 1_000, 0);
        assert!(engine.evaluate(now).is_empty());
    }
    assert!(flags.iter().all(|f| !f.load(Ordering::Relaxed)));
    let mut paged = false;
    for i in 60..120u64 {
        let now = i * SECOND_NS;
        engine.record_availability(now, 1_000, 0);
        engine.record_latency(now, 1_000, 0);
        engine.record_correctness(now, 0, 1_000);
        for alert in engine.evaluate(now) {
            if alert.slo == "correctness" && alert.severity == Severity::Page {
                paged = true;
            }
        }
        if paged {
            break;
        }
    }
    assert!(paged, "correctness page never fired");
    assert!(
        flags.iter().all(|f| f.load(Ordering::Relaxed)),
        "a paging correctness budget must flip every shard's degrade flag"
    );
    assert!(engine.pages_firing() >= 1);
    let registry = scope.registry();
    assert!(registry.counter_value(vlsa_telemetry::names::slo::ALERTS) >= 1);
    assert!(registry.counter_value(vlsa_telemetry::names::slo::PAGES) >= 1);
    let status = engine.status(120 * SECOND_NS);
    assert_eq!(
        status
            .get("pages_firing")
            .and_then(vlsa_telemetry::Json::as_u64),
        Some(engine.pages_firing() as u64)
    );
}
