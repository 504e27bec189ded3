//! Implementation of the `monitor` binary: the end-to-end conformance
//! monitoring demo.
//!
//! One process tells the whole story: a uniform operand stream sails
//! through the monitored pipeline with zero alerts, then a biased
//! stream drifts away from the paper's operand model and the drift is
//! visible *simultaneously* in the Prometheus exposition, the JSON
//! snapshot, and a Chrome-trace instant span — and the alert trips the
//! degrade signal a [`ResilientPipeline`] polls, so the final segment
//! runs pre-emptively degraded to the exact adder.

use crate::report::Report;
use crate::PAPER_ACCURACY;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vlsa_core::SpeculativeAdder;
use vlsa_monitor::{exposition, ConformanceMonitor, MonitorConfig};
use vlsa_pipeline::{
    biased_operands, random_operands, ResilienceConfig, ResilientPipeline, VlsaPipeline,
};
use vlsa_telemetry::{Json, Registry, ScopedRecorder};
use vlsa_trace::{chrome_trace, ScopedTrace};

/// Parameters of the monitoring demo.
#[derive(Clone, Copy, Debug)]
pub struct MonitorDemoConfig {
    /// Conformance windows of uniform traffic.
    pub uniform_windows: u64,
    /// Conformance windows of biased traffic.
    pub biased_windows: u64,
    /// Operations per conformance window.
    pub window_ops: u64,
    /// Per-bit density of the biased stream's XOR mask (uniform would
    /// be 0.5; higher means longer propagate runs).
    pub bias: f64,
    /// Operations of the final pre-emptively degraded segment.
    pub degraded_ops: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MonitorDemoConfig {
    fn default() -> MonitorDemoConfig {
        MonitorDemoConfig {
            uniform_windows: 4,
            biased_windows: 2,
            window_ops: 4096,
            bias: 0.8,
            degraded_ops: 256,
            seed: 0xACA,
        }
    }
}

/// Everything the demo produced.
#[derive(Debug)]
pub struct MonitorDemo {
    /// The `BENCH_monitor.json` document.
    pub report: Report,
    /// Prometheus text exposition of the full run's registry.
    pub exposition: String,
    /// The biased monitor's `/snapshot` document.
    pub snapshot: Json,
    /// Chrome trace of the full run (uniform + biased + degraded).
    pub trace_doc: Json,
    /// The registry the run recorded into (for a scrape endpoint).
    pub registry: Arc<Registry>,
    /// Alerts raised on the uniform segment (must be 0).
    pub uniform_alerts: usize,
    /// Alerts raised on the biased segment (must be > 0).
    pub biased_alerts: usize,
    /// Whether the resilient segment degraded before its first op.
    pub preemptive_degrade: bool,
}

/// Runs the demo: uniform traffic, biased traffic, degraded tail.
///
/// # Panics
///
/// Panics if the configuration cannot form a conformance test (see
/// [`MonitorConfig`]) or an internal invariant breaks.
pub fn run_monitor_demo(cfg: &MonitorDemoConfig) -> MonitorDemo {
    let scope = ScopedRecorder::install();
    let total_ops = (cfg.uniform_windows + cfg.biased_windows) * cfg.window_ops;
    // Worst case per op is five pipeline spans; monitor windows and
    // alerts add a handful more.
    let trace_scope = ScopedTrace::install(total_ops as usize * 6 + cfg.degraded_ops * 4 + 64);
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let adder = SpeculativeAdder::for_accuracy(64, PAPER_ACCURACY).expect("valid design point");
    let window = adder.window();
    let monitor_config = MonitorConfig::new(64, window).with_window_ops(cfg.window_ops);

    // Segment 1: uniform traffic conforms to the model.
    let mut uniform_monitor = ConformanceMonitor::new(monitor_config);
    let mut pipe = VlsaPipeline::new(adder);
    let uniform_ops = cfg.uniform_windows * cfg.window_ops;
    pipe.run_observed(
        &random_operands(64, uniform_ops as usize, &mut rng),
        |sample| {
            uniform_monitor.observe(sample.a, sample.b, sample.stalled, sample.latency_cycles);
        },
    );
    uniform_monitor.finish();

    // Segment 2: biased traffic drifts; the monitor must notice and
    // trip the degrade signal.
    let degrade_signal = Arc::new(AtomicBool::new(false));
    let mut biased_monitor = ConformanceMonitor::new(monitor_config);
    biased_monitor.set_degrade_signal(Arc::clone(&degrade_signal));
    let biased_ops = cfg.biased_windows * cfg.window_ops;
    pipe.run_observed(
        &biased_operands(64, biased_ops as usize, cfg.bias, &mut rng),
        |sample| {
            biased_monitor.observe(sample.a, sample.b, sample.stalled, sample.latency_cycles);
        },
    );
    biased_monitor.finish();

    // Segment 3: the resilient pipeline sees the tripped signal and
    // serves the rest of the stream on the exact adder.
    let mut resilient = ResilientPipeline::new(adder, ResilienceConfig::default())
        .with_degrade_signal(Arc::clone(&degrade_signal));
    let rtrace = resilient.run(&biased_operands(64, cfg.degraded_ops, cfg.bias, &mut rng));
    let preemptive_degrade = degrade_signal.load(Ordering::Relaxed)
        && rtrace.stats.degraded_ops == rtrace.stats.ops
        && rtrace.stats.degrade_transitions == 1;

    let registry = Arc::clone(scope.registry());
    let exposition_text = exposition(&registry);
    let snapshot = biased_monitor.to_json();
    let events = trace_scope.drain();
    assert_eq!(trace_scope.recorder().dropped(), 0, "trace ring overflow");
    let trace_doc = chrome_trace(&events).set(
        "vlsa",
        Json::obj()
            .set("mode", "monitor")
            .set("nbits", 64u64)
            .set("window", window as u64)
            .set("seed", cfg.seed)
            .set("uniform_ops", uniform_ops)
            .set("biased_ops", biased_ops)
            .set("alerts", biased_monitor.alerts().len() as u64),
    );
    drop(trace_scope);

    let mut report = Report::new("monitor");
    report
        .set("nbits", 64u64)
        .set("window", window as u64)
        .set("window_ops", cfg.window_ops)
        .set("bias", cfg.bias)
        .set("uniform_ops", uniform_ops)
        .set("uniform_alerts", uniform_monitor.alerts().len() as u64)
        .set("biased_ops", biased_ops)
        .set("biased_alerts", biased_monitor.alerts().len() as u64)
        .set(
            "alert_records",
            Json::Arr(
                biased_monitor
                    .alerts()
                    .iter()
                    .map(|alert| alert.to_json())
                    .collect(),
            ),
        )
        .set("snapshot", snapshot.clone())
        .set("preemptive_degrade", preemptive_degrade)
        .set("degraded_ops", rtrace.stats.degraded_ops);
    report.attach_registry(&registry);

    MonitorDemo {
        report,
        exposition: exposition_text,
        snapshot,
        trace_doc,
        registry,
        uniform_alerts: uniform_monitor.alerts().len(),
        biased_alerts: biased_monitor.alerts().len(),
        preemptive_degrade,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MonitorDemoConfig {
        MonitorDemoConfig {
            uniform_windows: 2,
            biased_windows: 1,
            window_ops: 2048,
            degraded_ops: 64,
            ..MonitorDemoConfig::default()
        }
    }

    #[test]
    fn demo_tells_the_drift_story_in_all_three_surfaces() {
        let demo = run_monitor_demo(&small());
        assert_eq!(demo.uniform_alerts, 0);
        assert!(demo.biased_alerts > 0);
        assert!(demo.preemptive_degrade);

        // Surface 1: the Prometheus exposition counts the alerts.
        assert!(
            demo.exposition
                .contains("# TYPE vlsa_monitor_alerts_total counter"),
            "{}",
            demo.exposition
        );
        let count = demo
            .exposition
            .lines()
            .find_map(|l| l.strip_prefix("vlsa_monitor_alerts_total "))
            .expect("alerts sample")
            .parse::<u64>()
            .expect("numeric");
        assert_eq!(count, demo.biased_alerts as u64);

        // Surface 2: the JSON snapshot carries the typed alert records.
        let snapshot = Json::parse(&demo.snapshot.to_string()).expect("valid JSON");
        let alerts = snapshot
            .get("alerts")
            .and_then(Json::as_arr)
            .expect("alerts array");
        assert_eq!(alerts.len(), demo.biased_alerts);
        assert!(alerts
            .iter()
            .any(|a| a.get("kind").and_then(Json::as_str) == Some("spectrum_drift")));

        // Surface 3: the Chrome trace has the alert instant span (and
        // the window spans around it).
        let text = demo.trace_doc.to_string();
        assert!(text.contains("\"alert\""), "no alert span");
        assert!(text.contains("\"window\""), "no window span");
        assert!(text.contains("\"degrade\""), "no pre-emptive degrade span");

        // And the report ties it together.
        let doc = Json::parse(&demo.report.to_json().to_string()).expect("valid JSON");
        assert_eq!(doc.get("uniform_alerts").and_then(Json::as_u64), Some(0));
        assert!(doc.get("biased_alerts").and_then(Json::as_u64).expect("n") > 0);
        assert_eq!(doc.get("preemptive_degrade"), Some(&Json::Bool(true)));
    }
}
