//! The live conformance monitor: windowed online estimators over the
//! operand stream, checked against the paper's exact model at every
//! window close, with alerts bridged into telemetry, traces, and an
//! optional pre-emptive degrade signal.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vlsa_runstats::{longest_one_run_u64, prob_longest_run_le};
use vlsa_telemetry::names::monitor as metric;
use vlsa_telemetry::Json;
use vlsa_trace::{names as span, TraceEvent};

use crate::alert::{Alert, AlertKind, TraceExemplars};
use crate::conformance::{CusumTracker, SpectrumModel};

/// Configuration of a [`ConformanceMonitor`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitorConfig {
    /// Operand bitwidth of the monitored adder.
    pub nbits: usize,
    /// Speculation window `k` of the monitored adder (an op stalls when
    /// its longest propagate run is `>= k`).
    pub window: usize,
    /// Operations per conformance window.
    pub window_ops: u64,
    /// Significance level of the spectrum goodness-of-fit test; a
    /// window whose p-value falls below this raises
    /// [`AlertKind::SpectrumDrift`].
    pub alpha: f64,
    /// Minimum expected count per chi-square bin (classic validity
    /// floor; adjacent run lengths are merged until every bin clears
    /// it).
    pub min_expected: f64,
    /// Stall-rate inflation the CUSUM is tuned to detect quickly
    /// (`λ1 = ratio · λ0`).
    pub cusum_ratio: f64,
    /// CUSUM decision interval; crossing it raises
    /// [`AlertKind::ErrorRateDrift`].
    pub cusum_h: f64,
}

impl MonitorConfig {
    /// Defaults tuned for demo-scale streams: 4096-op windows, a 0.1%
    /// false-alarm budget per window, the textbook expected-count floor
    /// of 5, and a CUSUM sized to catch a 4x stall-rate inflation.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < window <= nbits <= 64`.
    pub fn new(nbits: usize, window: usize) -> MonitorConfig {
        assert!(
            0 < window && window <= nbits && nbits <= 64,
            "need 0 < window <= nbits <= 64 (got window={window}, nbits={nbits})"
        );
        MonitorConfig {
            nbits,
            window,
            window_ops: 4096,
            alpha: 1e-3,
            min_expected: 5.0,
            cusum_ratio: 4.0,
            cusum_h: 5.0,
        }
    }

    /// Sets the conformance window size in operations.
    pub fn with_window_ops(mut self, window_ops: u64) -> MonitorConfig {
        self.window_ops = window_ops;
        self
    }

    /// Sets the spectrum-test significance level.
    pub fn with_alpha(mut self, alpha: f64) -> MonitorConfig {
        self.alpha = alpha;
        self
    }

    /// Probability that a uniform operand pair stalls this adder:
    /// `P(L >= window)` from the exact recurrence.
    pub fn stall_probability(&self) -> f64 {
        1.0 - prob_longest_run_le(self.nbits, self.window - 1)
    }

    /// Expected stalls per conformance window under the model.
    pub fn expected_stalls_per_window(&self) -> f64 {
        self.stall_probability() * self.window_ops as f64
    }

    /// The configuration as a JSON object (embedded in snapshots).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("nbits", self.nbits as u64)
            .set("window", self.window as u64)
            .set("window_ops", self.window_ops)
            .set("alpha", self.alpha)
            .set("min_expected", self.min_expected)
            .set("cusum_ratio", self.cusum_ratio)
            .set("cusum_h", self.cusum_h)
            .set("expected_stall_rate", self.stall_probability())
    }
}

/// The evaluated result of one closed conformance window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowReport {
    /// 0-based window index.
    pub index: u64,
    /// Operations in the window.
    pub ops: u64,
    /// Stalled (speculation-error) operations.
    pub stalls: u64,
    /// `stalls / ops`.
    pub stall_rate: f64,
    /// Mean observed latency in cycles.
    pub mean_latency: f64,
    /// Pearson chi-square of the run-length spectrum against the exact
    /// model, when the window was full enough to test.
    pub chi2: Option<f64>,
    /// Its p-value.
    pub p_value: Option<f64>,
    /// Degrees of freedom of the spectrum test.
    pub dof: usize,
    /// CUSUM value after this window.
    pub cusum: f64,
    /// Alerts this window raised (0, 1, or 2).
    pub alerts: usize,
}

impl WindowReport {
    /// The report as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .set("index", self.index)
            .set("ops", self.ops)
            .set("stalls", self.stalls)
            .set("stall_rate", self.stall_rate)
            .set("mean_latency", self.mean_latency)
            .set("dof", self.dof as u64)
            .set("cusum", self.cusum)
            .set("alerts", self.alerts as u64);
        if let (Some(chi2), Some(p)) = (self.chi2, self.p_value) {
            doc = doc.set("chi2", chi2).set("p_value", p);
        }
        doc
    }
}

/// Watches the live operand stream of a speculative adder and checks,
/// window by window, that it still matches the uniform-operand model
/// the adder's speculation window was sized against.
///
/// Per-op work is a handful of integer operations on plain fields (one
/// `longest_one_run_u64`, three adds, a vector bump) — no atomics, no
/// locking. All telemetry is flushed in bulk when a window closes.
#[derive(Debug)]
pub struct ConformanceMonitor {
    config: MonitorConfig,
    model: SpectrumModel,
    cusum: CusumTracker,
    degrade_signal: Option<Arc<AtomicBool>>,

    // Current-window accumulators.
    ops_in_window: u64,
    stalls_in_window: u64,
    latency_in_window: u64,
    spectrum: Vec<u64>,
    window_start_cycle: u64,
    window_exemplars: TraceExemplars,

    // Stream totals.
    cycles: u64,
    total_ops: u64,
    total_stalls: u64,
    windows: Vec<WindowReport>,
    alerts: Vec<Alert>,
}

impl ConformanceMonitor {
    /// A monitor for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.window_ops` is too small to support a spectrum
    /// test at `config.min_expected` (see [`SpectrumModel::new`]).
    pub fn new(config: MonitorConfig) -> ConformanceMonitor {
        let model = SpectrumModel::new(config.nbits, config.window_ops, config.min_expected);
        let cusum = CusumTracker::new(
            config.expected_stalls_per_window(),
            config.cusum_ratio,
            config.cusum_h,
        );
        ConformanceMonitor {
            spectrum: vec![0; config.nbits + 1],
            config,
            model,
            cusum,
            degrade_signal: None,
            ops_in_window: 0,
            stalls_in_window: 0,
            latency_in_window: 0,
            window_start_cycle: 0,
            window_exemplars: TraceExemplars::default(),
            cycles: 0,
            total_ops: 0,
            total_stalls: 0,
            windows: Vec::new(),
            alerts: Vec::new(),
        }
    }

    /// The configuration the monitor was built with.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Registers a flag the monitor sets on its first alert, typically
    /// shared with `ResilientPipeline::set_degrade_signal` so drift
    /// pre-emptively degrades speculation to the exact adder.
    pub fn set_degrade_signal(&mut self, signal: Arc<AtomicBool>) {
        self.degrade_signal = Some(signal);
    }

    /// Notes that a *sampled* (traced) request contributed operations
    /// to the current window. The most recent few ids are retained and
    /// attached as `trace_exemplars` to any alert the window raises, so
    /// a drift alert links directly to span trees of the traffic that
    /// triggered it. Ids of 0 are ignored.
    pub fn note_exemplar(&mut self, trace_id: u64) {
        self.window_exemplars.push(trace_id);
    }

    /// Feeds one observed operation: the (already width-masked)
    /// operands, whether the op stalled, and its latency in cycles.
    /// Closes and evaluates a window every `window_ops` calls.
    pub fn observe(&mut self, a: u64, b: u64, stalled: bool, latency_cycles: u64) {
        let run = (longest_one_run_u64(a ^ b) as usize).min(self.config.nbits);
        self.spectrum[run] += 1;
        self.ops_in_window += 1;
        self.stalls_in_window += u64::from(stalled);
        self.latency_in_window += latency_cycles;
        self.cycles += latency_cycles;
        if self.ops_in_window == self.config.window_ops {
            self.close_window(true);
        }
    }

    /// Closes any partial window (flushing its estimators without
    /// running the conformance tests — a short tail can't support
    /// them) and returns the full window history.
    pub fn finish(&mut self) -> &[WindowReport] {
        if self.ops_in_window > 0 {
            self.close_window(false);
        }
        &self.windows
    }

    /// Evaluated windows so far.
    pub fn windows(&self) -> &[WindowReport] {
        &self.windows
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Total operations observed.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Full state as one JSON object: configuration, stream totals,
    /// every window report, and every alert. This is what the scrape
    /// endpoint serves at `/snapshot`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("config", self.config.to_json())
            .set("total_ops", self.total_ops)
            .set("total_stalls", self.total_stalls)
            .set(
                "windows",
                Json::Arr(self.windows.iter().map(WindowReport::to_json).collect()),
            )
            .set(
                "alerts",
                Json::Arr(self.alerts.iter().map(Alert::to_json).collect()),
            )
    }

    fn close_window(&mut self, full: bool) {
        let index = self.windows.len() as u64;
        let ops = self.ops_in_window;
        let stalls = self.stalls_in_window;
        let stall_rate = stalls as f64 / ops as f64;
        let mean_latency = self.latency_in_window as f64 / ops as f64;

        let mut alerts_raised = 0;
        let (mut chi2, mut p_value) = (None, None);
        if full {
            let (stat, p) = self.model.chi_square(&self.spectrum, ops);
            chi2 = Some(stat);
            p_value = Some(p);
            if p < self.config.alpha {
                self.raise(Alert {
                    window: index,
                    ops,
                    stalls,
                    kind: AlertKind::SpectrumDrift {
                        chi2: stat,
                        p_value: p,
                        dof: self.model.dof(),
                    },
                    trace_exemplars: self.window_exemplars,
                });
                alerts_raised += 1;
            }
            let cusum_before = self.cusum.value() + stalls as f64 - self.cusum.k_ref();
            if self.cusum.observe(stalls) {
                self.raise(Alert {
                    window: index,
                    ops,
                    stalls,
                    kind: AlertKind::ErrorRateDrift {
                        cusum: cusum_before,
                        h: self.cusum.h(),
                        observed: stalls,
                        expected: self.config.expected_stalls_per_window(),
                    },
                    trace_exemplars: self.window_exemplars,
                });
                alerts_raised += 1;
            }
        }

        let report = WindowReport {
            index,
            ops,
            stalls,
            stall_rate,
            mean_latency,
            chi2,
            p_value,
            dof: self.model.dof(),
            cusum: self.cusum.value(),
            alerts: alerts_raised,
        };
        self.flush_telemetry(&report);
        if vlsa_trace::is_enabled() {
            let dur = self.cycles - self.window_start_cycle;
            vlsa_trace::record(
                TraceEvent::complete(span::WINDOW, "monitor", self.window_start_cycle, dur.max(1))
                    .on_track(4)
                    .arg("index", index)
                    .arg("ops", ops)
                    .arg("stalls", stalls)
                    .arg("alerts", alerts_raised as u64),
            );
        }
        self.windows.push(report);

        self.total_ops += ops;
        self.total_stalls += stalls;
        self.ops_in_window = 0;
        self.stalls_in_window = 0;
        self.latency_in_window = 0;
        self.spectrum.iter_mut().for_each(|n| *n = 0);
        self.window_start_cycle = self.cycles;
        self.window_exemplars = TraceExemplars::default();
    }

    fn raise(&mut self, alert: Alert) {
        if let Some(signal) = &self.degrade_signal {
            signal.store(true, Ordering::Relaxed);
        }
        if let Some(registry) = vlsa_telemetry::recorder() {
            registry.counter(metric::ALERTS).incr();
            registry
                .counter(match alert.kind {
                    AlertKind::SpectrumDrift { .. } => metric::SPECTRUM_ALERTS,
                    AlertKind::ErrorRateDrift { .. } => metric::ERROR_RATE_ALERTS,
                })
                .incr();
        }
        if vlsa_trace::is_enabled() {
            let evidence = match alert.kind {
                AlertKind::SpectrumDrift { chi2, .. } => ("chi2_x1000", (chi2 * 1000.0) as u64),
                AlertKind::ErrorRateDrift { cusum, .. } => ("cusum_x1000", (cusum * 1000.0) as u64),
            };
            vlsa_trace::record(
                TraceEvent::instant(span::ALERT, "monitor", self.cycles)
                    .on_track(4)
                    .arg("window", alert.window)
                    .arg("stalls", alert.stalls)
                    .arg(evidence.0, evidence.1),
            );
        }
        self.alerts.push(alert);
    }

    fn flush_telemetry(&self, report: &WindowReport) {
        let Some(registry) = vlsa_telemetry::recorder() else {
            return;
        };
        registry.counter(metric::OPS).add(report.ops);
        registry.counter(metric::WINDOWS).incr();
        registry.gauge(metric::STALL_RATE).set(report.stall_rate);
        registry
            .gauge(metric::EFFECTIVE_LATENCY)
            .set(report.mean_latency);
        registry.gauge(metric::CUSUM).set(report.cusum);
        if let (Some(chi2), Some(p)) = (report.chi2, report.p_value) {
            registry.gauge(metric::CHI2).set(chi2);
            registry.gauge(metric::CHI2_P).set(p);
        }
        let bounds: Vec<u64> = (1..=self.config.nbits as u64).collect();
        let spectrum_hist = registry.histogram(metric::RUN_LENGTH, &bounds);
        for (run, &count) in self.spectrum.iter().enumerate() {
            spectrum_hist.record_n(run as u64, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_stream(monitor: &mut ConformanceMonitor, ops: u64, seed: u64) {
        // A splitmix-style generator is plenty for uniform operands.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let window = monitor.config().window;
        let nbits = monitor.config().nbits;
        for _ in 0..ops {
            let (a, b) = (next(), next());
            let stalled = (longest_one_run_u64(a ^ b) as usize).min(nbits) >= window;
            monitor.observe(a, b, stalled, 1 + u64::from(stalled));
        }
    }

    #[test]
    fn uniform_stream_raises_no_alerts() {
        let mut monitor = ConformanceMonitor::new(MonitorConfig::new(64, 12));
        uniform_stream(&mut monitor, 8 * 4096, 0x5eed);
        monitor.finish();
        assert!(monitor.alerts().is_empty(), "{:?}", monitor.alerts());
        let windows = monitor.windows();
        assert_eq!(windows.len(), 8);
        for w in windows {
            assert!(w.p_value.expect("full window") > 1e-3);
            assert!(w.mean_latency >= 1.0 && w.mean_latency < 1.1);
        }
        assert_eq!(monitor.total_ops(), 8 * 4096);
    }

    #[test]
    fn adversarial_stream_raises_both_alert_kinds() {
        let mut monitor = ConformanceMonitor::new(MonitorConfig::new(64, 12));
        // Every operand pair propagates across the full width: each op
        // stalls and the spectrum collapses onto run length 64.
        for _ in 0..2 * 4096 {
            monitor.observe(u64::MAX, 0, true, 2);
        }
        monitor.finish();
        let kinds: Vec<&'static str> = monitor.alerts().iter().map(|a| a.kind.label()).collect();
        assert!(kinds.contains(&"spectrum_drift"), "{kinds:?}");
        assert!(kinds.contains(&"error_rate_drift"), "{kinds:?}");
    }

    #[test]
    fn alerts_trip_the_degrade_signal() {
        let signal = Arc::new(AtomicBool::new(false));
        let mut monitor = ConformanceMonitor::new(MonitorConfig::new(64, 12));
        monitor.set_degrade_signal(Arc::clone(&signal));
        uniform_stream(&mut monitor, 4096, 1);
        assert!(
            !signal.load(Ordering::Relaxed),
            "uniform traffic tripped it"
        );
        for _ in 0..4096 {
            monitor.observe(u64::MAX, 0, true, 2);
        }
        assert!(signal.load(Ordering::Relaxed));
    }

    #[test]
    fn partial_windows_are_flushed_without_tests() {
        let mut monitor = ConformanceMonitor::new(MonitorConfig::new(64, 12));
        uniform_stream(&mut monitor, 100, 7);
        let windows = monitor.finish();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].ops, 100);
        assert_eq!(windows[0].chi2, None);
        assert!(monitor.alerts().is_empty());
    }

    #[test]
    fn snapshot_serializes_the_full_state() {
        let mut monitor = ConformanceMonitor::new(MonitorConfig::new(64, 12));
        uniform_stream(&mut monitor, 4096, 3);
        monitor.finish();
        let doc = Json::parse(&monitor.to_json().to_string()).expect("valid JSON");
        assert_eq!(doc.get("total_ops").and_then(Json::as_u64), Some(4096));
        assert_eq!(
            doc.get("windows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("nbits"))
                .and_then(Json::as_u64),
            Some(64)
        );
    }

    #[test]
    fn alerts_carry_the_windows_trace_exemplars() {
        let mut monitor = ConformanceMonitor::new(MonitorConfig::new(64, 12));
        // Sampled requests noted during the window ride along on any
        // alert the window raises; the next window starts clean.
        monitor.note_exemplar(0xAB);
        monitor.note_exemplar(0); // invalid: ignored
        monitor.note_exemplar(0xCD);
        for _ in 0..4096 {
            monitor.observe(u64::MAX, 0, true, 2);
        }
        assert!(!monitor.alerts().is_empty());
        for alert in monitor.alerts() {
            assert_eq!(alert.trace_exemplars.ids(), &[0xAB, 0xCD]);
        }
        let first_round = monitor.alerts().len();
        // A second adversarial window without noted exemplars raises
        // alerts with an empty evidence set.
        for _ in 0..4096 {
            monitor.observe(u64::MAX, 0, true, 2);
        }
        assert!(monitor.alerts().len() > first_round);
        for alert in &monitor.alerts()[first_round..] {
            assert!(alert.trace_exemplars.is_empty());
        }
    }

    #[test]
    fn window_close_flushes_telemetry() {
        let scope = vlsa_telemetry::ScopedRecorder::install();
        let mut monitor = ConformanceMonitor::new(MonitorConfig::new(64, 12).with_window_ops(4096));
        uniform_stream(&mut monitor, 4096, 9);
        let registry = scope.registry();
        assert_eq!(registry.counter_value(metric::OPS), 4096);
        assert_eq!(registry.counter_value(metric::WINDOWS), 1);
        assert!(registry.gauge_value(metric::CHI2_P) > 0.0);
        let spectrum = registry.histogram(metric::RUN_LENGTH, &[1]);
        assert_eq!(spectrum.count(), 4096);
    }
}
