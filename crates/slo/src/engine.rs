//! The error-budget accountant and multi-window burn-rate evaluator.
//!
//! One [`SloTracker`] per declared SLO: it accumulates good/bad events
//! into a [`TimeBuckets`] ring (for burn rates) and a cumulative period
//! account (for budget consumption), and evaluates every
//! [`BurnRule`](crate::BurnRule) against the ring. The [`SloEngine`]
//! bundles the serving stack's three trackers and fans fired alerts out
//! exactly the way the conformance monitor fans out drift alerts:
//! telemetry counters, a trace instant span, and — for a burning
//! *correctness* budget — the shared degrade signals, so shards flip to
//! the exact adder before the budget is gone.
//!
//! The engine never reads a clock; callers pass modeled nanoseconds.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vlsa_telemetry::names::{labeled, labeled_multi, slo as metric};
use vlsa_telemetry::Json;
use vlsa_trace::{names as span, TraceEvent};

use crate::spec::{Objectives, Severity, SloKind, SloSpec};
use crate::window::TimeBuckets;

/// Whether an [`SloAlert`] reports a rule starting or stopping to fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// The rule crossed its factor on both windows.
    Firing,
    /// A previously-firing rule dropped back under its factor.
    Cleared,
}

impl AlertState {
    /// Stable lowercase label (`firing` / `cleared`).
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Cleared => "cleared",
        }
    }
}

/// One burn-rate alert transition.
#[derive(Clone, Debug, PartialEq)]
pub struct SloAlert {
    /// The SLO's name (`availability` / `latency` / `correctness`).
    pub slo: String,
    /// The rule that transitioned (`fast_burn` / `slow_burn`).
    pub rule: &'static str,
    /// The rule's severity.
    pub severity: Severity,
    /// Firing or cleared.
    pub state: AlertState,
    /// Burn rate over the rule's long window at evaluation time.
    pub burn_long: f64,
    /// Burn rate over the rule's short window at evaluation time.
    pub burn_short: f64,
    /// Fraction of the period's error budget consumed (can exceed 1).
    pub budget_consumed: f64,
    /// Modeled time of the transition.
    pub at_ns: u64,
}

impl SloAlert {
    /// The alert as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("slo", self.slo.clone())
            .set("rule", self.rule)
            .set("severity", self.severity.label())
            .set("state", self.state.label())
            .set("burn_long", self.burn_long)
            .set("burn_short", self.burn_short)
            .set("budget_consumed", self.budget_consumed)
            .set("at_ns", self.at_ns)
    }
}

impl std::fmt::Display for SloAlert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "slo {} {} {} {}: burn {:.1}x long / {:.1}x short, {:.1}% of budget consumed",
            self.slo,
            self.rule,
            self.severity.label(),
            self.state.label(),
            self.burn_long,
            self.burn_short,
            self.budget_consumed * 100.0
        )
    }
}

/// Per-rule live state inside a tracker.
#[derive(Clone, Copy, Debug, Default)]
struct RuleState {
    firing: bool,
}

/// One SLO's error-budget accountant and burn-rate evaluator.
#[derive(Clone, Debug)]
pub struct SloTracker {
    spec: SloSpec,
    buckets: TimeBuckets,
    period_start_ns: u64,
    period_good: u64,
    period_bad: u64,
    rules: Vec<RuleState>,
    last_ns: u64,
}

impl SloTracker {
    /// A tracker for `spec`, with its ring sized from the spec's
    /// windows.
    pub fn new(spec: SloSpec) -> SloTracker {
        let buckets = TimeBuckets::new(spec.windows.bucket_ns(), spec.windows.span_ns());
        let rules = vec![RuleState::default(); spec.windows.rules.len()];
        SloTracker {
            spec,
            buckets,
            period_start_ns: 0,
            period_good: 0,
            period_bad: 0,
            rules,
            last_ns: 0,
        }
    }

    /// The tracker's spec.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Adds good/bad events at modeled time `now_ns`.
    pub fn record(&mut self, now_ns: u64, good: u64, bad: u64) {
        let now_ns = self.clamp_monotonic(now_ns);
        self.roll_period(now_ns);
        self.buckets.record(now_ns, good, bad);
        self.period_good += good;
        self.period_bad += bad;
    }

    /// Fraction of this period's error budget consumed so far: bad
    /// events over the budget's allowance of the period's total events.
    /// Exceeds 1.0 once the budget is blown.
    pub fn budget_consumed(&self) -> f64 {
        let total = self.period_good + self.period_bad;
        if total == 0 {
            return 0.0;
        }
        let allowed = self.spec.budget_fraction() * total as f64;
        self.period_bad as f64 / allowed
    }

    /// Burn rate over a trailing window: the window's bad fraction in
    /// units of the budget fraction (1.0 = spending exactly on
    /// schedule). `0.0` when the window holds no events.
    pub fn burn_rate(&self, now_ns: u64, window_ns: u64) -> f64 {
        match self.buckets.bad_fraction(now_ns, window_ns) {
            Some(fraction) => fraction / self.spec.budget_fraction(),
            None => 0.0,
        }
    }

    /// Evaluates every burn rule at modeled time `now_ns`, returning
    /// only the *transitions* (fire and clear edges); steady states are
    /// silent.
    pub fn evaluate(&mut self, now_ns: u64) -> Vec<SloAlert> {
        let now_ns = self.clamp_monotonic(now_ns);
        self.roll_period(now_ns);
        let mut out = Vec::new();
        let budget_consumed = self.budget_consumed();
        for (rule, state) in self.spec.windows.rules.clone().iter().zip(&mut self.rules) {
            let burn_long = match self.buckets.bad_fraction(now_ns, rule.long_ns) {
                Some(f) => f / self.spec.budget_fraction(),
                None => 0.0,
            };
            let burn_short = match self.buckets.bad_fraction(now_ns, rule.short_ns) {
                Some(f) => f / self.spec.budget_fraction(),
                None => 0.0,
            };
            let above = burn_long >= rule.factor && burn_short >= rule.factor;
            if above != state.firing {
                state.firing = above;
                out.push(SloAlert {
                    slo: self.spec.name.clone(),
                    rule: rule.name,
                    severity: rule.severity,
                    state: if above {
                        AlertState::Firing
                    } else {
                        AlertState::Cleared
                    },
                    burn_long,
                    burn_short,
                    budget_consumed,
                    at_ns: now_ns,
                });
            }
        }
        out
    }

    /// Whether any rule of the given severity is currently firing.
    pub fn firing(&self, severity: Severity) -> bool {
        self.spec
            .windows
            .rules
            .iter()
            .zip(&self.rules)
            .any(|(rule, state)| state.firing && rule.severity == severity)
    }

    /// Live status as a JSON object (burn rates re-computed at
    /// `now_ns`).
    pub fn status(&self, now_ns: u64) -> Json {
        let now_ns = now_ns.max(self.last_ns);
        let rules: Vec<Json> = self
            .spec
            .windows
            .rules
            .iter()
            .zip(&self.rules)
            .map(|(rule, state)| {
                Json::obj()
                    .set("rule", rule.name)
                    .set("severity", rule.severity.label())
                    .set("factor", rule.factor)
                    .set("long_ns", rule.long_ns)
                    .set("short_ns", rule.short_ns)
                    .set("burn_long", self.burn_rate(now_ns, rule.long_ns))
                    .set("burn_short", self.burn_rate(now_ns, rule.short_ns))
                    .set("firing", state.firing)
            })
            .collect();
        Json::obj()
            .set("name", self.spec.name.clone())
            .set("kind", self.spec.kind.label())
            .set("target", self.spec.target)
            .set("period_good", self.period_good)
            .set("period_bad", self.period_bad)
            .set("budget_consumed", self.budget_consumed())
            .set("rules", Json::Arr(rules))
    }

    /// The engine is fed from several shard workers whose modeled
    /// clocks drift slightly; folding a lagging timestamp forward onto
    /// the newest one seen keeps evaluation monotone and deterministic.
    fn clamp_monotonic(&mut self, now_ns: u64) -> u64 {
        self.last_ns = self.last_ns.max(now_ns);
        self.last_ns
    }

    fn roll_period(&mut self, now_ns: u64) {
        let budget_ns = self.spec.windows.budget_ns.max(1);
        if now_ns >= self.period_start_ns + budget_ns {
            let periods = (now_ns - self.period_start_ns) / budget_ns;
            self.period_start_ns += periods * budget_ns;
            self.period_good = 0;
            self.period_bad = 0;
        }
    }
}

/// The serving stack's SLO bundle: availability, latency, correctness —
/// fed by whoever owns the event sources, evaluated together, alerts
/// fanned out to telemetry/trace/degrade.
#[derive(Debug)]
pub struct SloEngine {
    objectives: Objectives,
    trackers: Vec<SloTracker>,
    degrade: Vec<Arc<AtomicBool>>,
    history: VecDeque<SloAlert>,
    last_ns: u64,
}

/// Alert history retained for `/slo` endpoints.
const HISTORY_CAP: usize = 256;

/// Canonical tracker indices (the order [`Objectives::specs`] emits).
const AVAILABILITY: usize = 0;
const LATENCY: usize = 1;
const CORRECTNESS: usize = 2;

impl SloEngine {
    /// An engine over the three canonical SLOs of `objectives`.
    pub fn new(objectives: Objectives) -> SloEngine {
        let trackers = objectives
            .specs()
            .into_iter()
            .map(SloTracker::new)
            .collect();
        SloEngine {
            objectives,
            trackers,
            degrade: Vec::new(),
            history: VecDeque::new(),
            last_ns: 0,
        }
    }

    /// The objectives this engine enforces.
    pub fn objectives(&self) -> &Objectives {
        &self.objectives
    }

    /// Attaches the shard degrade flags. A *correctness* page flips
    /// every flag — the pre-emptive "stop speculating before the budget
    /// is gone" coupling, same signal the conformance monitor raises.
    pub fn set_degrade_signals(&mut self, flags: Vec<Arc<AtomicBool>>) {
        self.degrade = flags;
    }

    /// Records availability events (answered = good, shed = bad).
    pub fn record_availability(&mut self, now_ns: u64, good: u64, bad: u64) {
        self.trackers[AVAILABILITY].record(now_ns, good, bad);
    }

    /// Records latency events (under threshold = good, over = bad).
    pub fn record_latency(&mut self, now_ns: u64, good: u64, bad: u64) {
        self.trackers[LATENCY].record(now_ns, good, bad);
    }

    /// Records correctness events (clean op = good, conformance alert
    /// or residue catch = bad).
    pub fn record_correctness(&mut self, now_ns: u64, good: u64, bad: u64) {
        self.trackers[CORRECTNESS].record(now_ns, good, bad);
    }

    /// Evaluates every tracker at modeled `now_ns`, fans out
    /// transitions, and returns them.
    pub fn evaluate(&mut self, now_ns: u64) -> Vec<SloAlert> {
        self.last_ns = self.last_ns.max(now_ns);
        let now_ns = self.last_ns;
        let mut transitions = Vec::new();
        for i in 0..self.trackers.len() {
            let alerts = self.trackers[i].evaluate(now_ns);
            let kind = self.trackers[i].spec().kind.clone();
            for alert in alerts {
                self.fan_out(&alert, &kind);
                if self.history.len() == HISTORY_CAP {
                    self.history.pop_front();
                }
                self.history.push_back(alert.clone());
                transitions.push(alert);
            }
        }
        self.flush_gauges(now_ns);
        transitions
    }

    /// Number of page-severity rules currently firing across all SLOs.
    pub fn pages_firing(&self) -> usize {
        self.trackers
            .iter()
            .filter(|t| t.firing(Severity::Page))
            .count()
    }

    /// Number of warn-severity rules currently firing across all SLOs.
    pub fn warns_firing(&self) -> usize {
        self.trackers
            .iter()
            .filter(|t| t.firing(Severity::Warn))
            .count()
    }

    /// Full status document: every tracker's live state plus the recent
    /// alert transitions — what `/slo` endpoints serve.
    pub fn status(&self, now_ns: u64) -> Json {
        let now_ns = now_ns.max(self.last_ns);
        let slos: Vec<Json> = self.trackers.iter().map(|t| t.status(now_ns)).collect();
        let recent: Vec<Json> = self.history.iter().map(SloAlert::to_json).collect();
        Json::obj()
            .set("modeled_now_ns", now_ns)
            .set("pages_firing", self.pages_firing() as u64)
            .set("warns_firing", self.warns_firing() as u64)
            .set("slos", Json::Arr(slos))
            .set("recent_alerts", Json::Arr(recent))
    }

    /// The alert fan-out, mirroring `ConformanceMonitor::raise`:
    /// telemetry counters + trace instant span, plus
    /// the degrade coupling for a paging correctness budget.
    fn fan_out(&self, alert: &SloAlert, kind: &SloKind) {
        if alert.state == AlertState::Firing
            && alert.severity == Severity::Page
            && matches!(kind, SloKind::Correctness)
        {
            for flag in &self.degrade {
                flag.store(true, Ordering::Relaxed);
            }
        }
        if let Some(registry) = vlsa_telemetry::recorder() {
            match alert.state {
                AlertState::Firing => {
                    registry.counter(metric::ALERTS).incr();
                    registry
                        .counter(match alert.severity {
                            Severity::Page => metric::PAGES,
                            Severity::Warn => metric::WARNS,
                        })
                        .incr();
                }
                AlertState::Cleared => {
                    registry.counter(metric::CLEARS).incr();
                }
            }
        }
        if vlsa_trace::is_enabled() {
            vlsa_trace::record(
                TraceEvent::instant(span::SLO_BURN, "slo", alert.at_ns / 1_000)
                    .on_track(5)
                    .arg("burn_long_x1000", (alert.burn_long * 1000.0) as u64)
                    .arg("burn_short_x1000", (alert.burn_short * 1000.0) as u64)
                    .arg(
                        "budget_consumed_x1000",
                        (alert.budget_consumed * 1000.0) as u64,
                    ),
            );
        }
    }

    fn flush_gauges(&self, now_ns: u64) {
        let Some(registry) = vlsa_telemetry::recorder() else {
            return;
        };
        for tracker in &self.trackers {
            let name = tracker.spec().name.as_str();
            registry
                .gauge(&labeled(metric::BUDGET_CONSUMED, "slo", name))
                .set(tracker.budget_consumed());
            for rule in &tracker.spec().windows.rules {
                for (window, ns) in [("long", rule.long_ns), ("short", rule.short_ns)] {
                    registry
                        .gauge(&labeled_multi(
                            metric::BURN_RATE,
                            &[("slo", name), ("rule", rule.name), ("window", window)],
                        ))
                        .set(tracker.burn_rate(now_ns, ns));
                }
            }
        }
        registry
            .gauge(metric::PAGES_FIRING)
            .set(self.pages_firing() as f64);
        registry
            .gauge(metric::WARNS_FIRING)
            .set(self.warns_firing() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BurnRule, SloWindows};

    const S: u64 = 1_000_000_000;

    fn tiny_spec(target: f64) -> SloSpec {
        SloSpec {
            name: "availability".to_string(),
            kind: SloKind::Availability,
            target,
            windows: SloWindows {
                budget_ns: 1_000 * S,
                rules: vec![
                    BurnRule {
                        name: "fast_burn",
                        severity: Severity::Page,
                        long_ns: 100 * S,
                        short_ns: 10 * S,
                        factor: 10.0,
                    },
                    BurnRule {
                        name: "slow_burn",
                        severity: Severity::Warn,
                        long_ns: 400 * S,
                        short_ns: 40 * S,
                        factor: 2.0,
                    },
                ],
            },
        }
    }

    #[test]
    fn clean_traffic_never_fires() {
        let mut t = SloTracker::new(tiny_spec(0.99));
        for i in 0..1_000 {
            t.record(i * S, 100, 0);
            assert!(t.evaluate(i * S).is_empty(), "tick {i}");
        }
        assert_eq!(t.budget_consumed(), 0.0);
        assert!(!t.firing(Severity::Page));
        assert!(!t.firing(Severity::Warn));
    }

    #[test]
    fn sub_budget_error_rate_never_fires() {
        // Bad fraction at half the budget: burn 0.5, under every factor.
        let mut t = SloTracker::new(tiny_spec(0.99));
        for i in 0..1_000 {
            t.record(i * S, 995, 5);
            assert!(t.evaluate(i * S).is_empty(), "tick {i}");
        }
        let burn = t.burn_rate(999 * S, 100 * S);
        assert!((burn - 0.5).abs() < 0.05, "{burn}");
    }

    #[test]
    fn fast_burn_fires_and_clears_on_both_window_consensus() {
        let mut t = SloTracker::new(tiny_spec(0.99));
        // 200 s of clean traffic fill the long window.
        for i in 0..200 {
            t.record(i * S, 100, 0);
            assert!(t.evaluate(i * S).is_empty());
        }
        // Total outage: burn rate heads to 100 (1.0 / 0.01).
        let mut fired_at = None;
        for i in 200..400 {
            t.record(i * S, 0, 100);
            for alert in t.evaluate(i * S) {
                if alert.rule == "fast_burn" && alert.state == AlertState::Firing {
                    fired_at = Some(i - 200);
                }
            }
            if fired_at.is_some() {
                break;
            }
        }
        // Analytic detection bound: the long window (100 s) needs a bad
        // fraction ≥ factor × budget = 10 × 0.01 = 0.1, i.e. ~10 s of
        // outage, plus ring quantization (bucket = 10s/8 = 1.25 s).
        let t_fire = fired_at.expect("fast burn fired");
        assert!((9..=13).contains(&t_fire), "detected after {t_fire}s");
        assert!(t.firing(Severity::Page));
        // Recovery: the short window clears within ~10 s of clean
        // traffic even though the long window is still polluted.
        let mut cleared_at = None;
        let recovery = 200 + t_fire + 1;
        for i in recovery..recovery + 100 {
            t.record(i * S, 100, 0);
            for alert in t.evaluate(i * S) {
                if alert.rule == "fast_burn" && alert.state == AlertState::Cleared {
                    cleared_at = Some(i - recovery);
                }
            }
            if cleared_at.is_some() {
                break;
            }
        }
        let t_clear = cleared_at.expect("fast burn cleared");
        assert!(t_clear <= 12, "cleared after {t_clear}s");
        assert!(!t.firing(Severity::Page));
    }

    #[test]
    fn moderate_burn_warns_without_paging() {
        // Bad fraction 5 × budget: above the slow factor (2), below the
        // fast factor (10).
        let mut t = SloTracker::new(tiny_spec(0.99));
        let mut fired: Vec<&'static str> = Vec::new();
        for i in 0..1_000 {
            t.record(i * S, 95, 5);
            for alert in t.evaluate(i * S) {
                if alert.state == AlertState::Firing {
                    fired.push(alert.rule);
                }
            }
        }
        assert_eq!(fired, vec!["slow_burn"]);
        assert!(t.firing(Severity::Warn));
        assert!(!t.firing(Severity::Page));
    }

    #[test]
    fn budget_consumption_tracks_the_period_and_resets() {
        let mut t = SloTracker::new(tiny_spec(0.99));
        t.record(0, 900, 100); // 10% bad against a 1% budget: 10× blown
        let consumed = t.budget_consumed();
        assert!((consumed - 10.0).abs() < 1e-9, "{consumed}");
        // Next period: the account resets.
        t.record(1_000 * S, 100, 0);
        assert_eq!(t.budget_consumed(), 0.0);
    }

    #[test]
    fn correctness_page_flips_the_degrade_signals() {
        let mut objectives = Objectives::demo();
        objectives.windows = SloWindows {
            budget_ns: 1_000 * S,
            rules: vec![BurnRule {
                name: "fast_burn",
                severity: Severity::Page,
                long_ns: 10 * S,
                short_ns: 2 * S,
                factor: 2.0,
            }],
        };
        let mut engine = SloEngine::new(objectives);
        let flags = vec![
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        ];
        engine.set_degrade_signals(flags.clone());
        // An availability page must NOT flip the degrade signals.
        engine.record_availability(0, 0, 100);
        let alerts = engine.evaluate(0);
        assert!(alerts
            .iter()
            .any(|a| a.slo == "availability" && a.state == AlertState::Firing));
        assert!(flags.iter().all(|f| !f.load(Ordering::Relaxed)));
        // A correctness page must flip every shard's flag.
        engine.record_correctness(S, 0, 100);
        let alerts = engine.evaluate(S);
        assert!(alerts
            .iter()
            .any(|a| a.slo == "correctness" && a.state == AlertState::Firing));
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed)));
        assert!(engine.pages_firing() >= 2);
    }

    #[test]
    fn status_document_has_every_slo_and_recent_alerts() {
        let mut engine = SloEngine::new(Objectives::demo());
        engine.record_availability(0, 0, 1_000);
        engine.evaluate(0);
        let status = engine.status(0);
        let slos = status.get("slos").and_then(Json::as_arr).expect("slos");
        assert_eq!(slos.len(), 3);
        let names: Vec<&str> = slos
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, vec!["availability", "latency", "correctness"]);
        assert!(status.get("pages_firing").and_then(Json::as_u64).unwrap() >= 1);
        let recent = status
            .get("recent_alerts")
            .and_then(Json::as_arr)
            .expect("recent");
        assert!(!recent.is_empty());
        // Round-trips through the hand-rolled JSON writer/parser.
        let parsed = Json::parse(&status.to_string()).expect("valid JSON");
        assert_eq!(
            parsed.get("slos").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn out_of_order_timestamps_fold_forward_deterministically() {
        let mut a = SloTracker::new(tiny_spec(0.99));
        let mut b = SloTracker::new(tiny_spec(0.99));
        // Shard clocks drift: one stream delivers slightly stale times.
        for i in 0..100u64 {
            a.record(i * S, 10, 1);
            let stale = (i * S).saturating_sub(S / 2);
            b.record(i * S, 10, 1);
            b.record(stale, 0, 0); // stale empty tick must not disturb
        }
        assert_eq!(a.burn_rate(100 * S, 100 * S), b.burn_rate(100 * S, 100 * S));
    }
}
