//! Perf-regression gate: compare two `BENCH_server.json`-style runs
//! and decide — with a noise model, not a vibe — whether the candidate
//! run regressed.
//!
//! Rows are matched across the two reports by `(label, shards)`. Two
//! metrics are gated per row, one per direction of badness:
//!
//! - `throughput_ops_s` — lower is worse,
//! - `p999_us` — higher is worse.
//!
//! ## The noise model
//!
//! Bench runs jitter. A fixed percentage threshold either cries wolf
//! on a noisy host or sleeps through a real regression on a quiet one,
//! so the gate estimates run-to-run noise *from the comparison
//! itself*: jitter is symmetric (a rerun is as likely to get faster as
//! slower) while real regressions push one way only, so the median
//! |relative delta| over the rows that **improved** is an estimate of
//! the run's noise floor that a genuine, even fleet-wide, regression
//! cannot inflate. A row regresses when its delta in the bad
//! direction exceeds
//!
//! ```text
//! max(floor_metric, noise_multiplier × improving-side noise)
//! ```
//!
//! Baseline rows missing from the candidate fail the gate outright:
//! lost coverage must never read as a pass.

use vlsa_telemetry::Json;

/// Gate thresholds. The floors are the minimum relative change ever
/// flagged, whatever the noise estimate says.
#[derive(Clone, Copy, Debug)]
pub struct GateConfig {
    /// Minimum relative throughput drop to flag (default 10%).
    pub ops_floor: f64,
    /// Minimum relative p999 rise to flag (default 20% — tails are
    /// noisier than means).
    pub p999_floor: f64,
    /// Multiples of the improving-side noise a bad-direction delta
    /// must exceed (default 3).
    pub noise_multiplier: f64,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            ops_floor: 0.10,
            p999_floor: 0.20,
            noise_multiplier: 3.0,
        }
    }
}

/// One gated comparison: a metric of a matched row.
#[derive(Clone, Debug)]
pub struct Check {
    /// The row's `label` field.
    pub label: String,
    /// The row's `shards` field.
    pub shards: u64,
    /// Metric name (`throughput_ops_s` or `p999_us`).
    pub metric: &'static str,
    /// The baseline value.
    pub baseline: f64,
    /// The candidate value.
    pub candidate: f64,
    /// Relative delta in the *bad* direction: positive means worse,
    /// negative means the candidate improved.
    pub worseness: f64,
    /// The threshold this row had to stay under.
    pub threshold: f64,
    /// Whether this check failed the gate.
    pub regressed: bool,
}

/// The gate's full verdict.
#[derive(Clone, Debug)]
pub struct GateOutcome {
    /// Every metric comparison, in report order.
    pub checks: Vec<Check>,
    /// `(label, shards)` keys present in the baseline but absent from
    /// the candidate — lost coverage, fails the gate.
    pub missing: Vec<String>,
    /// The estimated noise floor per metric, `(ops, p999)`.
    pub noise: (f64, f64),
}

impl GateOutcome {
    /// True when any check regressed or any baseline row went missing.
    pub fn failed(&self) -> bool {
        !self.missing.is_empty() || self.checks.iter().any(|c| c.regressed)
    }

    /// The failed checks.
    pub fn regressions(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| c.regressed).collect()
    }

    /// The verdict as a `Report`-ready row list.
    pub fn rows(&self) -> Vec<Json> {
        self.checks
            .iter()
            .map(|c| {
                Json::obj()
                    .set("label", c.label.as_str())
                    .set("shards", c.shards)
                    .set("metric", c.metric)
                    .set("baseline", c.baseline)
                    .set("candidate", c.candidate)
                    .set("worseness", c.worseness)
                    .set("threshold", c.threshold)
                    .set("regressed", c.regressed)
            })
            .collect()
    }
}

/// A malformed report — the gate's analogue of the typed protocol
/// errors: bad input produces a diagnostic, never a panic and never a
/// silent pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateError {
    /// The document is not valid JSON.
    Parse(String),
    /// The document parses but lacks the expected shape.
    Shape(String),
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Parse(what) => write!(f, "not valid JSON: {what}"),
            GateError::Shape(what) => write!(f, "not a bench report: {what}"),
        }
    }
}

impl std::error::Error for GateError {}

/// A parsed report row, keyed for matching.
struct RowMetrics {
    key: String,
    label: String,
    shards: u64,
    ops: f64,
    p999: f64,
}

fn rows_of(doc: &Json, which: &str) -> Result<Vec<RowMetrics>, GateError> {
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| GateError::Shape(format!("{which}: missing `rows` array")))?;
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let label = row
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| GateError::Shape(format!("{which}: row {i} has no `label`")))?
            .to_string();
        let shards = row.get("shards").and_then(Json::as_u64).unwrap_or(0);
        let metric = |name: &str| {
            row.get(name).and_then(Json::as_f64).ok_or_else(|| {
                GateError::Shape(format!("{which}: row `{label}` has no numeric `{name}`"))
            })
        };
        let ops = metric("throughput_ops_s")?;
        let p999 = metric("p999_us")?;
        out.push(RowMetrics {
            key: format!("{label}/shards={shards}"),
            label,
            shards,
            ops,
            p999,
        });
    }
    Ok(out)
}

/// Median of a slice (0 when empty). Not `pub`: the gate's only
/// statistic, kept next to its use.
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Relative delta in the bad direction: positive = candidate worse.
/// `higher_is_better` flips the sign convention.
fn worseness(baseline: f64, candidate: f64, higher_is_better: bool) -> f64 {
    if baseline.abs() < f64::EPSILON {
        return 0.0;
    }
    let delta = (candidate - baseline) / baseline;
    if higher_is_better {
        -delta
    } else {
        delta
    }
}

/// Runs the gate over two parsed reports.
///
/// # Errors
///
/// [`GateError::Shape`] when either document lacks `rows`, labels, or
/// the gated metrics.
pub fn compare_reports(
    baseline: &Json,
    candidate: &Json,
    config: &GateConfig,
) -> Result<GateOutcome, GateError> {
    let base_rows = rows_of(baseline, "baseline")?;
    let cand_rows = rows_of(candidate, "candidate")?;

    let mut missing = Vec::new();
    let mut pairs = Vec::new();
    for b in &base_rows {
        match cand_rows.iter().find(|c| c.key == b.key) {
            Some(c) => pairs.push((b, c)),
            None => missing.push(b.key.clone()),
        }
    }

    let ops_w: Vec<f64> = pairs
        .iter()
        .map(|(b, c)| worseness(b.ops, c.ops, true))
        .collect();
    let p999_w: Vec<f64> = pairs
        .iter()
        .map(|(b, c)| worseness(b.p999, c.p999, false))
        .collect();
    // Noise from the improving side only: symmetric jitter shows up
    // there, a one-sided regression cannot.
    let improving = |ws: &[f64]| {
        let mut gains: Vec<f64> = ws.iter().filter(|w| **w < 0.0).map(|w| -w).collect();
        median(&mut gains)
    };
    let noise = (improving(&ops_w), improving(&p999_w));
    let ops_threshold = config.ops_floor.max(config.noise_multiplier * noise.0);
    let p999_threshold = config.p999_floor.max(config.noise_multiplier * noise.1);

    let mut checks = Vec::with_capacity(pairs.len() * 2);
    for (i, (b, c)) in pairs.iter().enumerate() {
        checks.push(Check {
            label: b.label.clone(),
            shards: b.shards,
            metric: "throughput_ops_s",
            baseline: b.ops,
            candidate: c.ops,
            worseness: ops_w[i],
            threshold: ops_threshold,
            regressed: ops_w[i] > ops_threshold,
        });
        checks.push(Check {
            label: b.label.clone(),
            shards: b.shards,
            metric: "p999_us",
            baseline: b.p999,
            candidate: c.p999,
            worseness: p999_w[i],
            threshold: p999_threshold,
            regressed: p999_w[i] > p999_threshold,
        });
    }
    Ok(GateOutcome {
        checks,
        missing,
        noise,
    })
}

/// [`compare_reports`] from raw JSON text.
///
/// # Errors
///
/// [`GateError::Parse`] when either text is not JSON, plus everything
/// [`compare_reports`] returns.
pub fn compare_texts(
    baseline: &str,
    candidate: &str,
    config: &GateConfig,
) -> Result<GateOutcome, GateError> {
    let base = Json::parse(baseline).map_err(|e| GateError::Parse(format!("baseline: {e:?}")))?;
    let cand = Json::parse(candidate).map_err(|e| GateError::Parse(format!("candidate: {e:?}")))?;
    compare_reports(&base, &cand, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, u64, f64, f64)]) -> Json {
        let mut arr = Vec::new();
        for (label, shards, ops, p999) in rows {
            arr.push(
                Json::obj()
                    .set("label", *label)
                    .set("shards", *shards)
                    .set("throughput_ops_s", *ops)
                    .set("p999_us", *p999),
            );
        }
        Json::obj()
            .set("report", "server")
            .set("schema", 1u64)
            .set("rows", Json::Arr(arr))
    }

    #[test]
    fn symmetric_jitter_passes() {
        let base = report(&[
            ("nominal", 1, 100_000.0, 40_000.0),
            ("nominal", 4, 300_000.0, 20_000.0),
            ("burst", 4, 250_000.0, 30_000.0),
        ]);
        // ±3% jitter, both directions.
        let cand = report(&[
            ("nominal", 1, 97_000.0, 41_000.0),
            ("nominal", 4, 309_000.0, 19_400.0),
            ("burst", 4, 255_000.0, 30_900.0),
        ]);
        let outcome = compare_reports(&base, &cand, &GateConfig::default()).expect("well-formed");
        assert!(!outcome.failed(), "{:?}", outcome.regressions());
        assert_eq!(outcome.checks.len(), 6);
    }

    #[test]
    fn a_real_throughput_drop_fails_even_fleet_wide() {
        let base = report(&[
            ("nominal", 1, 100_000.0, 40_000.0),
            ("nominal", 4, 300_000.0, 20_000.0),
        ]);
        // Every row lost 40% throughput: the improving-side noise
        // estimate stays at zero, so the floor still catches it.
        let cand = report(&[
            ("nominal", 1, 60_000.0, 40_000.0),
            ("nominal", 4, 180_000.0, 20_000.0),
        ]);
        let outcome = compare_reports(&base, &cand, &GateConfig::default()).expect("well-formed");
        assert!(outcome.failed());
        let regressed: Vec<_> = outcome.regressions().iter().map(|c| c.metric).collect();
        assert_eq!(regressed, ["throughput_ops_s", "throughput_ops_s"]);
    }

    #[test]
    fn a_tail_blowup_fails() {
        let base = report(&[("nominal", 1, 100_000.0, 40_000.0)]);
        let cand = report(&[("nominal", 1, 100_500.0, 72_000.0)]);
        let outcome = compare_reports(&base, &cand, &GateConfig::default()).expect("well-formed");
        assert!(outcome.failed());
        assert_eq!(outcome.regressions()[0].metric, "p999_us");
    }

    #[test]
    fn noisy_runs_raise_the_threshold() {
        let base = report(&[
            ("a", 1, 100_000.0, 10_000.0),
            ("b", 1, 100_000.0, 10_000.0),
            ("c", 1, 100_000.0, 10_000.0),
            ("d", 1, 100_000.0, 10_000.0),
        ]);
        // Half the rows *improved* ~8%: that is jitter, so a 12% drop
        // elsewhere is within 3× the estimated noise and must pass.
        let cand = report(&[
            ("a", 1, 108_000.0, 10_000.0),
            ("b", 1, 92_000.0, 10_000.0),
            ("c", 1, 108_500.0, 10_000.0),
            ("d", 1, 88_000.0, 10_000.0),
        ]);
        let outcome = compare_reports(&base, &cand, &GateConfig::default()).expect("well-formed");
        assert!(
            !outcome.failed(),
            "noise {:?}, regressions {:?}",
            outcome.noise,
            outcome.regressions()
        );
    }

    #[test]
    fn lost_coverage_fails_the_gate() {
        let base = report(&[
            ("nominal", 1, 100_000.0, 40_000.0),
            ("burst", 4, 250_000.0, 30_000.0),
        ]);
        let cand = report(&[("nominal", 1, 100_000.0, 40_000.0)]);
        let outcome = compare_reports(&base, &cand, &GateConfig::default()).expect("well-formed");
        assert!(outcome.failed());
        assert_eq!(outcome.missing, ["burst/shards=4"]);
    }

    #[test]
    fn malformed_reports_are_typed_errors() {
        let good = report(&[("nominal", 1, 1.0, 1.0)]).to_string();
        assert!(matches!(
            compare_texts("not json", &good, &GateConfig::default()),
            Err(GateError::Parse(_))
        ));
        let no_rows = Json::obj().set("report", "server").to_string();
        assert!(matches!(
            compare_texts(&no_rows, &good, &GateConfig::default()),
            Err(GateError::Shape(_))
        ));
        let bad_row = "{\"rows\": [{\"label\": \"x\", \"shards\": 1}]}";
        match compare_texts(bad_row, &good, &GateConfig::default()) {
            Err(GateError::Shape(what)) => assert!(what.contains("throughput_ops_s")),
            other => panic!("expected a shape error, got {other:?}"),
        }
    }
}
