//! Harness for exercising adder netlists against reference arithmetic.
//!
//! All adder generators in this workspace follow one port convention:
//! input buses `a[0..n]` and `b[0..n]`, output bus `s[0..n]`, and an
//! optional carry-out `cout`. This harness drives batches of 64 operand
//! pairs per simulation pass and compares against [`wide_add`], reporting
//! the mismatch rate — the measured error probability of speculative
//! adders.

use crate::{pack_lanes, simulate, unpack_lanes, wide_add, SimulateError, Stimulus, WideWord};
use rand::Rng;
use vlsa_netlist::Netlist;

/// Outcome of checking an adder netlist on a set of operand pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdderReport {
    /// Number of operand pairs simulated.
    pub total: u64,
    /// Number of pairs whose gate-level sum differed from the reference.
    pub mismatches: u64,
    /// First failing pair, as `(a, b, got, expected)`.
    pub first_failure: Option<(WideWord, WideWord, WideWord, WideWord)>,
}

impl AdderReport {
    /// Fraction of pairs that were wrong.
    pub fn error_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.mismatches as f64 / self.total as f64
        }
    }

    /// Whether every simulated pair was correct.
    pub fn is_exact(&self) -> bool {
        self.mismatches == 0
    }
}

/// Computes the gate-level sums an adder netlist produces for the given
/// operand pairs (batched 64 lanes at a time).
///
/// # Errors
///
/// Propagates [`SimulateError`] if the netlist does not follow the
/// `a`/`b`/`s` port convention at width `nbits`.
pub fn adder_sums(
    netlist: &Netlist,
    nbits: usize,
    pairs: &[(WideWord, WideWord)],
) -> Result<Vec<WideWord>, SimulateError> {
    let lane_hist = vlsa_telemetry::recorder().map(|recorder| {
        recorder.histogram("vlsa.sim.lanes_per_pass", vlsa_telemetry::DEFAULT_BUCKETS)
    });
    let mut sums = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(64) {
        if let Some(hist) = &lane_hist {
            // Lane utilization: a partial tail chunk wastes 64−len lanes.
            hist.record(chunk.len() as u64);
        }
        let a_ops: Vec<WideWord> = chunk.iter().map(|(a, _)| a.clone()).collect();
        let b_ops: Vec<WideWord> = chunk.iter().map(|(_, b)| b.clone()).collect();
        let mut stim = Stimulus::new();
        stim.set_bus("a", &pack_lanes(&a_ops, nbits));
        stim.set_bus("b", &pack_lanes(&b_ops, nbits));
        let waves = simulate(netlist, &stim)?;
        let s_lanes = waves.output_bus("s", nbits)?;
        sums.extend(unpack_lanes(&s_lanes, nbits, chunk.len()));
    }
    Ok(sums)
}

/// Checks an adder netlist against the reference sum on explicit pairs.
///
/// # Errors
///
/// Propagates [`SimulateError`] from [`adder_sums`].
pub fn check_adder(
    netlist: &Netlist,
    nbits: usize,
    pairs: &[(WideWord, WideWord)],
) -> Result<AdderReport, SimulateError> {
    let sums = adder_sums(netlist, nbits, pairs)?;
    let mut report = AdderReport::default();
    for ((a, b), got) in pairs.iter().zip(&sums) {
        report.total += 1;
        let expected = wide_add(a, b, nbits);
        if *got != expected {
            report.mismatches += 1;
            if report.first_failure.is_none() {
                report.first_failure = Some((a.clone(), b.clone(), got.clone(), expected));
            }
        }
    }
    Ok(report)
}

/// Generates `count` uniformly random `nbits`-bit operand pairs.
pub fn random_pairs<R: Rng + ?Sized>(
    nbits: usize,
    count: usize,
    rng: &mut R,
) -> Vec<(WideWord, WideWord)> {
    let nwords = nbits.div_ceil(64).max(1);
    let rem = nbits % 64;
    let gen_one = |rng: &mut R| -> WideWord {
        let mut w: WideWord = (0..nwords).map(|_| rng.gen()).collect();
        if rem != 0 {
            *w.last_mut().expect("nwords >= 1") &= (1u64 << rem) - 1;
        }
        w
    };
    (0..count).map(|_| (gen_one(rng), gen_one(rng))).collect()
}

/// Checks an adder netlist on `count` random pairs.
///
/// # Errors
///
/// Propagates [`SimulateError`] from [`adder_sums`].
pub fn check_adder_random<R: Rng + ?Sized>(
    netlist: &Netlist,
    nbits: usize,
    count: usize,
    rng: &mut R,
) -> Result<AdderReport, SimulateError> {
    let pairs = random_pairs(nbits, count, rng);
    check_adder(netlist, nbits, &pairs)
}

/// Exhaustively checks an adder netlist over all `2^(2n)` operand pairs.
///
/// # Panics
///
/// Panics if `nbits > 8` (the sweep would exceed 4 billion pairs).
///
/// # Errors
///
/// Propagates [`SimulateError`] from [`adder_sums`].
pub fn check_adder_exhaustive(
    netlist: &Netlist,
    nbits: usize,
) -> Result<AdderReport, SimulateError> {
    assert!(nbits <= 8, "exhaustive check limited to 8-bit adders");
    let mut pairs = Vec::with_capacity(1 << (2 * nbits));
    for a in 0u64..(1 << nbits) {
        for b in 0u64..(1 << nbits) {
            pairs.push((vec![a], vec![b]));
        }
    }
    check_adder(netlist, nbits, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vlsa_netlist::Netlist;

    /// A simple gate-level ripple-carry adder for harness testing.
    fn ripple(nbits: usize) -> Netlist {
        let mut nl = Netlist::new("ripple");
        let a = nl.input_bus("a", nbits);
        let b = nl.input_bus("b", nbits);
        let mut carry = nl.constant(false);
        let mut sum = Vec::new();
        for i in 0..nbits {
            let x = nl.xor2(a[i], b[i]);
            sum.push(nl.xor2(x, carry));
            carry = nl.maj3(a[i], b[i], carry);
        }
        for (i, s) in sum.iter().enumerate() {
            nl.output(format!("s[{i}]"), *s);
        }
        nl.output("cout", carry);
        nl
    }

    /// An adder that drops the carry chain entirely (always speculates
    /// with window 1): wrong whenever any carry is generated.
    fn broken(nbits: usize) -> Netlist {
        let mut nl = Netlist::new("broken");
        let a = nl.input_bus("a", nbits);
        let b = nl.input_bus("b", nbits);
        for i in 0..nbits {
            let s = nl.xor2(a[i], b[i]);
            nl.output(format!("s[{i}]"), s);
        }
        nl
    }

    #[test]
    fn ripple_is_exhaustively_correct() {
        let nl = ripple(5);
        let report = check_adder_exhaustive(&nl, 5).expect("simulate");
        assert!(report.is_exact(), "{:?}", report.first_failure);
        assert_eq!(report.total, 1 << 10);
        assert_eq!(report.error_rate(), 0.0);
    }

    #[test]
    fn ripple_is_correct_on_wide_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let nl = ripple(100);
        let report = check_adder_random(&nl, 100, 256, &mut rng).expect("simulate");
        assert!(report.is_exact(), "{:?}", report.first_failure);
    }

    #[test]
    fn broken_adder_is_detected() {
        let nl = broken(8);
        let report = check_adder_exhaustive(&nl, 8).expect("simulate");
        assert!(!report.is_exact());
        // XOR-only addition is right only when no position generates a
        // carry: per bit pair 3 of 4 assignments, so (3/4)^7 of pairs for
        // the low 7 positions (the MSB carry-out is truncated anyway).
        let expected = 1.0 - 0.75f64.powi(7);
        assert!((report.error_rate() - expected).abs() < 0.01);
        let (a, b, got, want) = report.first_failure.clone().expect("failure recorded");
        assert_ne!(got, want);
        assert_eq!(got, crate::wide_xor(&a, &b, 8));
    }

    #[test]
    fn random_pairs_respect_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for (a, b) in random_pairs(67, 50, &mut rng) {
            assert_eq!(a.len(), 2);
            assert_eq!(a[1] >> 3, 0);
            assert_eq!(b[1] >> 3, 0);
        }
    }

    #[test]
    fn sums_batch_across_lane_boundary() {
        // More than 64 pairs forces multiple simulation passes.
        let nl = ripple(16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pairs = random_pairs(16, 130, &mut rng);
        let sums = adder_sums(&nl, 16, &pairs).expect("simulate");
        assert_eq!(sums.len(), 130);
        for ((a, b), s) in pairs.iter().zip(&sums) {
            assert_eq!(*s, wide_add(a, b, 16));
        }
    }

    #[test]
    #[should_panic(expected = "limited to 8-bit")]
    fn exhaustive_rejects_wide_adders() {
        let nl = ripple(9);
        let _ = check_adder_exhaustive(&nl, 9);
    }

    #[test]
    fn empty_report_rates() {
        let report = AdderReport::default();
        assert_eq!(report.error_rate(), 0.0);
        assert!(report.is_exact());
    }
}
