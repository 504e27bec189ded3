//! Word-level software model of the speculative adder.
//!
//! Gate-level netlists are the ground truth for delay and area, but
//! applications (like the ciphertext-only attack of `vlsa-crypto`) want a
//! fast functional model. [`SpeculativeAdder`] adds integers exactly the
//! way the ACA hardware would — windowed carries with zero carry assumed
//! into each window — and reports the paper's error-detection signal.

use crate::SpecError;
use std::fmt;
use vlsa_runstats::{longest_one_run_words, min_bound_for_prob, prob_longest_run_gt};

/// One speculative addition: the (possibly wrong) fast sum, the exact
/// sum, and the detection flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Speculation<T> {
    /// The ACA result, available after the short speculative latency.
    pub speculative: T,
    /// The exact sum (what error recovery would produce).
    pub exact: T,
    /// The paper's `ER` signal: a propagate run of `window` or more was
    /// present, so the speculative result *may* be wrong.
    pub error_detected: bool,
}

impl<T: PartialEq> Speculation<T> {
    /// Whether the speculative result equals the exact sum.
    pub fn is_correct(&self) -> bool {
        self.speculative == self.exact
    }

    /// Whether the detector fired even though the speculation was
    /// correct (the incoming carry under the long run happened to be 0).
    pub fn is_false_alarm(&self) -> bool {
        self.error_detected && self.is_correct()
    }
}

/// A software Almost Correct Adder with the paper's error detector.
///
/// # Examples
///
/// ```
/// use vlsa_core::SpeculativeAdder;
///
/// let adder = SpeculativeAdder::for_accuracy(64, 0.9999)?;
/// let r = adder.add_u64(0x1234_5678, 0x9ABC_DEF0);
/// assert!(r.is_correct());
/// assert_eq!(r.exact, 0x1234_5678 + 0x9ABC_DEF0);
/// # Ok::<(), vlsa_core::SpecError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpeculativeAdder {
    nbits: usize,
    window: usize,
}

impl SpeculativeAdder {
    /// Creates an adder with an explicit carry window.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidWidth`] if `nbits` is zero and
    /// [`SpecError::InvalidWindow`] if `window` is zero or exceeds
    /// `nbits`.
    pub fn new(nbits: usize, window: usize) -> Result<Self, SpecError> {
        if nbits == 0 {
            return Err(SpecError::InvalidWidth { nbits });
        }
        if window == 0 || window > nbits {
            return Err(SpecError::InvalidWindow { window, nbits });
        }
        Ok(SpeculativeAdder { nbits, window })
    }

    /// Creates an adder whose window is the smallest making the
    /// speculative sum exact with probability at least `accuracy` on
    /// uniform operands (paper Table 1 sizing).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidWidth`] for zero width or
    /// [`SpecError::InvalidAccuracy`] if `accuracy` is not in `(0, 1]`.
    pub fn for_accuracy(nbits: usize, accuracy: f64) -> Result<Self, SpecError> {
        if nbits == 0 {
            return Err(SpecError::InvalidWidth { nbits });
        }
        if !(accuracy > 0.0 && accuracy <= 1.0) {
            return Err(SpecError::InvalidAccuracy { accuracy });
        }
        let window = (min_bound_for_prob(nbits, accuracy) + 1).min(nbits);
        SpeculativeAdder { nbits, window }.validated()
    }

    fn validated(self) -> Result<Self, SpecError> {
        if self.window == 0 || self.window > self.nbits {
            Err(SpecError::InvalidWindow {
                window: self.window,
                nbits: self.nbits,
            })
        } else {
            Ok(self)
        }
    }

    /// Operand width in bits.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Carry window width.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Exact probability that the detector fires on uniform random
    /// operands (an upper bound on the probability of a wrong
    /// speculative sum).
    pub fn detection_probability(&self) -> f64 {
        prob_longest_run_gt(self.nbits, self.window - 1)
    }

    /// Exact probability that the speculative sum is wrong on uniform
    /// random operands (see [`crate::prob_aca_error`]); always at most
    /// [`SpeculativeAdder::detection_probability`].
    pub fn error_probability(&self) -> f64 {
        crate::prob_aca_error(self.nbits, self.window)
    }

    /// Adds two values up to 64 bits wide.
    ///
    /// Operands are truncated to `nbits`.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits; use
    /// [`SpeculativeAdder::add_wide`] instead.
    pub fn add_u64(&self, a: u64, b: u64) -> Speculation<u64> {
        self.add_u64_with_cout(a, b).0
    }

    /// The exact fallback path: `(a + b) mod 2ⁿ` and the true
    /// carry-out, computed without speculation. This is what the
    /// resilience layer swaps in when the speculative datapath is
    /// distrusted (graceful degradation to a traditional adder).
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn exact_u64(&self, a: u64, b: u64) -> (u64, bool) {
        assert!(
            self.nbits <= 64,
            "adder is {} bits wide; use add_wide",
            self.nbits
        );
        let mask = width_mask(self.nbits);
        let full = (a & mask) as u128 + (b & mask) as u128;
        ((full as u64) & mask, full >> self.nbits != 0)
    }

    /// [`SpeculativeAdder::add_u64`] plus the speculative carry-out —
    /// the carry the ACA's top window produces, which the residue
    /// checker needs to close the congruence over the full `(n+1)`-bit
    /// result. One [`aca_u64`] call computes both.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn add_u64_with_cout(&self, a: u64, b: u64) -> (Speculation<u64>, bool) {
        let (exact, _) = self.exact_u64(a, b);
        let word = aca_u64(a, b, self.nbits, self.window);
        crate::metrics::record_add(word.er, word.sum == exact);
        let spec = Speculation {
            speculative: word.sum,
            exact,
            error_detected: word.er,
        };
        (spec, word.cout)
    }

    /// Adds two wide values stored as little-endian `u64` words.
    ///
    /// Operands shorter than `nbits` are zero-extended; bits above
    /// `nbits` are ignored.
    pub fn add_wide(&self, a: &[u64], b: &[u64]) -> Speculation<Vec<u64>> {
        let spec = windowed_sum_wide(a, b, self.nbits, self.window);
        let exact = vlsa_sim_free_wide_add(a, b, self.nbits);
        let p = xor_wide(a, b, self.nbits);
        let error_detected = longest_one_run_words(&p, self.nbits) as usize >= self.window;
        crate::metrics::record_add(error_detected, spec == exact);
        Speculation {
            speculative: spec,
            exact,
            error_detected,
        }
    }
}

impl fmt::Display for SpeculativeAdder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aca{}w{}", self.nbits, self.window)
    }
}

fn bit(words: &[u64], i: usize) -> u64 {
    words.get(i / 64).map_or(0, |w| (w >> (i % 64)) & 1)
}

fn width_mask(nbits: usize) -> u64 {
    if nbits >= 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    }
}

/// One ACA addition of up to 64 bits, as [`aca_u64`] computes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcaWord {
    /// The speculative (windowed) sum, masked to the width.
    pub sum: u64,
    /// The speculative carry-out: the carry the top window produces.
    pub cout: bool,
    /// The paper's `ER` signal: a propagate run of `window` or more.
    pub er: bool,
}

/// The word-level ACA kernel: the windowed sum of `a + b` over `nbits`
/// bits with carry window `window`, its carry-out, and `ER`.
///
/// With g = a∧b and p = a⊕b, `(G_s, P_s)` at bit i is the
/// generate/propagate of the `s` bits ending at i. A doubling ladder
/// builds G₂ₛ = Gₛ ∨ Pₛ∧(Gₛ≪s) and P₂ₛ = Pₛ∧(Pₛ≪s), and the k-bit window
/// is composed from the binary decomposition of k. Shifts fill with
/// zeros, which truncates every span at bit 0. The carry into bit i is
/// G_k at i−1, so the sum is p ⊕ (G_k≪1) and the carry-out is G_k at
/// bit n−1; ER is any set bit of P_k. [`windowed_add_wide`] is the
/// per-bit reference this is tested against.
///
/// Operands are truncated to `nbits`. A window wider than `nbits` sees
/// every lower bit (the sum is exact) and never raises `ER`.
///
/// # Panics
///
/// Panics if `nbits > 64`, or `window` is zero.
pub fn aca_u64(a: u64, b: u64, nbits: usize, window: usize) -> AcaWord {
    assert!(nbits <= 64, "use windowed_add_wide for nbits > 64");
    assert!(window > 0, "window must be positive");
    let mask = width_mask(nbits);
    let (a, b) = (a & mask, b & mask);
    let p = a ^ b;
    let k = window.min(nbits);
    // (gs, ps): the ladder span of width s; (gk, pk): the window so far,
    // `len` bits wide, extended downward by each set bit of k.
    let (mut gs, mut ps) = (a & b, p);
    let (mut gk, mut pk) = (0u64, u64::MAX);
    let (mut s, mut len) = (1usize, 0usize);
    loop {
        if k & s != 0 {
            gk |= pk & (gs << len);
            pk &= ps << len;
            len += s;
        }
        if len == k {
            break;
        }
        gs |= ps & (gs << s);
        ps &= ps << s;
        s <<= 1;
    }
    AcaWord {
        sum: (p ^ (gk << 1)) & mask,
        cout: nbits > 0 && (gk >> (nbits - 1)) & 1 == 1,
        er: window <= nbits && pk & mask != 0,
    }
}

/// The ACA sum of `a + b` over `nbits` bits with carry window `window`,
/// for operands up to 64 bits (see [`aca_u64`]).
///
/// # Panics
///
/// Panics if `nbits > 64`, or `window` is zero.
pub fn windowed_sum_u64(a: u64, b: u64, nbits: usize, window: usize) -> u64 {
    aca_u64(a, b, nbits, window).sum
}

/// [`windowed_sum_u64`] plus the speculative carry-out: the carry the
/// top window produces into bit `nbits` (the ACA hardware's `cout`).
///
/// # Panics
///
/// Panics if `nbits > 64`, or `window` is zero.
pub fn windowed_add_u64(a: u64, b: u64, nbits: usize, window: usize) -> (u64, bool) {
    let word = aca_u64(a, b, nbits, window);
    (word.sum, word.cout)
}

/// Wide-operand version of [`windowed_sum_u64`].
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn windowed_sum_wide(a: &[u64], b: &[u64], nbits: usize, window: usize) -> Vec<u64> {
    windowed_add_wide(a, b, nbits, window).0
}

/// Wide-operand version of [`windowed_add_u64`]: the speculative sum
/// and the window-truncated carry-out.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn windowed_add_wide(a: &[u64], b: &[u64], nbits: usize, window: usize) -> (Vec<u64>, bool) {
    assert!(window > 0, "window must be positive");
    let nwords = nbits.div_ceil(64).max(1);
    let mut sum = vec![0u64; nwords];
    // break_carry: the carry value just above the most recent
    // non-propagate position; run: number of consecutive propagate
    // positions since then.
    let mut break_carry = false; // carry into bit 0
    let mut run = 0usize;
    for i in 0..nbits {
        let ai = bit(a, i) == 1;
        let bi = bit(b, i) == 1;
        let p = ai ^ bi;
        let g = ai && bi;
        // Carry into bit i under the window assumption.
        let c_in = if run >= window { false } else { break_carry };
        if p ^ c_in {
            sum[i / 64] |= 1u64 << (i % 64);
        }
        // Update the run state with position i itself. The carry *out*
        // of a window ending at i is g_i, p_i·(window carry), or 0.
        if p {
            run += 1;
        } else {
            break_carry = g;
            run = 0;
        }
    }
    // Carry out of the top window: the same formula as the carry into a
    // hypothetical bit `nbits` — zero when the whole window propagates,
    // the latched break carry otherwise.
    let cout = if run >= window { false } else { break_carry };
    (sum, cout)
}

/// Exact wide add (local copy to keep this crate independent of the
/// simulator): `a + b mod 2^nbits`.
fn vlsa_sim_free_wide_add(a: &[u64], b: &[u64], nbits: usize) -> Vec<u64> {
    let nwords = nbits.div_ceil(64).max(1);
    let mut out = vec![0u64; nwords];
    let mut carry = 0u64;
    for (i, word) in out.iter_mut().enumerate() {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        *word = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    mask_top(&mut out, nbits);
    out
}

fn xor_wide(a: &[u64], b: &[u64], nbits: usize) -> Vec<u64> {
    let nwords = nbits.div_ceil(64).max(1);
    let mut out = vec![0u64; nwords];
    for (i, word) in out.iter_mut().enumerate() {
        *word = a.get(i).copied().unwrap_or(0) ^ b.get(i).copied().unwrap_or(0);
    }
    mask_top(&mut out, nbits);
    out
}

fn mask_top(words: &mut [u64], nbits: usize) {
    let rem = nbits % 64;
    if rem != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << rem) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Reference windowed sum: recompute each carry by walking its
    /// window explicitly.
    fn slow_windowed_sum(a: u64, b: u64, nbits: usize, window: usize) -> u64 {
        let mut sum = 0u64;
        for i in 0..nbits {
            // Carry into i from window [i-window .. i-1], zero below.
            let mut c = false;
            let lo = i.saturating_sub(window);
            for j in lo..i {
                let aj = (a >> j) & 1 == 1;
                let bj = (b >> j) & 1 == 1;
                let g = aj && bj;
                let p = aj ^ bj;
                c = g || (p && c);
            }
            let p_i = ((a >> i) ^ (b >> i)) & 1 == 1;
            if p_i ^ c {
                sum |= 1 << i;
            }
        }
        sum
    }

    #[test]
    fn fast_scan_matches_slow_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        for _ in 0..500 {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            for window in [1usize, 2, 5, 8, 13, 64] {
                assert_eq!(
                    windowed_sum_u64(a, b, 64, window),
                    slow_windowed_sum(a, b, 64, window),
                    "a={a:#x} b={b:#x} w={window}"
                );
            }
        }
    }

    #[test]
    fn full_window_is_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(89);
        for _ in 0..200 {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            assert_eq!(windowed_sum_u64(a, b, 64, 64), a.wrapping_add(b));
        }
    }

    #[test]
    fn known_error_case() {
        // 0111...1 + 1 propagates the carry the full width: any window
        // short of the run length truncates it.
        let adder = SpeculativeAdder::new(8, 3).expect("valid");
        let r = adder.add_u64(0b0111_1111, 1);
        assert!(!r.is_correct());
        assert!(r.error_detected);
        assert_eq!(r.exact, 0b1000_0000);
        // The generate at bit 0 is visible to windows ending at bits
        // 1..=3; from bit 4 upward the window holds only propagates, so
        // the carry is dropped and those sum bits stay raw.
        assert_eq!(r.speculative, 0b0111_0000);
    }

    #[test]
    fn detector_never_misses_an_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let adder = SpeculativeAdder::new(64, 8).expect("valid");
        let mut errors = 0;
        let mut alarms = 0;
        for _ in 0..20_000 {
            let r = adder.add_u64(rng.gen(), rng.gen());
            if !r.is_correct() {
                errors += 1;
                assert!(r.error_detected, "missed error");
            }
            if r.error_detected {
                alarms += 1;
            }
        }
        assert!(alarms >= errors);
        // With window 8 on 64 bits, errors are rare but present.
        assert!(errors > 0);
    }

    #[test]
    fn false_alarms_exist_and_are_flagged() {
        // A long run of propagates with no carry entering it: detector
        // fires, result is correct.
        let adder = SpeculativeAdder::new(16, 4).expect("valid");
        let r = adder.add_u64(0b0000_1111_1111_0000, 0b1111_0000_0000_0000);
        assert!(r.error_detected);
        assert!(r.is_correct());
        assert!(r.is_false_alarm());
    }

    #[test]
    fn wide_matches_u64_on_64_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let adder = SpeculativeAdder::new(64, 9).expect("valid");
        for _ in 0..200 {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            let narrow = adder.add_u64(a, b);
            let wide = adder.add_wide(&[a], &[b]);
            assert_eq!(wide.speculative, vec![narrow.speculative]);
            assert_eq!(wide.exact, vec![narrow.exact]);
            assert_eq!(wide.error_detected, narrow.error_detected);
        }
    }

    #[test]
    fn wide_carries_cross_word_boundaries() {
        let adder = SpeculativeAdder::new(128, 128).expect("valid");
        let r = adder.add_wide(&[u64::MAX, 0], &[1, 0]);
        assert_eq!(r.exact, vec![0, 1]);
        assert_eq!(r.speculative, vec![0, 1]); // full window = exact
    }

    #[test]
    fn error_probability_below_detection() {
        let adder = SpeculativeAdder::new(64, 10).expect("valid");
        let e = adder.error_probability();
        let d = adder.detection_probability();
        assert!(e > 0.0 && e < d);
    }

    #[test]
    fn accuracy_sizing_matches_runstats() {
        let adder = SpeculativeAdder::for_accuracy(1024, 0.9999).expect("valid");
        assert!(adder.detection_probability() <= 1e-4);
        // One window bit fewer must violate the target.
        let tighter = SpeculativeAdder::new(1024, adder.window() - 1).expect("valid");
        assert!(tighter.detection_probability() > 1e-4);
    }

    #[test]
    fn measured_error_rate_tracks_detection_probability() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(103);
        let adder = SpeculativeAdder::new(64, 6).expect("valid");
        let trials = 50_000u64;
        let mut detected = 0u64;
        for _ in 0..trials {
            if adder.add_u64(rng.gen(), rng.gen()).error_detected {
                detected += 1;
            }
        }
        let measured = detected as f64 / trials as f64;
        let predicted = adder.detection_probability();
        assert!(
            (measured - predicted).abs() < 0.2 * predicted + 0.002,
            "measured {measured}, predicted {predicted}"
        );
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(
            SpeculativeAdder::new(0, 1),
            Err(SpecError::InvalidWidth { .. })
        ));
        assert!(matches!(
            SpeculativeAdder::new(8, 0),
            Err(SpecError::InvalidWindow { .. })
        ));
        assert!(matches!(
            SpeculativeAdder::new(8, 9),
            Err(SpecError::InvalidWindow { .. })
        ));
        assert!(matches!(
            SpeculativeAdder::for_accuracy(8, 0.0),
            Err(SpecError::InvalidAccuracy { .. })
        ));
        assert!(SpeculativeAdder::for_accuracy(8, 1.0).is_ok());
        let a = SpeculativeAdder::new(64, 8).expect("valid");
        assert_eq!(a.nbits(), 64);
        assert_eq!(a.window(), 8);
        assert_eq!(a.to_string(), "aca64w8");
    }

    #[test]
    #[should_panic(expected = "use add_wide")]
    fn add_u64_rejects_wide_adders() {
        let adder = SpeculativeAdder::new(128, 8).expect("valid");
        adder.add_u64(1, 2);
    }

    /// Reference speculative carry-out: evaluate the top window span
    /// explicitly with zero carry into it.
    fn slow_windowed_cout(a: u64, b: u64, nbits: usize, window: usize) -> bool {
        let mut c = false;
        for j in nbits.saturating_sub(window)..nbits {
            let aj = (a >> j) & 1 == 1;
            let bj = (b >> j) & 1 == 1;
            c = (aj && bj) || ((aj ^ bj) && c);
        }
        c
    }

    #[test]
    fn windowed_cout_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(107);
        for _ in 0..500 {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            for (nbits, window) in [(64usize, 8usize), (64, 64), (16, 4), (8, 3)] {
                let mask = if nbits == 64 {
                    u64::MAX
                } else {
                    (1u64 << nbits) - 1
                };
                let (_, cout) = windowed_add_u64(a & mask, b & mask, nbits, window);
                assert_eq!(
                    cout,
                    slow_windowed_cout(a & mask, b & mask, nbits, window),
                    "a={a:#x} b={b:#x} n={nbits} w={window}"
                );
            }
        }
    }

    #[test]
    fn full_window_cout_is_exact() {
        for a in 0u64..64 {
            for b in 0u64..64 {
                let (sum, cout) = windowed_add_u64(a, b, 6, 6);
                assert_eq!(sum, (a + b) & 0x3F);
                assert_eq!(cout, a + b > 0x3F);
            }
        }
    }

    /// The per-bit oracle for one `u64` addition: every [`Speculation`]
    /// field plus the speculative carry-out, from [`windowed_add_wide`].
    fn oracle(a: u64, b: u64, nbits: usize, window: usize) -> (Speculation<u64>, bool) {
        let mask = width_mask(nbits);
        let (a, b) = (a & mask, b & mask);
        let (sum, cout) = windowed_add_wide(&[a], &[b], nbits, window);
        let spec = Speculation {
            speculative: sum[0],
            exact: a.wrapping_add(b) & mask,
            error_detected: longest_one_run_words(&[a ^ b], nbits) as usize >= window,
        };
        (spec, cout)
    }

    fn assert_kernel_matches_oracle(a: u64, b: u64, nbits: usize, window: usize) {
        let adder = SpeculativeAdder::new(nbits, window).expect("valid");
        assert_eq!(
            adder.add_u64_with_cout(a, b),
            oracle(a, b, nbits, window),
            "a={a:#x} b={b:#x} n={nbits} k={window}"
        );
    }

    #[test]
    fn kernel_matches_oracle_exhaustively_up_to_8_bits() {
        for nbits in 1..=8usize {
            for window in 1..=nbits {
                for a in 0..1u64 << nbits {
                    for b in 0..1u64 << nbits {
                        assert_kernel_matches_oracle(a, b, nbits, window);
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_matches_oracle_on_random_and_propagate_heavy_operands() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(113);
        for nbits in [13usize, 32, 64] {
            for window in 1..=nbits {
                for _ in 0..256 {
                    let a: u64 = rng.gen();
                    assert_kernel_matches_oracle(a, rng.gen(), nbits, window);
                    // b = !a with sparse noise: long propagate runs, so
                    // ER fires and the window truncates real carries.
                    let noise = rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>();
                    assert_kernel_matches_oracle(a, !a ^ noise, nbits, window);
                }
            }
        }
    }

    #[test]
    fn kernel_windows_wider_than_the_adder_are_exact() {
        for nbits in 1..=6usize {
            let mask = width_mask(nbits);
            for a in 0..1u64 << nbits {
                for b in 0..1u64 << nbits {
                    let word = aca_u64(a, b, nbits, nbits + 3);
                    let (sum, cout) = windowed_add_wide(&[a], &[b], nbits, nbits + 3);
                    assert_eq!((word.sum, word.cout), (sum[0], cout));
                    assert_eq!(word.sum, (a + b) & mask);
                    assert!(!word.er);
                }
            }
        }
    }

    #[test]
    fn exact_fallback_is_exact() {
        let adder = SpeculativeAdder::new(16, 4).expect("valid");
        for (a, b) in [(0xFFFFu64, 1u64), (0x7FFF, 0x7FFF), (0, 0), (9, 33)] {
            let (sum, cout) = adder.exact_u64(a, b);
            assert_eq!(sum, (a + b) & 0xFFFF);
            assert_eq!(cout, a + b > 0xFFFF);
        }
        let (spec, cout) = adder.add_u64_with_cout(0x7FFF, 1);
        assert!(spec.error_detected);
        // The truncated top window sees only propagates: spec cout 0.
        assert!(!cout);
    }
}
