//! Seeded input generation and the benchmark's own arithmetic oracle.
//!
//! Inputs come from the benchmark's generator, not the program's, so a
//! change to the program cannot change what it is measured on.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `stream` under `seed`; distinct streams of one
    /// seed are independent.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// How a request's operands are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Independent uniform 64-bit operands.
    Uniform,
    /// Thirds of uniform, biased (each propagate bit set with
    /// probability 0.8) and adversarial (a planted propagate run of at
    /// least the window) operands.
    Mixed,
}

/// One operand pair whose propagate bits are each set with
/// probability `num / 10`.
fn biased_pair(rng: &mut SplitMix, num: u64) -> (u64, u64) {
    let a = rng.next_u64();
    let mut xor = 0u64;
    for bit in 0..64 {
        if rng.below(10) < num {
            xor |= 1 << bit;
        }
    }
    (a, a ^ xor)
}

/// One operand pair with a propagate run of `window..=64` ones planted
/// at a random position: the speculative carry is always cut.
fn adversarial_pair(rng: &mut SplitMix, window: u32) -> (u64, u64) {
    let a = rng.next_u64();
    let len = window + rng.below(u64::from(65 - window)) as u32;
    let run = if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    };
    let offset = rng.below(u64::from(65 - len)) as u32;
    let xor = rng.next_u64() | (run << offset);
    (a, a ^ xor)
}

/// `count` operand pairs of `mix`.
pub fn operands(mix: Mix, count: usize, window: u32, rng: &mut SplitMix) -> Vec<(u64, u64)> {
    match mix {
        Mix::Uniform => (0..count)
            .map(|_| (rng.next_u64(), rng.next_u64()))
            .collect(),
        Mix::Mixed => {
            let third = count / 3;
            let mut ops = Vec::with_capacity(count);
            ops.extend((0..third).map(|_| (rng.next_u64(), rng.next_u64())));
            ops.extend((0..third).map(|_| biased_pair(rng, 8)));
            ops.extend((third * 2..count).map(|_| adversarial_pair(rng, window)));
            ops
        }
    }
}

/// Whether `p` holds a run of at least `k` consecutive ones: the
/// paper's error-detection predicate `ER` on the propagate vector.
pub fn has_run(p: u64, k: u32) -> bool {
    debug_assert!((1..=64).contains(&k));
    // After folding, bit i is set iff bits i..i+span-1 were all set.
    let mut x = p;
    let mut span = 1u32;
    while span * 2 <= k {
        x &= x >> span;
        span *= 2;
    }
    if span < k {
        x &= x >> (k - span);
    }
    x != 0
}

/// What a 64-bit VLSA must answer for `(a, b)` at window `k`: the exact
/// sum, and whether the op stalls (`ER`).
pub fn expect(a: u64, b: u64, k: u32) -> (u64, bool) {
    (a.wrapping_add(b), has_run(a ^ b, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn longest_run(p: u64) -> u32 {
        let (mut best, mut run) = (0, 0);
        for bit in 0..64 {
            run = if p >> bit & 1 == 1 { run + 1 } else { 0 };
            best = best.max(run);
        }
        best
    }

    #[test]
    fn run_predicate_matches_a_bit_walk() {
        let mut rng = SplitMix::new(3, 0);
        let mut samples: Vec<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        samples.extend([0, u64::MAX, 1, 1 << 63, 0x00FF_FFFF_0000_0000]);
        for _ in 0..500 {
            samples.push(adversarial_pair(&mut rng, 24).0 ^ adversarial_pair(&mut rng, 24).1);
        }
        for p in samples {
            let run = longest_run(p);
            for k in 1..=64 {
                assert_eq!(has_run(p, k), run >= k, "p={p:#x} k={k}");
            }
        }
    }

    #[test]
    fn adversarial_pairs_always_stall() {
        let mut rng = SplitMix::new(9, 1);
        for _ in 0..1000 {
            let (a, b) = adversarial_pair(&mut rng, 24);
            assert!(has_run(a ^ b, 24));
        }
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = operands(Mix::Mixed, 300, 24, &mut SplitMix::new(5, 2));
        let b = operands(Mix::Mixed, 300, 24, &mut SplitMix::new(5, 2));
        let c = operands(Mix::Mixed, 300, 24, &mut SplitMix::new(6, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
