//! The ciphertext-only key-search attack (paper §1).
//!
//! The attacker holds ECB ciphertext and a pruned candidate key set.
//! Every candidate is used to decrypt the corpus; candidates whose
//! plaintext scores English-like survive. Swapping the decryption
//! adder for an ACA speeds the inner loop up without changing the
//! ranking, because a rare mis-decrypted block cannot move the corpus
//! letter frequencies far.

use crate::{Adder32, ArxCipher, EnglishScorer};

/// A built-in public-domain-style English corpus for demos and tests.
pub const SAMPLE_CORPUS: &str = "\
The evening fog rolled in over the harbour while the last of the fishing \
boats tied up along the quay. In the tavern by the water the talk turned, \
as it always did, to the storm of the previous winter and the ships that \
had never come home. An old engineer sat in the corner with a notebook, \
sketching adders and carry chains by candlelight, convinced that a machine \
which was allowed to be wrong one time in ten thousand could be made twice \
as fast as one that never erred. Nobody believed him, of course, and the \
innkeeper poured another round while the rain began again. Still he wrote \
on, numbering every page, certain that speculation and recovery together \
could be stronger than caution alone. The harbour bell rang midnight and \
the fog pressed close against the windows like a patient audience.";

/// The attack's verdict on one candidate key.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyScore {
    /// The candidate key.
    pub key: [u32; 4],
    /// English-likeness score of the decrypted corpus (lower = better).
    pub score: f64,
}

/// Result of a ciphertext-only attack run.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackOutcome {
    /// Candidates ranked best (most English) first.
    pub ranking: Vec<KeyScore>,
    /// Total additions spent in the decryption kernel.
    pub additions: u64,
    /// Additions whose speculative result was wrong.
    pub adder_errors: u64,
}

impl AttackOutcome {
    /// The best-ranked key.
    ///
    /// # Panics
    ///
    /// Panics if no candidates were scored.
    pub fn best_key(&self) -> [u32; 4] {
        self.ranking.first().expect("at least one candidate").key
    }

    /// Rank (0-based) of `key` in the outcome, if present.
    pub fn rank_of(&self, key: [u32; 4]) -> Option<usize> {
        self.ranking.iter().position(|k| k.key == key)
    }
}

/// Runs the ciphertext-only attack: decrypts `ciphertext` under every
/// candidate key with `adder` and ranks candidates by English score.
///
/// `rounds` must match the encryption round count (it is public).
///
/// When telemetry is enabled, counts candidates, blocks tried, and
/// mis-decryptions (candidate decryptions corrupted by at least one
/// speculative adder error) under `vlsa.crypto.*`.
pub fn run_attack<A: Adder32 + ?Sized>(
    ciphertext: &[u64],
    candidates: &[[u32; 4]],
    rounds: u32,
    adder: &mut A,
) -> AttackOutcome {
    let telemetry = vlsa_telemetry::recorder();
    let scorer = EnglishScorer::new();
    let mut ranking: Vec<KeyScore> = Vec::with_capacity(candidates.len());
    for &key in candidates {
        let errors_before = adder.errors();
        let cipher = ArxCipher::new(key, rounds);
        let plain = cipher.decrypt_bytes(ciphertext, adder);
        ranking.push(KeyScore {
            key,
            score: scorer.score(&plain),
        });
        if let Some(recorder) = &telemetry {
            recorder.counter("vlsa.crypto.candidates").incr();
            recorder
                .counter("vlsa.crypto.blocks_tried")
                .add(ciphertext.len() as u64);
            if adder.errors() > errors_before {
                recorder.counter("vlsa.crypto.mis_decryptions").incr();
            }
        }
    }
    ranking.sort_by(|a, b| a.score.total_cmp(&b.score));
    AttackOutcome {
        ranking,
        additions: adder.additions(),
        adder_errors: adder.errors(),
    }
}

/// Builds a candidate key set around `true_key` by varying its low
/// 16 bits through all values — the paper's "pruned set of potential
/// keys" after the analytic phase.
pub fn candidate_keys(true_key: [u32; 4], bits: u32) -> Vec<[u32; 4]> {
    assert!(bits <= 16, "candidate space limited to 2^16");
    (0..(1u32 << bits))
        .map(|low| {
            let mut k = true_key;
            k[3] = (k[3] & !((1 << bits) - 1)) | low;
            k
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcaAdder32, ExactAdder32};

    const KEY: [u32; 4] = [0xFEED_F00D, 0xCAFE_BABE, 0x0BAD_F00D, 0xDEAD_0F15];
    const ROUNDS: u32 = 12;

    fn ciphertext() -> Vec<u64> {
        let cipher = ArxCipher::new(KEY, ROUNDS);
        let mut adder = ExactAdder32::new();
        cipher.encrypt_bytes(SAMPLE_CORPUS.as_bytes(), &mut adder)
    }

    #[test]
    fn exact_attack_recovers_key() {
        let ct = ciphertext();
        let candidates = candidate_keys(KEY, 6);
        let mut adder = ExactAdder32::new();
        let outcome = run_attack(&ct, &candidates, ROUNDS, &mut adder);
        assert_eq!(outcome.best_key(), KEY);
        assert_eq!(outcome.rank_of(KEY), Some(0));
        assert_eq!(outcome.adder_errors, 0);
        assert!(outcome.additions > 0);
    }

    #[test]
    fn speculative_attack_recovers_key_despite_errors() {
        let ct = ciphertext();
        let candidates = candidate_keys(KEY, 6);
        // Small window so speculation errors actually occur during the
        // search (roughly one addition in two hundred), while most
        // blocks still decrypt cleanly.
        let mut adder = AcaAdder32::new(10).expect("valid");
        let outcome = run_attack(&ct, &candidates, ROUNDS, &mut adder);
        assert_eq!(
            outcome.best_key(),
            KEY,
            "ACA attack must still rank the true key first"
        );
        assert!(
            outcome.adder_errors > 0,
            "window 10 should err during the search"
        );
    }

    #[test]
    fn true_key_scores_clearly_best() {
        let ct = ciphertext();
        let candidates = candidate_keys(KEY, 4);
        let mut adder = ExactAdder32::new();
        let outcome = run_attack(&ct, &candidates, ROUNDS, &mut adder);
        let best = &outcome.ranking[0];
        let second = &outcome.ranking[1];
        assert!(best.score * 2.0 < second.score, "{best:?} vs {second:?}");
    }

    #[test]
    fn candidate_generation() {
        let keys = candidate_keys(KEY, 3);
        assert_eq!(keys.len(), 8);
        assert!(keys.contains(&KEY) || keys.iter().any(|k| k[3] & 0x7 == KEY[3] & 0x7));
        // All candidates share the high bits.
        assert!(keys
            .iter()
            .all(|k| k[0] == KEY[0] && k[3] >> 3 == KEY[3] >> 3));
    }

    #[test]
    #[should_panic(expected = "limited to 2^16")]
    fn oversized_candidate_space_rejected() {
        candidate_keys(KEY, 20);
    }
}
