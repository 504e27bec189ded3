//! Exact-count checks for the `vlsa.crypto.*` attack metrics. Each test
//! records into its own thread's scope.

use vlsa_crypto::{candidate_keys, run_attack, ArxCipher, ExactAdder32, SAMPLE_CORPUS};
use vlsa_telemetry::ScopedRecorder;

const KEY: [u32; 4] = [0xFEED_F00D, 0xCAFE_BABE, 0x0BAD_F00D, 0xDEAD_0F15];
const ROUNDS: u32 = 12;

fn ciphertext() -> Vec<u64> {
    let cipher = ArxCipher::new(KEY, ROUNDS);
    let mut adder = ExactAdder32::new();
    cipher.encrypt_bytes(SAMPLE_CORPUS.as_bytes(), &mut adder)
}

#[test]
fn attack_counts_candidates_and_blocks() {
    let scope = ScopedRecorder::install();

    let ct = ciphertext();
    let candidates = candidate_keys(KEY, 5); // 32 candidates
    let mut adder = ExactAdder32::new();
    let outcome = run_attack(&ct, &candidates, ROUNDS, &mut adder);
    assert_eq!(outcome.best_key(), KEY);

    let registry = scope.registry();
    assert_eq!(registry.counter_value("vlsa.crypto.candidates"), 32);
    assert_eq!(
        registry.counter_value("vlsa.crypto.blocks_tried"),
        32 * ct.len() as u64
    );
    // The exact adder never errs, so no decryption was corrupted.
    assert_eq!(registry.counter_value("vlsa.crypto.mis_decryptions"), 0);
}

#[test]
fn speculative_adder_mis_decryptions_are_counted() {
    let scope = ScopedRecorder::install();

    let ct = ciphertext();
    let candidates = candidate_keys(KEY, 3); // 8 candidates
                                             // Window 10 errs roughly once per couple hundred additions, so on
                                             // a corpus this size every candidate decryption is corrupted.
    let mut adder = vlsa_crypto::AcaAdder32::new(10).expect("valid");
    let outcome = run_attack(&ct, &candidates, ROUNDS, &mut adder);
    assert!(outcome.adder_errors > 0);

    let registry = scope.registry();
    let mis = registry.counter_value("vlsa.crypto.mis_decryptions");
    assert!(mis > 0, "expected corrupted candidate decryptions");
    assert!(mis <= registry.counter_value("vlsa.crypto.candidates"));
}

#[test]
fn disabled_telemetry_records_nothing() {
    // A scope live on this thread sees nothing of a thread without one.
    let scope = ScopedRecorder::install();
    std::thread::spawn(|| {
        assert!(!vlsa_telemetry::is_enabled());
        let ct = ciphertext();
        let mut adder = ExactAdder32::new();
        run_attack(&ct, &candidate_keys(KEY, 1), ROUNDS, &mut adder);
    })
    .join()
    .expect("unscoped thread");
    assert_eq!(scope.registry().counter_value("vlsa.crypto.candidates"), 0);
}
