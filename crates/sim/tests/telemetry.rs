//! Exact-count checks for the `vlsa.sim.*` profiling metrics. Each test
//! records into its own thread's scope.

use vlsa_netlist::Netlist;
use vlsa_sim::{adder_sums, fault_coverage, simulate, Stimulus};
use vlsa_telemetry::{Json, ScopedRecorder};

/// A gate-level ripple-carry adder following the harness port scheme.
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

#[test]
fn simulate_counts_passes_and_gate_evals() {
    let scope = ScopedRecorder::install();

    let mut nl = Netlist::new("xor");
    let a = nl.input("a");
    let b = nl.input("b");
    let x = nl.xor2(a, b);
    let y = nl.and2(x, a);
    nl.output("y", y);
    let mut stim = Stimulus::new();
    stim.set("a", 0b1100).set("b", 0b1010);
    simulate(&nl, &stim).expect("simulate");
    simulate(&nl, &stim).expect("simulate");

    let registry = scope.registry();
    assert_eq!(registry.counter_value("vlsa.sim.passes"), 2);
    // Two evaluated cells (xor, and) per pass; inputs don't count.
    assert_eq!(registry.counter_value("vlsa.sim.gate_evals"), 4);

    let snapshot = scope.snapshot();
    let per_pass = snapshot
        .get("histograms")
        .and_then(|h| h.get("vlsa.sim.gate_evals_per_pass"))
        .expect("per-pass histogram");
    assert_eq!(per_pass.get("count").and_then(Json::as_u64), Some(2));
    assert_eq!(per_pass.get("max").and_then(Json::as_u64), Some(2));
    let sweep = snapshot
        .get("histograms")
        .and_then(|h| h.get("vlsa.sim.sweep_ns"))
        .expect("sweep timing histogram");
    assert_eq!(sweep.get("count").and_then(Json::as_u64), Some(2));
}

#[test]
fn adder_sums_records_lane_utilization() {
    let scope = ScopedRecorder::install();

    let nl = ripple(8);
    // 130 pairs = two full 64-lane passes plus a 2-lane tail.
    let pairs: Vec<(Vec<u64>, Vec<u64>)> = (0..130u64)
        .map(|i| (vec![i & 0xFF], vec![(i * 7) & 0xFF]))
        .collect();
    adder_sums(&nl, 8, &pairs).expect("simulate");

    let registry = scope.registry();
    let lanes = registry.histogram("vlsa.sim.lanes_per_pass", vlsa_telemetry::DEFAULT_BUCKETS);
    assert_eq!(lanes.count(), 3);
    assert_eq!(lanes.sum(), 130);
    assert_eq!(lanes.min(), Some(2));
    assert_eq!(lanes.max(), Some(64));
    // Each batched pass is one engine pass.
    assert_eq!(registry.counter_value("vlsa.sim.passes"), 3);
}

#[test]
fn fault_coverage_counts_injected_propagated_masked() {
    let scope = ScopedRecorder::install();

    let mut nl = Netlist::new("andor");
    let a = nl.input("a");
    let b = nl.input("b");
    let x = nl.and2(a, b);
    nl.output("x", x);
    let mut stim = Stimulus::new();
    stim.set("a", 0).set("b", 0); // single all-zero vector
    let cov = fault_coverage(&nl, &stim).expect("coverage");
    assert_eq!((cov.detected, cov.total), (1, 2));

    let registry = scope.registry();
    assert_eq!(registry.counter_value("vlsa.sim.faults_injected"), 2);
    assert_eq!(registry.counter_value("vlsa.sim.faults_propagated"), 1);
    assert_eq!(registry.counter_value("vlsa.sim.faults_masked"), 1);
}

#[test]
fn disabled_telemetry_records_nothing() {
    // A scope live on this thread sees nothing of a thread without one.
    let scope = ScopedRecorder::install();
    std::thread::spawn(|| {
        assert!(!vlsa_telemetry::is_enabled());
        let nl = ripple(4);
        let pairs = vec![(vec![1u64], vec![2u64])];
        adder_sums(&nl, 4, &pairs).expect("simulate");
    })
    .join()
    .expect("unscoped thread");
    assert_eq!(scope.registry().counter_value("vlsa.sim.passes"), 0);
}
