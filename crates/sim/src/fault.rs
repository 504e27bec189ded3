//! Fault injection: stuck-at defects and transient upsets.
//!
//! Classic manufacturing-test machinery: force one net to a constant
//! and observe the outputs. Used here to validate testbench vector
//! quality (do the vectors *detect* faults?) and to study how stuck-at
//! defects interact with the speculative adder's error detector.
//!
//! Two fault models share one injection engine:
//!
//! - [`StuckAt`] — the permanent single-stuck-at model: a net holds a
//!   constant in every simulated lane.
//! - [`FaultSpec`] with a sparse lane mask — a transient single-event
//!   upset: the 64 simulation lanes double as the time axis (one test
//!   vector per lane), so a fault active in lanes `[cycle, cycle+dur)`
//!   is an SEU with an injection cycle and a duration. Multiple
//!   [`FaultSpec`]s can be injected at once for multi-fault campaigns
//!   (`vlsa-resilience`).

use crate::{simulate, SimulateError, Stimulus, Waves};
use vlsa_netlist::{CellKind, NetId, Netlist};

/// A single stuck-at fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StuckAt {
    /// The faulted net.
    pub net: NetId,
    /// The value it is stuck at.
    pub value: bool,
}

impl StuckAt {
    /// Stuck-at-0 on `net`.
    pub fn zero(net: NetId) -> Self {
        StuckAt { net, value: false }
    }

    /// Stuck-at-1 on `net`.
    pub fn one(net: NetId) -> Self {
        StuckAt { net, value: true }
    }
}

/// A generalized fault: `net` is forced to `value` in the lanes set in
/// `lanes`. `lanes == u64::MAX` is the stuck-at model; a sparse mask is
/// a transient upset over the lane/time axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// The faulted net.
    pub net: NetId,
    /// The value forced onto the masked lanes.
    pub value: bool,
    /// Which of the 64 simulation lanes see the fault.
    pub lanes: u64,
}

impl FaultSpec {
    /// A permanent stuck-at fault (all lanes).
    pub fn stuck_at(fault: StuckAt) -> Self {
        FaultSpec {
            net: fault.net,
            value: fault.value,
            lanes: u64::MAX,
        }
    }

    /// A single-event upset: `net` flips to `value` at lane/cycle
    /// `cycle` and holds for `duration` lanes.
    ///
    /// # Panics
    ///
    /// Panics unless `cycle < 64` and `duration >= 1`.
    pub fn transient(net: NetId, value: bool, cycle: usize, duration: usize) -> Self {
        assert!(cycle < 64, "injection cycle must be in 0..64");
        assert!(duration >= 1, "duration must be at least one cycle");
        let span = duration.min(64 - cycle);
        let mask = if span == 64 {
            u64::MAX
        } else {
            ((1u64 << span) - 1) << cycle
        };
        FaultSpec {
            net,
            value,
            lanes: mask,
        }
    }

    /// The lane pattern this fault forces: `value` in the masked lanes.
    fn pattern(&self) -> u64 {
        if self.value {
            self.lanes
        } else {
            0
        }
    }
}

impl From<StuckAt> for FaultSpec {
    fn from(fault: StuckAt) -> Self {
        FaultSpec::stuck_at(fault)
    }
}

/// Simulates `netlist` under `stimulus` with `fault` injected.
///
/// Implemented by rebuilding the netlist with the faulted net replaced
/// by a constant (fanout of the faulty net sees the stuck value; logic
/// upstream still switches, as in the classic single-stuck-at model).
///
/// # Errors
///
/// Propagates [`SimulateError`] from the underlying simulation.
///
/// # Panics
///
/// Panics if `fault.net` is out of range.
pub fn simulate_with_fault<'a>(
    netlist: &'a Netlist,
    stimulus: &Stimulus,
    fault: StuckAt,
) -> Result<FaultWaves<'a>, SimulateError> {
    simulate_with_faults(netlist, stimulus, &[FaultSpec::stuck_at(fault)])
}

/// Simulates `netlist` under `stimulus` with every fault in `faults`
/// injected at once (multi-fault, lane-masked).
///
/// # Errors
///
/// Propagates [`SimulateError`] from the underlying simulation.
///
/// # Panics
///
/// Panics if any fault net is out of range.
pub fn simulate_with_faults<'a>(
    netlist: &'a Netlist,
    stimulus: &Stimulus,
    faults: &[FaultSpec],
) -> Result<FaultWaves<'a>, SimulateError> {
    let waves = simulate(netlist, stimulus)?;
    Ok(inject_into_waves(netlist, &waves, faults))
}

/// Injects `faults` into a precomputed fault-free simulation,
/// recomputing only the faulted cones. Campaign runners simulate the
/// golden pass once per stimulus and call this per fault.
///
/// Implemented by rebuilding the netlist values with each faulted net
/// overridden on its masked lanes (fanout of a faulty net sees the
/// forced lanes; logic upstream still switches, as in the classic
/// single-stuck-at model — a faulted gate output is re-clamped after
/// any recomputation of the gate).
///
/// # Panics
///
/// Panics if any fault net is out of range, or `waves` came from a
/// different netlist.
pub fn inject_into_waves<'a>(
    netlist: &'a Netlist,
    waves: &Waves<'_>,
    faults: &[FaultSpec],
) -> FaultWaves<'a> {
    let mut values: Vec<u64> = netlist.nodes().map(|(id, _)| waves.net(id)).collect();
    // forced[net] = (mask, pattern) merged over all faults on that net;
    // later faults win on overlapping lanes.
    let mut forced: Vec<Option<(u64, u64)>> = vec![None; netlist.len()];
    let mut dirty = vec![false; netlist.len()];
    for fault in faults {
        assert!(fault.net.index() < netlist.len(), "fault net out of range");
        let (mask, pattern) = forced[fault.net.index()].unwrap_or((0, 0));
        forced[fault.net.index()] = Some((
            mask | fault.lanes,
            (pattern & !fault.lanes) | fault.pattern(),
        ));
    }
    for (idx, force) in forced.iter().enumerate() {
        if let Some((mask, pattern)) = force {
            let new = (values[idx] & !mask) | pattern;
            if new != values[idx] {
                values[idx] = new;
                dirty[idx] = true;
            }
        }
    }
    let mut input_buf = Vec::with_capacity(4);
    for (id, node) in netlist.nodes() {
        if !node.kind().is_gate() {
            continue;
        }
        if node.inputs().iter().any(|i| dirty[i.index()]) {
            input_buf.clear();
            input_buf.extend(node.inputs().iter().map(|i| values[i.index()]));
            let mut new = match node.kind() {
                CellKind::Input => unreachable!(),
                kind => kind.eval_words(&input_buf),
            };
            // A faulted gate output stays clamped on its forced lanes.
            if let Some((mask, pattern)) = forced[id.index()] {
                new = (new & !mask) | pattern;
            }
            if new != values[id.index()] {
                values[id.index()] = new;
                dirty[id.index()] = true;
            }
        }
    }
    FaultWaves { netlist, values }
}

/// Net values under an injected fault (mirrors [`crate::Waves`]).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultWaves<'a> {
    netlist: &'a Netlist,
    values: Vec<u64>,
}

impl FaultWaves<'_> {
    /// The 64-lane value of a net under the fault.
    pub fn net(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// The faulted value of output `name`.
    ///
    /// # Errors
    ///
    /// Returns [`SimulateError::UnknownPort`] if no output has that name.
    pub fn output(&self, name: &str) -> Result<u64, SimulateError> {
        self.netlist
            .primary_outputs()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, net)| self.net(*net))
            .ok_or_else(|| SimulateError::UnknownPort {
                name: name.to_string(),
            })
    }

    /// Collects faulted output bus `name[0..width]` into per-bit lane
    /// words (mirrors [`crate::Waves::output_bus`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimulateError::UnknownPort`] on the first missing bit.
    pub fn output_bus(&self, name: &str, width: usize) -> Result<Vec<u64>, SimulateError> {
        (0..width)
            .map(|i| self.output(&format!("{name}[{i}]")))
            .collect()
    }
}

/// Fault-coverage summary of a stimulus set (see [`fault_coverage`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCoverage {
    /// Faults whose effect reached some primary output.
    pub detected: usize,
    /// Total faults injected (two per gate output).
    pub total: usize,
}

impl FaultCoverage {
    /// Detected fraction.
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// Measures single-stuck-at coverage of `stimulus` over every gate
/// output of `netlist`: a fault counts as detected if any primary
/// output differs from the fault-free run in any lane.
///
/// # Errors
///
/// Propagates [`SimulateError`] from the underlying simulations.
pub fn fault_coverage(
    netlist: &Netlist,
    stimulus: &Stimulus,
) -> Result<FaultCoverage, SimulateError> {
    let golden = simulate(netlist, stimulus)?;
    let mut cov = FaultCoverage::default();
    for (id, node) in netlist.nodes() {
        if !node.kind().is_gate() {
            continue;
        }
        for value in [false, true] {
            cov.total += 1;
            let faulty = simulate_with_fault(netlist, stimulus, StuckAt { net: id, value })?;
            let detected = netlist
                .primary_outputs()
                .iter()
                .any(|(_, net)| faulty.net(*net) != golden.net(*net));
            if detected {
                cov.detected += 1;
            }
        }
    }
    if let Some(recorder) = vlsa_telemetry::recorder() {
        recorder
            .counter("vlsa.sim.faults_injected")
            .add(cov.total as u64);
        recorder
            .counter("vlsa.sim.faults_propagated")
            .add(cov.detected as u64);
        recorder
            .counter("vlsa.sim.faults_masked")
            .add((cov.total - cov.detected) as u64);
    }
    Ok(cov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsa_netlist::Netlist;

    fn xor_chain() -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new("xc");
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.xor2(a, b);
        let y = nl.xor2(x, a);
        nl.output("y", y);
        (nl, x, y)
    }

    #[test]
    fn stuck_net_holds_its_value() {
        let (nl, x, y) = xor_chain();
        let mut stim = Stimulus::new();
        stim.set("a", 0b1100).set("b", 0b1010);
        let faulty = simulate_with_fault(&nl, &stim, StuckAt::one(x)).expect("sim");
        assert_eq!(faulty.net(x), u64::MAX);
        // y = x ^ a with x stuck at 1 = !a.
        assert_eq!(faulty.net(y) & 0xF, !0b1100u64 & 0xF);
        assert_eq!(faulty.output("y").expect("port") & 0xF, 0b0011);
    }

    #[test]
    fn fault_off_the_sensitized_path_is_invisible() {
        let mut nl = Netlist::new("masked");
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.xor2(a, b);
        let zero = nl.constant(false);
        let y = nl.and2(x, zero); // output is 0 regardless of x
        nl.output("y", y);
        let mut stim = Stimulus::new();
        stim.set("a", u64::MAX).set("b", 0);
        let golden = simulate(&nl, &stim).expect("sim");
        let faulty = simulate_with_fault(&nl, &stim, StuckAt::zero(x)).expect("sim");
        assert_eq!(golden.net(y), faulty.net(y));
    }

    #[test]
    fn input_faults_are_injectable() {
        let (nl, _, y) = xor_chain();
        let a = nl.primary_inputs()[0].1;
        let mut stim = Stimulus::new();
        stim.set("a", 0).set("b", 0b1111);
        let faulty = simulate_with_fault(&nl, &stim, StuckAt::one(a)).expect("sim");
        // y = (a^b)^a; with a stuck at 1: (1^b)^1 = b.
        assert_eq!(faulty.net(y) & 0xF, 0b1111);
    }

    #[test]
    fn coverage_of_exhaustive_vectors_is_high() {
        let (nl, _, _) = xor_chain();
        // All 4 input assignments in 4 lanes: XOR logic is fully
        // sensitized.
        let mut stim = Stimulus::new();
        stim.set("a", 0b1100).set("b", 0b1010);
        let cov = fault_coverage(&nl, &stim).expect("coverage");
        assert_eq!(cov.total, 4);
        assert_eq!(cov.detected, 4);
        assert_eq!(cov.ratio(), 1.0);
    }

    #[test]
    fn coverage_of_a_single_vector_is_partial() {
        let mut nl = Netlist::new("andor");
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.and2(a, b);
        nl.output("x", x);
        let mut stim = Stimulus::new();
        stim.set("a", 0).set("b", 0); // single all-zero vector
        let cov = fault_coverage(&nl, &stim).expect("coverage");
        // Only stuck-at-1 on the AND output is visible.
        assert_eq!(cov.detected, 1);
        assert_eq!(cov.total, 2);
    }

    #[test]
    fn transient_fault_hits_only_its_lanes() {
        let (nl, x, y) = xor_chain();
        let mut stim = Stimulus::new();
        stim.set("a", 0).set("b", 0); // fault-free y = 0 in every lane
                                      // Upset x→1 at cycle 2 for 3 cycles: lanes 2..5.
        let seu = FaultSpec::transient(x, true, 2, 3);
        assert_eq!(seu.lanes, 0b11100);
        let faulty = simulate_with_faults(&nl, &stim, &[seu]).expect("sim");
        // y = x ^ a = x: upset lanes read 1, the rest stay 0.
        assert_eq!(faulty.net(y), 0b11100);
    }

    #[test]
    fn transient_duration_clamps_at_lane_63() {
        let (nl, x, _) = xor_chain();
        let seu = FaultSpec::transient(x, true, 60, 100);
        assert_eq!(seu.lanes, 0b1111u64 << 60);
        let full = FaultSpec::transient(x, false, 0, 64);
        assert_eq!(full.lanes, u64::MAX);
        assert_eq!(full.pattern(), 0);
        let _ = nl;
    }

    #[test]
    fn multi_fault_injection_composes() {
        let mut nl = Netlist::new("pair");
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.and2(a, b);
        let z = nl.or2(a, b);
        nl.output("x", x);
        nl.output("z", z);
        let mut stim = Stimulus::new();
        stim.set("a", 0).set("b", 0);
        let faulty = simulate_with_faults(
            &nl,
            &stim,
            &[
                FaultSpec::stuck_at(StuckAt::one(x)),
                FaultSpec::transient(z, true, 0, 2),
            ],
        )
        .expect("sim");
        assert_eq!(faulty.output("x").expect("x"), u64::MAX);
        assert_eq!(faulty.output("z").expect("z"), 0b11);
    }

    #[test]
    fn stuck_at_wrapper_matches_generalized_engine() {
        let (nl, x, y) = xor_chain();
        let mut stim = Stimulus::new();
        stim.set("a", 0b1100).set("b", 0b1010);
        let via_wrapper = simulate_with_fault(&nl, &stim, StuckAt::one(x)).expect("sim");
        let via_specs =
            simulate_with_faults(&nl, &stim, &[FaultSpec::from(StuckAt::one(x))]).expect("sim");
        assert_eq!(via_wrapper.net(y), via_specs.net(y));
    }

    #[test]
    fn injection_reuses_golden_waves() {
        let (nl, x, y) = xor_chain();
        let mut stim = Stimulus::new();
        stim.set("a", 0b1100).set("b", 0b1010);
        let golden = simulate(&nl, &stim).expect("sim");
        let faulty = inject_into_waves(&nl, &golden, &[FaultSpec::stuck_at(StuckAt::one(x))]);
        assert_eq!(faulty.net(x), u64::MAX);
        assert_eq!(faulty.net(y) & 0xF, !0b1100u64 & 0xF);
        // No faults: identical to golden everywhere.
        let clean = inject_into_waves(&nl, &golden, &[]);
        assert_eq!(clean.net(y), golden.net(y));
    }

    #[test]
    #[should_panic(expected = "injection cycle must be in 0..64")]
    fn transient_rejects_wide_cycle() {
        let (_, x, _) = xor_chain();
        FaultSpec::transient(x, true, 64, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_foreign_net() {
        let (nl, _, _) = xor_chain();
        let mut other = Netlist::new("o");
        let big: Vec<_> = (0..100).map(|i| other.input(format!("i{i}"))).collect();
        let mut stim = Stimulus::new();
        stim.set("a", 0).set("b", 0);
        let _ = simulate_with_fault(&nl, &stim, StuckAt::zero(big[99]));
    }
}
