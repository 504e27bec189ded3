//! The levelized bit-parallel simulation engine.
//!
//! A [`Netlist`]'s construction order is topological, so simulation is a
//! single forward sweep. Each net carries a `u64`, giving 64 independent
//! test vectors ("lanes") per pass.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use vlsa_netlist::{CellKind, NetId, Netlist};

/// Failure while driving or reading a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimulateError {
    /// A primary input was left undriven.
    UndrivenInput {
        /// The input port name.
        name: String,
    },
    /// A stimulus names a port that does not exist.
    UnknownPort {
        /// The unknown port name.
        name: String,
    },
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulateError::UndrivenInput { name } => {
                write!(f, "primary input `{name}` is undriven")
            }
            SimulateError::UnknownPort { name } => write!(f, "no port named `{name}`"),
        }
    }
}

impl Error for SimulateError {}

/// A set of 64-lane input assignments, keyed by input port name.
///
/// # Examples
///
/// ```
/// use vlsa_sim::Stimulus;
///
/// let mut stim = Stimulus::new();
/// stim.set("a", 0b1010);
/// stim.set("b", 0b0110);
/// assert_eq!(stim.get("a"), Some(0b1010));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stimulus {
    values: HashMap<String, u64>,
}

impl Stimulus {
    /// Creates an empty stimulus.
    pub fn new() -> Self {
        Stimulus::default()
    }

    /// Drives port `name` with 64 lanes of values.
    pub fn set(&mut self, name: impl Into<String>, lanes: u64) -> &mut Self {
        self.values.insert(name.into(), lanes);
        self
    }

    /// Drives the bits of a bus `name[i]` from per-bit lane words,
    /// LSB first.
    pub fn set_bus(&mut self, name: &str, bit_lanes: &[u64]) -> &mut Self {
        for (i, &word) in bit_lanes.iter().enumerate() {
            self.set(format!("{name}[{i}]"), word);
        }
        self
    }

    /// The lanes driving `name`, if set.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// Number of driven ports.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no ports are driven.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The value of every net after a simulation pass: 64 lanes per net.
#[derive(Clone, Debug, PartialEq)]
pub struct Waves<'a> {
    netlist: &'a Netlist,
    values: Vec<u64>,
}

impl Waves<'_> {
    /// The 64-lane value of an arbitrary net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for the simulated netlist.
    pub fn net(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// The 64-lane value of the primary output named `name`.
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

    /// Collects output bus `name[0..width]` into per-bit lane words.
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

/// Simulates `netlist` under `stimulus`, returning all net values.
///
/// # Errors
///
/// Returns [`SimulateError::UndrivenInput`] if any primary input has no
/// stimulus, or [`SimulateError::UnknownPort`] if the stimulus drives a
/// port the netlist does not have.
///
/// # Examples
///
/// ```
/// use vlsa_netlist::Netlist;
/// use vlsa_sim::{simulate, Stimulus};
///
/// let mut nl = Netlist::new("xor");
/// let a = nl.input("a");
/// let b = nl.input("b");
/// let y = nl.xor2(a, b);
/// nl.output("y", y);
///
/// let mut stim = Stimulus::new();
/// stim.set("a", 0b1100).set("b", 0b1010);
/// let waves = simulate(&nl, &stim)?;
/// assert_eq!(waves.output("y")? & 0xF, 0b0110);
/// # Ok::<(), vlsa_sim::SimulateError>(())
/// ```
pub fn simulate<'a>(netlist: &'a Netlist, stimulus: &Stimulus) -> Result<Waves<'a>, SimulateError> {
    // Reject stimulus for ports that do not exist (catches typos early).
    for name in stimulus.values.keys() {
        if !netlist.primary_inputs().iter().any(|(n, _)| n == name) {
            return Err(SimulateError::UnknownPort { name: name.clone() });
        }
    }
    let telemetry = vlsa_telemetry::recorder().map(|rec| (rec, std::time::Instant::now()));
    let mut values = vec![0u64; netlist.len()];
    for (name, net) in netlist.primary_inputs() {
        let lanes = stimulus
            .get(name)
            .ok_or_else(|| SimulateError::UndrivenInput { name: name.clone() })?;
        values[net.index()] = lanes;
    }
    let mut input_buf = Vec::with_capacity(4);
    let mut gate_evals = 0u64;
    for (id, node) in netlist.nodes() {
        match node.kind() {
            CellKind::Input => {}
            kind => {
                input_buf.clear();
                input_buf.extend(node.inputs().iter().map(|i| values[i.index()]));
                values[id.index()] = kind.eval_words(&input_buf);
                gate_evals += 1;
            }
        }
    }
    if let Some((recorder, start)) = telemetry {
        recorder.counter("vlsa.sim.passes").incr();
        recorder.counter("vlsa.sim.gate_evals").add(gate_evals);
        recorder
            .histogram(
                "vlsa.sim.gate_evals_per_pass",
                vlsa_telemetry::DEFAULT_BUCKETS,
            )
            .record(gate_evals);
        recorder
            .histogram("vlsa.sim.sweep_ns", vlsa_telemetry::DEFAULT_BUCKETS)
            .record(start.elapsed().as_nanos() as u64);
    }
    Ok(Waves { netlist, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsa_netlist::Netlist;

    fn full_adder() -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("cin");
        let x = nl.xor2(a, b);
        let s = nl.xor2(x, c);
        let m = nl.maj3(a, b, c);
        nl.output("sum", s);
        nl.output("cout", m);
        nl
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        // All 8 assignments in the low 8 lanes.
        let mut stim = Stimulus::new();
        stim.set("a", 0b1111_0000)
            .set("b", 0b1100_1100)
            .set("cin", 0b1010_1010);
        let waves = simulate(&nl, &stim).expect("simulate");
        assert_eq!(waves.output("sum").unwrap() & 0xFF, 0b1001_0110);
        assert_eq!(waves.output("cout").unwrap() & 0xFF, 0b1110_1000);
    }

    #[test]
    fn constants_simulate() {
        let mut nl = Netlist::new("c");
        let one = nl.constant(true);
        let zero = nl.constant(false);
        let y = nl.and2(one, zero);
        nl.output("y", y);
        let waves = simulate(&nl, &Stimulus::new()).expect("simulate");
        assert_eq!(waves.output("y").unwrap(), 0);
        assert_eq!(waves.net(one), u64::MAX);
    }

    #[test]
    fn undriven_input_is_error() {
        let nl = full_adder();
        let mut stim = Stimulus::new();
        stim.set("a", 1);
        let err = simulate(&nl, &stim).unwrap_err();
        assert!(matches!(err, SimulateError::UndrivenInput { .. }));
        assert!(err.to_string().contains("undriven"));
    }

    #[test]
    fn unknown_stimulus_port_is_error() {
        let nl = full_adder();
        let mut stim = Stimulus::new();
        stim.set("a", 1).set("b", 1).set("cin", 0).set("bogus", 1);
        assert_eq!(
            simulate(&nl, &stim),
            Err(SimulateError::UnknownPort {
                name: "bogus".to_string()
            })
        );
    }

    #[test]
    fn unknown_output_is_error() {
        let nl = full_adder();
        let mut stim = Stimulus::new();
        stim.set("a", 0).set("b", 0).set("cin", 0);
        let waves = simulate(&nl, &stim).expect("simulate");
        assert!(waves.output("nope").is_err());
    }

    #[test]
    fn bus_round_trip() {
        let mut nl = Netlist::new("pass");
        let bus = nl.input_bus("a", 3);
        nl.output_bus("y", &bus);
        let mut stim = Stimulus::new();
        stim.set_bus("a", &[0xF0, 0x0F, 0xFF]);
        let waves = simulate(&nl, &stim).expect("simulate");
        assert_eq!(waves.output_bus("y", 3).unwrap(), vec![0xF0, 0x0F, 0xFF]);
    }

    #[test]
    fn stimulus_bookkeeping() {
        let mut stim = Stimulus::new();
        assert!(stim.is_empty());
        stim.set("x", 7);
        assert_eq!(stim.len(), 1);
        assert_eq!(stim.get("x"), Some(7));
        assert_eq!(stim.get("y"), None);
    }
}
