//! Cycle-accurate model of the Variable Latency Speculative Adder
//! pipeline (paper §4.3, Figs. 6–7).
//!
//! The circuit is clocked just above the error-detection delay. Every
//! operand pair normally completes in one cycle (`VALID = 1`); when the
//! detector fires, `VALID` drops, `STALL` rises, and the corrected sum
//! appears one cycle later — so the average latency over a random
//! stream is `1 + P(error)` cycles, within a hair of 1.
//!
//! [`VlsaPipeline::run`] produces a [`PipelineTrace`] with the
//! per-cycle handshake, aggregate latency statistics, and an ASCII
//! rendering of the paper's Fig. 7 timing diagram.
//! [`EffectiveLatency`] then converts cycle counts into wall-clock
//! speedup versus a single-cycle traditional adder.

mod queue;
mod resilient;

pub use queue::{QueueConfig, QueueError, QueueStats};
pub use resilient::{
    BatchTrace, FaultKind, OpOutcome, PipelineFault, ResilienceConfig, ResilientPipeline,
    ResilientStats, ResilientTrace,
};

use rand::Rng;
use std::fmt;
use vlsa_core::SpeculativeAdder;
use vlsa_trace::TraceEvent;

/// What the pipeline did in one clock cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleRecord {
    /// Clock cycle index, starting at 1 (as in the paper's Fig. 7).
    pub cycle: u64,
    /// Index of the operand pair whose result appears this cycle.
    pub op_index: usize,
    /// The sum driven on the output bus this cycle.
    pub sum: u64,
    /// The `VALID` flag: the sum may be consumed.
    pub valid: bool,
    /// The `STALL` flag: the adder cannot accept new operands.
    pub stall: bool,
}

/// The complete execution trace of a stream of additions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Per-cycle records in order.
    pub records: Vec<CycleRecord>,
    /// Number of operand pairs processed.
    pub operations: u64,
    /// Number of operations that needed the recovery cycle.
    pub errors: u64,
}

impl PipelineTrace {
    /// Total clock cycles consumed.
    pub fn total_cycles(&self) -> u64 {
        self.records.len() as u64
    }

    /// Average cycles per addition (the paper's headline `1.000x`).
    pub fn average_latency(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / self.operations as f64
        }
    }

    /// Fraction of operations that stalled.
    pub fn error_rate(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.errors as f64 / self.operations as f64
        }
    }

    /// Renders the first `max_cycles` cycles as an ASCII timing diagram
    /// in the style of the paper's Fig. 7.
    pub fn render_timing_diagram(&self, max_cycles: usize) -> String {
        use std::fmt::Write as _;
        let shown = &self.records[..self.records.len().min(max_cycles)];
        let mut rows = [
            String::from("cycle |"),
            String::from("op    |"),
            String::from("sum   |"),
            String::from("valid |"),
            String::from("stall |"),
        ];
        for r in shown {
            let op = format!("A{}B{}", r.op_index + 1, r.op_index + 1);
            let sum = if r.valid {
                format!("S{}", r.op_index + 1)
            } else {
                format!("S{}*", r.op_index + 1)
            };
            let _ = write!(rows[0], " {:>6}", r.cycle);
            let _ = write!(rows[1], " {op:>6}");
            let _ = write!(rows[2], " {sum:>6}");
            let _ = write!(rows[3], " {:>6}", if r.valid { 1 } else { 0 });
            let _ = write!(rows[4], " {:>6}", if r.stall { 1 } else { 0 });
        }
        rows.join("\n") + "\n"
    }
}

impl fmt::Display for PipelineTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops in {} cycles ({} errors, average latency {:.4})",
            self.operations,
            self.total_cycles(),
            self.errors,
            self.average_latency()
        )
    }
}

/// One operation's outcome as seen by a live observer — the operand
/// sampling hook a conformance monitor (e.g.
/// `vlsa_monitor::ConformanceMonitor`) feeds on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSample {
    /// Index of the operand pair in the input stream.
    pub index: usize,
    /// Left operand (already truncated to the adder width).
    pub a: u64,
    /// Right operand (already truncated to the adder width).
    pub b: u64,
    /// The sum handed to the consumer.
    pub sum: u64,
    /// Whether the `ER` detector fired (the op paid the bubble).
    pub stalled: bool,
    /// Cycles this op held the pipe (1 clean, 2 stalled).
    pub latency_cycles: u64,
}

/// The variable-latency adder pipeline.
///
/// # Examples
///
/// ```
/// use vlsa_core::SpeculativeAdder;
/// use vlsa_pipeline::VlsaPipeline;
///
/// let adder = SpeculativeAdder::for_accuracy(64, 0.9999)?;
/// let mut pipe = VlsaPipeline::new(adder);
/// let trace = pipe.run(&[(1, 2), (u64::MAX, 1), (7, 8)]);
/// assert_eq!(trace.operations, 3);
/// // The all-propagate pair stalls one extra cycle.
/// assert_eq!(trace.total_cycles(), 4);
/// # Ok::<(), vlsa_core::SpecError>(())
/// ```
#[derive(Clone, Debug)]
pub struct VlsaPipeline {
    adder: SpeculativeAdder,
}

impl VlsaPipeline {
    /// Wraps a speculative adder in the Fig. 6 control logic.
    pub fn new(adder: SpeculativeAdder) -> Self {
        VlsaPipeline { adder }
    }

    /// The underlying speculative adder.
    pub fn adder(&self) -> &SpeculativeAdder {
        &self.adder
    }

    /// Feeds a stream of operand pairs through the pipeline and returns
    /// the trace. Operands are truncated to the adder width.
    ///
    /// When telemetry is enabled, records `vlsa.pipeline.ops` /
    /// `vlsa.pipeline.stalls` counters, the per-op latency histogram
    /// `vlsa.pipeline.op_latency_cycles`, and the lengths of runs of
    /// consecutive stalled operations in `vlsa.pipeline.stall_run_ops`.
    ///
    /// When tracing is enabled (`vlsa_trace::is_enabled`), every
    /// operation emits flight-recorder spans with cycle timestamps: an
    /// `op` span carrying the full operands (track 0, the replay
    /// source), a `speculate` span, and — on detection — a `detect`
    /// marker plus `recover` and `stall` spans for the bubble (tracks
    /// 1–2). Disabled, the whole hook is one relaxed atomic load before
    /// the loop.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn run(&mut self, operands: &[(u64, u64)]) -> PipelineTrace {
        self.run_observed(operands, |_| {})
    }

    /// [`VlsaPipeline::run`] with a live observer: `observe` is called
    /// once per operation with the sampled operands, delivered sum,
    /// stall flag, and latency — the hook a conformance monitor uses to
    /// watch real traffic without buffering the stream. The observer
    /// adds nothing to the disabled-path cost of `run`, which passes a
    /// no-op closure the compiler erases.
    ///
    /// # Panics
    ///
    /// Panics if the adder is wider than 64 bits.
    pub fn run_observed<F: FnMut(&OpSample)>(
        &mut self,
        operands: &[(u64, u64)],
        mut observe: F,
    ) -> PipelineTrace {
        let telemetry = vlsa_telemetry::recorder().map(|recorder| {
            (
                recorder.histogram(
                    vlsa_telemetry::names::pipeline::OP_LATENCY_CYCLES,
                    vlsa_telemetry::DEFAULT_BUCKETS,
                ),
                recorder.histogram(
                    vlsa_telemetry::names::pipeline::STALL_RUN_OPS,
                    vlsa_telemetry::DEFAULT_BUCKETS,
                ),
                recorder,
            )
        });
        let nbits = self.adder.nbits();
        let mask = if nbits == 64 {
            u64::MAX
        } else {
            (1u64 << nbits) - 1
        };
        let spans = vlsa_trace::recorder();
        let mut stall_run = 0u64;
        let mut trace = PipelineTrace::default();
        let mut cycle = 0u64;
        for (idx, &(a, b)) in operands.iter().enumerate() {
            let r = self.adder.add_u64(a, b);
            cycle += 1;
            if let Some((latency, stall_runs, _)) = &telemetry {
                latency.record(if r.error_detected { 2 } else { 1 });
                if r.error_detected {
                    stall_run += 1;
                } else if stall_run > 0 {
                    stall_runs.record(stall_run);
                    stall_run = 0;
                }
            }
            if let Some(rec) = &spans {
                let ts = cycle - 1;
                let dur = 1 + u64::from(r.error_detected);
                let sum = if r.error_detected {
                    r.exact
                } else {
                    r.speculative
                };
                rec.record(
                    TraceEvent::complete("op", "pipeline", ts, dur)
                        .arg("i", idx as u64)
                        .arg("a", a)
                        .arg("b", b)
                        .arg("sum", sum)
                        .arg("err", u64::from(r.error_detected)),
                );
                rec.record(TraceEvent::complete("speculate", "pipeline", ts, 1).on_track(1));
                if r.error_detected {
                    rec.record(TraceEvent::instant("detect", "pipeline", ts + 1).on_track(1));
                    rec.record(TraceEvent::complete("recover", "pipeline", ts + 1, 1).on_track(1));
                    rec.record(TraceEvent::complete("stall", "pipeline", ts + 1, 1).on_track(2));
                }
            }
            observe(&OpSample {
                index: idx,
                a: a & mask,
                b: b & mask,
                sum: if r.error_detected {
                    r.exact
                } else {
                    r.speculative
                },
                stalled: r.error_detected,
                latency_cycles: 1 + u64::from(r.error_detected),
            });
            if r.error_detected {
                // Cycle 1: speculative (possibly wrong) sum, VALID low,
                // STALL high while recovery runs.
                trace.records.push(CycleRecord {
                    cycle,
                    op_index: idx,
                    sum: r.speculative,
                    valid: false,
                    stall: true,
                });
                cycle += 1;
                // Cycle 2: corrected sum.
                trace.records.push(CycleRecord {
                    cycle,
                    op_index: idx,
                    sum: r.exact,
                    valid: true,
                    stall: false,
                });
                trace.errors += 1;
            } else {
                trace.records.push(CycleRecord {
                    cycle,
                    op_index: idx,
                    sum: r.speculative,
                    valid: true,
                    stall: false,
                });
            }
            trace.operations += 1;
        }
        if let Some((_, stall_runs, recorder)) = &telemetry {
            if stall_run > 0 {
                stall_runs.record(stall_run);
            }
            recorder
                .counter(vlsa_telemetry::names::pipeline::OPS)
                .add(trace.operations);
            recorder
                .counter(vlsa_telemetry::names::pipeline::STALLS)
                .add(trace.errors);
        }
        trace
    }
}

/// Converts cycle statistics into wall-clock effective latency.
///
/// The VLSA clock period is set by its slowest single-cycle component
/// (`max(T_aca, T_detect)`, paper §4.3); a traditional adder completes
/// in one cycle of period `t_traditional_ps`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EffectiveLatency {
    /// VLSA clock period in picoseconds.
    pub t_clock_ps: f64,
    /// Traditional single-cycle adder period in picoseconds.
    pub t_traditional_ps: f64,
}

impl EffectiveLatency {
    /// Average wall-clock time per addition for a trace, or `None` for
    /// an empty trace (no operations ⇒ no meaningful latency).
    pub fn time_per_add_ps(&self, trace: &PipelineTrace) -> Option<f64> {
        if trace.operations == 0 {
            None
        } else {
            Some(self.t_clock_ps * trace.average_latency())
        }
    }

    /// Speedup of the VLSA over the traditional adder for a trace, or
    /// `None` when the trace is empty or the per-add time degenerates
    /// to zero (a zero clock period).
    pub fn speedup(&self, trace: &PipelineTrace) -> Option<f64> {
        let per_add = self.time_per_add_ps(trace)?;
        (per_add > 0.0).then(|| self.t_traditional_ps / per_add)
    }
}

/// Generates `count` uniform random operand pairs for an `nbits` adder.
///
/// # Panics
///
/// Panics unless `1 <= nbits <= 64`.
pub fn random_operands<R: Rng + ?Sized>(
    nbits: usize,
    count: usize,
    rng: &mut R,
) -> Vec<(u64, u64)> {
    assert!((1..=64).contains(&nbits), "nbits must be in 1..=64");
    let mask = if nbits == 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    };
    (0..count)
        .map(|_| (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask))
        .collect()
}

/// Generates `count` operand pairs whose propagate bits (`a XOR b`) are
/// i.i.d. with probability `p` of being 1 — the workload model of
/// `vlsa_runstats::prob_longest_run_le_biased`. At `p = 0.5` this is
/// statistically identical to [`random_operands`]; `p > 0.5` lengthens
/// propagate runs exponentially, modeling biased or adversarial traffic
/// that blows past the uniform-operand design point (the drift the
/// conformance monitor exists to catch).
///
/// # Panics
///
/// Panics unless `1 <= nbits <= 64` and `p` is a probability.
pub fn biased_operands<R: Rng + ?Sized>(
    nbits: usize,
    count: usize,
    p: f64,
    rng: &mut R,
) -> Vec<(u64, u64)> {
    assert!((1..=64).contains(&nbits), "nbits must be in 1..=64");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mask = if nbits == 64 {
        u64::MAX
    } else {
        (1u64 << nbits) - 1
    };
    (0..count)
        .map(|_| {
            let a = rng.gen::<u64>() & mask;
            let mut xor = 0u64;
            for bit in 0..nbits {
                if rng.gen_bool(p) {
                    xor |= 1u64 << bit;
                }
            }
            (a, a ^ xor)
        })
        .collect()
}

/// Generates adversarial operand pairs that always carry the full
/// width (`a = 0111…1`, `b = 1`), defeating speculation every time.
///
/// # Panics
///
/// Panics unless `2 <= nbits <= 64`.
pub fn adversarial_operands(nbits: usize, count: usize) -> Vec<(u64, u64)> {
    assert!((2..=64).contains(&nbits), "nbits must be in 2..=64");
    let a = if nbits == 64 {
        u64::MAX >> 1
    } else {
        (1u64 << (nbits - 1)) - 1
    };
    vec![(a, 1); count]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn adder(nbits: usize, window: usize) -> SpeculativeAdder {
        SpeculativeAdder::new(nbits, window).expect("valid adder")
    }

    #[test]
    fn clean_stream_is_single_cycle() {
        let mut pipe = VlsaPipeline::new(adder(32, 32));
        let trace = pipe.run(&[(1, 2), (3, 4), (5, 6)]);
        assert_eq!(trace.total_cycles(), 3);
        assert_eq!(trace.errors, 0);
        assert_eq!(trace.average_latency(), 1.0);
        assert!(trace.records.iter().all(|r| r.valid && !r.stall));
        assert_eq!(trace.records[1].sum, 7);
    }

    #[test]
    fn errors_cost_exactly_one_extra_cycle() {
        let mut pipe = VlsaPipeline::new(adder(16, 4));
        let ops = adversarial_operands(16, 5);
        let trace = pipe.run(&ops);
        assert_eq!(trace.errors, 5);
        assert_eq!(trace.total_cycles(), 10);
        assert_eq!(trace.average_latency(), 2.0);
        // Stall cycles carry the wrong sum with VALID low.
        let stall = &trace.records[0];
        assert!(stall.stall && !stall.valid);
        let fix = &trace.records[1];
        assert!(fix.valid && !fix.stall);
        assert_eq!(fix.sum, ops[0].0.wrapping_add(ops[0].1) & 0xFFFF);
    }

    #[test]
    fn mixed_stream_reproduces_fig7() {
        // Paper Fig. 7: ops 1 and 3 are clean, op 2 errs.
        let mut pipe = VlsaPipeline::new(adder(8, 3));
        let trace = pipe.run(&[(1, 2), (0x7F, 1), (2, 4)]);
        assert_eq!(trace.errors, 1);
        assert_eq!(trace.total_cycles(), 4);
        let valids: Vec<bool> = trace.records.iter().map(|r| r.valid).collect();
        assert_eq!(valids, vec![true, false, true, true]);
        let diagram = trace.render_timing_diagram(10);
        assert!(diagram.contains("S2*"), "{diagram}");
        assert!(
            diagram.contains("stall |      0      1      0      0"),
            "{diagram}"
        );
    }

    #[test]
    fn average_latency_matches_error_probability() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(139);
        let a = adder(64, 8);
        let predicted = a.detection_probability();
        let mut pipe = VlsaPipeline::new(a);
        let ops = random_operands(64, 50_000, &mut rng);
        let trace = pipe.run(&ops);
        let expected = 1.0 + predicted;
        assert!(
            (trace.average_latency() - expected).abs() < 0.005,
            "{} vs {expected}",
            trace.average_latency()
        );
    }

    #[test]
    fn paper_design_point_is_near_one_cycle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(149);
        let a = SpeculativeAdder::for_accuracy(64, 0.9999).expect("valid");
        let mut pipe = VlsaPipeline::new(a);
        let trace = pipe.run(&random_operands(64, 100_000, &mut rng));
        assert!(
            trace.average_latency() < 1.001,
            "{}",
            trace.average_latency()
        );
    }

    #[test]
    fn effective_latency_speedup() {
        let mut pipe = VlsaPipeline::new(adder(32, 32));
        let trace = pipe.run(&[(1, 1); 10]);
        let eff = EffectiveLatency {
            t_clock_ps: 500.0,
            t_traditional_ps: 1000.0,
        };
        assert_eq!(eff.time_per_add_ps(&trace), Some(500.0));
        assert_eq!(eff.speedup(&trace), Some(2.0));
    }

    #[test]
    fn effective_latency_of_empty_trace_is_none() {
        let eff = EffectiveLatency {
            t_clock_ps: 500.0,
            t_traditional_ps: 1000.0,
        };
        let empty = PipelineTrace::default();
        assert_eq!(eff.time_per_add_ps(&empty), None);
        assert_eq!(eff.speedup(&empty), None);
        // A degenerate zero clock also refuses to report a speedup.
        let mut pipe = VlsaPipeline::new(adder(8, 8));
        let trace = pipe.run(&[(1, 2)]);
        let zero_clock = EffectiveLatency {
            t_clock_ps: 0.0,
            t_traditional_ps: 1000.0,
        };
        assert_eq!(zero_clock.time_per_add_ps(&trace), Some(0.0));
        assert_eq!(zero_clock.speedup(&trace), None);
    }

    #[test]
    fn trace_display_and_empty_behaviour() {
        let trace = PipelineTrace::default();
        assert_eq!(trace.average_latency(), 0.0);
        assert_eq!(trace.error_rate(), 0.0);
        let mut pipe = VlsaPipeline::new(adder(8, 8));
        let trace = pipe.run(&[(1, 2)]);
        assert!(trace.to_string().contains("1 ops"));
        assert_eq!(pipe.adder().nbits(), 8);
    }

    #[test]
    fn run_observed_samples_every_op() {
        let mut pipe = VlsaPipeline::new(adder(8, 3));
        let mut samples = Vec::new();
        let trace = pipe.run_observed(&[(1, 2), (0x7F, 1), (0x1FF, 4)], |s| samples.push(*s));
        assert_eq!(samples.len(), 3);
        // Clean op: 1 cycle, speculative sum delivered.
        assert_eq!(samples[0].sum, 3);
        assert!(!samples[0].stalled);
        assert_eq!(samples[0].latency_cycles, 1);
        // The all-propagate pair stalls and delivers the exact sum.
        assert!(samples[1].stalled);
        assert_eq!(samples[1].latency_cycles, 2);
        assert_eq!(samples[1].sum, 0x80);
        // Operands are reported truncated to the adder width.
        assert_eq!(samples[2].a, 0xFF);
        assert_eq!(samples[2].index, 2);
        // The observer changes nothing about the trace itself (ops 2
        // and 3 both carry long propagate runs and stall).
        assert_eq!(trace.errors, 2);
        assert_eq!(trace.total_cycles(), 5);
    }

    #[test]
    fn biased_operands_hit_the_requested_xor_density() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(211);
        let ops = biased_operands(64, 2_000, 0.75, &mut rng);
        let ones: u64 = ops.iter().map(|&(a, b)| (a ^ b).count_ones() as u64).sum();
        let density = ones as f64 / (2_000.0 * 64.0);
        assert!((density - 0.75).abs() < 0.01, "{density}");
        // Biased streams stall a window sized for uniform traffic far
        // more often than the design point predicts.
        let a = adder(64, 18);
        let predicted = a.detection_probability();
        let mut pipe = VlsaPipeline::new(a);
        let trace = pipe.run(&ops);
        assert!(
            trace.error_rate() > 100.0 * predicted.max(1e-6),
            "error rate {} vs predicted {predicted}",
            trace.error_rate()
        );
    }

    #[test]
    fn random_operands_respect_mask() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(151);
        for (a, b) in random_operands(20, 100, &mut rng) {
            assert!(a < (1 << 20) && b < (1 << 20));
        }
    }

    #[test]
    #[should_panic(expected = "nbits must be in")]
    fn random_operands_reject_wide() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        random_operands(65, 1, &mut rng);
    }
}
