//! End-to-end and per-layer benchmark of the VLSA workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-small --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Three workloads (see `perfbench/README.md`):
//!
//! - `serve-small`: the in-process addition service, 4 uniform ops per
//!   request, so the per-request path (socket, framing, queue, batch
//!   formation, reply hand-off) does the work;
//! - `serve-bulk`: the same service, 2048 `mixed` ops per request, so
//!   the per-op path (speculative adder, resilience replay, recovery,
//!   per-op encoding) does the work. `BENCHMARK.json` does not list it:
//!   its wall-clock figures follow a shared host's speed more than the
//!   program's;
//! - `reproduce`: the paper's offline results on one thread, with no
//!   server: Fig. 8 rows, gate-level error-rate simulation and the ACA
//!   ciphertext-only attack.
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` a separate run reports the per-layer metrics and
//! the tracing overhead. Every output is checked by an oracle that the
//! benchmark computes itself; the last line of standard output is one
//! JSON object, and the process exits 1 if any output was wrong.

mod gen;
mod measure;
mod reproduce;
mod serve;

use std::process::ExitCode;

use measure::Outcome;

/// Exit code for malformed arguments.
const USAGE_EXIT: u8 = 2;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Tiny requests: the per-request path dominates.
    ServeSmall,
    /// Large mixed requests: the per-op path dominates.
    ServeBulk,
    /// The offline paper reproduction, no server.
    Reproduce,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-small" => Some(Workload::ServeSmall),
            "serve-bulk" => Some(Workload::ServeBulk),
            "reproduce" => Some(Workload::Reproduce),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve-small",
            Workload::ServeBulk => "serve-bulk",
            Workload::Reproduce => "reproduce",
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vlsa-perfbench --workload serve-small|serve-bulk|reproduce \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(USAGE_EXIT);
        }
    };
    measure::print_provenance(&args);
    let result: Result<Outcome, String> = match args.workload {
        Workload::ServeSmall | Workload::ServeBulk => serve::run(&args),
        Workload::Reproduce => reproduce::run(&args),
    };
    match result {
        Ok(outcome) => outcome.print_and_exit_code(&args),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload serve-bulk --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeBulk);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload reproduce --seed x --seconds 1 --trace 0",
            "--workload reproduce --seed 1 --seconds 0 --trace 0",
            "--workload reproduce --seed 1 --seconds 1 --trace 2",
            "--workload reproduce --seed 1 --seconds 1",
            "--workload reproduce --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
