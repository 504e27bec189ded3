//! Shared harness code for the experiment binaries that regenerate
//! every table and figure of the DATE 2008 VLSA paper.
//!
//! See `DESIGN.md` §4 for the experiment index. Each `src/bin/*.rs`
//! target prints one paper artifact:
//!
//! | binary         | artifact |
//! |----------------|----------|
//! | `table1`       | Table 1 (longest-run bounds at 99% / 99.99%) |
//! | `fig8`         | Fig. 8 (delay and normalized area vs bitwidth) |
//! | `theorem1`     | §3 Theorem 1 (expected flips = `2^{k+1}-2`) |
//! | `schilling`    | §3.1 asymptotics (mean/variance of longest run) |
//! | `error_rate`   | §3 accuracy claim (measured vs predicted error) |
//! | `latency`      | §4.3 average latency / effective speedup |
//! | `summary`      | §5 headline ratios |
//! | `crypto_attack`| §1 ciphertext-only attack demo |

pub mod chaosbench;
pub mod fleet;
pub mod metrics;
pub mod monitorbin;
pub mod regress;
pub mod report;
pub mod serverbench;
pub mod slobench;
pub mod tracebin;

use vlsa_adders::AdderArch;
use vlsa_core::{almost_correct_adder, error_detector, vlsa_adder};
use vlsa_netlist::Netlist;
use vlsa_runstats::min_bound_for_prob;
use vlsa_techlib::TechLibrary;
use vlsa_timing::{analyze, area, TimingError};

/// The bitwidth sweep of the paper's Fig. 8.
pub const FIG8_BITWIDTHS: [usize; 6] = [64, 128, 256, 512, 1024, 2048];

/// The paper's ACA design accuracy ("the one with 99.99% accuracy").
pub const PAPER_ACCURACY: f64 = 0.9999;

/// Fanout cap applied before timing (buffer trees are inserted, as a
/// synthesis flow would).
pub const MAX_FANOUT: usize = 8;

/// The standard pre-timing cleanup every measured circuit goes through:
/// logic simplification (constant folding, CSE, dead-logic sweep) then
/// fanout buffering — the moral equivalent of a synthesis pass.
pub fn synthesize(nl: &Netlist) -> Netlist {
    nl.simplified().with_fanout_limit(MAX_FANOUT)
}

/// Picks the fastest reliable baseline adder at `nbits` under `lib` —
/// the stand-in for the paper's DesignWare library adder.
///
/// # Errors
///
/// Propagates [`TimingError`] if the library misses a cell.
pub fn fastest_traditional(
    nbits: usize,
    lib: &TechLibrary,
) -> Result<(AdderArch, Netlist, f64), TimingError> {
    let mut best: Option<(AdderArch, Netlist, f64)> = None;
    for arch in AdderArch::BASELINES {
        let nl = synthesize(&arch.generate(nbits));
        let delay = analyze(&nl, lib)?.max_delay_ps;
        if best.as_ref().is_none_or(|(_, _, d)| delay < *d) {
            best = Some((arch, nl, delay));
        }
    }
    Ok(best.expect("BASELINES is nonempty"))
}

/// The speculation window the paper's design point uses at `nbits`.
pub fn paper_window(nbits: usize) -> usize {
    (min_bound_for_prob(nbits, PAPER_ACCURACY) + 1).min(nbits)
}

/// One row of the Fig. 8 data: delays in ps and areas in NAND2
/// equivalents for the four circuits.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig8Row {
    /// Operand bitwidth.
    pub nbits: usize,
    /// Speculation window used.
    pub window: usize,
    /// The winning baseline architecture.
    pub baseline: AdderArch,
    /// Delay of the traditional (baseline) adder.
    pub traditional_ps: f64,
    /// Delay of the ACA.
    pub aca_ps: f64,
    /// Delay of the standalone error detector.
    pub detect_ps: f64,
    /// Delay of ACA + error recovery (the full exact path).
    pub recovery_ps: f64,
    /// Area of the traditional adder.
    pub traditional_area: f64,
    /// Area of the ACA.
    pub aca_area: f64,
    /// Area of the standalone error detector.
    pub detect_area: f64,
    /// Area of the full VLSA (ACA + detect + recovery).
    pub recovery_area: f64,
}

impl Fig8Row {
    /// ACA speedup over the traditional adder (paper: 1.5–2.5×).
    pub fn aca_speedup(&self) -> f64 {
        self.traditional_ps / self.aca_ps
    }

    /// Detection delay as a fraction of the traditional adder
    /// (paper: ≈ 2/3).
    pub fn detect_fraction(&self) -> f64 {
        self.detect_ps / self.traditional_ps
    }

    /// Recovery delay relative to the traditional adder (paper: ≈ 1).
    pub fn recovery_fraction(&self) -> f64 {
        self.recovery_ps / self.traditional_ps
    }
}

/// Computes one Fig. 8 row at `nbits` with an explicit window.
///
/// # Errors
///
/// Propagates [`TimingError`] if the library misses a cell.
pub fn fig8_row(nbits: usize, window: usize, lib: &TechLibrary) -> Result<Fig8Row, TimingError> {
    let (baseline, trad, traditional_ps) = fastest_traditional(nbits, lib)?;
    let aca = synthesize(&almost_correct_adder(nbits, window));
    let det = synthesize(&error_detector(nbits, window));
    let rec = synthesize(&vlsa_adder(nbits, window));
    Ok(Fig8Row {
        nbits,
        window,
        baseline,
        traditional_ps,
        aca_ps: analyze(&aca, lib)?.max_delay_ps,
        detect_ps: analyze(&det, lib)?.max_delay_ps,
        recovery_ps: analyze(&rec, lib)?.max_delay_ps,
        traditional_area: area(&trad, lib)?.total,
        aca_area: area(&aca, lib)?.total,
        detect_area: area(&det, lib)?.total,
        recovery_area: area(&rec, lib)?.total,
    })
}

/// Computes the full Fig. 8 sweep at the paper's 99.99% design point.
///
/// # Errors
///
/// Propagates [`TimingError`] if the library misses a cell.
pub fn fig8_rows(bitwidths: &[usize], lib: &TechLibrary) -> Result<Vec<Fig8Row>, TimingError> {
    bitwidths
        .iter()
        .map(|&n| fig8_row(n, paper_window(n), lib))
        .collect()
}

/// Right-aligns `value` with `width` columns (table pretty-printing).
pub fn col(value: impl std::fmt::Display, width: usize) -> String {
    format!("{value:>width$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_log_depth_and_fast() {
        let lib = TechLibrary::umc180();
        let (arch, nl, delay) = fastest_traditional(64, &lib).expect("timing");
        assert!(matches!(arch, AdderArch::Prefix(_)));
        assert!(nl.depth() <= 16);
        assert!(delay > 0.0);
    }

    #[test]
    fn fig8_row_shape_matches_paper_at_64_bits() {
        let lib = TechLibrary::umc180();
        let row = fig8_row(64, paper_window(64), &lib).expect("timing");
        // Headline claims (§5): ACA 1.5–2.5x faster; detection ~2/3 of
        // traditional; recovery within ~25% of traditional; ACA smaller
        // than traditional; recovery bigger (it contains an ACA).
        assert!(
            row.aca_speedup() > 1.3 && row.aca_speedup() < 3.0,
            "speedup {}",
            row.aca_speedup()
        );
        assert!(
            row.detect_fraction() > 0.4 && row.detect_fraction() < 0.95,
            "detect fraction {}",
            row.detect_fraction()
        );
        assert!(
            row.recovery_fraction() > 0.75 && row.recovery_fraction() < 1.6,
            "recovery fraction {}",
            row.recovery_fraction()
        );
        assert!(row.aca_area < row.traditional_area * 1.2);
        assert!(row.recovery_area > row.aca_area);
    }

    #[test]
    fn speedup_widens_with_bitwidth() {
        let lib = TechLibrary::umc180();
        let narrow = fig8_row(64, paper_window(64), &lib).expect("timing");
        let wide = fig8_row(1024, paper_window(1024), &lib).expect("timing");
        assert!(wide.aca_speedup() > narrow.aca_speedup());
    }

    #[test]
    fn paper_window_values_are_reasonable() {
        assert!(paper_window(64) >= 15 && paper_window(64) <= 20);
        assert!(paper_window(1024) >= 20 && paper_window(1024) <= 26);
        assert!(paper_window(1024) > paper_window(64));
    }

    #[test]
    fn col_pads() {
        assert_eq!(col(42, 6), "    42");
    }
}
