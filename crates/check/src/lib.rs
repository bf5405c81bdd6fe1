//! # prudentia-check
//!
//! The validation subsystem for the Prudentia reproduction: the paper's
//! findings are only as credible as the CCA implementations and queue
//! dynamics underneath them, so this crate checks those dynamics against
//! published behaviour and regresses them byte-exactly. Three layers:
//!
//! * [`conformance`] — run each CCA (NewReno, Cubic, BBR, GCC) solo and
//!   pairwise on the watchdog's [`NetworkSetting`] presets and assert
//!   known dynamics: AIMD sawtooth period vs the closed-form `W_max`
//!   model, Cubic's concave/convex growth (RFC 8312), BBR's 8-phase
//!   ProbeBW gain cycle and ~10 s ProbeRTT cadence, ≥90% solo
//!   utilization, and pairwise max-min-fair share bands;
//! * [`sweep`] — a qdisc × impairment matrix run with the engine's
//!   runtime invariant checks force-enabled (packet conservation, queue
//!   bounds, clock monotonicity; see `prudentia_sim::invariant`);
//! * [`golden`] — byte-exact CSV snapshots of per-CCA cwnd/rate/qdepth
//!   telemetry under `tests/golden/`, with a `--bless` path for
//!   intentional changes.
//!
//! `prudentia --validate` runs all three and is wired into CI.
//!
//! [`NetworkSetting`]: prudentia_sim::NetworkSetting

#![warn(missing_docs)]

pub mod conformance;
pub mod golden;
pub mod harness;
pub mod sweep;

pub use conformance::{run_conformance, CheckResult};
pub use golden::{bless_all, compare_all, default_golden_dir, parallel_stability, GoldenOutcome};
pub use harness::{run_cca_pair, run_solo, PairRun, SoloRun, TraceRow, TICK};
pub use sweep::{run_sweep, SweepOutcome};

use prudentia_sim::SimDuration;

/// Everything `prudentia --validate` runs, in one report.
#[derive(Debug)]
pub struct ValidationReport {
    /// Conformance check outcomes.
    pub checks: Vec<CheckResult>,
    /// Invariant-sweep outcomes (one per scenario).
    pub sweep: Vec<SweepOutcome>,
    /// Golden-trace comparisons against the files on disk.
    pub golden: Vec<GoldenOutcome>,
    /// Byte-stability of trace regeneration across 8 threads.
    pub stability: Vec<GoldenOutcome>,
}

impl ValidationReport {
    /// True when every layer passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
            && self.sweep.iter().all(|s| s.result.is_ok())
            && self.golden.iter().all(|g| g.result.is_ok())
            && self.stability.iter().all(|g| g.result.is_ok())
    }

    /// Counts of (passed, total) across all layers.
    pub fn tally(&self) -> (usize, usize) {
        let passed = self.checks.iter().filter(|c| c.passed).count()
            + self.sweep.iter().filter(|s| s.result.is_ok()).count()
            + self.golden.iter().filter(|g| g.result.is_ok()).count()
            + self.stability.iter().filter(|g| g.result.is_ok()).count();
        let total = self.checks.len() + self.sweep.len() + self.golden.len() + self.stability.len();
        (passed, total)
    }
}

/// Run the full validation suite: conformance, invariant sweep (15 s
/// trials), golden-trace comparison against `golden_dir`, and 8-thread
/// regeneration stability.
pub fn run_validation(golden_dir: &std::path::Path) -> ValidationReport {
    ValidationReport {
        checks: run_conformance(),
        sweep: run_sweep(SimDuration::from_secs(15), 1),
        golden: compare_all(golden_dir),
        stability: parallel_stability(8),
    }
}
