//! Invariant sweep: run a matrix of scenarios with the engine's runtime
//! invariant checks force-enabled and report any violation.
//!
//! The [`InvariantGuard`](prudentia_sim::InvariantGuard) panics with the
//! trial's scenario JSON and seed on any violation; the sweep catches the
//! unwind per trial so one bad scenario reports precisely instead of
//! aborting the whole run.

use crate::harness::run_cca_pair;
use prudentia_cc::CcaKind;
use prudentia_sim::{
    ImpairmentSpec, NetworkSetting, QdiscSpec, RateStep, ScenarioSpec, SimDuration,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of one guarded trial in the sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Human-readable scenario label.
    pub label: String,
    /// `Ok` when the trial completed with zero invariant violations;
    /// `Err` carries the violation panic message (scenario + seed inside).
    pub result: Result<(), String>,
}

/// The impairment axis of the sweep.
fn impairments(base_rate: f64) -> Vec<(&'static str, ImpairmentSpec)> {
    vec![
        ("static", ImpairmentSpec::default()),
        ("lte", ImpairmentSpec::lte_like(base_rate)),
        (
            "lossy",
            ImpairmentSpec {
                loss_prob: 0.005,
                ..ImpairmentSpec::default()
            },
        ),
        (
            "jitter+reorder",
            ImpairmentSpec {
                jitter: SimDuration::from_millis(3),
                reorder_prob: 0.002,
                reorder_extra: SimDuration::from_millis(8),
                ..ImpairmentSpec::default()
            },
        ),
        (
            "rate-step",
            ImpairmentSpec {
                rate_steps: vec![RateStep {
                    at: SimDuration::from_secs(8),
                    rate_bps: base_rate / 2.0,
                }],
                ..ImpairmentSpec::default()
            },
        ),
    ]
}

/// Run the full qdisc × impairment matrix (25 scenarios) with invariants
/// on. Most rows pair Cubic against NewReno; the DualPI2 row pairs Prague
/// against Cubic so the sweep pushes ECT(1) traffic through the marking
/// path and the CE-echo loop under the conservation guard.
pub fn run_sweep(duration: SimDuration, seed: u64) -> Vec<SweepOutcome> {
    let base = NetworkSetting::highly_constrained();
    let qdiscs = [
        QdiscSpec::DropTail,
        QdiscSpec::codel(),
        QdiscSpec::fq_codel(),
        QdiscSpec::red(),
        QdiscSpec::dualpi2(),
    ];
    let mut outcomes = Vec::new();
    for qdisc in &qdiscs {
        let is_l4s = matches!(qdisc, QdiscSpec::DualPi2 { .. });
        for (imp_label, impairment) in impairments(base.rate_bps) {
            let label = format!("{}+{}", qdisc.kind(), imp_label);
            let scenario = ScenarioSpec {
                qdisc: qdisc.clone(),
                impairment,
            };
            let setting = base.clone().with_scenario(scenario, &label);
            let (a, b) = if is_l4s {
                (CcaKind::Prague, CcaKind::Cubic)
            } else {
                (CcaKind::Cubic, CcaKind::NewReno)
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_cca_pair(a, b, &setting, seed, duration)
            }))
            .map(|_| ())
            .map_err(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".into())
            });
            outcomes.push(SweepOutcome { label, result });
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_clean() {
        // Short trials: the point is exercising every discipline and
        // impairment under the guard, not measuring fairness.
        let outcomes = run_sweep(SimDuration::from_secs(4), 11);
        assert_eq!(outcomes.len(), 25);
        for o in &outcomes {
            assert!(o.result.is_ok(), "{}: {:?}", o.label, o.result);
        }
    }
}
