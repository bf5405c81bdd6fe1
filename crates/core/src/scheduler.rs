//! The watchdog scheduler (§3.4): trial policies, pair specifications,
//! seeds, and outcome aggregation.
//!
//! Every (contender, incumbent) pair runs a minimum of 10 trials,
//! extending up to 30 until the 95% CI of the median throughput falls
//! within the setting's tolerance; trials are interleaved round-robin
//! across pairs to decorrelate time-local noise, and trials with
//! excessive external loss are discarded and replaced. Execution itself
//! lives in [`crate::executor::execute_pairs`]: a continuously-fed
//! worker pool that re-evaluates each pair's stopping rule as trials land.

use crate::config::NetworkSetting;
use crate::experiment::{ExperimentResult, ExperimentSpec};
use prudentia_apps::ServiceSpec;
use prudentia_sim::SimDuration;
use prudentia_stats::{median, quartiles};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Trial-count policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialPolicy {
    /// Minimum trials per pair (paper: 10).
    pub min_trials: usize,
    /// Batch size for extensions (paper: 10).
    pub batch: usize,
    /// Maximum trials (paper: 30).
    pub max_trials: usize,
}

impl Default for TrialPolicy {
    fn default() -> Self {
        TrialPolicy {
            min_trials: 10,
            batch: 10,
            max_trials: 30,
        }
    }
}

impl TrialPolicy {
    /// A reduced policy for quick regeneration runs.
    pub fn quick() -> Self {
        TrialPolicy {
            min_trials: 3,
            batch: 2,
            max_trials: 7,
        }
    }
}

/// Experiment length policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DurationPolicy {
    /// 10-minute experiments, 2-minute trims (the paper's §3.4 protocol).
    Paper,
    /// 3-minute experiments, 30-second trims.
    Quick,
    /// Explicit lengths, used by campaign grids whose cells trade trial
    /// length against grid breadth.
    Custom {
        /// Total simulated seconds per trial.
        duration_secs: u64,
        /// Leading trim excluded from the measured window.
        warmup_secs: u64,
        /// Trailing trim excluded from the measured window.
        cooldown_secs: u64,
    },
}

impl DurationPolicy {
    /// Instantiate a spec for one trial.
    pub fn spec(
        self,
        contender: ServiceSpec,
        incumbent: ServiceSpec,
        setting: NetworkSetting,
        seed: u64,
    ) -> ExperimentSpec {
        match self {
            DurationPolicy::Paper => ExperimentSpec::paper(contender, incumbent, setting, seed),
            DurationPolicy::Quick => ExperimentSpec::quick(contender, incumbent, setting, seed),
            DurationPolicy::Custom {
                duration_secs,
                warmup_secs,
                cooldown_secs,
            } => {
                let mut spec = ExperimentSpec::quick(contender, incumbent, setting, seed);
                spec.duration = SimDuration::from_secs(duration_secs);
                spec.warmup = SimDuration::from_secs(warmup_secs);
                spec.cooldown = SimDuration::from_secs(cooldown_secs);
                spec
            }
        }
    }

    /// Simulated seconds of one trial under this policy.
    pub fn trial_secs(self) -> u64 {
        match self {
            DurationPolicy::Paper => 600,
            DurationPolicy::Quick => 180,
            DurationPolicy::Custom { duration_secs, .. } => duration_secs,
        }
    }
}

/// Aggregated outcome for one (contender, incumbent, setting) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairOutcome {
    /// Contender display name.
    pub contender: String,
    /// Incumbent display name.
    pub incumbent: String,
    /// Setting name.
    pub setting: String,
    /// All kept (non-discarded) trials.
    pub trials: Vec<ExperimentResult>,
    /// Median incumbent MmF share (the Fig 2 cell value).
    pub incumbent_mmf_median: f64,
    /// Median contender MmF share.
    pub contender_mmf_median: f64,
    /// Incumbent throughput interquartile range, bps (the error bars).
    pub incumbent_iqr_bps: (f64, f64),
    /// Median link utilization (Fig 11).
    pub utilization_median: f64,
    /// Median incumbent loss rate (Fig 12).
    pub incumbent_loss_median: f64,
    /// Median incumbent queueing delay, ms (Fig 13).
    pub incumbent_qdelay_median_ms: f64,
    /// Whether the CI stopping rule was satisfied within the trial cap —
    /// `false` marks the pair as *unstable* (Obs 15).
    pub converged: bool,
}

impl PairOutcome {
    /// Incumbent throughput samples, bps.
    pub fn incumbent_samples_bps(&self) -> Vec<f64> {
        self.trials
            .iter()
            .map(|t| t.incumbent.throughput_bps)
            .collect()
    }

    /// Contender throughput samples, bps.
    pub fn contender_samples_bps(&self) -> Vec<f64> {
        self.trials
            .iter()
            .map(|t| t.contender.throughput_bps)
            .collect()
    }
}

/// Deterministic per-trial seed from the pair identity.
pub fn trial_seed(contender: &str, incumbent: &str, setting: &str, trial: usize) -> u64 {
    let mut h = DefaultHasher::new();
    contender.hash(&mut h);
    incumbent.hash(&mut h);
    setting.hash(&mut h);
    trial.hash(&mut h);
    h.finish()
}

pub(crate) fn summarize_pair(
    contender: &ServiceSpec,
    incumbent: &ServiceSpec,
    setting: &NetworkSetting,
    trials: Vec<ExperimentResult>,
    converged: bool,
) -> PairOutcome {
    let inc_shares: Vec<f64> = trials.iter().map(|t| t.incumbent.mmf_share).collect();
    let con_shares: Vec<f64> = trials.iter().map(|t| t.contender.mmf_share).collect();
    let inc_tput: Vec<f64> = trials.iter().map(|t| t.incumbent.throughput_bps).collect();
    let utils: Vec<f64> = trials.iter().map(|t| t.utilization).collect();
    let losses: Vec<f64> = trials.iter().map(|t| t.incumbent.loss_rate).collect();
    let qdelays: Vec<f64> = trials.iter().map(|t| t.incumbent.mean_qdelay_ms).collect();
    PairOutcome {
        contender: contender.name().to_string(),
        incumbent: incumbent.name().to_string(),
        setting: setting.name.clone(),
        incumbent_mmf_median: median_or_nan(&inc_shares),
        contender_mmf_median: median_or_nan(&con_shares),
        incumbent_iqr_bps: if inc_tput.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            quartiles(&inc_tput)
        },
        utilization_median: median_or_nan(&utils),
        incumbent_loss_median: median_or_nan(&losses),
        incumbent_qdelay_median_ms: median_or_nan(&qdelays),
        converged,
        trials,
    }
}

fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

/// A single (contender, incumbent) combination to test.
#[derive(Debug, Clone)]
pub struct PairSpec {
    /// The contender.
    pub contender: ServiceSpec,
    /// The incumbent.
    pub incumbent: ServiceSpec,
    /// The setting.
    pub setting: NetworkSetting,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute_pairs, ExecutorConfig};
    use prudentia_apps::Service;

    fn run(pairs: &[PairSpec], policy: TrialPolicy, parallelism: usize) -> Vec<PairOutcome> {
        let config = ExecutorConfig::new(policy, DurationPolicy::Quick, parallelism);
        execute_pairs(pairs, &config).expect("valid config").0
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = trial_seed("Mega", "YouTube", "8", 0);
        let b = trial_seed("Mega", "YouTube", "8", 0);
        let c = trial_seed("Mega", "YouTube", "8", 1);
        let d = trial_seed("YouTube", "Mega", "8", 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn run_pair_collects_trials() {
        let pair = PairSpec {
            contender: Service::IperfCubic.spec(),
            incumbent: Service::IperfReno.spec(),
            setting: NetworkSetting::highly_constrained(),
        };
        let policy = TrialPolicy {
            min_trials: 3,
            batch: 2,
            max_trials: 5,
        };
        let out = run(&[pair], policy, 1).pop().expect("one outcome");
        assert!(out.trials.len() >= 3);
        assert!(out.incumbent_mmf_median > 0.0);
        assert!(out.utilization_median > 0.8);
    }

    #[test]
    fn parallel_matches_pair_counts() {
        let pairs = vec![
            PairSpec {
                contender: Service::IperfCubic.spec(),
                incumbent: Service::IperfReno.spec(),
                setting: NetworkSetting::highly_constrained(),
            },
            PairSpec {
                contender: Service::IperfReno.spec(),
                incumbent: Service::IperfReno.spec(),
                setting: NetworkSetting::highly_constrained(),
            },
        ];
        let policy = TrialPolicy {
            min_trials: 3,
            batch: 2,
            max_trials: 5,
        };
        let out = run(&pairs, policy, 4);
        assert_eq!(out.len(), 2);
        for o in &out {
            assert!(o.trials.len() >= 3, "{} trials", o.trials.len());
        }
    }

    #[test]
    fn parallel_deterministic_medians() {
        let pairs = vec![PairSpec {
            contender: Service::IperfCubic.spec(),
            incumbent: Service::IperfReno.spec(),
            setting: NetworkSetting::highly_constrained(),
        }];
        let p = TrialPolicy {
            min_trials: 3,
            batch: 2,
            max_trials: 3,
        };
        let a = run(&pairs, p, 4);
        let b = run(&pairs, p, 2);
        assert_eq!(a[0].incumbent_mmf_median, b[0].incumbent_mmf_median);
    }
}
