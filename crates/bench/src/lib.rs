//! # prudentia-bench
//!
//! The regeneration harness: one binary per table/figure of the paper
//! (see DESIGN.md §3 for the index), plus Criterion micro-benchmarks of
//! the simulator and CCAs.
//!
//! Every binary honours two environment variables:
//!
//! * `PRUDENTIA_MODE` — `quick` (default: 3-minute experiments, 3–7
//!   trials) or `paper` (10-minute experiments, 10–30 trials, §3.4).
//! * `PRUDENTIA_RESULTS` — directory for shared results (default
//!   `results/`). Figs 2, 11, 12, 13 and the Obs 1 statistics all derive
//!   from one all-pairs watchdog cycle whose store lives there.
//! * `PRUDENTIA_TRIAL_CACHE` — optional path of a persistent per-trial
//!   cache; binaries that re-run overlapping pair sets then skip trials
//!   already simulated (results are identical either way).

#![warn(missing_docs)]

use prudentia_apps::Service;
use prudentia_core::daemon::full_matrix;
use prudentia_core::{
    execute_pairs, Daemon, DaemonConfig, DurationPolicy, ExecutorConfig, NetworkSetting,
    PairOutcome, PairSpec, TrialCache, TrialPolicy, WatchdogConfig,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Execution mode for regeneration binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reduced runtime: 3-minute experiments, 3–7 trials per pair.
    Quick,
    /// The paper's §3.4 protocol: 10 minutes, 10–30 trials.
    Paper,
}

impl Mode {
    /// Read from `PRUDENTIA_MODE` (default quick).
    pub fn from_env() -> Mode {
        match std::env::var("PRUDENTIA_MODE").as_deref() {
            Ok("paper") => Mode::Paper,
            _ => Mode::Quick,
        }
    }

    /// The matching trial policy.
    pub fn policy(self) -> TrialPolicy {
        match self {
            Mode::Quick => TrialPolicy::quick(),
            Mode::Paper => TrialPolicy::default(),
        }
    }

    /// The matching duration policy.
    pub fn duration(self) -> DurationPolicy {
        match self {
            Mode::Quick => DurationPolicy::Quick,
            Mode::Paper => DurationPolicy::Paper,
        }
    }

    /// Mode tag for cache file names.
    pub fn tag(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Paper => "paper",
        }
    }
}

/// Worker-thread count (`PRUDENTIA_PARALLEL`, default = available cores).
pub fn parallelism() -> usize {
    std::env::var("PRUDENTIA_PARALLEL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The shared trial cache named by `PRUDENTIA_TRIAL_CACHE`, if any.
/// A missing or unreadable file starts cold.
pub fn trial_cache() -> Option<(Arc<TrialCache>, PathBuf)> {
    let path = PathBuf::from(std::env::var("PRUDENTIA_TRIAL_CACHE").ok()?);
    let cache = TrialCache::load(&path).unwrap_or_else(|e| {
        eprintln!("warning: ignoring trial cache {}: {e}", path.display());
        TrialCache::new()
    });
    Some((Arc::new(cache), path))
}

/// Run pairs on the trial executor, honouring `PRUDENTIA_TRIAL_CACHE`,
/// and print the run's telemetry to stderr.
pub fn run_pairs(pairs: &[PairSpec], mode: Mode) -> Vec<PairOutcome> {
    let mut config = ExecutorConfig::new(mode.policy(), mode.duration(), parallelism());
    let cache = trial_cache();
    if let Some((c, _)) = &cache {
        config = config.with_cache(Arc::clone(c));
    }
    let (outcomes, stats) = execute_pairs(pairs, &config).expect("valid bench config");
    eprint!("{stats}");
    if let Some((c, path)) = &cache {
        if let Err(e) = c.save(path) {
            eprintln!(
                "warning: failed to save trial cache {}: {e}",
                path.display()
            );
        }
    }
    outcomes
}

/// Directory for shared result files.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("PRUDENTIA_RESULTS").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Load the all-pairs throughput run (Fig 2 data, shared by Figs 11–13 and
/// the Obs 1 statistics) in canonical matrix order: one watchdog cycle
/// over a store in `results/allpairs_<mode>/`, run (or resumed) unless
/// that store already holds a completed cycle of the same matrix.
pub fn load_or_run_allpairs(mode: Mode) -> Vec<PairOutcome> {
    let dir = results_dir().join(format!("allpairs_{}", mode.tag()));
    let mut watchdog = WatchdogConfig::builder()
        .settings(vec![
            NetworkSetting::highly_constrained(),
            NetworkSetting::moderately_constrained(),
        ])
        .policy(mode.policy())
        .duration(mode.duration())
        .parallelism(parallelism());
    if let Some(path) = std::env::var_os("PRUDENTIA_TRIAL_CACHE") {
        watchdog = watchdog.cache_path(path);
    }
    let services: Vec<_> = Service::heatmap_set().iter().map(|s| s.spec()).collect();
    let mut config = DaemonConfig::new(&dir);
    config.watchdog = watchdog.build().expect("valid bench config");
    // One batch: the whole matrix shares one trial pool.
    config.batch_pairs = full_matrix(&services, &config.watchdog.settings).len();
    let mut daemon = Daemon::open(services, config).expect("open all-pairs store");
    let done = daemon
        .latest_checkpoint()
        .is_some_and(|c| c.completed && c.fingerprint == daemon.fingerprint());
    if done {
        eprintln!("(reusing cached all-pairs results from {})", dir.display());
    } else {
        eprintln!(
            "(running all-pairs heatmap experiments [{} mode], this is the slow part...)",
            mode.tag()
        );
        let report = daemon.run_cycle().expect("all-pairs cycle");
        eprint!("{}", report.stats);
    }
    daemon.outcomes()
}

/// The outcomes of one setting, in their input order.
pub fn outcomes_in(outcomes: &[PairOutcome], setting: &NetworkSetting) -> Vec<PairOutcome> {
    let same = |o: &&PairOutcome| o.setting == setting.name;
    outcomes.iter().filter(same).cloned().collect()
}

/// Labels for the heatmap service set, in canonical order.
pub fn heatmap_labels() -> Vec<String> {
    Service::heatmap_set()
        .iter()
        .map(|s| s.spec().name().to_string())
        .collect()
}

/// Render a horizontal bar for terminal "plots".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round().max(0.0) as usize
    };
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_defaults_quick() {
        // Not setting the env var in tests: default must be quick.
        assert_eq!(Mode::from_env(), Mode::Quick);
        assert_eq!(Mode::Quick.tag(), "quick");
        assert_eq!(Mode::Paper.tag(), "paper");
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn heatmap_labels_are_ten() {
        assert_eq!(heatmap_labels().len(), 10);
    }
}
