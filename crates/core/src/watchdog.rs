//! The watchdog's configuration and scheduling vocabulary.
//!
//! Prudentia "runs continuously", iterating over all service pairs in both
//! settings (one full cycle of the real testbed takes ~2 weeks). The one
//! loop that does so is the durable [`crate::daemon::Daemon`]; this module
//! holds what it is configured and scheduled with:
//!
//! * [`WatchdogConfig`] — settings, trial policy, parallelism, trial
//!   cache, and the [`change_threshold`](WatchdogConfig::change_threshold)
//!   above which a pair's new outcome is reported as a [`FairnessChange`]
//!   against its previous stored outcome — the capability Observation 13
//!   shows mattering (BBRv3 deployments and kernel upgrades change
//!   fairness outcomes);
//! * [`pair_store_key`], the durable identity of a pair;
//! * the *staleness scheduler*: given the latest stored outcome per pair,
//!   [`staleness_order`] prioritizes never-tested pairs, then the pairs
//!   whose results are oldest — so an interrupted or freshly-extended
//!   matrix converges on full coverage instead of re-running whatever
//!   happens to come first.

use crate::config::NetworkSetting;
use crate::error::PrudentiaError;
use crate::scheduler::{DurationPolicy, PairSpec, TrialPolicy};
use prudentia_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

/// A detected change in a pair's fairness between two stored outcomes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FairnessChange {
    /// Contender name.
    pub contender: String,
    /// Incumbent name.
    pub incumbent: String,
    /// Setting name.
    pub setting: String,
    /// Previous median incumbent MmF share.
    pub before: f64,
    /// Current median incumbent MmF share.
    pub after: f64,
}

impl FairnessChange {
    /// Relative change magnitude.
    pub fn relative_change(&self) -> f64 {
        if self.before == 0.0 {
            return f64::INFINITY;
        }
        (self.after - self.before).abs() / self.before
    }
}

/// Watchdog configuration.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Settings to cycle (paper: the 8 and 50 Mbps settings).
    pub settings: Vec<NetworkSetting>,
    /// Trial policy per pair.
    pub policy: TrialPolicy,
    /// Experiment length.
    pub duration: DurationPolicy,
    /// Worker threads.
    pub parallelism: usize,
    /// Relative MmF-share change that triggers a report (e.g. 0.2 = 20%).
    pub change_threshold: f64,
    /// Where to persist the trial cache (`None` disables caching).
    /// With a cache, iterations over unchanged pairs skip simulation and
    /// a killed run resumes from its completed trials.
    pub cache_path: Option<PathBuf>,
    /// Metrics registry shared across iterations (`None` disables
    /// metric collection). Attaching one cannot change outcomes.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            settings: vec![
                NetworkSetting::highly_constrained(),
                NetworkSetting::moderately_constrained(),
            ],
            policy: TrialPolicy::default(),
            duration: DurationPolicy::Paper,
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            change_threshold: 0.2,
            cache_path: None,
            metrics: None,
        }
    }
}

impl WatchdogConfig {
    /// Start building a config from the paper defaults.
    pub fn builder() -> WatchdogConfigBuilder {
        WatchdogConfigBuilder {
            inner: WatchdogConfig::default(),
        }
    }

    /// Check the invariants [`WatchdogConfigBuilder::build`] enforces.
    pub fn validate(&self) -> Result<(), PrudentiaError> {
        if self.settings.is_empty() {
            return Err(PrudentiaError::InvalidConfig(
                "watchdog needs at least one network setting".to_string(),
            ));
        }
        if self.parallelism == 0 {
            return Err(PrudentiaError::InvalidConfig(
                "watchdog parallelism must be at least 1".to_string(),
            ));
        }
        if !self.change_threshold.is_finite() || self.change_threshold < 0.0 {
            return Err(PrudentiaError::InvalidConfig(format!(
                "change threshold must be finite and non-negative, got {}",
                self.change_threshold
            )));
        }
        if self.policy.min_trials == 0 || self.policy.batch == 0 {
            return Err(PrudentiaError::InvalidConfig(
                "trial policy counts must be at least 1".to_string(),
            ));
        }
        if self.policy.max_trials < self.policy.min_trials {
            return Err(PrudentiaError::InvalidConfig(format!(
                "max_trials {} below min_trials {}",
                self.policy.max_trials, self.policy.min_trials
            )));
        }
        Ok(())
    }
}

/// Validating builder for [`WatchdogConfig`]. [`WatchdogConfig`] itself
/// stays a plain struct (existing struct-literal construction keeps
/// working); the builder adds upfront validation so a daemon fails at
/// startup rather than mid-cycle.
#[derive(Debug, Clone)]
pub struct WatchdogConfigBuilder {
    inner: WatchdogConfig,
}

impl WatchdogConfigBuilder {
    /// Replace the settings cycled each iteration.
    pub fn settings(mut self, settings: Vec<NetworkSetting>) -> Self {
        self.inner.settings = settings;
        self
    }

    /// Append one setting to the cycle.
    pub fn setting(mut self, setting: NetworkSetting) -> Self {
        self.inner.settings.push(setting);
        self
    }

    /// Trial-count policy per pair.
    pub fn policy(mut self, policy: TrialPolicy) -> Self {
        self.inner.policy = policy;
        self
    }

    /// Experiment length policy.
    pub fn duration(mut self, duration: DurationPolicy) -> Self {
        self.inner.duration = duration;
        self
    }

    /// Worker threads for the trial executor.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.inner.parallelism = parallelism;
        self
    }

    /// Relative MmF-share change that triggers a report.
    pub fn change_threshold(mut self, threshold: f64) -> Self {
        self.inner.change_threshold = threshold;
        self
    }

    /// Persist the trial cache at this path.
    pub fn cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.inner.cache_path = Some(path.into());
        self
    }

    /// Attach a metrics registry.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.inner.metrics = Some(registry);
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<WatchdogConfig, PrudentiaError> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

/// Stable durable-store key for a (contender, incumbent, setting) pair:
/// FNV-1a over the three names, NUL-separated (the same construction as
/// the trial cache's key hash).
pub fn pair_store_key(contender: &str, incumbent: &str, setting: &str) -> u64 {
    prudentia_store::fnv1a_key(&[contender, incumbent, setting])
}

/// Per-pair freshness, derived from the durable store — the data behind
/// the daemon's scheduling decisions and the `/freshness` endpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairFreshness {
    /// Contender name.
    pub contender: String,
    /// Incumbent name.
    pub incumbent: String,
    /// Setting name.
    pub setting: String,
    /// Store key ([`pair_store_key`]).
    pub key: u64,
    /// Sequence number of the latest stored outcome (`None` = never
    /// tested).
    pub last_seq: Option<u64>,
    /// Timestamp of the latest stored outcome, unix ms.
    pub last_tested_unix_ms: Option<u64>,
    /// Whether the latest outcome belongs to the current cycle.
    pub tested_this_cycle: bool,
}

/// Order pair indices by staleness: never-tested pairs first (in matrix
/// order), then tested pairs by ascending last-result sequence number
/// (oldest data first), ties broken by matrix order. Deterministic for
/// a given store state, which keeps resumed daemon runs reproducible.
pub fn staleness_order<F>(pairs: &[PairSpec], last_seq: F) -> Vec<usize>
where
    F: Fn(&PairSpec) -> Option<u64>,
{
    let mut idx: Vec<usize> = (0..pairs.len()).collect();
    idx.sort_by_key(|&i| match last_seq(&pairs[i]) {
        None => (0u8, 0u64, i),
        Some(seq) => (1u8, seq, i),
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{CycleReport, Daemon, DaemonConfig};
    use prudentia_apps::Service;

    /// A zero change threshold: any movement at all is reported.
    fn tiny_config() -> WatchdogConfig {
        WatchdogConfig {
            settings: vec![NetworkSetting::highly_constrained()],
            policy: TrialPolicy {
                min_trials: 2,
                batch: 1,
                max_trials: 2,
            },
            duration: DurationPolicy::Quick,
            parallelism: 4,
            change_threshold: 0.0,
            cache_path: None,
            metrics: None,
        }
    }

    /// `n` cycles of the one watchdog loop, the daemon, over a fresh store.
    fn cycles(
        name: &str,
        services: &[Service],
        config: WatchdogConfig,
        n: u64,
    ) -> Vec<CycleReport> {
        let dir = std::env::temp_dir()
            .join("prudentia_watchdog_unit")
            .join(name);
        std::fs::remove_dir_all(&dir).ok();
        let mut daemon_config = DaemonConfig::new(&dir);
        daemon_config.watchdog = config;
        let specs = services.iter().map(|s| s.spec()).collect();
        let mut daemon = Daemon::open(specs, daemon_config).expect("daemon opens");
        let reports = (0..n)
            .map(|_| daemon.run_cycle().expect("cycle runs"))
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        reports
    }

    #[test]
    fn iteration_covers_all_pairs() {
        let services = [Service::IperfReno, Service::IperfCubic];
        let report = &cycles("covers", &services, tiny_config(), 1)[0];
        assert!(report.changes.is_empty(), "first cycle has no baseline");
        assert_eq!(report.pairs_executed, 4); // 2x2 pairs x 1 setting
    }

    #[test]
    fn unchanged_services_produce_no_changes() {
        let reports = cycles("unchanged", &[Service::IperfReno], tiny_config(), 2);
        // Deterministic seeds => identical outcomes => no changes.
        assert_eq!((reports[1].cycle, reports[1].pairs_executed), (2, 1));
        assert!(reports[1].changes.is_empty(), "{:?}", reports[1].changes);
    }

    #[test]
    fn cached_second_iteration_skips_simulation() {
        let dir = std::env::temp_dir().join("prudentia_watchdog_cache_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("trials.json");
        std::fs::remove_file(&path).ok();
        let config = WatchdogConfig {
            cache_path: Some(path.clone()),
            ..tiny_config()
        };
        let reports = cycles("cached", &[Service::IperfReno], config, 2);
        let (cold, warm) = (&reports[0].stats, &reports[1].stats);
        assert!(cold.trials_run > 0);
        assert_eq!(cold.trials_cached, 0);
        assert_eq!(warm.trials_run, 0, "unchanged pairs are fully memoized");
        assert!(warm.cache_hit_rate() > 0.99);
        assert!(path.exists(), "cache persisted between cycles");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_validates_and_matches_struct_literal() {
        let built = WatchdogConfig::builder()
            .settings(vec![NetworkSetting::highly_constrained()])
            .policy(TrialPolicy::quick())
            .duration(DurationPolicy::Quick)
            .parallelism(3)
            .change_threshold(0.5)
            .build()
            .expect("valid config");
        assert_eq!(built.settings.len(), 1);
        assert_eq!(built.parallelism, 3);
        assert!(built.cache_path.is_none());

        assert!(WatchdogConfig::builder()
            .settings(Vec::new())
            .build()
            .is_err());
        assert!(WatchdogConfig::builder().parallelism(0).build().is_err());
        assert!(WatchdogConfig::builder()
            .change_threshold(f64::NAN)
            .build()
            .is_err());
        assert!(WatchdogConfig::builder()
            .policy(TrialPolicy {
                min_trials: 5,
                batch: 1,
                max_trials: 2,
            })
            .build()
            .is_err());
    }

    #[test]
    fn staleness_prefers_untested_then_oldest() {
        let mk = |c: &str| {
            let mut setting = NetworkSetting::custom(8e6);
            setting.name = c.to_string();
            PairSpec {
                contender: Service::IperfReno.spec(),
                incumbent: Service::IperfCubic.spec(),
                setting,
            }
        };
        let pairs = vec![mk("a"), mk("b"), mk("c"), mk("d")];
        // a tested at seq 9, b never, c at seq 3, d never.
        let order = staleness_order(&pairs, |p| match p.setting.name.as_str() {
            "a" => Some(9),
            "c" => Some(3),
            _ => None,
        });
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn pair_store_key_is_stable_and_separator_safe() {
        let k = pair_store_key("Mega", "YouTube", "8");
        assert_eq!(k, pair_store_key("Mega", "YouTube", "8"));
        assert_ne!(k, pair_store_key("YouTube", "Mega", "8"));
        assert_ne!(
            pair_store_key("ab", "c", "s"),
            pair_store_key("a", "bc", "s")
        );
    }

    #[test]
    fn change_detection_relative_math() {
        let c = FairnessChange {
            contender: "a".into(),
            incumbent: "b".into(),
            setting: "s".into(),
            before: 1.0,
            after: 0.5,
        };
        assert!((c.relative_change() - 0.5).abs() < 1e-12);
    }
}
