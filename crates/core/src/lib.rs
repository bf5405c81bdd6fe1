//! # prudentia-core
//!
//! The Prudentia Internet-fairness watchdog: experiment specification and
//! execution, the §3.4 adaptive-trials scheduler, fairness heatmaps
//! (Figs 2/11/12/13), observation extraction, and the one watchdog loop —
//! the [`Daemon`], which cycles every pair over a durable store (chosen
//! by the caller, or temporary), resumes after restarts, and raises the
//! Obs 13 fairness-change alerts against stored history — all running
//! over the packet-level simulator in `prudentia-sim` with the Table 1
//! service models in `prudentia-apps`.
//!
//! Quick start:
//!
//! ```
//! use prudentia_core::{run_experiment, ExperimentSpec, NetworkSetting};
//! use prudentia_apps::Service;
//!
//! // A shortened trial on the 8 Mbps setting (fast enough for a doctest).
//! let mut spec = ExperimentSpec::quick(
//!     Service::IperfCubic.spec(),    // contender
//!     Service::IperfReno.spec(),     // incumbent
//!     NetworkSetting::highly_constrained(),
//!     42,
//! );
//! spec.duration = prudentia_sim::SimDuration::from_secs(20);
//! spec.warmup = prudentia_sim::SimDuration::from_secs(4);
//! spec.cooldown = prudentia_sim::SimDuration::from_secs(4);
//! let result = run_experiment(&spec);
//! assert!(result.utilization > 0.8);
//! println!(
//!     "{} got {:.0}% of its max-min fair share vs {}",
//!     result.incumbent.name,
//!     result.incumbent.mmf_share * 100.0,
//!     result.contender.name,
//! );
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod classifier;
pub mod cli;
pub mod config;
pub mod daemon;
pub mod error;
pub mod executor;
pub mod experiment;
pub mod fleet;
pub mod heatmap;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod serve;
pub mod submissions;
pub mod watchdog;

pub use cache::{trial_key, versioned_fnv, TrialCache, SPEC_SCHEMA_VERSION};
pub use campaign::{
    execute_cell, run_campaign, CampaignRunConfig, CampaignRunReport, CampaignSpec, CellOutcome,
    CellRecord, VerdictBand,
};
pub use classifier::{classify_service, extract_features, CcaClass, CcaFeatures, ClassifierConfig};
pub use config::NetworkSetting;
pub use daemon::{
    Checkpoint, CycleReport, Daemon, DaemonConfig, PairRecord, ShutdownFlag,
    CHECKPOINT_SCHEMA_VERSION,
};
pub use error::PrudentiaError;
pub use executor::{
    execute_pairs, ExecutorConfig, ExecutorConfigBuilder, PairStats, SchedulerStats,
};
pub use experiment::{
    AppSummary, ExperimentResult, ExperimentSpec, QueuePoint, SeriesPoint, SideResult,
};
pub use fleet::{FleetConfig, FleetManifest, FleetReport, FleetView, ShardHealth, ShardSpec};
pub use heatmap::{Heatmap, HeatmapStat};
pub use prudentia_obs::{MetricsRegistry, MetricsSnapshot};
pub use prudentia_sim::{ImpairmentSpec, QdiscSpec, RateStep, ScenarioSpec};
pub use report::{loser_shares, loser_stats, self_competition_mean, LoserStats, TransitivityRow};
pub use runner::{
    run_experiment, run_experiment_instrumented, run_experiment_observed, run_solo,
    EXTERNAL_LOSS_DISCARD,
};
pub use scheduler::{trial_seed, DurationPolicy, PairOutcome, PairSpec, TrialPolicy};
pub use serve::{serve, write_report, DegradedBody, FleetStatusBody, ServeConfig, StatusBody};
pub use submissions::{
    ReportLine, SubmissionDesk, SubmissionError, SubmissionReport, Verdict, SUBMISSIONS_PER_CODE,
};
pub use watchdog::{
    pair_store_key, staleness_order, FairnessChange, PairFreshness, WatchdogConfig,
    WatchdogConfigBuilder,
};

/// The convenience prelude: `use prudentia_core::prelude::*;` pulls in
/// everything needed for the common workflows — running experiments and
/// pairs, building heatmaps, driving the watchdog daemon, and serving or
/// reporting from its durable store.
pub mod prelude {
    pub use crate::config::{NetworkSetting, NetworkSettingBuilder};
    pub use crate::daemon::{Daemon, DaemonConfig, ShutdownFlag};
    pub use crate::error::PrudentiaError;
    pub use crate::executor::{execute_pairs, ExecutorConfig, ExecutorConfigBuilder};
    pub use crate::experiment::{ExperimentResult, ExperimentSpec};
    pub use crate::heatmap::{Heatmap, HeatmapStat};
    pub use crate::runner::{run_experiment, run_solo};
    pub use crate::scheduler::{DurationPolicy, PairOutcome, PairSpec, TrialPolicy};
    pub use crate::serve::{serve, write_report, ServeConfig};
    pub use crate::watchdog::{FairnessChange, WatchdogConfig, WatchdogConfigBuilder};
    pub use prudentia_apps::{Service, ServiceSpec};
    pub use prudentia_store::{Snapshot, Store};
}
