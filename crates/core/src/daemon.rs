//! The production watchdog daemon: durable results, staleness-driven
//! scheduling, graceful shutdown, and checkpointed resume.
//!
//! The paper's watchdog is a *service*, not a batch job: it cycles every
//! (contender, incumbent, setting) pair continuously, survives restarts,
//! and publishes every completed experiment (§3.4, §4). [`Daemon`] is
//! that service over the simulator:
//!
//! * every completed pair outcome is appended to a durable
//!   [`prudentia_store::Store`] under kind `"pair"`, tagged with cycle,
//!   code version, scenario, and seed provenance;
//! * before a pair's new outcome is appended, its incumbent MmF share is
//!   compared with the pair's latest stored outcome; a relative change
//!   above [`WatchdogConfig::change_threshold`] is reported as a
//!   [`FairnessChange`] (Obs 13). The baseline is store history, so
//!   detection survives restarts and works inside fleet workers;
//! * within a cycle, pending pairs are ordered by [`staleness`]
//!   [`crate::watchdog::staleness_order`]: never-tested pairs first,
//!   then oldest results first;
//! * shutdown is cooperative ([`ShutdownFlag`]: SIGINT or SIGTERM, a flag
//!   file, or an in-process request) and lands on a batch boundary, after
//!   which a progress checkpoint is written;
//! * a restarted daemon reads the checkpoint, skips pairs already
//!   recorded for the interrupted cycle, and finishes the remainder —
//!   per-pair outcomes are deterministic, so the completed matrix is
//!   byte-identical to an uninterrupted run.
//!
//! [`staleness`]: crate::watchdog::staleness_order

use crate::cache::{TrialCache, SPEC_SCHEMA_VERSION};
use crate::config::NetworkSetting;
use crate::error::PrudentiaError;
use crate::executor::{execute_pairs, ExecutorConfig, SchedulerStats};
use crate::fleet::ShardSpec;
use crate::heatmap::{Heatmap, HeatmapStat};
use crate::scheduler::{trial_seed, PairOutcome, PairSpec};
use crate::watchdog::{
    pair_store_key, staleness_order, FairnessChange, PairFreshness, WatchdogConfig,
};
use prudentia_apps::ServiceSpec;
use prudentia_store::{fnv1a_key, kinds, MergedSnapshot, Record, Snapshot, Store};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Schema version of [`Checkpoint`] payloads.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// Process-wide SIGINT/SIGTERM latch (signal handlers need a static).
static SIGNAL_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn handle_signal(_sig: i32) {
    // Only an atomic store: async-signal-safe.
    SIGNAL_SEEN.store(true, Ordering::SeqCst);
}

/// Cooperative shutdown signal for the daemon.
///
/// A shutdown can be requested three ways, all observed at the next
/// batch boundary: in-process via [`ShutdownFlag::request`], by SIGINT
/// or SIGTERM once [`ShutdownFlag::install_signal_handlers`] has run, or
/// by creating the configured flag file (the portable option for service
/// managers without signal access).
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    requested: Arc<AtomicBool>,
    flag_file: Option<PathBuf>,
}

impl ShutdownFlag {
    /// A flag with no file to watch.
    pub fn new() -> Self {
        ShutdownFlag::default()
    }

    /// A flag that also treats the existence of `path` as a request.
    pub fn with_flag_file(path: impl Into<PathBuf>) -> Self {
        ShutdownFlag {
            requested: Arc::new(AtomicBool::new(false)),
            flag_file: Some(path.into()),
        }
    }

    /// Request shutdown from this process.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested by any mechanism.
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
            || SIGNAL_SEEN.load(Ordering::SeqCst)
            || self.flag_file.as_deref().is_some_and(|p| p.exists())
    }

    /// Route SIGINT (ctrl-C) and SIGTERM (what supervisors send) to the
    /// shutdown latch so an interrupted daemon checkpoints instead of
    /// dying mid-append.
    #[cfg(unix)]
    pub fn install_signal_handlers() {
        extern "C" {
            // Provided by the platform C library, which Rust links on
            // unix targets; declared raw to avoid a libc dependency.
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        for signum in [SIGINT, SIGTERM] {
            unsafe {
                signal(signum, handle_signal as *const () as usize);
            }
        }
    }

    /// No-op off unix: flag files and in-process requests still work.
    #[cfg(not(unix))]
    pub fn install_signal_handlers() {}
}

/// Durable payload of one completed pair (store kind `"pair"`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairRecord {
    /// Daemon cycle that produced this outcome.
    pub cycle: u64,
    /// `prudentia-core` version that ran the trials.
    pub code_version: String,
    /// Bottleneck queue discipline of the setting's scenario.
    pub scenario: String,
    /// Seed of the pair's first trial (the rest derive from the same
    /// [`trial_seed`] stream).
    pub first_trial_seed: u64,
    /// The aggregated outcome.
    pub outcome: PairOutcome,
}

/// Daemon progress marker (store kind `"checkpoint"`; one live record
/// per store — every write supersedes the last).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Cycle number, starting at 1.
    pub cycle: u64,
    /// Store sequence watermark when the cycle opened: a pair is done
    /// *this cycle* iff its latest record's seq is greater.
    pub cycle_start_seq: u64,
    /// Fingerprint of (services, settings, policy, duration); a changed
    /// matrix starts a new cycle rather than resuming a stale one.
    pub fingerprint: u64,
    /// Pairs in the full matrix.
    pub pairs_total: u64,
    /// Pairs recorded so far this cycle.
    pub pairs_done: u64,
    /// Whether the cycle ran to completion.
    pub completed: bool,
}

/// Store key under which the checkpoint chain lives.
pub fn checkpoint_key() -> u64 {
    fnv1a_key(&["daemon", "checkpoint"])
}

/// Daemon configuration: a [`WatchdogConfig`] plus service-layer knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Settings, trial policy, parallelism, cache, metrics.
    pub watchdog: WatchdogConfig,
    /// Directory of the durable results store.
    pub store_dir: PathBuf,
    /// Pairs scheduled per executor batch; the shutdown flag is polled
    /// between batches, so this bounds shutdown latency.
    pub batch_pairs: usize,
    /// Stop (checkpoint + clean exit) after this many pair completions
    /// in one `run_cycle` call — deterministic interruption for tests
    /// and bounded-work cron invocations. `None` = run the full cycle.
    pub max_pairs_per_run: Option<u64>,
    /// Run only this shard's slice of the pair matrix (`prudentia
    /// watch --shard I/N`, one worker of a fleet). `None` = the full
    /// matrix. The shard is part of the cycle fingerprint, so a store
    /// is bound to one slice and a changed fleet size starts fresh.
    pub shard: Option<ShardSpec>,
}

impl DaemonConfig {
    /// Defaults: full cycle per run, batches of 2 pairs, no sharding.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            watchdog: WatchdogConfig::default(),
            store_dir: store_dir.into(),
            batch_pairs: 2,
            max_pairs_per_run: None,
            shard: None,
        }
    }
}

/// What one [`Daemon::run_cycle`] call did.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Cycle number worked on.
    pub cycle: u64,
    /// Pairs in the full matrix.
    pub pairs_total: u64,
    /// Pairs already recorded for this cycle before the call (resume).
    pub pairs_already_done: u64,
    /// Pairs executed and recorded by this call.
    pub pairs_executed: u64,
    /// Whether the call stopped early (shutdown or per-run cap); the
    /// cycle can be resumed with another `run_cycle` call.
    pub interrupted: bool,
    /// Pairs executed by this call whose incumbent MmF share moved by
    /// more than the change threshold against the pair's previous
    /// stored outcome, in execution order.
    pub changes: Vec<FairnessChange>,
    /// Executor telemetry of this call, summed over its batches.
    pub stats: SchedulerStats,
}

impl CycleReport {
    /// Whether the cycle is now complete.
    pub fn completed(&self) -> bool {
        !self.interrupted
    }
}

/// Read access to the latest-per-key record view — implemented by both
/// the writable [`Store`] and read-only [`Snapshot`], so status,
/// freshness, and heatmap derivation work identically in the daemon and
/// in the `serve`/`report` read path.
pub trait LatestView {
    /// Latest record for `(kind, key)`.
    fn latest_record(&self, kind: &str, key: u64) -> Option<&Record>;
    /// Latest records of `kind`, ascending key order.
    fn latest_records<'a>(&'a self, kind: &'a str) -> Box<dyn Iterator<Item = &'a Record> + 'a>;
}

impl LatestView for Store {
    fn latest_record(&self, kind: &str, key: u64) -> Option<&Record> {
        self.latest(kind, key)
    }
    fn latest_records<'a>(&'a self, kind: &'a str) -> Box<dyn Iterator<Item = &'a Record> + 'a> {
        Box::new(self.latest_of_kind(kind))
    }
}

impl LatestView for Snapshot {
    fn latest_record(&self, kind: &str, key: u64) -> Option<&Record> {
        self.latest(kind, key)
    }
    fn latest_records<'a>(&'a self, kind: &'a str) -> Box<dyn Iterator<Item = &'a Record> + 'a> {
        Box::new(self.latest_of_kind(kind))
    }
}

impl LatestView for MergedSnapshot {
    fn latest_record(&self, kind: &str, key: u64) -> Option<&Record> {
        self.latest(kind, key)
    }
    fn latest_records<'a>(&'a self, kind: &'a str) -> Box<dyn Iterator<Item = &'a Record> + 'a> {
        Box::new(self.latest_of_kind(kind))
    }
}

/// The latest daemon checkpoint in a store view, if any.
pub fn latest_checkpoint(view: &dyn LatestView) -> Option<Checkpoint> {
    view.latest_record(kinds::CHECKPOINT, checkpoint_key())
        .and_then(|r| r.decode().ok())
}

/// The full (contender, incumbent, setting) matrix in canonical order:
/// settings outermost, then contender, then incumbent — the order every
/// cycle, freshness listing, and tie-break uses.
pub fn full_matrix(services: &[ServiceSpec], settings: &[NetworkSetting]) -> Vec<PairSpec> {
    let mut out = Vec::with_capacity(settings.len() * services.len() * services.len());
    for setting in settings {
        for a in services {
            for b in services {
                out.push(PairSpec {
                    contender: a.clone(),
                    incumbent: b.clone(),
                    setting: setting.clone(),
                });
            }
        }
    }
    out
}

/// One shard's slice of the full matrix, in canonical order: the pairs
/// whose store key the shard owns. `None` = the whole matrix.
pub fn shard_matrix(
    services: &[ServiceSpec],
    settings: &[NetworkSetting],
    shard: Option<ShardSpec>,
) -> Vec<PairSpec> {
    let plan = full_matrix(services, settings);
    match shard {
        None => plan,
        Some(s) => plan
            .into_iter()
            .filter(|p| {
                s.owns(pair_store_key(
                    p.contender.name(),
                    p.incumbent.name(),
                    &p.setting.name,
                ))
            })
            .collect(),
    }
}

/// Fingerprint of a scheduling matrix: services, settings, trial
/// policy, duration, and (for fleet workers) the shard slice. Shared by
/// [`Daemon::fingerprint`] and the fleet rebalancer, which must write
/// checkpoints a worker will recognise as its own.
pub fn matrix_fingerprint(
    services: &[ServiceSpec],
    settings: &[NetworkSetting],
    policy: crate::scheduler::TrialPolicy,
    duration: crate::scheduler::DurationPolicy,
    shard: Option<ShardSpec>,
) -> u64 {
    let mut parts: Vec<String> = Vec::new();
    for s in services {
        parts.push(s.name().to_string());
    }
    for s in settings {
        parts.push(s.name.clone());
    }
    parts.push(format!(
        "policy:{}/{}/{}",
        policy.min_trials, policy.batch, policy.max_trials
    ));
    parts.push(format!("duration:{duration:?}"));
    if let Some(s) = shard {
        // Only appended when sharded, so unsharded stores keep their
        // pre-fleet fingerprints and resume across upgrades.
        parts.push(format!("shard:{s}"));
    }
    let refs: Vec<&str> = parts.iter().map(|s| s.as_str()).collect();
    fnv1a_key(&refs)
}

/// Per-pair freshness for a matrix against a store view (the data
/// behind staleness scheduling and the `/freshness` endpoint).
pub fn freshness(view: &dyn LatestView, plan: &[PairSpec]) -> Vec<PairFreshness> {
    let horizon = latest_checkpoint(view).map(|c| c.cycle_start_seq);
    plan.iter()
        .map(|p| {
            let key = pair_store_key(p.contender.name(), p.incumbent.name(), &p.setting.name);
            let rec = view.latest_record(kinds::PAIR, key);
            PairFreshness {
                contender: p.contender.name().to_string(),
                incumbent: p.incumbent.name().to_string(),
                setting: p.setting.name.clone(),
                key,
                last_seq: rec.map(|r| r.seq),
                last_tested_unix_ms: rec.map(|r| r.ts_unix_ms),
                tested_this_cycle: match (rec, horizon) {
                    (Some(r), Some(h)) => r.seq > h,
                    _ => false,
                },
            }
        })
        .collect()
}

/// Build one heatmap per setting from the freshest stored outcome of
/// every pair. Label order follows `services`; pairs never tested are
/// left as missing cells. Independent of execution order, so a resumed
/// cycle renders byte-identically to an uninterrupted one.
pub fn heatmaps(
    view: &dyn LatestView,
    services: &[ServiceSpec],
    settings: &[NetworkSetting],
    stat: HeatmapStat,
) -> Vec<(String, Heatmap)> {
    let labels: Vec<String> = services.iter().map(|s| s.name().to_string()).collect();
    settings
        .iter()
        .map(|setting| {
            let outcomes: Vec<PairOutcome> = services
                .iter()
                .flat_map(|a| services.iter().map(move |b| (a, b)))
                .filter_map(|(a, b)| stored_outcome(view, a.name(), b.name(), &setting.name))
                .collect();
            (
                setting.name.clone(),
                Heatmap::build(stat, &labels, &outcomes),
            )
        })
        .collect()
}

/// The freshest stored outcome of one pair, if it has been tested.
fn stored_outcome(
    view: &dyn LatestView,
    contender: &str,
    incumbent: &str,
    setting: &str,
) -> Option<PairOutcome> {
    let key = pair_store_key(contender, incumbent, setting);
    let record = view.latest_record(kinds::PAIR, key)?;
    record.decode::<PairRecord>().ok().map(|r| r.outcome)
}

/// The resumable watchdog daemon. See the module docs for the design.
pub struct Daemon {
    services: Vec<ServiceSpec>,
    config: DaemonConfig,
    store: Store,
    cache: Option<Arc<TrialCache>>,
    shutdown: ShutdownFlag,
}

impl Daemon {
    /// Open (or create) the durable store and load the trial cache if
    /// the config names one; a missing or unreadable cache starts cold.
    pub fn open(services: Vec<ServiceSpec>, config: DaemonConfig) -> Result<Self, PrudentiaError> {
        config.watchdog.validate()?;
        if services.is_empty() {
            return Err(PrudentiaError::InvalidConfig(
                "daemon needs at least one service in rotation".to_string(),
            ));
        }
        if config.batch_pairs == 0 {
            return Err(PrudentiaError::InvalidConfig(
                "batch_pairs must be at least 1".to_string(),
            ));
        }
        let store = Store::open(&config.store_dir)?;
        if let Some(rec) = store.recovered_tail() {
            prudentia_obs::event!(
                prudentia_obs::Level::Warn,
                "daemon",
                "recovered torn store tail",
                dropped_bytes = rec.dropped_bytes,
            );
        }
        let cache = config.watchdog.cache_path.as_ref().map(|path| {
            Arc::new(TrialCache::load(path).unwrap_or_else(|e| {
                eprintln!("warning: ignoring trial cache {}: {e}", path.display());
                TrialCache::new()
            }))
        });
        Ok(Daemon {
            services,
            config,
            store,
            cache,
            shutdown: ShutdownFlag::new(),
        })
    }

    /// Replace the shutdown flag (to share one with a status server or
    /// wire up a flag file).
    pub fn set_shutdown(&mut self, flag: ShutdownFlag) {
        self.shutdown = flag;
    }

    /// The daemon's shutdown flag.
    pub fn shutdown_flag(&self) -> &ShutdownFlag {
        &self.shutdown
    }

    /// The underlying durable store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Services in rotation.
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// This daemon's matrix slice in canonical order: the full matrix,
    /// or its shard's subset when running as a fleet worker.
    pub fn plan(&self) -> Vec<PairSpec> {
        shard_matrix(
            &self.services,
            &self.config.watchdog.settings,
            self.config.shard,
        )
    }

    /// The freshest stored outcome of every pair in [`plan`](Self::plan),
    /// in plan order; pairs never tested are skipped.
    pub fn outcomes(&self) -> Vec<PairOutcome> {
        self.plan()
            .iter()
            .filter_map(|p| {
                stored_outcome(
                    &self.store,
                    p.contender.name(),
                    p.incumbent.name(),
                    &p.setting.name,
                )
            })
            .collect()
    }

    /// Per-pair freshness against the store.
    pub fn freshness(&self) -> Vec<PairFreshness> {
        freshness(&self.store, &self.plan())
    }

    /// Latest checkpoint, if any cycle has started.
    pub fn latest_checkpoint(&self) -> Option<Checkpoint> {
        latest_checkpoint(&self.store)
    }

    /// One heatmap per setting from the freshest stored outcomes.
    pub fn heatmaps(&self, stat: HeatmapStat) -> Vec<(String, Heatmap)> {
        heatmaps(
            &self.store,
            &self.services,
            &self.config.watchdog.settings,
            stat,
        )
    }

    /// Fingerprint of the scheduling matrix: services, settings, trial
    /// policy, duration, and shard slice. Resume only continues a cycle
    /// whose fingerprint matches; anything else starts fresh.
    pub fn fingerprint(&self) -> u64 {
        matrix_fingerprint(
            &self.services,
            &self.config.watchdog.settings,
            self.config.watchdog.policy,
            self.config.watchdog.duration,
            self.config.shard,
        )
    }

    /// Run (or resume) one cycle of the full matrix. Returns early with
    /// `interrupted = true` on a shutdown request or when the per-run
    /// pair cap is reached; call again to continue the same cycle.
    pub fn run_cycle(&mut self) -> Result<CycleReport, PrudentiaError> {
        let fp = self.fingerprint();
        let plan = self.plan();
        let ckpt = match self.latest_checkpoint() {
            Some(c)
                if !c.completed && c.fingerprint == fp && c.pairs_total == plan.len() as u64 =>
            {
                prudentia_obs::event!(
                    prudentia_obs::Level::Info,
                    "daemon",
                    "resuming interrupted cycle",
                    cycle = c.cycle,
                    done = c.pairs_done,
                    total = c.pairs_total,
                );
                c
            }
            prev => {
                let c = Checkpoint {
                    cycle: prev.map(|c| c.cycle + 1).unwrap_or(1),
                    cycle_start_seq: self.store.next_seq(),
                    fingerprint: fp,
                    pairs_total: plan.len() as u64,
                    pairs_done: 0,
                    completed: false,
                };
                self.write_checkpoint(&c)?;
                c
            }
        };

        // Pending = pairs without a record newer than the cycle open.
        let last_seq = |p: &PairSpec| {
            self.store
                .latest(
                    kinds::PAIR,
                    pair_store_key(p.contender.name(), p.incumbent.name(), &p.setting.name),
                )
                .map(|r| r.seq)
        };
        let pending: Vec<PairSpec> = {
            let pending_idx: Vec<usize> = (0..plan.len())
                .filter(|&i| !last_seq(&plan[i]).is_some_and(|s| s > ckpt.cycle_start_seq))
                .collect();
            let subset: Vec<PairSpec> = pending_idx.iter().map(|&i| plan[i].clone()).collect();
            staleness_order(&subset, last_seq)
                .into_iter()
                .map(|i| subset[i].clone())
                .collect()
        };
        let mut report = CycleReport {
            cycle: ckpt.cycle,
            pairs_total: plan.len() as u64,
            pairs_already_done: plan.len() as u64 - pending.len() as u64,
            pairs_executed: 0,
            interrupted: false,
            changes: Vec::new(),
            stats: SchedulerStats::default(),
        };

        for batch in pending.chunks(self.config.batch_pairs) {
            let capped = self
                .config
                .max_pairs_per_run
                .is_some_and(|cap| report.pairs_executed >= cap);
            if capped || self.shutdown.is_requested() {
                return self.interrupt(&ckpt, report);
            }
            let (outcomes, stats) = execute_pairs(batch, &self.exec_config())?;
            report.stats.absorb(stats);
            for (spec, outcome) in batch.iter().zip(outcomes) {
                report.changes.extend(self.fairness_change(&outcome));
                self.append_pair(ckpt.cycle, spec, outcome)?;
                report.pairs_executed += 1;
            }
        }
        self.write_checkpoint(&Checkpoint {
            pairs_done: plan.len() as u64,
            completed: true,
            ..ckpt
        })?;
        self.save_cache();
        self.store.sync()?;
        prudentia_obs::event!(
            prudentia_obs::Level::Info,
            "daemon",
            "cycle complete",
            cycle = ckpt.cycle,
            executed = report.pairs_executed,
            resumed = report.pairs_already_done,
            changes = report.changes.len() as u64,
        );
        Ok(report)
    }

    /// Checkpoint an early exit and report it.
    fn interrupt(
        &mut self,
        ckpt: &Checkpoint,
        mut report: CycleReport,
    ) -> Result<CycleReport, PrudentiaError> {
        let done = report.pairs_already_done + report.pairs_executed;
        self.write_checkpoint(&Checkpoint {
            pairs_done: done,
            completed: false,
            ..ckpt.clone()
        })?;
        self.save_cache();
        self.store.sync()?;
        prudentia_obs::event!(
            prudentia_obs::Level::Info,
            "daemon",
            "cycle interrupted at checkpoint",
            cycle = ckpt.cycle,
            done = done,
            total = ckpt.pairs_total,
        );
        report.interrupted = true;
        Ok(report)
    }

    /// `outcome`'s change against the pair's latest stored outcome of
    /// the same schema, if it exceeds the change threshold.
    fn fairness_change(&self, outcome: &PairOutcome) -> Option<FairnessChange> {
        let key = pair_store_key(&outcome.contender, &outcome.incumbent, &outcome.setting);
        let previous = self
            .store
            .latest(kinds::PAIR, key)
            .filter(|r| r.schema == SPEC_SCHEMA_VERSION)?
            .decode::<PairRecord>()
            .ok()?;
        let change = FairnessChange {
            contender: outcome.contender.clone(),
            incumbent: outcome.incumbent.clone(),
            setting: outcome.setting.clone(),
            before: previous.outcome.incumbent_mmf_median,
            after: outcome.incumbent_mmf_median,
        };
        // A NaN share (a pair with no kept trials) never alerts.
        if change.relative_change() > self.config.watchdog.change_threshold {
            prudentia_obs::event!(
                prudentia_obs::Level::Info,
                "daemon",
                "fairness change",
                contender = change.contender.as_str(),
                incumbent = change.incumbent.as_str(),
                setting = change.setting.as_str(),
                before = change.before,
                after = change.after,
            );
            Some(change)
        } else {
            None
        }
    }

    fn exec_config(&self) -> ExecutorConfig {
        let wd = &self.config.watchdog;
        let mut exec = ExecutorConfig::new(wd.policy, wd.duration, wd.parallelism);
        if let Some(cache) = &self.cache {
            exec = exec.with_cache(Arc::clone(cache));
        }
        if let Some(metrics) = &wd.metrics {
            exec = exec.with_metrics(Arc::clone(metrics));
        }
        exec
    }

    fn append_pair(
        &mut self,
        cycle: u64,
        spec: &PairSpec,
        outcome: PairOutcome,
    ) -> Result<(), PrudentiaError> {
        let key = pair_store_key(
            spec.contender.name(),
            spec.incumbent.name(),
            &spec.setting.name,
        );
        let record = PairRecord {
            cycle,
            code_version: env!("CARGO_PKG_VERSION").to_string(),
            scenario: spec.setting.scenario.qdisc.kind().to_string(),
            first_trial_seed: trial_seed(
                spec.contender.name(),
                spec.incumbent.name(),
                &spec.setting.name,
                0,
            ),
            outcome,
        };
        let payload = Record::encode(kinds::PAIR, &record)?;
        self.store
            .append(kinds::PAIR, key, SPEC_SCHEMA_VERSION, payload)?;
        Ok(())
    }

    fn write_checkpoint(&mut self, c: &Checkpoint) -> Result<(), PrudentiaError> {
        let payload = Record::encode(kinds::CHECKPOINT, c)?;
        self.store.append(
            kinds::CHECKPOINT,
            checkpoint_key(),
            CHECKPOINT_SCHEMA_VERSION,
            payload,
        )?;
        Ok(())
    }

    fn save_cache(&self) {
        if let (Some(cache), Some(path)) = (&self.cache, &self.config.watchdog.cache_path) {
            if let Err(e) = cache.save(path) {
                eprintln!(
                    "warning: failed to save trial cache {}: {e}",
                    path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{DurationPolicy, TrialPolicy};
    use prudentia_apps::Service;
    use std::path::Path;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("prudentia_daemon_unit")
            .join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tiny_daemon(dir: &Path, max_pairs: Option<u64>) -> Daemon {
        let watchdog = WatchdogConfig {
            settings: vec![NetworkSetting::highly_constrained()],
            policy: TrialPolicy {
                min_trials: 2,
                batch: 1,
                max_trials: 2,
            },
            duration: DurationPolicy::Quick,
            parallelism: 4,
            change_threshold: 0.2,
            cache_path: None,
            metrics: None,
        };
        let config = DaemonConfig {
            watchdog,
            store_dir: dir.to_path_buf(),
            batch_pairs: 1,
            shard: None,
            max_pairs_per_run: max_pairs,
        };
        Daemon::open(
            vec![Service::IperfReno.spec(), Service::IperfCubic.spec()],
            config,
        )
        .expect("daemon opens")
    }

    #[test]
    fn full_cycle_records_all_pairs() {
        let dir = tmp("full");
        let mut d = tiny_daemon(&dir, None);
        let report = d.run_cycle().expect("cycle runs");
        assert!(report.completed());
        assert_eq!(report.pairs_total, 4);
        assert_eq!(report.pairs_executed, 4);
        let ckpt = d.latest_checkpoint().expect("checkpoint written");
        assert!(ckpt.completed);
        assert_eq!(ckpt.cycle, 1);
        assert!(d.freshness().iter().all(|f| f.tested_this_cycle));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_cycle_resumes_where_it_left_off() {
        let dir = tmp("resume");
        // Run to completion in one shot for the reference heatmap.
        let ref_dir = tmp("resume_ref");
        let mut reference = tiny_daemon(&ref_dir, None);
        reference.run_cycle().expect("reference cycle");
        let want = reference.heatmaps(HeatmapStat::MmfSharePct);

        // Now the same matrix, 1 pair per run: 4 interrupted runs + finish.
        let mut executed_total = 0;
        loop {
            let mut d = tiny_daemon(&dir, Some(1));
            let r = d.run_cycle().expect("capped cycle");
            executed_total += r.pairs_executed;
            assert!(r.pairs_executed <= 1);
            if r.completed() {
                break;
            }
            assert_eq!(r.pairs_already_done + r.pairs_executed, executed_total);
        }
        assert_eq!(executed_total, 4, "no pair ran twice across restarts");
        let d = tiny_daemon(&dir, None);
        let got = d.heatmaps(HeatmapStat::MmfSharePct);
        let render = |hs: &[(String, Heatmap)]| {
            hs.iter()
                .map(|(name, h)| format!("{name}\n{}", h.render_csv()))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            render(&got),
            render(&want),
            "resumed matrix must be byte-identical to the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    #[test]
    fn shutdown_flag_lands_on_batch_boundary() {
        let dir = tmp("shutdown");
        let mut d = tiny_daemon(&dir, None);
        d.shutdown_flag().request();
        let r = d.run_cycle().expect("interrupted cleanly");
        assert!(r.interrupted);
        assert_eq!(r.pairs_executed, 0);
        let ckpt = d.latest_checkpoint().expect("progress checkpoint");
        assert!(!ckpt.completed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flag_file_requests_shutdown() {
        let dir = tmp("flagfile");
        std::fs::create_dir_all(&dir).unwrap();
        let flag_path = dir.join("stop");
        let flag = ShutdownFlag::with_flag_file(&flag_path);
        assert!(!flag.is_requested());
        std::fs::write(&flag_path, "").unwrap();
        assert!(flag.is_requested());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_matrix_starts_a_new_cycle() {
        let dir = tmp("refingerprint");
        let mut d = tiny_daemon(&dir, Some(1));
        let r = d.run_cycle().expect("partial cycle");
        assert!(r.interrupted);
        drop(d);
        // Same store, different service set: must not resume cycle 1.
        let config = DaemonConfig {
            watchdog: WatchdogConfig {
                settings: vec![NetworkSetting::highly_constrained()],
                policy: TrialPolicy {
                    min_trials: 2,
                    batch: 1,
                    max_trials: 2,
                },
                duration: DurationPolicy::Quick,
                parallelism: 2,
                change_threshold: 0.2,
                cache_path: None,
                metrics: None,
            },
            store_dir: dir.to_path_buf(),
            batch_pairs: 1,
            shard: None,
            max_pairs_per_run: None,
        };
        let mut d = Daemon::open(vec![Service::IperfReno.spec()], config).unwrap();
        let r = d.run_cycle().expect("fresh cycle");
        assert!(r.completed());
        assert_eq!(r.cycle, 2, "fingerprint change opens a new cycle");
        std::fs::remove_dir_all(&dir).ok();
    }
}
