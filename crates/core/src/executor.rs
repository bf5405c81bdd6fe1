//! Work-stealing trial pool (the execution layer behind the §3.4
//! scheduler).
//!
//! The previous implementation ran trials in *waves*: every pair
//! contributed its deficit to a work list, all workers drained it, and
//! only then were stopping rules evaluated. That barrier left workers
//! idle at the end of every wave and kept issuing trials for pairs whose
//! confidence interval had already collapsed. This module replaces it
//! with a continuously-fed pool:
//!
//! - workers claim one trial at a time, round-robin across pairs, so all
//!   workers stay busy until the whole matrix is done;
//! - each pair's 95% median-CI stopping rule is re-evaluated *as trials
//!   land*, at every kept-trial count from `min_trials` upward, so a
//!   converged pair stops issuing work immediately instead of at the
//!   next wave boundary;
//! - the paper's discard-and-replace rule for high-external-loss trials
//!   (§3.4) issues the replacement trial at once without stalling other
//!   pairs.
//!
//! # Determinism
//!
//! Outcomes are byte-identical regardless of worker count, completion
//! timing, and cache state. Every trial's seed comes from
//! [`crate::scheduler::trial_seed`] applied to the pair identity and a
//! per-pair monotonic index (discarded trials consume an index, so the
//! replacement's seed is the same whether the discard was noticed early
//! or late). All *decisions* — extend, converge, discard-and-replace,
//! give up at the safety valve — are functions of trial results folded
//! in index order behind a contiguous frontier, never of completion
//! order. A worker may speculatively execute an index the single-threaded
//! schedule would not have reached; such trials are simply ignored by the
//! fold, so they cost wall time but cannot change results.

use crate::cache::{trial_key, TrialCache};
use crate::error::PrudentiaError;
use crate::experiment::ExperimentResult;
use crate::runner::run_experiment_observed;
use crate::scheduler::{
    summarize_pair, trial_seed, DurationPolicy, PairOutcome, PairSpec, TrialPolicy,
};
use prudentia_obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// TURBOTEST-style adaptive trial budget: stop a pair's trials early
/// once the already-kept samples pin the median MmF share of *both*
/// sides inside one verdict band for every reachable continuation up to
/// `max_trials` (see [`prudentia_stats::verdict_locked`]). The rule is
/// sound by construction — an adaptive run reports the same band as the
/// exhaustive run on every pair — which `tests/differential_campaign.rs`
/// re-proves end to end.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveBudget {
    /// Ascending interior edges of the verdict bands on median MmF
    /// share (e.g. `[0.25, 0.75, 1.25]`).
    pub band_edges: Vec<f64>,
}

/// Configuration for one [`execute_pairs`] run.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Trial-count policy (min / extension / max).
    pub policy: TrialPolicy,
    /// Experiment length policy.
    pub duration: DurationPolicy,
    /// Worker threads (clamped to at least 1).
    pub parallelism: usize,
    /// External (upstream) loss injected into every trial; trials whose
    /// measured external loss exceeds the §3.4 threshold are discarded
    /// and replaced.
    pub external_loss: f64,
    /// Optional memo table: trials found here skip simulation entirely.
    pub cache: Option<Arc<TrialCache>>,
    /// Optional metrics registry fed with executor and simulator
    /// telemetry (steals, idle time, cache latency, queue depths).
    /// Purely observational: attaching one cannot change outcomes.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Optional early-termination rule. `None` runs the exhaustive §3.4
    /// policy unchanged.
    pub adaptive: Option<AdaptiveBudget>,
    /// Optional attribution label (a campaign cell fingerprint) woven
    /// into validation errors, so a bad policy inside a thousand-cell
    /// grid names the cell that produced it.
    pub context: Option<String>,
}

impl ExecutorConfig {
    /// A config with no external loss and no cache.
    pub fn new(policy: TrialPolicy, duration: DurationPolicy, parallelism: usize) -> Self {
        ExecutorConfig {
            policy,
            duration,
            parallelism,
            external_loss: 0.0,
            cache: None,
            metrics: None,
            adaptive: None,
            context: None,
        }
    }

    /// Attach a trial cache.
    pub fn with_cache(mut self, cache: Arc<TrialCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach a metrics registry.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Enable the adaptive early-termination rule.
    pub fn with_adaptive(mut self, adaptive: AdaptiveBudget) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// Attach an attribution label for validation errors.
    pub fn with_context(mut self, context: impl Into<String>) -> Self {
        self.context = Some(context.into());
        self
    }

    /// Start a builder (validated construction; see
    /// [`ExecutorConfigBuilder`]).
    pub fn builder() -> ExecutorConfigBuilder {
        ExecutorConfigBuilder {
            config: ExecutorConfig::new(TrialPolicy::default(), DurationPolicy::Paper, 1),
        }
    }

    /// Check the config against the executor's requirements: at least
    /// one worker, a satisfiable trial policy, well-formed adaptive band
    /// edges, and an external-loss probability (not a percentage).
    ///
    /// When [`context`](Self::context) is set (a campaign cell
    /// fingerprint), every error names it, so a bad policy inside a
    /// large grid is attributable to the offending cell.
    pub fn validate(&self) -> Result<(), PrudentiaError> {
        self.validate_message().map_err(|msg| match &self.context {
            Some(ctx) => PrudentiaError::InvalidConfig(format!("{msg} (in {ctx})")),
            None => PrudentiaError::InvalidConfig(msg),
        })
    }

    fn validate_message(&self) -> Result<(), String> {
        let p = self.policy;
        if p.min_trials == 0 || p.batch == 0 || p.max_trials == 0 {
            return Err(format!(
                "trial policy counts must be >= 1 (min {}, batch {}, max {})",
                p.min_trials, p.batch, p.max_trials
            ));
        }
        if p.min_trials > p.max_trials {
            return Err(format!(
                "trial policy min_trials {} exceeds max_trials {}",
                p.min_trials, p.max_trials
            ));
        }
        if self.parallelism == 0 {
            return Err("parallelism must be >= 1".to_string());
        }
        if !(0.0..1.0).contains(&self.external_loss) {
            return Err(format!(
                "external loss must be a probability in [0, 1), got {}",
                self.external_loss
            ));
        }
        if let Some(a) = &self.adaptive {
            if a.band_edges.is_empty() {
                return Err("adaptive budget needs at least one band edge".to_string());
            }
            if !a.band_edges.windows(2).all(|w| w[0] < w[1])
                || a.band_edges.iter().any(|e| !e.is_finite())
            {
                return Err(format!(
                    "adaptive band edges must be finite and strictly ascending, got {:?}",
                    a.band_edges
                ));
            }
        }
        Ok(())
    }
}

/// Builder for [`ExecutorConfig`]; `build()` validates so a daemon
/// rejects a bad config at startup instead of mid-matrix.
#[derive(Debug, Clone)]
pub struct ExecutorConfigBuilder {
    config: ExecutorConfig,
}

impl ExecutorConfigBuilder {
    /// Set the trial-count policy.
    pub fn policy(mut self, policy: TrialPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Set the experiment length policy.
    pub fn duration(mut self, duration: DurationPolicy) -> Self {
        self.config.duration = duration;
        self
    }

    /// Set the worker-thread count.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.config.parallelism = workers;
        self
    }

    /// Set the injected external-loss probability.
    pub fn external_loss(mut self, loss: f64) -> Self {
        self.config.external_loss = loss;
        self
    }

    /// Attach a trial cache.
    pub fn cache(mut self, cache: Arc<TrialCache>) -> Self {
        self.config.cache = Some(cache);
        self
    }

    /// Attach a metrics registry.
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.config.metrics = Some(metrics);
        self
    }

    /// Enable the adaptive early-termination rule.
    pub fn adaptive(mut self, adaptive: AdaptiveBudget) -> Self {
        self.config.adaptive = Some(adaptive);
        self
    }

    /// Attach an attribution label for validation errors.
    pub fn context(mut self, context: impl Into<String>) -> Self {
        self.config.context = Some(context.into());
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ExecutorConfig, PrudentiaError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Per-pair telemetry from one run.
#[derive(Debug, Clone)]
pub struct PairStats {
    /// Contender display name.
    pub contender: String,
    /// Incumbent display name.
    pub incumbent: String,
    /// Setting name.
    pub setting: String,
    /// Kept trials in the final outcome (trials-to-convergence when
    /// `converged`, otherwise how far the pair got).
    pub kept_trials: usize,
    /// Whether the CI stopping rule was satisfied.
    pub converged: bool,
    /// Whether the adaptive budget stopped the pair early: the verdict
    /// band was locked before the CI rule converged or the cap was hit.
    pub locked_early: bool,
    /// Trials discarded for excessive external loss (each was replaced).
    pub discarded: usize,
    /// Trials served from the cache.
    pub cache_hits: usize,
}

/// Aggregate telemetry for one [`execute_pairs`] run, printed by the
/// watchdog binary.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Trials actually simulated.
    pub trials_run: usize,
    /// Trials served from the cache (no simulation).
    pub trials_cached: usize,
    /// Trials discarded for excessive external loss.
    pub trials_discarded: usize,
    /// Simulator events processed across all executed trials.
    pub sim_events: u64,
    /// Simulated seconds across all executed trials.
    pub sim_secs: f64,
    /// Sum of per-trial wall times (executed trials only).
    pub trial_wall_total: Duration,
    /// Slowest single trial.
    pub trial_wall_max: Duration,
    /// Per-pair breakdown, in input order.
    pub pairs: Vec<PairStats>,
}

impl SchedulerStats {
    /// Fold in the telemetry of a later run, as if both had been one
    /// run executed back to back (the daemon runs a cycle in batches).
    pub fn absorb(&mut self, later: SchedulerStats) {
        self.wall += later.wall;
        self.trials_run += later.trials_run;
        self.trials_cached += later.trials_cached;
        self.trials_discarded += later.trials_discarded;
        self.sim_events += later.sim_events;
        self.sim_secs += later.sim_secs;
        self.trial_wall_total += later.trial_wall_total;
        self.trial_wall_max = self.trial_wall_max.max(later.trial_wall_max);
        self.pairs.extend(later.pairs);
    }

    /// Executed + cached trials that reached the fold.
    pub fn trials_total(&self) -> usize {
        self.trials_run + self.trials_cached
    }

    /// Fraction of trials served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.trials_total();
        if total == 0 {
            0.0
        } else {
            self.trials_cached as f64 / total as f64
        }
    }

    /// Mean wall time per executed trial.
    pub fn mean_trial_wall(&self) -> Duration {
        if self.trials_run == 0 {
            Duration::ZERO
        } else {
            self.trial_wall_total / self.trials_run as u32
        }
    }

    /// Simulated seconds per wall second (the simulator's speedup over
    /// real time; >1 means faster than the testbed it models).
    pub fn sim_rate(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w == 0.0 {
            0.0
        } else {
            self.sim_secs / w
        }
    }

    /// Simulator events processed per wall second.
    pub fn events_per_sec(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w == 0.0 {
            0.0
        } else {
            self.sim_events as f64 / w
        }
    }

    /// Pairs whose stopping rule was satisfied.
    pub fn converged_pairs(&self) -> usize {
        self.pairs.iter().filter(|p| p.converged).count()
    }
}

impl std::fmt::Display for SchedulerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "executor: {} pairs in {:.2?} wall ({}/{} converged)",
            self.pairs.len(),
            self.wall,
            self.converged_pairs(),
            self.pairs.len(),
        )?;
        writeln!(
            f,
            "  trials: {} simulated, {} cached (hit rate {:.0}%), {} discarded+replaced",
            self.trials_run,
            self.trials_cached,
            self.cache_hit_rate() * 100.0,
            self.trials_discarded,
        )?;
        writeln!(
            f,
            "  sim: {} events ({:.2e}/s), {:.0} sim-secs ({:.0}x realtime)",
            self.sim_events,
            self.events_per_sec(),
            self.sim_secs,
            self.sim_rate(),
        )?;
        writeln!(
            f,
            "  per-trial wall: mean {:.2?}, max {:.2?}",
            self.mean_trial_wall(),
            self.trial_wall_max,
        )?;
        for p in &self.pairs {
            writeln!(
                f,
                "  {} vs {} @ {}: {} trials{}{}{}",
                p.contender,
                p.incumbent,
                p.setting,
                p.kept_trials,
                if p.converged {
                    ""
                } else if p.locked_early {
                    " (verdict locked early)"
                } else {
                    " (unconverged)"
                },
                if p.discarded > 0 {
                    format!(", {} discarded", p.discarded)
                } else {
                    String::new()
                },
                if p.cache_hits > 0 {
                    format!(", {} cached", p.cache_hits)
                } else {
                    String::new()
                },
            )?;
        }
        Ok(())
    }
}

/// Progress of one pair inside the pool.
struct PairRun {
    tolerance: f64,
    /// Next fresh trial index (monotonic; discards consume indices).
    next_index: usize,
    /// Trials claimed but not yet recorded.
    inflight: usize,
    /// Completions ahead of the frontier; `None` marks a discard.
    pending: BTreeMap<usize, Option<ExperimentResult>>,
    /// First index not yet folded: everything below is in `kept` or was
    /// discarded.
    frontier: usize,
    /// Kept trials in index order.
    kept: Vec<ExperimentResult>,
    /// Next kept-trial count at which the stopping rule is checked.
    eval_count: usize,
    done: bool,
    converged: bool,
    /// The adaptive budget ended the pair before the CI rule did.
    locked: bool,
    /// Kept trials that form the outcome once `done`.
    final_count: usize,
    discarded: usize,
    cache_hits: usize,
    executed: usize,
}

/// Telemetry from one executed (not cached) trial.
struct TrialCost {
    wall: Duration,
    sim_events: u64,
    sim_secs: f64,
}

struct Shared {
    runs: Vec<PairRun>,
    /// Round-robin claim cursor: preserves the paper's interleaving of
    /// trials across pairs.
    rr: usize,
    done_count: usize,
    trials_run: usize,
    trials_cached: usize,
    sim_events: u64,
    sim_secs: f64,
    trial_wall_total: Duration,
    trial_wall_max: Duration,
}

impl Shared {
    /// Claim the next trial, scanning pairs round-robin from the cursor.
    /// A pair may issue while its kept + optimistically-counted inflight
    /// trials are short of the current stopping-rule checkpoint and the
    /// safety valve has room. The returned flag marks a *steal*: the
    /// cursor's own pair had nothing issuable and the claim skipped ahead
    /// to another pair's work.
    fn claim(&mut self, index_cap: usize) -> Option<(usize, usize, bool)> {
        let n = self.runs.len();
        for off in 0..n {
            let p = (self.rr + off) % n;
            let run = &mut self.runs[p];
            if run.done || run.next_index >= index_cap {
                continue;
            }
            let credit = run.kept.len()
                + run.pending.values().filter(|v| v.is_some()).count()
                + run.inflight;
            if credit < run.eval_count {
                let idx = run.next_index;
                run.next_index += 1;
                run.inflight += 1;
                self.rr = (p + 1) % n;
                return Some((p, idx, off > 0));
            }
        }
        None
    }

    /// Record a completion: fold the contiguous frontier, replay the
    /// stopping rule at every kept count it reaches, and finalize at the
    /// safety valve once nothing is left in flight. Decisions depend only
    /// on results in index order, so completion timing is irrelevant.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        pair: usize,
        index: usize,
        result: ExperimentResult,
        cost: Option<TrialCost>,
        policy: TrialPolicy,
        index_cap: usize,
        adaptive: Option<&AdaptiveBudget>,
    ) {
        if let Some(c) = cost {
            self.trials_run += 1;
            self.sim_events += c.sim_events;
            self.sim_secs += c.sim_secs;
            self.trial_wall_total += c.wall;
            self.trial_wall_max = self.trial_wall_max.max(c.wall);
        } else {
            self.trials_cached += 1;
        }
        let run = &mut self.runs[pair];
        run.inflight -= 1;
        if run.done {
            // A speculative straggler for a pair that already converged;
            // its telemetry is counted, its result ignored.
            return;
        }
        if result.discarded {
            run.discarded += 1;
            run.pending.insert(index, None);
        } else {
            run.pending.insert(index, Some(result));
        }

        while let Some(folded) = run.pending.remove(&run.frontier) {
            run.frontier += 1;
            if let Some(r) = folded {
                run.kept.push(r);
            }
        }

        let max_trials = policy.max_trials.max(1);
        while !run.done && run.kept.len() >= run.eval_count {
            let upto = &run.kept[..run.eval_count];
            let inc: Vec<f64> = upto.iter().map(|t| t.incumbent.throughput_bps).collect();
            let con: Vec<f64> = upto.iter().map(|t| t.contender.throughput_bps).collect();
            if prudentia_stats::median_ci_within(&inc, run.tolerance)
                && prudentia_stats::median_ci_within(&con, run.tolerance)
            {
                run.done = true;
                run.converged = true;
                run.final_count = run.eval_count;
            } else if run.eval_count >= max_trials {
                run.done = true;
                run.final_count = max_trials;
            } else if adaptive.is_some_and(|a| {
                // TURBOTEST-style lock: stop once no continuation up to
                // max_trials can move either side's median MmF share out
                // of its verdict band. The base CI rule ran first, so an
                // adaptive run stops no later — and with the same verdict
                // band — as the exhaustive run (the kept-trial fold is
                // identical up to this point by seed determinism).
                let inc_share: Vec<f64> = upto.iter().map(|t| t.incumbent.mmf_share).collect();
                let con_share: Vec<f64> = upto.iter().map(|t| t.contender.mmf_share).collect();
                prudentia_stats::verdict_locked(&inc_share, max_trials, &a.band_edges)
                    && prudentia_stats::verdict_locked(&con_share, max_trials, &a.band_edges)
            }) {
                run.done = true;
                run.locked = true;
                run.final_count = run.eval_count;
            } else {
                run.eval_count += 1;
            }
        }

        // Safety valve (§3.4 pathological external loss): the index
        // budget is spent and everything issued has landed — give up
        // with whatever was kept.
        if !run.done && run.next_index >= index_cap && run.inflight == 0 {
            debug_assert!(run.pending.is_empty());
            run.done = true;
            run.final_count = run.kept.len().min(max_trials);
        }

        if run.done {
            self.done_count += 1;
        }
    }
}

/// Run every pair to completion on a continuously-fed worker pool and
/// return outcomes (in input order) plus run telemetry.
///
/// Fails fast — before any trial is issued — if the config does not
/// [validate](ExecutorConfig::validate) or a pair's setting is
/// malformed, so a daemon cannot burn a matrix worth of simulation on a
/// config typo.
pub fn execute_pairs(
    pairs: &[PairSpec],
    config: &ExecutorConfig,
) -> Result<(Vec<PairOutcome>, SchedulerStats), PrudentiaError> {
    config.validate()?;
    for p in pairs {
        if !p.setting.rate_bps.is_finite() || p.setting.rate_bps <= 0.0 {
            return Err(PrudentiaError::InvalidConfig(format!(
                "setting '{}' has non-positive rate {} bps",
                p.setting.name, p.setting.rate_bps
            )));
        }
    }
    let t0 = Instant::now();
    prudentia_obs::event!(
        prudentia_obs::Level::Debug,
        "executor",
        "run started",
        pairs = pairs.len() as u64,
        parallelism = config.parallelism as u64,
    );
    let policy = config.policy;
    let adaptive = config.adaptive.as_ref();
    // Same valve as the sequential scheduler: at most 4x max_trials
    // indices per pair, so pathological external loss terminates.
    let index_cap = policy.max_trials.max(1) * 4;
    let shared = Mutex::new(Shared {
        runs: pairs
            .iter()
            .map(|p| PairRun {
                tolerance: p.setting.ci_tolerance_bps(),
                next_index: 0,
                inflight: 0,
                pending: BTreeMap::new(),
                frontier: 0,
                kept: Vec::new(),
                eval_count: policy.min_trials.max(1).min(policy.max_trials.max(1)),
                done: false,
                converged: false,
                locked: false,
                final_count: 0,
                discarded: 0,
                cache_hits: 0,
                executed: 0,
            })
            .collect(),
        rr: 0,
        done_count: 0,
        trials_run: 0,
        trials_cached: 0,
        sim_events: 0,
        sim_secs: 0.0,
        trial_wall_total: Duration::ZERO,
        trial_wall_max: Duration::ZERO,
    });
    let condvar = Condvar::new();
    let workers = config.parallelism.max(1);
    let metrics = config.metrics.as_deref();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Handles are hoisted out of the claim/run loop: each is a
                // cheap Arc clone and updating one never touches the
                // executor's shared state, so telemetry cannot reorder
                // claims or results.
                let steals = metrics.map(|r| r.counter("executor/steals"));
                let idle_ns = metrics.map(|r| r.histogram("executor/idle_ns"));
                let trial_wall_ns = metrics.map(|r| r.histogram("executor/trial_wall_ns"));
                let cache_hits = metrics.map(|r| r.counter("cache/hits"));
                let cache_misses = metrics.map(|r| r.counter("cache/misses"));
                let cache_lookup_ns = metrics.map(|r| r.histogram("cache/lookup_ns"));
                loop {
                    let claim = {
                        let mut guard = shared.lock().expect("poisoned");
                        loop {
                            if guard.done_count == guard.runs.len() {
                                break None;
                            }
                            if let Some(c) = guard.claim(index_cap) {
                                break Some(c);
                            }
                            // Nothing issuable: some other worker's inflight
                            // trial will land and wake us.
                            let waited = Instant::now();
                            guard = condvar.wait(guard).expect("poisoned");
                            if let Some(h) = &idle_ns {
                                h.record(waited.elapsed().as_nanos() as f64);
                            }
                        }
                    };
                    let Some((p, index, stole)) = claim else {
                        break;
                    };
                    if stole {
                        if let Some(c) = &steals {
                            c.inc();
                        }
                    }

                    let pair = &pairs[p];
                    let seed = trial_seed(
                        pair.contender.name(),
                        pair.incumbent.name(),
                        &pair.setting.name,
                        index,
                    );
                    let mut spec = config.duration.spec(
                        pair.contender.clone(),
                        pair.incumbent.clone(),
                        pair.setting.clone(),
                        seed,
                    );
                    spec.external_loss = config.external_loss;

                    let key = config.cache.as_ref().map(|c| (c, trial_key(&spec)));
                    let cached = match &key {
                        Some((c, k)) => {
                            let lookup = Instant::now();
                            let hit = c.lookup(*k);
                            if let Some(h) = &cache_lookup_ns {
                                h.record(lookup.elapsed().as_nanos() as f64);
                            }
                            if let Some(c) = if hit.is_some() {
                                &cache_hits
                            } else {
                                &cache_misses
                            } {
                                c.inc();
                            }
                            hit
                        }
                        None => None,
                    };
                    let from_cache = cached.is_some();
                    let (result, cost) = match cached {
                        Some(r) => (r, None),
                        None => {
                            let start = Instant::now();
                            let (r, sim_events) = run_experiment_observed(&spec, metrics);
                            let wall = start.elapsed();
                            if let Some(h) = &trial_wall_ns {
                                h.record(wall.as_nanos() as f64);
                            }
                            let cost = TrialCost {
                                wall,
                                sim_events,
                                sim_secs: spec.duration.as_secs_f64(),
                            };
                            if let Some((c, k)) = &key {
                                c.insert(*k, r.clone());
                            }
                            (r, Some(cost))
                        }
                    };

                    let mut guard = shared.lock().expect("poisoned");
                    if from_cache {
                        guard.runs[p].cache_hits += 1;
                    } else {
                        guard.runs[p].executed += 1;
                    }
                    guard.record(p, index, result, cost, policy, index_cap, adaptive);
                    drop(guard);
                    condvar.notify_all();
                }
            });
        }
    });

    let shared = shared.into_inner().expect("poisoned");
    let mut outcomes = Vec::with_capacity(pairs.len());
    let mut pair_stats = Vec::with_capacity(pairs.len());
    let mut trials_discarded = 0;
    for (pair, run) in pairs.iter().zip(shared.runs) {
        let trials: Vec<ExperimentResult> = run.kept[..run.final_count].to_vec();
        trials_discarded += run.discarded;
        if let Some(reg) = metrics {
            if run.converged {
                reg.histogram("executor/trials_to_convergence")
                    .record(run.final_count as f64);
            }
            if run.locked {
                reg.counter("executor/verdicts_locked_early").inc();
                reg.histogram("executor/trials_saved_by_lock")
                    .record((policy.max_trials.max(1) - run.final_count) as f64);
            }
            // CI-width trajectory: the half-width of the incumbent's 95%
            // median-throughput CI at every kept count the stopping rule
            // evaluated — how fast each pair's uncertainty collapsed.
            let inc: Vec<f64> = trials.iter().map(|t| t.incumbent.throughput_bps).collect();
            let ci_width = reg.histogram("executor/ci_halfwidth_bps");
            let min_eval = policy.min_trials.max(1).min(policy.max_trials.max(1));
            for k in min_eval..=inc.len() {
                ci_width.record(prudentia_stats::median_ci(&inc[..k], 0.95).half_width());
            }
        }
        pair_stats.push(PairStats {
            contender: pair.contender.name().to_string(),
            incumbent: pair.incumbent.name().to_string(),
            setting: pair.setting.name.clone(),
            kept_trials: run.final_count,
            converged: run.converged,
            locked_early: run.locked,
            discarded: run.discarded,
            cache_hits: run.cache_hits,
        });
        outcomes.push(summarize_pair(
            &pair.contender,
            &pair.incumbent,
            &pair.setting,
            trials,
            run.converged,
        ));
    }
    let stats = SchedulerStats {
        wall: t0.elapsed(),
        trials_run: shared.trials_run,
        trials_cached: shared.trials_cached,
        trials_discarded,
        sim_events: shared.sim_events,
        sim_secs: shared.sim_secs,
        trial_wall_total: shared.trial_wall_total,
        trial_wall_max: shared.trial_wall_max,
        pairs: pair_stats,
    };
    if let Some(reg) = metrics {
        reg.counter("executor/trials_run")
            .add(stats.trials_run as u64);
        reg.counter("executor/trials_cached")
            .add(stats.trials_cached as u64);
        reg.counter("executor/trials_discarded")
            .add(stats.trials_discarded as u64);
        reg.gauge("executor/cache_hit_rate")
            .set(stats.cache_hit_rate());
        // Rate gauges are last-write-wins; a fully-cached replay ran no
        // simulation, so keep the last meaningful measurement instead of
        // overwriting it with zero.
        if stats.trials_run > 0 {
            reg.gauge("executor/events_per_sec")
                .set(stats.events_per_sec());
            reg.gauge("executor/sim_rate").set(stats.sim_rate());
        }
    }
    prudentia_obs::event!(
        prudentia_obs::Level::Info,
        "executor",
        "run complete",
        pairs = pairs.len() as u64,
        trials_run = stats.trials_run as u64,
        trials_cached = stats.trials_cached as u64,
        trials_discarded = stats.trials_discarded as u64,
        wall_ms = stats.wall.as_millis() as u64,
    );
    Ok((outcomes, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkSetting;
    use prudentia_apps::Service;

    fn pair(a: Service, b: Service) -> PairSpec {
        PairSpec {
            contender: a.spec(),
            incumbent: b.spec(),
            setting: NetworkSetting::highly_constrained(),
        }
    }

    fn tiny_policy() -> TrialPolicy {
        TrialPolicy {
            min_trials: 2,
            batch: 1,
            max_trials: 3,
        }
    }

    #[test]
    fn outcomes_in_input_order_with_stats() {
        let pairs = vec![
            pair(Service::IperfCubic, Service::IperfReno),
            pair(Service::IperfReno, Service::IperfCubic),
        ];
        let cfg = ExecutorConfig::new(tiny_policy(), DurationPolicy::Quick, 4);
        let (outcomes, stats) = execute_pairs(&pairs, &cfg).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].contender, "iPerf (Cubic)");
        assert_eq!(outcomes[1].contender, "iPerf (Reno)");
        assert_eq!(stats.pairs.len(), 2);
        assert_eq!(stats.trials_cached, 0);
        assert!(stats.trials_run >= 4, "at least min trials per pair");
        assert!(stats.sim_events > 0);
        assert!(stats.sim_secs > 0.0);
        assert!(stats.trial_wall_max >= stats.mean_trial_wall());
        // max 3 < 6 samples: the order-statistic CI can never tighten.
        assert!(outcomes.iter().all(|o| !o.converged));
        assert_eq!(stats.converged_pairs(), 0);
    }

    #[test]
    fn cache_warm_run_skips_simulation() {
        let pairs = vec![pair(Service::IperfCubic, Service::IperfReno)];
        let cache = Arc::new(TrialCache::new());
        let cfg = ExecutorConfig::new(tiny_policy(), DurationPolicy::Quick, 2)
            .with_cache(Arc::clone(&cache));
        let (cold, cold_stats) = execute_pairs(&pairs, &cfg).unwrap();
        assert!(cold_stats.trials_run > 0);
        let (warm, warm_stats) = execute_pairs(&pairs, &cfg).unwrap();
        assert_eq!(warm_stats.trials_run, 0, "all trials memoized");
        assert!(warm_stats.cache_hit_rate() > 0.99);
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "cache state must not change results"
        );
    }

    #[test]
    fn external_loss_triggers_discard_and_replace() {
        let pairs = vec![pair(Service::IperfCubic, Service::IperfReno)];
        let mut cfg = ExecutorConfig::new(tiny_policy(), DurationPolicy::Quick, 2);
        cfg.external_loss = 0.01; // 1% >> the 0.05% discard threshold
        let (outcomes, stats) = execute_pairs(&pairs, &cfg).unwrap();
        // Every trial is discarded; the valve caps index issue at 4x max.
        assert_eq!(outcomes[0].trials.len(), 0);
        assert!(!outcomes[0].converged);
        assert_eq!(stats.trials_discarded, tiny_policy().max_trials * 4);
    }

    #[test]
    fn display_is_printable() {
        let pairs = vec![pair(Service::IperfCubic, Service::IperfReno)];
        let cfg = ExecutorConfig::new(tiny_policy(), DurationPolicy::Quick, 1);
        let (_, stats) = execute_pairs(&pairs, &cfg).unwrap();
        let text = stats.to_string();
        assert!(text.contains("executor: 1 pairs"));
        assert!(text.contains("per-trial wall"));
    }

    #[test]
    fn validation_errors_name_the_campaign_cell() {
        let bad = TrialPolicy {
            min_trials: 5,
            batch: 1,
            max_trials: 3,
        };
        let plain = ExecutorConfig::new(bad, DurationPolicy::Quick, 1);
        let msg = plain.validate().unwrap_err().to_string();
        assert!(msg.contains("min_trials 5 exceeds max_trials 3"), "{msg}");
        assert!(!msg.contains("(in "), "no context requested: {msg}");

        let attributed = ExecutorConfig::new(bad, DurationPolicy::Quick, 1)
            .with_context("campaign cell deadbeefdeadbeef");
        let msg = attributed.validate().unwrap_err().to_string();
        assert!(
            msg.contains("min_trials 5 exceeds max_trials 3")
                && msg.contains("(in campaign cell deadbeefdeadbeef)"),
            "context must be woven into the error: {msg}"
        );

        let bad_edges = ExecutorConfig::new(tiny_policy(), DurationPolicy::Quick, 1)
            .with_adaptive(AdaptiveBudget {
                band_edges: vec![0.75, 0.25],
            })
            .with_context("campaign cell 0000000000000001");
        let msg = bad_edges.validate().unwrap_err().to_string();
        assert!(
            msg.contains("strictly ascending") && msg.contains("0000000000000001"),
            "{msg}"
        );
    }

    #[test]
    fn adaptive_budget_never_exceeds_exhaustive_trials_or_flips_verdicts() {
        // Parallelism 1 so both runs execute the exact sequential trial
        // schedule and the trial-count comparison is strict.
        let pairs = vec![
            pair(Service::IperfCubic, Service::IperfReno),
            pair(Service::IperfCubic, Service::IperfCubic),
        ];
        let policy = TrialPolicy {
            min_trials: 2,
            batch: 1,
            max_trials: 6,
        };
        let base = ExecutorConfig::new(policy, DurationPolicy::Quick, 1);
        let (full, full_stats) = execute_pairs(&pairs, &base).unwrap();
        let adaptive =
            ExecutorConfig::new(policy, DurationPolicy::Quick, 1).with_adaptive(AdaptiveBudget {
                band_edges: crate::campaign::VerdictBand::EDGES.to_vec(),
            });
        let (fast, fast_stats) = execute_pairs(&pairs, &adaptive).unwrap();
        assert!(fast_stats.trials_run <= full_stats.trials_run);
        for (f, a) in full.iter().zip(&fast) {
            assert!(a.trials.len() <= f.trials.len(), "{}", f.contender);
            for (fs, as_) in [
                (f.contender_mmf_median, a.contender_mmf_median),
                (f.incumbent_mmf_median, a.incumbent_mmf_median),
            ] {
                assert_eq!(
                    crate::campaign::VerdictBand::of(fs),
                    crate::campaign::VerdictBand::of(as_),
                    "adaptive budget flipped {} vs {}",
                    f.contender,
                    f.incumbent
                );
            }
        }
    }
}
