//! `watch-bulk-8m`: cold watchdog cycles, as `prudentia watch --store
//! --cache` runs them, over all 16 pairs of iPerf-Reno/Cubic/BBR/BBR-4.15
//! at the paper's 8 Mbps drop-tail setting, parallelism 2.

use crate::recon::{self, CcLedger, TrialInput};
use crate::trace::{Tracer, IDLE};
use crate::{expected, median, setup_time, Args, Checks, Metrics, Report, WorkDir};
use prudentia_apps::{Service, ServiceSpec};
use prudentia_core::daemon::PairRecord;
use prudentia_core::{
    pair_store_key, trial_seed, Daemon, DaemonConfig, DurationPolicy, HeatmapStat, MetricsRegistry,
    NetworkSetting, TrialCache, TrialPolicy, WatchdogConfig,
};
use prudentia_store::kinds;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "watch-bulk-8m";
const WORKERS: usize = 2;

fn services() -> Vec<ServiceSpec> {
    [
        Service::IperfReno,
        Service::IperfCubic,
        Service::IperfBbr,
        Service::IperfBbr415,
    ]
    .map(Service::spec)
    .to_vec()
}

/// The 8 Mbps setting, named after the input variant: the name is what
/// `trial_seed` hashes, so it selects the trial seeds.
fn setting(variant: u64) -> NetworkSetting {
    let mut s = NetworkSetting::highly_constrained();
    s.name = format!("{} #{variant:02}", s.name);
    s
}

fn open_daemon(
    store: &Path,
    cache: &Path,
    variant: u64,
    metrics: Option<Arc<MetricsRegistry>>,
) -> Daemon {
    let mut builder = WatchdogConfig::builder()
        .settings(vec![setting(variant)])
        .policy(TrialPolicy::quick())
        .duration(DurationPolicy::Quick)
        .parallelism(WORKERS)
        .change_threshold(0.2)
        .cache_path(cache);
    if let Some(m) = metrics {
        builder = builder.metrics(m);
    }
    let mut config = DaemonConfig::new(store);
    config.watchdog = builder.build().expect("valid watchdog config");
    Daemon::open(services(), config).expect("open daemon")
}

/// What a finished cycle left in the store.
struct Outputs {
    /// FNV-1a over the four heatmap CSVs, each under the `#` header
    /// `/heatmap.csv` puts on the MmF one.
    heatmap_fnv: u64,
    kept_trials: u64,
    complete: bool,
}

fn outputs(daemon: &Daemon, variant: u64) -> Outputs {
    let mut csv = String::new();
    for stat in [
        HeatmapStat::MmfSharePct,
        HeatmapStat::UtilizationPct,
        HeatmapStat::LossRatePct,
        HeatmapStat::QueueingDelayMs,
    ] {
        for (name, heatmap) in daemon.heatmaps(stat) {
            csv.push_str(&format!("# {name} — {}\n", stat.title()));
            csv.push_str(&heatmap.render_csv());
        }
    }
    let setting = setting(variant);
    let mut kept = 0u64;
    let mut complete = true;
    for a in services() {
        for b in services() {
            let key = pair_store_key(a.name(), b.name(), &setting.name);
            match daemon
                .store()
                .latest(kinds::PAIR, key)
                .and_then(|r| r.decode::<PairRecord>().ok())
            {
                Some(rec) => kept += rec.outcome.trials.len() as u64,
                None => complete = false,
            }
        }
    }
    Outputs {
        heatmap_fnv: prudentia_store::fnv1a_key(&[&csv]),
        kept_trials: kept,
        complete,
    }
}

/// Run one cold cycle into a fresh store and cache file.
fn cold_cycle(
    work: &WorkDir,
    tag: &str,
    variant: u64,
    metrics: Option<Arc<MetricsRegistry>>,
) -> (Daemon, f64, Outputs) {
    let store = work.path(&format!("store-{tag}"));
    let cache = work.path(&format!("cache-{tag}.json"));
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&cache).ok();
    let mut daemon = open_daemon(&store, &cache, variant, metrics);
    let t = Instant::now();
    let report = daemon.run_cycle().expect("watch cycle");
    let wall = t.elapsed().as_secs_f64();
    let mut out = outputs(&daemon, variant);
    out.complete &= report.completed() && report.pairs_executed == 16;
    (daemon, wall, out)
}

fn check(checks: &mut Checks, variant: u64, out: &Outputs, events: Option<u64>) {
    let pin = |k: &str| expected(WORKLOAD, variant, k);
    let mut problems = Vec::new();
    if !out.complete {
        problems.push("cycle incomplete".to_string());
    }
    if Some(out.heatmap_fnv) != pin("heatmap_fnv") {
        problems.push(format!("heatmap digest {:016x}", out.heatmap_fnv));
    }
    if Some(out.kept_trials) != pin("kept_trials") {
        problems.push(format!("kept trials {}", out.kept_trials));
    }
    if let Some(e) = events {
        if Some(e) != pin("sim_events") {
            problems.push(format!("sim.events {e}"));
        }
    }
    checks.op(problems.is_empty(), || {
        format!("{WORKLOAD} variant {variant}: {}", problems.join(", "))
    });
}

pub fn run(args: &Args) -> Option<Report> {
    let variant = crate::variant(args.seed);
    let work = WorkDir::new(WORKLOAD);
    if args.bless {
        let registry = Arc::new(MetricsRegistry::new());
        let (_, _, out) = cold_cycle(&work, "bless", variant, Some(Arc::clone(&registry)));
        let events = registry.counter("sim/events_total").get();
        crate::print_pins(
            WORKLOAD,
            variant,
            &[
                ("heatmap_fnv", out.heatmap_fnv),
                ("kept_trials", out.kept_trials),
                ("sim_events", events),
            ],
        );
        return None;
    }
    // Set-up: the daemon opened over its empty store (cache load
    // included). The store is created once beforehand: on a shared disk
    // a fresh directory's create costs 0.05-1 ms depending on the
    // moment, which would drown the daemon's own cost.
    let store = work.path("store-setup");
    drop(prudentia_store::Store::open(&store).expect("create store"));
    let (setup_s, _) = setup_time(40, 16, Duration::from_millis(50), || {
        open_daemon(&store, &work.path("cache-setup.json"), variant, None)
    });
    let mut checks = Checks::default();
    if args.trace {
        return Some(traced(args, &work, variant, checks));
    }

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (_, wall, out) = cold_cycle(&work, "cycle", variant, None);
        check(&mut checks, variant, &out, None);
        walls.push(wall);
        rates.push(out.kept_trials as f64 / wall);
    }
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s, "s");
    metrics.set("throughput_per_s", median(&rates), "1/s");
    metrics.set("latency_ms_p50", median(&walls) * 1e3, "ms");
    metrics.set("peak_rss_mb", crate::peak_rss_mb(), "MB");
    let mut extra = Metrics::default();
    extra.set("cycle_s", median(&walls), "s");
    extra.set("trials_per_s", median(&rates), "1/s");
    extra.set("cycles", walls.len() as f64, "count");
    Some(Report {
        checks,
        metrics,
        extra,
    })
}

fn traced(args: &Args, work: &WorkDir, variant: u64, mut checks: Checks) -> Report {
    let mut m = Metrics::default();
    // Untraced reference cycle for the overhead ratio.
    let (_, untraced_wall, out) = cold_cycle(work, "untraced", variant, None);
    check(&mut checks, variant, &out, None);

    let t0 = Instant::now();
    let mut tr = Tracer::new(t0);
    prudentia_obs::span::reset();
    let registry = Arc::new(MetricsRegistry::new());
    let store_dir = work.path("store-traced");
    let cache_path = work.path("cache-traced.json");
    let span = tr.open("open", "store", 0);
    let mut daemon = open_daemon(
        &store_dir,
        &cache_path,
        variant,
        Some(Arc::clone(&registry)),
    );
    tr.close(span);
    m.set("store.open_ms", tr.secs(span) * 1e3, "ms");
    let window = tr.open_window("run_cycle", "executor", WORKERS);
    let report = daemon.run_cycle().expect("watch cycle");
    tr.close(window);
    let cycle_wall = tr.secs(window);
    let mut out = outputs(&daemon, variant);
    out.complete &= report.completed() && report.pairs_executed == 16;
    let snap = registry.snapshot();
    let events = snap.counters.get("sim/events_total").copied().unwrap_or(0);
    check(&mut checks, variant, &out, Some(events));
    let stats = daemon.store().stats();
    drop(daemon);

    // The program's own trial spans and executor histograms cover the
    // inside of run_cycle; the benchmark cannot split it from outside.
    let spans = prudentia_obs::span::snapshot();
    let span_s = |path: &str| spans.get(path).map_or(0.0, |s| s.total.as_secs_f64());
    let hist = |name: &str| snap.histograms.get(name).cloned();
    let trial_s = span_s("trial");
    let sim_s = span_s("trial/sim");
    let idle_s = hist("executor/idle_ns").map_or(0.0, |h| h.sum / 1e9);
    let lookup = hist("cache/lookup_ns");
    let trial_wall = hist("executor/trial_wall_ns");

    // Per-trial costs from sampled trials: trial 0 of every diagonal pair.
    let ledger = CcLedger::default();
    let overhead_ns = recon::timer_overhead_ns();
    let setting = setting(variant);
    let mut costs = Vec::new();
    let mut untimed_walls = Vec::new();
    for (i, svc) in services().into_iter().enumerate() {
        let seed = trial_seed(svc.name(), svc.name(), &setting.name, 0);
        let input = TrialInput::from_spec(DurationPolicy::Quick.spec(
            svc.clone(),
            svc,
            setting.clone(),
            seed,
        ));
        let cost = recon::reconstruct(&mut tr, i as u64 + 1, &input, Some(&ledger), overhead_ns);
        let verdict = recon::faithful(&input, &cost);
        checks.op(verdict.is_ok(), || {
            format!(
                "{WORKLOAD} reconstruction {i}: {}",
                verdict.as_ref().unwrap_err()
            )
        });
        untimed_walls.push(verdict.unwrap_or(0.0));
        costs.push(cost);
    }
    recon::report(&mut m, &costs);
    recon::report_cc(&mut m, &ledger);
    // The decorator's timer calls slow the reconstruction down; engine
    // speed comes from the undecorated run_experiment of the same trials.
    let untimed: f64 = untimed_walls.iter().sum();
    let recon_events: f64 = costs.iter().map(|c| c.events as f64).sum();
    let sim_secs: f64 = costs.iter().map(|c| c.sim_secs).sum();
    m.set("sim.events_per_s", recon_events / untimed.max(1e-9), "1/s");
    m.set("sim.host_us_per_sim_s", untimed * 1e6 / sim_secs, "us/s");
    let cc_share = costs.iter().map(|c| c.cc_s).sum::<f64>()
        / costs.iter().map(|c| c.run_s).sum::<f64>().max(1e-9);
    tr.attribute(window, "runner", trial_s - sim_s);
    tr.attribute(window, "sim", sim_s * (1.0 - cc_share));
    tr.attribute(window, "cc", sim_s * cc_share);
    tr.attribute(
        window,
        "cache",
        lookup.as_ref().map_or(0.0, |h| h.sum / 1e9),
    );
    tr.attribute(window, IDLE, idle_s);

    // Speed of light: the engine's NewReno-vs-NewReno trial against the
    // VecDeque dumbbell, per delivered packet.
    let reno = &costs[0];
    let engine_ns = untimed_walls[0] * 1e9 / reno.delivered_pkts.max(1) as f64;
    let sol_ns = crate::sol::ns_per_packet(&setting, reno.sim_secs as u64, 3);
    m.set("sim.sol_ratio", engine_ns / sol_ns, "ratio");

    // Whole-file cache save, and a warm replay over a fresh store.
    let cache = TrialCache::load(&cache_path).expect("cycle wrote its cache");
    let span = tr.open("save", "cache", 0);
    cache
        .save(&work.path("cache-resaved.json"))
        .expect("save cache");
    tr.close(span);
    m.set("cache.save_ms", tr.secs(span) * 1e3, "ms");
    let file_bytes = std::fs::metadata(&cache_path).map_or(0, |md| md.len());
    m.set("cache.file_bytes", file_bytes as f64, "bytes");
    let warm_registry = Arc::new(MetricsRegistry::new());
    let warm_store = work.path("store-warm");
    let mut warm = open_daemon(
        &warm_store,
        &cache_path,
        variant,
        Some(Arc::clone(&warm_registry)),
    );
    let span = tr.open("warm_replay", "executor", 0);
    warm.run_cycle().expect("warm replay");
    tr.close(span);
    m.set("executor.warm_replay_ms", tr.secs(span) * 1e3, "ms");
    let warm_out = outputs(&warm, variant);
    let hits = warm_registry.counter("cache/hits").get() as f64;
    let misses = warm_registry.counter("cache/misses").get() as f64;
    checks.op(
        warm_out.heatmap_fnv == out.heatmap_fnv && misses == 0.0,
        || format!("{WORKLOAD} warm replay: {misses} cache misses or a different heatmap"),
    );
    m.set("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    m.set(
        "cache.lookup_us_p50",
        lookup.as_ref().map_or(0.0, |h| h.p50 / 1e3),
        "us",
    );

    m.set("sim.events", events as f64, "count");
    m.set(
        "runner.trial_ms_p50",
        trial_wall.as_ref().map_or(0.0, |h| h.p50 / 1e6),
        "ms",
    );
    m.set(
        "runner.trial_ms_p90",
        trial_wall.as_ref().map_or(0.0, |h| h.p90 / 1e6),
        "ms",
    );
    let trials_run = snap
        .counters
        .get("executor/trials_run")
        .copied()
        .unwrap_or(0);
    m.set("executor.trials_run", trials_run as f64, "count");
    m.set(
        "executor.busy_ratio",
        trial_wall.as_ref().map_or(0.0, |h| h.sum / 1e9) / (WORKERS as f64 * cycle_wall),
        "ratio",
    );
    m.set("executor.idle_s", idle_s, "s");
    let steals = snap.counters.get("executor/steals").copied().unwrap_or(0);
    m.set("executor.steals", steals as f64, "count");
    m.set(
        "executor.trials_per_pair",
        out.kept_trials as f64 / 16.0,
        "count",
    );
    m.set("store.appends", stats.appends as f64, "count");
    m.set(
        "store.bytes_per_record",
        stats.bytes_written as f64 / stats.appends.max(1) as f64,
        "bytes",
    );
    m.set(
        "obs.trace_overhead_ratio",
        cycle_wall / untraced_wall,
        "ratio",
    );
    let coverage = tr.coverage(window);
    coverage.report(&mut m, tr.spans.len(), t0.elapsed().as_secs_f64());
    crate::write_trace(&tr, WORKLOAD, args.seed);
    Report {
        checks,
        metrics: m,
        extra: Metrics::default(),
    }
}
