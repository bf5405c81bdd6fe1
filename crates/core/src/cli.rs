//! The `prudentia` command-line interface, exposed as a library so the
//! binary stays a thin wrapper and the golden CLI tests can exercise the
//! exact dispatch logic.
//!
//! The public surface is one function, [`run`], which takes the argv
//! tail (everything after the program name), executes one subcommand,
//! and returns the process exit code — or a [`PrudentiaError`] whose
//! [`PrudentiaError::exit_code`] the binary maps onto the process exit
//! status. Subcommands:
//!
//! ```text
//! prudentia run <contender> <incumbent>   # one pair, both settings
//! prudentia run --solo <service>          # solo max-throughput probe
//! prudentia matrix                        # all-pairs heatmap
//! prudentia watch [--store DIR]           # the watchdog daemon (temporary store by default)
//! prudentia serve --store DIR             # HTTP status endpoint
//! prudentia report --store DIR --out DIR  # static HTML/CSV report
//! prudentia validate [--bless]            # conformance + invariants + golden traces
//! prudentia list                          # catalog of Table 1 services
//! prudentia classify <service>            # CCA classification
//! ```
//!
//! Every subcommand answers `--help`.

use crate::campaign::{self, CampaignRunConfig, CampaignSpec};
use crate::daemon::{Daemon, DaemonConfig, ShutdownFlag};
use crate::error::PrudentiaError;
use crate::fleet::{self, FleetConfig, FleetManifest, FleetView, ShardSpec};
use crate::serve::{serve, write_report, ServeConfig};
use crate::{
    execute_pairs, run_solo, DurationPolicy, ExecutorConfig, Heatmap, HeatmapStat, NetworkSetting,
    PairSpec, QdiscSpec, ScenarioSpec, TrialCache, TrialPolicy, WatchdogConfig,
};
use prudentia_apps::Service;
use prudentia_obs::MetricsRegistry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const GLOBAL_HELP: &str = "\
prudentia — an Internet fairness watchdog (simulated testbed)

usage: prudentia <command> [options]

commands:
  run <contender> <incumbent>  test one pair of services
  run --solo <service>         solo max-throughput probe
  matrix                       all-pairs fairness heatmap
  watch                        the watchdog daemon: cycles the matrix and
                               reports fairness changes; --store DIR keeps
                               its results (default: a temporary store)
  fleet <action>               sharded multi-process watchdog fleet:
                               spawn | status | merge | stop (--store ROOT)
  serve                        HTTP status endpoint over a store (--store DIR)
  report                       static HTML/CSV report from a store (--store DIR)
  campaign <action>            beyond-pairwise scenario grids with adaptive
                               trial budgets: run | status | report |
                               example | expand (--store DIR)
  validate                     conformance + invariant + golden-trace suite
  list                         catalog of Table 1 services
  classify                     CCAnalyzer-style CCA classification

common options:
  --paper            full §3.4 protocol (default: quick)
  --trials N         pin the minimum trial count
  --seed N           base seed (default 1)
  --parallel N       worker threads
  --setting MBPS     one bottleneck setting instead of both (8 / 50 / custom)
  --scenario KIND    droptail|codel|fq_codel|red|dualpi2|lte
  --cache PATH       persistent trial cache
  --stats            executor telemetry + per-phase wall time (stderr)
  --metrics PATH     write metrics registry JSON (or CSV with .csv)

`prudentia <command> --help` shows per-command options. Structured JSONL
event logging via PRUDENTIA_LOG (RUST_LOG-style grammar).";

const RUN_HELP: &str = "\
usage: prudentia run <contender> <incumbent> [options]
       prudentia run --solo <service> [options]

Test one contender/incumbent pair on each configured setting, or probe a
single service's solo throughput with --solo. Service names are catalog
labels from `prudentia list` (case-insensitive).

options: --paper --trials N --seed N --setting MBPS --scenario KIND";

const MATRIX_HELP: &str = "\
usage: prudentia matrix [options]

Run the all-pairs fairness matrix and print one heatmap per setting.

options:
  --services A,B,..  subset of catalog labels (default: the Fig 2 set)
  --paper --trials N --parallel N --setting MBPS --scenario KIND
  --cache PATH --stats --metrics PATH";

const WATCH_HELP: &str = "\
usage: prudentia watch [options]

Run the watchdog daemon: each cycle tests every pair of the matrix and
appends its outcome to a store. A pair whose incumbent MmF share moved
by more than 20% against its previous stored outcome is reported as a
fairness change under its cycle line. Scheduling is staleness-driven
(never-tested pairs first, then oldest), progress is checkpointed, and a
restarted daemon resumes mid-matrix without re-running completed pairs.
SIGINT, SIGTERM or the flag file requests a graceful stop at the next
batch boundary.

With --store DIR the store is durable, so results, resume and change
detection carry across runs. Without it the daemon runs over a
temporary store that is removed on exit.

options:
  --store DIR        durable results store (default: temporary)
  --iterations N     cycles to run (default 1)
  --services A,B,..  subset of catalog labels (default: the Fig 2 set)
  --batch-pairs N    pairs per executor batch (default 2)
  --max-pairs N      stop after N pairs this run (checkpoint + exit)
  --shard I/N        with --store: run only shard I of an N-shard fleet
                     (normally set by `prudentia fleet spawn`)
  --flag-file PATH   graceful-shutdown flag file
  --paper --trials N --parallel N --setting MBPS --scenario KIND
  --cache PATH --stats --metrics PATH";

const FLEET_HELP: &str = "\
usage: prudentia fleet <spawn|status|merge|stop> --store ROOT [options]

Shard the pair matrix across N worker processes, each a `prudentia
watch --store ROOT/shard-XXX --shard I/N` daemon over its own store
segment directory. Pairs are assigned by a jump consistent hash of the
pair fingerprint; the manifest ROOT/fleet.json records the layout.

actions:
  spawn    start (or resume) the fleet and supervise it: crashed
           workers restart with backoff; changing --shards rebalances
           the layout first without re-running fresh pairs
  status   per-shard health plus the merged fleet summary
  merge    compact every shard into one single-store view (--out DIR)
  stop     request a graceful fleet-wide stop (shared flag file)

options:
  --store ROOT       fleet root directory (required)
  --shards N         shard count for spawn (default: the manifest's;
                     first spawn defaults to 2)
  --out DIR          merge: output store directory (required)
  --services A,B,..  subset of catalog labels (default: the Fig 2 set)
  --iterations N     cycle passes per worker (default 1)
  --batch-pairs N    pairs per executor batch per worker (default 2)
  --max-pairs N      per-worker pair cap per run (checkpoint + exit)
  --paper --trials N --parallel N --setting MBPS --scenario KIND
  --metrics PATH     write coordinator metrics JSON (or CSV with .csv)";

const SERVE_HELP: &str = "\
usage: prudentia serve --store DIR [options]

Serve live watchdog status over HTTP from the durable store. Routes:
/ (dashboard), /status, /heatmap, /heatmap.csv, /freshness, /metrics,
/shutdown. A fixed pool of worker threads answers HTTP/1.1 keep-alive
requests from an in-memory materialized view that is revalidated by
cheap store watermark probes, so a daemon may keep appending
concurrently. Data routes carry strong ETags; If-None-Match answers an
empty 304. A fleet root (fleet.json present) is served as the merged
multi-shard view; data routes answer 503 with a structured body while
any shard is unreadable, /status stays up.

options:
  --store DIR        durable results store or fleet root (required)
  --addr HOST:PORT   bind address (default 127.0.0.1:7077)
  --workers N        accept/worker threads (default: host parallelism,
                     clamped to 2..=16)
  --no-cache         render a fresh store snapshot per request instead
                     of serving the materialized view (slow; the
                     byte-identity oracle for the cached path)
  --refresh-ms N     materialized-view revalidation period (default 25)
  --services A,B,..  matrix services (default: the Fig 2 set)
  --flag-file PATH   graceful-shutdown flag file
  --setting MBPS --scenario KIND";

const REPORT_HELP: &str = "\
usage: prudentia report --store DIR [--out DIR] [options]

Emit a static report (index.html, per-setting/statistic CSVs,
status.json) from the durable store. A fleet root is reported as the
merged multi-shard view; an unreadable shard aborts the report.

options:
  --store DIR        durable results store or fleet root (required)
  --out DIR          output directory (default: prudentia-report)
  --services A,B,..  matrix services (default: the Fig 2 set)
  --setting MBPS --scenario KIND";

const CAMPAIGN_HELP: &str = "\
usage: prudentia campaign <run|status|report|example|expand> [options]

Expand an N-flow service-mix × parameter-grid campaign spec into
deterministic fingerprinted cells and run them against a durable store.

  run      execute the grid (resumes past interruptions; SIGINT-safe)
  status   progress + verdict roll-up of the stored campaign
  report   campaign CSVs (cells, per-axis marginals, grid heatmap)
  example  print the built-in example spec JSON (edit and pass --spec)
  expand   list the cells a spec expands to, without running them

options:
  --store DIR        durable results store (required for run/status/report)
  --spec PATH        campaign spec JSON (default: the example spec)
  --no-adaptive      disable the adaptive trial budget (run every cell
                     to its CI stop or trial cap)
  --redeal           re-deal trials saved by the adaptive budget to the
                     highest-variance unsettled cells
  --max-cells N      stop after N freshly executed cells (resume later)
  --out DIR          report output directory (default: prudentia-report)
  --flag-file PATH   graceful-shutdown flag file
  --cache PATH --stats --metrics PATH";

const VALIDATE_HELP: &str = "\
usage: prudentia validate [--bless] [--golden-dir PATH]

Run the conformance checks, the invariant sweep, and the golden-trace
comparison. --bless rewrites the golden traces instead of checking them.";

const LIST_HELP: &str = "\
usage: prudentia list

Print the catalog of Table 1 services (label, name, CCA, flow count).";

const CLASSIFY_HELP: &str = "\
usage: prudentia classify <service> [--seed N]

Probe one service solo and classify its congestion-control behaviour
from queue-occupancy dynamics (CCAnalyzer-style).";

struct Opts {
    paper: bool,
    trials: Option<usize>,
    seed: u64,
    parallel: usize,
    setting: Option<f64>,
    iterations: u64,
    cache: Option<PathBuf>,
    stats: bool,
    metrics: Option<PathBuf>,
    scenario: Option<String>,
    bless: bool,
    golden_dir: Option<PathBuf>,
    store: Option<PathBuf>,
    addr: String,
    out: Option<PathBuf>,
    batch_pairs: Option<usize>,
    max_pairs: Option<u64>,
    shard: Option<ShardSpec>,
    shards: Option<u32>,
    workers: Option<usize>,
    no_cache: bool,
    refresh_ms: Option<u64>,
    flag_file: Option<PathBuf>,
    services: Option<Vec<String>>,
    solo: bool,
    spec: Option<PathBuf>,
    no_adaptive: bool,
    redeal: bool,
    max_cells: Option<usize>,
    help: bool,
    positional: Vec<String>,
}

fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, PrudentiaError> {
    args.next()
        .ok_or_else(|| PrudentiaError::Usage(format!("{flag} needs a value")))
}

fn parsed<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T, PrudentiaError> {
    raw.parse()
        .map_err(|_| PrudentiaError::Usage(format!("{flag}: invalid value `{raw}`")))
}

fn parse_opts(args: &[String]) -> Result<Opts, PrudentiaError> {
    let mut opts = Opts {
        paper: false,
        trials: None,
        seed: 1,
        parallel: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        setting: None,
        iterations: 1,
        cache: None,
        stats: false,
        metrics: None,
        scenario: None,
        bless: false,
        golden_dir: None,
        store: None,
        addr: "127.0.0.1:7077".to_string(),
        out: None,
        batch_pairs: None,
        max_pairs: None,
        shard: None,
        shards: None,
        workers: None,
        no_cache: false,
        refresh_ms: None,
        flag_file: None,
        services: None,
        solo: false,
        spec: None,
        no_adaptive: false,
        redeal: false,
        max_cells: None,
        help: false,
        positional: Vec::new(),
    };
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => opts.paper = true,
            "--trials" => opts.trials = Some(parsed("--trials", value_of("--trials", &mut it)?)?),
            "--seed" => opts.seed = parsed("--seed", value_of("--seed", &mut it)?)?,
            "--parallel" => {
                opts.parallel = parsed("--parallel", value_of("--parallel", &mut it)?)?;
            }
            "--setting" => {
                opts.setting = Some(parsed("--setting", value_of("--setting", &mut it)?)?);
            }
            "--iterations" => {
                opts.iterations = parsed("--iterations", value_of("--iterations", &mut it)?)?;
            }
            "--cache" => opts.cache = Some(PathBuf::from(value_of("--cache", &mut it)?)),
            "--stats" => opts.stats = true,
            "--metrics" => opts.metrics = Some(PathBuf::from(value_of("--metrics", &mut it)?)),
            "--scenario" => opts.scenario = Some(value_of("--scenario", &mut it)?),
            "--bless" => opts.bless = true,
            "--golden-dir" => {
                opts.golden_dir = Some(PathBuf::from(value_of("--golden-dir", &mut it)?));
            }
            "--store" => opts.store = Some(PathBuf::from(value_of("--store", &mut it)?)),
            "--addr" => opts.addr = value_of("--addr", &mut it)?,
            "--out" => opts.out = Some(PathBuf::from(value_of("--out", &mut it)?)),
            "--batch-pairs" => {
                opts.batch_pairs = Some(parsed(
                    "--batch-pairs",
                    value_of("--batch-pairs", &mut it)?,
                )?);
            }
            "--max-pairs" => {
                opts.max_pairs = Some(parsed("--max-pairs", value_of("--max-pairs", &mut it)?)?);
            }
            "--shard" => {
                opts.shard = Some(ShardSpec::parse(&value_of("--shard", &mut it)?)?);
            }
            "--shards" => {
                opts.shards = Some(parsed("--shards", value_of("--shards", &mut it)?)?);
            }
            "--workers" => {
                opts.workers = Some(parsed("--workers", value_of("--workers", &mut it)?)?);
            }
            "--no-cache" => opts.no_cache = true,
            "--refresh-ms" => {
                opts.refresh_ms = Some(parsed("--refresh-ms", value_of("--refresh-ms", &mut it)?)?);
            }
            "--flag-file" => {
                opts.flag_file = Some(PathBuf::from(value_of("--flag-file", &mut it)?));
            }
            "--services" => {
                opts.services = Some(
                    value_of("--services", &mut it)?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--solo" => opts.solo = true,
            "--spec" => opts.spec = Some(PathBuf::from(value_of("--spec", &mut it)?)),
            "--no-adaptive" => opts.no_adaptive = true,
            "--redeal" => opts.redeal = true,
            "--max-cells" => {
                opts.max_cells = Some(parsed("--max-cells", value_of("--max-cells", &mut it)?)?)
            }
            "--help" | "-h" => opts.help = true,
            other if other.starts_with("--") => {
                return Err(PrudentiaError::Usage(format!("unknown option: {other}")));
            }
            other => opts.positional.push(other.to_string()),
        }
    }
    Ok(opts)
}

/// Parse and execute one `prudentia` invocation. `args` is the argv
/// tail (everything after the program name). Returns the process exit
/// code on a completed run (`0` success, `1` domain failure such as a
/// failing validation suite); errors carry their own exit codes via
/// [`PrudentiaError::exit_code`].
pub fn run(args: &[String]) -> Result<i32, PrudentiaError> {
    let Some(first) = args.first().map(String::as_str) else {
        return Err(PrudentiaError::Usage("no command given".to_string()));
    };
    if matches!(first, "help" | "--help" | "-h") {
        println!("{GLOBAL_HELP}");
        return Ok(0);
    }
    let opts = parse_opts(&args[1..])?;
    match first {
        "run" => {
            if opts.help {
                println!("{RUN_HELP}");
                return Ok(0);
            }
            if opts.solo {
                cmd_solo(&opts)
            } else {
                cmd_run_pair(&opts)
            }
        }
        "matrix" => help_or(&opts, MATRIX_HELP, cmd_matrix),
        "watch" => help_or(&opts, WATCH_HELP, cmd_watch),
        "fleet" => help_or(&opts, FLEET_HELP, cmd_fleet),
        "serve" => help_or(&opts, SERVE_HELP, cmd_serve),
        "report" => help_or(&opts, REPORT_HELP, cmd_report),
        "campaign" => help_or(&opts, CAMPAIGN_HELP, cmd_campaign),
        "validate" => help_or(&opts, VALIDATE_HELP, cmd_validate),
        "list" => help_or(&opts, LIST_HELP, |_| {
            cmd_list();
            Ok(0)
        }),
        "classify" => help_or(&opts, CLASSIFY_HELP, cmd_classify),
        other => Err(PrudentiaError::Usage(format!("unknown command: {other}"))),
    }
}

fn help_or(
    opts: &Opts,
    help: &str,
    body: impl FnOnce(&Opts) -> Result<i32, PrudentiaError>,
) -> Result<i32, PrudentiaError> {
    if opts.help {
        println!("{help}");
        Ok(0)
    } else {
        body(opts)
    }
}

fn find_service(name: &str) -> Result<Service, PrudentiaError> {
    let lname = name.to_lowercase();
    Service::all()
        .into_iter()
        .chain(Service::extras())
        .find(|s| s.label().to_lowercase() == lname || s.spec().name().to_lowercase() == lname)
        .ok_or_else(|| PrudentiaError::UnknownService(name.to_string()))
}

fn matrix_services(opts: &Opts) -> Result<Vec<Service>, PrudentiaError> {
    match &opts.services {
        None => Ok(Service::heatmap_set()),
        Some(names) if names.is_empty() => Err(PrudentiaError::Usage(
            "--services needs at least one label".to_string(),
        )),
        Some(names) => names.iter().map(|n| find_service(n)).collect(),
    }
}

fn settings_for(opts: &Opts) -> Result<Vec<NetworkSetting>, PrudentiaError> {
    let base = match opts.setting {
        Some(mbps) if (mbps - 8.0).abs() < 0.5 => vec![NetworkSetting::highly_constrained()],
        Some(mbps) if (mbps - 50.0).abs() < 0.5 => {
            vec![NetworkSetting::moderately_constrained()]
        }
        Some(mbps) => vec![NetworkSetting::custom(mbps * 1e6)],
        None => vec![
            NetworkSetting::highly_constrained(),
            NetworkSetting::moderately_constrained(),
        ],
    };
    let Some(label) = opts.scenario.as_deref() else {
        return Ok(base);
    };
    base.into_iter()
        .map(|setting| {
            let scenario = match label {
                // The bare legacy setting: names, seeds, and cache keys
                // identical to runs that never passed --scenario.
                "droptail" => return Ok(setting),
                "codel" => ScenarioSpec {
                    qdisc: QdiscSpec::codel(),
                    ..ScenarioSpec::default()
                },
                "fq_codel" => ScenarioSpec {
                    qdisc: QdiscSpec::fq_codel(),
                    ..ScenarioSpec::default()
                },
                "red" => ScenarioSpec {
                    qdisc: QdiscSpec::red(),
                    ..ScenarioSpec::default()
                },
                "dualpi2" => ScenarioSpec {
                    qdisc: QdiscSpec::dualpi2(),
                    ..ScenarioSpec::default()
                },
                "lte" => ScenarioSpec::droptail_lte(setting.rate_bps),
                other => {
                    return Err(PrudentiaError::Usage(format!(
                        "unknown scenario: {other} (expected droptail|codel|fq_codel|red|dualpi2|lte)"
                    )));
                }
            };
            Ok(setting.with_scenario(scenario, label))
        })
        .collect()
}

fn policy_for(opts: &Opts) -> (TrialPolicy, DurationPolicy) {
    let mut policy = if opts.paper {
        TrialPolicy::default()
    } else {
        TrialPolicy::quick()
    };
    if let Some(t) = opts.trials {
        policy.min_trials = t;
        policy.max_trials = t.max(policy.max_trials.min(t * 3));
    }
    let duration = if opts.paper {
        DurationPolicy::Paper
    } else {
        DurationPolicy::Quick
    };
    (policy, duration)
}

fn cmd_list() {
    println!(
        "{:<16} {:<18} {:<22} {:>7}",
        "label", "name", "cca", "flows"
    );
    for svc in Service::all().into_iter().chain(Service::extras()) {
        let spec = svc.spec();
        println!(
            "{:<16} {:<18} {:<22} {:>7}",
            svc.label(),
            spec.name(),
            spec.cca_label(),
            spec.flow_count()
        );
    }
    println!();
    println!(
        "{:<20} {:<22} {:<12}",
        "cca plugin", "table-1 label", "family"
    );
    for meta in prudentia_cc::CcaRegistry::builtin().entries() {
        println!(
            "{:<20} {:<22} {:<12}",
            meta.name,
            meta.table1,
            meta.family.tag()
        );
    }
}

fn cmd_run_pair(opts: &Opts) -> Result<i32, PrudentiaError> {
    let [a, b] = &opts.positional[..] else {
        return Err(PrudentiaError::Usage(
            "run needs two service labels (see `prudentia list`), or --solo with one".to_string(),
        ));
    };
    let (con, inc) = (find_service(a)?, find_service(b)?);
    let (policy, duration) = policy_for(opts);
    let pairs: Vec<PairSpec> = settings_for(opts)?
        .into_iter()
        .map(|setting| PairSpec {
            contender: con.spec(),
            incumbent: inc.spec(),
            setting,
        })
        .collect();
    let config = ExecutorConfig::new(policy, duration, opts.parallel);
    for out in execute_pairs(&pairs, &config)?.0 {
        println!(
            "{}: {} (contender) vs {} (incumbent)",
            out.setting, out.contender, out.incumbent
        );
        println!(
            "  incumbent: median {:.0}% of MmF share  (IQR {:.2}-{:.2} Mbps over {} trials{})",
            out.incumbent_mmf_median * 100.0,
            out.incumbent_iqr_bps.0 / 1e6,
            out.incumbent_iqr_bps.1 / 1e6,
            out.trials.len(),
            if out.converged { "" } else { ", UNSTABLE" }
        );
        println!(
            "  contender: median {:.0}% of MmF share;  utilization {:.0}%,  incumbent loss {:.2}%",
            out.contender_mmf_median * 100.0,
            out.utilization_median * 100.0,
            out.incumbent_loss_median * 100.0
        );
    }
    Ok(0)
}

fn cmd_solo(opts: &Opts) -> Result<i32, PrudentiaError> {
    let [name] = &opts.positional[..] else {
        return Err(PrudentiaError::Usage(
            "solo needs a service label".to_string(),
        ));
    };
    let svc = find_service(name)?;
    let setting = NetworkSetting::custom(opts.setting.map(|m| m * 1e6).unwrap_or(200e6));
    let rate = run_solo(&svc.spec(), &setting, opts.seed)?;
    println!(
        "{} solo over {}: {:.2} Mbps",
        svc.spec().name(),
        setting.name,
        rate / 1e6
    );
    Ok(0)
}

fn cmd_classify(opts: &Opts) -> Result<i32, PrudentiaError> {
    let [name] = &opts.positional[..] else {
        return Err(PrudentiaError::Usage(
            "classify needs a service label".to_string(),
        ));
    };
    let svc = find_service(name)?;
    let spec = svc.spec();
    let features = crate::extract_features(&spec, &crate::ClassifierConfig::default(), opts.seed);
    println!("{}: {:?}", spec.name(), features.classify());
    println!(
        "  utilization {:.0}%, self-loss {:.3}%, queue mean/p90 {:.0}%/{:.0}%, \
         dips {} (spacing {:.1}s), periodicity {}",
        features.utilization * 100.0,
        features.self_loss_rate * 100.0,
        features.mean_queue_fill * 100.0,
        features.p90_queue_fill * 100.0,
        features.short_dips,
        features.dip_spacing_secs,
        match features.period_secs {
            Some(p) => format!("{p:.1}s"),
            None => "none".to_string(),
        }
    );
    println!("  (declared in Table 1 as: {})", spec.cca_label());
    Ok(0)
}

/// The graceful-shutdown flag: `--flag-file`, SIGINT or SIGTERM.
fn shutdown_flag(opts: &Opts) -> ShutdownFlag {
    ShutdownFlag::install_signal_handlers();
    match &opts.flag_file {
        Some(path) => ShutdownFlag::with_flag_file(path.clone()),
        None => ShutdownFlag::new(),
    }
}

/// Write the registry where `--metrics` pointed: CSV for a `.csv`
/// extension, pretty JSON otherwise.
fn write_metrics(reg: &MetricsRegistry, path: &Path) {
    let text = if path.extension().is_some_and(|e| e == "csv") {
        reg.to_csv()
    } else {
        reg.to_json()
    };
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("metrics written to {}", path.display()),
        Err(e) => eprintln!("warning: failed to write metrics {}: {e}", path.display()),
    }
}

/// The `--stats` per-phase wall-time breakdown (from the timing spans).
fn print_phase_breakdown() {
    let text = prudentia_obs::span::render_breakdown();
    if !text.is_empty() {
        eprintln!("per-phase wall time:");
        eprint!("{text}");
    }
}

fn cmd_matrix(opts: &Opts) -> Result<i32, PrudentiaError> {
    let services = matrix_services(opts)?;
    let (policy, duration) = policy_for(opts);
    let registry = opts
        .metrics
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));
    let _cmd_span = prudentia_obs::span!("matrix");
    for setting in settings_for(opts)? {
        let mut pairs = Vec::new();
        for a in &services {
            for b in &services {
                pairs.push(PairSpec {
                    contender: a.spec(),
                    incumbent: b.spec(),
                    setting: setting.clone(),
                });
            }
        }
        eprintln!(
            "running {} pairs over {} ({} workers)...",
            pairs.len(),
            setting.name,
            opts.parallel
        );
        let mut exec = ExecutorConfig::new(policy, duration, opts.parallel);
        if let Some(reg) = &registry {
            exec = exec.with_metrics(Arc::clone(reg));
        }
        let cache = opts.cache.as_ref().map(|path| {
            Arc::new(TrialCache::load(path).unwrap_or_else(|e| {
                eprintln!("warning: ignoring trial cache {}: {e}", path.display());
                TrialCache::new()
            }))
        });
        if let Some(c) = &cache {
            exec = exec.with_cache(Arc::clone(c));
        }
        let (outcomes, stats) = execute_pairs(&pairs, &exec)?;
        if let (Some(c), Some(path)) = (&cache, &opts.cache) {
            if let Err(e) = c.save(path) {
                eprintln!(
                    "warning: failed to save trial cache {}: {e}",
                    path.display()
                );
            }
        }
        if opts.stats {
            eprint!("{stats}");
        }
        let labels: Vec<String> = services
            .iter()
            .map(|s| s.spec().name().to_string())
            .collect();
        let map = Heatmap::build(HeatmapStat::MmfSharePct, &labels, &outcomes);
        println!("{} — {}", setting.name, map.stat.title());
        println!("{}", map.render_text());
    }
    if opts.stats {
        print_phase_breakdown();
    }
    if let (Some(reg), Some(path)) = (&registry, &opts.metrics) {
        write_metrics(reg, path);
    }
    Ok(0)
}

fn cmd_validate(opts: &Opts) -> Result<i32, PrudentiaError> {
    let golden_dir = opts
        .golden_dir
        .clone()
        .unwrap_or_else(prudentia_check::default_golden_dir);
    if opts.bless {
        match prudentia_check::bless_all(&golden_dir) {
            Ok(written) => {
                for path in written {
                    println!("blessed {path}");
                }
                return Ok(0);
            }
            Err(e) => {
                eprintln!("bless failed: {e}");
                return Ok(1);
            }
        }
    }
    eprintln!("running validation suite (conformance + invariant sweep + golden traces)...");
    let report = prudentia_check::run_validation(&golden_dir);
    println!("conformance:");
    for c in &report.checks {
        println!(
            "  [{}] {:<36} {}",
            if c.passed { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!("invariant sweep:");
    for s in &report.sweep {
        match &s.result {
            Ok(()) => println!("  [PASS] {}", s.label),
            Err(e) => println!("  [FAIL] {}: {e}", s.label),
        }
    }
    println!("golden traces ({}):", golden_dir.display());
    for g in report.golden.iter().chain(&report.stability) {
        match &g.result {
            Ok(()) => println!("  [PASS] {}", g.name),
            Err(e) => println!("  [FAIL] {}: {e}", g.name),
        }
    }
    let (passed, total) = report.tally();
    println!("validation: {passed}/{total} checks passed");
    Ok(if report.passed() { 0 } else { 1 })
}

/// A temporary store directory, removed when dropped.
struct TempStore(PathBuf);

impl TempStore {
    fn new() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let name = format!("prudentia-watch-{}-{nanos}", std::process::id());
        TempStore(std::env::temp_dir().join(name))
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn cmd_watch(opts: &Opts) -> Result<i32, PrudentiaError> {
    if opts.store.is_none() && opts.shard.is_some() {
        return Err(PrudentiaError::Usage(
            "--shard needs --store DIR (a fleet worker's durable store)".to_string(),
        ));
    }
    // The only difference between the modes: where the store lives.
    let (store_dir, _temp) = match &opts.store {
        Some(dir) => (dir.clone(), None),
        None => {
            let temp = TempStore::new();
            (temp.0.clone(), Some(temp))
        }
    };
    let (policy, duration) = policy_for(opts);
    let registry = opts
        .metrics
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));
    let _cmd_span = prudentia_obs::span!("watch");
    let mut config = DaemonConfig::new(store_dir);
    config.watchdog = WatchdogConfig {
        settings: settings_for(opts)?,
        policy,
        duration,
        parallelism: opts.parallel,
        change_threshold: 0.2,
        cache_path: opts.cache.clone(),
        metrics: registry.clone(),
    };
    config.batch_pairs = opts.batch_pairs.unwrap_or(config.batch_pairs);
    config.max_pairs_per_run = opts.max_pairs;
    config.shard = opts.shard;

    // `Daemon::open` validates the config before touching the store.
    let services: Vec<_> = matrix_services(opts)?.iter().map(|s| s.spec()).collect();
    let mut daemon = Daemon::open(services, config)?;
    daemon.set_shutdown(shutdown_flag(opts));

    for i in 1..=opts.iterations {
        eprintln!("daemon cycle pass {i}...");
        let report = daemon.run_cycle()?;
        println!(
            "cycle {}: {} pairs, {} already done, {} executed",
            report.cycle, report.pairs_total, report.pairs_already_done, report.pairs_executed
        );
        for c in &report.changes {
            println!(
                "  {} vs {} [{}]: {:.0}% -> {:.0}%",
                c.contender,
                c.incumbent,
                c.setting,
                c.before * 100.0,
                c.after * 100.0
            );
        }
        if opts.stats {
            eprint!("{}", report.stats);
        }
        if report.interrupted {
            println!("interrupted; checkpoint saved — rerun with --store to resume");
            break;
        }
    }
    if opts.stats {
        print_phase_breakdown();
    }
    if let (Some(reg), Some(path)) = (&registry, &opts.metrics) {
        write_metrics(reg, path);
    }
    Ok(0)
}

fn cmd_fleet(opts: &Opts) -> Result<i32, PrudentiaError> {
    let action = opts.positional.first().map(String::as_str).ok_or_else(|| {
        PrudentiaError::Usage("fleet needs an action: spawn | status | merge | stop".to_string())
    })?;
    let Some(root) = opts.store.clone() else {
        return Err(PrudentiaError::Usage(
            "fleet needs --store ROOT (the fleet root directory)".to_string(),
        ));
    };
    match action {
        "spawn" => cmd_fleet_spawn(opts, &root),
        "status" => cmd_fleet_status(opts, &root),
        "merge" => cmd_fleet_merge(opts, &root),
        "stop" => {
            let flag = fleet::request_stop(&root)?;
            println!("fleet stop requested ({})", flag.display());
            Ok(0)
        }
        other => Err(PrudentiaError::Usage(format!(
            "unknown fleet action: {other} (expected spawn | status | merge | stop)"
        ))),
    }
}

/// The argv tail forwarded to every fleet worker's `watch` invocation,
/// so workers run the exact matrix/policy the coordinator was given.
fn worker_args(opts: &Opts) -> Vec<String> {
    let mut argv: Vec<String> = Vec::new();
    if opts.paper {
        argv.push("--paper".to_string());
    }
    if let Some(t) = opts.trials {
        argv.extend(["--trials".to_string(), t.to_string()]);
    }
    argv.extend(["--parallel".to_string(), opts.parallel.to_string()]);
    if let Some(mbps) = opts.setting {
        argv.extend(["--setting".to_string(), mbps.to_string()]);
    }
    if let Some(s) = &opts.scenario {
        argv.extend(["--scenario".to_string(), s.clone()]);
    }
    if let Some(names) = &opts.services {
        argv.extend(["--services".to_string(), names.join(",")]);
    }
    argv.extend(["--iterations".to_string(), opts.iterations.to_string()]);
    if let Some(b) = opts.batch_pairs {
        argv.extend(["--batch-pairs".to_string(), b.to_string()]);
    }
    if let Some(m) = opts.max_pairs {
        argv.extend(["--max-pairs".to_string(), m.to_string()]);
    }
    argv
}

fn cmd_fleet_spawn(opts: &Opts, root: &Path) -> Result<i32, PrudentiaError> {
    let (policy, duration) = policy_for(opts);
    let services: Vec<_> = matrix_services(opts)?.iter().map(|s| s.spec()).collect();
    let settings = settings_for(opts)?;
    let shards = match (opts.shards, FleetManifest::load(root)?) {
        (Some(n), _) => n,
        (None, Some(m)) => m.shards,
        (None, None) => 2,
    };
    if let Some(rep) = fleet::prepare_root(root, shards, &services, &settings, policy, duration)? {
        println!(
            "rebalanced {} -> {} shards: {} fresh + {} stale records redistributed (cycle {})",
            rep.from_shards, rep.to_shards, rep.fresh_records, rep.stale_records, rep.cycle
        );
    }
    let registry = opts
        .metrics
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));
    let binary = std::env::current_exe()
        .map_err(|e| PrudentiaError::io("resolve prudentia binary path".to_string(), e))?;
    let mut config = FleetConfig::new(root, shards, binary);
    config.worker_args = worker_args(opts);
    config.metrics = registry.clone();
    eprintln!("fleet: spawning {shards} workers over {}", root.display());
    let report = fleet::supervise(&config)?;
    println!(
        "fleet: {} completed, {} stopped, {} failed ({} restarts)",
        report.workers_completed, report.workers_stopped, report.workers_failed, report.restarts
    );
    let manifest = FleetManifest::load(root)?.expect("prepare_root wrote the manifest");
    let view = FleetView::read(root, &manifest, &services, &settings, registry.as_deref());
    println!(
        "fleet: {}/{} shards readable, {}/{} pairs tested this cycle",
        view.readable_count(),
        manifest.shards,
        view.pairs_tested_this_cycle(),
        view.freshness.len()
    );
    if let (Some(reg), Some(path)) = (&registry, &opts.metrics) {
        write_metrics(reg, path);
    }
    Ok(if report.healthy() { 0 } else { 1 })
}

fn load_fleet_manifest(root: &Path) -> Result<FleetManifest, PrudentiaError> {
    FleetManifest::load(root)?.ok_or_else(|| {
        PrudentiaError::InvalidConfig(format!(
            "{} is not a fleet root (no fleet.json; `fleet spawn` creates one)",
            root.display()
        ))
    })
}

fn cmd_fleet_status(opts: &Opts, root: &Path) -> Result<i32, PrudentiaError> {
    let manifest = load_fleet_manifest(root)?;
    let services: Vec<_> = matrix_services(opts)?.iter().map(|s| s.spec()).collect();
    let settings = settings_for(opts)?;
    let view = FleetView::read(root, &manifest, &services, &settings, None);
    println!("fleet root {} ({} shards)", root.display(), manifest.shards);
    for h in &view.shards {
        if h.readable {
            let cycle = h
                .checkpoint
                .as_ref()
                .map(|c| c.cycle.to_string())
                .unwrap_or_else(|| "-".to_string());
            println!(
                "  shard {:>3}: ok          {:>4}/{:<4} pairs this cycle (cycle {cycle}), {} live records",
                h.shard, h.pairs_tested_this_cycle, h.pairs_total, h.live_records
            );
        } else {
            println!(
                "  shard {:>3}: UNREADABLE  {:>4} pairs unaccounted ({})",
                h.shard,
                h.pairs_total,
                h.error.as_deref().unwrap_or("unknown error")
            );
        }
    }
    println!(
        "merged: {} live records, {}/{} pairs tested this cycle, merge {:.1} ms{}",
        view.merged.live_len(),
        view.pairs_tested_this_cycle(),
        view.freshness.len(),
        view.merge_ms,
        if view.degraded() { "  [DEGRADED]" } else { "" }
    );
    Ok(if view.degraded() { 1 } else { 0 })
}

fn cmd_fleet_merge(opts: &Opts, root: &Path) -> Result<i32, PrudentiaError> {
    let manifest = load_fleet_manifest(root)?;
    let Some(out) = opts.out.clone() else {
        return Err(PrudentiaError::Usage(
            "fleet merge needs --out DIR (the merged store directory)".to_string(),
        ));
    };
    let merged = prudentia_store::MergedSnapshot::read_dirs(manifest.shard_dirs(root))?;
    let store = merged.write_to(&out)?;
    println!(
        "merged {} shards into {} ({} live records)",
        manifest.shards,
        out.display(),
        store.live_len()
    );
    Ok(0)
}

fn serve_config(opts: &Opts, command: &str) -> Result<ServeConfig, PrudentiaError> {
    let Some(store_dir) = opts.store.clone() else {
        return Err(PrudentiaError::Usage(format!(
            "{command} needs --store DIR (the durable results store)"
        )));
    };
    Ok(ServeConfig {
        addr: opts.addr.clone(),
        store_dir,
        services: matrix_services(opts)?.iter().map(|s| s.spec()).collect(),
        settings: settings_for(opts)?,
        workers: opts.workers.unwrap_or_else(ServeConfig::default_workers),
        cache: !opts.no_cache,
        refresh_ms: opts.refresh_ms.unwrap_or(ServeConfig::DEFAULT_REFRESH_MS),
    })
}

fn cmd_serve(opts: &Opts) -> Result<i32, PrudentiaError> {
    let config = serve_config(opts, "serve")?;
    let flag = shutdown_flag(opts);
    serve(&config, &flag)?;
    eprintln!("prudentia serve: shut down");
    Ok(0)
}

/// Load the campaign spec: `--spec PATH` or the built-in example.
fn campaign_spec(opts: &Opts) -> Result<CampaignSpec, PrudentiaError> {
    match &opts.spec {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| PrudentiaError::io(format!("campaign spec {}", path.display()), e))?;
            CampaignSpec::from_json(&json)
        }
        None => Ok(CampaignSpec::example()),
    }
}

fn cmd_campaign(opts: &Opts) -> Result<i32, PrudentiaError> {
    let action = opts.positional.first().map(String::as_str).ok_or_else(|| {
        PrudentiaError::Usage(
            "campaign needs an action: run | status | report | example | expand".to_string(),
        )
    })?;
    match action {
        "example" => {
            let json = serde_json::to_string(&CampaignSpec::example()).expect("example serializes");
            println!("{json}");
            Ok(0)
        }
        "expand" => {
            let spec = campaign_spec(opts)?;
            spec.validate()?;
            let cells = spec.expand();
            println!(
                "campaign {} ({:016x}): {} cells",
                spec.name,
                spec.fingerprint(),
                cells.len()
            );
            for c in &cells {
                println!("  {} {}", c.fingerprint_hex(), c.label());
            }
            Ok(0)
        }
        "run" => cmd_campaign_run(opts),
        "status" | "report" => {
            let Some(store_dir) = opts.store.clone() else {
                return Err(PrudentiaError::Usage(format!(
                    "campaign {action} needs --store DIR"
                )));
            };
            let snap = prudentia_store::Snapshot::read(&store_dir)?;
            if action == "status" {
                print!("{}", campaign::campaign_status_text(&snap));
                return Ok(0);
            }
            let out_dir = opts
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from("prudentia-report"));
            std::fs::create_dir_all(&out_dir)
                .map_err(|e| PrudentiaError::io(format!("report dir {}", out_dir.display()), e))?;
            let records = campaign::stored_outcomes(&snap, None);
            let files = [
                ("campaign.csv", campaign::campaign_cells_csv(&records)),
                (
                    "campaign_marginals.csv",
                    campaign::campaign_marginals_csv(&records),
                ),
                ("campaign_grid.csv", campaign::campaign_grid_csv(&records)),
                ("campaign_status.txt", campaign::campaign_status_text(&snap)),
            ];
            for (name, body) in files {
                let path = out_dir.join(name);
                std::fs::write(&path, body)
                    .map_err(|e| PrudentiaError::io(format!("report {}", path.display()), e))?;
                println!("wrote {}", path.display());
            }
            Ok(0)
        }
        other => Err(PrudentiaError::Usage(format!(
            "unknown campaign action: {other} (expected run | status | report | example | expand)"
        ))),
    }
}

fn cmd_campaign_run(opts: &Opts) -> Result<i32, PrudentiaError> {
    let Some(store_dir) = opts.store.clone() else {
        return Err(PrudentiaError::Usage(
            "campaign run needs --store DIR".to_string(),
        ));
    };
    let _cmd_span = prudentia_obs::span!("campaign-run");
    let registry = opts
        .metrics
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));
    let mut store = prudentia_store::Store::open(&store_dir)?;
    let mut config = CampaignRunConfig::new(campaign_spec(opts)?);
    config.adaptive = !opts.no_adaptive;
    config.redeal = opts.redeal;
    config.max_cells = opts.max_cells;
    config.metrics = registry.clone();
    if let Some(path) = &opts.cache {
        config.cache = Some(Arc::new(TrialCache::load(path)?));
    }
    config.shutdown = shutdown_flag(opts);

    let report = crate::campaign::run_campaign(&mut store, &config)?;
    let p = &report.progress;
    println!(
        "campaign {}: {}/{} cells done ({} run, {} skipped, {} redealt)",
        p.name,
        p.cells_done,
        p.cells_total,
        report.cells_run,
        report.cells_skipped,
        report.cells_redealt,
    );
    println!(
        "trials: {} of {} budget used ({:.0}% saved), adaptive {}",
        p.trials_used,
        p.budget_total,
        p.savings_ratio() * 100.0,
        if config.adaptive { "on" } else { "off" },
    );
    if report.interrupted {
        println!("interrupted; progress saved — rerun with --store to resume");
    }
    if let (Some(cache), Some(path)) = (&config.cache, &opts.cache) {
        cache.save(path)?;
    }
    if opts.stats {
        print_phase_breakdown();
    }
    if let (Some(reg), Some(path)) = (&registry, &opts.metrics) {
        write_metrics(reg, path);
    }
    Ok(0)
}

fn cmd_report(opts: &Opts) -> Result<i32, PrudentiaError> {
    let config = serve_config(opts, "report")?;
    let out_dir = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("prudentia-report"));
    let written = write_report(&config, &out_dir)?;
    for name in written {
        println!("wrote {}", out_dir.join(name).display());
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_command_is_a_usage_error() {
        let err = run(&[]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn unknown_service_maps_to_its_own_exit_code() {
        let err = run(&args(&["classify", "nosuch"])).unwrap_err();
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn missing_flag_value_is_reported() {
        let err = run(&args(&["matrix", "--trials"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--trials"));
    }

    #[test]
    fn bad_flag_value_is_reported() {
        let err = run(&args(&["matrix", "--trials", "many"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("many"));
    }

    #[test]
    fn serve_requires_a_store() {
        let err = run(&args(&["serve"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--store"));
    }

    #[test]
    fn help_paths_succeed() {
        assert_eq!(run(&args(&["--help"])).unwrap(), 0);
        for cmd in [
            "run", "matrix", "watch", "fleet", "serve", "report", "campaign", "validate", "list",
            "classify",
        ] {
            assert_eq!(run(&args(&[cmd, "--help"])).unwrap(), 0, "{cmd} --help");
        }
    }

    #[test]
    fn campaign_validates_action_and_store() {
        let err = run(&args(&["campaign"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "missing action");
        let err = run(&args(&["campaign", "dance"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "unknown action");
        let err = run(&args(&["campaign", "run"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "missing --store");
        assert!(err.to_string().contains("--store"));
        let err = run(&args(&["campaign", "status"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "status needs --store");
        assert_eq!(run(&args(&["campaign", "example"])).unwrap(), 0);
        assert_eq!(run(&args(&["campaign", "expand"])).unwrap(), 0);
        let err = run(&args(&[
            "campaign",
            "run",
            "--spec",
            "/nonexistent.json",
            "--store",
            "/tmp/x",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "unreadable spec file");
    }

    #[test]
    fn fleet_validates_action_and_store() {
        let err = run(&args(&["fleet"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "missing action");
        let err = run(&args(&["fleet", "spawn"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "missing --store");
        assert!(err.to_string().contains("--store"));
        let err = run(&args(&["fleet", "dance", "--store", "/tmp/nowhere"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "unknown action");
        let err = run(&args(&["fleet", "merge", "--store", "/tmp/nowhere"])).unwrap_err();
        assert_ne!(err.exit_code(), 0, "merge on a non-fleet root fails");
    }

    #[test]
    fn shard_flag_is_validated_and_needs_daemon_mode() {
        let err = run(&args(&["watch", "--shard", "3/2"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "index out of range");
        let err = run(&args(&["watch", "--shard", "0/2"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--store"), "needs daemon mode");
    }

    #[test]
    fn unknown_scenario_is_a_usage_error() {
        let opts = parse_opts(&args(&["--scenario", "tbf"])).unwrap();
        let err = settings_for(&opts).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn services_subset_parses_and_validates() {
        let opts = parse_opts(&args(&["--services", "iperf-cubic, iperf-reno"])).unwrap();
        let svcs = matrix_services(&opts).expect("known labels");
        assert_eq!(svcs.len(), 2);
        let opts = parse_opts(&args(&["--services", "iperf-cubic,unheard-of"])).unwrap();
        let err = matrix_services(&opts).unwrap_err();
        assert_eq!(err.exit_code(), 3);
    }
}
