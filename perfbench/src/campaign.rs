//! `campaign-apps-50m`: a fixed campaign with adaptive budgets over
//! three service mixes at 50 Mbps with LTE impairment, under fq_codel
//! and dualpi2 (6 cells), run serially as `run_campaign` runs it.

use crate::recon::{self, TrialInput};
use crate::trace::Tracer;
use crate::{expected, median, setup_time, Args, Checks, Metrics, Report, WorkDir};
use prudentia_core::campaign::{stored_outcomes, CampaignCell, CellContext, MixSpec};
use prudentia_core::{
    execute_cell, run_campaign, trial_seed, CampaignRunConfig, CampaignSpec, CellOutcome,
    CellRecord, MetricsRegistry, TrialPolicy,
};
use prudentia_store::{kinds, Record, Store};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "campaign-apps-50m";

/// The campaign; the variant only selects the seed stream.
fn spec(variant: u64) -> CampaignSpec {
    let mix = |label: &str, services: &[&str]| MixSpec {
        label: label.into(),
        services: services.iter().map(|s| s.to_string()).collect(),
        background: None,
    };
    CampaignSpec {
        name: "perfbench-apps-50m".into(),
        mixes: vec![
            // Two services: the pairwise path through the executor.
            mix("mega-youtube", &["Mega", "YouTube"]),
            // Three and four services: the N-way trial loop.
            mix("mega-youtube-netflix", &["Mega", "YouTube", "Netflix"]),
            mix(
                "web-rtc-bulk-l4s",
                &["wikipedia", "Meet", "OneDrive", "iPerf-Prague"],
            ),
        ],
        bandwidth_mbps: vec![50.0],
        rtt_ms: vec![50],
        bdp_multiples: vec![4],
        qdiscs: vec!["fq_codel".into(), "dualpi2".into()],
        impairments: vec!["lte".into()],
        policy: TrialPolicy {
            min_trials: 6,
            batch: 1,
            max_trials: 10,
        },
        duration_secs: 60,
        warmup_secs: 10,
        cooldown_secs: 10,
        seed_base: variant,
    }
}

/// The outputs the check pins: every cell's verdicts and trial count.
struct Outputs {
    verdict_fnv: u64,
    trials_used: u64,
    cells: usize,
}

fn outputs(mut outcomes: Vec<CellOutcome>) -> Outputs {
    outcomes.sort_by_key(|o| o.fingerprint);
    let projection: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let verdicts: Vec<String> = o
                .services
                .iter()
                .map(|s| format!("{}={}", s.name, s.verdict.slug()))
                .collect();
            format!(
                "{:016x} {} trials={} converged={} locked={}",
                o.fingerprint,
                verdicts.join(","),
                o.trials_used,
                o.converged,
                o.locked_early
            )
        })
        .collect();
    Outputs {
        verdict_fnv: prudentia_store::fnv1a_key(&[&projection.join("\n")]),
        trials_used: outcomes.iter().map(|o| o.trials_used as u64).sum(),
        cells: outcomes.len(),
    }
}

fn stored(store: &Store) -> Outputs {
    outputs(
        stored_outcomes(store, None)
            .into_iter()
            .map(|r| r.outcome)
            .collect(),
    )
}

fn check(checks: &mut Checks, variant: u64, out: &Outputs, events: Option<u64>) {
    let pin = |k: &str| expected(WORKLOAD, variant, k);
    let mut problems = Vec::new();
    if out.cells != 6 {
        problems.push(format!("{} cells", out.cells));
    }
    if Some(out.verdict_fnv) != pin("verdict_fnv") {
        problems.push(format!("verdict digest {:016x}", out.verdict_fnv));
    }
    if Some(out.trials_used) != pin("trials_used") {
        problems.push(format!("trials_used {}", out.trials_used));
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

/// One `run_campaign` pass into a fresh store.
fn pass(dir: &Path, variant: u64, metrics: Option<Arc<MetricsRegistry>>) -> (f64, Outputs) {
    std::fs::remove_dir_all(dir).ok();
    let mut store = Store::open(dir).expect("open store");
    let mut config = CampaignRunConfig::new(spec(variant));
    config.metrics = metrics;
    let t = Instant::now();
    let report = run_campaign(&mut store, &config).expect("campaign");
    let wall = t.elapsed().as_secs_f64();
    let mut out = stored(&store);
    if report.interrupted {
        out.cells = 0;
    }
    (wall, out)
}

pub fn run(args: &Args) -> Option<Report> {
    let variant = crate::variant(args.seed);
    let work = WorkDir::new(WORKLOAD);
    if args.bless {
        let registry = Arc::new(MetricsRegistry::new());
        let (_, out) = pass(&work.path("bless"), variant, Some(Arc::clone(&registry)));
        crate::print_pins(
            WORKLOAD,
            variant,
            &[
                ("verdict_fnv", out.verdict_fnv),
                ("trials_used", out.trials_used),
                ("sim_events", registry.counter("sim/events_total").get()),
            ],
        );
        return None;
    }
    // Set-up: the store opened, the spec validated and expanded. The
    // store is created once beforehand (see watch.rs).
    let dir = work.path("setup");
    drop(Store::open(&dir).expect("create store"));
    let (setup_s, _) = setup_time(40, 16, Duration::from_millis(50), || {
        let store = Store::open(&dir).expect("open store");
        let spec = spec(variant);
        spec.validate().expect("valid campaign");
        (store, spec.canonicalize().expand())
    });
    let mut checks = Checks::default();
    if args.trace {
        return Some(traced(args, &work, variant, checks));
    }

    let start = Instant::now();
    let mut per_cell = Vec::new();
    let mut rates = Vec::new();
    while per_cell.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (wall, out) = pass(&work.path("store"), variant, None);
        check(&mut checks, variant, &out, None);
        per_cell.push(wall / 6.0);
        rates.push(out.trials_used as f64 / wall);
    }
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s, "s");
    metrics.set("throughput_per_s", median(&rates), "1/s");
    metrics.set("latency_ms_p50", median(&per_cell) * 1e3, "ms");
    metrics.set("peak_rss_mb", crate::peak_rss_mb(), "MB");
    let mut extra = Metrics::default();
    extra.set("cells_per_hour", 3600.0 / median(&per_cell), "1/h");
    extra.set("trials_per_s", median(&rates), "1/s");
    extra.set("passes", per_cell.len() as f64, "count");
    Some(Report {
        checks,
        metrics,
        extra,
    })
}

fn is_pairwise(cell: &CampaignCell) -> bool {
    cell.mix.services.len() == 2 && cell.mix.background.is_none()
}

/// Trial `index` of a cell, seeded as the campaign seeds it.
fn trial_input(spec: &CampaignSpec, cell: &CampaignCell, index: usize) -> TrialInput {
    let setting = cell.setting().expect("valid cell");
    let services = cell.foreground_services().expect("known services");
    if is_pairwise(cell) {
        let seed = trial_seed(services[0].name(), services[1].name(), &setting.name, index);
        let ctx = CellContext::new(spec, cell.clone());
        return TrialInput::from_spec(ctx.duration.spec(
            services[0].clone(),
            services[1].clone(),
            setting,
            seed,
        ));
    }
    let roster: Vec<&str> = services.iter().map(|s| s.name()).collect();
    let seed = trial_seed(&cell.mix.label, &roster.join("+"), &setting.name, index);
    TrialInput {
        services,
        setting,
        duration_secs: spec.duration_secs,
        warmup_secs: spec.warmup_secs,
        cooldown_secs: spec.cooldown_secs,
        seed,
        pair: None,
    }
}

fn traced(args: &Args, work: &WorkDir, variant: u64, mut checks: Checks) -> Report {
    let mut m = Metrics::default();
    let (untraced_wall, out) = pass(&work.path("untraced"), variant, None);
    check(&mut checks, variant, &out, None);

    // The traced pass drives the cells itself, in run_campaign's order,
    // so each cell and each store append gets its own span.
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0);
    prudentia_obs::span::reset();
    let registry = Arc::new(MetricsRegistry::new());
    let spec = spec(variant).canonicalize();
    let dir = work.path("traced");
    std::fs::remove_dir_all(&dir).ok();
    let span = tr.open("open", "store", 0);
    let mut store = Store::open(&dir).expect("open store");
    tr.close(span);
    m.set("store.open_ms", tr.secs(span) * 1e3, "ms");
    let window = tr.open_window("campaign", "campaign", 1);
    let mut outcomes = Vec::new();
    let mut pair_cells = Vec::new();
    let mut mix_cells = Vec::new();
    let mut appends = Vec::new();
    let mut mix_spans = Vec::new();
    for (i, cell) in spec.expand().into_iter().enumerate() {
        let group = i as u64 + 1;
        let pairwise = is_pairwise(&cell);
        let ctx = CellContext::new(&spec, cell);
        let before = prudentia_obs::span::snapshot();
        let events_before = registry.counter("sim/events_total").get();
        let span = tr.open(
            if pairwise { "pair_cell" } else { "mix_cell" },
            "campaign",
            group,
        );
        let outcome = execute_cell(&ctx, true, 0, None, Some(Arc::clone(&registry))).expect("cell");
        tr.close(span);
        // Pairwise cells run on the executor, whose trial spans split the
        // cell; the N-way loop has none (see below).
        let after = prudentia_obs::span::snapshot();
        let delta = |path: &str| {
            let total = |s: &std::collections::BTreeMap<String, prudentia_obs::SpanStat>| {
                s.get(path).map_or(0.0, |x| x.total.as_secs_f64())
            };
            total(&after) - total(&before)
        };
        tr.attribute(span, "runner", delta("trial") - delta("trial/sim"));
        tr.attribute(span, "sim", delta("trial/sim"));
        if pairwise {
            pair_cells.push(tr.secs(span));
        } else {
            mix_cells.push(tr.secs(span));
            let events = registry.counter("sim/events_total").get() - events_before;
            mix_spans.push((i, span, outcome.trials_used, events));
        }
        let record = CellRecord {
            campaign: spec.name.clone(),
            campaign_fingerprint: spec.fingerprint(),
            code_version: "perfbench".into(),
            adaptive: true,
            outcome: outcome.clone(),
        };
        let payload = Record::encode(kinds::CELL, &record).expect("encode cell");
        let span = tr.open("append", "store", group);
        store
            .append(
                kinds::CELL,
                outcome.fingerprint,
                prudentia_core::campaign::CELL_SCHEMA_VERSION,
                payload,
            )
            .expect("append cell");
        tr.close(span);
        appends.push(tr.secs(span));
        outcomes.push(outcome);
    }
    tr.close(window);
    let window_wall = tr.secs(window);
    let snap = registry.snapshot();
    let events = snap.counters.get("sim/events_total").copied().unwrap_or(0);
    let budget: usize = outcomes.iter().map(|o| o.budget_max).sum();
    let traced_out = outputs(outcomes);
    check(&mut checks, variant, &traced_out, Some(events));
    checks.op(stored(&store).verdict_fnv == traced_out.verdict_fnv, || {
        format!("{WORKLOAD}: stored cells differ from executed cells")
    });

    // Per-trial costs from trial 0 of every cell.
    let cells = spec.expand();
    let mut costs = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let input = trial_input(&spec, cell, 0);
        let cost = recon::reconstruct(&mut tr, 100 + i as u64, &input, None, 0.0);
        if input.pair.is_some() {
            let verdict = recon::faithful(&input, &cost);
            checks.op(verdict.is_ok(), || {
                format!("{WORKLOAD} reconstruction {i}: {}", verdict.unwrap_err())
            });
        }
        costs.push(cost);
    }
    recon::report(&mut m, &costs);
    // The N-way loop exposes no span: every trial of a mix cell is
    // rebuilt and run again, must process as many events as the cell
    // did, and the cell's time is split by those trials' stage costs.
    // The split is not scaled to the cell's span, so an estimate beyond
    // the span shows as a negative unexplained share; each cell's miss,
    // either way, adds to obs.estimate_error_ratio.
    let mut miss_s = 0.0;
    let mut mix_span_s = 0.0;
    for (i, span, trials, cell_events) in mix_spans {
        let rerun: Vec<recon::TrialCost> = (1..trials)
            .map(|k| {
                let input = trial_input(&spec, &cells[i], k);
                recon::reconstruct(&mut tr, 1000 + 100 * i as u64 + k as u64, &input, None, 0.0)
            })
            .collect();
        let all: Vec<&recon::TrialCost> = std::iter::once(&costs[i]).chain(&rerun).collect();
        let events: u64 = all.iter().map(|c| c.events).sum();
        checks.op(events == cell_events, || {
            format!(
                "{WORKLOAD} cell {i}: rebuilt trials ran {events} events, the cell {cell_events}"
            )
        });
        let sum = |f: &dyn Fn(&recon::TrialCost) -> f64| all.iter().map(|c| f(c)).sum::<f64>();
        let parts = [
            ("sim", sum(&|c| c.run_s)),
            ("apps", sum(&|c| c.build_s)),
            ("runner", sum(&|c| c.setup_s - c.build_s + c.extract_s)),
        ];
        let mut estimate_s = 0.0;
        for (layer, secs) in parts {
            tr.attribute(span, layer, secs);
            estimate_s += secs;
        }
        miss_s += (estimate_s - tr.secs(span)).abs();
        mix_span_s += tr.secs(span);
    }
    m.set(
        "obs.estimate_error_ratio",
        miss_s / mix_span_s.max(1e-9),
        "ratio",
    );

    m.set("sim.events", events as f64, "count");
    let trial_wall = snap.histograms.get("executor/trial_wall_ns");
    m.set(
        "runner.trial_ms_p50",
        trial_wall.map_or(0.0, |h| h.p50 / 1e6),
        "ms",
    );
    m.set(
        "runner.trial_ms_p90",
        trial_wall.map_or(0.0, |h| h.p90 / 1e6),
        "ms",
    );
    let trials_run = snap
        .counters
        .get("executor/trials_run")
        .copied()
        .unwrap_or(0);
    m.set("executor.trials_run", trials_run as f64, "count");
    m.set("campaign.cells", traced_out.cells as f64, "count");
    m.set(
        "campaign.trials_used",
        traced_out.trials_used as f64,
        "count",
    );
    m.set(
        "campaign.trials_saved_ratio",
        1.0 - traced_out.trials_used as f64 / budget.max(1) as f64,
        "ratio",
    );
    m.set("campaign.pair_cell_s", median(&pair_cells), "s");
    m.set("campaign.mix_cell_s", median(&mix_cells), "s");
    let stats = store.stats();
    m.set("store.appends", stats.appends as f64, "count");
    m.set(
        "store.bytes_per_record",
        stats.bytes_written as f64 / stats.appends.max(1) as f64,
        "bytes",
    );
    m.set(
        "store.append_us_p50",
        crate::quantile(&appends, 0.5) * 1e6,
        "us",
    );
    m.set(
        "store.append_us_p99",
        crate::quantile(&appends, 0.99) * 1e6,
        "us",
    );
    m.set(
        "obs.trace_overhead_ratio",
        window_wall / untraced_wall,
        "ratio",
    );
    tr.coverage(window)
        .report(&mut m, tr.spans.len(), t0.elapsed().as_secs_f64());
    crate::write_trace(&tr, WORKLOAD, args.seed);
    Report {
        checks,
        metrics: m,
        extra: Metrics::default(),
    }
}
