//! The Prudentia watchdog benchmark.
//!
//! One command runs one workload for a fixed wall-clock budget, checks
//! the program's outputs, prints every metric by name with its unit,
//! and ends with one JSON result line:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload watch-bulk-8m --seed 3 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with the
//! benchmark's tracing off; `--trace 1` makes a separate traced run and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod campaign;
mod recon;
mod serve;
mod sol;
mod trace;
mod watch;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "watch-bulk-8m",
    "campaign-apps-50m",
    "serve-read",
    "serve-churn",
];

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 72] = [
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.host_us_per_sim_s", "us/s"),
    ("sim.arena_allocs", "count"),
    ("sim.queue_drops", "count"),
    ("sim.queue_depth_p99_pkts", "pkts"),
    ("sim.sol_ratio", "ratio"),
    ("sim.self_s", "s"),
    ("aqm.droptail.drops", "count"),
    ("aqm.fq_codel.drops", "count"),
    ("aqm.dualpi2.drops", "count"),
    ("cc.NewReno.on_ack_ns", "ns"),
    ("cc.NewReno.on_ack_calls", "count"),
    ("cc.Cubic.on_ack_ns", "ns"),
    ("cc.Cubic.on_ack_calls", "count"),
    ("cc.BbrV1Linux515.on_ack_ns", "ns"),
    ("cc.BbrV1Linux515.on_ack_calls", "count"),
    ("cc.BbrV1Linux415.on_ack_ns", "ns"),
    ("cc.BbrV1Linux415.on_ack_calls", "count"),
    ("cc.self_s", "s"),
    ("transport.packets_sent", "count"),
    ("transport.retransmits", "count"),
    ("transport.rtos", "count"),
    ("transport.goodput_ratio", "ratio"),
    ("apps.build_us", "us"),
    ("apps.flows", "count"),
    ("apps.self_s", "s"),
    ("runner.setup_us", "us"),
    ("runner.extract_us", "us"),
    ("runner.trial_ms_p50", "ms"),
    ("runner.trial_ms_p90", "ms"),
    ("runner.self_s", "s"),
    ("executor.trials_run", "count"),
    ("executor.busy_ratio", "ratio"),
    ("executor.idle_s", "s"),
    ("executor.steals", "count"),
    ("executor.trials_per_pair", "count"),
    ("executor.warm_replay_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us_p50", "us"),
    ("cache.save_ms", "ms"),
    ("cache.file_bytes", "bytes"),
    ("cache.self_s", "s"),
    ("store.appends", "count"),
    ("store.bytes_per_record", "bytes"),
    ("store.append_us_p50", "us"),
    ("store.append_us_p99", "us"),
    ("store.open_ms", "ms"),
    ("store.refresh_us", "us"),
    ("store.self_s", "s"),
    ("serve.ratio_304", "ratio"),
    ("serve.bytes_per_req", "bytes"),
    ("serve.render_ms", "ms"),
    ("serve.view_rebuilds", "count"),
    ("serve.req_us_p99", "us"),
    ("serve.view_lag_ms_p50", "ms"),
    ("serve.view_lag_ms_p90", "ms"),
    ("serve.self_s", "s"),
    ("campaign.cells", "count"),
    ("campaign.trials_used", "count"),
    ("campaign.trials_saved_ratio", "ratio"),
    ("campaign.pair_cell_s", "s"),
    ("campaign.mix_cell_s", "s"),
    ("campaign.self_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.unexplained_ratio", "ratio"),
    ("obs.estimate_error_ratio", "ratio"),
    ("obs.spans", "count"),
    ("obs.trace_wall_s", "s"),
    ("obs.capacity_s", "s"),
    ("obs.explained_s", "s"),
    ("obs.idle_s", "s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Print the pinned outputs of this seed instead of checking them.
    pub bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        bless,
    })
}

/// Metrics by name, with units.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }
}

/// Counts operations and output-check failures; every failure is
/// printed to stderr and counts in `failed`.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What one workload run measured.
pub struct Report {
    pub checks: Checks,
    /// The metrics this run reports (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Human-readable figures under the names the watchdog's users know
    /// (`cycle_s`, `req_us_p99`, ...), printed but not in the result line.
    pub extra: Metrics,
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> WorkDir {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create .bench_work");
        WorkDir(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Set-up time in seconds, plus the last result: `batches` batches of
/// `per_batch` calls of `f`, a batch every `gap`, and the mean call time
/// of the middle half of the batches. On a shared host a system call's
/// cost moves by up to 2x from one second to the next; spreading the
/// batches over several seconds and averaging the middle half gives a
/// figure that depends on the typical mix of fast and slow spells, not
/// on which spell a run began in, and a batch a stall hit is dropped.
pub fn setup_time<T>(
    batches: usize,
    per_batch: usize,
    gap: std::time::Duration,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(batches);
    let mut last = None;
    for _ in 0..batches {
        let begun = Instant::now();
        let mut batch = 0.0;
        for _ in 0..per_batch {
            let t = Instant::now();
            let v = f();
            batch += t.elapsed().as_secs_f64();
            // The previous result is dropped outside the timed region.
            last = Some(v);
        }
        times.push(batch / per_batch as f64);
        std::thread::sleep(gap.saturating_sub(begun.elapsed()));
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let middle = &times[batches / 4..batches - batches / 4];
    (
        middle.iter().sum::<f64>() / middle.len() as f64,
        last.expect("at least one call"),
    )
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Number of input variants a seed selects among; each variant's
/// outputs are pinned in `expected.json`.
pub const VARIANTS: u64 = 16;

pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

/// A pinned output of a workload variant (`expected.json`, written by
/// `--bless`).
pub fn expected(workload: &str, variant: u64, key: &str) -> Option<u64> {
    static PINS: std::sync::OnceLock<BTreeMap<String, u64>> = std::sync::OnceLock::new();
    PINS.get_or_init(|| {
        serde_json::from_str(include_str!("../expected.json")).expect("expected.json parses")
    })
    .get(&format!("{workload}/{variant:02}/{key}"))
    .copied()
}

/// Print the pinned outputs of one variant as `expected.json` entries.
pub fn print_pins(workload: &str, variant: u64, pins: &[(&str, u64)]) {
    for (key, value) in pins {
        println!("  \"{workload}/{variant:02}/{key}\": {value},");
    }
}

/// Write a traced run's spans; a failure to write is reported, not fatal.
pub fn write_trace(tr: &trace::Tracer, workload: &str, seed: u64) {
    let path = trace::trace_path(workload, seed);
    match tr.write(&path) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "watch-bulk-8m" => watch::run(&args),
        "campaign-apps-50m" => campaign::run(&args),
        "serve-read" => serve::run(&args, false),
        "serve-churn" => serve::run(&args, true),
        _ => unreachable!("workload validated in parse_args"),
    };
    let Some(mut report) = report else {
        // --bless printed the pinned outputs.
        return ExitCode::SUCCESS;
    };

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        match report.metrics.0.get(*name) {
            Some((_, u)) => assert_eq!(u, unit, "{name}: unit drift"),
            None if args.trace => {
                println!(
                    "{name} = 0 {unit} (layer not exercised by {})",
                    args.workload
                );
                report.metrics.set(name, 0.0, unit);
            }
            None => panic!("{} did not measure {name}", args.workload),
        }
    }
    let checks = &report.checks;
    let fail_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    for (name, (value, unit)) in &report.extra.0 {
        println!("{name} = {value} {unit}");
    }
    println!(
        "fail_ratio = {fail_ratio} ratio ({} of {})",
        checks.failed, checks.attempted
    );
    let mut fields = Vec::new();
    for (name, unit) in names {
        let (value, _) = report.metrics.0[*name];
        println!("{name} = {value} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
