//! Reconstruction of sampled trials from the program's public pieces
//! (`Engine::with_scenario`, `build_service` / `build_simple_flow`,
//! `Engine::run_until`, the trace accessors), with a span around each
//! stage and a timing decorator around every congestion controller.
//!
//! A pairwise reconstruction must reproduce `run_experiment`'s event
//! count and result JSON byte for byte; `faithful` checks that, so the
//! per-layer costs measured here are costs of the same work the
//! watchdog does.

use crate::trace::Tracer;
use prudentia_apps::{build_service, AppHandle, ServiceSpec};
use prudentia_cc::{
    AckSample, CcaKind, CongestionControl, EcnMode, EcnSample, LossSample, SentSample,
};
use prudentia_core::{
    run_experiment_instrumented, AppSummary, ExperimentResult, ExperimentSpec, SideResult,
    EXTERNAL_LOSS_DISCARD,
};
use prudentia_obs::Histogram;
use prudentia_sim::{Engine, NetworkSetting, PathSpec, ServiceId, SimTime};
use prudentia_stats::{max_min_allocation, mmf_share};
use prudentia_transport::{build_simple_flow, FlowHandle, UnlimitedSource};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Per-algorithm hook costs, keyed by registry name.
#[derive(Debug, Default, Clone, Copy)]
pub struct CcCost {
    pub on_ack_calls: u64,
    pub on_ack_ns: f64,
    /// All event hooks together (ACK, loss, timeout, send, ECN).
    pub hook_ns: f64,
}

pub type CcLedger = Rc<RefCell<BTreeMap<&'static str, CcCost>>>;

/// Cost of one `Instant::now()` + `elapsed()` pair, subtracted from
/// every timed hook call so the figures estimate the hook alone.
pub fn timer_overhead_ns() -> f64 {
    let n = 200_000;
    let t = Instant::now();
    for _ in 0..n {
        let s = Instant::now();
        black_box(s.elapsed());
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// A congestion controller that times every event hook of the one it
/// wraps and forwards every trait method, default ones included.
#[derive(Debug)]
struct TimedCc {
    inner: Box<dyn CongestionControl>,
    key: &'static str,
    ledger: CcLedger,
    overhead_ns: f64,
}

impl TimedCc {
    fn timed<T>(&mut self, is_ack: bool, f: impl FnOnce(&mut dyn CongestionControl) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        let ns = (t.elapsed().as_nanos() as f64 - self.overhead_ns).max(0.0);
        let mut ledger = self.ledger.borrow_mut();
        let cost = ledger.entry(self.key).or_default();
        cost.hook_ns += ns;
        if is_ack {
            cost.on_ack_calls += 1;
            cost.on_ack_ns += ns;
        }
        out
    }
}

impl CongestionControl for TimedCc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_ack(&mut self, ack: &AckSample) {
        self.timed(true, |cc| cc.on_ack(ack))
    }
    fn on_loss(&mut self, loss: &LossSample) {
        self.timed(false, |cc| cc.on_loss(loss))
    }
    fn on_timeout(&mut self, loss: &LossSample) {
        self.timed(false, |cc| cc.on_timeout(loss))
    }
    fn on_packet_sent(&mut self, sent: &SentSample) {
        self.timed(false, |cc| cc.on_packet_sent(sent))
    }
    fn on_ecn(&mut self, ecn: &EcnSample) {
        self.timed(false, |cc| cc.on_ecn(ecn))
    }
    fn ecn_mode(&self) -> EcnMode {
        self.inner.ecn_mode()
    }
    fn cwnd_bytes(&self) -> u64 {
        self.inner.cwnd_bytes()
    }
    fn pacing_rate_bps(&self) -> Option<f64> {
        self.inner.pacing_rate_bps()
    }
}

/// One trial to reconstruct: services on a setting, over a measured
/// window, with a seed.
pub struct TrialInput {
    pub services: Vec<ServiceSpec>,
    pub setting: NetworkSetting,
    pub duration_secs: u64,
    pub warmup_secs: u64,
    pub cooldown_secs: u64,
    pub seed: u64,
    /// A pairwise trial, extracted as `run_experiment` extracts it.
    pub pair: Option<ExperimentSpec>,
}

impl TrialInput {
    pub fn from_spec(spec: ExperimentSpec) -> TrialInput {
        TrialInput {
            services: vec![spec.contender.clone(), spec.incumbent.clone()],
            setting: spec.setting.clone(),
            duration_secs: spec.duration.as_secs_f64() as u64,
            warmup_secs: spec.warmup.as_secs_f64() as u64,
            cooldown_secs: spec.cooldown.as_secs_f64() as u64,
            seed: spec.seed,
            pair: Some(spec),
        }
    }
}

/// What one reconstructed trial did and cost.
#[derive(Default)]
pub struct TrialCost {
    pub events: u64,
    /// `ExperimentResult` JSON of a pairwise trial.
    pub result_json: Option<String>,
    pub arena_allocs: u64,
    pub queue_drops: u64,
    pub qdisc: &'static str,
    pub queue_depth: Histogram,
    pub packets_sent: u64,
    pub retransmits: u64,
    pub rtos: u64,
    pub unique_bytes: u64,
    pub wire_bytes: u64,
    pub flows: u64,
    pub delivered_pkts: u64,
    pub setup_s: f64,
    pub build_s: f64,
    pub run_s: f64,
    pub extract_s: f64,
    pub cc_s: f64,
    pub sim_secs: f64,
}

/// Single-flow, unlimited, uncapped bulk services get their controller
/// wrapped; anything else is built by `build_service` unchanged.
fn timed_bulk_cca(spec: &ServiceSpec) -> Option<CcaKind> {
    match spec {
        ServiceSpec::Bulk {
            cca,
            flows: 1,
            cap_bps: None,
            file_bytes: None,
            ..
        } => Some(*cca),
        _ => None,
    }
}

/// Reconstruct one trial under span `trial` (group `group`). With a
/// ledger, single-flow bulk services run behind the timing decorator.
pub fn reconstruct(
    tr: &mut Tracer,
    group: u64,
    input: &TrialInput,
    ledger: Option<&CcLedger>,
    overhead_ns: f64,
) -> TrialCost {
    let mut cost = TrialCost::default();
    let trial = tr.open("trial", "runner", group);

    let t = Instant::now();
    let span = tr.open("engine", "sim", group);
    let mut engine = Engine::with_scenario(
        input.setting.bottleneck(),
        &input.setting.scenario,
        input.seed,
    );
    if input.pair.is_some() {
        engine.set_service_pair(ServiceId(0), ServiceId(1));
    }
    tr.close(span);

    let t_build = Instant::now();
    let span = tr.open("build", "apps", group);
    let rtt = input.setting.base_rtt;
    let mut flows: Vec<FlowHandle> = Vec::new();
    let mut apps: Vec<AppHandle> = Vec::new();
    for (i, svc) in input.services.iter().enumerate() {
        let id = ServiceId(i as u32);
        match (ledger, timed_bulk_cca(svc)) {
            (Some(ledger), Some(kind)) => {
                let cc = TimedCc {
                    inner: kind.build(SimTime::ZERO),
                    key: kind.registry_name(),
                    ledger: Rc::clone(ledger),
                    overhead_ns,
                };
                flows.push(build_simple_flow(
                    &mut engine,
                    id,
                    PathSpec::symmetric(rtt),
                    Box::new(cc),
                    Box::new(UnlimitedSource),
                ));
                apps.push(AppHandle::None);
            }
            _ => {
                let inst = build_service(svc, &mut engine, id, rtt);
                flows.extend(inst.flows);
                apps.push(inst.app);
            }
        }
    }
    tr.close(span);
    cost.build_s = t_build.elapsed().as_secs_f64();
    cost.setup_s = t.elapsed().as_secs_f64();

    let hook_ns_before: f64 = ledger.map_or(0.0, |l| l.borrow().values().map(|c| c.hook_ns).sum());
    let t = Instant::now();
    let span = tr.open("run_until", "sim", group);
    let duration = prudentia_sim::SimDuration::from_secs(input.duration_secs);
    engine.run_until(SimTime::ZERO + duration);
    cost.run_s = t.elapsed().as_secs_f64();
    let hook_ns_after: f64 = ledger.map_or(0.0, |l| l.borrow().values().map(|c| c.hook_ns).sum());
    cost.cc_s = (hook_ns_after - hook_ns_before) / 1e9;
    tr.attribute(span, "cc", cost.cc_s);
    tr.close(span);

    let t = Instant::now();
    let span = tr.open("extract", "runner", group);
    if let Some(spec) = &input.pair {
        let result = extract_pair(spec, &engine, &apps);
        cost.result_json = Some(serde_json::to_string(&result).expect("result encodes"));
    } else {
        black_box(extract_mix(input, &engine));
    }
    tr.close(span);
    cost.extract_s = t.elapsed().as_secs_f64();
    tr.close(trial);

    cost.events = engine.events_processed();
    cost.arena_allocs = engine.arena_stats().0;
    cost.queue_drops = engine.total_queue_drops();
    cost.qdisc = engine.qdisc_kind();
    cost.queue_depth.merge(engine.queue_depth_histogram());
    for f in &flows {
        let s = f.stats.borrow();
        cost.packets_sent += s.packets_sent;
        cost.retransmits += s.retransmits;
        cost.rtos += s.rtos;
        let r = f.recv.borrow();
        cost.unique_bytes += r.unique_bytes;
        cost.wire_bytes += r.wire_bytes;
    }
    cost.flows = flows.len() as u64;
    cost.delivered_pkts = (0..input.services.len())
        .map(|i| engine.trace().delivered_pkts(ServiceId(i as u32)))
        .sum();
    cost.sim_secs = input.duration_secs as f64;
    cost
}

/// `run_experiment`'s extraction, from public accessors.
fn extract_pair(spec: &ExperimentSpec, engine: &Engine, apps: &[AppHandle]) -> ExperimentResult {
    let (from_d, to_d) = spec.window();
    let from = SimTime::ZERO + from_d;
    let to = SimTime::ZERO + to_d;
    let a_bps = engine.trace().mean_bps(ServiceId(0), from, to);
    let b_bps = engine.trace().mean_bps(ServiceId(1), from, to);
    let bench_rate = spec.setting.effective_rate_bps(spec.duration);
    let alloc = max_min_allocation(
        bench_rate,
        &[spec.contender.demand(), spec.incumbent.demand()],
    );
    let side = |i: u32, svc: &ServiceSpec, bps: f64, alloc_bps: f64| SideResult {
        name: svc.name().to_string(),
        throughput_bps: bps,
        mmf_allocation_bps: alloc_bps,
        mmf_share: mmf_share(bps, alloc_bps),
        loss_rate: engine.queue_stats(ServiceId(i)).loss_rate(),
        mean_qdelay_ms: engine
            .trace()
            .mean_queueing_delay(ServiceId(i))
            .as_millis_f64(),
        high_delay_fraction: engine.trace().high_delay_fraction(ServiceId(i)),
        app: summarize_app(&apps[i as usize]),
    };
    let external_loss_rate = engine.external_loss_rate();
    ExperimentResult {
        utilization: (a_bps + b_bps) / bench_rate,
        contender: side(0, &spec.contender, a_bps, alloc[0]),
        incumbent: side(1, &spec.incumbent, b_bps, alloc[1]),
        external_loss_rate,
        discarded: external_loss_rate > EXTERNAL_LOSS_DISCARD,
        seed: spec.seed,
        series: None,
        queue_series: None,
    }
}

fn summarize_app(app: &AppHandle) -> AppSummary {
    match app {
        AppHandle::None => AppSummary::None,
        AppHandle::Video(m) => {
            let m = m.borrow();
            AppSummary::Video {
                mean_bitrate_bps: m.mean_bitrate_bps(),
                final_bitrate_bps: m.bitrate_history.last().map(|(_, b)| *b).unwrap_or(0.0),
                rebuffer_events: m.rebuffer_events,
                played_secs: m.played_secs,
                switches: m.switches,
            }
        }
        AppHandle::Rtc(m) => {
            let m = m.borrow();
            AppSummary::Rtc {
                majority_resolution: m.majority_resolution(),
                avg_fps: m.avg_fps(),
                freezes_per_minute: m.freezes_per_minute(),
            }
        }
        AppHandle::Web(m) => {
            let m = m.borrow();
            AppSummary::Web {
                median_plt_secs: m.median_plt().unwrap_or(f64::NAN),
                plt_samples: m.plt_samples.iter().map(|(_, p)| *p).collect(),
                incomplete_loads: m.incomplete_loads,
            }
        }
    }
}

/// The N-way campaign trial's extraction: per-service throughput and
/// MmF shares against the N-way max-min benchmark.
fn extract_mix(input: &TrialInput, engine: &Engine) -> Vec<f64> {
    let from = SimTime::from_secs(input.warmup_secs);
    let to = SimTime::from_secs(input.duration_secs.saturating_sub(input.cooldown_secs));
    let bps: Vec<f64> = (0..input.services.len())
        .map(|i| engine.trace().mean_bps(ServiceId(i as u32), from, to))
        .collect();
    let duration = prudentia_sim::SimDuration::from_secs(input.duration_secs);
    let rate = input.setting.effective_rate_bps(duration);
    let demands: Vec<_> = input.services.iter().map(|s| s.demand()).collect();
    let alloc = max_min_allocation(rate, &demands);
    bps.iter()
        .zip(&alloc)
        .map(|(b, a)| mmf_share(*b, *a))
        .collect()
}

/// Check a pairwise reconstruction against `run_experiment` itself:
/// same event count, byte-identical result JSON. Returns the wall time
/// of the untraced `run_experiment` call.
pub fn faithful(input: &TrialInput, cost: &TrialCost) -> Result<f64, String> {
    let spec = input.pair.as_ref().ok_or("not a pairwise trial")?;
    let t = Instant::now();
    let (result, events) = run_experiment_instrumented(spec);
    let wall = t.elapsed().as_secs_f64();
    let json = serde_json::to_string(&result).expect("result encodes");
    if events != cost.events {
        return Err(format!(
            "reconstruction processed {} events, run_experiment {events}",
            cost.events
        ));
    }
    if cost.result_json.as_deref() != Some(json.as_str()) {
        return Err("reconstructed result JSON differs from run_experiment's".to_string());
    }
    Ok(wall)
}

/// Layer metrics summed over a set of reconstructed trials.
pub fn report(m: &mut crate::Metrics, costs: &[TrialCost]) {
    let sum = |f: &dyn Fn(&TrialCost) -> f64| costs.iter().map(f).sum::<f64>();
    let events = sum(&|c| c.events as f64);
    let run_s = sum(&|c| c.run_s);
    let trial_s = sum(&|c| c.setup_s + c.run_s + c.extract_s);
    let sim_secs = sum(&|c| c.sim_secs);
    m.set("sim.events_per_s", events / run_s.max(1e-9), "1/s");
    m.set(
        "sim.host_us_per_sim_s",
        trial_s * 1e6 / sim_secs.max(1e-9),
        "us/s",
    );
    m.set("sim.arena_allocs", sum(&|c| c.arena_allocs as f64), "count");
    m.set("sim.queue_drops", sum(&|c| c.queue_drops as f64), "count");
    let mut depth = Histogram::new();
    for c in costs {
        depth.merge(&c.queue_depth);
    }
    m.set("sim.queue_depth_p99_pkts", depth.quantile(0.99), "pkts");
    for kind in ["droptail", "fq_codel", "dualpi2"] {
        let drops = sum(&|c| {
            if c.qdisc == kind {
                c.queue_drops as f64
            } else {
                0.0
            }
        });
        m.set(&format!("aqm.{kind}.drops"), drops, "count");
    }
    m.set(
        "transport.packets_sent",
        sum(&|c| c.packets_sent as f64),
        "count",
    );
    m.set(
        "transport.retransmits",
        sum(&|c| c.retransmits as f64),
        "count",
    );
    m.set("transport.rtos", sum(&|c| c.rtos as f64), "count");
    m.set(
        "transport.goodput_ratio",
        sum(&|c| c.unique_bytes as f64) / sum(&|c| c.wire_bytes as f64).max(1.0),
        "ratio",
    );
    let per_trial =
        |f: &dyn Fn(&TrialCost) -> f64| crate::median(&costs.iter().map(f).collect::<Vec<_>>());
    m.set("apps.build_us", per_trial(&|c| c.build_s * 1e6), "us");
    m.set("apps.flows", sum(&|c| c.flows as f64), "count");
    m.set("runner.setup_us", per_trial(&|c| c.setup_s * 1e6), "us");
    m.set("runner.extract_us", per_trial(&|c| c.extract_s * 1e6), "us");
}

/// Per-algorithm `on_ack` cost and call count.
pub fn report_cc(m: &mut crate::Metrics, ledger: &CcLedger) {
    for kind in [
        CcaKind::NewReno,
        CcaKind::Cubic,
        CcaKind::BbrV1Linux515,
        CcaKind::BbrV1Linux415,
    ] {
        let c = ledger
            .borrow()
            .get(kind.registry_name())
            .copied()
            .unwrap_or_default();
        let name = kind.registry_name();
        m.set(
            &format!("cc.{name}.on_ack_ns"),
            c.on_ack_ns / (c.on_ack_calls.max(1)) as f64,
            "ns",
        );
        m.set(
            &format!("cc.{name}.on_ack_calls"),
            c.on_ack_calls as f64,
            "count",
        );
    }
}
