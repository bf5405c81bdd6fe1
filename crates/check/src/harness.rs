//! Telemetry-tick harness: run raw CCA flows on a [`NetworkSetting`] and
//! sample cwnd / delivery rate / queue depth once per tick.
//!
//! This is deliberately *lower-level* than the watchdog's experiment
//! runner: it drives bare `build_simple_flow` senders with an unlimited
//! source, so the sampled dynamics are the CCA's own and not an
//! application model's. The engine, paths, queue sizing, and scenario all
//! come from the same [`NetworkSetting`] presets the watchdog uses, so a
//! conformance run exercises the production code path end to end.
//!
//! Everything sampled here is integer-valued (cwnd bytes, bits per tick,
//! packets), so a rendered trace is byte-stable whenever the simulation
//! is — which is what the golden-trace suite asserts.

use prudentia_cc::CcaKind;
use prudentia_sim::{Engine, NetworkSetting, PathSpec, ServiceId, SimDuration, SimTime};
use prudentia_transport::{build_simple_flow, FlowHandle, UnlimitedSource};

/// Sampling tick for conformance and golden traces (the telemetry tick).
pub const TICK: SimDuration = SimDuration::from_millis(100);

/// One telemetry-tick sample of a flow's dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRow {
    /// Tick timestamp in integer milliseconds.
    pub t_ms: u64,
    /// Congestion window at the last ACK before the tick, in bytes.
    pub cwnd_bytes: u64,
    /// Goodput over the tick in bits/s (acked bytes × 8 / tick — exact,
    /// since the tick is 100 ms this is acked bytes × 80).
    pub rate_bps: u64,
    /// Bottleneck queue depth at the most recent queue sample, packets.
    pub qdepth_pkts: u32,
}

/// A solo CCA run: its per-tick rows plus summary statistics.
#[derive(Debug)]
pub struct SoloRun {
    /// Per-tick telemetry.
    pub rows: Vec<TraceRow>,
    /// Mean goodput over the measurement window (post-warmup), bits/s.
    pub mean_bps: f64,
    /// `mean_bps` over the setting's effective link rate.
    pub utilization: f64,
    /// Mean bottleneck queueing delay seen by delivered packets.
    pub mean_qdelay: SimDuration,
    /// Base RTT of the flow's path (before the engine's path jitter).
    pub base_rtt: SimDuration,
}

/// A pairwise CCA run: means and max-min-fair shares for both flows.
#[derive(Debug)]
pub struct PairRun {
    /// Mean goodput of flow A (the first CCA), bits/s.
    pub mean_a: f64,
    /// Mean goodput of flow B, bits/s.
    pub mean_b: f64,
    /// A's achieved fraction of its max-min fair share (1.0 = exactly fair).
    pub share_a: f64,
    /// B's achieved fraction of its max-min fair share.
    pub share_b: f64,
    /// Combined link utilization over the measurement window.
    pub utilization: f64,
}

fn build(setting: &NetworkSetting, seed: u64) -> Engine {
    let mut engine = Engine::with_scenario(setting.bottleneck(), &setting.scenario, seed);
    // Conformance runs are always guarded, even in release builds.
    engine.enable_invariants();
    engine
}

fn attach(
    engine: &mut Engine,
    svc: ServiceId,
    kind: CcaKind,
    setting: &NetworkSetting,
) -> FlowHandle {
    build_simple_flow(
        engine,
        svc,
        PathSpec::symmetric(setting.base_rtt),
        kind.build(SimTime::ZERO),
        Box::new(UnlimitedSource),
    )
}

/// Step `engine` to `duration` in [`TICK`] increments, sampling `handle`
/// after each tick.
fn sample_ticks(engine: &mut Engine, handle: &FlowHandle, duration: SimDuration) -> Vec<TraceRow> {
    let ticks = duration.as_nanos() / TICK.as_nanos();
    let mut rows = Vec::with_capacity(ticks as usize);
    let mut last_acked = 0u64;
    for i in 1..=ticks {
        let t = SimTime::ZERO + TICK * i;
        engine.run_until(t);
        let acked = handle.stats.borrow().bytes_acked;
        let qdepth = engine
            .trace()
            .queue_samples()
            .last()
            .map_or(0, |s| s.total_pkts);
        rows.push(TraceRow {
            t_ms: t.as_nanos() / 1_000_000,
            cwnd_bytes: handle.stats.borrow().last_cwnd,
            // 100 ms tick: bytes × 8 / 0.1 s == bytes × 80, exactly.
            rate_bps: (acked - last_acked) * 80,
            qdepth_pkts: qdepth,
        });
        last_acked = acked;
    }
    rows
}

/// The measurement window: skip the first fifth of the run as warmup.
fn warmup(duration: SimDuration) -> SimTime {
    SimTime::ZERO + duration / 5
}

/// Run `kind` alone on `setting` for `duration` and sample its dynamics.
pub fn run_solo(
    kind: CcaKind,
    setting: &NetworkSetting,
    seed: u64,
    duration: SimDuration,
) -> SoloRun {
    let mut engine = build(setting, seed);
    let svc = ServiceId(0);
    let handle = attach(&mut engine, svc, kind, setting);
    let rows = sample_ticks(&mut engine, &handle, duration);
    let from = warmup(duration);
    let to = SimTime::ZERO + duration;
    let mean_bps = engine.trace().mean_bps(svc, from, to);
    let effective = setting.effective_rate_bps(duration);
    SoloRun {
        rows,
        mean_bps,
        utilization: mean_bps / effective,
        mean_qdelay: engine.trace().mean_queueing_delay(svc),
        base_rtt: setting.base_rtt,
    }
}

/// Run `a` against `b` on `setting` and report max-min-fair shares.
pub fn run_cca_pair(
    a: CcaKind,
    b: CcaKind,
    setting: &NetworkSetting,
    seed: u64,
    duration: SimDuration,
) -> PairRun {
    let mut engine = build(setting, seed);
    let (svc_a, svc_b) = (ServiceId(0), ServiceId(1));
    engine.set_service_pair(svc_a, svc_b);
    let ha = attach(&mut engine, svc_a, a, setting);
    let hb = attach(&mut engine, svc_b, b, setting);
    // Both handles share the engine; ticking once samples the clock for
    // both, and the summary statistics below come from the trace anyway.
    let _ = (ha, sample_ticks(&mut engine, &hb, duration));
    let from = warmup(duration);
    let to = SimTime::ZERO + duration;
    let mean_a = engine.trace().mean_bps(svc_a, from, to);
    let mean_b = engine.trace().mean_bps(svc_b, from, to);
    let effective = setting.effective_rate_bps(duration);
    let (share_a, share_b) = prudentia_stats::pairwise_mmf_shares(
        effective,
        mean_a,
        prudentia_stats::Demand::unlimited(),
        mean_b,
        prudentia_stats::Demand::unlimited(),
    );
    PairRun {
        mean_a,
        mean_b,
        share_a,
        share_b,
        utilization: (mean_a + mean_b) / effective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_rows_are_ticked_and_monotonic() {
        let setting = NetworkSetting::highly_constrained();
        let run = run_solo(CcaKind::NewReno, &setting, 1, SimDuration::from_secs(5));
        assert_eq!(run.rows.len(), 50);
        assert_eq!(run.rows[0].t_ms, 100);
        assert_eq!(run.rows[49].t_ms, 5000);
        assert!(run.mean_bps > 0.0);
        // Early ticks deliver something once slow start gets going.
        assert!(run.rows.iter().any(|r| r.rate_bps > 0));
    }

    #[test]
    fn identical_seeds_identical_rows() {
        let setting = NetworkSetting::highly_constrained();
        let a = run_solo(CcaKind::Cubic, &setting, 7, SimDuration::from_secs(3));
        let b = run_solo(CcaKind::Cubic, &setting, 7, SimDuration::from_secs(3));
        assert_eq!(a.rows, b.rows);
        let c = run_solo(CcaKind::Cubic, &setting, 8, SimDuration::from_secs(3));
        assert_ne!(a.rows, c.rows);
    }

    #[test]
    fn pair_shares_sum_to_utilization() {
        let setting = NetworkSetting::highly_constrained();
        let run = run_cca_pair(
            CcaKind::Cubic,
            CcaKind::NewReno,
            &setting,
            3,
            SimDuration::from_secs(10),
        );
        // share_x is achieved/(capacity/2), so their mean is utilization.
        let recombined = (run.share_a + run.share_b) / 2.0;
        assert!((recombined - run.utilization).abs() < 1e-9);
        assert!(run.utilization > 0.5);
    }
}
