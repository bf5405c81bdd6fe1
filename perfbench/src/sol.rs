//! Speed-of-light reference: the cheapest simulator of the watchdog's
//! NewReno-vs-NewReno drop-tail dumbbell that still runs the real
//! controller. Packets ride a `VecDeque` wire (the shape of the
//! two-session fairness harness in SNIPPETS.md): no event calendar, no
//! packet arena, no trace, no per-packet transport state. The engine's
//! cost per delivered packet over this one's is `sim.sol_ratio`.

use prudentia_cc::{AckSample, CongestionControl, LossSample, NewReno, MSS};
use prudentia_sim::{NetworkSetting, SimDuration, SimTime};
use std::collections::VecDeque;
use std::time::Instant;

struct Flow {
    cc: NewReno,
    inflight: u64,
    delivered: u64,
    min_rtt: u64,
}

/// Run the dumbbell for `secs` simulated seconds; returns packets
/// delivered and the wall time it took.
pub fn run(setting: &NetworkSetting, secs: u64) -> (u64, f64) {
    let wall = Instant::now();
    let rate = setting.rate_bps;
    let tx_ns = (MSS as f64 * 8.0 / rate * 1e9) as u64;
    let rtt_ns = setting.base_rtt.as_nanos();
    let capacity = setting.bottleneck().queue_capacity_pkts;
    let end = secs * 1_000_000_000;

    let mut flows = [0, 1].map(|_| Flow {
        cc: NewReno::new(),
        inflight: 0,
        delivered: 0,
        min_rtt: u64::MAX,
    });
    // Departure times of packets still in the bottleneck queue.
    let mut queue: VecDeque<u64> = VecDeque::new();
    // (ack arrival, flow, send time): FIFO because departures are.
    let mut acks: VecDeque<(u64, usize, u64)> = VecDeque::new();
    // (loss noticed, flow): one RTT after the drop, also FIFO.
    let mut losses: VecDeque<(u64, usize)> = VecDeque::new();
    let mut link_free = 0u64;
    let mut delivered_pkts = 0u64;

    let mut send = |f: usize,
                    now: u64,
                    flows: &mut [Flow; 2],
                    queue: &mut VecDeque<u64>,
                    acks: &mut VecDeque<(u64, usize, u64)>,
                    losses: &mut VecDeque<(u64, usize)>| {
        while queue.front().is_some_and(|&d| d <= now) {
            queue.pop_front();
        }
        let flow = &mut flows[f];
        while flow.inflight + MSS <= flow.cc.cwnd_bytes() {
            flow.inflight += MSS;
            if queue.len() >= capacity {
                losses.push_back((now + rtt_ns, f));
                continue;
            }
            link_free = link_free.max(now) + tx_ns;
            queue.push_back(link_free);
            acks.push_back((link_free + rtt_ns, f, now));
        }
    };

    for f in 0..2 {
        send(f, 0, &mut flows, &mut queue, &mut acks, &mut losses);
    }
    loop {
        let next_ack = acks.front().map(|a| a.0).unwrap_or(u64::MAX);
        let next_loss = losses.front().map(|l| l.0).unwrap_or(u64::MAX);
        let now = next_ack.min(next_loss);
        if now >= end {
            break;
        }
        let f = if next_ack <= next_loss {
            let (_, f, sent) = acks.pop_front().expect("ack due");
            let flow = &mut flows[f];
            let rtt = now - sent;
            flow.min_rtt = flow.min_rtt.min(rtt);
            flow.inflight -= MSS;
            flow.delivered += MSS;
            delivered_pkts += 1;
            flow.cc.on_ack(&AckSample {
                now: SimTime::from_nanos(now),
                bytes_acked: MSS,
                rtt: SimDuration::from_nanos(rtt),
                min_rtt: SimDuration::from_nanos(flow.min_rtt),
                inflight_bytes: flow.inflight,
                delivery_rate_bps: 0.0,
                delivered_total: flow.delivered,
                app_limited: false,
                is_round_start: false,
            });
            f
        } else {
            let (_, f) = losses.pop_front().expect("loss due");
            let flow = &mut flows[f];
            flow.inflight -= MSS;
            flow.cc.on_loss(&LossSample {
                now: SimTime::from_nanos(now),
                bytes_lost: MSS,
                inflight_bytes: flow.inflight,
                is_rto: false,
            });
            f
        };
        send(f, now, &mut flows, &mut queue, &mut acks, &mut losses);
    }
    (delivered_pkts, wall.elapsed().as_secs_f64())
}

/// Median nanoseconds per delivered packet over `reps` runs.
pub fn ns_per_packet(setting: &NetworkSetting, secs: u64, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (pkts, wall) = run(setting, secs);
            wall * 1e9 / pkts.max(1) as f64
        })
        .collect();
    crate::median(&samples)
}
