//! `serve-read` and `serve-churn`: `serve_with` in-process with 2
//! workers over a store seeded with generated pair records covering
//! `Service::all()` x both settings, so bodies have the paper's heatmap
//! size and seeding needs no simulation.
//!
//! `serve-read` drives a closed loop on 2 keep-alive connections with a
//! dashboard mix, mostly `If-None-Match` revalidations. `serve-churn`
//! drives 1 connection while the benchmark appends to the store at the
//! program's own write rate, so every append really changes the served
//! heatmap.

use crate::trace::{Tracer, IDLE};
use crate::{median, quantile, setup_time, Args, Checks, Metrics, Report, WorkDir};
use prudentia_apps::{Service, ServiceSpec};
use prudentia_core::daemon::{checkpoint_key, freshness, full_matrix};
use prudentia_core::serve::serve_with;
use prudentia_core::{
    pair_store_key, write_report, Checkpoint, Heatmap, HeatmapStat, NetworkSetting, PairOutcome,
    PairRecord, ServeConfig, ShutdownFlag, CHECKPOINT_SCHEMA_VERSION, SPEC_SCHEMA_VERSION,
};
use prudentia_store::{fnv1a_key, kinds, Record, Snapshot, Store};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SERVER_WORKERS: usize = 2;
/// Appends per second in `serve-churn`: the rate of the program's own
/// writer. One cold `watch-bulk-8m` cycle (`Daemon::run_cycle`,
/// parallelism 2) appends 18 records, 16 PAIR and 2 checkpoints, in
/// about 8 s on a 2-vCPU x86-64 host.
const APPEND_HZ: f64 = 18.0 / 8.0;

/// SplitMix64: the benchmark's seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn services() -> Vec<ServiceSpec> {
    Service::all().into_iter().map(Service::spec).collect()
}

fn settings() -> Vec<NetworkSetting> {
    vec![
        NetworkSetting::highly_constrained(),
        NetworkSetting::moderately_constrained(),
    ]
}

fn outcome(rng: &mut Rng, a: &str, b: &str, setting: &str) -> PairOutcome {
    let lo = 1e6 + rng.unit() * 3e6;
    PairOutcome {
        contender: a.to_string(),
        incumbent: b.to_string(),
        setting: setting.to_string(),
        trials: Vec::new(),
        incumbent_mmf_median: 0.05 + rng.unit() * 1.5,
        contender_mmf_median: 0.05 + rng.unit() * 1.5,
        incumbent_iqr_bps: (lo, lo + rng.unit() * 2e6),
        utilization_median: 0.6 + rng.unit() * 0.4,
        incumbent_loss_median: rng.unit() * 0.05,
        incumbent_qdelay_median_ms: 1.0 + rng.unit() * 150.0,
        converged: rng.unit() < 0.8,
    }
}

/// The generated store contents: one outcome per pair of the full matrix.
struct Contents {
    pairs: Vec<PairOutcome>,
}

impl Contents {
    fn generate(seed: u64) -> Contents {
        let mut rng = Rng(seed);
        let pairs = full_matrix(&services(), &settings())
            .iter()
            .map(|p| {
                outcome(
                    &mut rng,
                    p.contender.name(),
                    p.incumbent.name(),
                    &p.setting.name,
                )
            })
            .collect();
        Contents { pairs }
    }

    /// `/heatmap.csv` as the server renders it from these outcomes.
    fn heatmap_csv(&self) -> String {
        let labels: Vec<String> = services().iter().map(|s| s.name().to_string()).collect();
        let stat = HeatmapStat::MmfSharePct;
        let mut out = String::new();
        for setting in settings() {
            let of_setting: Vec<PairOutcome> = self
                .pairs
                .iter()
                .filter(|p| p.setting == setting.name)
                .cloned()
                .collect();
            out.push_str(&format!("# {} — {}\n", setting.name, stat.title()));
            out.push_str(&Heatmap::build(stat, &labels, &of_setting).render_csv());
        }
        out
    }
}

fn pair_payload(o: &PairOutcome) -> String {
    let record = PairRecord {
        cycle: 1,
        code_version: "perfbench".into(),
        scenario: "droptail".into(),
        first_trial_seed: 0,
        outcome: o.clone(),
    };
    Record::encode(kinds::PAIR, &record).expect("encode pair record")
}

fn pair_key(o: &PairOutcome) -> u64 {
    pair_store_key(&o.contender, &o.incumbent, &o.setting)
}

/// Write the generated store: a completed checkpoint, then every pair,
/// with deterministic timestamps so every body is a function of the seed.
fn seed_store(dir: &Path, contents: &Contents) -> (Store, f64) {
    std::fs::remove_dir_all(dir).ok();
    let t = Instant::now();
    let mut store = Store::open(dir).expect("open store");
    let open_s = t.elapsed().as_secs_f64();
    let n = contents.pairs.len() as u64;
    let ckpt = Checkpoint {
        cycle: 1,
        cycle_start_seq: 0,
        fingerprint: 0,
        pairs_total: n,
        pairs_done: n,
        completed: true,
    };
    let ts = 1_700_000_000_000u64;
    store
        .append_at(
            kinds::CHECKPOINT,
            checkpoint_key(),
            CHECKPOINT_SCHEMA_VERSION,
            Record::encode(kinds::CHECKPOINT, &ckpt).expect("encode checkpoint"),
            ts,
        )
        .expect("append checkpoint");
    for (i, o) in contents.pairs.iter().enumerate() {
        store
            .append_at(
                kinds::PAIR,
                pair_key(o),
                SPEC_SCHEMA_VERSION,
                pair_payload(o),
                ts + 1000 * (i as u64 + 1),
            )
            .expect("append pair");
    }
    store.sync().expect("sync store");
    (store, open_s)
}

/// A running server; dropping it shuts it down and joins its thread.
struct Server {
    addr: String,
    flag: ShutdownFlag,
    handle: Option<JoinHandle<()>>,
    config: ServeConfig,
}

fn start_server(dir: &Path) -> Server {
    let mut config = ServeConfig::new("127.0.0.1:0", dir, services(), settings());
    config.workers = SERVER_WORKERS;
    let flag = ShutdownFlag::new();
    let (tx, rx) = mpsc::channel();
    let handle = {
        let config = config.clone();
        let flag = flag.clone();
        std::thread::spawn(move || {
            serve_with(&config, &flag, |addr| {
                tx.send(addr.to_string()).ok();
            })
            .expect("serve");
        })
    };
    let addr = rx.recv().expect("server bound");
    Server {
        addr,
        flag,
        handle: Some(handle),
        config,
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.flag.request();
        if let Some(h) = self.handle.take() {
            if h.join().is_err() {
                eprintln!("warning: serve thread panicked");
            }
        }
    }
}

struct Response {
    status: u16,
    etag: Option<String>,
    body: Vec<u8>,
    /// Bytes on the wire: head plus body.
    wire: usize,
}

/// A keep-alive HTTP/1.1 client.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
        Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    fn get(&mut self, path: &str, if_none_match: Option<&str>) -> std::io::Result<Response> {
        let inm = if_none_match.map_or(String::new(), |e| format!("If-None-Match: {e}\r\n"));
        let req = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n{inm}\r\n");
        self.stream.write_all(req.as_bytes())?;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut len = 0usize;
        let mut etag = None;
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                match k.to_ascii_lowercase().as_str() {
                    "content-length" => len = v.trim().parse().unwrap_or(0),
                    "etag" => etag = Some(v.trim().to_string()),
                    _ => {}
                }
            }
        }
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Response {
            status,
            etag,
            body,
            wire: total,
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn etag_of(body: &[u8]) -> String {
    format!("\"{:016x}\"", fnv1a_key(&[&String::from_utf8_lossy(body)]))
}

/// `prudentia serve`'s file-name slug for a setting.
fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|p| !p.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

/// The bodies the data routes must serve, from `write_report`'s render
/// of the store (and the daemon's freshness view, which the report does
/// not emit). Returns the bodies and the render time.
fn expected_bodies(config: &ServeConfig, out: &Path) -> (HashMap<&'static str, Vec<u8>>, f64) {
    let t = Instant::now();
    write_report(config, out).expect("write_report");
    let render_s = t.elapsed().as_secs_f64();
    let read = |name: &str| std::fs::read(out.join(name)).expect("report file");
    let mut csv = Vec::new();
    for s in &config.settings {
        let stat = HeatmapStat::MmfSharePct;
        csv.extend_from_slice(format!("# {} — {}\n", s.name, stat.title()).as_bytes());
        csv.extend(read(&format!(
            "heatmap-{}-{}.csv",
            slug(&s.name),
            stat.slug()
        )));
    }
    let snap = Snapshot::read(&config.store_dir).expect("read store");
    let fresh = freshness(&snap, &full_matrix(&config.services, &config.settings));
    let mut bodies = HashMap::new();
    bodies.insert("/", read("index.html"));
    bodies.insert("/status", read("status.json"));
    bodies.insert("/heatmap.csv", csv);
    bodies.insert(
        "/freshness",
        serde_json::to_string(&fresh)
            .expect("encode freshness")
            .into_bytes(),
    );
    (bodies, render_s)
}

/// Request latencies in 0.1 µs buckets up to 5 ms, longer ones kept
/// exactly, so memory stays flat however many requests a run makes.
/// `prudentia_obs::Histogram` is not used: its buckets are 19% wide,
/// so a p50 near 15 µs would read the same bucket midpoint on most
/// runs and move in 19% steps, too coarse for `latency_ms_p50`.
struct Latencies {
    buckets: Vec<u32>,
    over: Vec<f64>,
    count: u64,
    sum_us: f64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            buckets: vec![0; 50_000],
            over: Vec::new(),
            count: 0,
            sum_us: 0.0,
        }
    }
}

impl Latencies {
    fn record(&mut self, us: f64) {
        match self.buckets.get_mut((us * 10.0) as usize) {
            Some(b) => *b += 1,
            None => self.over.push(us),
        }
        self.count += 1;
        self.sum_us += us;
    }

    fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    /// Nearest-rank quantile, to the bucket's midpoint.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += u64::from(n);
            if seen > rank {
                return (i as f64 + 0.5) / 10.0;
            }
        }
        let mut over = self.over.clone();
        over.sort_by(|a, b| a.total_cmp(b));
        over[((rank - seen) as usize).min(over.len() - 1)]
    }
}

/// Every how many requests a traced run keeps the individual span; the
/// others count only towards the serve layer's total.
const SPAN_SAMPLE: u64 = 64;

/// What one load thread saw.
#[derive(Default)]
struct Load {
    checks: Checks,
    latencies: Latencies,
    /// Requests completed in each whole second of the phase.
    per_second: Vec<u64>,
    /// Sampled request spans of a traced run.
    spans: Vec<(Instant, Instant)>,
    responses_304: u64,
    body_bytes: u64,
    /// `(received, etag)` of every `/heatmap.csv` answer.
    heatmap_seen: Vec<(Instant, String)>,
}

impl Load {
    fn timed(&mut self, phase_start: Instant, t: Instant, end: Instant, traced: bool) {
        self.latencies.record((end - t).as_secs_f64() * 1e6);
        let sec = (end - phase_start).as_secs() as usize;
        if self.per_second.len() <= sec {
            self.per_second.resize(sec + 1, 0);
        }
        self.per_second[sec] += 1;
        if traced && self.latencies.count % SPAN_SAMPLE == 1 {
            self.spans.push((t, end));
        }
    }
}

const REVALIDATED: [&str; 4] = ["/heatmap.csv", "/", "/status", "/freshness"];

/// `serve-read`'s closed loop on one connection until `deadline`.
fn read_loop(
    addr: &str,
    seed: u64,
    (start, deadline): (Instant, Instant),
    bodies: &HashMap<&'static str, Vec<u8>>,
    live_records: usize,
    traced: bool,
) -> Load {
    let etags: HashMap<&str, String> = bodies.iter().map(|(k, v)| (*k, etag_of(v))).collect();
    let live = format!("\"store/live_records\":{live_records},");
    let mut rng = Rng(seed);
    let mut client = Client::connect(addr);
    let mut load = Load::default();
    let mut full = 0u64;
    while Instant::now() < deadline {
        let (path, inm) = match rng.below(16) {
            0..=11 => {
                let p = REVALIDATED[rng.below(4)];
                (p, Some(etags[p].as_str()))
            }
            12 => ("/heatmap.csv", None),
            13 => ("/freshness", None),
            14 => ("/status", None),
            _ => ("/metrics", None),
        };
        let t = Instant::now();
        let resp = client.get(path, inm);
        load.timed(start, t, Instant::now(), traced);
        let Ok(resp) = resp else {
            load.checks.op(false, || format!("{path}: request failed"));
            client = Client::connect(addr);
            continue;
        };
        load.body_bytes += resp.wire as u64;
        let ok = if path == "/metrics" {
            resp.status == 200 && String::from_utf8_lossy(&resp.body).contains(&live)
        } else if inm.is_some() {
            load.responses_304 += 1;
            resp.status == 304 && resp.body.is_empty() && resp.etag.as_deref() == inm
        } else {
            full += 1;
            let want = &bodies[path];
            // Every full answer's status, etag and length; every fourth
            // one's bytes.
            resp.status == 200
                && resp.etag.as_deref() == Some(etags[path].as_str())
                && resp.body.len() == want.len()
                && (!full.is_multiple_of(4) || resp.body == *want)
        };
        load.checks.op(ok, || {
            format!("{path}: status {} etag {:?}", resp.status, resp.etag)
        });
    }
    load
}

/// `serve-churn`'s reader: revalidates `/heatmap.csv` against the last
/// etag it saw, with the rest of the dashboard mix in between.
fn churn_loop(
    addr: &str,
    seed: u64,
    (start, deadline): (Instant, Instant),
    known: &HashMap<String, usize>,
    traced: bool,
) -> Load {
    let mut rng = Rng(seed);
    let mut client = Client::connect(addr);
    let mut load = Load::default();
    let mut last: Option<String> = None;
    let mut full = 0u64;
    while Instant::now() < deadline {
        let path = match rng.below(16) {
            0..=12 => "/heatmap.csv",
            13 => "/freshness",
            14 => "/status",
            _ => "/metrics",
        };
        let inm = if path == "/heatmap.csv" {
            last.clone()
        } else {
            None
        };
        let t = Instant::now();
        let resp = client.get(path, inm.as_deref());
        let end = Instant::now();
        load.timed(start, t, end, traced);
        let Ok(resp) = resp else {
            load.checks.op(false, || format!("{path}: request failed"));
            client = Client::connect(addr);
            continue;
        };
        load.body_bytes += resp.wire as u64;
        let ok = match (path, resp.status) {
            ("/metrics", 200) => resp.body.starts_with(b"{"),
            ("/heatmap.csv", 304) => {
                load.responses_304 += 1;
                resp.body.is_empty() && resp.etag == inm
            }
            ("/heatmap.csv", 200) => {
                // A changed heatmap must be one the store actually held.
                let etag = resp.etag.clone().unwrap_or_default();
                let ok = etag == etag_of(&resp.body) && known.contains_key(&etag);
                load.heatmap_seen.push((end, etag.clone()));
                last = Some(etag);
                ok
            }
            // Hashing every large body would make the client, not the
            // server, the bottleneck: every fourth one.
            (_, 200) => {
                full += 1;
                !full.is_multiple_of(4)
                    || resp.etag.as_deref() == Some(etag_of(&resp.body).as_str())
            }
            _ => false,
        };
        load.checks.op(ok, || {
            format!("{path}: status {} etag {:?}", resp.status, resp.etag)
        });
    }
    load
}

fn counter_in(metrics_body: &str, name: &str) -> f64 {
    metrics_body
        .split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

struct Phase {
    loads: Vec<Load>,
    wall: f64,
    /// Churn only: append spans, refresh spans, idle sleeps, view lags.
    appends: Vec<(Instant, Instant)>,
    refreshes: Vec<(Instant, Instant)>,
    writer_idle_s: f64,
    lags_ms: Vec<f64>,
    appended: usize,
}

pub fn run(args: &Args, churn: bool) -> Option<Report> {
    let workload = if churn { "serve-churn" } else { "serve-read" };
    if args.bless {
        println!("{workload} checks against the write_report render; nothing to pin");
        return None;
    }
    let work = WorkDir::new(workload);
    let contents = Contents::generate(args.seed);

    // The generated store is written once; set-up is starting the
    // server over it (store open, first render of every route, workers)
    // up to its first response. Each earlier server stops when the next
    // one replaces it.
    let dir = work.path("store");
    let (mut store, open_s) = seed_store(&dir, &contents);
    let (setup_s, server) = setup_time(40, 1, Duration::from_millis(50), || {
        let server = start_server(&dir);
        Client::connect(&server.addr)
            .get("/status", None)
            .expect("first response");
        server
    });
    let (bodies, render_s) = expected_bodies(&server.config, &work.path("report"));
    let mut checks = Checks::default();
    checks.op(
        bodies["/heatmap.csv"] == contents.heatmap_csv().into_bytes(),
        || format!("{workload}: write_report's heatmap differs from the generated contents"),
    );

    let run_phase = |traced: bool, seconds: f64, store: &mut Store, contents: &mut Contents| {
        if churn {
            churn_phase(&server.addr, args.seed, seconds, store, contents, traced)
        } else {
            read_phase(&server.addr, args.seed, seconds, &bodies, contents, traced)
        }
    };
    let mut contents = contents;
    let report = if args.trace {
        let untraced = run_phase(false, args.seconds / 2.0, &mut store, &mut contents);
        let t0 = Instant::now();
        let traced = run_phase(true, args.seconds / 2.0, &mut store, &mut contents);
        traced_report(workload, args, t0, &untraced, &traced, open_s, render_s)
    } else {
        let phase = run_phase(false, args.seconds, &mut store, &mut contents);
        untraced_report(&phase, setup_s)
    };
    let Report {
        checks: phase_checks,
        mut metrics,
        extra,
    } = report;
    checks.attempted += phase_checks.attempted;
    checks.failed += phase_checks.failed;

    // Final state: the served heatmap equals the render of the final
    // store, and no append was lost.
    if churn {
        let final_etag = etag_of(contents.heatmap_csv().as_bytes());
        let mut client = Client::connect(&server.addr);
        let waited = Instant::now();
        let caught_up = loop {
            let r = client.get("/heatmap.csv", None).expect("final heatmap");
            if r.etag.as_deref() == Some(final_etag.as_str()) {
                break true;
            }
            if waited.elapsed() > Duration::from_secs(3) {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let (final_bodies, _) = expected_bodies(&server.config, &work.path("report-final"));
        let served = client.get("/heatmap.csv", None).expect("final heatmap");
        let snap = Snapshot::read(&dir).expect("read store");
        checks.op(
            caught_up
                && served.body == final_bodies["/heatmap.csv"]
                && served.body == contents.heatmap_csv().into_bytes()
                && snap.next_seq() == store.next_seq(),
            || format!("{workload}: final served heatmap differs from the final store"),
        );
    }
    if args.trace {
        let stats = store.stats();
        metrics.set(
            "store.bytes_per_record",
            stats.bytes_written as f64 / stats.appends.max(1) as f64,
            "bytes",
        );
        let mut client = Client::connect(&server.addr);
        let body = client
            .get("/metrics", None)
            .map(|r| r.body)
            .unwrap_or_default();
        let body = String::from_utf8_lossy(&body);
        metrics.set(
            "serve.view_rebuilds",
            counter_in(&body, "serve/view_rebuilds"),
            "count",
        );
    }
    drop(server);
    Some(Report {
        checks,
        metrics,
        extra,
    })
}

fn read_phase(
    addr: &str,
    seed: u64,
    seconds: f64,
    bodies: &HashMap<&'static str, Vec<u8>>,
    contents: &Contents,
    traced: bool,
) -> Phase {
    let start = Instant::now();
    let window = (start, start + Duration::from_secs_f64(seconds));
    let live = contents.pairs.len() + 1;
    let loads = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                let seed = seed ^ (i + 1).wrapping_mul(0xA24B_AED4_963E_E407);
                s.spawn(move || read_loop(addr, seed, window, bodies, live, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    Phase {
        loads,
        wall: start.elapsed().as_secs_f64(),
        appends: Vec::new(),
        refreshes: Vec::new(),
        writer_idle_s: 0.0,
        lags_ms: Vec::new(),
        appended: 0,
    }
}

fn churn_phase(
    addr: &str,
    seed: u64,
    seconds: f64,
    store: &mut Store,
    contents: &mut Contents,
    traced: bool,
) -> Phase {
    // Precompute the writes and the heatmap each one leaves behind: a
    // seeded order over the pairs, each moved to a new outcome whose
    // incumbent share differs by at least 10 points, so every append
    // changes the rendered bytes and no state repeats.
    let mut rng = Rng(seed ^ 0x5EED);
    let n = contents.pairs.len();
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let count = ((seconds * APPEND_HZ) as usize).clamp(1, n);
    let mut writes = Vec::with_capacity(count);
    let mut known = HashMap::new();
    known.insert(etag_of(contents.heatmap_csv().as_bytes()), 0usize);
    let mut state = Contents {
        pairs: contents.pairs.clone(),
    };
    for (j, &i) in order.iter().take(count).enumerate() {
        let mut o = state.pairs[i].clone();
        o.incumbent_mmf_median =
            0.05 + (o.incumbent_mmf_median - 0.05 + 0.1 + rng.unit() * 1.2) % 1.5;
        state.pairs[i] = o.clone();
        known.insert(etag_of(state.heatmap_csv().as_bytes()), j + 1);
        writes.push(o);
    }

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut appends = Vec::new();
    let mut refreshes = Vec::new();
    let mut idle = 0.0;
    let mut incremental = traced.then(|| {
        prudentia_store::IncrementalSnapshot::open(store.dir()).expect("open incremental view")
    });
    let (load, appended_at) = std::thread::scope(|s| {
        let reader = s.spawn(|| churn_loop(addr, seed, (start, deadline), &known, traced));
        let period = Duration::from_secs_f64(1.0 / APPEND_HZ);
        let mut appended_at = Vec::new();
        for (j, o) in writes.iter().enumerate() {
            // Appends stop 250 ms before the deadline, so the reader
            // sees the last one.
            let due = start + period.mul_f64(j as f64 + 1.0);
            if due + Duration::from_millis(250) > deadline {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                idle += (due - now).as_secs_f64();
            }
            let t = Instant::now();
            store
                .append(
                    kinds::PAIR,
                    pair_key(o),
                    SPEC_SCHEMA_VERSION,
                    pair_payload(o),
                )
                .expect("append pair");
            let done = Instant::now();
            appended_at.push(done);
            appends.push((t, done));
            if let Some(view) = incremental.as_mut() {
                let r0 = Instant::now();
                view.refresh().expect("refresh view");
                refreshes.push((r0, Instant::now()));
            }
        }
        let now = Instant::now();
        if deadline > now {
            idle += (deadline - now).as_secs_f64();
        }
        (reader.join().expect("reader thread"), appended_at)
    });
    let appended = appended_at.len();
    for (o, &i) in writes.iter().zip(&order).take(appended) {
        contents.pairs[i] = o.clone();
    }

    // View lag: from an append's return to the first answer carrying a
    // heatmap that includes it.
    let mut lags_ms = Vec::new();
    for (j, at) in appended_at.iter().enumerate() {
        let seen = load
            .heatmap_seen
            .iter()
            .find(|(t, etag)| *t >= *at && known.get(etag).is_some_and(|&k| k > j));
        if let Some((t, _)) = seen {
            lags_ms.push((*t - *at).as_secs_f64() * 1e3);
        }
    }
    let mut load = load;
    load.checks.op(lags_ms.len() == appended, || {
        format!(
            "{} of {appended} appends never showed up in a served heatmap",
            appended - lags_ms.len()
        )
    });
    Phase {
        loads: vec![load],
        wall: start.elapsed().as_secs_f64(),
        appends,
        refreshes,
        writer_idle_s: idle,
        lags_ms,
        appended,
    }
}

/// A phase's load threads merged: checks, latencies, requests per whole
/// second, 304s and bytes.
struct Merged {
    checks: Checks,
    latencies: Latencies,
    per_second: Vec<u64>,
    responses_304: u64,
    bytes: u64,
}

fn merged(phase: &Phase) -> Merged {
    let mut m = Merged {
        checks: Checks::default(),
        latencies: Latencies::default(),
        per_second: Vec::new(),
        responses_304: 0,
        bytes: 0,
    };
    for l in &phase.loads {
        m.checks.attempted += l.checks.attempted;
        m.checks.failed += l.checks.failed;
        m.latencies.merge(&l.latencies);
        if m.per_second.len() < l.per_second.len() {
            m.per_second.resize(l.per_second.len(), 0);
        }
        for (a, b) in m.per_second.iter_mut().zip(&l.per_second) {
            *a += b;
        }
        m.responses_304 += l.responses_304;
        m.bytes += l.body_bytes;
    }
    m
}

impl Merged {
    /// Requests completed in each whole second of the phase (the last,
    /// partial second is dropped).
    fn whole_seconds(&self, wall: f64) -> Vec<f64> {
        let whole = (wall.floor() as usize).min(self.per_second.len());
        self.per_second[..whole].iter().map(|&n| n as f64).collect()
    }
}

/// The end-to-end report of an untraced run. Requests per second is the
/// median over whole seconds, so a stall of the shared host moves one
/// sample, not the figure.
fn untraced_report(phase: &Phase, setup_s: f64) -> Report {
    let m = merged(phase);
    let lat = &m.latencies;
    let req_per_s = median(&m.whole_seconds(phase.wall));
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s, "s");
    metrics.set("throughput_per_s", req_per_s, "1/s");
    metrics.set("latency_ms_p50", lat.quantile(0.5) / 1e3, "ms");
    metrics.set("peak_rss_mb", crate::peak_rss_mb(), "MB");
    let mut extra = Metrics::default();
    extra.set("req_per_s", req_per_s, "1/s");
    extra.set("req_us_p50", lat.quantile(0.5), "us");
    extra.set("req_us_p99", lat.quantile(0.99), "us");
    extra.set("requests", lat.count as f64, "count");
    if !phase.lags_ms.is_empty() {
        extra.set("view_lag_ms_p50", median(&phase.lags_ms), "ms");
        extra.set("view_lag_ms_p90", quantile(&phase.lags_ms, 0.9), "ms");
        extra.set("appends", phase.appended as f64, "count");
    }
    Report {
        checks: m.checks,
        metrics,
        extra,
    }
}

fn traced_report(
    workload: &str,
    args: &Args,
    t0: Instant,
    untraced: &Phase,
    traced: &Phase,
    open_s: f64,
    render_s: f64,
) -> Report {
    let m_t = merged(traced);
    let m_u = merged(untraced);
    let mut checks = m_t.checks;
    checks.attempted += m_u.checks.attempted;
    checks.failed += m_u.checks.failed;
    let lat = &m_t.latencies;
    let mut m = Metrics::default();
    let mut tr = Tracer::new(t0);
    let workers = traced.loads.len() + usize::from(!traced.appends.is_empty());
    let window = tr.open_window("load", "serve", workers);
    let mut sampled_s = 0.0;
    for (i, (s, e)) in traced.loads.iter().flat_map(|l| &l.spans).enumerate() {
        tr.record("request", "serve", i as u64, *s, *e);
        sampled_s += (*e - *s).as_secs_f64();
    }
    // Requests whose span was not kept still count towards the layer.
    tr.attribute(window, "serve", lat.sum_us / 1e6 - sampled_s);
    for (i, (s, e)) in traced.appends.iter().enumerate() {
        tr.record("append", "store", i as u64, *s, *e);
    }
    for (i, (s, e)) in traced.refreshes.iter().enumerate() {
        tr.record("refresh", "store", i as u64, *s, *e);
    }
    tr.attribute(window, IDLE, traced.writer_idle_s);
    tr.close(window);
    // The window is the traced phase, which began at t0.
    tr.spans[window].start_ns = 0;
    tr.spans[window].end_ns = (traced.wall * 1e9) as u64;

    let secs = |v: &[(Instant, Instant)]| -> Vec<f64> {
        v.iter().map(|(s, e)| (*e - *s).as_secs_f64()).collect()
    };
    let append_s = secs(&traced.appends);
    let requests = lat.count.max(1) as f64;
    m.set(
        "serve.ratio_304",
        m_t.responses_304 as f64 / requests,
        "ratio",
    );
    m.set("serve.bytes_per_req", m_t.bytes as f64 / requests, "bytes");
    m.set("serve.render_ms", render_s * 1e3, "ms");
    m.set("serve.req_us_p99", lat.quantile(0.99), "us");
    m.set("serve.view_lag_ms_p50", median(&traced.lags_ms), "ms");
    m.set(
        "serve.view_lag_ms_p90",
        quantile(&traced.lags_ms, 0.9),
        "ms",
    );
    m.set("store.open_ms", open_s * 1e3, "ms");
    m.set("store.appends", traced.appended as f64, "count");
    m.set("store.append_us_p50", quantile(&append_s, 0.5) * 1e6, "us");
    m.set("store.append_us_p99", quantile(&append_s, 0.99) * 1e6, "us");
    m.set(
        "store.refresh_us",
        median(&secs(&traced.refreshes)) * 1e6,
        "us",
    );
    let mean = |l: &Latencies| l.sum_us / l.count.max(1) as f64;
    m.set(
        "obs.trace_overhead_ratio",
        mean(lat) / mean(&m_u.latencies).max(1e-9),
        "ratio",
    );
    tr.coverage(window)
        .report(&mut m, tr.spans.len(), traced.wall);
    crate::write_trace(&tr, workload, args.seed);
    Report {
        checks,
        metrics: m,
        extra: Metrics::default(),
    }
}
