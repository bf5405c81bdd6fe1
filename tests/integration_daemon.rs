//! Acceptance tests for the persistent watchdog service, driven through
//! the real `prudentia` binary:
//!
//! * a daemon stopped mid-matrix and restarted resumes without
//!   re-running completed pairs and converges to a final report that is
//!   byte-identical to an uninterrupted run;
//! * the flag file, and SIGTERM mid-cycle, request a graceful stop at a
//!   batch boundary;
//! * `prudentia serve` answers the status endpoint over a real socket
//!   and shuts down cleanly via `/shutdown`.

use prudentia_core::daemon::latest_checkpoint;
use prudentia_core::Checkpoint;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const MATRIX_ARGS: &[&str] = &[
    "--services",
    "iperf-reno,iperf-cubic",
    "--trials",
    "1",
    "--setting",
    "8",
    "--parallel",
    "2",
];

fn prudentia(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prudentia"))
        .args(args)
        .output()
        .expect("prudentia binary runs")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("prudentia_daemon_integration")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn watch(store: &Path, extra: &[&str]) -> Output {
    let mut args = vec!["watch", "--store", store.to_str().unwrap()];
    args.extend_from_slice(MATRIX_ARGS);
    args.extend_from_slice(extra);
    prudentia(&args)
}

/// Final-state heatmap CSVs from `prudentia report`, keyed by file name.
fn report_csvs(store: &Path, out: &Path) -> Vec<(String, String)> {
    let output = prudentia(&[
        "report",
        "--store",
        store.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--services",
        "iperf-reno,iperf-cubic",
        "--setting",
        "8",
    ]);
    assert!(
        output.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut csvs: Vec<(String, String)> = std::fs::read_dir(out)
        .expect("report dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().to_string(),
                std::fs::read_to_string(&p).expect("csv reads"),
            )
        })
        .collect();
    csvs.sort();
    assert!(!csvs.is_empty(), "report produced no CSVs");
    csvs
}

#[test]
fn interrupted_daemon_resumes_to_a_byte_identical_report() {
    let baseline_store = tmp_dir("baseline_store");
    let resumed_store = tmp_dir("resumed_store");

    // Uninterrupted reference run: one full cycle over the 2x2 matrix.
    let full = watch(&baseline_store, &[]);
    assert!(
        full.status.success(),
        "baseline watch failed: {}",
        String::from_utf8_lossy(&full.stderr)
    );
    let stdout = String::from_utf8_lossy(&full.stdout);
    assert!(
        stdout.contains("cycle 1: 4 pairs, 0 already done, 4 executed"),
        "unexpected baseline stdout: {stdout}"
    );

    // Interrupted run: stop after every single pair ("kill" at a batch
    // boundary with a checkpoint), restart, and repeat until done. The
    // restarted daemon must never re-run a completed pair.
    let mut executed_total = 0u64;
    for attempt in 0..8 {
        let out = watch(&resumed_store, &["--batch-pairs", "1", "--max-pairs", "1"]);
        assert!(
            out.status.success(),
            "resume attempt {attempt} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text
            .lines()
            .find(|l| l.starts_with("cycle 1:"))
            .unwrap_or_else(|| panic!("no cycle line in: {text}"));
        // "cycle 1: 4 pairs, <done> already done, <executed> executed"
        let nums: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        let (done_before, executed) = (nums[2], nums[3]);
        assert_eq!(
            done_before, executed_total,
            "restart must pick up exactly where the last run stopped: {line}"
        );
        executed_total += executed;
        assert!(executed_total <= 4, "pairs were re-run: {line}");
        if !text.contains("interrupted") {
            break;
        }
    }
    assert_eq!(executed_total, 4, "matrix never completed");

    // A further restart finds nothing stale to do.
    let idle = watch(&resumed_store, &[]);
    let idle_out = String::from_utf8_lossy(&idle.stdout);
    assert!(
        idle_out.contains("cycle 2: 4 pairs, 0 already done, 4 executed")
            || idle_out.contains("4 already done, 0 executed"),
        "unexpected idle stdout: {idle_out}"
    );

    // The acceptance bar: final heatmaps byte-identical to the
    // uninterrupted run.
    let baseline_csvs = report_csvs(&baseline_store, &tmp_dir("baseline_report"));
    let resumed_csvs = report_csvs(&resumed_store, &tmp_dir("resumed_report"));
    assert_eq!(
        baseline_csvs, resumed_csvs,
        "resumed run must reproduce the uninterrupted heatmaps byte-for-byte"
    );

    let base = std::env::temp_dir().join("prudentia_daemon_integration");
    for dir in [
        "baseline_store",
        "resumed_store",
        "baseline_report",
        "resumed_report",
    ] {
        std::fs::remove_dir_all(base.join(dir)).ok();
    }
}

#[test]
fn flag_file_present_at_startup_stops_before_any_work() {
    let store = tmp_dir("flagged_store");
    let flag = tmp_dir("flagged_store_flag").with_extension("stop");
    std::fs::create_dir_all(flag.parent().unwrap()).ok();
    std::fs::write(&flag, b"stop").expect("flag file written");
    let out = watch(&store, &["--flag-file", flag.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "watch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("0 executed") && text.contains("interrupted"),
        "flag file must stop the daemon before any batch: {text}"
    );
    std::fs::remove_file(&flag).ok();
    std::fs::remove_dir_all(&store).ok();
}

/// The store's latest daemon checkpoint, once the store is readable.
fn checkpoint(store: &Path) -> Option<Checkpoint> {
    let snapshot = prudentia_store::Snapshot::read(store).ok()?;
    latest_checkpoint(&snapshot)
}

#[test]
fn sigterm_mid_cycle_checkpoints_and_resumes_to_a_byte_identical_report() {
    let base = tmp_dir("sigterm");
    let store = base.join("store");
    let mut args = vec!["watch", "--store", store.to_str().unwrap()];
    args.extend_from_slice(MATRIX_ARGS);
    args.extend_from_slice(&["--batch-pairs", "1"]);
    let child = Command::new(env!("CARGO_BIN_EXE_prudentia"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("watch spawns");

    // The cycle's opening checkpoint is written after the signal
    // handlers are installed, so from then on SIGTERM lands mid-cycle.
    let deadline = Instant::now() + Duration::from_secs(120);
    while checkpoint(&store).is_none() {
        assert!(Instant::now() < deadline, "the cycle never opened");
        std::thread::sleep(Duration::from_millis(5));
    }
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    assert!(kill.expect("kill runs").success());
    let out = child.wait_with_output().expect("watch exits");
    assert!(out.status.success(), "SIGTERM must stop with exit 0");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("interrupted"), "{text}");
    let ckpt = checkpoint(&store).expect("progress checkpoint");
    assert!(!ckpt.completed, "the interrupted cycle is not complete");

    // Rerunning the command finishes the cycle ...
    let resumed = watch(&store, &["--batch-pairs", "1"]);
    let text = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        resumed.status.success() && text.contains("cycle 1:"),
        "{text}"
    );
    assert!(!text.contains("interrupted"), "{text}");
    // ... to the bytes of an uninterrupted run.
    let baseline_store = base.join("baseline_store");
    assert!(watch(&baseline_store, &[]).status.success());
    assert_eq!(
        report_csvs(&store, &base.join("report")),
        report_csvs(&baseline_store, &base.join("baseline_report")),
        "a SIGTERM'd and resumed cycle must match an uninterrupted run"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn serve_answers_status_and_shuts_down_gracefully() {
    let store = tmp_dir("serve_store");
    // Seed the store with one completed 1x1 matrix so the endpoint has
    // real data.
    let seed = prudentia(&[
        "watch",
        "--store",
        store.to_str().unwrap(),
        "--services",
        "iperf-reno",
        "--trials",
        "1",
        "--setting",
        "8",
    ]);
    assert!(
        seed.status.success(),
        "seed watch failed: {}",
        String::from_utf8_lossy(&seed.stderr)
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_prudentia"))
        .args([
            "serve",
            "--store",
            store.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--services",
            "iperf-reno",
            "--setting",
            "8",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");

    // The bound address is announced on stderr:
    // "prudentia serving on http://127.0.0.1:PORT/".
    let mut reader = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("serve announces");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split('/').next())
        .unwrap_or_else(|| panic!("no address in: {line}"))
        .to_string();

    let fetch = |path: &str| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: watchdog\r\n\r\n").as_bytes())
            .expect("request sent");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("response read");
        body
    };

    let status = fetch("/status");
    assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
    assert!(status.contains("\"service\":\"prudentia\""), "{status}");
    assert!(status.contains("\"pairs_total\":1"), "{status}");

    let freshness = fetch("/freshness");
    assert!(
        freshness.contains("\"tested_this_cycle\":true"),
        "{freshness}"
    );

    let heatmap = fetch("/heatmap.csv");
    assert!(heatmap.contains("contender\\incumbent"), "{heatmap}");

    let bye = fetch("/shutdown");
    assert!(bye.contains("shutting_down"), "{bye}");
    let code = child.wait().expect("serve exits");
    assert!(code.success(), "serve must exit 0 after /shutdown");
    std::fs::remove_dir_all(&store).ok();
}
