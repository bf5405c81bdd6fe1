//! Golden CLI tests: the subcommand interface must keep its stdout
//! deterministic, route errors to their documented exit codes, and
//! answer `--help` everywhere.

use std::process::{Command, Output, Stdio};

fn prudentia(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prudentia"))
        .args(args)
        .output()
        .expect("prudentia binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

/// Split a space-separated argument line.
fn argv(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

#[test]
fn legacy_pair_spelling_exits_2_and_run_prints_the_pair() {
    let pair = "iperf-reno iperf-cubic --trials 1 --setting 8 --seed 7";
    let modern = prudentia(&argv(&format!("run {pair}")));
    assert!(modern.status.success(), "run failed: {}", stderr(&modern));
    let text = stdout(&modern);
    assert!(text.contains("(contender) vs"), "{text}");
    assert!(
        !stderr(&modern).contains("deprecated"),
        "{}",
        stderr(&modern)
    );
    let legacy = prudentia(&argv(&format!("pair {pair}")));
    assert_eq!(legacy.status.code(), Some(2), "`pair` is not a command");
}

#[test]
fn legacy_solo_spelling_exits_2_and_run_solo_probes() {
    let modern = prudentia(&argv("run --solo iperf-reno --seed 3"));
    assert!(modern.status.success(), "run --solo: {}", stderr(&modern));
    assert!(stdout(&modern).contains("solo over"), "{}", stdout(&modern));
    for legacy in ["solo iperf-reno --seed 3", "--validate"] {
        assert_eq!(prudentia(&argv(legacy)).status.code(), Some(2), "{legacy}");
    }
}

#[test]
fn matrix_stdout_is_deterministic_across_invocations() {
    let args = [
        "matrix",
        "--services",
        "iperf-reno,iperf-cubic",
        "--trials",
        "1",
        "--setting",
        "8",
    ];
    let first = prudentia(&args);
    let second = prudentia(&args);
    assert!(first.status.success(), "matrix failed: {}", stderr(&first));
    let first_out = stdout(&first);
    assert!(first_out.contains("8 Mbps"), "{first_out}");
    assert!(first_out.contains("iPerf (Ren"), "{first_out}");
    assert_eq!(first_out, stdout(&second), "matrix must be deterministic");
}

#[test]
fn list_is_stable_and_contains_the_catalog() {
    let out = prudentia(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for label in ["YouTube", "Netflix", "iPerf-Cubic", "iPerf-BBR-4.15"] {
        assert!(text.contains(label), "missing {label} in:\n{text}");
    }
}

#[test]
fn help_answers_globally_and_per_subcommand() {
    let global = prudentia(&["--help"]);
    assert!(global.status.success());
    assert!(stdout(&global).contains("usage: prudentia <command>"));
    for cmd in [
        "run", "matrix", "watch", "serve", "report", "validate", "list", "classify",
    ] {
        let out = prudentia(&[cmd, "--help"]);
        assert!(out.status.success(), "{cmd} --help failed");
        assert!(
            stdout(&out).contains(&format!("usage: prudentia {cmd}")),
            "{cmd} --help output:\n{}",
            stdout(&out)
        );
    }
}

#[test]
fn errors_map_to_documented_exit_codes() {
    // No command / unknown command / bad flag: usage (2).
    assert_eq!(prudentia(&[]).status.code(), Some(2));
    assert_eq!(prudentia(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(
        prudentia(&["matrix", "--no-such-flag"]).status.code(),
        Some(2)
    );
    assert_eq!(
        prudentia(&["serve"]).status.code(),
        Some(2),
        "serve needs --store"
    );
    // Unknown service: 3.
    let out = prudentia(&["classify", "no-such-service"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("no-such-service"));
    // Unreadable store: store error (5).
    let out = prudentia(&["report", "--store", "/nonexistent/prudentia-store"]);
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
}

#[test]
fn zero_trials_is_an_invalid_config_not_a_panic() {
    let store = std::env::temp_dir().join("prudentia_cli_zero_trials");
    let daemon = format!("watch --store {} --services iperf-reno", store.display());
    for cmd in [
        "run iperf-reno iperf-cubic",
        "watch --services iperf-reno",
        &daemon,
    ] {
        let out = prudentia(&argv(&format!("{cmd} --trials 0 --setting 8")));
        assert_eq!(out.status.code(), Some(6), "{cmd}: {}", stderr(&out));
        assert!(
            !stderr(&out).contains("panicked"),
            "{cmd}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn watch_prints_the_same_with_a_temporary_or_a_durable_store() {
    let base = std::env::temp_dir().join("prudentia_cli_watch_modes");
    std::fs::remove_dir_all(&base).ok();
    let matrix = format!(
        "--services iperf-reno,iperf-cubic --trials 1 --setting 8 --iterations 2 --cache {}",
        base.join("trials.json").display()
    );
    let child = Command::new(env!("CARGO_BIN_EXE_prudentia"))
        .args(argv(&format!("watch --stats {matrix}")))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("prudentia binary runs");
    let temp_store = format!("prudentia-watch-{}-", child.id());
    let storeless = child.wait_with_output().expect("watch exits");
    let text = stdout(&storeless);
    for cycle in ["cycle 1", "cycle 2"] {
        let line = format!("{cycle}: 4 pairs, 0 already done, 4 executed");
        assert!(text.contains(&line), "{text}");
    }
    let log = stderr(&storeless);
    assert!(
        log.contains("trials: 0 simulated"),
        "cycle 2 replays: {log}"
    );
    let left = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir lists")
        .flatten()
        .any(|e| e.file_name().to_string_lossy().starts_with(&temp_store));
    assert!(!left, "the temporary store must be removed on exit");

    let store = base.join("store");
    let durable = prudentia(&argv(&format!(
        "watch --store {} {matrix}",
        store.display()
    )));
    assert_eq!(text, stdout(&durable), "only the store location may differ");
    std::fs::remove_dir_all(&base).ok();
}
