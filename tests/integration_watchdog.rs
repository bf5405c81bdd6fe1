//! Integration tests of the watchdog scheduler and its one loop, the
//! daemon: adaptive trials, and Obs 13 fairness-change detection against
//! stored history across restarts.

use prudentia_apps::{Service, ServiceSpec};
use prudentia_cc::CcaKind;
use prudentia_core::{
    execute_pairs, Daemon, DaemonConfig, DurationPolicy, ExecutorConfig, NetworkSetting,
    PairOutcome, PairSpec, TrialPolicy, WatchdogConfig,
};
use std::path::{Path, PathBuf};

fn tiny_policy() -> TrialPolicy {
    TrialPolicy {
        min_trials: 2,
        batch: 1,
        max_trials: 3,
    }
}

fn run_one(pair: PairSpec, policy: TrialPolicy, external_loss: f64) -> PairOutcome {
    let mut config = ExecutorConfig::new(policy, DurationPolicy::Quick, 1);
    config.external_loss = external_loss;
    execute_pairs(&[pair], &config)
        .expect("valid config")
        .0
        .remove(0)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("prudentia_watchdog_integration")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn watchdog(setting: NetworkSetting, policy: TrialPolicy, threshold: f64) -> WatchdogConfig {
    WatchdogConfig {
        settings: vec![setting],
        policy,
        duration: DurationPolicy::Quick,
        parallelism: 4,
        change_threshold: threshold,
        cache_path: None,
        metrics: None,
    }
}

/// A daemon over `dir` that runs one pair per batch, so `max_pairs` cuts
/// a cycle after exactly that many pairs.
fn open(
    dir: &Path,
    services: &[ServiceSpec],
    watchdog: &WatchdogConfig,
    max_pairs: Option<u64>,
) -> Daemon {
    let mut config = DaemonConfig::new(dir);
    config.watchdog = watchdog.clone();
    config.batch_pairs = 1;
    config.max_pairs_per_run = max_pairs;
    Daemon::open(services.to_vec(), config).expect("daemon opens")
}

#[test]
fn scheduler_extends_trials_for_unstable_pairs() {
    // A pair with substantial trial-to-trial spread should hit the cap
    // without converging under a tight tolerance.
    let mut setting = NetworkSetting::moderately_constrained();
    setting.name = "tight".into();
    let pair = PairSpec {
        contender: Service::Mega.spec(),
        incumbent: Service::OneDrive.spec(),
        setting,
    };
    let policy = TrialPolicy {
        min_trials: 6,
        batch: 2,
        max_trials: 8,
    };
    let out = run_one(pair, policy, 0.0);
    assert!(out.trials.len() >= 6);
    // Converged or not, the outcome carries the stability verdict.
    if !out.converged {
        assert_eq!(out.trials.len(), 8, "unstable pairs must exhaust the cap");
    }
}

#[test]
fn discarded_trials_are_replaced() {
    // With 30% external loss every trial is discarded; the safety valve
    // must terminate the pair with zero kept trials rather than loop.
    let pair = PairSpec {
        contender: Service::IperfReno.spec(),
        incumbent: Service::IperfReno.spec(),
        setting: NetworkSetting::highly_constrained(),
    };
    let out = run_one(pair, tiny_policy(), 0.30);
    assert!(
        out.trials.is_empty(),
        "trials with 30% external loss must all be discarded"
    );
    assert!(!out.converged);
}

#[test]
fn parallel_runner_is_exhaustive_and_deterministic() {
    let services = [Service::IperfReno, Service::IperfCubic];
    let mut pairs = Vec::new();
    for a in &services {
        for b in &services {
            pairs.push(PairSpec {
                contender: a.spec(),
                incumbent: b.spec(),
                setting: NetworkSetting::highly_constrained(),
            });
        }
    }
    let config = ExecutorConfig::new(tiny_policy(), DurationPolicy::Quick, 4);
    let run = || {
        let (outcomes, _) = execute_pairs(&pairs, &config).expect("valid config");
        outcomes
            .into_iter()
            .map(|o| (o.contender, o.incumbent, o.incumbent_mmf_median))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), 4);
    assert_eq!(a, b, "parallel execution must not change outcomes");
}

#[test]
fn watchdog_detects_cca_deployment_change() {
    // Replicates Obs 13: a service whose CCA changes between cycles is
    // reported as a fairness change against its stored outcome.
    let dir = tmp_dir("obs13");
    let config = watchdog(
        NetworkSetting::moderately_constrained(),
        tiny_policy(),
        0.10,
    );
    let services = [Service::IperfReno.spec(), Service::Mega.spec()];
    let first = open(&dir, &services, &config, None)
        .run_cycle()
        .expect("cycle 1");
    assert!(first.changes.is_empty(), "no baseline yet");
    // "Mega fixes its batching": the store is reopened with a polite
    // single-flow service under the same name.
    let polite_mega = ServiceSpec::Bulk {
        name: "Mega".into(),
        cca: CcaKind::BbrV1Linux415,
        flows: 1,
        cap_bps: None,
        file_bytes: None,
    };
    let services = [Service::IperfReno.spec(), polite_mega];
    let second = open(&dir, &services, &config, None)
        .run_cycle()
        .expect("cycle 2");
    assert_eq!(second.cycle, 2);
    assert!(
        second
            .changes
            .iter()
            .any(|c| c.contender == "Mega" && c.incumbent == "iPerf (Reno)"),
        "the watchdog must flag Mega's behaviour change: {:?}",
        second.changes
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn change_detection_survives_an_interrupted_cycle() {
    let base = tmp_dir("restart");
    let downloader = |flows| ServiceSpec::Bulk {
        name: "Downloader".into(),
        cca: CcaKind::NewReno,
        flows,
        cap_bps: None,
        file_bytes: None,
    };
    // Cycle 1 sees a single-flow downloader, cycle 2 a four-flow one.
    let before = [Service::IperfReno.spec(), downloader(1)];
    let after = [Service::IperfReno.spec(), downloader(4)];
    let one_trial = TrialPolicy {
        min_trials: 1,
        batch: 1,
        max_trials: 1,
    };
    // A shared trial cache replays every daemon after the reference.
    let cycle = |store: &str, services: &[ServiceSpec], threshold, max_pairs| {
        let config = WatchdogConfig {
            cache_path: Some(base.join("trials.json")),
            ..watchdog(NetworkSetting::highly_constrained(), one_trial, threshold)
        };
        let mut daemon = open(&base.join(store), services, &config, max_pairs);
        daemon.run_cycle().expect("cycle runs")
    };

    // Uninterrupted reference; a zero threshold reports any movement.
    cycle("reference", &before, 0.0, None);
    let want = cycle("reference", &after, 0.0, None);
    assert!(!want.changes.is_empty(), "the downloader must move shares");

    // Same history, but cycle 2 is cut after two pairs and finished by a
    // restarted daemon: together they report exactly the same changes.
    cycle("resumed", &before, 0.0, None);
    let cut = cycle("resumed", &after, 0.0, Some(2));
    let rest = cycle("resumed", &after, 0.0, None);
    assert!(cut.interrupted && rest.completed() && rest.cycle == 2);
    assert!(!cut.changes.is_empty() && !rest.changes.is_empty());
    let resumed: Vec<_> = cut.changes.iter().chain(&rest.changes).collect();
    assert_eq!(
        format!("{resumed:?}"),
        format!("{:?}", want.changes.iter().collect::<Vec<_>>())
    );

    // A threshold above the largest observed shift reports nothing.
    let largest = want
        .changes
        .iter()
        .map(|c| c.relative_change())
        .fold(0.0, f64::max);
    cycle("quiet", &before, largest * 1.01, None);
    let quiet = cycle("quiet", &after, largest * 1.01, None);
    assert_eq!(quiet.pairs_executed, 4);
    assert!(quiet.changes.is_empty(), "{:?}", quiet.changes);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn store_survives_roundtrip_through_disk() {
    let dir = tmp_dir("roundtrip");
    let config = watchdog(NetworkSetting::highly_constrained(), tiny_policy(), 0.2);
    let services = [Service::IperfReno.spec(), Service::IperfCubic.spec()];
    let mut daemon = open(&dir, &services, &config, None);
    daemon.run_cycle().expect("cycle runs");
    let medians = |d: &Daemon| -> Vec<f64> {
        d.outcomes()
            .iter()
            .map(|o| o.incumbent_mmf_median)
            .collect()
    };
    let written = medians(&daemon);
    drop(daemon);
    let back = medians(&open(&dir, &services, &config, None));
    assert_eq!(back.len(), 4);
    assert_eq!(back, written);
    std::fs::remove_dir_all(&dir).ok();
}
