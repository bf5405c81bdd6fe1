//! The continuous watchdog loop — a miniature of the live deployment at
//! internetfairness.net: cycle over all service pairs, persist every
//! outcome in a durable store, and flag pairs whose fairness profile
//! changed against their previous stored outcome (the capability that
//! detected Google Drive's BBRv3 rollout, Obs 13).
//!
//! ```sh
//! cargo run --release --example watchdog_daemon
//! ```

use prudentia_apps::{Service, ServiceSpec};
use prudentia_cc::CcaKind;
use prudentia_core::{
    Daemon, DaemonConfig, DurationPolicy, NetworkSetting, PrudentiaError, TrialPolicy,
    WatchdogConfig,
};
use std::path::Path;

/// Open the daemon over `store`. A small rotation and a short trial
/// policy keep the example prompt; the default config watches both
/// settings under the paper's protocol.
fn open(services: Vec<ServiceSpec>, store: &Path) -> Result<Daemon, PrudentiaError> {
    let mut config = DaemonConfig::new(store);
    config.watchdog = WatchdogConfig::builder()
        .settings(vec![NetworkSetting::highly_constrained()])
        .policy(TrialPolicy {
            min_trials: 2,
            batch: 1,
            max_trials: 3,
        })
        .duration(DurationPolicy::Quick)
        .change_threshold(0.15)
        .build()?;
    Daemon::open(services, config)
}

fn main() -> Result<(), PrudentiaError> {
    let store =
        std::env::temp_dir().join(format!("prudentia-watchdog-example-{}", std::process::id()));
    std::fs::remove_dir_all(&store).ok();
    let mut services = vec![
        Service::Dropbox.spec(),
        Service::YouTube.spec(),
        Service::IperfReno.spec(),
    ];

    println!("cycle 1: establishing the baseline...");
    let first = open(services.clone(), &store)?.run_cycle()?;
    assert!(first.changes.is_empty(), "no baseline yet, no changes");
    println!(
        "  {} pair outcomes recorded in {}",
        first.pairs_executed,
        store.display()
    );

    // Simulate a provider deployment: "Dropbox" upgrades its servers from
    // BBRv1 to BBRv3 between cycles (exactly the class of change the real
    // watchdog caught at Google Drive in 2023). The restarted daemon
    // reopens the same store, so its baseline is the stored cycle 1.
    println!("\n(between cycles: Dropbox deploys BBRv3 on its servers)\n");
    services[0] = ServiceSpec::Bulk {
        name: "Dropbox".into(),
        cca: CcaKind::BbrV3,
        flows: 1,
        cap_bps: None,
        file_bytes: None,
    };

    println!("cycle 2: re-testing all pairs against the stored outcomes...");
    let second = open(services, &store)?.run_cycle()?;
    if second.changes.is_empty() {
        println!("  no fairness changes above the reporting threshold");
    } else {
        println!("  fairness changes detected:");
        for c in &second.changes {
            println!(
                "    {} vs {} [{}]: incumbent MmF share {:.0}% -> {:.0}% ({:+.0}%)",
                c.contender,
                c.incumbent,
                c.setting,
                c.before * 100.0,
                c.after * 100.0,
                (c.after - c.before) / c.before * 100.0,
            );
        }
    }
    println!(
        "\nwatchdog ran {} cycles, {} outcomes stored; services are not",
        second.cycle,
        first.pairs_executed + second.pairs_executed
    );
    println!("'one and done' — fairness must be monitored continuously (§7).");
    std::fs::remove_dir_all(&store).ok();
    Ok(())
}
