//! Submitting a custom service for evaluation — the paper's Appendix A
//! workflow ("Prudentia allows externally submitted services to be
//! evaluated as a part of its testbed").
//!
//! ```sh
//! cargo run --release --example custom_service
//! ```
//!
//! Defines a hypothetical new startup's file-transfer service (3 parallel
//! Cubic flows, fresh connections per request burst — a common "download
//! accelerator" design) and evaluates it against the standard incumbents,
//! producing the report a submitter would get back.

use prudentia_apps::{Service, ServiceSpec};
use prudentia_cc::CcaKind;
use prudentia_core::{
    execute_pairs, DurationPolicy, ExecutorConfig, NetworkSetting, PairSpec, PrudentiaError,
    TrialPolicy,
};

fn main() -> Result<(), PrudentiaError> {
    // The submitted service: an aggressive 3-flow downloader.
    let submitted = ServiceSpec::Bulk {
        name: "startup-downloader".into(),
        cca: CcaKind::Cubic,
        flows: 3,
        cap_bps: None,
        file_bytes: None,
    };

    let incumbents = [
        Service::YouTube,
        Service::Netflix,
        Service::Dropbox,
        Service::GoogleMeet,
        Service::IperfReno,
    ];
    let policy = TrialPolicy {
        min_trials: 3,
        batch: 2,
        max_trials: 5,
    };

    println!(
        "Evaluation report for submitted service: {}",
        submitted.name()
    );
    println!("==================================================================");
    for setting in [
        NetworkSetting::highly_constrained(),
        NetworkSetting::moderately_constrained(),
    ] {
        println!("\n{}", setting.name);
        println!(
            "  {:<14} {:>14} {:>14} {:>8}",
            "incumbent", "their share", "your share", "verdict"
        );
        let pairs: Vec<PairSpec> = incumbents
            .iter()
            .map(|inc| PairSpec {
                contender: submitted.clone(),
                incumbent: inc.spec(),
                setting: setting.clone(),
            })
            .collect();
        let config = ExecutorConfig::new(policy, DurationPolicy::Quick, 1);
        let (outcomes, _) = execute_pairs(&pairs, &config)?;
        for (inc, out) in incumbents.iter().zip(outcomes) {
            let verdict = if out.incumbent_mmf_median < 0.5 {
                "HARMFUL"
            } else if out.incumbent_mmf_median < 0.9 {
                "unfair"
            } else {
                "ok"
            };
            println!(
                "  {:<14} {:>13.0}% {:>13.0}% {:>8}",
                inc.label(),
                out.incumbent_mmf_median * 100.0,
                out.contender_mmf_median * 100.0,
                verdict
            );
        }
    }
    println!("\nMulti-flow designs take more than their share from single-flow");
    println!("services (Obs 3). Consider a single connection, or validate against");
    println!("the full pairwise matrix before deployment — fairness against one");
    println!("incumbent does not generalize (Obs 14).");
    Ok(())
}
