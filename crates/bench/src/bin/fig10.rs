//! Figure 10 / Observation 15: per-trial instability. Some pairings
//! (OneDrive in both settings, Vimeo in the highly-constrained setting)
//! spread their per-trial throughputs so widely that they fail the §3.4
//! confidence-interval rule even at the trial cap.

use prudentia_apps::Service;
use prudentia_bench::{bar, Mode};
use prudentia_core::{execute_pairs, ExecutorConfig, NetworkSetting, PairSpec, PrudentiaError};
use prudentia_stats::{iqr, median};

fn main() -> Result<(), PrudentiaError> {
    let mode = Mode::from_env();
    let cases = [
        (
            Service::Mega,
            Service::OneDrive,
            NetworkSetting::moderately_constrained(),
        ),
        (
            Service::IperfBbr,
            Service::OneDrive,
            NetworkSetting::moderately_constrained(),
        ),
        (
            Service::Netflix,
            Service::Vimeo,
            NetworkSetting::highly_constrained(),
        ),
        // A stable reference pair for contrast.
        (
            Service::IperfCubic,
            Service::IperfReno,
            NetworkSetting::highly_constrained(),
        ),
    ];
    println!("Fig 10 — per-trial throughput of the service in CAPS in each pairing");
    let config = ExecutorConfig::new(mode.policy(), mode.duration(), 1);
    for (con, inc, setting) in cases {
        let pair = PairSpec {
            contender: con.spec(),
            incumbent: inc.spec(),
            setting: setting.clone(),
        };
        let (mut outcomes, _) = execute_pairs(&[pair], &config)?;
        let out = outcomes.pop().expect("one pair in, one outcome out");
        let samples = out.incumbent_samples_bps();
        let mbps: Vec<f64> = samples.iter().map(|b| b / 1e6).collect();
        println!();
        println!(
            "  {} vs {} [{}] — {} trials{}",
            con.label(),
            inc.label().to_uppercase(),
            setting.name,
            mbps.len(),
            if out.converged {
                ""
            } else {
                "  ** failed the CI stopping rule (unstable) **"
            }
        );
        let max = mbps.iter().cloned().fold(0.1, f64::max);
        for (i, v) in mbps.iter().enumerate() {
            println!(
                "    trial {:>2}: {:6.2} Mbps |{}",
                i + 1,
                v,
                bar(*v, max, 40)
            );
        }
        println!(
            "    median {:.2} Mbps, IQR {:.2} Mbps",
            median(&mbps),
            iqr(&mbps)
        );
    }
    println!();
    println!("Expected shape (paper): OneDrive's trials scatter widely against some");
    println!("contenders (sometimes-harmful, sometimes-not), while iPerf pairings are");
    println!("tight; unstable pairs are exactly the ones the scheduler re-queues up to");
    println!("its 30-trial cap without meeting the CI rule.");
    Ok(())
}
