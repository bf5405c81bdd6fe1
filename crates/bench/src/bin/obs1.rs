//! Observation 1: unfair outcomes are common. Computes the losing-service
//! MmF-share distribution per setting from the all-pairs run, plus the
//! abstract's headline numbers (mean/median loser share and the
//! self-competition average).

use prudentia_bench::{load_or_run_allpairs, outcomes_in, Mode};
use prudentia_core::{loser_stats, self_competition_mean, NetworkSetting};

fn main() {
    let mode = Mode::from_env();
    let allpairs = load_or_run_allpairs(mode);
    for setting in [
        NetworkSetting::highly_constrained(),
        NetworkSetting::moderately_constrained(),
    ] {
        let outcomes = outcomes_in(&allpairs, &setting);
        let stats = loser_stats(&outcomes);
        println!();
        println!("Obs 1 — {}", setting.name);
        println!("  competitions (non-self pairs): {}", stats.competitions);
        println!(
            "  losing service: median {:.0}% of MmF share, mean {:.0}%",
            stats.median_loser_share * 100.0,
            stats.mean_loser_share * 100.0
        );
        println!(
            "  losers at <=90% of their share: {:.0}%   at <=50%: {:.0}%",
            stats.frac_below_90 * 100.0,
            stats.frac_below_50 * 100.0
        );
        let self_mean = self_competition_mean(&outcomes);
        println!(
            "  self-competition (X vs X) mean share: {:.0}%",
            self_mean * 100.0
        );
    }
    // Overall (both settings), the abstract's framing.
    let stats = loser_stats(&allpairs);
    println!();
    println!(
        "Overall: losing services achieve on average {:.0}% of their max-min fair",
        stats.mean_loser_share * 100.0
    );
    println!(
        "share ({:.0}% median). Paper: 72% average, 84% median; 69%/86% medians in",
        stats.median_loser_share * 100.0
    );
    println!("the highly-/moderately-constrained settings respectively.");
}
