//! Figure 11: median link utilization when two services compete (Appendix B.1). Symmetric; >=95% everywhere except Mega and some video pairs.
//!
//! Derived from the same all-pairs run as Fig 2 (cached in the results
//! directory).

use prudentia_bench::{heatmap_labels, load_or_run_allpairs, outcomes_in, results_dir, Mode};
use prudentia_core::{Heatmap, HeatmapStat, NetworkSetting};

fn main() {
    let mode = Mode::from_env();
    let allpairs = load_or_run_allpairs(mode);
    let labels = heatmap_labels();
    for setting in [
        NetworkSetting::highly_constrained(),
        NetworkSetting::moderately_constrained(),
    ] {
        let outcomes = outcomes_in(&allpairs, &setting);
        let map = Heatmap::build(HeatmapStat::UtilizationPct, &labels, &outcomes);
        println!();
        println!("Fig 11 — {} — {}", setting.name, map.stat.title());
        println!("{}", map.render_text());
        let csv = results_dir().join(format!(
            "fig11_{}_{}.csv",
            if setting.rate_bps < 10e6 {
                "8mbps"
            } else {
                "50mbps"
            },
            mode.tag()
        ));
        std::fs::write(&csv, map.render_csv()).expect("write csv");
        println!("(csv written to {})", csv.display());
    }
}
