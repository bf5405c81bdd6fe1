//! Figure 2: median MmF share obtained by an incumbent service when
//! competing with a given contender — the all-pairs heatmaps for the
//! 8 Mbps (highly-constrained) and 50 Mbps (moderately-constrained)
//! settings. Rows are contenders (contentiousness), columns are
//! incumbents (sensitivity).

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
        let map = Heatmap::build(HeatmapStat::MmfSharePct, &labels, &outcomes);
        println!();
        println!("Fig 2 — {} — {}", setting.name, map.stat.title());
        println!("{}", map.render_text());
        // Row/column summaries, the way §4 reads the figure.
        println!("contentiousness (row means, lower = more contentious):");
        for l in &labels {
            if let Some(m) = map.row_mean(l) {
                println!("  {l:<16} {m:6.1}%");
            }
        }
        println!("sensitivity (column means, lower = more sensitive):");
        for l in &labels {
            if let Some(m) = map.col_mean(l) {
                println!("  {l:<16} {m:6.1}%");
            }
        }
        let csv = results_dir().join(format!(
            "fig2_{}_{}.csv",
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
    let unstable: Vec<_> = allpairs.iter().filter(|o| !o.converged).collect();
    if !unstable.is_empty() {
        println!();
        println!(
            "pairs failing the §3.4 CI stopping rule (Obs 15 'unstable'): {}",
            unstable.len()
        );
        for p in unstable.iter().take(10) {
            println!("  {} vs {} [{}]", p.contender, p.incumbent, p.setting);
        }
    }
}
