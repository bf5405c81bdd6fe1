//! Generate the full watchdog report as Markdown — the simulated
//! equivalent of what internetfairness.net publishes: both Fig 2 heatmaps,
//! the appendix heatmaps, contentiousness/sensitivity rankings, the Obs 1
//! statistics, and the unstable-pair list, all from the cached all-pairs
//! run. Output: `results/report_<mode>.md`.

use prudentia_bench::{heatmap_labels, load_or_run_allpairs, outcomes_in, results_dir, Mode};
use prudentia_core::{loser_stats, self_competition_mean, Heatmap, HeatmapStat, NetworkSetting};
use std::fmt::Write as _;

fn heatmap_md(map: &Heatmap) -> String {
    let mut out = String::new();
    out.push_str("| contender \\ incumbent |");
    for s in &map.services {
        let _ = write!(out, " {s} |");
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &map.services {
        out.push_str("---|");
    }
    out.push('\n');
    for (r, s) in map.services.iter().enumerate() {
        let _ = write!(out, "| **{s}** |");
        for c in 0..map.services.len() {
            let v = map.cells[r][c];
            if v.is_nan() {
                out.push_str(" – |");
            } else {
                let _ = write!(out, " {v:.0} |");
            }
        }
        out.push('\n');
    }
    out
}

fn main() {
    let mode = Mode::from_env();
    let allpairs = load_or_run_allpairs(mode);
    let labels = heatmap_labels();
    let mut md = String::new();
    let _ = writeln!(md, "# Prudentia watchdog report ({} mode)\n", mode.tag());
    let _ = writeln!(
        md,
        "Median per-pair statistics over {} recorded pair outcomes.\n",
        allpairs.len()
    );

    for setting in [
        NetworkSetting::highly_constrained(),
        NetworkSetting::moderately_constrained(),
    ] {
        let outcomes = outcomes_in(&allpairs, &setting);
        let _ = writeln!(md, "## {}\n", setting.name);
        for stat in [
            HeatmapStat::MmfSharePct,
            HeatmapStat::UtilizationPct,
            HeatmapStat::LossRatePct,
            HeatmapStat::QueueingDelayMs,
        ] {
            let map = Heatmap::build(stat, &labels, &outcomes);
            let _ = writeln!(md, "### {}\n", stat.title());
            md.push_str(&heatmap_md(&map));
            md.push('\n');
        }

        // Rankings.
        let map = Heatmap::build(HeatmapStat::MmfSharePct, &labels, &outcomes);
        let mut rows: Vec<(String, f64)> = labels
            .iter()
            .filter_map(|l| map.row_mean(l).map(|m| (l.clone(), m)))
            .collect();
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN"));
        let _ = writeln!(md, "### Contentiousness ranking (most contentious first)\n");
        for (i, (l, m)) in rows.iter().enumerate() {
            let _ = writeln!(
                md,
                "{}. **{}** — competitors average {:.0}% of their fair share",
                i + 1,
                l,
                m
            );
        }
        md.push('\n');
        let mut cols: Vec<(String, f64)> = labels
            .iter()
            .filter_map(|l| map.col_mean(l).map(|m| (l.clone(), m)))
            .collect();
        cols.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN"));
        let _ = writeln!(md, "### Sensitivity ranking (most sensitive first)\n");
        for (i, (l, m)) in cols.iter().enumerate() {
            let _ = writeln!(
                md,
                "{}. **{}** — averages {:.0}% of its fair share under contention",
                i + 1,
                l,
                m
            );
        }
        md.push('\n');

        let stats = loser_stats(&outcomes);
        let _ = writeln!(md, "### Losing-service statistics (Obs 1)\n");
        let _ = writeln!(
            md,
            "- median loser share: **{:.0}%** (mean {:.0}%)",
            stats.median_loser_share * 100.0,
            stats.mean_loser_share * 100.0
        );
        let _ = writeln!(
            md,
            "- losers at ≤90% of fair: {:.0}%; at ≤50%: {:.0}%",
            stats.frac_below_90 * 100.0,
            stats.frac_below_50 * 100.0
        );
        let _ = writeln!(
            md,
            "- self-competition mean: {:.0}%\n",
            self_competition_mean(&outcomes) * 100.0
        );
    }

    let unstable: Vec<_> = allpairs.iter().filter(|o| !o.converged).collect();
    let _ = writeln!(md, "## Unstable pairs (failed the §3.4 CI rule)\n");
    if unstable.is_empty() {
        let _ = writeln!(md, "none\n");
    } else {
        for p in unstable {
            let _ = writeln!(
                md,
                "- {} vs {} [{}] over {} trials",
                p.contender,
                p.incumbent,
                p.setting,
                p.trials.len()
            );
        }
    }

    let path = results_dir().join(format!("report_{}.md", mode.tag()));
    std::fs::write(&path, &md).expect("write report");
    println!("report written to {}", path.display());
    println!("{} bytes, {} lines", md.len(), md.lines().count());
}
