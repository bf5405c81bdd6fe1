//! Integration tests of the metrics pipeline: MmF accounting, heatmaps,
//! and observation extraction over real experiment outputs.

use prudentia_apps::Service;
use prudentia_core::{
    execute_pairs, loser_stats, DurationPolicy, ExecutorConfig, Heatmap, HeatmapStat,
    NetworkSetting, PairSpec, TrialPolicy,
};

fn mini_allpairs() -> (Vec<String>, Vec<prudentia_core::PairOutcome>) {
    let services = [Service::IperfReno, Service::IperfCubic, Service::YouTube];
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
    let policy = TrialPolicy {
        min_trials: 2,
        batch: 1,
        max_trials: 2,
    };
    let config = ExecutorConfig::new(policy, DurationPolicy::Quick, 4);
    let (outcomes, _) = execute_pairs(&pairs, &config).expect("valid config");
    let labels = services
        .iter()
        .map(|s| s.spec().name().to_string())
        .collect();
    (labels, outcomes)
}

#[test]
fn heatmaps_cover_every_pair() {
    let (labels, outcomes) = mini_allpairs();
    assert_eq!(outcomes.len(), 9);
    for stat in [
        HeatmapStat::MmfSharePct,
        HeatmapStat::UtilizationPct,
        HeatmapStat::LossRatePct,
        HeatmapStat::QueueingDelayMs,
    ] {
        let map = Heatmap::build(stat, &labels, &outcomes);
        for a in &labels {
            for b in &labels {
                assert!(map.cell(a, b).is_some(), "{stat:?} missing cell {a} vs {b}");
            }
        }
    }
}

#[test]
fn mmf_heatmap_shows_youtube_sensitivity() {
    let (labels, outcomes) = mini_allpairs();
    let map = Heatmap::build(HeatmapStat::MmfSharePct, &labels, &outcomes);
    // Column mean (sensitivity): YouTube should be the lowest of the three.
    let yt = map.col_mean("YouTube").expect("yt col");
    let reno = map.col_mean("iPerf (Reno)").expect("reno col");
    let cubic = map.col_mean("iPerf (Cubic)").expect("cubic col");
    assert!(
        yt < reno && yt < cubic,
        "YouTube must be the most sensitive: yt={yt:.0} reno={reno:.0} cubic={cubic:.0}"
    );
    // Row mean (contentiousness): YouTube's contenders do best against it.
    let yt_row = map.row_mean("YouTube").expect("yt row");
    assert!(
        yt_row > map.row_mean("iPerf (Cubic)").unwrap(),
        "YouTube must be less contentious than Cubic"
    );
}

#[test]
fn loser_stats_reflect_common_unfairness() {
    let (_, outcomes) = mini_allpairs();
    let stats = loser_stats(&outcomes);
    assert_eq!(stats.competitions, 6, "3x3 minus 3 self pairs");
    assert!(
        stats.median_loser_share < 1.0,
        "losers lose by definition: {:.2}",
        stats.median_loser_share
    );
    assert!(stats.frac_below_90 > 0.0, "some losers below 90%");
}

#[test]
fn utilization_heatmap_high_for_bulk_pairs() {
    let (labels, outcomes) = mini_allpairs();
    let map = Heatmap::build(HeatmapStat::UtilizationPct, &labels, &outcomes);
    let u = map.cell("iPerf (Reno)", "iPerf (Cubic)").expect("cell");
    assert!(u > 90.0, "bulk pair utilization {u:.0}%");
}

#[test]
fn csv_and_text_renderings_contain_all_services() {
    let (labels, outcomes) = mini_allpairs();
    let map = Heatmap::build(HeatmapStat::MmfSharePct, &labels, &outcomes);
    let txt = map.render_text();
    let csv = map.render_csv();
    for l in &labels {
        assert!(csv.contains(l.as_str()), "csv missing {l}");
        // Text truncates to the column width.
        let short = &l[..l.len().min(10)];
        assert!(txt.contains(short), "text missing {short}");
    }
}
