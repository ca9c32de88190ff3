//! Shape predicates over the committed `results/*.csv`.
//!
//! `armbar verify` proves the CSVs are what the code produces; these tests
//! prove that what is committed still says what EXPERIMENTS.md claims —
//! Figure 4's tipping ratio, proofs on every lint/synth row, LDAPR relaxing exactly the
//! distinguishing shapes, cause shares summing to one, the many-core
//! crossover, monotone latency quantiles. They only read files (std, no
//! simulator), so they run in milliseconds under tier-1 `cargo test`.

use std::collections::{BTreeMap, BTreeSet};

/// One CSV as a list of rows, each a column-name → field map.
fn read_csv(name: &str) -> Vec<BTreeMap<String, String>> {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        !text.contains('"'),
        "{name}: quoted fields need a real CSV parser"
    );
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header line").split(',').collect();
    let rows: Vec<_> = lines
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), header.len(), "{name}: ragged row {line}");
            header
                .iter()
                .zip(fields)
                .map(|(h, f)| ((*h).to_string(), f.to_string()))
                .collect()
        })
        .collect();
    assert!(!rows.is_empty(), "{name} must have data rows");
    rows
}

fn num(row: &BTreeMap<String, String>, column: &str) -> f64 {
    row[column]
        .parse()
        .unwrap_or_else(|e| panic!("{column}={:?}: {e}", row[column]))
}

/// Figure 4: across nodes, enough nops hide DMB full-2, and at that point
/// DMB full-1 still runs at about half its throughput.
#[test]
fn fig4_cross_node_tipping_point_has_full1_at_about_half_of_full2() {
    let rows = read_csv("fig4.csv");
    let cross = rows
        .iter()
        .find(|r| r["placement"] == "Kunpeng916 cross nodes")
        .expect("a cross-node row");
    assert!(num(cross, "tipping nops") >= 100.0, "{cross:?}");
    let ratio = num(cross, "full1/full2 ratio");
    assert!((0.35..=0.7).contains(&ratio), "≈ one half, got {ratio}");
}

#[test]
fn lint_every_actionable_row_carries_a_proof_artifact() {
    let rows = read_csv("lint.csv");
    let kinds: BTreeSet<&str> = rows.iter().map(|r| r["kind"].as_str()).collect();
    for kind in ["redundant", "over-strong", "necessary"] {
        assert!(kinds.contains(kind), "no {kind} finding in {kinds:?}");
    }
    for r in &rows {
        match r["kind"].as_str() {
            "redundant" => {
                assert_eq!(r["proof"], "outcomes-equal", "{r:?}");
                assert_eq!(r["outcomes_added"], "0", "{r:?}");
                assert_eq!(r["outcomes_removed"], "0", "{r:?}");
            }
            "over-strong" => {
                // Only the acquire downgrade is proved by outcome-set equality.
                let downgrade = r["barrier"] == "LDAR" && r["suggestion"] == "LDAPR";
                let proof = if downgrade {
                    "outcomes-equal"
                } else {
                    "outcomes-preserved"
                };
                assert!(r["proof"].starts_with(proof), "{r:?}");
                assert_eq!(r["outcomes_added"], "0", "{r:?}");
            }
            _ => assert!(r["proof"].starts_with("witness:"), "{r:?}"),
        }
    }
}

#[test]
fn synth_every_front_is_proof_backed_and_never_dearer_than_its_seed() {
    let rows = read_csv("synth.csv");
    let mut fronts: BTreeMap<(&str, &str), Vec<&BTreeMap<String, String>>> = BTreeMap::new();
    for r in &rows {
        assert!(
            r["proof"] == "outcomes-equal" || r["proof"].starts_with("outcomes-preserved(-"),
            "{r:?}"
        );
        fronts
            .entry((&r["case"], &r["platform"]))
            .or_default()
            .push(r);
    }
    let cases: BTreeSet<&str> = fronts.keys().map(|&(c, _)| c).collect();
    let platforms: BTreeSet<&str> = fronts.keys().map(|&(_, p)| p).collect();
    assert_eq!(platforms.len(), 4, "{platforms:?}");
    assert_eq!(fronts.len(), cases.len() * 4, "a front per case × platform");
    for (key, points) in &fronts {
        let chosen: Vec<_> = points.iter().filter(|p| p["chosen"] == "1").collect();
        assert_eq!(chosen.len(), 1, "{key:?}");
        assert!(num(chosen[0], "saved_vs_seed") >= 0.0, "{:?}", chosen[0]);
        let counts: Vec<f64> = points.iter().map(|p| num(p, "barrier_count")).collect();
        let cycles: Vec<f64> = points.iter().map(|p| num(p, "cycles")).collect();
        assert!(
            counts.windows(2).all(|w| w[0] < w[1]),
            "{key:?}: {counts:?}"
        );
        assert!(
            cycles.windows(2).all(|w| w[0] >= w[1]),
            "{key:?}: {cycles:?}"
        );
    }
}

#[test]
fn rcpc_ldapr_relaxes_exactly_the_distinguishing_shapes() {
    let rows = read_csv("rcpc.csv");
    let by_shape: BTreeMap<&str, _> = rows.iter().map(|r| (r["shape"].as_str(), r)).collect();
    let pairs: Vec<(&str, String)> = by_shape
        .keys()
        .filter(|n| n.to_lowercase().contains("ldar"))
        .map(|n| (*n, n.replace("ldar", "ldapr").replace("LDAR", "LDAPR")))
        .collect();
    assert_eq!(pairs.len(), 5, "{:?}", by_shape.keys());
    for (sc_name, pc_name) in &pairs {
        let (sc, pc) = (by_shape[sc_name], by_shape[pc_name.as_str()]);
        assert_eq!(sc["relaxed_allowed"], "0", "{sc:?}");
        if sc_name.starts_with("SB+stlr") || sc_name.starts_with("RelSeq+stlr") {
            assert_eq!(pc["relaxed_allowed"], "1", "{pc:?}");
            assert!(num(pc, "outcomes") > num(sc, "outcomes"), "{sc:?} {pc:?}");
        } else {
            assert_eq!(pc["relaxed_allowed"], "0", "{pc:?}");
            assert_eq!(pc["outcomes"], sc["outcomes"], "{sc:?} {pc:?}");
        }
    }
}

#[test]
fn attrib_cause_shares_sum_to_one_on_every_stalled_row() {
    for r in read_csv("attrib.csv") {
        let total: f64 = r
            .keys()
            .filter(|c| *c != "workload")
            .map(|c| num(&r, c))
            .sum();
        assert!(total == 0.0 || (total - 1.0).abs() < 1e-9, "{r:?}: {total}");
    }
}

#[test]
fn manycore_hierarchical_beats_centralized_at_scale_and_loses_when_small() {
    let summary = read_csv("manycore_summary.csv");
    let threads: Vec<f64> = summary.iter().map(|r| num(r, "threads")).collect();
    assert_eq!(threads, [4.0, 16.0, 64.0, 256.0, 512.0, 1024.0]);
    for r in &summary {
        let (central, hier) = (num(r, "centralized"), num(r, "hierarchical"));
        let ratio = num(r, "centralized/hierarchical");
        assert!((ratio - central / hier).abs() < 1e-9, "{r:?}");
        if num(r, "threads") >= 512.0 {
            assert!(hier < central, "{r:?}");
        }
    }
    assert!(num(&summary[0], "centralized") <= num(&summary[0], "hierarchical"));

    let grid = read_csv("manycore.csv");
    assert_eq!(grid.len(), 2 * 6 * 3);
    let flavours: BTreeSet<&str> = grid
        .iter()
        .filter_map(|r| r["platform/family/threads"].split('/').next())
        .collect();
    assert_eq!(flavours, BTreeSet::from(["manycore", "manycore-mca"]));
}

#[test]
fn dlock_quantiles_are_monotone_subversion_is_by_construction_and_delegation_wins_somewhere() {
    let grid = read_csv("dlock.csv");
    // 12 designs over per-platform thread budgets: Kunpeng + manycore
    // {2,4,8,16}, the mobile SoCs {2,4,8}, the Pi {2,4}.
    assert_eq!(grid.len(), 12 * (4 + 3 + 3 + 2 + 4));
    for r in &grid {
        let key = &r["platform/design/threads"];
        let design = key.split('/').nth(1).expect("platform/design/threads");
        let (p50, p99, p999, max) = (num(r, "p50"), num(r, "p99"), num(r, "p999"), num(r, "max"));
        assert!(p50 <= p99 && p99 <= p999 && p999 <= max, "{key}");
        assert!(max > 0.0, "{key}");
        let fairness = num(r, "fairness");
        assert!(
            fairness > 0.0 && fairness <= 1.0 + 1e-12,
            "{key}: {fairness}"
        );
        let subverted = num(r, "subverted");
        if design == "ticket" || design == "mcs" {
            assert_eq!(subverted, 0.0, "{key}");
        } else if design.starts_with("ffwd-") || design.starts_with("rcl-") {
            assert!((subverted - 1.0).abs() < 1e-12, "{key}: {subverted}");
        } else {
            assert!(
                (0.0..=1.0 + 1e-12).contains(&subverted),
                "{key}: {subverted}"
            );
        }
    }

    // The paper's delegation claim: at the highest thread count on at least
    // one platform, the best delegation design out-throughputs the ticket
    // lock.
    let mut top: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for r in read_csv("dlock_summary.csv") {
        let (platform, threads) = r["platform/threads"]
            .split_once('/')
            .expect("platform/threads");
        let threads: f64 = threads.parse().expect("thread count");
        let entry = top.entry(platform.to_string()).or_insert((0.0, 0.0));
        if threads >= entry.0 {
            *entry = (threads, num(&r, "best/ticket"));
        }
    }
    assert!(top.values().any(|&(_, ratio)| ratio > 1.0), "{top:?}");
}
