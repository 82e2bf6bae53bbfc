//! Distributed-campaign integration tests: shard partition properties,
//! worker × N + merge byte-identity with the single-process path
//! (including after killing and re-running a worker mid-shard), overlap
//! dedup vs. conflict rejection, spec pinning, coverage validation, and
//! per-unit wall-time budgets.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::collections::HashSet;
use std::path::PathBuf;

use bsld::core::campaign::{
    read_manifest_at, run_campaign, Campaign, CampaignOptions, CellId, RepOutcome, RepRow,
    JSON_FILE, RESULTS_FILE,
};
use bsld::core::distrib::{
    merge_campaign, run_worker, shard_of, worker_manifest_file, Shard, SPEC_FILE,
};
use bsld::core::scenario::{ProfileName, Scenario, ScenarioSet, SweepAxis, WorkloadSpec};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsld_distrib_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn campaign_set(replications: u32) -> ScenarioSet {
    let base = Scenario::synthetic("dist", ProfileName::SdscBlue, 80, 42).map_workload(|w| {
        if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
            *scale_cpus = Some(64);
        }
    });
    ScenarioSet {
        base,
        axes: vec![SweepAxis::new("bsld_th", [1.5, 2.0, 3.0])],
        replications,
        cell_budget_s: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any planned campaign and any shard count N, the N shards are
    /// pairwise disjoint and together cover every planned unit — the
    /// invariant `campaign-merge` relies on for its coverage check.
    #[test]
    fn shards_partition_the_unit_space(
        th10 in proptest::collection::vec(10u32..400, 1..5),
        reps in 1u32..=6,
        n in 1u32..=16,
    ) {
        // Deduplicate thresholds: identical sweep values are (rightly)
        // rejected by the planner as indistinguishable cells.
        let mut th10 = th10;
        th10.sort_unstable();
        th10.dedup();
        let mut set = campaign_set(reps);
        set.axes = vec![SweepAxis::new(
            "bsld_th",
            th10.into_iter().map(|t| t as f64 / 10.0),
        )];
        let campaign = Campaign::plan(&set).map_err(TestCaseError::fail)?;
        let mut assigned: Vec<HashSet<(CellId, u32)>> = vec![HashSet::new(); n as usize];
        for u in &campaign.units {
            let id = campaign.cells[u.cell].id;
            let s = shard_of(id, u.rep, n);
            prop_assert!(s < n, "shard out of range");
            assigned[s as usize].insert((id, u.rep));
        }
        // Disjoint (each unit was inserted into exactly one set) and
        // covering: the union has exactly one entry per planned unit.
        let total: usize = assigned.iter().map(HashSet::len).sum();
        prop_assert_eq!(total, campaign.units.len());
        let union: HashSet<_> = assigned.iter().flatten().collect();
        prop_assert_eq!(union.len(), campaign.units.len());
    }
}

/// Shard assignment is content-keyed: permuting the sweep axes (which
/// renames cells and reorders expansion) moves no unit to another shard.
#[test]
fn shard_assignment_survives_axis_permutation() {
    let mut a = campaign_set(2);
    a.axes = vec![
        SweepAxis::new("bsld_th", [1.5, 3.0]),
        SweepAxis::new("enlarge_pct", [0, 50]),
    ];
    let mut b = a.clone();
    b.axes.reverse();
    let plan_a = Campaign::plan(&a).unwrap();
    let plan_b = Campaign::plan(&b).unwrap();
    let ids = |c: &Campaign| -> HashSet<CellId> { c.cells.iter().map(|cell| cell.id).collect() };
    assert_eq!(ids(&plan_a), ids(&plan_b), "cell identity ignores naming");
    for n in [1u32, 2, 3, 7] {
        // Cross-plan: every unit of plan A exists in plan B under the
        // same content key and lands on the same shard, even though its
        // expansion position and cell name differ.
        let b_shards: std::collections::HashMap<(CellId, u32), u32> = plan_b
            .units
            .iter()
            .map(|u| {
                let id = plan_b.cells[u.cell].id;
                ((id, u.rep), shard_of(id, u.rep, n))
            })
            .collect();
        for u in &plan_a.units {
            let id = plan_a.cells[u.cell].id;
            assert_eq!(
                b_shards.get(&(id, u.rep)),
                Some(&shard_of(id, u.rep, n)),
                "unit missing or re-sharded under permuted axes (n = {n})"
            );
        }
        // The shard → unit-set map is identical for both axis orders.
        let split = |c: &Campaign| -> Vec<HashSet<(CellId, u32)>> {
            let mut out = vec![HashSet::new(); n as usize];
            for u in &c.units {
                let id = c.cells[u.cell].id;
                out[shard_of(id, u.rep, n) as usize].insert((id, u.rep));
            }
            out
        };
        assert_eq!(split(&plan_a), split(&plan_b), "n = {n}");
    }
}

/// The headline guarantee: N workers + merge reproduce the single-process
/// artifacts byte for byte.
#[test]
fn three_workers_plus_merge_match_single_process_bytes() {
    let set = campaign_set(3);
    let single = tmp_dir("single");
    run_campaign(&set, &CampaignOptions::fresh(2, &single), None).unwrap();

    let shared = tmp_dir("shared");
    for i in 0..3 {
        let out = run_worker(&set, Shard::new(i, 3).unwrap(), 2, &shared, None).unwrap();
        assert!(out.failures.is_empty(), "shard {i}");
        assert_eq!(out.total_units, 9);
    }
    let merged = merge_campaign(&shared).unwrap();
    assert!(merged.outcome.failures.is_empty());
    assert_eq!(merged.workers, vec![0, 1, 2]);
    assert_eq!(merged.duplicate_rows, 0);

    for file in [RESULTS_FILE, JSON_FILE] {
        let a = std::fs::read_to_string(single.join(file)).unwrap();
        let b = std::fs::read_to_string(shared.join(file)).unwrap();
        assert_eq!(a, b, "{file} must be byte-identical");
    }
    // Every unit appears exactly once across the worker manifests.
    let mut seen = HashSet::new();
    for i in 0..3 {
        for row in read_manifest_at(&shared.join(worker_manifest_file(i))).unwrap() {
            assert!(seen.insert((row.cell, row.rep)), "duplicate unit");
        }
    }
    assert_eq!(seen.len(), 9);
    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&shared).ok();
}

/// Killing a worker after its first flushed row and re-running it resumes
/// that shard; the merge still matches the single-process run.
#[test]
fn killed_worker_reruns_and_merge_still_matches() {
    let set = campaign_set(3);
    let single = tmp_dir("ksingle");
    run_campaign(&set, &CampaignOptions::fresh(2, &single), None).unwrap();

    let shared = tmp_dir("kshared");
    // Worker 0 runs fully...
    let full = run_worker(&set, Shard::new(0, 3).unwrap(), 1, &shared, None).unwrap();
    assert!(full.shard_units >= 2, "test needs a shard with >= 2 units");
    // ...then "crashes": keep only the header and its first flushed row.
    let manifest = shared.join(worker_manifest_file(0));
    let text = std::fs::read_to_string(&manifest).unwrap();
    let kept: Vec<&str> = text.lines().take(2).collect();
    std::fs::write(&manifest, format!("{}\n", kept.join("\n"))).unwrap();

    // Re-running the same shard resumes: exactly one unit is cached.
    let rerun = run_worker(&set, Shard::new(0, 3).unwrap(), 1, &shared, None).unwrap();
    assert_eq!(rerun.resumed, 1, "one flushed row survives the kill");
    assert_eq!(rerun.shard_units, full.shard_units);

    for i in 1..3 {
        run_worker(&set, Shard::new(i, 3).unwrap(), 1, &shared, None).unwrap();
    }
    merge_campaign(&shared).unwrap();
    for file in [RESULTS_FILE, JSON_FILE] {
        let a = std::fs::read_to_string(single.join(file)).unwrap();
        let b = std::fs::read_to_string(shared.join(file)).unwrap();
        assert_eq!(a, b, "{file} must survive the kill + rerun");
    }
    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&shared).ok();
}

/// Identical overlap (a shard re-run under a different split, or a copied
/// manifest) is deduplicated; a conflicting row for the same unit is an
/// error, not silent corruption.
#[test]
fn merge_dedups_identical_overlap_and_rejects_conflicts() {
    let set = campaign_set(2);
    let shared = tmp_dir("overlap");
    for i in 0..2 {
        run_worker(&set, Shard::new(i, 2).unwrap(), 1, &shared, None).unwrap();
    }
    // Copy worker 0's rows into a bogus extra worker: pure overlap.
    std::fs::copy(
        shared.join(worker_manifest_file(0)),
        shared.join(worker_manifest_file(7)),
    )
    .unwrap();
    let merged = merge_campaign(&shared).unwrap();
    assert_eq!(merged.workers, vec![0, 1, 7]);
    assert!(merged.duplicate_rows > 0, "overlap must be deduplicated");

    // Corrupt one duplicated row's metric: now it conflicts.
    let path = shared.join(worker_manifest_file(7));
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let row = RepRow::parse_line(&lines[1]).expect("data row parses");
    assert!(matches!(row.outcome, RepOutcome::Ok(_)));
    lines[1] = {
        let mut r = row.clone();
        if let RepOutcome::Ok(m) = &mut r.outcome {
            m.avg_bsld += 1.0;
        }
        r.to_csv_line()
    };
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
    let err = merge_campaign(&shared).unwrap_err().to_string();
    assert!(err.contains("conflicting rows"), "{err}");
    assert!(
        err.contains("worker 7") || err.contains("worker 0"),
        "{err}"
    );
    std::fs::remove_dir_all(&shared).ok();
}

/// A manifest whose index spelling doesn't round-trip through the
/// canonical file name (`worker-01.csv`) is still read from its actual
/// path — its rows must not be silently dropped.
#[test]
fn merge_reads_non_canonical_manifest_names() {
    let set = campaign_set(2);
    let shared = tmp_dir("spelling");
    for i in 0..2 {
        run_worker(&set, Shard::new(i, 2).unwrap(), 1, &shared, None).unwrap();
    }
    // Rename worker 1's manifest to a zero-padded spelling: discovery
    // parses index 1, but the canonical name `worker-1.csv` no longer
    // exists on disk.
    std::fs::rename(
        shared.join(worker_manifest_file(1)),
        shared.join("campaign_manifest.worker-01.csv"),
    )
    .unwrap();
    let merged = merge_campaign(&shared).expect("rows must be found at their actual path");
    assert_eq!(merged.outcome.rows.len(), 6, "no rows dropped");
    assert!(merged.outcome.failures.is_empty());
    std::fs::remove_dir_all(&shared).ok();
}

/// The shared directory is pinned to one campaign: a worker arriving with
/// a different spec is rejected; merge without any workers (or without a
/// pinned spec) is an error.
#[test]
fn spec_pinning_and_merge_validation() {
    let set = campaign_set(2);
    let shared = tmp_dir("pin");
    run_worker(&set, Shard::new(0, 2).unwrap(), 1, &shared, None).unwrap();
    assert!(shared.join(SPEC_FILE).exists());

    let mut other = set.clone();
    if let WorkloadSpec::Synthetic { seed, .. } = &mut other.base.workload {
        *seed += 1;
    }
    let err = run_worker(&other, Shard::new(1, 2).unwrap(), 1, &shared, None)
        .unwrap_err()
        .to_string();
    assert!(err.contains("different campaign"), "{err}");

    // Merging with a missing shard names the unfinished units.
    let err = merge_campaign(&shared).unwrap_err().to_string();
    assert!(err.contains("no row in any worker manifest"), "{err}");
    assert!(err.contains("campaign-worker"), "{err}");

    // A directory without a pinned spec cannot merge.
    let empty = tmp_dir("pin_empty");
    let err = merge_campaign(&empty).unwrap_err().to_string();
    assert!(err.contains(SPEC_FILE), "{err}");
    std::fs::remove_dir_all(&shared).ok();
    std::fs::remove_dir_all(&empty).ok();
}

/// A failed unit still records where its wall-clock time went: all three
/// phase columns are present, finite and non-negative, and not all zero.
fn assert_phases_recorded(row: &RepRow) {
    let mut total = 0.0;
    for (name, v) in [
        ("parse_s", row.parse_s),
        ("build_s", row.build_s),
        ("sim_s", row.sim_s),
    ] {
        let v = v.unwrap_or_else(|| panic!("{}: {name} missing", row.name));
        assert!(v.is_finite() && v >= 0.0, "{}: {name} = {v}", row.name);
        total += v;
    }
    assert!(total > 0.0, "{}: phase timings dropped", row.name);
}

/// A zero cell budget aborts every unit deterministically: the sweep
/// completes (no stall), every unit is a `failed` row with the budget
/// reason and its phase timings, and a resume does not re-burn wall-clock
/// on them.
#[test]
fn zero_budget_records_failed_rows_and_completes() {
    let mut set = campaign_set(2);
    set.cell_budget_s = Some(0.0);
    let dir = tmp_dir("budget");
    let out = run_campaign(&set, &CampaignOptions::fresh(2, &dir), None).unwrap();
    assert_eq!(out.total_units, 6);
    assert_eq!(out.failures.len(), 6, "{:?}", out.failures);
    assert!(out.summaries.is_empty(), "no cell completed");
    assert_eq!(out.rows.len(), 6, "failed rows are rows too");
    for row in &out.rows {
        match &row.outcome {
            RepOutcome::Failed { reason } => {
                assert!(reason.contains("cell_budget_s"), "{reason}")
            }
            RepOutcome::Ok(_) => panic!("unit must have been cut off"),
        }
        assert_phases_recorded(row);
    }
    // Resume: all six failed rows are cached, nothing reruns.
    let resumed = run_campaign(&set, &CampaignOptions::resume(2, &dir), None).unwrap();
    assert_eq!(resumed.resumed, 6);
    assert_eq!(resumed.failures.len(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

/// An infeasible cell (hard cap nothing can start under) fails, keeping its
/// phase timings, while the rest of the sweep completes and aggregates —
/// in the single process, in the sharded workers, and byte-identically
/// across the two.
#[test]
fn infeasible_cell_fails_but_sweep_completes_everywhere() {
    let mut set = campaign_set(2);
    set.axes = vec![SweepAxis::new("cap", [0.001, 1.0])];
    let single = tmp_dir("capsingle");
    let out = run_campaign(&set, &CampaignOptions::fresh(2, &single), None).unwrap();
    assert_eq!(out.total_units, 4);
    assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
    assert_eq!(out.summaries.len(), 1, "the feasible cell aggregates");
    assert_eq!(out.summaries[0].bsld.n, 2);
    let failed: Vec<&RepRow> = out
        .rows
        .iter()
        .filter(|r| matches!(r.outcome, RepOutcome::Failed { .. }))
        .collect();
    assert_eq!(failed.len(), 2);
    for row in failed {
        assert_phases_recorded(row);
    }

    let shared = tmp_dir("capshared");
    let mut worker_failures = 0;
    for i in 0..2 {
        // A worker reports its shard's failures but still completes.
        let w = run_worker(&set, Shard::new(i, 2).unwrap(), 1, &shared, None).unwrap();
        worker_failures += w.failures.len();
    }
    assert_eq!(worker_failures, 2, "both infeasible units reported");
    let merged = merge_campaign(&shared).unwrap();
    assert_eq!(merged.outcome.failures.len(), 2);
    for file in [RESULTS_FILE, JSON_FILE] {
        let a = std::fs::read_to_string(single.join(file)).unwrap();
        let b = std::fs::read_to_string(shared.join(file)).unwrap();
        assert_eq!(a, b, "{file} must be byte-identical with failures too");
    }
    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&shared).ok();
}

/// Shard::parse accepts I/N and rejects malformed or out-of-range slots.
#[test]
fn shard_parse_validates() {
    assert_eq!(Shard::parse("0/3").unwrap(), Shard::new(0, 3).unwrap());
    assert_eq!(Shard::parse("2/3").unwrap().to_string(), "2/3");
    for bad in ["3/3", "1/0", "x/3", "1/x", "13", ""] {
        assert!(Shard::parse(bad).is_err(), "{bad:?} must be rejected");
    }
}
