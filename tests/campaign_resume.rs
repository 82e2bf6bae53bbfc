//! Campaign-layer integration tests: the resume-equivalence guarantee
//! (an interrupted campaign, resumed, produces byte-identical final
//! results), replication aggregation against hand-computed statistics,
//! and cell-ID stability.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::path::PathBuf;

use bsld::core::campaign::{
    read_manifest, run_campaign, CampaignOptions, CellId, RepRow, MANIFEST_FILE, RESULTS_FILE,
};
use bsld::core::scenario::{
    OutputSpec, ProfileName, RunCtx, Scenario, ScenarioSet, SweepAxis, WorkloadSpec,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsld_campaign_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn campaign_set(replications: u32) -> ScenarioSet {
    let base = Scenario::synthetic("camp", ProfileName::SdscBlue, 100, 42).map_workload(|w| {
        if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
            *scale_cpus = Some(64);
        }
    });
    ScenarioSet {
        base,
        axes: vec![SweepAxis::new("bsld_th", [1.5, 3.0])],
        replications,
        cell_budget_s: None,
    }
}

/// The headline guarantee: run a campaign, truncate the manifest's last K
/// rows (simulating a crash), re-run with resume — the merged results are
/// byte-identical to the uninterrupted run, for every truncation depth.
#[test]
fn resume_after_truncated_manifest_is_byte_identical() {
    let set = campaign_set(3);
    let clean_dir = tmp_dir("clean");
    let clean = run_campaign(&set, &CampaignOptions::fresh(2, &clean_dir), None).unwrap();
    assert!(clean.failures.is_empty());
    assert_eq!(clean.total_units, 6);
    assert_eq!(clean.resumed, 0);
    let clean_results = std::fs::read_to_string(clean_dir.join(RESULTS_FILE)).unwrap();
    let clean_rows = read_manifest(&clean_dir).unwrap();
    assert_eq!(clean_rows.len(), 6);

    for k in 1..=6usize {
        let dir = tmp_dir(&format!("resume{k}"));
        // Interrupting after N-k rows: keep the header plus the first
        // N-k data lines of the clean manifest.
        let manifest = std::fs::read_to_string(clean_dir.join(MANIFEST_FILE)).unwrap();
        let truncated: Vec<&str> = manifest.lines().take(1 + 6 - k).collect();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            format!("{}\n", truncated.join("\n")),
        )
        .unwrap();

        let resumed = run_campaign(&set, &CampaignOptions::resume(2, &dir), None).unwrap();
        assert!(resumed.failures.is_empty(), "k={k}");
        assert_eq!(resumed.resumed, 6 - k, "k={k}: cached rows skipped");
        assert_eq!(resumed.stale_rows, 0, "k={k}");

        let resumed_results = std::fs::read_to_string(dir.join(RESULTS_FILE)).unwrap();
        assert_eq!(
            resumed_results, clean_results,
            "k={k}: resumed final results must be byte-identical"
        );
        // The completed manifest holds the same row set (order may differ
        // with parallel appends, so compare sorted).
        let mut a: Vec<RepRow> = read_manifest(&dir).unwrap();
        let mut b = clean_rows.clone();
        let key = |r: &RepRow| (r.cell, r.rep);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "k={k}: manifests agree row for row");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// A torn last line (crash mid-append) must not poison the manifest: the
/// partial row is ignored and its unit reruns.
#[test]
fn torn_manifest_tail_is_ignored_and_rerun() {
    let set = campaign_set(2);
    let dir = tmp_dir("torn");
    run_campaign(&set, &CampaignOptions::fresh(1, &dir), None).unwrap();
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let mut lines: Vec<&str> = manifest.lines().collect();
    let torn = &lines[4][..lines[4].len() / 2];
    lines[4] = torn;
    std::fs::write(dir.join(MANIFEST_FILE), lines.join("\n")).unwrap();

    assert_eq!(read_manifest(&dir).unwrap().len(), 3, "torn row dropped");
    let resumed = run_campaign(&set, &CampaignOptions::resume(1, &dir), None).unwrap();
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.resumed, 3, "three intact rows cached");
    assert_eq!(resumed.rows.len(), 4, "torn unit was rerun");
    // The resumed append must terminate the torn tail first: welding the
    // fresh row onto the partial line would lose both. After the resume
    // the on-disk manifest again holds all four rows, durable.
    assert_eq!(
        read_manifest(&dir).unwrap().len(),
        4,
        "fresh row appended on its own line after the torn tail"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Drops the last `n` comma-separated columns of a manifest line —
/// rewinds a row to an older manifest generation.
fn drop_last_columns(line: &str, n: usize) -> &str {
    let mut rest = line;
    for _ in 0..n {
        rest = rest.rsplit_once(',').unwrap().0;
    }
    rest
}

/// Manifests written before the `elapsed_s` column resume untouched: the
/// legacy 17-column rows parse (with every wall-clock field `None`), every
/// unit stays cached, and the final results are byte-identical.
#[test]
fn legacy_manifest_without_elapsed_column_resumes_fully_cached() {
    let set = campaign_set(2);
    let dir = tmp_dir("legacy");
    run_campaign(&set, &CampaignOptions::fresh(1, &dir), None).unwrap();
    let results = std::fs::read_to_string(dir.join(RESULTS_FILE)).unwrap();

    // Rewrite the manifest as a pre-elapsed_s campaign would have left it:
    // drop the four wall-clock columns from the header and every row.
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let legacy: Vec<&str> = manifest.lines().map(|l| drop_last_columns(l, 4)).collect();
    std::fs::write(dir.join(MANIFEST_FILE), format!("{}\n", legacy.join("\n"))).unwrap();

    let rows = read_manifest(&dir).unwrap();
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().all(|r| r.elapsed_s.is_none()));
    assert!(rows
        .iter()
        .all(|r| r.parse_s.is_none() && r.build_s.is_none() && r.sim_s.is_none()));

    let out = run_campaign(&set, &CampaignOptions::resume(1, &dir), None).unwrap();
    assert_eq!(out.resumed, 4, "every legacy row stays cached");
    assert_eq!(
        std::fs::read_to_string(dir.join(RESULTS_FILE)).unwrap(),
        results,
        "legacy resume reproduces the results byte for byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Manifests from the `elapsed_s`-but-no-phase-columns generation (18
/// columns) also resume untouched: `elapsed_s` survives the round trip,
/// the phase columns parse as `None`, and the final results are
/// byte-identical.
#[test]
fn legacy_manifest_without_phase_columns_resumes_fully_cached() {
    let set = campaign_set(2);
    let dir = tmp_dir("legacy18");
    run_campaign(&set, &CampaignOptions::fresh(1, &dir), None).unwrap();
    let results = std::fs::read_to_string(dir.join(RESULTS_FILE)).unwrap();

    // Rewind the manifest one generation: keep elapsed_s, drop the
    // parse_s/build_s/sim_s phase breakdown.
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let legacy: Vec<&str> = manifest.lines().map(|l| drop_last_columns(l, 3)).collect();
    std::fs::write(dir.join(MANIFEST_FILE), format!("{}\n", legacy.join("\n"))).unwrap();

    let rows = read_manifest(&dir).unwrap();
    assert_eq!(rows.len(), 4);
    assert!(
        rows.iter().all(|r| r.elapsed_s.is_some()),
        "elapsed_s survives an 18-column round trip"
    );
    assert!(rows
        .iter()
        .all(|r| r.parse_s.is_none() && r.build_s.is_none() && r.sim_s.is_none()));

    let out = run_campaign(&set, &CampaignOptions::resume(1, &dir), None).unwrap();
    assert_eq!(out.resumed, 4, "every 18-column row stays cached");
    assert_eq!(
        std::fs::read_to_string(dir.join(RESULTS_FILE)).unwrap(),
        results,
        "18-column resume reproduces the results byte for byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Shrinking `replications` between runs leaves excess rows in the
/// manifest; they are reported as such — not as "unknown cell" — and the
/// surviving replications stay cached.
#[test]
fn shrunk_replication_count_reports_excess_not_stale() {
    let dir = tmp_dir("shrink");
    run_campaign(&campaign_set(3), &CampaignOptions::fresh(1, &dir), None).unwrap();
    let out = run_campaign(&campaign_set(2), &CampaignOptions::resume(1, &dir), None).unwrap();
    assert_eq!(out.resumed, 4, "reps 0-1 of both cells stay cached");
    assert_eq!(out.excess_rows, 2, "one rep-2 row per cell is excess");
    assert_eq!(out.stale_rows, 0, "no cell hash changed");
    assert_eq!(out.rows.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// Replication aggregation matches hand-computed small-N statistics:
/// mean, and 95 % CI via the sample stderr and Student-t (df = n-1).
#[test]
fn aggregation_matches_hand_computed_ci() {
    let set = campaign_set(3);
    let out = run_campaign(&set, &CampaignOptions::in_memory(1), None).unwrap();
    assert_eq!(out.summaries.len(), 2);
    for cell in &out.summaries {
        let rows: Vec<f64> = out
            .rows
            .iter()
            .filter(|r| r.cell == cell.id)
            .map(|r| r.metrics().expect("completed row").avg_bsld)
            .collect();
        assert_eq!(rows.len(), 3);
        let n = rows.len() as f64;
        let mean = rows.iter().sum::<f64>() / n;
        let sample_var = rows.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let half = 4.303 * (sample_var / n).sqrt(); // t(df=2) = 4.303
        assert!((cell.bsld.mean - mean).abs() < 1e-9, "{}", cell.name);
        assert!(
            (cell.bsld.half - half).abs() < 1e-6 * half.max(1.0),
            "{}: ci {} vs hand {half}",
            cell.name,
            cell.bsld.half
        );
        assert_eq!(cell.bsld.n, 3);
        assert!(cell.bsld.half > 0.0, "replications must yield a real CI");
    }
}

/// Replication 0 keeps the base seed, so a 1-replication campaign runs
/// exactly the scenario the file describes; higher replications derive
/// distinct seeds and therefore distinct workloads.
#[test]
fn replication_zero_preserves_base_scenario() {
    let set = campaign_set(3);
    let out = run_campaign(&set, &CampaignOptions::in_memory(1), None).unwrap();
    let seeds: Vec<u64> = out
        .rows
        .iter()
        .filter(|r| r.name == "camp-th1.5")
        .map(|r| r.seed)
        .collect();
    assert_eq!(seeds[0], 42, "rep 0 = the file's seed");
    assert_ne!(seeds[1], seeds[0]);
    assert_ne!(seeds[2], seeds[1]);
    // The rep-0 row equals a plain single run of the cell.
    let cell = set.expand().unwrap()[0].clone();
    let direct = cell.run(&RunCtx::default()).unwrap();
    let row0 = out
        .rows
        .iter()
        .find(|r| r.name == "camp-th1.5" && r.rep == 0)
        .unwrap();
    let m0 = row0.metrics().expect("completed row");
    assert_eq!(m0.avg_bsld, direct.run.metrics.avg_bsld);
    assert_eq!(m0.jobs as usize, direct.run.metrics.jobs);
}

/// Cell IDs are content hashes: stable across runs and across
/// presentation-only changes (out_dir), different for different specs.
#[test]
fn cell_ids_are_semantic_content_hashes() {
    let set = campaign_set(2);
    let cells = set.expand().unwrap();
    let a = CellId::of(&cells[0]);
    let b = CellId::of(&cells[1]);
    assert_ne!(a, b, "different thresholds hash differently");
    assert_eq!(a, CellId::of(&cells[0]), "deterministic");
    // out_dir is driver advice, not run semantics: the cache must survive
    // a change of output directory.
    let mut relocated = cells[0].clone();
    relocated.output = OutputSpec {
        out_dir: Some(PathBuf::from("elsewhere")),
    };
    assert_eq!(a, CellId::of(&relocated));
    // The name is a label: renaming a scenario (or permuting sweep axes,
    // which reorders name suffixes) keeps the cached rows and the shard
    // assignment.
    let mut renamed = cells[0].clone();
    renamed.name = "completely-different".into();
    assert_eq!(a, CellId::of(&renamed));
    // But a semantic change (seed) re-keys the cell.
    let mut reseeded = cells[0].clone();
    if let WorkloadSpec::Synthetic { seed, .. } = &mut reseeded.workload {
        *seed += 1;
    }
    assert_ne!(a, CellId::of(&reseeded));
    // The 16-hex text form round-trips.
    assert_eq!(CellId::parse(&a.to_string()).unwrap(), a);
}

/// Duplicate sweep values produce indistinguishable cells — the planner
/// rejects them instead of silently merging their cached rows.
#[test]
fn duplicate_cells_are_rejected() {
    let mut set = campaign_set(1);
    set.axes = vec![SweepAxis::new("seed", [5, 5])];
    let err = run_campaign(&set, &CampaignOptions::in_memory(1), None)
        .unwrap_err()
        .to_string();
    assert!(err.contains("identical specs"), "{err}");
}

/// The progress callback sees every unit exactly once, cached units up
/// front, and ends at (total, total).
#[test]
fn progress_reports_every_unit() {
    use std::sync::Mutex;
    let set = campaign_set(2);
    let dir = tmp_dir("progress");
    let seen: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
    let record = |done: usize, total: usize| seen.lock().unwrap().push((done, total));
    run_campaign(&set, &CampaignOptions::fresh(1, &dir), Some(&record)).unwrap();
    {
        let s = seen.lock().unwrap();
        assert_eq!(s.first(), Some(&(0, 4)), "initial tick before any run");
        assert_eq!(s.last(), Some(&(4, 4)));
    }
    // Resuming a finished campaign runs nothing and reports completion.
    seen.lock().unwrap().clear();
    let out = run_campaign(&set, &CampaignOptions::resume(1, &dir), Some(&record)).unwrap();
    assert_eq!(out.resumed, 4);
    assert_eq!(seen.lock().unwrap().as_slice(), &[(4, 4)]);
    std::fs::remove_dir_all(&dir).ok();
}
