//! Distributed campaign execution: sharded workers appending to
//! per-worker manifests in one shared directory, merged into aggregates
//! byte-identical to a single-process run.
//!
//! The campaign layer ([`crate::campaign`]) already gives every
//! `(cell, replication)` unit a stable content-keyed identity and flushes
//! each finished unit to an append-only manifest. This module scales that
//! design past one process and one machine:
//!
//! * **Sharding** — [`shard_of`] deterministically partitions the unit
//!   space by hashing `(CellId, rep)`. Because a [`CellId`] is a content
//!   hash of the cell's spec (name and output excluded), shard assignment
//!   is stable under resume, cell re-ordering and sweep-axis permutation:
//!   the same unit always lands on the same shard of an `N`-way split, no
//!   matter how the scenario file was written or which worker asks.
//! * **Workers** — [`run_worker`] runs exactly one shard, appending to its
//!   own manifest `campaign_manifest.worker-I.csv` with the same
//!   torn-tail-tolerant flush discipline as the single-process path. A
//!   worker is idempotent: killed and re-run, it skips its own completed
//!   rows and finishes the remainder. The first worker pins the shared
//!   directory to the campaign by writing the canonical spec
//!   ([`SPEC_FILE`]); any worker arriving with a different spec is
//!   rejected instead of silently mixing two campaigns' rows.
//! * **Merge** — [`merge_campaign`] re-plans the campaign from the pinned
//!   spec, unions every worker manifest (tolerating *identical* duplicate
//!   rows from re-run shards, rejecting conflicting rows for the same
//!   unit), validates that the shards cover the whole plan, and aggregates
//!   through the exact code path the single-process run uses — so
//!   `campaign_results.csv` and `campaign.json` are **byte-identical** to
//!   `bsld-repro run` of the same file.
//!
//! Workers only touch their own manifest and only append, so the "shared
//! directory" can be an NFS mount used by several hosts: run
//! `bsld-repro campaign-worker FILE.scn --shard I/N --out DIR` once per
//! host, then `bsld-repro campaign-merge DIR` anywhere.
//!
//! ```
//! use bsld_core::campaign::{run_campaign, CampaignOptions};
//! use bsld_core::distrib::{merge_campaign, run_worker, Shard};
//! use bsld_core::scenario::{ProfileName, Scenario, ScenarioSet, SweepAxis, WorkloadSpec};
//!
//! let base = Scenario::synthetic("demo", ProfileName::SdscBlue, 40, 7).map_workload(|w| {
//!     if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
//!         *scale_cpus = Some(64);
//!     }
//! });
//! let set = ScenarioSet {
//!     base,
//!     axes: vec![SweepAxis::new("bsld_th", [1.5, 3.0])],
//!     replications: 2,
//!     cell_budget_s: None,
//! };
//!
//! // Run the campaign's 4 units as two worker shards of a shared dir...
//! let dir = std::env::temp_dir().join(format!("bsld_distrib_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! for i in 0..2 {
//!     run_worker(&set, Shard::new(i, 2).unwrap(), 1, &dir, None).unwrap();
//! }
//!
//! // ...and merge: the aggregate equals a single-process campaign's.
//! let merged = merge_campaign(&dir).unwrap();
//! let single = run_campaign(&set, &CampaignOptions::in_memory(1), None).unwrap();
//! assert_eq!(merged.outcome.results_csv(), single.results_csv());
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bsld_par::Progress;

use crate::campaign::{
    aggregate_rows, campaign_hash, canonical_set_text, classify_rows, collect_rows,
    execute_pending, fnv1a_64, open_manifest, read_manifest_at, write_artifacts, Campaign,
    CampaignOutcome, CampaignUnit, CellId, RepRow,
};
use crate::scenario::{ScenarioError, ScenarioSet};

/// File name of the pinned canonical campaign spec inside the shared
/// directory: the first worker writes it, later workers must match it, and
/// [`merge_campaign`] re-plans from it.
pub const SPEC_FILE: &str = "campaign.scn";

/// The manifest file name of worker `shard`.
pub fn worker_manifest_file(shard: u32) -> String {
    format!("campaign_manifest.worker-{shard}.csv")
}

/// One worker's slot in an `N`-way split: `index ∈ [0, count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This worker's shard index (0-based).
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl Shard {
    /// A validated shard slot.
    pub fn new(index: u32, count: u32) -> Result<Shard, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range (must be < {count})"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Parses the CLI form `I/N` (e.g. `0/3`).
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard {s:?}: expected I/N (e.g. 0/3)"))?;
        let index: u32 = i
            .parse()
            .map_err(|_| format!("bad shard index {i:?} in {s:?}"))?;
        let count: u32 = n
            .parse()
            .map_err(|_| format!("bad shard count {n:?} in {s:?}"))?;
        Shard::new(index, count)
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The shard a `(cell, rep)` unit belongs to in an `n`-way split.
///
/// The assignment hashes the cell's content identity together with the
/// replication index (FNV-1a over both, little-endian), so:
///
/// * it is a pure function of the unit's *content* — stable across
///   processes, hosts, resumes, cell re-ordering and axis permutation;
/// * the replications of one cell spread across shards instead of
///   serialising on one worker;
/// * for any `n`, the shards partition the unit space (every unit maps to
///   exactly one shard — disjointness and coverage by construction,
///   property-tested in `tests/campaign_distrib.rs`).
pub fn shard_of(cell: CellId, rep: u32, n: u32) -> u32 {
    let n = n.max(1);
    let mut bytes = [0u8; 12];
    bytes[..8].copy_from_slice(&cell.0.to_le_bytes());
    bytes[8..].copy_from_slice(&rep.to_le_bytes());
    // audit:allow(N2): remainder is < n <= u32::MAX, lossless by construction
    (fnv1a_64(&bytes) % u64::from(n)) as u32
}

/// The result of [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOutcome {
    /// The slot this worker ran.
    pub shard: Shard,
    /// Units of the whole campaign.
    pub total_units: usize,
    /// Units assigned to this shard.
    pub shard_units: usize,
    /// Shard units skipped because this worker's manifest already held
    /// their row (the worker was killed and re-run).
    pub resumed: usize,
    /// Failed units of this shard (`name[rep]: reason`, shard-unit order),
    /// manifest I/O errors appended.
    pub failures: Vec<String>,
}

/// Runs one shard of a campaign, appending finished rows to this worker's
/// manifest in `dir`.
///
/// The worker plans the full campaign, keeps only the units
/// [`shard_of`] assigns to `shard`, and executes them with the same
/// semantics as [`crate::campaign::run_campaign`]: per-unit budget
/// enforcement ([`ScenarioSet::cell_budget_s`]), immediate flushes, failed
/// units recorded as `failed` rows. Re-running a killed worker resumes —
/// rows already in its manifest (torn tail tolerated) are skipped.
///
/// The shared directory is pinned to one campaign: the first worker writes
/// the canonical spec to [`SPEC_FILE`]; a worker whose spec disagrees
/// errors out instead of mixing campaigns.
///
/// `on_progress` observes `(done, shard_units)` like the single-process
/// progress callback.
pub fn run_worker(
    set: &ScenarioSet,
    shard: Shard,
    threads: usize,
    dir: &Path,
    on_progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Result<WorkerOutcome, ScenarioError> {
    let campaign = Campaign::plan(set)?;
    std::fs::create_dir_all(dir)
        .map_err(|e| ScenarioError::Io(format!("cannot create {}: {e}", dir.display())))?;
    pin_spec(dir, set)?;

    // Resume from this worker's own manifest (if any).
    let manifest_path = dir.join(worker_manifest_file(shard.index));
    let classified = classify_rows(&campaign, read_manifest_at(&manifest_path)?);
    let cached = classified.cached;

    let shard_units: Vec<CampaignUnit> = campaign
        .units
        .iter()
        .filter(|u| shard_of(campaign.cells[u.cell].id, u.rep, shard.count) == shard.index)
        .cloned()
        .collect();
    let total_shard = shard_units.len();
    let pending: Vec<CampaignUnit> = shard_units
        .iter()
        .filter(|u| !cached.contains_key(&(campaign.cells[u.cell].id, u.rep)))
        .cloned()
        .collect();
    let resumed = total_shard - pending.len();

    let manifest = Mutex::new(open_manifest(&manifest_path, true)?);
    let progress = Progress::new(total_shard);
    for _ in 0..resumed {
        progress.tick();
    }
    if let Some(cb) = on_progress {
        cb(progress.done(), progress.total());
    }

    // The exact execute/flush discipline of the single-process path —
    // shared code, so the manifests stay merge-compatible by construction.
    let fresh = execute_pending(
        &campaign,
        pending,
        threads,
        Some(&manifest),
        &progress,
        on_progress,
    );

    // Failure report in shard-unit order: failed rows (cached + fresh),
    // then manifest I/O errors.
    let (by_unit, io_failures) = collect_rows(&campaign, cached, fresh);
    let mut failures: Vec<String> = shard_units
        .iter()
        .filter_map(|u| {
            let row = by_unit.get(&(u.cell, u.rep))?;
            match &row.outcome {
                crate::campaign::RepOutcome::Ok(_) => None,
                crate::campaign::RepOutcome::Failed { reason } => {
                    Some(format!("{}[rep {}]: {reason}", row.name, row.rep))
                }
            }
        })
        .collect();
    failures.extend(io_failures);

    Ok(WorkerOutcome {
        shard,
        total_units: campaign.units.len(),
        shard_units: total_shard,
        resumed,
        failures,
    })
}

/// Writes the canonical spec into `dir`, or verifies it if a previous
/// worker already pinned one.
///
/// Workers on several hosts may race into an empty shared directory, so
/// the pin must be atomic: the spec is written to a unique temp file and
/// *linked* into place — `hard_link` fails with `AlreadyExists` if any
/// other worker won, and the pinned file is only ever visible with its
/// full content (a plain check-then-write could let two different
/// campaigns each believe they own the directory, or expose a torn spec).
fn pin_spec(dir: &Path, set: &ScenarioSet) -> Result<(), ScenarioError> {
    let path = dir.join(SPEC_FILE);
    let canonical = canonical_set_text(set);
    let reject = |existing: &str| {
        ScenarioError::Io(format!(
            "{} already belongs to a different campaign (spec hash {:016x}, \
             this worker's is {:016x}); use a fresh directory per campaign",
            dir.display(),
            fnv1a_64(existing.as_bytes()),
            campaign_hash(set),
        ))
    };
    // Fast path: already pinned (by an earlier run or a concurrent
    // winner) — just compare.
    match std::fs::read_to_string(&path) {
        Ok(existing) => {
            return if existing == canonical {
                Ok(())
            } else {
                Err(reject(&existing))
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(ScenarioError::Io(format!(
                "cannot read {}: {e}",
                path.display()
            )))
        }
    }
    // audit:allow(D2): nonce only de-collides tmp-file names across hosts; never reaches results
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let tmp = dir.join(format!(".{}.tmp-{}-{nonce}", SPEC_FILE, std::process::id()));
    std::fs::write(&tmp, &canonical)
        .map_err(|e| ScenarioError::Io(format!("cannot write {}: {e}", tmp.display())))?;
    let linked = std::fs::hard_link(&tmp, &path);
    std::fs::remove_file(&tmp).ok();
    match linked {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
            // Lost the race: the winner's spec is fully in place — verify
            // we are the same campaign.
            let existing = std::fs::read_to_string(&path)
                .map_err(|e| ScenarioError::Io(format!("cannot read {}: {e}", path.display())))?;
            if existing == canonical {
                Ok(())
            } else {
                Err(reject(&existing))
            }
        }
        Err(e) => Err(ScenarioError::Io(format!(
            "cannot pin {}: {e}",
            path.display()
        ))),
    }
}

/// The result of [`merge_campaign`].
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The aggregated campaign — same shape, same bytes, as a
    /// single-process run.
    pub outcome: CampaignOutcome,
    /// The campaign spec the directory was pinned to.
    pub set: ScenarioSet,
    /// Worker shard indices whose manifests were found, ascending.
    pub workers: Vec<u32>,
    /// Identical duplicate rows dropped (a shard was re-run with a
    /// different split, or a manifest was copied); conflicting duplicates
    /// are an error instead.
    pub duplicate_rows: usize,
}

/// Merges the per-worker manifests of a shared campaign directory and
/// writes the aggregated artifacts (`campaign_results.csv`,
/// `campaign.json`) into it.
///
/// Validation before any aggregation:
///
/// * the directory must be pinned ([`SPEC_FILE`]) and hold at least one
///   worker manifest;
/// * two rows for the same `(cell, rep)` must be identical — re-run
///   overlap is deduplicated, *conflicting* results are an error naming
///   the unit and both workers;
/// * every planned unit must have a row (completed or failed) — missing
///   units mean a shard has not run (or was killed before finishing) and
///   are listed so the operator can run exactly that worker.
///
/// Aggregation then goes through the same deterministic path as the
/// single-process run, so the artifacts are byte-identical to
/// `bsld-repro run` of the same scenario file.
pub fn merge_campaign(dir: &Path) -> Result<MergeOutcome, ScenarioError> {
    let spec_path = dir.join(SPEC_FILE);
    let text = std::fs::read_to_string(&spec_path).map_err(|e| {
        ScenarioError::Io(format!(
            "cannot read {}: {e} (run campaign-worker into this directory first)",
            spec_path.display()
        ))
    })?;
    let set = ScenarioSet::parse(&text)
        .map_err(|e| ScenarioError::Io(format!("{}: {e}", spec_path.display())))?;
    let campaign = Campaign::plan(&set)?;

    let workers = discover_workers(dir)?;
    if workers.is_empty() {
        return Err(ScenarioError::Io(format!(
            "{}: no worker manifests (campaign_manifest.worker-*.csv) found",
            dir.display()
        )));
    }

    // Union the worker manifests under the content key. (Unlike the
    // resume path's `classify_rows`, rows are checked one by one so a
    // conflict can name both workers.)
    let planned: BTreeSet<CellId> = campaign.cells.iter().map(|c| c.id).collect();
    let mut by_key: BTreeMap<(CellId, u32), (RepRow, u32)> = BTreeMap::new();
    let mut stale_rows = 0usize;
    let mut excess_rows = 0usize;
    let mut duplicate_rows = 0usize;
    for (w, manifest_path) in &workers {
        let w = *w;
        // Read the path the directory scan actually found — reconstructing
        // the canonical name from the index would silently skip manifests
        // whose spelling doesn't round-trip (e.g. `worker-07.csv`).
        let rows = read_manifest_at(manifest_path)?;
        for row in rows {
            if !planned.contains(&row.cell) {
                stale_rows += 1;
                continue;
            }
            if row.rep >= campaign.replications {
                excess_rows += 1;
                continue;
            }
            match by_key.entry((row.cell, row.rep)) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert((row, w));
                }
                std::collections::btree_map::Entry::Occupied(slot) => {
                    let (existing, from) = slot.get();
                    if *existing == row {
                        duplicate_rows += 1;
                    } else {
                        // The pinned spec rules out "different campaigns";
                        // the realistic cause is a wall-clock-dependent
                        // outcome (a borderline cell_budget_s unit that
                        // completed in one re-run and timed out in the
                        // other), so prescribe the minimal repair, not a
                        // full re-run.
                        return Err(ScenarioError::Io(format!(
                            "conflicting rows for {}[rep {}] (cell {}): worker {} and \
                             worker {w} disagree — likely a wall-clock-dependent outcome \
                             (e.g. a borderline cell_budget_s) across overlapping re-runs; \
                             delete one of the two rows (or one worker's manifest) and \
                             merge again",
                            row.name, row.rep, row.cell, from
                        )));
                    }
                }
            }
        }
    }

    // Coverage: every planned unit needs a row.
    let missing: Vec<&CampaignUnit> = campaign
        .units
        .iter()
        .filter(|u| !by_key.contains_key(&(campaign.cells[u.cell].id, u.rep)))
        .collect();
    if !missing.is_empty() {
        let preview: Vec<String> = missing
            .iter()
            .take(5)
            .map(|u| format!("{}[rep {}]", campaign.cells[u.cell].scenario.name, u.rep))
            .collect();
        return Err(ScenarioError::Io(format!(
            "{} of {} unit(s) have no row in any worker manifest (e.g. {}); \
             a shard has not finished — run its campaign-worker again, then merge",
            missing.len(),
            campaign.units.len(),
            preview.join(", ")
        )));
    }

    let index_of: BTreeMap<CellId, usize> = campaign
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id, i))
        .collect();
    let by_unit: BTreeMap<(usize, u32), RepRow> = by_key
        .into_iter()
        .map(|((id, rep), (row, _))| ((index_of[&id], rep), row))
        .collect();
    let total_units = campaign.units.len();
    let (rows, summaries, failures) = aggregate_rows(&campaign, &by_unit);
    let outcome = CampaignOutcome {
        rows,
        summaries,
        total_units,
        resumed: total_units,
        stale_rows,
        excess_rows,
        failures,
    };
    write_artifacts(dir, &set, &campaign, &outcome)?;
    let mut worker_indices: Vec<u32> = workers.iter().map(|(w, _)| *w).collect();
    worker_indices.dedup();
    Ok(MergeOutcome {
        outcome,
        set,
        workers: worker_indices,
        duplicate_rows,
    })
}

/// The worker manifests found in `dir` as `(shard index, actual path)`
/// pairs, sorted by index. Every matching file is kept — including
/// non-canonical spellings of the same index (`worker-07.csv` next to
/// `worker-7.csv`); the merge unions their rows and content-key dedup
/// handles the overlap.
fn discover_workers(dir: &Path) -> Result<Vec<(u32, PathBuf)>, ScenarioError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ScenarioError::Io(format!("cannot read {}: {e}", dir.display())))?;
    let mut workers = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| ScenarioError::Io(format!("cannot read {}: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name.strip_prefix("campaign_manifest.worker-") {
            if let Some(index) = rest.strip_suffix(".csv") {
                if let Ok(index) = index.parse::<u32>() {
                    workers.push((index, entry.path()));
                }
            }
        }
    }
    workers.sort();
    Ok(workers)
}
