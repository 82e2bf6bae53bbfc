//! The campaign layer: replicated sweeps with confidence intervals,
//! resume, and per-cell result caching.
//!
//! A [`ScenarioSet`] describes a sweep grid; a **campaign** turns that grid
//! into a statistically meaningful, restartable experiment:
//!
//! * **Replication** — `replications = N` in the scenario file fans every
//!   sweep cell out across `N` derived seeds ([`replication_seed`]) and
//!   aggregates the per-cell metrics into mean ± 95 % CI using the
//!   *sample* variance (`OnlineStats::stderr`, Student-t critical values);
//!   the paper's tables are single-trace point estimates, this layer puts
//!   honest error bars on them.
//! * **Caching & resume** — every sweep cell gets a stable content-hash
//!   identity ([`CellId`], FNV-1a over the rendered scenario text). Each
//!   completed replication is flushed to a manifest CSV **as soon as it
//!   finishes**, so a crash mid-campaign loses at most the in-flight
//!   cells. Re-running with [`CampaignOptions::resume`] skips every
//!   `(cell, replication)` whose row already exists and merges old and new
//!   rows into a final result that is byte-identical to an uninterrupted
//!   run (floats are persisted via `{}` — the shortest representation that
//!   parses back to the identical bits).
//! * **Progress** — workers tick a [`bsld_par::Progress`] counter; the
//!   caller's callback observes `(done, total)` to render a status line.
//!
//! ```
//! use bsld_core::campaign::{run_campaign, CampaignOptions};
//! use bsld_core::scenario::{ProfileName, Scenario, ScenarioSet, SweepAxis, WorkloadSpec};
//!
//! let base = Scenario::synthetic("demo", ProfileName::SdscBlue, 80, 7).map_workload(|w| {
//!     if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
//!         *scale_cpus = Some(64);
//!     }
//! });
//! let set = ScenarioSet {
//!     base,
//!     axes: vec![SweepAxis::new("bsld_th", [1.5, 3.0])],
//!     replications: 3,
//!     cell_budget_s: None,
//! };
//! let out = run_campaign(&set, &CampaignOptions::in_memory(2), None).unwrap();
//! assert_eq!(out.summaries.len(), 2); // one row per sweep cell
//! for cell in &out.summaries {
//!     assert_eq!(cell.bsld.n, 3); // three replications behind each mean
//! }
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bsld_metrics::{csv_escape, parse_csv_line, MeanCi, TextTable};
use bsld_par::Progress;
use bsld_simkernel::rng::derive_seed;
use bsld_simkernel::stats::OnlineStats;

use crate::scenario::{RunCtx, Scenario, ScenarioError, ScenarioResult, ScenarioSet, WorkloadSpec};

/// File name of the per-replication manifest inside the campaign
/// directory.
pub const MANIFEST_FILE: &str = "campaign_manifest.csv";

/// File name of the aggregated per-cell results inside the campaign
/// directory.
pub const RESULTS_FILE: &str = "campaign_results.csv";

/// The seed-derivation stream reserved for campaign replications; disjoint
/// from the workload-internal streams in `bsld_simkernel::rng::streams` by
/// construction (those are small integers, this is a large tag mixed per
/// replication).
const REPLICATION_STREAM_BASE: u64 = 0x5EED_0000_0000_0000;

/// FNV-1a 64-bit hash — tiny, dependency-free, and stable across
/// platforms and releases, which is what a resume manifest written by one
/// build and read by the next needs.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content-hash identity of one sweep cell: FNV-1a over the cell's
/// rendered scenario text, so the ID survives process restarts, reorders
/// of unrelated cells, and additions to the sweep — any cell whose spec is
/// unchanged keeps its ID and its cached rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u64);

impl CellId {
    /// The ID of the cell described by `scenario`.
    ///
    /// The hash covers the *run-semantic* spec only: the output spec and
    /// the scenario name are blanked before rendering. `out_dir` is
    /// presentation advice to the driver — re-running the same campaign
    /// with a different `--out` (or `--no-csv`) must still hit the cached
    /// rows — and the name is a label whose axis-suffix order depends on
    /// how the sweep was written; excluding it keeps IDs (and therefore
    /// shard assignment, see [`crate::distrib`]) stable under renames and
    /// axis permutation.
    pub fn of(scenario: &Scenario) -> CellId {
        let mut canonical = scenario.clone();
        canonical.name = String::new();
        canonical.output = crate::scenario::OutputSpec::default();
        CellId(fnv1a_64(canonical.render().as_bytes()))
    }

    /// Parses the 16-hex-digit text form.
    pub fn parse(s: &str) -> Result<CellId, String> {
        u64::from_str_radix(s, 16)
            .map(CellId)
            .map_err(|_| format!("bad cell id {s:?}"))
    }
}

impl fmt::Display for CellId {
    /// Fixed-width hex so manifests align and IDs are greppable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Derives the workload seed of replication `rep` from the cell's base
/// seed. Replication 0 keeps the base seed, so `replications = 1` runs the
/// exact scenario the file describes; higher replications get independent,
/// well-mixed seeds via the SplitMix64 derivation shared with the workload
/// sub-streams.
pub fn replication_seed(base: u64, rep: u32) -> u64 {
    if rep == 0 {
        base
    } else {
        derive_seed(base, REPLICATION_STREAM_BASE.wrapping_add(u64::from(rep)))
    }
}

/// One expanded sweep cell with its stable identity.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Content-hash ID (over the rendered cell spec).
    pub id: CellId,
    /// The cell's scenario (base seed, before replication derivation).
    pub scenario: Scenario,
}

/// One unit of work: a cell × replication pair.
#[derive(Debug, Clone)]
pub struct CampaignUnit {
    /// Index into [`Campaign::cells`].
    pub cell: usize,
    /// Replication index (0-based).
    pub rep: u32,
    /// The concrete scenario to run (seed already derived).
    pub scenario: Scenario,
}

/// A fully planned campaign: expanded cells and the unit work list.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Expanded sweep cells, expansion order.
    pub cells: Vec<CampaignCell>,
    /// Replications per cell (≥ 1).
    pub replications: u32,
    /// The work list: every `(cell, rep)` pair, cell-major order.
    pub units: Vec<CampaignUnit>,
    /// Per-unit wall-time budget in seconds (from
    /// [`ScenarioSet::cell_budget_s`]); a unit exceeding it aborts
    /// cooperatively and is recorded as a failed row.
    pub cell_budget_s: Option<f64>,
}

impl Campaign {
    /// Expands `set` into cells and replication units, validating that the
    /// campaign is well-formed: replications need a synthetic workload
    /// (SWF replays are deterministic) and every cell must have a distinct
    /// content hash (duplicate sweep values would make cached rows
    /// ambiguous on resume).
    pub fn plan(set: &ScenarioSet) -> Result<Campaign, ScenarioError> {
        let replications = set.replications.max(1);
        let cells: Vec<CampaignCell> = set
            .expand()?
            .into_iter()
            .map(|scenario| CampaignCell {
                id: CellId::of(&scenario),
                scenario,
            })
            .collect();
        // BTreeMap by construction: nothing here iterates, but the campaign
        // result path must never depend on hash order (see `bsld-audit` D1).
        let mut seen: BTreeMap<CellId, &str> = BTreeMap::new();
        for cell in &cells {
            if replications > 1 {
                if let WorkloadSpec::Swf { .. } = cell.scenario.workload {
                    return Err(ScenarioError::Workload(format!(
                        "cell {}: replications > 1 requires a synthetic workload",
                        cell.scenario.name
                    )));
                }
            }
            if let Some(first) = seen.insert(cell.id, &cell.scenario.name) {
                return Err(ScenarioError::Parse {
                    line: 0,
                    msg: format!(
                        "cells {first:?} and {:?} have identical specs (cell id {}); \
                         deduplicate the sweep values so cached results stay unambiguous",
                        cell.scenario.name, cell.id
                    ),
                });
            }
        }
        let units = cells
            .iter()
            .enumerate()
            .flat_map(|(i, cell)| {
                (0..replications).map(move |rep| {
                    let mut scenario = cell.scenario.clone();
                    if let WorkloadSpec::Synthetic { seed, .. } = &mut scenario.workload {
                        *seed = replication_seed(*seed, rep);
                    }
                    CampaignUnit {
                        cell: i,
                        rep,
                        scenario,
                    }
                })
            })
            .collect();
        Ok(Campaign {
            cells,
            replications,
            units,
            cell_budget_s: set.cell_budget_s,
        })
    }

    /// Runs one unit of this campaign to a manifest row. Simulation
    /// failures — and budget expiry, when [`Campaign::cell_budget_s`] is
    /// set — become deterministic `failed` rows rather than errors, so a
    /// single infeasible cell cannot sink a sweep.
    pub fn execute_unit(&self, unit: &CampaignUnit) -> RepRow {
        let cell = &self.cells[unit.cell];
        // audit:allow(D2): per-unit elapsed_s is fleet-scheduling provenance only; it never feeds results, aggregates or cell identity, and is excluded from RepRow equality
        let started = std::time::Instant::now();
        let mut row = self.execute_unit_untimed(cell, unit);
        row.elapsed_s = Some(started.elapsed().as_secs_f64());
        row
    }

    fn execute_unit_untimed(&self, cell: &CampaignCell, unit: &CampaignUnit) -> RepRow {
        let run = |abort: Option<&bsld_par::AbortFlag>| {
            let ctx = RunCtx {
                abort: abort.cloned(),
                ..RunCtx::default()
            };
            (unit.scenario.run(&ctx), ctx.phases.get())
        };
        // `exhausted` carries the budget when the deadline fired.
        let ((res, phases), exhausted) = match self.cell_budget_s {
            None => (run(None), None),
            Some(budget) => {
                let (out, exhausted) = bsld_par::run_budgeted(budget, |flag| run(Some(flag)));
                (out, exhausted.then_some(budget))
            }
        };
        let mut row = match (res, exhausted) {
            (Ok(res), _) => RepRow::from_result(cell, unit, &res),
            // Trust a completed result over a raced deadline; only an
            // *aborted* run is attributed to the budget.
            (Err(ScenarioError::Sim(bsld_sched::SimError::Aborted)), Some(budget)) => {
                RepRow::from_failure(cell, unit, format!("exceeded cell_budget_s = {budget}"))
            }
            (Err(e), _) => RepRow::from_failure(cell, unit, e.to_string()),
        };
        row.set_phases(phases);
        row
    }
}

/// The per-replication metrics of a successful unit.
#[derive(Debug, Clone, PartialEq)]
pub struct RepMetrics {
    /// Jobs completed.
    pub jobs: u64,
    /// Average BSLD.
    pub avg_bsld: f64,
    /// Average wait, seconds.
    pub avg_wait_s: f64,
    /// Jobs run at a reduced gear.
    pub reduced_jobs: u64,
    /// Computational energy (normalised units).
    pub energy_comp: f64,
    /// Energy including idle draw (normalised units).
    pub energy_idle: f64,
    /// Ledger energy integral (power-instrumented runs only).
    pub energy_ledger: Option<f64>,
    /// `peak / budget` (capped runs only).
    pub peak_over_budget: Option<f64>,
    /// CPU-rail ledger energy (multi-rail runs only — a scenario with an
    /// explicit `model =`; single-rail runs report `-`).
    pub energy_cpu: Option<f64>,
    /// Memory-rail ledger energy (multi-rail runs only).
    pub energy_mem: Option<f64>,
    /// Interconnect-rail ledger energy (multi-rail runs only).
    pub energy_net: Option<f64>,
}

/// How one `(cell, replication)` unit ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RepOutcome {
    /// The unit completed; its metrics feed the per-cell aggregate.
    Ok(RepMetrics),
    /// The unit failed — an infeasible cap, or its wall-time budget
    /// expired. Failed units are persisted like completed ones, so a
    /// resumed or sharded campaign does not re-burn wall-clock on a unit
    /// already known to fail; delete the row (or the manifest) to retry.
    Failed {
        /// Deterministic human-readable cause (a [`ScenarioError`]
        /// rendering, or the budget message).
        reason: String,
    },
}

/// One finished unit: the manifest row. Floats are persisted with `{}`
/// (shortest round-trip), so a row written, parsed back and re-aggregated
/// produces bit-identical statistics — the property the resume- and
/// merge-equivalence guarantees rest on.
#[derive(Debug, Clone)]
pub struct RepRow {
    /// Which cell this replication belongs to.
    pub cell: CellId,
    /// The cell's scenario name (labels tables; the ID is authoritative).
    pub name: String,
    /// Replication index (0-based).
    pub rep: u32,
    /// The derived workload seed actually simulated (0 for SWF replays).
    pub seed: u64,
    /// Completion or failure.
    pub outcome: RepOutcome,
    /// Wall-clock seconds this unit took to execute, recorded for fleet
    /// scheduling (straggler detection, work-stealing reassignment).
    /// Provenance only: it never feeds results, aggregates or cell
    /// identity, and — being wall-clock — it is excluded from [`RepRow`]
    /// equality together with the phase columns below. `None` on rows
    /// parsed from manifests that predate the column.
    pub elapsed_s: Option<f64>,
    /// Wall-clock seconds spent materialising the workload (SWF parse +
    /// clean, or synthetic build). Provenance only, like `elapsed_s`;
    /// `None` on rows from manifests that predate the phase columns.
    pub parse_s: Option<f64>,
    /// Wall-clock seconds spent constructing the simulator (cluster,
    /// rails, engine). Provenance only; `None` on pre-phase manifests.
    pub build_s: Option<f64>,
    /// Wall-clock seconds spent in the simulation event loop plus metric
    /// aggregation. Provenance only; `None` on pre-phase manifests.
    pub sim_s: Option<f64>,
}

/// Equality is over the *simulated* outcome — every field except the
/// wall-clock `elapsed_s`/`parse_s`/`build_s`/`sim_s`, whose run-to-run
/// jitter would otherwise break resume/merge deduplication and the
/// byte-identity guarantees.
impl PartialEq for RepRow {
    fn eq(&self, other: &Self) -> bool {
        self.cell == other.cell
            && self.name == other.name
            && self.rep == other.rep
            && self.seed == other.seed
            && self.outcome == other.outcome
    }
}

impl RepRow {
    /// Manifest column names, field order. Failed rows carry `-` in every
    /// metric column. The trailing `elapsed_s`, `parse_s`, `build_s` and
    /// `sim_s` columns are wall-clock provenance; manifests written before
    /// the phase columns existed (18 columns) or before `elapsed_s`
    /// (17 columns) still parse, with the missing fields left `None`.
    pub const HEADERS: [&'static str; 21] = [
        "cell",
        "scenario",
        "rep",
        "seed",
        "status",
        "reason",
        "jobs",
        "avg_bsld",
        "avg_wait_s",
        "reduced_jobs",
        "energy_comp",
        "energy_idle",
        "energy_ledger",
        "peak_over_budget",
        "energy_cpu",
        "energy_mem",
        "energy_net",
        "elapsed_s",
        "parse_s",
        "build_s",
        "sim_s",
    ];

    /// The metrics of a completed row (`None` for failed rows).
    pub fn metrics(&self) -> Option<&RepMetrics> {
        match &self.outcome {
            RepOutcome::Ok(m) => Some(m),
            RepOutcome::Failed { .. } => None,
        }
    }

    /// Builds the row for one successfully finished unit.
    pub fn from_result(cell: &CampaignCell, unit: &CampaignUnit, res: &ScenarioResult) -> RepRow {
        let m = &res.run.metrics;
        // Per-rail energy only exists on the multi-rail layout (an
        // explicit `model =`); the single-rail default reports `-`, so
        // rows of pre-existing campaigns keep their exact field values.
        let rail = |kind: bsld_power::RailKind| -> Option<f64> {
            res.power
                .as_ref()
                .filter(|p| p.rails.len() > 1)
                .and_then(|p| p.rails.iter().find(|r| r.kind == kind))
                .map(|r| r.energy)
        };
        RepRow {
            cell: cell.id,
            name: cell.scenario.name.clone(),
            rep: unit.rep,
            seed: unit_seed(unit),
            outcome: RepOutcome::Ok(RepMetrics {
                // audit:allow(N2): usize -> u64 is a widening on every supported target
                jobs: m.jobs as u64,
                avg_bsld: m.avg_bsld,
                avg_wait_s: m.avg_wait_secs,
                // audit:allow(N2): usize -> u64 is a widening on every supported target
                reduced_jobs: m.reduced_jobs as u64,
                energy_comp: m.energy.computational,
                energy_idle: m.energy.with_idle,
                energy_ledger: res.power.as_ref().map(|p| p.energy),
                peak_over_budget: res
                    .power
                    .as_ref()
                    .and_then(|p| p.budget.filter(|b| *b > 0.0).map(|b| p.peak / b)),
                energy_cpu: rail(bsld_power::RailKind::Cpu),
                energy_mem: rail(bsld_power::RailKind::Memory),
                energy_net: rail(bsld_power::RailKind::Interconnect),
            }),
            elapsed_s: None,
            parse_s: None,
            build_s: None,
            sim_s: None,
        }
    }

    /// Builds the failure row for a unit that could not complete.
    pub fn from_failure(cell: &CampaignCell, unit: &CampaignUnit, reason: String) -> RepRow {
        RepRow {
            cell: cell.id,
            name: cell.scenario.name.clone(),
            rep: unit.rep,
            seed: unit_seed(unit),
            outcome: RepOutcome::Failed { reason },
            elapsed_s: None,
            parse_s: None,
            build_s: None,
            sim_s: None,
        }
    }

    /// Stamps the profiling plane's phase breakdown onto the row.
    fn set_phases(&mut self, p: bsld_obs::PhaseSecs) {
        self.parse_s = Some(p.parse_s);
        self.build_s = Some(p.build_s);
        self.sim_s = Some(p.sim_s);
    }

    fn fields(&self) -> Vec<String> {
        let opt = |v: &Option<f64>| match v {
            Some(x) => x.to_string(),
            None => "-".to_string(),
        };
        let mut out = vec![
            self.cell.to_string(),
            self.name.clone(),
            self.rep.to_string(),
            self.seed.to_string(),
        ];
        match &self.outcome {
            RepOutcome::Ok(m) => out.extend([
                "ok".to_string(),
                "-".to_string(),
                m.jobs.to_string(),
                m.avg_bsld.to_string(),
                m.avg_wait_s.to_string(),
                m.reduced_jobs.to_string(),
                m.energy_comp.to_string(),
                m.energy_idle.to_string(),
                opt(&m.energy_ledger),
                opt(&m.peak_over_budget),
                opt(&m.energy_cpu),
                opt(&m.energy_mem),
                opt(&m.energy_net),
            ]),
            RepOutcome::Failed { reason } => {
                out.extend(["failed".to_string(), reason.clone()]);
                out.extend(std::iter::repeat_n("-".to_string(), 11));
            }
        }
        out.push(opt(&self.elapsed_s));
        out.push(opt(&self.parse_s));
        out.push(opt(&self.build_s));
        out.push(opt(&self.sim_s));
        out
    }

    /// One manifest line (CSV-escaped, no trailing newline).
    pub fn to_csv_line(&self) -> String {
        self.fields()
            .iter()
            .map(|f| csv_escape(f))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses a manifest line; `None` for rows that do not parse (torn
    /// tail of a crashed write — the unit simply reruns).
    pub fn parse_line(line: &str) -> Option<RepRow> {
        let f = parse_csv_line(line);
        // 21 columns today; 18 from manifests written before the phase
        // columns; 17 from manifests written before `elapsed_s`.
        let legacy_ok = f.len() == 18 || f.len() == 17;
        if f.len() != Self::HEADERS.len() && !legacy_ok {
            return None;
        }
        let opt = |s: &str| -> Option<Option<f64>> {
            if s == "-" {
                Some(None)
            } else {
                s.parse::<f64>().ok().map(Some)
            }
        };
        let outcome = match f[4].as_str() {
            "ok" => RepOutcome::Ok(RepMetrics {
                jobs: f[6].parse().ok()?,
                avg_bsld: f[7].parse().ok()?,
                avg_wait_s: f[8].parse().ok()?,
                reduced_jobs: f[9].parse().ok()?,
                energy_comp: f[10].parse().ok()?,
                energy_idle: f[11].parse().ok()?,
                energy_ledger: opt(&f[12])?,
                peak_over_budget: opt(&f[13])?,
                energy_cpu: opt(&f[14])?,
                energy_mem: opt(&f[15])?,
                energy_net: opt(&f[16])?,
            }),
            "failed" => RepOutcome::Failed {
                reason: f[5].clone(),
            },
            _ => return None,
        };
        // Trailing wall-clock columns, absent on legacy manifests.
        let wall = |i: usize| -> Option<Option<f64>> {
            match f.get(i).map(String::as_str) {
                None | Some("-") => Some(None),
                Some(s) => s.parse::<f64>().ok().map(Some),
            }
        };
        Some(RepRow {
            cell: CellId::parse(&f[0]).ok()?,
            name: f[1].clone(),
            rep: f[2].parse().ok()?,
            seed: f[3].parse().ok()?,
            outcome,
            elapsed_s: wall(17)?,
            parse_s: wall(18)?,
            build_s: wall(19)?,
            sim_s: wall(20)?,
        })
    }
}

/// The derived workload seed a unit actually simulates (0 for SWF
/// replays, which have none).
fn unit_seed(unit: &CampaignUnit) -> u64 {
    match &unit.scenario.workload {
        WorkloadSpec::Synthetic { seed, .. } => *seed,
        WorkloadSpec::Swf { .. } => 0,
    }
}

/// Per-cell aggregate across its replications: mean ± 95 % CI for every
/// headline metric (Student-t over the sample standard error).
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// The cell's content-hash identity.
    pub id: CellId,
    /// The cell's scenario name.
    pub name: String,
    /// Jobs per replication (constant for a given cell spec).
    pub jobs: u64,
    /// Average BSLD, mean ± CI.
    pub bsld: MeanCi,
    /// Average wait (seconds), mean ± CI.
    pub wait: MeanCi,
    /// Reduced-job count, mean ± CI.
    pub reduced: MeanCi,
    /// Computational energy, mean ± CI.
    pub energy_comp: MeanCi,
    /// Idle-inclusive energy, mean ± CI.
    pub energy_idle: MeanCi,
    /// Ledger energy, mean ± CI (`None` unless every replication was
    /// power-instrumented).
    pub energy_ledger: Option<MeanCi>,
    /// `peak / budget`, mean ± CI (`None` unless every replication ran
    /// capped).
    pub peak_over_budget: Option<MeanCi>,
    /// CPU-rail energy, mean ± CI (`None` unless every replication ran
    /// on the multi-rail layout — a scenario with an explicit `model =`).
    pub energy_cpu: Option<MeanCi>,
    /// Memory-rail energy, mean ± CI (multi-rail runs only).
    pub energy_mem: Option<MeanCi>,
    /// Interconnect-rail energy, mean ± CI (multi-rail runs only).
    pub energy_net: Option<MeanCi>,
}

fn mean_ci(values: impl Iterator<Item = f64>) -> MeanCi {
    let mut s = OnlineStats::new();
    for v in values {
        s.push(v);
    }
    MeanCi::new(s.mean(), s.ci95_half(), s.count())
}

fn summarize_cell(cell: &CampaignCell, rows: &[&RepMetrics]) -> CellSummary {
    let all = |f: fn(&RepMetrics) -> Option<f64>| -> Option<MeanCi> {
        let vals: Option<Vec<f64>> = rows.iter().map(|r| f(r)).collect();
        vals.map(|v| mean_ci(v.into_iter()))
    };
    CellSummary {
        id: cell.id,
        name: cell.scenario.name.clone(),
        jobs: rows.first().map(|r| r.jobs).unwrap_or(0),
        bsld: mean_ci(rows.iter().map(|r| r.avg_bsld)),
        wait: mean_ci(rows.iter().map(|r| r.avg_wait_s)),
        reduced: mean_ci(rows.iter().map(|r| r.reduced_jobs as f64)),
        energy_comp: mean_ci(rows.iter().map(|r| r.energy_comp)),
        energy_idle: mean_ci(rows.iter().map(|r| r.energy_idle)),
        energy_ledger: all(|r| r.energy_ledger),
        peak_over_budget: all(|r| r.peak_over_budget),
        energy_cpu: all(|r| r.energy_cpu),
        energy_mem: all(|r| r.energy_mem),
        energy_net: all(|r| r.energy_net),
    }
}

/// How to run a campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads for the unit sweep.
    pub threads: usize,
    /// Directory holding the manifest (and the aggregated results CSV).
    /// `None`: run fully in memory — no caching, no resume.
    pub dir: Option<PathBuf>,
    /// Read an existing manifest in [`CampaignOptions::dir`] and skip
    /// every unit whose row is already present. Without this flag a fresh
    /// manifest is started (the old one is overwritten).
    pub resume: bool,
}

impl CampaignOptions {
    /// No disk artifacts: run everything, aggregate in memory.
    pub fn in_memory(threads: usize) -> CampaignOptions {
        CampaignOptions {
            threads,
            dir: None,
            resume: false,
        }
    }

    /// A fresh campaign flushing its manifest into `dir`.
    pub fn fresh(threads: usize, dir: impl Into<PathBuf>) -> CampaignOptions {
        CampaignOptions {
            threads,
            dir: Some(dir.into()),
            resume: false,
        }
    }

    /// Resume (or start) a campaign in `dir`, skipping cached units.
    pub fn resume(threads: usize, dir: impl Into<PathBuf>) -> CampaignOptions {
        CampaignOptions {
            threads,
            dir: Some(dir.into()),
            resume: true,
        }
    }
}

/// The result of [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Every finished unit row (cached + freshly run, failed rows
    /// included), unit order.
    pub rows: Vec<RepRow>,
    /// Per-cell aggregates over the *successful* replications, expansion
    /// order (cells with no completed replication are absent; their
    /// failures are listed instead).
    pub summaries: Vec<CellSummary>,
    /// Total units the plan contains.
    pub total_units: usize,
    /// Units skipped because their manifest row already existed.
    pub resumed: usize,
    /// Manifest rows whose cell hash matches no cell of this campaign
    /// (the sweep changed); they are ignored but left in the manifest
    /// file.
    pub stale_rows: usize,
    /// Manifest rows of a planned cell whose replication index is beyond
    /// the current `replications` (the count shrank); ignored likewise.
    pub excess_rows: usize,
    /// Per-unit failures (`name[rep]: reason`), unit order. Failed units
    /// are persisted as `failed` manifest rows, so a resume does not
    /// re-burn wall-clock on them — delete the rows (or the manifest) to
    /// retry. Manifest I/O errors are appended after the unit failures;
    /// those wrote no row and *do* rerun on resume.
    pub failures: Vec<String>,
}

impl CampaignOutcome {
    /// The aggregated per-cell results as a CSV document: one row per
    /// cell, `mean` and `ci95` columns per metric, floats at full
    /// round-trip precision. Deterministic for a given set of rows —
    /// independent of thread scheduling and of how many runs it took to
    /// complete the campaign.
    pub fn results_csv(&self) -> String {
        let mut headers = vec![
            "cell",
            "scenario",
            "reps",
            "jobs",
            "avg_bsld_mean",
            "avg_bsld_ci95",
            "avg_wait_s_mean",
            "avg_wait_s_ci95",
            "reduced_jobs_mean",
            "reduced_jobs_ci95",
            "energy_comp_mean",
            "energy_comp_ci95",
            "energy_idle_mean",
            "energy_idle_ci95",
            "energy_ledger_mean",
            "energy_ledger_ci95",
            "peak_over_budget_mean",
            "peak_over_budget_ci95",
        ];
        // Per-rail columns appear only when some cell actually ran on the
        // multi-rail layout; campaigns that never select a model keep the
        // exact pre-subsystem column set (and bytes).
        let with_rails = self.summaries.iter().any(|c| c.energy_cpu.is_some());
        if with_rails {
            headers.extend([
                "energy_cpu_mean",
                "energy_cpu_ci95",
                "energy_mem_mean",
                "energy_mem_ci95",
                "energy_net_mean",
                "energy_net_ci95",
            ]);
        }
        let rows: Vec<Vec<String>> = self
            .summaries
            .iter()
            .map(|c| {
                let mut row = vec![
                    c.id.to_string(),
                    c.name.clone(),
                    c.bsld.n.to_string(),
                    c.jobs.to_string(),
                ];
                for ci in [&c.bsld, &c.wait, &c.reduced, &c.energy_comp, &c.energy_idle] {
                    let (m, h) = ci.csv_fields();
                    row.push(m);
                    row.push(h);
                }
                let mut opts = vec![&c.energy_ledger, &c.peak_over_budget];
                if with_rails {
                    opts.extend([&c.energy_cpu, &c.energy_mem, &c.energy_net]);
                }
                for opt in opts {
                    match opt {
                        Some(ci) => {
                            let (m, h) = ci.csv_fields();
                            row.push(m);
                            row.push(h);
                        }
                        None => {
                            row.push("-".into());
                            row.push("-".into());
                        }
                    }
                }
                row
            })
            .collect();
        bsld_metrics::csv_string(&headers, &rows)
    }

    /// Renders the per-cell summary table (`mean ± ci` cells).
    pub fn render_table(&self) -> String {
        let mut t = TextTable::new(vec![
            "scenario",
            "reps",
            "jobs",
            "avgBSLD",
            "avgWait(s)",
            "reduced",
            "E(comp)",
            "E(ledger)",
        ]);
        for c in &self.summaries {
            t.row(vec![
                c.name.clone(),
                c.bsld.n.to_string(),
                c.jobs.to_string(),
                c.bsld.table_cell(2),
                c.wait.table_cell(0),
                c.reduced.table_cell(1),
                c.energy_comp.table_cell_sci(3),
                c.energy_ledger
                    .as_ref()
                    .map(|ci| ci.table_cell_sci(3))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        t.render()
    }
}

/// Reads the manifest rows from `dir` (empty if the file does not exist).
/// The header line is validated; unparseable data lines — the torn tail
/// of a crashed append — are skipped, so the corresponding units rerun.
pub fn read_manifest(dir: &Path) -> Result<Vec<RepRow>, ScenarioError> {
    read_manifest_at(&dir.join(MANIFEST_FILE))
}

/// As [`read_manifest`] for an explicit manifest path (the distributed
/// layer keeps one manifest per worker shard).
pub fn read_manifest_at(path: &Path) -> Result<Vec<RepRow>, ScenarioError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(ScenarioError::Io(format!(
                "cannot read {}: {e}",
                path.display()
            )))
        }
    };
    let mut lines = text.lines();
    match lines.next() {
        None => return Ok(Vec::new()),
        Some(header) => {
            let expect = RepRow::HEADERS.join(",");
            // Manifests written before the phase columns (18 columns) or
            // before `elapsed_s` (17) resume fine: their rows parse with
            // the missing wall-clock fields left `None`.
            let legacy_elapsed = RepRow::HEADERS[..18].join(",");
            let legacy = RepRow::HEADERS[..17].join(",");
            if header != expect && header != legacy_elapsed && header != legacy {
                return Err(ScenarioError::Io(format!(
                    "{} is not a campaign manifest (header {header:?})",
                    path.display()
                )));
            }
        }
    }
    Ok(lines.filter_map(RepRow::parse_line).collect())
}

/// Opens a manifest for incremental appends: `resume` appends to an
/// existing file — terminating a torn final line first, so fresh rows
/// never weld onto a crashed partial write — while a fresh run truncates
/// and writes the header.
pub(crate) fn open_manifest(path: &Path, resume: bool) -> Result<std::fs::File, ScenarioError> {
    if resume && path.exists() {
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut f| {
                let text = std::fs::read(path)?;
                if !text.is_empty() && text.last() != Some(&b'\n') {
                    writeln!(f)?;
                }
                Ok(f)
            })
            .map_err(|e| ScenarioError::Io(format!("cannot open {}: {e}", path.display())))
    } else {
        std::fs::File::create(path)
            .and_then(|mut f| {
                writeln!(f, "{}", RepRow::HEADERS.join(","))?;
                Ok(f)
            })
            .map_err(|e| ScenarioError::Io(format!("cannot create {}: {e}", path.display())))
    }
}

/// Splits manifest rows against a plan: rows of planned `(cell, rep)`
/// units are cached (later rows win, matching append order), rows of
/// unknown cells are stale, rows of known cells beyond the replication
/// count are excess.
pub(crate) struct ClassifiedRows {
    /// Reusable rows by `(cell id, rep)`.
    pub cached: BTreeMap<(CellId, u32), RepRow>,
    /// Rows matching no planned cell.
    pub stale: usize,
    /// Rows of planned cells with `rep >= replications`.
    pub excess: usize,
}

pub(crate) fn classify_rows(
    campaign: &Campaign,
    rows: impl IntoIterator<Item = RepRow>,
) -> ClassifiedRows {
    let planned: BTreeSet<CellId> = campaign.cells.iter().map(|c| c.id).collect();
    let mut out = ClassifiedRows {
        cached: BTreeMap::new(),
        stale: 0,
        excess: 0,
    };
    for row in rows {
        if !planned.contains(&row.cell) {
            out.stale += 1;
        } else if row.rep >= campaign.replications {
            // The cell is still in the plan — only the replication count
            // shrank. Keep this distinct from "unknown cell" so the
            // caller doesn't report a spec change that never happened.
            out.excess += 1;
        } else {
            out.cached.insert((row.cell, row.rep), row);
        }
    }
    out
}

/// Executes `pending` units in parallel, flushing each finished row —
/// completed or failed — to `manifest` (when given) the moment it exists,
/// and ticking the progress counter per unit. Returns one
/// `(cell, rep, row-or-io-error)` triple per unit; a row that did not
/// reach disk is an error, so the caller surfaces it and a resume reruns
/// the unit.
///
/// This is the one flush discipline: the single-process path
/// ([`run_campaign`]) and the distributed workers
/// ([`crate::distrib::run_worker`]) both go through it, which is what
/// keeps their manifests merge-compatible.
pub(crate) fn execute_pending(
    campaign: &Campaign,
    pending: Vec<CampaignUnit>,
    threads: usize,
    manifest: Option<&Mutex<std::fs::File>>,
    progress: &Progress,
    on_progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Vec<(usize, u32, Result<RepRow, String>)> {
    bsld_par::par_map(pending, threads.max(1), |unit| {
        let row = campaign.execute_unit(&unit);
        let outcome = match manifest {
            None => Ok(row),
            Some(file) => {
                let io = file
                    .lock()
                    .map_err(|_| "manifest lock poisoned".to_string())
                    .and_then(|mut f| {
                        writeln!(f, "{}", row.to_csv_line())
                            .and_then(|()| f.flush())
                            .map_err(|e| format!("manifest write failed: {e}"))
                    });
                io.map(|()| row)
            }
        };
        let done = progress.tick();
        if let Some(cb) = on_progress {
            cb(done, progress.total());
        }
        (unit.cell, unit.rep, outcome)
    })
}

/// Folds cached rows and the output of [`execute_pending`] into a
/// unit-index keyed map plus the manifest-I/O failure list (`name[rep]:
/// error`, execution order).
pub(crate) fn collect_rows(
    campaign: &Campaign,
    cached: BTreeMap<(CellId, u32), RepRow>,
    fresh: Vec<(usize, u32, Result<RepRow, String>)>,
) -> (BTreeMap<(usize, u32), RepRow>, Vec<String>) {
    let index_of: BTreeMap<CellId, usize> = campaign
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id, i))
        .collect();
    let mut by_unit: BTreeMap<(usize, u32), RepRow> = BTreeMap::new();
    for ((id, rep), row) in cached {
        by_unit.insert((index_of[&id], rep), row);
    }
    let mut io_failures = Vec::new();
    for (cell, rep, res) in fresh {
        match res {
            Ok(row) => {
                by_unit.insert((cell, rep), row);
            }
            Err(e) => io_failures.push(format!(
                "{}[rep {rep}]: {e}",
                campaign.cells[cell].scenario.name
            )),
        }
    }
    (by_unit, io_failures)
}

/// Deterministically orders and aggregates a complete (or partial) row
/// map: rows in unit order, per-cell summaries over the successful
/// replications, and the unit-order failure list. Both the single-process
/// path ([`run_campaign`]) and the distributed merge
/// ([`crate::distrib::merge_campaign`]) go through this function — the
/// byte-identity guarantee between them is its determinism.
pub(crate) fn aggregate_rows(
    campaign: &Campaign,
    by_unit: &BTreeMap<(usize, u32), RepRow>,
) -> (Vec<RepRow>, Vec<CellSummary>, Vec<String>) {
    let rows: Vec<RepRow> = campaign
        .units
        .iter()
        .filter_map(|u| by_unit.get(&(u.cell, u.rep)).cloned())
        .collect();
    let mut failures = Vec::new();
    for row in &rows {
        if let RepOutcome::Failed { reason } = &row.outcome {
            failures.push(format!("{}[rep {}]: {reason}", row.name, row.rep));
        }
    }
    let summaries: Vec<CellSummary> = campaign
        .cells
        .iter()
        .enumerate()
        .filter_map(|(i, cell)| {
            let metrics: Vec<&RepMetrics> = (0..campaign.replications)
                .filter_map(|rep| by_unit.get(&(i, rep)).and_then(RepRow::metrics))
                .collect();
            (!metrics.is_empty()).then(|| summarize_cell(cell, &metrics))
        })
        .collect();
    (rows, summaries, failures)
}

/// File name of the JSON campaign report inside the campaign directory.
pub const JSON_FILE: &str = "campaign.json";

/// The seed-derivation rule recorded in [`campaign_json`] provenance —
/// how [`replication_seed`] turns a cell's base seed into per-replication
/// workload seeds.
pub const SEED_DERIVATION_RULE: &str =
    "rep 0 keeps the cell's seed; rep k > 0 uses splitmix64(seed, 0x5eed000000000000 + k)";

/// The campaign's canonical content hash: FNV-1a over the set's rendered
/// text with the output spec blanked (`--out` is driver advice, not
/// campaign identity). Recorded in the JSON report and used by the
/// distributed layer to pin a shared directory to one campaign.
pub fn campaign_hash(set: &ScenarioSet) -> u64 {
    fnv1a_64(canonical_set_text(set).as_bytes())
}

/// The canonical spec text behind [`campaign_hash`]: the rendered set
/// with presentation-only state (the output directory) removed.
pub(crate) fn canonical_set_text(set: &ScenarioSet) -> String {
    let mut canonical = set.clone();
    canonical.base.output = crate::scenario::OutputSpec::default();
    canonical.render()
}

/// Renders the machine-readable campaign report: per-cell mean ± 95 % CI
/// for every metric, failed units with reasons, and provenance (the
/// campaign's content hash, per-cell [`CellId`]s and base seeds, the
/// seed-derivation rule, replication count and wall-time budget).
///
/// Deterministic for a given plan and row set — independent of thread
/// scheduling, resume history, and of whether the rows were produced by
/// one process or merged from worker shards.
pub fn campaign_json(set: &ScenarioSet, campaign: &Campaign, outcome: &CampaignOutcome) -> String {
    use bsld_metrics::Json;
    let ci = |m: &MeanCi| {
        Json::obj(vec![
            ("mean", Json::from(m.mean)),
            ("ci95", Json::from(m.half)),
        ])
    };
    let opt_ci = |m: &Option<MeanCi>| m.as_ref().map(&ci).unwrap_or(Json::Null);
    let summary_of: BTreeMap<CellId, &CellSummary> =
        outcome.summaries.iter().map(|s| (s.id, s)).collect();
    let cells = Json::Arr(
        campaign
            .cells
            .iter()
            .map(|cell| {
                let mut pairs = vec![
                    ("id", Json::str(cell.id.to_string())),
                    ("scenario", Json::str(&cell.scenario.name)),
                ];
                match &cell.scenario.workload {
                    // Seeds are u64: render as strings so CellId-sized
                    // values survive JSON consumers that read f64.
                    WorkloadSpec::Synthetic { seed, .. } => {
                        pairs.push(("seed", Json::str(seed.to_string())));
                    }
                    WorkloadSpec::Swf { path, .. } => {
                        pairs.push(("swf", Json::str(path.display().to_string())));
                    }
                }
                // Model provenance only when the cell selects one: reports
                // of model-free campaigns stay byte-identical.
                if let Some(m) = &cell.scenario.power.model {
                    pairs.push(("model", Json::str(m.render())));
                }
                match summary_of.get(&cell.id) {
                    None => {
                        pairs.push(("reps", Json::from(0u64)));
                        pairs.push(("metrics", Json::Null));
                    }
                    Some(s) => {
                        pairs.push(("reps", Json::from(s.bsld.n)));
                        pairs.push(("jobs", Json::from(s.jobs)));
                        let mut metrics = vec![
                            ("avg_bsld", ci(&s.bsld)),
                            ("avg_wait_s", ci(&s.wait)),
                            ("reduced_jobs", ci(&s.reduced)),
                            ("energy_comp", ci(&s.energy_comp)),
                            ("energy_idle", ci(&s.energy_idle)),
                            ("energy_ledger", opt_ci(&s.energy_ledger)),
                            ("peak_over_budget", opt_ci(&s.peak_over_budget)),
                        ];
                        if s.energy_cpu.is_some() {
                            metrics.extend([
                                ("energy_cpu", opt_ci(&s.energy_cpu)),
                                ("energy_mem", opt_ci(&s.energy_mem)),
                                ("energy_net", opt_ci(&s.energy_net)),
                            ]);
                        }
                        pairs.push(("metrics", Json::obj(metrics)));
                    }
                }
                Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            })
            .collect(),
    );
    let failed = Json::Arr(
        outcome
            .rows
            .iter()
            .filter_map(|row| match &row.outcome {
                RepOutcome::Ok(_) => None,
                RepOutcome::Failed { reason } => Some(Json::obj(vec![
                    ("cell", Json::str(row.cell.to_string())),
                    ("scenario", Json::str(&row.name)),
                    ("rep", Json::from(u64::from(row.rep))),
                    ("reason", Json::str(reason)),
                ])),
            })
            .collect(),
    );
    Json::obj(vec![
        ("format", Json::str("bsld-campaign/1")),
        ("scenario", Json::str(&set.base.name)),
        (
            "scenario_hash",
            Json::str(format!("{:016x}", campaign_hash(set))),
        ),
        ("replications", Json::from(u64::from(campaign.replications))),
        (
            "cell_budget_s",
            campaign.cell_budget_s.map(Json::from).unwrap_or(Json::Null),
        ),
        ("seed_derivation", Json::str(SEED_DERIVATION_RULE)),
        ("total_units", Json::from(outcome.total_units)),
        ("cells", cells),
        ("failed_units", failed),
    ])
    .render()
}

/// Writes the aggregated artifacts (`campaign_results.csv` and
/// `campaign.json`) into `dir`.
pub(crate) fn write_artifacts(
    dir: &Path,
    set: &ScenarioSet,
    campaign: &Campaign,
    outcome: &CampaignOutcome,
) -> Result<(), ScenarioError> {
    let path = dir.join(RESULTS_FILE);
    std::fs::write(&path, outcome.results_csv())
        .map_err(|e| ScenarioError::Io(format!("cannot write {}: {e}", path.display())))?;
    let path = dir.join(JSON_FILE);
    std::fs::write(&path, campaign_json(set, campaign, outcome))
        .map_err(|e| ScenarioError::Io(format!("cannot write {}: {e}", path.display())))?;
    Ok(())
}

/// Runs a campaign: plan, resume from the manifest (if asked), execute the
/// missing units in parallel with per-unit manifest flushes, aggregate
/// per-cell statistics, and write the aggregated artifacts
/// (`campaign_results.csv` + `campaign.json`).
///
/// `on_progress` (if given) observes `(done, total)` after every completed
/// unit — cached units are reported up front — and may render a status
/// line; it is invoked from worker threads.
pub fn run_campaign(
    set: &ScenarioSet,
    opts: &CampaignOptions,
    on_progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Result<CampaignOutcome, ScenarioError> {
    let campaign = Campaign::plan(set)?;
    let total_units = campaign.units.len();

    // Which units are already on disk?
    let classified = match (opts.resume, &opts.dir) {
        (true, Some(dir)) => classify_rows(&campaign, read_manifest(dir)?),
        _ => classify_rows(&campaign, std::iter::empty()),
    };
    let cached = classified.cached;

    // Open the manifest for incremental flushing.
    let manifest: Option<Mutex<std::fs::File>> = match &opts.dir {
        None => None,
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| ScenarioError::Io(format!("cannot create {}: {e}", dir.display())))?;
            Some(Mutex::new(open_manifest(
                &dir.join(MANIFEST_FILE),
                opts.resume,
            )?))
        }
    };

    // Partition the work list.
    let pending: Vec<CampaignUnit> = campaign
        .units
        .iter()
        .filter(|u| !cached.contains_key(&(campaign.cells[u.cell].id, u.rep)))
        .cloned()
        .collect();
    let resumed = total_units - pending.len();
    let progress = Progress::new(total_units);
    for _ in 0..resumed {
        progress.tick();
    }
    if let Some(cb) = on_progress {
        cb(progress.done(), progress.total());
    }

    // Run what's missing; flush each row — completed or failed — the
    // moment it exists. Then merge cached + fresh rows into unit order.
    let fresh = execute_pending(
        &campaign,
        pending,
        opts.threads,
        manifest.as_ref(),
        &progress,
        on_progress,
    );
    let (by_unit, io_failures) = collect_rows(&campaign, cached, fresh);
    let (rows, summaries, mut failures) = aggregate_rows(&campaign, &by_unit);
    failures.extend(io_failures);

    let outcome = CampaignOutcome {
        rows,
        summaries,
        total_units,
        resumed,
        stale_rows: classified.stale,
        excess_rows: classified.excess,
        failures,
    };

    // Persist the aggregates next to the manifest.
    if let Some(dir) = &opts.dir {
        write_artifacts(dir, set, &campaign, &outcome)?;
    }
    Ok(outcome)
}
