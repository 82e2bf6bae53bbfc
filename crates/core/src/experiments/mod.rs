//! The experiment harness. Every study of the paper is a scenario file
//! under `paper/`, embedded in the module that renders it and run by one
//! runner, [`Study::run`]; the modules only lay out tables.
//!
//! | Module | Study files (`paper/`) | Reproduces |
//! |--------|------------------------|------------|
//! | [`table1`] | `table1.scn` | Table 1 — workload characteristics & baseline avg BSLD |
//! | [`grid`] | `grid.scn` | Figures 3, 4, 5 — the original-size parameter grid |
//! | [`fig6`] | `fig6.scn` | Figure 6 — SDSC-Blue wait-time series |
//! | [`enlarged`] | `enlarged.scn` | Figures 7, 8, 9 and Table 3 — enlarged systems |
//! | [`ablation`] | `boost`, `beta`, `fcfs` + `fcfs_nobackfill`, `gears`, `selection` | Beyond-paper ablations |
//! | [`powercap`] | `powercap.scn` | Beyond-paper: power-cap levels × BSLD thresholds frontier |
//!
//! "Normalised" means one thing in every study: relative to the cell's
//! [`reference()`], the same workload with every other key at its default
//! except `observe` — the no-DVFS EASY baseline on the original machine.

pub mod ablation;
pub mod enlarged;
pub mod fig6;
pub mod grid;
pub mod powercap;
pub mod table1;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use bsld_metrics::RunMetrics;

use crate::campaign::CellId;
use crate::policy::PowerAwareConfig;
use crate::scenario::{
    self, PolicySpec, ProfileName, Scenario, ScenarioResult, ScenarioSet, WorkloadSpec,
};

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Master seed; every workload derives its streams from it.
    pub seed: u64,
    /// Jobs per workload (the paper simulates 5 000).
    pub jobs: usize,
    /// Worker threads for the sweep.
    pub threads: usize,
    /// Directory for CSV artifacts (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Chrome-trace output path (`None` = tracing disabled, the
    /// no-allocation fast path). Supported by the grid sweep; the file is
    /// byte-identical across replays regardless of `threads`.
    pub trace_out: Option<PathBuf>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            seed: 2010,
            jobs: 5000,
            threads: bsld_par::default_threads(),
            out_dir: Some(PathBuf::from("results")),
            trace_out: None,
        }
    }
}

impl ExpOptions {
    /// A reduced-scale configuration for tests and the benchmark.
    pub fn quick(jobs: usize) -> Self {
        ExpOptions {
            seed: 2010,
            jobs,
            threads: bsld_par::default_threads(),
            out_dir: None,
            trace_out: None,
        }
    }
}

/// The reference of `cell`: the same workload (profile, `jobs` and `seed`;
/// an SWF replay's whole spec) with every other key at its default except
/// `observe`, so ledger energies compare like with like.
pub fn reference(cell: &Scenario) -> Scenario {
    let mut r = Scenario::synthetic("reference", ProfileName::Ctc, 0, 0);
    r.workload = match cell.workload {
        WorkloadSpec::Synthetic {
            profile,
            jobs,
            seed,
            ..
        } => Scenario::synthetic("", profile, jobs, seed).workload,
        ref swf => swf.clone(),
    };
    r.power.observe = cell.power.observe;
    r
}

/// A study run at one scale: every cell of its files and every reference,
/// each distinct spec run once.
#[derive(Debug)]
pub struct Study {
    /// One result per distinct spec ([`CellId`]), in first-use order.
    results: Vec<ScenarioResult>,
    /// The table: each row's scenario, its result and its reference's.
    rows: Vec<(Scenario, usize, usize)>,
}

/// One row of a study's table.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// A cell of the study files, or a reference no cell equals.
    pub cell: &'a Scenario,
    /// The cell's run.
    pub result: &'a ScenarioResult,
    /// Its reference's run.
    pub reference: &'a ScenarioResult,
}

impl Study {
    /// Runs the study made of `files`, `.scn` texts whose cells
    /// concatenate, at the scale of `opts`:
    ///
    /// 1. parses each file;
    /// 2. sets its `jobs` and `seed` from `opts`;
    /// 3. expands its sweep axes;
    /// 4. adds each cell's [`reference()`];
    /// 5. runs the distinct specs in one parallel sweep; when `trace_name`
    ///    names the runs and `opts.trace_out` is set, traced into that
    ///    file, one buffer per run in first-use order, so the file does
    ///    not depend on `opts.threads`;
    /// 6. keeps the table: each cell in file order, after its reference
    ///    unless a cell is the reference.
    ///
    /// The files are committed studies, so a parse error or a failed run
    /// is a bug in the harness: it panics.
    pub fn run(
        files: &[&str],
        opts: &ExpOptions,
        trace_name: Option<fn(&Scenario) -> String>,
    ) -> Study {
        let mut cells = Vec::new();
        for text in files {
            // audit:allow(R1): the study files are committed, and the tests parse each one
            let mut set = ScenarioSet::parse(text).expect("a committed study file parses");
            if let WorkloadSpec::Synthetic { jobs, seed, .. } = &mut set.base.workload {
                *jobs = opts.jobs;
                *seed = opts.seed;
            }
            // audit:allow(R1): same invariant as the line above
            cells.extend(set.expand().expect("a committed study file expands"));
        }
        let cell_ids: BTreeSet<CellId> = cells.iter().map(CellId::of).collect();
        let mut runs: Vec<Scenario> = Vec::new();
        let mut run_of: BTreeMap<CellId, usize> = BTreeMap::new();
        // The run of `sc`, added when its spec is new, and whether it is a
        // new spec no cell equals: a reference the table lists itself.
        let mut intern = |sc: &Scenario| {
            let id = CellId::of(sc);
            let next = runs.len();
            let i = *run_of.entry(id).or_insert(next);
            if i == next {
                runs.push(sc.clone());
            }
            (i, i == next && !cell_ids.contains(&id))
        };
        let mut rows = Vec::new();
        for cell in cells {
            let reference = reference(&cell);
            let (r, listed_first) = intern(&reference);
            if listed_first {
                rows.push((reference, r, r));
            }
            let (c, _) = intern(&cell);
            rows.push((cell, c, r));
        }
        let results = match (&opts.trace_out, trace_name) {
            (Some(path), Some(name)) => {
                let (results, events) = scenario::run_many_traced(&runs, opts.threads);
                let cells: Vec<(String, Vec<bsld_obs::TraceEvent>)> =
                    runs.iter().map(name).zip(events).collect();
                if let Err(e) = bsld_obs::write_chrome_trace(path, &cells) {
                    eprintln!("warning: cannot write trace {}: {e}", path.display());
                }
                results
            }
            _ => scenario::run_many(&runs, opts.threads),
        };
        let results = results
            .into_iter()
            // audit:allow(R1): the studies generate workloads sized to their machines, under feasible caps
            .map(|res| res.expect("a paper study cell runs"))
            .collect();
        Study { results, rows }
    }

    /// The table, row by row.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.rows.iter().map(|(cell, c, r)| Row {
            cell,
            result: &self.results[*c],
            reference: &self.results[*r],
        })
    }
}

impl<'a> Row<'a> {
    /// Whether the row is its own reference.
    pub fn is_reference(&self) -> bool {
        std::ptr::eq(self.result, self.reference)
    }

    /// The cell's metrics.
    pub fn metrics(&self) -> &'a RunMetrics {
        &self.result.run.metrics
    }

    /// Computational energy normalised to the reference's.
    pub fn norm_e_comp(&self) -> f64 {
        let base = &self.reference.run.metrics.energy;
        self.metrics().energy.normalized_computational(base)
    }

    /// Idle-aware energy normalised to the reference's.
    pub fn norm_e_idle(&self) -> f64 {
        let base = &self.reference.run.metrics.energy;
        self.metrics().energy.normalized_with_idle(base)
    }

    /// The workload's display name (`SDSCBlue`); `SWF` for a replay.
    pub fn workload(&self) -> &'static str {
        match self.cell.workload {
            WorkloadSpec::Synthetic { profile, .. } => profile.display_name(),
            WorkloadSpec::Swf { .. } => "SWF",
        }
    }

    /// The BSLD-threshold policy's parameters (`None` for a fixed gear).
    pub fn config(&self) -> Option<PowerAwareConfig> {
        match self.cell.policy {
            PolicySpec::BsldThreshold { th, wq } => Some(PowerAwareConfig {
                bsld_threshold: th,
                wq_threshold: wq,
            }),
            _ => None,
        }
    }
}

/// Writes `name.csv` into the experiment's out dir (if any), returning the
/// written path.
pub(crate) fn write_artifact(
    opts: &ExpOptions,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = &opts.out_dir else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::fs::File::create(&path)?;
    bsld_metrics::write_csv(&mut file, headers, rows)?;
    Ok(Some(path))
}

/// Formats a float with `digits` decimals (CSV/tables).
pub(crate) fn fmt(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_scale() {
        let o = ExpOptions::default();
        assert_eq!(o.seed, 2010);
        assert_eq!(o.jobs, 5000);
        assert!(o.out_dir.is_some());
    }

    #[test]
    fn a_study_lists_its_reference_first_unless_a_cell_is_it() {
        let head = "workload = synthetic\nprofile = blue\njobs = 9\nseed = 9\n";
        let opts = ExpOptions::quick(150);
        let policies = format!("{head}sweep.policy = baseline bsld:3/NO\n");
        let sizes = format!("{head}policy = bsld:3/NO\nsweep.enlarge_pct = 0 50\n");
        let s = Study::run(&[&policies, &sizes], &opts, None);
        let rows: Vec<Row> = s.rows().collect();
        // The baseline cell is the reference: no extra row, and the
        // `enlarge_pct = 0` cell of the second file reuses the first run.
        assert_eq!(rows.len(), 4);
        assert!(rows[0].is_reference() && !rows[1].is_reference());
        assert!(std::ptr::eq(rows[1].result, rows[2].result));
        assert_eq!(s.results.len(), 3);
        for r in &rows {
            assert!(std::ptr::eq(r.reference, rows[0].result));
            assert_eq!((r.metrics().jobs, r.workload()), (150, "SDSCBlue"));
        }
        let (base, dvfs, bigger) = (rows[0].metrics(), rows[1].metrics(), rows[3].metrics());
        assert_eq!(base.reduced_jobs, 0);
        assert!(dvfs.reduced_jobs > 0);
        assert!(bigger.avg_wait_secs <= dvfs.avg_wait_secs);
        assert_eq!(rows[0].norm_e_comp(), 1.0);

        // Without a baseline cell the reference leads the table.
        let s = Study::run(&[&sizes], &opts, None);
        let rows: Vec<Row> = s.rows().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].is_reference() && rows[0].config().is_none());
        assert_eq!(rows[0].cell.cluster.enlarge_pct, 0);
        assert!(rows[1..].iter().all(|r| r.config().is_some()));
    }

    #[test]
    fn a_reference_keeps_the_workload_and_observe_only() {
        let mut cell = Scenario::synthetic("c", ProfileName::Sdsc, 70, 4);
        cell.policy = PolicySpec::from(PowerAwareConfig::medium());
        cell.cluster.enlarge_pct = 50;
        cell.power.observe = true;
        cell.power.cap_fraction = Some(0.6);
        let mut want = Scenario::synthetic("reference", ProfileName::Sdsc, 70, 4);
        want.power.observe = true;
        assert_eq!(reference(&cell), want);
    }

    #[test]
    fn write_artifact_noop_without_dir() {
        let opts = ExpOptions::quick(10);
        let p = write_artifact(&opts, "x", &["a"], &[]).unwrap();
        assert!(p.is_none());
    }

    #[test]
    fn fmt_digits() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(1.0, 0), "1");
    }
}
