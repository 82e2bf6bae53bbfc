//! The experiment harness: one module per table/figure of the paper.
//!
//! | Module | Reproduces |
//! |--------|------------|
//! | [`table1`] | Table 1 — workload characteristics & baseline avg BSLD |
//! | [`grid`] | Figures 3, 4, 5 — the original-size parameter grid |
//! | [`fig6`] | Figure 6 — SDSC-Blue wait-time series |
//! | [`enlarged`] | Figures 7, 8, 9 and Table 3 — enlarged systems |
//! | [`ablation`] | Beyond-paper ablations (boost, per-job β, FCFS, gears) |
//! | [`powercap`] | Beyond-paper: power-cap levels × BSLD thresholds frontier |
//!
//! Every experiment follows the same shape: a `run(&ExpOptions)` entry point
//! that fans the independent simulations out over [`bsld_par::par_map`],
//! a typed result, a `render()` text report and a `write_csv()` artifact
//! writer.

pub mod ablation;
pub mod enlarged;
pub mod fig6;
pub mod grid;
pub mod powercap;
pub mod table1;

use std::path::PathBuf;

#[cfg(test)]
use bsld_metrics::RunMetrics;

use crate::policy::PowerAwareConfig;
use crate::scenario::{PolicySpec, ProfileName, Scenario, ScenarioResult};

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

/// The per-cell scenario shared by the sweeps: a synthetic workload at the
/// experiment's scale, an optionally enlarged machine, baseline or the
/// power-aware policy.
pub(crate) fn cell_scenario(
    profile: ProfileName,
    opts: &ExpOptions,
    size_increase_pct: u32,
    cfg: Option<&PowerAwareConfig>,
) -> Scenario {
    let mut sc = Scenario::synthetic(
        format!("{}-x{}", profile.key(), size_increase_pct),
        profile,
        opts.jobs,
        opts.seed,
    );
    sc.cluster.enlarge_pct = size_increase_pct;
    sc.policy = match cfg {
        None => PolicySpec::Baseline,
        Some(c) => PolicySpec::from(*c),
    };
    sc
}

/// Unwraps a scenario result the sweeps expect to succeed.
pub(crate) fn expect_run(
    res: Result<ScenarioResult, crate::scenario::ScenarioError>,
) -> ScenarioResult {
    // audit:allow(R1): generated workloads are sized to their machine; failure is a harness bug
    res.expect("generated workloads always fit their machine")
}

/// The per-cell work unit shared by the sweeps, driven entirely through
/// the declarative [`Scenario`] API.
#[cfg(test)]
pub(crate) fn run_cell(
    profile: ProfileName,
    opts: &ExpOptions,
    size_increase_pct: u32,
    cfg: Option<&PowerAwareConfig>,
) -> RunMetrics {
    let sc = cell_scenario(profile, opts, size_increase_pct, cfg);
    expect_run(sc.run(&crate::scenario::RunCtx::default()))
        .run
        .metrics
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
    use crate::policy::WqThreshold;

    #[test]
    fn defaults_match_paper_scale() {
        let o = ExpOptions::default();
        assert_eq!(o.seed, 2010);
        assert_eq!(o.jobs, 5000);
        assert!(o.out_dir.is_some());
    }

    #[test]
    fn run_cell_baseline_and_policy() {
        let profile = ProfileName::SdscBlue;
        let opts = ExpOptions::quick(150);
        let base = run_cell(profile, &opts, 0, None);
        assert_eq!(base.jobs, 150);
        assert_eq!(base.reduced_jobs, 0);
        let cfg = PowerAwareConfig {
            bsld_threshold: 3.0,
            wq_threshold: WqThreshold::NoLimit,
        };
        let dvfs = run_cell(profile, &opts, 0, Some(&cfg));
        assert!(dvfs.reduced_jobs > 0);
        let bigger = run_cell(profile, &opts, 50, Some(&cfg));
        assert!(bigger.avg_wait_secs <= dvfs.avg_wait_secs);
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
