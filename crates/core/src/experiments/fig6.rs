//! Figure 6 — SDSC-Blue wait-time behaviour over time.
//!
//! The paper plots per-job wait time for a stretch of the SDSC-Blue
//! workload, comparing the original schedule against the power-aware
//! scheduler at `BSLD_threshold = 2`, `WQ_threshold = 16`, and observes the
//! DVFS run waiting visibly longer. This experiment produces the same two
//! series, aligned by job.

use bsld_metrics::series::wait_series;
use bsld_metrics::TextTable;

use super::{fmt, write_artifact, ExpOptions, Study};

/// The study: `paper/fig6.scn`.
const FILE: &str = include_str!("../../../../paper/fig6.scn");

/// The two aligned wait series.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `(arrival_secs, wait_secs)` per job, baseline run.
    pub orig: Vec<(u64, u64)>,
    /// Same jobs under `BSLD_threshold = 2`, `WQ_threshold = 16`.
    pub dvfs: Vec<(u64, u64)>,
}

/// Runs both SDSC-Blue cells of the study: the baseline, then the policy.
pub fn run(opts: &ExpOptions) -> Fig6 {
    let study = Study::run(&[FILE], opts, None);
    let mut series = study.rows().map(|r| wait_series(&r.result.run.outcomes));
    Fig6 {
        orig: series.next().unwrap_or_default(),
        dvfs: series.next().unwrap_or_default(),
    }
}

impl Fig6 {
    /// Mean wait of each series (summary shown with the figure).
    pub fn mean_waits(&self) -> (f64, f64) {
        let mean = |s: &[(u64, u64)]| {
            if s.is_empty() {
                0.0
            } else {
                s.iter().map(|&(_, w)| w as f64).sum::<f64>() / s.len() as f64
            }
        };
        (mean(&self.orig), mean(&self.dvfs))
    }

    /// Renders a textual zoom: a few windows of the series plus the means.
    pub fn render(&self) -> String {
        let (mo, md) = self.mean_waits();
        let mut t = TextTable::new(vec![
            "job#",
            "arrival(s)",
            "wait orig(s)",
            "wait DVFS_2_16(s)",
        ]);
        // Sample every nth job to keep the text digestible (the CSV holds
        // the full series).
        let n = self.orig.len().max(1);
        let step = (n / 40).max(1);
        for i in (0..self.orig.len().min(self.dvfs.len())).step_by(step) {
            t.row(vec![
                i.to_string(),
                self.orig[i].0.to_string(),
                self.orig[i].1.to_string(),
                self.dvfs[i].1.to_string(),
            ]);
        }
        format!(
            "Figure 6: SDSCBlue wait time, original vs DVFS(BSLDth=2, WQ=16)\n{}\nmean wait: orig = {} s, DVFS_2_16 = {} s\n",
            t.render(),
            fmt(mo, 0),
            fmt(md, 0),
        )
    }

    /// Writes `fig6_wait_series.csv` (full series).
    pub fn write_csv(&self, opts: &ExpOptions) -> std::io::Result<Option<std::path::PathBuf>> {
        let rows: Vec<Vec<String>> = self
            .orig
            .iter()
            .zip(&self.dvfs)
            .enumerate()
            .map(|(i, (&(arr, wo), &(_, wd)))| {
                vec![
                    i.to_string(),
                    arr.to_string(),
                    wo.to_string(),
                    wd.to_string(),
                ]
            })
            .collect();
        write_artifact(
            opts,
            "fig6_wait_series",
            &["job_index", "arrival_s", "wait_orig_s", "wait_dvfs_2_16_s"],
            &rows,
        )
    }
}
