//! Table 1 — workload characteristics and baseline average BSLD.
//!
//! The paper's Table 1 lists, per workload: the machine size, the simulated
//! job count and the average BSLD when no DVFS is used. This experiment
//! regenerates those rows from the calibrated profiles and additionally
//! reports the average wait (the paper's Table 3 first column), making the
//! calibration quality visible in one place.

use bsld_metrics::TextTable;

use super::{fmt, write_artifact, ExpOptions, Row, Study};

/// The study: `paper/table1.scn`.
const FILE: &str = include_str!("../../../../paper/table1.scn");

/// Paper-reported reference values for the five workloads.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Workload name.
    pub name: &'static str,
    /// Machine size.
    pub cpus: u32,
    /// Table 1 average BSLD without DVFS.
    pub avg_bsld: f64,
    /// Table 3 average wait without DVFS, seconds.
    pub avg_wait: f64,
}

const fn paper(name: &'static str, cpus: u32, avg_bsld: f64, avg_wait: f64) -> PaperRow {
    PaperRow {
        name,
        cpus,
        avg_bsld,
        avg_wait,
    }
}

/// The paper's Table 1 + Table 3 baseline column.
pub const PAPER_BASELINES: [PaperRow; 5] = [
    paper("CTC", 430, 4.66, 7107.0),
    paper("SDSC", 128, 24.91, 36001.0),
    paper("SDSCBlue", 1152, 5.15, 4798.0),
    paper("LLNLThunder", 4008, 1.0, 0.0),
    paper("LLNLAtlas", 9216, 1.08, 69.0),
];

/// Runs the five baselines; each cell is its own reference.
pub fn run(opts: &ExpOptions) -> Study {
    Study::run(&[FILE], opts, None)
}

/// The rows of Table 1, each with the paper's values for its workload.
pub fn rows(t: &Study) -> impl Iterator<Item = (Row<'_>, &'static PaperRow)> {
    t.rows().filter_map(|r| {
        let paper = PAPER_BASELINES.iter().find(|p| p.name == r.workload())?;
        Some((r, paper))
    })
}

/// Renders the table with paper-vs-measured columns.
pub fn render(t: &Study) -> String {
    let mut table = TextTable::new(vec![
        "Workload",
        "#CPUs",
        "Jobs",
        "AvgBSLD",
        "paper",
        "AvgWait(s)",
        "paper",
        "Util",
    ]);
    for (r, paper) in rows(t) {
        let m = r.metrics();
        table.row(vec![
            paper.name.to_string(),
            paper.cpus.to_string(),
            m.jobs.to_string(),
            fmt(m.avg_bsld, 2),
            fmt(paper.avg_bsld, 2),
            fmt(m.avg_wait_secs, 0),
            fmt(paper.avg_wait, 0),
            fmt(m.utilization, 3),
        ]);
    }
    format!(
        "Table 1: workloads, baseline (EASY, no DVFS)\n{}",
        table.render()
    )
}

/// Writes `table1.csv`.
pub fn write_csv(t: &Study, opts: &ExpOptions) -> std::io::Result<Option<std::path::PathBuf>> {
    let rows: Vec<Vec<String>> = rows(t)
        .map(|(r, paper)| {
            let m = r.metrics();
            vec![
                paper.name.to_string(),
                paper.cpus.to_string(),
                m.jobs.to_string(),
                fmt(m.avg_bsld, 4),
                fmt(paper.avg_bsld, 4),
                fmt(m.avg_wait_secs, 1),
                fmt(paper.avg_wait, 1),
                fmt(m.utilization, 4),
            ]
        })
        .collect();
    write_artifact(
        opts,
        "table1",
        &[
            "workload",
            "cpus",
            "jobs",
            "avg_bsld",
            "paper_avg_bsld",
            "avg_wait_s",
            "paper_avg_wait_s",
            "utilization",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baselines_cover_five_workloads() {
        assert_eq!(PAPER_BASELINES.len(), 5);
        assert_eq!(PAPER_BASELINES[1].avg_bsld, 24.91);
    }

    #[test]
    fn small_scale_table1_has_all_rows() {
        // Scaled-down smoke run: 5 workloads at 60 jobs each.
        let t = run(&ExpOptions::quick(60));
        assert_eq!(rows(&t).count(), 5);
        for (r, paper) in rows(&t) {
            assert!(r.is_reference());
            assert_eq!(r.metrics().jobs, 60);
            assert!(r.metrics().avg_bsld >= 1.0);
            let profile = crate::scenario::ProfileName::parse(paper.name).unwrap();
            assert_eq!(profile.profile().cpus, paper.cpus);
        }
        let text = render(&t);
        assert!(text.contains("CTC"));
        assert!(text.contains("LLNLAtlas"));
    }
}
