//! Beyond-paper ablations (DESIGN.md §6).
//!
//! These studies exercise the paper's stated future work and the design
//! choices the reproduction had to make, one study file each under
//! `paper/`:
//!
//! * `boost` — the dynamic-boost extension: raise running reduced jobs to
//!   the top gear when the queue deepens;
//! * `beta` — per-job β instead of the global β = 0.5;
//! * `fcfs` — the scheduling substrate: EASY vs. conservative backfilling
//!   (`fcfs.scn`) vs. plain FCFS (`fcfs_nobackfill.scn`);
//! * `gears` — gear-set granularity: 2, 3, 6 (paper) and 12 gears;
//! * `selection` — First Fit (paper) vs. Last Fit vs. contiguous First
//!   Fit; contiguous selection exposes fragmentation.
//!
//! Every row is normalised against its reference, the study's EASY no-DVFS
//! baseline, which the table lists first.

use bsld_cluster::SelectionPolicy;
use bsld_metrics::TextTable;
use bsld_sched::SchedMode;
use bsld_workload::profiles::BetaSpec;

use super::{fmt, write_artifact, ExpOptions, Row, Study};
use crate::scenario::{GearSpec, PolicySpec, Scenario, WorkloadSpec};

/// Every ablation, in print order: its name and its study files.
const STUDIES: [(&str, &[&str]); 5] = [
    ("boost", &[include_str!("../../../../paper/boost.scn")]),
    ("beta", &[include_str!("../../../../paper/beta.scn")]),
    (
        "fcfs",
        &[
            include_str!("../../../../paper/fcfs.scn"),
            include_str!("../../../../paper/fcfs_nobackfill.scn"),
        ],
    ),
    ("gears", &[include_str!("../../../../paper/gears.scn")]),
    (
        "selection",
        &[include_str!("../../../../paper/selection.scn")],
    ),
];

/// A labelled ablation study.
#[derive(Debug)]
pub struct Ablation {
    /// Study name (used for the CSV artifact).
    pub name: &'static str,
    /// The study's rows, reference first.
    pub study: Study,
}

/// Runs the ablation `name` (`None` for an unknown name).
pub fn run(name: &str, opts: &ExpOptions) -> Option<Ablation> {
    let &(name, files) = STUDIES.iter().find(|(n, _)| *n == name)?;
    Some(Ablation {
        name,
        study: Study::run(files, opts, None),
    })
}

/// Runs every ablation, in print order.
pub fn all(opts: &ExpOptions) -> Vec<Ablation> {
    STUDIES
        .iter()
        .filter_map(|(name, _)| run(name, opts))
        .collect()
}

/// A row's label in the ablation `study`: the variant it sets apart.
fn label(study: &str, sc: &Scenario) -> String {
    let dvfs = sc.policy != PolicySpec::Baseline;
    let plus = if dvfs { "+DVFS" } else { "" };
    match study {
        "fcfs" => {
            let substrate = match (sc.engine.backfill, sc.engine.mode) {
                (false, _) => "FCFS",
                (true, SchedMode::Conservative) => "CONS",
                (true, SchedMode::Easy) => "EASY",
            };
            format!("{substrate}{plus}")
        }
        "selection" => match sc.engine.selection {
            SelectionPolicy::FirstFit if !dvfs => "FirstFit (paper)".into(),
            SelectionPolicy::FirstFit => format!("FirstFit{plus}"),
            SelectionPolicy::LastFit => format!("LastFit{plus}"),
            SelectionPolicy::ContiguousFirstFit => format!("Contiguous{plus}"),
        },
        _ if !dvfs => "EASY-no-DVFS".into(),
        "boost" => sc
            .power
            .boost
            .map_or_else(|| "no-boost".into(), |n| format!("boost@{n}")),
        "beta" => match sc.workload {
            WorkloadSpec::Synthetic {
                beta: Some(BetaSpec::PerJob { mean, spread }),
                ..
            } => format!("beta={mean}±{spread}"),
            WorkloadSpec::Synthetic {
                beta: Some(BetaSpec::Fixed(b)),
                ..
            } => format!("beta={b}"),
            _ => "beta".into(),
        },
        _ => match sc.cluster.gears {
            GearSpec::Paper => "6 gears (paper)".into(),
            GearSpec::Interpolated(n) => format!("{n} gears"),
        },
    }
}

impl Ablation {
    /// The rows with their labels, reference first.
    pub fn rows(&self) -> impl Iterator<Item = (String, Row<'_>)> {
        self.study.rows().map(|r| (label(self.name, r.cell), r))
    }

    /// Looks a row up by label.
    pub fn row(&self, variant: &str) -> Option<Row<'_>> {
        self.rows().find(|(l, _)| l == variant).map(|(_, r)| r)
    }

    /// Renders the study as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Variant",
            "E(idle=0)",
            "AvgBSLD",
            "AvgWait(s)",
            "Reduced",
        ]);
        for row in self.fields(&[3, 2, 0]) {
            t.row(row);
        }
        format!("Ablation — {}\n{}", self.name, t.render())
    }

    /// Label, normalised energy, BSLD, wait and reduced jobs, the three
    /// floats at `digits`.
    fn fields(&self, digits: &[usize; 3]) -> Vec<Vec<String>> {
        self.rows()
            .map(|(label, r)| {
                let m = r.metrics();
                vec![
                    label,
                    fmt(r.norm_e_comp(), digits[0]),
                    fmt(m.avg_bsld, digits[1]),
                    fmt(m.avg_wait_secs, digits[2]),
                    m.reduced_jobs.to_string(),
                ]
            })
            .collect()
    }

    /// Writes `ablation_<name>.csv`.
    pub fn write_csv(&self, opts: &ExpOptions) -> std::io::Result<Option<std::path::PathBuf>> {
        write_artifact(
            opts,
            &format!("ablation_{}", self.name),
            &[
                "variant",
                "norm_energy_idle0",
                "avg_bsld",
                "avg_wait_s",
                "reduced_jobs",
            ],
            &self.fields(&[5, 4, 1]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ablation_labels_its_rows_reference_first() {
        let opts = ExpOptions::quick(60);
        let labels: Vec<String> = all(&opts)
            .iter()
            .map(|a| a.rows().map(|(l, _)| l).collect::<Vec<_>>().join(", "))
            .collect();
        assert_eq!(
            labels,
            [
                "EASY-no-DVFS, no-boost, boost@16, boost@4, boost@0",
                "EASY-no-DVFS, beta=0.5, beta=0.5±0.2, beta=0.5±0.4, beta=0.3, beta=0.8",
                "EASY, EASY+DVFS, CONS, CONS+DVFS, FCFS, FCFS+DVFS",
                "EASY-no-DVFS, 2 gears, 3 gears, 6 gears (paper), 12 gears",
                "FirstFit (paper), FirstFit+DVFS, LastFit, LastFit+DVFS, Contiguous, \
                 Contiguous+DVFS",
            ]
        );
        let beta = run("beta", &opts).unwrap();
        assert!(beta.render().contains("beta"));
        assert_eq!(beta.row("EASY-no-DVFS").unwrap().norm_e_comp(), 1.0);
        assert!(run("nope", &opts).is_none());
    }
}
