//! Beyond-paper ablations (DESIGN.md §6).
//!
//! These studies exercise the paper's stated future work and the design
//! choices the reproduction had to make:
//!
//! * [`boost`] — the dynamic-boost extension: raise running reduced jobs to
//!   the top gear when the queue deepens;
//! * [`beta`] — per-job β instead of the global β = 0.5;
//! * [`fcfs`] — the scheduling substrate ablation: EASY vs. plain FCFS;
//! * [`gears`] — gear-set granularity: 2, 3, 6 (paper) and 12 gears.
//!
//! Every variant is a declarative [`scenario::Scenario`]; a study is a
//! labelled scenario list run in parallel through
//! [`scenario::run_many`].

use bsld_metrics::TextTable;
use bsld_workload::profiles::BetaSpec;

use super::{expect_run, fmt, write_artifact, ExpOptions};
use crate::policy::PowerAwareConfig;
use crate::scenario::{self, GearSpec, PolicySpec, ProfileName, Scenario, WorkloadSpec};

/// One ablation row: a labelled variant against the shared baseline.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Normalized computational energy (vs. the study's EASY no-DVFS
    /// baseline).
    pub norm_e_comp: f64,
    /// Average BSLD.
    pub avg_bsld: f64,
    /// Average wait, seconds.
    pub avg_wait: f64,
    /// Reduced jobs.
    pub reduced_jobs: usize,
}

/// A labelled ablation study.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Study name (used for the CSV artifact).
    pub name: String,
    /// Rows, baseline first.
    pub rows: Vec<AblationRow>,
}

impl Ablation {
    /// Renders the study as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Variant",
            "E(idle=0)",
            "AvgBSLD",
            "AvgWait(s)",
            "Reduced",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.variant.clone(),
                fmt(r.norm_e_comp, 3),
                fmt(r.avg_bsld, 2),
                fmt(r.avg_wait, 0),
                r.reduced_jobs.to_string(),
            ]);
        }
        format!("Ablation — {}\n{}", self.name, t.render())
    }

    /// Writes `ablation_<name>.csv`.
    pub fn write_csv(&self, opts: &ExpOptions) -> std::io::Result<Option<std::path::PathBuf>> {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    fmt(r.norm_e_comp, 5),
                    fmt(r.avg_bsld, 4),
                    fmt(r.avg_wait, 1),
                    r.reduced_jobs.to_string(),
                ]
            })
            .collect();
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
            &rows,
        )
    }

    /// Looks a row up by label.
    pub fn row(&self, variant: &str) -> Option<&AblationRow> {
        self.rows.iter().find(|r| r.variant == variant)
    }
}

/// Runs a labelled scenario list (baseline first) and assembles the study:
/// every row is normalised against row 0's energy.
fn run_study(name: &str, variants: Vec<(String, Scenario)>, threads: usize) -> Ablation {
    let scenarios: Vec<Scenario> = variants.iter().map(|(_, sc)| sc.clone()).collect();
    let metrics: Vec<bsld_metrics::RunMetrics> = scenario::run_many(&scenarios, threads)
        .into_iter()
        .map(|res| expect_run(res).run.metrics)
        .collect();
    let base = metrics[0].clone();
    let rows = variants
        .into_iter()
        .zip(&metrics)
        .map(|((label, _), m)| AblationRow {
            variant: label,
            norm_e_comp: m.energy.normalized_computational(&base.energy),
            avg_bsld: m.avg_bsld,
            avg_wait: m.avg_wait_secs,
            reduced_jobs: m.reduced_jobs,
        })
        .collect();
    Ablation {
        name: name.into(),
        rows,
    }
}

/// The study's shared base: an SDSC-Blue scenario at the experiment scale.
fn blue_base(opts: &ExpOptions, label: &str) -> Scenario {
    Scenario::synthetic(label, ProfileName::SdscBlue, opts.jobs, opts.seed)
}

fn medium_policy() -> PolicySpec {
    PolicySpec::from(PowerAwareConfig::medium())
}

/// Dynamic boost (paper future work): SDSC-Blue, `BSLDth = 2`, `WQ = NO`,
/// with boost limits ∞ (off), 16, 4 and 0.
pub fn boost(opts: &ExpOptions) -> Ablation {
    let mut variants = vec![("EASY-no-DVFS".to_string(), blue_base(opts, "boost-base"))];
    for (label, limit) in [
        ("no-boost", None),
        ("boost@16", Some(16)),
        ("boost@4", Some(4)),
        ("boost@0", Some(0)),
    ] {
        let mut sc = blue_base(opts, label);
        sc.policy = medium_policy();
        sc.power.boost = limit;
        variants.push((label.to_string(), sc));
    }
    run_study("boost", variants, opts.threads)
}

/// Per-job β (paper future work): fixed 0.5 vs. uniform spreads.
pub fn beta(opts: &ExpOptions) -> Ablation {
    let specs: Vec<(&str, BetaSpec)> = vec![
        ("beta=0.5", BetaSpec::Fixed(0.5)),
        (
            "beta=0.5±0.2",
            BetaSpec::PerJob {
                mean: 0.5,
                spread: 0.2,
            },
        ),
        (
            "beta=0.5±0.4",
            BetaSpec::PerJob {
                mean: 0.5,
                spread: 0.4,
            },
        ),
        ("beta=0.3", BetaSpec::Fixed(0.3)),
        ("beta=0.8", BetaSpec::Fixed(0.8)),
    ];
    let mut variants = vec![("EASY-no-DVFS".to_string(), blue_base(opts, "beta-base"))];
    for (label, spec) in specs {
        let mut sc = blue_base(opts, label);
        sc.policy = medium_policy();
        if let WorkloadSpec::Synthetic { beta, .. } = &mut sc.workload {
            *beta = Some(spec);
        }
        variants.push((label.to_string(), sc));
    }
    run_study("beta", variants, opts.threads)
}

/// Scheduling substrate: EASY vs. conservative backfilling vs. plain FCFS
/// (no backfilling), each with and without the power-aware policy.
pub fn fcfs(opts: &ExpOptions) -> Ablation {
    use bsld_sched::SchedMode;
    let mut variants = Vec::new();
    for (label, mode, backfill, dvfs) in [
        ("EASY", SchedMode::Easy, true, false),
        ("EASY+DVFS", SchedMode::Easy, true, true),
        ("CONS", SchedMode::Conservative, true, false),
        ("CONS+DVFS", SchedMode::Conservative, true, true),
        ("FCFS", SchedMode::Easy, false, false),
        ("FCFS+DVFS", SchedMode::Easy, false, true),
    ] {
        let mut sc = blue_base(opts, label);
        sc.engine.mode = mode;
        sc.engine.backfill = backfill;
        if dvfs {
            sc.policy = medium_policy();
        }
        variants.push((label.to_string(), sc));
    }
    run_study("fcfs", variants, opts.threads)
}

/// Resource selection: First Fit (paper) vs. Last Fit vs. contiguous
/// First Fit, under the no-DVFS baseline and the medium policy. Contiguous
/// selection exposes fragmentation: jobs wait even when enough processors
/// are free.
pub fn selection(opts: &ExpOptions) -> Ablation {
    use bsld_cluster::SelectionPolicy;
    let mut variants = Vec::new();
    for (label, sel, dvfs) in [
        ("FirstFit (paper)", SelectionPolicy::FirstFit, false),
        ("FirstFit+DVFS", SelectionPolicy::FirstFit, true),
        ("LastFit", SelectionPolicy::LastFit, false),
        ("LastFit+DVFS", SelectionPolicy::LastFit, true),
        ("Contiguous", SelectionPolicy::ContiguousFirstFit, false),
        ("Contiguous+DVFS", SelectionPolicy::ContiguousFirstFit, true),
    ] {
        let mut sc = Scenario::synthetic(label, ProfileName::Ctc, opts.jobs, opts.seed);
        sc.engine.selection = sel;
        if dvfs {
            sc.policy = medium_policy();
        }
        variants.push((label.to_string(), sc));
    }
    run_study("selection", variants, opts.threads)
}

/// Gear-set granularity: 2, 3, 6 (paper) and 12 gears spanning the same
/// frequency/voltage range.
pub fn gears(opts: &ExpOptions) -> Ablation {
    let mut variants = vec![("EASY-no-DVFS".to_string(), blue_base(opts, "gears-base"))];
    for (label, spec) in [
        ("2 gears", GearSpec::Interpolated(2)),
        ("3 gears", GearSpec::Interpolated(3)),
        ("6 gears (paper)", GearSpec::Paper),
        ("12 gears", GearSpec::Interpolated(12)),
    ] {
        let mut sc = blue_base(opts, label);
        sc.cluster.gears = spec;
        sc.policy = medium_policy();
        variants.push((label.to_string(), sc));
    }
    run_study("gears", variants, opts.threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boost_improves_bsld_over_no_boost() {
        let a = boost(&ExpOptions::quick(200));
        assert_eq!(a.rows.len(), 5);
        let no = a.row("no-boost").unwrap();
        let aggressive = a.row("boost@0").unwrap();
        assert!(
            aggressive.avg_bsld <= no.avg_bsld + 1e-9,
            "boost must not worsen BSLD: {} vs {}",
            aggressive.avg_bsld,
            no.avg_bsld
        );
        assert!(aggressive.norm_e_comp >= no.norm_e_comp - 1e-9);
    }

    #[test]
    fn fcfs_is_worse_than_easy() {
        let a = fcfs(&ExpOptions::quick(200));
        let easy = a.row("EASY").unwrap();
        let cons = a.row("CONS").unwrap();
        let fcfs_row = a.row("FCFS").unwrap();
        assert!(fcfs_row.avg_wait >= easy.avg_wait);
        assert!(
            fcfs_row.avg_wait >= cons.avg_wait,
            "conservative still backfills"
        );
    }

    #[test]
    fn selection_ablation_contiguous_not_better() {
        let a = selection(&ExpOptions::quick(200));
        assert_eq!(a.rows.len(), 6);
        let ff = a.row("FirstFit (paper)").unwrap();
        let contig = a.row("Contiguous").unwrap();
        assert!(
            contig.avg_wait >= ff.avg_wait - 1.0,
            "fragmentation cannot shorten waits: {} vs {}",
            contig.avg_wait,
            ff.avg_wait
        );
        // Non-contiguous policies are schedule-equivalent (processor
        // identity does not matter to count-based scheduling).
        let lf = a.row("LastFit").unwrap();
        assert!((lf.avg_wait - ff.avg_wait).abs() < 1e-9);
        assert!((lf.avg_bsld - ff.avg_bsld).abs() < 1e-9);
    }

    #[test]
    fn more_gears_never_hurt_energy() {
        let a = gears(&ExpOptions::quick(150));
        let g2 = a.row("2 gears").unwrap().norm_e_comp;
        let g12 = a.row("12 gears").unwrap().norm_e_comp;
        // Finer gear sets give the policy strictly more options; with the
        // β=0.5 efficiency ordering they can only match or improve energy.
        assert!(g12 <= g2 + 0.02, "12 gears {g12} vs 2 gears {g2}");
    }

    #[test]
    fn beta_study_runs() {
        let a = beta(&ExpOptions::quick(120));
        assert_eq!(a.rows.len(), 6);
        assert!(a.render().contains("beta"));
    }
}
