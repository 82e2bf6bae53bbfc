//! Beyond-paper experiment: the energy/BSLD frontier under cluster power
//! caps.
//!
//! For every workload, sweep hard-cap levels (fractions of the machine's
//! peak draw) × the paper's `BSLD_threshold` values, with the default idle
//! sleep ladder enabled, and compare each cell's *ledger* energy (the
//! exact `∫ P dt`, wake penalties included) and average BSLD against the
//! uncapped no-DVFS baseline of the same workload. The result is the
//! trade-off frontier a power-constrained center actually navigates: how
//! much energy a budget saves and what it costs in job slowdown.

use bsld_metrics::TextTable;

use super::{cell_scenario, fmt, write_artifact, ExpOptions};
use crate::policy::{PowerAwareConfig, WqThreshold};
use crate::scenario::{self, ProfileName, SleepSpec};

/// The swept cap levels, as fractions of peak draw. `1.0` effectively
/// disables the budget (the machine can never exceed its peak) and
/// isolates the effect of sleep states + DVFS.
pub const CAP_FRACTIONS: [f64; 4] = [0.45, 0.6, 0.8, 1.0];

/// The swept `BSLD_threshold` values (the paper's set).
pub const BSLD_THRESHOLDS: [f64; 3] = [1.5, 2.0, 3.0];

/// One sweep cell.
#[derive(Debug, Clone)]
pub struct CapCell {
    /// Workload name.
    pub workload: String,
    /// Cap level as a fraction of peak draw.
    pub cap_fraction: f64,
    /// `BSLD_threshold` of the DVFS policy running under the cap.
    pub bsld_threshold: f64,
    /// Ledger energy normalised to the workload's uncapped no-DVFS
    /// baseline ledger energy.
    pub norm_energy: f64,
    /// Average BSLD of the capped run.
    pub avg_bsld: f64,
    /// Peak draw observed, as a fraction of the configured budget.
    pub peak_over_budget: f64,
    /// Budget-denied admissions, counted per scheduling pass (sustained
    /// pressure, not distinct jobs — see `bsld_powercap::CapStats`).
    pub deferrals: u64,
    /// Starts admitted at a lower gear than the policy chose.
    pub downgears: u64,
    /// Processor wakes from sleep states.
    pub wakes: u64,
    /// Makespan of the capped run, seconds.
    pub makespan_s: u64,
}

/// Per-workload uncapped baseline.
#[derive(Debug, Clone)]
pub struct CapBaseline {
    /// Workload name.
    pub workload: String,
    /// Ledger energy of the uncapped, no-DVFS, no-sleep run.
    pub energy: f64,
    /// Its average BSLD.
    pub avg_bsld: f64,
}

/// The sweep: all cells plus the baselines they were normalised against.
#[derive(Debug, Clone)]
pub struct CapSweep {
    /// Cells, workload-major, then cap level, then threshold.
    pub cells: Vec<CapCell>,
    /// Uncapped baselines, paper workload order.
    pub baselines: Vec<CapBaseline>,
}

/// Runs the sweep over the paper's five workloads, every cell a
/// power-instrumented declarative [`scenario::Scenario`].
pub fn run(opts: &ExpOptions) -> CapSweep {
    // (profile, Option<(cap fraction, threshold)>) — None = baseline.
    let mut tasks: Vec<(ProfileName, Option<(f64, f64)>)> = Vec::new();
    for p in ProfileName::ALL {
        tasks.push((p, None));
        for &cap in &CAP_FRACTIONS {
            for &th in &BSLD_THRESHOLDS {
                tasks.push((p, Some((cap, th))));
            }
        }
    }
    let scenarios: Vec<scenario::Scenario> = tasks
        .iter()
        .map(|(p, cell)| {
            let cfg = cell.map(|(_, th)| PowerAwareConfig {
                bsld_threshold: th,
                wq_threshold: WqThreshold::NoLimit,
            });
            let mut sc = cell_scenario(*p, opts, 0, cfg.as_ref());
            sc.power.observe = true;
            if let Some((cap, _)) = cell {
                sc.power.cap_fraction = Some(*cap);
                sc.power.sleep = SleepSpec::Paper;
            }
            sc
        })
        .collect();
    let results = scenario::run_many(&scenarios, opts.threads);

    let mut baselines: Vec<CapBaseline> = Vec::new();
    let mut cells = Vec::new();
    for ((p, cell), res) in tasks.into_iter().zip(results) {
        // audit:allow(R1): swept cap fractions are chosen feasible for generated workloads
        let res = res.expect("cap fractions in the sweep are feasible for generated workloads");
        // audit:allow(R1): observe=true forces power instrumentation on this path
        let power = res.power.expect("instrumented cells report power");
        let run = res.run;
        let name = p.display_name().to_string();
        match cell {
            None => baselines.push(CapBaseline {
                workload: name,
                energy: power.energy,
                avg_bsld: run.metrics.avg_bsld,
            }),
            Some((cap, th)) => {
                let base = baselines
                    .iter()
                    .find(|b| b.workload == name)
                    // audit:allow(R1): scenario list interleaves each baseline before its cells
                    .expect("baseline precedes cells");
                // audit:allow(R1): capped cells always carry a budget by construction
                let budget = power.budget.expect("capped cells have a budget");
                cells.push(CapCell {
                    workload: name,
                    cap_fraction: cap,
                    bsld_threshold: th,
                    norm_energy: power.energy / base.energy,
                    avg_bsld: run.metrics.avg_bsld,
                    peak_over_budget: power.peak / budget,
                    deferrals: power.cap.deferrals,
                    downgears: power.cap.downgears,
                    wakes: power.sleep.wakes,
                    makespan_s: run.metrics.makespan_secs,
                });
            }
        }
    }
    CapSweep { cells, baselines }
}

impl CapSweep {
    /// The cell for an exact parameter combination.
    // The floats compared are sweep-axis literals copied verbatim into the
    // cells, so exact equality is the correct lookup key.
    #[allow(clippy::float_cmp)]
    pub fn cell(&self, workload: &str, cap: f64, th: f64) -> Option<&CapCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.cap_fraction == cap && c.bsld_threshold == th)
    }

    /// The energy/BSLD frontier: for every `(cap, threshold)` pair, the
    /// mean normalised energy and mean BSLD across workloads.
    // Same exact-key argument as `cell` above.
    #[allow(clippy::float_cmp)]
    pub fn frontier(&self) -> Vec<(f64, f64, f64, f64)> {
        let mut out = Vec::new();
        for &cap in &CAP_FRACTIONS {
            for &th in &BSLD_THRESHOLDS {
                let cells: Vec<&CapCell> = self
                    .cells
                    .iter()
                    .filter(|c| c.cap_fraction == cap && c.bsld_threshold == th)
                    .collect();
                if cells.is_empty() {
                    continue;
                }
                let n = cells.len() as f64;
                let e = cells.iter().map(|c| c.norm_energy).sum::<f64>() / n;
                let b = cells.iter().map(|c| c.avg_bsld).sum::<f64>() / n;
                out.push((cap, th, e, b));
            }
        }
        out
    }

    /// Renders the frontier table (the experiment's headline artifact).
    pub fn render_frontier(&self) -> String {
        let mut t = TextTable::new(vec![
            "cap (x peak)".to_string(),
            "BSLDth".to_string(),
            "mean norm energy".to_string(),
            "mean avg BSLD".to_string(),
        ]);
        for (cap, th, e, b) in self.frontier() {
            t.row(vec![fmt(cap, 2), fmt(th, 1), fmt(e, 3), fmt(b, 2)]);
        }
        let mut base = String::from("uncapped no-DVFS baseline avg BSLD: ");
        for (i, b) in self.baselines.iter().enumerate() {
            if i > 0 {
                base.push_str(", ");
            }
            base.push_str(&format!("{}={:.2}", b.workload, b.avg_bsld));
        }
        format!(
            "Power-cap sweep: energy/BSLD trade-off frontier\n\
             (ledger energy incl. idle & wake penalties, normalised per workload)\n{}{}\n",
            t.render(),
            base
        )
    }

    /// Renders the full per-workload grid.
    pub fn render_cells(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload".to_string(),
            "cap".to_string(),
            "BSLDth".to_string(),
            "norm energy".to_string(),
            "avg BSLD".to_string(),
            "peak/budget".to_string(),
            "deferrals".to_string(),
            "downgears".to_string(),
            "wakes".to_string(),
        ]);
        for c in &self.cells {
            t.row(vec![
                c.workload.clone(),
                fmt(c.cap_fraction, 2),
                fmt(c.bsld_threshold, 1),
                fmt(c.norm_energy, 3),
                fmt(c.avg_bsld, 2),
                fmt(c.peak_over_budget, 3),
                c.deferrals.to_string(),
                c.downgears.to_string(),
                c.wakes.to_string(),
            ]);
        }
        format!("Power-cap sweep: all cells\n{}", t.render())
    }

    /// Writes `powercap_sweep.csv`.
    pub fn write_csv(&self, opts: &ExpOptions) -> std::io::Result<Vec<std::path::PathBuf>> {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.workload.clone(),
                    fmt(c.cap_fraction, 2),
                    fmt(c.bsld_threshold, 1),
                    fmt(c.norm_energy, 5),
                    fmt(c.avg_bsld, 4),
                    fmt(c.peak_over_budget, 5),
                    c.deferrals.to_string(),
                    c.downgears.to_string(),
                    c.wakes.to_string(),
                    c.makespan_s.to_string(),
                ]
            })
            .collect();
        let headers = [
            "workload",
            "cap_fraction",
            "bsld_threshold",
            "norm_energy",
            "avg_bsld",
            "peak_over_budget",
            "deferrals",
            "downgears",
            "wakes",
            "makespan_s",
        ];
        let mut written = Vec::new();
        if let Some(p) = write_artifact(opts, "powercap_sweep", &headers, &rows)? {
            written.push(p);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> CapSweep {
        run(&ExpOptions::quick(40))
    }

    #[test]
    fn sweep_is_complete_and_caps_hold() {
        let s = small_sweep();
        assert_eq!(s.baselines.len(), 5);
        assert_eq!(
            s.cells.len(),
            5 * CAP_FRACTIONS.len() * BSLD_THRESHOLDS.len()
        );
        for c in &s.cells {
            assert!(c.norm_energy > 0.0, "{c:?}");
            assert!(c.peak_over_budget <= 1.0 + 1e-9, "hard cap violated: {c:?}");
        }
    }

    #[test]
    fn frontier_covers_every_pair_and_renders() {
        let s = small_sweep();
        assert_eq!(
            s.frontier().len(),
            CAP_FRACTIONS.len() * BSLD_THRESHOLDS.len()
        );
        let f = s.render_frontier();
        assert!(f.contains("frontier"));
        assert!(s.render_cells().contains("CTC"));
    }

    #[test]
    fn tighter_caps_do_not_raise_energy_much() {
        // The frontier must be usable: with sleep states on, every capped
        // cell should save idle-aware energy vs the sleepless baseline.
        let s = small_sweep();
        for c in &s.cells {
            assert!(
                c.norm_energy < 1.25,
                "capped+sleep cell costs more energy: {c:?}"
            );
        }
    }

    #[test]
    fn csv_noop_without_dir() {
        let s = small_sweep();
        assert!(s.write_csv(&ExpOptions::quick(10)).unwrap().is_empty());
    }
}
