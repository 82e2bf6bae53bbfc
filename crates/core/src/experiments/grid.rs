//! Figures 3, 4 and 5 — the original-system-size parameter grid.
//!
//! One study, `paper/grid.scn`, drives all three figures: for every
//! workload and every combination of `BSLD_threshold ∈ {1.5, 2, 3}` and
//! `WQ_threshold ∈ {0, 4, 16, NO}`, run the power-aware scheduler and
//! compare against the workload's no-DVFS baseline.
//!
//! * **Figure 3** — normalized CPU energy, in both idle scenarios;
//! * **Figure 4** — number of jobs run at reduced frequency;
//! * **Figure 5** — average BSLD.

use bsld_metrics::{RunMetrics, TextTable};

use super::{fmt, write_artifact, ExpOptions, Study};
use crate::policy::{PowerAwareConfig, WqThreshold};
use crate::scenario::{PolicySpec, Scenario, WorkloadSpec};

/// The study: `paper/grid.scn`.
const FILE: &str = include_str!("../../../../paper/grid.scn");

/// The paper's `BSLD_threshold` values.
pub const BSLD_THRESHOLDS: [f64; 3] = [1.5, 2.0, 3.0];

/// The paper's `WQ_threshold` values.
pub const WQ_THRESHOLDS: [WqThreshold; 4] = [
    WqThreshold::Limit(0),
    WqThreshold::Limit(4),
    WqThreshold::Limit(16),
    WqThreshold::NoLimit,
];

/// One grid cell: a `(workload, BSLD_threshold, WQ_threshold)` run
/// normalized against that workload's baseline.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Workload name.
    pub workload: String,
    /// The policy parameters of this cell.
    pub cfg: PowerAwareConfig,
    /// Computational energy normalized to the baseline (Fig. 3 left).
    pub norm_e_comp: f64,
    /// Idle-aware energy normalized to the baseline (Fig. 3 right).
    pub norm_e_idle: f64,
    /// Jobs run at reduced frequency (Fig. 4).
    pub reduced_jobs: usize,
    /// Average BSLD (Fig. 5).
    pub avg_bsld: f64,
    /// Average wait, seconds (Table 3 context).
    pub avg_wait: f64,
}

/// The grid plus the per-workload baselines it was normalized against.
#[derive(Debug, Clone)]
pub struct OriginalSizeGrid {
    /// All cells, ordered workload-major then `BSLD_threshold` then
    /// `WQ_threshold` (the paper's figure order).
    pub cells: Vec<GridCell>,
    /// `(workload, baseline metrics)` in paper order.
    pub baselines: Vec<(String, RunMetrics)>,
}

/// Runs the grid study: 5 workloads × (1 baseline + 12 policy cells), each
/// baseline the reference of its workload's cells.
pub fn run(opts: &ExpOptions) -> OriginalSizeGrid {
    let study = Study::run(&[FILE], opts, Some(trace_name));
    let mut g = OriginalSizeGrid {
        cells: Vec::new(),
        baselines: Vec::new(),
    };
    for row in study.rows() {
        let workload = row.workload().to_string();
        let m = row.metrics();
        match row.config() {
            None => g.baselines.push((workload, m.clone())),
            Some(cfg) => g.cells.push(GridCell {
                workload,
                cfg,
                norm_e_comp: row.norm_e_comp(),
                norm_e_idle: row.norm_e_idle(),
                reduced_jobs: m.reduced_jobs,
                avg_bsld: m.avg_bsld,
                avg_wait: m.avg_wait_secs,
            }),
        }
    }
    g
}

/// A run's name in the `--trace-out` file: `ctc-baseline`, `ctc 2/NO`.
fn trace_name(sc: &Scenario) -> String {
    let profile = match sc.workload {
        WorkloadSpec::Synthetic { profile, .. } => profile.key(),
        WorkloadSpec::Swf { .. } => "swf",
    };
    match sc.policy {
        PolicySpec::BsldThreshold { th, wq } => format!("{profile} {th}/{wq}"),
        _ => format!("{profile}-baseline"),
    }
}

impl OriginalSizeGrid {
    /// The cell for an exact parameter combination.
    // The thresholds compared are sweep-axis literals copied verbatim into
    // the cells, so exact equality is the correct lookup key.
    #[allow(clippy::float_cmp)]
    pub fn cell(&self, workload: &str, bsld_th: f64, wq: WqThreshold) -> Option<&GridCell> {
        self.cells.iter().find(|c| {
            c.workload == workload && c.cfg.bsld_threshold == bsld_th && c.cfg.wq_threshold == wq
        })
    }

    /// Figure 3: normalized energy table (`idle` picks the scenario).
    pub fn render_fig3(&self, idle_low: bool) -> String {
        let title = if idle_low {
            "Figure 3 (right): normalized CPU energy, idle = low"
        } else {
            "Figure 3 (left): normalized CPU energy, idle = 0 (computational)"
        };
        self.render_metric(title, |c| {
            fmt(
                if idle_low {
                    c.norm_e_idle
                } else {
                    c.norm_e_comp
                },
                3,
            )
        })
    }

    /// Figure 4: reduced-job counts.
    pub fn render_fig4(&self) -> String {
        self.render_metric("Figure 4: jobs run at reduced frequency", |c| {
            c.reduced_jobs.to_string()
        })
    }

    /// Figure 5: average BSLD (baseline in the header for reference).
    pub fn render_fig5(&self) -> String {
        let mut out = self.render_metric("Figure 5: average BSLD", |c| fmt(c.avg_bsld, 2));
        out.push_str("baseline avg BSLD: ");
        for (i, (name, m)) in self.baselines.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{name}={:.2}", m.avg_bsld));
        }
        out.push('\n');
        out
    }

    /// Mean energy saving (1 − normalized computational energy) across the
    /// five workloads, per parameter pair — the paper's "7–18 % on average
    /// depending on allowed job performance penalty" headline.
    // Same exact-key argument as `cell` above.
    #[allow(clippy::float_cmp)]
    pub fn average_savings(&self) -> Vec<(PowerAwareConfig, f64)> {
        let mut out = Vec::new();
        for &bt in &BSLD_THRESHOLDS {
            for &wq in &WQ_THRESHOLDS {
                let cells: Vec<&GridCell> = self
                    .cells
                    .iter()
                    .filter(|c| c.cfg.bsld_threshold == bt && c.cfg.wq_threshold == wq)
                    .collect();
                let mean = 1.0
                    - cells.iter().map(|c| c.norm_e_comp).sum::<f64>() / cells.len().max(1) as f64;
                out.push((
                    PowerAwareConfig {
                        bsld_threshold: bt,
                        wq_threshold: wq,
                    },
                    mean,
                ));
            }
        }
        out
    }

    /// Renders the average-savings headline table.
    pub fn render_summary(&self) -> String {
        let mut t = TextTable::new(vec!["BSLDth/WQth", "mean energy saving"]);
        for (cfg, saving) in self.average_savings() {
            t.row(vec![cfg.label(), format!("{:.1}%", saving * 100.0)]);
        }
        format!(
            "Headline: mean computational-energy saving across the five workloads\n\
             (the paper reports 7–18% depending on the allowed performance penalty)\n{}",
            t.render()
        )
    }

    fn render_metric(&self, title: &str, f: impl Fn(&GridCell) -> String) -> String {
        let mut t = TextTable::new(vec![
            "Workload/BSLDth".to_string(),
            "WQ 0".to_string(),
            "WQ 4".to_string(),
            "WQ 16".to_string(),
            "WQ NO".to_string(),
        ]);
        for (name, _) in &self.baselines {
            for &bt in &BSLD_THRESHOLDS {
                let mut row = vec![format!("{name} {bt}")];
                for &wq in &WQ_THRESHOLDS {
                    // audit:allow(R1): the sweep above produced every (bt, wq) cell
                    let cell = self.cell(name, bt, wq).expect("complete grid");
                    row.push(f(cell));
                }
                t.row(row);
            }
        }
        format!("{title}\n{}", t.render())
    }

    /// Writes `fig3_energy.csv`, `fig4_reduced.csv`, `fig5_bsld.csv`.
    pub fn write_csv(&self, opts: &ExpOptions) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut written = Vec::new();
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.workload.clone(),
                    fmt(c.cfg.bsld_threshold, 1),
                    c.cfg.wq_threshold.label(),
                    fmt(c.norm_e_comp, 5),
                    fmt(c.norm_e_idle, 5),
                    c.reduced_jobs.to_string(),
                    fmt(c.avg_bsld, 4),
                    fmt(c.avg_wait, 1),
                ]
            })
            .collect();
        let headers = [
            "workload",
            "bsld_threshold",
            "wq_threshold",
            "norm_energy_idle0",
            "norm_energy_idlelow",
            "reduced_jobs",
            "avg_bsld",
            "avg_wait_s",
        ];
        if let Some(p) = write_artifact(opts, "fig3_fig4_fig5_grid", &headers, &rows)? {
            written.push(p);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid_is_complete_plausible_and_renders() {
        let g = run(&ExpOptions::quick(40));
        assert_eq!(g.baselines.len(), 5);
        assert_eq!(g.cells.len(), 5 * 12);
        for (name, _) in &g.baselines {
            for &bt in &BSLD_THRESHOLDS {
                for &wq in &WQ_THRESHOLDS {
                    assert!(g.cell(name, bt, wq).is_some(), "{name} {bt} {wq:?}");
                }
            }
        }
        for c in &g.cells {
            assert!(c.norm_e_comp > 0.0 && c.norm_e_comp < 1.5, "{c:?}");
            // Idle-aware energy can exceed the baseline by a wide margin at
            // this tiny job count: dilation stretches the makespan and the
            // idle term dominates 40-job runs on a lightly loaded machine.
            assert!(c.norm_e_idle > 0.0 && c.norm_e_idle < 3.0, "{c:?}");
        }
        let s = g.average_savings();
        assert_eq!(s.len(), BSLD_THRESHOLDS.len() * WQ_THRESHOLDS.len());
        for (cfg, saving) in &s {
            let label = cfg.label();
            assert!((-0.5..1.0).contains(saving), "{label}: saving {saving}");
        }
        assert!(g.render_summary().contains("mean energy saving"));
        for s in [g.render_fig3(false), g.render_fig3(true), g.render_fig4()] {
            assert!(s.contains("CTC"));
        }
        assert!(g.render_fig5().contains("CTC"));
    }
}
