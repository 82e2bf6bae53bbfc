//! Beyond-paper experiment: the energy/BSLD frontier under cluster power
//! caps.
//!
//! For every workload, the study `paper/powercap.scn` sweeps hard-cap levels
//! (fractions of the machine's peak draw) × the paper's `BSLD_threshold`
//! values, with the paper's idle sleep ladder enabled, and compares each
//! cell's *ledger* energy (the exact `∫ P dt`, wake penalties included) and
//! average BSLD against its reference: the uncapped, sleepless no-DVFS run
//! of the same workload, observed the same way. The result is the
//! trade-off frontier a power-constrained center actually navigates: how
//! much energy a budget saves and what it costs in job slowdown.

use bsld_metrics::TextTable;
use bsld_powercap::PowerReport;

use super::{fmt, write_artifact, ExpOptions, Row, Study};
use crate::scenario::ScenarioResult;

/// The study: `paper/powercap.scn`.
const FILE: &str = include_str!("../../../../paper/powercap.scn");

/// Runs the study over the paper's five workloads, every run
/// power-instrumented (`observe = true`).
pub fn run(opts: &ExpOptions) -> Study {
    Study::run(&[FILE], opts, None)
}

/// A run's power report: every run of the study observes power.
pub fn power(res: &ScenarioResult) -> &PowerReport {
    let power = res.power.as_ref();
    // audit:allow(R1): the study sets `observe = true`, which its references keep
    power.expect("the power-cap study observes power")
}

/// A cell's ledger energy normalised to its reference's.
pub fn norm_energy(row: &Row) -> f64 {
    power(row.result).energy / power(row.reference).energy
}

/// A cell's cap level (fraction of peak draw) and `BSLD_threshold`.
fn cap_and_threshold(row: &Row) -> (f64, f64) {
    let cap = row.cell.power.cap_fraction.unwrap_or(1.0);
    (cap, row.config().map_or(0.0, |c| c.bsld_threshold))
}

/// The capped cells, workload-major, then cap level, then threshold.
fn cells(s: &Study) -> impl Iterator<Item = Row<'_>> {
    s.rows().filter(|r| !r.is_reference())
}

/// The energy/BSLD frontier: for every `(cap, threshold)` pair, in study
/// order, the mean normalised energy and mean BSLD across workloads.
// The floats compared are sweep values copied verbatim into the cells, so
// exact equality is the correct grouping key.
#[allow(clippy::float_cmp)]
pub fn frontier(s: &Study) -> Vec<(f64, f64, f64, f64)> {
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for r in cells(s) {
        let pair = cap_and_threshold(&r);
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    pairs
        .into_iter()
        .map(|(cap, th)| {
            let group: Vec<Row> = cells(s)
                .filter(|r| cap_and_threshold(r) == (cap, th))
                .collect();
            let n = group.len() as f64;
            let e = group.iter().map(norm_energy).sum::<f64>() / n;
            let b = group.iter().map(|r| r.metrics().avg_bsld).sum::<f64>() / n;
            (cap, th, e, b)
        })
        .collect()
}

/// Renders the frontier table (the experiment's headline artifact).
pub fn render_frontier(s: &Study) -> String {
    let mut t = TextTable::new(vec![
        "cap (x peak)".to_string(),
        "BSLDth".to_string(),
        "mean norm energy".to_string(),
        "mean avg BSLD".to_string(),
    ]);
    for (cap, th, e, b) in frontier(s) {
        t.row(vec![fmt(cap, 2), fmt(th, 1), fmt(e, 3), fmt(b, 2)]);
    }
    let baselines: Vec<String> = s
        .rows()
        .filter(Row::is_reference)
        .map(|b| format!("{}={:.2}", b.workload(), b.metrics().avg_bsld))
        .collect();
    format!(
        "Power-cap sweep: energy/BSLD trade-off frontier\n\
         (ledger energy incl. idle & wake penalties, normalised per workload)\n{}\
         uncapped no-DVFS baseline avg BSLD: {}\n",
        t.render(),
        baselines.join(", ")
    )
}

/// One cell's columns: workload, cap, threshold, normalised energy, BSLD,
/// peak over budget, deferrals, down-gears and wakes, at table (`csv =
/// false`) or CSV precision; the CSV adds the makespan.
fn cell_fields(r: &Row, csv: bool) -> Vec<String> {
    let p = power(r.result);
    let (cap, th) = cap_and_threshold(r);
    // audit:allow(R1): every cell of the study sets a cap
    let budget = p.budget.expect("capped cells have a budget");
    let d = |table: usize, csv_digits: usize| if csv { csv_digits } else { table };
    let mut fields = vec![
        r.workload().to_string(),
        fmt(cap, 2),
        fmt(th, 1),
        fmt(norm_energy(r), d(3, 5)),
        fmt(r.metrics().avg_bsld, d(2, 4)),
        fmt(p.peak / budget, d(3, 5)),
        p.cap.deferrals.to_string(),
        p.cap.downgears.to_string(),
        p.sleep.wakes.to_string(),
    ];
    if csv {
        fields.push(r.metrics().makespan_secs.to_string());
    }
    fields
}

/// Renders the full per-workload grid.
pub fn render_cells(s: &Study) -> String {
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
    for r in cells(s) {
        t.row(cell_fields(&r, false));
    }
    format!("Power-cap sweep: all cells\n{}", t.render())
}

/// Writes `powercap_sweep.csv`.
pub fn write_csv(s: &Study, opts: &ExpOptions) -> std::io::Result<Vec<std::path::PathBuf>> {
    let rows: Vec<Vec<String>> = cells(s).map(|r| cell_fields(&r, true)).collect();
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
    Ok(write_artifact(opts, "powercap_sweep", &headers, &rows)?
        .into_iter()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_covers_every_pair_and_renders() {
        let s = run(&ExpOptions::quick(40));
        assert_eq!(s.rows().filter(Row::is_reference).count(), 5);
        assert_eq!(cells(&s).count(), 5 * 4 * 3);
        let pairs: Vec<(f64, f64)> = frontier(&s).iter().map(|f| (f.0, f.1)).collect();
        assert_eq!(pairs.len(), 4 * 3);
        assert_eq!(
            pairs[..4],
            [(0.45, 1.5), (0.45, 2.0), (0.45, 3.0), (0.6, 1.5)]
        );
        assert!(render_frontier(&s).contains("frontier"));
        assert!(render_cells(&s).contains("CTC"));
        assert!(write_csv(&s, &ExpOptions::quick(10)).unwrap().is_empty());
    }
}
