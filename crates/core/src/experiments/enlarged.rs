//! Figures 7, 8, 9 and Table 3 — enlarged DVFS systems.
//!
//! The paper's Section 5.2 reruns the same workloads on machines enlarged
//! by 10–125 % under the power-aware scheduler (`BSLD_threshold = 2`,
//! `WQ_threshold ∈ {0, NO}`) and asks whether more DVFS processors can cut
//! energy *and* improve performance. One study, `paper/enlarged.scn`,
//! supplies:
//!
//! * **Figure 7** — normalized energy vs. size, `WQ = 0` (both scenarios);
//! * **Figure 8** — the same for `WQ = NO LIMIT`;
//! * **Figure 9** — average BSLD vs. size for both `WQ` settings;
//! * **Table 3** — average wait times for the five configurations.
//!
//! Energies are normalized against the **original-size no-DVFS** run (each
//! cell's reference); the idle-aware scenario charges idle power for the
//! *enlarged* machine, which is what creates the paper's energy minimum at
//! moderate enlargement.

use bsld_metrics::TextTable;

use super::{fmt, write_artifact, ExpOptions, Row, Study};
use crate::policy::WqThreshold;

/// The study: `paper/enlarged.scn`.
const FILE: &str = include_str!("../../../../paper/enlarged.scn");

/// Runs the study: per workload, its original-size baseline (the
/// reference) and 7 sizes × 2 WQ settings.
pub fn run(opts: &ExpOptions) -> Study {
    Study::run(&[FILE], opts, None)
}

/// The cell of `workload` enlarged by `size_pct` under `wq`.
pub fn cell<'a>(s: &'a Study, workload: &str, size_pct: u32, wq: WqThreshold) -> Option<Row<'a>> {
    s.rows().find(|r| {
        !r.is_reference()
            && r.workload() == workload
            && r.cell.cluster.enlarge_pct == size_pct
            && r.config().map(|c| c.wq_threshold) == Some(wq)
    })
}

/// The original-size baselines, paper order.
fn baselines(s: &Study) -> impl Iterator<Item = Row<'_>> {
    s.rows().filter(Row::is_reference)
}

/// The swept size increases, in study order.
fn sizes(s: &Study) -> Vec<u32> {
    let mut sizes = Vec::new();
    for r in s.rows().filter(|r| !r.is_reference()) {
        if !sizes.contains(&r.cell.cluster.enlarge_pct) {
            sizes.push(r.cell.cluster.enlarge_pct);
        }
    }
    sizes
}

/// A field of the cell at `(size, wq)` of `base`'s workload.
fn at(s: &Study, base: &Row, size: u32, wq: WqThreshold, f: impl Fn(&Row) -> f64) -> f64 {
    // audit:allow(R1): the study file sweeps every (size, wq) cell its tables show
    f(&cell(s, base.workload(), size, wq).expect("complete sweep"))
}

/// Figures 7/8: energy vs. size for one WQ setting and one scenario.
pub fn render_energy(s: &Study, wq: WqThreshold, idle_low: bool) -> String {
    let fig = if wq == WqThreshold::Limit(0) {
        "Figure 7"
    } else {
        "Figure 8"
    };
    let scen = if idle_low { "idle=low" } else { "idle=0" };
    let sizes = sizes(s);
    let mut headers = vec!["Workload".to_string()];
    headers.extend(sizes.iter().map(|s| format!("+{s}%")));
    let mut t = TextTable::new(headers);
    for base in baselines(s) {
        let mut row = vec![base.workload().to_string()];
        for &size in &sizes {
            let e = at(s, &base, size, wq, |c| {
                if idle_low {
                    c.norm_e_idle()
                } else {
                    c.norm_e_comp()
                }
            });
            row.push(fmt(e * 100.0, 1));
        }
        t.row(row);
    }
    format!(
        "{fig}: normalized energy (%) of enlarged systems, WQ = {}, {scen}\n{}",
        wq.label(),
        t.render()
    )
}

/// Figure 9: average BSLD vs. size for one WQ setting.
pub fn render_bsld(s: &Study, wq: WqThreshold) -> String {
    let sizes = sizes(s);
    let mut headers = vec!["Workload".to_string(), "base".to_string()];
    headers.extend(sizes.iter().map(|s| format!("+{s}%")));
    let mut t = TextTable::new(headers);
    for base in baselines(s) {
        let mut row = vec![base.workload().to_string(), fmt(base.metrics().avg_bsld, 2)];
        for &size in &sizes {
            row.push(fmt(at(s, &base, size, wq, |c| c.metrics().avg_bsld), 2));
        }
        t.row(row);
    }
    format!(
        "Figure 9: average BSLD of enlarged systems, WQ = {}\n{}",
        wq.label(),
        t.render()
    )
}

/// Table 3's row for `base`: the baseline wait, then the waits at the
/// original size and at +50 %, each under WQ 0 and NO, with `digits`.
fn table3_row(s: &Study, base: &Row, digits: usize) -> Vec<String> {
    let wait = |size, wq| at(s, base, size, wq, |c| c.metrics().avg_wait_secs);
    let mut row = vec![
        base.workload().to_string(),
        fmt(base.metrics().avg_wait_secs, digits),
    ];
    for size in [0, 50] {
        for wq in [WqThreshold::Limit(0), WqThreshold::NoLimit] {
            row.push(fmt(wait(size, wq), digits));
        }
    }
    row
}

/// Table 3: average wait for the paper's five configurations.
pub fn render_table3(s: &Study) -> String {
    let mut t = TextTable::new(vec![
        "Workload",
        "OrigNoDVFS",
        "OrigWQ0",
        "OrigWQNo",
        "+50%WQ0",
        "+50%WQNo",
    ]);
    for base in baselines(s) {
        t.row(table3_row(s, &base, 0));
    }
    format!(
        "Table 3: average wait time (s), BSLDthreshold = 2\n{}",
        t.render()
    )
}

/// Writes `fig7_fig8_fig9_enlarged.csv` and `table3_wait.csv`.
pub fn write_csv(s: &Study, opts: &ExpOptions) -> std::io::Result<Vec<std::path::PathBuf>> {
    let rows: Vec<Vec<String>> = s
        .rows()
        .filter(|r| !r.is_reference())
        .map(|c| {
            let m = c.metrics();
            let wq = c
                .config()
                .map_or_else(String::new, |cfg| cfg.wq_threshold.label());
            vec![
                c.workload().to_string(),
                c.cell.cluster.enlarge_pct.to_string(),
                wq,
                fmt(c.norm_e_comp(), 5),
                fmt(c.norm_e_idle(), 5),
                fmt(m.avg_bsld, 4),
                fmt(m.avg_wait_secs, 1),
                m.reduced_jobs.to_string(),
            ]
        })
        .collect();
    let t3: Vec<Vec<String>> = baselines(s).map(|b| table3_row(s, &b, 1)).collect();
    let mut written = Vec::new();
    for (name, headers, rows) in [
        (
            "fig7_fig8_fig9_enlarged",
            &[
                "workload",
                "size_increase_pct",
                "wq_threshold",
                "norm_energy_idle0",
                "norm_energy_idlelow",
                "avg_bsld",
                "avg_wait_s",
                "reduced_jobs",
            ][..],
            rows,
        ),
        (
            "table3_wait",
            &[
                "workload",
                "orig_no_dvfs",
                "orig_wq0",
                "orig_wqno",
                "inc50_wq0",
                "inc50_wqno",
            ][..],
            t3,
        ),
    ] {
        if let Some(p) = write_artifact(opts, name, headers, &rows)? {
            written.push(p);
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_complete_and_renders() {
        let s = run(&ExpOptions::quick(40));
        assert_eq!(baselines(&s).count(), 5);
        assert_eq!(s.rows().count(), 5 + 5 * 7 * 2);
        assert_eq!(sizes(&s), [0, 10, 20, 50, 75, 100, 125]);
        assert!(cell(&s, "CTC", 125, WqThreshold::NoLimit).is_some());
        for text in [
            render_energy(&s, WqThreshold::Limit(0), false),
            render_energy(&s, WqThreshold::Limit(0), true),
            render_energy(&s, WqThreshold::NoLimit, false),
            render_energy(&s, WqThreshold::NoLimit, true),
            render_bsld(&s, WqThreshold::Limit(0)),
            render_bsld(&s, WqThreshold::NoLimit),
            render_table3(&s),
        ] {
            assert!(text.contains("CTC"), "{text}");
        }
    }
}
