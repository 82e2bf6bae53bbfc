//! The paper's qualitative claims, one row per claim and one test per row.
//! The rows below this table's rule run here on the experiment studies at
//! reduced scale (`ExpOptions::quick`, seed 2010); the rows above it run
//! on scaled scenarios in `policy_scenarios.rs` and `enlarged_systems.rs`,
//! whose test names are kept.
//!
//! | Row | Checks | Claim |
//! |-----|--------|-------|
//! | `policy_scenarios::single_idle_job_runs_at_lowest_gear` | Figs. 1–2 | an idle machine runs a job at the lowest gear |
//! | `policy_scenarios::tight_threshold_reduces_fewer_jobs` | Figs. 3–4 | a tighter BSLD threshold reduces fewer jobs and saves less |
//! | `policy_scenarios::wq_limit_ordering_on_energy` | Fig. 3 | WQ = NO saves at least what WQ = 0 saves |
//! | `policy_scenarios::saturated_machine_gets_no_savings` | Fig. 3 (SDSC) | a saturated machine saves almost nothing |
//! | `policy_scenarios::reduced_jobs_run_longer_but_schedule_stays_valid` | Eq. 2 (β) | reduced jobs run longer; the schedule stays valid |
//! | `policy_scenarios::policy_never_starts_jobs_early_or_shrinks_work` | Figs. 1–2 | no job starts before it arrives or does less work |
//! | `policy_scenarios::energy_saving_band_matches_paper_on_midload_workload` | abstract, Fig. 3 | a mid-load workload saves within a band around 7–18 % |
//! | `policy_scenarios::boost_extension_bounds_wait_inflation` | §6 future work | boosting never raises waits |
//! | `enlarged_systems::enlarging_monotonically_improves_bsld_under_dvfs` | Fig. 9 | more processors never worsen BSLD |
//! | `enlarged_systems::computational_energy_decreases_with_size` | Figs. 7–8, idle = 0 | more processors never raise computational energy |
//! | `enlarged_systems::idle_aware_energy_eventually_grows_with_size` | Figs. 7–8, idle = low | idle energy grows with machine size |
//! | `enlarged_systems::table3_regimes_hold_at_small_scale` | Table 3 | DVFS lengthens waits; +50 % shortens them again |
//! | `enlarged_systems::enlarged_dvfs_beats_baseline_energy_at_20_percent` | Figs. 7–9 | +20 % with DVFS saves energy; +50 % beats the baseline BSLD |
//! |-----|--------|-------|
//! | `larger_systems_wait_less` | Fig. 9, Table 3 | +125 % processors never lengthen the average wait |
//! | `series_align_and_dvfs_waits_more` | Fig. 6 | the DVFS run waits at least as long, on the same arrivals |
//! | `boost_improves_bsld_over_no_boost` | §6 future work (boost ablation) | boosting never worsens BSLD nor saves energy |
//! | `fcfs_is_worse_than_easy` | §3 substrate (FCFS ablation) | FCFS waits at least as long as EASY and conservative backfilling |
//! | `selection_ablation_contiguous_not_better` | §3 First Fit (selection ablation) | contiguity never shortens waits; Last Fit schedules as First Fit |
//! | `more_gears_never_hurt_energy` | Table 2 gears (gears ablation) | 12 gears save at least what 2 gears save |
//! | `sweep_is_complete_and_caps_hold` | beyond the paper (power-cap study) | every cell runs and a hard cap is never exceeded |
//! | `tighter_caps_do_not_raise_energy_much` | beyond the paper (power-cap study) | capped runs with sleep stay under 1.25 × the reference energy |

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use bsld::core::experiments::{ablation, enlarged, fig6, powercap, ExpOptions};
use bsld::core::WqThreshold;

#[test]
fn larger_systems_wait_less() {
    let s = enlarged::run(&ExpOptions::quick(40));
    let mut workloads = 0;
    for base in s.rows().filter(|r| r.is_reference()) {
        workloads += 1;
        let name = base.workload();
        let wait = |size| {
            let cell = enlarged::cell(&s, name, size, WqThreshold::NoLimit).unwrap();
            cell.metrics().avg_wait_secs
        };
        let (w0, w125) = (wait(0), wait(125));
        assert!(w125 <= w0, "{name}: {w125} > {w0}");
    }
    assert_eq!(workloads, 5);
}

#[test]
fn series_align_and_dvfs_waits_more() {
    let f = fig6::run(&ExpOptions::quick(400));
    assert_eq!(f.orig.len(), 400);
    assert_eq!(f.dvfs.len(), 400);
    // Arrivals identical (same workload).
    for (a, b) in f.orig.iter().zip(&f.dvfs) {
        assert_eq!(a.0, b.0);
    }
    let (mo, md) = f.mean_waits();
    assert!(
        md >= mo,
        "frequency scaling must not decrease mean wait: {md} vs {mo}"
    );
    assert!(f.render().contains("SDSCBlue"));
}

#[test]
fn boost_improves_bsld_over_no_boost() {
    let a = ablation::run("boost", &ExpOptions::quick(200)).unwrap();
    assert_eq!(a.rows().count(), 5);
    let no = a.row("no-boost").unwrap();
    let aggressive = a.row("boost@0").unwrap();
    let (no_bsld, boosted_bsld) = (no.metrics().avg_bsld, aggressive.metrics().avg_bsld);
    assert!(
        boosted_bsld <= no_bsld + 1e-9,
        "boost must not worsen BSLD: {boosted_bsld} vs {no_bsld}"
    );
    assert!(aggressive.norm_e_comp() >= no.norm_e_comp() - 1e-9);
}

#[test]
fn fcfs_is_worse_than_easy() {
    let a = ablation::run("fcfs", &ExpOptions::quick(200)).unwrap();
    let wait = |variant| a.row(variant).unwrap().metrics().avg_wait_secs;
    assert!(wait("FCFS") >= wait("EASY"));
    assert!(wait("FCFS") >= wait("CONS"), "conservative still backfills");
}

#[test]
fn selection_ablation_contiguous_not_better() {
    let a = ablation::run("selection", &ExpOptions::quick(200)).unwrap();
    assert_eq!(a.rows().count(), 6);
    let ff = a.row("FirstFit (paper)").unwrap().metrics();
    let contig = a.row("Contiguous").unwrap().metrics();
    assert!(
        contig.avg_wait_secs >= ff.avg_wait_secs - 1.0,
        "fragmentation cannot shorten waits: {} vs {}",
        contig.avg_wait_secs,
        ff.avg_wait_secs
    );
    // Non-contiguous policies are schedule-equivalent (processor identity
    // does not matter to count-based scheduling).
    let lf = a.row("LastFit").unwrap().metrics();
    assert!((lf.avg_wait_secs - ff.avg_wait_secs).abs() < 1e-9);
    assert!((lf.avg_bsld - ff.avg_bsld).abs() < 1e-9);
}

#[test]
fn more_gears_never_hurt_energy() {
    let a = ablation::run("gears", &ExpOptions::quick(150)).unwrap();
    let g2 = a.row("2 gears").unwrap().norm_e_comp();
    let g12 = a.row("12 gears").unwrap().norm_e_comp();
    // Finer gear sets give the policy strictly more options; with the
    // β=0.5 efficiency ordering they can only match or improve energy.
    assert!(g12 <= g2 + 0.02, "12 gears {g12} vs 2 gears {g2}");
}

#[test]
fn sweep_is_complete_and_caps_hold() {
    let s = powercap::run(&ExpOptions::quick(40));
    assert_eq!(s.rows().filter(|r| r.is_reference()).count(), 5);
    let cells: Vec<_> = s.rows().filter(|r| !r.is_reference()).collect();
    assert_eq!(cells.len(), 5 * 4 * 3);
    for c in &cells {
        let p = powercap::power(c.result);
        let peak_over_budget = p.peak / p.budget.unwrap();
        assert!(powercap::norm_energy(c) > 0.0, "{}", c.cell.name);
        assert!(
            peak_over_budget <= 1.0 + 1e-9,
            "hard cap violated: {} at {peak_over_budget}",
            c.cell.name
        );
    }
}

#[test]
fn tighter_caps_do_not_raise_energy_much() {
    // The frontier must be usable: with sleep states on, every capped cell
    // should save idle-aware energy vs the sleepless baseline.
    let s = powercap::run(&ExpOptions::quick(40));
    for c in s.rows().filter(|r| !r.is_reference()) {
        let e = powercap::norm_energy(&c);
        assert!(
            e < 1.25,
            "capped+sleep cell costs more energy: {} {e}",
            c.cell.name
        );
    }
}
