//! Integration tests: the Section 5.2 enlarged-systems claims, at reduced
//! scale (rows of the claims table in `paper_claims.rs`).

#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod common;

use bsld::core::experiments::{enlarged, ExpOptions};
use bsld::core::scenario::{PolicySpec, ProfileName, Scenario};
use bsld::core::{PowerAwareConfig, WqThreshold};
use common::{bsld, run, scaled};

#[test]
fn enlarging_monotonically_improves_bsld_under_dvfs() {
    // Paper: "an additional increase in system size always gives an
    // improvement in performance" (Figure 9).
    let mut sc = scaled(ProfileName::SdscBlue, 96, 21, 500);
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    let mut last = f64::INFINITY;
    for pct in [0u32, 20, 50, 100] {
        sc.cluster.enlarge_pct = pct;
        let m = run(&sc).run.metrics;
        assert!(
            m.avg_bsld <= last * 1.02,
            "+{pct}%: BSLD {} should not exceed previous {last}",
            m.avg_bsld
        );
        last = m.avg_bsld;
    }
}

#[test]
fn computational_energy_decreases_with_size() {
    // Paper: "Logically, computational energy decreases with system
    // dimension increase" — shorter waits admit more DVFS.
    let mut sc = scaled(ProfileName::Ctc, 64, 23, 500);
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    let energy = |pct: u32| {
        let mut sc = sc.clone();
        sc.cluster.enlarge_pct = pct;
        run(&sc).run.metrics.energy.computational
    };
    let e0 = energy(0);
    let e50 = energy(50);
    let e125 = energy(125);
    assert!(
        e50 <= e0 * 1.02,
        "+50% must not raise computational energy: {e50} vs {e0}"
    );
    assert!(
        e125 <= e50 * 1.02,
        "+125% must not raise it further: {e125} vs {e50}"
    );
}

#[test]
fn idle_aware_energy_eventually_grows_with_size() {
    // Paper: in the idle=low scenario "there is a point after which further
    // increase in system size results in higher energy consumption".
    // Idle power of the extra processors must eventually dominate. Compare
    // the idle components directly: capacity grows linearly with size.
    let mut sc = scaled(ProfileName::LlnlThunder, 128, 25, 400);
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    let energy = |pct: u32| {
        let mut sc = sc.clone();
        sc.cluster.enlarge_pct = pct;
        run(&sc).run.metrics.energy
    };
    let e0 = energy(0);
    let e125 = energy(125);
    assert!(
        e125.idle_cpu_secs > e0.idle_cpu_secs,
        "a much larger machine must idle more: {} vs {}",
        e125.idle_cpu_secs,
        e0.idle_cpu_secs
    );
    // And the with-idle total reflects that pressure: the gap between
    // with_idle and computational grows with machine size.
    let overhead0 = e0.with_idle - e0.computational;
    let overhead125 = e125.with_idle - e125.computational;
    assert!(overhead125 > overhead0);
}

#[test]
fn table3_regimes_hold_at_small_scale() {
    // Structural Table 3 checks on the sweep: DVFS inflates waits at the
    // original size; +50 % processors deflates them below the DVFS-at-
    // original-size values.
    let s = enlarged::run(&ExpOptions::quick(120));
    let mut workloads = 0;
    for base in s.rows().filter(|r| r.is_reference()) {
        workloads += 1;
        let name = base.workload();
        let wait = |size| {
            let cell = enlarged::cell(&s, name, size, WqThreshold::NoLimit).unwrap();
            cell.metrics().avg_wait_secs
        };
        let (orig_no, big_no) = (wait(0), wait(50));
        assert!(
            orig_no + 1.0 >= base.metrics().avg_wait_secs,
            "{name}: DVFS should not shorten waits at original size"
        );
        assert!(
            big_no <= orig_no + 1.0,
            "{name}: +50% should cut waits: {big_no} vs {orig_no}"
        );
    }
    assert_eq!(workloads, 5);
}

#[test]
fn enlarged_dvfs_beats_baseline_energy_at_20_percent() {
    // The headline claim: +20 % machine + power-aware scheduling can cut
    // computational energy substantially while holding performance.
    let base_sc = Scenario::synthetic("blue", ProfileName::SdscBlue, 1200, 27);
    let base = run(&base_sc).run.metrics;
    let dvfs = |pct: u32| {
        let mut sc = base_sc.clone();
        sc.policy = bsld(2.0, WqThreshold::Limit(0));
        sc.cluster.enlarge_pct = pct;
        run(&sc).run.metrics
    };
    let dvfs20 = dvfs(20);
    let norm = dvfs20.energy.normalized_computational(&base.energy);
    assert!(
        norm < 0.95,
        "+20% DVFS must save energy, normalized = {norm}"
    );
    // The performance crossover: by +50% the power-aware run must beat the
    // original-size baseline (the paper reports the crossover at +10–20 %;
    // our synthetic SDSC-Blue sits closer to saturation and crosses later).
    let dvfs50 = dvfs(50);
    assert!(
        dvfs50.avg_bsld <= base.avg_bsld,
        "+50% DVFS must beat the original baseline: {} vs {}",
        dvfs50.avg_bsld,
        base.avg_bsld
    );
}
