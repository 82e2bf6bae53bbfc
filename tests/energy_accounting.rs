//! Integration tests: end-to-end energy-accounting identities.
//!
//! The energy numbers behind Figures 3/7/8 must be *derivable by hand* from
//! the schedule; these tests recompute them independently and compare.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod common;

use bsld::cluster::GearSet;
use bsld::core::scenario::{PolicySpec, ProfileName};
use bsld::core::{PowerAwareConfig, WqThreshold};
use bsld::model::GearId;
use bsld::power::{BetaModel, PaperDvfs};
use common::{bsld, run, scaled};

#[test]
fn baseline_energy_equals_area_times_top_power() {
    let sc = scaled(ProfileName::Ctc, 32, 31, 300);
    let w = sc.build_workload().unwrap();
    let res = run(&sc).run;
    let pm = PaperDvfs::paper(GearSet::paper());
    let top = GearSet::paper().top();
    let expected: f64 = w
        .jobs
        .iter()
        .map(|j| j.cpus as f64 * j.runtime as f64 * pm.p_active(top))
        .sum();
    let got = res.metrics.energy.computational;
    assert!(
        (got / expected - 1.0).abs() < 1e-9,
        "computational energy mismatch: {got} vs {expected}"
    );
}

#[test]
fn policy_energy_recomputable_from_outcomes() {
    let mut sc = scaled(ProfileName::SdscBlue, 64, 33, 400);
    sc.policy = bsld(3.0, WqThreshold::NoLimit);
    let res = run(&sc).run;
    let pm = PaperDvfs::paper(GearSet::paper());
    let pm_ref = &pm;
    let manual: f64 = res
        .outcomes
        .iter()
        .flat_map(|o| {
            o.phases
                .iter()
                .map(move |p| o.cpus as f64 * p.seconds as f64 * pm_ref.p_active(p.gear))
        })
        .sum();
    let got = res.metrics.energy.computational;
    assert!((got / manual - 1.0).abs() < 1e-9, "{got} vs {manual}");
}

#[test]
fn idle_energy_identity() {
    let sc = scaled(ProfileName::LlnlThunder, 64, 35, 300);
    let res = run(&sc).run;
    let pm = PaperDvfs::paper(GearSet::paper());
    let e = &res.metrics.energy;
    let capacity = 64.0 * e.makespan_secs as f64;
    let expected_idle = (capacity - e.busy_cpu_secs) * pm.p_idle();
    assert!(
        ((e.with_idle - e.computational) / expected_idle - 1.0).abs() < 1e-9,
        "idle component mismatch"
    );
}

#[test]
fn dilated_runtime_matches_beta_model_per_job() {
    let mut sc = scaled(ProfileName::SdscBlue, 48, 37, 250);
    sc.policy = bsld(3.0, WqThreshold::NoLimit);
    let w = sc.build_workload().unwrap();
    let res = run(&sc).run;
    let tm = BetaModel::new(GearSet::paper());
    for o in &res.outcomes {
        if o.phases.len() == 1 {
            let job = &w.jobs[o.id.index()];
            let expected = tm.dilate(job.runtime, job.beta, o.gear);
            assert_eq!(
                o.penalized_runtime(),
                expected,
                "{}: runtime at {} should be {}",
                o.id,
                o.gear,
                expected
            );
        }
    }
}

#[test]
fn bsld_metric_recomputable_from_outcomes() {
    let mut sc = scaled(ProfileName::Ctc, 32, 39, 300);
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    let res = run(&sc).run;
    let manual: f64 =
        res.outcomes.iter().map(|o| o.bsld(600)).sum::<f64>() / res.outcomes.len() as f64;
    assert!((res.metrics.avg_bsld / manual - 1.0).abs() < 1e-12);
    // And per the paper's Eq. 6, every BSLD ≥ 1 with the nominal-runtime
    // denominator.
    for o in &res.outcomes {
        let denom = 600u64.max(o.nominal_runtime) as f64;
        let expected = ((o.wait() + o.penalized_runtime()) as f64 / denom).max(1.0);
        assert!((o.bsld(600) - expected).abs() < 1e-12);
    }
}

#[test]
fn utilization_in_unit_interval_and_consistent() {
    for (seed, profile) in [(41u64, ProfileName::Ctc), (43, ProfileName::Sdsc)] {
        let m = run(&scaled(profile, 32, seed, 300)).run.metrics;
        assert!(
            m.utilization > 0.0 && m.utilization <= 1.0,
            "util = {}",
            m.utilization
        );
        let manual = m.energy.busy_cpu_secs / (32.0 * m.makespan_secs as f64);
        assert!((m.utilization - manual).abs() < 1e-12);
    }
}

#[test]
fn gear_histogram_sums_to_job_count() {
    let mut sc = scaled(ProfileName::SdscBlue, 64, 45, 350);
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    let m = run(&sc).run.metrics;
    let total: usize = m.gear_histogram.iter().sum();
    assert_eq!(total, 350);
    // Reduced = everything not initially at top... unless boosted (no boost
    // here), so the histogram's sub-top mass equals reduced_jobs.
    let sub_top: usize = m.gear_histogram[..5].iter().sum();
    assert_eq!(sub_top, m.reduced_jobs);
    let _ = GearId(0); // silence unused-import lints if histogram shrinks
}
