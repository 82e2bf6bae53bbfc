//! Integration tests: the BSLD-threshold policy end to end (rows of the
//! claims table in `paper_claims.rs`).
//!
//! Each test pins one claim the paper makes about its algorithm's
//! behaviour, exercised through the full simulator on calibrated (scaled)
//! workloads.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod common;

use bsld::core::scenario::{PolicySpec, ProfileName, Scenario};
use bsld::core::{PowerAwareConfig, WqThreshold};
use bsld::model::GearId;
use bsld::sched::validate_schedule;
use common::{bsld, run, scaled};

#[test]
fn single_idle_job_runs_at_lowest_gear() {
    // One long job on an empty machine: predicted BSLD at the lowest gear
    // is Coef(0.8 GHz) ≈ 1.94 ≤ 2 → the policy must pick gear 0.
    let mut sc = scaled(ProfileName::SdscBlue, 32, 1, 1);
    sc.policy = bsld(2.0, WqThreshold::NoLimit);
    let res = run(&sc).run;
    assert_eq!(res.outcomes[0].gear, GearId(0));
    assert_eq!(res.metrics.reduced_jobs, 1);
}

#[test]
fn tight_threshold_reduces_fewer_jobs() {
    let mut sc = scaled(ProfileName::SdscBlue, 64, 3, 400);
    sc.policy = bsld(1.2, WqThreshold::NoLimit);
    let strict = run(&sc).run;
    sc.policy = bsld(3.0, WqThreshold::NoLimit);
    let loose = run(&sc).run;
    assert!(
        strict.metrics.reduced_jobs <= loose.metrics.reduced_jobs,
        "{} > {}",
        strict.metrics.reduced_jobs,
        loose.metrics.reduced_jobs
    );
    assert!(strict.metrics.energy.computational >= loose.metrics.energy.computational);
}

#[test]
fn wq_limit_ordering_on_energy() {
    // For a fixed BSLD threshold, relaxing the WQ limit can only admit more
    // DVFS: energy at WQ=NO ≤ energy at WQ=16 ≤ ... is the paper's
    // observation (it holds in expectation; we assert the endpoints).
    let sc = scaled(ProfileName::SdscBlue, 64, 5, 500);
    let e = |wq| {
        let mut sc = sc.clone();
        sc.policy = bsld(2.0, wq);
        run(&sc).run.metrics.energy.computational
    };
    let e0 = e(WqThreshold::Limit(0));
    let eno = e(WqThreshold::NoLimit);
    assert!(
        eno <= e0 * 1.02,
        "no-limit {eno} should not exceed WQ0 {e0}"
    );
}

#[test]
fn saturated_machine_gets_no_savings() {
    // The SDSC phenomenon: a machine under heavy backlog has such high
    // predicted BSLDs that the policy cannot reduce jobs. Use the full-size
    // SDSC profile (128 cpus) so the backlog dynamics match the paper's.
    let mut sc = Scenario::synthetic("sdsc", ProfileName::Sdsc, 4000, 2010);
    let base = run(&sc).run;
    assert!(
        base.metrics.avg_bsld > 10.0,
        "workload must be saturated, got {}",
        base.metrics.avg_bsld
    );
    sc.policy = bsld(2.0, WqThreshold::Limit(16));
    let dvfs = run(&sc).run;
    let norm = dvfs
        .metrics
        .energy
        .normalized_computational(&base.metrics.energy);
    assert!(
        norm > 0.9,
        "saturated workloads should save almost nothing, normalized = {norm}"
    );
    let frac = dvfs.metrics.reduced_jobs as f64 / 4000.0;
    assert!(
        frac < 0.5,
        "most jobs must stay at top frequency, reduced {frac}"
    );
}

#[test]
fn reduced_jobs_run_longer_but_schedule_stays_valid() {
    let mut sc = scaled(ProfileName::LlnlThunder, 128, 9, 400);
    sc.policy = bsld(3.0, WqThreshold::NoLimit);
    let w = sc.build_workload().unwrap();
    let res = run(&sc).run;
    validate_schedule(&res.outcomes, w.cpus).unwrap();
    let top = GearId(5);
    for o in &res.outcomes {
        let job = &w.jobs[o.id.index()];
        if o.was_reduced(top) {
            assert!(
                o.penalized_runtime() >= job.runtime,
                "{}: dilated runtime shorter than nominal",
                o.id
            );
        } else {
            assert_eq!(o.penalized_runtime(), job.runtime);
        }
    }
}

#[test]
fn policy_never_starts_jobs_early_or_shrinks_work() {
    let mut sc = scaled(ProfileName::Ctc, 64, 11, 500);
    let base = run(&sc).run;
    sc.policy = bsld(2.0, WqThreshold::NoLimit);
    let dvfs = run(&sc).run;
    // Aggregate dilation: total busy time under DVFS >= baseline.
    assert!(dvfs.metrics.energy.busy_cpu_secs >= base.metrics.energy.busy_cpu_secs);
    // Per-job arrival sanity under both.
    for o in base.outcomes.iter().chain(&dvfs.outcomes) {
        assert!(o.start >= o.arrival);
    }
}

#[test]
fn energy_saving_band_matches_paper_on_midload_workload() {
    // The paper's headline: 7–18 % average CPU energy reduction. SDSC-Blue
    // (mid load) with the medium config must land in a generous band around
    // that range.
    let mut sc = Scenario::synthetic("blue", ProfileName::SdscBlue, 1500, 2010);
    let base = run(&sc).run;
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    let dvfs = run(&sc).run;
    let saving = 1.0
        - dvfs
            .metrics
            .energy
            .normalized_computational(&base.metrics.energy);
    assert!(
        (0.04..=0.35).contains(&saving),
        "mid-load saving out of band: {saving}"
    );
}

#[test]
fn boost_extension_bounds_wait_inflation() {
    // With dynamic boost at a tight queue limit, the DVFS-induced wait
    // inflation must shrink relative to the un-boosted policy.
    let mut sc = scaled(ProfileName::LlnlThunder, 96, 13, 500);
    sc.policy = bsld(3.0, WqThreshold::NoLimit);
    let plain = run(&sc).run;
    sc.power.boost = Some(2);
    let boosted = run(&sc).run;
    validate_schedule(&boosted.outcomes, 96).unwrap();
    assert!(
        boosted.metrics.avg_wait_secs <= plain.metrics.avg_wait_secs + 1.0,
        "boost must not increase waits: {} vs {}",
        boosted.metrics.avg_wait_secs,
        plain.metrics.avg_wait_secs
    );
}
