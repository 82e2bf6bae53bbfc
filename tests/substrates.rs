//! Integration tests: scheduling substrates beyond the paper's EASY —
//! conservative backfilling and resource selection policies — exercised at
//! workload scale through the facade.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod common;

use bsld::cluster::SelectionPolicy;
use bsld::core::scenario::{PolicySpec, ProfileName, Scenario};
use bsld::core::{PowerAwareConfig, WqThreshold};
use bsld::sched::{validate_schedule, SchedMode};
use common::{bsld, run, scaled};

#[test]
fn conservative_absorbs_dvfs_feedback_better_than_easy() {
    // The reproduction's headline extra finding: conservative backfilling's
    // duration-aware per-job reservations price the DVFS dilation into
    // every allocation, which dampens the wait-feedback loop that hurts
    // EASY at aggressive settings.
    let mut sc = Scenario::synthetic("blue", ProfileName::SdscBlue, 1500, 2010);
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    let easy = run(&sc).run.metrics;
    sc.engine.mode = SchedMode::Conservative;
    let cons = run(&sc).run.metrics;
    assert!(
        cons.avg_bsld <= easy.avg_bsld,
        "conservative should absorb the feedback: {} vs {}",
        cons.avg_bsld,
        easy.avg_bsld
    );
    // At comparable energy (within a few percent).
    let ratio = cons.energy.computational / easy.energy.computational;
    assert!((0.9..=1.1).contains(&ratio), "energy ratio {ratio}");
}

#[test]
fn conservative_baseline_close_to_easy_on_moderate_load() {
    let mut sc = Scenario::synthetic("ctc", ProfileName::Ctc, 1200, 7);
    let cpus = sc.build_workload().unwrap().cpus;
    let easy = run(&sc).run;
    sc.engine.mode = SchedMode::Conservative;
    let cons = run(&sc).run;
    validate_schedule(&cons.outcomes, cpus).unwrap();
    // Conservative sacrifices some backfilling; waits may rise, but the
    // schedules live in the same regime (classic EASY-vs-conservative
    // result from the backfilling literature).
    assert!(cons.metrics.avg_wait_secs >= easy.metrics.avg_wait_secs * 0.8);
    assert!(cons.metrics.avg_wait_secs <= easy.metrics.avg_wait_secs * 3.0 + 600.0);
}

#[test]
fn contiguous_selection_costs_throughput() {
    let mut sc = Scenario::synthetic("sdsc", ProfileName::Sdsc, 800, 11);
    let cpus = sc.build_workload().unwrap().cpus;
    let ff = run(&sc).run;
    sc.engine.selection = SelectionPolicy::ContiguousFirstFit;
    let contig = run(&sc).run;
    validate_schedule(&contig.outcomes, cpus).unwrap();
    assert!(
        contig.metrics.avg_wait_secs >= ff.metrics.avg_wait_secs,
        "fragmentation cannot reduce waits: {} vs {}",
        contig.metrics.avg_wait_secs,
        ff.metrics.avg_wait_secs
    );
    assert!(contig.metrics.makespan_secs >= ff.metrics.makespan_secs);
}

#[test]
fn selection_policy_does_not_change_energy_accounting() {
    // Last Fit is schedule-identical to First Fit, so all metrics match
    // exactly (processor identity is invisible to count-based scheduling
    // and to the homogeneous power model).
    let mut sc = scaled(ProfileName::SdscBlue, 64, 13, 400);
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    let ff = run(&sc).run.metrics;
    sc.engine.selection = SelectionPolicy::LastFit;
    let lf = run(&sc).run.metrics;
    assert_eq!(ff.avg_bsld.to_bits(), lf.avg_bsld.to_bits());
    assert_eq!(
        ff.energy.computational.to_bits(),
        lf.energy.computational.to_bits()
    );
    assert_eq!(ff.reduced_jobs, lf.reduced_jobs);
}

#[test]
fn conservative_composes_with_boost() {
    let mut sc = scaled(ProfileName::LlnlThunder, 96, 17, 400);
    sc.policy = bsld(3.0, WqThreshold::NoLimit);
    sc.engine.mode = SchedMode::Conservative;
    let plain = run(&sc).run;
    sc.power.boost = Some(2);
    let boosted = run(&sc).run;
    validate_schedule(&boosted.outcomes, 96).unwrap();
    assert!(boosted.metrics.avg_wait_secs <= plain.metrics.avg_wait_secs + 1.0);
    assert!(boosted.metrics.energy.computational >= plain.metrics.energy.computational - 1e-9);
}
