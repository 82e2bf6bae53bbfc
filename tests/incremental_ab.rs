//! A/B determinism harness: the incremental scheduling engine vs the full
//! re-scheduling oracle.
//!
//! `EngineConfig::incremental = false` preserves the pre-refactor
//! behaviour — every event rebuilds the availability profile and re-runs
//! the whole pass. These tests replay the paper's grid (Figs. 3–5) and
//! enlarged-system (Figs. 7–9) experiment shapes at reduced scale and
//! assert the incremental engine produces **bit-identical**
//! `SimResult.outcomes`, while doing measurably fewer full profile
//! rebuilds (counters exposed via `SimResult::stats` /
//! `RunResult::pass_stats`).

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{PolicySpec, ProfileName, RunCtx, Scenario};
use bsld::core::{PowerAwareConfig, RunResult, Simulator, WqThreshold};
use bsld::model::Job;
use bsld::sched::SchedMode;
use bsld::simkernel::Time;

const AB_JOBS: usize = 250;
const AB_SEED: u64 = 2010;

fn scenario(profile: ProfileName) -> Scenario {
    Scenario::synthetic(profile.display_name(), profile, AB_JOBS, AB_SEED)
}

/// Runs `sc` on the incremental engine and on the full re-scan oracle.
fn incremental_and_oracle(sc: &Scenario) -> (RunResult, RunResult) {
    let mut oracle = sc.clone();
    oracle.engine.incremental = false;
    let ctx = RunCtx::default();
    (sc.run(&ctx).unwrap().run, oracle.run(&ctx).unwrap().run)
}

#[test]
fn grid_outcomes_bit_identical() {
    // The grid sweep: every workload × BSLD threshold × WQ threshold, plus
    // the no-DVFS baseline, incremental vs full re-scan.
    let thresholds = [1.5, 3.0];
    let wqs = [
        WqThreshold::Limit(0),
        WqThreshold::Limit(16),
        WqThreshold::NoLimit,
    ];
    for profile in ProfileName::ALL {
        let mut sc = scenario(profile);
        let (a, b) = incremental_and_oracle(&sc);
        assert_eq!(a.outcomes, b.outcomes, "{}: baseline diverged", sc.name);

        for bt in thresholds {
            for wq in wqs {
                let cfg = PowerAwareConfig {
                    bsld_threshold: bt,
                    wq_threshold: wq,
                };
                sc.policy = PolicySpec::from(cfg);
                let (a, b) = incremental_and_oracle(&sc);
                assert_eq!(
                    a.outcomes,
                    b.outcomes,
                    "{}: diverged at {}",
                    sc.name,
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn enlarged_outcomes_bit_identical() {
    // The enlarged-systems sweep shape: BSLD threshold 2, WQ ∈ {0, NO},
    // machine enlarged by the paper's sizes.
    for profile in [ProfileName::SdscBlue, ProfileName::Ctc] {
        let mut sc = scenario(profile);
        for pct in [10, 50, 125] {
            for wq in [WqThreshold::Limit(0), WqThreshold::NoLimit] {
                let cfg = PowerAwareConfig {
                    bsld_threshold: 2.0,
                    wq_threshold: wq,
                };
                sc.policy = PolicySpec::from(cfg);
                sc.cluster.enlarge_pct = pct;
                let (a, b) = incremental_and_oracle(&sc);
                assert_eq!(
                    a.outcomes,
                    b.outcomes,
                    "{} +{}%: diverged at {}",
                    sc.name,
                    pct,
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn conservative_outcomes_bit_identical() {
    let mut sc = scenario(ProfileName::Sdsc);
    sc.engine.mode = SchedMode::Conservative;
    let (a, b) = incremental_and_oracle(&sc);
    assert_eq!(a.outcomes, b.outcomes);
}

/// A deliberately saturated workload: arrivals outpace service so the
/// queue stays deep — the regime where the incremental engine's skip and
/// in-place updates pay off.
fn saturated_workload(n: u32) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let arrival = (i as u64 / 4) * 15; // bursts of four every 15 s
            let cpus = 1 + i % 8;
            let runtime = 300 + (i as u64 * 41) % 900;
            let requested = runtime + 100 + (i as u64 * 17) % 1200;
            Job::new(i, Time(arrival), cpus, runtime, requested)
        })
        .collect()
}

#[test]
fn saturated_load_halves_profile_rebuilds() {
    // The acceptance gate at test scale (the criterion bench replays it at
    // 10k jobs): outcomes identical, and the incremental engine performs
    // at least 2x fewer full profile rebuilds than the oracle.
    let jobs = saturated_workload(2_000);
    // Hand-built jobs: the baseline scenario's kernel runs them directly.
    let baseline = Scenario::synthetic("saturated", ProfileName::Ctc, 0, 0);
    let sim = Simulator::paper_default("saturated", 32);
    let mut oracle = sim.clone();
    oracle.engine.incremental = false;
    let incr = baseline.run_prepared(&sim, &jobs).unwrap().run;
    let full = baseline.run_prepared(&oracle, &jobs).unwrap().run;

    assert_eq!(incr.outcomes, full.outcomes, "outcomes must be identical");
    assert_eq!(full.pass_stats.passes_skipped, 0);
    assert!(incr.pass_stats.passes_skipped > 0);
    assert!(
        2 * incr.pass_stats.profile_rebuilds <= full.pass_stats.profile_rebuilds,
        "expected >= 2x fewer rebuilds: incremental {} vs full {}",
        incr.pass_stats.profile_rebuilds,
        full.pass_stats.profile_rebuilds
    );
}
