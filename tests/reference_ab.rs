//! Differential tests: the scheduling engine against a naive reference.
//!
//! `reference` (`tests/reference/mod.rs`) re-implements the scheduling
//! substrates and the paper's policies from their definitions, with one
//! full pass per event and no index, cache or pass elision. These tests
//! replay the paper's grid (Figs. 3–5) and enlarged-system (Figs. 7–9)
//! experiment shapes at reduced scale, hand-built stress shapes and random
//! workloads, and assert the engine's outcome streams are
//! **bit-identical** to the reference's, while the engine rebuilds its
//! availability profile measurably less often than the reference builds
//! one (counters via `RunResult::pass_stats`).

#![allow(clippy::unwrap_used, clippy::float_cmp)]

mod reference;

use bsld::cluster::{Cluster, SelectionPolicy};
use bsld::core::scenario::{GearSpec, PolicySpec, ProfileName, Scenario};
use bsld::core::{PowerAwareConfig, RunResult, Simulator, WqThreshold};
use bsld::model::{GearId, Job};
use bsld::sched::{EngineConfig, SchedMode};
use bsld::simkernel::Time;
use proptest::prelude::*;

const AB_JOBS: usize = 250;
const AB_SEED: u64 = 2010;

/// The reference configuration for `sim`'s machine and engine under
/// `policy`.
fn reference_config(sim: &Simulator, policy: PolicySpec) -> reference::Config {
    let top = sim.time_model.gears().top();
    reference::Config {
        cpus: sim.cluster.cpus,
        mode: match (sim.engine.mode, sim.engine.backfill) {
            (SchedMode::Conservative, _) => reference::Mode::Conservative,
            (SchedMode::Easy, true) => reference::Mode::Easy,
            (SchedMode::Easy, false) => reference::Mode::Fcfs,
        },
        selection: match sim.engine.selection {
            SelectionPolicy::FirstFit => reference::Selection::FirstFit,
            SelectionPolicy::LastFit => reference::Selection::LastFit,
            SelectionPolicy::ContiguousFirstFit => reference::Selection::Contiguous,
        },
        policy: match policy {
            PolicySpec::Baseline => reference::Policy::Fixed(top),
            PolicySpec::FixedGear(g) => reference::Policy::Fixed(GearId(g.min(top.0))),
            PolicySpec::BsldThreshold { th, wq } => reference::Policy::Bsld {
                th,
                wq: match wq {
                    WqThreshold::Limit(k) => Some(k),
                    WqThreshold::NoLimit => None,
                },
            },
        },
    }
}

/// Runs `jobs` on `sim` under `policy`, through the engine (the scenario
/// kernel) and through the reference.
fn engine_and_reference(
    sim: &Simulator,
    policy: PolicySpec,
    jobs: &[Job],
) -> (RunResult, reference::Run) {
    let mut sc = Scenario::synthetic("ab", ProfileName::Ctc, 0, 0);
    sc.policy = policy;
    let engine = sc.run_prepared(sim, jobs).unwrap().run;
    let reference = reference::run(jobs, &sim.time_model, &reference_config(sim, policy));
    (engine, reference)
}

/// Asserts the engine and the reference agree to the bit on `jobs`.
fn assert_matches_reference(sim: &Simulator, policy: PolicySpec, jobs: &[Job], what: &str) {
    let (engine, reference) = engine_and_reference(sim, policy, jobs);
    assert_eq!(engine.outcomes, reference.outcomes, "{what}: diverged");
}

#[test]
fn grid_outcomes_bit_identical() {
    // The grid sweep: every workload × BSLD threshold × WQ threshold, plus
    // the no-DVFS baseline.
    let thresholds = [1.5, 3.0];
    let wqs = [
        WqThreshold::Limit(0),
        WqThreshold::Limit(16),
        WqThreshold::NoLimit,
    ];
    for profile in ProfileName::ALL {
        let sc = Scenario::synthetic(profile.display_name(), profile, AB_JOBS, AB_SEED);
        let w = sc.build_workload().unwrap();
        let sim = sc.simulator(&w).unwrap();
        assert_matches_reference(&sim, PolicySpec::Baseline, &w.jobs, &sc.name);
        for bt in thresholds {
            for wq in wqs {
                let cfg = PowerAwareConfig {
                    bsld_threshold: bt,
                    wq_threshold: wq,
                };
                let what = format!("{} at {}", sc.name, cfg.label());
                assert_matches_reference(&sim, PolicySpec::from(cfg), &w.jobs, &what);
            }
        }
    }
}

#[test]
fn enlarged_outcomes_bit_identical() {
    // The enlarged-systems sweep shape: BSLD threshold 2, WQ ∈ {0, NO},
    // machine enlarged by the paper's sizes.
    for profile in [ProfileName::SdscBlue, ProfileName::Ctc] {
        let mut sc = Scenario::synthetic(profile.display_name(), profile, AB_JOBS, AB_SEED);
        let w = sc.build_workload().unwrap();
        for pct in [10, 50, 125] {
            sc.cluster.enlarge_pct = pct;
            let sim = sc.simulator(&w).unwrap();
            for wq in [WqThreshold::Limit(0), WqThreshold::NoLimit] {
                let policy = PolicySpec::BsldThreshold { th: 2.0, wq };
                let what = format!("{} +{pct}% at 2/{wq}", sc.name);
                assert_matches_reference(&sim, policy, &w.jobs, &what);
            }
        }
    }
}

#[test]
fn conservative_outcomes_bit_identical() {
    let mut sc = Scenario::synthetic("SDSC", ProfileName::Sdsc, AB_JOBS, AB_SEED);
    sc.engine.mode = SchedMode::Conservative;
    let w = sc.build_workload().unwrap();
    let sim = sc.simulator(&w).unwrap();
    assert_matches_reference(&sim, PolicySpec::Baseline, &w.jobs, "conservative");
}

/// A deliberately saturated workload: arrivals outpace service so the
/// queue stays deep — the regime where the engine's skip and in-place
/// updates pay off.
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
    // Outcomes identical, and the engine rebuilds its profile at most half
    // as often as the reference builds one (once per pass that reserves).
    let jobs = saturated_workload(2_000);
    let sim = Simulator::paper_default("saturated", 32);
    let (engine, reference) = engine_and_reference(&sim, PolicySpec::Baseline, &jobs);
    assert_eq!(
        engine.outcomes, reference.outcomes,
        "outcomes must be identical"
    );
    assert!(engine.pass_stats.passes_skipped > 0);
    assert!(
        2 * engine.pass_stats.profile_rebuilds <= reference.profile_passes,
        "expected >= 2x fewer rebuilds: engine {} vs reference {}",
        engine.pass_stats.profile_rebuilds,
        reference.profile_passes
    );
}

/// A workload mixing bursts, contention, exact estimates and early
/// finishes — the A/B stress shape.
fn ab_workload(n: u32) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let arrival = (i as u64 / 3) * 7; // same-instant bursts of 3
            let cpus = 1 + i % 7;
            let runtime = 20 + (i as u64 * 37) % 400;
            let requested = if i % 5 == 0 {
                runtime // exact estimate
            } else {
                runtime + (i as u64 * 13) % 600
            };
            Job::new(i, Time(arrival), cpus, runtime, requested)
        })
        .collect()
}

/// The stress shape's machine: 8 paper-gear cpus under `engine`.
fn ab_machine(engine: EngineConfig) -> Simulator {
    let mut sim = Simulator::paper_default("ab", 8);
    sim.engine = engine;
    sim
}

#[test]
fn engine_matches_reference_easy() {
    let jobs = ab_workload(120);
    let sim = ab_machine(EngineConfig::default());
    let (engine, reference) = engine_and_reference(&sim, PolicySpec::Baseline, &jobs);
    assert_eq!(
        engine.outcomes, reference.outcomes,
        "outcomes must be bit-identical"
    );
    assert!(
        engine.pass_stats.profile_rebuilds < reference.profile_passes,
        "the engine must rebuild less: {} vs {}",
        engine.pass_stats.profile_rebuilds,
        reference.profile_passes
    );
    assert!(
        engine.pass_stats.passes_skipped > 0,
        "saturation must skip passes"
    );
}

#[test]
fn engine_matches_reference_conservative() {
    let sim = ab_machine(EngineConfig {
        mode: SchedMode::Conservative,
        ..Default::default()
    });
    assert_matches_reference(
        &sim,
        PolicySpec::Baseline,
        &ab_workload(100),
        "conservative",
    );
}

#[test]
fn engine_matches_reference_without_backfill() {
    let sim = ab_machine(EngineConfig {
        backfill: false,
        ..Default::default()
    });
    let (engine, reference) = engine_and_reference(&sim, PolicySpec::Baseline, &ab_workload(90));
    assert_eq!(engine.outcomes, reference.outcomes);
    assert_eq!(
        engine.pass_stats.profile_rebuilds, 0,
        "FCFS reservations are bookkeeping only; no rebuild needed"
    );
}

#[test]
fn engine_matches_reference_under_reduced_gear_policy() {
    // A fixed reduced gear dilates every duration; elision still holds.
    let sim = ab_machine(EngineConfig::default());
    assert_matches_reference(&sim, PolicySpec::FixedGear(1), &ab_workload(80), "gear 1");
}

#[test]
fn contiguous_selection_disables_stale_reservations() {
    // Fragmentation forces reservations that start "now"; the cache must
    // refuse to reuse them and outcomes must stay identical.
    let sim = ab_machine(EngineConfig {
        selection: SelectionPolicy::ContiguousFirstFit,
        ..Default::default()
    });
    assert_matches_reference(&sim, PolicySpec::Baseline, &ab_workload(60), "contiguous");
}

#[test]
fn same_instant_arrivals_without_backfill_each_see_their_own_queue() {
    // Two 4-cpu, 1000 s jobs arrive together on an idle 16-cpu machine
    // under BSLD 2/0 without backfilling. Each starts in its own pass with
    // no other job waiting, so the WQ gate admits DVFS for both. Batching
    // the arrivals into one pass would count job 1 as waiting while job 0
    // picks its gear, closing the gate on job 0.
    let jobs = vec![
        Job::new(0, Time(0), 4, 1000, 1000),
        Job::new(1, Time(0), 4, 1000, 1000),
    ];
    let mut sim = Simulator::paper_default("burst", 16);
    sim.engine.backfill = false;
    let policy = PolicySpec::BsldThreshold {
        th: 2.0,
        wq: WqThreshold::Limit(0),
    };
    let (engine, reference) = engine_and_reference(&sim, policy, &jobs);
    let gears: Vec<GearId> = engine.outcomes.iter().map(|o| o.gear).collect();
    let finishes: Vec<Time> = engine.outcomes.iter().map(|o| o.finish).collect();
    assert_eq!(gears, [GearId(0), GearId(0)]);
    assert_eq!(finishes, [Time(1937), Time(1937)]);
    assert_eq!(engine.outcomes, reference.outcomes);
}

/// Up to 60 random jobs on a coarse arrival grid (so same-instant bursts
/// are common), a third with exact estimates and one in eight overrunning
/// its estimate (killed at the request).
fn arb_jobs() -> impl Strategy<Value = Vec<(u64, u32, u64, u64, u8, f64)>> {
    proptest::collection::vec(
        (
            0u64..40,
            1u32..=16,
            1u64..3_000,
            0u64..3_000,
            0u8..24,
            0.0f64..=1.0,
        ),
        1..61,
    )
}

/// A random engine configuration: (mode, selection, policy, BSLD threshold,
/// WQ limit, gear set, per-job β).
fn arb_config() -> impl Strategy<Value = (u8, u8, u8, f64, usize, u8, bool)> {
    (
        0u8..3,
        0u8..3,
        0u8..5,
        1.0f64..=4.0,
        1usize..8,
        0u8..4,
        proptest::bool::ANY,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random small workloads over every mode, selection policy, policy
    /// family and gear set: the engine's outcomes equal the reference's.
    #[test]
    fn random_workloads_match_reference(raw in arb_jobs(), cfg in arb_config()) {
        let (mode, sel, pol, th, k, gears, per_job_beta) = cfg;
        let mut raw = raw;
        raw.sort_by_key(|r| r.0);
        let jobs: Vec<Job> = raw
            .iter()
            .enumerate()
            .map(|(i, &(slot, cpus, runtime, slack, shape, beta))| {
                let slack = if shape % 3 == 0 { 0 } else { slack };
                let mut job = Job::new(i as u32, Time(slot * 300), cpus, runtime, runtime + slack);
                if shape % 8 == 1 {
                    job.runtime = job.requested + 1 + slack / 2;
                }
                if per_job_beta {
                    job = job.with_beta(beta);
                }
                job
            })
            .collect();
        let gears = match gears {
            0 => GearSpec::Paper,
            n => GearSpec::Interpolated(n + 1),
        };
        let mut sim = Simulator::with_cluster(Cluster::new("prop", 16, gears.build()));
        sim.engine.mode = if mode == 2 { SchedMode::Conservative } else { SchedMode::Easy };
        sim.engine.backfill = mode != 1;
        sim.engine.selection = match sel {
            0 => SelectionPolicy::FirstFit,
            1 => SelectionPolicy::LastFit,
            _ => SelectionPolicy::ContiguousFirstFit,
        };
        let policy = match pol {
            0 => PolicySpec::Baseline,
            1 => PolicySpec::FixedGear(0),
            2 => PolicySpec::BsldThreshold { th, wq: WqThreshold::NoLimit },
            3 => PolicySpec::BsldThreshold { th, wq: WqThreshold::Limit(0) },
            _ => PolicySpec::BsldThreshold { th, wq: WqThreshold::Limit(k) },
        };
        let (engine, reference) = engine_and_reference(&sim, policy, &jobs);
        prop_assert_eq!(
            engine.outcomes, reference.outcomes,
            "mode {} selection {:?} policy {:?} gears {:?}",
            mode, sim.engine.selection, policy, gears
        );
    }
}
