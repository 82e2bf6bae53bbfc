//! Pass elision under a power hook.
//!
//! A hooked EASY run keeps pass elision until the hook first intervenes
//! (a veto, a down-gear, or an admission whose start the engine declines)
//! and never batches same-instant arrivals. The reference scheduler
//! (`tests/reference/`) models no hooks, so the oracle here is the engine
//! itself forced onto one full pass per event by
//! `EngineConfig::collect_trace`: outcomes must be equal, and so must the
//! power report (`{:?}`, cap counters included), since the hook must see
//! the same calls with the same answers either way.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod common;

use bsld::cluster::{Cluster, GearSet, SelectionPolicy};
use bsld::core::scenario::{PolicySpec, ProfileName, Scenario, ScenarioResult, SleepSpec};
use bsld::core::{BsldThresholdPolicy, PowerAwareConfig, WqThreshold};
use bsld::model::{GearId, Job};
use bsld::power::{BetaModel, PaperDvfs};
use bsld::powercap::{PowerCap, PowerCapPolicy, PowerReport, SleepConfig};
use bsld::sched::{
    simulate, simulate_with_hook, EngineConfig, FixedGearPolicy, FrequencyPolicy, NoopHook,
    SimError, SimResult,
};
use bsld::simkernel::Time;
use common::{bsld, scaled};
use proptest::prelude::*;

const JOBS: usize = 300;
const CPUS: u32 = 64;

/// 300 SDSC-Blue-like jobs on 64 cpus with the power ledger observing.
fn observed() -> Scenario {
    let mut sc = scaled(ProfileName::SdscBlue, CPUS, 47, JOBS);
    sc.power.observe = true;
    sc
}

/// Runs `sc` as given and forced onto full passes, asserts equal outcomes
/// and power reports, and returns the run as given.
fn assert_matches_full_passes(sc: &Scenario) -> ScenarioResult {
    let mut full = sc.clone();
    full.engine.trace = true;
    let elided = common::run(sc);
    let full = common::run(&full);
    assert_eq!(full.run.pass_stats.passes_skipped, 0);
    assert_eq!(elided.run.outcomes, full.run.outcomes, "{}", sc.name);
    assert_eq!(
        format!("{:?}", elided.power),
        format!("{:?}", full.power),
        "{}",
        sc.name
    );
    elided
}

#[test]
fn hooked_scenarios_match_full_passes() {
    use SelectionPolicy::{ContiguousFirstFit as Contiguous, FirstFit};
    use SleepSpec::{None as Awake, Paper};
    // (label, cap fraction, soft escape, sleep, selection)
    let cases = [
        ("uncapped", None, None, Awake, FirstFit),
        ("uncapped+sleep", None, None, Paper, FirstFit),
        ("hard", Some(0.6), None, Awake, FirstFit),
        ("hard+sleep", Some(0.6), None, Paper, FirstFit),
        ("soft", Some(0.5), Some(4), Awake, FirstFit),
        ("hard+contiguous", Some(0.7), None, Awake, Contiguous),
    ];
    for (label, cap, soft, sleep, selection) in cases {
        for policy in [PolicySpec::Baseline, bsld(2.0, WqThreshold::NoLimit)] {
            let mut sc = observed();
            sc.name = format!("{label} {policy:?}");
            sc.power.cap_fraction = cap;
            sc.power.soft_wq_escape = soft;
            sc.power.sleep = sleep.clone();
            sc.engine.selection = selection;
            sc.policy = policy;
            let res = assert_matches_full_passes(&sc);
            let stats = res.power.unwrap().cap;
            if cap.is_none() {
                // An uncapped hook never intervenes: elision lasts the run.
                assert!(res.run.pass_stats.passes_skipped > 0, "{}", sc.name);
            } else {
                // The cap binds, so the run crossed from elided to full
                // passes at its first intervention.
                assert!(stats.deferrals + stats.downgears > 0, "{}", sc.name);
            }
        }
    }
}

#[test]
fn uncapped_observed_run_keeps_the_unobserved_fast_path() {
    for policy in [PolicySpec::Baseline, bsld(2.0, WqThreshold::NoLimit)] {
        let mut sc = observed();
        sc.policy = policy;
        sc.power.sleep = SleepSpec::Paper;
        let w = sc.build_workload().unwrap();
        assert!(
            w.jobs.windows(2).all(|p| p[0].arrival < p[1].arrival),
            "the workload must have distinct arrival instants"
        );
        let observed = common::run(&sc);
        let mut plain = sc.clone();
        plain.power = Default::default();
        let plain = common::run(&plain);
        assert!(observed.power.is_some() && plain.power.is_none());
        assert_eq!(observed.run.outcomes, plain.run.outcomes);
        // Without same-instant arrivals there is nothing to batch, so the
        // observed run takes exactly the unobserved run's passes.
        assert_eq!(observed.run.pass_stats, plain.run.pass_stats);
        assert!(plain.run.pass_stats.passes_skipped > 0);
    }
}

/// `j(id, arrival, cpus, runtime, requested)`.
fn j(id: u32, arrival: u64, cpus: u32, runtime: u64, requested: u64) -> Job {
    Job::new(id, Time(arrival), cpus, runtime, requested)
}

/// A bursty workload (same-instant arrivals in threes) with contention,
/// exact estimates and early finishes.
fn bursty(n: u32) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let runtime = 20 + (u64::from(i) * 37) % 400;
            let requested = runtime
                + if i % 5 == 0 {
                    0
                } else {
                    (u64::from(i) * 13) % 600
                };
            j(i, u64::from(i / 3) * 7, 1 + i % 7, runtime, requested)
        })
        .collect()
}

#[test]
fn noop_hook_equals_no_hook() {
    let jobs = bursty(120);
    let cluster = Cluster::new("noop", 8, GearSet::paper());
    let tm = BetaModel::new(GearSet::paper());
    let policy = FixedGearPolicy::new(GearSet::paper().top());
    let cfg = EngineConfig::default();
    let plain = simulate(&cluster, &jobs, &policy, &tm, &cfg).unwrap();
    let hooked = simulate_with_hook(&cluster, &jobs, &policy, &tm, &cfg, &mut NoopHook).unwrap();
    assert_eq!(hooked.outcomes, plain.outcomes);
    assert_eq!(hooked.makespan, plain.makespan);
    assert!(hooked.stats.passes_skipped > 0, "{:?}", hooked.stats);
}

/// A hooked run: its result and power report, or the engine's error.
type Run = Result<(SimResult, PowerReport), SimError>;

/// Runs `jobs` under a [`PowerCapPolicy`] as configured, then forced onto
/// full passes.
fn elided_and_full(
    jobs: &[Job],
    cpus: u32,
    policy: &dyn FrequencyPolicy,
    cfg: &EngineConfig,
    cap: PowerCap,
    sleep: SleepConfig,
) -> [Run; 2] {
    let full = EngineConfig {
        collect_trace: true,
        ..cfg.clone()
    };
    [cfg, &full].map(|cfg| {
        let gears = GearSet::paper();
        let pm = PaperDvfs::paper(gears.clone());
        let mut hook = PowerCapPolicy::new(&pm, cpus, cap, sleep.clone());
        let cluster = Cluster::new("hooked", cpus, gears.clone());
        let tm = BetaModel::new(gears);
        let res = simulate_with_hook(&cluster, jobs, policy, &tm, cfg, &mut hook)?;
        let report = hook.into_report(res.makespan.as_secs());
        Ok((res, report))
    })
}

/// How two runs differ, if they do: outcomes, power reports (`{:?}`, cap
/// counters included) or errors.
fn difference([a, b]: &[Run; 2]) -> Option<String> {
    match (a, b) {
        (Ok((ra, pa)), Ok((rb, pb))) => {
            let (pa, pb) = (format!("{pa:?}"), format!("{pb:?}"));
            if ra.outcomes != rb.outcomes {
                Some("outcomes differ".to_string())
            } else {
                (pa != pb).then(|| format!("power reports differ:\n{pa}\n{pb}"))
            }
        }
        (Err(ea), Err(eb)) => (ea != eb).then(|| format!("errors differ: {ea} / {eb}")),
        _ => Some(format!(
            "one run failed: {:?} / {:?}",
            a.as_ref().err(),
            b.as_ref().err()
        )),
    }
}

/// The budget at which `busy` of `cpus` processors draw at gear 0 and the
/// rest idle (no sleep states).
fn budget_at_gear0(cpus: u32, busy: f64) -> f64 {
    let pm = PaperDvfs::paper(GearSet::paper());
    f64::from(cpus) * pm.p_idle() + busy * (pm.p_active(GearId(0)) - pm.p_idle())
}

#[test]
fn soft_cap_sees_same_instant_arrivals_one_at_a_time() {
    // J0 holds 8 of 16 cpus. At t=10 J1 (8 cpus) and J2 (1 cpu) arrive
    // together onto an empty queue, and J1 is over budget at every gear.
    // Offered alone (wq_others = 0), J1 is deferred; J2's arrival then
    // opens the escape hatch (wq_others = 1 > 0) and J1 starts at gear 0.
    // Batched, J1 would see wq_others = 1 at once and skip the deferral.
    let pm = PaperDvfs::paper(GearSet::paper());
    let top = GearSet::paper().top();
    let budget = 16.0 * pm.p_idle()
        + 8.0 * (pm.p_active(top) - pm.p_idle())
        + 4.0 * (pm.p_active(GearId(0)) - pm.p_idle());
    let jobs = vec![
        j(0, 0, 8, 1000, 1000),
        j(1, 10, 8, 100, 100),
        j(2, 10, 1, 100, 100),
    ];
    let cap = PowerCap::Soft {
        budget,
        wq_escape: 0,
    };
    let runs = elided_and_full(
        &jobs,
        16,
        &FixedGearPolicy::new(top),
        &EngineConfig::default(),
        cap,
        SleepConfig::none(),
    );
    assert_eq!(difference(&runs), None);
    let stats = runs[1].as_ref().unwrap().1.cap;
    assert_eq!((stats.deferrals, stats.soft_violations), (1, 1));
}

#[test]
fn declined_start_ends_elision() {
    // Contiguous selection on 8 cpus, everything at gear 0, a hard budget
    // of 7.5 busy processors. Long jobs pin cpus 1, 3, 5 and (from t=100)
    // 6-7, leaving 0, 2, 4 free. H (4 cpus) blocks the queue. X (2 cpus)
    // fits the count and the budget but finds no contiguous block: the
    // hook admitted a start the engine declined. Y (1 cpu) then starts on
    // cpu 0 and raises the draw, so at Z's arrival a full pass re-offers X
    // and the hook defers it (6 busy + 2 > 7.5). A run that kept eliding
    // would offer only Z and miss that deferral.
    let jobs = vec![
        j(0, 0, 1, 10, 10),       // cpu 0, short
        j(1, 0, 1, 5000, 5000),   // cpu 1
        j(2, 0, 1, 10, 10),       // cpu 2, short
        j(3, 0, 1, 5000, 5000),   // cpu 3
        j(4, 0, 1, 10, 10),       // cpu 4, short
        j(5, 0, 1, 5000, 5000),   // cpu 5
        j(6, 100, 2, 5000, 5000), // W: cpus 6-7
        j(7, 101, 4, 100, 100),   // H: blocks the queue
        j(8, 102, 2, 50, 50),     // X: no contiguous block
        j(9, 103, 1, 50, 50),     // Y: cpu 0
        j(10, 104, 1, 50, 50),    // Z
    ];
    let cfg = EngineConfig {
        selection: SelectionPolicy::ContiguousFirstFit,
        ..Default::default()
    };
    let cap = PowerCap::Hard {
        budget: budget_at_gear0(8, 7.5),
    };
    let runs = elided_and_full(
        &jobs,
        8,
        &FixedGearPolicy::new(GearId(0)),
        &cfg,
        cap,
        SleepConfig::none(),
    );
    assert_eq!(difference(&runs), None);
    // The run elided passes before X's declined start.
    let stats = runs[0].as_ref().unwrap().0.stats;
    assert!(stats.passes_skipped > 0, "{stats:?}");
}

/// Up to 40 random jobs on a coarse arrival grid (same-instant bursts are
/// common) on 16 cpus; a third with exact estimates.
fn arb_jobs() -> impl Strategy<Value = Vec<(u64, u32, u64, u64, u8)>> {
    proptest::collection::vec(
        (0u64..25, 1u32..=16, 1u64..2_000, 0u64..2_000, 0u8..3),
        1..41,
    )
}

/// ((cap kind, cap fraction, soft escape, sleep), (selection, policy,
/// BSLD threshold, backfill)).
type ArbConfig = ((u8, f64, usize, bool), (u8, u8, f64, bool));

fn arb_config() -> impl Strategy<Value = ArbConfig> {
    (
        (0u8..3, 0.2f64..=1.0, 0usize..4, proptest::bool::ANY),
        (0u8..3, 0u8..3, 1.0f64..=4.0, proptest::bool::ANY),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Random hooked runs equal the same runs forced onto full passes:
    /// outcomes, power reports and stall errors alike.
    #[test]
    fn random_hooked_runs_match_full_passes(raw in arb_jobs(), cfg in arb_config()) {
        let ((kind, fraction, escape, sleep), (sel, pol, th, backfill)) = cfg;
        let mut raw = raw;
        raw.sort_by_key(|r| r.0);
        let jobs: Vec<Job> = raw
            .iter()
            .enumerate()
            .map(|(i, &(slot, cpus, runtime, slack, shape))| {
                let slack = if shape == 0 { 0 } else { slack };
                j(i as u32, slot * 120, cpus, runtime, runtime + slack)
            })
            .collect();
        let budget = fraction * PowerCapPolicy::peak_draw(&PaperDvfs::paper(GearSet::paper()), 16);
        let cap = match kind {
            0 => PowerCap::Uncapped,
            1 => PowerCap::Hard { budget },
            _ => PowerCap::Soft { budget, wq_escape: escape },
        };
        let sleep = if sleep { SleepConfig::paper_default() } else { SleepConfig::none() };
        let engine = EngineConfig {
            backfill,
            selection: match sel {
                0 => SelectionPolicy::FirstFit,
                1 => SelectionPolicy::LastFit,
                _ => SelectionPolicy::ContiguousFirstFit,
            },
            ..Default::default()
        };
        let top = FixedGearPolicy::new(GearSet::paper().top());
        let low = FixedGearPolicy::new(GearId(0));
        let bsld = BsldThresholdPolicy::new(PowerAwareConfig {
            bsld_threshold: th,
            wq_threshold: WqThreshold::NoLimit,
        });
        let policy: &dyn FrequencyPolicy = match pol {
            0 => &top,
            1 => &low,
            _ => &bsld,
        };
        let runs = elided_and_full(&jobs, 16, policy, &engine, cap, sleep);
        prop_assert_eq!(difference(&runs), None, "{:?} {:?}", cap, engine);
    }
}
