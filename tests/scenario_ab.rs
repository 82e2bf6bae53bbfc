//! A/B equality harness: the declarative `Scenario` path vs an independent
//! reference wired by hand from the lower crates.
//!
//! The scenario layer must be a pure re-expression: building a workload
//! and simulator from a spec and running through `Scenario::run` has to
//! reproduce, **bit for bit**, what the engine produces when the cluster,
//! power rails, β model, frequency policy and power hook are wired
//! directly: `TraceProfile::generate` + `bsld_sched::simulate` /
//! `simulate_with_hook` + `FixedGearPolicy` / `BsldThresholdPolicy` +
//! `PowerCapPolicy::with_rails` + `RunMetrics::compute`. The reference
//! shares no code with `bsld-core`'s run path, so a wiring bug there (a
//! wrong policy, budget, sleep ladder or sink) shows up here. These tests
//! replay the paper's grid (Figs. 3–5) and the power-cap frontier at
//! reduced scale and compare outcomes, metrics and power series. The test
//! names keep their original "legacy simulator" wording: that side is now
//! the hand-wired [`Reference`].

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::cluster::{Cluster, GearSet};
use bsld::core::experiments::{grid, powercap, ExpOptions};
use bsld::core::scenario::{PolicySpec, ProfileName, RunCtx, Scenario, SleepSpec};
use bsld::core::{BsldThresholdPolicy, PowerAwareConfig, WqThreshold};
use bsld::metrics::RunMetrics;
use bsld::model::{Job, JobOutcome};
use bsld::power::{BetaModel, PaperDvfs, RailSet};
use bsld::powercap::{PowerCap, PowerCapPolicy, PowerReport, SleepConfig};
use bsld::sched::{simulate, simulate_with_hook, EngineConfig, FixedGearPolicy, FrequencyPolicy};
use bsld::workload::profiles::TraceProfile;
use bsld::workload::Workload;

const AB_JOBS: usize = 40;
const AB_SEED: u64 = 2010;

fn reference_profile(name: &str) -> TraceProfile {
    TraceProfile::paper_five()
        .into_iter()
        .find(|p| p.name == name)
        .expect("paper workload")
}

/// The paper's machine for a workload, wired by hand: Table 2 gears, the
/// paper DVFS model on a single CPU rail, β dilation and the default EASY
/// engine.
struct Reference {
    cluster: Cluster,
    rails: RailSet,
    time: BetaModel,
}

impl Reference {
    fn paper(w: &Workload) -> Reference {
        let gears = GearSet::paper();
        Reference {
            cluster: Cluster::new(&w.cluster_name, w.cpus, gears.clone()),
            rails: RailSet::cpu(Box::new(PaperDvfs::paper(gears.clone()))),
            time: BetaModel::new(gears),
        }
    }

    /// The top gear for everyone (`None`) or the paper's policy.
    fn policy(&self, cfg: Option<PowerAwareConfig>) -> Box<dyn FrequencyPolicy> {
        match cfg {
            None => Box::new(FixedGearPolicy::new(self.time.gears().top())),
            Some(c) => Box::new(BsldThresholdPolicy::new(c)),
        }
    }

    fn metrics(&self, outcomes: &[JobOutcome]) -> RunMetrics {
        RunMetrics::compute(
            outcomes,
            &self.rails,
            self.cluster.cpus,
            self.time.gears().len(),
        )
    }

    /// A plain scheduling run.
    fn run(&self, jobs: &[Job], cfg: Option<PowerAwareConfig>) -> (Vec<JobOutcome>, RunMetrics) {
        let policy = self.policy(cfg);
        let engine = EngineConfig::default();
        let res = simulate(&self.cluster, jobs, &*policy, &self.time, &engine).unwrap();
        let metrics = self.metrics(&res.outcomes);
        (res.outcomes, metrics)
    }

    /// A power-instrumented run: the ledger with `sleep`, under a hard
    /// budget of `cap` × peak draw (`None`: uncapped).
    fn run_capped(
        &self,
        jobs: &[Job],
        cfg: Option<PowerAwareConfig>,
        cap: Option<f64>,
        sleep: SleepConfig,
    ) -> (Vec<JobOutcome>, RunMetrics, PowerReport) {
        let cap = match cap {
            None => PowerCap::Uncapped,
            Some(f) => PowerCap::Hard {
                budget: f * PowerCapPolicy::peak_draw(&self.rails, self.cluster.cpus),
            },
        };
        let mut hook = PowerCapPolicy::with_rails(&self.rails, self.cluster.cpus, cap, sleep);
        let policy = self.policy(cfg);
        let engine = EngineConfig::default();
        let res = simulate_with_hook(
            &self.cluster,
            jobs,
            &*policy,
            &self.time,
            &engine,
            &mut hook,
        )
        .unwrap();
        let metrics = self.metrics(&res.outcomes);
        let power = hook.into_report(res.makespan.as_secs());
        (res.outcomes, metrics, power)
    }
}

#[test]
fn scenario_runs_match_legacy_simulator_bit_for_bit() {
    // Cell-level A/B over the grid's parameter shapes, baseline included.
    let cfgs: [Option<PowerAwareConfig>; 3] = [
        None,
        Some(PowerAwareConfig {
            bsld_threshold: 1.5,
            wq_threshold: WqThreshold::Limit(16),
        }),
        Some(PowerAwareConfig::medium()),
    ];
    for profile in [ProfileName::Ctc, ProfileName::Sdsc, ProfileName::SdscBlue] {
        let w = reference_profile(profile.display_name()).generate(AB_SEED, AB_JOBS);
        let reference = Reference::paper(&w);
        for cfg in cfgs {
            let (outcomes, metrics) = reference.run(&w.jobs, cfg);
            let mut sc = Scenario::synthetic("ab", profile, AB_JOBS, AB_SEED);
            if let Some(c) = cfg {
                sc.policy = PolicySpec::from(c);
            }
            let via_scenario = sc.run(&RunCtx::default()).unwrap();
            assert_eq!(
                via_scenario.run.outcomes, outcomes,
                "{profile:?} {cfg:?}: schedules diverged"
            );
            assert_eq!(
                via_scenario.run.metrics.avg_bsld.to_bits(),
                metrics.avg_bsld.to_bits()
            );
            assert_eq!(
                via_scenario.run.metrics.energy.computational.to_bits(),
                metrics.energy.computational.to_bits()
            );
        }
    }
}

#[test]
fn grid_experiment_matches_legacy_simulator_path() {
    // The Scenario-driven grid experiment vs the hand-wired reference, one
    // workload and one engine run per cell.
    let opts = ExpOptions::quick(AB_JOBS);
    let g = grid::run(&opts);
    assert_eq!(g.cells.len(), 5 * 12);
    for (name, base) in &g.baselines {
        let w = reference_profile(name).generate(opts.seed, opts.jobs);
        let reference = Reference::paper(&w);
        let reference_base = reference.run(&w.jobs, None).1;
        assert_eq!(base.avg_bsld.to_bits(), reference_base.avg_bsld.to_bits());
        for &bt in &grid::BSLD_THRESHOLDS {
            for &wq in &grid::WQ_THRESHOLDS {
                let cell = g.cell(name, bt, wq).expect("complete grid");
                let cfg = PowerAwareConfig {
                    bsld_threshold: bt,
                    wq_threshold: wq,
                };
                let cell_ref = reference.run(&w.jobs, Some(cfg)).1;
                assert_eq!(
                    cell.avg_bsld.to_bits(),
                    cell_ref.avg_bsld.to_bits(),
                    "{name} {bt}/{wq:?}"
                );
                assert_eq!(cell.reduced_jobs, cell_ref.reduced_jobs);
                assert_eq!(
                    cell.norm_e_comp.to_bits(),
                    cell_ref
                        .energy
                        .normalized_computational(&reference_base.energy)
                        .to_bits(),
                    "{name} {bt}/{wq:?}: normalised energy"
                );
                assert_eq!(cell.avg_wait.to_bits(), cell_ref.avg_wait_secs.to_bits());
            }
        }
    }
}

#[test]
fn powercap_experiment_matches_legacy_simulator_path() {
    // The Scenario-driven power-cap sweep vs the hand-wired reference
    // (engine + PowerCapPolicy hook): ledger energy, series and counters
    // must agree to the bit.
    let opts = ExpOptions::quick(AB_JOBS);
    let sweep = powercap::run(&opts);
    let mut baselines = 0;
    for row in sweep.rows() {
        let w = reference_profile(row.workload()).generate(opts.seed, opts.jobs);
        let (_, base_metrics, base_power) =
            Reference::paper(&w).run_capped(&w.jobs, None, None, SleepConfig::none());
        let reference = powercap::power(row.reference);
        assert_eq!(reference.energy.to_bits(), base_power.energy.to_bits());
        assert_eq!(
            row.reference.run.metrics.avg_bsld.to_bits(),
            base_metrics.avg_bsld.to_bits(),
            "{}",
            row.workload()
        );
        if row.is_reference() {
            baselines += 1;
            continue;
        }
        let cap = row.cell.power.cap_fraction.unwrap();
        let cfg = row.config().unwrap();
        assert_eq!(cfg.wq_threshold, WqThreshold::NoLimit);
        let (_, metrics, power) = Reference::paper(&w).run_capped(
            &w.jobs,
            Some(cfg),
            Some(cap),
            SleepConfig::paper_default(),
        );
        assert_eq!(
            powercap::norm_energy(&row).to_bits(),
            (power.energy / base_power.energy).to_bits(),
            "{} cap {cap} th {}",
            row.workload(),
            cfg.bsld_threshold
        );
        let cell = powercap::power(row.result);
        assert_eq!(row.metrics().avg_bsld.to_bits(), metrics.avg_bsld.to_bits());
        assert_eq!(cell.cap.deferrals, power.cap.deferrals);
        assert_eq!(cell.cap.downgears, power.cap.downgears);
        assert_eq!(cell.sleep.wakes, power.sleep.wakes);
    }
    assert_eq!(baselines, 5);
}

#[test]
fn power_capped_scenario_matches_legacy_power_series() {
    // Full power-report equality on one capped cell, series included.
    let w = TraceProfile::sdsc_blue()
        .scaled_cpus(64)
        .generate(AB_SEED, 200);
    let (outcomes, _, reference) = Reference::paper(&w).run_capped(
        &w.jobs,
        Some(PowerAwareConfig::medium()),
        Some(0.7),
        SleepConfig::paper_default(),
    );

    let mut sc = Scenario::synthetic("ab-cap", ProfileName::SdscBlue, 200, AB_SEED);
    sc = sc.map_workload(|wl| {
        if let bsld::core::scenario::WorkloadSpec::Synthetic { scale_cpus, .. } = wl {
            *scale_cpus = Some(64);
        }
    });
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    sc.power.cap_fraction = Some(0.7);
    sc.power.sleep = SleepSpec::Paper;
    let via = sc.run(&RunCtx::default()).unwrap();
    let power = via.power.expect("capped run reports power");

    assert_eq!(via.run.outcomes, outcomes);
    assert_eq!(power.series, reference.series);
    assert_eq!(power.energy.to_bits(), reference.energy.to_bits());
    assert_eq!(power.peak.to_bits(), reference.peak.to_bits());
    assert_eq!(power.cap.deferrals, reference.cap.deferrals);
    assert_eq!(power.sleep.sleeps, reference.sleep.sleeps);
}
