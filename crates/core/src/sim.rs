//! The simulator: a configured machine and the models a run needs.
//!
//! A [`Simulator`] bundles a cluster, its power rails, the β time model and
//! the scheduling engine's options. It runs nothing itself: every run goes
//! through [`crate::scenario::Scenario::run_prepared`], which turns the
//! scenario's policy and power specs into a frequency policy and a power
//! hook and drives the engine with them.
//! [`crate::scenario::Scenario::run`] builds the workload and the
//! simulator from the spec first.

use bsld_cluster::{Cluster, GearSet};
use bsld_metrics::RunMetrics;
use bsld_model::JobOutcome;
use bsld_power::{BetaModel, PaperDvfs, RailSet};
use bsld_sched::{EngineConfig, PassStats, TraceEvent};

/// A simulation result: the paper's metrics plus the raw outcomes.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Summary metrics (BSLD, waits, energy, reduced jobs, ...).
    pub metrics: RunMetrics,
    /// Raw per-job outcomes (completion order).
    pub outcomes: Vec<JobOutcome>,
    /// Scheduling trace (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Engine pass/rebuild/skip counters (incremental-engine diagnostics).
    pub pass_stats: PassStats,
}

/// A configured machine + models, ready to run workloads.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The machine description.
    pub cluster: Cluster,
    /// The machine's power model: one or more subsystem rails (the
    /// default is a single CPU rail carrying the paper's model).
    pub power: RailSet,
    /// The β execution-time model (dilation).
    pub time_model: BetaModel,
    /// Engine options (backfilling on, tracing off by default).
    pub engine: EngineConfig,
}

impl Simulator {
    /// The paper's setup for a machine of `cpus` processors: Table 2 gear
    /// set, 25 % static share, 2.5 activity ratio, β = 0.5 dilation, EASY
    /// backfilling.
    pub fn paper_default(name: &str, cpus: u32) -> Simulator {
        let gears = GearSet::paper();
        Simulator {
            cluster: Cluster::new(name, cpus, gears.clone()),
            power: RailSet::cpu(Box::new(PaperDvfs::paper(gears.clone()))),
            time_model: BetaModel::new(gears),
            engine: EngineConfig::default(),
        }
    }

    /// A simulator over an explicit cluster (custom gear sets).
    pub fn with_cluster(cluster: Cluster) -> Simulator {
        let gears = cluster.gears.clone();
        Simulator {
            cluster,
            power: RailSet::cpu(Box::new(PaperDvfs::paper(gears.clone()))),
            time_model: BetaModel::new(gears),
            engine: EngineConfig::default(),
        }
    }

    /// The same simulator on a machine enlarged by `percent` % (Section
    /// 5.2's study).
    pub fn enlarged(&self, percent: u32) -> Simulator {
        Simulator {
            cluster: self.cluster.enlarged(percent),
            power: self.power.clone(),
            time_model: self.time_model.clone(),
            engine: self.engine.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::WqThreshold;
    use crate::scenario::{
        PolicySpec, ProfileName, RunCtx, Scenario, ScenarioResult, SleepSpec, WorkloadSpec,
    };
    use bsld_sched::validate_schedule;

    const CPUS: u32 = 64;

    /// 300 SDSC-Blue-like jobs on a 64-cpu machine, seed 42.
    fn small() -> Scenario {
        Scenario::synthetic("small", ProfileName::SdscBlue, 300, 42).map_workload(|w| {
            if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
                *scale_cpus = Some(CPUS);
            }
        })
    }

    fn bsld(th: f64, wq: WqThreshold) -> PolicySpec {
        PolicySpec::BsldThreshold { th, wq }
    }

    fn run(sc: &Scenario) -> ScenarioResult {
        sc.run(&RunCtx::default()).unwrap()
    }

    #[test]
    fn baseline_runs_and_validates() {
        let res = run(&small()).run;
        assert_eq!(res.outcomes.len(), 300);
        validate_schedule(&res.outcomes, CPUS).unwrap();
        assert_eq!(res.metrics.reduced_jobs, 0, "baseline never reduces");
        assert!(res.metrics.avg_bsld >= 1.0);
    }

    #[test]
    fn power_aware_saves_energy_on_light_load() {
        let mut sc = small();
        let base = run(&sc).run;
        sc.policy = bsld(3.0, WqThreshold::NoLimit);
        let dvfs = run(&sc).run;
        validate_schedule(&dvfs.outcomes, CPUS).unwrap();
        assert!(dvfs.metrics.reduced_jobs > 0, "some jobs must be reduced");
        assert!(
            dvfs.metrics.energy.computational < base.metrics.energy.computational,
            "DVFS must cut computational energy: {} vs {}",
            dvfs.metrics.energy.computational,
            base.metrics.energy.computational
        );
        assert!(
            dvfs.metrics.avg_bsld >= base.metrics.avg_bsld,
            "frequency scaling cannot improve BSLD"
        );
    }

    #[test]
    fn wq_zero_is_more_conservative_than_no_limit() {
        let mut sc = small();
        sc.policy = bsld(2.0, WqThreshold::Limit(0));
        let strict = run(&sc).run;
        sc.policy = bsld(2.0, WqThreshold::NoLimit);
        let loose = run(&sc).run;
        assert!(strict.metrics.reduced_jobs <= loose.metrics.reduced_jobs);
    }

    #[test]
    fn enlarged_machine_reduces_waits() {
        let sc = small();
        let w = sc.build_workload().unwrap();
        let sim = sc.simulator(&w).unwrap();
        let orig = sc.run_prepared(&sim, &w.jobs).unwrap().run;
        let big = sc.run_prepared(&sim.enlarged(50), &w.jobs).unwrap().run;
        assert!(big.metrics.avg_wait_secs <= orig.metrics.avg_wait_secs);
        assert!(big.metrics.avg_bsld <= orig.metrics.avg_bsld);
    }

    #[test]
    fn trace_collection_toggle() {
        let mut sc = small();
        assert!(run(&sc).run.trace.is_empty());
        sc.engine.trace = true;
        assert!(!run(&sc).run.trace.is_empty());
    }

    #[test]
    fn fcfs_ablation_waits_longer() {
        let mut sc = small();
        let easy = run(&sc).run;
        sc.engine.backfill = false;
        let fcfs = run(&sc).run;
        assert!(
            fcfs.metrics.avg_wait_secs >= easy.metrics.avg_wait_secs,
            "backfilling must not hurt average wait: {} vs {}",
            fcfs.metrics.avg_wait_secs,
            easy.metrics.avg_wait_secs
        );
    }

    #[test]
    fn power_capped_observe_only_matches_baseline_schedule() {
        let mut sc = small();
        let base = run(&sc).run;
        sc.power.observe = true;
        let capped = run(&sc);
        let power = capped.power.unwrap();
        // No budget, no sleeping, no DVFS: the schedule must be identical,
        // and the ledger's integral must equal the post-hoc idle-aware
        // energy report.
        assert_eq!(capped.run.outcomes, base.outcomes);
        let rel = power.energy / base.metrics.energy.with_idle;
        assert!((rel - 1.0).abs() < 1e-9, "ledger vs post-hoc energy: {rel}");
        assert!(power.peak > 0.0);
        assert_eq!(power.budget, None);
        assert_eq!(power.cap.deferrals, 0);
    }

    #[test]
    fn hard_cap_is_respected_at_every_step() {
        let mut sc = small();
        sc.policy = bsld(2.0, WqThreshold::NoLimit);
        sc.power.cap_fraction = Some(0.6);
        let capped = run(&sc);
        validate_schedule(&capped.run.outcomes, CPUS).unwrap();
        let power = capped.power.unwrap();
        let budget = power.budget.unwrap();
        for &(t, p) in &power.series {
            assert!(p <= budget + 1e-6, "draw {p} over budget {budget} at t={t}");
        }
        assert!(power.peak <= budget + 1e-6);
    }

    #[test]
    fn sleep_states_cut_idle_energy() {
        let mut sc = small();
        sc.power.observe = true;
        let plain = run(&sc);
        sc.power.sleep = SleepSpec::Paper;
        let sleeping = run(&sc);
        // Same schedule (sleeping never defers anything)...
        assert_eq!(sleeping.run.outcomes, plain.run.outcomes);
        // ...but idle stretches now draw less despite wake penalties.
        let (sleeping, plain) = (sleeping.power.unwrap(), plain.power.unwrap());
        assert!(
            sleeping.energy < plain.energy,
            "sleep must save energy: {} vs {}",
            sleeping.energy,
            plain.energy
        );
        assert!(sleeping.sleep.sleeps > 0);
        // Every wake corresponds to an earlier sleep transition.
        assert!(sleeping.sleep.wakes <= sleeping.sleep.sleeps);
    }

    #[test]
    fn infeasible_hard_cap_stalls() {
        let mut sc = small();
        // A budget below the idle floor can never admit anything.
        sc.power.cap_fraction = Some(0.05);
        let err = sc.run(&RunCtx::default()).unwrap_err();
        assert!(
            matches!(
                err,
                crate::scenario::ScenarioError::Sim(bsld_sched::SimError::Stalled { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn boost_limits_bsld_damage() {
        let mut sc = small();
        sc.policy = bsld(3.0, WqThreshold::NoLimit);
        let plain = run(&sc).run;
        sc.power.boost = Some(4);
        let boosted = run(&sc).run;
        validate_schedule(&boosted.outcomes, CPUS).unwrap();
        // Boosting can only shorten runtimes of reduced jobs, so energy
        // goes up and performance improves (or stays).
        assert!(boosted.metrics.energy.computational >= plain.metrics.energy.computational);
    }
}
