//! One scenario cell over a resident workload, run two ways: untraced,
//! through the path the serve daemon takes (`Scenario::simulator` +
//! `run_prepared` + `sweep_report`), and traced, the same work decomposed
//! into timed calls into each layer.

use bsld_core::scenario::{PolicySpec, PowerSpec, Scenario, ScenarioError};
use bsld_core::{
    sweep_report, BsldThresholdPolicy, CellOutcome, PowerAwareConfig, RunResult, ScenarioResult,
    Simulator,
};
use bsld_metrics::RunMetrics;
use bsld_model::{GearId, JobOutcome};
use bsld_powercap::{PowerCap, PowerCapPolicy};
use bsld_sched::{simulate, simulate_with_hook, FixedGearPolicy, FrequencyPolicy, PassStats};
use bsld_workload::Workload;

use crate::spans::Trace;
use crate::timed::{HookTally, PolicyTally, TimedHook, TimedPolicy};

/// The results table `sweep_report` renders for one finished cell.
pub fn render(name: &str, res: &ScenarioResult) -> String {
    sweep_report(&[(name.to_string(), Ok(CellOutcome::of(res)))]).table
}

/// Runs one cell untraced; returns its rendered table and job count.
pub fn run(sc: &Scenario, w: &Workload) -> Result<(String, usize), ScenarioError> {
    let sim = sc.simulator(w)?;
    let res = sc.run_prepared(&sim, &w.jobs)?;
    Ok((render(&sc.name, &res), res.run.metrics.jobs))
}

/// The power hook's share of a traced cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HookLayers {
    /// Calls into the hook and their time.
    pub tally: HookTally,
    /// Steps of the power ledger (`PowerReport::series` length).
    pub ledger_steps: u64,
    /// `PowerCapPolicy::into_report`.
    pub report_s: f64,
}

/// Layer times and counts of one traced cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellLayers {
    /// `Scenario::simulator`.
    pub build_s: f64,
    /// The `simulate` / `simulate_with_hook` call, everything inside it.
    pub sim_s: f64,
    /// Policy calls and the profile probes inside them.
    pub policy: PolicyTally,
    /// The power hook (instrumented cells only).
    pub hook: Option<HookLayers>,
    /// `RunMetrics::compute`.
    pub metrics_s: f64,
    /// The engine's pass counters.
    pub passes: PassStats,
}

impl CellLayers {
    /// Engine time net of the policy and hook calls it made.
    pub fn sched_self_s(&self) -> f64 {
        self.sim_s - self.policy.call_s - self.hook.map_or(0.0, |h| h.tally.self_s)
    }

    /// Policy time net of the probes it made.
    pub fn policy_self_s(&self) -> f64 {
        self.policy.call_s - self.policy.probe_s
    }
}

/// Counts of traced cells that must repeat exactly between runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Policy calls.
    pub calls: u64,
    /// `fits` + `find_start` probes.
    pub probes: u64,
    /// `fits` probes.
    pub fits: u64,
    /// `fits` probes answering true.
    pub fits_true: u64,
    /// Power-hook calls.
    pub hook_calls: u64,
    /// Power-ledger steps.
    pub ledger_steps: u64,
    /// Scheduling passes run.
    pub passes: u64,
    /// Scheduling passes elided.
    pub passes_skipped: u64,
    /// Availability-profile rebuilds.
    pub profile_rebuilds: u64,
}

/// Layer times and counts summed over several traced cells: the one
/// accumulator behind both the printed per-layer metrics and the totals
/// in the trace file.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerSums {
    /// Cells added.
    pub cells: u64,
    /// Cells that ran with a power hook.
    pub hooked: u64,
    /// `Scenario::simulator`.
    pub build_s: f64,
    /// The `simulate` / `simulate_with_hook` calls.
    pub sim_s: f64,
    /// Engine time net of policy and hook calls.
    pub sched_self_s: f64,
    /// Policy calls, probes included.
    pub policy_s: f64,
    /// Policy time net of probes.
    pub policy_self_s: f64,
    /// Probe time.
    pub probe_s: f64,
    /// `RunMetrics::compute`.
    pub metrics_s: f64,
    /// Time inside the power hook.
    pub hook_s: f64,
    /// `PowerCapPolicy::into_report`.
    pub report_s: f64,
    /// The summed counts.
    pub counts: Counts,
}

impl LayerSums {
    /// Adds one traced cell.
    pub fn add(&mut self, l: &CellLayers) {
        let h = l.hook.unwrap_or_default();
        self.cells += 1;
        self.hooked += u64::from(l.hook.is_some());
        self.build_s += l.build_s;
        self.sim_s += l.sim_s;
        self.sched_self_s += l.sched_self_s();
        self.policy_s += l.policy.call_s;
        self.policy_self_s += l.policy_self_s();
        self.probe_s += l.policy.probe_s;
        self.metrics_s += l.metrics_s;
        self.hook_s += h.tally.self_s;
        self.report_s += h.report_s;
        let c = &mut self.counts;
        c.calls += l.policy.calls;
        c.probes += l.policy.probes;
        c.fits += l.policy.fits;
        c.fits_true += l.policy.fits_true;
        c.hook_calls += h.tally.calls;
        c.ledger_steps += h.ledger_steps;
        c.passes += l.passes.passes;
        c.passes_skipped += l.passes.passes_skipped;
        c.profile_rebuilds += l.passes.profile_rebuilds;
    }

    /// Per layer call: its name, how often it was made, its total time
    /// and its self time.
    pub fn rows(&self) -> [(&'static str, u64, f64, f64); 7] {
        let c = &self.counts;
        [
            (
                "core.scenario.simulator",
                self.cells,
                self.build_s,
                self.build_s,
            ),
            ("sched.simulate", self.cells, self.sim_s, self.sched_self_s),
            ("core.policy", c.calls, self.policy_s, self.policy_self_s),
            ("cluster.probe", c.probes, self.probe_s, self.probe_s),
            ("powercap.hook", c.hook_calls, self.hook_s, self.hook_s),
            (
                "powercap.into_report",
                self.hooked,
                self.report_s,
                self.report_s,
            ),
            (
                "metrics.compute",
                self.cells,
                self.metrics_s,
                self.metrics_s,
            ),
        ]
    }
}

/// The frequency policy a scenario runs under (mirrors the scenario
/// layer's own policy construction).
fn policy_for(spec: &PolicySpec, sim: &Simulator) -> Box<dyn FrequencyPolicy> {
    let top = sim.time_model.gears().top();
    match *spec {
        PolicySpec::Baseline => Box::new(FixedGearPolicy::new(top)),
        PolicySpec::FixedGear(idx) => Box::new(FixedGearPolicy::new(GearId(idx.min(top.0)))),
        PolicySpec::BsldThreshold { th, wq } => {
            Box::new(BsldThresholdPolicy::new(PowerAwareConfig {
                bsld_threshold: th,
                wq_threshold: wq,
            }))
        }
    }
}

/// The power hook an instrumented scenario runs with (mirrors
/// `Simulator::run_power_capped_with`).
fn power_hook(sim: &Simulator, power: &PowerSpec) -> PowerCapPolicy {
    let peak = || PowerCapPolicy::peak_draw(&sim.power, sim.cluster.cpus);
    let cap = match (power.cap_fraction, power.soft_wq_escape) {
        (None, _) => PowerCap::Uncapped,
        (Some(f), None) => PowerCap::Hard { budget: f * peak() },
        (Some(f), Some(wq_escape)) => PowerCap::Soft {
            budget: f * peak(),
            wq_escape,
        },
    };
    let hook = PowerCapPolicy::with_rails(&sim.power, sim.cluster.cpus, cap, power.sleep.build());
    match &sim.engine.sink {
        Some(sink) => hook.with_sink(sink.clone()),
        None => hook,
    }
}

fn compute_metrics(sim: &Simulator, outcomes: &[JobOutcome]) -> RunMetrics {
    RunMetrics::compute(
        outcomes,
        &sim.power,
        sim.cluster.cpus,
        sim.time_model.gears().len(),
    )
}

/// Runs one cell with every layer call timed: simulator build, the
/// engine run with a [`TimedPolicy`] (and a [`TimedHook`] around the
/// power manager when the scenario is instrumented), metrics and the
/// power report. Returns the same result `Scenario::run_prepared` would.
pub fn execute_traced(
    sc: &Scenario,
    w: &Workload,
    trace: &mut Trace,
    request: Option<u64>,
) -> Result<(ScenarioResult, CellLayers), ScenarioError> {
    let mut layers = CellLayers::default();
    let (sim, d) = trace.time("core.scenario.simulator", request, |_| sc.simulator(w));
    layers.build_s = d;
    let sim = sim?;
    let inner = policy_for(&sc.policy, &sim);
    let policy = TimedPolicy::new(&*inner);
    let jobs = &w.jobs;
    let (res, power) = if sc.power.instrumented() {
        let mut hook = TimedHook::new(power_hook(&sim, &sc.power));
        let (res, d) = trace.time("sched.simulate_with_hook", request, |_| {
            simulate_with_hook(
                &sim.cluster,
                jobs,
                &policy,
                &sim.time_model,
                &sim.engine,
                &mut hook,
            )
        });
        layers.sim_s = d;
        let res = res?;
        let (manager, tally) = hook.into_parts();
        let (metrics, d) = trace.time("metrics.compute", request, |_| {
            compute_metrics(&sim, &res.outcomes)
        });
        layers.metrics_s = d;
        let (report, d) = trace.time("powercap.into_report", request, |_| {
            manager.into_report(res.makespan.as_secs())
        });
        layers.hook = Some(HookLayers {
            tally,
            ledger_steps: report.series.len() as u64,
            report_s: d,
        });
        ((res, metrics), Some(report))
    } else {
        let (res, d) = trace.time("sched.simulate", request, |_| {
            simulate(&sim.cluster, jobs, &policy, &sim.time_model, &sim.engine)
        });
        layers.sim_s = d;
        let res = res?;
        let (metrics, d) = trace.time("metrics.compute", request, |_| {
            compute_metrics(&sim, &res.outcomes)
        });
        layers.metrics_s = d;
        ((res, metrics), None)
    };
    let (res, metrics) = res;
    layers.policy = policy.tally();
    layers.passes = res.stats;
    let run = RunResult {
        metrics,
        outcomes: res.outcomes,
        trace: res.trace,
        pass_stats: res.stats,
    };
    Ok((ScenarioResult { run, power }, layers))
}
