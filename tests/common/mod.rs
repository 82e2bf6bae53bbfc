//! Helpers shared by the integration tests: calibrated scenarios and the
//! one run path, [`Scenario::run`].

use bsld::core::scenario::{
    PolicySpec, ProfileName, RunCtx, Scenario, ScenarioResult, WorkloadSpec,
};
use bsld::core::WqThreshold;

/// `jobs` jobs of a calibrated profile generated at `seed`, with the
/// profile rescaled to a machine of `cpus` processors; every other spec at
/// its default (baseline policy, EASY, no power instrumentation).
pub fn scaled(profile: ProfileName, cpus: u32, seed: u64, jobs: usize) -> Scenario {
    Scenario::synthetic(profile.key(), profile, jobs, seed).map_workload(|w| {
        if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
            *scale_cpus = Some(cpus);
        }
    })
}

/// The paper's BSLD-threshold policy.
pub fn bsld(th: f64, wq: WqThreshold) -> PolicySpec {
    PolicySpec::BsldThreshold { th, wq }
}

/// Runs `sc` end to end with nothing attached.
pub fn run(sc: &Scenario) -> ScenarioResult {
    sc.run(&RunCtx::default()).unwrap()
}
