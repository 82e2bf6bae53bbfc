//! Shared helpers for the benchmark harness.
//!
//! Each bench target regenerates one table or figure of Etinski et al.
//! 2010 at a reduced job count (the code path is identical to the full
//! `bsld-repro` run; only `jobs` differs, so criterion measures the real
//! experiment kernels without taking minutes per sample).

#![forbid(unsafe_code)]

use bsld_core::experiments::ExpOptions;
use bsld_core::scenario::{ProfileName, Scenario};
use bsld_metrics::RunMetrics;
use bsld_workload::Workload;

/// The standard reduced scale for benches.
pub const BENCH_JOBS: usize = 400;

/// Reduced-scale experiment options (no CSV output).
pub fn bench_opts() -> ExpOptions {
    ExpOptions {
        threads: 1,
        ..ExpOptions::quick(BENCH_JOBS)
    }
}

/// The benchmark scenario for a calibrated profile: [`BENCH_JOBS`] jobs
/// generated at seed 2010, baseline policy, original machine size.
pub fn scenario(profile: ProfileName) -> Scenario {
    Scenario::synthetic(profile.display_name(), profile, BENCH_JOBS, 2010)
}

/// Generates the scenario's workload once, outside the timed loop.
pub fn workload(sc: &Scenario) -> Workload {
    sc.build_workload().expect("synthetic workloads build")
}

/// Runs `sc` over its pre-generated workload `w` (simulator build plus
/// [`Scenario::run_prepared`]) and returns the run's metrics.
pub fn run_metrics(sc: &Scenario, w: &Workload) -> RunMetrics {
    let sim = sc.simulator(w).expect("simulator builds");
    sc.run_prepared(&sim, &w.jobs).expect("fits").run.metrics
}
