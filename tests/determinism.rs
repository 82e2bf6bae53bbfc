//! Integration tests: reproducibility guarantees.
//!
//! Every experiment in the reproduction must be bit-for-bit reproducible:
//! same seed ⇒ same workload ⇒ same schedule ⇒ same metrics — regardless of
//! how many worker threads the sweep uses.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::experiments::{grid, table1, ExpOptions};
use bsld::core::scenario::{PolicySpec, ProfileName, RunCtx, Scenario, WorkloadSpec};
use bsld::core::PowerAwareConfig;
use bsld::par::par_map;
use bsld::workload::profiles::TraceProfile;

#[test]
fn workload_generation_reproducible() {
    let a = TraceProfile::ctc().generate(99, 400);
    let b = TraceProfile::ctc().generate(99, 400);
    assert_eq!(a.jobs, b.jobs);
}

#[test]
fn seeds_actually_differ() {
    let a = TraceProfile::ctc().generate(1, 200);
    let b = TraceProfile::ctc().generate(2, 200);
    assert_ne!(a.jobs, b.jobs);
}

#[test]
fn simulation_metrics_reproducible() {
    let mut sc = Scenario::synthetic("repro", ProfileName::SdscBlue, 400, 17).map_workload(|w| {
        if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
            *scale_cpus = Some(64);
        }
    });
    sc.policy = PolicySpec::from(PowerAwareConfig::medium());
    let m1 = sc.run(&RunCtx::default()).unwrap().run.metrics;
    let m2 = sc.run(&RunCtx::default()).unwrap().run.metrics;
    assert_eq!(m1.avg_bsld.to_bits(), m2.avg_bsld.to_bits());
    assert_eq!(
        m1.energy.computational.to_bits(),
        m2.energy.computational.to_bits()
    );
    assert_eq!(m1.reduced_jobs, m2.reduced_jobs);
}

#[test]
fn sweep_results_independent_of_thread_count() {
    let mk = |threads: usize| {
        let opts = ExpOptions {
            threads,
            ..ExpOptions::quick(60)
        };
        let g = grid::run(&opts);
        g.cells
            .iter()
            .map(|c| (c.workload.clone(), c.norm_e_comp.to_bits(), c.reduced_jobs))
            .collect::<Vec<_>>()
    };
    let seq = mk(1);
    let par4 = mk(4);
    let par16 = mk(16);
    assert_eq!(seq, par4);
    assert_eq!(seq, par16);
}

#[test]
fn table1_reproducible_across_runs() {
    let opts = ExpOptions::quick(60);
    let a = table1::run(&opts);
    let b = table1::run(&opts);
    assert_eq!(a.rows().count(), 5);
    for (ra, rb) in a.rows().zip(b.rows()) {
        let (ma, mb) = (ra.metrics(), rb.metrics());
        assert_eq!(ma.avg_bsld.to_bits(), mb.avg_bsld.to_bits());
        assert_eq!(ma.avg_wait_secs.to_bits(), mb.avg_wait_secs.to_bits());
    }
}

#[test]
fn par_map_is_deterministic_under_contention() {
    // Heavier closure with shared-nothing state: results must be in input
    // order regardless of execution interleavings.
    let inputs: Vec<u64> = (0..200).collect();
    let expected: Vec<u64> = inputs.iter().map(|&x| x * x % 7919).collect();
    for threads in [1, 2, 8] {
        let got = par_map(inputs.clone(), threads, |x| x * x % 7919);
        assert_eq!(got, expected, "threads = {threads}");
    }
}
