//! Quickstart: run the paper's policy on one workload and read the numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a 2 000-job SDSC-Blue-like workload, schedules it with plain
//! EASY backfilling (no DVFS) and with the BSLD-threshold power-aware
//! policy at the paper's medium setting (threshold 2, no queue limit), and
//! prints the energy/performance trade-off.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{PolicySpec, ProfileName, RunCtx, Scenario};
use bsld::core::WqThreshold;
use bsld::metrics::TextTable;

fn main() {
    let mut sc = Scenario::synthetic("quickstart", ProfileName::SdscBlue, 2000, 2010);
    let workload = sc.build_workload().expect("synthetic workloads build");
    println!(
        "workload: {} on {} cpus, {} jobs, offered load {:.2}",
        workload.cluster_name,
        workload.cpus,
        workload.jobs.len(),
        workload.offered_load()
    );

    // The scenario's default policy is the no-DVFS EASY baseline.
    let base = sc
        .run(&RunCtx::default())
        .expect("workload fits the machine")
        .run;
    sc.policy = PolicySpec::BsldThreshold {
        th: 2.0,
        wq: WqThreshold::NoLimit,
    };
    let dvfs = sc
        .run(&RunCtx::default())
        .expect("workload fits the machine")
        .run;

    let mut t = TextTable::new(vec!["metric", "EASY (no DVFS)", "power-aware 2/NO"]);
    t.row(vec![
        "avg BSLD".to_string(),
        format!("{:.2}", base.metrics.avg_bsld),
        format!("{:.2}", dvfs.metrics.avg_bsld),
    ]);
    t.row(vec![
        "avg wait (s)".to_string(),
        format!("{:.0}", base.metrics.avg_wait_secs),
        format!("{:.0}", dvfs.metrics.avg_wait_secs),
    ]);
    t.row(vec![
        "jobs at reduced frequency".to_string(),
        base.metrics.reduced_jobs.to_string(),
        dvfs.metrics.reduced_jobs.to_string(),
    ]);
    t.row(vec![
        "energy, idle=0 (normalized)".to_string(),
        "1.000".to_string(),
        format!(
            "{:.3}",
            dvfs.metrics
                .energy
                .normalized_computational(&base.metrics.energy)
        ),
    ]);
    t.row(vec![
        "energy, idle=low (normalized)".to_string(),
        "1.000".to_string(),
        format!(
            "{:.3}",
            dvfs.metrics
                .energy
                .normalized_with_idle(&base.metrics.energy)
        ),
    ]);
    t.row(vec![
        "utilization".to_string(),
        format!("{:.3}", base.metrics.utilization),
        format!("{:.3}", dvfs.metrics.utilization),
    ]);
    println!("\n{}", t.render());

    let saving = 1.0
        - dvfs
            .metrics
            .energy
            .normalized_computational(&base.metrics.energy);
    println!(
        "the power-aware scheduler saved {:.1}% CPU energy at a BSLD cost of {:.2} → {:.2}",
        saving * 100.0,
        base.metrics.avg_bsld,
        dvfs.metrics.avg_bsld
    );
}
