//! The knob study: how `BSLD_threshold` and `WQ_threshold` trade energy for
//! performance on one machine (the paper's Section 5.1, condensed).
//!
//! ```text
//! cargo run --release --example energy_tradeoff [workload]
//! ```
//!
//! `workload` ∈ {ctc, sdsc, blue, thunder, atlas}; default `blue`.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{PolicySpec, ProfileName, Scenario};
use bsld::core::{PowerAwareConfig, WqThreshold};
use bsld::metrics::TextTable;

fn main() {
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "blue".to_string());
    let profile = ProfileName::parse(&which).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    // One workload and simulator, shared by every policy run below.
    let mut sc = Scenario::synthetic("energy-tradeoff", profile, 3000, 2010);
    let w = sc.build_workload().unwrap();
    let sim = sc.simulator(&w).unwrap();
    let base = sc.run_prepared(&sim, &w.jobs).unwrap().run;
    println!(
        "{}: baseline avg BSLD {:.2}, avg wait {:.0} s\n",
        w.cluster_name, base.metrics.avg_bsld, base.metrics.avg_wait_secs
    );

    let mut t = TextTable::new(vec![
        "BSLDth/WQth",
        "E(idle=0)",
        "E(idle=low)",
        "avg BSLD",
        "avg wait(s)",
        "reduced",
    ]);
    for bsld_th in [1.5, 2.0, 3.0] {
        for wq in [
            WqThreshold::Limit(0),
            WqThreshold::Limit(4),
            WqThreshold::Limit(16),
            WqThreshold::NoLimit,
        ] {
            let cfg = PowerAwareConfig {
                bsld_threshold: bsld_th,
                wq_threshold: wq,
            };
            sc.policy = PolicySpec::from(cfg);
            let run = sc.run_prepared(&sim, &w.jobs).unwrap().run;
            t.row(vec![
                cfg.label(),
                format!(
                    "{:.3}",
                    run.metrics
                        .energy
                        .normalized_computational(&base.metrics.energy)
                ),
                format!(
                    "{:.3}",
                    run.metrics
                        .energy
                        .normalized_with_idle(&base.metrics.energy)
                ),
                format!("{:.2}", run.metrics.avg_bsld),
                format!("{:.0}", run.metrics.avg_wait_secs),
                run.metrics.reduced_jobs.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!("lower energy ⇒ higher BSLD: pick the threshold pair that fits your SLA.");
}
