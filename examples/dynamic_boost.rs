//! The paper's future work, implemented: dynamically raising the frequency
//! of running reduced jobs when the wait queue deepens.
//!
//! ```text
//! cargo run --release --example dynamic_boost
//! ```
//!
//! Compares the plain BSLD-threshold policy against the same policy with
//! the boost extension at several queue limits, on a bursty workload where
//! DVFS-induced queueing is the dominant cost.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{PolicySpec, ProfileName, Scenario};
use bsld::core::WqThreshold;
use bsld::metrics::TextTable;
use bsld::par::par_map;

fn main() {
    let baseline = Scenario::synthetic("dynamic-boost", ProfileName::LlnlThunder, 3000, 2010);
    let w = baseline.build_workload().unwrap();
    let sim = baseline.simulator(&w).unwrap();
    let base = baseline.run_prepared(&sim, &w.jobs).unwrap().run.metrics;
    let mut dvfs = baseline.clone();
    dvfs.policy = PolicySpec::BsldThreshold {
        th: 3.0,
        wq: WqThreshold::NoLimit,
    };

    println!(
        "{}: {} cpus, baseline avg BSLD {:.2}, avg wait {:.0} s\n",
        w.cluster_name, w.cpus, base.avg_bsld, base.avg_wait_secs
    );

    let variants: Vec<Option<usize>> = vec![None, Some(32), Some(8), Some(2), Some(0)];
    let rows = par_map(variants, bsld::par::default_threads(), |boost| {
        let mut sc = dvfs.clone();
        sc.power.boost = boost;
        let sim = sc.simulator(&w).unwrap();
        (boost, sc.run_prepared(&sim, &w.jobs).unwrap().run.metrics)
    });

    let mut t = TextTable::new(vec![
        "variant",
        "E(idle=0)",
        "avg BSLD",
        "avg wait(s)",
        "reduced jobs",
    ]);
    for (boost, m) in rows {
        let label = match boost {
            None => "no boost (paper policy)".to_string(),
            Some(l) => format!("boost when queue > {l}"),
        };
        t.row(vec![
            label,
            format!("{:.3}", m.energy.normalized_computational(&base.energy)),
            format!("{:.2}", m.avg_bsld),
            format!("{:.0}", m.avg_wait_secs),
            m.reduced_jobs.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "tighter boost limits trade energy savings back for wait time — the\n\
         knob the paper proposed for future work."
    );
}
