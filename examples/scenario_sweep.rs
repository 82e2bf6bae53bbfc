//! Declarative scenarios: describe a sweep as data, run it with one call.
//!
//! Builds the same experiment twice — once as a [`ScenarioSet`] with sweep
//! axes, once by parsing the equivalent `.scn` text — and shows they are
//! the same object producing the same grid. Run with:
//!
//! ```text
//! cargo run --release --example scenario_sweep
//! ```

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{
    PolicySpec, ProfileName, Scenario, ScenarioSet, SleepSpec, SweepAxis, WorkloadSpec,
};
use bsld::core::WqThreshold;

fn main() {
    // A base spec: 400 SDSC-Blue-like jobs on a 64-cpu machine, the
    // paper's medium policy, ledger observation on.
    let mut base = Scenario::synthetic("demo", ProfileName::SdscBlue, 400, 2010);
    if let WorkloadSpec::Synthetic { scale_cpus, .. } = &mut base.workload {
        *scale_cpus = Some(64);
    }
    base.policy = PolicySpec::BsldThreshold {
        th: 2.0,
        wq: WqThreshold::NoLimit,
    };
    base.power.sleep = SleepSpec::Paper;
    base.power.observe = true;

    // Sweep two axes: BSLD threshold x power cap.
    let set = ScenarioSet {
        base,
        axes: vec![
            SweepAxis::new("bsld_th", [1.5, 2.0, 3.0]),
            SweepAxis::new("cap", [0.6, 0.8]),
        ],
        replications: 1,
        cell_budget_s: None,
    };

    // The set serializes to a .scn file and parses back identically —
    // check in the text form, rerun the exact same sweep later.
    let text = set.render();
    println!("--- scenario file ---\n{text}--- end ---\n");
    assert_eq!(ScenarioSet::parse(&text).unwrap(), set);

    // One call runs the expanded grid in parallel.
    let results = set.run(bsld::par::default_threads()).unwrap();
    println!(
        "{:<22} {:>8} {:>10} {:>12}",
        "scenario", "avgBSLD", "reduced", "E(ledger)"
    );
    for (sc, res) in &results {
        let m = &res.run.metrics;
        let ledger = res.power.as_ref().map(|p| p.energy).unwrap_or(0.0);
        println!(
            "{:<22} {:>8.2} {:>10} {:>12.3e}",
            sc.name, m.avg_bsld, m.reduced_jobs, ledger
        );
    }
}
