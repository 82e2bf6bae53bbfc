//! Power-capped clusters: the energy/BSLD trade-off under a hard budget,
//! with idle sleep states.
//!
//! ```text
//! cargo run --release --example power_capping [cap_fraction]
//! ```
//!
//! `cap_fraction` is the budget as a fraction of the machine's peak draw
//! (default 0.6). The example runs SDSC-Blue four ways — uncapped
//! baseline, sleep states only, capped baseline, capped + the paper's
//! DVFS policy — and prints the ledger-level power picture of each.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{PolicySpec, ProfileName, Scenario, SleepSpec};
use bsld::core::WqThreshold;
use bsld::metrics::TextTable;

fn main() {
    let cap: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("cap_fraction must be a number"))
        .unwrap_or(0.6);
    // Observing the power ledger, with no budget, no sleeping and no DVFS.
    let mut observe = Scenario::synthetic("power-capping", ProfileName::SdscBlue, 3000, 2010);
    observe.power.observe = true;
    let w = observe.build_workload().unwrap();
    let sim = observe.simulator(&w).unwrap();

    let mut sleep = observe.clone();
    sleep.power.sleep = SleepSpec::Paper;
    let mut capped = sleep.clone();
    capped.power.cap_fraction = Some(cap);
    let mut capped_dvfs = capped.clone();
    capped_dvfs.policy = PolicySpec::BsldThreshold {
        th: 2.0,
        wq: WqThreshold::NoLimit,
    };
    let cases = [
        ("uncapped baseline", observe),
        ("sleep states only", sleep),
        ("hard cap", capped),
        ("hard cap + DVFS 2/NO", capped_dvfs),
    ];

    println!(
        "{}: {} jobs on {} cpus, cap = {:.0}% of peak draw\n",
        w.cluster_name,
        w.jobs.len(),
        w.cpus,
        cap * 100.0
    );
    let mut t = TextTable::new(vec![
        "configuration",
        "energy",
        "peak",
        "avg power",
        "avg BSLD",
        "deferrals",
        "wakes",
    ]);
    let mut base_energy = None;
    for (name, sc) in &cases {
        let r = match sc.run_prepared(&sim, &w.jobs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "{name}: {e}\n(this budget cannot run the workload; try a higher cap_fraction)"
                );
                std::process::exit(2);
            }
        };
        let power = r.power.expect("observed runs report power");
        let base = *base_energy.get_or_insert(power.energy);
        t.row(vec![
            name.to_string(),
            format!("{:.3}x", power.energy / base),
            format!("{:.0}", power.peak),
            format!("{:.0}", power.average),
            format!("{:.2}", r.run.metrics.avg_bsld),
            power.cap.deferrals.to_string(),
            power.sleep.wakes.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("(energy is the ledger integral incl. idle draw and wake penalties,\n normalised to the uncapped baseline; power in normalised units)");
}
