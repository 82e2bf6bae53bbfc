//! Scheduling-substrate comparison: EASY vs. conservative backfilling vs.
//! FCFS, with and without the power-aware policy — plus the resource
//! selection policies.
//!
//! ```text
//! cargo run --release --example substrates
//! ```
//!
//! The paper builds on EASY backfilling; this example shows how much that
//! choice matters, and what a partition-constrained machine (contiguous
//! allocation) loses to fragmentation.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::cluster::SelectionPolicy;
use bsld::core::scenario::{PolicySpec, ProfileName, Scenario};
use bsld::core::PowerAwareConfig;
use bsld::metrics::TextTable;
use bsld::par::par_map;
use bsld::sched::SchedMode;

fn main() {
    let base = Scenario::synthetic("substrates", ProfileName::SdscBlue, 2500, 2010);
    let w = base.build_workload().unwrap();
    let cfg = PowerAwareConfig::medium();
    println!(
        "{}: {} jobs on {} cpus, policy {}\n",
        w.cluster_name,
        w.jobs.len(),
        w.cpus,
        cfg.label()
    );

    #[derive(Clone, Copy)]
    enum Variant {
        Easy(bool),
        Conservative(bool),
        Fcfs(bool),
        Selection(SelectionPolicy, bool),
    }
    let variants: Vec<(&str, Variant)> = vec![
        ("EASY", Variant::Easy(false)),
        ("EASY + DVFS", Variant::Easy(true)),
        ("Conservative", Variant::Conservative(false)),
        ("Conservative + DVFS", Variant::Conservative(true)),
        ("FCFS (no backfill)", Variant::Fcfs(false)),
        ("FCFS + DVFS", Variant::Fcfs(true)),
        (
            "EASY, contiguous alloc",
            Variant::Selection(SelectionPolicy::ContiguousFirstFit, false),
        ),
        (
            "EASY, contiguous + DVFS",
            Variant::Selection(SelectionPolicy::ContiguousFirstFit, true),
        ),
    ];

    let results = par_map(variants.clone(), bsld::par::default_threads(), |(_, v)| {
        let mut sc = base.clone();
        let dvfs = match v {
            Variant::Easy(d) => d,
            Variant::Conservative(d) => {
                sc.engine.mode = SchedMode::Conservative;
                d
            }
            Variant::Fcfs(d) => {
                sc.engine.backfill = false;
                d
            }
            Variant::Selection(sel, d) => {
                sc.engine.selection = sel;
                d
            }
        };
        if dvfs {
            sc.policy = PolicySpec::from(cfg);
        }
        let sim = sc.simulator(&w).unwrap();
        sc.run_prepared(&sim, &w.jobs).unwrap().run.metrics
    });

    let easy_base = &results[0];
    let mut t = TextTable::new(vec![
        "substrate",
        "E(idle=0)",
        "avg BSLD",
        "avg wait(s)",
        "p-reduced",
    ]);
    for ((label, _), m) in variants.iter().zip(&results) {
        t.row(vec![
            label.to_string(),
            format!(
                "{:.3}",
                m.energy.normalized_computational(&easy_base.energy)
            ),
            format!("{:.2}", m.avg_bsld),
            format!("{:.0}", m.avg_wait_secs),
            format!(
                "{:.0}%",
                m.reduced_jobs as f64 / m.jobs.max(1) as f64 * 100.0
            ),
        ]);
    }
    println!("{}", t.render());
    println!(
        "EASY's aggressive backfilling is what keeps the DVFS penalty tolerable;\n\
         conservative trades a little backfilling for fairness, FCFS collapses,\n\
         and contiguous allocation pays a fragmentation tax on top."
    );
}
