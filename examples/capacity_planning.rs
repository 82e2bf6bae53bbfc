//! Capacity planning with DVFS: is a bigger, slower machine cheaper?
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```
//!
//! Reruns one workload on machines enlarged by 0–125 % under the
//! power-aware scheduler (`BSLD_threshold = 2`) and reports, per size, the
//! energy (both idle scenarios) and performance — the paper's Section 5.2
//! question: "can more DVFS processors execute the same load with less
//! energy *and* better service?"

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{PolicySpec, ProfileName, Scenario};
use bsld::core::WqThreshold;
use bsld::metrics::TextTable;
use bsld::par::par_map;

/// Runs `sc` over the pre-generated workload `w`.
fn run(sc: &Scenario, w: &bsld::workload::Workload) -> bsld::metrics::RunMetrics {
    let sim = sc.simulator(w).unwrap();
    sc.run_prepared(&sim, &w.jobs).unwrap().run.metrics
}

fn main() {
    let baseline = Scenario::synthetic("capacity", ProfileName::Ctc, 3000, 2010);
    let w = baseline.build_workload().unwrap();
    let base = run(&baseline, &w);
    println!(
        "{}: original machine {} cpus, baseline avg BSLD {:.2}\n",
        w.cluster_name, w.cpus, base.avg_bsld
    );

    let sizes = [0u32, 10, 20, 50, 75, 100, 125];
    let results = par_map(sizes.to_vec(), bsld::par::default_threads(), |pct| {
        let mut sc = baseline.clone();
        sc.policy = PolicySpec::BsldThreshold {
            th: 2.0,
            wq: WqThreshold::Limit(0),
        };
        sc.cluster.enlarge_pct = pct;
        (pct, run(&sc, &w))
    });

    let mut t = TextTable::new(vec![
        "size",
        "cpus",
        "E(idle=0)",
        "E(idle=low)",
        "avg BSLD",
        "avg wait(s)",
    ]);
    for (pct, m) in &results {
        let cpus = (w.cpus as u64 * (100 + *pct as u64) + 50) / 100;
        t.row(vec![
            format!("+{pct}%"),
            cpus.to_string(),
            format!("{:.3}", m.energy.normalized_computational(&base.energy)),
            format!("{:.3}", m.energy.normalized_with_idle(&base.energy)),
            format!("{:.2}", m.avg_bsld),
            format!("{:.0}", m.avg_wait_secs),
        ]);
    }
    println!("{}", t.render());

    // Find the smallest enlargement that beats the baseline BSLD.
    if let Some((pct, m)) = results.iter().find(|(_, m)| m.avg_bsld <= base.avg_bsld) {
        println!(
            "smallest enlargement with same-or-better performance: +{pct}% \
             (BSLD {:.2} vs {:.2}, computational energy ×{:.3})",
            m.avg_bsld,
            base.avg_bsld,
            m.energy.normalized_computational(&base.energy)
        );
    } else {
        println!("no tested enlargement beat the baseline BSLD — increase the range");
    }
    // And the idle-aware optimum (the paper's "there is a point after which
    // a larger machine costs more" observation).
    let best = results
        .iter()
        .min_by(|a, b| {
            a.1.energy
                .normalized_with_idle(&base.energy)
                .total_cmp(&b.1.energy.normalized_with_idle(&base.energy))
        })
        .unwrap();
    println!(
        "idle-aware energy optimum: +{}% (×{:.3})",
        best.0,
        best.1.energy.normalized_with_idle(&base.energy)
    );
}
