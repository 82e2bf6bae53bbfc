//! Bench: Table 1 — the no-DVFS EASY baseline per workload.
//!
//! Measures the full simulate-and-summarise kernel for each of the five
//! calibrated workloads (reduced job count). Run with `cargo bench -p
//! bsld-bench --bench table1_baseline`.

use bsld_bench::{run_metrics, scenario, workload};
use bsld_core::scenario::ProfileName;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_baseline");
    g.sample_size(10);
    for profile in ProfileName::ALL {
        let sc = scenario(profile);
        let w = workload(&sc);
        g.bench_function(profile.display_name(), |b| {
            b.iter(|| {
                let m = run_metrics(&sc, black_box(&w));
                black_box(m.avg_bsld)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
