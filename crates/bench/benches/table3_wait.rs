//! Bench: Table 3 — the five wait-time configurations.
//!
//! Measures each configuration column of Table 3 separately on SDSC-Blue:
//! original no-DVFS, original DVFS at WQ ∈ {0, NO}, and +50 % DVFS at the
//! same settings.

use bsld_bench::{run_metrics, scenario, workload};
use bsld_core::scenario::{PolicySpec, ProfileName};
use bsld_core::WqThreshold;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3");
    g.sample_size(10);
    let base = scenario(ProfileName::SdscBlue);
    let w = workload(&base);

    g.bench_function("orig_no_dvfs", |b| {
        b.iter(|| black_box(run_metrics(&base, black_box(&w)).avg_wait_secs))
    });
    for (wq, pct, label) in [
        (WqThreshold::Limit(0), 0u32, "orig_wq0"),
        (WqThreshold::NoLimit, 0, "orig_wqno"),
        (WqThreshold::Limit(0), 50, "inc50_wq0"),
        (WqThreshold::NoLimit, 50, "inc50_wqno"),
    ] {
        let mut sc = base.clone();
        sc.policy = PolicySpec::BsldThreshold { th: 2.0, wq };
        sc.cluster.enlarge_pct = pct;
        g.bench_function(label, |b| {
            b.iter(|| black_box(run_metrics(&sc, black_box(&w)).avg_wait_secs))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
