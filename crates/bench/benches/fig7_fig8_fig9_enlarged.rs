//! Bench: Figures 7, 8, 9 — the enlarged-systems sweep.
//!
//! `cell/*` measures single enlarged runs (the sweep unit); `full_sweep`
//! is the complete 5-workload × 7-size × 2-WQ study behind all three
//! figures and Table 3.

use bsld_bench::{bench_opts, run_metrics, scenario, workload};
use bsld_core::experiments::enlarged;
use bsld_core::scenario::{PolicySpec, ProfileName};
use bsld_core::WqThreshold;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_fig8_fig9");
    g.sample_size(10);

    for (pct, label) in [
        (20u32, "cell/SDSCBlue_+20%_WQ0"),
        (125, "cell/SDSCBlue_+125%_WQ0"),
    ] {
        let mut sc = scenario(ProfileName::SdscBlue);
        sc.policy = PolicySpec::BsldThreshold {
            th: 2.0,
            wq: WqThreshold::Limit(0),
        };
        sc.cluster.enlarge_pct = pct;
        let w = workload(&sc);
        g.bench_function(label, |b| {
            b.iter(|| {
                let m = run_metrics(&sc, black_box(&w));
                black_box((m.avg_bsld, m.energy.with_idle))
            })
        });
    }

    let opts = bench_opts();
    g.bench_function("full_sweep", |b| {
        b.iter(|| {
            let s = enlarged::run(black_box(&opts));
            black_box(s.cells.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
