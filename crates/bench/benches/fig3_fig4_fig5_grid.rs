//! Bench: Figures 3, 4, 5 — the original-size parameter grid.
//!
//! Two granularities:
//! * `cell/*` — a single `(workload, BSLDth, WQth)` policy run, the unit of
//!   the sweep (figure-agnostic: all three figures read the same cells);
//! * `full_grid` — the complete 5×12-cell sweep plus baselines, exactly
//!   the code `bsld-repro fig3|fig4|fig5` executes.

use bsld_bench::{bench_opts, run_metrics, scenario, workload};
use bsld_core::experiments::grid;
use bsld_core::scenario::{PolicySpec, ProfileName};
use bsld_core::WqThreshold;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_fig4_fig5");
    g.sample_size(10);

    // Representative cells: the paper's most conservative and most
    // aggressive parameter pairs on a mid-load and the saturated workload.
    for (profile, th, wq, label) in [
        (
            ProfileName::SdscBlue,
            1.5,
            WqThreshold::Limit(0),
            "cell/SDSCBlue_1.5_0",
        ),
        (
            ProfileName::SdscBlue,
            3.0,
            WqThreshold::NoLimit,
            "cell/SDSCBlue_3_NO",
        ),
        (
            ProfileName::Sdsc,
            2.0,
            WqThreshold::Limit(16),
            "cell/SDSC_2_16",
        ),
        (
            ProfileName::LlnlThunder,
            2.0,
            WqThreshold::NoLimit,
            "cell/LLNLThunder_2_NO",
        ),
    ] {
        let mut sc = scenario(profile);
        sc.policy = PolicySpec::BsldThreshold { th, wq };
        let w = workload(&sc);
        g.bench_function(label, |b| {
            b.iter(|| {
                let m = run_metrics(&sc, black_box(&w));
                black_box((m.reduced_jobs, m.avg_bsld, m.energy.computational))
            })
        });
    }

    let opts = bench_opts();
    g.bench_function("full_grid", |b| {
        b.iter(|| {
            let grid = grid::run(black_box(&opts));
            black_box(grid.cells.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
