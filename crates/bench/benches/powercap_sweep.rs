//! Bench: power-capped runs — the ledger/sleep/cap hook's overhead and
//! the capped-scheduling kernel itself.
//!
//! Three configurations on the same workload isolate the costs: observe
//! only (ledger on the baseline schedule), sleep states on top, and a
//! hard cap with DVFS (the cap-sweep experiment's cell kernel). Run with
//! `cargo bench -p bsld-bench --bench powercap_sweep`.

use bsld_bench::{scenario, workload};
use bsld_core::scenario::{PolicySpec, ProfileName, SleepSpec};
use bsld_core::WqThreshold;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("powercap");
    g.sample_size(10);
    let mut observe = scenario(ProfileName::SdscBlue);
    observe.power.observe = true;
    let w = workload(&observe);
    let sim = observe.simulator(&w).expect("simulator builds");
    let mut sleep = observe.clone();
    sleep.power.sleep = SleepSpec::Paper;
    let mut capped = sleep.clone();
    capped.power.cap_fraction = Some(0.6);
    capped.policy = PolicySpec::BsldThreshold {
        th: 2.0,
        wq: WqThreshold::NoLimit,
    };

    for (name, sc) in [
        ("observe_only", observe),
        ("sleep_states", sleep),
        ("hard_cap_dvfs", capped),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let r = sc.run_prepared(&sim, black_box(&w.jobs)).unwrap();
                let power = r.power.expect("observed runs report power");
                black_box((power.energy, r.run.metrics.avg_bsld))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
