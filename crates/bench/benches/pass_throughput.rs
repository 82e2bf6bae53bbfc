//! Scheduling-pass throughput of the engine.
//!
//! Two workload shapes, both at 10 000 jobs:
//!
//! * `synthetic` — a near-saturated stream on a 512-cpu machine (bounded
//!   deep queue, ~100 concurrently running jobs), the regime the paper's
//!   grid/enlarged sweeps spend most of their time in;
//! * `swf_replay` — the same shape pushed through the full SWF pipeline
//!   (write → parse → clean → convert), exercising the trace path.
//!
//! Correctness lives in `tests/reference_ab.rs`, which holds the engine's
//! outcomes bit-identical to a naive reference scheduler and its profile
//! rebuilds at no more than half the reference's.

use criterion::{criterion_group, criterion_main, Criterion};

use bsld_core::scenario::{ProfileName, Scenario};
use bsld_core::Simulator;
use bsld_model::Job;
use bsld_simkernel::Time;
use bsld_swf::{clean_trace, parse_swf, write_swf, CleanConfig, SwfHeader, SwfRecord, SwfTrace};
use bsld_workload::Workload;

const JOBS: u32 = 10_000;
const CPUS: u32 = 512;

/// Near-saturated synthetic stream: interarrival slightly under the
/// service rate of a 512-cpu machine, mixed sizes, overestimated requests.
fn synthetic_jobs(n: u32) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let arrival = i as u64 * 10;
            let cpus = 1 + (i * 7) % 16;
            let runtime = 300 + (i as u64 * 41) % 900;
            let requested = runtime + 100 + (i as u64 * 17) % 1200;
            Job::new(i, Time(arrival), cpus, runtime, requested)
        })
        .collect()
}

/// The same stream rebuilt through the full SWF pipeline.
fn swf_replay_jobs(n: u32) -> Vec<Job> {
    let records: Vec<SwfRecord> = synthetic_jobs(n)
        .iter()
        .map(|j| {
            SwfRecord::simple(
                j.id.0 as i64 + 1,
                j.arrival.as_secs() as i64,
                j.runtime as i64,
                j.cpus as i64,
                j.requested as i64,
            )
        })
        .collect();
    let trace = SwfTrace {
        header: SwfHeader {
            max_procs: Some(CPUS),
            ..Default::default()
        },
        records,
    };
    let mut parsed = parse_swf(&write_swf(&trace)).expect("round-trip");
    clean_trace(
        &mut parsed,
        &CleanConfig {
            // Keep the stream intact: this is a replay, not a cleaning
            // study (the synthetic burst pattern trips flurry filters).
            flurry_max_jobs: usize::MAX,
            ..CleanConfig::default()
        },
    );
    Workload::from_swf("pass-throughput", &parsed).jobs
}

/// The no-DVFS EASY baseline. [`Scenario::run_prepared`] takes the jobs
/// and the simulator from this bench; the spec's workload is never built.
fn baseline() -> Scenario {
    Scenario::synthetic("pass-throughput", ProfileName::Ctc, 0, 0)
}

fn bench_pass_throughput(c: &mut Criterion) {
    let synthetic = synthetic_jobs(JOBS);
    let replay = swf_replay_jobs(JOBS);

    let mut g = c.benchmark_group("pass_throughput");
    g.sample_size(10);
    let sc = baseline();
    for (name, jobs) in [("synthetic_10k", &synthetic), ("swf_replay_10k", &replay)] {
        let sim = Simulator::paper_default(name, CPUS);
        g.bench_function(name, |b| {
            b.iter(|| sc.run_prepared(&sim, jobs).expect("fits").run.metrics)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pass_throughput);
criterion_main!(benches);
