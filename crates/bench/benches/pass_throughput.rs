//! Scheduling-pass throughput: the incremental engine vs the full
//! re-scheduling oracle (`EngineConfig::incremental = false`).
//!
//! Two workload shapes, both at 10 000 jobs:
//!
//! * `synthetic` — a near-saturated stream on a 512-cpu machine (bounded
//!   deep queue, ~100 concurrently running jobs), the regime the paper's
//!   grid/enlarged sweeps spend most of their time in;
//! * `swf_replay` — the same shape pushed through the full SWF pipeline
//!   (write → parse → clean → convert), exercising the trace path.
//!
//! Besides the timing comparison, the harness asserts the acceptance gate:
//! bit-identical outcomes and at least 2x fewer full profile rebuilds
//! (in practice the incremental engine rebuilds a handful of times per
//! run; the counters are printed).

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

/// The incremental engine and its full re-scan oracle for a machine.
fn simulators(name: &str) -> (Simulator, Simulator) {
    let incr = Simulator::paper_default(name, CPUS);
    let mut full = incr.clone();
    full.engine.incremental = false;
    (incr, full)
}

/// One-time acceptance gate + counter report for a workload.
fn verify(name: &str, jobs: &[Job]) {
    let sc = baseline();
    let (incr, full) = simulators(name);
    let incr = sc.run_prepared(&incr, jobs).expect("fits").run;
    let full = sc.run_prepared(&full, jobs).expect("fits").run;
    assert_eq!(
        incr.outcomes, full.outcomes,
        "{name}: incremental outcomes diverged from the full re-scan oracle"
    );
    let (i, f) = (incr.pass_stats, full.pass_stats);
    println!(
        "  {name}: rebuilds {} -> {} ({}x fewer), passes {} -> {} ({} skipped)",
        f.profile_rebuilds,
        i.profile_rebuilds,
        f.profile_rebuilds / i.profile_rebuilds.max(1),
        f.passes,
        i.passes,
        i.passes_skipped,
    );
    assert!(
        2 * i.profile_rebuilds <= f.profile_rebuilds,
        "{name}: expected >= 2x fewer profile rebuilds (incremental {} vs full {})",
        i.profile_rebuilds,
        f.profile_rebuilds
    );
}

fn bench_pass_throughput(c: &mut Criterion) {
    let synthetic = synthetic_jobs(JOBS);
    let replay = swf_replay_jobs(JOBS);
    verify("synthetic_10k", &synthetic);
    verify("swf_replay_10k", &replay);

    let mut g = c.benchmark_group("pass_throughput");
    g.sample_size(10);
    let sc = baseline();
    for (name, jobs) in [("synthetic_10k", &synthetic), ("swf_replay_10k", &replay)] {
        let (incr, full) = simulators(name);
        g.bench_function(format!("{name}/incremental"), |b| {
            b.iter(|| sc.run_prepared(&incr, jobs).expect("fits").run.metrics)
        });
        g.bench_function(format!("{name}/full_rescan"), |b| {
            b.iter(|| sc.run_prepared(&full, jobs).expect("fits").run.metrics)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pass_throughput);
criterion_main!(benches);
