//! Observability overhead: the disabled trace path must be free.
//!
//! * `obs_sim/*_2k` — one 2 000-job SDSC-Blue simulation with no sink
//!   (the `None` fast path), a [`bsld_obs::NullSink`] (the cost of the
//!   emission seam itself) and a [`bsld_obs::BufferSink`] (full capture);
//! * `obs_replay/streaming_100k_untraced` — the replay suite's cold-load
//!   gate re-measured in the obs-wired workspace, tracing disabled: the
//!   number to hold within 2 % of `BENCH_replay.json`'s
//!   `replay_parse/streaming_100k`;
//! * `obs_render/chrome_trace_2k_jobs` — rendering one captured run as a
//!   Chrome-trace JSON string.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::Arc;

use bsld_core::scenario::{ProfileName, RunCtx, Scenario, WorkloadSpec};
use bsld_obs::{render_chrome_trace, BufferSink, NullSink};
use bsld_swf::generate_swf;

/// Writes the deterministic synthetic trace `gen-swf` would produce.
fn gen_trace(dir: &std::path::Path, name: &str, jobs: u64, seed: u64) -> PathBuf {
    let path = dir.join(name);
    let file = std::fs::File::create(&path).expect("create trace");
    let mut w = std::io::BufWriter::new(file);
    generate_swf(&mut w, jobs, seed, 1024).expect("write trace");
    std::io::Write::flush(&mut w).expect("flush trace");
    path
}

fn bench_obs(c: &mut Criterion) {
    let sc = Scenario::synthetic("obs-bench", ProfileName::SdscBlue, 2000, 2010);

    let mut g = c.benchmark_group("obs_sim");
    g.sample_size(10);
    g.bench_function("untraced_2k", |b| {
        b.iter(|| sc.run(&RunCtx::default()).expect("run").run.metrics.jobs)
    });
    g.bench_function("null_sink_2k", |b| {
        b.iter(|| {
            let ctx = RunCtx {
                sink: Some(Arc::new(NullSink)),
                ..RunCtx::default()
            };
            sc.run(&ctx).expect("run").run.metrics.jobs
        })
    });
    g.bench_function("buffer_sink_2k", |b| {
        b.iter(|| {
            let ctx = RunCtx {
                sink: Some(BufferSink::shared()),
                ..RunCtx::default()
            };
            sc.run(&ctx).expect("run").run.metrics.jobs
        })
    });
    g.finish();

    // The regression gate against BENCH_replay.json: identical workload,
    // identical code path, tracing disabled.
    let dir = std::env::temp_dir().join(format!("bsld-bench-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace_100k = gen_trace(&dir, "obs_replay_100k.swf", 100_000, 2010);
    let spec = WorkloadSpec::Swf {
        path: trace_100k.clone(),
        clean: true,
    };
    let mut g = c.benchmark_group("obs_replay");
    g.sample_size(10);
    g.bench_function("streaming_100k_untraced", |b| {
        b.iter(|| spec.build().expect("build").jobs.len())
    });
    g.finish();

    // Render throughput on one real captured run.
    let sink = BufferSink::shared();
    let ctx = RunCtx {
        sink: Some(sink.clone()),
        ..RunCtx::default()
    };
    sc.run(&ctx).expect("run");
    let cells = vec![("obs-bench".to_string(), sink.take())];
    let mut g = c.benchmark_group("obs_render");
    g.sample_size(10);
    g.bench_function("chrome_trace_2k_jobs", |b| {
        b.iter(|| render_chrome_trace(&cells).len())
    });
    g.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
