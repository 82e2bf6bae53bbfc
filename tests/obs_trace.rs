//! Integration tests for the observability layer's two-plane contract.
//!
//! The *trace plane* is deterministic: a `--trace-out` file is a pure
//! function of the simulated run, so replaying the same grid sweep — at
//! any thread count — must reproduce it byte for byte, and no event may
//! carry a wall-clock field. The *profiling plane* is wall-clock by
//! definition and must never perturb simulation results: attaching a
//! sink changes nothing but the trace file's existence.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::path::PathBuf;

use bsld::core::experiments::{grid, ExpOptions};
use bsld::core::scenario::{ProfileName, RunCtx, Scenario};
use bsld::metrics::Json;
use bsld::obs::BufferSink;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bsld_obs_{tag}_{}.json", std::process::id()))
}

fn grid_opts(threads: usize, trace: PathBuf) -> ExpOptions {
    let mut o = ExpOptions::quick(30);
    o.threads = threads;
    o.trace_out = Some(trace);
    o
}

/// The headline guarantee: the grid sweep's trace file is byte-identical
/// across replays and across thread counts (cells buffer independently
/// and concatenate in expansion order, so scheduling is invisible).
#[test]
fn grid_trace_is_byte_identical_across_replays_and_thread_counts() {
    let (a, b, c) = (tmp("a"), tmp("b"), tmp("c"));
    grid::run(&grid_opts(2, a.clone()));
    grid::run(&grid_opts(2, b.clone()));
    grid::run(&grid_opts(1, c.clone()));
    let first = std::fs::read(&a).unwrap();
    assert_eq!(first, std::fs::read(&b).unwrap(), "replay must not drift");
    assert_eq!(
        first,
        std::fs::read(&c).unwrap(),
        "the thread count must not leak into the trace"
    );
    // And the file is a valid Chrome-trace JSON array with content.
    let doc = Json::parse(std::str::from_utf8(&first).unwrap()).unwrap();
    let Json::Arr(events) = doc else {
        panic!("a Chrome trace is a JSON array");
    };
    assert!(events.len() > 100, "the sweep produces real events");
    for p in [a, b, c] {
        std::fs::remove_file(p).ok();
    }
}

/// The negative plane-separation test: every key of every trace event is
/// on the sim-time whitelist — no `elapsed_s`, no `*_us` wall latency, no
/// profiling-plane vocabulary may ever appear in the trace plane.
#[test]
fn trace_plane_carries_no_wall_clock_fields() {
    const ALLOWED_TOP: [&str; 7] = ["name", "ph", "ts", "pid", "tid", "s", "args"];
    const ALLOWED_ARGS: [&str; 13] = [
        "job",
        "gear",
        "cpus",
        "backfilled",
        "pass",
        "started",
        "rebuilt",
        "elided",
        "site",
        "sleeps",
        "wakes",
        "sleeping",
        // the process_name metadata event's cell label
        "name",
    ];
    let path = tmp("leak");
    grid::run(&grid_opts(2, path.clone()));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let Json::Arr(events) = Json::parse(&text).unwrap() else {
        panic!("a Chrome trace is a JSON array");
    };
    for ev in &events {
        let Json::Obj(pairs) = ev else {
            panic!("every trace event is an object");
        };
        for (k, v) in pairs {
            assert!(
                ALLOWED_TOP.contains(&k.as_str()),
                "unexpected trace event key {k:?}"
            );
            if k == "args" {
                let Json::Obj(args) = v else {
                    panic!("args is an object");
                };
                for (ak, _) in args {
                    assert!(
                        ALLOWED_ARGS.contains(&ak.as_str()),
                        "unexpected args key {ak:?} — a wall-clock field leaked \
                         into the trace plane?"
                    );
                }
            }
        }
    }
    // Belt and braces: none of the profiling plane's vocabulary, under
    // any key, anywhere in the file.
    for needle in ["elapsed", "wall", "instant", "epoch", "latency", "uptime"] {
        assert!(
            !text.to_ascii_lowercase().contains(needle),
            "trace file contains profiling-plane token {needle:?}"
        );
    }
}

/// Attaching a trace sink must not change any simulation result: the
/// trace plane observes, never steers.
#[test]
fn attaching_a_sink_does_not_change_results() {
    let sc = Scenario::synthetic("obs", ProfileName::SdscBlue, 200, 7);
    let plain = sc.run(&RunCtx::default()).unwrap();
    let sink = BufferSink::shared();
    let traced = sc
        .run(&RunCtx {
            sink: Some(sink.clone()),
            ..RunCtx::default()
        })
        .unwrap();
    let (p, t) = (&plain.run.metrics, &traced.run.metrics);
    assert_eq!(p.avg_bsld, t.avg_bsld);
    assert_eq!(p.avg_wait_secs, t.avg_wait_secs);
    assert_eq!(p.makespan_secs, t.makespan_secs);
    assert_eq!(p.energy.with_idle, t.energy.with_idle);
    assert!(!sink.is_empty(), "the sink observed the run");
    // Every job arrives, starts and finishes exactly once.
    let events = sink.take();
    let count = |f: &dyn Fn(&bsld::obs::TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
    assert_eq!(
        count(&|e| matches!(e, bsld::obs::TraceEvent::JobArrive { .. })),
        200
    );
    assert_eq!(
        count(&|e| matches!(e, bsld::obs::TraceEvent::JobStart { .. })),
        200
    );
    assert_eq!(
        count(&|e| matches!(e, bsld::obs::TraceEvent::JobFinish { .. })),
        200
    );
}

/// The profiling plane's phase breakdown covers the run: all three phases
/// are finite and non-negative, and a successful run spends real time
/// simulating.
#[test]
fn phase_profiling_reports_sane_wall_times() {
    let sc = Scenario::synthetic("phase", ProfileName::Ctc, 100, 3);
    let ctx = RunCtx::default();
    sc.run(&ctx).unwrap();
    let phases = ctx.phases.get();
    for (name, v) in [
        ("parse_s", phases.parse_s),
        ("build_s", phases.build_s),
        ("sim_s", phases.sim_s),
    ] {
        assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
    }
}
