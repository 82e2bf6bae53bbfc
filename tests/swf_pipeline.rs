//! Integration tests: the SWF pipeline — generate → write → parse → clean →
//! simulate — plus property-based round-trips.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{ProfileName, Scenario};
use bsld::core::{RunResult, Simulator};
use bsld::sched::validate_schedule;
use bsld::swf::{
    clean_trace, parse_swf, select_segment, write_swf, CleanConfig, SwfHeader, SwfRecord, SwfTrace,
    TraceStats,
};
use bsld::workload::Workload;
use proptest::prelude::*;

/// The no-DVFS EASY baseline over a converted trace. The jobs are already
/// in memory, so the baseline scenario's kernel runs them directly.
fn simulate_baseline(w: &Workload) -> RunResult {
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    let baseline = Scenario::synthetic("swf", ProfileName::Ctc, 0, 0);
    baseline.run_prepared(&sim, &w.jobs).unwrap().run
}

/// A synthetic SWF file exercising the whole pipeline end to end.
#[test]
fn swf_to_simulation_pipeline() {
    // Build an SWF trace by hand (as if downloaded from the archive).
    let mut records = Vec::new();
    for i in 0..200i64 {
        let mut r = SwfRecord::simple(i + 1, i * 120, 300 + (i % 7) * 500, 1 + (i % 8), 4000);
        r.user = i % 13;
        r.status = 1;
        records.push(r);
    }
    // Add some damage: an unknown-size job and an overrunning job.
    records.push(SwfRecord::unknown());
    let mut overrun = SwfRecord::simple(900, 100, 9999, 2, 1000);
    overrun.req_time = 1000;
    records.push(overrun);

    let trace = SwfTrace {
        header: SwfHeader {
            max_procs: Some(16),
            max_runtime: Some(64_800),
            max_jobs: Some(records.len() as u64),
            unix_start_time: Some(1_000_000_000),
            extra: vec!["Computer: synthetic".into()],
        },
        records,
    };

    // Round-trip through text.
    let text = write_swf(&trace);
    let mut parsed = parse_swf(&text).unwrap();
    assert_eq!(parsed, trace);

    // Clean: drops the unknown record, clamps the overrun.
    let summary = clean_trace(&mut parsed, &CleanConfig::default());
    assert_eq!(summary.dropped_invalid, 1);
    assert_eq!(summary.clamped_runtime, 1);

    // Stats are sane.
    let stats = TraceStats::of(&parsed);
    assert_eq!(stats.jobs, parsed.records.len());
    assert!(stats.offered_load > 0.0);

    // Segment selection rebases to 0.
    let seg = select_segment(&parsed, 10, 100);
    assert_eq!(seg.records.len(), 100);
    assert_eq!(seg.records[0].submit, 0);

    // Simulate the cleaned segment.
    let w = Workload::from_swf("synthetic", &seg);
    assert_eq!(w.cpus, 16);
    let res = simulate_baseline(&w);
    assert_eq!(res.outcomes.len(), w.jobs.len());
    validate_schedule(&res.outcomes, w.cpus).unwrap();
}

/// `gen-swf` output feeds CI's byte comparison and the benchmark's replay
/// traces, so its bytes are pinned: the FNV-1a of a 1 000-job trace.
#[test]
fn generated_trace_bytes_are_pinned() {
    let mut buf = Vec::new();
    bsld::swf::generate_swf(&mut buf, 1000, 2010, bsld::swf::GEN_SWF_DEFAULT_PROCS).unwrap();
    assert_eq!(
        bsld::core::campaign::fnv1a_64(&buf),
        0xdaaf_e5ba_a452_5998,
        "gen-swf bytes changed"
    );
}

fn arb_record() -> impl Strategy<Value = SwfRecord> {
    (
        1i64..100_000,
        0i64..10_000_000,
        1i64..100_000,
        1i64..10_000,
        1i64..200_000,
        -1i64..500,
    )
        .prop_map(|(id, submit, run, procs, req, user)| {
            let mut r = SwfRecord::simple(id, submit, run, procs, req);
            r.user = user;
            r.wait = (submit % 997).max(-1);
            r.avg_cpu_time = run / 2;
            r.queue = user % 5;
            r
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// write ∘ parse is the identity on arbitrary record sets.
    #[test]
    fn roundtrip_arbitrary_traces(records in proptest::collection::vec(arb_record(), 0..60)) {
        let trace = SwfTrace {
            header: SwfHeader {
                max_procs: Some(10_000),
                ..Default::default()
            },
            records,
        };
        let text = write_swf(&trace);
        let parsed = parse_swf(&text).unwrap();
        prop_assert_eq!(parsed, trace);
    }

    /// Cleaning is idempotent: a second pass changes nothing.
    #[test]
    fn cleaning_is_idempotent(records in proptest::collection::vec(arb_record(), 0..80)) {
        let mut trace = SwfTrace {
            header: SwfHeader { max_procs: Some(5_000), ..Default::default() },
            records,
        };
        let cfg = CleanConfig::default();
        clean_trace(&mut trace, &cfg);
        let after_first = trace.clone();
        let second = clean_trace(&mut trace, &cfg);
        prop_assert_eq!(trace, after_first);
        prop_assert_eq!(second.dropped_invalid, 0);
        prop_assert_eq!(second.dropped_flurry, 0);
        prop_assert_eq!(second.clamped_runtime, 0);
    }

    /// Conversion never produces jobs violating the model invariants.
    #[test]
    fn conversion_invariants(records in proptest::collection::vec(arb_record(), 0..60)) {
        let jobs = bsld::swf::records_to_jobs(&records);
        for j in &jobs {
            prop_assert!(j.cpus >= 1);
            prop_assert!(j.runtime >= 1);
            prop_assert!(j.requested >= j.runtime);
        }
    }
}

/// An overrunning record (runtime past the user estimate) replayed through
/// the *uncleaned* conversion path: `records_to_jobs` applies
/// kill-at-request semantics, and the engine runs the result without
/// tripping its `wall <= expected` bookkeeping.
#[test]
fn overrunning_record_replays_with_kill_at_request() {
    let mut records = vec![
        SwfRecord::simple(1, 0, 3600, 8, 3600),
        SwfRecord::simple(2, 10, 500, 4, 7200),
    ];
    // Ran 900 s against a 600 s estimate: killed at 600.
    let mut overrun = SwfRecord::simple(3, 20, 900, 4, 600);
    overrun.req_time = 600;
    records.push(overrun);

    let trace = SwfTrace {
        header: SwfHeader {
            max_procs: Some(16),
            ..Default::default()
        },
        records,
    };
    // Deliberately no clean_trace: conversion itself must clamp.
    let w = Workload::from_swf("overrun", &trace);
    let killed = w.jobs.iter().find(|j| j.cpus == 4 && j.requested == 600);
    let killed = killed.expect("overrunning job converted");
    assert_eq!(killed.runtime, 600, "killed at the requested limit");

    let res = simulate_baseline(&w);
    assert_eq!(res.outcomes.len(), w.jobs.len());
    validate_schedule(&res.outcomes, w.cpus).unwrap();
    let o = res
        .outcomes
        .iter()
        .find(|o| o.requested == 600)
        .expect("outcome for the killed job");
    assert_eq!(o.finish - o.start, 600, "executes for exactly the estimate");
}
