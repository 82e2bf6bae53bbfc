//! SWF trace tooling: write, parse, clean and characterise a trace, then
//! simulate it.
//!
//! ```text
//! cargo run --release --example trace_analysis [path/to/trace.swf]
//! ```
//!
//! Without an argument the example fabricates a messy SWF file (flurries,
//! overruns, broken records) to demonstrate the cleaning pipeline — exactly
//! what the Parallel Workload Archive's "cleaned" traces went through
//! before the paper used them.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{ProfileName, Scenario};
use bsld::core::Simulator;
use bsld::swf::{
    clean_trace, parse_swf, select_segment, write_swf, CleanConfig, SwfHeader, SwfRecord, SwfTrace,
    TraceStats,
};
use bsld::workload::Workload;

fn fabricate_messy_trace() -> String {
    let mut records = Vec::new();
    let mut id = 1i64;
    // Normal traffic: 400 jobs from 20 users.
    for i in 0..400i64 {
        let mut r = SwfRecord::simple(id, i * 300, 200 + (i % 11) * 700, 1 + (i % 16), 9000);
        r.user = i % 20;
        records.push(r);
        id += 1;
    }
    // A flurry: user 77 submits 120 jobs within two minutes.
    for i in 0..120i64 {
        let mut r = SwfRecord::simple(id, 30_000 + i, 60, 1, 300);
        r.user = 77;
        records.push(r);
        id += 1;
    }
    // Overruns: runtime exceeds the estimate.
    for i in 0..10i64 {
        let mut r = SwfRecord::simple(id, 40_000 + i * 100, 5_000, 4, 600);
        r.req_time = 600;
        r.user = 3;
        records.push(r);
        id += 1;
    }
    // Broken rows: unknown sizes.
    records.push(SwfRecord::unknown());
    let trace = SwfTrace {
        header: SwfHeader {
            max_procs: Some(64),
            max_runtime: Some(64_800),
            max_jobs: Some(records.len() as u64),
            unix_start_time: Some(1_100_000_000),
            extra: vec!["Computer: fabricated demo machine".into()],
        },
        records,
    };
    write_swf(&trace)
}

fn main() {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => {
            println!("(no trace given — fabricating a messy demo trace)\n");
            fabricate_messy_trace()
        }
    };

    let mut trace = match parse_swf(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "parsed {} records; machine size {:?}",
        trace.records.len(),
        trace.header.max_procs
    );

    let summary = clean_trace(&mut trace, &CleanConfig::default());
    println!(
        "cleaning: dropped {} invalid, {} flurry, {} oversize; clamped {} overruns",
        summary.dropped_invalid,
        summary.dropped_flurry,
        summary.dropped_oversize,
        summary.clamped_runtime
    );

    let stats = TraceStats::of(&trace);
    println!(
        "\ncharacteristics: {} jobs | mean size {:.1} cpus ({:.0}% serial) | \
         mean runtime {:.0} s ({:.0}% under 10 min) | offered load {:.2}",
        stats.jobs,
        stats.size.mean(),
        stats.serial_fraction * 100.0,
        stats.runtime.mean(),
        stats.short_fraction * 100.0,
        stats.offered_load
    );

    // Simulate a segment like the paper: up to 5 000 jobs, arrivals rebased.
    let seg = select_segment(&trace, 0, 5000);
    let w = Workload::from_swf("trace", &seg);
    let sim = Simulator::paper_default(&w.cluster_name, w.cpus);
    // The segment is already in memory, so run the baseline scenario's
    // kernel on it directly; the spec's own workload is never built.
    let baseline = Scenario::synthetic("trace", ProfileName::Ctc, 0, 0);
    match baseline.run_prepared(&sim, &w.jobs) {
        Ok(res) => println!(
            "\nbaseline simulation: avg BSLD {:.2}, avg wait {:.0} s, utilization {:.2}",
            res.run.metrics.avg_bsld, res.run.metrics.avg_wait_secs, res.run.metrics.utilization
        ),
        Err(e) => eprintln!("simulation rejected the trace: {e}"),
    }
}
