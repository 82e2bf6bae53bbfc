//! SWF text output and deterministic synthetic trace generation.

use std::fmt::Write as _;
use std::io;

use bsld_simkernel::rng::splitmix64;

use crate::record::{SwfRecord, SwfTrace};

/// Serialises a trace back to SWF text.
///
/// Typed header directives are emitted first, followed by the preserved
/// `extra` comment lines, then one data line per record. Round-trips with
/// [`crate::parse_swf`] up to comment ordering and whitespace.
pub fn write_swf(trace: &SwfTrace) -> String {
    let mut out = String::new();
    let h = &trace.header;
    if let Some(v) = h.max_procs {
        let _ = writeln!(out, "; MaxProcs: {v}");
    }
    if let Some(v) = h.max_runtime {
        let _ = writeln!(out, "; MaxRuntime: {v}");
    }
    if let Some(v) = h.max_jobs {
        let _ = writeln!(out, "; MaxJobs: {v}");
    }
    if let Some(v) = h.unix_start_time {
        let _ = writeln!(out, "; UnixStartTime: {v}");
    }
    for line in &h.extra {
        let _ = writeln!(out, "; {line}");
    }
    for r in &trace.records {
        push_data_line(&mut out, r);
    }
    out
}

/// Appends one space-separated 18-field data line (plus newline) to `out`.
fn push_data_line(out: &mut String, r: &SwfRecord) {
    let f = r.fields();
    let mut first = true;
    for v in f {
        if first {
            first = false;
        } else {
            out.push(' ');
        }
        let _ = write!(out, "{v}");
    }
    out.push('\n');
}

/// The machine size [`generate_swf`] assumes when none is given: 1024
/// processors, a mid-size machine by the archive's standards.
pub const GEN_SWF_DEFAULT_PROCS: u32 = 1024;

/// Writes a deterministic synthetic SWF trace straight to `w` — the
/// engine behind `bsld-repro gen-swf`, so large-trace tests and the
/// benchmark never need committed multi-megabyte fixtures.
///
/// The generator is integer-only (a splitmix64 stream seeded by `seed`),
/// so the same `(jobs, seed, max_procs)` triple produces byte-identical
/// output on every platform. Job shapes are chosen to survive the default
/// cleaning pass and to offer roughly 70 % load on a `max_procs`-processor
/// machine: runtimes are uniform on [60 s, 3659 s], sizes are powers of
/// two from 1 to 128 (capped at `max_procs`), estimates are 1–3× the
/// runtime, and interarrival gaps are tuned so the submitted area matches
/// the target load. Users cycle over 97 distinct ids, far too slowly to
/// trip the flurry filter.
pub fn generate_swf<W: io::Write>(
    w: &mut W,
    jobs: u64,
    seed: u64,
    max_procs: u32,
) -> io::Result<()> {
    let max_procs = max_procs.max(1);
    writeln!(w, "; MaxProcs: {max_procs}")?;
    writeln!(w, "; MaxJobs: {jobs}")?;
    writeln!(w, "; UnixStartTime: 0")?;
    writeln!(w, "; Computer: bsld-repro gen-swf seed={seed}")?;
    // Mean job area ≈ 31.9 cpus × 1859 s ≈ 59 300 cpu·s; for 70 % load the
    // mean interarrival gap must be area / (0.7 × max_procs).
    let mean_gap = (84_714u64 / u64::from(max_procs)).max(1);
    // The splitmix64 sequence: draw i is `splitmix64(seed + i·γ)`, with γ
    // the golden-ratio increment the finaliser itself adds.
    let mut state = seed;
    let mut next = move || -> u64 {
        let out = splitmix64(state);
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    };
    let mut submit: i64 = 0;
    let mut line = String::new();
    for id in 1..=jobs {
        submit += (next() % (2 * mean_gap + 1)) as i64;
        let run_time = 60 + (next() % 3600) as i64;
        let procs = (1u32 << (next() % 8)).min(max_procs) as i64;
        let req_time = run_time * (1 + (next() % 3) as i64);
        let user = (next() % 97) as i64;
        let r = SwfRecord {
            job_id: id as i64,
            submit,
            run_time,
            alloc_procs: procs,
            req_procs: procs,
            req_time,
            status: 1,
            user,
            ..SwfRecord::unknown()
        };
        line.clear();
        push_data_line(&mut line, &r);
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_swf;
    use crate::record::{SwfHeader, SwfRecord};

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = SwfTrace {
            header: SwfHeader {
                max_procs: Some(128),
                max_runtime: Some(86400),
                max_jobs: Some(3),
                unix_start_time: Some(1_000_000),
                extra: vec!["Computer: IBM SP2".to_string()],
            },
            records: vec![
                SwfRecord::simple(1, 0, 100, 4, 200),
                SwfRecord::simple(2, 50, 7200, 128, 86400),
                SwfRecord::unknown(),
            ],
        };
        let text = write_swf(&trace);
        let back = parse_swf(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn empty_trace_writes_nothing_but_parses_back() {
        let t = SwfTrace::default();
        let text = write_swf(&t);
        assert_eq!(parse_swf(&text).unwrap(), t);
    }

    #[test]
    fn data_line_format() {
        let trace = SwfTrace {
            header: SwfHeader::default(),
            records: vec![SwfRecord::simple(1, 2, 3, 4, 5)],
        };
        let text = write_swf(&trace);
        assert_eq!(
            text.trim(),
            "1 2 -1 3 4 -1 -1 4 5 -1 1 -1 -1 -1 -1 -1 -1 -1"
        );
    }

    #[test]
    fn generated_trace_is_deterministic_and_seed_sensitive() {
        let gen = |jobs, seed| {
            let mut buf = Vec::new();
            generate_swf(&mut buf, jobs, seed, GEN_SWF_DEFAULT_PROCS).unwrap();
            String::from_utf8(buf).unwrap()
        };
        assert_eq!(gen(200, 42), gen(200, 42), "same seed, same bytes");
        assert_ne!(
            gen(200, 42),
            gen(200, 43),
            "different seed, different trace"
        );
        // A shorter run is a strict prefix apart from the MaxJobs line.
        let long = gen(200, 42);
        let short = gen(100, 42);
        assert_eq!(
            long.replace("; MaxJobs: 200", "; MaxJobs: 100")
                .lines()
                .take(104)
                .collect::<Vec<_>>(),
            short.lines().collect::<Vec<_>>()
        );
    }

    #[test]
    fn generated_trace_parses_and_survives_cleaning() {
        let mut buf = Vec::new();
        generate_swf(&mut buf, 500, 7, 256).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut trace = parse_swf(&text).unwrap();
        assert_eq!(trace.header.max_procs, Some(256));
        assert_eq!(trace.records.len(), 500);
        let summary = crate::clean::clean_trace(&mut trace, &crate::clean::CleanConfig::default());
        assert_eq!(
            summary,
            crate::clean::CleanSummary::default(),
            "generated jobs must pass the default cleaner untouched"
        );
        assert_eq!(trace.records.len(), 500);
        assert!(trace
            .records
            .iter()
            .all(|r| r.alloc_procs >= 1 && r.alloc_procs <= 256 && r.run_time >= 60));
    }
}
