//! `replay_<leg>`: [`TRACES`] seeded `gen-swf` traces, loaded once and
//! kept resident; each request is one run of the leg over the next trace
//! in turn. The four legs are four workloads, each in a process of its
//! own.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use bsld_core::scenario::{Scenario, WorkloadSpec};
use bsld_obs::Stopwatch;
use bsld_swf::{clean_swf_stream, generate_swf, CleanConfig, SwfStream};
use bsld_workload::Workload;

use crate::cell::{self, LayerSums};
use crate::host::Host;
use crate::out::{peak_rss_mib, share, EndToEnd, Layers, Report};
use crate::spans::Trace;
use crate::stats::median;
use crate::{RunConfig, TempDir, TRACE_DIR};

/// Jobs in the trace. On a 2-vCPU host the ROADMAP's 1M-job trace takes
/// 2–9 s per leg, which would leave a run only a few requests; at
/// 100 000 jobs a leg takes 0.2–0.8 s.
const TRACE_JOBS: u64 = 100_000;
/// Processors of the trace's machine.
const TRACE_CPUS: u32 = 1024;
/// Traces per run. A trace's leg time moves by 5–10 % with its seed, so
/// a run takes its requests over several traces, not one.
pub const TRACES: usize = 4;
/// Set-up rounds per run, each loading every trace; `setup_s` is the
/// median load.
const SETUP_ROUNDS: usize = 5;

/// The legs, one workload each: name and the scenario keys that set the
/// leg apart.
pub const LEGS: [(&str, &str); 4] = [
    ("easy", "policy = baseline\n"),
    ("bsld", "policy = bsld:2/NO\n"),
    (
        "observe",
        "policy = bsld:2/NO\nobserve = true\nsleep = paper\n",
    ),
    ("conservative", "policy = baseline\nmode = conservative\n"),
];

/// The seed of trace `k` of a run with seed `seed`; runs with different
/// seeds share no trace.
pub fn trace_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(TRACES as u64).wrapping_add(k as u64)
}

/// The scenario of leg `name` over the trace at `path`.
pub fn leg_scenario(name: &str, path: &Path) -> Result<Scenario, String> {
    let (_, keys) = LEGS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("no leg {name:?}"))?;
    let text = format!(
        "scenario = {name}\nworkload = swf\nswf_path = {}\n{keys}",
        path.display()
    );
    Scenario::parse(&text).map_err(|e| format!("leg {name}: {e}"))
}

/// Writes the seeded `gen-swf` trace, as `bsld-repro gen-swf` does.
pub fn write_trace(path: &Path, jobs: u64, seed: u64, cpus: u32) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let mut w = BufWriter::new(File::create(path).map_err(fail)?);
    generate_swf(&mut w, jobs, seed, cpus)
        .and_then(|()| w.flush())
        .map_err(fail)
}

/// Reads `path` once through a small fixed buffer, so the file is in the
/// page cache and the heap never held a file-sized block.
fn warm_page_cache(path: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("cannot read {}: {e}", path.display());
    let mut f = File::open(path).map_err(fail)?;
    let mut buf = [0u8; 64 * 1024];
    while f.read(&mut buf).map_err(fail)? > 0 {}
    Ok(())
}

/// The streaming load of `path`, as a scenario's workload spec loads it.
fn load(path: &Path) -> Result<Workload, String> {
    WorkloadSpec::Swf {
        path: path.to_path_buf(),
        clean: true,
    }
    .build()
    .map_err(|e| e.to_string())
}

/// Runs leg `leg` of the workload.
pub fn run(cfg: &RunConfig, leg: &str) -> Result<Report, String> {
    let tmp = TempDir::new("replay")?;
    let mut traces = Vec::new();
    for k in 0..TRACES {
        let path = tmp.path().join(format!("trace{k}.swf"));
        // Written before set-up starts, then read once so every timed
        // load finds it in the page cache.
        write_trace(&path, TRACE_JOBS, trace_seed(cfg.seed, k), TRACE_CPUS)?;
        warm_page_cache(&path)?;
        let sc = leg_scenario(leg, &path)?;
        traces.push((path, sc));
    }
    if cfg.trace {
        run_traced(cfg, &traces)
    } else {
        run_plain(cfg, &traces)
    }
}

/// The traces' files and leg scenarios, in order.
type Traces = [(PathBuf, Scenario)];

/// Loads every trace [`SETUP_ROUNDS`] times, with `load` timing each.
/// Every round but the last drops each load at once; the last round's
/// loads stay resident. Loads dropped between resident ones left the
/// high-water mark 52–67 MiB, depending on the seed; this order leaves it
/// at 48 or 52 MiB.
fn set_up<L>(
    traces: &Traces,
    mut load: impl FnMut(&Path) -> Result<(L, f64), String>,
) -> Result<(Vec<L>, Vec<f64>), String> {
    let mut times = Vec::new();
    for _ in 1..SETUP_ROUNDS {
        for (path, _) in traces {
            let (_, t) = load(path)?;
            times.push(t);
        }
    }
    let mut resident = Vec::new();
    for (path, _) in traces {
        let (l, t) = load(path)?;
        resident.push(l);
        times.push(t);
    }
    Ok((resident, times))
}

fn run_plain(cfg: &RunConfig, traces: &Traces) -> Result<Report, String> {
    let mut host = Host::new();
    let (ws, setup) = set_up(traces, |path| {
        let sw = Stopwatch::start();
        let w = load(path)?;
        Ok((w, sw.elapsed_s() * host.scale()))
    })?;

    let mut report = Report::default();
    // The leg's nominal-host time in every request, and the first table of
    // each trace.
    let mut times = Vec::new();
    let mut first: Vec<Option<String>> = vec![None; traces.len()];
    let clock = Stopwatch::start();
    let mut k = 0;
    while clock.elapsed_s() < cfg.seconds as f64 {
        let ((_, sc), w) = (&traces[k], &ws[k]);
        let sw = Stopwatch::start();
        let out = cell::run(sc, w);
        times.push(sw.elapsed_s() * host.scale());
        report.request(match out {
            Ok((table, n)) => {
                n == w.jobs.len() && *first[k].get_or_insert_with(|| table.clone()) == table
            }
            Err(e) => {
                eprintln!("replay: leg {} failed: {e}", sc.name);
                false
            }
        });
        k = (k + 1) % traces.len();
    }
    report.end_to_end(&EndToEnd {
        request_ms: median(&times).ok_or("no request completed")? * 1e3,
        setup_s: median(&setup).ok_or("no set-up ran")?,
        peak_rss_mib: peak_rss_mib(None)?,
    });
    Ok(report)
}

/// Traced requests per run: a fixed count, a whole number of turns over
/// the traces, so every count repeats exactly between two traced runs of
/// the same length.
fn traced_requests(seconds: u64) -> usize {
    TRACES * (seconds / 15).max(1) as usize
}

/// What one traced load read, and how long its two phases took.
struct Load {
    workload: Workload,
    records: usize,
    kept: usize,
    load_s: f64,
    assemble_s: f64,
}

/// The streaming load decomposed: fused parse + clean, then assembly.
fn load_traced(path: &Path, trace: &mut Trace) -> Result<Load, String> {
    let id = trace.enter("setup.load", None);
    let (parsed, load_s) = trace.time("swf.clean_swf_stream", None, |_| {
        let file = File::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        clean_swf_stream(
            SwfStream::new(BufReader::new(file)),
            &CleanConfig::default(),
        )
        .map_err(|e| format!("cannot load {}: {e:?}", path.display()))
    });
    let (swf, summary) = parsed?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let (built, assemble_s) = trace.time("workload.from_swf_with_abort", None, |_| {
        Workload::from_swf_with_abort(name, &swf, None)
    });
    trace.exit(id);
    let kept = swf.records.len();
    Ok(Load {
        workload: built.map_err(|_| "trace assembly aborted".to_string())?,
        records: kept + summary.dropped_invalid + summary.dropped_flurry + summary.dropped_oversize,
        kept,
        load_s,
        assemble_s,
    })
}

fn run_traced(cfg: &RunConfig, traces: &Traces) -> Result<Report, String> {
    let mut trace = Trace::default();
    let mut report = Report::default();
    let (mut build_s, mut swf_share) = (Vec::new(), Vec::new());
    let (loads, _) = set_up(traces, |path| {
        let l = load_traced(path, &mut trace)?;
        build_s.push(l.load_s + l.assemble_s);
        swf_share.push(share(l.load_s, l.load_s + l.assemble_s));
        Ok((l, 0.0))
    })?;
    // The decomposed load must build exactly what the public path builds.
    let mut same_load = true;
    for ((path, _), l) in traces.iter().zip(&loads) {
        let (reference, w) = (load(path)?, &l.workload);
        same_load &= reference.jobs == w.jobs
            && reference.cpus == w.cpus
            && reference.cluster_name == w.cluster_name;
    }

    let mut sums: Vec<LayerSums> = Vec::new();
    let mut render_s = Vec::new();
    let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());
    for r in 0..traced_requests(cfg.seconds) {
        let req = Some(r as u64);
        let k = r % traces.len();
        let ((_, sc), w) = (&traces[k], &loads[k].workload);
        // The untraced leg, for the output check and the overhead ratio.
        let sw = Stopwatch::start();
        let plain = cell::run(sc, w).map_err(|e| format!("leg {}: {e}", sc.name))?;
        plain_wall.push(sw.elapsed_s());
        let rid = trace.enter("request", req);
        let (res, cl) = cell::execute_traced(sc, w, &mut trace, req)
            .map_err(|e| format!("leg {}: {e}", sc.name))?;
        let (table, d) = trace.time("core.report.sweep_report", req, |_| {
            cell::render(&sc.name, &res)
        });
        render_s.push(d);
        traced_wall.push(trace.exit(rid).duration_s());
        let mut s = LayerSums::default();
        s.add(&cl);
        let ok = same_load
            && table == plain.0
            && plain.1 == w.jobs.len()
            && res.run.metrics.jobs == w.jobs.len()
            && r.checked_sub(traces.len())
                .is_none_or(|earlier| sums[earlier].counts == s.counts);
        report.request(ok);
        trace.record(&sc.name, req, s);
        sums.push(s);
    }

    let med = |xs: &[f64]| median(xs).ok_or("no traced request ran");
    let mean =
        |f: fn(&Load) -> usize| loads.iter().map(f).sum::<usize>() as f64 / loads.len() as f64;
    report.layers(&Layers {
        workload_build_s: med(&build_s)?,
        render_s: med(&render_s)?,
        swf_records: mean(|l| l.records),
        swf_kept: mean(|l| l.kept),
        swf_load_share: med(&swf_share)?,
        obs_overhead: med(&traced_wall)? / med(&plain_wall)?,
        ..Layers::of_cells(&sums)?
    });
    trace.write(
        Path::new(TRACE_DIR),
        &format!("replay_{}", traces[0].1.name),
        cfg.seed,
    )?;
    Ok(report)
}
