//! A/B oracles for the streaming replay data path: the streaming SWF load
//! (`SwfStream` → `clean_swf_stream` → `Workload`) that every SWF scenario
//! takes must be bit-identical to the in-memory reference pipeline spelled
//! out here from `bsld-swf` (`parse_swf` → `clean_trace` →
//! `Workload::from_swf`): same jobs, same simulation outcomes, same
//! result-table bytes, same errors.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::scenario::{run_many, ScenarioError, ScenarioSet, WorkloadSpec};
use bsld::core::{sweep_report, CellOutcome};
use bsld::workload::profiles::TraceProfile;
use bsld::workload::Workload;
use std::path::{Path, PathBuf};

/// A scratch directory unique to this test (parallel tests must not
/// collide), removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("bsld-ab-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The five calibrated profiles the paper evaluates.
fn profiles() -> Vec<(&'static str, TraceProfile)> {
    vec![
        ("ctc", TraceProfile::ctc()),
        ("sdsc", TraceProfile::sdsc()),
        ("blue", TraceProfile::sdsc_blue()),
        ("thunder", TraceProfile::llnl_thunder()),
        ("atlas", TraceProfile::llnl_atlas()),
    ]
}

/// The in-memory reference pipeline: parse, clean, convert.
fn reference_workload(path: &Path, text: &str) -> Workload {
    let mut trace = bsld::swf::parse_swf(text).unwrap();
    bsld::swf::clean_trace(&mut trace, &bsld::swf::CleanConfig::default());
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap();
    Workload::from_swf(name, &trace)
}

fn assert_same_workload(a: &Workload, b: &Workload, tag: &str) {
    assert_eq!(a.cpus, b.cpus, "{tag}: cpus");
    assert_eq!(a.cluster_name, b.cluster_name, "{tag}: name");
    assert_eq!(a.jobs.len(), b.jobs.len(), "{tag}: job count");
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.id, y.id, "{tag}: id");
        assert_eq!(x.arrival, y.arrival, "{tag}: arrival");
        assert_eq!(x.cpus, y.cpus, "{tag}: cpus of {:?}", x.id);
        assert_eq!(x.runtime, y.runtime, "{tag}: runtime of {:?}", x.id);
        assert_eq!(x.requested, y.requested, "{tag}: requested of {:?}", x.id);
    }
}

/// All five workload profiles, exported to SWF and replayed: the streaming
/// build equals the in-memory pipeline reproduced step by step from the
/// public API.
#[test]
fn five_profiles_stream_and_in_memory_builds_are_bit_identical() {
    let scratch = Scratch::new("profiles");
    for (key, profile) in profiles() {
        let w = profile.scaled_cpus(128).generate(7, 400);
        let path = scratch.path(&format!("{key}.swf"));
        let text = bsld::swf::write_swf(&w.to_swf());
        std::fs::write(&path, &text).unwrap();

        let spec = WorkloadSpec::Swf {
            path: path.clone(),
            clean: true,
        };
        let streamed = spec.build().unwrap();
        let in_memory = reference_workload(&path, &text);

        assert_same_workload(&streamed, &in_memory, key);
        assert!(!streamed.jobs.is_empty(), "{key}: replay must keep jobs");
    }
}

/// The `clean = false` replay path: a raw collect over the stream equals
/// the raw in-memory parse.
#[test]
fn unclean_replay_matches_raw_parse() {
    let scratch = Scratch::new("unclean");
    let path = scratch.path("raw.swf");
    let mut buf = Vec::new();
    bsld::swf::generate_swf(&mut buf, 500, 3, 64).unwrap();
    std::fs::write(&path, &buf).unwrap();

    let spec = WorkloadSpec::Swf {
        path: path.clone(),
        clean: false,
    };
    let streamed = spec.build().unwrap();
    let trace = bsld::swf::parse_swf(std::str::from_utf8(&buf).unwrap()).unwrap();
    let in_memory = Workload::from_swf("raw", &trace);
    assert_same_workload(&streamed, &in_memory, "unclean");
}

/// The end-to-end oracle: a scenario sweep over an SWF trace, run through
/// the streaming load, yields byte-identical result tables and
/// `scenario_results.csv` contents to the same cells run by the scenario
/// kernel over the reference workload.
#[test]
fn scenario_sweep_matches_the_reference_workload() {
    let scratch = Scratch::new("sweep");
    let path = scratch.path("sweep.swf");
    let w = TraceProfile::ctc().scaled_cpus(64).generate(11, 300);
    let text = bsld::swf::write_swf(&w.to_swf());
    std::fs::write(&path, &text).unwrap();

    let scn = format!(
        "scenario = ab\nworkload = swf\nswf_path = {}\nsweep.bsld_th = 1.5 3\n",
        path.display()
    );
    let cells = ScenarioSet::parse(&scn).unwrap().expand().unwrap();
    let render = |results: Vec<Result<CellOutcome, String>>| {
        let rows: Vec<(String, Result<CellOutcome, String>)> = cells
            .iter()
            .map(|sc| sc.name.clone())
            .zip(results)
            .collect();
        let report = sweep_report(&rows);
        (report.table, report.csv)
    };

    let streaming = render(
        run_many(&cells, 1)
            .into_iter()
            .map(|res| res.map(|r| CellOutcome::of(&r)).map_err(|e| e.to_string()))
            .collect(),
    );
    let reference = reference_workload(&path, &text);
    let in_memory = render(
        cells
            .iter()
            .map(|sc| {
                let sim = sc.simulator(&reference).unwrap();
                let res = sc.run_prepared(&sim, &reference.jobs);
                res.map(|r| CellOutcome::of(&r)).map_err(|e| e.to_string())
            })
            .collect(),
    );
    assert_eq!(streaming.0, in_memory.0, "result tables diverged");
    assert_eq!(streaming.1, in_memory.1, "scenario_results.csv diverged");
}

/// Error identity: a trace with a garbage tail (torn download) fails with
/// the reference parser's error on the same bytes, and a truncated final
/// line likewise.
#[test]
fn damaged_traces_fail_identically_on_both_paths() {
    let scratch = Scratch::new("damage");
    let mut good = Vec::new();
    bsld::swf::generate_swf(&mut good, 50, 1, 32).unwrap();

    for (tag, tail) in [
        ("garbage", "this is not an swf line at all\n"),
        ("truncated", "51 1000 -1 10\n"),
    ] {
        let path = scratch.path(&format!("{tag}.swf"));
        let mut bytes = good.clone();
        bytes.extend_from_slice(tail.as_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let spec = WorkloadSpec::Swf { path, clean: true };
        let streaming_err = spec.build().unwrap_err().to_string();
        let parse_err = bsld::swf::parse_swf(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
        let reference_err = ScenarioError::Workload(parse_err.to_string()).to_string();
        assert_eq!(streaming_err, reference_err, "{tag}: errors diverged");
        assert!(
            streaming_err.contains("line"),
            "{tag}: error should locate the bad line: {streaming_err}"
        );
    }
}

/// A missing file is the same `cannot read …` error a plain read reports.
#[test]
fn missing_file_error_is_path_independent() {
    let path = PathBuf::from("/nonexistent/void.swf");
    let spec = WorkloadSpec::Swf {
        path: path.clone(),
        clean: true,
    };
    let streaming_err = spec.build().unwrap_err().to_string();
    let io_err = std::fs::read_to_string(&path).unwrap_err();
    let reference_err =
        ScenarioError::Io(format!("cannot read {}: {io_err}", path.display())).to_string();
    assert_eq!(streaming_err, reference_err);
    assert!(streaming_err.contains("cannot read"), "{streaming_err}");
}
