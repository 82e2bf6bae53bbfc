//! `bsld-repro` — regenerate every table and figure of Etinski et al. 2010.
//!
//! ```text
//! bsld-repro <experiment> [--jobs N] [--seed S] [--threads T] [--out DIR] [--no-csv]
//!
//! experiments:
//!   table1     workload characteristics & baseline avg BSLD
//!   table3     average wait times (orig / enlarged systems)
//!   fig3       normalized energy, original size (both idle scenarios)
//!   fig4       number of jobs run at reduced frequency
//!   fig5       average BSLD, original size
//!   fig6       SDSC-Blue wait-time series (orig vs DVFS 2/16)
//!   fig7       normalized energy of enlarged systems, WQ = 0
//!   fig8       normalized energy of enlarged systems, WQ = NO
//!   fig9       average BSLD of enlarged systems
//!   ablations  beyond-paper studies (boost / beta / fcfs / gears / selection)
//!   powercap   beyond-paper: power-cap levels x BSLD thresholds frontier
//!   all        everything above
//!   calibrate  baseline-vs-paper calibration summary (same as table1)
//!
//! tooling subcommands (`--help` lists the flags each one reads):
//!   run FILE.scn        run every cell of a scenario file (sweep axes
//!                       included) and print the result table; --set
//!                       sets single keys, --export writes each cell's
//!                       schedule, series, details and SWF workload
//!   campaign-worker FILE.scn --shard I/N --out DIR
//!                       run one shard of a campaign into a per-worker
//!                       manifest in the shared DIR
//!   campaign-merge DIR  union the worker manifests of DIR and write the
//!                       aggregated results + JSON report
//!   gen-swf --swf FILE  write a deterministic synthetic SWF trace
//!   audit               static determinism/numeric-safety audit
//!   serve --socket PATH scheduling-as-a-service daemon (crates/serve)
//!   query <op> --socket PATH
//!                       one request to a running daemon
//!   trace-summary FILE  validate a --trace-out Chrome trace and print
//!                       per-cell event tallies (the CI trace validator)
//! ```
//!
//! A scenario is described one way: a `.scn` file, plus `--set` for single
//! keys. The experiments are no exception: each runs its study files under
//! `paper/` (compiled in; `run paper/grid.scn` runs the Figs. 3–5 cells as
//! they are), with `--jobs` and `--seed` set on their workload, and
//! normalises each cell against its reference (see
//! `bsld_core::experiments`). Every flag is one row of [`FLAGS`], which
//! names the subcommands that read it; any other subcommand refuses it.
//! The grid experiments (`fig3`/`fig4`/`fig5`/`all`) also read
//! `--trace-out PATH`: write the deterministic simulation trace of every
//! sweep cell as one Chrome-trace JSON file (Perfetto-loadable,
//! byte-identical across re-runs regardless of `--threads`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use bsld_core::campaign::{run_campaign, CampaignOptions, JSON_FILE, RESULTS_FILE};
use bsld_core::distrib::{merge_campaign, run_worker, worker_manifest_file, Shard};
use bsld_core::experiments::{ablation, enlarged, fig6, grid, powercap, table1, ExpOptions, Study};
use bsld_core::policy::WqThreshold;
use bsld_core::scenario::{ScenarioError, ScenarioSet, WorkloadSpec};
use bsld_core::{sweep_report, CellOutcome, RunResult, Scenario, ScenarioResult};
use bsld_metrics::{Json, RunDetails};

/// Every experiment name the CLI accepts, shown by `--help` and by
/// unknown-experiment errors.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablations",
    "powercap",
    "all",
    "calibrate",
];

/// Every tooling subcommand but `audit` (which parses its own flags and
/// must come first), with the number of bare operands it takes:
/// `run FILE.scn`, `query cache clear`. Experiments take none.
const TOOLS: &[(&str, usize)] = &[
    ("run", 1),
    ("campaign-worker", 1),
    ("campaign-merge", 1),
    ("gen-swf", 0),
    ("serve", 0),
    ("query", 2),
    ("trace-summary", 1),
];

fn operand_count(command: &str) -> usize {
    TOOLS
        .iter()
        .find(|&&(t, _)| t == command)
        .map_or(0, |&(_, n)| n)
}

/// A command-line flag: its name, the placeholder of its value (empty for
/// a switch) and the subcommands that read it, space-separated, where
/// `experiments` stands for every name in [`EXPERIMENTS`].
struct Flag {
    name: &'static str,
    value: &'static str,
    readers: &'static str,
}

const fn flag(name: &'static str, value: &'static str, readers: &'static str) -> Flag {
    Flag {
        name,
        value,
        readers,
    }
}

/// Every flag the CLI accepts. A flag given to a subcommand outside its
/// readers is an error, never silently ignored; the last of a repeated
/// flag wins, except `--set`, which accumulates.
const FLAGS: &[Flag] = &[
    flag("--jobs", "N", "experiments run campaign-worker gen-swf"),
    flag("--seed", "S", "experiments run campaign-worker gen-swf"),
    flag("--threads", "T", "experiments run campaign-worker serve"),
    flag("--out", "DIR", "experiments run campaign-worker"),
    flag("--no-csv", "", "experiments run"),
    flag("--trace-out", "PATH", "fig3 fig4 fig5 all"),
    flag("--set", "key=value", "run campaign-worker query"),
    flag("--export", "DIR", "run"),
    flag("--resume", "DIR", "run"),
    flag("--shard", "I/N", "campaign-worker"),
    flag("--swf", "FILE", "gen-swf query"),
    flag("--max-procs", "P", "gen-swf"),
    flag("--socket", "PATH", "serve query"),
    flag("--workers", "W", "serve"),
    flag("--cache", "N", "serve"),
    flag("--budget", "S", "serve query"),
    // Read before the subcommand is known (`-h` is its short form): it
    // prints the usage and exits 0 whatever the subcommand.
    flag("--help", "", "any"),
];

fn usage() -> String {
    let tools: Vec<&str> = TOOLS.iter().map(|&(t, _)| t).collect();
    let flags: String = FLAGS
        .iter()
        .map(|f| {
            let name = format!("{} {}", f.name, f.value);
            format!("\n  {name:<20} {}", f.readers.replace(' ', ", "))
        })
        .collect();
    format!(
        "usage: bsld-repro <{}|audit|{}> [flags]\n\
         run FILE.scn       run every cell of a scenario file (sweep axes included) and\n\
         \x20                  print the result table. --set sets one key as `query run --set`\n\
         \x20                  does (bsld_th, wq, cap, model, jobs, seed, profile, enlarge_pct,\n\
         \x20                  cell_budget_s). --export DIR writes each cell's\n\
         \x20                  I-NAME_{{schedule,utilization,queue}}.csv, I-NAME_details.txt and\n\
         \x20                  I-NAME.swf. A file with `replications = N` or `cell_budget_s`, or\n\
         \x20                  --resume DIR, runs as a campaign (per-cell mean ± 95% CI,\n\
         \x20                  incremental manifest, cached cells skipped, campaign.json)\n\
         campaign-worker FILE.scn --shard I/N --out DIR\n\
         \x20                  run the units content-hashed to shard I of N; a re-run resumes\n\
         campaign-merge DIR validate shard coverage, union the worker manifests, write\n\
         \x20                  campaign_results.csv + campaign.json byte-identical to `run`\n\
         gen-swf --swf FILE deterministic synthetic SWF trace of --jobs N jobs on a\n\
         \x20                  --max-procs P machine at ~0.7 offered load, cleaning-invariant\n\
         audit [--json] [--root DIR]\n\
         \x20                  static determinism/numeric-safety audit of the workspace\n\
         \x20                  source; exit 1 on violations (see crates/audit)\n\
         serve --socket PATH\n\
         \x20                  daemon: keeps parsed workloads and finished cells resident,\n\
         \x20                  answers line-delimited JSON queries until shutdown\n\
         query <run FILE.scn|status|metrics|cache [clear]|shutdown> --socket PATH\n\
         \x20                  one request to a running daemon: `run` prints what `run\n\
         \x20                  FILE.scn --no-csv` prints with the same --set pairs; `metrics`\n\
         \x20                  adds per-op latency histograms to the counters; `cache --swf\n\
         \x20                  PATH` pins a parsed and cleaned trace in the workload cache\n\
         trace-summary FILE validate a --trace-out Chrome trace (fig3/fig4/fig5/all) and\n\
         \x20                  print per-cell event tallies; exit 1 on malformed input\n\
         flags, each with the subcommands that read it:{flags}",
        EXPERIMENTS.join("|"),
        tools.join("|"),
    )
}

/// One parsed command line.
struct Args {
    /// The experiment or tooling subcommand.
    command: String,
    /// Its bare operands, at most as many as [`TOOLS`] allows.
    operands: Vec<String>,
    /// Every flag given, in order, with its value (`""` for a switch).
    flags: Vec<(&'static Flag, String)>,
    /// What the experiments read: `--jobs`, `--seed`, `--threads`,
    /// `--out`/`--no-csv` and `--trace-out`.
    opts: ExpOptions,
}

impl Args {
    /// The last value given for `name`.
    fn value(&self, name: &str) -> Option<&str> {
        let mut given = self.flags.iter().rev().filter(|(f, _)| f.name == name);
        given.next().map(|(_, v)| v.as_str())
    }

    /// Every value given for `name`, in order.
    fn values(&self, name: &str) -> Vec<&str> {
        let given = self.flags.iter().filter(|(f, _)| f.name == name);
        given.map(|(_, v)| v.as_str()).collect()
    }

    fn given(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The last value given for `name`, parsed.
    fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad {name} value: {v}")))
            .transpose()
    }

    /// Whether `--out` or `--no-csv` was given (a scenario file's own
    /// `out_dir` is overridden only then).
    fn out_set(&self) -> bool {
        self.given("--out") || self.given("--no-csv")
    }
}

/// Whether `command` reads flag `f`.
fn reads(f: &Flag, command: &str) -> bool {
    let is_experiment = EXPERIMENTS.contains(&command);
    let reader = |r: &str| r == command || (r == "experiments" && is_experiment);
    f.readers.split(' ').any(reader)
}

/// Parses the command line against [`FLAGS`] and [`TOOLS`]. `Ok(None)`:
/// `--help` was given (print usage, exit 0).
fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    let mut command: Option<String> = None;
    let mut operands = Vec::new();
    let mut flags = Vec::new();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let name = if arg == "-h" { "--help" } else { arg.as_str() };
        if let Some(f) = FLAGS.iter().find(|f| f.name == name) {
            let value = match f.value {
                "" => String::new(),
                what => it
                    .next()
                    .ok_or_else(|| format!("{name} needs a value ({what})"))?
                    .clone(),
            };
            flags.push((f, value));
            continue;
        }
        let takes = command.as_deref().map_or(0, operand_count);
        match &command {
            None if !arg.starts_with('-') => command = Some(arg.clone()),
            Some(_) if !arg.starts_with('-') && operands.len() < takes => {
                operands.push(arg.clone());
            }
            // A stray bare word is an error, not ignored: `table3 100`
            // (forgot --jobs) must not run the defaults.
            _ => return Err(format!("unknown argument: {arg}\n{}", usage())),
        }
    }
    if flags.iter().any(|(f, _)| f.name == "--help") {
        return Ok(None);
    }
    let command = command.ok_or_else(usage)?;
    let is_experiment = EXPERIMENTS.contains(&command.as_str());
    if !is_experiment && !TOOLS.iter().any(|&(t, _)| t == command) {
        let tools: Vec<&str> = TOOLS.iter().map(|&(t, _)| t).collect();
        return Err(format!(
            "unknown experiment: {command} (valid: {}, {})\n{}",
            EXPERIMENTS.join(", "),
            tools.join(", "),
            usage()
        ));
    }
    for (f, _) in &flags {
        if !reads(f, &command) {
            return Err(format!(
                "{} only applies to {}\n{}",
                f.name,
                f.readers.replace(' ', ", "),
                usage()
            ));
        }
    }
    let mut args = Args {
        command,
        operands,
        flags,
        opts: ExpOptions::default(),
    };
    if let Some(jobs) = args.parsed("--jobs")? {
        args.opts.jobs = jobs;
    }
    if let Some(seed) = args.parsed("--seed")? {
        args.opts.seed = seed;
    }
    if let Some(threads) = args.parsed("--threads")? {
        args.opts.threads = threads;
    }
    // `--out DIR` and `--no-csv` override each other: the later one wins.
    let out = args
        .flags
        .iter()
        .rev()
        .find(|(f, _)| matches!(f.name, "--out" | "--no-csv"));
    if let Some((f, dir)) = out {
        args.opts.out_dir = (f.name == "--out").then(|| PathBuf::from(dir));
    }
    args.opts.trace_out = args.value("--trace-out").map(PathBuf::from);
    Ok(Some(args))
}

/// `gen-swf --jobs N --seed S --swf FILE [--max-procs P]`: write a
/// deterministic synthetic SWF trace straight to disk, for scale testing
/// (`run --export` writes the SWF of a calibrated profile's workload).
fn run_gen_swf(args: &Args) -> Result<(), String> {
    let out = args.value("--swf").ok_or("gen-swf needs --swf FILE")?;
    let jobs = args.opts.jobs as u64;
    let max_procs = args
        .parsed("--max-procs")?
        .unwrap_or(bsld_swf::GEN_SWF_DEFAULT_PROCS);
    if max_procs == 0 {
        return Err("--max-procs must be at least 1".to_string());
    }
    let file = std::fs::File::create(out).map_err(|e| format!("cannot write {out}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    bsld_swf::generate_swf(&mut w, jobs, args.opts.seed, max_procs)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "# wrote {out} ({jobs} jobs on {max_procs} cpus, seed {})",
        args.opts.seed
    );
    Ok(())
}

/// The `run FILE.scn` subcommand: parse, expand the sweep axes, run every
/// cell in parallel and print/write a results table.
fn run_scenario_file(args: &Args) -> Result<(), String> {
    let path = args
        .operands
        .first()
        .ok_or("run needs a scenario file: bsld-repro run FILE.scn")?;
    let mut set = load_scenario_file(path, args)?;
    if args.out_set() {
        set.base.output.out_dir = args.opts.out_dir.clone();
    }
    // Replicated sweeps, budgeted sweeps and resumable runs go through the
    // campaign layer: per-cell mean ± 95% CI, content-hash cell IDs,
    // incremental manifest, failure rows.
    if set.replications > 1 || set.cell_budget_s.is_some() || args.given("--resume") {
        if args.given("--export") {
            return Err(
                "--export does not apply to a campaign run (replications, cell_budget_s or \
                 --resume): it writes one schedule per cell, a campaign runs many"
                    .to_string(),
            );
        }
        return run_campaign_file(path, &set, args);
    }
    let cells = set.expand().map_err(|e| e.to_string())?;
    eprintln!("# {path}: {} scenario(s)", cells.len());
    let results = bsld_core::scenario::run_many(&cells, args.opts.threads);

    // The one sweep renderer, shared with the serve daemon: its output is
    // the byte-identity contract between `run` and `query run`.
    let rows: Vec<(String, Result<CellOutcome, String>)> = cells
        .iter()
        .zip(&results)
        .map(|(sc, res)| {
            let outcome = res.as_ref().map(CellOutcome::of);
            (sc.name.clone(), outcome.map_err(|e| e.to_string()))
        })
        .collect();
    let report = sweep_report(&rows);
    println!("{}", report.table);
    if let Some(dir) = &set.base.output.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let out = dir.join("scenario_results.csv");
        std::fs::write(&out, &report.csv).map_err(|e| e.to_string())?;
        eprintln!("# wrote {}", out.display());
    }
    if let Some(dir) = args.value("--export") {
        export_cells(Path::new(dir), &cells, &results)
            .map_err(|e| format!("export failed: {e}"))?;
    }
    if let Some(msg) = report.failure_summary() {
        return Err(msg);
    }
    Ok(())
}

/// `run --export DIR`: writes five files per cell that ran, named after
/// the cell's expansion index and its name with every character outside
/// `[A-Za-z0-9._-]` mapped to `_` (`3-paper-blue-bsld_2_NO`), so any two
/// cells get distinct, filesystem-safe names.
fn export_cells(
    dir: &Path,
    cells: &[Scenario],
    results: &[Result<ScenarioResult, ScenarioError>],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (i, (sc, res)) in cells.iter().zip(results).enumerate() {
        let Ok(res) = res else { continue };
        let safe = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_');
        let name: String = sc
            .name
            .chars()
            .map(|c| if safe(c) { c } else { '_' })
            .collect();
        for (suffix, bytes) in cell_files(sc, &res.run)? {
            let path = dir.join(format!("{i}-{name}{suffix}"));
            std::fs::write(&path, bytes)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("# wrote {}", path.display());
        }
    }
    Ok(())
}

/// One cell's export files, by name suffix:
///
/// * `_schedule.csv`: one row per job, the Gantt data;
/// * `_utilization.csv` and `_queue.csv`: step series;
/// * `_details.txt`: utilisation, makespan and idle energy, which the
///   results table lacks, and the per-class [`RunDetails`];
/// * `.swf`: the cell's workload as an SWF trace.
///
/// The run keeps only outcomes and metrics, so the workload and the power
/// rails are rebuilt from the spec.
fn cell_files(sc: &Scenario, run: &RunResult) -> Result<[(&'static str, Vec<u8>); 5], String> {
    use bsld_metrics::series::{queue_depth_series, utilization_series};

    let w = sc.build_workload().map_err(|e| e.to_string())?;
    let sim = sc.simulator(&w).map_err(|e| e.to_string())?;
    let csv = |header: &[&str], rows: Vec<Vec<String>>| {
        let mut bytes = Vec::new();
        bsld_metrics::write_csv(&mut bytes, header, &rows).map_err(|e| e.to_string())?;
        Ok::<_, String>(bytes)
    };
    let series = |name: &str, points: Vec<(u64, u32)>| {
        let rows = points
            .iter()
            .map(|&(t, v)| vec![t.to_string(), v.to_string()]);
        csv(&["time_s", name], rows.collect())
    };
    let mut by_id: Vec<&bsld_model::JobOutcome> = run.outcomes.iter().collect();
    by_id.sort_by_key(|o| o.id);
    let schedule = by_id
        .iter()
        .map(|o| {
            vec![
                o.id.0.to_string(),
                o.cpus.to_string(),
                o.arrival.as_secs().to_string(),
                o.start.as_secs().to_string(),
                o.finish.as_secs().to_string(),
                o.gear.0.to_string(),
                format!("{:.3}", o.bsld(bsld_model::BSLD_SHORT_JOB_THRESHOLD_SECS)),
            ]
        })
        .collect();
    let columns = [
        "job",
        "cpus",
        "arrival_s",
        "start_s",
        "finish_s",
        "gear",
        "bsld",
    ];
    let m = &run.metrics;
    let details = format!(
        "avg BSLD {:.2} | avg wait {:.0} s | reduced {} | util {:.3} | makespan {:.1} d\n\
         energy: computational {:.3e}, with idle {:.3e} (normalised units)\n\n{}\n",
        m.avg_bsld,
        m.avg_wait_secs,
        m.reduced_jobs,
        m.utilization,
        m.makespan_secs as f64 / 86_400.0,
        m.energy.computational,
        m.energy.with_idle,
        RunDetails::compute(&run.outcomes, &sim.power).render()
    );
    Ok([
        ("_schedule.csv", csv(&columns, schedule)?),
        (
            "_utilization.csv",
            series("utilization", utilization_series(&run.outcomes))?,
        ),
        (
            "_queue.csv",
            series("queue", queue_depth_series(&run.outcomes))?,
        ),
        ("_details.txt", details.into_bytes()),
        (".swf", bsld_swf::write_swf(&w.to_swf()).into_bytes()),
    ])
}

/// Parses a scenario file, applies the `--jobs`/`--seed` overrides and
/// then the `--set` pairs — the shared front door of `run` and
/// `campaign-worker` (both must see the same spec for their artifacts to
/// be byte-identical). `--set` goes through the overrides `query run`
/// sends, so `run F --set k=v` prints what `query run F --set k=v` prints.
fn load_scenario_file(path: &str, args: &Args) -> Result<ScenarioSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut set = ScenarioSet::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let (jobs_set, seed_set) = (args.given("--jobs"), args.given("--seed"));
    if jobs_set || seed_set {
        match &mut set.base.workload {
            WorkloadSpec::Synthetic { jobs, seed, .. } => {
                if jobs_set {
                    *jobs = args.opts.jobs;
                }
                if seed_set {
                    *seed = args.opts.seed;
                }
            }
            WorkloadSpec::Swf { path: swf, .. } => {
                eprintln!(
                    "# warning: --jobs/--seed do not apply to an SWF workload; \
                     replaying the full trace {}",
                    swf.display()
                );
            }
        }
    }
    query_overrides(&args.values("--set"), None)?.apply(&mut set)?;
    Ok(set)
}

/// The campaign path of `run`: replications fan out across derived seeds,
/// each completed replication is flushed to the manifest immediately, and
/// `--resume DIR` skips cells whose rows are already on disk. A live
/// status line tracks unit completion.
fn run_campaign_file(path: &str, set: &ScenarioSet, args: &Args) -> Result<(), String> {
    // The manifest lives in the resume dir when given, else the out dir.
    // Without either the campaign runs in memory (no caching). An explicit
    // --out next to --resume would be silently shadowed — reject it
    // instead of letting the user believe artifacts land in two places
    // (--no-csv stays allowed: it asks for nothing).
    if args.given("--resume") && args.out_set() && args.opts.out_dir.is_some() {
        return Err(
            "--out does not combine with --resume: the campaign's manifest and results \
             live in the resume directory"
                .to_string(),
        );
    }
    let dir = args
        .value("--resume")
        .map(PathBuf::from)
        .or_else(|| set.base.output.out_dir.clone());
    let opts = CampaignOptions {
        threads: args.opts.threads,
        dir: dir.clone(),
        resume: args.given("--resume"),
    };
    let cells = set.expand().map_err(|e| e.to_string())?.len();
    eprintln!(
        "# {path}: campaign of {cells} cell(s) x {} replication(s){}",
        set.replications,
        match &dir {
            Some(d) => format!(", manifest in {}", d.display()),
            None => ", in memory (no --resume dir, no out_dir: nothing cached)".into(),
        }
    );
    // The status line: workers tick the shared Progress counter and each
    // tick goes to StatusLine, which redraws in place on a terminal and
    // otherwise prints the last count once the run ends.
    let line = bsld_par::StatusLine::new("campaign");
    let status = |done: usize, total: usize| line.update(done, total);
    let outcome = run_campaign(set, &opts, Some(&status)).map_err(|e| e.to_string())?;
    line.finish();
    if outcome.resumed > 0 {
        eprintln!(
            "# resumed: {} of {} run(s) already cached in the manifest",
            outcome.resumed, outcome.total_units
        );
    }
    if outcome.stale_rows > 0 {
        eprintln!(
            "# warning: {} manifest row(s) match no cell of this campaign (ignored)",
            outcome.stale_rows
        );
    }
    if outcome.excess_rows > 0 {
        eprintln!(
            "# note: {} manifest row(s) are replications beyond the current \
             `replications = {}` (ignored)",
            outcome.excess_rows, set.replications
        );
    }
    println!("{}", outcome.render_table());
    if let Some(d) = &dir {
        eprintln!("# wrote {}", d.join(RESULTS_FILE).display());
        eprintln!("# wrote {}", d.join(JSON_FILE).display());
    }
    if !outcome.failures.is_empty() {
        return Err(format!(
            "{} of {} run(s) failed (recorded as `failed` manifest rows; delete the rows \
             or the manifest to retry):\n  {}",
            outcome.failures.len(),
            outcome.total_units,
            outcome.failures.join("\n  ")
        ));
    }
    Ok(())
}

/// The `campaign-worker FILE.scn --shard I/N --out DIR` subcommand: run
/// one content-hash shard of the campaign, appending to this worker's own
/// manifest in the shared directory. Re-running after a crash resumes.
fn run_campaign_worker(args: &Args) -> Result<(), String> {
    let path = args.operands.first().ok_or(
        "campaign-worker needs a scenario file: bsld-repro campaign-worker FILE.scn --shard I/N --out DIR",
    )?;
    let shard = Shard::parse(
        args.value("--shard")
            .ok_or("campaign-worker needs --shard I/N")?,
    )?;
    let dir = PathBuf::from(
        args.value("--out")
            .ok_or("campaign-worker needs --out DIR (the shared campaign directory)")?,
    );
    let set = load_scenario_file(path, args)?;
    eprintln!(
        "# {path}: shard {shard} into {} (manifest {})",
        dir.display(),
        worker_manifest_file(shard.index)
    );
    let line = bsld_par::StatusLine::new(format!("worker {}", shard.index));
    let status = |done: usize, total: usize| line.update(done, total);
    let outcome = run_worker(&set, shard, args.opts.threads, &dir, Some(&status))
        .map_err(|e| e.to_string())?;
    line.finish();
    if outcome.resumed > 0 {
        eprintln!(
            "# resumed: {} of {} shard run(s) already in this worker's manifest",
            outcome.resumed, outcome.shard_units
        );
    }
    eprintln!(
        "# shard {shard}: {} of {} campaign unit(s) done; merge with \
         `bsld-repro campaign-merge {}` once every shard has run",
        outcome.shard_units,
        outcome.total_units,
        dir.display()
    );
    if !outcome.failures.is_empty() {
        return Err(format!(
            "{} of {} shard run(s) failed (recorded as `failed` manifest rows; delete the \
             rows or the manifest to retry):\n  {}",
            outcome.failures.len(),
            outcome.shard_units,
            outcome.failures.join("\n  ")
        ));
    }
    Ok(())
}

/// The `campaign-merge DIR` subcommand: validate shard coverage, union the
/// per-worker manifests, and write aggregated artifacts byte-identical to
/// a single-process `run` of the pinned scenario file.
fn run_campaign_merge(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(
        args.operands
            .first()
            .ok_or("campaign-merge needs a directory: bsld-repro campaign-merge DIR")?,
    );
    let merged = merge_campaign(&dir).map_err(|e| e.to_string())?;
    let outcome = &merged.outcome;
    eprintln!(
        "# merged {} worker manifest(s) (shards {}), {} unit(s)",
        merged.workers.len(),
        merged
            .workers
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(","),
        outcome.total_units
    );
    if merged.duplicate_rows > 0 {
        eprintln!(
            "# note: {} identical duplicate row(s) from overlapping shard re-runs (deduplicated)",
            merged.duplicate_rows
        );
    }
    if outcome.stale_rows > 0 {
        eprintln!(
            "# warning: {} manifest row(s) match no cell of this campaign (ignored)",
            outcome.stale_rows
        );
    }
    if outcome.excess_rows > 0 {
        eprintln!(
            "# note: {} manifest row(s) are replications beyond `replications = {}` (ignored)",
            outcome.excess_rows, merged.set.replications
        );
    }
    println!("{}", outcome.render_table());
    eprintln!("# wrote {}", dir.join(RESULTS_FILE).display());
    eprintln!("# wrote {}", dir.join(JSON_FILE).display());
    if !outcome.failures.is_empty() {
        return Err(format!(
            "{} of {} run(s) failed (recorded as `failed` manifest rows):\n  {}",
            outcome.failures.len(),
            outcome.total_units,
            outcome.failures.join("\n  ")
        ));
    }
    Ok(())
}

/// `serve --socket PATH`: stand up the scheduling-as-a-service daemon and
/// block until a client sends `{"op":"shutdown"}`.
fn run_serve(args: &Args) -> Result<(), String> {
    let socket = args
        .value("--socket")
        .ok_or("serve needs --socket PATH (the Unix socket to listen on)")?;
    let mut cfg = bsld_serve::ServeConfig::new(PathBuf::from(socket));
    if let Some(w) = args.parsed::<usize>("--workers")? {
        cfg.workers = w.max(1);
    }
    cfg.state.threads = args.opts.threads;
    if let Some(n) = args.parsed("--cache")? {
        cfg.state.result_capacity = n;
    }
    cfg.state.default_budget_s = args.parsed("--budget")?;
    eprintln!(
        "# serve: listening on {} (workers={}, threads={}, result cache={} cells{})",
        cfg.socket.display(),
        cfg.workers,
        cfg.state.threads,
        cfg.state.result_capacity,
        match cfg.state.default_budget_s {
            Some(b) => format!(", default budget={b}s"),
            None => String::new(),
        }
    );
    let server = bsld_serve::Server::bind(cfg).map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())?;
    eprintln!("# serve: drained and exited cleanly");
    Ok(())
}

/// Builds the daemon overrides from `--set key=value` pairs, each value
/// written as in a `.scn` file, plus `--budget`.
fn query_overrides(sets: &[&str], budget: Option<f64>) -> Result<bsld_serve::Overrides, String> {
    let mut pairs = Vec::new();
    for kv in sets {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad --set {kv:?}: expected key=value"))?;
        pairs.push((k.to_string(), Json::str(v)));
    }
    if let Some(b) = budget {
        pairs.push(("budget_s".to_string(), Json::Num(b)));
    }
    bsld_serve::Overrides::from_json(&Json::Obj(pairs))
}

/// `query <op> --socket PATH`: one request to a running daemon. `run`
/// prints the daemon's table to stdout — byte-identical to the one-shot
/// `run` subcommand — and exits 1 on cell failures, exactly like it.
fn run_query(args: &Args) -> Result<(), String> {
    let socket = args
        .value("--socket")
        .ok_or("query needs --socket PATH (a running daemon's socket)")?;
    let op = args.operands.first().ok_or(
        "query needs an operation: query <run FILE.scn|status|metrics|cache [clear]|shutdown> --socket PATH",
    )?;
    // Only `run FILE` and `cache clear` read a second operand.
    let takes_none = matches!(op.as_str(), "status" | "metrics" | "shutdown");
    if let Some(extra) = args.operands.get(1).filter(|_| takes_none) {
        return Err(format!("query {op} takes no operand, got {extra:?}"));
    }
    let mut client = bsld_serve::Client::connect(Path::new(socket))?;
    let reply = match op.as_str() {
        "run" => {
            let file = args
                .operands
                .get(1)
                .ok_or("query run needs a scenario file: query run FILE.scn --socket PATH")?;
            let text = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read scenario file {file}: {e}"))?;
            let ov = query_overrides(&args.values("--set"), args.parsed("--budget")?)?;
            let reply = client.run(&text, &ov)?;
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                let msg = reply
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("daemon sent a malformed reply");
                return Err(format!("query failed: {msg}"));
            }
            let table = reply
                .get("table")
                .and_then(Json::as_str)
                .ok_or("daemon reply lacks a table")?;
            println!("{table}");
            return match reply.get("failure_summary").and_then(Json::as_str) {
                Some(summary) => Err(summary.to_string()),
                None => Ok(()),
            };
        }
        "status" => client.status()?,
        "metrics" => client.metrics()?,
        "cache" => {
            let clear = match args.operands.get(1).map(String::as_str) {
                None => false,
                Some("clear") => true,
                Some(other) => {
                    return Err(format!(
                        "bad cache operand {other:?} (only `clear` is accepted)"
                    ))
                }
            };
            match args.value("--swf") {
                Some(path) if clear => {
                    return Err(format!(
                        "cache takes either `clear` or --swf {path}, not both"
                    ))
                }
                Some(path) => client.cache_pin(path)?,
                None => client.cache(clear)?,
            }
        }
        "shutdown" => client.shutdown()?,
        other => {
            return Err(format!(
                "unknown query operation {other:?} (run FILE.scn | status | metrics | cache [clear] | shutdown)"
            ))
        }
    };
    println!("{}", reply.render());
    Ok(())
}

/// Per-cell tallies accumulated while validating a Chrome trace.
#[derive(Default)]
struct TraceCellSummary {
    name: String,
    arrivals: u64,
    starts: u64,
    backfilled: u64,
    finishes: u64,
    passes: u64,
    elided: u64,
    cap_vetoes: u64,
    retries: u64,
    sleeps: u64,
    boosts: u64,
    boost_vetoes: u64,
    /// Latest simulated-microsecond timestamp seen.
    last_us: u64,
}

/// `trace-summary FILE`: parse a `--trace-out` Chrome trace, reject
/// anything malformed (not a JSON array, events missing `ph`/`pid`/`ts`,
/// unknown event names, unbalanced job slices) and print per-cell event
/// tallies. CI uses this as the trace validator: exit 1 means the trace
/// plane regressed.
fn run_trace_summary(args: &Args) -> Result<(), String> {
    let path = args
        .operands
        .first()
        .ok_or("trace-summary needs a trace file: bsld-repro trace-summary FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let Json::Arr(events) = doc else {
        return Err(format!(
            "{path}: a Chrome trace is a JSON array of event objects"
        ));
    };
    let mut cells: Vec<TraceCellSummary> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let bad = |what: &str| format!("{path}: event {i} {what}");
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("lacks a string \"ph\" phase"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("lacks a numeric \"pid\""))?;
        // A hostile pid would balloon the per-cell table; real sweeps are
        // a few dozen cells.
        let pid = usize::try_from(pid)
            .ok()
            .filter(|&p| p < 100_000)
            .ok_or_else(|| bad("has an implausible \"pid\""))?;
        while cells.len() <= pid {
            cells.push(TraceCellSummary::default());
        }
        let cell = &mut cells[pid];
        if ph == "M" {
            cell.name = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .ok_or_else(|| bad("metadata lacks args.name"))?
                .to_string();
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("lacks a numeric \"ts\""))?;
        cell.last_us = cell.last_us.max(ts);
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("lacks a string \"name\""))?;
        let arg_bool = |key: &str| {
            ev.get("args")
                .and_then(|a| a.get(key))
                .and_then(Json::as_bool)
        };
        match (ph, name) {
            ("B", _) => {
                cell.starts += 1;
                if arg_bool("backfilled") == Some(true) {
                    cell.backfilled += 1;
                }
            }
            ("E", _) => cell.finishes += 1,
            ("i", "arrive") => cell.arrivals += 1,
            ("i", "pass") => {
                if arg_bool("elided") == Some(true) {
                    cell.elided += 1;
                } else {
                    cell.passes += 1;
                }
            }
            ("i", "cap veto") => cell.cap_vetoes += 1,
            ("i", "power retry") => cell.retries += 1,
            ("i", "sleep") => cell.sleeps += 1,
            ("i", "boost") => cell.boosts += 1,
            ("i", "boost veto") => cell.boost_vetoes += 1,
            ("i", other) => return Err(bad(&format!("has an unknown instant name {other:?}"))),
            (other, _) => return Err(bad(&format!("has an unknown phase {other:?}"))),
        }
    }
    for (pid, c) in cells.iter().enumerate() {
        if c.finishes > c.starts {
            return Err(format!(
                "{path}: pid {pid}: {} slice end(s) but only {} begin(s) — unbalanced job slices",
                c.finishes, c.starts
            ));
        }
    }
    println!(
        "{path}: {} event(s) across {} cell(s)",
        events.len(),
        cells.len()
    );
    println!(
        "{:<32} {:>7} {:>7} {:>7} {:>6} {:>6} {:>5} {:>10}",
        "cell", "arrive", "start", "finish", "pass", "elided", "veto", "span_sim_s"
    );
    let mut bf = 0u64;
    let (mut retries, mut sleeps, mut boosts, mut bvetoes) = (0u64, 0u64, 0u64, 0u64);
    for (pid, c) in cells.iter().enumerate() {
        let label = if c.name.is_empty() {
            format!("pid {pid}")
        } else {
            c.name.clone()
        };
        println!(
            "{label:<32} {:>7} {:>7} {:>7} {:>6} {:>6} {:>5} {:>10}",
            c.arrivals,
            c.starts,
            c.finishes,
            c.passes,
            c.elided,
            c.cap_vetoes,
            c.last_us / 1_000_000,
        );
        bf += c.backfilled;
        retries += c.retries;
        sleeps += c.sleeps;
        boosts += c.boosts;
        bvetoes += c.boost_vetoes;
    }
    println!(
        "totals: {bf} backfilled start(s), {retries} power retry(s), {sleeps} sleep \
         transition(s), {boosts} boost(s) ({bvetoes} vetoed)"
    );
    Ok(())
}

fn main() -> ExitCode {
    // `audit` has its own flag set (--json, --root): hand it off before the
    // flag table can reject those flags.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("audit") {
        let code = bsld_audit::run_cli(&raw[1..]);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    match parse_args(&raw).and_then(|args| match args {
        Some(args) => run_command(&args),
        None => {
            println!("{}", usage());
            Ok(())
        }
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run_command(args: &Args) -> Result<(), String> {
    let opts = &args.opts;
    eprintln!("# bsld-repro: {}{}", args.command, header_values(args));
    let t0 = std::time::Instant::now();
    match args.command.as_str() {
        "run" => run_scenario_file(args)?,
        "campaign-worker" => run_campaign_worker(args)?,
        "campaign-merge" => run_campaign_merge(args)?,
        "gen-swf" => run_gen_swf(args)?,
        "serve" => run_serve(args)?,
        "query" => run_query(args)?,
        "trace-summary" => run_trace_summary(args)?,
        experiment => run_experiment(experiment, opts),
    }
    eprintln!("# done in {:.2?}", t0.elapsed());
    Ok(())
}

/// The ` (jobs=…, seed=…, threads=…)` of the header line: the values of
/// `--jobs`, `--seed` and `--threads` that the command uses. `run` and
/// `campaign-worker` use `--jobs` and `--seed` only when given; otherwise
/// the scenario file's own values apply.
fn header_values(args: &Args) -> String {
    let opts = &args.opts;
    let file_sets = matches!(args.command.as_str(), "run" | "campaign-worker");
    let values = [
        ("--jobs", opts.jobs.to_string()),
        ("--seed", opts.seed.to_string()),
        ("--threads", opts.threads.to_string()),
    ];
    let used: Vec<String> = values
        .iter()
        .filter(|(name, _)| {
            FLAGS
                .iter()
                .any(|f| f.name == *name && reads(f, &args.command))
        })
        .filter(|(name, _)| *name == "--threads" || !file_sets || args.given(name))
        .map(|(name, v)| format!("{}={v}", &name[2..]))
        .collect();
    if used.is_empty() {
        return String::new();
    }
    format!(" ({})", used.join(", "))
}

/// Runs one experiment and prints it. Each study has one printer, which
/// its single experiments and `all` share; `all` runs each study once.
fn run_experiment(name: &str, opts: &ExpOptions) {
    match name {
        "table1" | "calibrate" => print_table1(&table1::run(opts), opts),
        "fig3" | "fig4" | "fig5" => print_grid(&grid::run(opts), &[name], opts),
        "fig6" => print_fig6(opts),
        "table3" | "fig7" | "fig8" | "fig9" => print_enlarged(&enlarged::run(opts), &[name], opts),
        "ablations" => print_ablations(opts),
        "powercap" => print_powercap(opts, true),
        // `all`: the parser admits no other name.
        _ => {
            let t = table1::run(opts);
            print_table1(&t, opts);
            let g = grid::run(opts);
            print_grid(&g, &["fig3", "fig4", "fig5"], opts);
            print_fig6(opts);
            let views = ["fig7", "fig8", "fig9", "table3"];
            print_enlarged(&enlarged::run(opts), &views, opts);
            print_ablations(opts);
            // The frontier only: the per-cell table would swamp the rest.
            print_powercap(opts, false);
            write_summary_json(opts, &t, &g);
        }
    }
}

fn print_table1(t: &Study, opts: &ExpOptions) {
    println!("{}", table1::render(t));
    report_csv(table1::write_csv(t, opts));
}

/// Prints the original-size grid as Figs. 3, 4 and 5, as `figs` names.
fn print_grid(g: &grid::OriginalSizeGrid, figs: &[&str], opts: &ExpOptions) {
    for &fig in figs {
        match fig {
            "fig3" => {
                println!("{}", g.render_fig3(false));
                println!("{}", g.render_fig3(true));
                println!("{}", g.render_summary());
            }
            "fig4" => println!("{}", g.render_fig4()),
            _ => println!("{}", g.render_fig5()),
        }
    }
    report_csv(g.write_csv(opts));
}

fn print_fig6(opts: &ExpOptions) {
    let f = fig6::run(opts);
    println!("{}", f.render());
    report_csv(f.write_csv(opts));
}

/// Prints the enlarged-systems study as Figs. 7, 8, 9 and Table 3, as
/// `views` names.
fn print_enlarged(s: &Study, views: &[&str], opts: &ExpOptions) {
    for &view in views {
        match view {
            "table3" => println!("{}", enlarged::render_table3(s)),
            "fig7" | "fig8" => {
                let wq = if view == "fig7" {
                    WqThreshold::Limit(0)
                } else {
                    WqThreshold::NoLimit
                };
                println!("{}", enlarged::render_energy(s, wq, false));
                println!("{}", enlarged::render_energy(s, wq, true));
            }
            _ => {
                println!("{}", enlarged::render_bsld(s, WqThreshold::NoLimit));
                println!("{}", enlarged::render_bsld(s, WqThreshold::Limit(0)));
            }
        }
    }
    report_csv(enlarged::write_csv(s, opts));
}

fn print_ablations(opts: &ExpOptions) {
    for a in ablation::all(opts) {
        println!("{}", a.render());
        report_csv(a.write_csv(opts));
    }
}

fn print_powercap(opts: &ExpOptions, cells: bool) {
    let s = powercap::run(opts);
    println!("{}", powercap::render_frontier(&s));
    if cells {
        println!("{}", powercap::render_cells(&s));
    }
    report_csv(powercap::write_csv(&s, opts));
}

/// Writes `summary.json`: the calibration rows and the headline savings,
/// for dashboards and regression tracking.
fn write_summary_json(opts: &ExpOptions, t: &Study, g: &grid::OriginalSizeGrid) {
    let Some(dir) = &opts.out_dir else {
        return;
    };
    let baselines = Json::Arr(
        table1::rows(t)
            .map(|(r, paper)| {
                let m = r.metrics();
                Json::obj(vec![
                    ("workload", Json::str(r.workload())),
                    ("cpus", Json::from(u64::from(paper.cpus))),
                    ("avg_bsld", Json::from(m.avg_bsld)),
                    ("paper_avg_bsld", Json::from(paper.avg_bsld)),
                    ("avg_wait_s", Json::from(m.avg_wait_secs)),
                    ("paper_avg_wait_s", Json::from(paper.avg_wait)),
                    ("utilization", Json::from(m.utilization)),
                ])
            })
            .collect(),
    );
    let headline = Json::Arr(
        g.average_savings()
            .into_iter()
            .map(|(cfg, saving)| {
                Json::obj(vec![
                    ("bsld_threshold", Json::from(cfg.bsld_threshold)),
                    ("wq_threshold", Json::str(cfg.wq_threshold.label())),
                    ("mean_energy_saving", Json::from(saving)),
                ])
            })
            .collect(),
    );
    let doc = Json::obj(vec![
        ("paper", Json::str("Etinski et al., IPPS 2010")),
        ("seed", Json::from(opts.seed)),
        ("jobs", Json::from(opts.jobs)),
        ("baselines", baselines),
        ("headline_savings", headline),
    ]);
    let path = dir.join("summary.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# JSON write failed: {e}"),
    }
}

fn report_csv(res: std::io::Result<impl IntoIterator<Item = PathBuf>>) {
    match res {
        Ok(paths) => {
            for p in paths {
                eprintln!("# wrote {}", p.display());
            }
        }
        Err(e) => eprintln!("# CSV write failed: {e}"),
    }
}
