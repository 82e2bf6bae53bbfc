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
//! tooling subcommands:
//!   run FILE.scn [--jobs N] [--seed S]   parse a scenario file (sweep axes
//!                                        included), expand and run every
//!                                        cell, print the result table
//!   campaign-worker FILE.scn --shard I/N --out DIR
//!                                        run one shard of a campaign,
//!                                        appending to a per-worker
//!                                        manifest in the shared DIR
//!   campaign-merge DIR                   validate and union the worker
//!                                        manifests of DIR, write the
//!                                        aggregated results + JSON report
//!   generate --workload W --swf FILE     export a calibrated synthetic
//!                                        workload as an SWF trace
//!   gen-swf --jobs N --seed S --swf FILE write a deterministic synthetic
//!                                        SWF trace of N jobs (scale
//!                                        testing; survives cleaning
//!                                        untouched)
//!   simulate [--workload W | --swf FILE] [--bsld-th X] [--wq N|no]
//!            [--conservative] [--boost N] [--export PREFIX]
//!                                        run one simulation, print the
//!                                        detailed report; --export writes
//!                                        PREFIX_{schedule,utilization,queue}.csv
//!   serve --socket PATH                  scheduling-as-a-service daemon:
//!                                        resident workloads + cached cells
//!                                        answering JSON queries on a Unix
//!                                        socket (see crates/serve)
//!   query <op> --socket PATH             one request to a running daemon
//!   trace-summary FILE                   validate a --trace-out Chrome
//!                                        trace and print per-cell event
//!                                        tallies (exit 1 on malformed
//!                                        input — the CI trace validator)
//! ```
//!
//! The grid experiments (`fig3`/`fig4`/`fig5`/`all`) additionally accept
//! `--trace-out PATH`: write the deterministic simulation trace of every
//! sweep cell as one Chrome-trace JSON file (Perfetto-loadable,
//! byte-identical across re-runs regardless of `--threads`).

use std::path::PathBuf;
use std::process::ExitCode;

use bsld_core::campaign::{run_campaign, CampaignOptions, JSON_FILE, RESULTS_FILE};
use bsld_core::distrib::{merge_campaign, run_worker, worker_manifest_file, Shard};
use bsld_core::experiments::{ablation, enlarged, fig6, grid, powercap, table1, ExpOptions};
use bsld_core::policy::WqThreshold;
use bsld_core::scenario::{PolicySpec, ProfileName, ScenarioSet, WorkloadSpec};
use bsld_core::{sweep_report, CellOutcome, Scenario};
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

fn usage() -> String {
    format!(
        "usage: bsld-repro <{}|run|campaign-worker|campaign-merge|generate|gen-swf|simulate|audit|serve|query|trace-summary> [--jobs N] [--seed S] [--threads T] [--out DIR] [--no-csv]\n\
         \x20          (fig3/fig4/fig5/all also take --trace-out PATH: write the\n\
         \x20          deterministic per-cell Chrome trace of the grid sweep)\n\
         run:       run FILE.scn [--jobs N] [--seed S] [--threads T] [--out DIR] [--no-csv] [--resume DIR]\n\
         \x20          (files with `replications = N`, `cell_budget_s`, or --resume run as a\n\
         \x20          campaign: per-cell mean ± 95% CI, incremental manifest, cached cells\n\
         \x20          skipped, campaign.json report)\n\
         campaign-worker: campaign-worker FILE.scn --shard I/N --out DIR [--jobs N] [--seed S] [--threads T]\n\
         \x20          (runs only the units content-hashed to shard I of N; re-running a\n\
         \x20          killed worker resumes its own manifest)\n\
         campaign-merge:  campaign-merge DIR\n\
         \x20          (validates shard coverage, unions worker manifests, writes\n\
         \x20          campaign_results.csv + campaign.json byte-identical to `run`)\n\
         generate:  --workload <ctc|sdsc|blue|thunder|atlas> --swf FILE\n\
         gen-swf:   --jobs N --seed S --swf FILE [--max-procs P]\n\
         \x20          (deterministic synthetic SWF writer for scale testing: N jobs on a\n\
         \x20          P-processor machine at ~0.7 offered load, cleaning-invariant)\n\
         simulate:  [--workload W | --swf FILE] [--bsld-th X] [--wq N|no] [--conservative] [--boost N] [--export PREFIX]\n\
         audit:     audit [--json] [--root DIR]\n\
         \x20          (static determinism/numeric-safety audit of the workspace source;\n\
         \x20          exit 1 on violations — see crates/audit)\n\
         serve:     serve --socket PATH [--workers W] [--threads T] [--cache N] [--budget S]\n\
         \x20          (daemon: keeps parsed workloads and finished cells resident, answers\n\
         \x20          line-delimited JSON queries on the Unix socket until shutdown)\n\
         query:     query <run FILE.scn|status|metrics|cache [clear]|shutdown> --socket PATH\n\
         \x20          [--set key=value ...] [--budget S] [--swf PATH]\n\
         \x20          (one request to a running daemon; `run` prints the same table as the\n\
         \x20          one-shot run subcommand, --set tweaks single knobs: bsld_th, wq, cap,\n\
         \x20          model, jobs, seed, profile, enlarge_pct; `metrics` prints the\n\
         \x20          profiling plane: cache counters + per-op latency histograms;\n\
         \x20          `cache --swf PATH` pins a parsed+cleaned trace into the daemon's\n\
         \x20          workload cache)\n\
         trace-summary: trace-summary FILE\n\
         \x20          (validate a --trace-out Chrome trace file and print per-cell event\n\
         \x20          tallies; exits 1 on malformed input)",
        EXPERIMENTS.join("|")
    )
}

struct Args {
    experiment: String,
    opts: ExpOptions,
    /// `true` iff `--jobs`/`--seed`/an output flag was given explicitly
    /// (the `run` subcommand only overrides the scenario file then).
    jobs_set: bool,
    seed_set: bool,
    out_set: bool,
    /// Positional argument after the subcommand (the `.scn` path for `run`).
    positional: Option<String>,
    // tooling options
    workload: Option<String>,
    swf: Option<PathBuf>,
    bsld_th: Option<f64>,
    wq: Option<WqThreshold>,
    conservative: bool,
    boost: Option<usize>,
    /// Path prefix for `simulate`'s schedule/utilization/queue CSV exports.
    export: Option<String>,
    /// Campaign directory for `run --resume`: cached cells are skipped,
    /// fresh rows are appended to the manifest there.
    resume: Option<PathBuf>,
    /// `--shard I/N` for `campaign-worker`.
    shard: Option<String>,
    /// Unix-socket path for `serve` / `query`.
    socket: Option<PathBuf>,
    /// `serve --workers N`: concurrent connection handlers.
    workers: Option<usize>,
    /// `serve --cache N`: result-cache capacity in cells.
    cache: Option<usize>,
    /// `serve --budget S` (default per-request budget) or `query run
    /// --budget S` (this request's budget override).
    budget: Option<f64>,
    /// `query run --set key=value` overrides (repeatable).
    sets: Vec<String>,
    /// Second positional operand (`query run FILE.scn`, `query cache clear`).
    positional2: Option<String>,
    /// `gen-swf --max-procs P`: machine size of the synthetic trace.
    max_procs: Option<u32>,
}

/// `Ok(true)`: `--help` was requested (print usage, exit 0).
fn parse_args() -> Result<(Args, bool), String> {
    let mut opts = ExpOptions::default();
    let mut experiment: Option<String> = None;
    let mut positional = None;
    let mut jobs_set = false;
    let mut seed_set = false;
    let mut out_set = false;
    let mut help = false;
    let mut workload = None;
    let mut swf = None;
    let mut bsld_th = None;
    let mut wq = None;
    let mut conservative = false;
    let mut boost = None;
    let mut export = None;
    let mut resume = None;
    let mut shard = None;
    let mut socket = None;
    let mut workers = None;
    let mut cache = None;
    let mut budget = None;
    let mut sets = Vec::new();
    let mut positional2 = None;
    let mut max_procs = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs value: {v}"))?;
                jobs_set = true;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
                seed_set = true;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|_| format!("bad --threads value: {v}"))?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                opts.out_dir = Some(PathBuf::from(v));
                out_set = true;
            }
            "--no-csv" => {
                opts.out_dir = None;
                out_set = true;
            }
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(it.next().ok_or("--trace-out needs a path")?));
            }
            "--workload" => {
                workload = Some(it.next().ok_or("--workload needs a value")?);
            }
            "--swf" => {
                swf = Some(PathBuf::from(it.next().ok_or("--swf needs a value")?));
            }
            "--bsld-th" => {
                let v = it.next().ok_or("--bsld-th needs a value")?;
                bsld_th = Some(v.parse().map_err(|_| format!("bad --bsld-th value: {v}"))?);
            }
            "--wq" => {
                let v = it.next().ok_or("--wq needs a value")?;
                wq = Some(WqThreshold::parse(&v)?);
            }
            "--conservative" => conservative = true,
            "--boost" => {
                let v = it.next().ok_or("--boost needs a value")?;
                boost = Some(v.parse().map_err(|_| format!("bad --boost value: {v}"))?);
            }
            "--export" => {
                export = Some(it.next().ok_or("--export needs a path prefix")?);
            }
            "--resume" => {
                resume = Some(PathBuf::from(
                    it.next().ok_or("--resume needs a directory")?,
                ));
            }
            "--shard" => {
                shard = Some(it.next().ok_or("--shard needs a value (I/N)")?);
            }
            "--socket" => {
                socket = Some(PathBuf::from(it.next().ok_or("--socket needs a path")?));
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = Some(v.parse().map_err(|_| format!("bad --workers value: {v}"))?);
            }
            "--cache" => {
                let v = it.next().ok_or("--cache needs a value")?;
                cache = Some(v.parse().map_err(|_| format!("bad --cache value: {v}"))?);
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value (seconds)")?;
                budget = Some(v.parse().map_err(|_| format!("bad --budget value: {v}"))?);
            }
            "--max-procs" => {
                let v = it.next().ok_or("--max-procs needs a value")?;
                max_procs = Some(
                    v.parse()
                        .map_err(|_| format!("bad --max-procs value: {v}"))?,
                );
            }
            "--set" => {
                let v = it.next().ok_or("--set needs key=value")?;
                if !v.contains('=') {
                    return Err(format!("bad --set {v:?}: expected key=value"));
                }
                sets.push(v);
            }
            "--help" | "-h" => help = true,
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_string());
            }
            // Only `run`, `campaign-worker` (the .scn path) and
            // `campaign-merge` (the directory) take a positional operand;
            // anywhere else a stray bare word is an error, not ignored.
            other
                if matches!(
                    experiment.as_deref(),
                    Some("run" | "campaign-worker" | "campaign-merge" | "query" | "trace-summary")
                ) && positional.is_none()
                    && !other.starts_with('-') =>
            {
                positional = Some(other.to_string());
            }
            // `query` takes a second operand: `query run FILE.scn`,
            // `query cache clear`.
            other
                if experiment.as_deref() == Some("query")
                    && positional2.is_none()
                    && !other.starts_with('-') =>
            {
                positional2 = Some(other.to_string());
            }
            other => return Err(format!("unknown argument: {other}\n{}", usage())),
        }
    }
    if help {
        // A bare `--help` needs no experiment.
        return Ok((
            Args {
                experiment: String::new(),
                opts,
                jobs_set,
                seed_set,
                out_set,
                positional,
                workload,
                swf,
                bsld_th,
                wq,
                conservative,
                boost,
                export,
                resume,
                shard,
                socket,
                workers,
                cache,
                budget,
                sets,
                positional2,
                max_procs,
            },
            true,
        ));
    }
    let experiment = experiment.ok_or_else(usage)?;
    if opts.trace_out.is_some() && !matches!(experiment.as_str(), "fig3" | "fig4" | "fig5" | "all")
    {
        return Err(format!(
            "--trace-out only applies to the grid experiments (fig3, fig4, fig5, all)\n{}",
            usage()
        ));
    }
    if resume.is_some() && experiment != "run" {
        return Err(format!(
            "--resume only applies to the run subcommand\n{}",
            usage()
        ));
    }
    if shard.is_some() && experiment != "campaign-worker" {
        return Err(format!(
            "--shard only applies to the campaign-worker subcommand\n{}",
            usage()
        ));
    }
    if socket.is_some() && !matches!(experiment.as_str(), "serve" | "query") {
        return Err(format!(
            "--socket only applies to the serve and query subcommands\n{}",
            usage()
        ));
    }
    if (workers.is_some() || cache.is_some()) && experiment != "serve" {
        return Err(format!(
            "--workers/--cache only apply to the serve subcommand\n{}",
            usage()
        ));
    }
    if !sets.is_empty() && experiment != "query" {
        return Err(format!(
            "--set only applies to the query subcommand\n{}",
            usage()
        ));
    }
    if budget.is_some() && !matches!(experiment.as_str(), "serve" | "query") {
        return Err(format!(
            "--budget only applies to the serve and query subcommands\n{}",
            usage()
        ));
    }
    if max_procs.is_some() && experiment != "gen-swf" {
        return Err(format!(
            "--max-procs only applies to the gen-swf subcommand\n{}",
            usage()
        ));
    }
    Ok((
        Args {
            experiment,
            opts,
            jobs_set,
            seed_set,
            out_set,
            positional,
            workload,
            swf,
            bsld_th,
            wq,
            conservative,
            boost,
            export,
            resume,
            shard,
            socket,
            workers,
            cache,
            budget,
            sets,
            positional2,
            max_procs,
        },
        false,
    ))
}

/// Builds the scenario described by the tooling flags (`--workload` /
/// `--swf`, policy and engine options) — the single construction path both
/// `simulate` and `generate` go through.
fn scenario_from_args(args: &Args) -> Result<Scenario, String> {
    let mut sc = match (&args.swf, &args.workload) {
        (Some(path), _) => {
            let mut sc = Scenario::synthetic("cli", ProfileName::Ctc, 0, 0);
            sc.workload = WorkloadSpec::Swf {
                path: path.clone(),
                clean: true,
            };
            sc
        }
        (None, Some(name)) => Scenario::synthetic(
            "cli",
            ProfileName::parse(name)?,
            args.opts.jobs,
            args.opts.seed,
        ),
        (None, None) => return Err("simulate/generate need --workload or --swf".to_string()),
    };
    if args.conservative {
        sc.engine.mode = bsld_sched::SchedMode::Conservative;
    }
    sc.power.boost = args.boost;
    if let Some(th) = args.bsld_th {
        sc.policy = PolicySpec::BsldThreshold {
            th,
            wq: args.wq.unwrap_or(WqThreshold::NoLimit),
        };
    }
    Ok(sc)
}

fn run_generate(args: &Args) -> Result<(), String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("generate needs --workload")?;
    let out = args.swf.clone().ok_or("generate needs --swf FILE")?;
    let profile = ProfileName::parse(name)?;
    let w = Scenario::synthetic("generate", profile, args.opts.jobs, args.opts.seed)
        .build_workload()
        .map_err(|e| e.to_string())?;
    let text = bsld_swf::write_swf(&w.to_swf());
    std::fs::write(&out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!(
        "# wrote {} ({} jobs on {} cpus, offered load {:.2})",
        out.display(),
        w.jobs.len(),
        w.cpus,
        w.offered_load()
    );
    Ok(())
}

/// `gen-swf --jobs N --seed S --swf FILE [--max-procs P]`: write a
/// deterministic synthetic SWF trace straight to disk — the scale-testing
/// counterpart of `generate` (which routes through a calibrated profile
/// and holds the whole workload in memory).
fn run_gen_swf(args: &Args) -> Result<(), String> {
    let out = args.swf.clone().ok_or("gen-swf needs --swf FILE")?;
    let jobs = args.opts.jobs as u64;
    let max_procs = args.max_procs.unwrap_or(bsld_swf::GEN_SWF_DEFAULT_PROCS);
    if max_procs == 0 {
        return Err("--max-procs must be at least 1".to_string());
    }
    let file =
        std::fs::File::create(&out).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let mut w = std::io::BufWriter::new(file);
    bsld_swf::generate_swf(&mut w, jobs, args.opts.seed, max_procs)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!(
        "# wrote {} ({jobs} jobs on {max_procs} cpus, seed {})",
        out.display(),
        args.opts.seed
    );
    Ok(())
}

fn run_simulate(args: &Args) -> Result<(), String> {
    let sc = scenario_from_args(args)?;
    let w = sc.build_workload().map_err(|e| e.to_string())?;
    let sim = sc.simulator(&w).map_err(|e| e.to_string())?;
    let label = match &sc.policy {
        PolicySpec::Baseline => "EASY baseline (no DVFS)".to_string(),
        PolicySpec::FixedGear(g) => format!("fixed gear {g}"),
        PolicySpec::BsldThreshold { th, wq } => format!("power-aware {th}/{}", wq.label()),
    };
    println!(
        "{}: {} jobs on {} cpus — {label}",
        w.cluster_name,
        w.jobs.len(),
        w.cpus
    );
    let res = sc
        .run_prepared(&sim, &w.jobs)
        .map_err(|e| e.to_string())?
        .run;
    let m = &res.metrics;
    println!(
        "avg BSLD {:.2} | avg wait {:.0} s | reduced {} | util {:.3} | makespan {:.1} d",
        m.avg_bsld,
        m.avg_wait_secs,
        m.reduced_jobs,
        m.utilization,
        m.makespan_secs as f64 / 86_400.0
    );
    println!(
        "energy: computational {:.3e}, with idle {:.3e} (normalised units)",
        m.energy.computational, m.energy.with_idle
    );
    let details = RunDetails::compute(&res.outcomes, &sim.power);
    println!("\n{}", details.render());

    if let Some(prefix) = &args.export {
        export_schedule(prefix, &res.outcomes).map_err(|e| format!("export failed: {e}"))?;
    }
    Ok(())
}

/// Writes `<prefix>_schedule.csv` (one row per job: the Gantt data),
/// `<prefix>_utilization.csv` and `<prefix>_queue.csv` (step series).
fn export_schedule(prefix: &str, outcomes: &[bsld_model::JobOutcome]) -> std::io::Result<()> {
    use bsld_metrics::series::{queue_depth_series, utilization_series};

    let mut by_id: Vec<&bsld_model::JobOutcome> = outcomes.iter().collect();
    by_id.sort_by_key(|o| o.id);
    let rows: Vec<Vec<String>> = by_id
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
    let path = format!("{prefix}_schedule.csv");
    let mut f = std::fs::File::create(&path)?;
    bsld_metrics::write_csv(
        &mut f,
        &[
            "job",
            "cpus",
            "arrival_s",
            "start_s",
            "finish_s",
            "gear",
            "bsld",
        ],
        &rows,
    )?;
    eprintln!("# wrote {path}");

    for (name, series) in [
        ("utilization", utilization_series(outcomes)),
        ("queue", queue_depth_series(outcomes)),
    ] {
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|&(t, v)| vec![t.to_string(), v.to_string()])
            .collect();
        let path = format!("{prefix}_{name}.csv");
        let mut f = std::fs::File::create(&path)?;
        bsld_metrics::write_csv(&mut f, &["time_s", name], &rows)?;
        eprintln!("# wrote {path}");
    }
    Ok(())
}

/// The `run FILE.scn` subcommand: parse, expand the sweep axes, run every
/// cell in parallel and print/write a results table.
fn run_scenario_file(args: &Args) -> Result<(), String> {
    // simulate/generate flags have no meaning here; accepting them would
    // let a user believe they overrode the file's configuration.
    for (flag, given) in [
        ("--workload", args.workload.is_some()),
        ("--swf", args.swf.is_some()),
        ("--bsld-th", args.bsld_th.is_some()),
        ("--wq", args.wq.is_some()),
        ("--conservative", args.conservative),
        ("--boost", args.boost.is_some()),
        ("--export", args.export.is_some()),
    ] {
        if given {
            return Err(format!(
                "{flag} does not apply to `run`: the scenario file defines the configuration"
            ));
        }
    }
    let path = args
        .positional
        .as_deref()
        .ok_or("run needs a scenario file: bsld-repro run FILE.scn")?;
    let mut set = load_scenario_file(path, args)?;
    if args.out_set {
        set.base.output.out_dir = args.opts.out_dir.clone();
    }
    // Replicated sweeps, budgeted sweeps and resumable runs go through the
    // campaign layer: per-cell mean ± 95% CI, content-hash cell IDs,
    // incremental manifest, failure rows.
    if set.replications > 1 || set.cell_budget_s.is_some() || args.resume.is_some() {
        return run_campaign_file(path, &set, args);
    }
    let cells = set.expand().map_err(|e| e.to_string())?;
    eprintln!("# {path}: {} scenario(s)", cells.len());
    let results = bsld_core::scenario::run_many(&cells, args.opts.threads);

    // The one sweep renderer, shared with the serve daemon: its output is
    // the byte-identity contract between `run` and `query run`.
    let rows: Vec<(String, Result<CellOutcome, String>)> = cells
        .iter()
        .zip(results)
        .map(|(sc, res)| {
            (
                sc.name.clone(),
                res.map(|r| CellOutcome::of(&r)).map_err(|e| e.to_string()),
            )
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
    if let Some(msg) = report.failure_summary() {
        return Err(msg);
    }
    Ok(())
}

/// Parses a scenario file and applies the `--jobs`/`--seed` overrides —
/// the shared front door of `run` and `campaign-worker` (both must see the
/// same spec for their artifacts to be byte-identical).
fn load_scenario_file(path: &str, args: &Args) -> Result<ScenarioSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut set = ScenarioSet::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if args.jobs_set || args.seed_set {
        match &mut set.base.workload {
            WorkloadSpec::Synthetic { jobs, seed, .. } => {
                if args.jobs_set {
                    *jobs = args.opts.jobs;
                }
                if args.seed_set {
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
    if args.resume.is_some() && args.out_set && args.opts.out_dir.is_some() {
        return Err(
            "--out does not combine with --resume: the campaign's manifest and results \
             live in the resume directory"
                .to_string(),
        );
    }
    let dir = args
        .resume
        .clone()
        .or_else(|| set.base.output.out_dir.clone());
    let opts = CampaignOptions {
        threads: args.opts.threads,
        dir: dir.clone(),
        resume: args.resume.is_some(),
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
    // The status line: workers tick the shared Progress counter; each tick
    // redraws in place (\r) on stderr via StatusLine, the final newline
    // lands after the run.
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
    let path = args.positional.as_deref().ok_or(
        "campaign-worker needs a scenario file: bsld-repro campaign-worker FILE.scn --shard I/N --out DIR",
    )?;
    let shard = Shard::parse(
        args.shard
            .as_deref()
            .ok_or("campaign-worker needs --shard I/N")?,
    )?;
    let dir = match (&args.opts.out_dir, args.out_set) {
        (Some(d), true) => d.clone(),
        _ => return Err("campaign-worker needs --out DIR (the shared campaign directory)".into()),
    };
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
        args.positional
            .as_deref()
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
        .socket
        .clone()
        .ok_or("serve needs --socket PATH (the Unix socket to listen on)")?;
    let mut cfg = bsld_serve::ServeConfig::new(socket);
    if let Some(w) = args.workers {
        cfg.workers = w.max(1);
    }
    cfg.state.threads = args.opts.threads;
    if let Some(n) = args.cache {
        cfg.state.result_capacity = n;
    }
    cfg.state.default_budget_s = args.budget;
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
fn query_overrides(sets: &[String], budget: Option<f64>) -> Result<bsld_serve::Overrides, String> {
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
        .socket
        .clone()
        .ok_or("query needs --socket PATH (a running daemon's socket)")?;
    let op = args.positional.as_deref().ok_or(
        "query needs an operation: query <run FILE.scn|status|metrics|cache [clear]|shutdown> --socket PATH",
    )?;
    let mut client = bsld_serve::Client::connect(&socket)?;
    match op {
        "run" => {
            let file = args
                .positional2
                .as_deref()
                .ok_or("query run needs a scenario file: query run FILE.scn --socket PATH")?;
            let text = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read scenario file {file}: {e}"))?;
            let ov = query_overrides(&args.sets, args.budget)?;
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
            if let Some(summary) = reply.get("failure_summary").and_then(Json::as_str) {
                return Err(summary.to_string());
            }
            Ok(())
        }
        "status" => {
            let reply = client.status()?;
            println!("{}", reply.render());
            Ok(())
        }
        "metrics" => {
            let reply = client.metrics()?;
            println!("{}", reply.render());
            Ok(())
        }
        "cache" => {
            let clear = match args.positional2.as_deref() {
                None => false,
                Some("clear") => true,
                Some(other) => {
                    return Err(format!(
                        "bad cache operand {other:?} (only `clear` is accepted)"
                    ))
                }
            };
            let reply = match &args.swf {
                Some(path) if clear => {
                    return Err(format!(
                        "cache takes either `clear` or --swf {}, not both",
                        path.display()
                    ))
                }
                Some(path) => {
                    let p = path
                        .to_str()
                        .ok_or("--swf path must be valid UTF-8 for the wire protocol")?;
                    client.cache_pin(p)?
                }
                None => client.cache(clear)?,
            };
            println!("{}", reply.render());
            Ok(())
        }
        "shutdown" => {
            let reply = client.shutdown()?;
            println!("{}", reply.render());
            Ok(())
        }
        other => Err(format!(
            "unknown query operation {other:?} (run FILE.scn | status | metrics | cache [clear] | shutdown)"
        )),
    }
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
        .positional
        .as_deref()
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
    // experiment argument parser can reject those flags.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("audit") {
        let code = bsld_audit::run_cli(&raw[1..]);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let (args, help) = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let opts = &args.opts;
    eprintln!(
        "# bsld-repro: {} (jobs={}, seed={}, threads={})",
        args.experiment, opts.jobs, opts.seed, opts.threads
    );
    let t0 = std::time::Instant::now();
    match args.experiment.as_str() {
        "run" => {
            if let Err(e) = run_scenario_file(&args) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "campaign-worker" => {
            if let Err(e) = run_campaign_worker(&args) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "campaign-merge" => {
            if let Err(e) = run_campaign_merge(&args) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "generate" => {
            if let Err(e) = run_generate(&args) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "gen-swf" => {
            if let Err(e) = run_gen_swf(&args) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "simulate" => {
            if let Err(e) = run_simulate(&args) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "serve" => {
            if let Err(e) = run_serve(&args) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "query" => {
            if let Err(e) = run_query(&args) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "trace-summary" => {
            if let Err(e) = run_trace_summary(&args) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        "table1" | "calibrate" => {
            let t = table1::run(opts);
            println!("{}", t.render());
            report_csv(t.write_csv(opts).map(|p| p.into_iter().collect()));
        }
        "fig3" | "fig4" | "fig5" => {
            let g = grid::run(opts);
            match args.experiment.as_str() {
                "fig3" => {
                    println!("{}", g.render_fig3(false));
                    println!("{}", g.render_fig3(true));
                    println!("{}", g.render_summary());
                }
                "fig4" => println!("{}", g.render_fig4()),
                _ => println!("{}", g.render_fig5()),
            }
            report_csv(g.write_csv(opts));
        }
        "fig6" => {
            let f = fig6::run(opts);
            println!("{}", f.render());
            report_csv(f.write_csv(opts).map(|p| p.into_iter().collect()));
        }
        "table3" | "fig7" | "fig8" | "fig9" => {
            let s = enlarged::run(opts);
            match args.experiment.as_str() {
                "table3" => println!("{}", s.render_table3()),
                "fig7" => {
                    println!("{}", s.render_energy(WqThreshold::Limit(0), false));
                    println!("{}", s.render_energy(WqThreshold::Limit(0), true));
                }
                "fig8" => {
                    println!("{}", s.render_energy(WqThreshold::NoLimit, false));
                    println!("{}", s.render_energy(WqThreshold::NoLimit, true));
                }
                _ => {
                    println!("{}", s.render_bsld(WqThreshold::NoLimit));
                    println!("{}", s.render_bsld(WqThreshold::Limit(0)));
                }
            }
            report_csv(s.write_csv(opts));
        }
        "ablations" => {
            for a in [
                ablation::boost(opts),
                ablation::beta(opts),
                ablation::fcfs(opts),
                ablation::gears(opts),
                ablation::selection(opts),
            ] {
                println!("{}", a.render());
                report_csv(a.write_csv(opts).map(|p| p.into_iter().collect()));
            }
        }
        "powercap" => {
            let s = powercap::run(opts);
            println!("{}", s.render_frontier());
            println!("{}", s.render_cells());
            report_csv(s.write_csv(opts));
        }
        "all" => {
            let t = table1::run(opts);
            println!("{}", t.render());
            report_csv(t.write_csv(opts).map(|p| p.into_iter().collect()));

            let g = grid::run(opts);
            println!("{}", g.render_fig3(false));
            println!("{}", g.render_fig3(true));
            println!("{}", g.render_summary());
            println!("{}", g.render_fig4());
            println!("{}", g.render_fig5());
            report_csv(g.write_csv(opts));

            let f = fig6::run(opts);
            println!("{}", f.render());
            report_csv(f.write_csv(opts).map(|p| p.into_iter().collect()));

            let s = enlarged::run(opts);
            println!("{}", s.render_energy(WqThreshold::Limit(0), false));
            println!("{}", s.render_energy(WqThreshold::Limit(0), true));
            println!("{}", s.render_energy(WqThreshold::NoLimit, false));
            println!("{}", s.render_energy(WqThreshold::NoLimit, true));
            println!("{}", s.render_bsld(WqThreshold::NoLimit));
            println!("{}", s.render_bsld(WqThreshold::Limit(0)));
            println!("{}", s.render_table3());
            report_csv(s.write_csv(opts));

            for a in [
                ablation::boost(opts),
                ablation::beta(opts),
                ablation::fcfs(opts),
                ablation::gears(opts),
                ablation::selection(opts),
            ] {
                println!("{}", a.render());
                report_csv(a.write_csv(opts).map(|p| p.into_iter().collect()));
            }

            let pc = powercap::run(opts);
            println!("{}", pc.render_frontier());
            report_csv(pc.write_csv(opts));

            write_summary_json(opts, &t, &g);
        }
        other => {
            eprintln!(
                "unknown experiment: {other} (valid: {}, run, campaign-worker, campaign-merge, \
                 generate, gen-swf, simulate, serve, query, trace-summary)\n{}",
                EXPERIMENTS.join(", "),
                usage()
            );
            return ExitCode::FAILURE;
        }
    }
    eprintln!("# done in {:.2?}", t0.elapsed());
    ExitCode::SUCCESS
}

/// Writes `summary.json`: the calibration rows and the headline savings,
/// for dashboards and regression tracking.
fn write_summary_json(opts: &ExpOptions, t: &table1::Table1, g: &grid::OriginalSizeGrid) {
    let Some(dir) = &opts.out_dir else {
        return;
    };
    let baselines = Json::Arr(
        t.rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("workload", Json::str(&r.workload)),
                    ("cpus", Json::from(r.cpus as u64)),
                    ("avg_bsld", Json::from(r.avg_bsld)),
                    ("paper_avg_bsld", Json::from(r.paper.avg_bsld)),
                    ("avg_wait_s", Json::from(r.avg_wait)),
                    ("paper_avg_wait_s", Json::from(r.paper.avg_wait)),
                    ("utilization", Json::from(r.utilization)),
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

fn report_csv(res: std::io::Result<Vec<PathBuf>>) {
    match res {
        Ok(paths) => {
            for p in paths {
                eprintln!("# wrote {}", p.display());
            }
        }
        Err(e) => eprintln!("# CSV write failed: {e}"),
    }
}
