//! End-to-end smoke tests of the `bsld-repro` binary: every experiment
//! name runs green at reduced scale, help exits 0, unknown names list the
//! valid ones, and the `run` subcommand executes a scenario file.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bsld-repro"))
}

fn run(args: &[&str]) -> Output {
    bin()
        .args(args)
        .output()
        .expect("bsld-repro binary must spawn")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn every_experiment_runs_at_reduced_scale() {
    for exp in [
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
        "calibrate",
    ] {
        let out = run(&[exp, "--jobs", "50", "--no-csv"]);
        assert!(
            out.status.success(),
            "{exp} failed:\n{}\n{}",
            stdout(&out),
            stderr(&out)
        );
        assert!(!stdout(&out).is_empty(), "{exp} printed nothing to stdout");
    }
}

#[test]
fn help_exits_zero_and_shows_usage() {
    for flags in [&["--help"][..], &["-h"][..], &["table1", "--help"][..]] {
        let out = run(flags);
        assert!(out.status.success(), "{flags:?}: {}", stderr(&out));
        assert!(stdout(&out).contains("usage: bsld-repro"), "{flags:?}");
    }
}

#[test]
fn unknown_experiment_lists_valid_names() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown experiment: frobnicate"), "{err}");
    for name in ["table1", "fig6", "ablations", "powercap", "run"] {
        assert!(err.contains(name), "error must list {name}: {err}");
    }
}

#[test]
fn stray_positional_argument_is_an_error_outside_run() {
    // `table3 100` (forgot --jobs) must error, not silently run defaults.
    let out = run(&["table3", "100"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown argument: 100"),
        "{}",
        stderr(&out)
    );
}

/// A fresh, empty temporary directory for one test.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsld_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// FNV-1a 64 of a file's bytes.
fn fnv1a64(path: &std::path::Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn experiment_bytes_are_pinned() {
    // The length and FNV-1a 64 of everything `all` and the traced `fig5`
    // print and write at 60 jobs. Any change to a study's cells, its
    // normalisation or its renderer moves one of these.
    let dir = fresh_dir("pinned");
    let out_dir = dir.join("out");
    let trace = dir.join("fig5_trace.json");
    let check = |path: &std::path::Path, len: u64, hash: u64| {
        let meta = std::fs::metadata(path).unwrap();
        let got = (meta.len(), fnv1a64(path));
        assert_eq!(got, (len, hash), "{}", path.display());
    };
    for (args, stdout_len, stdout_hash) in [
        (
            vec!["all", "--jobs", "60", "--threads", "2", "--out"],
            14055,
            0x3b83_d8b5_012c_a671,
        ),
        (
            vec!["fig5", "--jobs", "60", "--no-csv", "--trace-out"],
            826,
            0xc89a_bb0a_78f2_a5fa,
        ),
    ] {
        let target = if args[0] == "all" { &out_dir } else { &trace };
        let out = run(&[&args[..], &[target.to_str().unwrap()]].concat());
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let printed = dir.join(format!("{}_stdout.txt", args[0]));
        std::fs::write(&printed, &out.stdout).unwrap();
        check(&printed, stdout_len, stdout_hash);
    }
    let files: [(&str, u64, u64); 12] = [
        ("ablation_beta.csv", 276, 0xa7eb_e49f_d9f9_50d6),
        ("ablation_boost.csv", 230, 0xba8b_1710_9b30_7a76),
        ("ablation_fcfs.csv", 255, 0x6535_f685_ac46_f3a1),
        ("ablation_gears.csv", 238, 0xd523_a3cf_0c73_05b8),
        ("ablation_selection.csv", 282, 0x20eb_7397_5bc7_39d5),
        ("fig3_fig4_fig5_grid.csv", 2903, 0x04dc_dead_ea30_8789),
        ("fig6_wait_series.csv", 954, 0xe40b_0f0b_f003_ab60),
        ("fig7_fig8_fig9_enlarged.csv", 3265, 0xe99e_03dd_0464_0127),
        ("powercap_sweep.csv", 3438, 0xa166_7029_ee04_91bc),
        ("summary.json", 1867, 0xf2d1_785c_d116_f89f),
        ("table1.csv", 326, 0x547e_0878_bddf_cb2c),
        ("table3_wait.csv", 245, 0x0489_be5a_f1d8_9318),
    ];
    assert_eq!(std::fs::read_dir(&out_dir).unwrap().count(), files.len());
    for (name, len, hash) in files {
        check(&out_dir.join(name), len, hash);
    }
    check(&trace, 2_126_079, 0x87aa_5d26_2e28_a42d);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_workload_lists_valid_names() {
    let dir = fresh_dir("profile");
    let scn = dir.join("one.scn");
    std::fs::write(
        &scn,
        "workload = synthetic\nprofile = ctc\njobs = 10\nseed = 1\n",
    )
    .unwrap();
    let out = run(&["run", scn.to_str().unwrap(), "--set", "profile=marsrover"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown workload: marsrover"), "{err}");
    for name in ["ctc", "sdsc", "blue", "thunder", "atlas"] {
        assert!(err.contains(name), "error must list {name}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_export_writes_each_cells_schedule_series_details_and_swf() {
    let dir = fresh_dir("export");
    let scn = dir.join("blue.scn");
    std::fs::write(
        &scn,
        "workload = synthetic\nprofile = blue\njobs = 60\nseed = 7\n",
    )
    .unwrap();
    let scn = scn.to_str().unwrap();
    let export = dir.join("export");
    let sets = ["--set", "bsld_th=2", "--set", "wq=no", "--no-csv"];
    let out = run(&[
        &["run", scn, "--export", export.to_str().unwrap()],
        &sets[..],
    ]
    .concat());
    assert!(out.status.success(), "{}", stderr(&out));
    // The run's stdout does not depend on --export.
    let plain = run(&[&["run", scn], &sets[..]].concat());
    assert_eq!(stdout(&out), stdout(&plain));
    assert!(
        stdout(&out).contains("scenario-th2-wqNO"),
        "{}",
        stdout(&out)
    );

    // The bytes `simulate --workload blue --jobs 60 --seed 7 --bsld-th 2
    // --wq no --export P` and `generate --workload blue --jobs 60 --seed 7`
    // wrote before `run --export` replaced them.
    let file = |suffix: &str| export.join(format!("0-scenario-th2-wqNO{suffix}"));
    for (suffix, len, hash) in [
        (".swf", 3733, 0x714a_5ccc_dd5d_4434),
        ("_schedule.csv", 2027, 0x45d5_ca0b_a2dc_0dc2),
        ("_utilization.csv", 1039, 0xfa1b_5e9a_32eb_e911),
        ("_queue.csv", 633, 0xcf1f_0829_6cb0_a65d),
    ] {
        let path = file(suffix);
        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!((meta.len(), fnv1a64(&path)), (len, hash), "{suffix}");
    }
    let details = std::fs::read_to_string(file("_details.txt")).unwrap();
    assert!(details.starts_with("avg BSLD 10.81 |"), "{details}");
    assert!(details.contains("| makespan "), "{details}");
    assert!(details.contains("energy: computational "), "{details}");
    assert_eq!(std::fs::read_dir(&export).unwrap().count(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_export_names_every_sweep_cell_apart() {
    let dir = fresh_dir("export_sweep");
    let scn = dir.join("sweep.scn");
    std::fs::write(
        &scn,
        "scenario = s\nworkload = synthetic\nprofile = blue\njobs = 30\nseed = 3\n\
         scale_cpus = 64\n\
         sweep.policy = bsld:2/NO bsld:2/0\n",
    )
    .unwrap();
    let export = dir.join("export");
    let scn = scn.to_str().unwrap();
    let out = run(&["run", scn, "--no-csv", "--export", export.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let mut names: Vec<String> = std::fs::read_dir(&export)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), 10, "{names:?}");
    assert!(
        names.contains(&"0-s-bsld_2_NO.swf".to_string()),
        "{names:?}"
    );
    assert!(
        names.contains(&"1-s-bsld_2_0_details.txt".to_string()),
        "{names:?}"
    );

    // A campaign runs many replications per cell: it refuses --export.
    let campaign = dir.join("campaign.scn");
    std::fs::write(
        &campaign,
        "workload = synthetic\nprofile = ctc\njobs = 10\nseed = 1\nreplications = 2\n",
    )
    .unwrap();
    let out = run(&["run", campaign.to_str().unwrap(), "--export", "x"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--export does not apply"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_outside_their_subcommands_are_errors() {
    // Each case is cheap and writes nothing should its flag be ignored.
    let dir = fresh_dir("flags");
    let swf = dir.join("x.swf");
    let swf = swf.to_str().unwrap();
    let quick = ["--jobs", "10", "--no-csv"];
    for args in [
        [&["table1"][..], &quick, &["--export", "d"]].concat(),
        [&["fig6"][..], &quick, &["--set", "cap=0.8"]].concat(),
        vec!["gen-swf", "--jobs", "10", "--swf", swf, "--out", "d"],
        vec!["query", "status", "--jobs", "5"],
    ] {
        let out = run(&args);
        assert!(!out.status.success(), "{args:?}");
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        let want = format!("{flag} only applies to ");
        assert!(stderr(&out).contains(&want), "{args:?}: {}", stderr(&out));
    }
    // Only `query run FILE` and `query cache clear` take a second operand;
    // the others refuse one before connecting.
    for op in ["status", "metrics", "shutdown"] {
        let out = run(&["query", op, "junk", "--socket", "missing.sock"]);
        assert!(!out.status.success(), "{op}");
        let want = format!("query {op} takes no operand, got \"junk\"");
        assert!(stderr(&out).contains(&want), "{op}: {}", stderr(&out));
    }
    // `simulate`, `generate` and their flags are gone, not ignored.
    for args in [
        vec!["simulate", "--jobs", "10"],
        vec!["generate", "--swf", swf],
        [&["fig5"][..], &quick, &["--wq", "0"]].concat(),
        [&["table1"][..], &quick, &["--workload", "sdsc"]].concat(),
        [&["powercap"][..], &quick, &["--conservative"]].concat(),
        [&["fig4"][..], &quick, &["--bsld-th", "2"]].concat(),
        [&["fig3"][..], &quick, &["--boost", "4"]].concat(),
    ] {
        assert!(!run(&args).status.success(), "{args:?}");
    }
    assert!(!std::path::Path::new(swf).exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// The `# bsld-repro:` header states only the values the command uses: a
/// scenario file's own `jobs` and `seed` are not overridden by the flag
/// defaults, and commands that read neither print neither.
#[test]
fn header_states_only_the_values_the_command_uses() {
    let dir = fresh_dir("header");
    let scn = dir.join("own.scn");
    std::fs::write(
        &scn,
        "workload = synthetic\nprofile = ctc\njobs = 60\nseed = 7\n",
    )
    .unwrap();
    let scn = scn.to_str().unwrap();
    let header = |args: &[&str]| {
        let err = stderr(&run(args));
        err.lines().next().unwrap_or_default().to_string()
    };
    let file = header(&["run", scn, "--no-csv", "--threads", "1"]);
    assert_eq!(file, "# bsld-repro: run (threads=1)");
    let given = header(&["run", scn, "--no-csv", "--jobs", "40", "--threads", "1"]);
    assert_eq!(given, "# bsld-repro: run (jobs=40, threads=1)");
    let worker = header(&[
        "campaign-worker",
        scn,
        "--shard",
        "0/2",
        "--seed",
        "9",
        "--threads",
        "1",
        "--out",
        dir.join("w").to_str().unwrap(),
    ]);
    assert_eq!(worker, "# bsld-repro: campaign-worker (seed=9, threads=1)");
    let missing = dir.join("missing.json");
    let summary = header(&["trace-summary", missing.to_str().unwrap()]);
    assert_eq!(summary, "# bsld-repro: trace-summary");
    let experiment = header(&["table1", "--jobs", "60", "--no-csv", "--threads", "1"]);
    assert_eq!(
        experiment,
        "# bsld-repro: table1 (jobs=60, seed=2010, threads=1)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_subcommand_executes_scenario_file() {
    let dir = std::env::temp_dir().join(format!("bsld_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scn = dir.join("sweep.scn");
    std::fs::write(
        &scn,
        "scenario = smoke\n\
         workload = synthetic\n\
         profile = blue\n\
         jobs = 500\n\
         seed = 7\n\
         scale_cpus = 64\n\
         policy = bsld:2/NO\n\
         sweep.bsld_th = 1.5 3\n",
    )
    .unwrap();
    let out = run(&[
        "run",
        scn.to_str().unwrap(),
        "--jobs",
        "80",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("smoke-th1.5"), "{text}");
    assert!(text.contains("smoke-th3"), "{text}");
    // The --jobs override applies to every expanded cell.
    assert!(text.contains("80"), "{text}");
    let csv = dir.join("scenario_results.csv");
    let body = std::fs::read_to_string(&csv).expect("results CSV written");
    assert_eq!(body.lines().count(), 3, "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_replications_resume_round_trip() {
    let dir = std::env::temp_dir().join(format!("bsld_cli_campaign_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scn = dir.join("campaign.scn");
    std::fs::write(
        &scn,
        "scenario = camp\n\
         workload = synthetic\n\
         profile = blue\n\
         jobs = 80\n\
         seed = 7\n\
         scale_cpus = 64\n\
         policy = bsld:2/NO\n\
         replications = 3\n\
         sweep.bsld_th = 1.5 3\n",
    )
    .unwrap();
    let out_dir = dir.join("out");
    let out = run(&[
        "run",
        scn.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let table = stdout(&out);
    // Per-cell mean ± 95% CI columns in the table...
    assert!(table.contains('±'), "CI columns expected: {table}");
    assert!(table.contains("camp-th1.5"), "{table}");
    // ...and in the CSV.
    let results = out_dir.join("campaign_results.csv");
    let body = std::fs::read_to_string(&results).expect("aggregated results written");
    assert!(body.starts_with("cell,scenario,reps,"), "{body}");
    assert!(body.contains("avg_bsld_mean,avg_bsld_ci95"), "{body}");
    assert_eq!(body.lines().count(), 3, "two cells + header: {body}");

    // Interrupt: drop the last two manifest rows, then resume.
    let manifest = out_dir.join("campaign_manifest.csv");
    let full = std::fs::read_to_string(&manifest).unwrap();
    assert_eq!(full.lines().count(), 7, "6 replications + header: {full}");
    let truncated: Vec<&str> = full.lines().take(5).collect();
    std::fs::write(&manifest, format!("{}\n", truncated.join("\n"))).unwrap();
    std::fs::remove_file(&results).unwrap();

    let resumed = run(&[
        "run",
        scn.to_str().unwrap(),
        "--resume",
        out_dir.to_str().unwrap(),
        "--no-csv",
    ]);
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    let err = stderr(&resumed);
    assert!(err.contains("resumed: 4 of 6"), "{err}");
    let resumed_body = std::fs::read_to_string(&results).expect("results rewritten on resume");
    assert_eq!(
        resumed_body, body,
        "resumed campaign must be byte-identical to the clean run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_worker_and_merge_reproduce_single_process_run() {
    let dir = std::env::temp_dir().join(format!("bsld_cli_distrib_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scn = dir.join("campaign.scn");
    std::fs::write(
        &scn,
        "scenario = dist\n\
         workload = synthetic\n\
         profile = blue\n\
         jobs = 60\n\
         seed = 7\n\
         scale_cpus = 64\n\
         policy = bsld:2/NO\n\
         replications = 2\n\
         sweep.bsld_th = 1.5 3\n",
    )
    .unwrap();
    let scn = scn.to_str().unwrap();

    // Single-process reference.
    let single = dir.join("single");
    let out = run(&["run", scn, "--out", single.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Two sequential worker shards into one shared directory.
    let shared = dir.join("shared");
    for i in 0..2 {
        let shard = format!("{i}/2");
        let out = run(&[
            "campaign-worker",
            scn,
            "--shard",
            &shard,
            "--out",
            shared.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "shard {shard}: {}", stderr(&out));
        assert!(
            shared
                .join(format!("campaign_manifest.worker-{i}.csv"))
                .exists(),
            "per-worker manifest written"
        );
    }
    let out = run(&["campaign-merge", shared.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains('±'), "merge prints the CI table");

    for file in ["campaign_results.csv", "campaign.json"] {
        let a = std::fs::read(single.join(file)).unwrap();
        let b = std::fs::read(shared.join(file)).unwrap();
        assert_eq!(a, b, "{file} byte-identical across the two paths");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Off a terminal the campaign status line never redraws: piped stderr
/// holds no `\r` and one final count, for a campaign and a worker shard.
#[test]
fn status_line_off_a_terminal_prints_one_final_count() {
    let dir = fresh_dir("status_line");
    let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/campaign.scn");
    let shared = dir.join("shared");
    let shared = shared.to_str().unwrap();
    for (label, args) in [
        ("campaign", vec!["run", scn, "--jobs", "40", "--no-csv"]),
        (
            "worker 1",
            vec![
                "campaign-worker",
                scn,
                "--jobs",
                "40",
                "--shard",
                "1/2",
                "--out",
                shared,
            ],
        ),
    ] {
        let out = bin()
            .args(&args)
            .current_dir(&dir)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let err = stderr(&out);
        assert!(out.status.success(), "{label}: {err}");
        assert!(
            !out.stderr.contains(&b'\r'),
            "{label} redrew off a terminal: {err:?}"
        );
        let prefix = format!("# {label}: ");
        let counts: Vec<&str> = err
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix)?.strip_suffix(" runs"))
            .collect();
        assert_eq!(counts.len(), 1, "{label}: one count line expected: {err}");
        let (done, total) = counts[0].split_once('/').unwrap();
        assert_eq!(done, total, "{label}: the final count: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_worker_flag_validation() {
    let dir = std::env::temp_dir().join(format!("bsld_cli_wflags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scn = dir.join("c.scn");
    std::fs::write(
        &scn,
        "workload = synthetic\nprofile = ctc\njobs = 10\nseed = 1\nreplications = 2\n",
    )
    .unwrap();
    let scn = scn.to_str().unwrap();
    let out_dir = dir.join("out");
    let out_str = out_dir.to_str().unwrap();

    // Missing --shard / --out.
    let out = run(&["campaign-worker", scn, "--out", out_str]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--shard"), "{}", stderr(&out));
    let out = run(&["campaign-worker", scn, "--shard", "0/2"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--out"), "{}", stderr(&out));

    // Malformed and out-of-range shards.
    for bad in ["2", "2/2", "a/b"] {
        let out = run(&["campaign-worker", scn, "--shard", bad, "--out", out_str]);
        assert!(!out.status.success(), "shard {bad} must be rejected");
    }

    // --shard outside campaign-worker is an error.
    let out = run(&["run", scn, "--shard", "0/2", "--no-csv"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--shard only applies"),
        "{}",
        stderr(&out)
    );

    // Merging a directory that holds no campaign is an error.
    let out = run(&["campaign-merge", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("campaign.scn"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budgeted_campaign_records_failed_rows_and_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("bsld_cli_budget_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scn = dir.join("b.scn");
    std::fs::write(
        &scn,
        "scenario = b\n\
         workload = synthetic\n\
         profile = blue\n\
         jobs = 200\n\
         seed = 7\n\
         scale_cpus = 64\n\
         replications = 2\n\
         cell_budget_s = 0\n",
    )
    .unwrap();
    let out_dir = dir.join("out");
    let out = run(&[
        "run",
        scn.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    // Failures are reported through the exit code...
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("exceeded cell_budget_s"),
        "{}",
        stderr(&out)
    );
    // ...but the sweep completed and the artifacts exist, failed rows
    // recorded in the manifest.
    let manifest = std::fs::read_to_string(out_dir.join("campaign_manifest.csv")).unwrap();
    assert_eq!(
        manifest.matches(",failed,").count(),
        2,
        "one failed row per unit: {manifest}"
    );
    assert!(out_dir.join("campaign_results.csv").exists());
    assert!(out_dir.join("campaign.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_flag_outside_run_is_an_error() {
    let out = run(&["table1", "--resume", "somewhere"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--resume only applies"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn out_flag_does_not_combine_with_resume() {
    // --out next to --resume would be silently shadowed by the resume
    // dir; the CLI rejects the combination instead.
    let dir = std::env::temp_dir().join(format!("bsld_cli_outres_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scn = dir.join("c.scn");
    std::fs::write(
        &scn,
        "workload = synthetic\nprofile = ctc\njobs = 10\nseed = 1\nreplications = 2\n",
    )
    .unwrap();
    let out = run(&[
        "run",
        scn.to_str().unwrap(),
        "--out",
        dir.join("a").to_str().unwrap(),
        "--resume",
        dir.join("b").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--out does not combine with --resume"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_subcommand_rejects_bad_files() {
    let dir = std::env::temp_dir().join(format!("bsld_cli_smoke_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scn: PathBuf = dir.join("bad.scn");
    std::fs::write(&scn, "workload = synthetic\nprofile = ctc\nwat = 1\n").unwrap();
    let out = run(&["run", scn.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("parse error"), "{}", stderr(&out));
    let out = run(&["run", dir.join("missing.scn").to_str().unwrap()]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A spawned daemon, killed and reaped on drop (a no-op once it exited).
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_daemon_answers_query_byte_identical_to_run() {
    let dir = std::env::temp_dir().join(format!("bsld_cli_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scn = dir.join("serve.scn");
    std::fs::write(
        &scn,
        "scenario = served\n\
         workload = synthetic\n\
         profile = ctc\n\
         jobs = 120\n\
         seed = 9\n\
         policy = bsld:2/NO\n\
         sweep.bsld_th = 1.5 3\n",
    )
    .unwrap();
    let scn = scn.to_str().unwrap();
    let sock = dir.join("d.sock");
    let sock = sock.to_str().unwrap();

    // --socket is required, and query without a daemon fails helpfully.
    let out = run(&["serve"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--socket"), "{}", stderr(&out));
    let out = run(&["query", "--socket", sock, "status"]);
    assert!(!out.status.success());

    // The guard kills and reaps the daemon should an assertion fail before
    // its shutdown; it never holds the test's stdout.
    let mut daemon = Daemon(
        bin()
            .args(["serve", "--socket", sock, "--workers", "2"])
            .stdout(Stdio::null())
            .spawn()
            .expect("daemon must spawn"),
    );
    // Wait for the socket to appear.
    for _ in 0..200 {
        if std::path::Path::new(sock).exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    // The served reply's stdout is byte-identical to the one-shot run's.
    let direct = run(&["run", scn, "--no-csv"]);
    assert!(direct.status.success(), "{}", stderr(&direct));
    let served = run(&["query", "--socket", sock, "run", scn]);
    assert!(served.status.success(), "{}", stderr(&served));
    assert_eq!(stdout(&served), stdout(&direct), "served bytes must match");

    // An override changes the answer; status shows the warm cache at work.
    let what_if = run(&["query", "--socket", sock, "run", scn, "--set", "cap=0.8"]);
    assert!(what_if.status.success(), "{}", stderr(&what_if));
    assert!(
        stdout(&what_if).contains("served-cap0.8-th1.5"),
        "{}",
        stdout(&what_if)
    );
    let status = run(&["query", "--socket", sock, "status"]);
    assert!(status.status.success(), "{}", stderr(&status));
    assert!(
        stdout(&status).contains("\"workload_hits\":1"),
        "{}",
        stdout(&status)
    );

    // Graceful drain: shutdown op, daemon exits 0, socket unlinked.
    let out = run(&["query", "--socket", sock, "shutdown"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let code = daemon.0.wait().expect("daemon must exit");
    assert!(code.success(), "daemon exit: {code:?}");
    assert!(
        !std::path::Path::new(sock).exists(),
        "socket must be unlinked"
    );

    // `run --set` goes through the same overrides as `query run --set`.
    let direct = run(&["run", scn, "--no-csv", "--set", "cap=0.8"]);
    assert!(direct.status.success(), "{}", stderr(&direct));
    assert_eq!(stdout(&what_if), stdout(&direct), "--set bytes must match");
    std::fs::remove_dir_all(&dir).ok();
}
