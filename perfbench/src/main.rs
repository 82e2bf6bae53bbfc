//! `perfbench <workload> --seed N --seconds S --trace 0|1` runs one of
//! [`perfbench::WORKLOADS`] and prints its result as the last line of stdout;
//! `perfbench daemon --socket PATH` is the serve daemon `serve_mix`
//! starts. `perfbench/run.py` builds this binary and runs it.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{grid, replay, serve_mix, RunConfig, WORKLOADS};

const USAGE: &str = "usage: perfbench <workload> --seed N --seconds S --trace 0|1\n\
                     \x20      perfbench daemon --socket PATH";

fn parse(args: &[String]) -> Result<(String, RunConfig, Option<PathBuf>), String> {
    let (workload, rest) = args.split_first().ok_or(USAGE)?;
    let mut cfg = RunConfig {
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut socket = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: std::num::ParseIntError| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--seed" => cfg.seed = value.parse().map_err(bad)?,
            "--seconds" => cfg.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                }
            }
            "--socket" => socket = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if cfg.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok((workload.clone(), cfg, socket))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|(workload, cfg, socket)| match workload.as_str() {
        "daemon" => {
            let socket = socket.ok_or("daemon needs --socket PATH")?;
            serve_mix::serve(&socket).map(|()| None)
        }
        "grid_5k" => grid::run(&cfg).map(Some),
        "serve_mix" => serve_mix::run(&cfg).map(Some),
        other => match other.strip_prefix("replay_") {
            Some(leg) if WORKLOADS.contains(&other) => replay::run(&cfg, leg).map(Some),
            _ => Err(format!(
                "unknown workload {other:?}; one of {}\n{USAGE}",
                WORKLOADS.join(", ")
            )),
        },
    });
    match result {
        Ok(Some(report)) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
