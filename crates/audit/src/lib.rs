//! `bsld-audit` — static analysis enforcing the workspace's determinism
//! and numeric-safety contract.
//!
//! # Why a bespoke analyzer
//!
//! This reproduction's headline claim is *bit-reproducibility*: the same
//! campaign spec produces byte-identical manifests, CSVs and JSON reports
//! across runs, shardings and resumes. That property is carried by
//! conventions no compiler checks: never iterate a hash collection where
//! order can reach an artifact, never read the wall clock in simulation
//! code, never compare floats exactly, never truncate an energy ledger.
//! Each convention has been broken silently at least once in this family
//! of codebases; each break produces results that look plausible and are
//! wrong, which is the worst failure mode a paper reproduction can have.
//!
//! `clippy` covers some of this (`float_cmp`, `unwrap_used` — both enabled
//! in the workspace lints), but not the project-specific rules: clippy
//! cannot know that `crates/core/src/campaign.rs` feeds persisted
//! artifacts while `crates/par` must read the wall clock to run its
//! budget watchdog. So the audit is a small, dependency-free, lexer-level
//! analyzer — the offline build environment has no `syn`, and the rules
//! below need token streams, not type information.
//!
//! # The rules
//!
//! See [`Rule`] for the per-rule failure scenarios. In short:
//!
//! | rule | scope | forbids |
//! |------|-------|---------|
//! | `D1` | determinism-critical crates | iterating `HashMap`/`HashSet` |
//! | `D2` | libraries outside `par` | `Instant::now`, `SystemTime`, `thread_rng`, `std::env` reads |
//! | `N1` | all libraries | `==`/`!=` against float literals |
//! | `N2` | ledger/identity files | lossy `as` casts |
//! | `R1` | all libraries (non-test) | `.unwrap()`, `.expect()`, `panic!` |
//! | `A0` | everywhere | `audit:allow` without justification |
//!
//! # Escapes
//!
//! A violation that is genuinely fine carries a same-line (or
//! immediately-preceding comment line) escape **with a justification**:
//!
//! ```text
//! let nonce = std::time::SystemTime::now() // audit:allow(D2): tmp-file uniqueness, not results
//! ```
//!
//! An escape without the `: reason` tail is itself a violation (`A0`);
//! an escape that matches nothing is reported as stale.
//!
//! # Honest limitations
//!
//! The analyzer is flow-insensitive and per-file: a `HashMap` returned
//! across a module boundary and iterated elsewhere is invisible to `D1`.
//! That gap is closed *dynamically* — the `determinism_rerun` integration
//! test byte-diffs a campaign run against a re-run and a 2-shard
//! worker/merge execution, which any surviving hash-order leak perturbs.
//! Static pass + dynamic diff together are the contract.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
pub mod lex;
pub mod mask;
pub mod report;
pub mod rules;
pub mod walk;

pub use report::AuditReport;
pub use rules::{audit_source, classify, FileAudit, FileKind, Rule, Violation};
pub use walk::{audit_workspace, collect_files, find_root};

/// Runs the audit as a CLI: parses `args` (everything after the program
/// name / subcommand), runs the workspace audit and prints the report.
/// Returns the intended process exit code (0 pass, 1 violations, 2 usage
/// or I/O error).
pub fn run_cli(args: &[String]) -> i32 {
    let mut json = false;
    let mut root: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(r) => root = Some(r.into()),
                None => {
                    eprintln!("audit: --root needs a directory");
                    return 2;
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("audit: unknown argument {other:?}\n{USAGE}");
                return 2;
            }
        }
    }
    let root = root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d)));
    let Some(root) = root else {
        eprintln!("audit: cannot find a workspace root (Cargo.toml + crates/); use --root");
        return 2;
    };
    match audit_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.ok() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("audit: {e}");
            2
        }
    }
}

/// CLI usage text, shared by the standalone binary and the `bsld-repro
/// audit` subcommand.
pub const USAGE: &str = "\
usage: bsld-audit [--json] [--root DIR]

Statically audits the workspace's determinism & numeric-safety contract.
  --json       emit the machine-readable JSON report instead of text
  --root DIR   workspace root (default: walk up from the current dir)

exit status: 0 clean, 1 violations found, 2 usage or I/O error";
