//! The repository's benchmark: six closed-loop workloads, each run in a
//! process of its own through the public APIs of the bsld crates, with one
//! simulation thread and (for `serve_mix`) one client.
//!
//! * [`replay`] — resident `gen-swf` traces replayed under one leg per
//!   workload: `replay_easy`, `replay_bsld`, `replay_observe`,
//!   `replay_conservative`;
//! * [`grid`] — `grid_5k`, the paper's Fig. 3–5 grid at 5 000 jobs per cell;
//! * [`serve_mix`] — cold, near and exact queries against the daemon.
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics of
//! [`out::EndToEnd`], its times scaled to the nominal host by the probe in
//! [`host`]. A traced run (`--trace 1`) times the calls into each layer
//! from this crate — the engine's policy and hook surfaces through the
//! wrappers in [`timed`] — and prints the per-layer metrics of
//! [`out::Layers`]. Every workload prints every metric of its set;
//! `BENCHMARK.json` at the repository root lists them.

pub mod cell;
pub mod grid;
pub mod host;
pub mod out;
pub mod replay;
pub mod serve_mix;
pub mod spans;
mod stats;
pub mod timed;

use std::path::{Path, PathBuf};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 6] = [
    "replay_easy",
    "replay_bsld",
    "replay_observe",
    "replay_conservative",
    "grid_5k",
    "serve_mix",
];

/// Where traced runs write their span record, relative to the checkout.
pub const TRACE_DIR: &str = ".bench_out";

/// Where runs keep their scratch files, relative to the checkout.
pub const TMP_DIR: &str = ".bench_tmp";

/// One invocation's settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: u64,
    /// Run the traced variant.
    pub trace: bool,
}

/// A per-run scratch directory under [`TMP_DIR`], removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `.bench_tmp/<name>-<pid>`. The path stays relative, which
    /// keeps Unix socket paths inside it short wherever the checkout is,
    /// and its length does not depend on the pid, so neither do the
    /// program's allocation sizes.
    pub fn new(name: &str) -> Result<TempDir, String> {
        let dir = Path::new(TMP_DIR).join(format!("{name}-{:010}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still has its own directory there.
        let _ = std::fs::remove_dir(TMP_DIR);
    }
}
