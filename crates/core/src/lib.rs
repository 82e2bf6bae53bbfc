//! The paper's contribution: BSLD-threshold driven power management.
//!
//! This crate contains:
//!
//! * [`BsldThresholdPolicy`] — the CPU frequency-assignment algorithm of
//!   Figures 1–2 of Etinski et al. 2010, implemented against the
//!   `bsld-sched` policy hook: a job is scheduled at the lowest gear whose
//!   *predicted BSLD* stays under `BSLD_threshold`, and only while no more
//!   than `WQ_threshold` jobs are waiting;
//! * [`scenario`] — the declarative run API: a serializable [`Scenario`]
//!   spec, plus [`ScenarioSet`] sweeps. There is one way to run a
//!   scenario: [`Scenario::run`] with a [`RunCtx`] (abort flag, trace sink,
//!   phase timings; [`RunCtx::default`] attaches nothing), over the one
//!   kernel [`Scenario::run_prepared`]. The experiment harness, the
//!   campaign, the CLI and the serve daemon all run through it;
//! * [`Simulator`] — the wiring a run needs: cluster, power rails, β time
//!   model and engine options, built by [`Scenario::simulator`];
//! * [`campaign`] — replicated sweeps with per-cell mean ± 95 % CI,
//!   content-hash cell IDs, an incremental result manifest, per-unit
//!   wall-time budgets and resume;
//! * [`distrib`] — distributed campaigns: content-hash sharded workers
//!   appending per-worker manifests to a shared directory, merged into
//!   aggregates byte-identical to a single-process run;
//! * [`experiments`] — the harness that regenerates every table and figure
//!   of the paper's evaluation section (see `DESIGN.md` for the index);
//! * [`report`] — the one renderer of sweep results tables/CSV, shared by
//!   the CLI and the `bsld-serve` daemon so their replies are
//!   byte-identical.
//!
//! The `bsld-repro` binary exposing all of this on the command line lives
//! in `crates/cli` (so it can also depend on `bsld-serve`, which depends
//! on this crate).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
pub mod campaign;
pub mod distrib;
pub mod experiments;
pub mod policy;
pub mod report;
pub mod scenario;
pub mod sim;

pub use campaign::{run_campaign, Campaign, CampaignOptions, CampaignOutcome, CellId};
pub use distrib::{merge_campaign, run_worker, MergeOutcome, Shard, WorkerOutcome};
pub use policy::{BsldThresholdPolicy, PowerAwareConfig, WqThreshold};
pub use report::{sweep_report, CellOutcome, SweepReport};
pub use scenario::{RunCtx, Scenario, ScenarioResult, ScenarioSet};
pub use sim::{RunResult, Simulator};
