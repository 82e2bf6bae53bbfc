//! # bsld — BSLD-threshold power-aware job scheduling for HPC centers
//!
//! Facade crate of the reproduction of *Etinski, Corbalan, Labarta, Valero:
//! "BSLD Threshold Driven Power Management Policy for HPC Centers"*
//! (IPDPS/IPPS 2010). Re-exports every workspace crate under one roof:
//!
//! * [`simkernel`] — discrete-event kernel (time, events, RNG, statistics);
//! * [`model`] — jobs, outcomes, the BSLD metric;
//! * [`cluster`] — DVFS gears, First Fit processor pool, availability
//!   profiles;
//! * [`power`] — the `ACfV²`+`αV` power model, β time model, energy
//!   accounting;
//! * [`swf`] — Standard Workload Format parsing/cleaning;
//! * [`workload`] — synthetic workloads calibrated to the paper's five
//!   traces;
//! * [`sched`] — the EASY backfilling engine with the frequency-policy and
//!   power hooks;
//! * [`powercap`] — the cluster power ledger, idle sleep states and
//!   power-cap enforcement;
//! * [`metrics`] — run summaries and report writers;
//! * [`obs`] — observability: the deterministic sim-time trace plane
//!   (Chrome-trace export) and the wall-clock profiling plane (counters,
//!   histograms, phase timers);
//! * [`core`] — the paper's BSLD-threshold policy, the declarative
//!   scenario API (`core::scenario`: one serializable spec, one way to
//!   run it, `Scenario::run(&RunCtx)`, sweepable scenario files), the
//!   campaign layer (`core::campaign`: seed-replicated sweeps with mean ±
//!   95 % CI, content-hash cell caching and resume) and the experiment
//!   harness reproducing every table and figure;
//! * [`par`] — the parallel sweep executor;
//! * [`serve`] — the `bsld-repro serve` daemon: resident workloads and
//!   cached cell results answering what-if queries over a Unix socket.
//!
//! ## Quickstart
//!
//! ```
//! use bsld::core::scenario::{PolicySpec, ProfileName, RunCtx, Scenario, WorkloadSpec};
//! use bsld::core::WqThreshold;
//!
//! // A small calibrated workload (SDSC-Blue-like): 200 jobs on 64 cpus, seed 42.
//! let mut sc = Scenario::synthetic("quickstart", ProfileName::SdscBlue, 200, 42).map_workload(|w| {
//!     if let WorkloadSpec::Synthetic { scale_cpus, .. } = w {
//!         *scale_cpus = Some(64);
//!     }
//! });
//!
//! // Baseline: EASY backfilling, no DVFS.
//! let base = sc.run(&RunCtx::default()).unwrap().run;
//!
//! // The paper's policy: BSLD threshold 2.0, unlimited wait queue.
//! sc.policy = PolicySpec::BsldThreshold { th: 2.0, wq: WqThreshold::NoLimit };
//! let dvfs = sc.run(&RunCtx::default()).unwrap().run;
//!
//! assert!(dvfs.metrics.energy.computational <= base.metrics.energy.computational);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
pub use bsld_cluster as cluster;
pub use bsld_core as core;
pub use bsld_metrics as metrics;
pub use bsld_model as model;
pub use bsld_obs as obs;
pub use bsld_par as par;
pub use bsld_power as power;
pub use bsld_powercap as powercap;
pub use bsld_sched as sched;
pub use bsld_serve as serve;
pub use bsld_simkernel as simkernel;
pub use bsld_swf as swf;
pub use bsld_workload as workload;
