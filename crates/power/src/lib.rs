//! Power and execution-time models (Section 4 of Etinski et al. 2010), now
//! pluggable.
//!
//! * [`PowerModel`] — the trait every model implements: draw by DVFS gear
//!   (`p_active`/`p_idle`), draw by continuous utilization (`power(u)`), and
//!   a static/idle decomposition.
//! * [`PaperDvfs`] — the paper's CPU model: dynamic power `P = A·C·f·V²`
//!   plus static power `P = α·V`, with a running/idle activity ratio of 2.5
//!   and α derived from the static share of total active power at the top
//!   gear (25 % in the paper). The derived model reproduces the paper's
//!   observation that an idle processor draws ≈ 21 % of a busy
//!   top-frequency processor.
//! * [`Constant`], [`Linear`], [`Cubic`], [`Empirical`] — alternative
//!   utilization curves in the spirit of dslab's `dslab-power-models`; the
//!   empirical one loads `(utilization, watts)` points from a small CSV.
//! * [`RailSet`] — per-subsystem rails (CPU / memory / interconnect), each
//!   priced by its own model; the set itself is a `PowerModel` summing its
//!   rails.
//! * [`BetaModel`] — the β execution-time dilation model
//!   `T(f)/T(f_top) = β·(f_top/f − 1) + 1`.
//! * [`EnergyAccount`] — accumulates per-phase active energy and derives the
//!   paper's two energy scenarios: *computational energy* (idle processors
//!   free) and *idle-aware energy* (idle processors at lowest-gear idle
//!   power).
//!
//! Power is expressed in normalised units (`A_idle·C = 1`); every reported
//! energy in the reproduction is a ratio against a no-DVFS run of the same
//! workload, so the absolute scale cancels.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
pub mod energy;
pub mod model;
pub mod models;
pub mod rail;
pub mod time_model;

pub use energy::{EnergyAccount, EnergyReport};
pub use model::{PaperDvfs, PowerModel};
pub use models::{Constant, Cubic, Empirical, Linear};
pub use rail::{Rail, RailKind, RailSet};
pub use time_model::BetaModel;

/// The paper's static share of total active CPU power at the top frequency.
pub const DEFAULT_STATIC_FRACTION: f64 = 0.25;

/// The paper's running-to-idle activity-factor ratio.
pub const DEFAULT_ACTIVITY_RATIO: f64 = 2.5;
