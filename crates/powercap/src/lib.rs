//! Cluster-level power management: the power ledger, idle sleep states and
//! power-cap enforcement.
//!
//! The paper computes CPU energy *post hoc* from completed job phases
//! (`bsld-power`'s [`bsld_power::EnergyAccount`]); nothing in the seed
//! system could observe or act on instantaneous cluster draw. This crate
//! makes cluster power a first-class simulation signal:
//!
//! * [`PowerLedger`] — running cluster draw (active gears ×
//!   `P_active(gear)` + idle/sleep draw per free processor), updated on
//!   every start/completion/gear-change/sleep transition, exposed as a
//!   step-function time series with an exact energy integral;
//! * [`IdleManager`] / [`SleepConfig`] — SleepScale-style idle sleep
//!   states: free processors descend a ladder of progressively deeper
//!   states after configurable idle timeouts, and are woken (shallowest
//!   first, wake energy and latency charged exactly once per wake) when
//!   the scheduler needs them;
//! * [`PowerCapPolicy`] — a [`bsld_sched::PowerHook`] implementation that
//!   enforces a [`PowerCap`] on the schedule: a **hard** cap vetoes or
//!   down-gears any start/boost that would push draw over the budget; a
//!   **soft** cap does the same but admits over-budget starts (recording
//!   the violation) once the wait queue grows past an escape threshold,
//!   mirroring the paper's `WQ_threshold` gate.
//!
//! The run-facing integration lives in `bsld-core`
//! (`Scenario::run_prepared`) and the cap-sweep experiment in
//! `bsld-core`'s experiment harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
pub mod cap;
pub mod ledger;
pub mod sleep;

pub use cap::{CapStats, PowerCap, PowerCapPolicy, PowerReport};
pub use ledger::{PowerLedger, RailEnergy};
pub use sleep::{IdleManager, SleepConfig, SleepState, SleepStats};
