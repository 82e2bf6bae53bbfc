//! # bsld-obs — observability primitives for the BSLD reproduction
//!
//! Two strictly separated planes:
//!
//! * **The deterministic trace plane** ([`trace`]) — structured events
//!   stamped with *simulated* time only, emitted by the scheduler, the
//!   power-cap hook and the campaign driver through the [`TraceSink`]
//!   trait, and rendered to Chrome-trace-format JSON (loadable in
//!   Perfetto / `chrome://tracing`). Every byte of a trace file is a pure
//!   function of the simulated run: replays are byte-identical. This
//!   module reads no clock and carries **zero** `audit:allow` escapes.
//!
//! * **The wall-clock profiling plane** ([`profile`]) — counters,
//!   histograms, gauges and phase stopwatches for *provenance*: per-phase
//!   campaign columns, serve-daemon latency, cache statistics. Everything
//!   here is wall-clock by definition, never feeds simulation results or
//!   cell identity, and carries the crate's only justified
//!   `audit:allow(D2)` escapes.
//!
//! The disabled path is free: an engine configured with no sink
//! (`Option::None`) performs one branch per would-be event and allocates
//! nothing.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

pub mod profile;
pub mod trace;

pub use profile::{Counter, Gauge, Histogram, HistogramSummary, PhaseSecs, Phases, Stopwatch};
pub use trace::{
    render_chrome_trace, write_chrome_trace, BufferSink, TraceEvent, TraceSink, VetoSite,
};
