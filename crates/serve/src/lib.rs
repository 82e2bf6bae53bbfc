//! Scheduling as a service: the `bsld-repro serve` daemon.
//!
//! A sweep-heavy workflow repeats two expensive steps on every invocation
//! of the one-shot CLI: parsing/cleaning the workload (multi-second for a
//! real SWF trace) and re-simulating cells an earlier what-if already
//! answered. This crate keeps both *resident*: a long-running daemon holds
//! parsed workloads and finished cell outcomes in bounded, deterministic
//! LRU caches and answers scenario queries over a Unix-domain socket —
//! line-delimited JSON in, line-delimited JSON out (see [`proto`] for the
//! wire format).
//!
//! Replies are **byte-identical** to the one-shot CLI: the daemon renders
//! through the same [`bsld_core::sweep_report`] path as `bsld-repro run`,
//! and results are keyed by the campaign layer's content-hash
//! [`bsld_core::CellId`], so caching can never change an answer, only its
//! latency. Budget-capped requests ([`proto::Overrides::budget_s`], the
//! file's `cell_budget_s`, or the daemon default) are aborted by the same
//! watchdog the campaign layer uses and turn into structured error
//! replies — a slow query, a torn line or malformed JSON can never take
//! the daemon down.
//!
//! Quick tour:
//!
//! * [`Server`] / [`ServeConfig`] — bind a socket, serve until a client
//!   sends `{"op":"shutdown"}`;
//! * [`Client`] — the blocking one-call-per-line client the `bsld-repro
//!   query` subcommand wraps;
//! * [`ServerState`] — the warm caches + query execution, directly usable
//!   in-process (no socket) for tests and benches;
//! * [`cache::Lru`] — the logical-clock LRU both caches are built on.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
pub mod cache;
pub mod client;
pub mod daemon;
pub mod proto;
pub mod state;

pub use client::Client;
pub use daemon::{ServeConfig, ServeError, Server, MAX_REQUEST_BYTES};
pub use proto::{Overrides, Request, PROTOCOL_VERSION};
pub use state::{RunReply, ServerState, StateConfig};
