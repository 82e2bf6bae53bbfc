//! Standard Workload Format (SWF) support.
//!
//! The paper simulates 5 000-job segments of *cleaned* traces from the
//! Parallel Workload Archive. This crate implements the archive's SWF text
//! format so real traces can be dropped into the reproduction unchanged:
//!
//! * [`SwfRecord`] — the 18 standard fields of one job line;
//! * [`parse_swf`] / [`write_swf`] — text round-trip with header directives;
//! * [`stream`] — [`SwfStream`], the record-at-a-time parser the in-memory
//!   API is a collect shim over, plus [`clean_swf_stream`] for
//!   parse-and-clean with peak memory bounded by surviving jobs;
//! * [`clean`] — the cleaning steps the paper relies on: removal of
//!   non-representative user *flurries*, dropping failed/zero-size jobs,
//!   clamping runtimes to estimates, and 5 000-job segment selection with
//!   arrival rebasing;
//! * [`stats`] — trace summaries (size/runtime distributions, offered load);
//! * [`convert`] — conversion into `bsld-model` [`bsld_model::Job`]s;
//! * [`write`](mod@write) — SWF serialisation and [`generate_swf`], the deterministic
//!   synthetic trace generator behind `bsld-repro gen-swf`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
pub mod clean;
pub mod convert;
pub mod parse;
pub mod record;
pub mod stats;
pub mod stream;
pub mod write;

pub use clean::{
    clean_trace, clean_trace_with_abort, select_segment, CleanAborted, CleanConfig, CleanSummary,
};
pub use convert::{records_to_jobs, records_to_jobs_with_abort, TraceAborted};
pub use parse::{parse_swf, parse_swf_with_abort, ParseError, ParseErrorKind};
pub use record::{SwfHeader, SwfRecord, SwfTrace};
pub use stats::TraceStats;
pub use stream::{clean_swf_stream, SwfStream, SwfStreamError};
pub use write::{generate_swf, write_swf, GEN_SWF_DEFAULT_PROCS};
