//! Streaming SWF parsing and cleaning.
//!
//! [`parse_swf`](crate::parse_swf) materialises a whole trace before any
//! downstream stage runs — fine for 5 000-job segments, hopeless for the
//! multi-month, million-line archive logs the paper's workloads are cut
//! from. [`SwfStream`] instead yields one [`SwfRecord`] at a time straight
//! off a [`BufRead`], with the parser's every-4096-lines abort poll folded
//! in, and [`clean_swf_stream`] applies the validity filters
//! record-by-record so peak memory is bounded by the number of *surviving*
//! jobs, never the file size.
//!
//! The in-memory API ([`crate::parse_swf_with_abort`]) is a thin collect
//! shim over this iterator, so the two paths cannot drift; on top of that,
//! `tests/streaming_ab.rs` and the CI byte-diff hold the streamed and
//! materialised replay paths bit-identical end to end.

use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::clean::{flurry_pass, CleanAborted, CleanConfig, CleanSummary};
use crate::parse::ABORT_POLL_LINES;
use crate::parse::{parse_data_line, parse_header_line, ParseError, ParseErrorKind};
use crate::record::{SwfHeader, SwfRecord, SwfTrace};

/// An iterator over the data records of an SWF byte stream.
///
/// Yields `Result<SwfRecord, ParseError>` items; comment lines accumulate
/// into the header as they are encountered (use [`SwfStream::header`] or
/// [`SwfStream::into_header`] — the header is only complete once the
/// iterator is exhausted, since SWF tolerates directives anywhere in the
/// file). After the first error the stream is fused: further calls yield
/// `None`.
///
/// Line numbers in errors are 1-based and count *all* physical lines
/// (comments and blanks included), exactly like the in-memory parser.
#[derive(Debug)]
pub struct SwfStream<'a, R> {
    reader: R,
    header: SwfHeader,
    abort: Option<&'a AtomicBool>,
    /// Physical lines consumed so far (0-based index of the next line).
    line: usize,
    buf: String,
    done: bool,
}

impl<'a, R: BufRead> SwfStream<'a, R> {
    /// Streams records from `reader` with no abort flag.
    pub fn new(reader: R) -> SwfStream<'static, R> {
        SwfStream::with_abort(reader, None)
    }

    /// Streams records from `reader`, polling `abort` every
    /// [`ABORT_POLL_LINES`](crate::parse) physical lines; a raised flag
    /// stops the stream with [`ParseErrorKind::Aborted`].
    pub fn with_abort(reader: R, abort: Option<&'a AtomicBool>) -> SwfStream<'a, R> {
        SwfStream {
            reader,
            header: SwfHeader::default(),
            abort,
            line: 0,
            buf: String::new(),
            done: false,
        }
    }

    /// The header directives seen *so far*. Complete only once the stream
    /// is exhausted.
    pub fn header(&self) -> &SwfHeader {
        &self.header
    }

    /// Consumes the stream, returning the accumulated header.
    pub fn into_header(self) -> SwfHeader {
        self.header
    }

    /// The abort flag this stream polls, for downstream stages that want
    /// to share it (e.g. [`clean_swf_stream`]).
    pub fn abort_flag(&self) -> Option<&'a AtomicBool> {
        self.abort
    }

    /// Drains the stream into an in-memory [`SwfTrace`] — the collect shim
    /// the legacy [`crate::parse_swf`] API is built on.
    pub fn collect_trace(mut self) -> Result<SwfTrace, ParseError> {
        let mut records = Vec::new();
        for rec in &mut self {
            records.push(rec?);
        }
        Ok(SwfTrace {
            header: self.header,
            records,
        })
    }
}

impl<R: BufRead> Iterator for SwfStream<'_, R> {
    type Item = Result<SwfRecord, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let lineno = self.line + 1;
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(ParseError {
                        line: lineno,
                        kind: ParseErrorKind::Io {
                            message: e.to_string(),
                        },
                    }));
                }
            }
            // Poll with the 0-based index of the line just read, matching
            // the in-memory parser's cadence (and its line-1 abort report).
            if self.line.is_multiple_of(ABORT_POLL_LINES) {
                if let Some(flag) = self.abort {
                    if flag.load(Ordering::SeqCst) {
                        self.done = true;
                        return Some(Err(ParseError {
                            line: lineno,
                            kind: ParseErrorKind::Aborted,
                        }));
                    }
                }
            }
            self.line += 1;
            let line = self.buf.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix(';') {
                parse_header_line(comment.trim(), &mut self.header);
                continue;
            }
            match parse_data_line(line, lineno) {
                Ok(r) => return Some(Ok(r)),
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Why a streamed parse-and-clean stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfStreamError {
    /// The underlying byte stream failed to parse (or its abort poll
    /// tripped — [`ParseErrorKind::Aborted`]).
    Parse(ParseError),
    /// The abort flag was raised during the cleaning passes.
    Clean(CleanAborted),
}

impl std::fmt::Display for SwfStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfStreamError::Parse(e) => write!(f, "{e}"),
            SwfStreamError::Clean(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SwfStreamError {}

impl From<ParseError> for SwfStreamError {
    fn from(e: ParseError) -> Self {
        SwfStreamError::Parse(e)
    }
}

impl From<CleanAborted> for SwfStreamError {
    fn from(e: CleanAborted) -> Self {
        SwfStreamError::Clean(e)
    }
}

impl SwfStreamError {
    /// Whether this error is a cooperative abort (parse- or clean-phase),
    /// as opposed to malformed input.
    pub fn is_aborted(&self) -> bool {
        matches!(
            self,
            SwfStreamError::Clean(_)
                | SwfStreamError::Parse(ParseError {
                    kind: ParseErrorKind::Aborted,
                    ..
                })
        )
    }
}

/// Parses and cleans a trace in one streamed pass, returning the cleaned
/// trace and the cleaning summary.
///
/// Bit-identical to `parse_swf_with_abort` + `clean_trace_with_abort` on
/// the same input (same records, same order, same [`CleanSummary`]), but
/// with peak memory O(records surviving the validity filters) instead of
/// O(file):
///
/// * the header-independent validity filters (shape, unstarted status) run
///   record-by-record as lines are parsed, so invalid records are never
///   buffered;
/// * the header-dependent steps (oversize drop against `MaxProcs`, runtime
///   clamping — ordered after the oversize drop, as in the in-memory
///   cleaner) run once the stream ends and the header is final;
/// * the flurry pass is the *same code* as the in-memory cleaner's
///   (`flurry_pass`), sort included.
///
/// The per-record checks are mutually exclusive per record, so splitting
/// pass 1 across the stream boundary cannot change which counter a record
/// lands in.
pub fn clean_swf_stream<R: BufRead>(
    mut stream: SwfStream<'_, R>,
    cfg: &CleanConfig,
) -> Result<(SwfTrace, CleanSummary), SwfStreamError> {
    let abort = stream.abort_flag();
    let mut summary = CleanSummary::default();

    // Pass 1a (streamed): header-independent validity filters. The parse
    // itself polls the abort flag per line, which strictly dominates the
    // in-memory cleaner's per-record poll in responsiveness.
    let mut kept: Vec<SwfRecord> = Vec::new();
    for rec in &mut stream {
        let r = rec?;
        let procs = r.effective_procs();
        let valid_shape = procs.is_some() && r.run_time > 0 && r.submit >= 0;
        if !valid_shape {
            summary.dropped_invalid += 1;
            continue;
        }
        if cfg.drop_unstarted && r.status == 5 && r.wait <= 0 && r.run_time <= 0 {
            summary.dropped_invalid += 1;
            continue;
        }
        kept.push(r);
    }

    // Pass 1b: the header is final now; apply the header-dependent drop
    // and the clamp, preserving the in-memory per-record check order
    // (oversize before clamp).
    let max_procs = stream.header().max_procs;
    let mut filtered: Vec<SwfRecord> = Vec::with_capacity(kept.len());
    for mut r in kept {
        if cfg.drop_oversize {
            if let (Some(max), Some(p)) = (max_procs, r.effective_procs()) {
                if p > max {
                    summary.dropped_oversize += 1;
                    continue;
                }
            }
        }
        if cfg.clamp_runtime_to_estimate && r.req_time > 0 && r.run_time > r.req_time {
            r.run_time = r.req_time;
            summary.clamped_runtime += 1;
        }
        filtered.push(r);
    }

    // Pass 2: flurry removal — shared verbatim with the in-memory cleaner.
    let records = flurry_pass(filtered, cfg, abort, &mut summary)?;
    Ok((
        SwfTrace {
            header: stream.into_header(),
            records,
        },
        summary,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::clean_trace_with_abort;
    use crate::parse::{parse_swf, parse_swf_with_abort};

    const SAMPLE: &str = "\
; MaxProcs: 64
; Note: streaming sample
1 0 10 3600 4 -1 -1 4 7200 -1 1 12 3 -1 1 -1 -1 -1

2 60 -1 100 1 -1 -1 1 600 -1 1 13 3 -1 1 -1 -1 -1
3 90 -1 0 1 -1 -1 1 600 -1 1 13 3 -1 1 -1 -1 -1
4 120 -1 100 128 -1 -1 128 600 -1 1 13 3 -1 1 -1 -1 -1
";

    #[test]
    fn stream_matches_in_memory_parse() {
        let streamed = SwfStream::<&[u8]>::new(SAMPLE.as_bytes())
            .collect_trace()
            .unwrap();
        let in_memory = parse_swf(SAMPLE).unwrap();
        assert_eq!(streamed, in_memory);
    }

    #[test]
    fn header_accumulates_during_iteration() {
        let mut s = SwfStream::<&[u8]>::new(SAMPLE.as_bytes());
        assert_eq!(s.header().max_procs, None);
        let first = s.next().unwrap().unwrap();
        assert_eq!(first.job_id, 1);
        assert_eq!(s.header().max_procs, Some(64));
    }

    #[test]
    fn stream_is_fused_after_error() {
        let mut s = SwfStream::<&[u8]>::new("1 2 3\n4 5 6\n".as_bytes());
        assert!(s.next().unwrap().is_err());
        assert!(s.next().is_none());
        assert!(s.next().is_none());
    }

    #[test]
    fn raised_abort_stops_stream_at_line_one() {
        let flag = AtomicBool::new(true);
        let mut s = SwfStream::with_abort(SAMPLE.as_bytes(), Some(&flag));
        let err = s.next().unwrap().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::Aborted);
        assert_eq!(err.line, 1);
        // Identical to the in-memory behaviour.
        let in_memory = parse_swf_with_abort(SAMPLE, Some(&flag)).unwrap_err();
        assert_eq!(err, in_memory);
    }

    #[test]
    fn empty_input_with_raised_flag_is_empty_not_aborted() {
        // `parse_swf_with_abort("", raised)` yields Ok(empty): there is no
        // line to poll on. The stream must agree.
        let flag = AtomicBool::new(true);
        let mut s = SwfStream::with_abort("".as_bytes(), Some(&flag));
        assert!(s.next().is_none());
        assert_eq!(
            parse_swf_with_abort("", Some(&flag)).unwrap(),
            SwfTrace::default()
        );
    }

    #[test]
    fn clean_stream_matches_in_memory_clean() {
        let cfg = CleanConfig::default();
        let (streamed, s1) =
            clean_swf_stream(SwfStream::<&[u8]>::new(SAMPLE.as_bytes()), &cfg).unwrap();
        let mut in_memory = parse_swf(SAMPLE).unwrap();
        let s2 = clean_trace_with_abort(&mut in_memory, &cfg, None).unwrap();
        assert_eq!(streamed, in_memory);
        assert_eq!(s1, s2);
        // Job 3 (zero runtime) dropped invalid; job 4 (128 > 64) oversize.
        assert_eq!(s1.dropped_invalid, 1);
        assert_eq!(s1.dropped_oversize, 1);
        assert_eq!(streamed.records.len(), 2);
    }

    #[test]
    fn clean_stream_propagates_parse_errors() {
        let cfg = CleanConfig::default();
        let err =
            clean_swf_stream(SwfStream::<&[u8]>::new("garbage\n".as_bytes()), &cfg).unwrap_err();
        assert!(matches!(err, SwfStreamError::Parse(_)));
        assert!(!err.is_aborted());
    }

    #[test]
    fn clean_stream_abort_is_flagged_as_such() {
        let flag = AtomicBool::new(true);
        let cfg = CleanConfig::default();
        let err = clean_swf_stream(SwfStream::with_abort(SAMPLE.as_bytes(), Some(&flag)), &cfg)
            .unwrap_err();
        assert!(err.is_aborted());
    }

    #[test]
    fn crlf_lines_parse_like_lf() {
        let crlf = SAMPLE.replace('\n', "\r\n");
        let a = SwfStream::<&[u8]>::new(crlf.as_bytes())
            .collect_trace()
            .unwrap();
        let b = parse_swf(SAMPLE).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn io_error_mid_stream_is_reported_with_line() {
        struct Flaky {
            served: bool,
        }
        impl std::io::Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.served {
                    Err(std::io::Error::other("disk on fire"))
                } else {
                    self.served = true;
                    let line = b"1 0 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
                    buf[..line.len()].copy_from_slice(line);
                    Ok(line.len())
                }
            }
        }
        let reader = std::io::BufReader::new(Flaky { served: false });
        let mut s = SwfStream::<_>::new(reader);
        assert!(s.next().unwrap().is_ok());
        let err = s.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::Io { .. }));
        assert!(err.to_string().contains("disk on fire"));
        assert!(s.next().is_none(), "fused after I/O error");
    }
}
