//! The deterministic trace plane.
//!
//! Events are stamped with **simulated** microseconds and nothing else —
//! this module must stay free of wall-clock, entropy and environment
//! reads (it is on `bsld-audit`'s determinism-critical list with zero
//! escapes). A trace file is therefore a pure function of the simulated
//! run: re-running the same scenario produces byte-identical output.
//!
//! ## Wire format
//!
//! [`render_chrome_trace`] produces the Chrome trace-event JSON array
//! format (one event object per line, so the file diffs line-by-line),
//! loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`:
//!
//! * each traced scenario cell becomes one *process* (`pid` = cell index
//!   in expansion order, named via a `"M"` metadata event);
//! * each job becomes a `B`/`E` slice on the track of its first allocated
//!   processor (`tid` = first processor + 1);
//! * scheduler passes, arrivals, cap vetoes, power retries, sleep
//!   transitions and boosts are instants on the scheduler track
//!   (`tid` = 0).

use std::sync::{Arc, Mutex, PoisonError};

/// Where a power-cap veto struck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VetoSite {
    /// The EASY head job was deferred by the cap (it will reserve).
    Head,
    /// A backfill candidate was declined at every allowed gear.
    Backfill,
    /// A conservative-mode admission was deferred.
    Conservative,
}

impl VetoSite {
    /// Stable lowercase label used in the trace `args`.
    pub fn label(self) -> &'static str {
        match self {
            VetoSite::Head => "head",
            VetoSite::Backfill => "backfill",
            VetoSite::Conservative => "conservative",
        }
    }
}

/// One structured simulation event. All timestamps `t` are **simulated
/// microseconds** ([`crate::trace`] never sees a wall clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A job entered the wait queue.
    JobArrive {
        /// Simulated microseconds.
        t: u64,
        /// Job id.
        job: u64,
    },
    /// A job was allocated and started.
    JobStart {
        /// Simulated microseconds.
        t: u64,
        /// Job id.
        job: u64,
        /// Gear it runs at.
        gear: u64,
        /// Processors allocated.
        cpus: u64,
        /// First allocated processor (its trace track).
        first_proc: u64,
        /// `true` when it backfilled ahead of the queue head.
        backfilled: bool,
    },
    /// A job finished and released its processors.
    JobFinish {
        /// Simulated microseconds.
        t: u64,
        /// Job id.
        job: u64,
        /// First allocated processor (its trace track).
        first_proc: u64,
    },
    /// A scheduler pass ran (`elided = false`) or was provably skipped by
    /// pass elision (`elided = true`) — the elision outcome is part of the
    /// trace contract.
    Pass {
        /// Simulated microseconds.
        t: u64,
        /// Cumulative pass counter (skipped passes count too).
        pass: u64,
        /// Jobs started by this pass (0 for skipped passes).
        started: u64,
        /// The pass rebuilt the availability profile.
        rebuilt: bool,
        /// The pass was skipped by the elision proof.
        elided: bool,
    },
    /// The power-cap hook vetoed (deferred) a start.
    CapVeto {
        /// Simulated microseconds.
        t: u64,
        /// The deferred job.
        job: u64,
        /// Which admission site vetoed.
        site: VetoSite,
    },
    /// A deferred-start retry pass was scheduled by the power hook.
    PowerRetry {
        /// Simulated microseconds.
        t: u64,
    },
    /// Idle processors crossed a sleep-state transition (aggregate
    /// snapshot after the ladder advanced).
    SleepTransition {
        /// Simulated microseconds.
        t: u64,
        /// Cumulative sleep transitions so far.
        sleeps: u64,
        /// Cumulative wake transitions so far.
        wakes: u64,
        /// Processors currently in a sleep state.
        sleeping: u64,
    },
    /// A waiting job was boosted to a higher gear.
    Boost {
        /// Simulated microseconds.
        t: u64,
        /// The boosted job.
        job: u64,
        /// The gear it was raised to.
        gear: u64,
    },
    /// A boost was vetoed by the power hook.
    BoostVeto {
        /// Simulated microseconds.
        t: u64,
        /// The job whose boost was declined.
        job: u64,
    },
}

impl TraceEvent {
    /// The simulated-microsecond timestamp of this event.
    pub fn t(&self) -> u64 {
        match self {
            TraceEvent::JobArrive { t, .. }
            | TraceEvent::JobStart { t, .. }
            | TraceEvent::JobFinish { t, .. }
            | TraceEvent::Pass { t, .. }
            | TraceEvent::CapVeto { t, .. }
            | TraceEvent::PowerRetry { t }
            | TraceEvent::SleepTransition { t, .. }
            | TraceEvent::Boost { t, .. }
            | TraceEvent::BoostVeto { t, .. } => *t,
        }
    }
}

/// The emission seam: the scheduler and power hook record events through
/// this trait, behind `Option<Arc<dyn TraceSink>>` — `None` is the
/// no-allocation disabled path. `&self` methods so one sink can be shared
/// across the engine and its hooks.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Records one event.
    fn record(&self, ev: TraceEvent);
}

/// Collects events in memory, in emission order. One buffer per scenario
/// cell keeps parallel sweeps deterministic: each cell's engine runs
/// single-threaded, so its buffer order is a pure function of the run,
/// and the driver concatenates buffers in expansion order afterwards.
#[derive(Debug, Default)]
pub struct BufferSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl BufferSink {
    /// A fresh shared buffer.
    pub fn shared() -> Arc<BufferSink> {
        Arc::new(BufferSink::default())
    }

    /// Drains the collected events (emission order).
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Events collected so far.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for BufferSink {
    fn record(&self, ev: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ev);
    }
}

/// Escapes a string for a JSON string literal body.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one event as a single-line Chrome trace object.
fn render_event(pid: usize, ev: &TraceEvent) -> String {
    let b = |v: bool| if v { "true" } else { "false" };
    match ev {
        TraceEvent::JobArrive { t, job } => format!(
            r#"{{"name":"arrive","ph":"i","ts":{t},"pid":{pid},"tid":0,"s":"t","args":{{"job":{job}}}}}"#
        ),
        TraceEvent::JobStart {
            t,
            job,
            gear,
            cpus,
            first_proc,
            backfilled,
        } => format!(
            r#"{{"name":"job {job}","ph":"B","ts":{t},"pid":{pid},"tid":{tid},"args":{{"job":{job},"gear":{gear},"cpus":{cpus},"backfilled":{bf}}}}}"#,
            tid = first_proc + 1,
            bf = b(*backfilled),
        ),
        TraceEvent::JobFinish { t, job, first_proc } => format!(
            r#"{{"name":"job {job}","ph":"E","ts":{t},"pid":{pid},"tid":{tid},"args":{{"job":{job}}}}}"#,
            tid = first_proc + 1,
        ),
        TraceEvent::Pass {
            t,
            pass,
            started,
            rebuilt,
            elided,
        } => format!(
            r#"{{"name":"pass","ph":"i","ts":{t},"pid":{pid},"tid":0,"s":"t","args":{{"pass":{pass},"started":{started},"rebuilt":{rb},"elided":{el}}}}}"#,
            rb = b(*rebuilt),
            el = b(*elided),
        ),
        TraceEvent::CapVeto { t, job, site } => format!(
            r#"{{"name":"cap veto","ph":"i","ts":{t},"pid":{pid},"tid":0,"s":"t","args":{{"job":{job},"site":"{site}"}}}}"#,
            site = site.label(),
        ),
        TraceEvent::PowerRetry { t } => format!(
            r#"{{"name":"power retry","ph":"i","ts":{t},"pid":{pid},"tid":0,"s":"t","args":{{}}}}"#
        ),
        TraceEvent::SleepTransition {
            t,
            sleeps,
            wakes,
            sleeping,
        } => format!(
            r#"{{"name":"sleep","ph":"i","ts":{t},"pid":{pid},"tid":0,"s":"t","args":{{"sleeps":{sleeps},"wakes":{wakes},"sleeping":{sleeping}}}}}"#
        ),
        TraceEvent::Boost { t, job, gear } => format!(
            r#"{{"name":"boost","ph":"i","ts":{t},"pid":{pid},"tid":0,"s":"t","args":{{"job":{job},"gear":{gear}}}}}"#
        ),
        TraceEvent::BoostVeto { t, job } => format!(
            r#"{{"name":"boost veto","ph":"i","ts":{t},"pid":{pid},"tid":0,"s":"t","args":{{"job":{job}}}}}"#
        ),
    }
}

/// Renders a full Chrome-trace file: one process per `(name, events)`
/// cell, in slice order (`pid` = index). The output is a valid JSON array
/// with exactly one event object per line — byte-identical for identical
/// event lists, diffable line-by-line.
pub fn render_chrome_trace(cells: &[(String, Vec<TraceEvent>)]) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (pid, (name, events)) in cells.iter().enumerate() {
        lines.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
            esc(name)
        ));
        lines.extend(events.iter().map(|ev| render_event(pid, ev)));
    }
    let mut out = String::from("[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// Writes [`render_chrome_trace`] to `path`.
pub fn write_chrome_trace(
    path: &std::path::Path,
    cells: &[(String, Vec<TraceEvent>)],
) -> std::io::Result<()> {
    std::fs::write(path, render_chrome_trace(cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::JobArrive { t: 0, job: 1 },
            TraceEvent::Pass {
                t: 0,
                pass: 1,
                started: 1,
                rebuilt: true,
                elided: false,
            },
            TraceEvent::JobStart {
                t: 0,
                job: 1,
                gear: 0,
                cpus: 4,
                first_proc: 0,
                backfilled: false,
            },
            TraceEvent::CapVeto {
                t: 1_000_000,
                job: 2,
                site: VetoSite::Backfill,
            },
            TraceEvent::JobFinish {
                t: 2_000_000,
                job: 1,
                first_proc: 0,
            },
        ]
    }

    #[test]
    fn buffer_sink_preserves_emission_order() {
        let sink = BufferSink::shared();
        for ev in sample() {
            sink.record(ev);
        }
        assert_eq!(sink.len(), 5);
        assert_eq!(sink.take(), sample());
        assert!(sink.is_empty(), "take drains");
    }

    #[test]
    fn rendering_is_deterministic_and_one_event_per_line() {
        let cells = vec![("cell-a".to_string(), sample())];
        let a = render_chrome_trace(&cells);
        let b = render_chrome_trace(&cells);
        assert_eq!(a, b);
        // array brackets + 1 metadata + 5 events
        assert_eq!(a.lines().count(), 2 + 1 + 5);
        assert!(a.starts_with("[\n") && a.ends_with("\n]\n"));
    }

    #[test]
    fn job_slices_balance_and_escape_is_sound() {
        let cells = vec![("a \"quoted\"\nname".to_string(), sample())];
        let text = render_chrome_trace(&cells);
        assert_eq!(
            text.matches(r#""ph":"B""#).count(),
            text.matches(r#""ph":"E""#).count(),
            "every begin slice has an end"
        );
        assert!(text.contains(r#"a \"quoted\"\nname"#));
        assert!(!text.contains('\u{0}'));
    }

    #[test]
    fn timestamps_are_accessible() {
        assert_eq!(TraceEvent::PowerRetry { t: 42 }.t(), 42);
        for ev in sample() {
            let _ = ev.t();
        }
    }
}
