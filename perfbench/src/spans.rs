//! The traced run's record: coarse spans kept one by one, hot calls kept
//! as per-(layer, leg) totals, all written out when the run ends.

use std::fmt::Write as _;
use std::path::Path;

use bsld_obs::Stopwatch;

use crate::cell::LayerSums;

/// One coarse span: a set-up phase, a request, a leg or a layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.scenario.build`.
    pub name: String,
    /// Seconds since the run started.
    pub start_s: f64,
    /// Seconds since the run started (`start_s` while still open).
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span belongs to (`None` for set-up).
    pub request: Option<u64>,
    /// Summed duration of the direct children.
    children_s: f64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The span minus its children.
    pub fn self_s(&self) -> f64 {
        self.duration_s() - self.children_s
    }
}

/// Layer totals of one leg (or grid pass) in one request.
#[derive(Debug, Clone)]
struct Totals {
    leg: String,
    request: Option<u64>,
    sums: LayerSums,
}

/// Spans and layer totals of one traced run.
#[derive(Debug)]
pub struct Trace {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    totals: Vec<Totals>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            totals: Vec::new(),
        }
    }
}

impl Trace {
    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>, request: Option<u64>) -> usize {
        let now = self.clock.elapsed_s();
        self.spans.push(Span {
            name: name.into(),
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            request,
            children_s: 0.0,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (the innermost open one) and returns it.
    pub fn exit(&mut self, id: usize) -> &Span {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_s = self.clock.elapsed_s();
        let d = self.spans[id].duration_s();
        if let Some(p) = self.spans[id].parent {
            self.spans[p].children_s += d;
        }
        &self.spans[id]
    }

    /// Runs `f` inside a span; returns its result and the span's duration.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        request: Option<u64>,
        f: impl FnOnce(&mut Trace) -> T,
    ) -> (T, f64) {
        let id = self.enter(name, request);
        let out = f(self);
        let d = self.exit(id).duration_s();
        (out, d)
    }

    /// Keeps the layer totals of `leg` in `request`.
    pub fn record(&mut self, leg: &str, request: Option<u64>, sums: LayerSums) {
        self.totals.push(Totals {
            leg: leg.to_string(),
            request,
            sums,
        });
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The whole record as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \
                 \"self_s\": {:?}, \"parent\": {}, \"request\": {}}}",
                if i > 0 { ",\n" } else { "" },
                s.name,
                s.start_s,
                s.end_s,
                s.self_s(),
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
        }
        out.push_str("\n], \"totals\": [\n");
        let mut first = true;
        for t in &self.totals {
            for (layer, count, total_s, self_s) in t.sums.rows() {
                let _ = write!(
                    out,
                    "{}{{\"leg\": \"{}\", \"request\": {}, \"layer\": \"{layer}\", \
                     \"count\": {count}, \"total_s\": {total_s:?}, \"self_s\": {self_s:?}}}",
                    if first { "" } else { ",\n" },
                    t.leg,
                    opt(t.request)
                );
                first = false;
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the record to `dir/<workload>-seed<seed>.trace.json`.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) -> Result<(), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
        std::fs::write(&path, self.to_json(workload, seed))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Trace::default();
        let outer = t.enter("outer", Some(0));
        let ((), inner) = t.time("inner", Some(0), |_| {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        let s = t.exit(outer).clone();
        assert!(s.duration_s() >= inner);
        assert!((s.self_s() - (s.duration_s() - inner)).abs() < 1e-12);
        assert_eq!(t.spans()[1].parent, Some(0));
        let json = t.to_json("w", 1);
        assert!(json.contains("\"name\": \"inner\""));
    }
}
