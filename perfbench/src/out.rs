//! The result line every run ends with, the two metric sets it can
//! carry, and the process facts they need.
//!
//! Every workload prints the same metrics: all of [`EndToEnd`] in an
//! untraced run, all of [`Layers`] in a traced one. A layer a workload
//! never calls reads 0 there; the only per-layer times in seconds are of
//! layers every workload calls, and the others appear as counts and as
//! shares of a time.

use std::fmt::Write as _;

use crate::cell::LayerSums;
use crate::stats::median;

/// One run's result: requests attempted and failed, plus named metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests issued (a replay leg, a grid pass, a serve rotation, the
    /// serve shutdown).
    pub attempted: u64,
    /// Requests whose output check failed.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one request and whether its output checked out.
    pub fn request(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks `n` more requests failed (never more than were attempted).
    pub fn fail(&mut self, n: u64) {
        self.failed = self.attempted.min(self.failed + n);
    }

    /// Records the metrics of an untraced run.
    pub fn end_to_end(&mut self, e: &EndToEnd) {
        self.metrics.extend(e.metrics());
    }

    /// Records the metrics of a traced run.
    pub fn layers(&mut self, l: &Layers) {
        self.metrics.extend(l.metrics());
    }

    /// The single JSON line the benchmark prints last. A run is correct
    /// when no request failed and every metric is a finite number.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && finite && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values are not JSON; they already made the run
            // incorrect, so print them as null.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end metrics, with tracing off.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    /// Median nominal-host latency of one request.
    pub request_ms: f64,
    /// Median nominal-host time of one set-up.
    pub setup_s: f64,
    /// High-water resident set of the process that ran the workload.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// Name, value and unit of each metric.
    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 3] {
        [
            ("request_ms", self.request_ms, "ms"),
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mib", self.peak_rss_mib, "MiB"),
        ]
    }
}

/// The per-layer metrics of a traced run: times are medians per
/// request, counts are means per request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// Building the workload a request runs on: the streaming trace load
    /// (replay), synthetic generation (grid, serve).
    pub workload_build_s: f64,
    /// `Scenario::simulator`.
    pub scenario_build_s: f64,
    /// `simulate` / `simulate_with_hook` net of policy and hook calls.
    pub sched_self_s: f64,
    /// Policy calls net of the probes inside them.
    pub policy_self_s: f64,
    /// The `fits` / `find_start` probes.
    pub fit_probe_s: f64,
    /// `RunMetrics::compute`.
    pub metrics_compute_s: f64,
    /// `sweep_report` or the figure renderers.
    pub render_s: f64,
    /// Scheduling passes run.
    pub passes: f64,
    /// Scheduling passes elided.
    pub passes_skipped: f64,
    /// Availability-profile rebuilds.
    pub profile_rebuilds: f64,
    /// Policy calls.
    pub policy_calls: f64,
    /// `fits` + `find_start` probes.
    pub fit_probes: f64,
    /// `fits` probes answering true ÷ `fits` probes.
    pub fit_ratio: f64,
    /// SWF records read.
    pub swf_records: f64,
    /// SWF records kept by cleaning.
    pub swf_kept: f64,
    /// The fused SWF parse + clean's share of `workload_build_s`.
    pub swf_load_share: f64,
    /// Power-hook calls.
    pub powercap_calls: f64,
    /// Power-ledger steps.
    pub powercap_ledger_steps: f64,
    /// Hook and power-report time's share of the cell's layer time.
    pub powercap_share: f64,
    /// The daemon's result-cache hits ÷ lookups.
    pub serve_result_hit_ratio: f64,
    /// The daemon's workload-cache hits ÷ lookups.
    pub serve_workload_hit_ratio: f64,
    /// Result-cache evictions over the run.
    pub serve_result_evictions: f64,
    /// Workload-cache evictions over the run.
    pub serve_workload_evictions: f64,
    /// Client time outside `ServerState::run_query` ÷ client time.
    pub serve_transport_share: f64,
    /// `exact` queries' share of a rotation's client time.
    pub serve_exact_share: f64,
    /// Spec parsing's share of the in-process query time.
    pub parse_share: f64,
    /// Traced ÷ untraced time of the same work.
    pub obs_overhead: f64,
}

impl Layers {
    /// The cell layers of a run's traced requests, one [`LayerSums`] per
    /// request: times as medians, counts as means.
    pub fn of_cells(requests: &[LayerSums]) -> Result<Layers, String> {
        let n = requests.len() as f64;
        let med = |f: fn(&LayerSums) -> f64| {
            median(&requests.iter().map(f).collect::<Vec<_>>()).ok_or("no traced request ran")
        };
        let mean = |f: fn(&LayerSums) -> u64| requests.iter().map(f).sum::<u64>() as f64 / n;
        let fits: u64 = requests.iter().map(|r| r.counts.fits).sum();
        let fits_true: u64 = requests.iter().map(|r| r.counts.fits_true).sum();
        Ok(Layers {
            scenario_build_s: med(|r| r.build_s)?,
            sched_self_s: med(|r| r.sched_self_s)?,
            policy_self_s: med(|r| r.policy_self_s)?,
            fit_probe_s: med(|r| r.probe_s)?,
            metrics_compute_s: med(|r| r.metrics_s)?,
            passes: mean(|r| r.counts.passes),
            passes_skipped: mean(|r| r.counts.passes_skipped),
            profile_rebuilds: mean(|r| r.counts.profile_rebuilds),
            policy_calls: mean(|r| r.counts.calls),
            fit_probes: mean(|r| r.counts.probes),
            fit_ratio: fits_true as f64 / fits.max(1) as f64,
            powercap_calls: mean(|r| r.counts.hook_calls),
            powercap_ledger_steps: mean(|r| r.counts.ledger_steps),
            powercap_share: med(|r| {
                share(
                    r.hook_s + r.report_s,
                    r.build_s + r.sim_s + r.metrics_s + r.report_s,
                )
            })?,
            ..Layers::default()
        })
    }

    /// Name, value and unit of each metric.
    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 27] {
        [
            ("workload.build_s", self.workload_build_s, "s"),
            ("core.scenario.build_s", self.scenario_build_s, "s"),
            ("sched.self_s", self.sched_self_s, "s"),
            ("core.policy.self_s", self.policy_self_s, "s"),
            ("cluster.fit_probe_s", self.fit_probe_s, "s"),
            ("metrics.compute_s", self.metrics_compute_s, "s"),
            ("core.report.render_s", self.render_s, "s"),
            ("sched.passes", self.passes, "count"),
            ("sched.passes_skipped", self.passes_skipped, "count"),
            ("sched.profile_rebuilds", self.profile_rebuilds, "count"),
            ("core.policy.calls", self.policy_calls, "count"),
            ("cluster.fit_probes", self.fit_probes, "count"),
            ("cluster.fit_ratio", self.fit_ratio, "ratio"),
            ("swf.records", self.swf_records, "count"),
            ("swf.kept", self.swf_kept, "count"),
            ("swf.load_share", self.swf_load_share, "ratio"),
            ("powercap.calls", self.powercap_calls, "count"),
            ("powercap.ledger_steps", self.powercap_ledger_steps, "count"),
            ("powercap.share", self.powercap_share, "ratio"),
            (
                "serve.result_hit_ratio",
                self.serve_result_hit_ratio,
                "ratio",
            ),
            (
                "serve.workload_hit_ratio",
                self.serve_workload_hit_ratio,
                "ratio",
            ),
            (
                "serve.result_evictions",
                self.serve_result_evictions,
                "count",
            ),
            (
                "serve.workload_evictions",
                self.serve_workload_evictions,
                "count",
            ),
            ("serve.transport_share", self.serve_transport_share, "ratio"),
            ("serve.exact_share", self.serve_exact_share, "ratio"),
            ("core.scenario.parse_share", self.parse_share, "ratio"),
            ("obs.overhead", self.obs_overhead, "ratio"),
        ]
    }
}

/// `part ÷ whole`, and 0 when there is no whole to share.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// High-water resident set of process `pid` (`None` = this process), in
/// MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Counts;

    #[test]
    fn json_line_carries_counts_and_units() {
        let mut r = Report::default();
        r.request(true);
        r.request(false);
        r.end_to_end(&EndToEnd {
            request_ms: 1.5,
            setup_s: 0.25,
            peak_rss_mib: 40.0,
        });
        let line = r.to_json();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"request_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mib\": {\"value\": 40.0, \"unit\": \"MiB\"}}}"
        );
    }

    #[test]
    fn failures_never_exceed_attempts() {
        let mut r = Report::default();
        r.request(true);
        r.fail(5);
        assert_eq!((r.attempted, r.failed), (1, 1));
    }

    #[test]
    fn cell_layers_take_medians_and_means() {
        let a = LayerSums {
            sched_self_s: 1.0,
            counts: Counts {
                passes: 3,
                fits: 4,
                fits_true: 1,
                ..Counts::default()
            },
            ..LayerSums::default()
        };
        let mut b = a;
        b.sched_self_s = 3.0;
        b.counts.passes = 4;
        let l = Layers::of_cells(&[a, b]).unwrap();
        assert_eq!(l.sched_self_s, 2.0);
        assert_eq!(l.passes, 3.5);
        assert_eq!(l.fit_ratio, 0.25);
        assert_eq!(l.powercap_share, 0.0);
        assert!(Layers::of_cells(&[]).is_err());
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mib(None).unwrap() > 0.0);
    }
}
