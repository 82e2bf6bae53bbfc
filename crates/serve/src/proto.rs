//! The daemon's wire protocol: line-delimited JSON requests and replies.
//!
//! One request per line, one reply line per request, over a Unix-domain
//! stream socket. Requests are JSON objects selected by `"op"`:
//!
//! * `{"op":"run","scn":"<scenario file text>","overrides":{…}}` —
//!   parse, expand and run a scenario sweep against the daemon's warm
//!   caches; `overrides` nudges single knobs without editing the text;
//! * `{"op":"status"}` — counters: requests, runs, cache hit rates,
//!   uptime;
//! * `{"op":"metrics"}` — the profiling plane: the `status` counters
//!   plus per-op latency histogram summaries (microseconds) and the
//!   in-flight request gauge;
//! * `{"op":"cache"}` — list resident result cells (`"clear":true`
//!   empties both caches; `"swf":"/path/trace.swf"` pins a parsed and
//!   cleaned trace into the workload cache ahead of the queries that
//!   will replay it);
//! * `{"op":"shutdown"}` — drain in-flight connections and exit.
//!
//! Every reply carries `"ok"`; failures are structured
//! `{"ok":false,"error":"…"}` lines — a malformed or torn request can
//! never take the daemon down. A request line longer than
//! [`crate::daemon::MAX_REQUEST_BYTES`] gets such a reply and then its
//! connection is closed.

use bsld_core::scenario::{PolicySpec, PowerModelSpec, ProfileName, ScenarioSet, WorkloadSpec};
use bsld_core::WqThreshold;
use bsld_metrics::Json;

/// Protocol revision, reported by the `status` op.
pub const PROTOCOL_VERSION: u64 = 1;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a scenario sweep (the text of a `.scn` file) with optional
    /// knob overrides.
    Run {
        /// The scenario file text (not a path: clients ship the bytes, so
        /// daemon and client need no shared filesystem view).
        scn: String,
        /// Single-knob tweaks applied to the parsed spec.
        overrides: Overrides,
    },
    /// Report daemon counters.
    Status,
    /// Report the profiling plane: counters plus per-op latency
    /// histograms and queue depth.
    Metrics,
    /// List (or, with `clear`, empty) the caches.
    Cache {
        /// Empty both caches instead of listing them.
        clear: bool,
    },
    /// Pin an SWF trace into the workload cache: parse and clean it now
    /// (streaming) so later `run` requests over the same file start warm.
    CachePin {
        /// Daemon-side path of the `.swf` file.
        swf: String,
    },
    /// Drain and exit.
    Shutdown,
}

/// What-if knob overrides: each maps onto the same semantics as its
/// sweep-axis or CLI-flag counterpart, including the sweep's name
/// suffixes (`-th2`, `-cap0.7`, …) so reply tables stay self-describing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Overrides {
    /// `sweep.bsld_th` counterpart: policy threshold.
    pub bsld_th: Option<f64>,
    /// `sweep.wq` counterpart: wait-queue threshold (`"no"` or a count).
    pub wq: Option<WqThreshold>,
    /// `sweep.cap` counterpart; `Some(None)` (from `"none"`) clears it.
    pub cap: Option<Option<f64>>,
    /// `sweep.model` counterpart: power-model selection.
    pub model: Option<PowerModelSpec>,
    /// `--jobs` counterpart (synthetic workloads only).
    pub jobs: Option<usize>,
    /// `sweep.seed` counterpart (synthetic workloads only).
    pub seed: Option<u64>,
    /// `sweep.profile` counterpart (synthetic workloads only).
    pub profile: Option<ProfileName>,
    /// `sweep.enlarge_pct` counterpart: enlarged-system study.
    pub enlarge_pct: Option<u32>,
    /// Per-request wall-clock budget, seconds; overrides the file's
    /// `cell_budget_s` and the daemon's default.
    pub budget_s: Option<f64>,
}

impl Request {
    /// Parses one request line. Every failure is a client-visible
    /// message, never a panic.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"op\" field")?;
        match op {
            "run" => {
                let scn = v
                    .get("scn")
                    .and_then(Json::as_str)
                    .ok_or("\"run\" needs \"scn\": the scenario file text")?
                    .to_string();
                let overrides = match v.get("overrides") {
                    None | Some(Json::Null) => Overrides::default(),
                    Some(o) => Overrides::from_json(o)?,
                };
                Ok(Request::Run { scn, overrides })
            }
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "cache" => {
                let clear = v.get("clear").and_then(Json::as_bool).unwrap_or(false);
                match v.get("swf") {
                    None | Some(Json::Null) => Ok(Request::Cache { clear }),
                    Some(_) if clear => {
                        Err("\"cache\" takes either \"swf\" or \"clear\", not both".to_string())
                    }
                    Some(p) => {
                        let swf = p
                            .as_str()
                            .ok_or("\"cache\" field \"swf\" must be a path string")?
                            .to_string();
                        Ok(Request::CachePin { swf })
                    }
                }
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op {other:?} (expected run, status, metrics, cache or shutdown)"
            )),
        }
    }

    /// The op label of this request — the key the daemon's per-op latency
    /// histograms are indexed by (cache pins share the `cache` label).
    pub fn op_label(&self) -> &'static str {
        match self {
            Request::Run { .. } => "run",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::Cache { .. } | Request::CachePin { .. } => "cache",
            Request::Shutdown => "shutdown",
        }
    }
}

impl Overrides {
    /// Parses the `"overrides"` object, rejecting unknown keys so a typo
    /// cannot silently run the un-overridden scenario.
    pub fn from_json(v: &Json) -> Result<Overrides, String> {
        let Json::Obj(pairs) = v else {
            return Err("\"overrides\" must be an object".to_string());
        };
        let mut ov = Overrides::default();
        for (key, val) in pairs {
            match key.as_str() {
                "bsld_th" => {
                    ov.bsld_th = Some(val.as_f64().ok_or("override bsld_th must be a number")?);
                }
                "wq" => {
                    let text = match val {
                        Json::Str(s) => s.clone(),
                        Json::Num(_) => {
                            let n = val
                                .as_u64()
                                .ok_or("override wq must be \"no\" or a whole number")?;
                            n.to_string()
                        }
                        _ => return Err("override wq must be \"no\" or a whole number".into()),
                    };
                    ov.wq = Some(WqThreshold::parse(&text)?);
                }
                "cap" => {
                    ov.cap = Some(match val {
                        Json::Str(s) if s == "none" => None,
                        Json::Num(x) => Some(*x),
                        _ => return Err("override cap must be a fraction or \"none\"".to_string()),
                    });
                }
                "model" => {
                    let s = val.as_str().ok_or("override model must be a string")?;
                    ov.model = Some(PowerModelSpec::parse(s)?);
                }
                "jobs" => {
                    let n = val.as_u64().ok_or("override jobs must be a whole number")?;
                    ov.jobs = Some(n as usize);
                }
                "seed" => {
                    ov.seed = Some(val.as_u64().ok_or("override seed must be a whole number")?);
                }
                "profile" => {
                    let s = val.as_str().ok_or("override profile must be a string")?;
                    ov.profile = Some(ProfileName::parse(s)?);
                }
                "enlarge_pct" => {
                    let n = val
                        .as_u64()
                        .ok_or("override enlarge_pct must be a whole number")?;
                    ov.enlarge_pct =
                        Some(u32::try_from(n).map_err(|_| "override enlarge_pct is out of range")?);
                }
                "budget_s" | "cell_budget_s" => {
                    let b = val.as_f64().ok_or("override budget_s must be a number")?;
                    if !b.is_finite() || b < 0.0 {
                        return Err("override budget_s must be finite and >= 0".to_string());
                    }
                    ov.budget_s = Some(b);
                }
                other => {
                    return Err(format!(
                        "unknown override {other:?} (expected bsld_th, wq, cap, model, jobs, \
                         seed, profile, enlarge_pct or budget_s)"
                    ))
                }
            }
        }
        Ok(ov)
    }

    /// Applies every knob (except the request-level `budget_s`) to a
    /// parsed scenario set, mirroring the corresponding sweep-axis
    /// semantics — including the cell-name suffixes, so the reply table
    /// shows what was actually run.
    pub fn apply(&self, set: &mut ScenarioSet) -> Result<(), String> {
        let sc = &mut set.base;
        if let Some(p) = self.profile {
            match &mut sc.workload {
                WorkloadSpec::Synthetic { profile, .. } => *profile = p,
                WorkloadSpec::Swf { .. } => {
                    return Err("override profile cannot apply to an SWF workload".into())
                }
            }
            sc.name.push('-');
            sc.name.push_str(p.key());
        }
        if let Some(n) = self.jobs {
            match &mut sc.workload {
                WorkloadSpec::Synthetic { jobs, .. } => *jobs = n,
                WorkloadSpec::Swf { .. } => {
                    return Err("override jobs cannot apply to an SWF workload".into())
                }
            }
        }
        if let Some(s) = self.seed {
            match &mut sc.workload {
                WorkloadSpec::Synthetic { seed, .. } => *seed = s,
                WorkloadSpec::Swf { .. } => {
                    return Err("override seed cannot apply to an SWF workload".into())
                }
            }
            sc.name.push_str(&format!("-s{s}"));
        }
        if let Some(th) = self.bsld_th {
            let wq = match sc.policy {
                PolicySpec::BsldThreshold { wq, .. } => wq,
                _ => WqThreshold::NoLimit,
            };
            sc.policy = PolicySpec::BsldThreshold { th, wq };
            sc.name.push_str(&format!("-th{th}"));
        }
        if let Some(wq) = self.wq {
            let th = match sc.policy {
                PolicySpec::BsldThreshold { th, .. } => th,
                _ => 2.0,
            };
            sc.policy = PolicySpec::BsldThreshold { th, wq };
            sc.name.push_str(&format!("-wq{}", wq.label()));
        }
        if let Some(cap) = self.cap {
            sc.power.cap_fraction = cap;
            match cap {
                Some(f) => sc.name.push_str(&format!("-cap{f}")),
                None => sc.name.push_str("-capnone"),
            }
        }
        if let Some(model) = &self.model {
            sc.power.model = Some(model.clone());
            sc.name.push_str(&format!("-m{}", model.label()));
        }
        if let Some(pct) = self.enlarge_pct {
            sc.cluster.enlarge_pct = pct;
            sc.name.push_str(&format!("-x{pct}"));
        }
        Ok(())
    }
}

/// The uniform failure reply.
pub fn error_reply(msg: &str) -> Json {
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::str(msg))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            Request::parse("{\"op\":\"status\"}").unwrap(),
            Request::Status
        );
        assert_eq!(
            Request::parse("{\"op\":\"cache\"}").unwrap(),
            Request::Cache { clear: false }
        );
        assert_eq!(
            Request::parse("{\"op\":\"cache\",\"clear\":true}").unwrap(),
            Request::Cache { clear: true }
        );
        assert_eq!(
            Request::parse("{\"op\":\"cache\",\"swf\":\"/tmp/t.swf\"}").unwrap(),
            Request::CachePin {
                swf: "/tmp/t.swf".to_string()
            }
        );
        assert_eq!(
            Request::parse("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        let run = Request::parse(
            "{\"op\":\"run\",\"scn\":\"scenario = x\",\"overrides\":{\"bsld_th\":1.5,\"wq\":\"no\"}}",
        )
        .unwrap();
        match run {
            Request::Run { scn, overrides } => {
                assert_eq!(scn, "scenario = x");
                assert_eq!(overrides.bsld_th, Some(1.5));
                assert_eq!(overrides.wq, Some(WqThreshold::NoLimit));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for bad in [
            "",
            "{",
            "[]",
            "{\"op\":42}",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"run\"}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"bogus\":1}}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"budget_s\":-1}}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"cap\":\"half\"}}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"wq\":1.5}}",
            "{\"op\":\"cache\",\"swf\":42}",
            "{\"op\":\"cache\",\"swf\":\"/tmp/t.swf\",\"clear\":true}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn overrides_apply_with_sweep_name_suffixes() {
        let text = "scenario = base\nworkload = synthetic\nprofile = ctc\njobs = 50\nseed = 7\n";
        let mut set = ScenarioSet::parse(text).unwrap();
        let ov = Overrides::from_json(
            &Json::parse("{\"bsld_th\":1.5,\"cap\":0.7,\"seed\":9,\"enlarge_pct\":20}").unwrap(),
        )
        .unwrap();
        ov.apply(&mut set).unwrap();
        assert_eq!(set.base.name, "base-s9-th1.5-cap0.7-x20");
        assert_eq!(set.base.power.cap_fraction, Some(0.7));
        assert_eq!(set.base.cluster.enlarge_pct, 20);
        match set.base.policy {
            PolicySpec::BsldThreshold { th, wq } => {
                assert_eq!(th, 1.5);
                assert_eq!(wq, WqThreshold::NoLimit);
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synthetic_only_overrides_reject_swf_workloads() {
        let text = "scenario = replay\nworkload = swf\nswf_path = /tmp/x.swf\n";
        let mut set = ScenarioSet::parse(text).unwrap();
        for ov_json in ["{\"jobs\":10}", "{\"seed\":1}", "{\"profile\":\"ctc\"}"] {
            let ov = Overrides::from_json(&Json::parse(ov_json).unwrap()).unwrap();
            let err = ov.apply(&mut set).unwrap_err();
            assert!(err.contains("SWF"), "{ov_json}: {err}");
        }
    }

    #[test]
    fn cap_none_clears_the_cap() {
        let text = "scenario = capped\nworkload = synthetic\nprofile = ctc\njobs = 10\nseed = 1\ncap = 0.8\n";
        let mut set = ScenarioSet::parse(text).unwrap();
        assert_eq!(set.base.power.cap_fraction, Some(0.8));
        let ov = Overrides::from_json(&Json::parse("{\"cap\":\"none\"}").unwrap()).unwrap();
        ov.apply(&mut set).unwrap();
        assert_eq!(set.base.power.cap_fraction, None);
        assert!(set.base.name.ends_with("-capnone"));
    }
}
