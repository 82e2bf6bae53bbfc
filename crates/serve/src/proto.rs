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

use bsld_core::scenario::{PowerModelSpec, ProfileName, Scenario, ScenarioSet};
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

/// What-if knob overrides. Each sets the scenario key it is named after
/// (`budget_s` sets `cell_budget_s`) through the same key table as a `.scn`
/// file: the same validation, and the same cell-name suffix as a sweep
/// (`-th2`, `-cap0.7`, …) so reply tables stay self-describing.
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

/// An [`Overrides`] field against the scenario key it sets.
pub(crate) struct Field {
    /// The field's name, which is also its name on the wire.
    pub(crate) name: &'static str,
    /// The scenario key it sets (also accepted on the wire).
    key: &'static str,
    /// The field's value as `.scn` text (`None` when unset).
    pub(crate) text: fn(&Overrides) -> Option<String>,
    /// Sets the field from `.scn` text the key table has accepted.
    decode: fn(&mut Overrides, &str),
}

/// Every field, in the order [`Overrides::apply`] sets them.
pub(crate) const FIELDS: [Field; 9] = [
    Field {
        name: "profile",
        key: "profile",
        text: |o| o.profile.map(|p| p.key().to_string()),
        decode: |o, v| o.profile = ProfileName::parse(v).ok(),
    },
    Field {
        name: "jobs",
        key: "jobs",
        text: |o| o.jobs.map(|n| n.to_string()),
        decode: |o, v| o.jobs = v.parse().ok(),
    },
    Field {
        name: "seed",
        key: "seed",
        text: |o| o.seed.map(|s| s.to_string()),
        decode: |o, v| o.seed = v.parse().ok(),
    },
    Field {
        name: "bsld_th",
        key: "bsld_th",
        text: |o| o.bsld_th.map(|th| th.to_string()),
        decode: |o, v| o.bsld_th = v.parse().ok(),
    },
    Field {
        name: "wq",
        key: "wq",
        text: |o| o.wq.map(|wq| wq.label()),
        decode: |o, v| o.wq = WqThreshold::parse(v).ok(),
    },
    Field {
        name: "cap",
        key: "cap",
        text: |o| {
            o.cap
                .map(|c| c.map_or("none".to_string(), |f| f.to_string()))
        },
        decode: |o, v| o.cap = Some(v.parse().ok()),
    },
    Field {
        name: "model",
        key: "model",
        text: |o| o.model.as_ref().map(PowerModelSpec::render),
        decode: |o, v| o.model = PowerModelSpec::parse(v).ok(),
    },
    Field {
        name: "enlarge_pct",
        key: "enlarge_pct",
        text: |o| o.enlarge_pct.map(|pct| pct.to_string()),
        decode: |o, v| o.enlarge_pct = v.parse().ok(),
    },
    Field {
        name: "budget_s",
        key: "cell_budget_s",
        text: |o| o.budget_s.map(|b| b.to_string()),
        decode: |o, v| o.budget_s = v.parse().ok(),
    },
];

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
    /// cannot silently run the un-overridden scenario. A value is a string
    /// or a number holding `.scn` value text, and is validated by the
    /// scenario key table as a file's value is.
    pub fn from_json(v: &Json) -> Result<Overrides, String> {
        let Json::Obj(pairs) = v else {
            return Err("\"overrides\" must be an object".to_string());
        };
        let mut ov = Overrides::default();
        let mut check = ScenarioSet::single(Scenario::synthetic("", ProfileName::Ctc, 0, 0));
        for (name, val) in pairs {
            let field = FIELDS
                .iter()
                .find(|f| f.name == name || f.key == name)
                .ok_or_else(|| {
                    let names: Vec<&str> = FIELDS.iter().map(|f| f.name).collect();
                    format!("unknown override {name:?} (expected {})", names.join(", "))
                })?;
            let text = match val {
                Json::Str(s) => s.clone(),
                Json::Num(x) => x.to_string(),
                _ => return Err(format!("override {name} must be a string or a number")),
            };
            check.set_override(field.key, &text)?;
            (field.decode)(&mut ov, &text);
            if (field.text)(&ov).is_none() {
                return Err(format!("override {name} cannot be {text:?}"));
            }
        }
        Ok(ov)
    }

    /// Applies every override to a parsed scenario set, before its sweep
    /// axes: each sets its key as a `.scn` line would and appends the
    /// key's cell-name suffix, so the reply table shows what was actually
    /// run; `budget_s` replaces the set's `cell_budget_s`.
    pub fn apply(&self, set: &mut ScenarioSet) -> Result<(), String> {
        for field in &FIELDS {
            if let Some(text) = (field.text)(self) {
                set.set_override(field.key, &text)?;
            }
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
    use bsld_core::scenario::PolicySpec;

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
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"cap\":0}}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"cap\":-0.5}}",
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
