//! The daemon's warm state: resident workloads, cached cell results, and
//! the query-execution path that consults both.
//!
//! Everything here is clock-free — wall time enters only through
//! [`bsld_par::run_budgeted`] (whose clock drives the abort watchdog, not
//! any result value) and the daemon's uptime counter (in `daemon.rs`).
//! Replies are therefore a pure function of the query stream: the same
//! `run` request always yields bytes identical to a one-shot
//! `bsld-repro run` of the same scenario file.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bsld_core::campaign::fnv1a_64;
use bsld_core::scenario::{OutputSpec, Scenario, ScenarioError, ScenarioSet, WorkloadSpec};
use bsld_core::{sweep_report, CellId, CellOutcome};
use bsld_metrics::Json;
use bsld_par::AbortFlag;
use bsld_sched::SimError;
use bsld_workload::Workload;

use crate::cache::Lru;
use crate::daemon::MAX_SWEEP_CELLS;
use crate::proto::Overrides;

/// Sizing and defaults for a [`ServerState`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateConfig {
    /// Worker threads per `run` request (the sweep's `par_map` width).
    pub threads: usize,
    /// Result-cache capacity, in cells.
    pub result_capacity: usize,
    /// Workload-cache capacity, in distinct workload specs.
    pub workload_capacity: usize,
    /// Wall-clock budget applied to `run` requests that carry neither a
    /// `budget_s` override nor a `cell_budget_s` in the scenario file.
    pub default_budget_s: Option<f64>,
}

impl Default for StateConfig {
    fn default() -> StateConfig {
        StateConfig {
            threads: bsld_par::default_threads(),
            result_capacity: 512,
            workload_capacity: 8,
            default_budget_s: None,
        }
    }
}

/// Counters reported by the `status` op. All monotonic, all relaxed —
/// they are diagnostics, never inputs to scheduling decisions.
#[derive(Debug, Default)]
pub struct Stats {
    /// Requests parsed off sockets (any op, including malformed ones).
    pub requests: AtomicU64,
    /// `run` requests accepted for execution.
    pub runs: AtomicU64,
    /// Scenario cells actually simulated (cache misses).
    pub cells_run: AtomicU64,
    /// Cells answered from the result cache.
    pub result_hits: AtomicU64,
    /// Cells that had to be computed.
    pub result_misses: AtomicU64,
    /// Workload builds answered from the workload cache.
    pub workload_hits: AtomicU64,
    /// Workloads parsed / generated from scratch.
    pub workload_misses: AtomicU64,
    /// Structured error replies sent (parse failures, bad overrides,
    /// budget aborts, …).
    pub errors: AtomicU64,
    /// Result-cache entries displaced by capacity pressure.
    pub result_evictions: bsld_obs::Counter,
    /// Workload-cache entries displaced by capacity pressure.
    pub workload_evictions: bsld_obs::Counter,
}

impl Stats {
    pub(crate) fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// The daemon's wall-clock profiling plane: per-op latency histograms
/// (whole microseconds, power-of-two buckets) and the in-flight request
/// gauge. Provenance only — reported by the `metrics` op, never part of
/// any reply payload a client computes with.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// `run` request latency.
    pub run_us: bsld_obs::Histogram,
    /// `status` request latency.
    pub status_us: bsld_obs::Histogram,
    /// `cache` (list / clear / pin) request latency.
    pub cache_us: bsld_obs::Histogram,
    /// `metrics` request latency.
    pub metrics_us: bsld_obs::Histogram,
    /// Requests currently being dispatched; the peak is the deepest
    /// concurrent queue observed.
    pub in_flight: bsld_obs::Gauge,
}

impl ServeMetrics {
    /// The latency histogram tracked for an op label, if any.
    pub fn histogram(&self, op: &str) -> Option<&bsld_obs::Histogram> {
        match op {
            "run" => Some(&self.run_us),
            "status" => Some(&self.status_us),
            "cache" => Some(&self.cache_us),
            "metrics" => Some(&self.metrics_us),
            _ => None,
        }
    }
}

/// The reply payload of a successful `run` request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReply {
    /// Cells in the expanded sweep.
    pub cells: usize,
    /// How many were answered from the result cache.
    pub cached: usize,
    /// The aligned text table — byte-identical to what `bsld-repro run`
    /// prints for the same scenario file.
    pub table: String,
    /// `scenario_results.csv` contents — byte-identical to the file the
    /// one-shot CLI writes.
    pub csv: String,
    /// Names of failed cells, expansion order.
    pub failures: Vec<String>,
    /// The CLI's failure summary (present iff any cell failed).
    pub failure_summary: Option<String>,
}

impl RunReply {
    /// The reply as a wire-format JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("ok", Json::Bool(true)),
            ("cells", Json::Num(self.cells as f64)),
            ("cached", Json::Num(self.cached as f64)),
            ("table", Json::str(&*self.table)),
            ("csv", Json::str(&*self.csv)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ];
        if let Some(s) = &self.failure_summary {
            pairs.push(("failure_summary", Json::str(&**s)));
        }
        Json::obj(pairs)
    }
}

/// The resident state shared by every connection handler.
///
/// Two warm layers, both bounded deterministic LRUs:
///
/// * **workloads** — parsed/cleaned SWF traces and generated synthetic
///   workloads, keyed by a content hash of the [`WorkloadSpec`]; a sweep
///   over one trace parses it once, and the next query over the same
///   trace parses it zero times;
/// * **results** — finished cell outcomes keyed by [`CellId`] (which
///   already excludes the cell name and output spec), so a repeated
///   what-if is answered without simulating at all. Failures are cached
///   too (same spec → same failure); budget aborts are *not* — a more
///   patient client must be able to retry.
#[derive(Debug)]
pub struct ServerState {
    cfg: StateConfig,
    results: Mutex<Lru<CellId, Result<CellOutcome, String>>>,
    workloads: Mutex<Lru<u64, Arc<Workload>>>,
    /// Query counters, reported by the `status` op.
    pub stats: Stats,
    /// Per-op latency histograms and queue depth, reported by the
    /// `metrics` op.
    pub metrics: ServeMetrics,
}

impl ServerState {
    /// Fresh (cold) state.
    pub fn new(cfg: StateConfig) -> ServerState {
        ServerState {
            results: Mutex::new(Lru::new(cfg.result_capacity)),
            workloads: Mutex::new(Lru::new(cfg.workload_capacity)),
            cfg,
            stats: Stats::default(),
            metrics: ServeMetrics::default(),
        }
    }

    /// The configuration this state was built with.
    pub fn config(&self) -> &StateConfig {
        &self.cfg
    }

    // A panicking simulation is contained by the worker pool's
    // catch_unwind but may leave a cache mutex poisoned; the caches hold
    // plain finished values, so recovering the inner data is always safe.
    fn lock_results(&self) -> MutexGuard<'_, Lru<CellId, Result<CellOutcome, String>>> {
        self.results.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_workloads(&self) -> MutexGuard<'_, Lru<u64, Arc<Workload>>> {
        self.workloads.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Runs one `run` request against the warm caches. The error string
    /// becomes the client's `{"ok":false,"error":…}` reply. A sweep that
    /// names more than [`MAX_SWEEP_CELLS`] cells is refused before it
    /// expands.
    pub fn run_query(&self, scn: &str, ov: &Overrides) -> Result<RunReply, String> {
        let mut set = ScenarioSet::parse(scn).map_err(|e| e.to_string())?;
        ov.apply(&mut set)?;
        if set.replications > 1 {
            return Err(format!(
                "replications = {} is a campaign feature; the daemon serves \
                 single-replication sweeps (use `bsld-repro campaign` for CIs)",
                set.replications
            ));
        }
        // The daemon never writes result files; blanking the output spec
        // also keeps it out of the (already output-blind) CellId.
        set.base.output = OutputSpec::default();
        // A `budget_s` override has replaced the file's `cell_budget_s`.
        let budget = set.cell_budget_s.or(self.cfg.default_budget_s);

        // Counted before `expand` clones a scenario per cell.
        match set.cell_count().map_err(|e| e.to_string())? {
            Some(n) if n <= MAX_SWEEP_CELLS => {}
            n => {
                let n = n.map_or_else(|| format!("more than {}", usize::MAX), |n| n.to_string());
                return Err(format!(
                    "the sweep names {n} cells; the daemon runs at most {MAX_SWEEP_CELLS} \
                     per request (run larger sweeps with `bsld-repro run`)"
                ));
            }
        }
        // Accepted: the spec parsed and fits the cap.
        Stats::bump(&self.stats.runs, 1);
        let cells = set.expand().map_err(|e| e.to_string())?;
        let ids: Vec<CellId> = cells.iter().map(CellId::of).collect();
        let mut outcomes: Vec<Option<Result<CellOutcome, String>>> = {
            let mut cache = self.lock_results();
            ids.iter().map(|id| cache.get(id).cloned()).collect()
        };
        let cached = outcomes.iter().filter(|o| o.is_some()).count();
        let misses: Vec<usize> = (0..cells.len())
            .filter(|&i| outcomes[i].is_none())
            .collect();
        Stats::bump(&self.stats.result_hits, cached as u64);
        Stats::bump(&self.stats.result_misses, misses.len() as u64);

        if !misses.is_empty() {
            let computed = match budget {
                Some(b) if b > 0.0 => {
                    let (res, _exhausted) = bsld_par::run_budgeted(b, |flag| {
                        self.run_cells(&cells, &misses, Some(flag))
                    });
                    res
                }
                Some(_) => {
                    // A zero budget aborts before the first event; keep the
                    // same reply shape without spinning up the watchdog.
                    let flag = AbortFlag::new();
                    flag.raise();
                    self.run_cells(&cells, &misses, Some(&flag))
                }
                None => self.run_cells(&cells, &misses, None),
            };
            let mut aborted = false;
            {
                let mut cache = self.lock_results();
                for (&i, res) in misses.iter().zip(computed) {
                    match res {
                        Err(ScenarioError::Sim(SimError::Aborted)) => aborted = true,
                        res => {
                            let out = res.map_err(|e| e.to_string());
                            if cache.insert(ids[i], out.clone()).is_some() {
                                self.stats.result_evictions.inc();
                            }
                            outcomes[i] = Some(out);
                        }
                    }
                }
            }
            if aborted {
                let b = budget.unwrap_or(0.0);
                return Err(format!(
                    "request exceeded its wall-clock budget of {b} s and was aborted \
                     (cells that finished in time stay cached; retry with a larger \
                     budget_s override to finish the rest)"
                ));
            }
        }

        let rows: Vec<(String, Result<CellOutcome, String>)> = cells
            .iter()
            .zip(outcomes)
            .map(|(sc, out)| {
                (
                    sc.name.clone(),
                    // Every slot is Some here: hits filled it, and the miss
                    // loop either filled it or returned the abort error.
                    out.unwrap_or_else(|| Err("internal: cell left unresolved".into())),
                )
            })
            .collect();
        let report = sweep_report(&rows);
        let failure_summary = report.failure_summary();
        Ok(RunReply {
            cells: rows.len(),
            cached,
            table: report.table,
            csv: report.csv,
            failures: report.failures,
            failure_summary,
        })
    }

    /// Simulates the cache-missing cells (indices into `cells`), building
    /// each distinct workload at most once via the warm workload cache.
    /// Returned in `misses` order.
    fn run_cells(
        &self,
        cells: &[Scenario],
        misses: &[usize],
        abort: Option<&AbortFlag>,
    ) -> Vec<Result<CellOutcome, ScenarioError>> {
        // Build distinct workloads sequentially first: a sweep of N cells
        // over one SWF trace must parse it once, not min(N, threads) times.
        let mut built: BTreeMap<u64, Result<Arc<Workload>, ScenarioError>> = BTreeMap::new();
        for &i in misses {
            let key = workload_key(&cells[i].workload);
            built
                .entry(key)
                .or_insert_with(|| self.workload_for(&cells[i].workload, abort));
        }
        let todo: Vec<&Scenario> = misses.iter().map(|&i| &cells[i]).collect();
        bsld_par::par_map(todo, self.cfg.threads, |sc| {
            let w = match &built[&workload_key(&sc.workload)] {
                Ok(w) => Arc::clone(w),
                Err(e) => return Err(e.clone()),
            };
            Stats::bump(&self.stats.cells_run, 1);
            let mut sim = sc.simulator(&w)?;
            sim.engine.abort = abort.map(AbortFlag::handle);
            sc.run_prepared(&sim, &w.jobs).map(|r| CellOutcome::of(&r))
        })
    }

    /// Fetches (or builds and caches) the workload of one spec.
    fn workload_for(
        &self,
        spec: &WorkloadSpec,
        abort: Option<&AbortFlag>,
    ) -> Result<Arc<Workload>, ScenarioError> {
        let key = workload_key(spec);
        if let Some(w) = self.lock_workloads().get(&key) {
            Stats::bump(&self.stats.workload_hits, 1);
            return Ok(Arc::clone(w));
        }
        Stats::bump(&self.stats.workload_misses, 1);
        // Built outside the lock: an SWF parse can take seconds and must
        // not stall a concurrent query that only needs cached state. Two
        // clients racing on the same cold trace may both build it; the
        // results are identical and the second insert is a refresh.
        let w = Arc::new(spec.build_with_abort(abort.map(AbortFlag::as_atomic))?);
        if self.lock_workloads().insert(key, Arc::clone(&w)).is_some() {
            self.stats.workload_evictions.inc();
        }
        Ok(w)
    }

    /// Resident result cells (key order) with their workload-cache size,
    /// for the `cache` op.
    pub fn cache_listing(&self) -> Json {
        let results = self.lock_results();
        let ids: Vec<Json> = results
            .iter()
            .map(|(id, out)| {
                Json::obj(vec![
                    ("cell", Json::str(id.to_string())),
                    ("ok", Json::Bool(out.is_ok())),
                ])
            })
            .collect();
        let workloads = self.lock_workloads();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("results", Json::Num(results.len() as f64)),
            ("result_capacity", Json::Num(results.capacity() as f64)),
            ("workloads", Json::Num(workloads.len() as f64)),
            ("workload_capacity", Json::Num(workloads.capacity() as f64)),
            ("cells", Json::Arr(ids)),
        ])
    }

    /// Pins an SWF trace into the workload cache: parses and cleans it
    /// through the streaming path right now, keyed by path *and* content
    /// hash, so subsequent `run` requests over the same file start warm.
    /// The error string becomes the client's `{"ok":false,…}` reply.
    pub fn pin_swf(&self, path: &str) -> Result<Json, String> {
        let spec = WorkloadSpec::Swf {
            path: std::path::PathBuf::from(path),
            clean: true,
        };
        let key = workload_key(&spec);
        let content_hash = file_fnv(std::path::Path::new(path));
        Stats::bump(&self.stats.workload_misses, 1);
        let w = Arc::new(spec.build_with_abort(None).map_err(|e| e.to_string())?);
        let evicted = self.lock_workloads().insert(key, Arc::clone(&w)).is_some();
        if evicted {
            self.stats.workload_evictions.inc();
        }
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("pinned", Json::str(path)),
            ("jobs", Json::Num(w.jobs.len() as f64)),
            ("cpus", Json::Num(w.cpus as f64)),
            (
                "content_hash",
                Json::str(match content_hash {
                    Some(h) => format!("{h:016x}"),
                    None => "unreadable".to_string(),
                }),
            ),
            ("evicted", Json::Bool(evicted)),
        ]))
    }

    /// Empties both caches, returning how many entries were dropped.
    pub fn clear_caches(&self) -> (usize, usize) {
        let r = self.lock_results().clear();
        let w = self.lock_workloads().clear();
        (r, w)
    }

    /// The `status` counters as JSON pairs (the daemon adds uptime and
    /// pool facts on top).
    pub fn stats_pairs(&self) -> Vec<(&'static str, Json)> {
        let c = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
        vec![
            ("requests", c(&self.stats.requests)),
            ("runs", c(&self.stats.runs)),
            ("cells_run", c(&self.stats.cells_run)),
            ("result_hits", c(&self.stats.result_hits)),
            ("result_misses", c(&self.stats.result_misses)),
            ("workload_hits", c(&self.stats.workload_hits)),
            ("workload_misses", c(&self.stats.workload_misses)),
            (
                "result_evictions",
                Json::Num(self.stats.result_evictions.get() as f64),
            ),
            (
                "workload_evictions",
                Json::Num(self.stats.workload_evictions.get() as f64),
            ),
            ("errors", c(&self.stats.errors)),
        ]
    }

    /// The `metrics` reply: the `status` counters plus the profiling
    /// plane — per-op latency histogram summaries (microseconds) and the
    /// in-flight request gauge.
    pub fn metrics_json(&self) -> Json {
        let h = |hist: &bsld_obs::Histogram| {
            let s = hist.summary();
            Json::obj(vec![
                ("count", Json::Num(s.count as f64)),
                ("sum_us", Json::Num(s.sum as f64)),
                ("max_us", Json::Num(s.max as f64)),
                ("p50_us", Json::Num(s.p50 as f64)),
                ("p90_us", Json::Num(s.p90 as f64)),
                ("p99_us", Json::Num(s.p99 as f64)),
            ])
        };
        let mut pairs = vec![("ok", Json::Bool(true))];
        pairs.extend(self.stats_pairs());
        pairs.push(("in_flight", Json::Num(self.metrics.in_flight.get() as f64)));
        pairs.push((
            "in_flight_peak",
            Json::Num(self.metrics.in_flight.peak() as f64),
        ));
        pairs.push((
            "latency",
            Json::obj(vec![
                ("run", h(&self.metrics.run_us)),
                ("status", h(&self.metrics.status_us)),
                ("cache", h(&self.metrics.cache_us)),
                ("metrics", h(&self.metrics.metrics_us)),
            ]),
        ));
        Json::obj(pairs)
    }
}

/// Content hash of a workload spec — the workload-cache key. `Debug` of
/// [`WorkloadSpec`] covers every field that affects the built workload;
/// for SWF specs the *file contents* are folded in too, so rewriting a
/// trace in place invalidates its cache entry instead of silently serving
/// the old jobs.
fn workload_key(spec: &WorkloadSpec) -> u64 {
    match spec {
        WorkloadSpec::Swf { path, .. } => match file_fnv(path) {
            Some(h) => fnv1a_64(format!("{spec:?}#{h:016x}").as_bytes()),
            // Unreadable now → key on the spec alone; the build itself
            // will surface the I/O error to the client.
            None => fnv1a_64(format!("{spec:?}").as_bytes()),
        },
        _ => fnv1a_64(format!("{spec:?}").as_bytes()),
    }
}

/// FNV-1a of a file's bytes, streamed in 64 KiB chunks (million-line
/// traces must not be slurped just to key a cache).
fn file_fnv(path: &std::path::Path) -> Option<u64> {
    use std::io::Read;
    let mut f = std::fs::File::open(path).ok()?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = f.read(&mut buf).ok()?;
        if n == 0 {
            return Some(h);
        }
        for &b in &buf[..n] {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCN: &str =
        "scenario = demo\nworkload = synthetic\nprofile = ctc\njobs = 40\nseed = 11\n";

    fn state() -> ServerState {
        ServerState::new(StateConfig {
            threads: 2,
            ..StateConfig::default()
        })
    }

    #[test]
    fn repeated_queries_hit_the_result_cache_and_stay_identical() {
        let st = state();
        let cold = st.run_query(SCN, &Overrides::default()).unwrap();
        assert_eq!(cold.cached, 0);
        assert_eq!(cold.cells, 1);
        let warm = st.run_query(SCN, &Overrides::default()).unwrap();
        assert_eq!(warm.cached, 1);
        assert_eq!(warm.table, cold.table);
        assert_eq!(warm.csv, cold.csv);
        assert_eq!(st.stats.cells_run.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn overrides_change_the_cell_but_share_the_workload() {
        let st = state();
        st.run_query(SCN, &Overrides::default()).unwrap();
        let ov = Overrides {
            bsld_th: Some(1.5),
            ..Overrides::default()
        };
        let tweaked = st.run_query(SCN, &ov).unwrap();
        assert_eq!(tweaked.cached, 0, "different policy, different cell");
        assert!(tweaked.table.contains("demo-th1.5"), "{}", tweaked.table);
        assert_eq!(
            st.stats.workload_misses.load(Ordering::Relaxed),
            1,
            "same workload spec: generated once, reused warm"
        );
        assert_eq!(st.stats.workload_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_budget_aborts_with_a_structured_error_and_caches_nothing() {
        let st = state();
        let ov = Overrides {
            budget_s: Some(0.0),
            ..Overrides::default()
        };
        let err = st.run_query(SCN, &ov).unwrap_err();
        assert!(err.contains("budget"), "{err}");
        let (r, _) = st.clear_caches();
        assert_eq!(r, 0, "aborted cells must not be cached");
        // A patient retry succeeds from scratch.
        assert!(st.run_query(SCN, &Overrides::default()).is_ok());
    }

    #[test]
    fn replications_are_refused() {
        let scn = format!("{SCN}replications = 3\n");
        let err = state().run_query(&scn, &Overrides::default()).unwrap_err();
        assert!(err.contains("replications"), "{err}");
    }

    fn write_trace(dir: &std::path::Path, name: &str, jobs: u64, seed: u64) -> std::path::PathBuf {
        let path = dir.join(name);
        let mut buf = Vec::new();
        bsld_swf::generate_swf(&mut buf, jobs, seed, 64).unwrap();
        std::fs::write(&path, buf).unwrap();
        path
    }

    #[test]
    fn pin_swf_warms_the_workload_cache() {
        let dir = std::env::temp_dir().join(format!("bsld-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = write_trace(&dir, "pin.swf", 30, 5);
        let st = state();
        let reply = st.pin_swf(trace.to_str().unwrap()).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("jobs").and_then(Json::as_u64), Some(30));
        assert_eq!(reply.get("evicted").and_then(Json::as_bool), Some(false));
        assert!(reply.get("content_hash").and_then(Json::as_str).is_some());
        // A run over the pinned trace hits the warm entry: zero new misses.
        let scn = format!(
            "scenario = replay\nworkload = swf\nswf_path = {}\n",
            trace.display()
        );
        st.run_query(&scn, &Overrides::default()).unwrap();
        assert_eq!(st.stats.workload_hits.load(Ordering::Relaxed), 1);
        assert_eq!(
            st.stats.workload_misses.load(Ordering::Relaxed),
            1,
            "only the pin itself counts as a miss"
        );
        // Rewriting the file in place changes the content hash, so the
        // stale pinned entry can never be served for the new bytes.
        let before = workload_key(&WorkloadSpec::Swf {
            path: trace.clone(),
            clean: true,
        });
        write_trace(&dir, "pin.swf", 31, 6);
        let after = workload_key(&WorkloadSpec::Swf {
            path: trace.clone(),
            clean: true,
        });
        assert_ne!(before, after);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pinning_past_capacity_evicts_the_oldest_trace() {
        let dir = std::env::temp_dir().join(format!("bsld-pin-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let st = ServerState::new(StateConfig {
            threads: 1,
            workload_capacity: 2,
            ..StateConfig::default()
        });
        for (i, name) in ["a.swf", "b.swf"].iter().enumerate() {
            let p = write_trace(&dir, name, 10, i as u64);
            let reply = st.pin_swf(p.to_str().unwrap()).unwrap();
            assert_eq!(reply.get("evicted").and_then(Json::as_bool), Some(false));
        }
        let p = write_trace(&dir, "c.swf", 10, 9);
        let reply = st.pin_swf(p.to_str().unwrap()).unwrap();
        assert_eq!(
            reply.get("evicted").and_then(Json::as_bool),
            Some(true),
            "third pin into a 2-slot cache must evict"
        );
        let listing = st.cache_listing();
        assert_eq!(listing.get("workloads").and_then(Json::as_u64), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pinning_a_missing_file_is_a_structured_error() {
        let err = state().pin_swf("/nonexistent/void.swf").unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn cache_listing_and_clear_report_counts() {
        let st = state();
        st.run_query(SCN, &Overrides::default()).unwrap();
        let listing = st.cache_listing();
        assert_eq!(listing.get("results").and_then(Json::as_u64), Some(1));
        assert_eq!(listing.get("workloads").and_then(Json::as_u64), Some(1));
        let (r, w) = st.clear_caches();
        assert_eq!((r, w), (1, 1));
        assert_eq!(
            st.cache_listing().get("results").and_then(Json::as_u64),
            Some(0)
        );
    }
}
