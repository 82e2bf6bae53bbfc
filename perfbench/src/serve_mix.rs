//! `serve_mix`: one client in a closed loop against the serve daemon over
//! its Unix socket; each request is one seeded rotation of three query
//! kinds (`cold`, `near`, two `exact`) on a 2 000-job CTC-like `bsld:2/NO`
//! cell:
//!
//! * `cold` — a new seed: the daemon generates and simulates;
//! * `near` — the same seed with the other threshold: it simulates only;
//! * `exact` — a repeat of either, still in the result cache: it parses
//!   and renders only.
//!
//! `cold` and `near` draw their thresholds from the same rotation, so the
//! kinds differ only in cache state.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use bsld_core::scenario::{Scenario, ScenarioSet};
use bsld_core::{sweep_report, CellOutcome};
use bsld_metrics::Json;
use bsld_obs::Stopwatch;
use bsld_serve::{Client, Overrides, ServeConfig, Server, ServerState, StateConfig};
use bsld_workload::Workload;

use crate::cell::{self, LayerSums};
use crate::host::Host;
use crate::out::{peak_rss_mib, share, EndToEnd, Layers, Report};
use crate::spans::Trace;
use crate::stats::median;
use crate::{RunConfig, TempDir, TRACE_DIR};

/// Jobs in every query's workload.
const JOBS: usize = 2000;
/// The thresholds a rotation draws from.
const THRESHOLDS: [f64; 2] = [2.0, 3.0];
/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Seed streams: priming rotations and measured rotations never share a
/// seed, so a measured `cold` query is always a workload miss.
const PRIME_STREAM: u64 = 1;
const MIX_STREAM: u64 = 2;

/// A query kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// New seed: generate and simulate.
    Cold,
    /// Resident seed, new threshold: simulate.
    Near,
    /// Cached query: parse and render.
    Exact,
}

impl Kind {
    /// The span-name form.
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Near => "near",
            Kind::Exact => "exact",
        }
    }

    /// The reply's `cached` count this kind must show (of one cell).
    fn cached(self) -> u64 {
        u64::from(self == Kind::Exact)
    }
}

/// One query of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Query {
    /// Its kind.
    kind: Kind,
    /// The workload seed override.
    seed: u64,
    /// Index into [`THRESHOLDS`].
    th: usize,
}

impl Query {
    /// The overrides sent with the base cell.
    fn overrides(&self) -> Overrides {
        Overrides {
            seed: Some(self.seed),
            bsld_th: Some(THRESHOLDS[self.th]),
            ..Overrides::default()
        }
    }
}

/// The base cell every query overrides.
fn base_scn(seed: u64) -> String {
    format!(
        "scenario = mix\nworkload = synthetic\nprofile = ctc\njobs = {JOBS}\nseed = {seed}\n\
         policy = bsld:2/NO\n"
    )
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload seed of rotation `r` in `stream`. Kept below 2^53: the
/// wire format carries numbers as doubles.
fn rotation_seed(seed: u64, stream: u64, r: u64) -> u64 {
    splitmix(splitmix(seed ^ splitmix(stream)) ^ r) & ((1 << 53) - 1)
}

/// Rotation `r` on workload seed `seed`: one `cold` and one `near` query
/// (thresholds alternating between rotations), then an `exact` repeat of
/// each.
fn rotation(seed: u64, r: u64) -> [Query; 4] {
    let a = (r % 2) as usize;
    let b = 1 - a;
    let q = |kind, th| Query { kind, seed, th };
    [
        q(Kind::Cold, a),
        q(Kind::Near, b),
        q(Kind::Exact, a),
        q(Kind::Exact, b),
    ]
}

/// Serves on `socket` until a `shutdown` request: one connection
/// handler, one simulation thread, default caches. Prints `ready` once
/// the socket is bound.
pub fn serve(socket: &Path) -> Result<(), String> {
    let mut cfg = ServeConfig::new(socket);
    cfg.workers = 1;
    cfg.state = state_config();
    let server = Server::bind(cfg).map_err(|e| e.to_string())?;
    println!("ready");
    server.run().map_err(|e| e.to_string())
}

/// The daemon's state configuration.
fn state_config() -> StateConfig {
    StateConfig {
        threads: 1,
        ..StateConfig::default()
    }
}

/// A daemon child process; killed and reaped on drop unless stopped.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts this executable's `daemon` mode on `socket` and waits for
    /// its `ready` line (no sleep-poll ticks).
    fn start(socket: &Path) -> Result<Daemon, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut d = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let stdout = d
            .child
            .as_mut()
            .and_then(|c| c.stdout.take())
            .ok_or("daemon has no stdout pipe")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("cannot read the daemon's ready line: {e}"))?;
        if line.trim() != "ready" {
            return Err(format!("daemon did not come up (said {line:?})"));
        }
        Ok(d)
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Sends `shutdown`, then checks the daemon exits cleanly and
    /// unlinks its socket.
    fn stop(mut self, mut client: Client) -> Result<(), String> {
        let reply = client.shutdown()?;
        drop(client);
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("shutdown refused: {}", reply.render()));
        }
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        let waited = Stopwatch::start();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if waited.elapsed_s() < 10.0 => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after shutdown".into());
                }
            }
        };
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        if self.socket.exists() {
            return Err(format!("daemon left {} behind", self.socket.display()));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// A live daemon and the client connected to it.
struct Session {
    daemon: Daemon,
    client: Client,
}

impl Session {
    /// Sends one query; returns the reply and the client-observed
    /// latency in milliseconds.
    fn ask(&mut self, scn: &str, q: &Query) -> (Result<Json, String>, f64) {
        let sw = Stopwatch::start();
        let reply = self.client.run(scn, &q.overrides());
        (reply, sw.elapsed_s() * 1e3)
    }

    fn counters(&mut self) -> Result<Counters, String> {
        Counters::of(&self.client.status()?)
    }

    fn stop(self) -> Result<(), String> {
        self.daemon.stop(self.client)
    }
}

/// The daemon's cache counters, as `status` reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    result_hits: u64,
    result_misses: u64,
    workload_hits: u64,
    workload_misses: u64,
    result_evictions: u64,
    workload_evictions: u64,
}

impl Counters {
    fn of(status: &Json) -> Result<Counters, String> {
        let get = |k: &str| {
            status
                .get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("status reply lacks {k}: {}", status.render()))
        };
        Ok(Counters {
            result_hits: get("result_hits")?,
            result_misses: get("result_misses")?,
            workload_hits: get("workload_hits")?,
            workload_misses: get("workload_misses")?,
            result_evictions: get("result_evictions")?,
            workload_evictions: get("workload_evictions")?,
        })
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            result_hits: self.result_hits - before.result_hits,
            result_misses: self.result_misses - before.result_misses,
            workload_hits: self.workload_hits - before.workload_hits,
            workload_misses: self.workload_misses - before.workload_misses,
            result_evictions: self.result_evictions - before.result_evictions,
            workload_evictions: self.workload_evictions - before.workload_evictions,
        }
    }
}

/// Whether a reply is what query `q` must get: `ok`, one cell, `cached`
/// matching its kind, and for an `exact` query the table its first
/// answer had. Records the table of a first answer in `tables`.
fn check(reply: &Result<Json, String>, q: &Query, tables: &mut [Option<String>; 2]) -> bool {
    let Ok(reply) = reply else {
        return false;
    };
    let table = reply.get("table").and_then(Json::as_str);
    let shape = reply.get("ok").and_then(Json::as_bool) == Some(true)
        && reply.get("cells").and_then(Json::as_u64) == Some(1)
        && reply.get("cached").and_then(Json::as_u64) == Some(q.kind.cached());
    let table_ok = match (q.kind, table) {
        (_, None) => false,
        (Kind::Exact, Some(t)) => tables[q.th].as_deref() == Some(t),
        (_, Some(t)) => {
            tables[q.th] = Some(t.to_string());
            true
        }
    };
    shape && table_ok
}

/// Starts a daemon on `socket`, waits for its first reply and primes it
/// with one rotation on `prime_seed`. Returns the session and the set-up
/// time.
fn set_up(socket: &Path, scn: &str, prime_seed: u64) -> Result<(Session, f64), String> {
    let sw = Stopwatch::start();
    let daemon = Daemon::start(socket)?;
    let client = Client::connect(socket)?;
    let mut s = Session { daemon, client };
    s.counters()?;
    let mut tables = Default::default();
    for q in rotation(prime_seed, 0) {
        let (reply, _) = s.ask(scn, &q);
        if !check(&reply, &q, &mut tables) {
            return Err(format!("priming query {q:?} failed: {reply:?}"));
        }
    }
    Ok((s, sw.elapsed_s()))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let tmp = TempDir::new("serve_mix")?;
    let scn = base_scn(cfg.seed);
    let mut host = Host::new();
    let mut setup = Vec::new();
    let mut session: Option<Session> = None;
    let mut prime_seed = 0;
    for k in 0..SETUPS as u64 {
        if let Some(s) = session.take() {
            s.stop()?;
        }
        prime_seed = rotation_seed(cfg.seed, PRIME_STREAM, k);
        let socket = tmp.path().join(format!("d{k}.sock"));
        let (s, d) = set_up(&socket, &scn, prime_seed)?;
        setup.push(d * host.scale());
        session = Some(s);
    }
    let mut s = session.ok_or("no daemon set-up ran")?;
    let mut report = Report::default();
    if cfg.trace {
        traced(cfg, &scn, &mut s, prime_seed, &mut report)?;
    } else {
        let request_ms = plain(cfg, &scn, &mut s, &mut host, &mut report)?;
        let pid = s.daemon.pid().ok_or("daemon already stopped")?;
        report.end_to_end(&EndToEnd {
            request_ms,
            setup_s: median(&setup).ok_or("no set-up ran")?,
            peak_rss_mib: peak_rss_mib(Some(pid))?,
        });
    }
    // The shutdown is a checked request of its own.
    let stopped = s.stop();
    if let Err(e) = &stopped {
        eprintln!("serve_mix: {e}");
    }
    report.request(stopped.is_ok());
    Ok(report)
}

fn plain(
    cfg: &RunConfig,
    scn: &str,
    s: &mut Session,
    host: &mut Host,
    report: &mut Report,
) -> Result<f64, String> {
    let before = s.counters()?;
    // Nominal-host time of every rotation, its queries' latencies summed.
    let mut rotation_ms = Vec::new();
    let clock = Stopwatch::start();
    let mut r = 0;
    while clock.elapsed_s() < cfg.seconds as f64 {
        let mut tables = Default::default();
        let (mut ms, mut ok) = (0.0, true);
        for q in rotation(rotation_seed(cfg.seed, MIX_STREAM, r), r) {
            let (reply, t) = s.ask(scn, &q);
            ms += t;
            ok &= check(&reply, &q, &mut tables);
        }
        rotation_ms.push(ms * host.scale());
        report.request(ok);
        r += 1;
    }
    check_counters(report, &s.counters()?.since(&before), r);
    median(&rotation_ms).ok_or_else(|| "no rotation completed".to_string())
}

/// Each rotation's `cold` query is one workload miss, its `near` query
/// one workload hit and its two `exact` queries two result hits; a
/// mismatch fails every rotation.
fn check_counters(report: &mut Report, d: &Counters, rotations: u64) {
    let ok = d.workload_misses == rotations
        && d.workload_hits == rotations
        && d.result_hits == 2 * rotations
        && d.result_misses == 2 * rotations;
    if !ok {
        eprintln!("serve_mix: cache counters {d:?} disagree with {rotations} rotations");
        report.fail(rotations);
    }
}

/// Rotations of a traced run: a fixed count, so every count repeats
/// exactly between two traced runs.
fn traced_rotations(seconds: u64) -> u64 {
    20 * seconds
}

/// The same query answered in-process, decomposed into its layers.
struct Local {
    workload: Option<(u64, Workload)>,
    outcomes: [Option<CellOutcome>; 2],
}

/// Parses the base cell, applies the query's overrides and expands it
/// (`ScenarioSet::parse` + `Overrides::apply` + `ScenarioSet::expand`).
fn parse_cell(scn: &str, q: &Query) -> Result<Scenario, String> {
    let mut set = ScenarioSet::parse(scn).map_err(|e| e.to_string())?;
    q.overrides().apply(&mut set)?;
    set.base.output = Default::default();
    let mut cells = set.expand().map_err(|e| e.to_string())?;
    match cells.len() {
        1 => Ok(cells.remove(0)),
        n => Err(format!("the mix cell expanded to {n} cells")),
    }
}

/// Layer times of one traced rotation, beside its cell layers.
#[derive(Debug, Default)]
struct RotationLayers {
    cells: LayerSums,
    generate_s: f64,
    parse_s: f64,
    render_s: f64,
    /// The in-process decomposition of the four queries.
    decomposed_s: f64,
    /// `ServerState::run_query` answering the same queries.
    state_s: f64,
    /// Client-observed time of the four queries, and of the two exact.
    client_s: f64,
    exact_s: f64,
}

fn traced(
    cfg: &RunConfig,
    scn: &str,
    s: &mut Session,
    prime_seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let mut trace = Trace::default();
    // The in-process state replays the daemon's whole query stream, so
    // both caches hold the same entries when a query is timed.
    let state = ServerState::new(state_config());
    for q in rotation(prime_seed, 0) {
        state.run_query(scn, &q.overrides())?;
    }
    let before = s.counters()?;
    let mut rotations: Vec<RotationLayers> = Vec::new();
    let mut local = Local {
        workload: None,
        outcomes: Default::default(),
    };
    for r in 0..traced_rotations(cfg.seconds) {
        let req = Some(r);
        let rid = trace.enter("request", req);
        let mut tables = Default::default();
        let mut rl = RotationLayers::default();
        let mut ok = true;
        for q in rotation(rotation_seed(cfg.seed, MIX_STREAM, r), r) {
            let qid = trace.enter(format!("query.{}", q.kind.name()), req);
            // The socket and the in-process state take turns going first,
            // so neither carries the other's cache warmth.
            let mut socket =
                |trace: &mut Trace| trace.time("serve.socket_query", req, |_| s.ask(scn, &q)).0;
            let in_process = |trace: &mut Trace| {
                trace.time("serve.run_query", req, |_| {
                    state.run_query(scn, &q.overrides())
                })
            };
            let ((reply, ms), (in_process, d)) = if r % 2 == 0 {
                let sent = socket(&mut trace);
                (sent, in_process(&mut trace))
            } else {
                let local = in_process(&mut trace);
                (socket(&mut trace), local)
            };
            rl.state_s += d;
            rl.client_s += ms / 1e3;
            if q.kind == Kind::Exact {
                rl.exact_s += ms / 1e3;
            }
            ok &= check(&reply, &q, &mut tables);
            let want = reply
                .as_ref()
                .ok()
                .and_then(|j| j.get("table"))
                .and_then(Json::as_str);
            ok &= in_process.as_ref().is_ok_and(|rep| {
                Some(rep.table.as_str()) == want && rep.cached as u64 == q.kind.cached()
            });

            let did = trace.enter("query.decomposed", req);
            let (cell, d) = trace.time("core.scenario.parse", req, |_| parse_cell(scn, &q));
            rl.parse_s += d;
            let cell = cell?;
            if q.kind == Kind::Cold {
                let (w, d) = trace.time("workload.generate", req, |_| cell.workload.build());
                rl.generate_s += d;
                local.workload = Some((q.seed, w.map_err(|e| e.to_string())?));
                local.outcomes = Default::default();
            }
            if q.kind != Kind::Exact {
                let w = match &local.workload {
                    Some((seed, w)) if *seed == q.seed => w,
                    _ => return Err("a near query must follow its cold query".into()),
                };
                let (res, cl) =
                    cell::execute_traced(&cell, w, &mut trace, req).map_err(|e| e.to_string())?;
                rl.cells.add(&cl);
                local.outcomes[q.th] = Some(CellOutcome::of(&res));
            }
            let outcome = local.outcomes[q.th]
                .clone()
                .ok_or("an exact query must follow its first answer")?;
            let (rendered, d) = trace.time("core.report.sweep_report", req, |_| {
                sweep_report(&[(cell.name.clone(), Ok(outcome))])
            });
            rl.render_s += d;
            rl.decomposed_s += trace.exit(did).duration_s();
            ok &= Some(rendered.table.as_str()) == want;
            trace.exit(qid);
        }
        trace.exit(rid);
        report.request(ok);
        trace.record("serve_mix", req, rl.cells);
        rotations.push(rl);
    }

    let after = s.counters()?;
    let d = after.since(&before);
    // The in-process replay must have seen the same cache behaviour.
    let mirrored = Counters::of(&Json::obj(state.stats_pairs()))?;
    if mirrored != after {
        eprintln!("serve_mix: in-process counters {mirrored:?} differ from the daemon's {after:?}");
        report.fail(1);
    }

    let of = |f: fn(&RotationLayers) -> f64| {
        median(&rotations.iter().map(f).collect::<Vec<_>>()).ok_or("no traced rotation ran")
    };
    let cells: Vec<LayerSums> = rotations.iter().map(|r| r.cells).collect();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    report.layers(&Layers {
        workload_build_s: of(|r| r.generate_s)?,
        render_s: of(|r| r.render_s)?,
        serve_result_hit_ratio: ratio(d.result_hits, d.result_misses),
        serve_workload_hit_ratio: ratio(d.workload_hits, d.workload_misses),
        serve_result_evictions: d.result_evictions as f64,
        serve_workload_evictions: d.workload_evictions as f64,
        serve_transport_share: of(|r| share(r.client_s - r.state_s, r.client_s))?,
        serve_exact_share: of(|r| share(r.exact_s, r.client_s))?,
        parse_share: of(|r| share(r.parse_s, r.decomposed_s))?,
        // The daemon is never instrumented: the traced work is the
        // in-process decomposition, set against `run_query` answering the
        // same queries.
        obs_overhead: of(|r| r.decomposed_s)? / of(|r| r.state_s)?,
        ..Layers::of_cells(&cells)?
    });
    trace.write(Path::new(TRACE_DIR), "serve_mix", cfg.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rotation_is_cold_near_and_two_exact_repeats() {
        for r in 0..4 {
            let qs = rotation(77, r);
            let kinds: Vec<Kind> = qs.iter().map(|q| q.kind).collect();
            assert_eq!(kinds, [Kind::Cold, Kind::Near, Kind::Exact, Kind::Exact]);
            assert!(qs.iter().all(|q| q.seed == 77));
            // Near takes the other threshold; the exacts repeat both.
            assert_ne!(qs[0].th, qs[1].th);
            assert_eq!((qs[2].th, qs[3].th), (qs[0].th, qs[1].th));
        }
        // Cold draws each threshold in turn, as near does.
        assert_ne!(rotation(77, 0)[0].th, rotation(77, 1)[0].th);
    }

    #[test]
    fn rotation_seeds_fit_the_wire_and_streams_differ() {
        for r in 0..100 {
            let s = rotation_seed(5, MIX_STREAM, r);
            assert!(s < 1 << 53);
            assert_ne!(s, rotation_seed(5, PRIME_STREAM, r));
        }
        assert_eq!(
            rotation_seed(5, MIX_STREAM, 3),
            rotation_seed(5, MIX_STREAM, 3)
        );
    }
}
