//! End-to-end tests of the scheduling-as-a-service daemon: a real
//! `Server` on a real Unix socket, exercised the way `bsld-repro query`
//! (and misbehaving clients) would.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use bsld::core::scenario::ScenarioSet;
use bsld::core::{sweep_report, CellOutcome};
use bsld::metrics::Json;
use bsld::serve::{
    Client, Overrides, ServeConfig, Server, StateConfig, MAX_REQUEST_BYTES, MAX_SWEEP_CELLS,
};

const SCN: &str = "scenario = demo\n\
                   workload = synthetic\n\
                   profile = ctc\n\
                   jobs = 60\n\
                   seed = 11\n\
                   \n\
                   sweep.bsld_th = 1.5 2\n";

/// A collision-free scratch socket path (multiple tests run in one
/// process; the test harness gives no per-test scratch dir).
fn scratch_socket() -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "bsld-serve-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn small_config(socket: PathBuf) -> ServeConfig {
    ServeConfig {
        socket,
        workers: 4,
        state: StateConfig {
            threads: 2,
            ..StateConfig::default()
        },
    }
}

/// Binds a daemon, runs it on a background thread, returns the socket and
/// the join handle (joined after a `shutdown` request).
fn spawn_daemon(cfg: ServeConfig) -> (PathBuf, std::thread::JoinHandle<()>) {
    let server = Server::bind(cfg).expect("bind scratch socket");
    let socket = server.socket().to_path_buf();
    let handle = std::thread::spawn(move || server.run().expect("daemon exits cleanly"));
    (socket, handle)
}

/// What the one-shot CLI prints for `SCN`: expand, run, render through the
/// same `sweep_report` path `bsld-repro run` uses.
fn oneshot_table_and_csv() -> (String, String) {
    let set = ScenarioSet::parse(SCN).unwrap();
    let rows: Vec<(String, Result<CellOutcome, String>)> = set
        .run(2)
        .unwrap()
        .into_iter()
        .map(|(sc, res)| (sc.name, Ok(CellOutcome::of(&res))))
        .collect();
    let report = sweep_report(&rows);
    (report.table, report.csv)
}

#[test]
fn daemon_reply_is_byte_identical_to_the_oneshot_cli_path() {
    let (socket, handle) = spawn_daemon(small_config(scratch_socket()));
    let mut client = Client::connect(&socket).unwrap();

    let reply = client.run(SCN, &Overrides::default()).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let (table, csv) = oneshot_table_and_csv();
    assert_eq!(reply.get("table").and_then(Json::as_str), Some(&*table));
    assert_eq!(reply.get("csv").and_then(Json::as_str), Some(&*csv));
    assert_eq!(reply.get("cached").and_then(Json::as_u64), Some(0));

    // Warm repeat: all cells cached, bytes unchanged.
    let warm = client.run(SCN, &Overrides::default()).unwrap();
    assert_eq!(warm.get("cached").and_then(Json::as_u64), Some(2));
    assert_eq!(warm.get("table"), reply.get("table"));
    assert_eq!(warm.get("csv"), reply.get("csv"));

    client.shutdown().unwrap();
    handle.join().unwrap();
    assert!(!socket.exists(), "shutdown must unlink the socket");
}

#[test]
fn concurrent_clients_get_identical_replies() {
    let (socket, handle) = spawn_daemon(small_config(scratch_socket()));

    let replies: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&socket).unwrap();
                    let reply = client.run(SCN, &Overrides::default()).unwrap();
                    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
                    // Strip the only request-dependent field: how many cells
                    // happened to be warm when this client's run started.
                    let Json::Obj(pairs) = reply else { panic!() };
                    Json::Obj(pairs.into_iter().filter(|(k, _)| k != "cached").collect()).render()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for r in &replies[1..] {
        assert_eq!(r, &replies[0], "racing clients must agree byte-for-byte");
    }

    Client::connect(&socket).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn result_cache_evicts_at_capacity_without_changing_answers() {
    let mut cfg = small_config(scratch_socket());
    cfg.state.result_capacity = 2;
    let (socket, handle) = spawn_daemon(cfg);
    let mut client = Client::connect(&socket).unwrap();

    // SCN expands to 2 cells, filling the capacity-2 cache exactly.
    let first = client.run(SCN, &Overrides::default()).unwrap();
    // Two more distinct cells (same sweep, different workload seed — the
    // sweep axis would overwrite a bsld_th override) evict the first two.
    let ov = Overrides {
        seed: Some(12),
        ..Overrides::default()
    };
    client.run(SCN, &ov).unwrap();
    let listing = client.cache(false).unwrap();
    assert_eq!(listing.get("results").and_then(Json::as_u64), Some(2));

    // The evicted cell recomputes — and must produce the same bytes.
    let again = client.run(SCN, &Overrides::default()).unwrap();
    assert!(
        again.get("cached").and_then(Json::as_u64) < Some(2),
        "eviction must have dropped at least one of the two cells"
    );
    assert_eq!(again.get("table"), first.get("table"));
    assert_eq!(again.get("csv"), first.get("csv"));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn exhausted_budget_is_a_structured_error_not_a_crash() {
    let (socket, handle) = spawn_daemon(small_config(scratch_socket()));
    let mut client = Client::connect(&socket).unwrap();

    let ov = Overrides {
        budget_s: Some(0.0),
        ..Overrides::default()
    };
    let reply = client.run(SCN, &ov).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let err = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(err.contains("budget"), "{err}");

    // Aborted cells were not cached: a patient retry computes them fresh.
    let retry = client.run(SCN, &Overrides::default()).unwrap();
    assert_eq!(retry.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(retry.get("cached").and_then(Json::as_u64), Some(0));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn torn_and_malformed_requests_never_take_the_daemon_down() {
    let (socket, handle) = spawn_daemon(small_config(scratch_socket()));

    // Malformed lines get structured error replies on the same connection.
    let mut raw = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut reply = String::new();
    for bad in ["this is not json", "{\"op\":\"frobnicate\"}", "[1,2,3]"] {
        raw.write_all(format!("{bad}\n").as_bytes()).unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        let parsed = Json::parse(reply.trim_end()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert!(parsed.get("error").is_some(), "{reply}");
    }
    // A torn request: half a line, then the client vanishes mid-write.
    raw.write_all(b"{\"op\":\"ru").unwrap();
    drop(raw);
    drop(reader);

    // The daemon is still fully alive for the next client.
    let mut client = Client::connect(&socket).unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    let ok = client.run(SCN, &Overrides::default()).unwrap();
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn over_long_request_line_is_refused_and_its_connection_dropped() {
    let (socket, handle) = spawn_daemon(small_config(scratch_socket()));

    // A line at the cap is read whole (and fails to parse as usual). The
    // connection closes at the end of the block: an idle open connection
    // would hold its worker through the shutdown below.
    {
        let mut raw = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut line = vec![b'x'; MAX_REQUEST_BYTES];
        line.push(b'\n');
        raw.write_all(&line).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let parsed = Json::parse(reply.trim_end()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert!(!reply.contains("exceeds"), "{reply}");
    }

    // One byte more and no newline: a structured error, then the daemon
    // drops the connection without reading the rest of the line. The
    // client may see its write fail once the daemon has hung up.
    let mut raw = UnixStream::connect(&socket).unwrap();
    // A daemon without the cap would wait for the newline forever.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    raw.set_write_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let _ = raw.write_all(&vec![b'x'; 2 * MAX_REQUEST_BYTES]);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let parsed = Json::parse(reply.trim_end()).unwrap();
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    let error = parsed.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains(&MAX_REQUEST_BYTES.to_string()), "{error}");
    // Then the stream ends, or resets since the daemon left bytes unread.
    reply.clear();
    let rest = reader.read_line(&mut reply);
    assert!(
        matches!(&rest, Ok(0))
            || matches!(&rest, Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset),
        "{rest:?} {reply}"
    );

    // Other clients are still served.
    let mut client = Client::connect(&socket).unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    let ok = client.run(SCN, &Overrides::default()).unwrap();
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A one-job CTC scenario swept over `seeds` seeds and `sizes`
/// enlargements: `seeds × sizes` cells.
fn one_job_grid(seeds: u32, sizes: u32) -> String {
    let values = |n: u32| (0..n).map(|v| v.to_string()).collect::<Vec<_>>().join(" ");
    format!(
        "scenario = grid\nworkload = synthetic\nprofile = ctc\njobs = 1\nseed = 1\n\
         sweep.seed = {}\nsweep.enlarge_pct = {}\n",
        values(seeds),
        values(sizes)
    )
}

#[test]
fn oversized_sweep_is_refused_before_any_cell_runs() {
    let (socket, handle) = spawn_daemon(small_config(scratch_socket()));
    let mut client = Client::connect(&socket).unwrap();
    let count = |reply: &Json, key| reply.get(key).and_then(Json::as_u64);

    // About 1.5 KB of text naming 40 000 cells.
    let huge = one_job_grid(200, 200);
    assert!(huge.len() < 1600, "{}", huge.len());
    let reply = client.run(&huge, &Overrides::default()).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    let cap = format!("at most {MAX_SWEEP_CELLS} per request");
    assert!(error.contains("names 40000 cells"), "{error}");
    assert!(error.contains(&cap), "{error}");
    let status = client.status().unwrap();
    assert_eq!(count(&status, "cells_run"), Some(0));

    // One cell past the cap is refused too, and so is a spec that does
    // not parse; neither counts as an accepted run.
    let over = one_job_grid(MAX_SWEEP_CELLS as u32 + 1, 1);
    let reply = client.run(&over, &Overrides::default()).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let reply = client
        .run("workload = nonsense", &Overrides::default())
        .unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let status = client.status().unwrap();
    assert_eq!(count(&status, "runs"), Some(0));
    assert_eq!(count(&status, "errors"), Some(3));

    // A sweep at the cap runs.
    let at_cap = one_job_grid(MAX_SWEEP_CELLS as u32, 1);
    let reply = client.run(&at_cap, &Overrides::default()).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(count(&reply, "cells"), Some(MAX_SWEEP_CELLS as u64));
    let status = client.status().unwrap();
    assert_eq!(count(&status, "runs"), Some(1));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn shutdown_does_not_wait_on_idle_connections() {
    let server = Server::bind(small_config(scratch_socket())).expect("bind a test socket");
    let socket = server.socket().to_path_buf();
    let (done, exited) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let res = server.run();
        done.send(()).unwrap();
        res
    });

    // One client goes idle after a request, another never sends a byte.
    let mut idle = Client::connect(&socket).unwrap();
    let status = idle.status().unwrap();
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    let silent = UnixStream::connect(&socket).unwrap();

    Client::connect(&socket).unwrap().shutdown().unwrap();
    // A daemon that waits on idle readers never exits; fail, not hang.
    assert!(
        exited
            .recv_timeout(std::time::Duration::from_secs(10))
            .is_ok(),
        "run() still blocked 10 s after shutdown with idle connections open"
    );
    handle.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket must be unlinked");
    // The idle connection was closed by the drain.
    assert!(idle.status().is_err());
    drop(silent);
}

#[test]
fn binding_over_a_live_daemon_is_refused_and_stale_sockets_are_reclaimed() {
    let cfg = small_config(scratch_socket());
    let socket = cfg.socket.clone();
    let (bound_socket, handle) = spawn_daemon(cfg.clone());
    assert_eq!(bound_socket, socket);

    // A second daemon on the same socket must refuse, not steal it.
    let err = Server::bind(cfg.clone()).unwrap_err();
    assert!(err.to_string().contains("already serving"), "{err}");

    Client::connect(&socket).unwrap().shutdown().unwrap();
    handle.join().unwrap();

    // A stale socket file (daemon died without unlinking) is reclaimed.
    std::fs::write(&socket, b"").unwrap();
    let server = Server::bind(cfg).expect("stale socket must be replaced");
    let handle = std::thread::spawn(move || server.run().unwrap());
    Client::connect(&socket).unwrap().shutdown().unwrap();
    handle.join().unwrap();
    assert!(!socket.exists());
}
