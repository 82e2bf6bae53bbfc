//! A thin synchronous client for the daemon's wire protocol: one
//! connection, one request line out, one reply line back.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use bsld_metrics::Json;

use crate::proto::{Overrides, FIELDS};

/// A connected client. One instance may issue many requests; the
/// connection stays open until dropped.
#[derive(Debug)]
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects to a daemon's socket.
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket).map_err(|e| {
            format!(
                "cannot connect to {} (is a daemon serving there?): {e}",
                socket.display()
            )
        })?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone socket stream: {e}"))?,
        );
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one request object and reads its reply line.
    pub fn request(&mut self, req: &Json) -> Result<Json, String> {
        let mut line = req.render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("cannot read reply: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection without replying".to_string());
        }
        Json::parse(reply.trim_end_matches('\n'))
            .map_err(|e| format!("daemon sent an unparseable reply: {e}"))
    }

    /// `{"op":"run"}` with the scenario file *text* (read the file
    /// client-side; daemon and client need no shared filesystem).
    pub fn run(&mut self, scn_text: &str, overrides: &Overrides) -> Result<Json, String> {
        let mut pairs = vec![("op", Json::str("run")), ("scn", Json::str(scn_text))];
        let ov = overrides_json(overrides);
        if let Json::Obj(o) = &ov {
            if !o.is_empty() {
                pairs.push(("overrides", ov));
            }
        }
        self.request(&Json::obj(pairs))
    }

    /// `{"op":"status"}`.
    pub fn status(&mut self) -> Result<Json, String> {
        self.request(&Json::obj(vec![("op", Json::str("status"))]))
    }

    /// `{"op":"metrics"}` — the profiling plane: counters plus per-op
    /// latency histograms and queue depth.
    pub fn metrics(&mut self) -> Result<Json, String> {
        self.request(&Json::obj(vec![("op", Json::str("metrics"))]))
    }

    /// `{"op":"cache"}` — a listing, or a wipe with `clear`.
    pub fn cache(&mut self, clear: bool) -> Result<Json, String> {
        self.request(&Json::obj(vec![
            ("op", Json::str("cache")),
            ("clear", Json::Bool(clear)),
        ]))
    }

    /// `{"op":"cache","swf":…}` — pins a trace into the daemon's workload
    /// cache (the path is resolved daemon-side).
    pub fn cache_pin(&mut self, swf: &str) -> Result<Json, String> {
        self.request(&Json::obj(vec![
            ("op", Json::str("cache")),
            ("swf", Json::str(swf)),
        ]))
    }

    /// `{"op":"shutdown"}` — asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<Json, String> {
        self.request(&Json::obj(vec![("op", Json::str("shutdown"))]))
    }
}

/// Renders overrides back to their wire form (inverse of
/// [`Overrides::from_json`]): each set field as its `.scn` value text.
pub fn overrides_json(ov: &Overrides) -> Json {
    Json::Obj(
        FIELDS
            .iter()
            .filter_map(|f| Some((f.name.to_string(), Json::str((f.text)(ov)?))))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_round_trip_through_the_wire_form() {
        let ov = Overrides {
            bsld_th: Some(1.5),
            wq: Some(bsld_core::WqThreshold::NoLimit),
            cap: Some(None),
            jobs: Some(64),
            seed: Some(9),
            enlarge_pct: Some(20),
            budget_s: Some(3.5),
            model: Some(bsld_core::scenario::PowerModelSpec::Empirical(
                "curves/node.csv".into(),
            )),
            ..Overrides::default()
        };
        let wire = overrides_json(&ov);
        let back = Overrides::from_json(&wire).unwrap();
        assert_eq!(back, ov);
    }
}
