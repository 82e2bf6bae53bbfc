//! Hostile bytes never panic a parser.
//!
//! Random bytes and byte-level mutations of valid inputs are fed to the
//! SWF parsers (`parse_swf` and `SwfStream`, the latter also through a
//! 3-byte read buffer so lines split across refills), the wire-JSON parser
//! (`Json::parse`), the daemon's request parser (`Request::parse`) and the
//! scenario file parser (`ScenarioSet::parse`, expanding every set that
//! parses), which also gets lines built from its keys. Each must return
//! `Ok` or `Err`; a panic fails the case.

#![allow(clippy::unwrap_used)]

use std::io::BufReader;

use bsld::core::scenario::ScenarioSet;
use bsld::metrics::Json;
use bsld::serve::Request;
use bsld::swf::{generate_swf, parse_swf, SwfStream};
use proptest::prelude::*;

/// Valid wire requests covering every op and every override key.
const REQUESTS: [&str; 6] = [
    r#"{"op":"run","scn":"scenario = demo\nworkload = synthetic\nprofile = ctc\njobs = 60\n","overrides":{"bsld_th":1.5,"wq":"no","cap":0.6,"model":"empirical:x.csv","jobs":60,"seed":11,"profile":"ctc","enlarge_pct":20,"budget_s":5}}"#,
    r#"{"op":"run","scn":"s","overrides":{"wq":3,"cap":"none","cell_budget_s":0}}"#,
    r#" {"op":"status"} "#,
    r#"{"op":"cache","clear":true}"#,
    r#"{"op":"cache","swf":"/traceé😀.swf"}"#,
    r#"{"op":"shutdown","extra":[1,-2.5e3,true,false,null,{"a":[]}]}"#,
];

/// The committed scenario files: the examples, the golden campaign and
/// every paper study.
const SCN_FILES: [&str; 15] = [
    include_str!("../examples/ctc_cap.scn"),
    include_str!("../examples/campaign.scn"),
    include_str!("../examples/power_models.scn"),
    include_str!("golden/golden_campaign.scn"),
    include_str!("../paper/beta.scn"),
    include_str!("../paper/boost.scn"),
    include_str!("../paper/enlarged.scn"),
    include_str!("../paper/fcfs.scn"),
    include_str!("../paper/fcfs_nobackfill.scn"),
    include_str!("../paper/fig6.scn"),
    include_str!("../paper/gears.scn"),
    include_str!("../paper/grid.scn"),
    include_str!("../paper/powercap.scn"),
    include_str!("../paper/selection.scn"),
    include_str!("../paper/table1.scn"),
];

/// Every key of the scenario format (file, set, sweep-only and override
/// keys) and one it does not have.
const SCN_KEYS: [&str; 30] = [
    "scenario",
    "workload",
    "profile",
    "jobs",
    "seed",
    "scale_cpus",
    "beta",
    "swf_path",
    "swf_clean",
    "enlarge_pct",
    "gears",
    "policy",
    "cap",
    "soft_escape",
    "sleep",
    "boost",
    "model",
    "observe",
    "mode",
    "backfill",
    "incremental",
    "selection",
    "trace",
    "out_dir",
    "replications",
    "cell_budget_s",
    "bsld_th",
    "wq",
    "swf_dir",
    "bogus",
];

/// Pieces that values are built from: keywords, prefixes, separators and
/// numbers at the edges of their types.
const SCN_TOKENS: [&str; 28] = [
    "none",
    "paper",
    "bsld:",
    "gear:",
    "interp:",
    "ladder:",
    "empirical:",
    "true",
    "false",
    "synthetic",
    "swf",
    "ctc",
    "NO",
    "easy",
    "contiguous",
    "~",
    "/",
    ",",
    ":",
    " ",
    "-",
    ".",
    "0",
    "1",
    "2.5",
    "nan",
    "1e999",
    "18446744073709551616",
];

/// Bytes that steer mutations into the parsers' interesting branches.
const TOKENS: [&[u8]; 14] = [
    b"\"",
    b"\\",
    b"\\u",
    b"\\ud800",
    b"{",
    b"}",
    b"[",
    b"]",
    b":",
    b",",
    b"-",
    b"1e999",
    b"\n;",
    b" 9223372036854775808",
];

/// A valid SWF trace: header directives plus generated records.
fn valid_swf() -> String {
    let mut text = b"; Version: 2.2\n; MaxProcs: 64\n; UnixStartTime: 0\n\n".to_vec();
    generate_swf(&mut text, 12, 7, 64).unwrap();
    String::from_utf8(text).unwrap()
}

/// Feeds `bytes` to every parser; any panic fails the calling case.
fn parse_everything(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = parse_swf(&text);
    let _ = SwfStream::new(bytes).count();
    let _ = SwfStream::new(BufReader::with_capacity(3, bytes)).count();
    let _ = Json::parse(&text);
    let _ = Request::parse(&text);
    if let Ok(set) = ScenarioSet::parse(&text) {
        let _ = set.expand();
    }
}

/// Applies `ops` to `input`: (kind, position, byte) replaces, inserts,
/// deletes, truncates, inserts a steering token, or repeats a tail.
fn mutate(input: &[u8], ops: &[(u8, usize, u8)]) -> Vec<u8> {
    let mut out = input.to_vec();
    for &(kind, pos, byte) in ops {
        let at = pos % (out.len() + 1);
        match kind {
            0 if at < out.len() => out[at] = byte,
            1 => out.insert(at, byte),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            4 => {
                let token = TOKENS[usize::from(byte) % TOKENS.len()];
                out.splice(at..at, token.iter().copied());
            }
            _ => {
                let tail = out[at..].to_vec();
                out.extend_from_slice(&tail[..tail.len().min(64)]);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Uniformly random bytes.
    #[test]
    fn random_bytes_never_panic_a_parser(bytes in proptest::collection::vec(0u8..=255, 0..400)) {
        parse_everything(&bytes);
    }

    /// Random bytes over the characters the grammars care about.
    #[test]
    fn grammar_bytes_never_panic_a_parser(picks in proptest::collection::vec(0usize..40, 0..200)) {
        const ALPHABET: &[u8; 40] = b"{}[]\":,\\u0123456789abcdef-+.eE ntrl; \n\t\r";
        let bytes: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        parse_everything(&bytes);
    }

    /// Byte mutations of valid SWF text and valid wire requests.
    #[test]
    fn mutated_valid_inputs_never_panic_a_parser(
        which in 0usize..7,
        ops in proptest::collection::vec((0u8..6, 0usize..100_000, 0u8..=255), 1..12),
    ) {
        let input = match REQUESTS.get(which) {
            Some(req) => req.as_bytes().to_vec(),
            None => valid_swf().into_bytes(),
        };
        parse_everything(&mutate(&input, &ops));
    }

    /// `key = value` and `sweep.key = …` lines over the scenario keys,
    /// after an empty, synthetic or SWF head.
    #[test]
    fn scenario_key_lines_never_panic_a_parser(
        head in 0usize..3,
        lines in proptest::collection::vec(
            (0..SCN_KEYS.len(), proptest::bool::ANY, proptest::collection::vec(0..SCN_TOKENS.len(), 0..5)),
            1..6,
        ),
    ) {
        let mut text = [
            "",
            "workload = synthetic\nprofile = ctc\njobs = 5\nseed = 1\n",
            "workload = swf\nswf_path = t.swf\n",
        ][head]
            .to_string();
        for (key, sweep, value) in lines {
            let value: String = value.iter().map(|&t| SCN_TOKENS[t]).collect();
            let prefix = if sweep { "sweep." } else { "" };
            text.push_str(&format!("{prefix}{} = {value}\n", SCN_KEYS[key]));
        }
        parse_everything(text.as_bytes());
    }

    /// Byte mutations of the committed scenario files.
    #[test]
    fn mutated_scenario_files_never_panic_a_parser(
        which in 0..SCN_FILES.len(),
        ops in proptest::collection::vec((0u8..6, 0usize..100_000, 0u8..=255), 1..12),
    ) {
        parse_everything(&mutate(SCN_FILES[which].as_bytes(), &ops));
    }
}

#[test]
fn unmutated_inputs_parse() {
    for req in REQUESTS {
        Request::parse(req).unwrap();
    }
    for scn in SCN_FILES {
        ScenarioSet::parse(scn).unwrap().expand().unwrap();
    }
    let swf = valid_swf();
    assert_eq!(parse_swf(&swf).unwrap().records.len(), 12);
    assert_eq!(
        SwfStream::new(BufReader::with_capacity(3, swf.as_bytes()))
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
            .len(),
        12
    );
}
