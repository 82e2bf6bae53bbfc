//! The audit rules and the per-file analysis driver.
//!
//! Every rule is lexical: it runs over the masked, tokenized source (see
//! [`crate::mask`] and [`crate::lex`]), scoped by file classification
//! ([`classify`]) and with `#[cfg(test)]` regions excluded. The rules are
//! deliberately conservative approximations — see each rule's doc for its
//! known blind spots and why the dynamic test suite covers them.

use crate::lex::{lex, SpannedTok, Tok};
use crate::mask::mask;

/// The audited rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// **D1** — no iteration over `HashMap`/`HashSet` in
    /// determinism-critical crates.
    ///
    /// Failure scenario: a campaign manifest is written in `HashMap`
    /// iteration order; two runs of the *same* spec produce differently
    /// ordered rows, the byte-diff resume check sees a modified file and
    /// re-runs every unit — or worse, a sharded merge interleaves rows
    /// differently per host and the merged artifact hash never stabilises.
    D1,
    /// **D2** — no wall-clock or entropy sources (`Instant::now`,
    /// `SystemTime`, `thread_rng`, `std::env` reads) outside CLI and
    /// `bsld-par` code.
    ///
    /// Failure scenario: a library crate seeds a tie-break from
    /// `SystemTime::now()`; a replicated cell returns different BSLD means
    /// on consecutive runs and the 95 % confidence intervals in the
    /// campaign report silently stop meaning anything.
    D2,
    /// **N1** — no `==`/`!=` against float literals.
    ///
    /// Failure scenario: `if cap == 0.7` never fires because the cap was
    /// computed as `0.6999999999999999`; the power-capping branch is
    /// skipped and a sweep reports energy for the *uncapped* machine in
    /// the capped column. (Typed float comparisons are covered by
    /// `clippy::float_cmp` in the workspace lints; this rule catches the
    /// literal pattern clippy misses in macro-heavy or generic code.)
    N1,
    /// **N2** — no lossy `as` casts (integer-target or `as f32`) in
    /// energy-ledger and cell-identity code.
    ///
    /// Failure scenario: an energy accumulator is truncated `as u32`
    /// when joules exceed 4.3 × 10⁹ — about 50 days of a 1 kW rail — and
    /// the reported campaign energy wraps around to a small number.
    N2,
    /// **R1** — no `unwrap()`/`expect()`/`panic!` in library code.
    ///
    /// Failure scenario: a malformed SWF line makes a deep library call
    /// panic; under `bsld-par` the panic propagates after the pool drains
    /// and a 10-hour campaign dies instead of recording one failed row.
    R1,
    /// **A0** — an `audit:allow(...)` directive without a `: justification`
    /// tail. Escapes must say *why* or they rot.
    A0,
}

impl Rule {
    /// The rule's short name as used in `audit:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::N1 => "N1",
            Rule::N2 => "N2",
            Rule::R1 => "R1",
            Rule::A0 => "A0",
        }
    }

    fn parse(s: &str) -> Option<Rule> {
        match s {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "N1" => Some(Rule::N1),
            "N2" => Some(Rule::N2),
            "R1" => Some(Rule::R1),
            "A0" => Some(Rule::A0),
            _ => None,
        }
    }
}

/// One rule violation (or suppressed would-be violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable cause.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// An `audit:allow` escape found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the directive's *comment* is on.
    pub line: usize,
    /// The code line the directive applies to (same line, or the next
    /// code line when the comment stands alone).
    pub target_line: usize,
    /// The rule being allowed.
    pub rule: Rule,
    /// Whether a `: justification` tail was present.
    pub justified: bool,
}

/// The audit result for one file.
#[derive(Debug, Default)]
pub struct FileAudit {
    /// Violations not covered by an allow — these fail the audit.
    pub violations: Vec<Violation>,
    /// Would-be violations suppressed by a justified `audit:allow`.
    pub suppressed: Vec<Violation>,
    /// Justified allows that matched nothing (stale escapes; reported,
    /// non-fatal).
    pub unused_allows: Vec<(usize, Rule)>,
}

/// How a file participates in the rule set, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code — every rule applies.
    Lib,
    /// `src/bin/` — CLI entry points: D2/R1 exempt (a CLI may read the
    /// clock, args and env, and exit via panic-free `process::exit`, but
    /// its *output* must stay deterministic, so D1 still applies).
    Bin,
    /// Integration tests (`tests/`) — exempt from all rules.
    Test,
    /// Examples — exempt.
    Example,
}

/// Crates whose iteration order feeds persisted artifacts (reports, CSVs,
/// manifests, schedules): rule D1 applies.
const DETERMINISM_CRITICAL: [&str; 12] = [
    "core",
    "sched",
    "simkernel",
    "power",
    "powercap",
    "metrics",
    "swf",
    "workload",
    "cluster",
    "model",
    // The daemon's replies must be byte-identical to the one-shot CLI;
    // its clock reads (uptime, budget watchdog) carry per-line escapes.
    "serve",
    // The trace plane must be a pure function of the simulated run; only
    // the profiling plane (obs/src/profile.rs) reads the clock, behind
    // justified escapes.
    "obs",
];

/// Crates exempt from D2 wholesale: `par` implements the wall-clock budget
/// watchdog.
const CLOCK_EXEMPT_CRATES: [&str; 1] = ["par"];

/// Files under these path prefixes (or exact paths) carry rule N2: they
/// hold energy ledgers, cell identity hashing, or persisted numeric output
/// where a silent truncation corrupts results.
const N2_SCOPE: [&str; 5] = [
    "crates/power/src/",
    "crates/powercap/src/",
    "crates/core/src/campaign.rs",
    "crates/core/src/distrib.rs",
    "crates/metrics/src/jsonout.rs",
];

/// Integer-target (or precision-losing `f32`) cast targets for N2.
const N2_TARGETS: [&str; 11] = [
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize", "f32",
];

/// Iteration methods that expose hash order (D1).
const HASH_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Classifies a workspace-relative path into `(crate name, kind)`.
pub fn classify(rel_path: &str) -> (Option<String>, FileKind) {
    let rel = rel_path.replace('\\', "/");
    let krate = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(str::to_string);
    let kind = if rel.contains("/tests/") {
        FileKind::Test
    } else if rel.contains("/examples/") {
        FileKind::Example
    } else if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    (krate, kind)
}

/// Audits one file's source text. `rel_path` is workspace-relative and
/// decides which rules apply; the text is analysed standalone (no
/// cross-file knowledge).
pub fn audit_source(rel_path: &str, src: &str) -> FileAudit {
    let (krate, kind) = classify(rel_path);
    let mut out = FileAudit::default();

    // Tests and examples: nothing to audit (but stale allows in them would
    // also never fire, so skip entirely).
    if matches!(kind, FileKind::Test | FileKind::Example) {
        return out;
    }

    let masked = mask(src);
    let toks = lex(&masked.text);
    let src_lines: Vec<&str> = src.lines().collect();
    let masked_lines: Vec<&str> = masked.text.lines().collect();
    let test_lines = cfg_test_lines(&masked.text, &toks);
    let allows = collect_allows(&masked, &masked_lines, &mut out, rel_path, &src_lines);

    let mut raw: Vec<Violation> = Vec::new();
    let in_test = |line: usize| test_lines.contains(&line);
    let snippet = |line: usize| -> String {
        src_lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let push = |raw: &mut Vec<Violation>, line: usize, rule: Rule, message: String| {
        raw.push(Violation {
            file: rel_path.to_string(),
            line,
            rule,
            message,
            snippet: snippet(line),
        });
    };

    // --- D1: hash-order iteration in determinism-critical crates -------
    if krate
        .as_deref()
        .is_some_and(|k| DETERMINISM_CRITICAL.contains(&k))
    {
        let hash_idents = collect_hash_idents(&toks);
        for (i, st) in toks.iter().enumerate() {
            if in_test(st.line) {
                continue;
            }
            // NAME.method( where NAME is hash-typed and method iterates.
            if let Tok::Ident(m) = &st.tok {
                if HASH_ITER_METHODS.contains(&m.as_str())
                    && i >= 2
                    && toks[i - 1].tok == Tok::P('.')
                {
                    if let Tok::Ident(recv) = &toks[i - 2].tok {
                        if hash_idents.contains(recv) {
                            push(
                                &mut raw,
                                st.line,
                                Rule::D1,
                                format!("`{recv}.{m}()` iterates a hash collection; hash order leaks into results"),
                            );
                        }
                    }
                }
            }
            // for … in [&][mut] NAME {
            if st.tok.is_ident("for") {
                if let Some((name, line)) = for_loop_over(&toks, i, &hash_idents) {
                    push(
                        &mut raw,
                        line,
                        Rule::D1,
                        format!("`for … in {name}` iterates a hash collection; hash order leaks into results"),
                    );
                }
            }
        }
    }

    // --- D2: wall clock / entropy outside CLI and par -------------------
    let d2_applies = kind == FileKind::Lib
        && !krate
            .as_deref()
            .is_some_and(|k| CLOCK_EXEMPT_CRATES.contains(&k));
    if d2_applies {
        for (i, st) in toks.iter().enumerate() {
            if in_test(st.line) {
                continue;
            }
            let msg = match &st.tok {
                Tok::Ident(id) if id == "SystemTime" => {
                    Some("`SystemTime` reads the wall clock".to_string())
                }
                Tok::Ident(id) if id == "Instant" => {
                    if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::P2("::"))
                        && toks.get(i + 2).is_some_and(|t| t.tok.is_ident("now"))
                    {
                        Some("`Instant::now()` reads the wall clock".to_string())
                    } else {
                        None
                    }
                }
                Tok::Ident(id) if id == "thread_rng" || id == "from_entropy" => {
                    Some(format!("`{id}` draws OS entropy"))
                }
                Tok::Ident(id) if id == "env" => {
                    let prefixed_std = i >= 2
                        && toks[i - 1].tok == Tok::P2("::")
                        && toks[i - 2].tok.is_ident("std");
                    let reads = toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::P2("::"))
                        && toks.get(i + 2).is_some_and(|t| {
                            matches!(&t.tok, Tok::Ident(f)
                                if matches!(f.as_str(), "var" | "vars" | "var_os" | "args" | "args_os"))
                        });
                    if prefixed_std && reads {
                        Some(
                            "`std::env` read makes behaviour depend on the environment".to_string(),
                        )
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(m) = msg {
                push(&mut raw, st.line, Rule::D2, m);
            }
        }
    }

    // --- N1: ==/!= against float literals -------------------------------
    if kind == FileKind::Lib {
        for (i, st) in toks.iter().enumerate() {
            if in_test(st.line) {
                continue;
            }
            let op = match st.tok {
                Tok::P2("==") => "==",
                Tok::P2("!=") => "!=",
                _ => continue,
            };
            let lhs_float = i >= 1 && toks[i - 1].tok.is_float();
            let rhs_float = toks
                .get(i + 1)
                .map(|t| {
                    t.tok.is_float()
                        || (t.tok == Tok::P('-')
                            && toks.get(i + 2).is_some_and(|u| u.tok.is_float()))
                })
                .unwrap_or(false);
            if lhs_float || rhs_float {
                push(
                    &mut raw,
                    st.line,
                    Rule::N1,
                    format!("`{op}` against a float literal; exact float equality is representation-dependent"),
                );
            }
        }
    }

    // --- N2: lossy casts in ledger/identity code ------------------------
    let n2_applies = {
        let rel = rel_path.replace('\\', "/");
        N2_SCOPE.iter().any(|p| {
            if p.ends_with('/') {
                rel.starts_with(p)
            } else {
                rel == *p
            }
        })
    };
    if n2_applies {
        for (i, st) in toks.iter().enumerate() {
            if in_test(st.line) {
                continue;
            }
            if st.tok.is_ident("as") {
                if let Some(Tok::Ident(t)) = toks.get(i + 1).map(|t| &t.tok) {
                    if N2_TARGETS.contains(&t.as_str()) {
                        push(
                            &mut raw,
                            st.line,
                            Rule::N2,
                            format!(
                                "`as {t}` can silently truncate/wrap in ledger or identity code"
                            ),
                        );
                    }
                }
            }
        }
    }

    // --- R1: unwrap/expect/panic! in library code -----------------------
    if kind == FileKind::Lib {
        for (i, st) in toks.iter().enumerate() {
            if in_test(st.line) {
                continue;
            }
            match &st.tok {
                Tok::Ident(id) if id == "unwrap" || id == "expect" => {
                    let is_method = i >= 1 && toks[i - 1].tok == Tok::P('.');
                    let is_call = toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::P('('));
                    if is_method && is_call {
                        push(
                            &mut raw,
                            st.line,
                            Rule::R1,
                            format!("`.{id}()` can panic in library code; return an error instead"),
                        );
                    }
                }
                Tok::Ident(id)
                    if id == "panic" && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::P('!')) =>
                {
                    push(
                        &mut raw,
                        st.line,
                        Rule::R1,
                        "`panic!` in library code; return an error instead".to_string(),
                    );
                }
                _ => {}
            }
        }
    }

    // --- resolve allows --------------------------------------------------
    let mut used = vec![false; allows.len()];
    for v in raw {
        let mut hit = None;
        for (ai, a) in allows.iter().enumerate() {
            if a.justified && a.rule == v.rule && a.target_line == v.line {
                hit = Some(ai);
                break;
            }
        }
        match hit {
            Some(ai) => {
                used[ai] = true;
                out.suppressed.push(v);
            }
            None => out.violations.push(v),
        }
    }
    for (ai, a) in allows.iter().enumerate() {
        if a.justified && !used[ai] && a.rule != Rule::A0 {
            out.unused_allows.push((a.line, a.rule));
        }
    }
    out.violations.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Collects `audit:allow(...)` directives from comments and reports
/// malformed ones (unknown rule / missing justification) as A0 violations.
fn collect_allows(
    masked: &crate::mask::Masked,
    masked_lines: &[&str],
    out: &mut FileAudit,
    rel_path: &str,
    src_lines: &[&str],
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (line, text, doc) in &masked.comments {
        // Doc comments are rendered documentation: mentioning the
        // directive syntax there must not create (or misfire as) a live
        // escape.
        if *doc {
            continue;
        }
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("audit:allow(") {
            rest = &rest[pos + "audit:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rule_name = rest[..close].trim().to_string();
            let after = &rest[close + 1..];
            rest = after;
            let justified = after
                .trim_start()
                .strip_prefix(':')
                .map(|j| !j.trim().is_empty())
                .unwrap_or(false);
            let rule = Rule::parse(&rule_name);
            let target_line = allow_target_line(*line, masked_lines);
            match rule {
                Some(rule) if justified => allows.push(Allow {
                    line: *line,
                    target_line,
                    rule,
                    justified,
                }),
                Some(rule) => out.violations.push(Violation {
                    file: rel_path.to_string(),
                    line: *line,
                    rule: Rule::A0,
                    message: format!(
                        "audit:allow({}) without a `: justification` tail",
                        rule.name()
                    ),
                    snippet: src_lines
                        .get(line.saturating_sub(1))
                        .map(|l| l.trim().to_string())
                        .unwrap_or_default(),
                }),
                None => out.violations.push(Violation {
                    file: rel_path.to_string(),
                    line: *line,
                    rule: Rule::A0,
                    message: format!("audit:allow({rule_name}) names an unknown rule"),
                    snippet: src_lines
                        .get(line.saturating_sub(1))
                        .map(|l| l.trim().to_string())
                        .unwrap_or_default(),
                }),
            }
        }
    }
    allows
}

/// The code line an allow on `line` targets: its own line if it carries
/// code, else the next line that does.
fn allow_target_line(line: usize, masked_lines: &[&str]) -> usize {
    let own = masked_lines
        .get(line - 1)
        .map(|l| !l.trim().is_empty())
        .unwrap_or(false);
    if own {
        return line;
    }
    for (i, l) in masked_lines.iter().enumerate().skip(line) {
        if !l.trim().is_empty() {
            return i + 1;
        }
    }
    line
}

/// Identifiers declared (lexically) with a `HashMap`/`HashSet` type or
/// initialiser anywhere in the file: `name: HashMap<…>` (fields, params)
/// and `let [mut] name … = HashMap::…` / `HashSet::…` (bindings).
///
/// This is per-file and flow-insensitive by design: a map returned from
/// another module is invisible here. That blind spot is covered
/// dynamically — the determinism test suite byte-diffs repeated campaign
/// runs, which any hash-order leak perturbs.
fn collect_hash_idents(toks: &[SpannedTok]) -> Vec<String> {
    let mut names = Vec::new();
    let is_hash = |t: &Tok| t.is_ident("HashMap") || t.is_ident("HashSet");
    for i in 0..toks.len() {
        // name : [&] [mut] HashMap
        if toks[i].tok == Tok::P(':') && i >= 1 {
            if let Tok::Ident(name) = &toks[i - 1].tok {
                let mut j = i + 1;
                while toks
                    .get(j)
                    .is_some_and(|t| t.tok == Tok::P('&') || t.tok.is_ident("mut"))
                {
                    j += 1;
                }
                // Allow one path segment: std::collections::HashMap.
                while toks.get(j).is_some_and(|t| matches!(t.tok, Tok::Ident(_)))
                    && toks.get(j + 1).map(|t| &t.tok) == Some(&Tok::P2("::"))
                {
                    j += 2;
                }
                if toks.get(j).is_some_and(|t| is_hash(&t.tok)) {
                    names.push(name.clone());
                }
            }
        }
        // let [mut] name … = … HashMap/HashSet … ;   (same statement)
        if toks[i].tok.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.tok.is_ident("mut")) {
                j += 1;
            }
            if let Some(Tok::Ident(name)) = toks.get(j).map(|t| &t.tok) {
                let mut k = j + 1;
                while let Some(t) = toks.get(k) {
                    if t.tok == Tok::P(';') {
                        break;
                    }
                    if is_hash(&t.tok) {
                        names.push(name.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// If the `for` at `toks[i]` loops directly over a hash-typed identifier
/// (`for … in [&] [mut] NAME {`), returns the name and line.
fn for_loop_over(toks: &[SpannedTok], i: usize, hash_idents: &[String]) -> Option<(String, usize)> {
    // Find the `in` at this loop's top level (patterns contain no `in`).
    let mut j = i + 1;
    let mut depth = 0i32;
    loop {
        let t = toks.get(j)?;
        match &t.tok {
            Tok::P('(') | Tok::P('[') => depth += 1,
            Tok::P(')') | Tok::P(']') => depth -= 1,
            Tok::P('{') => return None, // body reached without `in`
            Tok::Ident(id) if id == "in" && depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    j += 1;
    while toks
        .get(j)
        .is_some_and(|t| t.tok == Tok::P('&') || t.tok.is_ident("mut"))
    {
        j += 1;
    }
    let name = match &toks.get(j)?.tok {
        Tok::Ident(n) => n.clone(),
        _ => return None,
    };
    if toks.get(j + 1)?.tok != Tok::P('{') {
        return None; // `for x in map.keys()` etc. — caught by method rule
    }
    if hash_idents.contains(&name) {
        Some((name, toks[j].line))
    } else {
        None
    }
}

/// Lines covered by a `#[cfg(test)]` item (attribute through matching
/// closing brace), computed on masked source so braces in strings or
/// comments cannot unbalance the match.
fn cfg_test_lines(masked: &str, toks: &[SpannedTok]) -> std::collections::BTreeSet<usize> {
    let mut lines = std::collections::BTreeSet::new();
    // Find `# [ cfg ( test ) ]` token runs.
    let mut i = 0;
    while i < toks.len() {
        let is_attr = toks[i].tok == Tok::P('#')
            && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::P('['))
            && toks.get(i + 2).is_some_and(|t| t.tok.is_ident("cfg"))
            && toks.get(i + 3).map(|t| &t.tok) == Some(&Tok::P('('))
            && toks.get(i + 4).is_some_and(|t| t.tok.is_ident("test"))
            && toks.get(i + 5).map(|t| &t.tok) == Some(&Tok::P(')'))
            && toks.get(i + 6).map(|t| &t.tok) == Some(&Tok::P(']'));
        if !is_attr {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // Scan forward to the item's opening `{` (or terminating `;` for
        // `mod tests;` / `use` items), then brace-match.
        let mut j = i + 7;
        let mut end_line = start_line;
        while let Some(t) = toks.get(j) {
            match t.tok {
                Tok::P(';') => {
                    end_line = t.line;
                    break;
                }
                Tok::P('{') => {
                    let mut depth = 1i32;
                    let mut k = j + 1;
                    while let Some(u) = toks.get(k) {
                        match u.tok {
                            Tok::P('{') => depth += 1,
                            Tok::P('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    end_line = u.line;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if end_line == start_line {
                        end_line = masked.lines().count();
                    }
                    break;
                }
                _ => {
                    end_line = t.line;
                }
            }
            j += 1;
        }
        for l in start_line..=end_line {
            lines.insert(l);
        }
        i = j + 1;
    }
    lines
}
