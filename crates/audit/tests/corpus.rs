//! The analyzer's fixture corpus: positive and negative examples per rule.
//!
//! Each fixture in `tests/fixtures/` is real Rust source holding deliberate
//! violations (or deliberate near-misses). The files live under a
//! `fixtures/` directory precisely because the workspace walker skips that
//! name — `self_audit.rs` proves the corpus never leaks into the real
//! audit. Here each fixture is fed to [`bsld_audit::audit_source`] under a
//! *synthetic* workspace-relative path, because the path decides which
//! rules apply (crate scoping, lib/test/bin classification).

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use bsld_audit::{audit_source, FileAudit, Rule};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Audits a fixture as if it sat at `rel_path` in the workspace.
fn audit_as(name: &str, rel_path: &str) -> FileAudit {
    audit_source(rel_path, &fixture(name))
}

fn lines_of(fa: &FileAudit, rule: Rule) -> Vec<usize> {
    fa.violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn d1_flags_hash_iteration_in_critical_crates() {
    let fa = audit_as("d1_pos.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        lines_of(&fa, Rule::D1),
        vec![6, 11, 18, 22],
        "direct .values(), for-loop, .drain(), .keys() must all fire: {:?}",
        fa.violations
    );
    assert_eq!(fa.violations.len(), 4, "nothing else fires");
}

#[test]
fn d1_is_scoped_to_determinism_critical_crates() {
    // The same source in a crate whose artifacts are not replayed
    // byte-for-byte (the audit tool itself) is exempt.
    let fa = audit_as("d1_pos.rs", "crates/audit/src/fixture.rs");
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
}

#[test]
fn d1_ignores_keyed_access_ordered_maps_and_trapped_text() {
    let fa = audit_as("d1_neg.rs", "crates/core/src/fixture.rs");
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
}

#[test]
fn d2_flags_clock_entropy_and_env_reads() {
    // Bench code has no exemption: a `bench` crate or a `benches/`
    // directory is library code like any other.
    for rel in [
        "crates/swf/src/fixture.rs",
        "crates/bench/src/fixture.rs",
        "crates/core/benches/fixture.rs",
    ] {
        let fa = audit_as("d2_pos.rs", rel);
        let lines = lines_of(&fa, Rule::D2);
        for expected in [5, 9, 13, 17] {
            assert!(
                lines.contains(&expected),
                "{rel}: line {expected} must fire: {:?}",
                fa.violations
            );
        }
        assert_eq!(
            fa.violations.len(),
            lines.len(),
            "{rel}: only D2 fires in this fixture"
        );
    }
}

#[test]
fn d2_ignores_names_in_strings_and_comments() {
    let fa = audit_as("d2_neg.rs", "crates/swf/src/fixture.rs");
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
}

#[test]
fn d2_is_exempt_in_bins_tests_and_par() {
    for rel in [
        "crates/core/src/bin/fixture.rs",
        "crates/swf/tests/fixture.rs",
        "crates/par/src/fixture.rs",
    ] {
        let fa = audit_as("d2_pos.rs", rel);
        assert!(
            lines_of(&fa, Rule::D2).is_empty(),
            "{rel}: {:?}",
            fa.violations
        );
    }
}

#[test]
fn n1_flags_float_literal_equality_on_either_side() {
    let fa = audit_as("n1_pos.rs", "crates/model/src/fixture.rs");
    assert_eq!(
        lines_of(&fa, Rule::N1),
        vec![4, 8, 12, 16],
        "{:?}",
        fa.violations
    );
}

#[test]
fn n1_ignores_ints_ranges_method_calls_and_strings() {
    let fa = audit_as("n1_neg.rs", "crates/model/src/fixture.rs");
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
}

#[test]
fn n2_flags_lossy_casts_in_ledger_scope_only() {
    let fa = audit_as("n2_pos.rs", "crates/power/src/fixture.rs");
    assert_eq!(
        lines_of(&fa, Rule::N2),
        vec![4, 8, 12],
        "{:?}",
        fa.violations
    );
    // Same source outside the N2 scope: silent.
    let fa = audit_as("n2_pos.rs", "crates/sched/src/fixture.rs");
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
}

#[test]
fn n2_ignores_lossless_widening_and_trapped_text() {
    let fa = audit_as("n2_neg.rs", "crates/power/src/fixture.rs");
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
}

#[test]
fn r1_flags_panic_paths_including_multiline_chains() {
    let fa = audit_as("r1_pos.rs", "crates/model/src/fixture.rs");
    let lines = lines_of(&fa, Rule::R1);
    for expected in [4, 8, 12, 20] {
        assert!(
            lines.contains(&expected),
            "line {expected} must fire (the chain's .unwrap() sits on its own line): {:?}",
            fa.violations
        );
    }
}

#[test]
fn r1_is_silent_in_cfg_test_modules_and_test_files() {
    let fa = audit_as("r1_neg.rs", "crates/model/src/fixture.rs");
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
    // A whole integration-test file is exempt even with live unwraps.
    let fa = audit_as("r1_pos.rs", "crates/model/tests/fixture.rs");
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
}

#[test]
fn justified_allows_suppress_in_both_forms() {
    // N2 must be live at this path for the standalone allow to bind.
    let fa = audit_as("allow_ok.rs", "crates/power/src/fixture.rs");
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
    assert_eq!(fa.suppressed.len(), 2, "{:?}", fa.suppressed);
    assert!(fa.unused_allows.is_empty(), "{:?}", fa.unused_allows);
}

#[test]
fn defective_allows_fail_loudly() {
    let fa = audit_as("allow_bad.rs", "crates/power/src/fixture.rs");
    let a0 = lines_of(&fa, Rule::A0);
    assert_eq!(
        a0.len(),
        2,
        "unjustified + unknown-rule: {:?}",
        fa.violations
    );
    // An unjustified allow does not suppress its target…
    assert!(!lines_of(&fa, Rule::R1).is_empty(), "{:?}", fa.violations);
    // …nor does an unknown-rule allow.
    assert!(!lines_of(&fa, Rule::N2).is_empty(), "{:?}", fa.violations);
    // A justified allow matching nothing is reported as stale.
    assert_eq!(fa.unused_allows.len(), 1, "{:?}", fa.unused_allows);
}
