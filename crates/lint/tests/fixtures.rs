//! Fixture tests: each `tests/fixtures/` file must trigger exactly the
//! rule it is named for (and the clean fixtures none), so every rule in
//! the catalog is demonstrably live and a regression in any matcher fails
//! here rather than silently passing dirty trees in CI.

use haste_lint::{
    check_concurrency, check_errcode_docs, check_metrics_schema, check_vendor_allowlist,
    scan_source, Finding, ManifestSet,
};

/// Loads a fixture by file name.
macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("fixtures/", $name))
    };
}

/// Asserts every finding is `rule` and there is at least one.
fn assert_only_rule(findings: &[Finding], rule: &str) {
    assert!(
        !findings.is_empty(),
        "expected {rule} findings, fixture came back clean"
    );
    for finding in findings {
        assert_eq!(finding.rule, rule, "expected only {rule}, got {finding}");
    }
}

#[test]
fn d1_fixture_triggers_exactly_d1() {
    let findings = scan_source(
        "crates/model/src/fixture.rs",
        fixture!("d1_hash_collections.rs"),
    );
    assert_only_rule(&findings, "D1");
    assert_eq!(findings.len(), 3, "{findings:?}"); // use, signature, constructor
}

#[test]
fn d2_fixture_triggers_exactly_d2() {
    let findings = scan_source("crates/core/src/fixture.rs", fixture!("d2_wallclock.rs"));
    assert_only_rule(&findings, "D2");
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn d3_fixture_triggers_exactly_d3() {
    // D3 is path-scoped to the serialization files, so the fixture is
    // presented as the model io module.
    let findings = scan_source("crates/model/src/io.rs", fixture!("d3_float_format.rs"));
    assert_only_rule(&findings, "D3");
    assert_eq!(findings.len(), 2, "{findings:?}"); // {:?} and {:.
}

#[test]
fn d3_does_not_apply_outside_serialization_paths() {
    let findings = scan_source(
        "crates/model/src/coverage.rs",
        fixture!("d3_float_format.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn p1_fixture_triggers_exactly_p1() {
    let findings = scan_source(
        "crates/service/src/fixture.rs",
        fixture!("p1_service_panic.rs"),
    );
    assert_only_rule(&findings, "P1");
    // One literal index, one unwrap; the test-tail unwrap is exempt.
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn p1_does_not_apply_outside_the_service_crate() {
    let findings = scan_source(
        "crates/model/src/fixture.rs",
        fixture!("p1_service_panic.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn s0_fixture_triggers_exactly_s0() {
    let findings = scan_source(
        "crates/model/src/fixture.rs",
        fixture!("s0_bad_suppression.rs"),
    );
    assert_only_rule(&findings, "S0");
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn s1_fixture_triggers_exactly_s1() {
    let findings = scan_source(
        "crates/model/src/fixture.rs",
        fixture!("s1_unused_suppression.rs"),
    );
    assert_only_rule(&findings, "S1");
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn clean_fixture_is_clean_under_every_scope() {
    for path in [
        "crates/model/src/io.rs",       // D1/D2/D3 scope
        "crates/service/src/server.rs", // D1/D2/D3/P1 scope
        "crates/core/src/fixture.rs",   // D1/D2 scope
    ] {
        let findings = scan_source(path, fixture!("clean.rs"));
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

#[test]
fn suppressed_fixture_is_clean() {
    let findings = scan_source(
        "crates/core/src/fixture.rs",
        fixture!("suppressed_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn c1_fixture_triggers_exactly_c1_both_directions() {
    let findings = check_errcode_docs(
        "crates/service/src/proto.rs",
        fixture!("c1_proto.rs"),
        "docs/service_protocol.md",
        fixture!("c1_doc.md"),
    );
    assert_only_rule(&findings, "C1");
    assert_eq!(findings.len(), 2, "{findings:?}");
    // `oops` is implemented but undocumented: the finding points at the code.
    assert!(findings
        .iter()
        .any(|f| f.file.ends_with("proto.rs") && f.message.contains("`oops`")));
    // `ghost` is documented but unimplemented: the finding points at the doc.
    assert!(findings
        .iter()
        .any(|f| f.file.ends_with(".md") && f.message.contains("`ghost`")));
}

#[test]
fn c2_schema_fixtures_trigger_exactly_c2() {
    let findings = check_metrics_schema(
        "crates/metrics/src/catalog.rs",
        fixture!("c2_schema_catalog.rs"),
        "docs/service_protocol.md",
        fixture!("c2_schema_doc.md"),
    );
    assert_only_rule(&findings, "C2");
    assert_eq!(findings.len(), 3, "{findings:?}");
    // `haste_engine_mystery_total` is in the catalog but not the table.
    assert!(findings
        .iter()
        .any(|f| f.file.ends_with("catalog.rs")
            && f.message.contains("`haste_engine_mystery_total`")));
    // The duration histogram is documented with the wrong label.
    assert!(findings.iter().any(|f| f
        .message
        .contains("label `opcode` in the catalog but `cell`")));
    // `haste_router_ghost_total` is documented but has no entry.
    assert!(findings
        .iter()
        .any(|f| f.file.ends_with(".md") && f.message.contains("`haste_router_ghost_total`")));
}

#[test]
fn c3_fixtures_trigger_exactly_c3() {
    let findings = check_vendor_allowlist(&ManifestSet {
        root: (
            "Cargo.toml".to_string(),
            fixture!("c3_workspace.toml").to_string(),
        ),
        members: vec![(
            "crates/model/Cargo.toml".to_string(),
            fixture!("c3_member.toml").to_string(),
        )],
        vendor_dirs: vec!["rand".to_string()],
    });
    assert_only_rule(&findings, "C3");
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("`serde_json`")));
    assert!(findings.iter().any(|f| f.message.contains("`regex`")));
}

// --- concurrency rules (L1/L2/L3) -----------------------------------------

/// Runs the concurrency-rule path over one in-memory fixture file. The
/// path places the fixture inside the analyzed scope
/// (`crates/service/src/`).
fn conc(content: &str) -> Vec<Finding> {
    check_concurrency(&[(
        "crates/service/src/fixture.rs".to_string(),
        content.to_string(),
    )])
}

#[test]
fn l1_fixture_triggers_exactly_l1() {
    let findings = conc(fixture!("l1_lock_cycle.rs"));
    assert_only_rule(&findings, "L1");
    assert_eq!(findings.len(), 1, "{findings:?}"); // one cycle, reported once
    let message = &findings[0].message;
    assert!(
        message.contains("left") && message.contains("right"),
        "cycle names both locks: {message}"
    );
    assert!(
        message.contains("fixture.rs:"),
        "cycle cites file:line per edge: {message}"
    );
}

#[test]
fn l2_fixture_triggers_exactly_l2() {
    let findings = conc(fixture!("l2_blocking_under_lock.rs"));
    assert_only_rule(&findings, "L2");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("sleep"), "{findings:?}");
}

#[test]
fn l2_suppression_absorbs_and_counts_as_used() {
    // The audited allow both silences the L2 and registers as used, so
    // no S1 fires either.
    let findings = conc(fixture!("l2_suppressed.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l3_fixture_triggers_exactly_l3() {
    let findings = conc(fixture!("l3_undeadlined_stream.rs"));
    assert_only_rule(&findings, "L3");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("deadline") || findings[0].message.contains("timeout"),
        "{findings:?}"
    );
}

#[test]
fn guard_dropped_fixture_is_clean() {
    // Scope-exit and explicit-drop guard deaths, plus a deadlined
    // stream: the false-positive guards for all three L rules.
    let findings = conc(fixture!("l_clean_guard_dropped.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn stale_l_allow_triggers_s1() {
    let findings = conc(fixture!("s1_stale_l_allow.rs"));
    assert_only_rule(&findings, "S1");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("L2"), "{findings:?}");
}
