//! Line/token-level scanning of `.rs` sources: the D (determinism) and
//! P (panic-safety) rules, plus the suppression machinery (S rules).
//!
//! The scanner is deliberately syntactic — no parsing, no type information.
//! Each line is split into a code part and a comment part (tracking block
//! comments and string literals across the line), rules match tokens in the
//! code part, and suppressions live in the comment part. False positives
//! are expected to be rare and carry an escape hatch: a scoped
//! `// haste-lint: allow(<rule>) — <reason>` comment.

use crate::{catalog, Finding};

/// One parsed suppression comment.
#[derive(Debug)]
struct Suppression {
    /// 1-based line of the comment.
    line: usize,
    /// Upper-cased rule ids this suppression names.
    rules: Vec<&'static str>,
    /// `allow-file` (whole file) vs `allow` (this line or the next).
    file_scope: bool,
    /// The written justification after the rule list.
    reason: String,
    /// Set once the suppression absorbs at least one finding.
    used: bool,
}

/// A raw (pre-suppression) rule hit.
struct Hit {
    line: usize,
    rule: &'static str,
    message: String,
}

/// A finding absorbed by a suppression comment, with its justification —
/// SARIF output reports these as `suppressed` results.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SuppressedFinding {
    pub finding: Finding,
    pub justification: String,
}

/// The full result of scanning one file: surviving findings plus the
/// suppressed ones (for SARIF's suppression status).
#[derive(Debug, Default)]
pub struct ScanReport {
    pub findings: Vec<Finding>,
    pub suppressed: Vec<SuppressedFinding>,
}

/// Scans one source file. `path` is the workspace-relative path with `/`
/// separators — rule scoping keys off it, so fixture tests can present
/// synthetic content under any path they like.
pub fn scan_source(path: &str, content: &str) -> Vec<Finding> {
    scan_source_extra(path, content, &[])
}

/// [`scan_source`] with externally-computed hits (the cross-file
/// concurrency rules) merged in *before* suppression absorption, so one
/// `allow(L2)` comment both silences the hit and counts as used for S1.
pub fn scan_source_extra(path: &str, content: &str, extra: &[Finding]) -> Vec<Finding> {
    scan_source_report(path, content, extra).findings
}

/// The full scan pipeline: parse suppressions, run the per-line rules,
/// merge `extra` hits, absorb suppressions (recording justifications),
/// and emit S1 for unused suppressions.
pub fn scan_source_report(path: &str, content: &str, extra: &[Finding]) -> ScanReport {
    let lines = split_lines(content);
    let mut suppressions = Vec::new();
    let mut report = ScanReport::default();

    for line in &lines {
        if let Some(comment) = &line.comment {
            if comment.contains("haste-lint:") {
                match parse_suppression(comment) {
                    Ok((rules, file_scope, reason)) => suppressions.push(Suppression {
                        line: line.number,
                        rules,
                        file_scope,
                        reason,
                        used: false,
                    }),
                    Err(reason) => report.findings.push(Finding {
                        file: path.to_string(),
                        line: line.number,
                        rule: "S0",
                        message: reason,
                    }),
                }
            }
        }
    }

    // P1 exempts everything from the first `#[cfg(test)]` on: by workspace
    // convention test modules sit at the end of the file.
    let test_tail_start = lines
        .iter()
        .find(|l| l.code.trim() == "#[cfg(test)]")
        .map_or(usize::MAX, |l| l.number);

    let mut hits = Vec::new();
    for line in &lines {
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        if in_d_scope(path) {
            rule_d1(code, line.number, &mut hits);
            rule_d2(code, line.number, &mut hits);
        }
        if in_d3_scope(path) {
            rule_d3(code, line.number, &mut hits);
        }
        if in_p1_scope(path) && line.number < test_tail_start {
            rule_p1(code, line.number, &mut hits);
        }
    }
    for f in extra {
        hits.push(Hit {
            line: f.line,
            rule: f.rule,
            message: f.message.clone(),
        });
    }

    for hit in hits {
        let mut justification = None;
        for s in suppressions.iter_mut() {
            let applies = s.rules.contains(&hit.rule)
                && (s.file_scope || s.line == hit.line || s.line + 1 == hit.line);
            if applies {
                s.used = true;
                if justification.is_none() {
                    justification = Some(s.reason.clone());
                }
            }
        }
        let finding = Finding {
            file: path.to_string(),
            line: hit.line,
            rule: hit.rule,
            message: hit.message,
        };
        match justification {
            Some(justification) => report.suppressed.push(SuppressedFinding {
                finding,
                justification,
            }),
            None => report.findings.push(finding),
        }
    }

    for s in &suppressions {
        if !s.used {
            report.findings.push(Finding {
                file: path.to_string(),
                line: s.line,
                rule: "S1",
                message: format!(
                    "suppression for {} matched no finding; delete the stale comment",
                    s.rules.join(", ")
                ),
            });
        }
    }

    report.findings.sort();
    report.suppressed.sort();
    report
}

// ----------------------------------------------------------------------
// Rule scopes
// ----------------------------------------------------------------------

/// Paths exempt from every source rule: measurement harnesses whose whole
/// point is wall-clock latency, and the linter itself (its rule tables
/// spell the forbidden tokens).
fn exempt(path: &str) -> bool {
    path.starts_with("crates/bench/")
        || path.starts_with("crates/lint/")
        || path == "crates/service/src/loadgen.rs"
}

fn in_d_scope(path: &str) -> bool {
    path.starts_with("crates/") && path.ends_with(".rs") && !exempt(path)
}

/// The serialization paths whose float formatting is the determinism
/// anchor. `framing.rs` belongs here even though its floats cross as raw
/// IEEE-754 bits: every *text* byte it emits (`OP_REPLY` bodies, batch-ack
/// messages) must come from the same Display paths as the text protocol.
/// So does `front.rs`, the transport that writes every reply.
const D3_FILES: &[&str] = &[
    "crates/model/src/io.rs",
    "crates/distributed/src/engine.rs",
    "crates/service/src/proto.rs",
    "crates/service/src/server.rs",
    "crates/service/src/router.rs",
    "crates/service/src/framing.rs",
    "crates/service/src/front.rs",
    "crates/service/src/wal.rs",
    "crates/service/src/oplog.rs",
];

fn in_d3_scope(path: &str) -> bool {
    D3_FILES.contains(&path)
}

fn in_p1_scope(path: &str) -> bool {
    path.starts_with("crates/service/src/") && path.ends_with(".rs") && !exempt(path)
}

// ----------------------------------------------------------------------
// Rules
// ----------------------------------------------------------------------

fn rule_d1(code: &str, line: usize, hits: &mut Vec<Hit>) {
    for token in ["HashMap", "HashSet"] {
        if code.contains(token) {
            hits.push(Hit {
                line,
                rule: "D1",
                message: format!(
                    "`{token}` iterates in RandomState order; use the BTree equivalent \
                     (bit-identical output is the determinism contract)"
                ),
            });
        }
    }
}

fn rule_d2(code: &str, line: usize, hits: &mut Vec<Hit>) {
    for token in ["Instant::now", "SystemTime"] {
        if code.contains(token) {
            hits.push(Hit {
                line,
                rule: "D2",
                message: format!(
                    "`{token}` reads the wall clock; only SolverMetrics phase timing may \
                     (suppress with the metrics-timing reason if this is such a site)"
                ),
            });
        }
    }
}

fn rule_d3(code: &str, line: usize, hits: &mut Vec<Hit>) {
    for token in ["{:?}", "{:#?}", "{:.", "{:e}", "{:E}"] {
        if code.contains(token) {
            hits.push(Hit {
                line,
                rule: "D3",
                message: format!(
                    "`{token}` formatting in a serialization path; floats must use bare \
                     `{{}}` Display (shortest roundtrip is the snapshot anchor)"
                ),
            });
        }
    }
}

fn rule_p1(code: &str, line: usize, hits: &mut Vec<Hit>) {
    for token in [
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ] {
        if code.contains(token) {
            hits.push(Hit {
                line,
                rule: "P1",
                message: format!(
                    "`{token}` can panic in a request path; reply `ERR <code>` instead \
                     (match/`?` on the failure)"
                ),
            });
        }
    }
    for index in literal_indexes(code) {
        hits.push(Hit {
            line,
            rule: "P1",
            message: format!(
                "literal slice index `[{index}]` panics when out of bounds; destructure \
                 with a slice pattern or use `.get({index})`"
            ),
        });
    }
}

/// Finds `expr[<integer literal>]` occurrences: a `[` directly after an
/// identifier character, `)`, or `]`, whose bracketed content is all digits
/// (underscores allowed). Identifier indexes (`v[i]`) are out of scope —
/// the common request-path hazard is positional field access.
fn literal_indexes(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        let indexable =
            prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']';
        if !indexable {
            continue;
        }
        let Some(close) = code[i + 1..].find(']') else {
            continue;
        };
        let inner = &code[i + 1..i + 1 + close];
        if !inner.is_empty() && inner.bytes().all(|c| c.is_ascii_digit() || c == b'_') {
            out.push(inner.to_string());
        }
    }
    out
}

// ----------------------------------------------------------------------
// Suppression parsing
// ----------------------------------------------------------------------

/// Parses the body of a `haste-lint:` comment into (rule ids, file_scope,
/// reason). Errors are S0 messages.
fn parse_suppression(comment: &str) -> Result<(Vec<&'static str>, bool, String), String> {
    let Some(rest) = comment.split("haste-lint:").nth(1) else {
        return Err("unparsable haste-lint comment".to_string());
    };
    let rest = rest.trim_start();
    let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow(") {
        (false, r)
    } else {
        return Err("haste-lint comment must be `allow(<rules>) — <reason>` or \
             `allow-file(<rules>) — <reason>`"
            .to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed rule list in haste-lint suppression".to_string());
    };
    let mut rules = Vec::new();
    for key in rest[..close].split(',') {
        let key = key.trim();
        match catalog::rule(key) {
            Some(info) => rules.push(info.id),
            None => return Err(format!("unknown rule `{key}` in haste-lint suppression")),
        }
    }
    if rules.is_empty() {
        return Err("empty rule list in haste-lint suppression".to_string());
    }
    let reason = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['-', '—', '–'])
        .trim();
    if reason.is_empty() {
        return Err(
            "haste-lint suppression needs a reason: `allow(<rules>) — <reason>`".to_string(),
        );
    }
    Ok((rules, file_scope, reason.to_string()))
}

// ----------------------------------------------------------------------
// Code / comment splitting
// ----------------------------------------------------------------------

/// One physical line, split into code and (line-)comment parts.
struct Line {
    /// 1-based line number.
    number: usize,
    /// The non-comment part (string literals kept; block-comment content
    /// blanked out).
    code: String,
    /// The `//...` comment text, if any.
    comment: Option<String>,
}

/// Splits a file into [`Line`]s, tracking block comments (nesting included)
/// and string literals across the whole file. Heuristic, not a lexer: raw
/// strings and char literals containing `"` can misclassify a tail — every
/// rule match still has the suppression escape hatch.
fn split_lines(content: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut block_depth = 0usize;
    for (idx, raw) in content.lines().enumerate() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = None;
        let bytes = raw.as_bytes();
        let mut i = 0;
        let mut in_string = false;
        while i < bytes.len() {
            let b = bytes[i];
            if block_depth > 0 {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    block_depth -= 1;
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    block_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if in_string {
                if b == b'\\' {
                    i += 2;
                    continue;
                }
                if b == b'"' {
                    in_string = false;
                }
                code.push(b as char);
                i += 1;
                continue;
            }
            match b {
                b'"' => {
                    in_string = true;
                    code.push('"');
                    i += 1;
                }
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    comment = Some(raw[i + 2..].to_string());
                    break;
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    block_depth += 1;
                    i += 2;
                }
                _ => {
                    // Push the full UTF-8 scalar so multi-byte characters
                    // survive the round-trip.
                    let ch_len = utf8_len(b);
                    code.push_str(&raw[i..i + ch_len]);
                    i += ch_len;
                }
            }
        }
        lines.push(Line {
            number: idx + 1,
            code,
            comment,
        });
    }
    lines
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn comment_mentions_do_not_fire() {
        let src = "// a doc mention of Instant::now and .unwrap() is fine\nlet x = 1;\n";
        assert!(scan_source("crates/service/src/server.rs", src).is_empty());
    }

    #[test]
    fn block_comments_are_blanked() {
        let src = "/* Instant::now()\n   .unwrap() */\nlet x = 1;\n";
        assert!(scan_source("crates/service/src/server.rs", src).is_empty());
    }

    #[test]
    fn string_content_still_matches() {
        // Token rules intentionally look inside string literals: a format
        // string carrying `{:?}` is exactly the D3 hazard.
        let src = "let s = format!(\"{:?}\", x);\n";
        assert_eq!(
            rules_of(&scan_source("crates/model/src/io.rs", src)),
            ["D3"]
        );
    }

    #[test]
    fn line_suppression_applies_to_same_and_next_line() {
        let inline = "let t = Instant::now(); // haste-lint: allow(D2) — metrics timing\n";
        assert!(scan_source("crates/core/src/x.rs", inline).is_empty());
        let above = "// haste-lint: allow(D2) — metrics timing\nlet t = Instant::now();\n";
        assert!(scan_source("crates/core/src/x.rs", above).is_empty());
    }

    #[test]
    fn suppression_does_not_reach_two_lines_down() {
        let src =
            "// haste-lint: allow(D2) — metrics timing\nlet a = 1;\nlet t = Instant::now();\n";
        let findings = scan_source("crates/core/src/x.rs", src);
        // The D2 hit survives and the suppression is now unused (findings
        // sort by line, so the line-1 S1 comes first).
        assert_eq!(rules_of(&findings), ["S1", "D2"]);
    }

    #[test]
    fn file_scope_suppression_covers_everything() {
        let src = "// haste-lint: allow-file(D2) — bench-only harness file\n\
                   let a = Instant::now();\nlet b = Instant::now();\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn bad_suppressions_are_s0_and_suppress_nothing() {
        for comment in [
            "// haste-lint: allow(D2)\n",        // no reason
            "// haste-lint: allow(Z9) — nope\n", // unknown rule
            "// haste-lint: allow() — nope\n",   // empty list
            "// haste-lint: deny(D2) — nope\n",  // unknown verb
            "// haste-lint: allow(D2 — nope\n",  // unclosed
        ] {
            let src = format!("{comment}let t = Instant::now();\n");
            let findings = scan_source("crates/core/src/x.rs", &src);
            assert_eq!(rules_of(&findings), ["S0", "D2"], "for {comment:?}");
        }
    }

    #[test]
    fn suppression_accepts_slugs_and_lists() {
        let src = "// haste-lint: allow(wallclock, D1) — test helper uses both\n\
                   let t = (Instant::now(), HashSet::new());\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn p1_exempts_the_test_tail() {
        let src = "fn f(v: &[u32]) -> u32 { v[0] }\n#[cfg(test)]\nmod tests {\n\
                   fn g(v: &[u32]) -> u32 { v[1].checked_add(1).unwrap() }\n}\n";
        let findings = scan_source("crates/service/src/server.rs", src);
        assert_eq!(rules_of(&findings), ["P1"]);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn literal_index_detection() {
        assert_eq!(
            literal_indexes("rest[0] + x[12] + y[1_000]"),
            ["0", "12", "1_000"]
        );
        assert!(literal_indexes("v[i] + [0u8; 4] + #[cfg(test)]").is_empty());
        assert_eq!(literal_indexes("f(x)[3]"), ["3"]);
    }

    #[test]
    fn d3_and_p1_cover_the_framing_module() {
        // Binary framing emits reply text too — its formatting is as much
        // a determinism anchor as the text protocol's, and it runs inside
        // request handling, so both scopes must include it.
        let src = "let s = format!(\"{:?}\", x).unwrap();\n";
        assert_eq!(
            rules_of(&scan_source("crates/service/src/framing.rs", src)),
            ["D3", "P1"]
        );
        // The front door writes every reply of both daemons.
        assert_eq!(
            rules_of(&scan_source("crates/service/src/front.rs", src)),
            ["D3", "P1"]
        );
    }

    #[test]
    fn d3_and_p1_cover_the_wal_module() {
        // WAL records round-trip through the same shortest-roundtrip
        // float Display as the wire protocol (the record codec lives in
        // the operation-log module), and the append path runs inside
        // request handling: recovery bit-identity rests on both scopes
        // covering the durability layer.
        let src = "let s = format!(\"{:?}\", x).unwrap();\n";
        for path in ["crates/service/src/wal.rs", "crates/service/src/oplog.rs"] {
            assert_eq!(
                rules_of(&scan_source(path, src)),
                ["D3", "P1"],
                "for {path}"
            );
        }
    }

    #[test]
    fn p1_covers_the_supervision_paths() {
        // The out-of-process machinery is request-handling code too: a
        // panic in the supervisor or the shard daemon takes a whole cell
        // (or the router) down, so P1 must keep covering these files.
        let src = "fn f(v: &[u32]) -> u32 { v.first().copied().unwrap() }\n";
        for path in [
            "crates/service/src/supervisor.rs",
            "crates/service/src/bin/shardd.rs",
            "crates/service/src/bin/routerd.rs",
        ] {
            assert_eq!(rules_of(&scan_source(path, src)), ["P1"], "for {path}");
        }
    }

    #[test]
    fn out_of_scope_paths_are_ignored() {
        let src = "let t = Instant::now(); let m = HashMap::new(); x.unwrap();\n";
        assert!(scan_source("crates/bench/src/bin/fig01.rs", src).is_empty());
        assert!(scan_source("crates/service/src/loadgen.rs", src).is_empty());
        // P1 outside crates/service never fires; D rules still do.
        let findings = scan_source("crates/model/src/x.rs", src);
        assert_eq!(rules_of(&findings), ["D1", "D2"]);
    }
}
