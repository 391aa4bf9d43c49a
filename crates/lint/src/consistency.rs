//! Cross-file contract checks: C1 (ErrCode, request verbs and frame
//! opcodes ↔ protocol doc), C2 (the typed metric catalog ↔ protocol doc),
//! C3 (vendored dependency allowlist).
//!
//! These rules take file *contents* (plus their workspace-relative paths
//! for diagnostics), so fixture tests can drive them with synthetic
//! documents; [`crate::run_check`] feeds them the real sources.

use crate::Finding;

// ----------------------------------------------------------------------
// C1 — ErrCode variants vs the protocol doc's error-code table
// ----------------------------------------------------------------------

/// Cross-checks the `ErrCode` wire tokens of `proto_src` against the error
/// code table of `doc`, both directions.
pub fn check_errcode_docs(
    proto_path: &str,
    proto_src: &str,
    doc_path: &str,
    doc: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let code_tokens = errcode_wire_tokens(proto_src);
    let doc_tokens = doc_errcode_rows(doc);
    if code_tokens.is_empty() {
        findings.push(Finding {
            file: proto_path.to_string(),
            line: 0,
            rule: "C1",
            message: "found no `=> \"<token>\"` wire-token arms (ErrCode::as_str moved?)"
                .to_string(),
        });
        return findings;
    }
    for (token, line) in &code_tokens {
        if !doc_tokens.iter().any(|(t, _)| t == token) {
            findings.push(Finding {
                file: proto_path.to_string(),
                line: *line,
                rule: "C1",
                message: format!(
                    "ErrCode wire token `{token}` is not in the error-code table of {doc_path}"
                ),
            });
        }
    }
    for (token, line) in &doc_tokens {
        if !code_tokens.iter().any(|(t, _)| t == token) {
            findings.push(Finding {
                file: doc_path.to_string(),
                line: *line,
                rule: "C1",
                message: format!(
                    "documented error code `{token}` has no ErrCode variant in {proto_path}"
                ),
            });
        }
    }
    findings
}

/// `=> "token"` arms (the `ErrCode::as_str` body) with their 1-based lines.
fn errcode_wire_tokens(src: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("=> \"") else {
            continue;
        };
        let rest = &line[pos + 4..];
        let Some(end) = rest.find('"') else {
            continue;
        };
        let token = &rest[..end];
        if is_wire_token(token) {
            out.push((token.to_string(), idx + 1));
        }
    }
    out
}

/// Error-code table rows (`| \`token\` | ... |`) of the section introduced
/// by a line containing "Error codes", up to the next `##` heading.
fn doc_errcode_rows(doc: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, line) in doc.lines().enumerate() {
        if line.contains("Error codes") {
            in_section = true;
            continue;
        }
        if in_section && line.starts_with("##") {
            break;
        }
        if !in_section {
            continue;
        }
        if let Some(token) = line.trim().strip_prefix("| `") {
            if let Some(end) = token.find('`') {
                let token = &token[..end];
                if is_wire_token(token) {
                    out.push((token.to_string(), idx + 1));
                }
            }
        }
    }
    out
}

/// Wire tokens are lowercase kebab-case (`bad-request`, `overload`).
fn is_wire_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().next().is_some_and(|b| b.is_ascii_lowercase())
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
}

// ----------------------------------------------------------------------
// C1 — request verbs vs the protocol doc's request headings
// ----------------------------------------------------------------------

/// Cross-checks the wire verbs of `Request::opcode` in `proto_src`
/// against the ``### `VERB ...` `` request headings of `doc`, both
/// directions — a verb the daemon dispatches must have a normative
/// section, and a documented verb must still exist in code.
pub fn check_verb_docs(
    proto_path: &str,
    proto_src: &str,
    doc_path: &str,
    doc: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let verbs = opcode_verbs(proto_src);
    if verbs.is_empty() {
        findings.push(Finding {
            file: proto_path.to_string(),
            line: 0,
            rule: "C1",
            message: "found no `=> \"<VERB>\"` arms inside `fn opcode` (Request::opcode moved?)"
                .to_string(),
        });
        return findings;
    }
    let headings = doc_verb_headings(doc);
    for (verb, line) in &verbs {
        if !headings.iter().any(|(v, _)| v == verb) {
            findings.push(Finding {
                file: proto_path.to_string(),
                line: *line,
                rule: "C1",
                message: format!(
                    "request verb `{verb}` has no `### `{verb}`` section in {doc_path}"
                ),
            });
        }
    }
    for (verb, line) in &headings {
        if !verbs.iter().any(|(v, _)| v == verb) {
            findings.push(Finding {
                file: doc_path.to_string(),
                line: *line,
                rule: "C1",
                message: format!(
                    "documented request verb `{verb}` has no Request::opcode arm in {proto_path}"
                ),
            });
        }
    }
    findings
}

/// The `=> "VERB"` arms between `fn opcode` and the closing brace of its
/// match, with their 1-based lines.
fn opcode_verbs(src: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_fn = false;
    for (idx, line) in src.lines().enumerate() {
        if line.contains("fn opcode") {
            in_fn = true;
            continue;
        }
        if !in_fn {
            continue;
        }
        if line.trim() == "}" {
            break;
        }
        let Some(pos) = line.find("=> \"") else {
            continue;
        };
        let rest = &line[pos + 4..];
        let Some(end) = rest.find('"') else {
            continue;
        };
        let token = &rest[..end];
        if is_verb_token(token) {
            out.push((token.to_string(), idx + 1));
        }
    }
    out
}

/// The leading verb of every ``### `VERB ...` `` heading.
fn doc_verb_headings(doc: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let Some(rest) = line.strip_prefix("### `") else {
            continue;
        };
        let Some(end) = rest.find('`') else {
            continue;
        };
        let verb = rest[..end].split_whitespace().next().unwrap_or("");
        if is_verb_token(verb) {
            out.push((verb.to_string(), idx + 1));
        }
    }
    out
}

/// Wire verbs are uppercase words, query verbs with a trailing `?`
/// (`TICK`, `SCHEDULE?`). `OP_*` frame names (underscores) are not verbs.
fn is_verb_token(s: &str) -> bool {
    let body = s.strip_suffix('?').unwrap_or(s);
    !body.is_empty() && body.bytes().all(|b| b.is_ascii_uppercase())
}

// ----------------------------------------------------------------------
// C1 — frame opcode constants vs the protocol doc's opcode table
// ----------------------------------------------------------------------

/// Cross-checks the `const OP_*` opcode constants of `framing_src` against
/// the opcode table rows of `doc` (`| \`0xNN\` | \`OP_NAME\` | ...`), both
/// directions, numeric values included — a client trusting the spec must
/// put the byte the server actually dispatches on.
pub fn check_opcode_docs(
    framing_path: &str,
    framing_src: &str,
    doc_path: &str,
    doc: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let code = framing_opcodes(framing_src);
    if code.is_empty() {
        findings.push(Finding {
            file: framing_path.to_string(),
            line: 0,
            rule: "C1",
            message: "found no `const OP_<NAME>: u8 = 0x..;` opcode constants (framing \
                      module moved?)"
                .to_string(),
        });
        return findings;
    }
    let rows = doc_opcode_rows(doc);
    for (name, value, line) in &code {
        match rows.iter().find(|(n, _, _)| n == name) {
            None => findings.push(Finding {
                file: framing_path.to_string(),
                line: *line,
                rule: "C1",
                message: format!("frame opcode `{name}` is not in the opcode table of {doc_path}"),
            }),
            Some((_, documented, _)) if documented != value => findings.push(Finding {
                file: framing_path.to_string(),
                line: *line,
                rule: "C1",
                message: format!(
                    "frame opcode `{name}` is `{value}` in code but `{documented}` in {doc_path}"
                ),
            }),
            Some(_) => {}
        }
    }
    for (name, _, line) in &rows {
        if !code.iter().any(|(n, _, _)| n == name) {
            findings.push(Finding {
                file: doc_path.to_string(),
                line: *line,
                rule: "C1",
                message: format!("documented opcode `{name}` has no constant in {framing_path}"),
            });
        }
    }
    findings
}

/// `const OP_<NAME>: u8 = <value>;` declarations (any visibility) with
/// their 1-based lines, as `(name, value, line)`.
fn framing_opcodes(src: &str) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("const OP_") else {
            continue;
        };
        let rest = &line[pos + "const ".len()..];
        let Some((name, after)) = rest.split_once(':') else {
            continue;
        };
        let Some((_, value)) = after.split_once('=') else {
            continue;
        };
        let value = value.trim().trim_end_matches(';').trim();
        if !value.is_empty() {
            out.push((name.trim().to_string(), value.to_string(), idx + 1));
        }
    }
    out
}

/// Opcode table rows: `| \`0xNN\` | \`OP_NAME\` | ...` anywhere in the doc,
/// as `(name, value, line)`.
fn doc_opcode_rows(doc: &str) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let trimmed = line.trim();
        if !trimmed.starts_with("| `0x") {
            continue;
        }
        let mut ticked = trimmed.split('`');
        let (value, name) = (ticked.nth(1), ticked.nth(1));
        if let (Some(value), Some(name)) = (value, name) {
            if name.starts_with("OP_") {
                out.push((name.to_string(), value.to_string(), idx + 1));
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// C2 — metric catalog vs the protocol doc's Metrics schema table
// ----------------------------------------------------------------------

/// One metric family as declared on either side of the schema contract:
/// name, kind, and label key (empty = none).
struct SchemaEntry {
    name: String,
    kind: String,
    label: String,
    line: usize,
}

/// Cross-checks the `CATALOG` of `crates/metrics/src/catalog.rs` against
/// the `## Metrics schema` table of the protocol doc: every family must be
/// documented with the same kind and label (and vice versa); names must
/// follow the unit-suffix rules; labels must come from the schema
/// vocabulary.
pub fn check_metrics_schema(
    catalog_path: &str,
    catalog_src: &str,
    doc_path: &str,
    doc: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let code = catalog_entries(catalog_src);
    if code.is_empty() {
        findings.push(Finding {
            file: catalog_path.to_string(),
            line: 0,
            rule: "C2",
            message: "found no counter(/gauge(/gauge_max(/histogram( entries (CATALOG moved?)"
                .to_string(),
        });
        return findings;
    }
    let rows = doc_schema_rows(doc);
    if rows.is_empty() {
        findings.push(Finding {
            file: doc_path.to_string(),
            line: 0,
            rule: "C2",
            message: "found no `| `haste_...` |` rows under a `## Metrics schema` heading"
                .to_string(),
        });
        return findings;
    }

    for entry in &code {
        findings.extend(schema_shape_findings(catalog_path, entry));
        match rows.iter().find(|row| row.name == entry.name) {
            None => findings.push(Finding {
                file: catalog_path.to_string(),
                line: entry.line,
                rule: "C2",
                message: format!(
                    "metric `{}` is not in the Metrics schema table of {doc_path}",
                    entry.name
                ),
            }),
            Some(row) => {
                for (field, ours, documented) in [
                    ("kind", &entry.kind, &row.kind),
                    ("label", &entry.label, &row.label),
                ] {
                    if ours != documented {
                        findings.push(Finding {
                            file: catalog_path.to_string(),
                            line: entry.line,
                            rule: "C2",
                            message: format!(
                                "metric `{}` has {field} `{ours}` in the catalog but \
                                 `{documented}` in {doc_path}",
                                entry.name
                            ),
                        });
                    }
                }
            }
        }
    }
    for row in &rows {
        if !code.iter().any(|entry| entry.name == row.name) {
            findings.push(Finding {
                file: doc_path.to_string(),
                line: row.line,
                rule: "C2",
                message: format!(
                    "documented metric `{}` has no CATALOG entry in {catalog_path}",
                    row.name
                ),
            });
        }
    }

    findings
}

/// The naming rules of the schema: `haste_`-prefixed snake_case, counters
/// end `_total`, histograms carry a unit suffix (`_us`/`_records`), gauges
/// name the unit they count, labels come from the fixed vocabulary.
fn schema_shape_findings(catalog_path: &str, entry: &SchemaEntry) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut flag = |message: String| {
        findings.push(Finding {
            file: catalog_path.to_string(),
            line: entry.line,
            rule: "C2",
            message,
        })
    };
    if !entry.name.starts_with("haste_") || !is_metric_name(&entry.name) {
        flag(format!(
            "metric `{}` does not match the `haste_<subsystem>_<name>_<unit>` naming schema",
            entry.name
        ));
    }
    let suffix_ok = match entry.kind.as_str() {
        "counter" => entry.name.ends_with("_total"),
        "histogram" => entry.name.ends_with("_us") || entry.name.ends_with("_records"),
        "gauge" => ["_slots", "_tasks", "_threads", "_shards"]
            .iter()
            .any(|suffix| entry.name.ends_with(suffix)),
        _ => true, // unknown kinds surface as a kind mismatch against the doc
    };
    if !suffix_ok {
        flag(format!(
            "metric `{}` violates the {} unit-suffix rule of the naming schema",
            entry.name, entry.kind
        ));
    }
    if !matches!(
        entry.label.as_str(),
        "" | "cell" | "opcode" | "err_code" | "tenant"
    ) {
        flag(format!(
            "metric `{}` uses label `{}` outside the schema vocabulary (cell, opcode, \
             err_code, tenant)",
            entry.name, entry.label
        ));
    }
    findings
}

/// Metric names are lowercase snake_case (`haste_engine_clock_slots`).
fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().next().is_some_and(|b| b.is_ascii_lowercase())
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// The `counter(`/`gauge(`/`gauge_max(`/`histogram(` entries of the
/// catalog source, one per line (the CATALOG is formatted that way on
/// purpose). Arguments are positional string literals: name, label,
/// help.
fn catalog_entries(src: &str) -> Vec<SchemaEntry> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        let kind = if trimmed.starts_with("counter(\"") {
            "counter"
        } else if trimmed.starts_with("gauge(\"") || trimmed.starts_with("gauge_max(\"") {
            "gauge"
        } else if trimmed.starts_with("histogram(\"") {
            "histogram"
        } else {
            continue;
        };
        let literals: Vec<&str> = trimmed
            .split('"')
            .enumerate()
            .filter_map(|(i, part)| (i % 2 == 1).then_some(part))
            .collect();
        // name, label, help — the trailing help text is not schema.
        let [name, label, _help, ..] = literals.as_slice() else {
            continue;
        };
        out.push(SchemaEntry {
            name: name.to_string(),
            label: label.to_string(),
            kind: kind.to_string(),
            line: idx + 1,
        });
    }
    out
}

/// Rows of the `## Metrics schema` table, up to the next `## ` heading:
/// `| \`name\` | kind | \`label\` | help |` with `—` for an absent
/// label.
fn doc_schema_rows(doc: &str) -> Vec<SchemaEntry> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, line) in doc.lines().enumerate() {
        if line.starts_with("## ") && line.contains("Metrics schema") {
            in_section = true;
            continue;
        }
        if in_section && line.starts_with("## ") {
            break;
        }
        if !in_section {
            continue;
        }
        let trimmed = line.trim();
        if !trimmed.starts_with("| `haste_") {
            continue;
        }
        let cells: Vec<String> = trimmed
            .trim_matches('|')
            .split('|')
            .map(|cell| cell.trim().trim_matches('`').to_string())
            .collect();
        let [name, kind, label, ..] = cells.as_slice() else {
            continue;
        };
        out.push(SchemaEntry {
            name: name.clone(),
            kind: kind.clone(),
            label: if label == "—" {
                String::new()
            } else {
                label.clone()
            },
            line: idx + 1,
        });
    }
    out
}

// ----------------------------------------------------------------------
// C3 — vendored dependency allowlist
// ----------------------------------------------------------------------

/// The manifest inventory [`check_vendor_allowlist`] audits: file contents
/// keyed by workspace-relative path, plus the `vendor/` directory listing.
pub struct ManifestSet {
    /// `("Cargo.toml", <content>)` — the workspace root manifest.
    pub root: (String, String),
    /// Member manifests (`crates/*/Cargo.toml`, `vendor/*/Cargo.toml`).
    pub members: Vec<(String, String)>,
    /// Directory names under `vendor/`.
    pub vendor_dirs: Vec<String>,
}

/// Enforces the offline-build contract over the manifest inventory:
/// workspace dependencies must resolve to `crates/` or `vendor/` paths,
/// member dependencies must be `workspace = true` or in-tree paths, and
/// every `vendor/` directory must be referenced (from the workspace
/// allowlist or by a sibling vendored crate).
pub fn check_vendor_allowlist(set: &ManifestSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    let (root_path, root_src) = &set.root;

    let mut allowlisted_vendor = Vec::new();
    for entry in toml_dependency_entries(root_src, "workspace.dependencies") {
        match entry.path_value() {
            Some(path) if path.starts_with("crates/") => {}
            Some(path) if path.starts_with("vendor/") => {
                allowlisted_vendor.push(path["vendor/".len()..].to_string());
            }
            Some(path) => findings.push(Finding {
                file: root_path.clone(),
                line: entry.line,
                rule: "C3",
                message: format!(
                    "workspace dependency `{}` points outside the tree (`{path}`)",
                    entry.name
                ),
            }),
            None => findings.push(Finding {
                file: root_path.clone(),
                line: entry.line,
                rule: "C3",
                message: format!(
                    "workspace dependency `{}` has no in-tree `path` — it would resolve to \
                     crates.io, which cannot build offline",
                    entry.name
                ),
            }),
        }
    }

    for (member_path, member_src) in &set.members {
        for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
            for entry in toml_dependency_entries(member_src, section) {
                let ok = entry.value.contains("workspace = true") || entry.path_value().is_some();
                if !ok {
                    findings.push(Finding {
                        file: member_path.clone(),
                        line: entry.line,
                        rule: "C3",
                        message: format!(
                            "dependency `{}` is neither `workspace = true` nor an in-tree \
                             path — it would resolve to crates.io, which cannot build \
                             offline",
                            entry.name
                        ),
                    });
                }
            }
        }
    }

    for dir in &set.vendor_dirs {
        let referenced = allowlisted_vendor.contains(dir)
            || set.members.iter().any(|(path, src)| {
                path.starts_with("vendor/") && src.contains(&format!("path = \"../{dir}\""))
            });
        if !referenced {
            findings.push(Finding {
                file: format!("vendor/{dir}/Cargo.toml"),
                line: 0,
                rule: "C3",
                message: format!(
                    "vendored crate `{dir}` is not on the workspace dependency allowlist \
                     of {root_path} and no vendored sibling depends on it"
                ),
            });
        }
    }

    findings
}

/// One `name = <value>` entry of a dependency section.
struct DepEntry {
    name: String,
    value: String,
    line: usize,
}

impl DepEntry {
    /// The `path = "..."` value, if the entry has one.
    fn path_value(&self) -> Option<&str> {
        let rest = self.value.split("path = \"").nth(1)?;
        rest.split('"').next()
    }
}

/// Entries of one `[section]` of a (simple, inline-table style) manifest.
/// Dotted sub-tables (`[dependencies.foo]`) are not in this workspace's
/// style and are not parsed.
fn toml_dependency_entries(src: &str, section: &str) -> Vec<DepEntry> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, line) in src.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_section = trimmed == format!("[{section}]");
            continue;
        }
        if !in_section || trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let Some((name, value)) = trimmed.split_once('=') else {
            continue;
        };
        out.push(DepEntry {
            name: name.trim().to_string(),
            value: value.trim().to_string(),
            line: idx + 1,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROTO: &str = r#"
        impl ErrCode {
            pub fn as_str(self) -> &'static str {
                match self {
                    ErrCode::BadRequest => "bad-request",
                    ErrCode::Overload => "overload",
                }
            }
        }
    "#;

    const DOC: &str = "\
# protocol

Error codes:

| Code | Meaning |
|---|---|
| `bad-request` | Malformed. |
| `overload` | Full. |

## Requests

### `CLOCK?`

Reply: `OK slot=<clock> open=<0|1>`.

### `BYE`
";

    #[test]
    fn errcode_consistency_passes_on_matching_sets() {
        assert!(check_errcode_docs("p.rs", PROTO, "d.md", DOC).is_empty());
    }

    #[test]
    fn errcode_mismatches_fire_both_directions() {
        let proto_extra = PROTO.replace(
            "ErrCode::Overload => \"overload\",",
            "ErrCode::Overload => \"overload\",\nErrCode::Oops => \"oops\",",
        );
        let f = check_errcode_docs("p.rs", &proto_extra, "d.md", DOC);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`oops`"), "{f:?}");
        assert_eq!(f[0].file, "p.rs");

        let doc_extra = DOC.replace(
            "| `overload` | Full. |",
            "| `overload` | Full. |\n| `ghost` | Gone. |",
        );
        let f = check_errcode_docs("p.rs", PROTO, "d.md", &doc_extra);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`ghost`"), "{f:?}");
        assert_eq!(f[0].file, "d.md");
    }

    const VERBS: &str = r#"
        impl Request {
            pub fn opcode(&self) -> &'static str {
                match self {
                    Request::Hello(_) => "HELLO",
                    Request::Clock => "CLOCK?",
                    Request::Bye => "BYE",
                }
            }
        }
    "#;

    #[test]
    fn verb_consistency_passes_on_matching_sets() {
        // DOC has `### `CLOCK?`` and `### `BYE`` headings; add HELLO.
        let doc = DOC.replace("## Requests\n", "## Requests\n\n### `HELLO <version>`\n");
        let f = check_verb_docs("p.rs", VERBS, "d.md", &doc);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn verb_mismatches_fire_both_directions() {
        let doc = DOC.replace("## Requests\n", "## Requests\n\n### `HELLO <version>`\n");
        let code_extra = VERBS.replace(
            "Request::Bye => \"BYE\",",
            "Request::Bye => \"BYE\",\nRequest::Tenant { .. } => \"TENANT\",",
        );
        let f = check_verb_docs("p.rs", &code_extra, "d.md", &doc);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`TENANT`"), "{f:?}");
        assert_eq!(f[0].file, "p.rs");

        let doc_extra = doc + "\n### `RESHARD SPLIT <cell>`\n";
        let f = check_verb_docs("p.rs", VERBS, "d.md", &doc_extra);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`RESHARD`"), "{f:?}");
        assert_eq!(f[0].file, "d.md");
    }

    #[test]
    fn verb_scan_ignores_arms_outside_fn_opcode() {
        // `=> "OK"` in a Reply::serialize body must not register as a verb.
        let code = VERBS.to_string()
            + r#"
        impl Reply {
            pub fn serialize(&self) -> String {
                match self {
                    Reply::Empty => "OK",
                }
            }
        }
    "#;
        let doc = DOC.replace("## Requests\n", "## Requests\n\n### `HELLO <version>`\n");
        let f = check_verb_docs("p.rs", &code, "d.md", &doc);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_opcode_arms_are_a_finding_not_a_pass() {
        let f = check_verb_docs("p.rs", "// nothing here\n", "d.md", DOC);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("fn opcode"), "{f:?}");
    }

    const FRAMING: &str = "\
/// Client→server: a text request.
pub(crate) const OP_TEXT: u8 = 0x01;
/// Server→client: a text reply.
pub(crate) const OP_REPLY: u8 = 0x81;
";

    const OPDOC: &str = "\
# protocol

## Protocol v3

| Opcode | Name | Direction |
|---|---|---|
| `0x01` | `OP_TEXT` | client → server |
| `0x81` | `OP_REPLY` | server → client |
";

    #[test]
    fn opcode_consistency_passes_on_matching_sets() {
        assert!(check_opcode_docs("f.rs", FRAMING, "d.md", OPDOC).is_empty());
    }

    #[test]
    fn opcode_mismatches_fire_both_directions_and_on_values() {
        let code_extra = format!("{FRAMING}pub(crate) const OP_PING: u8 = 0x03;\n");
        let f = check_opcode_docs("f.rs", &code_extra, "d.md", OPDOC);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`OP_PING`"), "{f:?}");
        assert_eq!(f[0].file, "f.rs");

        let doc_extra = OPDOC.to_string() + "| `0x03` | `OP_GHOST` | client → server |\n";
        let f = check_opcode_docs("f.rs", FRAMING, "d.md", &doc_extra);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`OP_GHOST`"), "{f:?}");
        assert_eq!(f[0].file, "d.md");

        let doc_wrong = OPDOC.replace("| `0x81` | `OP_REPLY` |", "| `0x82` | `OP_REPLY` |");
        let f = check_opcode_docs("f.rs", FRAMING, "d.md", &doc_wrong);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`0x81` in code but `0x82`"), "{f:?}");
    }

    #[test]
    fn missing_opcode_constants_are_a_finding_not_a_pass() {
        let f = check_opcode_docs("f.rs", "// nothing here\n", "d.md", OPDOC);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("opcode constants"), "{f:?}");
    }

    const CATALOG: &str = r#"
pub const CATALOG: &[MetricSpec] = &[
    counter("haste_service_requests_total", "opcode", "Requests."),
    histogram("haste_service_request_duration_us", "opcode", "Latency."),
    gauge_max("haste_engine_clock_slots", "", "Clock."),
    counter("haste_engine_greedy_us_total", "", "Greedy time."),
];
"#;

    /// The fixture protocol doc plus a matching `## Metrics schema` table.
    fn schema_doc() -> String {
        DOC.to_string()
            + "\n## Metrics schema\n\n\
               | Family | Kind | Label | Meaning |\n\
               |---|---|---|---|\n\
               | `haste_service_requests_total` | counter | `opcode` | Requests. |\n\
               | `haste_service_request_duration_us` | histogram | `opcode` | Latency. |\n\
               | `haste_engine_clock_slots` | gauge | — | Clock. |\n\
               | `haste_engine_greedy_us_total` | counter | — | Greedy time. |\n"
    }

    #[test]
    fn metrics_schema_passes_on_matching_sets() {
        let doc = schema_doc();
        let f = check_metrics_schema("c.rs", CATALOG, "d.md", &doc);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn metrics_schema_mismatches_fire_both_directions() {
        let extra = CATALOG.replace(
            "counter(\"haste_service_requests_total\", \"opcode\", \"Requests.\"),",
            "counter(\"haste_service_requests_total\", \"opcode\", \"Requests.\"),\n    \
             counter(\"haste_service_drops_total\", \"\", \"Drops.\"),",
        );
        let doc = schema_doc();
        let f = check_metrics_schema("c.rs", &extra, "d.md", &doc);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("`haste_service_drops_total`"),
            "{f:?}"
        );
        assert_eq!(f[0].file, "c.rs");

        let doc_extra = doc + "| `haste_router_ghost_total` | counter | — | Ghost. |\n";
        let f = check_metrics_schema("c.rs", CATALOG, "d.md", &doc_extra);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`haste_router_ghost_total`"), "{f:?}");
        assert_eq!(f[0].file, "d.md");
    }

    #[test]
    fn metrics_schema_field_mismatches_fire() {
        let doc = schema_doc().replace(
            "| `haste_service_request_duration_us` | histogram | `opcode` |",
            "| `haste_service_request_duration_us` | histogram | `cell` |",
        );
        let f = check_metrics_schema("c.rs", CATALOG, "d.md", &doc);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message
                .contains("label `opcode` in the catalog but `cell`"),
            "{f:?}"
        );
    }

    #[test]
    fn metrics_schema_unit_suffix_and_label_rules_fire() {
        let bad = CATALOG.replace(
            "histogram(\"haste_service_request_duration_us\", \"opcode\", \"Latency.\"),",
            "histogram(\"haste_service_request_duration\", \"shard\", \"Latency.\"),",
        );
        let doc = schema_doc().replace(
            "| `haste_service_request_duration_us` | histogram | `opcode` |",
            "| `haste_service_request_duration` | histogram | `shard` |",
        );
        let f = check_metrics_schema("c.rs", &bad, "d.md", &doc);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|f| f.message.contains("unit-suffix")), "{f:?}");
        assert!(
            f.iter().any(|f| f.message.contains("schema vocabulary")),
            "{f:?}"
        );
    }

    #[test]
    fn missing_catalog_entries_are_a_finding_not_a_pass() {
        let f = check_metrics_schema("c.rs", "// nothing here\n", "d.md", &schema_doc());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("CATALOG"), "{f:?}");
    }

    #[test]
    fn missing_schema_table_is_a_finding_not_a_pass() {
        let f = check_metrics_schema("c.rs", CATALOG, "d.md", DOC);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Metrics schema"), "{f:?}");
        assert_eq!(f[0].file, "d.md");
    }

    fn base_set() -> ManifestSet {
        ManifestSet {
            root: (
                "Cargo.toml".to_string(),
                "[workspace.dependencies]\n\
                 haste-model = { path = \"crates/model\" }\n\
                 rand = { path = \"vendor/rand\", default-features = false }\n"
                    .to_string(),
            ),
            members: vec![(
                "crates/model/Cargo.toml".to_string(),
                "[dependencies]\nrand = { workspace = true }\n".to_string(),
            )],
            vendor_dirs: vec!["rand".to_string()],
        }
    }

    #[test]
    fn vendor_allowlist_passes_on_clean_set() {
        assert!(check_vendor_allowlist(&base_set()).is_empty());
    }

    #[test]
    fn bare_version_workspace_dep_fires() {
        let mut set = base_set();
        set.root.1.push_str("serde_json = \"1.0\"\n");
        let f = check_vendor_allowlist(&set);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`serde_json`"), "{f:?}");
    }

    #[test]
    fn bare_version_member_dep_fires() {
        let mut set = base_set();
        set.members[0].1.push_str("regex = \"1\"\n");
        let f = check_vendor_allowlist(&set);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`regex`"), "{f:?}");
    }

    #[test]
    fn unreferenced_vendor_dir_fires_unless_a_sibling_uses_it() {
        let mut set = base_set();
        set.vendor_dirs.push("orphan".to_string());
        let f = check_vendor_allowlist(&set);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`orphan`"), "{f:?}");

        set.members.push((
            "vendor/rand/Cargo.toml".to_string(),
            "[dependencies]\norphan = { path = \"../orphan\" }\n".to_string(),
        ));
        assert!(check_vendor_allowlist(&set).is_empty());
    }
}
