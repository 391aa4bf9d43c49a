//! `haste-lint`: the workspace static-analysis pass.
//!
//! Zero external dependencies — the tree is walked with `std::fs` and every
//! rule is line/token-level matching, so the pass runs in milliseconds and
//! builds anywhere the workspace does (including fully offline). Run it as
//!
//! ```sh
//! cargo run -p haste-lint -- check
//! ```
//!
//! Rules (see `docs/lints.md` and `haste-lint -- --explain <rule>`):
//!
//! * **D1/D2/D3** — determinism: no std hash collections, no wall-clock
//!   reads outside SolverMetrics timing, no non-shortest-roundtrip float
//!   formatting in serialization paths.
//! * **P1** — panic-safety: no panicking constructs in daemon
//!   request-handling code.
//! * **C1/C2/C3** — contract consistency: `ErrCode`, request verbs and
//!   frame opcodes ↔ protocol doc, the typed metric catalog ↔ the
//!   protocol doc's `Metrics schema` table, vendored dependency
//!   allowlist.
//! * **L1/L2/L3** — concurrency safety over `crates/service` +
//!   `crates/parallel`: acyclic lock-order graph, no blocking call while
//!   a mutex guard is live, every socket acquisition covered by a
//!   deadline.
//! * **S0/S1** — suppression hygiene (malformed / unused
//!   `// haste-lint: allow(...)` comments).
//!
//! The scanners live in [`source`] (per-file D/P/S rules), [`concurrency`]
//! (the token-level L rules, on [`parse`]), and [`consistency`]
//! (cross-file C rules); [`run_check`] wires them to a real workspace
//! tree. [`sarif`] renders a [`CheckReport`] as SARIF 2.1.0; [`baseline`]
//! implements the finding-fingerprint accept list.

use std::fs;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod catalog;
pub mod concurrency;
pub mod consistency;
pub mod parse;
pub mod sarif;
pub mod source;

pub use consistency::{
    check_errcode_docs, check_metrics_schema, check_opcode_docs, check_vendor_allowlist,
    check_verb_docs, ManifestSet,
};
pub use source::{scan_source, scan_source_extra, scan_source_report, SuppressedFinding};

/// One diagnostic. Renders as `file:line rule message` (line 0 — a
/// file/workspace-level finding — renders without the line).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    /// Stable rule id (`D1`).
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{} {} {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{} {} {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// A full check run: surviving findings plus the suppressed ones (SARIF
/// output reports both, marking the latter `suppressed`).
#[derive(Debug, Default)]
pub struct CheckReport {
    pub findings: Vec<Finding>,
    pub suppressed: Vec<SuppressedFinding>,
}

/// Runs every rule against the workspace rooted at `root`. Findings come
/// back sorted by `(file, line, rule)`; an empty vector means the tree is
/// lint-clean. IO problems (unreadable contract files) surface as findings
/// rather than errors so CI gets one uniform failure mode.
pub fn run_check(root: &Path) -> Vec<Finding> {
    run_check_report(root).findings
}

/// Runs only the concurrency rules (plus the shared suppression
/// machinery) over in-memory `(path, content)` pairs — the entry point
/// for fixture tests. D/P findings the fixture source would also trigger
/// are filtered out, so each planted violation exercises exactly its
/// rule.
pub fn check_concurrency(files: &[(String, String)]) -> Vec<Finding> {
    let extra = concurrency::analyze(files);
    let mut findings = Vec::new();
    for (path, content) in files {
        let hits: Vec<Finding> = extra.iter().filter(|f| &f.file == path).cloned().collect();
        findings.extend(
            source::scan_source_extra(path, content, &hits)
                .into_iter()
                .filter(|f| matches!(f.rule, "L1" | "L2" | "L3" | "S0" | "S1")),
        );
    }
    findings.sort();
    findings
}

/// [`run_check`], but also reporting what the suppressions absorbed.
pub fn run_check_report(root: &Path) -> CheckReport {
    let mut report = CheckReport::default();
    let findings = &mut report.findings;

    // Phase 1: read every tracked source file under crates/ once — the
    // concurrency rules resolve calls across files, so they need the
    // whole set before any per-file scan.
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in rust_sources(&root.join("crates")) {
        let rel = relative(&path, root);
        // The linter's own sources and fixtures spell the forbidden tokens.
        if rel.starts_with("crates/lint/") {
            continue;
        }
        match fs::read_to_string(&path) {
            Ok(content) => sources.push((rel, content)),
            Err(e) => findings.push(Finding {
                file: rel,
                line: 0,
                rule: "S0",
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    let concurrency_hits = concurrency::analyze(&sources);

    // Phase 2: per-file D/P/S scan, with that file's concurrency hits
    // merged in before suppression absorption (one `allow(L2)` both
    // silences the hit and counts as used for S1).
    for (rel, content) in &sources {
        let extra: Vec<Finding> = concurrency_hits
            .iter()
            .filter(|f| &f.file == rel)
            .cloned()
            .collect();
        let file_report = source::scan_source_report(rel, content, &extra);
        findings.extend(file_report.findings);
        report.suppressed.extend(file_report.suppressed);
    }
    let findings = &mut report.findings;

    // C1/C2: the protocol contract files. The request verbs and error
    // codes of proto.rs, the framing module's opcode constants and the
    // metric catalog are each held to their table in the doc.
    const PROTO: &str = "crates/service/src/proto.rs";
    const FRAMING: &str = "crates/service/src/framing.rs";
    const METRICS_CATALOG: &str = "crates/metrics/src/catalog.rs";
    const DOC: &str = "docs/service_protocol.md";
    match (
        read_rel(root, PROTO),
        read_rel(root, FRAMING),
        read_rel(root, METRICS_CATALOG),
        read_rel(root, DOC),
    ) {
        (Ok(proto), Ok(framing), Ok(catalog), Ok(doc)) => {
            findings.extend(consistency::check_errcode_docs(PROTO, &proto, DOC, &doc));
            findings.extend(consistency::check_verb_docs(PROTO, &proto, DOC, &doc));
            findings.extend(consistency::check_opcode_docs(FRAMING, &framing, DOC, &doc));
            findings.extend(consistency::check_metrics_schema(
                METRICS_CATALOG,
                &catalog,
                DOC,
                &doc,
            ));
        }
        (proto, framing, catalog, doc) => {
            for (rel, result) in [
                (PROTO, proto),
                (FRAMING, framing),
                (METRICS_CATALOG, catalog),
                (DOC, doc),
            ] {
                if let Err(e) = result {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: 0,
                        rule: "C1",
                        message: format!("contract file is unreadable: {e}"),
                    });
                }
            }
        }
    }

    // C3: the manifest inventory.
    match read_rel(root, "Cargo.toml") {
        Ok(root_manifest) => {
            let mut members = Vec::new();
            for base in ["crates", "vendor"] {
                for dir in subdirectories(&root.join(base)) {
                    let manifest = dir.join("Cargo.toml");
                    if let Ok(content) = fs::read_to_string(&manifest) {
                        members.push((relative(&manifest, root), content));
                    }
                }
            }
            let vendor_dirs = subdirectories(&root.join("vendor"))
                .iter()
                .filter_map(|d| d.file_name().map(|n| n.to_string_lossy().into_owned()))
                .collect();
            findings.extend(consistency::check_vendor_allowlist(&ManifestSet {
                root: ("Cargo.toml".to_string(), root_manifest),
                members,
                vendor_dirs,
            }));
        }
        Err(e) => findings.push(Finding {
            file: "Cargo.toml".to_string(),
            line: 0,
            rule: "C3",
            message: format!("workspace manifest is unreadable: {e}"),
        }),
    }

    findings.sort();
    report.suppressed.sort();
    report
}

/// Walks upward from `start` to the enclosing workspace root (the first
/// directory whose `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(content) = fs::read_to_string(&manifest) {
            if content.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// All `.rs` files under `base`, recursively, in sorted order (the walk
/// order must not depend on directory-entry order, which the filesystem
/// does not define). `target/` subtrees are skipped.
fn rust_sources(base: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![base.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Immediate subdirectories of `base`, sorted.
fn subdirectories(base: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(base) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    out
}

fn relative(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn read_rel(root: &Path, rel: &str) -> std::io::Result<String> {
    fs::read_to_string(root.join(rel))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_formats() {
        let f = Finding {
            file: "crates/x/src/lib.rs".to_string(),
            line: 12,
            rule: "D1",
            message: "msg".to_string(),
        };
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:12 D1 msg");
        let f = Finding { line: 0, ..f };
        assert_eq!(f.to_string(), "crates/x/src/lib.rs D1 msg");
    }
}
