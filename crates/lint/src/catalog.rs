//! The rule catalog: ids, rationale, and `--explain` text.
//!
//! Rule ids are short and stable (`D1`, `P1`, `C3`, …) because they are what
//! suppression comments name and what CI failures print. Each rule also has
//! a slug (`hash-collections`) accepted anywhere an id is.

/// Static metadata of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable short id (`D1`).
    pub id: &'static str,
    /// Human slug (`hash-collections`), accepted as an alias of the id.
    pub name: &'static str,
    /// One-line summary printed by `list`.
    pub summary: &'static str,
    /// Why the rule exists, printed by `--explain`.
    pub rationale: &'static str,
    /// What the rule scans, printed by `--explain`.
    pub scope: &'static str,
    /// A suppression example, printed by `--explain`.
    pub example: &'static str,
}

/// Every rule the analyzer knows, in catalog order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        name: "hash-collections",
        summary: "std hash collections are forbidden in deterministic crates",
        rationale: "std::collections::HashMap/HashSet iterate in RandomState order, which \
                    varies across processes. Solver output, snapshots, and negotiation \
                    traces must be bit-identical across runs, thread counts, and shards, \
                    so every collection whose iteration order can reach an output must be \
                    a BTreeMap/BTreeSet (or an index-ordered Vec).",
        scope: "all .rs files under crates/ except crates/bench, crates/lint, and \
                crates/service/src/loadgen.rs; test modules are NOT exempt (tests that \
                iterate a hash map can assert order-dependent facts flakily)",
        example: "// haste-lint: allow(D1) — keys are consumed unordered and never printed",
    },
    RuleInfo {
        id: "D2",
        name: "wallclock",
        summary: "wall-clock reads (Instant::now/SystemTime) are forbidden outside metrics timing",
        rationale: "Reading the wall clock inside solver or engine code lets physical time \
                    leak into algorithm decisions, breaking replay determinism. The only \
                    sanctioned use is measuring phase durations that feed SolverMetrics \
                    (timings are reported, never branched on); each such site carries a \
                    suppression naming that contract.",
        scope: "all .rs files under crates/ except crates/bench, crates/lint, and \
                crates/service/src/loadgen.rs (measurement harnesses)",
        example: "// haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state",
    },
    RuleInfo {
        id: "D3",
        name: "float-format",
        summary: "snapshot/io paths must format floats with bare `{}` (shortest roundtrip)",
        rationale: "The text formats are the determinism anchor: a snapshot must parse back \
                    to bit-identical f64s. Rust's `{}` Display prints the shortest string \
                    that round-trips exactly; `{:?}` differs in shape (`1.0` vs `1`), and \
                    precision (`{:.3}`) or exponent (`{:e}`) formats truncate. Any of them \
                    in a serialization path silently breaks restore bit-identity.",
        scope: "the serialization paths: crates/model/src/io.rs, \
                crates/distributed/src/engine.rs (snapshot writer), \
                crates/service/src/proto.rs, crates/service/src/server.rs, \
                crates/service/src/router.rs, crates/service/src/framing.rs \
                (binary frames carry verbatim reply text), crates/service/src/wal.rs, \
                and crates/service/src/oplog.rs (the record codec WAL frames and \
                the composite `ops` section share)",
        example: "// haste-lint: allow(D3) — error-message formatting, never parsed back",
    },
    RuleInfo {
        id: "P1",
        name: "service-panic",
        summary: "panicking constructs are forbidden in daemon request-handling code",
        rationale: "A panic in a connection handler kills that connection (and with a \
                    mutating request half-applied, can wedge the shared engine). The \
                    daemon's contract is `ERR <code>` for every failure, so request paths \
                    must not contain unwrap/expect/panic!/unreachable!/todo!/unimplemented! \
                    or literal slice indexing — use pattern matching and `?` instead. \
                    catch_unwind in the dispatcher is a backstop, not a license.",
        scope: "everything under crates/service/src/ except loadgen.rs — including the \
                supervision paths (supervisor.rs, bin/shardd.rs, bin/routerd.rs): a panic \
                in the supervisor takes the whole router down, not one connection; \
                everything from the first `#[cfg(test)]` line to end of file is exempt \
                (test modules sit last)",
        example: "// haste-lint: allow(P1) — index guarded by the arity check above",
    },
    RuleInfo {
        id: "C1",
        name: "errcode-docs",
        summary: "ErrCode variants and frame opcodes must match the protocol doc exactly",
        rationale: "Clients dispatch on the stable wire tokens of `ERR <code>` replies and \
                    on the opcode bytes of v3 frames. A variant or opcode missing from \
                    docs/service_protocol.md is an undocumented API; a documented one with \
                    no constant is a spec lie. The wire tokens in \
                    crates/service/src/proto.rs (and the `OP_*` constants in \
                    crates/service/src/framing.rs, numeric values included) must match the \
                    doc's tables, both directions.",
        scope: "crates/service/src/proto.rs `ErrCode::as_str` arms vs the `Error codes` \
                table of docs/service_protocol.md, and crates/service/src/framing.rs \
                `const OP_*` declarations vs the doc's v3 opcode table",
        example: "(not suppressible — fix the code or the doc)",
    },
    RuleInfo {
        id: "C2",
        name: "metrics-docs",
        summary: "metric families must match the protocol doc's schema table, both ways",
        rationale: "The `EXPORT?` exposition is a scrape surface: dashboards, the loadgen \
                    harness and perfbench parse it. Emitting a family the doc does not name \
                    ships an undocumented metric; documenting one the catalog does not \
                    declare breaks consumers that trust the spec. The typed catalog in \
                    crates/metrics/src/catalog.rs must match the doc's `Metrics schema` \
                    table — same kinds and labels — with names obeying the \
                    `haste_<subsystem>_<name>_<unit>` suffix rules and labels drawn from \
                    the schema vocabulary.",
        scope: "the `CATALOG` entries of crates/metrics/src/catalog.rs vs the \
                `## Metrics schema` table of docs/service_protocol.md",
        example: "(not suppressible — fix the code or the doc)",
    },
    RuleInfo {
        id: "C3",
        name: "vendor-allowlist",
        summary: "every dependency must resolve in-tree (crates/ or vendor/); no crates.io deps",
        rationale: "The workspace builds fully offline: every third-party crate is a \
                    vendored subset under vendor/. A version-only dependency would resolve \
                    to crates.io and fail in the build container; a vendored crate nothing \
                    references is dead weight that rots silently. Workspace dependencies \
                    must carry an in-tree path, member dependencies must say \
                    `workspace = true` (or an in-tree path), and every vendor/ directory \
                    must be reachable from the workspace dependency allowlist.",
        scope: "Cargo.toml (workspace.dependencies), crates/*/Cargo.toml and \
                vendor/*/Cargo.toml ([dependencies]/[dev-dependencies]/[build-dependencies]), \
                and the vendor/ directory listing",
        example: "(not suppressible — vendor the crate or drop the dependency)",
    },
    RuleInfo {
        id: "L1",
        name: "lock-order",
        summary: "the static lock-order graph must be acyclic",
        rationale: "Two threads acquiring the same locks in different orders can deadlock. \
                    The analyzer extracts every Mutex/RwLock acquisition (lock identity = \
                    field or static name), follows calls made while a guard is live, and \
                    fails on any cycle in the resulting acquisition-order graph — printing \
                    the offending chain with a file:line witness per edge. A self-edge \
                    (re-acquiring a lock already held, directly or through a callee) is a \
                    one-node cycle: with std's non-reentrant Mutex that is a guaranteed \
                    self-deadlock.",
        scope: "crates/service/src/ and crates/parallel/src/ (loadgen.rs and test modules \
                exempt); locks on different instances that share a field name share one \
                graph node (conservative)",
        example: "// haste-lint: allow(L1) — instances are disjoint: each cell has its own `inner`",
    },
    RuleInfo {
        id: "L2",
        name: "blocking-under-lock",
        summary: "no blocking call while a lock guard is live",
        rationale: "A blocking call under a lock stalls every thread that needs that lock \
                    for as long as the call takes — unbounded, if it is an undeadlined \
                    socket read or a `Child::wait`. The analyzer tracks live guards \
                    through each function body (let-bound guards until drop/scope end, \
                    temporaries until the statement ends) and flags socket/pipe I/O, \
                    `.wait()`, `.recv(..)`, `.output(..)`, and `sleep` — directly or \
                    through a resolved call chain. `Condvar::wait(&guard)` is exempt: \
                    releasing the lock while parked is its contract.",
        scope: "crates/service/src/ and crates/parallel/src/ (loadgen.rs and test modules \
                exempt); the router's lockstep-TICK sites and the supervisor's \
                per-cell-mutex request sites carry audited suppressions naming the \
                deadline that bounds the block",
        example: "// haste-lint: allow(L2) — per-request deadline bounds the block; \
                  serializing requests per cell is this mutex's purpose",
    },
    RuleInfo {
        id: "L3",
        name: "deadline-coverage",
        summary: "TCP streams must be acquired within sight of a read+write deadline",
        rationale: "A stream with no deadline turns a stuck peer into a stuck service: one \
                    wedged scrape or child daemon blocks its handler thread forever. Every \
                    function that acquires a stream (`TcpStream::connect`, \
                    `listener.accept()`) must call `set_read_timeout` and \
                    `set_write_timeout` (or `set_timeout`) itself or in a directly-called \
                    function. Coverage is depth-1 on purpose: a deadline set three calls \
                    away is an accident waiting for a refactor, not a policy.",
        scope: "crates/service/src/ and crates/parallel/src/ (loadgen.rs and test modules \
                exempt)",
        example: "// haste-lint: allow(L3) — deliberately undeadlined: replication stream \
                  blocks until the peer recovers",
    },
    RuleInfo {
        id: "S0",
        name: "bad-suppression",
        summary: "a haste-lint comment that does not parse",
        rationale: "A malformed suppression silently suppresses nothing; surfacing it as a \
                    finding keeps the suppression inventory honest. Valid forms: \
                    `// haste-lint: allow(D1) — <reason>` (this line or the line below) and \
                    `// haste-lint: allow-file(D1) — <reason>` (whole file). The rule list \
                    is comma-separated ids or slugs; the reason is mandatory.",
        scope: "every comment containing `haste-lint:` in scanned .rs files",
        example: "(fix the comment: name real rules and give a reason after an em-dash)",
    },
    RuleInfo {
        id: "S1",
        name: "unused-suppression",
        summary: "a suppression that matched no finding",
        rationale: "Suppressions are exemptions from the determinism/panic contracts; one \
                    that no longer suppresses anything misstates where the exemptions are. \
                    Delete it (the code it excused is gone) rather than leaving it to hide \
                    a future regression at that line.",
        scope: "every parsed suppression in scanned .rs files",
        example: "(delete the stale haste-lint comment)",
    },
];

/// Looks a rule up by id (`D1`) or slug (`hash-collections`), case-insensitive.
pub fn rule(key: &str) -> Option<&'static RuleInfo> {
    RULES
        .iter()
        .find(|r| r.id.eq_ignore_ascii_case(key) || r.name.eq_ignore_ascii_case(key))
}

/// Renders the `--explain` text for one rule.
pub fn explain(info: &RuleInfo) -> String {
    format!(
        "{} ({})\n  {}\n\nWhy:\n  {}\n\nScope:\n  {}\n\nSuppression:\n  {}\n",
        info.id, info.name, info.summary, info.rationale, info.scope, info.example
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_id_and_slug() {
        assert_eq!(rule("D1").unwrap().name, "hash-collections");
        assert_eq!(rule("hash-collections").unwrap().id, "D1");
        assert_eq!(rule("p1").unwrap().id, "P1");
        assert!(rule("Z9").is_none());
    }

    #[test]
    fn ids_are_unique() {
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.id, b.id);
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn explain_mentions_the_id() {
        for info in RULES {
            assert!(explain(info).contains(info.id));
        }
    }
}
