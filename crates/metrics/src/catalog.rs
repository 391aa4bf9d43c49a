//! The normative metric catalog: every series name the service stack may
//! emit, its kind, label key, cross-shard merge rule, and help text.
//!
//! This table and the schema table in `docs/service_protocol.md` are
//! cross-checked both ways by `haste-lint` rule C2, which parses this
//! file **textually**: keep each entry on a single line, built by one of
//! the `counter(` / `gauge(` / `gauge_max(` / `histogram(` helpers, with
//! the name first and the label key second (an empty string means "no
//! label").
//!
//! The helper is the merge rule: when the router combines its shards'
//! documents ([`crate::Snapshot::merge`]), counters and histograms sum,
//! `gauge` families sum, and `gauge_max` families take the maximum.
//!
//! Naming schema (normative): `haste_<subsystem>_<name>_<unit>`, ASCII
//! snake case. Counters end in `_total`; histograms end in `_us` or
//! `_records`; gauges end in `_slots`, `_tasks`, `_threads`, or
//! `_shards`. Labels are drawn from `cell`, `opcode`, `err_code`,
//! `tenant`.

use crate::{GaugeMerge, Kind};

/// One catalog row.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Series family name, `haste_<subsystem>_<name>_<unit>`.
    pub name: &'static str,
    /// Instrument kind.
    pub kind: Kind,
    /// Label key (`""` for unlabeled families).
    pub label: &'static str,
    /// Cross-shard merge semantics (meaningful for gauges).
    pub merge: GaugeMerge,
    /// Exposition `# HELP` text.
    pub help: &'static str,
}

const fn counter(name: &'static str, label: &'static str, help: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        kind: Kind::Counter,
        label,
        merge: GaugeMerge::Sum,
        help,
    }
}

const fn gauge(name: &'static str, label: &'static str, help: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        kind: Kind::Gauge,
        label,
        merge: GaugeMerge::Sum,
        help,
    }
}

const fn gauge_max(name: &'static str, label: &'static str, help: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        kind: Kind::Gauge,
        label,
        merge: GaugeMerge::Max,
        help,
    }
}

const fn histogram(name: &'static str, label: &'static str, help: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        kind: Kind::Histogram,
        label,
        merge: GaugeMerge::Sum,
        help,
    }
}

/// Every metric family the stack emits. One entry per line — C2 parses
/// this list textually and cross-checks it against the schema table in
/// `docs/service_protocol.md` (hence the rustfmt skip).
#[rustfmt::skip]
pub const CATALOG: &[MetricSpec] = &[
    counter("haste_service_requests_total", "opcode", "Requests handled at this endpoint, by wire opcode."),
    counter("haste_service_errors_total", "err_code", "Error replies sent at this endpoint, by stable error code."),
    histogram("haste_service_request_duration_us", "opcode", "Request handling latency at this endpoint in microseconds, by wire opcode."),
    histogram("haste_service_batch_size_records", "", "Records carried per OP_BATCH submission frame."),
    histogram("haste_service_batch_rejected_records", "", "Records rejected per OP_BATCH submission frame."),
    counter("haste_shard_requests_total", "opcode", "Requests handled by out-of-process shard children, merged across shards."),
    counter("haste_shard_errors_total", "err_code", "Error replies sent by shard children, merged across shards."),
    histogram("haste_shard_request_duration_us", "opcode", "Request handling latency inside out-of-process shard children in microseconds, excluding the supervisor's socket round trip, merged bucket-wise across shards."),
    histogram("haste_shard_batch_size_records", "", "Records per batch frame at shard children, merged across shards."),
    histogram("haste_shard_batch_rejected_records", "", "Records rejected per batch frame at shard children, merged across shards."),
    histogram("haste_router_tick_replan_duration_us", "cell", "Per-shard TICK replan duration in microseconds, by cell index."),
    histogram("haste_router_join_wait_duration_us", "cell", "Time a finished shard waits at the consistent-cut TICK barrier, by cell index."),
    counter("haste_router_cell_submits_total", "cell", "Submissions accepted into each cell of the default tenant since startup, by cell index at submit time; the --split-threshold trigger does not read it."),
    counter("haste_router_reshards_total", "tenant", "Completed live split/merge migrations, by tenant id."),
    counter("haste_router_tenant_rejected_total", "tenant", "Submissions bounced by a tenant's per-slot admission quota, by tenant id."),
    gauge("haste_router_tenant_shards", "tenant", "Shards currently serving each tenant, by tenant id."),
    histogram("haste_wal_append_duration_us", "", "Write-ahead-log record append latency in microseconds (framing plus file write, excluding fsync)."),
    histogram("haste_wal_fsync_duration_us", "", "Write-ahead-log fsync latency in microseconds, at the configured durability points."),
    counter("haste_wal_checkpoints_total", "tenant", "Checkpoints written (snapshot to temp, fsync, atomic rename, log truncate), by tenant id."),
    counter("haste_wal_replayed_ops_total", "tenant", "Log-tail operations replayed on top of a checkpoint during crash recovery, by tenant id."),
    counter("haste_wal_recoveries_total", "tenant", "Tenants recovered from the write-ahead-log directory at router startup, by tenant id."),
    counter("haste_supervisor_restarts_total", "cell", "Shard child restarts performed by the supervisor, by cell index."),
    counter("haste_supervisor_replays_total", "cell", "Journaled operations replayed into restarted shard children, by cell index."),
    counter("haste_supervisor_deadline_expired_total", "cell", "Supervisor requests that hit the per-request deadline, by cell index."),
    gauge("haste_supervisor_down_shards", "", "Shards currently down or restarting."),
    gauge_max("haste_engine_clock_slots", "", "Engine virtual clock: the open slot index (max across shards)."),
    gauge("haste_engine_active_tasks", "", "Tasks materialized into the engine scenario."),
    gauge("haste_engine_staged_tasks", "", "Tasks staged for future release slots."),
    counter("haste_engine_admitted_total", "", "Submissions admitted since load."),
    counter("haste_engine_rejected_total", "", "Submissions rejected by admission control since load."),
    gauge("haste_engine_pending_tasks", "", "Submissions waiting in the open slot."),
    gauge_max("haste_engine_worker_threads", "", "Engine worker threads (max across shards)."),
    counter("haste_engine_oracle_marginals_total", "", "Marginal-gain oracle evaluations."),
    counter("haste_engine_oracle_commits_total", "", "Oracle commit operations."),
    counter("haste_engine_coverage_pair_tests_total", "", "Charger-task chargeability tests run building the coverage map."),
    counter("haste_engine_replan_candidates_total", "", "Charger-task candidates in the live rows handed to each replan, summed over replans."),
    counter("haste_engine_task_lines_formatted_total", "", "Arrived-task lines formatted for snapshots, each once per engine."),
    counter("haste_engine_negotiation_messages_total", "", "Negotiation messages exchanged between chargers."),
    counter("haste_engine_negotiation_rounds_total", "", "Negotiation rounds executed."),
    counter("haste_engine_instance_build_us_total", "", "Cumulative microseconds building slot instances."),
    counter("haste_engine_greedy_us_total", "", "Cumulative microseconds in the greedy solve phase."),
    counter("haste_engine_rounding_us_total", "", "Cumulative microseconds in the rounding phase."),
    counter("haste_engine_coverage_build_us_total", "", "Cumulative microseconds building coverage structures."),
];

/// Looks up a family by name.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    CATALOG.iter().find(|spec| spec.name == name)
}

/// The merge semantics for a gauge family; uncataloged names sum.
pub fn gauge_merge(name: &str) -> GaugeMerge {
    match spec(name) {
        Some(spec) => spec.merge,
        None => GaugeMerge::Sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_schema_shaped() {
        for (index, spec) in CATALOG.iter().enumerate() {
            assert!(
                spec.name.starts_with("haste_"),
                "`{}` must start with haste_",
                spec.name
            );
            assert!(
                crate::Snapshot::parse(&format!("# TYPE {} counter\n{} 0\n", spec.name, spec.name))
                    .is_ok(),
                "`{}` must be a valid exposition name",
                spec.name
            );
            for other in &CATALOG[index + 1..] {
                assert_ne!(spec.name, other.name, "duplicate catalog name");
            }
        }
    }

    #[test]
    fn unit_suffixes_follow_the_schema() {
        for spec in CATALOG {
            match spec.kind {
                Kind::Counter => assert!(
                    spec.name.ends_with("_total"),
                    "counter `{}` must end in _total",
                    spec.name
                ),
                Kind::Histogram => assert!(
                    spec.name.ends_with("_us") || spec.name.ends_with("_records"),
                    "histogram `{}` must end in _us or _records",
                    spec.name
                ),
                Kind::Gauge => assert!(
                    ["_slots", "_tasks", "_threads", "_shards"]
                        .iter()
                        .any(|unit| spec.name.ends_with(unit)),
                    "gauge `{}` must end in a sanctioned unit",
                    spec.name
                ),
            }
        }
    }
}
