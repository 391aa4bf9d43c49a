//! The service-side instrumentation layer: pre-built handles into a
//! [`haste_metrics::Registry`] for the request hot path, the bridge that
//! projects engine [`ShardStatus`] fields onto their cataloged
//! `haste_engine_*` families, and the supervisor's per-cell counters.
//!
//! Handle acquisition (which takes the registry mutex) happens once at
//! construction for every per-request series; recording on the hot path
//! is a relaxed atomic add on a pre-resolved handle. Series names come
//! from `haste_metrics::catalog` — lint rule C2 cross-checks that catalog
//! against the schema table in `docs/service_protocol.md`.
//!
//! This module owns the service crate's only wall-clock read
//! ([`clock_start`]): latency observations are measured here-adjacent and
//! fed to handles as microsecond values, so no other request-handling
//! file needs a D2 suppression.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use haste_metrics::{Counter, Histogram, Registry, Snapshot};

use crate::proto::{ErrCode, Reply};
use crate::shard::ShardStatus;

/// Every wire directive, for pre-building per-opcode series handles:
/// exactly the values of [`crate::proto::Request::opcode`] (pinned by
/// `proto`'s `opcode_round_trips_through_parse` test).
pub(crate) const OPCODES: [&str; 15] = [
    "HELLO",
    "LOAD",
    "SUBMIT",
    "TICK",
    "CLOCK?",
    "SCHEDULE?",
    "UTILITY?",
    "PARTS?",
    "EXPORT?",
    "SHARDS?",
    "TENANT",
    "RESHARD",
    "SNAPSHOT",
    "RESTORE",
    "BYE",
];

/// Starts a latency stopwatch. The one sanctioned monotonic-clock read of
/// the request path; the elapsed time feeds observability histograms and
/// never influences scheduling decisions.
pub(crate) fn clock_start() -> Instant {
    Instant::now() // haste-lint: allow(D2) — request latency instrumentation, observability only
}

/// Microseconds elapsed since a [`clock_start`] stopwatch, as the `f64`
/// that histogram bucket assignment consumes.
pub(crate) fn elapsed_us(start: Instant) -> f64 {
    start.elapsed().as_micros() as f64
}

/// Shared instrumentation state of one endpoint (daemon or router).
/// Cheap to clone; all handles point into the same registry.
#[derive(Clone)]
pub(crate) struct Telemetry {
    registry: Arc<Registry>,
    /// Per-opcode (requests counter, latency histogram) pairs, resolved
    /// once so the hot path never takes the registry mutex.
    requests: Arc<BTreeMap<&'static str, (Counter, Histogram)>>,
    batch_size: Histogram,
    batch_rejected: Histogram,
}

impl Telemetry {
    /// Builds a registry and resolves every hot-path handle.
    pub(crate) fn new() -> Telemetry {
        let registry = Arc::new(Registry::new());
        let mut requests = BTreeMap::new();
        for opcode in OPCODES {
            requests.insert(
                opcode,
                (
                    registry.counter_with("haste_service_requests_total", "opcode", opcode),
                    registry.histogram_with("haste_service_request_duration_us", "opcode", opcode),
                ),
            );
        }
        let batch_size = registry.histogram("haste_service_batch_size_records");
        let batch_rejected = registry.histogram("haste_service_batch_rejected_records");
        Telemetry {
            registry,
            requests: Arc::new(requests),
            batch_size,
            batch_rejected,
        }
    }

    /// The underlying registry, for snapshotting and ad-hoc series.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one handled text request: count + latency by opcode, and
    /// the error code if the reply is an `ERR`.
    pub(crate) fn observe_request(&self, opcode: &'static str, latency_us: f64, reply: &Reply) {
        if let Some((counter, histogram)) = self.requests.get(opcode) {
            counter.inc();
            histogram.observe(latency_us);
        }
        if let Reply::Err(code, _) = reply {
            self.count_error(*code);
        }
    }

    /// Records an error reply that never reached a handler (a request
    /// line that failed to parse has no opcode to attribute).
    pub(crate) fn count_error(&self, code: ErrCode) {
        self.registry
            .counter_with("haste_service_errors_total", "err_code", code.as_str())
            .inc();
    }

    /// Records one `OP_BATCH` submission frame: the size and rejection
    /// distributions, plus one `SUBMIT` request + latency observation per
    /// record — so the `SUBMIT` histogram count equals the number of
    /// records whichever wire mode carried them.
    pub(crate) fn observe_batch(&self, records: usize, rejected: usize, latency_us: f64) {
        self.batch_size.observe(records as f64);
        self.batch_rejected.observe(rejected as f64);
        if let Some((counter, histogram)) = self.requests.get("SUBMIT") {
            counter.add(records as u64);
            histogram.observe_n(latency_us, records as u64);
        }
    }

    /// Freezes the registry, folding an engine status (when one is
    /// available) into the cataloged `haste_engine_*` families.
    pub(crate) fn export(&self, status: Option<&ShardStatus>) -> Snapshot {
        let mut snap = self.registry.snapshot();
        if let Some(status) = status {
            engine_alias_snapshot(status, &mut snap);
        }
        snap
    }
}

/// Projects a [`ShardStatus`] onto the `haste_engine_*` families. The
/// `u128` phase timers go in untruncated; merge semantics (sum vs max
/// across shards) come from the catalog at merge time.
pub(crate) fn engine_alias_snapshot(status: &ShardStatus, snap: &mut Snapshot) {
    snap.set_gauge("haste_engine_clock_slots", &[], status.clock as u128);
    snap.set_gauge("haste_engine_active_tasks", &[], status.tasks as u128);
    snap.set_gauge("haste_engine_staged_tasks", &[], status.staged as u128);
    snap.set_counter(
        "haste_engine_admitted_total",
        &[],
        u128::from(status.admitted),
    );
    snap.set_counter(
        "haste_engine_rejected_total",
        &[],
        u128::from(status.rejected),
    );
    snap.set_gauge("haste_engine_pending_tasks", &[], status.pending as u128);
    snap.set_gauge("haste_engine_worker_threads", &[], status.threads as u128);
    snap.set_counter(
        "haste_engine_oracle_marginals_total",
        &[],
        u128::from(status.oracle_marginals),
    );
    snap.set_counter(
        "haste_engine_oracle_commits_total",
        &[],
        u128::from(status.oracle_commits),
    );
    snap.set_counter(
        "haste_engine_coverage_pair_tests_total",
        &[],
        u128::from(status.coverage_pair_tests),
    );
    snap.set_counter(
        "haste_engine_replan_candidates_total",
        &[],
        u128::from(status.replan_candidates),
    );
    snap.set_counter(
        "haste_engine_task_lines_formatted_total",
        &[],
        u128::from(status.task_lines_formatted),
    );
    snap.set_counter(
        "haste_engine_negotiation_messages_total",
        &[],
        u128::from(status.messages),
    );
    snap.set_counter(
        "haste_engine_negotiation_rounds_total",
        &[],
        u128::from(status.rounds),
    );
    snap.set_counter(
        "haste_engine_instance_build_us_total",
        &[],
        status.instance_build_us,
    );
    snap.set_counter("haste_engine_greedy_us_total", &[], status.greedy_us);
    snap.set_counter("haste_engine_rounding_us_total", &[], status.rounding_us);
    snap.set_counter(
        "haste_engine_coverage_build_us_total",
        &[],
        status.coverage_build_us,
    );
}

/// The supervisor's per-cell fault counters, resolved once per shard
/// slot at launch.
#[derive(Clone)]
pub(crate) struct SupervisorCounters {
    /// Child restarts performed.
    pub restarts: Counter,
    /// Journaled operations replayed into restarted children.
    pub replays: Counter,
    /// Requests that hit the per-request deadline.
    pub deadlines: Counter,
}

impl SupervisorCounters {
    /// Resolves the counters of one cell (labeled by linear cell index).
    pub(crate) fn for_cell(registry: &Registry, cell: usize) -> SupervisorCounters {
        let cell_label = cell.to_string();
        SupervisorCounters {
            restarts: registry.counter_with("haste_supervisor_restarts_total", "cell", &cell_label),
            replays: registry.counter_with("haste_supervisor_replays_total", "cell", &cell_label),
            deadlines: registry.counter_with(
                "haste_supervisor_deadline_expired_total",
                "cell",
                &cell_label,
            ),
        }
    }
}

/// The router's per-tenant elasticity series, resolved once per tenant
/// when it is created (or restored).
#[derive(Clone)]
pub(crate) struct TenantCounters {
    /// Completed split/merge migrations.
    pub reshards: Counter,
    /// Submissions bounced by the tenant's per-slot admission quota.
    pub quota_rejected: Counter,
}

impl TenantCounters {
    /// Resolves the counters of one tenant (labeled by tenant id).
    pub(crate) fn for_tenant(registry: &Registry, tenant: &str) -> TenantCounters {
        TenantCounters {
            reshards: registry.counter_with("haste_router_reshards_total", "tenant", tenant),
            quota_rejected: registry.counter_with(
                "haste_router_tenant_rejected_total",
                "tenant",
                tenant,
            ),
        }
    }

    /// Publishes a tenant's current shard count (the
    /// `haste_router_tenant_shards` gauge).
    pub(crate) fn set_shards(registry: &Registry, tenant: &str, shards: usize) {
        registry
            .gauge_with("haste_router_tenant_shards", "tenant", tenant)
            .set(shards as u64);
    }
}

/// The durability layer's hot-path series, resolved once when the router
/// opens its WAL directory. Latency observations come from
/// [`clock_start`]/[`elapsed_us`] in the router, keeping the wall-clock
/// reads confined to this module's sanctioned site.
#[derive(Clone)]
pub(crate) struct WalTelemetry {
    /// Record append latency (framing + file write, excluding fsync).
    pub append: Histogram,
    /// Fsync latency at the configured durability points.
    pub fsync: Histogram,
}

impl WalTelemetry {
    /// Resolves the unlabeled WAL histograms.
    pub(crate) fn new(registry: &Registry) -> WalTelemetry {
        WalTelemetry {
            append: registry.histogram("haste_wal_append_duration_us"),
            fsync: registry.histogram("haste_wal_fsync_duration_us"),
        }
    }

    /// Counts one completed checkpoint of a tenant.
    pub(crate) fn count_checkpoint(registry: &Registry, tenant: &str) {
        registry
            .counter_with("haste_wal_checkpoints_total", "tenant", tenant)
            .inc();
    }

    /// Records one tenant recovered at startup and the number of log-tail
    /// operations replayed on top of its checkpoint.
    pub(crate) fn count_recovery(registry: &Registry, tenant: &str, replayed_ops: u64) {
        registry
            .counter_with("haste_wal_recoveries_total", "tenant", tenant)
            .inc();
        registry
            .counter_with("haste_wal_replayed_ops_total", "tenant", tenant)
            .add(replayed_ops);
    }
}

/// Counts one accepted submission against its cell's arrival-rate series
/// (`haste_router_cell_submits_total`, the auto-split load trigger).
pub(crate) fn count_cell_submit(registry: &Registry, cell: usize) {
    registry
        .counter_with("haste_router_cell_submits_total", "cell", &cell.to_string())
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_observations_land_in_the_snapshot() {
        let telemetry = Telemetry::new();
        telemetry.observe_request("SUBMIT", 120.0, &Reply::Ok("task=1".to_string()));
        telemetry.observe_request(
            "SUBMIT",
            64.0,
            &Reply::Err(ErrCode::Overload, "queue full".to_string()),
        );
        telemetry.observe_batch(16, 3, 900.0);
        let snap = telemetry.export(None);
        match snap.get("haste_service_requests_total", &[("opcode", "SUBMIT")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 18),
            other => panic!("expected SUBMIT counter, got {other:?}"),
        }
        match snap.get("haste_service_request_duration_us", &[("opcode", "SUBMIT")]) {
            Some(haste_metrics::Value::Histogram { buckets, .. }) => {
                assert_eq!(buckets.iter().sum::<u64>(), 18)
            }
            other => panic!("expected SUBMIT histogram, got {other:?}"),
        }
        match snap.get("haste_service_errors_total", &[("err_code", "overload")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("expected overload counter, got {other:?}"),
        }
    }

    #[test]
    fn engine_aliases_cover_every_legacy_engine_key() {
        let status = ShardStatus {
            clock: 3,
            open: true,
            tasks: 7,
            staged: 2,
            admitted: 11,
            rejected: 4,
            pending: 1,
            threads: 8,
            oracle_marginals: 100,
            oracle_commits: 10,
            coverage_pair_tests: 40,
            replan_candidates: 30,
            task_lines_formatted: 7,
            messages: 50,
            rounds: 5,
            instance_build_us: 1000,
            greedy_us: 2000,
            rounding_us: 300,
            coverage_build_us: 400,
        };
        let mut snap = Snapshot::new();
        engine_alias_snapshot(&status, &mut snap);
        // Every cataloged haste_engine_* family must be populated.
        for spec in haste_metrics::catalog::CATALOG {
            if spec.name.starts_with("haste_engine_") {
                assert!(
                    snap.get(spec.name, &[]).is_some(),
                    "engine family `{}` missing from the projection",
                    spec.name
                );
            }
        }
        match snap.get("haste_engine_clock_slots", &[]) {
            Some(haste_metrics::Value::Gauge(v)) => assert_eq!(*v, 3),
            other => panic!("expected clock gauge, got {other:?}"),
        }
    }

    #[test]
    fn wal_series_land_under_their_cataloged_names() {
        let registry = Registry::new();
        let wal = WalTelemetry::new(&registry);
        wal.append.observe(12.0);
        wal.fsync.observe(850.0);
        WalTelemetry::count_checkpoint(&registry, "acme");
        WalTelemetry::count_recovery(&registry, "acme", 17);
        let snap = registry.snapshot();
        match snap.get("haste_wal_append_duration_us", &[]) {
            Some(haste_metrics::Value::Histogram { buckets, .. }) => {
                assert_eq!(buckets.iter().sum::<u64>(), 1)
            }
            other => panic!("expected append histogram, got {other:?}"),
        }
        match snap.get("haste_wal_fsync_duration_us", &[]) {
            Some(haste_metrics::Value::Histogram { buckets, .. }) => {
                assert_eq!(buckets.iter().sum::<u64>(), 1)
            }
            other => panic!("expected fsync histogram, got {other:?}"),
        }
        match snap.get("haste_wal_checkpoints_total", &[("tenant", "acme")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("expected checkpoint counter, got {other:?}"),
        }
        match snap.get("haste_wal_replayed_ops_total", &[("tenant", "acme")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 17),
            other => panic!("expected replay counter, got {other:?}"),
        }
        match snap.get("haste_wal_recoveries_total", &[("tenant", "acme")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("expected recovery counter, got {other:?}"),
        }
    }

    #[test]
    fn supervisor_counters_are_labeled_by_cell() {
        let registry = Registry::new();
        let counters = SupervisorCounters::for_cell(&registry, 2);
        counters.restarts.inc();
        counters.deadlines.add(3);
        let snap = registry.snapshot();
        match snap.get("haste_supervisor_restarts_total", &[("cell", "2")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("expected restart counter, got {other:?}"),
        }
        match snap.get("haste_supervisor_deadline_expired_total", &[("cell", "2")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 3),
            other => panic!("expected deadline counter, got {other:?}"),
        }
    }
}
