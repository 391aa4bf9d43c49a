//! The sharded router: per-tenant shard fleets behind one listener,
//! in-process or supervised child processes, with **elastic resharding**.
//!
//! The router owns one shard per cell of a [`Partition`] (rect tiling
//! with a charger-reach halo). `LOAD` splits the scenario into per-cell
//! sub-scenarios — rejecting unpartitionable inputs with
//! `ERR unpartitionable` — and `SUBMIT` routes each task to the shard
//! of the cell holding its device position: shard `i` serves cell `i`,
//! and a map version counts the topology swaps.
//! `TICK` and `UTILITY?` fan out to every shard of the session's tenant;
//! `SHARDS?` and `EXPORT?` span all tenants. This file is those request
//! semantics; the transport under them — listeners, connection loops,
//! framing, the scrape listener's accept loop — is the front door
//! ([`crate::front`]) the single-engine daemon runs on too.
//!
//! **Multi-tenancy.** Each tenant owns a full routing universe: its own
//! partition, shard fleet, map version, operation log, and (optionally)
//! a per-slot admission quota. `TENANT <id> [<quota>]`
//! binds a connection's session to a tenant; `LOAD` creates the tenant
//! on first use (spawning its fleet in process mode), and every other
//! stateful verb on a never-created tenant fails with
//! `ERR unknown-tenant`. The `default` tenant always exists, so the
//! single-tenant protocol of earlier versions works unchanged. Tenants
//! share nothing but the listener and the router mutex, so two tenants'
//! runs are bit-identical to each running alone.
//!
//! **Elastic resharding.** `RESHARD SPLIT <cell>` / `RESHARD MERGE <a>
//! <b>` change the session tenant's topology *live*: the new partition
//! is validated (halo invariants, charger reach), replacement shards for
//! the affected cell(s) are built off to the side — baseline sub-scenario
//! load plus a replay of the accepted submissions and ticks in the
//! tenant's operation log — and
//! the fleet and tiling swap atomically under the router mutex, bumping
//! the map version. Unaffected shards are untouched. Because replay repeats
//! exactly the accepted submissions and ticks in arrival order, and
//! localized replanning is per-cell-deterministic, the rebuilt cells'
//! engine state is bitwise what a fresh run under the new partition
//! would have produced — so global utility is bit-identical across the
//! swap (DESIGN.md §13 has the full argument). A per-cell submission
//! gauge can trigger splits automatically
//! ([`RouterConfig::split_threshold`]).
//!
//! **Deployment modes.** By default every shard is an in-process
//! [`Shard`]. With [`RouterConfig::process`] set, each shard instead
//! lives in a spawned `haste-shardd` child reached over localhost TCP
//! (see [`crate::supervisor`]): same protocol, same bits — the wire
//! round-trips floats losslessly — plus a real failure domain per cell.
//! The launcher is retained, so tenants created later and reshard
//! children spawn the same way. Fault-plan directives bind to the cells
//! that exist at startup; shards spawned later carry no directives.
//!
//! **Failure model (out-of-process).** A child crash, hang past the
//! per-request deadline, or injected fault marks its shard *down*; the
//! router keeps serving. Submissions routed to a down cell fail with
//! `ERR unavailable <cell> ...`; `TICK` advances the healthy shards in
//! lockstep, and its tick record lands on the operation log whether a
//! shard missed the slot or not. At the start of each tick step the
//! supervisor restarts down children and replays their last baseline
//! (the loaded sub-scenario, last committed `SNAPSHOT` section, or
//! post-reshard state) plus the log records their cell answered since —
//! engine determinism makes the rebuilt state bit-identical, so a
//! recovered cell rejoins the lockstep exactly where the router believes
//! it is.
//! `SHARDS?` reports each shard as `up`, `restarting`, or `degraded`
//! (recovered after ≥1 restart) with its restart and replay counts;
//! `EXPORT?` counts restarts and replayed operations per cell and the
//! shards currently down.
//!
//! **Bit-equivalence contract.** With localized replanning
//! ([`OnlineConfig::localized`](haste_distributed::OnlineConfig)) the
//! negotiation of Alg. 3 never crosses a partition boundary, so each
//! shard's schedule is bitwise the restriction of the single-engine
//! schedule. The router reconstructs the single engine's totals exactly:
//! it sums per-task `wⱼ·Uⱼ` terms in the **global arrival order** of
//! tasks (each slot's staged releases, then its live submissions) — the
//! same addends in the same sequence as the single engine's evaluator,
//! hence the same bits. That order is never stored: every merge derives
//! each task's owner from the loaded scenario's staged releases and the
//! accepted submissions of the operation log, against the current
//! partition, so it survives cell renumbering. The same derivation gives
//! a parsed composite document its [`CompositeSnapshot::order`].
//!
//! **Consistent cut.** All request handling serializes on one router
//! mutex and `TICK` advances every shard in lockstep inside it — the
//! per-shard replans of one slot run *concurrently* (scoped
//! `haste-parallel` threads in-process; concurrently-issued child
//! requests out-of-process), but the router joins them all before its
//! clock moves, so between requests all healthy shards still sit at the
//! router's virtual slot and the pipelining is invisible to every other
//! request. `SNAPSHOT` (under that mutex) therefore captures a trivially
//! consistent cut; it requires every shard up (a down shard's state is
//! mid-replay by definition) and, once the composite document is
//! assembled, commits each section as its shard's new replay baseline.
//! Resharding runs under the same mutex, so a migration is always a
//! between-ticks cut too. The composite document restores
//! bit-identically, into the tenant it names.
//!
//! **One operation log.** Every record the router applies to a tenant —
//! accepted and refused submissions, ticks, completed splits and merges,
//! quota changes — is pushed, in lock order, onto the tenant's
//! [`OpLog`]. Reshard replay, shard-child recovery and the write-ahead
//! log are views of it (see [`crate::oplog`]). The composite document
//! stores each accepted task once, in its cell's shard section, plus the
//! cells of each slot's submissions in arrival order; `RESTORE` rebuilds
//! the log's accepted view from the restored engines in that order and
//! checks the two halves against each other — down to each section
//! being its cell's split of the document's scenario, so the scenario's
//! time grid is the tenant's horizon.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use haste_distributed::{OnlineConfig, OnlineEngine, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{
    io as model_io, CellRect, ChargerId, Partition, PartitionError, Scenario, Schedule, Task,
};
use parking_lot::Mutex;

use crate::client::Client;
use crate::framing::BatchAck;
use crate::front::{RouterHandle, Service};
use crate::oplog::{OpLog, OpRecord};
use crate::proto::{ErrCode, Reply, Request};
use crate::server::{hello_reply, parts_payload, shard_err, shard_err_parts, shard_line};
use crate::shard::{Shard, ShardError, UtilityParts};
use crate::supervisor::{
    resolve_shardd, Launcher, ProcessShardConfig, RemoteShard, ShardSlot, SlotError,
};
use crate::telemetry::{self, SupervisorCounters, Telemetry, TenantCounters, WalTelemetry};
use crate::wal::{self, TenantWal, WalConfig, WalSync};

/// Magic first line of a composite router snapshot.
const COMPOSITE_MAGIC: &str = "# haste-router snapshot v4";

/// The tenant every connection starts bound to; it exists from startup,
/// so single-tenant clients never need `TENANT`.
const DEFAULT_TENANT: &str = "default";

/// Configuration of a router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address; use port 0 to let the OS pick.
    pub addr: String,
    /// Connection-handler threads (the connection cap, as for the plain
    /// daemon).
    pub worker_threads: usize,
    /// Admission bound per shard: submissions per open slot before
    /// `ERR overload`.
    pub max_pending: usize,
    /// Scheduling configuration for every shard's engine. Bit-equivalence
    /// with a single-engine run requires `localized: true` here and on the
    /// reference daemon.
    pub scheduling: OnlineConfig,
    /// Initial partition grid as `(cells_x, cells_y)`; one shard per
    /// cell. Every tenant starts on this grid; resharding departs from it
    /// per tenant.
    pub cells: (usize, usize),
    /// Field origin `(x, y)` in meters.
    pub origin: (f64, f64),
    /// Field extent `(width, height)` in meters.
    pub field: (f64, f64),
    /// `Some` runs every shard as a supervised `haste-shardd` child
    /// process instead of in-process (see the module docs' failure
    /// model); `None` is the original in-process mode.
    pub process: Option<ProcessShardConfig>,
    /// `Some(addr)` additionally binds a plain-HTTP scrape listener that
    /// answers any `GET` with the router's `EXPORT?` exposition text
    /// (Prometheus-style). `None` disables it; `EXPORT?` on the wire
    /// protocol is always available.
    pub metrics_addr: Option<String>,
    /// `Some(n)`: at each `TICK`, a cell that accepted more than `n`
    /// submissions during the closing slot is split automatically (best
    /// effort — an unsplittable cell keeps its load). `None` disables
    /// the trigger; `RESHARD SPLIT` always works.
    pub split_threshold: Option<u64>,
    /// `Some` makes the router durable: every tenant mutation is framed
    /// into a per-tenant write-ahead log under the configured directory,
    /// checkpointed through the composite-snapshot machinery, and at
    /// startup every tenant found there is recovered bit-identically
    /// before the first connection is accepted. `None` is the original
    /// in-memory router.
    pub wal: Option<WalConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_threads: 64,
            max_pending: 4096,
            scheduling: OnlineConfig::default(),
            cells: (2, 1),
            origin: (0.0, 0.0),
            field: (200.0, 100.0),
            process: None,
            metrics_addr: None,
            split_threshold: None,
            wal: None,
        }
    }
}

/// Everything one tenant owns: its shard fleet, loaded state, operation
/// log, clock, admission quota, and (on a durable router) write-ahead
/// log. The global arrival order is not among them: every merge derives
/// it from the loaded scenario and the log (see [`arrival_owners`]).
struct TenantCore {
    /// Shard `i` serves cell `i` of the loaded partition.
    shards: Vec<ShardSlot>,
    /// `None` until `LOAD`/`RESTORE`; read through [`Loaded::of`].
    loaded: Option<Loaded>,
    /// Every record applied since `LOAD` (see [`crate::oplog`]).
    log: OpLog,
    /// Tasks materialized so far — the staged releases of every opened
    /// slot plus the accepted submissions — so the global id of the next
    /// accepted submission.
    materialized: usize,
    /// The tenant's virtual clock. This is the authority — healthy shards
    /// follow it in lockstep, and a down shard rejoins *to it* by replay —
    /// so it stays correct even while children are dead.
    clock: usize,
    /// Per-slot accepted-submission cap; `None` is unlimited.
    quota: Option<u64>,
    /// Accepted submissions in the currently open slot.
    quota_used: u64,
    /// Accepted submissions per cell in the currently open slot — the
    /// elastic-split load trigger.
    cell_submits: Vec<u64>,
    /// Tenant-labeled counters (reshards, quota rejections).
    counters: TenantCounters,
    /// The write-ahead log on a durable router, once the tenant has
    /// state (`LOAD`/`RESTORE` create it; recovery re-opens it).
    wal: Option<WalHandle>,
}

impl TenantCore {
    fn new(shards: Vec<ShardSlot>, counters: TenantCounters) -> TenantCore {
        let cells = shards.len();
        TenantCore {
            shards,
            loaded: None,
            log: OpLog::default(),
            materialized: 0,
            clock: 0,
            quota: None,
            quota_used: 0,
            cell_submits: vec![0; cells],
            counters,
            wal: None,
        }
    }

    /// Whether the tenant's write-ahead log is in the fail-stop state
    /// (see [`WalHandle`]).
    fn poisoned(&self) -> bool {
        matches!(self.wal, Some(WalHandle::Poisoned))
    }
}

/// What `LOAD` (or `RESTORE`) gives a tenant.
struct Loaded {
    /// The loaded scenario, kept verbatim: reshard baselines re-split it,
    /// its staged releases open the arrival order of each slot, and its
    /// time grid is the tenant's horizon.
    scenario: Scenario,
    /// The current tiling (the halo is the scenario's radius).
    partition: Partition,
    /// Routing-map version: 1 at `LOAD`, bumped by every reshard.
    map_version: u64,
}

impl Loaded {
    /// A tenant's loaded state, or the `no-scenario` refusal every verb
    /// that needs one makes before `LOAD`/`RESTORE`. It takes the
    /// tenant's field rather than the tenant, so the caller may still
    /// mutate the tenant's other fields.
    fn of(loaded: &Option<Loaded>) -> Result<&Loaded, ShardError> {
        loaded.as_ref().ok_or(ShardError::NoScenario)
    }

    /// The time-grid length: slots `0..slots()` open in turn.
    fn slots(&self) -> usize {
        self.scenario.grid.num_slots
    }

    /// How many staged tasks the scenario releases when `slot` opens.
    fn released_in(&self, slot: usize) -> usize {
        self.scenario
            .tasks
            .iter()
            .filter(|task| task.release_slot == slot)
            .count()
    }
}

/// One durable tenant's log handle. `Poisoned` is the fail-stop state: a
/// log write failed after its operation was already applied, so the
/// router can no longer promise recovery equals the acked history — the
/// tenant stays readable, every further mutation is refused, and only a
/// restart (recovery from the last durable state) or a `RESTORE` (which
/// re-creates the log wholesale) clears it. This is divergence-safe: the
/// applied-but-unlogged operation was NACKed and is the tenant's last
/// mutation ever, so the durable state never silently forks from the
/// acked one.
enum WalHandle {
    Open(TenantWal),
    Poisoned,
}

/// Mutable router state, under one mutex: tenant id → tenant state.
/// `BTreeMap` so cross-tenant fan-outs (`SHARDS?`, `EXPORT?`) iterate in
/// a stable order.
type RouterCore = BTreeMap<String, TenantCore>;

/// The durability runtime of one router: the `--wal-dir` configuration
/// plus the pre-resolved `haste_wal_*` hot-path histograms.
struct WalRuntime {
    config: WalConfig,
    telemetry: WalTelemetry,
}

/// State shared by every connection of one router.
struct RouterShared {
    core: Mutex<RouterCore>,
    config: RouterConfig,
    telemetry: Telemetry,
    /// Retained in process mode so tenants created after startup and
    /// reshard children spawn the same `haste-shardd` fleet; `None` in
    /// in-process mode.
    launcher: Option<Launcher>,
    /// `Some` on a durable router (see [`RouterConfig::wal`]).
    wal: Option<WalRuntime>,
}

/// Per-connection session state: which tenant the connection is bound
/// to, plus a quota remembered from a `TENANT` naming a not-yet-created
/// tenant (applied when `LOAD` creates it).
struct Session {
    tenant: String,
    pending_quota: Option<u64>,
}

impl Default for Session {
    fn default() -> Session {
        Session {
            tenant: DEFAULT_TENANT.to_string(),
            pending_quota: None,
        }
    }
}

/// Starts a router and returns its handle. Mirrors [`crate::serve`] but
/// owns per-tenant shard fleets instead of one engine. With
/// [`RouterConfig::process`] set this spawns one `haste-shardd` child per
/// cell of the default tenant before binding; a launch failure aborts
/// startup (there is no state to recover yet — supervision begins once
/// the fleet is up). The launcher is retained for tenants created later.
pub fn serve_router(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.cells.0 == 0 || config.cells.1 == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one cell per axis",
        ));
    }
    let num_shards = config.cells.0 * config.cells.1;
    let router_telemetry = Telemetry::new();
    let mut launcher = None;
    let shards: Vec<ShardSlot> = match &config.process {
        None => (0..num_shards)
            .map(|_| ShardSlot::Local(Shard::new(config.scheduling.clone(), config.max_pending)))
            .collect(),
        Some(process) => {
            if !config.scheduling.failures.is_empty() {
                // Charger-failure injection mutates engine internals the
                // wire protocol does not carry; it stays in-process.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "charger failure injection is not supported with out-of-process shards",
                ));
            }
            let plan = process.fault_plan.clone().unwrap_or_default();
            if let Some(cell) = plan.cells().into_iter().find(|&cell| cell >= num_shards) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "fault plan targets cell {cell}, but the router has {num_shards} shards"
                    ),
                ));
            }
            let program = resolve_shardd(process.shardd.as_deref())?;
            let spawner = Launcher::new(
                program,
                &config.scheduling,
                config.max_pending,
                process.effective_deadline(),
            );
            let mut shards = Vec::with_capacity(num_shards);
            for cell in 0..num_shards {
                shards.push(ShardSlot::Remote(RemoteShard::launch(
                    cell,
                    spawner.clone(),
                    plan.for_cell(cell),
                    SupervisorCounters::for_cell(router_telemetry.registry(), cell),
                )?));
            }
            launcher = Some(spawner);
            shards
        }
    };
    let mut tenants = BTreeMap::new();
    tenants.insert(
        DEFAULT_TENANT.to_string(),
        TenantCore::new(
            shards,
            TenantCounters::for_tenant(router_telemetry.registry(), DEFAULT_TENANT),
        ),
    );
    TenantCounters::set_shards(router_telemetry.registry(), DEFAULT_TENANT, num_shards);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Bind the scrape listener before spawning anything, so a bad
    // `metrics_addr` aborts startup instead of failing silently later.
    let metrics_listener = match &config.metrics_addr {
        Some(scrape_addr) => Some(TcpListener::bind(scrape_addr)?),
        None => None,
    };
    let wal_runtime = match &config.wal {
        None => None,
        Some(wal_config) => {
            std::fs::create_dir_all(&wal_config.dir)?;
            Some(WalRuntime {
                config: wal_config.clone(),
                telemetry: WalTelemetry::new(router_telemetry.registry()),
            })
        }
    };
    let workers = config.worker_threads;
    let shared = RouterShared {
        core: Mutex::new(tenants),
        config,
        telemetry: router_telemetry,
        launcher,
        wal: wal_runtime,
    };
    // Durable startup: recover every tenant the WAL directory holds —
    // newest checkpoint plus log-tail replay — before the accept thread
    // exists, so the first connection already sees the recovered state.
    // (The listener is bound; early connectors wait in its backlog.)
    recover_from_wal(&shared)?;
    let mut handle = RouterHandle::start(shared, listener, workers)?;
    if let Some(listener) = metrics_listener {
        // Scrapes are served one at a time, each bounded end to end.
        handle.listen(
            listener,
            1,
            (SCRAPE_DEADLINE, SCRAPE_DEADLINE),
            move |stream| {
                let _ = serve_scrape(stream, addr, SCRAPE_DEADLINE);
            },
        )?;
    }
    Ok(handle)
}

/// Every socket deadline on the HTTP scrape path — the scraper-facing
/// stream (both directions) and the internal dial back into the router's
/// protocol port. One constant so the whole scrape is uniformly bounded.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(5);

/// Answers one HTTP scrape: any `GET` gets the router's `EXPORT?`
/// exposition as `200 text/plain`. The handler dials the router's own
/// protocol port as an ordinary client, so the scrape sees exactly the
/// document wire clients see (merged child registries included) and the
/// HTTP layer stays a dozen lines: request head + headers in, one
/// `Content-Length`-framed response out, connection closed. The accept
/// loop armed `stream` with the scrape deadlines; the inner dial gets
/// `deadline` (injectable, so tests can exercise the wedged-router path
/// in milliseconds instead of [`SCRAPE_DEADLINE`]).
fn serve_scrape(stream: TcpStream, router: SocketAddr, deadline: Duration) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut head = String::new();
    reader.read_line(&mut head)?;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim_end().is_empty() {
            break;
        }
    }
    let mut writer = BufWriter::new(stream);
    if !head.starts_with("GET ") {
        writer.write_all(
            b"HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )?;
        return writer.flush();
    }
    // The inner dial carries the same deadline end to end: a wedged
    // router (or one that accepts and never greets) turns into a prompt
    // `503` with the timeout in the body, never a hung scrape thread.
    let body =
        Client::connect_with_deadline(router, Some(deadline)).and_then(|mut conn| conn.export());
    match body {
        Ok(body) => {
            writer.write_all(
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            )?;
            writer.write_all(body.as_bytes())?;
        }
        Err(e) => {
            let detail = format!("scrape failed: {e}\n");
            writer.write_all(
                format!(
                    "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n",
                    detail.len()
                )
                .as_bytes(),
            )?;
            writer.write_all(detail.as_bytes())?;
        }
    }
    writer.flush()
}

/// Executes a batched submission on the router: one lock acquisition,
/// then per record the exact `SUBMIT` path — finiteness check, quota
/// gate, cell routing, shard admission, and a push onto the tenant's
/// arrival order and operation log — and one write-ahead append for the
/// whole frame. Holding the lock across the frame means the batch
/// occupies a contiguous run of the arrival order, but any interleaving
/// with other connections' submissions would be equally valid: within a
/// slot the recorded order *is* the determinism contract, exactly as for
/// text submits racing on separate connections.
fn execute_batch(specs: &[TaskSpec], shared: &RouterShared, session: &Session) -> Vec<BatchAck> {
    let tenant_id = session.tenant.clone();
    let mut core = shared.core.lock();
    match writable_tenant(&mut core, &tenant_id) {
        Err(reply) => refuse_batch(specs, reply),
        Ok(tenant) => {
            let acks = specs
                .iter()
                .map(|spec| {
                    // haste-lint: allow(L2) — lockstep contract: `core` serializes shard traffic so global arrival order stays bit-identical; the child request is deadline-bounded
                    match submit_routed(tenant, &tenant_id, *spec, shared) {
                        Ok((global, release, _shard)) => BatchAck::Ok {
                            task: global as u64,
                            release: release as u64,
                        },
                        Err((code, message)) => BatchAck::rejected(code, message),
                    }
                })
                .collect();
            if wal_flush(tenant, shared, &tenant_id) {
                acks
            } else {
                // The whole frame's durability failed: no record may be
                // acked as applied, because none would survive recovery.
                refuse_batch(specs, wal_poisoned_reply(&tenant_id))
            }
        }
    }
}

/// The same refusal for every record of a batch.
fn refuse_batch(specs: &[TaskSpec], reply: Reply) -> Vec<BatchAck> {
    let (code, message) = match reply {
        Reply::Err(code, message) => (code, message),
        _ => (ErrCode::Internal, "batch refused".to_string()),
    };
    specs
        .iter()
        .map(|_| BatchAck::rejected(code, message.clone()))
        .collect()
}

impl Service for RouterShared {
    type Session = Session;

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn execute(&self, request: Request, payload: &str, session: &mut Session) -> Reply {
        execute(request, payload, self, session)
    }

    fn execute_batch(&self, specs: &[TaskSpec], session: &mut Session) -> Vec<BatchAck> {
        execute_batch(specs, self, session)
    }
}

/// Maps a partition failure onto the wire error space: geometry/split
/// violations are the client's scenario-vs-topology mismatch.
fn partition_err(e: PartitionError) -> Reply {
    Reply::Err(ErrCode::Unpartitionable, e.to_string())
}

/// Maps a shard-slot failure onto the wire error space. Structured child
/// errors pass through with their original code; a down shard becomes
/// `ERR unavailable` with the cell index leading the message, so clients
/// can tell *which* cell is degraded without a `SHARDS?` round trip.
fn slot_err(e: SlotError) -> Reply {
    let (code, message) = slot_err_parts(e);
    Reply::Err(code, message)
}

/// The code/message pair of [`slot_err`], for the batch-ack path.
fn slot_err_parts(e: SlotError) -> (ErrCode, String) {
    match e {
        SlotError::Shard(e) => shard_err_parts(e),
        SlotError::Remote { code, message } => (code, message),
        SlotError::Unavailable { cell, detail } => {
            (ErrCode::Unavailable, format!("{cell} shard down: {detail}"))
        }
    }
}

/// `ERR unknown-tenant` as a reply.
fn unknown_tenant(id: &str) -> Reply {
    Reply::Err(
        ErrCode::UnknownTenant,
        format!("tenant `{id}` does not exist (LOAD creates it)"),
    )
}

/// The session's tenant, or `ERR unknown-tenant`.
fn tenant_mut<'a>(core: &'a mut RouterCore, id: &str) -> Result<&'a mut TenantCore, Reply> {
    match core.get_mut(id) {
        Some(tenant) => Ok(tenant),
        None => Err(unknown_tenant(id)),
    }
}

/// Shared-reference variant of [`tenant_mut`].
fn tenant_ref<'a>(core: &'a RouterCore, id: &str) -> Result<&'a TenantCore, Reply> {
    match core.get(id) {
        Some(tenant) => Ok(tenant),
        None => Err(unknown_tenant(id)),
    }
}

/// The session's tenant with its loaded state, for the verbs that read
/// it: `ERR unknown-tenant`, or `ERR no-scenario` before `LOAD`.
fn loaded_tenant<'a>(
    core: &'a RouterCore,
    id: &str,
) -> Result<(&'a TenantCore, &'a Loaded), Reply> {
    let tenant = tenant_ref(core, id)?;
    let loaded = Loaded::of(&tenant.loaded).map_err(shard_err)?;
    Ok((tenant, loaded))
}

/// The session's tenant for a mutation: [`tenant_mut`], refused with the
/// fail-stop reply while its write-ahead log is poisoned.
fn writable_tenant<'a>(core: &'a mut RouterCore, id: &str) -> Result<&'a mut TenantCore, Reply> {
    let tenant = tenant_mut(core, id)?;
    if tenant.poisoned() {
        return Err(wal_poisoned_reply(id));
    }
    Ok(tenant)
}

/// Builds one empty shard slot for cell index `cell`: in-process, or a
/// freshly spawned `haste-shardd` child via the retained launcher. New
/// slots carry no fault directives — the fault plan bound to the cells
/// that existed at startup.
fn fresh_slot(shared: &RouterShared, cell: usize) -> Result<ShardSlot, Reply> {
    match &shared.launcher {
        None => Ok(ShardSlot::Local(Shard::new(
            shared.config.scheduling.clone(),
            shared.config.max_pending,
        ))),
        Some(launcher) => match RemoteShard::launch(
            cell,
            launcher.clone(),
            Vec::new(),
            SupervisorCounters::for_cell(shared.telemetry.registry(), cell),
        ) {
            Ok(shard) => Ok(ShardSlot::Remote(shard)),
            Err(e) => Err(internal(&format!("spawning a shard child failed: {e}"))),
        },
    }
}

/// Creates tenant `id` with an empty fleet on the configured grid if it
/// does not exist yet (the `LOAD` path; `TENANT` only selects).
fn ensure_tenant<'a>(
    core: &'a mut RouterCore,
    shared: &RouterShared,
    id: &str,
    quota: Option<u64>,
) -> Result<&'a mut TenantCore, Reply> {
    if !core.contains_key(id) {
        let count = shared.config.cells.0 * shared.config.cells.1;
        let mut shards = Vec::with_capacity(count);
        for cell in 0..count {
            shards.push(fresh_slot(shared, cell)?);
        }
        let counters = TenantCounters::for_tenant(shared.telemetry.registry(), id);
        core.insert(id.to_string(), TenantCore::new(shards, counters));
        TenantCounters::set_shards(shared.telemetry.registry(), id, count);
    }
    let tenant = tenant_mut(core, id)?;
    if quota.is_some() {
        tenant.quota = quota;
    }
    Ok(tenant)
}

/// The shared `SUBMIT` path (text, batch and WAL replay): finiteness
/// check, quota gate, routing to the shard of the device's cell, shard
/// admission, then the bookkeeping — the outcome's record on the
/// operation log, and for an acceptance the materialized-task count (its
/// global id), quota usage, and the per-cell submission gauge that feeds
/// the elastic-split trigger.
fn submit_routed(
    tenant: &mut TenantCore,
    tenant_id: &str,
    spec: TaskSpec,
    shared: &RouterShared,
) -> Result<(usize, usize, usize), (ErrCode, String)> {
    let finite = spec.device_pos.x.is_finite()
        && spec.device_pos.y.is_finite()
        && spec.device_facing.radians().is_finite();
    if !finite {
        // Refused at the front door: never reached the tenant, nothing
        // to log.
        return Err((ErrCode::BadTask, "non-finite position/facing".to_string()));
    }
    let cell = Loaded::of(&tenant.loaded)
        .map_err(shard_err_parts)?
        .partition
        .cell_of(spec.device_pos);
    let outcome = match tenant.quota {
        Some(quota) if tenant.quota_used >= quota => {
            tenant.counters.quota_rejected.inc();
            Err((
                ErrCode::Quota,
                format!(
                    "tenant `{tenant_id}` exhausted its quota of {quota} submissions this slot"
                ),
            ))
        }
        _ => match tenant.shards.get(cell) {
            Some(shard) => shard.submit(spec).map_err(slot_err_parts),
            None => Err((ErrCode::Internal, format!("cell {cell} has no shard"))),
        },
    };
    match outcome {
        Ok((_local, release)) => {
            tenant.log.push(OpRecord::Submit(spec));
            let global = tenant.materialized;
            tenant.materialized += 1;
            tenant.quota_used += 1;
            if let Some(count) = tenant.cell_submits.get_mut(cell) {
                *count += 1;
            }
            if tenant_id == DEFAULT_TENANT {
                telemetry::count_cell_submit(shared.telemetry.registry(), cell);
            }
            Ok((global, release, cell))
        }
        Err((code, message)) => {
            tenant.log.push(OpRecord::Reject { code, spec });
            Err((code, message))
        }
    }
}

/// The reply every mutation on a poisoned tenant gets.
fn wal_poisoned_reply(tenant_id: &str) -> Reply {
    internal(&format!(
        "tenant `{tenant_id}` is read-only: its write-ahead log failed; restart the router to recover, or RESTORE a snapshot"
    ))
}

/// Appends the records the tenant's operation log gained since the last
/// append to its write-ahead log, in one write, fsyncing per the
/// configured policy (`always`, or `every-tick` when the records carry a
/// slot close). Returns `true` when the operations are as durable as the
/// policy promises — including the vacuous cases (no WAL configured,
/// tenant has no log yet). On a write or sync failure the tenant's log
/// poisons (fail-stop; see [`WalHandle`]) and the caller must reply
/// `ERR internal` *instead of* the success ack, because an
/// acked-but-unlogged mutation would survive in memory but not in
/// recovery.
fn wal_flush(tenant: &mut TenantCore, shared: &RouterShared, tenant_id: &str) -> bool {
    let records = tenant.log.unlogged();
    let (Some(runtime), Some(WalHandle::Open(tenant_wal))) = (shared.wal.as_ref(), &mut tenant.wal)
    else {
        // No WAL configured, no log yet (tenant not loaded — nothing
        // durable to protect), or poisoned (the arm already refused the
        // mutation up front).
        return true;
    };
    if records.is_empty() {
        return true;
    }
    let start = telemetry::clock_start();
    let appended = tenant_wal.append(records);
    runtime
        .telemetry
        .append
        .observe(telemetry::elapsed_us(start));
    let synced = appended.and_then(|()| {
        let must_sync = match runtime.config.sync {
            WalSync::Always => true,
            WalSync::EveryTick => records.contains(&OpRecord::Tick),
        };
        if must_sync {
            let start = telemetry::clock_start();
            let result = tenant_wal.sync();
            runtime
                .telemetry
                .fsync
                .observe(telemetry::elapsed_us(start));
            result
        } else {
            Ok(())
        }
    });
    match synced {
        Ok(()) => true,
        Err(e) => {
            eprintln!("haste-router: wal append for tenant `{tenant_id}` failed ({e}); the tenant is now read-only");
            tenant.wal = Some(WalHandle::Poisoned);
            false
        }
    }
}

/// Creates (or wholesale re-creates) a durable tenant's log and writes
/// its first checkpoint — the `LOAD`/`RESTORE` invariant: a tenant with
/// state always has a checkpoint, so its log tail only ever carries
/// post-load operations and recovery always has a scenario to start
/// from. A failure poisons the tenant (the state was already installed
/// but cannot be made durable) and returns the fail-stop reply.
fn wal_install(
    tenant: &mut TenantCore,
    shared: &RouterShared,
    tenant_id: &str,
) -> Result<(), Reply> {
    let Some(runtime) = shared.wal.as_ref() else {
        return Ok(());
    };
    match TenantWal::create(&runtime.config.dir, tenant_id) {
        Ok(tenant_wal) => {
            tenant.wal = Some(WalHandle::Open(tenant_wal));
            checkpoint(tenant, shared, tenant_id).map(drop)
        }
        Err(e) => {
            eprintln!(
                "haste-router: creating the wal for tenant `{tenant_id}` failed ({e}); the tenant is now read-only"
            );
            tenant.wal = Some(WalHandle::Poisoned);
            Err(wal_poisoned_reply(tenant_id))
        }
    }
}

/// Renders the tenant's composite consistent cut — the `SNAPSHOT` reply —
/// and, on a durable tenant, installs those very bytes as its checkpoint
/// and counts it, so the `.ckpt` file and an operator's copy can never
/// drift. The one checkpoint path of `SNAPSHOT`, `LOAD`/`RESTORE` and the
/// automatic trigger. A composite failure (a down shard) propagates with
/// nothing written; a file failure poisons the tenant.
fn checkpoint(
    tenant: &mut TenantCore,
    shared: &RouterShared,
    tenant_id: &str,
) -> Result<String, Reply> {
    let loaded = Loaded::of(&tenant.loaded).map_err(shard_err)?;
    let text = composite_snapshot(tenant, loaded, tenant_id)?;
    if let Some(WalHandle::Open(tenant_wal)) = &mut tenant.wal {
        if let Err(e) = tenant_wal.checkpoint(&text, tenant.quota) {
            eprintln!(
                "haste-router: checkpointing tenant `{tenant_id}` failed ({e}); the tenant is now read-only"
            );
            tenant.wal = Some(WalHandle::Poisoned);
            return Err(wal_poisoned_reply(tenant_id));
        }
        WalTelemetry::count_checkpoint(shared.telemetry.registry(), tenant_id);
    }
    Ok(text)
}

/// The automatic checkpoint trigger, attempted at slot close: once a
/// durable tenant's log accumulated [`WalConfig::checkpoint_every`]
/// records, take a checkpoint. Best effort — a composite failure (e.g. a
/// shard is down mid-restart) skips this attempt and the threshold
/// re-arms at the next tick; only file failures poison (via
/// [`checkpoint`]).
fn maybe_checkpoint(tenant: &mut TenantCore, shared: &RouterShared, tenant_id: &str) {
    let every = shared
        .wal
        .as_ref()
        .map_or(0, |runtime| runtime.config.checkpoint_every);
    let due = matches!(
        &tenant.wal,
        Some(WalHandle::Open(tenant_wal)) if every > 0 && tenant_wal.ops_since_checkpoint >= every
    );
    if due {
        let _ = checkpoint(tenant, shared, tenant_id);
    }
}

/// The stable text of a reply for recovery error reporting.
fn reply_error_text(reply: &Reply) -> String {
    match reply {
        Reply::Err(code, message) => format!("{} {message}", code.as_str()),
        Reply::Ok(line) => format!("unexpected ok: {line}"),
        Reply::Data(_) => "unexpected data reply".to_string(),
    }
}

/// Replays one log record into a recovered tenant through the *live*
/// request paths, so replay determinism is the router's ordinary
/// determinism. Rejected submissions and checkpoint markers replay as
/// no-ops: neither ever mutated tenant state (rejections are logged so
/// the admission decision is durable; orphaned markers belong to
/// checkpoints that never finished installing).
fn apply_wal_record(
    tenant: &mut TenantCore,
    shared: &RouterShared,
    tenant_id: &str,
    record: &OpRecord,
) -> Result<(), String> {
    match record {
        OpRecord::Reject { .. } | OpRecord::Checkpoint { .. } => Ok(()),
        OpRecord::Quota(q) => {
            tenant.quota = Some(*q);
            Ok(())
        }
        OpRecord::Submit(spec) => match submit_routed(tenant, tenant_id, *spec, shared) {
            Ok(_) => Ok(()),
            Err((code, message)) => Err(format!(
                "logged-accepted submit re-rejected: {} {message}",
                code.as_str()
            )),
        },
        OpRecord::Tick => tick_lockstep(tenant, 1, &shared.telemetry)
            .map(|_| ())
            .map_err(|reply| reply_error_text(&reply)),
        OpRecord::ReshardSplit(cell) => reshard(tenant, tenant_id, ReshardOp::Split(*cell), shared)
            .map(|_| ())
            .map_err(|reply| reply_error_text(&reply)),
        OpRecord::ReshardMerge(a, b) => {
            reshard(tenant, tenant_id, ReshardOp::Merge(*a, *b), shared)
                .map(|_| ())
                .map_err(|reply| reply_error_text(&reply))
        }
    }
}

/// Durable startup: recovers every tenant found in the WAL directory —
/// `RESTORE` the newest checkpoint through the ordinary composite path,
/// then replay the log tail through the live request paths, then re-open
/// the log (truncated at the last valid CRC boundary) for appending.
/// Runs before the accept thread exists, so recovery is single-threaded
/// under one lock hold and no connection can observe a half-recovered
/// tenant. A tenant whose checkpoint or tail fails to apply is skipped
/// with a warning (its files are left on disk for inspection) rather
/// than failing startup — the other tenants' durability should not be
/// hostage to one corrupt directory entry.
fn recover_from_wal(shared: &RouterShared) -> std::io::Result<()> {
    let Some(runtime) = shared.wal.as_ref() else {
        return Ok(());
    };
    let recovered = wal::recover_dir(&runtime.config.dir)?;
    let mut core = shared.core.lock();
    for entry in recovered {
        // haste-lint: allow(L2) — startup-only recovery before the accept thread exists; per-cell work is deadline-bounded
        let restored = match restore_composite_state(&mut core, shared, &entry.checkpoint) {
            Ok(restored) => restored,
            Err(reply) => {
                eprintln!(
                    "haste-router: skipping recovery of tenant `{}`: bad checkpoint: {}",
                    entry.tenant,
                    reply_error_text(&reply)
                );
                continue;
            }
        };
        if restored.tenant != entry.tenant {
            eprintln!(
                "haste-router: skipping recovery of `{}`: its checkpoint names tenant `{}`",
                entry.tenant, restored.tenant
            );
            core.remove(&restored.tenant);
            continue;
        }
        if let Some(reason) = &entry.truncated {
            eprintln!(
                "haste-router: tenant `{}` log tail torn ({reason}); truncating to the last valid record",
                entry.tenant
            );
        }
        let Some(tenant) = core.get_mut(&entry.tenant) else {
            continue;
        };
        let replayed = entry.tail.iter().try_for_each(|record| {
            // haste-lint: allow(L2) — startup-only replay before the accept thread exists; child requests are deadline-bounded
            apply_wal_record(tenant, shared, &entry.tenant, record)
        });
        if let Err(reason) = replayed {
            eprintln!(
                "haste-router: skipping recovery of tenant `{}`: log replay failed: {reason}",
                entry.tenant
            );
            core.remove(&entry.tenant);
            continue;
        }
        // haste-lint: allow(L2) — startup-only local file I/O before the accept thread exists
        let tenant_wal = TenantWal::open_recovered(
            &runtime.config.dir,
            &entry.tenant,
            entry.valid_len,
            entry.tail.len(),
        )?;
        // The replayed records came from the file: none is appended again.
        tenant.log.unlogged();
        tenant.wal = Some(WalHandle::Open(tenant_wal));
        WalTelemetry::count_recovery(
            shared.telemetry.registry(),
            &entry.tenant,
            entry.tail.len() as u64,
        );
        eprintln!(
            "haste-router: recovered tenant `{}` at slot {} (replayed {} logged ops)",
            entry.tenant,
            restored.slot,
            entry.tail.len()
        );
    }
    // Connections start bound to the default tenant, which always exists
    // on a fresh router. If its recovery was skipped above (and removed
    // the half-restored entry), put back an empty fleet so the startup
    // contract holds.
    if !core.contains_key(DEFAULT_TENANT) {
        // haste-lint: allow(L2) — startup-only rebuild before the accept thread exists; child spawns are deadline-bounded
        if let Err(reply) = ensure_tenant(&mut core, shared, DEFAULT_TENANT, None) {
            eprintln!(
                "haste-router: rebuilding the default tenant after a failed recovery failed: {}",
                reply_error_text(&reply)
            );
        }
    }
    Ok(())
}

/// Executes one parsed request.
fn execute(request: Request, payload: &str, shared: &RouterShared, session: &mut Session) -> Reply {
    let config = &shared.config;
    match request {
        Request::Hello(version) => {
            let core = shared.core.lock();
            let shards = core
                .get(&session.tenant)
                .map(|tenant| tenant.shards.len())
                .unwrap_or(config.cells.0 * config.cells.1);
            hello_reply(&version, shards, config.cells)
        }
        Request::Tenant { id, quota } => {
            let mut core = shared.core.lock();
            if quota.is_some() && core.get(&id).is_some_and(TenantCore::poisoned) {
                return wal_poisoned_reply(&id);
            }
            session.tenant = id.clone();
            let shown = match core.get_mut(&id) {
                Some(tenant) => {
                    // The tenant exists: a quota applies immediately, and
                    // any quota parked from an earlier `TENANT` is moot.
                    if let Some(q) = quota {
                        tenant.quota = quota;
                        tenant.log.push(OpRecord::Quota(q));
                    }
                    session.pending_quota = None;
                    if !wal_flush(tenant, shared, &id) {
                        return wal_poisoned_reply(&id);
                    }
                    tenant.quota
                }
                None => {
                    // Selecting never creates: the quota waits for the
                    // `LOAD` that will create this tenant.
                    session.pending_quota = quota;
                    quota
                }
            };
            match shown {
                Some(q) => Reply::Ok(format!("tenant={id} quota={q}")),
                None => Reply::Ok(format!("tenant={id}")),
            }
        }
        Request::Load(_) => {
            let (tenant_id, pending_quota) = (session.tenant.clone(), session.pending_quota.take());
            let mut core = shared.core.lock();
            if core.get(&tenant_id).is_some_and(TenantCore::poisoned) {
                return wal_poisoned_reply(&tenant_id);
            }
            // haste-lint: allow(L2) — spawning the tenant's fleet is deadline-bounded per child; `core` must be held so no request observes a half-created tenant
            match ensure_tenant(&mut core, shared, &tenant_id, pending_quota) {
                Err(reply) => reply,
                Ok(tenant) => {
                    // haste-lint: allow(L2) — per-cell LOADs are deadline-bounded; `core` must be held so no request observes a half-partitioned scenario
                    let reply = load_scenario_text(tenant, &tenant_id, config, shared, payload);
                    if matches!(reply, Reply::Ok(_)) {
                        // A freshly loaded tenant starts durable from a
                        // checkpoint, so the log tail only ever carries
                        // post-load operations.
                        // haste-lint: allow(L2) — durability point: the checkpoint must land before LOAD is acked; `core` must be held so no request observes a non-durable loaded tenant
                        if let Err(reply) = wal_install(tenant, shared, &tenant_id) {
                            return reply;
                        }
                    }
                    reply
                }
            }
        }
        Request::Submit {
            x,
            y,
            facing,
            end_slot,
            energy,
            weight,
        } => {
            let spec = TaskSpec {
                device_pos: Vec2::new(x, y),
                device_facing: Angle::from_radians(facing),
                end_slot,
                required_energy: energy,
                weight,
            };
            let tenant_id = session.tenant.clone();
            let mut core = shared.core.lock();
            match writable_tenant(&mut core, &tenant_id) {
                Err(reply) => reply,
                Ok(tenant) => {
                    // haste-lint: allow(L2) — lockstep contract: `core` serializes shard traffic so global arrival order stays bit-identical; the child request is deadline-bounded
                    let reply = match submit_routed(tenant, &tenant_id, spec, shared) {
                        Ok((global, release, shard)) => {
                            Reply::Ok(format!("task={global} release={release} shard={shard}"))
                        }
                        Err((code, message)) => Reply::Err(code, message),
                    };
                    if wal_flush(tenant, shared, &tenant_id) {
                        reply
                    } else {
                        wal_poisoned_reply(&tenant_id)
                    }
                }
            }
        }
        Request::Tick(n) => {
            let tenant_id = session.tenant.clone();
            let mut core = shared.core.lock();
            match writable_tenant(&mut core, &tenant_id) {
                Err(reply) => reply,
                Ok(tenant) => {
                    // The load trigger fires between slots: a cell whose
                    // closing slot ran hot is split before the clock
                    // moves (best effort; a tenant with no scenario has
                    // no hot cell).
                    // haste-lint: allow(L2) — the migration must be one consistent between-ticks cut under `core`; each child call is deadline-bounded
                    maybe_auto_split(tenant, &tenant_id, shared);
                    // haste-lint: allow(L2) — the lockstep pipelines deadline-bounded TICKs across cells under `core`; interleaving another request mid-round would fork the clock
                    let outcome = tick_lockstep(tenant, n, &shared.telemetry);
                    // Log what actually happened — an auto-split and every
                    // slot that closed — even when a later step of a
                    // multi-slot TICK failed: the clock moved for the
                    // completed steps.
                    if !wal_flush(tenant, shared, &tenant_id) {
                        wal_poisoned_reply(&tenant_id)
                    } else {
                        match outcome {
                            Ok((slot, open)) => {
                                // The slot closed cleanly — the moment the
                                // automatic checkpoint threshold is checked.
                                // haste-lint: allow(L2) — durability point: the automatic checkpoint must land before the TICK ack; per-cell snapshots are deadline-bounded
                                maybe_checkpoint(tenant, shared, &tenant_id);
                                Reply::Ok(format!("slot={slot} open={}", u8::from(open)))
                            }
                            Err(reply) => reply,
                        }
                    }
                }
            }
        }
        Request::Clock => {
            let core = shared.core.lock();
            match loaded_tenant(&core, &session.tenant) {
                Err(reply) => reply,
                // The tenant clock is authoritative (healthy shards track
                // it in lockstep; down shards rejoin to it), so CLOCK?
                // answers even while children are restarting.
                Ok((tenant, loaded)) => Reply::Ok(format!(
                    "slot={} open={}",
                    tenant.clock,
                    u8::from(tenant.clock < loaded.slots())
                )),
            }
        }
        Request::Schedule => {
            let core = shared.core.lock();
            match loaded_tenant(&core, &session.tenant) {
                Err(reply) => reply,
                // haste-lint: allow(L2) — merge must read every cell at one consistent clock; each child SCHEDULE? is deadline-bounded
                Ok((tenant, loaded)) => match merged_schedule(tenant, loaded) {
                    Ok(schedule) => Reply::Data(model_io::write_schedule(&schedule)),
                    Err(reply) => reply,
                },
            }
        }
        Request::Utility => {
            let core = shared.core.lock();
            match loaded_tenant(&core, &session.tenant) {
                Err(reply) => reply,
                // haste-lint: allow(L2) — merge must read every cell at one consistent clock; each child PARTS? is deadline-bounded
                Ok((tenant, loaded)) => match merged_parts(tenant, loaded) {
                    Ok(parts) => {
                        // Sequential left-to-right sums over the arrival
                        // order from +0, as the single engine sums: the
                        // same addends in the same sequence. (`Iterator::sum`
                        // starts from -0, so a task-free tenant would
                        // answer `-0`.)
                        let total = |terms: &[f64]| terms.iter().fold(0.0, |sum, term| sum + term);
                        let (utility, relaxed) = (total(&parts.full), total(&parts.relaxed));
                        Reply::Ok(format!("utility={utility} relaxed={relaxed}"))
                    }
                    Err(reply) => reply,
                },
            }
        }
        Request::Parts => {
            let core = shared.core.lock();
            match loaded_tenant(&core, &session.tenant) {
                Err(reply) => reply,
                // haste-lint: allow(L2) — merge must read every cell at one consistent clock; each child PARTS? is deadline-bounded
                Ok((tenant, loaded)) => match merged_parts(tenant, loaded) {
                    Ok(parts) => Reply::Data(parts_payload(&parts)),
                    Err(reply) => reply,
                },
            }
        }
        Request::Export => {
            let core = shared.core.lock();
            let mut snap = shared.telemetry.registry().snapshot();
            // Every shard of every tenant contributes its engine families
            // (a child also its request series); the catalog's merge rules
            // combine them. A down child contributes nothing this scrape.
            let mut down = 0u64;
            for tenant in core.values() {
                for shard in &tenant.shards {
                    // haste-lint: allow(L2) — deadline-bounded EXPORT? per cell; a down child contributes nothing this scrape rather than wedging it
                    match shard.export() {
                        Ok(part) => snap.merge(part),
                        Err(SlotError::Unavailable { .. }) => down += 1,
                        Err(_) => {}
                    }
                }
            }
            snap.set_gauge("haste_supervisor_down_shards", &[], u128::from(down));
            Reply::Data(snap.render())
        }
        Request::Shards => {
            let core = shared.core.lock();
            // haste-lint: allow(L2) — deadline-bounded child SHARDS? per cell under one `core` hold so SHARDS? reports a consistent cut
            shards_payload(&core)
        }
        Request::Snapshot => {
            let tenant_id = session.tenant.clone();
            let mut core = shared.core.lock();
            match tenant_mut(&mut core, &tenant_id) {
                Err(reply) => reply,
                // An operator SNAPSHOT doubles as a durability checkpoint.
                Ok(tenant) => {
                    // haste-lint: allow(L2) — per-cell SNAP?s are deadline-bounded; `core` held so the composite is one consistent clock cut
                    checkpoint(tenant, shared, &tenant_id).map_or_else(|e| e, Reply::Data)
                }
            }
        }
        Request::Restore(_) => {
            let mut core = shared.core.lock();
            // haste-lint: allow(L2) — per-cell RESTOREs are deadline-bounded; `core` held so no request observes a half-restored composite
            restore_composite(&mut core, shared, payload)
        }
        Request::ReshardSplit(cell) => reshard_request(shared, session, ReshardOp::Split(cell)),
        Request::ReshardMerge(a, b) => reshard_request(shared, session, ReshardOp::Merge(a, b)),
        Request::Bye => Reply::Ok("bye".to_string()),
    }
}

/// `RESHARD SPLIT`/`MERGE` on the session's tenant: the live migration,
/// then its record's durability point.
fn reshard_request(shared: &RouterShared, session: &Session, op: ReshardOp) -> Reply {
    let tenant_id = session.tenant.clone();
    let mut core = shared.core.lock();
    let tenant = match writable_tenant(&mut core, &tenant_id) {
        Ok(tenant) => tenant,
        Err(reply) => return reply,
    };
    // haste-lint: allow(L2) — the migration must be one consistent between-ticks cut: children are rebuilt and swapped in under `core`, each child call deadline-bounded
    match reshard(tenant, &tenant_id, op, shared) {
        Ok((cells, version)) => {
            if wal_flush(tenant, shared, &tenant_id) {
                Reply::Ok(format!("cells={cells} map={version}"))
            } else {
                wal_poisoned_reply(&tenant_id)
            }
        }
        Err(reply) => reply,
    }
}

/// The `SHARDS?` payload: one line per shard of every loaded tenant, in
/// tenant order, each carrying the tenant id and the routing-map version
/// that currently serves it. Cell coordinates come from the base grid
/// while the tenant still sits on one; after a split the tiling is no
/// longer a uniform grid and cells are numbered linearly as `(i, 0)`.
fn shards_payload(core: &RouterCore) -> Reply {
    let mut payload = String::new();
    let mut any = false;
    for (tenant_id, tenant) in core {
        let Some(loaded) = &tenant.loaded else {
            continue;
        };
        any = true;
        let grid = loaded.partition.base_grid();
        for (index, shard) in tenant.shards.iter().enumerate() {
            match shard.status_view() {
                Ok((status, health, restarts, replay)) => {
                    let cell = match grid {
                        Some((gx, _)) => (index % gx, index / gx),
                        None => (index, 0),
                    };
                    payload.push_str(&shard_line(
                        index,
                        cell,
                        &status,
                        health,
                        restarts,
                        replay,
                        tenant_id,
                        loaded.map_version,
                    ));
                }
                Err(e) => return slot_err(e),
            }
        }
    }
    if !any {
        return shard_err(ShardError::NoScenario);
    }
    Reply::Data(payload)
}

/// `LOAD` on a tenant: parse, partition, split, install per-cell
/// engines, and keep the scenario and its partition as the tenant's
/// loaded state.
/// Totals come from the split itself (each charger and task belongs to
/// exactly one cell), so the reply is correct even if a child shard is
/// down — its baseline is recorded and the first tick's rejoin pass
/// replays the load into a fresh child.
fn load_scenario_text(
    tenant: &mut TenantCore,
    tenant_id: &str,
    config: &RouterConfig,
    shared: &RouterShared,
    payload: &str,
) -> Reply {
    if tenant.loaded.is_some() {
        return shard_err(ShardError::AlreadyLoaded);
    }
    let scenario = match model_io::read_scenario(payload) {
        Ok(scenario) => scenario,
        Err(e) => return Reply::Err(ErrCode::BadRequest, format!("bad scenario: {e}")),
    };
    let partition = match Partition::grid(
        Vec2::new(config.origin.0, config.origin.1),
        config.field.0,
        config.field.1,
        config.cells.0,
        config.cells.1,
        scenario.params.radius,
    ) {
        Ok(partition) => partition,
        Err(e) => return partition_err(e),
    };
    if let Err(e) = partition.validate_chargers(&scenario) {
        return partition_err(e);
    }
    let cells = match partition.split(&scenario) {
        Ok(cells) => cells,
        Err(e) => return partition_err(e),
    };
    let mut total_chargers = 0;
    let mut total_staged = 0;
    for (shard, cell) in tenant.shards.iter().zip(cells) {
        total_chargers += cell.chargers.len();
        total_staged += cell.tasks.len();
        match shard.load_scenario(cell) {
            Ok(()) => {}
            // A down child shard: the supervisor holds the sub-scenario
            // as its baseline, so the rejoin replay loads it later.
            Err(SlotError::Unavailable { .. }) => {}
            // `split` validated every sub-scenario, so a structured
            // failure here is a router bug; surface it without
            // half-initialized routing state (RESTORE recovers).
            Err(e) => return slot_err(e),
        }
    }
    let loaded = Loaded {
        scenario,
        partition,
        map_version: 1,
    };
    let reply = Reply::Ok(format!(
        "chargers={total_chargers} staged={total_staged} slots={} shards={}",
        loaded.slots(),
        tenant.shards.len()
    ));
    tenant.materialized = loaded.released_in(0);
    tenant.clock = 0;
    tenant.log = OpLog::default();
    tenant.quota_used = 0;
    tenant.cell_submits = vec![0; tenant.shards.len()];
    tenant.loaded = Some(loaded);
    TenantCounters::set_shards(shared.telemetry.registry(), tenant_id, tenant.shards.len());
    // Slot-0 fault directives mature the moment the grid opens.
    for shard in &tenant.shards {
        shard.apply_slot_faults(0);
    }
    reply
}

/// Advances one tenant's lockstep one slot at a time, counting the staged
/// arrivals each opened slot releases. Down shards do
/// not stall the fleet: each step first gives them a rejoin (restart +
/// replay to the tenant clock), then ticks every shard, *pipelined*; the
/// step's tick record lands on the operation log either way, so a shard
/// that is still down replays the missed slot when it rejoins, and fault
/// directives for the newly opened slot mature last. Closing a slot
/// resets the quota usage and the per-cell submission counts (they
/// measure the closing slot only).
///
/// **Pipelined negotiation.** The per-shard `tick1` calls of one step run
/// concurrently on scoped `haste-parallel` threads: every [`ShardSlot`]
/// ticks through `&self` behind its own interior lock (an in-process
/// shard's engine mutex; an out-of-process shard's connection state, so a
/// remote step is a concurrently-issued child request under the usual
/// per-request deadline). The join below is the consistent-cut barrier —
/// the tenant clock, the materialized-task count, and slot faults advance
/// only after *every* shard has finished (or missed) the slot, so between
/// requests all healthy shards still sit at the tenant's virtual slot.
/// Replanning is per-shard-deterministic and shards share no state, so
/// thread interleaving cannot reach any output bits; tick outcomes are
/// processed sequentially in shard order, keeping error reporting
/// deterministic too (DESIGN.md §11 has the full argument).
fn tick_lockstep(
    tenant: &mut TenantCore,
    n: usize,
    router_telemetry: &Telemetry,
) -> Result<(usize, bool), Reply> {
    let loaded = Loaded::of(&tenant.loaded).map_err(shard_err)?;
    let slots = loaded.slots();
    if tenant.clock >= slots {
        return Err(shard_err(ShardError::AtHorizon));
    }
    for _ in 0..n {
        if tenant.clock >= slots {
            break;
        }
        for (index, shard) in tenant.shards.iter().enumerate() {
            shard.rejoin(tenant.clock, &tenant.log, |pos| {
                loaded.partition.cell_of(pos) == index
            });
        }
        let step_start = telemetry::clock_start();
        let outcomes = haste_parallel::par_map(&tenant.shards, tenant.shards.len(), |_, shard| {
            let replan_start = telemetry::clock_start();
            let outcome = shard.tick1();
            (outcome, telemetry::elapsed_us(replan_start))
        });
        // The join above is the consistent-cut barrier: a shard's wait is
        // the gap between its own replan finishing and the whole step.
        let step_us = telemetry::elapsed_us(step_start);
        for (index, (outcome, replan_us)) in outcomes.into_iter().enumerate() {
            let cell_label = index.to_string();
            let registry = router_telemetry.registry();
            registry
                .histogram_with("haste_router_tick_replan_duration_us", "cell", &cell_label)
                .observe(replan_us);
            registry
                .histogram_with("haste_router_join_wait_duration_us", "cell", &cell_label)
                .observe((step_us - replan_us).max(0.0));
            match outcome {
                Ok((slot, _open)) => {
                    if slot != tenant.clock + 1 {
                        return Err(internal(&format!(
                            "lockstep broken: shard at slot {slot} after ticking from {}",
                            tenant.clock
                        )));
                    }
                }
                // A down shard replays the missed slot from the log.
                Err(SlotError::Unavailable { .. }) => {}
                Err(e) => return Err(slot_err(e)),
            }
        }
        tenant.clock += 1;
        tenant.log.push(OpRecord::Tick);
        tenant.materialized += loaded.released_in(tenant.clock);
        tenant.quota_used = 0;
        for count in &mut tenant.cell_submits {
            *count = 0;
        }
        for shard in &tenant.shards {
            shard.apply_slot_faults(tenant.clock);
        }
    }
    Ok((tenant.clock, tenant.clock < slots))
}

/// The elastic-split load trigger: if any cell accepted more than
/// [`RouterConfig::split_threshold`] submissions during the closing slot,
/// split the first such cell. Best effort — an unsplittable hot cell
/// (too thin, a charger too close to the midline) keeps its load and the
/// trigger re-arms next slot. A completed split lands on the operation
/// log like a `RESHARD SPLIT`: recovery replays the *logged* split
/// rather than re-running this heuristic (whose per-slot submission
/// counters don't survive a restart).
fn maybe_auto_split(tenant: &mut TenantCore, tenant_id: &str, shared: &RouterShared) {
    let Some(threshold) = shared.config.split_threshold else {
        return;
    };
    if let Some(hot) = tenant.cell_submits.iter().position(|&n| n > threshold) {
        let _ = reshard(tenant, tenant_id, ReshardOp::Split(hot), shared);
    }
}

/// A live topology change.
#[derive(Debug, Clone, Copy)]
enum ReshardOp {
    Split(usize),
    Merge(usize, usize),
}

/// Live migration: split one cell in two, or merge two adjacent cells,
/// without touching any other shard. Runs entirely under the router
/// mutex, so the whole migration is one between-ticks consistent cut.
///
/// Phase 1 builds the replacement shard(s) *off to the side*: the new
/// partition re-splits the loaded scenario into per-cell baselines, the
/// affected cell(s) get fresh shards loaded with their baselines, and the
/// accepted view of the tenant's operation log replays into them in
/// arrival order (ticks tick every rebuilt child; submissions route by
/// the *new* partition and land only in rebuilt cells). Accepted-only
/// replay never re-rejects: a child cell's pending set is a subset of its
/// parent's at every prefix. A rebuilt child process then takes its
/// state as its restart baseline. Any failure aborts with the live
/// topology untouched (dropped spawned children are killed by their
/// supervisor guard).
///
/// Phase 2 swaps atomically: surviving shards are renumbered around the
/// rebuilt ones, the new tiling replaces the old with the map version
/// bumped, the per-cell
/// submission counters reset to the new width, and the operation log
/// records the change. DESIGN.md §13 argues why the global utility is
/// bit-identical across the swap.
fn reshard(
    tenant: &mut TenantCore,
    tenant_id: &str,
    op: ReshardOp,
    shared: &RouterShared,
) -> Result<(usize, u64), Reply> {
    let loaded = Loaded::of(&tenant.loaded).map_err(shard_err)?;
    let scenario = &loaded.scenario;
    let new_partition = match op {
        ReshardOp::Split(cell) => loaded.partition.split_cell(cell),
        ReshardOp::Merge(a, b) => loaded.partition.merge_cells(a, b),
    }
    .map_err(partition_err)?;
    if matches!(op, ReshardOp::Split(_)) {
        // A split introduces a new interior boundary; every charger's
        // reach must still stay inside its (possibly shrunken) cell.
        // Merging only removes boundaries, so it never needs this.
        new_partition
            .validate_chargers(scenario)
            .map_err(partition_err)?;
    }
    let baselines = new_partition.split(scenario).map_err(partition_err)?;
    let new_count = new_partition.num_cells();
    // New cell index → surviving old shard index; `None` marks the
    // rebuilt cell(s). Split(c): children take c and c+1, later cells
    // shift up. Merge(a, b): the union takes min(a, b), later cells
    // shift down.
    let old_of: Vec<Option<usize>> = match op {
        ReshardOp::Split(cell) => (0..new_count)
            .map(|j| {
                if j < cell {
                    Some(j)
                } else if j <= cell + 1 {
                    None
                } else {
                    Some(j - 1)
                }
            })
            .collect(),
        ReshardOp::Merge(a, b) => {
            let (lo, hi) = (a.min(b), a.max(b));
            (0..new_count)
                .map(|j| {
                    if j == lo {
                        None
                    } else if j < hi {
                        Some(j)
                    } else {
                        Some(j + 1)
                    }
                })
                .collect()
        }
    };
    // Validate the remap before touching live state: every surviving
    // reference must be unique and in range, so the swap below is
    // infallible once the old fleet is drained. (Old shards nothing
    // references — the split parent, the merged pair — are retired when
    // they drop; a remote child's guard kills its process.)
    {
        let mut seen = vec![false; tenant.shards.len()];
        for entry in old_of.iter().flatten() {
            if *entry >= seen.len() || seen[*entry] {
                return Err(internal("reshard remap is not injective"));
            }
            seen[*entry] = true;
        }
    }
    // Phase 1: build and rebuild the replacement shard(s) off to the
    // side. `children` pairs each fresh slot with its new cell index.
    let mut children: Vec<(usize, ShardSlot)> = Vec::new();
    for (j, old) in old_of.iter().enumerate() {
        if old.is_none() {
            children.push((j, fresh_slot(shared, j)?));
        }
    }
    for (j, child) in &children {
        let Some(baseline) = baselines.get(*j).cloned() else {
            return Err(internal("reshard lost a cell baseline"));
        };
        child.load_scenario(baseline).map_err(slot_err)?;
    }
    // Replay the accepted view of the log in arrival order. Ticks
    // advance every rebuilt child; submissions route by the *new*
    // partition and only matter if they land in a rebuilt cell.
    for op in tenant.log.accepted() {
        match op {
            OpRecord::Tick => {
                for (_, child) in &children {
                    child.tick1().map_err(slot_err)?;
                }
            }
            OpRecord::Submit(spec) => {
                let cell = new_partition.cell_of(spec.device_pos);
                if let Some((_, child)) = children.iter().find(|(j, _)| *j == cell) {
                    child.submit(*spec).map_err(slot_err)?;
                }
            }
            _ => {}
        }
    }
    // The rebuilt children must have landed exactly on the tenant clock;
    // each restarts from this state, not from a view of the log.
    for (j, child) in &children {
        let (slot, _open) = child.clock().map_err(slot_err)?;
        if slot != tenant.clock {
            return Err(internal(&format!(
                "rebuilt cell {j} landed on slot {slot}, tenant clock {}",
                tenant.clock
            )));
        }
        child.rebase(tenant.log.len()).map_err(slot_err)?;
    }
    // Phase 2: the atomic swap. Everything fallible already happened.
    let map_version = loaded.map_version + 1;
    let mut old: Vec<Option<ShardSlot>> = tenant.shards.drain(..).map(Some).collect();
    let mut fresh = children.into_iter();
    let mut new_shards = Vec::with_capacity(new_count);
    for entry in &old_of {
        match entry {
            // haste-lint: allow(P1) — the remap was validated injective-in-range before the drain, so each old slot is taken exactly once
            Some(i) => new_shards.push(old[*i].take().expect("remap validated above")),
            None => {
                // haste-lint: allow(P1) — `children` was built with one entry per `None` in the remap, in order
                new_shards.push(fresh.next().expect("one fresh child per rebuilt cell").1)
            }
        }
    }
    for (index, shard) in new_shards.iter().enumerate() {
        shard.set_cell(index);
    }
    tenant.shards = new_shards;
    tenant.loaded = tenant.loaded.take().map(|loaded| Loaded {
        partition: new_partition,
        map_version,
        ..loaded
    });
    tenant.cell_submits = vec![0; new_count];
    tenant.log.push(match op {
        ReshardOp::Split(cell) => OpRecord::ReshardSplit(cell),
        ReshardOp::Merge(a, b) => OpRecord::ReshardMerge(a, b),
    });
    tenant.counters.reshards.inc();
    TenantCounters::set_shards(shared.telemetry.registry(), tenant_id, new_count);
    Ok((new_count, map_version))
}

/// Re-merges shard schedules into original charger numbering. Bitwise
/// faithful: orientations are copied, never recomputed. Charger owners
/// are derived from positions against the *current* partition, so the
/// merge is correct across any number of reshards.
fn merged_schedule(tenant: &TenantCore, loaded: &Loaded) -> Result<Schedule, Reply> {
    let mut shard_schedules = Vec::with_capacity(tenant.shards.len());
    for shard in &tenant.shards {
        shard_schedules.push(shard.schedule().map_err(slot_err)?);
    }
    let slots = loaded.slots();
    let mut merged = Schedule::empty(loaded.scenario.chargers.len(), slots);
    let mut locals = vec![0u32; tenant.shards.len()];
    for (i, charger) in loaded.scenario.chargers.iter().enumerate() {
        let cell = loaded.partition.cell_of(charger.pos);
        let (Some(local), Some(source)) = (locals.get_mut(cell), shard_schedules.get(cell)) else {
            return Err(internal("charger owner out of range"));
        };
        for slot in 0..slots {
            merged.set(
                ChargerId(i as u32),
                slot,
                source.get(ChargerId(*local), slot),
            );
        }
        *local += 1;
    }
    Ok(merged)
}

/// Merges per-shard `wⱼ·Uⱼ` terms into the global arrival order — the
/// exact addend sequence of a single engine's evaluator (see module
/// docs). `UTILITY?` sums this; `PARTS?` serves it verbatim. Each task's
/// owner is derived from the log against the current partition
/// ([`arrival_owners`]), so the walk is correct across any number of
/// reshards.
fn merged_parts(tenant: &TenantCore, loaded: &Loaded) -> Result<UtilityParts, Reply> {
    let mut parts = Vec::with_capacity(tenant.shards.len());
    for shard in &tenant.shards {
        parts.push(shard.utility_parts().map_err(slot_err)?);
    }
    let owners = arrival_owners(
        &loaded.scenario,
        &loaded.partition,
        &arrival_runs(&tenant.log, &loaded.partition),
    );
    let mut cursors = vec![0usize; tenant.shards.len()];
    let mut full = Vec::with_capacity(owners.len());
    let mut relaxed = Vec::with_capacity(owners.len());
    for owner in owners {
        let shard = owner as usize;
        let (Some(cursor), Some(part)) = (cursors.get_mut(shard), parts.get(shard)) else {
            return Err(internal("task owner out of range"));
        };
        let (Some(full_term), Some(relaxed_term)) =
            (part.full.get(*cursor), part.relaxed.get(*cursor))
        else {
            return Err(internal("arrival order longer than shard task lists"));
        };
        full.push(*full_term);
        relaxed.push(*relaxed_term);
        *cursor += 1;
    }
    Ok(UtilityParts { full, relaxed })
}

fn internal(reason: &str) -> Reply {
    Reply::Err(ErrCode::Internal, reason.to_string())
}

/// Serializes one tenant's consistent cut: tenancy, routing-map version,
/// partition geometry (base grid + explicit cell rects, so post-reshard
/// tilings round-trip), the loaded scenario, each slot's arrival runs,
/// and every shard's embedded engine snapshot. Every shard must be up
/// and sitting on the tenant clock (a down shard's state is mid-replay
/// by definition, so `SNAPSHOT` in degraded mode fails with
/// `ERR unavailable`).
///
/// The document is one buffer, sized up front. Out-of-process children
/// render first, concurrently, each answering `SNAPSHOT` under its own
/// deadline; then, on the calling thread, each in-process engine writes
/// its section straight into the buffer, formatting only the `task`
/// lines of tasks that arrived since its last snapshot (see
/// [`OnlineEngine::snapshot`]). Once the document is assembled, each
/// child's text is committed as its new replay baseline — never before,
/// so a failed snapshot moves no baseline.
fn composite_snapshot(
    tenant: &TenantCore,
    loaded: &Loaded,
    tenant_id: &str,
) -> Result<String, Reply> {
    let partition = &loaded.partition;
    let clock = tenant.clock;
    // Lockstep is an invariant (one mutex, ticks inside it); this
    // re-checks it so a corrupt snapshot can never be emitted silently,
    // and surfaces `unavailable` for down shards.
    let in_lockstep = |slot: usize| {
        if slot == clock {
            Ok(())
        } else {
            Err(internal(&format!(
                "shards out of lockstep: slot={slot} vs tenant clock {clock}"
            )))
        }
    };
    let children = tenant
        .shards
        .iter()
        .filter(|shard| matches!(shard, ShardSlot::Remote(_)))
        .count();
    // One thread per child, none for in-process shards.
    let fetched = haste_parallel::par_map(&tenant.shards, children, |_, shard| match shard {
        ShardSlot::Local(_) => Ok(None),
        ShardSlot::Remote(child) => {
            in_lockstep(child.clock().map_err(slot_err)?.0)?;
            child.snapshot().map(Some).map_err(slot_err)
        }
    })
    .into_iter()
    .collect::<Result<Vec<Option<String>>, Reply>>()?;
    let origin = partition.origin();
    let head = CompositeSnapshot {
        tenant: tenant_id.to_string(),
        map_version: loaded.map_version,
        grid: (partition.cells_x(), partition.cells_y()),
        origin: (origin.x, origin.y),
        field: partition.field(),
        halo: partition.halo(),
        cells: partition.cells().to_vec(),
        scenario: model_io::write_scenario(&loaded.scenario),
        arrivals: arrival_runs(&tenant.log, partition),
        // Written straight into the document below.
        shards: Vec::new(),
        // Derived when a document is parsed; rendering never reads it.
        order: Vec::new(),
    };
    // Each shard has a fetched section (a child) or an engine here.
    let mut capacity = head_len_hint(&head);
    for (shard, section) in tenant.shards.iter().zip(&fetched) {
        capacity += SECTION_HEADER_BYTES;
        if let Some(section) = section {
            capacity += section.len();
        } else if let ShardSlot::Local(shard) = shard {
            capacity += shard
                .with_engine(|engine| engine.snapshot_len_hint())
                .map_err(shard_err)?;
        }
    }
    let mut text = String::with_capacity(capacity);
    push_head(&mut text, &head, model_io::scenario_lines(&loaded.scenario));
    for (index, (shard, section)) in tenant.shards.iter().zip(&fetched).enumerate() {
        if let Some(section) = section {
            push_section(&mut text, index, section);
        } else if let ShardSlot::Local(shard) = shard {
            shard
                .with_engine(|engine| {
                    in_lockstep(engine.clock())?;
                    push_section_header(&mut text, index, engine.snapshot_lines());
                    engine.write_snapshot(&mut text);
                    Ok(())
                })
                .map_err(shard_err)??;
        }
    }
    // Commit: the cut is complete, so each child's section becomes its
    // replay baseline at the log's end (bounding replay depth).
    for (shard, section) in tenant.shards.iter().zip(fetched) {
        if let Some(section) = section {
            shard.checkpoint(section, tenant.log.len());
        }
    }
    Ok(text)
}

/// The composite's arrival runs: for each slot from 0 to the open one,
/// the cells of that slot's accepted submissions in arrival order,
/// run-length encoded as `(cell, count)`. One `cell_of` per submission
/// against the current tiling, which is also the tiling of the shard
/// sections those tasks live in.
fn arrival_runs(log: &OpLog, partition: &Partition) -> Vec<Vec<(u32, usize)>> {
    let mut arrivals = Vec::new();
    let mut runs: Vec<(u32, usize)> = Vec::new();
    for record in log.accepted() {
        match record {
            OpRecord::Tick => arrivals.push(std::mem::take(&mut runs)),
            OpRecord::Submit(spec) => {
                let cell = partition.cell_of(spec.device_pos) as u32;
                match runs.last_mut() {
                    Some((last, count)) if *last == cell => *count += 1,
                    _ => runs.push((cell, 1)),
                }
            }
            _ => {}
        }
    }
    arrivals.push(runs);
    arrivals
}

/// The owning cell of every materialized task, in global arrival order:
/// for each slot of `arrivals`, the scenario's staged tasks released in
/// it (stable by release slot, as the single engine injects them the
/// moment the slot opens), then the slot's runs of accepted submissions.
/// The one derivation of the order, shared by `UTILITY?`/`PARTS?` (runs
/// from [`arrival_runs`]) and [`parse_composite`] (runs from the
/// document).
fn arrival_owners(
    scenario: &Scenario,
    partition: &Partition,
    arrivals: &[Vec<(u32, usize)>],
) -> Vec<u32> {
    let mut staged: Vec<&Task> = scenario.tasks.iter().collect();
    staged.sort_by_key(|task| task.release_slot);
    let mut staged = staged.into_iter().peekable();
    let mut owners = Vec::new();
    for (slot, runs) in arrivals.iter().enumerate() {
        while let Some(task) = staged.next_if(|task| task.release_slot <= slot) {
            owners.push(partition.cell_of(task.device_pos) as u32);
        }
        for &(cell, count) in runs {
            owners.extend(std::iter::repeat_n(cell, count));
        }
    }
    owners
}

/// A parsed composite router snapshot (format v4). [`parse_composite`]
/// and [`render_composite`] are public so out-of-process tooling
/// (loadgen verification, operators) can split a composite document back
/// into per-shard engine snapshots and re-render it bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeSnapshot {
    /// The tenant this cut belongs to (`RESTORE` targets it).
    pub tenant: String,
    /// Routing-map version at the cut.
    pub map_version: u64,
    /// Base partition grid `(cells_x, cells_y)` the tiling descends from.
    pub grid: (usize, usize),
    /// Field origin `(x, y)`.
    pub origin: (f64, f64),
    /// Field extent `(width, height)`.
    pub field: (f64, f64),
    /// Charger-reach halo width.
    pub halo: f64,
    /// The cell rects of the tiling, in cell order (not necessarily a
    /// uniform grid after resharding).
    pub cells: Vec<CellRect>,
    /// The loaded scenario, in canonical `write_scenario` text.
    pub scenario: String,
    /// One entry per slot from 0 to the open slot (so the clock is
    /// `arrivals.len() - 1`): that slot's accepted submissions in arrival
    /// order, as runs of `(cell, count)` — each count positive, adjacent
    /// runs in different cells. The tasks themselves live in the shard
    /// sections.
    pub arrivals: Vec<Vec<(u32, usize)>>,
    /// Each shard's embedded engine snapshot document.
    pub shards: Vec<String>,
    /// Owning shard of each materialized task, in global arrival order:
    /// each slot's staged releases, then its runs — **derived** at parse
    /// time from the scenario, the arrival runs, and the cell rects (not
    /// serialized; [`render_composite`] ignores it).
    pub order: Vec<u32>,
}

/// Renders a composite snapshot into the v4 wire document. Inverse of
/// [`parse_composite`]: `render(parse(text)) == text` for any document
/// `parse_composite` accepts. The router's own `SNAPSHOT` writes the same
/// bytes without going through a [`CompositeSnapshot`] (see
/// `composite_snapshot`); this is for tooling that holds one.
pub fn render_composite(composite: &CompositeSnapshot) -> String {
    let sections = composite
        .shards
        .iter()
        .map(|s| s.len() + SECTION_HEADER_BYTES)
        .sum::<usize>();
    let mut text = String::with_capacity(head_len_hint(composite) + sections);
    push_head(&mut text, composite, composite.scenario.lines().count());
    for (index, section) in composite.shards.iter().enumerate() {
        push_section(&mut text, index, section);
    }
    text
}

/// Room for one `shard <index> <lines>` header line.
const SECTION_HEADER_BYTES: usize = 32;

/// About the bytes [`push_head`] writes: the fixed lines, 100 bytes per
/// rect line, the scenario and 16 bytes per arrival run.
fn head_len_hint(composite: &CompositeSnapshot) -> usize {
    512 + 100 * composite.cells.len()
        + composite.scenario.len()
        + composite
            .arrivals
            .iter()
            .map(|runs| 2 + 16 * runs.len())
            .sum::<usize>()
}

/// Writes everything of the v4 document before its shard sections;
/// `scenario_lines` counts the lines of `composite.scenario`.
fn push_head(text: &mut String, composite: &CompositeSnapshot, scenario_lines: usize) {
    use std::fmt::Write as _;
    text.push_str(COMPOSITE_MAGIC);
    text.push('\n');
    // Writing into a `String` cannot fail.
    let _ = writeln!(text, "tenant {}", composite.tenant);
    let _ = writeln!(text, "map {}", composite.map_version);
    let _ = writeln!(text, "grid {} {}", composite.grid.0, composite.grid.1);
    let _ = writeln!(
        text,
        "field {} {} {} {} {}",
        composite.origin.0,
        composite.origin.1,
        composite.field.0,
        composite.field.1,
        composite.halo
    );
    let _ = writeln!(text, "cells {}", composite.cells.len());
    for rect in &composite.cells {
        let _ = writeln!(text, "{} {} {} {}", rect.x0, rect.y0, rect.x1, rect.y1);
    }
    let _ = writeln!(text, "scenario {scenario_lines}");
    push_block(text, &composite.scenario);
    let _ = writeln!(text, "arrivals {}", composite.arrivals.len());
    for runs in &composite.arrivals {
        if runs.is_empty() {
            text.push('-');
        }
        for (i, (cell, count)) in runs.iter().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            let _ = write!(text, "{cell}x{count}");
        }
        text.push('\n');
    }
}

/// Writes a shard section's header line.
fn push_section_header(text: &mut String, index: usize, lines: usize) {
    use std::fmt::Write as _;
    let _ = writeln!(text, "shard {index} {lines}");
}

/// Writes a shard section already rendered as text (a child's reply, or
/// a parsed document's), counting its lines for the header.
fn push_section(text: &mut String, index: usize, section: &str) {
    push_section_header(text, index, section.lines().count());
    push_block(text, section);
}

/// Appends an embedded document, newline-terminated.
fn push_block(text: &mut String, block: &str) {
    text.push_str(block);
    if !block.is_empty() && !block.ends_with('\n') {
        text.push('\n');
    }
}

/// The tenant-id grammar of the wire protocol (`TENANT`), shared by the
/// composite document's `tenant` line.
fn valid_tenant_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// The lines of the counted section `<header> <n>` that comes next.
fn counted_section<'a>(
    lines: &mut std::str::Lines<'a>,
    header: &str,
) -> Result<Vec<&'a str>, String> {
    let head = lines
        .next()
        .ok_or_else(|| format!("truncated before {header}"))?;
    let count = match head.split_whitespace().collect::<Vec<_>>().as_slice() {
        [h, count] if *h == header => count
            .parse::<usize>()
            .map_err(|_| format!("bad {header} count `{count}`"))?,
        _ => return Err(format!("bad {header} line `{head}`")),
    };
    // The count is untrusted: collect the lines that are there instead
    // of reserving room for it.
    let entries: Vec<&str> = lines.take(count).collect();
    if entries.len() < count {
        return Err(format!("truncated {header} section"));
    }
    Ok(entries)
}

/// Parses one `arrivals` line: `-`, or runs `<cell>x<count>` naming cells
/// below `cells`, each count positive, adjacent runs in different cells.
fn parse_arrivals(line: &str, cells: usize) -> Result<Vec<(u32, usize)>, String> {
    if line == "-" {
        return Ok(Vec::new());
    }
    let mut runs: Vec<(u32, usize)> = Vec::new();
    for token in line.split_whitespace() {
        let run = token
            .split_once('x')
            .and_then(|(cell, count)| Some((cell.parse::<u32>().ok()?, count.parse().ok()?)));
        match run {
            Some((cell, count))
                if (cell as usize) < cells
                    && count > 0
                    && runs.last().is_none_or(|&(last, _)| last != cell) =>
            {
                runs.push((cell, count))
            }
            _ => return Err(format!("bad arrivals line `{line}`")),
        }
    }
    if runs.is_empty() {
        return Err(format!("bad arrivals line `{line}`"));
    }
    Ok(runs)
}

/// Parses a composite router snapshot document (format v4), re-deriving
/// the arrival-order owners from the scenario's staged releases, the
/// arrival runs, and the cell rects.
pub fn parse_composite(text: &str) -> Result<CompositeSnapshot, String> {
    parse_document(text).map(|(composite, _)| composite)
}

/// [`parse_composite`], also handing back the document's scenario and
/// partition parsed: the loaded state `RESTORE` installs.
fn parse_document(text: &str) -> Result<(CompositeSnapshot, Loaded), String> {
    let mut lines = text.lines();
    if lines.next() != Some(COMPOSITE_MAGIC) {
        return Err(format!("missing magic line `{COMPOSITE_MAGIC}`"));
    }
    let tenant_line = lines.next().ok_or("truncated before tenant")?;
    let tenant = match tenant_line
        .split_whitespace()
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["tenant", id] if valid_tenant_id(id) => id.to_string(),
        _ => return Err(format!("bad tenant line `{tenant_line}`")),
    };
    let map_line = lines.next().ok_or("truncated before map")?;
    let map_version = match map_line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["map", version] => version
            .parse::<u64>()
            .map_err(|_| format!("bad map version `{version}`"))?,
        _ => return Err(format!("bad map line `{map_line}`")),
    };
    let grid_line = lines.next().ok_or("truncated before grid")?;
    let grid = match grid_line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["grid", gx, gy] => (
            gx.parse::<usize>().map_err(|_| "bad grid x".to_string())?,
            gy.parse::<usize>().map_err(|_| "bad grid y".to_string())?,
        ),
        _ => return Err(format!("bad grid line `{grid_line}`")),
    };
    if grid.0 == 0 || grid.1 == 0 {
        return Err("grid must be positive".to_string());
    }
    let field_line = lines.next().ok_or("truncated before field")?;
    let field_fields = field_line.split_whitespace().collect::<Vec<_>>();
    let (origin, field, halo) = match field_fields.as_slice() {
        ["field", ox, oy, w, h, halo] => {
            let parse = |s: &str, what: &str| -> Result<f64, String> {
                s.parse::<f64>().map_err(|_| format!("bad {what} `{s}`"))
            };
            (
                (parse(ox, "origin x")?, parse(oy, "origin y")?),
                (parse(w, "field width")?, parse(h, "field height")?),
                parse(halo, "halo")?,
            )
        }
        _ => return Err(format!("bad field line `{field_line}`")),
    };
    let cells = counted_section(&mut lines, "cells")?
        .iter()
        .map(|line| -> Result<CellRect, String> {
            let parse = |s: &str| -> Result<f64, String> {
                s.parse::<f64>()
                    .map_err(|_| format!("bad cell rect `{line}`"))
            };
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                [x0, y0, x1, y1] => Ok(CellRect {
                    x0: parse(x0)?,
                    y0: parse(y0)?,
                    x1: parse(x1)?,
                    y1: parse(y1)?,
                }),
                _ => Err(format!("bad cell rect `{line}`")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    if cells.is_empty() {
        return Err("cells must be positive".to_string());
    }
    let scenario_text = {
        let mut text = counted_section(&mut lines, "scenario")?.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        text
    };
    let scenario = model_io::read_scenario(&scenario_text)
        .map_err(|e| format!("bad embedded scenario: {e}"))?;
    let arrivals = counted_section(&mut lines, "arrivals")?
        .into_iter()
        .map(|line| parse_arrivals(line, cells.len()))
        .collect::<Result<Vec<_>, _>>()?;
    let num_shards = cells.len();
    let mut shards = Vec::with_capacity(num_shards);
    let mut section_lines = 0usize;
    for expected in 0..num_shards {
        let head = lines
            .next()
            .ok_or_else(|| format!("truncated before shard {expected}"))?;
        let nlines = match head.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["shard", index, nlines] if index.parse() == Ok(expected) => nlines
                .parse::<usize>()
                .map_err(|_| format!("bad shard line count `{head}`"))?,
            _ => {
                return Err(format!(
                    "bad shard header `{head}` (expected shard {expected})"
                ))
            }
        };
        let mut snapshot = String::new();
        for _ in 0..nlines {
            snapshot.push_str(
                lines
                    .next()
                    .ok_or_else(|| format!("truncated shard {expected} snapshot"))?,
            );
            snapshot.push('\n');
        }
        shards.push(snapshot);
        section_lines += nlines;
    }
    if lines.next().is_some() {
        return Err("trailing lines after the last shard snapshot".to_string());
    }
    // Validate the geometry as a whole and re-derive the arrival-order
    // owners (`cell_of` is total, so every derived owner is in range).
    let partition = Partition::from_rects(
        Vec2::new(origin.0, origin.1),
        field.0,
        field.1,
        halo,
        grid,
        cells.clone(),
    )
    .map_err(|e| format!("bad partition geometry: {e}"))?;
    let Some(clock) = arrivals.len().checked_sub(1) else {
        return Err("arrivals must list the open slot".to_string());
    };
    if clock > scenario.grid.num_slots {
        return Err(format!(
            "history ticks past the horizon: clock {clock} of {} slots",
            scenario.grid.num_slots
        ));
    }
    // A shard section spends at least one line per task it holds, which
    // bounds the runs before they are expanded.
    let named = arrivals
        .iter()
        .flatten()
        .fold(0usize, |total, &(_, count)| total.saturating_add(count));
    if named > section_lines {
        return Err(format!(
            "arrival runs name {named} tasks, more than the {section_lines} lines of the shard sections hold"
        ));
    }
    let order = arrival_owners(&scenario, &partition, &arrivals);
    let composite = CompositeSnapshot {
        tenant,
        map_version,
        grid,
        origin,
        field,
        halo,
        cells,
        scenario: scenario_text,
        arrivals,
        shards,
        order,
    };
    let loaded = Loaded {
        scenario,
        partition,
        map_version,
    };
    Ok((composite, loaded))
}

/// Rebuilds the accepted view of a restored tenant's operation log — the
/// submissions and ticks `RESHARD` replays — from the restored engines
/// and the document's arrival runs, and checks the document's two halves
/// against each other: each section must be its cell of the scenario
/// split over the document's tiling. Slot by slot, every shard first
/// holds the staged releases its cell plans for the slot, then the
/// submissions the slot's runs name, in arrival order; a tick separates
/// slots. Each task must carry the slot as its release slot and lie in
/// the cell that holds it, a staged release must be the planned task in
/// every field but its id (an arrival index), and every task of every
/// section must be used exactly once. Last, each section must hold its
/// cell's params, time grid, delays, utility model and chargers, and the
/// staged tasks not yet released, every field equal. The specs are
/// finite: engine restore validates every task.
fn rebuild_accepted(
    loaded: &Loaded,
    arrivals: &[Vec<(u32, usize)>],
    engines: &[OnlineEngine],
) -> Result<Vec<OpRecord>, String> {
    let partition = &loaded.partition;
    let cells = partition
        .split(&loaded.scenario)
        .map_err(|e| format!("the scenario does not split over the cells: {e}"))?;
    // Each cell's staged tasks in its engine's injection order.
    let mut plans: Vec<_> = cells
        .iter()
        .map(|cell| {
            let mut staged = cell.tasks.clone();
            staged.sort_by_key(|task| task.release_slot);
            staged.into_iter().peekable()
        })
        .collect();
    let mut used = vec![0usize; engines.len()];
    let mut records = Vec::with_capacity(
        engines
            .iter()
            .map(|engine| engine.scenario().num_tasks())
            .sum::<usize>()
            + arrivals.len(),
    );
    for (slot, runs) in arrivals.iter().enumerate() {
        if slot > 0 {
            records.push(OpRecord::Tick);
        }
        for (cell, plan) in plans.iter_mut().enumerate() {
            while let Some(planned) = plan.next_if(|task| task.release_slot <= slot) {
                let task = next_task(engines, &mut used, partition, cell, slot)?;
                // Released, a task takes its arrival index as its id.
                let planned = Task {
                    id: task.id,
                    ..planned
                };
                if *task != planned {
                    return Err(format!(
                        "shard {cell} does not hold the staged release due in slot {slot} where the scenario plans it"
                    ));
                }
            }
        }
        for &(cell, count) in runs {
            for _ in 0..count {
                let task = next_task(engines, &mut used, partition, cell as usize, slot)?;
                records.push(OpRecord::Submit(TaskSpec {
                    device_pos: task.device_pos,
                    device_facing: task.device_facing,
                    end_slot: task.end_slot,
                    required_energy: task.required_energy,
                    weight: task.weight,
                }));
            }
        }
    }
    for (cell, (engine, used)) in engines.iter().zip(&used).enumerate() {
        if *used != engine.scenario().num_tasks() {
            return Err(format!(
                "shard {cell} task {used} is accounted for by no arrival run or staged release"
            ));
        }
    }
    for (index, ((engine, cell), plan)) in engines.iter().zip(&cells).zip(plans).enumerate() {
        let section = engine.scenario();
        let differs = [
            ("params", section.params != cell.params),
            ("time grid", section.grid != cell.grid),
            ("delays", (section.rho, section.tau) != (cell.rho, cell.tau)),
            ("utility model", section.utility != cell.utility),
            ("chargers", section.chargers != cell.chargers),
            ("staged tasks", !plan.eq(engine.staged().copied())),
        ];
        if let Some((what, _)) = differs.iter().find(|(_, differ)| *differ) {
            return Err(format!(
                "shard {index} and cell {index} of the scenario differ in {what}"
            ));
        }
    }
    Ok(records)
}

/// The next unused task of shard `cell` in [`rebuild_accepted`]'s walk,
/// which must have been released in `slot` and lie in that cell.
fn next_task<'a>(
    engines: &'a [OnlineEngine],
    used: &mut [usize],
    partition: &Partition,
    cell: usize,
    slot: usize,
) -> Result<&'a Task, String> {
    let (Some(engine), Some(cursor)) = (engines.get(cell), used.get_mut(cell)) else {
        return Err(format!("cell {cell} has no shard section"));
    };
    let Some(task) = engine.scenario().tasks.get(*cursor) else {
        return Err(format!(
            "the arrivals of slot {slot} name more tasks than shard {cell} holds ({})",
            engine.scenario().num_tasks()
        ));
    };
    if task.release_slot != slot {
        return Err(format!(
            "shard {cell} task {cursor} was released in slot {}, but its arrival is in slot {slot}",
            task.release_slot
        ));
    }
    let owner = partition.cell_of(task.device_pos);
    if owner != cell {
        return Err(format!(
            "shard {cell} task {cursor} lies in cell {owner}, not in the cell that holds it"
        ));
    }
    *cursor += 1;
    Ok(task)
}

/// `RESTORE` on the router, two-phase so no failure can leave a partial
/// cut behind. The document names its tenant; `RESTORE` creates that
/// tenant if needed (or rebuilds its fleet to the document's cell
/// count), then overwrites its state wholesale. Phase 1 parses the
/// composite document and restores every embedded engine *off to the
/// side*, validating the set as a whole (per section parse/validate,
/// clock consistency across the cut and against the arrival runs), and
/// rebuilds the operation log's accepted view from the engines in the
/// runs' order, checking every task against its run and every section
/// against its cell of the document's scenario; any failure returns a
/// structured `ERR` with all live state untouched.
/// Phase 2 commits: every shard installs its restored engine
/// (in-process) or receives the snapshot text as its new baseline (child
/// process — a push failure there just marks the child down, and the
/// rejoin replay rebuilds it from that same committed baseline).
fn restore_composite(core: &mut RouterCore, shared: &RouterShared, payload: &str) -> Reply {
    let restored = match restore_composite_state(core, shared, payload) {
        Ok(restored) => restored,
        Err(reply) => return reply,
    };
    // Durable router: a restore wholesale replaces the tenant, so its log
    // starts over from a checkpoint of the restored state (this also
    // clears a poisoned log — the operator just handed us a full
    // replacement for whatever the failed log could not persist).
    if let Some(tenant) = core.get_mut(&restored.tenant) {
        if let Err(reply) = wal_install(tenant, shared, &restored.tenant) {
            return reply;
        }
    }
    Reply::Ok(format!(
        "slot={} open={}",
        restored.slot,
        u8::from(restored.open)
    ))
}

/// What [`restore_composite_state`] installed: which tenant, at which
/// clock.
struct RestoredTenant {
    tenant: String,
    slot: usize,
    open: bool,
}

/// The state-install half of `RESTORE`, shared verbatim by the wire verb
/// and WAL recovery (recovery must not re-checkpoint or touch the log,
/// so the durability hook lives in the verb wrapper above).
fn restore_composite_state(
    core: &mut RouterCore,
    shared: &RouterShared,
    payload: &str,
) -> Result<RestoredTenant, Reply> {
    let (composite, loaded) =
        parse_document(payload).map_err(|reason| Reply::Err(ErrCode::BadSnapshot, reason))?;
    // Phase 1: restore and validate every section without installing.
    let mut engines = Vec::with_capacity(composite.shards.len());
    let mut clock: Option<(usize, bool)> = None;
    for (index, snapshot) in composite.shards.iter().enumerate() {
        let engine = match OnlineEngine::restore(snapshot) {
            Ok(engine) => engine,
            Err(e) => {
                return Err(Reply::Err(
                    ErrCode::BadSnapshot,
                    format!("shard {index}: {e}"),
                ))
            }
        };
        let seen = (engine.clock(), !engine.is_closed());
        match clock {
            None => clock = Some(seen),
            Some(common) if common == seen => {}
            Some(common) => {
                return Err(Reply::Err(
                    ErrCode::BadSnapshot,
                    format!(
                        "inconsistent cut: shard clocks differ ({} vs {})",
                        common.0, seen.0
                    ),
                ));
            }
        }
        engines.push(engine);
    }
    let Some((slot, open)) = clock else {
        return Err(Reply::Err(
            ErrCode::BadSnapshot,
            "snapshot has no shards".to_string(),
        ));
    };
    let history_clock = composite.arrivals.len().saturating_sub(1);
    if slot != history_clock {
        return Err(Reply::Err(
            ErrCode::BadSnapshot,
            format!(
                "inconsistent cut: arrival history reaches clock {history_clock}, shards sit at {slot}"
            ),
        ));
    }
    let records = rebuild_accepted(&loaded, &composite.arrivals, &engines)
        .map_err(|reason| Reply::Err(ErrCode::BadSnapshot, reason))?;
    // The document's tenant: create it (or rebuild its fleet) to the
    // document's cell count. Fresh slots are built before any live state
    // is replaced, so a spawn failure aborts cleanly.
    let count = composite.shards.len();
    let matches_fleet = core
        .get(&composite.tenant)
        .map(|tenant| tenant.shards.len() == count)
        .unwrap_or(false);
    if !matches_fleet {
        let mut fresh = Vec::with_capacity(count);
        for cell in 0..count {
            match fresh_slot(shared, cell) {
                Ok(slot) => fresh.push(slot),
                Err(reply) => return Err(reply),
            }
        }
        match core.get_mut(&composite.tenant) {
            Some(tenant) => tenant.shards = fresh,
            None => {
                core.insert(
                    composite.tenant.clone(),
                    TenantCore::new(
                        fresh,
                        TenantCounters::for_tenant(shared.telemetry.registry(), &composite.tenant),
                    ),
                );
            }
        }
    }
    let Some(tenant) = core.get_mut(&composite.tenant) else {
        return Err(internal("the restored tenant vanished mid-request"));
    };
    // Phase 2: the whole cut validated — commit it everywhere.
    for ((shard, engine), snapshot) in tenant
        .shards
        .iter()
        .zip(engines)
        .zip(composite.shards.iter())
    {
        shard.install_restored(engine, snapshot, records.len());
    }
    for (index, shard) in tenant.shards.iter().enumerate() {
        shard.set_cell(index);
    }
    tenant.loaded = Some(loaded);
    tenant.log = OpLog::new(records);
    tenant.materialized = composite.order.len();
    tenant.clock = slot;
    tenant.quota_used = 0;
    tenant.cell_submits = vec![0; count];
    TenantCounters::set_shards(shared.telemetry.registry(), &composite.tenant, count);
    Ok(RestoredTenant {
        tenant: composite.tenant,
        slot,
        open,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    /// The worst wedge for the metrics shim: the inner dial connects but
    /// the "router" never greets. The scrape must come back as a prompt
    /// `503` carrying the deadline error, never hang the handler thread.
    #[test]
    fn a_wedged_router_scrape_returns_503_promptly() {
        let wedged = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let router = wedged.local_addr().expect("bound listener has an address");
        let hold = std::thread::spawn(move || {
            // Accept, then hold the socket open in silence until the
            // handler has long since given up.
            if let Ok((stream, _)) = wedged.accept() {
                std::thread::sleep(Duration::from_millis(500));
                drop(stream);
            }
        });

        let scrape = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let scrape_addr = scrape.local_addr().expect("bound listener has an address");
        let handler = std::thread::spawn(move || {
            let (stream, _) = scrape.accept().expect("scraper connects");
            serve_scrape(stream, router, Duration::from_millis(100))
        });

        let mut stream = TcpStream::connect(scrape_addr).expect("dial the scrape port");
        // The scraper's own read deadline doubles as the promptness
        // assertion: if the handler sat out the full 500 ms hold (or
        // hung), this read would time out and fail the test.
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("set the scrape read deadline");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
            .expect("send the scrape request");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("the 503 arrives before the scraper deadline");

        assert!(
            response.starts_with("HTTP/1.1 503 "),
            "expected 503, got {response:?}"
        );
        assert!(
            response.contains("request deadline expired"),
            "body names the timeout: {response:?}"
        );
        handler
            .join()
            .expect("handler thread")
            .expect("handler completes the 503 write");
        hold.join().expect("hold thread");
    }
}
