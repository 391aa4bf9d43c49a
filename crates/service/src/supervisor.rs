//! Child-process shard supervision for the out-of-process router.
//!
//! With [`crate::RouterConfig::process`] set, the router does not own its
//! engines in-process: each cell's [`Shard`] lives in a spawned
//! `haste-shardd` child daemon, reached over localhost TCP through the
//! same wire protocol clients speak. This module owns that machinery:
//!
//! * [`resolve_shardd`] / `Launcher` — locating and spawning children
//!   (piped stdin keeps the child alive; closing it on supervisor exit is
//!   the orphan guard),
//! * `RemoteShard` — one supervised child: a [`Client`] connection with
//!   a per-request deadline, crash detection (EOF/timeout/reset/exit),
//!   and the restart machinery,
//! * [`FaultPlan`] — a deterministic, seedless schedule of injected
//!   failures (`kill`, `stall`, `drop-conn`) so chaos runs reproduce,
//! * `ShardSlot` — the router's uniform view over in-process and
//!   out-of-process shards.
//!
//! **Failure policy.** The protocol has non-idempotent requests (`SUBMIT`,
//! `TICK`): when a reply is lost the supervisor cannot know whether the
//! child applied the request. It never guesses — any transport failure
//! (timeout, reset, EOF, refused reconnect) kills the child outright and
//! marks the shard down. Recovery rebuilds the child from its last
//! **baseline** (the `LOAD` scenario, or the engine snapshot of the last
//! committed `SNAPSHOT`) plus the records after the baseline's cursor in
//! the tenant's operation log that this cell's child answered
//! (`OpLog::answered`): submits that got a structured reply, and one
//! `TICK` per closed slot (including slots closed while the shard was
//! down). Because the engine is bit-deterministic, replaying exactly that
//! sequence reconstructs exactly the state the router believes the shard
//! has — the in-flight request that triggered the failure was logged as
//! `unavailable`, so it is dropped on both sides, and its submitter saw
//! an error. A child that a reshard rebuilt was fed the accepted records
//! only, so its post-rebuild state becomes its baseline
//! (`ShardSlot::rebase`).
//!
//! **Concurrency.** Every `RemoteShard` method takes `&self` and
//! serializes through the shard's own mutex, so the router's pipelined
//! lockstep (protocol v3) may issue `tick1` to *different* children
//! concurrently: each request still runs under its own per-request
//! deadline, and nothing is shared across children but the launcher
//! configuration. The consistent-cut argument lives at the call site
//! ([`crate::serve_router`]'s tick) — the supervisor's only contract here
//! is that a shard's baseline and connection are never touched by two
//! requests at once.

use std::collections::BTreeSet;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

use haste_distributed::{OnlineConfig, TaskSpec};
use haste_geometry::Vec2;
use haste_metrics::Snapshot;
use haste_model::{Scenario, Schedule, TaskId};
use parking_lot::Mutex;

use crate::client::{Client, ClientError};
use crate::oplog::{OpLog, OpRecord};
use crate::proto::ErrCode;
use crate::shard::{Shard, ShardError, ShardHealth, ShardStatus, UtilityParts};
use crate::telemetry::{engine_families, SupervisorCounters};

/// Default per-request deadline on supervisor → child calls. Generous —
/// a negotiation round on a loaded cell can be slow — but finite, so a
/// hung child is detected and restarted instead of freezing the router.
pub const DEFAULT_SHARD_DEADLINE: Duration = Duration::from_secs(30);

/// Out-of-process shard deployment settings (see
/// [`crate::RouterConfig::process`]).
#[derive(Debug, Clone, Default)]
pub struct ProcessShardConfig {
    /// Path to the `haste-shardd` binary. `None` resolves via the
    /// `HASTE_SHARDD` environment variable, then a sibling of the current
    /// executable (see [`resolve_shardd`]).
    pub shardd: Option<PathBuf>,
    /// Per-request deadline on supervisor → child calls; `None` uses
    /// [`DEFAULT_SHARD_DEADLINE`]. A request exceeding it counts as a
    /// crash: the child is killed and restarted from its baseline plus
    /// the operation-log records its cell answered since.
    pub deadline: Option<Duration>,
    /// Deterministic fault-injection schedule, for chaos testing.
    pub fault_plan: Option<FaultPlan>,
}

impl ProcessShardConfig {
    /// The effective per-request deadline.
    pub fn effective_deadline(&self) -> Duration {
        match self.deadline {
            Some(deadline) => deadline,
            None => DEFAULT_SHARD_DEADLINE,
        }
    }
}

/// Locates the `haste-shardd` binary: an explicit path wins, then the
/// `HASTE_SHARDD` environment variable, then a sibling of the current
/// executable (with cargo's `deps/` directory normalized away, so test
/// binaries resolve the workspace target directory).
pub fn resolve_shardd(explicit: Option<&Path>) -> std::io::Result<PathBuf> {
    resolve_binary(explicit, "haste-shardd", "HASTE_SHARDD")
}

/// Locates the `routerd` binary for drivers that spawn (and kill, and
/// respawn) the router as a subprocess — the `kill-router` chaos path.
/// Resolution mirrors [`resolve_shardd`]: an explicit path wins, then
/// the `HASTE_ROUTERD` environment variable, then a sibling of the
/// current executable.
pub fn resolve_routerd(explicit: Option<&Path>) -> std::io::Result<PathBuf> {
    resolve_binary(explicit, "routerd", "HASTE_ROUTERD")
}

/// The one resolver behind [`resolve_shardd`] and [`resolve_routerd`]:
/// `explicit`, else the environment variable `var` when set and
/// non-empty, else the binary `name` beside the current executable.
fn resolve_binary(explicit: Option<&Path>, name: &str, var: &str) -> std::io::Result<PathBuf> {
    if let Some(path) = explicit {
        return Ok(path.to_path_buf());
    }
    if let Ok(path) = std::env::var(var) {
        if !path.is_empty() {
            return Ok(PathBuf::from(path));
        }
    }
    let exe = std::env::current_exe()?;
    let mut dir = match exe.parent() {
        Some(parent) => parent.to_path_buf(),
        None => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "current executable has no parent directory",
            ))
        }
    };
    if dir.file_name().map(|dir_name| dir_name == "deps") == Some(true) {
        if let Some(parent) = dir.parent() {
            dir = parent.to_path_buf();
        }
    }
    let candidate = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!(
                "{name} not found at {} (pass an explicit path or set {var})",
                candidate.display()
            ),
        ))
    }
}

// ----------------------------------------------------------------------
// Fault plans
// ----------------------------------------------------------------------

/// What a fault directive does when it matures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Kill the child process outright (crash simulation).
    Kill,
    /// The next `n` requests to this shard behave as expired deadlines.
    Stall(u64),
    /// Drop the supervisor's connection once; the child stays alive and
    /// the next request reconnects transparently.
    DropConn,
}

/// One scheduled fault: `kind` matures on `cell` when the router clock
/// reaches `at_slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Directive {
    pub(crate) cell: usize,
    pub(crate) at_slot: usize,
    pub(crate) kind: FaultKind,
}

/// A deterministic schedule of injected shard faults, parsed from the
/// `--fault-plan` file format:
///
/// ```text
/// # comments and blank lines are ignored
/// kill 1 @6           # kill cell 1's child when slot 6 opens
/// stall 0 for 2 @3    # cell 0's next 2 requests time out, from slot 3
/// drop-conn 0 @2      # drop the connection to cell 0 once, at slot 2
/// kill-router @16     # kill the whole routerd process at slot 16
/// ```
///
/// `stall`/`drop-conn` default to slot 0 when `@slot` is omitted. Faults
/// mature when the router clock reaches their slot — immediately after
/// `LOAD` for slot 0, otherwise at the `TICK` that opens the slot — so a
/// plan is reproducible bit for bit across runs.
///
/// `kill-router` is different in kind: it targets the router process
/// itself, not a shard child, and is executed by the *driver* (loadgen
/// kills its `routerd` subprocess at the named slot's post-tick barrier
/// and respawns it, exercising WAL crash recovery). The router ignores
/// these directives; they never appear in [`FaultPlan::cells`] and never
/// count toward [`FaultPlan::expects_restarts`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    directives: Vec<Directive>,
    router_kills: Vec<usize>,
}

impl FaultPlan {
    /// Parses the fault-plan grammar; errors name the offending line.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut directives = Vec::new();
        let mut router_kills = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = match raw.split('#').next() {
                Some(code) => code.trim(),
                None => "",
            };
            if line.is_empty() {
                continue;
            }
            let number = index + 1;
            let fields: Vec<&str> = line.split_whitespace().collect();
            if let ["kill-router", at] = fields.as_slice() {
                router_kills.push(slot_token(at, number)?);
                continue;
            }
            let directive = match fields.as_slice() {
                ["kill", cell, at] => Directive {
                    cell: cell_token(cell, number)?,
                    at_slot: slot_token(at, number)?,
                    kind: FaultKind::Kill,
                },
                ["stall", cell, "for", count] => Directive {
                    cell: cell_token(cell, number)?,
                    at_slot: 0,
                    kind: FaultKind::Stall(count_token(count, number)?),
                },
                ["stall", cell, "for", count, at] => Directive {
                    cell: cell_token(cell, number)?,
                    at_slot: slot_token(at, number)?,
                    kind: FaultKind::Stall(count_token(count, number)?),
                },
                ["drop-conn", cell] => Directive {
                    cell: cell_token(cell, number)?,
                    at_slot: 0,
                    kind: FaultKind::DropConn,
                },
                ["drop-conn", cell, at] => Directive {
                    cell: cell_token(cell, number)?,
                    at_slot: slot_token(at, number)?,
                    kind: FaultKind::DropConn,
                },
                _ => {
                    return Err(format!(
                        "fault plan line {number}: `{line}` (expected `kill <cell> @<slot>`, \
                         `stall <cell> for <n> [@<slot>]`, `drop-conn <cell> [@<slot>]`, \
                         or `kill-router @<slot>`)"
                    ))
                }
            };
            directives.push(directive);
        }
        router_kills.sort_unstable();
        router_kills.dedup();
        Ok(FaultPlan {
            directives,
            router_kills,
        })
    }

    /// The cells any directive targets — the cells whose state a chaos
    /// run may perturb (loadgen compares the *other* cells bitwise).
    pub fn cells(&self) -> BTreeSet<usize> {
        self.directives.iter().map(|d| d.cell).collect()
    }

    /// Whether the plan has no directives (shard faults or router kills).
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty() && self.router_kills.is_empty()
    }

    /// Whether the plan carries any *shard* fault directive (`kill`,
    /// `stall`, `drop-conn`). Drivers that execute `kill-router` forbid
    /// mixing the two: a shard fault in flight while the router dies
    /// would make the post-recovery comparison ill-defined.
    pub fn has_shard_faults(&self) -> bool {
        !self.directives.is_empty()
    }

    /// The slots at which the *driver* must kill and respawn the router
    /// process (`kill-router @<slot>` directives), sorted and deduped.
    pub fn router_kills(&self) -> &[usize] {
        &self.router_kills
    }

    /// The latest slot any directive matures at (`None` when empty).
    /// Chaos drivers check it against the horizon: a fault maturing at or
    /// after the final slot leaves no tick in which the shard can rejoin
    /// (nor, for `kill-router`, any slot in which the respawned router
    /// can be observed making progress).
    pub fn latest_slot(&self) -> Option<usize> {
        self.directives
            .iter()
            .map(|d| d.at_slot)
            .chain(self.router_kills.iter().copied())
            .max()
    }

    /// Whether any directive forces a child restart (`kill` or `stall`).
    /// A `drop-conn`-only plan exercises transparent reconnection and
    /// never restarts anything, so chaos harnesses must not demand a
    /// restart count from it.
    pub fn expects_restarts(&self) -> bool {
        self.directives
            .iter()
            .any(|d| !matches!(d.kind, FaultKind::DropConn))
    }

    /// The directives targeting one cell.
    pub(crate) fn for_cell(&self, cell: usize) -> Vec<Directive> {
        self.directives
            .iter()
            .filter(|d| d.cell == cell)
            .copied()
            .collect()
    }
}

fn cell_token(token: &str, line: usize) -> Result<usize, String> {
    token
        .parse()
        .map_err(|_| format!("fault plan line {line}: bad cell `{token}`"))
}

fn slot_token(token: &str, line: usize) -> Result<usize, String> {
    match token.strip_prefix('@') {
        Some(digits) => digits
            .parse()
            .map_err(|_| format!("fault plan line {line}: bad slot `{token}`")),
        None => Err(format!(
            "fault plan line {line}: expected `@<slot>`, got `{token}`"
        )),
    }
}

fn count_token(token: &str, line: usize) -> Result<u64, String> {
    match token.parse() {
        Ok(count) if count > 0 => Ok(count),
        _ => Err(format!(
            "fault plan line {line}: bad request count `{token}`"
        )),
    }
}

// ----------------------------------------------------------------------
// Child processes
// ----------------------------------------------------------------------

/// Everything needed to (re)spawn one shard child. Cloned per shard so a
/// restart reuses the exact original command line.
#[derive(Debug, Clone)]
pub(crate) struct Launcher {
    program: PathBuf,
    args: Vec<String>,
    deadline: Duration,
}

impl Launcher {
    /// Builds the child command line from the router's scheduling
    /// configuration (the child must create engines bit-identical to the
    /// in-process shards it replaces).
    pub(crate) fn new(
        program: PathBuf,
        scheduling: &OnlineConfig,
        max_pending: usize,
        deadline: Duration,
    ) -> Launcher {
        let args = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--workers".to_string(),
            "4".to_string(),
            "--max-pending".to_string(),
            max_pending.to_string(),
            "--colors".to_string(),
            scheduling.negotiation.colors.to_string(),
            "--samples".to_string(),
            scheduling.negotiation.samples.to_string(),
            "--seed".to_string(),
            scheduling.negotiation.seed.to_string(),
            "--localized".to_string(),
            u8::from(scheduling.localized).to_string(),
            "--threads".to_string(),
            scheduling.threads.to_string(),
        ];
        Launcher {
            program,
            args,
            deadline,
        }
    }

    /// Spawns a child, reads its `shardd listening on <addr>` greeting,
    /// and connects with the per-request deadline applied.
    fn spawn(&self) -> Result<(ChildProc, Client), String> {
        let mut child = Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", self.program.display()))?;
        let stdin = child.stdin.take();
        let greeting = match child.stdout.take() {
            Some(stdout) => {
                let mut reader = std::io::BufReader::new(stdout);
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => Err("child exited before greeting".to_string()),
                    Ok(_) => Ok(line),
                    Err(e) => Err(format!("reading child greeting: {e}")),
                }
            }
            None => Err("child stdout was not captured".to_string()),
        };
        let line = match greeting {
            Ok(line) => line,
            Err(reason) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(reason);
            }
        };
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|token| token.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("bad child greeting `{}`", line.trim()));
        };
        let mut process = ChildProc {
            child,
            addr,
            _stdin: stdin,
        };
        let connected = Client::connect(addr)
            .and_then(|mut conn| conn.set_timeout(Some(self.deadline)).map(|()| conn));
        match connected {
            Ok(conn) => Ok((process, conn)),
            Err(e) => {
                process.kill();
                Err(format!("connecting to child at {addr}: {e}"))
            }
        }
    }
}

/// A running child: the process handle, its advertised listen address,
/// and the piped stdin whose closure tells the child to exit (the orphan
/// guard: if the supervisor dies, the pipe closes and the child follows).
struct ChildProc {
    child: Child,
    addr: SocketAddr,
    _stdin: Option<ChildStdin>,
}

impl ChildProc {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        self.kill();
    }
}

// ----------------------------------------------------------------------
// Supervised remote shards
// ----------------------------------------------------------------------

/// Why a shard operation failed, across both deployment modes.
#[derive(Debug)]
pub(crate) enum SlotError {
    /// A structured in-process shard failure.
    Shard(ShardError),
    /// A structured error the child daemon replied with; passed through
    /// to the router's client unchanged.
    Remote { code: ErrCode, message: String },
    /// The shard owning `cell` is down or recovering.
    Unavailable { cell: usize, detail: String },
}

/// Maps a child's wire error code back into the shared error space; an
/// unknown token (a newer child?) degrades to `internal`.
fn remote_err(code: &str, message: String) -> SlotError {
    match ErrCode::parse(code) {
        Some(code) => SlotError::Remote { code, message },
        None => SlotError::Remote {
            code: ErrCode::Internal,
            message: format!("unknown child error code `{code}`: {message}"),
        },
    }
}

/// The baseline a restarted child is rebuilt from, before it replays the
/// operation-log records after the baseline's cursor.
enum Baseline {
    /// The cell's sub-scenario, as loaded (no snapshot committed yet).
    Scenario(Box<Scenario>),
    /// The cell's engine snapshot from the last committed `SNAPSHOT`,
    /// `RESTORE`, or reshard rebuild.
    Snapshot(String),
}

/// Supervised state of one out-of-process shard.
struct RemoteInner {
    launcher: Launcher,
    child: Option<ChildProc>,
    conn: Option<Client>,
    /// `Some(reason)` while down; cleared by a successful rejoin.
    down: Option<String>,
    /// Fault directives not yet matured.
    pending: Vec<Directive>,
    stall_budget: u64,
    pending_drop: bool,
    restarts: u64,
    replayed: u64,
    baseline: Option<Baseline>,
    /// Length of the tenant's operation log when `baseline` was taken:
    /// a rejoin replays the records from here on.
    cursor: usize,
    /// Last observed status, served while the shard is down.
    cached: ShardStatus,
    /// Per-cell fault counters in the router's metric registry.
    counters: SupervisorCounters,
}

/// One out-of-process shard: a supervised child daemon plus the baseline
/// and log cursor that make its death recoverable. All methods are
/// `&self` (interior mutex), mirroring [`Shard`].
pub(crate) struct RemoteShard {
    /// The cell this shard currently owns. Atomic because elastic
    /// resharding renumbers cells while other connections may be
    /// formatting error details that name this one.
    cell: std::sync::atomic::AtomicUsize,
    inner: Mutex<RemoteInner>,
}

impl RemoteShard {
    /// Spawns the child for `cell` and connects. Launch failure is fatal
    /// for router startup (there is no state to recover yet).
    pub(crate) fn launch(
        cell: usize,
        launcher: Launcher,
        faults: Vec<Directive>,
        counters: SupervisorCounters,
    ) -> std::io::Result<RemoteShard> {
        match launcher.spawn() {
            Ok((child, conn)) => Ok(RemoteShard {
                cell: std::sync::atomic::AtomicUsize::new(cell),
                inner: Mutex::new(RemoteInner {
                    launcher,
                    child: Some(child),
                    conn: Some(conn),
                    down: None,
                    pending: faults,
                    stall_budget: 0,
                    pending_drop: false,
                    restarts: 0,
                    replayed: 0,
                    baseline: None,
                    cursor: 0,
                    cached: ShardStatus::default(),
                    counters,
                }),
            }),
            Err(reason) => Err(std::io::Error::other(format!("shard {cell}: {reason}"))),
        }
    }

    /// Renumbers the cell this shard owns (after a routing-map swap).
    pub(crate) fn set_cell(&self, cell: usize) {
        self.cell.store(cell, std::sync::atomic::Ordering::Relaxed);
    }

    /// Matures every fault directive scheduled at or before `clock`.
    pub(crate) fn apply_slot_faults(&self, clock: usize) {
        let mut locked = self.inner.lock();
        let inner = &mut *locked;
        let mut remaining = Vec::with_capacity(inner.pending.len());
        for directive in std::mem::take(&mut inner.pending) {
            if directive.at_slot > clock {
                remaining.push(directive);
                continue;
            }
            match directive.kind {
                FaultKind::Kill => {
                    let _ = self.fail(inner, "injected kill (fault plan)".to_string());
                }
                FaultKind::Stall(n) => inner.stall_budget += n,
                FaultKind::DropConn => inner.pending_drop = true,
            }
        }
        inner.pending = remaining;
    }

    /// Routes one submission to the child. A transport failure kills the
    /// child; the router logs the submission as `unavailable`, so it is
    /// dropped on both sides.
    pub(crate) fn submit(&self, spec: TaskSpec) -> Result<(TaskId, usize), SlotError> {
        self.call("SUBMIT", |conn| conn.submit(&spec))
    }

    /// Closes one slot on the child. The pipelined lockstep calls this
    /// concurrently across *different* shards (one in-flight request per
    /// child, each under its own deadline); the per-shard mutex keeps any
    /// single child's requests serial.
    pub(crate) fn tick1(&self) -> Result<(usize, bool), SlotError> {
        self.call("TICK", |conn| conn.tick(1))
    }

    /// The child's clock, per [`Shard::clock`].
    pub(crate) fn clock(&self) -> Result<(usize, bool), SlotError> {
        self.call("CLOCK?", |conn| conn.clock())
    }

    /// The child's schedule, per [`Shard::schedule`].
    pub(crate) fn schedule(&self) -> Result<Schedule, SlotError> {
        self.call("SCHEDULE?", |conn| conn.schedule())
    }

    /// The child's per-task utility terms, per [`Shard::utility_parts`].
    pub(crate) fn utility_parts(&self) -> Result<UtilityParts, SlotError> {
        self.call("PARTS?", |conn| conn.parts())
    }

    /// The child's engine snapshot, per [`Shard::snapshot`].
    pub(crate) fn snapshot(&self) -> Result<String, SlotError> {
        self.call("SNAPSHOT", |conn| conn.snapshot())
    }

    /// The child's `EXPORT?` document: its `haste_engine_*` families and
    /// its request series, the latter renamed into the `haste_shard_*`
    /// tier so they never merge with the router's own front door. A
    /// document that does not parse contributes nothing.
    pub(crate) fn export(&self) -> Result<Snapshot, SlotError> {
        let document = self.call("EXPORT?", |conn| conn.export())?;
        let mut child = Snapshot::parse(&document).unwrap_or_default();
        child.rename_prefix("haste_service_", "haste_shard_");
        Ok(child)
    }

    /// Sets the load baseline (log cursor 0: `LOAD` starts the tenant's
    /// log afresh) and pushes the sub-scenario to the child. A transport
    /// failure leaves the shard down with the baseline in place: the
    /// first `TICK`'s rejoin pass loads it into a fresh child.
    pub(crate) fn load_scenario(&self, cell: &Scenario) -> Result<(), SlotError> {
        let mut inner = self.inner.lock();
        inner.baseline = Some(Baseline::Scenario(Box::new(cell.clone())));
        inner.cursor = 0;
        // haste-lint: allow(L2) — deadline-bounded LOAD; a concurrent request between baseline swap and load would observe a half-reset cell
        self.request(&mut inner, "LOAD", |conn| conn.load(cell))
    }

    /// Sets the snapshot baseline at log cursor `cursor` and pushes it to
    /// the child. Any failure — transport *or* a structured rejection of
    /// a snapshot the router already validated — kills the child: the
    /// baseline is committed, so the rejoin pass rebuilds from it and no
    /// divergence can survive.
    pub(crate) fn restore_snapshot(&self, text: &str, cursor: usize) {
        let mut inner = self.inner.lock();
        inner.baseline = Some(Baseline::Snapshot(text.to_string()));
        inner.cursor = cursor;
        // haste-lint: allow(L2) — deadline-bounded RESTORE; divergence control requires no request lands between baseline swap and restore
        let restored = self.request(&mut inner, "RESTORE", |conn| conn.restore(text));
        if let Err(SlotError::Remote { code, message }) = restored {
            let _ = self.fail(&mut inner, format!("RESTORE: {} {message}", code.as_str()));
        }
    }

    /// Commits a checkpoint: the shard's engine snapshot becomes the new
    /// baseline at log cursor `cursor`, bounding future replay depth.
    /// Only called once *every* shard produced its section of a composite
    /// `SNAPSHOT` — a partially assembled composite must not move any
    /// baseline.
    pub(crate) fn checkpoint(&self, snapshot: String, cursor: usize) {
        let mut inner = self.inner.lock();
        inner.baseline = Some(Baseline::Snapshot(snapshot));
        inner.cursor = cursor;
    }

    /// Restarts a down shard and replays its baseline plus the records of
    /// `log` after its cursor that its cell answered (`owns` tests a
    /// position against the cell). Returns whether the shard is up
    /// afterwards; on failure it stays down and the next rejoin pass
    /// retries.
    pub(crate) fn rejoin(
        &self,
        target_clock: usize,
        log: &OpLog,
        owns: impl Fn(Vec2) -> bool,
    ) -> bool {
        let mut locked = self.inner.lock();
        let inner = &mut *locked;
        if inner.down.is_none() {
            return true;
        }
        inner.conn = None;
        inner.child = None; // drops (and reaps) any dead process
                            // haste-lint: allow(L2) — spawn's readiness read is bounded by the launcher deadline; rejoin must own the cell while rebuilding it
        let (child, mut conn) = match inner.launcher.spawn() {
            Ok(pair) => pair,
            Err(reason) => {
                inner.down = Some(format!("respawn: {reason}"));
                return false;
            }
        };
        let ops: Vec<&OpRecord> = log.answered(inner.cursor, owns).collect();
        // haste-lint: allow(L2) — every replayed request runs under the fresh child's deadline; the cell must stay owned until the rebuilt state is verified
        match replay_into(&mut conn, inner.baseline.as_ref(), &ops, target_clock) {
            Ok(()) => {
                inner.restarts += 1;
                inner.replayed += ops.len() as u64;
                inner.counters.restarts.inc();
                inner.counters.replays.add(ops.len() as u64);
                inner.child = Some(child);
                inner.conn = Some(conn);
                inner.down = None;
                true
            }
            Err(reason) => {
                inner.down = Some(format!("replay: {reason}"));
                false
            }
        }
    }

    /// `(status, health, restarts, replayed)` — the status read fresh
    /// from the child's `SHARDS?` line when the shard is up (and cached),
    /// the last observation while it is down. Infallible so `SHARDS?`
    /// keeps answering in degraded mode.
    pub(crate) fn status_view(&self) -> (ShardStatus, ShardHealth, u64, u64) {
        let mut locked = self.inner.lock();
        let inner = &mut *locked;
        // haste-lint: allow(L2) — deadline-bounded reconnect; status must not interleave with another request on the same cell
        if inner.down.is_none() && self.guard(inner).is_ok() && self.ensure_conn(inner).is_ok() {
            let fetched = match inner.conn.as_mut() {
                // haste-lint: allow(L2) — deadline-bounded SHARDS?; a timeout downgrades to cached state instead of wedging the caller
                Some(conn) => fetch_status(conn),
                None => Err(ClientError::Protocol("no connection".to_string())),
            };
            match fetched {
                Ok(status) => inner.cached = status,
                // A structured error (nothing loaded yet) keeps the cache;
                // a transport failure is a crash like any other.
                Err(ClientError::Server { .. }) => {}
                Err(e) => {
                    let _ = self.crash(inner, "SHARDS?", &e);
                }
            }
        }
        let health = if inner.down.is_some() {
            ShardHealth::Restarting
        } else if inner.restarts > 0 {
            ShardHealth::Degraded
        } else {
            ShardHealth::Up
        };
        (inner.cached, health, inner.restarts, inner.replayed)
    }

    /// Down/stall/drop gate shared by every request path.
    fn guard(&self, inner: &mut RemoteInner) -> Result<(), SlotError> {
        if let Some(reason) = inner.down.clone() {
            return Err(SlotError::Unavailable {
                cell: self.cell.load(std::sync::atomic::Ordering::Relaxed),
                detail: reason,
            });
        }
        if inner.stall_budget > 0 {
            inner.stall_budget -= 1;
            // An injected stall simulates an expired request deadline, so
            // it counts as one.
            inner.counters.deadlines.inc();
            return Err(self.fail(
                inner,
                "injected stall: request deadline expired".to_string(),
            ));
        }
        if inner.pending_drop {
            inner.pending_drop = false;
            inner.conn = None; // the next request reconnects transparently
        }
        Ok(())
    }

    /// Reconnects to a live child if the connection was dropped.
    fn ensure_conn(&self, inner: &mut RemoteInner) -> Result<(), SlotError> {
        if inner.conn.is_some() {
            return Ok(());
        }
        let addr = match &inner.child {
            Some(child) => child.addr,
            None => return Err(self.fail(inner, "child process not running".to_string())),
        };
        // The deadline is armed before the greeting: a child that accepts
        // but never greets (wedged mid-restart) must count as a crash,
        // not hang the supervisor.
        let connected = Client::connect_with_deadline(addr, Some(inner.launcher.deadline));
        match connected {
            Ok(conn) => {
                inner.conn = Some(conn);
                Ok(())
            }
            Err(e) => Err(self.fail(inner, format!("reconnect: {e}"))),
        }
    }

    /// Classifies a transport failure and declares the child dead. An
    /// expired per-request deadline (the timeout kind) is the
    /// supervisor's hang-detection signal and gets its own counter.
    fn crash(&self, inner: &mut RemoteInner, what: &str, e: &ClientError) -> SlotError {
        if matches!(e, ClientError::Timeout) {
            inner.counters.deadlines.inc();
        }
        self.fail(inner, format!("{what}: {e}"))
    }

    /// Declares the child dead: kills the process, drops the connection,
    /// and marks the shard down until a rejoin succeeds.
    fn fail(&self, inner: &mut RemoteInner, reason: String) -> SlotError {
        inner.conn = None;
        inner.child = None; // ChildProc::drop kills and reaps
        inner.down = Some(reason.clone());
        SlotError::Unavailable {
            cell: self.cell.load(std::sync::atomic::Ordering::Relaxed),
            detail: reason,
        }
    }

    /// One request through the guard/reconnect/fail path.
    fn call<T>(
        &self,
        what: &str,
        request: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, SlotError> {
        let mut inner = self.inner.lock();
        // haste-lint: allow(L2) — deadline-bounded request; the guard/reconnect/fail sequence must be atomic per cell
        self.request(&mut inner, what, request)
    }

    /// [`RemoteShard::call`] under a lock the caller already holds.
    fn request<T>(
        &self,
        inner: &mut RemoteInner,
        what: &str,
        request: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, SlotError> {
        self.guard(inner)?;
        self.ensure_conn(inner)?;
        let outcome = match inner.conn.as_mut() {
            Some(conn) => request(conn),
            None => return Err(self.fail(inner, "no connection".to_string())),
        };
        match outcome {
            Ok(value) => Ok(value),
            Err(ClientError::Server { code, message }) => Err(remote_err(&code, message)),
            Err(e) => Err(self.crash(inner, what, &e)),
        }
    }
}

/// Rebuilds a fresh child from its baseline plus the replayed records
/// and verifies it landed on the router's clock.
fn replay_into(
    conn: &mut Client,
    baseline: Option<&Baseline>,
    ops: &[&OpRecord],
    target_clock: usize,
) -> Result<(), String> {
    match baseline {
        None => return Ok(()), // never loaded: a fresh empty child is the state
        Some(Baseline::Scenario(scenario)) => {
            conn.load(scenario)
                .map_err(|e| format!("baseline LOAD: {e}"))?;
        }
        Some(Baseline::Snapshot(text)) => {
            conn.restore(text)
                .map(|_| ())
                .map_err(|e| format!("baseline RESTORE: {e}"))?;
        }
    }
    for op in ops {
        match op {
            OpRecord::Submit(spec) | OpRecord::Reject { spec, .. } => match conn.submit(spec) {
                Ok(_) => {}
                // A replayed refusal is refused again, deterministically;
                // only transport failures abort the replay.
                Err(ClientError::Server { .. }) => {}
                Err(e) => return Err(format!("replayed SUBMIT: {e}")),
            },
            OpRecord::Tick => {
                conn.tick(1).map_err(|e| format!("replayed TICK: {e}"))?;
            }
            _ => {}
        }
    }
    let (clock, _open) = conn
        .clock()
        .map_err(|e| format!("post-replay CLOCK?: {e}"))?;
    if clock != target_clock {
        return Err(format!(
            "replayed clock {clock} does not match router clock {target_clock}"
        ));
    }
    Ok(())
}

/// Reads a child's status from its one-line `SHARDS?` reply, which
/// carries every field the router's own `SHARDS?` prints. The child's
/// other engine counters reach the router through its `EXPORT?` instead
/// ([`RemoteShard::export`]).
fn fetch_status(conn: &mut Client) -> Result<ShardStatus, ClientError> {
    let shards = conn.shards()?;
    let line = shards
        .first()
        .ok_or_else(|| ClientError::Protocol("empty SHARDS? reply".to_string()))?;
    Ok(ShardStatus {
        clock: line.slot,
        open: line.open,
        tasks: line.tasks,
        staged: line.staged,
        admitted: line.admitted,
        rejected: line.rejected,
        pending: line.pending,
    })
}

// ----------------------------------------------------------------------
// The router's uniform shard view
// ----------------------------------------------------------------------

/// One router shard slot: an in-process [`Shard`] or a supervised child.
/// The router code is written once against this enum; only the failure
/// surface differs between the modes (a local shard is never
/// [`SlotError::Unavailable`]).
pub(crate) enum ShardSlot {
    /// In-process: the engine lives in this process (original mode).
    Local(Box<Shard>),
    /// Out-of-process: the engine lives in a supervised `haste-shardd`.
    /// Both variants are boxed: they differ in size by hundreds of bytes,
    /// and a slot is reached through an `Arc` anyway.
    Remote(Box<RemoteShard>),
}

impl ShardSlot {
    pub(crate) fn submit(&self, spec: TaskSpec) -> Result<(TaskId, usize), SlotError> {
        match self {
            ShardSlot::Local(shard) => shard.submit(spec).map_err(SlotError::Shard),
            ShardSlot::Remote(shard) => shard.submit(spec),
        }
    }

    pub(crate) fn tick1(&self) -> Result<(usize, bool), SlotError> {
        match self {
            ShardSlot::Local(shard) => shard.tick(1).map_err(SlotError::Shard),
            ShardSlot::Remote(shard) => shard.tick1(),
        }
    }

    pub(crate) fn clock(&self) -> Result<(usize, bool), SlotError> {
        match self {
            ShardSlot::Local(shard) => shard.clock().map_err(SlotError::Shard),
            ShardSlot::Remote(shard) => shard.clock(),
        }
    }

    pub(crate) fn schedule(&self) -> Result<Schedule, SlotError> {
        match self {
            ShardSlot::Local(shard) => shard.schedule().map_err(SlotError::Shard),
            ShardSlot::Remote(shard) => shard.schedule(),
        }
    }

    pub(crate) fn utility_parts(&self) -> Result<UtilityParts, SlotError> {
        match self {
            ShardSlot::Local(shard) => shard.utility_parts().map_err(SlotError::Shard),
            ShardSlot::Remote(shard) => shard.utility_parts(),
        }
    }

    pub(crate) fn load_scenario(&self, cell: Scenario) -> Result<(), SlotError> {
        match self {
            ShardSlot::Local(shard) => shard
                .load_scenario(cell)
                .map(|_| ())
                .map_err(SlotError::Shard),
            ShardSlot::Remote(shard) => shard.load_scenario(&cell),
        }
    }

    /// Installs one validated restore target (the commit half of the
    /// router's two-phase `RESTORE`): the engine for a local shard, the
    /// snapshot text — a baseline at log cursor `cursor` — for a remote
    /// one.
    pub(crate) fn install_restored(
        &self,
        engine: haste_distributed::OnlineEngine,
        text: &str,
        cursor: usize,
    ) {
        match self {
            ShardSlot::Local(shard) => {
                shard.install(engine);
            }
            ShardSlot::Remote(shard) => shard.restore_snapshot(text, cursor),
        }
    }

    /// Commits a checkpoint at log cursor `cursor` after a completed
    /// composite `SNAPSHOT` (no-op for in-process shards, which need no
    /// replay).
    pub(crate) fn checkpoint(&self, snapshot: String, cursor: usize) {
        if let ShardSlot::Remote(shard) = self {
            shard.checkpoint(snapshot, cursor);
        }
    }

    /// Makes a child's current state its baseline at log cursor
    /// `cursor` — for a child a reshard just rebuilt: it was fed only the
    /// accepted records, which no per-cell view of the log reproduces
    /// (no-op for in-process shards).
    pub(crate) fn rebase(&self, cursor: usize) -> Result<(), SlotError> {
        if let ShardSlot::Remote(shard) = self {
            shard.checkpoint(shard.snapshot()?, cursor);
        }
        Ok(())
    }

    pub(crate) fn status_view(&self) -> Result<(ShardStatus, ShardHealth, u64, u64), SlotError> {
        match self {
            ShardSlot::Local(shard) => shard
                .status()
                .map(|status| (status, ShardHealth::Up, 0, 0))
                .map_err(SlotError::Shard),
            ShardSlot::Remote(shard) => Ok(shard.status_view()),
        }
    }

    /// The shard's share of the router's `EXPORT?`: its `haste_engine_*`
    /// families (none before `LOAD`), plus a child's own request series
    /// under `haste_shard_*` (an in-process shard's requests are the
    /// router's own). A child that is down fails with
    /// [`SlotError::Unavailable`].
    pub(crate) fn export(&self) -> Result<Snapshot, SlotError> {
        match self {
            ShardSlot::Local(shard) => {
                let mut snap = Snapshot::new();
                let _ = shard.with_engine(|engine| engine_families(engine, &mut snap));
                Ok(snap)
            }
            ShardSlot::Remote(shard) => shard.export(),
        }
    }

    /// Renumbers the cell a remote shard reports in `Unavailable` errors
    /// (no-op for in-process shards, which carry no cell identity).
    pub(crate) fn set_cell(&self, cell: usize) {
        if let ShardSlot::Remote(shard) = self {
            shard.set_cell(cell);
        }
    }

    /// Restarts a down remote shard (no-op when up or in-process).
    pub(crate) fn rejoin(&self, target_clock: usize, log: &OpLog, owns: impl Fn(Vec2) -> bool) {
        if let ShardSlot::Remote(shard) = self {
            shard.rejoin(target_clock, log, owns);
        }
    }

    /// Matures fault directives at `clock` (remote only).
    pub(crate) fn apply_slot_faults(&self, clock: usize) {
        if let ShardSlot::Remote(shard) = self {
            shard.apply_slot_faults(clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_grammar_round_trips() {
        let plan = FaultPlan::parse(
            "# chaos schedule\n\
             kill 1 @6\n\
             stall 0 for 2 @3   # two timeouts from slot 3\n\
             drop-conn 0 @2\n\
             stall 1 for 1\n\
             drop-conn 1\n\
             \n",
        )
        .expect("well-formed plan");
        assert_eq!(plan.cells().into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(plan.for_cell(1).len(), 3);
        assert_eq!(
            plan.for_cell(1)[0],
            Directive {
                cell: 1,
                at_slot: 6,
                kind: FaultKind::Kill
            }
        );
        assert_eq!(
            plan.for_cell(0),
            vec![
                Directive {
                    cell: 0,
                    at_slot: 3,
                    kind: FaultKind::Stall(2)
                },
                Directive {
                    cell: 0,
                    at_slot: 2,
                    kind: FaultKind::DropConn
                },
            ]
        );
        // Defaulted slots mature immediately.
        assert_eq!(plan.for_cell(1)[1].at_slot, 0);
        assert_eq!(plan.for_cell(1)[2].at_slot, 0);
    }

    #[test]
    fn fault_plan_rejects_malformed_lines() {
        for bad in [
            "kill 1",        // kill requires an explicit slot
            "kill one @3",   // bad cell
            "kill 1 3",      // missing '@'
            "stall 1 for 0", // zero-request stall is a no-op typo
            "stall 1 @3",    // missing 'for <n>'
            "drop-conn",     // missing cell
            "explode 1 @2",  // unknown verb
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
        assert!(FaultPlan::parse("# only comments\n\n")
            .expect("empty ok")
            .is_empty());
    }

    #[test]
    fn kill_router_directives_parse_apart_from_shard_faults() {
        let plan = FaultPlan::parse(
            "kill-router @16\n\
             kill-router @16   # duplicates collapse\n\
             kill-router @4\n",
        )
        .expect("well-formed plan");
        assert_eq!(plan.router_kills(), &[4, 16]);
        assert!(!plan.is_empty());
        assert!(!plan.has_shard_faults());
        // Router kills target no cell and force no child restart: the
        // whole process dies and the WAL brings it back.
        assert!(plan.cells().is_empty());
        assert!(!plan.expects_restarts());
        assert_eq!(plan.latest_slot(), Some(16));

        let mixed = FaultPlan::parse("kill 1 @6\nkill-router @8\n").expect("well-formed plan");
        assert!(mixed.has_shard_faults());
        assert_eq!(mixed.router_kills(), &[8]);
        assert_eq!(mixed.latest_slot(), Some(8));

        for bad in ["kill-router", "kill-router 16", "kill-router @x"] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn resolve_shardd_prefers_the_explicit_path() {
        let explicit = PathBuf::from("/does/not/need/to/exist");
        let resolved = resolve_shardd(Some(&explicit)).expect("explicit path wins unchecked");
        assert_eq!(resolved, explicit);
    }

    #[test]
    fn resolve_routerd_prefers_the_explicit_path() {
        let explicit = PathBuf::from("/does/not/need/to/exist");
        let resolved = resolve_routerd(Some(&explicit)).expect("explicit path wins unchecked");
        assert_eq!(resolved, explicit);
    }

    #[test]
    fn remote_errors_pass_codes_through() {
        match remote_err("overload", "slot full".to_string()) {
            SlotError::Remote { code, message } => {
                assert_eq!(code, ErrCode::Overload);
                assert_eq!(message, "slot full");
            }
            other => panic!("expected Remote, got {other:?}"),
        }
        match remote_err("mystery", "??".to_string()) {
            SlotError::Remote { code, .. } => assert_eq!(code, ErrCode::Internal),
            other => panic!("expected Remote, got {other:?}"),
        }
    }
}
