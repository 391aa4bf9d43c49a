//! A load-generator harness for the daemon: N concurrent connections
//! submitting Poisson task arrivals in **virtual time**, measuring
//! submit-to-ack latency, and verifying the streamed session against a
//! batch replay of its own submission trace.
//!
//! Arrival model: a homogeneous Poisson process conditioned on exactly `N`
//! total arrivals over `S` slots is `N` i.i.d. uniform arrival times (the
//! order-statistics property), so each submission independently draws a
//! uniform slot. No wall-clock sleeping is involved — the generator drives
//! the daemon's virtual clock itself: all connections submit their
//! arrivals for the open slot, meet at a barrier, one `TICK` closes the
//! slot, and the next slot begins.
//!
//! Chaos mode: with [`LoadgenConfig::fault_plan`] set the harness runs a
//! sharded router with out-of-process shards **twice** — once without
//! faults (the reference) and once injecting the seeded fault schedule —
//! and checks that every cell the plan did not target finishes with a
//! final utility bit-identical to the reference run ([`ChaosReport`]).
//! Submissions bounced while a shard is down (`ERR unavailable`) are
//! counted, not fatal.
//!
//! Arrival shaping: [`LoadgenConfig::profile`] switches the slot draw
//! from uniform to a seeded diurnal rate curve (double-peaked, 288
//! canonical steps, piecewise-linear), and the report then splits the
//! admission-rejection rate into peak and trough slot bands. The
//! [`Hotspot`](ArrivalProfile::Hotspot) profile instead skews *space*:
//! arrival slots stay uniform but device positions concentrate on one
//! partition cell, the load pattern live resharding exists for.
//! [`LoadgenConfig::reshard_split`] scripts a mid-run `RESHARD SPLIT`
//! between two ticks of a sharded run; the replay verification carries
//! through the topology change unchanged.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use haste_distributed::{OnlineEngine, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{Charger, ChargingParams, Scenario, TimeGrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use haste_metrics::Value as MetricValue;

use crate::shard::ShardHealth;
use crate::{
    parse_composite, serve, serve_router, Client, ClientError, FaultPlan, ProcessShardConfig,
    RouterConfig, ServerConfig,
};

/// Steps in one canonical diurnal day. 288 matches the classic
/// five-minute telemetry resolution of a 24-hour trace; a run's slots
/// are mapped onto the curve by integer interpolation so any
/// slot-count/period combination stays deterministic.
pub const DIURNAL_STEPS: usize = 288;

/// Control points `(step, weight)` of the canonical diurnal rate curve:
/// a pre-dawn trough, a late-morning peak, a midday shoulder, and a
/// taller evening peak. Weights are relative Poisson intensities;
/// between control points the curve is piecewise linear in integer
/// arithmetic, so every platform derives bit-identical weights.
const DIURNAL_CURVE: [(usize, u64); 9] = [
    (0, 35),
    (48, 12),
    (84, 60),
    (108, 100),
    (132, 72),
    (168, 58),
    (204, 96),
    (252, 40),
    (288, 35),
];

/// How submissions distribute their arrival slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProfile {
    /// Homogeneous Poisson: every slot is equally likely (the
    /// order-statistics draw the module doc describes).
    Uniform,
    /// Inhomogeneous Poisson on the [`DIURNAL_CURVE`]: slot `s` takes
    /// the curve weight at step `(s % period) · 288 / period`, so
    /// `period` slots span one synthetic day (runs longer than one
    /// period wrap around). The report gains peak-band and trough-band
    /// rejection rates.
    Diurnal {
        /// Slots per synthetic day.
        period: usize,
    },
    /// Spatially skewed arrivals for sharded runs: arrival *slots* stay
    /// uniform (the temporal draw is the exact expression the uniform
    /// profile uses), but each device position first draws a partition
    /// cell — the hot cell with weight `factor`, every other cell with
    /// weight 1 — and then lands uniformly inside that cell's rect.
    /// Needs [`LoadgenConfig::cells`].
    Hotspot {
        /// Row-major index of the cell receiving the skewed load.
        cell: usize,
        /// Relative arrival weight of the hot cell (≥ 1; 1 is uniform).
        factor: u64,
    },
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address to drive; `None` self-hosts a daemon in-process
    /// (fresh engine, clean shutdown afterwards).
    pub addr: Option<String>,
    /// Concurrent client connections submitting tasks.
    pub connections: usize,
    /// Total task submissions across all connections.
    pub submissions: usize,
    /// Chargers in the generated base scenario (self-describing runs).
    pub chargers: usize,
    /// Side length of the square deployment field, meters.
    pub field: f64,
    /// Slots of the virtual-time grid (also the number of `TICK`s driven).
    pub slots: usize,
    /// Admission bound per slot for the self-hosted daemon.
    pub max_pending: usize,
    /// Seed for charger placement, arrival times and task parameters.
    pub seed: u64,
    /// After the run, pull a `SNAPSHOT`, replay the submission trace in
    /// batch ([`haste_distributed::replay_trace`]) and check the utilities
    /// match bit for bit. In sharded mode the composite snapshot is split
    /// and every shard is replayed independently; the per-task terms are
    /// re-merged in the recorded arrival order and compared bitwise.
    pub verify_replay: bool,
    /// Drive a sharded router on this partition grid instead of a plain
    /// daemon (`None` = single engine). Self-hosted runs start
    /// [`serve_router`]; chargers are placed in cell interiors (outside
    /// the reach halo) so the generated scenario always partitions.
    pub cells: Option<(usize, usize)>,
    /// Run the self-hosted router's shards as supervised `haste-shardd`
    /// child processes instead of in-process engines. Needs [`cells`]
    /// (sharded) and no [`addr`] (self-hosted).
    ///
    /// [`cells`]: LoadgenConfig::cells
    /// [`addr`]: LoadgenConfig::addr
    pub out_of_process: bool,
    /// Explicit `haste-shardd` binary path for out-of-process runs
    /// (`None` resolves next to the current executable; see
    /// [`crate::resolve_shardd`]).
    pub shardd: Option<std::path::PathBuf>,
    /// Per-request supervisor deadline for out-of-process shards
    /// (`None` = [`crate::DEFAULT_SHARD_DEADLINE`]).
    pub deadline: Option<std::time::Duration>,
    /// Deterministic fault schedule for chaos mode. Implies
    /// out-of-process shards; the run is doubled (reference + fault) and
    /// the report gains a [`ChaosReport`]. Every directive must mature
    /// before the final slot so the targeted shard has a tick left in
    /// which to rejoin.
    pub fault_plan: Option<FaultPlan>,
    /// Negotiate protocol v3 binary framing on the worker connections
    /// ([`Client::connect_v3`]). The run fails with a structured error if
    /// the endpoint only speaks text — a silent fallback would invalidate
    /// any binary-vs-text comparison. The control connection stays on v1
    /// text either way.
    pub binary: bool,
    /// Submissions per `submit_batch` call (clamped to at least 1). Over
    /// binary framing a chunk rides in one `OP_BATCH` frame with one
    /// vectored ack; over text it degrades to sequential `SUBMIT`s. Every
    /// record in a chunk is attributed the chunk's round-trip latency.
    pub batch: usize,
    /// Arrival-slot distribution (see [`ArrivalProfile`]).
    pub profile: ArrivalProfile,
    /// Serve the self-hosted router's metric registry over plain HTTP
    /// on this address (forwarded to [`RouterConfig::metrics_addr`]).
    /// Needs a sharded self-hosted run; with
    /// [`check_export`](LoadgenConfig::check_export) the post-run
    /// exposition is fetched through this scrape endpoint instead of
    /// in-protocol `EXPORT?`.
    pub metrics_addr: Option<String>,
    /// After the run, fetch the metric exposition, parse it, and check
    /// the endpoint's `SUBMIT` latency-histogram count equals this
    /// session's accepted + rejected + unavailable submissions. A
    /// mismatch is an error, not a statistic.
    pub check_export: bool,
    /// Scripted live resharding: `(after_slot, cell)` issues
    /// `RESHARD SPLIT cell` on the control connection immediately after
    /// the `TICK` that closes slot `after_slot - 1` — mid-run, between
    /// ticks, while the workers keep submitting. Needs a sharded
    /// closed-loop run; the replay verification handles the post-split
    /// topology transparently (the composite snapshot carries the cell
    /// rects the merge order is derived from).
    pub reshard_split: Option<(usize, usize)>,
    /// Write-ahead-log directory for durable self-hosted sharded runs.
    /// Stale `*.wal`/`*.ckpt` files in it are removed at session start,
    /// so every session begins from a clean slate. Required by
    /// `kill-router` fault plans (the respawned router recovers from
    /// this directory); on any other sharded self-hosted run it simply
    /// makes the router durable.
    pub wal_dir: Option<std::path::PathBuf>,
    /// Explicit `routerd` binary path for `kill-router` chaos runs
    /// (`None` resolves via `HASTE_ROUTERD`, then next to the current
    /// executable; see [`crate::resolve_routerd`]).
    pub routerd: Option<std::path::PathBuf>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: None,
            connections: 8,
            submissions: 10_000,
            chargers: 8,
            field: 200.0,
            slots: 64,
            max_pending: 4096,
            seed: 1,
            verify_replay: true,
            cells: None,
            out_of_process: false,
            shardd: None,
            deadline: None,
            fault_plan: None,
            binary: false,
            batch: 1,
            profile: ArrivalProfile::Uniform,
            metrics_addr: None,
            check_export: false,
            reshard_split: None,
            wal_dir: None,
            routerd: None,
        }
    }
}

/// What a load-generator run observed.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Submissions attempted.
    pub submitted: usize,
    /// Submissions acknowledged with a task id.
    pub accepted: usize,
    /// Submissions rejected by admission control (`ERR overload`).
    pub rejected: usize,
    /// Submissions bounced because their cell's shard was down
    /// (`ERR unavailable`; only non-zero under fault injection).
    pub unavailable: usize,
    /// Median submit-to-ack latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile submit-to-ack latency, microseconds.
    pub p99_us: u64,
    /// Worst submit-to-ack latency, microseconds.
    pub max_us: u64,
    /// Wall-clock duration of the whole session, seconds: connecting,
    /// `LOAD`, the submission phase, and the post-run utility/snapshot/
    /// verification queries. The honest denominator for submission
    /// throughput is [`submit_elapsed_s`](LoadgenReport::submit_elapsed_s).
    pub elapsed_s: f64,
    /// Acknowledged submissions per wall-clock second of the **whole
    /// session** — a utilization figure, not the submission rate; that is
    /// [`submit_throughput`](LoadgenReport::submit_throughput).
    pub throughput: f64,
    /// Wall-clock duration of the submit loop alone, seconds: from the
    /// instant every worker connection is established to the final slot's
    /// closing `TICK`.
    pub submit_elapsed_s: f64,
    /// Acknowledged submissions per wall-clock second of the submit loop
    /// alone.
    pub submit_throughput: f64,
    /// Final full-P1 utility reported by the daemon.
    pub utility: f64,
    /// Final relaxed (HASTE-R) value reported by the daemon.
    pub relaxed: f64,
    /// Utility of the batch replay of the submission trace (when
    /// verification ran). In sharded mode this is the merge of the
    /// independent per-shard replays.
    pub replay_utility: Option<f64>,
    /// Whether daemon and replay utilities matched bit for bit.
    pub replay_matches: Option<bool>,
    /// Shards behind the driven endpoint (`None` for a plain daemon run).
    pub shards: Option<usize>,
    /// Chaos verdict (`Some` only when a fault plan was injected).
    pub chaos: Option<ChaosReport>,
    /// Admission-rejection rate over the peak slot band (slots whose
    /// diurnal weight is at or above the 75th percentile). `Some` only
    /// under [`ArrivalProfile::Diurnal`].
    pub peak_overload_rate: Option<f64>,
    /// Admission-rejection rate over the trough slot band (slots whose
    /// diurnal weight is at or below the 25th percentile). `Some` only
    /// under [`ArrivalProfile::Diurnal`].
    pub trough_overload_rate: Option<f64>,
    /// Whether the post-run exposition self-check ran and passed
    /// ([`LoadgenConfig::check_export`]; a failed check is an error, so
    /// this is only ever `Some(true)` in a returned report).
    pub export_consistent: Option<bool>,
}

/// What a fault-injected run proved against its no-fault reference run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Cells the fault plan targeted (sorted, deduplicated).
    pub fault_cells: Vec<usize>,
    /// Whether every cell the plan did **not** target finished with a
    /// final utility bit-identical to the reference run — the blast
    /// radius of the injected faults stayed inside the targeted cells.
    pub surviving_match: bool,
    /// Child-process restarts performed across the fleet.
    pub restarts: u64,
    /// Journaled operations replayed into restarted children.
    pub replays: u64,
    /// Submissions bounced with `ERR unavailable` while shards were down.
    pub unavailable: usize,
    /// Whether every shard finished the run serving (no shard was still
    /// `restarting` at the end — the targeted cells rejoined).
    pub recovered: bool,
    /// Final utility of the no-fault reference run, for context.
    pub reference_utility: f64,
    /// `kill-router` directives executed: each one SIGKILLed the whole
    /// router process at a post-tick barrier and respawned it, and WAL
    /// recovery had to bring every tenant back bit-identically (for
    /// these runs [`surviving_match`](ChaosReport::surviving_match)
    /// covers **all** cells and the final total utility).
    pub router_kills: usize,
}

impl LoadgenReport {
    /// Fraction of submissions bounced by admission control
    /// (`ERR overload`): the saturation signal of a run.
    pub fn overload_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.rejected as f64 / self.submitted as f64
        }
    }
}

impl std::fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submitted={} accepted={} rejected={} overload_rate={:.2}% p50={}us p99={}us \
             max={}us elapsed={:.3}s throughput={:.0}/s submit_elapsed={:.3}s \
             submit_throughput={:.0}/s utility={:.6}",
            self.submitted,
            self.accepted,
            self.rejected,
            100.0 * self.overload_rate(),
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.elapsed_s,
            self.throughput,
            self.submit_elapsed_s,
            self.submit_throughput,
            self.utility
        )?;
        if let Some(shards) = self.shards {
            write!(f, " shards={shards}")?;
        }
        if let (Some(peak), Some(trough)) = (self.peak_overload_rate, self.trough_overload_rate) {
            write!(
                f,
                " peak_overload={:.2}% trough_overload={:.2}%",
                100.0 * peak,
                100.0 * trough
            )?;
        }
        if self.export_consistent == Some(true) {
            write!(f, " export_consistent=true")?;
        }
        if let Some(matches) = self.replay_matches {
            write!(
                f,
                " replay_utility={:.6} replay_matches={matches}",
                self.replay_utility.unwrap_or(f64::NAN)
            )?;
        }
        if self.unavailable > 0 {
            write!(f, " unavailable={}", self.unavailable)?;
        }
        if let Some(chaos) = &self.chaos {
            write!(
                f,
                " chaos_cells={:?} surviving_match={} restarts={} replays={} recovered={}",
                chaos.fault_cells,
                chaos.surviving_match,
                chaos.restarts,
                chaos.replays,
                chaos.recovered
            )?;
            if chaos.router_kills > 0 {
                write!(f, " router_kills={}", chaos.router_kills)?;
            }
        }
        Ok(())
    }
}

/// One worker's pre-generated submission plan: per slot, the specs it
/// submits while that slot is open.
struct WorkerPlan {
    per_slot: Vec<Vec<TaskSpec>>,
}

/// A `routerd` subprocess hosting the session's endpoint — the victim of
/// `kill-router` directives. Respawns reuse the exact argument list, so
/// every incarnation binds the same reserved address and recovers from
/// the same WAL directory.
struct RouterProcess {
    program: std::path::PathBuf,
    args: Vec<String>,
    child: Child,
    addr: String,
}

impl RouterProcess {
    /// Resolves the `routerd` binary, cleans the WAL directory, reserves
    /// a local address, and spawns the first incarnation, waiting for
    /// its listening greeting.
    fn launch(config: &LoadgenConfig) -> Result<RouterProcess, ClientError> {
        let program = crate::resolve_routerd(config.routerd.as_deref())?;
        let wal_dir = config
            .wal_dir
            .as_ref()
            .expect("kill-router validation requires a WAL directory");
        clean_wal_dir(wal_dir)?;
        let (cx, cy) = config
            .cells
            .expect("kill-router validation requires a sharded router");
        let addr = reserve_addr()?;
        let mut args = vec![
            "--addr".to_string(),
            addr.clone(),
            "--cells".to_string(),
            format!("{cx}x{cy}"),
            "--field".to_string(),
            format!("{0}x{0}", config.field),
            "--origin".to_string(),
            "0,0".to_string(),
            // Workers + control + slack, same deadlock-avoidance rule as
            // the in-process pools.
            "--threads".to_string(),
            (config.connections + 2).to_string(),
            "--max-pending".to_string(),
            config.max_pending.to_string(),
            "--wal-dir".to_string(),
            wal_dir.display().to_string(),
            // Ticks close slots at the barriers where kills land, so the
            // every-tick policy is exactly the durability the bitwise
            // comparison relies on.
            "--wal-sync".to_string(),
            "every-tick".to_string(),
        ];
        if config.out_of_process {
            args.push("--out-of-process".to_string());
            let shardd = crate::resolve_shardd(config.shardd.as_deref())?;
            args.push("--shardd".to_string());
            args.push(shardd.display().to_string());
        }
        if let Some(deadline) = config.deadline {
            args.push("--deadline-ms".to_string());
            args.push(deadline.as_millis().to_string());
        }
        let child = RouterProcess::spawn(&program, &args)?;
        Ok(RouterProcess {
            program,
            args,
            child,
            addr,
        })
    }

    /// Spawns one incarnation and blocks until it prints its listening
    /// greeting — which `routerd` does only after WAL recovery finished
    /// and the listener is bound, so a successful spawn is a router
    /// ready to serve recovered state.
    fn spawn(program: &std::path::Path, args: &[String]) -> Result<Child, ClientError> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("routerd stdout was piped");
        let mut greeting = String::new();
        let outcome = BufReader::new(stdout).read_line(&mut greeting);
        match outcome {
            Ok(n) if n > 0 && greeting.contains("listening on") => Ok(child),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(ClientError::Protocol(format!(
                    "routerd subprocess did not come up (greeting `{}`)",
                    greeting.trim_end()
                )))
            }
        }
    }

    /// SIGKILLs the current incarnation — no shutdown handshake, the
    /// whole point — reaps it, and spawns a replacement with the same
    /// arguments. Returns once the replacement has greeted, i.e. once
    /// recovery is complete.
    fn kill_and_respawn(&mut self) -> Result<(), ClientError> {
        self.child.kill()?;
        self.child.wait()?;
        self.child = RouterProcess::spawn(&self.program, &self.args)?;
        Ok(())
    }

    /// Tears the subprocess down at end of session.
    fn shutdown(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Removes stale WAL artifacts (`*.wal`, `*.ckpt`, `*.tmp`) from the
/// configured directory, creating it first if needed, so every session
/// starts durable from a clean slate.
fn clean_wal_dir(dir: &std::path::Path) -> Result<(), ClientError> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let stale = path
            .extension()
            .is_some_and(|ext| ext == "wal" || ext == "ckpt" || ext == "tmp");
        if stale {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Reserves a local address for the router subprocess: bind an ephemeral
/// port, note it, release it. The respawned incarnations must reuse one
/// fixed address (workers reconnect to it), which an OS-assigned port
/// per spawn could not provide.
fn reserve_addr() -> Result<String, ClientError> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    Ok(listener.local_addr()?.to_string())
}

/// Runs the load generator. Returns an error on any transport or protocol
/// failure (a malformed daemon response is an error, not a statistic —
/// correctness is binary here).
///
/// With a [`LoadgenConfig::fault_plan`] the run is doubled: a no-fault
/// reference session, then the fault session; the returned report is the
/// fault session's, with [`LoadgenReport::chaos`] carrying the verdict.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, ClientError> {
    let shard_chaos = config
        .fault_plan
        .as_ref()
        .is_some_and(FaultPlan::has_shard_faults);
    let process_mode = config.out_of_process || shard_chaos;
    if process_mode && config.addr.is_some() {
        return Err(ClientError::Protocol(
            "out-of-process shards need a self-hosted router (drop the address)".to_string(),
        ));
    }
    if process_mode && config.cells.is_none() {
        return Err(ClientError::Protocol(
            "out-of-process shards need a sharded router (set cells)".to_string(),
        ));
    }
    if let Some(plan) = &config.fault_plan {
        if !plan.router_kills().is_empty() {
            if plan.has_shard_faults() {
                return Err(ClientError::Protocol(
                    "kill-router cannot share a plan with shard fault directives: a shard \
                     fault in flight when the router dies would make the post-recovery \
                     comparison ill-defined"
                        .to_string(),
                ));
            }
            if config.addr.is_some() {
                return Err(ClientError::Protocol(
                    "kill-router spawns and kills its own routerd (drop the address)".to_string(),
                ));
            }
            if config.cells.is_none() {
                return Err(ClientError::Protocol(
                    "kill-router drives a sharded router (set cells)".to_string(),
                ));
            }
            if config.wal_dir.is_none() {
                return Err(ClientError::Protocol(
                    "kill-router needs a write-ahead-log directory to recover from \
                     (set wal_dir)"
                        .to_string(),
                ));
            }
            if config.metrics_addr.is_some() {
                return Err(ClientError::Protocol(
                    "the scrape listener belongs to an in-process router; kill-router runs \
                     routerd as a subprocess"
                        .to_string(),
                ));
            }
            if config.check_export {
                return Err(ClientError::Protocol(
                    "the exposition self-check cannot cross a router kill: counters do not \
                     survive the process"
                        .to_string(),
                ));
            }
        }
    }
    if config.wal_dir.is_some() && config.addr.is_some() {
        return Err(ClientError::Protocol(
            "the WAL belongs to the self-hosted router (drop the address)".to_string(),
        ));
    }
    if config.wal_dir.is_some() && config.cells.is_none() {
        return Err(ClientError::Protocol(
            "the WAL needs a sharded router (set cells)".to_string(),
        ));
    }
    if let ArrivalProfile::Diurnal { period: 0 } = config.profile {
        return Err(ClientError::Protocol(
            "diurnal profile needs a period of at least 1 slot".to_string(),
        ));
    }
    if let ArrivalProfile::Hotspot { cell, factor } = config.profile {
        let Some((cx, cy)) = config.cells else {
            return Err(ClientError::Protocol(
                "hotspot profile skews load across partition cells (set cells)".to_string(),
            ));
        };
        if cell >= cx * cy {
            return Err(ClientError::Protocol(format!(
                "hotspot cell {cell} is outside the {cx}x{cy} grid"
            )));
        }
        if factor == 0 {
            return Err(ClientError::Protocol(
                "hotspot factor must be at least 1".to_string(),
            ));
        }
    }
    if let Some((after_slot, cell)) = config.reshard_split {
        let Some((cx, cy)) = config.cells else {
            return Err(ClientError::Protocol(
                "a scripted reshard needs a sharded router (set cells)".to_string(),
            ));
        };
        if cell >= cx * cy {
            return Err(ClientError::Protocol(format!(
                "reshard cell {cell} is outside the {cx}x{cy} grid"
            )));
        }
        if after_slot == 0 || after_slot >= config.slots {
            return Err(ClientError::Protocol(format!(
                "reshard slot {after_slot} must fall mid-run (1..{})",
                config.slots
            )));
        }
        // Shard-fault chaos assumes a stable topology for its per-cell
        // reference comparison. A kill-router plan is fine: both the
        // reference and the fault session perform the same split, so the
        // comparison stays aligned — and the split record's WAL replay is
        // exactly what the kill is meant to exercise.
        if shard_chaos {
            return Err(ClientError::Protocol(
                "scripted resharding and shard-fault chaos cannot share a run: the \
                 per-cell reference comparison assumes a stable topology"
                    .to_string(),
            ));
        }
    }
    if config.metrics_addr.is_some() && config.addr.is_some() {
        return Err(ClientError::Protocol(
            "the scrape listener belongs to the self-hosted router (drop the address)".to_string(),
        ));
    }
    if config.metrics_addr.is_some() && config.cells.is_none() {
        return Err(ClientError::Protocol(
            "the scrape listener needs a sharded router (set cells)".to_string(),
        ));
    }
    let plan = match &config.fault_plan {
        None => return run_session(config, None, false).map(|(report, _)| report),
        Some(plan) => plan,
    };
    if plan.is_empty() {
        return Err(ClientError::Protocol(
            "fault plan has no directives".to_string(),
        ));
    }
    if plan
        .latest_slot()
        .is_some_and(|slot| slot + 1 >= config.slots)
    {
        return Err(ClientError::Protocol(
            "fault plan matures too late: every directive needs at least one tick left \
             after it for the targeted shard to rejoin"
                .to_string(),
        ));
    }

    // Reference session: same seed, same out-of-process deployment, no
    // faults. Its per-shard utilities are the bitwise yardstick for the
    // cells the plan does not touch.
    let (reference, reference_obs) = run_session(config, None, true)?;
    let reference_obs = expect_observed(reference_obs)?;
    let (mut report, obs) = run_session(config, Some(plan), true)?;
    let obs = expect_observed(obs)?;

    let fault_cells: Vec<usize> = plan.cells().into_iter().collect();
    // For `kill-router` runs `fault_cells` is empty, so this compares
    // EVERY cell bitwise — and the total on top: the recovered router
    // must be indistinguishable from one that never died. The total is
    // compared in canonical cell order, NOT via the sessions' raw
    // `UTILITY?` replies: those sum the per-task terms in each session's
    // own cross-connection arrival interleaving, and float addition is
    // not associative, so two *independent* sessions (even two no-fault
    // ones) wobble in the last ulp. Each session's arrival-order total
    // is separately pinned against its own offline replay
    // (`replay_matches`), which is exactly the axis a kill could bend.
    let canonical_total = |cells: &[f64]| cells.iter().fold(0.0f64, |acc, utility| acc + utility);
    let surviving_match = reference_obs.per_shard_utility.len() == obs.per_shard_utility.len()
        && reference_obs
            .per_shard_utility
            .iter()
            .zip(&obs.per_shard_utility)
            .enumerate()
            .all(|(cell, (reference, faulted))| {
                fault_cells.contains(&cell) || reference.to_bits() == faulted.to_bits()
            })
        && (plan.router_kills().is_empty()
            || canonical_total(&reference_obs.per_shard_utility).to_bits()
                == canonical_total(&obs.per_shard_utility).to_bits());
    report.chaos = Some(ChaosReport {
        fault_cells,
        surviving_match,
        restarts: obs.restarts,
        replays: obs.replays,
        unavailable: report.unavailable,
        recovered: obs.all_serving,
        reference_utility: reference.utility,
        router_kills: plan.router_kills().len(),
    });
    Ok(report)
}

/// Post-run shard observations backing the chaos verdict: per-shard final
/// utilities (from the composite snapshot) and supervision counters (from
/// `SHARDS?`).
struct ShardObservations {
    per_shard_utility: Vec<f64>,
    restarts: u64,
    replays: u64,
    all_serving: bool,
}

/// Unwraps the observations a chaos session was asked to collect.
fn expect_observed(obs: Option<ShardObservations>) -> Result<ShardObservations, ClientError> {
    obs.ok_or_else(|| {
        ClientError::Protocol("chaos session produced no shard observations".to_string())
    })
}

/// One load-generator session: hosts (or dials) the endpoint, drives the
/// full submission plan, and tears the endpoint down. `fault` is the plan
/// injected into **this** session (the chaos reference passes `None`);
/// `observe` additionally collects [`ShardObservations`] from the final
/// snapshot and `SHARDS?`.
fn run_session(
    config: &LoadgenConfig,
    fault: Option<&FaultPlan>,
    observe: bool,
) -> Result<(LoadgenReport, Option<ShardObservations>), ClientError> {
    let process_mode = config.out_of_process
        || config
            .fault_plan
            .as_ref()
            .is_some_and(FaultPlan::has_shard_faults);
    // A `kill-router` session cannot host its victim in-process: the
    // whole point is SIGKILLing the router mid-run, so it runs as a
    // `routerd` subprocess recovering from the configured WAL directory.
    // The chaos *reference* session (`fault` is `None`) stays in-process
    // — the undisturbed yardstick (durable too when `wal_dir` is set,
    // which changes nothing the comparison can see).
    let router_kill_slots: Vec<usize> = fault
        .map(|plan| plan.router_kills().to_vec())
        .unwrap_or_default();
    let mut router_process = if router_kill_slots.is_empty() {
        None
    } else {
        Some(RouterProcess::launch(config)?)
    };
    let hosted = if router_process.is_some() {
        None
    } else {
        match (&config.addr, config.cells) {
            (Some(_), _) => None,
            // Workers + the control connection must all fit in the pool, or
            // the barrier protocol deadlocks waiting on a queued connection.
            (None, None) => Some(serve(ServerConfig {
                worker_threads: config.connections + 2,
                max_pending: config.max_pending,
                ..ServerConfig::default()
            })?),
            (None, Some(cells)) => {
                let process = process_mode.then(|| ProcessShardConfig {
                    shardd: config.shardd.clone(),
                    deadline: config.deadline,
                    fault_plan: fault.cloned(),
                });
                let wal = match &config.wal_dir {
                    Some(dir) => {
                        clean_wal_dir(dir)?;
                        Some(crate::wal::WalConfig::new(dir.clone()))
                    }
                    None => None,
                };
                Some(serve_router(RouterConfig {
                    worker_threads: config.connections + 2,
                    max_pending: config.max_pending,
                    cells,
                    origin: (0.0, 0.0),
                    field: (config.field, config.field),
                    process,
                    metrics_addr: config.metrics_addr.clone(),
                    wal,
                    ..RouterConfig::default()
                })?)
            }
        }
    };
    let addr = match (&config.addr, &hosted, &router_process) {
        (_, _, Some(process)) => process.addr.clone(),
        (Some(addr), _, None) => addr.clone(),
        (None, Some(handle), None) => handle.addr().to_string(),
        (None, None, None) => unreachable!("self-hosted handle exists"),
    };

    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let scenario = base_scenario(config, &mut rng);
    let mut control = Client::connect(&addr)?;
    control.load(&scenario)?;

    // Poisson arrivals: each submission draws its slot — uniformly, or
    // weighted by the diurnal curve — and round-robin across connections
    // keeps per-worker load balanced.
    let weights = slot_weights(config.profile, config.slots);
    let sampler = SlotSampler::new(&weights);
    // Hotspot runs draw a weighted cell before each position; every other
    // profile leaves the position draws untouched, so pre-hotspot seeds
    // reproduce their traces bit for bit.
    let cell_sampler = match (config.profile, config.cells) {
        (ArrivalProfile::Hotspot { cell, factor }, Some((cx, cy))) => {
            let mut cell_weights = vec![1u64; cx * cy];
            cell_weights[cell] = factor;
            Some((SlotSampler::new(&cell_weights), (cx, cy)))
        }
        _ => None,
    };
    let mut arrivals: Vec<(usize, TaskSpec)> = Vec::with_capacity(config.submissions);
    for _ in 0..config.submissions {
        let slot = match config.profile {
            // The uniform draw keeps the literal pre-profile expression so
            // existing seeds reproduce their traces bit for bit. Hotspot
            // skews space, not time, and shares it.
            ArrivalProfile::Uniform | ArrivalProfile::Hotspot { .. } => {
                rng.gen_range(0..config.slots)
            }
            ArrivalProfile::Diurnal { .. } => sampler.draw(&mut rng),
        };
        let duration = rng.gen_range(2..=8usize);
        let device_pos = match &cell_sampler {
            Some((cells, grid)) => {
                cell_uniform_pos(cells.draw(&mut rng), *grid, config.field, &mut rng)
            }
            None => Vec2::new(
                rng.gen_range(0.0..config.field),
                rng.gen_range(0.0..config.field),
            ),
        };
        let spec = TaskSpec {
            device_pos,
            device_facing: Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
            end_slot: (slot + duration).min(config.slots),
            required_energy: rng.gen_range(500.0..3000.0),
            weight: 1.0,
        };
        arrivals.push((slot, spec));
    }

    let barrier = Barrier::new(config.connections + 1);
    let slot_accepted: Vec<AtomicUsize> = (0..config.slots).map(|_| AtomicUsize::new(0)).collect();
    let slot_rejected: Vec<AtomicUsize> = (0..config.slots).map(|_| AtomicUsize::new(0)).collect();
    let unavailable = AtomicUsize::new(0);
    let mut all_latencies: Vec<u64> = Vec::with_capacity(config.submissions);
    let mut submit_elapsed_s = 0.0f64;

    let mut plans: Vec<WorkerPlan> = (0..config.connections)
        .map(|_| WorkerPlan {
            per_slot: vec![Vec::new(); config.slots],
        })
        .collect();
    for (i, (slot, spec)) in arrivals.into_iter().enumerate() {
        plans[i % config.connections].per_slot[slot].push(spec);
    }

    std::thread::scope(|scope| -> Result<(), ClientError> {
        let mut handles = Vec::with_capacity(config.connections);
        for plan in &plans {
            let barrier = &barrier;
            let slot_accepted = slot_accepted.as_slice();
            let slot_rejected = slot_rejected.as_slice();
            let unavailable = &unavailable;
            let addr = addr.as_str();
            let slots = config.slots;
            let binary = config.binary;
            let batch = config.batch.max(1);
            let reconnect = !router_kill_slots.is_empty();
            handles.push(scope.spawn(move || -> Result<Vec<u64>, ClientError> {
                // A failed worker keeps meeting the barriers (without
                // submitting) so the remaining participants never
                // deadlock; the error surfaces at join time. That covers
                // a failed *connect* too — the ready barrier below is
                // met either way.
                let mut failure: Option<ClientError> = None;
                let mut client = match worker_connect(addr, binary) {
                    Ok(client) => Some(client),
                    Err(e) => {
                        failure = Some(e);
                        None
                    }
                };
                let mut latencies = Vec::new();
                // Ready barrier: every worker is connected (or has
                // recorded why not). The submit-phase clock starts here.
                barrier.wait();
                for slot in 0..slots {
                    if let (Some(client), None) = (client.as_mut(), failure.as_ref()) {
                        'chunks: for chunk in plan.per_slot[slot].chunks(batch) {
                            let sent = Instant::now();
                            let acks = match client.submit_batch(chunk) {
                                Ok(acks) => acks,
                                // The router was killed and respawned at
                                // an earlier barrier: this worker's socket
                                // died while it was idle, so nothing of
                                // this chunk reached the old process —
                                // reconnecting and resubmitting the whole
                                // chunk cannot duplicate anything.
                                Err(e) if reconnect && e.disconnected() => {
                                    let retried = worker_connect(addr, binary).and_then(|fresh| {
                                        *client = fresh;
                                        client.submit_batch(chunk)
                                    });
                                    match retried {
                                        Ok(acks) => acks,
                                        Err(e) => {
                                            failure = Some(e);
                                            break 'chunks;
                                        }
                                    }
                                }
                                Err(e) => {
                                    failure = Some(e);
                                    break 'chunks;
                                }
                            };
                            let rtt = sent.elapsed().as_micros() as u64;
                            for ack in acks {
                                match ack {
                                    Ok(_) => {
                                        latencies.push(rtt);
                                        slot_accepted[slot].fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(e) if e.code() == Some("overload") => {
                                        slot_rejected[slot].fetch_add(1, Ordering::Relaxed);
                                    }
                                    // A down shard bounces the submission;
                                    // under fault injection that is expected
                                    // degraded-mode behaviour, not a failure.
                                    Err(e) if e.code() == Some("unavailable") => {
                                        unavailable.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(e) => {
                                        failure = Some(e);
                                        break 'chunks;
                                    }
                                }
                            }
                        }
                    }
                    // All submissions for this slot are in; one TICK (from
                    // the controller, between the two barriers) closes it.
                    barrier.wait();
                    barrier.wait();
                }
                if let Some(e) = failure {
                    return Err(e);
                }
                let farewell = client
                    .expect("a connected worker reaches the epilogue")
                    .bye();
                match farewell {
                    // A worker with nothing to submit after the last
                    // router kill first notices its dead socket here;
                    // there is nothing left to say to the new process.
                    Err(e) if reconnect && e.disconnected() => {}
                    other => other?,
                }
                Ok(latencies)
            }));
        }
        // Controller: close each slot once every worker has drained it.
        // Same rule: keep meeting the barriers even after an error.
        barrier.wait();
        let submit_start = Instant::now();
        let mut tick_failure: Option<ClientError> = None;
        for slot in 0..config.slots {
            barrier.wait();
            if tick_failure.is_none() {
                if let Err(e) = control.tick(1) {
                    tick_failure = Some(e);
                }
            }
            // The scripted split lands between ticks: the slot just
            // closed, the next is already open, and workers are
            // submitting into it the moment the barrier releases.
            if let Some((after_slot, cell)) = config.reshard_split {
                if slot + 1 == after_slot && tick_failure.is_none() {
                    if let Err(e) = control.reshard_split(cell) {
                        tick_failure = Some(e);
                    }
                }
            }
            // A kill-router directive fires here, while every worker
            // is parked at the barrier below: the slot is closed (and
            // fsynced, under the every-tick policy the subprocess
            // runs), nothing is in flight, and the respawn blocks on
            // the greeting — so the control reconnect lands on a
            // fully recovered router before any worker wakes up and
            // notices its dead socket.
            if router_kill_slots.contains(&slot) && tick_failure.is_none() {
                let revived = router_process
                    .as_mut()
                    .expect("kill-router sessions run a routerd subprocess")
                    .kill_and_respawn()
                    .and_then(|()| Client::connect(&addr));
                match revived {
                    Ok(fresh) => control = fresh,
                    Err(e) => tick_failure = Some(e),
                }
            }
            barrier.wait();
        }
        submit_elapsed_s = submit_start.elapsed().as_secs_f64();
        for handle in handles {
            all_latencies.extend(handle.join().expect("loadgen worker panicked")?);
        }
        if let Some(e) = tick_failure {
            return Err(e);
        }
        Ok(())
    })?;

    let (utility, relaxed) = control.utility()?;
    let snapshot = if config.verify_replay || observe {
        Some(control.snapshot()?)
    } else {
        None
    };
    let (mut replay_utility, mut replay_matches) = (None, None);
    if config.verify_replay {
        let snapshot = snapshot.as_deref().unwrap_or_default();
        let replayed = match config.cells {
            None => {
                let engine = OnlineEngine::restore(snapshot)
                    .map_err(|e| ClientError::Protocol(format!("daemon snapshot unusable: {e}")))?;
                let trace = engine.scenario().clone();
                haste_distributed::replay_trace(trace, engine.config().clone())
                    .report
                    .total_utility
            }
            Some(_) => merged_shard_replay(snapshot)?,
        };
        replay_utility = Some(replayed);
        replay_matches = Some(replayed.to_bits() == utility.to_bits());
    }
    let observations = if observe {
        let composite = snapshot.as_deref().unwrap_or_default();
        let shards = control.shards()?;
        Some(ShardObservations {
            per_shard_utility: per_shard_utilities(composite)?,
            restarts: shards.iter().map(|s| s.restarts).sum(),
            replays: shards.iter().map(|s| s.replay).sum(),
            all_serving: shards.iter().all(|s| s.health != ShardHealth::Restarting),
        })
    } else {
        None
    };

    let accepted_per_slot: Vec<usize> = slot_accepted
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let rejected_per_slot: Vec<usize> = slot_rejected
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let accepted: usize = accepted_per_slot.iter().sum();
    let rejected: usize = rejected_per_slot.iter().sum();
    let unavailable = unavailable.into_inner();

    // Exposition self-check: the SUBMIT latency histogram must count
    // exactly the session's own ledger. Scrape over HTTP when the
    // self-hosted router has a listener, else ask in-protocol.
    let mut export_consistent = None;
    if config.check_export {
        let document = match &config.metrics_addr {
            Some(scrape) => http_scrape(scrape)?,
            None => control.export()?,
        };
        let exposition = haste_metrics::Snapshot::parse(&document)
            .map_err(|e| ClientError::Protocol(format!("exposition does not parse: {e}")))?;
        let counted: u64 =
            match exposition.get("haste_service_request_duration_us", &[("opcode", "SUBMIT")]) {
                Some(MetricValue::Histogram { buckets, .. }) => buckets.iter().sum(),
                _ => 0,
            };
        let expected = (accepted + rejected + unavailable) as u64;
        if counted != expected {
            return Err(ClientError::Protocol(format!(
                "exposition SUBMIT histogram counted {counted} submissions, the session \
                 observed {expected} (accepted {accepted} + rejected {rejected} + \
                 unavailable {unavailable})"
            )));
        }
        export_consistent = Some(true);
    }

    control.bye()?;
    let elapsed_s = start.elapsed().as_secs_f64();
    if let Some(handle) = hosted {
        handle.shutdown();
    }
    if let Some(process) = router_process {
        process.shutdown();
    }

    all_latencies.sort_unstable();
    let (peak_overload_rate, trough_overload_rate) = match config.profile {
        ArrivalProfile::Uniform | ArrivalProfile::Hotspot { .. } => (None, None),
        ArrivalProfile::Diurnal { .. } => {
            let (peak, trough) =
                band_overload_rates(&weights, &accepted_per_slot, &rejected_per_slot);
            (Some(peak), Some(trough))
        }
    };
    let report = LoadgenReport {
        submitted: config.submissions,
        accepted,
        rejected,
        unavailable,
        p50_us: nearest_rank(&all_latencies, 50),
        p99_us: nearest_rank(&all_latencies, 99),
        max_us: all_latencies.last().copied().unwrap_or(0),
        elapsed_s,
        throughput: accepted as f64 / elapsed_s.max(1e-9),
        submit_elapsed_s,
        submit_throughput: accepted as f64 / submit_elapsed_s.max(1e-9),
        utility,
        relaxed,
        replay_utility,
        replay_matches,
        // A scripted split leaves one extra shard serving at the end.
        shards: config
            .cells
            .map(|(cx, cy)| cx * cy + usize::from(config.reshard_split.is_some())),
        chaos: None,
        peak_overload_rate,
        trough_overload_rate,
        export_consistent,
    };
    Ok((report, observations))
}

/// Dials one worker connection: plain v1 text, or the protocol v3
/// binary-framing handshake when [`LoadgenConfig::binary`] is set. A v3
/// request that falls back to a text protocol is an error here — the run
/// was asked to measure the binary path, and silently measuring text
/// instead would poison the comparison.
fn worker_connect(addr: &str, binary: bool) -> Result<Client, ClientError> {
    if !binary {
        return Client::connect(addr);
    }
    let (client, _topology) = Client::connect_v3(addr)?;
    if !client.is_binary() {
        return Err(ClientError::Protocol(
            "endpoint does not speak the v3 binary framing (binary run refused to \
             fall back to text)"
                .to_string(),
        ));
    }
    Ok(client)
}

/// Per-slot arrival weights for a profile over `slots` slots: all-ones
/// for uniform, the canonical curve sampled at integer steps for
/// diurnal.
fn slot_weights(profile: ArrivalProfile, slots: usize) -> Vec<u64> {
    match profile {
        // Hotspot skews where arrivals land, not when.
        ArrivalProfile::Uniform | ArrivalProfile::Hotspot { .. } => vec![1; slots],
        ArrivalProfile::Diurnal { period } => (0..slots)
            .map(|slot| diurnal_weight((slot % period) * DIURNAL_STEPS / period))
            .collect(),
    }
}

/// A uniform position inside one cell of the `(cells_x, cells_y)` grid
/// over the square field — the spatial half of the hotspot profile.
fn cell_uniform_pos(cell: usize, grid: (usize, usize), field: f64, rng: &mut StdRng) -> Vec2 {
    let (cells_x, cells_y) = grid;
    let (cw, ch) = (field / cells_x as f64, field / cells_y as f64);
    Vec2::new(
        (cell % cells_x) as f64 * cw + rng.gen_range(0.0..cw),
        (cell / cells_x) as f64 * ch + rng.gen_range(0.0..ch),
    )
}

/// The curve weight at one canonical step: integer piecewise-linear
/// interpolation between the [`DIURNAL_CURVE`] control points. Every
/// control weight is positive, so every slot keeps a positive arrival
/// probability.
fn diurnal_weight(step: usize) -> u64 {
    let step = step % DIURNAL_STEPS;
    for pair in DIURNAL_CURVE.windows(2) {
        let ((x0, w0), (x1, w1)) = (pair[0], pair[1]);
        if step >= x0 && step < x1 {
            let run = (x1 - x0) as i64;
            let rise = w1 as i64 - w0 as i64;
            let offset = (step - x0) as i64;
            return (w0 as i64 + rise * offset / run) as u64;
        }
    }
    DIURNAL_CURVE[DIURNAL_CURVE.len() - 1].1
}

/// Draws arrival slots proportionally to a weight vector: cumulative
/// sums plus one uniform integer draw per sample, so a seed always
/// reproduces the same arrival trace.
struct SlotSampler {
    cumulative: Vec<u64>,
    total: u64,
}

impl SlotSampler {
    fn new(weights: &[u64]) -> SlotSampler {
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0u64;
        for &weight in weights {
            total += weight;
            cumulative.push(total);
        }
        SlotSampler { cumulative, total }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let r = rng.gen_range(0..self.total);
        self.cumulative.partition_point(|&c| c <= r)
    }
}

/// Peak-band and trough-band rejection rates. The bands are the slots
/// whose weight sits at or above the 75th / at or below the 25th
/// percentile of the weight vector (nearest-rank), and each band's rate
/// is its pooled rejected / (accepted + rejected).
fn band_overload_rates(weights: &[u64], accepted: &[usize], rejected: &[usize]) -> (f64, f64) {
    let mut sorted = weights.to_vec();
    sorted.sort_unstable();
    let p75 = nearest_rank(&sorted, 75);
    let p25 = nearest_rank(&sorted, 25);
    (
        band_rate(weights, accepted, rejected, |w| w >= p75),
        band_rate(weights, accepted, rejected, |w| w <= p25),
    )
}

/// The pooled rejection rate over the slots `member` selects.
fn band_rate(
    weights: &[u64],
    accepted: &[usize],
    rejected: &[usize],
    member: impl Fn(u64) -> bool,
) -> f64 {
    let (mut acc, mut rej) = (0usize, 0usize);
    for (slot, &weight) in weights.iter().enumerate() {
        if member(weight) {
            acc += accepted[slot];
            rej += rejected[slot];
        }
    }
    if acc + rej == 0 {
        0.0
    } else {
        rej as f64 / (acc + rej) as f64
    }
}

/// Fetches the exposition over the plain-HTTP scrape listener: one
/// `GET /metrics` with `Connection: close`, body read to EOF.
fn http_scrape(addr: &str) -> Result<String, ClientError> {
    let mut stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        ClientError::Protocol("scrape response has no header/body boundary".to_string())
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(ClientError::Protocol(format!("scrape returned `{status}`")));
    }
    Ok(body.to_string())
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(p/100 · len)`. Unlike floor-indexing
/// (`sorted[(len - 1) * p / 100]`), small samples surface their tail —
/// the p99 of ten samples is the maximum, not the eighth value.
fn nearest_rank(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Each shard's final utility, recomputed by restoring its section of the
/// composite snapshot and evaluating the restored engine — a per-cell
/// fingerprint that is bit-comparable across sessions.
///
/// The engine's own `total_utility` sums the weighted per-task terms in
/// the shard's *local arrival order*, which differs between two
/// independent sessions (workers race for the wire), so at high task
/// counts two equivalent schedules can disagree in the last ulp purely
/// from float addition order. The fingerprint therefore re-sums the
/// terms sorted by the task's full spec (and the term itself as the
/// tie-break for duplicate specs): any two sessions that scheduled the
/// same tasks to the same utilities produce bit-identical sums.
fn per_shard_utilities(composite_text: &str) -> Result<Vec<f64>, ClientError> {
    let composite = parse_composite(composite_text)
        .map_err(|e| ClientError::Protocol(format!("router snapshot unusable: {e}")))?;
    composite
        .shards
        .iter()
        .map(|snapshot| {
            let mut engine = OnlineEngine::restore(snapshot)
                .map_err(|e| ClientError::Protocol(format!("shard snapshot unusable: {e}")))?;
            let report = engine.evaluate();
            let mut terms: Vec<([u64; 7], f64)> = engine
                .scenario()
                .tasks
                .iter()
                .zip(&report.per_task_utility)
                .map(|(task, utility)| {
                    let key = [
                        task.release_slot as u64,
                        task.end_slot as u64,
                        task.device_pos.x.to_bits(),
                        task.device_pos.y.to_bits(),
                        task.device_facing.radians().to_bits(),
                        task.required_energy.to_bits(),
                        task.weight.to_bits(),
                    ];
                    (key, task.weight * utility)
                })
                .collect();
            terms.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            Ok(terms.iter().fold(0.0f64, |acc, (_, term)| acc + term))
        })
        .collect()
}

/// Independently replays every shard of a composite router snapshot from
/// its own submission trace and re-merges the per-task utility terms in
/// the recorded global arrival order — the sharded analogue of the
/// single-engine replay check, bit-comparable to the streamed total.
fn merged_shard_replay(composite_text: &str) -> Result<f64, ClientError> {
    let composite = parse_composite(composite_text)
        .map_err(|e| ClientError::Protocol(format!("router snapshot unusable: {e}")))?;
    let mut parts: Vec<Vec<f64>> = Vec::with_capacity(composite.shards.len());
    for snapshot in &composite.shards {
        let engine = OnlineEngine::restore(snapshot)
            .map_err(|e| ClientError::Protocol(format!("shard snapshot unusable: {e}")))?;
        let trace = engine.scenario().clone();
        let weights: Vec<f64> = trace.tasks.iter().map(|t| t.weight).collect();
        let replayed = haste_distributed::replay_trace(trace, engine.config().clone());
        parts.push(
            weights
                .iter()
                .zip(&replayed.report.per_task_utility)
                .map(|(w, u)| w * u)
                .collect(),
        );
    }
    let mut cursors = vec![0usize; parts.len()];
    let mut total = 0.0f64;
    for &owner in &composite.order {
        let shard = owner as usize;
        let term = cursors
            .get_mut(shard)
            .and_then(|cursor| {
                let term = parts.get(shard)?.get(*cursor).copied();
                *cursor += 1;
                term
            })
            .ok_or_else(|| {
                ClientError::Protocol("router snapshot order exceeds shard tasks".to_string())
            })?;
        total += term;
    }
    Ok(total)
}

/// The generated base scenario: chargers only; tasks arrive over the wire.
///
/// In sharded mode chargers are placed round-robin across cells, inside
/// the cell interior shrunk by the reach halo — the placement invariant
/// `Partition::validate_chargers` enforces at `LOAD`, guaranteed here by
/// construction.
fn base_scenario(config: &LoadgenConfig, rng: &mut StdRng) -> Scenario {
    let params = ChargingParams::simulation_default();
    let chargers = (0..config.chargers)
        .map(|i| {
            let pos = match config.cells {
                None => Vec2::new(
                    rng.gen_range(0.0..config.field),
                    rng.gen_range(0.0..config.field),
                ),
                Some((cells_x, cells_y)) => {
                    let cell = i % (cells_x * cells_y);
                    let (cw, ch) = (config.field / cells_x as f64, config.field / cells_y as f64);
                    // 1 m of slack beyond the halo keeps the strict
                    // `margin > halo + eps` check satisfied.
                    let inset = params.radius + 1.0;
                    assert!(
                        2.0 * inset < cw.min(ch),
                        "cells too small for halo-safe charger placement"
                    );
                    let (mut x0, mut y0, mut x1, mut y1) = (
                        (cell % cells_x) as f64 * cw,
                        (cell / cells_x) as f64 * ch,
                        (cell % cells_x) as f64 * cw + cw,
                        (cell / cells_x) as f64 * ch + ch,
                    );
                    // A scripted mid-run split halves `split_cell` along
                    // its longer axis (ties go to x). Chargers there are
                    // placed alternately inside the two future child
                    // interiors, so the same placement stays halo-safe
                    // before *and* after the migration.
                    if config
                        .reshard_split
                        .is_some_and(|(_, target)| target == cell)
                    {
                        // `round` is this charger's rank within its cell,
                        // so alternating on it fills both children even
                        // when the cell's charger indices share a parity.
                        let round = i / (cells_x * cells_y);
                        if cw >= ch {
                            let mid = x0 + cw / 2.0;
                            if round % 2 == 0 {
                                x1 = mid
                            } else {
                                x0 = mid
                            }
                        } else {
                            let mid = y0 + ch / 2.0;
                            if round % 2 == 0 {
                                y1 = mid
                            } else {
                                y0 = mid
                            }
                        }
                        assert!(
                            2.0 * inset < (x1 - x0).min(y1 - y0),
                            "split children too small for halo-safe charger placement"
                        );
                    }
                    Vec2::new(
                        rng.gen_range(x0 + inset..x1 - inset),
                        rng.gen_range(y0 + inset..y1 - inset),
                    )
                }
            };
            Charger::new(i as u32, pos)
        })
        .collect();
    Scenario::new(
        params,
        TimeGrid::new(60.0, config.slots),
        chargers,
        Vec::new(),
        1.0 / 12.0,
        1,
    )
    .expect("generated base scenario is valid")
}

#[cfg(test)]
mod tests {
    use super::{
        band_overload_rates, diurnal_weight, nearest_rank, slot_weights, ArrivalProfile,
        SlotSampler, DIURNAL_CURVE, DIURNAL_STEPS,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The curve interpolates its control points exactly, stays positive
    /// everywhere, and keeps its double-peak shape: the evening peak
    /// (step 204) and morning peak (step 108) both tower over the
    /// pre-dawn trough (step 48).
    #[test]
    fn diurnal_curve_is_positive_and_double_peaked() {
        for &(step, weight) in &DIURNAL_CURVE {
            if step < DIURNAL_STEPS {
                assert_eq!(diurnal_weight(step), weight, "control point at {step}");
            }
        }
        for step in 0..DIURNAL_STEPS {
            assert!(diurnal_weight(step) > 0, "weight vanished at step {step}");
        }
        let trough = diurnal_weight(48);
        assert!(diurnal_weight(108) > 3 * trough);
        assert!(diurnal_weight(204) > 3 * trough);
        // Wrap-around: step 288 is step 0 again.
        assert_eq!(diurnal_weight(DIURNAL_STEPS), diurnal_weight(0));
    }

    /// Slot weights map any slot count onto the full curve: a 288-slot
    /// period is the curve itself, and a coarser grid still sees both
    /// peaks and the trough.
    #[test]
    fn slot_weights_cover_uniform_and_diurnal() {
        assert_eq!(slot_weights(ArrivalProfile::Uniform, 5), vec![1; 5]);
        let full = slot_weights(ArrivalProfile::Diurnal { period: 288 }, 288);
        let direct: Vec<u64> = (0..288).map(diurnal_weight).collect();
        assert_eq!(full, direct);
        // 64 slots over a 64-slot period: min and max spread like the curve.
        let coarse = slot_weights(ArrivalProfile::Diurnal { period: 64 }, 64);
        let min = *coarse.iter().min().expect("nonempty");
        let max = *coarse.iter().max().expect("nonempty");
        assert!(min >= 12 && max == 100, "got min={min} max={max}");
        // Runs longer than one period wrap deterministically.
        let wrapped = slot_weights(ArrivalProfile::Diurnal { period: 32 }, 64);
        assert_eq!(wrapped[..32], wrapped[32..]);
    }

    /// The weighted sampler is seed-deterministic and visits heavy slots
    /// more often than light ones.
    #[test]
    fn slot_sampler_is_seeded_and_weighted() {
        let weights = [1u64, 1, 98];
        let sampler = SlotSampler::new(&weights);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200).map(|_| sampler.draw(&mut rng)).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same trace");
        let counts = draw(7).iter().fold([0usize; 3], |mut acc, &slot| {
            acc[slot] += 1;
            acc
        });
        assert!(
            counts[2] > counts[0] + counts[1],
            "heavy slot under-drawn: {counts:?}"
        );
    }

    /// Band rates pool the right slots: the heavy band rejects, the
    /// light band does not.
    #[test]
    fn band_rates_split_peak_and_trough() {
        let weights = [100u64, 100, 10, 10];
        let accepted = [50usize, 50, 100, 100];
        let rejected = [50usize, 50, 0, 0];
        let (peak, trough) = band_overload_rates(&weights, &accepted, &rejected);
        assert!((peak - 0.5).abs() < 1e-12, "peak={peak}");
        assert_eq!(trough, 0.0);
    }

    /// Pins the nearest-rank convention on the small samples where the
    /// old floor-indexing (`sorted[(len - 1) * p / 100]`) under-reported
    /// the tail.
    #[test]
    fn nearest_rank_surfaces_the_tail_on_small_samples() {
        let ten: Vec<u64> = (1..=10).collect();
        // Floor-indexing reported 9 here — the p99 of ten samples must
        // be the maximum.
        assert_eq!(nearest_rank(&ten, 99), 10);
        assert_eq!(nearest_rank(&ten, 50), 5);
        assert_eq!(nearest_rank(&ten, 100), 10);

        // A single sample is every percentile.
        assert_eq!(nearest_rank(&[42], 50), 42);
        assert_eq!(nearest_rank(&[42], 99), 42);

        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 99), 99);
        assert_eq!(nearest_rank(&hundred, 50), 50);
        assert_eq!(nearest_rank(&hundred, 1), 1);

        assert_eq!(nearest_rank(&[], 99), 0);
    }
}
