//! The daemon: TCP accept loop, connection handlers, request dispatch.
//!
//! Plain `std::net` blocking sockets — no async runtime. The accept loop
//! runs on one thread in non-blocking mode (polling a shutdown flag);
//! each accepted connection is handled on a worker of a
//! [`haste_parallel::ThreadPool`]. Handlers use short read timeouts so an
//! idle connection notices shutdown promptly. All connections share one
//! [`Shard`] (engine + admission + metrics): requests are serialized by
//! its mutex, which matches the engine's semantics (submissions within a
//! slot are ordered by admission, and that order *is* the determinism
//! contract).
//!
//! This file owns the wire formatting for the single-engine daemon; the
//! engine state itself lives in [`crate::shard`], shared with the
//! multi-shard router in [`crate::router`].

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use haste_distributed::{AdmitError, OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_parallel::ThreadPool;

use crate::framing::{self, BatchAck};
use crate::proto::{ErrCode, Reply, Request, VERSION, VERSION_V2, VERSION_V3};
use crate::shard::{Shard, ShardError, ShardHealth};
use crate::telemetry::{self, Telemetry};

/// How long a handler blocks on a read before re-checking the shutdown
/// flag. Short enough for prompt shutdown, long enough to stay off the CPU.
pub(crate) const READ_POLL: Duration = Duration::from_millis(25);

/// Write deadline for connection handlers: a client that stops reading
/// while the daemon writes a large reply (an `EXPORT?` document) must
/// fail the connection, not wedge its handler thread forever.
pub(crate) const WRITE_STALL: Duration = Duration::from_secs(30);

/// Configuration of a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 to let the OS pick (the bound address is
    /// available on the returned handle).
    pub addr: String,
    /// Connection-handler threads. This is the connection cap: with `c`
    /// workers, connection `c + 1` waits until one closes. Keep it at or
    /// above the expected client count (barrier-coordinated load
    /// generators deadlock below it).
    pub worker_threads: usize,
    /// Admission bound: submissions per open slot before `ERR overload`.
    pub max_pending: usize,
    /// Scheduling configuration for engines created by `LOAD`.
    pub scheduling: OnlineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_threads: 64,
            max_pending: 4096,
            scheduling: OnlineConfig::default(),
        }
    }
}

/// State shared by every connection of one daemon.
struct Shared {
    shard: Shard,
    shutdown: AtomicBool,
    telemetry: Telemetry,
}

/// A running daemon. Dropping the handle shuts the daemon down and joins
/// its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the accept loop and all handlers. Open
    /// connections are closed after their in-flight request completes.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Starts a daemon and returns its handle. The accept loop and handlers
/// run on background threads; the call itself returns immediately after
/// binding.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        shard: Shard::new(config.scheduling.clone(), config.max_pending),
        shutdown: AtomicBool::new(false),
        telemetry: Telemetry::new(),
    });
    let accept_shared = Arc::clone(&shared);
    let workers = config.worker_threads.max(1);
    let accept_thread = std::thread::Builder::new()
        .name("haste-service-accept".to_string())
        .spawn(move || {
            // The pool lives (and on exit drains + joins) inside the
            // accept thread, so joining the accept thread joins everything.
            let pool = ThreadPool::new(workers);
            while !accept_shared.shutdown.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let conn_shared = Arc::clone(&accept_shared);
                        pool.execute(move || {
                            let _ = handle_connection(stream, &conn_shared);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        })?;
    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
    })
}

/// Reads one `\n`-terminated line, polling the shutdown flag across read
/// timeouts. Partial bytes accumulate in `buf` between polls, so a slow
/// sender never loses data. Returns `None` on EOF or shutdown. Generic
/// over the reader so request handling is unit-testable off a socket.
pub(crate) fn read_line_polling<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> std::io::Result<Option<String>> {
    buf.clear();
    loop {
        match reader.read_until(b'\n', buf) {
            Ok(0) => return Ok(None),
            // A read without a trailing newline means EOF mid-line; the
            // fragment is treated as a final line.
            Ok(_) => {
                let line = String::from_utf8_lossy(buf).trim_end().to_string();
                return Ok(Some(line));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads `count` payload lines (a length-prefixed document).
pub(crate) fn read_payload<R: BufRead>(
    reader: &mut R,
    count: usize,
    shutdown: &AtomicBool,
) -> std::io::Result<Option<String>> {
    let mut payload = String::new();
    let mut buf = Vec::new();
    for _ in 0..count {
        match read_line_polling(reader, &mut buf, shutdown)? {
            Some(line) => {
                payload.push_str(&line);
                payload.push('\n');
            }
            None => return Ok(None),
        }
    }
    Ok(Some(payload))
}

/// Serves one connection until EOF, `BYE`, or shutdown.
fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(WRITE_STALL))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    loop {
        let Some(line) = read_line_polling(&mut reader, &mut buf, &shared.shutdown)? else {
            return Ok(());
        };
        if line.is_empty() {
            continue;
        }
        let (reply, close) = dispatch(&line, &mut reader, shared)?;
        let upgrade = framing::upgrades_to_v3(&line, &reply);
        writer.write_all(reply.serialize().as_bytes())?;
        writer.flush()?;
        if close {
            return Ok(());
        }
        if upgrade {
            // The accepted `HELLO v3` greeting is the last text exchange;
            // everything after it is length-prefixed binary frames.
            return serve_framed(&mut reader, &mut writer, shared);
        }
    }
}

/// Serves a connection that negotiated protocol v3: the framed loop over
/// the same dispatch path. Text requests arrive with their payload
/// embedded in the frame, so the payload reader is a cursor over those
/// bytes — `read_payload` and every handler behave exactly as over TCP
/// lines, including the truncated-payload close.
fn serve_framed<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    shared: &Shared,
) -> std::io::Result<()> {
    framing::serve_frames(
        reader,
        writer,
        &shared.shutdown,
        |head, payload| {
            let mut embedded = std::io::Cursor::new(payload);
            dispatch(head, &mut embedded, shared)
        },
        |specs| batch_backstop(specs, || execute_batch(specs, shared)),
    )
}

/// The batch-mode panic backstop: like [`catching`], but vectored — a
/// panic mid-batch yields an `ERR internal` ack for every record (which
/// records applied is unknowable past a panic; the engine state is
/// unspecified either way, and the acks tell the client to recover).
pub(crate) fn batch_backstop<F>(specs: &[TaskSpec], f: F) -> Vec<BatchAck>
where
    F: FnOnce() -> Vec<BatchAck>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(acks) => acks,
        Err(_) => specs
            .iter()
            .map(|_| BatchAck::rejected(ErrCode::Internal, "request handler panicked"))
            .collect(),
    }
}

/// Executes a batched submission: per-record admission, one vectored ack.
/// Records are admitted in frame order under the shard's own serialization
/// — the same order contract as the equivalent sequence of text `SUBMIT`s.
fn execute_batch(specs: &[TaskSpec], shared: &Shared) -> Vec<BatchAck> {
    let start = telemetry::clock_start();
    let acks: Vec<BatchAck> = specs
        .iter()
        .map(|spec| {
            if !(spec.device_pos.x.is_finite()
                && spec.device_pos.y.is_finite()
                && spec.device_facing.radians().is_finite())
            {
                BatchAck::rejected(ErrCode::BadTask, "non-finite position/facing")
            } else {
                match shared.shard.submit(*spec) {
                    Ok((id, release)) => BatchAck::Ok {
                        task: u64::from(id.0),
                        release: release as u64,
                    },
                    Err(e) => {
                        let (code, message) = shard_err_parts(e);
                        BatchAck::Err {
                            code: code.as_str().to_string(),
                            message,
                        }
                    }
                }
            }
        })
        .collect();
    let rejected = acks
        .iter()
        .filter(|ack| matches!(ack, BatchAck::Err { .. }))
        .count();
    shared
        .telemetry
        .observe_batch(specs.len(), rejected, telemetry::elapsed_us(start));
    acks
}

/// Parses and executes one request; returns the reply and whether the
/// connection should close.
///
/// Execution runs under [`catching`]: a panic anywhere in a handler (or in
/// the engine underneath it) becomes a structured `ERR internal` reply
/// instead of killing the connection loop. That is a backstop, not a
/// license — lint rule P1 keeps panicking constructs out of this file.
fn dispatch<R: BufRead>(
    line: &str,
    reader: &mut R,
    shared: &Shared,
) -> std::io::Result<(Reply, bool)> {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(reason) => {
            shared.telemetry.count_error(ErrCode::BadRequest);
            return Ok((Reply::Err(ErrCode::BadRequest, reason), false));
        }
    };
    let opcode = request.opcode();
    let start = telemetry::clock_start();
    let result = catching(AssertUnwindSafe(|| execute(request, reader, shared)));
    if let Ok((reply, _)) = &result {
        shared
            .telemetry
            .observe_request(opcode, telemetry::elapsed_us(start), reply);
    }
    result
}

/// Runs one request handler, converting a panic into an `ERR internal`
/// reply carrying the panic message. The engine mutex (parking_lot, no
/// poisoning) unlocks during unwind, so the daemon keeps serving; a panic
/// mid-mutation can leave the engine in an unspecified (still
/// memory-safe) state, which the reply tells the client to `RESTORE` away.
pub(crate) fn catching<F>(f: F) -> std::io::Result<(Reply, bool)>
where
    F: FnOnce() -> std::io::Result<(Reply, bool)> + std::panic::UnwindSafe,
{
    match catch_unwind(f) {
        Ok(result) => result,
        Err(payload) => {
            let context = if let Some(s) = payload.downcast_ref::<&str>() {
                s
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.as_str()
            } else {
                "non-string panic payload"
            };
            Ok((
                Reply::Err(
                    ErrCode::Internal,
                    format!("request handler panicked: {context}"),
                ),
                false,
            ))
        }
    }
}

/// Maps a structured shard failure onto the wire error space.
pub(crate) fn shard_err(e: ShardError) -> Reply {
    let (code, message) = shard_err_parts(e);
    Reply::Err(code, message)
}

/// The code/message pair of [`shard_err`], for emitters that frame the
/// error themselves (the batch-submit ack path).
pub(crate) fn shard_err_parts(e: ShardError) -> (ErrCode, String) {
    let code = match &e {
        ShardError::NoScenario => ErrCode::NoScenario,
        ShardError::AlreadyLoaded => ErrCode::AlreadyLoaded,
        ShardError::AtHorizon => ErrCode::AtHorizon,
        ShardError::BadScenario(_) => ErrCode::BadRequest,
        ShardError::BadSnapshot(_) => ErrCode::BadSnapshot,
        ShardError::Admit(AdmitError::Backpressure { .. }) => ErrCode::Overload,
        ShardError::Admit(AdmitError::Closed) => ErrCode::AtHorizon,
        ShardError::Admit(AdmitError::BadTask(_)) => ErrCode::BadTask,
    };
    (code, e.to_string())
}

/// Formats the HELLO reply shared by the daemon and the router: version
/// negotiation plus (for v2) the shard topology advertisement.
pub(crate) fn hello_reply(version: &str, shards: usize, cells: (usize, usize)) -> Reply {
    if version == VERSION {
        Reply::Ok(format!("haste-service {VERSION}"))
    } else if version == VERSION_V2 || version == VERSION_V3 {
        // v3 advertises the same topology; the caller switches the
        // connection to binary frames after writing this (text) greeting.
        Reply::Ok(format!(
            "haste-service {version} shards={shards} cells={}x{}",
            cells.0, cells.1
        ))
    } else {
        Reply::Err(
            ErrCode::Version,
            format!(
                "unsupported version `{version}` (this daemon speaks {VERSION}, {VERSION_V2} and {VERSION_V3})"
            ),
        )
    }
}

/// Formats one `SHARDS?` payload line. Shared with the router so both
/// emitters stay field-compatible. `health`/`restarts`/`replay` come from
/// the out-of-process supervisor; in-process shards report `up 0 0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shard_line(
    index: usize,
    cell: (usize, usize),
    status: &crate::shard::ShardStatus,
    health: ShardHealth,
    restarts: u64,
    replay: u64,
    tenant: &str,
    map_version: u64,
) -> String {
    format!(
        "shard={index} cell={},{} slot={} open={} tasks={} staged={} admitted={} rejected={} pending={} health={} restarts={restarts} replay={replay} tenant={tenant} map={map_version}\n",
        cell.0,
        cell.1,
        status.clock,
        u8::from(status.open),
        status.tasks,
        status.staged,
        status.admitted,
        status.rejected,
        status.pending,
        health.as_str()
    )
}

/// Formats a `PARTS?` payload: one `full relaxed` pair per task, in
/// task-id (= arrival) order, shortest-roundtrip floats. Shared by the
/// daemon and the router (which re-merges shard streams by arrival order).
pub(crate) fn parts_payload(parts: &crate::shard::UtilityParts) -> String {
    let mut payload = String::new();
    for (full, relaxed) in parts.full.iter().zip(&parts.relaxed) {
        payload.push_str(&format!("{full} {relaxed}\n"));
    }
    payload
}

/// Executes one parsed request; returns the reply and whether the
/// connection should close.
fn execute<R: BufRead>(
    request: Request,
    reader: &mut R,
    shared: &Shared,
) -> std::io::Result<(Reply, bool)> {
    let reply = match request {
        Request::Hello(version) => hello_reply(&version, 1, (1, 1)),
        Request::Load(count) => {
            let Some(payload) = read_payload(reader, count, &shared.shutdown)? else {
                return Ok((
                    Reply::Err(ErrCode::BadRequest, "truncated LOAD payload".to_string()),
                    true,
                ));
            };
            match shared.shard.load_text(&payload) {
                Ok(info) => Reply::Ok(format!(
                    "chargers={} staged={} slots={}",
                    info.chargers, info.staged, info.slots
                )),
                Err(e) => shard_err(e),
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
            if !(x.is_finite() && y.is_finite() && facing.is_finite()) {
                Reply::Err(ErrCode::BadTask, "non-finite position/facing".to_string())
            } else {
                let spec = TaskSpec {
                    device_pos: Vec2::new(x, y),
                    device_facing: Angle::from_radians(facing),
                    end_slot,
                    required_energy: energy,
                    weight,
                };
                match shared.shard.submit(spec) {
                    Ok((id, release)) => Reply::Ok(format!("task={} release={release}", id.0)),
                    Err(e) => shard_err(e),
                }
            }
        }
        Request::Tick(n) => match shared.shard.tick(n) {
            Ok((slot, open)) => Reply::Ok(format!("slot={slot} open={}", u8::from(open))),
            Err(e) => shard_err(e),
        },
        Request::Clock => match shared.shard.clock() {
            Ok((slot, open)) => Reply::Ok(format!("slot={slot} open={}", u8::from(open))),
            Err(e) => shard_err(e),
        },
        Request::Schedule => match shared.shard.schedule_text() {
            Ok(text) => Reply::Data(text),
            Err(e) => shard_err(e),
        },
        Request::Utility => match shared.shard.utility() {
            Ok((utility, relaxed)) => Reply::Ok(format!("utility={utility} relaxed={relaxed}")),
            Err(e) => shard_err(e),
        },
        Request::Parts => match shared.shard.utility_parts() {
            Ok(parts) => Reply::Data(parts_payload(&parts)),
            Err(e) => shard_err(e),
        },
        Request::Export => {
            // The typed registry plus the engine families of the current
            // status (absent before `LOAD` — a fresh daemon still exposes
            // its request metrics).
            let snap = shared.telemetry.export(shared.shard.status().ok().as_ref());
            Reply::Data(snap.render())
        }
        Request::Shards => match shared.shard.status() {
            Err(e) => shard_err(e),
            // The single-engine daemon is its own one-shard topology:
            // fixed default tenant, routing map version 0 (never swapped).
            Ok(status) => Reply::Data(shard_line(
                0,
                (0, 0),
                &status,
                ShardHealth::Up,
                0,
                0,
                "default",
                0,
            )),
        },
        Request::Snapshot => match shared.shard.snapshot() {
            Ok(text) => Reply::Data(text),
            Err(e) => shard_err(e),
        },
        Request::Restore(count) => {
            let Some(payload) = read_payload(reader, count, &shared.shutdown)? else {
                return Ok((
                    Reply::Err(ErrCode::BadRequest, "truncated RESTORE payload".to_string()),
                    true,
                ));
            };
            match shared.shard.restore_text(&payload) {
                Ok(info) => Reply::Ok(format!("slot={} open={}", info.clock, u8::from(info.open))),
                Err(e) => shard_err(e),
            }
        }
        // The single-engine daemon serves exactly one tenant. Selecting it
        // is a no-op (so v1 clients written against a router still work);
        // any other id names state this process does not hold.
        Request::Tenant { id, .. } => {
            if id == "default" {
                Reply::Ok("tenant=default".to_string())
            } else {
                Reply::Err(
                    ErrCode::UnknownTenant,
                    format!("tenant `{id}` does not exist on a single-engine daemon"),
                )
            }
        }
        Request::ReshardSplit(_) | Request::ReshardMerge(..) => Reply::Err(
            ErrCode::BadRequest,
            "RESHARD requires a router (single-engine daemon has no cells)".to_string(),
        ),
        Request::Bye => return Ok((Reply::Ok("bye".to_string()), true)),
    };
    Ok((reply, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_shared() -> Shared {
        Shared {
            shard: Shard::new(OnlineConfig::default(), 4),
            shutdown: AtomicBool::new(false),
            telemetry: Telemetry::new(),
        }
    }

    #[test]
    fn a_panicking_handler_becomes_err_internal() {
        let result = catching(AssertUnwindSafe(|| -> std::io::Result<(Reply, bool)> {
            panic!("boom {}", 42)
        }));
        let (reply, close) = result.expect("catching never returns Err for a panic");
        assert!(!close, "a caught panic must keep the connection open");
        match reply {
            Reply::Err(code, message) => {
                assert_eq!(code, ErrCode::Internal);
                assert!(message.contains("boom 42"), "lost panic context: {message}");
            }
            other => panic!("expected ERR internal, got {other:?}"),
        }
    }

    #[test]
    fn static_panic_payloads_keep_their_message() {
        let result = catching(AssertUnwindSafe(|| -> std::io::Result<(Reply, bool)> {
            panic!("static payload")
        }));
        let (reply, _) = result.expect("catching never returns Err for a panic");
        match reply {
            Reply::Err(ErrCode::Internal, message) => {
                assert!(message.contains("static payload"), "{message}");
            }
            other => panic!("expected ERR internal, got {other:?}"),
        }
    }

    #[test]
    fn dispatch_replies_structurally_off_a_socketless_reader() {
        let shared = fresh_shared();
        let mut reader = std::io::Cursor::new(Vec::<u8>::new());
        let (reply, close) = dispatch("NOPE 1 2", &mut reader, &shared).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::BadRequest, _)));
        assert!(!close);
        // The retired `METRICS?` is an unknown directive like any other.
        let (reply, close) = dispatch("METRICS?", &mut reader, &shared).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::BadRequest, _)));
        assert!(!close);
        let (reply, close) = dispatch("SNAPSHOT", &mut reader, &shared).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::NoScenario, _)));
        assert!(!close);
        // A truncated LOAD payload is the one bad-request that also closes
        // the connection: the stream is desynchronized beyond recovery.
        let (reply, close) = dispatch("LOAD 3", &mut reader, &shared).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::BadRequest, _)));
        assert!(close);
    }

    #[test]
    fn hello_negotiates_every_version() {
        match hello_reply("v1", 1, (1, 1)) {
            Reply::Ok(message) => assert_eq!(message, "haste-service v1"),
            other => panic!("expected OK, got {other:?}"),
        }
        match hello_reply("v2", 4, (2, 2)) {
            Reply::Ok(message) => assert_eq!(message, "haste-service v2 shards=4 cells=2x2"),
            other => panic!("expected OK, got {other:?}"),
        }
        match hello_reply("v3", 4, (2, 2)) {
            Reply::Ok(message) => assert_eq!(message, "haste-service v3 shards=4 cells=2x2"),
            other => panic!("expected OK, got {other:?}"),
        }
        assert!(matches!(
            hello_reply("v4", 1, (1, 1)),
            Reply::Err(ErrCode::Version, _)
        ));
    }

    #[test]
    fn export_renders_parseable_exposition_with_request_counts() {
        let shared = fresh_shared();
        let mut reader = std::io::Cursor::new(Vec::<u8>::new());
        let (reply, _) = dispatch("CLOCK?", &mut reader, &shared).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::NoScenario, _)));
        let (reply, _) = dispatch("EXPORT?", &mut reader, &shared).unwrap();
        let payload = match reply {
            Reply::Data(payload) => payload,
            other => panic!("expected DATA, got {other:?}"),
        };
        let snap = haste_metrics::Snapshot::parse(&payload)
            .unwrap_or_else(|e| panic!("exposition must parse: {e}"));
        match snap.get("haste_service_requests_total", &[("opcode", "CLOCK?")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("expected CLOCK? counter, got {other:?}"),
        }
        match snap.get("haste_service_errors_total", &[("err_code", "no-scenario")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("expected no-scenario counter, got {other:?}"),
        }
    }

    #[test]
    fn shards_query_reports_the_single_engine_as_shard_zero() {
        let shared = fresh_shared();
        let mut reader = std::io::Cursor::new(Vec::<u8>::new());
        let (reply, _) = dispatch("SHARDS?", &mut reader, &shared).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::NoScenario, _)));
        let scenario = "params 10000 40 20 1 1\ngrid 60 6\ndelays 0.083333 1\n\
                        charger 0 0 0\ntask 0 8 0 3.14159 0 6 500 1";
        shared.shard.load_text(scenario).unwrap();
        let (reply, _) = dispatch("SHARDS?", &mut reader, &shared).unwrap();
        match reply {
            Reply::Data(payload) => {
                assert!(
                    payload.starts_with("shard=0 cell=0,0 slot=0 open=1"),
                    "{payload}"
                );
                assert!(
                    payload
                        .trim_end()
                        .ends_with("health=up restarts=0 replay=0 tenant=default map=0"),
                    "{payload}"
                );
            }
            other => panic!("expected DATA, got {other:?}"),
        }
    }
}
