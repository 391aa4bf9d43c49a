//! A blocking typed client for the daemon's wire protocol.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use haste_distributed::TaskSpec;
use haste_model::{io as model_io, Scenario, Schedule, TaskId};

use crate::framing;
use crate::proto::{VERSION, VERSION_V2, VERSION_V3};

/// Backoff schedule for transient connect/greeting failures: the
/// daemon-startup and daemon-restart race windows. Three attempts total,
/// deterministic delays (no jitter — reproducibility beats
/// thundering-herd concerns at this scale).
const CONNECT_RETRY_DELAYS: [Duration; 2] = [Duration::from_millis(10), Duration::from_millis(50)];

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The daemon replied `ERR <code> <message>`.
    Server {
        /// Stable error code (see [`crate::proto::ErrCode`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// A request-level deadline set with
    /// [`Client::set_timeout`] expired before the reply arrived.
    Timeout,
    /// The daemon's reply did not match the protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Timeout => write!(f, "request deadline expired"),
            ClientError::Protocol(reason) => write!(f, "protocol violation: {reason}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // A socket timeout surfaces as `TimedOut` on most platforms but
        // `WouldBlock` on some (the BSD read(2) heritage); both mean the
        // request deadline fired.
        if matches!(
            e.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ) {
            ClientError::Timeout
        } else {
            ClientError::Io(e)
        }
    }
}

impl ClientError {
    /// The stable error code: the server's for an `ERR` reply, the
    /// protocol's `timeout` token for an expired request deadline (see
    /// [`crate::proto::ErrCode`]).
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            ClientError::Timeout => Some("timeout"),
            _ => None,
        }
    }

    /// Whether retrying the whole connect + `HELLO` exchange can succeed:
    /// the listener is not up yet (`ECONNREFUSED`) or a restarting daemon
    /// dropped the connection between accept and greeting
    /// (`ECONNRESET`/`EPIPE`/abort/EOF mid-reply).
    fn transient_for_connect(&self) -> bool {
        matches!(self, ClientError::Io(e) if e.kind() == std::io::ErrorKind::ConnectionRefused)
            || self.disconnected()
    }

    /// Whether the error means the established connection is gone —
    /// `ECONNRESET`/`ECONNABORTED`/`EPIPE`, or EOF mid-reply. These (and
    /// only these) justify a transparent reconnect: the request may
    /// never have reached the peer, or the peer restarted. A refused
    /// connect, a timeout, a server `ERR`, or a protocol violation is
    /// not a disconnect — retrying those would mask a real failure.
    pub fn disconnected(&self) -> bool {
        match self {
            ClientError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::UnexpectedEof
            ),
            _ => false,
        }
    }
}

/// A successful reply: the `OK` fields or a `DATA` payload.
#[derive(Debug)]
enum Payload {
    Fields(String),
    Document(String),
}

/// Shard topology advertised by a v2 `HELLO` greeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of shards behind the endpoint (1 for a plain daemon).
    pub shards: usize,
    /// The partition grid as `(cells_x, cells_y)` (`(1, 1)` for a plain
    /// daemon).
    pub cells: (usize, usize),
}

/// One line of a `SHARDS?` reply: a shard's cell, virtual clock,
/// admission counters, supervision state, and owning tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// Shard index (row-major cell index).
    pub index: usize,
    /// The shard's cell as `(cx, cy)`.
    pub cell: (usize, usize),
    /// The shard's current open slot.
    pub slot: usize,
    /// Whether the shard's grid still has open slots.
    pub open: bool,
    /// Tasks materialized into the shard's scenario.
    pub tasks: usize,
    /// Tasks staged for future release.
    pub staged: usize,
    /// Submissions admitted since load.
    pub admitted: u64,
    /// Submissions rejected since load.
    pub rejected: u64,
    /// Submissions waiting in the open slot.
    pub pending: usize,
    /// Supervision state (in-process shards are always `up`).
    pub health: crate::shard::ShardHealth,
    /// Child-process restarts performed by the supervisor.
    pub restarts: u64,
    /// Journaled operations replayed into restarted children.
    pub replay: u64,
    /// The tenant this shard belongs to (`default` on a plain daemon).
    pub tenant: String,
    /// The tenant's routing-map version the shard serves under.
    pub map_version: u64,
}

/// How requests cross the wire after the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireMode {
    /// Protocols v1/v2: newline-terminated text both ways.
    Text,
    /// Protocol v3: length-prefixed binary frames carrying the same text
    /// requests/replies, plus batched submissions.
    Framed,
}

/// A connected protocol client. One request is in flight at a time
/// (the protocol is strictly request/reply).
///
/// The idempotent read-only queries — [`shards`](Client::shards) and
/// [`export`](Client::export) — survive a dropped connection
/// transparently: on `ECONNRESET`/`EPIPE`/EOF the client reconnects to
/// the remembered peer, re-negotiates the exact `HELLO` version this
/// session had (re-selecting its tenant, if one was chosen), and
/// retries the query once. Mutating requests never reconnect — a
/// `SUBMIT` or `TICK` whose connection died may or may not have been
/// applied, and silently retrying it could double-apply.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    mode: WireMode,
    /// The peer this session dialed, for transparent reconnects.
    peer: Option<std::net::SocketAddr>,
    /// The armed request deadline, re-applied across reconnects.
    deadline: Option<Duration>,
    /// The `HELLO` version token the session actually negotiated.
    hello: &'static str,
    /// The tenant selected with [`tenant`](Client::tenant), re-selected
    /// (by id only — never the quota, which is a mutation) on reconnect.
    tenant: Option<String>,
}

impl Client {
    /// Connects and performs the v1 `HELLO` handshake.
    ///
    /// The whole connect + greeting exchange is retried up to two more
    /// times with deterministic backoff (10 ms, then 50 ms) when the
    /// failure is transient: `ECONNREFUSED` (listener not bound yet) or
    /// `ECONNRESET`/`EPIPE`/EOF during `HELLO` (a daemon restarting
    /// between accept and greeting). Any other error fails immediately.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Self::connect_with_deadline(addr, None)
    }

    /// [`connect`](Client::connect) with the socket deadline applied
    /// *before* the greeting: a peer that accepts and then never sends
    /// its `HELLO` reply (a wedged daemon, an exhausted handler pool)
    /// fails with [`ClientError::Timeout`] instead of hanging the
    /// handshake forever. The deadline stays armed on the session, as if
    /// [`set_timeout`](Client::set_timeout) had been called.
    pub fn connect_with_deadline<A: ToSocketAddrs>(
        addr: A,
        deadline: Option<Duration>,
    ) -> Result<Client, ClientError> {
        Self::connect_with_retry(&addr, deadline, |client| {
            client.request_fields(&format!("HELLO {VERSION}"))?;
            Ok(())
        })
        .map(|(client, ())| client)
    }

    /// Connects with the v2 `HELLO` handshake; returns the client and the
    /// shard topology the endpoint advertised. Works against both a
    /// sharded router and a plain daemon (which reports one shard on a
    /// 1×1 grid). Uses the same bounded connect + greeting retry as
    /// [`connect`](Client::connect).
    pub fn connect_v2<A: ToSocketAddrs>(addr: A) -> Result<(Client, Topology), ClientError> {
        Self::connect_with_retry(&addr, None, |client| {
            let fields = client.request_fields(&format!("HELLO {VERSION_V2}"))?;
            client.hello = VERSION_V2;
            parse_topology(&fields)
        })
    }

    /// Connects with the v3 `HELLO` handshake — binary framing with
    /// batched submissions — falling back *on the same connection* to v2
    /// and then v1 when the daemon answers `ERR version`. The handshake
    /// itself is plain text either way, so an old daemon's rejection can
    /// never misframe the stream; against a v1-only daemon the topology
    /// is the synthesized single-shard 1×1 grid. Check
    /// [`is_binary`](Client::is_binary) for the negotiated mode. Uses the
    /// same bounded connect + greeting retry as [`connect`](Client::connect).
    pub fn connect_v3<A: ToSocketAddrs>(addr: A) -> Result<(Client, Topology), ClientError> {
        Self::connect_with_retry(&addr, None, |client| {
            match client.request_fields(&format!("HELLO {VERSION_V3}")) {
                Ok(fields) => {
                    let topology = parse_topology(&fields)?;
                    // The daemon switches to frames right after its OK.
                    client.mode = WireMode::Framed;
                    client.hello = VERSION_V3;
                    Ok(topology)
                }
                Err(ClientError::Server { code, .. }) if code == "version" => {
                    match client.request_fields(&format!("HELLO {VERSION_V2}")) {
                        Ok(fields) => {
                            client.hello = VERSION_V2;
                            parse_topology(&fields)
                        }
                        Err(ClientError::Server { code, .. }) if code == "version" => {
                            client.request_fields(&format!("HELLO {VERSION}"))?;
                            Ok(Topology {
                                shards: 1,
                                cells: (1, 1),
                            })
                        }
                        Err(e) => Err(e),
                    }
                }
                Err(e) => Err(e),
            }
        })
    }

    /// Whether the session negotiated protocol v3 binary framing.
    pub fn is_binary(&self) -> bool {
        self.mode == WireMode::Framed
    }

    /// Runs connect-then-greet attempts until one succeeds, a
    /// non-transient error occurs, or the backoff schedule is exhausted.
    /// Retrying the full exchange (not just the connect) covers a daemon
    /// that accepts and then dies before greeting: the reset/EOF surfaces
    /// while reading the `HELLO` reply, and the next attempt reaches its
    /// restarted successor.
    fn connect_with_retry<A: ToSocketAddrs, T>(
        addr: &A,
        deadline: Option<Duration>,
        hello: impl Fn(&mut Client) -> Result<T, ClientError>,
    ) -> Result<(Client, T), ClientError> {
        let mut delays = CONNECT_RETRY_DELAYS.iter();
        loop {
            let attempt = Self::connect_transport(addr, deadline).and_then(|mut client| {
                let greeting = hello(&mut client)?;
                Ok((client, greeting))
            });
            match attempt {
                Ok(connected) => return Ok(connected),
                Err(e) if e.transient_for_connect() => match delays.next() {
                    Some(delay) => std::thread::sleep(*delay),
                    None => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
    }

    /// Opens the TCP stream; no handshake, no retry (the caller's retry
    /// loop wraps connect and greeting together). The deadline is armed
    /// here — before any greeting byte moves — so even the handshake
    /// reads and writes are bounded.
    fn connect_transport<A: ToSocketAddrs>(
        addr: &A,
        deadline: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(deadline).map_err(ClientError::Io)?;
        stream
            .set_write_timeout(deadline)
            .map_err(ClientError::Io)?;
        let peer = stream.peer_addr().ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            mode: WireMode::Text,
            peer,
            deadline,
            hello: VERSION,
            tenant: None,
        })
    }

    /// Sets (or clears) the per-request deadline: applied to every
    /// subsequent socket read and write via
    /// [`TcpStream::set_read_timeout`]/[`TcpStream::set_write_timeout`].
    /// When a reply does not arrive within the deadline the request fails
    /// with [`ClientError::Timeout`] (`code() == Some("timeout")`) instead
    /// of blocking forever on a stalled daemon. After a timeout the stream
    /// may hold a partial reply, so the session should be abandoned.
    pub fn set_timeout(&mut self, deadline: Option<Duration>) -> Result<(), ClientError> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(deadline).map_err(ClientError::Io)?;
        stream
            .set_write_timeout(deadline)
            .map_err(ClientError::Io)?;
        self.deadline = deadline;
        Ok(())
    }

    /// Sends one request line (plus an optional multi-line payload) and
    /// reads the reply — as text lines, or inside `OP_TEXT`/`OP_REPLY`
    /// frames on a v3 session. Either way the request and reply bytes are
    /// identical; only the envelope differs.
    fn request(&mut self, line: &str, payload: Option<&str>) -> Result<Payload, ClientError> {
        if self.mode == WireMode::Framed {
            return self.request_framed(line, payload);
        }
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        if let Some(payload) = payload {
            self.writer.write_all(payload.as_bytes())?;
            if !payload.is_empty() && !payload.ends_with('\n') {
                self.writer.write_all(b"\n")?;
            }
        }
        self.writer.flush()?;
        let head = self.read_line()?;
        let (kind, rest) = head.split_once(' ').unwrap_or((head.as_str(), ""));
        match kind {
            "OK" => Ok(Payload::Fields(rest.to_string())),
            "DATA" => {
                let count: usize = rest
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::Protocol(format!("bad DATA count `{rest}`")))?;
                let mut document = String::new();
                for _ in 0..count {
                    document.push_str(&self.read_line()?);
                    document.push('\n');
                }
                Ok(Payload::Document(document))
            }
            "ERR" => {
                let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
                Err(ClientError::Server {
                    code: code.to_string(),
                    message: message.to_string(),
                })
            }
            other => Err(ClientError::Protocol(format!("unknown reply `{other}`"))),
        }
    }

    /// The v3 envelope: the request line and any payload travel inside
    /// one `OP_TEXT` frame; the reply (including a `DATA` document) comes
    /// back whole inside one `OP_REPLY` frame.
    fn request_framed(
        &mut self,
        line: &str,
        payload: Option<&str>,
    ) -> Result<Payload, ClientError> {
        let mut body = Vec::with_capacity(line.len() + 2 + payload.map_or(0, str::len));
        body.extend_from_slice(line.as_bytes());
        body.push(b'\n');
        if let Some(payload) = payload {
            body.extend_from_slice(payload.as_bytes());
            if !payload.is_empty() && !payload.ends_with('\n') {
                body.push(b'\n');
            }
        }
        framing::write_frame(&mut self.writer, framing::OP_TEXT, &body)?;
        let frame = self.read_frame()?;
        if frame.opcode != framing::OP_REPLY {
            return Err(ClientError::Protocol(format!(
                "expected a reply frame, got opcode {}",
                frame.opcode
            )));
        }
        parse_framed_reply(&frame.body)
    }

    /// Reads one frame, mapping a violated length prefix onto the
    /// protocol error space (timeouts and EOF keep their io semantics).
    fn read_frame(&mut self) -> Result<framing::Frame, ClientError> {
        framing::read_frame(&mut self.reader).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                ClientError::Protocol(e.to_string())
            } else {
                ClientError::from(e)
            }
        })
    }

    fn request_fields(&mut self, line: &str) -> Result<String, ClientError> {
        match self.request(line, None)? {
            Payload::Fields(fields) => Ok(fields),
            Payload::Document(_) => Err(ClientError::Protocol("expected OK, got DATA".to_string())),
        }
    }

    fn request_document(&mut self, line: &str) -> Result<String, ClientError> {
        match self.request(line, None)? {
            Payload::Document(document) => Ok(document),
            Payload::Fields(_) => Err(ClientError::Protocol("expected DATA, got OK".to_string())),
        }
    }

    /// [`request_document`](Client::request_document) for **idempotent
    /// read-only** queries only: on a disconnect the session is
    /// re-established ([`reconnect`](Client::reconnect)) and the query is
    /// retried exactly once. Safe because the query mutates nothing on
    /// the peer — asking twice answers the same question.
    fn request_document_reconnecting(&mut self, line: &str) -> Result<String, ClientError> {
        match self.request_document(line) {
            Err(e) if e.disconnected() => {
                self.reconnect()?;
                self.request_document(line)
            }
            other => other,
        }
    }

    /// Re-establishes a dropped session: dials the remembered peer (with
    /// the same bounded retry as the original connect, covering a daemon
    /// mid-restart), re-negotiates the **exact** `HELLO` version this
    /// session had — a downgrade mid-session would silently change
    /// semantics, so an endpoint that no longer speaks it is an error —
    /// and re-selects the session tenant by id. The tenant quota, if one
    /// was ever sent, is a mutation and is never re-sent.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let peer = self.peer.ok_or_else(|| {
            ClientError::Protocol("no remembered peer address to reconnect to".to_string())
        })?;
        let hello = self.hello;
        let (mut fresh, ()) = Self::connect_with_retry(&peer, self.deadline, |client| {
            client.request_fields(&format!("HELLO {hello}"))?;
            if hello == VERSION_V3 {
                client.mode = WireMode::Framed;
            }
            client.hello = hello;
            Ok(())
        })?;
        if let Some(tenant) = &self.tenant {
            fresh.request_fields(&format!("TENANT {tenant}"))?;
            fresh.tenant = Some(tenant.clone());
        }
        *self = fresh;
        Ok(())
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            // EOF mid-reply is a transport failure, not a protocol one:
            // connect-time retry and the router's crash detection both
            // classify on the io kind.
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            )));
        }
        Ok(line.trim_end().to_string())
    }

    /// Loads a scenario into a fresh daemon, starting its engine.
    pub fn load(&mut self, scenario: &Scenario) -> Result<(), ClientError> {
        let text = model_io::write_scenario(scenario);
        let count = text.lines().count();
        match self.request(&format!("LOAD {count}"), Some(&text))? {
            Payload::Fields(_) => Ok(()),
            Payload::Document(_) => Err(ClientError::Protocol("expected OK, got DATA".to_string())),
        }
    }

    /// Submits a task into the current open slot; returns its assigned id
    /// and release slot.
    pub fn submit(&mut self, spec: &TaskSpec) -> Result<(TaskId, usize), ClientError> {
        let line = format!(
            "SUBMIT {} {} {} {} {} {}",
            spec.device_pos.x,
            spec.device_pos.y,
            spec.device_facing.radians(),
            spec.end_slot,
            spec.required_energy,
            spec.weight
        );
        let fields = self.request_fields(&line)?;
        let task = parse_field(&fields, "task")?;
        let release = parse_field(&fields, "release")?;
        // A checked narrowing: a daemon that hands out ids past the u32
        // task-id space is broken, and truncating would silently alias
        // some earlier task.
        let task = u32::try_from(task).map_err(|_| {
            ClientError::Protocol(format!("task id {task} overflows the u32 task-id space"))
        })?;
        Ok((TaskId(task), release))
    }

    /// Submits many tasks in one exchange; returns one outcome per spec,
    /// in order. On a v3 session the whole batch crosses the wire as a
    /// single `OP_BATCH` frame answered by one vectored ack; on a text
    /// session it degrades to sequential [`submit`](Client::submit)s.
    /// Per-record rejections (overload, a down cell, …) come back as
    /// inner `Err`s; the outer `Err` is reserved for transport/protocol
    /// failures that abort the whole exchange.
    #[allow(clippy::type_complexity)]
    pub fn submit_batch(
        &mut self,
        specs: &[TaskSpec],
    ) -> Result<Vec<Result<(TaskId, usize), ClientError>>, ClientError> {
        if self.mode == WireMode::Text {
            let mut outcomes = Vec::with_capacity(specs.len());
            for spec in specs {
                match self.submit(spec) {
                    Ok(ok) => outcomes.push(Ok(ok)),
                    Err(e @ ClientError::Server { .. }) => outcomes.push(Err(e)),
                    Err(e) => return Err(e),
                }
            }
            return Ok(outcomes);
        }
        framing::write_frame(
            &mut self.writer,
            framing::OP_BATCH,
            &framing::encode_batch(specs),
        )?;
        let frame = self.read_frame()?;
        if frame.opcode == framing::OP_REPLY {
            // A whole-batch failure: the daemon answered with a text
            // reply (e.g. `ERR bad-request` for a malformed frame).
            return Err(match parse_framed_reply(&frame.body) {
                Err(e) => e,
                Ok(_) => {
                    ClientError::Protocol("expected a batch ack, got a success reply".to_string())
                }
            });
        }
        if frame.opcode != framing::OP_BATCH_ACK {
            return Err(ClientError::Protocol(format!(
                "expected a batch ack frame, got opcode {}",
                frame.opcode
            )));
        }
        let acks = framing::decode_batch_ack(&frame.body).map_err(ClientError::Protocol)?;
        if acks.len() != specs.len() {
            return Err(ClientError::Protocol(format!(
                "batch of {} submissions acknowledged {} records",
                specs.len(),
                acks.len()
            )));
        }
        acks.into_iter()
            .map(|ack| match ack {
                framing::BatchAck::Ok { task, release } => {
                    let task = u32::try_from(task).map_err(|_| {
                        ClientError::Protocol(format!(
                            "task id {task} overflows the u32 task-id space"
                        ))
                    })?;
                    let release = usize::try_from(release).map_err(|_| {
                        ClientError::Protocol(format!("release slot {release} overflows usize"))
                    })?;
                    Ok(Ok((TaskId(task), release)))
                }
                framing::BatchAck::Err { code, message } => {
                    Ok(Err(ClientError::Server { code, message }))
                }
            })
            .collect()
    }

    /// Closes `n` slots; returns `(clock, still_open)`.
    pub fn tick(&mut self, n: usize) -> Result<(usize, bool), ClientError> {
        let fields = self.request_fields(&format!("TICK {n}"))?;
        Ok((
            parse_field(&fields, "slot")?,
            parse_field(&fields, "open")? == 1,
        ))
    }

    /// The current open slot and whether the grid still has slots.
    pub fn clock(&mut self) -> Result<(usize, bool), ClientError> {
        let fields = self.request_fields("CLOCK?")?;
        Ok((
            parse_field(&fields, "slot")?,
            parse_field(&fields, "open")? == 1,
        ))
    }

    /// The schedule as planned/executed so far.
    pub fn schedule(&mut self) -> Result<Schedule, ClientError> {
        let document = self.request_document("SCHEDULE?")?;
        model_io::read_schedule(&document)
            .map_err(|e| ClientError::Protocol(format!("bad schedule document: {e}")))
    }

    /// `(full P1 utility, relaxed HASTE-R value)` of the current schedule.
    pub fn utility(&mut self) -> Result<(f64, f64), ClientError> {
        let fields = self.request_fields("UTILITY?")?;
        Ok((
            parse_f64_field(&fields, "utility")?,
            parse_f64_field(&fields, "relaxed")?,
        ))
    }

    /// Per-task weighted utility terms `(full, relaxed)` in task-id
    /// (= arrival) order — the exact addends of [`utility`](Client::utility)'s
    /// totals. v2; the router's supervisor uses this to merge shard
    /// streams bit-identically.
    pub fn parts(&mut self) -> Result<crate::shard::UtilityParts, ClientError> {
        let document = self.request_document("PARTS?")?;
        let mut full = Vec::new();
        let mut relaxed = Vec::new();
        for line in document.lines() {
            let pair = line
                .split_once(' ')
                .and_then(|(f, r)| Some((f.parse::<f64>().ok()?, r.parse::<f64>().ok()?)))
                .ok_or_else(|| ClientError::Protocol(format!("bad parts line `{line}`")))?;
            full.push(pair.0);
            relaxed.push(pair.1);
        }
        Ok(crate::shard::UtilityParts { full, relaxed })
    }

    /// The typed metric registry as Prometheus-style exposition text
    /// (`EXPORT?`). Parse with [`haste_metrics::Snapshot::parse`].
    /// Idempotent: survives a dropped connection by transparent
    /// reconnect.
    pub fn export(&mut self) -> Result<String, ClientError> {
        self.request_document_reconnecting("EXPORT?")
    }

    /// Per-shard slot/cell/admission counters (v2). A plain daemon
    /// answers with itself as shard 0 on cell `(0, 0)`. Idempotent:
    /// survives a dropped connection by transparent reconnect.
    pub fn shards(&mut self) -> Result<Vec<ShardInfo>, ClientError> {
        let document = self.request_document_reconnecting("SHARDS?")?;
        document.lines().map(parse_shard_line).collect()
    }

    /// The daemon's full engine state as snapshot text.
    pub fn snapshot(&mut self) -> Result<String, ClientError> {
        self.request_document("SNAPSHOT")
    }

    /// Replaces the daemon's engine state from snapshot text; returns the
    /// restored clock.
    pub fn restore(&mut self, snapshot: &str) -> Result<usize, ClientError> {
        let count = snapshot.lines().count();
        match self.request(&format!("RESTORE {count}"), Some(snapshot))? {
            Payload::Fields(fields) => parse_field(&fields, "slot"),
            Payload::Document(_) => Err(ClientError::Protocol("expected OK, got DATA".to_string())),
        }
    }

    /// Selects the session's tenant (v3 routers). With `quota`, also sets
    /// the tenant's per-slot admission quota — applied immediately if the
    /// tenant exists, otherwise at its `LOAD`.
    pub fn tenant(&mut self, id: &str, quota: Option<u64>) -> Result<(), ClientError> {
        let request = match quota {
            Some(q) => format!("TENANT {id} {q}"),
            None => format!("TENANT {id}"),
        };
        self.request_fields(&request)?;
        self.tenant = Some(id.to_string());
        Ok(())
    }

    /// Live-splits one cell of the session tenant's partition; returns the
    /// new `(cell_count, routing_map_version)`.
    pub fn reshard_split(&mut self, cell: usize) -> Result<(usize, u64), ClientError> {
        let fields = self.request_fields(&format!("RESHARD SPLIT {cell}"))?;
        Ok((
            parse_field(&fields, "cells")?,
            parse_field(&fields, "map")? as u64,
        ))
    }

    /// Live-merges two sibling cells back together; returns the new
    /// `(cell_count, routing_map_version)`.
    pub fn reshard_merge(&mut self, a: usize, b: usize) -> Result<(usize, u64), ClientError> {
        let fields = self.request_fields(&format!("RESHARD MERGE {a} {b}"))?;
        Ok((
            parse_field(&fields, "cells")?,
            parse_field(&fields, "map")? as u64,
        ))
    }

    /// Closes the session politely.
    pub fn bye(mut self) -> Result<(), ClientError> {
        self.request_fields("BYE")?;
        Ok(())
    }
}

/// Parses the shard topology fields of a v2/v3 `HELLO` greeting.
fn parse_topology(fields: &str) -> Result<Topology, ClientError> {
    let shards = parse_field(fields, "shards")?;
    let cells_text = find_value(fields, "cells")?;
    let cells = cells_text
        .split_once('x')
        .and_then(|(cx, cy)| Some((cx.parse().ok()?, cy.parse().ok()?)))
        .ok_or_else(|| {
            ClientError::Protocol(format!("bad cells field `{cells_text}` in `{fields}`"))
        })?;
    Ok(Topology { shards, cells })
}

/// Parses an `OP_REPLY` frame body: the exact text reply the v1/v2
/// protocol would have sent, with any `DATA` document riding in the same
/// frame after the head line.
fn parse_framed_reply(body: &[u8]) -> Result<Payload, ClientError> {
    let text = String::from_utf8_lossy(body);
    let (head, rest) = text.split_once('\n').unwrap_or((text.as_ref(), ""));
    let (kind, args) = head.split_once(' ').unwrap_or((head, ""));
    match kind {
        "OK" => Ok(Payload::Fields(args.trim_end().to_string())),
        "DATA" => {
            let count: usize = args
                .trim()
                .parse()
                .map_err(|_| ClientError::Protocol(format!("bad DATA count `{args}`")))?;
            let mut document = String::new();
            let mut lines = rest.lines();
            for _ in 0..count {
                match lines.next() {
                    Some(line) => {
                        document.push_str(line);
                        document.push('\n');
                    }
                    None => {
                        return Err(ClientError::Protocol(
                            "DATA frame shorter than its line count".to_string(),
                        ))
                    }
                }
            }
            Ok(Payload::Document(document))
        }
        "ERR" => {
            let (code, message) = args.split_once(' ').unwrap_or((args, ""));
            Err(ClientError::Server {
                code: code.to_string(),
                message: message.trim_end().to_string(),
            })
        }
        other => Err(ClientError::Protocol(format!("unknown reply `{other}`"))),
    }
}

/// Extracts `key=<usize>` from an `OK` field list.
fn parse_field(fields: &str, key: &str) -> Result<usize, ClientError> {
    find_value(fields, key)?
        .parse()
        .map_err(|_| ClientError::Protocol(format!("`{key}` is not an integer in `{fields}`")))
}

/// Extracts `key=<f64>` from an `OK` field list.
fn parse_f64_field(fields: &str, key: &str) -> Result<f64, ClientError> {
    find_value(fields, key)?
        .parse()
        .map_err(|_| ClientError::Protocol(format!("`{key}` is not a number in `{fields}`")))
}

fn find_value<'a>(fields: &'a str, key: &str) -> Result<&'a str, ClientError> {
    fields
        .split_whitespace()
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('='))
        .ok_or_else(|| ClientError::Protocol(format!("missing `{key}=` in `{fields}`")))
}

/// Parses one `SHARDS?` payload line.
fn parse_shard_line(line: &str) -> Result<ShardInfo, ClientError> {
    let cell_text = find_value(line, "cell")?;
    let cell = cell_text
        .split_once(',')
        .and_then(|(cx, cy)| Some((cx.parse().ok()?, cy.parse().ok()?)))
        .ok_or_else(|| {
            ClientError::Protocol(format!("bad cell field `{cell_text}` in `{line}`"))
        })?;
    let health_text = find_value(line, "health")?;
    let health = crate::shard::ShardHealth::parse(health_text).ok_or_else(|| {
        ClientError::Protocol(format!("bad health field `{health_text}` in `{line}`"))
    })?;
    let tenant = find_value(line, "tenant")?.to_string();
    Ok(ShardInfo {
        tenant,
        map_version: parse_field(line, "map")? as u64,
        index: parse_field(line, "shard")?,
        cell,
        slot: parse_field(line, "slot")?,
        open: parse_field(line, "open")? == 1,
        tasks: parse_field(line, "tasks")?,
        staged: parse_field(line, "staged")?,
        admitted: parse_field(line, "admitted")? as u64,
        rejected: parse_field(line, "rejected")? as u64,
        pending: parse_field(line, "pending")?,
        health,
        restarts: parse_field(line, "restarts")? as u64,
        replay: parse_field(line, "replay")? as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, ServerConfig};
    use std::net::TcpListener;

    /// Grab a free port by binding, note the address, and release it so a
    /// daemon can bind it shortly after.
    fn reserve_addr() -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        listener
            .local_addr()
            .expect("bound listener has an address")
    }

    #[test]
    fn connect_retries_through_a_startup_race() {
        let addr = reserve_addr();
        // Nothing is listening yet; the daemon comes up 30 ms from now —
        // after the client's first (immediate) and second (+10 ms)
        // attempts, before its third (+60 ms).
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            serve(ServerConfig {
                addr: addr.to_string(),
                worker_threads: 2,
                ..ServerConfig::default()
            })
            .expect("bind the reserved address")
        });
        let client = Client::connect(addr).expect("connect must survive the startup race");
        client.bye().expect("polite shutdown");
        server.join().expect("server thread").shutdown();
    }

    #[test]
    fn connect_gives_up_after_three_refused_attempts() {
        let addr = reserve_addr();
        match Client::connect(addr) {
            Err(ClientError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused);
            }
            Err(other) => panic!("expected ConnectionRefused after retries, got {other}"),
            Ok(_) => panic!("nothing listens on a reserved-then-released port"),
        }
    }

    #[test]
    fn shard_line_roundtrips_through_the_parser() {
        let status = crate::shard::ShardStatus {
            clock: 3,
            open: true,
            tasks: 7,
            staged: 2,
            admitted: 9,
            rejected: 1,
            pending: 4,
            ..crate::shard::ShardStatus::default()
        };
        let line = crate::server::shard_line(
            5,
            (1, 2),
            &status,
            crate::shard::ShardHealth::Degraded,
            2,
            6,
            "acme",
            4,
        );
        let info = parse_shard_line(line.trim_end()).expect("well-formed line");
        assert_eq!(
            info,
            ShardInfo {
                index: 5,
                cell: (1, 2),
                slot: 3,
                open: true,
                tasks: 7,
                staged: 2,
                admitted: 9,
                rejected: 1,
                pending: 4,
                health: crate::shard::ShardHealth::Degraded,
                restarts: 2,
                replay: 6,
                tenant: "acme".to_string(),
                map_version: 4,
            }
        );
    }

    #[test]
    fn connect_retries_through_a_dropped_greeting() {
        // Attempt 1 is accepted and then dropped without a greeting (the
        // daemon-restart race: reset/EOF surfaces mid-HELLO); the real
        // daemon binds the same port before attempt 2 (+10 ms).
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let dropper = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("first connection attempt");
            drop(stream); // slam the door mid-handshake
            drop(listener); // free the port for the real daemon
            serve(ServerConfig {
                addr: addr.to_string(),
                worker_threads: 2,
                ..ServerConfig::default()
            })
            .expect("rebind the released address")
        });
        let client = Client::connect(addr).expect("connect must survive a dropped greeting");
        client.bye().expect("polite shutdown");
        dropper.join().expect("server thread").shutdown();
    }

    #[test]
    fn task_ids_past_u32_are_rejected_structurally() {
        // A (broken or future) daemon handing out ids past the u32 task-id
        // space: the old cast truncated 2^32 to task 0, silently aliasing
        // the first task. The client must refuse instead.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let fake = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("client connects");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).expect("HELLO");
            std::io::Write::write_all(&mut stream, b"OK haste-service v1\n").expect("greet");
            line.clear();
            std::io::BufRead::read_line(&mut reader, &mut line).expect("SUBMIT");
            std::io::Write::write_all(&mut stream, b"OK task=4294967296 release=0\n")
                .expect("oversized id reply");
        });
        let mut client = Client::connect(addr).expect("handshake");
        let spec = TaskSpec {
            device_pos: haste_geometry::Vec2::new(1.0, 2.0),
            device_facing: haste_geometry::Angle::from_radians(0.0),
            end_slot: 5,
            required_energy: 100.0,
            weight: 1.0,
        };
        let err = client.submit(&spec).expect_err("id overflows u32");
        match err {
            ClientError::Protocol(reason) => {
                assert!(reason.contains("4294967296"), "{reason}");
            }
            other => panic!("expected a protocol error, got {other}"),
        }
        fake.join().expect("fake daemon thread");
    }

    /// A scripted text-protocol daemon: answers each `HELLO` from the
    /// given script, then serves `BYE`. Stands in for older daemons in
    /// the negotiation tests.
    fn scripted_hello_daemon(
        listener: TcpListener,
        script: Vec<(&'static str, &'static str)>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("client connects");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            for (expect, reply) in script {
                let mut line = String::new();
                std::io::BufRead::read_line(&mut reader, &mut line).expect("request line");
                assert_eq!(line.trim_end(), expect, "negotiation went off-script");
                std::io::Write::write_all(&mut stream, reply.as_bytes()).expect("reply");
            }
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).expect("BYE");
            assert_eq!(line.trim_end(), "BYE");
            std::io::Write::write_all(&mut stream, b"OK bye\n").expect("bye reply");
        })
    }

    #[test]
    fn v3_falls_back_to_v2_on_the_same_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let daemon = scripted_hello_daemon(
            listener,
            vec![
                ("HELLO v3", "ERR version unsupported version `v3`\n"),
                ("HELLO v2", "OK haste-service v2 shards=4 cells=2x2\n"),
            ],
        );
        let (client, topology) = Client::connect_v3(addr).expect("fall back to v2");
        assert!(!client.is_binary(), "a v2 fallback must stay in text mode");
        assert_eq!(
            topology,
            Topology {
                shards: 4,
                cells: (2, 2)
            }
        );
        client.bye().expect("polite shutdown");
        daemon.join().expect("fake daemon thread");
    }

    #[test]
    fn v3_falls_back_to_v1_against_a_v1_only_daemon() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let daemon = scripted_hello_daemon(
            listener,
            vec![
                ("HELLO v3", "ERR version unsupported version `v3`\n"),
                ("HELLO v2", "ERR version unsupported version `v2`\n"),
                ("HELLO v1", "OK haste-service v1\n"),
            ],
        );
        let (client, topology) = Client::connect_v3(addr).expect("fall back to v1");
        assert!(!client.is_binary());
        assert_eq!(
            topology,
            Topology {
                shards: 1,
                cells: (1, 1)
            }
        );
        client.bye().expect("polite shutdown");
        daemon.join().expect("fake daemon thread");
    }

    #[test]
    fn a_non_version_hello_failure_is_not_swallowed_by_fallback() {
        // Only `ERR version` triggers the downgrade; any other structured
        // failure surfaces as-is so real errors are never masked.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let fake = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("client connects");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).expect("HELLO");
            std::io::Write::write_all(&mut stream, b"ERR internal handler panicked\n")
                .expect("reply");
        });
        match Client::connect_v3(addr) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "internal"),
            Err(other) => panic!("expected the internal error through, got {other}"),
            Ok(_) => panic!("the handshake cannot succeed"),
        }
        fake.join().expect("fake daemon thread");
    }

    #[test]
    fn v3_negotiates_binary_framing_against_a_live_daemon() {
        let server = serve(ServerConfig {
            worker_threads: 2,
            ..ServerConfig::default()
        })
        .expect("start daemon");
        let (mut client, topology) = Client::connect_v3(server.addr()).expect("v3 handshake");
        assert!(client.is_binary(), "a live daemon speaks v3");
        assert_eq!(
            topology,
            Topology {
                shards: 1,
                cells: (1, 1)
            }
        );
        // A framed request round-trips and fails structurally (no
        // scenario loaded) instead of hanging or misframing.
        let err = client.clock().expect_err("no scenario loaded");
        assert_eq!(err.code(), Some("no-scenario"));
        client.bye().expect("polite framed shutdown");
        server.shutdown();
    }

    /// A scripted text daemon session on an already-accepted stream:
    /// answers each expected request with its reply, then returns the
    /// stream (dropped by the caller to slam the door, or kept to go
    /// on).
    fn run_script(
        stream: &mut TcpStream,
        reader: &mut std::io::BufReader<TcpStream>,
        script: &[(&str, &str)],
    ) {
        for (expect, reply) in script {
            let mut line = String::new();
            std::io::BufRead::read_line(reader, &mut line).expect("request line");
            assert_eq!(line.trim_end(), *expect, "session went off-script");
            std::io::Write::write_all(stream, reply.as_bytes()).expect("reply");
        }
    }

    #[test]
    fn read_only_queries_reconnect_through_a_dropped_session() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let daemon = std::thread::spawn(move || {
            // Session 1: greet, then slam the door on the first EXPORT?
            // without a reply — the client sees EOF mid-reply.
            let (mut stream, _) = listener.accept().expect("first session");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            run_script(
                &mut stream,
                &mut reader,
                &[("HELLO v1", "OK haste-service v1\n")],
            );
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).expect("EXPORT?");
            assert_eq!(line.trim_end(), "EXPORT?");
            // Both handles must go: `reader` holds a clone of the socket,
            // and only closing the last handle delivers the EOF.
            drop(reader);
            drop(stream);
            // Session 2, same listener: the transparent reconnect must
            // re-run the same HELLO and then retry the query.
            let (mut stream, _) = listener.accept().expect("reconnect session");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            run_script(
                &mut stream,
                &mut reader,
                &[
                    ("HELLO v1", "OK haste-service v1\n"),
                    (
                        "EXPORT?",
                        "DATA 2\n# TYPE haste_x_total counter\nhaste_x_total 3\n",
                    ),
                    ("BYE", "OK bye\n"),
                ],
            );
        });
        let mut client = Client::connect(addr).expect("handshake");
        let document = client.export().expect("the query survives the drop");
        assert_eq!(
            document, "# TYPE haste_x_total counter\nhaste_x_total 3\n",
            "the retried reply must come through intact"
        );
        client.bye().expect("polite shutdown on the new session");
        daemon.join().expect("scripted daemon thread");
    }

    #[test]
    fn reconnect_reselects_the_tenant_without_its_quota() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let daemon = std::thread::spawn(move || {
            // Session 1: the tenant is selected WITH a quota; the door
            // slams on EXPORT?.
            let (mut stream, _) = listener.accept().expect("first session");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            run_script(
                &mut stream,
                &mut reader,
                &[
                    ("HELLO v1", "OK haste-service v1\n"),
                    ("TENANT acme 7", "OK tenant=acme\n"),
                ],
            );
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).expect("EXPORT?");
            assert_eq!(line.trim_end(), "EXPORT?");
            // Close both handles (the reader clones the socket), so the
            // client actually sees the EOF.
            drop(reader);
            drop(stream);
            // Session 2: the reconnect re-selects by id only — re-sending
            // the quota would be a mutation smuggled inside a read.
            let (mut stream, _) = listener.accept().expect("reconnect session");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            run_script(
                &mut stream,
                &mut reader,
                &[
                    ("HELLO v1", "OK haste-service v1\n"),
                    ("TENANT acme", "OK tenant=acme\n"),
                    ("EXPORT?", "DATA 1\n# TYPE haste_x counter\n"),
                ],
            );
        });
        let mut client = Client::connect(addr).expect("handshake");
        client.tenant("acme", Some(7)).expect("select the tenant");
        let document = client.export().expect("the query survives the drop");
        assert_eq!(document, "# TYPE haste_x counter\n");
        daemon.join().expect("scripted daemon thread");
    }

    #[test]
    fn mutating_requests_never_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let daemon = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("only session");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            run_script(
                &mut stream,
                &mut reader,
                &[("HELLO v1", "OK haste-service v1\n")],
            );
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).expect("TICK");
            assert_eq!(line.trim_end(), "TICK 1");
            // Drop both socket handles AND the listener: if TICK tried
            // to reconnect it would now get ECONNREFUSED instead of the
            // disconnect below, failing the match.
            drop(reader);
            drop(stream);
            drop(listener);
        });
        let mut client = Client::connect(addr).expect("handshake");
        let err = client.tick(1).expect_err("the connection died mid-TICK");
        daemon.join().expect("scripted daemon thread");
        assert!(
            err.disconnected(),
            "a mutating request must surface the raw disconnect, got {err}"
        );
    }

    #[test]
    fn a_stalled_daemon_times_out_instead_of_hanging() {
        // A listener that accepts and never replies: without a deadline
        // the request would block forever.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let stall = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("client connects");
            // Greet properly, then go silent while holding the socket open.
            let mut stream = stream;
            std::io::Write::write_all(&mut stream, b"OK haste-service v1\n")
                .expect("greeting write");
            std::thread::sleep(Duration::from_millis(500));
            drop(stream);
        });
        let mut client = Client::connect(addr).expect("the stalling daemon greets fine");
        client
            .set_timeout(Some(Duration::from_millis(50)))
            .expect("set the request deadline");
        let err = client.clock().expect_err("no reply ever comes");
        assert!(matches!(err, ClientError::Timeout), "got {err}");
        assert_eq!(err.code(), Some("timeout"));
        stall.join().expect("stall thread");
    }

    #[test]
    fn a_daemon_that_accepts_but_never_greets_times_out() {
        // The nastier stall: the listener accepts the connection and then
        // says nothing at all. The deadline is armed before the greeting
        // read, so connect fails with `Timeout` instead of hanging — and
        // `Timeout` is not a transient connect error, so no retry loop.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let mute = std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                std::thread::sleep(Duration::from_millis(500));
                drop(stream);
            }
        });
        let err = match Client::connect_with_deadline(addr, Some(Duration::from_millis(50))) {
            Ok(_) => panic!("the greeting never arrives, connect cannot succeed"),
            Err(e) => e,
        };
        assert!(matches!(err, ClientError::Timeout), "got {err}");
        assert_eq!(err.code(), Some("timeout"));
        mute.join().expect("mute thread");
    }
}
