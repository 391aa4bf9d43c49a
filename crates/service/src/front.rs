//! The front door: the one TCP transport under both daemons.
//!
//! The single-engine daemon ([`crate::serve`]) and the router
//! ([`crate::serve_router`]) differ only in what a request *means*; how a
//! request arrives and how its reply leaves is this module, shared by
//! both: the accept loop (which also runs the router's HTTP scrape
//! listener), the text connection loop and its switch to v3 frames, the
//! dispatch wrapper (parse, per-opcode timing, the panic backstop), the
//! counted `LOAD`/`RESTORE` payload reader, the `OP_BATCH` envelope, and
//! the handle that stops it all. A daemon plugs its semantics in as a
//! [`Service`].
//!
//! Plain `std::net` blocking sockets — no async runtime. Each accept loop
//! runs on one thread, blocked in `accept`; accepted connections are
//! handled on a [`haste_parallel::ThreadPool`]. Shutdown sets a flag and
//! wakes each loop with a connection to its own listener. Handlers use
//! short read timeouts so an idle connection notices shutdown promptly.
//! Only shutdown ends an accept loop: a failed `accept` is retried after
//! a pause, never fatal.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use haste_distributed::TaskSpec;
use haste_parallel::ThreadPool;

use crate::framing::{self, BatchAck, FrameRead, MAX_FRAME};
use crate::proto::{ErrCode, Reply, Request};
use crate::telemetry::{self, Telemetry};

/// How long a handler blocks on a read before re-checking the shutdown
/// flag. Short enough for prompt shutdown, long enough to stay off the CPU.
const READ_POLL: Duration = Duration::from_millis(25);

/// Write deadline for connection handlers: a client that stops reading
/// while the daemon writes a large reply (an `EXPORT?` document) must
/// fail the connection, not wedge its handler thread forever.
const WRITE_STALL: Duration = Duration::from_secs(30);

/// How long an accept loop pauses after a failed `accept` before it
/// retries, so a persistent failure (`EMFILE`) cannot spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// Deadline of the connection that wakes an accept loop at shutdown.
const WAKE_DEADLINE: Duration = Duration::from_secs(1);

/// A daemon's request semantics: what the front door hands every parsed
/// request and every `OP_BATCH` frame to.
pub(crate) trait Service: Send + Sync + 'static {
    /// Per-connection state (the router's tenant binding).
    type Session: Default;

    /// The endpoint's request series.
    fn telemetry(&self) -> &Telemetry;

    /// Executes one parsed request. `payload` is the counted document of
    /// a `LOAD`/`RESTORE`, already read off the connection, and empty for
    /// every other verb; the front door closes the connection after
    /// `BYE`.
    fn execute(&self, request: Request, payload: &str, session: &mut Self::Session) -> Reply;

    /// Executes the records of one `OP_BATCH` frame in frame order: the
    /// same admission as that sequence of text `SUBMIT`s, one ack each.
    fn execute_batch(&self, specs: &[TaskSpec], session: &mut Self::Session) -> Vec<BatchAck>;
}

/// A running daemon or router. Dropping the handle shuts it down and
/// joins its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// One accept thread per listener, each owning its handler pool, with
    /// the address to dial to wake it at shutdown.
    loops: Vec<(JoinHandle<()>, SocketAddr)>,
}

/// The handle [`crate::serve_router`] returns: the same type as
/// [`ServerHandle`].
pub type RouterHandle = ServerHandle;

impl ServerHandle {
    /// Serves `service`'s protocol on `listener` (bound by the caller)
    /// with `workers` connection-handler threads.
    pub(crate) fn start<S: Service>(
        service: S,
        listener: TcpListener,
        workers: usize,
    ) -> std::io::Result<ServerHandle> {
        let mut handle = ServerHandle {
            addr: listener.local_addr()?,
            shutdown: Arc::new(AtomicBool::new(false)),
            loops: Vec::new(),
        };
        let shutdown = Arc::clone(&handle.shutdown);
        handle.listen(listener, workers, (READ_POLL, WRITE_STALL), move |stream| {
            // A transport error ends its own connection and nothing else.
            let _ = serve_connection(stream, &service, &shutdown);
        })?;
        Ok(handle)
    }

    /// Adds an accept loop to this handle: every stream `listener`
    /// accepts gets the `(read, write)` deadlines and runs `serve` on one
    /// of `workers` threads.
    pub(crate) fn listen<F>(
        &mut self,
        listener: TcpListener,
        workers: usize,
        deadlines: (Duration, Duration),
        serve: F,
    ) -> std::io::Result<()>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            let loopback: IpAddr = match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            wake.set_ip(loopback);
        }
        let shutdown = Arc::clone(&self.shutdown);
        let thread = std::thread::Builder::new()
            .name("haste-accept".to_string())
            .spawn(move || {
                accept_loop(|| listener.accept(), workers, deadlines, &shutdown, serve);
            })?;
        self.loops.push((thread, wake));
        Ok(())
    }

    /// The bound protocol address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the accept loops exit. Only a shutdown ends them, so
    /// for the foreground daemon binaries this serves until the process
    /// ends.
    pub fn join(mut self) {
        for (thread, _) in self.loops.drain(..) {
            let _ = thread.join();
        }
    }

    /// Signals shutdown and joins the accept loops and all handlers. Open
    /// connections are closed after their in-flight request completes.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for (thread, wake) in self.loops.drain(..) {
            // The loop sees the flag once its blocked `accept` returns.
            let _ = TcpStream::connect_timeout(&wake, WAKE_DEADLINE);
            let _ = thread.join();
        }
    }
}

/// Accepts connections until shutdown. `accept` is the listener's
/// blocking accept (a test substitutes its own to inject failures).
fn accept_loop<A, F>(
    mut accept: A,
    workers: usize,
    (read, write): (Duration, Duration),
    shutdown: &AtomicBool,
    serve: F,
) where
    A: FnMut() -> std::io::Result<(TcpStream, SocketAddr)>,
    F: Fn(TcpStream) + Send + Sync + 'static,
{
    let serve = Arc::new(serve);
    // The pool lives (and on exit drains and joins) inside the accept
    // thread, so joining the accept thread joins everything.
    let pool = ThreadPool::new(workers);
    loop {
        let accepted = accept();
        // Past shutdown the connection is the wake-up (or races it).
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let armed = stream
                    .set_read_timeout(Some(read))
                    .and_then(|()| stream.set_write_timeout(Some(write)))
                    .and_then(|()| stream.set_nodelay(true));
                if armed.is_ok() {
                    let serve = Arc::clone(&serve);
                    pool.execute(move || serve(stream));
                }
            }
            // A failed accept: `ECONNABORTED`, `EMFILE`/`ENFILE`, or one
            // of the pending network errors accept(2) says to retry like
            // `EAGAIN`.
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

/// Serves one protocol connection until EOF, `BYE`, an unrecoverable
/// request, or shutdown.
fn serve_connection<S: Service>(
    stream: TcpStream,
    service: &S,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut session = S::Session::default();
    let mut buf = Vec::new();
    loop {
        let (reply, close, upgrade) = match read_line(&mut reader, &mut buf, MAX_FRAME, shutdown)? {
            Input::Closed => return Ok(()),
            Input::TooLong => (too_long("request line"), true, false),
            Input::Text(line) if line.is_empty() => continue,
            Input::Text(line) => {
                let (reply, close) = dispatch(service, &line, &mut reader, &mut session, shutdown)?;
                let upgrade = framing::upgrades_to_v3(&line, &reply);
                (reply, close, upgrade)
            }
        };
        writer.write_all(reply.serialize().as_bytes())?;
        writer.flush()?;
        if close {
            return Ok(());
        }
        if upgrade {
            // The accepted `HELLO v3` greeting is the last text exchange;
            // everything after it is length-prefixed binary frames.
            return serve_frames(&mut reader, &mut writer, service, &mut session, shutdown);
        }
    }
}

/// Serves a connection that negotiated protocol v3: the framed loop over
/// the same dispatch. A text request's payload arrives inside its frame,
/// so the payload reader runs over those bytes and behaves exactly as
/// over TCP lines, truncated-payload close included.
fn serve_frames<S: Service, R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &S,
    session: &mut S::Session,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    loop {
        let violation = match framing::read_frame_polling(reader, shutdown)? {
            FrameRead::Closed => return Ok(()),
            FrameRead::Violation(reason) => reason,
            FrameRead::Frame(frame) if frame.opcode == framing::OP_TEXT => {
                let (head, mut payload) = framing::split_text_body(&frame.body);
                let (reply, close) = dispatch(service, &head, &mut payload, session, shutdown)?;
                framing::write_reply_frame(writer, &reply)?;
                if close {
                    return Ok(());
                }
                continue;
            }
            FrameRead::Frame(frame) if frame.opcode == framing::OP_BATCH => {
                match framing::decode_batch(&frame.body) {
                    Ok(specs) => {
                        let acks =
                            framing::encode_batch_ack(&execute_batch(service, &specs, session));
                        framing::write_frame(writer, framing::OP_BATCH_ACK, &acks)?;
                        continue;
                    }
                    Err(reason) => reason,
                }
            }
            FrameRead::Frame(frame) => {
                format!("unknown opcode {} in a client frame", frame.opcode)
            }
        };
        // Past a framing violation the stream cannot be resynchronized:
        // refuse and close.
        return framing::write_reply_frame(writer, &Reply::Err(ErrCode::BadRequest, violation));
    }
}

/// Parses and executes one text request, reading its counted payload off
/// `reader` first; returns the reply and whether the connection closes.
/// The per-opcode duration covers the payload read.
///
/// Execution runs under [`catching`]: a panic anywhere in a handler (or
/// in the engine underneath it) becomes a structured `ERR internal` reply
/// instead of killing the connection loop. That is a backstop, not a
/// license — lint rule P1 keeps panicking constructs out of the request
/// paths.
pub(crate) fn dispatch<S: Service, R: BufRead>(
    service: &S,
    line: &str,
    reader: &mut R,
    session: &mut S::Session,
    shutdown: &AtomicBool,
) -> std::io::Result<(Reply, bool)> {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(reason) => {
            service.telemetry().count_error(ErrCode::BadRequest);
            return Ok((Reply::Err(ErrCode::BadRequest, reason), false));
        }
    };
    let opcode = request.opcode();
    let start = telemetry::clock_start();
    let result = catching(AssertUnwindSafe(|| {
        // Past a truncated or oversized payload the stream is
        // desynchronized beyond recovery, so the connection closes.
        let payload = match request {
            Request::Load(count) | Request::Restore(count) => {
                match read_payload(reader, count, shutdown)? {
                    Input::Text(payload) => payload,
                    Input::Closed => {
                        let reason = format!("truncated {opcode} payload");
                        return Ok((Reply::Err(ErrCode::BadRequest, reason), true));
                    }
                    Input::TooLong => return Ok((too_long(&format!("{opcode} payload")), true)),
                }
            }
            _ => String::new(),
        };
        let close = matches!(request, Request::Bye);
        Ok((service.execute(request, &payload, session), close))
    }));
    if let Ok((reply, _)) = &result {
        service
            .telemetry()
            .observe_request(opcode, telemetry::elapsed_us(start), reply);
    }
    result
}

/// Executes one `OP_BATCH` frame under the vectored panic backstop and
/// records its size, its rejections and one `SUBMIT` observation per
/// record. A panic mid-batch yields an `ERR internal` ack for every
/// record: which records applied is unknowable past a panic, the engine
/// state is unspecified either way, and the acks tell the client to
/// recover.
fn execute_batch<S: Service>(
    service: &S,
    specs: &[TaskSpec],
    session: &mut S::Session,
) -> Vec<BatchAck> {
    let start = telemetry::clock_start();
    match catch_unwind(AssertUnwindSafe(|| service.execute_batch(specs, session))) {
        Ok(acks) => {
            let rejected = acks
                .iter()
                .filter(|ack| matches!(ack, BatchAck::Err { .. }))
                .count();
            service
                .telemetry()
                .observe_batch(specs.len(), rejected, telemetry::elapsed_us(start));
            acks
        }
        Err(_) => specs
            .iter()
            .map(|_| BatchAck::rejected(ErrCode::Internal, "request handler panicked"))
            .collect(),
    }
}

/// Runs one request handler, converting a panic into an `ERR internal`
/// reply carrying the panic message. The engine mutex (parking_lot, no
/// poisoning) unlocks during unwind, so the daemon keeps serving; a panic
/// mid-mutation can leave the engine in an unspecified (still
/// memory-safe) state, which the reply tells the client to `RESTORE` away.
fn catching<F>(f: F) -> std::io::Result<(Reply, bool)>
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

/// The refusal of a request line or counted payload past [`MAX_FRAME`]
/// bytes — the text twin of an oversized v3 frame.
fn too_long(what: &str) -> Reply {
    Reply::Err(
        ErrCode::BadRequest,
        format!("{what} exceeds the {MAX_FRAME}-byte limit"),
    )
}

/// What a polling text read got.
enum Input {
    /// One line (trailing whitespace trimmed), or a whole counted payload.
    Text(String),
    /// EOF or shutdown.
    Closed,
    /// The byte limit ran out before the read completed.
    TooLong,
}

/// Reads one `\n`-terminated line of at most `limit` bytes (its newline
/// included), polling the shutdown flag across read timeouts. Partial
/// bytes accumulate in `buf` between polls, so a slow sender never loses
/// data; the limit keeps a peer that never sends a newline from growing
/// `buf` without end. Generic over the reader so request handling is
/// unit-testable off a socket.
fn read_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    limit: usize,
    shutdown: &AtomicBool,
) -> std::io::Result<Input> {
    buf.clear();
    loop {
        let room = limit.saturating_sub(buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', buf) {
            Ok(_) if buf.len() >= limit && buf.last() != Some(&b'\n') => return Ok(Input::TooLong),
            Ok(0) => return Ok(Input::Closed),
            // A read without a trailing newline means EOF mid-line; the
            // fragment is treated as a final line.
            Ok(_) => {
                let line = String::from_utf8_lossy(buf).trim_end().to_string();
                return Ok(Input::Text(line));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(Input::Closed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads a counted payload: `count` lines, at most [`MAX_FRAME`] bytes in
/// all (newlines included), returned as one document.
fn read_payload<R: BufRead>(
    reader: &mut R,
    count: usize,
    shutdown: &AtomicBool,
) -> std::io::Result<Input> {
    let mut payload = String::new();
    let mut buf = Vec::new();
    let mut budget = MAX_FRAME;
    for _ in 0..count {
        match read_line(reader, &mut buf, budget, shutdown)? {
            Input::Text(line) => {
                budget = budget.saturating_sub(buf.len());
                payload.push_str(&line);
                payload.push('\n');
            }
            other => return Ok(other),
        }
    }
    Ok(Input::Text(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_failed_accept_does_not_end_the_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let (served, seen) = std::sync::mpsc::channel();
        let flag = Arc::clone(&shutdown);
        let acceptor = std::thread::spawn(move || {
            // The first accept fails the way a peer that resets before
            // accept(2) returns makes it fail; every later one is real.
            let mut injected = false;
            let accept = move || {
                if !injected {
                    injected = true;
                    return Err(std::io::ErrorKind::ConnectionAborted.into());
                }
                listener.accept()
            };
            accept_loop(accept, 1, (READ_POLL, WRITE_STALL), &flag, move |stream| {
                let _ = served.send(stream.peer_addr().ok());
            });
        });
        let client = TcpStream::connect(addr).expect("dial the listener");
        let peer = seen
            .recv_timeout(Duration::from_secs(5))
            .expect("the connection after a failed accept is served");
        assert_eq!(peer, client.local_addr().ok());
        shutdown.store(true, Ordering::Release);
        TcpStream::connect(addr).expect("wake the accept loop");
        acceptor.join().expect("accept loop thread");
    }

    #[test]
    fn shutting_down_an_idle_handle_returns_promptly() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let daemon = crate::serve(crate::ServerConfig {
                addr: bind.to_string(),
                ..crate::ServerConfig::default()
            })
            .expect("serve the daemon");
            // The router adds its HTTP scrape listener to the handle.
            let router = crate::serve_router(crate::RouterConfig {
                addr: bind.to_string(),
                metrics_addr: Some(bind.to_string()),
                ..crate::RouterConfig::default()
            })
            .expect("serve the router");
            for handle in [daemon, router] {
                let (done, finished) = std::sync::mpsc::channel();
                let stopper = std::thread::spawn(move || {
                    handle.shutdown();
                    let _ = done.send(());
                });
                finished
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap_or_else(|_| panic!("shutdown of a handle bound to {bind} hangs"));
                stopper.join().expect("shutdown thread");
            }
        }
    }

    #[test]
    fn a_line_may_fill_the_limit_newline_included() {
        let shutdown = AtomicBool::new(false);
        let mut buf = Vec::new();
        let mut reader: &[u8] = b"ABCD\nEFGHIJ\n";
        assert!(matches!(
            read_line(&mut reader, &mut buf, 5, &shutdown).unwrap(),
            Input::Text(line) if line == "ABCD"
        ));
        assert!(matches!(
            read_line(&mut reader, &mut buf, 5, &shutdown).unwrap(),
            Input::TooLong
        ));
    }
}
