//! The protocol's intake loop, [`serve_lines`], and the TCP front end
//! built on it: the [`Service`] worker pool behind a hand-rolled
//! `std::net` socket layer.
//!
//! [`serve_lines`] is the one place the line rules live, for every
//! transport: `pslocal serve` runs it on each connection, and `pslocal
//! batch` runs it once over stdin and stdout. It reads a line, answers
//! a command or submits a request, and hands every outbound line to
//! one writer thread. The two front ends differ only in the
//! [`Admission`] they pass: `serve` sheds load, `batch` waits for room.
//!
//! The workspace is hermetic (no tokio, no mio), so the server is
//! built from `std` primitives and blocking I/O only: one **acceptor**
//! thread blocked in [`TcpListener::accept`], and per connection a
//! **reader** thread blocked in `read` plus the loop's **writer**
//! thread around the shared worker pool. No thread wakes on a timer.
//! The acceptor owns the connection list and reaps finished handler
//! threads each time `accept` returns, so a closed connection gives
//! back its threads and descriptors. The request lifecycle is
//!
//! ```text
//! accept → parse (protocol) → admit (Service) → worker → respond → drain
//! ```
//!
//! with explicit, typed degradation at every stage:
//!
//! * **Connection cap.** Sockets beyond
//!   [`ServerConfig::max_connections`] are answered with one
//!   `{"outcome":"overloaded",...}` line and closed — load shedding at
//!   the accept boundary ([`Counter::ConnectionsRefused`]), never
//!   unbounded buffering.
//! * **Bad lines.** A line that does not parse, is not valid UTF-8, is
//!   longer than [`MAX_LINE_BYTES`], or whose instance generation
//!   panics gets one `{"outcome":"bad_request",...}` line, and the
//!   connection keeps serving. An over-long line is skipped up to its
//!   newline without being stored, so no line grows a buffer past the
//!   bound.
//! * **Admission backpressure.** A request the bounded queue refuses
//!   ([`QueueFull`](crate::QueueFull)) becomes a
//!   `{"outcome":"rejected"}` line on the same connection; the server
//!   never queues beyond [`ServiceConfig`]'s bound.
//! * **Deadline passthrough.** A request's `deadline_ms` (or the
//!   server's [`ServerConfig::default_deadline`]) rides into the
//!   service unchanged; a request that expires while queued or at a
//!   phase boundary answers `deadline_exceeded` exactly as `pslocal
//!   batch` would.
//! * **Timeouts.** A connection idle for 30 s (its socket's read
//!   timeout) is closed instead of pinning its thread; a write that
//!   cannot complete within 10 s drops the connection, so a stalled
//!   client cannot wedge the writer.
//! * **Graceful drain.** [`Server::shutdown`] flags the drain, wakes
//!   the acceptor with one loopback connect and each reader by shutting
//!   down its socket's read half, then lets the worker pool finish
//!   **everything already admitted**. Each response reaches its
//!   connection before the socket closes: the writer thread exits only
//!   when every response channel sender (one per in-flight request) is
//!   gone. A client `SHUTDOWN` flags the same drain and ends its own
//!   connection's intake; the owner then calls [`Server::shutdown`].
//!
//! # Wire protocol
//!
//! Lines in, lines out — exactly the `pslocal batch` JSONL schema
//! ([`crate::protocol`]), so sorted response streams are
//! byte-comparable between the two front ends (pinned by the
//! equivalence suite). Responses arrive in completion order, each
//! carrying its request `id`. Blank lines and `#` lines are skipped.
//! Four plain-text commands ride on the same line stream:
//!
//! | command    | reply                                             |
//! |------------|---------------------------------------------------|
//! | `PING`     | `PONG`                                            |
//! | `STATS`    | live metrics ([`Sink::stats_snapshot`]), then `OK`|
//! | `SHUTDOWN` | `DRAINING`, then a graceful server-wide drain     |
//! | `QUIT`     | closes this connection                            |
//!
//! `STATS` renders whatever the telemetry pipeline's sink aggregates —
//! wire an [`AggregateSink`](pslocal_telemetry::AggregateSink) (the
//! CLI's `serve` does) to get live counters, p50/p99 latencies, and
//! span totals without unbounded buffering. All outbound lines of a
//! connection — result lines and command replies alike — are written
//! by its single writer thread from one queue, so a multi-line `STATS`
//! block is always contiguous on the wire, never interleaved with
//! concurrently completing result lines.
//!
//! # Observability
//!
//! Each request gets a `server-request` span
//! ([`names::SERVER_REQUEST`], covering parse + admission, indexed by
//! its ordinal in the stream; execution is the service's
//! `service-request` span), and the loop feeds
//! [`Counter::BytesIn`]/[`Counter::BytesOut`] and
//! [`Counter::BadRequests`], the server
//! [`Counter::ConnectionsAccepted`]/[`Counter::ConnectionsRefused`],
//! through the same pipeline the service and reduction layers record
//! into — one sink sees the whole path.

use crate::protocol::{
    bad_request_line, overloaded_line, parse_request, rejected_line, response_line,
};
use crate::service::{Admission, Service, ServiceConfig};
use pslocal_telemetry::{names, span, Counter, Sink, Telemetry};
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default bound on concurrently served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// A connection idle (no bytes) this long is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// A write that cannot complete within this drops the connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Pause after a failed `accept` (for example, out of descriptors), so
/// the acceptor does not spin on an error that repeats at once.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);

/// Shape of a [`Server`]: the worker pool underneath plus the
/// socket-layer limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker pool + admission queue configuration.
    pub service: ServiceConfig,
    /// Concurrent-connection cap; sockets beyond it get one typed
    /// `overloaded` line and are closed.
    pub max_connections: usize,
    /// Deadline applied to requests that carry no `deadline_ms` of
    /// their own; `None` = unlimited.
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    /// Two workers, [`DEFAULT_MAX_CONNECTIONS`] connections, no default
    /// deadline.
    fn default() -> Self {
        ServerConfig {
            service: ServiceConfig::new(2),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            default_deadline: None,
        }
    }
}

impl ServerConfig {
    /// Replaces the service (worker pool) configuration.
    pub fn with_service(mut self, service: ServiceConfig) -> Self {
        self.service = service;
        self
    }

    /// Replaces the connection cap (clamped to ≥ 1).
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Sets the deadline applied to requests without their own.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }
}

/// The TCP front end — see the [module docs](self).
///
/// # Examples
///
/// One request over a real socket, end to end:
///
/// ```
/// use pslocal_core::{Server, ServerConfig};
/// use pslocal_telemetry::Telemetry;
/// use std::io::{BufRead, BufReader, Write};
/// use std::net::{Shutdown, TcpStream};
///
/// # fn main() -> std::io::Result<()> {
/// let server = Server::start("127.0.0.1:0", ServerConfig::default(), Telemetry::disabled())?;
/// let mut conn = TcpStream::connect(server.local_addr())?;
/// conn.write_all(b"{\"id\":\"doc\",\"n\":32,\"m\":16,\"k\":3,\"seed\":1}\n")?;
/// conn.shutdown(Shutdown::Write)?; // half-close: "no more requests"
/// let mut line = String::new();
/// BufReader::new(conn).read_line(&mut line)?;
/// assert!(line.contains("\"id\":\"doc\""));
/// assert!(line.contains("\"outcome\":\"ok\""));
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Server<S: Sink + Send + Sync + 'static> {
    local_addr: SocketAddr,
    draining: Arc<AtomicBool>,
    /// Ends with the connections still live, and whether a handler it
    /// reaped had panicked.
    acceptor: JoinHandle<(Vec<Connection>, bool)>,
    service: Arc<Service<S>>,
}

/// A connection's handler thread, and the acceptor's clone of its
/// socket, through which a drain wakes the reader.
struct Connection {
    handler: JoinHandle<()>,
    socket: TcpStream,
}

impl<S: Sink + Send + Sync + 'static> Server<S> {
    /// Binds `addr`, spawns the worker pool and the acceptor, and
    /// starts serving. Bind to port 0 for an ephemeral port and read
    /// it back with [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// Any I/O error from binding or inspecting the listener.
    pub fn start(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        tel: Telemetry<S>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let service = Arc::new(Service::start(config.service, tel));
        let draining = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let service = Arc::clone(&service);
            let draining = Arc::clone(&draining);
            std::thread::Builder::new()
                .name("pslocal-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, service, draining, config))?
        };
        Ok(Server { local_addr, draining, acceptor, service })
    }

    /// The bound address (the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a drain has been requested (by [`shutdown`] or a client
    /// `SHUTDOWN` command).
    ///
    /// [`shutdown`]: Self::shutdown
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Graceful drain: stops accepting, lets every connection finish
    /// its in-flight requests and deliver their responses, joins all
    /// threads (acceptor, readers, writers, workers), and hands back
    /// the telemetry pipeline.
    ///
    /// # Panics
    ///
    /// Panics if a server thread died of an unexpected panic — the
    /// handlers isolate per-connection I/O errors, so this indicates a
    /// bug.
    pub fn shutdown(self) -> Telemetry<S> {
        self.draining.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept`: it sees the flag and stops.
        // A wildcard bind is reached on loopback. Should the connect fail
        // (out of descriptors), the next client's connect wakes it.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect(wake);
        // pslocal: allow(panic-path, "documented contract: handlers isolate per-connection I/O errors, so a dead server thread is a bug that must surface at shutdown")
        let (live, mut panicked) = self.acceptor.join().expect("acceptor panicked");
        // No connection can appear now. Wake each reader out of `read`
        // with end of file; the workers are still alive, so its
        // in-flight responses complete and its writer drains them
        // before the join.
        for conn in &live {
            let _ = conn.socket.shutdown(Shutdown::Read);
        }
        for conn in live {
            panicked |= conn.handler.join().is_err();
        }
        assert!(!panicked, "connection handler panicked");
        let service = Arc::try_unwrap(self.service)
            // pslocal: allow(panic-path, "acceptor and every connection thread joined above, so no Arc clone can remain; a failure here is unreachable by construction")
            .unwrap_or_else(|_| unreachable!("all connection threads joined, no clones remain"));
        // Every request was submitted with a per-connection reply, so
        // the service's own drain list is always empty.
        service.shutdown().telemetry
    }
}

/// Accept loop: block in `accept`, shed connections past the cap with
/// a typed line, spawn a handler per admitted socket, and reap finished
/// handlers each time `accept` returns.
fn acceptor_loop<S: Sink + Send + Sync + 'static>(
    listener: TcpListener,
    service: Arc<Service<S>>,
    draining: Arc<AtomicBool>,
    config: ServerConfig,
) -> (Vec<Connection>, bool) {
    let mut live: Vec<Connection> = Vec::new();
    let mut panicked = false;
    let mut next_conn: u64 = 0;
    loop {
        let accepted = listener.accept();
        // Checked before any counter: the wake connection from
        // `Server::shutdown` counts as neither accepted nor refused.
        if draining.load(Ordering::SeqCst) {
            return (live, panicked);
        }
        let (finished, running) = live.into_iter().partition(|c| c.handler.is_finished());
        live = running;
        for conn in finished {
            panicked |= conn.handler.join().is_err();
        }
        let Ok((stream, _peer)) = accepted else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        if live.len() >= config.max_connections.max(1) {
            service.telemetry().add(Counter::ConnectionsRefused, 1);
            refuse(stream, &service, config.max_connections);
            continue;
        }
        let Ok(socket) = stream.try_clone() else { continue };
        service.telemetry().add(Counter::ConnectionsAccepted, 1);
        let conn_id = next_conn;
        next_conn += 1;
        let handler = {
            let service = Arc::clone(&service);
            let draining = Arc::clone(&draining);
            std::thread::Builder::new()
                .name(format!("pslocal-conn-{conn_id}"))
                .spawn(move || connection_loop(stream, service, draining, config))
                // pslocal: allow(panic-path, "thread spawn fails only on OS resource exhaustion; there is no degraded mode for an accepted socket")
                .expect("spawn connection handler")
        };
        live.push(Connection { handler, socket });
    }
}

/// Sheds one connection: best-effort typed overload line, then close.
fn refuse<S: Sink + Send + Sync + 'static>(
    mut stream: TcpStream,
    service: &Service<S>,
    max_connections: usize,
) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = write_line(service, &mut stream, overloaded_line(max_connections));
}

/// One connection: its socket options, then [`serve_lines`] over the
/// socket with typed load shedding.
fn connection_loop<S: Sink + Send + Sync + 'static>(
    stream: TcpStream,
    service: Arc<Service<S>>,
    draining: Arc<AtomicBool>,
    config: ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else { return };
    let _ = write_half.set_write_timeout(Some(WRITE_TIMEOUT));
    // End of file comes from the client's half-close or from the
    // drain's `shutdown(Read)`; a read error, the idle timeout
    // included, ends the connection too.
    let input = BufReader::new(&stream);
    serve_lines(&service, input, write_half, Admission::Shed, config.default_deadline, &draining);
    // The acceptor's clone keeps the socket open until it is reaped, so
    // close it here: the client sees end of file now.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Longest request line [`serve_lines`] keeps, in bytes. A request is a
/// flat object of at most 11 scalars, so this is far above any valid
/// line; a longer one is answered `bad_request` and skipped.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// What [`serve_lines`] reports once its input ends.
#[derive(Debug)]
pub struct LinesReport {
    /// The first line answered `bad_request`: its 1-based line number
    /// (blank and `#` lines count) and the error it was answered with.
    pub first_bad: Option<(u64, String)>,
    /// The error that stopped the writer, if a write or flush failed.
    pub write_error: Option<io::Error>,
}

/// The protocol's one intake loop, for every transport: `serve` runs it
/// per connection, `batch` once over stdin and stdout.
///
/// Lines are trimmed; blank and `#` lines are skipped, and the commands
/// of the [module docs](self) are answered. Any other line is a
/// request, parsed (generation included) and submitted under
/// `admission`; its result line is written when a worker finishes it.
/// A line that does not parse, is not valid UTF-8, is longer than
/// [`MAX_LINE_BYTES`] or whose generation panics is answered
/// `bad_request`. One writer thread that owns `output` writes and
/// flushes every outbound line.
///
/// The loop reads until end of input, a read error, `QUIT`, `SHUTDOWN`
/// (which sets `draining`), a set `draining` flag or a failed write,
/// and returns once every admitted request's line is written or the
/// writer has stopped.
pub fn serve_lines<S: Sink + Send + Sync + 'static>(
    service: &Service<S>,
    mut input: impl BufRead,
    mut output: impl Write + Send,
    admission: Admission,
    default_deadline: Option<Duration>,
    draining: &AtomicBool,
) -> LinesReport {
    // The loop holds one sender and each admitted request's delivery
    // closure a clone, so the writer's channel disconnects only after
    // every result line has been sent: no response is lost at the end.
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name("pslocal-conn-writer".to_string())
            .spawn_scoped(scope, move || {
                rx.iter().try_for_each(|line| write_line(service, &mut output, line))
            })
            // pslocal: allow(panic-path, "thread spawn fails only on OS resource exhaustion; the stream cannot be answered without its writer")
            .expect("spawn connection writer");
        let tel = service.telemetry();
        let mut first_bad = None;
        let mut buf = Vec::new();
        let (mut line_no, mut ordinal) = (0u64, 0u64);
        // The flag check also stops a client that keeps sending after a
        // drain's `shutdown(Read)`, whose bytes Linux still delivers.
        while !draining.load(Ordering::SeqCst) && !writer.is_finished() {
            let within_bound = match read_bounded_line(&mut input, &mut buf) {
                Ok((0, _)) | Err(_) => break,
                Ok((n, within_bound)) => {
                    tel.add(Counter::BytesIn, n as u64);
                    within_bound
                }
            };
            line_no += 1;
            // A request line must be valid UTF-8, which is exactly when
            // `from_utf8_lossy` borrows.
            let text = String::from_utf8_lossy(&buf);
            let valid_utf8 = matches!(text, Cow::Borrowed(_));
            let reply = match within_bound.then(|| text.trim()) {
                Some("") => continue,
                Some(comment) if comment.starts_with('#') => continue,
                Some("PING") => "PONG".to_string(),
                Some("STATS") => {
                    let snapshot = tel
                        .sink()
                        .stats_snapshot()
                        .unwrap_or_else(|| "no aggregating sink configured\n".to_string());
                    format!("{snapshot}OK")
                }
                Some("SHUTDOWN") => {
                    let _ = tx.send("DRAINING".to_string());
                    draining.store(true, Ordering::SeqCst);
                    break;
                }
                Some("QUIT") => break,
                request_line => {
                    let _span = span!(tel, names::SERVER_REQUEST, ordinal);
                    ordinal += 1;
                    let parsed = match request_line {
                        None => Err(format!("request line longer than {MAX_LINE_BYTES} bytes")),
                        Some(_) if !valid_utf8 => Err("request line is not valid UTF-8".into()),
                        Some(line) => catch_unwind(|| parse_request(line, default_deadline))
                            .unwrap_or_else(|_| Err("request generation panicked".to_string())),
                    };
                    match parsed {
                        Err(error) => {
                            tel.add(Counter::BadRequests, 1);
                            let line = bad_request_line(&error);
                            first_bad.get_or_insert((line_no, error));
                            line
                        }
                        Ok(request) => {
                            let deliver = tx.clone();
                            let submitted = service.submit_with(request, admission, move |r| {
                                let _ = deliver.send(response_line(&r));
                            });
                            match submitted {
                                Ok(()) => continue,
                                // Shed: answered and dropped, never buffered.
                                Err(full) => rejected_line(&full.request.id),
                            }
                        }
                    }
                }
            };
            if tx.send(reply).is_err() {
                break;
            }
        }
        drop(tx);
        let write_error = match writer.join() {
            Ok(result) => result.err(),
            Err(_) => Some(io::Error::other("the writer thread panicked")),
        };
        LinesReport { first_bad, write_error }
    })
}

/// Reads one line of `input` into `buf`, without its `\n`, keeping at
/// most [`MAX_LINE_BYTES`] of it: the rest of a longer line is consumed
/// but not stored. Returns the bytes consumed (0 at end of input) and
/// whether the line was within the bound.
fn read_bounded_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<(usize, bool)> {
    buf.clear();
    let (mut consumed, mut within_bound) = (0, true);
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok((consumed, within_bound));
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = newline.unwrap_or(chunk.len());
        let keep = body.min(MAX_LINE_BYTES - buf.len());
        within_bound &= keep == body;
        // `keep <= body <= chunk.len()`, and `buf` never exceeds the bound.
        buf.extend_from_slice(&chunk[..keep]);
        let used = body + usize::from(newline.is_some());
        input.consume(used);
        consumed += used;
        if newline.is_some() {
            return Ok((consumed, within_bound));
        }
    }
}

/// Writes one line or block plus its `\n` in a single `write_all`, so
/// under `TCP_NODELAY` it never leaves as two segments, flushes it, and
/// counts the bytes.
fn write_line<S: Sink + Send + Sync + 'static>(
    service: &Service<S>,
    output: &mut impl Write,
    mut line: String,
) -> io::Result<()> {
    line.push('\n');
    output.write_all(line.as_bytes())?;
    output.flush()?;
    service.telemetry().add(Counter::BytesOut, line.len() as u64);
    Ok(())
}
