//! The TCP serving front end: the [`Service`] worker pool behind a
//! hand-rolled `std::net` socket layer.
//!
//! The workspace is hermetic (no tokio, no mio), so the server is
//! built from `std` primitives only: one **acceptor** thread polling a
//! non-blocking [`TcpListener`], and per connection a **reader** thread
//! plus a **writer** thread around the shared worker pool. The request
//! lifecycle is
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
//! * **Admission backpressure.** A request the bounded queue refuses
//!   ([`QueueFull`](crate::QueueFull)) becomes a
//!   `{"outcome":"rejected"}` line on the same connection; the server
//!   never queues beyond [`ServiceConfig`]'s bound.
//! * **Deadline passthrough.** A request's `deadline_ms` (or the
//!   server's [`ServerConfig::default_deadline`]) rides into the
//!   service unchanged; a request that expires while queued or at a
//!   phase boundary answers `deadline_exceeded` exactly as `pslocal
//!   batch` would.
//! * **Timeouts.** Reads poll in short slices so a connection idle
//!   past [`ServerConfig::read_timeout`] is closed instead of pinning
//!   its thread; writes carry [`ServerConfig::write_timeout`] so a
//!   stalled client cannot wedge the writer.
//! * **Graceful drain.** [`Server::shutdown`] (or a client `SHUTDOWN`
//!   command, or the CLI's signal handler via [`ShutdownHandle`])
//!   stops the acceptor, unblocks every reader at its next poll slice,
//!   lets the worker pool finish **everything already admitted**, and
//!   delivers each finished response to its connection before the
//!   socket closes — the writer thread exits only when every response
//!   channel sender (one per in-flight request) is gone.
//!
//! # Wire protocol
//!
//! Lines in, lines out — exactly the `pslocal batch` JSONL schema
//! ([`crate::protocol`]), so sorted response streams are
//! byte-comparable between the two front ends (pinned by the
//! equivalence suite). Responses arrive in completion order, each
//! carrying its request `id`. Four plain-text commands ride on the
//! same line stream:
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
//! ([`names::SERVER_REQUEST`], covering parse + admission; execution
//! is the service's `service-request` span), and the server feeds
//! [`Counter::ConnectionsAccepted`]/[`Counter::ConnectionsRefused`],
//! [`Counter::BytesIn`]/[`Counter::BytesOut`] and
//! [`Counter::BadRequests`] through the same pipeline the service and
//! reduction layers record into — one sink sees the whole path.

use crate::protocol::{
    bad_request_line, overloaded_line, parse_request, rejected_line, response_line,
};
use crate::service::{Service, ServiceConfig, ServiceResponse};
use crate::sync::lock_unpoisoned;
use pslocal_telemetry::{names, span, Counter, Sink, Telemetry};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound on concurrently served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// How often blocking points (accept, reads) wake to check the drain
/// flag — the upper bound on shutdown-notice latency per thread.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Shape of a [`Server`]: the worker pool underneath plus the
/// socket-layer limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker pool + admission queue configuration.
    pub service: ServiceConfig,
    /// Concurrent-connection cap; sockets beyond it get one typed
    /// `overloaded` line and are closed.
    pub max_connections: usize,
    /// A connection idle (no bytes) longer than this is closed.
    pub read_timeout: Duration,
    /// Per-write socket timeout; a write that cannot complete within
    /// it drops the connection.
    pub write_timeout: Duration,
    /// Deadline applied to requests that carry no `deadline_ms` of
    /// their own; `None` = unlimited.
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    /// Two workers, [`DEFAULT_MAX_CONNECTIONS`] connections, 30 s idle
    /// reads, 10 s writes, no default deadline.
    fn default() -> Self {
        ServerConfig {
            service: ServiceConfig::new(2),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
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

    /// Replaces the idle read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Replaces the per-write timeout.
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Sets the deadline applied to requests without their own.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }
}

/// A cloneable handle that requests a graceful drain from outside the
/// server — the CLI's signal handler path, and anything else that
/// cannot own the [`Server`] itself.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    draining: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Flags the server as draining: the acceptor stops accepting and
    /// every reader stops taking requests at its next poll slice.
    /// Someone must still call [`Server::shutdown`] to join the
    /// threads and recover the telemetry pipeline.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
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
    acceptor: JoinHandle<()>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    service: Arc<Service<S>>,
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
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let service = Arc::new(Service::start(config.service, tel));
        let draining = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let service = Arc::clone(&service);
            let draining = Arc::clone(&draining);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("pslocal-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, service, draining, connections, config))?
        };
        Ok(Server { local_addr, draining, acceptor, connections, service })
    }

    /// The bound address (the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can request a drain from another thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle { draining: Arc::clone(&self.draining) }
    }

    /// Whether a drain has been requested (by [`shutdown`], a
    /// [`ShutdownHandle`], or a client `SHUTDOWN` command).
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
        // pslocal: allow(panic-path, "documented contract: handlers isolate per-connection I/O errors, so a dead server thread is a bug that must surface at shutdown")
        self.acceptor.join().expect("acceptor panicked");
        // The acceptor has exited, so no new handles can appear; the
        // workers are still alive, so every connection's in-flight
        // responses complete and its writer drains before the join.
        loop {
            let handle = lock_unpoisoned(&self.connections).pop();
            let Some(handle) = handle else { break };
            // pslocal: allow(panic-path, "documented contract: handlers isolate per-connection I/O errors, so a dead server thread is a bug that must surface at shutdown")
            handle.join().expect("connection handler panicked");
        }
        let service = Arc::try_unwrap(self.service)
            // pslocal: allow(panic-path, "acceptor and every connection thread joined above, so no Arc clone can remain; a failure here is unreachable by construction")
            .unwrap_or_else(|_| unreachable!("all connection threads joined, no clones remain"));
        // Every request was submitted with a per-connection reply, so
        // the service's own drain list is always empty.
        service.shutdown().telemetry
    }
}

/// Accept loop: poll the non-blocking listener, shed connections past
/// the cap with a typed line, spawn a handler per admitted socket.
fn acceptor_loop<S: Sink + Send + Sync + 'static>(
    listener: TcpListener,
    service: Arc<Service<S>>,
    draining: Arc<AtomicBool>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    config: ServerConfig,
) {
    // Live = spawned minus finished; the counter is decremented by the
    // handler's drop guard so a panicking handler still releases its
    // slot.
    let live = Arc::new(AtomicUsize::new(0));
    let mut next_conn: u64 = 0;
    while !draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Accepted sockets must not inherit the listener's
                // non-blocking mode (platform-dependent).
                let _ = stream.set_nonblocking(false);
                if live.load(Ordering::SeqCst) >= config.max_connections.max(1) {
                    service.telemetry().add(Counter::ConnectionsRefused, 1);
                    refuse(stream, &service, config);
                    continue;
                }
                service.telemetry().add(Counter::ConnectionsAccepted, 1);
                live.fetch_add(1, Ordering::SeqCst);
                let conn_id = next_conn;
                next_conn += 1;
                let handle = {
                    let service = Arc::clone(&service);
                    let draining = Arc::clone(&draining);
                    let live = Arc::clone(&live);
                    std::thread::Builder::new()
                        .name(format!("pslocal-conn-{conn_id}"))
                        .spawn(move || connection_loop(stream, service, draining, live, config))
                        // pslocal: allow(panic-path, "thread spawn fails only on OS resource exhaustion; there is no degraded mode for an accepted socket")
                        .expect("spawn connection handler")
                };
                lock_unpoisoned(&connections).push(handle);
            }
            // Nothing pending (or a transient accept error): sleep one
            // poll slice and re-check the drain flag.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Sheds one connection: best-effort typed overload line, then close.
fn refuse<S: Sink + Send + Sync + 'static>(
    mut stream: TcpStream,
    service: &Arc<Service<S>>,
    config: ServerConfig,
) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let line = overloaded_line(config.max_connections);
    if stream.write_all(line.as_bytes()).and_then(|()| stream.write_all(b"\n")).is_ok() {
        service.telemetry().add(Counter::BytesOut, line.len() as u64 + 1);
    }
}

/// Decrements the live-connection counter when the handler exits, even
/// by panic.
struct ConnectionGuard(Arc<AtomicUsize>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection: this thread reads and parses lines; a paired writer
/// thread exclusively owns the write half and delivers every outbound
/// line — responses and command replies alike — from one queue. The
/// reader holds one queue sender and every in-flight request's
/// delivery closure holds a clone, so the writer's channel disconnects
/// — and the connection closes — only after every admitted request's
/// response has been written: the zero-lost-responses drain property,
/// by construction.
fn connection_loop<S: Sink + Send + Sync + 'static>(
    stream: TcpStream,
    service: Arc<Service<S>>,
    draining: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    config: ServerConfig,
) {
    let _guard = ConnectionGuard(live);
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let _ = write_half.set_write_timeout(Some(config.write_timeout));
    // Every outbound line — responses AND command replies — flows
    // through one queue into a writer thread that exclusively owns the
    // write half. Each message is written whole before the next is
    // dequeued, so a multi-line STATS block can never interleave with
    // in-flight result lines; there is no lock to order against.
    let (writer_tx, writer_rx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let service = Arc::clone(&service);
        std::thread::Builder::new()
            .name("pslocal-conn-writer".to_string())
            .spawn(move || {
                let mut stream = write_half;
                while let Ok(msg) = writer_rx.recv() {
                    let line = match msg {
                        WriterMsg::Response(response) => response_line(&response),
                        WriterMsg::Block(text) => text,
                    };
                    if write_line(&service, &mut stream, &line).is_err() {
                        // Client gone: stop writing. Remaining sends
                        // into the channel fail and the reader breaks.
                        break;
                    }
                }
            })
            // pslocal: allow(panic-path, "thread spawn fails only on OS resource exhaustion; the acceptor cannot serve this socket without its writer")
            .expect("spawn connection writer")
    };

    let mut reader = LineReader::new(stream, config.read_timeout);
    let mut ordinal: u64 = 0;
    while let Ok(event) = reader.read_line(&draining) {
        service.telemetry().add(Counter::BytesIn, reader.take_bytes());
        let line = match event {
            ReadEvent::Line(line) => line,
            // Draining: stop reading; in-flight responses still drain
            // through the writer below. Idle timeout and EOF likewise
            // just stop intake.
            ReadEvent::Eof | ReadEvent::Draining | ReadEvent::IdleTimeout => break,
        };
        let line = line.trim();
        match line {
            "" => {}
            "PING" => {
                if writer_tx.send(WriterMsg::Block("PONG".to_string())).is_err() {
                    break;
                }
            }
            "STATS" => {
                let snapshot = service
                    .telemetry()
                    .sink()
                    .stats_snapshot()
                    .unwrap_or_else(|| "no aggregating sink configured\n".to_string());
                // One Block = one contiguous write: the whole snapshot
                // plus its OK terminator, atomic w.r.t. result lines.
                if writer_tx.send(WriterMsg::Block(format!("{snapshot}OK"))).is_err() {
                    break;
                }
            }
            "SHUTDOWN" => {
                let _ = writer_tx.send(WriterMsg::Block("DRAINING".to_string()));
                draining.store(true, Ordering::SeqCst);
                // The next read_line observes the flag and exits.
            }
            "QUIT" => break,
            request_line => {
                let tel = service.telemetry();
                let req_span = span!(tel, names::SERVER_REQUEST, ordinal);
                ordinal += 1;
                match parse_request(request_line, config.default_deadline) {
                    Err(error) => {
                        service.telemetry().add(Counter::BadRequests, 1);
                        req_span.close();
                        if writer_tx.send(WriterMsg::Block(bad_request_line(&error))).is_err() {
                            break;
                        }
                    }
                    Ok(request) => {
                        let deliver_tx = writer_tx.clone();
                        let submitted = service.submit_with(request, move |response| {
                            let _ = deliver_tx.send(WriterMsg::Response(response));
                        });
                        match submitted {
                            Ok(()) => req_span.close(),
                            Err(full) => {
                                // Typed load shedding: the request is
                                // answered and dropped, never buffered.
                                req_span.close();
                                let line = rejected_line(&full.request.id);
                                if writer_tx.send(WriterMsg::Block(line)).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // Drop our sender: once the in-flight requests' clones are gone
    // too (their responses delivered), the writer disconnects and
    // exits.
    drop(writer_tx);
    let _ = writer.join();
}

/// One unit of outbound work for a connection's writer thread.
enum WriterMsg {
    /// A completed request, rendered to its result line by the writer.
    Response(ServiceResponse),
    /// A pre-rendered command reply — possibly multi-line (`STATS`),
    /// written contiguously as one block.
    Block(String),
}

/// Writes one line or block (appending `\n`) on the writer thread's
/// exclusively-owned write half and counts the bytes.
fn write_line<S: Sink + Send + Sync + 'static>(
    service: &Arc<Service<S>>,
    stream: &mut TcpStream,
    line: &str,
) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    service.telemetry().add(Counter::BytesOut, line.len() as u64 + 1);
    Ok(())
}

/// What one [`LineReader::read_line`] call produced.
enum ReadEvent {
    /// A complete line (without its terminator).
    Line(String),
    /// The peer closed (or half-closed) its write side.
    Eof,
    /// The server-wide drain flag was observed.
    Draining,
    /// No bytes arrived within the configured idle timeout.
    IdleTimeout,
}

/// A poll-based line reader over a raw [`TcpStream`].
///
/// Deliberately not `BufReader::read_line`: with a socket read timeout
/// set, `read_line`'s error path can drop bytes that were already
/// consumed into its buffer, silently corrupting the stream. This
/// reader owns its buffer across timeouts, so a line split across poll
/// slices is reassembled intact.
struct LineReader {
    stream: TcpStream,
    idle_timeout: Duration,
    buf: Vec<u8>,
    bytes: u64,
}

impl LineReader {
    fn new(stream: TcpStream, idle_timeout: Duration) -> Self {
        // Short read timeout = the poll slice; the real idle timeout
        // is enforced across slices in `read_line`.
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        LineReader { stream, idle_timeout, buf: Vec::new(), bytes: 0 }
    }

    /// Bytes read since the last call (for the `bytes_in` counter).
    fn take_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.bytes)
    }

    fn read_line(&mut self, draining: &AtomicBool) -> io::Result<ReadEvent> {
        let mut idle_since = Instant::now();
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(ReadEvent::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            if draining.load(Ordering::SeqCst) {
                return Ok(ReadEvent::Draining);
            }
            if idle_since.elapsed() >= self.idle_timeout {
                return Ok(ReadEvent::IdleTimeout);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(ReadEvent::Eof);
                    }
                    // A final line without a terminator still counts.
                    let line = String::from_utf8_lossy(&self.buf).into_owned();
                    self.buf.clear();
                    return Ok(ReadEvent::Line(line));
                }
                Ok(n) => {
                    self.bytes += n as u64;
                    // read() returned n, so n <= chunk.len(): in bounds.
                    self.buf.extend_from_slice(&chunk[..n]);
                    idle_since = Instant::now();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}
