//! The TCP serving front end: the [`Service`] worker pool behind a
//! hand-rolled `std::net` socket layer.
//!
//! The workspace is hermetic (no tokio, no mio), so the server is
//! built from `std` primitives and blocking I/O only: one **acceptor**
//! thread blocked in [`TcpListener::accept`], and per connection a
//! **reader** thread blocked in `read` plus a **writer** thread around
//! the shared worker pool. No thread wakes on a timer. The acceptor
//! owns the connection list and reaps finished handler threads each
//! time `accept` returns, so a closed connection gives back its threads
//! and descriptors. The request lifecycle is
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
use pslocal_telemetry::{names, span, Counter, Sink, Telemetry};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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
    config: ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else { return };
    let _ = write_half.set_write_timeout(Some(WRITE_TIMEOUT));
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
                    if write_line(&service, &mut stream, line).is_err() {
                        // Client gone: stop writing. Remaining sends
                        // into the channel fail and the reader breaks.
                        break;
                    }
                }
            })
            // pslocal: allow(panic-path, "thread spawn fails only on OS resource exhaustion; the acceptor cannot serve this socket without its writer")
            .expect("spawn connection writer")
    };

    // A read error (the idle timeout included) ends the connection, so
    // the bytes `read_until` can drop on its error path are never
    // wanted. End of file comes from the client's half-close or from
    // the drain's `shutdown(Read)`; the flag check also stops a client
    // that keeps sending, whose bytes Linux still delivers after it.
    let mut reader = BufReader::new(&stream);
    let mut buf = Vec::new();
    let mut ordinal: u64 = 0;
    while !draining.load(Ordering::SeqCst) {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => service.telemetry().add(Counter::BytesIn, n as u64),
        }
        match String::from_utf8_lossy(&buf).trim() {
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
                break;
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
    // The acceptor's clone keeps the socket open until it is reaped, so
    // close it here: the client sees end of file now.
    let _ = stream.shutdown(Shutdown::Both);
}

/// One unit of outbound work for a connection's writer thread.
enum WriterMsg {
    /// A completed request, rendered to its result line by the writer.
    Response(ServiceResponse),
    /// A pre-rendered command reply — possibly multi-line (`STATS`),
    /// written contiguously as one block.
    Block(String),
}

/// Writes one line or block plus its `\n` in a single `write_all`, so
/// under `TCP_NODELAY` it never leaves as two segments, and counts the
/// bytes.
fn write_line<S: Sink + Send + Sync + 'static>(
    service: &Service<S>,
    stream: &mut TcpStream,
    mut line: String,
) -> io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    service.telemetry().add(Counter::BytesOut, line.len() as u64);
    Ok(())
}
