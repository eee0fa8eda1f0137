//! TCP serving frontend: framed wire protocol, connection lifecycle,
//! per-tenant rate classes, and idle reaping.
//!
//! [`NetServer`] multiplexes many client connections onto one
//! [`SharkServer`]: each accepted socket gets a dedicated handler thread
//! and its own [`SessionHandle`], so the *existing* serving-layer
//! controls — admission queueing, per-session memory quotas, the shared
//! prefetch budget and the plan cache — govern wire traffic with no new
//! policy code. Three properties the frontend adds:
//!
//! * **Client-paced backpressure.** Result partitions stream as
//!   [`frame::Frame::ResultBatch`] frames over blocking writes; a slow
//!   client stalls the write, which stalls the cursor's `next_batch` loop,
//!   and the query's run-ahead stays bounded by the prefetch grant the
//!   cursor took from [`crate::ServerConfig::max_total_prefetch`]. No
//!   unbounded result buffering anywhere in the server.
//! * **Idle reaping on a deadline wheel.** Connections are filed on a
//!   coarse-tick deadline wheel keyed by their idle deadline; the
//!   reaper thread lazily re-checks `last_active` on expiry (activity
//!   just re-files the entry, it never touches the wheel on the hot
//!   path) and force-closes true idlers with `TcpStream::shutdown`, which
//!   errors the handler out of its blocking read.
//! * **Per-tenant rate classes.** The Hello handshake names a tenant;
//!   its [`RateClass`] sets the session's streaming prefetch depth, the
//!   result-batch row cap and the idle timeout — layered on top of the
//!   per-session memory quota, which is enforced by session id exactly as
//!   for embedded sessions.
//!
//! Cancellation is polled between batches: the handler peeks the socket
//! for a buffered [`frame::Frame::Cancel`] before each write, so a client
//! can abandon an expensive query without tearing down its connection.
//! A client that *does* disconnect mid-stream surfaces as a write error;
//! dropping the cursor releases its permit, pins and prefetch grant
//! ([`crate::QueryCursor`]'s idempotent finalize), so an abandoned query
//! leaks nothing — `examples/server_tcp.rs` and the CI `net-smoke` job
//! assert exactly that from the [`crate::ServerReport`] gauges.

pub mod frame;

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use shark_common::{Result, Row, SharkError};
use shark_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::server::{SessionHandle, SharkServer};
use frame::{Frame, FrameError};

/// The `shark_net_*` family, registered in the owning server's registry:
/// the frontend counts into it and [`crate::ServerReport`] reads it back.
/// Registered when the server boots, so the report carries the
/// `connections_*` / `wire_bytes_*` / `net_*` fields (all zero) before
/// `serve` is called.
pub(crate) struct NetMetrics {
    pub(crate) opened: Arc<Counter>,
    pub(crate) closed: Arc<Counter>,
    pub(crate) reaped: Arc<Counter>,
    active: Arc<Gauge>,
    pub(crate) bytes_sent: Arc<Counter>,
    pub(crate) bytes_received: Arc<Counter>,
    pub(crate) frames_sent: Arc<Counter>,
    pub(crate) frames_received: Arc<Counter>,
    pub(crate) protocol_errors: Arc<Counter>,
    pub(crate) auth_failures: Arc<Counter>,
    pub(crate) queries: Arc<Counter>,
    pub(crate) prepared: Arc<Counter>,
    pub(crate) cancels: Arc<Counter>,
    frame_bytes: Arc<Histogram>,
}

impl NetMetrics {
    pub(crate) fn new(reg: &MetricsRegistry) -> NetMetrics {
        NetMetrics {
            opened: reg.counter(
                "shark_net_connections_opened_total",
                "TCP connections accepted by the serving frontend",
            ),
            closed: reg.counter(
                "shark_net_connections_closed_total",
                "TCP connections fully torn down (client close, error, or reap)",
            ),
            reaped: reg.counter(
                "shark_net_connections_reaped_total",
                "Connections force-closed by the idle-deadline reaper",
            ),
            active: reg.gauge(
                "shark_net_connections_active",
                "TCP connections currently open",
            ),
            bytes_sent: reg.counter(
                "shark_net_bytes_sent_total",
                "Frame bytes (header + payload) written to client sockets",
            ),
            bytes_received: reg.counter(
                "shark_net_bytes_received_total",
                "Frame bytes (header + payload) read from client sockets",
            ),
            frames_sent: reg.counter(
                "shark_net_frames_sent_total",
                "Protocol frames written to client sockets",
            ),
            frames_received: reg.counter(
                "shark_net_frames_received_total",
                "Protocol frames read from client sockets",
            ),
            protocol_errors: reg.counter(
                "shark_net_protocol_errors_total",
                "Malformed frames that closed their connection",
            ),
            auth_failures: reg.counter(
                "shark_net_auth_failures_total",
                "Hello handshakes rejected (magic, version, or token)",
            ),
            queries: reg.counter(
                "shark_net_queries_total",
                "Query and Execute frames processed",
            ),
            prepared: reg.counter(
                "shark_net_prepared_statements_total",
                "Prepare frames that registered a statement",
            ),
            cancels: reg.counter("shark_net_cancels_total", "Cancel frames honored mid-query"),
            frame_bytes: reg.histogram(
                "shark_net_frame_bytes",
                "Size distribution of frames written to clients",
                shark_obs::WIRE_BUCKETS,
            ),
        }
    }

    fn connection_opened(&self) {
        self.opened.inc();
        self.active.add(1);
    }

    fn connection_closed(&self) {
        self.closed.inc();
        self.active.add(-1);
    }

    fn frame_sent(&self, bytes: u64) {
        self.frames_sent.inc();
        self.bytes_sent.add(bytes);
        self.frame_bytes.observe(bytes as f64);
    }

    fn frame_received(&self, bytes: u64) {
        self.frames_received.inc();
        self.bytes_received.add(bytes);
    }

    /// Connections currently open.
    pub(crate) fn active(&self) -> u64 {
        self.active.get().max(0) as u64
    }
}

/// A tenant's serving parameters, selected by the Hello handshake's tenant
/// name and layered on top of the per-session memory quota.
#[derive(Debug, Clone)]
pub struct RateClass {
    /// Tenant name clients put in their Hello frame.
    pub name: String,
    /// Streaming prefetch depth requested for the tenant's sessions
    /// (still clamped under the server-wide prefetch budget).
    pub stream_prefetch: usize,
    /// Max rows per [`Frame::ResultBatch`]; smaller classes pace slow
    /// consumers harder.
    pub max_batch_rows: usize,
    /// Idle deadline for the tenant's connections.
    pub idle_timeout: Duration,
}

impl Default for RateClass {
    fn default() -> RateClass {
        RateClass {
            name: "default".to_string(),
            stream_prefetch: 2,
            max_batch_rows: 1024,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Configuration for [`SharkServer::serve`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Hard cap on concurrently open connections; excess accepts are
    /// answered with an Error frame and closed immediately.
    pub max_connections: usize,
    /// Shared-secret token Hello must present; `None` disables auth.
    pub auth_token: Option<String>,
    /// Granularity of the idle-reaper's deadline wheel.
    pub reap_tick: Duration,
    /// Serving parameters for tenants not naming a configured rate class.
    pub default_class: RateClass,
    /// Named per-tenant rate classes.
    pub rate_classes: Vec<RateClass>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 1024,
            auth_token: None,
            reap_tick: Duration::from_millis(100),
            default_class: RateClass::default(),
            rate_classes: Vec::new(),
        }
    }
}

impl NetConfig {
    /// Bind address (e.g. `"127.0.0.1:4848"`).
    pub fn with_addr(mut self, addr: impl Into<String>) -> NetConfig {
        self.addr = addr.into();
        self
    }

    /// Cap concurrently open connections.
    pub fn with_max_connections(mut self, max: usize) -> NetConfig {
        self.max_connections = max;
        self
    }

    /// Require this shared-secret token in every Hello.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> NetConfig {
        self.auth_token = Some(token.into());
        self
    }

    /// Idle timeout for the default rate class.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> NetConfig {
        self.default_class.idle_timeout = timeout;
        self
    }

    /// Deadline-wheel tick (reaper wake-up granularity).
    pub fn with_reap_tick(mut self, tick: Duration) -> NetConfig {
        self.reap_tick = tick;
        self
    }

    /// Max rows per result batch for the default rate class.
    pub fn with_max_batch_rows(mut self, rows: usize) -> NetConfig {
        self.default_class.max_batch_rows = rows;
        self
    }

    /// Register a named per-tenant rate class.
    pub fn with_rate_class(mut self, class: RateClass) -> NetConfig {
        self.rate_classes.push(class);
        self
    }

    fn class_for(&self, tenant: &str) -> RateClass {
        self.rate_classes
            .iter()
            .find(|c| c.name == tenant)
            .cloned()
            .unwrap_or_else(|| self.default_class.clone())
    }
}

/// One live connection's shared state: what the reaper and the handler
/// both need to see.
struct ConnState {
    /// Clone of the handler's socket, used by the reaper/shutdown to
    /// `shutdown()` it (erroring the handler out of a blocking read).
    stream: TcpStream,
    /// Milliseconds since server start of the last frame received.
    last_active_ms: AtomicU64,
    /// This connection's idle deadline distance — the default class's
    /// until the handshake names a tenant, that tenant's after.
    idle_timeout_ms: AtomicU64,
}

/// Coarse-tick timer wheel of connection idle deadlines. Insertions hash
/// the deadline onto a slot; expiry lazily re-checks the connection's
/// `last_active` and re-files entries that saw traffic since — so the
/// receive hot path never touches the wheel, it only stores a timestamp.
struct DeadlineWheel {
    slots: Vec<Mutex<Vec<u64>>>,
    tick_ms: u64,
}

impl DeadlineWheel {
    fn new(tick: Duration, slots: usize) -> DeadlineWheel {
        DeadlineWheel {
            slots: (0..slots.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            tick_ms: tick.as_millis().max(1) as u64,
        }
    }

    fn tick_of(&self, at_ms: u64) -> u64 {
        at_ms / self.tick_ms
    }

    fn insert(&self, conn_id: u64, deadline_ms: u64) {
        let slot = (self.tick_of(deadline_ms) as usize) % self.slots.len();
        self.slots[slot].lock().push(conn_id);
    }

    fn drain_tick(&self, tick: u64) -> Vec<u64> {
        let slot = (tick as usize) % self.slots.len();
        std::mem::take(&mut *self.slots[slot].lock())
    }
}

/// The running TCP frontend: accept loop, per-connection handler threads
/// and the idle reaper. Dropping it (or calling [`NetServer::shutdown`])
/// stops accepting, force-closes every connection and joins all threads —
/// after which [`NetServer::active_connections`] is zero or the teardown failed.
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    reaper_thread: Option<JoinHandle<()>>,
    shared: Arc<NetShared>,
}

struct NetShared {
    server: SharkServer,
    config: NetConfig,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    connections: Mutex<HashMap<u64, Arc<ConnState>>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    next_conn_id: AtomicU64,
    wheel: DeadlineWheel,
}

impl NetShared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn counters(&self) -> &NetMetrics {
        self.server.net_metrics()
    }
}

impl NetServer {
    /// Bind `config.addr` and start serving `server` over TCP.
    pub fn start(server: SharkServer, config: NetConfig) -> Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| SharkError::Config(format!("bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| SharkError::Config(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| SharkError::Config(format!("set_nonblocking: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let wheel = DeadlineWheel::new(config.reap_tick, 64);
        let shared = Arc::new(NetShared {
            server,
            config,
            epoch: Instant::now(),
            shutdown: shutdown.clone(),
            connections: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(1),
            wheel,
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("shark-net-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| SharkError::Config(format!("spawn accept thread: {e}")))?;
        let reaper_shared = shared.clone();
        let reaper_thread = std::thread::Builder::new()
            .name("shark-net-reaper".to_string())
            .spawn(move || reaper_loop(reaper_shared))
            .map_err(|e| SharkError::Config(format!("spawn reaper thread: {e}")))?;
        Ok(NetServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            reaper_thread: Some(reaper_thread),
            shared,
        })
    }

    /// The bound address (read the OS-assigned port back when binding
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> u64 {
        self.shared.counters().active()
    }

    /// Stop accepting, force-close every open connection, and join the
    /// accept, reaper, and handler threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for conn in self.shared.connections.lock().values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reaper_thread.take() {
            let _ = t.join();
        }
        let handlers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.handlers.lock());
        for t in handlers {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<NetShared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let counters = shared.counters();
                counters.connection_opened();
                if shared.counters().active() > shared.config.max_connections as u64 {
                    // Over capacity: answer with an Error frame and close.
                    let _ = send_frame(
                        &stream,
                        counters,
                        &Frame::Error {
                            kind: "capacity".to_string(),
                            message: "server at connection capacity".to_string(),
                        },
                    );
                    let _ = stream.shutdown(Shutdown::Both);
                    counters.connection_closed();
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let registry_stream = match stream.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => {
                        counters.connection_closed();
                        continue;
                    }
                };
                let conn = Arc::new(ConnState {
                    stream: registry_stream,
                    last_active_ms: AtomicU64::new(shared.now_ms()),
                    idle_timeout_ms: AtomicU64::new(
                        shared.config.default_class.idle_timeout.as_millis() as u64,
                    ),
                });
                shared.connections.lock().insert(id, conn.clone());
                shared.wheel.insert(
                    id,
                    shared.now_ms() + conn.idle_timeout_ms.load(Ordering::Relaxed),
                );
                let handler_shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("shark-net-conn-{id}"))
                    .spawn(move || {
                        handle_connection(stream, conn, handler_shared.clone());
                        handler_shared.connections.lock().remove(&id);
                        handler_shared.counters().connection_closed();
                    });
                match handle {
                    Ok(handle) => shared.handlers.lock().push(handle),
                    Err(_) => {
                        shared.connections.lock().remove(&id);
                        counters.connection_closed();
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                reap_finished_handlers(&shared);
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Join handler threads that already exited, so a long-lived server's
/// handle list tracks open connections instead of growing forever.
fn reap_finished_handlers(shared: &NetShared) {
    let mut finished = Vec::new();
    {
        let mut handlers = shared.handlers.lock();
        let mut i = 0;
        while i < handlers.len() {
            if handlers[i].is_finished() {
                finished.push(handlers.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
    for handle in finished {
        let _ = handle.join();
    }
}

fn reaper_loop(shared: Arc<NetShared>) {
    let tick_ms = shared.config.reap_tick.as_millis().max(1) as u64;
    let mut next_tick = shared.now_ms() / tick_ms;
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(shared.config.reap_tick);
        let now_ms = shared.now_ms();
        let now_tick = now_ms / tick_ms;
        // Process every tick that elapsed, but at most one full lap —
        // beyond that the slots repeat and a second pass is a no-op.
        let laps = (now_tick.saturating_sub(next_tick) + 1).min(shared.wheel.slots.len() as u64);
        for t in 0..laps {
            for conn_id in shared.wheel.drain_tick(next_tick + t) {
                let Some(conn) = shared.connections.lock().get(&conn_id).cloned() else {
                    continue; // already closed; entry lapses
                };
                let last = conn.last_active_ms.load(Ordering::Relaxed);
                let deadline = last + conn.idle_timeout_ms.load(Ordering::Relaxed);
                if now_ms >= deadline {
                    // Truly idle past its deadline: force-close. The
                    // handler's blocking read errors out and tears the
                    // connection down (counting `closed` itself).
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    shared.counters().reaped.inc();
                } else {
                    // Saw traffic since it was filed: re-file at the
                    // deadline its current activity implies.
                    shared.wheel.insert(conn_id, deadline);
                }
            }
        }
        next_tick = now_tick + 1;
    }
}

/// Write one frame to the socket, feeding the counters.
fn send_frame(mut stream: &TcpStream, counters: &NetMetrics, frame: &Frame) -> io::Result<()> {
    let bytes = frame::write_frame(&mut stream, frame)?;
    counters.frame_sent(bytes);
    Ok(())
}

/// What the between-batches poll of the client socket found.
enum ClientSignal {
    /// Nothing buffered; keep streaming.
    Idle,
    /// A buffered Cancel frame.
    Cancel,
    /// A buffered Close frame (cancel, then hang up).
    Close,
    /// Disconnected or sent garbage mid-query.
    Abort,
}

/// Peek the socket for a buffered client frame without blocking the
/// stream. A complete or in-flight frame is consumed (the tail read
/// blocks only for bytes the client has already committed to sending).
fn poll_client(stream: &TcpStream, counters: &NetMetrics) -> ClientSignal {
    if stream.set_nonblocking(true).is_err() {
        return ClientSignal::Abort;
    }
    let mut probe = [0u8; 1];
    let peeked = stream.peek(&mut probe);
    if stream.set_nonblocking(false).is_err() {
        return ClientSignal::Abort;
    }
    match peeked {
        Ok(0) => ClientSignal::Abort, // orderly disconnect mid-query
        Ok(_) => match frame::read_frame(&mut &*stream) {
            Ok((frame, bytes)) => {
                counters.frame_received(bytes);
                match frame {
                    Frame::Cancel => ClientSignal::Cancel,
                    Frame::Close => ClientSignal::Close,
                    _ => {
                        counters.protocol_errors.inc();
                        ClientSignal::Abort
                    }
                }
            }
            Err(FrameError::Io(_)) => ClientSignal::Abort,
            Err(FrameError::Protocol(_)) => {
                counters.protocol_errors.inc();
                ClientSignal::Abort
            }
        },
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => ClientSignal::Idle,
        Err(_) => ClientSignal::Abort,
    }
}

/// What a request handler decided about the connection's future.
enum After {
    /// Keep serving requests.
    Continue,
    /// Tear the connection down (client close, disconnect, or protocol
    /// violation — already counted).
    Hangup,
}

fn handle_connection(stream: TcpStream, conn: Arc<ConnState>, shared: Arc<NetShared>) {
    let counters = shared.counters();

    // --- Handshake -------------------------------------------------------
    let hello = match frame::read_frame(&mut &stream) {
        Ok((frame, bytes)) => {
            counters.frame_received(bytes);
            frame
        }
        Err(FrameError::Io(_)) => return,
        Err(FrameError::Protocol(_)) => {
            counters.protocol_errors.inc();
            let _ = send_frame(
                &stream,
                counters,
                &Frame::Error {
                    kind: "protocol".to_string(),
                    message: "malformed handshake frame".to_string(),
                },
            );
            return;
        }
    };
    let (token, tenant) = match hello {
        Frame::Hello { token, tenant } => (token, tenant),
        _ => {
            counters.protocol_errors.inc();
            let _ = send_frame(
                &stream,
                counters,
                &Frame::Error {
                    kind: "protocol".to_string(),
                    message: "expected Hello as the first frame".to_string(),
                },
            );
            return;
        }
    };
    if let Some(expected) = &shared.config.auth_token {
        if &token != expected {
            counters.auth_failures.inc();
            let _ = send_frame(
                &stream,
                counters,
                &Frame::Error {
                    kind: "auth".to_string(),
                    message: "invalid auth token".to_string(),
                },
            );
            return;
        }
    }
    let class = shared.config.class_for(&tenant);
    let mut session = shared.server.session();
    session.set_stream_prefetch(class.stream_prefetch);
    conn.idle_timeout_ms.store(
        class.idle_timeout.as_millis().max(1) as u64,
        Ordering::Relaxed,
    );
    conn.last_active_ms
        .store(shared.now_ms(), Ordering::Relaxed);
    if send_frame(
        &stream,
        counters,
        &Frame::HelloOk {
            session_id: session.id(),
            version: frame::PROTOCOL_VERSION,
        },
    )
    .is_err()
    {
        return;
    }

    // --- Request loop ----------------------------------------------------
    let mut prepared: HashMap<u64, String> = HashMap::new();
    let mut next_statement_id: u64 = 1;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request = match frame::read_frame(&mut &stream) {
            Ok((frame, bytes)) => {
                counters.frame_received(bytes);
                conn.last_active_ms
                    .store(shared.now_ms(), Ordering::Relaxed);
                frame
            }
            // Disconnect, reap, or torn frame: the reaper already counted
            // itself; either way the connection is done.
            Err(FrameError::Io(_)) => return,
            Err(FrameError::Protocol(msg)) => {
                counters.protocol_errors.inc();
                let _ = send_frame(
                    &stream,
                    counters,
                    &Frame::Error {
                        kind: "protocol".to_string(),
                        message: msg,
                    },
                );
                return;
            }
        };
        let after = match request {
            Frame::Query { sql } => {
                counters.queries.inc();
                run_statement(&stream, counters, &session, &class, &sql)
            }
            Frame::Prepare { sql } => match session.parse_statement(&sql) {
                Ok(_) => {
                    counters.prepared.inc();
                    let statement_id = next_statement_id;
                    next_statement_id += 1;
                    let fingerprint = shark_sql::statement_fingerprint(&sql);
                    prepared.insert(statement_id, sql);
                    match send_frame(
                        &stream,
                        counters,
                        &Frame::Prepared {
                            statement_id,
                            fingerprint,
                        },
                    ) {
                        Ok(()) => After::Continue,
                        Err(_) => After::Hangup,
                    }
                }
                Err(err) => send_error(&stream, counters, &err),
            },
            Frame::Execute { statement_id } => match prepared.get(&statement_id).cloned() {
                Some(sql) => {
                    counters.queries.inc();
                    run_statement(&stream, counters, &session, &class, &sql)
                }
                None => {
                    let err = SharkError::Execution(format!(
                        "unknown prepared statement id {statement_id}"
                    ));
                    send_error(&stream, counters, &err)
                }
            },
            // A Cancel with nothing in flight is a no-op, not an error:
            // the query it raced may have finished a moment ago.
            Frame::Cancel => After::Continue,
            Frame::Close => After::Hangup,
            _ => {
                counters.protocol_errors.inc();
                let _ = send_frame(
                    &stream,
                    counters,
                    &Frame::Error {
                        kind: "protocol".to_string(),
                        message: "unexpected server-to-client frame type".to_string(),
                    },
                );
                After::Hangup
            }
        };
        if matches!(after, After::Hangup) {
            return;
        }
    }
}

/// Send an Error frame for a failed statement; the connection survives.
fn send_error(stream: &TcpStream, counters: &NetMetrics, err: &SharkError) -> After {
    match send_frame(
        stream,
        counters,
        &Frame::Error {
            kind: err.kind().to_string(),
            message: err.to_string(),
        },
    ) {
        Ok(()) => After::Continue,
        Err(_) => After::Hangup,
    }
}

/// Run one statement and stream its results back. SELECTs go through the
/// streaming cursor (client-paced, cancellable between batches); other
/// statements run to completion and return their rows in one pass.
fn run_statement(
    stream: &TcpStream,
    counters: &NetMetrics,
    session: &SessionHandle,
    class: &RateClass,
    sql: &str,
) -> After {
    if is_select(sql) {
        run_streamed(stream, counters, session, class, sql)
    } else {
        run_batch(stream, counters, session, class, sql)
    }
}

fn is_select(sql: &str) -> bool {
    sql.trim_start()
        .get(..6)
        .is_some_and(|head| head.eq_ignore_ascii_case("select"))
}

fn run_batch(
    stream: &TcpStream,
    counters: &NetMetrics,
    session: &SessionHandle,
    class: &RateClass,
    sql: &str,
) -> After {
    let outcome = match session.sql(sql) {
        Ok(outcome) => outcome,
        Err(err) => return send_error(stream, counters, &err),
    };
    if send_frame(
        stream,
        counters,
        &Frame::ResultSchema {
            schema: outcome.result.schema.clone(),
        },
    )
    .is_err()
    {
        return After::Hangup;
    }
    let rows = outcome.result.rows.len() as u64;
    for chunk in outcome.result.rows.chunks(class.max_batch_rows.max(1)) {
        if send_frame(
            stream,
            counters,
            &Frame::ResultBatch {
                rows: chunk.to_vec(),
            },
        )
        .is_err()
        {
            return After::Hangup;
        }
    }
    match send_frame(
        stream,
        counters,
        &Frame::QueryDone {
            rows,
            partitions: 0,
            plan_cache_hit: outcome.metrics.plan_cache_hit,
            sim_seconds: outcome.result.sim_seconds,
            cancelled: false,
        },
    ) {
        Ok(()) => After::Continue,
        Err(_) => After::Hangup,
    }
}

fn run_streamed(
    stream: &TcpStream,
    counters: &NetMetrics,
    session: &SessionHandle,
    class: &RateClass,
    sql: &str,
) -> After {
    let mut cursor = match session.sql_stream(sql) {
        Ok(cursor) => cursor,
        Err(err) => return send_error(stream, counters, &err),
    };
    if send_frame(
        stream,
        counters,
        &Frame::ResultSchema {
            schema: cursor.schema().clone(),
        },
    )
    .is_err()
    {
        return After::Hangup;
    }
    let mut cancelled = false;
    let mut close_after = false;
    let max_rows = class.max_batch_rows.max(1);
    loop {
        // Between batches is the cancellation point: a buffered Cancel or
        // Close stops the stream; dropping the cursor below releases its
        // permit, pins and prefetch grant.
        match poll_client(stream, counters) {
            ClientSignal::Idle => {}
            ClientSignal::Cancel => {
                counters.cancels.inc();
                cancelled = true;
                break;
            }
            ClientSignal::Close => {
                cancelled = true;
                close_after = true;
                break;
            }
            ClientSignal::Abort => return After::Hangup,
        }
        let batch = match cursor.next_batch() {
            Ok(Some(batch)) => batch,
            Ok(None) => break,
            Err(err) => {
                // The cursor finalized itself on the error path.
                return send_error(stream, counters, &err);
            }
        };
        let mut rows: Vec<Row> = batch;
        while !rows.is_empty() {
            let rest = rows.split_off(rows.len().min(max_rows));
            if send_frame(stream, counters, &Frame::ResultBatch { rows }).is_err() {
                // Client went away mid-stream; the cursor drop releases
                // everything it holds.
                return After::Hangup;
            }
            rows = rest;
        }
    }
    let progress = cursor.progress().clone();
    let plan_cache_hit = cursor.plan_cache_hit();
    let sim_seconds = cursor.sim_seconds();
    // Explicit close: releases the admission permit, pins and prefetch
    // grant (and records the query's metrics) before QueryDone is sent,
    // so a client observing QueryDone observes a quiescent server.
    drop(cursor);
    let done = send_frame(
        stream,
        counters,
        &Frame::QueryDone {
            rows: progress.rows_streamed,
            partitions: progress.partitions_streamed as u64,
            plan_cache_hit,
            sim_seconds,
            cancelled,
        },
    );
    match (done, close_after) {
        (Ok(()), false) => After::Continue,
        _ => After::Hangup,
    }
}
