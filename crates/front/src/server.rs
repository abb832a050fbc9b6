//! The front-end server: nonblocking accept loop, `poll(2)` event loops
//! multiplexing client connections, a batcher thread draining the coalescing
//! queue into [`Engine::serve_front`], and zero-downtime engine reloads.
//!
//! Threading model (all plain `std` threads, no async runtime):
//!
//! * **acceptor** — nonblocking listener; accepted connections are handed
//!   round-robin to the event loops through per-loop mailboxes + wake pipes.
//! * **event loops (`FrontConfig::loops`)** — each owns its connections: reads
//!   frames incrementally ([`p2h_net::wire::frame_from_buf`]), answers
//!   handshakes/metrics inline, pushes queries through admission into the
//!   coalescing queue, and flushes buffered replies under `POLLOUT`. A stalled or
//!   hostile client can therefore never block another connection.
//! * **batcher** — forms per-index batches under the `max_batch`/`max_delay`
//!   policy and serves them through [`Engine::serve_front`]; replies are routed
//!   back to each connection's event loop as completions.
//!
//! Answers are **bit-identical** to serving each query alone: the batch executor
//! guarantees batch ≡ sequential, and per-query parameters travel as one override
//! per position. Failures are always typed ([`p2h_net::ErrorCode`]) — admission
//! sheds with `Overloaded`, queue-lapsed deadlines with `DeadlineExceeded`,
//! never a silent drop or a hang.
//!
//! Fault sites `front.accept`, `front.read`, `front.write`, and `front.queue`
//! (`P2H_FAULTS`) inject failures at the accept, socket-read, socket-write, and
//! admission boundaries for the chaos suite.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use p2h_core::{HyperplaneQuery, SearchParams};
use p2h_engine::{BatchRequest, Engine};
use p2h_net::wire::{frame_bytes, frame_from_buf};
use p2h_net::{ensure_reuseaddr, ErrorCode, Message, NetError, PROTOCOL_VERSION};
use p2h_obs::{fault, FaultKind};

use crate::config::FrontConfig;
use crate::metrics::FrontMetrics;
use crate::poll::{PollSet, WakePipe, Waker, POLL_ERR, POLL_HUP, POLL_IN, POLL_OUT};
use crate::queue::{CoalesceQueue, Pending};

/// How the poll loops cap a sleep so shutdown flags are observed promptly.
const POLL_TICK_MS: i32 = 25;

/// A reply addressed to one connection of one event loop.
type Completion = (u64, Message);

/// Per-event-loop shared state: the mailboxes other threads fill, plus the waker
/// that interrupts the loop's poll sleep after filling one.
struct LoopShared {
    /// Freshly accepted connections from the acceptor.
    incoming: Mutex<Vec<TcpStream>>,
    /// Replies from the batcher / reload threads.
    inbox: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl LoopShared {
    fn deliver(&self, conn_id: u64, message: Message) {
        self.inbox.lock().expect("loop inbox poisoned").push((conn_id, message));
        self.waker.wake();
    }
}

/// Where reloads cold-start fresh engines from.
struct ReloadSource {
    dir: PathBuf,
    threads: usize,
}

/// State shared by every thread of one front-end server.
struct Shared {
    /// The serving engine. Reload swaps the `Arc` under the write lock; in-flight
    /// batches keep serving their clone — there is no torn state to observe.
    engine: RwLock<Arc<Engine>>,
    reload: Option<ReloadSource>,
    queue: CoalesceQueue,
    metrics: FrontMetrics,
    loops: Vec<LoopShared>,
    shutdown: AtomicBool,
}

impl Shared {
    fn current_engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine.read().expect("engine lock poisoned"))
    }
}

/// A running front-end. Dropping the handle shuts every thread down.
pub struct FrontHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for FrontHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontHandle").field("addr", &self.addr).finish()
    }
}

impl FrontHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine currently serving (post-reload handles reflect the swap).
    pub fn engine(&self) -> Arc<Engine> {
        self.shared.current_engine()
    }

    /// Stops accepting, drains the queue, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.shutdown();
        for lane in &self.shared.loops {
            lane.waker.wake();
        }
        for thread in self.threads.drain(..) {
            thread.join().ok();
        }
    }
}

impl Drop for FrontHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The front-end server: an [`Engine`] plus the serving configuration.
pub struct FrontServer {
    engine: Arc<Engine>,
    reload: Option<ReloadSource>,
    config: FrontConfig,
}

impl std::fmt::Debug for FrontServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontServer").field("config", &self.config).finish()
    }
}

impl FrontServer {
    /// Fronts an engine built elsewhere (tests, embedded serving). Reload requests
    /// get a typed error — there is no store to cold-start from.
    pub fn new(engine: Arc<Engine>, config: FrontConfig) -> Self {
        Self { engine, reload: None, config }
    }

    /// Cold-starts an engine from a `p2h-store` snapshot directory (load mode from
    /// `P2H_STORE_MMAP`, like [`Engine::from_store`]) and remembers the directory so
    /// `Reload` requests can cold-start a fresh engine and swap it in under
    /// traffic.
    pub fn from_store(
        dir: impl Into<PathBuf>,
        config: FrontConfig,
    ) -> Result<Self, p2h_store::StoreError> {
        let dir = dir.into();
        let engine = Arc::new(Engine::from_store(&dir, config.threads)?);
        Ok(Self { engine, reload: Some(ReloadSource { dir, threads: config.threads }), config })
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or spawning threads.
    pub fn serve(self, addr: &str) -> std::io::Result<FrontHandle> {
        let listener = TcpListener::bind(addr)?;
        // Restart harnesses re-bind this exact port right after a kill; make the
        // TIME_WAIT-proofing explicit instead of relying on std's default.
        ensure_reuseaddr(&listener)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let loop_count = self.config.effective_loops();
        let mut pipes = Vec::with_capacity(loop_count);
        let mut lanes = Vec::with_capacity(loop_count);
        for _ in 0..loop_count {
            let pipe = WakePipe::new()?;
            lanes.push(LoopShared {
                incoming: Mutex::new(Vec::new()),
                inbox: Mutex::new(Vec::new()),
                waker: pipe.waker()?,
            });
            pipes.push(pipe);
        }
        let shared = Arc::new(Shared {
            engine: RwLock::new(self.engine),
            reload: self.reload,
            queue: CoalesceQueue::new(
                self.config.queue_depth,
                self.config.max_batch,
                self.config.max_delay,
            ),
            metrics: FrontMetrics::new(),
            loops: lanes,
            shutdown: AtomicBool::new(false),
        });

        let mut threads = Vec::with_capacity(loop_count + 2);
        for (loop_id, pipe) in pipes.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("p2h-front-loop-{loop_id}"))
                    .spawn(move || event_loop(loop_id, &pipe, &shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("p2h-front-batcher".into())
                    .spawn(move || batcher_loop(&shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("p2h-front-accept-{bound}"))
                    .spawn(move || accept_loop(listener, &shared))?,
            );
        }
        Ok(FrontHandle { addr: bound, shared, threads })
    }
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

fn accept_loop(listener: TcpListener, shared: &Shared) {
    let mut next_loop = 0usize;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                match fault::check("front.accept") {
                    Some(FaultKind::Refuse) | Some(FaultKind::Disconnect) => {
                        // Drop the accepted socket: the client sees a hangup and
                        // must retry; no partial state exists to clean up.
                        drop(stream);
                        continue;
                    }
                    Some(FaultKind::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                    _ => {}
                }
                shared.metrics.connections.inc();
                let lane = &shared.loops[next_loop];
                next_loop = (next_loop + 1) % shared.loops.len();
                lane.incoming.lock().expect("incoming poisoned").push(stream);
                lane.waker.wake();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

// ---------------------------------------------------------------------------
// Event loops
// ---------------------------------------------------------------------------

/// One multiplexed client connection.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into complete frames.
    read_buf: Vec<u8>,
    /// Encoded reply frames not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Close after the write buffer drains (post-error courtesy reply).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self { stream, read_buf: Vec::new(), write_buf: Vec::new(), close_after_flush: false }
    }

    fn queue_reply(&mut self, message: &Message) {
        self.write_buf.extend_from_slice(&frame_bytes(message));
    }
}

fn event_loop(loop_id: usize, pipe: &WakePipe, shared: &Arc<Shared>) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id = 0u64;
    let mut poll = PollSet::new();
    let mut dead = Vec::new();

    while !shared.shutdown.load(Ordering::SeqCst) {
        let lane = &shared.loops[loop_id];
        // Adopt freshly accepted connections.
        for stream in lane.incoming.lock().expect("incoming poisoned").drain(..) {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            conns.insert(next_conn_id, Conn::new(stream));
            next_conn_id += 1;
        }
        // Deliver batcher/reload completions into write buffers.
        for (conn_id, message) in lane.inbox.lock().expect("inbox poisoned").drain(..) {
            if let Some(conn) = conns.get_mut(&conn_id) {
                conn.queue_reply(&message);
            } // else: the client hung up before its answer; nothing to deliver.
        }
        // Opportunistic flush keeps the common case (small reply, empty socket
        // buffer) at one syscall without waiting for a POLLOUT round.
        for (&conn_id, conn) in conns.iter_mut() {
            if !conn.write_buf.is_empty() && !flush_conn(conn) {
                dead.push(conn_id);
            }
        }
        reap(&mut conns, &mut dead);

        // Poll: the wake pipe plus every connection.
        poll.clear();
        let wake_slot = poll.push(pipe.poll_fd(), POLL_IN);
        let mut slots: Vec<(u64, usize)> = Vec::with_capacity(conns.len());
        for (&conn_id, conn) in conns.iter() {
            let mut interest = POLL_IN;
            if !conn.write_buf.is_empty() {
                interest |= POLL_OUT;
            }
            #[cfg(unix)]
            let fd = {
                use std::os::fd::AsRawFd;
                conn.stream.as_raw_fd()
            };
            #[cfg(not(unix))]
            let fd = 0;
            slots.push((conn_id, poll.push(fd, interest)));
        }
        if poll.wait(POLL_TICK_MS).is_err() {
            continue;
        }
        if poll.revents(wake_slot) & POLL_IN != 0 {
            pipe.drain();
        }
        for (conn_id, slot) in slots {
            let revents = poll.revents(slot);
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&conn_id) else { continue };
            let mut alive = true;
            if revents & (POLL_ERR | POLL_HUP) != 0 && revents & POLL_IN == 0 {
                alive = false;
            }
            if alive && revents & POLL_IN != 0 {
                alive = read_conn(loop_id, conn_id, conn, shared);
            }
            if alive && revents & POLL_OUT != 0 {
                alive = flush_conn(conn);
            }
            if alive && conn.close_after_flush && conn.write_buf.is_empty() {
                alive = false;
            }
            if !alive {
                dead.push(conn_id);
            }
        }
        reap(&mut conns, &mut dead);
    }
}

fn reap(conns: &mut HashMap<u64, Conn>, dead: &mut Vec<u64>) {
    for conn_id in dead.drain(..) {
        conns.remove(&conn_id);
    }
}

/// Reads everything currently available and processes complete frames. Returns
/// `false` when the connection must close (EOF, I/O error, poisoned framing).
fn read_conn(loop_id: usize, conn_id: u64, conn: &mut Conn, shared: &Arc<Shared>) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match fault::check("front.read") {
            Some(FaultKind::Disconnect) | Some(FaultKind::Refuse) => return false,
            Some(FaultKind::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultKind::Eintr) => continue, // pretend the read was interrupted
            _ => {}
        }
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                // Clean EOF: process what is already buffered, flush pending
                // replies, then close — never spin on a half-closed socket.
                let ok = process_frames(loop_id, conn_id, conn, shared);
                conn.close_after_flush = true;
                return ok;
            }
            Ok(mut n) => {
                match fault::check("front.read") {
                    Some(FaultKind::Truncate) => {
                        n /= 2; // drop the tail: the framing layer sees a short frame
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        let _ = process_frames(loop_id, conn_id, conn, shared);
                        return false;
                    }
                    Some(FaultKind::Corrupt) if n > 0 => {
                        chunk[n - 1] ^= 0x40; // CRC catches it downstream
                    }
                    _ => {}
                }
                conn.read_buf.extend_from_slice(&chunk[..n]);
                if !process_frames(loop_id, conn_id, conn, shared) {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Parses and dispatches every complete frame in the read buffer. Returns `false`
/// when framing is poisoned and the connection must close.
fn process_frames(loop_id: usize, conn_id: u64, conn: &mut Conn, shared: &Arc<Shared>) -> bool {
    loop {
        match frame_from_buf(&conn.read_buf) {
            Ok(None) => return true,
            Ok(Some((message, consumed))) => {
                conn.read_buf.drain(..consumed);
                handle_message(loop_id, conn_id, conn, shared, message);
                if conn.close_after_flush {
                    return !conn.write_buf.is_empty();
                }
            }
            Err(NetError::Malformed { context }) => {
                // The frame arrived intact (CRC passed) but does not decode: say
                // why, flush, then close — mirrors the shard server's contract.
                conn.queue_reply(&Message::ErrorReply {
                    code: ErrorCode::BadRequest,
                    message: context,
                });
                conn.close_after_flush = true;
                return true;
            }
            Err(_) => return false, // bad magic / CRC / oversized: nothing sane to say
        }
    }
}

fn handle_message(
    loop_id: usize,
    conn_id: u64,
    conn: &mut Conn,
    shared: &Arc<Shared>,
    message: Message,
) {
    match message {
        Message::Hello { version: _ } => {
            // Version negotiation is the client's call; disclose ours plus the
            // registry size (the shard_count field doubles as the entry count —
            // a front-end has no single dim/len to report).
            let engine = shared.current_engine();
            conn.queue_reply(&Message::HelloOk {
                version: PROTOCOL_VERSION,
                shard_count: engine.registry().len() as u32,
                dim: 0,
                total_len: 0,
            });
        }
        Message::Ping { nonce } => conn.queue_reply(&Message::Pong { nonce }),
        Message::FrontQuery { id, index, deadline_ms, query } => {
            shared.metrics.requests.inc();
            let refused = matches!(
                fault::check("front.queue"),
                Some(FaultKind::Refuse) | Some(FaultKind::Disconnect)
            );
            let deadline =
                (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
            let pending = Pending {
                loop_id,
                conn_id,
                request_id: id,
                index,
                deadline,
                query,
                enqueued: Instant::now(),
            };
            let admitted = if refused { Err(pending) } else { shared.queue.push(pending) };
            match admitted {
                Ok(()) => {
                    shared.metrics.queue_depth.set(shared.queue.len() as u64);
                }
                Err(shed) => {
                    // Typed shed, never a silent drop: the client learns
                    // immediately and may retry after backoff.
                    shared.metrics.shed_overloaded.inc();
                    conn.queue_reply(&Message::FrontError {
                        id: shed.request_id,
                        code: ErrorCode::Overloaded,
                        message: "admission queue full".into(),
                    });
                }
            }
        }
        Message::MetricsRequest { id } => {
            let text = shared.current_engine().render_metrics();
            conn.queue_reply(&Message::MetricsReply { id, text });
        }
        Message::Reload { id } => match &shared.reload {
            None => conn.queue_reply(&Message::FrontError {
                id,
                code: ErrorCode::BadRequest,
                message: "this front-end was not started from a store; nothing to reload".into(),
            }),
            Some(_) => {
                // Cold starts take real time: run them off-loop and deliver the
                // outcome as a completion so the event loop never stalls.
                spawn_reload(loop_id, conn_id, id, shared);
            }
        },
        other => conn.queue_reply(&Message::ErrorReply {
            code: ErrorCode::BadRequest,
            message: format!("unexpected message: {other:?}"),
        }),
    }
}

/// Flushes as much of the write buffer as the socket accepts. Returns `false` when
/// the connection must close.
fn flush_conn(conn: &mut Conn) -> bool {
    match fault::check("front.write") {
        Some(FaultKind::Disconnect) | Some(FaultKind::Refuse) => return false,
        Some(FaultKind::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(FaultKind::Corrupt) => {
            // Flip one byte of the pending frame: the client's CRC check rejects
            // it and its retry path owns recovery.
            if let Some(byte) = conn.write_buf.last_mut() {
                *byte ^= 0x20;
            }
        }
        Some(FaultKind::Truncate) => {
            let keep = conn.write_buf.len() / 2;
            conn.write_buf.truncate(keep);
            conn.close_after_flush = true;
        }
        _ => {}
    }
    let mut written = 0usize;
    let result = loop {
        if written == conn.write_buf.len() {
            break true;
        }
        match (&conn.stream).write(&conn.write_buf[written..]) {
            Ok(0) => break false,
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break false,
        }
    };
    conn.write_buf.drain(..written);
    result
}

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

fn batcher_loop(shared: &Shared) {
    while let Some(take) = shared.queue.next_batch() {
        shared.metrics.queue_depth.set(shared.queue.len() as u64);
        for lapsed in take.expired {
            shared.metrics.shed_deadline.inc();
            shared.loops[lapsed.loop_id].deliver(
                lapsed.conn_id,
                Message::FrontError {
                    id: lapsed.request_id,
                    code: ErrorCode::DeadlineExceeded,
                    message: "deadline expired in the coalescing queue".into(),
                },
            );
        }
        if take.items.is_empty() {
            continue;
        }
        serve_batch(shared, &take.index, take.items);
    }
}

/// Serves one coalesced batch and routes each reply to its connection.
fn serve_batch(shared: &Shared, index: &str, items: Vec<Pending>) {
    // Decode every wire query up front; a malformed one (non-finite norm, …) gets
    // its own typed error and must not poison its batch-mates.
    let mut queries: Vec<HyperplaneQuery> = Vec::with_capacity(items.len());
    let mut accepted: Vec<Pending> = Vec::with_capacity(items.len());
    for pending in items {
        match pending.query.to_query() {
            Ok(query) => {
                queries.push(query);
                accepted.push(pending);
            }
            Err(e) => shared.loops[pending.loop_id].deliver(
                pending.conn_id,
                Message::FrontError {
                    id: pending.request_id,
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                },
            ),
        }
    }
    if accepted.is_empty() {
        return;
    }
    let engine = shared.current_engine();
    let request = batch_request(queries, accepted.iter().map(|pending| &pending.query.params));
    // Queue wait ends where service begins: stamped before the engine call.
    let dispatched = Instant::now();
    match engine.serve_front(index, &request) {
        Ok(response) => {
            shared.metrics.batches.inc();
            shared.metrics.batch_size.record(accepted.len() as u64);
            for (pending, result) in accepted.into_iter().zip(response.results) {
                shared.metrics.queue_wait_ns.record(
                    dispatched.saturating_duration_since(pending.enqueued).as_nanos() as u64,
                );
                shared.loops[pending.loop_id].deliver(
                    pending.conn_id,
                    Message::FrontReply { id: pending.request_id, result },
                );
            }
        }
        Err(error) if accepted.len() > 1 => {
            // Whole-batch validation failure (one query's dimension is off, an
            // override is out of range): isolate it by serving each query alone so
            // the error lands only on the request that caused it.
            for pending in accepted {
                serve_batch(shared, index, vec![pending]);
            }
            drop(error);
        }
        Err(error) => {
            let pending = accepted.into_iter().next().expect("non-empty");
            shared.loops[pending.loop_id].deliver(
                pending.conn_id,
                Message::FrontError {
                    id: pending.request_id,
                    code: ErrorCode::BadRequest,
                    message: error.to_string(),
                },
            );
        }
    }
}

/// The engine request for one coalesced batch: the first query's parameters are the
/// batch default, and only a position whose parameters differ carries an override. A
/// uniform batch carries none, so the engine resolves every position in O(1).
fn batch_request<'a>(
    queries: Vec<HyperplaneQuery>,
    params: impl IntoIterator<Item = &'a SearchParams>,
) -> BatchRequest {
    let mut params = params.into_iter().enumerate();
    let (_, first) = params.next().expect("a coalesced batch is never empty");
    let mut request = BatchRequest::new(queries, first.clone());
    for (position, own) in params {
        if *own != request.default_params {
            request.overrides.push((position, own.clone()));
        }
    }
    request
}

// ---------------------------------------------------------------------------
// Reload
// ---------------------------------------------------------------------------

/// Cold-starts a fresh engine from the remembered store directory on a one-off
/// thread and swaps it in; the requesting connection gets `ReloadOk` (or a typed
/// error) as a completion. Queries racing the swap serve on whichever engine
/// their batch captured — both answer bit-identically from the same store.
fn spawn_reload(loop_id: usize, conn_id: u64, request_id: u64, shared: &Arc<Shared>) {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("p2h-front-reload".into())
        .spawn(move || {
            let source = shared.reload.as_ref().expect("caller checked");
            let outcome = Engine::from_store(&source.dir, source.threads);
            let message = match outcome {
                Ok(fresh) => {
                    let entries = fresh.registry().len() as u32;
                    *shared.engine.write().expect("engine lock poisoned") = Arc::new(fresh);
                    shared.metrics.reloads.inc();
                    Message::ReloadOk { id: request_id, entries }
                }
                Err(e) => Message::FrontError {
                    id: request_id,
                    code: ErrorCode::Internal,
                    message: format!("reload failed; still serving the previous engine: {e}"),
                },
            };
            shared.loops[loop_id].deliver(conn_id, message);
        })
        .ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queries(n: usize) -> Vec<HyperplaneQuery> {
        (0..n)
            .map(|i| HyperplaneQuery::from_normal_and_bias(&[1.0, i as f32], 0.5).unwrap())
            .collect()
    }

    #[test]
    fn a_uniform_batch_carries_no_overrides() {
        let exact = SearchParams::exact(10);
        let request = batch_request(queries(5), [&exact; 5]);
        assert_eq!(request.default_params, exact);
        assert!(request.overrides.is_empty());
        assert!((0..5).all(|position| request.params_for(position) == &exact));
    }

    #[test]
    fn a_mixed_batch_overrides_exactly_the_differing_positions() {
        let (exact, budgeted) = (SearchParams::exact(10), SearchParams::approximate(5, 64));
        let params = [&exact, &budgeted, &exact, &exact, &budgeted];
        let request = batch_request(queries(5), params);
        assert_eq!(request.default_params, exact);
        assert_eq!(request.overrides, vec![(1, budgeted.clone()), (4, budgeted.clone())]);
        for (position, want) in params.into_iter().enumerate() {
            assert_eq!(request.params_for(position), want, "position {position}");
        }
    }
}
