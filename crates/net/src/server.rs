//! The shard server: cold-starts a [`ShardedIndex`] from a snapshot [`Store`] and
//! serves `ShardQuery` frames over TCP.
//!
//! Threading model: one nonblocking accept loop polling a shutdown flag, one
//! detached thread per connection (each with its own reused [`QueryScratch`]).
//! There is no async runtime — a router fans out to at most a handful of shard
//! servers, and a server handles at most a handful of routers, so plain blocking
//! threads are the simplest thing that is obviously correct under `kill -9`.
//!
//! Fault sites `server.accept`, `server.recv`, and `server.send` let the chaos
//! tests make a *healthy* server drop, delay, truncate, or corrupt traffic without
//! touching its index state — the client must recover through retry/hedging and
//! still produce bit-identical answers.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use p2h_core::{HyperplaneQuery, P2hIndex, QueryScratch, SearchParams, SearchResult};
use p2h_obs::fault;
use p2h_obs::FaultKind;
use p2h_shard::ShardedIndex;
use p2h_store::Store;

use crate::error::{ErrorCode, NetError, NetResult};
use crate::metrics::net_metrics;
use crate::wire::{read_frame, write_frame, Message, WireQuery, PROTOCOL_VERSION};

/// A running shard server. Dropping the handle shuts the accept loop down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. Connection threads
    /// are detached and exit when their peer hangs up.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_loop.take() {
            handle.join().ok();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A shard server: the index it cold-started plus the shard ordinals it answers for.
#[derive(Debug)]
pub struct ShardServer {
    index: Arc<ShardedIndex>,
    /// Shard ordinals this process serves; `None` = all of them. A replica deployment
    /// runs several servers with overlapping subsets.
    served: Option<Vec<usize>>,
}

impl ShardServer {
    /// Serves every shard of an in-memory index (tests, single-process setups).
    pub fn new(index: Arc<ShardedIndex>) -> Self {
        Self { index, served: None }
    }

    /// Cold-starts the entry `name` from `store` — epoch resolution and
    /// [`p2h_store::LoadMode`] (copy vs mmap) are whatever the store was opened with.
    pub fn load(store: &Store, name: &str) -> NetResult<Self> {
        let index = ShardedIndex::load_from(store, name).map_err(|e| NetError::InvalidRequest {
            message: format!("cold start of entry '{name}' failed: {e}"),
        })?;
        Ok(Self::new(Arc::new(index)))
    }

    /// Restricts this server to a subset of shard ordinals.
    pub fn with_shards(mut self, shards: Vec<usize>) -> NetResult<Self> {
        let count = self.index.shard_count();
        for &s in &shards {
            if s >= count {
                return Err(NetError::InvalidRequest {
                    message: format!("shard ordinal {s} out of range (entry has {count} shards)"),
                });
            }
        }
        self.served = Some(shards);
        Ok(self)
    }

    /// The served index.
    pub fn index(&self) -> &Arc<ShardedIndex> {
        &self.index
    }

    fn serves(&self, shard: usize) -> bool {
        shard < self.index.shard_count()
            && self.served.as_ref().is_none_or(|subset| subset.contains(&shard))
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving in background threads.
    pub fn serve(self, addr: &str) -> NetResult<ServerHandle> {
        let listener = TcpListener::bind(addr).map_err(NetError::Io)?;
        // Restart harnesses re-bind this exact port right after a kill -9; make the
        // TIME_WAIT-proofing explicit instead of relying on std's default.
        crate::sys::ensure_reuseaddr(&listener).map_err(NetError::Io)?;
        let bound = listener.local_addr().map_err(NetError::Io)?;
        listener.set_nonblocking(true).map_err(NetError::Io)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let server = Arc::new(self);
        let accept_loop = std::thread::Builder::new()
            .name(format!("p2h-net-accept-{bound}"))
            .spawn(move || accept_loop(listener, server, stop))
            .map_err(NetError::Io)?;
        Ok(ServerHandle { addr: bound, shutdown, accept_loop: Some(accept_loop) })
    }
}

fn accept_loop(listener: TcpListener, server: Arc<ShardServer>, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                match fault::check("server.accept") {
                    Some(FaultKind::Refuse) | Some(FaultKind::Disconnect) => {
                        // Drop the accepted socket on the floor: the client sees an
                        // immediate hangup and must retry or fail over.
                        drop(stream);
                        continue;
                    }
                    Some(FaultKind::Slow(ms)) => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    _ => {}
                }
                net_metrics().server_connections.inc();
                let server = Arc::clone(&server);
                // Connection threads are detached on purpose: they block in reads
                // with no timeout and exit when the peer hangs up, so joining them
                // at shutdown could wait on a client we do not control.
                std::thread::Builder::new()
                    .name("p2h-net-conn".into())
                    .spawn(move || {
                        stream.set_nodelay(true).ok();
                        handle_connection(stream, &server);
                    })
                    .ok();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Serves one connection until the peer hangs up or an I/O error poisons the
/// stream. Malformed input gets a typed error reply where the stream is still
/// coherent; anything else closes the connection (the client's retry path owns
/// recovery).
fn handle_connection(mut stream: TcpStream, server: &ShardServer) {
    let mut scratch = QueryScratch::new();
    loop {
        let message = match read_frame(&mut stream, "server.recv") {
            Ok(Some(message)) => message,
            Ok(None) => return, // clean close between frames
            Err(NetError::Malformed { context }) => {
                // The frame arrived intact (CRC passed) but does not decode: tell
                // the peer, then close — the stream position is still trustworthy
                // but the peer is speaking something we do not.
                send_error(&mut stream, ErrorCode::BadRequest, &context);
                return;
            }
            Err(_) => return, // corrupt/truncated/disconnected: nothing sane to say
        };
        let reply = match message {
            Message::Hello { version: _ } => {
                // Version negotiation is the client's call: we disclose ours and the
                // shape of what we serve; a client that cannot speak it disconnects.
                Message::HelloOk {
                    version: PROTOCOL_VERSION,
                    shard_count: server.index.shard_count() as u32,
                    dim: server.index.dim() as u32,
                    total_len: server.index.len() as u64,
                }
            }
            Message::Ping { nonce } => Message::Pong { nonce },
            Message::ShardQuery { shard, queries } => {
                net_metrics().server_requests.inc();
                match execute_shard_query(server, shard as usize, &queries, &mut scratch) {
                    Ok(answers) => Message::ShardReply { shard, answers },
                    Err((code, message)) => Message::ErrorReply { code, message },
                }
            }
            other => Message::ErrorReply {
                code: ErrorCode::BadRequest,
                message: format!("unexpected message: {other:?}"),
            },
        };
        if write_frame(&mut stream, &reply, "server.send").is_err() {
            return; // poisoned stream; the client will retry elsewhere
        }
    }
}

/// Answers one `ShardQuery` frame as a group, so its exact queries share one descent of
/// the shard's tree.
fn execute_shard_query(
    server: &ShardServer,
    shard: usize,
    queries: &[WireQuery],
    scratch: &mut QueryScratch,
) -> Result<Vec<Option<SearchResult>>, (ErrorCode, String)> {
    if !server.serves(shard) {
        return Err((
            ErrorCode::UnknownShard,
            format!("shard {shard} is not served by this process"),
        ));
    }
    answer_frame(server.index.dim(), queries, |decoded, params| {
        server.index.search_shard_group(shard, decoded, params, scratch)
    })
}

/// Decodes and checks the **whole** frame, then hands it to `search`: a bad query at any
/// position is a `BadRequest` that has cost no search.
fn answer_frame(
    dim: usize,
    queries: &[WireQuery],
    search: impl FnOnce(&[HyperplaneQuery], &[&SearchParams]) -> Vec<Option<SearchResult>>,
) -> Result<Vec<Option<SearchResult>>, (ErrorCode, String)> {
    let mut decoded = Vec::with_capacity(queries.len());
    for (position, wq) in queries.iter().enumerate() {
        let query =
            wq.to_query().map_err(|e| (ErrorCode::BadRequest, format!("query {position}: {e}")))?;
        if query.dim() != dim {
            return Err((
                ErrorCode::BadRequest,
                format!("query {position}: dimension {} != index dimension {dim}", query.dim()),
            ));
        }
        decoded.push(query);
    }
    let params: Vec<&SearchParams> = queries.iter().map(|wq| &wq.params).collect();
    Ok(search(&decoded, &params))
}

fn send_error(stream: &mut TcpStream, code: ErrorCode, message: &str) {
    let reply = Message::ErrorReply { code, message: message.to_string() };
    write_frame(stream, &reply, "server.send").ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(coeffs: &[f32]) -> WireQuery {
        let query = HyperplaneQuery::new(coeffs.to_vec()).expect("a valid query");
        WireQuery::from_query(&query, &SearchParams::exact(3))
    }

    #[test]
    fn a_bad_query_at_the_last_position_fails_the_frame_before_any_search() {
        let good = || wire(&[1.0, 0.5, -0.25]);
        let searches = std::cell::Cell::new(0);
        let counting = |decoded: &[HyperplaneQuery], _: &[&SearchParams]| {
            searches.set(searches.get() + 1);
            vec![None; decoded.len()]
        };

        let answers = answer_frame(3, &[good(), good(), good()], counting).unwrap();
        assert_eq!((answers.len(), searches.get()), (3, 1), "a valid frame is searched once");

        let wrong_dim = [good(), good(), wire(&[1.0, 0.5])];
        let (code, message) = answer_frame(3, &wrong_dim, counting).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert_eq!(message, "query 2: dimension 2 != index dimension 3");

        let mut undecodable = good();
        undecodable.coeffs[0] = f32::NAN;
        let (code, message) =
            answer_frame(3, &[good(), good(), undecodable], counting).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(message.starts_with("query 2: "), "{message}");

        assert_eq!(searches.get(), 1, "neither bad frame reached the index");
    }
}
