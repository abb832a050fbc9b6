//! The wire protocol: length-prefixed, checksummed frames and the message codec.
//!
//! ## Frame layout
//!
//! ```text
//! ┌────────────┬──────────────┬──────────────┬─────────────┐
//! │ magic P2HN │ len: u32 LE  │ crc32: u32 LE│ payload …   │
//! └────────────┴──────────────┴──────────────┴─────────────┘
//! ```
//!
//! `len` is the payload byte count (capped at [`MAX_FRAME_BYTES`]; a larger claim is
//! rejected *before* allocating), `crc32` is the same IEEE CRC-32 the snapshot store
//! uses, computed over the payload. Every multi-byte integer on the wire is
//! little-endian. A failed CRC is a typed [`NetError::Corrupt`], a stream that ends
//! mid-frame is [`NetError::Disconnected`] — hostile or damaged bytes can never panic
//! the decoder (mirroring the store's snapshot reader contract).
//!
//! ## Messages
//!
//! The payload's first byte is the message tag. Queries travel as *already
//! normalized* coefficients plus the precomputed norm, reconstructed with
//! [`HyperplaneQuery::from_transport_parts`] — re-normalizing on receive would
//! perturb the coefficient bits and break the protocol's bit-identity contract.
//! Distances travel as raw `f32` bit patterns for the same reason.
//!
//! ## Fault injection
//!
//! [`write_frame`] and [`read_frame`] consult the [`p2h_obs::fault`] registry at the
//! caller-provided site (`client.send`, `server.recv`, …): `disconnect` abandons the
//! frame, `truncate` emits/consumes a prefix then fails, `corrupt` flips a payload
//! bit *after* the CRC is computed (so the receiver's check must catch it), `slow`
//! sleeps, and `eintr` interrupts one syscall (absorbed by the store's retry loop).
//! Unset, each call costs one relaxed atomic load.

use std::io::{Read, Write};

use p2h_core::kernels::crc32;
use p2h_core::{HyperplaneQuery, Neighbor, SearchParams, SearchResult, SearchStats};
use p2h_obs::fault;
use p2h_obs::FaultKind;
use p2h_store::retry_interrupted;

use crate::error::{ErrorCode, NetError, NetResult};

/// Frame magic: `P2HN`.
pub const MAGIC: [u8; 4] = *b"P2HN";

/// Protocol version spoken by this build (checked in the Hello handshake).
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on a frame's payload size. Large enough for any realistic batch slice,
/// small enough that a corrupt or hostile length field cannot OOM the process.
pub const MAX_FRAME_BYTES: u64 = 64 << 20;

/// A query and its effective parameters, as they travel to a shard server. The
/// router resolves per-position overrides *before* encoding, so the server never
/// needs the batch's override table.
#[derive(Debug, Clone, PartialEq)]
pub struct WireQuery {
    /// Already-normalized coefficients (bit-exact from the sender's query).
    pub coeffs: Vec<f32>,
    /// The precomputed coefficient norm (bit-exact).
    pub norm: f32,
    /// Effective search parameters for this query.
    pub params: SearchParams,
}

impl WireQuery {
    /// Captures a query + params pair for transport.
    pub fn from_query(query: &HyperplaneQuery, params: &SearchParams) -> Self {
        Self { coeffs: query.coeffs().to_vec(), norm: query.norm(), params: params.clone() }
    }

    /// Rebuilds the bit-exact [`HyperplaneQuery`].
    pub fn to_query(&self) -> NetResult<HyperplaneQuery> {
        HyperplaneQuery::from_transport_parts(self.coeffs.clone(), self.norm)
            .map_err(|e| NetError::Malformed { context: format!("query: {e}") })
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client hello: the first frame on every connection.
    Hello {
        /// The client's protocol version.
        version: u16,
    },
    /// Server accept: protocol version plus the served entry's shape.
    HelloOk {
        /// The server's protocol version.
        version: u16,
        /// Shards in the entry the server cold-started.
        shard_count: u32,
        /// Augmented dimensionality of the entry.
        dim: u32,
        /// Total points across all shards.
        total_len: u64,
    },
    /// Execute a slice of a batch against one shard.
    ShardQuery {
        /// Shard ordinal to search.
        shard: u32,
        /// Queries with their effective parameters, in batch order.
        queries: Vec<WireQuery>,
    },
    /// The per-query answers of a [`Message::ShardQuery`].
    ShardReply {
        /// Echo of the request's shard ordinal.
        shard: u32,
        /// Per-query results in request order; `None` = the shard's budget slice was
        /// empty and it was legitimately skipped (identical to local fan-out).
        answers: Vec<Option<SearchResult>>,
    },
    /// A typed server-side failure.
    ErrorReply {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Liveness probe.
    Ping {
        /// Echoed back in the pong.
        nonce: u64,
    },
    /// Liveness answer.
    Pong {
        /// The ping's nonce.
        nonce: u64,
    },
    /// A single query for the serving front-end's coalescing queue.
    ///
    /// Requests carry a client-chosen id and may be pipelined; the front-end
    /// demultiplexes replies by id, so completions can arrive out of order.
    FrontQuery {
        /// Client-chosen request id, echoed in the reply.
        id: u64,
        /// Registered index name to serve against.
        index: String,
        /// Queueing budget in milliseconds (`0` = unbounded): a request still
        /// waiting in the coalescing queue when this window closes is shed with a
        /// typed [`ErrorCode::DeadlineExceeded`] error, never silently dropped.
        deadline_ms: u64,
        /// The query and its effective search parameters.
        query: WireQuery,
    },
    /// The answer to a [`Message::FrontQuery`] — bit-identical to serving the same
    /// query alone, no matter which batch coalescing placed it in.
    FrontReply {
        /// Echo of the request id.
        id: u64,
        /// The per-query result.
        result: SearchResult,
    },
    /// A typed per-request front-end failure (admission shed, unknown index, …).
    FrontError {
        /// Echo of the request id.
        id: u64,
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Asks the front-end for its process-wide metrics registry.
    MetricsRequest {
        /// Client-chosen request id, echoed in the reply.
        id: u64,
    },
    /// The metrics registry in Prometheus text exposition format.
    MetricsReply {
        /// Echo of the request id.
        id: u64,
        /// `Engine::render_metrics()` output.
        text: String,
    },
    /// Asks the front-end to cold-start a fresh engine from its store directory and
    /// swap it in under live traffic (zero-downtime reload).
    Reload {
        /// Client-chosen request id, echoed in the reply.
        id: u64,
    },
    /// A completed reload: the new engine is serving.
    ReloadOk {
        /// Echo of the request id.
        id: u64,
        /// Manifest entries the fresh engine registered.
        entries: u32,
    },
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32_bits(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> NetResult<&'a [u8]> {
        let end =
            self.pos.checked_add(n).filter(|&end| end <= self.buf.len()).ok_or_else(|| {
                NetError::Malformed { context: format!("{what}: payload ends early") }
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> NetResult<u8> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &str) -> NetResult<u16> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")))
    }
    fn u32(&mut self, what: &str) -> NetResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self, what: &str) -> NetResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }
    fn f32_bits(&mut self, what: &str) -> NetResult<f32> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    /// A declared element count, sanity-bounded by what the remaining payload can
    /// physically hold (`min_elem_bytes` per element) so a corrupt count cannot drive
    /// a huge allocation.
    fn count(&mut self, min_elem_bytes: usize, what: &str) -> NetResult<usize> {
        let declared = self.u32(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if declared.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(NetError::Malformed {
                context: format!("{what}: count {declared} exceeds payload"),
            });
        }
        Ok(declared)
    }

    fn str(&mut self, what: &str) -> NetResult<String> {
        let len = self.count(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NetError::Malformed { context: format!("{what}: invalid utf-8") })
    }

    fn finish(self, what: &str) -> NetResult<()> {
        if self.pos != self.buf.len() {
            return Err(NetError::Malformed {
                context: format!("{what}: {} trailing bytes", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

fn encode_params(enc: &mut Enc, params: &SearchParams) {
    enc.u64(params.k as u64);
    match params.candidate_limit {
        Some(limit) => {
            enc.u8(1);
            enc.u64(limit as u64);
        }
        None => {
            enc.u8(0);
            enc.u64(0);
        }
    }
    enc.u8(match params.branch_preference {
        p2h_core::BranchPreference::Center => 0,
        p2h_core::BranchPreference::LowerBound => 1,
    });
    enc.u8(params.collect_timing as u8);
}

fn decode_params(dec: &mut Dec<'_>) -> NetResult<SearchParams> {
    let k = dec.u64("params.k")? as usize;
    let has_limit = dec.u8("params.has_limit")?;
    let limit = dec.u64("params.limit")? as usize;
    let branch = match dec.u8("params.branch")? {
        0 => p2h_core::BranchPreference::Center,
        1 => p2h_core::BranchPreference::LowerBound,
        other => {
            return Err(NetError::Malformed {
                context: format!("params.branch: unknown preference {other}"),
            })
        }
    };
    let collect_timing = dec.u8("params.collect_timing")? != 0;
    Ok(SearchParams {
        k,
        candidate_limit: (has_limit != 0).then_some(limit),
        branch_preference: branch,
        collect_timing,
    })
}

fn encode_query(enc: &mut Enc, wq: &WireQuery) {
    enc.f32_bits(wq.norm);
    enc.u32(wq.coeffs.len() as u32);
    for &c in &wq.coeffs {
        enc.f32_bits(c);
    }
    encode_params(enc, &wq.params);
}

fn decode_query(dec: &mut Dec<'_>) -> NetResult<WireQuery> {
    let norm = dec.f32_bits("query.norm")?;
    let coeff_count = dec.count(4, "query.coeff_count")?;
    let mut coeffs = Vec::with_capacity(coeff_count);
    for _ in 0..coeff_count {
        coeffs.push(dec.f32_bits("query.coeff")?);
    }
    let params = decode_params(dec)?;
    Ok(WireQuery { coeffs, norm, params })
}

fn encode_result(enc: &mut Enc, result: &SearchResult) {
    enc.u32(result.neighbors.len() as u32);
    for n in &result.neighbors {
        enc.u64(n.index as u64);
        enc.u32(n.distance.to_bits());
    }
    for word in stats_to_words(&result.stats) {
        enc.u64(word);
    }
}

fn decode_result(dec: &mut Dec<'_>) -> NetResult<SearchResult> {
    let neighbor_count = dec.count(12, "reply.neighbor_count")?;
    let mut neighbors = Vec::with_capacity(neighbor_count);
    for _ in 0..neighbor_count {
        let index = dec.u64("reply.neighbor.index")? as usize;
        let distance = f32::from_bits(dec.u32("reply.neighbor.distance")?);
        neighbors.push(Neighbor { index, distance });
    }
    let mut words = [0u64; STAT_FIELDS];
    for word in &mut words {
        *word = dec.u64("reply.stats")?;
    }
    Ok(SearchResult { neighbors, stats: stats_from_words(words) })
}

const STAT_FIELDS: usize = 13;

fn stats_to_words(stats: &SearchStats) -> [u64; STAT_FIELDS] {
    [
        stats.inner_products,
        stats.nodes_visited,
        stats.leaves_visited,
        stats.candidates_verified,
        stats.pruned_subtrees,
        stats.pruned_by_ball_bound,
        stats.pruned_by_cone_bound,
        stats.buckets_probed,
        stats.time_bounds_ns,
        stats.time_verify_ns,
        stats.time_lookup_ns,
        stats.time_merge_ns,
        stats.time_total_ns,
    ]
}

fn stats_from_words(w: [u64; STAT_FIELDS]) -> SearchStats {
    SearchStats {
        inner_products: w[0],
        nodes_visited: w[1],
        leaves_visited: w[2],
        candidates_verified: w[3],
        pruned_subtrees: w[4],
        pruned_by_ball_bound: w[5],
        pruned_by_cone_bound: w[6],
        buckets_probed: w[7],
        time_bounds_ns: w[8],
        time_verify_ns: w[9],
        time_lookup_ns: w[10],
        time_merge_ns: w[11],
        time_total_ns: w[12],
    }
}

impl Message {
    const TAG_HELLO: u8 = 1;
    const TAG_HELLO_OK: u8 = 2;
    const TAG_SHARD_QUERY: u8 = 3;
    const TAG_SHARD_REPLY: u8 = 4;
    const TAG_ERROR: u8 = 5;
    const TAG_PING: u8 = 6;
    const TAG_PONG: u8 = 7;
    const TAG_FRONT_QUERY: u8 = 8;
    const TAG_FRONT_REPLY: u8 = 9;
    const TAG_FRONT_ERROR: u8 = 10;
    const TAG_METRICS_REQUEST: u8 = 11;
    const TAG_METRICS_REPLY: u8 = 12;
    const TAG_RELOAD: u8 = 13;
    const TAG_RELOAD_OK: u8 = 14;

    /// Encodes this message as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Enc(Vec::with_capacity(64));
        match self {
            Message::Hello { version } => {
                enc.u8(Self::TAG_HELLO);
                enc.u16(*version);
            }
            Message::HelloOk { version, shard_count, dim, total_len } => {
                enc.u8(Self::TAG_HELLO_OK);
                enc.u16(*version);
                enc.u32(*shard_count);
                enc.u32(*dim);
                enc.u64(*total_len);
            }
            Message::ShardQuery { shard, queries } => {
                enc.u8(Self::TAG_SHARD_QUERY);
                enc.u32(*shard);
                enc.u32(queries.len() as u32);
                for wq in queries {
                    encode_query(&mut enc, wq);
                }
            }
            Message::ShardReply { shard, answers } => {
                enc.u8(Self::TAG_SHARD_REPLY);
                enc.u32(*shard);
                enc.u32(answers.len() as u32);
                for answer in answers {
                    match answer {
                        None => enc.u8(0),
                        Some(result) => {
                            enc.u8(1);
                            encode_result(&mut enc, result);
                        }
                    }
                }
            }
            Message::ErrorReply { code, message } => {
                enc.u8(Self::TAG_ERROR);
                enc.u8(code.to_wire());
                enc.str(message);
            }
            Message::Ping { nonce } => {
                enc.u8(Self::TAG_PING);
                enc.u64(*nonce);
            }
            Message::Pong { nonce } => {
                enc.u8(Self::TAG_PONG);
                enc.u64(*nonce);
            }
            Message::FrontQuery { id, index, deadline_ms, query } => {
                enc.u8(Self::TAG_FRONT_QUERY);
                enc.u64(*id);
                enc.str(index);
                enc.u64(*deadline_ms);
                encode_query(&mut enc, query);
            }
            Message::FrontReply { id, result } => {
                enc.u8(Self::TAG_FRONT_REPLY);
                enc.u64(*id);
                encode_result(&mut enc, result);
            }
            Message::FrontError { id, code, message } => {
                enc.u8(Self::TAG_FRONT_ERROR);
                enc.u64(*id);
                enc.u8(code.to_wire());
                enc.str(message);
            }
            Message::MetricsRequest { id } => {
                enc.u8(Self::TAG_METRICS_REQUEST);
                enc.u64(*id);
            }
            Message::MetricsReply { id, text } => {
                enc.u8(Self::TAG_METRICS_REPLY);
                enc.u64(*id);
                enc.str(text);
            }
            Message::Reload { id } => {
                enc.u8(Self::TAG_RELOAD);
                enc.u64(*id);
            }
            Message::ReloadOk { id, entries } => {
                enc.u8(Self::TAG_RELOAD_OK);
                enc.u64(*id);
                enc.u32(*entries);
            }
        }
        enc.0
    }

    /// Decodes a frame payload. Malformed input yields a typed error, never a panic
    /// or an oversized allocation.
    pub fn decode(payload: &[u8]) -> NetResult<Self> {
        let mut dec = Dec::new(payload);
        let tag = dec.u8("message tag")?;
        let message = match tag {
            Self::TAG_HELLO => Message::Hello { version: dec.u16("hello.version")? },
            Self::TAG_HELLO_OK => Message::HelloOk {
                version: dec.u16("hello_ok.version")?,
                shard_count: dec.u32("hello_ok.shard_count")?,
                dim: dec.u32("hello_ok.dim")?,
                total_len: dec.u64("hello_ok.total_len")?,
            },
            Self::TAG_SHARD_QUERY => {
                let shard = dec.u32("query.shard")?;
                let count = dec.count(8, "query.count")?;
                let mut queries = Vec::with_capacity(count);
                for _ in 0..count {
                    queries.push(decode_query(&mut dec)?);
                }
                Message::ShardQuery { shard, queries }
            }
            Self::TAG_SHARD_REPLY => {
                let shard = dec.u32("reply.shard")?;
                let count = dec.count(1, "reply.count")?;
                let mut answers = Vec::with_capacity(count);
                for _ in 0..count {
                    if dec.u8("reply.present")? == 0 {
                        answers.push(None);
                        continue;
                    }
                    answers.push(Some(decode_result(&mut dec)?));
                }
                Message::ShardReply { shard, answers }
            }
            Self::TAG_ERROR => {
                let raw = dec.u8("error.code")?;
                let code = ErrorCode::from_wire(raw).ok_or_else(|| NetError::Malformed {
                    context: format!("error.code: unknown code {raw}"),
                })?;
                Message::ErrorReply { code, message: dec.str("error.message")? }
            }
            Self::TAG_PING => Message::Ping { nonce: dec.u64("ping.nonce")? },
            Self::TAG_PONG => Message::Pong { nonce: dec.u64("pong.nonce")? },
            Self::TAG_FRONT_QUERY => {
                let id = dec.u64("front.id")?;
                let index = dec.str("front.index")?;
                let deadline_ms = dec.u64("front.deadline_ms")?;
                let query = decode_query(&mut dec)?;
                Message::FrontQuery { id, index, deadline_ms, query }
            }
            Self::TAG_FRONT_REPLY => {
                let id = dec.u64("front.id")?;
                Message::FrontReply { id, result: decode_result(&mut dec)? }
            }
            Self::TAG_FRONT_ERROR => {
                let id = dec.u64("front.id")?;
                let raw = dec.u8("front.error.code")?;
                let code = ErrorCode::from_wire(raw).ok_or_else(|| NetError::Malformed {
                    context: format!("front.error.code: unknown code {raw}"),
                })?;
                Message::FrontError { id, code, message: dec.str("front.error.message")? }
            }
            Self::TAG_METRICS_REQUEST => Message::MetricsRequest { id: dec.u64("metrics.id")? },
            Self::TAG_METRICS_REPLY => {
                let id = dec.u64("metrics.id")?;
                Message::MetricsReply { id, text: dec.str("metrics.text")? }
            }
            Self::TAG_RELOAD => Message::Reload { id: dec.u64("reload.id")? },
            Self::TAG_RELOAD_OK => {
                let id = dec.u64("reload.id")?;
                Message::ReloadOk { id, entries: dec.u32("reload.entries")? }
            }
            other => {
                return Err(NetError::Malformed { context: format!("unknown message tag {other}") })
            }
        };
        dec.finish("message")?;
        Ok(message)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

const HEADER_LEN: usize = 12;

/// Encodes `message` as one complete frame (header + payload) into a byte vector,
/// for callers that manage their own buffered nonblocking writes (the front-end
/// event loop). No fault site fires here — the caller instruments its own write.
pub fn frame_bytes(message: &Message) -> Vec<u8> {
    let payload = message.encode();
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Checks a complete frame header and returns `(payload length, expected CRC)`. An
/// over-cap length is refused here, before any caller allocates or buffers for it.
fn parse_header(header: &[u8; HEADER_LEN]) -> NetResult<(usize, u32)> {
    if header[..4] != MAGIC {
        return Err(NetError::Malformed { context: "bad frame magic".into() });
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as u64;
    if len > MAX_FRAME_BYTES {
        return Err(NetError::FrameTooLarge { declared: len });
    }
    Ok((len as usize, u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"))))
}

/// Decodes a payload once its checksum matches the header's.
fn verify_payload(payload: &[u8], expected_crc: u32) -> NetResult<Message> {
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(NetError::Corrupt { expected_crc, actual_crc });
    }
    Message::decode(payload)
}

/// Encodes `message` and writes it as one frame. `site` names the fault-injection
/// point (`client.send` / `server.send`); see the module docs for what each injected
/// kind does here.
pub fn write_frame<W: Write>(writer: &mut W, message: &Message, site: &str) -> NetResult<()> {
    let mut frame = frame_bytes(message);
    let mut truncated = false;
    match fault::check(site) {
        Some(FaultKind::Disconnect) => {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected disconnect before frame",
            )));
        }
        Some(FaultKind::Truncate) => {
            frame.truncate(HEADER_LEN + (frame.len() - HEADER_LEN) / 2);
            truncated = true;
        }
        // Flip a payload bit AFTER the CRC was computed: the frame stays well-formed
        // at the length level, and the receiver's checksum is the only thing standing
        // between this and a wrong answer.
        Some(FaultKind::Corrupt) => {
            if let Some(byte) = frame[HEADER_LEN..].last_mut() {
                *byte ^= 0x40;
            }
        }
        Some(FaultKind::Slow(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(FaultKind::Refuse) | Some(FaultKind::Eintr) | None => {}
    }
    retry_interrupted(site, || writer.write_all(&frame).and_then(|()| writer.flush()))?;
    crate::metrics::add_bytes_sent(site, frame.len() as u64);
    if truncated {
        return Err(NetError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "injected truncation mid-frame",
        )));
    }
    Ok(())
}

/// Reads one frame and decodes its message. `site` names the fault-injection point
/// (`client.recv` / `server.recv`). A clean EOF *before any header byte* returns
/// `Ok(None)` — the peer simply closed the connection between messages.
pub fn read_frame<R: Read>(reader: &mut R, site: &str) -> NetResult<Option<Message>> {
    let mut corrupt_payload = false;
    match fault::check(site) {
        Some(FaultKind::Disconnect) => return Err(NetError::Disconnected),
        Some(FaultKind::Truncate) => {
            // Consume and discard a header's worth of bytes, then report the stream
            // dead: downstream sees a connection that died mid-frame.
            let mut header = [0u8; HEADER_LEN];
            let _ = reader.read(&mut header);
            return Err(NetError::Disconnected);
        }
        Some(FaultKind::Corrupt) => corrupt_payload = true,
        Some(FaultKind::Slow(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(FaultKind::Refuse) | Some(FaultKind::Eintr) | None => {}
    }

    let mut header = [0u8; HEADER_LEN];
    match read_exact_retry(reader, &mut header, site) {
        Ok(()) => {}
        Err(ReadError::CleanEof) => return Ok(None),
        Err(ReadError::Net(e)) => return Err(e),
    }
    let (len, expected_crc) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    match read_exact_retry(reader, &mut payload, site) {
        Ok(()) => {}
        // EOF inside the payload is a mid-frame disconnect, not a clean close.
        Err(ReadError::CleanEof) => return Err(NetError::Disconnected),
        Err(ReadError::Net(e)) => return Err(e),
    }
    crate::metrics::add_bytes_recv(site, (HEADER_LEN + len) as u64);
    if corrupt_payload {
        if let Some(byte) = payload.last_mut() {
            *byte ^= 0x40;
        }
    }
    verify_payload(&payload, expected_crc).map(Some)
}

/// Attempts to decode one frame from the front of `buf` — the incremental
/// counterpart of [`read_frame`] for nonblocking reads that accumulate bytes in a
/// per-connection buffer.
///
/// Returns `Ok(None)` when `buf` does not yet hold a complete frame (read more),
/// `Ok(Some((message, consumed)))` when a frame decoded (drain `consumed` bytes),
/// and the same typed errors as [`read_frame`] for hostile input: bad magic,
/// over-cap length (rejected before the payload is even buffered), CRC mismatch,
/// or a payload that does not decode. Callers must drop the connection on error —
/// the stream position is no longer trustworthy.
pub fn frame_from_buf(buf: &[u8]) -> NetResult<Option<(Message, usize)>> {
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        // Reject bad magic as soon as the first bytes arrive, not only once a full
        // header is buffered — a peer speaking another protocol is cut off early.
        if !MAGIC.starts_with(&buf[..buf.len().min(4)]) {
            return Err(NetError::Malformed { context: "bad frame magic".into() });
        }
        return Ok(None);
    };
    let (len, expected_crc) = parse_header(header)?;
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    verify_payload(&buf[HEADER_LEN..total], expected_crc).map(|message| Some((message, total)))
}

enum ReadError {
    /// EOF before the first byte of this read.
    CleanEof,
    Net(NetError),
}

/// `read_exact` with EINTR absorption that distinguishes "EOF before anything" from
/// "EOF mid-buffer".
fn read_exact_retry<R: Read>(reader: &mut R, buf: &mut [u8], site: &str) -> Result<(), ReadError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = retry_interrupted(site, || reader.read(&mut buf[filled..]))
            .map_err(|e| ReadError::Net(e.into()))?;
        if n == 0 {
            return Err(if filled == 0 {
                ReadError::CleanEof
            } else {
                ReadError::Net(NetError::Disconnected)
            });
        }
        filled += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::SearchParams;

    fn round_trip(message: Message) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &message, "test.send").unwrap();
        let decoded = read_frame(&mut buf.as_slice(), "test.recv").unwrap().unwrap();
        assert_eq!(decoded, message);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Message::Hello { version: 1 });
        round_trip(Message::HelloOk { version: 1, shard_count: 4, dim: 11, total_len: 9001 });
        round_trip(Message::Ping { nonce: 7 });
        round_trip(Message::Pong { nonce: 7 });
        round_trip(Message::ErrorReply {
            code: ErrorCode::UnknownShard,
            message: "shard 9 not served".into(),
        });

        let query = HyperplaneQuery::from_normal_and_bias(&[3.0, 4.0], -1.0).unwrap();
        round_trip(Message::ShardQuery {
            shard: 2,
            queries: vec![
                WireQuery::from_query(&query, &SearchParams::exact(5)),
                WireQuery::from_query(&query, &SearchParams::approximate(3, 100)),
            ],
        });

        round_trip(Message::ShardReply {
            shard: 2,
            answers: vec![
                None,
                Some(SearchResult {
                    neighbors: vec![Neighbor { index: 42, distance: 0.25 }],
                    stats: SearchStats { candidates_verified: 9, ..Default::default() },
                }),
            ],
        });
    }

    #[test]
    fn front_messages_round_trip() {
        let query = HyperplaneQuery::from_normal_and_bias(&[3.0, 4.0], -1.0).unwrap();
        round_trip(Message::FrontQuery {
            id: 99,
            index: "serving".into(),
            deadline_ms: 250,
            query: WireQuery::from_query(&query, &SearchParams::exact(5)),
        });
        round_trip(Message::FrontReply {
            id: 99,
            result: SearchResult {
                neighbors: vec![Neighbor { index: 3, distance: 1.5 }],
                stats: SearchStats { nodes_visited: 4, ..Default::default() },
            },
        });
        round_trip(Message::FrontError {
            id: 99,
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        });
        round_trip(Message::FrontError {
            id: 100,
            code: ErrorCode::DeadlineExceeded,
            message: "shed after 250ms".into(),
        });
        round_trip(Message::MetricsRequest { id: 1 });
        round_trip(Message::MetricsReply { id: 1, text: "# HELP …\n".into() });
        round_trip(Message::Reload { id: 2 });
        round_trip(Message::ReloadOk { id: 2, entries: 3 });
    }

    #[test]
    fn incremental_decode_matches_blocking_decode_at_every_split() {
        let query = HyperplaneQuery::from_normal_and_bias(&[1.0, -2.0], 0.5).unwrap();
        let message = Message::FrontQuery {
            id: 7,
            index: "idx".into(),
            deadline_ms: 0,
            query: WireQuery::from_query(&query, &SearchParams::exact(3)),
        };
        let frame = frame_bytes(&message);
        // Every proper prefix is "incomplete", never an error or a wrong decode.
        for cut in 1..frame.len() {
            assert!(
                frame_from_buf(&frame[..cut]).unwrap().is_none(),
                "prefix {cut} must be incomplete"
            );
        }
        // The exact frame decodes and consumes exactly its own bytes — even with a
        // second frame's bytes queued behind it.
        let mut two = frame.clone();
        two.extend_from_slice(&frame_bytes(&Message::Ping { nonce: 8 }));
        let (decoded, consumed) = frame_from_buf(&two).unwrap().unwrap();
        assert_eq!(decoded, message);
        assert_eq!(consumed, frame.len());
        let (second, rest) = frame_from_buf(&two[consumed..]).unwrap().unwrap();
        assert_eq!(second, Message::Ping { nonce: 8 });
        assert_eq!(rest, two.len() - consumed);
    }

    #[test]
    fn incremental_decode_rejects_hostile_buffers() {
        // Bad magic is rejected from the very first byte.
        assert!(matches!(frame_from_buf(b"XYZ"), Err(NetError::Malformed { .. })));
        // An over-cap length claim is rejected before any payload is buffered.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&MAGIC);
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(frame_from_buf(&hostile), Err(NetError::FrameTooLarge { .. })));
        // A flipped payload bit fails the CRC.
        let mut frame = frame_bytes(&Message::Ping { nonce: 3 });
        *frame.last_mut().unwrap() ^= 0x10;
        assert!(matches!(frame_from_buf(&frame), Err(NetError::Corrupt { .. })));
        // An empty buffer just wants more bytes.
        assert!(frame_from_buf(&[]).unwrap().is_none());
    }

    #[test]
    fn queries_survive_transport_bit_exactly() {
        let query = HyperplaneQuery::from_normal_and_bias(&[0.3, -1.7, 2.2], 0.9).unwrap();
        let wire = WireQuery::from_query(&query, &SearchParams::exact(1));
        let rebuilt = wire.to_query().unwrap();
        assert_eq!(query, rebuilt);
        for (a, b) in query.coeffs().iter().zip(rebuilt.coeffs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(query.norm().to_bits(), rebuilt.norm().to_bits());
    }

    #[test]
    fn corrupt_payload_is_a_typed_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Ping { nonce: 1 }, "test.send").unwrap();
        *buf.last_mut().unwrap() ^= 0x01;
        match read_frame(&mut buf.as_slice(), "test.recv") {
            Err(NetError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_is_disconnected_not_a_hang_or_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Ping { nonce: 1 }, "test.send").unwrap();
        for cut in 1..buf.len() {
            match read_frame(&mut &buf[..cut], "test.recv") {
                Err(NetError::Disconnected) => {}
                other => panic!("cut at {cut}: expected Disconnected, got {other:?}"),
            }
        }
        // A clean close between frames is not an error.
        assert!(read_frame(&mut &buf[..0], "test.recv").unwrap().is_none());
    }

    #[test]
    fn hostile_length_is_rejected_before_allocating() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        match read_frame(&mut frame.as_slice(), "test.recv") {
            Err(NetError::FrameTooLarge { declared }) => {
                assert_eq!(declared, u64::from(u32::MAX));
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }

        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice(), "test.recv"),
            Err(NetError::Malformed { .. })
        ));
    }

    #[test]
    fn malformed_payloads_never_panic() {
        // Every prefix of a valid payload must fail with a typed error, not panic.
        let query = HyperplaneQuery::from_normal_and_bias(&[1.0, 1.0], 0.0).unwrap();
        let payload = Message::ShardQuery {
            shard: 0,
            queries: vec![WireQuery::from_query(&query, &SearchParams::exact(2))],
        }
        .encode();
        for cut in 0..payload.len() {
            assert!(Message::decode(&payload[..cut]).is_err(), "prefix {cut} must not decode");
        }
        // Trailing garbage is also rejected.
        let mut padded = payload.clone();
        padded.push(0);
        assert!(Message::decode(&padded).is_err());
        // A hostile count field cannot drive a huge allocation.
        let mut hostile = Vec::new();
        hostile.push(4u8); // ShardReply tag
        hostile.extend_from_slice(&0u32.to_le_bytes());
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Message::decode(&hostile).is_err());
    }
}
