//! Typed errors for the distributed serving layer.
//!
//! Every failure mode a router caller can observe is a variant here — including the
//! degraded ones. Nothing in this crate panics on hostile bytes, dead peers, or
//! injected faults; the worst legal outcome is a typed error (and, with
//! [`crate::RouterConfig::allow_partial`] opted in, an explicit
//! `missing_shards` list — never a silently shortened answer).

use std::fmt;

/// Result alias for the net crate.
pub type NetResult<T> = std::result::Result<T, NetError>;

/// Error codes a server can put on the wire in an error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The requested shard ordinal is not served by this process.
    UnknownShard,
    /// The request failed validation (dimension mismatch, malformed query).
    BadRequest,
    /// The server failed internally while executing the request.
    Internal,
    /// The front-end's admission queue is full — the request was shed, not queued.
    /// Retrying after backoff is reasonable; the server's state is untouched.
    Overloaded,
    /// The request's deadline expired while it waited in the front-end's queue; it
    /// was shed without being executed (never a silent drop).
    DeadlineExceeded,
}

impl ErrorCode {
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            ErrorCode::UnknownShard => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Internal => 3,
            ErrorCode::Overloaded => 4,
            ErrorCode::DeadlineExceeded => 5,
        }
    }

    pub(crate) fn from_wire(raw: u8) -> Option<Self> {
        match raw {
            1 => Some(ErrorCode::UnknownShard),
            2 => Some(ErrorCode::BadRequest),
            3 => Some(ErrorCode::Internal),
            4 => Some(ErrorCode::Overloaded),
            5 => Some(ErrorCode::DeadlineExceeded),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::UnknownShard => "unknown-shard",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Internal => "internal",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
        };
        f.write_str(name)
    }
}

/// Everything that can go wrong between a router and its shard servers.
#[derive(Debug)]
pub enum NetError {
    /// An operating-system I/O failure on a socket (send/recv/shutdown).
    Io(std::io::Error),
    /// The peer refused the connection (or an injected `refuse` fault did).
    Refused {
        /// The address that refused.
        addr: String,
    },
    /// The peer disconnected mid-frame — the stream ended before a complete frame.
    Disconnected,
    /// A frame arrived whose payload fails its CRC — corruption on the wire.
    Corrupt {
        /// What the frame header declared.
        expected_crc: u32,
        /// What the payload actually hashes to.
        actual_crc: u32,
    },
    /// A frame header declared a length beyond the protocol's cap — either corruption
    /// or a hostile peer; the connection is dropped without allocating the claim.
    FrameTooLarge {
        /// Declared payload length.
        declared: u64,
    },
    /// The bytes inside a frame do not decode as a protocol message.
    Malformed {
        /// What failed to decode.
        context: String,
    },
    /// The peer speaks a different protocol version.
    Version {
        /// Our version.
        ours: u16,
        /// The peer's version.
        theirs: u16,
    },
    /// The peer replied with a typed error.
    Remote {
        /// The error code.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// A request (including all retries and hedges) exceeded its deadline.
    DeadlineExceeded {
        /// The shard that timed out.
        shard: usize,
    },
    /// Two replicas of the same shard returned answers that are not bit-identical —
    /// with the deterministic merge this can only mean divergent replica state (or
    /// wire corruption that beat the CRC), so it is a hard error, never averaged away.
    ReplicaMismatch {
        /// The shard whose replicas disagree.
        shard: usize,
        /// Human-readable description of the first divergence.
        detail: String,
    },
    /// A shard could not be completed within the retry/deadline budget and the caller
    /// did not opt into partial responses.
    ShardUnavailable {
        /// The failed shard.
        shard: usize,
        /// The final attempt's error, as text.
        last_error: String,
    },
    /// The routed request failed validation before any bytes hit the wire.
    InvalidRequest {
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket I/O error: {e}"),
            NetError::Refused { addr } => write!(f, "connection refused by {addr}"),
            NetError::Disconnected => write!(f, "peer disconnected mid-frame"),
            NetError::Corrupt { expected_crc, actual_crc } => write!(
                f,
                "frame payload corrupt: declared crc {expected_crc:#010x}, actual {actual_crc:#010x}"
            ),
            NetError::FrameTooLarge { declared } => {
                write!(f, "frame declares {declared} payload bytes, over the protocol cap")
            }
            NetError::Malformed { context } => write!(f, "malformed message: {context}"),
            NetError::Version { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            NetError::Remote { code, message } => write!(f, "server error ({code}): {message}"),
            NetError::DeadlineExceeded { shard } => {
                write!(f, "shard {shard} exceeded its request deadline")
            }
            NetError::ReplicaMismatch { shard, detail } => {
                write!(f, "replicas of shard {shard} disagree: {detail}")
            }
            NetError::ShardUnavailable { shard, last_error } => {
                write!(f, "shard {shard} unavailable after retries: {last_error}")
            }
            NetError::InvalidRequest { message } => write!(f, "invalid request: {message}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        // TimedOut/WouldBlock surface from read timeouts; map them onto the typed
        // timeout variant at the call sites that know the shard. Here they stay Io.
        if e.kind() == std::io::ErrorKind::ConnectionRefused {
            return NetError::Refused { addr: "peer".into() };
        }
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            return NetError::Disconnected;
        }
        NetError::Io(e)
    }
}

/// A request the core rejects before it is routed — a query of the wrong dimension, an
/// override outside the batch — is an invalid request: no bytes hit the wire.
impl From<p2h_core::Error> for NetError {
    fn from(e: p2h_core::Error) -> Self {
        NetError::InvalidRequest { message: e.to_string() }
    }
}

impl NetError {
    /// Whether a retry against another replica (or the same one, after backoff) can
    /// plausibly succeed. Validation and version errors are deterministic — retrying
    /// them would only burn the deadline.
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Io(_)
            | NetError::Refused { .. }
            | NetError::Disconnected
            | NetError::Corrupt { .. }
            | NetError::FrameTooLarge { .. }
            | NetError::DeadlineExceeded { .. }
            | NetError::ShardUnavailable { .. } => true,
            // Overloaded is a shed, not a failure: the server is healthy and a retry
            // after backoff can land once the queue drains. A deadline shed is final —
            // the budget it missed is gone.
            NetError::Remote { code, .. } => {
                matches!(code, ErrorCode::Internal | ErrorCode::Overloaded)
            }
            NetError::Malformed { .. }
            | NetError::Version { .. }
            | NetError::ReplicaMismatch { .. }
            | NetError::InvalidRequest { .. } => false,
        }
    }

    /// Whether this error is a read timeout (deadline/hedge bookkeeping).
    pub(crate) fn is_timeout(&self) -> bool {
        match self {
            NetError::Io(e) => {
                matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock)
            }
            NetError::DeadlineExceeded { .. } => true,
            _ => false,
        }
    }
}
