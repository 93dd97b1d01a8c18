//! The wire protocol of the query service: checksummed, length-prefixed
//! frames carrying [`Request`] / [`Response`] values encoded with the same
//! fuzz-hardened [`cq_structures::codec`] the plan store uses.
//!
//! # Frame format
//!
//! ```text
//! ┌──────────────┬───────────────────────────────────────────────────────┐
//! │ body length  │ u32 LE — length of the body (version byte + payload)  │
//! │ body         │ u8 protocol version (currently 4)                     │
//! │              │ payload: one encoded Request or Response              │
//! │ checksum     │ u64 LE — FNV-1a over the body                         │
//! └──────────────┴───────────────────────────────────────────────────────┘
//! ```
//!
//! # Trust model
//!
//! A frame is **data, not authority** — the same stance as
//! [`cq_core::persist`].  The body length is validated against the
//! configured maximum *before* any allocation, the checksum is verified
//! before the payload is decoded, the version byte gates the decoder, and
//! payload decoding goes through [`decode_from_slice_at`], whose failures
//! carry the byte offset the reader reached — echoed back to the client in
//! [`Response::Error`] and logged server-side, so a rejected frame is
//! diagnosable.  No decoder in this chain panics or allocates
//! proportionally to attacker-claimed sizes.

use cq_core::{
    AnswerCountReport, AnswerPage, CacheStats, CountReport, EngineReport, IndexStats, PrepStats,
};
use cq_structures::codec::{
    decode_from_slice_at, encode_to_vec, fnv1a64, Decode, DecodeError, DecodeErrorAt, Encode,
    Reader,
};
use cq_structures::{ConjunctiveQuery, Structure};
use std::fmt;
use std::io::{Read, Write};

/// The one protocol version this build speaks.  Version 2 changed the
/// encoding of [`CountReport`]'s count to the tagged
/// [`cq_core::CountOutcome`] (exact-or-overflow) layout.  Version 3 grew
/// the stats payload: [`ServerCounters::quota_rejections`] and the index
/// cache's hash-compute meter ([`IndexStats`]).  Version 4 added the
/// free-variable answer requests ([`Request::CountAnswers`],
/// [`Request::Answers`]) and their responses.
pub const PROTOCOL_VERSION: u8 = 4;

/// The largest `limit` the server accepts in a [`Request::Answers`] page.
/// A larger limit is refused with [`ErrorCode::Malformed`] — pagination
/// exists precisely so one request can never demand an unbounded
/// materialization; ask for the next page instead.
pub const MAX_ANSWER_PAGE_LIMIT: u64 = 1024;

/// Default ceiling on a frame body (version byte + payload).  Generous for
/// the structures this workspace trafficks in, tiny next to what a hostile
/// u32 length prefix could claim.
pub const DEFAULT_MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// Errors of the frame layer (transport + envelope).  Payload-level decode
/// problems are *not* frame errors: a frame that checksums clean but holds
/// a malformed request leaves the stream in a known state, so the server
/// answers [`Response::Error`] and keeps the connection.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket operation failed (includes timeouts).
    Io(std::io::Error),
    /// Clean EOF on a frame boundary — the peer closed normally.
    Closed,
    /// EOF in the middle of a frame.
    Truncated,
    /// The declared body length is zero (no room for the version byte).
    Empty,
    /// The declared body length exceeds the configured maximum.  Raised
    /// before any allocation.
    TooLarge {
        /// The length the frame header declared.
        declared: u64,
        /// The configured ceiling.
        max: usize,
    },
    /// The body checksum did not match.
    BadChecksum,
    /// The version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Empty => write!(f, "zero-length frame body"),
            FrameError::TooLarge { declared, max } => {
                write!(
                    f,
                    "frame body of {declared} bytes exceeds the {max}-byte limit"
                )
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Write one frame (header, version byte, payload, checksum) in a single
/// buffered `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let body_len = payload.len() + 1;
    let mut frame = Vec::with_capacity(4 + body_len + 8);
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.push(PROTOCOL_VERSION);
    frame.extend_from_slice(payload);
    let checksum = fnv1a64(&frame[4..4 + body_len]);
    frame.extend_from_slice(&checksum.to_le_bytes());
    w.write_all(&frame)
}

/// Read one frame and return its payload (version byte stripped).
///
/// The declared body length is checked against `max_frame_len` **before**
/// the body buffer is sized, the checksum is verified before the version
/// byte is interpreted, and a clean EOF before the first header byte is
/// [`FrameError::Closed`] (any later EOF is [`FrameError::Truncated`]).
pub fn read_frame(r: &mut impl Read, max_frame_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    read_exact_or_eof(r, &mut header, true)?;
    let declared = u32::from_le_bytes(header) as u64;
    if declared == 0 {
        return Err(FrameError::Empty);
    }
    if declared > max_frame_len as u64 {
        return Err(FrameError::TooLarge {
            declared,
            max: max_frame_len,
        });
    }
    let body_len = declared as usize;
    let mut body = vec![0u8; body_len];
    read_exact_or_eof(r, &mut body, false)?;
    let mut checksum = [0u8; 8];
    read_exact_or_eof(r, &mut checksum, false)?;
    if fnv1a64(&body) != u64::from_le_bytes(checksum) {
        return Err(FrameError::BadChecksum);
    }
    let version = body[0];
    if version != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion { found: version });
    }
    body.remove(0);
    Ok(body)
}

/// `read_exact`, but a clean EOF before the first byte of the first read is
/// [`FrameError::Closed`] (a peer hanging up between frames) while any
/// other shortfall is [`FrameError::Truncated`].
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    at_frame_boundary: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_frame_boundary && filled == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// How a decide/count request names its query: a handle from an earlier
/// [`Request::Register`], or the full structure inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySpec {
    /// A server-issued query id (amortizes preparation across requests).
    Registered(u64),
    /// The query structure shipped with the request.
    Inline(Structure),
}

impl Encode for QuerySpec {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            QuerySpec::Registered(id) => {
                out.push(0);
                id.encode(out);
            }
            QuerySpec::Inline(s) => {
                out.push(1);
                s.encode(out);
            }
        }
    }
}

impl Decode for QuerySpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(QuerySpec::Registered(u64::decode(r)?)),
            1 => Ok(QuerySpec::Inline(Structure::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "QuerySpec",
                tag,
            }),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Register a query: the server prepares it once (core, width DPs,
    /// certificates) and returns a [`Response::Registered`] handle.
    Register {
        /// The query structure to prepare.
        query: Structure,
    },
    /// Decide `p-HOM(query → database)`.
    Decide {
        /// The query (registered handle or inline).
        query: QuerySpec,
        /// The database instance.
        database: Structure,
    },
    /// Count homomorphisms `query → database`.
    Count {
        /// The query (registered handle or inline).
        query: QuerySpec,
        /// The database instance.
        database: Structure,
    },
    /// Decide a whole batch in one round trip (one dispatcher job,
    /// answered item by item).
    DecideBatch {
        /// The (query, database) pairs, answered in order.
        items: Vec<(QuerySpec, Structure)>,
    },
    /// Count a whole batch in one round trip.
    CountBatch {
        /// The (query, database) pairs, answered in order.
        items: Vec<(QuerySpec, Structure)>,
    },
    /// Snapshot the server's engine and service counters.
    Stats,
    /// Ask the server to shut down gracefully (drain, save plans, exit).
    Shutdown,
    /// Count the distinct answers of a free-variable query (added in
    /// protocol version 4).  The query ships inline — free-variable lists
    /// live on the [`ConjunctiveQuery`], which registered handles (plain
    /// structures) do not carry.
    CountAnswers {
        /// The conjunctive query, with its free variables marked.
        query: ConjunctiveQuery,
        /// The database instance.
        database: Structure,
    },
    /// One page of a free-variable query's answers (added in protocol
    /// version 4): skip `offset` rows, return at most `limit`.
    Answers {
        /// The conjunctive query, with its free variables marked.
        query: ConjunctiveQuery,
        /// The database instance.
        database: Structure,
        /// Rows of the enumeration to skip.
        offset: u64,
        /// Maximum rows returned; must be ≤ [`MAX_ANSWER_PAGE_LIMIT`] or
        /// the server refuses with [`ErrorCode::Malformed`].
        limit: u64,
    },
}

impl Encode for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(0),
            Request::Register { query } => {
                out.push(1);
                query.encode(out);
            }
            Request::Decide { query, database } => {
                out.push(2);
                query.encode(out);
                database.encode(out);
            }
            Request::Count { query, database } => {
                out.push(3);
                query.encode(out);
                database.encode(out);
            }
            Request::DecideBatch { items } => {
                out.push(4);
                items.encode(out);
            }
            Request::CountBatch { items } => {
                out.push(5);
                items.encode(out);
            }
            Request::Stats => out.push(6),
            Request::Shutdown => out.push(7),
            Request::CountAnswers { query, database } => {
                out.push(8);
                query.encode(out);
                database.encode(out);
            }
            Request::Answers {
                query,
                database,
                offset,
                limit,
            } => {
                out.push(9);
                query.encode(out);
                database.encode(out);
                offset.encode(out);
                limit.encode(out);
            }
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(Request::Ping),
            1 => Ok(Request::Register {
                query: Structure::decode(r)?,
            }),
            2 => Ok(Request::Decide {
                query: QuerySpec::decode(r)?,
                database: Structure::decode(r)?,
            }),
            3 => Ok(Request::Count {
                query: QuerySpec::decode(r)?,
                database: Structure::decode(r)?,
            }),
            4 => Ok(Request::DecideBatch {
                items: Vec::decode(r)?,
            }),
            5 => Ok(Request::CountBatch {
                items: Vec::decode(r)?,
            }),
            6 => Ok(Request::Stats),
            7 => Ok(Request::Shutdown),
            8 => Ok(Request::CountAnswers {
                query: ConjunctiveQuery::decode(r)?,
                database: Structure::decode(r)?,
            }),
            9 => Ok(Request::Answers {
                query: ConjunctiveQuery::decode(r)?,
                database: Structure::decode(r)?,
                offset: u64::decode(r)?,
                limit: u64::decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "Request",
                tag,
            }),
        }
    }
}

/// Why the server rejected a request (see [`Response::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload did not decode as a request (offset attached).
    Malformed,
    /// The in-flight queue is full — back off and retry (admission
    /// control / backpressure).
    Busy,
    /// The request named a query id this server never issued.
    UnknownQueryId,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The request was admitted but its execution failed.
    Internal,
}

impl Encode for ErrorCode {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ErrorCode::Malformed => 0,
            ErrorCode::Busy => 1,
            ErrorCode::UnknownQueryId => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Internal => 4,
        });
    }
}

impl Decode for ErrorCode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(ErrorCode::Malformed),
            1 => Ok(ErrorCode::Busy),
            2 => Ok(ErrorCode::UnknownQueryId),
            3 => Ok(ErrorCode::ShuttingDown),
            4 => Ok(ErrorCode::Internal),
            tag => Err(DecodeError::BadTag {
                what: "ErrorCode",
                tag,
            }),
        }
    }
}

/// Service-level counters (what the engine's [`PrepStats`] /
/// [`CacheStats`] don't see: connections, admission, coalescing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerCounters {
    /// Connections accepted and served.
    pub connections_accepted: u64,
    /// Connections refused at the door (connection limit).
    pub connections_rejected: u64,
    /// Requests that decoded cleanly.
    pub requests: u64,
    /// Requests refused with [`ErrorCode::Busy`] (queue full).
    pub busy_rejections: u64,
    /// Requests refused by a per-connection quota (in-flight cap or rate
    /// limit), also answered [`ErrorCode::Busy`].
    pub quota_rejections: u64,
    /// Frames rejected at the envelope (checksum, size, version, decode).
    pub frame_errors: u64,
    /// Dispatch groups the dispatcher ran, each covering ≥ 1 request: per
    /// drained round, one for its singleton decides, one for its singleton
    /// counts and one per other job.  Every job runs on the dispatcher
    /// thread, one by one, under its own panic guard.
    pub dispatch_rounds: u64,
    /// Singleton decide (count) requests drained in the same round as at
    /// least one other singleton decide (count).
    pub coalesced_requests: u64,
}

impl Encode for ServerCounters {
    fn encode(&self, out: &mut Vec<u8>) {
        self.connections_accepted.encode(out);
        self.connections_rejected.encode(out);
        self.requests.encode(out);
        self.busy_rejections.encode(out);
        self.quota_rejections.encode(out);
        self.frame_errors.encode(out);
        self.dispatch_rounds.encode(out);
        self.coalesced_requests.encode(out);
    }
}

impl Decode for ServerCounters {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ServerCounters {
            connections_accepted: u64::decode(r)?,
            connections_rejected: u64::decode(r)?,
            requests: u64::decode(r)?,
            busy_rejections: u64::decode(r)?,
            quota_rejections: u64::decode(r)?,
            frame_errors: u64::decode(r)?,
            dispatch_rounds: u64::decode(r)?,
            coalesced_requests: u64::decode(r)?,
        })
    }
}

/// Everything [`Request::Stats`] reports: engine preparation/cache/index
/// counters plus the service-level counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Per-query preparation work (width DPs, cores, plans loaded/saved).
    pub prep: PrepStats,
    /// Plan-cache behaviour.
    pub cache: CacheStats,
    /// Instance-index cache behaviour.
    pub index: IndexStats,
    /// Connection/admission/coalescing counters.
    pub server: ServerCounters,
}

impl Encode for ServiceStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.prep.encode(out);
        self.cache.encode(out);
        self.index.encode(out);
        self.server.encode(out);
    }
}

impl Decode for ServiceStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ServiceStats {
            prep: PrepStats::decode(r)?,
            cache: CacheStats::decode(r)?,
            index: IndexStats::decode(r)?,
            server: ServerCounters::decode(r)?,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Register`].
    Registered {
        /// The handle to use in [`QuerySpec::Registered`].
        id: u64,
        /// The isomorphism-invariant fingerprint of the registered query.
        fingerprint: u64,
    },
    /// Answer to [`Request::Decide`].
    Decision(EngineReport),
    /// Answer to [`Request::Count`].
    Count(CountReport),
    /// Answer to [`Request::DecideBatch`], in item order.
    DecideBatch(Vec<EngineReport>),
    /// Answer to [`Request::CountBatch`], in item order.
    CountBatch(Vec<CountReport>),
    /// Answer to [`Request::Stats`].
    Stats(ServiceStats),
    /// Acknowledgement of [`Request::Shutdown`]; the server drains and
    /// saves plans after sending this.
    ShuttingDown,
    /// The request was rejected.
    Error {
        /// Why.
        code: ErrorCode,
        /// Human-readable detail (also logged server-side).
        message: String,
        /// For [`ErrorCode::Malformed`]: the payload byte offset where the
        /// decoder failed (from [`DecodeErrorAt`]).
        offset: Option<u64>,
    },
    /// Answer to [`Request::CountAnswers`] (protocol version 4).
    AnswerCount(AnswerCountReport),
    /// Answer to [`Request::Answers`] (protocol version 4).
    Answers(AnswerPage),
}

impl Encode for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(0),
            Response::Registered { id, fingerprint } => {
                out.push(1);
                id.encode(out);
                fingerprint.encode(out);
            }
            Response::Decision(report) => {
                out.push(2);
                report.encode(out);
            }
            Response::Count(report) => {
                out.push(3);
                report.encode(out);
            }
            Response::DecideBatch(reports) => {
                out.push(4);
                reports.encode(out);
            }
            Response::CountBatch(reports) => {
                out.push(5);
                reports.encode(out);
            }
            Response::Stats(stats) => {
                out.push(6);
                stats.encode(out);
            }
            Response::ShuttingDown => out.push(7),
            Response::Error {
                code,
                message,
                offset,
            } => {
                out.push(8);
                code.encode(out);
                message.encode(out);
                offset.encode(out);
            }
            Response::AnswerCount(report) => {
                out.push(9);
                report.encode(out);
            }
            Response::Answers(page) => {
                out.push(10);
                page.encode(out);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(Response::Pong),
            1 => Ok(Response::Registered {
                id: u64::decode(r)?,
                fingerprint: u64::decode(r)?,
            }),
            2 => Ok(Response::Decision(EngineReport::decode(r)?)),
            3 => Ok(Response::Count(CountReport::decode(r)?)),
            4 => Ok(Response::DecideBatch(Vec::decode(r)?)),
            5 => Ok(Response::CountBatch(Vec::decode(r)?)),
            6 => Ok(Response::Stats(ServiceStats::decode(r)?)),
            7 => Ok(Response::ShuttingDown),
            8 => Ok(Response::Error {
                code: ErrorCode::decode(r)?,
                message: String::decode(r)?,
                offset: Option::decode(r)?,
            }),
            9 => Ok(Response::AnswerCount(AnswerCountReport::decode(r)?)),
            10 => Ok(Response::Answers(AnswerPage::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "Response",
                tag,
            }),
        }
    }
}

/// Encode a request and frame it onto `w`.
pub fn write_request(w: &mut impl Write, request: &Request) -> std::io::Result<()> {
    write_frame(w, &encode_to_vec(request))
}

/// Encode a response and frame it onto `w`.
pub fn write_response(w: &mut impl Write, response: &Response) -> std::io::Result<()> {
    write_frame(w, &encode_to_vec(response))
}

/// Read one frame and decode its payload as a request.  Frame-level
/// problems are `Err`; a clean frame with a malformed payload is
/// `Ok(Err(DecodeErrorAt))` — the connection survives, the offset is
/// reported.
pub fn read_request(
    r: &mut impl Read,
    max_frame_len: usize,
) -> Result<Result<Request, DecodeErrorAt>, FrameError> {
    let payload = read_frame(r, max_frame_len)?;
    Ok(decode_from_slice_at(&payload))
}

/// Read one frame and decode its payload as a response.
pub fn read_response(
    r: &mut impl Read,
    max_frame_len: usize,
) -> Result<Result<Response, DecodeErrorAt>, FrameError> {
    let payload = read_frame(r, max_frame_len)?;
    Ok(decode_from_slice_at(&payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_structures::families;

    /// The tripwire: changing the wire format (new request/response kinds,
    /// different payload layouts) requires bumping [`PROTOCOL_VERSION`],
    /// and this assertion must move with it — so the bump is a conscious,
    /// reviewed act, never a silent drift.  Version 4 added the
    /// free-variable answer requests.
    #[test]
    fn protocol_version_tripwire() {
        assert_eq!(PROTOCOL_VERSION, 4);
    }

    fn roundtrip_request(req: &Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, req).unwrap();
        let back = read_request(&mut wire.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .expect("frame ok")
            .expect("payload decodes");
        assert_eq!(&back, req);
    }

    fn roundtrip_response(resp: &Response) {
        let mut wire = Vec::new();
        write_response(&mut wire, resp).unwrap();
        let back = read_response(&mut wire.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .expect("frame ok")
            .expect("payload decodes");
        assert_eq!(&back, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::Register {
            query: families::star(3),
        });
        roundtrip_request(&Request::Decide {
            query: QuerySpec::Registered(42),
            database: families::clique(4),
        });
        roundtrip_request(&Request::Count {
            query: QuerySpec::Inline(families::path(4)),
            database: families::clique(3),
        });
        roundtrip_request(&Request::DecideBatch {
            items: vec![
                (QuerySpec::Registered(0), families::clique(3)),
                (QuerySpec::Inline(families::cycle(5)), families::grid(2, 2)),
            ],
        });
        roundtrip_request(&Request::CountBatch { items: Vec::new() });
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Shutdown);
        let mut query = ConjunctiveQuery::from_structure(&families::path(3));
        let first = query.variables()[0].clone();
        query.mark_free(first).unwrap();
        roundtrip_request(&Request::CountAnswers {
            query: query.clone(),
            database: families::clique(3),
        });
        roundtrip_request(&Request::Answers {
            query,
            database: families::clique(3),
            offset: 2,
            limit: 16,
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(&Response::Pong);
        roundtrip_response(&Response::Registered {
            id: 7,
            fingerprint: 0xdead_beef,
        });
        roundtrip_response(&Response::Stats(ServiceStats::default()));
        roundtrip_response(&Response::ShuttingDown);
        roundtrip_response(&Response::Error {
            code: ErrorCode::Malformed,
            message: "bad tag 250 for Request".to_string(),
            offset: Some(17),
        });
        roundtrip_response(&Response::Error {
            code: ErrorCode::Busy,
            message: String::new(),
            offset: None,
        });
    }

    #[test]
    fn engine_reports_roundtrip_through_the_wire() {
        // Obtain real reports from an in-process engine so every enum
        // variant path is a value the service will actually ship.
        let engine = cq_core::Engine::new(cq_core::EngineConfig::default());
        let report = engine.solve(&families::path(3), &families::clique(3));
        roundtrip_response(&Response::Decision(report.clone()));
        roundtrip_response(&Response::DecideBatch(vec![report.clone(), report]));
        let count = engine.count_instance(&families::path(3), &families::clique(3));
        roundtrip_response(&Response::Count(count.clone()));
        roundtrip_response(&Response::CountBatch(vec![count]));
        let mut query = ConjunctiveQuery::from_structure(&families::path(3));
        let first = query.variables()[0].clone();
        query.mark_free(first).unwrap();
        let report = engine.count_answers(&query, &families::clique(3));
        roundtrip_response(&Response::AnswerCount(report));
        let page = engine.answers(&query, &families::clique(3), 0, 2);
        assert!(!page.rows.is_empty());
        roundtrip_response(&Response::Answers(page));
    }

    #[test]
    fn oversized_frames_rejected_before_allocation() {
        // A header claiming u32::MAX bytes with no body: the reader must
        // refuse at the header, never sizing a buffer from the claim.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_LEN) {
            Err(FrameError::TooLarge { declared, .. }) => {
                assert_eq!(declared, u64::from(u32::MAX));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_rejected() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Ping).unwrap();
        // Flip a payload byte: checksum must catch it.
        let mut flipped = wire.clone();
        flipped[4] ^= 0x01; // version byte inside the body
        assert!(matches!(
            read_frame(&mut flipped.as_slice(), DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::BadChecksum)
        ));
        // Truncations: every prefix is Closed (empty) or Truncated.
        for len in 0..wire.len() {
            match read_frame(&mut wire[..len].as_ref(), DEFAULT_MAX_FRAME_LEN) {
                Err(FrameError::Closed) => assert_eq!(len, 0),
                Err(FrameError::Truncated) => assert!(len > 0),
                other => panic!("prefix of {len} bytes: expected EOF error, got {other:?}"),
            }
        }
        // A wrong version resealed behind a valid checksum.
        let mut vers = wire.clone();
        vers[4] = 9;
        let body_len = u32::from_le_bytes(vers[..4].try_into().unwrap()) as usize;
        let seal = fnv1a64(&vers[4..4 + body_len]).to_le_bytes();
        let cs_at = 4 + body_len;
        vers[cs_at..cs_at + 8].copy_from_slice(&seal);
        assert!(matches!(
            read_frame(&mut vers.as_slice(), DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::UnsupportedVersion { found: 9 })
        ));
        // Zero-length body.
        let mut empty = Vec::new();
        empty.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut empty.as_slice(), DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Empty)
        ));
    }

    #[test]
    fn malformed_payload_reports_the_offset() {
        // A clean frame whose payload is a bad request tag: frame Ok,
        // decode Err with offset 1 (just past the tag byte).
        let mut wire = Vec::new();
        write_frame(&mut wire, &[250]).unwrap();
        let result = read_request(&mut wire.as_slice(), DEFAULT_MAX_FRAME_LEN).expect("frame ok");
        let err = result.expect_err("payload must not decode");
        assert_eq!(
            err.error,
            DecodeError::BadTag {
                what: "Request",
                tag: 250
            }
        );
        assert_eq!(err.offset, 1);
    }
}
