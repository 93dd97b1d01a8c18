//! # cq-service — the query-service front-end
//!
//! A long-lived TCP server over the [`cq_core::Engine`], exposing
//! register / decide / count / batch — and, since protocol version 4, the
//! free-variable answer requests (count answers, paged answer enumeration
//! with a server-enforced page-size ceiling) — over a length-prefixed,
//! checksummed binary protocol built from the same fuzz-hardened codec
//! ([`cq_structures::codec`]) the plan store uses.
//!
//! Three layers:
//!
//! * [`protocol`] — the wire format: frames (u32 length, version byte,
//!   payload, FNV-1a checksum), [`protocol::Request`] /
//!   [`protocol::Response`] codecs, and hostile-input rejection (oversized
//!   frames refused before allocation, checksums verified before decode,
//!   payload decode errors reported with their byte offset).
//! * [`server`] — the service itself: nonblocking accept loop with a
//!   connection limit, per-connection reader/writer threads (responses
//!   pipeline in request order), a bounded job queue with
//!   [`protocol::ErrorCode::Busy`] backpressure, a dispatcher that drains
//!   the queued requests of all connections in rounds and runs each round
//!   job by job on its own thread with a panic guard per job, and a
//!   warm-start / save-on-eviction / save-on-shutdown plan-store
//!   lifecycle.
//! * [`client`] — a blocking client with both strict request/response
//!   calls and raw send/receive pipelining.
//!
//! Everything is hand-rolled on `std` (`TcpListener`, threads, channels);
//! there are no third-party dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    ErrorCode, FrameError, QuerySpec, Request, Response, ServerCounters, ServiceStats,
    DEFAULT_MAX_FRAME_LEN, MAX_ANSWER_PAGE_LIMIT, PROTOCOL_VERSION,
};
pub use server::{Server, ServiceConfig, ShutdownReport};
