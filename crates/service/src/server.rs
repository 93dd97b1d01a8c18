//! The long-lived TCP server over the [`cq_core::Engine`].
//!
//! # Architecture
//!
//! ```text
//!            accept thread (nonblocking listener, shutdown-polled)
//!                 │  admission: reject over the connection limit
//!                 ▼
//!  per connection: reader thread ──► bounded job queue ──► dispatcher thread
//!                 │    (frames in,      (admission:            │ drains up to
//!                 │     decode,          Busy when full)       │ coalesce_limit
//!                 │     enqueue)                               │ jobs, runs them
//!                 ▼                                            ▼ one by one
//!             writer thread ◄── per-request reply channels ◄── Work::run
//!               (frames out, in request order — pipelining)    (panic guard)
//! ```
//!
//! * **Admission control**: connections over `max_connections` are refused
//!   with an error frame at the door; requests hitting a full job queue are
//!   answered [`ErrorCode::Busy`] instead of queueing unboundedly; frames
//!   over `max_frame_len` are rejected before allocation.
//! * **Per-connection quotas**: each connection is bounded by
//!   `max_in_flight_per_connection` (engine-bound requests awaiting an
//!   answer) and `max_requests_per_second` (token bucket) — so one greedy
//!   pipeliner cannot starve its peers.  Over-quota requests get a typed
//!   [`ErrorCode::Busy`] answer, never a disconnect.
//! * **Coalescing**: the dispatcher greedily drains whatever jobs are
//!   queued — across *all* connections, up to `coalesce_limit` — and runs
//!   the drained round job by job on its own thread, in arrival order,
//!   each job under its own panic guard.  There is no fan-out over the
//!   engine's worker pool; [`ServerCounters::coalesced_requests`] counts
//!   the singleton decides and counts that shared a round.
//! * **Slow clients**: a peer that stalls mid-frame (or stops reading its
//!   responses) is disconnected after `io_timeout` without progress; a peer
//!   idling *between* frames is fine.
//! * **Lifecycle**: boot warm-starts from the configured plan store (when
//!   the file exists) and enables save-on-eviction; shutdown stops
//!   admitting, drains the queue, joins the threads, and `save_plans` — so
//!   the next boot answers with zero width DPs.

use crate::protocol::{
    read_request, write_response, ErrorCode, FrameError, QuerySpec, Request, Response,
    ServerCounters, ServiceStats, DEFAULT_MAX_FRAME_LEN, MAX_ANSWER_PAGE_LIMIT,
};
use cq_core::persist::WarmStartSummary;
use cq_core::{Engine, PersistError, PreparedQuery};
use cq_structures::{ConjunctiveQuery, Structure};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ceiling on a frame body; larger frames are refused before
    /// allocation.
    pub max_frame_len: usize,
    /// Concurrent connections admitted; the accept loop refuses the rest
    /// with an error frame.
    pub max_connections: usize,
    /// Bound on queued (admitted, not yet dispatched) requests across all
    /// connections; overflow is answered [`ErrorCode::Busy`].
    pub queue_depth: usize,
    /// Per-connection cap on engine-bound requests (decide/count, single
    /// or batch) admitted but not yet answered.  One greedy pipeliner hits
    /// this wall before it can monopolize the shared queue; over-quota
    /// requests are answered [`ErrorCode::Busy`], the connection stays up.
    pub max_in_flight_per_connection: usize,
    /// Per-connection request rate limit: a token bucket refilled at this
    /// many tokens per second (burst capacity of the same size), one token
    /// per decoded request of any kind.  Over-quota requests are answered
    /// [`ErrorCode::Busy`], the connection stays up.  `0` disables.
    pub max_requests_per_second: u32,
    /// Most queued jobs one dispatcher round drains.
    pub coalesce_limit: usize,
    /// Patience with a peer that has started a frame but stopped feeding
    /// it, or stopped draining its responses.
    pub io_timeout: Duration,
    /// Plan-store path: warm-start source at boot, save-on-eviction sink
    /// while serving, `save_plans` target at shutdown.
    pub plan_store: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_connections: 64,
            queue_depth: 256,
            max_in_flight_per_connection: 64,
            max_requests_per_second: 0,
            coalesce_limit: 64,
            io_timeout: Duration::from_secs(5),
            plan_store: None,
        }
    }
}

/// Granularity of shutdown-flag polling (blocking reads and condvar waits
/// wake this often to notice a drain).
const POLL_QUANTUM: Duration = Duration::from_millis(25);

/// What [`Server::shutdown`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShutdownReport {
    /// Plans written to the configured store (0 without one).
    pub plans_saved: u64,
}

/// A queued unit of engine work plus the channel its answer goes back on.
struct Job {
    work: Work,
    reply: mpsc::Sender<Response>,
}

/// The engine work behind one request, its query specs already resolved.
enum Work {
    Decide(Arc<PreparedQuery>, Structure),
    Count(Arc<PreparedQuery>, Structure),
    DecideBatch(Vec<(Arc<PreparedQuery>, Structure)>),
    CountBatch(Vec<(Arc<PreparedQuery>, Structure)>),
    CountAnswers(ConjunctiveQuery, Structure),
    Answers {
        query: ConjunctiveQuery,
        database: Structure,
        offset: u64,
        limit: usize,
    },
}

impl Work {
    /// Run the work on `engine`.  A panic inside the engine (a
    /// pathological database) becomes an [`ErrorCode::Internal`] answer to
    /// this request alone, never a dead dispatcher.
    fn run(&self, engine: &Engine) -> Response {
        catch_unwind(AssertUnwindSafe(|| match self {
            Work::Decide(plan, database) => {
                Response::Decision(engine.solve_prepared(plan, database))
            }
            Work::Count(plan, database) => Response::Count(engine.count_prepared(plan, database)),
            Work::DecideBatch(items) => Response::DecideBatch(
                items
                    .iter()
                    .map(|(plan, database)| engine.solve_prepared(plan, database))
                    .collect(),
            ),
            Work::CountBatch(items) => Response::CountBatch(
                items
                    .iter()
                    .map(|(plan, database)| engine.count_prepared(plan, database))
                    .collect(),
            ),
            Work::CountAnswers(query, database) => {
                Response::AnswerCount(engine.count_answers(query, database))
            }
            Work::Answers {
                query,
                database,
                offset,
                limit,
            } => Response::Answers(engine.answers(query, database, *offset, *limit)),
        }))
        .unwrap_or_else(|_| Response::Error {
            code: ErrorCode::Internal,
            message: match self {
                Work::Decide(..) | Work::DecideBatch(_) => "decision evaluation failed",
                Work::Count(..) | Work::CountBatch(_) => "count evaluation failed",
                Work::CountAnswers(..) => "answer counting failed",
                Work::Answers { .. } => "answer enumeration failed",
            }
            .to_string(),
            offset: None,
        })
    }
}

/// One slot of a connection's ordered response stream: either ready now
/// (answered inline by the reader) or owed by the dispatcher.
enum Pending {
    Ready(Box<Response>),
    Waiting(mpsc::Receiver<Response>),
}

/// Per-connection token bucket: `rate` tokens per second refill, burst
/// capacity of one second's worth.  Lives on the reader thread.
struct RateLimiter {
    rate: f64,
    tokens: f64,
    refilled: Instant,
}

impl RateLimiter {
    fn new(rate_per_second: u32) -> Option<RateLimiter> {
        (rate_per_second > 0).then(|| RateLimiter {
            rate: f64::from(rate_per_second),
            tokens: f64::from(rate_per_second),
            refilled: Instant::now(),
        })
    }

    /// Draw one token if the bucket (after refill) holds one.
    fn admit(&mut self) -> bool {
        let now = Instant::now();
        let elapsed = now.duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate).min(self.rate);
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One connection's in-flight accounting: reservations are taken on the
/// reader thread (before a job is enqueued) and released on the writer
/// thread (once the dispatcher's answer has been collected), so the count
/// is exactly the engine-bound requests this connection is still owed.
struct ConnQuota {
    in_flight: Arc<AtomicUsize>,
    max_in_flight: usize,
}

impl ConnQuota {
    /// Reserve an in-flight slot.  Only the reader thread increments, so
    /// load-then-add is race-free: concurrent writer decrements can only
    /// make room, never oversubscribe.
    fn try_reserve(&self) -> bool {
        if self.in_flight.load(Ordering::Acquire) >= self.max_in_flight {
            return false;
        }
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Give a reservation back without dispatching (the job was refused
    /// downstream or failed to resolve).
    fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    requests: AtomicU64,
    busy_rejections: AtomicU64,
    quota_rejections: AtomicU64,
    frame_errors: AtomicU64,
    dispatch_rounds: AtomicU64,
    coalesced_requests: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerCounters {
        ServerCounters {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            quota_rejections: self.quota_rejections.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
            dispatch_rounds: self.dispatch_rounds.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
        }
    }
}

/// State shared by the accept loop, every connection thread, and the
/// dispatcher.
struct Shared {
    engine: Engine,
    config: ServiceConfig,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    next_query_id: AtomicU64,
    registered: Mutex<HashMap<u64, Arc<PreparedQuery>>>,
    queue: Mutex<VecDeque<Job>>,
    queue_signal: Condvar,
    counters: Counters,
}

impl Shared {
    /// Admit a job or explain why not.  Taking the queue lock for both the
    /// shutdown check and the push closes the race against the dispatcher's
    /// exit (which verifies emptiness under the same lock): a job is either
    /// rejected here or guaranteed a dispatcher pass.
    fn enqueue(&self, job: Job) -> Result<(), Box<Response>> {
        let mut queue = self.queue.lock().expect("job queue lock");
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(Box::new(Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".to_string(),
                offset: None,
            }));
        }
        if queue.len() >= self.config.queue_depth {
            self.counters
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(Box::new(Response::Error {
                code: ErrorCode::Busy,
                message: format!(
                    "in-flight queue full ({} requests); retry later",
                    self.config.queue_depth
                ),
                offset: None,
            }));
        }
        queue.push_back(job);
        drop(queue);
        self.queue_signal.notify_one();
        Ok(())
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            prep: self.engine.prep_stats(),
            cache: self.engine.cache_stats(),
            index: self.engine.index_stats(),
            server: self.counters.snapshot(),
        }
    }

    /// Resolve a [`QuerySpec`] to a prepared plan.  Registered ids hit the
    /// handle table; inline structures go through [`Engine::prepare`]
    /// (served from the plan cache when equivalent).  `prepare` panics on
    /// pathological inputs (e.g. beyond the exact-DP size cap) are caught
    /// and turned into [`ErrorCode::Internal`] so a hostile query cannot
    /// kill the connection thread.
    fn resolve(&self, spec: QuerySpec) -> Result<Arc<PreparedQuery>, Box<Response>> {
        match spec {
            QuerySpec::Registered(id) => self
                .registered
                .lock()
                .expect("registered map lock")
                .get(&id)
                .cloned()
                .ok_or_else(|| {
                    Box::new(Response::Error {
                        code: ErrorCode::UnknownQueryId,
                        message: format!("query id {id} was never registered on this server"),
                        offset: None,
                    })
                }),
            QuerySpec::Inline(query) => {
                catch_unwind(AssertUnwindSafe(|| self.engine.prepare(&query))).map_err(|_| {
                    Box::new(Response::Error {
                        code: ErrorCode::Internal,
                        message: "query preparation failed".to_string(),
                        offset: None,
                    })
                })
            }
        }
    }
}

/// A running query service bound to a TCP address.
///
/// Constructed with [`Server::start`]; stopped with [`Server::shutdown`]
/// (or remotely via [`Request::Shutdown`], after which `shutdown` just
/// joins the drain).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    warm_start: Option<WarmStartSummary>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    dispatcher_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Boot: warm-start the engine from the configured plan store (when the
    /// file exists), enable save-on-eviction, bind `addr`, and spawn the
    /// accept + dispatcher threads.  Bind to port 0 to let the OS pick
    /// (read it back with [`Server::local_addr`]).
    pub fn start(
        engine: Engine,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
    ) -> Result<Server, PersistError> {
        let mut engine = engine;
        let mut warm_start = None;
        if let Some(path) = &config.plan_store {
            if path.exists() {
                warm_start = Some(engine.load_plans(path)?);
            }
            engine = engine.with_eviction_store(path);
        }
        let listener = TcpListener::bind(addr).map_err(PersistError::Io)?;
        listener.set_nonblocking(true).map_err(PersistError::Io)?;
        let local_addr = listener.local_addr().map_err(PersistError::Io)?;

        let shared = Arc::new(Shared {
            engine,
            config,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            next_query_id: AtomicU64::new(0),
            registered: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_signal: Condvar::new(),
            counters: Counters::default(),
        });

        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        let dispatcher_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatcher_loop(&shared))
        };

        Ok(Server {
            shared,
            local_addr,
            warm_start,
            accept_handle: Some(accept_handle),
            dispatcher_handle: Some(dispatcher_handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// What the boot-time warm start loaded (None without a plan store or
    /// when no store file existed yet).
    pub fn warm_start(&self) -> Option<WarmStartSummary> {
        self.warm_start
    }

    /// Whether a drain has begun (locally or via [`Request::Shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Connections currently being served (the corruption tests assert this
    /// returns to zero — no leaked slots).
    pub fn active_connections(&self) -> usize {
        self.shared.active_connections.load(Ordering::SeqCst)
    }

    /// Service + engine counters (what [`Request::Stats`] reports).
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Begin draining without waiting: stop admitting connections and
    /// requests.  Idempotent; [`Server::shutdown`] implies it.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_signal.notify_all();
    }

    /// Graceful shutdown: drain the queue, join the accept/dispatcher
    /// threads, wait for connection threads to wind down, and persist every
    /// plan to the configured store.
    pub fn shutdown(mut self) -> Result<ShutdownReport, PersistError> {
        self.begin_shutdown();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher_handle.take() {
            let _ = h.join();
        }
        // Connection threads notice the flag within a poll quantum; give
        // stragglers (e.g. a peer mid-frame) a bounded grace period.
        let deadline = Instant::now() + self.shared.config.io_timeout + POLL_QUANTUM * 4;
        while self.shared.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline
        {
            std::thread::sleep(POLL_QUANTUM);
        }
        let mut report = ShutdownReport::default();
        if let Some(path) = &self.shared.config.plan_store {
            report.plans_saved = self.shared.engine.save_plans(path)?;
        }
        Ok(report)
    }
}

/// Accept loop: poll the nonblocking listener, enforcing the connection
/// limit, until shutdown.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let active = shared.active_connections.load(Ordering::SeqCst);
                if active >= shared.config.max_connections {
                    shared
                        .counters
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    refuse_connection(stream, shared.config.max_connections);
                    continue;
                }
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    serve_connection(&shared, stream);
                    shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_QUANTUM / 5);
            }
            Err(_) => std::thread::sleep(POLL_QUANTUM),
        }
    }
}

/// Tell an over-limit peer why it is being dropped (best effort).  Only
/// the write half is shut down (a clean FIN): resetting the read half too
/// would race an in-flight request from the peer and turn the refusal
/// frame into a connection reset before the peer reads it.
fn refuse_connection(mut stream: TcpStream, limit: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = write_response(
        &mut stream,
        &Response::Error {
            code: ErrorCode::Busy,
            message: format!("connection limit ({limit}) reached"),
            offset: None,
        },
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Serve one connection: this thread reads and handles frames; a writer
/// thread drains the ordered response stream so responses pipeline while
/// the reader decodes the next request.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // The read timeout is the poll quantum, not the io_timeout: each wakeup
    // checks the shutdown flag and the per-frame progress deadline.
    let _ = stream.set_read_timeout(Some(POLL_QUANTUM));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (pending_tx, pending_rx) = mpsc::channel::<Pending>();
    let quota = ConnQuota {
        in_flight: Arc::new(AtomicUsize::new(0)),
        max_in_flight: shared.config.max_in_flight_per_connection,
    };
    let mut limiter = RateLimiter::new(shared.config.max_requests_per_second);
    let writer = {
        let shared = Arc::clone(shared);
        let in_flight = Arc::clone(&quota.in_flight);
        std::thread::spawn(move || write_loop(&shared, write_half, pending_rx, &in_flight))
    };

    let mut reader = FrameSource {
        stream: &stream,
        shared,
        in_frame: false,
    };
    loop {
        reader.begin_frame();
        let outcome = read_request(&mut reader, shared.config.max_frame_len);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match outcome {
            Ok(Ok(request)) => {
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                if let Some(limiter) = limiter.as_mut() {
                    if !limiter.admit() {
                        shared
                            .counters
                            .quota_rejections
                            .fetch_add(1, Ordering::Relaxed);
                        let busy = Response::Error {
                            code: ErrorCode::Busy,
                            message: format!(
                                "request rate quota ({}/s) exceeded; retry later",
                                shared.config.max_requests_per_second
                            ),
                            offset: None,
                        };
                        if pending_tx.send(Pending::Ready(Box::new(busy))).is_err() {
                            break;
                        }
                        continue;
                    }
                }
                let is_shutdown = matches!(request, Request::Shutdown);
                match handle_request(shared, &quota, request) {
                    Some(pending) => {
                        if pending_tx.send(pending).is_err() {
                            break; // writer gone (peer stopped reading)
                        }
                    }
                    None => break,
                }
                if is_shutdown {
                    break;
                }
            }
            // Malformed payload in a clean frame: report (with the byte
            // offset) and keep the connection — framing is still in sync.
            Ok(Err(decode_err)) => {
                shared.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                log_line(&format!("rejected request: {decode_err}"));
                let error = Response::Error {
                    code: ErrorCode::Malformed,
                    message: decode_err.error.to_string(),
                    offset: Some(decode_err.offset as u64),
                };
                if pending_tx.send(Pending::Ready(Box::new(error))).is_err() {
                    break;
                }
            }
            // Envelope-level rejections: answer once, then close — after a
            // framing error the stream cannot be resynchronized.
            Err(
                e @ (FrameError::TooLarge { .. }
                | FrameError::BadChecksum
                | FrameError::Empty
                | FrameError::UnsupportedVersion { .. }),
            ) => {
                shared.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                log_line(&format!("closing connection: {e}"));
                let _ = pending_tx.send(Pending::Ready(Box::new(Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                    offset: None,
                })));
                break;
            }
            // Disconnects, mid-frame stalls past the deadline, transport
            // errors: close silently.
            Err(FrameError::Closed | FrameError::Truncated | FrameError::Io(_)) => break,
        }
    }
    // Dropping the sender lets the writer finish the responses still owed
    // (the dispatcher drains every admitted job even during shutdown) and
    // exit; join so the slot count only drops once the socket is done.
    drop(pending_tx);
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Blocking-with-deadline frame source over a poll-timeout socket.
///
/// Waiting *between* frames is unbounded (an idle client is fine) but
/// checks the shutdown flag each quantum; once a frame has started
/// arriving, each further read must make progress within `io_timeout` or
/// it fails (slow-loris rejection).  [`FrameSource::begin_frame`] re-arms
/// the idle state before each frame.
struct FrameSource<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    /// Whether any byte of the current frame has arrived (deadline armed).
    in_frame: bool,
}

impl FrameSource<'_> {
    /// Mark the boundary between frames: the next wait is idle-friendly
    /// again.
    fn begin_frame(&mut self) {
        self.in_frame = false;
    }
}

impl std::io::Read for FrameSource<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let deadline = Instant::now() + self.shared.config.io_timeout;
        loop {
            match (&mut (self.stream)).read(buf) {
                Ok(n) => {
                    if n > 0 {
                        self.in_frame = true;
                    }
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionAborted,
                            "server shutting down",
                        ));
                    }
                    if self.in_frame && Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "no progress within io_timeout",
                        ));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Submit one engine-bound job under the connection's in-flight quota:
/// reserve a slot, build the job (resolving query specs), enqueue it.
/// Any refusal — quota, resolution, queue admission — hands the slot back
/// and answers inline; the connection always survives.
fn submit_job(
    shared: &Arc<Shared>,
    quota: &ConnQuota,
    build: impl FnOnce() -> Result<Work, Box<Response>>,
) -> Pending {
    if !quota.try_reserve() {
        shared
            .counters
            .quota_rejections
            .fetch_add(1, Ordering::Relaxed);
        return Pending::Ready(Box::new(Response::Error {
            code: ErrorCode::Busy,
            message: format!(
                "in-flight quota ({} requests per connection) reached; retry later",
                quota.max_in_flight
            ),
            offset: None,
        }));
    }
    let (reply, rx) = mpsc::channel();
    match build().and_then(|work| shared.enqueue(Job { work, reply })) {
        Ok(()) => Pending::Waiting(rx),
        Err(error) => {
            quota.release();
            Pending::Ready(error)
        }
    }
}

/// Handle one decoded request on the reader thread.  Cheap requests are
/// answered inline ([`Pending::Ready`]); engine work is enqueued for the
/// dispatcher and owed through a reply channel.  `None` means the
/// connection should close (writer already owed nothing more).
fn handle_request(shared: &Arc<Shared>, quota: &ConnQuota, request: Request) -> Option<Pending> {
    match request {
        Request::Ping => Some(Pending::Ready(Box::new(Response::Pong))),
        Request::Stats => Some(Pending::Ready(Box::new(Response::Stats(shared.stats())))),
        Request::Shutdown => {
            // Acknowledge first so the requester gets a clean answer, then
            // flip the flag: accept stops, queued work drains, the caller's
            // `Server::shutdown` (or the daemon main loop) saves plans.
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_signal.notify_all();
            Some(Pending::Ready(Box::new(Response::ShuttingDown)))
        }
        Request::Register { query } => {
            let plan = match shared.resolve(QuerySpec::Inline(query)) {
                Ok(plan) => plan,
                Err(error) => return Some(Pending::Ready(error)),
            };
            let id = shared.next_query_id.fetch_add(1, Ordering::Relaxed);
            let fingerprint = plan.fingerprint();
            shared
                .registered
                .lock()
                .expect("registered map lock")
                .insert(id, plan);
            Some(Pending::Ready(Box::new(Response::Registered {
                id,
                fingerprint,
            })))
        }
        Request::Decide { query, database } => Some(submit_job(shared, quota, || {
            Ok(Work::Decide(shared.resolve(query)?, database))
        })),
        Request::Count { query, database } => Some(submit_job(shared, quota, || {
            Ok(Work::Count(shared.resolve(query)?, database))
        })),
        Request::DecideBatch { items } => Some(submit_job(shared, quota, || {
            Ok(Work::DecideBatch(resolve_items(shared, items)?))
        })),
        Request::CountBatch { items } => Some(submit_job(shared, quota, || {
            Ok(Work::CountBatch(resolve_items(shared, items)?))
        })),
        Request::CountAnswers { query, database } => Some(submit_job(shared, quota, || {
            validate_answer_query(&query)?;
            Ok(Work::CountAnswers(query, database))
        })),
        Request::Answers {
            query,
            database,
            offset,
            limit,
        } => Some(submit_job(shared, quota, || {
            validate_answer_query(&query)?;
            if limit > MAX_ANSWER_PAGE_LIMIT {
                return Err(Box::new(Response::Error {
                    code: ErrorCode::Malformed,
                    message: format!(
                        "answer page limit {limit} exceeds the {MAX_ANSWER_PAGE_LIMIT}-row \
                         maximum; request further pages instead"
                    ),
                    offset: None,
                }));
            }
            Ok(Work::Answers {
                query,
                database,
                offset,
                limit: limit as usize,
            })
        })),
    }
}

/// The engine's answer entry points panic on malformed queries by design
/// (boundary validation is the caller's job) — this is that boundary: a
/// query whose atoms don't square with its declared variables is refused
/// with a typed [`ErrorCode::Malformed`] and the connection survives.
fn validate_answer_query(query: &ConjunctiveQuery) -> Result<(), Box<Response>> {
    query.canonical_structure().map(|_| ()).map_err(|e| {
        Box::new(Response::Error {
            code: ErrorCode::Malformed,
            message: format!("invalid query: {e}"),
            offset: None,
        })
    })
}

fn resolve_items(
    shared: &Arc<Shared>,
    items: Vec<(QuerySpec, Structure)>,
) -> Result<Vec<(Arc<PreparedQuery>, Structure)>, Box<Response>> {
    items
        .into_iter()
        .map(|(spec, database)| Ok((shared.resolve(spec)?, database)))
        .collect()
}

/// Writer thread: emit responses in request order, resolving dispatcher
/// promises as they land.  Each resolved promise releases one of the
/// connection's in-flight quota slots.  A write failure (or a reply
/// channel whose dispatcher side vanished) shuts the socket down, which
/// unblocks the reader.
fn write_loop(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    pending: mpsc::Receiver<Pending>,
    in_flight: &AtomicUsize,
) {
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    while let Ok(next) = pending.recv() {
        let response = match next {
            Pending::Ready(r) => *r,
            Pending::Waiting(rx) => {
                let answer = rx.recv().unwrap_or(Response::Error {
                    code: ErrorCode::Internal,
                    message: "request dropped during dispatch".to_string(),
                    offset: None,
                });
                in_flight.fetch_sub(1, Ordering::AcqRel);
                answer
            }
        };
        if write_response(&mut stream, &response).is_err() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            // Keep draining promises so dispatcher sends stay non-blocking
            // no-ops rather than piling into a disconnected channel error
            // path mid-batch.
            for rest in pending.iter() {
                if let Pending::Waiting(rx) = rest {
                    let _ = rx.recv();
                    in_flight.fetch_sub(1, Ordering::AcqRel);
                }
            }
            return;
        }
    }
}

/// Dispatcher: drain queued jobs (up to `coalesce_limit` per round) and
/// run them.  Exits only when shutdown is flagged *and* the queue is
/// verifiably empty under the lock — every admitted job is answered.
fn dispatcher_loop(shared: &Arc<Shared>) {
    loop {
        let jobs = {
            let mut queue = shared.queue.lock().expect("job queue lock");
            loop {
                if !queue.is_empty() {
                    let take = queue.len().min(shared.config.coalesce_limit.max(1));
                    break queue.drain(..take).collect::<Vec<Job>>();
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (q, _timeout) = shared
                    .queue_signal
                    .wait_timeout(queue, POLL_QUANTUM)
                    .expect("job queue lock");
                queue = q;
            }
        };
        run_round(shared, jobs);
    }
}

/// Execute one drained round: its jobs run one by one on the dispatcher
/// thread, in arrival order, each under its own panic guard.
///
/// The counters describe the round's makeup: one dispatch round for its
/// singleton decides, one for its singleton counts and one per other job;
/// singleton decides (counts) are coalesced when the round holds more
/// than one of them.
fn run_round(shared: &Arc<Shared>, jobs: Vec<Job>) {
    let decides = jobs
        .iter()
        .filter(|job| matches!(job.work, Work::Decide(..)))
        .count();
    let counts = jobs
        .iter()
        .filter(|job| matches!(job.work, Work::Count(..)))
        .count();
    let rounds = usize::from(decides > 0) + usize::from(counts > 0) + jobs.len() - decides - counts;
    let coalesced: usize = [decides, counts].into_iter().filter(|&n| n > 1).sum();
    let counters = &shared.counters;
    counters
        .dispatch_rounds
        .fetch_add(rounds as u64, Ordering::Relaxed);
    counters
        .coalesced_requests
        .fetch_add(coalesced as u64, Ordering::Relaxed);
    for job in jobs {
        let _ = job.reply.send(job.work.run(&shared.engine));
    }
}

/// One-line server-side log (stderr, so stdout stays parseable for the
/// daemon's readiness line).
fn log_line(message: &str) {
    eprintln!("cq-service: {message}");
}
