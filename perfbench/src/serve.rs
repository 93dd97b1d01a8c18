//! `serve`: an in-process `cq_service::Server` on loopback, driven by one
//! client connection in a closed loop with blocking `Client` calls.  One
//! client, because with a second on a two-core machine the throughput
//! measured how the scheduler shared the cores, not the service.
//!
//! Requests are inline decides, counts, answer counts and shallow answer
//! pages over a fixed fleet: E19-sized graphs and cliques (~10^2 tuples)
//! and, for a fixed minority, a warehouse-shaped database of ~3·10^3
//! tuples.  The wire has no update request, so a delta is what
//! a wire user does instead: apply the next batch of its update stream to
//! its copy of the warehouse and decide against the new content, which
//! the server decodes and indexes afresh.

use crate::common::{derive, round_trip_stream, two_hop_query, Rng, TierMix};
use crate::layers::{self, Output};
use crate::metrics::{self, Kind, Recorder};
use crate::runner::{self, replay_count, replay_decide, set, EngineCounters, Probe, Report};
use crate::trace::Tracer;
use cq_core::{Engine, EngineConfig};
use cq_service::{Client, ClientError, QuerySpec, Request, Response, Server, ServiceConfig};
use cq_solver::program_compilation_count;
use cq_structures::codec::{decode_from_slice, encode_to_vec};
use cq_structures::{ConjunctiveQuery, DeltaBatch, Structure};
use cq_workloads::{
    counting_traffic, mutation_traffic, repeated_query_traffic, scale_corpus,
    selective_join_queries,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// E19-sized requests of each kind per block (decide, count, answer
/// count, page); the warehouse adds one request of each kind and a delta.
pub const SMALL_PER_KIND: usize = 50;
/// The fleet (graphs, cliques, warehouse and their queries) is fixed, so
/// every run decodes and reads the same content; the run seed draws which
/// graph each request reads, the order of each block and the warehouse's
/// update stream.  With a seeded fleet the throughput moved 15% between
/// seeds with the size of the warehouse drawn.
pub const FLEET_SEED: u64 = 0xE19;
/// E19-sized graph databases (16 vertices, edge probability 0.35).
pub const GRAPH_DBS: usize = 4;
pub const GRAPH_VERTICES: usize = 16;
pub const CLIQUES: [usize; 3] = [3, 4, 5];
/// The warehouse-shaped database.
pub const WAREHOUSE_ELEMS: usize = 600;
pub const WAREHOUSE_FACT_TUPLES: usize = 1_000;
pub const WAREHOUSE_SELECTIVE_TUPLES: usize = 30;
/// Forward rounds of the warehouse update stream.
pub const DELTA_ROUNDS: usize = 4;
pub const PAGE_OFFSETS: [u64; 2] = [0, 16];
pub const LIMIT: u64 = 16;
const SETUP_REPS: usize = 7;
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Which database a request reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Db {
    Graph(usize),
    Clique(usize),
    /// The client's own warehouse, at its current version.
    Warehouse,
}

/// Which query a request asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    Graph(usize),
    Counting(usize),
    Selective(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Decide(Query, Db),
    Count(Query, Db),
    AnswerCount(Db),
    Page(Db, u64),
    /// Apply the next batch of the client's stream to its warehouse, then
    /// decide the selective chain against the new content.
    Delta,
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Decide(..) => Kind::Decide,
            Op::Count(..) => Kind::Count,
            Op::AnswerCount(_) => Kind::AnswerCount,
            Op::Page(..) => Kind::Page,
            Op::Delta => Kind::Delta,
        }
    }

    fn reads_warehouse(&self) -> bool {
        matches!(
            self,
            Op::Decide(_, Db::Warehouse)
                | Op::Count(_, Db::Warehouse)
                | Op::AnswerCount(Db::Warehouse)
                | Op::Page(Db::Warehouse, _)
                | Op::Delta
        )
    }
}

/// What a response answers: the operation and the warehouse version it
/// read (0 for the E19-sized databases, which never change).
type Key = (usize, Op);

/// The responses of a run: one per distinct key, plus every later response
/// that differed from it.  Memory stays flat however many requests the
/// client completes, and every response is still checked: each one
/// equals its key's first response or is kept.
#[derive(Default)]
struct Outputs {
    first: HashMap<Key, Output>,
    differing: Vec<(Key, Output)>,
    responses: usize,
    mix: TierMix,
}

impl Outputs {
    fn record(&mut self, key: Key, out: Output) {
        self.responses += 1;
        self.mix.observe(&out);
        self.keep(key, out);
    }

    fn keep(&mut self, key: Key, out: Output) {
        match self.first.entry(key) {
            Entry::Vacant(v) => {
                v.insert(out);
            }
            Entry::Occupied(o) => {
                if *o.get() != out {
                    self.differing.push((key, out));
                }
            }
        }
    }
}

pub struct Serve {
    seed: u64,
    graph_queries: Vec<Structure>,
    graphs: Vec<Structure>,
    counting_queries: Vec<Structure>,
    cliques: Vec<Structure>,
    selective: Vec<Structure>,
    /// The warehouse's update stream.
    stream: Vec<DeltaBatch>,
    /// The warehouse after each prefix of its stream, built by applying
    /// the batches in turn.  A delta rebuilds the next version from the
    /// current one the same way, so a version's row order (which the
    /// decode cost depends on) is the same every time round the cycle.
    versions: Vec<Structure>,
    graph_answers: ConjunctiveQuery,
    warehouse_answers: ConjunctiveQuery,
}

/// A client's position in the warehouse update stream.
#[derive(Default)]
struct ClientState {
    position: usize,
}

/// The client's measured window.
struct ClientRun {
    rec: Recorder,
    outputs: Outputs,
    latencies: Vec<Duration>,
    blocks: usize,
}

impl Serve {
    pub fn new(seed: u64) -> Serve {
        let decide = repeated_query_traffic(GRAPH_DBS, GRAPH_VERTICES, 1, derive(FLEET_SEED, 1));
        let count = counting_traffic(&CLIQUES, 1, derive(FLEET_SEED, 2));
        let warehouse = scale_corpus(
            WAREHOUSE_ELEMS,
            3,
            WAREHOUSE_FACT_TUPLES,
            WAREHOUSE_SELECTIVE_TUPLES,
            derive(FLEET_SEED, 3),
        );
        let stream = round_trip_stream(mutation_traffic(
            &warehouse,
            DELTA_ROUNDS,
            0.01,
            derive(seed, 4),
        ));
        let mut versions = vec![warehouse];
        for batch in &stream[..stream.len() - 1] {
            versions.push(next_version(versions.last().expect("non-empty"), batch));
        }
        Serve {
            seed,
            graph_queries: decide.queries,
            graphs: decide.databases,
            counting_queries: count.queries,
            cliques: count.databases,
            selective: selective_join_queries(),
            stream,
            versions,
            graph_answers: two_hop_query("E"),
            warehouse_answers: two_hop_query("S"),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "serve: 1 closed-loop client; {} graphs of ~{} tuples, cliques {CLIQUES:?}, \
             a warehouse of {} tuples",
            self.graphs.len(),
            self.graphs
                .iter()
                .map(Structure::tuple_count)
                .sum::<usize>()
                / self.graphs.len(),
            self.versions[0].tuple_count()
        )
    }

    /// The operations of block `b`: a fixed mix in a seeded order.  The
    /// warehouse is a fixed minority of every kind and the only target of
    /// deltas.
    fn block(&self, b: usize) -> Vec<Op> {
        let mut rng = Rng::new(derive(self.seed, b as u64));
        let graph = |rng: &mut Rng| Db::Graph(rng.below(self.graphs.len()));
        let mut ops = Vec::new();
        for i in 0..SMALL_PER_KIND {
            let q = Query::Graph(i % self.graph_queries.len());
            ops.push(Op::Decide(q, graph(&mut rng)));
            let q = Query::Counting(i % self.counting_queries.len());
            ops.push(Op::Count(q, Db::Clique(rng.below(self.cliques.len()))));
            ops.push(Op::AnswerCount(graph(&mut rng)));
            ops.push(Op::Page(
                graph(&mut rng),
                PAGE_OFFSETS[i % PAGE_OFFSETS.len()],
            ));
        }
        let q = Query::Selective(rng.below(self.selective.len()));
        ops.push(Op::Decide(q, Db::Warehouse));
        let q = Query::Selective(rng.below(self.selective.len()));
        ops.push(Op::Count(q, Db::Warehouse));
        ops.push(Op::AnswerCount(Db::Warehouse));
        ops.push(Op::Page(Db::Warehouse, 0));
        ops.push(Op::Delta);
        rng.shuffle(&mut ops);
        ops
    }

    fn query(&self, q: Query) -> &Structure {
        match q {
            Query::Graph(i) => &self.graph_queries[i],
            Query::Counting(i) => &self.counting_queries[i],
            Query::Selective(i) => &self.selective[i],
        }
    }

    fn answer_query(&self, db: Db) -> &ConjunctiveQuery {
        match db {
            Db::Warehouse => &self.warehouse_answers,
            _ => &self.graph_answers,
        }
    }

    fn db(&self, db: Db, st: &ClientState) -> &Structure {
        match db {
            Db::Graph(i) => &self.graphs[i],
            Db::Clique(i) => &self.cliques[i],
            Db::Warehouse => &self.versions[st.position % self.versions.len()],
        }
    }

    /// The request an operation sends, applying a delta to the client's
    /// warehouse first.
    fn request(&self, op: Op, st: &mut ClientState, t: &mut Tracer) -> Request {
        match op {
            Op::Decide(q, db) => Request::Decide {
                query: QuerySpec::Inline(self.query(q).clone()),
                database: self.db(db, st).clone(),
            },
            Op::Count(q, db) => Request::Count {
                query: QuerySpec::Inline(self.query(q).clone()),
                database: self.db(db, st).clone(),
            },
            Op::AnswerCount(db) => Request::CountAnswers {
                query: self.answer_query(db).clone(),
                database: self.db(db, st).clone(),
            },
            Op::Page(db, offset) => Request::Answers {
                query: self.answer_query(db).clone(),
                database: self.db(db, st).clone(),
                offset,
                limit: LIMIT,
            },
            Op::Delta => {
                let v = st.position % self.stream.len();
                let current = &self.versions[v];
                let database = t.span("delta.apply", |_| next_version(current, &self.stream[v]));
                t.add("delta.tuple_ops", self.stream[v].len() as f64);
                st.position += 1;
                Request::Decide {
                    query: QuerySpec::Inline(self.selective[0].clone()),
                    database,
                }
            }
        }
    }

    /// Boot a server on loopback and send it every request template once.
    fn boot(&self) -> Server {
        let server = Server::start(
            Engine::new(EngineConfig::default()),
            "127.0.0.1:0",
            ServiceConfig::default(),
        )
        .expect("server boots on loopback");
        let mut client = connect(server.local_addr()).expect("warm-up client connects");
        for request in self.warm_requests() {
            call(&mut client, &request).expect("warm-up request succeeds");
        }
        server
    }

    /// Every request template, the warehouse at the start of its stream.
    fn warm_requests(&self) -> Vec<Request> {
        let mut off = Tracer::new(false);
        let mut st = ClientState::default();
        self.warm_ops()
            .into_iter()
            .map(|op| self.request(op, &mut st, &mut off))
            .collect()
    }

    /// Every (query, database) template the client sends.
    fn warm_ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for q in 0..self.graph_queries.len() {
            for d in 0..self.graphs.len() {
                ops.push(Op::Decide(Query::Graph(q), Db::Graph(d)));
            }
        }
        for q in 0..self.counting_queries.len() {
            for d in 0..self.cliques.len() {
                ops.push(Op::Count(Query::Counting(q), Db::Clique(d)));
            }
        }
        for q in 0..self.selective.len() {
            ops.push(Op::Decide(Query::Selective(q), Db::Warehouse));
            ops.push(Op::Count(Query::Selective(q), Db::Warehouse));
        }
        for d in (0..self.graphs.len()).map(Db::Graph).chain([Db::Warehouse]) {
            ops.push(Op::AnswerCount(d));
            ops.push(Op::Page(d, 0));
        }
        ops
    }

    /// The client in a closed loop for `budget`, running whole blocks.
    fn window(&self, addr: SocketAddr, budget: Duration) -> ClientRun {
        let mut client = connect(addr).expect("client connects");
        let mut st = ClientState::default();
        let mut off = Tracer::new(false);
        let mut run = ClientRun {
            rec: Recorder::default(),
            outputs: Outputs::default(),
            latencies: Vec::new(),
            blocks: 0,
        };
        let start = Instant::now();
        while start.elapsed() < budget {
            let block_start = Instant::now();
            let mut succeeded = 0;
            for op in self.block(run.blocks) {
                let t0 = Instant::now();
                let request = self.request(op, &mut st, &mut off);
                let out = call(&mut client, &request);
                let latency = t0.elapsed();
                run.latencies.push(latency);
                match out {
                    Ok(out) => {
                        run.rec.ok(op.kind(), latency);
                        run.outputs.record(self.key(op, &st), out);
                        succeeded += 1;
                    }
                    Err(e) => {
                        run.rec.fail(op.kind());
                        if !matches!(e, ClientError::Server { .. }) {
                            client = connect(addr).expect("client reconnects");
                        }
                    }
                }
            }
            run.rec.block(succeeded, block_start.elapsed());
            run.blocks += 1;
        }
        run.rec.window = start.elapsed();
        run
    }

    /// The key of a response, read after the request was built (a delta
    /// has moved the client to the version it decides against).
    fn key(&self, op: Op, st: &ClientState) -> Key {
        let version = if op.reads_warehouse() {
            st.position % self.stream.len()
        } else {
            0
        };
        (version, op)
    }

    /// Compare every response with an in-process engine on the content
    /// the request carried; returns the number of responses checked.
    fn check(&self, outputs: &Outputs) -> Result<usize, String> {
        let oracle = Engine::new(EngineConfig::default());
        let mut want: HashMap<Key, Output> = HashMap::new();
        for (key, out) in outputs
            .first
            .iter()
            .chain(outputs.differing.iter().map(|(k, o)| (k, o)))
        {
            let &(version, op) = key;
            let st = ClientState { position: version };
            let expected = want.entry(*key).or_insert_with(|| match op {
                Op::Decide(q, db) => {
                    Output::Decision(oracle.solve(self.query(q), self.db(db, &st)))
                }
                Op::Count(q, db) => {
                    Output::Count(oracle.count_instance(self.query(q), self.db(db, &st)))
                }
                Op::AnswerCount(db) => Output::AnswerCount(
                    oracle.count_answers(self.answer_query(db), self.db(db, &st)),
                ),
                Op::Page(db, offset) => Output::Page(oracle.answers(
                    self.answer_query(db),
                    self.db(db, &st),
                    offset,
                    LIMIT as usize,
                )),
                // The delta's decide reads the next version as a set of
                // tuples, which is all a decide depends on.
                Op::Delta => {
                    Output::Decision(oracle.solve(&self.selective[0], self.db(Db::Warehouse, &st)))
                }
            });
            if expected != out {
                return Err(format!(
                    "{op:?} at warehouse version {version}: {out:?}, engine {expected:?}"
                ));
            }
        }
        Ok(outputs.responses)
    }

    pub fn measure(&self, seconds: u64) -> Report {
        let mut setups = Vec::new();
        let mut server = None;
        for _ in 0..SETUP_REPS {
            if let Some(s) = server.take() {
                shutdown(s);
            }
            let start = Instant::now();
            server = Some(self.boot());
            setups.push(start.elapsed().as_secs_f64());
        }
        let server = server.expect("at least one set-up");
        let compilations = program_compilation_count();
        let run = self.window(server.local_addr(), Duration::from_secs(seconds));
        let compilations = program_compilation_count() - compilations;
        let stats = server.stats();
        shutdown(server);

        let (rec, outputs) = (run.rec, run.outputs);
        let (metrics, kind_notes) = metrics::end_to_end(&rec, metrics::median(&setups));
        let requests = stats.server.requests;
        let counters = format!(
            "{} service.coalesced_frac {:.4} service.refused_frac {:.4}",
            runner::counter_notes(&stats.cache, &stats.index, &outputs.mix, compilations),
            runner::frac(stats.server.coalesced_requests, requests),
            runner::frac(
                stats.server.busy_rejections + stats.server.quota_rejections,
                requests
            ),
        );
        let mut notes = vec![
            format!(
                "window: {:.2} s, {} blocks; setup_s is the median of {SETUP_REPS} boots",
                rec.window.as_secs_f64(),
                run.blocks
            ),
            counters,
        ];
        notes.extend(kind_notes);
        let correct = self.note_check(&outputs, "", &mut notes);
        Report {
            correct,
            attempted: rec.attempted(),
            failed: rec.failed(),
            metrics,
            notes,
        }
    }

    fn note_check(&self, outputs: &Outputs, what: &str, notes: &mut Vec<String>) -> bool {
        match self.check(outputs) {
            Ok(n) => {
                notes.push(format!(
                    "checks{what}: {n} responses agree with the in-process engine"
                ));
                true
            }
            Err(e) => {
                notes.push(format!("CHECK FAILED{what}: {e}"));
                false
            }
        }
    }

    /// An in-process engine warmed like the server.
    fn replica(&self) -> Engine {
        let engine = Engine::new(EngineConfig::default());
        for request in self.warm_requests() {
            handle(&engine, &request);
        }
        engine
    }

    /// One request as the service handles it, split into layers: client
    /// request build, request encode and decode, the engine's layers,
    /// response encode and decode.
    fn replay(
        &self,
        engine: &Engine,
        op: Op,
        st: &mut ClientState,
        t: &mut Tracer,
        probes: &mut Vec<Probe>,
    ) -> Output {
        let request = t.span("service.client", |t| self.request(op, st, t));
        let bytes = t.span("codec.encode_request", |_| encode_to_vec(&request));
        t.add("service.request_bytes", bytes.len() as f64);
        let decoded: Request = t
            .span("codec.decode_request", |_| decode_from_slice(&bytes))
            .expect("a request decodes from its own encoding");
        let (out, response) = match &decoded {
            Request::Decide {
                query: QuerySpec::Inline(q),
                database,
            } => {
                t.add("codec.tuples_decoded", database.tuple_count() as f64);
                let out = replay_decide(t, engine, q, database, probes);
                let Output::Decision(r) = &out else {
                    unreachable!()
                };
                let response = Response::Decision(r.clone());
                (out, response)
            }
            Request::Count {
                query: QuerySpec::Inline(q),
                database,
            } => {
                t.add("codec.tuples_decoded", database.tuple_count() as f64);
                let out = replay_count(t, engine, q, database, probes);
                let Output::Count(r) = &out else {
                    unreachable!()
                };
                let response = Response::Count(r.clone());
                (out, response)
            }
            Request::CountAnswers { query, database } => {
                t.add("codec.tuples_decoded", database.tuple_count() as f64);
                let r = layers::count_answers(t, engine, query, database);
                (Output::AnswerCount(r), Response::AnswerCount(r))
            }
            Request::Answers {
                query,
                database,
                offset,
                limit,
            } => {
                t.add("codec.tuples_decoded", database.tuple_count() as f64);
                let p = layers::page(t, engine, query, database, *offset, *limit as usize);
                (Output::Page(p.clone()), Response::Answers(p))
            }
            other => unreachable!("the workload never sends {other:?}"),
        };
        let bytes = t.span("codec.encode_response", |_| encode_to_vec(&response));
        let _: Response = t
            .span("codec.decode_response", |_| decode_from_slice(&bytes))
            .expect("a response decodes from its own encoding");
        out
    }

    pub fn trace(&self, seconds: u64) -> Report {
        let mut t = Tracer::new(true);
        let queries: Vec<Structure> = self
            .graph_queries
            .iter()
            .chain(&self.counting_queries)
            .chain(&self.selective)
            .cloned()
            .collect();
        let resident: Vec<Structure> = self
            .graphs
            .iter()
            .chain(&self.cliques)
            .chain(&self.versions[..1])
            .cloned()
            .collect();
        runner::probe_preparation(&mut t, &queries, &resident);

        // The untraced wire pass.
        let server = self.boot();
        let run = self.window(
            server.local_addr(),
            Duration::from_secs(seconds).div_f64(2.0),
        );
        let stats = server.stats();
        let mut client = connect(server.local_addr()).expect("client connects");
        let mut pings: Vec<f64> = (0..200)
            .map(|_| {
                let start = Instant::now();
                client.ping().expect("ping");
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        pings.sort_by(f64::total_cmp);
        drop(client);
        shutdown(server);

        // The replay order: the window's operations with their wire
        // latencies.
        let order: Vec<(Op, Duration)> = (0..run.blocks)
            .flat_map(|b| self.block(b))
            .zip(run.latencies.iter().copied())
            .collect();

        // In-process handling without spans: the untraced comparator of
        // the tracing overhead (the replay has no wire), and the base the
        // wire round trip is compared with.
        let engine = self.replica();
        let mut st = ClientState::default();
        let mut untraced = Duration::ZERO;
        let mut wire_excess: HashMap<Kind, (f64, u64)> = HashMap::new();
        let mut off = Tracer::new(false);
        for &(op, wire) in &order {
            let start = Instant::now();
            let request = self.request(op, &mut st, &mut off);
            let bytes = encode_to_vec(&request);
            let decoded: Request = decode_from_slice(&bytes).expect("decodes");
            let response = handle(&engine, &decoded);
            let bytes = encode_to_vec(&response);
            let _: Response = decode_from_slice(&bytes).expect("decodes");
            let in_process = start.elapsed();
            untraced += in_process;
            let e = wire_excess.entry(op.kind()).or_default();
            e.0 += (wire.as_secs_f64() - in_process.as_secs_f64()) * 1e3;
            e.1 += 1;
        }
        drop(engine);

        let engine = self.replica();
        let before = EngineCounters::of(&engine);
        let mut st = ClientState::default();
        let mut replayed = Outputs::default();
        let mut compilations = 0;
        let mut probes = Vec::new();
        for &(op, _) in &order {
            let before = program_compilation_count();
            let out = t.op(op.kind(), |t| {
                self.replay(&engine, op, &mut st, t, &mut probes)
            });
            compilations += program_compilation_count() - before;
            for p in probes.drain(..) {
                p.run(&mut t);
            }
            replayed.record(self.key(op, &st), out);
        }
        let after = EngineCounters::of(&engine);
        drop(engine);

        let mut m = runner::layer_metrics(&t, &replayed.mix, compilations);
        set(
            &mut m,
            "service.request_bytes",
            t.counter("service.request_bytes") / order.len().max(1) as f64,
        );
        set(&mut m, "service.ping_rtt_ms", metrics::median(&pings));
        let requests = stats.server.requests;
        set(
            &mut m,
            "service.coalesced_frac",
            runner::frac(stats.server.coalesced_requests, requests),
        );
        set(
            &mut m,
            "service.refused_frac",
            runner::frac(
                stats.server.busy_rejections + stats.server.quota_rejections,
                requests,
            ),
        );
        let excess_total: f64 = wire_excess.values().map(|e| e.0).sum();
        set(
            &mut m,
            "service.unattributed_ms",
            excess_total / order.len().max(1) as f64,
        );
        for (kind, (excess_ms, n)) in &wire_excess {
            // The framing, socket, queue and thread hand-offs the replay
            // cannot see are the service layer's share of a request, next
            // to the client's request build.
            let name = format!("{}.service_ms", kind.name());
            let client = m[&name].value;
            set(&mut m, &name, client + excess_ms / *n as f64);
        }
        after.set_since(&before, &mut m);
        set(
            &mut m,
            "trace.overhead_frac",
            t.op_wall().as_secs_f64() / untraced.as_secs_f64() - 1.0,
        );

        let mut notes = vec![format!("traced replay of {} requests", order.len())];
        let rec = run.rec;
        m.extend(metrics::kind_latencies(&rec).0);
        let mut correct = self.note_check(&run.outputs, " (wire)", &mut notes);
        correct &= self.note_check(&replayed, " (replayed)", &mut notes);
        Report {
            correct,
            attempted: rec.attempted() + order.len() as u64,
            failed: rec.failed(),
            metrics: m,
            notes,
        }
    }
}

fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
    Client::connect_with_timeout(addr, Some(READ_TIMEOUT))
}

fn shutdown(server: Server) {
    server.shutdown().expect("graceful shutdown");
}

/// The warehouse after one more batch of its stream.
fn next_version(current: &Structure, batch: &DeltaBatch) -> Structure {
    let mut next = current.clone();
    next.apply_delta(batch)
        .expect("the stream is valid for the content it walks");
    next
}

/// One blocking round trip; typed refusals and errors are failures.
fn call(client: &mut Client, request: &Request) -> Result<Output, ClientError> {
    Ok(match client.call(request)? {
        Response::Decision(r) => Output::Decision(r),
        Response::Count(r) => Output::Count(r),
        Response::AnswerCount(r) => Output::AnswerCount(r),
        Response::Answers(p) => Output::Page(p),
        other => return Err(ClientError::UnexpectedResponse(Box::new(other))),
    })
}

/// A request handled through the public `Engine` API, as the server's
/// dispatcher does for a single request.
fn handle(engine: &Engine, request: &Request) -> Response {
    match request {
        Request::Decide {
            query: QuerySpec::Inline(q),
            database,
        } => Response::Decision(engine.solve(q, database)),
        Request::Count {
            query: QuerySpec::Inline(q),
            database,
        } => Response::Count(engine.count_instance(q, database)),
        Request::CountAnswers { query, database } => {
            Response::AnswerCount(engine.count_answers(query, database))
        }
        Request::Answers {
            query,
            database,
            offset,
            limit,
        } => Response::Answers(engine.answers(query, database, *offset, *limit as usize)),
        other => unreachable!("the workload never sends {other:?}"),
    }
}
