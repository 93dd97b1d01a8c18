//! In-process integration tests for the query service: a real server on a
//! loopback socket, driven by the client library, checked against an
//! in-process engine.

use cq_core::{Engine, EngineConfig};
use cq_service::Server;
use cq_service::{Client, ClientError, ErrorCode, QuerySpec, Request, Response, ServiceConfig};
use cq_structures::families;
use cq_workloads::{counting_traffic, repeated_query_traffic};
use std::time::Duration;

/// Every test client reads with a deadline so a wedged server fails the
/// test instead of hanging the suite.
const TEST_TIMEOUT: Duration = Duration::from_secs(30);

fn test_config() -> ServiceConfig {
    ServiceConfig {
        io_timeout: Duration::from_secs(2),
        ..ServiceConfig::default()
    }
}

fn start_server(config: ServiceConfig) -> Server {
    let engine = Engine::new(EngineConfig::default());
    Server::start(engine, "127.0.0.1:0", config).expect("server boots on a loopback port")
}

fn connect(server: &Server) -> Client {
    Client::connect_with_timeout(server.local_addr(), Some(TEST_TIMEOUT)).expect("client connects")
}

#[test]
fn decide_and_count_agree_with_the_in_process_engine() {
    let server = start_server(test_config());
    let mut client = connect(&server);
    let oracle = Engine::new(EngineConfig::default());

    let workload = repeated_query_traffic(2, 14, 2, 5);
    for &(q, d) in &workload.trace {
        let got = client
            .decide(
                QuerySpec::Inline(workload.queries[q].clone()),
                &workload.databases[d],
            )
            .expect("decide");
        let want = oracle.solve(&workload.queries[q], &workload.databases[d]);
        assert_eq!(
            got, want,
            "server and in-process engine must agree bit for bit"
        );
    }

    let counting = counting_traffic(&[3, 4], 1, 9);
    for (i, &(q, d)) in counting.trace.iter().enumerate() {
        let got = client
            .count(
                QuerySpec::Inline(counting.queries[q].clone()),
                &counting.databases[d],
            )
            .expect("count");
        assert_eq!(got.count, counting.expected[i], "closed form");
        let want = oracle.count_instance(&counting.queries[q], &counting.databases[d]);
        assert_eq!(got, want);
    }
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn registered_handles_answer_like_inline_queries() {
    let server = start_server(test_config());
    let mut client = connect(&server);
    let query = families::cycle(5);
    let database = cq_workloads::random_graph_structure(16, 0.3, 3);

    let (id, fingerprint) = client.register(&query).expect("register");
    let by_handle = client
        .decide(QuerySpec::Registered(id), &database)
        .expect("decide by handle");
    let inline = client
        .decide(QuerySpec::Inline(query.clone()), &database)
        .expect("decide inline");
    assert_eq!(by_handle, inline);
    assert_ne!(
        fingerprint, 0,
        "fingerprints are non-degenerate in practice"
    );

    // Batches accept a mix of handles and inline queries.
    let batch = client
        .decide_batch(vec![
            (QuerySpec::Registered(id), database.clone()),
            (QuerySpec::Inline(query), database.clone()),
        ])
        .expect("mixed batch");
    assert_eq!(batch.len(), 2);
    assert_eq!(batch[0], batch[1]);
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn answers_over_the_wire_agree_with_the_in_process_engine() {
    let server = start_server(test_config());
    let mut client = connect(&server);
    let oracle = Engine::new(EngineConfig::default());

    let mut query = cq_structures::ConjunctiveQuery::from_structure(&families::path(4));
    for v in [query.variables()[0].clone(), query.variables()[3].clone()] {
        query.mark_free(v).expect("path variables exist");
    }
    let database = cq_workloads::random_graph_structure(9, 0.35, 5);

    let report = client.count_answers(&query, &database).expect("count");
    assert_eq!(report, oracle.count_answers(&query, &database));
    assert!(report.answers > 0, "a path maps into a random graph");

    // Page through the whole enumeration and reassemble it.
    let mut rows = Vec::new();
    let mut offset = 0u64;
    loop {
        let page = client
            .answers(&query, &database, offset, 3)
            .expect("answers page");
        assert_eq!(page, oracle.answers(&query, &database, offset, 3));
        offset += page.rows.len() as u64;
        rows.extend(page.rows);
        if !page.has_more {
            break;
        }
    }
    assert_eq!(rows.len() as u64, report.answers, "pages tile the answers");

    // The server enforces the page-size ceiling; the connection survives.
    match client.answers(&query, &database, 0, cq_service::MAX_ANSWER_PAGE_LIMIT + 1) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a Malformed error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection survives an oversized limit");

    // A malformed query (one relation, two arities) is refused with a typed
    // error at the boundary — the engine's panic never reaches the wire.
    let mut bad = cq_structures::ConjunctiveQuery::new();
    bad.atom("R", &["x"]).atom("R", &["x", "y"]);
    match client.count_answers(&bad, &database) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a Malformed error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection survives a malformed query");
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn unknown_query_id_is_an_error_and_the_connection_survives() {
    let server = start_server(test_config());
    let mut client = connect(&server);
    let database = cq_workloads::random_graph_structure(8, 0.3, 1);

    match client.decide(QuerySpec::Registered(999), &database) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownQueryId),
        other => panic!("expected an UnknownQueryId error, got {other:?}"),
    }
    // The error was request-level, not connection-level.
    client.ping().expect("connection survives an unknown id");
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn pipelined_responses_come_back_in_request_order() {
    let server = start_server(test_config());
    let mut client = connect(&server);
    let query = families::star(3);
    let database = cq_workloads::random_graph_structure(10, 0.4, 2);

    // Ship a window of heterogeneous requests without reading, then
    // collect: the response kinds must replay the request order exactly.
    client.send(&Request::Ping).expect("send");
    client
        .send(&Request::Decide {
            query: QuerySpec::Inline(query.clone()),
            database: database.clone(),
        })
        .expect("send");
    client.send(&Request::Stats).expect("send");
    client
        .send(&Request::Count {
            query: QuerySpec::Inline(query),
            database,
        })
        .expect("send");
    client.send(&Request::Ping).expect("send");

    assert!(matches!(client.receive().expect("r0"), Response::Pong));
    assert!(matches!(
        client.receive().expect("r1"),
        Response::Decision(_)
    ));
    assert!(matches!(client.receive().expect("r2"), Response::Stats(_)));
    assert!(matches!(client.receive().expect("r3"), Response::Count(_)));
    assert!(matches!(client.receive().expect("r4"), Response::Pong));
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn connections_over_the_limit_are_refused_at_the_door() {
    let server = start_server(ServiceConfig {
        max_connections: 1,
        ..test_config()
    });
    let mut first = connect(&server);
    first.ping().expect("the admitted connection works");

    // The second connection gets an unsolicited Busy error frame, then
    // EOF — read it without sending anything.
    let mut second = connect(&server);
    match second.receive() {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected a Busy refusal, got {other:?}"),
    }
    drop(second);

    // Freeing the slot readmits: poll until the server notices the drop.
    first.ping().expect("the admitted connection is unaffected");
    drop(first);
    let deadline = std::time::Instant::now() + TEST_TIMEOUT;
    loop {
        let mut retry = connect(&server);
        match retry.ping() {
            Ok(()) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn in_flight_quota_answers_busy_and_keeps_the_connection() {
    let server = start_server(ServiceConfig {
        max_in_flight_per_connection: 1,
        ..test_config()
    });
    let mut client = connect(&server);
    let query = families::cycle(5);
    let database = cq_workloads::random_graph_structure(120, 0.15, 7);

    // An 8-deep pipeline against a 1-slot quota: the first request is
    // always admitted (nothing in flight yet); anything decoded while an
    // earlier answer is still owed bounces with a typed Busy.
    const WINDOW: usize = 8;
    for _ in 0..WINDOW {
        client
            .send(&Request::Count {
                query: QuerySpec::Inline(query.clone()),
                database: database.clone(),
            })
            .expect("send");
    }
    let mut answered = 0u32;
    let mut busy = 0u32;
    for i in 0..WINDOW {
        match client.receive().expect("in-order response") {
            Response::Count(_) => answered += 1,
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Busy, "quota refusals are typed Busy");
                busy += 1;
            }
            other => panic!("response {i}: expected Count or Busy, got {other:?}"),
        }
    }
    assert_eq!(
        answered + busy,
        WINDOW as u32,
        "every request gets an answer"
    );
    assert!(answered >= 1, "the first request is always admitted");
    assert!(
        busy >= 1,
        "an 8-deep pipeline against a 1-slot quota must overflow"
    );
    // The refusals were request-level: the connection still works, and the
    // freed quota slot admits engine work again.
    client.ping().expect("connection survives the quota");
    client
        .count(QuerySpec::Inline(query), &database)
        .expect("quota slot freed after the pipeline drained");
    assert!(
        server.stats().server.quota_rejections >= u64::from(busy),
        "quota refusals are counted separately from queue-full Busy"
    );
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn rate_quota_answers_busy_and_refills() {
    let server = start_server(ServiceConfig {
        max_requests_per_second: 2,
        ..test_config()
    });
    let mut client = connect(&server);

    // Burst capacity equals the rate: of six back-to-back pings, the
    // first two are always admitted and at least one later ping must hit
    // an empty bucket (refilling 1 token takes 0.5 s at 2/s).
    for _ in 0..6 {
        client.send(&Request::Ping).expect("send");
    }
    let mut pongs = 0u32;
    let mut busy = 0u32;
    for i in 0..6 {
        match client.receive().expect("in-order response") {
            Response::Pong => pongs += 1,
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Busy, "rate refusals are typed Busy");
                busy += 1;
            }
            other => panic!("response {i}: expected Pong or Busy, got {other:?}"),
        }
    }
    assert!(pongs >= 2, "the burst capacity admits the first two");
    assert!(busy >= 1, "a six-ping burst against 2/s must be throttled");
    // The bucket refills: after a full second this connection holds at
    // least one token again (sleep lower-bounds the elapsed refill time).
    std::thread::sleep(Duration::from_millis(1100));
    client
        .ping()
        .expect("the bucket refilled; same connection serves");
    assert!(server.stats().server.quota_rejections >= u64::from(busy));
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let server = start_server(test_config());
    let addr = server.local_addr();
    let oracle = Engine::new(EngineConfig::default());
    let workload = repeated_query_traffic(2, 12, 2, 21);
    let expected: Vec<_> = workload
        .trace
        .iter()
        .map(|&(q, d)| oracle.solve(&workload.queries[q], &workload.databases[d]))
        .collect();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let workload = workload.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with_timeout(addr, Some(TEST_TIMEOUT)).expect("connect");
                for (&(q, d), want) in workload.trace.iter().zip(&expected) {
                    let got = client
                        .decide(
                            QuerySpec::Inline(workload.queries[q].clone()),
                            &workload.databases[d],
                        )
                        .expect("decide");
                    assert_eq!(&got, want);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let stats = server.stats();
    assert_eq!(stats.server.connections_accepted, 4);
    assert!(
        stats.server.requests >= 4 * workload.trace.len() as u64,
        "every request was counted"
    );
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn protocol_shutdown_saves_plans_and_the_next_boot_is_warm() {
    let dir = std::env::temp_dir().join(format!("cq-svc-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = dir.join("plans.cq");
    let _ = std::fs::remove_file(&store);

    let config = ServiceConfig {
        plan_store: Some(store.clone()),
        ..test_config()
    };
    let server = start_server(config.clone());
    assert!(
        server.warm_start().is_none(),
        "no store file yet: cold boot"
    );
    let mut client = connect(&server);
    let queries = [families::star(3), families::cycle(5), families::path(4)];
    let database = cq_workloads::random_graph_structure(12, 0.3, 8);
    let cold_answers: Vec<_> = queries
        .iter()
        .map(|q| {
            client
                .decide(QuerySpec::Inline(q.clone()), &database)
                .expect("cold decide")
        })
        .collect();

    // Remote shutdown: the ack comes back, then the server drains and the
    // local handle's shutdown() persists the plans.
    client.shutdown_server().expect("shutdown ack");
    assert!(server.is_shutting_down());
    let report = server.shutdown().expect("graceful shutdown");
    assert_eq!(report.plans_saved, queries.len() as u64);

    // Second boot: warm from the store, zero preparation work before (and
    // during) identical traffic.
    let server = start_server(config);
    let summary = server.warm_start().expect("store file exists now");
    assert_eq!(summary.loaded, queries.len() as u64);
    let boot = server.stats().prep;
    assert_eq!(boot.preparations, 0);
    assert_eq!(
        boot.treewidth_calls + boot.pathwidth_calls + boot.treedepth_calls,
        0,
        "a warm boot performs zero width DPs before the first answer"
    );
    let mut client = connect(&server);
    for (q, want) in queries.iter().zip(&cold_answers) {
        let got = client
            .decide(QuerySpec::Inline(q.clone()), &database)
            .expect("warm decide");
        assert_eq!(&got, want, "warm answers are bit-identical to cold ones");
    }
    let after = server.stats().prep;
    assert_eq!(after.preparations, 0, "warm traffic is all cache hits");
    server.shutdown().expect("second graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn requests_during_drain_are_rejected_as_shutting_down() {
    let server = start_server(test_config());
    let mut client = connect(&server);
    client.ping().expect("pre-drain ping");
    server.begin_shutdown();
    // The reader may close the connection before or after answering; a
    // request-level ShuttingDown error and a transport-level close are
    // both correct. What is not correct is a hang or a normal answer.
    let database = cq_workloads::random_graph_structure(8, 0.3, 1);
    match client.decide(QuerySpec::Inline(families::star(3)), &database) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        Err(ClientError::Frame(_)) => {}
        Ok(_) => panic!("a drained server must not answer new work"),
        Err(other) => panic!("unexpected error kind: {other:?}"),
    }
    server.shutdown().expect("graceful shutdown");
}

/// With `coalesce_limit: 1` every drained round holds one job, so each
/// engine-bound request is its own dispatch round and none is coalesced.
#[test]
fn uncoalesced_rounds_count_one_dispatch_per_request() {
    let server = start_server(ServiceConfig {
        coalesce_limit: 1,
        ..test_config()
    });
    let mut client = connect(&server);
    let query = families::star(3);
    let database = cq_workloads::random_graph_structure(10, 0.4, 2);
    let pair = || (QuerySpec::Inline(query.clone()), database.clone());
    let mut requests = Vec::new();
    for _ in 0..3 {
        let (query, database) = pair();
        requests.push(Request::Decide { query, database });
        let (query, database) = pair();
        requests.push(Request::Count { query, database });
    }
    requests.push(Request::DecideBatch {
        items: vec![pair(), pair()],
    });
    let mut answer_query = cq_structures::ConjunctiveQuery::from_structure(&query);
    let first = answer_query.variables()[0].clone();
    answer_query.mark_free(first).expect("star variables exist");
    requests.push(Request::CountAnswers {
        query: answer_query,
        database: database.clone(),
    });
    for request in &requests {
        client.send(request).expect("send");
    }
    for _ in &requests {
        let response = client.receive().expect("response");
        assert!(
            !matches!(response, Response::Error { .. }),
            "unexpected {response:?}"
        );
    }
    let server_counters = client.stats().expect("stats").server;
    assert_eq!(server_counters.dispatch_rounds, requests.len() as u64);
    assert_eq!(server_counters.coalesced_requests, 0);
    server.shutdown().expect("graceful shutdown");
}
