//! End-to-end protocol tests: a real daemon on an ephemeral port, real TCP
//! clients, covering the happy path plus every failure lane the protocol
//! promises — structured errors for malformed lines, explicit `busy`
//! backpressure, queueing deadlines, and graceful drain that finishes
//! admitted work.

mod common;

use sherlock_obs::json::Json;
use sherlock_serve::{spawn, Client, ServeConfig};

use common::app_traces;

fn small_config() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.addr = "127.0.0.1:0".to_string();
    cfg.workers = 2;
    cfg
}

#[test]
fn absorb_solve_race_check_round_trip() {
    let server = spawn(small_config()).expect("spawn");
    let mut client = Client::connect(server.addr()).expect("connect");
    let traces = app_traces("App-1", 3);

    for trace in &traces {
        let r = client.absorb_trace("app1", trace).expect("absorb");
        assert!(r.ok, "absorb failed: {:?}", r.error);
        assert!(r.doc.get("events").unwrap().as_u64().unwrap() > 0);
    }
    let r = client.absorb_trace("app1", &traces[0]).expect("re-absorb");
    assert_eq!(
        r.doc.get("traces_absorbed").unwrap().as_u64(),
        Some(4),
        "re-absorbing the same trace still counts (accumulation is additive)"
    );

    let solve = client.solve("app1").expect("solve");
    assert!(solve.ok, "solve failed: {:?}", solve.error);
    let spec = solve.doc.get("spec").unwrap().as_str().unwrap();
    assert!(spec.contains("Releasing sites:"), "unexpected spec: {spec}");

    let rc = client
        .race_check("app1", &traces[0], Some("App-1"))
        .expect("race_check");
    assert!(rc.ok, "race_check failed: {:?}", rc.error);
    assert!(rc.doc.get("races").unwrap().as_u64().is_some());
    assert_eq!(rc.doc.get("app").unwrap().as_str(), Some("App-1"));
    assert!(matches!(rc.doc.get("agrees"), Some(Json::Bool(_))));

    // race_check on a session with no observations is a structured error.
    let empty = client
        .race_check("untouched", &traces[0], None)
        .expect("race_check empty");
    assert!(!empty.ok);
    assert!(empty.error.unwrap().contains("no observations"));

    let stats = client.stats().expect("stats");
    assert!(stats.ok);
    assert!(stats.doc.get("sessions").unwrap().as_u64().unwrap() >= 2);

    let bye = client.shutdown().expect("shutdown");
    assert!(bye.ok);
    let summary = server.join();
    assert_eq!(summary.protocol_errors, 0);
    assert!(summary.requests >= 8);
    assert_eq!(summary.requests, summary.responses);
}

#[test]
fn malformed_lines_get_structured_errors_and_never_kill_the_connection() {
    let server = spawn(small_config()).expect("spawn");
    let mut client = Client::connect(server.addr()).expect("connect");

    let r = client.call_raw("this is not json").expect("raw garbage");
    assert!(!r.ok);
    assert!(r.error.as_deref().unwrap().contains("malformed JSON"));
    assert_eq!(r.id, Json::Null);

    // Valid JSON, invalid request: the id is still echoed back.
    let r = client
        .call_raw(r#"{"id": 41, "type": "warp"}"#)
        .expect("unknown type");
    assert!(!r.ok);
    assert_eq!(r.id, Json::Num(41.0));
    assert!(r.error.as_deref().unwrap().contains("unknown request type"));

    let r = client
        .call_raw(r#"{"type": "absorb_trace", "trace": 7}"#)
        .expect("bad trace");
    assert!(!r.ok);

    // The connection and the workers are still alive.
    let r = client
        .call("ping", "default", vec![])
        .expect("ping after garbage");
    assert!(r.ok);

    server.shutdown();
    let summary = server.join();
    assert_eq!(summary.protocol_errors, 3);
}

#[test]
fn an_over_cap_line_gets_a_structured_error_and_closes_the_connection() {
    use std::io::{BufRead, BufReader, Read, Write};

    let cap = sherlock_store::framing::MAX_RECORD_LEN as usize;
    let server = spawn(small_config()).expect("spawn");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    // A server that keeps waiting for the newline fails the test, not hangs it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("read timeout");
    stream
        .write_all(b"{\"id\":1,\"type\":\"ping\"}\n")
        .expect("write ping");
    // One byte past the cap and no newline: the line can never be framed.
    let chunk = vec![b'x'; 1 << 20];
    let mut left = cap + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        stream.write_all(&chunk[..n]).expect("write over-cap line");
        left -= n;
    }

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("ping response");
    let ping = Json::parse(line.trim()).expect("ping json");
    assert_eq!(ping.get("ok"), Some(&Json::Bool(true)), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("error response");
    let err = Json::parse(line.trim()).expect("error json");
    assert_eq!(err.get("ok"), Some(&Json::Bool(false)), "{line}");
    assert_eq!(err.get("id"), Some(&Json::Null));
    let msg = err.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(msg.contains("exceeds"), "unexpected error: {msg}");
    // The server closed the connection after answering.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty());

    let counters = sherlock_obs::snapshot().counters;
    assert!(counters.get("serve.oversized_lines").copied().unwrap_or(0) >= 1);
    server.shutdown();
    let summary = server.join();
    assert_eq!(summary.protocol_errors, 1);
    assert_eq!(summary.requests, summary.responses);
}

#[test]
fn full_queue_yields_explicit_busy_and_order_is_preserved() {
    let mut cfg = small_config();
    cfg.workers = 1;
    cfg.queue_capacity = 2;
    let server = spawn(cfg).expect("spawn");
    let mut client = Client::connect(server.addr()).expect("connect");

    // One slow ping occupies the single worker; the reader admits at most
    // `queue_capacity` jobs, so later pings in the burst bounce with `busy`.
    let burst: Vec<_> = (0..6)
        .map(|_| {
            (
                "ping",
                "default",
                vec![("delay_ms".to_string(), Json::from(120u64))],
            )
        })
        .collect();
    let responses = client.pipeline(burst).expect("pipeline");
    assert_eq!(responses.len(), 6);
    // Per-connection ordering: ids echo back strictly in request order.
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.id.as_u64(), Some(i as u64), "response {i} out of order");
    }
    let busy = responses.iter().filter(|r| r.busy).count();
    let ok = responses.iter().filter(|r| r.ok).count();
    assert!(
        busy >= 1,
        "no busy response despite capacity 2 and 6 requests"
    );
    assert!(ok >= 2, "admitted requests must still succeed");
    assert_eq!(busy + ok, 6, "every response is either ok or busy");

    server.shutdown();
    let summary = server.join();
    assert_eq!(summary.busy_rejections, busy as u64);
}

#[test]
fn queueing_deadline_expires_instead_of_running() {
    let mut cfg = small_config();
    cfg.workers = 1;
    let server = spawn(cfg).expect("spawn");
    let mut client = Client::connect(server.addr()).expect("connect");

    let responses = client
        .pipeline(vec![
            (
                "ping",
                "default",
                vec![("delay_ms".to_string(), Json::from(150u64))],
            ),
            (
                "ping",
                "default",
                vec![("deadline_ms".to_string(), Json::from(10u64))],
            ),
        ])
        .expect("pipeline");
    assert!(responses[0].ok, "slow ping should succeed");
    assert!(!responses[1].ok, "queued past its deadline");
    assert_eq!(responses[1].error.as_deref(), Some("deadline exceeded"));

    server.shutdown();
    let summary = server.join();
    assert_eq!(summary.deadline_expired, 1);
}

#[test]
fn shutdown_drains_admitted_work_before_exiting() {
    let mut cfg = small_config();
    cfg.workers = 1;
    let server = spawn(cfg).expect("spawn");
    let mut client = Client::connect(server.addr()).expect("connect");
    let trace = app_traces("App-2", 1).remove(0);

    // Pipelined: slow ping, absorb, solve, then shutdown. The shutdown is
    // handled inline the moment it is read, yet every admitted job still
    // completes and all responses come back in order.
    let responses = client
        .pipeline(vec![
            (
                "ping",
                "d",
                vec![("delay_ms".to_string(), Json::from(100u64))],
            ),
            (
                "absorb_trace",
                "d",
                vec![("trace".to_string(), sherlock_trace::json::to_value(&trace))],
            ),
            ("solve", "d", vec![]),
            ("shutdown", "d", vec![]),
        ])
        .expect("pipeline");
    assert!(responses[0].ok, "ping: {:?}", responses[0].error);
    assert!(responses[1].ok, "absorb: {:?}", responses[1].error);
    assert!(responses[2].ok, "solve: {:?}", responses[2].error);
    assert!(responses[3].ok, "shutdown: {:?}", responses[3].error);

    let addr = server.addr();
    let summary = server.join();
    assert_eq!(summary.requests, 4);
    assert_eq!(summary.responses, 4);

    // The daemon is gone: new connections are refused or die immediately.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.call("ping", "d", vec![]).is_err()),
    }
}

#[test]
fn sessions_are_isolated_and_lru_evicted() {
    let mut cfg = small_config();
    cfg.max_sessions = 2;
    let server = spawn(cfg).expect("spawn");
    let mut client = Client::connect(server.addr()).expect("connect");
    let trace = app_traces("App-3", 1).remove(0);

    // Absorbing into s1 must not leak into s2.
    assert!(client.absorb_trace("s1", &trace).unwrap().ok);
    let s1 = client.solve("s1").unwrap();
    assert_eq!(s1.doc.get("traces_absorbed").unwrap().as_u64(), Some(1));
    let s2 = client.solve("s2").unwrap();
    assert_eq!(
        s2.doc.get("traces_absorbed").unwrap().as_u64(),
        Some(0),
        "fresh session sees no foreign observations"
    );

    // A third key evicts the least-recently-touched one.
    assert!(client.call("ping", "s3", vec![]).unwrap().ok);
    let stats = client.stats().unwrap();
    assert_eq!(stats.doc.get("sessions").unwrap().as_u64(), Some(2));
    assert!(stats.doc.get("evictions").unwrap().as_u64().unwrap() >= 1);

    server.shutdown();
    let summary = server.join();
    assert!(summary.evictions >= 1);
    assert_eq!(summary.sessions, 2);
}

#[test]
fn stats_reports_latency_quantiles_and_serve_counters() {
    let server = spawn(small_config()).expect("spawn");
    let mut client = Client::connect(server.addr()).expect("connect");
    for _ in 0..5 {
        assert!(client.call("ping", "default", vec![]).unwrap().ok);
    }
    let stats = client.stats().unwrap();
    assert!(stats.ok);
    let latency = stats.doc.get("latency_ns").unwrap();
    let p50 = latency.get("p50").unwrap().as_u64().unwrap();
    let p99 = latency.get("p99").unwrap().as_u64().unwrap();
    assert!(latency.get("count").unwrap().as_u64().unwrap() >= 5);
    assert!(p50 > 0 && p99 >= p50, "p50={p50} p99={p99}");
    let counters = stats.doc.get("counters").unwrap();
    assert!(counters.get("serve.requests").is_some());

    server.shutdown();
    server.join();
}
