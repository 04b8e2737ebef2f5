//! The service smoke test CI runs: three requests over the real
//! socket protocol, two of them identical — assert exactly one compile
//! for the duplicated spec and byte-equal manifests — and a lossy
//! request the session would refuse, which must get an error reply.

use ami_scenario::json::{parse, JsonValue};
use ami_svc::proto::{read_frame, write_frame};
use ami_svc::server::Server;
use ami_svc::Service;
use std::net::TcpStream;
use std::sync::Arc;

const GRID_SPEC: &str = r#"{
    "name": "smoke-grid",
    "rounds": 20,
    "topology": {"kind": "grid", "side": 4, "spacing_m": 30.0},
    "workload": {"kind": "gathering", "strategy": "minimum_energy"}
}"#;

const LOSSY_SPEC: &str = r#"{
    "name": "smoke-lossy",
    "rounds": 20,
    "topology": {"kind": "grid", "side": 4, "spacing_m": 30.0},
    "workload": {"kind": "lossy", "ber": 0.001, "arq_attempts": 4}
}"#;

fn roundtrip(conn: &mut TcpStream, request: &str) -> JsonValue {
    write_frame(conn, request.as_bytes()).unwrap();
    let reply = read_frame(conn).unwrap().expect("server replied");
    parse(std::str::from_utf8(&reply).unwrap()).unwrap()
}

#[test]
fn three_requests_two_identical_compile_once() {
    let service = Arc::new(Service::new(8));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.serve());
    let mut conn = TcpStream::connect(addr).unwrap();

    let first = roundtrip(
        &mut conn,
        &format!(r#"{{"id": "q1", "threads": 1, "scenario": {GRID_SPEC}}}"#),
    );
    let second = roundtrip(
        &mut conn,
        &format!(r#"{{"id": "q2", "threads": 2, "scenario": {GRID_SPEC}}}"#),
    );
    let third = roundtrip(
        &mut conn,
        &format!(r#"{{"id": "q3", "threads": 1, "scenario": {LOSSY_SPEC}}}"#),
    );

    // The duplicate hit the cache; the distinct spec did not.
    assert_eq!(first.get("cache_hit"), Some(&JsonValue::Bool(false)));
    assert_eq!(second.get("cache_hit"), Some(&JsonValue::Bool(true)));
    assert_eq!(third.get("cache_hit"), Some(&JsonValue::Bool(false)));

    // Exactly one compile per distinct scenario — two total, one for
    // the duplicated spec.
    let stats = service.cache_stats();
    assert_eq!(stats.compiles, 2, "identical specs compile once: {stats:?}");
    assert_eq!(stats.hits, 1);

    // Manifest equality for the identical pair, which a cache hit's
    // rerun of the same compiled scenario must give (the pair's thread
    // counts check nothing: a single gathering run takes the serial
    // kernel at any count), inequality for the distinct one.
    let manifest = doc_manifest;
    assert_eq!(manifest(&first), manifest(&second));
    assert_ne!(manifest(&first), manifest(&third));

    // Hashes agree with the equality pattern.
    let hash = |doc: &JsonValue| {
        doc.get("scenario_hash")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_owned()
    };
    assert_eq!(hash(&first), hash(&second));
    assert_ne!(hash(&first), hash(&third));
}

#[test]
fn a_lossy_ber_past_the_session_range_gets_an_error_reply() {
    // A BER the lossy session refuses must fail validation: run, it
    // would panic, close the connection without a reply and leave
    // every later queue depth one higher.
    let service = Arc::new(Service::new(8));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.serve());
    let mut conn = TcpStream::connect(addr).unwrap();

    let bad = LOSSY_SPEC.replace("0.001", "0.7");
    for id in ["bad1", "bad2"] {
        let reply = roundtrip(
            &mut conn,
            &format!(r#"{{"id": "{id}", "threads": 1, "scenario": {bad}}}"#),
        );
        let error = reply.get("error").and_then(|v| v.as_str());
        assert!(
            error.is_some_and(|e| e.contains("[0, 0.5]")),
            "{id}: {error:?}"
        );
    }
    assert_eq!(service.cache_stats().misses, 0, "nothing compiled");

    let good = roundtrip(
        &mut conn,
        &format!(r#"{{"id": "good", "threads": 1, "scenario": {LOSSY_SPEC}}}"#),
    );
    assert_eq!(good.get("queue_depth"), Some(&JsonValue::Number(1.0)));
}

/// Renders the embedded manifest back to a comparable string (the
/// parsed object preserves member order, so equal JSON in means equal
/// string out).
fn doc_manifest(doc: &JsonValue) -> String {
    fn render(value: &JsonValue, out: &mut String) {
        match value {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => out.push_str(&format!("{n:?}")),
            JsonValue::String(s) => out.push_str(&format!("{s:?}")),
            JsonValue::Array(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    render(item, out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (k, (name, member)) in members.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{name:?}:"));
                    render(member, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    render(
        doc.get("manifest").expect("response carries a manifest"),
        &mut out,
    );
    out
}

#[test]
fn batch_frame_answers_in_order_with_shared_manifests() {
    let service = Arc::new(Service::new(8));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.serve());
    let mut conn = TcpStream::connect(addr).unwrap();

    let batch = format!(
        r#"[{{"id": "b1", "threads": 1, "scenario": {GRID_SPEC}}},
            {{"id": "b2", "threads": 1, "scenario": {LOSSY_SPEC}}},
            {{"id": "b3", "threads": 1, "scenario": {GRID_SPEC}}}]"#
    );
    let reply = roundtrip(&mut conn, &batch);
    let JsonValue::Array(items) = &reply else {
        panic!("batch reply must be an array, got {reply:?}");
    };
    assert_eq!(items.len(), 3);
    let id = |k: usize| items[k].get("id").and_then(|v| v.as_str()).unwrap();
    assert_eq!((id(0), id(1), id(2)), ("b1", "b2", "b3"));
    // The duplicate rode the leader's execution.
    assert_eq!(items[2].get("cache_hit"), Some(&JsonValue::Bool(true)));
    assert_eq!(doc_manifest(&items[0]), doc_manifest(&items[2]));
    assert_eq!(service.cache_stats().compiles, 2);
}

#[test]
fn malformed_frames_get_an_error_and_keep_the_connection() {
    let service = Arc::new(Service::new(4));
    let server = Server::bind("127.0.0.1:0", service).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.serve());
    let mut conn = TcpStream::connect(addr).unwrap();

    // A syntax error, then a well-formed document nested far past the
    // reader's depth bound (a recursive reader overflows the connection
    // thread's stack on it and aborts the daemon).
    let deep = "[".repeat(10_000) + &"]".repeat(10_000);
    // Grids past the node limit: a side of 2³² − 1 overflowed a
    // capacity inside the compile (after the cache had claimed the
    // spec's slot), and a side of 10⁵ asked for 10¹⁰ node positions.
    let huge = |side: u32| {
        format!(
            r#"{{"id": "huge", "threads": 1, "scenario": {{"name": "huge-grid", "rounds": 1,
                "topology": {{"kind": "grid", "side": {side}, "spacing_m": 25.0}},
                "workload": {{"kind": "gathering", "strategy": "minimum_energy"}}}}}}"#
        )
    };
    for frame in ["{not json", &deep, &huge(u32::MAX), &huge(100_000)] {
        let reply = roundtrip(&mut conn, frame);
        assert!(reply.get("error").is_some(), "{reply:?}");
    }

    let reply = roundtrip(
        &mut conn,
        &format!(r#"{{"id": "ok-after-error", "threads": 1, "scenario": {GRID_SPEC}}}"#),
    );
    assert!(reply.get("scenario_hash").is_some(), "connection survived");
}
