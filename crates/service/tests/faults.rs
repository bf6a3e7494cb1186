//! Fault-injection suite: every failure mode — garbage bytes, truncated
//! and half-written lines, oversized requests, invalid/unsolvable specs,
//! client disconnects mid-stream, queue saturation, shutdown races —
//! must surface as a typed response or a clean connection close, with
//! the server still serving the next well-formed request. Never a panic,
//! never a hang.

use lcl_core::problem_spec::{PathTable, ProblemSpec};
use lcl_service::{serve_unix, ErrorKind, Request, Response, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

const RECV: Duration = Duration::from_secs(60);

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lcld-faults-{tag}-{}.sock", std::process::id()))
}

fn parse(line: &str) -> Response {
    Response::from_line(line.trim_end()).unwrap_or_else(|e| panic!("bad response {e:?}: {line}"))
}

/// A socket client for raw byte-level fault injection.
struct RawClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl RawClient {
    fn connect(path: &PathBuf) -> RawClient {
        let stream = UnixStream::connect(path).expect("client connects");
        RawClient {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "server closed the connection unexpectedly");
        parse(&line)
    }

    /// A well-formed classify must still be answered — the liveness probe
    /// after every injected fault.
    fn assert_alive(&mut self, id: u64) {
        let request = Request::Classify {
            id,
            problem: ProblemSpec::preset("3-coloring").expect("preset"),
        };
        self.send_raw(format!("{}\n", request.to_line()).as_bytes());
        match self.recv() {
            Response::Plan { id: got, .. } => assert_eq!(got, id),
            other => panic!("expected plan, got {other:?}"),
        }
    }
}

#[test]
fn garbage_truncated_and_oversized_lines_get_typed_errors() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_line_bytes: 4096,
        ..ServiceConfig::default()
    });
    let path = socket_path("wire");
    let _socket = serve_unix(&service, &path).expect("socket binds");
    let mut client = RawClient::connect(&path);

    // Garbage bytes (not UTF-8, not JSON).
    client.send_raw(b"\x00\xff\xfe{{{nonsense\n");
    match client.recv() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected bad-request, got {other:?}"),
    }
    client.assert_alive(100);

    // Truncated JSON (id recoverable: error is attributed).
    client.send_raw(b"{\"op\":\"solve\",\"id\":3\n");
    match client.recv() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected bad-request, got {other:?}"),
    }
    client.assert_alive(101);

    // Unknown op, with attribution.
    client.send_raw(b"{\"op\":\"frobnicate\",\"id\":44}\n");
    match client.recv() {
        Response::Error { id, kind, .. } => {
            assert_eq!(kind, ErrorKind::BadRequest);
            assert_eq!(id, Some(44), "id must be recovered for attribution");
        }
        other => panic!("expected bad-request, got {other:?}"),
    }
    client.assert_alive(102);

    // Oversized line: discarded without buffering, answered, survived.
    let mut big = vec![b'a'; 100_000];
    big.push(b'\n');
    client.send_raw(&big);
    match client.recv() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::TooLarge),
        other => panic!("expected too-large, got {other:?}"),
    }
    client.assert_alive(103);
}

#[test]
fn invalid_and_unsolvable_specs_get_typed_errors() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_n: 10_000,
        ..ServiceConfig::default()
    });
    let conn = service.connect();

    // Invalid spec: 1-coloring fails validation.
    conn.send_line(r#"{"op":"solve","id":1,"problem":{"problem":"coloring","colors":1}}"#);
    let response = parse(&conn.recv_timeout(RECV).expect("answered"));
    match response {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, Some(1));
            assert_eq!(kind, ErrorKind::BadProblem);
        }
        other => panic!("expected bad-problem, got {other:?}"),
    }

    // Unsolvable table: endpoints need 0, but 0 is compatible with nothing.
    let unsolvable = ProblemSpec::Path(PathTable::new(2, vec![(1, 1)], vec![0]));
    conn.request(&Request::Solve {
        id: 2,
        problem: unsolvable,
        n: 200,
        seed: 1,
        detail: false,
        shards: None,
        max_resident: None,
        packing: None,
    });
    let response = parse(&conn.recv_timeout(RECV).expect("answered"));
    match response {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, Some(2));
            assert_eq!(kind, ErrorKind::Unsolvable);
        }
        other => panic!("expected unsolvable, got {other:?}"),
    }

    // Oversized instance request.
    conn.send_line(r#"{"op":"solve","id":3,"problem":"3-coloring","n":999999999}"#);
    let response = parse(&conn.recv_timeout(RECV).expect("answered"));
    match response {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, Some(3));
            assert_eq!(kind, ErrorKind::TooLarge);
        }
        other => panic!("expected too-large, got {other:?}"),
    }

    // Unknown preset name.
    conn.send_line(r#"{"op":"classify","id":4,"problem":"no-such-problem"}"#);
    let response = parse(&conn.recv_timeout(RECV).expect("answered"));
    match response {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, Some(4));
            assert_eq!(kind, ErrorKind::BadRequest);
        }
        other => panic!("expected bad-request, got {other:?}"),
    }

    // The pool still serves after every failure.
    conn.send_line(r#"{"op":"solve","id":5,"problem":"3-coloring","n":300}"#);
    let response = parse(&conn.recv_timeout(RECV).expect("answered"));
    assert!(
        matches!(response, Response::Record { id: 5, .. }),
        "expected record, got {response:?}"
    );
}

#[test]
fn surrogate_pair_escapes_are_valid_json() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let path = socket_path("surrogate");
    let _socket = serve_unix(&service, &path).expect("socket binds");
    let mut client = RawClient::connect(&path);

    // How Python's default `json.dumps` writes 🦀: a UTF-16 surrogate
    // pair. The request must be served and keep its id.
    client.send_raw(b"{\"op\":\"stats\",\"id\":1,\"note\":\"\\ud83e\\udd80\"}\n");
    match client.recv() {
        Response::Stats { id, .. } => assert_eq!(id, 1),
        other => panic!("expected stats, got {other:?}"),
    }

    // A lone surrogate is still malformed.
    client.send_raw(b"{\"op\":\"stats\",\"id\":2,\"note\":\"\\ud83e\"}\n");
    match client.recv() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected bad-request, got {other:?}"),
    }
    client.assert_alive(3);
}

#[test]
fn malformed_numbers_are_bad_requests() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let path = socket_path("numbers");
    let _socket = serve_unix(&service, &path).expect("socket binds");
    let mut client = RawClient::connect(&path);

    // Leading zeros and bare decimal points are not JSON numbers (RFC
    // 8259), whether they sit in the id or in an ignored field.
    for (i, number) in ["01", "-01", "00", ".5", "-.5", "1.", "1.e5"]
        .iter()
        .enumerate()
    {
        let alive = 10 * i as u64 + 10;
        for line in [
            format!("{{\"op\":\"stats\",\"id\":{number}}}\n"),
            format!("{{\"op\":\"stats\",\"id\":{alive},\"note\":{number}}}\n"),
        ] {
            client.send_raw(line.as_bytes());
            match client.recv() {
                Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest, "{line}"),
                other => panic!("expected bad-request for {line}, got {other:?}"),
            }
        }
        client.assert_alive(alive + 1);
    }
}

#[test]
fn raw_control_characters_in_strings_are_bad_requests() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let path = socket_path("control");
    let _socket = serve_unix(&service, &path).expect("socket binds");
    let mut client = RawClient::connect(&path);

    // Inside a string, U+0000..U+001F must be escaped: `\t` is fine, a raw
    // tab is not.
    client.send_raw(b"{\"op\":\"stats\",\"id\":1,\"note\":\"a\\tb\"}\n");
    match client.recv() {
        Response::Stats { id, .. } => assert_eq!(id, 1),
        other => panic!("expected stats, got {other:?}"),
    }
    for (i, raw) in [b'\t', 0x01, 0x1f].into_iter().enumerate() {
        let id = 2 * i as u64 + 2;
        let mut line = format!("{{\"op\":\"stats\",\"id\":{id},\"note\":\"a").into_bytes();
        line.extend([raw, b'b', b'"', b'}', b'\n']);
        client.send_raw(&line);
        match client.recv() {
            Response::Error { kind, .. } => {
                assert_eq!(kind, ErrorKind::BadRequest, "byte {raw:#x}")
            }
            other => panic!("expected bad-request for byte {raw:#x}, got {other:?}"),
        }
        client.assert_alive(id + 1);
    }
}

#[test]
fn half_written_line_then_disconnect_is_a_clean_close() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let path = socket_path("halfline");
    let _socket = serve_unix(&service, &path).expect("socket binds");
    {
        let mut client = RawClient::connect(&path);
        client.send_raw(b"{\"op\":\"solve\",\"id\":1,\"probl");
        // No newline, no read: just vanish.
    }
    // The server must keep accepting and serving.
    let mut next = RawClient::connect(&path);
    next.assert_alive(1);
}

#[test]
fn disconnect_mid_response_does_not_wedge_the_pool() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let path = socket_path("midstream");
    let _socket = serve_unix(&service, &path).expect("socket binds");
    for round in 0..3 {
        let mut client = RawClient::connect(&path);
        // A solve with a six-figure detail payload, then immediate
        // disconnect without reading a byte of the response.
        let request = Request::Solve {
            id: 9,
            problem: ProblemSpec::preset("2-coloring").expect("preset"),
            n: 100_000,
            seed: round,
            detail: true,
            shards: None,
            max_resident: None,
            packing: None,
        };
        client.send_raw(format!("{}\n", request.to_line()).as_bytes());
        drop(client);
        // The single worker must come back to serve the next client: if
        // the vanished connection could block it, this recv would hang.
        let mut next = RawClient::connect(&path);
        next.assert_alive(round);
    }
}

#[test]
fn saturated_queue_answers_overloaded_and_recovers() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        throttle_ms: 150,
        ..ServiceConfig::default()
    });
    let conn = service.connect();
    let burst = 6u64;
    for id in 1..=burst {
        conn.request(&Request::Solve {
            id,
            problem: ProblemSpec::preset("3-coloring").expect("preset"),
            n: 200,
            seed: 1,
            detail: false,
            shards: None,
            max_resident: None,
            packing: None,
        });
    }
    let mut records = 0u64;
    let mut overloaded = 0u64;
    for _ in 0..burst {
        match parse(&conn.recv_timeout(RECV).expect("burst answered")) {
            Response::Record { .. } => records += 1,
            Response::Overloaded { queue_capacity, .. } => {
                assert_eq!(queue_capacity, 1);
                overloaded += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(records >= 1, "nothing was admitted");
    assert!(
        overloaded >= 1,
        "a 1-deep queue under a 6-job burst never overloaded"
    );
    assert_eq!(service.stats().overloaded, overloaded);
    // Backpressure is not a failure spiral: once the burst drains, the
    // next job is admitted and served.
    conn.request(&Request::Solve {
        id: 99,
        problem: ProblemSpec::preset("3-coloring").expect("preset"),
        n: 200,
        seed: 1,
        detail: false,
        shards: None,
        max_resident: None,
        packing: None,
    });
    loop {
        match parse(&conn.recv_timeout(RECV).expect("recovery answered")) {
            Response::Record { id: 99, .. } => break,
            Response::Overloaded { .. } => {
                std::thread::sleep(Duration::from_millis(200));
                conn.request(&Request::Solve {
                    id: 99,
                    problem: ProblemSpec::preset("3-coloring").expect("preset"),
                    n: 200,
                    seed: 1,
                    detail: false,
                    shards: None,
                    max_resident: None,
                    packing: None,
                });
            }
            other => panic!("unexpected recovery response {other:?}"),
        }
    }
}

#[test]
fn shutdown_drains_with_typed_errors_and_refuses_new_work() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        throttle_ms: 100,
        ..ServiceConfig::default()
    });
    let conn = service.connect();
    for id in 1..=3u64 {
        conn.request(&Request::Solve {
            id,
            problem: ProblemSpec::preset("3-coloring").expect("preset"),
            n: 200,
            seed: 1,
            detail: false,
            shards: None,
            max_resident: None,
            packing: None,
        });
    }
    conn.request(&Request::Shutdown { id: 10 });
    let mut done = false;
    let mut drained = 0u64;
    let mut served = 0u64;
    for _ in 0..4 {
        match parse(&conn.recv_timeout(RECV).expect("answered")) {
            Response::Done { id } => {
                assert_eq!(id, 10);
                done = true;
            }
            Response::Error { kind, .. } => {
                assert_eq!(kind, ErrorKind::ShuttingDown);
                drained += 1;
            }
            Response::Record { .. } => served += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(done, "shutdown was not acknowledged");
    assert_eq!(
        served + drained,
        3,
        "every queued job must be accounted for"
    );
    assert!(
        drained >= 1,
        "queued jobs were not drained with typed errors"
    );
    // New work after shutdown: typed refusal, not silence.
    conn.request(&Request::Stats { id: 11 });
    match parse(&conn.recv_timeout(RECV).expect("answered")) {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
        other => panic!("expected shutting-down, got {other:?}"),
    }
    assert!(service.is_shutting_down());
}
