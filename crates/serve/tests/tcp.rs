//! The TCP front door end to end: bind an ephemeral port, run the full
//! handshake/submit/flush/metrics/bye conversation over real sockets,
//! check that shutdown drains a live connection instead of cutting it
//! off, that it wakes an idle accept thread, that connections past
//! `max_conns` are refused `busy`, and that a client that stops reading
//! is cut off instead of pinning its worker.

use jsk_serve::protocol::{
    encode_frame, parse_response, request_payload, FrameDecoder, Request, Response,
    PROTOCOL_VERSION,
};
use jsk_serve::{Client, Server, ServerConfig, Submission, TcpServer, TcpTransport, WireStats};
use jsk_workloads::schedule::corpus_schedules;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn one_submission() -> Submission {
    // CVE-2017-7843 is the cheapest corpus program (50 virtual ms).
    let schedule = corpus_schedules().remove(1);
    Submission {
        site: schedule.name.clone(),
        seed: 41,
        policy: "kernel".into(),
        schedule,
        deadline_ms: 0,
    }
}

#[test]
fn tcp_round_trip_submits_flushes_and_scrapes_metrics() {
    let server = Server::new(ServerConfig::new(2, 2));
    let tcp = TcpServer::bind(server, "127.0.0.1:0").expect("bind ephemeral");
    let transport = TcpTransport::new(tcp.local_addr()).expect("transport");

    let mut client = Client::connect(&transport).expect("tcp connect + hello");
    let sub = one_submission();
    assert!(matches!(
        client.submit(&sub).expect("submit"),
        Response::Queued { depth: 1, .. }
    ));
    let results = client.flush().expect("flush");
    assert_eq!(results.len(), 2);
    match &results[0] {
        Response::Verdict { site, defended, .. } => {
            assert_eq!(site, &sub.site);
            assert_eq!(*defended, Some(true));
        }
        other => panic!("{other:?}"),
    }
    assert!(matches!(results[1], Response::FlushOk { served: 1, .. }));

    let page = client.metrics_page().expect("metrics");
    assert!(
        page.starts_with("# jsk-observe text exposition v1"),
        "{page}"
    );
    assert!(page.contains("serve.connections"), "{page}");
    client.bye().expect("clean close");

    let final_page = tcp.shutdown();
    assert!(final_page.contains("serve.verdicts"), "{final_page}");
}

#[test]
fn shutdown_drains_a_live_connection_with_queued_work() {
    let server = Server::new(ServerConfig::new(2, 2));
    let tcp = TcpServer::bind(server, "127.0.0.1:0").expect("bind ephemeral");
    let transport = TcpTransport::new(tcp.local_addr()).expect("transport");

    let mut client = Client::connect(&transport).expect("tcp connect + hello");
    assert!(matches!(
        client.submit(&one_submission()).expect("submit"),
        Response::Queued { .. }
    ));

    // Shut the server down while the submission is still queued. The
    // drain must deliver an accountable outcome for it (here: cancelled,
    // since the pool's cancel flag is set before the drain flush), then a
    // bye — never a silent disconnect.
    let shutdown = std::thread::spawn(move || tcp.shutdown());
    let mut saw_flush_ok = false;
    let mut outcomes = Vec::new();
    loop {
        match client.read_response() {
            Ok(Response::Bye) => break, // the drain always ends with bye
            Ok(Response::FlushOk { .. }) => saw_flush_ok = true,
            Ok(resp) => outcomes.push(resp),
            Err(e) => panic!("connection cut without bye: {e}"),
        }
    }
    let page = shutdown.join().expect("shutdown joins");

    assert!(saw_flush_ok, "drain flushes the queue");
    assert_eq!(outcomes.len(), 1, "{outcomes:?}");
    assert!(
        matches!(
            &outcomes[0],
            Response::Cancelled { .. } | Response::Verdict { .. }
        ),
        "{outcomes:?}"
    );
    assert!(page.contains("serve.drained_sessions"), "{page}");
}

/// Runs `shutdown` on a helper thread and fails if it has not returned
/// within 5 s — a blocking accept that is never woken hangs it forever.
fn shutdown_within_deadline(tcp: TcpServer) -> String {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(tcp.shutdown());
    });
    finished
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown returns within 5 s")
}

#[test]
fn idle_shutdown_wakes_the_accept_thread() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let tcp = TcpServer::bind(Server::new(ServerConfig::new(1, 1)), addr).expect("bind");
        let page = shutdown_within_deadline(tcp);
        assert!(page.contains("serve.connections"), "{addr}: {page}");
    }
}

#[test]
fn shutdown_after_a_direct_drain_returns() {
    let server = Server::new(ServerConfig::new(1, 1));
    let tcp = TcpServer::bind(server.clone(), "127.0.0.1:0").expect("bind ephemeral");
    // Serving one connection sends the accept thread back into a
    // blocking `accept` before the drain begins.
    let transport = TcpTransport::new(tcp.local_addr()).expect("transport");
    let _client = Client::connect(&transport).expect("tcp connect + hello");
    server.begin_drain();
    shutdown_within_deadline(tcp);
}

#[test]
fn connections_past_max_conns_are_refused_busy() {
    let server = Server::new(ServerConfig::new(1, 1).with_max_conns(1));
    let tcp = TcpServer::bind(server, "127.0.0.1:0").expect("bind ephemeral");
    let transport = TcpTransport::new(tcp.local_addr()).expect("transport");

    let mut first = Client::connect(&transport).expect("first client takes the slot");
    let refused = Client::connect(&transport)
        .err()
        .expect("second client is refused");
    assert!(refused.to_string().contains("busy"), "{refused}");

    // Once the first client has seen its connection close, its slot is
    // free again.
    first.bye().expect("clean close");
    assert!(first.read_response().is_err(), "server closes after bye");
    let mut third = Client::connect(&transport).expect("third client completes hello");
    third.bye().expect("clean close");
    shutdown_within_deadline(tcp);
}

/// `metrics` requests a stalled client sends: their answers are many
/// times what the loopback socket buffers hold, so the server's writes
/// must block.
const FLOOD: usize = 50_000;

#[test]
fn a_client_that_stops_reading_is_cut_off_by_the_write_deadline() {
    let server = Server::new(ServerConfig::new(1, 1));
    let tcp = TcpServer::bind(server.clone(), "127.0.0.1:0").expect("bind ephemeral");
    let mut stream = TcpStream::connect(tcp.local_addr()).expect("connect");

    // Queue two submissions and read their acks, so both are held.
    let mut opening = encode_frame(&request_payload(&Request::Hello {
        version: PROTOCOL_VERSION,
    }));
    for seed in [1, 2] {
        let sub = one_submission();
        opening.extend(encode_frame(&request_payload(&Request::SubmitSite {
            site: format!("site-{seed}"),
            seed,
            policy: sub.policy,
            schedule: sub.schedule,
            deadline_ms: 0,
        })));
    }
    stream.write_all(&opening).expect("write opening");
    let mut decoder = FrameDecoder::new(0);
    let mut acks = Vec::new();
    let mut buf = [0u8; 4096];
    while acks.len() < 3 {
        if let Some(p) = decoder.next_payload().expect("well-framed") {
            acks.push(parse_response(&p).expect("a response"));
            continue;
        }
        let n = stream.read(&mut buf).expect("read acks");
        assert!(n > 0, "server closed during the opening");
        decoder.push(&buf[..n]);
    }
    assert!(
        matches!(
            acks.as_slice(),
            [
                Response::HelloOk { .. },
                Response::Queued { depth: 1, .. },
                Response::Queued { depth: 2, .. }
            ]
        ),
        "{acks:?}"
    );

    // Then flood without reading. The write ends once the server has
    // taken every byte or has closed the connection.
    let metrics = encode_frame(&request_payload(&Request::Metrics));
    let _ = stream.write_all(&metrics.repeat(FLOOD));

    // The deadline closes the session and drops both queued submissions.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.wire_stats().dropped_on_close < 2 {
        assert!(
            Instant::now() < deadline,
            "the stalled session is still open after 5 s: {:?}",
            server.wire_stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let page = shutdown_within_deadline(tcp);

    let stats = server.wire_stats();
    assert!((3..=3 + FLOOD as u64).contains(&stats.frames), "{stats:?}");
    assert_eq!(
        stats,
        WireStats {
            connections: 1,
            frames: stats.frames,
            submits: 2,
            dropped_on_close: 2,
            ..WireStats::default()
        }
    );
    assert!(page.contains("serve.dropped_on_close 2"), "{page}");
    assert!(
        page.contains(&format!("serve.frames {}", stats.frames)),
        "{page}"
    );
}
