//! Every session gives its pool seat back. A connection takes one of the
//! pool's `workers` seats at its first non-empty flush and holds it until
//! it closes; a seat that leaked would leave later flushes without their
//! helper threads for good. So 256 sessions end every way a session can
//! end — `bye`, a fatal error, a dropped transport, a server drain, and
//! after serving a panicking site — over the loopback transport and over
//! TCP, and then a fresh direct 8-site serve on the same two-seat pool
//! must still run two sites at once.

use jsk_observe::MetricsSnapshot;
use jsk_serve::protocol::{
    encode_frame, parse_response, request_payload, Request, Response, PROTOCOL_VERSION,
};
use jsk_serve::transport::{ClientConn, Transport};
use jsk_serve::{LoopbackTransport, Server, ServerConfig, Session, TcpServer, TcpTransport};
use jsk_shard::serve::{SiteJob, SiteOutput};
use jsk_workloads::schedule::Schedule;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Sessions per transport.
const SESSIONS: usize = 256;
/// How the last sessions end: drained by the server.
const DRAINED: usize = 4;

fn server() -> Arc<Server> {
    Server::new(ServerConfig::new(4, 2))
}

/// A one-virtual-millisecond site that does nothing.
fn tiny(site: &str) -> Request {
    Request::SubmitSite {
        site: site.to_owned(),
        seed: 1,
        policy: "legacy".into(),
        schedule: Schedule {
            name: site.to_owned(),
            private_mode: false,
            run_ms: 1,
            resources: Vec::new(),
            events: Vec::new(),
        },
        deadline_ms: 0,
    }
}

/// A site whose schedule overflows `i * interval_ms`: its job panics in a
/// debug build (a release build wraps and serves it).
fn panicking() -> Request {
    Request::SubmitSite {
        site: "overflow".into(),
        seed: 1,
        policy: "legacy".into(),
        schedule: Schedule::from_json(
            r#"{"name":"overflow","private_mode":false,"run_ms":1,"resources":[],
               "events":[{"at_ms":0,"op":{"self_post_flood":{"count":3,"interval_ms":2147483648}}}]}"#,
        )
        .expect("schedule parses"),
        deadline_ms: 0,
    }
}

fn send(conn: &mut dyn ClientConn, req: &Request) {
    conn.write_payload(&request_payload(req)).expect("write");
}

fn recv(conn: &mut dyn ClientConn) -> Response {
    let payload = conn.read_payload().expect("read").expect("a response");
    parse_response(&payload).expect("a response payload")
}

/// Connects, says hello, submits `subs` and flushes them: the session
/// now holds a seat.
fn flushed(transport: &dyn Transport, subs: &[Request]) -> Box<dyn ClientConn> {
    let mut conn = transport.connect().expect("connect");
    send(
        conn.as_mut(),
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
    );
    assert!(matches!(recv(conn.as_mut()), Response::HelloOk { .. }));
    for sub in subs {
        send(conn.as_mut(), sub);
        assert!(matches!(recv(conn.as_mut()), Response::Queued { .. }));
    }
    send(conn.as_mut(), &Request::Flush);
    while !matches!(recv(conn.as_mut()), Response::FlushOk { .. }) {}
    conn
}

/// Ends one session the `i`-th way of the four that need no drain.
fn end_session(transport: &dyn Transport, i: usize) {
    let site = format!("site-{i}");
    match i % 4 {
        0 => {
            let mut conn = flushed(transport, &[tiny(&site)]);
            send(conn.as_mut(), &Request::Bye);
            assert!(matches!(recv(conn.as_mut()), Response::Bye));
        }
        1 => {
            // A well-framed payload that is no request is fatal.
            let mut conn = flushed(transport, &[tiny(&site)]);
            conn.write_payload(r#"{"reboot":{}}"#).expect("write");
            assert!(matches!(recv(conn.as_mut()), Response::Error { .. }));
            assert!(conn.read_payload().expect("read").is_none(), "closed");
        }
        2 => drop(flushed(transport, &[tiny(&site)])),
        _ => {
            let mut conn = flushed(transport, &[panicking(), tiny(&site)]);
            send(conn.as_mut(), &Request::Bye);
            assert!(matches!(recv(conn.as_mut()), Response::Bye));
        }
    }
}

/// A latch the meeting jobs wait on, with a timeout so a missing helper
/// fails the test instead of hanging it.
#[derive(Default)]
struct Latch {
    count: Mutex<usize>,
    moved: Condvar,
}

impl Latch {
    /// Arrives, then reports whether `n` had arrived within 10 s.
    fn meet(&self, n: usize) -> bool {
        let mut count = self.count.lock().unwrap();
        *count += 1;
        self.moved.notify_all();
        let (count, _) = self
            .moved
            .wait_timeout_while(count, Duration::from_secs(10), |c| *c < n)
            .unwrap();
        *count >= n
    }
}

/// Serves 8 sites directly on `server`'s pool; sites 0 and 1 home on
/// shards owned by different workers and each waits for the other, so
/// both meet only if the serve got a helper on the second seat.
fn runs_two_sites_at_once(server: &Server) -> bool {
    let latch = Arc::new(Latch::default());
    let met = Arc::new(Mutex::new(Vec::new()));
    let jobs = (0..8)
        .map(|i| {
            let (latch, met) = (latch.clone(), met.clone());
            SiteJob::new(format!("direct-{i}"), i, move |_ctx| {
                if i < 2 {
                    let both = latch.meet(2);
                    met.lock().unwrap().push(both);
                }
                SiteOutput {
                    defended: Some(true),
                    detail: String::new(),
                    sim_ms: 1,
                    wedged: false,
                    metrics: MetricsSnapshot::default(),
                }
            })
        })
        .collect();
    assert_eq!(server.pool().serve(jobs).totals().0, 8);
    let met = met.lock().unwrap();
    met.len() == 2 && met.iter().all(|m| *m)
}

#[test]
fn loopback_sessions_give_their_seats_back() {
    let server = server();
    let transport = LoopbackTransport::new(server.clone());
    for i in 0..SESSIONS - DRAINED {
        end_session(&transport, i);
    }
    // The loopback transport has no drain of its own: drive the last
    // sessions' state machines directly, as a transport would.
    let frame = |req: &Request| encode_frame(&request_payload(req));
    let mut open: Vec<Session> = (0..DRAINED)
        .map(|i| {
            let mut session = Session::new(server.clone());
            session.on_bytes(&frame(&Request::Hello {
                version: PROTOCOL_VERSION,
            }));
            session.on_bytes(&frame(&tiny(&format!("drained-{i}"))));
            session.on_bytes(&frame(&Request::Flush));
            session.on_bytes(&frame(&tiny(&format!("queued-{i}"))));
            session
        })
        .collect();
    server.begin_drain();
    for session in &mut open {
        assert!(!session.drain().is_empty());
        assert!(session.is_closed());
    }
    assert_eq!(server.wire_stats().connections, SESSIONS as u64);
    assert!(runs_two_sites_at_once(&server));
    drop(open);
}

#[test]
fn tcp_sessions_give_their_seats_back() {
    let server = server();
    let tcp = TcpServer::bind(server.clone(), "127.0.0.1:0").expect("bind ephemeral");
    let transport = TcpTransport::new(tcp.local_addr()).expect("transport");
    for i in 0..SESSIONS - DRAINED {
        end_session(&transport, i);
    }
    let open: Vec<Box<dyn ClientConn>> = (0..DRAINED)
        .map(|i| {
            let mut conn = flushed(&transport, &[tiny(&format!("drained-{i}"))]);
            send(conn.as_mut(), &tiny(&format!("queued-{i}")));
            assert!(matches!(recv(conn.as_mut()), Response::Queued { .. }));
            conn
        })
        .collect();
    // Shutdown drains the open sessions and joins every connection
    // worker, so every session is over once it returns.
    tcp.shutdown();
    assert_eq!(server.wire_stats().connections, SESSIONS as u64);
    assert_eq!(server.wire_stats().drained_sessions, DRAINED as u64);
    assert!(runs_two_sites_at_once(&server));
    drop(open);
}
