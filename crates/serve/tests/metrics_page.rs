//! The `/metrics` page is pinned: one fixed request sequence, run over
//! `LoopbackTransport` and over a real `TcpServer`, must render the
//! committed golden pages byte for byte. The sequence touches every
//! `serve.*` counter a conversation can move — a queue shed, a cancel, a
//! flush with a verdict, a scrape, a clean `bye`, and a second connection
//! killed by a malformed frame — so a change to how the front door
//! counts, or to the transport under it, cannot alter the page unseen.

use jsk_serve::protocol::Response;
use jsk_serve::transport::Transport;
use jsk_serve::{
    Client, LoopbackTransport, Server, ServerConfig, Submission, TcpServer, TcpTransport,
};
use jsk_workloads::schedule::corpus_schedules;
use std::sync::Arc;

/// The page the first connection scrapes just before its `bye`.
const SESSION_PAGE: &str = include_str!("golden/metrics_session.txt");
/// The page once both connections have closed.
const FINAL_PAGE: &str = include_str!("golden/metrics_final.txt");

fn server() -> Arc<Server> {
    Server::new(ServerConfig::new(2, 2).with_queue_capacity(2))
}

fn submission(index: usize, seed: u64) -> Submission {
    let schedule = corpus_schedules().remove(index);
    Submission {
        site: schedule.name.clone(),
        seed,
        policy: "kernel".into(),
        schedule,
        deadline_ms: 0,
    }
}

/// Runs the fixed sequence through `transport`; returns the scraped page.
fn converse(transport: &dyn Transport) -> String {
    let mut client = Client::connect(transport).expect("connect + hello");
    let kept = submission(1, 41);
    let cancelled = submission(2, 42);
    assert!(matches!(
        client.submit(&kept).expect("submit"),
        Response::Queued { depth: 1, .. }
    ));
    assert!(matches!(
        client.submit(&cancelled).expect("submit"),
        Response::Queued { depth: 2, .. }
    ));
    match client.submit(&submission(3, 43)).expect("submit") {
        Response::Shed { stage, .. } => assert_eq!(stage, "queue"),
        other => panic!("third submit past capacity 2: {other:?}"),
    }
    assert!(matches!(
        client.cancel(&cancelled.site).expect("cancel"),
        Response::Cancelled { removed: 1, .. }
    ));
    let results = client.flush().expect("flush");
    assert!(
        matches!(
            results.as_slice(),
            [
                Response::Verdict { .. },
                Response::FlushOk { served: 1, .. }
            ]
        ),
        "{results:?}"
    );
    let page = client.metrics_page().expect("metrics");
    client.bye().expect("clean close");

    // A second connection sends a well-framed payload that is no request.
    let mut bad = transport.connect().expect("second connection");
    bad.write_payload(r#"{"reboot":{}}"#).expect("write");
    let reply = bad.read_payload().expect("read").expect("an error frame");
    assert!(reply.contains(r#""code":"request""#), "{reply}");
    assert!(
        bad.read_payload().expect("read").is_none(),
        "the connection closes"
    );
    page
}

#[test]
fn loopback_metrics_page_matches_the_golden_page() {
    let server = server();
    let page = converse(&LoopbackTransport::new(server.clone()));
    assert_eq!(page, SESSION_PAGE);
    assert_eq!(server.metrics_page(), FINAL_PAGE);
}

#[test]
fn tcp_metrics_page_matches_the_golden_page() {
    let tcp = TcpServer::bind(server(), "127.0.0.1:0").expect("bind ephemeral");
    let page = converse(&TcpTransport::new(tcp.local_addr()).expect("transport"));
    assert_eq!(page, SESSION_PAGE);
    assert_eq!(tcp.shutdown(), FINAL_PAGE);
}

/// Serves one site labelled `site` and returns the page scraped after.
fn page_for_site(site: &str) -> String {
    let mut client = Client::connect(&LoopbackTransport::new(server())).expect("connect + hello");
    let mut sub = submission(1, 41);
    sub.site = site.to_owned();
    assert!(matches!(
        client.submit(&sub).expect("submit"),
        Response::Queued { .. }
    ));
    client.flush().expect("flush");
    client.metrics_page().expect("metrics")
}

#[test]
fn a_hostile_site_label_cannot_forge_a_metrics_line() {
    // The label closes its quote and brace, ends the line, and writes a
    // series of its own.
    let hostile = "x\"} 1\nforged_total 42\n#";
    let page = page_for_site(hostile);
    assert!(
        !page.lines().any(|l| l.starts_with("forged_total")),
        "{page}"
    );
    // Each series is the one a plain label gives, its value escaped.
    let escaped = r#"site="x\"} 1\nforged_total 42\n#""#;
    let plain = page_for_site("x").replace(r#"site="x""#, escaped);
    assert_eq!(page, plain);
    assert!(page.contains(escaped), "{page}");
}
