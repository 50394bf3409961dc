//! Backpressure and teardown: shed fires exactly past the admission
//! bound, drains account for every accepted submission, malformed frames
//! kill their connection and nothing else, and submit/cancel
//! interleavings never change the surviving verdicts.

use jsk_serve::protocol::{encode_frame, Response};
use jsk_serve::{submission_job, Client, LoopbackTransport, Server, ServerConfig, Submission};
use jsk_shard::serve::{ServeConfig, ShardPool, SiteOutcome};
use jsk_workloads::schedule::Schedule;
use proptest::prelude::*;

/// A minimal schedule: boots, runs one virtual millisecond, does nothing.
/// Cheap enough for property testing; still a full browser run.
fn tiny_schedule(name: &str) -> Schedule {
    Schedule {
        name: name.to_owned(),
        private_mode: false,
        run_ms: 1,
        resources: Vec::new(),
        events: Vec::new(),
    }
}

fn tiny_sub(site: &str, seed: u64) -> Submission {
    Submission {
        site: site.to_owned(),
        seed,
        policy: "legacy".into(),
        schedule: tiny_schedule(site),
        deadline_ms: 0,
    }
}

#[test]
fn shed_fires_exactly_past_the_queue_capacity() {
    let server = Server::new(ServerConfig::new(2, 2).with_queue_capacity(3));
    let transport = LoopbackTransport::new(server.clone());
    let mut client = Client::connect(&transport).unwrap();
    let mut queued = 0;
    let mut shed = 0;
    for i in 0..5u64 {
        match client.submit(&tiny_sub(&format!("site-{i}"), i)).unwrap() {
            Response::Queued { depth, .. } => {
                queued += 1;
                assert_eq!(depth, queued);
            }
            Response::Shed { stage, .. } => {
                assert_eq!(stage, "queue");
                shed += 1;
            }
            other => panic!("{other:?}"),
        }
    }
    assert_eq!((queued, shed), (3, 2), "shed exactly past capacity");
    assert_eq!(server.wire_stats().sheds, 2);

    // The three queued sites all serve.
    let results = client.flush().unwrap();
    assert_eq!(results.len(), 4);
    assert!(matches!(results[3], Response::FlushOk { served: 3, .. }));
}

#[test]
fn shard_admission_shed_is_reported_with_its_stage() {
    // Pool-level admission: 2 shards × capacity 1 = 2 slots for 5 sites.
    let cfg = ServerConfig::new(2, 2).with_serve(ServeConfig::new(2, 2).with_admission_capacity(1));
    let server = Server::new(cfg);
    let transport = LoopbackTransport::new(server);
    let mut client = Client::connect(&transport).unwrap();
    for i in 0..5u64 {
        client.submit(&tiny_sub(&format!("site-{i}"), i)).unwrap();
    }
    let results = client.flush().unwrap();
    let shard_shed = results
        .iter()
        .filter(|r| matches!(r, Response::Shed { stage, .. } if stage == "shard"))
        .count();
    assert_eq!(shard_shed, 3);
    assert!(matches!(
        results.last().unwrap(),
        Response::FlushOk {
            served: 2,
            shed: 3,
            ..
        }
    ));
}

#[test]
fn drain_accounts_for_every_submission_with_zero_orphans() {
    let server = Server::new(ServerConfig::new(2, 2));
    let transport = LoopbackTransport::new(server.clone());
    let mut client = Client::connect(&transport).unwrap();
    for i in 0..4u64 {
        assert!(matches!(
            client.submit(&tiny_sub(&format!("site-{i}"), i)).unwrap(),
            Response::Queued { .. }
        ));
    }

    // The server begins draining with four submissions queued and none
    // flushed. New work is refused; the drain writes off the queue
    // accountably and closes the connection.
    server.begin_drain();
    match client.submit(&tiny_sub("late", 99)).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "draining"),
        other => panic!("{other:?}"),
    }

    let results = client.flush().unwrap();
    // Every queued site comes back Cancelled — the pool's cancel hook —
    // and the summary balances: 4 submitted = 4 cancelled, zero orphans.
    let cancelled = results
        .iter()
        .filter(|r| matches!(r, Response::Cancelled { .. }))
        .count();
    assert_eq!(cancelled, 4);
    assert!(matches!(
        results.last().unwrap(),
        Response::FlushOk {
            served: 0,
            cancelled: 4,
            ..
        }
    ));

    // The same invariant at the pool layer: a cancelled serve still has a
    // row for every job.
    let subs: Vec<_> = (0..6u64).map(|i| tiny_sub(&format!("p-{i}"), i)).collect();
    let cancel = std::sync::atomic::AtomicBool::new(true);
    let report = ShardPool::new(ServeConfig::new(3, 2))
        .serve_with_cancel(subs.iter().map(submission_job).collect(), &cancel);
    assert_eq!(report.orphans(subs.len()), 0);
    assert_eq!(report.cancelled(), 6);
}

#[test]
fn malformed_frames_kill_the_connection_and_never_the_pool() {
    let server = Server::new(ServerConfig::new(2, 2));

    // Connection 1 sends bytes that are not a frame.
    let mut bad = jsk_serve::Session::new(server.clone());
    let frames = bad.on_bytes(b"zz\n{}\n");
    assert!(bad.is_closed());
    assert_eq!(frames.len(), 1);
    let text = String::from_utf8(frames[0].clone()).unwrap();
    assert!(text.contains("\"code\":\"frame\""), "{text}");
    // Dead connections ignore further bytes.
    assert!(bad.on_bytes(b"4\n true\n").is_empty());

    // Connection 2 sends a well-framed payload that is not a request.
    let mut odd = jsk_serve::Session::new(server.clone());
    let frames = odd.on_bytes(&encode_frame(r#"{"reboot":{}}"#));
    assert!(odd.is_closed());
    let text = String::from_utf8(frames[0].clone()).unwrap();
    assert!(text.contains("\"code\":\"request\""), "{text}");

    assert_eq!(server.wire_stats().malformed, 2);

    // The pool never noticed: a fresh connection serves normally.
    let transport = LoopbackTransport::new(server);
    let mut client = Client::connect(&transport).unwrap();
    client.submit(&tiny_sub("alive", 1)).unwrap();
    let results = client.flush().unwrap();
    assert!(matches!(
        results.last().unwrap(),
        Response::FlushOk { served: 1, .. }
    ));
}

/// A panicking site job is contained to its own shard: the session gets
/// `quarantined` frames for that shard's sites, verdicts for the rest,
/// and its next flush serves normally.
///
/// The trigger is the one panic a wire client can reach today: in a debug
/// build, a `self_post_flood` whose `i * interval_ms` passes `u32::MAX`
/// overflows inside the schedule runner (a release build wraps instead,
/// so there is no trigger to test there).
#[cfg(debug_assertions)]
#[test]
fn a_panicking_site_is_quarantined_and_the_session_flushes_on() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let server = Server::new(ServerConfig::new(2, 2));
        let transport = LoopbackTransport::new(server);
        let mut client = Client::connect(&transport).unwrap();
        let mut hostile = tiny_sub("overflow", 1);
        hostile.schedule = Schedule::from_json(
            r#"{"name":"overflow","private_mode":false,"run_ms":1,"resources":[],
               "events":[{"at_ms":0,"op":{"self_post_flood":{"count":3,"interval_ms":2147483648}}}]}"#,
        )
        .unwrap();
        // Sites 0 and 2 home on shard 0 with the hostile one; 1 and 3 on
        // shard 1.
        client.submit(&hostile).unwrap();
        for i in 1..4u64 {
            client.submit(&tiny_sub(&format!("site-{i}"), i)).unwrap();
        }
        let first = client.flush().unwrap();
        client.submit(&tiny_sub("after", 9)).unwrap();
        let second = client.flush().unwrap();
        tx.send((first, second)).unwrap();
    });
    let (first, second) = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("flush did not return within 10 s");
    let code = |r: &Response| match r {
        Response::Error { code, .. } => code.clone(),
        Response::Verdict { site, shard, .. } => format!("verdict {site} shard {shard}"),
        other => format!("{other:?}"),
    };
    let codes: Vec<String> = first[..4].iter().map(code).collect();
    assert_eq!(
        codes,
        [
            "quarantined",
            "verdict site-1 shard 1",
            "quarantined",
            "verdict site-3 shard 1",
        ]
    );
    assert!(matches!(
        first[4],
        Response::FlushOk {
            served: 2,
            quarantined: 2,
            ..
        }
    ));
    assert!(matches!(
        second.last().unwrap(),
        Response::FlushOk {
            served: 1,
            quarantined: 0,
            ..
        }
    ));
}

/// One step of the interleaving model.
#[derive(Debug, Clone)]
enum Op {
    Submit(u8, u64),
    Cancel(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u64..1000).prop_map(|(s, seed)| Op::Submit(s, seed)),
        (0u8..4).prop_map(Op::Cancel),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any seeded interleaving of submits and cancels yields exactly the
    /// verdicts of directly serving the surviving queue: cancellation
    /// and ordering never perturb per-site results.
    #[test]
    fn interleavings_never_change_surviving_verdicts(ops in proptest::collection::vec(op_strategy(), 1..8)) {
        let server = Server::new(ServerConfig::new(2, 1));
        let transport = LoopbackTransport::new(server);
        let mut client = Client::connect(&transport).unwrap();

        // Model the queue alongside the wire.
        let mut model: Vec<Submission> = Vec::new();
        for op in &ops {
            match op {
                Op::Submit(s, seed) => {
                    let sub = tiny_sub(&format!("site-{s}"), *seed);
                    prop_assert!(matches!(client.submit(&sub).unwrap(), Response::Queued { .. }));
                    model.push(sub);
                }
                Op::Cancel(s) => {
                    let site = format!("site-{s}");
                    let _ = client.cancel(&site).unwrap();
                    model.retain(|m| m.site != site);
                }
            }
        }
        let mut results = client.flush().unwrap();
        let _summary = results.pop();
        let got: Vec<String> = results.iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();

        // Direct submission of the survivors through an identical pool.
        let report = ShardPool::new(ServeConfig::new(2, 1))
            .serve(model.iter().map(submission_job).collect());
        let n = report.shards.len();
        let mut cursors = vec![0usize; n];
        let mut want = Vec::new();
        for (i, sub) in model.iter().enumerate() {
            let s = i % n;
            let row = &report.shards[s].sites[cursors[s]];
            cursors[s] += 1;
            let SiteOutcome::Served { defended, detail, wedged } = &row.outcome else {
                panic!("unexpected outcome {:?}", row.outcome)
            };
            want.push(serde_json::to_string(&Response::Verdict {
                site: row.site.clone(),
                seed: row.seed,
                policy: sub.policy.clone(),
                shard: s as u64,
                defended: *defended,
                detail: detail.clone(),
                wedged: *wedged,
                attempts: row.attempts,
                completed_at_ms: row.completed_at_ms,
            }).unwrap());
        }
        prop_assert_eq!(got, want);
    }
}
