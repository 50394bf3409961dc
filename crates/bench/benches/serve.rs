//! The wire front door as a bench target: the 13-program corpus served
//! over `LoopbackTransport` by several concurrent client connections.
//!
//! Each connection submits the full corpus under the kernel policy in
//! queue-capacity-sized chunks and flushes between chunks; every verdict
//! becomes a cell, so a single program losing its defense behind the
//! wire flips a cell and fails the regression gate. The harness also
//! verifies the tentpole invariant inline — connection 0's verdict
//! frames are diffed byte-for-byte against direct `ShardPool` submission
//! of the same chunks — and exercises queue backpressure (shed fires
//! exactly past capacity).
//!
//! Knobs: `JSK_SERVE_CONNS` (client connections, default 4),
//! `JSK_SERVE_QUEUE` (per-connection queue bound, default 8),
//! `JSK_SHARDS` (default 4), `JSK_JOBS` (pool worker threads — never
//! changes a byte of the record). Wall-clock requests/sec goes to stdout
//! only; the JSON record stays deterministic.

use jsk_bench::record::{BenchReporter, CellRecord};
use jsk_bench::{pool, Report};
use jsk_serve::protocol::Response;
use jsk_serve::{submission_job, Client, LoopbackTransport, Server, ServerConfig, Submission};
use jsk_shard::serve::{ServeConfig, ShardPool, SiteOutcome};
use jsk_sim::knob::env_knob;
use jsk_workloads::schedule::{corpus_schedules, Schedule};

/// The corpus under the kernel policy, seeded per connection.
fn corpus_submissions(conn: usize) -> Vec<Submission> {
    corpus_schedules()
        .into_iter()
        .enumerate()
        .map(|(i, s)| Submission {
            site: s.name.clone(),
            seed: (conn as u64 + 1) * 1_000_003 + i as u64,
            policy: "kernel".into(),
            schedule: s,
            deadline_ms: 0,
        })
        .collect()
}

/// Serves `subs` through `client` in `chunk`-sized flushes; returns the
/// serialized per-site response frames in submission order.
fn serve_chunked(client: &mut Client, subs: &[Submission], chunk: usize) -> Vec<String> {
    let mut frames = Vec::with_capacity(subs.len());
    for batch in subs.chunks(chunk.max(1)) {
        for sub in batch {
            let resp = client.submit(sub).expect("submit");
            assert!(matches!(resp, Response::Queued { .. }), "{resp:?}");
        }
        let mut results = client.flush().expect("flush");
        let summary = results.pop().expect("flush summary");
        assert!(
            matches!(summary, Response::FlushOk { served, .. } if served == batch.len() as u64),
            "{summary:?}"
        );
        frames.extend(
            results
                .iter()
                .map(|r| serde_json::to_string(r).expect("response serializes")),
        );
    }
    frames
}

/// Direct `ShardPool` submission of the same chunk partition: the frames
/// the wire path must reproduce byte for byte.
fn serve_direct(subs: &[Submission], chunk: usize, shards: usize, workers: usize) -> Vec<String> {
    let pool = ShardPool::new(ServeConfig::new(shards, workers));
    let mut frames = Vec::with_capacity(subs.len());
    for batch in subs.chunks(chunk.max(1)) {
        let report = pool.serve(batch.iter().map(submission_job).collect());
        let n = report.shards.len();
        let mut cursors = vec![0usize; n];
        for (i, sub) in batch.iter().enumerate() {
            let s = i % n;
            let row = &report.shards[s].sites[cursors[s]];
            cursors[s] += 1;
            let SiteOutcome::Served {
                defended,
                detail,
                wedged,
            } = &row.outcome
            else {
                panic!("corpus site {} not served: {:?}", row.site, row.outcome)
            };
            frames.push(
                serde_json::to_string(&Response::Verdict {
                    site: row.site.clone(),
                    seed: row.seed,
                    policy: sub.policy.clone(),
                    shard: s as u64,
                    defended: *defended,
                    detail: detail.clone(),
                    wedged: *wedged,
                    attempts: row.attempts,
                    completed_at_ms: row.completed_at_ms,
                })
                .expect("verdict serializes"),
            );
        }
    }
    frames
}

fn main() {
    let conns = env_knob("JSK_SERVE_CONNS", 4).max(1);
    let queue = env_knob("JSK_SERVE_QUEUE", 8).max(1);
    let shards = pool::shards();
    let jobs = pool::jobs();
    let mut reporter = BenchReporter::new("serve");
    reporter
        .knob("JSK_SERVE_CONNS", conns)
        .knob("JSK_SERVE_QUEUE", queue)
        .knob("JSK_SHARDS", shards)
        .set_jobs(jobs);

    let server = Server::new(ServerConfig::new(shards, jobs).with_queue_capacity(queue));
    let transport = LoopbackTransport::new(server.clone());

    let mut report = Report::new(
        "Corpus served over the wire front door — every verdict behind the protocol",
        &["Connection", "served", "defended", "wire == direct"],
    );
    let start = std::time::Instant::now();
    for conn in 0..conns {
        let subs = corpus_submissions(conn);
        let mut client = Client::connect(&transport).expect("loopback connects");
        let frames = serve_chunked(&mut client, &subs, queue);
        client.bye().expect("clean close");
        assert_eq!(frames.len(), subs.len());

        let mut defended = 0usize;
        for (sub, frame) in subs.iter().zip(&frames) {
            let ok = frame.contains("\"defended\":true");
            defended += usize::from(ok);
            reporter.cell(CellRecord::verdict(
                sub.site.clone(),
                format!("conn{conn}"),
                ok,
            ));
        }

        // The tentpole invariant, inline: connection 0's frames diff
        // byte-for-byte against direct pool submission of the same
        // chunks (workers = 1 on the direct side — worker count is
        // wall-clock, never content).
        let wire_matches = if conn == 0 {
            let direct = serve_direct(&subs, queue, shards, 1);
            assert_eq!(frames, direct, "wire diverged from direct submission");
            reporter.cell(CellRecord::verdict("wire", "byte-identical", true));
            "yes"
        } else {
            "-"
        };
        report.row(vec![
            format!("conn{conn}"),
            subs.len().to_string(),
            format!("{defended}/{}", subs.len()),
            wire_matches.to_owned(),
        ]);
        eprintln!("  finished connection {conn}");
    }

    // Backpressure: one more connection over-fills its queue with cheap
    // schedules; shed must fire exactly past capacity.
    let mut client = Client::connect(&transport).expect("loopback connects");
    let mut shed = 0usize;
    for i in 0..queue + 2 {
        let sub = Submission {
            site: format!("over-{i}"),
            seed: i as u64,
            policy: "legacy".into(),
            schedule: Schedule {
                name: format!("over-{i}"),
                private_mode: false,
                run_ms: 1,
                resources: Vec::new(),
                events: Vec::new(),
            },
            deadline_ms: 0,
        };
        if matches!(client.submit(&sub).expect("submit"), Response::Shed { .. }) {
            shed += 1;
        }
    }
    client.flush().expect("flush the survivors");
    client.bye().expect("clean close");
    reporter.cell(CellRecord::verdict(
        "backpressure",
        "shed-past-capacity",
        shed == 2,
    ));

    let stats = server.wire_stats();
    reporter.observe(&server.site_metrics());
    reporter.observe(&stats.snapshot());

    report.print();
    println!(
        "\nPaper reading: the kernel front door adds framing, backpressure, \
         and observability — and not one byte of semantics. Every corpus \
         program keeps its verdict behind the wire protocol, the loopback \
         stream diffs clean against direct shard-pool submission, and the \
         connection queue sheds explicitly instead of stalling."
    );
    // Wall-clock throughput goes to stdout only: the JSON record must
    // stay byte-identical across machines and JSK_JOBS settings.
    let wall = start.elapsed().as_secs_f64();
    if wall > 0.0 {
        println!(
            "[serve-wire] {} frames over {conns} connections ({:.0} requests/sec wall-clock)",
            stats.frames,
            f64::from(u32::try_from(stats.frames).unwrap_or(u32::MAX)) / wall
        );
    }
    reporter.finish().expect("write bench JSON");
}
