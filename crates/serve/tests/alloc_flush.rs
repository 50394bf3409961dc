//! An allocation ceiling for one whole flush. A warm one-worker `Server`
//! serves the same 8-site corpus batch twice over `LoopbackTransport`,
//! and the second flush is counted (`counting` counts the allocation
//! requests made on the calling thread). With one seat nothing leaves
//! that thread, so the count takes in what `alloc_site`'s per-site steps
//! do not see: building the jobs, the shard merge, the fleet's `{shard}`
//! labelling, the server's cumulative merge, and the response frames.
//! As there, a change may lower the ceiling, never raise it.

use jsk_serve::protocol::Response;
use jsk_serve::{Client, LoopbackTransport, Server, ServerConfig, Submission};
use jsk_workloads::schedule::corpus_schedules;

mod counting;

use counting::allocations;

/// Allocations of the second of two identical 8-site corpus flushes under
/// `kernel`, seed 31.
const FLUSH_CEILING: u64 = 1441;

#[test]
fn a_warm_eight_site_flush_stays_under_its_allocation_ceiling() {
    let batch: Vec<Submission> = corpus_schedules()
        .into_iter()
        .take(8)
        .map(|schedule| Submission {
            site: schedule.name.clone(),
            seed: 31,
            policy: "kernel".into(),
            schedule,
            deadline_ms: 0,
        })
        .collect();
    let server = Server::new(ServerConfig::new(4, 1));
    let mut client = Client::connect(&LoopbackTransport::new(server)).expect("connect + hello");
    let mut flush = || {
        for sub in &batch {
            assert!(matches!(
                client.submit(sub).expect("submit"),
                Response::Queued { .. }
            ));
        }
        let before = allocations();
        let results = client.flush().expect("flush");
        let spent = allocations() - before;
        assert!(matches!(
            results.last(),
            Some(Response::FlushOk { served: 8, .. })
        ));
        spent
    };
    flush();
    let spent = flush();
    println!("warm 8-site flush: {spent} allocations (ceiling {FLUSH_CEILING})");
    assert!(
        spent <= FLUSH_CEILING,
        "flush allocation ceiling exceeded: {spent} > {FLUSH_CEILING}"
    );
}
