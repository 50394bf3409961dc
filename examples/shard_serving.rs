//! A small sharded fleet walked through its failure modes: normal
//! serving, a crash with supervised restart, restart-budget exhaustion
//! and quarantine, a severed heartbeat ring, and admission-control load
//! shedding — with per-shard metrics at the end.
//!
//! ```sh
//! cargo run --example shard_serving
//! ```

use jskernel::shard::{corpus_job, ServeConfig, ServeReport, ShardPool, SiteOutcome};
use jskernel::sim::fault::FaultPlan;

/// Cheap corpus programs (three exploits simulate minutes of virtual
/// time; `cargo bench -p jsk-bench --bench shards` serves the full set).
const FAST: [usize; 8] = [1, 2, 4, 5, 6, 8, 9, 10];

fn fleet() -> Vec<jskernel::shard::SiteJob> {
    FAST.iter().map(|&k| corpus_job(k, 3)).collect()
}

fn show(title: &str, report: &ServeReport) {
    let (served, shed, quarantined, restarts) = report.totals();
    println!("\n== {title} ==");
    println!("   served={served} shed={shed} quarantined={quarantined} restarts={restarts}");
    for shard in &report.shards {
        let tag = if shard.is_quarantined {
            " [QUARANTINED]"
        } else {
            ""
        };
        println!(
            "   shard {}{tag}: served={} virtual_ms={} restarts={} hb sent={} dropped={}",
            shard.shard,
            shard.served,
            shard.virtual_ms,
            shard.restarts,
            shard.heartbeats_sent,
            shard.heartbeats_dropped
        );
        for site in &shard.sites {
            let verdict = match &site.outcome {
                SiteOutcome::Served { defended, .. } => match defended {
                    Some(true) => "defended".to_owned(),
                    Some(false) => "VULNERABLE".to_owned(),
                    None => "no verdict".to_owned(),
                },
                SiteOutcome::Shed => "shed (admission control)".to_owned(),
                SiteOutcome::Quarantined => "written off (quarantine)".to_owned(),
                SiteOutcome::Cancelled => "cancelled (drain)".to_owned(),
            };
            println!(
                "      {} attempts={} done@{}ms: {verdict}",
                site.site, site.attempts, site.completed_at_ms
            );
        }
    }
}

fn main() {
    println!("Sharded multi-site kernel serving — two shards, the cheap corpus subset");

    // 1. Fault-free fleet: every site served, every exploit defended.
    let clean = ShardPool::new(ServeConfig::new(2, 2)).serve(fleet());
    show("fault-free", &clean);

    // 2. A crash mid-serve: the supervisor restarts the shard with
    //    backoff; the interrupted attempt is discarded wholly and rerun,
    //    so verdicts match the fault-free run exactly.
    let crash_plan = FaultPlan::new(7).with_shard_crash(0, 1);
    let crashed = ShardPool::new(ServeConfig::new(2, 2).with_fault(crash_plan)).serve(fleet());
    show("crash on shard 0 + supervised restart", &crashed);
    assert_eq!(clean.shards[0].outcomes(), crashed.shards[0].outcomes());
    println!("   -> verdicts identical to the fault-free run (crash cost virtual time only)");

    // 3. Crashes past the restart budget: the shard is quarantined and
    //    its remaining queue written off; the sibling shard is untouched.
    let storm = FaultPlan::new(7)
        .with_shard_crash(0, 1)
        .with_shard_crash(0, 2)
        .with_shard_crash(0, 3);
    let quarantined =
        ShardPool::new(ServeConfig::new(2, 2).with_fault(storm).with_restarts(2, 1)).serve(fleet());
    show("crash storm on shard 0 -> quarantine", &quarantined);
    assert_eq!(clean.shards[1], quarantined.shards[1]);

    // 4. A directional partition severs shard 0's heartbeat ring; service
    //    continues (the owner always serves its own queue).
    let cut = FaultPlan::new(7).with_partition(0, 1, 0, u64::MAX);
    let partitioned = ShardPool::new(ServeConfig::new(2, 2).with_fault(cut)).serve(fleet());
    show(
        "partition 0 -> 1 (heartbeats dropped, service intact)",
        &partitioned,
    );
    assert_eq!(clean.shards[0].outcomes(), partitioned.shards[0].outcomes());

    // 5. Admission control: a bounded queue sheds the overflow instead of
    //    wedging the shard.
    let bounded = ShardPool::new(ServeConfig::new(2, 2).with_admission_capacity(2)).serve(fleet());
    show("admission capacity 2 per shard", &bounded);

    // 6. Per-shard metrics, label-set by shard id, merged fleet-wide.
    println!("\n== fleet metrics (shard-labelled counters, fault-free run) ==");
    let counters = clean.fleet_metrics.counters();
    for (name, value) in counters.iter().take(8) {
        println!("   {name} = {value}");
    }
    let registered: u64 = clean
        .shards
        .iter()
        .map(|sh| sh.metrics.counter("kernel.registered"))
        .sum();
    println!(
        "   ... {} counters total; kernel.registered across shards = {registered}",
        counters.len()
    );
}
