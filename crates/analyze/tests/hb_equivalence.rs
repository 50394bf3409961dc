//! The flat happens-before closure against the nested one it replaced.
//!
//! `HbGraph` keeps its ancestor bitsets in one `n × blocks` word vector
//! and its predecessors in one sorted edge list. The reference below is
//! the per-node form it replaced: one predecessor `Vec` and one bitset
//! `Vec` per node, filled in node order. For every seed schedule under
//! the legacy browser and the kernel, both must agree on every ordered
//! node pair, for the full graph and for the predictive pass's graph
//! without dispatch-chain edges.

use jsk_analyze::HbGraph;
use jsk_browser::mediator::{LegacyMediator, Mediator};
use jsk_browser::trace::{EdgeKind, NodeRecord, Trace};
use jsk_core::{JsKernel, KernelConfig};
use jsk_workloads::schedule::{run_schedule, seed_schedules};

/// The per-node closure: `reach[b]` has bit `a` set when `a` happens
/// before `b`.
fn reference_reach(trace: &Trace, keep: impl Fn(EdgeKind) -> bool) -> Vec<Vec<u64>> {
    let n = trace
        .nodes()
        .map(|(_, rec)| rec.node as usize + 1)
        .max()
        .unwrap_or(0);
    let mut preds: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (_, rec) in trace.nodes() {
        let NodeRecord {
            node, forked_from, ..
        } = rec;
        if let Some(p) = forked_from {
            if *p < *node {
                preds[*node as usize].push(*p);
            }
        }
    }
    for (_, edge) in trace.edges() {
        if keep(edge.kind) && edge.from < edge.to && (edge.to as usize) < n {
            preds[edge.to as usize].push(edge.from);
        }
    }
    let blocks = n.div_ceil(64);
    let mut reach: Vec<Vec<u64>> = Vec::with_capacity(n);
    for node_preds in &preds {
        let mut bits = vec![0u64; blocks];
        for &p in node_preds {
            let p = p as usize;
            for (b, word) in bits.iter_mut().enumerate() {
                *word |= reach[p][b];
            }
            bits[p / 64] |= 1 << (p % 64);
        }
        reach.push(bits);
    }
    reach
}

fn assert_same_order(trace: &Trace, graph: &HbGraph<'_>, reach: &[Vec<u64>], what: &str) {
    let n = reach.len();
    assert_eq!(graph.node_count(), n, "{what}: node count");
    let mut ordered = 0usize;
    for (b, row) in reach.iter().enumerate() {
        for a in 0..n {
            let expected = (row[a / 64] >> (a % 64)) & 1 == 1;
            assert_eq!(
                graph.happens_before(a as u64, b as u64),
                expected,
                "{what}: happens_before({a}, {b})"
            );
            ordered += usize::from(expected);
        }
    }
    // Out-of-range ids are never ordered.
    assert!(!graph.happens_before(0, n as u64));
    assert!(!graph.happens_before(n as u64, 0));
    assert!(
        n < 2 || ordered > 0 || trace.edges().count() == 0,
        "{what}: an edged trace orders something"
    );
}

#[test]
fn flat_closure_matches_the_nested_reference_on_every_seed_schedule() {
    type Defense = (&'static str, fn() -> Box<dyn Mediator>);
    let defenses: [Defense; 2] = [
        ("legacy", || Box::new(LegacyMediator)),
        ("kernel", || Box::new(JsKernel::new(KernelConfig::full()))),
    ];
    let mut graphs = 0;
    for schedule in seed_schedules() {
        for (defense, mediator) in defenses {
            for seed in [1, 31] {
                let browser = run_schedule(&schedule, mediator(), seed);
                let trace = browser.trace();
                let what = format!("{} under {defense}, seed {seed}", schedule.name);
                assert_same_order(
                    trace,
                    &HbGraph::from_trace(trace),
                    &reference_reach(trace, |_| true),
                    &what,
                );
                let weak = |k| k != EdgeKind::DispatchChain;
                assert_same_order(
                    trace,
                    &HbGraph::from_trace_filtered(trace, weak),
                    &reference_reach(trace, weak),
                    &format!("{what}, no dispatch chain"),
                );
                graphs += 2;
            }
        }
    }
    assert_eq!(graphs, seed_schedules().len() * 8);
}
