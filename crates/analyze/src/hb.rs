//! The happens-before graph and the race detector over it.
//!
//! The unit of concurrency is one dispatched task — a [`NodeRecord`] in the
//! trace, EventRacer-style. Node ids are assigned monotonically in dispatch
//! order, so every edge points from a lower id to a higher one and the trace
//! order is already a topological order: a single forward pass computing
//! ancestor bitsets decides reachability for the whole graph.
//!
//! Three edge sources feed the graph:
//!
//! * **fork** edges, implicit in [`NodeRecord::forked_from`] (timer arm →
//!   fire, `postMessage` send → deliver, fetch → completion, worker create
//!   → first run, terminate → teardown);
//! * **dispatch-chain** edges the kernel announces when its serialized
//!   dispatcher releases two tasks consecutively on one thread;
//! * **kernel-comm** edges carried by the kernel-space overlay
//!   (`jsk_core::comm`): the sender's task happens before the receiving
//!   thread's next dispatched task.
//!
//! Two accesses *conflict* when they touch the same [`AccessTarget`] and at
//! least one is a write; a conflicting pair unordered by the graph is a
//! **race**. Each reported race carries both access stacks (the fork
//! ancestry of each task) and a minimal reordering witness: the deepest
//! common fork ancestor plus the two independent chains below it — the two
//! schedules that disagree about the order of the pair.

use jsk_browser::ids::ThreadId;
use jsk_browser::trace::{
    AccessKind, AccessRecord, AccessTarget, EdgeKind, Interner, NodeRecord, Sym, Trace,
};
use serde::Serialize;
use std::collections::BTreeMap;

/// The happens-before graph of one trace.
#[derive(Debug)]
pub struct HbGraph {
    /// Node labels as symbols (`None` for ids the trace never recorded);
    /// resolved against `strings` only when a finding is materialized.
    labels: Vec<Option<Sym>>,
    /// The trace's string table, carried so the graph can resolve symbols
    /// without borrowing the trace.
    strings: Interner,
    threads: Vec<ThreadId>,
    parents: Vec<Option<u64>>,
    /// Per-node ancestor bitset, one word per 64 nodes.
    reach: Vec<Vec<u64>>,
}

impl HbGraph {
    /// Builds the graph from a trace: nodes and fork edges from the
    /// [`NodeRecord`]s, explicit edges from the kernel's
    /// [`HbEdge`](jsk_browser::trace::HbEdge) announcements.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> HbGraph {
        HbGraph::from_trace_filtered(trace, |_| true)
    }

    /// Like [`HbGraph::from_trace`], but keeps only the explicit edges whose
    /// [`EdgeKind`] passes `keep`. Fork edges (task provenance on the
    /// [`NodeRecord`]) always stay: a task cannot run before the task that
    /// registered it, whatever the scheduler does. The predictive pass uses
    /// this to drop `DispatchChain` edges — the serialized dispatcher's
    /// arbitrary ordering choice — and ask what the *semantic* order alone
    /// still rules out.
    #[must_use]
    pub fn from_trace_filtered(trace: &Trace, keep: impl Fn(EdgeKind) -> bool) -> HbGraph {
        let n = trace
            .nodes()
            .map(|(_, rec)| rec.node as usize + 1)
            .max()
            .unwrap_or(0);
        let mut labels = vec![None; n];
        let mut threads = vec![ThreadId::new(0); n];
        let mut parents = vec![None; n];
        let mut preds: Vec<Vec<u64>> = vec![Vec::new(); n];
        for (_, rec) in trace.nodes() {
            let NodeRecord {
                node,
                thread,
                forked_from,
                label,
            } = rec;
            let i = *node as usize;
            labels[i] = Some(*label);
            threads[i] = *thread;
            parents[i] = *forked_from;
            if let Some(p) = forked_from {
                if *p < *node {
                    preds[i].push(*p);
                }
            }
        }
        for (_, edge) in trace.edges() {
            // Node ids are a topological order; a backward or self edge can
            // only come from a corrupted trace, so it is dropped rather than
            // allowed to poison reachability.
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
        HbGraph {
            labels,
            strings: trace.strings().clone(),
            threads,
            parents,
            reach,
        }
    }

    /// Number of task nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Whether `a` happens before `b` (strictly).
    #[must_use]
    pub fn happens_before(&self, a: u64, b: u64) -> bool {
        let (a, b) = (a as usize, b as usize);
        a < self.labels.len()
            && b < self.labels.len()
            && (self.reach[b][a / 64] >> (a % 64)) & 1 == 1
    }

    /// Whether the pair is ordered either way (or is the same node).
    #[must_use]
    pub fn ordered(&self, a: u64, b: u64) -> bool {
        a == b || self.happens_before(a, b) || self.happens_before(b, a)
    }

    /// The node's label (empty for ids the trace never recorded).
    #[must_use]
    pub fn label(&self, node: u64) -> &str {
        self.labels
            .get(node as usize)
            .copied()
            .flatten()
            .map_or("", |sym| self.strings.resolve(sym))
    }

    /// The thread the node's task ran on.
    #[must_use]
    pub fn thread(&self, node: u64) -> Option<ThreadId> {
        self.threads.get(node as usize).copied()
    }

    /// The fork-ancestry chain root..=node.
    #[must_use]
    pub fn fork_chain(&self, node: u64) -> Vec<u64> {
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(&Some(p)) = self.parents.get(cur as usize) {
            // Defensive: a malformed parent pointer must not loop.
            if p >= cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// The deepest node that is a fork ancestor of both, if any.
    #[must_use]
    pub fn common_fork_ancestor(&self, a: u64, b: u64) -> Option<u64> {
        let ca = self.fork_chain(a);
        let cb = self.fork_chain(b);
        ca.iter()
            .zip(cb.iter())
            .take_while(|(x, y)| x == y)
            .map(|(x, _)| *x)
            .last()
    }

    fn site(&self, access: &AccessRecord) -> AccessSite {
        let stack = self
            .fork_chain(access.node)
            .into_iter()
            .map(|n| format!("{}#{}", self.label(n), n))
            .collect();
        AccessSite {
            node: access.node,
            thread: access.thread,
            kind: access.kind,
            what: self.strings.resolve(access.what).to_owned(),
            stack,
        }
    }

    fn witness(&self, a: u64, b: u64) -> ReorderWitness {
        let lca = self.common_fork_ancestor(a, b);
        let below = |node: u64| {
            let chain = self.fork_chain(node);
            match lca {
                Some(l) => chain.into_iter().skip_while(|&n| n != l).skip(1).collect(),
                None => chain,
            }
        };
        ReorderWitness {
            common_ancestor: lca,
            first_chain: below(a),
            second_chain: below(b),
        }
    }
}

/// One side of a racy pair: the access plus the fork ancestry ("stack") of
/// the task that performed it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AccessSite {
    /// The task node.
    pub node: u64,
    /// The thread it ran on.
    pub thread: ThreadId,
    /// Read or write.
    pub kind: AccessKind,
    /// Call-site label.
    pub what: String,
    /// Fork ancestry, root first, each entry `label#node`.
    pub stack: Vec<String>,
}

/// The minimal reordering witness of a race: the two tasks share the fork
/// ancestor `common_ancestor` and the chains below it are independent — no
/// happens-before edge connects them, so a scheduler is free to run either
/// chain first and the access order flips.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReorderWitness {
    /// Deepest common fork ancestor (`None` when the tasks share no root).
    pub common_ancestor: Option<u64>,
    /// Fork chain from below the common ancestor to the first access.
    pub first_chain: Vec<u64>,
    /// Fork chain from below the common ancestor to the second access.
    pub second_chain: Vec<u64>,
}

/// One detected race: a conflicting access pair unordered by
/// happens-before.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RaceFinding {
    /// The contended state.
    pub target: AccessTarget,
    /// The first access (lower node id).
    pub first: AccessSite,
    /// The second access.
    pub second: AccessSite,
    /// Why the pair can be reordered.
    pub witness: ReorderWitness,
    /// How many unordered pairs collapsed into this finding (pairs with the
    /// same target and the same two call-site labels are reported once).
    pub occurrences: usize,
}

/// Detects races: conflicting access pairs unordered by the graph. Findings
/// are deduplicated by `(target, first.what, second.what)` and sorted
/// deterministically.
#[must_use]
pub fn detect_races(trace: &Trace, graph: &HbGraph) -> Vec<RaceFinding> {
    let mut by_target: BTreeMap<AccessTarget, Vec<&AccessRecord>> = BTreeMap::new();
    for (_, access) in trace.accesses() {
        by_target.entry(access.target).or_default().push(access);
    }
    let mut out = Vec::new();
    for (target, accesses) in by_target {
        // Dedup on the raw symbol pair: within one trace distinct symbols
        // are distinct strings, so this is the same partition as the label
        // pair without cloning a string per candidate pair.
        let mut dedup: BTreeMap<(u32, u32), RaceFinding> = BTreeMap::new();
        for (i, a) in accesses.iter().enumerate() {
            for b in accesses.iter().skip(i + 1) {
                if a.kind == AccessKind::Read && b.kind == AccessKind::Read {
                    continue;
                }
                if a.node == b.node || graph.ordered(a.node, b.node) {
                    continue;
                }
                let (first, second) = if a.node <= b.node { (a, b) } else { (b, a) };
                let key = (first.what.index(), second.what.index());
                dedup
                    .entry(key)
                    .and_modify(|f| f.occurrences += 1)
                    .or_insert_with(|| RaceFinding {
                        target,
                        first: graph.site(first),
                        second: graph.site(second),
                        witness: graph.witness(first.node, second.node),
                        occurrences: 1,
                    });
            }
        }
        out.extend(dedup.into_values());
    }
    // The label pair breaks (target, node, node) ties: one node can host
    // accesses with different labels, and symbol order is interning order,
    // not lexicographic, so the tie-break must compare the resolved text.
    out.sort_by(|x, y| {
        (
            x.target,
            x.first.node,
            x.second.node,
            &x.first.what,
            &x.second.what,
        )
            .cmp(&(
                y.target,
                y.first.node,
                y.second.node,
                &y.first.what,
                &y.second.what,
            ))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_browser::trace::{EdgeKind, HbEdge};
    use jsk_sim::time::SimTime;

    fn node(t: &mut Trace, id: u64, thread: u64, forked_from: Option<u64>, label: &str) {
        let label = t.intern(label);
        t.node(
            SimTime::from_millis(id),
            NodeRecord {
                node: id,
                thread: ThreadId::new(thread),
                forked_from,
                label,
            },
        );
    }

    fn access(t: &mut Trace, node: u64, thread: u64, target: AccessTarget, kind: AccessKind) {
        let what = t.intern(&format!("w{node}"));
        t.access(
            SimTime::from_millis(node),
            AccessRecord {
                node,
                thread: ThreadId::new(thread),
                target,
                kind,
                what,
            },
        );
    }

    fn sab(idx: u64) -> AccessTarget {
        AccessTarget::Sab {
            sab: jsk_browser::ids::SabId::new(0),
            idx,
        }
    }

    /// boot → {a, b} siblings: a conflicting pair between them races.
    #[test]
    fn sibling_write_write_is_a_race() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "boot");
        node(&mut t, 1, 0, Some(0), "timer");
        node(&mut t, 2, 1, Some(0), "worker");
        access(&mut t, 1, 0, sab(3), AccessKind::Write);
        access(&mut t, 2, 1, sab(3), AccessKind::Write);
        let g = HbGraph::from_trace(&t);
        let races = detect_races(&t, &g);
        assert_eq!(races.len(), 1);
        let r = &races[0];
        assert_eq!((r.first.node, r.second.node), (1, 2));
        assert_eq!(r.witness.common_ancestor, Some(0));
        assert_eq!(r.witness.first_chain, vec![1]);
        assert_eq!(r.witness.second_chain, vec![2]);
        assert_eq!(r.first.stack, vec!["boot#0", "timer#1"]);
    }

    #[test]
    fn read_read_pairs_never_race() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "boot");
        node(&mut t, 1, 0, Some(0), "a");
        node(&mut t, 2, 1, Some(0), "b");
        access(&mut t, 1, 0, sab(0), AccessKind::Read);
        access(&mut t, 2, 1, sab(0), AccessKind::Read);
        let g = HbGraph::from_trace(&t);
        assert!(detect_races(&t, &g).is_empty());
    }

    #[test]
    fn fork_ancestry_orders_the_pair() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "boot");
        node(&mut t, 1, 0, Some(0), "child");
        access(&mut t, 0, 0, sab(0), AccessKind::Write);
        access(&mut t, 1, 0, sab(0), AccessKind::Write);
        let g = HbGraph::from_trace(&t);
        assert!(g.happens_before(0, 1));
        assert!(detect_races(&t, &g).is_empty());
    }

    /// A kernel DispatchChain edge removes the sibling race; the ordering is
    /// transitive through intermediate nodes.
    #[test]
    fn explicit_edges_order_transitively() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "boot");
        node(&mut t, 1, 0, Some(0), "a");
        node(&mut t, 2, 0, Some(0), "mid");
        node(&mut t, 3, 1, Some(0), "b");
        access(&mut t, 1, 0, sab(9), AccessKind::Write);
        access(&mut t, 3, 1, sab(9), AccessKind::Read);
        t.edge(
            SimTime::from_millis(2),
            HbEdge {
                from: 1,
                to: 2,
                kind: EdgeKind::DispatchChain,
            },
        );
        t.edge(
            SimTime::from_millis(3),
            HbEdge {
                from: 2,
                to: 3,
                kind: EdgeKind::KernelComm,
            },
        );
        let g = HbGraph::from_trace(&t);
        assert!(g.happens_before(1, 3));
        assert!(detect_races(&t, &g).is_empty());
    }

    #[test]
    fn identical_label_pairs_collapse_with_a_count() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "boot");
        node(&mut t, 1, 0, Some(0), "w");
        for i in 2..6 {
            node(&mut t, i, 1, Some(0), "r");
        }
        let store = t.intern("store");
        t.access(
            SimTime::ZERO,
            AccessRecord {
                node: 1,
                thread: ThreadId::new(0),
                target: sab(0),
                kind: AccessKind::Write,
                what: store,
            },
        );
        let load = t.intern("load");
        for i in 2..6 {
            t.access(
                SimTime::ZERO,
                AccessRecord {
                    node: i,
                    thread: ThreadId::new(1),
                    target: sab(0),
                    kind: AccessKind::Read,
                    what: load,
                },
            );
        }
        let g = HbGraph::from_trace(&t);
        let races = detect_races(&t, &g);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].occurrences, 4);
    }

    #[test]
    fn malformed_backward_edge_is_ignored() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "boot");
        node(&mut t, 1, 0, Some(0), "a");
        t.edge(
            SimTime::ZERO,
            HbEdge {
                from: 1,
                to: 0,
                kind: EdgeKind::KernelComm,
            },
        );
        let g = HbGraph::from_trace(&t);
        assert!(!g.happens_before(1, 0));
        assert!(g.happens_before(0, 1));
    }

    /// Node ids with holes: id 5 was never recorded, so `labels[5]` is
    /// `None`. The graph, the detector, and every accessor must treat the
    /// gap as an anonymous unordered node, not panic or mis-index.
    #[test]
    fn gap_node_ids_degrade_to_anonymous_nodes() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "boot");
        node(&mut t, 2, 0, Some(0), "a");
        node(&mut t, 7, 1, Some(0), "b");
        access(&mut t, 2, 0, sab(1), AccessKind::Write);
        access(&mut t, 7, 1, sab(1), AccessKind::Write);
        let g = HbGraph::from_trace(&t);
        assert_eq!(g.node_count(), 8, "sized by max id, gaps included");
        assert_eq!(g.label(5), "", "gap ids resolve to the empty label");
        assert!(
            !g.ordered(2, 5),
            "gap nodes are unordered w.r.t. everything"
        );
        let races = detect_races(&t, &g);
        assert_eq!(races.len(), 1);
        assert_eq!((races[0].first.node, races[0].second.node), (2, 7));
    }

    /// A forkless trace — every node a root — must analyze cleanly: the
    /// witness has no common ancestor and each chain is just the access
    /// node itself.
    #[test]
    fn forkless_root_only_trace_races_without_ancestry() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "main");
        node(&mut t, 1, 1, None, "worker");
        access(&mut t, 0, 0, sab(4), AccessKind::Write);
        access(&mut t, 1, 1, sab(4), AccessKind::Write);
        let g = HbGraph::from_trace(&t);
        assert_eq!(g.fork_chain(0), vec![0]);
        let races = detect_races(&t, &g);
        assert_eq!(races.len(), 1);
        let w = &races[0].witness;
        assert_eq!(w.common_ancestor, None);
        assert_eq!(w.first_chain, vec![0], "whole chain when there is no LCA");
        assert_eq!(w.second_chain, vec![1]);
        assert_eq!(races[0].first.stack, vec!["main#0"]);
    }

    /// Two disjoint fork trees: the racing pair shares no fork ancestor at
    /// all. The witness must degrade to `common_ancestor: None` with the
    /// full chains, not panic in the LCA walk.
    #[test]
    fn race_without_common_fork_ancestor_degrades_gracefully() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "page-a");
        node(&mut t, 1, 1, None, "page-b");
        node(&mut t, 2, 0, Some(0), "a-child");
        node(&mut t, 3, 1, Some(1), "b-child");
        access(&mut t, 2, 0, sab(8), AccessKind::Write);
        access(&mut t, 3, 1, sab(8), AccessKind::Read);
        let g = HbGraph::from_trace(&t);
        assert_eq!(g.common_fork_ancestor(2, 3), None);
        let races = detect_races(&t, &g);
        assert_eq!(races.len(), 1);
        let w = &races[0].witness;
        assert_eq!(w.common_ancestor, None);
        assert_eq!(w.first_chain, vec![0, 2]);
        assert_eq!(w.second_chain, vec![1, 3]);
    }

    /// Dropping dispatch-chain edges (the predictive weakening) re-exposes
    /// a pair that only the dispatcher's accidental order had hidden, while
    /// kernel-comm edges — real synchronization — still order.
    #[test]
    fn filtered_graph_drops_only_the_excluded_edge_kind() {
        let mut t = Trace::new();
        node(&mut t, 0, 0, None, "boot");
        node(&mut t, 1, 0, Some(0), "a");
        node(&mut t, 2, 1, Some(0), "b");
        access(&mut t, 1, 0, sab(2), AccessKind::Write);
        access(&mut t, 2, 1, sab(2), AccessKind::Write);
        t.edge(
            SimTime::from_millis(2),
            HbEdge {
                from: 1,
                to: 2,
                kind: EdgeKind::DispatchChain,
            },
        );
        let full = HbGraph::from_trace(&t);
        assert!(detect_races(&t, &full).is_empty(), "chain edge orders");
        let weak = HbGraph::from_trace_filtered(&t, |k| k != EdgeKind::DispatchChain);
        assert_eq!(detect_races(&t, &weak).len(), 1, "weakening re-exposes");
        let keep_all = HbGraph::from_trace_filtered(&t, |_| true);
        assert!(detect_races(&t, &keep_all).is_empty());
    }
}
