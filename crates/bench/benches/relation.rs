//! Bench: `Relation::transitive_closure` against a per-node search,
//! and `Relation::find_cycle` on the shapes the checker searches.
//!
//! The closure runs on every candidate-execution build (closing the coherence
//! order).  `bitset` is the shipped closure — row ORs over the relation's own
//! bit rows in reverse topological order; `btree` is a per-node search
//! collecting into a `BTreeSet` through the public pair-level API, the
//! algorithm the first implementation used.  Inputs are the relation shapes
//! the checker actually produces: long per-address chains (coherence order)
//! and bushy random DAGs (derived happens-before unions).
//!
//! `find_cycle` runs four or five times per check.  `po-dense-256` is four
//! threads of dense transitive program order (the ~8k pairs that made a
//! per-pair search expensive), `ghb-litmus-256` adds sparse forward conflict
//! edges between the threads (the shape of `ghb` on the `litmus-mesi`
//! workload), and `cyclic` adds one back edge inside the last thread, so the
//! search ends with a witness on the first path that reaches it.

use mcversi_bench::timing::bench;
use mcversi_mcm::relation::Relation;
use mcversi_mcm::EventId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The per-node search, the comparison baseline.
fn btree_closure(rel: &Relation) -> Relation {
    let mut out = Relation::new();
    for start in rel.nodes() {
        let mut stack: Vec<EventId> = rel.successors(start).collect();
        let mut seen: BTreeSet<EventId> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                out.insert(start, n);
                stack.extend(rel.successors(n));
            }
        }
    }
    out
}

/// Several same-address coherence chains, the closure the execution builder
/// computes on every `build()`.
fn coherence_chains(chains: u32, len: u32) -> Relation {
    let mut rel = Relation::new();
    for c in 0..chains {
        for i in 0..len - 1 {
            rel.insert(EventId(c * len + i), EventId(c * len + i + 1));
        }
    }
    rel
}

/// A random DAG shaped like a derived happens-before union.
fn random_dag(nodes: u32, edges: u32, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::new();
    for _ in 0..edges {
        let a = rng.gen_range(0..nodes - 1);
        let b = rng.gen_range(a + 1..nodes);
        rel.insert(EventId(a), EventId(b));
    }
    rel
}

/// `threads` threads of `per_thread` events with contiguous ids, each event
/// ordered before every later one of its thread.
fn dense_program_order(threads: u32, per_thread: u32) -> Relation {
    let mut rel = Relation::new();
    for t in 0..threads {
        for k in 0..per_thread {
            let later = (k + 1..per_thread).map(|l| EventId(t * per_thread + l));
            rel.insert_row(EventId(t * per_thread + k), &later.collect());
        }
    }
    rel
}

/// [`dense_program_order`] plus forward (acyclic) edges between threads.
fn litmus_ghb(threads: u32, per_thread: u32, seed: u64) -> Relation {
    let mut rel = dense_program_order(threads, per_thread);
    let nodes = threads * per_thread;
    rel.union_with(&random_dag(nodes, nodes, seed));
    rel
}

fn main() {
    let inputs = [
        ("chains_8x64", coherence_chains(8, 64)),
        ("chains_4x256", coherence_chains(4, 256)),
        ("dag_256n_1024e", random_dag(256, 1024, 7)),
        ("dag_1024n_4096e", random_dag(1024, 4096, 11)),
    ];
    for (name, rel) in &inputs {
        bench(&format!("relation_closure/bitset/{name}"), || {
            let closed = rel.transitive_closure();
            assert!(closed.len() >= rel.len());
        });
        bench(&format!("relation_closure/btree/{name}"), || {
            let closed = btree_closure(rel);
            assert!(closed.len() >= rel.len());
        });
    }

    let mut cyclic = litmus_ghb(4, 64, 3);
    cyclic.insert(EventId(255), EventId(192));
    let inputs = [
        ("po-dense-256", dense_program_order(4, 64), false),
        ("ghb-litmus-256", litmus_ghb(4, 64, 3), false),
        ("cyclic", cyclic, true),
    ];
    for (name, rel, has_cycle) in &inputs {
        bench(&format!("find_cycle/{name}"), || {
            assert_eq!(rel.find_cycle().is_some(), *has_cycle)
        });
    }
}
