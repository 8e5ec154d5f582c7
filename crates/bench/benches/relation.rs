//! Criterion bench: `Relation::transitive_closure` against a per-node search.
//!
//! The closure runs on every candidate-execution build (closing the coherence
//! order).  `bitset` is the shipped closure — row ORs over the relation's own
//! bit rows in reverse topological order; `btree` is a per-node search
//! collecting into a `BTreeSet` through the public pair-level API, the
//! algorithm the first implementation used.  Inputs are the relation shapes
//! the checker actually produces: long per-address chains (coherence order)
//! and bushy random DAGs (derived happens-before unions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

fn bench_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation_closure");
    let inputs: Vec<(&str, Relation)> = vec![
        ("chains_8x64", coherence_chains(8, 64)),
        ("chains_4x256", coherence_chains(4, 256)),
        ("dag_256n_1024e", random_dag(256, 1024, 7)),
        ("dag_1024n_4096e", random_dag(1024, 4096, 11)),
    ];
    for (name, rel) in &inputs {
        group.bench_with_input(BenchmarkId::new("bitset", name), rel, |bench, rel| {
            bench.iter(|| {
                let closed = rel.transitive_closure();
                assert!(closed.len() >= rel.len());
            });
        });
        group.bench_with_input(BenchmarkId::new("btree", name), rel, |bench, rel| {
            bench.iter(|| {
                let closed = btree_closure(rel);
                assert!(closed.len() >= rel.len());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_closure);
criterion_main!(benches);
