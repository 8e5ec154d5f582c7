//! `Relation` against a reference pair-set model, and its pinned text forms.
//!
//! The checker's verdicts, witness cycles and the golden digests of whole
//! executions all depend on three things `Relation` promises whatever its
//! storage: the pair set every operation produces, the ascending `(from, to)`
//! iteration order, and the `{:?}` / serialized text.  The property test
//! drives the dense implementation and a `BTreeSet<(EventId, EventId)>` through
//! the same random operation sequences and compares all of it, including the
//! exact cycle `find_cycle` reports (against the adjacency-map DFS the type
//! used before it became a bit matrix, kept here verbatim as the reference).

use mcversi_mcm::relation::{EventSet, Relation};
use mcversi_mcm::EventId;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

type Pairs = BTreeSet<(EventId, EventId)>;
type Adjacency = BTreeMap<EventId, BTreeSet<EventId>>;

/// Ids below, at and above the 64-bit word boundaries, dense in places and
/// sparse in others.
const IDS: [u32; 24] = [
    0, 1, 2, 3, 4, 5, 7, 31, 32, 62, 63, 64, 65, 66, 100, 126, 127, 128, 129, 191, 192, 255, 256,
    300,
];

fn id(i: u32) -> EventId {
    EventId(IDS[i as usize % IDS.len()])
}

fn adjacency(pairs: &Pairs) -> Adjacency {
    let mut edges = Adjacency::new();
    for &(a, b) in pairs {
        edges.entry(a).or_default().insert(b);
    }
    edges
}

fn successors(edges: &Adjacency, from: EventId) -> Vec<EventId> {
    edges.get(&from).into_iter().flatten().copied().collect()
}

/// The adjacency-map `find_cycle`, verbatim from the previous representation.
fn reference_find_cycle(pairs: &Pairs) -> Option<Vec<EventId>> {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let edges = adjacency(pairs);
    let mut colour: BTreeMap<EventId, u8> = BTreeMap::new();
    let mut parent: BTreeMap<EventId, EventId> = BTreeMap::new();
    let roots: Vec<EventId> = edges.keys().copied().collect();

    for &root in &roots {
        if colour.get(&root).copied().unwrap_or(WHITE) != WHITE {
            continue;
        }
        colour.insert(root, GREY);
        let mut stack: Vec<(EventId, Vec<EventId>, usize)> =
            vec![(root, successors(&edges, root), 0)];
        while !stack.is_empty() {
            let frame_len = stack.last().expect("non-empty").1.len();
            let frame_idx = stack.last().expect("non-empty").2;
            let frame_node = stack.last().expect("non-empty").0;
            if frame_idx < frame_len {
                let succ = stack.last().expect("non-empty").1[frame_idx];
                stack.last_mut().expect("non-empty").2 += 1;
                match colour.get(&succ).copied().unwrap_or(WHITE) {
                    WHITE => {
                        parent.insert(succ, frame_node);
                        colour.insert(succ, GREY);
                        let succs = successors(&edges, succ);
                        stack.push((succ, succs, 0));
                    }
                    GREY => {
                        let mut cycle = vec![frame_node];
                        let mut cur = frame_node;
                        while cur != succ {
                            cur = parent[&cur];
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                colour.insert(frame_node, BLACK);
                stack.pop();
            }
        }
    }
    None
}

fn nodes(pairs: &Pairs) -> BTreeSet<EventId> {
    pairs.iter().flat_map(|&(a, b)| [a, b]).collect()
}

/// The adjacency-map Kahn sort, verbatim from the previous representation.
fn reference_topological_sort(pairs: &Pairs) -> Option<Vec<EventId>> {
    let edges = adjacency(pairs);
    let nodes = nodes(pairs);
    let mut indegree: BTreeMap<EventId, usize> = nodes.iter().map(|&n| (n, 0)).collect();
    for &(_, b) in pairs {
        *indegree.get_mut(&b).expect("target in node set") += 1;
    }
    let mut ready: BTreeSet<EventId> = indegree
        .iter()
        .filter_map(|(&n, &d)| if d == 0 { Some(n) } else { None })
        .collect();
    let mut out = Vec::with_capacity(nodes.len());
    while let Some(&n) = ready.iter().next() {
        ready.remove(&n);
        out.push(n);
        for s in successors(&edges, n) {
            let d = indegree.get_mut(&s).expect("successor in node set");
            *d -= 1;
            if *d == 0 {
                ready.insert(s);
            }
        }
    }
    (out.len() == nodes.len()).then_some(out)
}

fn reference_closure(pairs: &Pairs) -> Pairs {
    let edges = adjacency(pairs);
    let mut out = Pairs::new();
    for start in nodes(pairs) {
        let mut stack = successors(&edges, start);
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                out.insert((start, n));
                stack.extend(successors(&edges, n));
            }
        }
    }
    out
}

fn reference_compose(left: &Pairs, right: &Pairs) -> Pairs {
    let mut out = Pairs::new();
    for &(a, b) in left {
        for &(b2, c) in right {
            if b == b2 {
                out.insert((a, c));
            }
        }
    }
    out
}

/// A deterministic set of events derived from `salt`.
fn event_set(salt: u64) -> (EventSet, BTreeSet<EventId>) {
    let members: BTreeSet<EventId> = (0..IDS.len() as u32)
        .filter(|&i| (salt >> (i % 48)) & 1 == 1)
        .map(id)
        .collect();
    (members.iter().copied().collect(), members)
}

/// Everything observable about `rel` must equal what `model` predicts.
fn assert_matches(rel: &Relation, model: &Pairs, step: &str) {
    let listed: Vec<(EventId, EventId)> = rel.iter().collect();
    let expected: Vec<(EventId, EventId)> = model.iter().copied().collect();
    assert_eq!(listed, expected, "{step}: pairs or iteration order");
    assert_eq!(rel.len(), model.len(), "{step}: len");
    assert_eq!(rel.is_empty(), model.is_empty(), "{step}: is_empty");
    assert_eq!(rel.nodes(), nodes(model), "{step}: nodes");
    assert_eq!(
        rel.find_cycle(),
        reference_find_cycle(model),
        "{step}: find_cycle"
    );
    assert_eq!(
        rel.is_acyclic(),
        reference_find_cycle(model).is_none(),
        "{step}: is_acyclic"
    );
    assert_eq!(
        rel.topological_sort(),
        reference_topological_sort(model),
        "{step}: topological_sort"
    );
    // `==` sees pair sets, not the capacity the history of `rel` left behind.
    let rebuilt = Relation::from_pairs(model.iter().copied());
    assert_eq!(*rel, rebuilt, "{step}: == rebuilt");
    assert_eq!(rebuilt, *rel, "{step}: rebuilt ==");
    assert_eq!(format!("{rel:?}"), format!("{rebuilt:?}"), "{step}: Debug");
    assert_eq!(format!("{rel}"), format!("{rebuilt}"), "{step}: Display");
    assert_eq!(rel.to_value(), rebuilt.to_value(), "{step}: serialized");
    for i in 0..IDS.len() as u32 {
        let n = id(i);
        let succs: Vec<EventId> = model
            .iter()
            .filter(|&&(a, _)| a == n)
            .map(|&(_, b)| b)
            .collect();
        assert_eq!(
            rel.successors(n).collect::<Vec<_>>(),
            succs,
            "{step}: successors"
        );
        for &m in &succs {
            assert!(rel.contains(n, m), "{step}: contains");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two registers `x` and `y`, each a `Relation` with its model; every
    /// step applies one public operation to both representations.
    #[test]
    fn relation_matches_reference_model(
        ops in collection::vec((0u8..24, 0u32..1000, 0u32..1000, 0u64..u64::MAX), 1..48),
    ) {
        let (mut x, mut y) = (Relation::new(), Relation::new());
        let (mut mx, mut my) = (Pairs::new(), Pairs::new());
        for (step, &(op, i, j, salt)) in ops.iter().enumerate() {
            let (a, b) = (id(i), id(j));
            let keep = |a: EventId, b: EventId| (u64::from(a.0) * 31 + u64::from(b.0) * 17 + salt) % 3 != 0;
            let (set, members) = event_set(salt);
            let (other_set, other_members) = event_set(salt.rotate_left(17));
            let name = match op {
                0..=3 => {
                    // Weighted towards inserts so the registers fill up; a
                    // short run of consecutive ids makes chains and cycles.
                    for k in 0..=(salt % 3) as u32 {
                        let (a, b) = (id(i + k), id(j + k));
                        prop_assert_eq!(x.insert(a, b), mx.insert((a, b)));
                    }
                    "insert"
                }
                4 => {
                    prop_assert_eq!(y.insert(a, b), my.insert((a, b)));
                    "insert y"
                }
                5 => {
                    let victim = mx.iter().nth(i as usize % mx.len().max(1)).copied().unwrap_or((a, b));
                    prop_assert_eq!(x.remove(victim.0, victim.1), mx.remove(&victim));
                    prop_assert!(!x.remove(victim.0, victim.1));
                    "remove"
                }
                6 => {
                    x.union_with(&y);
                    mx.extend(my.iter().copied());
                    "union_with"
                }
                7 => {
                    x = Relation::union_all([&x.union(&y), &Relation::new(), &y]);
                    mx.extend(my.iter().copied());
                    "union / union_all"
                }
                10 => {
                    x = x.inverse();
                    mx = mx.iter().map(|&(a, b)| (b, a)).collect();
                    "inverse"
                }
                11 => {
                    x = x.compose(&y);
                    mx = reference_compose(&mx, &my);
                    "compose"
                }
                12 => {
                    x = x.filter(keep);
                    mx.retain(|&(a, b)| keep(a, b));
                    "filter"
                }
                13 => {
                    x = x.transitive_closure();
                    mx = reference_closure(&mx);
                    "transitive_closure"
                }
                14 => {
                    std::mem::swap(&mut x, &mut y);
                    std::mem::swap(&mut mx, &mut my);
                    "swap"
                }
                15 => {
                    y = x.clone();
                    my = mx.clone();
                    x = mx.iter().copied().filter(|&(a, b)| keep(a, b)).collect();
                    mx.retain(|&(a, b)| keep(a, b));
                    "clone / collect"
                }
                16 => {
                    x = x.restrict(&set, &other_set);
                    mx.retain(|(a, b)| members.contains(a) && other_members.contains(b));
                    "restrict"
                }
                17 => {
                    // Sources in `set` keep their targets in `other_set`;
                    // every other source loses its row.
                    x = x.intersect_rows(|a| set.contains(a).then_some(&other_set));
                    mx.retain(|(a, b)| members.contains(a) && other_members.contains(b));
                    "intersect_rows"
                }
                18 => {
                    x = x.subtract_rows(|a| set.contains(a).then_some(&other_set));
                    mx.retain(|(a, b)| !(members.contains(a) && other_members.contains(b)));
                    "subtract_rows"
                }
                20 => {
                    // A dense `po`-like block: a run of consecutive ids, each
                    // related to every later one, a whole row at a time.
                    let thread: Vec<EventId> = (0..2 + (salt % 9) as u32).map(|k| id(i + k)).collect();
                    for (k, &from) in thread.iter().enumerate() {
                        let later: BTreeSet<EventId> =
                            thread[k + 1..].iter().copied().filter(|&to| to > from).collect();
                        x.insert_row(from, &later.iter().copied().collect());
                        mx.extend(later.iter().map(|&to| (from, to)));
                    }
                    "insert_row (po-like block)"
                }
                21 => {
                    prop_assert_eq!(x.insert(a, a), mx.insert((a, a)));
                    "insert (self-loop)"
                }
                22 => {
                    // A target no row is allocated for: the largest id, from
                    // a source that is not.
                    let top = EventId(*IDS.last().expect("IDS is not empty"));
                    prop_assert_eq!(x.insert(a, top), mx.insert((a, top)));
                    "insert (target beyond the rows)"
                }
                23 => {
                    // Two disjoint cycles, so which one is reported depends
                    // on the search order alone.
                    let cycles = [[id(i), id(i + 1), id(i + 2)], [id(j), id(j + 1), id(j)]];
                    for [p, q, r] in cycles {
                        for pair in [(p, q), (q, r), (r, p)] {
                            prop_assert_eq!(x.insert(pair.0, pair.1), mx.insert(pair));
                        }
                    }
                    "insert (two cycles)"
                }
                _ => {
                    x.extend(members.iter().map(|&t| (a, t)));
                    x.extend(other_members.iter().map(|&t| (b, t)));
                    mx.extend(members.iter().map(|&t| (a, t)));
                    mx.extend(other_members.iter().map(|&t| (b, t)));
                    "extend"
                }
            };
            let step = format!("step {step} ({name})");
            assert_matches(&x, &mx, &step);
            assert_matches(&y, &my, &step);
            prop_assert_eq!(x == y, mx == my, "{}: x == y", step);
        }
    }
}

/// `find_cycle` on graphs of the checker's shape and size: a few threads of
/// dense transitive program order over ~256 contiguous ids, sparse forward
/// conflict edges between them (some into ids no row exists for), and a
/// varying number of back edges and self-loops, so that none, one or many
/// cycles exist.  The witness must be the reference's, node for node.
fn checker_shaped_graph(seed: u64) -> (Relation, Pairs) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |bound: u32| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as u32 % bound
    };
    let (mut rel, mut model) = (Relation::new(), Pairs::new());
    let threads = 1 + next(4);
    let per_thread = 8 + next(70);
    let nodes = threads * per_thread;
    for t in 0..threads {
        for k in 0..per_thread {
            let from = EventId(t * per_thread + k);
            let later: EventSet = (k + 1..per_thread)
                .map(|l| EventId(t * per_thread + l))
                .collect();
            model.extend(later.iter().map(|to| (from, to)));
            rel.insert_row(from, &later);
        }
    }
    let edge = |rel: &mut Relation, model: &mut Pairs, a: u32, b: u32| {
        rel.insert(EventId(a), EventId(b));
        model.insert((EventId(a), EventId(b)));
    };
    // Conflict-like edges: forward in id order, so they alone add no cycle;
    // the targets at and beyond `nodes` are initial-write-like sinks' mirror
    // image — ids that only ever appear as targets.
    for _ in 0..next(2 * nodes) {
        let a = next(nodes - 1);
        let b = a + 1 + next(nodes + 8 - a - 1);
        edge(&mut rel, &mut model, a, b);
    }
    for _ in 0..next(4) {
        let b = next(nodes);
        let a = b + next(nodes - b);
        edge(&mut rel, &mut model, a, b);
    }
    (rel, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn find_cycle_matches_the_reference_on_checker_shaped_graphs(seed in 0u64..u64::MAX) {
        let (rel, model) = checker_shaped_graph(seed);
        let witness = rel.find_cycle();
        prop_assert_eq!(&witness, &reference_find_cycle(&model));
        prop_assert_eq!(rel.is_acyclic(), witness.is_none());
        if let Some(cycle) = witness {
            for (k, &from) in cycle.iter().enumerate() {
                prop_assert!(rel.contains(from, cycle[(k + 1) % cycle.len()]));
            }
        }
    }
}

/// The three shapes by hand: no cycle in a dense order, a self-loop found
/// behind it, and of two cycles the one the depth-first search — which walks
/// the order's chain 0, 1, 2, .. — closes first.
#[test]
fn find_cycle_witnesses_are_pinned() {
    let e = EventId;
    let mut rel = Relation::new();
    for from in 0..200u32 {
        rel.insert_row(e(from), &(from + 1..200).map(e).collect());
    }
    rel.insert(e(3), e(4000));
    assert_eq!(rel.find_cycle(), None);
    rel.insert(e(150), e(150));
    assert_eq!(rel.find_cycle(), Some(vec![e(150)]));
    rel.remove(e(150), e(150));
    rel.insert(e(199), e(190));
    rel.insert(e(64), e(10));
    let expected: Vec<EventId> = (10..=64).map(e).collect();
    assert_eq!(rel.find_cycle(), Some(expected));
    rel.remove(e(64), e(10));
    let expected: Vec<EventId> = (190..200).map(e).collect();
    assert_eq!(rel.find_cycle(), Some(expected));
}

#[test]
fn event_set_is_a_set_of_ids() {
    let set: EventSet = [64, 3, 200, 3].into_iter().map(EventId).collect();
    assert_eq!(
        set.iter().collect::<Vec<_>>(),
        [EventId(3), EventId(64), EventId(200)]
    );
    assert!(set.contains(EventId(200)) && !set.contains(EventId(201)));
    assert!(
        !set.contains(EventId(100_000)),
        "beyond the allocated words"
    );
    assert!(!EventSet::new().contains(EventId(0)));
    assert_eq!(
        format!("{set:?}"),
        "{EventId(3), EventId(64), EventId(200)}"
    );
}

fn golden() -> Relation {
    Relation::from_pairs([
        (EventId(70), EventId(0)),
        (EventId(0), EventId(65)),
        (EventId(0), EventId(1)),
    ])
}

const GOLDEN_JSON: &str = r#"{"edges": {"0": [1, 65], "70": [0]}, "len": 3}"#;

/// The exact text of a small relation.  `tests/sim_golden.rs` hashes the
/// `{:?}` of whole executions and journals carry the JSON, so neither may
/// follow the storage.
#[test]
fn debug_and_json_text_are_pinned() {
    let r = golden();
    assert_eq!(
        format!("{r:?}"),
        "Relation { edges: {EventId(0): {EventId(1), EventId(65)}, EventId(70): {EventId(0)}}, len: 3 }"
    );
    assert_eq!(
        format!("{:?}", Relation::new()),
        "Relation { edges: {}, len: 0 }"
    );
    // The alternate form nests like a map of sets.
    let pretty: String = format!("{r:#?}").split_whitespace().collect();
    assert_eq!(
        pretty,
        "Relation{edges:{EventId(0,):{EventId(1,),EventId(65,),},EventId(70,):{EventId(0,),},},len:3,}"
    );
    assert_eq!(serde_json::to_string(&r).unwrap(), GOLDEN_JSON);
    assert_eq!(
        serde_json::to_string(&Relation::new()).unwrap(),
        r#"{"edges": {}, "len": 0}"#
    );
    // Emptied rows leave no trace in either form.
    let mut emptied = golden();
    emptied.insert(EventId(300), EventId(2));
    emptied.remove(EventId(300), EventId(2));
    assert_eq!(format!("{emptied:?}"), format!("{r:?}"));
    assert_eq!(serde_json::to_string(&emptied).unwrap(), GOLDEN_JSON);
}

#[test]
fn json_round_trips() {
    let back: Relation = serde_json::from_str(GOLDEN_JSON).unwrap();
    assert_eq!(back, golden());
    assert_eq!(
        back.iter().collect::<Vec<_>>(),
        golden().iter().collect::<Vec<_>>()
    );
    let empty: Relation = serde_json::from_str(r#"{"edges":{},"len":0}"#).unwrap();
    assert!(empty.is_empty());
    let closed = golden().transitive_closure();
    let text = serde_json::to_string(&closed).unwrap();
    assert_eq!(serde_json::from_str::<Relation>(&text).unwrap(), closed);
}

/// Storage is sized by the largest id, so an id read from a file is bounded
/// before anything is allocated for it.
#[test]
fn deserialize_rejects_out_of_bound_ids_and_inconsistent_len() {
    let max = Relation::MAX_DESERIALIZED_ID;
    let at_bound = format!(r#"{{"edges":{{"{max}":[{max}]}},"len":1}}"#);
    let r: Relation = serde_json::from_str(&at_bound).unwrap();
    assert!(r.contains(EventId(max), EventId(max)));

    let beyond = max + 1;
    for text in [
        format!(r#"{{"edges":{{"{beyond}":[0]}},"len":1}}"#),
        format!(r#"{{"edges":{{"0":[{beyond}]}},"len":1}}"#),
        r#"{"edges":{"0":[4294967295]},"len":1}"#.to_string(),
        r#"{"edges":{"4294967296":[0]},"len":1}"#.to_string(),
    ] {
        let err = serde_json::from_str::<Relation>(&text).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the supported maximum")
                || err.to_string().contains("out of range"),
            "{text}: {err}"
        );
    }
    for text in [
        r#"{"edges":{"0":[1,2]},"len":3}"#,
        r#"{"edges":{"0":[1,2]}}"#,
        r#"{"edges":[[0,1]],"len":1}"#,
        r#"{"len":0}"#,
        r#"[]"#,
    ] {
        assert!(serde_json::from_str::<Relation>(text).is_err(), "{text}");
    }
    assert!(Relation::from_value(&serde::Value::Null).is_err());
}
