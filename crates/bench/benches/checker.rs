//! Bench: what a test-run pays the axiomatic checker, beyond the per-check
//! cost the benchmark records as `mcm.check_us`.
//!
//! `four_iterations` builds and checks four executions of one program in
//! turn, on a litmus-shaped execution with fences, dependencies and RMWs (the
//! shape of the `litmus-mesi` benchmark workload, where the check is most of
//! the wall): `shared` over one static part, as the simulator's observer
//! builds them (the static orders are derived by the first check and reused
//! by the other three), `private` each over a static part of its own (derived
//! four times, as before the static part existed).  Every case asserts its
//! verdict, so a bench cannot get faster by checking less.

use mcversi_bench::timing::bench;
use mcversi_mcm::checker::Checker;
use mcversi_mcm::execution::{CandidateExecution, ExecutionBuilder};
use mcversi_mcm::program::StaticPart;
use mcversi_mcm::{Address, DepKind, EventId, FenceKind, ModelKind, ProcessorId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Builds a litmus-shaped execution: `threads` threads of `ops_per_thread`
/// instructions over a handful of locations — plain and dependency-carrying
/// reads and writes, RMWs and fences of every kind — interleaved one
/// instruction at a time against a single copy of memory, so the execution is
/// valid under every model and the checker evaluates all of its axioms.
fn build_litmus_shaped(threads: u32, ops_per_thread: u32) -> CandidateExecution {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = ExecutionBuilder::new();
    let mut latest: Vec<Option<(EventId, Value)>> = vec![None; 8];
    let mut last_load: Vec<Option<EventId>> = vec![None; threads as usize];
    let mut remaining = vec![ops_per_thread; threads as usize];
    let mut next_value = 1u64;
    while remaining.iter().any(|&n| n > 0) {
        let t = rng.gen_range(0..threads) as usize;
        if remaining[t] == 0 {
            continue;
        }
        remaining[t] -= 1;
        let pid = ProcessorId(t as u32);
        let loc = rng.gen_range(0..latest.len());
        let addr = Address(0x1000 + loc as u64 * 8);
        let (is_read, is_write) = match rng.gen_range(0..100u32) {
            0..=37 => (true, false),
            38..=69 => (false, true),
            70..=79 => (true, true),
            _ => {
                b.fence(pid, FenceKind::ALL[rng.gen_range(0..FenceKind::ALL.len())]);
                continue;
            }
        };
        let carries_dep = rng.gen_bool(0.3);
        let (read, write) = match (is_read, is_write) {
            (true, true) => {
                let (r, w) = b.rmw(pid, addr, Value(0), Value(next_value));
                (Some(r), Some(w))
            }
            (true, false) => (Some(b.read(pid, addr, Value(0))), None),
            _ => (None, Some(b.write(pid, addr, Value(next_value)))),
        };
        if let (false, true, Some(src)) = (is_read && is_write, carries_dep, last_load[t]) {
            match (read, write) {
                (Some(r), _) => b.dependency(DepKind::Addr, src, r),
                (_, Some(w)) => b.dependency(DepKind::Data, src, w),
                _ => {}
            }
        }
        if let Some(r) = read {
            match latest[loc] {
                Some((w, v)) => {
                    b.set_event_value(r, v);
                    b.reads_from(w, r);
                }
                None => b.reads_from_initial(r),
            }
            last_load[t] = (!is_write).then_some(r);
        }
        if let Some(w) = write {
            match latest[loc] {
                Some((prev, _)) => b.coherence(prev, w),
                None => b.coherence_after_initial(w),
            }
            latest[loc] = Some((w, Value(next_value)));
            next_value += 1;
        }
    }
    b.build()
}

fn main() {
    let exec = build_litmus_shaped(4, 64);
    let checker = Checker::new(ModelKind::Armish.instance());
    // The program of `exec` as a static part, and `exec`'s values and
    // conflict orders replayed into a builder over it.
    let program = || {
        Arc::new(StaticPart::new(
            exec.events().to_vec(),
            exec.po().clone(),
            exec.deps().clone(),
        ))
    };
    let iteration = |program: &Arc<StaticPart>| {
        let mut b = ExecutionBuilder::over(program);
        for event in exec.events() {
            b.set_event_value(event.id, event.value);
        }
        for (w, r) in exec.rf().iter() {
            b.reads_from(w, r);
        }
        for (before, after) in exec.co_observed().iter() {
            b.coherence(before, after);
        }
        b.build()
    };
    for (name, share) in [("shared", true), ("private", false)] {
        bench(&format!("checker/four_iterations/{name}"), || {
            let shared = program();
            for _ in 0..4 {
                let built = match share {
                    true => iteration(&shared),
                    false => iteration(&program()),
                };
                assert!(checker.check(&built).is_valid());
            }
        });
    }
}
