//! Criterion bench: adaptive-coverage fitness evaluation cost, and the cost
//! of the record every controller tick pays.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mcversi_core::{AdaptiveCoverage, AdaptiveCoverageConfig};
use mcversi_sim::protocol::mesi;
use mcversi_sim::CoverageRecorder;
use std::collections::BTreeSet;

fn bench_coverage(c: &mut Criterion) {
    let universe = mesi::all_transitions();
    let mut recorder = CoverageRecorder::new();
    for (i, t) in universe.iter().enumerate() {
        for _ in 0..(i % 7) {
            recorder.record(*t);
        }
    }
    let run: BTreeSet<_> = universe.iter().copied().step_by(3).collect();

    c.bench_function("adaptive_coverage_fitness", |bench| {
        let mut adaptive = AdaptiveCoverage::new(AdaptiveCoverageConfig::default());
        bench.iter(|| adaptive.fitness(&run, &recorder, &universe));
    });

    c.bench_function("coverage_total_fraction", |bench| {
        bench.iter(|| recorder.total_coverage(&universe));
    });

    // A thousand-odd records per iteration, so that the harness's clock read
    // per iteration does not drown a record: one transition over and over
    // (what a stalled request does), and the whole universe round-robin.
    let mut group = c.benchmark_group("coverage_record");
    let rounds = 12;
    group.bench_function("hit", |bench| {
        let mut recorder = CoverageRecorder::new();
        let transition = universe[universe.len() / 2];
        bench.iter(|| {
            for _ in 0..rounds * universe.len() {
                recorder.record(black_box(transition));
            }
        });
    });
    group.bench_function("rotate", |bench| {
        let mut recorder = CoverageRecorder::new();
        bench.iter(|| {
            for _ in 0..rounds {
                for &transition in &universe {
                    recorder.record(black_box(transition));
                }
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_coverage);
criterion_main!(benches);
