//! Bench: adaptive-coverage fitness evaluation cost, and the cost
//! of the record every controller tick pays.

use mcversi_bench::timing::bench;
use mcversi_core::{AdaptiveCoverage, AdaptiveCoverageConfig};
use mcversi_sim::protocol::mesi;
use mcversi_sim::CoverageRecorder;
use std::collections::BTreeSet;
use std::hint::black_box;

fn main() {
    let universe = mesi::all_transitions();
    let mut recorder = CoverageRecorder::new();
    for (i, t) in universe.iter().enumerate() {
        for _ in 0..(i % 7) {
            recorder.record(*t);
        }
    }
    let run: BTreeSet<_> = universe.iter().copied().step_by(3).collect();

    let mut adaptive = AdaptiveCoverage::new(AdaptiveCoverageConfig::default());
    bench("adaptive_coverage_fitness", || {
        adaptive.fitness(&run, &recorder, &universe)
    });
    bench("coverage_total_fraction", || {
        recorder.total_coverage(&universe)
    });

    // A thousand-odd records per iteration, so that the loop's clock read per
    // iteration does not drown a record: one transition over and over (what
    // a stalled request does), and the whole universe round-robin.
    let rounds = 12;
    let mut recorder = CoverageRecorder::new();
    let transition = universe[universe.len() / 2];
    bench("coverage_record/hit", || {
        for _ in 0..rounds * universe.len() {
            recorder.record(black_box(transition));
        }
    });
    let mut recorder = CoverageRecorder::new();
    bench("coverage_record/rotate", || {
        for _ in 0..rounds {
            for &transition in &universe {
                recorder.record(black_box(transition));
            }
        }
    });
}
