//! Criterion bench: simulator throughput (one iteration of a random test).
//!
//! Together with the checker bench this reproduces the feasibility argument of
//! §5.2.1: test-run execution dominates, checking stays a modest fraction, and
//! the host-assisted reset keeps per-iteration overhead small.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcversi_core::lowering::lower;
use mcversi_sim::{BugConfig, ProtocolKind, System, SystemConfig};
use mcversi_testgen::{RandomTestGenerator, TestGenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    for protocol in [ProtocolKind::Mesi, ProtocolKind::TsoCc] {
        for &ops in &[64usize, 256] {
            let system_cfg = SystemConfig::small(protocol);
            let params = TestGenParams::small()
                .with_threads(system_cfg.num_cores)
                .with_test_size(ops)
                .with_test_memory(1024);
            let test = RandomTestGenerator::new(params).generate(&mut StdRng::seed_from_u64(5));
            let program = lower(&test);
            let label = format!("{}-{}ops", protocol.name(), ops);
            group.bench_with_input(
                BenchmarkId::new("iteration", label),
                &program,
                |bench, program| {
                    let mut system = System::new(system_cfg.clone(), BugConfig::none(), 11);
                    bench.iter(|| {
                        // Note: under extreme contention a rare iteration can
                        // exceed its cycle budget (ROADMAP.md, silent-baseline
                        // item); the bench measures throughput and does not
                        // assert on the outcome.
                        let outcome = system.run_iteration(program);
                        outcome.cycles
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
