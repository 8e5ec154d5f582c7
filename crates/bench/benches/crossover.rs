//! Bench: selective vs. single-point crossover cost.
//!
//! Crossover runs once per test-run in the GP loop, so its cost must be
//! negligible against simulation; this bench confirms that for 1k-gene tests.

use mcversi_bench::timing::bench;
use mcversi_testgen::ndt::NdtAnalysis;
use mcversi_testgen::{
    selective_crossover_mutate, single_point_crossover_mutate, RandomTestGenerator, TestGenParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    for &size in &[100usize, 1000] {
        let params = TestGenParams::paper_default(8 * 1024).with_test_size(size);
        let gen = RandomTestGenerator::new(params.clone());
        let t1 = gen.generate(&mut StdRng::seed_from_u64(1));
        let t2 = gen.generate(&mut StdRng::seed_from_u64(2));
        let mut a1 = NdtAnalysis::empty();
        a1.ndt = 2.0;
        a1.fitaddrs = t1.addresses().into_iter().take(8).collect();
        let mut a2 = NdtAnalysis::empty();
        a2.ndt = 1.5;
        a2.fitaddrs = t2.addresses().into_iter().take(8).collect();

        let mut rng = StdRng::seed_from_u64(3);
        bench(&format!("crossover/selective/{size}"), || {
            selective_crossover_mutate(&t1, &t2, &a1, &a2, &params, &mut rng)
        });
        let mut rng = StdRng::seed_from_u64(4);
        bench(&format!("crossover/single_point/{size}"), || {
            single_point_crossover_mutate(&t1, &t2, &params, &mut rng)
        });
    }
}
