//! Litmus regression: run the x86-TSO litmus suite against both protocols.
//!
//! ```text
//! cargo run --example litmus_regression
//! ```
//!
//! The diy-style suite (38+ shapes) is executed on the correct MESI design and
//! the correct TSO-CC design; every observed execution must satisfy x86-TSO.
//! This is the "does my protocol still implement the promised model?"
//! regression a protocol designer would run after every change.

use mcversi::core::{McVerSiConfig, TestRunner};
use mcversi::mcm::Address;
use mcversi::sim::{BugConfig, ProtocolKind};
use mcversi::testgen::litmus;

fn main() {
    let locations = [Address(0x10_0000), Address(0x10_0040), Address(0x10_0080)];
    let suite = litmus::x86_tso_suite(&locations);
    println!(
        "running {} litmus shapes on both protocols...\n",
        suite.len()
    );

    for protocol in [ProtocolKind::Mesi, ProtocolKind::TsoCc] {
        let mut config = McVerSiConfig::small().with_iterations(2);
        config.system.protocol = protocol;
        let mut runner = TestRunner::new(config, BugConfig::none());
        let mut passed = 0usize;
        for litmus_test in &suite {
            // Repeat the body a few times so consecutive instances overlap in
            // the pipeline, as the diy runner's size parameter does.
            let test = litmus::repeat_test(&litmus_test.test, 6);
            let result = runner.run_test(&test);
            assert!(
                !result.verdict.is_bug(),
                "{} violated TSO on the correct {} design: {:?}",
                litmus_test.name,
                protocol.name(),
                result.verdict
            );
            passed += 1;
        }
        println!(
            "{:<7}: {passed}/{} shapes passed, coverage {:.1}%",
            protocol.name(),
            suite.len(),
            runner.total_coverage() * 100.0
        );
    }
    println!("\nall litmus shapes satisfied x86-TSO on both correct designs");
}
