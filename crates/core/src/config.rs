//! Top-level framework configuration.

use crate::coverage::AdaptiveCoverageConfig;
use mcversi_mcm::ModelKind;
use mcversi_sim::SystemConfig;
use mcversi_testgen::TestGenParams;
use serde::{Deserialize, Serialize};

/// Configuration of one McVerSi verification run: the simulated system, the
/// test generation parameters, the adaptive-coverage fitness parameters and
/// the target consistency model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McVerSiConfig {
    /// The simulated system (paper Table 2).
    pub system: SystemConfig,
    /// Test generation and GP parameters (paper Table 3).
    pub testgen: TestGenParams,
    /// Adaptive coverage fitness parameters (paper §3.2).
    pub adaptive: AdaptiveCoverageConfig,
    /// The target memory consistency model the checker verifies against
    /// (x86-TSO in the paper's evaluation; the relaxed models enable
    /// cross-model campaigns).
    pub model: ModelKind,
    /// RNG seed (each sample of an experiment uses a different seed for both
    /// simulation and test generation, as in §5.1).
    pub seed: u64,
}

impl McVerSiConfig {
    /// The paper's configuration: 8-core system, 1k-operation tests, the given
    /// test memory size.
    pub fn paper_default(test_memory_bytes: u64) -> Self {
        let system = SystemConfig::paper_default();
        let testgen =
            TestGenParams::paper_default(test_memory_bytes).with_threads(system.num_cores);
        McVerSiConfig {
            system,
            testgen,
            adaptive: AdaptiveCoverageConfig::default(),
            model: ModelKind::Tso,
            seed: 1,
        }
    }

    /// A scaled-down configuration suitable for unit tests, examples and CI:
    /// 4 cores, small caches, short tests.  The *structure* of the flow is
    /// identical to the paper configuration; only sizes and budgets shrink.
    pub fn small() -> Self {
        let system = SystemConfig::small(mcversi_sim::ProtocolKind::Mesi);
        let testgen = TestGenParams::small().with_threads(system.num_cores);
        McVerSiConfig {
            system,
            testgen,
            adaptive: AdaptiveCoverageConfig::default(),
            model: ModelKind::Tso,
            seed: 1,
        }
    }

    /// Retargets the configuration at a consistency model: a default bias
    /// becomes the model's ([`mcversi_testgen::OperationBias::for_model`],
    /// the policy [`crate::ScenarioSpec::testgen`] follows too), while a
    /// bias the caller customised — one equal to neither default — is never
    /// touched.
    ///
    /// This is *not* a sweep-cell builder (the deleted
    /// `with_model`/`with_core_strength`/`with_protocol` shims were; cells
    /// are described declaratively with [`crate::ScenarioSpec`]); it exists
    /// for in-process retargeting of an existing configuration, e.g. in
    /// differential tests.
    pub fn retarget(mut self, model: ModelKind) -> Self {
        use mcversi_testgen::OperationBias;
        let defaults = [
            OperationBias::paper_default(),
            OperationBias::relaxed_default(),
        ];
        if defaults.contains(&self.testgen.bias) {
            self.testgen.bias = OperationBias::for_model(model);
        }
        self.model = model;
        self
    }

    /// Replaces the RNG seed, returning a modified copy.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the test size, returning a modified copy.
    pub fn with_test_size(mut self, size: usize) -> Self {
        self.testgen.test_size = size;
        self
    }

    /// Replaces the per-test-run iteration count, returning a modified copy.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.testgen.iterations = iterations;
        self
    }
}

impl Default for McVerSiConfig {
    fn default() -> Self {
        McVerSiConfig::paper_default(8 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_sim::ProtocolKind;

    #[test]
    fn paper_default_wires_thread_count_to_core_count() {
        let cfg = McVerSiConfig::paper_default(1024);
        assert_eq!(cfg.testgen.num_threads, cfg.system.num_cores);
        assert_eq!(cfg.testgen.test_memory_bytes, 1024);
    }

    #[test]
    fn retarget_bias_swap_is_symmetric() {
        use mcversi_mcm::ModelKind;
        use mcversi_testgen::OperationBias;
        let cfg = McVerSiConfig::small().retarget(ModelKind::Armish);
        assert_eq!(cfg.testgen.bias, OperationBias::relaxed_default());
        let back = cfg.retarget(ModelKind::Tso);
        assert_eq!(
            back.testgen.bias,
            OperationBias::paper_default(),
            "retargeting to TSO must restore the Table 3 mix"
        );
        // A customised bias is never touched in either direction.
        let mut custom = McVerSiConfig::small();
        custom.testgen.bias.read = 60;
        let custom = custom.retarget(ModelKind::Rmo).retarget(ModelKind::Sc);
        assert_eq!(custom.testgen.bias.read, 60);
    }

    #[test]
    fn builders_modify_copies() {
        let mut cfg = McVerSiConfig::small()
            .with_seed(42)
            .with_test_size(64)
            .with_iterations(3);
        cfg.system.protocol = ProtocolKind::TsoCc;
        assert_eq!(cfg.system.protocol, ProtocolKind::TsoCc);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.testgen.test_size, 64);
        assert_eq!(cfg.testgen.iterations, 3);
    }
}
