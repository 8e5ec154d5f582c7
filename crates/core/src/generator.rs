//! The four test sources compared in the evaluation (§5.2).
//!
//! * `McVerSi-ALL` — GP with the selective crossover, coverage fitness;
//! * `McVerSi-Std.XO` — GP with standard single-point crossover; its fitness
//!   additionally mixes in the normalised NDT with equal weight (the paper's
//!   modification, since this crossover cannot exploit fit addresses);
//! * `McVerSi-RAND` — pseudo-random tests, no feedback;
//! * `diy-litmus` — the litmus corpus (the enumerated one unless the spec
//!   picks the hand-picked one), ordered for the target model and executed
//!   in a round-robin outer loop, as in §5.2.2.
//!
//! All four share the simulation-specific optimisations (host interface,
//! checker, short tests); only test *generation* differs — exactly the
//! comparison the paper makes.

use crate::runner::TestRunResult;
use mcversi_mcm::ModelKind;
use mcversi_testgen::gp::TestId;
use mcversi_testgen::litmus::{self, LitmusTest};
use mcversi_testgen::{
    CrossoverMode, Evaluation, GpEngine, RandomTestGenerator, Test, TestGenParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which test generation approach to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GeneratorKind {
    /// GP with selective crossover and coverage fitness (the full proposal).
    McVerSiAll,
    /// GP with standard single-point crossover (naive GP baseline).
    McVerSiStdXo,
    /// Pseudo-random test generation (no feedback).
    McVerSiRand,
    /// The diy-style litmus corpus, ordered for the target model.
    DiyLitmus,
}

impl GeneratorKind {
    /// All generator kinds, in the order of the paper's tables.
    pub const ALL: [GeneratorKind; 4] = [
        GeneratorKind::McVerSiAll,
        GeneratorKind::McVerSiStdXo,
        GeneratorKind::McVerSiRand,
        GeneratorKind::DiyLitmus,
    ];

    /// The display name used in the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            GeneratorKind::McVerSiAll => "McVerSi-ALL",
            GeneratorKind::McVerSiStdXo => "McVerSi-Std.XO",
            GeneratorKind::McVerSiRand => "McVerSi-RAND",
            GeneratorKind::DiyLitmus => "diy-litmus",
        }
    }
}

impl fmt::Display for GeneratorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

enum SourceState {
    Gp(Box<GpEngine>),
    Random(RandomTestGenerator),
    Litmus {
        suite: std::sync::Arc<Vec<LitmusTest>>,
        next: usize,
    },
}

impl fmt::Debug for SourceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceState::Gp(_) => f.write_str("Gp(..)"),
            SourceState::Random(_) => f.write_str("Random(..)"),
            SourceState::Litmus { next, suite } => {
                write!(f, "Litmus {{ next: {next}, suite: {} tests }}", suite.len())
            }
        }
    }
}

/// A stream of tests with optional evaluation feedback.
#[derive(Debug)]
pub struct TestSource {
    kind: GeneratorKind,
    state: SourceState,
    rng: StdRng,
    produced: u64,
    litmus_target_size: usize,
}

impl TestSource {
    /// Creates a test source tuned to a target model: the litmus baseline
    /// orders its corpus for the model (see
    /// [`litmus::suite_for_bounded`]; the hand-picked corpus adds the
    /// model's fence/dependency flavours when the model is relaxed).
    pub fn for_model(
        kind: GeneratorKind,
        params: TestGenParams,
        seed: u64,
        model: ModelKind,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = match kind {
            GeneratorKind::McVerSiAll => SourceState::Gp(Box::new(GpEngine::new(
                params.clone(),
                CrossoverMode::Selective,
                &mut rng,
            ))),
            GeneratorKind::McVerSiStdXo => SourceState::Gp(Box::new(GpEngine::new(
                params.clone(),
                CrossoverMode::SinglePoint,
                &mut rng,
            ))),
            GeneratorKind::McVerSiRand => {
                SourceState::Random(RandomTestGenerator::new(params.clone()))
            }
            GeneratorKind::DiyLitmus => {
                // Three well-separated locations from the test memory; the
                // shape set follows the target model and the configured
                // corpus (`params.litmus`, the spec's `litmus` key).
                let slots = params.all_slot_addresses();
                let pick = |i: usize| slots[i * slots.len() / 3].to_owned();
                let locations = [pick(0), pick(1), pick(2)];
                let suite = match params.litmus.bounds() {
                    None => std::sync::Arc::new(litmus::handpicked_suite_for(model, &locations)),
                    // Shared per (model, bounds, locations): samples of one
                    // campaign re-use a single lowered corpus.
                    Some(bounds) => litmus::shared_suite_for_bounded(model, &locations, &bounds),
                };
                SourceState::Litmus { suite, next: 0 }
            }
        };
        TestSource {
            kind,
            state,
            rng,
            produced: 0,
            litmus_target_size: params.test_size,
        }
    }

    /// The generator kind.
    pub fn kind(&self) -> GeneratorKind {
        self.kind
    }

    /// Number of tests produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Mean NDT of the GP population (0 for stateless sources); used for the
    /// §6.1 analysis of how test suitability evolves.
    pub fn population_mean_ndt(&self) -> f64 {
        match &self.state {
            SourceState::Gp(engine) => engine.mean_ndt(),
            _ => 0.0,
        }
    }

    /// Produces the next test to run.  The returned name is the litmus-test
    /// name where applicable, and the id must be passed back to
    /// [`feedback`](Self::feedback) for the GP-based sources.
    pub fn next_test(&mut self) -> (Option<TestId>, Test, Option<String>) {
        self.produced += 1;
        match &mut self.state {
            SourceState::Gp(engine) => {
                let (id, test) = engine.propose(&mut self.rng);
                (Some(id), test, None)
            }
            SourceState::Random(gen) => (None, gen.generate(&mut self.rng), None),
            SourceState::Litmus { suite, next } => {
                let t = &suite[*next % suite.len()];
                *next += 1;
                // Scale the short shape up to roughly the configured test size
                // by repeating its body, mirroring diy's in-test iteration
                // count (its `-s` parameter).
                let repeat = (self.litmus_target_size / t.test.len().max(1)).max(1);
                (
                    None,
                    litmus::repeat_test(&t.test, repeat),
                    Some(t.name.clone()),
                )
            }
        }
    }

    /// Feeds back the result of running a previously produced test.
    ///
    /// For `McVerSi-ALL` the fitness is the adaptive coverage; for
    /// `McVerSi-Std.XO` it is the equal-weight mix of coverage and normalised
    /// NDT; the stateless sources ignore feedback.
    pub fn feedback(&mut self, id: Option<TestId>, result: &TestRunResult) {
        let SourceState::Gp(engine) = &mut self.state else {
            return;
        };
        let Some(id) = id else { return };
        let fitness = match self.kind {
            GeneratorKind::McVerSiStdXo => {
                // Equal weighting of coverage and normalised NDT (§5.2.1).
                let norm_ndt = ((result.analysis.ndt - 1.0).max(0.0) / 3.0).min(1.0);
                0.5 * result.fitness + 0.5 * norm_ndt
            }
            _ => result.fitness,
        };
        engine.report(
            id,
            Evaluation {
                fitness,
                analysis: result.analysis.clone(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunVerdict;
    use mcversi_mcm::Address;
    use mcversi_testgen::{EnumerationBounds, NdtAnalysis};
    use std::collections::BTreeSet;

    fn dummy_result(fitness: f64, ndt: f64) -> TestRunResult {
        let mut analysis = NdtAnalysis::empty();
        analysis.ndt = ndt;
        TestRunResult {
            verdict: RunVerdict::Passed,
            fitness,
            analysis,
            covered: BTreeSet::new(),
            iterations_run: 1,
            cycles: 100,
            retired_ops: 10,
        }
    }

    #[test]
    fn names_and_statefulness() {
        assert_eq!(GeneratorKind::McVerSiAll.paper_name(), "McVerSi-ALL");
        assert_eq!(GeneratorKind::DiyLitmus.paper_name(), "diy-litmus");
        assert_eq!(GeneratorKind::ALL.len(), 4);
    }

    #[test]
    fn every_source_produces_tests_of_the_right_shape() {
        let params = TestGenParams::small();
        for kind in GeneratorKind::ALL {
            let mut source = TestSource::for_model(kind, params.clone(), 7, ModelKind::Tso);
            for _ in 0..3 {
                let (id, test, name) = source.next_test();
                assert!(test.num_threads() <= params.num_threads.max(4));
                assert!(!test.is_empty());
                match kind {
                    GeneratorKind::McVerSiAll | GeneratorKind::McVerSiStdXo => {
                        assert!(id.is_some());
                        assert!(name.is_none());
                        assert_eq!(test.len(), params.test_size);
                    }
                    GeneratorKind::McVerSiRand => {
                        assert!(id.is_none());
                        assert_eq!(test.len(), params.test_size);
                    }
                    GeneratorKind::DiyLitmus => {
                        assert!(id.is_none());
                        assert!(name.is_some());
                    }
                }
                source.feedback(id, &dummy_result(0.4, 1.5));
            }
            assert_eq!(source.produced(), 3);
            assert_eq!(source.kind(), kind);
        }
    }

    #[test]
    fn litmus_source_cycles_through_the_suite() {
        let params = TestGenParams::small();
        let mut source = TestSource::for_model(GeneratorKind::DiyLitmus, params, 1, ModelKind::Tso);
        let suite_len = litmus::suite_for_bounded(
            ModelKind::Tso,
            &[Address(0x10_0000), Address(0x10_0040), Address(0x10_0080)],
            &EnumerationBounds::default(),
        )
        .len();
        let mut names = Vec::new();
        for _ in 0..suite_len + 2 {
            let (_, _, name) = source.next_test();
            names.push(name.unwrap());
        }
        // After exhausting the suite it wraps around (the paper's outer loop).
        assert_eq!(names[0], names[suite_len]);
        assert_eq!(names[1], names[suite_len + 1]);
    }

    #[test]
    fn litmus_source_honours_the_corpus_axis() {
        use mcversi_testgen::LitmusCorpus;
        let mut handpicked = TestGenParams::small();
        handpicked.litmus = LitmusCorpus::Handpicked;
        let mut source =
            TestSource::for_model(GeneratorKind::DiyLitmus, handpicked, 1, ModelKind::Tso);
        let (_, _, name) = source.next_test();
        // The hand-picked x86 suite leads with the classic SB shape …
        assert_eq!(name.as_deref(), Some("SB"));

        let mut toy = TestGenParams::small();
        toy.litmus = LitmusCorpus::Enumerated {
            max_threads: 2,
            max_edges: 4,
        };
        let mut source = TestSource::for_model(GeneratorKind::DiyLitmus, toy, 1, ModelKind::Tso);
        let (_, _, name) = source.next_test();
        // … while the enumerated suites lead with the coherence anchors.
        assert_eq!(name.as_deref(), Some("CoRR"));
    }

    #[test]
    fn gp_sources_accept_feedback_and_keep_breeding() {
        let params = TestGenParams::small();
        for kind in [GeneratorKind::McVerSiAll, GeneratorKind::McVerSiStdXo] {
            let mut source = TestSource::for_model(kind, params.clone(), 3, ModelKind::Tso);
            for i in 0..params.population_size + 10 {
                let (id, _test, _) = source.next_test();
                source.feedback(
                    id,
                    &dummy_result(0.1 + (i as f64) * 0.01, 1.0 + i as f64 * 0.1),
                );
            }
            assert!(source.population_mean_ndt() > 0.0);
        }
    }
}
