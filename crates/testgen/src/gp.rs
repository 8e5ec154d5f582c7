//! The steady-state genetic-programming engine.
//!
//! McVerSi-ALL and McVerSi-Std.XO both use a steady-state GA with
//! tournament selection and a delete-oldest replacement strategy (paper
//! §5.2.1, following Vavak & Fogarty's result that steady-state GAs outperform
//! generational ones in non-stationary environments).  The engine is driven
//! externally: [`GpEngine::propose`] yields the next test to evaluate (an
//! unevaluated member of the initial population, or a freshly created child),
//! and [`GpEngine::report`] feeds back the evaluation (fitness plus the NDT
//! analysis whose fit addresses the selective crossover needs).
//!
//! The fitness itself is computed by the verification framework (coverage for
//! McVerSi-ALL; an equal-weight combination of coverage and normalised NDT for
//! McVerSi-Std.XO, whose crossover cannot exploit the fit-address information).

use crate::crossover::{selective_crossover_mutate, single_point_crossover_mutate};
use crate::ndt::NdtAnalysis;
use crate::params::TestGenParams;
use crate::random::RandomTestGenerator;
use crate::test::Test;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Which crossover operator the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossoverMode {
    /// The paper's selective crossover (Algorithm 1) — McVerSi-ALL.
    Selective,
    /// Conventional single-point crossover — McVerSi-Std.XO.
    SinglePoint,
}

/// Identifier of a test managed by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TestId(pub u64);

impl fmt::Display for TestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The result of evaluating one test-run, fed back to the engine.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The scalar fitness (coverage-based; see the framework crate).
    pub fitness: f64,
    /// The non-determinism analysis of the test-run.
    pub analysis: NdtAnalysis,
}

#[derive(Debug)]
struct Individual {
    test: Test,
    fitness: Option<f64>,
    analysis: NdtAnalysis,
    birth: u64,
}

/// The steady-state GP engine.
#[derive(Debug)]
pub struct GpEngine {
    params: TestGenParams,
    mode: CrossoverMode,
    generator: RandomTestGenerator,
    population: BTreeMap<TestId, Individual>,
    pending: BTreeMap<TestId, Individual>,
    next_id: u64,
    birth_counter: u64,
    children_created: u64,
}

impl GpEngine {
    /// Creates an engine with a freshly generated random initial population.
    pub fn new<R: Rng>(params: TestGenParams, mode: CrossoverMode, rng: &mut R) -> Self {
        let generator = RandomTestGenerator::new(params.clone());
        let mut engine = GpEngine {
            mode,
            generator,
            population: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_id: 0,
            birth_counter: 0,
            children_created: 0,
            params,
        };
        for _ in 0..engine.params.population_size {
            let test = engine.generator.generate(rng);
            engine.insert_population_member(test);
        }
        engine
    }

    fn alloc_id(&mut self) -> TestId {
        let id = TestId(self.next_id);
        self.next_id += 1;
        id
    }

    fn insert_population_member(&mut self, test: Test) -> TestId {
        let id = self.alloc_id();
        self.birth_counter += 1;
        self.population.insert(
            id,
            Individual {
                test,
                fitness: None,
                analysis: NdtAnalysis::empty(),
                birth: self.birth_counter,
            },
        );
        id
    }

    /// The engine's parameters.
    pub fn params(&self) -> &TestGenParams {
        &self.params
    }

    /// The crossover mode in use.
    pub fn mode(&self) -> CrossoverMode {
        self.mode
    }

    /// Number of individuals currently in the population.
    pub fn population_size(&self) -> usize {
        self.population.len()
    }

    /// Number of children created by crossover so far.
    pub fn children_created(&self) -> u64 {
        self.children_created
    }

    /// The mean NDT over evaluated individuals (used for the §6.1 analysis of
    /// how the population's non-determinism evolves).
    pub fn mean_ndt(&self) -> f64 {
        let evaluated: Vec<f64> = self
            .population
            .values()
            .filter(|i| i.fitness.is_some())
            .map(|i| i.analysis.ndt)
            .collect();
        if evaluated.is_empty() {
            0.0
        } else {
            evaluated.iter().sum::<f64>() / evaluated.len() as f64
        }
    }

    /// Selects one parent by tournament selection over evaluated individuals.
    fn tournament<R: Rng>(&self, rng: &mut R) -> TestId {
        let evaluated: Vec<TestId> = self
            .population
            .iter()
            .filter(|(_, i)| i.fitness.is_some())
            .map(|(&id, _)| id)
            .collect();
        assert!(
            !evaluated.is_empty(),
            "tournament requires evaluated individuals"
        );
        let mut best: Option<(TestId, f64)> = None;
        for _ in 0..self.params.tournament_size.max(1) {
            let id = evaluated[rng.gen_range(0..evaluated.len())];
            let fitness = self.population[&id].fitness.expect("evaluated");
            if best.is_none_or(|(_, bf)| fitness > bf) {
                best = Some((id, fitness));
            }
        }
        best.expect("at least one candidate").0
    }

    /// Returns the next test to evaluate.
    ///
    /// While unevaluated members of the initial population remain, those are
    /// returned first; afterwards each call breeds a new child from two
    /// tournament-selected parents.
    pub fn propose<R: Rng>(&mut self, rng: &mut R) -> (TestId, Test) {
        if let Some((&id, ind)) = self.population.iter().find(|(_, i)| i.fitness.is_none()) {
            return (id, ind.test.clone());
        }
        // Breed a child.
        let p1 = self.tournament(rng);
        let p2 = self.tournament(rng);
        let parent1 = &self.population[&p1];
        let parent2 = &self.population[&p2];
        let child = if rng.gen_range(0.0..1.0) < self.params.crossover_probability {
            match self.mode {
                CrossoverMode::Selective => selective_crossover_mutate(
                    &parent1.test,
                    &parent2.test,
                    &parent1.analysis,
                    &parent2.analysis,
                    &self.params,
                    rng,
                ),
                CrossoverMode::SinglePoint => {
                    single_point_crossover_mutate(&parent1.test, &parent2.test, &self.params, rng)
                }
            }
        } else {
            parent1.test.clone()
        };
        self.children_created += 1;
        let id = self.alloc_id();
        self.birth_counter += 1;
        self.pending.insert(
            id,
            Individual {
                test: child.clone(),
                fitness: None,
                analysis: NdtAnalysis::empty(),
                birth: self.birth_counter,
            },
        );
        (id, child)
    }

    /// Feeds back the evaluation of a previously proposed test.
    ///
    /// Children enter the population using the delete-oldest replacement
    /// strategy; unknown ids are ignored (e.g. stale reports after a restart).
    pub fn report(&mut self, id: TestId, evaluation: Evaluation) {
        if let Some(ind) = self.population.get_mut(&id) {
            ind.fitness = Some(evaluation.fitness);
            ind.analysis = evaluation.analysis;
            return;
        }
        if let Some(mut ind) = self.pending.remove(&id) {
            ind.fitness = Some(evaluation.fitness);
            ind.analysis = evaluation.analysis;
            self.population.insert(id, ind);
            // Delete-oldest replacement keeps the population size constant.
            while self.population.len() > self.params.population_size {
                let oldest = self
                    .population
                    .iter()
                    .min_by_key(|(_, i)| i.birth)
                    .map(|(&id, _)| id)
                    .expect("population non-empty");
                self.population.remove(&oldest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eval(fitness: f64, ndt: f64) -> Evaluation {
        let mut analysis = NdtAnalysis::empty();
        analysis.ndt = ndt;
        Evaluation { fitness, analysis }
    }

    /// The best fitness in the population, if any individual has been
    /// evaluated.
    fn best_fitness(engine: &GpEngine) -> Option<f64> {
        let fitnesses = engine.population.values().filter_map(|i| i.fitness);
        fitnesses.reduce(f64::max)
    }

    #[test]
    fn initial_population_is_proposed_before_breeding() {
        let params = TestGenParams::small();
        let mut rng = StdRng::seed_from_u64(1);
        let mut engine = GpEngine::new(params.clone(), CrossoverMode::Selective, &mut rng);
        assert_eq!(engine.population_size(), params.population_size);
        assert_eq!(best_fitness(&engine), None);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..params.population_size {
            let (id, test) = engine.propose(&mut rng);
            assert_eq!(test.len(), params.test_size);
            assert!(seen.insert(id) || seen.contains(&id));
            engine.report(id, eval(0.1, 1.0));
        }
        assert_eq!(engine.children_created(), 0);
        // Next proposal must be a bred child.
        let (_, child) = engine.propose(&mut rng);
        assert_eq!(child.len(), params.test_size);
        assert_eq!(engine.children_created(), 1);
    }

    #[test]
    fn children_replace_oldest_and_population_size_is_constant() {
        let params = TestGenParams::small();
        let mut rng = StdRng::seed_from_u64(2);
        let mut engine = GpEngine::new(params.clone(), CrossoverMode::Selective, &mut rng);
        // Evaluate the initial population.
        loop {
            let (id, _) = engine.propose(&mut rng);
            if engine.children_created() > 0 {
                // First child proposed: report it and stop.
                engine.report(id, eval(0.5, 2.0));
                break;
            }
            engine.report(id, eval(0.2, 1.0));
        }
        assert_eq!(engine.population_size(), params.population_size);
        // Keep breeding; the population size must stay constant.
        for i in 0..50 {
            let (id, _) = engine.propose(&mut rng);
            engine.report(id, eval(0.2 + (i as f64) * 0.001, 1.5));
            assert_eq!(engine.population_size(), params.population_size);
        }
        assert!(engine.children_created() >= 50);
        assert!(best_fitness(&engine).unwrap() >= 0.2);
        assert!(engine.mean_ndt() > 0.0);
    }

    #[test]
    fn tournament_prefers_fitter_individuals() {
        let mut params = TestGenParams::small();
        params.population_size = 2;
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = GpEngine::new(params, CrossoverMode::SinglePoint, &mut rng);
        let (id1, _) = engine.propose(&mut rng);
        engine.report(id1, eval(0.9, 1.0));
        let (id2, _) = engine.propose(&mut rng);
        engine.report(id2, eval(0.1, 1.0));
        // With tournament size 2, drawing both candidates must select the
        // fitter one; over many draws the fitter parent dominates.
        let mut picks_of_fitter = 0;
        for _ in 0..200 {
            if engine.tournament(&mut rng) == id1 {
                picks_of_fitter += 1;
            }
        }
        assert!(
            picks_of_fitter > 120,
            "fitter parent picked {picks_of_fitter}/200"
        );
    }

    #[test]
    fn both_modes_produce_valid_children() {
        for mode in [CrossoverMode::Selective, CrossoverMode::SinglePoint] {
            let params = TestGenParams::small();
            let mut rng = StdRng::seed_from_u64(4);
            let mut engine = GpEngine::new(params.clone(), mode, &mut rng);
            for _ in 0..params.population_size {
                let (id, _) = engine.propose(&mut rng);
                engine.report(id, eval(0.3, 1.2));
            }
            let (_, child) = engine.propose(&mut rng);
            assert_eq!(child.len(), params.test_size);
            assert_eq!(child.num_threads(), params.num_threads);
            assert_eq!(engine.mode(), mode);
        }
    }

    #[test]
    fn unknown_report_is_ignored() {
        let params = TestGenParams::small();
        let mut rng = StdRng::seed_from_u64(5);
        let mut engine = GpEngine::new(params.clone(), CrossoverMode::Selective, &mut rng);
        engine.report(TestId(9999), eval(1.0, 1.0));
        assert_eq!(engine.population_size(), params.population_size);
        assert_eq!(best_fitness(&engine), None);
    }
}
