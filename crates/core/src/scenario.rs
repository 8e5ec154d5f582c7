//! Declarative campaign scenarios: [`ScenarioSpec`], [`ScenarioGrid`] and the
//! consolidated `MCVERSI_*` environment parsing.
//!
//! A [`ScenarioSpec`] is a complete, serializable description of *one cell*
//! of a verification sweep: which generator attacks which bug, under which
//! target model, on which simulated system (core count, pipeline strength,
//! protocol), with which budgets, corpus and seeds.  Everything the
//! framework needs to run the cell is derived from the spec
//! ([`ScenarioSpec::mcversi`], [`ScenarioSpec::campaign`]); the old
//! `with_model`/`with_core_strength`/`with_protocol` setter chains across
//! three config layers were deleted after their deprecation window — the
//! spec is the only sweep-cell description.
//!
//! A [`ScenarioGrid`] expands cartesian axes (generator columns × models ×
//! core strengths × protocols × bugs) around a base spec into the cell specs
//! of a whole sweep, with a deterministic per-cell [`SeedPolicy`].  The
//! experiment binaries build their sweeps exclusively through grids.
//!
//! # Environment variables
//!
//! All `MCVERSI_*` parsing lives here (the experiment binaries never read the
//! environment directly).  A cell's fields come from one place, the spec
//! file: scaled-down defaults ([`ScenarioSpec::small`]) keep the whole suite
//! runnable on one machine, `examples/smoke.json` is the CI toy scale and
//! `examples/paper.json` the paper's ([`ScenarioSpec::paper`]).
//!
//! | Variable               | Meaning                                  | Default |
//! |------------------------|------------------------------------------|---------|
//! | `MCVERSI_SPEC`         | path of a JSON [`ScenarioSpec`] used as the base (see `examples/scenario.json`) | unset ([`ScenarioSpec::small`]) |
//! | `MCVERSI_MODELS`       | comma-separated target models, or `all`  | `SC,TSO,ARMish,RMO` |
//! | `MCVERSI_CORES`        | core strengths (`strong`/`relaxed`/`all`), comma-separated | `strong` |
//! | `MCVERSI_JSONL`        | path; streams campaign events there as JSONL ([`crate::sink::JsonlSink`]) | unset |
//! | `MCVERSI_FABRIC`       | worker child processes of the distributed fabric (`0` = run in-process) | unset   |
//! | `MCVERSI_JOURNAL`      | path of the fabric checkpoint journal; an existing journal is resumed | unset   |
//!
//! The variables that used to override single spec fields (`REMOVED_VARS`),
//! and a core count in `MCVERSI_CORES`, are refused by name with the spec
//! key that replaced them.  The fabric's removed fault-injection and retry
//! variables (`REMOVED_FABRIC_VARS`) are refused by name too: a lost worker
//! ends the run, and rerunning with the same `MCVERSI_JOURNAL` resumes it.
//! When `MCVERSI_SPEC` is set, the spec's `model` /
//! `core_strength` become the sweep axes unless `MCVERSI_MODELS` /
//! `MCVERSI_CORES` name their own (see [`grid_from_env`]).

use crate::campaign::CampaignConfig;
use crate::config::McVerSiConfig;
use crate::generator::GeneratorKind;
use crate::runner::CheckingMode;
use mcversi_mcm::ModelKind;
use mcversi_sim::{Bug, CoreStrength, ProtocolKind, SystemConfig};
use mcversi_telemetry as telemetry;
use mcversi_testgen::{LitmusCorpus, OperationBias, TestGenParams};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

/// An error loading or interpreting a scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// A complete, serializable description of one verification-campaign cell.
///
/// The spec is deliberately *scalar*: it names the axes of the paper's
/// evaluation rather than embedding whole config structs, so a JSON spec
/// stays short, diffable and forward-compatible.  [`ScenarioSpec::mcversi`]
/// and [`ScenarioSpec::campaign`] derive the full configuration objects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The test generator under evaluation.
    pub generator: GeneratorKind,
    /// The injected bug, or `None` for a correct-design (coverage) campaign.
    pub bug: Option<Bug>,
    /// The target consistency model the checker verifies against.
    pub model: ModelKind,
    /// Pipeline strength of the simulated cores.
    pub core_strength: CoreStrength,
    /// Number of simulated cores (and test threads).
    pub cores: usize,
    /// Cache coherence protocol (a bug's required protocol still overrides).
    pub protocol: ProtocolKind,
    /// Usable test memory in bytes (the paper evaluates 1 KB and 8 KB).
    pub test_memory_bytes: u64,
    /// Operations per test.
    pub test_size: usize,
    /// Executions per test-run.
    pub iterations: usize,
    /// Samples (seeds) per cell.
    pub samples: usize,
    /// Test-run budget per sample.
    pub max_test_runs: usize,
    /// Wall-clock cap per sample, in seconds.
    pub wall_secs: u64,
    /// Worker threads for sample batches (`0` = one per hardware thread).
    pub parallelism: usize,
    /// Seed of the first sample (sample `i` runs with `base_seed + i`).
    pub base_seed: u64,
    /// Whether the full paper-scale system (Table 2) is the base; otherwise
    /// the scaled-down test system is used.
    pub full: bool,
    /// Litmus corpus of the `diy-litmus` baseline (`None` = the default
    /// enumerated corpus; see [`LitmusCorpus`]).  In JSON, `"Handpicked"` or
    /// `{"Enumerated": {"max_threads": T, "max_edges": E}}` with `T` in
    /// `2..=6` and `E` in `4..=8`.
    pub litmus: Option<LitmusCorpus>,
    /// Telemetry collection (`None` = off; `Some(0)` = final snapshot only;
    /// `Some(n)` = also stream a [`crate::sink::CampaignEvent::Metrics`]
    /// snapshot every `n` test-runs).
    pub metrics: Option<usize>,
    /// Execution checking mode: absent, `null` and `"per_exec"` all mean
    /// [`CheckingMode::PerExec`], the only mode; the removed `"collective"`
    /// and `"vc"` are rejected.  Nothing in the workspace reads the field;
    /// it stays because the benchmark package's workload test reads it.
    pub checking: Option<CheckingMode>,
    /// Optional display label (defaults to the paper's column naming).
    pub label: Option<String>,
}

impl ScenarioSpec {
    /// The scaled-down default cell: the paper's structure at CI-friendly
    /// sizes (the old `Scale::from_env` defaults).
    pub fn small() -> Self {
        ScenarioSpec {
            generator: GeneratorKind::McVerSiRand,
            bug: None,
            model: ModelKind::Tso,
            core_strength: CoreStrength::Strong,
            cores: 4,
            protocol: ProtocolKind::Mesi,
            test_memory_bytes: 8 * 1024,
            test_size: 96,
            iterations: 4,
            samples: 2,
            max_test_runs: 60,
            wall_secs: 120,
            parallelism: 0,
            base_seed: 1,
            full: false,
            litmus: None,
            metrics: None,
            checking: None,
            label: None,
        }
    }

    /// The paper-scale cell (Tables 2 and 3; 24-hour per-sample budget).
    pub fn paper() -> Self {
        ScenarioSpec {
            cores: 8,
            test_size: 1000,
            iterations: 10,
            samples: 10,
            max_test_runs: 2000,
            wall_secs: 24 * 3600,
            full: true,
            ..ScenarioSpec::small()
        }
    }

    // ---- chainable field updates (struct-update syntax works too) ----

    /// Replaces the generator, returning a modified copy.
    pub fn generator(mut self, generator: GeneratorKind) -> Self {
        self.generator = generator;
        self
    }

    /// Replaces the injected bug, returning a modified copy.
    pub fn bug(mut self, bug: Option<Bug>) -> Self {
        self.bug = bug;
        self
    }

    /// Replaces the target model, returning a modified copy.
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Replaces the core pipeline strength, returning a modified copy.
    pub fn core_strength(mut self, strength: CoreStrength) -> Self {
        self.core_strength = strength;
        self
    }

    /// Replaces the protocol, returning a modified copy.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Replaces the test memory size, returning a modified copy.
    pub fn test_memory(mut self, bytes: u64) -> Self {
        self.test_memory_bytes = bytes;
        self
    }

    /// Replaces the base seed, returning a modified copy.
    pub fn seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Replaces the litmus corpus, returning a modified copy.
    pub fn litmus(mut self, corpus: LitmusCorpus) -> Self {
        self.litmus = Some(corpus);
        self
    }

    /// Enables telemetry with the given streaming cadence (`0` = final
    /// snapshot only), returning a modified copy.
    pub fn metrics(mut self, cadence: usize) -> Self {
        self.metrics = Some(cadence);
        self
    }

    /// The effective litmus corpus (the spec's, or the default enumerated
    /// one).
    pub fn litmus_corpus(&self) -> LitmusCorpus {
        self.litmus.unwrap_or_default()
    }

    /// The display label of this cell: the explicit label if set, otherwise
    /// the paper's column naming (`McVerSi-ALL (8KB)`, `diy-litmus`).
    pub fn display_label(&self) -> String {
        if let Some(label) = &self.label {
            return label.clone();
        }
        match self.generator {
            GeneratorKind::DiyLitmus => self.generator.paper_name().to_string(),
            _ => format!(
                "{} ({}KB)",
                self.generator.paper_name(),
                self.test_memory_bytes / 1024
            ),
        }
    }

    /// Derives the simulated-system configuration for this cell.
    pub fn system(&self) -> SystemConfig {
        let mut system = if self.full {
            SystemConfig::paper_default()
        } else {
            SystemConfig::small(self.protocol)
        };
        system.num_cores = self.cores;
        system.protocol = self.protocol;
        system.core_strength = self.core_strength;
        system
    }

    /// Derives the test-generation parameters for this cell.
    ///
    /// The operation bias follows the target model
    /// ([`OperationBias::for_model`]).
    pub fn testgen(&self) -> TestGenParams {
        let mut params = if self.full {
            TestGenParams::paper_default(self.test_memory_bytes)
        } else {
            let mut p = TestGenParams::small();
            p.test_memory_bytes = self.test_memory_bytes;
            p.population_size = 24;
            p
        };
        params.num_threads = self.cores;
        params.test_size = self.test_size;
        params.iterations = self.iterations;
        params.bias = OperationBias::for_model(self.model);
        params.litmus = self.litmus_corpus();
        params
    }

    /// Derives the full framework configuration for this cell.
    pub fn mcversi(&self) -> McVerSiConfig {
        McVerSiConfig {
            system: self.system(),
            testgen: self.testgen(),
            adaptive: Default::default(),
            model: self.model,
            seed: self.base_seed,
        }
    }

    /// Derives the campaign configuration for this cell.
    pub fn campaign(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(
            self.generator,
            self.bug,
            self.mcversi(),
            self.max_test_runs,
            Duration::from_secs(self.wall_secs),
        );
        cfg.parallelism = self.parallelism;
        cfg.metrics = self.metrics;
        cfg
    }

    /// Runs the cell's `samples` samples, streaming events into `sink`, and
    /// returns the results in seed order.
    pub fn run(&self, sink: &mut dyn crate::sink::CampaignSink) -> Vec<crate::CampaignResult> {
        let config = self.campaign();
        let indices: Vec<usize> = (0..self.samples).collect();
        crate::campaign::run_sample_subset(&config, &indices, self.base_seed, sink)
            .into_iter()
            .map(|outcome| outcome.into_result(&config))
            .collect()
    }

    /// A stable 64-bit identity for this spec as a grid cell: the FNV-1a
    /// hash of its canonical JSON rendering.
    ///
    /// The id is derived from the cell's *content* (every spec field,
    /// including `base_seed` and `label`), never from its position in a
    /// grid enumeration, so shard assignment and journal records stay valid
    /// when a grid is re-expanded in a different order or filtered.  Adding
    /// or removing a spec field changes every id: the fabric refuses a
    /// journal written before such a change instead of resuming it.
    pub fn cell_id(&self) -> u64 {
        // FNV-1a, 64-bit: small, dependency-free and stable across platforms.
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in self.to_json().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    // ---- serialization ----

    /// Renders the spec as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }

    /// Parses a spec from JSON (the inverse of [`ScenarioSpec::to_json`]).
    ///
    /// The file is read exactly: an unknown key is refused, and so is a key
    /// of a removed mode unless it is `null`, so a misspelled key or a spec
    /// that asks for such a mode never runs quietly without it.  Enumerated
    /// litmus bounds outside [`LitmusCorpus::parse`]'s range are refused too.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        let invalid = |e: String| SpecError(format!("invalid scenario spec: {e}"));
        let value = serde_json::value_from_str(json).map_err(|e| invalid(e.to_string()))?;
        let known = serde_json::to_value(&Self::small()).expect("spec serialization is infallible");
        for (key, v) in value.as_object().unwrap_or_default() {
            match REMOVED_KEYS.iter().find(|(removed, _)| removed == key) {
                Some((_, instead)) if *v != Value::Null => {
                    return Err(invalid(format!("key \"{key}\" was removed: {instead}")));
                }
                None if known.get(key).is_none() => {
                    return Err(invalid(format!("unknown key \"{key}\"")));
                }
                _ => {}
            }
        }
        let spec: Self = serde_json::from_value(&value).map_err(|e| invalid(e.to_string()))?;
        // `LitmusCorpus::parse` holds the one range check of a bound.
        if let Some(LitmusCorpus::Enumerated {
            max_threads: t,
            max_edges: e,
        }) = spec.litmus
        {
            if LitmusCorpus::parse(&format!("enumerated:{t}x{e}")).is_none() {
                let (max_t, max_e) = (LitmusCorpus::MAX_THREADS, LitmusCorpus::MAX_EDGES);
                return Err(invalid(format!(
                    "litmus bound {t}x{e} is outside 2..={max_t} threads x 4..={max_e} edges"
                )));
            }
        }
        Ok(spec)
    }

    /// Loads a spec from a JSON file.
    pub fn from_json_file(path: &str) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("cannot read scenario spec `{path}`: {e}")))?;
        Self::from_json(&text).map_err(|e| SpecError(format!("{path}: {e}")))
    }

    /// Reads the base spec from the environment: the JSON spec file
    /// `MCVERSI_SPEC` names, or [`ScenarioSpec::small`] when it is unset.
    ///
    /// # Panics
    ///
    /// Panics when `MCVERSI_SPEC` names an unreadable or invalid spec file,
    /// or when a removed variable (or a core count in `MCVERSI_CORES`) is
    /// set — a campaign silently run at the default scale, or one that
    /// expects worker faults to be retried, would be worse than none.
    pub fn from_env() -> Self {
        let lookup = |name: &str| std::env::var(name).ok();
        refuse_removed_vars(lookup).unwrap_or_else(|e| panic!("{e}"));
        lookup("MCVERSI_SPEC").map_or_else(Self::small, |path| {
            Self::from_json_file(&path).unwrap_or_else(|e| panic!("MCVERSI_SPEC: {e}"))
        })
    }
}

/// Spec keys of removed modes, each with what a run does instead.
const REMOVED_KEYS: [(&str, &str); 2] = [
    ("prune", "every generated test is simulated"),
    ("shared_wall_secs", "each sample keeps its own `wall_secs`"),
];

/// Removed environment variables, each with the spec key that replaced it.
const REMOVED_VARS: [(&str, &str); 8] = [
    ("MCVERSI_FULL", "full"),
    ("MCVERSI_SAMPLES", "samples"),
    ("MCVERSI_TEST_RUNS", "max_test_runs"),
    ("MCVERSI_TEST_SIZE", "test_size"),
    ("MCVERSI_ITERATIONS", "iterations"),
    ("MCVERSI_WALL_SECS", "wall_secs"),
    ("MCVERSI_LITMUS", "litmus"),
    ("MCVERSI_METRICS", "metrics"),
];

/// Removed fabric variables: worker fault injection and the re-dispatch
/// budget after a worker loss.
const REMOVED_FABRIC_VARS: [&str; 2] = ["MCVERSI_FABRIC_FAULT", "MCVERSI_FABRIC_RETRIES"];

/// Refuses a set [`REMOVED_FABRIC_VARS`] entry, saying how a lost worker's
/// run resumes, or a set [`REMOVED_VARS`] entry or a core count in
/// `MCVERSI_CORES`, naming the spec key to set instead; `lookup` reads one
/// variable.
fn refuse_removed_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<(), SpecError> {
    let fabric_var = REMOVED_FABRIC_VARS
        .into_iter()
        .find(|var| lookup(var).is_some());
    if let Some(var) = fabric_var {
        return Err(SpecError(format!(
            "{var} was removed: a lost fabric worker now ends the run, and rerunning \
             with the same MCVERSI_JOURNAL resumes it"
        )));
    }
    let cores = lookup("MCVERSI_CORES").unwrap_or_default();
    let count_in_cores = cores
        .split(',')
        .any(|part| part.trim().parse::<usize>().is_ok());
    let removed = REMOVED_VARS
        .into_iter()
        .find(|(var, _)| lookup(var).is_some());
    match removed.or(count_in_cores.then_some(("a core count in MCVERSI_CORES", "cores"))) {
        Some((var, key)) => Err(SpecError(format!(
            "{var} was removed: set \"{key}\" in the spec file MCVERSI_SPEC names \
             (examples/smoke.json is the CI toy scale, examples/paper.json the paper's)"
        ))),
        None => Ok(()),
    }
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec::small()
    }
}

/// How a [`ScenarioGrid`] assigns the base seed of each cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// Every cell keeps the base spec's seed.
    Fixed,
    /// The weighted sum `base + bug·bug_weight + model_idx·model_weight +
    /// core_idx·core_weight` — deterministic, well-separated seeds per cell
    /// (the bug contribution uses the bug's discriminant so it is stable
    /// under axis reordering); every generator column of a cell shares its
    /// seed.
    Strided {
        /// Seed of the first cell.
        base: u64,
        /// Weight of the bug discriminant.
        bug_weight: u64,
        /// Weight of the model axis index.
        model_weight: u64,
        /// Weight of the core-strength axis index.
        core_weight: u64,
    },
}

impl SeedPolicy {
    /// The seed policy of the paper's Table 4 sweep.
    pub fn table4() -> Self {
        SeedPolicy::Strided {
            base: 1000,
            bug_weight: 100,
            model_weight: 10_000,
            core_weight: 100_000,
        }
    }
}

/// One generator column of a sweep: the generator kind, its test-memory size
/// and an optional display label.
pub type GeneratorColumn = (GeneratorKind, u64, Option<String>);

/// A cartesian grid of [`ScenarioSpec`]s around a base spec.
///
/// Axes default to the base spec's single value; each builder method replaces
/// one axis.  [`ScenarioGrid::cells`] expands the product in a fixed order —
/// core strength (outermost), model, protocol, bug, generator (innermost) —
/// so tables render in the order the old hand-rolled loops used.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    base: ScenarioSpec,
    generators: Vec<GeneratorColumn>,
    models: Vec<ModelKind>,
    core_strengths: Vec<CoreStrength>,
    protocols: Vec<ProtocolKind>,
    bugs: Vec<Option<Bug>>,
    seeds: SeedPolicy,
    observable_only: bool,
}

/// Starts a grid around the environment-configured base spec, with the model
/// and core-strength axes taken from `MCVERSI_MODELS` / `MCVERSI_CORES`.
///
/// Explicit variables win; otherwise a `MCVERSI_SPEC`-loaded base
/// contributes its own model / core strength as the (single-valued) axis,
/// and without a spec file the axes fall back to the historical sweep
/// defaults (`SC,TSO,ARMish,RMO` × `strong`).
pub fn grid_from_env() -> ScenarioGrid {
    let base = ScenarioSpec::from_env();
    let (models, strengths) = grid_axes(
        &base,
        std::env::var("MCVERSI_MODELS").ok().as_deref(),
        std::env::var("MCVERSI_CORES").ok().as_deref(),
        std::env::var("MCVERSI_SPEC").is_ok(),
    );
    ScenarioGrid::new(base)
        .models(models)
        .core_strengths(strengths)
}

/// Resolves the model and core-strength axes from the (optional) environment
/// values and the base spec (see [`grid_from_env`] for the precedence).
fn grid_axes(
    base: &ScenarioSpec,
    models_env: Option<&str>,
    cores_env: Option<&str>,
    spec_loaded: bool,
) -> (Vec<ModelKind>, Vec<CoreStrength>) {
    let models = match models_env {
        Some(raw) => parse_models(raw),
        None if spec_loaded => vec![base.model],
        None => parse_models(""),
    };
    let strengths = match cores_env.map(parse_strengths) {
        Some(named) if !named.is_empty() => named,
        _ => vec![base.core_strength],
    };
    (models, strengths)
}

impl ScenarioGrid {
    /// A grid whose every axis is the base spec's single value.
    pub fn new(base: ScenarioSpec) -> Self {
        ScenarioGrid {
            generators: vec![(base.generator, base.test_memory_bytes, base.label.clone())],
            models: vec![base.model],
            core_strengths: vec![base.core_strength],
            protocols: vec![base.protocol],
            bugs: vec![base.bug],
            seeds: SeedPolicy::Fixed,
            observable_only: false,
            base,
        }
    }

    /// The base spec the axes expand around.
    pub fn base(&self) -> &ScenarioSpec {
        &self.base
    }

    /// Replaces the generator axis with labelled `(generator, memory, label)`
    /// columns (the paper's table columns).
    pub fn generator_columns(mut self, columns: impl IntoIterator<Item = GeneratorColumn>) -> Self {
        self.generators = columns.into_iter().collect();
        self
    }

    /// Replaces the model axis.
    pub fn models(mut self, models: impl IntoIterator<Item = ModelKind>) -> Self {
        self.models = models.into_iter().collect();
        self
    }

    /// Replaces the core-strength axis.
    pub fn core_strengths(mut self, strengths: impl IntoIterator<Item = CoreStrength>) -> Self {
        self.core_strengths = strengths.into_iter().collect();
        self
    }

    /// Replaces the protocol axis.
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = ProtocolKind>) -> Self {
        self.protocols = protocols.into_iter().collect();
        self
    }

    /// Replaces the bug axis.
    pub fn bugs(mut self, bugs: impl IntoIterator<Item = Bug>) -> Self {
        self.bugs = bugs.into_iter().map(Some).collect();
        self
    }

    /// Sets the bug axis to the correct design only.
    pub fn correct_design(mut self) -> Self {
        self.bugs = vec![None];
        self
    }

    /// Skips (bug × core strength) cells whose bug is provably unobservable
    /// on that pipeline ([`Bug::required_core`]) — e.g. `LQ+no-TSO`
    /// suppresses a squash the relaxed pipeline does not have.
    pub fn observable_bugs_only(mut self) -> Self {
        self.observable_only = true;
        self
    }

    /// Sets the per-cell seed policy.
    pub fn seed_policy(mut self, seeds: SeedPolicy) -> Self {
        self.seeds = seeds;
        self
    }

    /// The generator-column labels, in axis order.
    pub fn column_labels(&self) -> Vec<String> {
        self.generators
            .iter()
            .map(|(generator, memory, label)| {
                let probe = ScenarioSpec {
                    generator: *generator,
                    test_memory_bytes: *memory,
                    label: label.clone(),
                    ..self.base.clone()
                };
                probe.display_label()
            })
            .collect()
    }

    /// Expands the grid into the cell specs, in sweep order.
    pub fn cells(&self) -> Vec<ScenarioSpec> {
        let mut cells = Vec::new();
        for (core_idx, &core_strength) in self.core_strengths.iter().enumerate() {
            for (model_idx, &model) in self.models.iter().enumerate() {
                for &protocol in &self.protocols {
                    for &bug in &self.bugs {
                        if self.observable_only {
                            if let Some(required) = bug.and_then(mcversi_sim::Bug::required_core) {
                                if required != core_strength {
                                    continue;
                                }
                            }
                        }
                        let base_seed = match self.seeds {
                            SeedPolicy::Fixed => self.base.base_seed,
                            SeedPolicy::Strided {
                                base,
                                bug_weight,
                                model_weight,
                                core_weight,
                            } => base
                                .wrapping_add(bug.map_or(0, |b| b as u64).wrapping_mul(bug_weight))
                                .wrapping_add((model_idx as u64).wrapping_mul(model_weight))
                                .wrapping_add((core_idx as u64).wrapping_mul(core_weight)),
                        };
                        for (generator, memory, label) in &self.generators {
                            cells.push(ScenarioSpec {
                                generator: *generator,
                                bug,
                                model,
                                core_strength,
                                protocol,
                                test_memory_bytes: *memory,
                                base_seed,
                                label: label.clone(),
                                ..self.base.clone()
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

// ---------------------------------------------------------------------------
// Environment parsing
// ---------------------------------------------------------------------------

/// Distinct once-per-process warnings actually emitted (see [`warn_once`]).
static WARNINGS_EMITTED: telemetry::Counter = telemetry::Counter::new("events.warn_once");

/// Emits `message` to stderr at most once per process (keyed by the message
/// text), so per-cell re-parsing of the environment cannot flood a table run
/// with identical warnings.
fn warn_once(message: &str) {
    static SEEN: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let mut seen = SEEN.lock().expect("warning registry lock");
    if seen.insert(message.to_string()) {
        WARNINGS_EMITTED.incr();
        eprintln!("{message}");
    }
}

/// Parses a `MCVERSI_CORES` value: comma-separated pipeline strengths
/// (`strong`/`relaxed`, or `all`), deduplicated in order.  Unknown entries
/// are skipped with a once-per-process warning; an empty result means the
/// value named no strength.
fn parse_strengths(raw: &str) -> Vec<CoreStrength> {
    let mut strengths = Vec::new();
    for part in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let named = if part.eq_ignore_ascii_case("all") {
            CoreStrength::ALL.to_vec()
        } else if let Some(strength) = CoreStrength::parse(part) {
            vec![strength]
        } else {
            warn_once(&format!(
                "warning: MCVERSI_CORES: unknown entry '{part}' skipped"
            ));
            Vec::new()
        };
        for strength in named {
            if !strengths.contains(&strength) {
                strengths.push(strength);
            }
        }
    }
    strengths
}

/// Parses a `MCVERSI_MODELS`-style value: a comma-separated model list, or
/// `all`.  Unknown names are skipped with a once-per-process warning; an
/// empty result falls back to the default four-architecture comparison.
pub fn parse_models(raw: &str) -> Vec<ModelKind> {
    let default = vec![
        ModelKind::Sc,
        ModelKind::Tso,
        ModelKind::Armish,
        ModelKind::Rmo,
    ];
    if raw.trim().eq_ignore_ascii_case("all") {
        return ModelKind::ALL.to_vec();
    }
    let mut models = Vec::new();
    for part in raw.split(',').filter(|p| !p.trim().is_empty()) {
        match ModelKind::parse(part) {
            Some(model) if !models.contains(&model) => models.push(model),
            Some(_) => {}
            None => warn_once(&format!(
                "warning: MCVERSI_MODELS: unknown model '{part}' skipped"
            )),
        }
    }
    if models.is_empty() {
        default
    } else {
        models
    }
}

/// Distributed-fabric settings read from the environment (see
/// [`fabric_from_env`]).  This is plain data: the fabric crate interprets
/// it, `crates/core` only centralises the parsing (xtask rule 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricEnv {
    /// Worker child processes (`MCVERSI_FABRIC`; `0`/unset = in-process).
    pub workers: usize,
    /// Journal path for checkpoint/resume (`MCVERSI_JOURNAL`).
    pub journal: Option<String>,
}

/// Reads the `MCVERSI_FABRIC` / `MCVERSI_JOURNAL` variables; `None` unless
/// `MCVERSI_FABRIC` names a positive worker count.
pub fn fabric_from_env() -> Option<FabricEnv> {
    let raw = std::env::var("MCVERSI_FABRIC").ok()?;
    let workers = match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        Ok(_) => return None,
        Err(_) => {
            warn_once(&format!(
                "warning: MCVERSI_FABRIC: not a worker count: '{raw}' ignored"
            ));
            return None;
        }
    };
    Some(FabricEnv {
        workers,
        journal: std::env::var("MCVERSI_JOURNAL").ok(),
    })
}

/// Opens a [`crate::sink::JsonlSink`] on the `MCVERSI_JSONL` path, if set.
pub fn jsonl_sink_from_env() -> Option<crate::sink::JsonlSink<std::fs::File>> {
    let path = std::env::var("MCVERSI_JSONL").ok()?;
    match crate::sink::JsonlSink::create(&path) {
        Ok(sink) => Some(sink),
        Err(e) => {
            warn_once(&format!(
                "warning: MCVERSI_JSONL: cannot open `{path}`: {e}"
            ));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec {
            generator: GeneratorKind::McVerSiAll,
            bug: Some(Bug::SqNoDataDep),
            model: ModelKind::Armish,
            core_strength: CoreStrength::Relaxed,
            label: Some("custom".to_string()),
            ..ScenarioSpec::small()
        };
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("round trip");
        assert_eq!(back, spec);
    }

    /// The keys of the removed prune and batch-shared budget still parse as
    /// `null` (every benchmark workload file carries
    /// `"shared_wall_secs": null`), but any value is refused by name.
    #[test]
    fn removed_keys_parse_as_null_and_are_refused_otherwise() {
        let json = ScenarioSpec::small().to_json();
        let with = |extra: &str| json.replacen('{', &format!("{{\n  {extra},"), 1);
        let nulls = with("\"prune\": null, \"shared_wall_secs\": null");
        assert_eq!(ScenarioSpec::from_json(&nulls), Ok(ScenarioSpec::small()));
        for (extra, key) in [
            ("\"prune\": \"Skip\"", "prune"),
            ("\"shared_wall_secs\": 30", "shared_wall_secs"),
        ] {
            let err = ScenarioSpec::from_json(&with(extra)).unwrap_err();
            assert!(
                err.0.contains(&format!("key \"{key}\" was removed")),
                "{extra}: {err}"
            );
        }
    }

    #[test]
    fn metrics_cadence_threads_into_the_campaign_and_is_optional_in_json() {
        let spec = ScenarioSpec::small().metrics(25);
        assert_eq!(spec.campaign().metrics, Some(25));
        assert_eq!(ScenarioSpec::small().campaign().metrics, None);
        // Spec files written before the field existed (no `metrics` key)
        // still parse, defaulting to telemetry off.
        let json: String = spec
            .to_json()
            .lines()
            .filter(|line| !line.contains("\"metrics\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = ScenarioSpec::from_json(&json).expect("metrics-less spec parses");
        assert_eq!(back.metrics, None);
        assert_eq!(back.campaign().metrics, None);
    }

    /// The `checking` key keeps one legal value: an absent key, `null` and
    /// `"per_exec"` all parse to the default, and the removed modes are
    /// rejected with an error that says so.
    #[test]
    fn checking_key_accepts_only_per_exec() {
        let spec = ScenarioSpec::small();
        let json = spec.to_json();
        assert!(
            json.contains("\"checking\": null"),
            "the key is kept: {json}"
        );
        let with =
            |value: &str| json.replace("\"checking\": null", &format!("\"checking\": {value}"));
        let absent: String = json
            .lines()
            .filter(|line| !line.contains("\"checking\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(ScenarioSpec::from_json(&absent), Ok(spec.clone()));
        assert_eq!(
            ScenarioSpec::from_json(&with("\"per_exec\"")).map(|s| s.checking),
            Ok(Some(CheckingMode::PerExec))
        );
        for removed in ["collective", "vc"] {
            let err = ScenarioSpec::from_json(&with(&format!("\"{removed}\""))).unwrap_err();
            assert!(
                err.0
                    .contains(&format!("checking mode \"{removed}\" was removed")),
                "{removed}: {err}"
            );
        }
    }

    #[test]
    fn from_json_rejects_malformed_specs() {
        assert!(ScenarioSpec::from_json("{").is_err());
        assert!(ScenarioSpec::from_json(r#"{"generator": "NoSuchGen"}"#).is_err());
    }

    /// A misspelled key is refused rather than dropped, so the spec file
    /// says exactly what ran.
    #[test]
    fn from_json_refuses_unknown_keys() {
        let json = ScenarioSpec::small().to_json();
        let misspelled = json.replacen('{', "{\n  \"metric\": 5,", 1);
        let err = ScenarioSpec::from_json(&misspelled).unwrap_err();
        assert!(err.0.contains("unknown key \"metric\""), "{err}");
    }

    /// Enumerated litmus bounds outside 2..=6 threads × 4..=8 edges are
    /// refused rather than clamped; the range's corners still parse.
    #[test]
    fn from_json_refuses_out_of_range_litmus_bounds() {
        let with = |threads: usize, edges: usize| {
            ScenarioSpec::from_json(&ScenarioSpec::small().to_json().replace(
                "\"litmus\": null",
                &format!(
                    "\"litmus\": {{\"Enumerated\": {{\"max_threads\": {threads}, \"max_edges\": {edges}}}}}"
                ),
            ))
        };
        for (threads, edges) in [(2, 4), (6, 8)] {
            assert!(with(threads, edges).is_ok(), "{threads}x{edges}");
        }
        for (threads, edges) in [(1, 4), (7, 8), (2, 3), (6, 9)] {
            let err = with(threads, edges).unwrap_err();
            assert!(
                err.0.contains(&format!("litmus bound {threads}x{edges}")),
                "{err}"
            );
        }
    }

    /// Each removed per-field variable, and a core count in `MCVERSI_CORES`,
    /// is refused with the spec key that replaced it, and each removed
    /// fabric variable with how a run that lost a worker resumes; strengths
    /// alone pass.
    #[test]
    fn removed_variables_are_refused_with_their_spec_key() {
        let only = |name: &'static str, value: &'static str| {
            move |var: &str| (var == name).then(|| value.to_string())
        };
        for (var, key) in REMOVED_VARS {
            let err = refuse_removed_vars(only(var, "1")).unwrap_err();
            assert!(err.0.starts_with(&format!("{var} was removed")), "{err}");
            assert!(err.0.contains(&format!("set \"{key}\"")), "{err}");
        }
        for var in REMOVED_FABRIC_VARS {
            let err = refuse_removed_vars(only(var, "0")).unwrap_err();
            assert!(err.0.starts_with(&format!("{var} was removed")), "{err}");
            assert!(
                err.0.contains("a lost fabric worker now ends the run"),
                "{err}"
            );
            assert!(err.0.contains("same MCVERSI_JOURNAL resumes it"), "{err}");
        }
        assert_eq!(refuse_removed_vars(|_| None), Ok(()));
        assert_eq!(
            refuse_removed_vars(only("MCVERSI_CORES", "strong,relaxed")),
            Ok(())
        );
    }

    #[test]
    fn a_core_count_in_mcversi_cores_is_refused() {
        for raw in ["8", "8,strong", "strong, 2"] {
            let err = refuse_removed_vars(|var| (var == "MCVERSI_CORES").then(|| raw.to_string()))
                .unwrap_err();
            assert!(err.0.contains("set \"cores\""), "{raw}: {err}");
        }
    }

    /// The checked-in scale presets are exactly the constructors they
    /// replace: the paper's cell and the CI toy scale.
    #[test]
    fn example_scale_specs_match_their_presets() {
        let load = |json: &str| ScenarioSpec::from_json(json).expect("example spec parses");
        assert_eq!(
            load(include_str!("../../../examples/paper.json")),
            ScenarioSpec::paper()
        );
        let smoke = ScenarioSpec {
            samples: 1,
            max_test_runs: 2,
            test_size: 24,
            iterations: 1,
            wall_secs: 10,
            ..ScenarioSpec::small()
        };
        assert_eq!(load(include_str!("../../../examples/smoke.json")), smoke);
    }

    #[test]
    fn spec_derives_the_old_setter_built_configuration() {
        let spec = ScenarioSpec::small()
            .model(ModelKind::Armish)
            .core_strength(CoreStrength::Relaxed)
            .protocol(ProtocolKind::TsoCc);
        let cfg = spec.mcversi();
        assert_eq!(cfg.model, ModelKind::Armish);
        assert_eq!(cfg.system.core_strength, CoreStrength::Relaxed);
        assert_eq!(cfg.system.protocol, ProtocolKind::TsoCc);
        assert_eq!(cfg.testgen.bias, OperationBias::relaxed_default());
        assert_eq!(cfg.testgen.num_threads, spec.cores);
        // Retargeting at a strong model restores the Table 3 mix.
        let strong = spec.model(ModelKind::Tso).mcversi();
        assert_eq!(strong.testgen.bias, OperationBias::paper_default());
    }

    /// The spec, `retarget` and `OperationBias::for_model` share one
    /// model-to-bias policy.
    #[test]
    fn every_model_gets_the_same_default_bias_on_every_path() {
        for model in ModelKind::ALL {
            let bias = OperationBias::for_model(model);
            assert_eq!(ScenarioSpec::small().model(model).testgen().bias, bias);
            assert_eq!(McVerSiConfig::small().retarget(model).testgen.bias, bias);
        }
    }

    #[test]
    fn display_labels_match_the_paper_columns() {
        let spec = ScenarioSpec::small().generator(GeneratorKind::McVerSiAll);
        assert_eq!(spec.display_label(), "McVerSi-ALL (8KB)");
        assert_eq!(
            spec.clone().test_memory(1024).display_label(),
            "McVerSi-ALL (1KB)"
        );
        assert_eq!(
            spec.generator(GeneratorKind::DiyLitmus).display_label(),
            "diy-litmus"
        );
    }

    #[test]
    fn grid_expands_the_cartesian_product_in_sweep_order() {
        let grid = ScenarioGrid::new(ScenarioSpec::small())
            .models([ModelKind::Tso, ModelKind::Armish])
            .core_strengths(CoreStrength::ALL)
            .bugs([Bug::LqNoTso, Bug::SqNoDataDep]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        // Core strength is the outermost axis.
        assert!(cells[..4]
            .iter()
            .all(|c| c.core_strength == CoreStrength::Strong));
        assert!(cells[4..]
            .iter()
            .all(|c| c.core_strength == CoreStrength::Relaxed));
        // Models alternate groups of the bug × generator product.
        assert_eq!(cells[0].model, ModelKind::Tso);
        assert_eq!(cells[2].model, ModelKind::Armish);
    }

    #[test]
    fn grid_skips_unobservable_bugs_per_core() {
        let grid = ScenarioGrid::new(ScenarioSpec::small())
            .core_strengths(CoreStrength::ALL)
            .bugs(Bug::ALL_EXTENDED)
            .observable_bugs_only();
        let cells = grid.cells();
        let strong: Vec<_> = cells
            .iter()
            .filter(|c| c.core_strength == CoreStrength::Strong)
            .collect();
        let relaxed: Vec<_> = cells
            .iter()
            .filter(|c| c.core_strength == CoreStrength::Relaxed)
            .collect();
        assert_eq!(strong.len(), 11, "the paper's Table 4 sweep is pinned");
        assert_eq!(relaxed.len(), 14);
        assert!(strong.iter().all(|c| c.bug != Some(Bug::SqNoDataDep)));
        assert!(relaxed.iter().all(|c| c.bug != Some(Bug::LqNoTso)));
    }

    #[test]
    fn strided_seed_policy_reproduces_the_table4_seeds() {
        let grid = ScenarioGrid::new(ScenarioSpec::small())
            .models([ModelKind::Sc, ModelKind::Tso])
            .core_strengths(CoreStrength::ALL)
            .bugs([Bug::LqNoTso])
            .seed_policy(SeedPolicy::table4());
        let cells = grid.cells();
        for cell in &cells {
            let model_idx = [ModelKind::Sc, ModelKind::Tso]
                .iter()
                .position(|&m| m == cell.model)
                .unwrap() as u64;
            let core_idx = (cell.core_strength == CoreStrength::Relaxed) as u64;
            assert_eq!(
                cell.base_seed,
                1000 + Bug::LqNoTso as u64 * 100 + model_idx * 10_000 + core_idx * 100_000
            );
        }
    }

    #[test]
    fn strengths_parsing_dedups_and_skips_unknown_entries() {
        // Repetition and `all` never duplicate entries.
        assert_eq!(
            parse_strengths("strong,all,STRONG,relaxed"),
            vec![CoreStrength::Strong, CoreStrength::Relaxed]
        );
        // Unknown entries are skipped (warning is emitted at most once per
        // process, see `warn_once`).
        assert_eq!(
            parse_strengths("bogus,relaxed,bogus"),
            vec![CoreStrength::Relaxed]
        );
        // No strength named: empty, so the grid keeps the base's strength.
        assert!(parse_strengths("").is_empty());

        // One warning per distinct unknown entry, however often it recurs
        // (entries no other test uses: the registry is process-wide).
        telemetry::enable();
        telemetry::reset_local();
        for _ in 0..2 {
            assert_eq!(
                parse_strengths("strong,stroong,stroong"),
                vec![CoreStrength::Strong]
            );
        }
        assert!(parse_strengths("relaxd").is_empty());
        assert_eq!(
            telemetry::local_snapshot().counters["events.warn_once"],
            2,
            "one warning per distinct bad value"
        );
    }

    #[test]
    fn model_parsing_defaults_and_dedups() {
        assert_eq!(parse_models("all"), ModelKind::ALL.to_vec());
        assert_eq!(
            parse_models("tso,TSO,armish"),
            vec![ModelKind::Tso, ModelKind::Armish]
        );
        assert_eq!(parse_models("bogus").len(), 4, "fallback to the default");
    }

    /// The axis-resolution precedence of `grid_from_env`: explicit variables
    /// win, a spec-loaded base contributes its own model/strength, and the
    /// no-spec default keeps the historical four-model × strong sweep.
    #[test]
    fn grid_axes_respect_spec_loaded_bases() {
        let relaxed_base = ScenarioSpec::small()
            .model(ModelKind::Powerish)
            .core_strength(CoreStrength::Relaxed);

        // Spec file loaded, nothing else set: the spec defines both axes.
        let (models, strengths) = grid_axes(&relaxed_base, None, None, true);
        assert_eq!(models, vec![ModelKind::Powerish]);
        assert_eq!(strengths, vec![CoreStrength::Relaxed]);

        // Explicit variables override the spec.
        let (models, strengths) = grid_axes(&relaxed_base, Some("tso"), Some("strong"), true);
        assert_eq!(models, vec![ModelKind::Tso]);
        assert_eq!(strengths, vec![CoreStrength::Strong]);

        // No spec, nothing set: the historical sweep defaults.
        let (models, strengths) = grid_axes(&ScenarioSpec::small(), None, None, false);
        assert_eq!(models.len(), 4);
        assert_eq!(strengths, vec![CoreStrength::Strong]);
    }

    #[test]
    fn grid_column_labels_follow_the_generator_axis() {
        let grid = ScenarioGrid::new(ScenarioSpec::small()).generator_columns([
            (GeneratorKind::McVerSiAll, 1024, None),
            (GeneratorKind::DiyLitmus, 8 * 1024, None),
            (GeneratorKind::McVerSiRand, 1024, Some("custom".to_string())),
        ]);
        assert_eq!(
            grid.column_labels(),
            vec!["McVerSi-ALL (1KB)", "diy-litmus", "custom"]
        );
    }
}
