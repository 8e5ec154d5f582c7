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
//! environment directly).  Scaled-down defaults keep the whole suite runnable
//! on one machine; the scale can be raised up to the paper's values:
//!
//! | Variable               | Meaning                                  | Default |
//! |------------------------|------------------------------------------|---------|
//! | `MCVERSI_SPEC`         | path of a JSON [`ScenarioSpec`] used as the base (see `examples/scenario.json`) | unset |
//! | `MCVERSI_SAMPLES`      | samples (seeds) per generator/bug pair   | 2       |
//! | `MCVERSI_TEST_RUNS`    | test-run budget per sample               | 60      |
//! | `MCVERSI_TEST_SIZE`    | operations per test                      | 96      |
//! | `MCVERSI_ITERATIONS`   | executions per test-run                  | 4       |
//! | `MCVERSI_CORES`        | core *count* (a number) and/or core *strengths* (`strong`/`relaxed`/`all`), comma-separated | 4, `strong` |
//! | `MCVERSI_WALL_SECS`    | wall-clock cap per sample (seconds)      | 120     |
//! | `MCVERSI_FULL`         | if set, use the paper-scale parameters   | unset   |
//! | `MCVERSI_MODELS`       | comma-separated target models, or `all`  | `SC,TSO,ARMish,RMO` |
//! | `MCVERSI_LITMUS`       | litmus corpus of the `diy-litmus` baseline: `handpicked` or `enumerated[:<threads>x<edges>]` | `enumerated:4x6` |
//! | `MCVERSI_JSONL`        | path; streams campaign events there as JSONL ([`crate::sink::JsonlSink`]) | unset |
//! | `MCVERSI_METRICS`      | telemetry: `off`, `sample` (final snapshot only), or a cadence `n` (also stream a snapshot every `n` test-runs) | unset (off) |
//! | `MCVERSI_FABRIC`       | worker child processes of the distributed fabric (`0` = run in-process) | unset   |
//! | `MCVERSI_JOURNAL`      | path of the fabric checkpoint journal; an existing journal is resumed | unset   |
//! | `MCVERSI_FABRIC_FAULT` | fault injected into the first worker dispatch (`kill-after:<n>`, `hang-after:<n>`, `corrupt-tail:<n>`; test/CI only) | unset   |
//! | `MCVERSI_FABRIC_RETRIES` | re-dispatch attempts per shard after a worker dies | 2       |
//!
//! `MCVERSI_CORES` mixes both axes of the core configuration: numeric parts
//! set the simulated core count, named parts select the pipeline strengths to
//! sweep (e.g. `MCVERSI_CORES=8,strong,relaxed` or just
//! `MCVERSI_CORES=strong,relaxed`).  An all-numeric value (`MCVERSI_CORES=8`)
//! leaves the strength axis untouched — the base spec's strength, a single
//! `strong` entry by default; unknown entries are skipped with a warning
//! that is emitted once per process.
//! When `MCVERSI_SPEC` is set, explicit scalar variables still override the
//! corresponding spec fields, and the spec's `model` / `core_strength`
//! become the sweep axes unless `MCVERSI_MODELS` / `MCVERSI_CORES` name
//! their own (see [`grid_from_env`]).

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
    /// enumerated corpus; see [`LitmusCorpus`] and `MCVERSI_LITMUS`).
    pub litmus: Option<LitmusCorpus>,
    /// Telemetry collection (`None` = off; `Some(0)` = final snapshot only;
    /// `Some(n)` = also stream a [`crate::sink::CampaignEvent::Metrics`]
    /// snapshot every `n` test-runs).  See `MCVERSI_METRICS`.
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
    /// The operation bias follows the target model: relaxed targets get the
    /// dependency-carrying mix ([`OperationBias::relaxed_default`]), strong
    /// targets the paper's Table 3 mix.
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
        params.bias = if self.model.is_relaxed() {
            OperationBias::relaxed_default()
        } else {
            OperationBias::paper_default()
        };
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
        crate::campaign::run_samples_streamed(&config, self.samples, self.base_seed, sink)
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
    /// Keys of removed modes are refused unless they are `null`, so a spec
    /// that asks for such a mode never runs quietly without it; other unknown
    /// keys are ignored.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        let invalid = |e: serde_json::Error| SpecError(format!("invalid scenario spec: {e}"));
        let value = serde_json::value_from_str(json).map_err(invalid)?;
        for (key, instead) in REMOVED_KEYS {
            if value.get(key).is_some_and(|v| *v != Value::Null) {
                return Err(SpecError(format!(
                    "invalid scenario spec: key \"{key}\" was removed: {instead}"
                )));
            }
        }
        serde_json::from_value(&value).map_err(invalid)
    }

    /// Loads a spec from a JSON file.
    pub fn from_json_file(path: &str) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("cannot read scenario spec `{path}`: {e}")))?;
        Self::from_json(&text).map_err(|e| SpecError(format!("{path}: {e}")))
    }

    /// Reads the base spec from the environment: `MCVERSI_SPEC` (a JSON spec
    /// file) or the `MCVERSI_FULL`-selected defaults, with the scalar
    /// `MCVERSI_*` variables overriding individual fields (see the module
    /// documentation for the full table).
    ///
    /// # Panics
    ///
    /// Panics when `MCVERSI_SPEC` names an unreadable or invalid spec file —
    /// a misspelled spec silently replaced by defaults would invalidate a
    /// whole campaign.
    pub fn from_env() -> Self {
        let mut spec = match std::env::var("MCVERSI_SPEC") {
            Ok(path) => Self::from_json_file(&path).unwrap_or_else(|e| panic!("MCVERSI_SPEC: {e}")),
            Err(_) => {
                if std::env::var("MCVERSI_FULL").is_ok() {
                    Self::paper()
                } else {
                    Self::small()
                }
            }
        };
        spec.samples = env_usize("MCVERSI_SAMPLES", spec.samples);
        spec.max_test_runs = env_usize("MCVERSI_TEST_RUNS", spec.max_test_runs);
        spec.test_size = env_usize("MCVERSI_TEST_SIZE", spec.test_size);
        spec.iterations = env_usize("MCVERSI_ITERATIONS", spec.iterations);
        spec.wall_secs = env_usize("MCVERSI_WALL_SECS", spec.wall_secs as usize) as u64;
        let (cores, _) = cores_from_env(spec.cores);
        spec.cores = cores;
        if let Ok(raw) = std::env::var("MCVERSI_LITMUS") {
            match LitmusCorpus::parse(&raw) {
                Some(corpus) => spec.litmus = Some(corpus),
                None => warn_once(&format!(
                    "warning: MCVERSI_LITMUS: unknown corpus '{raw}' ignored \
                     (expected handpicked or enumerated[:<threads>x<edges>])"
                )),
            }
        }
        if let Ok(raw) = std::env::var("MCVERSI_METRICS") {
            match parse_metrics(&raw) {
                Some(metrics) => spec.metrics = metrics,
                None => warn_once(&format!(
                    "warning: MCVERSI_METRICS: unknown value '{raw}' ignored \
                     (expected off, sample, or a cadence in test-runs)"
                )),
            }
        }
        spec
    }
}

/// Spec keys of removed modes, each with what a run does instead.
const REMOVED_KEYS: [(&str, &str); 2] = [
    ("prune", "every generated test is simulated"),
    ("shared_wall_secs", "each sample keeps its own `wall_secs`"),
];

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
    /// core_idx·core_weight + generator_idx·generator_weight` —
    /// deterministic, well-separated seeds per cell (the bug contribution
    /// uses the bug's discriminant so it is stable under axis reordering).
    Strided {
        /// Seed of the first cell.
        base: u64,
        /// Weight of the bug discriminant.
        bug_weight: u64,
        /// Weight of the model axis index.
        model_weight: u64,
        /// Weight of the core-strength axis index.
        core_weight: u64,
        /// Weight of the generator axis index.
        generator_weight: u64,
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
            generator_weight: 0,
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
/// defaults (`SC,TSO,ARMish,RMO` × `strong`).  A purely numeric
/// `MCVERSI_CORES` (a core *count*) does not override the strength axis.
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
    let strengths = match cores_env.map(parse_core_entries) {
        Some((_, named)) if !named.is_empty() => named,
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

    /// Replaces the generator axis (unlabelled, at the base memory size).
    pub fn generators(mut self, generators: impl IntoIterator<Item = GeneratorKind>) -> Self {
        let memory = self.base.test_memory_bytes;
        self.generators = generators.into_iter().map(|g| (g, memory, None)).collect();
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

    /// The model axis.
    pub fn model_axis(&self) -> &[ModelKind] {
        &self.models
    }

    /// The core-strength axis.
    pub fn core_axis(&self) -> &[CoreStrength] {
        &self.core_strengths
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
                        for (generator_idx, (generator, memory, label)) in
                            self.generators.iter().enumerate()
                        {
                            let base_seed = match self.seeds {
                                SeedPolicy::Fixed => self.base.base_seed,
                                SeedPolicy::Strided {
                                    base,
                                    bug_weight,
                                    model_weight,
                                    core_weight,
                                    generator_weight,
                                } => base
                                    .wrapping_add(
                                        bug.map_or(0, |b| b as u64).wrapping_mul(bug_weight),
                                    )
                                    .wrapping_add((model_idx as u64).wrapping_mul(model_weight))
                                    .wrapping_add((core_idx as u64).wrapping_mul(core_weight))
                                    .wrapping_add(
                                        (generator_idx as u64).wrapping_mul(generator_weight),
                                    ),
                            };
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

    /// Number of cells the grid expands to (without materialising them).
    pub fn len(&self) -> usize {
        let per_core: usize = self
            .core_strengths
            .iter()
            .map(|&core| {
                self.bugs
                    .iter()
                    .filter(|bug| {
                        !self.observable_only
                            || bug
                                .and_then(mcversi_sim::Bug::required_core)
                                .is_none_or(|required| required == core)
                    })
                    .count()
            })
            .sum();
        per_core * self.models.len() * self.protocols.len() * self.generators.len()
    }

    /// Returns `true` if the grid expands to no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Environment parsing
// ---------------------------------------------------------------------------

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).map_or(default, |raw| parse_usize_var(name, &raw, default))
}

/// Parses the value `raw` of the scalar variable `name`; a value that is not
/// a number keeps `default`, with a once-per-process warning.
fn parse_usize_var(name: &str, raw: &str, default: usize) -> usize {
    raw.trim().parse().unwrap_or_else(|_| {
        warn_once(&format!(
            "warning: {name}: not a number: '{raw}' ignored (using {default})"
        ));
        default
    })
}

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

/// Parses a `MCVERSI_METRICS` value: `off` disables telemetry, `sample` (or
/// `on`) collects final per-sample snapshots only, and an integer `n`
/// additionally streams a cumulative snapshot every `n` test-runs (`0` is
/// equivalent to `sample`).  Returns `None` when the value is not understood.
fn parse_metrics(raw: &str) -> Option<Option<usize>> {
    match raw.trim() {
        "off" => Some(None),
        "sample" | "on" => Some(Some(0)),
        n => n.parse().ok().map(Some),
    }
}

/// Parses a `MCVERSI_CORES`-style value: numeric parts set the simulated core
/// count, named parts (`strong`/`relaxed`, or `all`) select the pipeline
/// strengths to sweep.  Returns `(core count, strengths)`.
///
/// The strength list is deduplicated; when the value carries no (valid)
/// strength name — including the all-numeric `MCVERSI_CORES=8` — it contains
/// the default [`CoreStrength::Strong`] exactly once.  Unknown entries are
/// skipped with a once-per-process warning.
pub fn parse_cores(raw: &str, default_count: usize) -> (usize, Vec<CoreStrength>) {
    let (count, mut strengths) = parse_core_entries(raw);
    if strengths.is_empty() {
        strengths.push(CoreStrength::Strong);
    }
    (count.unwrap_or(default_count), strengths)
}

/// The defaulting-free core of [`parse_cores`]: `None` / an empty list mean
/// the value carried no count / no (valid) strength name, so callers can
/// distinguish "explicitly strong" from "unspecified".
fn parse_core_entries(raw: &str) -> (Option<usize>, Vec<CoreStrength>) {
    let mut count = None;
    let mut strengths: Vec<CoreStrength> = Vec::new();
    for part in raw.split(',').filter(|p| !p.trim().is_empty()) {
        let part = part.trim();
        if let Ok(n) = part.parse::<usize>() {
            count = Some(n.max(1));
        } else if part.eq_ignore_ascii_case("all") {
            for s in CoreStrength::ALL {
                if !strengths.contains(&s) {
                    strengths.push(s);
                }
            }
        } else if let Some(strength) = CoreStrength::parse(part) {
            if !strengths.contains(&strength) {
                strengths.push(strength);
            }
        } else {
            warn_once(&format!(
                "warning: MCVERSI_CORES: unknown entry '{part}' skipped"
            ));
        }
    }
    (count, strengths)
}

/// Reads `MCVERSI_CORES` (see [`parse_cores`]); an unset variable yields the
/// default count and a single `strong` strength.
pub fn cores_from_env(default_count: usize) -> (usize, Vec<CoreStrength>) {
    match std::env::var("MCVERSI_CORES") {
        Ok(raw) => parse_cores(&raw, default_count),
        Err(_) => (default_count, vec![CoreStrength::Strong]),
    }
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

/// Reads `MCVERSI_MODELS` (see [`parse_models`]).
pub fn models_from_env() -> Vec<ModelKind> {
    match std::env::var("MCVERSI_MODELS") {
        Ok(raw) => parse_models(&raw),
        Err(_) => parse_models(""),
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
    /// Fault-injection spec for the first dispatches, e.g. `kill-after:25`
    /// (`MCVERSI_FABRIC_FAULT`; test/CI only).
    pub fault: Option<String>,
    /// Re-dispatch attempts per shard after worker loss
    /// (`MCVERSI_FABRIC_RETRIES`).
    pub max_redispatch: usize,
}

/// Reads the `MCVERSI_FABRIC*` / `MCVERSI_JOURNAL` variables; `None` unless
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
        fault: std::env::var("MCVERSI_FABRIC_FAULT").ok(),
        max_redispatch: env_usize("MCVERSI_FABRIC_RETRIES", 2),
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
    fn metrics_values_parse_like_the_env_variable() {
        assert_eq!(parse_metrics("off"), Some(None));
        assert_eq!(parse_metrics("sample"), Some(Some(0)));
        assert_eq!(parse_metrics("on"), Some(Some(0)));
        assert_eq!(parse_metrics("0"), Some(Some(0)));
        assert_eq!(parse_metrics(" 50 "), Some(Some(50)));
        assert_eq!(parse_metrics("every-other-day"), None);
    }

    /// A scalar variable that is not a number keeps its default and warns
    /// once per distinct value.
    #[test]
    fn scalar_variables_parse_or_warn_and_keep_the_default() {
        assert_eq!(parse_usize_var("MCVERSI_TEST_RUNS", "2000", 60), 2000);
        assert_eq!(parse_usize_var("MCVERSI_TEST_RUNS", " 7 ", 60), 7);
        telemetry::enable();
        telemetry::reset_local();
        for _ in 0..2 {
            assert_eq!(parse_usize_var("MCVERSI_TEST_RUNS", "2k", 60), 60);
        }
        assert_eq!(parse_usize_var("MCVERSI_SAMPLES", "-1", 2), 2);
        assert_eq!(
            telemetry::local_snapshot().counters["events.warn_once"],
            2,
            "one warning per distinct bad value"
        );
    }

    #[test]
    fn from_json_rejects_malformed_specs() {
        assert!(ScenarioSpec::from_json("{").is_err());
        assert!(ScenarioSpec::from_json(r#"{"generator": "NoSuchGen"}"#).is_err());
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
    fn cores_parsing_defaults_strong_exactly_once() {
        // All-numeric: count set, exactly one default strength.
        let (count, strengths) = parse_cores("8", 4);
        assert_eq!(count, 8);
        assert_eq!(strengths, vec![CoreStrength::Strong]);
        // Repetition and `all` never duplicate entries.
        let (_, strengths) = parse_cores("strong,all,STRONG,relaxed", 4);
        assert_eq!(strengths, vec![CoreStrength::Strong, CoreStrength::Relaxed]);
        // Mixed numeric + names; unknown entries are skipped (warning is
        // emitted at most once per process, see `warn_once`).
        let (count, strengths) = parse_cores("2,bogus,relaxed,bogus", 4);
        assert_eq!(count, 2);
        assert_eq!(strengths, vec![CoreStrength::Relaxed]);
        // Empty value: defaults.
        assert_eq!(parse_cores("", 4), (4, vec![CoreStrength::Strong]));
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

    #[test]
    fn grid_len_matches_materialised_cells() {
        let grid = ScenarioGrid::new(ScenarioSpec::small())
            .core_strengths(CoreStrength::ALL)
            .models([ModelKind::Tso, ModelKind::Armish])
            .bugs(Bug::ALL_EXTENDED)
            .observable_bugs_only();
        assert_eq!(grid.len(), grid.cells().len());
        assert!(!grid.is_empty());
        let empty = ScenarioGrid::new(ScenarioSpec::small()).models(Vec::<ModelKind>::new());
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert!(empty.cells().is_empty());
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

        // A purely numeric MCVERSI_CORES sets the count, not the strength.
        let (_, strengths) = grid_axes(&relaxed_base, None, Some("8"), true);
        assert_eq!(strengths, vec![CoreStrength::Relaxed]);

        // Explicit variables override the spec.
        let (models, strengths) = grid_axes(&relaxed_base, Some("tso"), Some("8,strong"), true);
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
