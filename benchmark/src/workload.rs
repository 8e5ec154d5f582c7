//! The five pinned workloads, how a `--seed` becomes their inputs, how one is
//! set up, and what "correct" means for each.
//!
//! A workload is a list of cell specs (the JSON files under
//! `benchmark/workloads/`); sample `i` of a run takes cell `i mod len` and a
//! sample seed that `--seed` and `i` pick from the workload's [`VettedPool`].
//! A pool, not any seed, because neither bug-free design is silent yet (the
//! ROADMAP's silent-baseline item): MESI faults on about one random test-run
//! in 2000, TSO-CC reports an MCM violation on about one in 3000.  A run may
//! not contain a failing operation, the caller chooses `--seed`, and the
//! simulator is deterministic per seed — so every sample seed a run can take
//! is one that `bench_snapshot vet` has run at full length.

use mcversi_core::NullSink;
use mcversi_core::{
    run_campaign, CampaignResult, CampaignSink, GeneratorKind, ScenarioSpec, TestSource,
};
use mcversi_fabric::{locate_worker, run_grid, FabricOptions, FabricReport};
use mcversi_sim::{BugConfig, System};
use mcversi_testgen::litmus;
use std::path::PathBuf;

/// What the verdicts of a workload must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Bug-free design: every test-run passes and the budget is used up.
    Silent,
    /// Injected bug: a detection, if any, is an MCM violation.  A cell that
    /// finds nothing is scored (`testgen.detect_norm_time`), not failed: the
    /// seed is the caller's, and not every seed finds every bug in budget.
    McmViolation,
}

/// How the fabric workload drives `run_grid`.
#[derive(Debug, Clone, Copy)]
pub struct FabricShape {
    /// Cells per `run_grid` call.
    pub cells: usize,
    /// Worker child processes (with the coordinator: `nproc` on a 2-core box).
    pub workers: usize,
    /// Shards the cells are split into.
    pub shards: usize,
}

/// Sample seeds `0..size`, less the ones on which the workload fails its
/// check at this commit (found by `bench_snapshot vet`; empty once the
/// silent-baseline item lands, at which point the pool can go).
#[derive(Debug, Clone, Copy)]
pub struct VettedPool {
    pub size: u64,
    pub failing: &'static [u64],
}

/// How many `--seed`s get a block of the pool to themselves.
const SEED_BLOCKS: u64 = 16;

impl VettedPool {
    /// Sample `index` of `seed`: the block of `seed` starts `size / 16`
    /// further on than that of `seed - 1`, and wraps around.
    fn pick(&self, seed: u64, index: usize) -> u64 {
        let good: Vec<u64> = (0..self.size)
            .filter(|s| !self.failing.contains(s))
            .collect();
        let nth = seed
            .wrapping_mul(self.size / SEED_BLOCKS)
            .wrapping_add(index as u64);
        good[(nth % good.len() as u64) as usize]
    }
}

/// One pinned workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// Cell specs, cycled over the samples of a run.
    pub cells: &'static [&'static str],
    /// Consecutive test-runs per window of the rate metrics: about a second
    /// of them, and on `litmus-mesi` exactly one sample, so that every
    /// window holds the same tests.
    pub window_runs: usize,
    pub expect: Expect,
    /// `Some` for the one workload that goes through the process fabric.
    pub fabric: Option<FabricShape>,
    /// Where sample seeds come from.
    pub pool: VettedPool,
}

const DETECT_TSO: &str = include_str!("../workloads/detect-gp-tso.json");
const DETECT_ARMISH: &str = include_str!("../workloads/detect-gp-armish.json");

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rand-tsocc-1k",
        window_runs: 10,
        why: "Random 256-op tests on TSO-CC, strong core, 1 KB: simulator-bound and contention-heavy (simulate ~89 %, check ~10 %).",
        cells: &[include_str!("../workloads/rand-tsocc-1k.json")],
        expect: Expect::Silent,
        fabric: None,
        pool: VettedPool {
            size: 256,
            failing: &[],
        },
    },
    Workload {
        name: "rand-mesi-8k",
        window_runs: 20,
        why: "Random 128-op tests on MESI, relaxed core, ARMish, 8 KB: the other protocol and pipeline, replacements and memory-latency idle cycles dominate.",
        cells: &[include_str!("../workloads/rand-mesi-8k.json")],
        expect: Expect::Silent,
        fabric: None,
        pool: VettedPool {
            size: 256,
            failing: &[45, 166, 217, 239, 240],
        },
    },
    Workload {
        name: "litmus-mesi",
        window_runs: 25,
        why: "Enumerated litmus corpus repeated to 256 ops on MESI, relaxed core: checker-bound (check ~75 %), so a simulator speed-up must show almost nothing here.",
        cells: &[include_str!("../workloads/litmus-mesi.json")],
        expect: Expect::Silent,
        fabric: None,
        pool: VettedPool {
            size: 256,
            failing: &[],
        },
    },
    Workload {
        name: "detect-gp",
        window_runs: 45,
        why: "McVerSi-ALL hunting LQ+no-TSO (strong, TSO) and LQ+no-addr-dep (relaxed, ARMish) on TSO-CC: the only workload where test generation and feedback decide the result.",
        cells: &[DETECT_TSO, DETECT_TSO, DETECT_ARMISH],
        expect: Expect::McmViolation,
        fabric: None,
        pool: VettedPool {
            size: 256,
            failing: &[],
        },
    },
    Workload {
        name: "fabric-grid",
        window_runs: 80,
        why: "Grid of 20-run random cells through run_grid with 2 worker processes and a journal: spawn, JSONL encode/parse, journal append and merge.",
        cells: &[include_str!("../workloads/fabric-grid.json")],
        expect: Expect::Silent,
        fabric: Some(FabricShape {
            cells: 16,
            workers: 2,
            shards: 4,
        }),
        pool: VettedPool {
            size: 1024,
            failing: &[300, 421],
        },
    },
];

/// Test-runs of the discarded warm-up sample.
const WARMUP_RUNS: usize = 10;
/// Sample index of the warm-up: past any index a run reaches.
const WARMUP_INDEX: usize = 999;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn scaled(runs: usize, scale: f64) -> usize {
    ((runs as f64 * scale).round() as usize).max(1)
}

/// Parses one cell spec and gives it its seed and its scaled budget.
fn cell(json: &str, sample_seed: u64, scale: f64) -> ScenarioSpec {
    let mut spec =
        ScenarioSpec::from_json(json).expect("workload specs are checked by the unit tests");
    spec.base_seed = sample_seed;
    spec.max_test_runs = scaled(spec.max_test_runs, scale);
    spec
}

/// One sample in process, to its budget, unobserved.
pub fn run_sample(spec: &ScenarioSpec) -> CampaignResult {
    run_campaign(&spec.campaign(), spec.base_seed)
}

impl Workload {
    /// The cell specs without the repeats that weight the rotation.
    fn distinct_cells(&self) -> Vec<&'static str> {
        let mut cells = self.cells.to_vec();
        cells.dedup();
        cells
    }

    /// The spec of sample `index` under `seed`; `scale` shrinks the test-run
    /// budget (never the test size or the iteration count).
    pub fn sample(&self, seed: u64, index: usize, scale: f64) -> ScenarioSpec {
        let json = self.cells[index % self.cells.len()];
        cell(json, self.pool.pick(seed, index), scale)
    }

    /// `vet`: runs every seed of the pool on every cell at full length and
    /// returns the seeds that fail the workload's check — the pool's
    /// `failing` list.
    pub fn vet(&self) -> Vec<u64> {
        let mut failing = Vec::new();
        for sample_seed in 0..self.pool.size {
            for json in self.distinct_cells() {
                let spec = cell(json, sample_seed, 1.0);
                if let Err(why) = self.check(&spec, &run_sample(&spec), false) {
                    eprintln!("{why}");
                    failing.push(sample_seed);
                    break;
                }
            }
        }
        failing
    }

    /// Checks one finished sample against [`Workload::expect`].  `cut` says
    /// the measuring deadline ended the sample before its budget.
    pub fn check(
        &self,
        spec: &ScenarioSpec,
        result: &CampaignResult,
        cut: bool,
    ) -> Result<(), String> {
        let detail = result.detail.as_deref().unwrap_or("");
        match self.expect {
            Expect::Silent if result.found => Err(format!(
                "{}: bug-free design reported `{detail}` (seed {}, run {:?})",
                self.name, result.seed, result.found_at_run
            )),
            Expect::Silent if !cut && result.test_runs != spec.max_test_runs => Err(format!(
                "{}: seed {} ran {} of {} test-runs",
                self.name, result.seed, result.test_runs, spec.max_test_runs
            )),
            Expect::McmViolation if result.found && !detail.starts_with("MCM violation") => {
                Err(format!(
                    "{}: seed {} detected `{detail}`, not an MCM violation",
                    self.name, result.seed
                ))
            }
            _ => Ok(()),
        }
    }

    /// Everything a run pays before its first measured test-run: the litmus
    /// corpus enumeration, a `System::new` per distinct cell, locating the
    /// fabric worker, and one discarded warm-up sample.
    pub fn set_up(&self, seed: u64, scale: f64) -> Result<(), String> {
        for json in self.distinct_cells() {
            let spec = cell(json, self.pool.pick(seed, WARMUP_INDEX), scale);
            if spec.generator == GeneratorKind::DiyLitmus {
                enumerate_corpus(&spec);
            }
            let system = System::new(spec.system(), BugConfig::none(), spec.base_seed);
            std::hint::black_box(system);
        }
        let mut warmup = self.sample(seed, WARMUP_INDEX, 1.0);
        warmup.max_test_runs = scaled(WARMUP_RUNS, scale);
        let result = match self.fabric {
            Some(_) => {
                let cells = std::slice::from_ref(&warmup);
                let (report, _) = Fabric::locate()?.run(cells, 1, 1, &mut NullSink)?;
                report.cells[0].1[0].clone()
            }
            None => run_sample(&warmup),
        };
        match self.expect {
            Expect::Silent => self.check(&warmup, &result, false),
            // A ten-run hunt proves nothing either way.
            Expect::McmViolation => Ok(()),
        }
    }
}

/// Enumerates the litmus corpus of `spec` without the process-wide cache
/// `TestSource` goes through, so that every set-up pays for it and a change
/// that makes enumeration dearer shows in `setup_s`.  The three locations
/// are picked as `TestSource::for_model` picks them.
fn enumerate_corpus(spec: &ScenarioSpec) {
    let params = spec.testgen();
    let slots = params.all_slot_addresses();
    let locations: Vec<_> = (0..3).map(|i| slots[i * slots.len() / 3]).collect();
    if let Some(bounds) = params.litmus.bounds() {
        std::hint::black_box(litmus::suite_for_bounded(spec.model, &locations, &bounds));
    }
    // The first `TestSource` of the process fills the shared cache; do it
    // here so no measured sample pays for it.
    std::hint::black_box(TestSource::for_model(
        spec.generator,
        params,
        spec.base_seed,
        spec.model,
    ));
}

/// The process fabric as the benchmark drives it: the `mcversi-work` binary
/// built next to this one, and a journal file beside both.
#[derive(Debug)]
pub struct Fabric {
    worker: PathBuf,
    journal: PathBuf,
}

impl Fabric {
    pub fn locate() -> Result<Self, String> {
        let worker = locate_worker()
            .ok_or("mcversi-work not found next to bench_snapshot (build both bins)")?;
        let journal = worker.with_file_name(format!("bench-journal-{}.jsonl", std::process::id()));
        Ok(Fabric { worker, journal })
    }

    /// Runs `cells` through `run_grid` with a fresh journal, streaming
    /// events into `sink`; also returns the journal's size in bytes.
    pub fn run(
        &self,
        cells: &[ScenarioSpec],
        workers: usize,
        shards: usize,
        sink: &mut dyn CampaignSink,
    ) -> Result<(FabricReport, u64), String> {
        // An existing journal would be resumed, not rewritten.
        let _ = std::fs::remove_file(&self.journal);
        let mut options = FabricOptions::new(self.worker.clone());
        options.workers = workers;
        options.shards = shards;
        options.journal = Some(self.journal.to_string_lossy().into_owned());
        let report = run_grid(cells, &options, sink).map_err(|e| e.to_string());
        let bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&self.journal);
        Ok((report?, bytes))
    }
}

/// FNV-1a over the simulated statistics of a run's samples: two commits (or
/// a traced and an untraced run) that simulate the same thing agree on it
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(
        &mut self,
        seed: u64,
        test_runs: usize,
        found_at_run: Option<usize>,
        simulated_cycles: u64,
        coverage: f64,
    ) {
        let words = [
            seed,
            test_runs as u64,
            found_at_run.map_or(0, |r| r as u64),
            simulated_cycles,
            coverage.to_bits(),
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_result(&mut self, r: &CampaignResult) {
        self.add(
            r.seed,
            r.test_runs,
            r.found_at_run,
            r.simulated_cycles,
            r.max_total_coverage,
        );
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_file_parses_as_a_scenario_spec() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).expect("workloads directory") {
            let path = entry.expect("directory entry").path();
            let spec = ScenarioSpec::from_json_file(&path.to_string_lossy())
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(spec.iterations, 4, "{}", path.display());
            assert_eq!(spec.cores, 4, "{}", path.display());
            assert_eq!(spec.checking, None, "default per_exec checking");
            files += 1;
        }
        let used: std::collections::BTreeSet<&str> = WORKLOADS
            .iter()
            .flat_map(|w| w.cells.iter().copied())
            .collect();
        assert_eq!(files, used.len(), "every file is used by a workload");
    }

    #[test]
    fn a_seed_fixes_the_inputs_and_two_seeds_share_none() {
        let w = find("detect-gp").expect("workload");
        assert_eq!(w.sample(1, 2, 1.0), w.sample(1, 2, 1.0));
        assert_eq!(w.sample(1, 2, 1.0).base_seed, 16 + 2);
        assert_ne!(w.sample(1, 2, 1.0).base_seed, w.sample(2, 2, 1.0).base_seed);
        assert_ne!(w.sample(1, 0, 1.0).bug, w.sample(1, 2, 1.0).bug);
        assert_eq!(w.sample(1, 0, 1.0).bug, w.sample(1, 3, 1.0).bug);
        assert_eq!(w.sample(1, 0, 0.02).max_test_runs, 6);
        assert_eq!(
            w.sample(1, 0, 0.02).test_size,
            w.sample(1, 0, 1.0).test_size
        );
    }

    #[test]
    fn pooled_seeds_skip_the_failing_ones_and_keep_seeds_apart() {
        let pool = VettedPool {
            size: 64,
            failing: &[16, 17],
        };
        assert_eq!(pool.pick(0, 3), 3);
        // Seed 1 starts 64 / 16 further on; seed 4 past the two failing seeds.
        assert_eq!(pool.pick(1, 0), 4);
        assert_eq!(pool.pick(4, 0), 18);
        assert_eq!(pool.pick(1, 0), pool.pick(1, 0));
        let picked: Vec<u64> = (0..200).map(|i| pool.pick(7, i)).collect();
        assert!(picked.iter().all(|s| *s < 64 && !pool.failing.contains(s)));
        for w in &WORKLOADS {
            assert!(w.pool.failing.iter().all(|s| *s < w.pool.size));
            let grid = w.fabric.map_or(1, |shape| shape.cells as u64);
            assert!(
                w.pool.size / SEED_BLOCKS >= grid,
                "{}: a grid has no twins",
                w.name
            );
        }
    }

    #[test]
    fn fingerprint_depends_on_every_field() {
        let base = {
            let mut f = Fingerprint::new();
            f.add(1, 20, None, 1000, 0.5);
            f
        };
        for (seed, runs, found, cycles, cov) in [
            (2, 20, None, 1000, 0.5),
            (1, 21, None, 1000, 0.5),
            (1, 20, Some(3), 1000, 0.5),
            (1, 20, None, 1001, 0.5),
            (1, 20, None, 1000, 0.25),
        ] {
            let mut f = Fingerprint::new();
            f.add(seed, runs, found, cycles, cov);
            assert_ne!(f, base);
        }
        assert_eq!(base.hex().len(), 16);
    }
}
