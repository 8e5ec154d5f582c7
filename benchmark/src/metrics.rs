//! The one table of metrics: `BENCHMARK.json`, `list`, the result line of a
//! run and the verdicts of `diff` all come from it.

use crate::workload::WORKLOADS;
use serde::Value;

/// How long one run measures, in seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// By how much the contract's total-time cap cut the issue's ≈20 s per
/// workload; recorded in every snapshot.
pub const TIME_CAP_FACTOR: f64 = RUN_SECONDS as f64 / 20.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.  End-to-end metrics carry the share of the parent's median by
/// which they may get worse; per-layer metrics have no bound.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    /// A count the program makes that repeats exactly for a seed: two
    /// commits compare it with `==`, not within a bound.
    pub exact: bool,
}

const fn end_to_end(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

/// A per-layer measurement that varies from run to run: mostly host time.
const fn varying(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn timing(name: &'static str, unit: &'static str) -> Metric {
    varying(name, unit, Better::Lower)
}

/// A per-layer count the program makes that repeats exactly for a seed.
const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees, per workload.  Bounds are measured, not
/// guessed: three times the widest spread `spread.py` saw on the reference
/// box, whose speed drifts by several percent from minute to minute (see
/// `benchmark/README.md`).
pub const END_TO_END: [Metric; 5] = [
    end_to_end("runs_per_s", "1/s", Better::Higher, 0.25),
    end_to_end("sim_cycles_per_s", "1/s", Better::Higher, 0.25),
    end_to_end("run_ms_p50", "ms", Better::Lower, 0.25),
    end_to_end("setup_s", "s", Better::Lower, 0.25),
    end_to_end("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// One layer each (layer = crate or module), from the traced run.
pub const PER_LAYER: [Metric; 36] = [
    // sim: host time per call into the simulator.
    timing("sim.run_iteration_us", "us"),
    timing("sim.host_ns_per_cycle", "ns"),
    timing("sim.reset_us", "us"),
    timing("sim.observe_us", "us"),
    timing("sim.observer_new_us", "us"),
    // sim: simulated statistics; a simulator-speed change leaves them as is.
    count("sim.cycles_total", "count", Better::Lower),
    count("sim.ops_total", "count", Better::Higher),
    count("sim.cycles_per_op", "ratio", Better::Lower),
    count("sim.l1_miss_ratio", "ratio", Better::Lower),
    count("sim.net_msgs_per_op", "ratio", Better::Lower),
    count("sim.squashes_per_kop", "ratio", Better::Lower),
    // mcm: the axiomatic checker inside the loop.
    timing("mcm.check_us", "us"),
    count("mcm.events_per_exec", "count", Better::Lower),
    count("mcm.axiom_evals_per_check", "count", Better::Lower),
    count("mcm.closure_row_sweeps_per_check", "count", Better::Lower),
    // mcm / conformance: each engine on the same captured executions.
    count("mcm.dup_exec_share", "ratio", Better::Higher),
    timing("mcm.signature_us", "us"),
    timing("mcm.cycle_oracle_us", "us"),
    count("mcm.cycle_oracle_certified_share", "ratio", Better::Higher),
    timing("conformance.vc_us", "us"),
    count("conformance.vc_certified_share", "ratio", Better::Higher),
    // testgen / core / analysis: everything around simulate and check.
    timing("testgen.generate_us", "us"),
    timing("testgen.feedback_us", "us"),
    timing("testgen.ndt_us", "us"),
    timing("core.fitness_us", "us"),
    timing("core.lower_us", "us"),
    timing("analysis.classify_us", "us"),
    // testgen: time to detection on the pinned cells (NF = 1.0).
    count("testgen.detect_norm_time", "ratio", Better::Lower),
    timing("testgen.detect_s", "s"),
    // fabric: the multi-process path (0 on the in-process workloads).
    timing("fabric.dispatch_ms", "ms"),
    varying("fabric.scaling", "ratio", Better::Higher),
    count("fabric.dispatches", "count", Better::Lower),
    // Which worker steals depends on timing, and results carry wall times.
    varying("fabric.steals", "count", Better::Lower),
    varying("fabric.journal_bytes_per_run", "B", Better::Lower),
    // Whether the table above means anything.
    timing("core.loop_other_share", "ratio"),
    timing("telemetry.trace_overhead_share", "ratio"),
];

#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Test-runs measured plus checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// `sim_fingerprint` of the pinned sample(s).
    pub fingerprint: String,
    /// Sample counts and every failed check, for a reader.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Counts one correctness check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.note(format!("FAILED: {why}"));
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being every entry of `table`.
    pub fn result_value(&self, table: &[Metric]) -> Result<Value, String> {
        let mut metrics = Vec::new();
        for metric in table {
            let value = self
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            metrics.push((
                metric.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(metric.unit.to_string())),
                ]),
            ));
        }
        Ok(Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]))
    }
}

fn object(entries: &[(&str, Value)]) -> Value {
    Value::Object(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `BENCHMARK.json`, generated from the tables (a unit test keeps the file
/// at the root of the repo equal to this).
pub fn benchmark_json() -> String {
    let command = ["sh", "benchmark/run.sh"];
    let metric = |m: &Metric| {
        let mut entries = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            entries.push(("bound", Value::Float(bound)));
        }
        object(&entries)
    };
    let value = object(&[
        (
            "command",
            Value::Array(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(&[("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    let mut json = serde_json::to_string_pretty(&value).expect("serialization is infallible");
    json.push('\n');
    json
}

/// `list`: names, units, directions and bounds.
pub fn list() -> String {
    let mut out = String::new();
    out.push_str("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<16} {}\n", w.name, w.why));
    }
    for (title, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        out.push_str(&format!("{title}:\n"));
        for m in table {
            let bound = match (m.bound, m.exact) {
                (Some(b), _) => format!("may worsen by {:.0} %", b * 100.0),
                (None, true) => "exact count".to_string(),
                (None, false) => "no bound".to_string(),
            };
            out.push_str(&format!(
                "  {:<36} {:<6} {:<7} {bound}\n",
                m.name,
                m.unit,
                m.better.as_str()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `bench_snapshot list --json > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        for m in &END_TO_END {
            report.set(m.name, 1.5);
        }
        report.check(Ok(()));
        report.check(Err("boom".to_string()));
        let value = report.result_value(&END_TO_END).expect("all metrics set");
        let keys: Vec<&str> = value
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(value.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(value.get("attempted"), Some(&Value::UInt(2)));
        assert_eq!(
            value.get("metrics").and_then(|m| m.get("setup_s")),
            Some(&object(&[
                ("value", Value::Float(1.5)),
                ("unit", text("s"))
            ]))
        );
        assert!(Report::default().result_value(&END_TO_END).is_err());
    }
}
