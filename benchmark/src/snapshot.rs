//! Snapshots: `all` runs every workload untraced and traced and keeps the
//! results as one *run set*; a snapshot file holds run sets; `diff` judges
//! one against another with the bounds of the metric table.

use crate::metrics::{Better, Metric, Report, END_TO_END, PER_LAYER, TIME_CAP_FACTOR};
use crate::run::Plan;
use crate::stats::median;
use crate::workload::WORKLOADS;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
}

/// Both runs of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// FNV over the simulated statistics of the pinned samples; the
    /// untraced and the traced run must agree on it, and so must two
    /// commits that simulate the same thing.
    pub sim_fingerprint: String,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Measured>,
    pub per_layer: BTreeMap<String, Measured>,
    pub notes: Vec<String>,
}

/// One `all`: every workload, on one seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSet {
    pub seed: u64,
    pub run_seconds: f64,
    pub scale: f64,
    /// By how much the contract's time cap cut the issue's run lengths.
    pub time_cap_factor: f64,
    pub nproc: usize,
    pub rustc: String,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    pub run_sets: Vec<RunSet>,
}

/// The line a run prints before its result line: what the contract's result
/// object has no key for.
pub fn detail_line(flags: &crate::Flags, report: &Report) -> String {
    let detail = Value::Object(vec![
        (
            "workload".to_string(),
            flags.workload.clone().unwrap_or_default().to_value(),
        ),
        ("seed".to_string(), Value::UInt(flags.plan.seed)),
        (
            "sim_fingerprint".to_string(),
            Value::Str(report.fingerprint.clone()),
        ),
        ("notes".to_string(), report.notes.to_value()),
    ]);
    let line = Value::Object(vec![("detail".to_string(), detail)]);
    serde_json::to_string(&line).expect("serialization is infallible")
}

/// What one run of this binary printed.
struct ChildRun {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
    sim_fingerprint: String,
    notes: Vec<String>,
}

fn field<T: Deserialize>(value: &Value, key: &str) -> Result<T, String> {
    let found = value.get(key).ok_or_else(|| format!("missing `{key}`"))?;
    serde_json::from_value(found).map_err(|e| format!("`{key}`: {e}"))
}

/// Runs this binary once on one workload and parses its last two lines.
fn child_run(workload: &str, plan: &Plan, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--scale", &plan.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!("{workload}: no result line"));
    };
    let parse = |line: &str| {
        serde_json::value_from_str(line).map_err(|e| format!("{workload}: bad output line: {e}"))
    };
    let (result, detail) = (parse(result)?, parse(detail)?);
    let detail = detail
        .get("detail")
        .ok_or_else(|| format!("{workload}: no detail line"))?;
    Ok(ChildRun {
        attempted: field(&result, "attempted")?,
        failed: field(&result, "failed")?,
        metrics: field(&result, "metrics")?,
        sim_fingerprint: field(detail, "sim_fingerprint")?,
        notes: field(detail, "notes")?,
    })
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `all`: every workload untraced then traced, each run a process of its
/// own (peak memory is per workload, and telemetry, once on, stays on).
/// Prints every metric by name with its unit; returns whether every check
/// of every run passed.
pub fn all(plan: &Plan, out: Option<&str>) -> Result<bool, String> {
    let mut set = RunSet {
        seed: plan.seed,
        run_seconds: plan.seconds,
        scale: plan.scale,
        time_cap_factor: TIME_CAP_FACTOR,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: rustc_version(),
        workloads: BTreeMap::new(),
    };
    for workload in &WORKLOADS {
        let untraced = child_run(workload.name, plan, false)?;
        let traced = child_run(workload.name, plan, true)?;
        let mut result = WorkloadResult {
            sim_fingerprint: untraced.sim_fingerprint,
            // The last check: two processes, one seed, and the pinned
            // samples must simulate alike.
            attempted: untraced.attempted + traced.attempted + 1,
            failed: untraced.failed + traced.failed,
            end_to_end: untraced.metrics,
            per_layer: traced.metrics,
            notes: untraced.notes.into_iter().chain(traced.notes).collect(),
        };
        if traced.sim_fingerprint != result.sim_fingerprint {
            result.failed += 1;
            result
                .notes
                .push("FAILED: untraced and traced runs disagree on sim_fingerprint".to_string());
        }
        println!(
            "{}: sim_fingerprint {}, {} of {} checks and test-runs failed",
            workload.name, result.sim_fingerprint, result.failed, result.attempted
        );
        for note in &result.notes {
            println!("  note: {note}");
        }
        for (table, values) in [
            (&END_TO_END[..], &result.end_to_end),
            (&PER_LAYER[..], &result.per_layer),
        ] {
            for metric in table {
                let measured = values
                    .get(metric.name)
                    .ok_or_else(|| format!("{}: {} missing", workload.name, metric.name))?;
                println!(
                    "  {:<36} {:>16.4} {}",
                    metric.name, measured.value, measured.unit
                );
            }
        }
        set.workloads.insert(workload.name.to_string(), result);
    }
    let correct = set.workloads.values().all(|w| w.failed == 0);
    if let Some(path) = out {
        let mut snapshot = match std::fs::read_to_string(path) {
            Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?,
            Err(_) => Snapshot {
                run_sets: Vec::new(),
            },
        };
        snapshot.run_sets.push(set);
        let mut json =
            serde_json::to_string_pretty(&snapshot).expect("serialization is infallible");
        json.push('\n');
        std::fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("run set {} of {path}", snapshot.run_sets.len() - 1);
    }
    Ok(correct)
}

/// Loads the run sets `selector` names: `file.json:2` is the third run set
/// of the file, `file.json` every run set on the seed of its first one.
fn select(selector: &str) -> Result<Vec<RunSet>, String> {
    let (path, index) = match selector.rsplit_once(':') {
        Some((path, index)) if index.parse::<usize>().is_ok() => (path, index.parse().ok()),
        _ => (selector, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let snapshot: Snapshot = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let sets: Vec<RunSet> = match index {
        Some(index) => snapshot.run_sets.into_iter().skip(index).take(1).collect(),
        None => {
            let seed = snapshot.run_sets.first().map(|s| s.seed);
            snapshot
                .run_sets
                .into_iter()
                .filter(|s| Some(s.seed) == seed)
                .collect()
        }
    };
    if sets.is_empty() {
        return Err(format!("`{selector}` names no run set"));
    }
    Ok(sets)
}

/// The verdict on one metric, given every run of both sides.
///
/// A timing is `worse` (`better`) when the new median is worse (better) than
/// the base median by more than the bound, and `unresolved` when the runs of
/// either side spread wider than the bound — unless every new run reads
/// better, or every new run worse, than every base run.  A count that
/// repeats exactly is `same` or `differs`.  A timing without a bound is
/// reported, not judged.
pub fn verdict(metric: &Metric, base: &[f64], new: &[f64]) -> &'static str {
    if metric.exact {
        return if base == new || (median(base) == median(new)) {
            "same"
        } else {
            "differs"
        };
    }
    let Some(bound) = metric.bound else {
        return "-";
    };
    // Orient so that larger is worse.
    let orient = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .map(|&x| {
                if metric.better == Better::Higher {
                    -x
                } else {
                    x
                }
            })
            .collect()
    };
    let (base, new) = (orient(base), orient(new));
    let scale = median(&base).abs();
    if scale == 0.0 {
        return "-";
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let spread = (max(&base) - min(&base)).max(max(&new) - min(&new)) / scale;
    let separated = max(&new) < min(&base) || min(&new) > max(&base);
    let worsening = (median(&new) - median(&base)) / scale;
    if spread > bound && !separated {
        "unresolved"
    } else if worsening > bound {
        "worse"
    } else if worsening < -bound {
        "better"
    } else {
        "within"
    }
}

/// `diff`: one row per (workload, metric); `Ok(false)` on any `worse`.
pub fn diff(base: &str, new: &str) -> Result<bool, String> {
    let (base, new) = (select(base)?, select(new)?);
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    for workload in &WORKLOADS {
        let of = |sets: &[RunSet]| -> Vec<WorkloadResult> {
            sets.iter()
                .filter_map(|s| s.workloads.get(workload.name).cloned())
                .collect()
        };
        let (base, new) = (of(&base), of(&new));
        if base.is_empty() || new.is_empty() {
            return Err(format!("{} is missing from a snapshot", workload.name));
        }
        let fingerprints = |side: &[WorkloadResult]| -> Vec<String> {
            let mut all: Vec<String> = side.iter().map(|w| w.sim_fingerprint.clone()).collect();
            all.dedup();
            all
        };
        let (fp_base, fp_new) = (fingerprints(&base), fingerprints(&new));
        let fp_verdict = if fp_base == fp_new && fp_base.len() == 1 {
            "same"
        } else {
            "differs"
        };
        *counts.entry(fp_verdict).or_default() += 1;
        println!(
            "{:<14} {:<36} {:>14} {:>14} {:>7}  {fp_verdict}",
            workload.name,
            "sim_fingerprint",
            &fp_base[0][..12],
            &fp_new[0][..12],
            ""
        );
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let values = |side: &[WorkloadResult]| -> Vec<f64> {
                side.iter()
                    .filter_map(|w| {
                        w.end_to_end
                            .get(metric.name)
                            .or_else(|| w.per_layer.get(metric.name))
                    })
                    .map(|m| m.value)
                    .collect()
            };
            let (b, n) = (values(&base), values(&new));
            if b.is_empty() || n.is_empty() {
                return Err(format!(
                    "{}: {} is missing from a snapshot",
                    workload.name, metric.name
                ));
            }
            let (mb, mn) = (median(&b), median(&n));
            if mb == 0.0 && mn == 0.0 {
                continue; // a layer the workload does not reach
            }
            let verdict = verdict(metric, &b, &n);
            *counts.entry(verdict).or_default() += 1;
            println!(
                "{:<14} {:<36} {:>14.4} {:>14.4} {:>7.3}  {verdict}",
                workload.name,
                metric.name,
                mb,
                mn,
                mn / mb
            );
        }
    }
    let summary: Vec<String> = counts
        .iter()
        .filter(|(v, _)| **v != "-")
        .map(|(v, n)| format!("{n} {v}"))
        .collect();
    println!("{}", summary.join(", "));
    Ok(!counts.contains_key("worse"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        crate::metrics::find(name).expect("metric")
    }

    #[test]
    fn snapshot_round_trips_through_the_vendored_serde() {
        let measured = |value: f64, unit: &str| Measured {
            value,
            unit: unit.to_string(),
        };
        let snapshot = Snapshot {
            run_sets: vec![RunSet {
                seed: 1000,
                run_seconds: 16.0,
                scale: 1.0,
                time_cap_factor: 0.8,
                nproc: 2,
                rustc: "rustc 1.95.0".to_string(),
                workloads: BTreeMap::from([(
                    "litmus-mesi".to_string(),
                    WorkloadResult {
                        sim_fingerprint: "00ff00ff00ff00ff".to_string(),
                        attempted: 321,
                        failed: 0,
                        end_to_end: BTreeMap::from([(
                            "runs_per_s".to_string(),
                            measured(19.238319605753134, "1/s"),
                        )]),
                        per_layer: BTreeMap::from([(
                            "sim.cycles_total".to_string(),
                            measured(1_234_567.0, "count"),
                        )]),
                        notes: vec!["308 test-runs in 16.010 s".to_string()],
                    },
                )]),
            }],
        };
        let json = serde_json::to_string_pretty(&snapshot).expect("serializes");
        let back: Snapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snapshot);
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let rate = Metric {
            name: "rate",
            unit: "1/s",
            better: Better::Higher,
            bound: Some(0.05),
            exact: false,
        };
        assert_eq!(verdict(&rate, &[100.0], &[102.0]), "within");
        assert_eq!(verdict(&rate, &[100.0], &[90.0]), "worse");
        assert_eq!(verdict(&rate, &[100.0], &[110.0]), "better");
        // Runs of one side spread wider than the bound and the sides overlap.
        assert_eq!(
            verdict(&rate, &[100.0, 108.0], &[99.0, 104.0]),
            "unresolved"
        );
        // Wide spread, but every new run beats every base run.
        assert_eq!(verdict(&rate, &[100.0, 108.0], &[120.0, 130.0]), "better");
        let latency = Metric {
            better: Better::Lower,
            ..rate
        };
        assert_eq!(verdict(&latency, &[10.0], &[11.0]), "worse");
        assert_eq!(verdict(&latency, &[10.0], &[9.0]), "better");
        let cycles = metric("sim.cycles_total");
        assert_eq!(verdict(cycles, &[5.0, 5.0], &[5.0]), "same");
        assert_eq!(verdict(cycles, &[5.0], &[6.0]), "differs");
        assert_eq!(verdict(metric("mcm.check_us"), &[5.0], &[9.0]), "-");
    }
}
