//! The suite: every workload, repeated so the result carries its own noise
//! estimate.
//!
//! The parent starts itself once per run (`--workload ... --trace 0`), one
//! child at a time, round-robin over the workloads for `--reps` rounds, so
//! that drift of the host hits all workloads alike. A fixed arithmetic loop
//! is timed before and after every child; a rep during which the host ran
//! more than 15% off the session's median speed is run again (at most two
//! extra per workload). Every end-to-end metric is then a median with
//! quartiles and count. One traced run per workload follows and gives the
//! per-layer numbers. Everything is written to `results.json`, which
//! `asdfbench compare` reads.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use asdf_obs::json::Value;

use crate::json;
use crate::metrics::{
    MetricDef, END_TO_END, END_TO_END_WHERE_OBSERVABLE, NOT_OBSERVABLE, PER_LAYER,
};
use crate::stats::{median, Summary};
use crate::workloads::{workloads, SUITE_ONLY};

/// A rep whose calibration is further than this from the session median is
/// re-run.
const CALIBRATION_TOLERANCE: f64 = 0.15;
const MAX_RERUNS_PER_WORKLOAD: usize = 2;

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Milliseconds a fixed piece of integer arithmetic takes right now.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = 1u64;
    for i in 0..30_000_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i | 1);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// What one child run printed.
#[derive(Debug, Clone)]
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The contract line's metrics.
    metrics: Vec<(String, f64)>,
    /// The detail line's `extra` metrics.
    extra: Vec<(String, f64)>,
    verdict_ms: Vec<f64>,
    digest: String,
    passes: u64,
    failed_checks: Vec<String>,
    trace_file: Option<String>,
    /// The calibration loop's time before and after the run.
    calibration_ms: (f64, f64),
}

fn metric_list(obj: Option<&Value>) -> Vec<(String, f64)> {
    let Some(Value::Object(map)) = obj else {
        return Vec::new();
    };
    map.iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

fn run_child(args: &SuiteArgs, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let before = calibrate();
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let after = calibrate();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parsed = (|| {
        let contract = asdf_obs::json::parse(lines.next()?).ok()?;
        let detail = asdf_obs::json::parse(lines.next()?).ok()?;
        let failed_checks = detail
            .get("checks")?
            .as_array()?
            .iter()
            .filter(|c| c.get("ok") != Some(&Value::Bool(true)))
            .map(|c| {
                format!(
                    "{}: {}",
                    c.get("name").and_then(Value::as_str).unwrap_or("?"),
                    c.get("detail").and_then(Value::as_str).unwrap_or("")
                )
            })
            .collect();
        Some(ChildRun {
            correct: contract.get("correct")? == &Value::Bool(true),
            attempted: contract.get("attempted")?.as_f64()? as u64,
            failed: contract.get("failed")?.as_f64()? as u64,
            metrics: metric_list(contract.get("metrics")),
            extra: metric_list(detail.get("extra")),
            verdict_ms: detail
                .get("verdict_ms")?
                .as_array()?
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
            digest: detail.get("digest")?.as_str()?.to_owned(),
            passes: detail.get("passes")?.as_f64()? as u64,
            failed_checks,
            trace_file: detail.get("trace_file")?.as_str().map(str::to_owned),
            calibration_ms: (before, after),
        })
    })();
    parsed.ok_or_else(|| {
        format!(
            "run of {workload} (exit {}) printed no result:\n{}{}",
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

impl ChildRun {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .filter(|v| *v != NOT_OBSERVABLE)
    }

    fn off_calibration(&self, session_median: f64) -> bool {
        let off = |ms: f64| (ms / session_median - 1.0).abs() > CALIBRATION_TOLERANCE;
        off(self.calibration_ms.0) || off(self.calibration_ms.1)
    }
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn summary_json(def: &MetricDef, s: &Summary, pooled: Option<usize>) -> String {
    format!(
        "{}:{{\"unit\":{},\"better\":{},\"bound\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"runs\":{}{}}}",
        json::string(def.name),
        json::string(def.unit),
        json::string(def.better),
        json::number(def.bound),
        json::number(s.median),
        json::number(s.q1),
        json::number(s.q3),
        s.runs.len(),
        json::numbers(&s.runs),
        pooled.map_or(String::new(), |n| format!(",\"pooled_samples\":{n}"))
    )
}

/// Runs the whole suite; `Ok(false)` when any check failed.
pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    let names: Vec<&str> = workloads(args.smoke).iter().map(|w| w.name).collect();
    let reps = args.reps.max(1);
    let commit = commit();
    println!(
        "asdfbench suite: {} workloads x {reps} reps x {} s, seed {}, nproc {}, simd {}, commit {}",
        names.len(),
        args.seconds,
        args.seed,
        crate::run::nproc(),
        asdf_modules::kernel::simd_dispatch(),
        commit
    );
    let mut runs: Vec<Vec<ChildRun>> = vec![Vec::new(); names.len()];
    for round in 0..reps {
        for (w, name) in names.iter().enumerate() {
            eprintln!("[asdfbench] round {}/{reps}: {name}", round + 1);
            runs[w].push(run_child(args, name, false)?);
        }
    }
    let calibrations: Vec<f64> = runs
        .iter()
        .flatten()
        .flat_map(|r| [r.calibration_ms.0, r.calibration_ms.1])
        .collect();
    let session = median(&calibrations);
    let mut discarded = vec![0usize; names.len()];
    for (w, name) in names.iter().enumerate() {
        for rep in 0..runs[w].len() {
            if runs[w][rep].off_calibration(session) && discarded[w] < MAX_RERUNS_PER_WORKLOAD {
                eprintln!("[asdfbench] {name} rep {rep} ran on a disturbed host; running it again");
                runs[w][rep] = run_child(args, name, false)?;
                discarded[w] += 1;
            }
        }
    }
    let mut traced = Vec::new();
    for name in &names {
        eprintln!("[asdfbench] traced run: {name}");
        traced.push(run_child(args, name, true)?);
    }

    let mut ok = true;
    let mut text = String::new();
    let mut workloads_json = Vec::new();
    for (w, name) in names.iter().enumerate() {
        let reps = &runs[w];
        let _ = writeln!(
            text,
            "\n{name}  ({} reps, {} discarded for calibration, digest {}){}",
            reps.len(),
            discarded[w],
            reps[0].digest,
            if SUITE_ONLY.contains(name) {
                "  [suite only: too unsteady for BENCHMARK.json]"
            } else {
                ""
            }
        );
        let mut failures: Vec<String> = reps
            .iter()
            .chain([&traced[w]])
            .flat_map(|r| r.failed_checks.iter().cloned())
            .collect();
        if reps
            .iter()
            .chain([&traced[w]])
            .any(|r| r.digest != reps[0].digest)
        {
            failures.push("verdict digests differ between runs of one seed".to_owned());
        }
        let failed: u64 = reps.iter().chain([&traced[w]]).map(|r| r.failed).sum();
        if failed > 0 || reps.iter().chain([&traced[w]]).any(|r| !r.correct) {
            failures.push(format!("{failed} failed operations"));
        }

        let mut e2e_json = Vec::new();
        for def in END_TO_END.iter().chain(END_TO_END_WHERE_OBSERVABLE) {
            let values: Vec<f64> = reps.iter().filter_map(|r| r.value(def.name)).collect();
            if values.is_empty() {
                let _ = writeln!(text, "  {:<26} not observable on this workload", def.name);
                continue;
            }
            let mut s = Summary::of(&values);
            let mut pooled = None;
            if def.name == "verdict_ms_p50" {
                // One median over every verdict tick of every rep; the
                // quartiles stay those of the per-rep medians.
                let all: Vec<f64> = reps
                    .iter()
                    .flat_map(|r| r.verdict_ms.iter().copied())
                    .collect();
                s.median = median(&all);
                pooled = Some(all.len());
            }
            let _ = writeln!(
                text,
                "  {:<26} {:>14.6} {:<3} [{:.6} .. {:.6}] n={} spread {:.1}% bound {:.0}%{}",
                def.name,
                s.median,
                def.unit,
                s.q1,
                s.q3,
                s.runs.len(),
                100.0 * s.spread(),
                100.0 * def.bound,
                pooled.map_or(String::new(), |n| format!(" ({n} verdict ticks pooled)"))
            );
            if def.bound == 0.0 && s.runs.iter().any(|v| *v != s.runs[0]) {
                failures.push(format!("{} must repeat exactly: {:?}", def.name, s.runs));
            }
            e2e_json.push(summary_json(def, &s, pooled));
        }
        if let Some(wall) = reps
            .iter()
            .filter_map(|r| r.value("wall_ms_per_monitored_s"))
            .next()
        {
            let _ = writeln!(text, "  headroom about {:.0}x real time", 1000.0 / wall);
        }
        let per_pass = reps[0].attempted / reps[0].passes.max(1);
        let _ = writeln!(
            text,
            "  operations per pass {per_pass}, failed {failed}; trace {}",
            traced[w]
                .trace_file
                .as_deref()
                .unwrap_or("none (black box)")
        );
        let _ = writeln!(
            text,
            "  per layer (one traced run; -1 = not observable here):"
        );
        let mut layer_json = Vec::new();
        // In the order of the table, not the parsed object's.
        for def in PER_LAYER {
            let Some(value) = traced[w]
                .metrics
                .iter()
                .find(|(name, _)| name == def.name)
                .map(|(_, value)| *value)
            else {
                failures.push(format!("traced run did not print {}", def.name));
                continue;
            };
            if value != NOT_OBSERVABLE {
                let _ = writeln!(text, "    {:<40} {value:>16.6} {}", def.name, def.unit);
            }
            layer_json.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(def.name),
                json::number(value),
                json::string(def.unit)
            ));
        }
        for failure in &failures {
            let _ = writeln!(text, "  FAILED {failure}");
        }
        ok &= failures.is_empty();
        workloads_json.push(format!(
            "{}:{{\"digest\":{},\"attempted_per_pass\":{per_pass},\"failed\":{failed},\"reps_discarded\":{},\"trace_file\":{},\"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
            json::string(name),
            json::string(&reps[0].digest),
            discarded[w],
            traced[w].trace_file.as_deref().map_or("null".to_owned(), json::string),
            e2e_json.join(","),
            layer_json.join(",")
        ));
    }
    // Same inputs, other scheduling: the sharded fleet run must rank
    // exactly as the serial one of this very invocation did.
    let digest_of = |name: &str| {
        names
            .iter()
            .position(|n| *n == name)
            .map(|w| runs[w][0].digest.clone())
    };
    let (serial, sharded) = (digest_of("fleet5000_rank"), digest_of("fleet5000_rank_mt"));
    if serial != sharded {
        let _ = writeln!(
            text,
            "\nFAILED fleet5000_rank_mt ranked differently from fleet5000_rank: {sharded:?} vs {serial:?}"
        );
        ok = false;
    }
    print!("{text}");

    let results = format!(
        "{{\"schema\":1,\"commit\":{},\"nproc\":{},\"simd\":{},\"seed\":{},\"reps\":{reps},\"seconds\":{},\"smoke\":{},\"calibration_ms\":{},\"workloads\":{{{}}}}}\n",
        json::string(&commit),
        crate::run::nproc(),
        json::string(asdf_modules::kernel::simd_dispatch()),
        args.seed,
        json::number(args.seconds),
        args.smoke,
        json::number(session),
        workloads_json.join(",")
    );
    let path = args.out_dir.join("results.json");
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, results))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "\n{}: results in {}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        path.display()
    );
    Ok(ok)
}
