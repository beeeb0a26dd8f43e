//! Whole-run tests at `--smoke` size, and the consistency of the files that
//! describe the benchmark.

use std::path::PathBuf;
use std::sync::Arc;

use asdf_obs::json::Value;

use crate::compare::compare_files;
use crate::metrics::{MetricDef, END_TO_END, NOT_OBSERVABLE, PER_LAYER};
use crate::run::{run_workload, RunArgs};
use crate::workloads::{train, workloads, Kind, SUITE_ONLY};

/// A directory of this test's own under the build's target directory.
fn out_dir(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test executable");
    let dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("target directory")
        .join("asdfbench-tests")
        .join(name);
    std::fs::create_dir_all(&dir).expect("test directory");
    dir
}

#[test]
fn smoke_runs_all_five_workloads_and_all_checks() {
    let model = train(3, true);
    let all = workloads(true);
    assert_eq!(all.len(), 5);
    for workload in &all {
        let needs_model = match &workload.kind {
            Kind::Dag(spec) => {
                assert!(spec.nodes <= 20 && spec.monitored_s <= 120);
                spec.needs_model()
            }
            Kind::Serve(spec) => {
                assert!(spec.slaves <= 20 && spec.steps <= 120);
                true
            }
        };
        for trace in [false, true] {
            let args = RunArgs {
                workload: workload.name.to_owned(),
                seed: 3,
                seconds: 0.0,
                trace,
                smoke: true,
                out_dir: out_dir("smoke"),
            };
            let trained = needs_model.then(|| (Arc::clone(&model), 0.25));
            let outcome = run_workload(&args, workload, trained).expect("the run completes");
            assert!(
                outcome.correct,
                "{} trace={trace}:\n{}",
                workload.name, outcome.report
            );
            assert!(outcome.attempted >= 1);
            assert_eq!(outcome.failed, 0);

            let defs = if trace { PER_LAYER } else { END_TO_END };
            let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(printed, expected);
            let value = |name: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .expect("metric printed")
            };
            if !trace {
                for m in &outcome.metrics {
                    // A smoke pass is shorter than the 10 ms CPU clock tick.
                    let floor = if m.name == "cpu_ms_per_monitored_s" {
                        -1.0
                    } else {
                        0.0
                    };
                    assert!(
                        m.value > floor,
                        "{} = {} on {}",
                        m.name,
                        m.value,
                        workload.name
                    );
                }
            } else if let Kind::Dag(spec) = &workload.kind {
                // The budget is there, and the layers this workload does
                // not wire in did nothing.
                assert!(value("asdf_modules.sadc.busy_ms") > 0.0);
                assert!(value("asdf_core.engine.self_ms") > 0.0);
                assert_eq!(value("asdf_modules.sadc.calls"), spec.nodes as f64);
                if !spec.black_box {
                    assert_eq!(value("asdf_modules.knn.busy_ms"), 0.0);
                    assert_eq!(value("asdf_modules.hadoop_log.busy_ms"), 0.0);
                    assert!(value("asdf_modules.rack_agg.busy_ms") > 0.0);
                } else {
                    assert_eq!(value("asdf_modules.rack_agg.busy_ms"), 0.0);
                    assert!(value("asdf_modules.knn.busy_ms") > 0.0);
                }
                assert_eq!(value("asdf.serve.feed_s"), NOT_OBSERVABLE);
                let path = outcome.trace_file.as_ref().expect("a trace was written");
                let text = std::fs::read_to_string(path).expect("trace readable");
                let check = asdf_obs::export::validate_chrome_trace(&text).expect("trace valid");
                assert!(check.n_events as u64 > spec.monitored_s / spec.slide as u64);
            } else {
                assert!(value("asdf.serve.feed_s") > 0.0);
                assert!(value("asdf.serve.feeder_only_s") > 0.0);
                assert_eq!(value("asdf.serve.shed_frames"), 0.0);
                assert_eq!(value("asdf_modules.knn.busy_ms"), NOT_OBSERVABLE);
            }

            // The last line is the contract's: exactly these four keys.
            let line = asdf_obs::json::parse(&outcome.contract_line()).expect("valid JSON");
            let Value::Object(keys) = &line else {
                panic!("result is not an object");
            };
            let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            asdf_obs::json::parse(&outcome.detail_line()).expect("detail line is JSON");
        }
    }
}

fn defs_of(doc: &Value, key: &str) -> Vec<(String, String, String, f64)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("a string")
                    .to_owned()
            };
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            (text("name"), text("unit"), text("better"), bound)
        })
        .collect()
}

fn defs(table: &[MetricDef]) -> Vec<(String, String, String, f64)> {
    table
        .iter()
        .map(|d| {
            (
                d.name.to_owned(),
                d.unit.to_owned(),
                d.better.to_owned(),
                d.bound,
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_program_prints() {
    let doc = asdf_obs::json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(defs_of(&doc, "end_to_end"), defs(END_TO_END));
    assert_eq!(defs_of(&doc, "per_layer"), defs(PER_LAYER));
    assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    let named: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let built: Vec<&str> = workloads(false).iter().map(|w| w.name).collect();
    let listed: Vec<&str> = built
        .iter()
        .copied()
        .filter(|name| !SUITE_ONLY.contains(name))
        .collect();
    assert_eq!(named, listed);
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    names.extend(&built);
    for name in &names {
        assert!(name.len() <= 64, "{name}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "every name is used once");
}

fn results(wall_runs: [f64; 5], detect: f64) -> String {
    let s = crate::stats::Summary::of(&wall_runs);
    format!(
        "{{\"schema\":1,\"commit\":\"test\",\"seed\":1,\"workloads\":{{\"w\":{{\"digest\":\"00\",\
         \"attempted_per_pass\":10,\"failed\":0,\"end_to_end\":{{\
         \"wall_ms_per_monitored_s\":{{\"unit\":\"ms\",\"better\":\"lower\",\"bound\":0.1,\
         \"median\":{},\"q1\":{},\"q3\":{},\"n\":5,\"runs\":{}}},\
         \"detect_latency_s\":{{\"unit\":\"s\",\"better\":\"lower\",\"bound\":0,\
         \"median\":{detect},\"q1\":{detect},\"q3\":{detect},\"n\":5,\"runs\":[{detect},{detect}]}}}}}}}}}}",
        s.median,
        s.q1,
        s.q3,
        crate::json::numbers(&s.runs)
    )
}

#[test]
fn compare_passes_equal_sets_and_fails_regressions() {
    let dir = out_dir("compare");
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("results written");
        path
    };
    let base = write("a.json", results([10.0, 10.1, 9.9, 10.2, 9.8], 59.0));
    let again = write("b.json", results([10.1, 10.0, 9.9, 10.3, 9.9], 59.0));
    let slower = write("c.json", results([12.0, 12.1, 11.9, 12.2, 11.8], 59.0));
    let later = write("d.json", results([10.0, 10.1, 9.9, 10.2, 9.8], 119.0));
    assert_eq!(compare_files(&base, &again), Ok(true));
    assert_eq!(compare_files(&base, &slower), Ok(false));
    assert_eq!(compare_files(&slower, &base), Ok(true));
    assert_eq!(
        compare_files(&base, &later),
        Ok(false),
        "deterministic values must repeat"
    );
    assert!(compare_files(&base, &dir.join("missing.json")).is_err());
}
