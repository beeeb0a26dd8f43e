//! `perfwatch` — the perf-regression watchdog.
//!
//! The reproduction's benchmark suite appends one schema-versioned record
//! per run to `BENCH_history.jsonl` ([`history`]). This module watches
//! that series with [`edivisive`] — E-Divisive-mean change-point
//! detection per metric, the technique MongoDB's performance CI uses:
//! nonparametric, needs no baseline labels, localizes *when* a metric's
//! distribution shifted and by how much.
//!
//! [`analyze`] is parse → keep the records from the newest record's host
//! (a different core count or vector width is a different population,
//! not a regression) → E-Divisive per metric the newest record still
//! carries (the others are retired series, counted and named but not
//! re-judged) → ranked findings in a [`report::PerfwatchReport`]; the `asdf perfwatch` subcommand renders
//! it as markdown or JSON. The watchdog is **advisory**: it ranks
//! evidence and always exits cleanly, leaving gating decisions to humans
//! (see DESIGN.md §Perfwatch).

pub mod edivisive;
pub mod history;
pub mod report;

use std::collections::{BTreeMap, BTreeSet};

pub use edivisive::{detect, ChangePoint};
pub use history::{parse_history, render_record, utc_from_epoch, HistoryError, HistoryRecord};
pub use report::{MetricFinding, PerfwatchReport};

/// Minimum points a metric series needs before change-point detection
/// considers it.
pub const MIN_POINTS: usize = 8;

/// Runs the watchdog over a `BENCH_history.jsonl` document: parses the
/// records (legacy schema-0 lines included), runs E-Divisive per metric
/// the newest record carries over the records from its host, and ranks
/// the findings.
///
/// # Errors
///
/// [`HistoryError`] when the history itself is unreadable. A history too
/// short to analyze is *not* an error — the report simply carries no
/// findings (the watchdog is advisory and must be safe to run from the
/// very first record).
pub fn analyze(history_text: &str) -> Result<PerfwatchReport, HistoryError> {
    let records = parse_history(history_text)?;
    let n_records = records.len();
    let n_schema0 = records.iter().filter(|r| r.schema == 0).count();
    let span_utc = match (records.first(), records.last()) {
        (Some(a), Some(b)) => (a.utc.clone(), b.utc.clone()),
        _ => ("-".to_owned(), "-".to_owned()),
    };

    // One host population per analysis: a row recorded on another core
    // count or vector width steps every timing for a reason that is not a
    // commit, so only rows from the newest row's host form the series.
    let population = records
        .last()
        .map_or((0, "unknown".to_owned()), |r| (r.cores, r.simd.clone()));
    let same_host = |r: &&HistoryRecord| r.cores == population.0 && r.simd == population.1;
    let n_set_aside = n_records - records.iter().filter(same_host).count();

    // Per-metric series over the records that carry the metric (schemas
    // may add metrics over time; E-Divisive runs per metric on whatever
    // subsequence exists). A metric the newest record no longer carries is
    // a retired series: its frozen history is named, not ranked again on
    // every run.
    let current = records.last().map(|r| &r.metrics);
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut retired: BTreeSet<String> = BTreeSet::new();
    for r in records.iter().filter(same_host) {
        for (name, v) in &r.metrics {
            if current.is_some_and(|m| m.contains_key(name)) {
                series.entry(name.clone()).or_default().push(*v);
            } else {
                retired.insert(name.clone());
            }
        }
    }

    let mut findings: Vec<MetricFinding> = series
        .iter()
        .map(|(metric, xs)| MetricFinding {
            metric: metric.clone(),
            n_points: xs.len(),
            change_points: if xs.len() >= MIN_POINTS {
                detect(xs)
            } else {
                Vec::new()
            },
        })
        .collect();
    // Loudest metrics first; quiet ones keep alphabetical order.
    findings.sort_by(|a, b| {
        b.max_abs_shift_pct()
            .partial_cmp(&a.max_abs_shift_pct())
            .expect("finite shifts")
            .then_with(|| a.metric.cmp(&b.metric))
    });

    Ok(PerfwatchReport {
        n_records,
        n_schema0,
        span_utc,
        population,
        n_set_aside,
        retired: retired.into_iter().collect(),
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_history(n: usize, step_at: usize) -> String {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let mut noise = |base: f64| base * (1.0 + 0.01 * rng.gen_range(-1.0..1.0));
        (0..n)
            .map(|i| {
                let mut r = HistoryRecord {
                    schema: history::HISTORY_SCHEMA,
                    ts_epoch_secs: 1_786_000_000 + i as u64 * 3600,
                    utc: utc_from_epoch(1_786_000_000 + i as u64 * 3600),
                    commit: format!("commit{i}"),
                    cores: 4,
                    simd: "avx2".into(),
                    workers: 1,
                    metrics: BTreeMap::new(),
                    obs_digest: None,
                };
                let slow = if i >= step_at { 1.2 } else { 1.0 };
                r.metrics
                    .insert("campaign_serial_secs".into(), noise(0.52) * slow);
                r.metrics.insert("scan_speedup".into(), noise(1.98));
                r.metrics
                    .insert("parser_lines_per_sec".into(), noise(4.2e6));
                r.metrics
                    .insert("envelopes_per_sec_b64".into(), noise(5.2e6));
                render_record(&r)
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn an_injected_step_is_found_at_the_right_metric_and_index() {
        let text = synthetic_history(60, 30);
        let rep = analyze(&text).expect("analyzes");
        assert_eq!(rep.n_records, 60);
        assert_eq!(rep.shifted_metrics(), ["campaign_serial_secs"]);
        let cp = &rep.findings[0].change_points[0];
        assert!((28..=32).contains(&cp.index), "index {}", cp.index);
        // The loudest metric sorts first.
        assert_eq!(rep.findings[0].metric, "campaign_serial_secs");
    }

    #[test]
    fn tiny_history_reports_quietly_instead_of_failing() {
        let text = synthetic_history(2, 99);
        let rep = analyze(&text).expect("analyzes");
        assert_eq!(rep.n_records, 2);
        assert!(rep.shifted_metrics().is_empty());
        // Empty history is fine too.
        let empty = analyze("").unwrap();
        assert_eq!(empty.n_records, 0);
    }

    #[test]
    fn seed_plus_synthetic_schema1_lines_mix() {
        let seed = r#"{"schema":0,"ts_epoch_secs":1786223772,"suite":"perfsuite","workers":1,"campaign_serial_secs":0.519,"scan_speedup":1.985}"#;
        let text = format!("{seed}\n{}", synthetic_history(10, 999));
        let rep = analyze(&text).expect("mixed history analyzes");
        assert_eq!(rep.n_records, 11);
        assert_eq!(rep.n_schema0, 1);
        // The seed line carries no host, so it is a population of its own:
        // set aside, and every series spans the 10 records that name one.
        assert_eq!(rep.n_set_aside, 1);
        let by_name = |n: &str| rep.findings.iter().find(|f| f.metric == n).unwrap();
        assert_eq!(by_name("campaign_serial_secs").n_points, 10);
        assert_eq!(by_name("parser_lines_per_sec").n_points, 10);
    }

    /// Twelve one-core rows, then twelve two-core rows reading double on
    /// every metric. Pooled, every metric steps at record 12 for a reason
    /// that is no commit; analyzed per host, nothing moved.
    #[test]
    fn a_host_change_is_set_aside_not_reported_as_a_step() {
        let two_cores: Vec<String> = parse_history(&synthetic_history(12, 999))
            .unwrap()
            .into_iter()
            .map(|mut r| {
                r.cores = 2;
                r.ts_epoch_secs += 12 * 3600;
                r.metrics.values_mut().for_each(|v| *v *= 2.0);
                render_record(&r)
            })
            .collect();
        let text = format!("{}\n{}", synthetic_history(12, 999), two_cores.join("\n"));
        let rep = analyze(&text).expect("analyzes");
        assert_eq!(rep.n_records, 24);
        assert_eq!(rep.n_set_aside, 12);
        assert_eq!(rep.population, (2, "avx2".to_owned()));
        assert!(rep.findings.iter().all(|f| f.n_points == 12));
        assert_eq!(rep.shifted_metrics(), Vec::<String>::new());
        let md = report::render_markdown(&rep);
        assert!(md.contains("12 from other hosts set aside"), "{md}");

        // The pooled analysis this replaces: the same rows with the host
        // fingerprint erased read as one population that doubled.
        let pooled = text.replace("\"cores\":4", "\"cores\":2");
        let rep = analyze(&pooled).expect("analyzes");
        assert_eq!(rep.n_set_aside, 0);
        assert_eq!(rep.shifted_metrics().len(), 4);
        for f in &rep.findings {
            assert_eq!(f.change_points[0].index, 12, "{}", f.metric);
        }
    }

    /// Twenty rows carry `envelopes_per_sec_b64`, stepping by half at row
    /// ten; the last four do not. The series is retired: named, counted,
    /// and not ranked, however loudly its history stepped.
    #[test]
    fn a_metric_the_newest_rows_drop_is_retired_not_ranked() {
        let rows: Vec<String> = parse_history(&synthetic_history(24, 999))
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                match i {
                    0..10 => {}
                    10..20 => *r.metrics.get_mut("envelopes_per_sec_b64").unwrap() *= 0.5,
                    _ => {
                        r.metrics.remove("envelopes_per_sec_b64");
                    }
                }
                render_record(&r)
            })
            .collect();
        let rep = analyze(&rows.join("\n")).expect("analyzes");
        assert_eq!(rep.retired, ["envelopes_per_sec_b64"]);
        assert_eq!(rep.n_retired(), 1);
        assert!(rep
            .findings
            .iter()
            .all(|f| f.metric != "envelopes_per_sec_b64"));
        assert_eq!(rep.findings.len(), 3);
        assert!(rep.shifted_metrics().is_empty());
        let md = report::render_markdown(&rep);
        assert!(md.contains("Retired series (absent from the newest record, not ranked): 1 — `envelopes_per_sec_b64`"), "{md}");
        let doc = asdf_obs::json::parse(&report::render_json(&rep)).expect("parses");
        assert_eq!(doc.get("n_retired").and_then(|v| v.as_f64()), Some(1.0));
        let names = doc.get("retired").and_then(|v| v.as_array()).unwrap();
        assert_eq!(names[0].as_str(), Some("envelopes_per_sec_b64"));
    }
}
