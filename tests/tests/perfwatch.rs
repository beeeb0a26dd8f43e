//! End-to-end test of the perf-regression watchdog: a synthetic BENCH
//! history with an injected 20% step must be flagged by E-Divisive at the
//! right metric and record, a healthy one must stay quiet, and the
//! rendered reports must carry the finding. Also pins that the
//! repository's real `BENCH_history.jsonl` stays parseable.

use std::collections::BTreeMap;

use asdf::perfwatch::{analyze, history, render_record, utc_from_epoch, HistoryRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A plausible nightly series: four suite metrics with 1% run-to-run
/// noise, and `campaign_serial_secs` degrading 20% from `step_at` on.
fn synthetic_history(n: usize, step_at: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut noise = |base: f64| base * (1.0 + 0.01 * rng.gen_range(-1.0..1.0));
    (0..n)
        .map(|i| {
            let mut r = HistoryRecord {
                schema: history::HISTORY_SCHEMA,
                ts_epoch_secs: 1_786_000_000 + i as u64 * 86_400,
                utc: utc_from_epoch(1_786_000_000 + i as u64 * 86_400),
                commit: format!("abc{i:09}"),
                cores: 8,
                simd: "avx2".into(),
                workers: 2,
                metrics: BTreeMap::new(),
                obs_digest: Some(format!("{i:016x}")),
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
fn injected_regression_is_flagged() {
    let text = synthetic_history(60, 30, 7);
    let rep = analyze(&text).expect("history analyzes");

    assert_eq!(rep.n_records, 60);
    // E-Divisive: exactly one metric shifted, localized at the step.
    assert_eq!(rep.shifted_metrics(), ["campaign_serial_secs"]);
    let finding = rep
        .findings
        .iter()
        .find(|f| f.metric == "campaign_serial_secs")
        .expect("finding for the regressed metric");
    let cp = &finding.change_points[0];
    assert!(
        (28..=32).contains(&cp.index),
        "change point localized near 30, got {}",
        cp.index
    );
    assert!(
        cp.shift_pct > 15.0 && cp.shift_pct < 25.0,
        "shift magnitude ~20%, got {:.1}%",
        cp.shift_pct
    );
    assert!(cp.p_value < 0.05);

    // Both renderings carry the finding; the JSON form is machine-valid.
    let md = asdf::perfwatch::report::render_markdown(&rep);
    assert!(md.contains("campaign_serial_secs"));
    let js = asdf::perfwatch::report::render_json(&rep);
    let doc = asdf_obs::json::parse(&js).expect("report JSON parses");
    assert_eq!(doc.get("n_records").and_then(|v| v.as_f64()), Some(60.0));
}

#[test]
fn healthy_history_stays_quiet_end_to_end() {
    let text = synthetic_history(60, usize::MAX, 11);
    let rep = analyze(&text).expect("history analyzes");
    assert!(rep.shifted_metrics().is_empty(), "no E-Divisive findings");
}

#[test]
fn repository_seed_history_parses_and_analyzes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_history.jsonl");
    let text = std::fs::read_to_string(path).expect("tracked BENCH history reads");
    let records = history::parse_history(&text).expect("tracked BENCH history parses");
    assert!(!records.is_empty());
    assert!(
        records[0].metrics.contains_key("campaign_serial_secs"),
        "seed record carries the campaign timing metric"
    );
    // Advisory from the very first record: short history is not an error.
    let rep = analyze(&text).expect("short history analyzes");
    assert_eq!(rep.n_records, records.len());
}
