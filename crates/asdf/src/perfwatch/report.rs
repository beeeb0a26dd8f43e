//! Perfwatch report assembly and rendering (markdown + JSON).
//!
//! [`analyze`](crate::perfwatch::analyze) produces a [`PerfwatchReport`];
//! this module renders it for humans (`render_markdown`, what the CI job
//! uploads) and for machines (`render_json`). The watchdog is advisory:
//! the renderers never decide pass/fail, they rank evidence.

use std::fmt::Write as _;

use asdf_obs::json::{self, Value};

use super::edivisive::ChangePoint;

/// Change-point findings for one metric series.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFinding {
    /// Metric name.
    pub metric: String,
    /// Points in the series (records carrying the metric).
    pub n_points: usize,
    /// Significant change points, ordered by index.
    pub change_points: Vec<ChangePoint>,
}

impl MetricFinding {
    /// Largest absolute relative shift among this metric's change points
    /// (0 when quiet) — the ranking key.
    pub fn max_abs_shift_pct(&self) -> f64 {
        self.change_points
            .iter()
            .map(|cp| cp.shift_pct.abs())
            .fold(0.0, f64::max)
    }
}

/// Everything one `asdf perfwatch` invocation concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfwatchReport {
    /// History records read (analyzed or set aside).
    pub n_records: usize,
    /// Of which legacy schema-0 lines.
    pub n_schema0: usize,
    /// UTC timestamps of the first and last record.
    pub span_utc: (String, String),
    /// The host population analyzed: the newest record's `(cores, simd)`.
    pub population: (usize, String),
    /// Records recorded on any other host, set aside from every series
    /// (still counted in [`n_records`](Self::n_records)).
    pub n_set_aside: usize,
    /// Metrics some analyzed record carries but the newest one does not,
    /// in name order: retired series, whose frozen history is not ranked.
    pub retired: Vec<String>,
    /// Per-metric change-point findings, metrics with the largest shifts
    /// first, quiet metrics alphabetical after them.
    pub findings: Vec<MetricFinding>,
}

impl PerfwatchReport {
    /// How many retired series were left out of the analysis.
    pub fn n_retired(&self) -> usize {
        self.retired.len()
    }

    /// Metrics with at least one significant change point.
    pub fn shifted_metrics(&self) -> Vec<String> {
        self.findings
            .iter()
            .filter(|f| !f.change_points.is_empty())
            .map(|f| f.metric.clone())
            .collect()
    }
}

/// Renders the report as markdown — the artifact the advisory CI job
/// uploads and the default `asdf perfwatch` output.
pub fn render_markdown(r: &PerfwatchReport) -> String {
    let mut out = String::new();
    out.push_str("# perfwatch — BENCH history change-point report\n\n");
    let _ = writeln!(
        out,
        "{} record(s) ({} legacy schema-0), {} .. {}\n",
        r.n_records, r.n_schema0, r.span_utc.0, r.span_utc.1
    );
    let _ = writeln!(
        out,
        "Analyzed: the {} from the newest record's host ({} core(s), simd {}); \
         {} from other hosts set aside.\n",
        r.n_records - r.n_set_aside,
        r.population.0,
        r.population.1,
        r.n_set_aside
    );
    let names: Vec<String> = r.retired.iter().map(|m| format!("`{m}`")).collect();
    let _ = writeln!(
        out,
        "Retired series (absent from the newest record, not ranked): {}{}\n",
        r.n_retired(),
        if names.is_empty() {
            String::new()
        } else {
            format!(" — {}", names.join(", "))
        }
    );

    let shifted = r.shifted_metrics();
    if shifted.is_empty() {
        out.push_str("## E-Divisive: no significant change points\n\n");
    } else {
        let _ = writeln!(out, "## E-Divisive: {} metric(s) shifted\n", shifted.len());
        out.push_str("| metric | change @ record | shift | p | before → after |\n");
        out.push_str("|---|---|---|---|---|\n");
        for f in r.findings.iter().filter(|f| !f.change_points.is_empty()) {
            for cp in &f.change_points {
                let _ = writeln!(
                    out,
                    "| `{}` | {} | {:+.1}% | {:.3} | {:.4} → {:.4} |",
                    f.metric, cp.index, cp.shift_pct, cp.p_value, cp.before_mean, cp.after_mean
                );
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the report as a deterministic single-document JSON object
/// (one line, keys in name order).
pub fn render_json(r: &PerfwatchReport) -> String {
    let count = |n: usize| Value::from(n as f64);
    let metrics = r.findings.iter().map(|f| {
        let change_points = f.change_points.iter().map(|cp| {
            json::object([
                ("index", count(cp.index)),
                ("qhat", cp.qhat.into()),
                ("p_value", cp.p_value.into()),
                ("before_mean", cp.before_mean.into()),
                ("after_mean", cp.after_mean.into()),
                ("shift_pct", cp.shift_pct.into()),
            ])
        });
        json::object([
            ("metric", f.metric.as_str().into()),
            ("n_points", count(f.n_points)),
            ("change_points", Value::Array(change_points.collect())),
        ])
    });
    json::object([
        ("n_records", count(r.n_records)),
        ("n_schema0", count(r.n_schema0)),
        ("n_set_aside", count(r.n_set_aside)),
        ("n_retired", count(r.n_retired())),
        (
            "retired",
            Value::Array(r.retired.iter().map(|m| m.as_str().into()).collect()),
        ),
        (
            "host",
            json::object([
                ("cores", count(r.population.0)),
                ("simd", r.population.1.as_str().into()),
            ]),
        ),
        ("first_utc", r.span_utc.0.as_str().into()),
        ("last_utc", r.span_utc.1.as_str().into()),
        ("metrics", Value::Array(metrics.collect())),
    ])
    .render(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfwatchReport {
        PerfwatchReport {
            n_records: 12,
            n_schema0: 1,
            span_utc: ("2026-08-01T00:00:00Z".into(), "2026-08-08T00:00:00Z".into()),
            population: (2, "scalar".into()),
            n_set_aside: 4,
            retired: vec!["batch_speedup_b64".into()],
            findings: vec![
                MetricFinding {
                    metric: "campaign_serial_secs".into(),
                    n_points: 12,
                    change_points: vec![ChangePoint {
                        index: 6,
                        qhat: 3.2,
                        p_value: 0.005,
                        before_mean: 0.5,
                        after_mean: 0.6,
                        shift_pct: 20.0,
                    }],
                },
                MetricFinding {
                    metric: "scan_speedup".into(),
                    n_points: 12,
                    change_points: vec![],
                },
            ],
        }
    }

    #[test]
    fn markdown_names_the_shifted_metric_and_the_verdict() {
        let md = render_markdown(&sample_report());
        assert!(md.contains("1 metric(s) shifted"));
        assert!(md.contains("`campaign_serial_secs`"));
        assert!(md.contains("+20.0%"));
        assert!(
            !md.contains("`scan_speedup`"),
            "quiet metrics are not listed"
        );
    }

    #[test]
    fn json_is_parseable_and_carries_the_findings() {
        let text = render_json(&sample_report());
        let doc = asdf_obs::json::parse(&text).expect("report JSON parses");
        assert_eq!(doc.get("n_records").and_then(|v| v.as_f64()), Some(12.0));
        let metrics = doc.get("metrics").and_then(|v| v.as_array()).unwrap();
        assert_eq!(metrics.len(), 2);
        let cp = metrics[0]
            .get("change_points")
            .and_then(|v| v.as_array())
            .unwrap();
        assert_eq!(cp[0].get("index").and_then(|v| v.as_f64()), Some(6.0));
    }
}
