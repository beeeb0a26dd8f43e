//! Perfwatch report assembly and rendering (markdown + JSON).
//!
//! [`analyze`](crate::perfwatch::analyze) produces a [`PerfwatchReport`];
//! this module renders it for humans (`render_markdown`, what the CI job
//! uploads) and for machines (`render_json`). The watchdog is advisory:
//! the renderers never decide pass/fail, they rank evidence.

use std::fmt::Write as _;

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
    /// History records analyzed.
    pub n_records: usize,
    /// Of which legacy schema-0 lines.
    pub n_schema0: usize,
    /// UTC timestamps of the first and last record.
    pub span_utc: (String, String),
    /// Per-metric change-point findings, metrics with the largest shifts
    /// first, quiet metrics alphabetical after them.
    pub findings: Vec<MetricFinding>,
}

impl PerfwatchReport {
    /// Metrics with at least one significant change point.
    pub fn shifted_metrics(&self) -> Vec<String> {
        self.findings
            .iter()
            .filter(|f| !f.change_points.is_empty())
            .map(|f| f.metric.clone())
            .collect()
    }
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
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

/// Renders the report as a deterministic single-document JSON object.
pub fn render_json(r: &PerfwatchReport) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"n_records\":{},\"n_schema0\":{},\"first_utc\":\"",
        r.n_records, r.n_schema0
    );
    escape_json(&r.span_utc.0, &mut out);
    out.push_str("\",\"last_utc\":\"");
    escape_json(&r.span_utc.1, &mut out);
    out.push_str("\",\"metrics\":[");
    for (i, f) in r.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"metric\":\"");
        escape_json(&f.metric, &mut out);
        let _ = write!(out, "\",\"n_points\":{},\"change_points\":[", f.n_points);
        for (j, cp) in f.change_points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"index\":{},\"qhat\":{:.6},\"p_value\":{:.6},\"before_mean\":{},\"after_mean\":{},\"shift_pct\":{:.3}}}",
                cp.index, cp.qhat, cp.p_value, cp.before_mean, cp.after_mean, cp.shift_pct
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfwatchReport {
        PerfwatchReport {
            n_records: 12,
            n_schema0: 1,
            span_utc: ("2026-08-01T00:00:00Z".into(), "2026-08-08T00:00:00Z".into()),
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
