//! Plain-text rendering of experiment results, in the shape of the
//! paper's tables and figures.

use hadoop_sim::faults::FaultKind;

use crate::experiments::{AblationRow, BandwidthRow, FaultResult, OverheadRow};

/// Nominal resident footprint of fpt-core state per monitored node, MB —
/// reported alongside the measured daemon numbers in Table 3. Derived from
/// the deployment's per-node module state (metric buffers, windows,
/// parser live-sets) at the paper's windowSize of 60.
pub const FPT_CORE_STATE_MB: f64 = 5.1;

/// Renders a Figure 6 sweep as a two-column table.
pub fn render_sweep(title: &str, x_label: &str, rows: &[(f64, f64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{x_label:>12} | FP rate (%)");
    let _ = writeln!(out, "{}", "-".repeat(28));
    for (x, fp) in rows {
        let _ = writeln!(out, "{x:>12.1} | {fp:>10.2}");
    }
    out
}

/// Renders Figure 7(a)/(b) as one table: balanced accuracy and latency per
/// fault and analysis path.
pub fn render_fig7(rows: &[FaultResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} | {:>7} {:>7} {:>7} | {:>8} {:>8} {:>8}",
        "Fault", "BA-bb%", "BA-wb%", "BA-all%", "lat-bb", "lat-wb", "lat-all"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    let fmt_lat = |l: Option<u64>| match l {
        Some(s) => format!("{s}s"),
        None => "--".to_owned(),
    };
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} | {:>7.1} {:>7.1} {:>7.1} | {:>8} {:>8} {:>8}",
            r.fault.name(),
            r.ba_black_box,
            r.ba_white_box,
            r.ba_combined,
            fmt_lat(r.lat_black_box),
            fmt_lat(r.lat_white_box),
            fmt_lat(r.lat_combined),
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(72));
    let _ = writeln!(
        out,
        "{:<12} | {:>7.1} {:>7.1} {:>7.1} |",
        "paper mean",
        paper_mean(rows, |r| r.ba_black_box),
        paper_mean(rows, |r| r.ba_white_box),
        paper_mean(rows, |r| r.ba_combined),
    );
    out
}

/// Mean of `f` over the rows of the paper's six faults
/// ([`FaultKind::PAPER`]): the paper's Figure 7 means cover only those,
/// so the extended kinds this reproduction adds do not move them.
pub fn paper_mean(rows: &[FaultResult], f: fn(&FaultResult) -> f64) -> f64 {
    let paper: Vec<f64> = rows
        .iter()
        .filter(|r| FaultKind::PAPER.contains(&r.fault))
        .map(f)
        .collect();
    paper.iter().sum::<f64>() / paper.len().max(1) as f64
}

/// Renders one ablation sweep: combined balanced accuracy, latency and
/// false-positive rate per value of the swept knob.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} | {:>8} | {:>8} | {:>8}",
        rows.first().map_or("value", |r| r.parameter),
        "BA-all%",
        "latency",
        "FP-all%"
    );
    let _ = writeln!(out, "{}", "-".repeat(48));
    for r in rows {
        let lat = r
            .latency
            .map(|s| format!("{s}s"))
            .unwrap_or_else(|| "--".to_owned());
        let _ = writeln!(
            out,
            "{:>12} | {:>8.1} | {:>8} | {:>8.2}",
            r.value, r.ba_combined, lat, r.fp_rate
        );
    }
    out
}

/// Renders Table 3 (collection overhead).
pub fn render_table3(rows: &[OverheadRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} | {:>8} | {:>12}",
        "Process", "% CPU", "Memory (MB)"
    );
    let _ = writeln!(out, "{}", "-".repeat(58));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<32} | {:>8.4} | {:>12.2}",
            r.process, r.cpu_percent, r.memory_mb
        );
    }
    out
}

/// Renders Table 4 (RPC bandwidth).
pub fn render_table4(rows: &[BandwidthRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} | {:>16} | {:>18}",
        "RPC Type", "Static Ovh. (kB)", "Per-iter BW (kB/s)"
    );
    let _ = writeln!(out, "{}", "-".repeat(52));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} | {:>16.2} | {:>18.2}",
            r.rpc_type, r.static_kb, r.per_iter_kb
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rendering_includes_all_rows() {
        let s = render_sweep("Fig 6(a)", "threshold", &[(0.0, 97.5), (60.0, 1.25)]);
        assert!(s.contains("Fig 6(a)"));
        assert!(s.contains("97.50"));
        assert!(s.contains("1.25"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn fig7_rendering_handles_missing_latencies() {
        let rows = vec![FaultResult {
            fault: FaultKind::Hadoop1152,
            ba_black_box: 55.0,
            ba_white_box: 85.0,
            ba_combined: 86.0,
            lat_black_box: None,
            lat_white_box: Some(420),
            lat_combined: Some(420),
        }];
        let s = render_fig7(&rows);
        assert!(s.contains("HADOOP-1152"));
        assert!(s.contains("--"));
        assert!(s.contains("420s"));
        assert!(s.contains("mean"));
    }

    #[test]
    fn fig7_mean_row_covers_the_paper_faults_only() {
        // The paper's six faults score 80 / 70 / 90; the extended four
        // score 0, which would drag an all-ten mean to 48 / 42 / 54.
        let rows: Vec<FaultResult> = FaultKind::ALL
            .iter()
            .map(|&fault| {
                let paper = FaultKind::PAPER.contains(&fault);
                let ba = |v: f64| if paper { v } else { 0.0 };
                FaultResult {
                    fault,
                    ba_black_box: ba(80.0),
                    ba_white_box: ba(70.0),
                    ba_combined: ba(90.0),
                    lat_black_box: None,
                    lat_white_box: None,
                    lat_combined: None,
                }
            })
            .collect();
        let s = render_fig7(&rows);
        assert_eq!(s.lines().count(), 2 + 10 + 2);
        let mean = s.lines().last().unwrap();
        assert!(mean.starts_with("paper mean"), "{mean}");
        assert!(
            mean.contains("80.0") && mean.contains("70.0") && mean.contains("90.0"),
            "{mean}"
        );
        assert!((paper_mean(&rows, |r| r.ba_combined) - 90.0).abs() < 1e-12);
    }

    #[test]
    fn ablation_rendering_names_the_knob_and_marks_misses() {
        let row = |value, latency| AblationRow {
            parameter: "window",
            value,
            ba_combined: 62.5,
            latency,
            fp_rate: 0.0,
        };
        let s = render_ablation(&[row(15.0, Some(121)), row(120.0, None)]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "      window |  BA-all% |  latency |  FP-all%");
        assert_eq!(lines[2], "          15 |     62.5 |     121s |     0.00");
        assert_eq!(lines[3], "         120 |     62.5 |       -- |     0.00");
    }

    #[test]
    fn tables_render_measured_rows() {
        let s = render_table3(&[crate::experiments::OverheadRow {
            process: "sadc_rpcd",
            cpu_percent: 0.355,
            memory_mb: 0.77,
        }]);
        assert!(s.contains("sadc_rpcd"));
        assert!(s.contains("0.3550"));

        let s = render_table4(&[crate::experiments::BandwidthRow {
            rpc_type: "sadc-tcp",
            static_kb: 1.98,
            per_iter_kb: 1.22,
        }]);
        assert!(s.contains("sadc-tcp"));
        assert!(s.contains("1.98"));
    }
}
