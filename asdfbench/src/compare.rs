//! `asdfbench compare A.json B.json`: did B get worse than A?
//!
//! Per workload and end-to-end metric, the verdict follows the rule of the
//! `choosing-metrics` guide. B is `worse` when its median is worse than A's
//! by more than the metric's bound, `better` when it is better by more than
//! the bound, `same` in between — but only when the comparison is resolved:
//! where either side's quartile spread is wider than the bound the verdict
//! is `unresolved`, unless every run of one side beats every run of the
//! other. Deterministic values (bound 0, digests, operation counts) must be
//! identical. Any `worse` or `differs` makes the command exit non-zero.

use std::path::Path;

use asdf_obs::json::Value;

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// The rule itself. `lower_is_better` orients the comparison; `bound` is a
/// share of A's median.
pub fn judge(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> Verdict {
    if bound == 0.0 {
        return if a.runs.iter().chain(&b.runs).all(|v| *v == a.median) {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    // Orient so that larger is worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE);
    let max = |s: &Summary| {
        s.runs
            .iter()
            .map(|v| sign * v)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let min = |s: &Summary| {
        s.runs
            .iter()
            .map(|v| sign * v)
            .fold(f64::INFINITY, f64::min)
    };
    let b_beats_a = max(b) < min(a);
    let a_beats_b = max(a) < min(b);
    let resolved = (a.spread() <= bound && b.spread() <= bound) || b_beats_a || a_beats_b;
    if !resolved {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound || b_beats_a {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    asdf_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn summary(metric: &Value) -> Option<Summary> {
    let runs: Vec<f64> = metric
        .get("runs")?
        .as_array()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    Some(Summary {
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        runs,
    })
}

/// Compares two `results.json` files; `Ok(false)` on any regression.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let label = |doc: &Value| {
        format!(
            "commit {} seed {}",
            doc.get("commit").and_then(Value::as_str).unwrap_or("?"),
            doc.get("seed").and_then(Value::as_f64).unwrap_or(f64::NAN)
        )
    };
    println!("A: {} ({})", a_path.display(), label(&a));
    println!("B: {} ({})", b_path.display(), label(&b));
    let Some(Value::Object(a_workloads)) = a.get("workloads") else {
        return Err(format!("{}: no workloads", a_path.display()));
    };
    let same_seed = a.get("seed") == b.get("seed");
    let mut ok = true;
    for (name, wa) in a_workloads {
        println!("\n{name}");
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("  DIFFERS: missing from B");
            ok = false;
            continue;
        };
        // What the diagnosis concluded depends on the seed alone.
        if same_seed {
            for key in ["digest", "attempted_per_pass", "failed"] {
                if wa.get(key) != wb.get(key) {
                    println!(
                        "  {key:<26} DIFFERS: {:?} vs {:?}",
                        wa.get(key),
                        wb.get(key)
                    );
                    ok = false;
                }
            }
        }
        let Some(Value::Object(metrics)) = wa.get("end_to_end") else {
            continue;
        };
        for (metric, ma) in metrics {
            let parts = (|| {
                let mb = wb.get("end_to_end")?.get(metric)?;
                let lower = ma.get("better")?.as_str()? == "lower";
                Some((
                    summary(ma)?,
                    summary(mb)?,
                    lower,
                    ma.get("bound")?.as_f64()?,
                ))
            })();
            let Some((sa, sb, lower, bound)) = parts else {
                println!("  {metric:<26} DIFFERS: missing from B");
                ok = false;
                continue;
            };
            if bound == 0.0 && !same_seed {
                continue;
            }
            let verdict = judge(&sa, &sb, lower, bound);
            ok &= !verdict.fails();
            println!(
                "  {metric:<26} {:<10} A {:.6} (spread {:.1}%)  B {:.6} (spread {:.1}%)  change {:+.1}%  bound {:.0}%",
                verdict.label(),
                sa.median,
                100.0 * sa.spread(),
                sb.median,
                100.0 * sb.spread(),
                100.0 * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE),
                100.0 * bound
            );
        }
    }
    println!("\n{}", if ok { "no regression" } else { "REGRESSION" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(runs: &[f64]) -> Summary {
        Summary::of(runs)
    }

    #[test]
    fn tight_runs_resolve_by_the_bound() {
        let a = s(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Every run slower, yet within the bound: real, tolerated, `same`.
        assert_eq!(
            judge(&a, &s(&[104.0, 105.0, 103.0, 104.5, 103.5]), true, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &s(&[120.0, 121.0, 119.0, 120.5, 119.5]), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &s(&[80.0, 81.0, 79.0, 80.5, 79.5]), true, 0.10),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(&a, &s(&[80.0, 81.0, 79.0, 80.5, 79.5]), false, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_separate() {
        let a = s(&[100.0, 140.0, 80.0, 120.0, 90.0]);
        let overlapping = s(&[130.0, 170.0, 95.0, 150.0, 110.0]);
        assert_eq!(judge(&a, &overlapping, true, 0.10), Verdict::Unresolved);
        let all_slower = s(&[200.0, 260.0, 150.0, 230.0, 170.0]);
        assert_eq!(judge(&a, &all_slower, true, 0.10), Verdict::Worse);
        let all_faster = s(&[50.0, 70.0, 40.0, 60.0, 45.0]);
        assert_eq!(judge(&a, &all_faster, true, 0.10), Verdict::Better);
    }

    #[test]
    fn deterministic_metrics_must_repeat() {
        assert_eq!(
            judge(&s(&[60.0, 60.0]), &s(&[60.0, 60.0]), true, 0.0),
            Verdict::Same
        );
        assert_eq!(
            judge(&s(&[60.0, 60.0]), &s(&[60.0, 120.0]), true, 0.0),
            Verdict::Differs
        );
    }
}
