//! From a traced pass: the per-layer budget, and the Chrome trace file.
//!
//! The trace holds one `setup` span with a child per set-up layer, then one
//! `tick` span per engine step with one child per module type that ran in
//! it, carrying that step's summed busy time and call count (a span per
//! module call would be 1.5 M spans on `fleet5000_rank` and would itself be
//! the workload). Engine self time is a step minus its children, so the
//! budget closes by construction.
//!
//! On a sharded engine the module runs of one step overlap on
//! `engine_threads` lanes; children and budget rows are then the busy time
//! divided by the lane count, which is what can be subtracted from wall time
//! (the raw sum is kept in the span's `busy_ns` argument).

use std::fmt::Write as _;

use crate::dag_run::{PassTrace, StepSpan};
use crate::stats::median_index;

/// Per-layer shares of one traced pass, per monitored second.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    pub types: Vec<String>,
    /// Busy milliseconds per monitored second, summed over lanes.
    pub busy_ms: Vec<f64>,
    /// Module runs per monitored second.
    pub calls: Vec<f64>,
    /// Step wall per monitored second: what the rows below sum to.
    pub tick_wall_ms: f64,
    /// Step wall minus the lane-averaged module time: scheduling, lane and
    /// batch transport, taps.
    pub self_ms: f64,
    /// The same split of the median verdict tick, in milliseconds.
    pub verdict_wall_ms: f64,
    pub verdict_ms: Vec<f64>,
    pub verdict_self_ms: f64,
    lanes: f64,
}

impl Budget {
    pub fn of(trace: &PassTrace, lanes: usize) -> Budget {
        let lanes = lanes.max(1) as f64;
        let n = trace.types.len();
        let monitored: u64 = trace.steps.iter().map(|s| s.ticks).sum();
        let per_s = |ns: u64| ns as f64 / 1e6 / monitored.max(1) as f64;
        let mut busy_ns = vec![0u64; n];
        let mut calls = vec![0u64; n];
        for step in &trace.steps {
            for i in 0..n {
                busy_ns[i] += step.layers.busy_ns[i];
                calls[i] += step.layers.calls[i];
            }
        }
        let wall_ns: u64 = trace.steps.iter().map(|s| s.dur_ns).sum();
        let tick_wall_ms = per_s(wall_ns);
        let busy_ms: Vec<f64> = busy_ns.iter().map(|&ns| per_s(ns)).collect();

        // The verdict tick whose wall is the (lower) median stands for all.
        let verdicts: Vec<&StepSpan> = trace
            .steps
            .iter()
            .filter(|s| s.verdict && s.ticks == 1)
            .collect();
        let walls: Vec<f64> = verdicts.iter().map(|s| s.dur_ns as f64).collect();
        let (verdict_wall_ms, verdict_ms) = if verdicts.is_empty() {
            (0.0, vec![0.0; n])
        } else {
            let step = verdicts[median_index(&walls)];
            (
                step.dur_ns as f64 / 1e6,
                step.layers
                    .busy_ns
                    .iter()
                    .map(|&ns| ns as f64 / 1e6 / lanes)
                    .collect(),
            )
        };
        Budget {
            self_ms: tick_wall_ms - busy_ms.iter().sum::<f64>() / lanes,
            verdict_self_ms: verdict_wall_ms - verdict_ms.iter().sum::<f64>(),
            types: trace.types.clone(),
            calls: calls
                .iter()
                .map(|&c| c as f64 / monitored.max(1) as f64)
                .collect(),
            busy_ms,
            tick_wall_ms,
            verdict_wall_ms,
            verdict_ms,
            lanes,
        }
    }

    fn index(&self, module_type: &str) -> Option<usize> {
        self.types.iter().position(|t| t == module_type)
    }

    pub fn busy_of(&self, module_type: &str) -> f64 {
        self.index(module_type).map_or(0.0, |i| self.busy_ms[i])
    }

    pub fn calls_of(&self, module_type: &str) -> f64 {
        self.index(module_type).map_or(0.0, |i| self.calls[i])
    }

    pub fn verdict_of(&self, module_type: &str) -> f64 {
        self.index(module_type).map_or(0.0, |i| self.verdict_ms[i])
    }

    /// The budget as a table whose rows sum to the traced tick wall.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let share = |ms: f64| 100.0 * ms / self.tick_wall_ms.max(f64::MIN_POSITIVE);
        let _ = writeln!(
            out,
            "  {:<34} {:>12} {:>7} {:>12} {:>12}",
            "layer", "ms/mon.s", "share", "calls/mon.s", "verdict ms"
        );
        let mut sum = 0.0;
        for (i, name) in self.types.iter().enumerate() {
            if self.calls[i] == 0.0 {
                continue;
            }
            let ms = self.busy_ms[i] / self.lanes;
            sum += ms;
            let _ = writeln!(
                out,
                "  {:<34} {:>12.4} {:>6.1}% {:>12.1} {:>12.4}",
                format!("asdf_modules.{name}"),
                ms,
                share(ms),
                self.calls[i],
                self.verdict_ms[i]
            );
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>12.4} {:>6.1}% {:>12} {:>12.4}",
            "asdf_core.engine.self",
            self.self_ms,
            share(self.self_ms),
            "",
            self.verdict_self_ms
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>12.4} {:>6.1}% {:>12} {:>12.4}  (traced tick wall {:.4})",
            "sum",
            sum + self.self_ms,
            share(sum + self.self_ms),
            "",
            self.verdict_wall_ms,
            self.tick_wall_ms
        );
        if self.lanes > 1.0 {
            let _ = writeln!(
                out,
                "  (module rows are busy time / {} engine lanes)",
                self.lanes
            );
        }
        out
    }
}

/// Nanoseconds as the microseconds Chrome traces use, without rounding.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn event(out: &mut String, name: &str, ts_ns: u64, dur_ns: u64, args: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    let _ = write!(
        out,
        "\n{{\"name\":\"{name}\",\"cat\":\"asdfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
         \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
        micros(ts_ns),
        micros(dur_ns)
    );
}

/// Renders the pass as a Chrome `trace_event` document; every span carries
/// `run_id` (letters, digits, `_`, `-` only, so it needs no escaping).
pub fn render_chrome_trace(run_id: &str, trace: &PassTrace, lanes: usize) -> String {
    let lanes = lanes.max(1) as u64;
    let run = format!("\"run\":\"{run_id}\"");
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    event(&mut out, "setup", 0, trace.setup_ns, &run);
    // Children end a nanosecond early, here and below: readers add
    // `ts + dur` in floating point, and spans that merely touch their
    // neighbour or their parent's end would then seem to overlap it.
    for (name, start, dur) in &trace.setup_spans {
        let dur = (*dur)
            .min(trace.setup_ns.saturating_sub(*start))
            .saturating_sub(1);
        event(&mut out, name, *start, dur, &run);
    }
    for step in &trace.steps {
        let args = format!(
            "{run},\"ticks\":{},\"verdict\":{}",
            step.ticks, step.verdict
        );
        event(&mut out, "tick", step.start_ns, step.dur_ns, &args);
        let end = (step.start_ns + step.dur_ns).saturating_sub(1);
        let mut cursor = step.start_ns + 1;
        for (i, name) in trace.types.iter().enumerate() {
            let (busy, calls) = (step.layers.busy_ns[i], step.layers.calls[i]);
            if calls == 0 || cursor >= end {
                continue;
            }
            let dur = (busy / lanes).min(end - cursor);
            let args = format!("{run},\"calls\":{calls},\"busy_ns\":{busy}");
            event(
                &mut out,
                &format!("asdf_modules.{name}"),
                cursor,
                dur,
                &args,
            );
            cursor += dur + 1;
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::LayerSnapshot;

    fn step(start_ns: u64, dur_ns: u64, verdict: bool, busy_ns: [u64; 3]) -> StepSpan {
        StepSpan {
            start_ns,
            dur_ns,
            ticks: 1,
            verdict,
            layers: LayerSnapshot {
                busy_ns: busy_ns.to_vec(),
                calls: busy_ns.iter().map(|&b| u64::from(b > 0) * 5).collect(),
            },
        }
    }

    fn sample() -> PassTrace {
        PassTrace {
            types: vec!["knn".into(), "rack_agg".into(), "sadc".into()],
            setup_spans: vec![
                ("config_gen", 10, 400),
                ("dag_build", 410, 500),
                ("engine_new", 910, 90),
            ],
            setup_ns: 1_000,
            // Back-to-back ticks whose children fill them to the last
            // nanosecond: the shape that trips float `ts + dur` readers.
            steps: vec![
                step(85_621_483, 1_329_836, false, [600_000, 0, 729_836]),
                step(86_951_319, 2_000_000, true, [500_000, 0, 1_000_000]),
                step(88_951_319, 1_000_000, false, [400_000, 0, 500_000]),
            ],
        }
    }

    #[test]
    fn budget_rows_sum_to_the_tick_wall() {
        let budget = Budget::of(&sample(), 1);
        let rows: f64 = budget.busy_ms.iter().sum();
        assert!((rows + budget.self_ms - budget.tick_wall_ms).abs() < 1e-12);
        assert_eq!(budget.busy_of("rack_agg"), 0.0);
        assert_eq!(budget.calls_of("sadc"), 5.0);
        // One verdict tick: it is the median one.
        assert_eq!(budget.verdict_wall_ms, 2.0);
        assert_eq!(budget.verdict_of("sadc"), 1.0);
        assert!((budget.verdict_self_ms - 0.5).abs() < 1e-12);
        assert!(budget.table().contains("asdf_core.engine.self"));
        // Two lanes: the same busy time covers half as much wall.
        let two = Budget::of(&sample(), 2);
        assert!((rows / 2.0 + two.self_ms - two.tick_wall_ms).abs() < 1e-12);
    }

    #[test]
    fn rendered_trace_nests_and_names_the_run() {
        for lanes in [1, 2] {
            let text = render_chrome_trace("unit-seed1", &sample(), lanes);
            let check = asdf_obs::export::validate_chrome_trace(&text).expect("valid trace");
            // setup + 3 set-up layers + 3 ticks + 2 children each.
            assert_eq!(check.n_events, 13);
            assert_eq!(check.n_threads, 1);
            assert_eq!(text.matches("\"run\":\"unit-seed1\"").count(), 13);
        }
    }
}
