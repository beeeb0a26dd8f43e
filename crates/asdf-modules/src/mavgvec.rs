//! The `mavgvec` analysis module.
//!
//! Paper §3: "mavgvec ... computes arithmetic mean and variance of a vector
//! input over a sliding window of samples from multiple given input data
//! streams. The sample vector size and window width are configurable, as is
//! the number of samples to slide the window before generating new
//! outputs."
//!
//! Configuration parameters:
//!
//! * `window` — samples per window (required, > 0);
//! * `slide` — samples to advance between emissions (default = `window`);
//! * `emit` — `mean`, `var`, `stddev`, or `both` (default `both`:
//!   `output0` = mean, `output1` = stddev).

use std::collections::VecDeque;
use std::sync::Arc;

use asdf_core::error::ModuleError;
use asdf_core::module::{Emitter, InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::time::Timestamp;
use asdf_core::value::{Sample, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Emit {
    Mean,
    Var,
    StdDev,
    Both,
}

/// Moving mean/variance over a sliding window of vector samples.
///
/// Vector samples are buffered by sharing the engine's `Arc<[f64]>`
/// allocation (no per-sample copy); the per-emission statistics are
/// accumulated in reusable scratch buffers.
#[derive(Debug, Default)]
pub struct MavgVec {
    window: usize,
    slide: usize,
    emit: Option<Emit>,
    buf: VecDeque<(Timestamp, Arc<[f64]>)>,
    since_emit: usize,
    /// Per-emission mean scratch.
    mean: Vec<f64>,
    /// Per-emission variance scratch (transformed to stddev in place when
    /// that is what gets emitted).
    var: Vec<f64>,
    out_a: Option<PortId>,
    out_b: Option<PortId>,
}

impl MavgVec {
    /// Creates an unconfigured instance (configured in `init`).
    pub fn new() -> Self {
        MavgVec::default()
    }

    /// Buffers one sample and emits window statistics when a window
    /// completes.
    fn ingest(
        &mut self,
        ts: Timestamp,
        row: Arc<[f64]>,
        emit: &mut Emitter<'_>,
    ) -> Result<(), ModuleError> {
        if let Some((_, first)) = self.buf.front() {
            if first.len() != row.len() {
                return Err(ModuleError::Other(format!(
                    "inconsistent vector width: {} then {}",
                    first.len(),
                    row.len()
                )));
            }
        }
        self.buf.push_back((ts, row));
        self.since_emit += 1;

        if self.buf.len() >= self.window && self.since_emit >= self.slide {
            self.since_emit = 0;
            let dim = self.buf.back().expect("non-empty").1.len();
            let n = self.window as f64;
            self.mean.clear();
            self.mean.resize(dim, 0.0);
            for (_, v) in self.buf.iter().rev().take(self.window) {
                for (m, x) in self.mean.iter_mut().zip(v.iter()) {
                    *m += x;
                }
            }
            for m in &mut self.mean {
                *m /= n;
            }
            self.var.clear();
            self.var.resize(dim, 0.0);
            for (_, v) in self.buf.iter().rev().take(self.window) {
                for ((s, m), x) in self.var.iter_mut().zip(&self.mean).zip(v.iter()) {
                    let d = x - m;
                    *s += d * d;
                }
            }
            for s in &mut self.var {
                *s /= n;
            }
            // Stamp outputs with the window-end sample's timestamp so
            // cross-node alignment sees matching times.
            let ts = self.buf.back().expect("non-empty").0;
            let mut out = |port: Option<PortId>, row: &[f64]| {
                emit.emit_sample(port.expect("configured in init"), Sample::new(ts, row));
            };
            match self.emit.expect("configured in init") {
                Emit::Mean => out(self.out_a, &self.mean),
                Emit::Var => out(self.out_a, &self.var),
                Emit::StdDev => {
                    for s in &mut self.var {
                        *s = s.sqrt();
                    }
                    out(self.out_a, &self.var);
                }
                Emit::Both => {
                    out(self.out_a, &self.mean);
                    for s in &mut self.var {
                        *s = s.sqrt();
                    }
                    out(self.out_b, &self.var);
                }
            }
            // Trim history we can never need again.
            while self.buf.len() > self.window {
                self.buf.pop_front();
            }
        }
        Ok(())
    }

    /// Converts one envelope's payload into a buffered window row: a vector
    /// shares its allocation, a scalar is promoted to a 1-D vector.
    fn envelope_row(value: &Value) -> Result<Arc<[f64]>, ModuleError> {
        match value {
            Value::Vector(v) => Ok(Arc::clone(v)),
            Value::Float(x) => Ok(Arc::from([*x])),
            Value::Int(x) => Ok(Arc::from([*x as f64])),
            other => Err(ModuleError::Other(format!(
                "mavgvec expects numeric samples, got {}",
                other.type_name()
            ))),
        }
    }
}

impl Module for MavgVec {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.window = ctx.parse_param("window")?;
        if self.window == 0 {
            return Err(ModuleError::invalid_parameter("window", "must be positive"));
        }
        self.slide = ctx.parse_param_or("slide", self.window)?;
        if self.slide == 0 {
            return Err(ModuleError::invalid_parameter("slide", "must be positive"));
        }
        ctx.expect_input_count(1)?;
        let origin = ctx.input_slots()[0].1[0].origin.clone();
        let emit = match ctx.param("emit").unwrap_or("both") {
            "mean" => Emit::Mean,
            "var" => Emit::Var,
            "stddev" => Emit::StdDev,
            "both" => Emit::Both,
            other => {
                return Err(ModuleError::invalid_parameter(
                    "emit",
                    format!("unknown mode `{other}`"),
                ))
            }
        };
        self.emit = Some(emit);
        match emit {
            Emit::Mean => self.out_a = Some(ctx.declare_output_with_origin("mean", origin)),
            Emit::Var => self.out_a = Some(ctx.declare_output_with_origin("var", origin)),
            Emit::StdDev => {
                self.out_a = Some(ctx.declare_output_with_origin("stddev", origin));
            }
            Emit::Both => {
                self.out_a = Some(ctx.declare_output_with_origin("mean", origin.clone()));
                self.out_b = Some(ctx.declare_output_with_origin("stddev", origin));
            }
        }
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        // Borrowing drain: the whole pending queue streams through without
        // a per-run Vec allocation.
        let (drain, mut emit) = ctx.drain_and_emit();
        for (_, env) in drain {
            // Vector samples share the engine's allocation; only scalar
            // promotions copy (one element).
            let row = Self::envelope_row(&env.sample.value)?;
            self.ingest(env.sample.timestamp, row, &mut emit)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{run_source_pipeline, vector_source_registry};
    use asdf_core::value::Value;

    #[test]
    fn mean_and_stddev_over_non_overlapping_windows() {
        // Source emits [t, 2t] at t = 1, 2, 3, ...
        let cfg = "\
[vecsource]
id = src

[mavgvec]
id = avg
window = 4
input[input] = src.out
";
        let out = run_source_pipeline(&vector_source_registry(), cfg, "avg", 8);
        // Two windows: t=1..4 and t=5..8 (slide defaults to window).
        assert_eq!(out.len(), 4, "mean+stddev per window: {out:?}");
        let mean1 = out[0].sample.value.as_vector().unwrap().to_vec();
        assert_eq!(mean1, vec![2.5, 5.0]);
        let sd1 = out[1].sample.value.as_vector().unwrap().to_vec();
        let expect_sd = (1.25f64).sqrt();
        assert!((sd1[0] - expect_sd).abs() < 1e-9);
        assert!((sd1[1] - 2.0 * expect_sd).abs() < 1e-9);
        let mean2 = out[2].sample.value.as_vector().unwrap().to_vec();
        assert_eq!(mean2, vec![6.5, 13.0]);
    }

    #[test]
    fn sliding_windows_overlap() {
        let cfg = "\
[vecsource]
id = src

[mavgvec]
id = avg
window = 4
slide = 2
emit = mean
input[input] = src.out
";
        let out = run_source_pipeline(&vector_source_registry(), cfg, "avg", 8);
        // Windows ending at t=4, 6, 8.
        assert_eq!(out.len(), 3);
        let means: Vec<f64> = out
            .iter()
            .map(|e| e.sample.value.as_vector().unwrap()[0])
            .collect();
        assert_eq!(means, vec![2.5, 4.5, 6.5]);
    }

    #[test]
    fn emit_modes_declare_matching_ports() {
        for (mode, port) in [("mean", "mean"), ("var", "var"), ("stddev", "stddev")] {
            let cfg = format!(
                "[vecsource]\nid = src\n\n[mavgvec]\nid = avg\nwindow = 2\nemit = {mode}\ninput[input] = src.out\n"
            );
            let out = run_source_pipeline(&vector_source_registry(), &cfg, "avg", 4);
            assert!(!out.is_empty());
            assert!(out.iter().all(|e| e.source.name == port));
        }
    }

    #[test]
    fn output_timestamps_are_window_ends() {
        let cfg = "\
[vecsource]
id = src

[mavgvec]
id = avg
window = 3
emit = mean
input[input] = src.out
";
        let out = run_source_pipeline(&vector_source_registry(), cfg, "avg", 6);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].sample.timestamp.as_secs(), 2); // samples at t=0,1,2
        assert_eq!(out[1].sample.timestamp.as_secs(), 5);
    }

    #[test]
    fn origin_is_inherited_from_the_input() {
        let cfg = "\
[vecsource]
id = src

[mavgvec]
id = avg
window = 2
emit = mean
input[input] = src.out
";
        let out = run_source_pipeline(&vector_source_registry(), cfg, "avg", 2);
        assert_eq!(out[0].source.origin, "test-node");
    }

    #[test]
    fn bad_parameters_fail_init() {
        use asdf_core::config::Config;
        use asdf_core::dag::Dag;
        for cfg in [
            "[vecsource]\nid = src\n\n[mavgvec]\nid = a\nwindow = 0\ninput[i] = src.out\n",
            "[vecsource]\nid = src\n\n[mavgvec]\nid = a\nwindow = 2\nslide = 0\ninput[i] = src.out\n",
            "[vecsource]\nid = src\n\n[mavgvec]\nid = a\nwindow = 2\nemit = nope\ninput[i] = src.out\n",
            "[vecsource]\nid = src\n\n[mavgvec]\nid = a\ninput[i] = src.out\n", // missing window
            "[mavgvec]\nid = a\nwindow = 2\n", // no inputs
        ] {
            let parsed: Config = cfg.parse().unwrap();
            assert!(
                Dag::build(&vector_source_registry(), &parsed).is_err(),
                "should reject: {cfg}"
            );
        }
    }

    #[test]
    fn row_bursts_match_per_sample_outputs_at_any_batch() {
        // Window 5 / slide 3 over 42 rows handed over one, 2, 7 or 9 to a
        // run: windows cross tick boundaries, several windows complete
        // inside one run, and the trailing rows of a burst carry over to the
        // next tick, yet every window holds what one row a second gives.
        let cfg = |burst: usize| {
            format!(
                "[burstrows]\nid = src\nburst = {burst}\n\n\
                 [mavgvec]\nid = avg\nwindow = 5\nslide = 3\ninput[input] = src.out\n"
            )
        };
        assert!(!crate::testutil::assert_burst_invariant(cfg, "avg", 42).is_empty());
    }

    #[test]
    fn scalar_inputs_are_promoted_to_1d_vectors() {
        use crate::testutil::scalar_source_registry;
        let cfg = "\
[scalarsource]
id = src

[mavgvec]
id = avg
window = 2
emit = mean
input[input] = src.out
";
        let out = run_source_pipeline(&scalar_source_registry(), cfg, "avg", 4);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].sample.value, Value::from(vec![1.5]));
    }
}
