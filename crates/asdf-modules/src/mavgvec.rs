//! The `mavgvec` analysis module.
//!
//! Paper §3: "mavgvec ... computes arithmetic mean and variance of a vector
//! input over a sliding window of samples from multiple given input data
//! streams. The sample vector size and window width are configurable, as is
//! the number of samples to slide the window before generating new
//! outputs."
//!
//! A sample is a rack's second, a collector's `frame` row `[k, dim, node
//! rows…]` ([`crate::rack::frame_shape`]), every frame of the first one's
//! `(k, dim)`. Mean and variance are component-wise, so the statistics of
//! a rack's frames are its nodes' statistics: each component is summed
//! over the window newest first, divided by the window, and its variance
//! taken in a second pass over the same samples.
//!
//! Configuration parameters:
//!
//! * `window` — samples per window (required, > 0);
//! * `slide` — samples to advance between emissions (default = `window`).
//!
//! Output `stats`, one rack frame per window, `[k, 2·dim, per node: its
//! dim means, then its dim stddevs]` — the frame `analysis_wb` compares.

use std::collections::VecDeque;
use std::sync::Arc;

use asdf_core::error::ModuleError;
use asdf_core::module::{Emitter, InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::time::Timestamp;
use asdf_core::value::{Sample, Value};

use crate::rack::FrameStream;

/// Moving mean/variance over a sliding window of rack frames.
///
/// Frames are buffered by sharing the engine's `Arc<[f64]>` allocation (no
/// per-sample copy); the per-emission statistics are accumulated in
/// reusable scratch buffers.
#[derive(Debug, Default)]
pub struct MavgVec {
    window: usize,
    slide: usize,
    frames: FrameStream,
    buf: VecDeque<(Timestamp, Arc<[f64]>)>,
    since_emit: usize,
    /// Per-emission mean scratch, node rows as in a frame.
    mean: Vec<f64>,
    /// Per-emission variance scratch, transformed to stddev in place.
    var: Vec<f64>,
    /// Per-emission output row, the `stats` frame.
    stats: Vec<f64>,
    out: Option<PortId>,
}

impl MavgVec {
    /// Creates an unconfigured instance (configured in `init`).
    pub fn new() -> Self {
        MavgVec::default()
    }

    /// Buffers one frame and emits window statistics when a window
    /// completes.
    fn ingest(
        &mut self,
        ts: Timestamp,
        value: &Value,
        emit: &mut Emitter<'_>,
    ) -> Result<(), ModuleError> {
        let (frame, (k, dim)) = self.frames.check("mavgvec", value)?;
        self.buf.push_back((ts, Arc::clone(frame)));
        self.since_emit += 1;

        if self.buf.len() >= self.window && self.since_emit >= self.slide {
            self.since_emit = 0;
            let n = self.window as f64;
            self.mean.clear();
            self.mean.resize(k * dim, 0.0);
            for (_, v) in self.buf.iter().rev().take(self.window) {
                for (m, x) in self.mean.iter_mut().zip(&v[2..]) {
                    *m += x;
                }
            }
            for m in &mut self.mean {
                *m /= n;
            }
            self.var.clear();
            self.var.resize(k * dim, 0.0);
            for (_, v) in self.buf.iter().rev().take(self.window) {
                for ((s, m), x) in self.var.iter_mut().zip(&self.mean).zip(&v[2..]) {
                    let d = x - m;
                    *s += d * d;
                }
            }
            for s in &mut self.var {
                *s /= n;
            }
            for s in &mut self.var {
                *s = s.sqrt();
            }
            // Per node, its means then its stddevs.
            self.stats.clear();
            self.stats.extend([k as f64, (2 * dim) as f64]);
            for (mean, sd) in self.mean.chunks_exact(dim).zip(self.var.chunks_exact(dim)) {
                self.stats.extend_from_slice(mean);
                self.stats.extend_from_slice(sd);
            }
            // Stamp outputs with the window-end sample's timestamp so
            // cross-node alignment sees matching times.
            let ts = self.buf.back().expect("non-empty").0;
            let out = self.out.expect("configured in init");
            emit.emit_sample(out, Sample::new(ts, &self.stats[..]));
            // Trim history we can never need again.
            while self.buf.len() > self.window {
                self.buf.pop_front();
            }
        }
        Ok(())
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
        self.out = Some(ctx.declare_output_with_origin("stats", origin));
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        for (_, env) in &mut ctx.inputs {
            self.ingest(env.sample.timestamp, &env.sample.value, &mut ctx.out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{run_source_pipeline, vector_source_registry};

    #[test]
    fn mean_and_stddev_over_non_overlapping_windows() {
        // Source emits the one-node frame [1, 2, t, 2t] at t = 1, 2, 3, ...
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
        assert_eq!(out.len(), 2, "one stats frame per window: {out:?}");
        assert!(out.iter().all(|e| e.source.name == "stats"));
        // One node: its two means, then its two stddevs.
        let stats1 = out[0].sample.value.as_vector().unwrap().to_vec();
        assert_eq!(stats1[..4], [1.0, 4.0, 2.5, 5.0]);
        let expect_sd = (1.25f64).sqrt();
        assert!((stats1[4] - expect_sd).abs() < 1e-9);
        assert!((stats1[5] - 2.0 * expect_sd).abs() < 1e-9);
        let stats2 = out[1].sample.value.as_vector().unwrap().to_vec();
        assert_eq!(stats2[..4], [1.0, 4.0, 6.5, 13.0]);
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
input[input] = src.out
";
        let out = run_source_pipeline(&vector_source_registry(), cfg, "avg", 8);
        // Windows ending at t=4, 6, 8.
        assert_eq!(out.len(), 3);
        let means: Vec<f64> = out
            .iter()
            .map(|e| e.sample.value.as_vector().unwrap()[2])
            .collect();
        assert_eq!(means, vec![2.5, 4.5, 6.5]);
    }

    #[test]
    fn output_timestamps_are_window_ends() {
        let cfg = "\
[vecsource]
id = src

[mavgvec]
id = avg
window = 3
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
    fn scalar_inputs_are_rejected_at_runtime() {
        use crate::testutil::{frame_node_registry, Emitted};
        use asdf_core::dag::Dag;
        use asdf_core::engine::TickEngine;
        use asdf_core::time::TickDuration;
        let cfg = "[framenode]\nid = f\nbase = 1\nbad = scalar\nbad_at = 0\n\n\
                   [mavgvec]\nid = avg\nwindow = 2\ninput[input] = f.frame\n";
        let dag = Dag::build(
            &frame_node_registry(&Emitted::default()),
            &cfg.parse().unwrap(),
        );
        let mut eng = TickEngine::new(dag.unwrap());
        let err = eng.run_for(TickDuration::from_secs(3)).unwrap_err();
        assert_eq!((err.instance.as_str(), err.at_secs), ("avg", 0));
    }
}
