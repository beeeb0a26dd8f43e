//! The `ibuffer` rate-matching module.
//!
//! Paper §3.7: "data collection may potentially be faster than data
//! analysis ... To handle this rate mismatch, a buffer module (ibuffer) has
//! been written to collect individual data points from a data collection
//! module output, and present the data as an array of data points to an
//! analysis module, which can then process a larger data set more slowly."
//!
//! Configuration parameters:
//!
//! * `size` — data points per emitted batch (required, > 0);
//! * `mode` — `tumbling`, the default and the only mode accepted: a batch
//!   takes its `size` points out of the buffer, so batches never overlap.
//!   Any other mode is an invalid parameter rather than ignored.
//!
//! The input is a stream of rack frames ([`crate::rack::frame_shape`]),
//! every frame of the first one's shape. A frame's node values are
//! appended to the buffer in node order — a one-node rack's `knn` frame is
//! one point — and a `Vector` batch of the `size` oldest points leaves each
//! time the buffer holds `size`, stamped with the frame that filled it.

use std::collections::VecDeque;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::value::{Sample, Value};

use crate::rack::FrameStream;

/// Batches the node values of its input frames into fixed-size vectors.
#[derive(Debug, Default)]
pub struct IBuffer {
    size: usize,
    frames: FrameStream,
    buf: VecDeque<f64>,
    out: Option<PortId>,
}

impl IBuffer {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        IBuffer::default()
    }
}

impl Module for IBuffer {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.size = ctx.parse_param("size")?;
        if self.size == 0 {
            return Err(ModuleError::invalid_parameter("size", "must be positive"));
        }
        if let Some(other) = ctx.param("mode").filter(|&m| m != "tumbling") {
            return Err(ModuleError::invalid_parameter(
                "mode",
                format!("`{other}`: only `tumbling` is supported"),
            ));
        }
        ctx.expect_input_count(1)?;
        let origin = ctx.input_slots()[0].1[0].origin.clone();
        self.out = Some(ctx.declare_output_with_origin("output0", origin));
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let out = self.out.expect("initialized");
        for (_, env) in &mut ctx.inputs {
            let (frame, _) = self.frames.check("ibuffer", &env.sample.value)?;
            self.buf.extend(&frame[2..]);
            while self.buf.len() >= self.size {
                let batch = self.buf.range(..self.size).copied();
                let batch = Value::from(batch.collect::<Vec<f64>>());
                ctx.out
                    .emit_sample(out, Sample::new(env.sample.timestamp, batch));
                self.buf.drain(..self.size);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{run_source_pipeline, vector_source_registry};

    /// The frames `[1, 1, t]` for t = 1..=7: what a one-node rack's `knn`
    /// hands on.
    const ROWS: &str =
        "[rowreplay]\nid = src\nrows = 1,1,1|1,1,2|1,1,3|1,1,4|1,1,5|1,1,6|1,1,7\n\n";

    #[test]
    fn tumbling_batches_do_not_overlap() {
        let cfg = &format!("{ROWS}[ibuffer]\nid = buf\nsize = 3\ninput[input] = src.out\n");
        let out = run_source_pipeline(&vector_source_registry(), cfg, "buf", 7);
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0].sample.value.as_vector().unwrap(),
            &[1.0, 2.0, 3.0][..]
        );
        assert_eq!(
            out[1].sample.value.as_vector().unwrap(),
            &[4.0, 5.0, 6.0][..]
        );
        // Batch timestamp = newest point's timestamp (source emits at t=0..).
        assert_eq!(out[0].sample.timestamp.as_secs(), 2);
    }

    #[test]
    fn a_row_of_several_values_is_appended_in_order() {
        // `vecsource` frames `[1, 2, t, 2t]`: a frame can complete more than
        // one batch.
        let cfg = "[vecsource]\nid = src\n\n[ibuffer]\nid = buf\nsize = 3\nmode = tumbling\ninput[input] = src.out\n";
        let out = run_source_pipeline(&vector_source_registry(), cfg, "buf", 3);
        let batches: Vec<_> = out
            .iter()
            .map(|e| {
                let secs = e.sample.timestamp.as_secs();
                (secs, e.sample.value.as_vector().unwrap().to_vec())
            })
            .collect();
        assert_eq!(
            batches,
            [(1, vec![1.0, 2.0, 2.0]), (2, vec![4.0, 3.0, 6.0])]
        );
    }

    #[test]
    fn origin_propagates() {
        let cfg = &format!("{ROWS}[ibuffer]\nid = buf\nsize = 2\ninput[input] = src.out\n");
        let out = run_source_pipeline(&vector_source_registry(), cfg, "buf", 2);
        assert_eq!(out[0].source.origin, "test-rack");
    }

    #[test]
    fn bad_config_fails_init() {
        use asdf_core::config::Config;
        use asdf_core::dag::Dag;
        for cfg in [
            "[vecsource]\nid = s\n\n[ibuffer]\nid = b\nsize = 0\ninput[i] = s.out\n",
            "[vecsource]\nid = s\n\n[ibuffer]\nid = b\ninput[i] = s.out\n",
            "[vecsource]\nid = s\n\n[ibuffer]\nid = b\nsize = 2\nmode = bogus\ninput[i] = s.out\n",
            "[vecsource]\nid = s\n\n[ibuffer]\nid = b\nsize = 2\nmode = sliding\ninput[i] = s.out\n",
            "[ibuffer]\nid = b\nsize = 2\n",
        ] {
            let parsed: Config = cfg.parse().unwrap();
            assert!(
                Dag::build(&vector_source_registry(), &parsed).is_err(),
                "should reject: {cfg}"
            );
        }
    }
}
