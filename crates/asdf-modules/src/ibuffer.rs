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
//! * `mode` — `tumbling` (default: buffer clears after each batch) or
//!   `sliding` (batch emitted every sample once warm).
//!
//! Scalar inputs batch into a `Vector` of `size` points; the batch carries
//! the timestamp of its newest point.

use std::collections::VecDeque;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::value::{Sample, Value};

/// Batches scalar samples into fixed-size vectors.
#[derive(Debug, Default)]
pub struct IBuffer {
    size: usize,
    sliding: bool,
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
        self.sliding = match ctx.param("mode").unwrap_or("tumbling") {
            "tumbling" => false,
            "sliding" => true,
            other => {
                return Err(ModuleError::invalid_parameter(
                    "mode",
                    format!("unknown mode `{other}`"),
                ))
            }
        };
        ctx.expect_input_count(1)?;
        let origin = ctx.input_slots()[0].1[0].origin.clone();
        self.out = Some(ctx.declare_output_with_origin("output0", origin));
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        // Borrowing drain: the rate-matching hot path consumes its whole
        // queue without a per-run Vec allocation.
        let out = self.out.expect("initialized");
        let (drain, mut emit) = ctx.drain_and_emit();
        for (_, env) in drain {
            let x = env.sample.value.as_float().ok_or_else(|| {
                ModuleError::Other(format!(
                    "ibuffer expects scalar samples, got {}",
                    env.sample.value.type_name()
                ))
            })?;
            self.buf.push_back(x);
            if self.buf.len() >= self.size {
                let batch: Vec<f64> = self.buf.iter().copied().collect();
                emit.emit_sample(out, Sample::new(env.sample.timestamp, Value::from(batch)));
                if self.sliding {
                    self.buf.pop_front();
                } else {
                    self.buf.clear();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{run_source_pipeline, scalar_source_registry};

    #[test]
    fn tumbling_batches_do_not_overlap() {
        let cfg = "\
[scalarsource]
id = src

[ibuffer]
id = buf
size = 3
input[input] = src.out
";
        let out = run_source_pipeline(&scalar_source_registry(), cfg, "buf", 7);
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
    fn sliding_batches_overlap() {
        let cfg = "\
[scalarsource]
id = src

[ibuffer]
id = buf
size = 3
mode = sliding
input[input] = src.out
";
        let out = run_source_pipeline(&scalar_source_registry(), cfg, "buf", 5);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[1].sample.value.as_vector().unwrap(),
            &[2.0, 3.0, 4.0][..]
        );
    }

    #[test]
    fn origin_propagates() {
        let cfg = "\
[scalarsource]
id = src

[ibuffer]
id = buf
size = 2
input[input] = src.out
";
        let out = run_source_pipeline(&scalar_source_registry(), cfg, "buf", 2);
        assert_eq!(out[0].source.origin, "test-node");
    }

    #[test]
    fn bad_config_fails_init() {
        use asdf_core::config::Config;
        use asdf_core::dag::Dag;
        for cfg in [
            "[scalarsource]\nid = s\n\n[ibuffer]\nid = b\nsize = 0\ninput[i] = s.out\n",
            "[scalarsource]\nid = s\n\n[ibuffer]\nid = b\ninput[i] = s.out\n",
            "[scalarsource]\nid = s\n\n[ibuffer]\nid = b\nsize = 2\nmode = bogus\ninput[i] = s.out\n",
            "[ibuffer]\nid = b\nsize = 2\n",
        ] {
            let parsed: Config = cfg.parse().unwrap();
            assert!(
                Dag::build(&scalar_source_registry(), &parsed).is_err(),
                "should reject: {cfg}"
            );
        }
    }
}
