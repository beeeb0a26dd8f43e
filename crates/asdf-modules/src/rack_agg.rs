//! The `rack_agg` tree-reduce stage for fleet-scale peer comparison.
//!
//! One instance per rack, wired to one edge: the rack collector's `frame`
//! port (`input[frame] = sadcr3.frame`), which carries the rack's second
//! as one row `[k, dim, node₀ metrics…, node₁ metrics…]`. The frame's node
//! rows are added into the running sums of the open windows
//! ([`crate::rack::FrameWindows`], the same code and arithmetic as a
//! one-rack `metric_rank`) straight from the frame, and the frame is
//! dropped in the run that delivered it: there is no per-node edge, queue
//! or aligner between a collector and its aggregator, and nothing is held
//! per sample. Every `slide` frames (the first time on frame
//! `max(window, slide)`) a window closes and its per-node means leave in
//! the same layout, `[k, dim, means…]` ([`crate::rack::RackSummary`]), on
//! the `sum` port, stamped like the frame that closed it.
//!
//! A frame is input from outside the module: a header that is missing,
//! non-integral or at odds with the payload length, and a `k` or `dim`
//! that changes mid-stream, are each a [`ModuleError`] that names the
//! problem — never a panic, never a silently mis-shaped mean.
//!
//! A downstream `metric_rank` without a `window` of its own reads the rack
//! summaries, concatenates them back into the fleet's mean matrix and runs
//! the identical baseline/MAD/deviation ranking — bitwise equal to one
//! `metric_rank` windowing one frame of every node, while the DAG moves
//! O(racks) rows per second ahead of the aggregators and O(racks) per
//! evaluation behind them.
//!
//! Configuration parameters:
//!
//! * `window` — samples per window (default 60);
//! * `slide` — samples between evaluations (default = `window`).

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::value::{Sample, Value};

use crate::rack::FrameWindows;

/// Per-rack windowed-mean summarizer (see the module docs).
#[derive(Debug)]
pub struct RackAgg {
    frames: Option<FrameWindows>,
    /// Emission scratch: `[k, dim, means…]`.
    out_row: Vec<f64>,
    out: Option<PortId>,
}

impl RackAgg {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        RackAgg {
            frames: None,
            out_row: Vec::new(),
            out: None,
        }
    }
}

impl Default for RackAgg {
    fn default() -> Self {
        RackAgg::new()
    }
}

impl Module for RackAgg {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        // The summary's origin is the frame's, the rack's first node —
        // downstream `metric_rank` re-labels per node from its own list.
        let (frames, origin) = FrameWindows::init(ctx, "rack_agg", None)?;
        self.frames = Some(frames);
        self.out = Some(ctx.declare_output_with_origin("sum", origin));
        Ok(())
    }

    /// Adds every pending frame to the open windows and emits one rack
    /// summary per window closed — the cadence of a one-rack `metric_rank`,
    /// so the two wirings evaluate at identical timestamps.
    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let frames = self.frames.as_mut().expect("initialized");
        let port = self.out.expect("initialized");
        let (drain, mut emit) = ctx.drain_and_emit();
        for (_, env) in drain {
            let Value::Vector(frame) = &env.sample.value else {
                return Err(ModuleError::Other(format!(
                    "rack_agg expects rack frames, got {}",
                    env.sample.value.type_name()
                )));
            };
            let Some(means) = frames.push(frame)? else {
                continue;
            };
            self.out_row.clear();
            self.out_row.extend_from_slice(&frame[..2]);
            self.out_row.extend_from_slice(means);
            emit.emit_sample(port, Sample::new(env.sample.timestamp, &self.out_row[..]));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_core::config::Config;
    use asdf_core::dag::Dag;
    use asdf_core::engine::TickEngine;
    use asdf_core::error::BuildDagError;
    use asdf_core::registry::ModuleRegistry;
    use asdf_core::time::TickDuration;

    use crate::rack::RackSummary;
    use crate::testutil::{assert_bad_frames_are_module_errors, frame_node_registry, Emitted};

    fn registry() -> ModuleRegistry {
        frame_node_registry(&Emitted::default())
    }

    #[test]
    fn summaries_carry_per_node_windowed_means() {
        let cfg: Config = "\
[framenode]
id = rack
base = 1,3

[rack_agg]
id = ra
window = 4
input[frame] = rack.frame
"
        .parse()
        .unwrap();
        let dag = Dag::build(&registry(), &cfg).unwrap();
        let mut eng = TickEngine::new(dag);
        let tap = eng.tap("ra").unwrap();
        eng.run_for(TickDuration::from_secs(9)).unwrap();
        let out = tap.drain();
        assert_eq!(out.len(), 2, "two non-overlapping 4-sample windows");
        for env in &out {
            assert_eq!(env.source.origin, "n0", "the frame's origin");
            let row = env.sample.value.as_vector().unwrap();
            let s = RackSummary::decode(row).unwrap();
            assert_eq!((s.n_nodes, s.dim), (2, 2));
            // Constant inputs: the mean is the input itself.
            assert_eq!(s.means, vec![1.0, 2.0, 3.0, 6.0]);
        }
    }

    /// A ramping two-node rack into one `rack_agg` with window 4 and the
    /// given slide, run for 13 s: `(closing second, summary)` per emission,
    /// and the engine they came from, still holding whatever it holds.
    fn ramp_summaries(slide: usize, emitted: &Emitted) -> (TickEngine, Vec<(u64, RackSummary)>) {
        let cfg: Config = format!(
            "\
[framenode]
id = rack
base = 1,3
ramp = 1,0.5

[rack_agg]
id = ra
window = 4
slide = {slide}
input[frame] = rack.frame
"
        )
        .parse()
        .unwrap();
        let dag = Dag::build(&frame_node_registry(emitted), &cfg).unwrap();
        let mut eng = TickEngine::new(dag);
        let tap = eng.tap("ra").unwrap();
        eng.run_for(TickDuration::from_secs(13)).unwrap();
        let out = tap
            .drain()
            .iter()
            .map(|env| {
                let row = env.sample.value.as_vector().unwrap();
                (
                    env.sample.timestamp.as_secs(),
                    RackSummary::decode(row).unwrap(),
                )
            })
            .collect();
        (eng, out)
    }

    #[test]
    fn overlapping_and_gapped_windows_close_on_their_last_row() {
        // Rows are numbered from 1; row r carries n0 = r, n1 = 3 + (r-1)/2.
        // A window closing on row e covers rows e-3..=e, mean of n0 = e - 1.5.
        for (slide, closing_rows) in [
            (4, vec![4, 8, 12]),
            (2, vec![4, 6, 8, 10, 12]), // slide < window: two windows open
            (6, vec![6, 12]),           // slide > window: rows 1-2, 7-8 in none
        ] {
            let (_, out) = ramp_summaries(slide, &Emitted::default());
            // Row r is second r - 1; a summary is stamped with its last row.
            let rows: Vec<u64> = out.iter().map(|(t, _)| t + 1).collect();
            assert_eq!(rows, closing_rows, "slide {slide}");
            for (e, (_, s)) in closing_rows.iter().zip(&out) {
                let n0 = *e as f64 - 1.5;
                let n1 = 3.0 + (*e as f64 - 2.5) / 2.0;
                assert_eq!(s.means, vec![n0, 2.0 * n0, n1, 2.0 * n1], "slide {slide}");
            }
        }
    }

    /// The memory claim: a frame is summed and dropped in the run that
    /// delivered it, so once `run_for` returns nothing the collector
    /// emitted is still alive, whatever the window shape.
    #[test]
    fn no_sample_outlives_the_run_that_delivered_it() {
        for slide in [4, 2, 6] {
            let emitted = Emitted::default();
            let (engine, out) = ramp_summaries(slide, &emitted);
            assert!(!out.is_empty());
            let emitted = emitted.lock().unwrap();
            assert_eq!(emitted.len(), 13, "the rack emitted every second");
            let alive = emitted.iter().filter(|w| w.upgrade().is_some()).count();
            assert_eq!(alive, 0, "slide {slide}: payloads still referenced");
            drop(engine);
        }
    }

    #[test]
    fn a_malformed_frame_is_a_module_error_never_a_panic() {
        // Window 2, slide 1: the five good frames close four windows.
        let ra = "[rack_agg]\nid = ra\nwindow = 2\nslide = 1\ninput[frame] = rack.frame\n";
        assert_bad_frames_are_module_errors(2, ra, "ra", 4);
    }

    #[test]
    fn config_validation() {
        let rack = "[framenode]\nid = rack\nbase = 1,3\n\n";
        for cfg in [
            format!("{rack}[rack_agg]\nid = ra\nwindow = 0\ninput[frame] = rack.frame\n"),
            format!("{rack}[rack_agg]\nid = ra\nslide = 0\ninput[frame] = rack.frame\n"),
        ] {
            let parsed: Config = cfg.parse().unwrap();
            assert!(Dag::build(&registry(), &parsed).is_err(), "should reject");
        }
        // One input, one connection: anything else is `BadInputs`.
        let other = "[framenode]\nid = rack2\nbase = 1,3\n\n";
        for (cfg, why) in [
            ("[rack_agg]\nid = ra\n".to_owned(), "no input"),
            (
                format!(
                    "{rack}{other}[rack_agg]\nid = ra\n\
                     input[m0] = rack.frame\ninput[m1] = rack2.frame\n"
                ),
                "two inputs",
            ),
            (
                format!("{rack}[rack_agg]\nid = ra\ninput[frame] = @rack\n"),
                "every port of the collector on the one input",
            ),
        ] {
            let parsed: Config = cfg.parse().unwrap();
            match Dag::build(&registry(), &parsed) {
                Err(BuildDagError::ModuleInit {
                    source: ModuleError::BadInputs(_),
                    ..
                }) => {}
                other => panic!("{why}: expected BadInputs, got {:?}", other.err()),
            }
        }
    }
}
