//! The `rack_agg` tree-reduce stage for fleet-scale peer comparison.
//!
//! One instance per rack, wired to the rack's per-node collector edges
//! (`m0`, `m1`, …). Each aligned row of samples is added into the running
//! sums of the open windows ([`crate::rack::WindowSums`], the same code
//! and arithmetic as the flat `metric_rank` path) and dropped in the run
//! that delivered it: a sample is held only while it waits in the aligner
//! for its peers. Every `slide` aligned rows (the first time on row
//! `max(window, slide)`) a window closes and its per-node means leave as
//! one self-describing summary row `[k, dim, means…]`
//! ([`crate::rack::RackSummary`]) on the `sum` port.
//!
//! A downstream `metric_rank` in rack mode (its `nodes` parameter set)
//! concatenates the rack summaries back into the flat mean matrix and runs
//! the identical baseline/MAD/deviation ranking — bitwise equal to the
//! flat wiring, while the global DAG stage moves O(racks) rows instead of
//! O(nodes) metric vectors per evaluation.
//!
//! Configuration parameters:
//!
//! * `window` — samples per window (default 60);
//! * `slide` — samples between evaluations (default = `window`).

use std::sync::Arc;

use asdf_core::error::ModuleError;
use asdf_core::module::{Emitter, InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::value::Value;
use hadoop_logs::sync::Aligner;

use crate::metric_rank::MetricRow;
use crate::rack::WindowSums;

/// Per-rack windowed-mean summarizer (see the module docs).
#[derive(Debug)]
pub struct RackAgg {
    aligner: Aligner<MetricRow>,
    sums: WindowSums,
    /// Metric vector width, discovered from the first sample.
    dim: usize,
    /// Emission scratch: `[k, dim, means…]`.
    out_row: Vec<f64>,
    out: Option<PortId>,
}

impl RackAgg {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        RackAgg {
            aligner: Aligner::new(1),
            sums: WindowSums::new(1, 1),
            dim: 0,
            out_row: Vec::new(),
            out: None,
        }
    }

    fn push_envelope(
        &mut self,
        slot_idx: usize,
        secs: u64,
        value: &Value,
    ) -> Result<(), ModuleError> {
        let row = match value {
            Value::Vector(v) => MetricRow::Owned(Arc::clone(v)),
            other => {
                return Err(ModuleError::Other(format!(
                    "rack_agg expects vector samples, got {}",
                    other.type_name()
                )))
            }
        };
        self.check_width(row.as_ref().len())?;
        self.aligner.push(slot_idx, secs, row);
        Ok(())
    }

    fn check_width(&mut self, width: usize) -> Result<(), ModuleError> {
        if self.dim == 0 {
            self.dim = width;
        } else if width != self.dim {
            return Err(ModuleError::Other(format!(
                "inconsistent metric vector width: {} then {width}",
                self.dim
            )));
        }
        Ok(())
    }

    /// Drains aligned rows, emitting one rack summary per closed window —
    /// the same cadence as the flat `metric_rank`, so the rack path
    /// evaluates at identical timestamps.
    fn process_aligned(&mut self, emit: &mut Emitter<'_>) {
        while let Some((t, row)) = self.aligner.pop_aligned() {
            let Some(means) = self.sums.push(&row) else {
                continue;
            };
            self.out_row.clear();
            self.out_row.push(row.len() as f64);
            self.out_row.push(self.dim as f64);
            self.out_row.extend_from_slice(means);
            let ts = asdf_core::time::Timestamp::from_secs(t);
            emit.emit_row_at(self.out.expect("initialized"), ts, &self.out_row);
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
        let window = ctx.parse_param_or("window", 60usize)?;
        if window == 0 {
            return Err(ModuleError::invalid_parameter("window", "must be positive"));
        }
        let slide = ctx.parse_param_or("slide", window)?;
        if slide == 0 {
            return Err(ModuleError::invalid_parameter("slide", "must be positive"));
        }
        let k = ctx.input_slots().len();
        if k == 0 {
            return Err(ModuleError::BadInputs(
                "rack_agg needs at least one node input".to_owned(),
            ));
        }
        // The summary's origin is the rack's first node — downstream
        // rack-mode `metric_rank` re-labels per node from its own list.
        let (slot, sources) = &ctx.input_slots()[0];
        let origin = sources
            .first()
            .map(|m| m.origin.clone())
            .unwrap_or_else(|| slot.clone());
        self.out = Some(ctx.declare_output_with_origin("sum", origin));
        self.aligner = Aligner::new(k);
        self.sums = WindowSums::new(window, slide);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let (drain, mut emit) = ctx.drain_and_emit();
        for (slot_idx, env) in drain {
            self.push_envelope(slot_idx, env.sample.timestamp.as_secs(), &env.sample.value)?;
        }
        self.process_aligned(&mut emit);
        Ok(())
    }

    /// Columnar delivery: rack aggregators sit directly on the fleet's
    /// highest-volume edges, so batch runs hand whole row blocks over.
    fn accepts_row_blocks(&self) -> bool {
        true
    }

    fn run_batch(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        // Queued envelopes are always older than backlog rows (engine
        // invariant), so draining them first preserves arrival order.
        let blocks = ctx.take_row_blocks();
        let (drain, mut emit) = ctx.drain_and_emit();
        for (slot_idx, env) in drain {
            self.push_envelope(slot_idx, env.sample.timestamp.as_secs(), &env.sample.value)?;
        }
        for (slot_idx, block) in blocks {
            for r in 0..block.len() {
                let secs = block.stamps[r].as_secs();
                self.check_width(block.row(r).len())?;
                self.aligner
                    .push(slot_idx, secs, MetricRow::Block(Arc::clone(&block), r));
            }
        }
        self.process_aligned(&mut emit);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rack::RackSummary;
    use asdf_core::config::Config;
    use asdf_core::dag::Dag;
    use asdf_core::engine::TickEngine;
    use asdf_core::registry::ModuleRegistry;
    use asdf_core::time::TickDuration;
    use std::sync::{Mutex, Weak};

    /// Every payload a `vecnode` has emitted, by weak reference.
    type Emitted = Arc<Mutex<Vec<Weak<[f64]>>>>;

    /// Emits `[x, 2·x]` every second, `x = base + ramp·(seconds so far)`.
    struct VecNode {
        port: Option<PortId>,
        base: f64,
        ramp: f64,
        emitted: Emitted,
    }
    impl Module for VecNode {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.base = ctx.parse_param("base")?;
            self.ramp = ctx.parse_param_or("ramp", 0.0)?;
            self.port = Some(ctx.declare_output_with_origin("out", format!("n{}", self.base)));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            let payload: Arc<[f64]> = Arc::from(vec![self.base, 2.0 * self.base]);
            self.base += self.ramp;
            self.emitted.lock().unwrap().push(Arc::downgrade(&payload));
            ctx.emit(self.port.unwrap(), Value::Vector(payload));
            Ok(())
        }
    }

    fn registry_recording(emitted: &Emitted) -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        crate::register_analysis_modules(&mut reg);
        let emitted = Arc::clone(emitted);
        reg.register("vecnode", move || {
            Box::new(VecNode {
                port: None,
                base: 0.0,
                ramp: 0.0,
                emitted: Arc::clone(&emitted),
            })
        });
        reg
    }

    fn registry() -> ModuleRegistry {
        registry_recording(&Emitted::default())
    }

    #[test]
    fn summaries_carry_per_node_windowed_means() {
        let cfg: Config = "\
[vecnode]
id = n0
base = 1

[vecnode]
id = n1
base = 3

[rack_agg]
id = ra
window = 4
input[m0] = n0.out
input[m1] = n1.out
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
            let row = env.sample.value.as_vector().unwrap();
            let s = RackSummary::decode(row).unwrap();
            assert_eq!((s.n_nodes, s.dim), (2, 2));
            // Constant inputs: the mean is the input itself.
            assert_eq!(s.means, vec![1.0, 2.0, 3.0, 6.0]);
        }
    }

    /// Two ramping nodes into one `rack_agg` with window 4 and the given
    /// slide, run for 13 s: `(closing second, summary)` per emission, and
    /// the engine they came from, still holding whatever it holds.
    fn ramp_summaries(slide: usize, emitted: &Emitted) -> (TickEngine, Vec<(u64, RackSummary)>) {
        let cfg: Config = format!(
            "\
[vecnode]
id = n0
base = 1
ramp = 1

[vecnode]
id = n1
base = 3
ramp = 0.5

[rack_agg]
id = ra
window = 4
slide = {slide}
input[m0] = n0.out
input[m1] = n1.out
"
        )
        .parse()
        .unwrap();
        let dag = Dag::build(&registry_recording(emitted), &cfg).unwrap();
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

    /// The memory claim: a sample is summed and dropped in the run that
    /// delivered it, so once `run_for` returns nothing a source emitted is
    /// still alive, whatever the window shape.
    #[test]
    fn no_sample_outlives_the_run_that_delivered_it() {
        for slide in [4, 2, 6] {
            let emitted = Emitted::default();
            let (engine, out) = ramp_summaries(slide, &emitted);
            assert!(!out.is_empty());
            let emitted = emitted.lock().unwrap();
            assert_eq!(emitted.len(), 2 * 13, "every node emitted every second");
            let alive = emitted.iter().filter(|w| w.upgrade().is_some()).count();
            assert_eq!(alive, 0, "slide {slide}: payloads still referenced");
            drop(engine);
        }
    }

    #[test]
    fn config_validation() {
        for cfg in [
            "[vecnode]\nid = n0\nbase = 1\n\n[rack_agg]\nid = ra\nwindow = 0\ninput[m0] = n0.out\n",
            "[rack_agg]\nid = ra\n",
        ] {
            let parsed: Config = cfg.parse().unwrap();
            assert!(Dag::build(&registry(), &parsed).is_err(), "should reject");
        }
    }
}
