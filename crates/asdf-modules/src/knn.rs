//! The `knn` analysis module.
//!
//! Paper §3.6: "The knn (k-nearest neighbors) module is used to match
//! sample points with centroids corresponding to known system states. It
//! takes as configuration parameters k, a list of centroids, and a standard
//! deviation vector ... For each input sample s, a vector s′ is computed as
//! `s′_i = log(1+s_i)/σ_i` and the Euclidean distance between s′ and each
//! centroid is computed. The indices of the k nearest centroids to s′ ...
//! are output."
//!
//! Configuration parameters:
//!
//! * `centroids` — clusters separated by `|`, components by `,`
//!   (as rendered by [`crate::training::BlackBoxModel::centroids_param`]);
//! * `stddev` — comma-separated scaling vector;
//! * `k` — neighbors to output (default 1; `output0` carries the nearest
//!   index as an `Int`, and for `k > 1` a `Vector` of indices instead).

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::time::Timestamp;
use asdf_core::value::{Sample, Value};

use crate::kernel::CentroidBlock;
use crate::training::{BlackBoxModel, Classifier};

/// 1-NN / k-NN workload-state classifier.
///
/// Holds a [`Classifier`] context so the per-tick path reuses its scaling
/// and ranking buffers instead of allocating per sample. Under a batched
/// engine, [`Module::run_batch`] packs the whole pending tick-range into a
/// columnar [`CentroidBlock`] and feeds full query rows to the
/// `argmin_dist2` kernel scan — bitwise identical to the per-sample path.
#[derive(Debug, Default)]
pub struct Knn {
    classifier: Option<Classifier>,
    k: usize,
    out: Option<PortId>,
    /// Reused across ticks by `classify_k_into`.
    ranked: Vec<usize>,
    /// Columnar batch scratch: one padded query row per pending sample.
    batch_rows: CentroidBlock,
    /// Per-row timestamps matching `batch_rows`.
    batch_stamps: Vec<Timestamp>,
    /// Per-row 1-NN states from `classify_block_into`.
    batch_states: Vec<usize>,
}

impl Knn {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        Knn::default()
    }
}

impl Module for Knn {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        let centroids = ctx.require_param("centroids")?.to_owned();
        let stddev = ctx.require_param("stddev")?.to_owned();
        let model = BlackBoxModel::from_params(&centroids, &stddev)
            .map_err(|e| ModuleError::invalid_parameter("centroids", e.to_string()))?;
        self.k = ctx.parse_param_or("k", 1usize)?;
        if self.k == 0 || self.k > model.n_states() {
            return Err(ModuleError::invalid_parameter(
                "k",
                format!("must be in 1..={}", model.n_states()),
            ));
        }
        ctx.expect_input_count(1)?;
        let origin = ctx.input_slots()[0].1[0].origin.clone();
        self.out = Some(ctx.declare_output_with_origin("output0", origin));
        self.batch_rows = CentroidBlock::with_dim(model.stddev.len());
        self.classifier = Some(model.into_classifier());
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let classifier = self.classifier.as_mut().expect("initialized");
        let out = self.out.expect("initialized");
        let k = self.k;
        let (drain, mut emit) = ctx.drain_and_emit();
        for (_, env) in drain {
            let Some(raw) = env.sample.value.as_vector() else {
                return Err(ModuleError::Other(format!(
                    "knn expects vector samples, got {}",
                    env.sample.value.type_name()
                )));
            };
            if raw.len() != classifier.dim() {
                return Err(ModuleError::Other(format!(
                    "knn dimension mismatch: sample {} vs model {}",
                    raw.len(),
                    classifier.dim()
                )));
            }
            let ts = env.sample.timestamp;
            if k == 1 {
                let idx = classifier.classify(raw) as i64;
                emit.emit_sample(out, Sample::new(ts, idx));
            } else {
                classifier.classify_k_into(raw, k, &mut self.ranked);
                let idxs: Vec<f64> = self.ranked.iter().map(|&i| i as f64).collect();
                emit.emit_sample(out, Sample::new(ts, Value::from(idxs)));
            }
        }
        Ok(())
    }

    /// Opt into columnar delivery: upstream row batches arrive as shared
    /// [`asdf_core::module::RowBlock`]s instead of per-sample envelopes,
    /// and `run_batch` feeds their rows straight into the kernel scan.
    fn accepts_row_blocks(&self) -> bool {
        true
    }

    fn run_batch(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        // Queued envelopes first, then row blocks: the engine's per-slot
        // invariant is that backlog rows are always newer than anything in
        // the queue, so this is exactly the per-sample arrival order.
        let blocks = ctx.take_row_blocks();
        let classifier = self.classifier.as_mut().expect("initialized");
        let out = self.out.expect("initialized");
        // Pack the whole pending tick-range into the columnar scratch,
        // validating each sample exactly as the per-sample path does (the
        // first offending envelope raises the same error).
        self.batch_rows.clear();
        self.batch_stamps.clear();
        let (drain, mut emit) = ctx.drain_and_emit();
        for (_, env) in drain {
            let Some(raw) = env.sample.value.as_vector() else {
                return Err(ModuleError::Other(format!(
                    "knn expects vector samples, got {}",
                    env.sample.value.type_name()
                )));
            };
            if raw.len() != classifier.dim() {
                return Err(ModuleError::Other(format!(
                    "knn dimension mismatch: sample {} vs model {}",
                    raw.len(),
                    classifier.dim()
                )));
            }
            self.batch_rows.push_row(raw);
            self.batch_stamps.push(env.sample.timestamp);
        }
        for (_, block) in &blocks {
            if block.dim != classifier.dim() {
                return Err(ModuleError::Other(format!(
                    "knn dimension mismatch: sample {} vs model {}",
                    block.dim,
                    classifier.dim()
                )));
            }
            for (ts, row) in block.rows() {
                self.batch_rows.push_row(row);
                self.batch_stamps.push(ts);
            }
        }
        if self.k == 1 {
            // Full query rows through the fused kernel scan, back to back;
            // per row this is the same scale + argmin as `classify`, so
            // the emitted stream is bitwise identical to `run`'s.
            classifier.classify_block_into(&self.batch_rows, &mut self.batch_states);
            for (&ts, &idx) in self.batch_stamps.iter().zip(&self.batch_states) {
                emit.emit_sample(out, Sample::new(ts, idx as i64));
            }
        } else {
            for (r, &ts) in self.batch_stamps.iter().enumerate() {
                classifier.classify_k_into(self.batch_rows.row(r), self.k, &mut self.ranked);
                let idxs: Vec<f64> = self.ranked.iter().map(|&i| i as f64).collect();
                emit.emit_sample(out, Sample::new(ts, Value::from(idxs)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_source_pipeline, vector_source_registry};

    /// Model with centroids near log-scaled [1,2] and [8,16] streams.
    fn model_params() -> (String, String) {
        // Train on the exact stream the vecsource emits plus a far blob.
        let mut samples: Vec<Vec<f64>> = (1..=20).map(|t| vec![t as f64, 2.0 * t as f64]).collect();
        samples.extend((1..=20).map(|t| vec![5000.0 + t as f64, 9000.0]));
        let model = BlackBoxModel::fit(&samples, 2, 3);
        (model.centroids_param(), model.stddev_param())
    }

    #[test]
    fn one_nn_classifies_the_stream_consistently() {
        let (cents, sd) = model_params();
        let cfg = format!(
            "[vecsource]\nid = src\n\n[knn]\nid = onenn\ncentroids = {cents}\nstddev = {sd}\ninput[input] = src.out\n"
        );
        let out = run_source_pipeline(&vector_source_registry(), &cfg, "onenn", 10);
        assert_eq!(out.len(), 10);
        let states: Vec<i64> = out
            .iter()
            .map(|e| e.sample.value.as_int().unwrap())
            .collect();
        // All samples come from the near-stream workload: one state.
        assert!(states.windows(2).all(|w| w[0] == w[1]), "{states:?}");
        assert_eq!(out[0].source.origin, "test-node");
    }

    #[test]
    fn k_greater_than_one_emits_index_vectors() {
        let (cents, sd) = model_params();
        let cfg = format!(
            "[vecsource]\nid = src\n\n[knn]\nid = nn\nk = 2\ncentroids = {cents}\nstddev = {sd}\ninput[input] = src.out\n"
        );
        let out = run_source_pipeline(&vector_source_registry(), &cfg, "nn", 3);
        let v = out[0].sample.value.as_vector().unwrap();
        assert_eq!(v.len(), 2);
        assert_ne!(v[0], v[1]);
    }

    #[test]
    fn row_block_batches_match_per_sample_outputs() {
        use crate::testutil::{burst_source_registry, run_source_pipeline_batched};
        let (cents, sd) = model_params();
        // 9 rows per tick at batch 4: blocks of non-power-of-two lengths
        // reach the classifier's columnar path.
        let cfg = format!(
            "[burstrows]\nid = src\nburst = 9\n\n\
             [knn]\nid = nn\ncentroids = {cents}\nstddev = {sd}\ninput[input] = src.out\n"
        );
        let reg = burst_source_registry();
        let reference: Vec<_> = run_source_pipeline_batched(&reg, &cfg, "nn", 5, 1)
            .into_iter()
            .map(|e| (e.sample.timestamp, e.sample.value))
            .collect();
        assert_eq!(reference.len(), 45);
        for batch in [4, 64] {
            let got: Vec<_> = run_source_pipeline_batched(&reg, &cfg, "nn", 5, batch)
                .into_iter()
                .map(|e| (e.sample.timestamp, e.sample.value))
                .collect();
            assert_eq!(got, reference, "batch {batch} diverged from per-sample");
        }
    }

    #[test]
    fn invalid_configuration_fails_init() {
        use asdf_core::config::Config;
        use asdf_core::dag::Dag;
        let (cents, sd) = model_params();
        for cfg in [
            // k out of range
            format!("[vecsource]\nid = s\n\n[knn]\nid = n\nk = 9\ncentroids = {cents}\nstddev = {sd}\ninput[i] = s.out\n"),
            // missing centroids
            "[vecsource]\nid = s\n\n[knn]\nid = n\nstddev = 1.0,1.0\ninput[i] = s.out\n".to_owned(),
            // malformed centroids
            "[vecsource]\nid = s\n\n[knn]\nid = n\ncentroids = x|y\nstddev = 1.0\ninput[i] = s.out\n".to_owned(),
            // no input
            format!("[knn]\nid = n\ncentroids = {cents}\nstddev = {sd}\n"),
        ] {
            let parsed: Config = cfg.parse().unwrap();
            assert!(
                Dag::build(&vector_source_registry(), &parsed).is_err(),
                "should reject: {cfg}"
            );
        }
    }

    #[test]
    fn a_non_finite_model_component_is_an_invalid_parameter() {
        use asdf_core::config::Config;
        use asdf_core::dag::Dag;
        use asdf_core::error::BuildDagError;
        for (centroids, stddev) in [
            ("1.0,2.0|NaN,4.0", "1.0,1.0"),
            ("1.0,2.0|3.0,4.0", "1.0,inf"),
        ] {
            let cfg = format!(
                "[vecsource]\nid = s\n\n[knn]\nid = n\ncentroids = {centroids}\nstddev = {stddev}\ninput[i] = s.out\n"
            );
            let parsed: Config = cfg.parse().unwrap();
            match Dag::build(&vector_source_registry(), &parsed) {
                Err(BuildDagError::ModuleInit {
                    instance,
                    source: ModuleError::InvalidParameter { reason, .. },
                }) => {
                    assert_eq!(instance, "n");
                    assert!(reason.contains("non-finite"), "{reason}");
                }
                other => {
                    panic!("{centroids} / {stddev}: expected invalid_parameter, got {other:?}")
                }
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_a_runtime_error() {
        use asdf_core::config::Config;
        use asdf_core::dag::Dag;
        use asdf_core::engine::TickEngine;
        use asdf_core::time::TickDuration;
        // Model expects 3 dims; source emits 2.
        let cfg = "\
[vecsource]
id = src

[knn]
id = nn
centroids = 1.0,2.0,3.0
stddev = 1.0,1.0,1.0
input[input] = src.out
";
        let parsed: Config = cfg.parse().unwrap();
        let dag = Dag::build(&vector_source_registry(), &parsed).unwrap();
        let mut engine = TickEngine::new(dag);
        let err = engine.run_for(TickDuration::from_secs(2)).unwrap_err();
        assert_eq!(err.instance, "nn");
    }
}
