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
//! A sample is one node's vector, as wide as the model, or a rack's second:
//! a collector's `frame` row `[n, dim, node₀…, node₁…]`
//! ([`crate::rack::RackSummary::shape`]). Its node rows go through the same
//! scale and nearest-centroid scan either way, so one instance per rack —
//! one parse of the model text, one [`Classifier`] — reads exactly what
//! `n` per-node instances would.
//!
//! Configuration parameters:
//!
//! * `centroids` — clusters separated by `|`, components by `,`
//!   (as rendered by [`crate::training::BlackBoxModel::centroids_param`]);
//! * `stddev` — comma-separated scaling vector;
//! * `k` — neighbors to output (default 1).
//!
//! Output `output0`: per sample, the `k` nearest indices of each of its
//! node rows, node-major, as one row — except that a bare vector at `k = 1`
//! is answered with the nearest index as an `Int`, the paper's form.

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::time::Timestamp;
use asdf_core::value::Sample;

use crate::kernel::CentroidBlock;
use crate::rack::RackSummary;
use crate::training::{BlackBoxModel, Classifier};

/// 1-NN / k-NN workload-state classifier.
///
/// Every pending sample is packed into one [`CentroidBlock`] of query rows
/// and classified back to back by the `argmin_dist2` kernel scan; nothing
/// is allocated per sample but the output row.
#[derive(Debug, Default)]
pub struct Knn {
    classifier: Option<Classifier>,
    k: usize,
    out: Option<PortId>,
    /// Nearest-centroid scratch: the 1-NN state of every row of `rows`, or
    /// one row's `k` nearest.
    nearest: Vec<usize>,
    /// One padded query row per pending node row.
    rows: CentroidBlock,
    /// Per pending sample: its timestamp and the node rows it holds in
    /// `rows` — `None` for a bare vector, which holds one.
    samples: Vec<(Timestamp, Option<usize>)>,
    /// The `k` indices of every row of `rows`, row-major.
    indices: Vec<f64>,
}

impl Knn {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        Knn::default()
    }

    /// Packs one sample's node rows for the scan: the one place a
    /// sample's width is checked.
    fn pack(&mut self, ts: Timestamp, sample: &[f64]) -> Result<(), ModuleError> {
        let dim = self.rows.dim();
        let (width, node_rows) = if sample.len() == dim {
            (None, sample)
        } else {
            match RackSummary::shape(sample) {
                Ok((n, d)) if d == dim => (Some(n), &sample[2..]),
                shape => {
                    return Err(ModuleError::Other(format!(
                        "knn dimension mismatch: sample {} vs model {dim}, \
                         and as a rack frame: {shape:?}",
                        sample.len()
                    )))
                }
            }
        };
        for row in node_rows.chunks_exact(dim) {
            self.rows.push_row(row);
        }
        self.samples.push((ts, width));
        Ok(())
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
        self.rows = CentroidBlock::with_dim(model.stddev.len());
        self.classifier = Some(model.into_classifier());
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        self.rows.clear();
        self.samples.clear();
        let (drain, mut emit) = ctx.drain_and_emit();
        for (_, env) in drain {
            let Some(raw) = env.sample.value.as_vector() else {
                return Err(ModuleError::Other(format!(
                    "knn expects vector samples, got {}",
                    env.sample.value.type_name()
                )));
            };
            self.pack(env.sample.timestamp, raw)?;
        }

        let classifier = self.classifier.as_mut().expect("initialized");
        let (out, k) = (self.out.expect("initialized"), self.k);
        self.indices.clear();
        if k == 1 {
            // The fused kernel scan; per row the same scale + argmin as
            // `Classifier::classify`.
            classifier.classify_block_into(&self.rows, &mut self.nearest);
            self.indices.extend(self.nearest.iter().map(|&i| i as f64));
        } else {
            for row in self.rows.rows() {
                classifier.classify_k_into(row, k, &mut self.nearest);
                self.indices.extend(self.nearest.iter().map(|&i| i as f64));
            }
        }
        let mut rest = &self.indices[..];
        for &(ts, width) in &self.samples {
            let (mine, later) = rest.split_at(width.unwrap_or(1) * k);
            rest = later;
            let sample = match (width, mine) {
                (None, &[idx]) => Sample::new(ts, idx as i64),
                _ => Sample::new(ts, mine),
            };
            emit.emit_sample(out, sample);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_source_pipeline, vector_source_registry};
    use asdf_core::value::Value;

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

    /// A `knn` with `params` over a replayed stream of `rows`.
    fn over_rows(params: &str, rows: &str) -> String {
        format!(
            "[rowreplay]\nid = src\nrows = {rows}\n\n\
             [knn]\nid = nn\n{params}centroids = 0,0|3,3|9,9\nstddev = 1,1\ninput[input] = src.out\n"
        )
    }

    #[test]
    fn a_frame_is_answered_with_one_row_of_its_nodes_neighbours() {
        let reg = vector_source_registry();
        // Three nodes, dim 2: near centroids 0, 2 and 1 (log-scaled).
        let frame = "3,2, 0,0, 9000,9000, 20,20";
        let bare = "0,0 | 9000,9000 | 20,20";
        for (k, params) in [(1, ""), (2, "k = 2\n")] {
            let rack = run_source_pipeline(&reg, &over_rows(params, frame), "nn", 2);
            assert_eq!(rack.len(), 1);
            let got = rack[0].sample.value.as_vector().unwrap();
            // What three per-node samples are answered with, node-major.
            let per_node = run_source_pipeline(&reg, &over_rows(params, bare), "nn", 4);
            let want: Vec<f64> = per_node
                .iter()
                .flat_map(|e| match &e.sample.value {
                    Value::Int(i) => vec![*i as f64],
                    other => other.as_vector().unwrap().to_vec(),
                })
                .collect();
            assert_eq!(want.len(), 3 * k);
            assert_eq!(got, &want[..], "k = {k}");
            assert_eq!(rack[0].source.origin, "test-rack");
            assert_eq!(
                [got[0], got[k], got[2 * k]],
                [0.0, 2.0, 1.0],
                "nearest first"
            );
        }
        assert!(matches!(
            run_source_pipeline(&reg, &over_rows("", bare), "nn", 1)[0]
                .sample
                .value,
            Value::Int(0)
        ));
    }

    #[test]
    fn a_malformed_frame_is_a_module_error_never_a_panic() {
        use asdf_core::dag::Dag;
        use asdf_core::engine::TickEngine;
        use asdf_core::time::TickDuration;
        for (rows, why) in [
            ("2,2, 1,1, 2", "short payload"),
            ("2,2, 1,1, 2,2, 3", "long payload"),
            ("1.5,2, 1,1, 2", "fractional node count"),
            ("nan,2, 1,1", "NaN node count"),
            ("0,2, 1", "no nodes"),
            ("2,3, 1,1,1, 2,2,2", "a frame of another width"),
            ("1e300,2, 1,1", "a header no payload can match"),
            ("7", "one value"),
        ] {
            let cfg = over_rows("", &format!("1,1 | {rows}"));
            let dag = Dag::build(&vector_source_registry(), &cfg.parse().unwrap()).unwrap();
            let mut engine = TickEngine::new(dag);
            let tap = engine.tap("nn").unwrap();
            let err = engine.run_for(TickDuration::from_secs(3)).unwrap_err();
            assert_eq!((err.instance.as_str(), err.at_secs), ("nn", 1), "{why}");
            assert_eq!(tap.len(), 1, "{why}: the good sample before it stands");
        }
    }

    #[test]
    fn row_bursts_match_per_sample_outputs_at_any_batch() {
        // 45 rows, handed over one, 2, 7 or 9 to a run: every row is
        // answered, in order, with the state it alone decides.
        let (cents, sd) = model_params();
        let cfg = |burst: usize| {
            format!(
                "[burstrows]\nid = src\nburst = {burst}\n\n\
                 [knn]\nid = nn\ncentroids = {cents}\nstddev = {sd}\ninput[input] = src.out\n"
            )
        };
        let out = crate::testutil::assert_burst_invariant(cfg, "nn", 45);
        assert_eq!(out.len(), 45);
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
