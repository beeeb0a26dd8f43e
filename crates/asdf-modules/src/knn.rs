//! The `knn` analysis module.
//!
//! Paper §3.6: "The knn (k-nearest neighbors) module is used to match
//! sample points with centroids corresponding to known system states. It
//! takes as configuration parameters k, a list of centroids, and a standard
//! deviation vector ... For each input sample s, a vector s′ is computed as
//! `s′_i = log(1+s_i)/σ_i` and the Euclidean distance between s′ and each
//! centroid is computed. The indices of the k nearest centroids to s′ ...
//! are output." ASDF's black-box analysis uses k = 1 (§4.4's 1-NN), and so
//! does this module: it answers each row with its nearest centroid.
//!
//! A sample is a rack's second: a collector's `frame` row `[n, dim,
//! node₀…, node₁…]` ([`crate::rack::frame_shape`]) whose `dim` is the
//! model's width, every frame of the rack's first one's shape. Each node
//! row is classified where it lies in the sample, with no copy, by one
//! [`Classifier`]: one instance per rack, one parse of the model text.
//!
//! Configuration parameters:
//!
//! * `centroids` — clusters separated by `|`, components by `,`
//!   (as rendered by [`crate::training::BlackBoxModel::centroids_param`]);
//! * `stddev` — comma-separated scaling vector;
//! * `k` — neighbors to output: 1, the default and the only value
//!   accepted. Any other is an invalid parameter rather than ignored, so
//!   a configuration that asks for more neighbours fails at build.
//!
//! Output `output0`: per sample, a rack frame `[n, 1, indices…]` of each
//! node row's nearest centroid index — the frame `analysis_bb` compares.

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::value::Sample;

use crate::rack::FrameStream;
use crate::training::{BlackBoxModel, Classifier};

/// 1-NN workload-state classifier.
///
/// Every node row of a pending sample goes straight from the sample to
/// [`Classifier::classify`] (its certified `f32` screen, else the exact
/// `f64` scan); nothing is allocated per sample but the output row.
#[derive(Debug, Default)]
pub struct Knn {
    classifier: Option<Classifier>,
    frames: FrameStream,
    out: Option<PortId>,
    /// One sample's answer: `[n, 1, indices…]`.
    indices: Vec<f64>,
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
        if ctx.parse_param_or("k", 1usize)? != 1 {
            return Err(ModuleError::invalid_parameter("k", "must be 1"));
        }
        ctx.expect_input_count(1)?;
        let origin = ctx.input_slots()[0].1[0].origin.clone();
        self.out = Some(ctx.declare_output_with_origin("output0", origin));
        self.classifier = Some(model.into_classifier());
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let classifier = self.classifier.as_mut().expect("initialized");
        let out = self.out.expect("initialized");
        for (_, env) in &mut ctx.inputs {
            let (frame, (nodes, width)) = self.frames.check("knn", &env.sample.value)?;
            let dim = classifier.dim();
            if width != dim {
                return Err(ModuleError::Other(format!(
                    "knn expects rack frames of the model's width {dim}, got {nodes}x{width}"
                )));
            }
            self.indices.clear();
            self.indices.extend([nodes as f64, 1.0]);
            self.indices.extend(
                frame[2..]
                    .chunks_exact(dim)
                    .map(|row| classifier.classify(row) as f64),
            );
            ctx.out
                .emit_sample(out, Sample::new(env.sample.timestamp, &self.indices[..]));
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

    /// A `knn` over a replayed stream of `rows`.
    fn over_rows(rows: &str) -> String {
        format!(
            "[rowreplay]\nid = src\nrows = {rows}\n\n\
             [knn]\nid = nn\ncentroids = 0,0|3,3|9,9\nstddev = 1,1\ninput[input] = src.out\n"
        )
    }

    /// A `knn` with `params` on the [`model_params`] model over `secs`
    /// seconds of the stream it was fitted to, `[t, 2t]`, as one-node frames.
    fn over_fitted_stream(params: &str, secs: u64) -> String {
        let (cents, sd) = model_params();
        let rows: Vec<String> = (1..=secs).map(|t| format!("1,2, {t},{}", 2 * t)).collect();
        format!(
            "[rowreplay]\nid = src\nrows = {}\n\n\
             [knn]\nid = nn\n{params}centroids = {cents}\nstddev = {sd}\ninput[input] = src.out\n",
            rows.join("|")
        )
    }

    #[test]
    fn one_nn_classifies_the_stream_consistently() {
        let out = run_source_pipeline(
            &vector_source_registry(),
            &over_fitted_stream("", 10),
            "nn",
            10,
        );
        assert_eq!(out.len(), 10);
        let states: Vec<f64> = out
            .iter()
            .map(|e| {
                let row = e.sample.value.as_vector().unwrap();
                assert_eq!(row[..2], [1.0, 1.0], "one node, one index: {row:?}");
                row[2]
            })
            .collect();
        // All samples come from the near-stream workload: one state.
        assert!(states.windows(2).all(|w| w[0] == w[1]), "{states:?}");
        assert_eq!(out[0].source.origin, "test-rack");
    }

    #[test]
    fn a_frame_is_answered_with_one_row_of_its_nodes_neighbours() {
        let reg = vector_source_registry();
        // Three nodes, dim 2: near centroids 0, 2 and 1 (log-scaled).
        let frame = "3,2, 0,0, 9000,9000, 20,20";
        let nodes = [[0.0, 0.0], [9000.0, 9000.0], [20.0, 20.0]];
        let rack = run_source_pipeline(&reg, &over_rows(frame), "nn", 2);
        assert_eq!(rack.len(), 1);
        let got = rack[0].sample.value.as_vector().unwrap();
        // What the classifier answers each node row with, node-major.
        let mut classifier = BlackBoxModel::from_params("0,0|3,3|9,9", "1,1")
            .unwrap()
            .into_classifier();
        let mut want = vec![3.0, 1.0];
        want.extend(nodes.iter().map(|row| classifier.classify(row) as f64));
        assert_eq!(got, &want[..]);
        assert_eq!(got[2..], [0.0, 2.0, 1.0]);
        assert_eq!(rack[0].source.origin, "test-rack");
    }

    #[test]
    fn a_malformed_frame_is_a_module_error_never_a_panic() {
        use asdf_core::dag::Dag;
        use asdf_core::engine::TickEngine;
        use asdf_core::time::TickDuration;
        // Each after a good one-node frame, against a model `width` wide.
        for (width, rows, why) in [
            (2, "2,2, 1,1, 2", "short payload"),
            (2, "2,2, 1,1, 2,2, 3", "long payload"),
            (2, "1.5,2, 1,1, 2", "fractional node count"),
            (2, "nan,2, 1,1", "NaN node count"),
            (2, "0,2, 1", "no nodes"),
            (2, "2,3, 1,1,1, 2,2,2", "a frame of another width"),
            (2, "1e300,2, 1,1", "a header no payload can match"),
            (2, "7", "one value"),
            (
                8,
                "2,3, 1,1,1, 2,2,2",
                "a frame as long as the model is wide",
            ),
        ] {
            let row = |x: &str| vec![x; width].join(",");
            let cfg = format!(
                "[rowreplay]\nid = src\nrows = 1,{width}, {} | {rows}\n\n\
                 [knn]\nid = nn\ncentroids = {}|{}|{}\nstddev = {}\ninput[input] = src.out\n",
                row("1"),
                row("0"),
                row("3"),
                row("9"),
                row("1")
            );
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
        // 45 one-node frames, handed over one, 2, 7 or 9 to a run: every
        // frame is answered, in order, with the state it alone decides.
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
        use asdf_core::error::BuildDagError;
        let with_k = |k| {
            format!("[vecsource]\nid = s\n\n[knn]\nid = n\nk = {k}\ncentroids = {cents}\nstddev = {sd}\ninput[i] = s.out\n")
        };
        // A k other than 1, in and out of the model's range.
        for k in [0, 2, 9] {
            let parsed: Config = with_k(k).parse().unwrap();
            match Dag::build(&vector_source_registry(), &parsed) {
                Err(BuildDagError::ModuleInit {
                    source: ModuleError::InvalidParameter { key, .. },
                    ..
                }) => assert_eq!(key, "k"),
                other => panic!("k = {k}: expected invalid_parameter, got {other:?}"),
            }
        }
        for cfg in [
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
        // Model expects 3 dims; the frame's nodes hold 2.
        let cfg = "\
[rowreplay]
id = src
rows = 1,2, 1,2

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
