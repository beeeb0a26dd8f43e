//! Property tests: the [`Classifier`]'s optimized paths (early-exit fused
//! argmin, single-distance ranking, reused buffers) agree with a naive
//! reference implementation, including on exact distance ties and zero-σ
//! scaling components.
//!
//! The reference distance is [`kernel::dist2_x4`] — the canonical 4-lane
//! scalar fold the SIMD paths are pinned against (see `kernel_prop.rs`) —
//! so these tests isolate the *selection* logic (argmin, ranking, tie
//! breaks, buffer reuse) from accumulation-order concerns.

use asdf_modules::kernel::{self, CentroidBlock};
use asdf_modules::training::{scale_log, BlackBoxModel, Classifier};
use proptest::prelude::*;

/// Chosen to leave a remainder chunk in both the early-exit distance
/// kernel (bound checks every 16 components) and the 4-lane fold.
const DIM: usize = 19;

/// Reference 1-NN: scale by division, then the double-distance `min_by`
/// scan the optimized path replaced.
fn naive_classify(model: &BlackBoxModel, raw: &[f64]) -> usize {
    let x = scale_log(raw, &model.stddev);
    (0..model.centroids.len())
        .min_by(|&i, &j| {
            kernel::dist2_x4(&x, model.centroids.row(i))
                .partial_cmp(&kernel::dist2_x4(&x, model.centroids.row(j)))
                .expect("finite")
        })
        .expect("non-empty")
}

/// Reference k-NN: stable index sort recomputing distances in the
/// comparator (ties keep the lower index, like the optimized path).
fn naive_classify_k(model: &BlackBoxModel, raw: &[f64], k: usize) -> Vec<usize> {
    let x = scale_log(raw, &model.stddev);
    let mut idx: Vec<usize> = (0..model.centroids.len()).collect();
    idx.sort_by(|&i, &j| {
        kernel::dist2_x4(&x, model.centroids.row(i))
            .partial_cmp(&kernel::dist2_x4(&x, model.centroids.row(j)))
            .expect("finite")
    });
    idx.truncate(k);
    idx
}

fn model_from(centroids: &[Vec<f64>], stddev: Vec<f64>) -> BlackBoxModel {
    BlackBoxModel {
        stddev,
        centroids: CentroidBlock::from_rows(centroids),
    }
}

fn ctx_classify_k(ctx: &mut Classifier, raw: &[f64], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    ctx.classify_k_into(raw, k, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both optimized entry points against the reference, with σ drawn
    /// from {0} ∪ powers of two so the `Classifier`'s reciprocal multiply
    /// is bit-identical to the reference's division (zero exercises the
    /// clamp-to-1 branch), and with the first centroid duplicated so exact
    /// distance ties occur on every case.
    #[test]
    fn optimized_paths_match_naive_reference(
        mut centroids in proptest::collection::vec(
            proptest::collection::vec(-40.0f64..40.0, DIM),
            2..6,
        ),
        sigma_idx in proptest::collection::vec(0usize..6, DIM),
        raws in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..2000.0, DIM),
            1..10,
        ),
        k_pick in 0usize..64,
    ) {
        centroids.push(centroids[0].clone());
        let stddev: Vec<f64> = sigma_idx
            .iter()
            .map(|&i| [0.0, 0.25, 0.5, 1.0, 2.0, 4.0][i])
            .collect();
        let model = model_from(&centroids, stddev);
        let k = 1 + k_pick % model.centroids.len();
        let mut ctx = model.clone().into_classifier();
        for raw in &raws {
            prop_assert_eq!(ctx.classify(raw), naive_classify(&model, raw));
            prop_assert_eq!(
                ctx_classify_k(&mut ctx, raw, k),
                naive_classify_k(&model, raw, k)
            );
        }
    }

    /// `classify_k_into` is insensitive to the reused buffer's prior
    /// contents and capacity: through an arbitrary dirty buffer it still
    /// matches the reference.
    #[test]
    fn classify_k_into_ignores_prior_buffer_contents(
        centroids in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, DIM),
            1..5,
        ),
        raw in proptest::collection::vec(0.0f64..100.0, DIM),
        garbage in proptest::collection::vec(0usize..1000, 0..32),
    ) {
        let model = model_from(&centroids, vec![1.0; DIM]);
        let k = model.centroids.len();
        let want = naive_classify_k(&model, &raw, k);
        let mut ctx = model.into_classifier();
        let mut got = garbage;
        ctx.classify_k_into(&raw, k, &mut got);
        prop_assert_eq!(got, want);
    }
}
