//! Property tests: the [`Classifier`]'s optimized path (the early-exit
//! fused argmin) agrees with a naive reference implementation, including
//! on exact distance ties and zero-σ scaling components.
//!
//! The reference distance is [`kernel::dist2_x4`] — the canonical 4-lane
//! scalar fold the SIMD paths are pinned against (see `kernel_prop.rs`) —
//! so these tests isolate the *selection* logic (argmin, tie breaks) from
//! accumulation-order concerns.
//!
//! [`Classifier::classify`] answers through a certified `f32` screen when
//! it can prove the exact path's answer, and through the exact path
//! otherwise. The second half of this file pins that certificate: queries
//! placed just either side of the midpoint between two centroids, exact
//! ties, `NaN` / `±inf` / `1e300` / `-0.0` components and a σ that clamps
//! to 1 must all give the exact path's index, and the cases that can only
//! be settled exactly must be counted as fallbacks.

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

fn model_from(centroids: &[Vec<f64>], stddev: Vec<f64>) -> BlackBoxModel {
    BlackBoxModel {
        stddev,
        centroids: CentroidBlock::from_rows(centroids),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The optimized path against the reference, with σ drawn
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
    ) {
        centroids.push(centroids[0].clone());
        let stddev: Vec<f64> = sigma_idx
            .iter()
            .map(|&i| [0.0, 0.25, 0.5, 1.0, 2.0, 4.0][i])
            .collect();
        let model = model_from(&centroids, stddev);
        let mut ctx = model.clone().into_classifier();
        for raw in &raws {
            prop_assert_eq!(ctx.classify(raw), naive_classify(&model, raw));
        }
    }
}

/// The exact path, operation for operation: `log(1+x)` times the `1/σ`
/// reciprocal (σ within noise of zero clamped to 1), then the fused scan.
fn exact_classify(model: &BlackBoxModel, raw: &[f64]) -> usize {
    let scaled: Vec<f64> = raw
        .iter()
        .zip(&model.stddev)
        .map(|(&x, &s)| (1.0 + x.max(0.0)).ln() * if s > 1e-12 { 1.0 / s } else { 1.0 })
        .collect();
    kernel::argmin_dist2(&scaled, &model.centroids)
}

/// Classifies `raw`, checks it against the exact path and, where σ lets
/// the two agree bitwise, [`naive_classify`], and returns the index and
/// whether the screen fell back.
fn classify_checked(ctx: &mut Classifier, model: &BlackBoxModel, raw: &[f64]) -> (usize, bool) {
    let before = ctx.screen_counts();
    let got = ctx.classify(raw);
    let after = ctx.screen_counts();
    assert_eq!(got, exact_classify(model, raw), "exact path, row {raw:?}");
    // The reference divides by σ where the classifier multiplies by 1/σ:
    // the same bits only for σ a power of two or clamped to 1.
    let exact_reciprocal = |s: &f64| *s <= 1e-12 || s.log2().fract() == 0.0;
    if model.stddev.iter().all(exact_reciprocal) {
        assert_eq!(
            got,
            naive_classify(model, raw),
            "naive reference, row {raw:?}"
        );
    }
    assert_eq!(
        (after.certified + after.fallback) - (before.certified + before.fallback),
        1
    );
    (got, after.fallback > before.fallback)
}

/// A raw counter value spread over magnitudes from 0 to 1e12.
fn counter() -> impl Strategy<Value = f64> {
    (0.0f64..1.0, 0i32..13).prop_map(|(m, e)| m * 10f64.powi(e))
}

/// The raw row whose scaled form is `q` under `stddev` (the inverse of
/// `log(1+x)/σ`, σ clamped to 1 as the classifier does).
fn raw_for(q: &[f64], stddev: &[f64]) -> Vec<f64> {
    q.iter()
        .zip(stddev)
        .map(|(&q, &s)| (q * if s > 1e-12 { s } else { 1.0 }).exp() - 1.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Queries at `mid + t (c_j - c_i)` between two centroids, `t` from
    /// well clear of the midpoint to within rounding of it, under arbitrary
    /// (not power-of-two) σ: the screen either proves the exact answer or
    /// falls back, and it never decides a query it cannot separate.
    #[test]
    fn screened_classify_matches_the_exact_path_near_the_midpoint(
        centroids in proptest::collection::vec(
            proptest::collection::vec(0.0f64..12.0, DIM),
            2..8,
        ),
        stddev in proptest::collection::vec(0.1f64..4.0, DIM),
        pick in (0usize..64, 0usize..64),
        t_exp in -16i32..0,
        t_negative in any::<bool>(),
    ) {
        let model = model_from(&centroids, stddev);
        let n = model.centroids.len();
        let (i, j) = (pick.0 % n, (pick.0 % n + 1 + pick.1 % (n - 1)) % n);
        let t = if t_negative { -1.0 } else { 1.0 } * 10f64.powi(t_exp);
        let q: Vec<f64> = model
            .centroids
            .row(i)
            .iter()
            .zip(model.centroids.row(j))
            .map(|(a, b)| (a + b) / 2.0 + t * (b - a))
            .map(|q: f64| q.max(0.0))
            .collect();
        let raw = raw_for(&q, &model.stddev);
        let mut ctx = model.clone().into_classifier();
        let (_, fell_back) = classify_checked(&mut ctx, &model, &raw);
        if t.abs() < 1e-9 {
            prop_assert!(fell_back, "a query within 1e-9 of a midpoint cannot be certified");
        }
    }

    /// Centroids close together far from the origin, where the `f32`
    /// query's own error (relative to `‖q‖`) dwarfs the distances'
    /// rounding (relative to `‖q - c‖`), and queries swept across the
    /// midpoint of two of them: only the query-error budget keeps the
    /// screen from certifying an index the `f32` arithmetic got wrong.
    #[test]
    fn the_query_error_budget_holds_where_f32_rounding_flips_the_nearest(
        base in proptest::collection::vec(20.0f64..60.0, DIM),
        stddev in proptest::collection::vec(0.01f64..0.03, DIM),
        offsets in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, DIM),
            2..5,
        ),
    ) {
        // Component i of every centroid sits near base_i / σ_i, so raw
        // values stay under e^61, inside the screen's domain.
        let centroids: Vec<Vec<f64>> = offsets
            .iter()
            .map(|o| (0..DIM).map(|i| base[i] / stddev[i] + o[i]).collect())
            .collect();
        let model = model_from(&centroids, stddev);
        let mut ctx = model.clone().into_classifier();
        let (c0, c1) = (model.centroids.row(0), model.centroids.row(1));
        for k in -36..=-4 {
            for sign in [-1.0, 1.0] {
                let t = sign * 10f64.powf(f64::from(k) / 4.0);
                let q: Vec<f64> = c0
                    .iter()
                    .zip(c1)
                    .map(|(a, b)| (a + b) / 2.0 + t * (b - a))
                    .collect();
                classify_checked(&mut ctx, &model, &raw_for(&q, &model.stddev));
            }
        }
    }

    /// Rows of realistic raw magnitudes (counters up to 1e12) through a
    /// model trained on them: every row equals the exact path, whichever
    /// path answered it.
    #[test]
    fn screened_classify_matches_the_exact_path_on_trained_models(
        train in proptest::collection::vec(
            proptest::collection::vec(counter(), DIM),
            12..40,
        ),
        rows in proptest::collection::vec(
            proptest::collection::vec(counter(), DIM),
            1..20,
        ),
        seed in 0u64..1000,
    ) {
        let model = BlackBoxModel::fit(&train, 5, seed);
        let mut ctx = model.clone().into_classifier();
        for raw in train.iter().chain(&rows) {
            classify_checked(&mut ctx, &model, raw);
        }
    }
}

#[test]
fn a_midway_query_falls_back_and_the_lowest_index_wins() {
    // Centroid 0 is far; 1 and 2 sit at +1 and -1 around the query 0
    // (raw 0 scales to exactly 0), so the exact distances tie bitwise.
    let model = model_from(
        &[vec![50.0; DIM], vec![1.0; DIM], vec![-1.0; DIM]],
        vec![1.0; DIM],
    );
    let mut ctx = model.clone().into_classifier();
    assert_eq!(
        classify_checked(&mut ctx, &model, &[0.0; DIM]),
        (1, true),
        "an exact tie falls back, and the lower index wins"
    );
    // The same tie with the order reversed still goes to the lower index.
    let model = model_from(
        &[vec![-1.0; DIM], vec![50.0; DIM], vec![1.0; DIM]],
        vec![1.0; DIM],
    );
    let mut ctx = model.clone().into_classifier();
    assert_eq!(classify_checked(&mut ctx, &model, &[0.0; DIM]), (0, true));
    // Midway in scaled space after a non-trivial log: q = 1 between 0 and 2.
    let model = model_from(&[vec![0.0; DIM], vec![2.0; DIM]], vec![1.0; DIM]);
    let mut ctx = model.clone().into_classifier();
    let raw = vec![std::f64::consts::E - 1.0; DIM];
    let (_, fell_back) = classify_checked(&mut ctx, &model, &raw);
    assert!(fell_back, "a rounding-level gap is never certified");
}

#[test]
fn non_finite_huge_and_negative_zero_components_match_the_exact_path() {
    let model = model_from(
        &[
            vec![0.5; DIM],
            vec![3.0; DIM],
            vec![9.0; DIM],
            vec![3.0; DIM],
        ],
        vec![1.0; DIM],
    );
    let mut ctx = model.clone().into_classifier();
    let with = |at: usize, x: f64| {
        let mut raw = vec![20.0; DIM];
        raw[at] = x;
        raw
    };
    // Out of the screen's domain: always the exact path.
    for x in [f64::INFINITY, 1e300, 1e30] {
        for at in [0, DIM / 2, DIM - 1] {
            let (_, fell_back) = classify_checked(&mut ctx, &model, &with(at, x));
            assert!(fell_back, "x = {x:e} at {at} must take the exact path");
        }
    }
    assert!(classify_checked(&mut ctx, &model, &[f64::INFINITY; DIM]).1);
    // NaN and every negative clamp to 0 on both paths, as does -0.0.
    for x in [f64::NAN, -0.0, f64::NEG_INFINITY, -1e300, 0.0] {
        classify_checked(&mut ctx, &model, &with(3, x));
        classify_checked(&mut ctx, &model, &[x; DIM]);
    }
    let counts = ctx.screen_counts();
    assert!(
        counts.certified > 0,
        "the in-domain rows are screened: {counts:?}"
    );
}

#[test]
fn a_sigma_that_clamps_to_one_matches_the_exact_path() {
    // σ = 0 and σ under 1e-12 both clamp to 1 on the exact path; the
    // screen must scale those components by 1 too.
    let stddev: Vec<f64> = (0..DIM)
        .map(|i| match i % 3 {
            0 => 0.0,
            1 => 1e-13,
            _ => 0.5,
        })
        .collect();
    let centroids = [
        vec![0.0; DIM],
        vec![2.0; DIM],
        vec![5.0; DIM],
        vec![2.0; DIM],
    ];
    let model = model_from(&centroids, stddev);
    let mut ctx = model.clone().into_classifier();
    let mut fell_back = 0;
    for level in [0.0, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8] {
        let (_, fb) = classify_checked(&mut ctx, &model, &[level; DIM]);
        fell_back += u64::from(fb);
    }
    // Scaled exactly onto the duplicated centroid 1 (= 3): a tie.
    let on_tie = raw_for(&[2.0; DIM], &model.stddev);
    assert_eq!(classify_checked(&mut ctx, &model, &on_tie), (1, true));
    let counts = ctx.screen_counts();
    assert_eq!(counts.fallback, fell_back + 1);
    assert_eq!(counts.certified + counts.fallback, 8);
}
