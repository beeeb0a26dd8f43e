//! Offline training for the black-box analysis.
//!
//! Paper §4.5: "The pre-determined set of centroid vectors are generated by
//! using offline k-Means clustering using fault-free training data.
//! Instead of using raw metric values ... we use the logarithm of every
//! metric sample (we used log(x+1) ...). Furthermore, we scaled the
//! resulting logarithmic metric samples by the standard deviation of the
//! logarithm computed over the fault-free training data."
//!
//! [`BlackBoxModel`] packages the scaling vector and centroids, renders
//! them into `fpt-core` configuration parameters for the `knn` module, and
//! parses them back. Centroids are stored as a contiguous
//! [`CentroidBlock`] and every nearest-centroid scan (training k-means and
//! online classification) runs on the 4-lane kernels in [`crate::kernel`].

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::kernel::{self, CentroidBlock, PaddedVec};

/// Transforms one raw metric vector into log-scaled space:
/// `x'_i = log(1 + x_i) / σ_i`.
///
/// Components with zero training deviation are passed through unscaled
/// (σ clamped to 1), so constant metrics cannot blow up.
pub fn scale_log(raw: &[f64], stddev: &[f64]) -> Vec<f64> {
    raw.iter()
        .zip(stddev)
        .map(|(&x, &s)| (1.0 + x.max(0.0)).ln() / if s > 1e-12 { s } else { 1.0 })
        .collect()
}

/// Standard deviation of `log(1+x)` per component over a training set.
pub fn log_stddev(samples: &[Vec<f64>]) -> Vec<f64> {
    let n = samples.len();
    if n == 0 {
        return Vec::new();
    }
    let dim = samples[0].len();
    let mut mean = vec![0.0; dim];
    for s in samples {
        for (m, &x) in mean.iter_mut().zip(s) {
            *m += (1.0 + x.max(0.0)).ln();
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mut var = vec![0.0; dim];
    for s in samples {
        for ((v, m), &x) in var.iter_mut().zip(&mean).zip(s) {
            let d = (1.0 + x.max(0.0)).ln() - m;
            *v += d * d;
        }
    }
    var.iter().map(|v| (v / n as f64).sqrt()).collect()
}

/// Lloyd's k-means with deterministic k-means++ initialization.
///
/// Returns `k` centroids (fewer when there are fewer distinct points than
/// `k`) as a contiguous [`CentroidBlock`]. Runs at most `max_iters`
/// refinement passes or until assignments stabilize. The k-means++
/// seeding (each new centroid drawn with probability proportional to its
/// squared distance from the nearest existing centroid) makes the
/// resulting workload-state vocabulary far less sensitive to the seed
/// than uniform sampling. All distance work runs on the 4-lane kernels.
///
/// # Panics
///
/// Panics if `k` is zero, `points` is empty, or the points do not all
/// share one dimension.
pub fn kmeans(points: &[Vec<f64>], k: usize, seed: u64, max_iters: usize) -> CentroidBlock {
    use rand::Rng;
    assert!(k > 0, "k must be positive");
    assert!(!points.is_empty(), "k-means needs data");
    let k = k.min(points.len());
    let dim = points[0].len();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b6d_6561_6e73_2121);

    // k-means++ seeding.
    let idx: Vec<usize> = (0..points.len()).collect();
    let first = rng.gen_range(0..points.len());
    let mut centroids = CentroidBlock::with_dim(dim);
    centroids.push_row(&points[first]);
    let mut nearest_d2: Vec<f64> = points
        .iter()
        .map(|p| kernel::dist2_x4(p, centroids.row(0)))
        .collect();
    while centroids.len() < k {
        let total: f64 = nearest_d2.iter().sum();
        let chosen = if total <= 1e-18 {
            // All points coincide with existing centroids; any point works.
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = points.len() - 1;
            for (i, &d) in nearest_d2.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        let c = &points[chosen];
        for (d, p) in nearest_d2.iter_mut().zip(points) {
            let nd = kernel::dist2_bounded_x4(p, c, *d);
            if nd < *d {
                *d = nd;
            }
        }
        centroids.push_row(c);
    }

    let mut assignment = vec![usize::MAX; points.len()];
    let mut query = PaddedVec::zeroed(dim);
    for _ in 0..max_iters {
        // Assign.
        let mut changed = false;
        for (p_idx, p) in points.iter().enumerate() {
            query.as_mut_slice().copy_from_slice(p);
            let nearest = kernel::argmin_dist2(query.as_padded(), &centroids);
            if assignment[p_idx] != nearest {
                assignment[p_idx] = nearest;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Update.
        let mut sums = vec![vec![0.0; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (p, &a) in points.iter().zip(&assignment) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        for c_idx in 0..centroids.len() {
            if counts[c_idx] == 0 {
                // Re-seed an empty cluster at a random point.
                let p = &points[*idx.choose(&mut rng).expect("points nonempty")];
                centroids.row_mut(c_idx).copy_from_slice(p);
                continue;
            }
            for (cc, s) in centroids.row_mut(c_idx).iter_mut().zip(&sums[c_idx]) {
                *cc = s / counts[c_idx] as f64;
            }
        }
    }
    centroids
}

/// A trained black-box workload model: log-σ scaling plus k-means
/// centroids in scaled space.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBoxModel {
    /// Per-metric standard deviation of `log(1+x)` over training data.
    pub stddev: Vec<f64>,
    /// Workload centroids in scaled space, stored contiguously.
    pub centroids: CentroidBlock,
}

/// Error parsing a model from configuration parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError(pub String);

impl std::fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed model parameter: {}", self.0)
    }
}

impl std::error::Error for ParseModelError {}

/// Floor applied to the per-metric scaling deviation during training.
///
/// Dividing by the raw σ whitens every metric to unit variance — including
/// metrics whose only variation is measurement jitter. With ~120 metrics,
/// those pure-noise dimensions would dominate Euclidean distance and drown
/// the handful of workload-driven dimensions. Flooring σ keeps
/// genuinely-varying metrics on the paper's `log(1+x)/σ` scale while
/// damping near-constant ones (the same defensive spirit as the paper's
/// `max(1, k·σ_median)` threshold floor in the white-box analysis).
pub const SIGMA_FLOOR: f64 = 0.15;

impl BlackBoxModel {
    /// Trains a model on fault-free raw samples.
    ///
    /// The scaling vector is the per-metric standard deviation of
    /// `log(1+x)`, floored at [`SIGMA_FLOOR`].
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `k` is zero.
    pub fn fit(samples: &[Vec<f64>], k: usize, seed: u64) -> Self {
        let mut stddev = log_stddev(samples);
        for s in &mut stddev {
            *s = s.max(SIGMA_FLOOR);
        }
        let scaled: Vec<Vec<f64>> = samples.iter().map(|s| scale_log(s, &stddev)).collect();
        let centroids = kmeans(&scaled, k, seed, 50);
        BlackBoxModel { stddev, centroids }
    }

    /// Classifies a raw metric vector to its nearest centroid (1-NN).
    ///
    /// One-shot convenience: allocates the scaled vector per call. The
    /// per-tick hot path should hold a [`Classifier`], which reuses its
    /// buffers across samples.
    pub fn classify(&self, raw: &[f64]) -> usize {
        let x = scale_log(raw, &self.stddev);
        kernel::argmin_dist2(&x, &self.centroids)
    }

    /// Writes the `k` nearest centroid indices, nearest first, into `out`
    /// (cleared first, so the buffer can be reused across calls).
    ///
    /// Each centroid distance is computed exactly once; ties rank lower
    /// indices first (stable sort on equal distances). This is the one
    /// ranked-classification signature shared with
    /// [`Classifier::classify_k_into`]; one-shot callers can pass a fresh
    /// `Vec`.
    pub fn classify_k_into(&self, raw: &[f64], k: usize, out: &mut Vec<usize>) {
        let x = scale_log(raw, &self.stddev);
        let mut ranked: Vec<(f64, usize)> = self
            .centroids
            .rows()
            .enumerate()
            .map(|(i, c)| (kernel::dist2_x4(&x, c), i))
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        out.clear();
        out.extend(ranked.into_iter().take(k).map(|(_, i)| i));
    }

    /// Renders the centroids as a `knn` module configuration parameter:
    /// clusters separated by `|`, components by `,`.
    pub fn centroids_param(&self) -> String {
        self.centroids
            .rows()
            .map(|c| {
                c.iter()
                    .map(|x| format!("{x:.6}"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join("|")
    }

    /// Renders the scaling vector as a configuration parameter.
    pub fn stddev_param(&self) -> String {
        self.stddev
            .iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses a model from the two parameter strings.
    ///
    /// # Errors
    ///
    /// Returns [`ParseModelError`] on malformed or non-finite numbers or
    /// inconsistent dimensions.
    pub fn from_params(centroids: &str, stddev: &str) -> Result<Self, ParseModelError> {
        let stddev = parse_f64_list(stddev)?;
        if stddev.is_empty() {
            return Err(ParseModelError("empty stddev vector".into()));
        }
        let mut cents = CentroidBlock::with_dim(stddev.len());
        for chunk in centroids.split('|') {
            let c = parse_f64_list(chunk)?;
            if c.len() != stddev.len() {
                return Err(ParseModelError(format!(
                    "centroid dimension {} != stddev dimension {}",
                    c.len(),
                    stddev.len()
                )));
            }
            cents.push_row(&c);
        }
        if cents.is_empty() {
            return Err(ParseModelError("no centroids".into()));
        }
        Ok(BlackBoxModel {
            stddev,
            centroids: cents,
        })
    }

    /// Number of workload states (centroids).
    pub fn n_states(&self) -> usize {
        self.centroids.len()
    }

    /// Wraps the model in a reusable [`Classifier`] context.
    pub fn into_classifier(self) -> Classifier {
        Classifier::new(self)
    }
}

/// A reusable per-sample classification context over a [`BlackBoxModel`].
///
/// Precomputes the `1/σ` scaling reciprocals (division is replaced by
/// multiplication on the hot path) and owns the scratch buffers the
/// per-sample work needs, so steady-state classification allocates
/// nothing. Both the reciprocal vector and the scaled-sample scratch live
/// in zero-padded [`PaddedVec`] storage, so the fused
/// [`kernel::argmin_dist2`] scan reads the query at full stride with no
/// tail loop. The online `knn` module holds one of these per instance and
/// calls it every tick; one-shot callers can keep using
/// [`BlackBoxModel::classify`].
#[derive(Debug, Clone)]
pub struct Classifier {
    model: BlackBoxModel,
    /// `1/σ_i` (1.0 where σ is within noise of zero, matching
    /// [`scale_log`]'s clamp), padded to the kernel stride.
    inv_sigma: PaddedVec,
    /// Scaled-sample scratch, overwritten per call; its padding stays
    /// zero, so the padded view is always a valid kernel query.
    scaled: PaddedVec,
    /// `(distance, centroid index)` scratch for `classify_k_into`.
    ranked: Vec<(f64, usize)>,
}

impl Classifier {
    /// Builds a classification context, taking ownership of the model.
    pub fn new(model: BlackBoxModel) -> Self {
        let inv_sigma = PaddedVec::from_slice(
            &model
                .stddev
                .iter()
                .map(|&s| if s > 1e-12 { 1.0 / s } else { 1.0 })
                .collect::<Vec<f64>>(),
        );
        let dim = model.stddev.len();
        let states = model.centroids.len();
        Classifier {
            model,
            inv_sigma,
            scaled: PaddedVec::zeroed(dim),
            ranked: Vec::with_capacity(states),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &BlackBoxModel {
        &self.model
    }

    /// Input dimension the context classifies.
    pub fn dim(&self) -> usize {
        self.model.stddev.len()
    }

    /// Number of workload states.
    pub fn n_states(&self) -> usize {
        self.model.n_states()
    }

    /// Applies the `log(1+x) / σ` transform into the scratch buffer.
    fn scale_into(&mut self, raw: &[f64]) {
        for ((out, &x), &inv) in self
            .scaled
            .as_mut_slice()
            .iter_mut()
            .zip(raw)
            .zip(self.inv_sigma.as_slice())
        {
            *out = (1.0 + x.max(0.0)).ln() * inv;
        }
    }

    /// Nearest-centroid classification (1-NN) with no per-sample
    /// allocation.
    pub fn classify(&mut self, raw: &[f64]) -> usize {
        self.scale_into(raw);
        kernel::argmin_dist2(self.scaled.as_padded(), &self.model.centroids)
    }

    /// Classifies every row of a packed query block (1-NN), appending one
    /// nearest-centroid index per row to `out` (cleared first).
    ///
    /// This is `knn`'s entry point: every node row of every pending
    /// sample, packed one per [`CentroidBlock`] row, flows through the
    /// [`kernel::argmin_dist2`] scan back to back. Row `r`'s result runs
    /// the exact same `scale_into` + `argmin_dist2` sequence as
    /// [`Classifier::classify`] on `queries.row(r)`, so block
    /// classification is bitwise identical to per-sample — the
    /// differential harness depends on that.
    ///
    /// # Panics
    ///
    /// Panics if `queries.dim() != self.dim()`.
    pub fn classify_block_into(&mut self, queries: &CentroidBlock, out: &mut Vec<usize>) {
        assert_eq!(queries.dim(), self.dim(), "query block dimension mismatch");
        out.clear();
        out.reserve(queries.len());
        for r in 0..queries.len() {
            self.scale_into(queries.row(r));
            out.push(kernel::argmin_dist2(
                self.scaled.as_padded(),
                &self.model.centroids,
            ));
        }
    }

    /// Writes the `k` nearest centroid indices, nearest first, into `out`
    /// (cleared first), with no per-sample allocation once `out` has
    /// capacity `k`. Each centroid distance is computed once; ties rank
    /// lower indices first.
    ///
    /// Shares its signature with [`BlackBoxModel::classify_k_into`] — the
    /// one ranked-classification API.
    pub fn classify_k_into(&mut self, raw: &[f64], k: usize, out: &mut Vec<usize>) {
        self.rank(raw);
        out.clear();
        out.extend(self.ranked.iter().take(k).map(|&(_, i)| i));
    }

    /// Ranks every centroid by distance to the scaled sample into the
    /// `ranked` scratch.
    fn rank(&mut self, raw: &[f64]) {
        self.scale_into(raw);
        let scaled = self.scaled.as_padded();
        self.ranked.clear();
        self.ranked.extend((0..self.model.centroids.len()).map(|i| {
            (
                kernel::dist2_x4(scaled, self.model.centroids.row_padded(i)),
                i,
            )
        }));
        self.ranked
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    }
}

/// Parses a comma-separated float list.
pub(crate) fn parse_f64_list(s: &str) -> Result<Vec<f64>, ParseModelError> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| match t.parse::<f64>() {
            // `"NaN"` and `"inf"` parse: a NaN centroid can never win the
            // scan (`d < best_d` is false) and voids the monotone partial
            // sums the kernels' early exit rests on.
            Ok(x) if x.is_finite() => Ok(x),
            Ok(_) => Err(ParseModelError(format!("non-finite component `{t}`"))),
            Err(_) => Err(ParseModelError(format!("bad float `{t}`"))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: &[f64], n: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                center
                    .iter()
                    .map(|c| c + spread * (rng.gen::<f64>() - 0.5))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn scale_log_applies_the_papers_transform() {
        let scaled = scale_log(&[0.0, std::f64::consts::E - 1.0], &[2.0, 1.0]);
        assert!((scaled[0] - 0.0).abs() < 1e-12);
        assert!((scaled[1] - 1.0).abs() < 1e-12);
        // Zero σ is clamped, not divided by.
        let scaled = scale_log(&[1.0], &[0.0]);
        assert!(scaled[0].is_finite());
    }

    #[test]
    fn log_stddev_is_zero_for_constant_metrics() {
        let samples = vec![vec![5.0, 1.0], vec![5.0, 100.0], vec![5.0, 10.0]];
        let sd = log_stddev(&samples);
        assert!(sd[0] < 1e-12);
        assert!(sd[1] > 0.1);
    }

    #[test]
    fn kmeans_separates_well_separated_blobs() {
        let mut pts = blob(&[0.0, 0.0], 50, 0.5, 1);
        pts.extend(blob(&[10.0, 10.0], 50, 0.5, 2));
        let cents = kmeans(&pts, 2, 42, 100);
        assert_eq!(cents.len(), 2);
        let near_origin = cents.rows().filter(|c| c[0] < 5.0).count();
        assert_eq!(near_origin, 1, "one centroid per blob: {cents:?}");
    }

    #[test]
    fn kmeans_is_deterministic_per_seed() {
        let pts = blob(&[1.0, 2.0, 3.0], 100, 2.0, 3);
        assert_eq!(kmeans(&pts, 4, 7, 50), kmeans(&pts, 4, 7, 50));
    }

    #[test]
    fn kmeans_caps_k_at_point_count() {
        let pts = vec![vec![1.0], vec![2.0]];
        assert_eq!(kmeans(&pts, 10, 1, 10).len(), 2);
    }

    #[test]
    fn model_classifies_training_blobs_consistently() {
        let mut samples = blob(&[10.0, 1000.0], 100, 1.0, 4);
        samples.extend(blob(&[2000.0, 5.0], 100, 1.0, 5));
        let model = BlackBoxModel::fit(&samples, 2, 9);
        let a = model.classify(&[10.0, 1000.0]);
        let b = model.classify(&[2000.0, 5.0]);
        assert_ne!(a, b, "distinct workloads map to distinct states");
        assert_eq!(model.n_states(), 2);
        // classify_k_into returns nearest first.
        let mut ranked = Vec::new();
        model.classify_k_into(&[10.0, 1000.0], 2, &mut ranked);
        assert_eq!(ranked[0], a);
        assert_eq!(ranked.len(), 2);
    }

    #[test]
    fn classifier_context_matches_model_methods() {
        let mut samples = blob(&[10.0, 1000.0, 3.0], 80, 1.5, 21);
        samples.extend(blob(&[2000.0, 5.0, 40.0], 80, 1.5, 22));
        let model = BlackBoxModel::fit(&samples, 4, 9);
        let mut ctx = model.clone().into_classifier();
        assert_eq!(ctx.dim(), 3);
        assert_eq!(ctx.n_states(), model.n_states());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for s in &samples[..20] {
            assert_eq!(ctx.classify(s), model.classify(s));
            ctx.classify_k_into(s, 3, &mut got);
            model.classify_k_into(s, 3, &mut want);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn classify_block_matches_per_sample_bitwise() {
        let mut samples = blob(&[10.0, 1000.0, 3.0], 80, 1.5, 41);
        samples.extend(blob(&[2000.0, 5.0, 40.0], 80, 1.5, 42));
        let model = BlackBoxModel::fit(&samples, 4, 9);
        let mut ctx = model.into_classifier();
        let mut block = CentroidBlock::with_dim(3);
        for s in &samples[..32] {
            block.push_row(s);
        }
        let mut batched = vec![77usize; 3]; // dirty buffer must be cleared
        ctx.classify_block_into(&block, &mut batched);
        let per_sample: Vec<usize> = samples[..32].iter().map(|s| ctx.classify(s)).collect();
        assert_eq!(batched, per_sample);
        // A reused, cleared block keeps working without reallocation.
        block.clear();
        assert!(block.is_empty());
        block.push_row(&samples[5]);
        ctx.classify_block_into(&block, &mut batched);
        assert_eq!(batched, [per_sample[5]]);
    }

    #[test]
    fn classify_k_into_reuses_dirty_buffers() {
        // The canonical signature must clear the caller's buffer itself:
        // callers alternate samples through one Vec without re-allocating.
        let samples = blob(&[3.0, 8.0, 2.0], 60, 2.0, 31);
        let model = BlackBoxModel::fit(&samples, 3, 5);
        let mut ctx = model.clone().into_classifier();
        let mut want = vec![99, 99, 99, 99];
        let mut got = vec![7; 16];
        for s in &samples[..10] {
            model.classify_k_into(s, 2, &mut want);
            assert_eq!(want.len(), 2, "stale contents must be cleared");
            ctx.classify_k_into(s, 2, &mut got);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn model_params_round_trip() {
        let samples = blob(&[3.0, 7.0, 11.0], 60, 2.0, 6);
        let model = BlackBoxModel::fit(&samples, 3, 11);
        let parsed =
            BlackBoxModel::from_params(&model.centroids_param(), &model.stddev_param()).unwrap();
        assert_eq!(parsed.n_states(), model.n_states());
        for (a, b) in parsed.stddev.iter().zip(&model.stddev) {
            assert!((a - b).abs() < 1e-5);
        }
        // Classification behaviour is preserved through the round trip.
        for s in &samples[..10] {
            assert_eq!(parsed.classify(s), model.classify(s));
        }
    }

    #[test]
    fn malformed_params_are_rejected() {
        assert!(BlackBoxModel::from_params("1.0,x", "1.0,1.0").is_err());
        assert!(BlackBoxModel::from_params("1.0,2.0|3.0", "1.0,1.0").is_err());
        assert!(BlackBoxModel::from_params("", "").is_err());
    }

    #[test]
    fn non_finite_params_are_rejected() {
        assert!(BlackBoxModel::from_params("1.0,2.0|3.0,4.0", "1.0,1.0").is_ok());
        for bad in ["NaN", "nan", "inf", "-inf", "infinity"] {
            let centroids = format!("1.0,2.0|{bad},4.0");
            let err = BlackBoxModel::from_params(&centroids, "1.0,1.0").unwrap_err();
            assert!(err.0.contains("non-finite"), "centroids `{bad}`: {err}");
            let stddev = format!("1.0,{bad}");
            let err = BlackBoxModel::from_params("1.0,2.0|3.0,4.0", &stddev).unwrap_err();
            assert!(err.0.contains("non-finite"), "stddev `{bad}`: {err}");
        }
    }

    #[test]
    fn parse_f64_list_handles_spacing() {
        assert_eq!(parse_f64_list("1.0, 2.5 ,3").unwrap(), vec![1.0, 2.5, 3.0]);
        assert!(parse_f64_list("a,b").is_err());
    }
}
