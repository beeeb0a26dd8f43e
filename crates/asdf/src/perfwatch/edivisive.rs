//! E-Divisive-mean change-point detection over a single metric series.
//!
//! The statistic is the `q̂(t)` of the energy-distance family used by
//! MongoDB's automated performance-testing pipeline ("Change Point
//! Detection in Software Performance Testing", Daly et al.): for a split
//! of the series `x[0..n]` at `t` into a left part of `m = t` points and a
//! right part of `k = n − t` points,
//!
//! ```text
//! q̂(t) = (m·k)/(m+k) · ( 2·cross/(m·k)
//!                        − 2·within_L/(m·(m−1))
//!                        − 2·within_R/(k·(k−1)) )
//! ```
//!
//! where `cross` sums `|x_i − x_j|` across the split and `within_L/R` sum
//! it inside each side. The split maximizing `q̂` is the change-point
//! candidate; its significance is assessed with a seeded permutation test
//! (does the observed maximum beat the maxima of shuffled copies?), and
//! detection recurses on the two sides until no segment yields a
//! significant split. The detector runs at one fixed setting, as the
//! MongoDB pipeline does: [`PERMUTATIONS`] shuffles at `p ≤`
//! [`P_THRESHOLD`], at least [`MIN_SEGMENT`] points a side, the shuffles
//! drawn from [`SEED`] — so detection is deterministic. It is
//! dependency-free, and the all-`t` scan is incremental, so one pass over
//! the candidate splits costs `O(n²)` total rather than `O(n³)`.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Shuffled replicas per permutation test: with [`P_THRESHOLD`], the
/// common configuration of the E-Divisive permutation test.
pub const PERMUTATIONS: usize = 199;
/// Significance threshold on the permutation p-value.
pub const P_THRESHOLD: f64 = 0.05;
/// Minimum points required on each side of a candidate split.
pub const MIN_SEGMENT: usize = 4;
/// RNG seed for the permutation test.
pub const SEED: u64 = 0x5eed_a5df;

/// One significant change point in a series.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangePoint {
    /// Index of the first point of the *new* regime (the series changed
    /// between `index − 1` and `index`).
    pub index: usize,
    /// The `q̂` statistic at the split.
    pub qhat: f64,
    /// Permutation-test p-value of the split.
    pub p_value: f64,
    /// Mean of the segment before the split.
    pub before_mean: f64,
    /// Mean of the segment after the split.
    pub after_mean: f64,
    /// Relative shift `(after − before) / |before|` in percent (uses an
    /// epsilon floor when the before-mean is ~0).
    pub shift_pct: f64,
}

/// `q̂(t)` for every split `t` of `xs` (same length as `xs`; entries
/// outside the valid split range `min_side ≤ t ≤ n − min_side` are 0).
/// `min_side` is clamped to at least 2 so both within-side terms are
/// defined.
pub fn qhat_values(xs: &[f64], min_side: usize) -> Vec<f64> {
    let n = xs.len();
    let min_side = min_side.max(2);
    let mut q = vec![0.0; n];
    if n < 2 * min_side {
        return q;
    }
    // Running pairwise-distance sums for the split at `t`, updated as the
    // element x[t] moves from the right side to the left:
    //   cross    = Σ_{i<t, j≥t}  |x_i − x_j|
    //   within_l = Σ_{i<j<t}     |x_i − x_j|
    //   within_r = Σ_{t≤i<j}     |x_i − x_j|
    let mut cross = 0.0;
    let mut within_l = 0.0;
    let mut within_r = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            within_r += (xs[i] - xs[j]).abs();
        }
    }
    for t in 1..n {
        // Advance the split from t-1 to t: x[t-1] joins the left side.
        let moved = xs[t - 1];
        let mut row_left = 0.0;
        for &x in &xs[..t - 1] {
            row_left += (moved - x).abs();
        }
        let mut row_right = 0.0;
        for &x in &xs[t..] {
            row_right += (moved - x).abs();
        }
        cross += row_right - row_left;
        within_l += row_left;
        within_r -= row_right;
        if t < min_side || n - t < min_side {
            continue;
        }
        let (m, k) = (t as f64, (n - t) as f64);
        let term_cross = 2.0 * cross / (m * k);
        let term_l = 2.0 * within_l / (m * (m - 1.0));
        let term_r = 2.0 * within_r / (k * (k - 1.0));
        q[t] = (m * k / (m + k)) * (term_cross - term_l - term_r);
    }
    q
}

/// The best split of `xs`: `(t, q̂(t))`, preferring the lowest `t` on
/// ties. Returns `None` when no split satisfies the side minimum.
fn best_split(xs: &[f64], min_side: usize) -> Option<(usize, f64)> {
    qhat_values(xs, min_side)
        .iter()
        .enumerate()
        .filter(|(_, q)| **q > 0.0)
        .max_by(|(ia, qa), (ib, qb)| qa.partial_cmp(qb).expect("qhat is finite").then(ib.cmp(ia)))
        .map(|(t, &q)| (t, q))
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Permutation p-value of the observed maximum `q̂` on a segment: the
/// fraction of shuffled replicas whose own maximum matches or beats it
/// (with the standard +1 correction so the p-value is never 0).
fn permutation_p_value(xs: &[f64], observed: f64, rng: &mut SmallRng) -> f64 {
    let mut beat = 0usize;
    let mut scratch = xs.to_vec();
    for _ in 0..PERMUTATIONS {
        scratch.shuffle(rng);
        let perm_max = best_split(&scratch, MIN_SEGMENT).map_or(0.0, |(_, q)| q);
        if perm_max >= observed {
            beat += 1;
        }
    }
    (beat + 1) as f64 / (PERMUTATIONS + 1) as f64
}

/// Hierarchical E-Divisive detection: finds the most significant split of
/// the whole series, then recurses into both sides, collecting every
/// split whose permutation p-value clears [`P_THRESHOLD`]. Change points
/// come back ordered by index. A constant series (or one whose
/// fluctuations shuffled copies reproduce) yields none.
pub fn detect(xs: &[f64]) -> Vec<ChangePoint> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut found = Vec::new();
    // Explicit worklist of (offset, segment) keeps recursion depth flat
    // and the visit order (hence RNG stream) deterministic.
    let mut work = vec![(0usize, xs.to_vec())];
    while let Some((offset, seg)) = work.pop() {
        let Some((t, q)) = best_split(&seg, MIN_SEGMENT) else {
            continue;
        };
        let p = permutation_p_value(&seg, q, &mut rng);
        if p > P_THRESHOLD {
            continue;
        }
        let before = mean(&seg[..t]);
        let after = mean(&seg[t..]);
        let denom = before.abs().max(1e-12);
        found.push(ChangePoint {
            index: offset + t,
            qhat: q,
            p_value: p,
            before_mean: before,
            after_mean: after,
            shift_pct: (after - before) / denom * 100.0,
        });
        // Right side first so the pop order walks left-to-right.
        work.push((offset + t, seg[t..].to_vec()));
        work.push((offset, seg[..t].to_vec()));
    }
    found.sort_by_key(|cp| cp.index);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn noisy(base: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| base * (1.0 + 0.01 * rng.gen_range(-1.0..1.0)))
            .collect()
    }

    #[test]
    fn step_change_is_found_at_the_right_index() {
        // 30 points near 1.0, then 30 points near 1.2: a 20% step at 30.
        let mut xs = noisy(1.0, 30, 7);
        xs.extend(noisy(1.2, 30, 8));
        let cps = detect(&xs);
        assert_eq!(cps.len(), 1, "exactly one change point: {cps:?}");
        let cp = &cps[0];
        assert!(
            (28..=32).contains(&cp.index),
            "step at 30 localized, got {}",
            cp.index
        );
        assert!(cp.p_value <= 0.05);
        assert!(
            (cp.shift_pct - 20.0).abs() < 3.0,
            "≈20% shift, got {:.2}%",
            cp.shift_pct
        );
    }

    #[test]
    fn stationary_noise_yields_no_change_points() {
        let xs = noisy(5.0, 60, 21);
        assert_eq!(detect(&xs), vec![]);
        // Constant series: all pairwise distances are 0.
        let flat = vec![3.25; 40];
        assert_eq!(detect(&flat), vec![]);
    }

    #[test]
    fn two_steps_are_both_recovered() {
        let mut xs = noisy(1.0, 25, 1);
        xs.extend(noisy(1.5, 25, 2));
        xs.extend(noisy(0.8, 25, 3));
        let cps = detect(&xs);
        assert_eq!(cps.len(), 2, "{cps:?}");
        assert!((23..=27).contains(&cps[0].index), "{cps:?}");
        assert!((48..=52).contains(&cps[1].index), "{cps:?}");
        assert!(cps[0].shift_pct > 0.0 && cps[1].shift_pct < 0.0);
    }

    #[test]
    fn detection_is_deterministic_for_a_fixed_seed() {
        let mut xs = noisy(2.0, 20, 4);
        xs.extend(noisy(2.6, 20, 5));
        assert_eq!(detect(&xs), detect(&xs));
        // Short series (below 2·MIN_SEGMENT) never split.
        assert_eq!(detect(&xs[..6]), vec![]);
        assert_eq!(detect(&[]), vec![]);
    }

    #[test]
    fn qhat_peaks_at_the_true_split_on_a_clean_step() {
        let xs: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        let q = qhat_values(&xs, 2);
        let argmax = q
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 20);
        // Outside the valid split band the statistic is zero.
        assert_eq!(q[0], 0.0);
        assert_eq!(q[1], 0.0);
        assert_eq!(q[39], 0.0);
    }
}
