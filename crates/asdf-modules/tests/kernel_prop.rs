//! Property tests pinning the SIMD-friendly kernels to the 4-lane scalar
//! reference, bitwise.
//!
//! The lane fold (lane `j` accumulates components `j, j+4, j+8, ...`;
//! total = `(acc0 + acc1) + (acc2 + acc3)`) is the canonical
//! squared-distance semantics of the workspace. `ref_dist2_lane4` below is
//! an independent re-implementation of that contract; every kernel entry
//! point — [`kernel::dist2_x4`], [`kernel::dist2_bounded_x4`] and the
//! fused [`kernel::argmin_dist2`] over a [`CentroidBlock`] — must match it
//! bit for bit across dimensions 0..200, non-multiple-of-4 tails
//! included, and at the `bound = 0.0` / `bound = INFINITY` early-exit
//! edges.
//!
//! The same suite pins the two constants the `Classifier`'s certified
//! `f32` screen rests on: [`kernel::ln_f32`]'s error bound
//! ([`kernel::LN_F32_TOL`]), over every `f32` mantissa and every exponent
//! up to [`kernel::LN_F32_MAX`], and the relative rounding bound of
//! [`kernel::dist2_f32x16`] that the screen's `γ32` counts.

use asdf_modules::kernel::{self, CentroidBlock};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::Strategy;

/// Independent 4-lane scalar reference: the accumulation-order contract,
/// written the slow obvious way.
fn ref_dist2_lane4(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let d = x - y;
        acc[i % 4] += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Paired equal-length vectors of finite components spanning dims 0..200,
/// so every tail residue mod 4 and several 16-component bound chunks are
/// exercised.
fn arb_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..200).prop_flat_map(|len| {
        (
            vec(-1.0e3..1.0e3, len..len + 1),
            vec(-1.0e3..1.0e3, len..len + 1),
        )
    })
}

/// A query plus a non-empty block of same-dimension candidate rows.
fn arb_scan() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>)> {
    (0usize..64).prop_flat_map(|dim| {
        (
            vec(-50.0..50.0, dim..dim + 1),
            vec(vec(-50.0..50.0, dim..dim + 1), 1..12),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dist2_x4_is_bit_identical_to_the_lane4_reference((a, b) in arb_pair()) {
        prop_assert_eq!(
            kernel::dist2_x4(&a, &b).to_bits(),
            ref_dist2_lane4(&a, &b).to_bits()
        );
    }

    #[test]
    fn bounded_with_infinite_bound_is_bit_identical((a, b) in arb_pair()) {
        let exact = ref_dist2_lane4(&a, &b);
        prop_assert_eq!(
            kernel::dist2_bounded_x4(&a, &b, f64::INFINITY).to_bits(),
            exact.to_bits()
        );
    }

    #[test]
    fn bound_miss_completes_bit_identically((a, b) in arb_pair()) {
        let exact = ref_dist2_lane4(&a, &b);
        // Any bound strictly above the true distance is never reached.
        prop_assert_eq!(
            kernel::dist2_bounded_x4(&a, &b, exact + 1.0).to_bits(),
            exact.to_bits()
        );
    }

    #[test]
    fn bound_hit_returns_a_monotone_partial_sum(
        (a, b) in arb_pair(),
        frac in 0.0f64..1.0,
    ) {
        let exact = ref_dist2_lane4(&a, &b);
        let bound = exact * frac;
        let got = kernel::dist2_bounded_x4(&a, &b, bound);
        prop_assert!(got >= bound, "got {got}, bound {bound}, exact {exact}");
        // Partial lane folds never overshoot the completed sum: lane
        // accumulators are monotone in non-negative terms, and the fold of
        // non-negative lanes is monotone in each lane.
        prop_assert!(got <= exact, "got {got} > exact {exact}");
    }

    #[test]
    fn zero_bound_exits_on_the_first_chunk((a, b) in arb_pair()) {
        // The first 16-component group's partial fold already satisfies a
        // zero bound (it is >= 0), so that fold is what comes back.
        let n = a.len().min(16);
        let expect = ref_dist2_lane4(&a[..n], &b[..n]);
        prop_assert_eq!(
            kernel::dist2_bounded_x4(&a, &b, 0.0).to_bits(),
            expect.to_bits()
        );
    }

    #[test]
    fn fused_argmin_matches_the_reference_scan((q, rows) in arb_scan()) {
        let block = CentroidBlock::from_rows(&rows);
        // Reference: lowest index of the minimum lane-fold distance.
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, row) in rows.iter().enumerate() {
            let d = ref_dist2_lane4(&q, row);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        prop_assert_eq!(kernel::argmin_dist2(&q, &block), best);
    }

    #[test]
    fn fused_argmin_ties_keep_the_lowest_index(
        (q, mut rows) in arb_scan(),
        dup in 0usize..12,
    ) {
        // Duplicate one row at the end: identical rows produce identical
        // distance bits, so the earlier index must win.
        let dup = dup % rows.len();
        rows.push(rows[dup].clone());
        let block = CentroidBlock::from_rows(&rows);
        // The trailing duplicate can never win: its distance bits equal its
        // original's, and the original has the lower index.
        let got = kernel::argmin_dist2(&q, &block);
        prop_assert!(
            got < rows.len() - 1,
            "tie broke toward the duplicated trailing row ({got})"
        );
    }

    #[test]
    fn centroid_block_round_trips(rows in vec(vec(-1.0e6f64..1.0e6, 0..37), 0..20)) {
        // Ragged inputs are rejected elsewhere; make the rows uniform.
        let dim = rows.first().map_or(0, Vec::len);
        let rows: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|mut r| { r.resize(dim, 0.0); r })
            .collect();
        let block = CentroidBlock::from_rows(&rows);
        prop_assert_eq!(block.len(), rows.len());
        prop_assert_eq!(block.dim(), dim);
        // build from rows → iterate rows → equal.
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(block.row(i), row.as_slice());
        }
        let collected: Vec<Vec<f64>> = block.rows().map(<[f64]>::to_vec).collect();
        prop_assert_eq!(&collected, &rows);
        prop_assert_eq!(&block.to_rows(), &rows);
        // Incremental construction agrees with bulk construction.
        let mut pushed = CentroidBlock::with_dim(dim);
        for row in &rows {
            pushed.push_row(row);
        }
        prop_assert_eq!(&pushed, &block);
    }
}

#[test]
fn empty_inputs_are_zero() {
    assert_eq!(kernel::dist2_x4(&[], &[]), 0.0);
    assert_eq!(kernel::dist2_bounded_x4(&[], &[], f64::INFINITY), 0.0);
    // A zero bound on empty input still returns the (empty) fold.
    assert_eq!(kernel::dist2_bounded_x4(&[], &[], 0.0), 0.0);
    assert_eq!(kernel::dist2_x4(&[], &[]).to_bits(), 0.0f64.to_bits());
}

/// `|ln_f32(y) - ln y| / (1 + |ln y|)`, against the `f64` logarithm.
fn ln_f32_rel_err(y: f32) -> f64 {
    let exact = f64::from(y).ln();
    (f64::from(kernel::ln_f32(y)) - exact).abs() / (1.0 + exact.abs())
}

#[test]
fn ln_f32_holds_its_bound_on_every_mantissa() {
    // Every f32 in [1, 2): each mantissa once, both sides of the sqrt(2)
    // split where the exponent term switches on.
    let one = 1.0f32.to_bits();
    let worst = (0..1u32 << 23)
        .map(|m| ln_f32_rel_err(f32::from_bits(one + m)))
        .fold(0.0, f64::max);
    assert!(
        worst <= kernel::LN_F32_TOL,
        "worst {worst:e} > {:e}",
        kernel::LN_F32_TOL
    );
}

#[test]
fn ln_f32_exponent_term_holds_to_the_domain_limit() {
    // The mantissa part of ln_f32 depends only on the mantissa bits, so
    // what changes with the exponent is the `e ln 2` term and the last
    // addition. Every exponent in the screen's domain, each with a stride
    // of mantissas plus the two ends and the sqrt(2) split.
    let split = std::f32::consts::SQRT_2.to_bits() & 0x007f_ffff;
    let mantissas: Vec<u32> = (0..1u32 << 23)
        .step_by(251)
        .chain([0, (1 << 23) - 1, split - 1, split, split + 1])
        .collect();
    let mut exponents = 0;
    for e in 0u32.. {
        let base = (127 + e) << 23;
        if f64::from(f32::from_bits(base)) >= kernel::LN_F32_MAX {
            break;
        }
        exponents += 1;
        for &m in &mantissas {
            let y = f32::from_bits(base | m);
            if f64::from(y) >= kernel::LN_F32_MAX {
                continue;
            }
            let err = ln_f32_rel_err(y);
            assert!(err <= kernel::LN_F32_TOL, "y = {y:e}: {err:e}");
        }
    }
    assert_eq!(exponents, 100, "2^0 ..= 2^99 lie under 1e30");
}

/// The screen's summation bound: `n` rounded operations per lane.
fn gamma32(len: usize) -> f64 {
    let nu = (len.div_ceil(kernel::LANES_F32) + 6) as f64 * f64::from(f32::EPSILON) / 2.0;
    nu / (1.0 - nu)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// [`kernel::dist2_f32x16`] is within `γ32` of the exact sum over the
    /// same `f32` operands (computed in `f64`, where each square and the
    /// sum of a few hundred of them is exact to far below `γ32`), and zero
    /// padding to the lane multiple is invisible.
    #[test]
    fn dist2_f32x16_is_within_the_screens_rounding_bound(
        (a, b) in (0usize..200).prop_flat_map(|len| {
            (vec(-1.0e3f32..1.0e3, len..len + 1), vec(-1.0e3f32..1.0e3, len..len + 1))
        })
    ) {
        let exact: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2))
            .sum();
        let got = f64::from(kernel::dist2_f32x16(&a, &b));
        prop_assert!((got - exact).abs() <= gamma32(a.len()) * exact, "{} vs {}", got, exact);
        let pad = |v: &[f32]| {
            let mut p = v.to_vec();
            p.resize(v.len().div_ceil(kernel::LANES_F32) * kernel::LANES_F32, 0.0);
            p
        };
        let padded = f64::from(kernel::dist2_f32x16(&pad(&a), &pad(&b)));
        prop_assert!((padded - exact).abs() <= gamma32(a.len()) * exact);
    }
}
