//! Property test: tree-reducing per-rack summaries is bitwise equal to
//! the flat fleet-wide computation — for any node count, contiguous rack
//! partition, slot arrival order, window length, metric width, and
//! NaN-free metric values.
//!
//! This is the contract the fleet diagnosis path rests on: `rack_agg`
//! computes per-node windowed means rack-locally, `metric_rank` over rack
//! summaries lines them up through the production assembler,
//! [`PeerFrames`], and ranks the node rows of the frames it holds. Every
//! row, peer baseline, MAD and deviation score it reaches must match a
//! flat reference — one matrix of every node's means, each metric's
//! column gathered by stride and its medians sorted — to the last bit.
//!
//! A second property holds the peer statistics themselves to a reference:
//! [`peer_baseline_into`] *selects* its medians, gathering a block of
//! columns per pass over the rows, and every median, MAD and deviation
//! score it leads to must be what sorting each column gives — over
//! columns with NaNs, both zeros, ties, and even and odd counts, at widths
//! on both sides of a block.

use asdf_core::time::Timestamp;
use asdf_core::value::Sample;
use asdf_modules::rack::{
    deviation, peer_baseline_into, windowed_mean_into, ColumnMedians, PeerFrames,
};
use proptest::prelude::*;

/// The summary frame `[k, dim, means…]` of a contiguous node range, with
/// the shared arithmetic (exactly what one `rack_agg` instance computes).
fn summarize(samples: &[Vec<Vec<f64>>], range: std::ops::Range<usize>, window: usize) -> Vec<f64> {
    let dim = samples[0][0].len();
    let mut frame = vec![range.len() as f64, dim as f64];
    frame.resize(2 + range.len() * dim, 0.0);
    for (local, node) in range.enumerate() {
        windowed_mean_into(
            samples[node].iter().map(|r| r.as_slice()),
            window,
            &mut frame[2 + local * dim..][..dim],
        );
    }
    frame
}

/// The production peer statistics over node rows.
fn peer_stats<'a>(
    rows: impl Iterator<Item = &'a [f64]> + Clone,
    dim: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut baseline = vec![0.0; dim];
    let mut mad = vec![0.0; dim];
    peer_baseline_into(rows, &mut baseline, &mut mad, &mut ColumnMedians::default());
    (baseline, mad)
}

/// The sorted median every peer comparison used before it selected: a
/// stable sort, NaNs after every number, the mean of the middle pair for
/// even counts.
fn sorted_median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| {
        a.partial_cmp(b)
            .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
    });
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peer statistics with every median sorted, not selected, over a flat
/// row-major matrix of `dim` metrics a node: each column gathered by
/// stride, as a fleet-wide matrix would be read.
fn sorted_peer_stats(matrix: &[f64], dim: usize) -> (Vec<f64>, Vec<f64>) {
    let column = |d: usize| matrix.iter().skip(d).step_by(dim);
    (0..dim)
        .map(|d| {
            let base = sorted_median(column(d).copied().collect());
            let mad = sorted_median(column(d).map(|m| (m - base).abs()).collect());
            (base, mad)
        })
        .unzip()
}

/// Every node's deviation score of every metric, as bits, in node order.
fn scores<'a>(rows: impl Iterator<Item = &'a [f64]>, base: &[f64], mad: &[f64]) -> Vec<u64> {
    rows.flat_map(|row| (0..row.len()).map(move |d| deviation(row[d], base[d], mad[d]).to_bits()))
        .collect()
}

/// Column values that make a selection and a stable sort disagree if
/// anything can: few distinct numbers (ties), both zeros, NaNs of either
/// sign, and an occasional spread-out value.
fn arb_peer_value() -> impl Strategy<Value = f64> {
    (0usize..8, -3i32..4, -1.0e6f64..1.0e6).prop_map(|(kind, small, wide)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => -f64::NAN,
        4 => wide,
        _ => f64::from(small),
    })
}

/// `(dim, rows)`: 1–12 nodes (even and odd counts, a lone node included),
/// 1–19 metrics (one, two and three column blocks).
fn arb_peer_matrix() -> impl Strategy<Value = (usize, Vec<Vec<f64>>)> {
    (1usize..13, 1usize..20).prop_flat_map(|(n, d)| {
        let row = proptest::collection::vec(arb_peer_value(), d..d + 1);
        (d..d + 1, proptest::collection::vec(row, n..n + 1))
    })
}

/// Random fleet geometry + metric values: node count, metric width (up to
/// three column blocks), window length, rack-size seeds, a flat NaN-free
/// value pool, and whether the racks' summaries arrive last rack first.
fn arb_case() -> impl Strategy<Value = (usize, usize, usize, Vec<usize>, Vec<f64>, bool)> {
    (3usize..17, 1usize..20, 1usize..6).prop_flat_map(|(n, d, w)| {
        (
            n..n + 1,
            d..d + 1,
            w..w + 1,
            proptest::collection::vec(1usize..5, n..n + 1),
            proptest::collection::vec(-1.0e6f64..1.0e6, n * w * d..n * w * d + 1),
            any::<bool>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn selected_medians_rank_exactly_as_sorted_ones((dim, rows) in arb_peer_matrix()) {
        let (base, mad) = peer_stats(rows.iter().map(Vec::as_slice), dim);
        let (want_base, want_mad) = sorted_peer_stats(&rows.concat(), dim);
        // `==`, not bits: the sign of a zero (or NaN) median is the one
        // thing a selection may return differently.
        let same = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
        for d in 0..dim {
            prop_assert!(same(base[d], want_base[d]), "median {}: {} vs {}", d, base[d], want_base[d]);
            // The MAD column is `abs`-ed, so even that sign is gone.
            prop_assert_eq!(mad[d].to_bits(), want_mad[d].to_bits(), "MAD {}", d);
        }
        // And no score reads that sign: the rank rows are the same bits.
        for row in &rows {
            for d in 0..dim {
                let got = deviation(row[d], base[d], mad[d]);
                let want = deviation(row[d], want_base[d], want_mad[d]);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "metric {} of {:?}", d, row);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_reduce_is_bitwise_equal_to_flat(
        (n_nodes, dim, window, rack_sizes, flat_values, reversed) in arb_case()
    ) {
        // Samples[node][row][metric], window rows per node.
        let samples: Vec<Vec<Vec<f64>>> = (0..n_nodes)
            .map(|node| {
                (0..window)
                    .map(|r| {
                        let at = (node * window + r) * dim;
                        flat_values[at..at + dim].to_vec()
                    })
                    .collect()
            })
            .collect();

        // Contiguous rack partition from the random sizes (trimmed to
        // cover exactly n_nodes; the tail rack absorbs the remainder).
        let mut racks: Vec<std::ops::Range<usize>> = Vec::new();
        let mut at = 0;
        for sz in rack_sizes {
            if at >= n_nodes {
                break;
            }
            let end = (at + sz).min(n_nodes);
            racks.push(at..end);
            at = end;
        }
        if at < n_nodes {
            racks.push(at..n_nodes);
        }

        // Flat reference: one summary of every node, one matrix.
        let flat = summarize(&samples, 0..n_nodes, window);
        let flat_means = &flat[2..];
        let (flat_base, flat_mad) = sorted_peer_stats(flat_means, dim);
        let flat_scores = scores(flat_means.chunks_exact(dim), &flat_base, &flat_mad);

        // Rack path: one summary frame per rack, one slot each, lined up
        // by the production assembler whichever order the slots report in
        // and read through its row view.
        let mut frames = PeerFrames::new("metric_rank", racks.len(), n_nodes);
        let mut slots: Vec<usize> = (0..racks.len()).collect();
        if reversed {
            slots.reverse();
        }
        for slot in slots {
            let summary = summarize(&samples, racks[slot].clone(), window);
            let second = Sample::new(Timestamp::from_secs(59), summary);
            frames.push(slot, &second).expect("a well-formed summary");
        }
        let (t, width, rows) = frames
            .pop()
            .expect("contiguous racks cover the fleet")
            .expect("every slot reported");
        prop_assert_eq!((t, width), (59, dim));
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&rows.iter().collect::<Vec<_>>().concat()), bits(flat_means));

        // The values are NaN-free, so == is exact equality.
        let (rack_base, rack_mad) = peer_stats(rows.iter(), dim);
        prop_assert_eq!(&flat_base, &rack_base);
        prop_assert_eq!(bits(&flat_mad), bits(&rack_mad));
        prop_assert_eq!(scores(rows.iter(), &rack_base, &rack_mad), flat_scores);
    }
}
