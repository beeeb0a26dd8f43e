//! Property test: tree-reducing per-rack summaries is bitwise equal to
//! the flat fleet-wide computation — for any node count, rack partition,
//! merge tree shape, window geometry, and NaN-free metric values.
//!
//! This is the contract the fleet diagnosis path rests on: `rack_agg`
//! computes per-node windowed means rack-locally, `metric_rank` over rack
//! summaries concatenates them back into the flat mean matrix,
//! and the peer baseline/MAD it computes must match what the flat wiring
//! would have produced, to the last bit.
//!
//! A second property holds the peer statistics themselves to a reference:
//! [`peer_baseline_into`] *selects* its medians, and every median, MAD and
//! deviation score it leads to must be what sorting each column gives —
//! over columns with NaNs, both zeros, ties, and even and odd counts.

use asdf_modules::kernel::CentroidBlock;
use asdf_modules::rack::{deviation, peer_baseline_into, windowed_mean_into, RackSummary};
use proptest::prelude::*;

/// Per-node windowed means for a contiguous node range, with the shared
/// arithmetic (exactly what one `rack_agg` instance computes).
fn summarize(
    samples: &[Vec<Vec<f64>>],
    range: std::ops::Range<usize>,
    window: usize,
) -> RackSummary {
    let dim = samples[0][0].len();
    let mut s = RackSummary {
        n_nodes: range.len(),
        dim,
        means: vec![0.0; range.len() * dim],
    };
    for (local, node) in range.enumerate() {
        windowed_mean_into(
            samples[node].iter().map(|r| r.as_slice()),
            window,
            &mut s.means[local * dim..][..dim],
        );
    }
    s
}

/// Merges partials pairwise as a balanced tree (vs the flat left fold).
fn tree_merge(parts: &[RackSummary]) -> RackSummary {
    match parts.len() {
        0 => RackSummary {
            n_nodes: 0,
            dim: 0,
            means: Vec::new(),
        },
        1 => parts[0].clone(),
        n => {
            let (l, r) = parts.split_at(n / 2);
            RackSummary::merge(&[tree_merge(l), tree_merge(r)])
        }
    }
}

fn peer_stats(means: &CentroidBlock, dim: usize) -> (Vec<f64>, Vec<f64>) {
    let mut baseline = vec![0.0; dim];
    let mut mad = vec![0.0; dim];
    let mut col = Vec::new();
    peer_baseline_into(means, &mut baseline, &mut mad, &mut col);
    (baseline, mad)
}

/// The sorted median `peer_baseline_into` used before it selected: a
/// stable sort, NaNs after every number, the mean of the middle pair for
/// even counts (`analysis_bb::median`, which the analyses still use).
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

/// Peer statistics with every median sorted, not selected.
fn sorted_peer_stats(rows: &[Vec<f64>], dim: usize) -> (Vec<f64>, Vec<f64>) {
    (0..dim)
        .map(|d| {
            let base = sorted_median(rows.iter().map(|r| r[d]).collect());
            let mad = sorted_median(rows.iter().map(|r| (r[d] - base).abs()).collect());
            (base, mad)
        })
        .unzip()
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
/// 1–4 metrics.
fn arb_peer_matrix() -> impl Strategy<Value = (usize, Vec<Vec<f64>>)> {
    (1usize..13, 1usize..5).prop_flat_map(|(n, d)| {
        let row = proptest::collection::vec(arb_peer_value(), d..d + 1);
        (d..d + 1, proptest::collection::vec(row, n..n + 1))
    })
}

/// Random fleet geometry + metric values: node count, metric width,
/// window length, rack-size seeds, and a flat NaN-free value pool.
fn arb_case() -> impl Strategy<Value = (usize, usize, usize, Vec<usize>, Vec<f64>)> {
    (3usize..17, 1usize..7, 1usize..6).prop_flat_map(|(n, d, w)| {
        (
            n..n + 1,
            d..d + 1,
            w..w + 1,
            proptest::collection::vec(1usize..5, n..n + 1),
            proptest::collection::vec(-1.0e6f64..1.0e6, n * w * d..n * w * d + 1),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn selected_medians_rank_exactly_as_sorted_ones((dim, rows) in arb_peer_matrix()) {
        let (base, mad) = peer_stats(&CentroidBlock::from_rows(&rows), dim);
        let (want_base, want_mad) = sorted_peer_stats(&rows, dim);
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
        (n_nodes, dim, window, rack_sizes, flat_values) in arb_case()
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

        // Flat path: one pass over every node.
        let flat = summarize(&samples, 0..n_nodes, window);
        let flat_block = CentroidBlock::from_rows(
            &(0..n_nodes)
                .map(|i| flat.means[i * dim..][..dim].to_vec())
                .collect::<Vec<_>>(),
        );
        let (flat_base, flat_mad) = peer_stats(&flat_block, dim);

        // Rack path: per-rack partials, merged both as a left fold and as
        // a balanced tree, with an encode/decode round trip in between
        // (the DAG ships summaries as flat rows).
        let partials: Vec<RackSummary> = racks
            .iter()
            .map(|r| {
                let s = summarize(&samples, r.clone(), window);
                let mut row = Vec::new();
                s.encode_into(&mut row);
                RackSummary::decode(&row).expect("round trip")
            })
            .collect();
        let folded = RackSummary::merge(&partials);
        let treed = tree_merge(&partials);
        prop_assert_eq!(&folded, &treed);
        prop_assert_eq!(&folded.means, &flat.means);
        prop_assert_eq!(folded.n_nodes, n_nodes);

        let merged_block = CentroidBlock::from_rows(
            &(0..n_nodes)
                .map(|i| folded.means[i * dim..][..dim].to_vec())
                .collect::<Vec<_>>(),
        );
        let (rack_base, rack_mad) = peer_stats(&merged_block, dim);
        // Bitwise: the values are NaN-free, so == is exact equality.
        prop_assert_eq!(flat_base, rack_base);
        prop_assert_eq!(flat_mad, rack_mad);
    }
}
