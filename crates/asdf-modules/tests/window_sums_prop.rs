//! Property test: `rack::WindowSums` — running sums, no sample retained —
//! closes the same windows as buffering the last `window` rows per node
//! and recomputing with `rack::windowed_mean_into` at every slide, which
//! is what `rack_agg` and `metric_rank` did before they shared it: the
//! frame a window closes into is `[nodes, dim]` followed by those means,
//! bit for bit.
//!
//! Both modules run this one piece of code (through `rack::FrameWindows`),
//! so their rack-vs-one-rack equality tests say nothing about how a mean
//! is formed; this file does, for any node count, metric width, window,
//! slide (below, equal to and above the window) and stream length.

use asdf_modules::rack::{windowed_mean_into, WindowSums};
use proptest::prelude::*;

/// One aligned row: a metric vector per node.
type Row = Vec<Vec<f64>>;

/// The buffered evaluation this replaced: every row is kept, a window is
/// evaluated once `window` rows exist and `slide` rows have passed since
/// the last evaluation (counted from the first row), over the last
/// `window` rows in arrival order. Returns `(closing row, frame)`, rows
/// numbered from 1, the frame `[nodes, dim, means…]`.
fn buffered(rows: &[Row], window: usize, slide: usize) -> Vec<(usize, Vec<f64>)> {
    let mut closed = Vec::new();
    let mut rows_since_eval = 0;
    for n in 1..=rows.len() {
        rows_since_eval += 1;
        if n < window || rows_since_eval < slide {
            continue;
        }
        rows_since_eval = 0;
        let nodes = rows[0].len();
        let dim = rows[0][0].len();
        let mut frame = vec![nodes as f64, dim as f64];
        frame.resize(2 + nodes * dim, f64::NAN);
        for node in 0..nodes {
            windowed_mean_into(
                rows[n - window..n].iter().map(|r| r[node].as_slice()),
                window,
                &mut frame[2 + node * dim..][..dim],
            );
        }
        closed.push((n, frame));
    }
    closed
}

/// Values whose sum depends on the order of addition: mixed magnitudes
/// and signs, both zeros.
fn arb_value() -> impl Strategy<Value = f64> {
    (0usize..5, -1.0f64..1.0).prop_map(|(kind, x)| match kind {
        0 => x,
        1 => x * 1e6,
        2 => 1e12 + x.abs() * 1e15,
        3 => 0.0,
        _ => -0.0,
    })
}

/// `(window, slide, rows)`: 1–5 nodes, 1–4 metrics, up to 50 rows, and a
/// slide below, equal to or above the window a third of the time each.
fn arb_case() -> impl Strategy<Value = (usize, usize, Vec<Row>)> {
    (1usize..6, 1usize..5, 1usize..13, 0usize..51).prop_flat_map(|(nodes, dim, window, n_rows)| {
        let slide = (0usize..3, 0usize..8).prop_map(move |(kind, by)| match kind {
            0 => 1 + by % window,
            1 => window,
            _ => window + 1 + by,
        });
        let row = proptest::collection::vec(
            proptest::collection::vec(arb_value(), dim..dim + 1),
            nodes..nodes + 1,
        );
        (
            window..window + 1,
            slide,
            proptest::collection::vec(row, n_rows..n_rows + 1),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn running_sums_equal_the_buffered_window_bitwise((window, slide, rows) in arb_case()) {
        let mut sums = WindowSums::new(window, slide);
        let mut closed = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if let Some(frame) = sums.push(row.iter().map(Vec::as_slice)) {
                closed.push((i + 1, frame.to_vec()));
            }
        }
        let want = buffered(&rows, window, slide);

        let closing_rows = |c: &[(usize, Vec<f64>)]| c.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        prop_assert_eq!(closing_rows(&closed), closing_rows(&want));
        // First verdict on row max(window, slide), then one every slide.
        let first = window.max(slide);
        let expect_rows: Vec<usize> = (first..=rows.len()).step_by(slide).collect();
        prop_assert_eq!(closing_rows(&closed), expect_rows);

        for ((n, got), (_, want)) in closed.iter().zip(&want) {
            let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got), bits(want), "window closing on row {}", n);
        }
    }
}
