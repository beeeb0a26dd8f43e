//! Rack-level tree-reduce math for fleet-scale peer comparison.
//!
//! A peer comparison needs every node's windowed per-metric means in one
//! place. With one rack, `metric_rank` windows its collector's frames
//! itself; a fleet of racks instead tree-reduces **per-rack summaries**:
//! each rack computes its nodes' windowed means locally (`rack_agg`, the
//! same [`FrameWindows`]), and the global stage merges rack summaries
//! before running the identical peer baseline + MAD + deviation ranking.
//! The global stage then costs O(racks) *data* while the fleet still pays
//! O(nodes) *work*, spread across the rack aggregators.
//!
//! The merge is exact by construction: a rack summary carries the per-node
//! windowed means themselves (a sufficient statistic for the peer
//! comparison), and merging is concatenation in global node order — no
//! arithmetic happens at merge time, so any tree shape reduces to the same
//! flat mean matrix bitwise. The per-node mean and the per-metric
//! median/MAD are computed by the exact same code on both paths
//! ([`WindowSums`], [`peer_baseline_into`]).
//!
//! A rack travels as one flat row in both directions of the reduce, in one
//! layout ([`RackSummary::shape`]): `[k, dim, …k × dim values…]`, node
//! rows in ascending node order. Going in, the values are one second's
//! samples — the rack collector's `frame` port, one row per rack per
//! second where there used to be one per node; coming out of `rack_agg`,
//! they are a closed window's means.
//!
//! The paper's own analyses read the same rows, and no other shape: `knn`
//! answers a frame with the rack's `k` state indices, the row `analysis_bb`
//! compares, and `mavgvec` needs no rack mode — mean and variance are
//! component-wise, so its statistics over frames *are* the per-node
//! statistics, header included ([`window_stats`]), the rows `analysis_wb`
//! compares.
//!
//! No sample is retained to form a mean: [`FrameWindows`] checks a frame's
//! shape and [`WindowSums`] adds its node rows, slices of the frame, into
//! the running sum of every window the second belongs to; nothing is
//! kept. The additions run in
//! arrival order from `0.0` — the order [`windowed_mean_into`] sums a
//! buffered window in — so the means are the same bits as recomputing from
//! retained rows, which is what the `window_sums_prop` proptests pin down.
//! It holds `ceil(window / slide) × nodes × dim × 8` bytes whatever the
//! window length in samples.

use std::collections::VecDeque;

use asdf_core::error::ModuleError;
use asdf_core::module::InitCtx;

use crate::analysis_bb::nan_last;
use crate::kernel::CentroidBlock;

/// Accumulates `rows` (chronologically ordered window samples) into `out`
/// and scales by `1/window` — the windowed mean of a *buffered* window.
/// Not on the data path: it is the reference the proptests hold
/// [`WindowSums`] to, bit for bit. `out` is fully overwritten.
pub fn windowed_mean_into<'a>(
    rows: impl Iterator<Item = &'a [f64]>,
    window: usize,
    out: &mut [f64],
) {
    for m in out.iter_mut() {
        *m = 0.0;
    }
    for v in rows {
        for (m, x) in out.iter_mut().zip(v) {
            *m += x;
        }
    }
    let inv_n = 1.0 / window as f64;
    for m in out.iter_mut() {
        *m *= inv_n;
    }
}

/// Running per-node sums of every window that is currently open.
///
/// Windows are `window` aligned rows long and one closes every `slide`
/// rows, the first on row `max(window, slide)`: with `slide < window`
/// `ceil(window / slide)` windows overlap, with `slide > window` the rows
/// between two windows belong to none. Each open window owns a row-major
/// `nodes × dim` accumulator; a closed window's accumulator is the next
/// one to open.
#[derive(Debug)]
pub struct WindowSums {
    window: usize,
    slide: usize,
    /// Aligned rows pushed so far.
    rows: usize,
    /// Sums of the open windows, oldest first.
    open: VecDeque<Vec<f64>>,
    /// Means of the window closed last.
    closed: Vec<f64>,
}

impl WindowSums {
    /// Creates the sums for windows of `window` rows, one closing every
    /// `slide` rows.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `slide` is zero.
    pub fn new(window: usize, slide: usize) -> Self {
        assert!(window > 0 && slide > 0, "window and slide must be positive");
        WindowSums {
            window,
            slide,
            rows: 0,
            open: VecDeque::new(),
            closed: Vec::new(),
        }
    }

    /// Adds one second — one metric vector per node, in node order — to
    /// every open window. When it completes a window, returns that
    /// window's row-major `nodes × dim` mean matrix (valid until the next
    /// push).
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, or their count or length
    /// differs from the seconds already in an open window.
    pub fn push<'a, I>(&mut self, node_rows: I) -> Option<&[f64]>
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut node_rows = node_rows.into_iter().peekable();
        let nodes = node_rows.len();
        let dim = node_rows.peek().map_or(0, |v| v.len());
        let seen = self.rows;
        self.rows += 1;

        let lead = self.slide.saturating_sub(self.window);
        if seen >= lead && (seen - lead).is_multiple_of(self.slide) {
            let mut sums = std::mem::take(&mut self.closed);
            sums.clear();
            sums.resize(nodes * dim, 0.0);
            self.open.push_back(sums);
        }
        for (node, v) in node_rows.enumerate() {
            assert_eq!(v.len(), dim, "metric vectors of one row must agree");
            for sums in &mut self.open {
                for (m, x) in sums[node * dim..][..dim].iter_mut().zip(v) {
                    *m += x;
                }
            }
        }

        let first = self.window.max(self.slide);
        if self.rows < first || !(self.rows - first).is_multiple_of(self.slide) {
            return None;
        }
        self.closed = self.open.pop_front().expect("opened `window` rows ago");
        let inv_n = 1.0 / self.window as f64;
        for m in &mut self.closed {
            *m *= inv_n;
        }
        Some(&self.closed)
    }
}

/// A stream of rack frames `[k, dim, node rows…]` summed into windows:
/// the input side of both `rack_agg` and one-rack `metric_rank`.
///
/// A frame is input from outside the module, so it is checked before any
/// of it is summed: a header that is missing, non-integral or at odds with
/// the payload length, a `k` or `dim` other than the first frame's, and a
/// `k` other than the consumer's node count are each a [`ModuleError`]
/// that names the problem — never a panic, never a mis-shaped mean.
#[derive(Debug)]
pub struct FrameWindows {
    sums: WindowSums,
    /// The `k` every frame must hold, when the consumer knows it.
    nodes: Option<usize>,
    /// `(k, dim)` of the first frame; every later frame must match.
    shape: Option<(usize, usize)>,
}

impl FrameWindows {
    /// Reads `window` (default 60) and `slide` (default `window`), and
    /// checks that `module`'s one input slot holds one frame port. Returns
    /// the windows, for frames of `nodes` nodes when given, and that
    /// port's origin.
    ///
    /// # Errors
    ///
    /// `InvalidParameter` for a zero or unparsable `window` / `slide`,
    /// `BadInputs` for any other number of slots or connections.
    pub fn init(
        ctx: &InitCtx<'_>,
        module: &str,
        nodes: Option<usize>,
    ) -> Result<(FrameWindows, String), ModuleError> {
        let window = ctx.parse_param_or("window", 60usize)?;
        if window == 0 {
            return Err(ModuleError::invalid_parameter("window", "must be positive"));
        }
        let slide = ctx.parse_param_or("slide", window)?;
        if slide == 0 {
            return Err(ModuleError::invalid_parameter("slide", "must be positive"));
        }
        let [(_, sources)] = ctx.input_slots() else {
            return Err(ModuleError::BadInputs(format!(
                "{module} takes one input, its rack's frame port, got {} slots",
                ctx.input_slots().len()
            )));
        };
        let [frame_port] = &sources[..] else {
            return Err(ModuleError::BadInputs(format!(
                "{module}'s input takes one frame port, got {} connections",
                sources.len()
            )));
        };
        let frames = FrameWindows {
            sums: WindowSums::new(window, slide),
            nodes,
            shape: None,
        };
        Ok((frames, frame_port.origin.clone()))
    }

    /// Adds one frame to the open windows. When it completes a window,
    /// returns that window's row-major `k × dim` mean matrix (valid until
    /// the next push).
    ///
    /// # Errors
    ///
    /// A malformed frame, described (see the type docs); nothing of it has
    /// been summed.
    pub fn push(&mut self, frame: &[f64]) -> Result<Option<&[f64]>, ModuleError> {
        let shape = RackSummary::shape(frame).map_err(ModuleError::Other)?;
        let (k, dim) = *self.shape.get_or_insert(shape);
        if shape != (k, dim) {
            return Err(ModuleError::Other(format!(
                "rack frame changed shape: {k}x{dim} then {}x{}",
                shape.0, shape.1
            )));
        }
        if let Some(n) = self.nodes.filter(|&n| n != k) {
            return Err(ModuleError::Other(format!(
                "rack frame holds {k} nodes, `nodes` names {n}"
            )));
        }
        Ok(self.sums.push(frame[2..].chunks_exact(dim)))
    }
}

/// The hostnames of a `nodes = a,b,c` parameter, in node order.
pub fn node_names(param: &str) -> Vec<String> {
    let names = param.split(',').map(|s| s.trim().to_owned());
    names.filter(|s| !s.is_empty()).collect()
}

/// The hostnames a peer comparison of `n_slots` rack rows labels its
/// per-node ports with: its required `nodes` parameter's, the nodes the
/// rows cover, in slot order. `BadInputs` below three nodes, without a
/// slot, or with more slots than nodes.
pub(crate) fn peer_origins(ctx: &InitCtx<'_>, n_slots: usize) -> Result<Vec<String>, ModuleError> {
    let origins = node_names(ctx.require_param("nodes")?);
    let n = origins.len();
    if n < 3 {
        return Err(ModuleError::BadInputs(format!(
            "peer comparison needs >= 3 nodes, got {n}"
        )));
    }
    if n_slots == 0 || n_slots > n {
        return Err(ModuleError::BadInputs(format!(
            "{n} nodes need between 1 and {n} input slots, got {n_slots}"
        )));
    }
    Ok(origins)
}

/// One slot's window statistics as node rows, `(dim, means, stddevs)`:
/// `mavgvec`'s rows over a rack's frames — the mean carried the `[k, dim]`
/// header through exactly, the stddev left `[0, 0]` of it.
///
/// # Errors
///
/// A bad rack header, or a stddev row of another length, described.
pub fn window_stats<'a>(
    mean: &'a [f64],
    stddev: &'a [f64],
) -> Result<(usize, &'a [f64], &'a [f64]), String> {
    let (_, dim) = RackSummary::shape(mean)?;
    if stddev.len() != mean.len() {
        return Err(format!(
            "a mean row of {} values against a stddev row of {}",
            mean.len(),
            stddev.len()
        ));
    }
    Ok((dim, &mean[2..], &stddev[2..]))
}

/// Median of a peer column by selection, not a sort; for even counts the
/// mean of the middle pair. Orders as `analysis_bb::median` does
/// ([`nan_last`]: NaNs after every number, so they shift the median and it
/// is NaN itself only once they reach the middle) and returns the same
/// value. The one bit
/// that can differ from that stable sort is the sign of a zero median
/// (`0.0` and `-0.0` compare equal, and a selection does not keep them in
/// input order), or of a NaN one; nothing downstream reads it:
/// [`peer_baseline_into`]'s MAD column takes `|x − m|` and
/// [`deviation`] `|x − m|` and `1 + |m|`, where `abs` clears the sign
/// whichever zero or NaN was subtracted.
fn select_median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let n = values.len();
    let (below, &mut upper, _) = values.select_nth_unstable_by(n / 2, nan_last);
    if n % 2 == 1 {
        return upper;
    }
    // The lower middle is the greatest of what was partitioned below.
    let lower = below.iter().copied().max_by(nan_last);
    (lower.expect("an even, non-empty column has a lower half") + upper) / 2.0
}

/// Component-wise peer baseline (median across node rows) and MAD (median
/// absolute deviation from that baseline) over a mean matrix. `col` is
/// reusable scratch. The medians are selected, `O(nodes)` per metric
/// (see `select_median` for why no output can tell them from sorted ones).
pub fn peer_baseline_into(
    means: &CentroidBlock,
    baseline: &mut [f64],
    mad: &mut [f64],
    col: &mut Vec<f64>,
) {
    let dim = baseline.len();
    for d in 0..dim {
        col.clear();
        col.extend(means.rows().map(|r| r[d]));
        baseline[d] = select_median(col);
        let base = baseline[d];
        col.clear();
        col.extend(means.rows().map(|r| (r[d] - base).abs()));
        mad[d] = select_median(col);
    }
}

/// Fraction of the baseline magnitude used as the floor of
/// [`deviation`]'s denominator.
const MAD_FLOOR_FRACTION: f64 = 0.01;

/// How far one node's windowed `mean` of a metric sits from its peers:
/// `|mean − baseline| / (mad + 0.01·(1 + |baseline|))`, the score
/// `metric_rank` ranks by (its module docs say why the floor is relative).
pub fn deviation(mean: f64, baseline: f64, mad: f64) -> f64 {
    let floor = MAD_FLOOR_FRACTION * (1.0 + baseline.abs());
    (mean - baseline).abs() / (mad + floor)
}

/// A rack's contribution to the global peer comparison: the windowed
/// per-metric means of its nodes, in ascending global node order.
#[derive(Debug, Clone, PartialEq)]
pub struct RackSummary {
    /// Nodes summarized by this partial.
    pub n_nodes: usize,
    /// Metrics per node.
    pub dim: usize,
    /// Row-major `n_nodes × dim` mean matrix.
    pub means: Vec<f64>,
}

impl RackSummary {
    /// Encodes the summary as a self-describing flat row:
    /// `[n_nodes, dim, means…]`.
    pub fn encode_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.push(self.n_nodes as f64);
        out.push(self.dim as f64);
        out.extend_from_slice(&self.means);
    }

    /// Decodes a row produced by [`Self::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation when the header is
    /// missing, non-integral, or inconsistent with the payload length.
    pub fn decode(row: &[f64]) -> Result<RackSummary, String> {
        let (n_nodes, dim) = RackSummary::shape(row)?;
        Ok(RackSummary {
            n_nodes,
            dim,
            means: row[2..].to_vec(),
        })
    }

    /// Validates the `[k, dim]` header of a rack row — a summary, or a
    /// rack collector's one-second frame, which carries samples in the same
    /// layout — against its length, and returns `(k, dim)`. The values,
    /// `row[2..]`, are then `k` node rows of `dim`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation when the header is
    /// missing, non-integral, below one, or inconsistent with the payload
    /// length.
    pub fn shape(row: &[f64]) -> Result<(usize, usize), String> {
        let [k, dim, payload @ ..] = row else {
            return Err(format!(
                "rack row needs [k, dim, …], got {} values",
                row.len()
            ));
        };
        // Checked against the payload as floats: a header too large for
        // `usize` (or not finite) is a mismatch, never an overflow.
        if k.fract() != 0.0 || dim.fract() != 0.0 || *k < 1.0 || *dim < 1.0 {
            return Err(format!("bad rack row header [k={k}, dim={dim}]"));
        }
        if k * dim != payload.len() as f64 {
            return Err(format!(
                "rack row payload is {} values, header says {k}x{dim}",
                payload.len()
            ));
        }
        Ok((*k as usize, *dim as usize))
    }

    /// Merges partials (each covering a contiguous node range, in global
    /// node order) into one summary — pure concatenation, no arithmetic,
    /// so every merge tree shape produces the identical matrix.
    ///
    /// # Panics
    ///
    /// Panics when partials disagree on `dim`.
    pub fn merge(parts: &[RackSummary]) -> RackSummary {
        let dim = parts.first().map_or(0, |p| p.dim);
        let mut merged = RackSummary {
            n_nodes: 0,
            dim,
            means: Vec::new(),
        };
        for p in parts {
            assert_eq!(p.dim, dim, "rack partials must agree on metric width");
            merged.n_nodes += p.n_nodes;
            merged.means.extend_from_slice(&p.means);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_round_trips_through_encoding() {
        let s = RackSummary {
            n_nodes: 2,
            dim: 3,
            means: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        let mut row = Vec::new();
        s.encode_into(&mut row);
        assert_eq!(row[..2], [2.0, 3.0]);
        assert_eq!(RackSummary::decode(&row).unwrap(), s);
    }

    #[test]
    fn decode_rejects_malformed_rows() {
        assert!(RackSummary::decode(&[]).is_err());
        assert!(RackSummary::decode(&[2.0]).is_err());
        assert!(RackSummary::decode(&[2.5, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]).is_err());
        assert!(RackSummary::decode(&[2.0, 2.0, 0.0]).is_err()); // short payload
        assert!(RackSummary::decode(&[0.0, 2.0]).is_err()); // zero nodes
    }

    #[test]
    fn merge_concatenates_in_order() {
        let a = RackSummary {
            n_nodes: 1,
            dim: 2,
            means: vec![1.0, 2.0],
        };
        let b = RackSummary {
            n_nodes: 2,
            dim: 2,
            means: vec![3.0, 4.0, 5.0, 6.0],
        };
        let m = RackSummary::merge(&[a.clone(), b.clone()]);
        assert_eq!(m.n_nodes, 3);
        assert_eq!(m.means, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Tree shapes collapse to the same result.
        let t = RackSummary::merge(&[RackSummary::merge(&[a]), b]);
        assert_eq!(m, t);
    }

    #[test]
    fn windowed_mean_matches_naive() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let mut out = vec![f64::NAN; 2];
        windowed_mean_into(rows.iter().map(|r| r.as_slice()), 3, &mut out);
        assert_eq!(
            out,
            vec![(1.0 + 2.0 + 3.0) / 3.0, (10.0 + 20.0 + 30.0) / 3.0]
        );
    }
}
