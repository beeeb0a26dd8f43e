//! Rack frames: the one row layout on every edge between analyses, and the
//! fleet-scale tree-reduce over them.
//!
//! Every row an analysis reads or hands on is a rack frame, `[k, width,
//! node₀ values…, node₁ values…]`: `k` node rows of `width` values in
//! ascending node order, checked by one decoder, [`frame_shape`]. A rack
//! collector's `frame` port carries one second of samples in it; `knn`
//! answers with each node's state indices, `[k, 1, …]`; `mavgvec` with
//! each node's window means then stddevs, `[k, 2·dim, …]`; `rack_agg`
//! with each node's windowed means, `[k, dim, …]`. Every consumer holds a
//! stream to the shape of its first frame (`FrameStream`), so a frame
//! that changes shape is a [`ModuleError`] where it arrives — never a
//! silently mis-shaped statistic further down.
//!
//! A peer comparison — `analysis_bb`, `analysis_wb`, and `metric_rank`
//! over `rack_agg` summaries — takes one frame per rack and reaches its
//! nodes only through [`PeerFrames`]: the paper's cross-instance
//! synchronization (§3.7), which lines the racks' frames up by second and
//! hands them on as a [`NodeRows`] view, node rows in slot order. That
//! stage holds the frames, never a copy of them, until its consumer is
//! done, and does no arithmetic, so any contiguous rack split of a fleet
//! ranks bitwise as the flat fleet does (the `rack_merge_prop` proptests).
//!
//! That is what makes the fleet tree-reduce exact: each `rack_agg` windows
//! its rack's frames locally ([`FrameWindows`], as a one-rack
//! `metric_rank` does), and the global `metric_rank` runs the same peer
//! baseline, MAD and deviation ranking ([`peer_baseline_into`],
//! [`deviation`]) over the summaries' rows: O(racks) *data* at the global
//! stage, O(nodes) *work* spread across the rack aggregators.
//!
//! No sample is retained to form a mean: [`WindowSums`] adds a second's
//! node rows, slices of the frame, into the sums of every window open,
//! each kept in the frame `[k, dim, sums…]` its window closes as. The
//! additions run in arrival order from `0.0`, as [`windowed_mean_into`]
//! sums a buffered window, so the means are its bits (the
//! `window_sums_prop` proptests). That is `ceil(window / slide)` frames of
//! `(2 + nodes × dim) × 8` bytes, whatever the window length in samples.

use std::collections::VecDeque;
use std::sync::Arc;

use asdf_core::error::ModuleError;
use asdf_core::module::InitCtx;
use asdf_core::value::{Sample, Value};
use hadoop_logs::sync::Aligner;

/// A rack frame's `(k, width)`: `k` node rows of `width` values.
pub type Shape = (usize, usize);

/// Validates the `[k, width]` header of a rack frame against its length
/// and returns `(k, width)`. The values, `row[2..]`, are then `k` node rows
/// of `width`.
///
/// # Errors
///
/// Returns a description of the malformation when the header is
/// missing, non-integral, below one, or inconsistent with the payload
/// length.
pub fn frame_shape(row: &[f64]) -> Result<Shape, String> {
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

/// One stream of rack frames, held to the shape of its first frame.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameStream {
    /// The shape of the first frame.
    shape: Option<Shape>,
}

impl FrameStream {
    /// Checks that `value`, arriving at a `module`, is a rack frame of the
    /// stream's shape (the first frame sets it), and returns the frame with
    /// its `(k, width)`.
    ///
    /// # Errors
    ///
    /// A value other than a vector, a malformed header ([`frame_shape`]),
    /// or a `k` or `width` other than the first frame's, described.
    pub(crate) fn check<'v>(
        &mut self,
        module: &str,
        value: &'v Value,
    ) -> Result<(&'v Arc<[f64]>, Shape), ModuleError> {
        let Value::Vector(frame) = value else {
            return Err(ModuleError::Other(format!(
                "{module} expects rack frames, got {}",
                value.type_name()
            )));
        };
        let shape = frame_shape(frame).map_err(ModuleError::Other)?;
        let (k, width) = *self.shape.get_or_insert(shape);
        if shape != (k, width) {
            return Err(ModuleError::Other(format!(
                "rack frame changed shape: {k}x{width} then {}x{}",
                shape.0, shape.1
            )));
        }
        Ok((frame, shape))
    }
}

/// The node rows of a peer comparison, one rack frame per slot: each
/// slot's frames held to the shape of its first, the slots lined up by
/// second (an [`Aligner`]; a second some slot skipped is dropped).
#[derive(Debug)]
pub struct PeerFrames {
    module: &'static str,
    streams: Vec<FrameStream>,
    aligner: Aligner<Arc<[f64]>>,
    /// The nodes the slots cover between them.
    nodes: usize,
}

/// One aligned second of a peer comparison: the slots' rack frames, one
/// width, whose node rows in slot order are the compared nodes. Nothing
/// is copied out of them; dropping the view releases them.
#[derive(Debug)]
pub struct NodeRows(Vec<Arc<[f64]>>);

impl NodeRows {
    /// Every node's row, in node order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + Clone {
        self.0
            .iter()
            .flat_map(|f| f[2..].chunks_exact(f[1] as usize))
    }
}

impl PeerFrames {
    /// The assembler of a `module` reading `slots` racks that cover `nodes`
    /// nodes between them.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(module: &'static str, slots: usize, nodes: usize) -> Self {
        PeerFrames {
            module,
            streams: vec![FrameStream::default(); slots],
            aligner: Aligner::new(slots),
            nodes,
        }
    }

    /// The assembler over `module`'s input slots, and the hostnames its
    /// required `nodes` parameter names, in node order.
    ///
    /// # Errors
    ///
    /// `BadInputs` below three nodes, without a slot, or with more slots
    /// than nodes.
    pub fn init(
        ctx: &InitCtx<'_>,
        module: &'static str,
    ) -> Result<(PeerFrames, Vec<String>), ModuleError> {
        let slots = ctx.input_slots().len();
        let origins = peer_origins(ctx, slots)?;
        Ok((PeerFrames::new(module, slots, origins.len()), origins))
    }

    /// Checks `slot`'s frame and holds it until every slot has its second.
    ///
    /// # Errors
    ///
    /// A value other than a vector, a malformed header ([`frame_shape`]),
    /// or a `k` or `width` other than the slot's first frame's, described.
    pub fn push(&mut self, slot: usize, sample: &Sample) -> Result<(), ModuleError> {
        let (frame, _) = self.streams[slot].check(self.module, &sample.value)?;
        let t = sample.timestamp.as_secs();
        self.aligner.push(slot, t, Arc::clone(frame));
        Ok(())
    }

    /// The next second every slot has a frame of, as `(t, width, rows)`:
    /// the slots' frames, no longer held here.
    ///
    /// # Errors
    ///
    /// Frames of different widths, or covering other than `nodes` nodes.
    pub fn pop(&mut self) -> Result<Option<(u64, usize, NodeRows)>, ModuleError> {
        let Some((t, frames)) = self.aligner.pop_aligned() else {
            return Ok(None);
        };
        // `push` checked every header.
        let width = frames[0][1] as usize;
        if let Some(other) = frames.iter().find(|f| f[1] as usize != width) {
            return Err(ModuleError::Other(format!(
                "the slots' frames are {width} and {} wide at t={t}",
                other[1]
            )));
        }
        let covered: usize = frames.iter().map(|f| f[0] as usize).sum();
        if covered != self.nodes {
            return Err(ModuleError::Other(format!(
                "the slots' frames cover {covered} nodes at t={t}, expected {}",
                self.nodes
            )));
        }
        Ok(Some((t, width, NodeRows(frames))))
    }
}

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
/// between two windows belong to none. Each open window sums into a frame
/// of its own, `[nodes, dim, sums…]`, allocated when it opens and written
/// through [`Arc::get_mut`] while nothing else holds it; a closing window
/// scales its sums into means in place and leaves as that frame.
#[derive(Debug)]
pub struct WindowSums {
    window: usize,
    slide: usize,
    /// Aligned rows pushed so far.
    rows: usize,
    /// The frames of the open windows, oldest first.
    open: VecDeque<Arc<[f64]>>,
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
        }
    }

    /// Adds one second — one metric vector per node, in node order — to
    /// every open window. When it completes a window, returns that
    /// window's frame, `[nodes, dim, means…]`.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, or their count or length
    /// differs from the seconds already in an open window.
    pub fn push<'a, I>(&mut self, node_rows: I) -> Option<Arc<[f64]>>
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
            let header = [nodes as f64, dim as f64].into_iter();
            let zeros = std::iter::repeat_n(0.0, nodes * dim);
            self.open.push_back(header.chain(zeros).collect());
        }
        // Each node row is added to every open window while it is in cache.
        let unshared = |f| Arc::get_mut(f).expect("an open window's frame is not shared");
        let mut open: Vec<&mut [f64]> = self.open.iter_mut().map(unshared).collect();
        for (node, v) in node_rows.enumerate() {
            assert_eq!(v.len(), dim, "metric vectors of one row must agree");
            for sums in &mut open {
                for (m, x) in sums[2 + node * dim..][..dim].iter_mut().zip(v) {
                    *m += x;
                }
            }
        }

        let first = self.window.max(self.slide);
        if self.rows < first || !(self.rows - first).is_multiple_of(self.slide) {
            return None;
        }
        let mut frame = self.open.pop_front().expect("opened `window` rows ago");
        let means = Arc::get_mut(&mut frame).expect("an open window's frame is not shared");
        let inv_n = 1.0 / self.window as f64;
        means[2..].iter_mut().for_each(|m| *m *= inv_n);
        Some(frame)
    }
}

/// A stream of rack frames `[k, dim, node rows…]` summed into windows:
/// the input side of both `rack_agg` and one-rack `metric_rank`.
///
/// A frame is input from outside the module, so it is checked before any
/// of it is summed: a value other than a vector, a malformed header
/// ([`frame_shape`]), a `k` or `dim` other than the first frame's, and a
/// `k` other than the consumer's node count are each a [`ModuleError`]
/// that names the problem — never a panic, never a mis-shaped mean.
#[derive(Debug)]
pub struct FrameWindows {
    module: &'static str,
    sums: WindowSums,
    stream: FrameStream,
    /// The `k` every frame must hold, when the consumer knows it.
    nodes: Option<usize>,
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
        module: &'static str,
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
            module,
            sums: WindowSums::new(window, slide),
            stream: FrameStream::default(),
            nodes,
        };
        Ok((frames, frame_port.origin.clone()))
    }

    /// Adds one frame to the open windows. When it completes a window,
    /// returns that window's frame of means, `[k, dim, means…]`.
    ///
    /// # Errors
    ///
    /// A malformed frame, described (see the type docs); nothing of it has
    /// been summed.
    pub fn push(&mut self, value: &Value) -> Result<Option<Arc<[f64]>>, ModuleError> {
        let (frame, (k, dim)) = self.stream.check(self.module, value)?;
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

/// The fewest nodes a peer comparison compares.
pub const MIN_PEERS: usize = 3;

/// The hostnames a peer comparison of `n_slots` rack rows labels its
/// per-node ports with: its required `nodes` parameter's, the nodes the
/// rows cover, in slot order. `BadInputs` below [`MIN_PEERS`] nodes,
/// without a slot, or with more slots than nodes.
pub(crate) fn peer_origins(ctx: &InitCtx<'_>, n_slots: usize) -> Result<Vec<String>, ModuleError> {
    let origins = node_names(ctx.require_param("nodes")?);
    let n = origins.len();
    if n < MIN_PEERS {
        return Err(ModuleError::BadInputs(format!(
            "peer comparison needs >= {MIN_PEERS} nodes, got {n}"
        )));
    }
    if n_slots == 0 || n_slots > n {
        return Err(ModuleError::BadInputs(format!(
            "{n} nodes need between 1 and {n} input slots, got {n_slots}"
        )));
    }
    Ok(origins)
}

/// The order every peer median is taken in: numbers by value, NaNs (all
/// equal) after every number.
fn nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// The one peer median: by selection, not a sort; for even counts the mean
/// of the middle pair. NaNs (a counter can arrive as one off the wire)
/// order [`nan_last`], so they shift the median, which is NaN only once
/// they reach the middle. It is what a stable sort in that order returns
/// but for the sign of a zero median (`0.0` and `-0.0` compare equal, and
/// a selection does not keep them in input order) or a NaN one, which
/// nothing reads: every reader takes the `abs` of it or of a difference
/// with it, or compares it with a floor that `-0.0` and `0.0` meet alike.
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

/// The columns a pass over the node rows gathers: eight values, one cache
/// line of a row, where a column a pass reads each line eight times.
const COLUMN_BLOCK: usize = 8;

/// Per-column medians across node rows, with scratch kept from one
/// evaluation to the next.
#[derive(Debug, Default)]
pub struct ColumnMedians {
    /// One block of columns, each in node order, one after another.
    cols: Vec<f64>,
    /// A column's copy, for a selection that leaves the column in order.
    copy: Vec<f64>,
    medians: Vec<f64>,
}

impl ColumnMedians {
    /// The median of every column of `rows`, `width` values each.
    pub fn of<'a>(
        &mut self,
        rows: impl Iterator<Item = &'a [f64]> + Clone,
        width: usize,
    ) -> &[f64] {
        self.medians.clear();
        for_each_column(&mut self.cols, rows, width, |_, col| {
            self.medians.push(select_median(col));
        });
        &self.medians
    }
}

/// Calls `f(d, column d)` for every column of `rows`, each gathered in
/// node order, [`COLUMN_BLOCK`] columns a pass over the rows.
fn for_each_column<'a>(
    cols: &mut Vec<f64>,
    rows: impl Iterator<Item = &'a [f64]> + Clone,
    width: usize,
    mut f: impl FnMut(usize, &mut [f64]),
) {
    let n = rows.clone().count();
    for start in (0..width).step_by(COLUMN_BLOCK) {
        let end = width.min(start + COLUMN_BLOCK);
        cols.resize((end - start) * n, 0.0);
        for (i, row) in rows.clone().enumerate() {
            for (col, &x) in cols.chunks_exact_mut(n).zip(&row[start..end]) {
                col[i] = x;
            }
        }
        (start..)
            .zip(cols.chunks_exact_mut(n))
            .for_each(|(d, col)| f(d, col));
    }
}

/// Component-wise peer baseline (median across node `rows`) and MAD
/// (median absolute deviation from that baseline) of `baseline.len()`
/// metrics a node. The medians are selected, `O(nodes)` per metric (see
/// `select_median` for why no output can tell them from sorted ones), each
/// over its column in node order.
pub fn peer_baseline_into<'a>(
    rows: impl Iterator<Item = &'a [f64]> + Clone,
    baseline: &mut [f64],
    mad: &mut [f64],
    medians: &mut ColumnMedians,
) {
    let copy = &mut medians.copy;
    for_each_column(&mut medians.cols, rows, baseline.len(), |d, col| {
        copy.clear();
        copy.extend_from_slice(col);
        baseline[d] = select_median(copy);
        col.iter_mut().for_each(|m| *m = (*m - baseline[d]).abs());
        mad[d] = select_median(col);
    });
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

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_core::time::Timestamp;

    #[test]
    fn decode_rejects_malformed_rows() {
        assert_eq!(
            frame_shape(&[2.0, 3.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            Ok((2, 3))
        );
        assert!(frame_shape(&[]).is_err());
        assert!(frame_shape(&[2.0]).is_err());
        assert!(frame_shape(&[2.5, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]).is_err());
        assert!(frame_shape(&[2.0, 2.0, 0.0]).is_err()); // short payload
        assert!(frame_shape(&[0.0, 2.0]).is_err()); // zero nodes
    }

    #[test]
    fn merge_concatenates_in_order() {
        // Two racks of one and two nodes, their frames arriving in either
        // order: the matrix is the slots' node rows in slot order.
        let frame = |t: u64, row: &[f64]| Sample::new(Timestamp::from_secs(t), row);
        let (a, b) = ([1.0, 2.0, 1.0, 2.0], [2.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut frames = PeerFrames::new("test", 2, 3);
        frames.push(0, &frame(7, &a)).unwrap();
        assert!(frames.pop().unwrap().is_none(), "rack 1 has not reported");
        frames.push(1, &frame(7, &b)).unwrap();
        frames.push(1, &frame(8, &b)).unwrap();
        frames.push(0, &frame(8, &a)).unwrap();
        for t in [7, 8] {
            let (at, width, rows) = frames.pop().unwrap().expect("both racks reported");
            assert_eq!((at, width), (t, 2));
            let want: [&[f64]; 3] = [&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]];
            assert!(rows.iter().eq(want), "{rows:?}");
        }
        // A rack changing shape; racks covering other than `nodes`; racks
        // of different widths.
        let err = frames.push(1, &frame(9, &a)).unwrap_err().to_string();
        assert!(err.contains("changed shape: 2x2 then 1x2"), "{err}");
        for (second, says) in [
            ([1.0, 2.0, 3.0, 4.0], "cover 2 nodes at t=1, expected 3"),
            ([2.0, 1.0, 3.0, 4.0], "are 2 and 1 wide at t=1"),
        ] {
            let mut frames = PeerFrames::new("test", 2, 3);
            frames.push(0, &frame(1, &a)).unwrap();
            frames.push(1, &frame(1, &second)).unwrap();
            let err = frames.pop().unwrap_err().to_string();
            assert!(err.contains(says), "{err}");
        }
    }

    /// The global stage holds a frame only until its consumer is done:
    /// once the popped rows are dropped, the pushing side holds the only
    /// reference to each frame again.
    #[test]
    fn popped_frames_are_released_with_their_rows() {
        let racks: Vec<Arc<[f64]>> = (0..3)
            .map(|r| Arc::from(&[1.0, 2.0, r as f64, 10.0 + r as f64][..]))
            .collect();
        let mut frames = PeerFrames::new("test", 3, 3);
        for (slot, frame) in racks.iter().enumerate() {
            let second = Sample::new(Timestamp::from_secs(4), Value::Vector(Arc::clone(frame)));
            frames.push(slot, &second).unwrap();
        }
        assert!(
            racks.iter().all(|f| Arc::strong_count(f) == 2),
            "held until aligned"
        );
        let (t, _, rows) = frames.pop().unwrap().expect("every slot reported");
        assert_eq!((t, rows.iter().count()), (4, 3));
        assert!(
            racks.iter().all(|f| Arc::strong_count(f) == 2),
            "lent to the rows"
        );
        drop(rows);
        for frame in &racks {
            assert_eq!(Arc::strong_count(frame), 1, "released after use");
        }
        assert!(frames.pop().unwrap().is_none());
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut v = [1.0, 100.0, 2.0];
        assert_eq!(select_median(&mut v), 2.0);
        let mut v = [1.0, 2.0, 3.0, 100.0];
        assert_eq!(select_median(&mut v), 2.5);
        let mut v = [7.0];
        assert_eq!(select_median(&mut v), 7.0);
    }

    #[test]
    fn median_sorts_nan_last_instead_of_panicking() {
        let mut v = [1.0, f64::NAN, 2.0];
        assert_eq!(select_median(&mut v), 2.0);
        let mut v = [f64::NAN, 1.0, 3.0, -f64::NAN, 2.0, 0.5];
        assert_eq!(select_median(&mut v), 2.5);
        assert!(v[4].is_nan() && v[5].is_nan(), "{v:?}");
        let mut v = [f64::NAN, 1.0];
        assert!(select_median(&mut v).is_nan());
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
