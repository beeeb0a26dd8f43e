//! Cross-node timestamp alignment.
//!
//! The paper (§3.7): "the data analysis must operate on data at the same
//! time points, \[so\] cross-instance synchronization is needed within the
//! `hadoop_log` module ... The module waits for all nodes to reveal data
//! with the same timestamp before updating its outputs, or, if one or more
//! nodes does not contain data for a particular timestamp, this data is
//! dropped."
//!
//! [`Aligner`] implements exactly that: per-node time-indexed buffers, a
//! pop operation that releases a row only when *every* node has
//! contributed that timestamp, and drop semantics for timestamps that some
//! node skipped. A node that falls silent costs the others at most
//! [`MAX_BACKLOG`] held values each: past it, whenever no timestamp is
//! complete, a node's oldest ones are given up.

use std::collections::VecDeque;

/// The most values one node's buffer keeps while no timestamp is
/// complete: [`Aligner::pop_aligned`] finding none drops each node's
/// oldest values past it, all incomplete, into [`Aligner::dropped`]. The
/// streams of an fpt-core DAG all advance with the one engine clock, a
/// tick or a window apart; this many seconds (or windows) of lag is a
/// stream that stopped.
pub const MAX_BACKLOG: usize = 256;

/// Aligns per-node time series so downstream peer comparison always sees
/// one row per timestamp with a value from every node.
///
/// # Examples
///
/// ```
/// use hadoop_logs::sync::Aligner;
///
/// let mut a: Aligner<f64> = Aligner::new(2);
/// a.push(0, 10, 1.0);
/// assert!(a.pop_aligned().is_none()); // node 1 hasn't reported t=10 yet
/// a.push(1, 10, 2.0);
/// assert_eq!(a.pop_aligned(), Some((10, vec![1.0, 2.0])));
/// ```
#[derive(Debug, Clone)]
pub struct Aligner<T> {
    /// One buffer per stream, strictly ascending in `t`. Streams report in
    /// time order almost always, so a push is a `push_back` and a release
    /// a `pop_front`: nothing is allocated per value.
    buffers: Vec<VecDeque<(u64, T)>>,
    /// Timestamps at or before this are gone (released or dropped).
    released_through: Option<u64>,
    dropped: u64,
}

/// Index of the first buffered entry at or after `t`.
fn lower_bound<T>(buf: &VecDeque<(u64, T)>, t: u64) -> usize {
    match buf.front() {
        Some(&(first, _)) if first >= t => 0,
        _ => buf.partition_point(|&(u, _)| u < t),
    }
}

impl<T: Clone> Aligner<T> {
    /// Creates an aligner for `n_nodes` input streams.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "aligner needs at least one stream");
        Aligner {
            buffers: vec![VecDeque::new(); n_nodes],
            released_through: None,
            dropped: 0,
        }
    }

    /// Number of aligned streams.
    pub fn n_nodes(&self) -> usize {
        self.buffers.len()
    }

    /// Records that `node` observed `value` at time `t`; a second value
    /// for the same `(node, t)` replaces the first.
    ///
    /// Values at timestamps already released or dropped are discarded (a
    /// straggler that shows up after its row was given up on).
    pub fn push(&mut self, node: usize, t: u64, value: T) {
        if let Some(thru) = self.released_through {
            if t <= thru {
                self.dropped += 1;
                return;
            }
        }
        let buf = &mut self.buffers[node];
        if buf.back().is_none_or(|&(last, _)| last < t) {
            buf.push_back((t, value));
            return;
        }
        let at = lower_bound(buf, t);
        if buf[at].0 == t {
            buf[at].1 = value;
        } else {
            buf.insert(at, (t, value));
        }
    }

    /// Releases the earliest timestamp every node has contributed, dropping
    /// any earlier, incomplete timestamps on the way (some node skipped
    /// them, so they can never complete).
    ///
    /// Returns `(t, values-in-node-order)` or `None` when no timestamp is
    /// complete yet; then every buffered value is incomplete, and each
    /// node's oldest past [`MAX_BACKLOG`] are dropped.
    pub fn pop_aligned(&mut self) -> Option<(u64, Vec<T>)> {
        let Some(candidate) = self.earliest_complete() else {
            for buf in &mut self.buffers {
                let excess = buf.len().saturating_sub(MAX_BACKLOG);
                buf.drain(..excess);
                self.dropped += excess as u64;
            }
            return None;
        };
        // Release: extract values at `candidate`, drop everything earlier.
        let mut row = Vec::with_capacity(self.buffers.len());
        for buf in &mut self.buffers {
            // The stale rows were dropped because a peer skipped them.
            let stale = lower_bound(buf, candidate);
            buf.drain(..stale);
            self.dropped += stale as u64;
            let (_, value) = buf.pop_front().expect("candidate complete");
            row.push(value);
        }
        self.released_through = Some(candidate);
        Some((candidate, row))
    }

    /// The earliest timestamp every node has contributed, if any.
    fn earliest_complete(&self) -> Option<u64> {
        // The earliest candidate that *could* be complete is the maximum
        // over nodes of each node's earliest buffered timestamp.
        let mut candidate: u64 = 0;
        for buf in &self.buffers {
            let &(first, _) = buf.front()?; // any empty buffer ⇒ nothing complete
            candidate = candidate.max(first);
        }
        // Walk forward from the candidate until a timestamp is complete:
        // a node may be missing `candidate` even though it has later data.
        loop {
            let mut next_candidate = candidate;
            for buf in &self.buffers {
                // The node's first timestamp at or after the candidate;
                // none ⇒ the node has no data ≥ candidate yet.
                let &(t, _) = buf.get(lower_bound(buf, candidate))?;
                next_candidate = next_candidate.max(t);
            }
            if next_candidate == candidate {
                return Some(candidate);
            }
            candidate = next_candidate;
        }
    }

    /// Pops every complete row currently available.
    pub fn drain_aligned(&mut self) -> Vec<(u64, Vec<T>)> {
        let mut out = Vec::new();
        while let Some(row) = self.pop_aligned() {
            out.push(row);
        }
        out
    }

    /// Number of per-node values discarded because their timestamp was
    /// incomplete (matches the paper's drop-on-missing semantics).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total buffered values awaiting alignment.
    pub fn pending(&self) -> usize {
        self.buffers.iter().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_release_only_when_all_nodes_report() {
        let mut a: Aligner<i32> = Aligner::new(3);
        a.push(0, 5, 10);
        a.push(1, 5, 20);
        assert_eq!(a.pop_aligned(), None);
        a.push(2, 5, 30);
        assert_eq!(a.pop_aligned(), Some((5, vec![10, 20, 30])));
        assert_eq!(a.pop_aligned(), None);
    }

    #[test]
    fn skipped_timestamps_are_dropped() {
        let mut a: Aligner<i32> = Aligner::new(2);
        // Node 0 reports t=1,2,3; node 1 skips t=1,2 and reports t=3.
        a.push(0, 1, 1);
        a.push(0, 2, 2);
        a.push(0, 3, 3);
        a.push(1, 3, 30);
        assert_eq!(a.pop_aligned(), Some((3, vec![3, 30])));
        assert_eq!(a.dropped(), 2, "node 0's t=1,2 were dropped");
    }

    #[test]
    fn stragglers_after_release_are_discarded() {
        let mut a: Aligner<i32> = Aligner::new(2);
        a.push(0, 10, 1);
        a.push(1, 10, 2);
        assert!(a.pop_aligned().is_some());
        a.push(0, 9, 99); // too late
        a.push(1, 9, 99);
        assert_eq!(a.pop_aligned(), None);
        assert_eq!(a.dropped(), 2);
    }

    #[test]
    fn interleaved_progress_releases_in_order() {
        let mut a: Aligner<i32> = Aligner::new(2);
        for t in 0..5 {
            a.push(0, t, t as i32);
        }
        for t in 0..5 {
            a.push(1, t, 10 + t as i32);
        }
        let rows = a.drain_aligned();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], (0, vec![0, 10]));
        assert_eq!(rows[4], (4, vec![4, 14]));
        assert_eq!(a.pending(), 0);
        assert_eq!(a.dropped(), 0);
    }

    #[test]
    fn candidate_walks_forward_over_mutual_gaps() {
        let mut a: Aligner<i32> = Aligner::new(2);
        // Node 0 has {1, 4}; node 1 has {2, 4}: only 4 is mutual.
        a.push(0, 1, 0);
        a.push(0, 4, 40);
        a.push(1, 2, 0);
        a.push(1, 4, 41);
        assert_eq!(a.pop_aligned(), Some((4, vec![40, 41])));
        assert_eq!(a.dropped(), 2);
    }

    #[test]
    fn a_silent_stream_holds_the_others_to_the_backlog_cap() {
        // Node 2 is silent for 1,000 seconds: after each pop nodes 0 and 1
        // hold at most the cap, giving up their oldest seconds as they go.
        let mut a: Aligner<u64> = Aligner::new(3);
        for t in 0..1_000 {
            a.push(0, t, t);
            a.push(1, t, t);
            assert_eq!(a.pop_aligned(), None);
            assert!(a.pending() <= 2 * MAX_BACKLOG, "t={t}: {}", a.pending());
        }
        assert_eq!(a.pending(), 2 * MAX_BACKLOG);
        assert_eq!(a.dropped(), 2 * (1_000 - MAX_BACKLOG as u64));
        // Node 2 comes back: alignment resumes at its first second, and the
        // seconds it never sent are dropped on the way.
        for t in 1_000..1_003 {
            for node in 0..3 {
                a.push(node, t, t);
            }
        }
        let rows = a.drain_aligned();
        let seconds: Vec<u64> = rows.iter().map(|(t, _)| *t).collect();
        assert_eq!(seconds, [1_000, 1_001, 1_002]);
        assert_eq!(rows[0].1, [1_000; 3]);
        assert_eq!((a.pending(), a.dropped()), (0, 2 * 1_000));
    }

    #[test]
    fn a_backlog_of_complete_timestamps_is_kept_whole() {
        // More than the cap pushed before the first pop, every timestamp
        // complete: all of them are released, none dropped.
        let mut a: Aligner<u64> = Aligner::new(2);
        let n = 3 * MAX_BACKLOG as u64;
        for node in 0..2 {
            for t in 0..n {
                a.push(node, t, t);
            }
        }
        assert_eq!(a.drain_aligned().len() as u64, n);
        assert_eq!(a.dropped(), 0);
    }

    #[test]
    fn single_stream_degenerates_to_passthrough() {
        let mut a: Aligner<&str> = Aligner::new(1);
        a.push(0, 7, "x");
        assert_eq!(a.pop_aligned(), Some((7, vec!["x"])));
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_panics() {
        let _: Aligner<i32> = Aligner::new(0);
    }
}
