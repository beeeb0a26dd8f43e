//! Native-format Hadoop log emission.
//!
//! The white-box side of ASDF parses the logs Hadoop writes *natively* — no
//! instrumentation. The simulator therefore emits TaskTracker and DataNode
//! log lines in the Hadoop 0.18 format (compare the paper's Figure 5
//! snippet: `LaunchTaskAction: task_0001_m_000096_0`), and the
//! `hadoop-logs` crate parses them back with no knowledge of the simulator.

use std::collections::VecDeque;
use std::fmt;

use crate::types::{AttemptId, BlockId};

/// The daemon a log line belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogSource {
    /// The per-slave MapReduce daemon (`TaskTracker` + task JVM lines).
    TaskTracker,
    /// The per-slave HDFS daemon.
    DataNode,
}

/// A loggable cluster event.
///
/// Each variant corresponds to a state-entrance, state-exit, or instant
/// event in the white-box DFA view (paper §4.4).
#[derive(Debug, Clone, PartialEq)]
pub enum LogEvent {
    /// TaskTracker launched a task attempt (map or reduce start).
    LaunchTask(AttemptId),
    /// A task attempt completed successfully (map or reduce end).
    TaskDone(AttemptId),
    /// A reduce attempt began its shuffle/copy phase.
    ReduceCopyStart(AttemptId),
    /// A reduce attempt finished copying.
    ReduceCopyEnd(AttemptId),
    /// A reduce attempt began its merge/sort phase.
    ReduceSortStart(AttemptId),
    /// A reduce attempt finished sorting and began reducing.
    ReduceSortEnd(AttemptId),
    /// A task attempt failed (e.g. HADOOP-1152's rename failure).
    TaskFailed {
        /// The failing attempt.
        attempt: AttemptId,
        /// The error text to log.
        reason: &'static str,
    },
    /// A task attempt was killed by the jobtracker (e.g. a speculative
    /// duplicate whose sibling finished first) — not a failure.
    TaskKilled(AttemptId),
    /// DataNode started serving a block to a reader.
    ServeBlockStart {
        /// The block being read.
        block: BlockId,
        /// The reader's address.
        dest: String,
    },
    /// DataNode finished serving a block.
    ServeBlockEnd {
        /// The block read.
        block: BlockId,
    },
    /// DataNode started receiving a block (HDFS write pipeline).
    ReceiveBlockStart {
        /// The block being written.
        block: BlockId,
        /// The writer's address.
        src: String,
    },
    /// DataNode finished receiving a block.
    ReceiveBlockEnd {
        /// The block written.
        block: BlockId,
        /// Final size in bytes.
        size: u64,
    },
    /// DataNode deleted a block (an *instant* event in the DFA view).
    DeleteBlock {
        /// The deleted block.
        block: BlockId,
    },
}

impl LogEvent {
    /// Which daemon's log this event belongs in.
    pub fn source(&self) -> LogSource {
        use LogEvent::*;
        match self {
            LaunchTask(_)
            | TaskDone(_)
            | ReduceCopyStart(_)
            | ReduceCopyEnd(_)
            | ReduceSortStart(_)
            | ReduceSortEnd(_)
            | TaskFailed { .. }
            | TaskKilled(_) => LogSource::TaskTracker,
            ServeBlockStart { .. }
            | ServeBlockEnd { .. }
            | ReceiveBlockStart { .. }
            | ReceiveBlockEnd { .. }
            | DeleteBlock { .. } => LogSource::DataNode,
        }
    }

    /// Renders the event as a Hadoop 0.18-format log line at `now` cluster
    /// seconds.
    pub fn render(&self, now: u64) -> String {
        let ts = Wallclock(now);
        use LogEvent::*;
        match self {
            LaunchTask(a) => format!(
                "{ts} INFO org.apache.hadoop.mapred.TaskTracker: LaunchTaskAction: {a}"
            ),
            TaskDone(a) => format!(
                "{ts} INFO org.apache.hadoop.mapred.TaskTracker: Task {a} is done."
            ),
            ReduceCopyStart(a) => format!(
                "{ts} INFO org.apache.hadoop.mapred.ReduceTask: {a} Copying map outputs"
            ),
            ReduceCopyEnd(a) => format!(
                "{ts} INFO org.apache.hadoop.mapred.ReduceTask: {a} Copying of all map outputs complete"
            ),
            ReduceSortStart(a) => format!(
                "{ts} INFO org.apache.hadoop.mapred.ReduceTask: {a} Merging map outputs"
            ),
            ReduceSortEnd(a) => format!(
                "{ts} INFO org.apache.hadoop.mapred.ReduceTask: {a} Merge complete, reducing"
            ),
            TaskFailed { attempt, reason } => format!(
                "{ts} WARN org.apache.hadoop.mapred.TaskRunner: {attempt} {reason}"
            ),
            TaskKilled(a) => format!(
                "{ts} INFO org.apache.hadoop.mapred.TaskTracker: Task {a} was killed."
            ),
            ServeBlockStart { block, dest } => format!(
                "{ts} INFO org.apache.hadoop.dfs.DataNode: Serving block {block} to {dest}"
            ),
            ServeBlockEnd { block } => format!(
                "{ts} INFO org.apache.hadoop.dfs.DataNode: Served block {block}"
            ),
            ReceiveBlockStart { block, src } => format!(
                "{ts} INFO org.apache.hadoop.dfs.DataNode: Receiving block {block} src: {src}"
            ),
            ReceiveBlockEnd { block, size } => format!(
                "{ts} INFO org.apache.hadoop.dfs.DataNode: Received block {block} of size {size}"
            ),
            DeleteBlock { block } => format!(
                "{ts} INFO org.apache.hadoop.dfs.DataNode: Deleting block {block} file dfs/data/current/{block}"
            ),
        }
    }
}

/// Renders cluster seconds as a Hadoop log timestamp
/// (`2008-04-15 14:23:15,324` — date fixed, milliseconds zero: the
/// framework's clock resolution is one second).
struct Wallclock(u64);

impl fmt::Display for Wallclock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Experiment epoch: 2008-04-15 14:00:00 (matches the paper's
        // Figure 5 excerpt date).
        let total = self.0;
        let (h, rem) = (total / 3600, total % 3600);
        let (m, s) = (rem / 60, rem % 60);
        // Runs are far shorter than 10 hours; roll over defensively anyway.
        let hour = 14 + h % 10;
        write!(f, "2008-04-15 {hour:02}:{m:02}:{s:02},000")
    }
}

/// Lines a log keeps while nobody drains it. A daemon's log on disk is a
/// rotated file, not an ever-growing one: past this many un-drained lines
/// the oldest is dropped for each new one. A collector tailing the log
/// drains it every second and never comes near the cap (the busiest log of
/// a 5-node GridMix cluster writes about 1000 lines an hour); deployments
/// that attach no tailer (rank-only, black-box-only) stop growing here.
pub const LOG_RETAIN_LINES: usize = 4096;

/// A per-node pair of log buffers that accumulate rendered lines until a
/// collector drains them — standing in for the daemons' log files on disk,
/// each bounded at [`LOG_RETAIN_LINES`] like a rotated file.
#[derive(Debug, Clone, Default)]
pub struct NodeLogs {
    tasktracker: VecDeque<String>,
    datanode: VecDeque<String>,
    dropped: usize,
}

impl NodeLogs {
    /// Creates empty buffers.
    pub fn new() -> Self {
        NodeLogs::default()
    }

    /// Appends `event` rendered at `now`, dropping the log's oldest
    /// un-drained line first if it already holds [`LOG_RETAIN_LINES`].
    pub fn record(&mut self, now: u64, event: &LogEvent) {
        let log = match event.source() {
            LogSource::TaskTracker => &mut self.tasktracker,
            LogSource::DataNode => &mut self.datanode,
        };
        if log.len() == LOG_RETAIN_LINES {
            log.pop_front();
            self.dropped += 1;
        }
        log.push_back(event.render(now));
    }

    /// Drains the TaskTracker log lines accumulated since the last drain.
    pub fn drain_tasktracker(&mut self) -> Vec<String> {
        std::mem::take(&mut self.tasktracker).into()
    }

    /// Drains the DataNode log lines accumulated since the last drain.
    pub fn drain_datanode(&mut self) -> Vec<String> {
        std::mem::take(&mut self.datanode).into()
    }

    /// Number of undrained lines (both logs).
    pub fn pending(&self) -> usize {
        self.tasktracker.len() + self.datanode.len()
    }

    /// Lines dropped un-drained, oldest first, because their log was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{JobId, TaskId, TaskKind};

    fn attempt() -> AttemptId {
        AttemptId {
            task: TaskId {
                job: JobId(1),
                kind: TaskKind::Map,
                index: 96,
            },
            attempt: 0,
        }
    }

    #[test]
    fn launch_line_matches_figure_5() {
        let line = LogEvent::LaunchTask(attempt()).render(23 * 60 + 15);
        assert_eq!(
            line,
            "2008-04-15 14:23:15,000 INFO org.apache.hadoop.mapred.TaskTracker: \
             LaunchTaskAction: task_0001_m_000096_0"
        );
    }

    #[test]
    fn events_route_to_the_right_log() {
        assert_eq!(
            LogEvent::LaunchTask(attempt()).source(),
            LogSource::TaskTracker
        );
        assert_eq!(
            LogEvent::DeleteBlock { block: BlockId(1) }.source(),
            LogSource::DataNode
        );
        assert_eq!(
            LogEvent::ReceiveBlockStart {
                block: BlockId(1),
                src: "/10.1.0.4".into()
            }
            .source(),
            LogSource::DataNode
        );
    }

    #[test]
    fn timestamps_advance_with_cluster_time() {
        let e = LogEvent::TaskDone(attempt());
        assert!(e.render(0).starts_with("2008-04-15 14:00:00,000"));
        assert!(e.render(3661).starts_with("2008-04-15 15:01:01,000"));
    }

    #[test]
    fn node_logs_accumulate_and_drain() {
        let mut logs = NodeLogs::new();
        logs.record(1, &LogEvent::LaunchTask(attempt()));
        logs.record(2, &LogEvent::DeleteBlock { block: BlockId(7) });
        assert_eq!(logs.pending(), 2);
        let tt = logs.drain_tasktracker();
        assert_eq!(tt.len(), 1);
        assert!(tt[0].contains("LaunchTaskAction"));
        assert_eq!(logs.pending(), 1);
        let dn = logs.drain_datanode();
        assert_eq!(dn.len(), 1);
        assert!(dn[0].contains("Deleting block blk_7"));
        assert_eq!(logs.pending(), 0);
        assert!(logs.drain_tasktracker().is_empty());
    }

    #[test]
    fn an_undrained_log_keeps_the_newest_lines_and_counts_the_rest() {
        let mut logs = NodeLogs::new();
        let extra = 10;
        for t in 0..(LOG_RETAIN_LINES + extra) as u64 {
            logs.record(t, &LogEvent::LaunchTask(attempt()));
        }
        // The other log is bounded on its own.
        logs.record(0, &LogEvent::DeleteBlock { block: BlockId(7) });
        assert_eq!(logs.pending(), LOG_RETAIN_LINES + 1);
        assert_eq!(logs.dropped(), extra);
        let tt = logs.drain_tasktracker();
        assert_eq!(tt.len(), LOG_RETAIN_LINES);
        let oldest_kept = LogEvent::LaunchTask(attempt()).render(extra as u64);
        assert_eq!(tt[0], oldest_kept);
        // Draining makes room again: nothing more is dropped.
        logs.record(0, &LogEvent::LaunchTask(attempt()));
        assert_eq!((logs.pending(), logs.dropped()), (2, extra));
    }

    #[test]
    fn every_event_renders_with_severity_and_class() {
        let a = attempt();
        let events = [
            LogEvent::LaunchTask(a),
            LogEvent::TaskDone(a),
            LogEvent::ReduceCopyStart(a),
            LogEvent::ReduceCopyEnd(a),
            LogEvent::ReduceSortStart(a),
            LogEvent::ReduceSortEnd(a),
            LogEvent::TaskFailed {
                attempt: a,
                reason: "Failed to rename map output",
            },
            LogEvent::ServeBlockStart {
                block: BlockId(1),
                dest: "/10.1.0.9".into(),
            },
            LogEvent::ServeBlockEnd { block: BlockId(1) },
            LogEvent::ReceiveBlockStart {
                block: BlockId(2),
                src: "/10.1.0.3".into(),
            },
            LogEvent::ReceiveBlockEnd {
                block: BlockId(2),
                size: 67_108_864,
            },
            LogEvent::DeleteBlock { block: BlockId(3) },
        ];
        for e in &events {
            let line = e.render(10);
            assert!(
                line.contains(" INFO ") || line.contains(" WARN "),
                "line lacks severity: {line}"
            );
            assert!(
                line.contains("org.apache.hadoop."),
                "line lacks class: {line}"
            );
        }
    }
}
