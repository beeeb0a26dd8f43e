//! MapReduce job and task models.
//!
//! A [`JobSpec`] describes the work a job will do (task counts and per-task
//! resource quantities); [`JobState`] tracks a submitted job's progress and
//! owns its tasks' transitions (launch, failure, completion, and the ban of
//! a source node that sends its finished maps back to be re-executed); a
//! [`RunningTask`] is one attempt executing on a slave, advancing through
//! its [`TaskPhase`]s as the node grants it resources.

use crate::types::{AttemptId, BlockId, JobId, TaskId, TaskKind};

/// The workload class a job belongs to — GridMix's five job types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Interactive sampling of a large dataset: I/O-heavy maps, tiny
    /// reduces.
    WebdataScan,
    /// Large sort of uncompressed web data: heavy shuffle and output.
    WebdataSort,
    /// Stream-style sort with lighter CPU.
    StreamSort,
    /// Java sort with heavier per-record CPU.
    JavaSort,
    /// Multi-stage query pipeline (three chained stages).
    MonsterQuery,
}

impl JobClass {
    /// All five classes, in a fixed order.
    pub const ALL: [JobClass; 5] = [
        JobClass::WebdataScan,
        JobClass::WebdataSort,
        JobClass::StreamSort,
        JobClass::JavaSort,
        JobClass::MonsterQuery,
    ];

    /// Human-readable GridMix-style name.
    pub fn name(self) -> &'static str {
        match self {
            JobClass::WebdataScan => "webdata_scan",
            JobClass::WebdataSort => "webdata_sort",
            JobClass::StreamSort => "stream_sort",
            JobClass::JavaSort => "java_sort",
            JobClass::MonsterQuery => "monster_query",
        }
    }
}

/// Per-map-task resource quantities, derived from the job class and input
/// size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapProfile {
    /// Input bytes read per map (one HDFS block).
    pub input_kb: f64,
    /// CPU core-seconds of computation per map.
    pub cpu_secs: f64,
    /// Map-output bytes written locally per map.
    pub output_kb: f64,
}

/// Per-reduce-task resource quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReduceProfile {
    /// Shuffle bytes this reduce pulls in total (across all maps).
    pub shuffle_kb: f64,
    /// CPU core-seconds for the sort/merge phase.
    pub sort_cpu_secs: f64,
    /// CPU core-seconds for the reduce function itself.
    pub reduce_cpu_secs: f64,
    /// Final output bytes written to HDFS (before replication).
    pub output_kb: f64,
}

/// Everything the jobtracker needs to know to run a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Assigned job id.
    pub id: JobId,
    /// Workload class.
    pub class: JobClass,
    /// Number of map tasks.
    pub maps: u32,
    /// Number of reduce tasks.
    pub reduces: u32,
    /// Per-map resource profile.
    pub map_profile: MapProfile,
    /// Per-reduce resource profile.
    pub reduce_profile: ReduceProfile,
}

/// A task phase and the work remaining in it.
///
/// Each phase demands exactly one class of resource; the node's per-tick
/// grant reduces `remaining` until the phase completes and the task moves
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskPhase {
    /// Map: read the input block (KB remaining; local disk or remote fetch).
    MapRead {
        /// KB still to read.
        remaining_kb: f64,
        /// Node hosting the replica being read (None = local).
        source: Option<usize>,
    },
    /// Map: compute (core-seconds remaining).
    MapCompute {
        /// Core-seconds still to burn.
        remaining_secs: f64,
    },
    /// Map: spill output to local disk (KB remaining).
    MapSpill {
        /// KB still to write.
        remaining_kb: f64,
    },
    /// Reduce: copy map outputs from peer nodes (KB remaining).
    ReduceCopy {
        /// KB still to fetch.
        remaining_kb: f64,
    },
    /// Reduce: merge/sort pulled data (core-seconds remaining).
    ReduceSort {
        /// Core-seconds still to burn.
        remaining_secs: f64,
    },
    /// Reduce: run the reduce function (core-seconds remaining).
    ReduceCompute {
        /// Core-seconds still to burn.
        remaining_secs: f64,
    },
    /// Reduce: write the final output to HDFS (KB remaining, replicated by
    /// the datanode pipeline).
    ReduceWrite {
        /// KB still to write.
        remaining_kb: f64,
    },
    /// The attempt has hung (fault injection): it holds its slot and burns
    /// `cpu` core-seconds per second, forever.
    Hung {
        /// CPU burned per second while hung.
        cpu: f64,
    },
}

/// One attempt executing on a slave node.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningTask {
    /// The attempt's identity.
    pub attempt: AttemptId,
    /// Current phase and remaining work.
    pub phase: TaskPhase,
    /// Seconds spent in the current phase (for fault triggers).
    pub phase_age: u64,
    /// Seconds since the attempt launched (for the task timeout).
    pub age: u64,
}

impl RunningTask {
    /// The task's kind (map/reduce).
    pub fn kind(&self) -> TaskKind {
        self.attempt.task.kind
    }
}

/// Scheduling status of a task within [`JobState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Not yet scheduled.
    Pending,
    /// Currently running.
    Running,
    /// Finished successfully.
    Done,
}

/// Progress bookkeeping for a submitted job.
#[derive(Debug, Clone)]
pub struct JobState {
    /// The job's specification.
    pub spec: JobSpec,
    /// Per-map status.
    pub map_status: Vec<TaskStatus>,
    /// Per-reduce status.
    pub reduce_status: Vec<TaskStatus>,
    /// Next attempt number per task (bumped on retries).
    pub next_attempt: std::collections::HashMap<TaskId, u32>,
    /// Map-output KB held on each node (indexed by node), available for
    /// shuffling.
    pub map_output_kb_by_node: Vec<f64>,
    /// Which node each completed map ran on (for fetch-stall re-execution).
    pub map_ran_on: Vec<Option<usize>>,
    /// Nodes this job refuses to schedule maps on or shuffle from
    /// (jobtracker blacklisting, see [`JobState::ban_source`]).
    pub banned_sources: Vec<bool>,
    /// Consecutive seconds each source node has starved this job's
    /// reduces.
    pub stall_secs: Vec<u32>,
    /// Task-attempt failures this job has suffered on each node (drives
    /// per-job tracker blacklisting, Hadoop's `mapred.max.tracker.failures`).
    pub failures_by_node: Vec<u32>,
    /// Nodes currently running an attempt of each task (more than one when
    /// a speculative duplicate is in flight), in task order.
    pub running_attempts: std::collections::BTreeMap<TaskId, Vec<usize>>,
    /// Completed map durations (sum, count) for straggler detection.
    pub map_durations: (f64, u32),
    /// Completion time, when finished.
    pub completed_at: Option<u64>,
    /// The job's input file: one HDFS block per map, in map order.
    pub(crate) input_blocks: Vec<BlockId>,
    /// The HDFS blocks its reduce attempts allocated for their output.
    pub(crate) output_blocks: Vec<BlockId>,
}

impl JobState {
    /// Creates bookkeeping for a freshly submitted job on a cluster with
    /// `n_nodes` slaves.
    pub fn new(spec: JobSpec, n_nodes: usize) -> Self {
        let maps = spec.maps as usize;
        let reduces = spec.reduces as usize;
        JobState {
            spec,
            map_status: vec![TaskStatus::Pending; maps],
            reduce_status: vec![TaskStatus::Pending; reduces],
            next_attempt: std::collections::HashMap::new(),
            map_output_kb_by_node: vec![0.0; n_nodes],
            map_ran_on: vec![None; maps],
            banned_sources: vec![false; n_nodes],
            stall_secs: vec![0; n_nodes],
            failures_by_node: vec![0; n_nodes],
            running_attempts: std::collections::BTreeMap::new(),
            map_durations: (0.0, 0),
            completed_at: None,
            input_blocks: Vec::new(),
            output_blocks: Vec::new(),
        }
    }

    /// Number of completed maps.
    pub fn maps_done(&self) -> usize {
        self.map_status
            .iter()
            .filter(|s| matches!(s, TaskStatus::Done))
            .count()
    }

    /// Number of completed reduces.
    pub fn reduces_done(&self) -> usize {
        self.reduce_status
            .iter()
            .filter(|s| matches!(s, TaskStatus::Done))
            .count()
    }

    /// Fraction of maps completed (1.0 when the job has no maps).
    pub fn map_fraction_done(&self) -> f64 {
        if self.map_status.is_empty() {
            1.0
        } else {
            self.maps_done() as f64 / self.map_status.len() as f64
        }
    }

    /// Whether every task has completed.
    pub fn is_complete(&self) -> bool {
        self.maps_done() == self.map_status.len() && self.reduces_done() == self.reduce_status.len()
    }

    /// Mean duration of completed maps, once one has completed.
    pub fn mean_map_duration(&self) -> Option<f64> {
        let (sum, count) = self.map_durations;
        (count > 0).then(|| sum / f64::from(count))
    }

    /// The status of `task`, which must be one of this job's.
    fn status_mut(&mut self, task: TaskId) -> &mut TaskStatus {
        let statuses = match task.kind {
            TaskKind::Map => &mut self.map_status,
            TaskKind::Reduce => &mut self.reduce_status,
        };
        &mut statuses[task.index as usize]
    }

    /// Allocates the next attempt id for `task`.
    pub fn new_attempt(&mut self, task: TaskId) -> AttemptId {
        let n = self.next_attempt.entry(task).or_insert(0);
        let attempt = AttemptId { task, attempt: *n };
        *n += 1;
        attempt
    }

    /// Starts an attempt of `task` on `node`: allocates its attempt id and
    /// marks the task running there.
    pub fn launch(&mut self, task: TaskId, node: usize) -> AttemptId {
        let attempt = self.new_attempt(task);
        *self.status_mut(task) = TaskStatus::Running;
        self.running_attempts.entry(task).or_default().push(node);
        attempt
    }

    /// Drops `task`'s failed attempt on `node`; the task goes back to
    /// `Pending` unless a sibling (speculative) attempt still runs.
    pub fn attempt_failed(&mut self, task: TaskId, node: usize) {
        if let Some(nodes) = self.running_attempts.get_mut(&task) {
            nodes.retain(|&x| x != node);
            if !nodes.is_empty() {
                return;
            }
            self.running_attempts.remove(&task);
        }
        *self.status_mut(task) = TaskStatus::Pending;
    }

    /// Marks `task` done by its attempt on `node`, which ran `duration`
    /// seconds; a map's output is then held on `node`. Returns whether a
    /// sibling attempt still runs, to be killed: until then the task stays
    /// in `running_attempts`.
    pub fn attempt_done(&mut self, task: TaskId, node: usize, duration: f64) -> bool {
        *self.status_mut(task) = TaskStatus::Done;
        if task.kind == TaskKind::Map {
            self.map_ran_on[task.index as usize] = Some(node);
            self.map_output_kb_by_node[node] += self.spec.map_profile.output_kb;
            self.map_durations.0 += duration;
            self.map_durations.1 += 1;
        }
        let had_siblings = self
            .running_attempts
            .get(&task)
            .is_some_and(|nodes| nodes.len() > 1);
        if !had_siblings {
            self.running_attempts.remove(&task);
        }
        had_siblings
    }

    /// Bans `node` for this job (jobtracker blacklisting): no map of the
    /// job is scheduled on it and no reduce pulls from it. The maps that
    /// finished there go back to `Pending` to be re-executed, and the
    /// output they left there is forgotten. A node already banned is left
    /// as it is.
    pub fn ban_source(&mut self, node: usize) {
        if std::mem::replace(&mut self.banned_sources[node], true) {
            return;
        }
        self.map_output_kb_by_node[node] = 0.0;
        for (status, ran) in self.map_status.iter_mut().zip(&mut self.map_ran_on) {
            if *ran == Some(node) && *status == TaskStatus::Done {
                *status = TaskStatus::Pending;
                *ran = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::JobId;

    fn spec() -> JobSpec {
        JobSpec {
            id: JobId(1),
            class: JobClass::WebdataSort,
            maps: 4,
            reduces: 2,
            map_profile: MapProfile {
                input_kb: 16_384.0,
                cpu_secs: 10.0,
                output_kb: 8_192.0,
            },
            reduce_profile: ReduceProfile {
                shuffle_kb: 16_384.0,
                sort_cpu_secs: 5.0,
                reduce_cpu_secs: 5.0,
                output_kb: 16_384.0,
            },
        }
    }

    #[test]
    fn job_state_progress_accounting() {
        let mut job = JobState::new(spec(), 3);
        assert_eq!(job.maps_done(), 0);
        assert_eq!(job.map_fraction_done(), 0.0);
        assert!(!job.is_complete());

        job.map_status[0] = TaskStatus::Done;
        job.map_status[1] = TaskStatus::Done;
        assert_eq!(job.map_fraction_done(), 0.5);

        for s in &mut job.map_status {
            *s = TaskStatus::Done;
        }
        for s in &mut job.reduce_status {
            *s = TaskStatus::Done;
        }
        assert!(job.is_complete());
    }

    #[test]
    fn attempt_numbers_increment_per_task() {
        let mut job = JobState::new(spec(), 3);
        let t = TaskId {
            job: JobId(1),
            kind: TaskKind::Reduce,
            index: 0,
        };
        assert_eq!(job.new_attempt(t).attempt, 0);
        assert_eq!(job.new_attempt(t).attempt, 1);
        let other = TaskId {
            job: JobId(1),
            kind: TaskKind::Reduce,
            index: 1,
        };
        assert_eq!(job.new_attempt(other).attempt, 0);
    }

    #[test]
    fn empty_map_set_counts_as_done() {
        let mut s = spec();
        s.maps = 0;
        let job = JobState::new(s, 3);
        assert_eq!(job.map_fraction_done(), 1.0);
    }

    #[test]
    fn banning_a_source_reruns_only_the_maps_done_there() {
        let mut job = JobState::new(spec(), 3);
        let map = |index| TaskId {
            job: JobId(1),
            kind: TaskKind::Map,
            index,
        };
        // Maps 0 and 2 finish on node 1, map 1 on node 2; map 3 still runs
        // on node 1.
        for (index, node) in [(0, 1), (1, 2), (2, 1), (3, 1)] {
            job.launch(map(index), node);
        }
        for (index, node) in [(0, 1), (1, 2), (2, 1)] {
            assert!(!job.attempt_done(map(index), node, 10.0));
        }
        assert_eq!(job.map_output_kb_by_node, [0.0, 16_384.0, 8_192.0]);

        job.ban_source(1);
        assert!(job.banned_sources[1]);
        assert_eq!(
            job.map_status,
            [
                TaskStatus::Pending,
                TaskStatus::Done,
                TaskStatus::Pending,
                TaskStatus::Running
            ]
        );
        assert_eq!(job.map_ran_on, [None, Some(2), None, None]);
        assert_eq!(job.map_output_kb_by_node, [0.0, 0.0, 8_192.0]);

        // A second ban of the same node is no ban: map 3, finishing there
        // after the first, keeps its output.
        assert!(!job.attempt_done(map(3), 1, 10.0));
        job.ban_source(1);
        assert_eq!(job.map_status[3], TaskStatus::Done);
        assert_eq!(job.map_output_kb_by_node, [0.0, 8_192.0, 8_192.0]);
    }
}
