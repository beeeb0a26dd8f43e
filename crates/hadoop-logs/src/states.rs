//! The white-box state vocabulary.
//!
//! The paper (§4.4) views each Hadoop daemon thread as a deterministic
//! finite automaton whose states are "high-level modes of execution", with
//! log entries marking state-entrance and state-exit events. This module
//! fixes the state vocabulary for the two slave daemons:
//!
//! * TaskTracker: `MapTask`, `ReduceTask` (overall), plus the reduce
//!   sub-phases `ReduceCopy`, `ReduceSort`, `ReduceReducer`;
//! * DataNode: `ReadBlock`, `WriteBlock`, and the instant `DeleteBlock`.
//!
//! A [`StateVector`] gives, for one node and one second, the number of
//! simultaneously active instances of each state (instant states count
//! occurrences within the second).

use std::fmt;
use std::ops::{Index, IndexMut};

/// A high-level Hadoop execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HadoopState {
    /// A map task attempt is executing (TaskTracker).
    MapTask,
    /// A reduce task attempt is executing, any phase (TaskTracker).
    ReduceTask,
    /// A reduce attempt is copying map outputs (TaskTracker).
    ReduceCopy,
    /// A reduce attempt is merging/sorting (TaskTracker).
    ReduceSort,
    /// A reduce attempt is running the user reduce function (TaskTracker).
    ReduceReducer,
    /// A task attempt failed — an *instant* event (TaskTracker).
    TaskFailed,
    /// The datanode is serving a block to a reader (DataNode).
    ReadBlock,
    /// The datanode is receiving a block — HDFS write pipeline (DataNode).
    WriteBlock,
    /// The datanode deleted a block — an *instant* state (DataNode).
    DeleteBlock,
}

impl HadoopState {
    /// All states, in vector order.
    pub const ALL: [HadoopState; 9] = [
        HadoopState::MapTask,
        HadoopState::ReduceTask,
        HadoopState::ReduceCopy,
        HadoopState::ReduceSort,
        HadoopState::ReduceReducer,
        HadoopState::TaskFailed,
        HadoopState::ReadBlock,
        HadoopState::WriteBlock,
        HadoopState::DeleteBlock,
    ];

    /// The TaskTracker-owned states, in vector order.
    pub const TASKTRACKER: [HadoopState; 6] = [
        HadoopState::MapTask,
        HadoopState::ReduceTask,
        HadoopState::ReduceCopy,
        HadoopState::ReduceSort,
        HadoopState::ReduceReducer,
        HadoopState::TaskFailed,
    ];

    /// The DataNode-owned states, in vector order.
    pub const DATANODE: [HadoopState; 3] = [
        HadoopState::ReadBlock,
        HadoopState::WriteBlock,
        HadoopState::DeleteBlock,
    ];

    /// The state's index in [`StateVector`] order.
    pub fn index(self) -> usize {
        HadoopState::ALL
            .iter()
            .position(|s| *s == self)
            .expect("every state is in ALL")
    }

    /// Short metric-style name.
    pub fn name(self) -> &'static str {
        match self {
            HadoopState::MapTask => "MapTask",
            HadoopState::ReduceTask => "ReduceTask",
            HadoopState::ReduceCopy => "ReduceCopy",
            HadoopState::ReduceSort => "ReduceSort",
            HadoopState::ReduceReducer => "ReduceReducer",
            HadoopState::TaskFailed => "TaskFailed",
            HadoopState::ReadBlock => "ReadBlock",
            HadoopState::WriteBlock => "WriteBlock",
            HadoopState::DeleteBlock => "DeleteBlock",
        }
    }
}

impl fmt::Display for HadoopState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-second counts of simultaneously-executing instances of each state —
/// the paper's "vector of states for each time instance".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StateVector {
    counts: [f64; 9],
}

impl StateVector {
    /// The zero vector.
    pub fn zero() -> Self {
        StateVector::default()
    }

    /// The raw counts in [`HadoopState::ALL`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.counts
    }

    /// Sum of all counts (total concurrent activity).
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }
}

impl Index<HadoopState> for StateVector {
    type Output = f64;

    fn index(&self, s: HadoopState) -> &f64 {
        &self.counts[s.index()]
    }
}

impl IndexMut<HadoopState> for StateVector {
    fn index_mut(&mut self, s: HadoopState) -> &mut f64 {
        &mut self.counts[s.index()]
    }
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, s) in HadoopState::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}: {}", s.name(), self.counts[i])?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_consistent_with_all_order() {
        for (i, s) in HadoopState::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn daemon_partition_is_total_and_disjoint() {
        for s in HadoopState::ALL {
            assert_eq!(
                HadoopState::TASKTRACKER.contains(&s),
                !HadoopState::DATANODE.contains(&s),
                "{s} must belong to exactly one daemon"
            );
        }
        assert_eq!(
            HadoopState::TASKTRACKER.len() + HadoopState::DATANODE.len(),
            HadoopState::ALL.len()
        );
    }

    #[test]
    fn vector_indexing_and_slices() {
        let mut v = StateVector::zero();
        v[HadoopState::MapTask] = 3.0;
        v[HadoopState::ReadBlock] = 2.0;
        assert_eq!(v[HadoopState::MapTask], 3.0);
        assert_eq!(v.total(), 5.0);
        assert_eq!(v.as_slice(), &[3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn display_names_all_states() {
        let s = StateVector::zero().to_string();
        for state in HadoopState::ALL {
            assert!(s.contains(state.name()), "missing {state}");
        }
    }
}
