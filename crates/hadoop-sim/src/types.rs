//! Identifiers and naming conventions matching Hadoop 0.18.
//!
//! Task attempts are named `task_<job>_<m|r>_<index>_<attempt>`, e.g.
//! `task_0001_m_000096_0` — the exact format that appears in TaskTracker
//! logs (paper Figure 5) and that the white-box log parser recognizes.

use std::fmt;
use std::str::FromStr;

/// A job identifier (1-based submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}", self.0)
    }
}

/// Map or reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TaskKind {
    /// A map task (`m` in attempt names).
    Map,
    /// A reduce task (`r` in attempt names).
    Reduce,
}

impl TaskKind {
    /// The single-letter code used in attempt names.
    pub fn code(self) -> char {
        match self {
            TaskKind::Map => 'm',
            TaskKind::Reduce => 'r',
        }
    }
}

/// A task within a job: kind plus per-kind index. Tasks order by job,
/// then maps before reduces, then index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId {
    /// Owning job.
    pub job: JobId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Index within the job's tasks of this kind (0-based).
    pub index: u32,
}

/// One execution attempt of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttemptId {
    /// The task being attempted.
    pub task: TaskId,
    /// Attempt number (0-based; retries increment).
    pub attempt: u32,
}

impl fmt::Display for AttemptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task_{}_{}_{:06}_{}",
            self.task.job,
            self.task.kind.code(),
            self.task.index,
            self.attempt
        )
    }
}

/// Error returned when an attempt name does not follow the
/// `task_<job>_<m|r>_<index>_<attempt>` convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAttemptIdError(pub String);

impl fmt::Display for ParseAttemptIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed task attempt name `{}`", self.0)
    }
}

impl std::error::Error for ParseAttemptIdError {}

impl FromStr for AttemptId {
    type Err = ParseAttemptIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAttemptIdError(s.to_owned());
        let rest = s.strip_prefix("task_").ok_or_else(err)?;
        let mut parts = rest.split('_');
        let job: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let kind = match parts.next().ok_or_else(err)? {
            "m" => TaskKind::Map,
            "r" => TaskKind::Reduce,
            _ => return Err(err()),
        };
        let index: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let attempt: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(AttemptId {
            task: TaskId {
                job: JobId(job),
                kind,
                index,
            },
            attempt,
        })
    }
}

/// An HDFS block identifier; rendered as Hadoop's `blk_<signed id>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub i64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

/// A slave node index within the cluster (0-based).
pub type NodeIndex = usize;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_names_match_hadoop_format() {
        let a = AttemptId {
            task: TaskId {
                job: JobId(1),
                kind: TaskKind::Map,
                index: 96,
            },
            attempt: 0,
        };
        assert_eq!(a.to_string(), "task_0001_m_000096_0");
        let r = AttemptId {
            task: TaskId {
                job: JobId(1),
                kind: TaskKind::Reduce,
                index: 3,
            },
            attempt: 2,
        };
        assert_eq!(r.to_string(), "task_0001_r_000003_2");
    }

    #[test]
    fn attempt_names_round_trip() {
        for s in ["task_0001_m_000096_0", "task_0042_r_000000_3"] {
            let parsed: AttemptId = s.parse().unwrap();
            assert_eq!(parsed.to_string(), s);
        }
    }

    #[test]
    fn malformed_attempt_names_are_rejected() {
        for s in [
            "",
            "task_",
            "task_1_x_1_0",
            "task_1_m_1",
            "task_1_m_1_0_9",
            "job_0001_m_000001_0",
            "task_abcd_m_000001_0",
        ] {
            assert!(s.parse::<AttemptId>().is_err(), "should reject {s}");
        }
    }

    #[test]
    fn block_ids_render_like_hadoop() {
        assert_eq!(
            BlockId(-3544583377289625568).to_string(),
            "blk_-3544583377289625568"
        );
        assert_eq!(BlockId(42).to_string(), "blk_42");
    }
}
