//! `hadoop-logs` — white-box instrumentation via Hadoop's native logs.
//!
//! A unique aspect of ASDF's Hadoop fingerpointing is that its white-box
//! metrics come from the logs Hadoop *already writes*, with no source
//! modification: "we construct an a priori view of the relationship between
//! Hadoop's mode of execution and its emitted log entries" (paper §4.4).
//!
//! The crate provides that a-priori view:
//!
//! * [`states`] — the DFA state vocabulary (TaskTracker: MapTask,
//!   ReduceTask, ReduceCopy, ReduceSort, ReduceReducer; DataNode:
//!   ReadBlock, WriteBlock, DeleteBlock) and per-second [`states::StateVector`]s;
//! * [`event`] — log-line → state-entrance/exit/instant event extraction;
//! * [`parser`] — the constant-memory streaming [`parser::LogParser`];
//! * [`sync`] — cross-node timestamp alignment with the paper's
//!   drop-on-missing semantics ([`sync::Aligner`]).
//!
//! # Examples
//!
//! ```
//! use hadoop_logs::parser::LogParser;
//! use hadoop_logs::states::HadoopState;
//!
//! let mut parser = LogParser::new();
//! parser.feed_line(
//!     "2008-04-15 14:23:15,324 INFO org.apache.hadoop.mapred.TaskTracker: \
//!      LaunchTaskAction: task_0001_m_000096_0",
//! );
//! let v = parser.sample(14 * 3600 + 23 * 60 + 15);
//! assert_eq!(v[HadoopState::MapTask], 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod parser;
pub mod states;
pub mod sync;

pub use parser::LogParser;
pub use states::{HadoopState, StateVector};
pub use sync::Aligner;
