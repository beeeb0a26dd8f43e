//! `hadoop-sim` — a deterministic Hadoop/MapReduce + HDFS cluster
//! simulator with fault injection.
//!
//! ASDF's evaluation (paper §4) runs GridMix workloads on a 50-node Hadoop
//! 0.18 cluster and injects six documented performance problems. This crate
//! is the stand-in for that testbed: a tick-based (1 Hz) simulation of
//! jobtracker/tasktracker scheduling, map/shuffle/sort/reduce execution,
//! HDFS block traffic with replication pipelines, and the six faults of the
//! paper's Table 2 ([`faults::FaultKind`]).
//!
//! Two observable surfaces feed the diagnosis pipeline, exactly as on a
//! real cluster:
//!
//! * per-node OS performance counters, rendered by [`procsim`] from the
//!   realized resource usage ([`cluster::Cluster::latest_frame`]);
//! * native-format TaskTracker/DataNode log lines
//!   ([`cluster::Cluster::drain_logs`]) that the `hadoop-logs` crate parses
//!   back with no knowledge of the simulator.
//!
//! # Examples
//!
//! ```
//! use hadoop_sim::cluster::{Cluster, ClusterConfig};
//! use hadoop_sim::faults::{FaultKind, FaultSpec};
//!
//! let fault = FaultSpec { node: 2, kind: FaultKind::CpuHog, start_at: 300 };
//! let mut cluster = Cluster::new(ClusterConfig::new(10, 1), vec![fault]);
//! cluster.advance(60);
//! assert_eq!(cluster.n_slaves(), 10);
//! assert!(!cluster.fault_active(2)); // not yet injected
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod faults;
pub mod gridmix;
pub mod hdfs;
pub mod job;
pub mod logging;
pub mod resources;
pub mod trace;
pub mod types;

pub use cluster::{Cluster, ClusterConfig, ClusterStats};
pub use faults::{FaultKind, FaultSpec};
pub use gridmix::{GridMix, GridMixConfig};
pub use trace::{Trace, TraceParseError, TraceReplay};
