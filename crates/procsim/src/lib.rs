//! `procsim` — a simulated sysstat/`/proc` substrate.
//!
//! ASDF's black-box fingerpointing consumes OS performance counters sampled
//! once per second by the `sadc` utility from the sysstat package. This
//! crate stands in for `/proc` on a simulated cluster: each node is a
//! [`node::NodeSim`] that turns realized resource usage
//! ([`activity::Activity`] for the node, [`activity::ProcessActivity`] for
//! its `datanode` and `tasktracker` daemons, reported by the cluster
//! simulator) into the `sadc` row the paper cites: 64 node-level metrics,
//! 18 for the `eth0` interface, and 19 for each daemon. [`metrics`] defines
//! that one layout ([`metrics::SADC_WIDTH`] values, named by
//! [`metrics::sadc_names`]).
//!
//! The synthesis is deterministic per seed, which is what makes the
//! reproduction's end-to-end experiments exactly repeatable.
//!
//! # Examples
//!
//! ```
//! use procsim::activity::{Activity, ProcessActivity};
//! use procsim::metrics::{sadc_names, SADC_WIDTH};
//! use procsim::node::{NodeSim, NodeSpec};
//!
//! let mut node = NodeSim::new(NodeSpec::ec2_large("slave-1"), 1);
//! let daemon = ProcessActivity::default();
//! let frame = node.tick(&Activity::idle().with_cpu_user(1.5), &daemon, &daemon);
//! assert_eq!(frame.values().len(), SADC_WIDTH);
//! assert_eq!(frame.node().len(), 64);
//! assert_eq!(frame.iface().len(), 18);
//! assert_eq!(sadc_names()[64 + 18 + 19], "tasktracker.%usr");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activity;
pub mod metrics;
pub mod node;
pub mod syscalls;

pub use activity::{Activity, ProcessActivity};
pub use node::{
    MetricFrame, NodeSim, NodeSpec, NODE_CORES, NODE_DISK_KBPS, NODE_MEM_MB, NODE_NET_KBPS,
};
