//! `asdf-rpc` — the collector RPC layer with bandwidth accounting.
//!
//! The paper's deployment polls two daemons on every slave node over ZeroC
//! ICE: `sadc_rpcd` (black-box `/proc` statistics via `libsadc`) and
//! `hadoop_log_rpcd` (white-box state counts from the log parser). This
//! crate reproduces that layer against the simulated cluster:
//!
//! * [`wire`] — a length-prefixed binary encoding standing in for ICE;
//! * [`transport`] — per-connection byte accounting (static overhead vs
//!   per-iteration bandwidth — exactly the two columns of the paper's
//!   Table 4);
//! * [`daemons`] — [`daemons::SadcRpcd`], [`daemons::HadoopLogRpcd`], and
//!   [`daemons::StraceRpcd`], which fully encode and decode every poll
//!   over the accounted wire, and are polled only through the
//!   [`daemons::Collector`] trait (poll → encode → account → decode);
//! * [`meter`] — process CPU/RSS measurement for the Table 3 overhead
//!   experiment.
//!
//! # Examples
//!
//! ```
//! use asdf_rpc::daemons::{ClusterHandle, Collector, SadcRpcd};
//! use hadoop_sim::cluster::{Cluster, ClusterConfig};
//!
//! let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(2, 1), Vec::new()));
//! let mut sadc = SadcRpcd::connect(handle.clone(), 0)?;
//! handle.tick();
//! let sample = sadc.poll_sample()?.unwrap();
//! assert_eq!(sample.values.len(), 120);
//! println!("static overhead: {:.2} kB", sadc.bandwidth().static_kb());
//! # Ok::<(), asdf_rpc::wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod daemons;
pub mod meter;
pub mod transport;
pub mod wire;

pub use daemons::{
    ClusterHandle, Collector, CollectorSample, HadoopLogRpcd, LogDaemon, SadcRpcd, StraceRpcd,
};
pub use transport::{BandwidthStats, Connection};
pub use wire::{Handshake, WireError, WIRE_VERSION};
