//! `asdf-modules` — the data-collection and analysis plug-ins of the ASDF
//! reproduction.
//!
//! Everything here implements the `fpt-core` plug-in API
//! ([`asdf_core::module::Module`]) and is wired by configuration, exactly
//! as in the paper's Figures 3–4:
//!
//! **Data collection** ([`collectors`]):
//! `cluster_driver` (ticks the simulated cluster), `sadc` (black-box
//! `/proc` metric vectors via `sadc_rpcd`), `hadoop_log` (white-box state
//! counts via `hadoop_log_rpcd`), `strace` (syscall counts via
//! `strace_rpcd`) — three daemon kinds behind one collector body, each
//! instance holding a rack of nodes and emitting its second as one frame
//! row.
//!
//! **Analysis**: [`mavgvec`] (windowed mean/variance), [`knn`]
//! (`log(1+x)/σ`-scaled 1-NN workload classification), [`ibuffer`]
//! (rate-matching batches), [`analysis_bb`] (state-histogram L1 peer
//! comparison), [`analysis_wb`] (windowed-mean median comparison with the
//! `max(1, k·σ_median)` threshold), [`judge`] (both analyses' alarm rule,
//! its parameters and verdict ports), [`rack_agg`] (fleet-scale rack
//! tree-reduce feeding [`metric_rank`]), [`print`](mod@print)
//! (alarm sink).
//!
//! **Offline training** ([`training`]): k-means centroid fitting on
//! fault-free traces, rendered to/from `knn` configuration parameters.
//!
//! **Distance kernels** ([`kernel`]): the contiguous
//! [`kernel::CentroidBlock`] storage and the 4-lane squared-distance
//! kernels behind every nearest-centroid scan.
//!
//! Use [`register_all`] to register every module type against a cluster
//! handle, or [`register_analysis_modules`] for just the cluster-agnostic
//! analysis modules.
//!
//! # Examples
//!
//! Wiring a custom one-node rack through `mavgvec` in the paper's
//! configuration dialect:
//!
//! ```
//! use asdf_core::prelude::*;
//!
//! // A one-node rack emitting the frame [1, 2, t, 10t] once per second.
//! struct Ramp { port: Option<PortId>, t: f64 }
//! impl Module for Ramp {
//!     fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
//!         self.port = Some(ctx.declare_output_with_origin("out", "node-a"));
//!         ctx.request_periodic(TickDuration::SECOND);
//!         Ok(())
//!     }
//!     fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
//!         self.t += 1.0;
//!         ctx.out.emit(self.port.unwrap(), vec![1.0, 2.0, self.t, 10.0 * self.t]);
//!         Ok(())
//!     }
//! }
//!
//! let mut registry = ModuleRegistry::new();
//! asdf_modules::register_analysis_modules(&mut registry);
//! registry.register("ramp", || Box::new(Ramp { port: None, t: 0.0 }));
//!
//! let config: Config = "\
//! [ramp]
//! id = src
//!
//! [mavgvec]
//! id = avg
//! window = 4
//! input[input] = src.out
//! ".parse()?;
//!
//! let mut engine = TickEngine::new(Dag::build(&registry, &config)?);
//! let tap = engine.tap("avg").unwrap();
//! engine.run_for(TickDuration::from_secs(8))?;
//! let stats = tap.drain();
//! assert_eq!(stats.len(), 2); // two non-overlapping 4-sample windows
//! // [nodes, 2·dim, the node's means, then its stddevs]
//! let row = stats[0].sample.value.as_vector().unwrap();
//! assert_eq!(row[..4], [1.0, 4.0, 2.5, 25.0]);
//! assert_eq!(stats[0].source.origin, "node-a");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis_bb;
pub mod analysis_wb;
pub mod collectors;
pub mod ibuffer;
pub mod judge;
pub mod kernel;
pub mod knn;
pub mod mavgvec;
pub mod metric_rank;
pub mod mitigate;
pub mod print;
pub mod rack;
pub mod rack_agg;
pub mod training;

#[cfg(test)]
pub(crate) mod testutil;

use asdf_core::registry::ModuleRegistry;
use asdf_rpc::daemons::ClusterHandle;

/// Registers the cluster-agnostic analysis module types:
/// `mavgvec`, `knn`, `ibuffer`, `analysis_bb`, `analysis_wb`,
/// `metric_rank`, `rack_agg`, `print`.
pub fn register_analysis_modules(registry: &mut ModuleRegistry) {
    registry.register("mavgvec", || Box::new(mavgvec::MavgVec::new()));
    registry.register("knn", || Box::new(knn::Knn::new()));
    registry.register("ibuffer", || Box::new(ibuffer::IBuffer::new()));
    registry.register("analysis_bb", || Box::new(analysis_bb::AnalysisBb::new()));
    registry.register("analysis_wb", || Box::new(analysis_wb::AnalysisWb::new()));
    registry.register("metric_rank", || Box::new(metric_rank::MetricRank::new()));
    registry.register("rack_agg", || Box::new(rack_agg::RackAgg::new()));
    registry.register("print", || Box::new(print::Print::new()));
}

/// Registers every module type, binding the collectors to `cluster`:
/// everything from [`register_analysis_modules`] plus `cluster_driver`,
/// `sadc`, `hadoop_log`, `strace`, and the alarm-driven `mitigate`
/// action module.
pub fn register_all(registry: &mut ModuleRegistry, cluster: ClusterHandle) {
    register_analysis_modules(registry);
    let h = cluster.clone();
    registry.register("cluster_driver", move || {
        Box::new(collectors::ClusterDriver::new(h.clone()))
    });
    let h = cluster.clone();
    registry.register("sadc", move || Box::new(collectors::Sadc::new(h.clone())));
    let h = cluster.clone();
    registry.register("hadoop_log", move || {
        Box::new(collectors::HadoopLog::new(h.clone()))
    });
    let h = cluster.clone();
    registry.register("strace", move || {
        Box::new(collectors::Strace::new(h.clone()))
    });
    let h = cluster;
    registry.register("mitigate", move || {
        Box::new(mitigate::Mitigate::new(h.clone()))
    });
}
