//! Assembles the paper's Figure-4 fingerpointing DAGs.
//!
//! [`AsdfBuilder`] generates an `fpt-core` configuration (in the paper's
//! own config dialect — it can be dumped with
//! [`Deployment::config_text`]) wiring, per slave node:
//!
//! * **black-box**: `sadc` (one instance per node, or per rack when
//!   [`AsdfOptions::racks`] is set) → `knn` (1-NN against trained centroids) →
//!   `analysis_bb` (state-histogram L1 peer comparison);
//! * **white-box**: `hadoop_log` (TaskTracker and DataNode) → `mavgvec`
//!   (windowed mean + stddev) → `analysis_wb` (median peer comparison
//!   with the `max(1, k·σ_median)` threshold).
//!
//! One `cluster_driver` instance advances the simulated cluster and clocks
//! every collector, standing in for wall-clock scheduling on a live
//! deployment.

use std::collections::HashMap;
use std::sync::Arc;

use asdf_core::config::{Config, InstanceConfig};
use asdf_core::dag::Dag;
use asdf_core::engine::{TapHandle, TickEngine};
use asdf_core::error::BuildDagError;
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_modules::training::BlackBoxModel;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::Cluster;

/// Tunable knobs of a fingerpointing deployment.
#[derive(Debug, Clone)]
pub struct AsdfOptions {
    /// Analysis window, in samples (paper: 60).
    pub window: usize,
    /// Samples between window evaluations (default = `window`,
    /// non-overlapping).
    pub slide: usize,
    /// Black-box L1 alarm threshold (paper sweeps 0–70, uses 60).
    pub bb_threshold: f64,
    /// White-box threshold multiplier k (paper sweeps 0–5, uses 3).
    pub wb_k: f64,
    /// Consecutive anomalous windows required before an alarm (paper: "at
    /// least 3 consecutive windows to gain confidence").
    pub consecutive: usize,
    /// Build the black-box path.
    pub black_box: bool,
    /// Build the white-box path.
    pub white_box: bool,
    /// Add the Orion+-style `metric_rank` stage to the black-box path:
    /// per node, ranks which collected metrics deviate most from the peer
    /// baseline (tap `mr`). Off by default — node fingerpointing alone
    /// reproduces the paper.
    pub metric_rank: bool,
    /// Metrics reported per node by `metric_rank`.
    pub rank_top: usize,
    /// Engine worker threads sharding each tick (`1` = serial, `0` = all
    /// available parallelism). Results are identical at any setting.
    pub engine_threads: usize,
    /// Envelopes accumulated per edge before a batched lane hand-off
    /// (`1` = per-sample delivery). Purely a transport knob: outputs are
    /// bitwise identical at any setting.
    pub batch_size: usize,
    /// Rack count for the fleet-scale wiring: `> 1` collects each rack
    /// through one `sadc` instance (one connection, one port per node; one
    /// cluster lock per rack per second) and tree-reduces the metric path
    /// through per-rack `rack_agg` summaries before a rack-mode
    /// `metric_rank`. A `rack_agg` listens to its collector's `frame` port
    /// — the rack's second as one row — so the DAG holds O(racks)
    /// instances ahead of the analyses and moves O(racks) rows per second
    /// and per evaluation; the per-node ports feed the `knn`s when the
    /// black-box path is built and cost nothing when it is not. Every
    /// output is bitwise identical to the flat wiring. `0`/`1` = the
    /// paper's flat wiring, one `sadc` per node.
    pub racks: usize,
}

impl Default for AsdfOptions {
    fn default() -> Self {
        AsdfOptions {
            window: 60,
            slide: 60,
            bb_threshold: 60.0,
            wb_k: 3.0,
            consecutive: 3,
            black_box: true,
            white_box: true,
            metric_rank: false,
            rank_top: 5,
            engine_threads: 1,
            batch_size: 64,
            racks: 0,
        }
    }
}

/// Builds a [`Deployment`] for a cluster.
#[derive(Debug)]
pub struct AsdfBuilder {
    options: AsdfOptions,
    model: Option<Arc<BlackBoxModel>>,
}

impl AsdfBuilder {
    /// Starts a builder with the given options.
    pub fn new(options: AsdfOptions) -> Self {
        AsdfBuilder {
            options,
            model: None,
        }
    }

    /// Supplies the trained black-box workload model (required when
    /// `options.black_box` is set).
    ///
    /// Accepts an owned model or an [`Arc`]; campaigns hand the same
    /// `Arc` to many concurrent deployments without copying the centroid
    /// matrix.
    #[must_use]
    pub fn with_model(mut self, model: impl Into<Arc<BlackBoxModel>>) -> Self {
        self.model = Some(model.into());
        self
    }

    /// Generates the `fpt-core` configuration for `n_nodes` slaves, with
    /// the default generated hostnames (`slave00`, `slave01`, …).
    ///
    /// # Panics
    ///
    /// Panics if the black-box path is requested without a model.
    pub fn config(&self, n_nodes: usize) -> Config {
        let names: Vec<String> = (0..n_nodes).map(|i| format!("slave{i:02}")).collect();
        self.config_with_names(&names)
    }

    /// Generates the `fpt-core` configuration for the named slaves (one
    /// name per node, in node order — deployments pass the cluster's real
    /// hostnames so rack-mode rankings keep per-node origins).
    ///
    /// # Panics
    ///
    /// Panics if the black-box path is requested without a model.
    pub fn config_with_names(&self, names: &[String]) -> Config {
        let n_nodes = names.len();
        let o = &self.options;
        let mut cfg = Config::new();
        let push = |cfg: &mut Config, inst: InstanceConfig| {
            cfg.push(inst).expect("generated ids are unique");
        };

        push(&mut cfg, InstanceConfig::new("cluster_driver", "drv"));

        // Rack mode puts one `sadc` instance in front of each rack; the
        // flat wiring keeps the paper's one instance per node. Either way
        // node `i`'s metric vectors leave on `sadc_port(i)`, so the `knn`s
        // below are wired once for both. `per_rack` is the nodes
        // per rack in rack mode; the last rack may hold fewer.
        let per_rack = {
            let n_racks = o.racks.min(n_nodes);
            (n_racks > 1).then(|| n_nodes.div_ceil(n_racks))
        };
        let racks: Vec<std::ops::Range<usize>> = per_rack.map_or_else(Vec::new, |k| {
            (0..n_nodes)
                .step_by(k)
                .map(|lo| lo..(lo + k).min(n_nodes))
                .collect()
        });
        let sadc_port = |i: usize| match per_rack {
            Some(k) => (format!("sadcr{}", i / k), format!("output{}", i % k)),
            None => (format!("sadc{i}"), "output0".to_owned()),
        };
        let node_sadc = |i: usize| {
            InstanceConfig::new("sadc", format!("sadc{i}"))
                .with_param("node", i)
                .with_input("clock", "drv", "tick")
        };
        if o.black_box || o.metric_rank {
            for (rack, nodes) in racks.iter().enumerate() {
                push(
                    &mut cfg,
                    InstanceConfig::new("sadc", format!("sadcr{rack}"))
                        .with_param("nodes", format!("{}..{}", nodes.start, nodes.end))
                        .with_input("clock", "drv", "tick"),
                );
            }
        }

        if o.black_box {
            let model = self
                .model
                .as_ref()
                .expect("black-box pipeline requires a trained model");
            // Rendering the centroid matrix to text is O(n_states × dim);
            // do it once, not once per node.
            let centroids_text = model.centroids_param();
            let stddev_text = model.stddev_param();
            for i in 0..n_nodes {
                if per_rack.is_none() {
                    push(&mut cfg, node_sadc(i));
                }
                let (sadc, port) = sadc_port(i);
                push(
                    &mut cfg,
                    InstanceConfig::new("knn", format!("onenn{i}"))
                        .with_param("centroids", centroids_text.clone())
                        .with_param("stddev", stddev_text.clone())
                        .with_param("k", 1)
                        .with_input("input", sadc, port),
                );
            }
            let mut bb = InstanceConfig::new("analysis_bb", "bb")
                .with_param("n_states", model.n_states())
                .with_param("window", o.window)
                .with_param("slide", o.slide)
                .with_param("threshold", o.bb_threshold)
                .with_param("consecutive", o.consecutive);
            for i in 0..n_nodes {
                bb = bb.with_input(format!("l{i}"), format!("onenn{i}"), "output0");
            }
            push(&mut cfg, bb);
            push(
                &mut cfg,
                InstanceConfig::new("print", "BlackBoxAlarm").with_input_all("a", "bb"),
            );
        } else if o.metric_rank && per_rack.is_none() {
            // Metric ranking without the classifier still needs the
            // per-node collector edges.
            for i in 0..n_nodes {
                push(&mut cfg, node_sadc(i));
            }
        }

        if o.metric_rank {
            // Rank metric deviations on the same collector edges the
            // classifier consumes — no extra collection cost.
            if per_rack.is_some() {
                // Fleet wiring: per-rack tree-reduce, then a rack-mode
                // global ranker over O(racks) summary rows.
                let mut mr = InstanceConfig::new("metric_rank", "mr")
                    .with_param("top", o.rank_top)
                    .with_param("nodes", names.join(","));
                for rack in 0..racks.len() {
                    // One edge per rack: its collector's whole second.
                    push(
                        &mut cfg,
                        InstanceConfig::new("rack_agg", format!("ra{rack}"))
                            .with_param("window", o.window)
                            .with_param("slide", o.slide)
                            .with_input("frame", format!("sadcr{rack}"), "frame"),
                    );
                    mr = mr.with_input(format!("r{rack}"), format!("ra{rack}"), "sum");
                }
                push(&mut cfg, mr);
            } else {
                let mut mr = InstanceConfig::new("metric_rank", "mr")
                    .with_param("window", o.window)
                    .with_param("slide", o.slide)
                    .with_param("top", o.rank_top);
                for i in 0..n_nodes {
                    mr = mr.with_input(format!("m{i}"), format!("sadc{i}"), "output0");
                }
                push(&mut cfg, mr);
            }
        }

        if o.white_box {
            for (daemon, tag) in [("tasktracker", "tt"), ("datanode", "dn")] {
                for i in 0..n_nodes {
                    push(
                        &mut cfg,
                        InstanceConfig::new("hadoop_log", format!("hl_{tag}_{i}"))
                            .with_param("node", i)
                            .with_param("daemon", daemon)
                            .with_input("clock", "drv", "tick"),
                    );
                    push(
                        &mut cfg,
                        InstanceConfig::new("mavgvec", format!("avg_{tag}_{i}"))
                            .with_param("window", o.window)
                            .with_param("slide", o.slide)
                            .with_param("emit", "both")
                            .with_input("input", format!("hl_{tag}_{i}"), "output0"),
                    );
                }
                let mut wb = InstanceConfig::new("analysis_wb", format!("wb_{tag}"))
                    .with_param("k", o.wb_k)
                    .with_param("consecutive", o.consecutive);
                for i in 0..n_nodes {
                    wb = wb
                        .with_input(format!("a{i}"), format!("avg_{tag}_{i}"), "mean")
                        .with_input(format!("d{i}"), format!("avg_{tag}_{i}"), "stddev");
                }
                push(&mut cfg, wb);
                push(
                    &mut cfg,
                    InstanceConfig::new("print", format!("WhiteBoxAlarm_{tag}"))
                        .with_input_all("a", format!("wb_{tag}")),
                );
            }
        }

        cfg
    }

    /// Builds a runnable deployment over `cluster`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildDagError`] when DAG construction fails (which for a
    /// generated configuration indicates option/model inconsistency, e.g.
    /// fewer than three slaves for peer comparison).
    pub fn deploy(self, cluster: Cluster) -> Result<Deployment, BuildDagError> {
        let n_nodes = cluster.n_slaves();
        let node_names: Vec<String> = (0..n_nodes)
            .map(|i| cluster.slave_name(i).to_owned())
            .collect();
        let handle = ClusterHandle::new(cluster);
        let mut registry = ModuleRegistry::new();
        asdf_modules::register_all(&mut registry, handle.clone());
        let config = self.config_with_names(&node_names);
        let dag = Dag::build(&registry, &config)?;
        let mut engine = TickEngine::with_threads(dag, self.options.engine_threads);
        engine.set_batch_size(self.options.batch_size);
        let mut taps = HashMap::new();
        for id in ["bb", "wb_tt", "wb_dn", "mr"] {
            if let Some(tap) = engine.tap(id) {
                taps.insert(id.to_owned(), tap);
            }
        }
        Ok(Deployment {
            engine,
            handle,
            taps,
            node_names,
            config,
            options: self.options,
        })
    }
}

/// A runnable fingerpointing deployment: engine + cluster + analysis taps.
pub struct Deployment {
    /// The deterministic engine executing the DAG.
    pub engine: TickEngine,
    /// Shared handle to the monitored cluster.
    pub handle: ClusterHandle,
    taps: HashMap<String, TapHandle>,
    node_names: Vec<String>,
    config: Config,
    options: AsdfOptions,
}

impl Deployment {
    /// Runs the deployment for `secs` seconds of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if a module fails at runtime — generated pipelines are
    /// expected to be internally consistent.
    pub fn run_for(&mut self, secs: u64) {
        self.engine
            .run_for(TickDuration::from_secs(secs))
            .expect("generated pipeline runs cleanly");
    }

    /// The tap on an analysis instance (`bb`, `wb_tt`, `wb_dn`, `mr`),
    /// when that path was built.
    pub fn tap(&self, id: &str) -> Option<&TapHandle> {
        self.taps.get(id)
    }

    /// Slave hostnames, index-aligned with alarm ports.
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }

    /// The deployment's options.
    pub fn options(&self) -> &AsdfOptions {
        &self.options
    }

    /// The generated configuration, rendered in the paper's file dialect.
    pub fn config_text(&self) -> String {
        self.config.render()
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("nodes", &self.node_names.len())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadoop_sim::cluster::ClusterConfig;

    fn tiny_model() -> BlackBoxModel {
        // 120-dimensional model with two trivial centroids; enough for
        // wiring tests (training quality is covered elsewhere).
        let dim = 120;
        BlackBoxModel {
            stddev: vec![1.0; dim],
            centroids: asdf_modules::kernel::CentroidBlock::from_rows(&[
                vec![0.0; dim],
                vec![5.0; dim],
            ]),
        }
    }

    #[test]
    fn generated_config_is_parseable_and_round_trips() {
        let builder = AsdfBuilder::new(AsdfOptions::default()).with_model(tiny_model());
        let cfg = builder.config(4);
        let text = cfg.render();
        let reparsed: Config = text.parse().expect("generated config parses");
        assert_eq!(cfg, reparsed);
        // Spot-check the paper's structure.
        assert!(cfg.instance("drv").is_some());
        assert!(cfg.instance("onenn2").is_some());
        assert!(cfg.instance("bb").is_some());
        assert!(cfg.instance("wb_tt").is_some());
        assert!(cfg.instance("hl_dn_3").is_some());
        assert!(cfg.instance("BlackBoxAlarm").is_some());
    }

    #[test]
    fn deploy_and_run_both_paths() {
        let cluster = Cluster::new(ClusterConfig::new(4, 5), Vec::new());
        let mut dep = AsdfBuilder::new(AsdfOptions {
            window: 10,
            slide: 10,
            ..AsdfOptions::default()
        })
        .with_model(tiny_model())
        .deploy(cluster)
        .expect("deploys");
        dep.run_for(40);
        assert_eq!(dep.handle.now(), 40);
        // All three analysis taps exist and produced window outputs.
        for id in ["bb", "wb_tt", "wb_dn"] {
            let tap = dep.tap(id).unwrap();
            assert!(!tap.is_empty(), "{id} should emit");
        }
        assert_eq!(dep.node_names().len(), 4);
        assert!(dep.config_text().contains("[analysis_bb]"));
    }

    #[test]
    fn sharded_deployment_matches_serial() {
        let run = |threads: usize| {
            let cluster = Cluster::new(ClusterConfig::new(4, 5), Vec::new());
            let mut dep = AsdfBuilder::new(AsdfOptions {
                window: 10,
                slide: 10,
                engine_threads: threads,
                ..AsdfOptions::default()
            })
            .with_model(tiny_model())
            .deploy(cluster)
            .expect("deploys");
            dep.run_for(40);
            ["bb", "wb_tt", "wb_dn"].map(|id| dep.tap(id).unwrap().drain())
        };
        let serial = run(1);
        assert!(serial.iter().all(|s| !s.is_empty()));
        assert_eq!(serial, run(4));
    }

    #[test]
    fn batched_deployment_matches_per_sample() {
        let run = |batch_size: usize, threads: usize| {
            let cluster = Cluster::new(ClusterConfig::new(4, 5), Vec::new());
            let mut dep = AsdfBuilder::new(AsdfOptions {
                window: 10,
                slide: 10,
                engine_threads: threads,
                batch_size,
                ..AsdfOptions::default()
            })
            .with_model(tiny_model())
            .deploy(cluster)
            .expect("deploys");
            dep.run_for(40);
            ["bb", "wb_tt", "wb_dn"].map(|id| dep.tap(id).unwrap().drain())
        };
        let per_sample = run(1, 1);
        assert!(per_sample.iter().all(|s| !s.is_empty()));
        for batch_size in [7, 64] {
            for threads in [1, 4] {
                assert_eq!(per_sample, run(batch_size, threads));
            }
        }
    }

    #[test]
    fn metric_rank_stage_is_optional_and_emits_rankings() {
        // Default: no mr instance, no tap.
        let dep = AsdfBuilder::new(AsdfOptions {
            window: 5,
            slide: 5,
            ..AsdfOptions::default()
        })
        .with_model(tiny_model())
        .deploy(Cluster::new(ClusterConfig::new(3, 9), Vec::new()))
        .unwrap();
        assert!(dep.tap("mr").is_none());

        let cluster = Cluster::new(ClusterConfig::new(4, 9), Vec::new());
        let mut dep = AsdfBuilder::new(AsdfOptions {
            window: 5,
            slide: 5,
            metric_rank: true,
            rank_top: 3,
            ..AsdfOptions::default()
        })
        .with_model(tiny_model())
        .deploy(cluster)
        .expect("deploys");
        dep.run_for(20);
        let out = dep.tap("mr").unwrap().drain();
        assert!(!out.is_empty(), "metric_rank should emit rankings");
        for e in &out {
            assert!(e.source.name.starts_with("rank"));
            let row = e.sample.value.as_vector().unwrap();
            assert_eq!(row.len(), 6, "top=3 emits [idx, score] * 3");
        }
    }

    #[test]
    fn rack_wiring_is_bitwise_equal_to_flat() {
        // The fleet path (per-rack sadc + rack_agg tree-reduce + rack-mode
        // metric_rank) must reproduce the flat wiring's rankings exactly,
        // at any rack count that leaves >= 3 nodes' worth of summaries —
        // and the black-box verdicts of the `knn`s now fed from rack
        // collector ports.
        let run = |racks: usize| {
            let cluster = Cluster::new(ClusterConfig::new(7, 9), Vec::new());
            let mut dep = AsdfBuilder::new(AsdfOptions {
                window: 5,
                slide: 5,
                metric_rank: true,
                rank_top: 3,
                racks,
                ..AsdfOptions::default()
            })
            .with_model(tiny_model())
            .deploy(cluster)
            .expect("deploys");
            dep.run_for(25);
            ["mr", "bb"].map(|id| dep.tap(id).unwrap().drain())
        };
        let flat = run(0);
        assert!(
            flat.iter().all(|tap| !tap.is_empty()),
            "flat wiring should emit rankings and verdicts"
        );
        for racks in [2, 3, 7] {
            assert_eq!(flat, run(racks), "racks={racks}");
        }
    }

    #[test]
    fn metric_rank_only_deployment_needs_no_model() {
        // Fleet diagnosis latency benchmarks run just the ranking path;
        // the collector edges are generated without the classifier.
        let cluster = Cluster::new(ClusterConfig::new(6, 9), Vec::new());
        let mut dep = AsdfBuilder::new(AsdfOptions {
            black_box: false,
            white_box: false,
            metric_rank: true,
            window: 5,
            slide: 5,
            racks: 2,
            ..AsdfOptions::default()
        })
        .deploy(cluster)
        .expect("deploys");
        dep.run_for(15);
        assert!(dep.tap("bb").is_none());
        assert!(!dep.tap("mr").unwrap().is_empty());
    }

    #[test]
    fn black_box_only_deployment_has_no_wb_taps() {
        let cluster = Cluster::new(ClusterConfig::new(3, 6), Vec::new());
        let dep = AsdfBuilder::new(AsdfOptions {
            white_box: false,
            window: 5,
            slide: 5,
            ..AsdfOptions::default()
        })
        .with_model(tiny_model())
        .deploy(cluster)
        .unwrap();
        assert!(dep.tap("bb").is_some());
        assert!(dep.tap("wb_tt").is_none());
        assert!(dep.tap("wb_dn").is_none());
    }

    #[test]
    fn white_box_only_deployment_needs_no_model() {
        let cluster = Cluster::new(ClusterConfig::new(3, 7), Vec::new());
        let mut dep = AsdfBuilder::new(AsdfOptions {
            black_box: false,
            window: 5,
            slide: 5,
            ..AsdfOptions::default()
        })
        .deploy(cluster)
        .unwrap();
        dep.run_for(15);
        assert!(dep.tap("bb").is_none());
        assert!(!dep.tap("wb_tt").unwrap().is_empty());
    }

    #[test]
    fn too_few_slaves_fails_to_deploy() {
        let cluster = Cluster::new(ClusterConfig::new(2, 8), Vec::new());
        let err = AsdfBuilder::new(AsdfOptions::default())
            .with_model(tiny_model())
            .deploy(cluster);
        assert!(err.is_err(), "peer comparison needs >= 3 nodes");
    }
}
