//! Assembles the paper's Figure-4 fingerpointing DAGs.
//!
//! [`AsdfBuilder`] generates an `fpt-core` configuration (in the paper's
//! own config dialect — it can be dumped with
//! [`Deployment::config_text`]) wiring, per rack of slave nodes:
//!
//! * **black-box**: `sadc` → `knn` (1-NN against trained centroids) →
//!   `analysis_bb` (state-histogram L1 peer comparison);
//! * **white-box**: `hadoop_log` (TaskTracker and DataNode) → `mavgvec`
//!   (windowed mean + stddev) → `analysis_wb` (median peer comparison
//!   with the `max(1, k·σ_median)` threshold).
//!
//! There is one wiring: a collector holds a rack (`nodes = lo..hi`) and
//! hands its second to the analyses as one `frame` row; the paper's flat
//! deployment is [`AsdfOptions::racks`] `≤ 1`, one rack holding every node.
//! The analysis half is written once, `push_analyses`, behind a seam of
//! *sources* (a frame port per slot); the `serve` daemon generates its
//! tenants' DAGs with it as one rack, over its ingest module's one port per
//! stream.
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
    /// Read by nothing.
    // Inert: kept only because `asdfbench` names it; ROADMAP's benchmark slice A (v) deletes it.
    #[doc(hidden)]
    pub engine_threads: usize,
    /// Read by nothing.
    // Inert: kept only because `asdfbench` names it; ROADMAP's benchmark slice A (x) deletes it.
    #[doc(hidden)]
    pub batch_size: usize,
    /// Rack count: the nodes are split into this many contiguous ranges,
    /// each collected by one `sadc` and one `hadoop_log` per daemon (one
    /// connection per node; one cluster lock per rack per second) whose
    /// one port, `frame`, carries the rack's second as one row to one
    /// `knn` / `mavgvec`: O(racks) instances and rows per second ahead of
    /// the peer comparisons. `0`/`1` = one collector for the cluster.
    /// With `metric_rank`, `> 1` also tree-reduces the metric path through
    /// per-rack `rack_agg` summaries; at `≤ 1` the ranker windows the one
    /// collector's frames itself. Outputs are bitwise identical at any
    /// setting.
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

fn push(cfg: &mut Config, inst: InstanceConfig) {
    cfg.push(inst).expect("generated ids are unique");
}

/// Where one slot of an analysis reads its samples: `(instance, port)`.
pub(crate) type Source = (String, String);

/// Generates the analysis half of Figure 4 onto `cfg`: with `o.black_box`
/// a `knn` per `sadc` source (`onenn<s>`) into `analysis_bb` (`bb`), with
/// `o.white_box` per stream `(tag, sources)` a `mavgvec` per source
/// (`avg_<tag>_<s>`) into `analysis_wb` (`wb_<tag>`). Every source is a
/// frame port — a rack collector's, or a `serve` tenant's one stream
/// holding the whole cluster — and `names` every covered node's hostname,
/// in order.
///
/// # Panics
///
/// Panics if the black-box path is requested without a model.
pub(crate) fn push_analyses(
    cfg: &mut Config,
    o: &AsdfOptions,
    model: Option<&BlackBoxModel>,
    names: &[String],
    sadc: &[Source],
    white_box: &[(&str, Vec<Source>)],
) {
    let nodes = names.join(",");
    if o.black_box {
        let model = model.expect("black-box pipeline requires a trained model");
        // Rendering the centroid matrix to text is O(n_states × dim);
        // do it once, not once per source.
        let centroids_text = model.centroids_param();
        let stddev_text = model.stddev_param();
        let mut bb = InstanceConfig::new("analysis_bb", "bb")
            .with_param("n_states", model.n_states())
            .with_param("window", o.window)
            .with_param("slide", o.slide)
            .with_param("threshold", o.bb_threshold)
            .with_param("consecutive", o.consecutive)
            .with_param("nodes", &nodes);
        for (s, (instance, port)) in sadc.iter().enumerate() {
            push(
                cfg,
                InstanceConfig::new("knn", format!("onenn{s}"))
                    .with_param("centroids", &centroids_text)
                    .with_param("stddev", &stddev_text)
                    .with_param("k", 1)
                    .with_input("input", instance, port),
            );
            bb = bb.with_input(format!("l{s}"), format!("onenn{s}"), "output0");
        }
        push(cfg, bb);
    }
    if o.white_box {
        for (tag, sources) in white_box {
            let mut wb = InstanceConfig::new("analysis_wb", format!("wb_{tag}"))
                .with_param("k", o.wb_k)
                .with_param("consecutive", o.consecutive)
                .with_param("nodes", &nodes);
            for (s, (instance, port)) in sources.iter().enumerate() {
                push(
                    cfg,
                    InstanceConfig::new("mavgvec", format!("avg_{tag}_{s}"))
                        .with_param("window", o.window)
                        .with_param("slide", o.slide)
                        .with_param("emit", "both")
                        .with_input("input", instance, port),
                );
                wb = wb
                    .with_input(format!("a{s}"), format!("avg_{tag}_{s}"), "mean")
                    .with_input(format!("d{s}"), format!("avg_{tag}_{s}"), "stddev");
            }
            push(cfg, wb);
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
    /// hostnames so rankings keep per-node origins).
    ///
    /// # Panics
    ///
    /// Panics if the black-box path is requested without a model.
    pub fn config_with_names(&self, names: &[String]) -> Config {
        let n_nodes = names.len();
        let o = &self.options;
        let mut cfg = Config::new();
        push(&mut cfg, InstanceConfig::new("cluster_driver", "drv"));

        // One collector of each kind in front of each rack, clocked by the
        // driver; its `frame` port is the rack's source.
        let per_rack = n_nodes.div_ceil(o.racks.clamp(1, n_nodes.max(1))).max(1);
        let racks: Vec<std::ops::Range<usize>> = (0..n_nodes)
            .step_by(per_rack)
            .map(|lo| lo..(lo + per_rack).min(n_nodes))
            .collect();
        let collectors = |cfg: &mut Config, kind: &str, id: &str, daemon: Option<&str>| {
            let mut sources = Vec::new();
            for (rack, nodes) in racks.iter().enumerate() {
                let mut inst = InstanceConfig::new(kind, format!("{id}{rack}"))
                    .with_param("nodes", format!("{}..{}", nodes.start, nodes.end))
                    .with_input("clock", "drv", "tick");
                if let Some(daemon) = daemon {
                    inst = inst.with_param("daemon", daemon);
                }
                push(cfg, inst);
                sources.push((format!("{id}{rack}"), "frame".to_owned()));
            }
            sources
        };
        let sadc = if o.black_box || o.metric_rank {
            collectors(&mut cfg, "sadc", "sadcr", None)
        } else {
            Vec::new()
        };

        if o.metric_rank {
            // Rank metric deviations on the collectors the classifier
            // reads — no extra collection cost.
            let mut mr = InstanceConfig::new("metric_rank", "mr")
                .with_param("top", o.rank_top)
                .with_param("nodes", names.join(","));
            if let [(collector, frame)] = &sadc[..] {
                // One rack: the ranker windows its frames itself.
                mr = mr
                    .with_param("window", o.window)
                    .with_param("slide", o.slide)
                    .with_input("frame", collector, frame);
            } else {
                // Per-rack tree-reduce, then a global ranker over O(racks)
                // summary rows.
                for (rack, (collector, frame)) in sadc.iter().enumerate() {
                    push(
                        &mut cfg,
                        InstanceConfig::new("rack_agg", format!("ra{rack}"))
                            .with_param("window", o.window)
                            .with_param("slide", o.slide)
                            .with_input("frame", collector, frame),
                    );
                    mr = mr.with_input(format!("r{rack}"), format!("ra{rack}"), "sum");
                }
            }
            push(&mut cfg, mr);
        }

        let mut white_box = Vec::new();
        if o.white_box {
            for (daemon, tag) in [("tasktracker", "tt"), ("datanode", "dn")] {
                let id = format!("hl_{tag}_");
                white_box.push((tag, collectors(&mut cfg, "hadoop_log", &id, Some(daemon))));
            }
        }
        push_analyses(&mut cfg, o, self.model.as_deref(), names, &sadc, &white_box);
        for (sink, analysis) in [
            ("BlackBoxAlarm", "bb"),
            ("WhiteBoxAlarm_tt", "wb_tt"),
            ("WhiteBoxAlarm_dn", "wb_dn"),
        ] {
            if cfg.instance(analysis).is_some() {
                push(
                    &mut cfg,
                    InstanceConfig::new("print", sink).with_input_all("a", analysis),
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
        let mut engine = TickEngine::new(dag);
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
pub(crate) mod tests {
    use super::*;
    use asdf_core::config::Connection;
    use asdf_core::module::Envelope;
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
        for id in [
            "drv", "sadcr0", "onenn0", "bb", "hl_dn_0", "avg_tt_0", "wb_tt",
        ] {
            assert!(cfg.instance(id).is_some(), "{id}");
        }
        assert!(cfg.instance("BlackBoxAlarm").is_some());
    }

    #[test]
    fn the_generated_dag_is_o_racks_whatever_the_node_count() {
        // The per-node shape (six instances a node, a port per node) cannot
        // grow back unnoticed: the counts below are the whole deployment's.
        let config = |racks: usize| {
            let options = AsdfOptions {
                racks,
                metric_rank: true,
                ..AsdfOptions::default()
            };
            let cfg = AsdfBuilder::new(options)
                .with_model(tiny_model())
                .config(500);
            let reparsed: Config = cfg.render().parse().expect("generated config parses");
            assert_eq!(cfg, reparsed, "racks = {racks}");
            cfg
        };
        for racks in [0, 1, 25] {
            let cfg = config(racks);
            // Whatever reads a collector reads its one port, the frame.
            for inst in cfg.instances() {
                for (slot, conn) in &inst.inputs {
                    let Connection::Port { instance, output } = conn else {
                        continue;
                    };
                    let source = &cfg.instance(instance).expect(instance).module_type;
                    if ["sadc", "hadoop_log", "strace"].contains(&source.as_str()) {
                        assert_eq!(output, "frame", "{}[{slot}], racks = {racks}", inst.id);
                    }
                }
            }
            let mr_slots = cfg.instance("mr").expect("mr").inputs.len();
            if racks <= 1 {
                assert_eq!(mr_slots, 1, "one rack's mr reads its one frame");
            } else {
                assert_eq!(mr_slots, racks, "an mr slot per rack summary");
            }
        }
        let instances = |racks| config(racks).instances().len();
        assert!(instances(0) <= 16, "{}", instances(0));
        assert_eq!(instances(0), instances(1), "0 and 1 are both one rack");
        assert!(instances(25) <= 7 * 25 + 10, "{}", instances(25));

        // At one rack the ranker costs one routed envelope a second, the
        // frame it shares with the classifier.
        let routed = |metric_rank| {
            let cluster = Cluster::new(ClusterConfig::new(7, 5), Vec::new());
            let options = AsdfOptions {
                metric_rank,
                racks: 1,
                ..AsdfOptions::default()
            };
            let builder = AsdfBuilder::new(options).with_model(tiny_model());
            let mut dep = builder.deploy(cluster).expect("deploys");
            dep.run_for(60);
            dep.engine.envelopes_routed()
        };
        assert_eq!(routed(true), routed(false) + 60);
    }

    /// Asserts that every output port `dag` declares has a route, or is an
    /// instance's in `tapped` — or a `print` sink's `log`, a line per alarm
    /// for whoever adds a tap or a sink behind it: no generated deployment
    /// builds a row per second that nothing can observe.
    pub(crate) fn assert_every_port_is_routed_or_tapped(dag: &Dag, tapped: &[&str], what: &str) {
        for node in dag.iter() {
            if tapped.contains(&node.id.as_str()) || node.module_type == "print" {
                continue;
            }
            for (port, routes) in node.outputs.iter().zip(&node.routes) {
                assert!(!routes.is_empty(), "{what}: `{port}` goes nowhere");
            }
        }
    }

    #[test]
    fn every_generated_port_is_routed_or_tapped() {
        // Every combination of paths with something to diagnose.
        for racks in [0, 1, 3] {
            for paths in 1..8u8 {
                let [black_box, white_box, metric_rank] = [1, 2, 4].map(|bit| paths & bit != 0);
                let options = AsdfOptions {
                    black_box,
                    white_box,
                    metric_rank,
                    racks,
                    ..AsdfOptions::default()
                };
                let mut registry = ModuleRegistry::new();
                let cluster = Cluster::new(ClusterConfig::new(7, 5), Vec::new());
                asdf_modules::register_all(&mut registry, ClusterHandle::new(cluster));
                let config = AsdfBuilder::new(options).with_model(tiny_model()).config(7);
                let dag = Dag::build(&registry, &config).expect("deploys");
                let what = format!("racks {racks}, paths {paths:03b}");
                let tapped = ["bb", "wb_tt", "wb_dn", "mr"];
                assert_every_port_is_routed_or_tapped(&dag, &tapped, &what);
            }
        }
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

    /// The paper's Figure 4 written out literally, one instance of
    /// everything per node, in its own dialect: the per-node DAG every
    /// generated deployment has to reproduce. Test code only — nothing
    /// generates this shape any more.
    fn figure4_per_node(o: &AsdfOptions, model: &BlackBoxModel, n_nodes: usize) -> Config {
        let daemons = [("tasktracker", "tt"), ("datanode", "dn")];
        let mut text = String::from("[cluster_driver]\nid = drv\n\n");
        for i in 0..n_nodes {
            text += &format!("[sadc]\nid = sadc{i}\nnode = {i}\ninput[clock] = drv.tick\n\n");
            for (daemon, tag) in daemons {
                text += &format!(
                    "[hadoop_log]\nid = hl_{tag}_{i}\nnode = {i}\ndaemon = {daemon}\n\
                     input[clock] = drv.tick\n\n"
                );
            }
        }
        text += &figure4_analyses(o, model, n_nodes, &daemons.map(|d| d.1), |s, i| match s {
            "sadc" => format!("sadc{i}.output0"),
            tag => format!("hl_{tag}_{i}.output0"),
        });
        text.parse().expect("Figure 4 parses")
    }

    /// Figure 4's analysis half, per node: a `knn` per node into `bb`, and a
    /// `mavgvec` per node per white-box `tag` into `wb_{tag}`, node `i`'s
    /// `sadc` or `tag` rows read from the port `port(stream, i)` names.
    pub(crate) fn figure4_analyses(
        o: &AsdfOptions,
        model: &BlackBoxModel,
        n_nodes: usize,
        tags: &[&str],
        port: impl Fn(&str, usize) -> String,
    ) -> String {
        let windowed = format!("window = {}\nslide = {}\n", o.window, o.slide);
        let (centroids, stddev) = (model.centroids_param(), model.stddev_param());
        let mut text = String::new();
        let mut bb = format!(
            "[analysis_bb]\nid = bb\nn_states = {}\n{windowed}threshold = {}\nconsecutive = {}\n",
            model.n_states(),
            o.bb_threshold,
            o.consecutive
        );
        for i in 0..n_nodes {
            text += &format!(
                "[knn]\nid = onenn{i}\ncentroids = {centroids}\nstddev = {stddev}\nk = 1\n\
                 input[input] = {}\n\n",
                port("sadc", i)
            );
            bb += &format!("input[l{i}] = onenn{i}.output0\n");
        }
        text += &format!("{bb}\n");
        for tag in tags {
            let mut wb = format!(
                "[analysis_wb]\nid = wb_{tag}\nk = {}\nconsecutive = {}\n",
                o.wb_k, o.consecutive
            );
            for i in 0..n_nodes {
                text += &format!(
                    "[mavgvec]\nid = avg_{tag}_{i}\n{windowed}emit = both\n\
                     input[input] = {}\n\n",
                    port(tag, i)
                );
                wb += &format!(
                    "input[a{i}] = avg_{tag}_{i}.mean\ninput[d{i}] = avg_{tag}_{i}.stddev\n"
                );
            }
            text += &format!("{wb}\n");
        }
        text
    }

    /// One envelope, every field that can differ: instance, port name,
    /// origin, timestamp and the value's bits.
    pub(crate) type EnvelopeBits = (String, String, String, u64, Vec<u64>);

    pub(crate) fn envelope_bits(envelopes: &[Envelope]) -> Vec<EnvelopeBits> {
        use asdf_core::value::Value;
        envelopes
            .iter()
            .map(|e| {
                let bits = match &e.sample.value {
                    Value::Vector(v) => v.iter().map(|x| x.to_bits()).collect(),
                    Value::Float(x) => vec![x.to_bits()],
                    Value::Bool(b) => vec![u64::from(*b)],
                    other => panic!("no analysis emits {}", other.type_name()),
                };
                (
                    e.source.instance.clone(),
                    e.source.name.clone(),
                    e.source.origin.clone(),
                    e.sample.timestamp.as_secs(),
                    bits,
                )
            })
            .collect()
    }

    /// FNV-1a (64 bit) over every field of `envelopes`, in order.
    fn fnv1a(envelopes: &[EnvelopeBits]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (instance, port, origin, secs, bits) in envelopes {
            for s in [instance, port, origin] {
                eat(s.as_bytes());
                eat(&[0]);
            }
            eat(&secs.to_le_bytes());
            bits.iter().for_each(|b| eat(&b.to_le_bytes()));
        }
        h
    }

    #[test]
    fn rack_wiring_is_bitwise_equal_to_flat() {
        // Whatever the rack count — one collector for the cluster, a few
        // racks, a rack per node — the generated deployment's taps hold
        // what the paper's per-node DAG leaves in `bb` / `wb_*`, envelope
        // for envelope, and in `mr` what a `metric_rank` over one port per
        // node left, with a fault running so the values are not all alike.
        const NODES: usize = 7;
        // FNV-1a of that per-node `mr` stream's `envelope_bits`, recorded
        // while the module still took a port per node.
        const PER_NODE_MR_FNV: u64 = 0x7493_8746_8fca_b99a;
        let model = crate::experiments::train_model(&crate::experiments::CampaignConfig {
            slaves: NODES,
            training_secs: 200,
            n_states: 6,
            ..crate::experiments::CampaignConfig::smoke()
        });
        let options = |racks| AsdfOptions {
            window: 20,
            slide: 10,
            bb_threshold: 10.0,
            consecutive: 2,
            metric_rank: true,
            rank_top: 3,
            racks,
            ..AsdfOptions::default()
        };
        let run = |config: &dyn Fn(&[String]) -> Config, ids: &[&str]| {
            use hadoop_sim::faults::{FaultKind, FaultSpec};
            // One fault for each path to see.
            let faults =
                [(4, FaultKind::DiskHog), (2, FaultKind::Hadoop1036)].map(|(node, kind)| {
                    FaultSpec {
                        node,
                        kind,
                        start_at: 60,
                    }
                });
            let cluster = Cluster::new(ClusterConfig::new(NODES, 9), faults.to_vec());
            let names: Vec<String> = (0..NODES)
                .map(|i| cluster.slave_name(i).to_owned())
                .collect();
            let mut registry = ModuleRegistry::new();
            asdf_modules::register_all(&mut registry, ClusterHandle::new(cluster));
            let dag = Dag::build(&registry, &config(&names)).expect("builds");
            let mut engine = TickEngine::new(dag);
            let taps: Vec<_> = ids.iter().map(|id| engine.tap(id).expect(id)).collect();
            engine.run_for(TickDuration::from_secs(400)).expect("runs");
            let streams = taps.iter().map(|tap| envelope_bits(&tap.drain()));
            streams.collect::<Vec<_>>()
        };
        let ids = ["bb", "wb_tt", "wb_dn", "mr"];
        let reference = run(&|_| figure4_per_node(&options(0), &model, NODES), &ids[..3]);
        for racks in [0, 1, 2, 3, 7] {
            let generated = run(
                &|names| {
                    AsdfBuilder::new(options(racks))
                        .with_model(Arc::clone(&model))
                        .config_with_names(names)
                },
                &ids,
            );
            for (tap, id) in generated.iter().zip(ids) {
                let distinct: std::collections::BTreeSet<_> = tap.iter().map(|e| &e.4).collect();
                assert!(distinct.len() > 2, "`{id}` says the same thing all run");
            }
            assert!(generated[..3] == reference[..], "racks = {racks}");
            assert_eq!(fnv1a(&generated[3]), PER_NODE_MR_FNV, "racks = {racks}");
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
