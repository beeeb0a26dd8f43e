//! Fidelity test: a pipeline shaped like the paper's Figure 3 snippet —
//! `sadc → onenn (knn) → ibuffer → print` — parses from the paper's own
//! dialect and runs end to end against the simulated cluster.

use asdf::experiments::{self, CampaignConfig};
use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::{Cluster, ClusterConfig};

#[test]
fn figure_3_shaped_pipeline_runs_from_config_text() {
    // Train a small workload model so knn has real centroids.
    let cfg = CampaignConfig {
        slaves: 3,
        training_secs: 180,
        n_states: 4,
        ..CampaignConfig::smoke()
    };
    let model = experiments::train_model(&cfg);

    let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(3, 77), Vec::new()));
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle.clone());

    // The paper's Figure 3 wiring, written in its dialect: knn state
    // indices buffered by ibuffer before reaching the sink. `sadc0` holds
    // a one-node rack, so each of its frames is answered with one index.
    let text = format!(
        "\
[cluster_driver]
id = drv

[sadc]
id = sadc0
nodes = 0..1
input[clock] = drv.tick

[knn]
id = onenn0
centroids = {cents}
stddev = {sd}
input[input] = sadc0.frame

[ibuffer]
id = buf0
input[input] = onenn0.output0
size = 10

[print]
id = BlackBoxAlarm
only_alarms = false
input[a] = @buf0
",
        cents = model.centroids_param(),
        sd = model.stddev_param(),
    );
    let config: Config = text.parse().expect("paper-dialect config parses");
    let dag = Dag::build(&registry, &config).expect("builds");
    assert_eq!(
        dag.topo_ids(),
        ["drv", "sadc0", "onenn0", "buf0", "BlackBoxAlarm"]
    );

    let mut engine = TickEngine::new(dag);
    let buf_tap = engine.tap("buf0").unwrap();
    let sink_tap = engine.tap("BlackBoxAlarm").unwrap();
    engine
        .run_for(TickDuration::from_secs(65))
        .expect("pipeline runs");

    // ibuffer batches 10 per-second state indices into vectors.
    let batches = buf_tap.drain();
    assert_eq!(batches.len(), 6, "65 s -> six 10-sample batches");
    for env in &batches {
        let v = env.sample.value.as_vector().expect("batch is a vector");
        assert_eq!(v.len(), 10);
        assert!(v
            .iter()
            .all(|&s| s >= 0.0 && (s as usize) < model.n_states()));
        assert_eq!(env.source.origin, "slave00", "origin flows through ibuffer");
    }
    // The sink rendered each batch.
    assert_eq!(sink_tap.drain().len(), 6);
}
