//! Integration tests of the online engine against the full
//! collector/analysis stack (the paper's deployment, compressed in time).

use std::sync::Arc;
use std::time::Duration;

use asdf::experiments::{self, CampaignConfig};
use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::online::OnlineEngine;
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_modules::training::BlackBoxModel;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::{Cluster, ClusterConfig};

#[test]
fn online_engine_runs_the_full_pipeline_in_compressed_time() {
    let cfg = CampaignConfig {
        slaves: 5,
        training_secs: 180,
        window: 20,
        n_states: 6,
        ..CampaignConfig::smoke()
    };
    let model = experiments::train_model(&cfg);

    let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(cfg.slaves, 8), Vec::new()));
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle.clone());
    let config = AsdfBuilder::new(AsdfOptions {
        window: cfg.window,
        slide: cfg.window,
        consecutive: 1,
        ..AsdfOptions::default()
    })
    .with_model(model)
    .config(cfg.slaves);
    let dag = Dag::build(&registry, &config).expect("builds");

    let engine = OnlineEngine::builder(dag)
        .wall_per_tick(Duration::from_millis(4))
        .tap("bb")
        .tap("wb_tt")
        .start()
        .expect("starts");

    // Let ~100 compressed seconds elapse: several analysis windows. The
    // engine clock is wall-derived while the cluster advances on a module
    // thread, so under scheduler load the simulation can trail the clock
    // briefly — wait on both, bounded by the deadline.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while (engine.now().as_secs() < 100 || handle.now() < 90)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
        assert!(!engine.has_failed(), "no module may fail online");
    }
    assert!(engine.now().as_secs() >= 100, "engine too slow");

    // The simulation advanced in lockstep-ish with the wall clock.
    let sim_now = handle.now();
    assert!(sim_now >= 90, "cluster should have advanced: {sim_now}");

    // Both analyses produced window evaluations.
    let bb = engine.tap_handle("bb").unwrap().drain();
    let wb = engine.tap_handle("wb_tt").unwrap().drain();
    engine.stop().expect("clean stop");
    assert!(
        bb.iter().any(|e| e.source.name.starts_with("dist")),
        "black-box analysis should emit distances online"
    );
    assert!(
        wb.iter().any(|e| e.source.name.starts_with("kcrit")),
        "white-box analysis should emit kcrit online"
    );
    // Alarm envelopes carry node hostnames as origins.
    assert!(bb
        .iter()
        .filter(|e| e.source.name.starts_with("alarm"))
        .all(|e| e.source.origin.starts_with("slave")));
}

/// The 5-slave Figure-4 pipeline over a fresh seed-8 cluster, and the
/// handle on that cluster.
fn figure4(cfg: &CampaignConfig, model: &Arc<BlackBoxModel>) -> (Dag, ClusterHandle) {
    let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(cfg.slaves, 8), Vec::new()));
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle.clone());
    let config = AsdfBuilder::new(AsdfOptions {
        window: cfg.window,
        slide: cfg.window,
        consecutive: 1,
        ..AsdfOptions::default()
    })
    .with_model(Arc::clone(model))
    .config(cfg.slaves);
    (Dag::build(&registry, &config).expect("builds"), handle)
}

#[test]
fn online_tap_streams_equal_run_for_over_the_same_ticks() {
    let cfg = CampaignConfig {
        slaves: 5,
        training_secs: 180,
        window: 20,
        n_states: 6,
        ..CampaignConfig::smoke()
    };
    let model = experiments::train_model(&cfg);
    let (dag, handle) = figure4(&cfg, &model);
    let engine = OnlineEngine::builder(dag)
        .wall_per_tick(Duration::from_millis(2))
        .tap("bb")
        .tap("wb_tt")
        .start()
        .expect("starts");
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while engine.now().as_secs() < 70 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let seen = engine.now().as_secs();
    assert!(seen >= 70, "engine too slow");
    let online = ["bb", "wb_tt"].map(|id| engine.tap_handle(id).unwrap().clone());
    engine.flush_and_stop().expect("clean flush");
    // `cluster_driver` advances the cluster one second per tick, so the
    // cluster's clock is the number of ticks the engine ran in all:
    // those seen above, any since, and the flush's final one.
    let ticks = handle.now();
    assert!(ticks > seen, "{ticks} ticks, {seen} seen before the flush");

    let (dag, handle) = figure4(&cfg, &model);
    let mut engine = TickEngine::new(dag);
    let offline = ["bb", "wb_tt"].map(|id| engine.tap(id).unwrap());
    engine.run_for(TickDuration::from_secs(ticks)).unwrap();
    assert_eq!(handle.now(), ticks);

    for ((id, online), offline) in ["bb", "wb_tt"].into_iter().zip(online).zip(offline) {
        let (online, offline) = (online.drain(), offline.drain());
        assert!(!online.is_empty(), "`{id}` should have evaluated windows");
        assert!(
            online == offline,
            "`{id}`: {} envelopes online, {} from run_for({ticks})",
            online.len(),
            offline.len()
        );
    }
}
