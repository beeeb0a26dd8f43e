//! Integration test of the strace extension (the paper's §5 future-work
//! module): syscall-category traces feed the standard peer-comparison
//! analysis and localize a CPU-spin hang whose signature is a *flatlined*
//! syscall profile.

use asdf_core::config::{Config, InstanceConfig};
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};

/// Builds: one `strace` over every node, its frames into one `mavgvec`,
/// into `analysis_wb` — the same peer-comparison analysis the white-box
/// path uses, now running on syscall vectors.
fn strace_pipeline(n_nodes: usize) -> Config {
    let mut cfg = Config::new();
    let names: Vec<String> = (0..n_nodes).map(|i| format!("slave{i:02}")).collect();
    for inst in [
        InstanceConfig::new("cluster_driver", "drv"),
        InstanceConfig::new("strace", "st")
            .with_param("nodes", format!("0..{n_nodes}"))
            .with_input("clock", "drv", "tick"),
        InstanceConfig::new("mavgvec", "avg")
            .with_param("window", 60)
            .with_input("input", "st", "frame"),
        InstanceConfig::new("analysis_wb", "wb_strace")
            .with_param("k", 3)
            .with_param("consecutive", 2)
            .with_param("nodes", names.join(","))
            .with_input("r0", "avg", "stats"),
    ] {
        cfg.push(inst).unwrap();
    }
    cfg
}

#[test]
fn syscall_traces_localize_a_hung_spinning_task() {
    const NODES: usize = 8;
    const CULPRIT: usize = 3;
    let fault = FaultSpec {
        node: CULPRIT,
        kind: FaultKind::Hadoop1036,
        start_at: 240,
    };
    // Disable speculative execution so hung attempts stay pinned: this
    // test isolates the strace *data path* (syscall vectors through the
    // standard peer comparison), not the jobtracker's rescue machinery,
    // which would otherwise kill each spinning attempt within a window or
    // two of its birth.
    let mut cluster_cfg = ClusterConfig::new(NODES, 404);
    cluster_cfg.speculative_execution = false;
    let cluster = Cluster::new(cluster_cfg, vec![fault]);
    let handle = ClusterHandle::new(cluster);
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle.clone());

    let dag = Dag::build(&registry, &strace_pipeline(NODES)).expect("strace pipeline builds");
    let mut engine = TickEngine::new(dag);
    let tap = engine.tap("wb_strace").unwrap();
    engine
        .run_for(TickDuration::from_secs(1200))
        .expect("pipeline runs");

    let envs = tap.drain();
    let mut alarms_per_node = vec![0usize; NODES];
    for env in &envs {
        if let Some(idx) = env.source.name.strip_prefix("alarm") {
            if env.sample.value.as_bool() == Some(true) {
                alarms_per_node[idx.parse::<usize>().unwrap()] += 1;
            }
        }
    }
    let culprit_hits = alarms_per_node[CULPRIT];
    let peer_max = alarms_per_node
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != CULPRIT)
        .map(|(_, &c)| c)
        .max()
        .unwrap();
    assert!(
        culprit_hits > 0,
        "strace analysis should flag the spinning node: {alarms_per_node:?}"
    );
    assert!(
        culprit_hits > peer_max,
        "culprit must dominate alarms: {alarms_per_node:?}"
    );
}
