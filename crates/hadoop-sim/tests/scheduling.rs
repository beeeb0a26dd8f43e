//! Behavioural tests of the jobtracker mechanisms that the fault
//! localization results depend on: task timeouts, fetch-stall
//! blacklisting, and the lame-duck failure magnet.

use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};

#[test]
fn hung_maps_are_rescued_by_speculative_execution() {
    // HADOOP-1036 pins every map scheduled on node 1 forever. Speculative
    // execution launches duplicates elsewhere; when a duplicate wins, the
    // hung original is killed — so jobs keep completing and the culprit's
    // log fills with jobtracker kills.
    let mut cluster = Cluster::new(
        ClusterConfig::new(6, 41),
        vec![FaultSpec {
            node: 1,
            kind: FaultKind::Hadoop1036,
            start_at: 60,
        }],
    );
    cluster.advance(2400);
    let s = cluster.stats();
    assert!(
        s.jobs_completed > 30,
        "speculation must keep jobs flowing despite the hang: {s:?}"
    );
    let (tt, _) = cluster.drain_logs(1);
    let kills = tt.iter().filter(|l| l.contains("was killed.")).count();
    assert!(
        kills > 5,
        "losing hung attempts must be killed on the culprit: {kills}"
    );
}

#[test]
fn without_speculation_hung_maps_rely_on_the_task_timeout() {
    let mut cfg = ClusterConfig::new(6, 41);
    cfg.speculative_execution = false;
    let mut cluster = Cluster::new(
        cfg,
        vec![FaultSpec {
            node: 1,
            kind: FaultKind::Hadoop1036,
            start_at: 60,
        }],
    );
    cluster.advance(2400);
    let s = cluster.stats();
    assert!(
        s.task_failures > 0,
        "hung attempts must be timed out when speculation is off: {s:?}"
    );
    let (tt, _) = cluster.drain_logs(1);
    assert!(
        tt.iter().any(|l| l.contains("task timeout")),
        "timeout failures must be logged on the culprit"
    );
}

#[test]
fn packet_loss_node_is_routed_around() {
    // With 50% loss, shuffles from the sick node starve; fetch-stall
    // blacklisting re-executes its map outputs elsewhere, so the cluster
    // keeps completing jobs at a useful rate.
    let mut faulty = Cluster::new(
        ClusterConfig::new(6, 43),
        vec![FaultSpec {
            node: 2,
            kind: FaultKind::PacketLoss,
            start_at: 120,
        }],
    );
    let mut clean = Cluster::new(ClusterConfig::new(6, 43), Vec::new());
    faulty.advance(2400);
    clean.advance(2400);
    let f = faulty.stats();
    let c = clean.stats();
    assert!(
        f.jobs_completed * 2 > c.jobs_completed,
        "blacklisting should preserve most throughput: faulty {f:?} vs clean {c:?}"
    );
    assert!(f.jobs_completed <= c.jobs_completed, "loss cannot help");
}

#[test]
fn failing_node_keeps_producing_failures_and_peers_do_not() {
    // HADOOP-1152 kills every reduce that lands on node 1 within seconds.
    // Lame-duck magnetism plus fresh jobs (per-job blacklisting only
    // protects a job after two failures) keep a steady failure stream on
    // the culprit — the white-box TaskFailed signal — while healthy peers
    // stay failure-free.
    let n = 8;
    let mut cluster = Cluster::new(
        ClusterConfig::new(n, 47),
        vec![FaultSpec {
            node: 1,
            kind: FaultKind::Hadoop1152,
            start_at: 120,
        }],
    );
    let mut failures = vec![0usize; n];
    for _ in 0..1800 {
        cluster.tick();
        for (node, count) in failures.iter_mut().enumerate() {
            let (tt, _) = cluster.drain_logs(node);
            *count += tt.iter().filter(|l| l.contains(" WARN ")).count();
        }
    }
    let culprit = failures[1];
    let peer_total: usize = failures
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, &c)| c)
        .sum();
    assert!(
        culprit > 10,
        "culprit must keep failing reduces: {failures:?}"
    );
    assert_eq!(peer_total, 0, "healthy peers must not fail: {failures:?}");
    assert!(cluster.stats().task_failures > 10);
}

#[test]
fn timeouts_do_not_fire_on_healthy_clusters() {
    let mut cluster = Cluster::new(ClusterConfig::new(6, 53), Vec::new());
    cluster.advance(2400);
    assert_eq!(
        cluster.stats().task_failures,
        0,
        "healthy tasks must never hit the timeout: {:?}",
        cluster.stats()
    );
}

#[test]
fn disk_hog_eventually_finishes_its_20_gb() {
    // The DiskHog writes 20 GB then stops; the node must return to normal.
    let mut cluster = Cluster::new(
        ClusterConfig::new(4, 59),
        vec![FaultSpec {
            node: 0,
            kind: FaultKind::DiskHog,
            start_at: 30,
        }],
    );
    // 20 GB at <= 80 MB/s needs >= 256 s; give it ample time plus margin.
    cluster.advance(1200);
    assert!(
        !cluster.fault_active(0),
        "disk hog must complete its fixed write volume"
    );
    use procsim::metrics::node_idx;
    let f = cluster.latest_frame(0).unwrap();
    assert!(
        f.node()[node_idx::BWRTN] < 60_000.0,
        "write traffic should subside after the hog finishes: {}",
        f.node()[node_idx::BWRTN]
    );
}
