//! Long-run invariant checks on the cluster simulator: whatever the
//! workload and fault mix, the observable surfaces stay physically sane.

use hadoop_sim::cluster::{Cluster, ClusterConfig, ClusterStats};
use hadoop_sim::faults::{FaultKind, FaultSpec};
use procsim::metrics::node_idx;

fn check_frames_sane(cluster: &mut Cluster, n: usize, label: &str) {
    for node in 0..n {
        let Some(frame) = cluster.latest_frame(node) else {
            continue;
        };
        let flat = frame.values();
        for (i, &x) in flat.iter().enumerate() {
            assert!(
                x.is_finite() && x >= 0.0,
                "{label}: node {node} metric {i} is insane: {x}"
            );
        }
        let cpu_sum: f64 = frame.node()[0..6].iter().sum();
        assert!(
            (50.0..=160.0).contains(&cpu_sum),
            "{label}: node {node} cpu percentages sum to {cpu_sum}"
        );
        assert!(
            frame.node()[node_idx::PCT_MEMUSED] <= 100.0,
            "{label}: memory over 100%"
        );
    }
}

fn stats_monotone(prev: ClusterStats, cur: ClusterStats) {
    assert!(cur.jobs_completed >= prev.jobs_completed);
    assert!(cur.maps_done >= prev.maps_done);
    assert!(cur.reduces_done >= prev.reduces_done);
    assert!(cur.task_failures >= prev.task_failures);
}

#[test]
fn fault_free_long_run_stays_sane_and_makes_progress() {
    let n = 8;
    let mut cluster = Cluster::new(ClusterConfig::new(n, 77), Vec::new());
    let mut prev = cluster.stats();
    for chunk in 0..20 {
        cluster.advance(120);
        check_frames_sane(&mut cluster, n, &format!("chunk {chunk}"));
        let cur = cluster.stats();
        stats_monotone(prev, cur);
        prev = cur;
    }
    let s = cluster.stats();
    assert!(s.jobs_completed >= 10, "2400 s should complete jobs: {s:?}");
    assert_eq!(s.task_failures, 0, "no failures without faults: {s:?}");
}

#[test]
fn every_fault_keeps_the_simulation_sane() {
    let n = 6;
    for kind in FaultKind::ALL {
        let mut cluster = Cluster::new(
            ClusterConfig::new(n, 13),
            vec![FaultSpec {
                node: 2,
                kind,
                start_at: 120,
            }],
        );
        let mut prev = cluster.stats();
        for chunk in 0..10 {
            cluster.advance(120);
            check_frames_sane(&mut cluster, n, &format!("{kind} chunk {chunk}"));
            let cur = cluster.stats();
            stats_monotone(prev, cur);
            prev = cur;
        }
        // Even with a sick node, the cluster as a whole makes progress
        // (timeouts, blacklisting and retries route around it).
        assert!(
            cluster.stats().maps_done > 50,
            "{kind}: cluster starved: {:?}",
            cluster.stats()
        );
    }
}

#[test]
fn log_volume_stays_bounded() {
    // Logging is event-driven; a quiet or sick cluster must not spam.
    let n = 4;
    let mut cluster = Cluster::new(
        ClusterConfig::new(n, 5),
        vec![FaultSpec {
            node: 1,
            kind: FaultKind::Hadoop1152,
            start_at: 60,
        }],
    );
    cluster.advance(600);
    for node in 0..n {
        let (tt, dn) = cluster.drain_logs(node);
        let total = tt.len() + dn.len();
        assert!(
            total < 4000,
            "node {node} wrote {total} lines in 600 s — runaway logging"
        );
    }
}

#[test]
fn decommissioned_cluster_still_renders_metrics() {
    let n = 4;
    let mut cluster = Cluster::new(ClusterConfig::new(n, 9), Vec::new());
    cluster.advance(60);
    cluster.decommission(0);
    cluster.advance(120);
    // Monitoring continues on the decommissioned node.
    let frame = cluster.latest_frame(0).unwrap();
    assert!(
        frame.node()[node_idx::CPU_IDLE] > 50.0,
        "node 0 should idle"
    );
    assert!(cluster.latest_tt_syscalls(0).is_some());
    cluster.recommission(0);
    assert!(!cluster.is_decommissioned(0));
}

#[test]
fn untailed_logs_are_bounded_and_tailed_logs_are_untouched() {
    use hadoop_sim::logging::LOG_RETAIN_LINES;
    let disk_hog = || FaultSpec {
        node: 2,
        kind: FaultKind::DiskHog,
        start_at: 60,
    };

    // A log tailed every second is byte for byte what it was before logs
    // were bounded: 1244 lines with this FNV-1a digest, computed on the
    // commit before the cap existed.
    let mut tailed = Cluster::new(ClusterConfig::new(5, 7), vec![disk_hog()]);
    let (mut lines, mut digest) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for _ in 0..300 {
        tailed.tick();
        for node in 0..5 {
            let (tt, dn) = tailed.drain_logs(node);
            for line in tt.iter().chain(&dn) {
                lines += 1;
                for b in line.bytes().chain([b'\n']) {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    assert_eq!((lines, digest), (1244, 0xa4ea_1902_00c6_d0f1));
    assert_eq!(tailed.stats().log_lines_dropped, 0);

    // Five minutes with no tailer (a rank-only or black-box-only
    // deployment) stay far under the cap: every line is still there.
    let mut untailed = Cluster::new(ClusterConfig::new(5, 7), vec![disk_hog()]);
    untailed.advance(300);
    assert_eq!(untailed.stats().log_lines_dropped, 0);
    let kept: usize = (0..5)
        .map(|node| {
            let (tt, dn) = untailed.drain_logs(node);
            assert!(tt.len().max(dn.len()) < LOG_RETAIN_LINES / 8);
            tt.len() + dn.len()
        })
        .sum();
    assert_eq!(kept as u64, lines);

    // Left alone for three hours, a log stops at the cap, the newest lines
    // are the ones kept, and the rest are counted.
    let mut forgotten = Cluster::new(ClusterConfig::new(2, 7), Vec::new());
    forgotten.advance(3 * 3600);
    let dropped = forgotten.stats().log_lines_dropped;
    assert!(dropped > 0, "three hours of two nodes overflow a log");
    for node in 0..2 {
        let (tt, dn) = forgotten.drain_logs(node);
        assert!(tt.len() <= LOG_RETAIN_LINES && dn.len() <= LOG_RETAIN_LINES);
        let newest = tt.last().expect("a tasktracker that ran for hours logged");
        assert!(newest.starts_with("2008-04-15 16:5"), "kept: {newest}");
    }
    forgotten.advance(60);
    assert_eq!(forgotten.stats().log_lines_dropped, dropped, "room again");
}
