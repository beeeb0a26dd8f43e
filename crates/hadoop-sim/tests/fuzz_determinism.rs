//! Property tests: the simulator is deterministic and physically sane for
//! arbitrary fault mixes, seeds and run lengths.

use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};
use procsim::MetricFrame;
use proptest::prelude::*;

fn fault_kind(i: u8) -> FaultKind {
    FaultKind::ALL[i as usize % FaultKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same configuration ⇒ bit-identical metrics, logs and stats, for any
    /// fault mix.
    #[test]
    fn runs_are_deterministic_under_arbitrary_faults(
        seed in 0u64..10_000,
        slaves in 3usize..8,
        secs in 60u64..400,
        fault_sel in proptest::collection::vec((0u8..6, 0usize..8, 0u64..300), 0..3),
    ) {
        let faults: Vec<FaultSpec> = fault_sel
            .iter()
            .map(|&(k, node, at)| FaultSpec {
                node: node % slaves,
                kind: fault_kind(k),
                start_at: at,
            })
            .collect();
        let mut a = Cluster::new(ClusterConfig::new(slaves, seed), faults.clone());
        let mut b = Cluster::new(ClusterConfig::new(slaves, seed), faults);
        for _ in 0..secs {
            a.tick();
            b.tick();
        }
        prop_assert_eq!(a.stats(), b.stats());
        for node in 0..slaves {
            prop_assert_eq!(
                a.latest_frame(node).map(MetricFrame::values),
                b.latest_frame(node).map(MetricFrame::values)
            );
            prop_assert_eq!(a.drain_logs(node), b.drain_logs(node));
            prop_assert_eq!(a.latest_tt_syscalls(node), b.latest_tt_syscalls(node));
        }
    }

    /// Whatever is injected, every rendered metric stays finite and
    /// non-negative, and progress counters never decrease.
    #[test]
    fn metrics_stay_sane_under_arbitrary_faults(
        seed in 0u64..10_000,
        fault_sel in proptest::collection::vec((0u8..6, 0usize..5, 0u64..120), 1..3),
    ) {
        let slaves = 5;
        let faults: Vec<FaultSpec> = fault_sel
            .iter()
            .map(|&(k, node, at)| FaultSpec {
                node: node % slaves,
                kind: fault_kind(k),
                start_at: at,
            })
            .collect();
        let mut cluster = Cluster::new(ClusterConfig::new(slaves, seed), faults);
        let mut prev = cluster.stats();
        for _ in 0..6 {
            cluster.advance(60);
            for node in 0..slaves {
                let frame = cluster.latest_frame(node).unwrap();
                for &x in frame.values() {
                    prop_assert!(x.is_finite() && x >= 0.0, "insane metric {x}");
                }
            }
            let cur = cluster.stats();
            prop_assert!(cur.jobs_completed >= prev.jobs_completed);
            prop_assert!(cur.maps_done >= prev.maps_done);
            prop_assert!(cur.reduces_done >= prev.reduces_done);
            prop_assert!(cur.task_failures >= prev.task_failures);
            prev = cur;
        }
    }
}
