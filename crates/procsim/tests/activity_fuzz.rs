//! Property tests: the metric synthesizer is total and sane over the whole
//! activity space.

use procsim::activity::{Activity, ProcessActivity};
use procsim::node::{NodeSim, NodeSpec};
use proptest::prelude::*;

fn arb_activity() -> impl Strategy<Value = Activity> {
    (
        0.0f64..64.0,     // cpu_user (can exceed capacity; must clamp)
        0.0f64..16.0,     // cpu_system
        0.0f64..10.0,     // io_wait_tasks
        0.0f64..1e6,      // disk_read_kb
        0.0f64..1e6,      // disk_write_kb
        0.0f64..1e6,      // net_rx_kb
        0.0f64..1e6,      // net_tx_kb
        0.0f64..20_000.0, // mem_used_mb (can exceed RAM; swap path)
        0.0f64..1.0,      // packet_loss
    )
        .prop_map(
            |(cpu_user, cpu_system, io_wait, dr, dw, rx, tx, mem, loss)| {
                let mut a = Activity::idle()
                    .with_cpu_user(cpu_user)
                    .with_cpu_system(cpu_system)
                    .with_disk_read_kb(dr)
                    .with_disk_write_kb(dw)
                    .with_net_rx_kb(rx)
                    .with_net_tx_kb(tx)
                    .with_mem_used_mb(mem);
                a.io_wait_tasks = io_wait;
                a.packet_loss = loss;
                a
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every metric is finite and non-negative; CPU percentages stay in
    /// range and memory never exceeds 100%.
    #[test]
    fn frames_are_sane_for_arbitrary_activity(
        seed in 0u64..1_000,
        activities in proptest::collection::vec(arb_activity(), 1..20),
        proc_cpu in 0.0f64..8.0,
        proc_rss in 0.0f64..4_000.0,
    ) {
        let mut node = NodeSim::new(NodeSpec::ec2_large("fuzz"), seed);
        let pa = ProcessActivity {
            cpu_user: proc_cpu,
            rss_mb: proc_rss,
            threads: 10.0,
            ..Default::default()
        };
        for a in &activities {
            let frame = node.tick(a, &pa, &pa);
            for (i, &x) in frame.values().iter().enumerate() {
                prop_assert!(x.is_finite(), "metric {i} not finite: {x}");
                prop_assert!(x >= 0.0, "metric {i} negative: {x}");
            }
            for c in 0..6 {
                prop_assert!(frame.node()[c] <= 110.0, "cpu pct {c} out of range");
            }
            prop_assert!(frame.node()[procsim::metrics::node_idx::PCT_MEMUSED] <= 100.0);
            // Syscall synthesis is also total.
            let sys = node.syscall_rates(&pa);
            prop_assert!(sys.iter().all(|&x| x.is_finite() && x >= 0.0));
        }
    }

    /// The frame layout is stable: names and values always align.
    #[test]
    fn flatten_and_names_always_align(seed in 0u64..100, a in arb_activity()) {
        let mut node = NodeSim::new(NodeSpec::ec2_large("fuzz"), seed);
        let daemon = ProcessActivity::default();
        let frame = node.tick(&a, &daemon, &daemon);
        prop_assert_eq!(frame.values().len(), procsim::metrics::sadc_names().len());
        let blocks = [frame.node(), frame.iface(), frame.process(0), frame.process(1)];
        prop_assert_eq!(blocks.concat(), frame.values());
    }
}
