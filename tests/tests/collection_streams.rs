//! The collection side, pinned: every simulated node-second and every
//! collector's emitted rows, as FNV-1a constants recorded while a node's
//! metrics still lived in four buffers, a tick rebuilt its per-node state
//! and a collector staged each node's row before copying it into the
//! frame. Rendering, polling and framing must move the same bits.

use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::{TapHandle, TickEngine};
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};
use integration_tests::support;

/// FNV-1a (64 bit), fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f64]) {
        self.eat(&(values.len() as u64).to_le_bytes());
        values
            .iter()
            .for_each(|x| self.eat(&x.to_bits().to_le_bytes()));
    }
}

/// A cluster with a fault on each of the simulator's paths: a disk hog
/// (local arbitration), packet loss (flows, fetch failures and their
/// blame) and a copy-failure bug (task failures blamed on the node).
fn faulty_cluster(slaves: usize, seed: u64) -> Cluster {
    let fault = |node, kind, start_at| FaultSpec {
        node,
        kind,
        start_at,
    };
    let faults = vec![
        fault(3, FaultKind::DiskHog, 30),
        fault(7, FaultKind::PacketLoss, 60),
        fault(11, FaultKind::Hadoop1152, 90),
    ];
    Cluster::new(ClusterConfig::new(slaves, seed), faults)
}

const SIMULATOR_FNV: u64 = 0xdafd_1ef0_b234_0c98;

#[test]
fn simulated_node_seconds_hold_their_pinned_digest() {
    // Every node's metrics, syscall counts and log lines, every second.
    let mut cluster = faulty_cluster(40, 11);
    let mut fnv = Fnv::new();
    for _ in 0..300 {
        cluster.tick();
        for node in 0..40 {
            fnv.floats(cluster.latest_frame(node).expect("ticked").values());
            fnv.floats(cluster.latest_tt_syscalls(node).expect("ticked"));
            let (tt, dn) = cluster.drain_logs(node);
            for line in tt.iter().chain(&dn) {
                fnv.eat(line.as_bytes());
                fnv.eat(&[0]);
            }
        }
    }
    assert_eq!(fnv.0, SIMULATOR_FNV, "{:#018x}", fnv.0);
}

const RACK_FRAMES_FNV: u64 = 0x2027_1578_94da_1825;

#[test]
fn collector_rows_hold_their_pinned_digest() {
    // Every collector kind over a rack and over one node, clocked by the
    // driver, on the faulty cluster: the rows the engine routes.
    let collectors = [
        ("sadc", ""),
        ("hadoop_log", "daemon = tasktracker\n"),
        ("hadoop_log", "daemon = datanode\n"),
        ("strace", ""),
    ];
    let mut config = String::from("[cluster_driver]\nid = drv\n\n");
    let mut ids = Vec::new();
    for (i, (kind, params)) in collectors.iter().enumerate() {
        for (form, nodes) in [("rack", "nodes = 0..12"), ("node", "nodes = 11..12")] {
            let id = format!("{form}{i}");
            config.push_str(&format!(
                "[{kind}]\nid = {id}\n{params}{nodes}\ninput[clock] = drv.tick\n\n"
            ));
            ids.push(id);
        }
    }
    let handle = ClusterHandle::new(faulty_cluster(12, 5));
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle);
    let config: Config = config.parse().expect("parses");
    let mut engine = TickEngine::new(Dag::build(&registry, &config).expect("builds"));
    let taps: Vec<TapHandle> = ids.iter().map(|id| engine.tap(id).expect("tap")).collect();
    engine.run_for(TickDuration::from_secs(150)).expect("runs");
    let streams: Vec<_> = taps.iter().map(TapHandle::drain).collect();
    assert!(streams.iter().all(|s| s.len() >= 149));
    let fnv = support::fnv1a(&streams);
    assert_eq!(fnv, RACK_FRAMES_FNV, "{fnv:#018x}");
}
