//! Isolated layer probes: one layer at a time, called directly, no engine.
//!
//! A traced pass says how much of a tick a module type took; these say what
//! one operation of the layer underneath costs, so a change in a busy share
//! can be told apart from a change in how often the layer is called. Each
//! probe is sized to a few tenths of a second and reports a median.

use std::time::Instant;

use asdf::serve::{encode_frame, STREAM_SADC};
use asdf_modules::kernel::{argmin_dist2, CentroidBlock};
use asdf_rpc::daemons::{ClusterHandle, Collector, HadoopLogRpcd, LogDaemon, SadcRpcd};
use asdf_rpc::wire::MessageReader;
use hadoop_logs::LogParser;
use hadoop_sim::cluster::{Cluster, ClusterConfig};

use crate::stats::median;

/// Nodes of the cluster the collector and parser probes sample.
const PROBE_NODES: usize = 50;

#[derive(Debug, Clone, Default)]
pub struct Isolated {
    /// `Cluster::advance` per simulated second at the workload's own node
    /// count and shard count, no collectors.
    pub advance_ms_per_tick: f64,
    /// One `Collector::poll_sample` of a `sadc` daemon after a fresh tick.
    pub sadc_poll_us: f64,
    /// The same for a TaskTracker `hadoop_log` daemon.
    pub log_poll_us: f64,
    /// Encode and decode of one 120-wide frame.
    pub wire_roundtrip_ns: f64,
    /// Bytes per node per second over the accounted wire, `sadc` plus both
    /// `hadoop_log` daemons (the paper's Table 4 sum). An exact count.
    pub bytes_per_node_s: f64,
    pub parse_lines_per_s: f64,
    /// Nearest of 12 centroids in 120 dimensions.
    pub argmin_ns: f64,
}

impl Isolated {
    /// The probes under their metric names.
    pub fn values(&self) -> [(&'static str, f64); 7] {
        [
            ("hadoop_sim.advance_ms_per_tick", self.advance_ms_per_tick),
            ("asdf_rpc.sadc_poll_us", self.sadc_poll_us),
            ("asdf_rpc.log_poll_us", self.log_poll_us),
            ("asdf_rpc.wire_roundtrip_ns", self.wire_roundtrip_ns),
            ("asdf_rpc.bytes_per_node_s", self.bytes_per_node_s),
            ("hadoop_logs.parse_lines_per_s", self.parse_lines_per_s),
            ("asdf_modules.kernel.argmin_ns", self.argmin_ns),
        ]
    }
}

/// A deterministic value in `[0, 1)` for filling probe inputs.
fn unit(seed: u64, i: u64) -> f64 {
    let mut x = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn advance_ms_per_tick(nodes: usize, sim_shards: usize, seed: u64) -> f64 {
    let mut cc = ClusterConfig::new(nodes, seed);
    cc.sim_shards = sim_shards;
    let mut cluster = Cluster::new(cc, Vec::new());
    // About a quarter of a second of simulation at any size.
    let ticks = (250_000 / nodes as u64).clamp(20, 2_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            cluster.advance(ticks / 5);
            start.elapsed().as_secs_f64() * 1e3 / (ticks / 5) as f64
        })
        .collect();
    median(&batches)
}

/// Polls every node's daemon once per simulated second; only the polls are
/// timed. Returns `(median µs per poll, wire bytes per poll)`.
fn poll_cost<C: Collector>(
    handle: &ClusterHandle,
    mut daemons: Vec<C>,
    ticks: usize,
) -> (f64, f64) {
    let mut per_tick = Vec::with_capacity(ticks);
    for _ in 0..ticks {
        handle.tick();
        let start = Instant::now();
        for d in &mut daemons {
            std::hint::black_box(d.poll_sample().expect("collector polls"));
        }
        per_tick.push(start.elapsed().as_secs_f64() * 1e6 / daemons.len() as f64);
    }
    let bytes: f64 = daemons
        .iter()
        .map(|d| d.bandwidth().per_iteration_kb() * 1024.0)
        .sum();
    (median(&per_tick), bytes / daemons.len() as f64)
}

fn wire_roundtrip_ns(seed: u64) -> f64 {
    let values: Vec<f64> = (0..120).map(|i| unit(seed, i) * 1e4).collect();
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for t in 0..2_000u64 {
                let frame = encode_frame(STREAM_SADC, 7, t, std::hint::black_box(&values));
                let mut reader = MessageReader::new(frame).expect("framed");
                reader.get_u8().expect("stream tag");
                reader.get_u32().expect("node");
                reader.get_u64().expect("timestamp");
                std::hint::black_box(reader.get_f64_slice().expect("values"));
            }
            start.elapsed().as_nanos() as f64 / 2_000.0
        })
        .collect();
    median(&batches)
}

fn parse_lines_per_s(seed: u64) -> f64 {
    let mut cluster = Cluster::new(ClusterConfig::new(PROBE_NODES, seed), Vec::new());
    let mut lines: Vec<String> = Vec::new();
    for _ in 0..300 {
        cluster.tick();
        for node in 0..PROBE_NODES {
            let (tt, dn) = cluster.drain_logs(node);
            lines.extend(tt);
            lines.extend(dn);
        }
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut parser = LogParser::new();
            let start = Instant::now();
            for line in &lines {
                parser.feed_line(line);
            }
            std::hint::black_box(parser.line_stats());
            lines.len() as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    median(&batches)
}

fn argmin_ns(seed: u64) -> f64 {
    let rows: Vec<Vec<f64>> = (0..12u64)
        .map(|r| (0..120).map(|c| unit(seed, r * 120 + c) * 8.0).collect())
        .collect();
    let block = CentroidBlock::from_rows(&rows);
    let queries: Vec<Vec<f64>> = (0..64u64)
        .map(|q| {
            (0..120)
                .map(|c| unit(seed ^ 0xabcd, q * 120 + c) * 8.0)
                .collect()
        })
        .collect();
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..200 {
                for q in &queries {
                    std::hint::black_box(argmin_dist2(std::hint::black_box(q), &block));
                }
            }
            start.elapsed().as_nanos() as f64 / (200.0 * queries.len() as f64)
        })
        .collect();
    median(&batches)
}

/// Runs every probe. `nodes` and `sim_shards` are the workload's own.
pub fn measure(nodes: usize, sim_shards: usize, seed: u64) -> Isolated {
    let handle = || {
        ClusterHandle::new(Cluster::new(
            ClusterConfig::new(PROBE_NODES, seed),
            Vec::new(),
        ))
    };
    let connect_logs = |h: &ClusterHandle, daemon| -> Vec<HadoopLogRpcd> {
        (0..PROBE_NODES)
            .map(|n| HadoopLogRpcd::connect(h.clone(), n, daemon).expect("hadoop_log connects"))
            .collect()
    };
    let h = handle();
    let sadc: Vec<SadcRpcd> = (0..PROBE_NODES)
        .map(|n| SadcRpcd::connect(h.clone(), n).expect("sadc connects"))
        .collect();
    let (sadc_poll_us, sadc_bytes) = poll_cost(&h, sadc, 120);
    let h = handle();
    let (log_poll_us, tt_bytes) = poll_cost(&h, connect_logs(&h, LogDaemon::TaskTracker), 120);
    let h = handle();
    let (_, dn_bytes) = poll_cost(&h, connect_logs(&h, LogDaemon::DataNode), 120);
    Isolated {
        advance_ms_per_tick: advance_ms_per_tick(nodes, sim_shards, seed),
        sadc_poll_us,
        log_poll_us,
        wire_roundtrip_ns: wire_roundtrip_ns(seed),
        bytes_per_node_s: sadc_bytes + tt_bytes + dn_bytes,
        parse_lines_per_s: parse_lines_per_s(seed),
        argmin_ns: argmin_ns(seed),
    }
}
