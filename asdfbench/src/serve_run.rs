//! One pass of `serve2_flood`: the path production uses.
//!
//! `ServeDaemon` is a black box from outside: tenants join, their feeders
//! flood the ingress queues, and verdicts are readable only when a tenant
//! leaves. So a pass has four observable phases — join, feed (until every
//! feeder is done), drain (until every queue is empty) and flush
//! (`shutdown`) — and no per-module budget.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asdf::serve::{
    encode_frame, ServeDaemon, ServeOptions, TenantSpec, STREAM_LOG, STREAM_SADC, STREAM_STRACE,
};
use asdf_modules::training::BlackBoxModel;
use asdf_rpc::daemons::{ClusterHandle, Collector, HadoopLogRpcd, LogDaemon, SadcRpcd, StraceRpcd};
use asdf_rpc::meter::{process_rss_mb, CpuMeter};
use asdf_rpc::wire::Handshake;
use hadoop_sim::cluster::{Cluster, ClusterConfig};

use crate::dag_run::Fnv;
use crate::workloads::ServeSpec;

/// How long a phase may take before the pass is declared stuck.
const PHASE_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Default)]
pub struct ServePass {
    /// All `join_tenant` calls together: the workload's set-up.
    pub join_s: f64,
    pub feed_s: f64,
    pub drain_s: f64,
    pub flush_s: f64,
    /// First join through `shutdown` returning.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Highest RSS seen in the pass: sampled every 16 ms while the feeders
    /// run, then when the queues are empty and when `shutdown` has returned.
    pub rss_peak_mb: f64,
    pub delivered: u64,
    pub shed: u64,
    pub lag_watermark_ticks: i64,
    pub threads_peak: u64,
    /// FNV-1a over tenant 0's alarm streams.
    pub digest: u64,
    pub bb_rows: u64,
    pub errors: Vec<String>,
}

fn tenant_id(i: usize) -> String {
    format!("tenant{i}")
}

/// Threads of this process right now, from `/proc/self/status`.
fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("Threads:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// One pass. `flood` is the workload proper; without it the tenants stream
/// `spec.paced_steps` steps at a quarter of the engine's tick rate, which it
/// sustains without a backlog.
pub fn run_pass(spec: &ServeSpec, seed: u64, model: &Arc<BlackBoxModel>, flood: bool) -> ServePass {
    let mut pass = ServePass::default();
    let steps = if flood { spec.steps } else { spec.paced_steps };
    let per_tenant_frames = (spec.frames(steps) / spec.tenants as u64) as usize;
    let options = ServeOptions {
        slaves: spec.slaves,
        wall_per_tick: Duration::from_millis(1),
        speed: if flood { 1.0 } else { 0.25 },
        // Never shed: a tenant's whole stream fits its queue.
        queue_capacity: per_tenant_frames + 1,
        window: spec.window,
        slide: spec.window,
        white_box: true,
        ..ServeOptions::default()
    };
    let meter = CpuMeter::start();
    let start = Instant::now();
    let mut daemon = ServeDaemon::new(Arc::clone(model), options);
    for i in 0..spec.tenants {
        // The same seed for every tenant: their alarm streams must then be
        // bitwise equal, whatever the scheduler did to each.
        let hello = Handshake::new(tenant_id(i)).encode();
        let tenant = if flood {
            TenantSpec::flooding(seed, steps)
        } else {
            TenantSpec::paced(seed, steps)
        };
        if let Err(e) = daemon.join_tenant(hello, tenant) {
            pass.errors.push(format!("join failed: {e}"));
            return pass;
        }
    }
    pass.join_s = start.elapsed().as_secs_f64();

    let ids: Vec<String> = (0..spec.tenants).map(tenant_id).collect();
    let mut polls = 0u32;
    while !ids.iter().all(|id| daemon.tenant_done_streaming(id)) {
        if start.elapsed() > PHASE_TIMEOUT {
            pass.errors.push("feeders did not finish".to_owned());
            break;
        }
        if polls.is_multiple_of(16) {
            pass.threads_peak = pass.threads_peak.max(thread_count());
            pass.rss_peak_mb = pass.rss_peak_mb.max(process_rss_mb().unwrap_or(0.0));
        }
        polls += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    let fed = start.elapsed().as_secs_f64();
    pass.feed_s = fed - pass.join_s;
    for id in &ids {
        if !daemon.wait_idle(id, PHASE_TIMEOUT) {
            pass.errors.push(format!("{id} did not drain"));
        }
    }
    let drained = start.elapsed().as_secs_f64();
    pass.drain_s = drained - fed;
    pass.rss_peak_mb = pass.rss_peak_mb.max(process_rss_mb().unwrap_or(0.0));

    let reports = match daemon.shutdown() {
        Ok(reports) => reports,
        Err(e) => {
            pass.errors.push(format!("shutdown failed: {e}"));
            return pass;
        }
    };
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.flush_s = pass.wall_s - drained;
    pass.rss_peak_mb = pass.rss_peak_mb.max(process_rss_mb().unwrap_or(0.0));
    pass.cpu_s = meter.elapsed_cpu();

    for report in &reports {
        pass.delivered += report.delivered;
        pass.shed += report.shed;
        pass.lag_watermark_ticks = pass.lag_watermark_ticks.max(report.lag_watermark);
    }
    let Some(first) = reports.first() else {
        pass.errors.push("no tenant report".to_owned());
        return pass;
    };
    for other in &reports[1..] {
        if other.bb_alarms != first.bb_alarms
            || other.wb_tt_alarms != first.wb_tt_alarms
            || other.wb_st_alarms != first.wb_st_alarms
        {
            pass.errors.push(format!(
                "{} and {} saw the same frames but raised different alarms",
                first.tenant, other.tenant
            ));
        }
    }
    let mut digest = Fnv::default();
    for envs in [&first.bb_alarms, &first.wb_tt_alarms, &first.wb_st_alarms] {
        envs.iter().for_each(|e| digest.envelope(e));
    }
    pass.digest = digest.0;
    // `analysis_bb` emits an alarm and a distance per node-window.
    pass.bb_rows = reports.iter().map(|r| r.bb_alarms.len() as u64 / 2).sum();
    pass
}

/// What the feeders alone cost: the same cluster ticks, the same three
/// collectors per slave and the same frame encoding as `ServeDaemon`'s
/// feeder threads, one thread per tenant, with no engine behind them.
/// Against a pass's wall time this separates generation from diagnosis.
pub fn feeder_only_s(spec: &ServeSpec, seed: u64) -> f64 {
    let feed = |_| {
        let handle = ClusterHandle::new(Cluster::new(
            ClusterConfig::new(spec.slaves, seed),
            Vec::new(),
        ));
        let mut collectors: Vec<(u8, Box<dyn Collector>)> = Vec::new();
        for node in 0..spec.slaves {
            let sadc = SadcRpcd::connect(handle.clone(), node).expect("sadc connects");
            let log = HadoopLogRpcd::connect(handle.clone(), node, LogDaemon::TaskTracker)
                .expect("hadoop_log connects");
            let strace = StraceRpcd::connect(handle.clone(), node).expect("strace connects");
            collectors.push((STREAM_SADC, Box::new(sadc)));
            collectors.push((STREAM_LOG, Box::new(log)));
            collectors.push((STREAM_STRACE, Box::new(strace)));
        }
        let mut bytes = 0usize;
        for _ in 0..spec.steps {
            handle.tick();
            for (stream, collector) in &mut collectors {
                if let Ok(Some(sample)) = collector.poll_sample() {
                    let node = collector.node() as u32;
                    let frame = encode_frame(*stream, node, sample.timestamp, &sample.values);
                    bytes += std::hint::black_box(frame).len();
                }
            }
        }
        bytes
    };
    let start = Instant::now();
    std::thread::scope(|s| {
        let feeders: Vec<_> = (0..spec.tenants)
            .map(|i| s.spawn(move || feed(i)))
            .collect();
        for feeder in feeders {
            std::hint::black_box(feeder.join().expect("feeder thread"));
        }
    });
    start.elapsed().as_secs_f64()
}
