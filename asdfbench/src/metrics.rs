//! Every metric the benchmark prints: name, unit, direction and, for the
//! end-to-end ones, the bound by which it may worsen before `compare` (and
//! the benchmark driver) calls a regression. `BENCHMARK.json` lists the
//! same tables; a test keeps the two equal.

/// `-1`: this workload cannot observe the metric (`serve2_flood` is a black
/// box to the module decorator; DAG workloads have no ingress queue). `0` is
/// a measurement: the layer was wired in and did no work.
pub const NOT_OBSERVABLE: f64 = -1.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the reference median the metric may worsen by.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_ms_per_monitored_s", "ms", "lower", 0.25),
    e2e("cpu_ms_per_monitored_s", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// End-to-end too, but not on every workload (slide-to-verdict and
/// diagnosis quality are unobservable under `serve`, accuracy is undefined
/// on the rank-only path), so the benchmark contract files them per layer;
/// the suite and `compare` still judge them with these bounds. A bound of 0
/// means the value is a deterministic function of the seed and must repeat.
pub const END_TO_END_WHERE_OBSERVABLE: &[MetricDef] = &[
    e2e("verdict_ms_p50", "ms", "lower", 0.25),
    e2e("detect_latency_s", "s", "lower", 0.0),
    e2e("balanced_accuracy_pct", "%", "higher", 0.0),
];

pub const PER_LAYER: &[MetricDef] = &[
    layer("verdict_ms_p50", "ms", "lower"),
    layer("verdict_ms_tail", "ms", "lower"),
    layer("verdict_tail_pct", "%", "higher"),
    layer("verdict_samples", "count", "higher"),
    layer("detect_latency_s", "s", "lower"),
    layer("balanced_accuracy_pct", "%", "higher"),
    layer("asdf.pipeline.config_gen_ms", "ms", "lower"),
    layer("asdf_core.dag.build_ms", "ms", "lower"),
    layer("asdf_core.dag.module_init_ms", "ms", "lower"),
    layer("asdf_core.engine.new_ms", "ms", "lower"),
    layer("asdf_core.dag.instances", "count", "lower"),
    layer("asdf_modules.cluster_driver.busy_ms", "ms", "lower"),
    layer("hadoop_sim.advance_ms_per_tick", "ms", "lower"),
    layer("asdf_modules.sadc.busy_ms", "ms", "lower"),
    layer("asdf_modules.sadc.calls", "count", "lower"),
    layer("asdf_rpc.sadc_poll_us", "us", "lower"),
    layer("asdf_rpc.log_poll_us", "us", "lower"),
    layer("asdf_rpc.wire_roundtrip_ns", "ns", "lower"),
    layer("asdf_rpc.bytes_per_node_s", "count", "lower"),
    layer("asdf_modules.hadoop_log.busy_ms", "ms", "lower"),
    layer("asdf_modules.hadoop_log.calls", "count", "lower"),
    layer("hadoop_logs.parse_lines_per_s", "1/s", "higher"),
    layer("asdf_modules.knn.busy_ms", "ms", "lower"),
    layer("asdf_modules.knn.calls", "count", "lower"),
    layer("asdf_modules.kernel.argmin_ns", "ns", "lower"),
    layer("asdf_modules.mavgvec.busy_ms", "ms", "lower"),
    layer("asdf_modules.mavgvec.verdict_ms", "ms", "lower"),
    layer("asdf_modules.analysis_bb.busy_ms", "ms", "lower"),
    layer("asdf_modules.analysis_bb.verdict_ms", "ms", "lower"),
    layer("asdf_modules.analysis_wb.busy_ms", "ms", "lower"),
    layer("asdf_modules.analysis_wb.verdict_ms", "ms", "lower"),
    layer("asdf_modules.rack_agg.busy_ms", "ms", "lower"),
    layer("asdf_modules.rack_agg.verdict_ms", "ms", "lower"),
    layer("asdf_modules.metric_rank.busy_ms", "ms", "lower"),
    layer("asdf_modules.metric_rank.verdict_ms", "ms", "lower"),
    layer("asdf_modules.print.busy_ms", "ms", "lower"),
    layer("asdf_core.engine.self_ms", "ms", "lower"),
    layer("asdf_core.engine.verdict_self_ms", "ms", "lower"),
    layer("asdf_core.engine.envelopes_routed", "count", "lower"),
    layer("asdf_core.engine.tick_ms_p50", "ms", "lower"),
    layer("asdf_core.engine.tick_ms_max", "ms", "lower"),
    layer("asdf.serve.join_ms", "ms", "lower"),
    layer("asdf.serve.feed_s", "s", "lower"),
    layer("asdf.serve.drain_s", "s", "lower"),
    layer("asdf.serve.flush_s", "s", "lower"),
    layer("asdf.serve.delivered", "count", "higher"),
    layer("asdf.serve.shed_frames", "count", "lower"),
    layer("asdf_core.online.lag_watermark_ticks", "count", "lower"),
    layer("proc.threads_peak", "count", "lower"),
    layer("asdf.serve.rss_peak_mb", "MB", "lower"),
    layer("asdf.serve.feeder_only_s", "s", "lower"),
    layer("asdf_modules.training.fit_s", "s", "lower"),
    layer("proc.ctx_switches_invol", "count", "lower"),
    layer("proc.minor_faults", "count", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
];

/// One printed value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The metrics of `defs`, in order, with the values found in `values`
/// (`NOT_OBSERVABLE` for the rest).
pub fn fill(defs: &[MetricDef], values: &[(&str, f64)]) -> Vec<Metric> {
    defs.iter()
        .map(|def| Metric {
            name: def.name,
            unit: def.unit,
            value: values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(NOT_OBSERVABLE, |(_, v)| *v),
        })
        .collect()
}
