//! Experiment campaigns reproducing the paper's evaluation (§4.7–4.9).
//!
//! The protocol mirrors the paper:
//!
//! 1. **Training**: fault-free GridMix runs supply the black-box workload
//!    model (log-σ scaling + k-means centroids) — [`train_model`].
//! 2. **Fault-free evaluation**: more fault-free runs, *different seeds*,
//!    provide the false-positive sweeps of Figure 6 — [`fig6a`], [`fig6b`].
//! 3. **Fault injection**: one fault per run, on one node, scored for
//!    balanced accuracy and fingerpointing latency (Figure 7) — [`fig7`].
//!
//! Tables 3 and 4 (collection overhead, RPC bandwidth) are measured by
//! [`table3`] and [`table4`].
//!
//! Runs within a campaign are independent (each builds its own cluster
//! from its own seed), so the drivers fan them out across the
//! [`crate::campaign`] worker pool; [`CampaignConfig::threads`] bounds the
//! pool and results are byte-identical at any setting.

use std::sync::Arc;

use asdf_modules::training::BlackBoxModel;
use asdf_rpc::daemons::{ClusterHandle, Collector, HadoopLogRpcd, LogDaemon, SadcRpcd};
use asdf_rpc::meter::CpuMeter;
use asdf_rpc::BandwidthStats;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};

use crate::eval::{AnalysisTrace, Confusion, GroundTruth};
use crate::pipeline::{AsdfBuilder, AsdfOptions};

/// Parameters shared by a whole experiment campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Slave nodes per cluster (paper: 50).
    pub slaves: usize,
    /// Seconds each evaluation run lasts.
    pub run_secs: u64,
    /// When the fault is injected within a faulty run.
    pub injection_at: u64,
    /// Node the fault lands on.
    pub fault_node: usize,
    /// Analysis window in samples (paper: 60).
    pub window: usize,
    /// Workload states for the black-box model (k-means k).
    pub n_states: usize,
    /// Seconds of fault-free training data.
    pub training_secs: u64,
    /// Fault-free evaluation runs for Figure 6 (paper: 3).
    pub fault_free_runs: usize,
    /// Independent injected runs per fault for Figure 7; scores are
    /// averaged (latency over detected runs).
    pub fault_runs: usize,
    /// Black-box L1 threshold for Figure 7 (paper: 60).
    pub bb_threshold: f64,
    /// White-box k for Figure 7 (paper: 3).
    pub wb_k: f64,
    /// Consecutive-window confirmation depth (paper: 3).
    pub consecutive: usize,
    /// Base RNG seed; training, evaluation and fault runs derive distinct
    /// seeds from it.
    pub base_seed: u64,
    /// Worker threads for fanning out independent runs (`0` = all
    /// available parallelism). Campaign output is byte-identical at any
    /// setting; this only changes wall-clock time.
    pub threads: usize,
    /// The workload driving every cluster in the campaign (training and
    /// evaluation alike).
    pub workload: Workload,
    /// Also run the Orion+-style `metric_rank` stage, populating
    /// [`RunTraces::metric_ranks`].
    pub metric_rank: bool,
    /// Rack count for the fleet-scale `metric_rank` path (`0`/`1` = flat
    /// per-node wiring). Rankings are bitwise identical at any setting.
    pub racks: usize,
}

/// The workload a campaign drives its clusters with.
#[derive(Debug, Clone, Default)]
pub enum Workload {
    /// GridMix synthesis seeded per run (the paper's setup).
    #[default]
    GridMix,
    /// Deterministic replay of a parsed job trace
    /// (see [`hadoop_sim::trace`]).
    Trace(Arc<hadoop_sim::Trace>),
}

impl Workload {
    /// A short label for reports and benchmark rows.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::GridMix => "gridmix",
            Workload::Trace(_) => "trace",
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            slaves: 20,
            run_secs: 1800,
            injection_at: 600,
            fault_node: 7,
            window: 60,
            n_states: 12,
            training_secs: 900,
            fault_free_runs: 3,
            fault_runs: 3,
            bb_threshold: 40.0,
            wb_k: 3.0,
            consecutive: 3,
            base_seed: 1,
            threads: 0,
            workload: Workload::GridMix,
            metric_rank: false,
            racks: 0,
        }
    }
}

impl CampaignConfig {
    /// A small, fast configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        CampaignConfig {
            slaves: 10,
            run_secs: 960,
            injection_at: 300,
            fault_node: 4,
            window: 60,
            n_states: 12,
            training_secs: 600,
            fault_free_runs: 1,
            fault_runs: 1,
            bb_threshold: 50.0,
            wb_k: 3.0,
            consecutive: 2,
            base_seed: 11,
            threads: 0,
            workload: Workload::GridMix,
            metric_rank: false,
            racks: 0,
        }
    }

    fn options(&self) -> AsdfOptions {
        AsdfOptions {
            window: self.window,
            slide: self.window,
            bb_threshold: self.bb_threshold,
            wb_k: self.wb_k,
            consecutive: self.consecutive,
            black_box: true,
            white_box: true,
            metric_rank: self.metric_rank,
            rank_top: 5,
            racks: self.racks,
            ..AsdfOptions::default()
        }
    }

    /// The cluster configuration for one run: the campaign's workload over
    /// `self.slaves` nodes, seeded by `seed`.
    fn cluster_config(&self, seed: u64) -> ClusterConfig {
        let mut cc = ClusterConfig::new(self.slaves, seed);
        if let Workload::Trace(trace) = &self.workload {
            cc.trace = Some(Arc::clone(trace));
        }
        cc
    }
}

/// Trains the black-box workload model on a fault-free run.
///
/// Every node contributes one flattened metric vector per second. The
/// model is returned behind an [`Arc`] so campaign workers share one copy
/// instead of cloning the centroid matrix per run.
pub fn train_model(cfg: &CampaignConfig) -> Arc<BlackBoxModel> {
    let mut cluster = Cluster::new(cfg.cluster_config(cfg.base_seed ^ 0x7e57_7e57), Vec::new());
    let mut samples: Vec<Vec<f64>> = Vec::new();
    for _ in 0..cfg.training_secs {
        cluster.tick();
        for node in 0..cfg.slaves {
            if let Some(frame) = cluster.latest_frame(node) {
                samples.push(frame.flatten());
            }
        }
    }
    Arc::new(BlackBoxModel::fit(&samples, cfg.n_states, cfg.base_seed))
}

/// The analysis traces of one evaluation run.
#[derive(Debug, Clone)]
pub struct RunTraces {
    /// Black-box trace (score = L1 distance).
    pub bb: AnalysisTrace,
    /// White-box trace, TaskTracker and DataNode paths merged
    /// (score = critical k).
    pub wb: AnalysisTrace,
    /// What was injected.
    pub truth: GroundTruth,
    /// Final per-node metric rankings `(metric index, deviation score)`,
    /// most deviant first — populated when the campaign enables
    /// [`CampaignConfig::metric_rank`].
    pub metric_ranks: Option<Vec<Vec<(usize, f64)>>>,
}

impl RunTraces {
    /// The combined black-box + white-box verdicts (alarm OR), the paper's
    /// "all" series in Figure 7.
    pub fn combined_alarms(&self) -> (Vec<Vec<bool>>, Vec<u64>) {
        let n = self.bb.n_windows().min(self.wb.n_windows());
        let alarms = (0..n)
            .map(|w| {
                self.bb.alarms[w]
                    .iter()
                    .zip(&self.wb.alarms[w])
                    .map(|(a, b)| *a || *b)
                    .collect()
            })
            .collect();
        (alarms, self.bb.window_times[..n].to_vec())
    }
}

/// Runs one evaluation: deploys both analysis paths over a fresh cluster,
/// optionally injecting `fault`, and extracts the traces.
pub fn run_once(
    cfg: &CampaignConfig,
    model: &Arc<BlackBoxModel>,
    fault: Option<FaultKind>,
    seed: u64,
) -> RunTraces {
    let faults: Vec<FaultSpec> = fault
        .map(|kind| {
            vec![FaultSpec {
                node: cfg.fault_node,
                kind,
                start_at: cfg.injection_at,
            }]
        })
        .unwrap_or_default();
    let truth = match fault {
        Some(_) => GroundTruth {
            culprit: Some(cfg.fault_node),
            injected_at: cfg.injection_at,
        },
        None => GroundTruth::fault_free(),
    };
    let cluster = Cluster::new(cfg.cluster_config(seed), faults);
    let mut dep = AsdfBuilder::new(cfg.options())
        .with_model(Arc::clone(model))
        .deploy(cluster)
        .expect("campaign pipeline deploys");
    dep.run_for(cfg.run_secs);

    // One envelope buffer serves all three taps (drain_into reuses its
    // capacity), instead of three fresh allocations per campaign run.
    let mut buf = Vec::new();
    let mut trace = |id: &str, score: &str| {
        buf.clear();
        dep.tap(id).expect("analysis tap").drain_into(&mut buf);
        AnalysisTrace::from_envelopes(&buf, cfg.slaves, score)
    };
    let bb = trace("bb", "dist");
    let wb_tt = trace("wb_tt", "kcrit");
    let wb_dn = trace("wb_dn", "kcrit");
    let metric_ranks = dep.tap("mr").map(|tap| {
        // Keep each node's *last* ranking: the window nearest the end of
        // the run, where the fault has had the longest exposure.
        let mut last: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cfg.slaves];
        for env in tap.drain() {
            let Some(node) = env
                .source
                .name
                .strip_prefix("rank")
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            let row = env.sample.value.as_vector().expect("rank rows are vectors");
            last[node] = row.chunks_exact(2).map(|p| (p[0] as usize, p[1])).collect();
        }
        last
    });
    RunTraces {
        bb,
        wb: wb_tt.merge_max(&wb_dn),
        truth,
        metric_ranks,
    }
}

/// Figure 6(a): black-box false-positive rate vs L1 threshold, over
/// fault-free runs.
///
/// Returns `(threshold, FP rate percent)` pairs.
pub fn fig6a(
    cfg: &CampaignConfig,
    model: &Arc<BlackBoxModel>,
    thresholds: &[f64],
) -> Vec<(f64, f64)> {
    let traces = fault_free_traces(cfg, model);
    thresholds
        .iter()
        .map(|&th| {
            let mut agg = Confusion::default();
            for tr in &traces {
                let flags = tr.bb.reflag(|d| d > th, cfg.consecutive);
                let c = Confusion::tally(&flags, &tr.bb.window_times, GroundTruth::fault_free());
                agg.fp += c.fp;
                agg.tn += c.tn;
            }
            (th, agg.fpr() * 100.0)
        })
        .collect()
}

/// Figure 6(b): white-box false-positive rate vs threshold multiplier k,
/// over fault-free runs.
///
/// Returns `(k, FP rate percent)` pairs.
pub fn fig6b(cfg: &CampaignConfig, model: &Arc<BlackBoxModel>, ks: &[f64]) -> Vec<(f64, f64)> {
    let traces = fault_free_traces(cfg, model);
    ks.iter()
        .map(|&k| {
            let mut agg = Confusion::default();
            for tr in &traces {
                // Node flagged iff k < k_crit.
                let flags = tr.wb.reflag(|kcrit| k < kcrit, cfg.consecutive);
                let c = Confusion::tally(&flags, &tr.wb.window_times, GroundTruth::fault_free());
                agg.fp += c.fp;
                agg.tn += c.tn;
            }
            (k, agg.fpr() * 100.0)
        })
        .collect()
}

fn fault_free_traces(cfg: &CampaignConfig, model: &Arc<BlackBoxModel>) -> Vec<RunTraces> {
    crate::campaign::run_indexed(cfg.fault_free_runs, cfg.threads, |i| {
        run_once(cfg, model, None, cfg.base_seed + 1000 + i as u64)
    })
}

/// One fault's scores for Figure 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultResult {
    /// The injected fault.
    pub fault: FaultKind,
    /// Balanced accuracy of the black-box path (percent).
    pub ba_black_box: f64,
    /// Balanced accuracy of the white-box path (percent).
    pub ba_white_box: f64,
    /// Balanced accuracy of the combined verdicts (percent).
    pub ba_combined: f64,
    /// Black-box fingerpointing latency, seconds (None = never detected).
    pub lat_black_box: Option<u64>,
    /// White-box fingerpointing latency, seconds.
    pub lat_white_box: Option<u64>,
    /// Combined fingerpointing latency, seconds.
    pub lat_combined: Option<u64>,
}

/// Figure 7: balanced accuracy (a) and fingerpointing latency (b) per
/// injected fault, for the black-box, white-box, and combined analyses.
///
/// Each fault is injected in [`CampaignConfig::fault_runs`] independent
/// runs; balanced accuracies are averaged, latencies averaged over the
/// runs that detected the culprit.
pub fn fig7(cfg: &CampaignConfig, model: &Arc<BlackBoxModel>) -> Vec<FaultResult> {
    // Every (fault, repetition) pair is an independent job; flattening the
    // two loops into one job list keeps all workers busy even when
    // fault_runs is small. Seeds depend only on the pair's indices, and
    // results come back in job order, so the averaged rows are identical
    // to the serial nested loops.
    let per_fault = cfg.fault_runs.max(1);
    let scored = crate::campaign::run_indexed(FaultKind::ALL.len() * per_fault, cfg.threads, |j| {
        let (i, r) = (j / per_fault, j % per_fault);
        let fault = FaultKind::ALL[i];
        let seed = cfg.base_seed + 2000 + i as u64 + 100 * r as u64;
        let tr = run_once(cfg, model, Some(fault), seed);
        score_run(&tr, fault)
    });
    FaultKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &fault)| average_results(fault, &scored[i * per_fault..(i + 1) * per_fault]))
        .collect()
}

/// Averages per-run scores into one Figure-7 row.
///
/// Balanced accuracies are arithmetic means over all runs. Latencies are
/// averaged over the runs that detected the culprit and rounded to the
/// nearest whole second (half-up), since window times are whole seconds.
fn average_results(fault: FaultKind, runs: &[FaultResult]) -> FaultResult {
    let n = runs.len().max(1) as f64;
    let mean = |f: fn(&FaultResult) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let mean_lat = |f: fn(&FaultResult) -> Option<u64>| {
        let hits: Vec<u64> = runs.iter().filter_map(f).collect();
        if hits.is_empty() {
            None
        } else {
            Some((hits.iter().sum::<u64>() as f64 / hits.len() as f64).round() as u64)
        }
    };
    FaultResult {
        fault,
        ba_black_box: mean(|r| r.ba_black_box),
        ba_white_box: mean(|r| r.ba_white_box),
        ba_combined: mean(|r| r.ba_combined),
        lat_black_box: mean_lat(|r| r.lat_black_box),
        lat_white_box: mean_lat(|r| r.lat_white_box),
        lat_combined: mean_lat(|r| r.lat_combined),
    }
}

/// Scores one faulty run into a [`FaultResult`].
pub fn score_run(tr: &RunTraces, fault: FaultKind) -> FaultResult {
    use crate::eval::fingerpointing_latency;
    let bb = Confusion::tally(&tr.bb.alarms, &tr.bb.window_times, tr.truth);
    let wb = Confusion::tally(&tr.wb.alarms, &tr.wb.window_times, tr.truth);
    let (all_alarms, all_times) = tr.combined_alarms();
    let all = Confusion::tally(&all_alarms, &all_times, tr.truth);
    FaultResult {
        fault,
        ba_black_box: bb.balanced_accuracy() * 100.0,
        ba_white_box: wb.balanced_accuracy() * 100.0,
        ba_combined: all.balanced_accuracy() * 100.0,
        lat_black_box: fingerpointing_latency(&tr.bb.alarms, &tr.bb.window_times, tr.truth),
        lat_white_box: fingerpointing_latency(&tr.wb.alarms, &tr.wb.window_times, tr.truth),
        lat_combined: fingerpointing_latency(&all_alarms, &all_times, tr.truth),
    }
}

/// One row of an ablation sweep: one parameter setting, scored on a fault
/// run plus a fault-free run.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The parameter being swept.
    pub parameter: &'static str,
    /// The value of that parameter for this row.
    pub value: f64,
    /// Combined balanced accuracy on the injected run (percent).
    pub ba_combined: f64,
    /// Combined fingerpointing latency on the injected run.
    pub latency: Option<u64>,
    /// Combined false-positive rate on a fault-free run (percent).
    pub fp_rate: f64,
}

/// Which design knob an ablation sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AblationKnob {
    /// Analysis window size, in samples.
    Window,
    /// Consecutive-window confirmation depth.
    Consecutive,
    /// Number of black-box workload states (k-means k).
    NStates,
}

impl AblationKnob {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AblationKnob::Window => "window",
            AblationKnob::Consecutive => "consecutive",
            AblationKnob::NStates => "n_states",
        }
    }
}

/// Ablation of one design choice: reruns the pipeline on `fault` (plus a
/// fault-free control) at each value of the knob, holding everything else
/// at the campaign defaults.
///
/// This quantifies the detection-latency/accuracy/false-positive trade-offs
/// behind the paper's windowSize = 60 and 3-consecutive-window choices, and
/// behind this reproduction's workload-state count.
pub fn ablate(
    cfg: &CampaignConfig,
    knob: AblationKnob,
    values: &[f64],
    fault: FaultKind,
) -> Vec<AblationRow> {
    // Each knob value retrains and reruns from scratch, so rows are
    // independent jobs for the worker pool.
    crate::campaign::run_indexed(values.len(), cfg.threads, |vi| {
        let value = values[vi];
        let mut c = cfg.clone();
        match knob {
            AblationKnob::Window => c.window = value as usize,
            AblationKnob::Consecutive => c.consecutive = value as usize,
            AblationKnob::NStates => c.n_states = value as usize,
        }
        // n_states changes require retraining; for uniformity every row
        // retrains (training is cheap at these scales).
        let model = train_model(&c);
        let faulty = run_once(&c, &model, Some(fault), c.base_seed + 9000);
        let clean = run_once(&c, &model, None, c.base_seed + 9500);
        let (alarms, times) = faulty.combined_alarms();
        let conf = Confusion::tally(&alarms, &times, faulty.truth);
        let (clean_alarms, clean_times) = clean.combined_alarms();
        let clean_conf = Confusion::tally(&clean_alarms, &clean_times, GroundTruth::fault_free());
        AblationRow {
            parameter: knob.name(),
            value,
            ba_combined: conf.balanced_accuracy() * 100.0,
            latency: crate::eval::fingerpointing_latency(&alarms, &times, faulty.truth),
            fp_rate: clean_conf.fpr() * 100.0,
        }
    })
}

/// One row of Table 3: measured cost of a collection component.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Component name.
    pub process: &'static str,
    /// Percent of one core's time consumed per monitored second.
    pub cpu_percent: f64,
    /// Approximate resident memory, MB.
    pub memory_mb: f64,
}

/// Table 3: CPU and memory cost of the collection daemons and of the
/// analysis core, measured on this machine against a live simulated node.
pub fn table3(seconds: u64) -> Vec<OverheadRow> {
    let slaves = 5;
    // CPU-time metering reads /proc/self/stat, whose resolution is one
    // jiffy (10 ms); individual polls cost microseconds, so each component
    // is metered around a whole polling loop and the bare simulation cost
    // (measured on an identical cluster/seed) is subtracted.
    let sim_only = {
        let mut cluster = Cluster::new(ClusterConfig::new(slaves, 7), Vec::new());
        let m = CpuMeter::start();
        cluster.advance(seconds);
        m.elapsed_cpu()
    };

    // Collector polls cost microseconds each, far below one jiffy, so
    // they are metered over a large number of repetitions: every slave is
    // polled `REPS` times per simulated second, and the cost is divided
    // back down to the real one-poll-per-second rate.
    const REPS: usize = 20;
    let sadc_cpu = {
        let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(slaves, 7), Vec::new()));
        let mut daemons: Vec<SadcRpcd> = (0..slaves)
            .map(|n| SadcRpcd::connect(handle.clone(), n).expect("connect"))
            .collect();
        let m = CpuMeter::start();
        for _ in 0..seconds {
            handle.tick();
            for d in &mut daemons {
                for _ in 0..REPS {
                    d.poll_sample().expect("poll");
                }
            }
        }
        (m.elapsed_cpu() - sim_only).max(0.0) / (slaves * REPS) as f64
    };

    let hl_cpu = {
        let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(slaves, 7), Vec::new()));
        let mut tts: Vec<HadoopLogRpcd> = (0..slaves)
            .map(|n| {
                HadoopLogRpcd::connect(handle.clone(), n, LogDaemon::TaskTracker).expect("connect")
            })
            .collect();
        let mut dns: Vec<HadoopLogRpcd> = (0..slaves)
            .map(|n| {
                HadoopLogRpcd::connect(handle.clone(), n, LogDaemon::DataNode).expect("connect")
            })
            .collect();
        let m = CpuMeter::start();
        for _ in 0..seconds {
            handle.tick();
            for (tt, dn) in tts.iter_mut().zip(&mut dns) {
                // The first poll of the second drains and parses the new
                // log lines; the repetitions re-measure the sample/encode
                // path, which dominates.
                for _ in 0..REPS {
                    tt.poll_sample().expect("poll");
                    dn.poll_sample().expect("poll");
                }
            }
        }
        (m.elapsed_cpu() - sim_only).max(0.0) / (slaves * REPS) as f64
    };

    // fpt-core: a full two-path deployment on the same cluster; charge
    // everything but the simulation and the per-node collectors.
    let model = {
        let cfg = CampaignConfig {
            slaves,
            training_secs: 120,
            n_states: 4,
            base_seed: 9,
            ..CampaignConfig::smoke()
        };
        train_model(&cfg)
    };
    let full = {
        let cluster = Cluster::new(ClusterConfig::new(slaves, 7), Vec::new());
        let mut dep = AsdfBuilder::new(AsdfOptions {
            window: 30,
            slide: 30,
            ..AsdfOptions::default()
        })
        .with_model(model)
        .deploy(cluster)
        .expect("deploys");
        let m = CpuMeter::start();
        dep.run_for(seconds);
        m.elapsed_cpu()
    };
    let collectors_all_nodes = (sadc_cpu + hl_cpu) * slaves as f64;
    let fpt_cpu =
        ((full - sim_only - collectors_all_nodes) / seconds as f64 / slaves as f64).max(0.0);

    // Memory: steady-state size of each component's working state.
    let sadc_mem = approx_retained_mb(|| {
        let h = ClusterHandle::new(Cluster::new(ClusterConfig::new(2, 1), Vec::new()));
        Box::new(SadcRpcd::connect(h, 0).expect("connect"))
    });
    let hl_mem = approx_retained_mb(|| {
        let h = ClusterHandle::new(Cluster::new(ClusterConfig::new(2, 1), Vec::new()));
        Box::new(HadoopLogRpcd::connect(h, 0, LogDaemon::TaskTracker).expect("connect"))
    });

    vec![
        OverheadRow {
            process: "hadoop_log_rpcd",
            cpu_percent: hl_cpu / seconds as f64 * 100.0,
            memory_mb: hl_mem,
        },
        OverheadRow {
            process: "sadc_rpcd",
            cpu_percent: sadc_cpu / seconds as f64 * 100.0,
            memory_mb: sadc_mem,
        },
        OverheadRow {
            process: "fpt-core (per monitored node)",
            cpu_percent: fpt_cpu * 100.0,
            memory_mb: crate::report::FPT_CORE_STATE_MB,
        },
    ]
}

/// Rough retained-memory estimate for a component: RSS growth across
/// constructing many instances, averaged. Coarse (allocator slack is
/// included) but measured, not asserted.
fn approx_retained_mb(make: impl Fn() -> Box<dyn std::any::Any>) -> f64 {
    const N: usize = 32;
    let before = asdf_rpc::meter::process_rss_mb().unwrap_or(0.0);
    let kept: Vec<_> = (0..N).map(|_| make()).collect();
    let after = asdf_rpc::meter::process_rss_mb().unwrap_or(before);
    drop(kept);
    ((after - before) / N as f64).max(0.1)
}

/// Result of the ASDF-on-ASDF self-overhead measurement: the same
/// evaluation workload timed with the observability layer enabled and
/// disabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfOverhead {
    /// Representative wall-clock with instrumentation enabled, seconds:
    /// [`off_secs`](Self::off_secs) plus the median paired on−off delta.
    pub on_secs: f64,
    /// Median wall-clock with instrumentation disabled, seconds.
    pub off_secs: f64,
}

impl SelfOverhead {
    /// Overhead as a percentage of the uninstrumented wall-clock, clamped
    /// at zero (scheduler jitter can make an "on" rep beat an "off" rep).
    pub fn overhead_pct(&self) -> f64 {
        if self.off_secs <= 0.0 {
            return 0.0;
        }
        ((self.on_secs - self.off_secs) / self.off_secs * 100.0).max(0.0)
    }
}

/// Measures the wall-clock cost of the always-on instrumentation by
/// running one injected evaluation run with the `asdf-obs` layer enabled
/// vs disabled, `reps` *pairs* of back-to-back runs.
///
/// Adjacent runs share the machine's momentary noise regime (frequency
/// state, background load), so the paired on−off delta isolates the
/// instrumentation; the pair order alternates every rep so warm-up and
/// drift cancel, and the median over pairs shrugs off noise bursts that
/// defeat a min-of-reps comparison. Restores the previous enabled state
/// before returning.
pub fn self_overhead(cfg: &CampaignConfig, reps: usize) -> SelfOverhead {
    let model = train_model(cfg);
    let workload = || {
        let t0 = std::time::Instant::now();
        let tr = run_once(cfg, &model, Some(FaultKind::Hadoop1036), cfg.base_seed + 77);
        std::hint::black_box(&tr);
        t0.elapsed().as_secs_f64()
    };
    let timed = |on: bool| {
        asdf_obs::set_enabled(on);
        workload()
    };
    // Warm caches and the allocator with one untimed run.
    workload();

    let was_enabled = asdf_obs::enabled();
    let mut deltas = Vec::with_capacity(reps);
    let mut offs = Vec::with_capacity(reps);
    for r in 0..reps.max(1) {
        let (on, off) = if r % 2 == 0 {
            let on = timed(true);
            (on, timed(false))
        } else {
            let off = timed(false);
            (timed(true), off)
        };
        deltas.push(on - off);
        offs.push(off);
    }
    asdf_obs::set_enabled(was_enabled);
    let off_secs = median(&mut offs);
    SelfOverhead {
        on_secs: off_secs + median(&mut deltas),
        off_secs,
    }
}

/// Median of a sample (mean of the middle two when even-sized).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One row of Table 4: RPC bandwidth of a collector type.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthRow {
    /// RPC type name, matching the paper's rows.
    pub rpc_type: &'static str,
    /// Static connection overhead, kB.
    pub static_kb: f64,
    /// Per-iteration bandwidth, kB/s.
    pub per_iter_kb: f64,
}

/// Table 4: per-node RPC bandwidth for the three collector types, measured
/// over `seconds` one-second collection iterations.
pub fn table4(seconds: u64) -> Vec<BandwidthRow> {
    let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(3, 21), Vec::new()));
    let mut sadc = SadcRpcd::connect(handle.clone(), 0).expect("connect");
    let mut hl_dn =
        HadoopLogRpcd::connect(handle.clone(), 0, LogDaemon::DataNode).expect("connect");
    let mut hl_tt =
        HadoopLogRpcd::connect(handle.clone(), 0, LogDaemon::TaskTracker).expect("connect");
    for _ in 0..seconds {
        handle.tick();
        sadc.poll_sample().expect("poll");
        hl_dn.poll_sample().expect("poll");
        hl_tt.poll_sample().expect("poll");
    }
    let row = |name, bw: BandwidthStats| BandwidthRow {
        rpc_type: name,
        static_kb: bw.static_kb(),
        per_iter_kb: bw.per_iteration_kb(),
    };
    let s = row("sadc-tcp", sadc.bandwidth());
    let d = row("hl-dn-tcp", hl_dn.bandwidth());
    let t = row("hl-tt-tcp", hl_tt.bandwidth());
    let sum = BandwidthRow {
        rpc_type: "TCP Sum",
        static_kb: s.static_kb + d.static_kb + t.static_kb,
        per_iter_kb: s.per_iter_kb + d.per_iter_kb + t.per_iter_kb,
    };
    vec![s, d, t, sum]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_produces_a_usable_model() {
        let cfg = CampaignConfig::smoke();
        let model = train_model(&cfg);
        assert_eq!(model.n_states(), cfg.n_states);
        assert_eq!(model.stddev.len(), 120);
        // The model classifies an arbitrary frame without panicking.
        let idx = model.classify(&vec![1.0; 120]);
        assert!(idx < cfg.n_states);
    }

    #[test]
    fn fault_free_run_has_low_false_positive_rate_at_paper_threshold() {
        let cfg = CampaignConfig::smoke();
        let model = train_model(&cfg);
        let tr = run_once(&cfg, &model, None, cfg.base_seed + 500);
        assert!(tr.bb.n_windows() >= 5, "windows: {}", tr.bb.n_windows());
        let c = Confusion::tally(&tr.bb.alarms, &tr.bb.window_times, tr.truth);
        assert!(c.fpr() < 0.25, "bb fpr {}", c.fpr());
        let c = Confusion::tally(&tr.wb.alarms, &tr.wb.window_times, tr.truth);
        assert!(c.fpr() < 0.25, "wb fpr {}", c.fpr());
    }

    #[test]
    fn hung_maps_are_localized_at_smoke_scale() {
        // HADOOP-1036 is the most strongly-manifesting fault; it must be
        // localized even at the small smoke scale. (The subtler faults —
        // CPUHog and friends — are evaluated at full scale by the fig7
        // campaign, `asdf fig7`.)
        let cfg = CampaignConfig::smoke();
        let model = train_model(&cfg);
        let tr = run_once(
            &cfg,
            &model,
            Some(FaultKind::Hadoop1036),
            cfg.base_seed + 600,
        );
        let r = score_run(&tr, FaultKind::Hadoop1036);
        assert!(
            r.ba_combined > 60.0,
            "combined BA should beat chance: {r:?}"
        );
        assert!(
            r.lat_combined.is_some(),
            "hung maps should be fingerpointed: {r:?}"
        );
    }

    #[test]
    fn fig6_sweeps_are_monotone_in_the_expected_direction() {
        let cfg = CampaignConfig::smoke();
        let model = train_model(&cfg);
        let sweep = fig6a(&cfg, &model, &[0.0, 20.0, 60.0]);
        assert_eq!(sweep.len(), 3);
        // FP rate is non-increasing in the threshold.
        assert!(
            sweep[0].1 >= sweep[1].1 && sweep[1].1 >= sweep[2].1,
            "{sweep:?}"
        );
        // At threshold 0 everything beyond warmup is anomalous.
        assert!(sweep[0].1 > 50.0, "{sweep:?}");

        let sweep = fig6b(&cfg, &model, &[0.0, 2.0, 5.0]);
        assert!(sweep[0].1 >= sweep[2].1, "{sweep:?}");
    }

    #[test]
    fn table4_reports_plausible_bandwidths() {
        let rows = table4(30);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3].rpc_type, "TCP Sum");
        let sum: f64 = rows[..3].iter().map(|r| r.per_iter_kb).sum();
        assert!((rows[3].per_iter_kb - sum).abs() < 1e-9);
        // sadc dominates, as in the paper.
        assert!(rows[0].per_iter_kb > rows[1].per_iter_kb);
        assert!(rows[0].per_iter_kb > rows[2].per_iter_kb);
    }
}
