//! End-to-end integration tests: simulated cluster → collectors →
//! analyses → alarms, across every crate in the workspace.

use asdf::eval::{fingerpointing_latency, Confusion};
use asdf::experiments::{self, CampaignConfig};
use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::registry::ModuleRegistry;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::FaultKind;

fn smoke() -> CampaignConfig {
    CampaignConfig::smoke()
}

#[test]
fn campaigns_are_bit_for_bit_deterministic() {
    let cfg = smoke();
    let model_a = experiments::train_model(&cfg);
    let model_b = experiments::train_model(&cfg);
    assert_eq!(model_a, model_b, "training must be deterministic");

    let tr_a = experiments::run_once(&cfg, &model_a, Some(FaultKind::CpuHog), 99);
    let tr_b = experiments::run_once(&cfg, &model_b, Some(FaultKind::CpuHog), 99);
    assert_eq!(tr_a.bb.window_times, tr_b.bb.window_times);
    assert_eq!(tr_a.bb.scores, tr_b.bb.scores);
    assert_eq!(tr_a.wb.scores, tr_b.wb.scores);
    assert_eq!(tr_a.bb.alarms, tr_b.bb.alarms);
}

#[test]
fn different_seeds_produce_different_runs() {
    let cfg = smoke();
    let model = experiments::train_model(&cfg);
    let tr_a = experiments::run_once(&cfg, &model, None, 1);
    let tr_b = experiments::run_once(&cfg, &model, None, 2);
    assert_ne!(tr_a.bb.scores, tr_b.bb.scores);
}

#[test]
fn rendered_pipeline_config_rebuilds_the_same_dag() {
    // The generated configuration — in the paper's own dialect — must be
    // parseable and buildable from scratch, proving the config file is a
    // complete description of the deployment.
    let cfg = smoke();
    let model = experiments::train_model(&cfg);
    let builder = AsdfBuilder::new(AsdfOptions::default()).with_model(model.clone());
    let generated = builder.config(cfg.slaves);
    let text = generated.render();

    let reparsed: Config = text.parse().expect("rendered config parses");
    assert_eq!(generated, reparsed);

    let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(cfg.slaves, 5), Vec::new()));
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle);
    let dag = Dag::build(&registry, &reparsed).expect("reparsed config builds");
    // 1 driver + one rack of (sadc + knn + 2×hadoop_log + 2×mavgvec) + 2×wb
    // analysis + bb analysis + 3 print sinks.
    assert_eq!(dag.len(), 1 + 6 + 3 + 3);
}

#[test]
fn offline_reflag_raises_the_live_alarms() {
    // At the campaign's own threshold, k and depth, the judge re-run over
    // a recorded trace must raise exactly the alarms the analyses raised
    // live. The white-box trace merges two paths, each confirmed on its
    // own; judged as one streak over the merged scores, each of the three
    // faulty runs here raises one alarm neither path raised.
    let cfg = integration_tests::support::small_campaign();
    let model = experiments::train_model(&cfg);
    for (fault, seed) in [
        (None, 11),
        (Some(FaultKind::Straggler), 11),
        (Some(FaultKind::FlakyLink), 11),
        (Some(FaultKind::Straggler), 12),
    ] {
        let tr = experiments::run_once(&cfg, &model, fault, seed);
        let bb = tr.bb.reflag(cfg.bb_threshold, cfg.consecutive);
        assert_eq!(bb, tr.bb.alarms, "black-box, {fault:?} at seed {seed}");
        let wb = tr.wb.reflag(cfg.wb_k, cfg.consecutive);
        assert_eq!(wb, tr.wb.alarms, "white-box, {fault:?} at seed {seed}");
    }
}

#[test]
fn fault_free_runs_stay_quiet_at_default_thresholds() {
    let cfg = smoke();
    let model = experiments::train_model(&cfg);
    let tr = experiments::run_once(&cfg, &model, None, 12345);
    let bb = Confusion::tally(&tr.bb.alarms, &tr.bb.window_times, tr.truth);
    let wb = Confusion::tally(&tr.wb.alarms, &tr.wb.window_times, tr.truth);
    assert!(bb.fpr() < 0.10, "black-box FP rate too high: {}", bb.fpr());
    assert!(wb.fpr() < 0.05, "white-box FP rate too high: {}", wb.fpr());
}

#[test]
fn hung_map_fault_is_localized_to_the_right_node() {
    let cfg = smoke();
    let model = experiments::train_model(&cfg);
    let tr = experiments::run_once(&cfg, &model, Some(FaultKind::Hadoop1036), 777);
    let (alarms, times) = tr.combined_alarms();
    let conf = Confusion::tally(&alarms, &times, tr.truth);
    assert!(
        conf.balanced_accuracy() > 0.6,
        "balanced accuracy too low: {:?}",
        conf
    );
    let latency = fingerpointing_latency(&alarms, &times, tr.truth);
    assert!(latency.is_some(), "culprit never fingerpointed");
    // Alarms must name the culprit more often than any other node.
    let per_node: Vec<usize> = (0..cfg.slaves)
        .map(|n| alarms.iter().filter(|row| row[n]).count())
        .collect();
    let culprit_hits = per_node[cfg.fault_node];
    let max_peer = per_node
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != cfg.fault_node)
        .map(|(_, &c)| c)
        .max()
        .unwrap();
    assert!(
        culprit_hits > max_peer,
        "culprit {} hits vs peer max {max_peer}: {per_node:?}",
        culprit_hits
    );
}

#[test]
fn dormant_fault_manifests_later_than_prompt_fault() {
    // The paper's explanation for HADOOP-1152/2080's longer latencies:
    // the fault stays dormant until the faulty code path runs.
    let cfg = smoke();
    let model = experiments::train_model(&cfg);
    let prompt = experiments::run_once(&cfg, &model, Some(FaultKind::Hadoop1036), 31);
    let dormant = experiments::run_once(&cfg, &model, Some(FaultKind::Hadoop2080), 31);
    let (pa, pt) = prompt.combined_alarms();
    let (da, dt) = dormant.combined_alarms();
    let lat_prompt = fingerpointing_latency(&pa, &pt, prompt.truth);
    let lat_dormant = fingerpointing_latency(&da, &dt, dormant.truth);
    if let (Some(p), Some(d)) = (lat_prompt, lat_dormant) {
        assert!(
            d >= p,
            "dormant fault should not be detected faster: prompt {p}s vs dormant {d}s"
        );
    } else {
        assert!(
            lat_prompt.is_some(),
            "the prompt fault must at least be detected"
        );
    }
}

#[test]
fn ground_truth_is_never_read_by_the_pipeline() {
    // A fault-free cluster and a faulty cluster must produce *identical*
    // traces up to the injection time — proving detection comes from
    // behaviour, not from a leaked label.
    let cfg = smoke();
    let model = experiments::train_model(&cfg);
    let clean = experiments::run_once(&cfg, &model, None, 555);
    let faulty = experiments::run_once(&cfg, &model, Some(FaultKind::DiskHog), 555);
    for (w, t) in clean.bb.window_times.iter().enumerate() {
        if *t < cfg.injection_at {
            assert_eq!(
                clean.bb.scores[w], faulty.bb.scores[w],
                "pre-injection window t={t} must be identical"
            );
        }
    }
}
