//! Golden scenarios for the widened fault matrix, and the accuracy
//! contract for the Orion+-style `metric_rank` stage.
//!
//! One pinned campaign run per new fault kind becomes a byte-exact
//! fixture (accuracy row plus the faulty node's top-ranked metrics), so
//! any behavioural drift in the simulator, the analysis paths, or the
//! ranking math shows up as a fixture diff. On top of the fixtures, the
//! ranking must actually *name* the perturbed metric: for at least 3 of
//! the 4 new kinds the injected deviation's metric family must appear in
//! the top 2. The trace-replay parser gets the same treatment: the
//! checked-in sample trace parses to a fixture, and every corruption of
//! it is rejected with the offending line number.

use asdf::experiments::{self, CampaignConfig, Workload};
use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use hadoop_sim::faults::{FaultKind, FaultSpec};
use hadoop_sim::{Cluster, ClusterConfig, Trace};
use integration_tests::support;

/// The flattened `sadc` metrics each injected fault perturbs most
/// directly — what a correct peer-deviation ranking should surface.
fn culprit_metrics(fault: FaultKind) -> &'static [&'static str] {
    match fault {
        // Task pileup and collapsed per-task throughput: the daemons' I/O
        // rates diverge from peers, the queue/load family rises, and —
        // the degraded-disk signature — tasks sit blocked in I/O wait.
        FaultKind::Straggler => &[
            "datanode.kB_rd/s",
            "datanode.kB_wr/s",
            "tasktracker.kB_rd/s",
            "tasktracker.kB_wr/s",
            "runq-sz",
            "plist-sz",
            "ldavg-1",
            "ldavg-5",
            "ldavg-15",
            "%iowait",
            "blocked",
        ],
        // Resident-set growth.
        FaultKind::MemLeak => &[
            "kbmemused",
            "%memused",
            "kbmemfree",
            "kbcommit",
            "%commit",
            "kbactive",
        ],
        // Inbound drops and collapsed receive goodput.
        FaultKind::FlakyLink => &[
            "eth0.rxdrop/s",
            "eth0.rxkB/s",
            "eth0.rxpck/s",
            "eth0.txkB/s",
            "eth0.txpck/s",
        ],
        // Kernel-time burn.
        FaultKind::GrayFailure => &["%system", "%idle", "cswch/s", "intr/s"],
        other => panic!("no culprit-metric set for {other:?}"),
    }
}

/// Runs one faulty campaign and returns (accuracy row, faulty node's
/// ranked metrics by name).
fn scenario(
    cfg: &CampaignConfig,
    fault: FaultKind,
    names: &[String],
) -> (experiments::FaultResult, Vec<(String, f64)>) {
    let model = support::small_model(cfg);
    let tr = experiments::run_once(cfg, &model, Some(fault), cfg.base_seed + 500);
    let result = experiments::score_run(&tr, fault);
    let ranks = tr
        .metric_ranks
        .expect("metric_rank campaigns extract rankings");
    let top = ranks[cfg.fault_node]
        .iter()
        .map(|&(i, s)| (names[i].clone(), s))
        .collect();
    (result, top)
}

#[test]
fn extended_fault_scenarios_match_fixtures_and_rank_the_culprit_metric() {
    let cfg = CampaignConfig {
        metric_rank: true,
        ..support::small_campaign()
    };
    let names = support::metric_names();
    let mut hits = 0;
    for fault in FaultKind::EXTENDED {
        let (result, top) = scenario(&cfg, fault, &names);
        support::assert_matches_fixture(
            &format!("scenario_{}_small.json", fault.name().to_lowercase()),
            &support::render_scenario_json(&result, &top),
        );
        let candidates = culprit_metrics(fault);
        let top2: Vec<&str> = top.iter().take(2).map(|(n, _)| n.as_str()).collect();
        if top2.iter().any(|n| candidates.contains(n)) {
            hits += 1;
        } else {
            eprintln!("[scenario] {fault:?}: top-2 {top2:?} missed {candidates:?}");
        }
    }
    assert!(
        hits >= 3,
        "metric_rank must place the perturbed metric in the top 2 for at \
         least 3 of the 4 new fault kinds; got {hits}"
    );
}

#[test]
fn fleet_scale_rack_path_fingers_the_straggler() {
    // Fleet-scale accuracy floor: 500 nodes, one Straggler, the
    // rack-aggregated ranking path (per-rack tree-reduce, metric_rank over
    // rack summaries). The node whose top metric
    // deviates most from the fleet baseline must be the faulty one, and
    // that metric must belong to the Straggler's culprit family — i.e.
    // compressing the global stage to O(racks) rows loses no diagnosis.
    const NODES: usize = 500;
    const FAULT_NODE: usize = 137;
    const FAULT_AT: u64 = 90;
    let mut cc = ClusterConfig::new(NODES, 71);
    // The stock interarrival clamp floors at 8s to bound simulation cost,
    // which leaves a 500-node fleet mostly idle; keep per-node occupancy
    // scale-independent instead (the paper's comparably-loaded premise).
    cc.gridmix.mean_interarrival_secs = 400.0 / NODES as f64;
    let cluster = Cluster::new(
        cc,
        vec![FaultSpec {
            node: FAULT_NODE,
            kind: FaultKind::Straggler,
            start_at: FAULT_AT,
        }],
    );
    // A 120s window keeps every peer's load comparable (each node runs
    // several tasks per window), so the idle-median blow-up that short
    // windows produce on a big fleet cannot mask the straggler.
    let mut dep = AsdfBuilder::new(AsdfOptions {
        black_box: false,
        white_box: false,
        metric_rank: true,
        window: 120,
        slide: 60,
        rank_top: 3,
        racks: 25,
        ..AsdfOptions::default()
    })
    .deploy(cluster)
    .expect("fleet deployment builds");
    dep.run_for(600);

    // Collect each node's post-pileup ranking rows (rank{i} ports emit
    // [metric idx, score] pairs, most deviant first). A straggler is sick
    // in *every* window once tasks pile up, so the median top-1 score over
    // those windows separates it from nodes with one transient spike.
    let mut windows: Vec<Vec<Vec<f64>>> = vec![Vec::new(); NODES];
    for e in dep.tap("mr").expect("mr tap").drain() {
        if e.sample.timestamp.as_secs() < FAULT_AT + 60 {
            continue;
        }
        let node: usize = e.source.name["rank".len()..].parse().unwrap();
        windows[node].push(e.sample.value.as_vector().unwrap().to_vec());
    }
    assert!(
        windows[FAULT_NODE].len() >= 4,
        "expected several post-fault evaluation windows"
    );
    let median_top = |rows: &[Vec<f64>]| -> f64 {
        let mut scores: Vec<f64> = rows.iter().map(|r| r[1]).collect();
        scores.sort_by(f64::total_cmp);
        scores.get(scores.len() / 2).copied().unwrap_or(f64::MIN)
    };
    let culprit = (0..NODES)
        .max_by(|&a, &b| median_top(&windows[a]).total_cmp(&median_top(&windows[b])))
        .unwrap();
    assert_eq!(culprit, FAULT_NODE, "rack path must finger the straggler");

    // The straggler's dominant metric across those windows must belong to
    // its culprit family (task pileup: queue/load growth, I/O divergence).
    let names = support::metric_names();
    let mut counts = std::collections::HashMap::new();
    for r in &windows[FAULT_NODE] {
        *counts.entry(r[0] as usize).or_insert(0usize) += 1;
    }
    let (&top_idx, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
    assert!(
        culprit_metrics(FaultKind::Straggler).contains(&names[top_idx].as_str()),
        "dominant metric {:?} should be in the Straggler family",
        names[top_idx]
    );
}

#[test]
#[ignore = "5000 nodes: minutes in a debug build; `just fleet` runs it with --release"]
fn fleet_scale_full_pipeline() {
    // The paper's own fingerpointing — `knn → analysis_bb`, `hadoop_log →
    // mavgvec → analysis_wb` on both logs — at 5000 nodes in 250 racks with
    // one DiskHog: the DAG is O(racks), the culprit is fingered, and the
    // deployment keeps up with every slide in well under a second. Sized as
    // asdfbench's `fleet500_full`, ten times the nodes. Prints the reading
    // DESIGN §5g records.
    use asdf::eval::{AnalysisTrace, GroundTruth};
    const NODES: usize = 5000;
    const RACKS: usize = 250;
    const FAULT_NODE: usize = 137;
    const FAULT_AT: u64 = 300;
    const SECS: u64 = 900;
    const SLIDE: u64 = 60;
    let model = experiments::train_model(&CampaignConfig {
        slaves: 50,
        training_secs: 900,
        n_states: 12,
        base_seed: 1,
        ..CampaignConfig::default()
    });
    let cluster = Cluster::new(
        ClusterConfig::new(NODES, 1),
        vec![FaultSpec {
            node: FAULT_NODE,
            kind: FaultKind::DiskHog,
            start_at: FAULT_AT,
        }],
    );
    let builder = AsdfBuilder::new(AsdfOptions {
        window: SLIDE as usize,
        slide: SLIDE as usize,
        bb_threshold: SLIDE as f64,
        racks: RACKS,
        ..AsdfOptions::default()
    })
    .with_model(model);
    let instances = builder.config(NODES).instances().len();
    assert!(instances <= 6 * RACKS + 10, "{instances} instances");
    let mut dep = builder.deploy(cluster).expect("fleet deployment builds");

    // The last second of a slide is its verdict tick: the second on which
    // every analysis evaluates the window, timed on its own.
    let started = std::time::Instant::now();
    let mut worst_verdict = std::time::Duration::ZERO;
    for _ in 0..SECS / SLIDE {
        dep.run_for(SLIDE - 1);
        let verdict = std::time::Instant::now();
        dep.run_for(1);
        worst_verdict = worst_verdict.max(verdict.elapsed());
    }
    let wall = started.elapsed();
    assert!(
        worst_verdict < std::time::Duration::from_secs(1),
        "evaluating a slide took {worst_verdict:?}"
    );

    let trace = |id, score| {
        let envelopes = dep.tap(id).expect("analysis tap").drain();
        assert_eq!(
            envelopes.len() as u64,
            2 * NODES as u64 * (SECS / SLIDE),
            "{id}"
        );
        AnalysisTrace::from_envelopes(&envelopes, NODES, score)
    };
    let traces = experiments::RunTraces {
        bb: trace("bb", "dist"),
        wb: trace("wb_tt", "kcrit").merge_max(&trace("wb_dn", "kcrit")),
        truth: GroundTruth {
            culprit: Some(FAULT_NODE),
            injected_at: FAULT_AT,
        },
        metric_ranks: None,
    };
    let scored = experiments::score_run(&traces, FaultKind::DiskHog);
    assert!(scored.lat_combined.is_some(), "culprit never fingered");
    eprintln!(
        "[fleet_scale_full_pipeline] {NODES} nodes, {RACKS} racks: {instances} instances, \
         {:.2} ms wall per monitored second, worst verdict tick {:.0} ms, peak RSS {:.0} MB, \
         DiskHog fingered after {} s, balanced accuracy {:.1}%",
        wall.as_secs_f64() * 1e3 / SECS as f64,
        worst_verdict.as_secs_f64() * 1e3,
        asdf_rpc::meter::process_peak_rss_mb().unwrap_or(f64::NAN),
        scored.lat_combined.unwrap_or_default(),
        scored.ba_combined,
    );
}

#[test]
fn trace_workload_scenario_matches_fixture() {
    // The same golden treatment over the replayed sample trace (model
    // trained on the trace workload too): pins the whole trace →
    // cluster → analysis → ranking path to bytes.
    let cfg = CampaignConfig {
        metric_rank: true,
        workload: Workload::Trace(support::sample_trace()),
        ..support::small_campaign()
    };
    let names = support::metric_names();
    let (result, top) = scenario(&cfg, FaultKind::Straggler, &names);
    support::assert_matches_fixture(
        "scenario_trace_straggler_small.json",
        &support::render_scenario_json(&result, &top),
    );
}

#[test]
fn sample_trace_parses_to_fixture() {
    let trace = support::sample_trace();
    let mut out = String::from("[\n");
    for (i, r) in trace.rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"at\": {}, \"class\": \"{}\", \"maps\": {}, \"reduces\": {}, \
             \"map_input_kb\": {:?}, \"map_cpu_secs\": {:?}, \"shuffle_kb\": {:?}, \
             \"reduce_cpu_secs\": {:?}}}{}\n",
            r.arrival_secs,
            r.class.name(),
            r.maps,
            r.reduces,
            r.map_profile.input_kb,
            r.map_profile.cpu_secs,
            r.reduce_profile.shuffle_kb,
            r.reduce_profile.reduce_cpu_secs,
            if i + 1 < trace.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    support::assert_matches_fixture("sample_trace_parsed.json", &out);
}

#[test]
fn corruptions_of_the_sample_trace_are_rejected_with_line_numbers() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("sample_trace.csv");
    let text = std::fs::read_to_string(path).expect("sample trace is checked in");
    assert!(Trace::parse_str(&text).is_ok(), "pristine sample parses");

    let lines: Vec<&str> = text.lines().collect();
    let first_data = lines
        .iter()
        .position(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .expect("sample has data rows");
    let corrupt = |replacement: &str| -> String {
        let mut out: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
        out[first_data] = replacement.to_owned();
        out.join("\n")
    };

    // Each corruption of the first data row must be an error naming that
    // row's 1-based line number — malformed rows are never skipped.
    let cases: &[(&str, &str)] = &[
        ("0,webdata_scan,8,1", "columns"),
        ("0,mystery_job,8,1,1,1,1,1,1,1,1", "class"),
        ("soon,webdata_scan,8,1,1,1,1,1,1,1,1", "arrival_secs"),
        ("0,webdata_scan,0,1,1,1,1,1,1,1,1", "maps"),
        ("0,webdata_scan,8,1,-5,1,1,1,1,1,1", "map_input_kb"),
        ("0,webdata_scan,8,1,1,1,1,NaN,1,1,1", "shuffle_kb"),
    ];
    for (replacement, needle) in cases {
        let e = Trace::parse_str(&corrupt(replacement)).expect_err(replacement);
        assert_eq!(e.line, first_data + 1, "line number for {replacement:?}");
        assert!(
            e.message.contains(needle),
            "error {:?} should mention {needle:?}",
            e.message
        );
    }

    // Garbage appended after the last row is caught at its own line.
    let appended = format!("{text}not,a,row\n");
    let e = Trace::parse_str(&appended).expect_err("appended garbage");
    assert_eq!(e.line, lines.len() + 1);

    // A trace with no rows at all is an error, not an empty workload.
    assert!(Trace::parse_str("# empty\n\n").is_err());
}

#[test]
fn trace_replay_campaign_detects_faults_too() {
    // Not a fixture: a coarse accuracy floor showing the trace-driven
    // workload still exercises both analysis paths well enough to
    // fingerpoint a classic fault.
    let cfg = CampaignConfig {
        workload: Workload::Trace(support::sample_trace()),
        ..support::small_campaign()
    };
    let model = support::small_model(&cfg);
    let tr = experiments::run_once(&cfg, &model, Some(FaultKind::Hadoop1036), cfg.base_seed + 9);
    let r = experiments::score_run(&tr, FaultKind::Hadoop1036);
    assert!(
        r.ba_combined > 50.0,
        "combined path should beat chance on a trace-replay workload, got {}",
        r.ba_combined
    );
    assert!(r.lat_combined.is_some(), "culprit should be fingerpointed");
}
