//! Differential equivalence suite for the sharded `TickEngine`.
//!
//! The sharded engine's contract is *bitwise invisibility*: at any worker
//! count, every observable — raw envelope streams, per-window scores,
//! alarm sequences, whole figure outputs — must equal the serial engine's
//! exactly. Each test here runs the same workload serially and sharded
//! and compares with `==`, never with tolerances.

use std::sync::Arc;

use asdf::experiments::{self, CampaignConfig, Workload};
use hadoop_sim::faults::FaultKind;
use integration_tests::support;
use proptest::prelude::*;

/// Thread counts the ISSUE pins the suite to (1 is the serial reference).
const THREADS: [usize; 3] = [2, 4, 8];

/// Batch sizes the batched-lane sweep is pinned to: per-sample, a
/// non-power-of-two watermark, and the default columnar batch.
const BATCHES: [usize; 3] = [1, 7, 64];

#[test]
fn pipeline_envelope_streams_identical_across_threads_and_seeds() {
    let cfg = support::small_campaign(1);
    let model = support::small_model(&cfg);
    for seed in [11u64, 401] {
        for fault in [None, Some(FaultKind::Hadoop1036)] {
            let reference = support::pipeline_streams(&cfg, &model, fault, seed);
            assert!(
                reference.iter().all(|s| !s.is_empty()),
                "reference run must produce analysis output (seed {seed})"
            );
            for threads in THREADS {
                let mut sharded = support::small_campaign(threads);
                sharded.base_seed = cfg.base_seed;
                let got = support::pipeline_streams(&sharded, &model, fault, seed);
                assert_eq!(
                    reference, got,
                    "envelope stream diverged: seed {seed}, fault {fault:?}, threads {threads}"
                );
            }
        }
    }
}

#[test]
fn alarm_sequences_and_scores_identical() {
    // run_once goes through the whole campaign path (deploy, run, trace
    // extraction); AnalysisTrace equality covers window times, per-node
    // scores, and alarm booleans at once.
    let reference = {
        let cfg = support::small_campaign(1);
        let model = support::small_model(&cfg);
        experiments::run_once(&cfg, &model, Some(FaultKind::CpuHog), cfg.base_seed + 7)
    };
    assert!(reference.bb.n_windows() > 0);
    for threads in THREADS {
        let cfg = support::small_campaign(threads);
        let model = support::small_model(&cfg);
        let got = experiments::run_once(&cfg, &model, Some(FaultKind::CpuHog), cfg.base_seed + 7);
        assert_eq!(
            reference.bb, got.bb,
            "bb trace diverged at {threads} threads"
        );
        assert_eq!(
            reference.wb, got.wb,
            "wb trace diverged at {threads} threads"
        );
        assert_eq!(
            reference.combined_alarms(),
            got.combined_alarms(),
            "combined alarm sequence diverged at {threads} threads"
        );
    }
}

#[test]
fn figure_outputs_identical_under_sharding() {
    // Whole-figure equality at the two extreme thread counts; the finer
    // per-stream comparisons above cover the intermediate ones.
    let serial = support::small_campaign(1);
    let sharded = support::small_campaign(8);
    let model_s = support::small_model(&serial);
    let model_p = support::small_model(&sharded);
    assert_eq!(model_s, model_p, "training never touches the engine");

    assert_eq!(
        experiments::fig7(&serial, &model_s),
        experiments::fig7(&sharded, &model_p),
        "fig7 rows diverged"
    );
    let thresholds = [0.0, 25.0, 50.0];
    assert_eq!(
        experiments::fig6a(&serial, &model_s, &thresholds),
        experiments::fig6a(&sharded, &model_p, &thresholds),
        "fig6a sweep diverged"
    );
    let ks = [0.0, 2.0, 4.0];
    assert_eq!(
        experiments::fig6b(&serial, &model_s, &ks),
        experiments::fig6b(&sharded, &model_p, &ks),
        "fig6b sweep diverged"
    );
}

#[test]
fn batched_envelope_streams_match_per_sample_serial() {
    // The batched hand-off must be invisible too: a per-sample serial run
    // (batch 1, 1 thread) is the reference, and every (batch, threads)
    // combination — including the non-power-of-two watermark — must
    // reproduce its raw analysis envelope streams bitwise.
    let per_sample = CampaignConfig {
        batch_size: 1,
        ..support::small_campaign(1)
    };
    let model = support::small_model(&per_sample);
    for fault in [None, Some(FaultKind::Hadoop1036)] {
        let reference = support::pipeline_streams(&per_sample, &model, fault, 11);
        assert!(
            reference.iter().all(|s| !s.is_empty()),
            "per-sample reference must produce analysis output"
        );
        for batch_size in BATCHES {
            for threads in [1, 2, 4, 8] {
                let cfg = CampaignConfig {
                    batch_size,
                    ..support::small_campaign(threads)
                };
                let got = support::pipeline_streams(&cfg, &model, fault, 11);
                assert_eq!(
                    reference, got,
                    "batched stream diverged: fault {fault:?}, batch {batch_size}, \
                     threads {threads}"
                );
            }
        }
    }
}

#[test]
fn batched_alarms_and_figures_match_per_sample() {
    // Alarm traces via the whole campaign path, then whole-figure
    // equality, batched-and-sharded vs per-sample serial.
    let per_sample = CampaignConfig {
        batch_size: 1,
        ..support::small_campaign(1)
    };
    let model = support::small_model(&per_sample);
    let reference = experiments::run_once(&per_sample, &model, Some(FaultKind::CpuHog), 18);
    assert!(reference.bb.n_windows() > 0);
    for batch_size in BATCHES {
        for threads in [1, 4] {
            let cfg = CampaignConfig {
                batch_size,
                ..support::small_campaign(threads)
            };
            let got = experiments::run_once(&cfg, &model, Some(FaultKind::CpuHog), 18);
            assert_eq!(
                (&reference.bb, &reference.wb, reference.combined_alarms()),
                (&got.bb, &got.wb, got.combined_alarms()),
                "alarm trace diverged: batch {batch_size}, threads {threads}"
            );
        }
    }

    let batched = CampaignConfig {
        batch_size: 64,
        ..support::small_campaign(8)
    };
    assert_eq!(
        experiments::fig7(&per_sample, &model),
        experiments::fig7(&batched, &model),
        "fig7 rows diverged under batching"
    );
    assert_eq!(
        experiments::fig6a(&per_sample, &model, &[0.0, 25.0, 50.0]),
        experiments::fig6a(&batched, &model, &[0.0, 25.0, 50.0]),
        "fig6a sweep diverged under batching"
    );
    assert_eq!(
        experiments::fig6b(&per_sample, &model, &[0.0, 2.0, 4.0]),
        experiments::fig6b(&batched, &model, &[0.0, 2.0, 4.0]),
        "fig6b sweep diverged under batching"
    );
}

#[test]
fn batched_synthetic_dags_match_per_sample() {
    // Order-sensitive synthetic shapes under the batch sweep: the `mix`
    // fold turns any reordering, loss, or duplication introduced by batch
    // accumulation into a different value everywhere downstream.
    let shapes: [(&str, String); 3] = [
        ("random", support::random_dag_config(424_242)),
        ("broadcast", support::broadcast_config(16, 7)),
        (
            "bursty",
            "[pulse]\nid = p\nperiod = 1\nburst = 40\n\n\
                    [mix]\nid = m\ntrigger = 40\ninput[i] = p.out\n\n"
                .to_owned(),
        ),
    ];
    for (name, config) in &shapes {
        let reference = support::run_synthetic(config, 15, 1);
        assert!(reference.iter().any(|s| !s.is_empty()), "{name}");
        for batch_size in BATCHES {
            for threads in [1, 2, 8] {
                let got = support::run_synthetic_batched(config, 15, threads, batch_size);
                assert_eq!(
                    &reference, &got,
                    "{name} diverged: batch {batch_size}, threads {threads}"
                );
            }
        }
    }
}

#[test]
fn engine_threads_compose_with_campaign_threads() {
    // Both parallelism layers at once (pool workers × engine workers)
    // must still be invisible in the results.
    let reference = CampaignConfig {
        threads: 1,
        engine_threads: 1,
        ..support::small_campaign(1)
    };
    let stacked = CampaignConfig {
        threads: 4,
        engine_threads: 2,
        ..support::small_campaign(1)
    };
    let model = support::small_model(&reference);
    assert_eq!(
        experiments::fig6a(&reference, &model, &[0.0, 50.0]),
        experiments::fig6a(&stacked, &model, &[0.0, 50.0]),
    );
}

#[test]
fn degenerate_and_stress_shapes_are_schedule_invariant() {
    // Engine shapes the lock-free lanes must survive without special
    // casing: a single-node DAG (no edges, no merges), a zero-edge DAG of
    // disconnected roots, and worker counts far beyond the node count
    // (the engine clamps workers to nodes, so oversubscription exercises
    // the clamp plus idle-worker parking). 16 includes "more threads than
    // any of these DAGs has nodes".
    let shapes: [(&str, String); 3] = [
        (
            "single-node",
            "[pulse]\nid = solo\nperiod = 1\nburst = 2\n\n".to_owned(),
        ),
        (
            "zero-edge",
            "[pulse]\nid = a\nperiod = 1\nburst = 1\n\n\
             [pulse]\nid = b\nperiod = 2\nburst = 3\n\n\
             [pulse]\nid = c\nperiod = 3\nburst = 2\n\n"
                .to_owned(),
        ),
        ("deep-trigger", support::random_dag_config(424_242)),
    ];
    for (name, config) in &shapes {
        let reference = support::run_synthetic(config, 12, 1);
        assert!(
            reference.iter().any(|s| !s.is_empty()),
            "{name}: reference run must emit"
        );
        for threads in [2, 4, 8, 16] {
            let got = support::run_synthetic(config, 12, threads);
            assert_eq!(&reference, &got, "{name} diverged at {threads} threads");
        }
    }
}

#[test]
fn broadcast_heavy_fanout_is_schedule_invariant() {
    // One producer, 16 consumers: every emission is snapshot-broadcast
    // across 16 edge lanes. Seeds vary period/burst/trigger so lane
    // occupancy differs per case; threads {2,4,8,16} cover partial pools
    // through full oversubscription (17 nodes).
    for seed in [1u64, 7, 23] {
        let config = support::broadcast_config(16, seed);
        let reference = support::run_synthetic(&config, 15, 1);
        assert!(reference.iter().all(|s| !s.is_empty()), "seed {seed}");
        for threads in [2, 4, 8, 16] {
            let got = support::run_synthetic(&config, 15, threads);
            assert_eq!(
                &reference, &got,
                "broadcast fan-out diverged: seed {seed}, threads {threads}"
            );
        }
    }
}

/// A shortened small campaign for the widened-matrix sweeps below: the
/// 4-fault × thread × batch grid is large, so each run is half the usual
/// differential length — still several analysis windows and a hundred
/// seconds of fault exposure per run.
fn matrix_campaign(engine_threads: usize, batch_size: usize) -> CampaignConfig {
    CampaignConfig {
        run_secs: 240,
        batch_size,
        metric_rank: true,
        ..support::small_campaign(engine_threads)
    }
}

#[test]
fn extended_fault_streams_identical_across_threads_and_batches() {
    // The widened fault matrix rides the same contract: for each new
    // kind, a (1 thread, batch 1) run is the reference and the full
    // threads {1,2,4,8} × batch {1,7,64} grid must reproduce every
    // analysis stream — the metric_rank tap included — bitwise.
    let base = matrix_campaign(1, 1);
    let model = support::small_model(&base);
    for fault in FaultKind::EXTENDED {
        let reference = support::pipeline_streams(&base, &model, Some(fault), 31);
        assert_eq!(reference.len(), 4, "metric_rank tap must be present");
        assert!(
            reference.iter().all(|s| !s.is_empty()),
            "reference run must produce output on every tap ({fault:?})"
        );
        for threads in [1, 2, 4, 8] {
            for batch_size in BATCHES {
                if threads == 1 && batch_size == 1 {
                    continue; // the reference itself
                }
                let cfg = matrix_campaign(threads, batch_size);
                let got = support::pipeline_streams(&cfg, &model, Some(fault), 31);
                assert_eq!(
                    reference, got,
                    "stream diverged: fault {fault:?}, threads {threads}, batch {batch_size}"
                );
            }
        }
    }
}

#[test]
fn trace_workload_streams_identical_across_threads_and_batches() {
    // Trace replay is deterministic by construction; here it must also be
    // schedule- and batch-invariant end to end, fault-free and under a
    // ramping fault, with the model trained on the replayed trace itself.
    let trace = support::sample_trace();
    let with_trace = |cfg: CampaignConfig| CampaignConfig {
        workload: Workload::Trace(Arc::clone(&trace)),
        ..cfg
    };
    let base = with_trace(matrix_campaign(1, 1));
    let model = support::small_model(&base);
    for fault in [None, Some(FaultKind::FlakyLink)] {
        let reference = support::pipeline_streams(&base, &model, fault, 47);
        assert!(
            reference.iter().all(|s| !s.is_empty()),
            "trace-replay reference must produce output on every tap ({fault:?})"
        );
        for threads in [1, 2, 4, 8] {
            for batch_size in BATCHES {
                if threads == 1 && batch_size == 1 {
                    continue;
                }
                let cfg = with_trace(matrix_campaign(threads, batch_size));
                let got = support::pipeline_streams(&cfg, &model, fault, 47);
                assert_eq!(
                    reference, got,
                    "trace-replay stream diverged: fault {fault:?}, threads {threads}, \
                     batch {batch_size}"
                );
            }
        }
    }
}

#[test]
fn extended_fault_alarms_and_rankings_identical_under_sharding() {
    // Campaign-path equality for the new kinds: window scores, alarm
    // sequences, and the per-node metric rankings must survive the
    // representative sharded/batched corners.
    let reference_cfg = matrix_campaign(1, 1);
    let model = support::small_model(&reference_cfg);
    for fault in FaultKind::EXTENDED {
        let reference = experiments::run_once(&reference_cfg, &model, Some(fault), 63);
        assert!(reference.bb.n_windows() > 0);
        assert!(
            reference.metric_ranks.is_some(),
            "metric_rank campaigns must extract rankings"
        );
        for (threads, batch_size) in [(4, 7), (8, 64)] {
            let cfg = matrix_campaign(threads, batch_size);
            let got = experiments::run_once(&cfg, &model, Some(fault), 63);
            assert_eq!(
                (&reference.bb, &reference.wb, &reference.metric_ranks),
                (&got.bb, &got.wb, &got.metric_ranks),
                "campaign trace diverged: fault {fault:?}, threads {threads}, \
                 batch {batch_size}"
            );
            assert_eq!(
                reference.combined_alarms(),
                got.combined_alarms(),
                "combined alarms diverged: fault {fault:?}, threads {threads}, \
                 batch {batch_size}"
            );
        }
    }
}

#[test]
fn sim_shards_compose_with_engine_threads_and_batches() {
    // The fleet contract: the simulator's worker-shard pool joins engine
    // threads and batch size as a parallelism knob that must be bitwise
    // invisible. A fully-serial run (1 sim shard, 1 thread, batch 1) is
    // the reference; the sim shards {1,2,4,8} × engine threads {1,4} ×
    // batch {1,64} grid must reproduce every analysis stream — the
    // metric_rank tap included — exactly.
    let base = CampaignConfig {
        sim_shards: 1,
        ..matrix_campaign(1, 1)
    };
    let model = support::small_model(&base);
    let reference = support::pipeline_streams(&base, &model, Some(FaultKind::Straggler), 53);
    assert_eq!(reference.len(), 4, "metric_rank tap must be present");
    assert!(
        reference.iter().all(|s| !s.is_empty()),
        "reference run must produce output on every tap"
    );
    for sim_shards in [1usize, 2, 4, 8] {
        for threads in [1usize, 4] {
            for batch_size in [1usize, 64] {
                if sim_shards == 1 && threads == 1 && batch_size == 1 {
                    continue; // the reference itself
                }
                let cfg = CampaignConfig {
                    sim_shards,
                    ..matrix_campaign(threads, batch_size)
                };
                let got = support::pipeline_streams(&cfg, &model, Some(FaultKind::Straggler), 53);
                assert_eq!(
                    reference, got,
                    "stream diverged: sim_shards {sim_shards}, threads {threads}, \
                     batch {batch_size}"
                );
            }
        }
    }
}

#[test]
fn rack_tree_reduce_rankings_match_flat_wiring() {
    // The rack path changes the DAG shape (one `sadc` per rack whose
    // `frame` feeds the rack's `knn` and a per-rack rack_agg, and a
    // metric_rank over the rack summaries) and nothing any tap sees:
    // rankings and the analysis streams behind the rack collectors must be
    // bitwise equal to the one-rack wiring at every rack count, including
    // with sim sharding and batching stacked on top.
    let flat = matrix_campaign(1, 1);
    let model = support::small_model(&flat);
    let reference = support::pipeline_streams(&flat, &model, Some(FaultKind::CpuHog), 29);
    assert!(
        reference.iter().all(|s| !s.is_empty()),
        "flat wiring must emit on every tap, rankings included"
    );
    for racks in [2usize, 3, 5] {
        for (sim_shards, threads, batch_size) in [(1, 1, 1), (4, 4, 64)] {
            let cfg = CampaignConfig {
                racks,
                sim_shards,
                ..matrix_campaign(threads, batch_size)
            };
            let got = support::pipeline_streams(&cfg, &model, Some(FaultKind::CpuHog), 29);
            assert_eq!(
                reference, got,
                "streams diverged: racks {racks}, sim_shards {sim_shards}, \
                 threads {threads}, batch {batch_size}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAG shapes (fan-in/fan-out widths, periods, burst sizes,
    /// triggers), tick counts, and worker counts: the sharded streams of
    /// every node must equal the serial ones bitwise. The `mix` nodes'
    /// non-commutative fold turns any reordering anywhere into a
    /// different value everywhere downstream.
    #[test]
    fn random_dags_are_schedule_invariant(
        seed in 0u64..1_000_000,
        ticks in 3u64..40,
        threads in 2usize..9,
    ) {
        let config = support::random_dag_config(seed);
        let reference = support::run_synthetic(&config, ticks, 1);
        let sharded = support::run_synthetic(&config, ticks, threads);
        prop_assert_eq!(
            &reference, &sharded,
            "diverged: seed {}, ticks {}, threads {}\nconfig:\n{}",
            seed, ticks, threads, config
        );
        // Roots are periodic with period <= 3, so the run is never empty.
        prop_assert!(reference.iter().any(|s| !s.is_empty()));
    }
}
