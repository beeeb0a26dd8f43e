//! Stream equivalence for the serial `TickEngine`, always with `==`, never
//! with a tolerance.
//!
//! * **Pinned streams.** FNV-1a constants (`support::fnv1a`) of envelope
//!   streams recorded at the serial engine while a sharded scheduler and a
//!   batched hand-off still ran beside it and matched it bitwise: random,
//!   degenerate, stress and broadcast DAGs over the order-sensitive `mix`
//!   fold, and the extended-fault and trace-workload campaigns. Any
//!   reordering, loss or duplication changes the digest.
//! * **Knobs that must not show.** The rack count of the generated wiring
//!   and the campaign pool's worker count change nothing any tap sees,
//!   with or without the metric_rank tap.

use asdf::experiments::{self, CampaignConfig, Workload};
use hadoop_sim::faults::FaultKind;
use integration_tests::support;

#[test]
fn figure_outputs_identical_across_campaign_threads() {
    // Whole-figure equality whatever the campaign pool's worker count.
    let cfg = |threads| CampaignConfig {
        threads,
        ..support::small_campaign()
    };
    let model = support::small_model(&cfg(1));
    let thresholds = [0.0, 25.0, 50.0];
    let ks = [0.0, 2.0, 4.0];
    let figures = |cfg: &CampaignConfig| {
        (
            experiments::fig7(cfg, &model),
            experiments::fig6a(cfg, &model, &thresholds),
            experiments::fig6b(cfg, &model, &ks),
        )
    };
    let reference = figures(&cfg(1));
    for threads in [2, 4] {
        assert!(figures(&cfg(threads)) == reference, "threads {threads}");
    }
}

#[test]
fn campaign_threads_compose_with_the_metric_rank_tap() {
    // The pool's workers each deploy the four-tap wiring (metric_rank
    // included); running them side by side must not change the sweep.
    let cfg = |threads| CampaignConfig {
        threads,
        ..matrix_campaign()
    };
    let model = support::small_model(&cfg(1));
    let thresholds = [0.0, 50.0];
    assert_eq!(
        experiments::fig6a(&cfg(1), &model, &thresholds),
        experiments::fig6a(&cfg(4), &model, &thresholds),
    );
}

#[test]
fn degenerate_and_stress_shapes_hold_their_pinned_digests() {
    // Shapes with no routing to speak of: a single-node DAG (no edges, no
    // merges), a zero-edge DAG of disconnected roots, and a deep DAG whose
    // triggers hold input back across ticks.
    let shapes: [(&str, String, u64); 3] = [
        (
            "single-node",
            "[pulse]\nid = solo\nperiod = 1\nburst = 2\n\n".to_owned(),
            0x8a31_33cd_7911_c4d1,
        ),
        (
            "zero-edge",
            "[pulse]\nid = a\nperiod = 1\nburst = 1\n\n\
             [pulse]\nid = b\nperiod = 2\nburst = 3\n\n\
             [pulse]\nid = c\nperiod = 3\nburst = 2\n\n"
                .to_owned(),
            0x4da2_78e1_1a2d_001e,
        ),
        (
            "deep-trigger",
            support::random_dag_config(424_242),
            0x1923_43fd_3aa5_9d81,
        ),
    ];
    for (name, config, digest) in &shapes {
        let streams = support::run_synthetic(config, 12);
        assert!(streams.iter().any(|s| !s.is_empty()), "{name} must emit");
        let got = support::fnv1a(&streams);
        assert_eq!(got, *digest, "{name}: stream digest {got:#018x}");
    }
}

#[test]
fn broadcast_heavy_fanout_holds_its_pinned_digests() {
    // One producer, 16 consumers: every emission is snapshot-broadcast to
    // 16 slot queues. Seeds vary period, burst and trigger.
    for (seed, digest) in [
        (1u64, 0xa92c_98d3_88da_24c2),
        (7, 0xc61b_8479_804e_97d8),
        (23, 0xa856_7072_e0ad_9bcf),
    ] {
        let streams = support::run_synthetic(&support::broadcast_config(16, seed), 15);
        assert!(streams.iter().all(|s| !s.is_empty()), "seed {seed}");
        let got = support::fnv1a(&streams);
        assert_eq!(got, digest, "seed {seed}: stream digest {got:#018x}");
    }
}

/// A shortened small campaign with the `metric_rank` tap: each run is half
/// the usual length — still several analysis windows and a hundred seconds
/// of fault exposure.
fn matrix_campaign() -> CampaignConfig {
    CampaignConfig {
        run_secs: 240,
        metric_rank: true,
        ..support::small_campaign()
    }
}

/// FNV-1a of the four analysis streams per `FaultKind::EXTENDED` kind
/// (Straggler, MemLeak, FlakyLink, GrayFailure), the metric_rank tap
/// included.
const EXTENDED_FAULT_FNV: [u64; 4] = [
    0x5adc_39c4_5fac_11cc,
    0x644d_cb03_57fc_5b5d,
    0x169f_9713_7179_d06c,
    0x127c_67d2_6df7_bfd6,
];

#[test]
fn extended_fault_streams_hold_their_pinned_digests() {
    let base = matrix_campaign();
    let model = support::small_model(&base);
    for (fault, digest) in FaultKind::EXTENDED.into_iter().zip(EXTENDED_FAULT_FNV) {
        let streams = support::pipeline_streams(&base, &model, Some(fault), 31);
        assert_eq!(streams.len(), 4, "metric_rank tap must be present");
        assert!(
            streams.iter().all(|s| !s.is_empty()),
            "every tap must produce output ({fault:?})"
        );
        let got = support::fnv1a(&streams);
        assert_eq!(got, digest, "{fault:?}: stream digest {got:#018x}");
    }
}

#[test]
fn trace_workload_streams_hold_their_pinned_digests() {
    // Trace replay end to end, fault-free and under a ramping fault, with
    // the model trained on the replayed trace itself.
    let base = CampaignConfig {
        workload: Workload::Trace(support::sample_trace()),
        ..matrix_campaign()
    };
    let model = support::small_model(&base);
    for (fault, digest) in [
        (None, 0xa4d3_ccd8_a240_b171),
        (Some(FaultKind::FlakyLink), 0x5def_fd97_afff_aa99),
    ] {
        let streams = support::pipeline_streams(&base, &model, fault, 47);
        assert!(
            streams.iter().all(|s| !s.is_empty()),
            "every tap must produce output ({fault:?})"
        );
        let got = support::fnv1a(&streams);
        assert_eq!(got, digest, "{fault:?}: stream digest {got:#018x}");
    }
}

#[test]
fn rack_tree_reduce_rankings_match_flat_wiring() {
    // The rack path changes the DAG shape (one `sadc` per rack whose
    // `frame` feeds the rack's `knn` and a per-rack rack_agg, and a
    // metric_rank over the rack summaries) and nothing any tap sees:
    // rankings and the analysis streams behind the rack collectors must be
    // bitwise equal to the one-rack wiring at every rack count, up to a
    // rack per node (`racks = 7` over 5 nodes).
    let flat = matrix_campaign();
    let model = support::small_model(&flat);
    let reference = support::pipeline_streams(&flat, &model, Some(FaultKind::CpuHog), 29);
    assert!(
        reference.iter().all(|s| !s.is_empty()),
        "flat wiring must emit on every tap, rankings included"
    );
    for racks in [1usize, 2, 3, 7] {
        let cfg = CampaignConfig {
            racks,
            ..matrix_campaign()
        };
        let got = support::pipeline_streams(&cfg, &model, Some(FaultKind::CpuHog), 29);
        assert_eq!(reference, got, "streams diverged: racks {racks}");
    }
}

/// A fixed list of 32 `random_dag_config` seeds, each with the FNV-1a of
/// every node's stream over `3 + seed % 37` ticks.
const RANDOM_DAGS: [(u64, u64); 32] = [
    (13, 0xce13_f18f_132f_8648),
    (7932, 0xcc99_9c34_c1e8_547a),
    (15851, 0xb14a_6942_7eca_8a47),
    (23770, 0xe6a8_3f08_f053_462a),
    (31689, 0x6686_864b_f61a_1c8c),
    (39608, 0xf775_37d5_242c_38de),
    (47527, 0x84fa_8d08_3ace_4f72),
    (55446, 0xf1e3_9e75_622a_6355),
    (63365, 0x51fa_2789_bd07_b052),
    (71284, 0x3884_af8d_7ab2_5f7c),
    (79203, 0x6518_0525_5067_09c6),
    (87122, 0x01fc_db8d_77c7_46de),
    (95041, 0x70c3_9ddf_a718_56ee),
    (102960, 0x935a_4c9d_cc0b_ad4b),
    (110879, 0x594e_e1a3_8924_f39c),
    (118798, 0x7ab3_a366_9256_e734),
    (126717, 0x2dc3_b604_f576_68be),
    (134636, 0xf596_f5e2_11a4_d9cd),
    (142555, 0x7685_49ce_53b5_7c95),
    (150474, 0x21d6_56e3_c3f0_5fe7),
    (158393, 0x4758_02da_1c8f_5654),
    (166312, 0x7e0c_583a_c6e8_636d),
    (174231, 0xba5f_568b_9fd4_421d),
    (182150, 0x365b_4e0a_4a41_e5f2),
    (190069, 0xe8cb_2b48_bb90_d5ca),
    (197988, 0x5e15_4a4c_3c2a_e60e),
    (205907, 0xd88a_7b5b_ed89_8b27),
    (213826, 0x4dfd_e8b8_670d_6119),
    (221745, 0x32d3_ffe1_d0c1_b3fa),
    (229664, 0xcaf0_1a3a_0ca3_9be8),
    (237583, 0xd009_191f_309b_feb1),
    (245502, 0x2844_312a_e35d_79d3),
];

#[test]
fn random_dags_hold_their_pinned_digests() {
    // Fan-in and fan-out widths, periods, bursts and triggers vary with the
    // seed; the `mix` fold turns any reordering anywhere into a different
    // value everywhere downstream.
    for (seed, digest) in RANDOM_DAGS {
        let config = support::random_dag_config(seed);
        let streams = support::run_synthetic(&config, 3 + seed % 37);
        assert!(streams.iter().any(|s| !s.is_empty()), "seed {seed}");
        let got = support::fnv1a(&streams);
        assert_eq!(
            got, digest,
            "seed {seed}: stream digest {got:#018x}\n{config}"
        );
    }
}
