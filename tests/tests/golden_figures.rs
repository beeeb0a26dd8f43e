//! Golden-fixture tests for the campaign summaries.
//!
//! The small-cluster fig6/fig7 outputs are rendered to deterministic JSON
//! and compared byte-for-byte against fixtures under `tests/fixtures/`.
//! Any analysis or engine change that shifts a number fails here until
//! the fixture is deliberately regenerated (`UPDATE_FIXTURES=1 cargo test
//! -p integration-tests --test golden_figures`), making result drift a
//! reviewed artifact instead of a silent one.

use asdf::experiments;
use integration_tests::support;

#[test]
fn fig7_summary_matches_fixture() {
    let cfg = support::small_campaign();
    let model = support::small_model(&cfg);
    let rows = experiments::fig7(&cfg, &model);
    support::assert_matches_fixture("fig7_small.json", &support::render_fig7_json(&rows));
}

#[test]
fn fig6_summaries_match_fixtures() {
    let cfg = support::small_campaign();
    let model = support::small_model(&cfg);
    let thresholds: Vec<f64> = (0..=7).map(|i| f64::from(i) * 10.0).collect();
    support::assert_matches_fixture(
        "fig6a_small.json",
        &support::render_sweep_json("threshold", &experiments::fig6a(&cfg, &model, &thresholds)),
    );
    let ks: Vec<f64> = (0..=5).map(f64::from).collect();
    support::assert_matches_fixture(
        "fig6b_small.json",
        &support::render_sweep_json("k", &experiments::fig6b(&cfg, &model, &ks)),
    );
}
