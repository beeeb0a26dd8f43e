//! Evaluation metrics: false-positive rate, balanced accuracy, and
//! fingerpointing latency (paper §4.6).
//!
//! The unit of evaluation is the *node-window*: each analysis window
//! produces one verdict per node. Ground truth labels a node-window
//! problematic when it belongs to the injected culprit node at or after
//! the injection time — deliberately including the dormant period of
//! HADOOP-1152/2080, exactly as the paper does (which is why those faults
//! score lower).

use asdf_core::module::Envelope;
use asdf_modules::judge::Judge;

/// Per-window, per-node output of one analysis instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisTrace {
    /// Evaluation timestamps (window ends), ascending.
    pub window_times: Vec<u64>,
    /// `scores[w][n]`: the raw sweepable score of node `n` in window `w`
    /// (L1 distance for the black-box path, critical-k for the white-box
    /// path).
    pub scores: Vec<Vec<f64>>,
    /// `alarms[w][n]`: the module's own gated alarm verdicts.
    pub alarms: Vec<Vec<bool>>,
    /// `path_scores[p][w][n]`: when this trace merges several paths, each
    /// path's own scores (empty for one path).
    pub path_scores: Vec<Vec<Vec<f64>>>,
}

impl AnalysisTrace {
    /// Number of evaluation windows.
    pub fn n_windows(&self) -> usize {
        self.window_times.len()
    }

    /// Extracts a trace from a tapped analysis instance's envelopes.
    ///
    /// `score_prefix` selects the diagnostic ports (`dist` for
    /// `analysis_bb`, `kcrit` for `analysis_wb`). An envelope whose port
    /// suffix is not a node index below `n_nodes`, or whose value has the
    /// wrong type (an alarm must be a `Bool`, a score numeric), is skipped;
    /// its window is then partial and left out, as a truncated tap's is.
    pub fn from_envelopes(envelopes: &[Envelope], n_nodes: usize, score_prefix: &str) -> Self {
        use std::collections::BTreeMap;
        /// Partially-assembled row: per-node scores and alarms.
        type PartialRow = (Vec<Option<f64>>, Vec<Option<bool>>);
        let node = |suffix: &str| suffix.parse::<usize>().ok().filter(|&i| i < n_nodes);
        let mut by_time: BTreeMap<u64, PartialRow> = BTreeMap::new();
        for env in envelopes {
            let name = &env.source.name;
            let t = env.sample.timestamp.as_secs();
            let entry = by_time
                .entry(t)
                .or_insert_with(|| (vec![None; n_nodes], vec![None; n_nodes]));
            let value = &env.sample.value;
            if let Some(suffix) = name.strip_prefix("alarm") {
                if let (Some(idx), Some(alarm)) = (node(suffix), value.as_bool()) {
                    entry.1[idx] = Some(alarm);
                }
            } else if let Some(suffix) = name.strip_prefix(score_prefix) {
                if let (Some(idx), Some(score)) = (node(suffix), value.as_float()) {
                    entry.0[idx] = Some(score);
                }
            }
        }
        let mut trace = AnalysisTrace::default();
        for (t, (scores, alarms)) in by_time {
            // Skip partial rows: a truncated tap or a skipped envelope.
            if scores.iter().any(Option::is_none) || alarms.iter().any(Option::is_none) {
                continue;
            }
            trace.window_times.push(t);
            trace
                .scores
                .push(scores.into_iter().map(Option::unwrap).collect());
            trace
                .alarms
                .push(alarms.into_iter().map(Option::unwrap).collect());
        }
        trace
    }

    /// Each path's scores: the merged paths', or this trace's own.
    fn paths(&self) -> &[Vec<Vec<f64>>] {
        if self.path_scores.is_empty() {
            std::slice::from_ref(&self.scores)
        } else {
            &self.path_scores
        }
    }

    /// Merges two traces window-by-window, keeping the max score, OR-ing
    /// alarms and keeping each path's scores (used to combine the
    /// TaskTracker and DataNode white-box analyses, and the
    /// black-box/white-box combination).
    ///
    /// Extra trailing windows in the longer trace are dropped.
    #[must_use]
    pub fn merge_max(&self, other: &AnalysisTrace) -> AnalysisTrace {
        let n = self.n_windows().min(other.n_windows());
        let times = self.window_times.iter().zip(&other.window_times);
        let paths = self.paths().iter().chain(other.paths());
        AnalysisTrace {
            window_times: times.map(|(a, b)| *a.max(b)).collect(),
            scores: zip_rows(&self.scores, &other.scores, f64::max),
            alarms: zip_rows(&self.alarms, &other.alarms, |a, b| a || b),
            path_scores: paths.map(|path| path[..n].to_vec()).collect(),
        }
    }

    /// Re-derives gated alarm verdicts from the raw scores with a
    /// different threshold — what lets one run serve a whole
    /// threshold-sweep figure. The [`Judge`] decides, as it does live: a
    /// black-box trace takes an L1 `threshold`, a white-box one a `k`. A
    /// merged trace's paths are judged one by one and their alarms OR-ed,
    /// as the live verdicts were merged.
    pub fn reflag(&self, threshold: f64, consecutive: usize) -> Vec<Vec<bool>> {
        let n_nodes = self.scores.first().map_or(0, Vec::len);
        let mut alarms = vec![vec![false; n_nodes]; self.n_windows()];
        for path in self.paths() {
            let mut judge = Judge::new(n_nodes, threshold, consecutive);
            for (flags, row) in alarms.iter_mut().zip(path) {
                for (node, (flag, &score)) in flags.iter_mut().zip(row).enumerate() {
                    *flag |= judge.judge(node, score);
                }
            }
        }
        alarms
    }
}

/// `f` of `a`'s and `b`'s entries pair by pair, row by row, as far as
/// the shorter of each reaches.
fn zip_rows<T: Copy>(a: &[Vec<T>], b: &[Vec<T>], f: impl Fn(T, T) -> T) -> Vec<Vec<T>> {
    let row = |(x, y): (&Vec<T>, &Vec<T>)| x.iter().zip(y).map(|(p, q)| f(*p, *q)).collect();
    a.iter().zip(b).map(row).collect()
}

/// What was actually injected, for scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundTruth {
    /// The culprit node, or `None` for a fault-free run.
    pub culprit: Option<usize>,
    /// Injection time in cluster seconds (ignored when fault-free).
    pub injected_at: u64,
}

impl GroundTruth {
    /// A fault-free run.
    pub fn fault_free() -> Self {
        GroundTruth {
            culprit: None,
            injected_at: 0,
        }
    }

    /// Whether node `node` is problematic in the window ending at `t`.
    pub fn is_problem(&self, node: usize, t: u64) -> bool {
        self.culprit == Some(node) && t >= self.injected_at
    }
}

/// Counts of the four verdict outcomes over node-windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Problematic node-windows flagged.
    pub tp: u64,
    /// Problem-free node-windows flagged.
    pub fp: u64,
    /// Problem-free node-windows not flagged.
    pub tn: u64,
    /// Problematic node-windows not flagged.
    pub fn_: u64,
}

impl Confusion {
    /// Tallies verdicts against ground truth.
    pub fn tally(alarms: &[Vec<bool>], window_times: &[u64], truth: GroundTruth) -> Self {
        let mut c = Confusion::default();
        for (row, &t) in alarms.iter().zip(window_times) {
            for (node, &flagged) in row.iter().enumerate() {
                match (truth.is_problem(node, t), flagged) {
                    (true, true) => c.tp += 1,
                    (true, false) => c.fn_ += 1,
                    (false, true) => c.fp += 1,
                    (false, false) => c.tn += 1,
                }
            }
        }
        c
    }

    /// True-positive rate (0 when no problematic windows exist).
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// True-negative rate (0 when no problem-free windows exist).
    pub fn tnr(&self) -> f64 {
        ratio(self.tn, self.tn + self.fp)
    }

    /// False-positive rate over problem-free node-windows.
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// Balanced accuracy: the mean of TPR and TNR (paper §4.9: "averages
    /// the probability of correctly identifying problematic and
    /// problem-free windows").
    pub fn balanced_accuracy(&self) -> f64 {
        (self.tpr() + self.tnr()) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fingerpointing latency: seconds from injection to the first alarm that
/// correctly names the culprit (paper §4.6: "the time interval between the
/// injection of the problem ... and the raising of the corresponding
/// alarm"). `None` when the culprit is never flagged.
pub fn fingerpointing_latency(
    alarms: &[Vec<bool>],
    window_times: &[u64],
    truth: GroundTruth,
) -> Option<u64> {
    let culprit = truth.culprit?;
    for (row, &t) in alarms.iter().zip(window_times) {
        if t >= truth.injected_at && row[culprit] {
            return Some(t - truth.injected_at);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_core::module::OutputMeta;
    use asdf_core::time::Timestamp;
    use asdf_core::value::Sample;
    use std::sync::Arc;

    fn env(port: &str, t: u64, value: asdf_core::value::Value) -> Envelope {
        Envelope {
            source: Arc::new(OutputMeta {
                instance: "bb".into(),
                name: port.into(),
                origin: format!("origin-{port}"),
            }),
            sample: Sample {
                timestamp: Timestamp::from_secs(t),
                value,
            },
        }
    }

    fn trace_2nodes() -> AnalysisTrace {
        let mut envs = Vec::new();
        for (w, t) in [60u64, 120, 180].iter().enumerate() {
            for node in 0..2 {
                let score = if node == 1 && w >= 1 { 80.0 } else { 5.0 };
                envs.push(env(&format!("dist{node}"), *t, score.into()));
                envs.push(env(&format!("alarm{node}"), *t, (score > 60.0).into()));
            }
        }
        AnalysisTrace::from_envelopes(&envs, 2, "dist")
    }

    #[test]
    fn extraction_groups_by_window() {
        let tr = trace_2nodes();
        assert_eq!(tr.window_times, vec![60, 120, 180]);
        assert_eq!(tr.scores[0], vec![5.0, 5.0]);
        assert_eq!(tr.scores[1], vec![5.0, 80.0]);
        assert_eq!(tr.alarms[2], vec![false, true]);
    }

    #[test]
    fn a_malformed_envelope_is_skipped_and_its_window_dropped() {
        let mut envs = Vec::new();
        for t in [60u64, 120, 180, 240, 300] {
            for node in 0..2 {
                envs.push(env(&format!("dist{node}"), t, 5.0.into()));
                envs.push(env(&format!("alarm{node}"), t, false.into()));
            }
        }
        // Window 120 loses node 1's alarm to a Float on its `alarm` port;
        // 180 gets a suffix that is no index; 240 gets index n_nodes.
        envs[7] = env("alarm1", 120, 1.0.into());
        envs.push(env("alarmx", 180, true.into()));
        envs.push(env("dist2", 240, 9.0.into()));
        envs.push(env("alarm2", 240, true.into()));
        let tr = AnalysisTrace::from_envelopes(&envs, 2, "dist");
        assert_eq!(tr.window_times, vec![60, 180, 240, 300]);
        assert!(tr.scores.iter().all(|row| row == &[5.0, 5.0]));
        assert!(tr.alarms.iter().flatten().all(|&a| !a));
        // A `Bool` on a score port drops its window the same way.
        envs[16] = env("dist0", 300, true.into());
        let tr = AnalysisTrace::from_envelopes(&envs, 2, "dist");
        assert_eq!(tr.window_times, vec![60, 180, 240]);
    }

    #[test]
    fn reflag_applies_threshold_and_streak() {
        let tr = trace_2nodes();
        // Threshold 50, consecutive 2: node 1 anomalous at w1, w2 → alarm at w2.
        let flags = tr.reflag(50.0, 2);
        assert_eq!(flags[0], vec![false, false]);
        assert_eq!(flags[1], vec![false, false]);
        assert_eq!(flags[2], vec![false, true]);
        // Threshold 1: everything anomalous; consecutive 1 flags all.
        let flags = tr.reflag(1.0, 1);
        assert!(flags.iter().flatten().all(|&f| f));
    }

    #[test]
    fn confusion_and_balanced_accuracy() {
        let tr = trace_2nodes();
        let truth = GroundTruth {
            culprit: Some(1),
            injected_at: 100,
        };
        // Alarms: node1 flagged at 120 and 180 (problem windows: 120, 180).
        let c = Confusion::tally(&tr.alarms, &tr.window_times, truth);
        assert_eq!((c.tp, c.fn_), (2, 0));
        // Problem-free node-windows: node0 ×3 + node1@60 = 4, none flagged.
        assert_eq!((c.fp, c.tn), (0, 4));
        assert_eq!(c.balanced_accuracy(), 1.0);
        assert_eq!(c.fpr(), 0.0);
    }

    #[test]
    fn missed_detection_halves_balanced_accuracy() {
        let alarms = vec![vec![false, false]; 3];
        let times = vec![60, 120, 180];
        let truth = GroundTruth {
            culprit: Some(0),
            injected_at: 0,
        };
        let c = Confusion::tally(&alarms, &times, truth);
        assert_eq!(c.tpr(), 0.0);
        assert_eq!(c.tnr(), 1.0);
        assert_eq!(c.balanced_accuracy(), 0.5);
    }

    #[test]
    fn latency_measures_from_injection() {
        let tr = trace_2nodes();
        let truth = GroundTruth {
            culprit: Some(1),
            injected_at: 100,
        };
        assert_eq!(
            fingerpointing_latency(&tr.alarms, &tr.window_times, truth),
            Some(20)
        );
        // Never flagged -> None.
        let truth0 = GroundTruth {
            culprit: Some(0),
            injected_at: 100,
        };
        assert_eq!(
            fingerpointing_latency(&tr.alarms, &tr.window_times, truth0),
            None
        );
        // Fault-free -> None.
        assert_eq!(
            fingerpointing_latency(&tr.alarms, &tr.window_times, GroundTruth::fault_free()),
            None
        );
    }

    #[test]
    fn merge_max_combines_paths() {
        let a = trace_2nodes();
        let mut b = trace_2nodes();
        // Make path b see node 0 as the deviant instead.
        for row in &mut b.scores {
            row.swap(0, 1);
        }
        for row in &mut b.alarms {
            row.swap(0, 1);
        }
        let merged = a.merge_max(&b);
        assert_eq!(merged.n_windows(), 3);
        assert_eq!(merged.scores[1], vec![80.0, 80.0]);
        assert_eq!(merged.alarms[2], vec![true, true]);
        assert_eq!(merged.path_scores, [a.scores, b.scores]);
    }

    #[test]
    fn reflag_judges_each_merged_path_alone() {
        // Node 1 is anomalous on path a in window 1 and on path b in
        // window 2: the max score is anomalous twice running, but neither
        // path is, so two-window confirmation alarms nowhere.
        let path = |anomalous: usize| AnalysisTrace {
            scores: (0..3)
                .map(|w| vec![5.0, if w == anomalous { 80.0 } else { 5.0 }])
                .collect(),
            ..trace_2nodes()
        };
        let merged = path(1).merge_max(&path(2));
        assert_eq!(merged.scores[1..], [vec![5.0, 80.0], vec![5.0, 80.0]]);
        assert!(merged.reflag(50.0, 2).iter().flatten().all(|&f| !f));
        // At depth 1, either path alarms.
        let flags = merged.reflag(50.0, 1);
        assert_eq!(flags[1..], [vec![false, true], vec![false, true]]);
    }

    #[test]
    fn ground_truth_labels_windows() {
        let t = GroundTruth {
            culprit: Some(2),
            injected_at: 500,
        };
        assert!(!t.is_problem(2, 499));
        assert!(t.is_problem(2, 500));
        assert!(!t.is_problem(1, 600));
        assert!(!GroundTruth::fault_free().is_problem(0, 1000));
    }
}
