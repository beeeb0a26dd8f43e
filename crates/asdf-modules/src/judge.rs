//! The judge: the one place a verdict is decided (paper §4.4–4.5).
//!
//! A node is anomalous in a window when its score exceeds the threshold,
//! and alarmed once it has been anomalous in `consecutive` windows in a
//! row (the paper "took at least 3 consecutive windows to gain
//! confidence"). `analysis_bb`'s score is an L1 distance against
//! `threshold`; `analysis_wb`'s is `kcrit` against `k`, flagged while
//! `k < kcrit`. The offline threshold sweeps run the same [`Judge`].

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, PortId, RunCtx};
use asdf_core::time::Timestamp;
use asdf_core::value::Sample;

/// The paper's black-box L1 threshold.
pub const BB_THRESHOLD: f64 = 60.0;
/// The paper's white-box threshold multiplier `k`.
pub const WB_K: f64 = 3.0;
/// The paper's confirmation depth: anomalous windows before an alarm.
pub const CONSECUTIVE: usize = 3;

/// Checks a threshold (`threshold`, `k`): a number, not below zero. A NaN
/// one would never alarm, a negative one would alarm every node.
///
/// # Errors
///
/// Why it is rejected.
pub fn check_threshold(threshold: f64) -> Result<f64, &'static str> {
    if threshold >= 0.0 {
        Ok(threshold)
    } else {
        Err("must be a non-negative number")
    }
}

/// Per-node streaks of anomalous windows, judged against one threshold.
#[derive(Debug)]
pub struct Judge {
    threshold: f64,
    consecutive: usize,
    streaks: Vec<usize>,
}

impl Judge {
    /// A judge of `nodes` nodes, none anomalous yet.
    pub fn new(nodes: usize, threshold: f64, consecutive: usize) -> Self {
        Judge {
            threshold,
            consecutive,
            streaks: vec![0; nodes],
        }
    }

    /// Judges `node`'s `score` in the next window: whether it is alarmed.
    /// A NaN score is never anomalous.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not below the judge's node count.
    pub fn judge(&mut self, node: usize, score: f64) -> bool {
        let streak = &mut self.streaks[node];
        *streak = if score > self.threshold {
            *streak + 1
        } else {
            0
        };
        *streak >= self.consecutive
    }
}

/// A [`Judge`] wired to an analysis's per-node verdict ports: the one
/// reader of its threshold and `consecutive`, and the one writer of its
/// verdicts.
#[derive(Debug)]
pub(crate) struct Verdicts {
    judge: Judge,
    /// Per node, its score port and its alarm port.
    ports: Vec<(PortId, PortId)>,
}

impl Verdicts {
    /// Reads the `threshold` parameter (default `default`) and
    /// `consecutive` (default [`CONSECUTIVE`]), and declares `alarm<i>`
    /// then `<score><i>` for each of the `origins`.
    ///
    /// # Errors
    ///
    /// `InvalidParameter` for a threshold [`check_threshold`] rejects or
    /// a zero `consecutive`, and for either unparsable.
    pub(crate) fn init(
        ctx: &mut InitCtx<'_>,
        threshold: &str,
        default: f64,
        score: &str,
        origins: Vec<String>,
    ) -> Result<Self, ModuleError> {
        let value = check_threshold(ctx.parse_param_or(threshold, default)?)
            .map_err(|why| ModuleError::invalid_parameter(threshold, why))?;
        let consecutive = ctx.parse_param_or("consecutive", CONSECUTIVE)?;
        if consecutive == 0 {
            return Err(ModuleError::invalid_parameter(
                "consecutive",
                "must be positive",
            ));
        }
        let judge = Judge::new(origins.len(), value, consecutive);
        let ports = origins.into_iter().enumerate().map(|(i, origin)| {
            let alarm = ctx.declare_output_with_origin(format!("alarm{i}"), origin.clone());
            let score_port = ctx.declare_output_with_origin(format!("{score}{i}"), origin);
            (score_port, alarm)
        });
        Ok(Verdicts {
            ports: ports.collect(),
            judge,
        })
    }

    /// Emits `node`'s `score` for the window ending at second `t`, then
    /// its alarm.
    pub(crate) fn emit(&mut self, ctx: &mut RunCtx<'_>, t: u64, node: usize, score: f64) {
        let (score_port, alarm_port) = self.ports[node];
        let alarm = self.judge.judge(node, score);
        let t = Timestamp::from_secs(t);
        ctx.out.emit_sample(score_port, Sample::new(t, score));
        ctx.out.emit_sample(alarm_port, Sample::new(t, alarm));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The alarms one node's scores raise against threshold 5.
    fn alarms(consecutive: usize, scores: &[f64]) -> Vec<bool> {
        let mut judge = Judge::new(1, 5.0, consecutive);
        scores.iter().map(|&s| judge.judge(0, s)).collect()
    }

    #[test]
    fn the_rule_at_its_edges() {
        let (t, f, nan) = (true, false, f64::NAN);
        for (what, consecutive, scores, want) in [
            ("strict > at equality", 1, &[5.0, 5.1][..], &[f, t][..]),
            ("NaN is never anomalous", 1, &[nan, 6.0], &[f, t]),
            ("NaN resets the streak", 2, &[6.0, nan, 6.0], &[f, f, f]),
            ("quiet resets", 2, &[6.0, 1.0, 6.0, 6.0], &[f, f, f, t]),
            ("consecutive 1 alarms at once", 1, &[6.0, 1.0], &[t, f]),
            ("counts past consecutive", 2, &[6.0; 4], &[f, t, t, t]),
        ] {
            assert_eq!(alarms(consecutive, scores), want, "{what}");
        }
    }

    #[test]
    fn nodes_keep_their_own_streaks() {
        let mut judge = Judge::new(2, 5.0, 2);
        assert!(!judge.judge(0, 6.0));
        assert!(!judge.judge(1, 6.0));
        assert!(!judge.judge(1, 1.0));
        assert!(judge.judge(0, 6.0));
        assert!(!judge.judge(1, 6.0));
    }

    #[test]
    fn a_threshold_is_a_non_negative_number() {
        assert_eq!(check_threshold(0.0), Ok(0.0));
        assert_eq!(check_threshold(f64::INFINITY), Ok(f64::INFINITY));
        for bad in [-1.0, -f64::MIN_POSITIVE, f64::NAN, f64::NEG_INFINITY] {
            assert!(check_threshold(bad).is_err(), "{bad}");
        }
    }
}
