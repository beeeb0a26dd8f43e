//! Simulation-friendly time types.
//!
//! ASDF collects one sample per second per metric (the paper's collection
//! rate), so the framework's native clock resolution is one second.
//! [`Timestamp`] is an absolute second count since an arbitrary epoch (the
//! start of an engine run), and [`TickDuration`] is a span in seconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute point in time, in whole seconds since the engine epoch.
///
/// Both engines stamp samples with a `Timestamp`, and in both it is the
/// tick index: the online engine paces ticks against a wall clock (one per
/// `wall_per_tick / speed`) but never skips one.
///
/// # Examples
///
/// ```
/// use asdf_core::time::{Timestamp, TickDuration};
///
/// let t = Timestamp::from_secs(10) + TickDuration::from_secs(5);
/// assert_eq!(t.as_secs(), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The engine epoch (t = 0).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Returns the number of whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Returns the timestamp advanced by one second.
    #[must_use]
    pub const fn next(self) -> Self {
        Timestamp(self.0 + 1)
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// Saturates to zero if `earlier` is after `self`, mirroring
    /// [`std::time::Instant::saturating_duration_since`].
    #[must_use]
    pub const fn saturating_since(self, earlier: Timestamp) -> TickDuration {
        TickDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}s", self.0)
    }
}

impl Add<TickDuration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: TickDuration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<TickDuration> for Timestamp {
    fn add_assign(&mut self, rhs: TickDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TickDuration;

    fn sub(self, rhs: Timestamp) -> TickDuration {
        self.saturating_since(rhs)
    }
}

/// A span of time in whole seconds.
///
/// Used for periodic-scheduling requests ([`crate::module::InitCtx::request_periodic`])
/// and analysis window arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TickDuration(u64);

impl TickDuration {
    /// A one-second span, the framework's native sampling period.
    pub const SECOND: TickDuration = TickDuration(1);

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        TickDuration(secs)
    }

    /// Returns the span in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TickDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl Add for TickDuration {
    type Output = TickDuration;

    fn add(self, rhs: TickDuration) -> TickDuration {
        TickDuration(self.0 + rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_round_trips() {
        let t = Timestamp::from_secs(42);
        assert_eq!(t.as_secs(), 42);
        assert_eq!((t + TickDuration::from_secs(8)).as_secs(), 50);
        assert_eq!(t.next().as_secs(), 43);
    }

    #[test]
    fn saturating_since_clamps_at_zero() {
        let early = Timestamp::from_secs(5);
        let late = Timestamp::from_secs(9);
        assert_eq!(late.saturating_since(early), TickDuration::from_secs(4));
        assert_eq!(early.saturating_since(late), TickDuration::from_secs(0));
        assert_eq!(late - early, TickDuration::from_secs(4));
    }

    #[test]
    fn add_assign_advances_in_place() {
        let mut t = Timestamp::EPOCH;
        t += TickDuration::from_secs(3);
        t += TickDuration::SECOND;
        assert_eq!(t, Timestamp::from_secs(4));
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Timestamp::from_secs(7).to_string(), "t+7s");
        assert_eq!(TickDuration::from_secs(60).to_string(), "60s");
    }

    #[test]
    fn duration_sum_and_zero() {
        assert_eq!(TickDuration::default(), TickDuration::from_secs(0));
        assert_eq!(
            TickDuration::from_secs(2) + TickDuration::from_secs(3),
            TickDuration::from_secs(5)
        );
    }
}
