//! `n_departure(t, t+T)` — scheduled departures in the next control period.
//!
//! Section IV: *"It can be easily derived, since each VM request is
//! submitted with an estimated running time."* The simulator passes the
//! estimated remaining runtimes of all active VMs; everything with an
//! estimate inside the window counts as departing.

//!
//! [`DueDeadlines`] keeps the same count incrementally: a remaining
//! estimate is within `T` of `now` exactly when its deadline is at or
//! before `now + T`, and that horizon only moves forward.

use dvmp_simcore::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Counts remaining-runtime estimates that fall within `window`.
pub fn departures_within<I>(remaining: I, window: SimDuration) -> u64
where
    I: IntoIterator<Item = SimDuration>,
{
    remaining.into_iter().filter(|r| *r <= window).count() as u64
}

/// Estimate deadlines of keyed entries, counted against a horizon that
/// never moves back: each entry is counted once when the horizon passes
/// it, so a query costs O(entries newly due + log n) instead of a scan.
#[derive(Debug, Clone)]
pub struct DueDeadlines<K> {
    horizon: SimTime,
    /// Entries with a deadline after `horizon`.
    pending: BTreeSet<(SimTime, K)>,
    /// Entries with a deadline at or before `horizon`.
    due: u64,
}

impl<K> Default for DueDeadlines<K> {
    fn default() -> Self {
        DueDeadlines {
            horizon: SimTime::ZERO,
            pending: BTreeSet::new(),
            due: 0,
        }
    }
}

impl<K: Ord + Copy> DueDeadlines<K> {
    /// Files `key` under `deadline`.
    pub fn insert(&mut self, deadline: SimTime, key: K) {
        if deadline <= self.horizon {
            self.due += 1;
        } else {
            self.pending.insert((deadline, key));
        }
    }

    /// Removes `key`, filed under `deadline`.
    pub fn remove(&mut self, deadline: SimTime, key: K) {
        if deadline <= self.horizon {
            self.due -= 1;
        } else {
            let filed = self.pending.remove(&(deadline, key));
            debug_assert!(filed, "removed a deadline that was never filed");
        }
    }

    /// Entries whose deadline is at or before `horizon`, which must not be
    /// earlier than any horizon asked before.
    pub fn due_by(&mut self, horizon: SimTime) -> u64 {
        debug_assert!(horizon >= self.horizon, "the horizon moved back");
        self.horizon = horizon;
        while self.pending.first().is_some_and(|&(d, _)| d <= horizon) {
            self.pending.pop_first();
            self.due += 1;
        }
        self.due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    #[test]
    fn counts_only_inside_window() {
        let remaining = vec![d(100), d(3_600), d(3_601), d(10_000)];
        assert_eq!(departures_within(remaining, d(3_600)), 2);
    }

    #[test]
    fn boundary_is_inclusive() {
        assert_eq!(departures_within([d(60)], d(60)), 1);
    }

    #[test]
    fn zero_remaining_counts() {
        // An overdue estimate (VM ran longer than predicted) is "about to
        // depart" for planning purposes.
        assert_eq!(departures_within([d(0)], d(3_600)), 1);
    }

    #[test]
    fn empty_iterator_is_zero() {
        assert_eq!(departures_within(std::iter::empty(), d(3_600)), 0);
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn due_deadlines_match_the_scan() {
        // Deadlines filed, moved and removed around a forward-moving
        // horizon count exactly what a scan of the remaining estimates
        // counts at every query.
        let mut live: Vec<(u32, SimTime)> = Vec::new();
        let mut due = DueDeadlines::default();
        let mut s = 7u64;
        let window = d(600);
        for step in 0..400u64 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let now = t(step * 50);
            match (s >> 33) % 4 {
                0 | 1 => {
                    let deadline = t(step * 50 + (s >> 40) % 2_000);
                    let key = step as u32;
                    due.insert(deadline, key);
                    live.push((key, deadline));
                }
                2 if !live.is_empty() => {
                    let (key, deadline) = live.swap_remove((s >> 20) as usize % live.len());
                    due.remove(deadline, key);
                }
                _ if !live.is_empty() => {
                    // Overhead grows: the deadline moves later.
                    let i = (s >> 20) as usize % live.len();
                    let (key, old) = live[i];
                    due.remove(old, key);
                    live[i].1 = old + d(40);
                    due.insert(live[i].1, key);
                }
                _ => {}
            }
            let scanned =
                departures_within(live.iter().map(|&(_, dl)| dl.saturating_since(now)), window);
            assert_eq!(due.due_by(now + window), scanned, "step {step}");
        }
    }
}
