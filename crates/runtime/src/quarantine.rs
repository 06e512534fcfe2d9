//! Per-model quarantine with exponential backoff.
//!
//! A candidate that corrupts a run (NaN/∞ state, blown-up velocities)
//! is *struck*: after its `n`-th strike it is quarantined for `2^n`
//! check intervals, and after [`MAX_STRIKES`] strikes it is ejected for
//! the rest of the run. Time is measured in check-interval indices so
//! backoff follows the scheduler's own clock — a rollback that rewinds
//! the step counter also rewinds the clock, which keeps a corruption
//! storm from re-admitting models mid-storm.

/// Strikes after which a model is permanently ejected.
pub const MAX_STRIKES: u32 = 3;

/// The outcome of one strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineDecision {
    /// Quarantined until the given check-interval index (exclusive).
    Quarantined {
        /// Strikes accumulated so far.
        strikes: u32,
        /// First interval at which the model is eligible again.
        until_interval: u64,
    },
    /// Ejected for the rest of the run.
    Ejected {
        /// Strikes accumulated so far.
        strikes: u32,
    },
}

/// One model's strike record.
#[derive(Debug, Clone, Default)]
struct Entry {
    strikes: u32,
    /// First check interval the model is eligible again.
    until_interval: u64,
    ejected: bool,
}

/// Strike bookkeeping for an indexed model set.
#[derive(Debug, Clone)]
pub struct QuarantineTable {
    entries: Vec<Entry>,
}

impl QuarantineTable {
    /// A table over `n` models, all healthy.
    pub fn new(n: usize) -> Self {
        Self { entries: vec![Entry::default(); n] }
    }

    /// Number of tracked models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table tracks no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a strike against `model` at check interval `now`.
    pub fn strike(&mut self, model: usize, now: u64) -> QuarantineDecision {
        let e = &mut self.entries[model];
        e.strikes += 1;
        if e.strikes >= MAX_STRIKES {
            e.ejected = true;
            QuarantineDecision::Ejected { strikes: e.strikes }
        } else {
            // Backoff doubles per strike: 2, 4, 8 … intervals.
            let hold = 1u64 << e.strikes.min(62);
            e.until_interval = now.saturating_add(hold);
            QuarantineDecision::Quarantined { strikes: e.strikes, until_interval: e.until_interval }
        }
    }

    /// True if `model` may run at check interval `now`.
    pub fn is_available(&self, model: usize, now: u64) -> bool {
        let e = &self.entries[model];
        !e.ejected && now >= e.until_interval
    }

    /// True if `model` was permanently ejected.
    pub fn is_ejected(&self, model: usize) -> bool {
        self.entries[model].ejected
    }

    /// Strikes recorded against `model`.
    pub fn strikes(&self, model: usize) -> u32 {
        self.entries[model].strikes
    }

    /// True when *no* model may run at check interval `now` — the
    /// trigger for graceful degradation to the exact solver.
    pub fn all_unavailable(&self, now: u64) -> bool {
        (0..self.entries.len()).all(|m| !self.is_available(m, now))
    }

    /// Models barred at `now` (quarantined or ejected), by index.
    pub fn unavailable(&self, now: u64) -> Vec<usize> {
        (0..self.entries.len()).filter(|&m| !self.is_available(m, now)).collect()
    }

    /// The nearest available model to `from`, preferring more accurate
    /// (higher index) candidates — the replacement policy after a
    /// corruption strike. Returns `None` when everything is barred.
    pub fn next_available(&self, from: usize, now: u64) -> Option<usize> {
        (from + 1..self.entries.len())
            .find(|&m| self.is_available(m, now))
            .or_else(|| (0..=from.min(self.entries.len() - 1)).rev().find(|&m| self.is_available(m, now)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strikes_escalate_backoff_then_eject() {
        let mut q = QuarantineTable::new(2);
        assert_eq!(
            q.strike(0, 10),
            QuarantineDecision::Quarantined { strikes: 1, until_interval: 12 }
        );
        assert_eq!(
            q.strike(0, 20),
            QuarantineDecision::Quarantined { strikes: 2, until_interval: 24 }
        );
        assert_eq!(q.strike(0, 30), QuarantineDecision::Ejected { strikes: 3 });
        assert!(q.is_ejected(0));
        assert!(!q.is_available(0, u64::MAX));
        // The other model is untouched.
        assert!(q.is_available(1, 0));
        assert_eq!(q.strikes(1), 0);
    }

    #[test]
    fn readmission_after_backoff_expires() {
        let mut q = QuarantineTable::new(1);
        q.strike(0, 5); // barred for 2 intervals: 5+2 = 7
        assert!(!q.is_available(0, 5));
        assert!(!q.is_available(0, 6));
        assert!(q.is_available(0, 7), "2^1 intervals after the first strike");

        q.strike(0, 7); // second strike: barred until 7+4 = 11
        assert!(!q.is_available(0, 10));
        assert!(q.is_available(0, 11), "2^2 intervals after the second strike");
    }

    #[test]
    fn all_unavailable_detects_total_quarantine() {
        let mut q = QuarantineTable::new(2);
        assert!(!q.all_unavailable(0));
        q.strike(0, 0);
        assert!(!q.all_unavailable(0));
        q.strike(1, 0);
        assert!(q.all_unavailable(0));
        assert_eq!(q.unavailable(0), vec![0, 1]);
        // Both re-admit after their backoff.
        assert!(!q.all_unavailable(2));
    }

    #[test]
    fn next_available_prefers_escalation() {
        let mut q = QuarantineTable::new(4);
        // From model 1 the replacement is the next more accurate model.
        assert_eq!(q.next_available(1, 0), Some(2));
        q.strike(2, 0);
        assert_eq!(q.next_available(1, 0), Some(3), "skips the quarantined model");
        q.strike(3, 0);
        // Nothing above is available: fall back to the best below.
        assert_eq!(q.next_available(1, 0), Some(1));
        q.strike(1, 0);
        assert_eq!(q.next_available(1, 0), Some(0));
        q.strike(0, 0);
        assert_eq!(q.next_available(1, 0), None);
    }

    #[test]
    fn rollback_rewound_clock_keeps_models_barred() {
        let mut q = QuarantineTable::new(1);
        q.strike(0, 4);
        // The scheduler rolled back; "now" did not advance.
        assert!(!q.is_available(0, 4));
        assert!(q.all_unavailable(4));
    }
}
