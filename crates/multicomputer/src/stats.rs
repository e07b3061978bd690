//! Machine-level run statistics: backlog samples and busy-time
//! imbalance. What a node program counts is its own business; the
//! machines hand the nodes back when a run ends.

use crate::time::Cost;

/// One load-sampling instant, folded online.
///
/// The simulator used to retain a `Vec<usize>` of per-PE backlogs per
/// sample — O(samples × PEs) memory that ROADMAP item 1 (4096-PE
/// scale-up) cannot afford. This accumulator ingests the per-PE
/// backlogs of one sampling instant as a stream and keeps only the
/// aggregates the tables actually report: max, mean (via sum), idle-PE
/// count, and the last value seen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BacklogSummary {
    /// Sample timestamp in nanoseconds.
    pub at_ns: u64,
    /// Number of PEs folded in.
    pub npes: usize,
    /// Largest per-PE backlog.
    pub max: usize,
    /// Sum of per-PE backlogs (mean = `total / npes`).
    pub total: usize,
    /// PEs with an empty backlog.
    pub idle: usize,
    /// Backlog of the last PE folded (PE npes-1 in sampling order).
    pub last: usize,
}

impl BacklogSummary {
    /// Start a summary for the sampling instant `at_ns`.
    pub fn at(at_ns: u64) -> Self {
        Self { at_ns, ..Self::default() }
    }

    /// Fold one PE's backlog in.
    pub fn push(&mut self, backlog: usize) {
        self.npes += 1;
        self.total += backlog;
        self.max = self.max.max(backlog);
        if backlog == 0 {
            self.idle += 1;
        }
        self.last = backlog;
    }

    /// Mean backlog per PE (0.0 when nothing was folded).
    pub fn mean(&self) -> f64 {
        if self.npes == 0 {
            0.0
        } else {
            self.total as f64 / self.npes as f64
        }
    }
}

/// Load imbalance of per-PE busy times: `max / mean`. 1.0 is perfectly
/// balanced; the paper's load-balancing tables report exactly this ratio.
/// Returns 1.0 for degenerate inputs (no PEs or an all-idle run).
pub fn imbalance(busy: &[Cost]) -> f64 {
    if busy.is_empty() {
        return 1.0;
    }
    let total: u64 = busy.iter().map(|c| c.as_nanos()).sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / busy.len() as f64;
    let max = busy.iter().map(|c| c.as_nanos()).max().unwrap_or(0) as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_summary_matches_flat_aggregates() {
        let flat = [3usize, 0, 7, 2];
        let mut s = BacklogSummary::at(1_000);
        for &b in &flat {
            s.push(b);
        }
        assert_eq!(s.npes, 4);
        assert_eq!(s.max, 7);
        assert_eq!(s.total, 12);
        assert_eq!(s.idle, 1);
        assert_eq!(s.last, 2);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn backlog_summary_empty_mean_is_zero() {
        assert_eq!(BacklogSummary::at(5).mean(), 0.0);
    }

    #[test]
    fn imbalance_balanced_is_one() {
        let busy = vec![Cost(100); 8];
        assert!((imbalance(&busy) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_hot_spot() {
        // One PE did all the work on a 4-PE machine: max/mean = 4.
        let busy = vec![Cost(400), Cost(0), Cost(0), Cost(0)];
        assert!((imbalance(&busy) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_degenerate_inputs() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[Cost(0), Cost(0)]), 1.0);
    }
}
