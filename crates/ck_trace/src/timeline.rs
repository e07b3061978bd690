//! Time-profile view over streaming metrics — the Projections
//! "utilization over time" graph, rebuilt from the bounded-memory
//! interval slices of [`chare_kernel::metrics`] instead of a full event
//! log.
//!
//! A [`TimeProfile`] holds one row per time interval with the per-PE
//! busy nanoseconds inside it; from that it derives the view the paper's
//! load-balance discussion needs: average and peak PE utilization per
//! interval and the percentage imbalance between them (how much the
//! busiest PE exceeds the mean — 0% is a perfectly level load). Rows
//! merge exactly, so [`TimeProfile::coarsen_to`] can shrink hundreds of
//! slices to a terminal-sized chart without re-running anything.
//!
//! Unlike [`crate::RunTrace`], which needs the full span log, this view
//! is available for *every* metered run at O(PEs × buckets) memory —
//! including runs far too long to trace.

use chare_kernel::metrics::MetricsLog;

use crate::json_lint;

/// One time interval of the profile: per-PE busy time plus message
/// counters, mergeable with its neighbours.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalRow {
    /// Interval start, simulated ns.
    pub start_ns: u64,
    /// Covered width, ns (the last interval clips at the end of run).
    pub width_ns: u64,
    /// Busy (work + dispatch + control) ns per PE inside this interval.
    pub pe_busy_ns: Vec<u64>,
    /// Messages sent by all PEs in this interval.
    pub msgs_sent: u64,
    /// Retransmissions in this interval (reliable-delivery repair).
    pub retransmits: u64,
}

impl IntervalRow {
    /// Per-PE utilization (0.0–1.0) over this interval.
    pub fn utils(&self) -> Vec<f64> {
        let w = self.width_ns.max(1) as f64;
        self.pe_busy_ns
            .iter()
            .map(|&b| (b as f64 / w).min(1.0))
            .collect()
    }

    /// Mean utilization across PEs.
    pub fn mean_util(&self) -> f64 {
        let u = self.utils();
        if u.is_empty() {
            return 0.0;
        }
        u.iter().sum::<f64>() / u.len() as f64
    }

    /// Busiest PE's utilization.
    pub fn max_util(&self) -> f64 {
        self.utils().into_iter().fold(0.0, f64::max)
    }

    /// Least-busy PE's utilization.
    pub fn min_util(&self) -> f64 {
        let u = self.utils();
        if u.is_empty() {
            return 0.0;
        }
        u.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Load imbalance: how far the busiest PE exceeds the mean, in
    /// percent. 0% means a perfectly level interval; an idle interval
    /// reads as 0 rather than dividing by zero.
    pub fn imbalance_pct(&self) -> f64 {
        let mean = self.mean_util();
        if mean <= 0.0 {
            return 0.0;
        }
        (self.max_util() / mean - 1.0) * 100.0
    }

    /// Fold a neighbouring interval into this one (exact: busy ns and
    /// counters add, widths add).
    fn merge(&mut self, o: &IntervalRow) {
        self.width_ns += o.width_ns;
        for (a, b) in self.pe_busy_ns.iter_mut().zip(&o.pe_busy_ns) {
            *a += b;
        }
        self.msgs_sent += o.msgs_sent;
        self.retransmits += o.retransmits;
    }
}

/// Utilization-over-time profile of one run, derived from a
/// [`MetricsLog`].
#[derive(Clone, Debug, PartialEq)]
pub struct TimeProfile {
    /// PEs in the run.
    pub npes: usize,
    /// Completion time, simulated ns.
    pub end_ns: u64,
    /// One row per interval, in time order.
    pub rows: Vec<IntervalRow>,
}

impl TimeProfile {
    /// Build the profile from a finished run's metrics.
    pub fn from_metrics(log: &MetricsLog) -> TimeProfile {
        let width = log.width_ns.max(1);
        let n = log.nslices();
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let start = i as u64 * width;
            // The final interval covers only up to the end of the run;
            // utilization must be a fraction of time that existed.
            let covered = width.min(log.end_ns.saturating_sub(start)).max(1);
            let pe_busy_ns = log
                .per_pe
                .iter()
                .map(|pe| pe.slices.get(i).map(|s| s.busy_ns()).unwrap_or(0))
                .collect();
            let totals = log.slice_totals(i);
            rows.push(IntervalRow {
                start_ns: start,
                width_ns: covered,
                pe_busy_ns,
                msgs_sent: totals.msgs_sent,
                retransmits: totals.retransmits,
            });
        }
        TimeProfile {
            npes: log.npes,
            end_ns: log.end_ns,
            rows,
        }
    }

    /// Merge adjacent rows until at most `target` remain. Merging is
    /// exact (sums of sums), so a coarse view never misstates totals.
    pub fn coarsen_to(&self, target: usize) -> TimeProfile {
        let target = target.max(1);
        if self.rows.len() <= target {
            return self.clone();
        }
        let group = self.rows.len().div_ceil(target);
        let mut rows: Vec<IntervalRow> = Vec::with_capacity(target);
        for chunk in self.rows.chunks(group) {
            let mut merged = chunk[0].clone();
            for r in &chunk[1..] {
                merged.merge(r);
            }
            rows.push(merged);
        }
        TimeProfile {
            npes: self.npes,
            end_ns: self.end_ns,
            rows,
        }
    }

    /// Whole-run mean utilization (busy PE-time over total PE-time).
    pub fn overall_util(&self) -> f64 {
        let busy: u64 = self
            .rows
            .iter()
            .flat_map(|r| r.pe_busy_ns.iter())
            .sum();
        let denom = (self.end_ns as u128 * self.npes as u128).max(1) as f64;
        busy as f64 / denom
    }

    /// Render as an ASCII chart: one row per interval, a bar for mean
    /// utilization, then max utilization and imbalance and the message
    /// traffic of the interval.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "      t(ms)  mean util                                 max  imb%    msgs rxmit\n",
        );
        for r in &self.rows {
            let mean = r.mean_util();
            let bar = (mean * 40.0).round() as usize;
            out.push_str(&format!(
                " {:>10.2}  |{:<40}| {:>3.0}% {:>5.0} {:>7} {:>5}\n",
                (r.start_ns as f64 + r.width_ns as f64 / 2.0) / 1e6,
                "#".repeat(bar.min(40)),
                r.max_util() * 100.0,
                r.imbalance_pct(),
                r.msgs_sent,
                r.retransmits,
            ));
        }
        out.push_str(&format!(
            " overall utilization {:.1}% across {} PEs, {} intervals\n",
            self.overall_util() * 100.0,
            self.npes,
            self.rows.len(),
        ));
        out
    }

    /// Serialize as a JSON document (hand-built, like the Chrome
    /// exporter; validated well-formed by `debug_assert`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"npes\":{},\"end_ns\":{},\"overall_util\":{:.4},\"rows\":[",
            self.npes,
            self.end_ns,
            finite(self.overall_util()),
        ));
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"start_ns\":{},\"width_ns\":{},\"mean_util\":{:.4},\
                 \"max_util\":{:.4},\"min_util\":{:.4},\"imbalance_pct\":{:.1},\
                 \"msgs_sent\":{},\"retransmits\":{}}}",
                r.start_ns,
                r.width_ns,
                finite(r.mean_util()),
                finite(r.max_util()),
                finite(r.min_util()),
                finite(r.imbalance_pct()),
                r.msgs_sent,
                r.retransmits,
            ));
        }
        out.push_str("]}");
        debug_assert!(json_lint::validate(&out).is_ok());
        out
    }
}

/// JSON has no NaN/Infinity; clamp pathological values to 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chare_kernel::metrics::{PeMetricSet, Slice};
    use multicomputer::Pe;

    fn slice(work: u64) -> Slice {
        Slice {
            work_ns: work,
            msgs_sent: 1,
            ..Slice::default()
        }
    }

    fn log_two_pes() -> MetricsLog {
        // 4 slices of 100ns; run ends at 350ns (last slice half-width).
        MetricsLog {
            npes: 2,
            end_ns: 350,
            width_ns: 100,
            per_pe: vec![
                PeMetricSet {
                    pe: Pe(0),
                    slices: vec![slice(100), slice(50), slice(0), slice(50)],
                    ..PeMetricSet::empty(Pe(0))
                },
                PeMetricSet {
                    pe: Pe(1),
                    slices: vec![slice(0), slice(50), slice(0), slice(0)],
                    ..PeMetricSet::empty(Pe(1))
                },
            ],
        }
    }

    #[test]
    fn profile_derives_utilization_and_imbalance() {
        let p = TimeProfile::from_metrics(&log_two_pes());
        assert_eq!(p.rows.len(), 4);
        // Interval 0: PE0 fully busy, PE1 idle.
        assert!((p.rows[0].mean_util() - 0.5).abs() < 1e-9);
        assert!((p.rows[0].max_util() - 1.0).abs() < 1e-9);
        assert!((p.rows[0].imbalance_pct() - 100.0).abs() < 1e-9);
        // Interval 1: both at 50% — perfectly level.
        assert!((p.rows[1].imbalance_pct()).abs() < 1e-9);
        // Idle interval: no divide-by-zero.
        assert_eq!(p.rows[2].imbalance_pct(), 0.0);
        // Last interval clips to the 50ns that actually ran; PE0's 50ns
        // of work is 100% of it.
        assert_eq!(p.rows[3].width_ns, 50);
        assert!((p.rows[3].max_util() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coarsen_preserves_totals() {
        let p = TimeProfile::from_metrics(&log_two_pes());
        let c = p.coarsen_to(2);
        assert_eq!(c.rows.len(), 2);
        let msgs: u64 = p.rows.iter().map(|r| r.msgs_sent).sum();
        let cmsgs: u64 = c.rows.iter().map(|r| r.msgs_sent).sum();
        assert_eq!(msgs, cmsgs);
        let busy: u64 = p.rows.iter().flat_map(|r| r.pe_busy_ns.iter()).sum();
        let cbusy: u64 = c.rows.iter().flat_map(|r| r.pe_busy_ns.iter()).sum();
        assert_eq!(busy, cbusy);
        assert!((c.overall_util() - p.overall_util()).abs() < 1e-12);
        // Already-coarse profiles pass through unchanged.
        assert_eq!(c.coarsen_to(10), c);
    }

    #[test]
    fn render_and_json_are_well_formed() {
        let p = TimeProfile::from_metrics(&log_two_pes());
        let text = p.render();
        assert_eq!(text.lines().count(), 1 + 4 + 1); // header + rows + footer
        assert!(text.contains('#'));
        assert!(text.contains("overall utilization"));
        let json = p.to_json();
        json_lint::validate(&json).unwrap();
        assert!(json.contains("\"imbalance_pct\""));
        assert!(json.contains("\"npes\":2"));
    }

    #[test]
    fn empty_log_renders_without_panic() {
        let p = TimeProfile::from_metrics(&MetricsLog {
            npes: 0,
            end_ns: 0,
            width_ns: 100,
            per_pe: vec![],
        });
        assert!(p.rows.len() <= 1);
        json_lint::validate(&p.to_json()).unwrap();
    }
}
