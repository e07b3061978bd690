//! Execution spans and utilization profiles — the "utilization graph"
//! view *Projections* is known for.
//!
//! [`RunTrace::from_report`](crate::RunTrace::from_report) turns each
//! `Step` event of a traced run into one [`TraceSpan`]; this module
//! turns a span list into a bucketed per-PE utilization profile.

use multicomputer::{Pe, StepKind};

/// One executed step on one PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Executing PE.
    pub pe: Pe,
    /// Start of the step, ns (simulated, or elapsed on a real backend).
    pub start_ns: u64,
    /// End of the step: start + dispatch + what the step took.
    pub end_ns: u64,
    /// What ran: an alarm handler counts as a control step.
    pub kind: StepKind,
}

/// Busy fraction of every PE in `buckets` equal time slices of
/// `[0, end_ns)`. Returns `profile[bucket][pe] ∈ [0, 1]`.
///
/// Spans are clipped to bucket boundaries, so a long step contributes to
/// every slice it overlaps.
pub fn utilization_profile(
    spans: &[TraceSpan],
    npes: usize,
    end_ns: u64,
    buckets: usize,
) -> Vec<Vec<f64>> {
    assert!(buckets > 0, "need at least one bucket");
    let mut profile = vec![vec![0.0f64; npes]; buckets];
    if end_ns == 0 {
        return profile;
    }
    let width = end_ns.div_ceil(buckets as u64).max(1);
    for span in spans {
        let mut t = span.start_ns;
        let end = span.end_ns.min(end_ns);
        while t < end {
            let b = ((t / width) as usize).min(buckets - 1);
            let bucket_end = ((b as u64 + 1) * width).min(end_ns);
            let overlap = end.min(bucket_end).saturating_sub(t);
            profile[b][span.pe.index()] += overlap as f64;
            if bucket_end <= t {
                break;
            }
            t = bucket_end;
        }
    }
    // Normalize each bucket by its *actual* width: when `end_ns` is not
    // divisible by `buckets`, the final bucket is narrower than `width`,
    // and dividing by the nominal width would under-report a fully busy
    // tail slice.
    for (b, row) in profile.iter_mut().enumerate() {
        let lo = b as u64 * width;
        let hi = ((b as u64 + 1) * width).min(end_ns);
        let actual = hi.saturating_sub(lo).max(1) as f64;
        for v in row.iter_mut() {
            *v /= actual;
            *v = v.min(1.0);
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pe: u32, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            pe: Pe(pe),
            start_ns: start,
            end_ns: end,
            kind: StepKind::User,
        }
    }

    #[test]
    fn fully_busy_pe_fills_its_row() {
        let spans = vec![span(0, 0, 1000)];
        let p = utilization_profile(&spans, 2, 1000, 4);
        for row in &p {
            assert!((row[0] - 1.0).abs() < 1e-9, "{row:?}");
            assert_eq!(row[1], 0.0);
        }
    }

    #[test]
    fn span_clipped_across_buckets() {
        // Busy 250..750 of 1000 over 4 buckets: 0%, 100%, 100%, 0%.
        let spans = vec![span(0, 250, 750)];
        let p = utilization_profile(&spans, 1, 1000, 4);
        assert!((p[0][0] - 0.0).abs() < 1e-9);
        assert!((p[1][0] - 1.0).abs() < 1e-9);
        assert!((p[2][0] - 1.0).abs() < 1e-9);
        assert!((p[3][0] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_is_fractional() {
        let spans = vec![span(0, 0, 125)]; // half of the first 250ns bucket
        let p = utilization_profile(&spans, 1, 1000, 4);
        assert!((p[0][0] - 0.5).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn multiple_spans_accumulate() {
        let spans = vec![span(0, 0, 100), span(0, 100, 200), span(1, 0, 250)];
        let p = utilization_profile(&spans, 2, 1000, 4);
        assert!((p[0][0] - 0.8).abs() < 1e-9);
        assert!((p[0][1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        // Overlapping spans (can't happen in real traces, but the
        // profile must stay sane).
        let spans = vec![span(0, 0, 1000), span(0, 0, 1000)];
        let p = utilization_profile(&spans, 1, 1000, 2);
        assert!(p.iter().all(|row| row[0] <= 1.0));
    }

    #[test]
    fn empty_trace_is_all_idle() {
        let p = utilization_profile(&[], 3, 1000, 2);
        assert!(p.iter().all(|row| row.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn non_divisible_end_keeps_full_buckets_at_one() {
        // 1000ns over 3 buckets: width = ceil(1000/3) = 334, so the last
        // bucket covers only [668, 1000) = 332ns. A fully busy PE must
        // still read 100% there (regression: it read 332/334).
        let spans = vec![span(0, 0, 1000)];
        let p = utilization_profile(&spans, 1, 1000, 3);
        for (b, row) in p.iter().enumerate() {
            assert!((row[0] - 1.0).abs() < 1e-9, "bucket {b}: {row:?}");
        }
    }

    #[test]
    fn non_divisible_partial_tail_is_fractional_of_actual_width() {
        // Last bucket is [668, 1000); busy 668..834 = 166 of 332ns = 50%.
        let spans = vec![span(0, 668, 834)];
        let p = utilization_profile(&spans, 1, 1000, 3);
        assert!((p[0][0] - 0.0).abs() < 1e-9);
        assert!((p[1][0] - 0.0).abs() < 1e-9);
        assert!((p[2][0] - 0.5).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn span_ending_exactly_on_bucket_boundary_stays_in_its_bucket() {
        // Busy 0..250 of 1000 over 4 buckets: exactly fills bucket 0 and
        // must not leak into bucket 1.
        let spans = vec![span(0, 0, 250)];
        let p = utilization_profile(&spans, 1, 1000, 4);
        assert!((p[0][0] - 1.0).abs() < 1e-9);
        assert!((p[1][0] - 0.0).abs() < 1e-9);
        // And a span *starting* exactly on a boundary stays out of the
        // earlier bucket.
        let spans = vec![span(0, 250, 500)];
        let p = utilization_profile(&spans, 1, 1000, 4);
        assert!((p[0][0] - 0.0).abs() < 1e-9);
        assert!((p[1][0] - 1.0).abs() < 1e-9);
    }
}
