//! Failure forensics: what the machine was doing when the oracle fired.
//!
//! Every campaign run carries the kernel's streaming metrics (bounded
//! memory, zero perturbation), so a failing run has two artifacts "for
//! free": the **flight recorder** — each PE's ring of most recent
//! structured events — and the **final metrics snapshot** — per-PE busy
//! time, traffic, seed decisions, retransmits and queue high-watermark.
//! This module renders both as the indented lines `report_failure`
//! appends after the violation and repro lines, turning "run 77
//! regressed" into something a human can start debugging without
//! replaying anything.

use chare_kernel::metrics::{flight_line, MetricsLog};
use chare_kernel::CkReport;

/// Flight-recorder events shown in a failure report (machine-wide,
/// newest last).
const FLIGHT_TAIL: usize = 40;

/// Render the forensics block for one failing run: flight-recorder
/// tail first (the "what just happened"), then the per-PE snapshot
/// (the "where the run's effort went"). Empty when the run carried no
/// metrics.
pub fn render(rep: &CkReport) -> Vec<String> {
    let Some(log) = rep.metrics.as_ref() else {
        return Vec::new();
    };
    let mut lines = Vec::new();
    render_flight(log, &mut lines);
    render_snapshot(log, &mut lines);
    lines
}

fn render_flight(log: &MetricsLog, lines: &mut Vec<String>) {
    let tail = log.flight_tail(FLIGHT_TAIL);
    let dropped = log.flight_dropped();
    if tail.is_empty() {
        lines.push("  flight recorder: empty (no events recorded)".to_string());
        return;
    }
    lines.push(format!(
        "  flight recorder (last {} events machine-wide{}):",
        tail.len(),
        if dropped > 0 {
            format!(", {dropped} older overwritten")
        } else {
            String::new()
        }
    ));
    for ev in &tail {
        lines.push(format!("    {}", flight_line(ev)));
    }
}

fn render_snapshot(log: &MetricsLog, lines: &mut Vec<String>) {
    lines.push(format!(
        "  metrics snapshot ({} PEs, {:.3} ms simulated):",
        log.npes,
        log.end_ns as f64 / 1e6
    ));
    for pe in &log.per_pe {
        let mut busy = 0u64;
        let mut sent = 0u64;
        let mut recv = 0u64;
        let mut kept = 0u64;
        let mut fwd = 0u64;
        let mut rxmit = 0u64;
        for s in &pe.slices {
            busy += s.busy_ns();
            sent += s.msgs_sent;
            recv += s.msgs_recv;
            kept += s.seeds_kept;
            fwd += s.seeds_forwarded;
            rxmit += s.retransmits;
        }
        let util = busy as f64 / log.end_ns.max(1) as f64 * 100.0;
        lines.push(format!(
            "    PE {:<3} busy {:>5.1}%  sent {:>6}  recv {:>6}  seeds {kept}+{fwd}fwd  \
             rxmit {rxmit}  queue hwm {}",
            pe.pe.index(),
            util.min(100.0),
            sent,
            recv,
            pe.queue_hwm,
        ));
    }
    let lat = log.latency_all();
    let grain = log.grain_all();
    lines.push(format!(
        "    latency p50 <= {:.1} us, p99 <= {:.1} us ({} deliveries); \
         grain p50 <= {:.1} us ({} entries)",
        lat.quantile_bound(0.5) as f64 / 1e3,
        lat.quantile_bound(0.99) as f64 / 1e3,
        lat.count,
        grain.quantile_bound(0.5) as f64 / 1e3,
        grain.count,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use multicomputer::FaultPlan;

    #[test]
    fn failing_style_run_renders_forensics() {
        // Any metered run renders; use a small clean scenario.
        let sc = Scenario::parse(
            "app=fib:n=12,grain=8 npes=4 preset=ncube rel=none",
        )
        .unwrap();
        let rep = sc.run(&FaultPlan::new(0), 10_000_000);
        let lines = render(&rep);
        assert!(
            lines.iter().any(|l| l.contains("flight recorder")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains("metrics snapshot (4 PEs")),
            "{lines:?}"
        );
        // One snapshot line per PE.
        assert_eq!(lines.iter().filter(|l| l.contains("busy ")).count(), 4);
        assert!(lines.iter().any(|l| l.contains("latency p50")));
    }

    #[test]
    fn report_without_metrics_renders_nothing() {
        // A bare program run without .with_metrics() carries no log.
        let rep = ck_apps::fib::build(ck_apps::fib::FibParams { n: 10, grain: 6 })
            .run_sim_preset(4, multicomputer::MachinePreset::NcubeLike);
        assert!(render(&rep).is_empty());
    }
}
