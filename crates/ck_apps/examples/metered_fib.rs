//! Streaming-metrics walkthrough: run fib with telemetry on and read
//! the `MetricsLog` back through the public API — interval utilization,
//! machine-wide histograms, and the flight-recorder tail.
//!
//! ```text
//! cargo run --release -p ck_apps --example metered_fib
//! ```

use chare_kernel::metrics::MetricsConfig;
use ck_apps::fib;
use multicomputer::{MachinePreset, SimConfig};

fn main() {
    let params = fib::FibParams { n: 18, grain: 10 };
    let prog = fib::build(params).with_metrics(MetricsConfig);
    let mut report = prog.run_sim(SimConfig::preset(8, MachinePreset::NcubeLike));

    let result = report.take_result::<u64>().expect("fib must produce a result");
    assert_eq!(result, fib::fib_seq(18));
    println!("fib(18) = {result} in {:.2} ms simulated", report.time_ns as f64 / 1e6);

    let log = report.metrics.expect("metrics were enabled");
    println!(
        "telemetry: {} PEs x {} slices of {} us",
        log.npes,
        log.nslices(),
        log.width_ns / 1_000
    );
    // Fold the full-resolution profile to 8 rows for display (the
    // `tables --timeline` view does the same via ck_trace).
    let rows = 8usize;
    let chunk = log.nslices().div_ceil(rows);
    for r in 0..log.nslices().div_ceil(chunk) {
        let (mut busy, mut cap, mut msgs, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        for i in (r * chunk)..((r + 1) * chunk).min(log.nslices()) {
            let s = log.slice_totals(i);
            busy += s.work_ns + s.dispatch_ns + s.ctl_ns;
            cap += log.width_ns * log.npes as u64;
            msgs += s.msgs_sent;
            bytes += s.bytes_sent;
        }
        println!(
            "  t[{r}] busy {:5.1}%  msgs {msgs:4}  bytes {bytes:6}",
            busy as f64 / cap as f64 * 100.0
        );
    }

    let lat = log.latency_all();
    let grain = log.grain_all();
    println!(
        "latency p50 <= {:.1} us (n={}), grain p50 <= {:.1} us (n={}), queue hwm {}",
        lat.quantile_bound(0.5) as f64 / 1e3,
        lat.count,
        grain.quantile_bound(0.5) as f64 / 1e3,
        grain.count,
        log.queue_hwm_max()
    );

    println!("flight tail (last 5 events machine-wide):");
    for ev in log.flight_tail(5) {
        println!("  {}", chare_kernel::metrics::flight_line(&ev));
    }
}
