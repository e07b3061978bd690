//! Metrics-driven experiment views: Table M (streaming time profiles)
//! and the `--timeline` chart.
//!
//! Everything here runs on the *streaming* telemetry of
//! [`chare_kernel::metrics`] — bounded-memory interval slices and
//! histograms — not the full event log the trace views need. Metered
//! runs are never memoized: the run memo stores only results, and these
//! views exist to look at the telemetry, so they call
//! [`Program::run_sim`] directly.

use chare_kernel::metrics::MetricsConfig;
use chare_kernel::{CkReport, MetricsLog, Program};
use ck_trace::TimeProfile;
use multicomputer::{MachinePreset, SimConfig};

use ck_apps::spec::Spec;

use crate::experiments::{case, Scale};
use crate::table::Table;

const NPES: usize = 16;
const PRESET: MachinePreset = MachinePreset::NcubeLike;

/// Apps shown in Table M — recursive tree (fib), speculative search
/// (nqueens) and iterative grid (jacobi): three load-balance shapes.
const TABLE_M_APPS: [&str; 3] = ["fib", "nqueens", "jacobi"];

/// Intervals each app's profile is coarsened to for the table.
const TABLE_M_ROWS: usize = 4;

/// Run one app with streaming metrics on and return the report (always
/// a fresh simulation — metered runs bypass the run memo).
fn metered_run(prog: Program) -> CkReport {
    let prog = prog.with_metrics(MetricsConfig);
    prog.run_sim(SimConfig::preset(NPES, PRESET))
}

fn metered_log(case: &Spec) -> (CkReport, MetricsLog) {
    let rep = metered_run(case.build());
    let log = rep
        .metrics
        .clone()
        .expect("metered simulator run must yield a MetricsLog");
    (rep, log)
}

/// Table M: streaming time profiles — per-interval utilization,
/// imbalance and traffic for three differently-shaped benchmarks, from
/// O(PEs × buckets) online telemetry rather than an event log.
pub fn table_m(scale: Scale) -> Table {
    let mut t = Table::new(
        format!(
            "Table M: streaming time profiles ({NPES}-PE simulated NCUBE-like hypercube, metrics on)"
        ),
        [
            "program",
            "t(ms)",
            "util%",
            "max%",
            "imb%",
            "msgs",
            "lat p50 us",
            "grain p50 us",
            "hwm",
        ],
    );
    for name in TABLE_M_APPS {
        let (_, log) = metered_log(&case(scale, name));
        let profile = TimeProfile::from_metrics(&log).coarsen_to(TABLE_M_ROWS);
        let lat_p50 = log.latency_all().quantile_bound(0.5);
        let grain_p50 = log.grain_all().quantile_bound(0.5);
        let hwm = log.queue_hwm_max();
        for r in &profile.rows {
            t.row(vec![
                name.into(),
                format!(
                    "{:.2}",
                    (r.start_ns as f64 + r.width_ns as f64 / 2.0) / 1e6
                ),
                format!("{:.0}", r.mean_util() * 100.0),
                format!("{:.0}", r.max_util() * 100.0),
                format!("{:.0}", r.imbalance_pct()),
                r.msgs_sent.to_string(),
                format!("{:.1}", lat_p50 as f64 / 1e3),
                format!("{:.1}", grain_p50 as f64 / 1e3),
                hwm.to_string(),
            ]);
        }
    }
    t.note(format!(
        "each program's run is folded to {TABLE_M_ROWS} intervals; imb% = how far the busiest \
         PE exceeds the mean"
    ));
    t.note("lat/grain p50 = streaming log2-histogram upper bound; hwm = deepest runnable backlog");
    t.note("telemetry is O(PEs x buckets) regardless of run length -- no event log required");
    t
}

/// The `--timeline APP` view: the full-resolution utilization chart and
/// its JSON export for one benchmark.
pub fn timeline_view(case: &Spec) -> (String, String) {
    let name = case.app.name;
    let (rep, log) = metered_log(case);
    let profile = TimeProfile::from_metrics(&log);
    let chart = profile.coarsen_to(24);
    let mut text = String::new();
    text.push_str(&format!(
        "time profile: {name} on {NPES} PEs ({}), {:.2} ms\n",
        "ncube-like hypercube",
        rep.time_ns as f64 / 1e6
    ));
    text.push_str(&chart.render());
    let json = profile.to_json();
    ck_trace::json_lint::validate(&json)
        .unwrap_or_else(|e| panic!("timeline JSON failed lint: {e}"));
    (text, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_m_covers_three_apps_with_sane_percentages() {
        let t = table_m(Scale::Quick);
        assert_eq!(t.rows.len(), TABLE_M_APPS.len() * TABLE_M_ROWS);
        for row in &t.rows {
            let util: f64 = row[2].parse().unwrap();
            let maxu: f64 = row[3].parse().unwrap();
            assert!((0.0..=100.0).contains(&util), "{row:?}");
            assert!(maxu >= util, "{row:?}");
            let imb: f64 = row[4].parse().unwrap();
            assert!(imb >= 0.0, "{row:?}");
        }
        // Each app must show real work somewhere.
        for name in TABLE_M_APPS {
            let busy = t
                .rows
                .iter()
                .filter(|r| r[0] == name)
                .any(|r| r[2].parse::<f64>().unwrap() > 0.0);
            assert!(busy, "{name} shows no utilization at all");
        }
    }

    #[test]
    fn timeline_view_renders_chart_and_valid_json() {
        let (text, json) = timeline_view(&case(Scale::Quick, "fib"));
        assert!(text.contains("time profile: fib"));
        assert!(text.contains("overall utilization"));
        ck_trace::json_lint::validate(&json).unwrap();
        assert!(json.contains("\"imbalance_pct\""));
    }
}
