//! Trace-driven experiment views: where the mini-Projections analyzer
//! ([`ck_trace`]) meets the benchmark suite.
//!
//! [`table_p`] is "Table P" of the reconstructed evaluation — the
//! overhead-attribution table the paper's overhead discussion implies
//! but never prints: for each benchmark, the split of total PE-time
//! into useful work, scheduler dispatch, runtime control traffic and
//! idle, plus grain-size and critical-path summaries. [`comm_matrix_table`]
//! prints the PE×PE message matrix for one benchmark, and
//! [`export_trace`] emits a Perfetto-loadable Chrome trace-event JSON
//! timeline.

use chare_kernel::{CkReport, TraceConfig};
use ck_trace::RunTrace;
use multicomputer::{MachinePreset, SimConfig};

use ck_apps::spec::Spec;

use crate::experiments::{standard_suite, Scale};
use crate::table::Table;

const NPES: usize = 16;
const PRESET: MachinePreset = MachinePreset::NcubeLike;

/// Run one app with both kernel event tracing and simulator span
/// tracing enabled, and join the two into a [`RunTrace`].
fn traced_run(case: &Spec) -> (CkReport, RunTrace) {
    let prog = case.build().with_tracing(TraceConfig);
    let cfg = SimConfig::preset(NPES, PRESET).with_trace();
    let rep = prog.run_sim(cfg);
    let run = RunTrace::from_report(&rep, &PRESET.cost_model())
        .expect("traced simulator run must yield a RunTrace");
    (rep, run)
}

/// Table P: overhead attribution per benchmark — the Projections view
/// of where the PE-seconds went.
pub fn table_p(scale: Scale) -> Table {
    let mut t = Table::new(
        format!(
            "Table P: overhead attribution ({NPES}-PE simulated NCUBE-like hypercube, tracing on)"
        ),
        [
            "program",
            "work%",
            "dispatch%",
            "control%",
            "idle%",
            "med grain us",
            "cp bound ms",
            "cp eff",
            "events",
        ],
    );
    let mut truncated: Vec<String> = Vec::new();
    for case in standard_suite(scale) {
        let (_, run) = traced_run(&case);
        if let Some(warn) = run.truncation_warning() {
            truncated.push(format!("{}: {warn}", case.app.name));
        }
        let (work, dispatch, control, idle) = run.attribution().fractions();
        let grain = run.grain_histogram();
        let cp = run.critical_path();
        t.row(vec![
            case.app.name.into(),
            format!("{:.1}", work * 100.0),
            format!("{:.1}", dispatch * 100.0),
            format!("{:.1}", control * 100.0),
            format!("{:.1}", idle * 100.0),
            format!("{:.1}", grain.median_ns as f64 / 1e3),
            format!("{:.2}", cp.lower_bound_ns as f64 / 1e6),
            format!("{:.2}", cp.efficiency()),
            run.events.len().to_string(),
        ]);
    }
    t.note("work/dispatch/control/idle split the full P x T(P) PE-time; rows sum to 100%");
    t.note("cp bound = max(total work / P, longest entry); cp eff = bound / T(P), 1.00 is optimal");
    t.note("events = kernel trace records captured (sends, recvs, entries, balance decisions)");
    // An overflowed trace ring silently undercounts event-derived
    // columns; say so in the table itself rather than in a log no one
    // reads.
    for warn in truncated {
        t.note(warn);
    }
    t
}

/// PE×PE message-count matrix for one benchmark, as a table.
pub fn comm_matrix_table(case: &Spec) -> Table {
    let name = case.app.name;
    let (_, run) = traced_run(case);
    let m = run.comm_matrix();
    let mut t = Table::new(
        format!("Communication matrix: {name} on {NPES} PEs (messages sent src -> dst)"),
        std::iter::once("src\\dst".to_string()).chain((0..m.npes).map(|d| d.to_string())),
    );
    for (s, row) in m.msgs.iter().enumerate() {
        let mut cells = vec![s.to_string()];
        cells.extend(row.iter().map(|v| v.to_string()));
        t.row(cells);
    }
    t.note(format!(
        "{} messages total, {:.0}% remote",
        m.total_msgs(),
        m.remote_fraction() * 100.0
    ));
    t
}

/// Chrome trace-event JSON for one benchmark (load at ui.perfetto.dev).
/// The export lint rejects a silently-truncated timeline: if the trace
/// ring overflowed, the document must say so.
pub fn export_trace(case: &Spec) -> String {
    let name = case.app.name;
    let (_, run) = traced_run(case);
    let json = run.to_chrome_trace();
    ck_trace::json_lint::validate_export(&json, run.dropped)
        .unwrap_or_else(|e| panic!("trace export for {name} failed lint: {e}"));
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::case;

    #[test]
    fn table_p_rows_sum_to_100_percent() {
        let t = table_p(Scale::Quick);
        assert_eq!(t.rows.len(), 9);
        for row in &t.rows {
            let sum: f64 = row[1..5].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!((sum - 100.0).abs() < 0.5, "{row:?}");
            let eff: f64 = row[7].parse().unwrap();
            assert!(eff > 0.0 && eff <= 1.0, "{row:?}");
            let events: u64 = row[8].parse().unwrap();
            assert!(events > 0, "{row:?}");
        }
    }

    #[test]
    fn comm_matrix_fib_has_remote_traffic() {
        let t = comm_matrix_table(&case(Scale::Quick, "fib"));
        assert_eq!(t.rows.len(), NPES);
        assert_eq!(t.headers.len(), NPES + 1);
        let total: u64 = t
            .rows
            .iter()
            .flat_map(|r| r[1..].iter())
            .map(|c| c.parse::<u64>().unwrap())
            .sum();
        assert!(total > 0);
    }

    #[test]
    fn exported_trace_is_valid_json() {
        let json = export_trace(&case(Scale::Quick, "fib"));
        ck_trace::json_lint::validate(&json).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
    }
}
