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

/// Run one app on the simulator with kernel event tracing on, and
/// analyze it as a [`RunTrace`].
fn traced_run(case: &Spec) -> (CkReport, RunTrace) {
    let prog = case.build().with_tracing(TraceConfig);
    let rep = prog.run_sim(SimConfig::preset(NPES, PRESET));
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
    use chare_kernel::proc::ProcConfig;
    use chare_kernel::trace::{entry_label, EventKind};
    use multicomputer::StepKind;
    use std::collections::{BTreeMap, HashMap};

    /// On the simulator an entry begins exactly at its step's start, so
    /// the entry profile is what pairing each `EntryBegin` with the user
    /// span of the same PE and start gives, and every span has a label.
    #[test]
    fn simulator_entries_join_the_span_they_start() {
        for case in standard_suite(Scale::Quick) {
            let (_, run) = traced_run(&case);
            let begins: HashMap<(u32, u64), String> = (run.events.iter())
                .filter_map(|e| match e.kind {
                    EventKind::EntryBegin { what, ep } => {
                        Some(((e.pe.0, e.at_ns), entry_label(what, ep)))
                    }
                    _ => None,
                })
                .collect();
            let mut want: BTreeMap<String, (u64, u64)> = BTreeMap::new();
            for s in run.spans.iter().filter(|s| s.kind == StepKind::User) {
                let label = begins.get(&(s.pe.0, s.start_ns)).cloned();
                let row = want.entry(label.unwrap_or_else(|| "user:?".into())).or_default();
                *row = (row.0 + 1, row.1 + (s.end_ns - s.start_ns));
            }
            let got: BTreeMap<String, (u64, u64)> =
                run.entry_breakdown().into_iter().map(|r| (r.label, (r.count, r.total_ns))).collect();
            assert_eq!(got, want, "{}", case.app.name);
            assert!(!got.contains_key("user:?"), "{}", case.app.name);
        }
    }

    /// Threads and procs trace too: one user span per entry run, each
    /// labelled with its entry although it begins after its step does,
    /// and no dispatch, which only the simulator charges, whatever cost
    /// model the caller hands the analysis.
    #[test]
    fn real_backends_trace_one_labelled_span_per_entry() {
        // Worker re-invocations of this test binary route through the
        // harness, so the hook must run before any procs run spawns.
        ck_apps::spec::worker_hook();
        const SPEC: &str = "fib:n=16,grain=9";
        const NAME: &str = "trace_view::tests::real_backends_trace_one_labelled_span_per_entry";
        let prog = Spec::parse(SPEC).unwrap().build().with_tracing(TraceConfig);
        let threads = prog.run_threads(2);
        let procs = prog.run_procs(&ProcConfig::for_test(2, SPEC, NAME));
        for (backend, rep) in [("threads", threads), ("procs", procs)] {
            assert!(!rep.timed_out && rep.proc.as_ref().is_none_or(|p| p.aborted.is_none()), "{backend}");
            let run = RunTrace::from_report(&rep, &PRESET.cost_model()).expect("a traced run");
            let user = run.spans.iter().filter(|s| s.kind == StepKind::User).count() as u64;
            assert_eq!(user, rep.total().entries_executed, "{backend}");
            let (work, dispatch, control, idle) = run.attribution().fractions();
            assert!((work + dispatch + control + idle - 1.0).abs() < 1e-9, "{backend}");
            assert_eq!(dispatch, 0.0, "{backend}");
            let rows = run.entry_breakdown();
            assert!(rows.iter().all(|r| r.label != "user:?"), "{backend}: {rows:?}");
            assert_eq!(rows.iter().map(|r| r.count).sum::<u64>(), user, "{backend}");
        }
    }

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
