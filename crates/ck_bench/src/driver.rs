//! Table driver: the ordered job list behind `tables --all`, the one
//! runner every table goes through, and per-job host-cost records
//! (wall-clock, simulator events) plus peak RSS, which the benchmark
//! (`benchmark/`) reads for its `tables.*.ms`, `runner.*` and
//! `mem.peak_rss_mb` rows.
//!
//! [`run_jobs`] runs any job list — `--all`, or the `--table`/`--fig`
//! selections — on the calling thread plus scoped worker threads. One
//! worker is the serial case (`--serial`); it prints the same bytes as
//! any other count, because
//! each job is independent of every other: tables share no mutable
//! state (the run memo in [`crate::runner`] is thread-local) and each is
//! deterministic in isolation, so only the wall-clock changes. Results
//! are collected into order-indexed slots, never in completion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::experiments::{self, Scale};
use crate::runner::CacheStats;
use crate::table::Table;

/// One named table-regeneration job.
pub type TableJob = (&'static str, fn(Scale) -> Table);

/// Every table/figure of the evaluation, in output order.
pub fn table_jobs() -> Vec<TableJob> {
    vec![
        ("table1", experiments::table1 as fn(Scale) -> Table),
        ("table2", experiments::table2),
        ("table3", experiments::table3),
        ("table4", experiments::table4),
        ("table5", experiments::table5),
        ("table6", experiments::table6),
        ("table7", experiments::table7),
        ("table8", experiments::table8),
        ("fig1", experiments::fig1),
        ("fig2", experiments::fig2),
        ("fig3", experiments::fig3),
        ("fig4", experiments::fig4),
        ("fig5", experiments::fig5),
        ("fig6", experiments::fig6),
        ("fig7", experiments::fig7),
        ("fig8", experiments::fig8),
        ("table_r", experiments::table_r),
        ("table_p", crate::trace_view::table_p),
        ("table_m", crate::metrics_view::table_m),
        ("table_b", experiments::table_b),
        ("table_h", experiments::table_h),
    ]
}

/// Host-side cost of regenerating one table.
#[derive(Clone, Copy, Debug)]
pub struct BenchRecord {
    /// Job name (`table1` … `table_m`).
    pub name: &'static str,
    /// Wall-clock nanoseconds spent in the job.
    pub wall_ns: u64,
    /// Simulator events processed by the job's fresh runs (memoized
    /// runs contribute zero — they cost no host time).
    pub events: u64,
}

/// Run every job of `list` on `jobs.max(1)` workers (never more than
/// there are jobs) and return the tables in list order, each job's host
/// cost, and the memo's hits and misses summed over the workers. The
/// calling thread is the first worker, so a serial run spawns no thread:
/// a second thread would get its own malloc arena and raise peak RSS.
/// `cache` toggles the deterministic run memo on every worker. Table
/// bytes do not depend on `jobs` or `cache`.
pub fn run_jobs(
    list: &[TableJob],
    scale: Scale,
    jobs: usize,
    cache: bool,
) -> (Vec<Table>, Vec<BenchRecord>, CacheStats) {
    let n = list.len();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(Table, BenchRecord)>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let totals = Mutex::new(CacheStats::default());
    let work = || {
        crate::runner::set_caching(cache);
        let before = crate::runner::cache_stats();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(name, f)) = list.get(i) else { break };
            multicomputer::take_events_tally();
            let start = Instant::now();
            let table = f(scale);
            let wall_ns = start.elapsed().as_nanos() as u64;
            let events = multicomputer::take_events_tally();
            slots.lock().unwrap()[i] = Some((table, BenchRecord { name, wall_ns, events }));
        }
        let after = crate::runner::cache_stats();
        let mut t = totals.lock().unwrap();
        t.hits += after.hits - before.hits;
        t.misses += after.misses - before.misses;
        t.entries += after.entries;
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs.max(1).min(n) {
            scope.spawn(work);
        }
        work();
    });
    let (tables, records) = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("every job slot filled"))
        .unzip();
    (tables, records, totals.into_inner().unwrap())
}

/// [`run_jobs`] over every table of [`table_jobs`].
pub fn run_all_recording(
    scale: Scale,
    jobs: usize,
    cache: bool,
) -> (Vec<Table>, Vec<BenchRecord>, CacheStats) {
    run_jobs(&table_jobs(), scale, jobs, cache)
}

/// Peak resident set size of this process in kilobytes, from
/// `/proc/self/status` (`VmHWM`). Zero where unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_cover_all_in_order() {
        let names: Vec<&str> = table_jobs().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 21);
        assert_eq!(names[0], "table1");
        assert_eq!(names[8], "fig1");
        assert_eq!(names[16], "table_r");
        assert_eq!(names[17], "table_p");
        assert_eq!(names[18], "table_m");
        assert_eq!(names[19], "table_b");
        assert_eq!(names[20], "table_h");
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        // On Linux this must parse; elsewhere 0 is acceptable.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }
}
