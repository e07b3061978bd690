//! A/B determinism invariants for the host-performance machinery:
//! the run memo and thread-parallel table generation change wall-clock
//! only — never a byte of table output.
//!
//! Tables 1, 2 and 4 cover the three report shapes the optimizations
//! touch: counters + sim detail (Table 1), the speedup sweep with its
//! repeated P=1 baseline (Table 2), and the strategy matrix with
//! imbalance figures (Table 4).

use ck_bench::{driver, runner, Scale, Table};

fn render(tables: &[Table]) -> String {
    tables
        .iter()
        .map(|t| format!("{t}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn tables_124(scale: Scale) -> Vec<Table> {
    vec![
        ck_bench::table1(scale),
        ck_bench::table2(scale),
        ck_bench::table4(scale),
    ]
}

/// Serving repeated scenarios from the deterministic run memo must give
/// the same bytes as simulating every run fresh.
#[test]
fn run_memo_vs_fresh_byte_identical() {
    runner::set_caching(true);
    let memoized = render(&tables_124(Scale::Quick));
    runner::set_caching(false);
    let fresh = render(&tables_124(Scale::Quick));
    runner::set_caching(true);
    assert_eq!(memoized, fresh);
}

/// Generating tables on worker threads (each with its own thread-local
/// pool and memo) must match the serial rendering byte for byte.
#[test]
fn parallel_vs_serial_byte_identical() {
    let serial = render(&tables_124(Scale::Quick));
    let parallel = std::thread::scope(|s| {
        let t1 = s.spawn(|| format!("{}", ck_bench::table1(Scale::Quick)));
        let t2 = s.spawn(|| format!("{}", ck_bench::table2(Scale::Quick)));
        let t4 = s.spawn(|| format!("{}", ck_bench::table4(Scale::Quick)));
        [
            t1.join().expect("table1 worker"),
            t2.join().expect("table2 worker"),
            t4.join().expect("table4 worker"),
        ]
        .join("\n")
    });
    assert_eq!(serial, parallel);
}

/// Figure 1 is Table 2's speedup sweep transposed: run after Table 2 on
/// one worker, every one of its runs is a memo hit.
#[test]
fn fig1_after_table2_simulates_nothing() {
    let jobs: Vec<driver::TableJob> = ck_bench::table_jobs()
        .into_iter()
        .filter(|(name, _)| ["table2", "fig1"].contains(name))
        .collect();
    // One worker is this thread: start it from a cold memo.
    runner::set_caching(false);
    let (tables, records, cache) = driver::run_jobs(&jobs, Scale::Quick, 1, true);
    assert_eq!(tables.len(), 2);
    // Nine suite apps at the six quick PE counts (P=1 is one of them).
    assert_eq!(cache.misses, 54, "{cache:?}");
    // Table 2 asks for T(1) twice per app, Figure 1 asks for all 63 again.
    assert_eq!(cache.hits, 9 + 63, "{cache:?}");
    assert_eq!(records[1].name, "fig1");
    assert!(records[0].events > 0, "Table 2 simulates its sweep");
    assert_eq!(records[1].events, 0, "Figure 1 must simulate nothing");
}
