//! # ck_bench — the experiment harness
//!
//! Regenerates every table and figure of the SC '91 evaluation (as
//! reconstructed in `DESIGN.md` §4). The [`experiments`] module holds
//! one function per table/figure, each returning a formatted [`Table`];
//! the `tables` binary prints them. Host-side cost (wall-clock, events
//! per second, per-layer ns/op) is measured by the repository's
//! benchmark, `benchmark/` + `BENCHMARK.json`, which calls
//! [`driver::run_all_recording`].
//!
//! All simulator experiments are deterministic: the same binary produces
//! the same numbers on every run.

pub mod driver;
pub mod experiments;
pub mod metrics_view;
pub mod runner;
pub mod table;
pub mod trace_view;

pub use driver::{table_jobs, BenchRecord};
pub use experiments::*;
pub use metrics_view::{table_m, timeline_view};
pub use table::Table;
pub use trace_view::{comm_matrix_table, export_trace, table_p};
