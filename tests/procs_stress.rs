//! The flush rule under oversubscription: `fib`, plain and over
//! reliable delivery, on four worker processes per core.
//!
//! A worker's coalescing buffers are not written out after every
//! scheduling step; what keeps a buffered message from being stranded
//! is that a PE flushes before it blocks (`proc/worker.rs`). With more PEs than cores every PE is descheduled
//! mid-step all the time and idles often, so a flush missing on any
//! path into the idle wait shows here: the plain run hangs into the
//! watchdog, the reliable run pays a 5 ms retransmit timeout for every
//! stranded frame. Both must produce the sequential answer well inside
//! the deadline.

use charm_repro::ck_apps::{fib, spec};
use charm_repro::prelude::*;
use chare_kernel::ProcConfig;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(15);
const SPEC: &str = "fib:n=25,grain=8";

/// Four PEs per core; capped because the data mesh is a full mesh
/// (`npes²` sockets and reader threads across the machine).
fn oversubscribed() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (4 * cores).min(32)
}

fn run_to_the_oracle(prog: Program, test_name: &str) {
    let cfg = ProcConfig::for_test(oversubscribed(), SPEC, test_name).with_watchdog(DEADLINE);
    let started = Instant::now();
    let mut rep = prog.run_procs(&cfg);
    let elapsed = started.elapsed();
    let detail = rep.proc.as_ref().expect("procs detail");
    assert!(
        detail.aborted.is_none(),
        "{} PEs: {}",
        cfg.npes,
        detail.aborted.as_ref().unwrap()
    );
    assert_eq!(rep.take_result::<u64>(), Some(fib::fib_seq(25)));
    assert!(elapsed < DEADLINE, "{} PEs took {elapsed:?}", cfg.npes);
}

#[test]
fn oversubscribed_fib_finishes() {
    spec::worker_hook();
    run_to_the_oracle(spec::build_spec(SPEC), "oversubscribed_fib_finishes");
}

#[test]
fn oversubscribed_reliable_fib_finishes() {
    spec::worker_hook();
    let prog = spec::build_spec(SPEC).with_reliable(ReliableConfig::default());
    run_to_the_oracle(prog, "oversubscribed_reliable_fib_finishes");
}
