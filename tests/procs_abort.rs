//! Worker-death regression tests for the multi-process backend: a
//! worker that exits nonzero, closes its sockets, corrupts a data link
//! or sends the parent a control message that does not decode mid-run
//! must surface as a *structured* abort reason on the report — never a
//! hang, never a parent panic, and never a watchdog timeout
//! masquerading as one.
//!
//! The crash is injected with `ProcConfig::with_crash`, which parses the
//! hook in the parent (a misspelt one panics there rather than never
//! firing) and ships it, typed, in `Go`; the one rank it names fires it
//! after a few scheduling steps, so the death lands mid-computation,
//! with traffic in flight.

use charm_repro::ck_apps::spec;
use chare_kernel::proc::EXIT_BAD_FRAME;
use chare_kernel::{ProcAbortReason, ProcConfig};
use std::time::{Duration, Instant};

/// Run fib with a crash hook and return the abort reason, asserting the
/// parent classified the death long before the watchdog would fire.
fn run_crashed(test_name: &str, crash: &str) -> ProcAbortReason {
    spec::worker_hook();
    let spec_str = "fib:n=18,grain=10";
    let prog = spec::build_spec(spec_str);
    let cfg = ProcConfig::for_test(4, spec_str, test_name)
        .with_watchdog(Duration::from_secs(60))
        .with_crash(crash);
    let started = Instant::now();
    let mut rep = prog.run_procs(&cfg);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "death took {elapsed:?} to classify — that is a hang, not an abort"
    );
    assert!(!rep.timed_out, "worker death misreported as a watchdog timeout");
    assert!(rep.take_result::<u64>().is_none(), "aborted run has no result");
    rep.proc
        .as_ref()
        .expect("procs detail")
        .aborted
        .clone()
        .expect("worker death must be surfaced as an abort reason")
}

#[test]
fn worker_nonzero_exit_is_structured() {
    let reason = run_crashed("worker_nonzero_exit_is_structured", "2:exit:7:3");
    assert_eq!(
        reason,
        ProcAbortReason::WorkerExit {
            rank: 2,
            code: Some(7)
        },
        "got: {reason}"
    );
}

#[test]
fn worker_socket_close_is_structured() {
    // The worker closes control and data sockets but keeps running
    // (simulating a wedged or partitioned process): the parent must
    // classify the hangup from the socket, not wait for process death.
    let reason = run_crashed("worker_socket_close_is_structured", "1:close:3");
    assert_eq!(
        reason,
        ProcAbortReason::WorkerDisconnect { rank: 1 },
        "got: {reason}"
    );
}

/// Worker 2 writes `len` as a bare length prefix to every peer and
/// keeps running. No frame can follow a prefix below the 12-byte header
/// or above the frame cap, so whichever peer reads it first must stop
/// with the documented exit code — at once, not after allocating `len`
/// bytes and not by sitting on a dead link until the watchdog.
fn assert_bad_length_prefix_is_structured(test_name: &str, len: u32) {
    let reason = run_crashed(test_name, &format!("2:badlen:{len}:3"));
    assert!(
        matches!(
            reason,
            ProcAbortReason::WorkerExit { rank, code: Some(EXIT_BAD_FRAME) } if rank != 2
        ),
        "length prefix {len}: got: {reason}"
    );
}

#[test]
fn undersized_length_prefix_is_structured() {
    assert_bad_length_prefix_is_structured("undersized_length_prefix_is_structured", 11);
}

#[test]
fn oversized_length_prefix_is_structured() {
    assert_bad_length_prefix_is_structured("oversized_length_prefix_is_structured", u32::MAX);
}

#[test]
fn malformed_frame_body_is_structured() {
    // Worker 2 writes every peer a frame with a valid header whose body
    // starts with a tag no envelope has: the length prefix is fine, so
    // it is the decoder on the PE thread that must refuse it — with the
    // same exit code, not a panic (a signal death under `panic = abort`).
    let reason = run_crashed("malformed_frame_body_is_structured", "2:badbody:3");
    assert!(
        matches!(
            reason,
            ProcAbortReason::WorkerExit { rank, code: Some(EXIT_BAD_FRAME) } if rank != 2
        ),
        "got: {reason}"
    );
}

#[test]
fn envelope_nested_past_any_sender_is_structured() {
    // Worker 2 writes every peer one well-formed 1.4 MB frame: 100 000
    // `RelData` envelopes, each in the slot of the one before. The
    // splitter has no quarrel with it; a decoder that recursed once per
    // level would run out of stack and die by signal (`code: None`).
    // The receiver must refuse it by depth, with the bad-frame code.
    let test_name = "envelope_nested_past_any_sender_is_structured";
    let reason = run_crashed(test_name, "2:nest:100000:3");
    assert!(
        matches!(
            reason,
            ProcAbortReason::WorkerExit { rank, code: Some(EXIT_BAD_FRAME) } if rank != 2
        ),
        "got: {reason}"
    );
}

#[test]
fn malformed_control_message_is_structured() {
    // Worker 2 sends the parent a well-framed `Final` cut three bytes in
    // and keeps running: the parent's reader must report the violation,
    // naming the rank, instead of panicking on the short read.
    let reason = run_crashed("malformed_control_message_is_structured", "2:badctl:3");
    assert!(
        matches!(&reason, ProcAbortReason::Protocol { rank: 2, error } if error.contains("wire:")),
        "got: {reason}"
    );
}

#[test]
fn clean_runs_have_no_abort_reason() {
    // Control case for the ones above: the same program with no hook
    // completes with `aborted: None` and a result.
    spec::worker_hook();
    let spec_str = "fib:n=16,grain=10";
    let prog = spec::build_spec(spec_str);
    let cfg = ProcConfig::for_test(4, spec_str, "clean_runs_have_no_abort_reason");
    let mut rep = prog.run_procs(&cfg);
    assert!(rep.proc.as_ref().unwrap().aborted.is_none());
    assert!(rep.take_result::<u64>().is_some());
}
