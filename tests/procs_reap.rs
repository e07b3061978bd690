//! A procs run joins every thread it started to read its workers'
//! control sockets before `run_procs` returns, whether the run ended
//! cleanly or a worker died mid-run: no `ck-ctl-*` thread outlives its
//! run.
//!
//! A binary of its own with a single test, so that while it counts the
//! threads of this process no other procs run is alive in it.

use charm_repro::ck_apps::spec;
use chare_kernel::{ProcAbortReason, ProcConfig};

/// The names of this process's threads that read a control socket.
fn ctl_readers() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with("ck-ctl-"))
        .collect()
}

#[test]
fn no_control_reader_outlives_its_run() {
    const NAME: &str = "no_control_reader_outlives_its_run";
    spec::worker_hook();
    let spec_str = "fib:n=14,grain=8";
    let prog = spec::build_spec(spec_str);

    let clean = prog.run_procs(&ProcConfig::for_test(2, spec_str, NAME));
    assert_eq!(clean.proc.expect("procs detail").aborted, None);
    assert_eq!(ctl_readers(), Vec::<String>::new(), "after a clean run");

    let cfg = ProcConfig::for_test(2, spec_str, NAME).with_crash("1:exit:7:3");
    let crashed = prog.run_procs(&cfg);
    let reason = crashed.proc.expect("procs detail").aborted;
    assert_eq!(reason, Some(ProcAbortReason::WorkerExit { rank: 1, code: Some(7) }));
    assert_eq!(ctl_readers(), Vec::<String>::new(), "after a worker exited mid-run");
}
