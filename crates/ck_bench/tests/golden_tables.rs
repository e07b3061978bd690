//! The committed table reference, enforced: `tables --all --quick
//! --serial` with host-dependent cells redacted must print exactly
//! `tests/golden/tables_quick.txt` (the full-scale twin is
//! `tables_full.txt` at the repo root, diffed by CI in release mode).
//!
//! The test spawns the real binary rather than calling
//! `ck_bench::driver`: Tables B and H re-invoke `current_exe` as procs
//! workers, which only a binary that starts with `worker_hook()` can be.
//!
//! The CLI's refusals (the retired bench flags, an unknown benchmark
//! name, `--out` without exactly one producer) are checked here too,
//! since they need the same binary.

use std::path::Path;
use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .env("CK_TABLES_REDACT_HOST", "1")
        .output()
        .expect("spawn the tables binary")
}

#[test]
fn quick_tables_match_the_committed_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables_quick.txt");
    let want = std::fs::read(&golden).expect("read the committed golden");
    let out = tables(&["--all", "--quick", "--serial"]);
    assert!(
        out.status.success(),
        "tables exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    if out.stdout != want {
        let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tables_quick.actual.txt");
        std::fs::write(&actual, &out.stdout).expect("write the actual output");
        panic!(
            "`tables --all --quick --serial` no longer prints the committed golden.\n\
             Inspect:  diff {g} {a}\n\
             If the change is intended, explain it in EXPERIMENTS.md and run:\n  cp {a} {g}",
            g = golden.display(),
            a = actual.display()
        );
    }
}

#[test]
fn retired_bench_flags_are_usage_errors() {
    for flag in ["--host-perf", "--metrics-perf", "--bench-out"] {
        let out = tables(&[flag, "x.json", "--quick"]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be rejected");
        assert!(out.stdout.is_empty(), "{flag} must not run anything");
    }
}

#[test]
fn unknown_benchmark_names_are_usage_errors() {
    // These used to reach a `panic!` — a SIGABRT under the release
    // profile's `panic = "abort"` — instead of the exit-2 usage error
    // every other bad argument gets.
    for flag in ["--timeline", "--export-trace", "--matrix"] {
        let out = tables(&[flag, "warp", "--quick"]);
        assert_eq!(out.status.code(), Some(2), "{flag} warp must be rejected");
        assert!(out.stdout.is_empty(), "{flag} warp must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown benchmark \"warp\""), "{flag}: {err}");
        for known in ["fib", "nqueens", "primes"] {
            assert!(err.contains(known), "{flag} must list {known}: {err}");
        }
    }
    // A good name after a bad one must not run either.
    let out = tables(&["--matrix", "fib", "--timeline", "warp", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

/// `--out` names the JSON of exactly one `--timeline` or
/// `--export-trace`: two producers, or none, exit 2 before anything runs.
#[test]
fn out_with_two_producers_is_a_usage_error() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("must_not_exist.json");
    let path = path.to_str().expect("utf-8 temp path");
    for producers in [
        &["--timeline", "fib", "--export-trace", "fib"][..],
        &["--timeline", "fib", "--timeline", "nqueens"],
        &["--export-trace", "fib", "--export-trace", "nqueens"],
        &["--all"],
    ] {
        let mut args = producers.to_vec();
        args.extend(["--quick", "--out", path]);
        let out = tables(&args);
        assert_eq!(out.status.code(), Some(2), "{producers:?}");
        assert!(out.stdout.is_empty(), "{producers:?} must not run anything");
        assert!(!Path::new(path).exists(), "{producers:?} wrote {path}");
    }
}
