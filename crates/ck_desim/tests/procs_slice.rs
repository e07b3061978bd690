//! The campaign's procs slice: seeded scenarios from the same stream
//! the sim campaign draws from, executed as real OS processes over
//! sockets with the deterministic loss shim as the storm, judged by the
//! unchanged oracle battery.
//!
//! This is the cross-backend half of the desim story: the sim campaign
//! proves the kernel against adversarial *simulated* schedules; the
//! slice proves the same oracles hold when the schedule is real
//! wall-clock preemption and the faults are real dropped socket frames.

use ck_desim::procs;
use ck_desim::scenario::{self, Scenario};
use ck_desim::{judge, Violation};
use chare_kernel::prelude::*;
use multicomputer::FaultRng;

/// Draw the first `want` procs-sized scenarios from a campaign stream,
/// whatever their app (8 PEs is plenty of processes for a CI box; 16-PE
/// draws are skipped, not shrunk, to keep the stream aligned with the
/// seed).
fn draw_slice(seed: u64, want: usize) -> Vec<Scenario> {
    let mut rng = FaultRng::new(seed);
    let mut out = Vec::new();
    for _ in 0..200 {
        if out.len() == want {
            break;
        }
        let sc = scenario::generate(&mut rng);
        if sc.npes <= 8 {
            out.push(sc);
        }
    }
    assert_eq!(out.len(), want, "stream should yield {want} scenarios");
    out
}

#[test]
fn procs_slice_passes_all_oracles() {
    ck_apps::spec::worker_hook();
    let scenarios = draw_slice(0xD15C, 6);
    // The slice must not collapse onto one app: a stream that only ever
    // draws fib is a slice of nothing.
    let apps: std::collections::BTreeSet<&str> =
        scenarios.iter().map(|sc| sc.prog.app.name).collect();
    assert!(apps.len() >= 3, "slice too narrow: {apps:?}");
    for (i, sc) in scenarios.iter().enumerate() {
        let want = sc.reference().expect("fault-free reference");
        // 2% seeded loss on every link: enough that retransmission is
        // exercised on every run, low enough that six runs stay in CI
        // budget.
        let loss = LossConfig::new(0xD15C ^ i as u64, 20);
        let rep = procs::run_scenario_procs(sc, Some(loss), "procs_slice_passes_all_oracles");
        let v = judge(sc, &rep, want);
        assert!(
            v.is_empty(),
            "slice run {i} failed on procs\n  scenario: {}\n  violations: {v:?}",
            sc.spec()
        );
    }
}

#[test]
fn procs_slice_judges_worker_death_as_aborted() {
    // The oracle battery itself must classify a procs failure: kill a
    // worker mid-run and the judge reports `Violation::Aborted` (the
    // procs rendering of a structural failure), suppressing the
    // dependent answer oracle exactly like a sim hang.
    ck_apps::spec::worker_hook();
    // Pinned rather than drawn: the victim rank must be guaranteed
    // enough scheduling steps for the hook to fire mid-run.
    let sc = Scenario::parse("app=nqueens:n=8,grain=4 npes=4 preset=ncube rel=none")
        .expect("pinned spec parses");
    let want = sc.reference().expect("reference");
    let prog = sc
        .prog
        .build()
        .with_reliable(procs::slice_reliable())
        .with_metrics(MetricsConfig);
    let cfg = ProcConfig::for_test(
        sc.npes,
        sc.prog.to_string(),
        "procs_slice_judges_worker_death_as_aborted",
    )
    .with_crash("1:exit:9:2");
    let rep = prog.run_procs(&cfg);
    let v = judge(&sc, &rep, want);
    assert!(
        v.iter().any(|v| matches!(v, Violation::Aborted { .. })),
        "worker death must judge as Aborted: {v:?}"
    );
    assert!(
        !v.iter().any(|v| matches!(v, Violation::MissingAnswer)),
        "the abort suppresses the dependent answer oracle: {v:?}"
    );
}
