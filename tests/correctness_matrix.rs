//! Cross-crate correctness matrix: every registered application on every
//! machine preset, and chosen applications × every strategy × several
//! machine sizes, must produce the sequential answer.

use charm_repro::ck_apps::registry::APPS;
use charm_repro::ck_apps::spec::Spec;
use charm_repro::prelude::*;

const BALANCES: [BalanceStrategy; 5] = [
    BalanceStrategy::Local,
    BalanceStrategy::Random,
    BalanceStrategy::CentralManager,
    BalanceStrategy::TokenIdle,
    BalanceStrategy::acwn(),
];

/// One program on one simulated machine against its serial oracle.
fn check(spec: &Spec, npes: usize, preset: MachinePreset) {
    let rep = spec.build().run_sim_preset(npes, preset);
    let got = spec.answer(&rep).unwrap_or_else(|| panic!("{spec} npes={npes} {preset}: no result"));
    let want = spec.oracle(npes);
    assert!(got.matches(want), "{spec} npes={npes} {preset}: {got} vs {want}");
}

/// One app under every balance × queueing strategy at each machine size.
fn sweep(spec_str: &str, sizes: &[usize], preset: MachinePreset) {
    let spec = Spec::parse(spec_str).expect(spec_str);
    for balance in &BALANCES {
        for q in QueueingStrategy::ALL {
            for &npes in sizes {
                check(&spec.with(q, balance.clone()), npes, preset);
            }
        }
    }
}

#[test]
fn fib_matrix() {
    sweep("fib:n=17,grain=9", &[1, 3, 8], MachinePreset::NcubeLike);
}

#[test]
fn nqueens_matrix() {
    sweep("nqueens:n=8,grain=4", &[1, 5, 16], MachinePreset::IpscLike);
}

#[test]
fn tsp_matrix() {
    sweep("tsp:n=9,seed=3,seq_tail=5", &[6], MachinePreset::NcubeLike);
}

#[test]
fn puzzle_matrix() {
    sweep("puzzle:scramble=16,seed=2,split_depth=3", &[5], MachinePreset::NcubeLike);
}

#[test]
fn jacobi_matrix() {
    // More PEs than rows per block allows, odd splits, one PE.
    sweep("jacobi:n=16,iters=7", &[1, 2, 4, 7, 16, 20], MachinePreset::SharedBusLike);
}

#[test]
fn primes_matrix() {
    sweep("primes:limit=3000,chunks=10", &[4], MachinePreset::NcubeLike);
}

#[test]
fn every_app_runs_on_every_preset() {
    for app in APPS {
        let spec = Spec::parse(app.test_spec).expect(app.test_spec);
        for preset in [
            MachinePreset::NcubeLike,
            MachinePreset::IpscLike,
            MachinePreset::SharedBusLike,
            MachinePreset::Ideal,
        ] {
            check(&spec, 4, preset);
        }
    }
}
