//! The simulator must be exactly reproducible: identical configuration
//! implies identical simulated time, event count and kernel counters —
//! the property every experiment table rests on.

use charm_repro::ck_apps::{nqueens, tsp};
use charm_repro::prelude::*;

fn fingerprint(rep: &chare_kernel::CkReport) -> (u64, u64, u64, u64) {
    let sim = rep.sim.as_ref().expect("sim detail");
    (
        rep.time_ns,
        sim.events,
        sim.packets,
        rep.total().user_sent,
    )
}

#[test]
fn nqueens_identical_across_runs() {
    for balance in [
        BalanceStrategy::Random,
        BalanceStrategy::acwn(),
        BalanceStrategy::TokenIdle,
    ] {
        let prog = nqueens::build(nqueens::QueensParams { n: 9, grain: 5 })
            .with_opts(|o| o.balance = balance.clone());
        let a = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        let b = prog.run_sim_preset(8, MachinePreset::NcubeLike);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{balance:?}");
    }
}

#[test]
fn tsp_identical_across_runs_with_priorities() {
    let prog = tsp::build(tsp::TspParams { n: 10, seed: 4, seq_tail: 5 })
        .with_opts(|o| o.balance = BalanceStrategy::Random);
    let a = prog.run_sim_preset(16, MachinePreset::IpscLike);
    let b = prog.run_sim_preset(16, MachinePreset::IpscLike);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn different_rng_seed_changes_placement_not_answer() {
    let params = nqueens::QueensParams { n: 8, grain: 4 };
    let build_seeded = |seed: u64| {
        nqueens::build(params).with_opts(|o| {
            o.balance = BalanceStrategy::Random;
            o.rng_seed = seed;
        })
    };
    let mut a = build_seeded(1).run_sim_preset(8, MachinePreset::NcubeLike);
    let mut b = build_seeded(2).run_sim_preset(8, MachinePreset::NcubeLike);
    // Same answer...
    assert_eq!(a.take_result::<u64>(), Some(92));
    assert_eq!(b.take_result::<u64>(), Some(92));
    // ...different placement history.
    assert_ne!(
        (a.time_ns, a.sim.as_ref().unwrap().events),
        (b.time_ns, b.sim.as_ref().unwrap().events),
        "different seeds should produce different schedules"
    );
}
