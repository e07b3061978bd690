//! Fault-tolerance acceptance tests: every benchmark app, run on a
//! 16-PE simulated machine that drops, duplicates and delays packets
//! (and stalls one PE mid-run), must still produce the fault-free
//! answer when the kernel's reliable-delivery layer is enabled.
//!
//! Also checks determinism (a fixed fault seed replays to identical
//! reports) and the zero-cost-off property (a reliable-capable build
//! with faults disabled and reliability off matches the seed tables).

use chare_kernel::prelude::*;
use ck_apps::registry::APPS;
use ck_apps::spec::Spec;
use ck_apps::{fib, nqueens};
use multicomputer::SimTime;
use proptest::prelude::*;

const NPES: usize = 16;

/// Fast-retry config so redirect paths trigger within short sim runs.
fn rel_cfg() -> ReliableConfig {
    ReliableConfig {
        timeout: Cost::micros(800),
        seed_retry_limit: 3,
        ..ReliableConfig::default()
    }
}

/// The acceptance fault plan: 5% drop, 2% duplication, 5% extra delay,
/// plus PE 5 stalled for a window in the middle of the run.
fn rough_network(seed: u64) -> SimConfig {
    let plan = FaultPlan::new(seed)
        .drop(0.05)
        .duplicate(0.02)
        .delay(0.05, Cost::micros(200))
        .stall(
            Pe(5),
            SimTime(300_000),   // 300 µs in
            SimTime(1_200_000), // out at 1.2 ms
        );
    SimConfig::preset(NPES, MachinePreset::NcubeLike).with_faults(plan)
}

#[test]
fn every_app_survives_a_rough_network() {
    for app in APPS {
        let name = app.name;
        let spec = Spec::parse(app.test_spec).expect(app.test_spec);
        let prog = spec.build();
        let clean = prog.run_sim_preset(NPES, MachinePreset::NcubeLike);
        let want = spec.answer(&clean).expect("fault-free answer");

        let rough = prog.with_reliable(rel_cfg()).run_sim(rough_network(0xBAD_5EED));
        let got = spec.answer(&rough).expect("answer under faults");
        assert!(
            want.matches(got),
            "{name}: fault-free {want:?} != faulty {got:?}"
        );

        let sim = rough.sim.as_ref().expect("sim detail");
        assert!(sim.aborted.is_none(), "{name}: aborted {:?}", sim.aborted);
        let faults = sim.faults.clone().expect("fault stats");
        assert!(
            faults.dropped + faults.delayed + faults.duplicated > 0,
            "{name}: the fault plan never fired — test is vacuous"
        );
        // Every genuinely dropped frame must have been repaired.
        if faults.dropped > 0 {
            assert!(
                rough.total().retransmits > 0,
                "{name}: drops occurred but nothing was retransmitted"
            );
        }
        if faults.duplicated > 0 {
            assert!(
                rough.total().dup_dropped > 0,
                "{name}: duplicates were injected but none discarded"
            );
        }
    }
}

#[test]
fn fixed_fault_seed_replays_identically() {
    let prog = nqueens::build(nqueens::QueensParams { n: 8, grain: 4 })
        .with_reliable(rel_cfg());
    let a = prog.run_sim(rough_network(0xD5));
    let b = prog.run_sim(rough_network(0xD5));
    assert_eq!(a.time_ns, b.time_ns);
    let (sa, sb) = (a.sim.as_ref().unwrap(), b.sim.as_ref().unwrap());
    assert_eq!(sa.events, sb.events);
    assert_eq!(sa.packets, sb.packets);
    assert_eq!(sa.bytes, sb.bytes);
    assert_eq!(sa.faults, sb.faults);
    assert_eq!(a.counters, b.counters, "every PE counted the same");
}

#[test]
fn different_fault_seeds_diverge() {
    // Sanity check that the plan seed actually steers the injection —
    // otherwise the replay test above proves nothing.
    let prog = fib::build(fib::FibParams { n: 16, grain: 9 }).with_reliable(rel_cfg());
    let a = prog.run_sim(rough_network(1));
    let b = prog.run_sim(rough_network(2));
    assert_ne!(
        a.sim.as_ref().unwrap().faults,
        b.sim.as_ref().unwrap().faults
    );
}

#[test]
fn reliable_layer_off_is_free() {
    // With no fault plan and reliability off, the kernel must behave
    // byte-for-byte as before the resilience work: identical time,
    // packets and counters (zero-cost-off).
    let prog = fib::build(fib::FibParams { n: 16, grain: 9 });
    let a = prog.run_sim_preset(8, MachinePreset::NcubeLike);
    let b = prog.run_sim_preset(8, MachinePreset::NcubeLike);
    assert_eq!(a.time_ns, b.time_ns);
    assert_eq!(a.total().retransmits, 0);
    assert_eq!(a.total().acks_sent, 0);
    assert_eq!(
        a.sim.as_ref().unwrap().packets,
        b.sim.as_ref().unwrap().packets
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery equivalence: for arbitrary (bounded) drop/duplication/
    /// delay probabilities and fault seeds, a run with the reliable
    /// layer produces the exact fault-free answer.
    #[test]
    fn recovery_is_equivalent_to_a_clean_run(
        fault_seed in 0u64..1_000_000,
        drop_pm in 0u32..150u32,   // per-mille: up to 15% drop
        dup_pm in 0u32..50u32,     // up to 5% duplication
        delay_pm in 0u32..100u32,  // up to 10% delayed
    ) {
        let (drop_p, dup_p, delay_p) = (
            f64::from(drop_pm) / 1000.0,
            f64::from(dup_pm) / 1000.0,
            f64::from(delay_pm) / 1000.0,
        );
        let params = nqueens::QueensParams { n: 7, grain: 4 };
        let prog = nqueens::build(params);
        let want = prog
            .run_sim_preset(8, MachinePreset::NcubeLike)
            .take_result::<u64>()
            .expect("queens result");

        let plan = FaultPlan::new(fault_seed)
            .drop(drop_p)
            .duplicate(dup_p)
            .delay(delay_p, Cost::micros(150));
        let cfg = SimConfig::preset(8, MachinePreset::NcubeLike).with_faults(plan);
        let got = prog
            .with_reliable(rel_cfg())
            .run_sim(cfg)
            .take_result::<u64>()
            .expect("queens result under faults");
        prop_assert_eq!(want, got);
    }
}

#[test]
fn seeds_outrun_a_crashed_pe() {
    // Crash PE 3 at boot: seeds the balancer sends there are black-holed
    // by the machine, time out, and must be re-dispatched to live PEs —
    // through each placing strategy's own redirect choice. fib ends by
    // explicit exit (no all-PE reduction), so the answer must still be
    // exact.
    let params = fib::FibParams { n: 16, grain: 9 };
    for balance in [
        BalanceStrategy::Random,
        BalanceStrategy::acwn(),
        BalanceStrategy::CentralManager,
        BalanceStrategy::TokenIdle,
    ] {
        let name = balance.name();
        let prog = fib::build(params)
            .with_opts(|o| o.balance = balance)
            .with_reliable(ReliableConfig {
                timeout: Cost::micros(500),
                seed_retry_limit: 2,
                ..ReliableConfig::default()
            });
        let plan = FaultPlan::new(9).crash(Pe(3), SimTime::ZERO);
        let cfg = SimConfig::preset(NPES, MachinePreset::NcubeLike).with_faults(plan);
        let mut rep = prog.run_sim(cfg);
        assert_eq!(rep.take_result::<u64>(), Some(fib::fib_seq(16)), "{name}");
        assert!(
            rep.total().seeds_redirected > 0,
            "{name}: no seed was ever re-homed away from the crashed PE"
        );
    }
}
