//! Cross-application invariants: every benchmark, run at modest scale,
//! must satisfy the kernel's accounting laws — balanced send/receive
//! counters, zero dead letters, and sane backlog high-water marks.

use chare_kernel::prelude::*;
use chare_kernel::CkReport;
use ck_apps::registry::APPS;
use ck_apps::spec::Spec;

/// Every registered benchmark at its test scale.
fn all_programs() -> Vec<(&'static str, Spec)> {
    APPS.iter().map(|app| (app.name, Spec::parse(app.test_spec).expect(app.test_spec))).collect()
}

fn check(name: &str, rep: &CkReport) {
    // Exit discards in-flight messages, so sent >= recv; but no dead
    // letters and non-trivial execution are universal.
    let sent = rep.total().user_sent;
    let recv = rep.total().user_recv;
    assert!(sent >= recv, "{name}: recv {recv} > sent {sent}");
    assert!(
        sent - recv <= 8,
        "{name}: {} messages lost beyond the exit window",
        sent - recv
    );
    assert_eq!(rep.total().dead_letters, 0, "{name}");
    assert!(rep.total().entries_executed > 0, "{name}");
    // Something was enqueued somewhere.
    assert!(rep.total().queue_hwm >= 1, "{name}");
}

#[test]
fn accounting_invariants_hold_for_every_app() {
    for (name, spec) in all_programs() {
        let rep = spec.build().run_sim_preset(6, MachinePreset::NcubeLike);
        check(name, &rep);
        // The descriptor's own claims: the answer is the oracle's and
        // the run ends the way `ends_by_qd` says.
        let got = spec.answer(&rep).unwrap_or_else(|| panic!("{name}: no answer"));
        assert!(got.matches(spec.oracle(6)), "{name}: {got} vs oracle {}", spec.oracle(6));
        assert_eq!(
            rep.total().qd_declares,
            spec.app.qd_declares(&rep),
            "{name}: quiescence declarations"
        );
    }
}

#[test]
fn invariants_hold_at_one_pe() {
    for (name, spec) in all_programs() {
        let rep = spec.build().run_sim_preset(1, MachinePreset::NcubeLike);
        check(name, &rep);
    }
}

#[test]
fn utilization_and_imbalance_are_sane() {
    for (name, spec) in all_programs() {
        let rep = spec.build().run_sim_preset(4, MachinePreset::NcubeLike);
        let sim = rep.sim.as_ref().expect("sim detail");
        assert!(
            sim.utilization > 0.0 && sim.utilization <= 1.0,
            "{name}: utilization {}",
            sim.utilization
        );
        assert!(
            sim.imbalance >= 1.0 - 1e-9 && sim.imbalance <= 4.0 + 1e-9,
            "{name}: imbalance {} out of [1, P]",
            sim.imbalance
        );
        assert!(!sim.quiesced, "{name}: programs end with exit, not quiescence");
    }
}
