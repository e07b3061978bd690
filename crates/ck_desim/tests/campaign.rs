//! Acceptance tests for the simulation-testing campaign itself:
//! determinism (A/B), the all-oracles smoke campaign, minimizer
//! convergence on a planted violation, and quiescence-under-crash
//! through the shared oracle checker.

use ck_desim::{campaign, minimize, oracle, CampaignConfig, Violation};
use ck_desim::scenario::Scenario;
use multicomputer::{AbortReason, FaultClass, FaultPlan, SimTime};

/// The same campaign seed must reproduce the identical sequence of
/// scenarios, storms and per-run verdicts — the property that makes a
/// randomized campaign regressable at all.
#[test]
fn a_b_campaigns_are_identical() {
    let fingerprint = |seed: u64| -> Vec<(String, String, String, bool, bool, u64)> {
        (0..24)
            .map(|i| {
                let rec = campaign::run_one(seed, i, campaign::DEFAULT_MAX_EVENTS);
                (
                    rec.scenario.spec(),
                    rec.storm.spec(),
                    format!("{:?}", rec.violations),
                    rec.qd_used,
                    rec.gate_active,
                    rec.events,
                )
            })
            .collect()
    };
    let a = fingerprint(0xAB);
    let b = fingerprint(0xAB);
    assert_eq!(a, b, "same campaign seed, same everything");
    let c = fingerprint(0xAC);
    assert_ne!(
        a.iter().map(|r| &r.0).collect::<Vec<_>>(),
        c.iter().map(|r| &r.0).collect::<Vec<_>>(),
        "different campaign seed, different scenario sequence"
    );
}

/// Shards partition a campaign by index residue: the union of all
/// shards' records equals the unsharded campaign, record for record.
#[test]
fn shards_reassemble_into_the_whole_campaign() {
    let cfg = |shard| CampaignConfig {
        seed: 0x5AD,
        runs: 12,
        shard,
        max_events: campaign::DEFAULT_MAX_EVENTS,
    };
    let mut whole = Vec::new();
    campaign::run_campaign(&cfg((0, 1)), |rec| whole.push((rec.index, rec.storm.spec())));
    let mut merged = Vec::new();
    for k in 0..3 {
        campaign::run_campaign(&cfg((k, 3)), |rec| merged.push((rec.index, rec.storm.spec())));
    }
    merged.sort();
    assert_eq!(merged, whole);
}

/// The smoke campaign: every run inside the survivable envelope passes
/// every oracle, a healthy share of runs exercise quiescence detection
/// (activating the strict seed ledger), and crash storms appear.
#[test]
fn smoke_campaign_passes_all_oracles() {
    let cfg = CampaignConfig {
        seed: 1,
        runs: 120,
        shard: (0, 1),
        max_events: campaign::DEFAULT_MAX_EVENTS,
    };
    let mut crash_storms = 0u64;
    let summary = campaign::run_campaign(&cfg, |rec| {
        if rec.storm.classes().contains(&FaultClass::Crash) {
            crash_storms += 1;
        }
        assert!(
            rec.passed(),
            "run {} failed: {:?}\n  repro: {}",
            rec.index,
            rec.violations,
            rec.repro()
        );
    });
    assert!(summary.all_passed());
    assert_eq!(summary.attempted, 120);
    assert!(
        summary.qd_used > 120 / 3,
        "most non-fib runs detect quiescence; got {}",
        summary.qd_used
    );
    assert!(
        summary.gate_active > 120 / 3,
        "the strict seed ledger should gate a healthy share of runs; got {}",
        summary.gate_active
    );
    assert!(
        crash_storms >= 5,
        "crash scenarios (~1/8 of runs) should appear; got {crash_storms}"
    );
}

fn unprotected_nqueens() -> Scenario {
    Scenario::parse("app=nqueens:n=7,grain=4 npes=4 preset=ncube rel=none").unwrap()
}

/// Plant a known violation — an unprotected run under a multi-class
/// storm — and check the minimizer converges: the surviving plan is
/// drop-only, still fails, and removing that last class makes the run
/// pass (i.e. the minimum is genuine, not an artifact).
#[test]
fn minimizer_converges_on_a_planted_violation() {
    let sc = unprotected_nqueens();
    let storm = FaultPlan::new(0xDEAD)
        .drop(0.10)
        .duplicate(0.02)
        .delay(0.05, multicomputer::Cost::micros(100))
        .stall(multicomputer::Pe(2), SimTime(50_000), SimTime(500_000));
    let budget = 2_000_000;
    let min = minimize::minimize(&sc, &storm, budget);
    assert!(min.still_fails, "the planted violation must reproduce");
    assert_eq!(
        min.storm.classes(),
        vec![FaultClass::Drop],
        "minimization should strip every class but the causal one: {}",
        min.storm.spec()
    );
    assert!(
        min.probes < 60,
        "greedy minimization stays cheap; spent {} probes",
        min.probes
    );
    // The minimum still fails, and one step below it passes.
    let rec = campaign::execute(0, sc.clone(), min.storm.clone(), budget);
    assert!(!rec.passed(), "minimized storm must still reproduce");
    let calm = campaign::execute(0, sc, min.storm.without(FaultClass::Drop), budget);
    assert!(
        calm.passed(),
        "removing the causal class must make the run pass: {:?}",
        calm.violations
    );
}

/// Quiescence under a crashed PE, wired through the campaign's own
/// oracle checker:
///
/// * inside the recovery envelope (fib + Random placement + reliable
///   layer), the run completes after seed redirect and passes every
///   oracle;
/// * outside it (a QD-terminated accumulator app losing a PE), the run
///   either completes correctly or dies with the structured
///   `MaxEvents` abort — never a silent wrong answer, and never an
///   actual hang (the budget converts would-be hangs into aborts).
#[test]
fn quiescence_under_crash_is_structured() {
    // Envelope case: completes and passes all oracles.
    let sc = Scenario::parse("app=fib:n=15,grain=9,bal=random npes=8 preset=ncube rel=500/2/16")
        .unwrap();
    assert!(sc.crash_survivable());
    let want = sc.reference().expect("reference");
    let storm = FaultPlan::new(0xC4A5).drop(0.05).crash(multicomputer::Pe(2), SimTime::ZERO);
    let rep = sc.run(&storm, campaign::DEFAULT_MAX_EVENTS);
    let v = oracle::judge(&sc, &rep, want);
    assert!(v.is_empty(), "crash in the envelope must recover: {v:?}");

    // Out-of-envelope case: a QD app losing a PE must end structurally.
    let sc =
        Scenario::parse("app=nqueens:n=7,grain=4,bal=random npes=8 preset=ncube rel=500/2/16")
            .unwrap();
    let want = sc.reference().expect("reference");
    let budget = 2_000_000;
    let storm = FaultPlan::new(0xC4A6).crash(multicomputer::Pe(1), SimTime::ZERO);
    let rep = sc.run(&storm, budget);
    let v = oracle::judge(&sc, &rep, want);
    if !v.is_empty() {
        assert!(
            v.iter().all(|v| matches!(v, Violation::Hang { .. })),
            "a crashed QD run may only die as a structured hang: {v:?}"
        );
        let sim = rep.sim.as_ref().expect("simulator report");
        assert!(
            matches!(sim.aborted, Some(AbortReason::MaxEvents { .. })),
            "the hang must surface as a structured abort: {:?}",
            sim.aborted
        );
    }
    assert!(
        !v.iter().any(|v| matches!(v, Violation::WrongAnswer { .. })),
        "a crash must never produce a silently wrong answer: {v:?}"
    );
}
