//! The loss-shim acceptance suite: reliable delivery on the
//! multi-process backend driven against *real* (but seeded) socket
//! faults.
//!
//! The shim drops and reorders frames at the sender side of every data
//! link; the reliable layer's sequence numbers, acks, retransmits and
//! send windows must turn that into exactly-once in-order delivery.
//! "Exactly-once" is asserted through the kernel's own ledgers: a lost
//! seed shows up as a wrong answer (or a hang → watchdog), a duplicated
//! one as `chares_created > seeds_spawned`.
//!
//! The proptests at the bottom pin down the property that makes any of
//! this debuggable: a shim schedule is a pure function of
//! `(seed, src, dst)`, so a failing seeded run replays bit-for-bit.

use charm_repro::ck_apps::{fib, primes, spec};
use charm_repro::prelude::*;
use chare_kernel::proc::{loss_schedule, LossAction};
use chare_kernel::{KernelCounters, ProcConfig};
use proptest::prelude::*;

/// Reliable config for lossy-link runs: the 5 ms default timeout, a
/// modest window, and a generous seed-retry budget. The budget matters:
/// a seed whose acks are *all* lost can be redirected to another PE
/// while the original copy survives in flight — the one at-most-once
/// gap the cross-process seed ledger would catch. Thirty retries at
/// ≤10% loss puts that probability out of reach.
fn lossy_reliable() -> ReliableConfig {
    ReliableConfig {
        timeout: Cost::millis(5),
        seed_retry_limit: 30,
        window: 16,
    }
}

fn run_lossy(
    test_name: &str,
    spec_str: &str,
    npes: usize,
    permille: u16,
    shim_seed: u64,
) -> CkReport {
    let prog = spec::build_spec(spec_str).with_reliable(lossy_reliable());
    let cfg = ProcConfig::for_test(npes, spec_str, test_name)
        .with_loss(LossConfig::new(shim_seed, permille));
    let rep = prog.run_procs(&cfg);
    let detail = rep.proc.as_ref().expect("procs detail");
    assert!(
        detail.aborted.is_none(),
        "{spec_str} at {permille}‰ loss aborted: {}",
        detail.aborted.as_ref().unwrap()
    );
    assert!(!rep.timed_out, "{spec_str} at {permille}‰ loss timed out");
    rep
}

/// A wrong answer means a seed was lost or delivered twice; a ledger
/// imbalance pins which.
fn assert_exactly_once(rep: &CkReport, what: &str) {
    let total = rep.total();
    assert_eq!(total.backlog_end, 0, "{what}: work abandoned");
    assert_eq!(
        total.seeds_spawned,
        total.chares_created,
        "{what}: seed ledger out of balance (lost or duplicated delivery)"
    );
    // A CkExit-terminated run can halt while a late retransmit gap is
    // still open on some link; frames parked behind it are post-answer
    // stragglers (the answer assertions above prove nothing user-visible
    // was behind them). Parked arrivals are only a bug when no gap can
    // be open: a PE's reorder buffers wait on frames that other PEs
    // still hold unacknowledged, so arrivals parked on one PE while no
    // other PE has anything unacked are stranded. This must count
    // *every* unacked frame (`rel_unacked_end`), not only user-counted
    // ones (`rel_inflight_end`): under ACWN the gap is usually a lost
    // load report, and whatever parked behind it was acked on arrival.
    let per_pe = |field: fn(&KernelCounters) -> u64| -> Vec<u64> {
        rep.counters.iter().map(field).collect()
    };
    let (unacked, parked) = (per_pe(|c| c.rel_unacked_end), per_pe(|c| c.rel_reorder_end));
    let unacked_total: u64 = unacked.iter().sum();
    for pe in 0..parked.len() {
        assert!(
            parked[pe] == 0 || unacked_total > unacked[pe],
            "{what}: PE {pe} has arrivals parked behind a sequence gap that no other PE \
             can still fill; per PE, rel_inflight_end {:?} rel_unacked_end {unacked:?} \
             rel_reorder_end {parked:?}",
            per_pe(|c| c.rel_inflight_end)
        );
    }
}

#[test]
fn loss_exactly_once_primes() {
    spec::worker_hook();
    let spec_str = "primes:limit=3000,chunks=24";
    let want = primes::primes_seq(3000);
    // 1% and the acceptance-point 10%.
    for (permille, shim_seed) in [(10u16, 0xA11CE), (100u16, 0xB0B)] {
        let mut rep = run_lossy("loss_exactly_once_primes", spec_str, 4, permille, shim_seed);
        assert_eq!(
            rep.take_result::<u64>(),
            Some(want),
            "at {permille}‰ loss"
        );
        assert_exactly_once(&rep, spec_str);
        if permille >= 100 {
            // Enough traffic crosses the mesh that a 10% drop rate must
            // have forced retransmissions (and the duplicates they
            // create must have been discarded, not delivered).
            assert!(
                rep.total().retransmits > 0,
                "10% loss but no retransmits — shim not in the path?"
            );
        }
    }
}

#[test]
fn loss_exactly_once_fib_with_balancing() {
    // The adaptive tree under ACWN: seeds hop between PEs, so lost and
    // reordered frames hit the seed pool and the balancer, not just
    // chare messages. The answer and the ledger must still be exact.
    spec::worker_hook();
    let spec_str = "fib:n=17,grain=10,bal=acwn";
    let mut rep = run_lossy(
        "loss_exactly_once_fib_with_balancing",
        spec_str,
        4,
        100,
        0xF1B,
    );
    assert_eq!(rep.take_result::<u64>(), Some(fib::fib_seq(17)));
    assert_exactly_once(&rep, spec_str);
}

#[test]
fn loss_retransmits_bounded() {
    // Retransmissions must track the loss rate, not snowball: at 10%
    // drops a healthy run resends roughly one frame in ten (plus
    // backoff stragglers). Allowing 1x the user traffic leaves an order
    // of magnitude of headroom below a retransmit storm.
    spec::worker_hook();
    let spec_str = "primes:limit=3000,chunks=24";
    let rep = run_lossy("loss_retransmits_bounded", spec_str, 4, 100, 0xBEEF);
    let user = rep.total().user_sent;
    let retx = rep.total().retransmits;
    assert!(
        retx <= user + 200,
        "retransmit storm: {retx} retransmits for {user} user messages"
    );
}

#[test]
#[should_panic(expected = "reliable")]
fn loss_without_reliable_is_refused() {
    // Dropped frames with no retransmit layer would just hang the run
    // until the watchdog; the parent refuses the configuration outright.
    spec::worker_hook();
    let spec_str = "fib:n=10,grain=8";
    let prog = spec::build_spec(spec_str);
    let cfg = ProcConfig::for_test(2, spec_str, "loss_without_reliable_is_refused")
        .with_loss(LossConfig::new(1, 100));
    let _ = prog.run_procs(&cfg);
}

// ---- replay determinism of the fault schedule ---------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The schedule for a link is a pure function of (seed, src, dst):
    /// recomputing it — as every replay of a failing seeded run does —
    /// yields the identical decision sequence, and a longer look at the
    /// same link extends it without rewriting history.
    #[test]
    fn schedule_is_replay_deterministic(
        seed in any::<u64>(),
        drop in 0u16..400,
        reorder in 0u16..400,
        src in 0u32..16,
        dst in 0u32..16,
        n in 1usize..300,
    ) {
        let cfg = LossConfig { seed, drop_permille: drop, reorder_permille: reorder };
        let a = loss_schedule(&cfg, src, dst, n);
        let b = loss_schedule(&cfg, src, dst, n);
        prop_assert_eq!(&a, &b);
        let longer = loss_schedule(&cfg, src, dst, n * 2);
        prop_assert_eq!(&longer[..n], &a[..]);
    }

    /// Distinct seeds give distinct schedules (at fault rates high
    /// enough that agreement over 400 frames is astronomically
    /// unlikely), and the two directions of a PE pair are uncorrelated
    /// streams.
    #[test]
    fn schedule_varies_with_seed_and_direction(
        seed in any::<u64>(),
        src in 0u32..8,
        dst in 8u32..16,
    ) {
        let cfg = LossConfig { seed, drop_permille: 300, reorder_permille: 300 };
        let other = LossConfig { seed: seed ^ 0x5EED, ..cfg };
        prop_assert_ne!(
            loss_schedule(&cfg, src, dst, 400),
            loss_schedule(&other, src, dst, 400)
        );
        prop_assert_ne!(
            loss_schedule(&cfg, src, dst, 400),
            loss_schedule(&cfg, dst, src, 400)
        );
    }

    /// A zero-rate shim is a no-op: every frame delivers. (The procs
    /// backend relies on this to treat `loss: None` and a zero-rate
    /// config identically.)
    #[test]
    fn zero_rate_schedule_is_transparent(seed in any::<u64>(), n in 1usize..500) {
        let cfg = LossConfig { seed, drop_permille: 0, reorder_permille: 0 };
        prop_assert!(loss_schedule(&cfg, 0, 1, n)
            .into_iter()
            .all(|a| a == LossAction::Deliver));
    }
}
