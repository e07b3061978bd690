//! Recording must observe, never perturb — and record once.
//!
//! The kernel's recorders (the event ring behind the Projections-style
//! views and the flight recorder; the streaming slices, histograms and
//! watermarks) are passive: no messages, no charged time, no
//! scheduling decisions. These tests pin that down on real benchmarks
//! for every recording configuration — trace, metrics, both — a
//! recorded run must be *byte-identical* to an unrecorded one; check
//! that what was recorded agrees with the kernel's own counters, which
//! are bumped by separate code; and check that the two recorders saw
//! the same events.

use std::collections::HashSet;

use chare_kernel::metrics::{MetricsConfig, FLIGHT_CAP, MAX_SLICES, SLICE_NS};
use chare_kernel::prelude::*;
use chare_kernel::{CkReport, MsgClass, TraceEvent};
use ck_apps::{fib, jacobi, nqueens, primes};
use multicomputer::SimTime;

const NPES: usize = 8;

fn fib_prog() -> Program {
    fib::build(fib::FibParams { n: 16, grain: 9 })
}

fn run(prog: &Program) -> CkReport {
    prog.run_sim_preset(NPES, MachinePreset::NcubeLike)
}

/// `prog` recording a trace, metrics or both.
fn recording(prog: &Program, trace: bool, metrics: bool) -> Program {
    prog.with_opts(|o| {
        o.tracing = trace.then_some(TraceConfig);
        o.metrics = metrics.then_some(MetricsConfig);
    })
}

/// The three recording configurations.
fn recorders(prog: &Program) -> [(&'static str, Program); 3] {
    [
        ("trace", recording(prog, true, false)),
        ("metrics", recording(prog, false, true)),
        ("both", recording(prog, true, true)),
    ]
}

/// Recording on vs. off: identical completion time, simulator event
/// count, packet/byte totals and kernel counters. This is the
/// zero-perturbation guarantee — the analogue of the reliability
/// layer's zero-cost-off test.
#[test]
fn recording_on_is_byte_identical_to_recording_off() {
    let plain = fib_prog();
    let a = run(&plain);
    assert!(a.trace.is_none() && a.metrics.is_none());
    for (name, prog) in recorders(&plain) {
        let b = run(&prog);
        assert_eq!(a.time_ns, b.time_ns, "{name}");
        let (sa, sb) = (a.sim.as_ref().unwrap(), b.sim.as_ref().unwrap());
        assert_eq!(sa.events, sb.events, "{name}");
        assert_eq!(sa.packets, sb.packets, "{name}");
        assert_eq!(sa.bytes, sb.bytes, "{name}");
        assert_eq!(a.counters, b.counters, "{name}");
        assert_eq!(b.trace.is_some(), name != "metrics", "{name}");
        assert_eq!(b.metrics.is_some(), name != "trace", "{name}");
    }
}

/// A fixed configuration replays to the identical event log and the
/// identical metrics snapshot — slices, histograms, watermarks and
/// flight recorder all match.
#[test]
fn recorded_run_replays_identically() {
    let plain = nqueens::build(nqueens::QueensParams { n: 8, grain: 4 });
    for (name, prog) in recorders(&plain) {
        let (a, b) = (run(&prog), run(&prog));
        if let (Some(ta), Some(tb)) = (&a.trace, &b.trace) {
            assert_eq!(ta.events.len(), tb.events.len(), "{name}");
            assert_eq!(ta.dropped, tb.dropped, "{name}");
            assert_eq!(ta.events, tb.events, "{name}");
        }
        assert_eq!(a.metrics, b.metrics, "{name}");
    }
}

/// The flight recorders, [`FLIGHT_CAP`] events each, overflow
/// gracefully: newest events are kept, the drop counts say how many
/// were lost, and the run's results are untouched.
#[test]
fn tiny_rings_drop_oldest_but_never_perturb() {
    let plain = fib_prog();
    let a = run(&plain);
    for (name, prog) in recorders(&plain) {
        let b = run(&prog);
        assert_eq!(a.time_ns, b.time_ns, "{name}: overflow must not change the run");
        if let Some(log) = &b.metrics {
            assert!(log.flight_dropped() > 0, "{name}: flight recorders must overflow on fib");
            for pe in &log.per_pe {
                assert!(pe.flight.len() <= FLIGHT_CAP, "{name}");
                // What survives is each PE's newest tail, in time order.
                for w in pe.flight.windows(2) {
                    assert!(w[0].at_ns <= w[1].at_ns);
                }
            }
            // The machine-wide tail is globally time-ordered.
            let tail = log.flight_tail(20);
            assert!(!tail.is_empty());
            for w in tail.windows(2) {
                assert!(w[0].at_ns <= w[1].at_ns);
            }
        }
    }
}

/// Whether `class` is always counted as user traffic by the quiescence
/// counters. (A `Broadcast` is counted or not per cast; the runs below
/// send none.)
fn counted(class: MsgClass) -> bool {
    matches!(
        class,
        MsgClass::Seed | MsgClass::Chare | MsgClass::Branch | MsgClass::Shared
    )
}

/// `MsgSend` / `MsgRecv` events of counted classes, which must equal
/// the `user_sent` / `user_recv` counters.
fn counted_traffic(log: &TraceLog) -> (u64, u64) {
    assert_eq!(
        log.count(|k| matches!(k, EventKind::MsgSend { class: MsgClass::Broadcast, .. })),
        0,
        "a broadcast's class does not say whether it is counted"
    );
    let sends = log.count(|k| matches!(k, EventKind::MsgSend { class, .. } if counted(*class)));
    let recvs = log.count(|k| matches!(k, EventKind::MsgRecv { class, .. } if counted(*class)));
    (sends, recvs)
}

/// The log agrees with the kernel's own books: one EntryBegin/EntryEnd
/// pair per counted entry execution, one record of every seed placement
/// decision, and one send/receive event per counted user message.
#[test]
fn event_log_agrees_with_kernel_counters() {
    let rep = run(&fib_prog().with_tracing(TraceConfig));
    let log = rep.trace.as_ref().unwrap();
    assert_eq!(log.dropped, 0, "default capacity must hold this workload");
    let begins = log.count(|k| matches!(k, EventKind::EntryBegin { .. }));
    let ends = log.count(|k| matches!(k, EventKind::EntryEnd { .. }));
    assert_eq!(begins, ends);
    assert_eq!(begins, rep.total().entries_executed);
    let kept = log.count(|k| matches!(k, EventKind::SeedKept { .. }));
    let fwd = log.count(|k| matches!(k, EventKind::SeedForwarded { .. }));
    assert_eq!(kept, rep.total().seeds_kept);
    assert_eq!(fwd, rep.total().seeds_forwarded);
    let (sends, recvs) = counted_traffic(log);
    assert!(sends > 0 && recvs > 0);
    assert_eq!(sends, rep.total().user_sent);
    assert_eq!(recvs, rep.total().user_recv);
}

/// The streaming aggregates agree with the kernel's own books: one
/// grain sample per counted entry execution, per-slice seed totals
/// matching the balance counters, and one latency sample per received
/// envelope.
#[test]
fn metrics_agree_with_kernel_counters() {
    let rep = run(&fib_prog().with_metrics(MetricsConfig));
    let log = rep.metrics.as_ref().unwrap();
    assert_eq!(log.grain_all().count, rep.total().entries_executed);
    let mut kept = 0u64;
    let mut fwd = 0u64;
    let mut recv = 0u64;
    for pe in &log.per_pe {
        for s in &pe.slices {
            kept += s.seeds_kept;
            fwd += s.seeds_forwarded;
            recv += s.msgs_recv;
        }
    }
    assert_eq!(kept, rep.total().seeds_kept);
    assert_eq!(fwd, rep.total().seeds_forwarded);
    // One latency sample per received envelope — the histogram and the
    // slice counters fold the same event.
    assert_eq!(log.latency_all().count, recv);
    assert!(recv > 0);
    assert!(log.queue_hwm_max() > 0, "fib must queue work somewhere");
}

/// Busy time never exceeds the time that existed: every slice's
/// work+dispatch+control fits its interval, and the whole run's busy
/// total fits PEs × end time.
#[test]
fn slice_busy_time_is_bounded_by_the_interval() {
    let rep = run(&fib_prog().with_metrics(MetricsConfig));
    let log = rep.metrics.as_ref().unwrap();
    assert!(log.nslices() > 1, "default width must resolve this run");
    let mut total_busy = 0u64;
    for pe in &log.per_pe {
        for (i, s) in pe.slices.iter().enumerate() {
            assert!(
                s.busy_ns() <= log.width_ns,
                "PE {} slice {i}: busy {} > width {}",
                pe.pe.index(),
                s.busy_ns(),
                log.width_ns
            );
            total_busy += s.busy_ns();
        }
    }
    assert!(total_busy > 0);
    assert!(total_busy <= log.end_ns * log.npes as u64);
}

/// On a real backend nothing is charged and the clock runs, where on the
/// simulator everything is charged and the clock stands still inside a
/// step: both are the one sum the node attributes, so a threads run's
/// slices no longer read all-idle — and still claim no more time than
/// there was.
#[test]
fn a_real_backend_attributes_the_wall_time_its_steps_took() {
    let rep = fib_prog().with_metrics(MetricsConfig).run_threads(2);
    assert!(!rep.timed_out);
    let log = rep.metrics.as_ref().expect("metrics were on");
    assert_eq!((log.per_pe.len(), log.end_ns), (2, rep.time_ns));
    let mut work_ns = 0;
    for pe in &log.per_pe {
        let mut busy = chare_kernel::Slice::default();
        pe.slices.iter().for_each(|s| busy.merge(s));
        work_ns += busy.work_ns;
        assert!(busy.busy_ns() > 0, "PE {}: every slice reads idle: {busy:?}", pe.pe.index());
        assert!(
            busy.busy_ns() <= log.end_ns,
            "PE {}: busy {} ns of a {} ns run",
            pe.pe.index(),
            busy.busy_ns(),
            log.end_ns
        );
    }
    assert!(work_ns > 0, "some entry ran for a measurable time");
    assert!(log.grain_all().sum > 0, "and its grain is that time");
}

/// A run long enough to overflow the slice budget coarsens (doubles
/// width) instead of growing: the drained log stays within budget and
/// still covers the whole run.
#[test]
fn slice_budget_coarsens_instead_of_growing() {
    // One PE runs all of fib(20): longer than `MAX_SLICES` first-width
    // intervals.
    let prog = fib::build(fib::FibParams { n: 20, grain: 9 }).with_metrics(MetricsConfig);
    let rep = prog.run_sim_preset(1, MachinePreset::NcubeLike);
    let log = rep.metrics.as_ref().unwrap();
    assert!(log.width_ns > SLICE_NS, "width must have doubled");
    assert_eq!(log.width_ns % SLICE_NS, 0, "width stays a power-of-two multiple");
    assert!(log.nslices() <= MAX_SLICES);
    // Coverage: the last slice must reach the end of the run.
    assert!(log.nslices() as u64 * log.width_ns >= log.end_ns);
}

/// A step is recorded once, as one `Step` event: on the simulator each
/// PE's steps and alarms add up to the busy time the machine charged
/// it, to the nanosecond, and there is one user step per entry run.
/// Checked on fib, jacobi, primes, and fib under `Random` balancing
/// with reliable delivery over a lossy network (which runs alarms).
#[test]
fn steps_add_up_to_the_machines_busy_time() {
    let reliable = fib_prog()
        .with_opts(|o| o.balance = BalanceStrategy::Random)
        .with_reliable(ReliableConfig::default());
    let clean = SimConfig::preset(NPES, MachinePreset::NcubeLike);
    let lossy = clean.clone().with_faults(FaultPlan::new(0x5EED).drop(0.02));
    let runs = [
        ("fib", fib_prog(), clean.clone()),
        ("jacobi", jacobi::build(jacobi::JacobiParams { n: 32, iters: 4 }), clean.clone()),
        ("primes", primes::build(primes::PrimesParams { limit: 5_000, chunks: 16 }), clean),
        ("fib+random, reliable", reliable, lossy),
    ];
    for (name, prog, cfg) in runs {
        let lossy = cfg.fault.is_some();
        let rep = prog.with_tracing(TraceConfig).run_sim(cfg);
        assert!(rep.sim.as_ref().unwrap().aborted.is_none(), "{name}");
        assert_eq!(rep.total().retransmits > 0, lossy, "{name}: alarms retransmit iff lossy");
        let log = rep.trace.as_ref().unwrap();
        assert_eq!(log.dropped, 0, "{name}");
        let busy = &rep.sim.as_ref().unwrap().busy;
        for pe in Pe::all(NPES) {
            let steps: u64 = log
                .events_for(pe)
                .map(|e| match e.kind {
                    EventKind::Step { span_ns, .. } => span_ns,
                    _ => 0,
                })
                .sum();
            assert_eq!(steps, busy[pe.index()].as_nanos(), "{name}: PE {}", pe.index());
        }
        let user = log.count(|k| matches!(k, EventKind::Step { user: true, .. }));
        assert_eq!(user, rep.total().entries_executed, "{name}");
        // The simulator charges an alarm nothing, but records its step:
        // each retransmit is decided in one, stamped at its start.
        let ctl: HashSet<(Pe, u64)> = (log.events.iter())
            .filter(|e| matches!(e.kind, EventKind::Step { user: false, .. }))
            .map(|e| (e.pe, e.at_ns))
            .collect();
        let mut rxmits = log.events.iter().filter(|e| matches!(e.kind, EventKind::Retransmit { .. }));
        assert!(rxmits.all(|e| ctl.contains(&(e.pe, e.at_ns))), "{name}: a retransmit outside a step");
    }
}

/// Recorded once: with both recorders on and the trace ring unwrapped,
/// each PE's flight recorder is the tail of that PE's trace — the same
/// events, in the same order, with the same stamps. Checked here on the
/// simulator, where fib overflows the flight recorders; that the flight
/// recorder is the ring's tail on every backend is `probe`'s
/// construction test.
#[test]
fn flight_recorder_is_the_tail_of_the_trace() {
    let rep = run(&recording(&fib_prog(), true, true));
    let (trace, metrics) = (rep.trace.as_ref().unwrap(), rep.metrics.as_ref().unwrap());
    assert_eq!(trace.dropped, 0, "the trace ring must hold the run");
    assert!(metrics.flight_dropped() > 0);
    for set in &metrics.per_pe {
        // The log is stably time-sorted; sort the flight recorder the same way.
        let mut flight = set.flight.clone();
        flight.sort_by_key(|e| e.at_ns);
        let of_pe: Vec<TraceEvent> = trace.events_for(set.pe).copied().collect();
        assert!(!flight.is_empty() && flight.len() <= of_pe.len());
        let tail = &of_pe[of_pe.len() - flight.len()..];
        if let Some(i) = (0..flight.len()).find(|&i| flight[i] != tail[i]) {
            let (pe, got, want) = (set.pe.index(), flight[i], tail[i]);
            panic!("PE {pe}: flight[{i}] is {got:?} where the trace has {want:?}");
        }
    }
}

/// The reliable layer's events agree with the books too. Both runs are
/// fib under `Random` balancing with reliable delivery and both
/// recorders on: one over a lossy network, one with a PE crashed at
/// boot so seeds bound for it are re-homed.
#[test]
fn retransmits_and_redirects_agree_with_kernel_counters() {
    let prog = fib::build(fib::FibParams { n: 16, grain: 9 })
        .with_opts(|o| o.balance = BalanceStrategy::Random)
        .with_reliable(ReliableConfig {
        timeout: Cost::micros(500),
        seed_retry_limit: 2,
        ..ReliableConfig::default()
    });
    let prog = recording(&prog, true, true);
    let lossy = FaultPlan::new(0xBAD_5EED).drop(0.05).duplicate(0.02);
    let crash = FaultPlan::new(9).crash(Pe(3), SimTime::ZERO);
    for (name, plan) in [("lossy", lossy), ("crash", crash)] {
        let cfg = SimConfig::preset(NPES, MachinePreset::NcubeLike).with_faults(plan);
        let mut rep = prog.run_sim(cfg);
        assert_eq!(rep.take_result::<u64>(), Some(fib::fib_seq(16)), "{name}");
        let (log, metrics) = (rep.trace.as_ref().unwrap(), rep.metrics.as_ref().unwrap());
        assert_eq!(log.dropped, 0, "{name}");

        let rxmit = log.count(|k| matches!(k, EventKind::Retransmit { .. }));
        let sliced: u64 = (0..metrics.nslices())
            .map(|i| metrics.slice_totals(i).retransmits)
            .sum();
        assert_eq!(rxmit, rep.total().retransmits, "{name}");
        assert_eq!(rxmit, sliced, "{name}");
        let redirects = log.count(|k| matches!(k, EventKind::SeedRedirected { .. }));
        assert_eq!(redirects, rep.total().seeds_redirected, "{name}");
        match name {
            "lossy" => assert!(rxmit > 0, "the fault plan never fired"),
            _ => assert!(redirects > 0, "no seed was re-homed off the crashed PE"),
        }

        // A redirect that settles the seed on the redirecting PE *is*
        // its delivery: `user_recv` moves, no envelope arrives.
        let settled = log
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SeedRedirected { to } if to == e.pe))
            .count() as u64;
        let (sends, recvs) = counted_traffic(log);
        assert_eq!(sends, rep.total().user_sent, "{name}");
        assert_eq!(recvs + settled, rep.total().user_recv, "{name}");
    }
}
