//! Machine independence: every benchmark produces the same answer on
//! the discrete-event simulator, the real thread backend, and the
//! multi-process socket backend — the paper's core portability claim,
//! exercised end-to-end.
//!
//! [`every_app_conforms_on_every_backend`] is the contract: it
//! enumerates the `ck_apps` registry, so a new benchmark is covered the
//! moment it is registered — on all three backends, with no exception
//! list: a program runs on procs iff every body it sends is registered,
//! and one that is not panics by name where it is first sent. The
//! per-app tests below it run the same check ([`conform`]) at a larger
//! scale or across unequal machine sizes; each names one app on purpose.
//!
//! Procs-backend workers re-enter the same test via
//! `ProcConfig::for_test`, so every test that reaches procs calls
//! `spec::worker_hook()` before anything else ([`conform`] does).

use charm_repro::ck_apps::registry::{Answer, APPS};
use charm_repro::ck_apps::spec::{self, Spec};
use charm_repro::ck_apps::{fib, nqueens, tablefill};
use charm_repro::prelude::*;
use chare_kernel::{CkReport, MsgClass, ProcConfig, TraceEvent};

/// Branch-and-bound and IDA* prune against a bound whose arrival time
/// depends on the schedule, so how many seeds they spawn does too — on
/// procs as on the other two, now that both run there: their answers are
/// held to the oracle on every backend, their seed totals to none.
const PRUNING: [&str; 2] = ["tsp", "puzzle"];

/// One spec at `npes` PEs on every backend: each answer must match the
/// serial oracle and (bit for bit where the answer is exact, to 1e-9
/// where it is a float sum) the simulator's, and every clean run must
/// satisfy the kernel's counter invariants. `test_name`
/// is the calling test's libtest name: the procs backend re-invokes the
/// test binary with `<test_name> --exact` per worker.
fn conform(test_name: &str, spec_str: &str, npes: usize) -> Vec<(&'static str, CkReport)> {
    spec::worker_hook();
    let spec = Spec::parse(spec_str).expect(spec_str);
    let reps =
        spec.run_backends(npes, &|npes, text| ProcConfig::for_test(npes, text, test_name));
    let backends: Vec<&str> = reps.iter().map(|(backend, _)| *backend).collect();
    assert_eq!(backends, ["sim", "threads", "procs"], "{spec_str}");
    let oracle = spec.oracle(npes);
    let answers: Vec<Answer> = reps
        .iter()
        .map(|(backend, rep)| {
            let got = spec.answer(rep).unwrap_or_else(|| panic!("{spec_str} on {backend}: no result"));
            assert!(got.matches(oracle), "{spec_str} on {backend}: {got} vs serial oracle {oracle}");
            assert_eq!(rep.counters.len(), npes, "{spec_str} on {backend}: counters of every PE");
            assert_counter_invariants(&spec, backend, rep);
            got
        })
        .collect();
    for ((backend, _), got) in reps.iter().zip(&answers) {
        assert!(got.matches(answers[0]), "{spec_str}: {backend} {got} vs sim {}", answers[0]);
    }
    // The seed total is schedule-independent too, except where the
    // search prunes; schedule-*dependent* counters (forwarding, work
    // stealing) legitimately differ and are not compared.
    if !PRUNING.contains(&spec.app.name) {
        let spawned: Vec<u64> = reps.iter().map(|(_, r)| r.total().seeds_spawned).collect();
        assert!(
            spawned.iter().all(|&s| s == spawned[0]),
            "{spec_str}: seed totals differ across backends: {spawned:?}"
        );
    }
    reps
}

/// Kernel invariants every clean run must satisfy, on every backend:
/// nothing left queued, the exactly-once seed ledger balances (chares
/// constructed == seeds spawned), and quiescence was declared exactly
/// as often as the app's descriptor says — once, by PE 0's coordinator,
/// iff the app ends by it (`App::qd_declares` has the one exception).
fn assert_counter_invariants(spec: &Spec, backend: &str, rep: &CkReport) {
    let total = rep.total();
    assert_eq!(total.backlog_end, 0, "{spec} on {backend}: work left behind");
    assert_eq!(
        total.seeds_spawned, total.chares_created,
        "{spec} on {backend}: seed ledger out of balance"
    );
    assert_eq!(
        total.qd_declares,
        spec.app.qd_declares(rep),
        "{spec} on {backend}: quiescence declarations"
    );
}

#[test]
fn every_app_conforms_on_every_backend() {
    for app in APPS {
        conform("every_app_conforms_on_every_backend", app.test_spec, 4);
    }
}

// ---- one app on purpose: unequal machine sizes --------------------------

/// The simulator at `sim.0` PEs under preset `sim.1` against the thread
/// backend at `threads` PEs: the answer must not depend on the machine.
fn agrees(spec_str: &str, sim: (usize, MachinePreset), threads: usize) {
    let spec = Spec::parse(spec_str).expect(spec_str);
    let prog = spec.build();
    let thr = prog.run_threads(threads);
    assert!(!thr.timed_out);
    let a = spec.answer(&prog.run_sim_preset(sim.0, sim.1)).expect("sim result");
    let b = spec.answer(&thr).expect("threads result");
    assert!(a.matches(b), "{spec_str}: sim {a} vs threads {b}");
    assert!(a.matches(spec.oracle(sim.0)), "{spec_str}: {a} vs serial oracle");
}

#[test]
fn fib_agrees_across_backends() {
    agrees("fib:n=19,grain=12", (4, MachinePreset::NcubeLike), 3);
}

#[test]
fn nqueens_agrees_across_backends() {
    agrees("nqueens:n=9,grain=5", (5, MachinePreset::IpscLike), 2);
}

#[test]
fn tsp_agrees_across_backends() {
    agrees("tsp:n=10,seed=9,seq_tail=5", (4, MachinePreset::NcubeLike), 4);
}

#[test]
fn puzzle_agrees_across_backends() {
    agrees("puzzle:scramble=18,seed=11,split_depth=3", (4, MachinePreset::NcubeLike), 2);
}

#[test]
fn jacobi_agrees_across_backends() {
    // Same partitioning (3 blocks), same summation structure per block;
    // the cross-block accumulator combine order may differ.
    agrees("jacobi:n=20,iters=9", (3, MachinePreset::NcubeLike), 3);
}

#[test]
fn primes_agrees_across_backends() {
    agrees("primes:limit=8000,chunks=12", (4, MachinePreset::SharedBusLike), 4);
}

// ---- one app on purpose: the conformance check at a larger scale --------

#[test]
fn conformance_fib() {
    conform("conformance_fib", "fib:n=18,grain=11", 4);
}

#[test]
fn conformance_nqueens() {
    conform("conformance_nqueens", "nqueens:n=8,grain=4", 4);
}

#[test]
fn conformance_primes() {
    conform("conformance_primes", "primes:limit=4000,chunks=12", 4);
}

#[test]
fn conformance_matmul() {
    // Integer-valued f64 arithmetic: checksums are exact.
    let reps = conform("conformance_matmul", "matmul:n=32", 4);
    let sums: Vec<f64> = reps.iter().map(|(_, r)| *r.result_ref::<f64>().unwrap()).collect();
    assert!(sums.iter().all(|s| s.to_bits() == sums[0].to_bits()), "{sums:?}");
}

#[test]
fn conformance_jacobi() {
    // Block partitioning is by PE index and each backend runs the same
    // npes, so per-block sums are bitwise identical; only the final
    // accumulator combine could differ (`Answer::matches`: 1e-9).
    conform("conformance_jacobi", "jacobi:n=24,iters=8", 4);
    // Under LIFO a neighbour's rows for two sweeps can be handled
    // newest first; each must still meet the sweep it belongs to.
    conform("conformance_jacobi", "jacobi:n=48,iters=20,q=lifo", 4);
    conform(
        "conformance_jacobi",
        "jconv:n=16,eps=0.001,max_iters=200,q=lifo",
        4,
    );
}

#[test]
fn conformance_mmr() {
    // The answer is the whole 128-bit root, matched exactly against
    // `mmr_root_seq` on every backend.
    conform("conformance_mmr", "mmr:leaves=300,grain=16,seed=7", 4);
}

#[test]
fn conformance_tablefill() {
    // The stage-completion profile is wall-clock on the real backends
    // and not part of the answer, but it must survive the wire whole.
    let spec_str = "tablefill:stages=3,blocks=8,rows=8,width=2,seed=5";
    for (backend, rep) in conform("conformance_tablefill", spec_str, 4) {
        let got = rep.result_ref::<tablefill::FillResult>().expect("fill result");
        assert_eq!(got.stage_done.len(), 3, "{spec_str} on {backend}: profile length");
    }
}

#[test]
fn conformance_procs_tcp_and_topologies() {
    // The same program over TCP loopback and a non-default logical
    // topology: transport and balancer neighborhoods must not change
    // the answer.
    spec::worker_hook();
    let spec_str = "fib:n=16,grain=10";
    let prog = spec::build_spec(spec_str);
    let want = fib::fib_seq(16);
    for (transport, topo) in [
        (chare_kernel::ProcTransport::Tcp, Topology::Ring),
        (chare_kernel::ProcTransport::Uds, Topology::FullyConnected),
    ] {
        let cfg = ProcConfig::for_test(3, spec_str, "conformance_procs_tcp_and_topologies")
            .with_transport(transport)
            .with_topology(topo);
        let mut rep = prog.run_procs(&cfg);
        let detail = rep.proc.as_ref().expect("detail");
        assert!(detail.aborted.is_none(), "{:?}", detail.aborted);
        assert_eq!(detail.transport, transport);
        assert_eq!(rep.take_result::<u64>(), Some(want));
    }
}

#[test]
fn run_options_set_on_the_parent_reach_every_worker() {
    // Reliable delivery, tracing, metrics and the topology are set here,
    // on the parent's `Program` and `ProcConfig`, and nowhere in the
    // spec the workers build from: they travel in `Go`. The report shows
    // each arrived — and that four workers' shards went through the one
    // merge into one log of each kind.
    spec::worker_hook();
    let spec_str = "fib:n=18,grain=10";
    let npes = 4;
    let reliable = ReliableConfig {
        window: 7,
        ..ReliableConfig::default()
    };
    let prog = spec::build_spec(spec_str)
        .with_reliable(reliable)
        .with_tracing(TraceConfig)
        .with_metrics(MetricsConfig);
    let cfg = ProcConfig::for_test(npes, spec_str, "run_options_set_on_the_parent_reach_every_worker")
        .with_topology(Topology::Ring);
    let mut rep = prog.run_procs(&cfg);
    let detail = rep.proc.as_ref().expect("detail");
    assert!(detail.aborted.is_none(), "{:?}", detail.aborted);
    assert_eq!(rep.take_result::<u64>(), Some(fib::fib_seq(18)));
    assert!(rep.total().acks_sent > 0, "reliable delivery reached the workers");

    let trace = rep.trace.as_ref().expect("tracing reached the workers");
    assert_eq!(trace.npes, npes);
    assert!(trace.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "stamp order");
    for pe in 0..npes {
        assert!(trace.events_for(Pe::from(pe)).count() > 0, "no events from PE {pe}");
    }
    // On a ring every PE has two neighbours, so a seed forwarded by the
    // balancer goes to rank ± 1; the default hypercube would also send
    // 0 ↔ 2 and 1 ↔ 3.
    for ev in &trace.events {
        if let EventKind::SeedForwarded { to, .. } = ev.kind {
            let gap = (ev.pe.index() + npes - to.index()) % npes;
            assert!(gap == 1 || gap == npes - 1, "PE {} forwarded to PE {}", ev.pe.index(), to.index());
        }
    }

    let metrics = rep.metrics.as_ref().expect("metrics reached the workers");
    assert_eq!(metrics.per_pe.len(), npes);
    assert!(metrics.per_pe.iter().all(|p| p.slices.len() == metrics.nslices()));
    let per_shard: u64 = metrics.per_pe.iter().map(|p| p.latency.count).sum();
    assert!(per_shard > 0);
    assert_eq!(metrics.latency_all().count, per_shard);
}

#[test]
fn sizes_at_the_top_of_their_range_hold() {
    // `validate` lets any nonzero timeout and window through, and `Go`
    // carries them and the batching thresholds as sent, so each must hold
    // at the top of its range. The timeout is added to the clock: every
    // deadline and alarm saturates at the end of time, and nothing is
    // retransmitted. The window, the seed budget and the thresholds are
    // only ever compared.
    spec::worker_hook();
    let spec_str = "fib:n=14,grain=8";
    let prog = spec::build_spec(spec_str).with_reliable(ReliableConfig {
        timeout: Cost(u64::MAX),
        seed_retry_limit: u32::MAX,
        window: u32::MAX,
    });
    let test_name = "sizes_at_the_top_of_their_range_hold";
    let sim = prog.run_sim_preset(3, MachinePreset::NcubeLike);
    let threads = prog.run_threads(3);
    assert!(!threads.timed_out);
    let cfg = ProcConfig::for_test(3, spec_str, test_name).with_batching(usize::MAX, usize::MAX);
    let procs = prog.run_procs(&cfg);
    let detail = procs.proc.as_ref().expect("detail");
    assert!(detail.aborted.is_none(), "{:?}", detail.aborted);
    for (backend, mut rep) in [("sim", sim), ("threads", threads), ("procs", procs)] {
        assert_eq!(rep.take_result::<u64>(), Some(fib::fib_seq(14)), "{backend}");
        assert!(rep.total().acks_sent > 0, "{backend}: reliable delivery ran");
        assert_eq!(rep.total().retransmits, 0, "{backend}");
    }
}

/// A traced run on 4 worker processes of `spec_str` as its text says,
/// except for what `parent_only` changes on the parent's `Program` —
/// which no worker's `CK_SPEC` build can know, so it only shows in the
/// report if the whole `RunOpts` travelled in `Go` and was installed
/// over the worker's own.
fn run_procs_with(
    test_name: &str,
    spec_str: &str,
    parent_only: impl FnOnce(&mut RunOpts),
) -> (Spec, CkReport) {
    spec::worker_hook();
    let spec = Spec::parse(spec_str).expect(spec_str);
    let prog = spec.build().with_tracing(TraceConfig).with_opts(parent_only);
    let rep = prog.run_procs(&ProcConfig::for_test(4, spec.to_string(), test_name));
    let detail = rep.proc.as_ref().expect("detail");
    assert!(detail.aborted.is_none(), "{:?}", detail.aborted);
    assert_eq!(spec.answer(&rep), Some(spec.oracle(4)), "{spec_str}");
    (spec, rep)
}

#[test]
fn a_balance_strategy_set_on_the_parent_overrides_the_spec_text() {
    // The text every worker builds from says ACWN; the parent says keep
    // every seed where it was created. Had the workers run what the
    // text says, the fib tree would have spread.
    let (spec, rep) = run_procs_with(
        "a_balance_strategy_set_on_the_parent_overrides_the_spec_text",
        "fib:n=18,grain=10",
        |o| o.balance = BalanceStrategy::Local,
    );
    assert!(spec.to_string().ends_with("bal=acwn:4/2"), "{spec}");
    assert_eq!(rep.total().seeds_forwarded, 0);
    let trace = rep.trace.as_ref().expect("traced");
    let forwarded = |ev: &&TraceEvent| matches!(ev.kind, EventKind::SeedForwarded { .. });
    assert_eq!(trace.events.iter().filter(forwarded).count(), 0);
    assert!(rep.total().seeds_kept > 100, "the tree was still built");
}

#[test]
fn a_broadcast_mode_set_on_the_parent_reaches_every_worker() {
    // Primes ends by quiescence detection, whose polls are kernel
    // broadcasts. No spec key spells the broadcast mode, so a worker
    // that ran only what its text says would send them down the
    // spanning tree, as `TreeCast` envelopes of class `Broadcast`.
    let (_, rep) = run_procs_with(
        "a_broadcast_mode_set_on_the_parent_reaches_every_worker",
        "primes:limit=2000,chunks=8",
        |o| o.bcast = BroadcastMode::Direct,
    );
    assert_eq!(rep.total().qd_declares, 1);
    let trace = rep.trace.as_ref().expect("traced");
    let sends = |class| {
        let sent = |ev: &&TraceEvent| matches!(ev.kind, EventKind::MsgSend { class: c, .. } if c == class);
        trace.events.iter().filter(sent).count()
    };
    assert_eq!(sends(MsgClass::Broadcast), 0, "no tree-cast envelope on any PE");
    assert!(sends(MsgClass::Qd) >= 3, "the polls went out, one envelope per peer");
}

#[test]
fn oversubscribed_thread_machine_works() {
    // 16 PE threads on however few cores this host has: correctness
    // must not depend on real parallelism.
    let prog = nqueens::build(nqueens::QueensParams { n: 8, grain: 4 }).with_opts(|o| {
        o.queueing = QueueingStrategy::IntPriority;
        o.balance = BalanceStrategy::TokenIdle;
    });
    let mut rep = prog.run_threads(16);
    assert!(!rep.timed_out);
    assert_eq!(rep.take_result::<u64>(), Some(92));
}

#[test]
fn a_recording_run_measures_message_latency_on_both_real_backends() {
    // The real backends read the clock for packet stamps only when the
    // node records (`NodeProgram::stamps`); a recording node still gets
    // them, so its latency histogram has samples and some took time.
    spec::worker_hook();
    let spec_str = "fib:n=16,grain=8";
    let prog = spec::build_spec(spec_str).with_metrics(MetricsConfig);
    let threads = prog.run_threads(2);
    assert!(!threads.timed_out);
    let test_name = "a_recording_run_measures_message_latency_on_both_real_backends";
    let procs = prog.run_procs(&ProcConfig::for_test(2, spec_str, test_name));
    let detail = procs.proc.as_ref().expect("detail");
    assert!(detail.aborted.is_none(), "{:?}", detail.aborted);
    for (backend, rep) in [("threads", &threads), ("procs", &procs)] {
        let latency = rep.metrics.as_ref().expect("metrics were on").latency_all();
        assert!(latency.count > 0, "{backend}: no message latency recorded");
        assert!(latency.sum > 0, "{backend}: every latency read 0, so nothing was stamped");
    }
}

#[test]
fn no_procs_message_arrives_before_it_was_sent() {
    // Every worker counts from the parent's `Start`, so a send stamp and
    // an arrival stamp compare across processes. Links are FIFO, and
    // combining, reliable delivery and loss are off, so the k-th envelope
    // PE q posts to PE p is the k-th that p receives from q, if it
    // arrives before the stop; each PE's events are in the order it
    // recorded them.
    spec::worker_hook();
    let spec_str = "fib:n=16,grain=8";
    let prog = spec::build_spec(spec_str).with_tracing(TraceConfig);
    assert!(!prog.opts().combining && prog.opts().reliable.is_none());
    let test_name = "no_procs_message_arrives_before_it_was_sent";
    let rep = prog.run_procs(&ProcConfig::for_test(2, spec_str, test_name));
    let detail = rep.proc.as_ref().expect("detail");
    assert!(detail.aborted.is_none(), "{:?}", detail.aborted);
    let trace = rep.trace.as_ref().expect("traced");
    assert_eq!(trace.dropped, 0, "the ring wrapped");
    for (p, q) in [(Pe(0), Pe(1)), (Pe(1), Pe(0))] {
        let sent: Vec<u64> = trace
            .events
            .iter()
            .filter(|ev| ev.pe == q && matches!(ev.kind, EventKind::MsgSend { to, .. } if to == p))
            .map(|ev| ev.at_ns)
            .collect();
        let recv: Vec<u64> = trace
            .events
            .iter()
            .filter(|ev| ev.pe == p && matches!(ev.kind, EventKind::MsgRecv { from, .. } if from == q))
            .map(|ev| ev.at_ns)
            .collect();
        assert!(!recv.is_empty(), "{p} got nothing from {q}");
        assert!(recv.len() <= sent.len(), "{q} -> {p}: {} sent, {} received", sent.len(), recv.len());
        let early: Vec<u64> = sent.iter().zip(&recv).filter(|(s, r)| r < s).map(|(s, r)| s - r).collect();
        assert!(
            early.is_empty(),
            "{} of {} arrivals at {p} from {q} are stamped before their send, by up to {} ns",
            early.len(),
            recv.len(),
            early.iter().max().unwrap()
        );
    }
}
