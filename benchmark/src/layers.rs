//! The per-layer suite: each probe times calls into one layer's public
//! functions from outside, or reads a count that repeats exactly on the
//! simulator. Probes are grouped by the workload whose traced run hosts
//! them (the workload that exercises the layer); the README's
//! interaction table says which end-to-end metric each should move.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use chare_kernel::envelope::SysMsg;
use chare_kernel::prelude::*;
use chare_kernel::priority::BitPrio;
use chare_kernel::{pool, CkReport};
use multicomputer::{FnFactory, NetCtx, NodeProgram, Packet, SimMachine, StepKind, ThreadMachine};

use crate::apps::{self, pingpong, tableops};
use crate::catalogue::Metrics;
use crate::stats;
use crate::spans::Recorder;
use crate::workloads::{
    jacobi_probe, run_checked, AppRun, Backend, Cycle, KernelProfile, RunSample, NPES,
};

/// The simulated machine every simulator probe uses.
const SIM_PES: usize = 16;
/// The program behind the simulator counts: big enough to balance and
/// retransmit, small enough to rerun many times.
const SIM_FIB: &str = "fib:n=22,grain=12";

/// Time per unit of work: call `f` (which returns the units it did)
/// until `budget` has passed and at least three times, and take the
/// median of the per-call figures.
fn ns_per_unit(budget: Duration, mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let units = f();
        samples.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    stats::median(&samples).expect("at least three samples")
}

/// A token passed round a ring of PEs: the smallest node program there
/// is, so what it costs per hop is the machine layer alone.
struct Relay {
    pe: Pe,
    npes: usize,
    queue: VecDeque<Packet>,
    hops: u64,
}

impl NodeProgram for Relay {
    fn boot(&mut self, net: &mut dyn NetCtx) {
        if self.pe == Pe::ZERO {
            if self.hops == 0 {
                net.deposit(Box::new(0u64));
                net.stop();
            } else {
                net.send(Pe::from(1 % self.npes), 8, Box::new(1u64));
            }
        }
    }
    fn incoming(&mut self, pkt: Packet) {
        self.queue.push_back(pkt);
    }
    fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
        let pkt = self.queue.pop_front()?;
        let count = *pkt.payload.downcast::<u64>().expect("relay token");
        if count >= self.hops {
            net.deposit(Box::new(count));
            net.stop();
        } else {
            let next = (self.pe.index() + 1) % self.npes;
            net.send(Pe::from(next), 8, Box::new(count + 1));
        }
        Some(StepKind::User)
    }
    fn has_work(&self) -> bool {
        !self.queue.is_empty()
    }
}

fn relay(hops: u64) -> FnFactory<impl Fn(Pe, usize) -> Relay> {
    FnFactory(move |pe, npes| Relay {
        pe,
        npes,
        queue: VecDeque::new(),
        hops,
    })
}

/// Host nanoseconds per relay hop on `npes` threads.
fn thread_hop_ns(npes: usize, hops: u64, budget: Duration) -> f64 {
    ns_per_unit(budget, || {
        let mut rep = ThreadMachine::run(ThreadConfig::new(npes), &relay(hops));
        assert_eq!(rep.take_result::<u64>(), Some(hops), "relay lost its token");
        hops
    })
}

fn sim_cfg() -> SimConfig {
    SimConfig::preset(SIM_PES, MachinePreset::NcubeLike)
}

fn sim_fib(tune: impl FnOnce(Program) -> Program, cfg: SimConfig) -> CkReport {
    let mut rep = tune(apps::build(SIM_FIB)).run_sim(cfg);
    assert_eq!(
        rep.take_result::<u64>(),
        Some(ck_apps::fib::fib_seq(22)),
        "simulated fib gave a wrong answer"
    );
    rep
}

fn sim_events(rep: &CkReport) -> u64 {
    rep.sim.as_ref().expect("simulator run").events
}

/// `multicomputer::sim`, `chare_kernel::{pool, queueing, priority,
/// node, reliable, balance}`, `ck_trace`, `ck_desim`: the layers the
/// table regeneration runs on. Hosted by `tables_all`.
pub fn simulator_side(seed: u64, quick: bool, out: &mut Metrics) {
    let budget = Duration::from_millis(if quick { 30 } else { 150 });

    // sim: the event loop under a null node, then under the kernel.
    out.set(
        "sim.null_ns_per_event",
        ns_per_unit(budget, || {
            SimMachine::run_factory(sim_cfg(), &relay(20_000)).events
        }),
    );
    out.set(
        "sim.kernel_ns_per_event",
        ns_per_unit(budget, || sim_events(&sim_fib(|p| p, sim_cfg()))),
    );
    let plain = sim_fib(|p| p, sim_cfg());
    out.set("sim.events_fib16", sim_events(&plain) as f64);

    // pool: the two free lists a message crosses, and how often the
    // simulator's traffic is served from them.
    const POOL_OPS: u64 = 10_000;
    out.set(
        "pool.payload_reclaim_ns",
        ns_per_unit(budget, || {
            for _ in 0..POOL_OPS {
                let boxed = pool::payload(SysMsg::WorkNack)
                    .downcast::<SysMsg>()
                    .expect("pool payloads are envelopes");
                black_box(pool::reclaim(boxed));
            }
            POOL_OPS
        }),
    );
    out.set(
        "pool.batch_recycle_ns",
        ns_per_unit(budget, || {
            for _ in 0..POOL_OPS {
                pool::recycle_batch(black_box(pool::batch(8)));
            }
            POOL_OPS
        }),
    );
    let before = pool::stats();
    sim_fib(|p| p, sim_cfg());
    let after = pool::stats();
    let (hit, miss) = (
        (after.recycled - before.recycled) as f64,
        (after.allocated - before.allocated) as f64,
    );
    out.set("pool.hit_ratio", hit / (hit + miss).max(1.0));

    // queueing and priority (the retired criterion `queueing` bench).
    const QUEUE_OPS: u64 = 10_000;
    let drain = |q: &mut dyn chare_kernel::queueing::SchedQueue<u64>| {
        let mut sum = 0u64;
        while let Some(v) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        black_box(sum);
    };
    for strat in QueueingStrategy::ALL {
        out.set(
            format!("queue.{}.push_pop_ns", strat.name()),
            ns_per_unit(budget, || {
                let mut q = strat.make::<u64>();
                for i in 0..QUEUE_OPS {
                    q.push(Priority::Int((i % 64) as i64), i);
                }
                drain(q.as_mut());
                QUEUE_OPS
            }),
        );
    }
    let deep: Vec<Priority> = (0..QUEUE_OPS)
        .map(|i| {
            let mut p = BitPrio::root();
            for d in 0..12 {
                p = p.child(((i >> d) & 0xF) as u32, 4);
            }
            Priority::Bits(p)
        })
        .collect();
    out.set(
        "queue.bitvec-prio.deep_push_pop_ns",
        ns_per_unit(budget, || {
            let mut q = QueueingStrategy::BitvecPriority.make::<u64>();
            for (i, p) in deep.iter().enumerate() {
                q.push(p.clone(), i as u64);
            }
            drain(q.as_mut());
            QUEUE_OPS
        }),
    );
    let path = |shift: u32| {
        let mut p = BitPrio::root();
        for d in 0..24u32 {
            p = p.child((d + shift) % 8, 3);
        }
        p
    };
    out.set(
        "priority.child_ns",
        ns_per_unit(budget, || {
            for _ in 0..1000 {
                black_box(path(black_box(0)));
            }
            24_000
        }),
    );
    let (x, y) = (path(0), path(1));
    out.set(
        "priority.cmp_ns",
        ns_per_unit(budget, || {
            for _ in 0..10_000 {
                black_box(black_box(&x).cmp(black_box(&y)));
            }
            10_000
        }),
    );

    // node: host cost of a message that never leaves its PE, and of one
    // that crosses the simulated network.
    const SELF_SENDS: u64 = 100_000;
    out.set(
        "node.self_send_sim_host_ns",
        ns_per_unit(budget, || {
            let mut rep = apps::build(&format!("selfsend:count={SELF_SENDS}"))
                .run_sim_preset(1, MachinePreset::NcubeLike);
            assert_eq!(rep.take_result::<u64>(), Some(SELF_SENDS));
            SELF_SENDS
        }),
    );
    const ROUNDS: u64 = 20_000;
    out.set(
        "node.remote_msg_sim_host_ns",
        ns_per_unit(budget, || {
            let mut rep = apps::build(&format!("pingpong:rounds={ROUNDS},bytes=64,seed={seed}"))
                .run_sim_preset(2, MachinePreset::NcubeLike);
            let got = rep
                .take_result::<pingpong::PingResult>()
                .expect("ping result");
            assert_eq!((got.rtt_ns.len() as u64, got.corrupt), (ROUNDS, 0));
            2 * ROUNDS
        }),
    );

    // reliable: host cost of the frame path per user message, its ack
    // count, and retransmits under a 2% drop storm.
    let reliable = |p: Program| p.with_reliable(ReliableConfig::default());
    let user_msgs = plain.counter_total("user_recv").max(1);
    let host_ns = |tune: &dyn Fn(Program) -> Program| {
        ns_per_unit(budget, || {
            sim_fib(tune, sim_cfg());
            user_msgs
        })
    };
    out.set(
        "reliable.host_ns_per_frame",
        host_ns(&reliable) - host_ns(&|p| p),
    );
    out.set(
        "reliable.acks_sent",
        sim_fib(reliable, sim_cfg()).counter_total("acks_sent") as f64,
    );
    let storm = sim_cfg().with_faults(FaultPlan::new(seed).drop(0.02));
    out.set(
        "reliable.retransmits",
        sim_fib(reliable, storm).counter_total("retransmits") as f64,
    );

    // balance: exact seed-placement counts per strategy.
    let forwarded = plain.counter_total("seeds_forwarded") as f64;
    let kept = plain.counter_total("seeds_kept") as f64;
    out.set("balance.acwn.seeds_forwarded", forwarded);
    out.set(
        "balance.acwn.keep_ratio",
        kept / (kept + forwarded).max(1.0),
    );
    let random = {
        let mut rep = apps::build(&format!("{SIM_FIB},bal=random")).run_sim(sim_cfg());
        assert_eq!(rep.take_result::<u64>(), Some(ck_apps::fib::fib_seq(22)));
        rep
    };
    out.set(
        "balance.random.seeds_forwarded",
        random.counter_total("seeds_forwarded") as f64,
    );

    // The kernel's time split, which only the simulator charges today.
    let metered = sim_fib(|p| p.with_metrics(MetricsConfig::default()), sim_cfg());
    KernelProfile::of(&metered)
        .expect("metrics were on")
        .report(out);

    // ck_trace: analyse and export a fixed trace.
    let cfg = sim_cfg().with_trace();
    let cost = cfg.cost;
    let traced = sim_fib(|p| p.with_tracing(TraceConfig::default()), cfg);
    let run = ck_trace::RunTrace::from_report(&traced, &cost).expect("traced simulator run");
    let t = Instant::now();
    black_box((
        run.attribution(),
        run.entry_breakdown(),
        run.grain_histogram(),
        run.comm_matrix(),
        run.critical_path(),
    ));
    out.set("ck_trace.analyze_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let json = run.to_chrome_trace();
    out.set("ck_trace.chrome_export_ms", t.elapsed().as_secs_f64() * 1e3);
    ck_trace::json_lint::validate_export(&json, run.dropped).expect("kernel trace export lints");

    // ck_desim: the simulator under fault storms, with its oracles.
    let cfg = ck_desim::CampaignConfig {
        seed,
        runs: if quick { 50 } else { 500 },
        ..ck_desim::CampaignConfig::default()
    };
    let mut events = 0u64;
    let t = Instant::now();
    let summary = ck_desim::run_campaign(&cfg, |rec| events += rec.events);
    let secs = t.elapsed().as_secs_f64();
    assert!(
        summary.all_passed(),
        "desim campaign seed {seed}: {} of {} runs failed",
        summary.failures.len(),
        summary.attempted
    );
    out.set(
        "ck_desim.campaign_runs_per_s",
        summary.attempted as f64 / secs,
    );
    out.set("ck_desim.campaign_events", events as f64);
}

/// Run one of the benchmark's own specs on threads and hand back the
/// report, panicking on a watchdog (probes run no user input).
fn on_threads(spec: &str, npes: usize) -> CkReport {
    let rep = apps::build(spec).run_threads(npes);
    assert!(!rep.timed_out, "{spec} timed out on threads");
    rep
}

/// `multicomputer::thread`, `chare_kernel::{node, shared, metrics,
/// trace}` and the 1-PE app times. Hosted by `threads_fine`.
pub fn threads_side(cycle: &Cycle, quick: bool, out: &mut Metrics) {
    let budget = Duration::from_millis(if quick { 40 } else { 200 });
    out.set("thread.self_hop_ns", thread_hop_ns(1, 200_000, budget));
    // One cross-thread wake per hop: bimodal on a 2-vCPU VM, ungated.
    out.set("thread.hop_ns_p50", thread_hop_ns(NPES, 20_000, budget));

    const SENDS: u64 = 500_000;
    out.set(
        "node.self_send_ns",
        ns_per_unit(budget, || {
            let mut rep = on_threads(&format!("selfsend:count={SENDS}"), 1);
            assert_eq!(rep.take_result::<u64>(), Some(SENDS));
            SENDS
        }),
    );

    const OPS: u64 = 50_000;
    let mut table_ns = Vec::new();
    let mut acc_ns = Vec::new();
    for _ in 0..if quick { 3 } else { 7 } {
        let mut rep = on_threads(&format!("tableops:n={OPS}"), 1);
        let got = rep
            .take_result::<tableops::TableOpsResult>()
            .expect("tableops result");
        assert_eq!(
            (got.wrong, got.total),
            (0, OPS),
            "tableops lost an operation"
        );
        table_ns.push((got.put_ns + got.get_ns) as f64 / (2 * OPS) as f64);
        acc_ns.push(got.acc_ns as f64 / OPS as f64);
    }
    out.set(
        "shared.table_op_ns",
        stats::median(&table_ns).unwrap_or(0.0),
    );
    out.set("shared.acc_add_ns", stats::median(&acc_ns).unwrap_or(0.0));

    // The zero-grain stress row of BENCH_7: fib on one PE with each
    // recording switch on and off, interleaved.
    let fib = apps::build("fib:n=30,grain=12");
    let want = ck_apps::fib::fib_seq(30);
    let variants = [
        fib.clone(),
        fib.with_metrics(MetricsConfig::default()),
        fib.with_tracing(TraceConfig::default()),
    ];
    let mut times: [Vec<f64>; 3] = Default::default();
    for _ in 0..if quick { 3 } else { 11 } {
        for (prog, t) in variants.iter().zip(times.iter_mut()) {
            let mut rep = prog.run_threads(1);
            assert!(!rep.timed_out);
            assert_eq!(rep.take_result::<u64>(), Some(want));
            t.push(rep.time_ns as f64);
        }
    }
    let med = |i: usize| stats::median(&times[i]).expect("ran at least once");
    out.set("metrics.hook_overhead_pct", (med(1) / med(0) - 1.0) * 100.0);
    out.set("trace.hook_overhead_pct", (med(2) / med(0) - 1.0) * 100.0);

    one_pe_app_times(&cycle.runs, quick, out);
}

/// `apps.<app>.threads_p1_ms`: each thread-backend program of `runs` on
/// one PE.
fn one_pe_app_times(runs: &[AppRun], quick: bool, out: &mut Metrics) {
    for run in runs.iter().filter(|r| r.backend == Backend::Threads) {
        let mut ms = Vec::new();
        for _ in 0..if quick { 2 } else { 5 } {
            let mut rep = apps::build(&run.spec).run_threads(1);
            crate::workloads::verify(&run.check, &mut rep)
                .unwrap_or_else(|e| panic!("{} on 1 PE: {e}", run.spec));
            ms.push(rep.time_ns as f64 / 1e6);
        }
        out.set(
            format!("apps.{}.threads_p1_ms", run.label),
            stats::median(&ms).expect("ran at least once"),
        );
    }
}

/// Thread start-up, the 1-PE times of the coarse apps and the jacobi
/// probe. Hosted by `threads_coarse`: start-up is the only kernel cost
/// it can see.
pub fn coarse_side(cycle: &Cycle, quick: bool, out: &mut Metrics) {
    let budget = Duration::from_millis(if quick { 40 } else { 200 });
    out.set(
        "thread.spawn_join_us",
        ns_per_unit(budget, || {
            let rep = ThreadMachine::run(ThreadConfig::new(NPES), &relay(0));
            assert!(!rep.timed_out);
            1
        }) / 1e3,
    );
    one_pe_app_times(&cycle.runs, quick, out);

    // jacobi, the paper's iterative stencil, outside the gated cycle:
    // on 2 PEs it reads the shared host's cache and wake latency.
    let (jacobi, seq_ms) = jacobi_probe();
    let mut silent = Recorder::new("threads_coarse", false);
    let samples: Vec<RunSample> = (0..if quick { 2 } else { 9 })
        .map(|_| {
            run_checked(&jacobi, false, &mut silent).unwrap_or_else(|e| panic!("jacobi probe: {e}"))
        })
        .collect();
    let median_of = |field: fn(&RunSample) -> u64| {
        let v: Vec<f64> = samples.iter().map(|s| field(s) as f64).collect();
        stats::median(&v).expect("ran at least twice")
    };
    out.set("apps.jacobi.seq_ms", seq_ms);
    out.set("apps.jacobi.threads_p2_ms", median_of(|s| s.kernel_ns) / 1e6);
    out.set("apps.jacobi.user_msgs", median_of(|s| s.user_msgs));
    one_pe_app_times(std::slice::from_ref(&jacobi), quick, out);
}

#[derive(Clone, Copy)]
struct Small {
    a: u64,
    b: u32,
    c: u64,
    d: bool,
}
wire_struct!(Small { a, b, c, d });

/// Nanoseconds per call of `Wire::encode` into a reused buffer and of
/// `Wire::decode` from it.
fn wire_ns<T: Wire>(value: &T, budget: Duration) -> (f64, f64) {
    const CALLS: u64 = 64;
    let mut buf = Vec::new();
    let enc = ns_per_unit(budget, || {
        for _ in 0..CALLS {
            buf.clear();
            black_box(value).encode(&mut buf);
        }
        black_box(&buf);
        CALLS
    });
    let dec = ns_per_unit(budget, || {
        for _ in 0..CALLS {
            black_box(T::decode(&mut WireReader::new(black_box(&buf))));
        }
        CALLS
    });
    (enc, dec)
}

/// `chare_kernel::wire` on small frames and a 1-PE procs run. Hosted by
/// `procs_fine`.
pub fn procs_side(quick: bool, out: &mut Metrics) {
    let budget = Duration::from_millis(if quick { 20 } else { 100 });
    let small = Small {
        a: 0x0123_4567_89AB_CDEF,
        b: 42,
        c: 7,
        d: true,
    };
    let (enc, dec) = wire_ns(&small, budget);
    out.set("wire.small_encode_ns", enc);
    out.set("wire.small_decode_ns", dec);

    const SENDS: u64 = 200_000;
    let spec = format!("selfsend:count={SENDS}");
    let mut ns = Vec::new();
    for _ in 0..if quick { 1 } else { 3 } {
        let mut rep = apps::build(&spec).run_procs(&ProcConfig::new(1, spec.as_str()));
        assert!(
            rep.proc.as_ref().is_some_and(|p| p.aborted.is_none()),
            "{spec} aborted"
        );
        assert_eq!(rep.take_result::<u64>(), Some(SENDS));
        ns.push(rep.time_ns as f64 / SENDS as f64);
    }
    out.set(
        "proc.self_send_ns",
        stats::median(&ns).expect("ran at least once"),
    );
}

/// Bulk `wire` throughput and the transport variants of the ping-pong.
/// Hosted by `procs_pingpong`.
pub fn pingpong_side(seed: u64, quick: bool, out: &mut Metrics) {
    let budget = Duration::from_millis(if quick { 20 } else { 100 });
    const BULK: usize = 65_536;
    let (enc8, dec8) = wire_ns(&pingpong::payload(BULK as u32, seed), budget);
    let floats: Vec<f64> = (0..BULK / 8).map(|i| i as f64).collect();
    let (enc64, dec64) = wire_ns(&floats, budget);
    out.set(
        "wire.bulk_encode_ns_per_byte",
        (enc8 + enc64) / (2 * BULK) as f64,
    );
    out.set(
        "wire.bulk_decode_ns_per_byte",
        (dec8 + dec64) / (2 * BULK) as f64,
    );

    let rounds = if quick { 200 } else { 1000 };
    let spec = format!("pingpong:rounds={rounds},bytes=1024,seed={seed}");
    let rtt_us_p50 = |cfg: ProcConfig| {
        let mut rep = apps::build(&spec).run_procs(&cfg);
        assert!(
            rep.proc.as_ref().is_some_and(|p| p.aborted.is_none()),
            "{spec} aborted"
        );
        let got = rep
            .take_result::<pingpong::PingResult>()
            .expect("ping result");
        assert_eq!((got.rtt_ns.len(), got.corrupt), (rounds, 0));
        let rtts: Vec<f64> = got.rtt_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        stats::median(&rtts).expect("rounds >= 1")
    };
    out.set(
        "proc.rtt_unbatched_us_p50",
        rtt_us_p50(ProcConfig::new(NPES, spec.as_str()).with_batching(1, 1)),
    );
    out.set(
        "proc.tcp_rtt_us_p50",
        rtt_us_p50(ProcConfig::new(NPES, spec.as_str()).with_transport(ProcTransport::Tcp)),
    );
}

/// Chare creation at zero grain. Hosted by `grain_sweep`.
pub fn grain_side(seed: u64, quick: bool, out: &mut Metrics) {
    let budget = Duration::from_millis(if quick { 40 } else { 200 });
    const TASKS: u64 = 50_000;
    out.set(
        "node.create_destroy_ns",
        ns_per_unit(budget, || {
            let mut rep = on_threads(&format!("grain:n={TASKS},iters=0,seed={seed}"), 1);
            let got = rep
                .take_result::<apps::grain::GrainResult>()
                .expect("grain result");
            assert_eq!(got.tasks, TASKS);
            TASKS
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_unit_takes_three_samples_and_divides() {
        let mut calls = 0;
        let ns = ns_per_unit(Duration::ZERO, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
            2
        });
        assert_eq!(calls, 3);
        assert!(ns >= 1e6, "2 ms over 2 units is at least 1 ms each: {ns}");
    }

    #[test]
    fn relay_counts_hops_on_both_machines() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(2), &relay(10));
        assert_eq!(rep.take_result::<u64>(), Some(10));
        let mut rep = ThreadMachine::run(ThreadConfig::new(1), &relay(0));
        assert_eq!(rep.take_result::<u64>(), Some(0));
        let sim =
            SimMachine::run_factory(SimConfig::preset(4, MachinePreset::NcubeLike), &relay(12));
        assert_eq!(sim.result_as::<u64>(), Some(&12));
        assert!(sim.events >= 12);
    }

    #[test]
    fn small_wire_struct_round_trips() {
        let s = Small {
            a: 1,
            b: 2,
            c: 3,
            d: true,
        };
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let back = Small::decode(&mut WireReader::new(&buf));
        assert_eq!((back.a, back.b, back.c, back.d), (1, 2, 3, true));
        let (enc, dec) = wire_ns(&s, Duration::ZERO);
        assert!(enc > 0.0 && dec > 0.0);
    }

    #[test]
    fn grain_probe_reports_a_positive_cost() {
        let mut m = Metrics::default();
        grain_side(1, true, &mut m);
        assert!(m.get("node.create_destroy_ns") > 0.0);
    }
}
