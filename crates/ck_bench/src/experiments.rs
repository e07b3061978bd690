//! One function per table/figure of the reconstructed evaluation.
//!
//! Each function runs the relevant programs on the deterministic
//! simulator and returns a [`Table`]. Two scales are provided:
//! [`Scale::Quick`] keeps every experiment under a few seconds (used by
//! the test suite and `--quick`), [`Scale::Full`] is the paper-scale
//! configuration the committed `EXPERIMENTS.md` numbers come from.

use std::iter::once;

use chare_kernel::prelude::*;
use ck_apps::baseline::{kernel_pingpong, raw_jacobi, raw_pingpong};
use ck_apps::spec::Spec;
use ck_apps::{jacobi, mmr, puzzle, tablefill, tsp};
use ck_trace::{utilization_profile, RunTrace};
use multicomputer::{Cost, MachinePreset, SimConfig, SimTime};

use crate::runner::run_spec;
use crate::table::Table;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small instances, PE counts up to 32 — seconds, for tests.
    Quick,
    /// Paper-scale instances, PE counts up to 256.
    Full,
}

impl Scale {
    fn pes(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[1, 2, 4, 8, 16, 32],
            Scale::Full => &[1, 2, 4, 8, 16, 32, 64, 128, 256],
        }
    }

    /// The machine size of the ablations: Table 4 and Figures 2, 3, 6,
    /// 7 and 8.
    fn ablation_pes(self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Full => 64,
        }
    }
}

/// The nine benchmarks of the speedup tables at the given scale, as
/// registry specs. A spec's canonical string is also its memo label
/// ([`crate::runner::run_spec`]), so equal configurations reached from
/// different tables share one simulated run.
pub fn standard_suite(scale: Scale) -> Vec<Spec> {
    let specs: [&str; 9] = match scale {
        Scale::Quick => [
            "fib:n=24,grain=14",
            "nqueens:n=10,grain=6",
            "tsp:n=11,seed=7,seq_tail=6",
            "puzzle:scramble=52,seed=5,split_depth=7",
            "jacobi:n=128,iters=10",
            "matmul:n=96",
            "quad:tol=1e-8,grain=100",
            "sort:total_keys=48000,seed=12,sample_per_pe=16",
            "primes:limit=50000,chunks=128",
        ],
        Scale::Full => [
            "fib:n=30,grain=16",
            "nqueens:n=12,grain=7",
            "tsp:n=13,seed=7,seq_tail=7",
            "puzzle:scramble=52,seed=5,split_depth=9",
            "jacobi:n=256,iters=25",
            "matmul:n=192",
            "quad:tol=1e-11,grain=20",
            "sort:total_keys=1000000,seed=12,sample_per_pe=32",
            "primes:limit=400000,chunks=1024",
        ],
    };
    // The one place the tables deviate from the registry defaults: the
    // three search benchmarks place seeds at random, not by ACWN.
    let random = ["nqueens", "tsp", "puzzle"];
    specs
        .iter()
        .map(|s| {
            let spec = Spec::parse(s).expect("suite specs parse");
            if random.contains(&spec.app.name) {
                spec.with_balance(BalanceStrategy::Random)
            } else {
                spec
            }
        })
        .collect()
}

/// The suite's spec for the benchmark called `name`, if it has one.
pub fn suite_case(scale: Scale, name: &str) -> Option<Spec> {
    standard_suite(scale).into_iter().find(|c| c.app.name == name)
}

/// [`suite_case`] for a name the caller wrote itself.
pub(crate) fn case(scale: Scale, name: &str) -> Spec {
    suite_case(scale, name).expect("a suite benchmark")
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Host-measured cell (threads/procs wall-clock, host-scheduling-
/// dependent message counts): the only nondeterministic bytes in the
/// whole evaluation. The CI byte-identity diffs set
/// `CK_TABLES_REDACT_HOST=1` so `--all` output compares clean across
/// invocations; normal runs print the real measurement.
fn host_cell(value: String) -> String {
    let redact =
        std::env::var("CK_TABLES_REDACT_HOST").map(|v| v == "1").unwrap_or(false);
    if redact {
        "host".into()
    } else {
        value
    }
}

/// Table 1: benchmark characteristics on a 16-PE NCUBE-like machine.
pub fn table1(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 1: benchmark characteristics (16-PE simulated NCUBE-like hypercube)",
        [
            "program",
            "chares",
            "entries",
            "user msgs",
            "KB moved",
            "sim ms",
        ],
    );
    for case in standard_suite(scale) {
        let rep = run_spec(&case, 16, MachinePreset::NcubeLike);
        let bytes = rep.sim.as_ref().map(|s| s.bytes).unwrap_or(0);
        let total = rep.total();
        t.row(vec![
            case.app.name.into(),
            total.chares_created.to_string(),
            total.entries_executed.to_string(),
            total.user_sent.to_string(),
            format!("{:.0}", bytes as f64 / 1024.0),
            ms(rep.time_ns),
        ]);
    }
    t.note("default strategies per program; deterministic simulator run");
    t
}

/// The speedup sweep behind Tables 2, 3 and 7 and Figure 1: one row per
/// suite benchmark, its name and then T(1)/T(P) for each P in `pes`, on
/// `preset`.
fn speedups(preset: MachinePreset, scale: Scale, pes: &[usize]) -> Vec<Vec<String>> {
    let row = |case: &Spec| {
        let t1 = run_spec(case, 1, preset).time_ns as f64;
        let speedup = |&p: &usize| format!("{:.2}", t1 / run_spec(case, p, preset).time_ns as f64);
        once(case.app.name.to_string()).chain(pes.iter().map(speedup)).collect()
    };
    standard_suite(scale).iter().map(row).collect()
}

/// Speedup rows for one machine preset across PE counts.
fn speedup_table(title: &str, preset: MachinePreset, scale: Scale, pes: &[usize]) -> Table {
    let headers = pes.iter().map(|p| format!("P={p}"));
    let mut t = Table::new(title, once("program".to_string()).chain(headers));
    for row in speedups(preset, scale, pes) {
        t.row(row);
    }
    t.note(format!(
        "speedup = T(1)/T(P), simulated time on {preset:?}; T(1) includes kernel overhead"
    ));
    t
}

/// Table 2: speedups on the simulated nonshared-memory hypercube.
pub fn table2(scale: Scale) -> Table {
    speedup_table(
        "Table 2: speedup on the simulated NCUBE-like hypercube",
        MachinePreset::NcubeLike,
        scale,
        scale.pes(),
    )
}

/// Table 3: speedups on the simulated shared-bus machine (the
/// Sequent-class port). Bus machines of the era topped out well below
/// the hypercubes' PE counts.
pub fn table3(scale: Scale) -> Table {
    let pes: &[usize] = match scale {
        Scale::Quick => &[1, 2, 4, 8],
        Scale::Full => &[1, 2, 4, 8, 16, 24],
    };
    speedup_table(
        "Table 3: speedup on the simulated shared-bus multiprocessor",
        MachinePreset::SharedBusLike,
        scale,
        pes,
    )
}

/// Table 7: speedups on the second simulated nonshared-memory machine
/// (iPSC/2-like: higher software overhead, faster links) — the paper's
/// cross-machine portability evidence.
pub fn table7(scale: Scale) -> Table {
    speedup_table(
        "Table 7: speedup on the simulated iPSC-like hypercube",
        MachinePreset::IpscLike,
        scale,
        scale.pes(),
    )
}

/// Table 4: dynamic load balancing strategies on the adaptive tree
/// workloads.
pub fn table4(scale: Scale) -> Table {
    let npes = scale.ablation_pes();
    let strategies = [
        BalanceStrategy::Local,
        BalanceStrategy::Random,
        BalanceStrategy::CentralManager,
        BalanceStrategy::TokenIdle,
        BalanceStrategy::acwn(),
    ];
    let mut t = Table::new(
        format!("Table 4: load balancing strategies ({npes}-PE simulated hypercube)"),
        [
            "program",
            "strategy",
            "sim ms",
            "speedup",
            "imbalance",
            "seeds fwd",
        ],
    );
    for case in ["fib", "nqueens"].map(|name| case(scale, name)) {
        let local = case.with_balance(BalanceStrategy::Local);
        let t1 = run_spec(&local, 1, MachinePreset::NcubeLike).time_ns;
        for strat in &strategies {
            let rep = run_spec(&case.with_balance(strat.clone()), npes, MachinePreset::NcubeLike);
            let imb = rep.sim.as_ref().map(|s| s.imbalance).unwrap_or(f64::NAN);
            t.row(vec![
                case.app.name.into(),
                strat.name().into(),
                ms(rep.time_ns),
                format!("{:.2}", t1 as f64 / rep.time_ns as f64),
                format!("{imb:.2}"),
                rep.total().seeds_forwarded.to_string(),
            ]);
        }
    }
    t.note("imbalance = max PE busy time / mean (1.0 is perfect)");
    t
}

/// Table 5: queueing strategies and speculative search overhead.
pub fn table5(scale: Scale) -> Table {
    let npes = match scale {
        Scale::Quick => 8,
        Scale::Full => 16,
    };
    let mut t = Table::new(
        format!("Table 5: queueing strategy vs search overhead ({npes}-PE simulated hypercube)"),
        ["program", "queueing", "nodes", "vs seq", "sim ms"],
    );
    // Sequential node counts as the baseline.
    let (tsp, puzzle) = (case(scale, "tsp"), case(scale, "puzzle"));
    let p = tsp.params(tsp::params);
    let (_, tsp_seq_nodes) = tsp::tsp_seq(&tsp::TspInstance::random(p.n as usize, p.seed));
    let p = puzzle.params(puzzle::params);
    let (_, puz_seq_nodes) = puzzle::ida_seq(puzzle::scramble(p.scramble, p.seed));
    let expanded = |rep: &CkReport| match rep.result_ref::<tsp::TspResult>() {
        Some(r) => r.nodes,
        None => rep.result_ref::<puzzle::PuzzleResult>().expect("search result").nodes,
    };
    for (case, seq_nodes) in [(tsp, tsp_seq_nodes), (puzzle, puz_seq_nodes)] {
        for q in QueueingStrategy::ALL {
            let spec = case.with(q, BalanceStrategy::Random);
            let rep = run_spec(&spec, npes, MachinePreset::NcubeLike);
            let nodes = expanded(&rep);
            t.row(vec![
                case.app.name.into(),
                q.name().into(),
                nodes.to_string(),
                format!("{:.2}x", nodes as f64 / seq_nodes as f64),
                ms(rep.time_ns),
            ]);
        }
    }
    t.note(format!(
        "sequential baselines: tsp {tsp_seq_nodes} nodes, puzzle {puz_seq_nodes} nodes"
    ));
    t
}

/// Table 6: kernel overhead vs hand-coded message passing.
pub fn table6(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 6: kernel overhead vs hand-coded message passing (simulated NCUBE-like)",
        ["experiment", "hand-coded", "kernel", "ratio"],
    );
    let rounds = 500;
    for bytes in [0u32, 64, 1024] {
        let raw = raw_pingpong(rounds, bytes, MachinePreset::NcubeLike);
        let label = format!("pingpong:rounds={rounds}:bytes={bytes}");
        let kernel = crate::runner::run_preset(&label, 2, MachinePreset::NcubeLike, || {
            kernel_pingpong(rounds, bytes)
        })
        .time_ns;
        let per_raw = raw as f64 / (2 * rounds) as f64 / 1000.0;
        let per_k = kernel as f64 / (2 * rounds) as f64 / 1000.0;
        t.row(vec![
            format!("ping-pong {bytes}B (us/msg)"),
            format!("{per_raw:.1}"),
            format!("{per_k:.1}"),
            format!("{:.2}", per_k / per_raw),
        ]);
    }
    // At full scale this is the suite's jacobi, so these cells share
    // the suite's 4- and 8-PE runs.
    let spec = Spec::parse(match scale {
        Scale::Quick => "jacobi:n=64,iters=10",
        Scale::Full => "jacobi:n=256,iters=25",
    })
    .expect("jacobi spec");
    let params = spec.params(jacobi::params);
    for npes in [4usize, 8] {
        let (_, raw_t) = raw_jacobi(params, npes, MachinePreset::NcubeLike);
        let kernel_t = run_spec(&spec, npes, MachinePreset::NcubeLike).time_ns;
        t.row(vec![
            format!("jacobi {}^2 x{} P={npes} (ms)", params.n, params.iters),
            ms(raw_t),
            ms(kernel_t),
            format!("{:.2}", kernel_t as f64 / raw_t as f64),
        ]);
    }
    t.note("ratio = kernel / hand-coded; the envelope+scheduling tax");
    t
}

/// Figure 1: speedup curves (CSV series, one row per PE count) —
/// Table 2's sweep transposed, so after Table 2 it simulates nothing.
pub fn fig1(scale: Scale) -> Table {
    let sweep = speedups(MachinePreset::NcubeLike, scale, scale.pes());
    let mut t = Table::new(
        "Figure 1: speedup vs PE count (simulated NCUBE-like hypercube)",
        once("P").chain(sweep.iter().map(|row| row[0].as_str())),
    );
    for (i, p) in scale.pes().iter().enumerate() {
        t.row(once(p.to_string()).chain(sweep.iter().map(|row| row[i + 1].clone())).collect());
    }
    t
}

/// Figure 2: grain-size sensitivity of fib.
pub fn fig2(scale: Scale) -> Table {
    let npes = scale.ablation_pes();
    let (n, grains): (u32, &[u32]) = match scale {
        Scale::Quick => (24, &[8, 10, 12, 14, 16, 18, 20]),
        Scale::Full => (30, &[10, 12, 14, 16, 18, 20, 22, 24]),
    };
    let mut t = Table::new(
        format!("Figure 2: grain-size sensitivity, fib({n}) on {npes} PEs (simulated hypercube)"),
        ["grain", "chares", "sim ms", "speedup"],
    );
    for &grain in grains {
        // Registry-default strategies, like the suite's fib: the
        // suite-default grain shares runs with Tables 1/2/8, Figure 1.
        let spec = Spec::parse(&format!("fib:n={n},grain={grain}")).expect("fib spec");
        let t1 = run_spec(&spec, 1, MachinePreset::NcubeLike).time_ns;
        let rep = run_spec(&spec, npes, MachinePreset::NcubeLike);
        t.row(vec![
            grain.to_string(),
            rep.total().chares_created.to_string(),
            ms(rep.time_ns),
            format!("{:.2}", t1 as f64 / rep.time_ns as f64),
        ]);
    }
    t.note("too fine a grain drowns in per-message overhead; too coarse starves PEs");
    t
}

/// Figure 3: load evolution under random vs ACWN placement (sampled
/// per-PE backlog spread over time).
pub fn fig3(scale: Scale) -> Table {
    let npes = scale.ablation_pes();
    let queens = case(scale, "nqueens");
    let mut t = Table::new(
        format!("Figure 3: queue-length evolution, nqueens on {npes}-PE simulated hypercube"),
        [
            "strategy",
            "sample t(ms)",
            "max backlog",
            "mean backlog",
            "idle PEs",
        ],
    );
    for strat in [BalanceStrategy::Random, BalanceStrategy::acwn()] {
        let prog = queens.with_balance(strat.clone()).build();
        let cfg = SimConfig::preset(npes, MachinePreset::NcubeLike)
            .with_sampling(Cost::millis(1));
        let rep = prog.run_sim(cfg);
        let sim = rep.sim.as_ref().expect("sim detail");
        for s in sim.samples.iter().take(12) {
            t.row(vec![
                strat.name().into(),
                format!("{:.1}", s.at_ns as f64 / 1e6),
                s.max.to_string(),
                format!("{:.1}", s.mean()),
                s.idle.to_string(),
            ]);
        }
    }
    t.note("1 ms sampling; first 12 samples shown per strategy");
    t
}

/// Figure 4: search overhead vs PE count for TSP under FIFO vs
/// bitvector priorities (the speculative-work anomaly).
pub fn fig4(scale: Scale) -> Table {
    let tsp = case(scale, "tsp");
    let params = tsp.params(tsp::params);
    let pes: &[usize] = match scale {
        Scale::Quick => &[1, 4, 16],
        Scale::Full => &[1, 4, 16, 64],
    };
    let inst = tsp::TspInstance::random(params.n as usize, params.seed);
    let (_, seq_nodes) = tsp::tsp_seq(&inst);
    let mut t = Table::new(
        format!(
            "Figure 4: TSP search overhead vs P (n={}, sequential = {seq_nodes} nodes)",
            params.n
        ),
        ["P", "fifo nodes", "fifo ratio", "bitvec nodes", "bitvec ratio"],
    );
    // Bitvec + Random is tsp's suite configuration: those cells share
    // the speedup tables' runs.
    let fifo_tsp = tsp.with(QueueingStrategy::Fifo, BalanceStrategy::Random);
    for &p in pes {
        let fifo_rep = run_spec(&fifo_tsp, p, MachinePreset::NcubeLike);
        let fifo = *fifo_rep.result_ref::<tsp::TspResult>().expect("result");
        let prio_rep = run_spec(&tsp, p, MachinePreset::NcubeLike);
        let prio = *prio_rep.result_ref::<tsp::TspResult>().expect("result");
        t.row(vec![
            p.to_string(),
            fifo.nodes.to_string(),
            format!("{:.2}", fifo.nodes as f64 / seq_nodes as f64),
            prio.nodes.to_string(),
            format!("{:.2}", prio.nodes as f64 / seq_nodes as f64),
        ]);
    }
    t.note("ratio = parallel nodes expanded / sequential; 1.00 is no wasted speculation");
    t
}

/// Table 8: communication profile of every benchmark — message volume,
/// sizes and locality, the data behind the grain discussion.
pub fn table8(scale: Scale) -> Table {
    let npes = 16;
    let mut t = Table::new(
        format!("Table 8: communication profile ({npes}-PE simulated NCUBE-like hypercube)"),
        [
            "program",
            "packets",
            "avg B/pkt",
            "pkts/entry",
            "KB/PE",
            "peak backlog",
        ],
    );
    for case in standard_suite(scale) {
        let rep = run_spec(&case, npes, MachinePreset::NcubeLike);
        let sim = rep.sim.as_ref().expect("sim detail");
        let total = rep.total();
        let entries = total.entries_executed.max(1);
        t.row(vec![
            case.app.name.into(),
            sim.packets.to_string(),
            format!("{:.0}", sim.bytes as f64 / sim.packets.max(1) as f64),
            format!("{:.2}", sim.packets as f64 / entries as f64),
            format!("{:.0}", sim.bytes as f64 / npes as f64 / 1024.0),
            total.queue_hwm.to_string(),
        ]);
    }
    t.note("peak backlog = sum over PEs of each PE's backlog high-water mark");
    t
}

/// Figure 5 (ablation): spanning-tree vs direct broadcast. A
/// barrier-style program does `rounds` broadcast+gather cycles; the
/// per-round time isolates broadcast latency. The tree's O(log P)
/// advantage over the root-serialized O(P) loop grows with P.
pub fn fig5(scale: Scale) -> Table {
    use chare_kernel::BroadcastMode;

    let (rounds, pes): (u32, &[usize]) = match scale {
        Scale::Quick => (20, &[4, 16, 64]),
        Scale::Full => (20, &[4, 16, 64, 128, 256]),
    };
    let mut t = Table::new(
        format!("Figure 5 (ablation): broadcast mode, {rounds}-round broadcast/gather"),
        ["P", "direct us/round", "tree us/round", "tree gain"],
    );
    for &p in pes {
        let per_round = |mode: BroadcastMode| {
            let label = format!("sync:rounds={rounds}:mode={mode:?}");
            let rep = crate::runner::run_preset(&label, p, MachinePreset::NcubeLike, || {
                sync_rounds_program(rounds, mode)
            });
            rep.time_ns as f64 / rounds as f64 / 1000.0
        };
        let direct = per_round(BroadcastMode::Direct);
        let tree = per_round(BroadcastMode::Tree);
        t.row(vec![
            p.to_string(),
            format!("{direct:.1}"),
            format!("{tree:.1}"),
            format!("{:.2}x", direct / tree),
        ]);
    }
    t.note("broadcast+gather over a branch-office chare; NCUBE-like cost model");
    t.note("tree pays extra hop latency at small P, wins once root NIC serialization dominates");
    t
}

/// Barrier-style broadcast/gather microbenchmark used by `fig5`.
pub fn sync_rounds_program(rounds: u32, mode: chare_kernel::BroadcastMode) -> Program {
    use sync_rounds::*;
    let mut b = ProgramBuilder::new();
    let main = b.chare::<SyncMain>();
    let boc = b.boc::<SyncBranch>(());
    b.broadcast_mode(mode);
    b.main(main, SyncSeed { rounds, boc });
    b.build()
}

mod sync_rounds {
    use chare_kernel::prelude::*;

    pub const EP_ROUND: EpId = EpId(1);
    pub const EP_ACK: EpId = EpId(2);

    #[derive(Clone)]
    pub struct SyncSeed {
        pub rounds: u32,
        pub boc: Boc<SyncBranch>,
    }
    message!(SyncSeed);

    /// One round message (cloned per branch by the broadcast).
    #[derive(Clone, Copy)]
    pub struct RoundMsg {
        pub round: u32,
        pub main: ChareId,
    }
    message!(RoundMsg);

    pub struct SyncMain {
        rounds: u32,
        current: u32,
        acks: usize,
        boc: Boc<SyncBranch>,
    }

    impl SyncMain {
        fn launch(&mut self, ctx: &mut Ctx) {
            let me = ctx.self_id();
            ctx.broadcast_branch(
                self.boc,
                EP_ROUND,
                RoundMsg {
                    round: self.current,
                    main: me,
                },
            );
        }
    }

    impl ChareInit for SyncMain {
        type Seed = SyncSeed;
        fn create(seed: SyncSeed, ctx: &mut Ctx) -> Self {
            let mut main = SyncMain {
                rounds: seed.rounds,
                current: 0,
                acks: 0,
                boc: seed.boc,
            };
            main.launch(ctx);
            main
        }
    }

    impl Chare for SyncMain {
        fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            debug_assert_eq!(ep, EP_ACK);
            let round = cast::<u32>(msg);
            debug_assert_eq!(round, self.current);
            self.acks += 1;
            if self.acks == ctx.npes() {
                self.acks = 0;
                self.current += 1;
                if self.current == self.rounds {
                    ctx.exit(self.current);
                } else {
                    self.launch(ctx);
                }
            }
        }
    }

    pub struct SyncBranch;

    impl BranchInit for SyncBranch {
        type Cfg = ();
        fn create(_cfg: (), _ctx: &mut Ctx) -> Self {
            SyncBranch
        }
    }

    impl Branch for SyncBranch {
        fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            debug_assert_eq!(ep, EP_ROUND);
            let m = cast::<RoundMsg>(msg);
            ctx.send(m.main, EP_ACK, m.round);
        }
    }
}

/// Figure 6: utilization over time (the mini-Projections view) for
/// nqueens under random vs ACWN placement.
pub fn fig6(scale: Scale) -> Table {
    let npes = scale.ablation_pes();
    let queens = case(scale, "nqueens");
    const BUCKETS: usize = 10;
    let mut t = Table::new(
        format!("Figure 6: PE utilization over time, nqueens on {npes} PEs (10 slices)"),
        ["slice", "random mean%", "random max%", "acwn mean%", "acwn max%"],
    );
    let profile = |strategy: BalanceStrategy| {
        let prog = queens.with_balance(strategy).build().with_tracing(TraceConfig);
        let preset = MachinePreset::NcubeLike;
        let rep = prog.run_sim(SimConfig::preset(npes, preset));
        let run = RunTrace::from_report(&rep, &preset.cost_model()).expect("a traced run");
        utilization_profile(&run.spans, npes, run.end_ns, BUCKETS)
    };
    let rnd = profile(BalanceStrategy::Random);
    let acwn = profile(BalanceStrategy::acwn());
    for b in 0..BUCKETS {
        let stats = |row: &Vec<f64>| {
            let mean = row.iter().sum::<f64>() / row.len() as f64;
            let max = row.iter().cloned().fold(0.0f64, f64::max);
            (mean * 100.0, max * 100.0)
        };
        let (rm, rx) = stats(&rnd[b]);
        let (am, ax) = stats(&acwn[b]);
        t.row(vec![
            format!("{}", b + 1),
            format!("{rm:.0}"),
            format!("{rx:.0}"),
            format!("{am:.0}"),
            format!("{ax:.0}"),
        ]);
    }
    t.note("slices normalize each run to its own completion time");
    t
}

/// Figure 7 (ablation): ACWN parameters — hop budget and contraction
/// low-mark — on the fib tree.
pub fn fig7(scale: Scale) -> Table {
    let npes = scale.ablation_pes();
    let fib = case(scale, "fib");
    let mut t = Table::new(
        format!("Figure 7 (ablation): ACWN parameters, fib on {npes} PEs"),
        ["max_hops", "low_mark", "sim ms", "speedup", "seeds fwd"],
    );
    let local = fib.with_balance(BalanceStrategy::Local);
    let t1 = run_spec(&local, 1, MachinePreset::NcubeLike).time_ns;
    for max_hops in [1u32, 2, 4, 8] {
        for low_mark in [1u32, 2, 4] {
            let strat = BalanceStrategy::Acwn { max_hops, low_mark };
            let rep = run_spec(&fib.with_balance(strat), npes, MachinePreset::NcubeLike);
            t.row(vec![
                max_hops.to_string(),
                low_mark.to_string(),
                ms(rep.time_ns),
                format!("{:.2}", t1 as f64 / rep.time_ns as f64),
                rep.total().seeds_forwarded.to_string(),
            ]);
        }
    }
    t.note("max_hops = forwarding budget per seed; low_mark = keep-local backlog threshold");
    t
}

/// Figure 8 (ablation): message combining on the fine-grain tree
/// workloads — one software alpha per destination per step instead of
/// one per message.
pub fn fig8(scale: Scale) -> Table {
    let npes = scale.ablation_pes();
    let mut t = Table::new(
        format!("Figure 8 (ablation): message combining ({npes}-PE simulated hypercube)"),
        ["program", "combining", "sim ms", "packets", "avg B/pkt"],
    );
    for case in ["fib", "tsp", "sort", "primes"].map(|name| case(scale, name)) {
        for combining in [false, true] {
            // The combining-off arm is the suite configuration and
            // shares runs with the speedup tables.
            let label = crate::runner::scenario_label(&case, combining);
            let rep = crate::runner::run_preset(&label, npes, MachinePreset::NcubeLike, || {
                let prog = case.build();
                if combining {
                    prog.with_combining()
                } else {
                    prog
                }
            });
            let sim = rep.sim.as_ref().expect("sim detail");
            t.row(vec![
                case.app.name.into(),
                if combining { "on" } else { "off" }.into(),
                ms(rep.time_ns),
                sim.packets.to_string(),
                format!("{:.0}", sim.bytes as f64 / sim.packets.max(1) as f64),
            ]);
        }
    }
    t.note("combining batches all remote messages a handler produces, per destination");
    t.note("helps fine-grain scatter (primes); neutral for bulk (sort: big messages bypass batching); hurts speculative search (tsp: delayed bounds)");
    t
}

/// Table R: resilience under injected faults — completion time and
/// message overhead as the simulated network degrades, with the kernel's
/// reliable-delivery layer enabled. The faults are deterministic (seeded
/// PRNG), so every cell is reproducible.
pub fn table_r(scale: Scale) -> Table {
    let npes = 16;
    // The default timeout (5 ms) rides well above the loaded round trip
    // of every app here — sort's large records inflate the RTT the most
    // — so retransmissions repair real losses instead of chasing acks
    // that are merely queued behind a busy NIC.
    let rel = ReliableConfig {
        seed_retry_limit: 3,
        ..ReliableConfig::default()
    };
    // Drop-rate sweep, plus a mid-run PE stall on top of the 5% case.
    let cases: &[(&str, f64, bool)] = &[
        ("1% drop", 0.01, false),
        ("5% drop", 0.05, false),
        ("10% drop", 0.10, false),
        ("5% + stall", 0.05, true),
    ];
    let mut t = Table::new(
        format!("Table R: resilience under injected faults ({npes}-PE simulated NCUBE-like hypercube, reliable delivery on)"),
        [
            "program",
            "faults",
            "sim ms",
            "time x",
            "packets",
            "msg x",
            "retransmits",
            "dups dropped",
        ],
    );
    for case in ["fib", "nqueens", "jacobi", "sort"].map(|name| case(scale, name)) {
        let clean = run_spec(&case, npes, MachinePreset::NcubeLike);
        let clean_pkts = clean.sim.as_ref().expect("sim detail").packets;
        t.row(vec![
            case.app.name.into(),
            "none".into(),
            ms(clean.time_ns),
            "1.00".into(),
            clean_pkts.to_string(),
            "1.00".into(),
            "0".into(),
            "0".into(),
        ]);
        for &(label, drop, stall) in cases {
            let mut plan = FaultPlan::new(0xC4A11).drop(drop).duplicate(0.01);
            if stall {
                plan = plan.stall(Pe(5), SimTime(500_000), SimTime(2_000_000));
            }
            let cfg = SimConfig::preset(npes, MachinePreset::NcubeLike).with_faults(plan);
            let rep = case.build().with_reliable(rel).run_sim(cfg);
            let sim = rep.sim.as_ref().expect("sim detail");
            assert!(
                sim.aborted.is_none(),
                "{} aborted under {label}: {:?}",
                case.app.name,
                sim.aborted
            );
            t.row(vec![
                case.app.name.into(),
                label.into(),
                ms(rep.time_ns),
                format!("{:.2}", rep.time_ns as f64 / clean.time_ns as f64),
                sim.packets.to_string(),
                format!("{:.2}", sim.packets as f64 / clean_pkts as f64),
                rep.total().retransmits.to_string(),
                rep.total().dup_dropped.to_string(),
            ]);
        }
    }
    t.note("per-packet drop/duplicate probabilities; faults injected deterministically from a fixed seed");
    t.note("time x / msg x are ratios to the fault-free, reliability-off run of the same program");
    t.note("stall case additionally freezes PE 5 from 0.5 ms to 2.0 ms of simulated time");
    t.note(format!(
        "retransmit timeout {} us, seed retry budget {}",
        rel.timeout.as_nanos() / 1_000,
        rel.seed_retry_limit
    ));
    t
}

/// Table B: cross-backend conformance — the same three programs on the
/// event-driven simulator, the shared-memory threads backend, and the
/// multi-process socket backend, with answers asserted byte-identical
/// across all three before the table renders.
pub fn table_b(scale: Scale) -> Table {
    table_b_cfg(scale, &|npes, spec| ProcConfig::new(npes, spec))
}

/// [`table_b`] with an explicit `ProcConfig` constructor: the `tables`
/// binary uses the plain binary re-invocation contract
/// (`ProcConfig::new`), while the unit test routes worker re-invocation
/// through the test harness (`ProcConfig::for_test`).
pub fn table_b_cfg(scale: Scale, proc_cfg: &dyn Fn(usize, &str) -> ProcConfig) -> Table {
    let npes = 4;
    let specs: [&str; 3] = match scale {
        Scale::Quick => ["fib:n=18,grain=11", "jacobi:n=24,iters=8", "matmul:n=32"],
        Scale::Full => ["fib:n=22,grain=12", "jacobi:n=48,iters=12", "matmul:n=64"],
    };
    let mut t = Table::new(
        format!(
            "Table B: cross-backend conformance ({npes} PEs: simulator / threads / processes)"
        ),
        ["program", "backend", "answer", "time ms", "user msgs"],
    );
    for spec in specs.map(|s| Spec::parse(s).expect("table B spec")) {
        let name = spec.app.name;
        // An `Answer` prints floats in their shortest round-trip form:
        // two answers print identically iff they are bit-identical.
        let answer = |rep: &CkReport| spec.answer(rep).expect("result").to_string();
        let reps = spec.run_backends(npes, proc_cfg);
        let want = answer(&reps[0].1);
        for (backend, rep) in &reps {
            let got = answer(rep);
            assert_eq!(got, want, "{name}: {backend} answer diverges from sim");
            let time = ms(rep.time_ns);
            let msgs = rep.total().user_sent.to_string();
            let (time, msgs) = if *backend == "sim" {
                (time, msgs)
            } else {
                (host_cell(time), host_cell(msgs))
            };
            t.row(vec![name.into(), (*backend).into(), got, time, msgs]);
        }
    }
    t.note("answers asserted byte-identical across the three backends before rendering");
    t.note("sim times are simulated NCUBE-like ms; threads/procs times are host wall-clock ms");
    t
}

/// Table H: the hash-tree & pipelined table-fill workload family —
/// MMR speedup across PE counts (roots checked against the serial
/// reference), MMR roots asserted byte-identical across all three
/// backends, and the pipelined fill under FIFO vs bitvector-priority
/// queueing with per-stage completion profiles.
pub fn table_h(scale: Scale) -> Table {
    table_h_cfg(scale, &|npes, spec| ProcConfig::new(npes, spec))
}

/// [`table_h`] with an explicit `ProcConfig` constructor (same pattern
/// as [`table_b_cfg`]: the unit test re-enters the test binary).
pub fn table_h_cfg(scale: Scale, proc_cfg: &dyn Fn(usize, &str) -> ProcConfig) -> Table {
    let (mmr, fill) = match scale {
        Scale::Quick => (
            "mmr:leaves=2048,grain=32,seed=1",
            "tablefill:stages=4,blocks=24,rows=16,width=1,seed=1",
        ),
        Scale::Full => (
            "mmr:leaves=32768,grain=64,seed=1",
            "tablefill:stages=6,blocks=64,rows=32,width=2,seed=1",
        ),
    };
    let (mmr, fill) = (Spec::parse(mmr).expect("mmr spec"), Spec::parse(fill).expect("fill spec"));
    let mut t = Table::new(
        "Table H: hash-tree & pipelined table-fill workloads",
        ["workload", "config", "where", "answer", "time ms", "speedup / stage profile"],
    );

    // -- MMR speedup across PE counts (the registry defaults: bitvector
    //    priorities, random placement), every root checked against the
    //    serial reference. The answer prints as the root's 32 nibbles.
    let root_want = mmr.oracle(1);
    let root16 = |rep: &CkReport, at: &str| {
        let got = mmr.answer(rep).expect("mmr result");
        assert_eq!(got, root_want, "{at}: MMR root diverges from the serial reference");
        got.to_string()[..16].to_string()
    };
    let mmr_params = mmr.params(mmr::params);
    let mmr_cfg = format!("leaves={} grain={}", mmr_params.leaves, mmr_params.grain);
    let t1 = run_spec(&mmr, 1, MachinePreset::NcubeLike).time_ns;
    for &p in scale.pes() {
        let rep = run_spec(&mmr, p, MachinePreset::NcubeLike);
        t.row(vec![
            "mmr".into(),
            mmr_cfg.clone(),
            format!("P={p}"),
            root16(&rep, &format!("P={p}")),
            ms(rep.time_ns),
            format!("{:.2}x", t1 as f64 / rep.time_ns as f64),
        ]);
    }

    // -- MMR cross-backend conformance at 4 PEs: the same spec on the
    //    simulator, the threads backend and the process backend, roots
    //    asserted byte-identical before rendering.
    let npes = 4;
    for (backend, rep) in &mmr.run_backends(npes, proc_cfg) {
        let time = ms(rep.time_ns);
        t.row(vec![
            "mmr".into(),
            format!("P={npes}"),
            (*backend).into(),
            root16(rep, backend),
            if *backend == "sim" { time } else { host_cell(time) },
            String::new(),
        ]);
    }

    // -- Pipelined fill: FIFO vs bitvector (stage, block) priorities.
    //    Same digest, visibly different per-stage completion profile.
    let fill_pes = 16;
    let digest_want = fill.oracle(fill_pes);
    let fill_params = fill.params(tablefill::params);
    let fill_cfg = format!(
        "s={} b={} w={}",
        fill_params.stages, fill_params.blocks, fill_params.width
    );
    let mut profiles: Vec<String> = Vec::new();
    for q in [QueueingStrategy::Fifo, QueueingStrategy::BitvecPriority] {
        let spec = fill.with(q, BalanceStrategy::Random);
        let rep = run_spec(&spec, fill_pes, MachinePreset::NcubeLike);
        assert_eq!(spec.answer(&rep), Some(digest_want), "q={}: fill digest diverges", q.name());
        let got = rep.result_ref::<tablefill::FillResult>().expect("fill result");
        let profile = got
            .stage_done
            .iter()
            .map(|&ns| format!("{:.0}", ns as f64 * 100.0 / rep.time_ns as f64))
            .collect::<Vec<_>>()
            .join("/");
        profiles.push(profile.clone());
        t.row(vec![
            "tablefill".into(),
            fill_cfg.clone(),
            format!("P={fill_pes} q={}", q.name()),
            format!("{:016x}", got.digest),
            ms(rep.time_ns),
            format!("stages done at {profile}% of run"),
        ]);
    }
    assert_ne!(
        profiles[0], profiles[1],
        "FIFO and bitvector priority must produce different pipeline completion profiles"
    );

    t.note("mmr roots checked against the serial reference on every run, and asserted byte-identical across sim/threads/procs (answer column shows the first 16 of 32 root nibbles)");
    t.note("sim times are simulated NCUBE-like ms; threads/procs times are host wall-clock ms");
    t.note("tablefill: stage-0 seeds released in shuffled order; bitvector (stage, block) priorities restore pipeline order, FIFO follows arrival order");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_nine_apps_with_three_under_random() {
        for scale in [Scale::Quick, Scale::Full] {
            let suite = standard_suite(scale);
            assert_eq!(suite.len(), 9);
            let deviants: Vec<&str> = suite
                .iter()
                .filter(|c| (c.queueing, &c.balance) != (c.app.queueing, &c.app.balance))
                .map(|c| c.app.name)
                .collect();
            assert_eq!(deviants, ["nqueens", "tsp", "puzzle"]);
        }
        assert!(suite_case(Scale::Quick, "mmr").is_none());
    }

    #[test]
    fn table1_quick_runs() {
        let t = table1(Scale::Quick);
        assert_eq!(t.rows.len(), 9);
        // Every app created at least its main chare.
        for row in &t.rows {
            let chares: u64 = row[1].parse().unwrap();
            assert!(chares >= 1, "{row:?}");
        }
    }

    #[test]
    fn table6_quick_ratios_sane() {
        let t = table6(Scale::Quick);
        for row in &t.rows {
            let ratio: f64 = row[3].parse().unwrap();
            assert!(ratio > 0.8 && ratio < 3.0, "{row:?}");
        }
    }

    #[test]
    fn table7_and_8_have_one_row_per_app() {
        assert_eq!(table7(Scale::Quick).rows.len(), 9);
        assert_eq!(table8(Scale::Quick).rows.len(), 9);
    }

    #[test]
    fn fig5_quick_tree_gain_grows_with_p() {
        let t = fig5(Scale::Quick);
        let gains: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[3].trim_end_matches('x').parse().unwrap())
            .collect();
        assert!(gains.last().unwrap() > gains.first().unwrap());
    }

    #[test]
    fn fig7_covers_the_parameter_grid() {
        let t = fig7(Scale::Quick);
        assert_eq!(t.rows.len(), 12); // 4 hop budgets x 3 low marks
        for row in &t.rows {
            let speedup: f64 = row[3].parse().unwrap();
            assert!(speedup > 1.0, "{row:?}");
        }
    }

    #[test]
    fn fig8_has_on_off_pairs() {
        let t = fig8(Scale::Quick);
        assert_eq!(t.rows.len(), 8); // 4 apps x on/off
        for pair in t.rows.chunks(2) {
            assert_eq!(pair[0][0], pair[1][0], "rows must pair per app");
            assert_eq!(pair[0][1], "off");
            assert_eq!(pair[1][1], "on");
        }
    }

    #[test]
    fn table_b_quick_answers_agree_across_backends() {
        // Worker re-invocations of this test binary route through the
        // harness, so the hook must run before any procs run spawns.
        ck_apps::spec::worker_hook();
        // Unit tests are registered under their full module path — the
        // `--exact` re-invocation filter must match it.
        let t = table_b_cfg(Scale::Quick, &|npes, spec| {
            ProcConfig::for_test(
                npes,
                spec,
                "experiments::tests::table_b_quick_answers_agree_across_backends",
            )
        });
        assert_eq!(t.rows.len(), 3 * 3); // 3 apps x 3 backends
        for app in t.rows.chunks(3) {
            assert_eq!(app[0][1], "sim");
            assert_eq!(app[1][1], "threads");
            assert_eq!(app[2][1], "procs");
            // table_b_cfg already asserts this; re-check the rendered
            // cells so the table itself is the artifact under test.
            assert_eq!(app[0][2], app[1][2], "{app:?}");
            assert_eq!(app[0][2], app[2][2], "{app:?}");
        }
    }

    #[test]
    fn table_h_quick_roots_agree_and_profiles_differ() {
        // Worker re-invocations of this test binary route through the
        // harness, so the hook must run before any procs run spawns.
        ck_apps::spec::worker_hook();
        let t = table_h_cfg(Scale::Quick, &|npes, spec| {
            ProcConfig::for_test(
                npes,
                spec,
                "experiments::tests::table_h_quick_roots_agree_and_profiles_differ",
            )
        });
        let pes = Scale::Quick.pes().len();
        assert_eq!(t.rows.len(), pes + 3 + 2); // speedup rows + 3 backends + 2 queueings
        // Backend rows render the identical (truncated) root.
        let backends = &t.rows[pes..pes + 3];
        assert_eq!(backends[0][2], "sim");
        assert_eq!(backends[1][2], "threads");
        assert_eq!(backends[2][2], "procs");
        assert_eq!(backends[0][3], backends[1][3]);
        assert_eq!(backends[0][3], backends[2][3]);
        // The queueing pair shares a digest but not a stage profile.
        let fills = &t.rows[pes + 3..];
        assert_eq!(fills[0][3], fills[1][3], "fill digest must not depend on queueing");
        assert_ne!(fills[0][5], fills[1][5], "profiles must differ: {fills:?}");
        // MMR speedup grows: 16 PEs beat 1 PE by at least 3x.
        let s16: f64 = t.rows[4][5].trim_end_matches('x').parse().unwrap();
        assert_eq!(t.rows[4][2], "P=16");
        assert!(s16 > 3.0, "expected >3x MMR speedup at 16 PEs, got {s16}");
    }

    #[test]
    fn table_r_quick_survives_and_retransmits() {
        let t = table_r(Scale::Quick);
        assert_eq!(t.rows.len(), 4 * 5); // 4 apps x (clean + 4 fault cases)
        for row in &t.rows {
            if row[1] == "10% drop" {
                let retx: u64 = row[6].parse().unwrap();
                assert!(retx > 0, "heavy drop must force retransmissions: {row:?}");
            }
        }
    }

    #[test]
    fn fig2_quick_has_sweet_spot() {
        let t = fig2(Scale::Quick);
        let speedups: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        let best = speedups.iter().cloned().fold(f64::MIN, f64::max);
        // The best grain beats both extremes.
        assert!(best >= speedups[0]);
        assert!(best >= *speedups.last().unwrap());
    }
}
