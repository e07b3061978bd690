//! Message combining: correctness is unchanged, accounting stays
//! balanced, and packet counts drop for fine-grain traffic.

use chare_kernel::prelude::*;
use ck_apps_shim::*;

/// Minimal fan-out/fan-in program defined locally so this crate's tests
/// stay independent of ck_apps.
mod ck_apps_shim {
    use chare_kernel::prelude::*;

    pub const EP_DONE: EpId = EpId(1);

    #[derive(Clone)]
    pub struct Seed {
        pub fanout: u32,
        pub worker: Kind<Worker>,
    }
    message!(Seed);

    #[derive(Clone, Copy)]
    pub struct WorkerSeed {
        pub parent: ChareId,
        pub value: u64,
    }
    message!(WorkerSeed);

    pub struct Worker;
    impl ChareInit for Worker {
        type Seed = WorkerSeed;
        fn create(seed: WorkerSeed, ctx: &mut Ctx) -> Self {
            ctx.send(seed.parent, EP_DONE, seed.value * 2);
            ctx.destroy_self();
            Worker
        }
    }
    impl Chare for Worker {
        fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
            unreachable!()
        }
    }

    pub struct Main {
        pub waiting: u32,
        pub sum: u64,
    }
    impl ChareInit for Main {
        type Seed = Seed;
        fn create(seed: Seed, ctx: &mut Ctx) -> Self {
            let me = ctx.self_id();
            // All seeds are created in ONE entry execution — exactly the
            // burst pattern combining batches.
            for v in 0..seed.fanout {
                ctx.create(
                    seed.worker,
                    WorkerSeed {
                        parent: me,
                        value: v as u64,
                    },
                );
            }
            Main {
                waiting: seed.fanout,
                sum: 0,
            }
        }
    }
    impl Chare for Main {
        fn entry(&mut self, _ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            self.sum += cast::<u64>(msg);
            self.waiting -= 1;
            if self.waiting == 0 {
                ctx.exit(self.sum);
            }
        }
    }
}

fn program(fanout: u32, combining: bool) -> Program {
    let mut b = ProgramBuilder::new();
    let worker = b.chare::<Worker>();
    let main = b.chare::<Main>();
    b.balance(BalanceStrategy::Random);
    b.combining(combining);
    b.main(main, Seed { fanout, worker });
    b.build()
}

#[test]
fn combining_preserves_results() {
    let want: u64 = (0..200u64).map(|v| v * 2).sum();
    for combining in [false, true] {
        for npes in [1usize, 4, 9] {
            let mut rep = program(200, combining).run_sim_preset(npes, MachinePreset::NcubeLike);
            assert_eq!(
                rep.take_result::<u64>(),
                Some(want),
                "combining={combining} npes={npes}"
            );
        }
    }
}

#[test]
fn combining_reduces_packets_for_bursts() {
    let plain = program(400, false).run_sim_preset(8, MachinePreset::NcubeLike);
    let combined = program(400, true).run_sim_preset(8, MachinePreset::NcubeLike);
    let p0 = plain.sim.as_ref().unwrap().packets;
    let p1 = combined.sim.as_ref().unwrap().packets;
    // The 400-seed burst collapses to one batch per destination; the
    // replies arrive one per step and stay unbatched, so the overall
    // reduction is bounded by the reply half of the traffic.
    assert!(
        (p1 as f64) < 0.62 * p0 as f64,
        "expected the seed burst batched away: plain {p0}, combined {p1}"
    );
    // And the burst finishes faster: one alpha per destination, not 400.
    assert!(
        combined.time_ns < plain.time_ns,
        "combining should win this pattern: {} vs {}",
        combined.time_ns,
        plain.time_ns
    );
}

#[test]
fn combining_keeps_accounting_balanced() {
    let rep = program(300, true).run_sim_preset(6, MachinePreset::NcubeLike);
    let sent = rep.total().user_sent;
    let recv = rep.total().user_recv;
    // Exit may strand a handful in flight; everything delivered was
    // counted per inner message, not per batch.
    assert!(sent >= recv && sent - recv <= 8, "sent {sent} recv {recv}");
    // 300 replies plus every *remote* seed (locally kept seeds are not
    // messages): with random placement over 6 PEs ~5/6 of seeds travel.
    assert!(sent >= 500, "each reply and remote seed counted: {sent}");
}

#[test]
fn combining_works_on_threads() {
    let want: u64 = (0..100u64).map(|v| v * 2).sum();
    let mut rep = program(100, true).run_threads(4);
    assert!(!rep.timed_out);
    assert_eq!(rep.take_result::<u64>(), Some(want));
}

#[test]
fn combining_works_with_quiescence_and_accumulators() {
    // The nqueens-style pattern: accumulator + QD, all under combining.
    use chare_kernel::prelude::*;

    #[derive(Clone)]
    struct QSeed {
        worker: Kind<QWorker>,
        acc: Acc<SumU64>,
    }
    message!(QSeed);

    #[derive(Clone, Copy)]
    struct QWorkerSeed {
        acc: Acc<SumU64>,
        value: u64,
    }
    message!(QWorkerSeed);

    struct QWorker;
    impl ChareInit for QWorker {
        type Seed = QWorkerSeed;
        fn create(seed: QWorkerSeed, ctx: &mut Ctx) -> Self {
            ctx.acc_add(seed.acc, seed.value);
            ctx.destroy_self();
            QWorker
        }
    }
    impl Chare for QWorker {
        fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
            unreachable!()
        }
    }

    struct QMain {
        acc: Acc<SumU64>,
        collected: bool,
    }
    impl ChareInit for QMain {
        type Seed = QSeed;
        fn create(seed: QSeed, ctx: &mut Ctx) -> Self {
            let me = ctx.self_id();
            ctx.start_quiescence(Notify::Chare(me, EpId(7)));
            for v in 1..=50u64 {
                ctx.create(seed.worker, QWorkerSeed { acc: seed.acc, value: v });
            }
            QMain {
                acc: seed.acc,
                collected: false,
            }
        }
    }
    impl Chare for QMain {
        fn entry(&mut self, _ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            let me = ctx.self_id();
            if !self.collected {
                let _ = cast::<QuiescenceMsg>(msg);
                self.collected = true;
                ctx.acc_collect(self.acc, Notify::Chare(me, EpId(8)));
            } else {
                ctx.exit(cast::<AccResult<u64>>(msg).value);
            }
        }
    }

    let mut b = ProgramBuilder::new();
    let worker = b.chare::<QWorker>();
    let main = b.chare::<QMain>();
    let acc = b.accumulator::<SumU64>();
    b.balance(BalanceStrategy::Random);
    b.combining(true);
    b.main(main, QSeed { worker, acc });
    let mut rep = b.build().run_sim_preset(8, MachinePreset::NcubeLike);
    assert_eq!(rep.take_result::<u64>(), Some(50 * 51 / 2));
}
