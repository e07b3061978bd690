//! Broadcast semantics under both distribution modes: exactly-once
//! delivery to every branch, message-count accounting, and equivalence
//! of results between tree and direct modes.

use chare_kernel::prelude::*;

const EP_MARK: EpId = EpId(1);
const EP_PROBE: EpId = EpId(2);
const EP_REPORT: EpId = EpId(3);

/// Branch that counts broadcast deliveries.
struct MarkBranch {
    marks: u64,
}

impl BranchInit for MarkBranch {
    type Cfg = ();
    fn create(_cfg: (), _ctx: &mut Ctx) -> Self {
        MarkBranch { marks: 0 }
    }
}

impl Branch for MarkBranch {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_MARK => {
                let _ = cast::<u32>(msg);
                self.marks += 1;
            }
            EP_PROBE => {
                let target = cast::<ChareId>(msg);
                ctx.send(target, EP_REPORT, self.marks);
            }
            _ => unreachable!(),
        }
    }
}

#[derive(Clone)]
struct Seed {
    boc: Boc<MarkBranch>,
    broadcasts: u32,
}
message!(Seed);

struct Main {
    boc: Boc<MarkBranch>,
    broadcasts: u32,
    reports: Vec<u64>,
    probed: bool,
}

impl ChareInit for Main {
    type Seed = Seed;
    fn create(seed: Seed, ctx: &mut Ctx) -> Self {
        for i in 0..seed.broadcasts {
            ctx.broadcast_branch(seed.boc, EP_MARK, i);
        }
        let me = ctx.self_id();
        ctx.start_quiescence(Notify::Chare(me, EP_REPORT));
        Main {
            boc: seed.boc,
            broadcasts: seed.broadcasts,
            reports: Vec::new(),
            probed: false,
        }
    }
}

impl Chare for Main {
    fn entry(&mut self, _ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        if !self.probed {
            // Quiescence: all broadcasts delivered; ask every branch for
            // its count.
            let _ = cast::<QuiescenceMsg>(msg);
            self.probed = true;
            let me = ctx.self_id();
            for pe in 0..ctx.npes() {
                ctx.send_branch(self.boc, Pe::from(pe), EP_PROBE, me);
            }
            return;
        }
        let marks = cast::<u64>(msg);
        assert_eq!(
            marks, self.broadcasts as u64,
            "a branch saw the wrong number of broadcasts"
        );
        self.reports.push(marks);
        if self.reports.len() == ctx.npes() {
            ctx.exit(self.reports.iter().sum::<u64>());
        }
    }
}

fn run(mode: BroadcastMode, npes: usize, broadcasts: u32) -> (u64, u64, u64) {
    let mut b = ProgramBuilder::new();
    let boc = b.boc::<MarkBranch>(());
    let main = b.chare::<Main>();
    b.broadcast_mode(mode);
    b.main(main, Seed { boc, broadcasts });
    let mut rep = b.build().run_sim_preset(npes, MachinePreset::NcubeLike);
    let total = rep.take_result::<u64>().expect("total marks");
    (
        total,
        rep.total().user_sent,
        rep.total().user_recv,
    )
}

#[test]
fn every_branch_sees_every_broadcast_exactly_once() {
    for mode in [BroadcastMode::Tree, BroadcastMode::Direct] {
        for npes in [1usize, 2, 5, 16, 33] {
            let (total, _, _) = run(mode, npes, 7);
            assert_eq!(total, 7 * npes as u64, "{mode:?} npes={npes}");
        }
    }
}

#[test]
fn accounting_balances_in_both_modes() {
    for mode in [BroadcastMode::Tree, BroadcastMode::Direct] {
        let (_, sent, recv) = run(mode, 9, 5);
        assert_eq!(sent, recv, "{mode:?}: sent {sent} != recv {recv}");
    }
}

#[test]
fn tree_mode_moves_fewer_root_messages() {
    // Not fewer messages overall (same edge count), but the *root* PE
    // sends only its tree children. Verify via per-PE sent counters.
    let per_pe_sent = |mode: BroadcastMode| {
        let mut b = ProgramBuilder::new();
        let boc = b.boc::<MarkBranch>(());
        let main = b.chare::<Main>();
        b.broadcast_mode(mode);
        b.main(main, Seed { boc, broadcasts: 10 });
        let rep = b.build().run_sim_preset(32, MachinePreset::NcubeLike);
        rep.counters[0].user_sent
    };
    let direct_root = per_pe_sent(BroadcastMode::Direct);
    let tree_root = per_pe_sent(BroadcastMode::Tree);
    assert!(
        tree_root * 2 < direct_root,
        "tree root sent {tree_root}, direct root sent {direct_root}"
    );
}

#[test]
fn broadcast_works_from_non_zero_pe() {
    // A chare placed on PE 3 broadcasts; the tree must root correctly
    // at PE 3.
    #[derive(Clone)]
    struct RemoteSeed {
        boc: Boc<MarkBranch>,
        inner: Kind<RemoteCaster>,
    }
    message!(RemoteSeed);

    #[derive(Clone, Copy)]
    struct CasterSeed {
        boc: Boc<MarkBranch>,
        parent: ChareId,
    }
    message!(CasterSeed);

    struct RemoteCaster;
    impl ChareInit for RemoteCaster {
        type Seed = CasterSeed;
        fn create(seed: CasterSeed, ctx: &mut Ctx) -> Self {
            assert_eq!(ctx.pe(), Pe(3));
            ctx.broadcast_branch(seed.boc, EP_MARK, 0u32);
            ctx.send(seed.parent, EP_REPORT, ());
            ctx.destroy_self();
            RemoteCaster
        }
    }
    impl Chare for RemoteCaster {
        fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
            unreachable!()
        }
    }

    struct RemoteMain {
        boc: Boc<MarkBranch>,
        phase: u32,
        reports: usize,
    }
    impl ChareInit for RemoteMain {
        type Seed = RemoteSeed;
        fn create(seed: RemoteSeed, ctx: &mut Ctx) -> Self {
            let me = ctx.self_id();
            ctx.create_on(
                Pe(3),
                seed.inner,
                CasterSeed {
                    boc: seed.boc,
                    parent: me,
                },
            );
            RemoteMain {
                boc: seed.boc,
                phase: 0,
                reports: 0,
            }
        }
    }
    impl Chare for RemoteMain {
        fn entry(&mut self, _ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            let me = ctx.self_id();
            match self.phase {
                0 => {
                    // Caster done; wait for quiescence then probe.
                    cast::<()>(msg);
                    self.phase = 1;
                    ctx.start_quiescence(Notify::Chare(me, EP_REPORT));
                }
                1 => {
                    let _ = cast::<QuiescenceMsg>(msg);
                    self.phase = 2;
                    for pe in 0..ctx.npes() {
                        ctx.send_branch(self.boc, Pe::from(pe), EP_PROBE, me);
                    }
                }
                2 => {
                    let marks = cast::<u64>(msg);
                    assert_eq!(marks, 1, "branch missed the remote broadcast");
                    self.reports += 1;
                    if self.reports == ctx.npes() {
                        ctx.exit(true);
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    let mut b = ProgramBuilder::new();
    let boc = b.boc::<MarkBranch>(());
    let inner = b.chare::<RemoteCaster>();
    let main = b.chare::<RemoteMain>();
    b.broadcast_mode(BroadcastMode::Tree);
    b.main(main, RemoteSeed { boc, inner });
    let mut rep = b.build().run_sim_preset(6, MachinePreset::NcubeLike);
    assert_eq!(rep.take_result::<bool>(), Some(true));
}

/// Accumulator collects gather up the same tree the request travels
/// down; verify the reduction is correct at awkward PE counts in both
/// modes.
#[test]
fn tree_reduction_matches_direct_gather() {
    #[derive(Clone)]
    struct RSeed {
        acc: Acc<SumU64>,
        worker: Kind<RWorker>,
    }
    message!(RSeed);

    #[derive(Clone, Copy)]
    struct RWorkerSeed {
        acc: Acc<SumU64>,
        value: u64,
    }
    message!(RWorkerSeed);

    struct RWorker;
    impl ChareInit for RWorker {
        type Seed = RWorkerSeed;
        fn create(seed: RWorkerSeed, ctx: &mut Ctx) -> Self {
            ctx.acc_add(seed.acc, seed.value);
            ctx.destroy_self();
            RWorker
        }
    }
    impl Chare for RWorker {
        fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
            unreachable!()
        }
    }

    struct RMain {
        acc: Acc<SumU64>,
        collected: bool,
    }
    impl ChareInit for RMain {
        type Seed = RSeed;
        fn create(seed: RSeed, ctx: &mut Ctx) -> Self {
            let me = ctx.self_id();
            // One worker per PE contributes pe+1.
            for pe in 0..ctx.npes() {
                ctx.create_on(
                    Pe::from(pe),
                    seed.worker,
                    RWorkerSeed {
                        acc: seed.acc,
                        value: pe as u64 + 1,
                    },
                );
            }
            ctx.start_quiescence(Notify::Chare(me, EpId(50)));
            RMain {
                acc: seed.acc,
                collected: false,
            }
        }
    }
    impl Chare for RMain {
        fn entry(&mut self, _ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
            let me = ctx.self_id();
            if !self.collected {
                let _ = cast::<QuiescenceMsg>(msg);
                self.collected = true;
                ctx.acc_collect(self.acc, Notify::Chare(me, EpId(51)));
            } else {
                let total = cast::<AccResult<u64>>(msg);
                ctx.exit(total.value);
            }
        }
    }

    for mode in [BroadcastMode::Tree, BroadcastMode::Direct] {
        for npes in [1usize, 2, 7, 16, 33] {
            let mut b = ProgramBuilder::new();
            let worker = b.chare::<RWorker>();
            let main = b.chare::<RMain>();
            let acc = b.accumulator::<SumU64>();
            b.broadcast_mode(mode);
            b.main(main, RSeed { acc, worker });
            let mut rep = b.build().run_sim_preset(npes, MachinePreset::NcubeLike);
            let want = (npes as u64) * (npes as u64 + 1) / 2;
            assert_eq!(
                rep.take_result::<u64>(),
                Some(want),
                "{mode:?} npes={npes}"
            );
        }
    }
}
