//! End-to-end behavior of the specifically shared variables: read-only,
//! write-once, accumulators (destructive collect), monotonic variables
//! and distributed tables.

use charm_repro::prelude::*;

const EP_GO: EpId = EpId(1);
const EP_REPLY: EpId = EpId(2);
const EP_DONE: EpId = EpId(3);

// ---------------------------------------------------------------------
// Write-once + read-only.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct WoSeed {
    ro: ReadOnly<Vec<u32>>,
}
message!(WoSeed);

struct WoMain {
    ro: ReadOnly<Vec<u32>>,
}

impl ChareInit for WoMain {
    type Seed = WoSeed;
    fn create(seed: WoSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        // Publish a runtime-created table of squares to every PE.
        let squares: Vec<u64> = (0..10u64).map(|i| i * i).collect();
        ctx.write_once(squares, Notify::Chare(me, EP_REPLY));
        WoMain { ro: seed.ro }
    }
}

impl Chare for WoMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        assert_eq!(ep, EP_REPLY);
        let ready = cast::<WoReady>(msg);
        // Read back the replica on this PE.
        let squares = ctx.wo_get::<Vec<u64>>(ready.id);
        assert_eq!(squares[7], 49);
        // Read-only variable from the builder is also visible.
        let ro = ctx.read_only(self.ro);
        assert_eq!(ro.len(), 3);
        ctx.exit(squares[9] + ro[2] as u64);
    }
}

#[test]
fn write_once_replicates_and_notifies() {
    let mut b = ProgramBuilder::new();
    let main = b.chare::<WoMain>();
    let ro = b.read_only(vec![10u32, 20, 30]);
    b.main(main, WoSeed { ro });
    let mut rep = b.build().run_sim_preset(6, MachinePreset::NcubeLike);
    assert_eq!(rep.take_result::<u64>(), Some(81 + 30));
}

// ---------------------------------------------------------------------
// Accumulator: destructive collect.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct AccSeed {
    worker: Kind<AccWorker>,
    acc: Acc<SumU64>,
    count: u32,
}
message!(AccSeed);

#[derive(Clone, Copy)]
struct AccWorkerSeed {
    parent: ChareId,
    acc: Acc<SumU64>,
    value: u64,
}
message!(AccWorkerSeed);

struct AccMain {
    acc: Acc<SumU64>,
    waiting: u32,
    first_total: Option<u64>,
}

impl ChareInit for AccMain {
    type Seed = AccSeed;
    fn create(seed: AccSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        for i in 1..=seed.count {
            ctx.create(
                seed.worker,
                AccWorkerSeed {
                    parent: me,
                    acc: seed.acc,
                    value: i as u64,
                },
            );
        }
        AccMain {
            acc: seed.acc,
            waiting: seed.count,
            first_total: None,
        }
    }
}

impl Chare for AccMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let me = ctx.self_id();
        match ep {
            EP_DONE => {
                self.waiting -= 1;
                if self.waiting == 0 {
                    ctx.acc_collect(self.acc, Notify::Chare(me, EP_REPLY));
                }
            }
            EP_REPLY => {
                let total = cast::<AccResult<u64>>(msg).value;
                match self.first_total {
                    None => {
                        // Collect is destructive: a second collect must
                        // come back zero.
                        self.first_total = Some(total);
                        ctx.acc_collect(self.acc, Notify::Chare(me, EP_GO));
                    }
                    Some(_) => unreachable!(),
                }
            }
            EP_GO => {
                let second = cast::<AccResult<u64>>(msg).value;
                ctx.exit((self.first_total.unwrap(), second));
            }
            _ => unreachable!(),
        }
    }
}

struct AccWorker;
impl ChareInit for AccWorker {
    type Seed = AccWorkerSeed;
    fn create(seed: AccWorkerSeed, ctx: &mut Ctx) -> Self {
        ctx.acc_add(seed.acc, seed.value);
        ctx.send(seed.parent, EP_DONE, ());
        ctx.destroy_self();
        AccWorker
    }
}
impl Chare for AccWorker {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!()
    }
}

#[test]
fn accumulator_collect_is_destructive() {
    let mut b = ProgramBuilder::new();
    let worker = b.chare::<AccWorker>();
    let main = b.chare::<AccMain>();
    let acc = b.accumulator::<SumU64>();
    b.balance(BalanceStrategy::Random);
    b.main(
        main,
        AccSeed {
            worker,
            acc,
            count: 20,
        },
    );
    let mut rep = b.build().run_sim_preset(5, MachinePreset::NcubeLike);
    let (first, second) = rep.take_result::<(u64, u64)>().expect("totals");
    assert_eq!(first, 210); // 1 + 2 + ... + 20
    assert_eq!(second, 0);
}

// ---------------------------------------------------------------------
// Distributed table.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct TabSeed {
    table: TableRef<String>,
}
message!(TabSeed);

struct TabMain {
    table: TableRef<String>,
    phase: u32,
}

impl ChareInit for TabMain {
    type Seed = TabSeed;
    fn create(seed: TabSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        // Insert 3 keys; ask for an ack on the last.
        ctx.table_put(seed.table, 11, "eleven".to_string(), None);
        ctx.table_put(seed.table, 22, "twenty-two".to_string(), None);
        ctx.table_put(
            seed.table,
            33,
            "thirty-three".to_string(),
            Some(Notify::Chare(me, EP_REPLY)),
        );
        TabMain {
            table: seed.table,
            phase: 0,
        }
    }
}

impl Chare for TabMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let me = ctx.self_id();
        match self.phase {
            0 => {
                assert_eq!(ep, EP_REPLY);
                let ack = cast::<TableAck>(msg);
                assert!(!ack.existed);
                self.phase = 1;
                ctx.table_get(self.table, 22, Notify::Chare(me, EP_REPLY));
            }
            1 => {
                let got = cast::<TableGot<String>>(msg);
                assert_eq!(got.value.as_deref(), Some("twenty-two"));
                self.phase = 2;
                ctx.table_delete(self.table, 22, Some(Notify::Chare(me, EP_REPLY)));
            }
            2 => {
                let ack = cast::<TableAck>(msg);
                assert!(ack.existed);
                self.phase = 3;
                ctx.table_get(self.table, 22, Notify::Chare(me, EP_REPLY));
            }
            3 => {
                let got = cast::<TableGot<String>>(msg);
                assert_eq!(got.value, None, "deleted key must be gone");
                self.phase = 4;
                // Overwrite an existing key: ack reports existed.
                ctx.table_put(
                    self.table,
                    11,
                    "ELEVEN".to_string(),
                    Some(Notify::Chare(me, EP_REPLY)),
                );
            }
            4 => {
                let ack = cast::<TableAck>(msg);
                assert!(ack.existed);
                self.phase = 5;
                ctx.table_get(self.table, 11, Notify::Chare(me, EP_REPLY));
            }
            5 => {
                let got = cast::<TableGot<String>>(msg);
                ctx.exit(got.value.expect("present"));
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn distributed_table_full_protocol() {
    let mut b = ProgramBuilder::new();
    let main = b.chare::<TabMain>();
    let table = b.table::<String>();
    b.main(main, TabSeed { table });
    let mut rep = b.build().run_sim_preset(7, MachinePreset::IpscLike);
    assert_eq!(rep.take_result::<String>().as_deref(), Some("ELEVEN"));
}

// ---------------------------------------------------------------------
// Monotonic propagation.
// ---------------------------------------------------------------------

const EP_SEEN: EpId = EpId(20);
const EP_MONO_QD: EpId = EpId(21);
const EP_SEEN2: EpId = EpId(22);

#[derive(Clone)]
struct MonoSeed {
    probe: Kind<MonoProbe>,
    best: MonoVar<MinBoundU64>,
}
message!(MonoSeed);

#[derive(Clone, Copy)]
struct ProbeSeed {
    parent: ChareId,
    best: MonoVar<MinBoundU64>,
    reply_ep: EpId,
}
message!(ProbeSeed);

/// Round 1: probes race the (asynchronous, tree-relayed) updates and may
/// see any monotonically valid snapshot. Round 2, launched after
/// quiescence (all updates delivered), must see the global best on every
/// PE — the paper's convergence guarantee for monotonic variables.
struct MonoMain {
    probe: Kind<MonoProbe>,
    best: MonoVar<MinBoundU64>,
    waiting: usize,
    round: u32,
}

impl ChareInit for MonoMain {
    type Seed = MonoSeed;
    fn create(seed: MonoSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.mono_update(seed.best, 500);
        ctx.mono_update(seed.best, 100);
        ctx.mono_update(seed.best, 300); // worse: must be dropped
        let npes = ctx.npes();
        for pe in 0..npes {
            ctx.create_on(
                Pe::from(pe),
                seed.probe,
                ProbeSeed {
                    parent: me,
                    best: seed.best,
                    reply_ep: EP_SEEN,
                },
            );
        }
        MonoMain {
            probe: seed.probe,
            best: seed.best,
            waiting: npes,
            round: 1,
        }
    }
}

impl Chare for MonoMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let me = ctx.self_id();
        match ep {
            EP_SEEN => {
                let seen = cast::<u64>(msg);
                assert!(
                    seen == u64::MAX || seen == 500 || seen == 100,
                    "snapshot {seen} is not a value that was ever current"
                );
                self.waiting -= 1;
                if self.waiting == 0 {
                    ctx.start_quiescence(Notify::Chare(me, EP_MONO_QD));
                }
            }
            EP_MONO_QD => {
                let _ = cast::<QuiescenceMsg>(msg);
                // All updates delivered: round 2 must see 100 everywhere.
                self.round = 2;
                self.waiting = ctx.npes();
                for pe in 0..ctx.npes() {
                    ctx.create_on(
                        Pe::from(pe),
                        self.probe,
                        ProbeSeed {
                            parent: me,
                            best: self.best,
                            reply_ep: EP_SEEN2,
                        },
                    );
                }
            }
            EP_SEEN2 => {
                let seen = cast::<u64>(msg);
                assert_eq!(seen, 100, "post-quiescence PE still stale");
                self.waiting -= 1;
                if self.waiting == 0 {
                    ctx.exit(ctx.mono_get(self.best));
                }
            }
            _ => unreachable!(),
        }
    }
}

struct MonoProbe;
impl ChareInit for MonoProbe {
    type Seed = ProbeSeed;
    fn create(seed: ProbeSeed, ctx: &mut Ctx) -> Self {
        let local = ctx.mono_get(seed.best);
        ctx.send(seed.parent, seed.reply_ep, local);
        ctx.destroy_self();
        MonoProbe
    }
}
impl Chare for MonoProbe {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!()
    }
}

#[test]
fn monotonic_converges_everywhere() {
    for mode in [BroadcastMode::Tree, BroadcastMode::Direct] {
        let mut b = ProgramBuilder::new();
        let probe = b.chare::<MonoProbe>();
        let main = b.chare::<MonoMain>();
        let best = b.monotonic::<MinBoundU64>();
        b.broadcast_mode(mode);
        b.main(main, MonoSeed { probe, best });
        let mut rep = b.build().run_sim_preset(8, MachinePreset::NcubeLike);
        assert_eq!(rep.take_result::<u64>(), Some(100), "{mode:?}");
    }
}

// ---------------------------------------------------------------------
// All of the above across real process boundaries.
// ---------------------------------------------------------------------

const EP_WO_IN: EpId = EpId(20);
const EP_CROSS_QD: EpId = EpId(21);
const EP_CROSS_SEEN: EpId = EpId(22);
const EP_CROSS_TOTAL: EpId = EpId(23);

/// What `Publisher` offers, in order: three improvements and, after the
/// best of them, one that must be dropped.
const BOUNDS: [u64; 4] = [900, 500, 100, 300];

#[derive(Clone, Copy)]
struct CrossHandles {
    main: ChareId,
    best: MonoVar<MinBoundU64>,
    acc: Acc<SumU64>,
}

#[derive(Clone, Copy)]
struct CrossSeed {
    publisher: Kind<Publisher>,
    witness: Kind<Witness>,
    best: MonoVar<MinBoundU64>,
    acc: Acc<SumU64>,
}
message!(CrossSeed);

#[derive(Clone, Copy)]
struct PublisherSeed {
    weights: WoId,
    h: CrossHandles,
}
message!(PublisherSeed);

#[derive(Clone, Copy)]
struct WitnessSeed {
    h: CrossHandles,
}
message!(WitnessSeed);

wire_struct!(CrossHandles { main, best, acc });
wire_struct!(CrossSeed { publisher, witness, best, acc });
wire_struct!(PublisherSeed { weights, h });
wire_struct!(WitnessSeed { h });

/// PE 0 replicates a write-once vector; once every PE holds it, the
/// *last* PE publishes `BOUNDS` and adds the vector's sum to the
/// accumulator. After quiescence a witness on every PE reports the bound
/// it sees and adds one; the exit result is (the bound PE 0 sees, the
/// collected total).
struct CrossMain {
    seed: CrossSeed,
    waiting: usize,
}

impl CrossMain {
    fn handles(&self, ctx: &Ctx) -> CrossHandles {
        CrossHandles { main: ctx.self_id(), best: self.seed.best, acc: self.seed.acc }
    }
}

impl ChareInit for CrossMain {
    type Seed = CrossSeed;
    fn create(seed: CrossSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.write_once(vec![7u64, 11, 13], Notify::Chare(me, EP_WO_IN));
        CrossMain { seed, waiting: 0 }
    }
}

impl Chare for CrossMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let me = ctx.self_id();
        let h = self.handles(ctx);
        match ep {
            EP_WO_IN => {
                let weights = cast::<WoReady>(msg).id;
                let last = Pe::from(ctx.npes() - 1);
                ctx.create_on(last, self.seed.publisher, PublisherSeed { weights, h });
                ctx.start_quiescence(Notify::Chare(me, EP_CROSS_QD));
            }
            EP_CROSS_QD => {
                let _ = cast::<QuiescenceMsg>(msg);
                self.waiting = ctx.npes();
                for pe in 0..ctx.npes() {
                    ctx.create_on(Pe::from(pe), self.seed.witness, WitnessSeed { h });
                }
            }
            EP_CROSS_SEEN => {
                let seen = cast::<u64>(msg);
                assert_eq!(seen, 100, "a PE still holds a stale bound after quiescence");
                self.waiting -= 1;
                if self.waiting == 0 {
                    ctx.acc_collect(self.seed.acc, Notify::Chare(me, EP_CROSS_TOTAL));
                }
            }
            EP_CROSS_TOTAL => {
                let total = cast::<AccResult<u64>>(msg).value;
                ctx.exit((ctx.mono_get(self.seed.best), total));
            }
            _ => unreachable!(),
        }
    }
}

struct Publisher;
impl ChareInit for Publisher {
    type Seed = PublisherSeed;
    fn create(seed: PublisherSeed, ctx: &mut Ctx) -> Self {
        // The replica arrived on this PE before PE 0 was told it had.
        let weights = ctx.wo_get::<Vec<u64>>(seed.weights);
        ctx.acc_add(seed.h.acc, weights.iter().sum());
        for bound in BOUNDS {
            ctx.mono_update(seed.h.best, bound);
        }
        ctx.destroy_self();
        Publisher
    }
}
impl Chare for Publisher {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!()
    }
}

struct Witness;
impl ChareInit for Witness {
    type Seed = WitnessSeed;
    fn create(seed: WitnessSeed, ctx: &mut Ctx) -> Self {
        ctx.acc_add(seed.h.acc, 1);
        ctx.send(seed.h.main, EP_CROSS_SEEN, ctx.mono_get(seed.h.best));
        ctx.destroy_self();
        Witness
    }
}
impl Chare for Witness {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!()
    }
}

fn cross_program() -> Program {
    let mut b = ProgramBuilder::new();
    let publisher = b.chare::<Publisher>();
    let witness = b.chare::<Witness>();
    let main = b.chare::<CrossMain>();
    let best = b.monotonic::<MinBoundU64>();
    let acc = b.accumulator::<SumU64>();
    b.wire::<PublisherSeed>();
    b.wire::<WitnessSeed>();
    b.wire::<Vec<u64>>();
    b.wire::<AccResult<u64>>();
    b.wire::<(u64, u64)>();
    b.main(main, CrossSeed { publisher, witness, best, acc });
    b.build()
}

#[test]
fn shared_variables_cross_the_process_boundary() {
    // The first use of a monotonic variable over sockets (tsp and puzzle
    // use one too, but what they prune by it is schedule-dependent).
    // Workers re-enter this test; the broadcast mode rides `Go`.
    chare_kernel::maybe_worker(|_| cross_program());
    let npes = 4;
    for mode in [BroadcastMode::Tree, BroadcastMode::Direct] {
        let prog = cross_program()
            .with_tracing(TraceConfig)
            .with_opts(|o| o.bcast = mode);
        let test_name = "shared_variables_cross_the_process_boundary";
        let mut rep = prog.run_procs(&ProcConfig::for_test(npes, "", test_name));
        let detail = rep.proc.as_ref().expect("procs detail");
        assert!(detail.aborted.is_none(), "{mode:?}: {:?}", detail.aborted);
        assert_eq!(rep.take_result::<(u64, u64)>(), Some((100, 7 + 11 + 13 + npes as u64)), "{mode:?}");
        // Each improvement was broadcast once, by the PE that made it,
        // and applied once on every PE; the fourth bound went nowhere.
        assert_eq!(rep.total().mono_broadcasts, 3, "{mode:?}");
        assert_eq!(rep.total().mono_applied, 3 * npes as u64, "{mode:?}");
        let trace = rep.trace.as_ref().expect("traced");
        let tree_casts = trace
            .events
            .iter()
            .filter(|ev| {
                matches!(ev.kind, EventKind::MsgSend { class: chare_kernel::MsgClass::Broadcast, .. })
            })
            .count();
        assert_eq!(tree_casts > 0, mode == BroadcastMode::Tree, "{mode:?}: {tree_casts} tree casts");
    }
}
