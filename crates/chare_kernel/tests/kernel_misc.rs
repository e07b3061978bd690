//! Kernel behavior tests: chare lifecycle, dead letters, local branch
//! calls, misuse panics, and counter accounting.

use chare_kernel::prelude::*;

const EP_PING: EpId = EpId(1);
const EP_DONE: EpId = EpId(2);

// ---------------------------------------------------------------------
// Dead letters: messages to destroyed chares are dropped, counted, and
// don't break anything.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct DlSeed {
    victim: Kind<Victim>,
}
message!(DlSeed);

#[derive(Clone, Copy)]
struct VictimSeed {
    parent: ChareId,
}
message!(VictimSeed);

/// Dies on its first message.
struct Victim;
impl ChareInit for Victim {
    type Seed = VictimSeed;
    fn create(seed: VictimSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.send(seed.parent, EP_PING, me);
        Victim
    }
}
impl Chare for Victim {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, ctx: &mut Ctx) {
        ctx.destroy_self();
    }
}

struct DlMain {
    victim_id: Option<ChareId>,
    sent_after_death: bool,
}

impl ChareInit for DlMain {
    type Seed = DlSeed;
    fn create(seed: DlSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.create_on(Pe::from(1 % ctx.npes()), seed.victim, VictimSeed { parent: me });
        DlMain {
            victim_id: None,
            sent_after_death: false,
        }
    }
}

impl Chare for DlMain {
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        match ep {
            EP_PING => {
                // Victim introduced itself. Kill it with one message,
                // then send three more that must become dead letters,
                // then detect quiescence to finish.
                let victim = cast::<ChareId>(msg);
                self.victim_id = Some(victim);
                ctx.send(victim, EP_PING, ()); // destroys it
                for _ in 0..3 {
                    ctx.send(victim, EP_PING, ()); // dead letters
                }
                let me = ctx.self_id();
                ctx.start_quiescence(Notify::Chare(me, EP_DONE));
                self.sent_after_death = true;
            }
            EP_DONE => {
                let _ = cast::<QuiescenceMsg>(msg);
                ctx.exit(true);
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn dead_letters_are_counted_not_fatal() {
    let mut b = ProgramBuilder::new();
    let victim = b.chare::<Victim>();
    let main = b.chare::<DlMain>();
    b.main(main, DlSeed { victim });
    let mut rep = b.build().run_sim_preset(2, MachinePreset::NcubeLike);
    assert_eq!(rep.take_result::<bool>(), Some(true));
    assert_eq!(rep.total().dead_letters, 3);
}

// ---------------------------------------------------------------------
// Local branch calls (with_branch) and self_boc.
// ---------------------------------------------------------------------

struct CounterBranch {
    hits: u64,
}

impl BranchInit for CounterBranch {
    type Cfg = u64;
    fn create(cfg: u64, _ctx: &mut Ctx) -> Self {
        CounterBranch { hits: cfg }
    }
}

impl Branch for CounterBranch {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        self.hits += 1;
    }
}

#[derive(Clone)]
struct WbSeed {
    boc: Boc<CounterBranch>,
}
message!(WbSeed);

struct WbMain;
impl ChareInit for WbMain {
    type Seed = WbSeed;
    fn create(seed: WbSeed, ctx: &mut Ctx) -> Self {
        // Synchronous local-branch calls from a chare.
        let v1 = ctx.with_branch(seed.boc, |b: &mut CounterBranch, _ctx| {
            b.hits += 10;
            b.hits
        });
        let v2 = ctx.with_branch(seed.boc, |b: &mut CounterBranch, _ctx| b.hits);
        assert_eq!(v1, v2);
        ctx.exit(v2);
        WbMain
    }
}
impl Chare for WbMain {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!()
    }
}

#[test]
fn with_branch_gives_synchronous_local_access() {
    let mut b = ProgramBuilder::new();
    let boc = b.boc::<CounterBranch>(100);
    let main = b.chare::<WbMain>();
    b.main(main, WbSeed { boc });
    let mut rep = b.build().run_sim_preset(4, MachinePreset::NcubeLike);
    assert_eq!(rep.take_result::<u64>(), Some(110));
}

// ---------------------------------------------------------------------
// Misuse panics.
// ---------------------------------------------------------------------

struct BadBranch;
impl BranchInit for BadBranch {
    type Cfg = ();
    fn create(_cfg: (), ctx: &mut Ctx) -> Self {
        // self_id is a chare-only operation.
        let _ = ctx.self_id();
        BadBranch
    }
}
impl Branch for BadBranch {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {}
}

#[test]
#[should_panic(expected = "self_id called outside a chare")]
fn self_id_from_branch_panics() {
    let mut b = ProgramBuilder::new();
    let _boc = b.boc::<BadBranch>(());
    let _ = b.build().run_sim_preset(1, MachinePreset::Ideal);
}

struct WrongCast;
impl ChareInit for WrongCast {
    type Seed = u32;
    fn create(_seed: u32, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.send(me, EP_PING, 5u64);
        WrongCast
    }
}
impl Chare for WrongCast {
    fn entry(&mut self, _ep: EpId, msg: MsgBody, _ctx: &mut Ctx) {
        let _ = cast::<String>(msg); // wrong type
    }
}

#[test]
#[should_panic(expected = "wrong type")]
fn casting_wrong_message_type_panics() {
    let mut b = ProgramBuilder::new();
    let kind = b.chare::<WrongCast>();
    b.main(kind, 0u32);
    let _ = b.build().run_sim_preset(1, MachinePreset::Ideal);
}

// ---------------------------------------------------------------------
// Counter accounting: sends == receives at quiescence.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct AcctSeed {
    burst: Kind<BurstChare>,
}
message!(AcctSeed);

#[derive(Clone, Copy)]
struct BurstSeed {
    depth: u32,
    kind: Kind<BurstChare>,
}
message!(BurstSeed);

struct BurstChare;
impl ChareInit for BurstChare {
    type Seed = BurstSeed;
    fn create(seed: BurstSeed, ctx: &mut Ctx) -> Self {
        if seed.depth > 0 {
            for _ in 0..2 {
                ctx.create(
                    seed.kind,
                    BurstSeed {
                        depth: seed.depth - 1,
                        kind: seed.kind,
                    },
                );
            }
        }
        ctx.destroy_self();
        BurstChare
    }
}
impl Chare for BurstChare {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!()
    }
}

struct AcctMain;
impl ChareInit for AcctMain {
    type Seed = AcctSeed;
    fn create(seed: AcctSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        ctx.start_quiescence(Notify::Chare(me, EP_DONE));
        ctx.create(
            seed.burst,
            BurstSeed {
                depth: 6,
                kind: seed.burst,
            },
        );
        AcctMain
    }
}
impl Chare for AcctMain {
    fn entry(&mut self, _ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        let _ = cast::<QuiescenceMsg>(msg);
        ctx.exit(());
    }
}

#[test]
fn message_accounting_balances_at_quiescence() {
    let mut b = ProgramBuilder::new();
    let burst = b.chare::<BurstChare>();
    let main = b.chare::<AcctMain>();
    b.balance(BalanceStrategy::Random);
    b.main(main, AcctSeed { burst });
    let rep = b.build().run_sim_preset(8, MachinePreset::NcubeLike);
    // At quiescence (just before the exit notification), all user
    // messages sent had been received. The exit notification itself is
    // sent and received too, so totals still balance.
    let sent = rep.total().user_sent;
    let recv = rep.total().user_recv;
    assert_eq!(sent, recv, "sent {sent} != received {recv}");
    // 2^7 - 1 = 127 burst chares plus the main chare.
    assert_eq!(rep.total().chares_created, 128);
}

// ---------------------------------------------------------------------
// Explicit placement covers every PE.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct PlaceSeed {
    probe: Kind<PlaceProbe>,
}
message!(PlaceSeed);

#[derive(Clone, Copy)]
struct PlaceProbeSeed {
    parent: ChareId,
}
message!(PlaceProbeSeed);

struct PlaceProbe;
impl ChareInit for PlaceProbe {
    type Seed = PlaceProbeSeed;
    fn create(seed: PlaceProbeSeed, ctx: &mut Ctx) -> Self {
        ctx.send(seed.parent, EP_PING, ctx.pe().0);
        ctx.destroy_self();
        PlaceProbe
    }
}
impl Chare for PlaceProbe {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {
        unreachable!()
    }
}

struct PlaceMain {
    seen: Vec<u32>,
}
impl ChareInit for PlaceMain {
    type Seed = PlaceSeed;
    fn create(seed: PlaceSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        for pe in 0..ctx.npes() {
            ctx.create_on(Pe::from(pe), seed.probe, PlaceProbeSeed { parent: me });
        }
        PlaceMain { seen: Vec::new() }
    }
}
impl Chare for PlaceMain {
    fn entry(&mut self, _ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        self.seen.push(cast::<u32>(msg));
        if self.seen.len() == ctx.npes() {
            self.seen.sort_unstable();
            ctx.exit(self.seen.clone());
        }
    }
}

#[test]
fn create_on_places_exactly_where_asked() {
    let mut b = ProgramBuilder::new();
    let probe = b.chare::<PlaceProbe>();
    let main = b.chare::<PlaceMain>();
    // Even with an aggressive balancer, create_on must be respected.
    b.balance(BalanceStrategy::Random);
    b.main(main, PlaceSeed { probe });
    let mut rep = b.build().run_sim_preset(6, MachinePreset::NcubeLike);
    assert_eq!(
        rep.take_result::<Vec<u32>>(),
        Some(vec![0, 1, 2, 3, 4, 5])
    );
}

// ---------------------------------------------------------------------
// Priority-respecting delivery on one PE.
// ---------------------------------------------------------------------

struct PrioMain {
    got: Vec<i64>,
}

#[derive(Clone)]
struct PrioSeed;
message!(PrioSeed);

impl ChareInit for PrioMain {
    type Seed = PrioSeed;
    fn create(_seed: PrioSeed, ctx: &mut Ctx) -> Self {
        let me = ctx.self_id();
        // All sends are local and enqueued before any is processed, so
        // the integer-priority queue must reorder them.
        for v in [5i64, 1, 4, 2, 3] {
            ctx.send_prio(me, EP_PING, v, Priority::Int(v));
        }
        PrioMain { got: Vec::new() }
    }
}

impl Chare for PrioMain {
    fn entry(&mut self, _ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
        self.got.push(cast::<i64>(msg));
        if self.got.len() == 5 {
            ctx.exit(self.got.clone());
        }
    }
}

#[test]
fn priority_queue_reorders_local_sends() {
    let mut b = ProgramBuilder::new();
    let main = b.chare::<PrioMain>();
    b.queueing(QueueingStrategy::IntPriority);
    b.main(main, PrioSeed);
    let mut rep = b.build().run_sim_preset(1, MachinePreset::NcubeLike);
    assert_eq!(rep.take_result::<Vec<i64>>(), Some(vec![1, 2, 3, 4, 5]));
}

#[test]
fn fifo_preserves_local_send_order() {
    let mut b = ProgramBuilder::new();
    let main = b.chare::<PrioMain>();
    b.queueing(QueueingStrategy::Fifo);
    b.main(main, PrioSeed);
    let mut rep = b.build().run_sim_preset(1, MachinePreset::NcubeLike);
    assert_eq!(rep.take_result::<Vec<i64>>(), Some(vec![5, 1, 4, 2, 3]));
}

// ---------------------------------------------------------------------
// Write-once misuse and re-entrant branch calls.
// ---------------------------------------------------------------------

struct EarlyReader;
impl ChareInit for EarlyReader {
    type Seed = u32;
    fn create(_seed: u32, ctx: &mut Ctx) -> Self {
        // Reading a write-once variable that was never created (or not
        // yet replicated here) is a programming error.
        let bogus = WoId(12345);
        let _ = ctx.wo_get::<u64>(bogus);
        EarlyReader
    }
}
impl Chare for EarlyReader {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {}
}

#[test]
#[should_panic(expected = "not (yet) replicated")]
fn reading_unreplicated_write_once_panics() {
    let mut b = ProgramBuilder::new();
    let kind = b.chare::<EarlyReader>();
    b.main(kind, 0u32);
    let _ = b.build().run_sim_preset(2, MachinePreset::Ideal);
}

struct Reentrant;
impl BranchInit for Reentrant {
    type Cfg = ();
    fn create(_cfg: (), _ctx: &mut Ctx) -> Self {
        Reentrant
    }
}
impl Branch for Reentrant {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, ctx: &mut Ctx) {
        // A branch calling with_branch on *itself* would alias its own
        // &mut self — the kernel must refuse.
        let me = ctx.self_boc::<Reentrant>();
        ctx.with_branch(me, |_b: &mut Reentrant, _ctx| ());
    }
}

#[derive(Clone)]
struct ReentrantSeed {
    boc: Boc<Reentrant>,
}
message!(ReentrantSeed);

struct ReentrantMain;
impl ChareInit for ReentrantMain {
    type Seed = ReentrantSeed;
    fn create(seed: ReentrantSeed, ctx: &mut Ctx) -> Self {
        ctx.send_branch(seed.boc, Pe::ZERO, EP_PING, ());
        ReentrantMain
    }
}
impl Chare for ReentrantMain {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {}
}

#[test]
#[should_panic(expected = "re-entrant")]
fn reentrant_branch_call_panics() {
    let mut b = ProgramBuilder::new();
    let boc = b.boc::<Reentrant>(());
    let main = b.chare::<ReentrantMain>();
    b.main(main, ReentrantSeed { boc });
    let _ = b.build().run_sim_preset(1, MachinePreset::Ideal);
}

struct BranchDestroyer;
impl BranchInit for BranchDestroyer {
    type Cfg = ();
    fn create(_cfg: (), _ctx: &mut Ctx) -> Self {
        BranchDestroyer
    }
}
impl Branch for BranchDestroyer {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, ctx: &mut Ctx) {
        ctx.destroy_self(); // branches are permanent
    }
}

#[derive(Clone)]
struct DestroyerSeed {
    boc: Boc<BranchDestroyer>,
}
message!(DestroyerSeed);

struct DestroyerMain;
impl ChareInit for DestroyerMain {
    type Seed = DestroyerSeed;
    fn create(seed: DestroyerSeed, ctx: &mut Ctx) -> Self {
        ctx.send_branch(seed.boc, Pe::ZERO, EP_PING, ());
        DestroyerMain
    }
}
impl Chare for DestroyerMain {
    fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {}
}

#[test]
#[should_panic(expected = "branches cannot be destroyed")]
fn destroying_a_branch_panics() {
    let mut b = ProgramBuilder::new();
    let boc = b.boc::<BranchDestroyer>(());
    let main = b.chare::<DestroyerMain>();
    b.main(main, DestroyerSeed { boc });
    let _ = b.build().run_sim_preset(1, MachinePreset::Ideal);
}
