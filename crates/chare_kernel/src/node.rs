//! The per-PE kernel node and its top stratum, the scheduler.
//!
//! `CkNode` implements [`NodeProgram`], so the same node runs on the
//! discrete-event simulator, the thread backend and the multi-process
//! backend. Its `step` processes all pending kernel control messages,
//! then executes at most one user message — the message-driven
//! scheduling loop of the paper.
//!
//! The node is a stack of strata with one-way dependencies:
//!
//! ```text
//! scheduler (this module)    queue, chare and branch tables, control queue
//!    |  dispatches each control message to the service that owns it
//! services                   shared (variables)  balance (seeds)  quiescence
//!    |  send through a Port; never call each other or the scheduler
//! transport                  combining, reliable frames, acks, alarm, broadcast
//!    |
//! machine layer              multicomputer::NetCtx
//! ```
//!
//! The scheduler **owns** the work queue, the chare and branch tables
//! and the control queue, and runs user code ([`Ctx`] is its face toward
//! an entry method). It **may call** every service and the transport;
//! nothing below calls back into it.

use std::collections::VecDeque;
use std::sync::Arc;

use multicomputer::{NetCtx, NodeProgram, Packet, Pe, StepKind};

use crate::balance::SeedManager;
use crate::boc::BranchObj;
use crate::chare::Chare;
use crate::ctx::{Ctx, Current};
use crate::envelope::{Seed, SysMsg, WorkItem};
use crate::ids::{BocId, ChareId};
use crate::priority::Priority;
use crate::probe::{emit, Probe, Shard};
use crate::queueing::SchedQueue;
use crate::quiescence::QdCoordinator;
use crate::registry::Registry;
use crate::shared::SharedVars;
use crate::stats::KernelCounters;
use crate::trace::{EntryWhat, EventKind};
use crate::transport::{Arrival, Port, Transport};

/// One PE's kernel state.
pub struct CkNode {
    pub(crate) pe: Pe,
    pub(crate) npes: usize,
    pub(crate) reg: Arc<Registry>,
    queue: Box<dyn SchedQueue<WorkItem>>,
    /// Kernel control messages awaiting the next step.
    ctl: VecDeque<(Pe, SysMsg)>,
    chares: Vec<Option<Box<dyn Chare>>>,
    free_slots: Vec<u32>,
    branches: Vec<Option<Box<dyn BranchObj>>>,
    transport: Transport,
    pub(crate) shared: SharedVars,
    seeds: SeedManager,
    /// Quiescence coordinator (PE 0 only).
    qd: Option<QdCoordinator>,
    pub(crate) counters: KernelCounters,
    /// This PE's recorder: the one ring, and the metrics fold if
    /// metered, that every event reported through [`emit`] lands in
    /// (`None` = recording off). Recording is passive — no sends, no
    /// charges — so enabling it never changes a run's schedule. The
    /// `counters` above are bumped beside each report, not by it:
    /// `user_sent` and `user_recv` are quiescence-protocol state that
    /// must move with recording off.
    probe: Option<Probe>,
    /// Last queue length recorded, so samples fire only on change.
    last_q_sample: Option<u32>,
}

/// The node split along its strata for one entry point: the port every
/// send goes through, the services that send through it, and the work
/// queue kept seeds go in — disjoint fields, borrowed together.
pub(crate) struct Strata<'a> {
    pub(crate) port: Port<'a>,
    pub(crate) shared: &'a mut SharedVars,
    pub(crate) seeds: &'a mut SeedManager,
    pub(crate) qd: &'a mut Option<QdCoordinator>,
    pub(crate) queue: &'a mut dyn SchedQueue<WorkItem>,
}

/// File one message the transport released (or a tree broadcast
/// carried): a message for a chare or branch becomes work in the
/// scheduler queue — the one place that happens — and anything else
/// waits in the control queue for the next step.
fn file(
    queue: &mut dyn SchedQueue<WorkItem>,
    ctl: &mut VecDeque<(Pe, SysMsg)>,
    me: Pe,
    from: Pe,
    sys: SysMsg,
) {
    match sys {
        SysMsg::ChareMsg { target, ep, body, prio, .. } => {
            debug_assert_eq!(target.pe, me, "misrouted chare message");
            queue.push(prio, WorkItem::ChareMsg { local: target.local, ep, body });
        }
        SysMsg::BranchMsg { boc, ep, body, prio, .. } => {
            queue.push(prio, WorkItem::BranchMsg { boc, ep, body });
        }
        other => ctl.push_back((from, other)),
    }
}

/// Time spent between two `(now_ns, charged_ns)` readings of one PE's
/// [`NetCtx`]: the clock's advance plus the charges made. The
/// simulator's clock stands still inside a handler and only charges
/// move; the real backends charge nothing and only the clock moves — so
/// the one sum is exact on every backend, with no backend to ask about.
fn spent_ns(before: (u64, u64), after: (u64, u64)) -> u64 {
    (after.0 - before.0) + (after.1 - before.1)
}

impl CkNode {
    pub(crate) fn new(
        pe: Pe,
        npes: usize,
        reg: Arc<Registry>,
        queue: Box<dyn SchedQueue<WorkItem>>,
        seeds: SeedManager,
        transport: Transport,
        probe: Option<Probe>,
    ) -> Self {
        CkNode {
            pe,
            npes,
            queue,
            ctl: VecDeque::new(),
            chares: Vec::new(),
            free_slots: Vec::new(),
            branches: Vec::new(),
            transport,
            shared: SharedVars::new(Arc::clone(&reg)),
            reg,
            seeds,
            qd: (pe == Pe::ZERO).then(|| QdCoordinator::new(npes)),
            counters: KernelCounters::default(),
            probe,
            last_q_sample: None,
        }
    }

    pub(crate) fn strata<'a>(&'a mut self, net: &'a mut dyn NetCtx) -> Strata<'a> {
        Strata {
            port: Port {
                t: &mut self.transport,
                net,
                probe: &self.probe,
                counters: &mut self.counters,
                ctl: &mut self.ctl,
            },
            shared: &mut self.shared,
            seeds: &mut self.seeds,
            qd: &mut self.qd,
            queue: &mut *self.queue,
        }
    }

    /// Record a queue-length sample if the backlog changed since the
    /// last sample (keeps the counter track step-shaped, not per-event).
    fn sample_queue(&mut self, net: &dyn NetCtx) {
        let len = self.user_load() as u32;
        if self.last_q_sample != Some(len) {
            self.last_q_sample = Some(len);
            emit(&self.probe, || (net.now_ns(), 0, EventKind::QueueSample { len }));
        }
    }

    /// This node at the end of its run, as one [`Shard`]: its counters,
    /// with the end-state snapshots of what was still queued or in
    /// flight, beside whatever its probe recorded. The desim oracles read
    /// the snapshots to decide whether the exactly-once seed ledger must
    /// balance (all zero ⇒ every spawned seed had to have been
    /// constructed) and whether quiescence fired over undelivered traffic.
    pub(crate) fn into_shard(self) -> Shard {
        let mut counters = self.counters;
        counters.backlog_end = self.user_load() as u64;
        self.transport.end_state(&mut counters);
        match self.probe {
            Some(probe) => probe.into_shard(counters),
            None => Shard { counters, ..Shard::default() },
        }
    }

    /// Runnable user backlog (queued messages + pooled seeds).
    pub(crate) fn user_load(&self) -> usize {
        self.queue.len() + self.seeds.pooled()
    }

    /// Record the backlog high-water mark after an enqueue.
    fn note_backlog(&mut self) {
        let load = self.user_load() as u64;
        if load > self.counters.queue_hwm {
            self.counters.queue_hwm = load;
            if let Some(p) = &self.probe {
                p.queue_peak(load);
            }
        }
    }

    /// Whether any *user* activity is pending on this PE (for the
    /// quiescence idle flag): runnable work or unplaced user messages in
    /// the control queue.
    fn user_pending(&self) -> bool {
        self.user_load() > 0 || self.ctl.iter().any(|(_, m)| m.counted())
    }

    /// A chare creation was requested on this PE: place the seed on
    /// `on`, or wherever the load balancer says.
    pub(crate) fn create(&mut self, net: &mut dyn NetCtx, on: Option<Pe>, seed: Seed) {
        let mut s = self.strata(net);
        if s.seeds.spawn(&mut s.port, s.queue, on, seed) {
            self.note_backlog();
        }
    }

    /// Run a seed through the load balancer: keep it here or forward it.
    pub(crate) fn place_seed(&mut self, net: &mut dyn NetCtx, seed: Seed, hops: u32) {
        let mut s = self.strata(net);
        if s.seeds.place(&mut s.port, s.queue, seed, hops) {
            self.note_backlog();
        }
    }

    /// Take this PE's branch of `boc` out of the table until
    /// [`Self::put_branch`]; `None` while the branch itself executes.
    pub(crate) fn take_branch(&mut self, boc: BocId) -> Option<Box<dyn BranchObj>> {
        self.branches.get_mut(boc.0 as usize).and_then(|s| s.take())
    }

    pub(crate) fn put_branch(&mut self, boc: BocId, obj: Box<dyn BranchObj>) {
        self.branches[boc.0 as usize] = Some(obj);
    }

    /// Dispatch one kernel control message to the stratum that owns it.
    fn handle_sys(&mut self, net: &mut dyn NetCtx, from: Pe, sys: SysMsg) {
        match sys {
            SysMsg::NewChare { seed, hops } => self.place_seed(net, seed, hops),
            SysMsg::TreeCast { origin, counted, bytes, gen } => {
                self.strata(net).port.relay_treecast(origin, counted, bytes, gen)
            }
            // User messages normally enter the scheduler queue straight
            // from `incoming`; they pass through here when carried by a
            // tree broadcast.
            user @ (SysMsg::ChareMsg { .. } | SysMsg::BranchMsg { .. }) => {
                file(&mut *self.queue, &mut self.ctl, self.pe, from, user)
            }
            shared @ (SysMsg::AccCollect { .. }
            | SysMsg::AccPart { .. }
            | SysMsg::MonoUpdate { .. }
            | SysMsg::TablePut { .. }
            | SysMsg::TableGet { .. }
            | SysMsg::TableDelete { .. }
            | SysMsg::WoStore { .. }
            | SysMsg::WoAck { .. }) => {
                let mut s = self.strata(net);
                s.shared.handle(&mut s.port, shared)
            }
            qd @ (SysMsg::QdStart { .. } | SysMsg::QdPoll { .. } | SysMsg::QdCount { .. }) => {
                let busy = self.user_pending();
                let mut s = self.strata(net);
                crate::quiescence::handle(s.qd, &mut s.port, busy, qd)
            }
            balance @ (SysMsg::LoadStatus { .. } | SysMsg::WorkReq { .. } | SysMsg::WorkNack) => {
                let mut s = self.strata(net);
                s.seeds.handle(&mut s.port, s.queue, from, balance)
            }
            SysMsg::Batch(_) | SysMsg::RelData { .. } | SysMsg::RelAck { .. } => {
                unreachable!("Transport::unwrap peels batches and reliable frames on arrival")
            }
        }
    }

    /// Execute one unit of user work.
    fn exec_item(&mut self, net: &mut dyn NetCtx, item: WorkItem) {
        self.counters.entries_executed += 1;
        let (what, ep) = match &item {
            WorkItem::NewChare(seed) => (EntryWhat::Create(seed.kind), None),
            WorkItem::ChareMsg { local, ep, .. } => (EntryWhat::Chare(*local), Some(*ep)),
            WorkItem::BranchMsg { boc, ep, .. } => (EntryWhat::Branch(*boc), Some(*ep)),
        };
        let mut begun_ns = 0;
        emit(&self.probe, || {
            begun_ns = net.now_ns();
            (begun_ns, 0, EventKind::EntryBegin { what, ep })
        });
        let sent_before = self.counters.user_sent;
        let charged_before = net.charged_ns();
        self.run_item(net, item);
        emit(&self.probe, || {
            let msgs_sent = (self.counters.user_sent - sent_before) as u32;
            // The entry's grain, off the two stamps its events carry.
            let (now, charged) = (net.now_ns(), net.charged_ns());
            let grain_ns = spent_ns((begun_ns, charged_before), (now, charged));
            (now, grain_ns, EventKind::EntryEnd { msgs_sent })
        });
    }

    /// Run the handler behind one work item.
    fn run_item(&mut self, net: &mut dyn NetCtx, item: WorkItem) {
        match item {
            WorkItem::NewChare(seed) => {
                let slot = self.free_slots.pop().unwrap_or_else(|| {
                    self.chares.push(None);
                    (self.chares.len() - 1) as u32
                });
                let id = ChareId { pe: self.pe, local: slot };
                self.counters.chares_created += 1;
                // A copied `fn` pointer: no refcount write per creation.
                let create = self.reg.chares[seed.kind.0 as usize].create;
                let mut ctx = Ctx::new(self, net, Current::Chare(id));
                match create(seed.body, &mut ctx) {
                    Some(obj) => self.chares[slot as usize] = Some(obj),
                    None => self.free_slots.push(slot),
                }
            }
            WorkItem::ChareMsg { local, ep, body } => {
                let Some(mut obj) = self.chares.get_mut(local as usize).and_then(|s| s.take())
                else {
                    self.counters.dead_letters += 1;
                    return;
                };
                let id = ChareId { pe: self.pe, local };
                let mut ctx = Ctx::new(self, net, Current::Chare(id));
                obj.entry(ep, body, &mut ctx);
                if ctx.destroy_requested {
                    self.free_slots.push(local);
                } else {
                    self.chares[local as usize] = Some(obj);
                }
            }
            WorkItem::BranchMsg { boc, ep, body } => {
                let mut obj =
                    self.take_branch(boc).expect("branch missing (re-entrant branch call?)");
                let mut ctx = Ctx::new(self, net, Current::Branch(boc));
                obj.entry(ep, body, &mut ctx);
                self.put_branch(boc, obj);
            }
        }
    }

    fn step_inner(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
        // What `incoming` left owing the wire goes first.
        let mut did = self.strata(net).port.begin_step().then_some(StepKind::Control);
        // Kernel control first (placement, shared variables, QD, tokens).
        while let Some((from, sys)) = self.ctl.pop_front() {
            self.handle_sys(net, from, sys);
            did = Some(StepKind::Control);
        }
        // Then at most one user message.
        let item = self.queue.pop().or_else(|| self.seeds.pop_pooled());
        if let Some(item) = item {
            self.exec_item(net, item);
            did = Some(StepKind::User);
        }
        let mut s = self.strata(net);
        s.seeds.report_load(&mut s.port, s.queue);
        s.seeds.request_work(&mut s.port, s.queue);
        self.sample_queue(&*net);
        did
    }
}

impl NodeProgram for CkNode {
    fn boot(&mut self, net: &mut dyn NetCtx) {
        // Construct every BOC branch, in registration order.
        let reg = Arc::clone(&self.reg);
        for (i, entry) in reg.bocs.iter().enumerate() {
            self.branches.push(None);
            let mut ctx = Ctx::new(self, net, Current::Branch(BocId(i as u32)));
            let obj = (entry.create)(&mut ctx);
            self.branches[i] = Some(obj);
        }
        // The main chare always starts on PE 0, exempt from balancing.
        if let Some(main) = reg.main.as_ref().filter(|_| self.pe == Pe::ZERO) {
            let (body, bytes) = (main.make_seed)();
            self.counters.seeds_spawned += 1;
            self.counters.seeds_kept += 1;
            let (kind, prio) = (main.kind, Priority::None);
            emit(&self.probe, || (net.now_ns(), 0, EventKind::SeedKept { kind, hops: 0 }));
            let seed = Seed { kind, body, bytes, prio };
            self.queue.push(Priority::None, WorkItem::NewChare(seed));
        }
        // A load report, and the initial kick receiver-initiated
        // balancing needs: idle PEs are never stepped, so the first
        // work request must go out now.
        let mut s = self.strata(net);
        s.seeds.report_load(&mut s.port, s.queue);
        s.seeds.request_work(&mut s.port, s.queue);
        s.port.flush();
    }

    fn incoming(&mut self, pkt: Packet) {
        let arrival = Arrival { from: pkt.from, at_ns: pkt.at_ns, sent_ns: pkt.sent_ns };
        let bx =
            pkt.payload.downcast::<SysMsg>().expect("kernel node received a non-kernel packet");
        let (queue, ctl, me) = (&mut *self.queue, &mut self.ctl, self.pe);
        let mut deliver = |from, sys| file(queue, ctl, me, from, sys);
        self.transport.unwrap(
            &mut self.counters,
            &self.probe,
            arrival,
            crate::pool::reclaim(bx),
            &mut deliver,
        );
        self.note_backlog();
    }

    fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
        // Read only when recording: on the real backends the clock is
        // a measurable share of a fine-grain step.
        let before = self.probe.as_ref().map(|_| (net.now_ns(), net.charged_ns()));
        let r = self.step_inner(net);
        self.strata(net).port.flush();
        if let (Some(p), Some(before), Some(_)) = (&self.probe, before, r) {
            p.step(before.0, spent_ns(before, (net.now_ns(), net.charged_ns())), r);
        }
        r
    }

    fn has_work(&self) -> bool {
        !self.ctl.is_empty()
            || !self.queue.is_empty()
            || self.seeds.pooled() > 0
            || self.transport.pending()
    }

    fn alarm(&mut self, net: &mut dyn NetCtx) {
        let before = (net.now_ns(), net.charged_ns());
        let mut s = self.strata(net);
        let mut settled = false;
        for rd in s.port.on_alarm() {
            settled |= s.seeds.rehome(&mut s.port, s.queue, rd);
        }
        s.port.flush();
        if settled {
            self.note_backlog();
        }
        if let Some(p) = &self.probe {
            p.step(before.0, spent_ns(before, (net.now_ns(), net.charged_ns())), None);
        }
    }

    fn backlog(&self) -> usize {
        self.user_load()
    }

    fn duplicate(payload: &multicomputer::Payload) -> Option<multicomputer::Payload> {
        crate::reliable::duplicate(payload)
    }

    /// Only the recorder reads packet stamps (the reliable layer's
    /// arrival transitions ignore the time they are handed).
    fn stamps(&self) -> bool {
        self.probe.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::BalanceStrategy;
    use crate::bcast::BroadcastMode;
    use crate::envelope::{MsgBody, PLACED};
    use crate::ids::{ChareKind, Notify};
    use crate::queueing::QueueingStrategy;
    use crate::reliable::{RedirectSeed, ReliableConfig};
    use crate::transport::testnet::MockNet;

    /// A node over an empty registry and a FIFO queue, with combining,
    /// reliable delivery and recording off (tests that want them swap
    /// `node.transport` / `node.probe`).
    fn bare_node(
        pe: Pe,
        npes: usize,
        bcast: BroadcastMode,
        balance: BalanceStrategy,
        neighbors: Vec<Pe>,
    ) -> CkNode {
        CkNode::new(
            pe,
            npes,
            Arc::new(Registry::new()),
            QueueingStrategy::Fifo.make(),
            SeedManager::new(balance.make(pe, npes, neighbors), pe, 7),
            Transport::new(pe, npes, bcast, false, None),
            None,
        )
    }

    /// A seed declaring `bytes` of constructor argument.
    fn seed(bytes: u32) -> Seed {
        Seed { kind: ChareKind(0), body: MsgBody::new(()), bytes, prio: Priority::None }
    }

    #[test]
    fn post_counts_user_traffic_only() {
        let mut node = bare_node(Pe(0), 4, BroadcastMode::Tree, BalanceStrategy::Local, vec![]);
        let mut net = MockNet::new(Pe(0), 4);
        node.strata(&mut net).port.post(Pe(1), SysMsg::QdPoll { wave: 1 });
        assert_eq!(node.counters.user_sent, 0);
        node.strata(&mut net)
            .port
            .post(Pe(2), SysMsg::MonoUpdate { mono: crate::ids::MonoId(0), value: MsgBody::new(1u64) });
        assert_eq!(node.counters.user_sent, 1);
        assert_eq!(net.dests(), vec![Pe(1), Pe(2)]);
    }

    #[test]
    fn deliver_notify_routes_to_the_right_pe() {
        let mut node = bare_node(Pe(0), 4, BroadcastMode::Tree, BalanceStrategy::Local, vec![]);
        let mut net = MockNet::new(Pe(0), 4);
        let chare = ChareId { pe: Pe(3), local: 7 };
        let mut port = node.strata(&mut net).port;
        port.notify(Notify::Chare(chare, crate::ids::EpId(1)), MsgBody::new(()), 0);
        port.notify(Notify::Branch(BocId(0), Pe(2), crate::ids::EpId(1)), MsgBody::new(()), 0);
        assert_eq!(net.dests(), vec![Pe(3), Pe(2)]);
        // Both notifications are user traffic.
        assert_eq!(node.counters.user_sent, 2);
    }

    #[test]
    fn direct_broadcast_sends_to_everyone_else() {
        let mut node = bare_node(Pe(1), 5, BroadcastMode::Direct, BalanceStrategy::Local, vec![]);
        let mut net = MockNet::new(Pe(1), 5);
        node.strata(&mut net).port.post_broadcast(false, Arc::new(|| SysMsg::QdPoll { wave: 3 }));
        let mut dests = net.dests();
        dests.sort();
        assert_eq!(dests, vec![Pe(0), Pe(2), Pe(3), Pe(4)]);
        assert!(node.ctl.is_empty(), "include_self was false");
    }

    #[test]
    fn tree_broadcast_sends_to_children_and_queues_self() {
        let mut node = bare_node(Pe(0), 8, BroadcastMode::Tree, BalanceStrategy::Local, vec![]);
        let mut net = MockNet::new(Pe(0), 8);
        node.strata(&mut net).port.post_broadcast(true, Arc::new(|| SysMsg::QdPoll { wave: 3 }));
        // Children of rank 0 over 8 PEs: 1, 2, 4.
        assert_eq!(net.dests(), vec![Pe(1), Pe(2), Pe(4)]);
        assert_eq!(node.ctl.len(), 1, "own copy queued locally");
    }

    #[test]
    fn placed_seed_skips_the_balancer() {
        // A Random balancer would forward; PLACED must enqueue locally.
        let mut node = bare_node(Pe(0), 4, BroadcastMode::Tree, BalanceStrategy::Random, vec![]);
        let mut net = MockNet::new(Pe(0), 4);
        node.place_seed(&mut net, seed(0), PLACED);
        assert!(net.sent.is_empty(), "placed seed must not be forwarded");
        assert_eq!(node.user_load(), 1);
        assert_eq!(node.counters.seeds_kept, 1);
    }

    #[test]
    fn each_event_site_reports_exactly_once() {
        use crate::program::RunOpts;
        use crate::trace::{MsgClass, TraceConfig, TraceEvent};

        // A reliable Random-balanced node (forwards fresh seeds, can
        // redirect reclaimed ones) recording a trace.
        let opts = RunOpts { tracing: Some(TraceConfig), ..RunOpts::default() };
        let mut node = bare_node(Pe(0), 4, BroadcastMode::Tree, BalanceStrategy::Random, vec![]);
        let reliable = Some(ReliableConfig::default());
        node.transport = Transport::new(Pe(0), 4, BroadcastMode::Tree, false, reliable);
        node.probe = Probe::for_run(Pe(0), &opts, 0, 0);
        let mut net = MockNet::new(Pe(0), 4);

        node.strata(&mut net).port.post(Pe(1), SysMsg::QdPoll { wave: 1 });
        node.place_seed(&mut net, seed(0), PLACED);
        // With this RNG seed Random sends the fresh seed away...
        node.place_seed(&mut net, seed(0), 0);
        let rd = RedirectSeed { suspect: Pe(1), seed: SysMsg::NewChare { seed: seed(0), hops: 1 } };
        let mut s = node.strata(&mut net);
        s.seeds.rehome(&mut s.port, s.queue, rd);
        let events = node.into_shard().events;
        let kinds: Vec<&EventKind> = events.iter().map(|e: &TraceEvent| &e.kind).collect();
        assert!(
            matches!(
                kinds[..],
                [
                    EventKind::MsgSend { class: MsgClass::Qd, .. },
                    EventKind::SeedKept { hops: PLACED, .. },
                    // ...and forwarding posts the seed onward.
                    EventKind::SeedForwarded { hops: 0, .. },
                    EventKind::MsgSend { class: MsgClass::Seed, hops: 1, .. },
                    EventKind::SeedRedirected { .. },
                ]
            ),
            "got {kinds:?}"
        );
    }

    #[test]
    fn every_entry_point_leaves_the_transport_flushed() {
        // Combining and reliable delivery both on: whatever an entry
        // point posts must be on the wire when it returns, and
        // `has_work` must not hide anything the transport still holds.
        let cfg = ReliableConfig { seed_retry_limit: 0, ..ReliableConfig::default() };
        let token = || BalanceStrategy::TokenIdle;
        let mut node = bare_node(Pe(0), 2, BroadcastMode::Tree, token(), vec![Pe(1)]);
        node.transport = Transport::new(Pe(0), 2, BroadcastMode::Tree, true, Some(cfg));
        let mut net = MockNet::new(Pe(0), 2);

        // boot: an idle token-balanced PE posts its first work request.
        node.boot(&mut net);
        assert_eq!(net.sent.len(), 1, "boot's work request left with boot");
        assert!(!node.transport.pending() && !node.has_work());

        // A combined post with no flush shows up as work to do...
        node.strata(&mut net).port.post(Pe(1), SysMsg::QdPoll { wave: 1 });
        assert_eq!(net.sent.len(), 1, "combining holds the message");
        assert!(node.transport.pending() && node.has_work());
        // ...and the step it asks for ships it.
        node.step(&mut net);
        assert_eq!(net.sent.len(), 2);
        assert!(!node.transport.pending() && !node.has_work());

        // step: a pooled seed (too bulky to combine) is granted to PE 1
        // at once; the work request this PE then sends waits in the
        // combining buffer and leaves when the step does.
        node.ctl.push_back((Pe(0), SysMsg::NewChare { seed: seed(600), hops: 0 }));
        node.ctl.push_back((Pe(1), SysMsg::WorkReq { origin: Pe(1), ttl: 0 }));
        node.step(&mut net);
        assert_eq!((node.counters.work_grants, node.counters.work_reqs), (1, 2));
        assert_eq!(net.sent.len(), 4, "grant and request both left with the step");
        assert!(!node.transport.pending() && !node.has_work());

        // alarm: the granted seed times out against PE 1, is reclaimed
        // and — PE 1 being the only other PE — settles here.
        net.now = ReliableConfig::default().timeout.as_nanos();
        node.alarm(&mut net);
        assert_eq!(node.counters.seeds_redirected, 1);
        assert_eq!(net.sent.len(), 5, "the head-of-line frame went back on the wire");
        assert!(!node.transport.pending(), "alarm ended in a flush");
        assert_eq!(node.backlog(), 1, "the reclaimed seed is this PE's work now");
    }

    #[test]
    fn backlog_high_water_mark_tracks_peak() {
        let mut node = bare_node(Pe(0), 2, BroadcastMode::Tree, BalanceStrategy::Local, vec![]);
        let mut net = MockNet::new(Pe(0), 2);
        for _ in 0..5 {
            node.place_seed(&mut net, seed(0), PLACED);
        }
        assert_eq!(node.counters.queue_hwm, 5);
        assert_eq!(node.user_load(), 5);
    }

    #[test]
    fn work_request_walks_on_when_idle() {
        // An idle, empty node with TTL left forwards the request to a
        // neighbor instead of answering.
        let token = BalanceStrategy::TokenIdle;
        let mut node = bare_node(Pe(1), 4, BroadcastMode::Tree, token, vec![Pe(0), Pe(3)]);
        let mut net = MockNet::new(Pe(1), 4);
        node.ctl.push_back((Pe(2), SysMsg::WorkReq { origin: Pe(2), ttl: 3 }));
        let kind = node.step(&mut net);
        assert_eq!(kind, Some(StepKind::Control));
        // First round-robin neighbor is PE0; plus this node's own boot
        // work request is suppressed (it never booted). Inspect the
        // forwarded request.
        let fwd = net
            .sent
            .iter()
            .find_map(|(to, _, p)| {
                p.downcast_ref::<SysMsg>().and_then(|m| match m {
                    SysMsg::WorkReq { origin, ttl } => Some((*to, *origin, *ttl)),
                    _ => None,
                })
            })
            .expect("request forwarded");
        assert_eq!(fwd.1, Pe(2), "origin preserved");
        assert_eq!(fwd.2, 2, "ttl decremented");
    }

    #[test]
    fn work_request_with_expired_ttl_is_nacked() {
        let token = BalanceStrategy::TokenIdle;
        let mut node = bare_node(Pe(1), 4, BroadcastMode::Tree, token, vec![Pe(0)]);
        let mut net = MockNet::new(Pe(1), 4);
        node.ctl.push_back((Pe(2), SysMsg::WorkReq { origin: Pe(2), ttl: 0 }));
        node.step(&mut net);
        let nacked = net.sent.iter().any(|(to, _, p)| {
            *to == Pe(2)
                && p.downcast_ref::<SysMsg>().is_some_and(|m| matches!(m, SysMsg::WorkNack))
        });
        assert!(nacked, "expired request must NACK the origin");
    }

    #[test]
    fn step_on_empty_node_returns_none() {
        let mut node = bare_node(Pe(0), 2, BroadcastMode::Tree, BalanceStrategy::Local, vec![]);
        let mut net = MockNet::new(Pe(0), 2);
        assert_eq!(node.step(&mut net), None);
        assert!(!node.has_work());
        assert_eq!(node.backlog(), 0);
    }
}
