//! The per-PE kernel node: scheduler, chare table, branch table, shared
//! variables, balancing and quiescence plumbing.
//!
//! `CkNode` implements [`NodeProgram`], so the same node runs on the
//! discrete-event simulator and the thread backend. Its `step` processes
//! all pending kernel control messages, then executes at most one user
//! message — the message-driven scheduling loop of the paper.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use multicomputer::{NetCtx, NodeProgram, NodeStats, Packet, Pe, StepKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::balance::{Balancer, Placement};
use crate::bcast::{tree_children, BroadcastMode};
use crate::boc::BranchObj;
use crate::chare::Chare;
use crate::ctx::{Ctx, Current};
use crate::envelope::{CastGen, MsgBody, SysMsg, WorkItem, PLACED};
use crate::ids::{AccId, BocId, ChareId, ChareKind, Notify, WoId};
use crate::msg::Message;
use crate::priority::Priority;
use crate::probe::Probe;
use crate::queueing::SchedQueue;
use crate::quiescence::{QdAction, QdCoordinator};
use crate::registry::Registry;
use crate::reliable::{
    ack_payload, frame_payload, frame_wire_bytes, rel_ack_wire_bytes, Accept, RedirectSeed,
    RelState, ReliableConfig,
};
use crate::shared::{QuiescenceMsg, TableAck, WoReady};
use crate::stats::KernelCounters;
use crate::trace::{EntryWhat, EventKind, MsgClass};

/// Give up requesting work after this many consecutive NACKs; arrival of
/// any new seed resets the budget.
const NACK_BUDGET: u32 = 4;

/// Re-advertise load to interested PEs when the backlog changed by at
/// least this much since the last report (or crossed zero).
const LOAD_REPORT_DELTA: u32 = 4;

/// Maximum work requests a PE remembers while its seed pool is empty.
const MAX_DEFERRED: usize = 16;

/// Forwarding budget of a work request's random walk.
const WORK_REQ_TTL: u8 = 8;

/// Most seeds handed over per work request (steal-half cap).
const GRANT_MAX: usize = 16;

/// Message combining only batches messages up to this wire size; bulk
/// payloads go out immediately so small control messages never wait
/// behind them.
const COMBINE_MAX_BYTES: u32 = 512;

/// Per-program runtime knobs handed to every node.
pub(crate) struct NodeOptions {
    pub bcast: BroadcastMode,
    pub combining: bool,
    pub rng_seed: u64,
    /// Wrap remote messages in acked, retransmitted frames (for lossy
    /// machine configurations).
    pub reliable: Option<ReliableConfig>,
    /// This PE's recorder (`None` = neither tracing nor metrics on).
    pub probe: Option<Probe>,
}

pub(crate) struct CollectState {
    acc: AccId,
    /// The PE gathering this collect (root of the reduction tree).
    origin: Pe,
    /// Contributions still outstanding (tree children, or all PEs in
    /// direct mode).
    remaining: usize,
    value: MsgBody,
}

impl CollectState {
    pub(crate) fn new(acc: AccId, origin: Pe, remaining: usize, value: MsgBody) -> Self {
        CollectState {
            acc,
            origin,
            remaining,
            value,
        }
    }
}

/// One PE's kernel state.
pub struct CkNode {
    pub(crate) pe: Pe,
    pub(crate) npes: usize,
    pub(crate) reg: Arc<Registry>,
    pub(crate) queue: Box<dyn SchedQueue<WorkItem>>,
    /// Stealable seed pool (token balancing keeps seeds here).
    pub(crate) pool: VecDeque<WorkItem>,
    /// Kernel control messages awaiting the next step.
    pub(crate) sys: VecDeque<(Pe, SysMsg)>,
    pub(crate) chares: Vec<Option<Box<dyn Chare>>>,
    pub(crate) free_slots: Vec<u32>,
    pub(crate) branches: Vec<Option<Box<dyn BranchObj>>>,
    pub(crate) acc_vals: Vec<MsgBody>,
    pub(crate) mono_vals: Vec<MsgBody>,
    pub(crate) tables: Vec<HashMap<u64, MsgBody>>,
    pub(crate) wo_store: HashMap<WoId, Arc<dyn Any + Send + Sync>>,
    pub(crate) wo_pending: HashMap<WoId, (usize, Notify)>,
    pub(crate) wo_counter: u32,
    pub(crate) collects: HashMap<u64, CollectState>,
    /// Requester side: where each collect's result goes.
    pub(crate) collect_notifies: HashMap<u64, Notify>,
    pub(crate) collect_counter: u64,
    /// Quiescence coordinator (PE 0 only).
    pub(crate) qd: Option<QdCoordinator>,
    pub(crate) balancer: Box<dyn Balancer>,
    pub(crate) bcast_mode: BroadcastMode,
    /// Message combining: when enabled, remote sends buffer here during
    /// a step and flush as one batch per destination at step end.
    pub(crate) combining: bool,
    outbuf: Vec<Vec<SysMsg>>,
    /// Reliable-delivery bookkeeping (None = trust the transport).
    rel: Option<RelState>,
    pub(crate) rng: StdRng,
    pub(crate) counters: KernelCounters,
    /// This PE's recorder: the trace ring and/or the metrics fold every
    /// event reported through [`Self::probe`] lands in (`None` =
    /// recording off). Recording is passive — no sends, no charges — so
    /// enabling it never changes a run's schedule. The `counters` above
    /// are bumped beside each probe call, not by it: `user_sent` and
    /// `user_recv` are quiescence-protocol state that must move with
    /// recording off.
    probe: Option<Probe>,
    /// Last queue length recorded, so samples fire only on change.
    last_q_sample: Option<u32>,
    last_advertised: Option<u32>,
    awaiting_work: bool,
    nack_budget: u32,
    /// Token strategy: PEs whose work request found us empty; granted as
    /// soon as spare seeds appear.
    deferred_reqs: VecDeque<Pe>,
}

impl CkNode {
    pub(crate) fn new(
        pe: Pe,
        npes: usize,
        reg: Arc<Registry>,
        queue: Box<dyn SchedQueue<WorkItem>>,
        balancer: Box<dyn Balancer>,
        opts: NodeOptions,
    ) -> Self {
        let acc_vals = reg.accs.iter().map(|a| (a.init)()).collect();
        let mono_vals = reg.monos.iter().map(|m| (m.init)()).collect();
        let tables = reg.tables.iter().map(|_| HashMap::new()).collect();
        CkNode {
            pe,
            npes,
            reg,
            queue,
            pool: VecDeque::new(),
            sys: VecDeque::new(),
            chares: Vec::new(),
            free_slots: Vec::new(),
            branches: Vec::new(),
            acc_vals,
            mono_vals,
            tables,
            wo_store: HashMap::new(),
            wo_pending: HashMap::new(),
            wo_counter: 0,
            collects: HashMap::new(),
            collect_notifies: HashMap::new(),
            collect_counter: 0,
            qd: (pe == Pe::ZERO).then(|| QdCoordinator::new(npes)),
            balancer,
            bcast_mode: opts.bcast,
            combining: opts.combining,
            outbuf: (0..npes).map(|_| Vec::new()).collect(),
            rel: opts.reliable.map(|cfg| RelState::new(npes, cfg)),
            rng: StdRng::seed_from_u64(
                opts.rng_seed ^ (pe.index() as u64).wrapping_mul(0x9E37_79B9),
            ),
            counters: KernelCounters::default(),
            probe: opts.probe,
            last_q_sample: None,
            last_advertised: None,
            awaiting_work: false,
            nack_budget: NACK_BUDGET,
            deferred_reqs: VecDeque::new(),
        }
    }

    /// Report one kernel event to this PE's recorder. `observe` returns
    /// the event's timestamp and kind; with recording off this is one
    /// `Option` test and `observe` never runs, so neither the clock is
    /// read nor the event built.
    #[inline]
    fn probe(&self, observe: impl FnOnce() -> (u64, EventKind)) {
        self.probe_span(|| {
            let (at_ns, kind) = observe();
            (at_ns, 0, kind)
        });
    }

    /// [`Self::probe`] for the two events that close a span — `MsgRecv`
    /// (the message's flight time) and `EntryEnd` (the entry's charged
    /// grain): `observe` returns `(at_ns, span_ns, kind)`.
    #[inline]
    fn probe_span(&self, observe: impl FnOnce() -> (u64, u64, EventKind)) {
        if let Some(p) = &self.probe {
            let (at_ns, span_ns, kind) = observe();
            p.record(at_ns, span_ns, kind);
        }
    }

    /// Record a queue-length sample if the backlog changed since the
    /// last sample (keeps the counter track step-shaped, not per-event).
    fn sample_queue(&mut self, net: &dyn NetCtx) {
        if !self.probe.as_ref().is_some_and(|p| p.queue_samples()) {
            return;
        }
        let len = self.user_load() as u32;
        if self.last_q_sample != Some(len) {
            self.last_q_sample = Some(len);
            self.probe(|| (net.now_ns(), EventKind::QueueSample { len }));
        }
    }

    /// Runnable user backlog (queued messages + pooled seeds).
    pub(crate) fn user_load(&self) -> usize {
        self.queue.len() + self.pool.len()
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
        self.user_load() > 0 || self.sys.iter().any(|(_, m)| m.counted())
    }

    /// Send a kernel envelope, counting it if it is user traffic. With
    /// combining enabled, remote messages are buffered and flushed as
    /// one batch per destination at the end of the step.
    pub(crate) fn post(&mut self, net: &mut dyn NetCtx, to: Pe, sys: SysMsg) {
        if sys.counted() {
            self.counters.user_sent += 1;
        }
        self.probe(|| {
            let kind = EventKind::MsgSend {
                to,
                class: MsgClass::of(&sys),
                bytes: sys.wire_bytes(),
                hops: match &sys {
                    SysMsg::NewChare { hops, .. } => *hops,
                    _ => 0,
                },
            };
            (net.now_ns(), kind)
        });
        if self.combining && to != self.pe && sys.wire_bytes() <= COMBINE_MAX_BYTES {
            self.outbuf[to.index()].push(sys);
            return;
        }
        self.wire_send(net, to, sys);
    }

    /// Ship everything buffered by message combining.
    fn flush_outbuf(&mut self, net: &mut dyn NetCtx) {
        if !self.combining {
            return;
        }
        for to in 0..self.npes {
            if self.outbuf[to].is_empty() {
                continue;
            }
            let hint = self.outbuf[to].len();
            let mut batch = std::mem::replace(&mut self.outbuf[to], crate::pool::batch(hint));
            let sys = if batch.len() == 1 {
                let only = batch.pop().expect("len checked");
                crate::pool::recycle_batch(batch);
                only
            } else {
                SysMsg::Batch(batch)
            };
            self.wire_send(net, Pe::from(to), sys);
        }
    }

    /// Put one envelope on the wire. With reliable delivery enabled,
    /// remote messages are wrapped in a sequence-numbered frame, held
    /// for retransmission until acknowledged, and the retransmission
    /// alarm is (re)armed. Counting already happened in [`Self::post`],
    /// so redirected seeds can re-enter here without skewing the
    /// quiescence counters.
    fn wire_send(&mut self, net: &mut dyn NetCtx, to: Pe, sys: SysMsg) {
        if to == self.pe || self.rel.is_none() {
            let bytes = sys.wire_bytes();
            net.send(to, bytes, crate::pool::payload(sys));
            return;
        }
        // Only seeds still subject to load balancing may be re-homed if
        // the destination stops answering; everything else (including
        // batches, which were combined *for* this destination) is
        // pinned and retries forever.
        let is_seed = matches!(&sys, SysMsg::NewChare { hops, .. } if *hops != PLACED);
        let now = net.now_ns();
        let rel = self.rel.as_mut().expect("checked above");
        // A closed send window parks the message; take_ready releases
        // it from the scheduler step once acks make room.
        if let Some(reg) = rel.submit(to, sys, now, is_seed) {
            net.send(
                to,
                reg.frame_bytes,
                frame_payload(reg.seq, reg.inner_bytes, &reg.slot),
            );
            if let Some(after) = rel.rearm(now) {
                net.set_alarm(after);
            }
        }
    }

    /// Transmit messages whose send window has reopened.
    fn flush_ready(&mut self, net: &mut dyn NetCtx) -> bool {
        let Some(rel) = self.rel.as_mut() else {
            return false;
        };
        let ready = rel.take_ready(net.now_ns());
        if ready.is_empty() {
            return false;
        }
        for (to, reg) in ready {
            net.send(
                to,
                reg.frame_bytes,
                frame_payload(reg.seq, reg.inner_bytes, &reg.slot),
            );
        }
        let rel = self.rel.as_mut().expect("checked above");
        if let Some(after) = rel.rearm(net.now_ns()) {
            net.set_alarm(after);
        }
        true
    }

    /// Send any queued reliable acks. Acks travel unwrapped (they *are*
    /// the acknowledgment machinery) and uncounted; a lost ack is
    /// repaired by the retransmission it fails to suppress.
    fn flush_acks(&mut self, net: &mut dyn NetCtx) -> bool {
        let Some(rel) = self.rel.as_mut() else {
            return false;
        };
        let acks = rel.take_acks();
        if acks.is_empty() {
            return false;
        }
        for (to, seqs) in acks {
            let bytes = rel_ack_wire_bytes(seqs.len());
            net.send(to, bytes, ack_payload(seqs));
            self.counters.acks_sent += 1;
        }
        true
    }

    /// Give a seed reclaimed by the reliable layer a new home away from
    /// the PE that stopped acknowledging.
    fn redirect_seed(&mut self, net: &mut dyn NetCtx, rd: RedirectSeed) {
        self.counters.seeds_redirected += 1;
        // Never re-aim at any destination this PE has already timed a
        // seed out on (the suspect set includes `rd.suspect`). The set
        // only grows, so a seed that keeps timing out bounces through
        // at most `npes - 1` fresh destinations before settling here —
        // without this, a congested machine whose RTT exceeds the seed
        // retry budget reclaims *live* in-flight seeds and re-launches
        // them forever, and each bounce adds traffic that keeps the
        // RTT high: a self-sustaining redirect livelock.
        let suspects = self
            .rel
            .as_ref()
            .expect("redirect implies reliable layer")
            .suspects()
            .to_vec();
        let ok = |p: Pe| p != rd.suspect && p.index() < self.npes && !suspects[p.index()];
        let chosen = self
            .balancer
            .redirect_target(rd.suspect, &mut self.rng)
            .filter(|&t| ok(t));
        let target = match chosen {
            Some(t) => t,
            None => {
                // Uniform over the non-suspect PEs; run it here if the
                // suspects were the only alternative.
                let cands: Vec<Pe> = (0..self.npes)
                    .map(Pe::from)
                    .filter(|&p| ok(p) && p != self.pe)
                    .collect();
                if cands.is_empty() {
                    self.pe
                } else {
                    cands[self.rng.random_range(0..cands.len())]
                }
            }
        };
        self.probe(|| (net.now_ns(), EventKind::SeedRedirected { to: target }));
        if let SysMsg::NewChare {
            kind,
            seed,
            bytes,
            prio,
            ..
        } = rd.seed
        {
            if target == self.pe {
                // The seed was counted as sent at its original post;
                // settling it here IS its delivery, so the quiescence
                // recv counter must balance or QD never declares.
                self.counters.user_recv += 1;
                self.place_seed(net, kind, seed, bytes, prio, PLACED);
            } else {
                // hops = 1 so the receiver's balancer settles it rather
                // than bouncing it onward. The seed stays redirectable:
                // if this target turns out dead too, the suspect filter
                // above steers the next redirect somewhere fresh.
                self.wire_send(
                    net,
                    target,
                    SysMsg::NewChare {
                        kind,
                        seed,
                        bytes,
                        prio,
                        hops: 1,
                    },
                );
            }
        }
    }

    /// Deliver a kernel-generated notification message.
    pub(crate) fn deliver_notify(
        &mut self,
        net: &mut dyn NetCtx,
        notify: Notify,
        body: MsgBody,
        bytes: u32,
    ) {
        match notify {
            Notify::Chare(target, ep) => {
                let to = target.pe;
                self.post(
                    net,
                    to,
                    SysMsg::ChareMsg {
                        target,
                        ep,
                        body,
                        bytes,
                        prio: Priority::None,
                    },
                );
            }
            Notify::Branch(boc, pe, ep) => {
                self.post(
                    net,
                    pe,
                    SysMsg::BranchMsg {
                        boc,
                        ep,
                        body,
                        bytes,
                        prio: Priority::None,
                    },
                );
            }
        }
    }

    /// Distribute copies of a kernel message to every PE. With
    /// [`BroadcastMode::Tree`] the copies travel a binomial spanning
    /// tree (O(log P) latency); with `Direct` this PE sends them all.
    /// When `include_self` is set the local copy is queued for this
    /// PE's own control handler.
    pub(crate) fn post_broadcast(&mut self, net: &mut dyn NetCtx, include_self: bool, gen: CastGen) {
        match self.bcast_mode {
            BroadcastMode::Direct => {
                for pe in Pe::all(self.npes) {
                    if pe == self.pe {
                        continue;
                    }
                    self.post(net, pe, gen());
                }
            }
            BroadcastMode::Tree => {
                let probe = gen();
                let counted = probe.counted();
                let bytes = probe.wire_bytes();
                self.forward_treecast(net, self.pe, counted, bytes, &gen);
                // `probe` is this PE's own copy; reuse it if wanted.
                if include_self {
                    let me = self.pe;
                    self.sys.push_back((me, probe));
                    return;
                }
            }
        }
        if include_self {
            let me = self.pe;
            self.sys.push_back((me, gen()));
        }
    }

    /// Send a tree-cast onward to this PE's subtree children.
    fn forward_treecast(
        &mut self,
        net: &mut dyn NetCtx,
        origin: Pe,
        counted: bool,
        bytes: u32,
        gen: &CastGen,
    ) {
        for child in tree_children(origin, self.pe, self.npes) {
            self.post(
                net,
                child,
                SysMsg::TreeCast {
                    origin,
                    counted,
                    bytes,
                    gen: std::sync::Arc::clone(gen),
                },
            );
        }
    }

    /// Run a seed through the load balancer: keep it here or forward it.
    pub(crate) fn place_seed(
        &mut self,
        net: &mut dyn NetCtx,
        kind: ChareKind,
        seed: MsgBody,
        bytes: u32,
        prio: Priority,
        hops: u32,
    ) {
        let placement = if hops == PLACED {
            Placement::Local
        } else {
            let load = self.user_load();
            let p = self.balancer.place(hops, load, &mut self.rng);
            // "Forward to self" settles the seed.
            match p {
                Placement::Forward(pe) if pe == self.pe => Placement::Local,
                other => other,
            }
        };
        match placement {
            Placement::Local => {
                self.counters.seeds_kept += 1;
                self.probe(|| (net.now_ns(), EventKind::SeedKept { kind, hops }));
                self.nack_budget = NACK_BUDGET;
                self.awaiting_work = false;
                let item = WorkItem::NewChare {
                    kind,
                    seed,
                    bytes,
                    prio: prio.clone(),
                };
                // Only locally created seeds are stealable; work that
                // already migrated here executes here (otherwise seeds
                // circulate between hungry PEs instead of running).
                if self.balancer.pools_seeds() && hops == 0 {
                    self.pool.push_back(item);
                    self.grant_deferred(net);
                } else {
                    self.queue.push(prio, item);
                }
                self.note_backlog();
            }
            Placement::Forward(pe) => {
                self.counters.seeds_forwarded += 1;
                self.probe(|| (net.now_ns(), EventKind::SeedForwarded { kind, to: pe, hops }));
                self.post(
                    net,
                    pe,
                    SysMsg::NewChare {
                        kind,
                        seed,
                        bytes,
                        prio,
                        hops: hops.saturating_add(1),
                    },
                );
            }
        }
    }

    /// Allocate a chare-table slot.
    fn alloc_slot(&mut self) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            slot
        } else {
            self.chares.push(None);
            (self.chares.len() - 1) as u32
        }
    }

    fn apply_qd_action(&mut self, net: &mut dyn NetCtx, action: QdAction) {
        match action {
            QdAction::None => {}
            QdAction::Poll(wave) => {
                self.post_broadcast(
                    net,
                    true,
                    std::sync::Arc::new(move || SysMsg::QdPoll { wave }),
                );
            }
            QdAction::Declare(notifies) => {
                self.counters.qd_declares += 1;
                for n in notifies {
                    let msg = QuiescenceMsg;
                    let bytes = msg.bytes();
                    self.deliver_notify(net, n, Box::new(msg), bytes);
                }
            }
        }
    }

    /// Handle one kernel control message.
    fn handle_sys(&mut self, net: &mut dyn NetCtx, from: Pe, sys: SysMsg) {
        match sys {
            SysMsg::Batch(_) => {
                unreachable!("batches are unpacked on arrival")
            }
            SysMsg::RelData { .. } | SysMsg::RelAck { .. } => {
                unreachable!("reliable frames are peeled off on arrival")
            }
            SysMsg::NewChare {
                kind,
                seed,
                bytes,
                prio,
                hops,
            } => self.place_seed(net, kind, seed, bytes, prio, hops),
            SysMsg::TreeCast {
                origin,
                counted,
                bytes,
                gen,
            } => {
                self.forward_treecast(net, origin, counted, bytes, &gen);
                self.sys.push_back((origin, gen()));
            }
            // User messages normally enter the scheduler queue straight
            // from `incoming`; they pass through here when carried by a
            // tree broadcast.
            SysMsg::ChareMsg {
                target,
                ep,
                body,
                bytes: _,
                prio,
            } => {
                debug_assert_eq!(target.pe, self.pe, "misrouted chare message");
                self.queue.push(
                    prio,
                    WorkItem::ChareMsg {
                        local: target.local,
                        ep,
                        body,
                    },
                );
            }
            SysMsg::BranchMsg {
                boc,
                ep,
                body,
                bytes: _,
                prio,
            } => {
                self.queue.push(prio, WorkItem::BranchMsg { boc, ep, body });
            }
            SysMsg::AccCollect {
                acc,
                token,
                requester,
            } => {
                // Destructive read of this PE's partial.
                let fresh = (self.reg.accs[acc.0 as usize].init)();
                let part = std::mem::replace(&mut self.acc_vals[acc.0 as usize], fresh);
                match self.bcast_mode {
                    BroadcastMode::Direct => {
                        // Flat gather: every partial goes straight to the
                        // requester (which pre-created its state).
                        self.post(net, requester, SysMsg::AccPart { acc, token, part });
                    }
                    BroadcastMode::Tree => {
                        // Tree reduction: combine up the same binomial
                        // tree the collect request came down. This node's
                        // state exists before any child can reply because
                        // the request is forwarded to children and
                        // processed locally in the same step.
                        let children = tree_children(requester, self.pe, self.npes).len();
                        let st = CollectState::new(acc, requester, children, part);
                        if children == 0 {
                            self.finish_or_forward(net, token, st);
                        } else {
                            self.collects.insert(token, st);
                        }
                    }
                }
            }
            SysMsg::AccPart { acc, token, part } => {
                let reg = Arc::clone(&self.reg);
                let entry = &reg.accs[acc.0 as usize];
                let done = {
                    let st = self
                        .collects
                        .get_mut(&token)
                        .expect("accumulator part for unknown collect");
                    (entry.combine)(&mut st.value, part);
                    st.remaining -= 1;
                    st.remaining == 0
                };
                if done {
                    let st = self.collects.remove(&token).expect("collect state");
                    self.finish_or_forward(net, token, st);
                }
            }
            SysMsg::MonoUpdate { mono, value } => {
                let reg = Arc::clone(&self.reg);
                let entry = &reg.monos[mono.0 as usize];
                let cur = &mut self.mono_vals[mono.0 as usize];
                if (entry.better)(&value, cur) {
                    *cur = value;
                    self.counters.mono_applied += 1;
                }
            }
            SysMsg::TablePut {
                table,
                key,
                value,
                bytes: _,
                notify,
            } => {
                self.counters.table_ops += 1;
                let existed = self.tables[table.0 as usize].insert(key, value).is_some();
                if let Some(n) = notify {
                    let ack = TableAck { key, existed };
                    let bytes = ack.bytes();
                    self.deliver_notify(net, n, Box::new(ack), bytes);
                }
            }
            SysMsg::TableGet { table, key, notify } => {
                self.counters.table_ops += 1;
                let reg = Arc::clone(&self.reg);
                let entry = &reg.tables[table.0 as usize];
                let val = self.tables[table.0 as usize].get(&key);
                let (body, bytes) = (entry.make_got)(key, val);
                self.deliver_notify(net, notify, body, bytes);
            }
            SysMsg::TableDelete { table, key, notify } => {
                self.counters.table_ops += 1;
                let existed = self.tables[table.0 as usize].remove(&key).is_some();
                if let Some(n) = notify {
                    let ack = TableAck { key, existed };
                    let bytes = ack.bytes();
                    self.deliver_notify(net, n, Box::new(ack), bytes);
                }
            }
            SysMsg::WoStore { wo, value, bytes: _ } => {
                self.wo_store.insert(wo, value);
                self.post(net, wo.creator(), SysMsg::WoAck { wo });
            }
            SysMsg::WoAck { wo } => {
                let done = {
                    let ent = self
                        .wo_pending
                        .get_mut(&wo)
                        .expect("ack for unknown write-once variable");
                    ent.0 -= 1;
                    ent.0 == 0
                };
                if done {
                    let (_, notify) = self.wo_pending.remove(&wo).expect("wo state");
                    let msg = WoReady { id: wo };
                    let bytes = msg.bytes();
                    self.deliver_notify(net, notify, Box::new(msg), bytes);
                }
            }
            SysMsg::QdStart { notify } => {
                let action = self
                    .qd
                    .as_mut()
                    .expect("QdStart must be addressed to PE 0")
                    .request(notify);
                self.apply_qd_action(net, action);
            }
            SysMsg::QdPoll { wave } => {
                self.counters.qd_replies += 1;
                // A PE with unacked frames or owed acks is not idle: an
                // in-flight frame may still inject user work somewhere,
                // so quiescence must wait for the transport to settle.
                let idle =
                    !self.user_pending() && self.rel.as_ref().is_none_or(|r| r.quiet());
                let reply = SysMsg::QdCount {
                    wave,
                    sent: self.counters.user_sent,
                    recv: self.counters.user_recv,
                    idle,
                };
                self.post(net, Pe::ZERO, reply);
            }
            SysMsg::QdCount {
                wave,
                sent,
                recv,
                idle,
            } => {
                let action = self
                    .qd
                    .as_mut()
                    .expect("QdCount must be addressed to PE 0")
                    .on_count(wave, sent, recv, idle);
                self.apply_qd_action(net, action);
            }
            SysMsg::LoadStatus { load } => {
                self.balancer.on_load_status(from, load);
            }
            SysMsg::WorkReq { origin, ttl } => {
                if !self.pool.is_empty() {
                    self.grant_to(net, origin);
                } else if self.user_load() > 0 {
                    // Busy but nothing spare yet: remember the hungry PE
                    // and grant once seeds appear.
                    if self.deferred_reqs.len() < MAX_DEFERRED {
                        self.deferred_reqs.push_back(origin);
                    } else {
                        self.post(net, origin, SysMsg::WorkNack);
                    }
                } else if ttl > 0 {
                    // Idle ourselves: pass the request along (a random
                    // walk over the neighbor graph toward busy PEs).
                    if let Some(next) = self.balancer.pick_victim(&mut self.rng) {
                        self.post(net, next, SysMsg::WorkReq { origin, ttl: ttl - 1 });
                    } else {
                        self.post(net, origin, SysMsg::WorkNack);
                    }
                } else {
                    self.post(net, origin, SysMsg::WorkNack);
                }
            }
            SysMsg::WorkNack => {
                self.counters.work_nacks += 1;
                self.awaiting_work = false;
                self.nack_budget = self.nack_budget.saturating_sub(1);
                self.maybe_request_work(net);
            }
        }
    }

    /// Execute one unit of user work.
    fn exec_item(&mut self, net: &mut dyn NetCtx, item: WorkItem) {
        self.counters.entries_executed += 1;
        let (what, ep) = match &item {
            WorkItem::NewChare { kind, .. } => (EntryWhat::Create(*kind), None),
            WorkItem::ChareMsg { local, ep, .. } => (EntryWhat::Chare(*local), Some(*ep)),
            WorkItem::BranchMsg { boc, ep, .. } => (EntryWhat::Branch(*boc), Some(*ep)),
        };
        self.probe(|| (net.now_ns(), EventKind::EntryBegin { what, ep }));
        let sent_before = self.counters.user_sent;
        // The simulator's clock stands still inside a handler, so the
        // entry's grain is the charge delta across it, not a time delta.
        let charged_before = net.charged_ns();
        self.run_item(net, item);
        self.probe_span(|| {
            let msgs_sent = (self.counters.user_sent - sent_before) as u32;
            let grain_ns = net.charged_ns() - charged_before;
            (net.now_ns(), grain_ns, EventKind::EntryEnd { msgs_sent })
        });
    }

    /// Run the handler behind one work item.
    fn run_item(&mut self, net: &mut dyn NetCtx, item: WorkItem) {
        match item {
            WorkItem::NewChare { kind, seed, .. } => {
                let slot = self.alloc_slot();
                let id = ChareId {
                    pe: self.pe,
                    local: slot,
                };
                self.counters.chares_created += 1;
                let reg = Arc::clone(&self.reg);
                let entry = &reg.chares[kind.0 as usize];
                let mut ctx = Ctx::new(self, net, Current::Chare(id));
                let obj = (entry.create)(seed, &mut ctx);
                let destroyed = ctx.destroy_requested;
                if !destroyed {
                    self.chares[slot as usize] = Some(obj);
                } else {
                    self.free_slots.push(slot);
                }
            }
            WorkItem::ChareMsg { local, ep, body } => {
                let Some(mut obj) = self
                    .chares
                    .get_mut(local as usize)
                    .and_then(|s| s.take())
                else {
                    self.counters.dead_letters += 1;
                    return;
                };
                let id = ChareId {
                    pe: self.pe,
                    local,
                };
                let mut ctx = Ctx::new(self, net, Current::Chare(id));
                obj.entry(ep, body, &mut ctx);
                let destroyed = ctx.destroy_requested;
                if destroyed {
                    self.free_slots.push(local);
                } else {
                    self.chares[local as usize] = Some(obj);
                }
            }
            WorkItem::BranchMsg { boc, ep, body } => {
                let mut obj = self.branches[boc.0 as usize]
                    .take()
                    .expect("branch missing (re-entrant branch call?)");
                let mut ctx = Ctx::new(self, net, Current::Branch(boc));
                obj.entry(ep, body, &mut ctx);
                self.branches[boc.0 as usize] = Some(obj);
            }
        }
    }

    /// Hand pooled seeds to `to`: half the pool, capped — the classic
    /// steal-half policy, so one request amortizes the round trip.
    fn grant_to(&mut self, net: &mut dyn NetCtx, to: Pe) {
        let count = (self.pool.len().div_ceil(2)).min(GRANT_MAX);
        for _ in 0..count {
            let Some(item) = self.pool.pop_back() else {
                return;
            };
            self.counters.work_grants += 1;
            let WorkItem::NewChare {
                kind,
                seed,
                bytes,
                prio,
            } = item
            else {
                unreachable!("seed pool holds only NewChare items");
            };
            self.post(
                net,
                to,
                SysMsg::NewChare {
                    kind,
                    seed,
                    bytes,
                    prio,
                    hops: 1,
                },
            );
        }
    }

    /// Grant deferred work requests while spare seeds remain. Keeps the
    /// last pooled seed for itself so a lone seed cannot ping-pong
    /// between mutually idle PEs.
    fn grant_deferred(&mut self, net: &mut dyn NetCtx) {
        while self.pool.len() > 1 {
            let Some(to) = self.deferred_reqs.pop_front() else {
                return;
            };
            self.grant_to(net, to);
        }
    }

    /// A collect subtree is fully combined: deliver the result if this
    /// PE requested the collect, otherwise pass the combined partial to
    /// the reduction-tree parent.
    fn finish_or_forward(&mut self, net: &mut dyn NetCtx, token: u64, st: CollectState) {
        if st.origin == self.pe {
            let notify = self
                .collect_notifies
                .remove(&token)
                .expect("collect completed twice or never requested here");
            let reg = Arc::clone(&self.reg);
            let (body, bytes) = (reg.accs[st.acc.0 as usize].wrap_result)(st.value);
            self.deliver_notify(net, notify, body, bytes);
        } else {
            let parent = crate::bcast::tree_parent(st.origin, self.pe, self.npes)
                .expect("non-origin node must have a tree parent");
            self.post(
                net,
                parent,
                SysMsg::AccPart {
                    acc: st.acc,
                    token,
                    part: st.value,
                },
            );
        }
    }

    /// Issue a token-strategy work request if this PE is idle and has
    /// budget left.
    fn maybe_request_work(&mut self, net: &mut dyn NetCtx) {
        if !self.balancer.request_work_when_idle()
            || self.awaiting_work
            || self.nack_budget == 0
            || self.user_load() > 0
        {
            return;
        }
        if let Some(victim) = self.balancer.pick_victim(&mut self.rng) {
            self.counters.work_reqs += 1;
            self.awaiting_work = true;
            let me = self.pe;
            self.post(
                net,
                victim,
                SysMsg::WorkReq {
                    origin: me,
                    ttl: WORK_REQ_TTL,
                },
            );
        }
    }

    /// Advertise backlog changes to PEs whose balancers want load info.
    fn maybe_report_load(&mut self, net: &mut dyn NetCtx) {
        let targets = self.balancer.load_targets();
        if targets.is_empty() {
            return;
        }
        let targets: Vec<Pe> = targets.to_vec();
        let load = self.user_load() as u32;
        let significant = match self.last_advertised {
            None => true,
            Some(prev) => prev.abs_diff(load) >= LOAD_REPORT_DELTA || (prev == 0) != (load == 0),
        };
        if significant {
            self.last_advertised = Some(load);
            self.counters.load_reports += 1;
            for t in targets {
                self.post(net, t, SysMsg::LoadStatus { load });
            }
        }
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
        if self.pe == Pe::ZERO {
            if let Some(main) = &reg.main {
                let (seed, bytes) = (main.make_seed)();
                self.counters.seeds_spawned += 1;
                self.counters.seeds_kept += 1;
                let kind = main.kind;
                self.probe(|| (net.now_ns(), EventKind::SeedKept { kind, hops: 0 }));
                self.queue.push(
                    Priority::None,
                    WorkItem::NewChare {
                        kind: main.kind,
                        seed,
                        bytes,
                        prio: Priority::None,
                    },
                );
            }
        }
        self.maybe_report_load(net);
        // Receiver-initiated balancing needs an initial kick: idle PEs
        // are never stepped, so the first work request must go out now.
        self.maybe_request_work(net);
        self.flush_outbuf(net);
    }

    fn incoming(&mut self, pkt: Packet) {
        let Packet {
            from,
            at_ns,
            sent_ns,
            payload,
            ..
        } = pkt;
        let bx = payload
            .downcast::<SysMsg>()
            .expect("kernel node received a non-kernel packet");
        let sys = crate::pool::reclaim(bx);
        self.classify_incoming(at_ns, sent_ns, from, sys);
        self.note_backlog();
    }

    fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
        // Read only when recording: on the real backends the clock is
        // a measurable share of a fine-grain step.
        let before = self.probe.as_ref().map(|_| (net.now_ns(), net.charged_ns()));
        let r = self.step_inner(net);
        self.flush_outbuf(net);
        if let (Some(p), Some((step_start, charged_before))) = (&self.probe, before) {
            let charged = net.charged_ns() - charged_before;
            match r {
                Some(StepKind::User) => p.user_step(step_start, charged),
                Some(StepKind::Control) => p.ctl_step(step_start, charged),
                None => {}
            }
        }
        r
    }

    fn has_work(&self) -> bool {
        !self.sys.is_empty()
            || !self.queue.is_empty()
            || !self.pool.is_empty()
            || self
                .rel
                .as_ref()
                .is_some_and(|r| r.has_acks() || r.has_ready())
    }

    fn alarm(&mut self, net: &mut dyn NetCtx) {
        let Some(rel) = self.rel.as_mut() else {
            return;
        };
        let now = net.now_ns();
        let charged_before = net.charged_ns();
        let actions = rel.on_alarm(now);
        for rt in actions.retransmits {
            self.counters.retransmits += 1;
            self.probe(|| (now, EventKind::Retransmit { to: rt.to, seq: rt.seq }));
            net.send(
                rt.to,
                frame_wire_bytes(rt.inner_bytes),
                frame_payload(rt.seq, rt.inner_bytes, &rt.slot),
            );
        }
        for rd in actions.redirects {
            self.redirect_seed(net, rd);
        }
        if let Some(after) = self.rel.as_mut().expect("checked above").rearm(now) {
            net.set_alarm(after);
        }
        if let Some(p) = &self.probe {
            // Alarm handlers run as pure control time (the machine
            // charges them no dispatch overhead).
            p.alarm(now, net.charged_ns() - charged_before);
        }
    }

    fn backlog(&self) -> usize {
        self.user_load()
    }

    fn stats(&self) -> NodeStats {
        // End-state snapshots ride along with the running counters:
        // what was still queued or in flight when the machine stopped.
        // The desim oracles read these to decide whether the
        // exactly-once seed ledger must balance (all zero ⇒ every
        // spawned seed had to have been constructed) and whether
        // quiescence fired over undelivered traffic.
        let mut c = self.counters;
        c.backlog_end = self.user_load() as u64;
        if let Some(rel) = &self.rel {
            c.rel_inflight_end = rel.counted_inflight() as u64;
            c.rel_reorder_end = rel.parked() as u64;
            c.rel_unacked_end = rel.in_flight() as u64;
        }
        c.to_node_stats()
    }
}

impl CkNode {
    /// File one arrived envelope into the right queue (unpacking
    /// batches). Runs no user code. `at` is the packet's arrival
    /// timestamp and `sent_ns` its machine-stamped send instant, both
    /// threaded through batch/frame unwrapping so every unpacked
    /// message is logged at the instant it truly arrived with its true
    /// delivery latency.
    fn classify_incoming(&mut self, at: u64, sent_ns: u64, from: Pe, sys: SysMsg) {
        // Reliable transport framing peels off first: ack every frame
        // (fresh or duplicate), deliver bodies exactly once and in
        // sequence order per link.
        let sys = match sys {
            SysMsg::RelData { seq, slot, .. } => {
                let verdict = self.rel.as_mut().map(|rel| rel.accept(from, seq, &slot));
                match verdict {
                    Some(Accept::Dup) => self.counters.dup_dropped += 1,
                    Some(Accept::Deliver(run)) => {
                        for inner in run {
                            self.classify_incoming(at, sent_ns, from, inner);
                        }
                    }
                    // Frame without reliable mode (shouldn't happen):
                    // deliver the body, nobody will ack.
                    None => {
                        if let Some(inner) = slot.lock().expect("slot lock").take() {
                            self.classify_incoming(at, sent_ns, from, inner);
                        }
                    }
                }
                return;
            }
            SysMsg::RelAck { seqs } => {
                if let Some(rel) = self.rel.as_mut() {
                    rel.on_ack(from, &seqs);
                }
                crate::pool::recycle_seq_vec(seqs);
                return;
            }
            other => other,
        };
        if let SysMsg::Batch(inner) = sys {
            let mut inner = inner;
            for m in inner.drain(..) {
                self.classify_incoming(at, sent_ns, from, m);
            }
            crate::pool::recycle_batch(inner);
            return;
        }
        if sys.counted() {
            self.counters.user_recv += 1;
        }
        self.probe_span(|| {
            let kind = EventKind::MsgRecv {
                from,
                class: MsgClass::of(&sys),
                bytes: sys.wire_bytes(),
            };
            (at, at.saturating_sub(sent_ns), kind)
        });
        match sys {
            SysMsg::ChareMsg {
                target,
                ep,
                body,
                bytes: _,
                prio,
            } => {
                debug_assert_eq!(target.pe, self.pe, "misrouted chare message");
                self.queue.push(
                    prio,
                    WorkItem::ChareMsg {
                        local: target.local,
                        ep,
                        body,
                    },
                );
            }
            SysMsg::BranchMsg {
                boc,
                ep,
                body,
                bytes: _,
                prio,
            } => {
                self.queue.push(prio, WorkItem::BranchMsg { boc, ep, body });
            }
            other => self.sys.push_back((from, other)),
        }
    }

    fn step_inner(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
        let mut did = None;
        // Transport acks first: deferred from `incoming` (which has no
        // network access). A stalled PE never reaches this point, which
        // is exactly why its senders start retransmitting.
        if self.flush_acks(net) {
            did = Some(StepKind::Control);
        }
        // Then transmissions the send window released (acks may have
        // just opened it).
        if self.flush_ready(net) {
            did = Some(StepKind::Control);
        }
        // Kernel control first (placement, shared variables, QD, tokens).
        while let Some((from, sys)) = self.sys.pop_front() {
            self.handle_sys(net, from, sys);
            did = Some(StepKind::Control);
        }
        // Then at most one user message.
        let item = self.queue.pop().or_else(|| self.pool.pop_front());
        if let Some(item) = item {
            self.exec_item(net, item);
            did = Some(StepKind::User);
        }
        self.maybe_report_load(net);
        self.maybe_request_work(net);
        self.sample_queue(&*net);
        did
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::BalanceStrategy;
    use crate::bcast::BroadcastMode;
    use crate::queueing::QueueingStrategy;
    use multicomputer::Payload;

    /// A network context that records sends instead of delivering them.
    struct MockNet {
        me: Pe,
        npes: usize,
        sent: Vec<(Pe, u32, Payload)>,
        stopped: bool,
    }

    impl MockNet {
        fn new(me: Pe, npes: usize) -> Self {
            MockNet {
                me,
                npes,
                sent: Vec::new(),
                stopped: false,
            }
        }

        /// Destinations of all recorded sends, in order.
        fn dests(&self) -> Vec<Pe> {
            self.sent.iter().map(|&(to, _, _)| to).collect()
        }
    }

    impl NetCtx for MockNet {
        fn me(&self) -> Pe {
            self.me
        }
        fn num_pes(&self) -> usize {
            self.npes
        }
        fn now_ns(&self) -> u64 {
            0
        }
        fn send(&mut self, to: Pe, bytes: u32, payload: Payload) {
            self.sent.push((to, bytes, payload));
        }
        fn charge(&mut self, _cost: multicomputer::Cost) {}
        fn stop(&mut self) {
            self.stopped = true;
        }
        fn deposit(&mut self, _result: Payload) {}
    }

    fn bare_node(pe: Pe, npes: usize, bcast: BroadcastMode) -> CkNode {
        let reg = Arc::new(Registry::new());
        let queue = QueueingStrategy::Fifo.make();
        let balancer = BalanceStrategy::Local.make(pe, npes, vec![]);
        CkNode::new(
            pe,
            npes,
            reg,
            queue,
            balancer,
            NodeOptions {
                bcast,
                combining: false,
                rng_seed: 7,
                reliable: None,
                probe: None,
            },
        )
    }

    #[test]
    fn post_counts_user_traffic_only() {
        let mut node = bare_node(Pe(0), 4, BroadcastMode::Tree);
        let mut net = MockNet::new(Pe(0), 4);
        node.post(&mut net, Pe(1), SysMsg::QdPoll { wave: 1 });
        assert_eq!(node.counters.user_sent, 0);
        node.post(
            &mut net,
            Pe(2),
            SysMsg::MonoUpdate {
                mono: crate::ids::MonoId(0),
                value: Box::new(1u64),
            },
        );
        assert_eq!(node.counters.user_sent, 1);
        assert_eq!(net.dests(), vec![Pe(1), Pe(2)]);
    }

    #[test]
    fn deliver_notify_routes_to_the_right_pe() {
        let mut node = bare_node(Pe(0), 4, BroadcastMode::Tree);
        let mut net = MockNet::new(Pe(0), 4);
        let chare = ChareId {
            pe: Pe(3),
            local: 7,
        };
        node.deliver_notify(&mut net, Notify::Chare(chare, crate::ids::EpId(1)), Box::new(()), 0);
        node.deliver_notify(
            &mut net,
            Notify::Branch(BocId(0), Pe(2), crate::ids::EpId(1)),
            Box::new(()),
            0,
        );
        assert_eq!(net.dests(), vec![Pe(3), Pe(2)]);
        // Both notifications are user traffic.
        assert_eq!(node.counters.user_sent, 2);
    }

    #[test]
    fn direct_broadcast_sends_to_everyone_else() {
        let mut node = bare_node(Pe(1), 5, BroadcastMode::Direct);
        let mut net = MockNet::new(Pe(1), 5);
        node.post_broadcast(&mut net, false, Arc::new(|| SysMsg::QdPoll { wave: 3 }));
        let mut dests = net.dests();
        dests.sort();
        assert_eq!(dests, vec![Pe(0), Pe(2), Pe(3), Pe(4)]);
        assert!(node.sys.is_empty(), "include_self was false");
    }

    #[test]
    fn tree_broadcast_sends_to_children_and_queues_self() {
        let mut node = bare_node(Pe(0), 8, BroadcastMode::Tree);
        let mut net = MockNet::new(Pe(0), 8);
        node.post_broadcast(&mut net, true, Arc::new(|| SysMsg::QdPoll { wave: 3 }));
        // Children of rank 0 over 8 PEs: 1, 2, 4.
        assert_eq!(net.dests(), vec![Pe(1), Pe(2), Pe(4)]);
        assert_eq!(node.sys.len(), 1, "own copy queued locally");
    }

    #[test]
    fn placed_seed_skips_the_balancer() {
        // A Random balancer would forward; PLACED must enqueue locally.
        let reg = Arc::new(Registry::new());
        let queue = QueueingStrategy::Fifo.make();
        let balancer = BalanceStrategy::Random.make(Pe(0), 4, vec![]);
        let opts = NodeOptions {
            bcast: BroadcastMode::Tree,
            combining: false,
            rng_seed: 7,
            reliable: None,
            probe: None,
        };
        let mut node = CkNode::new(Pe(0), 4, reg, queue, balancer, opts);
        let mut net = MockNet::new(Pe(0), 4);
        node.place_seed(
            &mut net,
            ChareKind(0),
            Box::new(()),
            0,
            Priority::None,
            PLACED,
        );
        assert!(net.sent.is_empty(), "placed seed must not be forwarded");
        assert_eq!(node.user_load(), 1);
        assert_eq!(node.counters.seeds_kept, 1);
    }

    #[test]
    fn each_event_site_reports_exactly_once() {
        use crate::probe::ProbeSink;
        use crate::trace::{TraceConfig, TraceEvent};

        // A reliable Random-balanced node (forwards fresh seeds, can
        // redirect reclaimed ones) recording into a one-run sink.
        let sink = ProbeSink::shared(4, Some(TraceConfig::default()), None, 0, 0);
        let opts = NodeOptions {
            bcast: BroadcastMode::Tree,
            combining: false,
            rng_seed: 7,
            reliable: Some(ReliableConfig::default()),
            probe: Some(sink.probe_for(Pe(0))),
        };
        let balancer = BalanceStrategy::Random.make(Pe(0), 4, vec![]);
        let queue = QueueingStrategy::Fifo.make();
        let mut node = CkNode::new(Pe(0), 4, Arc::new(Registry::new()), queue, balancer, opts);
        let mut net = MockNet::new(Pe(0), 4);
        let seed = |hops| SysMsg::NewChare {
            kind: ChareKind(0),
            seed: Box::new(()),
            bytes: 0,
            prio: Priority::None,
            hops,
        };

        node.post(&mut net, Pe(1), SysMsg::QdPoll { wave: 1 });
        node.place_seed(&mut net, ChareKind(0), Box::new(()), 0, Priority::None, PLACED);
        // With this RNG seed Random sends the fresh seed away...
        node.place_seed(&mut net, ChareKind(0), Box::new(()), 0, Priority::None, 0);
        node.redirect_seed(
            &mut net,
            RedirectSeed {
                suspect: Pe(1),
                seed: seed(1),
            },
        );
        drop(node); // flush the probe
        let events = sink.drain(0).0.expect("tracing on").events;
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
    fn backlog_high_water_mark_tracks_peak() {
        let mut node = bare_node(Pe(0), 2, BroadcastMode::Tree);
        let mut net = MockNet::new(Pe(0), 2);
        for _ in 0..5 {
            node.place_seed(
                &mut net,
                ChareKind(0),
                Box::new(()),
                0,
                Priority::None,
                PLACED,
            );
        }
        assert_eq!(node.counters.queue_hwm, 5);
        assert_eq!(node.user_load(), 5);
    }

    #[test]
    fn work_request_walks_on_when_idle() {
        // An idle, empty node with TTL left forwards the request to a
        // neighbor instead of answering.
        let reg = Arc::new(Registry::new());
        let queue = QueueingStrategy::Fifo.make();
        let balancer = BalanceStrategy::TokenIdle.make(Pe(1), 4, vec![Pe(0), Pe(3)]);
        let opts = NodeOptions {
            bcast: BroadcastMode::Tree,
            combining: false,
            rng_seed: 7,
            reliable: None,
            probe: None,
        };
        let mut node = CkNode::new(Pe(1), 4, reg, queue, balancer, opts);
        let mut net = MockNet::new(Pe(1), 4);
        node.sys.push_back((
            Pe(2),
            SysMsg::WorkReq {
                origin: Pe(2),
                ttl: 3,
            },
        ));
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
        let reg = Arc::new(Registry::new());
        let queue = QueueingStrategy::Fifo.make();
        let balancer = BalanceStrategy::TokenIdle.make(Pe(1), 4, vec![Pe(0)]);
        let opts = NodeOptions {
            bcast: BroadcastMode::Tree,
            combining: false,
            rng_seed: 7,
            reliable: None,
            probe: None,
        };
        let mut node = CkNode::new(Pe(1), 4, reg, queue, balancer, opts);
        let mut net = MockNet::new(Pe(1), 4);
        node.sys.push_back((
            Pe(2),
            SysMsg::WorkReq {
                origin: Pe(2),
                ttl: 0,
            },
        ));
        node.step(&mut net);
        let nacked = net.sent.iter().any(|(to, _, p)| {
            *to == Pe(2)
                && p.downcast_ref::<SysMsg>()
                    .is_some_and(|m| matches!(m, SysMsg::WorkNack))
        });
        assert!(nacked, "expired request must NACK the origin");
    }

    #[test]
    fn step_on_empty_node_returns_none() {
        let mut node = bare_node(Pe(0), 2, BroadcastMode::Tree);
        let mut net = MockNet::new(Pe(0), 2);
        assert_eq!(node.step(&mut net), None);
        assert!(!node.has_work());
        assert_eq!(node.backlog(), 0);
    }
}
