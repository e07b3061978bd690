//! The transport stratum: every envelope a PE sends or receives crosses
//! this module, and no other module puts anything on the wire.
//!
//! **Owns** the combining buffer, the reliable-delivery state
//! ([`RelState`]), the broadcast mode and the retransmit alarm. **May
//! call** the machine layer ([`NetCtx`]), `reliable`, `bcast`'s tree
//! shape, the message pool, the probe and the counters — never a service
//! and never the scheduler, which send through a [`Port`] and see none
//! of that state.
//!
//! Sends leave at fixed points, because the simulator stamps a
//! departure with the time charged so far: [`Port::post`] transmits at
//! once unless combining holds the message; [`Port::begin_step`] sends
//! what `incoming` left owing; [`Port::flush`] ends *every*
//! `NodeProgram` entry point (`boot`, `step`, `alarm`), so nothing
//! posted outlives the handler that posted it.
//!
//! Reliable delivery decides and this module carries out: an entry
//! point hands [`RelState::step`] one event, and `apply` turns the
//! actions into sends, alarms, counters and trace events.

use std::collections::VecDeque;
use std::sync::Arc;

use multicomputer::{NetCtx, Pe};

use crate::bcast::{tree_children, BroadcastMode};
use crate::envelope::{CastGen, MsgBody, SysMsg};
use crate::ids::Notify;
use crate::priority::Priority;
use crate::probe::{emit, Probe};
use crate::reliable::{RedirectSeed, RelAction, RelEvent, RelState, ReliableConfig};
use crate::stats::KernelCounters;
use crate::trace::{EventKind, MsgClass};

/// Message combining only batches messages up to this wire size; bulk
/// payloads go out immediately so small control messages never wait
/// behind them.
const COMBINE_MAX_BYTES: u32 = 512;

/// One PE's transport state.
pub(crate) struct Transport {
    pub(crate) pe: Pe,
    pub(crate) npes: usize,
    pub(crate) bcast: BroadcastMode,
    /// Message combining (`None` = off): small remote sends wait here,
    /// per destination, and leave as one batch when the entry point
    /// that posted them ends.
    outbuf: Option<Vec<Vec<SysMsg>>>,
    /// Messages waiting in `outbuf`, over all destinations.
    buffered: usize,
    /// Reliable-delivery state (`None` = trust the machine).
    rel: Option<RelState>,
    /// The buffer every `RelState::step` appends to, kept so no event
    /// allocates; empty between entry points.
    acts: Vec<RelAction>,
}

/// The transport as an entry point sees it: borrowed with the machine
/// context it sends on, the recorder and counters it reports to, and
/// the scheduler's control queue, where this PE's own copy of a
/// broadcast goes. Built by `CkNode::strata` from disjoint node fields.
pub(crate) struct Port<'a> {
    pub(crate) t: &'a mut Transport,
    pub(crate) net: &'a mut dyn NetCtx,
    pub(crate) probe: &'a Option<Probe>,
    pub(crate) counters: &'a mut KernelCounters,
    pub(crate) ctl: &'a mut VecDeque<(Pe, SysMsg)>,
}

/// Where and when a packet arrived: its sender, its arrival timestamp
/// and its machine-stamped send instant, threaded through batch and
/// frame unwrapping so every unpacked message is logged at the instant
/// it truly arrived with its true delivery latency.
#[derive(Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) from: Pe,
    pub(crate) at_ns: u64,
    pub(crate) sent_ns: u64,
}

impl Transport {
    pub(crate) fn new(
        pe: Pe,
        npes: usize,
        bcast: BroadcastMode,
        combining: bool,
        reliable: Option<ReliableConfig>,
    ) -> Self {
        Transport {
            pe,
            npes,
            bcast,
            outbuf: combining.then(|| (0..npes).map(|_| Vec::new()).collect()),
            buffered: 0,
            rel: reliable.map(|cfg| RelState::new(npes, cfg)),
            acts: Vec::new(),
        }
    }

    /// Whether anything waits to be sent: combined messages, owed acks,
    /// or frames a reopened window can release.
    pub(crate) fn pending(&self) -> bool {
        self.buffered > 0 || self.rel.as_ref().is_some_and(RelState::pending)
    }

    /// Whether this PE may report itself idle to quiescence detection:
    /// an unacked user frame may still inject work somewhere, so
    /// quiescence waits for the transport to settle ([`RelState::quiet`]).
    pub(crate) fn quiet(&self) -> bool {
        self.rel.as_ref().is_none_or(|r| r.quiet())
    }

    /// Destinations this PE has timed a seed out on ([`RelState::suspects`]).
    pub(crate) fn suspects(&self) -> &[bool] {
        self.rel.as_ref().map_or(&[], |r| r.suspects())
    }

    /// End-of-run snapshots of what was still in flight, for `stats`.
    pub(crate) fn end_state(&self, c: &mut KernelCounters) {
        if let Some(rel) = &self.rel {
            rel.end_state(c);
        }
    }

    /// The receive side: take one arrived envelope apart — reliable
    /// framing first (ack every frame, fresh or duplicate; release
    /// bodies exactly once and in sequence order per link), then
    /// combining batches — count and record each message that comes
    /// out, and hand it to `deliver`. Runs no user code and, like
    /// `incoming`, has no network access: acks wait for
    /// [`Port::begin_step`].
    pub(crate) fn unwrap(
        &mut self,
        counters: &mut KernelCounters,
        probe: &Option<Probe>,
        a: Arrival,
        sys: SysMsg,
        deliver: &mut impl FnMut(Pe, SysMsg),
    ) {
        match sys {
            SysMsg::RelData { seq, slot, .. } => {
                let rel = self.rel.as_mut().expect("a frame implies reliable delivery");
                let mut acts = std::mem::take(&mut self.acts);
                rel.step(a.at_ns, RelEvent::Frame { from: a.from, seq, slot }, &mut acts);
                apply(&mut acts, a.at_ns, None, counters, probe);
                for act in acts.drain(..) {
                    let RelAction::Deliver(inner) = act else {
                        unreachable!("an arriving frame only delivers or counts a duplicate")
                    };
                    self.unwrap(counters, probe, a, inner, deliver);
                }
                self.acts = acts;
            }
            SysMsg::RelAck { seqs } => match self.rel.as_mut() {
                Some(rel) => {
                    rel.step(a.at_ns, RelEvent::Ack { from: a.from, seqs }, &mut self.acts);
                    apply(&mut self.acts, a.at_ns, None, counters, probe);
                }
                None => crate::pool::recycle_seq_vec(seqs),
            },
            SysMsg::Batch(mut inner) => {
                for m in inner.drain(..) {
                    self.unwrap(counters, probe, a, m, deliver);
                }
                crate::pool::recycle_batch(inner);
            }
            sys => {
                if sys.counted() {
                    counters.user_recv += 1;
                }
                emit(probe, || {
                    let kind = EventKind::MsgRecv {
                        from: a.from,
                        class: MsgClass::of(&sys),
                        bytes: sys.wire_bytes(),
                    };
                    (a.at_ns, a.at_ns.saturating_sub(a.sent_ns), kind)
                });
                deliver(a.from, sys);
            }
        }
    }
}

impl Port<'_> {
    /// Report one event, stamped now, to this PE's recorder.
    pub(crate) fn emit(&self, kind: impl FnOnce() -> EventKind) {
        emit(self.probe, || (self.net.now_ns(), 0, kind()));
    }

    /// Send a kernel envelope, counting it if it is user traffic. With
    /// combining on, a small remote message waits for the [`flush`]
    /// that ends this entry point and travels in one batch per
    /// destination.
    ///
    /// [`flush`]: Port::flush
    pub(crate) fn post(&mut self, to: Pe, sys: SysMsg) {
        if sys.counted() {
            self.counters.user_sent += 1;
        }
        self.emit(|| EventKind::MsgSend {
            to,
            class: MsgClass::of(&sys),
            bytes: sys.wire_bytes(),
            hops: match &sys {
                SysMsg::NewChare { hops, .. } => *hops,
                _ => 0,
            },
        });
        if let Some(outbuf) = &mut self.t.outbuf {
            if to != self.t.pe && sys.wire_bytes() <= COMBINE_MAX_BYTES {
                outbuf[to.index()].push(sys);
                self.t.buffered += 1;
                return;
            }
        }
        self.transmit(to, sys);
    }

    /// Put one envelope on the wire now, uncounted and unrecorded:
    /// counting happened in [`Port::post`], so a redirected seed can
    /// re-enter here without skewing the quiescence counters. With
    /// reliable delivery on, a remote message goes to [`RelState::step`],
    /// which frames it and keeps it until acknowledged, or parks it
    /// until a send window reopens.
    pub(crate) fn transmit(&mut self, to: Pe, sys: SysMsg) {
        if to == self.t.pe || self.t.rel.is_none() {
            let bytes = sys.wire_bytes();
            self.net.send(to, bytes, crate::pool::payload(sys));
            return;
        }
        self.step_rel(RelEvent::Post { to, msg: sys });
        debug_assert!(self.t.acts.is_empty(), "a post only sends and arms");
    }

    /// Feed reliable delivery, if on, one event now and carry out what it
    /// decides. Returns whether the event owed the wire anything; what
    /// `apply` leaves (redirects) stays in `self.t.acts` for the caller.
    fn step_rel(&mut self, ev: RelEvent) -> bool {
        let Some(rel) = self.t.rel.as_mut() else {
            return false;
        };
        let now = self.net.now_ns();
        rel.step(now, ev, &mut self.t.acts);
        let owed = !self.t.acts.is_empty();
        apply(&mut self.t.acts, now, Some(&mut *self.net), self.counters, self.probe);
        owed
    }

    /// What a step owes the wire, deferred from `incoming`: acks for the
    /// frames that arrived, then the frames a reopened send window
    /// released. Returns whether anything left.
    pub(crate) fn begin_step(&mut self) -> bool {
        self.step_rel(RelEvent::Step)
    }

    /// Ship everything message combining buffered. Every `NodeProgram`
    /// entry point that can post ends here.
    pub(crate) fn flush(&mut self) {
        if self.t.buffered == 0 {
            return;
        }
        self.t.buffered = 0;
        for to in 0..self.t.npes {
            let outbuf = self.t.outbuf.as_mut().expect("buffered implies combining");
            if outbuf[to].is_empty() {
                continue;
            }
            let hint = outbuf[to].len();
            let mut batch = std::mem::replace(&mut outbuf[to], crate::pool::batch(hint));
            let sys = if batch.len() == 1 {
                let only = batch.pop().expect("len checked");
                crate::pool::recycle_batch(batch);
                only
            } else {
                SysMsg::Batch(batch)
            };
            self.transmit(Pe::from(to), sys);
        }
    }

    /// The retransmit alarm fired: put the frames that are due back on
    /// the wire, re-arm, and return the seeds that exhausted their retry
    /// budget for the caller to re-home (each re-enters through
    /// [`Port::transmit`] or settles locally).
    pub(crate) fn on_alarm(&mut self) -> Vec<RedirectSeed> {
        self.step_rel(RelEvent::Alarm);
        let redirect = |act| match act {
            RelAction::Redirect(rd) => rd,
            _ => unreachable!("`apply` leaves only redirects after an alarm"),
        };
        self.t.acts.drain(..).map(redirect).collect()
    }

    /// Deliver a kernel-generated notification message.
    pub(crate) fn notify(&mut self, notify: Notify, body: MsgBody, bytes: u32) {
        let prio = Priority::None;
        match notify {
            Notify::Chare(target, ep) => {
                let sys = SysMsg::ChareMsg { target, ep, body, bytes, prio };
                self.post(target.pe, sys);
            }
            Notify::Branch(boc, pe, ep) => {
                self.post(pe, SysMsg::BranchMsg { boc, ep, body, bytes, prio });
            }
        }
    }

    /// Distribute copies of a kernel message to every PE. With
    /// [`BroadcastMode::Tree`] the copies travel a binomial spanning
    /// tree (O(log P) latency); with `Direct` this PE sends them all.
    /// When `include_self` is set the local copy is queued for this
    /// PE's own control handler.
    pub(crate) fn post_broadcast(&mut self, include_self: bool, gen: CastGen) {
        let me = self.t.pe;
        // In tree mode the copy that sizes the cast is this PE's own.
        let mut own = None;
        match self.t.bcast {
            BroadcastMode::Direct => {
                for pe in Pe::all(self.t.npes).filter(|&pe| pe != me) {
                    self.post(pe, gen());
                }
            }
            BroadcastMode::Tree => {
                let copy = gen();
                self.forward_treecast(me, copy.counted(), copy.wire_bytes(), &gen);
                own = Some(copy);
            }
        }
        if include_self {
            self.ctl.push_back((me, own.unwrap_or_else(|| gen())));
        }
    }

    /// A tree-cast arrived: send it onward to this PE's subtree
    /// children, then queue the carried message for the local control
    /// handler.
    pub(crate) fn relay_treecast(&mut self, origin: Pe, counted: bool, bytes: u32, gen: CastGen) {
        self.forward_treecast(origin, counted, bytes, &gen);
        self.ctl.push_back((origin, gen()));
    }

    fn forward_treecast(&mut self, origin: Pe, counted: bool, bytes: u32, gen: &CastGen) {
        for child in tree_children(origin, self.t.pe, self.t.npes) {
            let gen = std::sync::Arc::clone(gen);
            self.post(child, SysMsg::TreeCast { origin, counted, bytes, gen });
        }
    }
}

/// The one place a [`RelAction`] takes effect: frames and acks go on the
/// wire and the alarm is (re)armed through `net`, and retransmissions,
/// acks and duplicates are counted and recorded, all in the order
/// `step` decided them. Deliveries and redirects stay in `acts`, in
/// order, for the caller: `unwrap` files the former, the alarm handler
/// re-homes the latter. Arrivals run without a machine context (`net`
/// is `None`), and a step on an arrival decides no wire action.
fn apply(
    acts: &mut Vec<RelAction>,
    now: u64,
    mut net: Option<&mut dyn NetCtx>,
    counters: &mut KernelCounters,
    probe: &Option<Probe>,
) {
    const NO_WIRE: &str = "an arrival owes the wire nothing until the step";
    acts.retain_mut(|act| {
        let (to, sys) = match act {
            RelAction::Send { to, seq, bytes, slot, again } => {
                if *again {
                    counters.retransmits += 1;
                    emit(probe, || (now, 0, EventKind::Retransmit { to: *to, seq: *seq }));
                }
                // The slot stays shared with the retransmit buffer, so
                // every copy of the frame on the wire carries the one body.
                (*to, SysMsg::RelData { seq: *seq, bytes: *bytes, slot: Arc::clone(slot) })
            }
            RelAction::Ack { to, seqs } => {
                counters.acks_sent += 1;
                (*to, SysMsg::RelAck { seqs: std::mem::take(seqs) })
            }
            RelAction::Arm(after) => {
                net.as_deref_mut().expect(NO_WIRE).set_alarm(*after);
                return false;
            }
            RelAction::Dup => {
                counters.dup_dropped += 1;
                return false;
            }
            RelAction::Deliver(_) | RelAction::Redirect(_) => return true,
        };
        let bytes = sys.wire_bytes();
        net.as_deref_mut().expect(NO_WIRE).send(to, bytes, crate::pool::payload(sys));
        false
    });
}

/// A machine context that records sends instead of delivering them,
/// shared by this module's tests and the node's.
#[cfg(test)]
pub(crate) mod testnet {
    use multicomputer::{Cost, NetCtx, Payload, Pe};

    pub(crate) struct MockNet {
        me: Pe,
        npes: usize,
        /// The clock `now_ns` reads; tests advance it by hand.
        pub(crate) now: u64,
        pub(crate) sent: Vec<(Pe, u32, Payload)>,
        /// The last `set_alarm` request, as the machine would keep it.
        pub(crate) alarm: Option<Cost>,
    }

    impl MockNet {
        pub(crate) fn new(me: Pe, npes: usize) -> Self {
            MockNet { me, npes, now: 0, sent: Vec::new(), alarm: None }
        }

        /// Destinations of all recorded sends, in order.
        pub(crate) fn dests(&self) -> Vec<Pe> {
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
            self.now
        }
        fn send(&mut self, to: Pe, bytes: u32, payload: Payload) {
            self.sent.push((to, bytes, payload));
        }
        fn charge(&mut self, _cost: Cost) {}
        fn stop(&mut self) {}
        fn deposit(&mut self, _result: Payload) {}
        fn set_alarm(&mut self, after: Cost) {
            self.alarm = Some(after);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testnet::MockNet;
    use super::*;

    /// One end of a link: a transport with everything a `Port` borrows,
    /// and nothing else — no node, no registry.
    struct End {
        t: Transport,
        net: MockNet,
        counters: KernelCounters,
        ctl: VecDeque<(Pe, SysMsg)>,
        /// Waves of the `QdPoll`s the transport handed up, in order.
        got: Vec<u64>,
    }

    impl End {
        fn new(pe: Pe, cfg: ReliableConfig) -> Self {
            End {
                t: Transport::new(pe, 2, BroadcastMode::Tree, false, Some(cfg)),
                net: MockNet::new(pe, 2),
                counters: KernelCounters::default(),
                ctl: VecDeque::new(),
                got: Vec::new(),
            }
        }

        fn port(&mut self) -> Port<'_> {
            Port {
                t: &mut self.t,
                net: &mut self.net,
                probe: &None,
                counters: &mut self.counters,
                ctl: &mut self.ctl,
            }
        }

        /// Hand one copy of a packet the peer sent to this end.
        fn receive(&mut self, from: Pe, payload: multicomputer::Payload) {
            let now = self.net.now;
            let arrival = Arrival { from, at_ns: now, sent_ns: now };
            let sys = *payload.downcast::<SysMsg>().expect("kernel traffic");
            let got = &mut self.got;
            let mut deliver = |_, sys| match sys {
                SysMsg::QdPoll { wave } => got.push(wave),
                _ => panic!("the link carried only QdPoll"),
            };
            self.t.unwrap(&mut self.counters, &None, arrival, sys, &mut deliver);
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Fate {
        Deliver,
        Drop,
        Duplicate,
    }

    /// Move everything `from` put on the wire to `to`, each packet
    /// meeting the next fate of the schedule (`Deliver` once it runs
    /// out). Returns how many packets were dropped.
    fn carry(from: &mut End, to: &mut End, fates: &mut impl Iterator<Item = Fate>) -> u64 {
        let mut drops = 0;
        for (dest, _, payload) in std::mem::take(&mut from.net.sent) {
            assert_eq!(dest, to.t.pe);
            match fates.next().unwrap_or(Fate::Deliver) {
                Fate::Drop => drops += 1,
                Fate::Deliver => to.receive(from.t.pe, payload),
                Fate::Duplicate => {
                    let copy = crate::reliable::duplicate(&payload);
                    to.receive(from.t.pe, copy.expect("reliable traffic can be copied"));
                    to.receive(from.t.pe, payload);
                }
            }
        }
        drops
    }

    /// Run one schedule to completion: PE 0 posts three messages to
    /// PE 1 through a window of two; the first packets on the wire (data
    /// and acks alike) meet `schedule`'s fates, the alarm fires whenever
    /// the wire is idle with frames unacknowledged. Returns
    /// `(retransmits, drops)`.
    fn run(schedule: &[Fate]) -> (u64, u64) {
        let cfg = ReliableConfig { window: 2, ..ReliableConfig::default() };
        let (mut a, mut b) = (End::new(Pe(0), cfg), End::new(Pe(1), cfg));
        let mut fates = schedule.iter().copied();
        let mut drops = 0;
        for wave in 1..=3 {
            a.port().post(Pe(1), SysMsg::QdPoll { wave });
        }
        assert_eq!(a.net.sent.len(), 2, "the window holds the third frame back");
        for _round in 0..200 {
            drops += carry(&mut a, &mut b, &mut fates);
            b.port().begin_step();
            b.port().flush();
            drops += carry(&mut b, &mut a, &mut fates);
            a.port().begin_step();
            a.port().flush();
            if !a.net.sent.is_empty() {
                continue;
            }
            let mut end = KernelCounters::default();
            a.t.end_state(&mut end);
            if end.rel_unacked_end == 0 {
                assert_eq!(b.got, vec![1, 2, 3], "exactly once, in order: {:?}", b.got);
                assert!(a.t.quiet() && b.t.quiet() && !a.t.pending() && !b.t.pending());
                return (a.counters.retransmits, drops);
            }
            // Idle wire, frames unacknowledged: the machine's clock
            // reaches the armed deadline and the alarm fires.
            a.net.now += a.net.alarm.take().expect("unacked frames keep the alarm armed").0;
            let reclaimed = a.port().on_alarm();
            assert!(reclaimed.is_empty(), "control frames are never re-homed");
        }
        panic!("schedule did not complete within 200 rounds");
    }

    #[test]
    fn every_interleaving_delivers_exactly_once_in_order() {
        // Every assignment of {deliver, drop, duplicate} to the first
        // seven packets on the wire: 3^7 = 2187 interleavings of lost,
        // repeated and late data and ack frames.
        const DEPTH: u32 = 7;
        let fate = [Fate::Deliver, Fate::Drop, Fate::Duplicate];
        let mut worst = 0;
        for code in 0..3usize.pow(DEPTH) {
            let schedule: Vec<Fate> = (0..DEPTH).map(|i| fate[code / 3usize.pow(i) % 3]).collect();
            let (retransmits, drops) = run(&schedule);
            // One lost ack can strand a whole window; each stranded
            // frame costs one head-of-line retransmit and no more.
            assert!(retransmits <= 2 * drops, "{retransmits} retransmits for {drops} drops");
            worst = worst.max(retransmits);
        }
        assert!(worst >= u64::from(DEPTH) / 2, "the schedules did exercise retransmission");
    }

    #[test]
    fn combined_messages_wait_for_the_flush_and_show_as_pending() {
        let mut e = End::new(Pe(0), ReliableConfig::default());
        e.t = Transport::new(Pe(0), 2, BroadcastMode::Tree, true, None);
        e.port().post(Pe(1), SysMsg::QdPoll { wave: 1 });
        e.port().post(Pe(1), SysMsg::QdPoll { wave: 2 });
        e.port().post(Pe(0), SysMsg::QdPoll { wave: 3 });
        assert_eq!(e.net.dests(), vec![Pe(0)], "only the self-send bypasses combining");
        assert!(e.t.pending());
        e.port().flush();
        assert!(!e.t.pending());
        let batch = e.net.sent[1].2.downcast_ref::<SysMsg>().expect("unframed");
        assert!(matches!(batch, SysMsg::Batch(inner) if inner.len() == 2));
    }
}
