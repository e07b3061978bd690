//! What both real backends share: one [`NetCtx`], one flush rule, one
//! inbox and one PE loop.
//!
//! The thread machine ([`crate::thread`]) and the process machine
//! (`chare_kernel::proc`) differ only in how a packet reaches another PE:
//! an inbox in shared memory, or an encoded frame on a socket. Each says
//! that much as a [`Link`], and [`RealCtx`] does the rest the same way on
//! both — the clock, the loopback queue for self-sends, when a held
//! packet leaves, the alarm, and the scheduler turn that drives the node.
//! This is the paper's thin machine layer, retargeted per port while the
//! kernel above it stays one program.
//!
//! # The PE loop
//!
//! A backend boots its node and then calls [`RealCtx::turn`] until
//! [`Link::stopped`]. A turn:
//!
//! 1. takes everything waiting in the PE's [`Inbox`] under one lock, reads
//!    the clock once for the whole take (only if the node
//!    [stamps](NodeProgram::stamps); 0 otherwise), and hands it to the
//!    node through [`Link::open`]; then it delivers the self-sends, so
//!    priorities act on everything available;
//! 2. returns if the link now reports a stop;
//! 3. runs the alarm if its deadline has passed, and pushes everything
//!    held after it, or else runs one step;
//! 4. with nothing to do, pushes everything held (rule (d) below) and
//!    idles on the inbox until mail arrives, the stop flag is set, or the
//!    alarm's deadline passes, whichever is first.
//!
//! # The inbox and the park/wake handshake
//!
//! An [`Inbox`] is a `Mutex<Vec<T>>` that senders append whole batches
//! to, a `has_mail` hint written under the lock, and two flags of the
//! owner's: `parked` and `hungry`. A take swaps the whole vector for the
//! owner's empty one, and is skipped while the hint is clear, so an empty
//! turn stays off the lock. An idle owner spins on the hint for a bounded
//! number of turns if the backend asks it to, and then parks.
//!
//! The one ordering obligation is the park/wake handshake, a Dekker
//! pattern over two flags. The owner publishes `parked`, issues a
//! `SeqCst` fence, re-checks what rouses it (`has_mail` and the stop
//! flag), and only then parks. A waker writes what the owner re-checks
//! (a push sets `has_mail` under the lock; a stop sets the stop flag),
//! issues a `SeqCst` fence, and only then reads `parked`. Whichever
//! fence comes second in the single total order sees the other side's
//! write: either the owner finds the mail and does not park, or the
//! waker finds `parked` and unparks it. The flags publish no data
//! themselves (the mutex does that), so they are `Relaxed` around those
//! fences, except that `parked` is stored with `Release` and loaded with
//! `Acquire`: the owner registers its thread handle when it first parks,
//! and a waker that sees `parked` must see the handle too. A park also
//! ends at its timeout: the alarm's deadline, or [`IDLE_PARK`], which
//! only bounds the damage of a lost wake-up.
//!
//! # When held packets leave
//!
//! A remote send is held per destination, because each push costs a
//! lock and a fence (threads) or a `write` (processes). A destination's
//! held packets are pushed, whole and in send order:
//!
//! * (a) when it holds `max_packets` packets or `max_bytes` bytes (as
//!   [`Link::hold`] counts them);
//! * (b) when the destination is [hungry](Link::hungry), checked at the
//!   send and again at the end of every step for each destination that
//!   holds something;
//! * (c) every [`FLUSH_EVERY_STEPS`] steps, with every other destination;
//! * (d) at [`RealCtx::flush_all`], which a turn calls before its PE
//!   waits for work and after an alarm, so an idle PE holds nothing and
//!   a retransmission does not wait for later steps.
//!
//! (c) bounds a hold by [`FLUSH_EVERY_STEPS`] steps of a busy sender and
//! (d) empties an idle one, so every packet leaves; hungry is only a hint,
//! and a stale read of it delays a packet within that bound. A self-send
//! is never held: it waits in the loopback queue for the next turn.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::pe::Pe;
use crate::program::{NetCtx, NodeProgram, Packet, Payload, StepKind};
use crate::time::Cost;
use crate::FLUSH_EVERY_STEPS;

/// Turns an idle PE spins on its mail hint before parking (≈10 ns each):
/// about the time a futex wake and reschedule would cost, so a reply
/// that is already on its way is met without a syscall on either side.
const SPIN_TURNS: u32 = 2_000;

/// Backstop on a park. Every event that ends idleness (a push, a stop)
/// unparks the PE and an alarm shortens the park to its deadline, so this
/// only bounds the damage of a lost wake-up, and is long enough that one
/// would show in the tests and the ledger.
pub const IDLE_PARK: Duration = Duration::from_secs(1);

/// What a real backend supplies to [`RealCtx`]: where held packets wait,
/// how they leave, where arrivals wait, and the machine-wide effects of a
/// handler.
pub trait Link {
    /// What this backend's [`Inbox`] carries: packets, or frames still to
    /// decode.
    type Mail: Send;

    /// Keep `pkt` for PE `to` (never this PE) until the next
    /// [`push`](Link::push) to `to`. Returns the bytes it adds toward the
    /// `max_bytes` cap.
    fn hold(&mut self, to: Pe, pkt: Packet) -> usize;

    /// Send everything held for `to`, whole and in order.
    fn push(&mut self, to: Pe);

    /// Whether `to` has said it is waiting for work: a hint, read at each
    /// send and step end. Default: never.
    fn hungry(&self, _to: Pe) -> bool {
        false
    }

    /// [`NetCtx::stop`].
    fn stop(&mut self);

    /// [`NetCtx::deposit`].
    fn deposit(&mut self, result: Payload);

    /// Whether this PE's run is over, by a stop here or elsewhere. The
    /// flag behind it must rouse a parked owner of [`inbox`](Link::inbox)
    /// by the handshake in the module doc.
    fn stopped(&self) -> bool;

    /// This PE's inbox.
    fn inbox(&self) -> &Inbox<Self::Mail>;

    /// Hand what `mail` carries to `node`, each packet stamped as arrived
    /// at `at_ns`.
    fn open(&mut self, mail: Self::Mail, at_ns: u64, node: &mut impl NodeProgram);
}

/// One PE's mailbox. Cache-line aligned (two lines, for the adjacent-line
/// prefetcher) so senders to neighbouring PEs do not false-share.
#[repr(align(128))]
pub struct Inbox<T> {
    pub(crate) queue: Mutex<Vec<T>>,
    /// Hint that `queue` is non-empty; written under the queue lock, read
    /// without it so an empty take and the idle spin stay off the lock.
    pub(crate) has_mail: AtomicBool,
    /// Published by the owner before it parks (see the module doc).
    parked: AtomicBool,
    /// Set by the owner while it is in [`idle`](Inbox::idle): a hint,
    /// never an obligation, which a backend's [`Link::hungry`] may read.
    pub(crate) hungry: AtomicBool,
    /// The owning PE thread, registered when it first parks.
    owner: OnceLock<Thread>,
}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        let (queue, owner, flag) = (Mutex::default(), OnceLock::new(), AtomicBool::default);
        Inbox { queue, has_mail: flag(), parked: flag(), hungry: flag(), owner }
    }
}

impl<T> Inbox<T> {
    /// Append the whole of `batch`, leaving it empty with its allocation
    /// kept for the next batch, then wake the owner if it is parked.
    pub fn push(&self, batch: &mut Vec<T>) {
        {
            let mut queue = self.queue.lock().expect("a PE panicked holding an inbox");
            queue.append(batch);
            self.has_mail.store(true, Ordering::Relaxed);
        }
        self.wake_if_parked();
    }

    /// The waker's half of the handshake; the caller has already written
    /// what the owner re-checks (`has_mail` or a stop flag).
    pub fn wake_if_parked(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Acquire) {
            self.owner.get().expect("owner registers before parking").unpark();
        }
    }

    /// Move everything queued into `batch` (which must be empty; its
    /// allocation is handed to the senders). True if there was anything.
    pub(crate) fn take(&self, batch: &mut Vec<T>) -> bool {
        if !self.has_mail.load(Ordering::Relaxed) {
            return false;
        }
        let mut queue = self.queue.lock().expect("a PE panicked holding an inbox");
        std::mem::swap(&mut *queue, batch);
        self.has_mail.store(false, Ordering::Relaxed);
        true
    }

    /// Wait (owner only), hungry all the while, until there may be mail,
    /// `stopped()`, or `timeout` has passed.
    fn idle(&self, stopped: impl Fn() -> bool, spin: bool, timeout: Duration) {
        self.hungry.store(true, Ordering::Relaxed);
        self.wait(|| self.has_mail.load(Ordering::Relaxed) || stopped(), spin, timeout);
        self.hungry.store(false, Ordering::Relaxed);
    }

    /// The owner's half of the handshake: spin on `roused` if `spin`, then
    /// park unless it holds, for at most `timeout`. It may return early;
    /// `roused` must read only flags whose writers then call
    /// [`wake_if_parked`](Inbox::wake_if_parked).
    pub fn wait(&self, roused: impl Fn() -> bool, spin: bool, timeout: Duration) {
        if spin {
            for _ in 0..SPIN_TURNS {
                if roused() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        self.owner.get_or_init(std::thread::current);
        self.parked.store(true, Ordering::Release);
        fence(Ordering::SeqCst);
        if !roused() {
            std::thread::park_timeout(timeout);
        }
        self.parked.store(false, Ordering::Relaxed);
    }
}

/// What one destination holds, as the caps count it.
#[derive(Clone, Copy, Default)]
struct Held {
    packets: usize,
    bytes: usize,
}

/// A real backend's [`NetCtx`] for one PE: everything but the [`Link`].
pub struct RealCtx<L: Link> {
    me: Pe,
    /// The instant [`NetCtx::now_ns`] counts from.
    pub start: Instant,
    /// The node's [`stamps`](crate::NodeProgram::stamps): if false, no
    /// send or take reads the clock and packets carry 0.
    pub stamps: bool,
    /// The backend's half.
    pub link: L,
    loopback: VecDeque<Packet>,
    /// The last take from the inbox, emptied as it is opened.
    mail: Vec<L::Mail>,
    /// When the alarm is due, on this context's clock.
    alarm_at: Option<u64>,
    /// Per PE of the machine, this one's included.
    held: Box<[Held]>,
    max_packets: usize,
    max_bytes: usize,
    /// Steps since the last [`flush_all`](Self::flush_all).
    pub(crate) unflushed_steps: u32,
}

impl<L: Link> RealCtx<L> {
    /// PE `me` of `npes`, pushing a destination at `max_packets` packets
    /// or `max_bytes` bytes; it stamps until told otherwise.
    pub fn with_link(
        me: Pe, npes: usize, start: Instant, link: L, max_packets: usize, max_bytes: usize,
    ) -> Self {
        RealCtx {
            me,
            start,
            stamps: true,
            link,
            loopback: VecDeque::new(),
            mail: Vec::new(),
            alarm_at: None,
            held: vec![Held::default(); npes].into(),
            max_packets,
            max_bytes,
            unflushed_steps: 0,
        }
    }

    fn push(&mut self, to: usize) {
        self.link.push(Pe::from(to));
        self.held[to] = Held::default();
    }

    /// Push every destination that holds something: (c) and (d).
    pub fn flush_all(&mut self) {
        for to in 0..self.held.len() {
            if self.held[to].packets > 0 {
                self.push(to);
            }
        }
        self.unflushed_steps = 0;
    }

    /// A step ended: push what a hungry PE is waiting for (b), and
    /// everything every [`FLUSH_EVERY_STEPS`] steps (c).
    pub fn step_done(&mut self) {
        self.unflushed_steps += 1;
        if self.unflushed_steps >= FLUSH_EVERY_STEPS {
            self.flush_all();
            return;
        }
        for to in 0..self.held.len() {
            if self.held[to].packets > 0 && self.link.hungry(Pe::from(to)) {
                self.push(to);
            }
        }
    }

    /// The oldest self-send not yet delivered.
    pub fn pop_local(&mut self) -> Option<Packet> {
        self.loopback.pop_front()
    }

    /// One turn of the PE loop (module doc), spinning before a park if
    /// `spin`. Returns what the step ran, if the turn stepped.
    pub fn turn(&mut self, node: &mut impl NodeProgram, spin: bool) -> Option<StepKind> {
        if self.link.inbox().take(&mut self.mail) {
            let now = if self.stamps { self.now_ns() } else { 0 };
            for mail in self.mail.drain(..) {
                self.link.open(mail, now, node);
            }
        }
        while let Some(pkt) = self.pop_local() {
            node.incoming(pkt);
        }
        if self.link.stopped() {
            return None;
        }
        if self.alarm_at.is_some_and(|at| self.now_ns() >= at) {
            self.alarm_at = None;
            node.alarm(self);
            self.flush_all();
            return None;
        }
        if node.has_work() {
            let kind = node.step(self);
            self.step_done();
            return kind;
        }
        self.flush_all();
        let due = |at: u64| Duration::from_nanos(at.saturating_sub(self.now_ns()));
        let timeout = self.alarm_at.map_or(IDLE_PARK, |at| due(at).min(IDLE_PARK));
        self.link.inbox().idle(|| self.link.stopped(), spin, timeout);
        None
    }
}

impl<L: Link> NetCtx for RealCtx<L> {
    fn me(&self) -> Pe {
        self.me
    }
    fn num_pes(&self) -> usize {
        self.held.len()
    }
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
    fn send(&mut self, to: Pe, bytes: u32, payload: Payload) {
        assert!(to.index() < self.held.len(), "send to PE out of range");
        let now = if self.stamps { self.now_ns() } else { 0 };
        // The receiver stamps a remote packet's arrival; a self-send
        // keeps this one.
        let pkt = Packet { from: self.me, bytes, at_ns: now, sent_ns: now, payload };
        if to == self.me {
            self.loopback.push_back(pkt);
            return;
        }
        let added = self.link.hold(to, pkt);
        let held = &mut self.held[to.index()];
        held.packets += 1;
        held.bytes += added;
        // A link that counts no bytes (threads) compiles the byte cap away.
        let full = held.packets >= self.max_packets || (added > 0 && held.bytes >= self.max_bytes);
        if full || self.link.hungry(to) {
            self.push(to.index());
        }
    }
    fn charge(&mut self, _cost: Cost) {
        // Real work takes real time on these backends.
    }
    fn stop(&mut self) {
        self.link.stop();
    }
    fn deposit(&mut self, result: Payload) {
        self.link.deposit(result);
    }
    fn set_alarm(&mut self, after: Cost) {
        self.alarm_at = Some(self.now_ns().saturating_add(after.as_nanos().max(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records each push as (destination, packets it carried); `bytes`
    /// is what each hold claims, and `hungry` which PEs say they wait.
    /// Mail is packets, opened as they are; `stopped` is what the link
    /// reports.
    #[derive(Default)]
    struct Tape {
        held: Vec<Vec<Packet>>,
        pushes: Vec<(usize, usize)>,
        bytes: usize,
        hungry: Vec<bool>,
        inbox: Inbox<Packet>,
        stopped: bool,
    }

    impl Link for Tape {
        type Mail = Packet;
        fn hold(&mut self, to: Pe, pkt: Packet) -> usize {
            self.held[to.index()].push(pkt);
            self.bytes
        }
        fn push(&mut self, to: Pe) {
            let n = std::mem::take(&mut self.held[to.index()]).len();
            self.pushes.push((to.index(), n));
        }
        fn hungry(&self, to: Pe) -> bool {
            self.hungry[to.index()]
        }
        fn stop(&mut self) {}
        fn deposit(&mut self, _result: Payload) {}
        fn stopped(&self) -> bool {
            self.stopped
        }
        fn inbox(&self) -> &Inbox<Packet> {
            &self.inbox
        }
        fn open(&mut self, mut pkt: Packet, at_ns: u64, node: &mut impl NodeProgram) {
            pkt.at_ns = at_ns;
            node.incoming(pkt);
        }
    }

    /// PE 0 of `npes`, capped at `max_packets` and `max_bytes`, each hold
    /// claiming `bytes`.
    fn ctx(npes: usize, max_packets: usize, max_bytes: usize, bytes: usize) -> RealCtx<Tape> {
        let tape = Tape {
            held: (0..npes).map(|_| Vec::new()).collect(),
            bytes,
            hungry: vec![false; npes],
            ..Tape::default()
        };
        RealCtx::with_link(Pe::ZERO, npes, Instant::now(), tape, max_packets, max_bytes)
    }

    fn send(ctx: &mut RealCtx<Tape>, to: usize) {
        ctx.send(Pe::from(to), 8, Box::new(()));
    }

    fn pushes(ctx: &mut RealCtx<Tape>) -> Vec<(usize, usize)> {
        std::mem::take(&mut ctx.link.pushes)
    }

    #[test]
    fn a_destination_leaves_at_max_packets() {
        let mut ctx = ctx(2, 4, usize::MAX, 0);
        for _ in 0..3 {
            send(&mut ctx, 1);
        }
        assert_eq!(pushes(&mut ctx), []);
        send(&mut ctx, 1);
        assert_eq!(pushes(&mut ctx), [(1, 4)]);
        send(&mut ctx, 1);
        assert_eq!(pushes(&mut ctx), [], "the count starts again after a push");
    }

    #[test]
    fn a_destination_leaves_at_max_bytes_before_max_packets() {
        let mut ctx = ctx(2, 64, 100, 30);
        for _ in 0..3 {
            send(&mut ctx, 1);
        }
        assert_eq!(pushes(&mut ctx), [], "90 bytes is below the cap");
        send(&mut ctx, 1);
        assert_eq!(pushes(&mut ctx), [(1, 4)], "120 bytes reaches it");
        for _ in 0..3 {
            send(&mut ctx, 1);
        }
        assert_eq!(pushes(&mut ctx), [], "the bytes start again after a push");
    }

    #[test]
    fn a_hungry_destination_gets_a_packet_at_the_send() {
        let mut ctx = ctx(3, 64, usize::MAX, 0);
        ctx.link.hungry[2] = true;
        send(&mut ctx, 1);
        send(&mut ctx, 2);
        assert_eq!(pushes(&mut ctx), [(2, 1)]);
    }

    #[test]
    fn step_end_pushes_only_hungry_destinations_that_hold_something() {
        let mut ctx = ctx(4, 64, usize::MAX, 0);
        send(&mut ctx, 1);
        send(&mut ctx, 2);
        // PE 3 is hungry but holds nothing; PE 2 holds but is busy.
        ctx.link.hungry[1] = true;
        ctx.link.hungry[3] = true;
        ctx.step_done();
        assert_eq!(pushes(&mut ctx), [(1, 1)]);
        ctx.step_done();
        assert_eq!(pushes(&mut ctx), [], "nothing held for a hungry PE");
    }

    #[test]
    fn every_destination_leaves_at_step_16() {
        let mut ctx = ctx(3, 64, usize::MAX, 0);
        send(&mut ctx, 1);
        send(&mut ctx, 2);
        send(&mut ctx, 2);
        for step in 1..FLUSH_EVERY_STEPS {
            ctx.step_done();
            assert_eq!(pushes(&mut ctx), [], "held after step {step}");
        }
        ctx.step_done();
        assert_eq!(pushes(&mut ctx), [(1, 1), (2, 2)]);
        assert_eq!(ctx.unflushed_steps, 0);
    }

    #[test]
    fn flush_all_pushes_each_destination_that_holds_once() {
        let mut ctx = ctx(4, 64, usize::MAX, 0);
        send(&mut ctx, 3);
        send(&mut ctx, 1);
        send(&mut ctx, 3);
        ctx.step_done();
        ctx.flush_all();
        assert_eq!(pushes(&mut ctx), [(1, 1), (3, 2)]);
        assert_eq!(ctx.unflushed_steps, 0);
        ctx.flush_all();
        assert_eq!(pushes(&mut ctx), [], "nothing is held twice");
    }

    #[test]
    fn a_self_send_is_never_held_or_pushed() {
        let mut ctx = ctx(2, 1, 0, 0);
        ctx.link.hungry[0] = true;
        send(&mut ctx, 0);
        send(&mut ctx, 0);
        for _ in 0..FLUSH_EVERY_STEPS {
            ctx.step_done();
        }
        ctx.flush_all();
        assert_eq!(pushes(&mut ctx), []);
        assert!(ctx.link.held.iter().all(Vec::is_empty));
        assert!(ctx.pop_local().is_some_and(|pkt| pkt.from == Pe::ZERO));
        assert!(ctx.pop_local().is_some());
        assert!(ctx.pop_local().is_none());
    }

    fn parcel(from: usize, payload: Payload) -> Packet {
        Packet {
            from: Pe::from(from),
            bytes: 8,
            at_ns: 0,
            sent_ns: 0,
            payload,
        }
    }

    #[test]
    fn inbox_keeps_every_packet_once_and_in_sender_order() {
        const PRODUCERS: usize = 4;
        const EACH: u64 = 5_000;
        let inbox = Inbox::default();
        inbox
            .owner
            .set(std::thread::current())
            .expect("fresh inbox");
        let mut next = [0u64; PRODUCERS];
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let inbox = &inbox;
                s.spawn(move || {
                    // Batches of one to seven packets, as combining sends them.
                    let mut batch = Vec::new();
                    for i in 0..EACH {
                        batch.push(parcel(p, Box::new(i)));
                        if batch.len() > (p + i as usize) % 7 || i == EACH - 1 {
                            inbox.push(&mut batch);
                            assert!(batch.is_empty(), "a push takes the whole batch");
                        }
                    }
                });
            }
            // The consumer is the owner: it takes as the PE loop does,
            // parking in between, so the wake path is exercised too.
            let mut batch = Vec::new();
            let mut got = 0;
            while got < PRODUCERS as u64 * EACH {
                if !inbox.take(&mut batch) {
                    inbox.idle(|| false, false, IDLE_PARK);
                    continue;
                }
                for pkt in batch.drain(..) {
                    let i = *pkt.payload.downcast::<u64>().expect("payload type");
                    assert_eq!(i, next[pkt.from.index()], "lost, duplicated or reordered");
                    next[pkt.from.index()] += 1;
                    got += 1;
                }
            }
        });
        assert_eq!(next, [EACH; PRODUCERS]);
        assert!(!inbox.take(&mut Vec::new()), "nothing beyond what was sent");
    }

    #[test]
    fn dropping_an_inbox_frees_what_is_still_queued() {
        let token = std::sync::Arc::new(());
        let inbox = Inbox::default();
        for _ in 0..100 {
            inbox.push(&mut vec![parcel(1, Box::new(std::sync::Arc::clone(&token)))]);
        }
        assert_eq!(std::sync::Arc::strong_count(&token), 101);
        drop(inbox);
        assert_eq!(std::sync::Arc::strong_count(&token), 1);
    }

    /// Logs what a turn hands it; each packet is one step of work, and
    /// the alarm sends PE 1 one packet.
    #[derive(Default)]
    struct Log {
        seen: Vec<String>,
        queued: usize,
    }

    impl NodeProgram for Log {
        fn boot(&mut self, _net: &mut dyn NetCtx) {}
        fn incoming(&mut self, pkt: Packet) {
            self.seen.push(format!("from {}", pkt.from.index()));
            self.queued += 1;
        }
        fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
            self.queued -= 1;
            self.seen.push("step".into());
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            self.queued > 0
        }
        fn alarm(&mut self, net: &mut dyn NetCtx) {
            self.seen.push("alarm".into());
            net.send(Pe::from(1), 8, Box::new(()));
        }
    }

    #[test]
    fn a_turn_opens_the_inbox_then_self_sends_and_runs_a_due_alarm_before_a_step() {
        let mut ctx = ctx(2, 64, usize::MAX, 0);
        let mut node = Log::default();
        ctx.link.inbox.push(&mut vec![parcel(1, Box::new(()))]);
        send(&mut ctx, 0);
        ctx.set_alarm(Cost::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(ctx.turn(&mut node, false), None, "the alarm, not a step");
        assert_eq!(node.seen, ["from 1", "from 0", "alarm"]);
        assert_eq!(pushes(&mut ctx), [(1, 1)], "what the alarm sent left after it");
        assert_eq!(ctx.turn(&mut node, false), Some(StepKind::User));
        assert_eq!(ctx.turn(&mut node, false), Some(StepKind::User));
        assert_eq!(node.seen[3..], ["step", "step"], "an alarm fires once");
    }

    #[test]
    fn a_stop_ends_the_turn_once_the_mail_is_delivered() {
        let mut ctx = ctx(2, 64, usize::MAX, 0);
        let mut node = Log::default();
        ctx.link.inbox.push(&mut vec![parcel(1, Box::new(()))]);
        send(&mut ctx, 0);
        ctx.link.stopped = true;
        assert_eq!(ctx.turn(&mut node, false), None);
        assert_eq!(node.seen, ["from 1", "from 0"], "delivered, not stepped");
    }

    #[test]
    fn an_idle_turn_pushes_what_is_held_and_wakes_at_the_alarm() {
        const AFTER: Duration = Duration::from_millis(20);
        let mut ctx = ctx(2, 64, usize::MAX, 0);
        let mut node = Log::default();
        send(&mut ctx, 1);
        ctx.set_alarm(Cost::millis(20));
        let began = Instant::now();
        while node.seen.is_empty() {
            assert_eq!(ctx.turn(&mut node, false), None);
        }
        let waited = began.elapsed();
        assert_eq!(node.seen, ["alarm"]);
        assert_eq!(pushes(&mut ctx), [(1, 1), (1, 1)], "(d) before the wait, then the alarm's");
        assert!(waited >= AFTER, "the alarm ran {waited:?} after it was set");
        assert!(waited < IDLE_PARK / 2, "woken by the deadline, not the backstop: {waited:?}");
    }
}
