//! Real-parallel backend: one OS thread per PE.
//!
//! This is the stand-in for the paper's shared-memory ports (Sequent
//! Symmetry, Encore Multimax): every PE is an OS thread, the
//! interconnect is one inbox per PE in shared memory, and wall-clock
//! time is the metric. The same [`NodeProgram`] that runs on the
//! simulator runs here unchanged — the machine-independence the paper
//! demonstrates by porting one kernel across machines.
//!
//! # Inbox protocol
//!
//! * **Send to another PE**: hold the packet in the sender's buffer for
//!   that destination (see "Send side" below). A buffer leaves whole: it
//!   is appended to the destination's `Mutex<Vec<Packet>>` under one
//!   lock, and then the owner is woken *only if it has published that it
//!   is parked*. The common push is a short critical section and no
//!   syscall.
//! * **Send to self**: push onto a `VecDeque` private to the sending
//!   thread; shared memory is never touched.
//! * **Receive**: once per loop turn the owner swaps the whole shared
//!   vector for an empty reused one (one lock per batch, skipped while
//!   the `has_mail` hint is clear) and stamps the batch's arrival time
//!   with a single clock read. Stamps are telemetry: a PE whose node
//!   does not [stamp](NodeProgram::stamps) reads the clock neither here
//!   nor per send, and its packets carry 0.
//! * **Idle**: a PE with neither work nor mail spins on the hint for a
//!   bounded number of turns, provided every PE can have a core to itself
//!   (`npes <= available_parallelism()`), and then parks.
//!
//! The one ordering obligation is the park/wake handshake, a Dekker
//! pattern over two flags. The owner publishes `parked`, issues a
//! `SeqCst` fence, re-checks `has_mail` (and the stop flag), and only
//! then parks. A sender pushes (setting `has_mail` under the lock),
//! issues a `SeqCst` fence, and only then reads `parked`. Whichever
//! fence comes second in the single total order sees the other side's
//! write: either the owner finds the mail and does not park, or the
//! sender finds `parked` and unparks it. [`NetCtx::stop`] follows the
//! sender's half with the stop flag in place of the push. The flags
//! publish no data themselves (the mutex does that), so they are
//! `Relaxed` around those fences.
//!
//! # Send side: hungry
//!
//! A sender holds remote packets per destination and pushes them by the
//! rule in [`crate::real`]; this backend's [`Link`] is a `Vec<Packet>` per
//! destination, capped at [`BATCH_PACKETS`] packets and never by bytes.
//! Its one trigger of its own is *hungry*: the owner publishes it when it
//! enters `idle` and clears it when it leaves, so a PE with no work waits
//! at most for the end of one sender step. The flag shares the inbox's
//! cache line. A busy owner writes that line only when it drains mail, at
//! most once per push, so the read on every send misses at most once per
//! push; and a sender that finds the owner hungry is about to push, so it
//! needs the line anyway. (On a line of its own the flag measured no
//! faster end to end and added about 100 ns to a ring hop, docs/PERF.md.)
//! Combining adds no ordering obligation: every push still ends with the
//! waker's half of the handshake above. A stop drops held packets exactly
//! as it drops packets already queued in an inbox.
//!
//! Unlike the simulator, the thread machine cannot observe global
//! quiescence for free; programs end by calling [`NetCtx::stop`] (the
//! kernel's `CkExit`, possibly triggered by its quiescence-detection
//! module), which unparks every PE and the launching thread. A watchdog
//! deadline ([`ThreadConfig::watchdog`]) guards tests and benchmarks
//! against programs that never stop.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::pe::Pe;
use crate::program::{NetCtx, NodeFactory, NodeProgram, Packet, Payload};
use crate::real::{Link, RealCtx};
use crate::BATCH_PACKETS;

/// Configuration of the thread-parallel machine.
#[derive(Clone, Debug)]
pub struct ThreadConfig {
    /// Number of PEs (threads).
    pub npes: usize,
    /// Abort the run after this much wall time if the program has not
    /// stopped itself.
    pub watchdog: Duration,
}

impl ThreadConfig {
    /// `npes` threads with a 60-second watchdog.
    pub fn new(npes: usize) -> Self {
        assert!(npes > 0, "machine needs at least one PE");
        ThreadConfig {
            npes,
            watchdog: Duration::from_secs(60),
        }
    }

    /// Override the watchdog deadline.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }
}

/// Result of a thread-machine run of `N` nodes.
pub struct ThreadReport<N> {
    /// Wall-clock duration from launch to last thread exit.
    pub wall: Duration,
    /// The last payload a handler deposited, if any.
    pub result: Option<Payload>,
    /// The nodes, in PE order, as their threads left them.
    pub nodes: Vec<N>,
    /// True if the watchdog fired before the program stopped.
    pub timed_out: bool,
}

impl<N> ThreadReport<N> {
    /// Downcast the deposited result.
    pub fn result_as<T: 'static>(&self) -> Option<&T> {
        crate::program::result_ref(&self.result)
    }

    /// Take and downcast the deposited result.
    pub fn take_result<T: 'static>(&mut self) -> Option<T> {
        crate::program::take_result(&mut self.result)
    }
}

/// Turns an idle PE spins on its mail hint before parking (≈10 ns each):
/// about the time a futex wake and reschedule would cost, so a reply
/// that is already on its way is met without a syscall on either side.
const SPIN_TURNS: u32 = 2_000;

/// Backstop on a park. Every event that ends idleness (a push, a stop)
/// unparks the PE, so this only bounds the damage of a lost wake-up, and
/// is long enough that one would show in the tests and the ledger.
const IDLE_PARK: Duration = Duration::from_secs(1);

/// One PE's mailbox. Cache-line aligned (two lines, for the adjacent-line
/// prefetcher) so senders to neighbouring PEs do not false-share.
#[derive(Default)]
#[repr(align(128))]
struct Inbox {
    queue: Mutex<Vec<Packet>>,
    /// Hint that `queue` is non-empty; written under the queue lock, read
    /// without it so an empty drain and the idle spin stay off the lock.
    has_mail: AtomicBool,
    /// Published by the owner before it parks (see the module doc).
    parked: AtomicBool,
    /// Set by the owner while it is in `idle`; read by senders on every
    /// send (see "Send side" in the module doc).
    hungry: AtomicBool,
    /// The owning PE thread, registered before it first publishes `parked`.
    owner: OnceLock<Thread>,
}

impl Inbox {
    /// Append the whole of `batch`, leaving it empty with its allocation
    /// kept for the next batch, then wake the owner if it is parked.
    fn push(&self, batch: &mut Vec<Packet>) {
        {
            let mut queue = self.queue.lock().expect("a PE panicked holding an inbox");
            queue.append(batch);
            self.has_mail.store(true, Ordering::Relaxed);
        }
        self.wake_if_parked();
    }

    /// Whether the owner is idle: a hint, never an obligation.
    fn hungry(&self) -> bool {
        self.hungry.load(Ordering::Relaxed)
    }

    /// The waker's half of the handshake; the caller has already written
    /// what the owner re-checks (`has_mail` or the stop flag).
    fn wake_if_parked(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            self.owner.get().expect("owner registers before parking").unpark();
        }
    }

    /// Move everything queued into `batch` (which must be empty; its
    /// allocation is handed to the senders). True if there was anything.
    fn take(&self, batch: &mut Vec<Packet>) -> bool {
        if !self.has_mail.load(Ordering::Relaxed) {
            return false;
        }
        let mut queue = self.queue.lock().expect("a PE panicked holding an inbox");
        std::mem::swap(&mut *queue, batch);
        self.has_mail.store(false, Ordering::Relaxed);
        true
    }

    /// Wait (owner only) until there may be mail or `stop` is set, hungry
    /// all the while.
    fn idle(&self, stop: &AtomicBool, spin: bool) {
        self.hungry.store(true, Ordering::Relaxed);
        self.wait(stop, spin);
        self.hungry.store(false, Ordering::Relaxed);
    }

    /// Spin on the hints if `spin`, then park: the owner's half of the
    /// handshake.
    fn wait(&self, stop: &AtomicBool, spin: bool) {
        let roused = || self.has_mail.load(Ordering::Relaxed) || stop.load(Ordering::Relaxed);
        if spin {
            for _ in 0..SPIN_TURNS {
                if roused() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if !roused() {
            std::thread::park_timeout(IDLE_PARK);
        }
        self.parked.store(false, Ordering::Relaxed);
    }
}

struct Shared {
    stop: AtomicBool,
    result: Mutex<Option<Payload>>,
    start: Instant,
    inboxes: Box<[Inbox]>,
    /// The thread that called [`ThreadMachine::run`], parked until stop.
    launcher: Thread,
}

impl Shared {
    fn new(npes: usize) -> Self {
        Shared {
            stop: AtomicBool::new(false),
            result: Mutex::new(None),
            start: Instant::now(),
            inboxes: (0..npes).map(|_| Inbox::default()).collect(),
            launcher: std::thread::current(),
        }
    }

    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        for inbox in self.inboxes.iter() {
            inbox.wake_if_parked();
        }
        self.launcher.unpark();
    }
}

/// A PE's [`Link`] on this machine: the inboxes, and one reused buffer
/// per destination of the packets not yet pushed (its own stays empty).
struct Inboxes {
    shared: Arc<Shared>,
    held: Box<[Vec<Packet>]>,
}

impl Link for Inboxes {
    fn hold(&mut self, to: Pe, pkt: Packet) -> usize {
        self.held[to.index()].push(pkt);
        0
    }
    fn push(&mut self, to: Pe) {
        self.shared.inboxes[to.index()].push(&mut self.held[to.index()]);
    }
    fn hungry(&self, to: Pe) -> bool {
        self.shared.inboxes[to.index()].hungry()
    }
    fn stop(&mut self) {
        self.shared.halt();
    }
    fn deposit(&mut self, result: Payload) {
        *self.shared.result.lock().expect("a PE panicked mid-deposit") = Some(result);
    }
}

type ThreadCtx = RealCtx<Inboxes>;

impl ThreadCtx {
    fn new(me: Pe, shared: Arc<Shared>) -> Self {
        let (npes, start) = (shared.inboxes.len(), shared.start);
        let held = (0..npes).map(|_| Vec::new()).collect();
        RealCtx::with_link(me, npes, start, Inboxes { shared, held }, BATCH_PACKETS, usize::MAX)
    }
}

fn pe_loop<N: NodeProgram>(mut node: N, mut ctx: ThreadCtx, spin: bool) -> N {
    let shared = Arc::clone(&ctx.link.shared);
    let inbox = &shared.inboxes[ctx.me().index()];
    inbox
        .owner
        .set(std::thread::current())
        .expect("one thread per inbox");
    let mut batch = Vec::new();
    ctx.stamps = node.stamps();
    node.boot(&mut ctx);
    while !shared.stop.load(Ordering::Acquire) {
        // Drain arrivals first so priorities act on everything available.
        if inbox.take(&mut batch) {
            if ctx.stamps {
                let now = ctx.now_ns();
                batch.iter_mut().for_each(|pkt| pkt.at_ns = now);
            }
            for pkt in batch.drain(..) {
                node.incoming(pkt);
            }
        }
        while let Some(pkt) = ctx.pop_local() {
            node.incoming(pkt);
        }
        if node.has_work() {
            let _ = node.step(&mut ctx);
            ctx.step_done();
        } else {
            // No packet is ever held by an idle PE.
            ctx.flush_all();
            inbox.idle(&shared.stop, spin);
        }
    }
    node
}

/// The thread-parallel machine.
pub struct ThreadMachine;

impl ThreadMachine {
    /// Run `factory`'s node program on `cfg.npes` OS threads until a
    /// handler calls [`NetCtx::stop`] or the watchdog fires, and hand the
    /// nodes back.
    pub fn run<F>(cfg: ThreadConfig, factory: &F) -> ThreadReport<F::Node>
    where
        F: NodeFactory,
        F::Node: 'static,
    {
        let npes = cfg.npes;
        let shared = Arc::new(Shared::new(npes));
        // Spinning only pays while every PE can hold a core; beyond that
        // a spinner burns the time slice the sender needs.
        let spin = npes <= std::thread::available_parallelism().map_or(1, |n| n.get());

        let mut handles = Vec::with_capacity(npes);
        for i in 0..npes {
            let pe = Pe::from(i);
            let node = factory.build(pe, npes);
            let ctx = ThreadCtx::new(pe, Arc::clone(&shared));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pe-{i}"))
                    .spawn(move || pe_loop(node, ctx, spin))
                    .expect("spawn PE thread"),
            );
        }

        // Watchdog: park until `halt` unparks us or the deadline passes.
        let mut timed_out = false;
        while !shared.stop.load(Ordering::Acquire) {
            let left = cfg.watchdog.saturating_sub(shared.start.elapsed());
            if left.is_zero() {
                timed_out = true;
                shared.halt();
                break;
            }
            std::thread::park_timeout(left);
        }
        let nodes: Vec<F::Node> = handles
            .into_iter()
            .map(|h| h.join().expect("PE thread panicked"))
            .collect();
        let wall = shared.start.elapsed();
        let result = shared
            .result
            .lock()
            .expect("a PE panicked mid-deposit")
            .take();
        ThreadReport {
            wall,
            result,
            nodes,
            timed_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FnFactory, StepKind};
    use crate::FLUSH_EVERY_STEPS;
    use std::collections::VecDeque;

    /// Token ring: passes a counter around all PEs `laps` times, then
    /// PE 0 deposits and stops — same program as the simulator test,
    /// proving backend-independence at this layer.
    struct Relay {
        pe: Pe,
        npes: usize,
        queue: VecDeque<Packet>,
        laps: u32,
        seen: u64,
    }

    impl NodeProgram for Relay {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            if self.pe == Pe::ZERO {
                net.send(Pe::from(1 % self.npes), 8, Box::new(0u64));
            }
        }
        fn incoming(&mut self, pkt: Packet) {
            self.queue.push_back(pkt);
        }
        fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
            let pkt = self.queue.pop_front()?;
            self.seen += 1;
            let count = *pkt.payload.downcast::<u64>().unwrap();
            if self.pe == Pe::ZERO && count + 1 >= (self.laps as u64) * self.npes as u64 {
                net.deposit(Box::new(count + 1));
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

    fn relay(laps: u32) -> FnFactory<impl Fn(Pe, usize) -> Relay> {
        FnFactory(move |pe, npes| Relay {
            pe,
            npes,
            queue: VecDeque::new(),
            laps,
            seen: 0,
        })
    }

    #[test]
    fn ring_completes_on_threads() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(4), &relay(3));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(12));
    }

    #[test]
    fn single_pe_machine_works() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(1), &relay(5));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(5));
    }

    #[test]
    fn stats_are_collected_per_pe() {
        let rep = ThreadMachine::run(ThreadConfig::new(4), &relay(2));
        let pes: Vec<Pe> = rep.nodes.iter().map(|n| n.pe).collect();
        assert_eq!(pes, Pe::all(4).collect::<Vec<_>>());
        // One handler execution per hop: 2 laps of 4 PEs. The stop
        // leaves nothing queued behind the token.
        let seen: Vec<u64> = rep.nodes.iter().map(|n| n.seen).collect();
        assert_eq!(seen, vec![2; 4]);
    }

    #[test]
    fn watchdog_fires_on_nonterminating_program() {
        struct Forever;
        impl NodeProgram for Forever {
            fn boot(&mut self, _net: &mut dyn NetCtx) {}
            fn incoming(&mut self, _pkt: Packet) {}
            fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
                None
            }
            fn has_work(&self) -> bool {
                false
            }
        }
        let cfg = ThreadConfig::new(2).with_watchdog(Duration::from_millis(50));
        let rep = ThreadMachine::run(cfg, &FnFactory(|_, _| Forever));
        assert!(rep.timed_out);
        assert!(rep.result.is_none());
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
        let stop = AtomicBool::new(false);
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
            // The consumer is the owner: it drains as the PE loop does,
            // parking in between, so the wake path is exercised too.
            let mut batch = Vec::new();
            let mut got = 0;
            while got < PRODUCERS as u64 * EACH {
                if !inbox.take(&mut batch) {
                    inbox.idle(&stop, false);
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
        let token = Arc::new(());
        let inbox = Inbox::default();
        for _ in 0..100 {
            inbox.push(&mut vec![parcel(1, Box::new(Arc::clone(&token)))]);
        }
        assert_eq!(Arc::strong_count(&token), 101);
        drop(inbox);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    /// A ring hands one token round, so every hop depends on the wake of
    /// the one before: a lost wake-up costs a whole [`IDLE_PARK`], and a
    /// score of them would push the run past the bound.
    fn ring_finishes_promptly(npes: usize) {
        let laps = (20_000 / npes) as u32;
        let mut rep = ThreadMachine::run(ThreadConfig::new(npes), &relay(laps));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(laps as u64 * npes as u64));
        assert!(
            rep.wall < Duration::from_secs(15),
            "{npes}-PE ring took {:?}",
            rep.wall
        );
    }

    #[test]
    fn no_wakeup_is_lost_on_a_two_pe_ring() {
        ring_finishes_promptly(2);
    }

    #[test]
    fn no_wakeup_is_lost_when_oversubscribed() {
        // More PEs than cores: nobody spins, every hop is a park and a wake.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ring_finishes_promptly(4 * cores);
    }

    #[test]
    fn stop_rouses_parked_pes() {
        /// PE 0 keeps itself busy long enough for the idle PEs to have
        /// parked, then stops the machine.
        struct BusyThenStop {
            busy: bool,
            began: Instant,
        }
        const BUSY: Duration = Duration::from_millis(30);
        impl NodeProgram for BusyThenStop {
            fn boot(&mut self, _net: &mut dyn NetCtx) {}
            fn incoming(&mut self, _pkt: Packet) {}
            fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
                if self.began.elapsed() >= BUSY {
                    self.busy = false;
                    net.stop();
                }
                Some(StepKind::User)
            }
            fn has_work(&self) -> bool {
                self.busy
            }
        }
        let began = Instant::now();
        let factory = FnFactory(move |pe, _| BusyThenStop {
            busy: pe == Pe::ZERO,
            began,
        });
        let rep = ThreadMachine::run(ThreadConfig::new(4), &factory);
        assert!(!rep.timed_out);
        // Woken, not timed out of the park: the backstop alone would
        // hold the join for the rest of IDLE_PARK.
        assert!(
            rep.wall < IDLE_PARK / 2,
            "stop took {:?} to reach parked PEs",
            rep.wall
        );
    }

    #[test]
    fn self_sends_stay_off_the_shared_inbox() {
        let shared = Arc::new(Shared::new(1));
        let mut ctx = ThreadCtx::new(Pe::ZERO, Arc::clone(&shared));
        ctx.send(Pe::ZERO, 8, Box::new(7u64));
        let inbox = &shared.inboxes[0];
        assert!(!inbox.has_mail.load(Ordering::Relaxed));
        let queue = inbox.queue.lock().unwrap();
        assert_eq!((queue.len(), queue.capacity()), (0, 0));
        drop(queue);
        assert!(ctx.link.held[0].is_empty());
        assert!(ctx.pop_local().is_some_and(|pkt| pkt.from == Pe::ZERO));

        let mut rep = ThreadMachine::run(ThreadConfig::new(1), &relay(20_000));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(20_000));
    }

    /// How many packets PE 1's inbox has received since the last call.
    fn arrived(shared: &Shared) -> usize {
        let mut batch = Vec::new();
        shared.inboxes[1].take(&mut batch);
        batch.len()
    }

    #[test]
    fn each_trigger_pushes_what_is_held_and_nothing_else_does() {
        let shared = Arc::new(Shared::new(2));
        let mut ctx = ThreadCtx::new(Pe::ZERO, Arc::clone(&shared));
        let hungry = |on: bool| shared.inboxes[1].hungry.store(on, Ordering::Relaxed);
        let send = |ctx: &mut ThreadCtx| ctx.send(Pe::from(1), 8, Box::new(0u64));

        // (c): a lone packet to a busy PE leaves at the 16th step.
        send(&mut ctx);
        for step in 1..=FLUSH_EVERY_STEPS {
            assert_eq!(arrived(&shared), 0, "held before step {step}");
            ctx.step_done();
        }
        assert_eq!(arrived(&shared), 1);

        // (a): the 64th packet sends all 64.
        for _ in 1..BATCH_PACKETS {
            send(&mut ctx);
        }
        assert_eq!(arrived(&shared), 0);
        send(&mut ctx);
        assert_eq!(arrived(&shared), BATCH_PACKETS);

        // (b) at the send: a hungry PE gets each packet at once.
        hungry(true);
        send(&mut ctx);
        assert_eq!(arrived(&shared), 1);

        // (b) at the end of a step: the PE went hungry after the send.
        hungry(false);
        send(&mut ctx);
        hungry(true);
        assert_eq!(arrived(&shared), 0);
        ctx.step_done();
        assert_eq!(arrived(&shared), 1);

        // (d): everything leaves before this PE idles.
        hungry(false);
        send(&mut ctx);
        send(&mut ctx);
        ctx.flush_all();
        assert_eq!(arrived(&shared), 2);
        assert_eq!(ctx.unflushed_steps, 0);
    }

    /// Keeps a token circulating through its own loopback, so it never
    /// idles; PE 0 also streams [`STREAM`] numbered packets to PE 1, one
    /// per token step, and PE 1 checks their order.
    struct BusyStream {
        pe: Pe,
        queue: VecDeque<Packet>,
        sent: u64,
        got: u64,
    }

    const STREAM: u64 = 10_000;

    impl NodeProgram for BusyStream {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            net.send(self.pe, 0, Box::new(()));
        }
        fn incoming(&mut self, pkt: Packet) {
            self.queue.push_back(pkt);
        }
        fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
            let pkt = self.queue.pop_front()?;
            if pkt.from == self.pe {
                net.send(self.pe, 0, pkt.payload);
                if self.pe == Pe::ZERO && self.sent < STREAM {
                    net.send(Pe::from(1), 8, Box::new(self.sent));
                    self.sent += 1;
                }
            } else {
                let i = *pkt.payload.downcast::<u64>().expect("a numbered packet");
                assert_eq!(i, self.got, "lost, duplicated or reordered");
                self.got += 1;
                if self.got == STREAM {
                    net.stop();
                }
            }
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            !self.queue.is_empty()
        }
    }

    #[test]
    fn held_packets_stay_ordered_and_leave_when_no_pe_idles() {
        // Neither PE ever idles, so neither is hungry and nothing is
        // flushed before a wait: only (a) and (c) send. 10 000 is not a
        // multiple of 64, so the last packets leave by (c) alone.
        let factory = FnFactory(|pe, _| BusyStream {
            pe,
            queue: VecDeque::new(),
            sent: 0,
            got: 0,
        });
        let cfg = ThreadConfig::new(2).with_watchdog(Duration::from_secs(20));
        let rep = ThreadMachine::run(cfg, &factory);
        assert!(!rep.timed_out, "held packets never left a busy sender");
        assert_eq!(rep.nodes[0].sent, STREAM);
        assert_eq!(rep.nodes[1].got, STREAM);
    }

    #[test]
    fn a_busy_sender_does_not_starve_an_idle_pe() {
        /// PE 1 tells PE 0 it has booted, then idles. PE 0 gives it time
        /// to park, then sends it one packet at the start of a 50 ms
        /// step. PE 1 deposits that packet's send-to-drain latency.
        enum Cue {
            Ready,
            Go,
            Parcel,
        }
        struct Starve {
            pe: Pe,
            queue: VecDeque<Packet>,
        }
        const STEP: Duration = Duration::from_millis(50);
        impl NodeProgram for Starve {
            fn boot(&mut self, net: &mut dyn NetCtx) {
                if self.pe != Pe::ZERO {
                    net.send(Pe::ZERO, 8, Box::new(Cue::Ready));
                }
            }
            fn incoming(&mut self, pkt: Packet) {
                self.queue.push_back(pkt);
            }
            fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
                let pkt = self.queue.pop_front()?;
                let (at_ns, sent_ns) = (pkt.at_ns, pkt.sent_ns);
                match *pkt.payload.downcast::<Cue>().expect("a cue") {
                    Cue::Ready => {
                        std::thread::sleep(Duration::from_millis(10));
                        net.send(Pe::ZERO, 0, Box::new(Cue::Go));
                    }
                    Cue::Go => {
                        let began = Instant::now();
                        net.send(Pe::from(1), 8, Box::new(Cue::Parcel));
                        while began.elapsed() < STEP {
                            std::hint::spin_loop();
                        }
                    }
                    Cue::Parcel => {
                        net.deposit(Box::new(at_ns - sent_ns));
                        net.stop();
                    }
                }
                Some(StepKind::User)
            }
            fn has_work(&self) -> bool {
                !self.queue.is_empty()
            }
        }
        let factory = FnFactory(|pe, _| Starve {
            pe,
            queue: VecDeque::new(),
        });
        let mut rep = ThreadMachine::run(ThreadConfig::new(2), &factory);
        assert!(!rep.timed_out);
        let waited = Duration::from_nanos(rep.take_result::<u64>().expect("PE 1 got the parcel"));
        assert!(
            waited < Duration::from_millis(10),
            "an idle PE waited {waited:?} for a packet sent at the start of a {STEP:?} step"
        );
    }

    /// Passes a countdown between two PEs, each hop followed by one
    /// through the receiver's loopback, and keeps every packet's
    /// `(at_ns, sent_ns)`.
    struct Stamps {
        pe: Pe,
        stamps: bool,
        queue: VecDeque<Packet>,
        seen: Vec<(u64, u64)>,
    }

    impl NodeProgram for Stamps {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            if self.pe == Pe::ZERO {
                net.send(Pe::from(1), 8, Box::new(400u32));
            }
        }
        fn incoming(&mut self, pkt: Packet) {
            self.seen.push((pkt.at_ns, pkt.sent_ns));
            self.queue.push_back(pkt);
        }
        fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
            let pkt = self.queue.pop_front()?;
            let left = *pkt.payload.downcast::<u32>().expect("a countdown");
            if left == 0 {
                net.stop();
            } else if pkt.from == self.pe {
                net.send(Pe::from(1 - self.pe.index()), 8, Box::new(left - 1));
            } else {
                net.send(self.pe, 8, Box::new(left - 1));
            }
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            !self.queue.is_empty()
        }
        fn stamps(&self) -> bool {
            self.stamps
        }
    }

    fn stamps_seen(stamps: bool) -> Vec<(u64, u64)> {
        let factory = FnFactory(move |pe, _| Stamps {
            pe,
            stamps,
            queue: VecDeque::new(),
            seen: Vec::new(),
        });
        let rep = ThreadMachine::run(ThreadConfig::new(2), &factory);
        assert!(!rep.timed_out);
        let seen: Vec<(u64, u64)> = rep.nodes.into_iter().flat_map(|n| n.seen).collect();
        assert_eq!(seen.len(), 401, "one packet per hop and per loopback, and the first");
        seen
    }

    #[test]
    fn a_node_that_does_not_stamp_gets_packets_stamped_zero() {
        assert!(stamps_seen(false).iter().all(|&stamps| stamps == (0, 0)));
    }

    #[test]
    fn a_stamping_node_gets_each_packet_sent_before_it_arrived() {
        let seen = stamps_seen(true);
        assert!(seen.iter().all(|&(at_ns, sent_ns)| sent_ns <= at_ns));
        assert!(seen.iter().any(|&(at_ns, _)| at_ns > 0), "the clock was read");
    }

    #[test]
    fn result_downcast_mismatch_is_none() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(2), &relay(1));
        assert!(rep.result_as::<String>().is_none());
        assert_eq!(rep.take_result::<String>(), None);
        // The payload survives a failed take.
        assert_eq!(rep.take_result::<u64>(), Some(2));
    }
}
